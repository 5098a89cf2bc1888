"""Exhaustive reference implementations used as test oracles.

Every pattern occurring in the dataset is enumerated outright, per tree
and bottom up, with each node's partial child combinations deduped after
every child, so repeated siblings cost their distinct combinations rather
than their product (see ``_rooted_pattern_keys``).  Maximality and closure
are then decided through one-leaf superpatterns alone.  That suffices: for
any occurring strict superpattern Q of a pattern P, some one-leaf extension
P' of P is contained in Q, so P' occurs too and has support at least that
of Q.  Nothing shares code with the matching engine or the signature
algebra, so these routines can sit on the other side of every equivalence
test.  Hard size guards refuse inputs beyond desk scale instead of running
for hours.

A pattern *occurs* in a tree when its root can map onto the tree's root,
i.e. occurrences are the parent-closed vertex subsets containing the root.
Root-aligned occurrence is what the whole mining side uses: it keeps
maximal common trees unique and closures well defined, which free-root
matching does not (see the mining module notes).  The free-root engine in
the isomorphism module has its own independent oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable, Iterable

from .errors import SizeGuardError
from .trees import Dataset, Mode, Tree, check_mode, join_encodings, parse_tree

#: Refuse to enumerate a tree with more root-aligned occurrences than this.
MAX_PATTERNS_PER_TREE = 200_000
#: Hard cap on vertices of any tree handed to the enumerators.
MAX_TREE_VERTICES = 32
#: Hard cap on the ground set of the subset sweeps (MIS, maximal itemsets).
MAX_SWEEP_ELEMENTS = 20


@dataclass(frozen=True)
class Hypergraph:
    """Vertices ``1..n`` plus a list of nonempty hyperedges."""

    n: int
    edges: tuple[frozenset[int], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph":
        es = tuple(frozenset(e) for e in edges)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        for e in es:
            if not e:
                raise ValueError("hyperedges must be nonempty")
            if not all(1 <= v <= n for v in e):
                raise ValueError(f"edge {sorted(e)} leaves the vertex range 1..{n}")
        return cls(n, es)


def _pattern_count(tree: Tree) -> int:
    """Number of parent-closed subsets containing the root."""
    counts = [1] * tree.size
    for v in tree._deepest_first:
        for c in tree.children[v]:
            counts[v] *= 1 + counts[c]
    return counts[tree.root]


def _guard_tree(tree: Tree, where: str, max_patterns: int, max_vertices: int) -> None:
    if tree.size > max_vertices:
        raise SizeGuardError(
            f"{where}: {tree.size} vertices exceeds the brute-force cap of {max_vertices}"
        )
    count = _pattern_count(tree)
    if count > max_patterns:
        raise SizeGuardError(
            f"{where}: {count} root-aligned subtrees exceeds the brute-force cap of {max_patterns}"
        )


def _rooted_pattern_keys(tree: Tree, mode: Mode) -> set[str]:
    """Encodings of every parent-closed subset of ``tree`` containing its root.

    For each node, the combinations of (child absent | child present with
    one of its own encodings) are grown one child at a time and deduped
    after each child: as tuples in ordered mode, as sorted tuples in
    unordered mode, where sibling order is not part of the pattern.  Equal
    partial combinations give equal patterns whatever the later children
    add, so the dedupe loses nothing, and repeated siblings no longer
    multiply the work.  Each node joins its combinations once, at the end.
    """
    unordered = mode == "unordered"
    options: list[list[str]] = [[] for _ in tree.nodes()]
    for v in tree._deepest_first:
        combos: set[tuple[str, ...]] = {()}
        for c in tree.children[v]:
            extended = set(combos)
            for base in combos:
                for enc in options[c]:
                    parts = base + (enc,)
                    extended.add(tuple(sorted(parts)) if unordered else parts)
            combos = extended
        options[v] = [join_encodings(parts, mode) for parts in combos]
    return set(options[tree.root])


def _leaf_deletion_keys(tree: Tree, mode: Mode) -> set[str]:
    """Encodings of ``tree`` with one non-root leaf removed, one per leaf.

    Only the encodings on the path from the removed leaf to the root change;
    they are rebuilt bottom up from the per-node encodings, which stay small
    since the enumerators refuse trees beyond ``MAX_TREE_VERTICES``.
    """
    enc = [""] * tree.size
    for v in tree._deepest_first:
        enc[v] = join_encodings([enc[c] for c in tree.children[v]], mode)
    keys: set[str] = set()
    for leaf in tree.nodes():
        if leaf == tree.root or tree.children[leaf]:
            continue
        child, child_enc = leaf, ""
        v = tree.parents[leaf]
        while v is not None:
            parts = [child_enc if c == child else enc[c] for c in tree.children[v]]
            child, child_enc = v, join_encodings(parts, mode)
            v = tree.parents[v]
        keys.add(child_enc)
    return keys


@dataclass(frozen=True)
class PatternUniverse:
    """Every pattern occurring in a dataset, keyed by canonical encoding.

    ``support[key]`` is the number of dataset trees (duplicates counted
    separately) in which the pattern occurs root aligned.
    """

    patterns: dict[str, Tree]
    support: dict[str, int]
    mode: Mode

    def best_super_support(self) -> dict[str, int]:
        """For each key, the largest support among its strict superpatterns.

        Keys with no occurring superpattern are absent.  The maximum is
        taken over one-leaf superpatterns only, which reach it (see the
        module notes).
        """
        best: dict[str, int] = {}
        for key, tree in self.patterns.items():
            s = self.support[key]
            for sub in _leaf_deletion_keys(tree, self.mode):
                if best.get(sub, -1) < s:
                    best[sub] = s
        return best


def all_patterns(
    dataset: Dataset,
    max_patterns: int = MAX_PATTERNS_PER_TREE,
    max_vertices: int = MAX_TREE_VERTICES,
) -> PatternUniverse:
    """Enumerate every pattern occurring in the dataset, root aligned."""
    check_mode(dataset.mode)
    patterns: dict[str, Tree] = {}
    support: dict[str, int] = {}
    for i, tree in enumerate(dataset.trees):
        _guard_tree(tree, f"dataset tree {i}", max_patterns, max_vertices)
        for key in _rooted_pattern_keys(tree, dataset.mode):
            if key in patterns:
                support[key] += 1
            else:
                patterns[key] = parse_tree(key)
                support[key] = 1
    return PatternUniverse(patterns, support, dataset.mode)


def _check_theta(theta: int) -> None:
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")


def brute_frequent(
    dataset: Dataset, theta: int, universe: PatternUniverse | None = None
) -> dict[str, Tree]:
    """All patterns with support at least ``theta``, keyed canonically."""
    _check_theta(theta)
    u = universe if universe is not None else all_patterns(dataset)
    return {k: t for k, t in u.patterns.items() if u.support[k] >= theta}


def brute_maximal(
    dataset: Dataset, theta: int, universe: PatternUniverse | None = None
) -> dict[str, Tree]:
    """Frequent patterns strictly contained in no other frequent pattern.

    A frequent pattern is dominated exactly when it is a leaf deletion of a
    frequent pattern (see the module notes).
    """
    u = universe if universe is not None else all_patterns(dataset)
    frequent = brute_frequent(dataset, theta, u)
    dominated: set[str] = set()
    for tree in frequent.values():
        dominated.update(_leaf_deletion_keys(tree, u.mode))
    return {k: t for k, t in frequent.items() if k not in dominated}


def brute_closed(
    dataset: Dataset, theta: int, universe: PatternUniverse | None = None
) -> dict[str, Tree]:
    """Frequent patterns every strict superpattern of which loses support.

    Superpatterns range over occurring patterns only, which is exhaustive
    for theta >= 1: an equal-support superpattern of an occurring pattern
    occurs in some tree itself.  Of those, the one-leaf superpatterns
    decide it, since some one-leaf superpattern always has the largest
    support (see the module notes).
    """
    u = universe if universe is not None else all_patterns(dataset)
    frequent = brute_frequent(dataset, theta, u)
    best_super = u.best_super_support()
    return {
        k: t for k, t in frequent.items() if u.support[k] > best_super.get(k, -1)
    }


def brute_mct(dataset: Dataset, universe: PatternUniverse | None = None) -> dict[str, Tree]:
    """All maximal common trees: the maximal patterns at full support."""
    if len(dataset.trees) == 0:
        raise ValueError("maximal common trees of an empty dataset are undefined")
    return brute_maximal(dataset, len(dataset.trees), universe)


def maximal_subsets(
    n: int,
    sets: Iterable[Iterable[int]],
    keep: Callable[[int, list[int]], bool],
    elements: str,
) -> set[frozenset[int]]:
    """The maximal subsets of ``1..n`` that ``keep`` accepts, by subset sweep.

    ``keep(subset, masks)`` is asked once per subset, with the subset and
    each of ``sets`` as bitmasks (bit ``v - 1`` for element ``v``).  The
    size guard, whose message names the ground set as ``elements``, runs
    before any mask is built: a huge element id costs nothing.
    """
    if n > MAX_SWEEP_ELEMENTS:
        raise SizeGuardError(
            f"{n} {elements} exceeds the brute-force cap of {MAX_SWEEP_ELEMENTS}"
        )
    masks = [sum(1 << (v - 1) for v in s) for s in sets]
    kept = bytearray(map(keep, range(1 << n), repeat(masks)))
    bits = [1 << v for v in range(n)]
    maximal: set[frozenset[int]] = set()
    for subset in compress(range(1 << n), kept):
        if not any(kept[subset | bit] for bit in bits if not subset & bit):
            maximal.add(frozenset(v + 1 for v, bit in enumerate(bits) if subset & bit))
    return maximal


def brute_mis(h: Hypergraph) -> set[frozenset[int]]:
    """All maximal independent sets of a hypergraph, by subset sweep.

    A set is independent when it fully contains no hyperedge, and maximal
    when every one-vertex extension stops being independent.
    """
    return maximal_subsets(
        h.n, h.edges, lambda subset, edges: not any(subset & e == e for e in edges), "vertices"
    )
