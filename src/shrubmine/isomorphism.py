"""Exact subtree isomorphism for rooted trees, ordered and unordered.

A pattern is contained in a target when some target vertex, together with
a parent-closed set of its descendants, is isomorphic (unordered) or
equivalent (ordered) to the pattern.  The decision procedure maps the
pattern root onto each candidate target vertex and recursively matches
child lists: injectively via maximum bipartite matching in unordered mode,
and by greedy order-preserving subsequence matching in ordered mode.

Results for a (pattern node, target node) pair depend only on the two
subtree shapes, so each query memoizes on the pair of subtree encodings
the trees already cache.  No state survives a query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import Dataset, Mode, Tree, canonical_form


@dataclass(frozen=True)
class SupportSet:
    """The dataset indices whose trees contain a given pattern."""

    indices: tuple[int, ...]
    count: int

    @classmethod
    def from_indices(cls, indices) -> "SupportSet":
        idx = tuple(sorted(indices))
        return cls(idx, len(idx))


@dataclass(frozen=True, eq=False)
class EmbeddingWitness:
    """A concrete subtree isomorphism mapping, pattern node -> target node."""

    mapping: dict[int, int]

    def is_valid_for(self, pattern: Tree, target: Tree, mode: Mode) -> bool:
        """Check the witness invariants directly against both trees."""
        m = self.mapping
        if set(m) != set(pattern.nodes()):
            return False
        if len(set(m.values())) != len(m):
            return False
        # child relations must agree exactly in both directions
        for u in pattern.nodes():
            for v in pattern.nodes():
                if (pattern.parents[u] == v) != (target.parents[m[u]] == m[v]):
                    return False
        if mode == "ordered":
            for v in pattern.nodes():
                kids = pattern.children[v]
                positions = [target.children[m[v]].index(m[c]) for c in kids]
                if positions != sorted(positions):
                    return False
        return True


class _Embedder:
    """One containment query; holds the per-query shape memo."""

    def __init__(self, pattern: Tree, target: Tree, mode: Mode):
        self.pattern = pattern
        self.target = target
        self.ordered = mode == "ordered"
        self.pshape = pattern.encodings(mode)
        self.tshape = target.encodings(mode)
        self.memo: dict[tuple[str, str], bool] = {}

    def embeds_at(self, p: int, t: int) -> bool:
        """Can the pattern subtree at ``p`` embed with ``p`` mapped to ``t``?"""
        key = (self.pshape[p], self.tshape[t])
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        pat, tgt = self.pattern, self.target
        if (
            pat.subtree_sizes[p] > tgt.subtree_sizes[t]
            or pat.subtree_heights[p] > tgt.subtree_heights[t]
            or len(pat.children[p]) > len(tgt.children[t])
        ):
            result = False
        else:
            pc = pat.children[p]
            tc = tgt.children[t]
            if not pc:
                result = True
            elif self.ordered:
                result = self._match_ordered(pc, tc) is not None
            else:
                result = self._match_unordered(pc, tc) is not None
        self.memo[key] = result
        return result

    def _match_ordered(self, pc, tc) -> list[int] | None:
        """Greedy order-preserving injection of ``pc`` into ``tc``."""
        positions = []
        j = 0
        for p in pc:
            while j < len(tc) and not self.embeds_at(p, tc[j]):
                j += 1
            if j == len(tc):
                return None
            positions.append(j)
            j += 1
        return positions

    def _match_unordered(self, pc, tc) -> list[int] | None:
        """Maximum bipartite matching covering every pattern child."""
        owner = [-1] * len(tc)  # owner[j] = index into pc matched to tc[j]

        def augment(i: int, seen: set[int]) -> bool:
            for j in range(len(tc)):
                if j in seen or not self.embeds_at(pc[i], tc[j]):
                    continue
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
            return False

        for i in range(len(pc)):
            if not augment(i, set()):
                return None
        positions = [0] * len(pc)
        for j, i in enumerate(owner):
            if i >= 0:
                positions[i] = j
        return positions

    def anchor(self) -> int | None:
        """First target vertex the whole pattern embeds at, if any."""
        pat, tgt = self.pattern, self.target
        root = pat.root
        need_size = pat.subtree_sizes[root]
        need_height = pat.subtree_heights[root]
        for t in tgt.nodes():
            if tgt.subtree_sizes[t] < need_size or tgt.subtree_heights[t] < need_height:
                continue
            if self.embeds_at(root, t):
                return t
        return None

    def extract(self, p: int, t: int, out: dict[int, int]) -> None:
        """Record one concrete embedding of subtree ``p`` at ``t``."""
        out[p] = t
        pc = self.pattern.children[p]
        if not pc:
            return
        tc = self.target.children[t]
        positions = self._match_ordered(pc, tc) if self.ordered else self._match_unordered(pc, tc)
        assert positions is not None, "extract called on a non-embedding pair"
        for child, j in zip(pc, positions):
            self.extract(child, tc[j], out)


def subtree_iso(pattern: Tree, target: Tree, mode: Mode) -> bool:
    """True when ``pattern`` is contained in ``target`` under ``mode``."""
    return _Embedder(pattern, target, mode).anchor() is not None


def find_embedding(pattern: Tree, target: Tree, mode: Mode) -> EmbeddingWitness | None:
    """Like :func:`subtree_iso` but returns one witness mapping when found."""
    query = _Embedder(pattern, target, mode)
    t = query.anchor()
    if t is None:
        return None
    mapping: dict[int, int] = {}
    query.extract(pattern.root, t, mapping)
    return EmbeddingWitness(mapping)


def tree_equal(t1: Tree, t2: Tree, mode: Mode) -> bool:
    """Isomorphism (unordered) or equivalence (ordered) as whole trees."""
    return canonical_form(t1, mode) == canonical_form(t2, mode)


def support_set(pattern: Tree, dataset: Dataset) -> SupportSet:
    """Indices of dataset trees containing ``pattern`` under the dataset mode."""
    hits = [
        i
        for i, t in enumerate(dataset.trees)
        if subtree_iso(pattern, t, dataset.mode)
    ]
    return SupportSet.from_indices(hits)


def is_frequent(pattern: Tree, dataset: Dataset, theta: int) -> bool:
    """Support at least ``theta``; ``theta`` must be a positive integer."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    return support_set(pattern, dataset).count >= theta
