"""Reverse-search enumeration of closed frequent unordered trees.

Works on unordered datasets whose trees all have height at most 2.
Patterns live in the signature lattice: a pattern occurs in a dataset tree
when its root can map onto the tree's root, equivalently when its
signature is dominated by the tree's.  Under this root-aligned containment
the maximal common tree of any tree set is unique (the dominance meet), so
every pattern has a well-defined closure: the meet of its supporters.

Free-root containment (what the generic engine decides) would break this:
a star can embed below another tree's root, several incomparable maximal
common trees appear, and closures stop being well defined.  The dataset
{(2,1), (3), (1,1)} by signature is a minimal demonstration.

The search walks an implicit forest over the closed frequent patterns
rooted at the closure of the whole dataset.  Every solution is emitted
exactly once, depth first, with working memory bounded by the parent-chain
depth times one frame (a node, its row counts and its pending candidates),
never by the number of solutions, so no visited set is kept.

Parent rule: for a closed non-root pattern P, the parent is the closure of
the support of P extended by one more dataset tree, chosen so that the
resulting signature is the largest such candidate as a tuple.  Dominance
implies tuple order (a pattern strictly below another is a proper prefix of
it or smaller at their first difference), so that candidate is maximal under
dominance.  A larger tuple has a smaller canonical key, so this is the
"smallest canonical key among the dominance-maximal candidates" rule, and
equal signatures are the same tree, so which dataset tree was added never
matters.  A maximal candidate is what guarantees every closed pattern is
reachable from its parent through a one-leaf extension; picking a minimal
candidate instead can strand solutions (in {(2,2), (3,1), (1,1)} the
pattern (2,2) would become unreachable).

The search state is a signature plus its support; trees are built only from
the dataset on input and for the patterns handed back to callers.  Below,
signatures are padded with zeros, so dominance is the pointwise order, the
meet is the pointwise minimum, and the tuple order is the lexicographic
order of the padded entries (the entries are positive).

One-row supports.  A one-leaf extension of n adds one cell in a single row
r: a new root child (r = len(n)) or one more leaf under the first child of
a run of equal entries (the rest give the same signature; leaves at depth 2
cannot take a child in the height-2 universe).  An extension's supporters
are among n's, so only n's support is scanned ("occurrence deliver", as in
Uno, Kiyomi and Arimura, LCM ver. 2), and a supporter s of n, already
pointwise at least n, supports the extension exactly when s[r] > n[r].

Row counts.  The search never computes a candidate's parent; it only
decides whether the emitting node n is that parent.  Let cnt[i] count the
dataset signatures s with s[k] >= n[k] for every k < i and s[i] > n[i],
one pass over the dataset per emitted node.  A
candidate c with support C (the closure of a one-leaf extension of n, so c
is pointwise at least n and differs from it) has parent n exactly when
cnt[i] == |C| at every row i where c[i] > n[i].  Sketch:

- meet(c, s) is tuple-larger than n iff s counts at some row where c
  exceeds n: the meet's first difference from n is such a row, and
  conversely at such a row i the meet exceeds n[i] while every earlier row
  holds at least n's entry;
- every supporter s of c counts at every such row i, as s >= c >= n on
  every row and s[i] >= c[i] > n[i];
- the trees of supp(n) outside C, never none since c != n, give meets that
  dominate n, so the largest candidate meet is never below n.

So the largest meet is n exactly when no tree outside C counts at a row
where c exceeds n, which costs O(d) per candidate instead of one meet with
every tree outside its support.  :func:`parent_of` still computes the
parent itself, since it must name it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import ConstraintError
from .signatures import (
    Signature,
    signature_key,
    signature_leq,
    signature_of,
    signatures_meet,
    tree_from_signature,
)
from .trees import Dataset, SupportSet, Tree


class EmptySupportError(ValueError):
    """Closure is undefined for a pattern no dataset tree contains."""


class RootPatternError(ValueError):
    """The dataset closure (search root) has no parent."""


@dataclass(frozen=True)
class MiningConfig:
    theta: int = 1
    max_solutions: int | None = None


@dataclass(frozen=True)
class SearchNode:
    """A pattern's signature together with its support."""

    sig: Signature
    support: SupportSet

    @property
    def pattern(self) -> Tree:
        return tree_from_signature(self.sig)

    @property
    def canon(self) -> str:
        return signature_key(self.sig)


@dataclass
class MiningSummary:
    count: int = 0
    max_delay_seconds: float = 0.0
    peak_stack_depth: int = 0
    peak_live_candidates: int = 0


@lru_cache(maxsize=8)
def _dataset_signatures(dataset: Dataset) -> tuple[Signature, ...]:
    """Validated signatures of the dataset's trees.

    Memoised per dataset value, which is immutable, so the public wrappers
    can be called per candidate without redoing this.  A failed validation
    is not memoised and raises on every call.
    """
    if dataset.mode != "unordered":
        raise ConstraintError("closed mining requires an unordered dataset")
    sigs = []
    for i, t in enumerate(dataset.trees):
        if t.height > 2:
            raise ConstraintError(f"dataset tree {i} has height {t.height} > 2")
        sigs.append(signature_of(t))
    return tuple(sigs)


def _support(psig: Signature, sigs: tuple[Signature, ...], among: Iterable[int]) -> SupportSet:
    """The indices in ``among`` whose signature dominates ``psig``."""
    return SupportSet.from_indices(i for i in among if signature_leq(psig, sigs[i]))


def _meet(sigs: tuple[Signature, ...], support: SupportSet) -> Signature:
    return signatures_meet([sigs[i] for i in support.indices])


def _locate(pattern: Tree, dataset: Dataset) -> tuple[tuple[Signature, ...], SearchNode]:
    """Validate ``dataset`` and pair the pattern's signature with its support."""
    sigs = _dataset_signatures(dataset)
    psig = signature_of(pattern)
    return sigs, SearchNode(psig, _support(psig, sigs, range(len(sigs))))


def _closed(pattern: Tree, dataset: Dataset) -> tuple[tuple[Signature, ...], SearchNode, Signature]:
    """:func:`_locate` plus the closure signature, the meet of the support."""
    sigs, node = _locate(pattern, dataset)
    if node.support.count == 0:
        raise EmptySupportError("closure undefined: pattern occurs in no dataset tree")
    return sigs, node, _meet(sigs, node.support)


def pattern_support(pattern: Tree, dataset: Dataset) -> SupportSet:
    """Root-aligned support: indices whose signature dominates the pattern's."""
    return _locate(pattern, dataset)[1].support


def closure(pattern: Tree, dataset: Dataset) -> Tree:
    """Meet of the dataset trees containing ``pattern`` (root aligned).

    The result contains ``pattern`` and has exactly the same support.
    """
    return tree_from_signature(_closed(pattern, dataset)[2])


def is_closed(pattern: Tree, dataset: Dataset) -> bool:
    """A pattern is closed when it equals its own closure."""
    _, node, closed = _closed(pattern, dataset)
    return node.sig == closed


def _parent_sig(node: SearchNode, sigs: tuple[Signature, ...]) -> Signature:
    """Parent signature of a closed non-root node (see the module notes)."""
    inside = set(node.support.indices)
    return max(
        signatures_meet([node.sig, s]) for i, s in enumerate(sigs) if i not in inside
    )


def parent_of(pattern: Tree, dataset: Dataset) -> Tree:
    """Reverse-search parent of a closed, non-root pattern.

    Support strictly grows from child to parent, so iterating reaches the
    dataset closure in at most ``len(dataset)`` steps.
    """
    sigs, node, closed = _closed(pattern, dataset)
    if node.support.count == len(sigs):
        raise RootPatternError("the dataset closure has no parent")
    return tree_from_signature(_parent_sig(SearchNode(closed, node.support), sigs))


def _row_counts(sig: Signature, sigs: tuple[Signature, ...]) -> list[int]:
    """``cnt[i]``: dataset signatures at least ``sig`` on every row before
    ``i`` and wider than it in row ``i`` (zero padded; see the module notes)."""
    width = max(map(len, sigs))
    padded = sig + (0,) * (width - len(sig))
    cnt = [0] * width
    for s in sigs:
        for i, x in enumerate(s):
            y = padded[i]
            if x > y:
                cnt[i] += 1
            elif x < y:
                break
    return cnt


def _is_parent(sig: Signature, counts: list[int], child: SearchNode) -> bool:
    """Whether ``sig`` is the parent of ``child``, a closure of one of its
    one-leaf extensions, given ``counts == _row_counts(sig, sigs)``."""
    padded = sig + (0,) * (len(child.sig) - len(sig))
    k = child.support.count
    return all(counts[i] == k for i, (x, y) in enumerate(zip(child.sig, padded)) if x > y)


def _corner_rows(sig: Signature) -> list[int]:
    """Rows that take one more cell and stay a signature: a new root child
    first, then the first row of each run of equal entries."""
    return [len(sig)] + [i for i, x in enumerate(sig) if i == 0 or x != sig[i - 1]]


def _row_support(node: SearchNode, sigs: tuple[Signature, ...], row: int) -> SupportSet:
    """Support of ``node.sig`` plus one cell in ``row``: the supporters of
    ``node`` wider than it in that row (see the module notes)."""
    cells = node.sig[row] if row < len(node.sig) else 0
    return SupportSet.from_indices(
        i for i in node.support.indices if len(sigs[i]) > row and sigs[i][row] > cells
    )


def _neighbor_nodes(
    node: SearchNode, sigs: tuple[Signature, ...], theta: int
) -> list[SearchNode]:
    """Closures of frequent one-leaf extensions, in :func:`_corner_rows`
    order, deduplicated, self excluded."""
    out: list[SearchNode] = []
    seen = {node.sig}
    for row in _corner_rows(node.sig):
        sup = _row_support(node, sigs, row)
        if sup.count < theta:
            continue
        closed = _meet(sigs, sup)
        if closed in seen:
            continue
        seen.add(closed)
        out.append(SearchNode(closed, sup))
    return out


def neighbors(pattern: Tree, dataset: Dataset, theta: int) -> list[Tree]:
    """Neighbor patterns of a closed frequent tree, at most one per vertex."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    sigs, node = _locate(pattern, dataset)
    return [n.pattern for n in _neighbor_nodes(node, sigs, theta)]


def enumerate_closed(
    dataset: Dataset,
    config: MiningConfig = MiningConfig(),
    sink: Callable[[SearchNode], None] | None = None,
) -> MiningSummary:
    """Emit every closed ``theta``-frequent tree exactly once, depth first.

    ``sink`` is called once per solution in a deterministic order, at most
    ``max_solutions`` times when that is set.  The summary reports the
    solution count, the maximum delay between consecutive emissions, and
    peak working-set metrics.
    """
    sigs = _dataset_signatures(dataset)
    if config.theta < 1:
        raise ValueError(f"theta must be >= 1, got {config.theta}")
    if config.max_solutions is not None and config.max_solutions < 0:
        raise ValueError(f"limit must be >= 0, got {config.max_solutions}")
    summary = MiningSummary()
    if config.theta > len(sigs) or config.max_solutions == 0:
        return summary

    root = SearchNode(signatures_meet(sigs), SupportSet.from_indices(range(len(sigs))))

    last_tick = time.perf_counter()

    def emit(node: SearchNode) -> bool:
        nonlocal last_tick
        now = time.perf_counter()
        summary.max_delay_seconds = max(summary.max_delay_seconds, now - last_tick)
        last_tick = now
        if sink is not None:
            sink(node)
        summary.count += 1
        return config.max_solutions is None or summary.count < config.max_solutions

    if not emit(root):
        return summary

    def frame(node: SearchNode) -> tuple[SearchNode, list[int], list[SearchNode]]:
        # reversed so that pop() walks neighbors in their generation order
        pending = list(reversed(_neighbor_nodes(node, sigs, config.theta)))
        return node, _row_counts(node.sig, sigs), pending

    # Each frame is (node, its row counts, pending neighbor nodes); a child
    # is expanded only when the frame's node is its parent, decided from the
    # row counts, which visits every solution exactly once without
    # remembering emitted keys.
    stack = [frame(root)]
    live = len(stack[0][2])
    summary.peak_stack_depth = 1
    summary.peak_live_candidates = live
    while stack:
        node, counts, pending = stack[-1]
        if not pending:
            stack.pop()
            continue
        child = pending.pop()
        live -= 1
        if not _is_parent(node.sig, counts, child):
            continue
        if not emit(child):
            return summary
        stack.append(frame(child))
        live += len(stack[-1][2])
        summary.peak_stack_depth = max(summary.peak_stack_depth, len(stack))
        summary.peak_live_candidates = max(summary.peak_live_candidates, live)
    return summary
