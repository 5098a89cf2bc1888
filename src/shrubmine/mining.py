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
depth times one frame (a node and its pending candidates), never by the
number of solutions, so no visited set is kept.

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

Support masks.  A support is an ``int`` bitmask over dataset indices (bit i
is tree i), as in vertical-bitmap itemset miners (Burdick, Calimlim and
Gehrke, MAFIA, ICDE 2001); it becomes a :class:`SupportSet` only where a
search node or a public function hands it out.  The index holds for each
row r the ascending distinct entries of the dataset in that row and, for
each such width w, the mask ``at_least(r, w)`` of the trees whose entry is
at least w.  Adjacent rows share one entry unless some tree's entry drops
between them, so the index has one entry per run of equal rows, each
holding one mask per distinct width: a 200000-leaf star adds two entries,
not 200000.  It is built once per dataset, and building it is the one
place the dataset is validated (unordered, every tree of height at most
2).  The miner's root, the closure of the full mask, is built through it
like every other node.

One-row supports.  A one-leaf extension of n adds one cell in a single row
r: a new root child (r = len(n)) or one more leaf under the first child of
a run of equal entries (the rest give the same signature; leaves at depth 2
cannot take a child in the height-2 universe).  An extension's supporters
are among n's, so only n's support is filtered ("occurrence deliver", as in
Uno, Kiyomi and Arimura, LCM ver. 2), and a supporter s of n, already
pointwise at least n, supports the extension exactly when s[r] > n[r]: its
support is ``mask(n) & at_least(r, n[r] + 1)``, its size
``int.bit_count()``.  The closure of a support S reads no signature: in
each row it is the widest width whose mask contains S, and it ends at the
first row where that width is 0.  A run of equal rows gives the same width
all along, so a closure costs one scan per index entry.  So does the
support of a pattern p, the AND over the entries of ``at_least(r, p[r])``
at each entry's first row r, since p is non-increasing.

Parent check.  The search never computes a candidate's parent; it only
decides whether the emitting node n is that parent, by evaluating the
parent rule on the index.  For a candidate c with support C, the
tuple-largest meet with a tree outside C is built greedily row by row:
the rest starts as the trees outside C, each row takes the smaller of
c's entry and the widest width a tree of the rest reaches there, and the
rest keeps the trees at least that wide.  The walk stops at the first
row where that width differs from n's, n padded with zeros (n is not the
parent), or is 0 (it is).  As closures, c and n are constant over the rows
of each index entry and end at an entry's first row, and then so are the
width and the rest, so the walk reads one row per entry.
:func:`parent_of` still computes the parent itself, since it must name
it: the largest meet with a distinct signature outside the support.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import neg
from typing import Callable

from .errors import ConstraintError
from .signatures import (
    Signature,
    signature_key,
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


class _SupportIndex:
    """Per-row support masks of a dataset's signatures (see the module notes).

    ``spans`` holds ``(start, end, entry)``: the entry serves rows ``start``
    up to ``end`` (exclusive), where ``start`` runs over ``starts``; the last
    one, where every tree has ended, serves every row from there on.  An
    entry is ``(widths, masks)``: the ascending distinct widths of its
    rows and, for each, the mask of the trees at least that wide, followed
    by a 0 for any larger width, so ``masks[bisect_left(widths, w)]`` is the
    mask of the trees at least ``w`` wide.

    Building it validates the dataset; ``sigs`` holds the signatures of its
    trees.  A failed validation raises, so :func:`_support_index` does not
    memoise it.
    """

    def __init__(self, dataset: Dataset) -> None:
        if dataset.mode != "unordered":
            raise ConstraintError("closed mining requires an unordered dataset")
        sigs = []
        for i, t in enumerate(dataset.trees):
            if t.height > 2:
                raise ConstraintError(f"dataset tree {i} has height {t.height} > 2")
            sigs.append(signature_of(t))
        self.sigs = sigs = tuple(sigs)
        self.full = (1 << len(sigs)) - 1
        cuts = {0}
        for s in sigs:
            i = 0
            while i < len(s):  # the rows where s drops: ends of its runs
                i = bisect_right(s, -s[i], i, key=neg)
                cuts.add(i)
        self.starts = sorted(cuts)
        ends = self.starts[1:] + [sys.maxsize]
        self.spans = [(a, b, self._entry(sigs, a)) for a, b in zip(self.starts, ends)]

    @staticmethod
    def _entry(sigs: tuple[Signature, ...], row: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        exact: dict[int, int] = {}
        for i, s in enumerate(sigs):
            x = s[row] if row < len(s) else 0
            exact[x] = exact.get(x, 0) | 1 << i
        widths = sorted(exact)
        masks, acc = [0], 0
        for w in reversed(widths):
            acc |= exact[w]
            masks.append(acc)
        return tuple(widths), tuple(reversed(masks))

    def at_least(self, row: int, width: int) -> int:
        """Mask of the trees whose entry in ``row`` is at least ``width``."""
        widths, masks = self.spans[bisect_right(self.starts, row) - 1][2]
        return masks[bisect_left(widths, width)]

    def support(self, sig: Signature) -> int:
        """Mask of the trees whose signature dominates ``sig``: one test per
        entry, at its first row, where the non-increasing ``sig`` asks most."""
        mask = self.full
        for start, _, (widths, masks) in self.spans:
            if start >= len(sig):
                break
            mask &= masks[bisect_left(widths, sig[start])]
        return mask

    def closure(self, mask: int) -> Signature:
        """Meet of the signatures of the non-empty support ``mask``: per
        entry, the widest width whose mask contains ``mask``."""
        out: list[int] = []
        for start, end, (widths, masks) in self.spans:
            j = len(widths) - 1
            while masks[j] & mask != mask:
                j -= 1
            if widths[j] == 0:
                break
            out += repeat(widths[j], end - start)
        return tuple(out)

    def is_parent(self, node: Signature, sig: Signature, mask: int) -> bool:
        """Whether the closed ``node`` is the parent of the closed non-root
        ``sig`` with support ``mask``: the parent rule walked one index
        entry at a time up to its first difference from ``node`` (see the
        module notes)."""
        rest = self.full & ~mask
        for start, _, (widths, masks) in self.spans:
            x = sig[start] if start < len(sig) else 0
            # the widest width up to x that some tree of the rest reaches
            j = bisect_left(widths, x)
            while not masks[j] & rest:
                j -= 1
            w = widths[j] if widths[j] < x else x
            if w != (node[start] if start < len(node) else 0):
                return False
            if not w:
                return True
            rest &= masks[j]
        raise AssertionError("unreachable: the last entry has width 0 for every tree")


@lru_cache(maxsize=8)
def _support_index(dataset: Dataset) -> _SupportIndex:
    """The validated index of ``dataset``, memoised per dataset value, which
    is immutable, so the public wrappers can be called per candidate."""
    return _SupportIndex(dataset)


def _support_set(mask: int) -> SupportSet:
    """The indices of the set bits of ``mask``, ascending."""
    idx = [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    return SupportSet(tuple(idx), len(idx))


def _locate(pattern: Tree, dataset: Dataset) -> tuple[_SupportIndex, Signature, int]:
    """Validate and index ``dataset``; pair the pattern's signature with its
    support mask."""
    index = _support_index(dataset)
    psig = signature_of(pattern)
    return index, psig, index.support(psig)


def _closed(pattern: Tree, dataset: Dataset) -> tuple[_SupportIndex, Signature, int, Signature]:
    """:func:`_locate` plus the closure signature, the meet of the support."""
    index, psig, mask = _locate(pattern, dataset)
    if not mask:
        raise EmptySupportError("closure undefined: pattern occurs in no dataset tree")
    return index, psig, mask, index.closure(mask)


def pattern_support(pattern: Tree, dataset: Dataset) -> SupportSet:
    """Root-aligned support: indices whose signature dominates the pattern's."""
    return _support_set(_locate(pattern, dataset)[2])


def closure(pattern: Tree, dataset: Dataset) -> Tree:
    """Meet of the dataset trees containing ``pattern`` (root aligned).

    The result contains ``pattern`` and has exactly the same support.
    """
    return tree_from_signature(_closed(pattern, dataset)[3])


def is_closed(pattern: Tree, dataset: Dataset) -> bool:
    """A pattern is closed when it equals its own closure."""
    _, psig, _, closed = _closed(pattern, dataset)
    return psig == closed


def _parent_sig(sig: Signature, mask: int, sigs: tuple[Signature, ...]) -> Signature:
    """Parent signature of a closed non-root node with support ``mask``
    (see the module notes)."""
    rest = {s for i, s in enumerate(sigs) if not mask >> i & 1}
    return max(signatures_meet([sig, s]) for s in rest)


def parent_of(pattern: Tree, dataset: Dataset) -> Tree:
    """Reverse-search parent of a closed, non-root pattern.

    Support strictly grows from child to parent, so iterating reaches the
    dataset closure in at most ``len(dataset)`` steps.
    """
    index, _, mask, closed = _closed(pattern, dataset)
    if mask == index.full:
        raise RootPatternError("the dataset closure has no parent")
    return tree_from_signature(_parent_sig(closed, mask, index.sigs))


def _corner_rows(sig: Signature) -> list[int]:
    """Rows that take one more cell and stay a signature: a new root child
    first, then the first row of each run of equal entries."""
    return [len(sig)] + [i for i, x in enumerate(sig) if i == 0 or x != sig[i - 1]]


def _extensions(
    index: _SupportIndex, sig: Signature, mask: int, theta: int
) -> list[tuple[Signature, int]]:
    """Closures of frequent one-leaf extensions of ``sig`` with support
    ``mask``, paired with their support masks, in :func:`_corner_rows`
    order, deduplicated, ``sig`` itself excluded."""
    out = []
    seen = {sig}
    padded = sig + (0,)
    for row in _corner_rows(sig):
        sup = mask & index.at_least(row, padded[row] + 1)
        if sup.bit_count() < theta:
            continue
        closed = index.closure(sup)
        if closed in seen:
            continue
        seen.add(closed)
        out.append((closed, sup))
    return out


def neighbors(pattern: Tree, dataset: Dataset, theta: int) -> list[Tree]:
    """Neighbor patterns of a closed frequent tree, at most one per vertex."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    index, psig, mask = _locate(pattern, dataset)
    return [tree_from_signature(c) for c, _ in _extensions(index, psig, mask, theta)]


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
    index = _support_index(dataset)
    if config.theta < 1:
        raise ValueError(f"theta must be >= 1, got {config.theta}")
    if config.max_solutions is not None and config.max_solutions < 0:
        raise ValueError(f"limit must be >= 0, got {config.max_solutions}")
    summary = MiningSummary()
    if config.theta > len(index.sigs) or config.max_solutions == 0:
        return summary

    root = SearchNode(index.closure(index.full), _support_set(index.full))

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

    def frame(sig: Signature, mask: int) -> tuple[Signature, list]:
        # reversed so that pop() walks the candidates in their generation order
        return sig, _extensions(index, sig, mask, config.theta)[::-1]

    # Each frame is (signature, pending (closure, support mask) candidates);
    # a child is expanded only when the frame's node is its parent, which
    # visits every solution exactly once without remembering emitted keys.
    stack = [frame(root.sig, index.full)]
    live = len(stack[0][1])
    summary.peak_stack_depth = 1
    summary.peak_live_candidates = live
    while stack:
        sig, pending = stack[-1]
        if not pending:
            stack.pop()
            continue
        child, mask = pending.pop()
        live -= 1
        if not index.is_parent(sig, child, mask):
            continue
        if not emit(SearchNode(child, _support_set(mask))):
            return summary
        stack.append(frame(child, mask))
        live += len(stack[-1][1])
        summary.peak_stack_depth = max(summary.peak_stack_depth, len(stack))
        summary.peak_live_candidates = max(summary.peak_live_candidates, live)
    return summary
