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
depth times the pattern size (never by the number of solutions), so no
visited set is kept.

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
the dataset on input and for the patterns handed back to callers.  An
extension's supporters are among its parent's, so only the parent's support
is scanned ("occurrence deliver", as in Uno, Kiyomi and Arimura, LCM ver. 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import ConstraintError
from .isomorphism import SupportSet
from .signatures import (
    Signature,
    signature_key,
    signature_leq,
    signature_of,
    signatures_meet,
    tree_from_signature,
)
from .trees import Dataset, Tree


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


def _extensions(sig: Signature) -> list[Signature]:
    """One-leaf extensions: a new root child first, then one more leaf under
    the first child of each run of equal entries (the rest give the same
    signature).  Leaves at depth 2 cannot take a child in the height-2
    universe."""
    out = [sig + (1,)]
    for i, x in enumerate(sig):
        if i == 0 or x != sig[i - 1]:
            out.append(sig[:i] + (x + 1,) + sig[i + 1 :])
    return out


def _neighbor_nodes(
    node: SearchNode, sigs: tuple[Signature, ...], theta: int
) -> list[SearchNode]:
    """Closures of frequent one-leaf extensions, deduplicated, self excluded."""
    out: list[SearchNode] = []
    seen = {node.sig}
    for ext in _extensions(node.sig):
        sup = _support(ext, sigs, node.support.indices)
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

    def pending_for(node: SearchNode) -> list[SearchNode]:
        # reversed so that pop() walks neighbors in their generation order
        return list(reversed(_neighbor_nodes(node, sigs, config.theta)))

    # Each frame is (node, pending neighbor nodes); a child is expanded only
    # when its parent rule points back at the emitting node, which visits
    # every solution exactly once without remembering emitted keys.
    stack: list[tuple[SearchNode, list[SearchNode]]] = [(root, pending_for(root))]
    live = len(stack[0][1])
    summary.peak_stack_depth = 1
    summary.peak_live_candidates = live
    while stack:
        node, pending = stack[-1]
        if not pending:
            stack.pop()
            continue
        child = pending.pop()
        live -= 1
        if _parent_sig(child, sigs) != node.sig:
            continue
        if not emit(child):
            return summary
        grandchildren = pending_for(child)
        stack.append((child, grandchildren))
        live += len(grandchildren)
        summary.peak_stack_depth = max(summary.peak_stack_depth, len(stack))
        summary.peak_live_candidates = max(summary.peak_live_candidates, live)
    return summary
