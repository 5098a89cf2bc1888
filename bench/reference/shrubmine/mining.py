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
resulting tree is maximal under dominance among all such candidates (ties:
smallest canonical key, then smallest added dataset index).  A maximal
candidate is what guarantees every closed pattern is reachable from its
parent through a one-leaf extension; picking a minimal candidate instead
can strand solutions (in {(2,2), (3,1), (1,1)} the pattern (2,2) would
become unreachable).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConstraintError
from .isomorphism import SupportSet
from .signatures import (
    Signature,
    signature_leq,
    signature_of,
    signatures_meet,
    tree_from_signature,
)
from .trees import Dataset, Tree, add_leaf, canonical_form


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
    """A closed pattern together with its support and canonical key."""

    pattern: Tree
    support: SupportSet
    canon: str


@dataclass
class MiningSummary:
    count: int = 0
    max_delay_seconds: float = 0.0
    peak_stack_depth: int = 0
    peak_live_candidates: int = 0


def _dataset_signatures(dataset: Dataset) -> list[Signature]:
    if dataset.mode != "unordered":
        raise ConstraintError("closed mining requires an unordered dataset")
    sigs = []
    for i, t in enumerate(dataset.trees):
        if t.height > 2:
            raise ConstraintError(f"dataset tree {i} has height {t.height} > 2")
        sigs.append(signature_of(t))
    return sigs


def pattern_support(pattern: Tree, dataset: Dataset) -> SupportSet:
    """Root-aligned support: indices whose signature dominates the pattern's."""
    sigs = _dataset_signatures(dataset)
    psig = signature_of(pattern)
    return SupportSet.from_indices(
        i for i, s in enumerate(sigs) if signature_leq(psig, s)
    )


def _support_of_sig(psig: Signature, sigs: list[Signature]) -> SupportSet:
    return SupportSet.from_indices(
        i for i, s in enumerate(sigs) if signature_leq(psig, s)
    )


def closure(pattern: Tree, dataset: Dataset) -> Tree:
    """Meet of the dataset trees containing ``pattern`` (root aligned).

    The result contains ``pattern`` and has exactly the same support.
    """
    sigs = _dataset_signatures(dataset)
    sup = _support_of_sig(signature_of(pattern), sigs)
    if sup.count == 0:
        raise EmptySupportError("closure undefined: pattern occurs in no dataset tree")
    return tree_from_signature(signatures_meet([sigs[i] for i in sup.indices]))


def is_closed(pattern: Tree, dataset: Dataset) -> bool:
    """A pattern is closed when it equals its own closure."""
    return canonical_form(pattern, "unordered") == canonical_form(
        closure(pattern, dataset), "unordered"
    )


def _parent_sig(support: SupportSet, sigs: list[Signature]) -> tuple[Signature, str]:
    """Parent signature and canonical key for a closed non-root pattern."""
    in_support = set(support.indices)
    base_meet = signatures_meet([sigs[i] for i in support.indices])
    candidates: list[tuple[str, int, Signature]] = []
    for idx, sig in enumerate(sigs):
        if idx in in_support:
            continue
        merged = signatures_meet([base_meet, sig])
        key = canonical_form(tree_from_signature(merged), "unordered")
        candidates.append((key, idx, merged))
    best: tuple[str, int, Signature] | None = None
    for key, idx, merged in candidates:
        dominated = any(
            other_key != key and signature_leq(merged, other)
            for other_key, _, other in candidates
        )
        if dominated:
            continue
        if best is None or (key, idx) < (best[0], best[1]):
            best = (key, idx, merged)
    assert best is not None, "candidate set cannot be empty for a non-root pattern"
    return best[2], best[0]


def parent_of(pattern: Tree, dataset: Dataset) -> Tree:
    """Reverse-search parent of a closed, non-root pattern.

    Support strictly grows from child to parent, so iterating reaches the
    dataset closure in at most ``len(dataset)`` steps.
    """
    sigs = _dataset_signatures(dataset)
    sup = _support_of_sig(signature_of(pattern), sigs)
    if sup.count == 0:
        raise EmptySupportError("pattern occurs in no dataset tree")
    if sup.count == len(dataset.trees):
        raise RootPatternError("the dataset closure has no parent")
    return tree_from_signature(_parent_sig(sup, sigs)[0])


def _neighbor_nodes(
    node: SearchNode, sigs: list[Signature], theta: int
) -> list[SearchNode]:
    """Closures of frequent one-leaf extensions, deduplicated, self excluded.

    Extensions at depth-2 vertices would leave the height-2 universe and
    can never be frequent here, so those vertices are skipped.
    """
    out: list[SearchNode] = []
    seen: set[str] = set()
    pattern = node.pattern
    for v in pattern.nodes():
        if pattern.depths[v] > 1:
            continue
        extended = add_leaf(pattern, v)
        sup = _support_of_sig(signature_of(extended), sigs)
        if sup.count < theta:
            continue
        closed = tree_from_signature(signatures_meet([sigs[i] for i in sup.indices]))
        key = canonical_form(closed, "unordered")
        if key == node.canon or key in seen:
            continue
        seen.add(key)
        out.append(SearchNode(closed, sup, key))
    return out


def neighbors(pattern: Tree, dataset: Dataset, theta: int) -> list[Tree]:
    """Neighbor patterns of a closed frequent tree, at most one per vertex."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    sigs = _dataset_signatures(dataset)
    sup = _support_of_sig(signature_of(pattern), sigs)
    node = SearchNode(pattern, sup, canonical_form(pattern, "unordered"))
    return [n.pattern for n in _neighbor_nodes(node, sigs, theta)]


def enumerate_closed(
    dataset: Dataset,
    config: MiningConfig = MiningConfig(),
    sink: Callable[[SearchNode], None] | None = None,
) -> MiningSummary:
    """Emit every closed ``theta``-frequent tree exactly once, depth first.

    ``sink`` is called once per solution in a deterministic order.  The
    summary reports the solution count, the maximum delay between
    consecutive emissions, and peak working-set metrics.
    """
    if config.theta < 1:
        raise ValueError(f"theta must be >= 1, got {config.theta}")
    sigs = _dataset_signatures(dataset)
    summary = MiningSummary()
    if config.theta > len(sigs):
        return summary

    root_pattern = tree_from_signature(signatures_meet(sigs))
    root = SearchNode(
        root_pattern,
        SupportSet.from_indices(range(len(sigs))),
        canonical_form(root_pattern, "unordered"),
    )

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
        _, parent_key = _parent_sig(child.support, sigs)
        if parent_key != node.canon:
            continue
        if not emit(child):
            return summary
        grandchildren = pending_for(child)
        stack.append((child, grandchildren))
        live += len(grandchildren)
        summary.peak_stack_depth = max(summary.peak_stack_depth, len(stack))
        summary.peak_live_candidates = max(summary.peak_live_candidates, live)
    return summary
