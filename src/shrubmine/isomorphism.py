"""Exact subtree isomorphism for rooted trees, ordered and unordered.

A pattern is contained in a target when some target vertex, together with
a parent-closed set of its descendants, is isomorphic (unordered) or
equivalent (ordered) to the pattern.

The engine works on shape ids, not on nodes or strings.  Every subtree
has an id in the process-wide :data:`~shrubmine.trees.SHAPES` table,
interned bottom-up as in the tree isomorphism algorithm of Aho, Hopcroft
and Ullman (1974), and whether pattern node ``p`` embeds with ``p`` mapped
onto target node ``t`` depends only on their two ids and the mode.  The
engine therefore memoizes decisions on ``(pattern id, target id)`` pairs,
one memo per mode, and prunes a pair by the size, height and child count
the table records for each id.  The children of a pair are matched

- in ordered mode, by greedy order-preserving subsequence matching of
  the two child id sequences;
- in unordered mode, as a capacitated b-matching between child classes
  (distinct child id -> number of children with it): a max flow that
  augments along class-level alternating paths by the bottleneck amount,
  so repeated sibling shapes cost one path, not one per sibling.

Nothing recurses.  A pair is decided from an explicit stack: it pushes its
undecided child-class pairs and is decided once they are all memoized,
which terminates because a child's id is always smaller than its
parent's.  Witnesses are read back top-down from the same memo, with
each class flow split into concrete child pairs.  The memos live for the
process next to the shape table and, like it, are never pruned: they
grow with the decided pairs, at most the distinct pattern shapes times
the distinct target shapes queried, so a later query never decides a
pair again.  ``ShapeTable`` interns under a lock; the memos need none,
since an entry is a pure value and a lost race between threads only
decides a pair twice.  Canonical strings are for output and the oracles
only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import SHAPES, Dataset, Mode, SupportSet, Tree


@dataclass(frozen=True, eq=False)
class EmbeddingWitness:
    """A concrete subtree isomorphism mapping, pattern node -> target node."""

    mapping: dict[int, int]

    def is_valid_for(self, pattern: Tree, target: Tree, mode: Mode) -> bool:
        """Check the witness invariants directly against both trees.

        The mapping must be injective on the pattern's nodes, send every
        pattern edge onto a target edge, and add no target edge into the
        image of the root; in ordered mode it must also keep sibling order.
        Costs O(|pattern| + the target degrees of the image).
        """
        m = self.mapping
        if set(m) != set(pattern.nodes()):
            return False
        image = set(m.values())
        if len(image) != len(m):
            return False
        for u in pattern.nodes():
            if u != pattern.root and target.parents[m[u]] != m[pattern.parents[u]]:
                return False
        if target.parents[m[pattern.root]] in image:
            return False
        if mode == "ordered":
            for v in pattern.nodes():
                kids = pattern.children[v]
                if len(kids) < 2:
                    continue
                position = {c: i for i, c in enumerate(target.children[m[v]])}
                positions = [position[m[c]] for c in kids]
                if any(a > b for a, b in zip(positions, positions[1:])):
                    return False
        return True


#: Decided ``(pattern id, target id)`` pairs for the process, one memo per
#: mode.  They must stay apart: an unordered id is the ordered id of a
#: canonical representative, so both modes look up the same pairs but
#: decide different questions.
_MEMOS: dict[Mode, dict[tuple[int, int], bool]] = {"ordered": {}, "unordered": {}}


def _embeds(a: int, b: int, mode: Mode) -> bool:
    """Does shape ``a`` embed with its root mapped onto the root of shape ``b``?

    A pair is decided outright when the shapes are equal, when ``a`` is
    larger, taller or wider than ``b``, or when ``a`` is a single vertex;
    otherwise from its child pairs, pushed first if any is undecided.
    """
    memo = _MEMOS[mode]
    size, height, kids, classes = SHAPES.size, SHAPES.height, SHAPES.children, SHAPES.classes
    stack = [(a, b)]
    while stack:
        pair = stack[-1]
        if pair not in memo:
            x, y = pair
            if x == y:
                decided = True
            elif size[x] > size[y] or height[x] > height[y] or len(kids[x]) > len(kids[y]):
                decided = False
            elif not kids[x]:
                decided = True
            else:
                pending = [(c, d) for c, _ in classes[x] for d, _ in classes[y] if (c, d) not in memo]
                if pending:
                    stack.extend(pending)
                    continue
                decided = _match(x, y, mode) is not None
            memo[pair] = decided
        stack.pop()
    return memo[a, b]


def _match(x: int, y: int, mode: Mode):
    """How the children of shape ``x`` embed into those of shape ``y``.

    Ordered mode gives one target child position per pattern child,
    unordered mode a flow ``{(pattern child id, target child id):
    count}``; None when the children do not fit.  Every child pair must
    already be memoized, unless ``x == y``.
    """
    if mode == "ordered":
        return _greedy(SHAPES.children[x], SHAPES.children[y], _MEMOS[mode])
    if x == y:
        return {(c, c): n for c, n in SHAPES.classes[x]}
    return _flow(SHAPES.classes[x], SHAPES.classes[y], _MEMOS[mode])


def _greedy(pk: tuple[int, ...], tk: tuple[int, ...], memo) -> list[int] | None:
    """Greedy order-preserving injection of the ids ``pk`` into ``tk``."""
    positions = []
    j = 0
    for c in pk:
        while j < len(tk) and not (c == tk[j] or memo[c, tk[j]]):
            j += 1
        if j == len(tk):
            return None
        positions.append(j)
        j += 1
    return positions


def _flow(pa, tb, memo) -> dict[tuple[int, int], int] | None:
    """Max flow from pattern child classes ``pa`` into target classes ``tb``.

    Class ``i`` of ``pa`` must send all its count; class ``j`` of ``tb``
    takes at most its count, and only from classes that embed into it.
    Each augmenting path is found breadth first over alternating
    forward (embeds) and backward (current flow) edges.  Once a class
    finds no path, no later flow can place it (Hall's condition
    fails), so the match is refused.
    """
    room = [n for _, n in tb]
    fits = [[j for j, (d, _) in enumerate(tb) if memo[c, d]] for c, _ in pa]
    users: list[dict[int, int]] = [{} for _ in tb]  # users[j][i] = flow i -> j
    for i, (_, need) in enumerate(pa):
        while need:
            via: dict[int, int] = {}  # target class -> pattern class it was reached from
            back = {i: -1}  # pattern class -> target class whose flow reached it
            queue = [i]
            end = -1
            for x in queue:
                for j in fits[x]:
                    if j in via:
                        continue
                    via[j] = x
                    if room[j]:
                        end = j
                        break
                    for z in users[j]:
                        if z not in back:
                            back[z] = j
                            queue.append(z)
                if end >= 0:
                    break
            if end < 0:
                return None
            amount = min(need, room[end])
            x = via[end]
            while x != i:
                amount = min(amount, users[back[x]][x])
                x = via[back[x]]
            room[end] -= amount
            need -= amount
            j = end
            while True:
                x = via[j]
                users[j][x] = users[j].get(x, 0) + amount
                if x == i:
                    break
                j = back[x]
                users[j][x] -= amount
                if not users[j][x]:
                    del users[j][x]
    return {(pa[i][0], tb[j][0]): n for j, flows in enumerate(users) for i, n in flows.items()}


def _anchor(pattern: Tree, target: Tree, mode: Mode) -> int | None:
    """First target vertex the whole pattern embeds at, if any."""
    root, tids = pattern.shape_ids(mode)[pattern.root], target.shape_ids(mode)
    # distinct target ids in order of first occurrence: the first id that
    # admits the pattern is the id of the first vertex that does
    for b in dict.fromkeys(tids):
        if _embeds(root, b, mode):
            return tids.index(b)
    return None


def _extract(pattern: Tree, target: Tree, t: int, mode: Mode) -> dict[int, int]:
    """One concrete embedding of ``pattern`` with its root at target vertex ``t``."""
    pids, tids = pattern.shape_ids(mode), target.shape_ids(mode)
    out: dict[int, int] = {}
    stack = [(pattern.root, t)]
    while stack:
        p, t = stack.pop()
        out[p] = t
        pc = pattern.children[p]
        if not pc:
            continue
        tc = target.children[t]
        match = _match(pids[p], tids[t], mode)
        assert match is not None, "extract reached a pair that does not embed"
        if mode == "ordered":
            stack.extend((u, tc[j]) for u, j in zip(pc, match))
            continue
        free: dict[int, list[int]] = {}
        for v in tc:
            free.setdefault(tids[v], []).append(v)
        into: dict[int, list[int]] = {}
        for (c, d), n in match.items():
            into.setdefault(c, []).extend([d] * n)
        stack.extend((u, free[into[pids[u]].pop()].pop()) for u in pc)
    return out


def subtree_iso(pattern: Tree, target: Tree, mode: Mode) -> bool:
    """True when ``pattern`` is contained in ``target`` under ``mode``."""
    return _anchor(pattern, target, mode) is not None


def find_embedding(pattern: Tree, target: Tree, mode: Mode) -> EmbeddingWitness | None:
    """Like :func:`subtree_iso` but returns one witness mapping when found."""
    t = _anchor(pattern, target, mode)
    if t is None:
        return None
    return EmbeddingWitness(_extract(pattern, target, t, mode))


def tree_equal(t1: Tree, t2: Tree, mode: Mode) -> bool:
    """Isomorphism (unordered) or equivalence (ordered) as whole trees."""
    return t1.shape_ids(mode)[t1.root] == t2.shape_ids(mode)[t2.root]


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
