"""Exact subtree isomorphism for rooted trees, ordered and unordered.

A pattern is contained in a target when some target vertex, together with
a parent-closed set of its descendants, is isomorphic (unordered) or
equivalent (ordered) to the pattern.

The engine works on shape ids, not on nodes or strings.  Every subtree
has an id in the process-wide :data:`~shrubmine.trees.SHAPES` table,
interned bottom-up as in the tree isomorphism algorithm of Aho, Hopcroft
and Ullman (1974), and whether pattern node ``p`` embeds with ``p`` mapped
onto target node ``t`` depends only on their two ids.  A query therefore
memoizes decisions on ``(pattern id, target id)`` pairs and prunes a pair
by the size, height and child count the table records for each id.  The
children of a pair are matched

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
each class flow split into concrete child pairs.  The memo lives for one
query; only the shape table outlives it, and it grows with the number of
distinct shapes the process has seen, like ``sys.intern``.  Canonical
strings are for output and the oracles only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trees import SHAPES, Dataset, Mode, Tree


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


class _Embedder:
    """One containment query; holds the memo of decided shape-id pairs."""

    def __init__(self, pattern: Tree, target: Tree, mode: Mode):
        self.pattern = pattern
        self.target = target
        self.ordered = mode == "ordered"
        self.pids = pattern.shape_ids(mode)
        self.tids = target.shape_ids(mode)
        self.memo: dict[tuple[int, int], bool] = {}

    def embeds(self, a: int, b: int) -> bool:
        """Does shape ``a`` embed with its root mapped onto the root of shape ``b``?

        A pair is decided outright when the shapes are equal, when ``a`` is
        larger, taller or wider than ``b``, or when ``a`` is a single vertex;
        otherwise from its child pairs, pushed first if any is undecided.
        """
        memo = self.memo
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
                    decided = self._match(x, y) is not None
                memo[pair] = decided
            stack.pop()
        return memo[a, b]

    def _match(self, x: int, y: int):
        """How the children of shape ``x`` embed into those of shape ``y``.

        Ordered mode gives one target child position per pattern child,
        unordered mode a flow ``{(pattern child id, target child id):
        count}``; None when the children do not fit.  Every child pair must
        already be memoized, unless ``x == y``.
        """
        if self.ordered:
            return self._greedy(SHAPES.children[x], SHAPES.children[y])
        if x == y:
            return {(c, c): n for c, n in SHAPES.classes[x]}
        return self._flow(SHAPES.classes[x], SHAPES.classes[y])

    def _greedy(self, pk: tuple[int, ...], tk: tuple[int, ...]) -> list[int] | None:
        """Greedy order-preserving injection of the ids ``pk`` into ``tk``."""
        memo = self.memo
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

    def _flow(self, pa, tb) -> dict[tuple[int, int], int] | None:
        """Max flow from pattern child classes ``pa`` into target classes ``tb``.

        Class ``i`` of ``pa`` must send all its count; class ``j`` of ``tb``
        takes at most its count, and only from classes that embed into it.
        Each augmenting path is found breadth first over alternating
        forward (embeds) and backward (current flow) edges.  Once a class
        finds no path, no later flow can place it (Hall's condition
        fails), so the match is refused.
        """
        memo = self.memo
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

    def anchor(self) -> int | None:
        """First target vertex the whole pattern embeds at, if any."""
        root = self.pids[self.pattern.root]
        # distinct target ids in order of first occurrence: the first id that
        # admits the pattern is the id of the first vertex that does
        for b in dict.fromkeys(self.tids):
            if self.embeds(root, b):
                return self.tids.index(b)
        return None

    def extract(self, t: int) -> dict[int, int]:
        """One concrete embedding of the pattern with its root at ``t``."""
        pat, tgt, pids, tids = self.pattern, self.target, self.pids, self.tids
        out: dict[int, int] = {}
        stack = [(pat.root, t)]
        while stack:
            p, t = stack.pop()
            out[p] = t
            pc = pat.children[p]
            if not pc:
                continue
            tc = tgt.children[t]
            match = self._match(pids[p], tids[t])
            assert match is not None, "extract reached a pair that does not embed"
            if self.ordered:
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
    return _Embedder(pattern, target, mode).anchor() is not None


def find_embedding(pattern: Tree, target: Tree, mode: Mode) -> EmbeddingWitness | None:
    """Like :func:`subtree_iso` but returns one witness mapping when found."""
    query = _Embedder(pattern, target, mode)
    t = query.anchor()
    if t is None:
        return None
    return EmbeddingWitness(query.extract(t))


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
