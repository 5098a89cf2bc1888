"""Rooted trees, balanced-parentheses encodings, and tree datasets.

A tree is stored as an immutable arena of dense node ids ``0..n-1`` with
mutually consistent parent and child records.  All edits (``add_leaf``,
grafting through :class:`TreeBuilder`) produce new trees, so values can be
shared freely between enumeration states.

``Tree.from_children`` is the one validator, for arenas a caller supplies.
``parse_tree`` and ``TreeBuilder`` record parents and children together as
they go, so their arenas are consistent by construction and they make the
``Tree`` directly: validating again would walk every node twice more.

Text format: ``tree := "(" tree* ")"``.  The outermost pair is the root and
children read left to right; whitespace between tokens is ignored.  A
dataset file holds one tree per line, with blank lines and lines starting
with ``#`` skipped.

Every subtree also has an integer shape id per mode (``Tree.shape_ids``),
interned in the process-wide :data:`SHAPES` table; the isomorphism engine
works on those ids, while encodings serve output and the oracles.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Literal, Sequence

from .errors import TreeParseError

Mode = Literal["ordered", "unordered"]

#: Canonical child order ranks '(' above ')', so encodings of deeper/larger
#: subtrees sort first.  This keeps canonical strings aligned with the
#: non-increasing signature convention used by the height-2 algebra.
_CANON_RANK = str.maketrans("()", "10")


def check_mode(mode: str) -> Mode:
    if mode not in ("ordered", "unordered"):
        raise ValueError(f"mode must be 'ordered' or 'unordered', got {mode!r}")
    return mode  # type: ignore[return-value]


def _child_order_key(encoding: str) -> str:
    """Sort key under which child encodings are ordered (descending)."""
    return encoding.translate(_CANON_RANK)


def join_encodings(parts: Iterable[str], mode: Mode) -> str:
    """Encoding of a node whose children encode as ``parts``, in order.

    Unordered mode first sorts the parts into canonical child order, so
    isomorphic subtrees always spell the same.
    """
    if mode == "unordered":
        parts = sorted(parts, key=_child_order_key, reverse=True)
    return "(" + "".join(parts) + ")"


class ShapeTable:
    """Intern table of subtree shapes: a tuple of child ids maps to a small id.

    Interning works bottom-up, as in the tree isomorphism algorithm of Aho,
    Hopcroft and Ullman (1974): a node's id is the id of the tuple of its
    children's ids, so two subtrees get one id exactly when they are equal
    as ordered trees.  An unordered id interns the child ids sorted, which
    makes it the ordered id of a canonical representative, so one table
    serves both modes.  A child's id is always smaller than its parent's.

    For each id the table records, once per distinct shape, its child tuple,
    its size, its height and its child classes: ``(child id, count)`` pairs
    in increasing id order.  New shapes are added under a lock, so threads
    may share the table.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[tuple[int, ...], int] = {}
        self.children: list[tuple[int, ...]] = []
        self.size: list[int] = []
        self.height: list[int] = []
        self.classes: list[tuple[tuple[int, int], ...]] = []
        self.leaf = self.intern(())  # the single vertex, id 0

    def intern(self, kids: tuple[int, ...]) -> int:
        """The id of the shape whose children have ids ``kids``, in order."""
        sid = self._ids.get(kids)
        if sid is None:
            with self._lock:
                sid = self._ids.get(kids)
                if sid is None:
                    sid = len(self.children)
                    self.children.append(kids)
                    self.size.append(1 + sum(self.size[c] for c in kids))
                    self.height.append(1 + max(self.height[c] for c in kids) if kids else 0)
                    self.classes.append(tuple(sorted(Counter(kids).items())))
                    # published last, so a reader that finds the id finds its record
                    self._ids[kids] = sid
        return sid

    def tree_ids(self, tree: "Tree", unordered: bool) -> tuple[int, ...]:
        """Per-node ids of ``tree``'s subtrees; ``unordered`` sorts child ids first."""
        ids = [self.leaf] * tree.size
        known, children = self._ids, tree.children
        child_id = ids.__getitem__
        for v in tree._deepest_first:
            kids = children[v]
            if kids:
                key = tuple(sorted(map(child_id, kids)) if unordered else map(child_id, kids))
                sid = known.get(key)
                ids[v] = self.intern(key) if sid is None else sid
        return tuple(ids)


#: The process-wide shape table.  Like ``sys.intern`` it is never pruned,
#: so it grows with the number of distinct shapes the process has seen.
SHAPES = ShapeTable()


@dataclass(frozen=True)
class Tree:
    """An immutable rooted tree over dense integer node ids.

    ``parents[i]`` is the parent of node ``i`` (``None`` exactly for the
    root) and ``children[i]`` is the ordered tuple of its children.
    """

    parents: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    root: int = 0

    @classmethod
    def from_children(cls, children: Sequence[Sequence[int]], root: int = 0) -> "Tree":
        """Build and validate a tree from per-node child lists."""
        n = len(children)
        if n == 0:
            raise ValueError("a tree has at least one vertex")
        if not 0 <= root < n:
            raise ValueError(f"root id {root} out of range 0..{n - 1}")
        parents: list[int | None] = [None] * n
        child_tuples = []
        for v, childs in enumerate(children):
            for c in childs:
                if not 0 <= c < n:
                    raise ValueError(f"child id {c} of node {v} out of range")
                if parents[c] is not None or c == root:
                    raise ValueError(f"node {c} has more than one parent or is the root")
                parents[c] = v
            child_tuples.append(tuple(childs))
        orphans = [v for v in range(n) if parents[v] is None and v != root]
        if orphans:
            raise ValueError(f"nodes {orphans} are unreachable from the root")
        tree = cls(tuple(parents), tuple(child_tuples), root)
        # a cycle would leave some node unreachable from the root
        if len(tree.depths) != n:
            raise ValueError("parent relation is cyclic")
        return tree

    @property
    def size(self) -> int:
        return len(self.parents)

    def nodes(self) -> range:
        return range(len(self.parents))

    @cached_property
    def depths(self) -> tuple[int, ...]:
        """Distance from the root, per node, in root-first visit order."""
        depth = [-1] * len(self.parents)
        depth[self.root] = 0
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        if min(depth) < 0:
            raise ValueError("tree has nodes unreachable from the root")
        return tuple(depth)

    @cached_property
    def height(self) -> int:
        # the first node deepest-first is a deepest one: count its steps up
        v, steps = self._deepest_first[0], 0
        while v != self.root:
            v = self.parents[v]
            steps += 1
        return steps

    @cached_property
    def _deepest_first(self) -> tuple[int, ...]:
        """Nodes in non-increasing depth: breadth-first order, reversed."""
        order = [self.root]
        for v in order:
            order.extend(self.children[v])
        order.reverse()
        return tuple(order)

    def shape_ids(self, mode: Mode) -> tuple[int, ...]:
        """Per-node id in :data:`SHAPES` of the subtree rooted there, under ``mode``."""
        check_mode(mode)
        return self._ordered_ids if mode == "ordered" else self._unordered_ids

    @cached_property
    def _ordered_ids(self) -> tuple[int, ...]:
        return SHAPES.tree_ids(self, unordered=False)

    @cached_property
    def _unordered_ids(self) -> tuple[int, ...]:
        return SHAPES.tree_ids(self, unordered=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tree({serialize_tree(self)!r})"


class TreeBuilder:
    """Mutable arena for assembling a tree top-down; ``build`` freezes it.

    Parents and children are recorded together, and every parent id is
    checked on the way in, so ``build`` needs no validation pass.
    """

    def __init__(self) -> None:
        self._parents: list[int | None] = [None]
        self._children: list[list[int]] = [[]]

    @property
    def root(self) -> int:
        return 0

    def _check_parent(self, parent: int) -> None:
        if not 0 <= parent < len(self._parents):
            raise ValueError(f"parent id {parent} out of range 0..{len(self._parents) - 1}")

    def add_child(self, parent: int) -> int:
        self._check_parent(parent)
        node = len(self._parents)
        self._parents.append(parent)
        self._children.append([])
        self._children[parent].append(node)
        return node

    def graft(self, parent: int, subtree: Tree) -> int:
        """Copy ``subtree`` below ``parent``; returns the copy's root id.

        The copy is ``subtree``'s arena with every id shifted by the
        builder's size before the call, whatever ``subtree``'s root id.
        """
        self._check_parent(parent)
        # one int object per new id, shared by its parent and child records
        new_id = list(range(len(self._parents), len(self._parents) + subtree.size))
        self._parents.extend(parent if p is None else new_id[p] for p in subtree.parents)
        self._children.extend([new_id[c] for c in kids] for kids in subtree.children)
        self._children[parent].append(new_id[subtree.root])
        return new_id[subtree.root]

    def build(self) -> Tree:
        return Tree(tuple(self._parents), tuple(map(tuple, self._children)), 0)


def parse_tree(text: str) -> Tree:
    """Parse a balanced-parentheses encoding into a tree.

    Node ids follow the order of the opening brackets.  Raises
    :class:`TreeParseError` with the offset of the first problem for
    unbalanced, empty, or trailing input.
    """
    parents: list[int | None] = []
    children: list[list[int]] = []
    # the open node; walking up through ``parents`` pops the bracket stack
    open_node = None
    for offset, ch in enumerate(text):
        if ch == "(":
            node = len(parents)
            if open_node is not None:
                children[open_node].append(node)
            elif node:
                raise TreeParseError("unexpected second top-level tree", offset=offset)
            parents.append(open_node)
            children.append([])
            open_node = node
        elif ch == ")":
            if open_node is None:
                raise TreeParseError("unbalanced ')'", offset=offset)
            open_node = parents[open_node]
        elif not ch.isspace():
            raise TreeParseError(f"unexpected character {ch!r}", offset=offset)
    if open_node is not None:
        raise TreeParseError("unbalanced '(': input ended inside a tree", offset=len(text))
    if not parents:
        raise TreeParseError("empty input: expected at least one '()' pair", offset=0)
    return Tree(tuple(parents), tuple(map(tuple, children)), 0)


def _root_encoding(t: Tree, mode: Mode) -> str:
    """Encoding of the whole of ``t`` under ``mode``, joined bottom up.

    Each child's string is dropped once its parent is joined, so the live
    strings spell disjoint subtrees and memory stays O(n) even on a deep
    path, where keeping every node's encoding would cost O(n * height).
    """
    enc: dict[int, str] = {}
    children = t.children
    for v in t._deepest_first:
        kids = children[v]
        enc[v] = join_encodings([enc.pop(c) for c in kids], mode) if kids else "()"
    return enc[t.root]


def serialize_tree(t: Tree) -> str:
    """Literal encoding of ``t``; ``parse_tree`` reproduces it node for node."""
    return _root_encoding(t, "ordered")


def canonical_form(t: Tree, mode: Mode) -> str:
    """Normal form deciding equality under ``mode``.

    Ordered mode is the literal serialization.  Unordered mode sorts each
    node's child encodings in non-increasing canonical order, so two trees
    get equal keys exactly when they are isomorphic as unordered trees.
    """
    return _root_encoding(t, check_mode(mode))


def add_leaf(t: Tree, v: int) -> Tree:
    """Return a new tree with a fresh leaf appended as the last child of ``v``."""
    if not 0 <= v < t.size:
        raise ValueError(f"unknown node id {v}")
    new = t.size
    parents = t.parents + (v,)
    children = tuple(
        t.children[u] + (new,) if u == v else t.children[u] for u in t.nodes()
    ) + ((),)
    return Tree(parents, children, t.root)


@dataclass(frozen=True)
class Dataset:
    """An indexed multiset of trees, compared under a fixed mode."""

    trees: tuple[Tree, ...]
    mode: Mode

    @classmethod
    def from_trees(cls, trees: Iterable[Tree], mode: Mode) -> "Dataset":
        check_mode(mode)
        return cls(tuple(trees), mode)

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.trees)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hashed once: per-dataset caches look a dataset up on every call,
        # and hashing walks every tree
        return hash((self.trees, self.mode))


@dataclass(frozen=True)
class SupportSet:
    """The dataset indices whose trees contain a given pattern."""

    indices: tuple[int, ...]
    count: int

    @classmethod
    def from_indices(cls, indices) -> "SupportSet":
        idx = tuple(sorted(indices))
        return cls(idx, len(idx))


def load_dataset(source: Iterable[str], mode: Mode) -> Dataset:
    """Read one tree per line; blank lines and ``#`` comments are skipped.

    Duplicate lines produce distinct indices (multiset semantics).  Parse
    errors carry the 1-based line number.
    """
    check_mode(mode)
    trees = []
    for lineno, raw in enumerate(source, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            trees.append(parse_tree(line))
        except TreeParseError as exc:
            raise TreeParseError(exc.bare_message, offset=exc.offset, line=lineno) from None
    return Dataset.from_trees(trees, mode)
