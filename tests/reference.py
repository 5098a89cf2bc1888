"""Independent reference implementations backing the test suite.

Nothing here touches the package's matching engine, signature algebra, or
canonical encoder beyond constructing Tree values: containment is decided
by enumerating parent-closed vertex subsets and comparing nested-tuple
shapes, isomorphism by trying child permutations outright.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import permutations

from shrubmine import Tree, TreeBuilder, parse_tree, tree_from_signature


# ---------------------------------------------------------------------------
# shape keys and subset enumeration


def shape_key(tree: Tree, root: int, vertices: frozenset[int], mode: str):
    """Nested-tuple shape of the induced subtree on ``vertices`` at ``root``."""

    def rec(v: int):
        kids = [rec(c) for c in tree.children[v] if c in vertices]
        return tuple(sorted(kids)) if mode == "unordered" else tuple(kids)

    return rec(root)


def whole_shape(tree: Tree, mode: str):
    return shape_key(tree, tree.root, frozenset(tree.nodes()), mode)


def _subsets_at(tree: Tree, v: int) -> list[frozenset[int]]:
    chosen: list[frozenset[int]] = [frozenset([v])]
    for c in tree.children[v]:
        child_options = _subsets_at(tree, c)
        chosen = [base | extra for base in chosen for extra in [frozenset()] + child_options]
    return chosen


def induced_subtrees(tree: Tree) -> list[tuple[int, frozenset[int]]]:
    """Every (root choice, parent-closed vertex subset) pair."""
    out = []
    for r in tree.nodes():
        out.extend((r, vs) for vs in _subsets_at(tree, r))
    return out


def subtree_shapes(tree: Tree, mode: str) -> set:
    """Shapes of every induced subtree of ``tree`` (free root choice)."""
    return {shape_key(tree, r, vs, mode) for r, vs in induced_subtrees(tree)}


def root_aligned_shapes(tree: Tree, mode: str) -> set:
    """Shapes of every parent-closed vertex subset containing the root."""
    return {shape_key(tree, tree.root, vs, mode) for vs in _subsets_at(tree, tree.root)}


def tree_from_shape(shape) -> Tree:
    """A tree whose shape (read in order) is the nested tuple ``shape``."""
    children: list[list[int]] = []

    def build(s) -> int:
        v = len(children)
        children.append([])
        children[v] = [build(k) for k in s]
        return v

    build(shape)
    return Tree.from_children(children)


def definitional_maximal_closed(trees, mode: str) -> dict[int, tuple[set, set]]:
    """Maximal and closed root-aligned patterns, by shape, for every theta.

    Straight from the definitions: a theta-frequent pattern is maximal when
    no strict superpattern is theta-frequent, and closed when no strict
    superpattern has equal support.  Superpatterns range over every
    occurring pattern, found by enumerating each pattern's own subsets.
    """
    support: Counter = Counter(s for t in trees for s in root_aligned_shapes(t, mode))
    supers: dict = {p: set() for p in support}
    for q in support:
        for p in root_aligned_shapes(tree_from_shape(q), mode) - {q}:
            supers[p].add(q)
    out = {}
    for theta in range(1, len(trees) + 1):
        frequent = {p for p, n in support.items() if n >= theta}
        maximal = {p for p in frequent if not supers[p] & frequent}
        closed = {p for p in frequent if all(support[q] < support[p] for q in supers[p])}
        out[theta] = (maximal, closed)
    return out


def naive_subtree_iso(pattern: Tree, target: Tree, mode: str) -> bool:
    """Free-root containment by exhaustive subset enumeration."""
    return whole_shape(pattern, mode) in subtree_shapes(target, mode)


def naive_tree_iso(t1: Tree, t2: Tree, mode: str) -> bool:
    """Whole-tree isomorphism by trying sibling bijections outright."""

    def match(v1: int, v2: int) -> bool:
        c1, c2 = t1.children[v1], t2.children[v2]
        if len(c1) != len(c2):
            return False
        if mode == "ordered":
            return all(match(a, b) for a, b in zip(c1, c2))
        return any(
            all(match(a, b) for a, b in zip(c1, perm)) for perm in permutations(c2)
        )

    return match(t1.root, t2.root)


def naive_signature_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """Dominance by explicit injection search."""

    def search(i: int, used: int) -> bool:
        if i == len(x):
            return True
        for j in range(len(y)):
            if not used & (1 << j) and x[i] <= y[j]:
                if search(i + 1, used | (1 << j)):
                    return True
        return False

    return search(0, 0)


# ---------------------------------------------------------------------------
# tree pools


@lru_cache(maxsize=None)
def _ordered_encodings(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("()",)
    return tuple("(" + body + ")" for body in _forest_encodings(n - 1))


@lru_cache(maxsize=None)
def _forest_encodings(total: int) -> tuple[str, ...]:
    if total == 0:
        return ("",)
    out = []
    for first in range(1, total + 1):
        for head in _ordered_encodings(first):
            for rest in _forest_encodings(total - first):
                out.append(head + rest)
    return tuple(out)


def all_ordered_trees(max_vertices: int) -> list[Tree]:
    """Every ordered tree with 1..max_vertices vertices."""
    return [
        parse_tree(enc)
        for n in range(1, max_vertices + 1)
        for enc in _ordered_encodings(n)
    ]


def all_unordered_trees(max_vertices: int) -> list[Tree]:
    """One representative per unordered isomorphism class."""
    seen = set()
    out = []
    for t in all_ordered_trees(max_vertices):
        key = whole_shape(t, "unordered")
        if key not in seen:
            seen.add(key)
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# random generators


def random_signature(rng: random.Random, max_total: int) -> tuple[int, ...]:
    budget = rng.randint(0, max_total)
    entries = []
    while budget > 0:
        e = rng.randint(1, budget)
        entries.append(e)
        budget -= e
    return tuple(sorted(entries, reverse=True))


def partitions(total: int, cap: int | None = None):
    """Integer partitions of ``total`` with parts <= ``cap``, as signatures,
    largest first part first."""
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def random_shrub_signatures(
    rng: random.Random, n: int, width: int, fanout: int, dup: float
) -> list[tuple[int, ...]]:
    """``n`` height-<=2 signatures, duplicate heavy: with probability ``dup``
    an earlier one repeats, otherwise 1..``width`` root children each carry
    0..``fanout`` leaves."""
    out: list[tuple[int, ...]] = []
    for _ in range(n):
        if out and rng.random() < dup:
            out.append(rng.choice(out))
        else:
            kids = [1 + rng.randint(0, fanout) for _ in range(rng.randint(1, width))]
            out.append(tuple(sorted(kids, reverse=True)))
    return out


def shuffled_children(rng: random.Random, tree: Tree) -> Tree:
    """The same unordered tree with every vertex's children in random order."""
    return Tree.from_children(
        [rng.sample(kids, len(kids)) for kids in tree.children], tree.root
    )


def random_h2_tree(rng: random.Random, max_vertices: int = 12) -> Tree:
    """Uniform-ish random tree of height <= 2 with at most max_vertices."""
    return tree_from_signature(random_signature(rng, rng.randint(0, max_vertices - 1)))


def random_exact_h2_tree(rng: random.Random, max_total: int = 12) -> Tree:
    while True:
        sig = random_signature(rng, max_total)
        if sig and sig[0] >= 2:
            return tree_from_signature(sig)


def random_tree(rng: random.Random, vertices: int) -> Tree:
    """Random rooted tree of any shape: each node attaches below an earlier one."""
    children: list[list[int]] = [[] for _ in range(vertices)]
    for v in range(1, vertices):
        children[rng.randrange(v)].append(v)
    return Tree.from_children(children)


def random_repeated_sibling_tree(rng: random.Random, max_vertices: int, pool: list[Tree]) -> Tree:
    """Random tree grafted from 1-3 copies at a time of shapes in ``pool``,
    half of them below the root, so many vertices have several children of
    one shape."""
    builder = TreeBuilder()
    frontier = [builder.root]
    size = 1
    while True:
        shape, copies = rng.choice(pool), rng.randint(1, 3)
        size += copies * shape.size
        if size > max_vertices:
            return builder.build()
        parent = builder.root if rng.random() < 0.5 else rng.choice(frontier)
        frontier.extend(builder.graft(parent, shape) for _ in range(copies))


def random_h2_dataset(rng: random.Random, min_trees=2, max_trees=6, max_vertices=12):
    from shrubmine import Dataset

    k = rng.randint(min_trees, max_trees)
    return Dataset.from_trees(
        [random_h2_tree(rng, max_vertices) for _ in range(k)], "unordered"
    )


# ---------------------------------------------------------------------------
# fixed (3,4)-CNF instances with n, m > 10


def cyclic_34_cnf(n: int = 12):
    """Satisfiable: clauses (x_i or x_{i+1} or x_{i+2}) cyclically; every
    positive literal appears exactly three times."""
    from shrubmine.gadgets import CnfFormula

    def wrap(v):
        return (v - 1) % n + 1

    clauses = tuple((i, wrap(i + 1), wrap(i + 2)) for i in range(1, n + 1))
    return CnfFormula(n, clauses)


def unsat_34_cnf():
    """Unsatisfiable: an inconsistent core on x1, x2 padded with cyclic
    positive clauses over x3..x12; still (3,4) with n = 12, m = 14."""
    from shrubmine.gadgets import CnfFormula

    core = [(1, 2), (1, -2), (-1, 2), (-1, -2)]

    def wrap(v):
        return 3 + (v - 3) % 10

    pad = [(v, wrap(v + 1), wrap(v + 2)) for v in range(3, 13)]
    return CnfFormula(12, tuple(core + pad))


def random_34_cnf(rng: random.Random, max_n: int, max_m: int):
    """Random (3,4)-CNF: up to ``max_m`` clauses of 1-3 distinct literals
    over 1..n, every literal in at most 4 clauses; clauses may be
    tautological."""
    from shrubmine.gadgets import CnfFormula

    n = rng.randint(1, max_n)
    occurrences: Counter = Counter()
    clauses = []
    for _ in range(rng.randint(1, max_m)):
        clause: list[int] = []
        for _ in range(rng.randint(1, 3)):
            lit = rng.choice((-1, 1)) * rng.randint(1, n)
            if occurrences[lit] < 4 and lit not in clause:
                clause.append(lit)
        if clause:
            occurrences.update(clause)
            clauses.append(tuple(clause))
    return CnfFormula(n, tuple(clauses))


# ---------------------------------------------------------------------------
# the SAT construction, vertex by vertex


def reference_clause_marker(m: int, j: int) -> Tree:
    """Clause marker j of m: ``m - j + 1`` root children with ``j`` leaves each."""
    b = TreeBuilder()
    for _ in range(m - j + 1):
        child = b.add_child(b.root)
        for _ in range(j):
            b.add_child(child)
    return b.build()


def reference_variable_gadget(index: int, cnf) -> Tree:
    """Positive then negative branch of variable ``index``, each carrying the
    markers of the clauses that hold that literal, in clause order."""
    m = len(cnf.clauses)
    b = TreeBuilder()
    positive = b.add_child(b.root)
    negative = b.add_child(b.root)
    for j, clause in enumerate(cnf.clauses, 1):
        if index in clause:
            b.graft(positive, reference_clause_marker(m, j))
        if -index in clause:
            b.graft(negative, reference_clause_marker(m, j))
    return b.build()


def reference_assignment_tree(cnf, assignment) -> Tree:
    """Per variable a branch whose one child carries the markers of the
    clauses that hold the literal the assignment makes true."""
    m = len(cnf.clauses)
    b = TreeBuilder()
    for i in range(1, cnf.n + 1):
        branch = b.add_child(b.root)
        kept = b.add_child(branch)
        live_literal = i if assignment[i] else -i
        for j, clause in enumerate(cnf.clauses, 1):
            if live_literal in clause:
                b.graft(kept, reference_clause_marker(m, j))
    return b.build()


def reference_sat_dataset(cnf) -> list[Tree]:
    """Template, the templates dropping marker 1..m, then the formula tree."""
    m = len(cnf.clauses)

    def template(omit) -> Tree:
        b = TreeBuilder()
        for _ in range(cnf.n):
            branch = b.add_child(b.root)
            bundle = b.add_child(branch)
            for j in range(1, m + 1):
                if j != omit:
                    b.graft(bundle, reference_clause_marker(m, j))
        return b.build()

    formula = TreeBuilder()
    for i in range(1, cnf.n + 1):
        formula.graft(formula.root, reference_variable_gadget(i, cnf))
    return [template(None), *(template(j) for j in range(1, m + 1)), formula.build()]
