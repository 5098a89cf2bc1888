"""Hardness-reduction gadget families and their instance-level verifiers.

Three constructions are provided, each turning a combinatorial problem
into a tree-mining dataset whose maximal-pattern structure mirrors the
source problem:

* dualization: ordered trees whose maximal common trees correspond to the
  maximal independent sets of a hypergraph, plus one extra tree;
* satisfiability: unordered height-5 trees whose extra maximal 2-frequent
  patterns correspond to satisfying assignments of a (3,4)-CNF;
* itemsets: ordered height-2 trees whose maximal frequent patterns mirror
  the maximal frequent itemsets of a transaction database.

``verify_gadget`` replays the defining facts of each family on a concrete
instance and reports one pass/fail line per check.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import ConstraintError, FormatError
from .isomorphism import subtree_iso
from .oracle import Hypergraph, brute_maximal, brute_mct, brute_mis, maximal_subsets
from .signatures import tree_from_signature
from .trees import Dataset, Tree, TreeBuilder, canonical_form

# ---------------------------------------------------------------------------
# input formats


def _ints(tokens: Iterable[str], error: str) -> list[int]:
    """``tokens`` as integers; a :class:`FormatError` with ``error`` otherwise."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise FormatError(error) from None


@dataclass(frozen=True)
class CnfFormula:
    """A CNF over variables ``1..n``; clauses hold signed DIMACS literals."""

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for i, clause in enumerate(self.clauses):
            if not clause:
                raise ValueError(f"clause {i + 1} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} in clause {i + 1} is out of range")

    def three_four_violations(self) -> list[str]:
        """Why this formula is not in (3,4) form, if it is not."""
        problems = []
        for i, clause in enumerate(self.clauses):
            if len(clause) > 3:
                problems.append(f"clause {i + 1} has {len(clause)} literals")
        occurrences: dict[int, int] = {}
        for clause in self.clauses:
            for lit in set(clause):
                occurrences[lit] = occurrences.get(lit, 0) + 1
        for lit, count in sorted(occurrences.items()):
            if count > 4:
                problems.append(f"literal {lit} appears in {count} clauses")
        return problems

    def satisfies(self, assignment: Mapping[int, bool]) -> bool:
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in self.clauses
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: a ``p cnf n m`` header, then 0-terminated clauses."""
    n = None
    declared = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("c", "#", "%")):
            continue
        if line.startswith("p"):
            parts = line.split()
            bad_header = f"bad DIMACS header on line {lineno}: {line!r}"
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(bad_header)
            n, declared = _ints(parts[2:], bad_header)
            continue
        tokens.extend(_ints(line.split(), f"non-integer token on line {lineno}: {line!r}"))
    if n is None:
        raise FormatError("missing 'p cnf' header")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(tok)
    if current:
        raise FormatError("last clause is not 0-terminated")
    if declared is not None and declared != len(clauses):
        raise FormatError(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def format_dimacs(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.n} {len(cnf.clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in cnf.clauses)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TransactionDb:
    """Itemsets over ``1..n``, one per transaction."""

    n: int
    itemsets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        for i, items in enumerate(self.itemsets):
            if not all(1 <= x <= self.n for x in items):
                raise ValueError(f"transaction {i + 1} leaves the item range 1..{self.n}")


def parse_transactions(text: str) -> TransactionDb:
    """One space-separated itemset per line; optional ``# n=<int>`` header."""
    n = None
    rows: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                (n,) = _ints([body[2:]], f"non-integer item count on line {lineno}: {line!r}")
            continue
        items = _ints(line.split(), f"non-integer item on line {lineno}: {line!r}")
        if any(x < 1 for x in items):
            raise FormatError(f"items must be positive, line {lineno}: {line!r}")
        rows.append(frozenset(items))
    if n is None:
        n = max((max(r) for r in rows if r), default=0)
    return TransactionDb(n, tuple(rows))


def parse_hypergraph(text: str) -> Hypergraph:
    """First data line ``n m``, then ``m`` lines of 1-based vertex ids."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append((lineno, line))
    if not lines:
        raise FormatError("empty hypergraph file")
    header_lineno, header = lines[0]
    parts = header.split()
    bad_header = f"expected 'n m' on line {header_lineno}, got {header!r}"
    if len(parts) != 2:
        raise FormatError(bad_header)
    n, m = _ints(parts, bad_header)
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = [
        frozenset(_ints(line.split(), f"non-integer vertex on line {lineno}: {line!r}"))
        for lineno, line in lines[1:]
    ]
    try:
        return Hypergraph.from_edges(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# satisfiability family


@lru_cache(maxsize=256)
def clause_marker_tree(m: int, j: int) -> Tree:
    """Height-2 marker for clause ``j`` of ``m``: ``m - j + 1`` children,
    each carrying exactly ``j`` leaves.  Pairwise incomparable across j.

    Cached because every builder grafts the same m markers; 256 entries
    hold all markers of a 256-clause formula, less than one template."""
    if not 1 <= j <= m:
        raise ValueError(f"clause index {j} out of range 1..{m}")
    return tree_from_signature((j + 1,) * (m - j + 1))


def marker_bundle_tree(m: int, omit: int | None = None) -> Tree:
    """All ``m`` clause markers side by side under one root (height 3);
    ``omit`` drops a single marker."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if omit is not None and not 1 <= omit <= m:
        raise ValueError(f"omitted index {omit} out of range 1..{m}")
    b = TreeBuilder()
    for i in range(1, m + 1):
        if i == omit:
            continue
        b.graft(b.root, clause_marker_tree(m, i))
    return b.build()


def _graft_literal_markers(b: TreeBuilder, parent: int, cnf: CnfFormula, literal: int) -> None:
    """Graft below ``parent``, in clause order, the markers of the clauses
    of ``cnf`` that contain ``literal``."""
    m = len(cnf.clauses)
    for j, clause in enumerate(cnf.clauses, 1):
        if literal in clause:
            b.graft(parent, clause_marker_tree(m, j))


def variable_gadget_tree(index: int, cnf: CnfFormula) -> Tree:
    """Two branches for variable ``index``: the first carries the markers of
    clauses containing the positive literal, the second those of the
    negative literal."""
    if not 1 <= index <= cnf.n:
        raise ValueError(f"variable index {index} out of range 1..{cnf.n}")
    b = TreeBuilder()
    positive = b.add_child(b.root)
    negative = b.add_child(b.root)
    _graft_literal_markers(b, positive, cnf, index)
    _graft_literal_markers(b, negative, cnf, -index)
    return b.build()


@dataclass(frozen=True)
class SatGadget:
    """Unordered dataset [template, dropped templates, formula tree], theta=2."""

    dataset: Dataset
    theta: int
    cnf: CnfFormula
    known_solutions: tuple[Tree, ...]

    @property
    def template(self) -> Tree:
        return self.dataset.trees[0]

    @property
    def dropped_templates(self) -> tuple[Tree, ...]:
        return self.dataset.trees[1:-1]

    @property
    def formula_tree(self) -> Tree:
        return self.dataset.trees[-1]


def _template_tree(cnf: CnfFormula, omit: int | None) -> Tree:
    # each branch vertex has a single child, the bundle root
    b = TreeBuilder()
    bundle = marker_bundle_tree(len(cnf.clauses), omit)
    for _ in range(cnf.n):
        branch = b.add_child(b.root)
        b.graft(branch, bundle)
    return b.build()


def _formula_tree(cnf: CnfFormula) -> Tree:
    b = TreeBuilder()
    for i in range(1, cnf.n + 1):
        b.graft(b.root, variable_gadget_tree(i, cnf))
    return b.build()


def sat_gadget(cnf: CnfFormula) -> SatGadget:
    """Dataset of ``m + 2`` unordered height-5 trees encoding a (3,4)-CNF.

    The dropped templates are maximal 2-frequent by construction; any
    further maximal 2-frequent pattern corresponds to a satisfying
    assignment.  Rejects formulas without clauses (there is no clause
    marker to build from) or outside (3,4) form, and warns when the
    instance is too small for the template separation argument.
    """
    if not cnf.clauses:
        raise ConstraintError("the formula has no clauses, so there are no clause markers to build")
    problems = cnf.three_four_violations()
    if problems:
        raise ConstraintError("formula is not in (3,4) form: " + "; ".join(problems))
    m = len(cnf.clauses)
    if cnf.n <= 10 or m <= 10:
        warnings.warn(
            f"instance has n={cnf.n}, m={m}; the construction expects both "
            "to exceed 10 for its separation properties",
            stacklevel=2,
        )
    template = _template_tree(cnf, omit=None)
    dropped = tuple(_template_tree(cnf, omit=j) for j in range(1, m + 1))
    formula = _formula_tree(cnf)
    dataset = Dataset.from_trees((template, *dropped, formula), "unordered")
    return SatGadget(dataset, theta=2, cnf=cnf, known_solutions=dropped)


def assignment_tree(cnf: CnfFormula, assignment: Mapping[int, bool]) -> Tree:
    """Formula tree restricted by an assignment: each variable keeps only
    the branch whose literal the assignment makes true, so the tree carries
    exactly the markers of the satisfied clauses."""
    missing = [i for i in range(1, cnf.n + 1) if i not in assignment]
    if missing:
        raise ValueError(f"assignment leaves variables {missing} undefined")
    b = TreeBuilder()
    for i in range(1, cnf.n + 1):
        branch = b.add_child(b.root)
        kept = b.add_child(branch)
        _graft_literal_markers(b, kept, cnf, i if assignment[i] else -i)
    return b.build()


# ---------------------------------------------------------------------------
# dualization family


@dataclass(frozen=True)
class DualGadget:
    """Ordered dataset [full tree, one tree per hyperedge] plus the spare
    maximal common tree with ``n - 1`` leafed children."""

    dataset: Dataset
    n: int
    w_tree: Tree
    hypergraph: Hypergraph


def _leafed_row_tree(children: int, leafed: Iterable[int]) -> Tree:
    """Root with ``children`` children; those at 1-based ``leafed``
    positions stay leaves, the rest carry a single child."""
    leafed_set = set(leafed)
    b = TreeBuilder()
    for pos in range(1, children + 1):
        child = b.add_child(b.root)
        if pos not in leafed_set:
            b.add_child(child)
    return b.build()


def spare_row_tree(n: int) -> Tree:
    """The spare tree: ``n - 1`` children, each carrying one leaf."""
    return _leafed_row_tree(n - 1, [])


def edge_tree(edge: Iterable[int], n: int) -> Tree:
    """Gadget tree of one hyperedge: ``n + |E| - 1`` ordered children with
    leaves exactly at positions ``w_j + j - 1`` for the ascending edge
    vertices ``w_1 < ... < w_k``."""
    ordered = sorted(set(edge))
    k = len(ordered)
    positions = [w + j for j, w in enumerate(ordered)]  # w_j + (j+1) - 1, 0-based j
    return _leafed_row_tree(n + k - 1, positions)


def gen_dualization_instance(h: Hypergraph) -> DualGadget:
    """Ordered dataset whose maximal common trees are exactly the encoded
    maximal independent sets plus the spare tree.

    Refuses hypergraphs with a vertex lying in every edge; peel such
    vertices off first (each one splits off independently).  Refuses
    hypergraphs without vertices too: their spare tree would be the tree of
    the empty independent set.
    """
    if h.n == 0:
        raise ConstraintError(
            "the hypergraph has no vertices, so its spare tree would equal the "
            "tree of the empty independent set"
        )
    universal = [
        v for v in range(1, h.n + 1) if all(v in e for e in h.edges) or not h.edges
    ]
    if universal:
        raise ConstraintError(
            f"vertices {universal} lie in every hyperedge; remove them and solve "
            "the reduced hypergraph separately"
        )
    full = _leafed_row_tree(h.n, [])  # every child carries one leaf
    per_edge = [edge_tree(e, h.n) for e in h.edges]
    dataset = Dataset.from_trees([full, *per_edge], "ordered")
    return DualGadget(dataset, h.n, spare_row_tree(h.n), h)


def vertexset_to_tree(vertices: Iterable[int], n: int) -> Tree:
    """Encode any subset of ``1..n``, a vertex set or an itemset: root with
    ``n`` ordered children, the i-th carrying one child exactly when ``i``
    is in the subset."""
    vs = set(vertices)
    if not all(1 <= v <= n for v in vs):
        raise ValueError(f"vertex set {sorted(vs)} leaves the range 1..{n}")
    return _leafed_row_tree(n, (pos for pos in range(1, n + 1) if pos not in vs))


def tree_to_vertexset(t: Tree, n: int) -> frozenset[int]:
    """Inverse of :func:`vertexset_to_tree`; rejects trees of other shapes."""
    root_children = t.children[t.root]
    if len(root_children) != n:
        raise ValueError(f"expected a root with {n} children, found {len(root_children)}")
    out = set()
    for pos, c in enumerate(root_children, 1):
        grandchildren = t.children[c]
        if len(grandchildren) > 1 or any(t.children[g] for g in grandchildren):
            raise ValueError(f"child {pos} is not a leaf or single-leaf carrier")
        if grandchildren:
            out.add(pos)
    return frozenset(out)


# ---------------------------------------------------------------------------
# itemset family


@dataclass(frozen=True)
class ItemsetGadget:
    """Ordered dataset [one tree per transaction, theta spare trees]."""

    dataset: Dataset
    n: int
    theta: int
    s_set: tuple[Tree, ...]
    transactions: TransactionDb
    solution_itemsets: tuple[frozenset[int], ...]


def maximal_frequent_itemsets(db: TransactionDb, theta: int) -> set[frozenset[int]]:
    """Brute-force maximal frequent itemsets by full subset sweep."""
    if theta < 1:
        raise ValueError(f"theta must be >= 1, got {theta}")
    return maximal_subsets(
        db.n,
        db.itemsets,
        lambda mask, rows: sum(1 for row in rows if row & mask == mask) >= theta,
        "items",
    )


def gen_itemset_instance(
    transactions: TransactionDb,
    maximal_itemsets: Sequence[frozenset[int]],
    eta: int,
) -> ItemsetGadget:
    """Ordered dataset mirroring a transaction database at threshold ``eta``:
    one tree per transaction plus ``eta`` copies of the spare tree.  The
    declared solution set is the given maximal itemsets plus one spare."""
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    n = transactions.n
    solution_sets = tuple(frozenset(s) for s in maximal_itemsets)
    for s in solution_sets:
        if not all(1 <= x <= n for x in s):
            raise ValueError(f"solution itemset {sorted(s)} leaves the range 1..{n}")
    spare = spare_row_tree(n)
    trees = [vertexset_to_tree(x, n) for x in transactions.itemsets] + [spare] * eta
    dataset = Dataset.from_trees(trees, "ordered")
    s_set = tuple(vertexset_to_tree(y, n) for y in solution_sets) + (spare,)
    return ItemsetGadget(dataset, n, eta, s_set, transactions, solution_sets)


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: tuple[tuple[str, object], ...] = ()

    def line(self) -> str:
        extras = "".join(f" {k}={v}" for k, v in self.details)
        return f"check={self.name} status={self.status}{extras}"


@dataclass
class VerifyReport:
    kind: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _result(name: str, ok: bool, **details) -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", tuple(details.items()))


def _verify_dual(instance: DualGadget) -> VerifyReport:
    checks = []
    w_key = canonical_form(instance.w_tree, "ordered")
    w_everywhere = all(
        subtree_iso(instance.w_tree, t, "ordered") for t in instance.dataset.trees
    )
    checks.append(_result("spare_tree_is_common", w_everywhere))

    mis = brute_mis(instance.hypergraph)
    expected = {
        canonical_form(vertexset_to_tree(i_set, instance.n), "ordered") for i_set in mis
    }
    expected.add(w_key)
    actual = set(brute_mct(instance.dataset).keys())
    checks.append(
        _result(
            "maximal_common_trees_match_independent_sets",
            actual == expected,
            independent_sets=len(mis),
            maximal_common_trees=len(actual),
        )
    )
    checks.append(
        _result(
            "count_is_mis_plus_one",
            len(actual) == len(mis) + 1,
            expected=len(mis) + 1,
            actual=len(actual),
        )
    )
    return VerifyReport("dual", checks)


def _clause_falsifier(clause: tuple[int, ...], n: int) -> dict[int, bool] | None:
    """Assignment making every literal of ``clause`` false (None if the
    clause is tautological); unmentioned variables default to False."""
    alpha = {i: False for i in range(1, n + 1)}
    seen: dict[int, bool] = {}
    for lit in clause:
        want = lit < 0  # make the literal false
        if seen.setdefault(abs(lit), want) != want:
            return None
        alpha[abs(lit)] = want
    return alpha


def _verify_sat(instance: SatGadget, seed: int, samples: int) -> VerifyReport:
    cnf = instance.cnf
    m = len(cnf.clauses)
    checks = []

    heights_ok = (
        instance.template.height == 5
        and all(t.height == 5 for t in instance.dropped_templates)
        and instance.formula_tree.height == 5
    )
    checks.append(_result("tree_heights_are_five", heights_ok))

    markers = {j: clause_marker_tree(m, j) for j in range(1, m + 1)}
    antichain = all(
        subtree_iso(markers[j], markers[k], "unordered") == (j == k)
        for j in markers
        for k in markers
    )
    checks.append(_result("clause_markers_form_antichain", antichain, pairs=m * m))

    dropped_in_template = all(
        subtree_iso(t, instance.template, "unordered")
        for t in instance.dropped_templates
    )
    checks.append(_result("dropped_templates_contained_in_template", dropped_in_template))

    dropped_not_in_formula = all(
        not subtree_iso(t, instance.formula_tree, "unordered")
        for t in instance.dropped_templates
    )
    checks.append(_result("dropped_templates_avoid_formula_tree", dropped_not_in_formula))

    rng = random.Random(seed)
    assignments: list[dict[int, bool]] = [
        {i: True for i in range(1, cnf.n + 1)},
        {i: False for i in range(1, cnf.n + 1)},
    ]
    for clause in cnf.clauses:
        falsifier = _clause_falsifier(clause, cnf.n)
        if falsifier is not None:
            assignments.append(falsifier)
    while len(assignments) < samples:
        assignments.append({i: rng.random() < 0.5 for i in range(1, cnf.n + 1)})

    mismatches = 0
    frequency_ok = True
    for alpha in assignments:
        restricted = assignment_tree(cnf, alpha)
        if not (
            subtree_iso(restricted, instance.formula_tree, "unordered")
            and subtree_iso(restricted, instance.template, "unordered")
        ):
            frequency_ok = False
        embeds = any(
            subtree_iso(restricted, dropped, "unordered")
            for dropped in instance.dropped_templates
        )
        if embeds != (not cnf.satisfies(alpha)):
            mismatches += 1
    checks.append(
        _result(
            "assignment_trees_are_two_frequent", frequency_ok, assignments=len(assignments)
        )
    )
    checks.append(
        _result(
            "assignment_embedding_matches_clause_evaluation",
            mismatches == 0,
            assignments=len(assignments),
            mismatches=mismatches,
        )
    )
    return VerifyReport("sat", checks)


def _verify_itemset(instance: ItemsetGadget) -> VerifyReport:
    db = instance.transactions
    n = instance.n
    checks = []

    pool = list(dict.fromkeys(db.itemsets + instance.solution_itemsets))
    embedding_ok = all(
        subtree_iso(vertexset_to_tree(a, n), vertexset_to_tree(b, n), "ordered") == (a <= b)
        for a in pool
        for b in pool
    )
    checks.append(_result("containment_mirrors_subset_order", embedding_ok, pairs=len(pool) ** 2))

    spare = spare_row_tree(n)
    spare_ok = all(
        not subtree_iso(spare, vertexset_to_tree(x, n), "ordered")
        for x in db.itemsets
        if len(x) < n - 1
    )
    checks.append(_result("spare_tree_avoids_small_transactions", spare_ok))

    maximal_sets = maximal_frequent_itemsets(db, instance.theta)
    oversized = [s for s in maximal_sets if len(s) >= n - 1]
    if oversized:
        checks.append(
            _result("no_frequent_itemset_near_full_width", False, oversized=len(oversized))
        )
        checks.append(CheckResult("maximal_trees_match_maximal_itemsets", "skip"))
        return VerifyReport("itemset", checks)
    checks.append(_result("no_frequent_itemset_near_full_width", True))

    expected = {canonical_form(vertexset_to_tree(s, n), "ordered") for s in maximal_sets}
    expected.add(canonical_form(spare, "ordered"))
    actual = set(brute_maximal(instance.dataset, instance.theta).keys())
    checks.append(
        _result(
            "maximal_trees_match_maximal_itemsets",
            actual == expected,
            maximal_itemsets=len(maximal_sets),
            maximal_trees=len(actual),
        )
    )
    return VerifyReport("itemset", checks)


def verify_gadget(
    kind: str,
    instance: DualGadget | SatGadget | ItemsetGadget,
    seed: int = 0,
    samples: int = 50,
) -> VerifyReport:
    """Replay the defining facts of a gadget family on ``instance``."""
    if kind == "dual":
        assert isinstance(instance, DualGadget)
        return _verify_dual(instance)
    if kind == "sat":
        assert isinstance(instance, SatGadget)
        return _verify_sat(instance, seed=seed, samples=samples)
    if kind == "itemset":
        assert isinstance(instance, ItemsetGadget)
        return _verify_itemset(instance)
    raise ValueError(f"unknown gadget kind {kind!r}")
