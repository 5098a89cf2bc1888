import random
import warnings
from itertools import combinations

import pytest

from shrubmine import (
    ConstraintError,
    FormatError,
    Hypergraph,
    SizeGuardError,
    brute_mis,
    serialize_tree,
    subtree_iso,
)
from shrubmine.gadgets import (
    CnfFormula,
    TransactionDb,
    assignment_tree,
    clause_marker_tree,
    edge_tree,
    format_dimacs,
    gen_dualization_instance,
    gen_itemset_instance,
    marker_bundle_tree,
    maximal_frequent_itemsets,
    parse_dimacs,
    parse_hypergraph,
    parse_transactions,
    sat_gadget,
    spare_row_tree,
    tree_to_vertexset,
    variable_gadget_tree,
    verify_gadget,
    vertexset_to_tree,
)

from reference import (
    cyclic_34_cnf,
    random_34_cnf,
    reference_assignment_tree,
    reference_sat_dataset,
    reference_variable_gadget,
    unsat_34_cnf,
)


def all_subsets(universe):
    items = sorted(universe)
    for k in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, k))


def statuses(report):
    return [(c.name, c.status) for c in report.checks]


def random_relabelling(rng, n):
    return dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))


def quiet_sat_gadget(cnf):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sat_gadget(cnf)


# ---------------------------------------------------------------------------
# input formats


def test_parse_dimacs_roundtrip():
    cnf = CnfFormula(3, ((1, -2), (2, 3, -1)))
    assert parse_dimacs(format_dimacs(cnf)) == cnf
    with pytest.raises(FormatError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_cnf_validation():
    with pytest.raises(ValueError):
        CnfFormula(2, ((),))
    with pytest.raises(ValueError):
        CnfFormula(2, ((3,),))
    problems = CnfFormula(2, ((1, 2), (1,), (1,), (1,), (1,))).three_four_violations()
    assert any("literal 1" in p for p in problems)
    assert CnfFormula(4, ((1, 2, 3, 4),)).three_four_violations()


def test_parse_transactions():
    db = parse_transactions("# n=5\n1 3\n\n2\n")
    assert db.n == 5
    assert db.itemsets == (frozenset({1, 3}), frozenset({2}))
    assert parse_transactions("2 7\n").n == 7
    with pytest.raises(FormatError):
        parse_transactions("1 x\n")


def test_parse_hypergraph():
    h = parse_hypergraph("# comment\n4 2\n1 2\n3 4\n")
    assert h == Hypergraph.from_edges(4, [{1, 2}, {3, 4}])
    with pytest.raises(FormatError):
        parse_hypergraph("4 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_hypergraph("")


# ---------------------------------------------------------------------------
# satisfiability family


def test_clause_marker_shape():
    t = clause_marker_tree(3, 2)
    kids = t.children[t.root]
    assert len(kids) == 2
    assert all(len(t.children[c]) == 2 for c in kids)
    assert t.height == 2
    with pytest.raises(ValueError):
        clause_marker_tree(3, 4)


def test_clause_marker_vertex_count():
    for m in range(1, 7):
        for j in range(1, m + 1):
            assert clause_marker_tree(m, j).size == 1 + (m - j + 1) * (1 + j)


def test_clause_markers_form_antichain():
    for m in range(1, 9):
        markers = [clause_marker_tree(m, j) for j in range(1, m + 1)]
        for j, a in enumerate(markers):
            for k, b in enumerate(markers):
                assert subtree_iso(a, b, "unordered") == (j == k)


def test_marker_bundle_shapes():
    full = marker_bundle_tree(3)
    assert len(full.children[full.root]) == 3
    assert full.height == 3
    dropped = marker_bundle_tree(3, omit=2)
    assert len(dropped.children[dropped.root]) == 2
    for j in range(1, 4):
        assert subtree_iso(marker_bundle_tree(3, omit=j), full, "unordered")


def test_variable_gadget_branches():
    cnf = CnfFormula(3, ((1, 2), (-1, 3), (1, -3)))
    absent = variable_gadget_tree(2, cnf)  # variable 2 only in clause 1
    pos, neg = absent.children[absent.root]
    assert len(absent.children[pos]) == 1 and len(absent.children[neg]) == 0
    unused = CnfFormula(3, ((1, 2),))
    gadget = variable_gadget_tree(3, unused)
    pos, neg = gadget.children[gadget.root]
    assert absent.height <= 4
    assert len(gadget.children[pos]) == 0 and len(gadget.children[neg]) == 0
    only_pos = variable_gadget_tree(1, cnf)
    pos, neg = only_pos.children[only_pos.root]
    assert len(only_pos.children[pos]) == 2 and len(only_pos.children[neg]) == 1


def test_variable_gadget_branch_width_bounded_by_occurrence_rule():
    cnf = cyclic_34_cnf()
    for i in range(1, cnf.n + 1):
        g = variable_gadget_tree(i, cnf)
        for side in g.children[g.root]:
            assert len(g.children[side]) <= 4


def test_sat_gadget_rejects_non_34():
    bad = CnfFormula(4, ((1, 2, 3, 4),))
    with pytest.raises(ConstraintError):
        sat_gadget(bad)
    with pytest.raises(ConstraintError, match="no clauses"):
        sat_gadget(CnfFormula(0, ()))


def test_sat_gadget_warns_when_small():
    small = CnfFormula(3, ((1, 2), (-1, 3), (2, -3)))
    with pytest.warns(UserWarning):
        sat_gadget(small)


def test_sat_gadget_structure_and_facts():
    cnf = cyclic_34_cnf()
    gadget = sat_gadget(cnf)
    assert len(gadget.dataset) == len(cnf.clauses) + 2
    assert gadget.theta == 2
    assert gadget.template.height == 5
    assert gadget.formula_tree.height == 5
    for dropped in gadget.dropped_templates:
        assert dropped.height == 5
        assert subtree_iso(dropped, gadget.template, "unordered")
        assert not subtree_iso(dropped, gadget.formula_tree, "unordered")


def test_assignment_tree_requires_total_assignment():
    cnf = cyclic_34_cnf()
    with pytest.raises(ValueError):
        assignment_tree(cnf, {1: True})


def test_assignment_tree_two_frequency():
    cnf = cyclic_34_cnf()
    gadget = sat_gadget(cnf)
    rng = random.Random(0)
    for _ in range(10):
        alpha = {i: rng.random() < 0.5 for i in range(1, cnf.n + 1)}
        restricted = assignment_tree(cnf, alpha)
        assert subtree_iso(restricted, gadget.formula_tree, "unordered")
        assert subtree_iso(restricted, gadget.template, "unordered")


def test_all_false_assignment_fits_positive_clause_template():
    cnf = cyclic_34_cnf()
    gadget = sat_gadget(cnf)
    all_false = {i: False for i in range(1, cnf.n + 1)}
    restricted = assignment_tree(cnf, all_false)
    # every clause is positive, so the all-false tree carries no markers and
    # fits any dropped template
    assert subtree_iso(restricted, gadget.dropped_templates[0], "unordered")


def test_assignment_criterion_small_formula_exhaustive():
    cnf = CnfFormula(12, ((1, 2, 3), (-1, 2), (4, 5), (-2, -4, 6), (7, 8), (9, -10), (10, 11), (11, 12)))
    assert not cnf.three_four_violations()
    with pytest.warns(UserWarning):
        gadget = sat_gadget(CnfFormula(cnf.n, cnf.clauses[:3]))
    small = CnfFormula(cnf.n, cnf.clauses[:3])
    rng = random.Random(1)
    for _ in range(40):
        alpha = {i: rng.random() < 0.5 for i in range(1, small.n + 1)}
        restricted = assignment_tree(small, alpha)
        embeds = any(
            subtree_iso(restricted, d, "unordered") for d in gadget.dropped_templates
        )
        assert embeds == (not small.satisfies(alpha))


def test_verify_sat_passes_on_fixed_instances():
    for cnf, seed in ((cyclic_34_cnf(), 0), (unsat_34_cnf(), 1)):
        report = verify_gadget("sat", sat_gadget(cnf), seed=seed, samples=12)
        assert report.passed, report.lines()


def test_verify_sat_unsat_formula_every_assignment_fits_some_dropped():
    cnf = unsat_34_cnf()
    gadget = sat_gadget(cnf)
    rng = random.Random(2)
    for _ in range(12):
        alpha = {i: rng.random() < 0.5 for i in range(1, cnf.n + 1)}
        restricted = assignment_tree(cnf, alpha)
        assert any(
            subtree_iso(restricted, d, "unordered") for d in gadget.dropped_templates
        )


def test_sat_builders_match_the_vertex_by_vertex_reference():
    rng = random.Random(22)
    for _ in range(200):
        cnf = random_34_cnf(rng, 5, 7)
        expected = reference_sat_dataset(cnf)
        assert [serialize_tree(t) for t in quiet_sat_gadget(cnf).dataset.trees] == [
            serialize_tree(t) for t in expected
        ]
        for i in range(1, cnf.n + 1):
            assert serialize_tree(variable_gadget_tree(i, cnf)) == serialize_tree(
                reference_variable_gadget(i, cnf)
            )
        for _ in range(3):
            alpha = {i: rng.random() < 0.5 for i in range(1, cnf.n + 1)}
            assert serialize_tree(assignment_tree(cnf, alpha)) == serialize_tree(
                reference_assignment_tree(cnf, alpha)
            )


def test_verify_sat_statuses_survive_renaming_flipping_and_clause_order():
    rng = random.Random(7)
    for case in range(60):
        cnf = random_34_cnf(rng, 6, 6)
        rename = random_relabelling(rng, cnf.n)
        flip = {v: rng.choice((-1, 1)) for v in range(1, cnf.n + 1)}
        image = [
            tuple(flip[abs(lit)] * (rename[lit] if lit > 0 else -rename[-lit]) for lit in clause)
            for clause in cnf.clauses
        ]
        moved = CnfFormula(cnf.n, tuple(rng.sample(image, len(image))))
        samples = rng.randint(1, 12)
        assert statuses(verify_gadget("sat", quiet_sat_gadget(cnf), seed=case, samples=samples)) == (
            statuses(verify_gadget("sat", quiet_sat_gadget(moved), seed=case, samples=samples))
        ), (cnf, moved)


# ---------------------------------------------------------------------------
# dualization family


def test_edge_tree_leaf_positions():
    t = edge_tree({1, 2}, 4)
    kids = t.children[t.root]
    assert len(kids) == 5
    leaf_positions = [i + 1 for i, c in enumerate(kids) if len(t.children[c]) == 0]
    assert leaf_positions == [1, 3]
    assert all(len(t.children[c]) == 1 for i, c in enumerate(kids) if i + 1 not in (1, 3))


def test_dualization_instance_shapes():
    h = Hypergraph.from_edges(4, [{1, 2}, {3, 4}])
    inst = gen_dualization_instance(h)
    assert inst.dataset.mode == "ordered"
    assert len(inst.dataset) == 3
    s = inst.dataset.trees[0]
    assert len(s.children[s.root]) == 4
    w = inst.w_tree
    assert len(w.children[w.root]) == 3
    assert all(subtree_iso(w, t, "ordered") for t in inst.dataset.trees)


def test_dualization_rejects_universal_vertex():
    with pytest.raises(ConstraintError):
        gen_dualization_instance(Hypergraph.from_edges(3, [{1, 2}, {1, 3}]))
    with pytest.raises(ConstraintError):
        gen_dualization_instance(Hypergraph.from_edges(3, []))
    with pytest.raises(ConstraintError):
        gen_dualization_instance(Hypergraph.from_edges(0, []))


def test_verify_dual_example_counts():
    h = Hypergraph.from_edges(4, [{1, 2}, {3, 4}])
    report = verify_gadget("dual", gen_dualization_instance(h))
    assert report.passed, report.lines()
    counts = dict(report.checks[1].details)
    assert counts["independent_sets"] == 4
    assert counts["maximal_common_trees"] == 5


def test_verify_dual_statuses_survive_vertex_relabelling():
    rng = random.Random(8)
    verified = 0
    while verified < 18:
        n = rng.randint(1, 5)
        edges = [frozenset(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3)))) for _ in range(rng.randint(1, 4))]
        relabel = random_relabelling(rng, n)
        h = Hypergraph.from_edges(n, edges)
        moved = Hypergraph.from_edges(n, [frozenset(relabel[v] for v in e) for e in edges])
        assert brute_mis(moved) == {frozenset(relabel[v] for v in s) for s in brute_mis(h)}
        try:
            instance = gen_dualization_instance(h)
        except ConstraintError:
            with pytest.raises(ConstraintError):
                gen_dualization_instance(moved)
            continue
        assert statuses(verify_gadget("dual", instance)) == statuses(
            verify_gadget("dual", gen_dualization_instance(moved))
        ), (h, moved)
        verified += 1


def test_vertexset_roundtrip_exhaustive():
    for n in range(0, 7):
        for subset in all_subsets(range(1, n + 1)):
            assert tree_to_vertexset(vertexset_to_tree(subset, n), n) == subset
    with pytest.raises(ValueError):
        vertexset_to_tree({9}, 3)
    with pytest.raises(ValueError):
        tree_to_vertexset(vertexset_to_tree({1}, 3), 4)


def test_subset_containment_lemma_exhaustive():
    n = 5
    for u in all_subsets(range(1, n + 1)):
        for u_prime in all_subsets(range(1, n + 1)):
            encoded = vertexset_to_tree(u_prime, n)
            fits = subtree_iso(encoded, edge_tree(u, n), "ordered")
            assert (u <= u_prime) == (not fits)


# ---------------------------------------------------------------------------
# itemset family


def test_itemset_tree_shape():
    t = vertexset_to_tree({1, 3}, 3)
    kids = t.children[t.root]
    assert len(kids) == 3
    has_leaf = [len(t.children[c]) for c in kids]
    assert has_leaf == [1, 0, 1]


def test_itemset_order_embedding_exhaustive_small():
    n = 4
    subsets = list(all_subsets(range(1, n + 1)))
    for a in subsets:
        for b in subsets:
            assert subtree_iso(vertexset_to_tree(a, n), vertexset_to_tree(b, n), "ordered") == (
                a <= b
            )


def test_spare_tree_needs_wide_transactions():
    n = 5
    spare = spare_row_tree(n)
    assert spare.size == 2 * (n - 1) + 1
    rng = random.Random(3)
    for _ in range(40):
        x = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n - 2)))
        assert not subtree_iso(spare, vertexset_to_tree(x, n), "ordered")
    wide = frozenset(range(1, n))
    assert subtree_iso(spare, vertexset_to_tree(wide, n), "ordered")


def test_maximal_frequent_itemsets_brute():
    db = TransactionDb(4, tuple(map(frozenset, [{1, 2}, {1, 2, 3}, {2, 3}, {1}])))
    assert maximal_frequent_itemsets(db, 2) == {frozenset({1, 2}), frozenset({2, 3})}
    assert maximal_frequent_itemsets(db, 4) == {frozenset()}
    with pytest.raises(ValueError):
        maximal_frequent_itemsets(db, 0)
    with pytest.raises(SizeGuardError, match="^21 items exceeds the brute-force cap of 20$"):
        maximal_frequent_itemsets(TransactionDb(21, ()), 1)


def test_verify_itemset_statuses_survive_item_permutation():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [frozenset(rng.sample(range(1, n + 1), rng.randint(0, n))) for _ in range(rng.randint(1, 6))]
        theta = rng.randint(1, 3)
        permute = random_relabelling(rng, n)
        db = TransactionDb(n, tuple(rows))
        moved = TransactionDb(n, tuple(frozenset(permute[x] for x in row) for row in rows))
        maximal = maximal_frequent_itemsets(db, theta)
        moved_maximal = maximal_frequent_itemsets(moved, theta)
        assert moved_maximal == {frozenset(permute[x] for x in s) for s in maximal}
        reports = [
            verify_gadget("itemset", gen_itemset_instance(d, sorted(sets, key=sorted), theta))
            for d, sets in ((db, maximal), (moved, moved_maximal))
        ]
        assert statuses(reports[0]) == statuses(reports[1]), (db, moved, theta)


def test_gen_itemset_instance_layout():
    db = TransactionDb(3, (frozenset({1, 3}), frozenset({2})))
    inst = gen_itemset_instance(db, [frozenset({1, 3})], 2)
    assert inst.dataset.mode == "ordered"
    assert len(inst.dataset) == 4  # 2 transactions + 2 spare copies
    assert serialize_tree(inst.dataset.trees[0]) == "((())()(()))"
    spare_key = serialize_tree(inst.dataset.trees[-1])
    assert serialize_tree(inst.dataset.trees[-2]) == spare_key
    assert serialize_tree(inst.s_set[-1]) == spare_key


def test_verify_itemset_passes_and_guard_skips():
    db = TransactionDb(4, tuple(map(frozenset, [{1, 2}, {1, 2, 3}, {2, 3}, {1}])))
    inst = gen_itemset_instance(db, sorted(maximal_frequent_itemsets(db, 2), key=sorted), 2)
    report = verify_gadget("itemset", inst)
    assert report.passed, report.lines()

    oversized = TransactionDb(4, (frozenset({1, 2, 3}), frozenset({1, 2, 3})))
    inst2 = gen_itemset_instance(
        oversized, sorted(maximal_frequent_itemsets(oversized, 2), key=sorted), 2
    )
    report2 = verify_gadget("itemset", inst2)
    statuses = {c.name: c.status for c in report2.checks}
    assert statuses["no_frequent_itemset_near_full_width"] == "fail"
    assert statuses["maximal_trees_match_maximal_itemsets"] == "skip"


def test_verify_rejects_unknown_kind():
    with pytest.raises(ValueError):
        verify_gadget("frobnicate", None)
