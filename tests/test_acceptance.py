"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts and
timings as they complete.
"""

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

import pytest

from shrubmine import (
    Dataset,
    Hypergraph,
    MiningConfig,
    all_patterns,
    brute_closed,
    brute_maximal,
    brute_mct,
    brute_mis,
    canonical_form,
    enumerate_closed,
    maximal_common_tree,
    signature_leq,
    signature_of,
    subtree_iso,
    tree_from_signature,
)
from shrubmine.gadgets import (
    TransactionDb,
    gen_dualization_instance,
    gen_itemset_instance,
    maximal_frequent_itemsets,
    sat_gadget,
    spare_row_tree,
    verify_gadget,
    vertexset_to_tree,
)

from reference import (
    all_ordered_trees,
    all_unordered_trees,
    cyclic_34_cnf,
    naive_signature_leq,
    partitions,
    random_h2_dataset,
    random_signature,
    subtree_shapes,
    unsat_34_cnf,
    whole_shape,
)


def verdict(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


@dataclass
class MinerRun:
    theta: int
    keys: list[str]
    max_delay_seconds: float
    peak_stack_depth: int
    peak_live_candidates: int
    expected: set[str]


@dataclass
class Criterion1Data:
    runs: list[MinerRun] = field(default_factory=list)
    datasets: int = 0
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def criterion1_data() -> Criterion1Data:
    rng = random.Random(20250809)
    data = Criterion1Data()
    start = time.perf_counter()
    for _ in range(200):
        ds = random_h2_dataset(rng, min_trees=2, max_trees=6, max_vertices=12)
        data.datasets += 1
        universe = all_patterns(ds)
        for theta in range(1, len(ds.trees) + 1):
            keys: list[str] = []
            summary = enumerate_closed(
                ds, MiningConfig(theta=theta), lambda n: keys.append(n.canon)
            )
            data.runs.append(
                MinerRun(
                    theta=theta,
                    keys=keys,
                    max_delay_seconds=summary.max_delay_seconds,
                    peak_stack_depth=summary.peak_stack_depth,
                    peak_live_candidates=summary.peak_live_candidates,
                    expected=set(brute_closed(ds, theta, universe).keys()),
                )
            )
    data.elapsed = time.perf_counter() - start
    return data


def test_criterion_1_miner_matches_brute_closed(criterion1_data):
    data = criterion1_data
    assert data.datasets >= 200
    for run in data.runs:
        assert set(run.keys) == run.expected
    assert data.elapsed < 120, f"criterion 1 took {data.elapsed:.1f}s"
    verdict(
        1,
        "closed-miner oracle equivalence",
        f"{data.datasets} datasets, {len(data.runs)} runs, {data.elapsed:.1f}s",
    )


def test_criterion_2_unique_maximal_common_tree():
    rng = random.Random(2)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        ds = random_h2_dataset(rng, min_trees=1, max_trees=6, max_vertices=12)
        found = brute_mct(ds)
        assert len(found) == 1
        (key,) = found.keys()
        mct = maximal_common_tree(list(ds.trees))
        assert key == canonical_form(mct, "unordered")
        # every single-leaf extension stops being common (root aligned)
        from shrubmine import add_leaf

        for v in mct.nodes():
            if mct.depths[v] > 1:
                continue
            grown = signature_of(add_leaf(mct, v))
            assert any(
                not signature_leq(grown, signature_of(t)) for t in ds.trees
            )
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(2, "maximal common tree uniqueness", f"{checked} datasets, {elapsed:.1f}s")


def test_criterion_3_dominance_mirrors_containment_height_two():
    exact_h2 = [
        tree_from_signature(sig)
        for total in range(2, 8)
        for sig in partitions(total)
        if sig[0] >= 2
    ]
    assert all(t.size <= 8 and t.height == 2 for t in exact_h2)
    pairs = 0
    for a in exact_h2:
        for b in exact_h2:
            pairs += 1
            assert subtree_iso(a, b, "unordered") == signature_leq(
                signature_of(a), signature_of(b)
            )
    rng = random.Random(3)
    extra = 0
    while extra < 1000:
        sa = random_signature(rng, 19)
        sb = random_signature(rng, 19)
        if not sa or not sb or sa[0] < 2 or sb[0] < 2:
            continue
        a, b = tree_from_signature(sa), tree_from_signature(sb)
        assert subtree_iso(a, b, "unordered") == signature_leq(sa, sb)
        extra += 1
    verdict(3, "signature dominance vs containment", f"{pairs} exhaustive + {extra} random pairs")


def test_criterion_4_dominance_partial_order_laws():
    rng = random.Random(4)

    def related(base):
        out = list(base)
        for i in range(len(out)):
            if rng.random() < 0.5:
                out[i] += rng.randint(0, 2)
        if rng.random() < 0.4:
            out.append(rng.randint(1, 4))
        return tuple(sorted(out, reverse=True))

    reflexive = antisymmetric = transitive = 0
    for _ in range(1200):
        x = random_signature(rng, 9)
        y = related(x) if rng.random() < 0.7 else random_signature(rng, 10)
        z = related(y) if rng.random() < 0.7 else random_signature(rng, 11)
        assert signature_leq(x, x) and signature_leq(y, y) and signature_leq(z, z)
        reflexive += 1
        if signature_leq(x, y) and signature_leq(y, x):
            assert x == y
            antisymmetric += 1
        if signature_leq(x, y) and signature_leq(y, z):
            assert signature_leq(x, z)
            transitive += 1
        assert signature_leq(x, y) == naive_signature_leq(x, y)
    assert antisymmetric >= 50 and transitive >= 200
    verdict(
        4,
        "dominance partial-order laws",
        f"1200 triples ({antisymmetric} antisymmetry hits, {transitive} transitivity hits)",
    )


def test_criterion_5_engine_matches_embedding_oracle():
    start = time.perf_counter()
    checked = 0
    for mode, pool in (
        ("ordered", all_ordered_trees(8)),
        ("unordered", all_unordered_trees(8)),
    ):
        shapes = [whole_shape(t, mode) for t in pool]
        target_shapes = [subtree_shapes(t, mode) for t in pool]
        for i, pattern in enumerate(pool):
            pshape = shapes[i]
            for j, target in enumerate(pool):
                expected = pshape in target_shapes[j]
                assert subtree_iso(pattern, target, mode) == expected
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"criterion 5 took {elapsed:.1f}s"
    verdict(5, "embedding-oracle ground truth", f"{checked} pairs, {elapsed:.1f}s")


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    while True:
        n = rng.randint(3, 8)
        m = rng.randint(2, 6)
        edges = []
        for _ in range(m):
            size = rng.randint(2, min(3, n))
            edges.append(frozenset(rng.sample(range(1, n + 1), size)))
        h = Hypergraph.from_edges(n, edges)
        if not any(all(v in e for e in h.edges) for v in range(1, n + 1)):
            return h


def test_criterion_6_dualization_correspondence():
    rng = random.Random(6)
    start = time.perf_counter()
    for _ in range(50):
        h = _random_hypergraph(rng)
        inst = gen_dualization_instance(h)
        mis = brute_mis(h)
        expected = {
            canonical_form(vertexset_to_tree(i_set, h.n), "ordered") for i_set in mis
        }
        expected.add(canonical_form(inst.w_tree, "ordered"))
        actual = set(brute_mct(inst.dataset).keys())
        assert actual == expected
        assert len(actual) == len(mis) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 6 took {elapsed:.1f}s"
    verdict(6, "dualization gadget correspondence", f"50 hypergraphs, {elapsed:.1f}s")


def test_criterion_7_sat_gadget_lemma_checks():
    start = time.perf_counter()
    for cnf, seed in ((cyclic_34_cnf(), 7), (unsat_34_cnf(), 8)):
        assert cnf.n >= 11 and len(cnf.clauses) >= 11
        gadget = sat_gadget(cnf)
        report = verify_gadget("sat", gadget, seed=seed, samples=50)
        by_name = {c.name: c for c in report.checks}
        assert by_name["clause_markers_form_antichain"].status == "pass"
        assert by_name["dropped_templates_contained_in_template"].status == "pass"
        assert by_name["dropped_templates_avoid_formula_tree"].status == "pass"
        crit = by_name["assignment_embedding_matches_clause_evaluation"]
        assert crit.status == "pass"
        details = dict(crit.details)
        assert details["assignments"] >= 50 and details["mismatches"] == 0
        assert report.passed
    elapsed = time.perf_counter() - start
    verdict(7, "SAT gadget lemma checks", f"2 fixed (3,4)-CNFs, {elapsed:.1f}s")


def test_criterion_8_itemset_gadget_correspondence():
    start = time.perf_counter()
    n = 5
    subsets = [
        frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)
    ]
    pairs = 0
    for a in subsets:
        for b in subsets:
            assert subtree_iso(vertexset_to_tree(a, n), vertexset_to_tree(b, n), "ordered") == (
                a <= b
            )
            pairs += 1

    rng = random.Random(8)
    accepted = 0
    while accepted < 50:
        items = rng.randint(3, 8)
        rows = tuple(
            frozenset(x for x in range(1, items + 1) if rng.random() < 0.45)
            for _ in range(rng.randint(2, 8))
        )
        db = TransactionDb(items, rows)
        eta = rng.randint(1, 3)
        maximal_sets = maximal_frequent_itemsets(db, eta)
        if any(len(s) >= items - 1 for s in maximal_sets):
            continue
        inst = gen_itemset_instance(db, sorted(maximal_sets, key=sorted), eta)
        expected = {
            canonical_form(vertexset_to_tree(s, items), "ordered") for s in maximal_sets
        }
        expected.add(canonical_form(spare_row_tree(items), "ordered"))
        actual = set(brute_maximal(inst.dataset, eta).keys())
        assert actual == expected
        accepted += 1
    elapsed = time.perf_counter() - start
    verdict(
        8,
        "itemset gadget correspondence",
        f"{pairs} subset pairs + {accepted} transaction DBs, {elapsed:.1f}s",
    )


def test_criterion_9_streaming_contract(criterion1_data):
    # no duplicates anywhere in criterion 1's emission streams
    max_delay = 0.0
    for run in criterion1_data.runs:
        assert len(run.keys) == len(set(run.keys))
        max_delay = max(max_delay, run.max_delay_seconds)

    # engineered dataset with well over 100 closed patterns
    sigs = [sig for total in range(1, 13) for sig in partitions(total)][:120]
    assert len(sigs) == 120
    ds = Dataset.from_trees([tree_from_signature(s) for s in sigs], "unordered")
    emitted: list[str] = []
    summary = enumerate_closed(ds, MiningConfig(theta=1), lambda n: emitted.append(n.canon))
    assert summary.count >= 100
    assert len(emitted) == len(set(emitted))

    # working set is bounded by depth x pattern size, independent of count
    max_pattern = max(t.size for t in ds.trees)
    assert summary.peak_stack_depth <= len(ds.trees) + 1
    assert summary.peak_live_candidates <= summary.peak_stack_depth * (max_pattern + 1)
    for run in criterion1_data.runs:
        assert run.peak_stack_depth <= 7  # at most six trees per dataset
        assert run.peak_live_candidates <= run.peak_stack_depth * 13
    verdict(
        9,
        "streaming contract",
        f"max inter-solution delay {max_delay * 1000:.3f}ms; "
        f"engineered run: {summary.count} solutions, peak depth "
        f"{summary.peak_stack_depth}, peak live {summary.peak_live_candidates}",
    )
