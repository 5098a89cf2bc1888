import random

import pytest

from shrubmine import (
    Dataset,
    Hypergraph,
    SizeGuardError,
    all_patterns,
    brute_closed,
    brute_frequent,
    brute_maximal,
    brute_mct,
    brute_mis,
    canonical_form,
    maximal_common_tree,
    parse_tree,
    signature_leq,
    signature_of,
)

from shrubmine.oracle import _pattern_count, _rooted_pattern_keys

from reference import (
    definitional_maximal_closed,
    random_h2_dataset,
    random_repeated_sibling_tree,
    random_tree,
    root_aligned_shapes,
    tree_from_shape,
    whole_shape,
)


def unordered(*texts):
    return Dataset.from_trees([parse_tree(t) for t in texts], "unordered")


def test_all_patterns_examples():
    assert set(all_patterns(unordered("()")).patterns) == {"()"}
    assert set(all_patterns(unordered("((()))")).patterns) == {"()", "(())", "((()))"}
    assert set(all_patterns(unordered("(()())")).patterns) == {"()", "(())", "(()())"}


def test_all_patterns_counts_multiset_support():
    u = all_patterns(unordered("(())", "(())"))
    assert u.support["(())"] == 2
    assert u.support["()"] == 2


def test_rooted_pattern_keys_match_the_subset_enumeration():
    rng = random.Random(29)
    deduped = 0
    for case in range(200):
        if case % 2:
            tree = random_tree(rng, rng.randint(1, 14))
        else:
            pool = [random_tree(rng, rng.randint(1, 3)) for _ in range(3)]
            tree = random_repeated_sibling_tree(rng, 14, pool)
        for mode in ("ordered", "unordered"):
            keys = _rooted_pattern_keys(tree, mode)
            expected = {
                canonical_form(tree_from_shape(shape), mode)
                for shape in root_aligned_shapes(tree, mode)
            }
            assert keys == expected
            deduped += len(keys) < _pattern_count(tree)
    # the per-child dedupe acts on most cases
    assert deduped > 200


def test_size_guard_refuses_wide_trees():
    wide = parse_tree("(" + "()" * 30 + ")")
    with pytest.raises(SizeGuardError):
        all_patterns(Dataset.from_trees([wide], "unordered"), max_patterns=1000)
    big = parse_tree("(" + "()" * 40 + ")")
    with pytest.raises(SizeGuardError):
        all_patterns(Dataset.from_trees([big], "unordered"))


def test_brute_frequent_examples():
    ds = unordered("((()))", "((()()))")
    u = all_patterns(ds)
    assert brute_frequent(ds, 1, u) == u.patterns
    common = brute_frequent(ds, 2, u)
    mct_key = canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
    assert mct_key in common
    # the common patterns are exactly those dominated by the meet
    for key, tree in u.patterns.items():
        below = signature_leq(signature_of(tree), signature_of(parse_tree(mct_key)))
        assert (key in common) == below
    with pytest.raises(ValueError):
        brute_frequent(ds, 0)


def test_brute_frequent_antitone_in_theta():
    rng = random.Random(1)
    for _ in range(100):
        ds = random_h2_dataset(rng)
        u = all_patterns(ds)
        previous = None
        for theta in range(1, len(ds.trees) + 1):
            current = set(brute_frequent(ds, theta, u))
            if previous is not None:
                assert current <= previous
            previous = current


def test_brute_maximal_identical_copies():
    ds = unordered("((())(()))", "((())(()))")
    found = brute_maximal(ds, 2)
    assert set(found) == {"((())(()))"}


def test_maximal_always_closed():
    rng = random.Random(2)
    for _ in range(100):
        ds = random_h2_dataset(rng)
        u = all_patterns(ds)
        for theta in range(1, len(ds.trees) + 1):
            assert set(brute_maximal(ds, theta, u)) <= set(brute_closed(ds, theta, u))


def test_brute_closed_hand_example():
    ds = unordered("((()))", "((()()))")
    assert set(brute_closed(ds, 1)) == {"((()))", "((()()))"}
    assert set(brute_closed(ds, 2)) == {"((()))"}


def test_brute_mct_matches_algebra():
    rng = random.Random(3)
    for _ in range(200):
        ds = random_h2_dataset(rng)
        found = brute_mct(ds)
        assert len(found) == 1
        (key,) = found
        assert key == canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
    single = unordered("((())())")
    assert set(brute_mct(single)) == {"((())())"}
    with pytest.raises(ValueError):
        brute_mct(Dataset.from_trees([], "unordered"))


def test_ordered_universe_respects_child_order():
    ds = Dataset.from_trees([parse_tree("(()(()))")], "ordered")
    keys = set(all_patterns(ds).patterns)
    assert "(()(()))" in keys
    assert "((())())" not in keys


def test_brute_mis_examples():
    h = Hypergraph.from_edges(4, [{1, 2}, {3, 4}])
    assert brute_mis(h) == {
        frozenset({1, 3}),
        frozenset({1, 4}),
        frozenset({2, 3}),
        frozenset({2, 4}),
    }
    assert brute_mis(Hypergraph.from_edges(3, [])) == {frozenset({1, 2, 3})}
    singletons = Hypergraph.from_edges(3, [{1}, {2}, {3}])
    assert brute_mis(singletons) == {frozenset()}


def test_brute_mis_members_are_independent_and_incomparable():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 7)
        edges = []
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(3, n))
            edges.append(frozenset(rng.sample(range(1, n + 1), size)))
        h = Hypergraph.from_edges(n, edges)
        sets = brute_mis(h)
        for s in sets:
            assert not any(e <= s for e in h.edges)
            for other in sets:
                if other != s:
                    assert not (s < other or other < s)


def test_brute_mis_size_guard():
    with pytest.raises(SizeGuardError):
        brute_mis(Hypergraph.from_edges(25, [{1}]))


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [set()])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [{4}])


def test_common_patterns_are_subpatterns_of_the_meet():
    # frequent at full support == occurring within the unique mct
    rng = random.Random(5)
    for _ in range(80):
        ds = random_h2_dataset(rng)
        u = all_patterns(ds)
        k = len(ds.trees)
        commons = set(brute_frequent(ds, k, u))
        mct = maximal_common_tree(list(ds.trees))
        mct_universe = all_patterns(Dataset.from_trees([mct], "unordered"))
        assert commons == set(mct_universe.patterns)


def test_oracles_match_the_definitions():
    # the oracles look only at one-leaf superpatterns; the reference
    # compares against every occurring superpattern
    rng = random.Random(6)
    for i in range(120):
        if i % 2:
            ds = random_h2_dataset(rng, max_trees=5, max_vertices=9)
        else:
            trees = [random_tree(rng, rng.randint(1, 7)) for _ in range(rng.randint(1, 5))]
            ds = Dataset.from_trees(trees, "ordered")
        u = all_patterns(ds)

        def shapes(found):
            return {whole_shape(t, ds.mode) for t in found.values()}

        expected = definitional_maximal_closed(ds.trees, ds.mode)
        for theta, (maximal, closed) in expected.items():
            assert shapes(brute_maximal(ds, theta, u)) == maximal
            assert shapes(brute_closed(ds, theta, u)) == closed
        assert shapes(brute_mct(ds, u)) == expected[len(ds.trees)][0]
