import random
import zlib
from itertools import combinations_with_replacement

import pytest

from shrubmine import (
    ConstraintError,
    Dataset,
    EmptySupportError,
    MiningConfig,
    RootPatternError,
    SearchNode,
    SupportSet,
    all_patterns,
    brute_closed,
    canonical_form,
    closure,
    enumerate_closed,
    is_closed,
    maximal_common_tree,
    neighbors,
    parent_of,
    parse_tree,
    pattern_support,
    serialize_tree,
    signature_leq,
    signature_of,
    signatures_meet,
    tree_equal,
    tree_from_signature,
)
from shrubmine.mining import (
    _corner_rows,
    _extensions,
    _parent_sig,
    _support_index,
    _support_set,
)

from reference import (
    meet_closed,
    partitions,
    random_h2_dataset,
    random_shrub_signatures,
    shuffled_children,
)


def sig_dataset(*sigs):
    return Dataset.from_trees([tree_from_signature(s) for s in sigs], "unordered")


def mine(dataset, theta, **kwargs):
    got = []
    summary = enumerate_closed(
        dataset, MiningConfig(theta=theta, **kwargs), lambda n: got.append(n)
    )
    return got, summary


def test_closure_examples():
    ds = sig_dataset((2,), (3,))
    single = parse_tree("()")
    assert serialize_tree(closure(single, ds)) == "((()))"
    # a closed pattern is its own fixpoint
    mct = maximal_common_tree(list(ds.trees))
    assert tree_equal(closure(mct, ds), mct, "unordered")


def test_closure_idempotent_and_support_preserving():
    rng = random.Random(1)
    for _ in range(200):
        ds = random_h2_dataset(rng)
        probe = tree_from_signature(signature_of(rng.choice(ds.trees)))
        if pattern_support(probe, ds).count == 0:
            continue
        closed_once = closure(probe, ds)
        assert tree_equal(closure(closed_once, ds), closed_once, "unordered")
        assert pattern_support(closed_once, ds) == pattern_support(probe, ds)
        assert signature_leq(signature_of(probe), signature_of(closed_once))


def test_closure_empty_support_errors():
    ds = sig_dataset((2,))
    with pytest.raises(EmptySupportError):
        closure(tree_from_signature((5, 5)), ds)
    with pytest.raises(EmptySupportError):
        is_closed(tree_from_signature((5, 5)), ds)


def test_is_closed_examples():
    ds = sig_dataset((3,), (3,))
    assert is_closed(tree_from_signature((3,)), ds)
    # strictly below a dataset tree with the same support: not closed
    assert not is_closed(tree_from_signature((2,)), ds)


def test_parent_of_single_candidate_is_root():
    ds = sig_dataset((2,), (3,), (4,))
    pattern = closure(tree_from_signature((3,)), ds)  # supported by (3) and (4)
    assert pattern_support(pattern, ds).indices == (1, 2)
    root = maximal_common_tree(list(ds.trees))
    assert tree_equal(parent_of(pattern, ds), root, "unordered")
    with pytest.raises(RootPatternError):
        parent_of(root, ds)


def test_parent_chains_reach_root_with_growing_support():
    rng = random.Random(2)
    for _ in range(100):
        ds = random_h2_dataset(rng)
        universe = all_patterns(ds)
        closed = brute_closed(ds, 1, universe)
        root_key = canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
        for key, tree in closed.items():
            steps = 0
            current = tree
            while canonical_form(current, "unordered") != root_key:
                nxt = parent_of(current, ds)
                assert (
                    pattern_support(nxt, ds).count > pattern_support(current, ds).count
                )
                current = nxt
                steps += 1
                assert steps <= len(ds.trees)


def test_parent_of_deterministic():
    rng = random.Random(3)
    for _ in range(50):
        ds = random_h2_dataset(rng)
        root_key = canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
        for tree in ds.trees:
            pattern = closure(tree, ds)
            if canonical_form(pattern, "unordered") == root_key:
                continue
            a = canonical_form(parent_of(pattern, ds), "unordered")
            b = canonical_form(parent_of(pattern, ds), "unordered")
            assert a == b


def test_neighbors_basic_properties():
    ds = sig_dataset((2,), (3,))
    root = maximal_common_tree(list(ds.trees))
    out = neighbors(root, ds, theta=1)
    assert [serialize_tree(t) for t in out] == ["((()()))"]
    assert neighbors(root, ds, theta=2) == []
    # a singleton-support dataset tree that is vertex-maximal has no neighbors
    big = closure(tree_from_signature((3,)), ds)
    assert neighbors(big, ds, theta=1) == []
    for tree in ds.trees:
        assert len(neighbors(tree, ds, 1)) <= tree.size
    with pytest.raises(ValueError):
        neighbors(root, ds, 0)


def test_every_forest_child_appears_among_neighbors():
    rng = random.Random(4)
    for _ in range(80):
        ds = random_h2_dataset(rng, max_trees=5, max_vertices=9)
        universe = all_patterns(ds)
        for theta in range(1, len(ds.trees) + 1):
            closed = brute_closed(ds, theta, universe)
            root_key = canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
            by_parent: dict[str, set[str]] = {}
            for key, tree in closed.items():
                if key == root_key:
                    continue
                pkey = canonical_form(parent_of(tree, ds), "unordered")
                by_parent.setdefault(pkey, set()).add(key)
            for pkey, child_keys in by_parent.items():
                parent_tree = closed[pkey]
                neighbor_keys = {
                    canonical_form(t, "unordered")
                    for t in neighbors(parent_tree, ds, theta)
                }
                assert child_keys <= neighbor_keys


def test_enumerate_examples():
    ds = sig_dataset((2,), (3,))
    got, _ = mine(ds, 1)
    assert sorted(n.canon for n in got) == ["((()()))", "((()))"]
    got, _ = mine(ds, 2)
    assert [n.canon for n in got] == ["((()))"]
    # theta = dataset size always yields exactly the dataset closure
    rng = random.Random(5)
    for _ in range(50):
        ds = random_h2_dataset(rng)
        got, _ = mine(ds, len(ds.trees))
        assert [n.canon for n in got] == [
            canonical_form(maximal_common_tree(list(ds.trees)), "unordered")
        ]


def test_enumerate_theta_beyond_dataset_is_empty():
    ds = sig_dataset((2,), (3,))
    got, summary = mine(ds, 3)
    assert got == [] and summary.count == 0
    empty = Dataset.from_trees([], "unordered")
    got, summary = mine(empty, 1)
    assert got == [] and summary.count == 0


def test_enumerate_argument_and_constraint_errors():
    ds = sig_dataset((2,))
    with pytest.raises(ValueError):
        enumerate_closed(ds, MiningConfig(theta=0))
    tall = Dataset.from_trees([parse_tree("(((())))")], "unordered")
    with pytest.raises(ConstraintError) as err:
        enumerate_closed(tall, MiningConfig(theta=1))
    assert "tree 0" in str(err.value)
    ordered = Dataset.from_trees([parse_tree("(())")], "ordered")
    for theta in (1, 0):  # a bad dataset is reported before a bad theta
        with pytest.raises(ConstraintError):
            enumerate_closed(ordered, MiningConfig(theta=theta))
    # the wrappers memoise the dataset's validation, but never a failed one
    for bad in (tall, ordered, tall):
        for call in (closure, is_closed, parent_of, pattern_support):
            with pytest.raises(ConstraintError):
                call(parse_tree("()"), bad)
        with pytest.raises(ConstraintError):
            neighbors(parse_tree("()"), bad, 1)


def test_enumerate_respects_limit():
    ds = sig_dataset((2,), (3,), (4,), (2, 2))
    full, _ = mine(ds, 1)
    assert len(full) >= 3
    got, summary = mine(ds, 1, max_solutions=2)
    assert len(got) == 2 and summary.count == 2
    assert [n.canon for n in got] == [n.canon for n in full[:2]]
    got, summary = mine(ds, 1, max_solutions=0)
    assert got == [] and summary.count == 0
    with pytest.raises(ValueError):
        mine(ds, 1, max_solutions=-1)


def test_minimal_parent_rule_counterexample_is_covered():
    # With a minimal-candidate parent rule the (2,2) pattern is unreachable:
    # its parent would be the star, whose neighbor closures skip it.
    ds = sig_dataset((2, 2), (3, 1), (1, 1))
    got, _ = mine(ds, 1)
    keys = sorted(n.canon for n in got)
    assert canonical_form(tree_from_signature((2, 2)), "unordered") in keys
    assert keys == sorted(brute_closed(ds, 1).keys())


def test_oracle_equivalence_random():
    rng = random.Random(6)
    for _ in range(120):
        ds = random_h2_dataset(rng)
        universe = all_patterns(ds)
        for theta in range(1, len(ds.trees) + 1):
            got, _ = mine(ds, theta)
            keys = [n.canon for n in got]
            assert len(keys) == len(set(keys))
            assert set(keys) == set(brute_closed(ds, theta, universe).keys())


def test_emissions_are_closed_frequent_and_parent_sound():
    rng = random.Random(7)
    for _ in range(60):
        ds = random_h2_dataset(rng)
        theta = rng.randint(1, len(ds.trees))
        got, _ = mine(ds, theta)
        root_key = got[0].canon
        assert root_key == canonical_form(
            maximal_common_tree(list(ds.trees)), "unordered"
        )
        emitted = {n.canon for n in got}
        for node in got:
            assert is_closed(node.pattern, ds)
            assert node.support.count >= theta
            assert pattern_support(node.pattern, ds) == node.support
            if node.canon != root_key:
                parent = parent_of(node.pattern, ds)
                pkey = canonical_form(parent, "unordered")
                assert pkey in emitted
                assert (
                    pattern_support(parent, ds).count > node.support.count
                )


def test_run_to_run_determinism():
    rng = random.Random(8)
    for _ in range(20):
        ds = random_h2_dataset(rng)
        first, _ = mine(ds, 1)
        second, _ = mine(ds, 1)
        assert [n.canon for n in first] == [n.canon for n in second]


def test_emission_order_is_pinned():
    # CRC-32 of the newline-joined canon stream: the emission order, not
    # only the set, is part of the contract, so changing it means re-pinning.
    def stream_crc(ds, thetas):
        keys = []
        for theta in thetas:
            got, _ = mine(ds, theta)
            keys.extend(n.canon for n in got)
        return len(keys), zlib.crc32("\n".join(keys).encode())

    sigs = [sig for total in range(1, 13) for sig in partitions(total)][:120]
    assert stream_crc(sig_dataset(*sigs), [1]) == (120, 2944552256)
    ds = random_h2_dataset(random.Random(10), min_trees=10, max_trees=10, max_vertices=16)
    assert stream_crc(ds, range(1, len(ds.trees) + 1)) == (72, 4261327507)


def _bench_contents():
    """The seed-1 contents of the bench mine workloads with their theta:
    mine-dup's duplicate-heavy shrubs and mine-distinct's first 220
    partitions (by total, then largest part first)."""
    dup = random_shrub_signatures(random.Random(1), 150, width=8, fanout=4, dup=0.5)
    distinct = [sig for total in range(1, 13) for sig in partitions(total)][:220]
    return [(dup, 5), (distinct, 1)]


def test_bench_scale_streams_are_pinned():
    # The CLI stdout of both bench mine workloads at seed 1: CRC-32 of the
    # newline-terminated canon stream, equal to bench/record.json's
    # stdout_crc32 pins, so a changed emission order fails here first.
    pins = [(261, 0xA15E52E6), (220, 0xCBBA2382)]
    for (sigs, theta), pin in zip(_bench_contents(), pins):
        got, _ = mine(sig_dataset(*sigs), theta)
        stream = "".join(n.canon + "\n" for n in got)
        assert (len(got), zlib.crc32(stream.encode())) == pin


def _assert_matches_meet_fold(sigs, theta):
    got, _ = mine(sig_dataset(*sigs), theta)
    emitted = [n.sig for n in got]
    assert len(emitted) == len(set(emitted))
    assert {n.sig: n.support.count for n in got} == meet_closed(sigs, theta)


def test_miner_matches_meet_fold_on_small_multisets():
    # every multiset of 1 to 3 of the 19 signatures with at most 5 cells,
    # at every theta: 4389 cases
    small = [sig for total in range(6) for sig in partitions(total)]
    assert len(small) == 19
    cases = 0
    for k in (1, 2, 3):
        for sigs in combinations_with_replacement(small, k):
            for theta in range(1, k + 1):
                _assert_matches_meet_fold(list(sigs), theta)
                cases += 1
    assert cases == 4389


def test_miner_matches_meet_fold_on_bench_contents():
    for sigs, theta in _bench_contents():
        _assert_matches_meet_fold(sigs, theta)


def _row_rule_cases():
    rng = random.Random(11)
    for _ in range(60):
        yield random_shrub_signatures(rng, rng.randint(1, 12), width=4, fanout=3, dup=0.5)
    sigs = [sig for total in range(1, 9) for sig in partitions(total)]
    for _ in range(20):
        rng.shuffle(sigs)
        yield sigs[: rng.randint(1, 40)]


def test_row_rules_match_meet_and_dominance():
    # Walks every closed theta-frequent node through one-leaf extensions,
    # with a visited set instead of the parent rule, and checks the miner's
    # mask routines on every extension and candidate against their
    # definitions: the one-cell support mask against dominance over the
    # node's supporters, the mask closure against the meet of the
    # supporters, and the walk of the parent rule against the tuple-largest
    # meet.
    decided = 0
    for case in _row_rule_cases():
        ds = sig_dataset(*case)
        index = _support_index(ds)
        sigs = index.sigs
        for theta in range(1, len(sigs) + 1):
            root = (signatures_meet(sigs), index.full)
            todo, seen = [root], {root[0]}
            while todo:
                sig, mask = todo.pop()
                supporters = _support_set(mask).indices
                assert index.support(sig) == mask
                padded = sig + (0,)
                for row in _corner_rows(sig):
                    ext = padded[:row] + (padded[row] + 1,) + sig[row + 1 :]
                    dominating = [i for i in supporters if signature_leq(ext, sigs[i])]
                    sup = mask & index.at_least(row, padded[row] + 1)
                    assert _support_set(sup).indices == tuple(dominating)
                    if dominating:
                        meet = signatures_meet([sigs[i] for i in dominating])
                        assert index.closure(sup) == meet
                for child, child_mask in _extensions(index, sig, mask, theta):
                    is_parent = _parent_sig(child, child_mask, sigs) == sig
                    assert index.is_parent(sig, child, child_mask) == is_parent
                    decided += 1
                    if child not in seen:
                        seen.add(child)
                        todo.append((child, child_mask))
    assert decided > 5000


def test_row_index_shares_entries_between_equal_rows():
    # One entry per run of rows in which no tree's entry drops, not one per
    # row: seven entries for these four trees of up to 200000 rows.
    text = [
        "(" + "()" * 200000 + ")",
        "(" + "(()())" * 1000 + "()" * 50000 + ")",
        "((()())()())",
        "(" + "(())" * 30000 + ")",
    ]
    ds = Dataset.from_trees([parse_tree(t) for t in text], "unordered")
    index = _support_index(ds)
    sigs = index.sigs
    assert index.starts == [0, 1, 3, 1000, 30000, 51000, 200000]
    assert len(index.spans) == len(index.starts)
    for row in (0, 1, 2, 3, 999, 1000, 29999, 30000, 50999, 51000, 199999, 200000, 200001):
        column = [s[row] if row < len(s) else 0 for s in sigs]
        for width in range(5):
            expected = sum(1 << i for i, x in enumerate(column) if x >= width)
            assert index.at_least(row, width) == expected
    got, _ = mine(ds, 1)
    assert len(got) == 9
    # the parent walk against the parent rule's definition on every emitted
    # node and every candidate parent, where an index entry spans up to
    # 149000 rows
    for child in got[1:]:
        mask = sum(1 << i for i in child.support.indices)
        parent = _parent_sig(child.sig, mask, sigs)
        assert [index.is_parent(n.sig, child.sig, mask) for n in got] == [
            n.sig == parent for n in got
        ]


def test_equal_datasets_share_one_index():
    # A dataset hashes once, by value: equal datasets built apart hash
    # equal and find one cached index.
    text = ["((())())", "(()()())", "((()))"]
    a, b = (Dataset.from_trees([parse_tree(t) for t in text], "unordered") for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert vars(a)["_hash"] == hash(a)
    index = _support_index(a)
    hits = _support_index.cache_info().hits
    assert _support_index(b) is index
    assert _support_index.cache_info().hits == hits + 1


def test_stream_ignores_tree_and_child_order():
    # The emission order depends on the dataset only as a multiset of
    # unordered trees: shuffling the trees and every vertex's children
    # leaves the canon stream, the support sizes and the summary unchanged.
    rng = random.Random(12)
    cases = [random_h2_dataset(rng, max_trees=8) for _ in range(40)]
    cases += [
        sig_dataset(*random_shrub_signatures(rng, 12, width=4, fanout=3, dup=0.5))
        for _ in range(10)
    ]
    for ds in cases:
        for _ in range(3):
            trees = [shuffled_children(rng, t) for t in ds.trees]
            rng.shuffle(trees)
            shuffled = Dataset.from_trees(trees, "unordered")
            for theta in range(1, len(trees) + 1):
                (a, sa), (b, sb) = mine(ds, theta), mine(shuffled, theta)
                assert [(n.canon, n.support.count) for n in a] == [
                    (n.canon, n.support.count) for n in b
                ]
                assert (sa.count, sa.peak_stack_depth, sa.peak_live_candidates) == (
                    sb.count,
                    sb.peak_stack_depth,
                    sb.peak_live_candidates,
                )
