import random

import pytest

from shrubmine import (
    ConstraintError,
    add_leaf,
    canonical_form,
    make_signature,
    maximal_common_tree,
    parse_tree,
    serialize_tree,
    signature_leq,
    signature_of,
    signatures_meet,
    subtree_iso,
    tree_equal,
    tree_from_signature,
)
from shrubmine.signatures import signature_key

from reference import (
    naive_signature_leq,
    random_exact_h2_tree,
    random_h2_tree,
    random_signature,
)


def test_signature_of_examples():
    # children carrying 2 and 3 leaves
    t = parse_tree("((()())(()()()))")
    assert signature_of(t) == (4, 3)
    star3 = parse_tree("(()()())")
    assert signature_of(star3) == (1, 1, 1)
    assert signature_of(parse_tree("()")) == ()


def test_signature_of_rejects_tall_trees():
    with pytest.raises(ConstraintError):
        signature_of(parse_tree("(((())))"))


def test_tree_from_signature_examples():
    t = tree_from_signature((2, 2))
    assert serialize_tree(t) == "((())(()))"
    assert serialize_tree(tree_from_signature(())) == "()"


def test_signature_roundtrip():
    rng = random.Random(2)
    for _ in range(300):
        sig = random_signature(rng, 15)
        assert signature_of(tree_from_signature(sig)) == sig
        t = random_h2_tree(rng)
        assert tree_equal(tree_from_signature(signature_of(t)), t, "unordered")


def test_make_signature_validates():
    assert make_signature([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        make_signature([2, 0])


def test_signature_leq_examples():
    assert signature_leq((3, 1), (5, 1))
    assert not signature_leq((3, 3), (5, 1))
    assert signature_leq((), (4,))
    rng = random.Random(3)
    for _ in range(500):
        x = random_signature(rng, 8)
        assert signature_leq(x, x)


def test_signature_leq_matches_injection_search():
    rng = random.Random(4)
    for _ in range(1500):
        x = random_signature(rng, 8)
        y = random_signature(rng, 10)
        assert signature_leq(x, y) == naive_signature_leq(x, y)


def test_partial_order_laws():
    rng = random.Random(5)

    def biased(base):
        # grow a comparable-with-decent-odds partner
        out = list(base)
        for i in range(len(out)):
            if rng.random() < 0.5:
                out[i] += rng.randint(0, 2)
        if rng.random() < 0.5:
            out.append(rng.randint(1, 3))
        return tuple(sorted(out, reverse=True))

    for _ in range(1200):
        x = random_signature(rng, 8)
        y = biased(x) if rng.random() < 0.7 else random_signature(rng, 9)
        z = biased(y) if rng.random() < 0.7 else random_signature(rng, 10)
        assert signature_leq(x, x)
        if signature_leq(x, y) and signature_leq(y, x):
            assert x == y
        if signature_leq(x, y) and signature_leq(y, z):
            assert signature_leq(x, z)
        # tuple order extends dominance: the miner's parent rule rests on it
        if signature_leq(x, y):
            assert x <= y


def test_engine_matches_dominance_on_exact_height_two():
    rng = random.Random(7)
    for _ in range(1000):
        a = random_exact_h2_tree(rng)
        b = random_exact_h2_tree(rng)
        assert subtree_iso(a, b, "unordered") == signature_leq(
            signature_of(a), signature_of(b)
        )


def test_meet_examples():
    assert signatures_meet([(3, 2), (3,)]) == (3,)
    assert signatures_meet([(2,), (3,)]) == (2,)
    assert signatures_meet([(), (5, 5)]) == ()


def test_maximal_common_tree_examples():
    mct = maximal_common_tree([tree_from_signature((3, 2)), tree_from_signature((3,))])
    assert serialize_tree(mct) == "((()()))"
    t = tree_from_signature((4, 2, 1))
    assert tree_equal(maximal_common_tree([t, t]), t, "unordered")
    star2 = tree_from_signature((1, 1))
    assert tree_equal(
        maximal_common_tree([star2, tree_from_signature((4, 1))]), star2, "unordered"
    )
    with pytest.raises(ValueError):
        maximal_common_tree([])


def test_maximal_common_tree_is_common_and_locally_maximal():
    rng = random.Random(8)
    for _ in range(300):
        trees = [random_h2_tree(rng) for _ in range(rng.randint(1, 5))]
        mct = maximal_common_tree(trees)
        msig = signature_of(mct)
        for t in trees:
            assert signature_leq(msig, signature_of(t))
            assert subtree_iso(mct, t, "unordered")
        # every one-leaf extension loses root-aligned commonality
        for v in mct.nodes():
            if mct.depths[v] > 1:
                continue
            grown_sig = signature_of(add_leaf(mct, v))
            assert any(not signature_leq(grown_sig, signature_of(t)) for t in trees)


def test_common_iff_below_meet():
    rng = random.Random(9)
    for _ in range(400):
        trees = [random_h2_tree(rng) for _ in range(rng.randint(1, 5))]
        meet = signatures_meet([signature_of(t) for t in trees])
        probe = random_signature(rng, 10)
        common = all(signature_leq(probe, signature_of(t)) for t in trees)
        assert common == signature_leq(probe, meet)


def test_mct_canonical_key_lists_large_children_first():
    assert canonical_form(tree_from_signature((3, 1)), "unordered") == "((()())())"
    assert signature_key((3, 1)) == "((()())())"
    assert signature_key(()) == "()"
    rng = random.Random(11)
    for _ in range(500):
        a = random_signature(rng, 12)
        b = random_signature(rng, 12)
        assert signature_key(a) == canonical_form(tree_from_signature(a), "unordered")
        # a smaller key is a larger tuple
        assert (signature_key(a) < signature_key(b)) == (a > b)
