import os
import random
import subprocess
import sys

import pytest

from shrubmine import (
    Dataset,
    EmbeddingWitness,
    Tree,
    add_leaf,
    find_embedding,
    is_frequent,
    parse_tree,
    subtree_iso,
    support_set,
    tree_equal,
)

from reference import (
    all_unordered_trees,
    naive_subtree_iso,
    random_repeated_sibling_tree,
    random_tree,
)


def test_single_vertex_embeds_everywhere():
    rng = random.Random(1)
    single = parse_tree("()")
    for _ in range(50):
        assert subtree_iso(single, random_tree(rng, rng.randint(1, 20)), "unordered")
        assert subtree_iso(single, random_tree(rng, rng.randint(1, 20)), "ordered")


def test_star_embeds_below_root_with_witness():
    star = parse_tree("(()())")
    target = parse_tree("((()()))")
    witness = find_embedding(star, target, "unordered")
    assert witness is not None
    middle = target.children[target.root][0]
    assert witness.mapping[star.root] == middle
    assert witness.is_valid_for(star, target, "unordered")
    assert naive_subtree_iso(star, target, "unordered")


def test_ordered_child_order_matters():
    pattern = parse_tree("(()(()))")
    target = parse_tree("((())())")
    assert not subtree_iso(pattern, target, "ordered")
    reversed_pattern = parse_tree("((())())")
    assert subtree_iso(reversed_pattern, target, "ordered")
    assert naive_subtree_iso(pattern, target, "ordered") is False
    assert naive_subtree_iso(reversed_pattern, target, "ordered") is True


def test_tree_equal_examples():
    t = parse_tree("(()(()))")
    assert tree_equal(t, t, "ordered")
    permuted = parse_tree("((())())")
    assert tree_equal(t, permuted, "unordered")
    assert not tree_equal(t, permuted, "ordered")
    assert not tree_equal(t, parse_tree("(())"), "unordered")


def test_tree_equal_is_mutual_containment():
    rng = random.Random(3)
    for _ in range(500):
        a = random_tree(rng, rng.randint(1, 8))
        b = random_tree(rng, rng.randint(1, 8))
        for mode in ("ordered", "unordered"):
            mutual = subtree_iso(a, b, mode) and subtree_iso(b, a, mode)
            assert mutual == tree_equal(a, b, mode)


def test_support_set_examples():
    ds = Dataset.from_trees([parse_tree("(())"), parse_tree("((()()))")], "unordered")
    single = parse_tree("()")
    assert support_set(single, ds).indices == (0, 1)
    star2 = parse_tree("(()())")
    assert support_set(star2, ds).indices == (1,)
    for i, t in enumerate(ds.trees):
        assert i in support_set(t, ds).indices


def test_is_frequent_examples():
    ds = Dataset.from_trees([parse_tree("(())"), parse_tree("((()()))")], "unordered")
    assert is_frequent(parse_tree("(()())"), ds, 1)
    assert not is_frequent(parse_tree("(()())"), ds, 2)
    assert not is_frequent(parse_tree("()"), ds, 3)
    with pytest.raises(ValueError):
        is_frequent(parse_tree("()"), ds, 0)


def test_reflexive_and_transitive():
    rng = random.Random(5)
    for _ in range(500):
        a = random_tree(rng, rng.randint(1, 8))
        b = random_tree(rng, rng.randint(1, 10))
        c = random_tree(rng, rng.randint(1, 12))
        for mode in ("ordered", "unordered"):
            assert subtree_iso(a, a, mode)
            if subtree_iso(a, b, mode) and subtree_iso(b, c, mode):
                assert subtree_iso(a, c, mode)


def test_antisymmetry_up_to_iso():
    rng = random.Random(6)
    for _ in range(400):
        a = random_tree(rng, rng.randint(1, 8))
        b = random_tree(rng, rng.randint(1, 8))
        for mode in ("ordered", "unordered"):
            if subtree_iso(a, b, mode) and subtree_iso(b, a, mode):
                assert tree_equal(a, b, mode)


def test_agreement_with_embedding_oracle_small():
    rng = random.Random(8)
    pool = [random_tree(rng, rng.randint(1, 8)) for _ in range(40)]
    for a in pool:
        for b in pool:
            for mode in ("ordered", "unordered"):
                assert subtree_iso(a, b, mode) == naive_subtree_iso(a, b, mode)


def test_monotone_under_add_leaf():
    rng = random.Random(9)
    for _ in range(200):
        pattern = random_tree(rng, rng.randint(1, 6))
        target = random_tree(rng, rng.randint(1, 8))
        for mode in ("ordered", "unordered"):
            if subtree_iso(pattern, target, mode):
                for v in target.nodes():
                    assert subtree_iso(pattern, add_leaf(target, v), mode)


def test_witnesses_validate():
    rng = random.Random(10)
    found = 0
    for _ in range(500):
        pattern = random_tree(rng, rng.randint(1, 6))
        target = random_tree(rng, rng.randint(1, 9))
        for mode in ("ordered", "unordered"):
            witness = find_embedding(pattern, target, mode)
            assert (witness is not None) == subtree_iso(pattern, target, mode)
            if witness is not None:
                found += 1
                assert witness.is_valid_for(pattern, target, mode)
    assert found > 100


def test_broken_witnesses_are_rejected():
    pattern = parse_tree("(()(()))")
    target = parse_tree("((()(())))")
    good = {0: 1, 1: 2, 2: 3, 3: 4}
    for mode in ("ordered", "unordered"):
        assert EmbeddingWitness(good).is_valid_for(pattern, target, mode)
        swapped = {0: 1, 1: 3, 2: 2, 3: 4}
        assert not EmbeddingWitness(swapped).is_valid_for(pattern, target, mode)
        # both leaves of a cherry onto one target leaf: every edge maps onto an edge
        cherry, stick = parse_tree("(()())"), parse_tree("(())")
        assert not EmbeddingWitness({0: 0, 1: 1, 2: 1}).is_valid_for(cherry, stick, mode)
        # the root mapped below the image of its own child
        chain = parse_tree("((()))")
        assert not EmbeddingWitness({0: 1, 1: 0}).is_valid_for(stick, chain, mode)
    # children in reversed order embed unordered but not ordered
    reversed_target = parse_tree("((())())")
    mirrored = {0: 0, 1: 3, 2: 1, 3: 2}
    assert EmbeddingWitness(mirrored).is_valid_for(pattern, reversed_target, "unordered")
    assert not EmbeddingWitness(mirrored).is_valid_for(pattern, reversed_target, "ordered")


def _path(vertices: int) -> Tree:
    return Tree.from_children([[v + 1] for v in range(vertices - 1)] + [[]])


def _caterpillar(depth: int) -> Tree:
    """A spine 0..depth with a leaf before the next spine vertex at each step."""
    children = [[] for _ in range(2 * depth + 1)]
    for v in range(depth):
        children[v] = [depth + 1 + v, v + 1]
    return Tree.from_children(children)


def test_deep_path_in_caterpillar():
    depth = 3000
    target = _caterpillar(depth)
    for mode in ("ordered", "unordered"):
        pattern = _path(depth + 1)
        assert subtree_iso(pattern, target, mode)
        witness = find_embedding(pattern, target, mode)
        assert witness is not None
        assert witness.is_valid_for(pattern, target, mode)
        assert not subtree_iso(_path(depth + 2), target, mode)


def test_repeated_sibling_shapes_match_oracle():
    """Child classes of several siblings each, drawn by pattern and target
    from one pool, so class flows must split and reroute."""
    rng = random.Random(11)
    small = all_unordered_trees(3)
    # whichever of ((())) and (()()) has the smaller shape id, one of these
    # pairs must move () and (()) off it to fit three copies of it
    pairs = [
        ("(()(())" + want * copies + ")", "(" + want * 3 + other * 2 + ")")
        for want, other in (("((()))", "(()())"), ("(()())", "((()))"))
        for copies in (3, 4)
    ]
    cases = [(parse_tree(a), parse_tree(b)) for a, b in pairs]
    for case in range(400):
        pool = small if case % 2 else [random_tree(rng, rng.randint(1, 4)) for _ in range(3)]
        pattern = random_repeated_sibling_tree(rng, rng.randint(1, 9), pool)
        target = random_repeated_sibling_tree(rng, rng.randint(3, 13), pool)
        cases.append((pattern, target))
    repeated = found = 0
    for pattern, target in cases:
        repeated += any(
            len(kids) > len(set(pattern.shape_ids("unordered")[c] for c in kids))
            for kids in pattern.children
        )
        for mode in ("ordered", "unordered"):
            expected = naive_subtree_iso(pattern, target, mode)
            assert subtree_iso(pattern, target, mode) == expected
            witness = find_embedding(pattern, target, mode)
            assert (witness is not None) == expected
            if witness is not None:
                found += 1
                assert witness.is_valid_for(pattern, target, mode)
    assert repeated > 150 and found > 150


# Trees whose children are sorted by unordered shape id have equal ordered
# and unordered ids at every vertex, so both modes look up the same id
# pairs in their memos, while the answers of the two modes can differ.
_MODES_APART = """
import random
from shrubmine import Tree, TreeBuilder, add_leaf, find_embedding, subtree_iso
from shrubmine.isomorphism import _MEMOS
from shrubmine.trees import SHAPES
from reference import naive_subtree_iso, random_tree

assert len(SHAPES.children) == 1 and not any(_MEMOS.values()), "not a fresh process"


def canonical(tree):
    ids = tree.shape_ids("unordered")
    children = [sorted(kids, key=ids.__getitem__) for kids in tree.children]
    out = Tree.from_children(children, tree.root)
    assert out.shape_ids("ordered") == out.shape_ids("unordered")
    return out


def joined(*parts):
    builder = TreeBuilder()
    for part in parts:
        builder.graft(builder.root, part)
    return canonical(builder.build())


def grown(tree):
    for _ in range(rng.randint(1, 3)):
        tree = add_leaf(tree, rng.randrange(tree.size))
    return tree


# a root over two random shapes, inside a root over the two grown by a few
# leaves: unordered it always embeds, ordered only when the canonical child
# orders of the two roots agree
rng = random.Random(12)
pairs = []
for _ in range(200):
    a, b = random_tree(rng, rng.randint(2, 5)), random_tree(rng, rng.randint(2, 5))
    pairs.append((joined(a, b), joined(grown(a), grown(b))))
    pattern, target = random_tree(rng, rng.randint(2, 6)), random_tree(rng, rng.randint(4, 10))
    pairs.append((canonical(pattern), canonical(target)))
modes = ("ordered", "unordered")
truth = [{mode: naive_subtree_iso(p, t, mode) for mode in modes} for p, t in pairs]
disagree = sum(answer["ordered"] != answer["unordered"] for answer in truth)
# the second pass meets every pair decided, with the other mode first
for second in (0, 1):
    for k, (pattern, target) in enumerate(pairs):
        for mode in modes if (k + second) % 2 else modes[::-1]:
            assert subtree_iso(pattern, target, mode) == truth[k][mode], (k, mode)
            witness = find_embedding(pattern, target, mode)
            assert (witness is not None) == truth[k][mode]
            assert witness is None or witness.is_valid_for(pattern, target, mode)
print(disagree)
"""


def test_modes_keep_apart_and_memo_has_no_history_effect():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    done = subprocess.run(
        [sys.executable, "-c", _MODES_APART], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, here])},
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 20
