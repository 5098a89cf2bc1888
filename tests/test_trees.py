import random

import pytest

from shrubmine import (
    Dataset,
    Tree,
    TreeBuilder,
    TreeParseError,
    add_leaf,
    canonical_form,
    load_dataset,
    parse_tree,
    serialize_tree,
)

from reference import naive_tree_iso, random_tree


def test_parse_single_vertex():
    t = parse_tree("()")
    assert t.size == 1
    assert t.children[t.root] == ()


def test_parse_two_leaves():
    t = parse_tree("(()())")
    assert t.size == 3
    assert len(t.children[t.root]) == 2
    assert all(t.children[c] == () for c in t.children[t.root])


def test_parse_path_three():
    t = parse_tree("((()))")
    assert t.size == 3
    assert t.height == 2


def test_parse_preserves_child_order():
    t = parse_tree("(()(()))")
    first, second = t.children[t.root]
    assert t.children[first] == ()
    assert len(t.children[second]) == 1


def test_parse_ignores_whitespace():
    assert serialize_tree(parse_tree(" ( () ( () ) )\n")) == "(()(()))"


@pytest.mark.parametrize(
    "text,offset",
    [("", 0), ("(()", 3), ("())", 2), ("()()", 2), ("(a)", 1)],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text,message,offset",
    [
        (" (()) ()", "unexpected second top-level tree", 6),
        ("\t(x)", "unexpected character 'x'", 2),
        ("( ()", "unbalanced '(': input ended inside a tree", 4),
        (" ()\n)", "unbalanced ')'", 4),
        (" \t\n", "empty input: expected at least one '()' pair", 0),
    ],
)
def test_parse_errors_in_whitespace_name_problem_and_offset(text, message, offset):
    with pytest.raises(TreeParseError) as err:
        parse_tree(text)
    assert (err.value.bare_message, err.value.offset) == (message, offset)


def test_parse_skips_unicode_whitespace():
    assert serialize_tree(parse_tree("\u3000()")) == "()"


def _relabelled(rng, tree):
    """``tree`` with its node ids permuted, so its root is usually not 0."""
    new_id = list(tree.nodes())
    rng.shuffle(new_id)
    children = [()] * tree.size
    for v in tree.nodes():
        children[new_id[v]] = [new_id[c] for c in tree.children[v]]
    return Tree.from_children(children, root=new_id[tree.root])


def test_parser_and_builder_agree_with_the_validator():
    rng = random.Random(19)
    for _ in range(300):
        builder = TreeBuilder()
        nodes = [builder.root]
        grafts = []
        for _ in range(rng.randint(0, 6)):
            parent = rng.choice(nodes)
            if rng.random() < 0.5:
                nodes.append(builder.add_child(parent))
            else:
                sub = _relabelled(rng, random_tree(rng, rng.randint(1, 8)))
                size = len(nodes)
                root = builder.graft(parent, sub)
                assert root == size + sub.root
                nodes.extend(range(size, size + sub.size))
                grafts.append((parent, size, sub))
        built = builder.build()
        assert built.size == len(nodes)
        for parent, size, sub in grafts:
            assert built.parents[size + sub.root] == parent
            for v in sub.nodes():
                # later calls may have appended children below the copy
                kids = tuple(size + c for c in sub.children[v])
                assert built.children[size + v][: len(kids)] == kids
        parsed = parse_tree(serialize_tree(built))
        for t in (built, parsed):
            assert t == Tree.from_children(t.children, root=t.root)
            assert t.root == 0 and t.parents[0] is None
            assert t.height == max(t.depths)
        assert serialize_tree(parsed) == serialize_tree(built)


def test_builder_refuses_unknown_parents():
    builder = TreeBuilder()
    leaf = builder.add_child(builder.root)
    for bad in (-1, leaf + 1):
        with pytest.raises(ValueError):
            builder.add_child(bad)
        with pytest.raises(ValueError):
            builder.graft(bad, parse_tree("(())"))
    assert serialize_tree(builder.build()) == "(())"


def test_serialize_examples():
    assert serialize_tree(parse_tree("()")) == "()"
    assert serialize_tree(parse_tree("(()(()))")) == "(()(()))"


def test_roundtrip_on_random_trees():
    rng = random.Random(7)
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 40))
        again = parse_tree(serialize_tree(t))
        # parse gives preorder ids; structure must survive exactly
        assert serialize_tree(again) == serialize_tree(t)
        assert again.size == t.size


def test_canonical_form_examples():
    t = parse_tree("(()(()))")
    assert canonical_form(t, "unordered") == "((())())"
    assert canonical_form(t, "ordered") == "(()(()))"


def test_canonical_invariant_under_sibling_permutation():
    rng = random.Random(11)
    for _ in range(1000):
        t = random_tree(rng, rng.randint(1, 20))
        shuffled_children = [list(t.children[v]) for v in t.nodes()]
        for kids in shuffled_children:
            rng.shuffle(kids)
        shuffled = Tree.from_children(shuffled_children, root=t.root)
        assert canonical_form(shuffled, "unordered") == canonical_form(t, "unordered")


def test_canonical_equality_matches_permutation_isomorphism():
    rng = random.Random(13)
    pool = [random_tree(rng, rng.randint(1, 7)) for _ in range(60)]
    pairs = 0
    for a in pool:
        for b in pool:
            if pairs >= 600:
                break
            pairs += 1
            for mode in ("ordered", "unordered"):
                assert (canonical_form(a, mode) == canonical_form(b, mode)) == naive_tree_iso(
                    a, b, mode
                )


def test_add_leaf_examples():
    single = parse_tree("()")
    assert serialize_tree(add_leaf(single, 0)) == "(())"
    t = parse_tree("((()))")
    deep_leaf = next(v for v in t.nodes() if t.depths[v] == 2)
    assert add_leaf(t, deep_leaf).height == 3


def test_add_leaf_counts_and_immutability():
    rng = random.Random(17)
    for _ in range(100):
        t = random_tree(rng, rng.randint(1, 15))
        before = serialize_tree(t)
        v = rng.randrange(t.size)
        grown = add_leaf(t, v)
        assert grown.size == t.size + 1
        assert serialize_tree(t) == before
        # prior ids keep their parents
        assert grown.parents[: t.size] == t.parents
    with pytest.raises(ValueError):
        add_leaf(t, t.size + 5)


def test_load_dataset_basics():
    ds = load_dataset(["()", "(())"], "unordered")
    assert len(ds) == 2
    assert [serialize_tree(t) for t in ds] == ["()", "(())"]


def test_load_dataset_skips_comments_and_blanks():
    ds = load_dataset(["# mode=unordered", "", "()", "   ", "# note", "(())"], "unordered")
    assert len(ds) == 2


def test_load_dataset_multiset_semantics():
    ds = load_dataset(["(())", "(())"], "unordered")
    assert len(ds) == 2
    assert ds.trees[0] is not ds.trees[1]


def test_load_dataset_empty_is_legal():
    assert len(load_dataset([], "unordered")) == 0


def test_load_dataset_reports_line_numbers():
    with pytest.raises(TreeParseError) as err:
        load_dataset(["()", "((!))"], "unordered")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_mode_validation():
    with pytest.raises(ValueError):
        Dataset.from_trees([], "sideways")
