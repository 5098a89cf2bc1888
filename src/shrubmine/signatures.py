"""Integer-signature algebra for unordered trees of height at most 2.

A height-2 tree is determined up to isomorphism by the multiset
``{child_count(v) + 1 : v child of the root}``, stored here as a
non-increasing tuple of positive integers (the *signature*; an entry of 1
is a leaf child, the empty tuple is the single vertex).  Containment of
height-2 trees corresponds exactly to the dominance order on signatures,
which makes the maximal common tree of a height-bounded dataset unique and
cheap to compute.
"""

from __future__ import annotations

from .errors import ConstraintError
from .trees import Tree, TreeBuilder

Signature = tuple[int, ...]


def make_signature(entries) -> Signature:
    """Normalize ``entries`` into a signature (non-increasing, all >= 1)."""
    sig = tuple(sorted((int(x) for x in entries), reverse=True))
    if sig and sig[-1] < 1:
        raise ValueError(f"signature entries must be positive, got {sig}")
    return sig


def signature_of(t: Tree) -> Signature:
    """Signature of a height-<=2 tree: one entry ``child_count+1`` per root child."""
    if t.height > 2:
        raise ConstraintError(f"tree has height {t.height} > 2")
    return make_signature(len(t.children[c]) + 1 for c in t.children[t.root])


def tree_from_signature(sig: Signature) -> Tree:
    """The canonical tree realizing ``sig``: each entry x becomes a root
    child carrying x-1 leaves.  Inverse of :func:`signature_of` up to
    unordered isomorphism."""
    b = TreeBuilder()
    for x in make_signature(sig):
        c = b.add_child(b.root)
        for _ in range(x - 1):
            b.add_child(c)
    return b.build()


def signature_key(sig: Signature) -> str:
    """Unordered canonical form of ``tree_from_signature(sig)``, built
    without the tree.

    Entry x encodes as ``(`` + ``()`` * (x-1) + ``)``.  Since ``(`` sorts
    before ``)``, a larger entry has a smaller encoding, so the entries of a
    non-increasing ``sig`` are already in canonical child order, and
    ``signature_key(a) < signature_key(b)`` exactly when ``a > b`` as tuples.
    """
    return "(" + "".join("(" + "()" * (x - 1) + ")" for x in sig) + ")"


def signature_leq(x: Signature, y: Signature) -> bool:
    """Dominance order: some injection sends every entry of ``x`` to a
    distinct entry of ``y`` at least as large.

    With both sides non-increasing this reduces to a pointwise check of
    the first ``len(x)`` positions.
    """
    if len(x) > len(y):
        return False
    return all(a <= b for a, b in zip(x, y))


def signatures_meet(sigs: list[Signature] | tuple[Signature, ...]) -> Signature:
    """Greatest lower bound under dominance: align largest-first, truncate
    to the shortest length, take pointwise minima."""
    if not sigs:
        raise ValueError("meet of no signatures is undefined")
    d_min = min(len(s) for s in sigs)
    return tuple(min(s[i] for s in sigs) for i in range(d_min))


def maximal_common_tree(trees: list[Tree] | tuple[Tree, ...]) -> Tree:
    """The unique maximal root-aligned common subtree of height-<=2 trees.

    Containment here keeps roots aligned (pattern root onto tree root), so
    trees correspond to signatures, containment to dominance, and the
    unique maximal common tree to the dominance meet.  Free-root
    containment would admit several incomparable maximal common trees
    (a star can hide below another tree's root), which is exactly what the
    closure-based miner cannot work with; see the mining module notes.

    A single-vertex input forces the single vertex (empty meet); height-1
    inputs cap the result at a star.
    """
    if not trees:
        raise ValueError("maximal_common_tree of an empty collection is undefined")
    return tree_from_signature(signatures_meet([signature_of(t) for t in trees]))
