"""Mining closed frequent patterns in height-bounded rooted trees.

The package bundles a polynomial-delay reverse-search miner for unordered
datasets of height at most 2, the integer-signature algebra it rests on, a
generic subtree-isomorphism engine, brute-force oracles that double as
test references, and generators plus verifiers for three hardness-gadget
families (dualization, satisfiability, itemsets).
"""

import importlib

#: Public name -> the submodule that defines it.  Names resolve on first
#: access (PEP 562), so importing the package, or one layer of it, loads
#: no other layer.
_SOURCES = {
    name: module
    for module, names in {
        "errors": "ConstraintError FormatError SizeGuardError TreeParseError",
        "isomorphism": "EmbeddingWitness find_embedding is_frequent subtree_iso support_set"
        " tree_equal",
        "mining": "EmptySupportError MiningConfig MiningSummary RootPatternError SearchNode"
        " closure enumerate_closed is_closed neighbors parent_of pattern_support",
        "oracle": "Hypergraph PatternUniverse all_patterns brute_closed brute_frequent"
        " brute_maximal brute_mct brute_mis",
        "signatures": "Signature make_signature maximal_common_tree signature_leq signature_of"
        " signatures_meet tree_from_signature",
        "trees": "Dataset SupportSet Tree TreeBuilder add_leaf canonical_form load_dataset"
        " parse_tree serialize_tree",
    }.items()
    for name in names.split()
}
__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

