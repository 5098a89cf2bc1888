"""Seeded benchmark inputs, written in the package's own file formats.

Every random choice comes from an explicit ``random.Random``, so the same
seed always gives byte-identical files.  Dataset files carry the
``# mode=`` and ``# theta=`` header lines the CLI reads; DIMACS, hypergraph
and transaction files use the parsers' formats in ``shrubmine.gadgets``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from shrubmine import Hypergraph, TreeBuilder, make_signature, serialize_tree  # noqa: E402
from shrubmine.gadgets import (  # noqa: E402
    CnfFormula,
    TransactionDb,
    assignment_tree,
    format_dimacs,
    sat_gadget,
)
from shrubmine.signatures import Signature  # noqa: E402

DEPTHS = (100, 300, 1000, 3000)
MODES = ("unordered", "ordered")


def shrub_signatures(
    rng: random.Random, n: int, width: int, fanout: int, dup: float
) -> list[Signature]:
    """``n`` height-<=2 signatures.  With probability ``dup`` a tree repeats
    an earlier one; otherwise it gets 1..``width`` root children, each
    carrying 0..``fanout`` leaves."""
    out: list[Signature] = []
    for _ in range(n):
        if out and rng.random() < dup:
            out.append(rng.choice(out))
        else:
            kids = rng.randint(1, width)
            out.append(make_signature(1 + rng.randint(0, fanout) for _ in range(kids)))
    return out


def partition_signatures(count: int) -> list[Signature]:
    """The first ``count`` integer partitions: by total, then largest part
    first (the order of acceptance criterion 9).  All distinct."""

    def partitions(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    out: list[Signature] = []
    total = 1
    while len(out) < count:
        out.extend(partitions(total, total))
        total += 1
    return out[:count]


def shuffled_tree_text(rng: random.Random, sig: Signature) -> str:
    """A tree realizing ``sig`` with its root children in shuffled order,
    so the miner sees the same unordered tree in a seed-dependent text."""
    entries = list(sig)
    rng.shuffle(entries)
    b = TreeBuilder()
    for x in entries:
        child = b.add_child(b.root)
        for _ in range(x - 1):
            b.add_child(child)
    return serialize_tree(b.build())


def write_shrub_dataset(path: Path, rng: random.Random, sigs: list[Signature], theta: int) -> None:
    """Write ``sigs`` as an unordered dataset, tree order and each tree's
    child order permuted by ``rng``."""
    order = list(sigs)
    rng.shuffle(order)
    lines = ["# mode=unordered", f"# theta={theta}"]
    lines.extend(shuffled_tree_text(rng, s) for s in order)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_dimacs(path: Path, cnf: CnfFormula) -> None:
    path.write_text(format_dimacs(cnf), encoding="utf-8")


def random_hypergraph(rng: random.Random, n: int, m: int, edge_size: int) -> Hypergraph:
    """``m`` random ``edge_size``-edges over ``1..n`` with no vertex in
    every edge (the dualization gadget refuses such hypergraphs)."""
    while True:
        edges = [frozenset(rng.sample(range(1, n + 1), edge_size)) for _ in range(m)]
        if not any(all(v in e for e in edges) for v in range(1, n + 1)):
            return Hypergraph.from_edges(n, edges)


def write_hypergraph(path: Path, h: Hypergraph) -> None:
    lines = [f"{h.n} {len(h.edges)}"]
    lines.extend(" ".join(map(str, sorted(e))) for e in h.edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_transactions(
    rng: random.Random, items: int, rows: int, density: float, theta: int
) -> TransactionDb:
    """Random nonempty transactions over ``1..items`` (the file format has
    no way to write an empty one) whose maximal ``theta``-frequent itemsets
    all stay below ``items - 1`` elements, the itemset gadget's
    precondition (its verifier fails on wider ones by design)."""

    def row() -> frozenset[int]:
        while True:
            picked = frozenset(x for x in range(1, items + 1) if rng.random() < density)
            if picked:
                return picked

    while True:
        db = TransactionDb(items, tuple(row() for _ in range(rows)))
        if all(len(s) < items - 1 for s in maximal_itemsets(items, db.itemsets, theta)):
            return db


def write_transactions(path: Path, db: TransactionDb) -> None:
    lines = [f"# n={db.n}"]
    lines.extend(" ".join(map(str, sorted(row))) for row in db.itemsets)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def path_text(depth: int) -> str:
    """A path with ``depth`` edges."""
    return "(" * (depth + 1) + ")" * (depth + 1)


def caterpillar_text(rng: random.Random, depth: int) -> str:
    """A spine with ``depth`` edges; each spine vertex above the last gets,
    with probability 1/3, an extra leaf placed before or after the spine
    child.  Contains :func:`path_text` of ``depth`` in both modes."""
    opens, closes = [], []
    for _ in range(depth):
        leaf = rng.random() < 1 / 3
        before = rng.random() < 0.5
        opens.append("(" + ("()" if leaf and before else ""))
        closes.append(("()" if leaf and not before else "") + ")")
    return "".join(opens) + "()" + "".join(reversed(closes))


def independent_set_count(n: int, edges) -> int:
    """Maximal independent sets of a hypergraph, by a plain subset sweep
    that shares no code with the package's oracles."""
    masks = [sum(1 << (v - 1) for v in e) for e in edges]

    def independent(s: int) -> bool:
        return not any(s & m == m for m in masks)

    return sum(
        1
        for s in range(1 << n)
        if independent(s) and not any(not s >> v & 1 and independent(s | 1 << v) for v in range(n))
    )


def maximal_itemsets(n: int, rows, theta: int) -> list[frozenset[int]]:
    """Maximal ``theta``-frequent itemsets, by a plain subset sweep."""
    row_masks = [sum(1 << (x - 1) for x in r) for r in rows]

    def frequent(s: int) -> bool:
        return sum(1 for r in row_masks if r & s == s) >= theta

    return [
        frozenset(v + 1 for v in range(n) if s >> v & 1)
        for s in range(1 << n)
        if frequent(s) and not any(not s >> v & 1 and frequent(s | 1 << v) for v in range(n))
    ]


def sat_cnfs() -> dict[str, CnfFormula]:
    """The two fixed (3,4)-CNFs of the test suite's reference module."""
    from reference import cyclic_34_cnf, unsat_34_cnf

    return {"cyclic": cyclic_34_cnf(), "unsat": unsat_34_cnf()}


def write_gadget_inputs(seed: int, work: Path, p: dict) -> dict:
    """Write every gadgets-workload input into ``work`` and return the
    manifest: file names, the answers each operation must give, and the
    deep-path probes.  Expected ``verify`` lines for the seeded families
    are rebuilt from independent brute-force counts."""
    rng = random.Random(seed)
    manifest: dict = {"sat": {}, "streams": []}
    for name, cnf in sat_cnfs().items():
        write_dimacs(work / f"sat-{name}.cnf", cnf)
        gadget = sat_gadget(cnf)
        manifest["sat"][name] = {"cnf": f"sat-{name}.cnf", "trees": len(gadget.dataset)}
        dropped = [serialize_tree(t) for t in gadget.dropped_templates]
        # fixed per formula, like the rest of the sat inputs, so the streams'
        # delays do not vary with the run seed
        sat_rng = random.Random(p["sat_seeds"][name])
        assignments = [
            serialize_tree(assignment_tree(cnf, {i: sat_rng.random() < 0.5 for i in range(1, cnf.n + 1)}))
            for _ in range(p["assignments"])
        ]
        # lemma answers, replayed by ``verify sat``: dropped templates lie in
        # the template but not in the formula tree; assignment trees lie in both
        for target, tree, patterns, answers in (
            ("template", gadget.template, dropped, ["true"] * len(dropped)),
            ("formula", gadget.formula_tree, dropped + assignments,
             ["false"] * len(dropped) + ["true"] * len(assignments)),
        ):
            patterns_file = f"iso-{name}-{target}.trees"
            (work / patterns_file).write_text("\n".join(patterns) + "\n", encoding="utf-8")
            manifest["streams"].append({
                "name": f"iso sat-{name} {target}",
                "target": serialize_tree(tree),
                "patterns": patterns_file,
                "answers": answers,
            })

    h = random_hypergraph(rng, p["dual_n"], p["dual_m"], p["dual_edge"])
    write_hypergraph(work / "dual.hg", h)
    mis = independent_set_count(h.n, h.edges)
    manifest["dual"] = {
        "input": "dual.hg",
        "trees": 1 + len(h.edges),
        "mct": mis + 1,
        "verify": [
            "check=spare_tree_is_common status=pass",
            f"check=maximal_common_trees_match_independent_sets status=pass "
            f"independent_sets={mis} maximal_common_trees={mis + 1}",
            f"check=count_is_mis_plus_one status=pass expected={mis + 1} actual={mis + 1}",
        ],
    }

    theta = p["itemset_theta"]
    db = random_transactions(rng, p["items"], p["rows"], p["density"], theta)
    write_transactions(work / "itemset.db", db)
    maximal = maximal_itemsets(db.n, db.itemsets, theta)
    pool = set(db.itemsets) | set(maximal)
    manifest["itemset"] = {
        "input": "itemset.db",
        "theta": theta,
        "trees": len(db.itemsets) + theta,
        "maximal": len(maximal) + 1,
        "verify": [
            f"check=containment_mirrors_subset_order status=pass pairs={len(pool) ** 2}",
            "check=spare_tree_avoids_small_transactions status=pass",
            "check=no_frequent_itemset_near_full_width status=pass",
            f"check=maximal_trees_match_maximal_itemsets status=pass "
            f"maximal_itemsets={len(maximal)} maximal_trees={len(maximal) + 1}",
        ],
    }

    manifest["probes"] = [
        {"name": f"iso deep path {mode} depth {d}", "mode": mode,
         "pattern": path_text(d), "target": caterpillar_text(rng, d)}
        for mode in MODES
        for d in DEPTHS
    ]
    return manifest


def write_mine_input(workload: str, seed: int, work: Path, p: dict) -> dict:
    """Write a mine workload's dataset, tree order and child order permuted
    by ``seed``, and return the manifest."""
    if workload == "mine-dup":
        rng = random.Random(p["content_seed"])
        sigs = shrub_signatures(rng, p["n"], p["width"], p["fanout"], p["dup"])
    else:
        sigs = partition_signatures(p["n"])
    dataset = f"{workload}.trees"
    write_shrub_dataset(work / dataset, random.Random(seed), sigs, p["theta"])
    return {"dataset": dataset, "theta": p["theta"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="Write a workload's inputs and manifest.json.")
    parser.add_argument("--workload", choices=("mine-dup", "mine-distinct", "gadgets"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    record = json.loads((BENCH / "record.json").read_text(encoding="utf-8"))
    p = record["workloads"][args.workload]["params"]
    if args.workload == "gadgets":
        manifest = write_gadget_inputs(args.seed, args.dir, p)
    else:
        manifest = write_mine_input(args.workload, args.seed, args.dir, p)
    (args.dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
