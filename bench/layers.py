"""Traced in-process replay: per-layer numbers for all seven modules.

Spans are recorded here, around calls into each module's public
functions, and kept in memory until the run ends; the program itself is
not instrumented.  Every traced run covers every layer: the mining side
replays the workload's own dataset (the mine-dup dataset for ``gadgets``,
which mines nothing), the gadget side replays the seed's gadget inputs.
Counts are exact and repeat bit for bit; times are single passes, or
medians where a call is cheap enough to repeat.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from shrubmine import (
    MiningConfig,
    all_patterns,
    brute_maximal,
    brute_mct,
    canonical_form,
    enumerate_closed,
    is_closed,
    load_dataset,
    maximal_common_tree,
    neighbors,
    parent_of,
    parse_tree,
    pattern_support,
    subtree_iso,
)
from shrubmine.gadgets import (
    gen_dualization_instance,
    gen_itemset_instance,
    maximal_frequent_itemsets,
    parse_dimacs,
    parse_hypergraph,
    parse_transactions,
    sat_gadget,
    verify_gadget,
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("cli.startup_s", "s"),
    ("cli.io_s", "s"),
    ("trees.load_s", "s"),
    ("signatures.root_meet_s", "s"),
    ("mining.enumerate_s", "s"),
    ("mining.neighbors_s", "s"),
    ("mining.parent_of_s", "s"),
    ("mining.solutions", "count"),
    ("mining.candidates", "count"),
    ("mining.parent_accept_ratio", "ratio"),
    ("mining.peak_stack_depth", "count"),
    ("mining.peak_live_candidates", "count"),
    ("mining.sink_gap_p99_ms", "ms"),
    ("mining.sink_gap_max_ms", "ms"),
    ("isomorphism.sat_query_ms", "ms"),
    ("isomorphism.sat_queries", "count"),
    ("isomorphism.deep_path_failures", "count"),
    ("oracle.all_patterns_s", "s"),
    ("oracle.patterns", "count"),
    ("oracle.brute_mct_s", "s"),
    ("oracle.brute_maximal_s", "s"),
    ("gadgets.build_s", "s"),
    ("gadgets.verify_sat_s", "s"),
    ("gadgets.verify_dual_s", "s"),
    ("gadgets.verify_itemset_s", "s"),
    ("gadgets.tree_vertices", "count"),
    ("trace.overhead_s", "s"),
]
CHEAP_REPEATS = 5


class Tracer:
    """Spans as [name, start, end, parent span index], kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


@dataclass
class LayerRun:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {why}" if why else name)

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {name: (self.values[name], unit) for name, unit in PER_LAYER}

    def report(self) -> list[str]:
        return [f"# {n}" for n in self.notes] + [f"# FAILED {p}" for p in self.problems]


def replay_cli(
    result: LayerRun, workload: str, seed: int, dataset: Path, theta: int, work: Path
) -> tuple[float, list[str]]:
    """Time a trivial CLI run, then one untraced CLI mine run; returns the
    mine run's wall time and stdout lines."""
    walls = []
    for _ in range(CHEAP_REPEATS):
        run = workloads.launch(["canon", "--pattern", "()", "--mode", "unordered"], work)
        ok = run.code == 0 and run.lines == ["()"]
        result.check("canon ()", ok, f"exit {run.code}, stdout {run.lines}")
        walls.append(run.wall)
    result.values["cli.startup_s"] = statistics.median(walls)
    run = workloads.launch(["mine", "closed", "--input", str(dataset), "--theta", str(theta)], work)
    problems = workloads.check_mine_stream(run, workloads.pins(workload), seed)
    result.check("cli mine", run.code == 0 and not problems, "; ".join(problems) or f"exit {run.code}")
    return run.wall, run.lines


def replay_mining(
    result: LayerRun, tracer: Tracer, workload: str, dataset: Path, theta: int, cli_lines: list[str]
) -> None:
    config = MiningConfig(theta=theta)
    lines = dataset.read_text(encoding="utf-8").splitlines()
    for _ in range(CHEAP_REPEATS):
        with tracer.span("trees.load_dataset"):
            ds = load_dataset(lines, "unordered")
        with tracer.span("signatures.maximal_common_tree"):
            maximal_common_tree(list(ds.trees))
    result.values["trees.load_s"] = tracer.median("trees.load_dataset")
    result.values["signatures.root_meet_s"] = tracer.median("signatures.maximal_common_tree")

    with tracer.span("mining.enumerate_closed.plain"):
        enumerate_closed(ds, config)
    emitted, stamps = [], []

    def sink(node) -> None:
        stamps.append(time.perf_counter())
        emitted.append(node)

    with tracer.span("mining.enumerate_closed"):
        summary = enumerate_closed(ds, config, sink)
    enumerate_s = tracer.total("mining.enumerate_closed")
    result.values["mining.enumerate_s"] = enumerate_s
    result.values["trace.overhead_s"] = enumerate_s - tracer.total("mining.enumerate_closed.plain")

    candidates = accepted = 0
    for node in emitted:
        with tracer.span("mining.neighbors"):
            found = neighbors(node.pattern, ds, theta)
        candidates += len(found)
        for child in found:
            with tracer.span("mining.parent_of"):
                parent = parent_of(child, ds)
            accepted += canonical_form(parent, "unordered") == node.canon
    solutions = len(emitted)
    result.check(
        "parent_of replay", accepted == solutions - 1,
        f"{accepted} candidates name their emitter as parent, expected {solutions - 1}",
    )
    bad = [
        n.canon
        for n in emitted
        if not is_closed(n.pattern, ds) or pattern_support(n.pattern, ds).count < theta
    ]
    result.check("emitted patterns closed and frequent", not bad, f"{len(bad)} fail, first {bad[:1]}")
    result.check(
        "in-process stream equals CLI stdout", [n.canon for n in emitted] == cli_lines,
        "the library and the CLI emitted different streams",
    )

    gaps = [(b - a) * 1000 for a, b in zip(stamps, stamps[1:])]
    p99, beyond = workloads.percentile(gaps, 99)
    result.values.update({
        "mining.neighbors_s": tracer.total("mining.neighbors"),
        "mining.parent_of_s": tracer.total("mining.parent_of"),
        "mining.solutions": solutions,
        "mining.candidates": candidates,
        "mining.parent_accept_ratio": (solutions - 1) / candidates,
        "mining.peak_stack_depth": summary.peak_stack_depth,
        "mining.peak_live_candidates": summary.peak_live_candidates,
        "mining.sink_gap_p99_ms": p99,
        "mining.sink_gap_max_ms": max(gaps),
    })
    result.notes.append(
        f"mining side: {workload} dataset, {len(gaps)} sink gaps, {beyond} beyond p99 (informational)"
    )


def replay_gadgets(result: LayerRun, tracer: Tracer, seed: int, work: Path) -> None:
    inputs = workloads.write_inputs("gadgets", seed, work)
    sat_pins = workloads.pins("gadgets")["sat"]
    sat_seeds = workloads.params("gadgets")["sat_seeds"]
    theta = inputs["itemset"]["theta"]

    def read(name: str) -> str:
        return (work / name).read_text(encoding="utf-8")

    with tracer.span("gadgets.build"):
        sats = {name: sat_gadget(parse_dimacs(read(sat["cnf"]))) for name, sat in inputs["sat"].items()}
        dual = gen_dualization_instance(parse_hypergraph(read(inputs["dual"]["input"])))
        db = parse_transactions(read(inputs["itemset"]["input"]))
        itemsets = sorted(maximal_frequent_itemsets(db, theta), key=sorted)
        items = gen_itemset_instance(db, itemsets, theta)
    result.values["gadgets.build_s"] = tracer.total("gadgets.build")
    datasets = [g.dataset for g in sats.values()] + [dual.dataset, items.dataset]
    result.values["gadgets.tree_vertices"] = sum(t.size for d in datasets for t in d.trees)

    for name, gadget in sats.items():
        with tracer.span("gadgets.verify_sat"):
            report = verify_gadget("sat", gadget, seed=sat_seeds[name], samples=50)
        expected = sat_pins[name].get("verify")
        result.check(f"verify sat {name}", report.lines() == expected, f"printed {report.lines()}")
    with tracer.span("gadgets.verify_dual"):
        report = verify_gadget("dual", dual)
    result.check("verify dual", report.lines() == inputs["dual"]["verify"], f"printed {report.lines()}")
    with tracer.span("gadgets.verify_itemset"):
        report = verify_gadget("itemset", items)
    result.check("verify itemset", report.lines() == inputs["itemset"]["verify"], f"printed {report.lines()}")
    for key in ("sat", "dual", "itemset"):
        result.values[f"gadgets.verify_{key}_s"] = tracer.total(f"gadgets.verify_{key}")

    wrong = 0
    for gadget in sats.values():
        for dropped in gadget.dropped_templates:
            for target, expected in ((gadget.template, True), (gadget.formula_tree, False)):
                with tracer.span("isomorphism.subtree_iso.sat"):
                    wrong += subtree_iso(dropped, target, "unordered") != expected
    queries = tracer.durations("isomorphism.subtree_iso.sat")
    result.check("sat replay answers", wrong == 0, f"{wrong} wrong subtree_iso answers")
    result.values["isomorphism.sat_query_ms"] = statistics.median(queries) * 1000
    result.values["isomorphism.sat_queries"] = len(queries)

    failures = 0
    for probe in inputs["probes"]:
        pattern, target = parse_tree(probe["pattern"]), parse_tree(probe["target"])
        try:
            with tracer.span("isomorphism.subtree_iso.deep"):
                found = subtree_iso(pattern, target, probe["mode"])
        except RecursionError:
            failures += 1
            continue
        result.check(probe["name"], found, "answered false for a contained path")
    result.values["isomorphism.deep_path_failures"] = failures
    result.notes.append(
        f"deep-path ladder: {failures} of {len(inputs['probes'])} queries raise RecursionError (known defect)"
    )

    with tracer.span("oracle.all_patterns"):
        dual_universe = all_patterns(dual.dataset)
        items_universe = all_patterns(items.dataset)
    with tracer.span("oracle.brute_mct"):
        mct = brute_mct(dual.dataset, dual_universe)
    with tracer.span("oracle.brute_maximal"):
        maximal = brute_maximal(items.dataset, theta, items_universe)
    result.check("brute_mct count", len(mct) == inputs["dual"]["mct"], f"{len(mct)} maximal common trees")
    expected = inputs["itemset"]["maximal"]
    result.check("brute_maximal count", len(maximal) == expected, f"{len(maximal)} maximal trees")
    result.values["oracle.all_patterns_s"] = tracer.total("oracle.all_patterns")
    result.values["oracle.patterns"] = len(dual_universe.patterns) + len(items_universe.patterns)
    result.values["oracle.brute_mct_s"] = tracer.total("oracle.brute_mct")
    result.values["oracle.brute_maximal_s"] = tracer.total("oracle.brute_maximal")


def run(workload: str, seed: int, work: Path) -> LayerRun:
    result = LayerRun()
    tracer = Tracer()
    mine_workload = "mine-dup" if workload == "gadgets" else workload
    inputs = workloads.write_inputs(mine_workload, seed, work)
    dataset, theta = work / inputs["dataset"], inputs["theta"]
    cli_wall, cli_lines = replay_cli(result, mine_workload, seed, dataset, theta, work)
    replay_mining(result, tracer, mine_workload, dataset, theta, cli_lines)
    result.values["cli.io_s"] = cli_wall - result.values["mining.enumerate_s"]
    replay_gadgets(result, tracer, seed, work)
    out = workloads.WORK / f"spans-{workload}-{seed}.json"
    tracer.dump(out)
    result.notes.append(f"{len(tracer.spans)} spans written to {out.relative_to(workloads.ROOT)}")
    return result
