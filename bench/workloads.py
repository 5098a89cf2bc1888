"""End-to-end workloads: the shrubmine CLI run as child processes.

Each workload has its inputs written from the seed, then repeats a cycle of
CLI operations until the run's time is spent.  Every operation's output is
checked; a failed check counts the operation as failed.

Times are paired.  The shared machine this was built on changes speed by up
to 2x within minutes and by several percent within seconds, so raw times of
identical runs spread wider than any useful bound.  Each timed operation
therefore runs twice at once, pinned to one CPU: on the checkout's ``src``
and on ``bench/reference``, a frozen copy of the package as it was when the
benchmark was defined.  Both see the same machine speed, so the ratio of
their CPU times is steady.  A time is reported in reference seconds: that
ratio times the reference's recorded time for that metric on that workload
(``record.json``, ``reference``; measured alone, as a user runs it).  A
change that makes the program twice as fast halves the reported time; a
slower machine moves it little.  Peak RSS is reported the same way, so the
seed-dependent gadget inputs move it no more than they move the reference.
The benchmark process starts no threads.

This module imports neither the package nor any heavy standard module:
``os.wait4`` reports a child's peak RSS as at least the launching process's
own peak, so the benchmark process must stay smaller than the children it
measures.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import selectors
import subprocess
import sys
import time
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
#: The frozen package every timed operation is paired with.
REFERENCE = BENCH / "reference"
RECORD = json.loads((BENCH / "record.json").read_text(encoding="utf-8"))
#: Digests of seed-dependent outputs are pinned for this seed only.
DEFAULT_SEED = 1
#: --limit 1 launches per mine cycle, so setup_s is a median of many samples.
SETUP_LAUNCHES = 3
#: The gadgets cycle runs its iso streams this many times: one pass gives
#: about 350 delay samples, and its p95 ratio spread 6% over ten runs.
STREAM_PASSES = 3


def params(workload: str) -> dict:
    return RECORD["workloads"][workload]["params"]


def pins(workload: str) -> dict:
    return RECORD["workloads"][workload]["pins"]


def crc32(text: str) -> str:
    """CRC-32 of ``text`` as 8 hex digits.  Enough to catch a changed
    output, and zlib adds nothing to this process's RSS where hashlib's
    OpenSSL adds about 4 MB."""
    return f"{zlib.crc32(text.encode('utf-8')):08x}"


def lines_digest(lines: list[str]) -> str:
    return crc32("".join(line + "\n" for line in lines))


def median(samples: list[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    return (ordered[mid] + ordered[~mid]) / 2


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above it
    (0.0 and 0 when a failed run left no samples)."""
    if not samples:
        return 0.0, 0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# child processes


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment plus ``src`` (the checkout's or the
    reference's) on the path.

    Bytecode is cached under ``.bench_work`` even where the caller disables
    it, as an installed package would have it: users do not pay the
    compile on every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cpu_clock(pid: int) -> int:
    """The id of process ``pid``'s CPU-time clock, as Linux's
    ``clock_getcpuclockid`` makes it.  It stays readable until the
    process is reaped."""
    return ((~pid) << 3) | 2


class Launch:
    """One CLI process: its exit code, stdout lines with the process's CPU
    time (seconds) when each arrived, wall time, CPU time, peak RSS and
    stderr."""

    def __init__(self, args: list[str], src: Path) -> None:
        self.args, self.src = args, src
        self.code: int | None = None
        self.lines: list[str] = []
        self.cpu_times: list[float] = []
        self.wall = self.cpu = self.rss_mb = 0.0
        self.stderr = ""

    @property
    def first_line_cpu(self) -> float:
        return self.cpu_times[0] if self.cpu_times else self.cpu

    def cpu_gaps_ms(self) -> list[float]:
        return [(b - a) * 1000 for a, b in zip(self.cpu_times, self.cpu_times[1:])]


def run_children(launches: list[Launch], work: Path, stdin: Path | None = None) -> None:
    """Run the ``launches`` at once to completion, reading their stdout as
    it arrives.  Peak RSS and CPU time come
    from ``os.wait4`` on each child alone, so an earlier large child cannot
    leak into the reading.  Every child is killed and reaped on the way
    out, whatever happens."""
    procs: dict[int, subprocess.Popen] = {}
    errs, pending = [], {}
    sel = selectors.DefaultSelector()
    try:
        for i, run in enumerate(launches):
            errs.append(open(work / f"stderr-{i}.txt", "wb"))
            with open(stdin or os.devnull, "rb") as inp:
                start = time.perf_counter()
                procs[i] = subprocess.Popen(
                    [sys.executable, "-m", "shrubmine.cli", *run.args], stdin=inp, stdout=subprocess.PIPE,
                    stderr=errs[i], env=child_env(run.src), cwd=ROOT,
                )
            pending[i] = (start, cpu_clock(procs[i].pid), bytearray())
            sel.register(procs[i].stdout, selectors.EVENT_READ, i)
        while pending:
            for key, _ in sel.select():
                i = key.data
                run, (start, clock, buf) = launches[i], pending[i]
                data = os.read(key.fd, 65536)
                if data:
                    cpu = time.clock_gettime(clock)
                    buf += data
                    *done, rest = buf.split(b"\n")
                    buf[:] = rest
                else:
                    done = [bytes(buf)] if buf else []
                    if done:
                        cpu = time.clock_gettime(clock)
                for raw in done:
                    run.lines.append(raw.decode("utf-8", errors="replace"))
                    run.cpu_times.append(cpu)
                if data:
                    continue
                sel.unregister(key.fileobj)
                del pending[i]
                _, status, usage = os.wait4(procs[i].pid, 0)
                run.wall = time.perf_counter() - start
                run.code = procs[i].returncode = os.waitstatus_to_exitcode(status)
                run.cpu = usage.ru_utime + usage.ru_stime
                run.rss_mb = usage.ru_maxrss / 1024
    finally:
        sel.close()
        for proc in procs.values():
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        for err in errs:
            err.close()
    for i, run in enumerate(launches):
        run.stderr = (work / f"stderr-{i}.txt").read_text(encoding="utf-8", errors="replace")


def launch(args: list[str], work: Path, stdin: Path | None = None, src: Path = ROOT / "src") -> Launch:
    """Run ``shrubmine <args>`` from ``src`` alone to completion."""
    run = Launch(args, src)
    run_children([run], work, stdin)
    return run


class Pairing:
    """Runs each timed operation on the checkout and on the reference at
    once, both on one CPU.  The scheduler then interleaves them in
    slices of a few milliseconds, so both run at the same machine speed,
    and their CPU times compare like for like.  Which side starts first
    alternates.

    The benchmark process pins itself to that CPU, and the children
    inherit the pin.  It shares the CPU on purpose: the kernel brings
    a running process's CPU clock up to date only at timer ticks (every
    4 ms on a 250 Hz kernel) and context switches, so read from another
    CPU the stamps fall on the tick grid; on the same CPU, the woken
    benchmark process preempts the child that just wrote a line, and the
    switch makes the reading exact: on a 2-vCPU Linux 6.18 guest the share
    of gaps on the 4 ms grid fell from over 80% to the 4% that chance
    gives."""

    def __init__(self) -> None:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.count = 0

    def launch(
        self, args: list[str], work: Path, stdin: Path | None = None, ref_args: list[str] | None = None
    ) -> tuple[Launch, Launch]:
        """The checkout's launch and the reference's, in that order.  The
        reference gets ``ref_args`` where given (a different output file)."""
        self.count += 1
        run, ref = Launch(args, ROOT / "src"), Launch(ref_args or args, REFERENCE)
        run_children([run, ref] if self.count % 2 else [ref, run], work, stdin)
        return run, ref


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    """Have ``bench/generate.py`` write the workload's inputs in a child
    process, so that building them never raises this process's peak RSS,
    and load the manifest it writes."""
    subprocess.run(
        [sys.executable, str(BENCH / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(work)],
        check=True, env=child_env(ROOT / "src"), cwd=ROOT,
    )
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """What one run measured and which checks failed.

    ``attempted``/``failed`` count executions of the timed operations.
    Times are CPU times of paired launches, kept as (checkout, reference)
    pairs, and delays per side; :meth:`metrics` turns them into reference
    seconds.
    The deep-path ``iso`` probes are counted apart: they reach a known
    recursion defect (a ROADMAP robustness item), so their crashes show in
    ``ok_share`` and ``probe_failures`` rather than as failed operations.
    A probe that answers wrongly, or crashes any other way, still fails the
    run.  ``ok_share`` counts each distinct operation once, passed only if
    every execution passed, so it does not depend on how many cycles fit.
    """

    def __init__(self, workload: str) -> None:
        self.reference: dict[str, float] = RECORD["reference"][workload]
        self.attempted = self.failed = self.probes = self.probe_failures = 0
        self.passed: dict[str, bool] = {}
        self.problems: list[str] = []
        self.setup: list[tuple[float, float]] = []
        self.wall: list[tuple[float, float]] = []
        self.gaps: list[float] = []
        self.ref_gaps: list[float] = []
        self.rss: list[tuple[float, float]] = []
        self.solutions: list[int] = []

    def judge(self, name: str, run: Launch, problems: list[str], ref: Launch) -> None:
        """Count one paired operation: ``problems`` are the checkout's
        failed output checks; the reference must at least exit cleanly."""
        self.attempted += 1
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if "Traceback" in run.stderr:
            problems.append("traceback on stderr")
        if ref.code != 0:
            problems.append(f"reference run exit code {ref.code}")
        self.passed[name] = self.passed.get(name, True) and not problems
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(problems))

    def probe(self, name: str, run: Launch, expected: list[str]) -> None:
        answered = run.code == 0 and run.lines == expected and "Traceback" not in run.stderr
        self.passed[name] = answered
        if answered:
            self.probes += 1
        elif run.code == 1 and "RecursionError" in run.stderr:
            self.probes += 1
            self.probe_failures += 1
        else:
            self.attempted += 1
            self.failed += 1
            self.problems.append(
                f"{name}: exit {run.code}, stdout {run.lines[:3]}, not the known RecursionError"
            )

    def ok_share(self) -> float:
        return sum(self.passed.values()) / len(self.passed)

    def ratios(self) -> dict[str, float]:
        """Checkout over reference for each paired metric: the median of
        the paired time ratios, and for delays and peak RSS the ratio of the
        two sides' percentiles or maxima over the run."""

        def over(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "setup_s": median([over(a, b) for a, b in self.setup]),
            "wall_s": median([over(a, b) for a, b in self.wall]),
            "delay_p50_ms": over(percentile(self.gaps, 50)[0], percentile(self.ref_gaps, 50)[0]),
            "delay_p95_ms": over(percentile(self.gaps, 95)[0], percentile(self.ref_gaps, 95)[0]),
            "peak_rss_mb": over(max(a for a, _ in self.rss), max(b for _, b in self.rss)),
        }

    def metrics(self) -> dict[str, tuple[float, str]]:
        units = {"setup_s": "s", "wall_s": "s", "delay_p50_ms": "ms", "delay_p95_ms": "ms", "peak_rss_mb": "MB"}
        return {
            **{name: (ratio * self.reference[name], units[name]) for name, ratio in self.ratios().items()},
            "ok_share": (self.ok_share(), "share"),
        }

    def report(self) -> list[str]:
        _, beyond = percentile(self.gaps, 95)
        ratios = self.ratios()
        raw = {
            "setup_s": (median([a for a, _ in self.setup]), median([b for _, b in self.setup])),
            "wall_s": (median([a for a, _ in self.wall]), median([b for _, b in self.wall])),
            "delay_p50_ms": (percentile(self.gaps, 50)[0], percentile(self.ref_gaps, 50)[0]),
            "delay_p95_ms": (percentile(self.gaps, 95)[0], percentile(self.ref_gaps, 95)[0]),
            "peak_rss_mb": (max(a for a, _ in self.rss), max(b for _, b in self.rss)),
        }
        lines = [
            "# paired metrics are in reference units: the checkout/reference ratio of CPU times,"
            " delay percentiles or peak RSS in paired launches x the reference's recorded value",
            f"# setup_s: median of {len(self.setup)} paired ratios",
            f"# wall_s: median of {len(self.wall)} paired cycle ratios",
            f"# delay percentiles: {len(self.gaps)} gaps between stdout lines, "
            f"{beyond} beyond p95" + ("" if beyond >= 10 else " (fewer than 10: p95 unresolved)")
            + f"; the reference's {len(self.ref_gaps)} gaps give the divisor",
        ]
        lines.extend(
            f"# {name}: ratio {ratios[name]:.4f} x reference {self.reference[name]:.6g}; "
            f"paired measurements: checkout {cur:.6g}, reference {ref:.6g}"
            for name, (cur, ref) in raw.items()
        )
        lines += [
            f"# peak_rss_mb: max over {len(self.rss)} timed operations; the benchmark process's own peak is "
            f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB",
            f"# operations: {self.attempted} attempted, {self.failed} failed; "
            f"deep-path probes: {self.probes}, {self.probe_failures} hit the recursion defect",
            f"# ok_share: {sum(self.passed.values())} of {len(self.passed)} distinct operations "
            f"passed every time; failed_share {1 - self.ok_share():.6g} share",
        ]
        if self.solutions:
            lines.append(
                f"# solutions per mine run: {sorted(set(self.solutions))}, so each run "
                f"gives solutions - 1 delay samples"
            )
        lines.extend(f"# FAILED {p}" for p in self.problems)
        return lines


def until_spent(seconds: float, cycle) -> None:
    """Run ``cycle`` at least once, then again while the median cycle time
    still fits in the remaining budget."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        cycle()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + median(durations) > seconds:
            return


# ---------------------------------------------------------------------------
# mine workloads


def check_mine_stream(run: Launch, pin: dict, seed: int) -> list[str]:
    problems = []
    found = re.search(r"count=(\d+)", run.stderr)
    if found is None or int(found.group(1)) != len(run.lines):
        said = found.group(0) if found else "no count="
        problems.append(f"stdout has {len(run.lines)} lines, stderr says {said}")
    if len(set(run.lines)) != len(run.lines):
        problems.append("a solution line repeats")
    if len(run.lines) != pin.get("count"):
        problems.append(f"{len(run.lines)} solutions, pinned {pin.get('count')}")
    solutions = lines_digest(sorted(run.lines))
    if solutions != pin.get("solutions_crc32"):
        problems.append(f"solution set digest {solutions} differs from the pin")
    if seed == DEFAULT_SEED and lines_digest(run.lines) != pin.get("stdout_crc32"):
        problems.append(f"stdout digest {lines_digest(run.lines)} differs from the pin")
    return problems


def run_mine(workload: str, seed: int, seconds: float, work: Path) -> Tally:
    inputs = write_inputs(workload, seed, work)
    pin = pins(workload)
    base = ["mine", "closed", "--input", str(work / inputs["dataset"]), "--theta", str(inputs["theta"])]
    tally = Tally(workload)
    pairing = Pairing()

    def cycle() -> None:
        # a --limit 1 run stops after the root closure: a pure set-up sample
        for _ in range(SETUP_LAUNCHES):
            first, ref = pairing.launch(base + ["--limit", "1"], work)
            tally.judge("mine --limit 1", first, line_problems(first, [pin.get("root")]), ref)
            tally.setup.append((first.first_line_cpu, ref.first_line_cpu))
        run, ref = pairing.launch(base, work)
        tally.judge("mine", run, check_mine_stream(run, pin, seed), ref)
        tally.setup.append((run.first_line_cpu, ref.first_line_cpu))
        tally.wall.append((run.cpu, ref.cpu))
        tally.gaps.extend(run.cpu_gaps_ms())
        tally.ref_gaps.extend(ref.cpu_gaps_ms())
        tally.rss.append((run.rss_mb, ref.rss_mb))
        tally.solutions.append(len(run.lines))

    until_spent(seconds, cycle)
    return tally


# ---------------------------------------------------------------------------
# gadgets workload


def line_problems(run: Launch, expected: list[str] | None) -> list[str]:
    return [] if run.lines == expected else [f"printed {run.lines}, expected {expected}"]


def check_gen_output(path: Path, trees: int, pinned: str | None) -> list[str]:
    if not path.exists():
        return ["no dataset written"]
    text = path.read_text(encoding="utf-8")
    problems = []
    if sum(1 for ln in text.splitlines() if ln and not ln.startswith("#")) != trees:
        problems.append(f"expected {trees} trees")
    if pinned is not None and crc32(text) != pinned:
        problems.append(f"dataset digest {crc32(text)} differs from the pin")
    return problems


def run_gadgets(seed: int, seconds: float, work: Path) -> Tally:
    inputs = write_inputs("gadgets", seed, work)
    pin = pins("gadgets")
    seeded = pin["default_seed"] if seed == DEFAULT_SEED else {}
    tally = Tally("gadgets")
    pairing = Pairing()

    # (name, arguments, dataset written, its tree count, pinned digest or None)
    gens = []
    # (name, arguments, expected stdout lines)
    verifies = []
    for name, sat in inputs["sat"].items():
        cnf, out = str(work / sat["cnf"]), work / f"sat-{name}.trees"
        sat_seed = str(params("gadgets")["sat_seeds"][name])
        gens.append((f"gen sat {name}", ["gen", "sat", "--input", cnf, "--out", str(out)],
                     out, sat["trees"], pin["sat"][name].get("dataset_crc32")))
        verifies.append((f"verify sat {name}",
                         ["verify", "sat", "--input", cnf, "--seed", sat_seed, "--samples", "50"],
                         pin["sat"][name].get("verify")))
    for kind in ("dual", "itemset"):
        spec = inputs[kind]
        extra = ["--theta", str(spec["theta"])] if kind == "itemset" else []
        source, out = ["--input", str(work / spec["input"])], work / f"{kind}.trees"
        gens.append((f"gen {kind}", ["gen", kind, *source, *extra, "--out", str(out)],
                     out, spec["trees"], seeded.get(f"{kind}_dataset_crc32")))
        verifies.append((f"verify {kind}", ["verify", kind, *source, *extra], spec["verify"]))

    def cycle() -> None:
        # (checkout, reference) CPU time sums over the gen runs and over all runs
        gen_cpu, op_cpu = [0.0, 0.0], [0.0, 0.0]

        def add(total: list[float], run: Launch, ref: Launch) -> None:
            total[0] += run.cpu
            total[1] += ref.cpu

        for name, args, out, trees, digest in gens:
            ref_out = out.with_name("reference-" + out.name)
            out.unlink(missing_ok=True)
            run, ref = pairing.launch(args, work, ref_args=[*args[:-1], str(ref_out)])
            tally.judge(name, run, check_gen_output(out, trees, digest), ref)
            add(gen_cpu, run, ref)
            add(op_cpu, run, ref)
            tally.rss.append((run.rss_mb, ref.rss_mb))
        for name, args, expected in verifies:
            run, ref = pairing.launch(args, work)
            tally.judge(name, run, line_problems(run, expected), ref)
            add(op_cpu, run, ref)
            tally.rss.append((run.rss_mb, ref.rss_mb))
        for stream in inputs["streams"] * STREAM_PASSES:
            args = ["iso", "--mode", "unordered", "--target", stream["target"]]
            run, ref = pairing.launch(args, work, stdin=work / stream["patterns"])
            tally.judge(stream["name"], run, line_problems(run, stream["answers"]), ref)
            add(op_cpu, run, ref)
            tally.rss.append((run.rss_mb, ref.rss_mb))
            tally.gaps.extend(run.cpu_gaps_ms())
            tally.ref_gaps.extend(ref.cpu_gaps_ms())
        tally.setup.append(tuple(gen_cpu))
        tally.wall.append(tuple(op_cpu))

    # the probes are untimed and give the same outcome every time: run once
    for probe in inputs["probes"]:
        args = ["iso", "--mode", probe["mode"], "--pattern", probe["pattern"], "--target", probe["target"]]
        tally.probe(probe["name"], launch(args, work), ["true"])
    until_spent(seconds, cycle)
    return tally
