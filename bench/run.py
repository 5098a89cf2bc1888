"""shrubmine benchmark.

    python3 bench/run.py --workload mine-dup --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported and launched
from the checkout's ``src``.  With ``--trace 0`` the shrubmine CLI runs as
child processes, each timed operation paired with the same operation on the
frozen reference copy in ``bench/reference`` (see ``workloads``), and the
end-to-end metrics are printed in reference seconds; with ``--trace 1``
an in-process replay times each module's public functions and prints the
per-layer metrics.  Lines starting with ``#`` explain the numbers; the last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, their parameters and pinned outputs live in ``bench/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

# Keep this process small: a child's os.wait4 RSS reading is at least the
# launching process's own peak, and site packages alone add about 5 MB.
if not sys.flags.no_site:
    os.execv(sys.executable, [sys.executable, "-S", *sys.argv])

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mine-dup", "mine-distinct", "gadgets")
#: Every run must end well inside the three minutes a caller waits.
HARD_LIMIT_S = 170


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shrubmine" / "cli.py").is_file():
        print(f"error: no shrubmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

    # raising here unwinds through launch(), which kills and reaps its child
    def stop(signum, frame):
        raise SystemExit(f"benchmark run stopped by {signal.Signals(signum).name}")

    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(HARD_LIMIT_S)

    import workloads

    work = workloads.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # untimed: the first launch in a fresh checkout compiles the bytecode
        for src in (ROOT / "src", workloads.REFERENCE):
            workloads.launch(["canon", "--pattern", "()", "--mode", "unordered"], work, src=src)
        if args.trace:
            # imports the package, which the untraced benchmark process must not (see workloads)
            import layers

            result = layers.run(args.workload, args.seed, work)
        elif args.workload == "gadgets":
            result = workloads.run_gadgets(args.seed, args.seconds, work)
        else:
            result = workloads.run_mine(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)

    metrics = result.metrics()
    for line in result.report():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
