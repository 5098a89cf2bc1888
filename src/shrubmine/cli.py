"""Command-line interface.

One solution per line on stdout, streamed and flushed as found;
diagnostics and run summaries on stderr.  Exit codes: 0 success, 1 a
verification check failed, 2 input, file or parse error, 3 constraint
violation, 4 size-guard refusal.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .errors import ConstraintError, SizeGuardError, TreeParseError
from .trees import Dataset, canonical_form, load_dataset, parse_tree, serialize_tree

# Each subcommand imports the layers it uses, so that start-up loads only
# those: ``mine`` never loads the engine, the oracles or the gadgets, and
# ``iso`` loads only the engine.


def _read_text(path: str) -> str:
    """The whole UTF-8 input at ``path``, or stdin for ``-``.

    The bytes are decoded here, strictly, whatever error handler the
    interpreter gave stdin.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise ValueError(
            f"{name}: not {exc.encoding} text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None


def _data_lines(path: str) -> list[str]:
    """The lines at ``path`` (``-`` for stdin) that are neither blank nor comments."""
    return [ln for ln in _read_text(path).splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def _sniff_header(lines: list[str]) -> dict[str, str]:
    found = {}
    for line in lines:
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        body = stripped[1:].strip()
        for key in ("mode", "theta"):
            if body.startswith(key + "="):
                found.setdefault(key, body[len(key) + 1 :].strip())
    return found


def _load_dataset_arg(args, default_mode: str = "unordered") -> tuple[Dataset, dict[str, str]]:
    lines = _read_text(args.input).splitlines()
    header = _sniff_header(lines)
    mode = getattr(args, "mode", None) or header.get("mode") or default_mode
    if mode not in ("ordered", "unordered"):
        raise TreeParseError(f"unknown mode {mode!r} in dataset header")
    return load_dataset(lines, mode), header


def _resolve_theta(args, header: dict[str, str]) -> int:
    if args.theta is not None:
        return args.theta
    if "theta" in header:
        try:
            return int(header["theta"])
        except ValueError:
            raise TreeParseError(f"bad theta header {header['theta']!r}") from None
    return 1


def _emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _pattern_lines(args) -> list[str]:
    if getattr(args, "pattern", None) is not None:
        return [args.pattern]
    return _data_lines("-")


def cmd_mine(args) -> int:
    from .mining import MiningConfig, enumerate_closed

    dataset, header = _load_dataset_arg(args)
    theta = _resolve_theta(args, header)
    config = MiningConfig(theta=theta, max_solutions=args.limit)
    emitted = 0

    def sink(node) -> None:
        nonlocal emitted
        _emit(node.canon)
        emitted += 1

    try:
        summary = enumerate_closed(dataset, config, sink)
    except BrokenPipeError:
        print(f"count={emitted} terminated=pipe-closed", file=sys.stderr)
        return 0
    print(
        f"count={summary.count} max_delay_ms={summary.max_delay_seconds * 1000:.3f}",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    from .oracle import brute_closed, brute_frequent, brute_maximal, brute_mct, brute_mis

    if args.what == "mis":
        from .gadgets import parse_hypergraph

        h = parse_hypergraph(_read_text(args.input))
        for group in sorted(tuple(sorted(s)) for s in brute_mis(h)):
            _emit(" ".join(map(str, group)))
        return 0
    dataset, header = _load_dataset_arg(args)
    if args.what == "mct":
        found = brute_mct(dataset)
    else:
        theta = _resolve_theta(args, header)
        fn = {"frequent": brute_frequent, "closed": brute_closed, "maximal": brute_maximal}[args.what]
        found = fn(dataset, theta)
    for key in sorted(found):
        _emit(key)
    return 0


def cmd_mct(args) -> int:
    from .signatures import maximal_common_tree

    dataset, _ = _load_dataset_arg(args)
    if dataset.mode != "unordered":
        raise ConstraintError(
            "the signature algebra defines maximal common trees for unordered "
            "datasets; use 'oracle mct' for ordered ones"
        )
    if len(dataset) == 0:
        raise TreeParseError("cannot take the maximal common tree of an empty dataset")
    result = maximal_common_tree(list(dataset.trees))
    _emit(canonical_form(result, "unordered"))
    return 0


def cmd_support(args) -> int:
    from .isomorphism import support_set

    dataset, _ = _load_dataset_arg(args)
    for line in _pattern_lines(args):
        pattern = parse_tree(line)
        sup = support_set(pattern, dataset)
        _emit(" ".join([str(sup.count)] + [str(i) for i in sup.indices]))
    return 0


def cmd_iso(args) -> int:
    from .isomorphism import subtree_iso

    target = parse_tree(args.target)
    for line in _pattern_lines(args):
        pattern = parse_tree(line)
        _emit("true" if subtree_iso(pattern, target, args.mode) else "false")
    return 0


def cmd_canon(args) -> int:
    lines = [args.pattern] if args.pattern is not None else _data_lines(args.input)
    for line in lines:
        _emit(canonical_form(parse_tree(line), args.mode))
    return 0


def _write_dataset(path: str | None, dataset: Dataset, theta: int) -> None:
    lines = [f"# mode={dataset.mode}", f"# theta={theta}"]
    lines.extend(serialize_tree(t) for t in dataset.trees)
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_solutions(path: str | None, trees, mode: str) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        for t in trees:
            fh.write(canonical_form(t, mode) + "\n")


def _gadget(args):
    """The gadget instance of kind ``args.kind`` built from ``args.input``."""
    from .gadgets import (
        gen_dualization_instance,
        gen_itemset_instance,
        maximal_frequent_itemsets,
        parse_dimacs,
        parse_hypergraph,
        parse_transactions,
        sat_gadget,
    )

    text = _read_text(args.input)
    if args.kind == "dual":
        return gen_dualization_instance(parse_hypergraph(text))
    if args.kind == "sat":
        import warnings

        # the small-instance warning as one line, without the source line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            instance = sat_gadget(parse_dimacs(text))
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return instance
    db = parse_transactions(text)
    theta = args.theta if args.theta is not None else 1
    if getattr(args, "solutions", None) is not None:
        solutions = [frozenset(int(tok) for tok in ln.split()) for ln in _data_lines(args.solutions)]
    else:
        solutions = sorted(maximal_frequent_itemsets(db, theta), key=sorted)
    return gen_itemset_instance(db, solutions, theta)


def cmd_gen(args) -> int:
    instance = _gadget(args)
    if args.kind == "dual":
        _write_dataset(args.out, instance.dataset, theta=len(instance.dataset))
        _write_solutions(args.solutions_out, [instance.w_tree], "ordered")
    elif args.kind == "sat":
        _write_dataset(args.out, instance.dataset, theta=instance.theta)
        _write_solutions(args.solutions_out, instance.known_solutions, "unordered")
    else:
        _write_dataset(args.out, instance.dataset, theta=instance.theta)
        _write_solutions(args.solutions_out, instance.s_set, "ordered")
    return 0


def cmd_verify(args) -> int:
    from .gadgets import verify_gadget

    report = verify_gadget(args.kind, _gadget(args), seed=args.seed, samples=args.samples)
    for line in report.lines():
        _emit(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrubmine",
        description="Mine closed frequent patterns in height-bounded rooted trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_flags(p, with_theta=True):
        p.add_argument("--input", required=True, help="dataset file, or - for stdin")
        p.add_argument("--mode", choices=["ordered", "unordered"])
        if with_theta:
            p.add_argument("--theta", type=int, default=None, help="support threshold (default: header, else 1)")

    p_mine = sub.add_parser("mine", help="reverse-search enumeration")
    mine_sub = p_mine.add_subparsers(dest="what", required=True)
    p_closed = mine_sub.add_parser("closed", help="closed frequent unordered trees, height <= 2")
    add_dataset_flags(p_closed)
    p_closed.add_argument("--limit", type=int, default=None, help="stop after this many solutions")
    p_closed.set_defaults(func=cmd_mine)

    p_oracle = sub.add_parser("oracle", help="brute-force reference miners")
    p_oracle.add_argument("what", choices=["frequent", "closed", "maximal", "mct", "mis"])
    add_dataset_flags(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_mct = sub.add_parser("mct", help="maximal common tree of an unordered height-<=2 dataset")
    add_dataset_flags(p_mct, with_theta=False)
    p_mct.set_defaults(func=cmd_mct)

    p_support = sub.add_parser("support", help="count dataset trees containing a pattern")
    add_dataset_flags(p_support, with_theta=False)
    p_support.add_argument("--pattern", help="pattern encoding (default: one per stdin line)")
    p_support.set_defaults(func=cmd_support)

    p_iso = sub.add_parser("iso", help="decide subtree containment")
    p_iso.add_argument("--pattern", help="pattern encoding (default: one per stdin line)")
    p_iso.add_argument("--target", required=True)
    p_iso.add_argument("--mode", choices=["ordered", "unordered"], required=True)
    p_iso.set_defaults(func=cmd_iso)

    p_canon = sub.add_parser("canon", help="canonical form of tree encodings")
    p_canon.add_argument("--pattern", help="tree encoding (default: read --input lines)")
    p_canon.add_argument("--input", default="-", help="file of tree lines, or - for stdin")
    p_canon.add_argument("--mode", choices=["ordered", "unordered"], required=True)
    p_canon.set_defaults(func=cmd_canon)

    p_gen = sub.add_parser("gen", help="generate reduction gadget datasets")
    p_gen.add_argument("kind", choices=["dual", "sat", "itemset"])
    p_gen.add_argument("--input", required=True, help="hypergraph / DIMACS CNF / transactions file")
    p_gen.add_argument("--out", default=None, help="dataset output path (default: stdout)")
    p_gen.add_argument("--solutions-out", default=None, help="write the declared solution set here")
    p_gen.add_argument("--solutions", default=None, help="itemset gadget: file of known maximal itemsets")
    p_gen.add_argument("--theta", type=int, default=None, help="itemset gadget: support threshold")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="replay gadget facts on an instance")
    p_verify.add_argument("kind", choices=["dual", "sat", "itemset"])
    p_verify.add_argument("--input", required=True, help="hypergraph / DIMACS CNF / transactions file")
    p_verify.add_argument("--theta", type=int, default=None, help="itemset gadget: support threshold")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled assignments")
    p_verify.add_argument("--samples", type=int, default=50, help="assignments to sample (sat)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # consumer went away; make sure the interpreter exit stays quiet
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
