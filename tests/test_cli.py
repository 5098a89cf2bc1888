import io
import os
import subprocess
import sys
import tracemalloc

import pytest

import shrubmine
from shrubmine.cli import main

from reference import cyclic_34_cnf
from shrubmine.gadgets import format_dimacs


def run_cli(capsys, *argv, stdin: str | None = None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
        try:
            code = main(list(argv))
        finally:
            sys.stdin = old
    else:
        code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_tree_file(tmp_path):
    path = tmp_path / "d.trees"
    path.write_text("# mode=unordered\n((()))\n((()()))\n")
    return str(path)


def test_mine_closed_example(capsys, two_tree_file):
    code, out, err = run_cli(capsys, "mine", "closed", "--input", two_tree_file, "--theta", "2")
    assert code == 0
    assert out == "((()))\n"
    assert err.startswith("count=1 max_delay_ms=")


def test_mine_closed_pair_signature_variant(capsys, tmp_path):
    path = tmp_path / "d.trees"
    path.write_text("((())(()))\n((()())(()()))\n")
    code, out, _ = run_cli(capsys, "mine", "closed", "--input", path.as_posix(), "--theta", "2")
    assert code == 0
    assert out == "((())(()))\n"


def test_mine_defaults_theta_from_header(capsys, tmp_path):
    path = tmp_path / "d.trees"
    path.write_text("# mode=unordered\n# theta=2\n((()))\n((()()))\n")
    code, out, _ = run_cli(capsys, "mine", "closed", "--input", path.as_posix())
    assert code == 0
    assert out == "((()))\n"


def test_mine_matches_oracle_closed(capsys, two_tree_file):
    for theta in ("1", "2"):
        code, mined, _ = run_cli(
            capsys, "mine", "closed", "--input", two_tree_file, "--theta", theta
        )
        assert code == 0
        code, oracled, _ = run_cli(
            capsys, "oracle", "closed", "--input", two_tree_file, "--theta", theta
        )
        assert code == 0
        assert sorted(mined.splitlines()) == sorted(oracled.splitlines())


def test_mine_is_deterministic(capsys, two_tree_file):
    _, first, _ = run_cli(capsys, "mine", "closed", "--input", two_tree_file)
    _, second, _ = run_cli(capsys, "mine", "closed", "--input", two_tree_file)
    assert first == second


def test_mine_limit(capsys, two_tree_file):
    code, out, _ = run_cli(
        capsys, "mine", "closed", "--input", two_tree_file, "--theta", "1", "--limit", "1"
    )
    assert code == 0
    assert len(out.splitlines()) == 1
    code, out, err = run_cli(
        capsys, "mine", "closed", "--input", two_tree_file, "--theta", "1", "--limit", "0"
    )
    assert code == 0
    assert out == ""
    assert err.startswith("count=0 ")
    code, out, err = run_cli(
        capsys, "mine", "closed", "--input", two_tree_file, "--theta", "1", "--limit", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_missing_input_file_exit_code(capsys, tmp_path):
    missing = (tmp_path / "absent.trees").as_posix()
    code, out, err = run_cli(capsys, "mine", "closed", "--input", missing)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "absent.trees" in err


def test_non_utf8_input_exit_code(capsys, tmp_path, monkeypatch):
    data = b"# mode=unordered \xe9\n(())\n"
    path = tmp_path / "latin1.trees"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "mine", "closed", "--input", path.as_posix())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert path.as_posix() in err and "offset 17" in err
    # a C/POSIX locale gives stdin the surrogateescape handler
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, "mine", "closed", "--input", "-")
        assert code == 2
        assert out == ""
        assert err.startswith("error: <stdin>: ") and "offset 17" in err


def test_parse_error_offset_counts_characters(capsys):
    # U+3000 is one character of whitespace but three bytes in UTF-8, so the
    # byte offset of 'x' would be 4
    code, out, err = run_cli(capsys, "canon", "--mode", "ordered", "--pattern", "\u3000(x)")
    assert code == 2
    assert out == ""
    assert err == "error: unexpected character 'x' (offset 2)\n"


def test_mine_output_is_self_consumable(capsys, two_tree_file):
    _, out, _ = run_cli(capsys, "mine", "closed", "--input", two_tree_file)
    code, support_lines, _ = run_cli(
        capsys, "support", "--input", two_tree_file, stdin=out
    )
    assert code == 0
    assert len(support_lines.splitlines()) == len(out.splitlines())
    for line in support_lines.splitlines():
        count, *indices = line.split()
        assert int(count) == len(indices)
    code, iso_lines, _ = run_cli(
        capsys, "iso", "--target", "((()()))", "--mode", "unordered", stdin=out
    )
    assert code == 0
    assert set(iso_lines.splitlines()) <= {"true", "false"}


def test_mine_rejects_ordered_mode(capsys, two_tree_file):
    code, _, err = run_cli(
        capsys, "mine", "closed", "--input", two_tree_file, "--mode", "ordered"
    )
    assert code == 3
    assert "unordered" in err


def test_mine_rejects_tall_trees_naming_index(capsys, tmp_path):
    path = tmp_path / "tall.trees"
    path.write_text("(())\n(((())))\n")
    code, _, err = run_cli(capsys, "mine", "closed", "--input", path.as_posix())
    assert code == 3
    assert "tree 1" in err


def test_parse_error_exit_code_names_line(capsys, tmp_path):
    path = tmp_path / "bad.trees"
    path.write_text("(())\n(()\n")
    code, _, err = run_cli(capsys, "mine", "closed", "--input", path.as_posix())
    assert code == 2
    assert "line 2" in err


def test_malformed_integer_fields_name_their_line(capsys, tmp_path):
    good = tmp_path / "good.db"
    good.write_text("# n=4\n1 2\n")
    cases = {
        "a b\n1 2\n": ["oracle", "mis", "--input"],
        "p cnf x 2\n1 0\n2 0\n": ["verify", "sat", "--input"],
        "# n=abc\n1 2\n": ["verify", "itemset", "--input"],
        "1 x\n": ["gen", "itemset", "--input", good.as_posix(), "--solutions"],
    }
    bad = tmp_path / "bad.txt"
    for text, argv in cases.items():
        bad.write_text(text)
        code, _, err = run_cli(capsys, *argv, bad.as_posix())
        assert code == 2, (argv, err)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "line 1" in errors[0], (argv, err)


def test_size_guard_exit_code(capsys, tmp_path):
    path = tmp_path / "wide.trees"
    path.write_text("(" + "()" * 40 + ")\n")
    code, _, err = run_cli(capsys, "oracle", "closed", "--input", path.as_posix())
    assert code == 4
    assert "cap" in err


def test_subset_sweep_guard_precedes_any_bitmask(capsys, tmp_path):
    huge = 1 << 26  # its bitmask alone would take 8 MB
    hg = tmp_path / "big.hg"
    hg.write_text(f"{huge} 1\n{huge}\n")
    db = tmp_path / "big.db"
    db.write_text(f"{huge}\n" * 3)
    cases = [
        (["oracle", "mis", "--input", hg.as_posix()], "vertices"),
        (["gen", "itemset", "--input", db.as_posix(), "--out", (tmp_path / "o").as_posix()], "items"),
        (["verify", "itemset", "--input", db.as_posix()], "items"),
    ]
    for argv, elements in cases:
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (4, ""), (argv, err)
        assert err == f"error: {huge} {elements} exceeds the brute-force cap of 20\n"
        assert peak < 6_000_000, (argv, peak)


def test_oracle_mis_example(capsys, tmp_path):
    path = tmp_path / "h.hg"
    path.write_text("4 2\n1 2\n3 4\n")
    code, out, _ = run_cli(capsys, "oracle", "mis", "--input", path.as_posix())
    assert code == 0
    assert out.splitlines() == ["1 3", "1 4", "2 3", "2 4"]


def test_oracle_mct_and_mct_agree(capsys, two_tree_file):
    code, brute_out, _ = run_cli(capsys, "oracle", "mct", "--input", two_tree_file)
    assert code == 0
    code, algebra_out, _ = run_cli(capsys, "mct", "--input", two_tree_file)
    assert code == 0
    assert brute_out == algebra_out == "((()))\n"


def test_mct_rejects_ordered_datasets(capsys, two_tree_file):
    code, _, err = run_cli(capsys, "mct", "--input", two_tree_file, "--mode", "ordered")
    assert code == 3
    assert "oracle mct" in err


def test_iso_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "iso", "--pattern", "(())", "--target", "((()))", "--mode", "unordered"
    )
    assert code == 0
    assert out == "true\n"
    code, out, _ = run_cli(
        capsys, "iso", "--pattern", "(()())", "--target", "((()))", "--mode", "unordered"
    )
    assert out == "false\n"


def test_support_subcommand_with_flag(capsys, two_tree_file):
    code, out, _ = run_cli(
        capsys, "support", "--input", two_tree_file, "--pattern", "(()())"
    )
    assert code == 0
    assert out == "1 1\n"


def test_canon_subcommand(capsys):
    code, out, _ = run_cli(capsys, "canon", "--pattern", "(()(()))", "--mode", "unordered")
    assert code == 0
    assert out == "((())())\n"
    code, out, _ = run_cli(capsys, "canon", "--mode", "ordered", stdin="(()(()))\n()\n")
    assert out == "(()(()))\n()\n"


def test_canon_deep_path_in_linear_memory(capsys):
    # keeping every node's encoding alive held about 66 MB at this depth
    depth = 8000
    path = "(" * depth + ")" * depth
    for mode in ("ordered", "unordered"):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "canon", "--pattern", path, "--mode", mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, path + "\n", "")
        assert peak < 8_000_000


def test_gen_dual_writes_loadable_dataset(capsys, tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("4 2\n1 2\n3 4\n")
    out_path = tmp_path / "dual.trees"
    sols = tmp_path / "dual.solutions"
    code, _, _ = run_cli(
        capsys, "gen", "dual", "--input", hg.as_posix(),
        "--out", out_path.as_posix(), "--solutions-out", sols.as_posix(),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# mode=ordered"
    assert lines[1] == "# theta=3"
    assert len(lines) == 5
    assert sols.read_text() == "((())(())(()))\n"


def test_gen_dual_universal_vertex_exit_code(capsys, tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("3 2\n1 2\n1 3\n")
    code, _, err = run_cli(capsys, "gen", "dual", "--input", hg.as_posix())
    assert code == 3
    assert "every hyperedge" in err


def test_dual_without_vertices_exit_code(capsys, tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("0 0\n")
    for cmd in ("gen", "verify"):
        code, out, err = run_cli(capsys, cmd, "dual", "--input", hg.as_posix())
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "no vertices" in err
        assert err.count("\n") == 1


def test_sat_without_clauses_exit_code(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 0 0\n")
    for cmd in ("gen", "verify"):
        code, out, err = run_cli(capsys, cmd, "sat", "--input", cnf.as_posix())
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "no clauses" in err
        assert err.count("\n") == 1


def test_sat_small_instance_warns_in_one_line(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 -2 3 0\n")
    code, out, err = run_cli(capsys, "gen", "sat", "--input", cnf.as_posix())
    assert code == 0
    assert out.startswith("# mode=unordered\n")
    assert err.startswith("warning: instance has n=3, m=1;")
    assert err.count("\n") == 1


def test_gen_sat_then_mineable_header(capsys, tmp_path):
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text(format_dimacs(cyclic_34_cnf()))
    out_path = tmp_path / "sat.trees"
    code, _, _ = run_cli(
        capsys, "gen", "sat", "--input", cnf_path.as_posix(), "--out", out_path.as_posix()
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "# mode=unordered"
    assert lines[1] == "# theta=2"
    assert len(lines) == 2 + 12 + 2


def test_gen_sat_rejects_non_34(capsys, tmp_path):
    cnf_path = tmp_path / "bad.cnf"
    cnf_path.write_text("p cnf 4 1\n1 2 3 4 0\n")
    code, _, err = run_cli(capsys, "gen", "sat", "--input", cnf_path.as_posix())
    assert code == 3
    assert "(3,4)" in err


def test_gen_itemset_and_verify(capsys, tmp_path):
    db = tmp_path / "t.db"
    db.write_text("# n=4\n1 2\n1 2 3\n2 3\n1\n")
    out_path = tmp_path / "items.trees"
    code, _, _ = run_cli(
        capsys, "gen", "itemset", "--input", db.as_posix(), "--theta", "2",
        "--out", out_path.as_posix(),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[:2] == ["# mode=ordered", "# theta=2"]
    assert len(lines) == 2 + 4 + 2
    code, out, _ = run_cli(
        capsys, "verify", "itemset", "--input", db.as_posix(), "--theta", "2"
    )
    assert code == 0
    assert all(line.startswith("check=") for line in out.splitlines())
    assert "status=fail" not in out


def test_gen_itemset_with_declared_solutions(capsys, tmp_path):
    db = tmp_path / "t.db"
    db.write_text("# n=4\n1 2\n1 2 3\n2 3\n1\n")
    known = tmp_path / "known.sets"
    known.write_text("1 2\n2 3\n")
    sols = tmp_path / "s.out"
    code, out, _ = run_cli(
        capsys, "gen", "itemset", "--input", db.as_posix(), "--theta", "2",
        "--solutions", known.as_posix(), "--solutions-out", sols.as_posix(),
    )
    assert code == 0
    # dataset went to stdout since --out was omitted
    lines = out.splitlines()
    assert lines[:2] == ["# mode=ordered", "# theta=2"]
    assert len(lines) == 2 + 4 + 2
    # declared solutions plus one spare tree
    assert sols.read_text().splitlines() == [
        "((())(())()())",
        "(()(())(())())",
        "((())(())(()))",
    ]


def test_oracle_frequent(capsys, two_tree_file):
    code, out, _ = run_cli(
        capsys, "oracle", "frequent", "--input", two_tree_file, "--theta", "2"
    )
    assert code == 0
    assert out.splitlines() == sorted(out.splitlines())
    assert set(out.splitlines()) == {"()", "(())", "((()))"}


def test_verify_dual_report(capsys, tmp_path):
    hg = tmp_path / "h.hg"
    hg.write_text("4 2\n1 2\n3 4\n")
    code, out, _ = run_cli(capsys, "verify", "dual", "--input", hg.as_posix())
    assert code == 0
    assert "maximal_common_trees=5" in out


def test_verify_sat_report(capsys, tmp_path):
    cnf_path = tmp_path / "f.cnf"
    cnf_path.write_text(format_dimacs(cyclic_34_cnf()))
    code, out, _ = run_cli(
        capsys, "verify", "sat", "--input", cnf_path.as_posix(), "--samples", "8"
    )
    assert code == 0
    assert "mismatches=0" in out


def test_verify_itemset_guard_exit_code(capsys, tmp_path):
    db = tmp_path / "t.db"
    db.write_text("# n=4\n1 2 3\n1 2 3\n")
    code, out, _ = run_cli(
        capsys, "verify", "itemset", "--input", db.as_posix(), "--theta", "2"
    )
    assert code == 1
    assert "status=skip" in out


def test_broken_pipe_is_quiet(capsys, two_tree_file, monkeypatch):
    class Snapping:
        def __init__(self):
            self.lines = 0

        def write(self, text):
            if "(" in text:
                self.lines += 1
                if self.lines > 1:
                    raise BrokenPipeError
            return len(text)

        def flush(self):
            pass

        def fileno(self):
            raise OSError("no real fd")

    monkeypatch.setattr(sys, "stdout", Snapping())
    code = main(["mine", "closed", "--input", two_tree_file, "--theta", "1"])
    assert code == 0
    err = capsys.readouterr().err
    assert "count=1" in err and "pipe-closed" in err


def test_unknown_flag_rejected(capsys, two_tree_file):
    with pytest.raises(SystemExit) as exc:
        main(["mine", "closed", "--input", two_tree_file, "--frobnicate"])
    assert exc.value.code == 2


def test_subcommands_load_only_their_layers(two_tree_file):
    probe = (
        "import sys\n"
        "from shrubmine.cli import main\n"
        "main(sys.argv[1:])\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('shrubmine.'))), file=sys.stderr)\n"
    )
    loaded = {
        ("mine", "closed", "--input", two_tree_file): "cli errors mining signatures trees",
        ("iso", "--pattern", "(())", "--target", "((()))", "--mode", "unordered"): "cli errors isomorphism trees",
        ("canon", "--pattern", "(())", "--mode", "ordered"): "cli errors trees",
    }
    for argv, layers in loaded.items():
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(shrubmine.__file__))},
        )
        last = done.stderr.splitlines()[-1]
        assert last == " ".join(f"shrubmine.{name}" for name in layers.split())
