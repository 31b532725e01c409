"""Exit codes, output schemas, and flag handling of the CLI."""

import argparse
import csv
import hashlib
import io
import json

import pytest

import ospcoho
from ospcoho import algebra, cli, cochains, engine, linalg, weightmod


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_audit_default(capsys):
    code, out = run_cli(capsys, "audit")
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "repaired-V"
    assert {"pair": "[A,B]", "from": "2H", "to": "-2H"} in data["changes"]
    assert {"pair": "[Y,A]", "from": "-B", "to": "B"} in data["changes"]
    assert data["jacobi_failures_printed"]


def test_audit_no_repair_lists_failures(capsys):
    code, out = run_cli(capsys, "audit", "--table", "printed", "--no-repair")
    assert code == 1
    data = json.loads(out)
    assert any(e["triple"] == ["A", "A", "B"]
               for e in data["jacobi_failures_printed"])


@pytest.mark.parametrize("argv, code, digest", [
    (["--table", "printed"], 1,
     "cd339ba4416f5fb999ea5ac0aee2fa7d29dc1b2f47212ff4e495aa36fee8d2a9"),
    (["--table", "printed", "--format", "csv"], 1,
     "9ab0f640abe3b6730e910dbbb1f01ca7606ffa0df899089521701743d66aa22d"),
    (["--table", "repaired"], 0,
     "4b060d72a74c40666fb1e95721fdc648cd5b57f3d575649298f135d1901dec8a"),
    (["--table", "repaired", "--format", "csv"], 0,
     "9c20cd96e495d50b9f48c576cadd6ce97531f66dad85a7b26af82924d031667c"),
], ids=["printed-json", "printed-csv", "repaired-json", "repaired-csv"])
def test_audit_no_repair_outputs_are_pinned(capsys, argv, code, digest):
    # the Jacobi failures each table's report lists, byte for byte
    got, out = run_cli(capsys, "audit", "--no-repair", *argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_audit_csv_format(capsys):
    code, out = run_cli(capsys, "audit", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {"pair": "[A,B]", "from": "2H", "to": "-2H"} in rows


def test_dims_match_exit_zero(capsys):
    code, out = run_cli(capsys, "dims", "--lambda", "0", "--mu", "1/2",
                        "--kmax", "3")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["computed"]["0"]["0"]["total"] == 1
    assert data["computed"]["1"]["0"]["total"] == 2


def test_dims_zero_table(capsys):
    code, out = run_cli(capsys, "dims", "--lambda", "1/3", "--mu", "0")
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == {"0": 0, "1": 0, "2": 0, "3": 0, "4": 0}


def test_dims_csv_grid(capsys):
    code, out = run_cli(capsys, "dims", "--grid", "pairs:0,1/2;1,1",
                        "--format", "csv", "--nmax", "2", "--wmax", "1/2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 3 * 3  # two pairs, n <= 2, w in {0, +-1/2}
    assert set(r["lambda"] for r in rows) == {"0", "1"}


def test_dims_requires_parameters(capsys):
    assert cli.main(["dims"]) == 2
    assert capsys.readouterr().err == (
        "ospcoho dims: provide --lambda/--mu or --grid\n")


def test_float_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dims", "--lambda", "0.5", "--mu", "1"])
    assert exc.value.code == 2


def test_grid_halfints_parser():
    pairs = cli.parse_grid("halfints:-1..0")
    assert len(pairs) == 9
    assert all(-1 <= a <= 0 and -1 <= b <= 0 for a, b in pairs)
    # a grid of more than GRID_MAX points is rejected for its point count
    # before any point is listed, and one of GRID_MAX points is listed
    assert cli.GRID_MAX == 255 ** 2
    with pytest.raises(argparse.ArgumentTypeError,
                       match="has 66049 points, above 65025"):
        cli.parse_grid("halfints:-64..64")
    assert len(cli.parse_grid("halfints:-64..63")) == 255 ** 2


def test_cocycles_ftilde(capsys):
    code, out = run_cli(capsys, "cocycles", "--kind", "ftilde", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["slots"]["B"] == "∂x^2"
    assert data["ratios_to_printed"]["B"] == "1"
    assert all(data["checks"].values())


def test_cocycles_h(capsys):
    code, out = run_cli(capsys, "cocycles", "--kind", "h",
                        "--lambda", "5/2")
    assert code == 0
    data = json.loads(out)
    assert data["slots"]["B"] == "θ"
    assert data["slots"]["H"] == "-1/2"
    assert data["slots"]["Y"] == "-x"


def test_cocycles_h_needs_lambda(capsys):
    assert cli.main(["cocycles", "--kind", "h"]) == 2
    assert capsys.readouterr().err == (
        "ospcoho cocycles: --kind h needs --lambda\n")


def test_cocycles_cup(capsys):
    code, out = run_cli(capsys, "cocycles", "--kind", "cup", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["gelfand_fuchs"]["C_k"] == "-1/4"
    assert all(data["checks"].values())


def test_cocycles_cup_builds_each_factor_once(capsys, monkeypatch):
    # the Gelfand-Fuchs check reads the Omega_k that the command built
    from ospcoho import cochains, engine
    counts = {}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("make_f_k", "make_h_lambda", "cup"):
        wrapped = counted(name, getattr(cochains, name))
        for module in (cochains, engine, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for k in (0, 2):
        counts.clear()
        code, out = run_cli(capsys, "cocycles", "--kind", "cup",
                            "--k", str(k))
        assert code == 0 and json.loads(out)["gelfand_fuchs"]["k"] == k
        assert counts == {"make_f_k": 1, "make_h_lambda": 1, "cup": 1}


def test_selftest_suite(capsys):
    code, out = run_cli(capsys, "selftest", "--suite", "algebra")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert any(r["name"] == "audit-finds-repaired-V"
               for r in data["results"])


def test_selftest_suite_names_agree():
    # the CLI offers exactly the engine's suites, and each one runs checks
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["selftest"]._actions
                 if a.dest == "suite")
    assert tuple(suite.choices) == cli.engine.SELFTEST_SUITES
    for name in suite.choices:
        if name != "all":
            assert cli.engine.selftest(name), name


def test_out_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli.main(["dims", "--lambda", "1", "--mu", "1",
                     "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["match"] is True


def test_threads_flag_same_output(capsys):
    code1, out1 = run_cli(capsys, "dims", "--grid", "pairs:0,1/2;1,1",
                          "--threads", "1", "--format", "csv",
                          "--nmax", "2", "--wmax", "0")
    code2, out2 = run_cli(capsys, "dims", "--grid", "pairs:0,1/2;1,1",
                          "--threads", "2", "--format", "csv",
                          "--nmax", "2", "--wmax", "0")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["dims", "--grid", "pairs:0"],
    ["dims", "--grid", "foo:1"],
    ["dims", "--grid", "halfints:0..x"],
    ["dims", "--grid", "pairs:"],
    ["dims", "--lambda", "0", "--mu", "1/2", "--kmax", "-5"],
    ["dims", "--lambda", "0", "--mu", "1/2", "--threads", "0"],
    ["cocycles", "--kind", "f", "--k", "-1"],
    ["dims", "--lambda", "0", "--mu", "1/2", "--wmax", "-1"],
    ["dims", "--lambda", "0", "--mu", "1/2", "--wmax", "1/3"],
    ["dims", "--lambda", "0", "--mu", "1/2", "--out", "/nonexistent/d/x.json"],
    ["selftest", "--out", "/nonexistent/d/x.json"],
    ["dims", "--grid", "halfints:1/3..1"],
    ["dims", "--grid", "halfints:0..3/4"],
    ["audit", "--table", "repaired"],
    # a flag that the command would ignore
    ["dims", "--grid", "pairs:0,1/2", "--lambda", "1", "--mu", "1"],
    ["dims", "--grid", "pairs:0,1/2", "--mu", "1"],
    ["cocycles", "--kind", "f", "--lambda", "1/3"],
    ["cocycles", "--kind", "cup", "--lambda", "0"],
    # a --kmax above K_MAX, and a point with no mu
    ["dims", "--lambda", "0", "--mu", "0",
     "--kmax", str(cli.engine.K_MAX + 1)],
    ["dims", "--lambda", "1/3"],
    # --k with --kind h, which has no k
    ["cocycles", "--kind", "h", "--lambda", "0", "--k", "3"],
    ["cocycles", "--kind", "h", "--lambda", "0", "--k", "0"],
    # a weight window wider than W_MAX
    ["dims", "--lambda", "0", "--mu", "1/2", "--wmax", "1000000"],
    ["dims", "--lambda", "0", "--mu", "1/2",
     "--wmax", f"{2 * cli.engine.W_MAX + 1}/2"],
    # halfints grids of 5.8 million points and of one row past GRID_MAX,
    # rejected before they are listed
    ["dims", "--grid", "halfints:-600..600"],
    ["dims", "--grid", "halfints:-64..64"],
    # a grid bound that is no rational, and an --out that is a directory
    ["dims", "--grid", "halfints:a..b"],
    ["dims", "--lambda", "0", "--mu", "0", "--out", "/"],
    ["selftest", "--out", "/"],
])
def test_bad_input_exits_2_with_one_line(capsys, monkeypatch, argv):
    # bad input is rejected before any computation, an unwritable --out
    # included: the self-test suites, the grid and the cocycles are never
    # built
    def never(*args, **kwargs):
        raise AssertionError("computed before rejecting the input")
    monkeypatch.setattr(cli.engine, "selftest", never)
    monkeypatch.setattr(cli.engine, "grid_reports", never)
    monkeypatch.setattr(cli.engine, "gelfand_fuchs_check", never)
    for name in ("make_h_lambda", "make_f_k", "make_ftilde_k"):
        monkeypatch.setattr(cli, name, never)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ospcoho {argv[0]}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, prefix", [
    (["dims", "--nmax", "7"], "ospcoho dims: "),
    (["dims", "--lambda", "0.5", "--mu", "1"], "ospcoho dims: "),
    (["dims", "--threads", "x"], "ospcoho dims: "),
    (["cocycles", "--k", "1"], "ospcoho cocycles: "),
    (["nosuchcommand"], "ospcoho: "),
    ([], "ospcoho: "),
    # values that are no exact rational, and an int in exponent form
    (["dims", "--lambda", "nan", "--mu", "1"], "ospcoho dims: "),
    (["dims", "--lambda", "inf", "--mu", "1"], "ospcoho dims: "),
    (["dims", "--lambda", "1/-2", "--mu", "1"], "ospcoho dims: "),
    (["cocycles", "--kind", "h", "--lambda", "nan"], "ospcoho cocycles: "),
    (["dims", "--lambda", "0", "--mu", "0", "--kmax", "1e3"],
     "ospcoho dims: "),
])
def test_parser_errors_exit_2_with_one_line(capsys, argv, prefix):
    # argparse's own errors: no usage block, the same one-line form as
    # the checks main() makes
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    assert "Traceback" not in captured.err


def test_zero_denominator_is_named(capsys):
    assert cli.main(["dims", "--grid", "pairs:1/0,1"]) == 2
    assert capsys.readouterr().err == (
        "ospcoho dims: '1/0': zero denominator\n")
    with pytest.raises(SystemExit):
        cli.main(["dims", "--lambda", "1/0", "--mu", "1"])
    assert capsys.readouterr().err == (
        "ospcoho dims: argument --lambda: '1/0': zero denominator\n")


def test_depth_at_the_cap_is_accepted(capsys, monkeypatch):
    seen = []

    def reports(pairs, K, **kwargs):
        seen.append(K)
        return []
    monkeypatch.setattr(cli.engine, "grid_reports", reports)
    K_MAX = cli.engine.K_MAX
    assert cli.main(["dims", "--lambda", "0", "--mu", "0",
                     "--kmax", str(K_MAX)]) == 0
    # a point's own guard depth ceil|p| + 1 is not capped, at p >= 0
    # nor at p < 0 with 2p an integer, where the weight-0 slice holds
    # every k <= K of two families and none at m = 0
    assert cli.main(["dims", "--lambda", "0", "--mu", str(K_MAX)]) == 0
    for lam in ("16383", "16384", "32767/2", "10000000"):
        assert cli.main(["dims", "--lambda", lam, "--mu", "0"]) == 0
    assert seen == [K_MAX] + [None] * 5
    # and so is the widest weight window, at the deepest truncation
    assert cli.main(["dims", "--lambda", "0", "--mu", "0",
                     "--kmax", str(K_MAX),
                     "--wmax", str(cli.engine.W_MAX)]) == 0
    assert seen == [K_MAX] + [None] * 5 + [K_MAX]


@pytest.mark.parametrize("argv, depths", [
    (["dims", "--lambda", "10000001/3", "--mu", "1/7", "--nmax", "1",
      "--wmax", "0"], {"3333335"}),
    (["dims", "--grid", "pairs:0,1/2;0,200", "--nmax", "1"], {"3", "201"}),
])
def test_a_far_point_is_computed_at_its_own_guard_depth(capsys, argv,
                                                        depths):
    # guard depths ceil|p| + 1 of 3,333,335 and 201: A is onto by a
    # proof, so no slice is scanned for it, and every point matches
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert {row[2] for row in rows} == depths
    assert all(row[-1] == "True" for row in rows)


@pytest.mark.parametrize("cmd, flag, value", [
    (["dims", "--mu", "1", "--nmax", "2", "--wmax", "1/2"], "--lambda",
     "-1/2"),
    (["dims", "--lambda", "1", "--nmax", "1", "--wmax", "0"], "--mu", "-3/2"),
    (["cocycles", "--kind", "h"], "--lambda", "-1/2"),
])
def test_negative_fraction_may_follow_its_flag(capsys, cmd, flag, value):
    # argparse alone reads "-1/2" as an option; the output must be the
    # one of the joined form "--lambda=-1/2", byte for byte
    spaced = run_cli(capsys, *cmd, flag, value)
    joined = run_cli(capsys, *cmd, f"{flag}={value}")
    assert spaced == joined and spaced[0] == 0
    assert f'"{value}"' in spaced[1]


def test_usage_error_leaves_out_file_alone(tmp_path, capsys):
    # a usage error creates no --out file and truncates no existing one
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        assert cli.main(["dims", "--lambda", "0", "--mu", "1/2",
                         "--kmax", "-5", "--out", str(path)]) == 2
    assert not new.exists() and old.read_text() == "kept\n"
    assert cli.main(["selftest", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == (f"ospcoho selftest: cannot write {tmp_path}: "
                       "Is a directory")


def test_dims_mismatch_exits_1(capsys, monkeypatch):
    wrong = {n: 7 for n in range(5)}
    monkeypatch.setattr(cli.engine, "predict_proposition",
                        lambda lam, mu, nmax=4: wrong)
    code, out = run_cli(capsys, "dims", "--lambda", "1", "--mu", "1",
                        "--threads", "1")
    assert code == 1
    assert json.loads(out)["match"] is False


def test_cocycles_no_cocycle_exits_1(capsys, monkeypatch):
    def fail(k):
        raise cochains.NoCocycle("expected a 2-dimensional cocycle space")
    monkeypatch.setattr(cli, "make_f_k", fail)
    assert cli.main(["cocycles", "--kind", "f", "--k", "1"]) == 1
    assert capsys.readouterr().err.startswith("ospcoho cocycles: expected")


def test_audit_without_consistent_repair_exits_1(capsys, monkeypatch):
    def fail():
        raise cli.algebra.NoConsistentRepair("no variant passes")
    monkeypatch.setattr(cli.engine, "run_audit", fail)
    assert cli.main(["audit"]) == 1


def test_selftest_reports_a_raising_suite_as_a_failed_check(capsys,
                                                            monkeypatch):
    # with each composed row's first term dropped, the audit finds no
    # repair and the cocycle templates no solution; each suite that raises
    # ends in a failed check carrying the error's line, and the JSON is
    # still printed with exit code 1
    from ospcoho import weightmod
    compose = weightmod._compose

    def dropped(first, second):
        return compose([row[1:] for row in first], second)

    monkeypatch.setattr(weightmod, "_compose", dropped)
    code, out = run_cli(capsys, "selftest")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    failed = {r["name"]: r["detail"] for r in data["results"] if not r["ok"]}
    assert failed["algebra-suite-ran"].startswith("NoConsistentRepair: ")
    assert failed["complex-suite-ran"].startswith("NoCocycle: ")
    assert "table-action-equals-realization" in failed
    assert all("\n" not in detail for detail in failed.values())


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


DIMS = ["dims", "--lambda", "0", "--mu", "1/2"]
TWO_POINTS = ["dims", "--grid", "pairs:0,1/2;1,1", "--threads", "2"]


@pytest.mark.parametrize("argv, target, name, value", [
    (DIMS, weightmod.TruncatedDlm, "check_a_onto", lambda self: False),
    (TWO_POINTS, weightmod.TruncatedDlm, "check_a_onto",
     lambda self: False),
    (DIMS, linalg, "quotient_dim",
     _raise(linalg.NotContained("quotient by a non-subspace"))),
    (["audit"], engine, "run_audit",
     _raise(algebra.NoConsistentRepair("no variant passes"))),
    (["cocycles", "--kind", "f", "--k", "1"], cli, "make_f_k",
     _raise(cochains.NoCocycle("expected a 2-dimensional cocycle space"))),
], ids=["a-not-onto", "a-not-onto-2-workers", "not-contained",
        "no-consistent-repair", "no-cocycle"])
def test_failed_checks_exit_1_with_one_line(tmp_path, capsys, monkeypatch,
                                            argv, target, name, value):
    # an exact check that fails on the way is a mismatch: one line
    # `ospcoho <cmd>: <message>`, exit 1, and no output, on stdout or in
    # --out; with two CPUs, the 2-worker case raises in a pool worker
    monkeypatch.setattr(target, name, value)
    out = tmp_path / "out"
    for extra in ([], ["--out", str(out)]):
        assert cli.main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"ospcoho {argv[0]}: ")
        assert not out.exists()


def test_failed_exact_checks_are_mismatches():
    # the exceptions that mean "an exact check failed" share one base,
    # which the CLI maps to exit 1; API misuse does not
    for exc in (algebra.NoConsistentRepair, cochains.SolveFailed,
                cochains.NoCocycle, engine.NotACocycle,
                engine.HypothesisViolated, engine.NotProportional,
                linalg.NotContained, weightmod.NonIntegralScale):
        assert issubclass(exc, ospcoho.Mismatch), exc
    for exc in (weightmod.TruncationViolation, cochains.TypeMismatch):
        assert not issubclass(exc, ospcoho.Mismatch), exc
