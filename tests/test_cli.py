"""End-to-end command-line behavior, including the exit-code contract:
0 success, 1 input error, 2 negative result, 3 inconclusive, 4 internal or
numerical failure."""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

import monosafe
from monosafe import invariance
from monosafe import cli
from monosafe.cli import main
from monosafe.encode import DecodeMismatchError, encode_switched
from monosafe.milp import NumericalBreakdownError, write_lp_format
from monosafe.systems import load_system_file

DATA = resources.files("monosafe.data")


def test_find_case1(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["find", "--system", "case1.json", "--tmax", "8",
                 "--objective", "max-l1", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "T=7: found" in text and "(minimal)" in text
    assert (out / "certificate.json").is_file()
    assert (out / "rcis_corners.csv").is_file()
    assert (out / "summary.txt").read_text().strip() in text
    # the emitted certificate must verify against the same system spec
    assert main(["verify", "--system", "case1.json",
                 "--certificate", str(out / "certificate.json")]) == 0
    corners = (out / "rcis_corners.csv").read_text().splitlines()
    assert corners[0] == "box,x_1,x_2" and len(corners) == 8


def test_find_negative_and_inconclusive(tmp_path, monkeypatch):
    assert main(["find", "--system", "case1.json", "--tmax", "3",
                 "--out", str(tmp_path / "a")]) == 2
    # T=6 and T=7 left undecided, so that branch-and-bound spends the budget
    monkeypatch.setattr(invariance, "_EXACT_SEQUENCES", 32)
    assert main(["find", "--system", "case1.json", "--tmax", "7",
                 "--node-budget", "40", "--out", str(tmp_path / "b")]) == 3


def test_find_dump_lp(tmp_path):
    """``--dump-lp`` writes the model of every horizon, also of one that
    the exact decision refutes without building it: each file is, byte
    for byte, ``write_lp_format`` of ``encode_switched`` at its horizon."""
    out = tmp_path / "lp"
    assert main(["find", "--system", "case1.json", "--tmax", "2",
                 "--dump-lp", "--out", str(out)]) == 2
    assert "Subject To" in (out / "model_T1.lp").read_text()
    sys_, S, _ = load_system_file(str(DATA / "case1.json"))
    for T in (1, 2):
        write_lp_format(encode_switched(sys_, S, T, objective="max_l1_x0").model,
                        str(tmp_path / f"expected_T{T}.lp"))
        assert ((out / f"model_T{T}.lp").read_bytes()
                == (tmp_path / f"expected_T{T}.lp").read_bytes())


def _records(out):
    """The horizon lines of ``out``'s summary, as regex matches: T, status,
    solver status, nodes, pivots, refactorizations, Farkas leaves, then
    the rest of the line after the elapsed time."""
    records = [re.match(r"^\s+T=(\d+): (\w+)\s+\[(\w+), (\d+) nodes, (\d+) pivots, "
                        r"(\d+) refactorizations, (\d+) Farkas leaves, [\d.]+s\](.*)$", line)
               for line in (out / "summary.txt").read_text().splitlines()]
    return [m for m in records if m]


def test_find_summary_reports_pivots(tmp_path, capsys, monkeypatch):
    """case1's T=1 and T=2 are refuted by their necklaces, with no LP, so
    their brackets read 0; the T=7 fixed-control LPs report their pivots
    and refactorizations, and T=7 left undecided, searched by
    branch-and-bound, also its Farkas leaves."""
    out = tmp_path / "s"
    assert main(["find", "--system", "case1.json", "--tmax", "2",
                 "--out", str(out)]) == 2
    capsys.readouterr()
    records = _records(out)
    assert [(m[1], m[2], m[3]) for m in records] == [
        ("1", "proven_infeasible", "infeasible"), ("2", "proven_infeasible", "infeasible")]
    assert all(m.groups()[3:7] == ("0",) * 4 for m in records)
    assert [m[8] for m in records] == [
        f" refuted by exact least fixed points of {n} necklaces" for n in (2, 3)]
    out = tmp_path / "t7"
    assert main(["find", "--system", "case1.json", "--tmin", "7", "--tmax", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    (m,) = _records(out)
    assert m[2] == "found" and all(int(m[k]) > 0 for k in (5, 6)) and m[7] == "0"
    monkeypatch.setattr(invariance, "_EXACT_SEQUENCES", 64)
    out = tmp_path / "t7bb"
    assert main(["find", "--system", "case1.json", "--tmin", "7", "--tmax", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    (m,) = _records(out)
    assert m[2] == "found" and all(int(m[k]) > 0 for k in (5, 6, 7))


def test_find_summary_says_where_the_plan_came_from(tmp_path, capsys, monkeypatch):
    """A found horizon's line ends with its plan's source, after the bracket
    that the horizon lines keep: the local search, with its evaluations and
    periods, for a traffic first-feasible horizon, which its checked plan
    closes at the root; the fixed-control LPs, with the sequences solved
    and the necklaces decided, for case1 under max-l1; the exact least
    fixed points, with the necklaces decided, for case1 under
    first-feasible, whose orbit closes the root; and branch-and-bound for
    case1's T=7 left undecided."""
    out = tmp_path / "t5"
    assert main(["find", "--system", "traffic_table1.json", "--tmin", "5", "--tmax", "5",
                 "--objective", "first-feasible", "--out", str(out)]) == 0
    assert re.search(r"^  T=5: found  \[optimal, 1 nodes, 0 pivots, 0 refactorizations, "
                     r"0 Farkas leaves, [\d.]+s\] plan from local search, \d+ evaluations, "
                     r"\d+ periods$", (out / "summary.txt").read_text(), re.M)
    assert main(["verify", "--system", "traffic_table1.json",
                 "--certificate", str(out / "certificate.json")]) == 0
    out = tmp_path / "c7"
    assert main(["find", "--system", "case1.json", "--tmin", "7", "--tmax", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert re.search(r"^  T=7: found  \[optimal, 2 nodes, .*\] plan from fixed-control LPs, "
                     r"1 sequences, 18 necklaces, stopped at the safe set's bound$",
                     (out / "summary.txt").read_text(), re.M)
    out = tmp_path / "c7ff"
    assert main(["find", "--system", "case1.json", "--tmax", "7",
                 "--objective", "first-feasible", "--out", str(out)]) == 0
    capsys.readouterr()
    assert re.search(r"^  T=7: found  \[optimal, 1 nodes, 0 pivots, 0 refactorizations, "
                     r"0 Farkas leaves, [\d.]+s\] plan from exact least fixed points, "
                     r"18 necklaces$", (out / "summary.txt").read_text(), re.M)
    monkeypatch.setattr(invariance, "_EXACT_SEQUENCES", 64)
    out = tmp_path / "c7bb"
    assert main(["find", "--system", "case1.json", "--tmin", "7", "--tmax", "7",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert re.search(r"^  T=7: found  \[optimal, \d+ nodes, .*\] plan from branch-and-bound$",
                     (out / "summary.txt").read_text(), re.M)


@pytest.mark.parametrize("argv, solver_status, proven", [
    (["--system", "case1.json", "--tmax", "7"], "optimal", True),
    # the first incumbent comes after about 800 nodes; the root bound (720)
    # is not met, so the budget ends the search
    (["--system", "traffic_table1.json", "--tmin", "5", "--tmax", "5",
      "--node-budget", "1000"], "feasible_budget_hit", False),
])
def test_find_says_whether_max_l1_was_proven(argv, solver_status, proven, tmp_path, capsys):
    """Under max-l1 the summary gives the sum of x*_0 and whether the
    solver proved it optimal; the horizon lines keep their form."""
    out = tmp_path / "m"
    assert main(["find", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "summary.txt").read_text()
    assert re.search(rf"^  T=\d+: found  \[{solver_status}, \d+ nodes", text, re.M)
    lines = [line for line in text.splitlines() if line.startswith("max-l1:")]
    assert len(lines) == 1
    m = re.fullmatch(r"max-l1: sum of x\*_0 = (\S+) \((not )?proven optimal\)", lines[0])
    assert m and (m[2] is None) == proven, lines
    cert = json.loads((out / "certificate.json").read_text())
    assert float(m[1]) == pytest.approx(sum(cert["x_star"][0]), rel=1e-9)
    if proven:
        assert float(m[1]) == pytest.approx(50.0, abs=1e-6) and "(minimal)" in text
    assert main(["find", *argv, "--objective", "first-feasible", "--out", str(out)]) == 0
    assert "max-l1" not in (out / "summary.txt").read_text()


def test_max_l1_sequences_cut_by_the_node_budget(tmp_path, capsys):
    """Each fixed-control LP is one node, and so is the bound LP over the
    safe set.  With case1's modes swapped, the loop at T=7 takes 4 of the 7
    sequences and the bound LP; with a budget of 3 nodes, three sequences
    and no bound LP, as none reaches the largest cap, the horizon is found
    but not proven optimal, and its certificate verifies."""
    spec = json.loads((DATA / "case1.json").read_text())
    spec["modes"].reverse()
    system = tmp_path / "swapped.json"
    system.write_text(json.dumps(spec))
    out = tmp_path / "b"
    assert main(["find", "--system", str(system), "--tmin", "7", "--tmax", "7",
                 "--node-budget", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "summary.txt").read_text()
    assert re.search(r"^  T=7: found  \[feasible_budget_hit, 3 nodes, .*\] plan from "
                     r"fixed-control LPs, 3 sequences, 6 necklaces$", text, re.M)
    assert re.search(r"^max-l1: sum of x\*_0 = \S+ \(not proven optimal\)$", text, re.M)
    assert main(["verify", "--system", str(system),
                 "--certificate", str(out / "certificate.json")]) == 0


def _lp_rows(path):
    """``{row: (terms, relation, rhs)}`` of a ``--dump-lp`` file, the terms
    ``{variable: coefficient}`` and the right-hand side as exact fractions."""
    rows = {}
    for line in path.read_text().splitlines():
        m = re.match(r"^ c(\d+): (.*) (<=|>=|=) (\S+)$", line)
        if not m:
            continue
        terms, sign, tokens = {}, 1, m[2].split()
        while tokens:
            token = tokens.pop(0)
            if token in "+-":
                sign = -1 if token == "-" else 1
                continue
            terms[tokens.pop(0)] = sign * Fraction(token)
            sign = 1
        rows[int(m[1])] = (terms, m[3], Fraction(m[4]))
    return rows


def test_closed_horizons_name_contradicting_rows(tmp_path, capsys):
    """Each traffic horizon closed at the root names its two rows; in the
    dumped model they have the same terms, one asks at least what the other
    allows at most, and the first bound exceeds the second in exact
    arithmetic.  The negative answer is checked without the solver."""
    out = tmp_path / "closed"
    assert main(["find", "--system", "traffic_table1.json", "--tmax", "3",
                 "--objective", "first-feasible", "--dump-lp", "--out", str(out)]) == 2
    capsys.readouterr()
    closed = [re.match(r"^\s+T=(\d+): proven_infeasible\s+\[infeasible, 1 nodes, 0 pivots, "
                       r".*\] closed by rows c(\d+) >= (\S+) and c(\d+) <= (\S+)$", line)
              for line in (out / "summary.txt").read_text().splitlines()]
    closed = [m for m in closed if m]
    assert [m[1] for m in closed] == ["1", "2", "3"]
    for m in closed:
        rows = _lp_rows(out / f"model_T{m[1]}.lp")
        lo_terms, lo_rel, lo = rows[int(m[2])]
        hi_terms, hi_rel, hi = rows[int(m[4])]
        assert lo_terms == hi_terms and lo_terms
        assert lo_rel in (">=", "=") and hi_rel in ("<=", "=")
        assert (lo, hi) == (Fraction(m[3]), Fraction(m[5]))
        assert lo > hi


@pytest.mark.parametrize("target, exc", [
    ("solve_milp", NumericalBreakdownError("simplex iteration limit exceeded")),
    ("decode", DecodeMismatchError("step 0: solver state deviates")),
])
def test_find_internal_failure_exit_code(tmp_path, capsys, monkeypatch, target, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(invariance, target, fail)
    code = main(["find", "--system", "case1.json", "--tmin", "7", "--tmax", "7",
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: internal failure")
    assert str(exc) in err[0]


def test_find_failed_horizon_does_not_end_the_sweep(tmp_path, capsys, monkeypatch):
    """A numerical failure at T=3 is that horizon's status: the sweep goes on
    to find T=7, which can then no longer be claimed minimal.  The exact
    decision is made to leave every horizon undecided, so that T=3 reaches
    the solver."""
    solve = invariance.solve_milp
    monkeypatch.setattr(invariance, "decide_switched_horizon", lambda *args: iter(()))

    def fail_at_3(model, **kwargs):
        if model.name.endswith("_T3"):
            raise NumericalBreakdownError("singular basis during refresh")
        return solve(model, **kwargs)

    monkeypatch.setattr(invariance, "solve_milp", fail_at_3)
    out = tmp_path / "run"
    assert main(["find", "--system", "case1.json", "--tmax", "7", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert re.search(r"^\s+T=3: failed\s+\[error, 0 nodes, .*\] "
                     r"NumericalBreakdownError: singular basis during refresh$", text, re.M)
    assert "T=7: found" in text and "(minimality not proven)" in text
    assert (out / "certificate.json").is_file()


def test_verify_bundled_certificates(capsys):
    assert main(["verify", "--system", "case1.json",
                 "--certificate", "cert_case1.json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["tol"] == 0.01

    assert main(["verify", "--system", "traffic_table1.json",
                 "--certificate", "cert_table2.json",
                 "--beta-resolution", "first"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta_resolution"] == "first"

    # the certificate names the hash of the first resolution's model
    assert main(["verify", "--system", "traffic_table1.json",
                 "--certificate", "cert_table2.json",
                 "--beta-resolution", "second"]) == 1
    assert "hash" in capsys.readouterr().err


def test_verify_binds_beta_resolution(tmp_path, capsys):
    """A certificate that names the second resolution's hash is checked
    under the second resolution only: there its witness chain, made under
    the first, fails (exit 2); under the first it is refused (exit 1)."""
    second = load_system_file(str(DATA / "traffic_table1.json"), "second")[2]
    raw = json.loads((DATA / "cert_table2.json").read_text())
    assert raw["system_hash"] != second
    raw["system_hash"] = second
    cert = tmp_path / "cert_second.json"
    cert.write_text(json.dumps(raw))
    assert main(["verify", "--system", "traffic_table1.json",
                 "--certificate", str(cert), "--beta-resolution", "second"]) == 2
    assert json.loads(capsys.readouterr().out)["system_hash"] == second
    assert main(["verify", "--system", "traffic_table1.json",
                 "--certificate", str(cert), "--beta-resolution", "first"]) == 1
    assert "hash" in capsys.readouterr().err


def test_verify_tampered_certificate(tmp_path):
    raw = json.loads((DATA / "cert_case1.json").read_text())
    raw["x_star"][3][0] += 1.0
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(raw))
    assert main(["verify", "--system", "case1.json",
                 "--certificate", str(bad)]) == 2


def _one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ") and not captured.out


@pytest.mark.parametrize("field, value", [("c", float("nan")), ("c", float("inf")),
                                          ("w_star", float("inf"))])
def test_non_finite_link_data_is_an_input_error(tmp_path, capsys, field, value):
    """Unchecked, a NaN capacity makes every dynamics residual of ``verify``
    NaN, which no comparison flags (exit 0), and an infinite one overflows
    the exact flow floor of ``find``."""
    spec = json.loads((DATA / "traffic_table1.json").read_text())
    spec["links"][0][field] = value
    system = tmp_path / "net.json"
    system.write_text(json.dumps(spec))
    cert = json.loads((DATA / "cert_table2.json").read_text())
    cert["system_hash"] = None
    (tmp_path / "cert.json").write_text(json.dumps(cert))
    assert main(["verify", "--system", str(system),
                 "--certificate", str(tmp_path / "cert.json")]) == 1
    assert _one_error_line(capsys)
    assert main(["find", "--system", str(system), "--tmax", "2",
                 "--objective", "first-feasible", "--out", str(tmp_path / "out")]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("step", [7, 0])
def test_non_finite_witness_state_is_an_input_error(tmp_path, capsys, step):
    """Unchecked, a NaN in the last state passes the dynamics check and
    prints a bare ``NaN``, not JSON, as the closure residual."""
    raw = json.loads((DATA / "cert_case1.json").read_text())
    raw["x_star"][step][0] = float("nan")
    cert = tmp_path / "nan.json"
    cert.write_text(json.dumps(raw))
    assert main(["verify", "--system", "case1.json", "--certificate", str(cert)]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_tol_not_finite_and_nonnegative_is_an_input_error(tmp_path, capsys, tol):
    """Unchecked, a NaN tol passes every ``residual > tol`` test, so a moved
    witness state passed dynamics and ``NaN``, not JSON, was printed; a
    negative tol failed the intact certificate (exit 2).  0.0 is a tol."""
    raw = json.loads((DATA / "cert_case1.json").read_text())
    cert = tmp_path / "tol.json"
    raw["tol"] = tol
    cert.write_text(json.dumps(raw))
    assert main(["verify", "--system", "case1.json", "--certificate", str(cert)]) == 1
    assert _one_error_line(capsys)
    raw["tol"] = 0.0
    cert.write_text(json.dumps(raw))
    assert main(["verify", "--system", "case1.json", "--certificate", str(cert)]) == 2
    assert json.loads(capsys.readouterr().out)["tol"] == 0.0


def test_verify_hash_mismatch(capsys):
    code = main(["verify", "--system", "traffic_table1.json",
                 "--certificate", "cert_case1.json"])
    assert code == 1
    assert "hash" in capsys.readouterr().err


def test_input_errors(tmp_path, capsys):
    assert main(["verify", "--system", "missing.json",
                 "--certificate", "cert_case1.json"]) == 1
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["find", "--system", str(junk), "--tmax", "2"]) == 1
    assert main(["simulate", "--system", "case1.json",
                 "--certificate", "cert_case1.json", "--x0", "1,2,3"]) == 1
    assert main(["simulate", "--system", "case1.json",
                 "--certificate", "cert_case1.json", "--x0", "abc"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["find", "--system", _case1_spec(tmp_path), "--tmax", "2"]) == 1
    capsys.readouterr()


def test_main_reuses_one_parser_and_carries_nothing_over(tmp_path, capsys):
    """``main`` builds its parser once per process; each call still parses
    as a freshly built parser would, so no flag or default of one command
    leaks into the next."""
    runs = [
        (["find", "--system", "case1.json", "--tmax", "7",
          "--objective", "first-feasible", "--out", str(tmp_path / "a")], 0),
        (["verify", "--system", "case1.json", "--certificate", "cert_case1.json",
          "--steps", "5"], 1),
        (["find", "--system", "case1.json", "--tmax", "2", "--dump-lp",
          "--out", str(tmp_path / "b")], 2),
        (["find", "--system", "case1.json", "--tmax", "7", "--out", str(tmp_path / "c")], 0),
    ]
    for argv, code in runs:
        assert main(argv) == code
    err = capsys.readouterr().err
    assert "unrecognized arguments: --steps 5" in err and err.startswith("usage: monosafe")
    assert cli._parser() is cli._parser()
    for argv, code in runs[:1] + runs[2:]:
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    summaries = {d: (tmp_path / d / "summary.txt").read_text() for d in "ac"}
    assert "max-l1" not in summaries["a"] and "max-l1: sum of x*_0 = 50 " in summaries["c"]
    assert (tmp_path / "b" / "model_T2.lp").is_file()
    assert not list((tmp_path / "c").glob("*.lp")) and not list((tmp_path / "a").glob("*.lp"))


def _case1_spec(tmp_path, safe_set=None):
    """case1's spec with ``safe_set`` (JSON text) as its safe set, or none."""
    spec = json.loads((DATA / "case1.json").read_text())
    del spec["safe_set"]
    text = json.dumps(spec)
    if safe_set is not None:
        text = text[:-1] + ', "safe_set": ' + safe_set + "}"
    path = tmp_path / "spec.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("content", ["[1, 2]", '{"A": [[1, 1]]}', "{oops"])
def test_find_malformed_safe_set(tmp_path, capsys, content):
    code = main(["find", "--system", _case1_spec(tmp_path, content), "--tmax", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot parse system spec")


@pytest.mark.parametrize("argv", [
    ["find", "--tmax", "2"],
    ["verify", "--certificate", "cert_case1.json"],
    ["simulate", "--certificate", "cert_case1.json", "--steps", "5"],
])
def test_spec_without_safe_set_is_an_input_error(tmp_path, capsys, argv):
    """The spec is the only source of the safe set.  Without one, ``verify``
    used to end in an ``AttributeError`` traceback and ``simulate`` in exit 0
    with ``safe 0/6``."""
    spec = _case1_spec(tmp_path)
    assert main(argv[:1] + ["--system", spec, "--out", str(tmp_path / "out")] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert not captured.out and "Traceback" not in captured.err
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0] == f'error: system spec {spec} has no "safe_set"'


def test_certificate_for_another_safe_set_is_refused_by_hash(tmp_path, capsys):
    """A plan made under a looser safe set (b = 80, not 50) names its own
    spec's hash, so it verifies against that spec and is refused, before any
    check, against ``case1.json``."""
    loose = _case1_spec(tmp_path, '{"A": [[1.0, 1.0]], "b": [80.0]}')
    out = tmp_path / "out"
    assert main(["find", "--system", loose, "--tmax", "3", "--out", str(out)]) == 0
    cert = str(out / "certificate.json")
    assert main(["verify", "--system", loose, "--certificate", cert]) == 0
    capsys.readouterr()
    assert main(["verify", "--system", "case1.json", "--certificate", cert]) == 1
    assert "hash" in capsys.readouterr().err
    assert main(["verify", "--system", "case1.json", "--certificate", cert,
                 "--safe-set", loose]) == 1
    assert "unrecognized arguments: --safe-set" in capsys.readouterr().err


@pytest.mark.parametrize("budget, code", [
    (["--node-budget", "-5"], 1), (["--time-budget", "-1"], 1),
    (["--time-budget", "nan"], 1), (["--node-budget", "0"], 3),
    (["--time-budget", "0"], 3)])
def test_budgets_are_checked_as_input(tmp_path, capsys, budget, code):
    """A negative budget used to read as spent (exit 3) and a NaN time budget
    as none; a budget of 0 tries no horizon, which leaves existence undecided."""
    assert main(["find", "--system", "case1.json", "--tmax", "2",
                 "--out", str(tmp_path / "out")] + budget) == code
    if code == 1:
        assert _one_error_line(capsys)


def test_option_surface():
    """Every subcommand's options, without ``-h/--help``: adding or dropping
    a knob changes this list."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    options = {name: [o for a in p._actions for o in a.option_strings
                      if o not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    common = ["--system", "--beta-resolution", "--out"]
    assert options == {
        "find": common + ["--tmax", "--tmin", "--objective", "--time-budget",
                          "--node-budget", "--dump-lp"],
        "verify": common + ["--certificate"],
        "simulate": common + ["--certificate", "--steps", "--x0", "--policy",
                              "--adversary", "--seed"],
    }
    assert sum(map(len, options.values())) == 22


def test_simulate_deterministic_and_sticky(tmp_path, capsys):
    args = ["simulate", "--system", "case1.json",
            "--certificate", "cert_case1.json", "--x0", "10,32",
            "--steps", "200", "--seed", "17"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "limit_cycle.csv").is_file()
    rows = (a / "trajectory.csv").read_text().splitlines()[1:]
    gamma_col = [r.split(",")[-1] for r in rows]
    first_in = gamma_col.index("1")
    assert set(gamma_col[first_in:]) == {"1"}         # enters and never leaves
    safe_col = [r.split(",")[-3] for r in rows]
    assert set(safe_col) == {"1"}


def test_simulate_outside_witness_warns(tmp_path, capsys):
    code = main(["simulate", "--system", "case1.json",
                 "--certificate", "cert_case1.json", "--x0", "45,4",
                 "--steps", "5", "--out", str(tmp_path)])
    assert code == 0
    assert "outside" in capsys.readouterr().err


def _child_env():
    """The environment of a fresh interpreter that imports the `monosafe` the
    suite imported, from any working directory."""
    # The child resolves relative PYTHONPATH entries against its own cwd, so
    # put the absolute root of the imported package in front.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(monosafe.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


def test_module_execution_round_trip(tmp_path):
    """`python -m monosafe.cli verify` in a fresh interpreter, started from a
    directory outside the repo, against the `monosafe` the suite imported."""
    proc = subprocess.run(
        [sys.executable, "-m", "monosafe.cli", "verify", "--system", "case1.json",
         "--certificate", "cert_case1.json"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_set_up_imports_no_exact_arithmetic(tmp_path):
    """``decimal`` and ``fractions`` are imported only by the exact
    arithmetic that needs them (``encode.decimal_ratio``), so loading a
    system and its limit cycle, as a benchmark's set-up does, pays for
    neither; the exact decision of one horizon imports ``decimal``."""
    code = ("import sys\n"
            "from monosafe import cli, invariance\n"
            "from monosafe.certificate import SSequenceCertificate\n"
            "from monosafe.systems import load_system_file\n"
            "sys_, S, _ = load_system_file(cli._resolve_path('case1.json'))\n"
            "cert = SSequenceCertificate.load(cli._resolve_path('cert_case1.json'))\n"
            "invariance.compute_limit_cycle(sys_, cert)\n"
            "before = sorted({'decimal', 'fractions'} & set(sys.modules))\n"
            "next(invariance.decide_switched_horizon(sys_, S, 1))\n"
            "print(before, 'decimal' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "True"]


DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    """Each demo runs to exit 0 in a fresh interpreter outside the repo."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "{dir}", "--certificate", "cert_case1.json"],
    ["verify", "--system", "case1.json", "--certificate", "{dir}"],
    ["find", "--system", "case1.json", "--tmax", "1", "--out", "{file}"],
    ["verify", "--system", "case1.json", "--certificate", "cert_case1.json",
     "--out", "{file}"],
    ["simulate", "--system", "case1.json", "--certificate", "cert_case1.json",
     "--steps", "3", "--out", "{file}/sub"],
])
def test_directory_input_and_file_output_are_input_errors(tmp_path, capsys, argv):
    existing = tmp_path / "taken"
    existing.write_text("")
    code = main([a.format(dir=tmp_path, file=existing) for a in argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
