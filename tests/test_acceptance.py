"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single verdict line (visible
even under pytest's capture) so a log scan shows the whole contract at a
glance:

    [acceptance] criterion N (title): PASS | FAIL

The two syntheses run once, in the module fixture ``minted``; criteria 1
and 5 check them, and the invariance criterion (8) sweeps over the
certificates they produced plus the bundled reference witnesses, so any
selection of criteria gives the same verdicts.
"""

import json
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from monosafe import (
    Box,
    SplitMix64,
    SSequenceCertificate,
    build_attractive_set,
    build_rcis,
    check_monotone,
    compute_limit_cycle,
    find_s_sequence,
    open_loop,
    simulate,
    solve_milp,
    uniform,
    verify_certificate,
    worst_case_w_star,
)
from monosafe import cli
from monosafe.milp import MilpModel
from monosafe.systems import load_system_file

from test_milp import _enumerate_oracle

DATA = resources.files("monosafe.data")


@pytest.fixture(scope="module")
def minted(case1, tmp_path_factory):
    """The case-1 sweep (with its wall time) and the traffic T=5 synthesis
    (exit code and output directory), each run once for the module."""
    sys_, S, _ = case1
    t0 = time.perf_counter()
    res = find_s_sequence(sys_, S, t_max=7, objective="max_l1_x0")
    elapsed = time.perf_counter() - t0
    out = tmp_path_factory.mktemp("find5")
    code = cli.main(["find", "--system", "traffic_table1.json",
                     "--tmin", "5", "--tmax", "5",
                     "--objective", "first-feasible",
                     "--time-budget", "120", "--out", str(out)])
    return {"case1": (res, elapsed), "traffic": (code, out)}


@contextmanager
def verdict(capsys, num, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {num} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({title}): PASS")


def test_criterion_1_case1_sweep_and_reference_witness(capsys, case1, case1_cert,
                                                        minted):
    sys_, S, _ = case1
    with verdict(capsys, 1, "case-1 sweep finds minimal T=7 certificate"):
        res, elapsed = minted["case1"]
        assert elapsed <= 60.0, f"sweep took {elapsed:.1f} s"
        assert res.found and res.minimal
        assert res.certificate.T == 7
        for rec in res.records[:-1]:
            assert rec.status == "proven_infeasible", (rec.T, rec.status)
        assert res.records[-1].status == "found"
        # the max-l1 optimum at T=7 (independently frozen)
        assert abs(float(np.sum(res.certificate.x_star[0])) - 50.0) <= 1e-6
        assert verify_certificate(sys_, S, res.certificate).passed
        # the bundled reference witness must verify as stored
        assert tuple(case1_cert.controls) == (1, 2, 2, 1, 2, 2, 2)
        assert np.allclose(case1_cert.x_star[0], [16.15, 33.85], atol=1e-12)
        assert verify_certificate(sys_, S, case1_cert).passed
        assert np.allclose(case1_cert.x_star[7], [16.15, 33.21], atol=0.01)


def test_criterion_2_case1_limit_cycle(capsys, case1, case1_cert):
    sys_, _, _ = case1
    with verdict(capsys, 2, "case-1 limit cycle at (13.62, 27.78)"):
        cyc = compute_limit_cycle(sys_, case1_cert)
        assert np.allclose(cyc.points[0], [13.62, 27.78], atol=0.01)
        assert cyc.monotone_violations == 0


def test_criterion_3_case1_closed_loop_safety(capsys, case1, case1_cert):
    sys_, S, _ = case1
    with verdict(capsys, 3, "100 random runs stay safe and settle in gamma"):
        cyc = compute_limit_cycle(sys_, case1_cert)
        gamma = build_attractive_set(cyc)
        omega = build_rcis(case1_cert).region
        pol = open_loop(case1_cert)
        master = SplitMix64(2026)
        for i in range(100):
            traj = simulate(sys_, np.array([10.0, 32.0]), pol,
                            uniform(master.spawn(i)), steps=1000,
                            safe_set=S, omega=omega, gamma=gamma)
            assert all(traj.safe), f"run {i} left the safe set"
            entered = False
            for k, flag in enumerate(traj.in_gamma):
                if entered and not flag:
                    raise AssertionError(
                        f"run {i} left gamma at step {k} after entering")
                entered = entered or flag
            assert entered, f"run {i} never entered gamma"


def test_criterion_4_table2_verification_and_worst_case(capsys, traffic,
                                                        traffic_cert):
    net, S, _ = traffic
    with verdict(capsys, 4, "table2 plan verifies; worst case stays <= 60"):
        rep_first = verify_certificate(net, S, traffic_cert)
        net2, S2, _ = load_system_file(str(DATA / "traffic_table1.json"),
                                       beta_resolution="second")
        rep_second = verify_certificate(net2, S2, traffic_cert)
        passing = [name for name, rep in (("first", rep_first),
                                          ("second", rep_second)) if rep.passed]
        assert passing, "reference plan fails under both turn-ratio resolutions"
        with capsys.disabled():
            print("[acceptance]   table2 witness verifies under "
                  f"beta resolution(s): {', '.join(passing)}")
        traj = simulate(net, traffic_cert.x_star[0],
                        open_loop(traffic_cert), worst_case_w_star(),
                        steps=5 * traffic_cert.T * 100, safe_set=S)
        assert all(traj.safe)
        peak = max(float(np.max(s)) for s in traj.states)
        assert peak <= 60.0 + 1e-9, f"worst-case peak {peak}"


def test_criterion_5_traffic_synthesis_within_budget(capsys, traffic, minted):
    net, S, _ = traffic
    with verdict(capsys, 5, "traffic synthesis at T=5 inside the budget"):
        code, out = minted["traffic"]
        assert code in (0, 3), (
            f"exit {code}: a proven-infeasible at T=5 contradicts known "
            "feasibility and means the solver or encoding is wrong")
        if code == 0:
            cert = SSequenceCertificate.load(str(out / "certificate.json"))
            assert cert.T == 5
            assert verify_certificate(net, S, cert).passed
        else:
            with capsys.disabled():
                print("[acceptance]   budget exhausted before a plan was "
                      "found (exit 3); accepted as inconclusive")


def _sized_random_milp(rng, k, nb_lo, nb_hi):
    """Random instance spanning the full advertised sizes.

    Same construction as the generator in test_milp (rows anchored at a
    random point so feasible and infeasible cases both occur) but with up
    to 12 binaries, 20 continuous variables, and 10 rows.
    """
    nb = int(rng.integers(nb_lo, nb_hi + 1))
    nc = int(rng.integers(1, 21))
    m_rows = int(rng.integers(1, 11))
    mdl = MilpModel(f"a{k}")
    for j in range(nb):
        mdl.add_var(f"b{j}", binary=True)
    for j in range(nc):
        mdl.add_var(f"x{j}", lb=0.0, ub=round(float(rng.uniform(1, 8)), 2))
    n = nb + nc
    A = np.where(rng.random((m_rows, n)) < 0.5,
                 rng.uniform(-3, 3, (m_rows, n)).round(2), 0.0)
    x0 = np.concatenate([rng.random(nb).round(0),
                         rng.uniform(0, 1, nc).round(2)])
    b = A @ x0 + rng.uniform(0, 3, m_rows).round(2)
    rels = rng.choice(["<=", ">="], m_rows, p=[0.75, 0.25])
    for i in range(m_rows):
        mdl.add_constraint({j: A[i, j] for j in range(n) if A[i, j]},
                           rels[i], b[i])
    c = rng.uniform(-3, 3, n).round(2)
    mdl.set_objective({j: c[j] for j in range(n)}, "max")
    return mdl, nb


def test_criterion_6_solver_matches_enumeration(capsys):
    with verdict(capsys, 6, "500 random MILPs agree with enumeration"):
        rng = np.random.default_rng(61)
        # most instances small, a tail stretching to the full 12 binaries
        schedule = [(0, 8)] * 440 + [(9, 10)] * 50 + [(11, 12)] * 10
        optimal = 0
        for k, (lo, hi) in enumerate(schedule):
            mdl, nb = _sized_random_milp(rng, k, lo, hi)
            want = _enumerate_oracle(mdl, nb)
            got = solve_milp(mdl)
            if want is None:
                assert got.status == "infeasible", (k, got.status)
            else:
                assert got.status == "optimal", (k, got.status)
                assert abs(got.objective - want) <= 1e-6 * (1 + abs(want)), (
                    k, got.objective, want)
                for j in mdl.binary_indices:
                    assert abs(got.x[j] - round(got.x[j])) <= 1e-6, (k, j)
                optimal += 1
        assert optimal >= 250, f"only {optimal}/500 instances were feasible"


def test_criterion_7_monotonicity_suite(capsys, case1, traffic,
                                        traffic_spec_dict, unchecked_switched):
    sys_, _, _ = case1
    net = traffic[0]
    with verdict(capsys, 7, "monotone on both systems; mutant is flagged"):
        rep = check_monotone(sys_, 10_000, seed=7, domain_box=Box([50.0, 50.0]))
        assert rep.violations == 0, rep
        rep = check_monotone(net, 10_000, seed=7, domain_box=Box(net.x_s))
        assert rep.violations == 0, rep
        spec = json.loads((DATA / "case1.json").read_text())
        modes = np.array(spec["modes"], dtype=float)
        modes[0][0, 1] = -0.3       # construction rejects it; the mutant skips that check
        mutant = unchecked_switched(modes, spec["w_star"])
        rep = check_monotone(mutant, 10_000, seed=7,
                             domain_box=Box([50.0, 50.0]))
        assert rep.violations > 0 and rep.worst_violation > 0


def test_criterion_8_one_step_invariance(capsys, case1, case1_cert, traffic,
                                         traffic_cert, minted):
    entries = [("case-1 reference witness", case1[0], case1_cert),
               ("table2 reference plan", traffic[0], traffic_cert)]
    res, _ = minted["case1"]
    if res.found:
        entries.append(("case-1 solver certificate", case1[0], res.certificate))
    code, out = minted["traffic"]
    if code == 0:
        entries.append(("traffic solver certificate", traffic[0],
                        SSequenceCertificate.load(str(out / "certificate.json"))))
    with verdict(capsys, 8, "10^4 sampled steps stay inside each RCIS"):
        assert len(entries) >= 3  # both bundled plus at least one minted
        for name, sys_, cert in entries:
            region = build_rcis(cert).region
            # reference witnesses are rounded and declare their own tolerance;
            # solver output is exact and is held to the order default
            tol = cert.tol if cert.tol is not None else 1e-9
            rng = SplitMix64(88)
            w_hi = np.asarray(sys_.w_star, dtype=float)
            for trial in range(10_000):
                p = rng.randint(cert.T)
                corner = region.boxes[p].corner
                x = np.array([rng.uniform(0.0, c) for c in corner])
                w = np.array([rng.uniform(0.0, h) for h in w_hi])
                nxt = sys_.step(x, w, cert.controls[p])
                assert region.contains(nxt, tol), (
                    f"{name}: step from box {p} landed outside at trial "
                    f"{trial} (tol {tol})")
