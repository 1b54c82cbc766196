"""Horizon sweep, RCIS construction, limit cycles, policies, necessity bound."""

import dataclasses
import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monosafe import invariance, milp
from monosafe.certificate import SSequenceCertificate
from monosafe.encode import (count_clashes, decimal_ratio, encode_switched, encode_traffic,
                             green_step_counts, lift)
from monosafe.invariance import (LimitCycleError, build_attractive_set, build_rcis,
                                 compute_limit_cycle, find_s_sequence, least_fixed_point,
                                 necessity_bound, search_traffic_plan)
from monosafe.order import DEFAULT_TOL, PolyLowerSet
from monosafe.simulate import feedback, open_loop, verify_certificate
from monosafe.systems import EW, NS, SwitchedAffineSystem, TrafficNetwork
from test_encode import ns_steps, random_small_net


@pytest.fixture(scope="module")
def case1_search(case1):
    sys_, S, _ = case1
    return find_s_sequence(sys_, S, t_max=8, objective="max_l1_x0")


def test_sweep_finds_minimal_t7(case1_search):
    res = case1_search
    assert res.found and res.minimal and not res.budget_limited
    assert res.certificate.T == 7
    assert res.certificate.controls == (1, 2, 2, 1, 2, 2, 2)
    assert [r.status for r in res.records] == ["proven_infeasible"] * 6 + ["found"]
    assert [r.T for r in res.records] == list(range(1, 8))


# traffic first-feasible proofs of T=1..3 without the count rows:
# (nodes, pivots, refactorizations, Farkas leaves) per horizon
TRAFFIC_PROOF_COUNTS = [(3, 43, 3, 1), (53, 212, 39, 16), (429, 1901, 306, 162)]


# case-1 max-l1 solves of T=1..7: (nodes, pivots, refactorizations, Farkas leaves)
CASE1_MAX_L1_COUNTS = [(3, 14, 3, 2), (7, 34, 6, 4), (15, 66, 12, 8), (31, 135, 24, 16),
                       (63, 283, 48, 32), (127, 561, 96, 64), (113, 485, 87, 55)]


def test_solver_counts_on_bundled_models(case1, deep_traffic_model):
    """Pinned branch-and-bound node, pivot, refactorization and Farkas-leaf
    counts: the case-1 max-l1 models of T=1..7, and the traffic
    first-feasible proofs of T=1..3 searched without the count rows.  A
    change to the pivoting rules, to the cold solve's start or to their
    rounding shows here first."""
    sys_, S, _ = case1
    sols = [milp.solve_milp(encode_switched(sys_, S, T, "max_l1_x0").model) for T in range(1, 8)]
    assert [s.status for s in sols] == ["infeasible"] * 6 + ["optimal"]
    assert [(s.nodes, s.pivots, s.refactorizations, s.farkas_leaves)
            for s in sols] == CASE1_MAX_L1_COUNTS
    sols = [milp.solve_milp(deep_traffic_model(T)) for T in (1, 2, 3)]
    assert [s.status for s in sols] == ["infeasible"] * 3
    assert [(s.nodes, s.pivots, s.refactorizations, s.farkas_leaves)
            for s in sols] == TRAFFIC_PROOF_COUNTS


def test_case1_sweep_refutes_t1_to_t6_with_no_lp(case1, monkeypatch):
    """The max-l1 sweep's own records: T=1..6 refuted by their necklaces
    (2, 3, 4, 6, 8 and 14) with 0 nodes, and T=7 solved without
    branch-and-bound: its 18th necklace is the first feasible one, and its
    first rotation, the necklace itself, gets one fixed-control LP of one
    node, with no incumbent.  It reaches 50, which the bound LP over S, one
    more node, shows no sequence can beat, so the loop stops there, with
    neither the other 6 rotations nor the last 2 necklaces tried.  The bytes
    of the point are pinned."""
    sys_, S, _ = case1
    solves, solve = [], invariance.solve_milp

    def recording(model, **kwargs):
        sol = solve(model, **kwargs)
        solves.append((model.name, kwargs.get("incumbent"), sol))
        return sol

    monkeypatch.setattr(invariance, "solve_milp", recording)
    res = find_s_sequence(sys_, S, t_max=7, objective="max_l1_x0")
    assert [(r.T, r.status, r.solver_status, r.nodes, r.pivots, r.refactorizations,
             r.farkas_leaves, r.source) for r in res.records] == [
        (T, "proven_infeasible", "infeasible", 0, 0, 0, 0,
         f"exact least fixed points, {count} necklaces")
        for T, count in zip(range(1, 7), (2, 3, 4, 6, 8, 14))] + [
        (7, "found", "optimal", 2, 4, 5, 0,
         "fixed-control LPs, 1 sequences, 18 necklaces, stopped at the safe set's bound")]
    necklace = (1, 2, 2, 1, 2, 2, 2)
    assert [(name, incumbent) for name, incumbent, _ in solves] == [
        ("switched_T7_fixed_1_2_2_1_2_2_2", None), ("switched_T0_fixed_", None)]
    assert [(sol.status, sol.nodes) for *_, sol in solves] == [("optimal", 1)] * 2
    assert [sol.objective for *_, sol in solves] == [pytest.approx(50.0, abs=1e-9), 50.0]
    assert hashlib.sha256(solves[0][2].x.tobytes()).hexdigest() == (
        "264b11f3e7f36726f5ebd3a43f78a23c021b98384c80244c4aeb26d3ff8f08cc")
    assert np.array_equal(res.certificate.x_star[0], solves[0][2].x)
    assert res.minimal and res.certificate.controls == necklace


def test_a_switched_sweep_encodes_only_the_horizons_it_solves(case1, monkeypatch, tmp_path):
    """A horizon refuted by its necklaces builds no model: case1's max-l1
    sweep to T=7 encodes T=7 alone, which ``lift`` and ``decode`` need.
    With ``dump_lp`` every horizon's model is built and written."""
    sys_, S, _ = case1
    encode, encoded = invariance.encode_switched, []

    def counting(sys_, S, T, **kwargs):
        encoded.append(T)
        return encode(sys_, S, T, **kwargs)

    monkeypatch.setattr(invariance, "encode_switched", counting)
    assert find_s_sequence(sys_, S, t_max=7).found and encoded == [7]
    encoded.clear()
    assert find_s_sequence(sys_, S, t_max=7, dump_lp=str(tmp_path / "model")).found
    assert encoded == list(range(1, 8))
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"model_T{T}.lp" for T in range(1, 8)]


def test_a_switched_sweep_checks_its_safe_set_before_any_horizon(case1, monkeypatch):
    """A switched system needs a safe set of its own dimension that bounds
    every coordinate; each is checked before any horizon is tried, also
    when a budget of 0 tries none."""
    sys_, S, _ = case1

    def no_horizon(*args):
        raise AssertionError("a horizon was tried")

    monkeypatch.setattr(invariance, "decide_switched_horizon", no_horizon)
    with pytest.raises(ValueError, match="switched systems need an explicit safe set"):
        find_s_sequence(sys_, None, t_max=3)
    with pytest.raises(ValueError, match="switched systems need an explicit safe set"):
        find_s_sequence(sys_, None, t_max=3, node_budget=0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        find_s_sequence(sys_, PolyLowerSet(np.eye(3), np.ones(3)), t_max=3)
    with pytest.raises(ValueError, match="bound every coordinate"):
        find_s_sequence(sys_, PolyLowerSet(np.array([[1.0, 0.0]]), np.array([5.0])), t_max=3)


def test_solution_bits_on_bundled_models(case1, traffic):
    """Pinned sha256 of the returned point's bytes: case-1 max-l1 at T=7,
    and the bundled traffic T=5 first-feasible dive (61 nodes, 385 pivots,
    54 refactorizations, 9 Farkas leaves).  A change that moves any
    floating-point operation of the pivots shows here even where the
    counts do not.  Like the count pins, these hold for the default BLAS
    kernel (ROADMAP item 4)."""
    sys_, S, _ = case1
    sols = [milp.solve_milp(encode_switched(sys_, S, 7, objective="max_l1_x0").model),
            milp.solve_milp(encode_traffic(traffic[0], 5, objective="first_feasible").model)]
    assert [(s.status, s.nodes, s.pivots, s.refactorizations, s.farkas_leaves)
            for s in sols] == [("optimal", 113, 485, 87, 55), ("optimal", 61, 385, 54, 9)]
    assert [hashlib.sha256(s.x.tobytes()).hexdigest() for s in sols] == [
        "acfa30246ecaba211c680ad27ee112dc136ba7e99dd56e2b73cb7379eda92290",
        "a60331a09775663dc6c9e0beaae1487c9c9ba1b69fc20ed7f63c5ce9cbb026f5"]


def test_failed_farkas_checks_fall_back_to_refactorization(deep_traffic_model, monkeypatch):
    """With every Farkas check failing, each infeasible leaf is refactorized
    and retried as before the check existed: the same nodes and pivots."""
    monkeypatch.setattr(milp, "_farkas_certifies", lambda *args: False)
    sols = [milp.solve_milp(deep_traffic_model(T)) for T in (1, 2, 3)]
    assert [s.status for s in sols] == ["infeasible"] * 3
    assert [(s.nodes, s.pivots) for s in sols] == [c[:2] for c in TRAFFIC_PROOF_COUNTS]
    assert all(s.farkas_leaves == 0 for s in sols)


def test_traffic_sweep_decides_t1_to_t4_at_the_root(traffic):
    """The count rows contradict each other at T=1..4, so the first-feasible
    sweep proves each in one node with no pivot: ``solve_milp`` compares the
    two rows before any simplex is built.  The decision stays inside
    ``solve_milp`` (a horizon with no node would have no per-node cost to
    report), and T=5 is returned as minimal."""
    net = traffic[0]
    res = find_s_sequence(net, t_max=5, objective="first_feasible")
    assert res.found and res.minimal and res.certificate.T == 5
    assert [(r.T, r.status, r.solver_status, r.nodes, r.pivots) for r in res.records[:4]] == [
        (T, "proven_infeasible", "infeasible", 1, 0) for T in (1, 2, 3, 4)]
    assert all(r.parallel_rows is not None for r in res.records[:4])
    assert res.records[4].status == "found" and res.records[4].parallel_rows is None
    assert verify_certificate(net, net.safe_set(), res.certificate).passed


def test_traffic_search_takes_the_networks_own_safe_set(traffic):
    """A traffic network's safe set is its link table's box: the search takes
    ``None`` or that set itself, as ``load_system_file`` returns it, and
    refuses any other."""
    net, S, _ = traffic
    assert S is net.safe_set()
    res = find_s_sequence(net, S, t_min=5, t_max=5, objective="first_feasible")
    assert res.found and res.certificate.T == 5
    with pytest.raises(ValueError, match="cannot be attached"):
        find_s_sequence(net, PolyLowerSet.rectangle(net.x_s + 1.0), t_max=1)


def test_unknown_objective_rejected_before_any_horizon(case1):
    # with no node to spend no horizon gets encoded, and the sweep still refuses
    sys_, S, _ = case1
    with pytest.raises(ValueError, match="unknown objective"):
        find_s_sequence(sys_, S, t_max=2, objective="nope", node_budget=0)


def test_sweep_with_tmin_forfeits_minimality(case1):
    sys_, S, _ = case1
    res = find_s_sequence(sys_, S, t_max=8, t_min=7)
    assert res.found and res.certificate.T == 7
    assert not res.minimal


def test_sweep_budget_exhaustion_is_honest(case1, monkeypatch):
    # T=6 and T=7 left undecided, so that branch-and-bound spends the budget
    monkeypatch.setattr(invariance, "_EXACT_SEQUENCES", 32)
    sys_, S, _ = case1
    res = find_s_sequence(sys_, S, t_max=7, node_budget=30)
    assert not res.found and res.budget_limited
    assert any(r.status == "budget_unknown" for r in res.records)
    # horizons never get skipped silently
    assert [r.T for r in res.records] == list(range(1, 8))


def test_sweep_proven_absence():
    sys_ = SwitchedAffineSystem([[[2.0, 0.0], [0.0, 2.0]]], [0.1, 0.1])
    S = PolyLowerSet.rectangle([1.0, 1.0])
    res = find_s_sequence(sys_, S, t_max=3)
    assert not res.found and not res.budget_limited
    assert all(r.status == "proven_infeasible" for r in res.records)


def test_sweep_input_validation(case1):
    sys_, S, _ = case1
    with pytest.raises(ValueError):
        find_s_sequence(sys_, S, t_max=0)
    with pytest.raises(ValueError):
        find_s_sequence(sys_, S, t_max=3, t_min=5)
    with pytest.raises(ValueError):
        find_s_sequence(sys_, S, t_max=3, objective="nope")


def test_rcis_boxes_are_witness_corners(case1_search):
    cert = case1_search.certificate
    rcis = build_rcis(cert)
    assert len(rcis.region.boxes) == cert.T
    for k, box in enumerate(rcis.region.boxes):
        assert np.array_equal(box.corner, cert.x_star[k])
    # box p carries the certificate's control u*_p
    assert rcis.certificate is cert


def test_feedback_policy_minimal_index(case1_search):
    cert = case1_search.certificate
    rcis = build_rcis(cert)
    policy = feedback(rcis)
    assert policy(0, np.zeros(2)) == cert.controls[0]
    assert policy(5, [1e6, 1e6]) is None
    for k in range(cert.T):
        expected_p = next(p for p in range(cert.T)
                          if rcis.region.boxes[p].contains(cert.x_star[k]))
        # the step counter plays no part: the state alone picks the box
        assert policy(k, cert.x_star[k]) == cert.controls[expected_p]
        assert policy(k + 1, cert.x_star[k]) == cert.controls[expected_p]


@given(st.integers(0, 300))
def test_open_loop_policy_periodic(case1_cert, k):
    cert = case1_cert
    policy = open_loop(cert)
    # blind to the state: any x gives u*_{k mod T}
    assert policy(k, np.zeros(2)) == policy(k + cert.T, [1e6, 1e6])
    assert policy(k, cert.x_star[0]) == cert.controls[k % cert.T]


def test_case1_limit_cycle_frozen(case1, case1_search):
    sys_, _, _ = case1
    cert = case1_search.certificate
    cycle = compute_limit_cycle(sys_, cert)
    assert np.allclose(cycle.points[0], [13.62, 27.78], atol=0.01)
    assert cycle.monotone_violations == 0
    assert cycle.residual < 1e-9
    assert cycle.closure_error < 1e-8
    for k in range(cert.T):
        assert np.all(cycle.points[k] <= cert.x_star[k] + 1e-9)


def test_limit_cycle_fixed_point_in_one_period():
    sys_ = SwitchedAffineSystem([[[0.0, 0.0], [0.0, 0.0]]], [0.3, 0.7])
    cert = SSequenceCertificate(T=1, controls=(1,),
                                x_star=(np.array([0.3, 0.7]), np.array([0.3, 0.7])))
    cycle = compute_limit_cycle(sys_, cert)
    assert cycle.periods == 1
    assert np.allclose(cycle.points[0], [0.3, 0.7])


def test_limit_cycle_error_reports_residual():
    sys_ = SwitchedAffineSystem([[[2.0, 0.0], [0.0, 2.0]]], [0.1, 0.1])
    bogus = SSequenceCertificate(T=1, controls=(1,),
                                 x_star=(np.array([1.0, 1.0]), np.array([2.1, 2.1])))
    with pytest.raises(LimitCycleError) as exc:
        compute_limit_cycle(sys_, bogus, max_periods=5)
    assert exc.value.residual > 0


def test_limit_cycle_tol_validation(case1, case1_cert):
    with pytest.raises(ValueError):
        compute_limit_cycle(case1[0], case1_cert, tol=0.0)


def test_attractive_set_inside_rcis(case1, case1_search):
    sys_, _, _ = case1
    cert = case1_search.certificate
    rcis = build_rcis(cert)
    cycle = compute_limit_cycle(sys_, cert)
    gamma = build_attractive_set(cycle)
    assert len(gamma.boxes) == cert.T
    for point in cycle.points:
        assert rcis.region.contains(point)


def test_necessity_bound_arithmetic():
    assert necessity_bound(1, 1, 0.1, 2) == pytest.approx(100.0)
    assert necessity_bound(5, 0.5, 0.2, 1) == pytest.approx(50.0)
    # doubling eps with n=2 divides the bound by 4
    assert necessity_bound(1, 1, 0.2, 2) == pytest.approx(necessity_bound(1, 1, 0.1, 2) / 4)
    for bad in ((0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1)):
        with pytest.raises(ValueError):
            necessity_bound(*bad)
    with pytest.raises(ValueError):
        necessity_bound(1, 1, 0.1, 0)
    with pytest.raises(ValueError):
        necessity_bound(1, 1, 0.1, 1.5)


def _step_loop_cycle(sys_, cert, tol=1e-9):
    """compute_limit_cycle's period iteration written over ``sys.step``,
    with its monotonicity count: a phase state that rose by more than the
    period's threshold (the larger of ``tol`` and ``cert.tol`` in the first
    period, ``tol`` after it) is a violation."""
    T, w = cert.T, sys_.w_star
    phase = list(cert.x_star[:T])
    violations = 0
    for period in range(1, 10 ** 6):
        x = sys_.step(phase[T - 1], w, cert.controls[T - 1])
        new = []
        for k in range(T):
            new.append(x)
            x = sys_.step(x, w, cert.controls[k])
        residual = max(float(np.max(np.abs(new[k] - phase[k]))) for k in range(T))
        thresh = max(tol, cert.tol or 0.0) if period == 1 else tol
        violations += sum(any(a > b + thresh for a, b in zip(new[k], phase[k]))
                          for k in range(T))
        phase = new
        if residual < tol:
            closure = float(np.max(np.abs(
                sys_.step(phase[T - 1], w, cert.controls[T - 1]) - phase[0])))
            return phase, period, residual, closure, violations


@pytest.mark.parametrize("which, periods", [("case1", 349), ("traffic", 158)])
def test_limit_cycle_equals_step_loop(request, which, periods):
    sys_ = request.getfixturevalue(which)[0]
    cert = request.getfixturevalue(f"{which}_cert")
    cycle = compute_limit_cycle(sys_, cert)
    points, ref_periods, residual, closure, violations = _step_loop_cycle(sys_, cert)
    assert cycle.periods == ref_periods == periods
    assert np.array(cycle.points).tobytes() == np.array(points).tobytes()
    assert (cycle.residual, cycle.closure_error) == (residual, closure)
    assert cycle.monotone_violations == violations == 0


def test_limit_cycle_counts_monotone_violations(case1, case1_cert):
    """A witness scaled below the certificate's is not a fixed point of the
    worst-case period: its first period rises past ``cert.tol``, and the
    count agrees with the step loop's."""
    sys_, cert = case1[0], case1_cert
    low = SSequenceCertificate(cert.T, cert.controls,
                               0.9 * cert.x_star,
                               cert.system_hash, cert.tol)
    cycle = compute_limit_cycle(sys_, low)
    points, periods, residual, closure, violations = _step_loop_cycle(sys_, low)
    assert cycle.monotone_violations == violations > 0
    assert cycle.periods == periods
    assert np.array(cycle.points).tobytes() == np.array(points).tobytes()
    assert (cycle.residual, cycle.closure_error) == (residual, closure)


def _decided(sys_, S, T):
    """``least_fixed_point`` of every control sequence of length T: the
    sequences whose least fixed point's orbit stays in S, and the run of
    each refuted one."""
    found, refuted = set(), {}
    for seq in itertools.product(sys_.controls, repeat=T):
        run = least_fixed_point(sys_, S, seq, 1000)
        assert run is not None, seq          # every sequence is decided
        if run.exit_step is None:
            found.add(seq)
        else:
            refuted[seq] = run
    return found, refuted


def test_least_fixed_point_agrees_with_the_milp(case1, traffic, case1_search, case1_cert):
    """Every control sequence decided without an LP.  On case1 the first
    horizon with a feasible sequence is T=7, where the feasible ones are
    exactly the rotations of the bundled certificate's controls; the
    MILP's sweep proves T=1..6 infeasible.  On the traffic grid every
    sequence of T=1 and T=2 is refuted, as the count rows close both roots.
    Each refutation is a run state more than 1e-6 outside S, far from the
    1e-9 at which float noise could decide it, and each orbit found is a
    certificate."""
    statuses = {r.T: r.status for r in case1_search.records}
    sys_, S, _ = case1
    for T in range(1, 8):
        found, refuted = _decided(sys_, S, T)
        assert bool(found) == (statuses[T] == "found"), T
        for run in refuted.values():
            assert not S.contains(run.states[run.exit_step], tol=1e-6)
            assert run.overshoot > 1e-6
    controls = case1_cert.controls
    assert found == {controls[k:] + controls[:k] for k in range(7)}
    for seq in found:
        orbit = least_fixed_point(sys_, S, seq, 1000).states
        assert verify_certificate(sys_, S, SSequenceCertificate(7, seq, orbit)).passed
    net, S, _ = traffic
    sweep = find_s_sequence(net, t_max=2, objective="first_feasible")
    assert [(r.status, r.parallel_rows is not None) for r in sweep.records] == [
        ("proven_infeasible", True)] * 2
    for T in (1, 2):
        found, refuted = _decided(net, S, T)
        assert not found and len(refuted) == 64 ** T
        for run in refuted.values():
            assert not S.contains(run.states[run.exit_step], tol=1e-6)


def random_switched(seed):
    """A seeded switched system of two or three states and two or three
    modes, w* > 0, and a lower set of one to n + 1 rows that bounds every
    coordinate.  Each mode matrix is nonnegative with row sums below 0.9,
    so every period map contracts and its iterates converge well within
    ``least_fixed_point``'s budget.  The rows' bounds scatter around the
    states' scale, so some horizons are feasible and some are not."""
    rng = np.random.default_rng(seed)
    n, modes = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    mats = []
    for _ in range(modes):
        A = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)
        A *= rng.uniform(0.2, 0.9, (n, 1)) / np.maximum(A.sum(axis=1, keepdims=True), 1e-12)
        mats.append(A)
    w = rng.uniform(0.1, 1.0, n)
    rows = int(rng.integers(1, n + 2))
    A = rng.uniform(0.0, 1.0, (rows, n)) * (rng.random((rows, n)) < 0.6)
    for i in np.flatnonzero(A.sum(axis=0) == 0):
        A[rng.integers(rows), i] = rng.uniform(0.1, 1.0)
    for r in np.flatnonzero(A.sum(axis=1) == 0):
        A[r, rng.integers(n)] = rng.uniform(0.1, 1.0)
    b = A @ (w / 0.45) * rng.uniform(0.4, 1.6, rows)
    return SwitchedAffineSystem(mats, w), PolyLowerSet(A, b)


@pytest.fixture(scope="module")
def random_horizons():
    """``[(seed, T, sys, S, status)]`` over the 30 seeded ``random_switched``
    systems at T=1..5, ``status`` the horizon status of ``solve_milp`` on
    the first-feasible encoding."""
    horizons = []
    for seed in range(30):
        sys_, S = random_switched(seed)
        for T in range(1, 6):
            sol = milp.solve_milp(encode_switched(sys_, S, T, objective="first_feasible").model)
            horizons.append((seed, T, sys_, S, invariance._HORIZON_STATUS[sol.status]))
    return horizons


def test_least_fixed_point_agrees_with_the_sweep_on_random_switched_systems(random_horizons):
    """On seeded random switched systems, at each T=1..5, ``solve_milp`` on
    the first-feasible encoding finds a point exactly when some mode
    sequence's least fixed point has an orbit in S.  A disagreement would
    be excused only for a sequence whose orbit lies within 1e-6 of the
    boundary of S, where the solver's tolerances decide; each is listed in
    the failure message."""
    statuses, disagreements = set(), []
    for seed, T, sys_, S, status in random_horizons:
        runs = {seq: least_fixed_point(sys_, S, seq, 1000)
                for seq in itertools.product(sys_.controls, repeat=T)}
        assert None not in runs.values(), (seed, T)     # every sequence is decided
        inside = any(run.exit_step is None for run in runs.values())
        statuses.add(status)
        assert status in ("found", "proven_infeasible"), (seed, T, status)
        if (status == "found") != inside:
            # the signed distance of the nearest orbit past the boundary
            roomy = PolyLowerSet.rectangle(np.full(sys_.state_dim, 1e9))
            margin = min(np.max(S.A @ least_fixed_point(sys_, roomy, seq, 1000)
                                .states[:T].T - S.b[:, None]) for seq in runs)
            disagreements.append((seed, T, status, float(margin)))
    assert statuses == {"found", "proven_infeasible"}
    assert all(abs(margin) < 1e-6 for *_, margin in disagreements), disagreements


def _relabelled(sys_, S, perm, mode_order):
    """``sys_`` and ``S`` with new coordinate i the old ``perm[i]`` and new
    mode k + 1 the old ``mode_order[k] + 1``."""
    P = np.eye(sys_.state_dim)[list(perm)]
    return (SwitchedAffineSystem([P @ sys_.modes[m] @ P.T for m in mode_order],
                                 P @ sys_.w_star), PolyLowerSet(S.A @ P.T, S.b))


def test_max_l1_over_sequences_agrees_with_branch_and_bound(case1, random_horizons):
    """Under max-l1 a switched horizon with a feasible necklace is solved by
    one LP per feasible sequence.  Each horizon swept alone agrees with
    ``solve_milp`` on its max-l1 witness model: the 30 random systems at
    T=1..5 and case1's four coordinate and mode relabellings at T=7 get
    the same status and optima within 1e-7 relative, and every certificate
    of either verifies.  A status disagreement would be excused only
    within 1e-6 of the boundary of S, as in the first-feasible test; each
    is listed in the failure message."""
    cases = [(seed, T, sys_, S) for seed, T, sys_, S, _ in random_horizons]
    cases += [(("case1", perm, modes), 7, *_relabelled(*case1[:2], perm, modes))
              for perm, modes in itertools.product(itertools.permutations(range(2)), repeat=2)]
    statuses, disagreements = set(), []
    for key, T, sys_, S in cases:
        res = find_s_sequence(sys_, S, t_min=T, t_max=T, objective="max_l1_x0")
        (record,) = res.records
        art = encode_switched(sys_, S, T, objective="max_l1_x0")
        sol = milp.solve_milp(art.model)
        status = invariance._HORIZON_STATUS[sol.status]
        statuses.add(record.status)
        assert record.status in ("found", "proven_infeasible"), (key, T, record)
        assert record.source.startswith(
            "fixed-control LPs" if record.status == "found" else "exact least"), (key, T)
        if status == "found":
            assert verify_certificate(sys_, S, invariance.decode(art, sol)).passed
        if res.found:
            assert record.solver_status == "optimal"
            assert verify_certificate(sys_, S, res.certificate).passed
        if record.status != status:
            roomy = PolyLowerSet.rectangle(np.full(sys_.state_dim, 1e9))
            margin = min(np.max(S.A @ least_fixed_point(sys_, roomy, seq, 1000)
                                .states[:T].T - S.b[:, None])
                         for seq in itertools.product(sys_.controls, repeat=T))
            disagreements.append((key, T, record.status, status, float(margin)))
        elif res.found:
            assert np.sum(res.certificate.x_star[0]) == pytest.approx(
                sol.objective, rel=1e-7), (key, T)
        if T == 7:
            assert res.found and np.sum(res.certificate.x_star[0]) == pytest.approx(50.0)
    assert statuses == {"found", "proven_infeasible"}
    assert all(abs(margin) < 1e-6 for *_, margin in disagreements), disagreements


def test_max_l1_sequences_share_the_budgets(case1, monkeypatch):
    """The fixed-control LPs and the bound LP spend the horizon's budget
    slice.  With case1's modes swapped, the first of the 7 T=7 sequences
    misses the bound and the fourth meets it, so the loop takes 5 LPs; a
    node budget of 3 runs the first three sequences, none of which reaches
    the largest cap, 50, so the bound LP is not solved, and the sweep
    counts 3 nodes.  A time slice spent before the first LP leaves the
    horizon ``budget_unknown`` with no LP."""
    sys_, S = _relabelled(*case1[:2], (0, 1), (1, 0))
    res = find_s_sequence(sys_, S, t_min=7, t_max=7)
    assert [(r.solver_status, r.nodes, r.source) for r in res.records] == [
        ("optimal", 5, "fixed-control LPs, 4 sequences, 6 necklaces, "
         "stopped at the safe set's bound")]
    res = find_s_sequence(sys_, S, t_min=7, t_max=7, node_budget=3)
    assert [(r.status, r.solver_status, r.nodes, r.source) for r in res.records] == [
        ("found", "feasible_budget_hit", 3, "fixed-control LPs, 3 sequences, 6 necklaces")]
    assert verify_certificate(sys_, S, res.certificate).passed
    decide = invariance.decide_switched_horizon

    def slow(*args):
        time.sleep(0.05)
        return decide(*args)

    monkeypatch.setattr(invariance, "decide_switched_horizon", slow)
    res = find_s_sequence(sys_, S, t_min=7, t_max=7, time_budget=0.01)
    assert [(r.status, r.solver_status, r.nodes, r.source) for r in res.records] == [
        ("budget_unknown", "budget_unknown", 0, "")]
    assert not res.found and res.budget_limited


def test_the_bound_stops_no_loop_short_of_its_result(case1, random_horizons, monkeypatch):
    """The loop's stop at the safe set's bound changes no result.  With the
    bound patched to ``inf``, so that the loop never stops early, each
    horizon swept alone gets the same status, controls, ``x_star`` bytes
    and objective as with it: the 30 random systems at T=1..5 and case1's
    four coordinate and mode relabellings at T=7, of which 4 random
    horizons (seed 14 at T=2..5) and the 4 of case1 stop at the bound.
    The bound is at least the optimum of every sequence's LP the unbounded
    loop solves."""
    cases = [(seed, T, sys_, S) for seed, T, sys_, S, _ in random_horizons]
    cases += [(("case1", perm, modes), 7, *_relabelled(*case1[:2], perm, modes))
              for perm, modes in itertools.product(itertools.permutations(range(2)), repeat=2)]
    solve, solves = invariance.solve_milp, []

    def recording(model, **kwargs):
        sol = solve(model, **kwargs)
        solves.append(sol)
        return sol

    def sweep(sys_, S, T):
        res = find_s_sequence(sys_, S, t_min=T, t_max=T, objective="max_l1_x0")
        cert = res.certificate
        sources.append(res.records[0].source)
        return (res.records[0].status, res.records[0].solver_status,
                cert and (cert.controls, cert.x_star.tobytes(), float(np.sum(cert.x_star[0]))))

    bounds, sources = {}, []
    for key, T, sys_, S in cases:
        bounds[key, T] = (invariance._safe_set_bound(sys_, S).objective, sweep(sys_, S, T))
    assert sum(source.endswith("stopped at the safe set's bound") for source in sources) == 8
    monkeypatch.setattr(invariance, "solve_milp", recording)
    monkeypatch.setattr(invariance, "_safe_set_bound",
                        lambda sys_, S: milp.MilpSolution("optimal", objective=math.inf))
    for key, T, sys_, S in cases:
        bound, bounded = bounds[key, T]
        solves.clear()
        assert sweep(sys_, S, T) == bounded, (key, T)
        assert all(sol.objective <= bound for sol in solves), (key, T)
    assert not any(source.endswith("bound") for source in sources[len(cases):])


def test_the_bound_lp_waits_for_the_largest_cap(case1, random_horizons, monkeypatch):
    """The bound LP is solved only once the best reaches the largest cap,
    which the bound is at least, and that changes no result.  With the
    caps patched to 0, so that the LP is solved whenever a second LP is
    due, each horizon swept alone gets the same status, controls,
    ``x_star`` bytes and objective: the 30 random systems at T=1..5 and
    case1's four relabellings at T=7.  Of the 30 random systems' horizons,
    4 solve the bound LP with the wait (seed 14 at T=2..5, the four that
    stop at it) and 31 without it, each LP one node; case1's four solve it
    either way and keep their node counts."""
    cases = [(seed, T, sys_, S) for seed, T, sys_, S, _ in random_horizons]
    cases += [(("case1", perm, modes), 7, *_relabelled(*case1[:2], perm, modes))
              for perm, modes in itertools.product(itertools.permutations(range(2)), repeat=2)]
    bound, bounds = invariance._safe_set_bound, []
    monkeypatch.setattr(invariance, "_safe_set_bound",
                        lambda *args: bounds.append(args) or bound(*args))

    def sweep(sys_, S, T):
        res = find_s_sequence(sys_, S, t_min=T, t_max=T, objective="max_l1_x0")
        record, cert = res.records[0], res.certificate
        return (record.status, record.solver_status,
                cert and (cert.controls, cert.x_star.tobytes(), float(np.sum(cert.x_star[0])))
                ), record.nodes

    runs = []
    for caps in (invariance.state_caps, lambda sys_, S: np.zeros(sys_.state_dim)):
        monkeypatch.setattr(invariance, "state_caps", caps)
        outcomes, nodes, solved = [], [], []
        for key, T, sys_, S in cases:
            bounds.clear()
            outcome, count = sweep(sys_, S, T)
            outcomes.append(outcome)
            nodes.append(count)
            solved.append(len(bounds))
        runs.append((outcomes, nodes, solved))
    (waited, nodes, solved), (eager, eager_nodes, eager_solved) = runs
    assert waited == eager
    random = len(random_horizons)
    assert (sum(solved[:random]), sum(eager_solved[:random])) == (4, 31)
    assert [(key, T) for (key, T, *_), n in zip(cases[:random], solved) if n] == [
        (14, T) for T in range(2, 6)]
    assert [n + e - w for n, e, w in zip(nodes, eager_solved, solved)] == eager_nodes
    assert nodes[random:] == eager_nodes[random:] and solved[random:] == [1] * 4


def test_necklace_counts():
    """One least rotation per rotation class, in lexicographic order: 2, 3,
    4, 6, 8 and 14 over two modes at T=1..6, and 51 over three at T=5."""
    assert [len(list(invariance.necklaces(2, T))) for T in range(1, 7)] == [2, 3, 4, 6, 8, 14]
    assert len(list(invariance.necklaces(3, 5))) == 51
    for m, T in ((2, 6), (3, 4), (3, 5)):
        words = list(invariance.necklaces(m, T))
        assert words == sorted({min(seq[k:] + seq[:k] for k in range(T))
                                for seq in itertools.product(range(m), repeat=T)})


def test_necklaces_and_the_decision_go_on_after_a_necklace():
    """From any necklace, ``necklaces`` gives exactly the ones after it; and
    ``decide_switched_horizon``, restarted after each feasible necklace it
    returns, steps through exactly the least rotations of the sequences
    whose least fixed point stays in S, counting every necklace once."""
    for m, T in ((2, 6), (2, 7), (3, 4)):
        words = list(invariance.necklaces(m, T))
        for i, word in enumerate(words):
            assert list(invariance.necklaces(m, T, word)) == words[i + 1:]
    seen = set()
    for seed, T in ((10, 3), (21, 4), (9, 5)):
        sys_, S = random_switched(seed)
        found, _ = _decided(sys_, S, T)
        exact = invariance.decide_switched_horizon(sys_, S, T)
        stepped, count = [], exact.necklaces
        while exact.controls is not None:
            stepped.append(exact.controls)
            exact = invariance.decide_switched_horizon(sys_, S, T, exact.controls)
            count += exact.necklaces
        assert stepped == sorted({min(seq[k:] + seq[:k] for k in range(T)) for seq in found})
        assert count == len(list(invariance.necklaces(len(sys_.controls), T)))
        seen.add(len(stepped) > 1)
    assert seen == {True}


def test_exact_decision_agrees_with_the_milp(case1, random_horizons):
    """``decide_switched_horizon`` finds a necklace exactly where
    ``solve_milp`` on the first-feasible encoding finds a point: case1 at
    T=1..8 (only T=7, at the rotation of the bundled controls that is a
    necklace) and the 30 random systems at T=1..5.  Each orbit it returns
    closes exactly and is a certificate."""
    sys_, S, _ = case1
    cases = [(sys_, S, T, invariance._HORIZON_STATUS[milp.solve_milp(
        encode_switched(sys_, S, T, objective="first_feasible").model).status])
        for T in range(1, 9)]
    cases += [(sys_, S, T, status) for _, T, sys_, S, status in random_horizons]
    found = []
    for sys_, S, T, status in cases:
        exact = invariance.decide_switched_horizon(sys_, S, T)
        assert (exact.controls is not None) == (status == "found"), (T, status)
        assert exact.necklaces <= len(list(invariance.necklaces(len(sys_.controls), T)))
        if exact.controls is not None:
            found.append(T)
            assert np.array_equal(exact.states[0], exact.states[T])
            cert = SSequenceCertificate(T, exact.controls, exact.states)
            assert verify_certificate(sys_, S, cert).passed
    assert found[0] == 7 and cases[6][3] == "found"
    assert invariance.decide_switched_horizon(*case1[:2], 7).controls == (1, 2, 2, 1, 2, 2, 2)


@pytest.mark.parametrize("mode", [[[2.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 0.5]]])
def test_a_mode_with_spectral_radius_at_least_one_is_refuted_with_no_lp(mode, monkeypatch):
    """rho(P) = 2 gives ``(I - P) x = q`` a negative solution, and rho(P) = 1
    a singular system; either way no nonnegative witness exists, and the
    sweep proves every horizon infeasible without calling the solver."""
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_milp called")

    monkeypatch.setattr(invariance, "solve_milp", no_lp)
    sys_ = SwitchedAffineSystem([mode], [0.1, 0.1])
    res = find_s_sequence(sys_, PolyLowerSet.rectangle([1e6, 1e6]), t_max=3)
    assert [(r.status, r.nodes, r.source) for r in res.records] == [
        ("proven_infeasible", 0, "exact least fixed points, 1 necklaces")] * 3


def _sweep_counts(res):
    return [(r.T, r.status, r.nodes, r.pivots, r.refactorizations, r.farkas_leaves)
            for r in res.records]


def test_undecided_horizons_take_the_milp_route(case1, monkeypatch):
    """With ``w*_2 = 0`` the Perron argument does not hold, so every
    horizon goes to the solver, with the counts of a plain solve.  A horizon
    with more than ``_EXACT_SEQUENCES`` mode sequences does too: at a
    limit of 32, case1's T=5 (32 sequences) is refuted with no LP and
    T=6 (64) is searched, with its pinned counts."""
    sys_, S, _ = case1
    still = SwitchedAffineSystem(sys_.modes, [0.2, 0.0])
    assert invariance.decide_switched_horizon(still, S, 1) is None
    res = find_s_sequence(still, S, t_max=3, objective="max_l1_x0")
    plain = [milp.solve_milp(encode_switched(still, S, T, "max_l1_x0").model) for T in (1, 2, 3)]
    assert _sweep_counts(res) == [
        (T, invariance._HORIZON_STATUS[s.status], s.nodes, s.pivots, s.refactorizations,
         s.farkas_leaves) for T, s in zip((1, 2, 3), plain)]
    assert _sweep_counts(res) == [(1, "proven_infeasible", 3, 12, 3, 2),
                                  (2, "proven_infeasible", 7, 32, 6, 4),
                                  (3, "proven_infeasible", 15, 66, 12, 8)]
    monkeypatch.setattr(invariance, "_EXACT_SEQUENCES", 32)
    assert invariance.decide_switched_horizon(sys_, S, 6) is None
    res = find_s_sequence(sys_, S, t_min=5, t_max=6, objective="max_l1_x0")
    assert _sweep_counts(res) == [(5, "proven_infeasible", 0, 0, 0, 0),
                                  (6, "proven_infeasible", *CASE1_MAX_L1_COUNTS[5])]


def test_exact_decision_refutes_an_orbit_just_past_the_boundary(case1):
    """With ``b`` the float just below the exact largest row sum of the
    T=7 orbit, no necklace's orbit fits, and T=7 is refuted with no LP.
    Branch-and-bound accepts each row within ``milp.FEAS_TOL`` = 1e-6, so
    on the same model it returns a point: the exact decision compares the
    orbit with S with no tolerance, over the data as written."""
    from fractions import Fraction
    sys_, S, _ = case1
    exact = invariance.decide_switched_horizon(sys_, S, 7)
    # the orbit again in rationals, from the rounded x_0's exact fixed point
    A = [[[Fraction(*decimal_ratio(v)) for v in row] for row in M.tolist()] for M in sys_.modes]
    w = [Fraction(*decimal_ratio(v)) for v in sys_.w_star.tolist()]
    P, q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], [Fraction(0)] * 2
    for u in exact.controls:
        M = A[u - 1]
        P = [[sum(M[i][l] * P[l][j] for l in range(2)) for j in range(2)] for i in range(2)]
        q = [sum(M[i][l] * q[l] for l in range(2)) + w[i] for i in range(2)]
    a, b, c, d = 1 - P[0][0], -P[0][1], -P[1][0], 1 - P[1][1]
    det = a * d - b * c
    x = [(d * q[0] - b * q[1]) / det, (a * q[1] - c * q[0]) / det]
    top = Fraction(0)
    for u in exact.controls:
        top = max(top, x[0] + x[1])
        M = A[u - 1]
        x = [sum(M[i][l] * x[l] for l in range(2)) + w[i] for i in range(2)]
    assert np.array_equal(exact.states[0], [float(v) for v in x])
    below = float(top)
    if below >= top:
        below = math.nextafter(below, 0.0)
    assert Fraction(*decimal_ratio(below)) < top < below + 1e-13
    tight = PolyLowerSet(S.A, [below])
    assert invariance.decide_switched_horizon(sys_, tight, 7) == (None, None, 20)
    res = find_s_sequence(sys_, tight, t_min=7, t_max=7)
    assert [(r.status, r.nodes, r.source) for r in res.records] == [
        ("proven_infeasible", 0, "exact least fixed points, 20 necklaces")]
    sol = milp.solve_milp(encode_switched(sys_, tight, 7, "first_feasible").model)
    assert sol.status == "optimal"


def test_first_feasible_plan_is_the_exact_orbit(case1):
    """Under first-feasible the feasible necklace's orbit, rounded to
    floats, is the T=7 solve's root incumbent: one node, no pivot, and a
    certificate whose controls are the necklace."""
    sys_, S, _ = case1
    res = find_s_sequence(sys_, S, t_max=7, objective="first_feasible")
    assert [(r.status, r.nodes) for r in res.records] == [("proven_infeasible", 0)] * 6 + [
        ("found", 1)]
    last = res.records[6]
    assert (last.solver_status, last.pivots, last.source) == (
        "optimal", 0, "exact least fixed points, 18 necklaces")
    exact = invariance.decide_switched_horizon(sys_, S, 7)
    assert res.certificate.controls == exact.controls and res.minimal
    assert np.array_equal(res.certificate.x_star[0], exact.states[0])


def test_least_fixed_point_budget_and_orbit(case1, case1_cert):
    """Out of periods the answer is None; a converged orbit closes to
    rounding and sits below every witness of its sequence."""
    sys_, S, _ = case1
    assert least_fixed_point(sys_, S, case1_cert.controls, 5) is None
    run = least_fixed_point(sys_, S, case1_cert.controls, 1000)
    assert run.exit_step is None and run.overshoot == 0.0 and not run.states.flags.writeable
    assert np.max(np.abs(run.states[-1] - run.states[0])) < 1e-8
    assert np.all(run.states <= case1_cert.x_star + 1e-9)


def _reference_fixed_point(sys_, S, controls, max_periods):
    """``least_fixed_point`` as a plain loop: ``step`` for each state,
    ``S.contains`` for each of steps 0 .. T-1, and the overshoot as a sum
    of ``S.violation``.  Returns ``(states, periods, exit_step,
    overshoot)``, or None."""
    T = len(controls)
    prev = np.zeros((T + 1, sys_.state_dim))
    x = prev[0]
    for period in range(1, max_periods + 1):
        run = [x]
        for u in controls:
            run.append(sys_.step(run[-1], sys_.w_star, u))
        run = np.array(run)
        inside = [S.contains(state) for state in run[:T]]
        if all(inside):
            if np.max(run - prev) <= DEFAULT_TOL:
                return run, period, None, 0.0
            prev, x = run, run[T]
            continue
        return run, period, inside.index(False), sum(S.violation(state) for state in run[:T])
    return None


def test_least_fixed_point_matches_a_reference_loop(case1, traffic):
    """Periods, exit step and state bytes as the reference loop gives them,
    on every case1 sequence of T=1..7 and on seeded random phase sequences
    of the bundled grid and of small random networks at T=1..5.  The
    overshoot, summed from the membership test's row sums, is the sum of
    ``S.violation`` to the bit on the traffic rectangles, and within 1e-12
    relative on case1's row ``x_1 + x_2 <= 50``."""
    rng = np.random.default_rng(28)
    sys_, S, _ = case1
    cases = [(sys_, S, seq, 1000, 1e-12) for T in range(1, 8)
             for seq in itertools.product(sys_.controls, repeat=T)]
    nets = [traffic[0]] + [random_small_net(seed) for seed in range(20)]
    for i, net in enumerate(nets):
        for T in range(1, 6):
            for _ in range(8 if i == 0 else 2):
                seq = tuple(tuple(NS if b else EW for b in rng.integers(0, 2, len(net.junctions)))
                            for _ in range(T))
                cases.append((net, net.safe_set(), seq, 200, 0.0))
    kinds = set()
    for sys_, S, seq, periods, rel in cases:
        run = least_fixed_point(sys_, S, seq, periods)
        expected = _reference_fixed_point(sys_, S, seq, periods)
        if expected is None:
            assert run is None, seq
            kinds.add("undecided")
            continue
        states, period, exit_step, overshoot = expected
        assert (run.periods, run.exit_step) == (period, exit_step), seq
        assert run.states.tobytes() == states.tobytes(), seq
        assert abs(run.overshoot - overshoot) <= rel * overshoot, seq
        kinds.add("orbit" if exit_step is None else "exit")
    assert kinds == {"orbit", "exit"}


def test_an_overflowing_period_map_is_an_exit():
    """A coordinate that S leaves free doubles every step and overflows:
    the first run with a non-finite state is the exit, its overshoot inf,
    and no warning is raised (tier-1 makes warnings errors).  At T=1 only
    x_T overflows, so the exit step is T; at T=3 the overflow comes at
    step 1 and its inf turns to NaN at step 2.  The search's key ranks
    such an exit below every finite overshoot at its period."""
    doubling = SwitchedAffineSystem([[[0.5, 0.0], [0.0, 2.0]]], [1.0, 1.0])
    S = PolyLowerSet([[1.0, 0.0]], [10.0])
    run = least_fixed_point(doubling, S, (1,), 2000)
    assert (run.periods, run.exit_step, run.overshoot) == (1024, 1, np.inf)
    assert np.isfinite(run.states[0]).all() and run.states[1, 1] == np.inf
    run = least_fixed_point(doubling, S, (1, 1, 1), 2000)
    assert (run.periods, run.exit_step, run.overshoot) == (342, 1, np.inf)
    assert np.isnan(run.states[2, 0])
    key = invariance._exit_key
    assert key(run) == key(run._replace(overshoot=1e300)) == (342, -np.inf)
    assert key(run) < key(run._replace(overshoot=1.0)) < key(run._replace(periods=343))


def test_a_negative_state_is_an_exit(unchecked_switched):
    """As in ``S.contains``, a state below ``-DEFAULT_TOL`` is outside S,
    though every row of S holds it: a map with a negative entry takes x_1
    to -0.15 at step 2, which opens period 3.  The overshoot counts only
    the rows, so it is 0."""
    sys_ = unchecked_switched([[[0.5, -0.3], [0.0, 0.5]]], [0.1, 1.0])
    run = least_fixed_point(sys_, PolyLowerSet.rectangle([10.0, 10.0]), (1,), 100)
    assert (run.periods, run.exit_step, run.overshoot) == (3, 0, 0.0)
    assert run.states[0, 0] < -DEFAULT_TOL


def _unrepaired(monkeypatch):
    """Patch the green-step counts the plan search reads to ``(0, 0)``: its
    repair then changes nothing, and it starts from the raw draw."""
    monkeypatch.setattr(invariance, "green_step_counts",
                        lambda net, T: {j: (0, 0) for j in net.junctions})


def test_plan_search_ranks_infinite_overshoots(traffic, monkeypatch):
    """A search whose every exit overshoots by inf still runs to its end.
    The repaired start is a plan at the bundled T=5, so the search starts
    from the raw draw, which exits."""
    _unrepaired(monkeypatch)
    real = invariance.least_fixed_point

    def overflowing(*args):
        run = real(*args)
        return run if run is None or run.exit_step is None else run._replace(overshoot=np.inf)

    monkeypatch.setattr(invariance, "least_fixed_point", overflowing)
    found = search_traffic_plan(traffic[0], 5)
    assert found.periods <= invariance._SEARCH_PERIODS and found.evaluations > 1


@pytest.fixture(scope="module")
def traffic_t5(traffic, traffic_cert):
    """The bundled traffic T=5 encoding and the bundled plan lifted into it."""
    art = encode_traffic(traffic[0], 5)
    return art, lift(art, traffic_cert.controls, traffic_cert.x_star)


def _counts(sol):
    return sol.status, sol.nodes, sol.pivots, sol.refactorizations, sol.farkas_leaves


def test_lifted_plan_closes_the_root(traffic_t5):
    """Under the zero objective a checked incumbent is optimal at once: one
    node, no simplex built, no pivot and no refactorization."""
    art, point = traffic_t5
    sol = milp.solve_milp(art.model, incumbent=point)
    assert _counts(sol) == ("optimal", 1, 0, 0, 0) and sol.from_incumbent
    assert np.array_equal(sol.x, point) and sol.objective == 0.0


def test_corrupted_plan_is_ignored(traffic_t5):
    """A plan with one state lowered by 1.0 fails the re-check and is
    ignored: the search is the one without an incumbent, node for node and
    bit for bit."""
    art, point = traffic_t5
    bad = point.copy()
    bad[art.x[2, 4]] -= 1.0
    sol = milp.solve_milp(art.model, incumbent=bad)
    plain = milp.solve_milp(art.model)
    assert not sol.from_incumbent
    assert _counts(sol) == _counts(plain) == ("optimal", 61, 385, 54, 9)
    assert sol.x.tobytes() == plain.x.tobytes()


def test_incumbent_is_not_asked_where_parallel_rows_close_the_root(traffic, monkeypatch):
    """At T=1..4 the green-step counts clash and their rows close the root,
    so the sweep asks for no plan there; it searches once, at T=5."""
    net = traffic[0]
    assert [bool(count_clashes(net, T)) for T in range(1, 6)] == [True] * 4 + [False]
    searched = []
    search = invariance.search_traffic_plan
    monkeypatch.setattr(invariance, "search_traffic_plan",
                        lambda *args: searched.append(args[1]) or search(*args))
    res = find_s_sequence(net, t_max=5, objective="first_feasible")
    assert searched == [5] and res.minimal
    assert [r.source for r in res.records] == [""] * 4 + [res.records[4].source]
    assert res.records[4].source.startswith("local search, ")


def test_plan_search_is_seeded_and_its_plan_verifies(traffic):
    """The search is a function of its seed; a found plan's witness is its
    least fixed point's orbit, which verifies.  Its path is pinned: at T=5
    the repaired start is a plan, found in 1 evaluation and 15 periods,
    with its controls and the digest of its states.  At T=4, whose counts
    clash, it reports no plan at once, with 0 evaluations."""
    net, S, _ = traffic
    first, again = search_traffic_plan(net, 5), search_traffic_plan(net, 5)
    assert first.controls == again.controls and first.evaluations == again.evaluations
    assert (first.evaluations, first.periods) == (1, 15)
    assert first.controls == (("EW", "EW", "EW", "EW", "EW", "NS"),
                              ("NS", "EW", "NS", "EW", "NS", "NS"),
                              ("NS", "NS", "NS", "NS", "NS", "NS"),
                              ("EW", "EW", "NS", "NS", "EW", "EW"),
                              ("NS", "NS", "EW", "EW", "EW", "EW"))
    assert hashlib.sha256(first.states.tobytes()).hexdigest() == (
        "eab2dca391c2649319ad85b5a679ef4ac5005d933b48754f640eaf2a9c20c324")
    cert = SSequenceCertificate(5, first.controls, first.states)
    assert verify_certificate(net, S, cert).passed
    miss = search_traffic_plan(net, 4)
    assert miss.controls is None and miss.states is None
    assert (miss.evaluations, miss.periods) == (0, 0)


def test_the_repaired_start_loses_no_plan(monkeypatch):
    """On ``random_small_net`` seeds 0-39 at T=1..7, every start the search
    scores meets each junction's green-step counts, every plan it finds
    verifies, and it finds a plan wherever the search from the raw draw
    (``_unrepaired``) does; where it finds none, it has spent its whole
    budget of periods.  Where the counts clash it misses at once, with no
    evaluation; the raw search is run only where they fit, as no plan
    exists where they clash.  Some raw starts break the counts."""
    real, starts = invariance.least_fixed_point, []
    monkeypatch.setattr(invariance, "least_fixed_point",
                        lambda *args: starts.append(args[2]) or real(*args))

    def search(net, T):
        starts.clear()
        plan = search_traffic_plan(net, T)
        counts = green_step_counts(net, T)
        return plan, starts and all(counts[j][0] <= ns <= T - counts[j][1]
                                    for j, ns in ns_steps(net, starts[0]).items())

    horizons, repaired = [], []
    for seed in range(40):
        net = random_small_net(seed)
        for T in range(1, 8):
            plan, fits = search(net, T)
            if count_clashes(net, T):
                assert plan == (None, None, 0, 0) and not starts, (seed, T)
                continue
            assert fits, (seed, T)
            if plan.controls is None:
                assert plan.periods == invariance._SEARCH_PERIODS, (seed, T)
            else:
                cert = SSequenceCertificate(T, plan.controls, plan.states)
                assert verify_certificate(net, net.safe_set(), cert).passed, (seed, T)
            horizons.append((net, T))
            repaired.append(plan.controls is not None)
    _unrepaired(monkeypatch)
    raw = [search(net, T) for net, T in horizons]
    assert all(found or plan.controls is None for found, (plan, _) in zip(repaired, raw))
    assert not all(fits for _, fits in raw)
    assert (len(horizons), sum(repaired)) == (217, 207)


def grid_copies(net, k):
    """``k`` disjoint copies of ``net``, their links interleaved: link i of
    copy c gets id ``k * i + c + 1`` and heads at junction ``<head><c>``."""
    index = {link.id: i for i, link in enumerate(net.links)}
    links = [dataclasses.replace(link, id=k * index[link.id] + c + 1, head=f"{link.head}{c}")
             for link in net.links for c in range(k)]
    turns = [(k * index[src] + c + 1, k * index[dst] + c + 1, ratio)
             for src, dst, ratio in net.turns for c in range(k)]
    return TrafficNetwork(links, [f"{j}{c}" for j in net.junctions for c in range(k)], turns)


def test_three_grid_copies_find_t5_minimal_from_one_evaluation(traffic):
    """On 3 disjoint copies of the bundled grid the first-feasible sweep
    closes T=1..4 by the count rows and finds T=5 minimal in 1 node, from
    the plan search's repaired start, and the certificate verifies on the
    whole network."""
    net = grid_copies(traffic[0], 3)
    res = find_s_sequence(net, t_max=5, objective="first_feasible")
    assert res.found and res.minimal and res.certificate.T == 5
    assert [(r.status, r.nodes) for r in res.records] == (
        [("proven_infeasible", 1)] * 4 + [("found", 1)])
    assert res.records[4].source == "local search, 1 evaluations, 15 periods"
    assert verify_certificate(net, net.safe_set(), res.certificate).passed


def test_max_l1_keeps_its_search_and_optimum_with_an_incumbent(case1, case1_cert):
    """Under max-l1 an incumbent only prunes: the least fixed point's orbit
    of the bundled controls (sum of x_0 below 50) seeds the T=7 search,
    which still proves 50 with its own point."""
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    orbit = least_fixed_point(sys_, S, case1_cert.controls, 1000).states
    sol = milp.solve_milp(art.model, incumbent=lift(art, case1_cert.controls, orbit))
    assert sol.status == "optimal" and not sol.from_incumbent
    assert sol.objective == pytest.approx(50.0, abs=1e-6)
