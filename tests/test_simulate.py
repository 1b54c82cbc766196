"""Simulation oracle: independence, rolls, memberships, verification, dominance, CSV."""

import ast
import importlib.util
import pathlib

import numpy as np
import pytest

from monosafe.certificate import SSequenceCertificate
from monosafe.invariance import Rcis, build_attractive_set, build_rcis, compute_limit_cycle
from monosafe.order import DEFAULT_TOL, Box, BoxUnion, PolyLowerSet
from monosafe.rng import SplitMix64
from monosafe.simulate import (Adversary, Policy, dominance_check, feedback, open_loop,
                               simulate, uniform, verify_certificate, worst_case_w_star,
                               write_trajectory_csv)


def test_oracle_imports_no_optimizer():
    """The oracle judges solver output, so it must not import the encoder,
    the solver or the sweep; ``encode`` can then import it without a cycle."""
    origin = importlib.util.find_spec("monosafe.simulate").origin
    tree = ast.parse(pathlib.Path(origin).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            local.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("monosafe"):
            local.add(node.module)
        elif isinstance(node, ast.Import):
            local.update(a.name for a in node.names if a.name.startswith("monosafe"))
    assert local == {"certificate", "order", "rng"}


def test_worst_case_endpoint_matches_witness(case1, case1_cert):
    sys_, _, _ = case1
    traj = simulate(sys_, case1_cert.x_star[0], open_loop(case1_cert),
                    worst_case_w_star(), 7)
    assert np.allclose(traj.states[-1], [16.15104296, 33.20835472], atol=1e-8)
    assert np.allclose(traj.states[-1], [16.15, 33.21], atol=0.01)


def test_steps_contract(case1, case1_cert):
    sys_, _, _ = case1
    with pytest.raises(ValueError):
        simulate(sys_, [1, 1], open_loop(case1_cert), worst_case_w_star(), 0)
    traj = simulate(sys_, [1, 1], open_loop(case1_cert), worst_case_w_star(), 1)
    assert len(traj.states) == 2 and len(traj.controls) == 1


def test_trajectory_arrays_are_read_only(case1, case1_cert):
    """A trajectory's states and disturbances, a certificate's witness and a
    limit cycle's points are each one read-only 2-D array."""
    sys_, _, _ = case1
    cycle = compute_limit_cycle(sys_, case1_cert)
    assert case1_cert.x_star.shape == (8, 2) and cycle.points.shape == (7, 2)
    for adversary in (uniform(5), worst_case_w_star()):
        traj = simulate(sys_, [10, 32], open_loop(case1_cert), adversary, 12)
        assert traj.states.shape == (13, 2) and traj.disturbances.shape == (12, 2)
        assert len(traj) == 13 and traj.phases == tuple(k % case1_cert.T for k in range(13))
        for rows in (traj.states, traj.disturbances, case1_cert.x_star, cycle.points):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                rows[-1] += 1.0


def test_trajectory_replays_step_function(case1, case1_cert):
    sys_, _, _ = case1
    traj = simulate(sys_, [10, 32], open_loop(case1_cert), uniform(5), 50)
    for k in range(len(traj.controls)):
        resim = sys_.step(traj.states[k], traj.disturbances[k], traj.controls[k])
        assert np.array_equal(traj.states[k + 1], resim)
        assert np.all(traj.disturbances[k] <= sys_.w_star)
        assert np.all(traj.disturbances[k] >= 0)


def test_membership_columns(case1, case1_cert):
    sys_, S, _ = case1
    rcis = build_rcis(case1_cert)
    gamma = build_attractive_set(compute_limit_cycle(sys_, case1_cert))
    bare = simulate(sys_, [10, 32], open_loop(case1_cert), uniform(1), 5)
    assert all(v is None for v in bare.safe + bare.in_omega + bare.in_gamma)
    full = simulate(sys_, [10, 32], open_loop(case1_cert), uniform(1), 200,
                    safe_set=S, omega=rcis.region, gamma=gamma)
    assert all(full.safe) and all(full.in_omega)
    first = next(k for k, g in enumerate(full.in_gamma) if g)
    assert all(full.in_gamma[first:])          # sticky once entered


def test_uniform_adversary_determinism(case1, case1_cert):
    sys_, _, _ = case1
    mk = lambda seed: simulate(sys_, [10, 32], open_loop(case1_cert),
                               uniform(seed), 40)
    a, b, c = mk(9), mk(9), mk(10)
    assert all(np.array_equal(x, y) for x, y in zip(a.states, b.states))
    assert any(not np.array_equal(x, y) for x, y in zip(a.states, c.states))
    # spawned child streams give independent yet reproducible runs
    d = simulate(sys_, [10, 32], open_loop(case1_cert),
                 uniform(SplitMix64(9).spawn(3)), 40)
    assert any(not np.array_equal(x, y) for x, y in zip(a.states, d.states))


def test_feedback_policy_halts_outside(case1, case1_cert):
    sys_, S, _ = case1
    rcis = build_rcis(case1_cert)
    ok = simulate(sys_, [10, 32], feedback(rcis), uniform(2), 30, safe_set=S)
    assert ok.status == "completed" and all(ok.safe)
    out = simulate(sys_, [49.0, 0.2], feedback(rcis), worst_case_w_star(), 30)
    assert out.status == "halted_outside_region"
    assert len(out.states) == 1 and len(out.controls) == 0


def test_verify_certificate_passes_bundled(case1, case1_cert):
    sys_, S, _ = case1
    report = verify_certificate(sys_, S, case1_cert)
    assert report.passed
    assert report.tol == case1_cert.tol == 0.01
    # the rounded reference witness closes only within its declared tolerance
    assert 0 < report.closure.worst_residual < 0.01
    d = report.to_dict()
    assert d["passed"] is True and d["closure"]["passed"] is True


@pytest.mark.parametrize("which, tol, residuals", [
    ("case1", 0.01, ("0x0.0p+0", "0x0.0p+0", "0x1.1167dc5d38000p-10")),
    ("traffic", 1e-5, ("0x1.0000000000000p-51", "0x0.0p+0", "0x0.0p+0"))])
def test_verify_reports_of_the_bundled_certificates(request, which, tol, residuals):
    """Every bit of the dynamics, safety and closure residuals of the two
    bundled certificates, the sign of each zero included."""
    sys_, S, _ = request.getfixturevalue(which)
    report = verify_certificate(sys_, S, request.getfixturevalue(f"{which}_cert"))
    conditions = (report.dynamics, report.safety, report.closure)
    assert report.passed and report.tol == tol
    assert all(c.passed and c.first_violation_step is None for c in conditions)
    assert tuple(c.worst_residual.hex() for c in conditions) == residuals


def test_safe_states_with_a_zero_coordinate_report_a_positive_zero(case1, case1_cert):
    """Witness states strictly inside S with a zero coordinate: the safety
    residual is +0.0, not the -0.0 that a bare max over ``-x`` gives."""
    sys_, S, _ = case1
    cert = case1_cert
    on_axis = SSequenceCertificate(cert.T, cert.controls, cert.x_star * [0.0, 1.0],
                                   tol=cert.tol)
    safety = verify_certificate(sys_, S, on_axis).safety
    assert safety.passed and safety.worst_residual.hex() == "0x0.0p+0"


def test_verify_flags_each_condition(case1, case1_cert):
    sys_, S, _ = case1
    cert = case1_cert
    flipped = SSequenceCertificate(cert.T, (2,) + cert.controls[1:], cert.x_star,
                                   cert.system_hash, cert.tol)
    rep = verify_certificate(sys_, S, flipped)
    assert not rep.passed and not rep.dynamics.passed
    assert rep.dynamics.first_violation_step == 0

    unsafe_states = cert.x_star * 3.0
    blown = SSequenceCertificate(cert.T, cert.controls, unsafe_states, tol=cert.tol)
    rep = verify_certificate(sys_, S, blown)
    assert not rep.safety.passed

    drifted = np.vstack([cert.x_star[:-1], cert.x_star[-1] + 5.0])
    rep = verify_certificate(sys_, S,
                             SSequenceCertificate(cert.T, cert.controls, drifted,
                                                  tol=cert.tol))
    assert not rep.closure.passed and rep.closure.first_violation_step == cert.T


def test_dominance_check(case1, case1_cert):
    sys_, _, _ = case1
    cert = case1_cert
    below = simulate(sys_, [10.0, 32.0], open_loop(cert), uniform(4), 100)
    rep = dominance_check(sys_, cert, below)
    assert rep.dominated and rep.first_violation_step is None
    # worst case from x*_0 dominates itself with equality
    self_run = simulate(sys_, cert.x_star[0], open_loop(cert), worst_case_w_star(), 70)
    rep = dominance_check(sys_, cert, self_run)
    assert rep.dominated and rep.worst_excess == 0.0


def test_dominance_preconditions(case1, case1_cert):
    sys_, _, _ = case1
    cert = case1_cert
    above = simulate(sys_, [20.0, 34.0], open_loop(cert), uniform(4), 10)
    with pytest.raises(ValueError):
        dominance_check(sys_, cert, above)
    fb = simulate(sys_, [10.0, 32.0], feedback(build_rcis(cert)), uniform(4), 10)
    with pytest.raises(ValueError):
        dominance_check(sys_, cert, fb)


def gamma_excess(trajectory, cycle) -> list:
    """Per-state distance to the phase-matched corner of ``cycle``, an
    ``invariance.LimitCycle``.

    max over coordinates of the positive part of x_k - x_inf_{k mod T};
    0.0 means the state is inside its phase box of Gamma.
    """
    out = []
    for k, xs in enumerate(trajectory.states):
        corner = cycle.points[k % cycle.T]
        out.append(float(np.max(np.maximum(xs - corner, 0.0))))
    return out


def test_gamma_excess_decreases_and_reaches(case1, case1_cert):
    sys_, _, _ = case1
    cert = case1_cert
    cycle = compute_limit_cycle(sys_, cert)
    traj = simulate(sys_, cert.x_star[0], open_loop(cert), worst_case_w_star(), 2500)
    excess = gamma_excess(traj, cycle)
    phase0 = excess[::cert.T]
    assert all(b <= a + 1e-12 for a, b in zip(phase0, phase0[1:]))
    assert phase0[-1] <= 1e-6


def test_csv_output(case1, case1_cert, tmp_path):
    sys_, S, _ = case1
    rcis = build_rcis(case1_cert)
    gamma = build_attractive_set(compute_limit_cycle(sys_, case1_cert))
    traj = simulate(sys_, [10, 32], open_loop(case1_cert), uniform(6), 30,
                    safe_set=S, omega=rcis.region, gamma=gamma)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "step,phase,x_1,x_2,u,safe,in_omega,in_gamma"
    assert len(lines) == len(traj.states) + 1
    last = lines[-1].split(",")
    assert last[4] == ""                      # no control on the final state
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"] and first[4] == "1" and first[5] == "1"


def test_csv_traffic_phases_colon_joined(traffic, traffic_cert, tmp_path):
    net, S, _ = traffic
    traj = simulate(net, traffic_cert.x_star[0], open_loop(traffic_cert),
                    worst_case_w_star(), 5, safe_set=S)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[14] == "NS:NS:NS:NS:NS:NS"


# --------------------------------------------------------------------------
# the validate-once rollout against a scalar reference
# --------------------------------------------------------------------------

def _scalar_rollout(sys_, x0, policy, rng, steps, safe_set=None, omega=None, gamma=None):
    """A loop over ``sys.step``, one scalar draw per coordinate (w* when
    ``rng`` is None) and one ``contains`` call per state."""
    states, controls, dists = [np.asarray(x0, dtype=float)], [], []
    status = "completed"
    for k in range(steps):
        u = policy(k, states[-1])
        if u is None:
            status = "halted_outside_region"
            break
        w = (np.asarray(sys_.w_star) if rng is None
             else np.array([rng.uniform(0.0, float(wi)) for wi in sys_.w_star]))
        states.append(sys_.step(states[-1], w, u))
        controls.append(u)
        dists.append(w)
    T = policy.T

    def flags(region):
        return tuple(None if region is None else region.contains(x) for x in states)

    in_gamma = tuple(None if gamma is None else gamma.boxes[k % T].contains(x)
                     for k, x in enumerate(states))
    return {"states": states, "controls": tuple(controls), "disturbances": dists,
            "phases": tuple(k % T for k in range(len(states))), "safe": flags(safe_set),
            "in_omega": flags(omega), "in_gamma": in_gamma, "status": status}


def _assert_same_rollout(traj, ref):
    assert len(traj.states) == len(ref["states"])
    assert np.array(traj.states).tobytes() == np.array(ref["states"]).tobytes()
    assert len(traj.disturbances) == len(ref["disturbances"])
    assert (np.array(traj.disturbances).tobytes()
            == np.array(ref["disturbances"]).tobytes())
    for name in ("controls", "phases", "safe", "in_omega", "in_gamma", "status"):
        assert getattr(traj, name) == ref[name], name


def test_rollout_equals_scalar_reference(case1, case1_cert, traffic, traffic_cert):
    sys_, S, _ = case1
    rcis = build_rcis(case1_cert)
    gamma = build_attractive_set(compute_limit_cycle(sys_, case1_cert))
    for seed in (3, 11):
        traj = simulate(sys_, [10, 32], open_loop(case1_cert), uniform(seed), 400,
                        safe_set=S, omega=rcis.region, gamma=gamma)
        ref = _scalar_rollout(sys_, [10, 32], open_loop(case1_cert), SplitMix64(seed), 400,
                              S, rcis.region, gamma)
        _assert_same_rollout(traj, ref)
        assert any(traj.in_gamma) and not all(traj.in_gamma)

    net, S, _ = traffic
    rcis = build_rcis(traffic_cert)
    x0 = 0.6 * traffic_cert.x_star[0]
    stream = SplitMix64(77).spawn(2)
    traj = simulate(net, x0, open_loop(traffic_cert), uniform(stream), 300,
                    safe_set=S, omega=rcis.region)
    ref_stream = SplitMix64(77).spawn(2)
    ref = _scalar_rollout(net, x0, open_loop(traffic_cert), ref_stream, 300, S, rcis.region)
    _assert_same_rollout(traj, ref)
    assert stream.next_u64() == ref_stream.next_u64()

    traj = simulate(net, x0, feedback(rcis), worst_case_w_star(), 300,
                    safe_set=S, omega=rcis.region)
    ref = _scalar_rollout(net, x0, feedback(rcis), None, 300, S, rcis.region)
    _assert_same_rollout(traj, ref)
    assert traj.status == "completed"


def test_halted_rollout_leaves_the_stream_as_the_scalar_path(case1, case1_cert):
    sys_, S, _ = case1
    # boxes below the witness are not invariant, so feedback on them can fall off
    shrunk = Rcis(BoxUnion(tuple(0.8 * case1_cert.x_star[:case1_cert.T])), case1_cert)
    x0 = 0.8 * case1_cert.x_star[0]
    stream, ref_stream = SplitMix64(1), SplitMix64(1)
    traj = simulate(sys_, x0, feedback(shrunk), uniform(stream), 200,
                    safe_set=S, omega=shrunk.region)
    ref = _scalar_rollout(sys_, x0, feedback(shrunk), ref_stream, 200, S, shrunk.region)
    _assert_same_rollout(traj, ref)
    assert traj.status == "halted_outside_region" and 1 < len(traj.states) < 201
    assert [stream.next_u64() for _ in range(3)] == [ref_stream.next_u64() for _ in range(3)]


def _numpy_feedback(corners, controls):
    """Feedback on the boxes below ``corners`` decided by numpy reductions,
    not by ``BoxUnion.locate``: u*_p of the lowest-index box holding x."""
    corners = np.asarray(corners, dtype=float)

    def control(k, x):
        xv = np.asarray(x, dtype=float)
        if not (xv >= -DEFAULT_TOL).all():
            return None
        hits = (xv <= corners + DEFAULT_TOL).all(axis=1)
        return controls[int(hits.argmax())] if hits.any() else None

    return Policy("feedback", len(corners), control)


def test_feedback_rollout_equals_numpy_box_test(traffic, traffic_cert):
    """Feedback under w* on traffic, against a reference policy whose box
    test shares no code with ``BoxUnion.locate``: on the witness boxes from
    two states, and on boxes shrunk below the witness, where it halts."""
    net, S, _ = traffic
    cert = traffic_cert
    witness = cert.x_star[:cert.T]
    for shrink, start, status in ((1.0, 0.6, "completed"), (1.0, 1.0, "completed"),
                                  (0.8, 0.0, "halted_outside_region")):
        corners = shrink * witness
        rcis = Rcis(BoxUnion(tuple(Box(c) for c in corners)), cert)
        x0 = start * corners[0]
        traj = simulate(net, x0, feedback(rcis), worst_case_w_star(), 300,
                        safe_set=S, omega=rcis.region)
        ref = _scalar_rollout(net, x0, _numpy_feedback(corners, cert.controls), None, 300,
                              S, rcis.region)
        _assert_same_rollout(traj, ref)
        assert traj.status == status
        if status == "completed":
            assert len(set(traj.controls)) > 1
        else:
            assert 1 < len(traj.states) < 301


def test_rollout_input_errors(case1, case1_cert):
    sys_, _, _ = case1
    above = Adversary(lambda s, steps: np.broadcast_to(
        2.0 * s.w_star, (steps, s.state_dim)))
    with pytest.raises(ValueError, match="exceeds bound"):
        simulate(sys_, [10, 32], open_loop(case1_cert), above, 20)
    with pytest.raises(ValueError, match="nonnegative"):
        simulate(sys_, [10, -1], open_loop(case1_cert), uniform(1), 20)
    unknown = Policy("open_loop", 2, lambda k, x: (1, 3)[k % 2])
    with pytest.raises(ValueError, match="unknown mode label 3"):
        simulate(sys_, [10, 32], unknown, uniform(1), 20)


def test_rollout_reaches_the_traced_methods(case1, case1_cert, monkeypatch):
    """The per-layer table of ``perfbench/run.py --trace 1`` counts calls of
    these methods by name; a rollout that went around one would leave its
    rows empty."""
    sys_, S, _ = case1
    rcis = build_rcis(case1_cert)
    gamma = build_attractive_set(compute_limit_cycle(sys_, case1_cert))
    counts = {}
    for owner, name in ((SplitMix64, "uniform"), (PolyLowerSet, "contains"),
                        (BoxUnion, "contains"), (Box, "contains"), (BoxUnion, "locate")):
        label = f"{owner.__name__}.{name}"
        original = getattr(owner, name)

        def counted(*args, _original=original, _label=label, **kwargs):
            counts[_label] = counts.get(_label, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    simulate(sys_, [10, 32], open_loop(case1_cert), uniform(3), 50,
             safe_set=S, omega=rcis.region, gamma=gamma)
    simulate(sys_, [10, 32], feedback(rcis), worst_case_w_star(), 20)
    assert sorted(counts) == ["Box.contains", "BoxUnion.contains", "BoxUnion.locate",
                              "PolyLowerSet.contains", "SplitMix64.uniform"]
    assert all(c >= 1 for c in counts.values())
