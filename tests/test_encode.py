"""Big-M encodings: size formulas, pinned models, round-trips, decode paranoia."""

import hashlib

import numpy as np
import pytest

from monosafe.encode import DecodeMismatchError, decode, encode_switched, encode_traffic
from monosafe.milp import solve_milp, write_lp_format
from monosafe.order import PolyLowerSet
from monosafe.simulate import verify_certificate
from monosafe.systems import EW, NS, Link, SwitchedAffineSystem, TrafficNetwork


def contraction_2d():
    return SwitchedAffineSystem([[[0.5, 0.0], [0.0, 0.5]]], [0.1, 0.1])


def simplex_safe_set(bound=10.0):
    return PolyLowerSet(np.array([[1.0, 1.0]]), np.array([bound]))


def alternating_net():
    links = [
        Link(id=1, direction=EW, head="a", c=5.0, x_s=20.0, w_star=2.0, entry=True),
        Link(id=2, direction=NS, head="a", c=5.0, x_s=20.0, w_star=1.0, entry=True),
    ]
    return TrafficNetwork(links, ["a"], [])


@pytest.mark.parametrize("T", [1, 2, 3])
def test_switched_size_formula(T, case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, T)
    n, n_modes = sys_.state_dim, len(sys_.controls)
    assert len(art.model.binary_indices) == T * n_modes
    assert art.model.num_vars == T * n_modes + (T + 1) * n
    # rows: per step, one one-hot + 2 sandwich rows per mode per coordinate,
    # plus safety rows (those with two or more nonzeros) for k < T and n
    # closure rows
    multi = int(np.sum(np.count_nonzero(S.A, axis=1) > 1))
    assert art.model.num_constraints == T * (1 + 2 * n_modes * n) + T * multi + n


@pytest.mark.parametrize("T", [1, 3])
def test_switched_size_formula_mixed_safe_set(T, case1):
    # x_0 <= 5 is one coordinate: the variable caps carry it, no row needed
    sys_, _, _ = case1
    S = PolyLowerSet(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([5.0, 8.0]))
    art = encode_switched(sys_, S, T)
    n, n_modes = sys_.state_dim, len(sys_.controls)
    assert art.model.num_constraints == T * (1 + 2 * n_modes * n) + T * 1 + n
    for k in range(T + 1):
        assert [art.model.vars[art.x_idx[(k, i)]].ub for i in range(n)] == [5.0, 8.0]


# sha256 of ``write_lp_format``: every coefficient, bound, name and row order
@pytest.mark.parametrize("system, T, objective, digest", [
    ("case1", 3, "feasibility",
     "212880df99a4da8beaca510347b618103c04e477f5ef115e2b1fc68acc0ba7fe"),
    ("case1", 3, "max_l1_x0",
     "669fe67fcf232f548f0d713d8199080ad2564b552f4dc08984737621c7a0427f"),
    ("traffic", 2, "feasibility",
     "5b370913fc68f6af8c2e97a48bcd01026575b8589f3e06124a71515cc8101600"),
    ("traffic", 2, "max_l1_x0",
     "b9be67be45b7b49b72bf69e3a3d94073e50ba947c04a1196ef3e019ba8f473fa"),
])
def test_encoding_pinned(system, T, objective, digest, case1, traffic, tmp_path):
    if system == "case1":
        sys_, S, _ = case1
        art = encode_switched(sys_, S, T, objective=objective)
    else:
        art = encode_traffic(traffic[0], T, objective=objective)
    path = tmp_path / "model.lp"
    write_lp_format(art.model, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("T", [1, 2])
def test_traffic_size_formula(T, traffic):
    net, _, _ = traffic
    art = encode_traffic(net, T)
    L, J, n = len(net.links), len(net.junctions), net.state_dim
    assert len(art.model.binary_indices) == T * (J + L)
    assert art.model.num_vars == (T + 1) * n + T * (J + L) + T * L
    assert art.model.num_constraints == T * (4 * L + L) + n


def test_case1_round_trip(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    sol = solve_milp(art.model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(50.0, abs=1e-6)
    cert = decode(art, sol)
    assert cert.T == 7
    assert cert.controls == (1, 2, 2, 1, 2, 2, 2)
    # independent check through pure simulation
    assert verify_certificate(sys_, S, cert).passed
    assert np.sum(cert.x_star[0]) == pytest.approx(50.0, abs=1e-6)


def test_case1_short_horizon_infeasible(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 2)
    assert solve_milp(art.model).status == "infeasible"


def test_contraction_feasible_at_t1():
    sys_ = contraction_2d()
    S = simplex_safe_set()
    art = encode_switched(sys_, S, 1, objective="max_l1_x0")
    sol = solve_milp(art.model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(10.0, abs=1e-6)
    cert = decode(art, sol)
    assert verify_certificate(sys_, S, cert).passed
    assert np.all(cert.x_star[1] <= cert.x_star[0] + 1e-9)


def test_unstable_never_closes():
    sys_ = SwitchedAffineSystem([[[2.0, 0.0], [0.0, 2.0]]], [0.1, 0.1])
    S = PolyLowerSet.rectangle([1.0, 1.0])
    for T in (1, 2, 3):
        art = encode_switched(sys_, S, T)
        assert solve_milp(art.model).status == "infeasible", T


def test_alternating_net_horizons():
    net = alternating_net()
    art1 = encode_traffic(net, 1)
    assert solve_milp(art1.model).status == "infeasible"
    art2 = encode_traffic(net, 2)
    sol = solve_milp(art2.model)
    assert sol.status == "optimal"
    cert = decode(art2, sol)
    assert cert.T == 2
    assert verify_certificate(net, net.safe_set(), cert).passed
    # the only way to close a 2-cycle here is to serve each direction once
    phases = {u[0] for u in cert.controls}
    assert phases == {NS, EW}


def test_decode_rejects_corrupted_state(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    sol = solve_milp(art.model)
    sol.x[art.x_idx[(3, 0)]] += 0.02      # poke one witness coordinate
    with pytest.raises(DecodeMismatchError):
        decode(art, sol)


def test_decode_rejects_fractional_binary(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    sol = solve_milp(art.model)
    for m in sys_.controls:
        sol.x[art.control_idx[(2, m)]] = 0.5
    with pytest.raises(DecodeMismatchError):
        decode(art, sol)


def test_decode_requires_assignment(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 2)
    sol = solve_milp(art.model)          # infeasible, no x
    with pytest.raises(DecodeMismatchError):
        decode(art, sol)


def test_encoder_input_validation(case1):
    sys_, S, _ = case1
    with pytest.raises(ValueError):
        encode_switched(sys_, S, 0)
    with pytest.raises(ValueError):      # 2nd coordinate unbounded: no big-M
        encode_switched(sys_, PolyLowerSet(np.array([[1.0, 0.0]]), np.array([5.0])), 2)
    with pytest.raises(ValueError):
        encode_switched(sys_, PolyLowerSet(np.eye(3), np.ones(3)), 2)
    with pytest.raises(ValueError):
        encode_switched(sys_, S, 2, objective="nope")
    with pytest.raises(ValueError):
        encode_traffic(alternating_net(), 0)
