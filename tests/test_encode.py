"""Big-M encodings: size formulas, pinned models, round-trips, decode's gap
check and rejections, exactness against enumeration, and changes of units."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from monosafe.encode import (DecodeMismatchError, _switched_step, _traffic_step,
                             _unit_green_steps, count_clashes, decode, encode_fixed_controls,
                             encode_switched, encode_traffic, green_step_counts, lift)
from monosafe.invariance import find_s_sequence, least_fixed_point
from monosafe.milp import MilpSolution, _parallel_rows, solve_milp, write_lp_format
from monosafe.order import PolyLowerSet
from monosafe.simulate import verify_certificate
from monosafe.systems import (EW, NS, Link, SwitchedAffineSystem, TrafficNetwork,
                              system_from_dict)


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
    # rows: per step, one one-hot + 1 dynamics row per mode per coordinate,
    # plus safety rows (those with two or more nonzeros) for k < T and n
    # closure rows
    multi = int(np.sum(np.count_nonzero(S.A, axis=1) > 1))
    assert art.model.num_constraints == T * (1 + n_modes * n) + T * multi + n


@pytest.mark.parametrize("T", [1, 3])
def test_switched_size_formula_mixed_safe_set(T, case1):
    # x_0 <= 5 is one coordinate: the variable caps carry it, no row needed
    sys_, _, _ = case1
    S = PolyLowerSet(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([5.0, 8.0]))
    art = encode_switched(sys_, S, T)
    n, n_modes = sys_.state_dim, len(sys_.controls)
    assert art.model.num_constraints == T * (1 + n_modes * n) + T * 1 + n
    for k in range(T + 1):
        assert art.model.ub[art.x[k]].tolist() == [5.0, 8.0]


# sha256 of ``write_lp_format``: every coefficient, bound, name and row order.
# "traffic" is the encoding without its green-step count rows, the model the
# deep traffic tests search; "traffic+counts" is the whole encoding
@pytest.mark.parametrize("system, T, objective, digest", [
    ("case1", 3, "first_feasible",
     "1b7cb4876a769270ef5751f0881b488e4119f5ce658d2abdaa44f112002328b2"),
    ("case1", 3, "max_l1_x0",
     "cf7ec65ad27357d8629ea2ad42381c5b2a990739015dc1e3ac9c9442d7ffa492"),
    ("traffic", 2, "first_feasible",
     "8635f7d0f4ca82ff5c7f7386f97feefa2a87c0d1d926e55d5b3085552b0eaaa7"),
    ("traffic", 2, "max_l1_x0",
     "1dc1c3b73e421f82fcd276f0f49a18394141223503ffa767172d8d4a2cea4dff"),
    ("traffic+counts", 2, "first_feasible",
     "710ffc1902fc0e770b6ce90b2985aaef3bc33ae4f1b92f69a338d5e76774e99a"),
    ("traffic+counts", 2, "max_l1_x0",
     "be875d9e13ddcfa59c095874475fac691f49b1deb992d7a59fdff524ea70f2bc"),
    # no junction's counts conflict at T=5, so the encoding has no count rows
    ("traffic+counts", 5, "first_feasible",
     "7e734f90cc3ac7b3e17a20d76457087b93429f7c7e58ea570c24ef54ed255c7e"),
    # the largest models the benchmark's finds build
    ("case1", 7, "max_l1_x0",
     "ec36857e916344d9d31f2cb634f4f990c97216148deeb7e216e5298166daf245"),
    ("traffic+counts", 3, "first_feasible",
     "e64ccff760fe5a5a5aedb1b1f7a420ce9b588b860d0df9e8cd094b1716e51b7f"),
])
def test_encoding_pinned(system, T, objective, digest, case1, traffic, deep_traffic_model,
                         tmp_path):
    if system == "case1":
        sys_, S, _ = case1
        model = encode_switched(sys_, S, T, objective=objective).model
    elif system == "traffic":
        model = deep_traffic_model(T, objective)
    else:
        model = encode_traffic(traffic[0], T, objective=objective).model
    path = tmp_path / "model.lp"
    write_lp_format(model, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_step_templates_are_shared_read_only(case1, traffic, traffic_spec_dict, tmp_path):
    """Each step cache holds the template of one system (and its caps), and
    every encoding of that system shares it.  Builds that interleave safe
    sets with other caps, networks and horizons, and callers that mutate a
    model they got, leave every later model as a build from cold caches."""
    sys_, S1, _ = case1
    S2 = PolyLowerSet(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([50.0, 30.0]))
    assert S2.coordinate_bounds().tolist() != S1.coordinate_bounds().tolist()
    nets = traffic[0], system_from_dict(traffic_spec_dict, "second")[0]
    builds = [(encode_switched, (sys_, S)) for S in (S1, S2, S1)]
    builds += [(encode_traffic, (net,)) for net in nets]
    path = tmp_path / "model.lp"

    def lp(model):
        write_lp_format(model, str(path))
        return path.read_bytes()

    seen = []
    for T in (1, 2, 3):
        for encode, args in builds:
            model = encode(*args, T).model
            seen.append(lp(model))
            model.val += 1.0
            model.rhs += 1.0
            model.ub += 1.0
    cold = []
    for T in (1, 2, 3):
        for encode, args in builds:
            for cache in (_switched_step, _traffic_step, _unit_green_steps):
                cache.cache_clear()
            cold.append(lp(encode(*args, T).model))
    assert seen == cold


@pytest.mark.parametrize("T", [1, 2])
def test_traffic_size_formula(T, traffic):
    net, _, _ = traffic
    art = encode_traffic(net, T)
    L, J, n = len(net.links), len(net.junctions), net.state_dim
    # only a link with a nonzero outgoing turn gets a selector binary and
    # its two lower rows; the bundled grid has 10 such links of 12
    F = len({src for (src, _, ratio) in net.turns if ratio})
    assert F == 10
    assert len(art.model.binary_indices) == T * (J + F)
    assert art.model.num_vars == (T + 1) * n + T * (J + L) + T * F
    # plus two count rows per junction whose green-step counts conflict:
    # all six at T=1, and a, c and f at T=2
    conflicting = {1: "abcdef", 2: "acf"}[T]
    counts = green_step_counts(net, T)
    assert "".join(j for j, (ns, ew) in counts.items() if ns + ew > T) == conflicting
    assert art.model.num_constraints == T * (2 * L + 2 * F + L) + n + 2 * len(conflicting)


def ns_steps(net, controls):
    """Per junction, the number of steps ``controls`` give NS green."""
    return {j: sum(u[jx] == NS for u in controls) for jx, j in enumerate(net.junctions)}


def meets_counts(net, cert):
    counts = green_step_counts(net, cert.T)
    return all(counts[j][0] <= ns <= cert.T - counts[j][1]
               for j, ns in ns_steps(net, cert.controls).items())


def test_table2_plan_meets_the_counts(traffic, traffic_cert):
    net = traffic[0]
    assert green_step_counts(net, 5) == {"a": (3, 2), "b": (2, 2), "c": (3, 2),
                                         "d": (2, 2), "e": (2, 3), "f": (3, 2)}
    assert ns_steps(net, traffic_cert.controls) == {"a": 3, "b": 2, "c": 3,
                                                    "d": 3, "e": 2, "f": 3}
    assert meets_counts(net, traffic_cert)


EXACT_CASES = [
    # float division rounds 3 * 0.1 / 0.1 up to 3.0000000000000004
    ((0.1, 0.1, 1.0), None, 3, (3, 0)),
    # the binary values of 3.2 and 9.6 give 3 * 3.2 / 9.6 = 1 + 9e-17
    ((9.6, 3.2, 20.0), (3.0, 2.0, 20.0), 3, (1, 2)),
]


def exact_case_net(ns_link, ew_link):
    """One junction with an NS link and optionally an EW link, each given as
    (c, w*, x_s)."""
    c, w, x_s = ns_link
    links = [Link(id=1, direction=NS, head="a", c=c, x_s=x_s, w_star=w, entry=True)]
    if ew_link:
        c, w, x_s = ew_link
        links.append(Link(id=2, direction=EW, head="a", c=c, x_s=x_s, w_star=w, entry=True))
    return TrafficNetwork(links, ["a"], [])


@pytest.mark.parametrize("ns_link, ew_link, T, counts", EXACT_CASES)
def test_green_step_counts_are_exact(ns_link, ew_link, T, counts):
    """A flow balance that is a whole number of green steps in the data as
    written needs that many, not one more: the horizon stays feasible."""
    c, w, x_s = ns_link
    assert math.ceil(T * w / c) == counts[0] + 1
    net = exact_case_net(ns_link, ew_link)
    assert green_step_counts(net, T) == {"a": counts}
    res = find_s_sequence(net, t_min=T, t_max=T, objective="first_feasible")
    assert res.found
    assert verify_certificate(net, net.safe_set(), res.certificate).passed
    assert meets_counts(net, res.certificate)


def random_small_net(seed):
    """A seeded network of one to four junctions and two to five links, its
    data on a 0.1 grid so that flow balances often land exactly on a whole
    number of green steps.  A link receives turns from some links headed at
    one junction, its tail, and is an entry link if it receives none."""
    rng = np.random.default_rng(seed)
    junctions = "abcd"[:int(rng.integers(1, 5))]
    links = []
    for i in range(int(rng.integers(2, 6))):
        c = round(float(rng.uniform(2.0, 10.0)), 1)
        links.append({"id": i + 1, "direction": (NS, EW)[int(rng.integers(2))],
                      "head": junctions[i] if i < len(junctions)
                      else junctions[int(rng.integers(len(junctions)))],
                      "c": c, "x_s": round(c * float(rng.uniform(0.5, 3.0)), 1),
                      "w_star": round(c * float(rng.uniform(0.0, 0.6)), 1)})
    turns, out = [], {}
    for dst in links:
        if rng.random() < 0.5:
            continue
        tail = junctions[int(rng.integers(len(junctions)))]
        for src in links:
            ratio = round(float(rng.uniform(0.1, 0.6)), 1)
            if (src["head"] == tail and src is not dst and rng.random() < 0.7
                    and out.get(src["id"], 0.0) + ratio <= 1.0):
                out[src["id"]] = out.get(src["id"], 0.0) + ratio
                turns.append((src["id"], dst["id"], ratio))
    receiving = {dst for (_, dst, _) in turns}
    return TrafficNetwork([Link(entry=l["id"] not in receiving, **l) for l in links],
                          list(junctions), turns)


def test_count_clashes_are_where_parallel_rows_close_the_root(traffic):
    """The sweep asks for a plan where no junction's green-step counts
    clash: exactly the horizons whose root the parallel rows leave open,
    on the bundled grid and on seeded small networks, T=1..7."""
    nets = [traffic[0]] + [random_small_net(seed) for seed in range(40)]
    closed = 0
    for i, net in enumerate(nets):
        for T in range(1, 8):
            open_root = _parallel_rows(encode_traffic(net, T).model) is None
            assert (not count_clashes(net, T)) == open_root, (i, T)
            closed += not open_root
    assert 0 < closed < 7 * len(nets)


def test_count_rows_keep_every_status(without_count_rows):
    """On seeded small networks the count rows change no horizon's status:
    where they are written, the model without them is infeasible too.  And
    every plan found meets the counts at every junction, rows written or
    not, so the counts never exceed what a verified plan takes."""
    seen = set()
    for seed in range(40):
        net = random_small_net(seed)
        for T in (1, 2, 3):
            art = encode_traffic(net, T)
            sol = solve_milp(art.model)
            bare = without_count_rows(art)
            if bare.num_constraints < art.model.num_constraints:
                assert (sol.status, solve_milp(bare).status) == ("infeasible",) * 2, (seed, T)
                seen.add("rows")
            else:
                seen.add(sol.status)
            if sol.status == "optimal":
                assert meets_counts(net, decode(art, sol)), (seed, T)
    # rows are written, and horizons without rows are feasible or not
    assert seen == {"rows", "infeasible", "optimal"}


def reference_green_step_counts(net, T):
    """The flow floor iterated afresh at period T, in exact arithmetic:
    ``F <- T w* + beta^T F`` from ``F = 0``, one sweep per link."""
    def exact(v):
        return Fraction(repr(float(v)))

    F = [Fraction(0)] * len(net.links)
    for _ in net.links:
        F_next = [T * exact(link.w_star) for link in net.links]
        for (src, dst, ratio) in net.turns:
            F_next[net.link_index(dst)] += exact(ratio) * F[net.link_index(src)]
        F = F_next
    counts = {j: [0, 0] for j in net.junctions}
    for F_i, link in zip(F, net.links):
        c = exact(link.c)
        need = math.ceil(F_i / c) if c else (T + 1 if F_i else 0)
        side = 0 if link.direction == NS else 1
        counts[link.head][side] = max(counts[link.head][side], need)
    return {j: tuple(v) for j, v in counts.items()}


def test_scaled_unit_floor_matches_the_iteration_at_each_period(traffic):
    """``green_step_counts`` scales a floor computed once per network at
    T=1; it gives the counts of the iteration run at each T, on the bundled
    grid, on the seeded networks above and on a junction whose links have
    no capacity, networks alternating so that the one-network cache is
    refilled."""
    blocked = TrafficNetwork(
        [Link(id=1, direction=NS, head="a", c=0.0, x_s=5.0, w_star=1.0, entry=True),
         Link(id=2, direction=EW, head="a", c=0.0, x_s=5.0, w_star=0.0, entry=True)],
        ["a"], [])
    nets = [traffic[0], blocked] + [random_small_net(seed) for seed in range(40)]
    for T in range(1, 13):
        assert green_step_counts(blocked, T) == {"a": (T + 1, 0)}
        for k, net in enumerate(nets):
            assert green_step_counts(net, T) == reference_green_step_counts(net, T), (k, T)


def reference_unit_green_steps(net):
    """The unit flow floor over the capacity, iterated in ``Fraction``s."""
    def exact(v):
        return Fraction(repr(float(v)))

    arrivals = [exact(link.w_star) for link in net.links]
    turns = [(net.link_index(s), net.link_index(d), exact(r)) for (s, d, r) in net.turns if r]
    F = [Fraction(0)] * len(net.links)
    for _ in net.links:
        F_next = list(arrivals)
        for q, i, r in turns:
            F_next[i] += r * F[q]
        F = F_next
    capacities = [exact(link.c) for link in net.links]
    return tuple(F_i / c if c else (None if F_i else 0) for F_i, c in zip(F, capacities))


def test_integer_unit_floor_matches_fractions(traffic):
    """The integer sweeps give the ``Fraction`` iteration's floor exactly,
    on the bundled grid, the seeded networks and both exact cases."""
    nets = ([traffic[0]] + [random_small_net(seed) for seed in range(40)]
            + [exact_case_net(ns, ew) for ns, ew, _, _ in EXACT_CASES])
    for k, net in enumerate(nets):
        got, want = _unit_green_steps(net), reference_unit_green_steps(net)
        assert got == want, k
        assert [type(v) for v in got] == [type(v) for v in want], k


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
    sol.x[art.x[3, 0]] -= 0.02  # poke one witness coordinate below the run
    with pytest.raises(DecodeMismatchError):
        decode(art, sol)


def test_decode_accepts_state_above_simulation(case1):
    # the model only asks x_{k+1} >= f(x_k): slack above the run is valid,
    # and the certificate carries the simulated states, not the solver's
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    sol = solve_milp(art.model)
    exact = decode(art, sol)
    sol.x[art.x[3, 0]] += 0.02
    cert = decode(art, sol)
    assert cert.controls == exact.controls
    assert all(np.array_equal(a, b) for a, b in zip(cert.x_star, exact.x_star))
    assert verify_certificate(sys_, S, cert).passed


@pytest.mark.parametrize("x0, x1, condition", [((0.0, 0.0), (1.0, 1.0), "closure"),
                                               ((20.0, 0.0), (1e3, 1e3), "safety")],
                         ids=["closure", "safety"])
def test_decode_rejects_unverified_witness(x0, x1, condition):
    # solver states above the re-simulation pass the gap check, so the
    # certificate checker alone must refuse a run that does not close, or
    # one that starts outside S (and outside the state caps)
    art = encode_switched(contraction_2d(), simplex_safe_set(10.0), 1, objective="max_l1_x0")
    sol = solve_milp(art.model)
    assert sol.status == "optimal"
    for k, state in enumerate((x0, x1)):
        for i, v in enumerate(state):
            sol.x[art.x[k, i]] = v
    with pytest.raises(DecodeMismatchError, match=condition):
        decode(art, sol)


def test_decode_rejects_fractional_binary(case1):
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    sol = solve_milp(art.model)
    sol.x[art.u[2]] = 0.5
    with pytest.raises(DecodeMismatchError):
        decode(art, sol)


@pytest.fixture(scope="module")
def traffic_t5_witness(traffic):
    """The bundled traffic certificate at T=5 and its encoding, with the
    certificate's states and phases written into a zero assignment."""
    net = traffic[0]
    cert = find_s_sequence(net, t_min=5, t_max=5, objective="first_feasible").certificate
    art = encode_traffic(net, 5)
    x = np.zeros(art.model.num_vars)
    x[art.x] = cert.x_star
    x[art.u] = [[phase == NS for phase in step] for step in cert.controls]
    return cert, art, x


def test_traffic_decode_round_trip(traffic_t5_witness):
    cert, art, x = traffic_t5_witness
    got = decode(art, MilpSolution(status="optimal", x=x.copy()))
    assert got.controls == cert.controls
    assert [s.tobytes() for s in got.x_star] == [s.tobytes() for s in cert.x_star]


def test_lift_then_decode_round_trips_the_bundled_certificates(case1, case1_cert, traffic,
                                                              traffic_cert):
    """``lift`` writes a witness into every column of its model, and
    ``decode`` reads it back.  The traffic plan round-trips as stored.
    case1's stored witness is rounded (its declared ``tol`` is 0.01), so its
    closure misses the model's by 1.04e-3 and decoding refuses it; its
    controls' least fixed point's orbit round-trips bit for bit."""
    art = encode_traffic(traffic[0], 5)
    got = decode(art, MilpSolution(status="optimal",
                                   x=lift(art, traffic_cert.controls, traffic_cert.x_star)))
    assert got.controls == traffic_cert.controls
    assert np.max(np.abs(got.x_star - traffic_cert.x_star)) < 1e-12
    sys_, S, _ = case1
    art = encode_switched(sys_, S, 7, objective="max_l1_x0")
    with pytest.raises(DecodeMismatchError, match="closure"):
        decode(art, MilpSolution(status="optimal",
                                 x=lift(art, case1_cert.controls, case1_cert.x_star)))
    orbit = least_fixed_point(sys_, S, case1_cert.controls, 1000).states
    got = decode(art, MilpSolution(status="optimal", x=lift(art, case1_cert.controls, orbit)))
    assert got.controls == case1_cert.controls
    assert got.x_star.tobytes() == orbit.tobytes()
    with pytest.raises(ValueError):
        lift(art, case1_cert.controls[:-1], orbit)


def test_traffic_decode_names_fractional_junction(traffic_t5_witness):
    _, art, x = traffic_t5_witness
    x = x.copy()
    x[art.u[2, 3]] = 0.5
    junction = art.system.junctions[3]
    with pytest.raises(DecodeMismatchError, match=f"step 2: junction {junction} binary"):
        decode(art, MilpSolution(status="optimal", x=x))


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


def random_positive_switched(seed):
    """A small positive switched system whose modes each shrink some
    coordinates and grow the others, so that closing a period may take a
    mix of modes; the safe set is a box plus one coupling row."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    modes = []
    for _ in range(int(rng.integers(2, 4))):
        A = np.where(rng.random((n, n)) < 0.3, rng.uniform(0.0, 0.3, (n, n)), 0.0)
        grow = rng.random(n) < 0.5
        A[np.diag_indices(n)] = np.where(grow, rng.uniform(1.0, 1.6, n),
                                         rng.uniform(0.1, 0.7, n))
        modes.append(A.round(2))
    w = rng.uniform(0.1, 1.0, n).round(2)
    rows = np.vstack([np.eye(n), rng.uniform(0.0, 1.0, (1, n)).round(2)])
    b = rng.uniform(4.0, 12.0, n + 1).round(2)
    return SwitchedAffineSystem(modes, w), PolyLowerSet(rows, b)


def turning_net():
    # two junctions; link 1 feeds the short link 3, links 2-4 feed nothing.
    # Holding vehicles back on link 1 would spare link 3, so a model that
    # let z_1 fall below min(x_1, c_1) would overstate the max-l1 optimum
    links = [
        Link(id=1, direction=EW, head="a", c=8.0, x_s=30.0, w_star=1.5, entry=True),
        Link(id=2, direction=NS, head="a", c=4.0, x_s=12.0, w_star=1.0, entry=True),
        Link(id=3, direction=EW, head="b", c=4.0, x_s=10.0, w_star=0.5, entry=False),
        Link(id=4, direction=NS, head="b", c=5.0, x_s=20.0, w_star=2.0, entry=True),
    ]
    return TrafficNetwork(links, ["a", "b"], [(1, 3, 0.8)])


def _lp_max_l1(G, h, cap):
    """max sum(x_0) over {0 <= x_0 <= cap : G x_0 <= h}, or None if empty."""
    res = linprog(-np.ones(cap.shape[0]), A_ub=np.vstack(G), b_ub=np.concatenate(h),
                  bounds=[(0.0, float(c)) for c in cap], method="highs")
    return -res.fun if res.status == 0 else None


def _best(values):
    found = [v for v in values if v is not None]
    return max(found) if found else None


def _switched_sequence_oracle(sys_, S, seq):
    """The max-l1 witness of the mode sequence ``seq``: an LP over x_0 on
    the exact affine rollout x_k = Phi_k x_0 + psi_k; None if it does not
    close."""
    n = sys_.state_dim
    Phi, psi, G, h = np.eye(n), np.zeros(n), [], []
    for m in seq:
        G.append(S.A @ Phi)
        h.append(S.b - S.A @ psi)
        A = sys_.modes[m - 1]
        Phi, psi = A @ Phi, A @ psi + sys_.w_star
    G.append(Phi - np.eye(n))
    h.append(-psi)
    return _lp_max_l1(G, h, S.coordinate_bounds())


def _switched_oracle(sys_, S, T):
    """Best max-l1 witness over every mode sequence
    (``_switched_sequence_oracle``); None if none closes."""
    return _best(_switched_sequence_oracle(sys_, S, seq)
                 for seq in itertools.product(sys_.controls, repeat=T))


def test_fixed_control_lp_matches_the_sequence_oracle(case1):
    """``encode_fixed_controls`` is the oracle's LP of one sequence: on
    every mode sequence of the random systems at T=1..3, and on the
    rotations of case1's T=7 necklace, ``solve_milp`` finds it infeasible
    exactly where the oracle does, and otherwise its optimum, within
    1e-7.  Both answers occur."""
    cases = []
    for seed in range(24):
        sys_, S = random_positive_switched(seed)
        cases += [(sys_, S, seq) for T in (1, 2, 3)
                  for seq in itertools.product(sys_.controls, repeat=T)]
    necklace = (1, 2, 2, 1, 2, 2, 2)
    cases += [(*case1[:2], necklace[k:] + necklace[:k]) for k in range(7)]
    outcomes = set()
    for sys_, S, seq in cases:
        want = _switched_sequence_oracle(sys_, S, seq)
        model = encode_fixed_controls(sys_, S, seq)
        assert (model.num_vars, model.binary_indices.size) == (sys_.state_dim, 0)
        sol = solve_milp(model)
        assert sol.status == ("infeasible" if want is None else "optimal"), seq
        if want is not None:
            assert sol.objective == pytest.approx(want, rel=1e-7, abs=1e-7), seq
        outcomes.add(want is None)
    assert outcomes == {True, False}


def green_links(net, u):
    """Bool per link: green under control ``u``, from each link's head
    junction and direction alone."""
    phase = dict(zip(net.junctions, u))
    return np.array([phase[l.head] == l.direction for l in net.links])


def _traffic_oracle(net, T):
    """As ``_switched_oracle`` over every phase sequence and min branch: a
    green link serves z = x while x <= c, or z = c while x >= c."""
    n = net.state_dim
    flow = -np.eye(n)                       # x+ = x + flow z + w
    for (src, dst, ratio) in net.turns:
        flow[net.link_index(dst), net.link_index(src)] += ratio

    def lp(seq, at_c):
        Phi, psi, G, h = np.eye(n), np.zeros(n), [], []
        for u, branches in zip(seq, at_c):
            G.append(Phi)
            h.append(net.x_s - psi)
            Zphi, zpsi = np.zeros((n, n)), np.zeros(n)
            for i, full in zip(np.flatnonzero(green_links(net, u)), branches):
                if full:
                    zpsi[i] = net.c[i]
                    G.append(-Phi[i:i + 1])
                    h.append([psi[i] - net.c[i]])
                else:
                    Zphi[i], zpsi[i] = Phi[i], psi[i]
                    G.append(Phi[i:i + 1])
                    h.append([net.c[i] - psi[i]])
            Phi, psi = Phi + flow @ Zphi, psi + flow @ zpsi + net.w_star
        G.append(Phi - np.eye(n))
        h.append(-psi)
        return _lp_max_l1(G, h, net.x_s)

    def choices(seq):
        greens = [int(np.count_nonzero(green_links(net, u))) for u in seq]
        return itertools.product(*(itertools.product((False, True), repeat=g)
                                   for g in greens))

    return _best(lp(seq, at_c) for seq in itertools.product(net.controls, repeat=T)
                 for at_c in choices(seq))


def _assert_matches_oracle(system, S, T, encode, want):
    feas = solve_milp(encode(T).model)
    art = encode(T, objective="max_l1_x0")
    sol = solve_milp(art.model)
    if want is None:
        assert (feas.status, sol.status) == ("infeasible", "infeasible"), T
        return
    assert (feas.status, sol.status) == ("optimal", "optimal"), T
    assert sol.objective == pytest.approx(want, rel=1e-7, abs=1e-7), T
    assert verify_certificate(system, S, decode(art, sol)).passed
    assert verify_certificate(system, S, decode(encode(T), feas)).passed


def test_switched_encoding_matches_enumeration():
    """The one-sided model has exactly the exact dynamics' witnesses: every
    horizon's status, and the max-l1 optimum, match an enumeration of mode
    sequences solved as LPs on the exact rollout."""
    outcomes = set()
    for seed in range(24):
        sys_, S = random_positive_switched(seed)
        for T in (1, 2, 3):
            want = _switched_oracle(sys_, S, T)
            _assert_matches_oracle(sys_, S, T,
                                   lambda T, **kw: encode_switched(sys_, S, T, **kw), want)
            outcomes.add((T, want is None))
    # both answers occur at every horizon
    assert outcomes == {(T, none) for T in (1, 2, 3) for none in (True, False)}


@pytest.mark.parametrize("make_net, horizons", [(alternating_net, (1, 2, 3)),
                                                (turning_net, (1, 2))])
def test_traffic_encoding_matches_enumeration(make_net, horizons):
    net = make_net()
    outcomes = []
    for T in horizons:
        want = _traffic_oracle(net, T)
        _assert_matches_oracle(net, net.safe_set(), T,
                               lambda T, **kw: encode_traffic(net, T, **kw), want)
        outcomes.append(want is None)
    assert outcomes[0] and not outcomes[-1]


def rescaled(sys_, S, scale):
    """The same system in other units: ``w_star`` and ``b`` times ``scale``."""
    return (SwitchedAffineSystem(sys_.modes, scale * np.asarray(sys_.w_star)),
            PolyLowerSet(S.A, scale * S.b))


def test_scaled_case1_finds_t7(case1):
    """case1 in units 100 times smaller still has its minimal T=7 witness,
    with 100 times the max-l1 optimum, under both objectives."""
    sys_, S = rescaled(*case1[:2], 100.0)
    for objective in ("max_l1_x0", "first_feasible"):
        res = find_s_sequence(sys_, S, t_max=7, objective=objective)
        assert res.found and res.minimal, objective
        assert res.certificate.T == 7
        assert verify_certificate(sys_, S, res.certificate).passed
        if objective == "max_l1_x0":
            assert np.sum(res.certificate.x_star[0]) == pytest.approx(5000.0, rel=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_horizon_status_invariant_under_units(seed):
    base = random_positive_switched(seed)

    def statuses(scale):
        sys_, S = rescaled(*base, scale)
        return [solve_milp(encode_switched(sys_, S, T).model).status for T in (1, 2, 3)]

    want = statuses(1.0)
    for k in (1, 2, 3, 4):
        assert statuses(10.0 ** k) == want, k
