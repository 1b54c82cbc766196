"""System models: switched affine, traffic network, monotonicity checks."""

import itertools
import time
from importlib import resources

import numpy as np
import pytest

from monosafe.encode import encode_traffic
from monosafe.order import Box, PolyLowerSet
from monosafe.simulate import Policy, open_loop, simulate, uniform, worst_case_w_star
from monosafe.systems import (EW, NS, Link, PhaseTuples, SwitchedAffineSystem, TrafficNetwork,
                              check_monotone, cooperative_bound_check,
                              load_system_file, system_from_dict, system_hash)
from test_encode import green_links, random_small_net

DATA = resources.files("monosafe.data")

A1 = [[1.5, 0.1], [0.2, 0.5]]
A2 = [[0.7, 0.1], [0.1, 1.1]]
W = [0.2, 0.1]


def fresh_switched():
    return SwitchedAffineSystem([A1, A2], W)


def test_switched_step_hand_values():
    s = fresh_switched()
    assert np.allclose(s.step([10, 32], s.w_star, 1), [18.4, 18.1])
    assert np.allclose(s.step([10, 32], s.w_star, 2), [10.4, 36.3])
    # zero disturbance is admissible
    assert np.allclose(s.step([1, 0], [0, 0], 1), [1.5, 0.2])


def test_switched_step_validation():
    s = fresh_switched()
    with pytest.raises(ValueError):
        s.step([1, 1], s.w_star, 3)           # no such mode
    with pytest.raises(ValueError):
        s.step([1, 1], [0.3, 0.1], 1)         # w above w*
    with pytest.raises(ValueError):
        s.step([-1, 1], s.w_star, 1)


def test_switched_rejects_negative_matrix():
    with pytest.raises(ValueError):
        SwitchedAffineSystem([[[1.0, -0.1], [0.0, 1.0]]], [0.0, 0.0])


def mini_net(with_turn=False):
    links = [
        Link(id=1, direction=EW, head="a", c=5.0, x_s=20.0, w_star=2.0, entry=True),
        Link(id=2, direction=NS, head="a", c=5.0, x_s=20.0, w_star=1.0, entry=True),
    ]
    turns = []
    if with_turn:
        links.append(Link(id=3, direction=NS, head="b", c=4.0, x_s=20.0,
                          w_star=0.0, entry=False))
        turns = [(2, 3, 0.4)]
    junctions = ["a", "b"] if with_turn else ["a"]
    return TrafficNetwork(links, junctions, turns)


def test_traffic_step_hand_values():
    net = mini_net()
    # NS green: link 2 serves min(7,5)=5, link 1 queues its demand
    assert np.allclose(net.step([10, 7], net.w_star, (NS,)), [12, 3])
    assert np.allclose(net.step([10, 7], net.w_star, (EW,)), [7, 8])
    # sub-capacity queue empties completely
    assert np.allclose(net.step([10, 3], net.w_star, (NS,)), [12, 1])


def test_traffic_turn_propagation():
    net = mini_net(with_turn=True)
    x1 = net.step([10, 7, 2], net.w_star, (NS, NS))
    # link 2 releases 5, of which 0.4*5=2 lands on link 3; link 3 also serves min(2,4)
    assert np.allclose(x1, [12, 3, 2 - 2 + 2])


def test_traffic_outflow():
    # with no turns, a link's served flow is x + w* - x+: min(x, c) on green, 0 on red
    net = mini_net()
    for x, u, served in (([10, 7], (NS,), [0, 5]), ([10, 3], (EW,), [5, 0])):
        assert np.array_equal(np.add(x, net.w_star) - net.step(x, net.w_star, u), served)


def test_traffic_step_validation():
    net = mini_net()
    with pytest.raises(ValueError):
        net.step([1, 1], net.w_star, (NS,) * 2)      # wrong phase count
    with pytest.raises(ValueError):
        net.step([1, 1], net.w_star, ("XX",))
    with pytest.raises(ValueError):
        net.step([1, 1], [3.0, 1.0], (NS,))          # w above w*


def test_traffic_topology_validation():
    dup = [Link(1, EW, "a", 5, 20, 2, True), Link(1, NS, "a", 5, 20, 1, True)]
    with pytest.raises(ValueError):
        TrafficNetwork(dup, ["a"], [])
    bad_head = [Link(1, EW, "zz", 5, 20, 2, True)]
    with pytest.raises(ValueError):
        TrafficNetwork(bad_head, ["a"], [])
    links = [Link(1, EW, "a", 5, 20, 2, True), Link(2, NS, "a", 5, 20, 0, False)]
    with pytest.raises(ValueError):   # ratios for one source sum beyond 1
        TrafficNetwork(links, ["a"], [(1, 2, 0.7), (1, 2, 0.6)])
    with pytest.raises(ValueError):   # ratio outside [0, 1]
        TrafficNetwork(links, ["a"], [(1, 2, 1.3)])
    with pytest.raises(ValueError):   # turns into an entry link
        TrafficNetwork([Link(1, EW, "a", 5, 20, 2, True),
                        Link(2, NS, "a", 5, 20, 1, True)], ["a"], [(1, 2, 0.5)])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["c", "x_s", "w_star"])
def test_traffic_rejects_non_finite_link_data(field, value):
    data = {"c": 5.0, "x_s": 20.0, "w_star": 2.0, field: value}
    with pytest.raises(ValueError, match="link 7: c, x_s, w_star must be finite and nonnegative"):
        TrafficNetwork([Link(7, EW, "a", entry=True, **data)], ["a"], [])


def test_traffic_mass_conserves_or_exits(traffic):
    net, _, _ = traffic
    rng = np.random.default_rng(5)
    controls = list(net.controls)
    for _ in range(200):
        x = rng.uniform(0, net.x_s)
        u = controls[rng.integers(len(controls))]
        w = rng.uniform(0, net.w_star)
        x1 = net.step(x, w, u)
        assert np.all(x1 >= -1e-12)
        assert np.sum(x1) <= np.sum(x) + np.sum(w) + 1e-9


def test_traffic_bundled_table_golden(traffic):
    net, safe_set, _ = traffic
    assert net.junctions == ("a", "b", "c", "d", "e", "f")
    assert net.state_dim == 12
    assert np.allclose(net.x_s, 60.0)
    x0 = np.array([48, 14, 54, 48, 17.66, 54, 4, 12.47, 28, 60, 28, 29], float)
    x1 = net.step(x0, net.w_star, (NS,) * 6)
    expected = [56, 18, 60, 56, 22.66, 60, 4, 5.27, 15, 54, 24, 24]
    assert np.allclose(x1, expected, atol=1e-9)
    assert safe_set.contains(x0)
    assert not safe_set.contains(np.full(12, 60.5))


def test_beta_resolution_switch(traffic_spec_dict):
    first = system_from_dict(traffic_spec_dict, "first")[0]
    second = system_from_dict(traffic_spec_dict, "second")[0]
    r1 = {(s, d): r for (s, d, r) in first.turns}
    r2 = {(s, d): r for (s, d, r) in second.turns}
    assert r1[(11, 5)] == 0.5 and r2[(11, 5)] == 0.3
    assert {k: v for k, v in r1.items() if k != (11, 5)} == \
           {k: v for k, v in r2.items() if k != (11, 5)}


def test_system_hash_binds_content(traffic_spec_dict, traffic, case1):
    # invariant under key order, sensitive to values, shared by both resolutions
    shuffled = dict(reversed(list(traffic_spec_dict.items())))
    assert system_hash(shuffled) == system_hash(traffic_spec_dict) == traffic[2]
    tweaked = dict(traffic_spec_dict)
    tweaked["links"] = [dict(l) for l in traffic_spec_dict["links"]]
    tweaked["links"][0]["c"] = 21
    assert system_hash(tweaked) != traffic[2]
    assert case1[2] != traffic[2]


def test_loaded_hash_binds_beta_resolution(traffic, case1):
    """Loaded under the second turn-ratio resolution, a traffic spec hashes
    differently from the first; a switched spec, which the resolution does
    not change, keeps its hash."""
    traffic_path, case1_path = str(DATA / "traffic_table1.json"), str(DATA / "case1.json")
    assert load_system_file(traffic_path, "first")[2] == traffic[2]
    second = load_system_file(traffic_path, "second")[2]
    assert second != traffic[2] and len(second) == len(traffic[2])
    assert load_system_file(case1_path, "second")[2] == case1[2]


def test_switched_to_dict_round_trip(case1):
    s = case1[0]
    rebuilt = system_from_dict(s.to_dict())[0]
    x = np.array([3.0, 4.0])
    for m in s.controls:
        assert np.array_equal(rebuilt.step(x, s.w_star, m), s.step(x, s.w_star, m))


def test_traffic_to_dict_round_trip(traffic):
    net = traffic[0]
    rebuilt = system_from_dict(net.to_dict())[0]
    x = np.linspace(1, 30, 12)
    u = (NS, EW, NS, EW, NS, EW)
    assert np.allclose(rebuilt.step(x, net.w_star, u), net.step(x, net.w_star, u))
    assert system_hash(rebuilt.to_dict()) == system_hash(net.to_dict())


def test_check_monotone_clean_systems(traffic):
    s = fresh_switched()
    rep = check_monotone(s, 500, seed=11, domain_box=Box([50.0, 50.0]))
    assert rep.violations == 0 and rep.samples == 500
    net = traffic[0]
    rep = check_monotone(net, 300, seed=12, domain_box=Box(net.x_s))
    assert rep.violations == 0


def test_check_monotone_flags_mutated_system(unchecked_switched):
    mode = np.array(A1)
    mode[0, 1] = -0.3       # one negative entry, which construction rejects
    s = unchecked_switched([mode, A2], W)
    rep = check_monotone(s, 500, seed=13, domain_box=Box([50.0, 50.0]))
    assert rep.violations > 0
    assert rep.worst_violation > 0


def test_switched_rollout_is_the_mode_loop(case1, case1_cert):
    """A seeded case1 rollout computes ``modes[u - 1] @ x + w`` step by
    step, byte for byte."""
    sys_ = case1[0]
    traj = simulate(sys_, case1_cert.x_star[0], open_loop(case1_cert), uniform(17), 400)
    x = case1_cert.x_star[0]
    states = [x]
    for u, w in zip(traj.controls, traj.disturbances):
        x = sys_.modes[u - 1] @ x + w
        states.append(x)
    assert np.array(traj.states).tobytes() == np.array(states).tobytes()


def _textbook_step(net, x, w, u):
    """``x - z + w + beta^T z`` with ``z`` the green links' ``min(x, c)``,
    from the link table and the turn list alone; also ``beta^T z``."""
    beta = np.zeros((net.state_dim, net.state_dim))
    for (src, dst, ratio) in net.turns:
        beta[net.link_index(src), net.link_index(dst)] = ratio
    z = np.where(green_links(net, u), np.minimum(x, net.c), 0.0)
    inflow = beta.T @ z
    return x - z + w + inflow, inflow


def _kernel_nets(traffic):
    return [traffic[0]] + [random_small_net(seed) for seed in range(12)]


def test_traffic_advance_matches_textbook_update(traffic):
    """For every control, ``advance`` under the checked map is the textbook
    update within 4 ulps of the terms' magnitude ``x + w + beta^T z``: the
    two differ only in the order of rounding."""
    rng = np.random.default_rng(23)
    for net in _kernel_nets(traffic):
        for u in net.controls:
            m = net.check_control(u)
            for _ in range(4):
                x = rng.uniform(0.0, 2.0 * net.c + 1.0)
                w = rng.uniform(0.0, net.w_star)
                ref, inflow = _textbook_step(net, x, w, u)
                got = net.advance(x, w, m)
                assert np.all(np.abs(got - ref) <= 4 * np.spacing(x + w + inflow))


def test_advance_into_out_is_the_allocating_advance(case1, traffic):
    """``advance(x, w, m, out)`` into a row of a larger array, and with
    ``out is x``, gives the bytes of the allocating ``advance`` and of
    ``step``, for both models and every control."""
    rng = np.random.default_rng(37)
    for sys_ in (case1[0], traffic[0], random_small_net(3)):
        n = sys_.state_dim
        cap = getattr(sys_, "c", np.full(n, 20.0))
        for u in sys_.controls:
            m = sys_.check_control(u)
            for _ in range(3):
                x = rng.uniform(0.0, 2.0 * cap + 1.0)
                w = rng.uniform(0.0, sys_.w_star)
                expected = sys_.advance(x, w, m)
                assert expected.tobytes() == sys_.step(x, w, u).tobytes()
                rows = np.full((3, n), np.nan)
                out = rows[1]
                assert sys_.advance(x, w, m, out) is out
                assert out.tobytes() == expected.tobytes()
                assert np.isnan(rows[[0, 2]]).all()
                rows[2] = x                   # out and x: two views of one row
                sys_.advance(rows[2], w, m, rows[2])
                assert rows[2].tobytes() == expected.tobytes()
                same = x.copy()
                assert sys_.advance(same, w, m, same) is same
                assert same.tobytes() == expected.tobytes()


def test_checked_control_is_a_cached_read_only_map(traffic):
    net = traffic[0]
    u = (NS, EW, NS, EW, NS, EW)
    m = net.check_control(u)
    assert net.check_control(u) is m and net.check_control(list(u)) is m
    assert not m.flags.writeable and net._maps[u] is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    s = fresh_switched()
    assert s.check_control(2) is s.check_control(2)
    assert not s.check_control(2).flags.writeable
    assert np.array_equal(s.check_control(2), A2)


def test_safe_set_is_built_once_and_read_only(traffic):
    net, safe_set, _ = traffic
    assert net.safe_set() is net.safe_set() is safe_set
    assert not safe_set.A.flags.writeable and not safe_set.b.flags.writeable
    assert np.array_equal(safe_set.b, net.x_s) and safe_set.contains(net.x_s)


def test_validated_objects_keep_their_own_copies():
    """Editing an array after it was handed to a constructor changes nothing
    the object answers: the edits below once made a stale ``contains`` say
    ``True`` where ``violation`` said 5.0, put a negative entry past the
    lower-set check, and made a mode step to a negative state."""
    A, b = np.array([[1.0, 1.0]]), np.array([50.0])
    S = PolyLowerSet(A, b)
    A[0, 1], b[0] = 3.0, 1.0
    assert S.contains([10.0, 15.0]) and S.violation([10.0, 15.0]) == 0.0
    assert np.array_equal(S.A, [[1.0, 1.0]]) and np.array_equal(S.b, [50.0])
    assert not S.A.flags.writeable and not S.b.flags.writeable
    A[0, 1] = -5.0
    assert S.A.min() == 1.0
    mode, w = np.array(A1), np.array(W)
    s = SwitchedAffineSystem([mode], w)
    mode[0, 0], w[0] = -3.0, 9.0
    assert s.modes[0] is not mode and s.step([1.0, 1.0], [0.0, 0.0], 1).tolist() == [1.6, 0.7]
    assert np.array_equal(s.w_star, W)
    corner = np.array([1.0, 2.0])
    box = Box(corner)
    corner[0] = 0.0
    assert box.corner is not corner and box.contains([1.0, 2.0])
    # what the system keeps is read-only: a write into a mode matrix once
    # stepped [1, 1] to [-4.9, 0.7], past the nonnegativity check
    with pytest.raises(ValueError, match="read-only"):
        s.modes[0][0, 0] = -5.0
    with pytest.raises(ValueError, match="read-only"):
        s.w_star[0] = 9.0
    assert s.check_control(1) is s.modes[0]
    assert s.step([1.0, 1.0], [0.0, 0.0], 1).tolist() == [1.6, 0.7]
    net = mini_net(with_turn=True)
    for v in (net.c, net.x_s, net.w_star, net.head, net.ns):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0
    assert np.array_equal(net.safe_set().b, net.x_s)


def test_traffic_step_is_nonnegative_exactly(traffic):
    """``x+ >= 0`` with no slack, down to the queues that empty: states at,
    just below and just above capacity, with and without disturbance."""
    rng = np.random.default_rng(29)
    for net in _kernel_nets(traffic):
        for u in net.controls:
            m = net.check_control(u)
            for _ in range(4):
                x = rng.uniform(0.0, net.c) * rng.integers(0, 2, net.state_dim)
                x = np.where(rng.random(net.state_dim) < 0.3,
                             np.nextafter(net.c, rng.choice([0.0, np.inf])), x)
                for w in (np.zeros(net.state_dim), rng.uniform(0.0, net.w_star)):
                    assert np.all(net.advance(x, w, m) >= 0.0)


def test_green_link_without_inflow_empties_to_zero(traffic):
    """A green link below capacity, with no disturbance and nothing turning
    into it, ends the step at exactly 0.0."""
    net = mini_net()
    assert net.step([10.0, 3.3], [0.0, 0.0], (NS,))[1] == 0.0
    rng = np.random.default_rng(31)
    emptied = 0
    for net in _kernel_nets(traffic):
        w = np.zeros(net.state_dim)
        for u in net.controls:
            x = rng.uniform(0.0, net.c)
            ref, inflow = _textbook_step(net, x, w, u)
            green = green_links(net, u)
            x1 = net.step(x, w, u)
            quiet = green & (inflow == 0.0)
            assert np.all(x1[quiet] == 0.0)
            emptied += int(np.count_nonzero(quiet))
    assert emptied > 100


def chain_net(junctions):
    """One link per junction, each feeding the next: a chain of junctions."""
    names = [f"j{i:02d}" for i in range(junctions)]
    links = [Link(id=i + 1, direction=(NS, EW)[i % 2], head=name, c=5.0, x_s=20.0,
                  w_star=1.0 if i == 0 else 0.0, entry=i == 0)
             for i, name in enumerate(names)]
    turns = [(i, i + 1, 0.9) for i in range(1, junctions)]
    return TrafficNetwork(links, names, turns)


def test_traffic_maps_are_built_on_first_use():
    """Construction builds no map; a rollout builds one for exactly each
    control it plays."""
    net = chain_net(14)
    assert len(net.controls) == 2 ** 14
    assert net._maps == {}
    rng = np.random.default_rng(37)
    played = [net.controls[i] for i in rng.integers(len(net.controls), size=3)]
    traj = simulate(net, np.full(14, 4.0), Policy("open_loop", 3, lambda k, x: played[k % 3]),
                    worst_case_w_star(), 12)
    assert traj.status == "completed"
    assert set(net._maps) == set(played)


@pytest.mark.parametrize("junctions", [1, 2, 5])
def test_controls_are_the_product_order(junctions):
    """``controls`` is ``itertools.product((NS, EW), repeat=J)`` item for
    item, without being built: length, indexing (negative and numpy
    indices), iteration, membership and ``index``."""
    controls = chain_net(junctions).controls
    assert isinstance(controls, PhaseTuples)
    product = tuple(itertools.product((NS, EW), repeat=junctions))
    assert len(controls) == len(product) == 2 ** junctions
    assert tuple(controls) == product
    assert [controls[i] for i in range(-len(product), len(product))] == list(product) * 2
    assert controls[np.int64(len(product) - 1)] == product[-1]
    assert all(u in controls and controls.index(u) == i for i, u in enumerate(product))
    for bad in [(NS,) * (junctions + 1), ("NE",) * junctions, list(product[0])]:
        assert bad not in controls
    with pytest.raises(IndexError):
        controls[len(product)]


def test_thirty_junction_chain_builds_no_controls():
    """A 30-junction chain has 2^30 controls, which construction does not
    build: it takes milliseconds, and the chain encodes at T=5."""
    t0 = time.perf_counter()
    net = chain_net(30)
    assert time.perf_counter() - t0 < 0.05
    assert len(net.controls) == 2 ** 30
    assert net.controls[-1] == (EW,) * 30 and (NS,) * 30 in net.controls
    # index reads the tuple's bits: no walk over 2^30 items
    t0 = time.perf_counter()
    assert net.controls.index((EW,) * 30) == 2 ** 30 - 1
    assert net.controls.index((NS,) * 29 + (EW,)) == 1
    assert net.controls.index((EW,) + (NS,) * 29) == 2 ** 29
    assert time.perf_counter() - t0 < 0.05
    with pytest.raises(ValueError):
        net.controls.index((NS,) * 29)
    art = encode_traffic(net, 5)
    assert art.u.shape == (5, 30) and art.x.shape == (6, 30)
    assert net._maps == {}


def test_cooperative_bound_check():
    net = mini_net(with_turn=True)
    alpha = {(2, 3): 0.8}
    # incoming release can add alpha/beta*c = 0.8/0.4*5 = 10 on link 3
    assert cooperative_bound_check(net, {3: 30.0}, alpha) == [(3, True)]
    assert cooperative_bound_check(net, {3: 29.0}, alpha) == [(3, False)]
    with pytest.raises(ValueError):
        cooperative_bound_check(net, {3: 30.0}, {})
    zero = TrafficNetwork(
        [Link(1, EW, "a", 5, 20, 2, True), Link(2, NS, "a", 5, 20, 0, False),
         Link(3, NS, "b", 4, 20, 0, False)],
        ["a", "b"], [(1, 3, 0.0)])
    with pytest.raises(ValueError):
        cooperative_bound_check(zero, {3: 30.0}, {(1, 3): 0.5})
