"""Mixed-integer encodings of the s-sequence feasibility/optimization problem.

Produces, for a horizon ``T``, a model over witness states ``x_0 .. x_T``:

    x_{k+1} >= f(x_k, w*, u_k),   x_k safe for k < T,   x_T <= x_0 .

This inequality model is exact.  ``f`` is monotone (``SwitchedAffineSystem``
requires ``A_u >= 0``, ``TrafficNetwork`` turn ratios in ``[0, 1]``), so the
true run ``y`` from ``y_0 = x_0`` has ``y_k <= x_k``: it is safe, as ``S`` is
a lower set, and ``y_T <= x_T <= x_0 = y_0``.  Every exact witness satisfies
the model, and the max-l1 objective reads only ``x_0``.  A traffic model
whose horizon the flow balance rules out also carries green-step count
rows (``green_step_counts``); every exact witness meets them too, so they
remove none.

Mode selection (switched systems) and the served-flow min-terms (traffic)
are linearized with per-constraint big-M disjunctions; each M is twice the
bound-derived maximum of the term it relaxes, with no cap, so a relaxed row
never cuts off an admissible state whatever the units of the data.  The
state caps ``S.coordinate_bounds()`` back those constants, so they matter
only to negative answers: a positive answer stands on the re-simulated
witness alone.

``decode`` trusts the solver for nothing but the controls and ``x_0``: it
*re-simulates* the witness with the real step function, accepts solver
states only at or above the simulation (to ``order.WITNESS_TOL``), and
accepts the certificate only if ``simulate.verify_certificate`` -- the
checker ``monosafe verify`` runs -- passes it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .certificate import SSequenceCertificate
from .milp import INT_TOL, MilpModel, MilpSolution
from .order import WITNESS_TOL, PolyLowerSet
from .simulate import verify_certificate
from .systems import NS, EW, SwitchedAffineSystem, TrafficNetwork


# the objectives every encoder takes: maximize the l1 norm of x_0, or none
OBJECTIVES = ("max_l1_x0", "first_feasible")


class DecodeMismatchError(Exception):
    """Solver assignment does not survive exact re-simulation."""


@dataclass
class EncodingArtifacts:
    """A horizon-``T`` model and where its witness lives in it.

    ``x`` is the (T+1, n) array of the state columns: ``x[k, i]`` is the
    column of ``x_{k,i}``.  ``u`` is the (T, m) array of the control
    binaries: for a switched system one column per mode, in
    ``sys.controls`` order; for a traffic network one per junction, in
    ``net.junctions`` order, with 1 = NS.  So ``sol.x[art.x]`` and
    ``sol.x[art.u]`` read a witness as arrays.
    """
    model: MilpModel
    T: int
    system: object
    safe_set: PolyLowerSet
    x: np.ndarray
    u: np.ndarray


def _witness_model(kind, system, S, T, objective, write_dynamics):
    """The part of the model both encodings share, around their own dynamics.

    State variables ``x_{k,i}`` are capped by ``S.coordinate_bounds()``
    (``x_T`` too: closure forces ``x_T <= x_0``).  ``write_dynamics(model,
    x, cap)`` then adds the control binaries and the dynamics rows over the
    state columns ``x[k][i]``, and returns the control columns ``u[k]``.
    Safety rows follow for ``k < T``; a row with a single nonzero is left
    out, since the variable cap already implies it.  Then the cyclic
    closure, the objective, and ``branch_first`` = the controls.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    n = system.state_dim
    if S.dim != n:
        raise ValueError("safe set dimension mismatch")
    cap = S.coordinate_bounds()
    if not np.all(np.isfinite(cap)):
        raise ValueError("safe set must bound every coordinate (big-M derivation)")
    model = MilpModel(f"{kind}_T{T}")
    x = [[model.add_var(f"x_{k}_{i}", lb=0.0, ub=ub) for i, ub in enumerate(cap.tolist())]
         for k in range(T + 1)]
    u = write_dynamics(model, x, cap)
    for k in range(T):
        for a_row, b_val in zip(S.A.tolist(), S.b.tolist()):
            coeffs = {x[k][j]: a for j, a in enumerate(a_row) if a}
            if len(coeffs) > 1:
                model.add_constraint(coeffs, "<=", b_val)
    for i in range(n):
        model.add_constraint({x[T][i]: 1.0, x[0][i]: -1.0}, "<=", 0.0)
    if objective == "max_l1_x0":
        model.set_objective(dict.fromkeys(x[0], 1.0), "max")
    else:
        model.set_objective({}, "min")
    model.branch_first = [j for step in u for j in step]
    return EncodingArtifacts(model=model, T=T, system=system, safe_set=S,
                             x=np.array(x), u=np.array(u))


def encode_switched(sys: SwitchedAffineSystem, S: PolyLowerSet, T: int,
                    objective: str = "first_feasible") -> EncodingArtifacts:
    """Big-M encoding with one-hot mode binaries per step."""

    def write_dynamics(model, x, cap):
        u, w = [], sys.w_star.tolist()
        for k in range(T):
            u.append([model.add_var(f"u_{k}_{m}", binary=True) for m in sys.controls])
            model.add_constraint(dict.fromkeys(u[k], 1.0), "=", 1.0)
        for k in range(T):
            for m, bidx in zip(sys.controls, u[k]):
                A = sys.modes[m - 1]
                for i, A_i in enumerate(A.tolist()):
                    # x_{k+1,i} >= A_i x_k + w_i if the binary is 1, void if 0
                    big_m = 2.0 * (float(A[i] @ cap) + w[i])
                    row = {x[k][j]: a for j, a in enumerate(A_i) if a}
                    row[x[k + 1][i]] = -1.0
                    row[bidx] = big_m
                    model.add_constraint(row, "<=", big_m - w[i])
        return u

    return _witness_model("switched", sys, S, T, objective, write_dynamics)


def encode_traffic(net: TrafficNetwork, T: int,
                   objective: str = "first_feasible") -> EncodingArtifacts:
    """Big-M encoding of the served-flow min-terms and phase selection.

    Junction binaries use 1 = NS.  The green indicator of a link is the
    affine expression ``g = g1 u + g0`` of its head junction's binary ``u``:
    ``u`` for NS links, ``1 - u`` for EW links.  Each link/step gets a flow
    variable ``z <= min(x, c)`` on green, pinned to 0 on red.  A link that
    feeds another by a nonzero turn ratio also gets ``z >= min(x, c)`` on
    green, with a selector binary choosing the active min branch; any other
    ``z`` enters the state update only with a minus sign.  Safety is the
    box ``x <= x_s`` of ``net.safe_set()``: the state variables' caps.

    At the model's end, a junction whose ``green_step_counts`` conflict
    (``ns + ew > T``) gets the two rows ``ns <= sum_k u_k <= T - ew``; they
    contradict, so ``solve_milp`` closes the root with no pivot and names
    them.  They are valid at every horizon, but are written only there: a
    horizon with no conflict keeps its model unchanged.
    """
    feeds = {net.link_index(src) for (src, _, ratio) in net.turns if ratio}
    heads = [net.junctions.index(link.head) for link in net.links]
    # per link, (source link, ratio) of each turn into it, in turn order
    inflows = [[(net.link_index(src), ratio) for (src, dst, ratio) in net.turns
                if dst == link.id and ratio] for link in net.links]
    caps, x_s, w = net.c.tolist(), net.x_s.tolist(), net.w_star.tolist()

    def write_dynamics(model, x, _):
        u, flows = [], []   # per step: junction binaries; per link, (z, selector or None)
        for k in range(T):
            u.append([model.add_var(f"u_{k}_{j}", binary=True) for j in net.junctions])
            flows.append([(model.add_var(f"z_{k}_{link.id}", lb=0.0, ub=caps[i]),
                           model.add_var(f"d_{k}_{link.id}", binary=True) if i in feeds else None)
                          for i, link in enumerate(net.links)])
        for k in range(T):
            for i, link in enumerate(net.links):
                (zi, di), xi, ui = flows[k][i], x[k][i], u[k][heads[i]]
                g1, g0 = (1.0, 0.0) if link.direction == NS else (-1.0, 1.0)
                c, m_flow = caps[i], 2.0 * caps[i]
                # z <= x
                model.add_constraint({zi: 1.0, xi: -1.0}, "<=", 0.0)
                # z <= M g
                model.add_constraint({zi: 1.0, ui: -m_flow * g1}, "<=", m_flow * g0)
                if i in feeds:
                    m_state = 2.0 * x_s[i]
                    # z >= x - M d - M (1-g)
                    model.add_constraint({xi: 1.0, zi: -1.0, di: -m_state, ui: m_state * g1},
                                         "<=", m_state * (1.0 - g0))
                    # z >= c - M (1-d) - M (1-g)
                    model.add_constraint({zi: -1.0, di: m_flow, ui: m_flow * g1},
                                         "<=", m_flow * (2.0 - g0) - c)
            # state update: x_{k+1} >= x_k - z + w + sum of beta z_q
            z = [zi for zi, _ in flows[k]]
            for i, into in enumerate(inflows):
                row = {x[k + 1][i]: 1.0, x[k][i]: -1.0, z[i]: 1.0}
                for q, ratio in into:
                    row[z[q]] = row.get(z[q], 0.0) - ratio
                model.add_constraint(row, ">=", w[i])
        return u

    art = _witness_model("traffic", net, net.safe_set(), T, objective, write_dynamics)
    for column, (ns, ew) in zip(art.u.T.tolist(), green_step_counts(net, T).values()):
        if ns + ew > T:
            steps = dict.fromkeys(column, 1.0)
            art.model.add_constraint(steps, ">=", float(ns))
            art.model.add_constraint(steps, "<=", float(T - ew))
    return art


def green_step_counts(net: TrafficNetwork, T: int) -> dict:
    """Per junction, the fewest NS and the fewest EW green steps of a period.

    Summing a link's state update over the period and applying the closure
    ``x_T <= x_0`` gives the flow balance ``Z >= T w* + beta^T Z`` for the
    served flows ``Z_i = sum_k z_{k,i}``.  As ``beta >= 0``, every iterate
    of ``F <- T w* + beta^T F`` from ``F = 0`` is a lower bound on ``Z``,
    turn cycles included; one sweep per link is taken.  A link serves at most
    ``c_i`` per green step, so it needs ``ceil(F_i / c_i)`` of them (``T +
    1``, i.e. more than the period has, if ``c_i = 0 < F_i``), and a
    junction needs the largest count over its links of each direction:
    ``{junction: (ns, ew)}``.  A junction with ``ns + ew > T`` rules the
    horizon out (integer rounding of an aggregated row: Chvatal, 1973;
    Marchand & Wolsey, 2001).

    The arithmetic is exact over the data as written: each float is read
    as its shortest decimal, ``Fraction(repr(v))``.  So ``3 * 0.1 / 0.1``
    is 3, where floats give ``3.0000000000000004`` and a fourth step; and
    ``3 * 3.2 / 9.6`` is 1, where the binary values of the floats exceed 1
    by ``9e-17`` and would demand a second green step that a certificate
    ``verify_certificate`` accepts does not take.  The floor is linear in
    ``T``, so it is computed once per network, at ``T = 1``, and scaled.
    """
    counts = {j: [0, 0] for j in net.junctions}
    for steps, link in zip(_unit_green_steps(net), net.links):
        need = T + 1 if steps is None else math.ceil(T * steps)
        side = 0 if link.direction == NS else 1
        counts[link.head][side] = max(counts[link.head][side], need)
    return {j: tuple(v) for j, v in counts.items()}


@functools.lru_cache(maxsize=1)
def _unit_green_steps(net: TrafficNetwork) -> tuple:
    """Per link, the exact flow floor of a period of length 1 over the
    capacity: ``F_i / c_i`` green steps, None if ``c_i = 0 < F_i``.  The
    floor iteration is linear from ``F = 0``, so at period T it is exactly
    T times this."""
    from fractions import Fraction  # imported here: only traffic encodings use it

    def exact(v):
        return Fraction(repr(float(v)))

    links = net.links
    arrivals = [exact(link.w_star) for link in links]
    turns = [(net.link_index(s), net.link_index(d), exact(r)) for (s, d, r) in net.turns if r]
    F = [Fraction(0)] * len(links)
    for _ in links:
        F_next = list(arrivals)
        for q, i, r in turns:
            F_next[i] += r * F[q]
        F = F_next
    capacities = [exact(link.c) for link in links]
    return tuple(F_i / c if c else (None if F_i else 0) for F_i, c in zip(F, capacities))


def decode(art: EncodingArtifacts, sol: MilpSolution) -> SSequenceCertificate:
    """Extract controls, re-simulate the witness, and verify the certificate.

    The simulation is authoritative: the certificate carries simulated
    states.  A solver state more than ``WITNESS_TOL`` below it (above is
    the model's slack) raises ``DecodeMismatchError``, and so does a
    certificate that ``verify_certificate`` rejects; the message names each
    failed condition.  The state caps need no check of their own: the gap
    check puts the simulation below the solver's states plus
    ``WITNESS_TOL``, and ``solve_milp`` re-checks those against their caps.
    """
    if sol.x is None:
        raise DecodeMismatchError(f"no assignment to decode (status {sol.status})")
    sys, T, U = art.system, art.T, sol.x[art.u]
    if isinstance(sys, SwitchedAffineSystem):
        controls = []
        for k, vals in enumerate(U):
            best = int(np.argmax(vals))     # the first maximal mode
            if vals[best] < 1.0 - INT_TOL:
                raise DecodeMismatchError(f"step {k}: mode binaries not one-hot: "
                                          f"{dict(zip(sys.controls, vals))}")
            controls.append(sys.controls[best])
    else:
        fractional = np.argwhere(np.abs(U - np.round(U)) > INT_TOL)
        if fractional.size:
            k, p = fractional[0]
            raise DecodeMismatchError(
                f"step {k}: junction {sys.junctions[p]} binary fractional: {U[k, p]}")
        controls = [tuple(NS if v == 1 else EW for v in step) for step in np.round(U).tolist()]
    X = sol.x[art.x]
    states = [X[0]]
    for u in controls:
        states.append(sys.step(states[-1], sys.w_star, u))
    for k, gap in enumerate(np.max(np.array(states) - X, axis=1).tolist()):
        if gap > WITNESS_TOL:
            raise DecodeMismatchError(
                f"step {k}: solver state lies {gap:.3g} below the re-simulation")
    cert = SSequenceCertificate(T=T, controls=tuple(controls), x_star=tuple(states))
    report = verify_certificate(sys, art.safe_set, cert)
    failed = [f"{name} (step {c.first_violation_step}, residual {c.worst_residual:.3g})"
              for name, c in (("dynamics", report.dynamics), ("safety", report.safety),
                              ("closure", report.closure)) if not c.passed]
    if failed:
        raise DecodeMismatchError("re-simulated witness fails " + ", ".join(failed))
    return cert
