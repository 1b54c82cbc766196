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

Each model is written as arrays: its columns as one block and its rows as
one more (``MilpModel.add_vars``, ``add_rows``), plus a traffic model's
count rows.  An encoder supplies only one step's template, the same at
every step and horizon and built once per system (``_switched_step``,
``_traffic_step``; a system's arrays are read-only);
``_witness_model`` repeats its columns and each of its row blocks T
times, then safety and closure.  The row order is kept on purpose: the
solver breaks ties by lowest index, so it decides the search path.
Writing the traffic T=5 rows family by family instead of link by link
moved the first-feasible dive from 61 to 71 nodes; the pinned digests in
the tests hold the order.

With a switched system's controls fixed, a witness is affine in ``x_0``:
``encode_fixed_controls`` writes that max-l1 LP over ``x_0`` alone.

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
from .milp import EQ, GEQ, INT_TOL, LEQ, MilpModel, MilpSolution
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


def _terms(*terms):
    """One step's row entries from terms ``(rows, cols, vals)``: rows within
    the block, columns as places in the step's row of the table
    ``[x_k | x_{k+1} | step columns]``, and values, one per row or one for
    all."""
    return (np.concatenate([r for r, _, _ in terms]), np.concatenate([c for _, c, _ in terms]),
            np.concatenate([np.full(len(r), v, float) for r, _, v in terms]))


def _frozen(parts):
    """``parts`` with every array in it, through nested tuples, made
    read-only: a cached step is shared by every encoding of its system."""
    if isinstance(parts, np.ndarray):
        parts.flags.writeable = False
    elif isinstance(parts, tuple):
        for part in parts:
            _frozen(part)
    return parts


def state_caps(system, S: PolyLowerSet) -> np.ndarray:
    """The caps ``S.coordinate_bounds()`` of a witness's states; a
    ``ValueError`` if ``S`` is not of ``system``'s dimension or leaves a
    coordinate unbounded (the big-M derivation needs every cap)."""
    if S.dim != system.state_dim:
        raise ValueError("safe set dimension mismatch")
    cap = S.coordinate_bounds()
    if not np.isfinite(cap).all():
        raise ValueError("safe set must bound every coordinate (big-M derivation)")
    return cap


def _witness_model(kind, system, S, T, objective, step):
    """The model of a horizon-``T`` witness around one step template.

    State variables ``x_{k,i}`` come first, capped by
    ``S.coordinate_bounds()`` (``x_T`` too: closure forces ``x_T <= x_0``).
    ``step(cap)`` gives the template of one step, the same at every step:
    ``(labels, ub, binary, controls, blocks)``.  Its columns follow the
    states T times over, named by ``labels`` around the step number, with
    upper bounds ``ub`` (every lower bound is 0) and binary flags
    ``binary``; the first ``controls`` of them are the control columns
    ``u[k]``.  Each block is ``(terms, rels, rhs)``, its entries
    ``_terms`` over the table ``[x_k | x_{k+1} | step columns]``.  Block
    by block, each is written for every step in turn; safety is one more
    block, over ``x_k`` alone, leaving out a row with a single nonzero,
    since the variable cap already implies it.  Then the cyclic closure,
    the objective, and ``branch_first`` = the controls.  The columns and
    the rows are each appended as one block.
    """
    if T < 1:
        raise ValueError("horizon T must be >= 1")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    n, cap = system.state_dim, state_caps(system, S)
    labels, ub, binary, controls, blocks = step(cap)
    x = np.arange((T + 1) * n).reshape(T + 1, n)
    cols = x.size + np.arange(T * ub.size).reshape(T, ub.size)
    table = np.concatenate([x[:-1], x[1:], cols], axis=1)
    model = MilpModel(f"{kind}_T{T}")
    model.add_vars([f"x_{k}_{i}" for k in range(T + 1) for i in range(n)]
                   + [f"{head}{k}{tail}" for k in range(T) for head, tail in labels],
                   ub=np.concatenate([cap] * (T + 1) + [ub] * T),
                   binary=np.concatenate([np.zeros(x.size, bool)] + [binary] * T))
    multi = (S.A != 0).sum(axis=1) > 1
    A, b = S.A[multi], S.b[multi]
    r, j = A.nonzero()
    safety = (r, j, A[r, j]), np.full(b.size, LEQ), b
    parts, first = [], 0
    for (rows, places, vals), rels, rhs in blocks + (safety,):
        # step k's rows follow step k-1's; add_rows sorts the entries
        parts.append(((first + rhs.size * np.arange(T)[:, None] + rows).ravel(),
                      table[:, places].ravel(), np.concatenate([vals] * T),
                      np.concatenate([rels] * T), np.concatenate([rhs] * T)))
        first += T * rhs.size
    closure = first + np.arange(n)      # the rows x_T - x_0 <= 0
    parts.append((np.concatenate([closure, closure]), np.concatenate([x[T], x[0]]),
                  np.concatenate([np.ones(n), np.full(n, -1.0)]), np.full(n, LEQ), np.zeros(n)))
    model.add_rows(*map(np.concatenate, zip(*parts)))
    if objective == "max_l1_x0":
        model.set_objective(dict.fromkeys(x[0].tolist(), 1.0), "max")
    u = cols[:, :controls]
    model.branch_first = u.ravel().tolist()
    return EncodingArtifacts(model=model, T=T, system=system, safe_set=S, x=x, u=u)


@functools.lru_cache(maxsize=1)
def _switched_step(sys: SwitchedAffineSystem, cap: tuple) -> tuple:
    """One step of ``encode_switched`` under the state caps ``cap``, the
    same at every step and horizon: its ``_witness_model`` template.

    The step's columns are its mode binaries, in ``sys.controls`` order.
    Its first block is the one-hot row; its second, mode by mode and
    coordinate by coordinate, the row of mode m and coordinate i,
    ``A_i x_k - x_{k+1,i} + M u_{k,m} <= M - w_i``, with M twice the row's
    bound on the caps.
    """
    n, w, cap, modes = sys.state_dim, sys.w_star, np.array(cap), len(sys.controls)
    A = np.array([sys.modes[m - 1] for m in sys.controls])
    big_m = np.array([[2.0 * (float(A_m[i] @ cap) + w[i]) for i in range(n)]
                      for A_m in A]).ravel()
    rows = np.arange(big_m.size)
    m, i, j = np.nonzero(A)
    terms = _terms((m * n + i, j, A[m, i, j]), (rows, n + rows % n, -1.0),
                   (rows, 2 * n + rows // n, big_m))
    one_hot = _terms((np.zeros(modes, int), 2 * n + np.arange(modes), 1.0))
    blocks = ((one_hot, np.array([EQ]), np.ones(1)),
              (terms, np.full(big_m.size, LEQ), big_m - np.concatenate([w] * modes)))
    return _frozen((tuple(("u_", f"_{m}") for m in sys.controls), np.ones(modes),
                    np.ones(modes, bool), modes, blocks))


def encode_switched(sys: SwitchedAffineSystem, S: PolyLowerSet, T: int,
                    objective: str = "first_feasible") -> EncodingArtifacts:
    """Big-M encoding with one-hot mode binaries per step.

    The one-hot rows of all steps come first, then each step's
    ``_switched_step``: ``x_{k+1,i} >= A_i x_k + w_i`` if the mode's binary
    is 1, void if 0.
    """
    return _witness_model("switched", sys, S, T, objective,
                          lambda cap: _switched_step(sys, tuple(cap.tolist())))


def encode_fixed_controls(sys: SwitchedAffineSystem, S: PolyLowerSet, controls) -> MilpModel:
    """The max-l1 LP of one mode sequence ``controls``: columns ``x_0``
    alone, on the exact rollout ``x_k = Phi_k x_0 + psi_k`` (``Phi_0 = I``,
    ``psi_0 = 0``, ``Phi_{k+1} = A_{u_k} Phi_k``, ``psi_{k+1} = A_{u_k}
    psi_k + w*``).

    Step by step, the rows ``S.A x_k <= b`` for k < T, then the closure
    ``(Phi_T - I) x_0 <= -psi_T``; the columns are capped by
    ``state_caps``, and the objective is max sum ``x_0``.  With no
    controls (T = 0) only the block ``S.A x_0 <= b`` is left: max sum
    ``x_0`` over S, which every sequence's LP contains, so its optimum
    bounds theirs.

    Its optimum is that of ``encode_switched``'s one-sided model under
    max-l1 with these controls fixed.  The rollout ``y_k`` from an
    ``x_0`` of this LP is a witness of the one-sided model: its steps meet
    the dynamics with equality, its states ``y_k >= 0`` (``A_u >= 0``,
    ``w* >= 0``) lie in S for k < T, so within the caps, and ``y_T <= x_0``.
    Conversely, a witness ``x`` of the one-sided model with these controls
    has ``y_k <= x_k`` by induction, as ``y_{k+1} = A y_k + w* <= A x_k +
    w* <= x_{k+1}`` with ``A >= 0``; so each ``y_k``, k < T, lies in S, a
    lower set, and ``y_T <= x_T <= x_0``: its ``x_0`` is a point of this LP.
    Both objectives read ``x_0`` alone, so the two optima are equal.
    """
    n, T, cap = sys.state_dim, len(controls), state_caps(sys, S)
    Phi, psi, G, h = np.eye(n), np.zeros(n), [S.A], [S.b]
    for k, u in enumerate(controls, 1):
        A = sys.check_control(u)
        Phi, psi = A @ Phi, A @ psi + sys.w_star
        G.append(S.A @ Phi if k < T else Phi - np.eye(n))
        h.append(S.b - S.A @ psi if k < T else -psi)
    G = np.vstack(G)
    r, j = G.nonzero()
    model = MilpModel(f"switched_T{T}_fixed_" + "_".join(map(str, controls)))
    model.add_vars([f"x_0_{i}" for i in range(n)], ub=cap)
    model.add_rows(r, j, G[r, j], LEQ, np.concatenate(h))
    model.set_objective(dict.fromkeys(range(n), 1.0), "max")
    return model


@functools.lru_cache(maxsize=1)
def _traffic_step(net: TrafficNetwork) -> tuple:
    """One step of ``encode_traffic``, the same at every step and horizon:
    its ``_witness_model`` template, then ``(z, d, feeds)``.

    The step's columns are its junction binaries, then link by link ``z``
    and (a feeding link, marked in ``feeds``) its selector ``d``; ``z`` and
    ``d`` hold their places.  Its one block is link by link the two upper
    rows of ``z`` and (a feeding link) its two lower rows, then the state
    updates.
    """
    L, J = len(net.links), len(net.junctions)
    turns = np.array([(net.link_index(s), net.link_index(d), r)
                      for (s, d, r) in net.turns if r]).reshape(-1, 3)
    src, dst, ratio = turns[:, 0].astype(int), turns[:, 1].astype(int), turns[:, 2]
    f = np.zeros(L, bool)            # the links that feed another
    f[src] = True
    F = int(f.sum())
    at = J + np.arange(L) + np.cumsum(f) - f       # z_i among the step's columns
    labels = [("u_", f"_{j}") for j in net.junctions]
    for link, feeds in zip(net.links, f.tolist()):
        labels += [("z_", f"_{link.id}")] + [("d_", f"_{link.id}")] * feeds
    binary = np.ones(J + L + F, bool)
    binary[at] = False
    ub = np.ones(J + L + F)
    ub[at] = net.c
    # places in the table
    xk, x1 = np.arange(L), L + np.arange(L)
    z, g = 2 * L + at, 2 * L + net.head
    d = z[f] + 1
    g1, g0 = np.where(net.ns, 1.0, -1.0), np.where(net.ns, 0.0, 1.0)
    c, m_flow, m_state = net.c, 2.0 * net.c, 2.0 * net.x_s
    r, s, q = 2 * (at - J), 2 * (at[f] - J) + 2, 2 * (L + F) + np.arange(L)
    rhs = np.empty(3 * L + 2 * F)
    rhs[r], rhs[r + 1] = 0.0, m_flow * g0
    rhs[s], rhs[s + 1] = m_state[f] * (1.0 - g0[f]), m_flow[f] * (2.0 - g0[f]) - c[f]
    rhs[q] = net.w_star
    # the z terms of the state updates: z_i, merged with a turn into itself
    loop = src == dst
    self_ratio = np.zeros(L)
    self_ratio[dst[loop]] = ratio[loop]
    into = np.concatenate([np.arange(L), dst[~loop]])
    beta = np.concatenate([1.0 - self_ratio, 0.0 - ratio[~loop]])
    flow = z[np.concatenate([np.arange(L), src[~loop]])]
    terms = _terms(
        # z <= x;  z <= M g
        (r, z, 1.0), (r, xk, -1.0), (r + 1, z, 1.0), (r + 1, g, -m_flow * g1),
        # z >= x - M d - M (1-g);  z >= c - M (1-d) - M (1-g)
        (s, xk[f], 1.0), (s, z[f], -1.0), (s, d, -m_state[f]), (s, g[f], m_state[f] * g1[f]),
        (s + 1, z[f], -1.0), (s + 1, d, m_flow[f]), (s + 1, g[f], m_flow[f] * g1[f]),
        # x_{k+1} >= x_k - z + w + sum of beta z_q
        (q, x1, 1.0), (q, xk, -1.0), (q[into], flow, beta))
    rels = np.where(np.arange(rhs.size) < 2 * (L + F), LEQ, GEQ)
    return _frozen(((tuple(labels), ub, binary, J, ((terms, rels, rhs),)), (at, at[f] + 1, f)))


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
    Each step repeats ``_traffic_step``.

    At the model's end, a junction whose ``green_step_counts`` conflict
    (``count_clashes``) gets the two rows ``ns <= sum_k u_k <= T - ew``;
    they contradict, so ``solve_milp`` closes the root with no pivot and
    names them.  They are valid at every horizon, but are written only
    there: a horizon with no conflict keeps its model unchanged.
    """
    art = _witness_model("traffic", net, net.safe_set(), T, objective,
                         lambda _: _traffic_step(net)[0])
    clash = count_clashes(net, T)
    if clash:
        counts = np.array(list(clash.values()))
        art.model.add_rows(np.arange(2 * len(clash)).repeat(T),
                           art.u.T[list(clash)].repeat(2, axis=0), 1.0, [GEQ, LEQ] * len(clash),
                           np.column_stack([counts[:, 0], T - counts[:, 1]]).ravel())
    return art


def count_clashes(net: TrafficNetwork, T: int) -> dict:
    """``{junction index: (ns, ew)}`` of the junctions whose
    ``green_step_counts`` do not fit in T (``ns + ew > T``): where
    ``encode_traffic`` writes count rows.  With none, the root stays open."""
    return {p: c for p, c in enumerate(green_step_counts(net, T).values()) if sum(c) > T}


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
    as its shortest decimal (``decimal_ratio``).  So ``3 * 0.1 / 0.1``
    is 3, where floats give ``3.0000000000000004`` and a fourth step; and
    ``3 * 3.2 / 9.6`` is 1, where the binary values of the floats exceed 1
    by ``9e-17`` and would demand a second green step that a certificate
    ``verify_certificate`` accepts does not take.  The floor is linear in
    ``T``, so it is computed once per network, at ``T = 1``, and scaled.
    """
    counts = {j: [0, 0] for j in net.junctions}
    for steps, link in zip(_unit_green_steps(net), net.links):
        # ceil(T * steps), in integers
        need = T + 1 if steps is None else -(-T * steps.numerator // steps.denominator)
        side = 0 if link.direction == NS else 1
        counts[link.head][side] = max(counts[link.head][side], need)
    return {j: tuple(v) for j, v in counts.items()}


def decimal_ratio(v) -> tuple:
    """The float ``v`` read as its shortest decimal, ``repr(v)``: that
    decimal's ``(numerator, denominator)`` in lowest terms, the denominator
    positive.  This is the number as a spec writes it, so ``0.1`` is
    ``(1, 10)``, not the binary value of the float, whose ratio exceeds
    1/10 by about 5.6e-18.  Exact arithmetic over the data reads every
    datum through here."""
    from decimal import Decimal     # imported here: only exact arithmetic uses it
    return Decimal(repr(float(v))).as_integer_ratio()


def decimal_ratios(values) -> tuple:
    """``(a, d)``: the integers ``a`` and the least ``d > 0`` with
    ``values[i] = a[i] / d``, each value read by ``decimal_ratio``."""
    ratios = [decimal_ratio(v) for v in values]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


@functools.lru_cache(maxsize=1)
def _unit_green_steps(net: TrafficNetwork) -> tuple:
    """Per link, the exact flow floor of a period of length 1 over the
    capacity: ``F_i / c_i`` green steps, None if ``c_i = 0 < F_i``.  The
    floor iteration is linear from ``F = 0``, so at period T it is exactly
    T times this.

    The sweeps run on integers.  Each value is read as the ratio of its
    shortest decimal, over the least common denominators
    (``decimal_ratios``) ``w*_i = a_i / d_w`` and ``beta = r / d_b``;
    after sweep s, ``F`` is held as its numerators over ``d_w
    d_b^(s-1)``.  One ``Fraction`` per link is made at the end.
    """
    from fractions import Fraction  # imported here: only traffic encodings use it

    arrivals, d_w = decimal_ratios([link.w_star for link in net.links])
    turns = [(net.link_index(s), net.link_index(d), r) for (s, d, r) in net.turns if r]
    ratios, d_b = decimal_ratios([r for _, _, r in turns])
    turns = [(q, i, r) for (q, i, _), r in zip(turns, ratios)]
    F, scale = [0] * len(arrivals), 1
    for _ in arrivals:
        F_next = [a * scale for a in arrivals]
        for q, i, r in turns:
            F_next[i] += r * F[q]
        F, den, scale = F_next, d_w * scale, scale * d_b
    capacities = [decimal_ratio(link.c) for link in net.links]
    return tuple(Fraction(F_i * c_den, den * c) if c else (None if F_i else 0)
                 for F_i, (c, c_den) in zip(F, capacities))


def lift(art: EncodingArtifacts, controls, states) -> np.ndarray:
    """The model's point of a witness: controls ``u_0 .. u_{T-1}`` and
    states ``x_0 .. x_T``, written into every column; ``decode`` reads them
    back.

    A switched step's mode binaries are the one-hot vector of its control.
    A traffic step's junction binaries are 1 for NS; each link's flow ``z``
    is ``min(x, c)`` on green and 0 on red, and a feeding link's selector
    ``d`` is 1 where that minimum is ``c`` (``x > c`` on green), so every
    big-M row holds.  The states are written as given: the point meets the
    model's rows only if they are a witness, which is for ``solve_milp``'s
    re-check to decide.
    """
    sys, T = art.system, art.T
    X = np.asarray(states, dtype=float)
    if X.shape != art.x.shape or len(controls) != T:
        raise ValueError(f"need {T} controls and states of shape {art.x.shape}")
    point = np.zeros(art.model.num_vars)
    point[art.x] = X
    if isinstance(sys, SwitchedAffineSystem):
        point[art.u[np.arange(T), [sys.controls.index(u) for u in controls]]] = 1.0
        return point
    for u in controls:
        sys.check_control(u)
    point[art.u] = [[p == NS for p in u] for u in controls]
    # a step's columns follow one another from its first junction binary
    _, (z, d, feeds) = _traffic_step(sys)
    green, x = np.array([sys.green(u) for u in controls]), X[:-1]
    point[art.u[:, :1] + z] = np.where(green, np.minimum(x, sys.c), 0.0)
    point[art.u[:, :1] + d] = (green & (x > sys.c))[:, feeds]
    return point


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
    states = np.array(X)
    for k, u in enumerate(controls):
        states[k + 1] = sys.step(states[k], sys.w_star, u)
    for k, gap in enumerate(np.max(states - X, axis=1).tolist()):
        if gap > WITNESS_TOL:
            raise DecodeMismatchError(
                f"step {k}: solver state lies {gap:.3g} below the re-simulation")
    cert = SSequenceCertificate(T=T, controls=tuple(controls), x_star=states)
    report = verify_certificate(sys, art.safe_set, cert)
    failed = [f"{name} (step {c.first_violation_step}, residual {c.worst_residual:.3g})"
              for name, c in (("dynamics", report.dynamics), ("safety", report.safety),
                              ("closure", report.closure)) if not c.passed]
    if failed:
        raise DecodeMismatchError("re-simulated witness fails " + ", ".join(failed))
    return cert
