"""Periodic invariance: certificate search, RCIS, limit cycles.

A certificate with controls ``u*_0..u*_{T-1}`` and witness ``x*_0..x*_T``
induces the robust controlled-invariant set  Omega* = U_k R(x*_k)  (union of
boxes cornered at the witness states) and — by iterating whole periods of the
repeated sequence under the worst-case disturbance — a limit cycle whose
boxes form an attractive set Gamma inside Omega*.  The two policies a
certificate gives, open loop and feedback on Omega*, are
``simulate.open_loop`` and ``simulate.feedback``.

One fixed control sequence is decided without an LP (``least_fixed_point``).
Its period map F under w* is monotone, so the iterates of F from 0 rise,
and every witness's x*_0 bounds them all, since F(x*_0) <= x*_0: a run
that leaves the lower set S refutes the sequence, and the limit of the
iterates, the least fixed point of F (Tarski, 1955), has an orbit that is
a witness exactly when the sequence has one.  ``compute_limit_cycle``
iterates the same period loop from x*_0 down to the limit cycle.

A switched horizon is decided exactly, in integers, before any LP
(``decide_switched_horizon``).  Two facts make one sequence per rotation
class and one linear solve per sequence enough.

* Rotation.  If x_0 .. x_T witnesses u_0 .. u_{T-1}, then x_1 .. x_T, x_1
  witnesses u_1 .. u_{T-1}, u_0: x_1 >= f(x_0, u_0) >= f(x_T, u_0) as f
  is monotone and x_T <= x_0, and x_T lies in S, a lower set, below x_0.
  So a sequence has a witness iff each of its rotations has one: the
  necklaces (each rotation class's least rotation) decide the horizon,
  and the sequences with a witness are exactly the rotations of the
  feasible necklaces.
* Perron.  With the controls fixed, F(x) = P x + q with P = A_{u_{T-1}}
  ... A_{u_0} >= 0 and q = w* + A_{u_{T-1}} w* + ... >= w*.  If
  rho(P) < 1, then (I - P)^{-1} = sum_k P^k >= 0, and x = (I - P)^{-1} q
  is the only fixed point, the least one, and >= 0.  If rho(P) >= 1 and
  w* > 0, no x >= 0 has F(x) <= x: with y >= 0, y != 0 the left Perron
  vector, y^T P = rho y^T, such an x would give (1 - rho) y^T x >= y^T q
  > 0, while the left side is <= 0 (Berman & Plemmons, 1994).  So when
  (I - P) x = q is singular or its solution has a negative entry, rho(P)
  >= 1 and the sequence is refuted; a solution x >= 0 has x >= q > 0
  and P x < x, so rho(P) < 1 and x is the least fixed point, whose orbit
  is checked against ``A x <= b``.

Every datum is read as its shortest decimal (``encode.decimal_ratios``)
and the orbit is compared with S exactly, with no tolerance.  Branch-and-
bound accepts a row within ``milp.FEAS_TOL`` = 1e-6, so a horizon whose
every orbit leaves S by less than that is refuted here where the MILP
might return a certificate; a refutation here is exact.

``find_s_sequence`` decides every switched horizon before encoding it,
so a refuted one builds no model, and before a first-feasible traffic
solve it runs ``search_traffic_plan``, which starts inside every
junction's green-step counts and flips junction phases, scored by the
least fixed point; where the counts clash it misses at once.  A plan
from either is lifted (``encode.lift``) into ``solve_milp``'s root
incumbent under the first-feasible objective.  Under max-l1 a switched
horizon with a feasible necklace needs no branch-and-bound: with the
controls fixed a witness is affine in x_0, so the optimum is the best of
one LP in x_0 per rotation of each feasible necklace
(``encode.encode_fixed_controls``), and the decision's one pass goes on
from each feasible necklace to the next, until the best meets the LP
over S alone, which bounds them all (a root-bound stop; Achterberg,
2007); that LP is solved only once the best reaches the largest state
cap, which bounds it from below.  The certificate still comes only from
``decode``, which re-simulates and verifies it.  The traffic search
never reports a negative: a miss, after its fixed budget of periods,
proves nothing, and the horizon is searched by branch-and-bound as
without it.  A max-l1 traffic horizon, and a switched one left
undecided, get no incumbent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .certificate import SSequenceCertificate
from .encode import (OBJECTIVES, DecodeMismatchError, decimal_ratios, decode,
                     encode_fixed_controls, encode_switched, encode_traffic, green_step_counts,
                     lift, state_caps)
from .milp import (OBJ_TOL, MilpSolution, NumericalBreakdownError, ParallelRows, solve_milp,
                   write_lp_format)
from .order import DEFAULT_TOL, BoxUnion, as_rows, as_vector
from .rng import SplitMix64
from .systems import EW, NS, TrafficNetwork

__all__ = [
    "SSequenceCertificate", "HorizonRecord", "SearchResult", "find_s_sequence",
    "Rcis", "build_rcis",
    "LimitCycle", "LimitCycleError", "compute_limit_cycle",
    "build_attractive_set", "necessity_bound",
    "FixedPointRun", "least_fixed_point", "PlanSearch", "search_traffic_plan",
    "necklaces", "ExactDecision", "decide_switched_horizon",
]


@dataclass(frozen=True)
class HorizonRecord:
    """Outcome of one horizon in the sweep."""
    T: int
    status: str          # "found" | "proven_infeasible" | "budget_unknown" | "failed"
    solver_status: str   # the solver's own status, "error" if it raised
    nodes: int
    elapsed: float
    pivots: int = 0      # simplex pivots over all of the horizon's nodes
    refactorizations: int = 0  # basis refactorizations over all of the horizon's nodes
    farkas_leaves: int = 0     # infeasible leaves closed by a checked Farkas row
    failure: str = ""    # for "failed": the exception's class and message
    parallel_rows: ParallelRows | None = None  # the two rows that closed the root, if any
    # for "found": where the plan came from, "branch-and-bound", "local
    # search, E evaluations, P periods", "exact least fixed points, N
    # necklaces" or, under max-l1, "fixed-control LPs, L sequences, N
    # necklaces" (one LP per sequence solved, over the N necklaces
    # decided, then ", stopped at the safe set's bound" if it cut the loop);
    # for "proven_infeasible" with no LP, what refuted it, "exact least
    # fixed points, N necklaces"
    source: str = ""


@dataclass(frozen=True)
class SearchResult:
    certificate: SSequenceCertificate | None
    records: tuple
    minimal: bool        # True only if every smaller horizon was proven infeasible

    @property
    def found(self):
        return self.certificate is not None

    @property
    def budget_limited(self):
        return any(r.status == "budget_unknown" for r in self.records)

    @property
    def failures(self):
        return tuple(r for r in self.records if r.status == "failed")


# the plan search before a traffic horizon's solve: its seed, its budget of
# periods over all evaluations, and the periods one plan may take
_SEARCH_SEED = 0
_SEARCH_PERIODS = 2000
_PERIODS_PER_PLAN = 200
# the most mode sequences, m ** T, of a switched horizon that
# ``decide_switched_horizon`` decides; a longer horizon goes to the MILP alone
_EXACT_SEQUENCES = 4096

_HORIZON_STATUS = {"optimal": "found", "feasible_budget_hit": "found",
                   "infeasible": "proven_infeasible", "budget_unknown": "budget_unknown"}


def _encode(system, safe_set, T, objective):
    if isinstance(system, TrafficNetwork):
        return encode_traffic(system, T, objective=objective)
    return encode_switched(system, safe_set, T, objective=objective)


def find_s_sequence(system, safe_set=None, t_max=10, objective="max_l1_x0",
                    time_budget=None, node_budget=None, t_min=1,
                    dump_lp=None) -> SearchResult:
    """Sweep horizons T = t_min..t_max until a certificate is found.

    The budgets cover the *whole* sweep: each horizon gets an equal share of
    whatever remains (`remaining / horizons_left`), so early cheap horizons
    roll their unused share forward.  A horizon that exhausts its share is
    recorded as ``budget_unknown`` and the sweep moves on — minimality is
    claimed only when every smaller horizon was actually proven infeasible
    (and the sweep started at T=1).  A horizon whose solve raises
    ``NumericalBreakdownError`` or whose solution fails decoding is recorded
    as ``failed``, with the message, and the sweep moves on too.

    ``safe_set`` is required for a switched system, and checked
    (``encode.state_caps``) before any horizon.  A traffic network's
    safe set is the box ``x <= x_s`` of its link table, so it takes
    ``None`` or that set itself, ``system.safe_set()``.

    ``objective`` is ``"max_l1_x0"`` (maximize the l1 norm of x*_0, proving
    optimality) or ``"first_feasible"`` (a zero objective, so the search
    stops at the first integral point): ``encode.OBJECTIVES``.  Any other
    value, or a negative or NaN budget, raises ``ValueError`` before any
    horizon is tried; a budget of 0 is valid and tries none.

    Within its ``elapsed``, a switched horizon takes the first decision of
    ``decide_switched_horizon``, then is encoded only if it is solved (with
    ``dump_lp``, every horizon is encoded first).  A horizon it refutes is
    ``proven_infeasible`` with no LP: solver status ``infeasible``, 0
    nodes and 0 pivots, and ``source`` naming the necklaces refuted.  A
    horizon it leaves undecided is solved by branch-and-bound.  One with a
    feasible necklace is, under ``first_feasible``, solved with the
    necklace's orbit lifted into ``solve_milp``'s root incumbent; under
    ``max_l1_x0`` it gets one ``solve_milp`` call, one node of its budget
    slice, per feasible sequence up to the safe set's bound
    (``_max_l1_over_sequences``, which goes on through the same
    decisions), and the best is decoded.  A first-feasible traffic horizon
    runs ``search_traffic_plan`` instead, and a plan it finds is lifted the
    same way; under ``max_l1_x0`` a traffic horizon gets no incumbent.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time_budget must be >= 0, got {time_budget}")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if not 1 <= t_min <= t_max:
        raise ValueError("need 1 <= t_min <= t_max")
    traffic = isinstance(system, TrafficNetwork)
    if traffic:
        if safe_set is not None and safe_set is not system.safe_set():
            raise ValueError("traffic safety is the box x <= x_s from the link "
                             "table; a separate safe set cannot be attached")
    elif safe_set is None:
        raise ValueError("switched systems need an explicit safe set")
    else:
        state_caps(system, safe_set)

    records = []
    certificate = None
    start = time.monotonic()
    nodes_spent = 0
    for T in range(t_min, t_max + 1):
        horizons_left = t_max - T + 1
        t_left = None if time_budget is None else time_budget - (time.monotonic() - start)
        n_left = None if node_budget is None else node_budget - nodes_spent
        if any(left is not None and left <= 0 for left in (t_left, n_left)):
            records.append(HorizonRecord(T, "budget_unknown", "not_attempted", 0, 0.0))
            continue
        t_slice = None if t_left is None else t_left / horizons_left
        n_slice = None if n_left is None else max(1, n_left // horizons_left)

        art = _encode(system, safe_set, T, objective) if traffic or dump_lp is not None else None
        if dump_lp is not None:
            write_lp_format(art.model, f"{dump_lp}_T{T}.lp")
        t0 = time.monotonic()
        plan, plan_source = None, ""
        if not traffic:
            decisions = decide_switched_horizon(system, safe_set, T)
            exact = next(decisions, None)
            if exact is not None:
                plan, plan_source = exact, f"exact least fixed points, {exact.necklaces} necklaces"
                if exact.controls is None:
                    records.append(HorizonRecord(T, "proven_infeasible", "infeasible", 0,
                                                 time.monotonic() - t0, source=plan_source))
                    continue
        elif objective == "first_feasible":
            plan = search_traffic_plan(system, T)
            plan_source = f"local search, {plan.evaluations} evaluations, {plan.periods} periods"
        if art is None:
            art = _encode(system, safe_set, T, objective)
        try:
            if objective == "max_l1_x0" and plan is not None:
                sol, source = _max_l1_over_sequences(art, plan, decisions, n_slice, t_slice, t0)
            else:
                point = None
                if plan is not None and plan.controls is not None:
                    point = lift(art, plan.controls, plan.states)
                sol = solve_milp(art.model, node_budget=n_slice, time_budget=t_slice,
                                 incumbent=point)
                source = plan_source if sol.from_incumbent else "branch-and-bound"
        except NumericalBreakdownError as exc:
            records.append(HorizonRecord(T, "failed", "error", 0, time.monotonic() - t0,
                                         failure=f"{type(exc).__name__}: {exc}"))
            continue
        dt = time.monotonic() - t0
        nodes_spent += sol.nodes
        status = _HORIZON_STATUS.get(sol.status)
        if status is None:  # pragma: no cover - every encoder variable is bounded
            raise RuntimeError(f"unexpected solver status {sol.status!r} at T={T}")
        failure = ""
        if status == "found":
            try:
                certificate = decode(art, sol)
            except DecodeMismatchError as exc:
                status, failure = "failed", f"{type(exc).__name__}: {exc}"
        records.append(HorizonRecord(T, status, sol.status, sol.nodes, dt,
                                     sol.pivots, sol.refactorizations, sol.farkas_leaves,
                                     failure, sol.parallel_rows,
                                     source if status == "found" else ""))
        if certificate is not None:
            break
    minimal = (certificate is not None and t_min == 1
               and all(r.status == "proven_infeasible"
                       for r in records if r.T < certificate.T))
    return SearchResult(certificate=certificate, records=tuple(records),
                        minimal=minimal)


def _safe_set_bound(sys, S) -> MilpSolution:
    """The LP max sum x over S with the caps, ``encode_fixed_controls`` of
    no controls, which every sequence's LP contains; it raises
    ``NumericalBreakdownError`` unless optimal, as 0 is its point."""
    sol = solve_milp(encode_fixed_controls(sys, S, ()))
    if sol.status != "optimal":
        raise NumericalBreakdownError(f"the LP over the safe set ended {sol.status}")
    return sol


def _max_l1_over_sequences(art, exact, decisions, node_budget, time_budget, t0) -> tuple:
    """The max-l1 solve of a switched horizon with the feasible necklace
    ``exact``, the first of ``decisions`` (``decide_switched_horizon``),
    without branch-and-bound: ``(sol, source)``.

    The sequences with a witness are the rotations of the feasible
    necklaces (the module docstring's rotation argument), and with the
    controls fixed the model's max-l1 optimum is an LP in x_0
    (``encode_fixed_controls``).  So each distinct rotation of each feasible
    necklace gets one ``solve_milp`` call, one node of ``node_budget``: in
    necklace order, each next feasible necklace taken from ``decisions``,
    then in rotation order.  A later sequence replaces the best only by
    more than ``OBJ_TOL``, so the loop stops, before its next LP, once the
    best is within ``OBJ_TOL`` of ``_safe_set_bound``.  Each ``cap_i e_i``
    (``encode.state_caps``) lies in S, so that bound is at least the
    largest cap, and its LP, one more node, is solved at most once, only
    when a second LP is due and the best is within ``OBJ_TOL`` of that
    cap.  The best sequence's x_0 is run forward and lifted
    (``encode.lift``) into ``art``'s model, as ``sol.x`` for ``decode``.

    ``sol`` sums the counts of the LPs solved here.  Its status is
    ``optimal`` after every sequence or at the bound, ``feasible_budget_hit``
    if the budget ran out after one LP or more, and ``budget_unknown`` if it
    ran out before any.  ``source`` counts the sequence LPs and the
    necklaces decided, and says if the loop stopped at the bound.  An LP
    that does not end optimal raises ``NumericalBreakdownError``: its
    sequence has a witness.
    """
    sys, S, T = art.system, art.safe_set, art.T
    solves, best, bound, sequences, necklaces, stop = [], None, None, 0, exact.necklaces, ""
    floor = state_caps(sys, S).max() - OBJ_TOL     # the bound is at least the largest cap

    def spent():
        return (node_budget is not None and len(solves) >= node_budget
                or time_budget is not None and time.monotonic() - t0 > time_budget)

    while exact.controls is not None and not stop:
        word = exact.controls
        period = next(p for p in range(1, T + 1) if word[p:] + word[:p] == word)
        for k in range(period):
            if best is not None and best[0].objective >= floor and bound is None and not spent():
                bound = _safe_set_bound(sys, S)
                solves.append(bound)
            if bound is not None and best[0].objective >= bound.objective - OBJ_TOL:
                stop = "bound"
            elif spent():
                stop = "budget"
            if stop:
                break
            controls = word[k:] + word[:k]
            sol = solve_milp(encode_fixed_controls(sys, S, controls))
            if sol.status != "optimal":
                raise NumericalBreakdownError(
                    f"the LP of controls {controls} ended {sol.status}, but they have a witness")
            solves.append(sol)
            sequences += 1
            if best is None or sol.objective > best[0].objective + OBJ_TOL:
                best = sol, controls
        else:
            exact = next(decisions)
            necklaces += exact.necklaces
    counts = {name: sum(getattr(sol, name) for sol in solves)
              for name in ("nodes", "pivots", "refactorizations", "farkas_leaves")}
    source = (f"fixed-control LPs, {sequences} sequences, {necklaces} necklaces"
              + (", stopped at the safe set's bound" if stop == "bound" else ""))
    if best is None:
        return MilpSolution("budget_unknown", **counts), source
    sol, controls = best
    states = [sol.x]
    for u in controls:
        states.append(sys.step(states[-1], sys.w_star, u))
    return MilpSolution("feasible_budget_hit" if stop == "budget" else "optimal",
                        x=lift(art, controls, states), objective=sol.objective,
                        **counts), source


@dataclass(frozen=True)
class Rcis:
    """Union of the witness boxes R(x*_0) .. R(x*_{T-1}); box p carries u*_p."""
    region: BoxUnion
    certificate: SSequenceCertificate


def build_rcis(cert: SSequenceCertificate) -> Rcis:
    return Rcis(region=BoxUnion(tuple(cert.x_star[:-1])), certificate=cert)


class LimitCycleError(Exception):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LimitCycle:
    points: np.ndarray   # x_inf_0 .. x_inf_{T-1} as a read-only (T, n) array
    periods: int         # whole periods iterated until convergence
    residual: float      # max entrywise change over the final period
    closure_error: float # |f(x_inf_{T-1}, w*, u*_{T-1}) - x_inf_0|_inf
    monotone_violations: int

    @property
    def T(self):
        return len(self.points)


def _period_runs(advance, w, controls, first, max_periods):
    """The period loop of ``compute_limit_cycle`` and ``least_fixed_point``.

    Runs the checked ``controls`` (their maps) period after period under
    the disturbance ``w``, from the state ``first``.  Yields ``(period,
    run)`` after each period: ``run`` is the ``(T + 1, n)`` buffer of the
    period's states ``x_0 .. x_T``, each written into its row by
    ``advance``, and the next period opens with this one's ``x_T``.  Two
    buffers alternate, so a yielded run stays intact until the next one is
    yielded.
    """
    T = len(controls)
    run, spare = np.empty((2, T + 1, len(first)))
    run[0] = first
    for period in range(1, max_periods + 1):
        for k in range(T):
            advance(run[k], w, controls[k], run[k + 1])
        yield period, run
        spare[0] = run[T]
        run, spare = spare, run


def compute_limit_cycle(sys, cert: SSequenceCertificate, tol: float = 1e-9,
                        max_periods: int = 10 ** 6) -> LimitCycle:
    """Iterate whole periods of the repeated sequence from x*_0 under w = w*.

    Under the worst-case disturbance each period's phase states sit
    entrywise below the previous period's, so the iteration converges
    monotonically; the phase states it converges to are the cycle points.
    Convergence is declared when no phase state moved more than ``tol``
    over one full period.  A certificate bug shows up either as
    ``monotone_violations > 0`` or as failure to converge (which raises).
    ``w*``, the controls and the witness states are checked once; the
    periods then run on ``_period_runs``, whose first period opens with the
    successor of the stored x*_{T-1}.  A period's last successor is the
    next period's first state, and the converged one is also the closure
    error's, so each successor is computed once.

    The first period is compared against the certificate's stored witness
    states, which a rounded certificate only claims to its own declared
    tolerance; that one comparison therefore uses the larger of ``tol``
    and ``cert.tol``.  All later periods compare exact computed states
    and use ``tol`` directly.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    T = cert.T
    n = sys.state_dim
    w = as_vector(sys.w_star, n, "w")
    controls = [sys.check_control(u) for u in cert.controls]
    first_tol = max(tol, cert.tol) if cert.tol is not None else tol
    # the T phase states of the last period
    phase = as_rows(cert.x_star[:T], n, "x")
    violations = 0
    residual = np.inf
    for period, run in _period_runs(sys.advance, w, controls,
                                    sys.advance(phase[T - 1], w, controls[T - 1]), max_periods):
        new = run[:T]
        residual = float(np.max(np.abs(new - phase)))
        if not np.isfinite(residual):
            raise LimitCycleError(
                f"the period iteration overflowed after {period} periods", residual)
        thresh = first_tol if period == 1 else tol
        violations += int(np.count_nonzero((new > phase + thresh).any(axis=1)))
        if residual < tol:
            new.flags.writeable = False
            return LimitCycle(
                points=new,
                periods=period,
                residual=residual,
                closure_error=float(np.max(np.abs(run[T] - new[0]))),
                monotone_violations=violations,
            )
        phase = new
    raise LimitCycleError(
        f"no limit cycle within {max_periods} periods (residual {residual:.3g})",
        residual)


class FixedPointRun(NamedTuple):
    """What ``least_fixed_point`` found: the run ``states`` (x_0 .. x_T, a
    read-only ``(T + 1, n)`` array) of its last period, ``periods`` periods
    in.  ``exit_step`` is None when that run is the least fixed point's
    orbit, else the first step of the run outside ``S`` (``T`` when only
    x_T is non-finite).  ``overshoot`` then sums ``max(max_i (A x - b)_i,
    0)`` over the run's steps 0 .. T-1, from the row sums of the membership
    test (``PolyLowerSet.row_sums``), or is ``inf`` when a state is
    non-finite.  For a nonnegative run this is the sum of ``S.violation``:
    to the bit when ``A`` is the identity, as for a traffic safe set, and
    within the last bits otherwise, where ``violation``'s BLAS product may
    sum in another order."""
    states: np.ndarray
    periods: int
    exit_step: int | None = None
    overshoot: float = 0.0


def least_fixed_point(sys, S, controls, max_periods: int) -> FixedPointRun | None:
    """Decide the fixed control sequence ``controls`` without an LP.

    The period map ``F`` (one pass of the controls under w*) is monotone,
    so its iterates from 0 rise: ``0 <= F(0) <= F(F(0)) <= ...``.  Every
    witness ``x*`` of the sequence has ``F(x*_0) <= x*_0``, so each iterate,
    and each state of its run, sits below the witness's and lies in the
    lower set ``S``.  So a run that leaves ``S`` refutes the sequence, and
    if the iterates converge, their limit is the least fixed point, whose
    orbit is a witness when it stays in ``S`` (Tarski, 1955).

    The periods run on ``_period_runs`` from 0.  Each period's steps
    0 .. T-1 are tested against the ``PolyLowerSet`` ``S`` at
    ``DEFAULT_TOL`` as ``S.contains`` tests them, on one ``S.row_sums``
    call; ``S.b + DEFAULT_TOL`` is formed once per call.  The first run
    with a state outside ``S``, or with a non-finite state (a period map
    that overflows), ends the iteration as an exit, without a warning; a
    run that rose by at most ``DEFAULT_TOL`` over the previous one (the
    first over 0) is returned as the orbit, its ``x_T`` within rounding of
    ``x_0``.  With neither within ``max_periods`` periods, returns None.
    """
    maps = [sys.check_control(u) for u in controls]
    n, T = sys.state_dim, len(maps)
    row_sums, upper = S.row_sums, S.b[:, None] + DEFAULT_TOL
    every, largest, low, inf = np.logical_and.reduce, np.maximum.reduce, -DEFAULT_TOL, np.inf
    prev = np.zeros((T + 1, n))
    # an overflowing map's inf, and the NaN that inf gives the steps after
    # it, end the run as an exit: the warnings would say nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for period, run in _period_runs(sys.advance, sys.w_star, maps, prev[0], max_periods):
            X = run[:T].T
            Ax = row_sums(X)
            below, fits = Ax <= upper, (X >= low) & (X < inf)
            if not (every(below, axis=None) and every(fits, axis=None)):
                break
            rise = largest(run - prev, axis=None)
            if not DEFAULT_TOL < rise < inf:    # converged, or x_T is non-finite
                break
            prev = run
        else:
            return None
    states = run.copy()
    states.flags.writeable = False
    inside = every(below, axis=0) & every(fits, axis=0)
    if every(inside) and rise <= DEFAULT_TOL:
        return FixedPointRun(states, period)
    overshoot = (sum(largest(Ax - S.b[:, None], axis=0, initial=0.0).tolist())
                 if every(np.isfinite(states), axis=None) else inf)
    exit_step = T if every(inside) else int(np.argmin(inside))  # T: only x_T is non-finite
    return FixedPointRun(states, period, exit_step, float(overshoot))


class PlanSearch(NamedTuple):
    """The outcome of ``search_traffic_plan``: the plan found, with its
    least fixed point's orbit as witness states, or None for both; and the
    evaluations and periods it spent."""
    controls: tuple | None
    states: np.ndarray | None
    evaluations: int
    periods: int


def _exit_key(run: FixedPointRun) -> tuple:
    """A refuted plan's score in ``search_traffic_plan``, larger being
    better: the period of its exit, then minus its overshoot in whole
    ``DEFAULT_TOL`` steps; an overshoot too large for that grid, an
    overflowed run's ``inf`` among them, ranks below every other at its
    period."""
    grid = run.overshoot / DEFAULT_TOL
    return run.periods, -round(grid) if grid < np.inf else -np.inf


def search_traffic_plan(net: TrafficNetwork, T: int) -> PlanSearch:
    """Seeded local search for a horizon-``T`` plan of ``net``, scored by
    ``least_fixed_point``.

    Starts from a plan of phases drawn from ``SplitMix64(_SEARCH_SEED)``,
    repaired to meet every junction's ``encode.green_step_counts`` ``(ns,
    ew)``, which every witness meets: a junction with fewer than ``ns`` NS
    steps has its earliest EW steps turned NS, and one with fewer than
    ``ew`` EW steps its earliest NS steps turned EW.  On the bundled grid
    at T=5 the repaired start is itself a plan, where the raw draw took 29
    evaluations.  Where some junction's counts do not fit (``ns + ew >
    T``), no plan exists, and the search misses at once, with 0
    evaluations.  A move flips one junction's phase at one step, drawn
    from the same stream; it is kept unless it scores worse, whether or
    not it keeps the counts.  A plan whose run exits ``net``'s safe
    set scores by the period of its exit, later being better, then by its
    overshoot, smaller being better, compared on a grid of ``DEFAULT_TOL``
    so that last-bit differences between BLAS builds cannot steer the
    search (``_exit_key``).  A plan undecided after ``_PERIODS_PER_PLAN``
    periods scores above every exit.  The first plan whose iterates
    converge inside the set ends the search.  It also ends once
    ``_SEARCH_PERIODS`` periods are spent over all evaluations, with no
    plan: a miss proves nothing.
    """
    counts = list(green_step_counts(net, T).values())
    if any(ns + ew > T for ns, ew in counts):
        return PlanSearch(None, None, 0, 0)
    S, J = net.safe_set(), len(net.junctions)
    rng = SplitMix64(_SEARCH_SEED)
    bits = [[rng.randint(2) for _ in range(J)] for _ in range(T)]   # 1 = NS
    for j, (ns, ew) in enumerate(counts):
        column = [step[j] for step in bits]
        for phase, short in ((0, ns - column.count(1)), (1, ew - column.count(0))):
            for k in [k for k, b in enumerate(column) if b == phase][:max(short, 0)]:
                bits[k][j] = 1 - phase
    evaluations = spent = 0

    def score():
        nonlocal evaluations, spent
        controls = tuple(tuple(NS if b else EW for b in step) for step in bits)
        cap = min(_PERIODS_PER_PLAN, _SEARCH_PERIODS - spent)
        run = least_fixed_point(net, S, controls, cap)
        evaluations += 1
        spent += cap if run is None else run.periods
        if run is None:
            return (_PERIODS_PER_PLAN + 1, 0), None
        if run.exit_step is None:
            return None, PlanSearch(controls, run.states, evaluations, spent)
        return _exit_key(run), None

    best, found = score()
    while found is None and spent < _SEARCH_PERIODS:
        k, j = rng.randint(T), rng.randint(J)
        bits[k][j] ^= 1
        key, found = score()
        if found is None and key < best:
            bits[k][j] ^= 1
        else:
            best = key
    return found or PlanSearch(None, None, evaluations, spent)


def necklaces(m: int, T: int):
    """The necklaces of length ``T`` over ``0 .. m-1``, in lexicographic
    order: of each class of sequences equal up to rotation, its least
    rotation, once (2, 3, 4, 6, 8, 14 for ``m = 2`` at ``T = 1..6``).

    The Fredricksen-Kessler-Maiorana algorithm, in Duval's form: it steps
    through the Lyndon words of length at most ``T`` in lexicographic
    order, and one of length ``p`` dividing ``T``, repeated ``T / p``
    times, is a necklace.
    """
    word = [-1]
    while True:
        while word and word[-1] == m - 1:
            word.pop()
        if not word:
            return
        word[-1] += 1
        p = len(word)
        if T % p == 0:
            yield tuple(word * (T // p))
        while len(word) < T:
            word.append(word[-p])


class ExactDecision(NamedTuple):
    """One decision of ``decide_switched_horizon``: a necklace whose least
    fixed point's orbit stays in S, as mode labels, with that orbit (x_0
    .. x_T, x_T = x_0) rounded to the nearest floats as a read-only
    ``(T + 1, n)`` array, or None for both after the last necklace; and
    the necklaces decided since the previous decision, this one's
    included."""
    controls: tuple | None
    states: np.ndarray | None
    necklaces: int


def _solve_fraction_free(M, h) -> tuple:
    """``(d, X)`` with ``M X = d h`` for the square integer matrix ``M``
    and ``d = |det M| > 0``, so ``X / d`` is the solution, or ``(0,
    None)`` when ``M`` is singular.  Bareiss elimination with row swaps:
    every division is exact, so no entry leaves the integers, and back
    substitution is exact too, since ``det(M) x`` is an integer vector
    (Cramer)."""
    n = len(M)
    R = [row + [v] for row, v in zip(M, h)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if R[i][k]), None)
        if p is None:
            return 0, None
        R[k], R[p] = R[p], R[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                R[i][j] = (R[k][k] * R[i][j] - R[i][k] * R[k][j]) // prev
        prev = R[k][k]
    X = [0] * n
    for i in reversed(range(n)):
        X[i] = (prev * R[i][n] - sum(R[i][j] * X[j] for j in range(i + 1, n))) // R[i][i]
    return (prev, X) if prev > 0 else (-prev, [-v for v in X])


def decide_switched_horizon(sys, S, T: int):
    """Decide horizon ``T`` of the ``SwitchedAffineSystem`` ``sys`` in the
    ``PolyLowerSet`` ``S`` exactly, with no LP and no tolerance, in one
    pass over the necklaces.

    Every datum is read as its shortest decimal once, and each necklace
    over the modes (``necklaces``, one per rotation class) gets its period
    map ``x -> P x + q`` in integers over common denominators.  ``(I - P)
    x = q`` is solved fraction-free; a singular system, or a solution with
    a negative entry, means ``rho(P) >= 1`` and refutes the necklace, and
    a solution ``x >= 0`` is its least fixed point, whose orbit x_0 ..
    x_{T-1} is compared with ``A x <= b`` exactly (the module docstring
    has the proof).  Necklaces that share a prefix share its products
    over the whole pass.

    A generator: it yields an ``ExactDecision`` for each necklace whose
    orbit stays in S, in necklace order, then ``ExactDecision(None, None,
    k)``, each counting the necklaces decided since the previous one.  The
    sweep takes the first; the max-l1 loop goes on through the rest.  It
    yields nothing, undecided, when some ``w*_i`` is not positive (the
    Perron argument needs ``q > 0``) or when ``m ** T`` exceeds
    ``_EXACT_SEQUENCES``.
    """
    modes, n = sys.controls, sys.state_dim
    if len(modes) ** T > _EXACT_SEQUENCES or not all(v > 0 for v in sys.w_star.tolist()):
        return
    # A_u = N[u] / d_A, w* = a / d_w, S = {x : SA x / d_S <= b / d_b}
    flat, d_A = decimal_ratios([v for A in sys.modes for v in A.ravel().tolist()])
    N = [[flat[(u * n + i) * n:(u * n + i + 1) * n] for i in range(n)] for u in range(len(modes))]
    a, d_w = decimal_ratios(sys.w_star.tolist())
    flat, d_S = decimal_ratios(S.A.ravel().tolist())
    SA = [flat[r * n:(r + 1) * n] for r in range(S.A.shape[0])]
    b, d_b = decimal_ratios(S.b.tolist())
    b = [v * d_S for v in b]
    # along the necklace, x_k = (G_k x_0 + h_k) / (d_w d_A^k); prefix[k] = (G_k, h_k)
    prefix = [([[d_w * (i == j) for j in range(n)] for i in range(n)], [0] * n)]
    last, count = None, 0
    for word in necklaces(len(modes), T):
        count += 1
        keep = 0 if last is None else next(k for k in range(T) if word[k] != last[k])
        del prefix[keep + 1:]
        for k in range(keep, T):
            (G, h), A, scale = prefix[k], N[word[k]], d_A ** (k + 1)
            prefix.append(([[sum(A[i][l] * G[l][j] for l in range(n)) for j in range(n)]
                            for i in range(n)],
                           [sum(A[i][l] * h[l] for l in range(n)) + a[i] * scale
                            for i in range(n)]))
        last = word
        G, h = prefix[T]
        D = d_w * d_A ** T
        det, X = _solve_fraction_free([[D * (i == j) - G[i][j] for j in range(n)]
                                       for i in range(n)], h)
        if not det or min(X) < 0:
            continue                    # rho(P) >= 1: no nonnegative witness
        orbit = []
        for k in range(T):
            (G, h), den = prefix[k], det * d_w * d_A ** k
            y = [sum(G[i][j] * X[j] for j in range(n)) + det * h[i] for i in range(n)]
            if any(d_b * sum(c * v for c, v in zip(row, y)) > b_r * den
                   for row, b_r in zip(SA, b)):
                break
            orbit.append([v / den for v in y])      # int / int rounds to nearest
        else:
            states = np.array(orbit + orbit[:1])
            states.flags.writeable = False
            yield ExactDecision(tuple(modes[u] for u in word), states, count)
            count = 0
    yield ExactDecision(None, None, count)


def build_attractive_set(cycle: LimitCycle) -> BoxUnion:
    """Gamma: union of boxes cornered at the cycle points."""
    return BoxUnion(tuple(cycle.points))


def necessity_bound(c: float, alpha: float, eps: float, n: int) -> float:
    """c / (alpha * eps)^n — horizon beyond which no safe policy can hide.

    If no s-sequence exists for any T up to this bound, then no control
    policy keeps the eps-shrunk safe set invariant (the grid constant c and
    the lower-bound rate alpha are problem data, not computed here).
    """
    if c <= 0 or alpha <= 0 or eps <= 0:
        raise ValueError("c, alpha, eps must be positive")
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    return float(c) / float(alpha * eps) ** int(n)
