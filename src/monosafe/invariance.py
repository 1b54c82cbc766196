"""Periodic invariance: certificate search, RCIS, limit cycles.

A certificate with controls ``u*_0..u*_{T-1}`` and witness ``x*_0..x*_T``
induces the robust controlled-invariant set  Omega* = U_k R(x*_k)  (union of
boxes cornered at the witness states) and — by iterating whole periods of the
repeated sequence under the worst-case disturbance — a limit cycle whose
boxes form an attractive set Gamma inside Omega*.  The two policies a
certificate gives, open loop and feedback on Omega*, are
``simulate.open_loop`` and ``simulate.feedback``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .certificate import SSequenceCertificate
from .encode import OBJECTIVES, DecodeMismatchError, decode, encode_switched, encode_traffic
from .milp import NumericalBreakdownError, ParallelRows, solve_milp, write_lp_format
from .order import BoxUnion, as_rows, as_vector
from .systems import TrafficNetwork

__all__ = [
    "SSequenceCertificate", "HorizonRecord", "SearchResult", "find_s_sequence",
    "Rcis", "build_rcis",
    "LimitCycle", "LimitCycleError", "compute_limit_cycle",
    "build_attractive_set", "necessity_bound",
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


_HORIZON_STATUS = {"optimal": "found", "feasible_budget_hit": "found",
                   "infeasible": "proven_infeasible", "budget_unknown": "budget_unknown"}


def _encode(system, safe_set, T, objective):
    if isinstance(system, TrafficNetwork):
        if safe_set is not None and safe_set is not system.safe_set():
            raise ValueError("traffic safety is the box x <= x_s from the link "
                             "table; a separate safe set cannot be attached")
        return encode_traffic(system, T, objective=objective)
    if safe_set is None:
        raise ValueError("switched systems need an explicit safe set")
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

    ``safe_set`` is required for a switched system.  A traffic network's
    safe set is the box ``x <= x_s`` of its link table, so it takes
    ``None`` or that set itself, ``system.safe_set()``.

    ``objective`` is ``"max_l1_x0"`` (maximize the l1 norm of x*_0, proving
    optimality) or ``"first_feasible"`` (a zero objective, so the search
    stops at the first integral point): ``encode.OBJECTIVES``.  Any other
    value, or a negative or NaN budget, raises ``ValueError`` before any
    horizon is tried; a budget of 0 is valid and tries none.
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

        art = _encode(system, safe_set, T, objective)
        if dump_lp is not None:
            write_lp_format(art.model, f"{dump_lp}_T{T}.lp")
        t0 = time.monotonic()
        try:
            sol = solve_milp(art.model, node_budget=n_slice, time_budget=t_slice)
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
                                     failure, sol.parallel_rows))
        if certificate is not None:
            break
    minimal = (certificate is not None and t_min == 1
               and all(r.status == "proven_infeasible"
                       for r in records if r.T < certificate.T))
    return SearchResult(certificate=certificate, records=tuple(records),
                        minimal=minimal)


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
    periods then iterate the system's ``advance``, each state written into
    its row of the period buffer.  A period's last successor is the next
    period's first state, and the converged one is also the closure
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
    advance = sys.advance
    first_tol = max(tol, cert.tol) if cert.tol is not None else tol
    # the T phase states of the last period, and a buffer for the next one
    # that opens with its first state, the successor of the last period's last
    phase = np.array(as_rows(cert.x_star[:T], n, "x"))
    new = np.empty_like(phase)
    advance(phase[T - 1], w, controls[T - 1], new[0])
    violations = 0
    residual = np.inf
    for period in range(1, max_periods + 1):
        for k in range(T - 1):
            advance(new[k], w, controls[k], new[k + 1])
        residual = float(np.max(np.abs(new - phase)))
        if not np.isfinite(residual):
            raise LimitCycleError(
                f"the period iteration overflowed after {period} periods", residual)
        thresh = first_tol if period == 1 else tol
        violations += int(np.count_nonzero((new > phase + thresh).any(axis=1)))
        phase, new = new, phase
        advance(phase[T - 1], w, controls[T - 1], new[0])
        if residual < tol:
            phase.flags.writeable = False
            return LimitCycle(
                points=phase,
                periods=period,
                residual=residual,
                closure_error=float(np.max(np.abs(new[0] - phase[0]))),
                monotone_violations=violations,
            )
    raise LimitCycleError(
        f"no limit cycle within {max_periods} periods (residual {residual:.3g})",
        residual)


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
