"""Trajectory simulation, certificate verification, dominance checking.

This module is the independent oracle: everything here drives the system's
own dynamics and never consults the optimizer, so solver output can be
judged against it.  ``verify_certificate`` is the one certificate checker:
``encode.decode`` accepts a solver's witness only through it, and
``monosafe verify`` runs it on a saved certificate.  It calls ``step`` at
every transition.  A rollout checks its inputs once -- the initial state, the
adversary's whole disturbance block, each distinct control, and at the end
every state -- and in between runs the same ``advance`` kernel that ``step``
returns, writing each state straight into its row of the trajectory, so a
trajectory is bit for bit the one a loop over ``step`` would give.  The
trajectory keeps those arrays: its states and disturbances are read-only
views of the rollout's own ``(steps + 1, n)`` and ``(steps, n)`` blocks, cut
to the steps taken.  Its membership flags come from one batch ``contains``
call per set.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from .certificate import SSequenceCertificate
from .order import WITNESS_TOL, BoxUnion, PolyLowerSet, as_rows, as_vector, leq
from .rng import SplitMix64


@dataclass(frozen=True)
class Policy:
    kind: str            # "open_loop" | "feedback"
    T: int
    _fn: object

    def __call__(self, k, x):
        return self._fn(k, x)


def open_loop(cert: SSequenceCertificate) -> Policy:
    """Repeat u*_0..u*_{T-1} forever, blind to the state."""
    controls, T = cert.controls, cert.T
    return Policy("open_loop", T, lambda k, x: controls[k % T])


def feedback(rcis) -> Policy:
    """u*_p of the lowest-index box R(x*_p) containing x; None outside.

    ``rcis`` is an ``invariance.Rcis``: its region and its certificate."""
    controls = rcis.certificate.controls

    def control(k, x):
        p = rcis.region.locate(x)
        return None if p is None else controls[p]

    return Policy("feedback", rcis.certificate.T, control)


@dataclass(frozen=True)
class Adversary:
    """Disturbances chosen in advance: no adversary here reads the state.

    ``adversary(sys, steps)`` is the ``(steps, n)`` block of disturbances
    for a whole rollout.  When a rollout stops early it hands the rows it
    did not use back with ``unread``, so that a shared random stream
    continues as if only the used rows had been drawn.
    """
    _fn: object          # (sys, steps) -> (steps, n) array
    _unread: object = None  # (sys, rows) -> None

    def __call__(self, sys, steps):
        return self._fn(sys, steps)

    def unread(self, sys, rows):
        if self._unread is not None:
            self._unread(sys, rows)


def worst_case_w_star() -> Adversary:
    """Always play the rectangle corner w* (worst case by monotonicity)."""
    return Adversary(lambda sys, steps: np.broadcast_to(
        sys.w_star, (steps, sys.state_dim)))


def uniform(seed) -> Adversary:
    """Draw each disturbance coordinate from U(0, w*_i) per step.

    The block is drawn row by row, coordinate by coordinate, from one
    stream.  ``seed`` may be an integer or a SplitMix64 stream (use
    ``SplitMix64(master).spawn(i)`` to give concurrent runs independent
    streams).
    """
    rng = seed if isinstance(seed, SplitMix64) else SplitMix64(seed)

    def draw(sys, steps):
        return rng.uniform(0.0, np.broadcast_to(sys.w_star, (steps, sys.state_dim)))

    def unread(sys, rows):
        rng.skip(-rows * sys.state_dim)

    return Adversary(draw, unread)


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray   # x_0 .. x_N as a read-only (N + 1, n) array
    controls: tuple      # u_0 .. u_{N-1}
    disturbances: np.ndarray  # w_0 .. w_{N-1} as a read-only (N, n) array
    phases: tuple        # k mod T per state
    safe: tuple          # per-state membership in S (None when S not supplied)
    in_omega: tuple
    in_gamma: tuple      # phase-matched: x_k in R(x_inf_{k mod T})
    status: str          # "completed" | "halted_outside_region"
    policy_kind: str

    def __len__(self):
        return len(self.states)


def simulate(sys, x0, policy: Policy, adversary: Adversary, steps: int,
             safe_set: PolyLowerSet | None = None,
             omega: BoxUnion | None = None,
             gamma: BoxUnion | None = None) -> Trajectory:
    """Roll the system ``steps`` transitions forward from x0.

    Membership columns are recorded only for the sets actually supplied.
    Gamma is checked phase-matched — state k against the box cornered at
    the cycle point of phase k mod T — which is strictly stronger than
    union membership.  If a feedback policy falls off its region the run
    halts with status ``"halted_outside_region"`` and the states so far.

    Inputs are checked once, with the errors ``step`` raises: x0, the whole
    disturbance block, each control the first time the policy plays it, and
    all states after the loop.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = sys.state_dim
    x = as_vector(x0, n, "x0")
    W = as_rows(adversary(sys, steps), n, "w")
    if W.shape[0] != steps:
        raise ValueError(f"adversary gave {W.shape[0]} disturbances for {steps} steps")
    sys.check_disturbance(W)
    X = np.empty((steps + 1, n))
    X[0] = x
    controls, checked = [], {}
    advance, control = sys.advance, policy._fn
    status = "completed"
    for k in range(steps):
        u = control(k, x)
        if u is None:
            status = "halted_outside_region"
            adversary.unread(sys, steps - k)
            break
        key = checked.get(u)
        if key is None:
            key = checked[u] = sys.check_control(u)
        x = advance(x, W[k], key, X[k + 1])
        controls.append(u)
    m = len(controls) + 1
    states = as_rows(X[:m], n, "x")
    disturbances = W[:m - 1]
    states.flags.writeable = disturbances.flags.writeable = False
    T = policy.T

    def flags(region):
        return (None,) * m if region is None else tuple(region.contains(states).tolist())

    in_gamma = (None,) * m
    if gamma is not None:
        inside = np.empty(m, dtype=bool)
        for p in range(min(T, m)):
            inside[p::T] = gamma.boxes[p].contains(states[p::T])
        in_gamma = tuple(inside.tolist())

    return Trajectory(
        states=states, controls=tuple(controls), disturbances=disturbances,
        phases=(tuple(range(T)) * -(-m // T))[:m],
        safe=flags(safe_set), in_omega=flags(omega), in_gamma=in_gamma,
        status=status, policy_kind=policy.kind)


@dataclass(frozen=True)
class ConditionReport:
    passed: bool
    worst_residual: float
    first_violation_step: int | None

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    tol: float
    dynamics: ConditionReport
    safety: ConditionReport
    closure: ConditionReport

    def to_dict(self):
        return asdict(self)


def verify_certificate(sys, S: PolyLowerSet,
                       cert: SSequenceCertificate) -> VerificationReport:
    """Check the three certificate conditions by pure simulation.

    For every step k: the stored x*_{k+1} must equal f(x*_k, w*, u*_k);
    x*_k must lie in S for k < T; and x*_T must sit below x*_0.  All
    within the certificate's own tolerance if it declares one (rounded
    witnesses are rounded), else ``WITNESS_TOL``.
    """
    tol = cert.tol if cert.tol is not None else WITNESS_TOL
    T = cert.T
    w = sys.w_star

    dyn_res, dyn_first = 0.0, None
    for k in range(T):
        nxt = sys.step(np.asarray(cert.x_star[k]), w, cert.controls[k])
        r = float(np.max(np.abs(np.asarray(cert.x_star[k + 1]) - nxt)))
        if r > dyn_res:
            dyn_res = r
        if r > tol and dyn_first is None:
            dyn_first = k
    dynamics = ConditionReport(dyn_first is None, dyn_res, dyn_first)

    safe_res, safe_first = 0.0, None
    for k in range(T):
        m = S.violation(np.asarray(cert.x_star[k]))
        if m > safe_res:
            safe_res = m
        if m > tol and safe_first is None:
            safe_first = k
    safety = ConditionReport(safe_first is None, safe_res, safe_first)

    cl_res = float(np.max(np.asarray(cert.x_star[T]) - np.asarray(cert.x_star[0])))
    closure = ConditionReport(cl_res <= tol, max(cl_res, 0.0),
                              None if cl_res <= tol else T)

    return VerificationReport(
        passed=dynamics.passed and safety.passed and closure.passed,
        tol=tol, dynamics=dynamics, safety=safety, closure=closure)


@dataclass(frozen=True)
class DominanceReport:
    dominated: bool
    worst_excess: float
    first_violation_step: int | None

    def to_dict(self):
        return asdict(self)


def dominance_check(sys, cert: SSequenceCertificate,
                    trajectory: Trajectory, tol: float = 1e-9) -> DominanceReport:
    """Every trajectory state must sit below the worst-case run from x*_0.

    The reference is the open-loop trajectory from x*_0 under w = w*,
    aligned step for step (same phase, same period).  Requires the checked
    trajectory to be open-loop from phase 0 with x_0 below x*_0 — those are
    the hypotheses of the comparison argument.
    """
    if trajectory.policy_kind != "open_loop" or trajectory.phases[0] != 0:
        raise ValueError("dominance needs an open-loop trajectory starting at phase 0")
    x_ref = as_vector(cert.x_star[0], sys.state_dim, "x")
    if not leq(trajectory.states[0], x_ref, 1e-12):
        raise ValueError("dominance precondition x0 <= x*_0 fails")
    w = as_vector(sys.w_star, sys.state_dim, "w")
    controls = [sys.check_control(u) for u in cert.controls]
    worst, first = 0.0, None
    for k, xs in enumerate(trajectory.states):
        excess = float(np.max(xs - x_ref))
        if excess > worst:
            worst = excess
        if excess > tol and first is None:
            first = k
        if k < len(trajectory.states) - 1:
            x_ref = sys.advance(x_ref, w, controls[k % cert.T])
    return DominanceReport(first is None, worst, first)


def _fmt_control(u):
    if u is None:
        return ""
    if isinstance(u, tuple):
        return ":".join(str(p) for p in u)
    return str(u)


def _fmt_flag(v):
    return "" if v is None else str(int(v))


def write_trajectory_csv(trajectory: Trajectory, path):
    """Write one row per state: step,phase,x_1..x_n,u,safe,in_omega,in_gamma.

    Traffic controls are colon-joined phase tuples.  The final state has no
    control, so its ``u`` cell is empty.  Output bytes are deterministic.
    """
    n = trajectory.states[0].shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "phase"] + [f"x_{i + 1}" for i in range(n)]
                        + ["u", "safe", "in_omega", "in_gamma"])
        for k, xs in enumerate(trajectory.states):
            u = trajectory.controls[k] if k < len(trajectory.controls) else None
            writer.writerow(
                [k, trajectory.phases[k]] + [repr(float(v)) for v in xs]
                + [_fmt_control(u), _fmt_flag(trajectory.safe[k]),
                   _fmt_flag(trajectory.in_omega[k]),
                   _fmt_flag(trajectory.in_gamma[k])])
