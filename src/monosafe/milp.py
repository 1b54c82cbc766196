"""Self-contained LP and mixed-integer solver (no external solver dependency).

A model (``MilpModel``) holds its columns as arrays and its rows in COO
form, (row, column, value) triplets sorted by row and column, appended in
blocks that are checked as a whole.  ``dense`` scatters the triplets into
the matrix the simplex works on; ``write_lp_format`` reads them in order.

The LP core is a bounded-variable revised simplex: variables may rest at
either bound, so binary branching and the encoder's variable bounds never
add rows.  A cold solve is a two-phase primal simplex with Dantzig pricing
(steepest reduced cost, lowest index on ties).  The simplex keeps the
model's rows one for one: a "<=" row has a +1 slack, a ">=" row a -1
surplus, and a row whose slack or surplus cannot start the basis (an
equation, or a right-hand side of the wrong sign) has an artificial of the
right-hand side's sign.  After phase 1 every artificial is fixed at 0, so
one left basic on a redundant row stays there, and no row is ever negated,
dropped or renumbered.  No tableau is kept: the entering column and the
pivot row are computed from a factorization of the basis when needed
(``_col``, ``_row``).  A refactorization inverts only the k x k block of
the basis that the structural columns form on the rows no basic slack or
artificial covers, since the slack and artificial columns are signed unit
vectors (Koberstein, 2005, on slack-heavy bases); each later pivot appends
one product-form eta (Forrest & Tomlin, *Updated triangular factors of the
basis*, 1972).  The basis is refactorized before every optimal verdict,
every ``_REFRESH_EVERY`` pivots, and on a basis restore unless the
snapshot's own factorization is still parked; the refactorizations are
counted and reported as ``MilpSolution.refactorizations``.  An infeasible
verdict with pivots pending is not refactorized but checked: the leaving
row's row of the inverse must be a Farkas row for the model's own rows over
the node's bounds (Cheung, Gleixner & Steffy, *Verifying integer
programming results*, 2017), and only if the check fails is the basis
refactorized and the verdict retried; such leaves are counted as
``MilpSolution.farkas_leaves``.

The integer layer is a deterministic depth-first branch-and-bound on the
binary variables that keeps one live simplex for the whole search.  Only the
root LP is solved cold.  Fixing a binary moves one bound and no reduced
cost, so the parent's optimal basis stays dual feasible and a bounded dual
simplex re-optimizes each child from it, usually in a handful of pivots
(Koberstein, *The dual simplex method*, 2005; Bixby, *Solving real-world
linear programs*, 2002).  The child the search enters first continues on the
live simplex; its sibling waits on the stack as a basis snapshot (basis,
bound status, spans, right-hand side, lower-bound shift and reduced costs:
a few KB).  The factorization of the latest snapshot is parked in one slot,
so a sibling popped right after its twin closed as a leaf takes it over;
any other is refactorized once when popped.  Binaries a model lists in
``branch_first`` (the encoders list their control choices) are branched on
before all others.  The search ends when no open node is left or when the
incumbent meets the root LP's bound; with a zero objective, as in the
encoders' feasibility models, that is the first integral point.  Before the
root's cold solve, rows with identical coefficients are compared: a largest
lower right-hand side above the smallest upper one by more than the two
rows' re-check tolerances together decides the root infeasible with no
pivot, and the two rows are reported (Andersen & Andersen, *Presolving in
linear programming*, 1995).

A caller may offer one incumbent at the root (``solve_milp``'s
``incumbent``): a point of the model, as a heuristic would give it
(Fischetti & Lodi, *Local branching*, 2003), checked after the
parallel-row check and before the cold solve.  The point must pass the
re-check of every returned incumbent: the rows and bounds, and integral
binaries.  One that fails is ignored, and the search runs as without it.
One that passes is the incumbent; under a zero objective every node's bound
is 0, which it meets, so it closes the root as optimal with no simplex
built.  Under any other objective it only prunes.

The primal and the dual pivot loop differ only in how they pick a pivot:
both then make the one basis exchange, ``_exchange``, and both switch to
Bland's rule for good, keeping the anti-cycling guarantee, after
``_STALL_LIMIT`` pivots in a row that gain at most ``_PROGRESS_TOL`` (in
objective for the primal loop, in dual objective for the dual).  Both keep
two arrays between pivots instead of rebuilding them from the bound status
each iteration: the spans of the basic variables, and a direction per
variable, +1 for a nonbasic at its lower bound, -1 at its upper and 0 for a
basic one or one that may not enter (the dual loop moves only variables
with room to move; the primal loop also lets a variable at its upper bound
enter).  A pivot updates the entries of the entering and the leaving
variable.  The candidate tests read ``dirs * alpha`` and ``dirs * r``,
which are +-alpha, +-r or 0 exactly, since negation and multiplying by +-1
are exact in IEEE arithmetic; so the candidates, the ratios and the tie
choices are those of the per-status tests bit for bit.  A child's dual loop
starts from the reduced costs of its parent's optimal verdict: fixing a
binary moves no reduced cost, and a sibling's snapshot carries them, since
a refactorization of its basis gives the parked factorization to the bit.

Every answer the solver returns is independently re-checked against the
original constraints before it leaves this module, and every node's LP
answer before branch-and-bound uses it; a failed re-check raises
``NumericalBreakdownError`` instead of returning a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEAS_TOL = 1e-6        # constraint satisfaction on returned answers
INT_TOL = 1e-6         # distance to {0,1} accepted as integral
PIVOT_TOL = 1e-9       # smallest usable pivot magnitude
OBJ_TOL = 1e-7         # objective comparisons (pruning, incumbent updates)
_DUAL_TOL = 1e-9       # reduced-cost optimality threshold
_PRIMAL_TOL = 1e-9     # bound violation of a basic variable the dual simplex repairs
_RATIO_MARGIN = 1e-15  # a ratio-test row must beat the entering column's own span by this
_TIE_TOL = 1e-9        # ratio-test tie window: primal leaving rows, dual entering columns
_PROGRESS_TOL = 1e-12  # objective or dual gain a pivot must make to reset the stall count
_PHASE1_TOL = 1e-7     # phase-1 artificial mass above which the LP is infeasible
_STALL_LIMIT = 200     # non-improving iterations before Bland mode
_REFRESH_EVERY = 32    # pivots between refactorizations (the eta file's length)

LEQ, EQ, GEQ = "<=", "=", ">="


class MilpError(Exception):
    """Malformed model or unusable input."""


class NumericalBreakdownError(MilpError):
    """The solver could not certify its own answer; nothing is returned."""


class MilpModel:
    """Linear model: bounded reals, binary markers, rows, one objective.

    Columns are the arrays ``lb``, ``ub`` and ``binary`` plus the list
    ``names``.  Rows are in COO form: entry k of ``row``, ``col`` and
    ``val`` puts ``val[k]`` in column ``col[k]`` of row ``row[k]``; entries
    are sorted by row and then column, a column appears once per row, and
    explicit zeros are kept.  ``rels`` and ``rhs`` hold one entry per row,
    and ``obj`` is ``{column: coefficient}`` in column order.

    ``add_vars`` and ``add_rows`` append a block, checked as a whole: a
    rejected block leaves the model as it was.  ``add_var`` and
    ``add_constraint`` append a block of one.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []
        self.lb, self.ub, self.binary = np.empty(0), np.empty(0), np.empty(0, bool)
        self.row, self.col = np.empty(0, np.intp), np.empty(0, np.intp)
        self.val, self.rels, self.rhs = np.empty(0), np.empty(0, str), np.empty(0)
        self.obj: dict[int, float] = {}
        self.sense = "min"
        # binaries branch-and-bound splits on before any other binary
        self.branch_first: list[int] = []

    def add_vars(self, names, lb=0.0, ub=np.inf, binary=False) -> np.ndarray:
        """Append a column per name; bounds and flags are given per column
        or once for all, and a binary's bounds are [0, 1].  Returns the
        new columns."""
        names = list(names)
        binary = np.full(len(names), binary, bool)
        lb, ub = np.where(binary, 0.0, lb), np.where(binary, 1.0, ub)
        if not np.isfinite(lb).all() or (ub < lb).any():
            j = int(np.flatnonzero(~np.isfinite(lb) | (ub < lb))[0])
            what = "empty bound interval" if np.isfinite(lb[j]) else "lower bound must be finite"
            raise MilpError(f"variable {names[j]}: {what} [{lb[j]}, {ub[j]}]")
        first = len(self.names)
        self.names += names
        self.lb = np.concatenate([self.lb, lb])
        self.ub = np.concatenate([self.ub, ub])
        self.binary = np.concatenate([self.binary, binary])
        return np.arange(first, len(self.names))

    def add_var(self, name: str, lb: float = 0.0, ub: float = np.inf,
                binary: bool = False) -> int:
        return int(self.add_vars([name], lb, ub, binary)[0])

    def add_rows(self, row, col, val, rel, rhs) -> np.ndarray:
        """Append a row per entry of ``rhs``, ``rel`` given per row or once
        for all; entry k puts ``val[k]`` (or ``val`` for every entry) in
        column ``col[k]`` of the block's row ``row[k]``, 0 being the block's
        first row.  Returns the new rows.  The entries may come in any
        order; they are kept sorted by row and column."""
        rhs = np.asarray(rhs, float).ravel()
        bad = set(np.ravel(rel).tolist()) - {LEQ, EQ, GEQ}
        if bad:
            raise MilpError(f"unknown relation {min(bad)!r}")
        rels = np.full(rhs.size, rel)
        row, col = np.asarray(row, np.intp).ravel(), np.asarray(col, np.intp).ravel()
        val = np.full(col.size, val, float)
        n, first = self.num_vars, self.num_constraints
        if col.size and (col.min() < 0 or col.max() >= n):
            j = col[(col < 0) | (col >= n)][0]
            raise MilpError(f"constraint references unknown variable index {j}")
        if row.shape != col.shape or row.size and (row.min() < 0 or row.max() >= rhs.size):
            raise MilpError("constraint entries must name rows of the block")
        key = row * n + col
        order = np.argsort(key, kind="stable")
        key = key[order]
        if (key[1:] == key[:-1]).any():
            raise MilpError("a row lists one variable twice")
        self.row = np.concatenate([self.row, row[order] + first])
        self.col = np.concatenate([self.col, col[order]])
        self.val = np.concatenate([self.val, val[order]])
        self.rels = np.concatenate([self.rels, rels])
        self.rhs = np.concatenate([self.rhs, rhs])
        return np.arange(first, self.num_constraints)

    def add_constraint(self, coeffs, rel: str, rhs: float) -> int:
        row = dict(coeffs)
        return int(self.add_rows([0] * len(row), list(row), list(row.values()), rel, rhs)[0])

    def set_objective(self, coeffs, sense: str = "min"):
        if sense not in ("min", "max"):
            raise MilpError(f"unknown sense {sense!r}")
        obj = dict(coeffs)
        for j in obj:
            if not 0 <= j < self.num_vars:
                raise MilpError(f"objective references unknown variable index {j}")
        self.obj = {int(j): float(obj[j]) for j in sorted(obj)}
        self.sense = sense

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_constraints(self) -> int:
        return self.rhs.size

    @property
    def binary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.binary)

    def dense(self):
        c = np.zeros(self.num_vars)
        c[list(self.obj)] = list(self.obj.values())
        A = np.zeros((self.num_constraints, self.num_vars))
        A[self.row, self.col] = self.val
        return c, A, self.rels.copy(), self.rhs.copy(), self.lb.copy(), self.ub.copy()


class ParallelRows(NamedTuple):
    """Two rows with the same coefficients that no point meets to within
    ``FEAS_TOL`` each: row ``lo_row`` (">=" or "=") asks at least ``lo``,
    row ``hi_row`` ("<=" or "=") at most ``hi``, and ``lo - hi > 2 FEAS_TOL``."""
    lo_row: int
    hi_row: int
    lo: float
    hi: float


@dataclass
class MilpSolution:
    status: str                     # optimal | feasible_budget_hit | infeasible |
                                    # unbounded | budget_unknown
    x: np.ndarray | None = None
    objective: float | None = None
    nodes: int = 0
    pivots: int = 0                 # simplex pivots, summed over all nodes
    refactorizations: int = 0       # basis refactorizations (``_refresh``)
    farkas_leaves: int = 0          # infeasible leaves closed by a checked Farkas row
    parallel_rows: ParallelRows | None = None  # the rows that closed an infeasible root
    from_incumbent: bool = False    # x is ``solve_milp``'s ``incumbent``


# --------------------------------------------------------------------------
# bounded-variable simplex: cold two-phase primal, warm dual
# --------------------------------------------------------------------------

_AT_LB, _AT_UB, _BASIC = 0, 1, 2
# the direction a nonbasic variable of each status moves in: up from its
# lower bound, down from its upper; a basic variable has none
_DIRECTION = np.array([1.0, -1.0, 0.0])


class _Simplex:
    """One standardized LP instance:  min c.x,  A x rel b,  lb <= x <= ub.

    ``fix`` tightens a variable's bounds in place and ``reoptimize`` repairs
    the basis with the dual simplex, so one instance can follow a whole
    branch-and-bound search.
    """

    def __init__(self, c, A, rels, b, lb, ub):
        m, n = A.shape
        if np.any(~np.isfinite(lb)):
            raise MilpError("lower bounds must be finite")
        # shift structurals to y = x - lb >= 0
        span = ub - lb
        b_eff = b - A @ lb
        # extended columns: structurals, then a slack (+1) per <= row and a
        # surplus (-1) per >= row, then an artificial for each row whose
        # slack or surplus cannot start the basis at a nonnegative value;
        # the artificial has the sign of b_eff, so it starts at |b_eff|
        slack_rows = [i for i, rel in enumerate(rels) if rel != EQ]
        art_rows = [i for i, rel in enumerate(rels)
                    if rel == EQ or (rel == LEQ) == (b_eff[i] < 0)]
        self.art_start = n + len(slack_rows)
        N = self.art_start + len(art_rows)
        A_ext = np.zeros((m, N))
        A_ext[:, :n] = A
        slack_cols = np.arange(n, self.art_start)
        art_cols = np.arange(self.art_start, N)
        A_ext[slack_rows, slack_cols] = [1.0 if rels[i] == LEQ else -1.0 for i in slack_rows]
        A_ext[art_rows, art_cols] = np.where(b_eff[art_rows] < 0, -1.0, 1.0)
        # the row of each slack or artificial column, a signed unit vector
        self.unit_row = np.full(N, -1)
        self.unit_row[slack_cols] = slack_rows
        self.unit_row[art_cols] = art_rows
        U = np.full(N, np.inf)
        U[:n] = span
        self.n, self.N = n, N
        self.A_ext = A_ext
        self.b_eff = b_eff
        self.U = U
        self.lb_orig = np.array(lb, dtype=float)
        self.c = np.zeros(N)
        self.c[:n] = c
        # basis: the artificial of each row that has one, else its slack
        basis = np.empty(m, dtype=int)
        basis[slack_rows] = slack_cols
        basis[art_rows] = art_cols
        self.basis = basis
        self.status = np.full(N, _AT_LB, dtype=np.int8)
        self.status[basis] = _BASIC
        # the model's own rows, read by the Farkas check of ``reoptimize``
        # and by ``solve_milp``'s re-check of each node
        self.model_rows = (A, _senses(rels), b)
        # ``c``'s reduced costs at the last optimal verdict, while the basis
        # and its factorization are those of that verdict (see ``reoptimize``)
        self._r = None
        self.pivots = 0
        self.refactorizations = 0
        self.farkas_leaves = 0
        # (basis array of a snapshot, the factor of that basis): see ``snapshot``
        self._parked = None
        self._refresh()

    # -- the factorization: structural block plus eta file -----------------

    def _refresh(self):
        """Refactorize the basis from scratch and recompute ``v``.

        Only the structural block of B is factorized.  Order the basic
        columns as [structurals S | slack and artificial unit columns].  The
        unit columns cover rows R with signs D; the k rows Q they leave
        uncovered see S alone, so B_QS = A_ext[Q, S] is square and

            B x = a:  x_S = inv(B_QS) a_Q,  x_unit = D (a_R - A_RS x_S)
            y B = w:  y_R = D w_unit,       y_Q = (w_S - y_R A_RS) inv(B_QS)

        with A_RS = A_ext[R, S] (``_ftran``, ``_btran``).  Most basic
        columns are unit columns, so the k x k inverse is far cheaper than
        one of the whole m x m basis.  Two unit columns on one row or a
        singular B_QS mean B is singular; the factorization and ``v`` are
        then left as they were.
        """
        basis = self.basis
        is_struct = basis < self.n
        struct, unit = is_struct.nonzero()[0], (~is_struct).nonzero()[0]
        R = self.unit_row[basis[unit]]
        covered = np.zeros(basis.size, dtype=bool)
        covered[R] = True
        if np.count_nonzero(covered) != R.size:
            # two unit columns on one row
            raise NumericalBreakdownError("singular basis during refresh")
        Q = (~covered).nonzero()[0]
        S = basis[struct]
        try:
            inv_QS = np.linalg.inv(self.A_ext[Q][:, S])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError("singular basis during refresh") from exc
        self._load((struct, unit, Q, R, inv_QS, self.A_ext[R][:, S],
                    self.A_ext[R, basis[unit]]))
        self.refactorizations += 1

    def _load(self, factor):
        """Install ``factor``, the factorization of the current basis: the
        eta file is cleared and ``v`` recomputed from the bounds."""
        self._factor = factor
        self._etas = []
        rhs = self.b_eff
        ub_mask = self.status == _AT_UB
        if ub_mask.any():
            rhs = rhs - self.A_ext[:, ub_mask] @ self.U[ub_mask]
        self.v = self._ftran(rhs)

    def _ftran(self, a):
        """``inv(B) @ a``: the block solve, then the etas in pivot order."""
        struct, unit, Q, R, inv_QS, A_RS, D = self._factor
        x = np.empty(a.size)
        x_S = inv_QS @ a[Q]
        x[struct] = x_S
        x[unit] = D * (a[R] - A_RS @ x_S)
        for p, eta in self._etas:
            x -= x[p] * eta
        return x

    def _btran(self, w):
        """``w @ inv(B)``: the etas in reverse, then the transposed block solve.

        Overwrites ``w``, which callers pass as a fresh array.
        """
        struct, unit, Q, R, inv_QS, A_RS, D = self._factor
        for p, eta in reversed(self._etas):
            w[p] -= w @ eta
        y = np.empty(w.size)
        y_R = D * w[unit]
        y[R] = y_R
        y[Q] = (w[struct] - y_R @ A_RS) @ inv_QS
        return y

    def _col(self, j):
        """Column ``j`` of ``inv(B) @ A_ext``."""
        return self._ftran(self.A_ext[:, j])

    def _rho(self, i):
        """Row ``i`` of ``inv(B)``."""
        e = np.zeros(self.basis.size)
        e[i] = 1.0
        return self._btran(e)

    def _row(self, i):
        """Row ``i`` of ``inv(B) @ A_ext``."""
        return self._rho(i) @ self.A_ext

    def _reduced_costs(self, c):
        """``c - c_B inv(B) A_ext``, from one btran."""
        return c - self._btran(c[self.basis]) @ self.A_ext

    def _current_x(self) -> np.ndarray:
        x = np.where(self.status == _AT_UB, self.U, 0.0)
        x[self.basis] = self.v
        return x

    def _pivot(self, row, j, col):
        """Make column ``j``, whose ``_col`` is ``col``, basic in ``row``.

        The new inverse is ``(I - eta e_row') inv(B)`` with
        ``eta = (col - e_row) / col[row]``; the pair (row, eta) joins the
        eta file.
        """
        piv = col[row]
        if abs(piv) < PIVOT_TOL:
            raise NumericalBreakdownError("pivot element below tolerance")
        eta = col / piv
        eta[row] -= 1.0 / piv
        self._etas.append((row, eta))
        self.basis[row] = j
        self.status[j] = _BASIC
        self.pivots += 1
        self._r = None

    def _exchange(self, c, r, p, q, col, row, theta, leave_to):
        """The basis exchange of both loops: ``q``, whose ``_col`` is ``col``,
        steps by ``theta`` from its bound and enters in row ``p``, whose
        variable leaves with status ``leave_to``.  Returns ``r``, the reduced
        costs of ``c``, updated from ``row`` (row ``p`` of ``inv(B) @ A_ext``)
        or recomputed when a full eta file is refactorized."""
        x_q = self.U[q] if self.status[q] == _AT_UB else 0.0
        self.v = self.v - col * theta
        self.v[p] = x_q + theta
        self.status[self.basis[p]] = leave_to
        r = r - r[q] / row[q] * row
        self._pivot(p, q, col)
        if len(self._etas) >= _REFRESH_EVERY:
            self._refresh()
            r = self._reduced_costs(c)
        return r

    # -- the primal pivot loop ---------------------------------------------

    def _optimize(self, c):
        """Primal simplex on ``c`` from a primal feasible basis: returns the
        status (optimal | unbounded) and the reduced costs it ended with."""
        m = self.basis.size
        U, status = self.U, self.status
        r = self._reduced_costs(c)
        # kept between pivots, each pivot updating the entries it changes:
        # the spans of the basic variables, and the direction each nonbasic
        # may enter in (+1 up from a lower bound with room to move, -1 down
        # from an upper bound, else 0), so that ``dirs * r < 0`` is the
        # test on the sign of r per status, exactly
        spans = U[self.basis]
        dirs = np.where((U > PIVOT_TOL) | (status == _AT_UB), _DIRECTION[status], 0.0)
        bland = False
        stall = 0
        max_iter = 2000 + 60 * (m + self.N)
        for _ in range(max_iter):
            cand = (dirs * r < -_DUAL_TOL).nonzero()[0]
            if cand.size == 0:
                if self._etas:
                    self._refresh()
                    r = self._reduced_costs(c)
                    continue
                return "optimal", r
            if bland:
                j = int(cand[0])
            else:
                j = int(cand[np.abs(r[cand]).argmax()])
            direction = float(dirs[j])
            alpha = self._col(j)
            d = direction * alpha
            # ratio test: basic vars falling to 0 or rising to their span
            t_best = U[j]
            leave_row, leave_to = -1, _AT_LB
            falling = d > PIVOT_TOL
            rising = (d < -PIVOT_TOL) & np.isfinite(spans)
            v_pos = np.maximum(self.v, 0.0)
            t_fall = np.where(falling, v_pos / np.where(falling, d, 1.0), np.inf)
            head = np.maximum(spans - self.v, 0.0)
            t_rise = np.where(rising, head / np.where(rising, -d, 1.0), np.inf)
            t_rows = np.minimum(t_fall, t_rise)
            i_min = int(t_rows.argmin()) if m else -1
            t_row_best = t_rows[i_min] if m else np.inf
            if t_row_best < t_best - _RATIO_MARGIN:
                # deterministic tie handling: among rows within _TIE_TOL of
                # the minimum pick the largest pivot magnitude, lowest row index
                near = (t_rows <= t_row_best + _TIE_TOL).nonzero()[0]
                i_min = int(near[np.abs(d[near]).argmax()])
                t_best = float(t_rows[i_min])
                leave_row = i_min
                leave_to = _AT_LB if t_fall[i_min] <= t_rise[i_min] else _AT_UB
            if not np.isfinite(t_best):
                return "unbounded", r
            theta = direction * t_best
            gain = -r[j] * theta
            if leave_row < 0:
                # bound flip, basis unchanged
                if direction > 0:
                    status[j], dirs[j] = _AT_UB, -1.0
                else:
                    status[j], dirs[j] = _AT_LB, float(U[j] > PIVOT_TOL)
                self.v = self.v - d * t_best
            else:
                lv = self.basis[leave_row]
                spans[leave_row] = U[j]
                dirs[j] = 0.0
                dirs[lv] = -1.0 if leave_to == _AT_UB else float(U[lv] > PIVOT_TOL)
                r = self._exchange(c, r, leave_row, j, alpha, self._row(leave_row),
                                   theta, leave_to)
            if gain > _PROGRESS_TOL:
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
        raise NumericalBreakdownError("simplex iteration limit exceeded")

    def solve(self) -> str:
        """Cold two-phase solve: optimal | infeasible | unbounded."""
        # phase 1: minimize artificial mass
        c1 = np.zeros(self.N)
        c1[self.art_start:] = 1.0
        status, _ = self._optimize(c1)
        if status != "optimal":  # pragma: no cover - phase 1 cannot be unbounded
            raise NumericalBreakdownError("phase 1 ended " + status)
        if c1 @ self._current_x() > _PHASE1_TOL:
            return "infeasible"
        # artificials are fixed at 0 from here on: a nonbasic one never
        # re-enters, and the ratio tests hold a basic one at 0 (one on a
        # redundant row stays basic for good)
        self.U[self.art_start:] = 0.0
        status, r = self._optimize(self.c)
        if status == "optimal":
            self._r = r
        return status

    # -- warm start: bound changes and the dual simplex --------------------

    def fix(self, j, val):
        """Fix structural ``j`` at its current lower bound plus ``val``.

        Only a bound moves, so the reduced costs, and with them the dual
        feasibility of the basis, are unchanged; the basic values follow
        the shift and may leave their bounds, which ``reoptimize`` repairs.
        """
        if self.status[j] == _BASIC:
            self.v[int((self.basis == j).argmax())] -= val
        else:
            x_j = self.U[j] if self.status[j] == _AT_UB else 0.0
            self.v -= self._col(j) * (val - x_j)
            self.status[j] = _AT_LB
        self.U[j] = 0.0
        self.b_eff = self.b_eff - self.A_ext[:, j] * val
        self.lb_orig[j] += val

    def snapshot(self):
        """The basis and bounds, enough to refactorize, and the reduced
        costs of the last optimal verdict, which a refactorization of the
        same basis gives again to the bit (a few KB).

        Taken with an empty eta file, the current factorization is that of
        the snapshot's basis; it is parked in one slot, keyed by the
        snapshot's basis array, so that restoring this snapshot next needs
        no refactorization.  A later snapshot takes the slot over.
        """
        snap = (self.basis.copy(), self.status.copy(), self.U.copy(),
                self.b_eff.copy(), self.lb_orig.copy(), self._r)
        self._parked = None if self._etas else (snap[0], self._factor)
        return snap

    def restore(self, snap):
        """Continue from ``snap``: the parked factorization if it is this
        snapshot's, else a refactorization.  The state is the same either
        way, to the bit.  ``snap`` is consumed: the live simplex works on
        its arrays from here on."""
        parked, self._parked = self._parked, None
        self.basis, self.status, self.U, self.b_eff, self.lb_orig, r = snap
        if parked is not None and parked[0] is snap[0]:
            self._load(parked[1])
        else:
            self._refresh()
        self._r = r

    def reoptimize(self) -> str:
        """Bounded dual simplex from a dual feasible basis.

        Returns optimal | infeasible (or unbounded, should the clean-up
        below find a ray).

        The leaving row is the basic variable furthest outside its bounds;
        the ratio test keeps every reduced cost on its side, preferring the
        largest pivot among ties.  A stall switches to Bland's rule (lowest
        variable index leaves, lowest index enters).  Once primal feasible,
        a primal phase 2 removes any reduced cost rounding pushed past
        ``_DUAL_TOL``; normally it makes no pivot.

        A leaving row without an entering column proves the node infeasible
        in exact arithmetic: its row of ``inv(B)`` is a Farkas row.  With
        pivots pending in the eta file that row is checked against the
        model's own data (``_farkas_certifies``); only if the check fails is
        the basis refactorized and the row tried again.

        The loop starts from the reduced costs of the last optimal verdict
        when they are kept: ``fix`` moves no reduced cost, and a restore
        brings back the snapshot's basis and, to the bit, its factorization.
        """
        c, U = self.c, self.U
        r, self._r = self._r, None
        if r is None:
            r = self._reduced_costs(c)
        # kept between pivots, each pivot updating the entries it changes:
        # the spans of the basic variables, and the direction each nonbasic
        # can move in (+1 up from its lower bound, -1 down from its upper,
        # 0 for a basic variable or one with no room to move)
        spans = U[self.basis]
        dirs = np.where(U > PIVOT_TOL, _DIRECTION[self.status], 0.0)
        bland = False
        stall = 0
        max_iter = 2000 + 60 * (self.basis.size + self.N)
        for _ in range(max_iter):
            v = self.v
            above = v - spans
            viol = np.maximum(-v, above)
            rows = (viol > _PRIMAL_TOL).nonzero()[0]
            if rows.size == 0:
                if self._etas:
                    self._refresh()
                    continue
                status, r = self._optimize(c)
                if status == "optimal":
                    self._r = r
                return status
            if bland:
                p = int(rows[self.basis[rows].argmin()])
            else:
                p = int(rows[viol[rows].argmax()])
            to_upper = above[p] > -v[p]
            rho = self._rho(p)
            alpha = rho @ self.A_ext
            # entering columns move the leaving variable back toward the bound
            # it violates: up from a lower bound or down from an upper one.
            # dirs * alpha is alpha, -alpha or 0, exactly, so this is the test
            # on alpha's sign per bound status
            moves = dirs * alpha
            cand = ((moves > PIVOT_TOL) if to_upper else (moves < -PIVOT_TOL)).nonzero()[0]
            if cand.size == 0:
                if not self._etas:
                    return "infeasible"
                if _farkas_certifies(rho, *self.model_rows, *self.bounds()):
                    self.farkas_leaves += 1
                    return "infeasible"
                self._refresh()
                r = self._reduced_costs(c)
                continue
            # a candidate's slack is its reduced cost, negated at an upper bound
            size = np.abs(alpha[cand])
            ratios = np.maximum(dirs[cand] * r[cand], 0.0) / size
            ties = ratios <= ratios.min() + _TIE_TOL
            near = cand[ties]
            q = int(near[0]) if bland else int(near[size[ties].argmax()])
            # primal step: the leaving variable lands on the bound it violated
            target = spans[p] if to_upper else 0.0
            col = self._col(q)
            delta = (v[p] - target) / col[p]
            lv = self.basis[p]
            lands_up = to_upper and target > 0
            spans[p] = U[q]
            dirs[q] = 0.0
            dirs[lv] = (-1.0 if lands_up else 1.0) if U[lv] > PIVOT_TOL else 0.0
            gain = r[q] * delta
            r = self._exchange(c, r, p, q, col, alpha, delta, _AT_UB if lands_up else _AT_LB)
            if gain > _PROGRESS_TOL:
                stall = 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
        raise NumericalBreakdownError("dual simplex iteration limit exceeded")

    # -- answers -------------------------------------------------------------

    def x(self) -> np.ndarray:
        """Structural values in the model's own coordinates."""
        return self.lb_orig + self._current_x()[:self.n]

    def bounds(self):
        """The current bounds of the structurals (fixings included)."""
        return self.lb_orig, self.lb_orig + self.U[:self.n]


class _Senses(NamedTuple):
    """The rows of each relation, as masks; built once per model."""
    leq: np.ndarray
    geq: np.ndarray
    eq: np.ndarray


def _senses(rels) -> _Senses:
    """``rels`` as masks: relation strings are compared once, and masks
    already built pass through."""
    if isinstance(rels, _Senses):
        return rels
    rels = np.asarray(rels)
    return _Senses(rels == LEQ, rels == GEQ, rels == EQ)


def _check_solution(A, rels, b, lb, ub, x, tol=FEAS_TOL):
    """True if ``x`` is finite and meets its bounds and every row to within
    ``tol``.  ``rels`` holds the relation strings or their ``_senses``."""
    if not np.isfinite(x).all() or (x < lb - tol).any() or (x > ub + tol).any():
        return False
    leq, geq, eq = _senses(rels)
    Ax = A @ x
    return not ((Ax[leq] > b[leq] + tol).any() or (Ax[geq] < b[geq] - tol).any()
                or (np.abs(Ax[eq] - b[eq]) > tol).any())


def _incumbent_fault(rows, model: MilpModel, bins, x) -> str | None:
    """The re-check an incumbent must pass before it leaves ``solve_milp``:
    None, or the name of the check ``x`` fails -- the model's ``rows`` and
    bounds (``_check_solution``) or the integrality of its binaries."""
    if not _check_solution(*rows, model.lb, model.ub, x):
        return "independent re-check"
    if bins.size and np.max(np.abs(x[bins] - np.round(x[bins]))) > INT_TOL:
        return "integrality re-check"
    return None


def _farkas_certifies(y, A, rels, b, lo, hi, tol=FEAS_TOL):
    """True if ``y`` or ``-y`` proves ``A x rels b`` has no x in [lo, hi];
    ``rels`` holds the relation strings or their ``_senses``.

    Entries of the wrong sign for their row (negative on a "<=" row,
    positive on a ">=" row) are zeroed, so the combination ``(yA) x <= y b``
    holds for every x that meets the rows.  The proof holds if the least
    ``(yA) x`` over the box still exceeds ``y b`` by ``tol`` per unit of
    ``|y|``.  The zeroing matters: a row whose slack is basic carries only
    round-off in ``y``, of either sign.
    """
    leq, geq, _ = _senses(rels)
    for z in (y, -y):
        z = np.where((leq & (z < 0)) | (geq & (z > 0)), 0.0, z)
        g = z @ A
        pos, neg = g > 0, g < 0
        least = g[pos] @ lo[pos] + g[neg] @ hi[neg]
        if least > z @ b + tol * (1.0 + np.abs(z).sum()):
            return True
    return False


def _parallel_rows(model: MilpModel) -> ParallelRows | None:
    """The first group of rows with identical coefficients whose largest
    lower right-hand side exceeds its smallest upper one by more than
    ``2 FEAS_TOL``, or None.  Past that gap no point passes the independent
    re-check, which lets each row miss by ``FEAS_TOL``; a smaller gap is
    left to the simplex.  Rows are compared as written, without scaling:
    a row's key is the bytes of its COO slice, (column, coefficient) pairs
    in column order, with ``+ 0.0`` folding -0.0 into 0.0."""
    pairs = np.empty(model.col.size, [("col", np.int64), ("val", float)])
    pairs["col"], pairs["val"] = model.col, model.val + 0.0
    data, width = pairs.tobytes(), pairs.itemsize
    ends = np.searchsorted(model.row, np.arange(model.num_constraints) + 1).tolist()
    lower, upper = {}, {}   # key -> (rhs, row) of the tightest bound
    start = 0
    for i, (end, rel, rhs) in enumerate(zip(ends, model.rels.tolist(), model.rhs.tolist())):
        key, start = data[start * width:end * width], end
        if rel != LEQ and (key not in lower or rhs > lower[key][0]):
            lower[key] = (rhs, i)
        if rel != GEQ and (key not in upper or rhs < upper[key][0]):
            upper[key] = (rhs, i)
    for key, (lo, i) in lower.items():
        if key in upper:
            hi, k = upper[key]
            if lo - hi > 2.0 * FEAS_TOL:
                return ParallelRows(i, k, lo, hi)
    return None


def _cold(model: MilpModel):
    """A simplex on ``model``'s continuous relaxation (binaries in [0, 1]),
    solved cold: returns it, the model's objective vector and the status."""
    c, A, rels, b, lb, ub = model.dense()
    sx = _Simplex(-c if model.sense == "max" else c, A, rels, b, lb, ub)
    return sx, c, sx.solve()


def solve_lp(model: MilpModel) -> MilpSolution:
    """Solve the continuous relaxation of ``model`` (binaries in [0, 1])."""
    sx, c, status = _cold(model)
    done = dict(nodes=1, pivots=sx.pivots, refactorizations=sx.refactorizations)
    if status != "optimal":
        return MilpSolution(status=status, **done)
    x = sx.x()
    # hard re-check: never return an uncertified answer
    if not _check_solution(*sx.model_rows, model.lb, model.ub, x):
        raise NumericalBreakdownError("solution failed the independent re-check")
    # objective reported from the model's own coefficients, not the simplex's
    return MilpSolution(status="optimal", x=x, objective=float(c @ x), **done)


# --------------------------------------------------------------------------
# branch and bound
# --------------------------------------------------------------------------

def solve_milp(model: MilpModel, node_budget: int | None = None,
               time_budget: float | None = None, incumbent=None) -> MilpSolution:
    """Depth-first branch-and-bound over the binary variables.

    The search explores until the incumbent is proved optimal (or the
    budget runs out: ``feasible_budget_hit`` with an incumbent,
    ``budget_unknown`` without).  It is proved optimal when no open node is
    left, or as soon as it meets the root LP's bound, which bounds every
    node (Achterberg, *Constraint integer programming*, 2007): with a zero
    objective the first integral point ends the search.

    The root is first checked for two rows with identical coefficients
    whose bounds contradict (``_parallel_rows``): such a pair makes the root
    infeasible with no dense matrix or simplex built and no pivot, and is
    reported as
    ``parallel_rows``.  Otherwise ``incumbent``, a point of the model or
    None, is checked: a point that passes the re-check every returned
    incumbent passes (``_incumbent_fault``) becomes the incumbent, and under
    a zero objective, which bounds every node by 0, it is optimal at once:
    one node, no simplex built, no pivot.  A point that fails the re-check
    is ignored.  Then the root LP is solved cold; every other
    node is re-optimized by the dual simplex from its parent's optimal
    basis.  The nearest-integer child continues on the live simplex at once;
    its sibling waits on the stack as a basis snapshot and, when popped,
    takes over the parked factorization if it is the latest snapshot, else
    is refactorized.  Branching follows the most fractional binary among
    ``model.branch_first``, and the most fractional binary overall once
    those are all integral (lowest index on ties).  Everything is
    deterministic, and every node's LP answer passes the independent
    re-check before it is used.
    """
    first = np.zeros(model.num_vars, bool)
    marked = np.asarray(model.branch_first, dtype=np.intp)
    if marked.size and (marked.min() < 0 or marked.max() >= model.num_vars
                        or not model.binary[marked].all()):
        raise MilpError("branch_first may only list binary variables")
    first[marked] = True
    bins = model.binary_indices
    first = first[bins]
    t0 = time.monotonic()
    sign = 1.0 if model.sense == "max" else -1.0  # internal: maximize sign*obj
    sx = None               # the live simplex, built when the root needs a solve

    best_x, best_obj = None, -np.inf
    kept = False            # best_x is ``incumbent``
    root_bound = np.inf     # the root LP's optimum bounds every node
    nodes = 0
    exhausted = False
    unbounded = False
    parallel = None
    # entries: None for the root, else (snapshot, j, val) = the node the
    # snapshot records with binary j fixed to val; snapshot None means the
    # live simplex's own node, whose entry is always the next one popped
    stack = [None]
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = True
            break
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            exhausted = True
            break
        entry = stack.pop()
        if entry is None:
            parallel = _parallel_rows(model)
            if parallel is not None:
                status = "infeasible"
            else:
                if incumbent is not None:
                    point = np.asarray(incumbent, dtype=float)
                    c, A, rels, b, _, _ = model.dense()
                    rows = (A, _senses(rels), b)
                    if _incumbent_fault(rows, model, bins, point) is None:
                        best_x, best_obj, kept = point, sign * float(c @ point), True
                        if not c.any():
                            nodes += 1
                            break
                sx, c, status = _cold(model)
                rows = sx.model_rows
        else:
            snap, j, val = entry
            if snap is not None:
                sx.restore(snap)
            sx.fix(j, val)
            status = sx.reoptimize()
        nodes += 1
        if status == "infeasible":
            continue
        if status == "unbounded":
            unbounded = True
            break
        x = sx.x()
        if not _check_solution(*sx.model_rows, *sx.bounds(), x):
            raise NumericalBreakdownError("solution failed the independent re-check")
        bound = sign * float(c @ x)
        if entry is None:
            root_bound = bound
        if best_x is not None and bound <= best_obj + OBJ_TOL:
            continue
        xb = x[bins]
        frac = np.abs(xb - xb.round())
        if not bins.size or frac.max() <= INT_TOL:
            # integral: the node LP optimum is the best of the subtree
            if best_x is None or bound > best_obj + OBJ_TOL:
                best_x, best_obj, kept = x, bound, False
                if best_obj >= root_bound - OBJ_TOL:
                    break
            continue
        marked = np.where(first, frac, 0.0)
        k = int((marked if marked.max() > INT_TOL else frac).argmax())
        j = int(bins[k])
        preferred = 1.0 if xb[k] >= 0.5 else 0.0
        stack.append((sx.snapshot(), j, 1.0 - preferred))
        stack.append((None, j, preferred))   # popped next: the live simplex

    done = dict(nodes=nodes)
    if sx is not None:
        done.update(pivots=sx.pivots, refactorizations=sx.refactorizations,
                    farkas_leaves=sx.farkas_leaves)
    if unbounded:
        return MilpSolution(status="unbounded", **done)
    if best_x is None:
        return MilpSolution(status="budget_unknown" if exhausted else "infeasible",
                            parallel_rows=parallel, **done)
    # hard re-check of the incumbent, integrality included
    fault = _incumbent_fault(rows, model, bins, best_x)
    if fault is not None:
        raise NumericalBreakdownError(f"incumbent failed the {fault}")
    status = "feasible_budget_hit" if exhausted else "optimal"
    return MilpSolution(status=status, x=best_x, objective=float(c @ best_x),
                        from_incumbent=kept, **done)


# --------------------------------------------------------------------------
# LP-format dump (debug aid for cross-checking with external solvers)
# --------------------------------------------------------------------------

def _lp_name(name: str, j: int) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not safe or safe[0].isdigit():
        safe = f"v{j}_{safe}"
    return safe


def _lp_terms(pairs, names: list[str]) -> str:
    """``pairs`` of (column, coefficient), in column order, as LP-format terms."""
    parts = []
    for j, a in pairs:
        if a == 0:
            continue
        sign = "-" if a < 0 else ("+" if parts else "")
        parts.append(f"{sign} {abs(a):.17g} {names[j]}".strip())
    return " ".join(parts) if parts else "0 " + names[0]


def write_lp_format(model: MilpModel, path: str):
    names = [_lp_name(name, j) for j, name in enumerate(model.names)]
    lines = [f"\\ {model.name}", "Maximize" if model.sense == "max" else "Minimize",
             " obj: " + _lp_terms(model.obj.items(), names), "Subject To"]
    pairs = list(zip(model.col.tolist(), model.val.tolist()))
    ends = np.searchsorted(model.row, np.arange(model.num_constraints) + 1).tolist()
    for i, (start, end, rel, rhs) in enumerate(zip([0] + ends, ends, model.rels.tolist(),
                                                   model.rhs.tolist())):
        lines.append(f" c{i}: {_lp_terms(pairs[start:end], names)} {rel} {rhs:.17g}")
    lines.append("Bounds")
    for name, lb, ub, binary in zip(names, model.lb.tolist(), model.ub.tolist(),
                                    model.binary.tolist()):
        if not binary:
            hi = "" if np.isinf(ub) else f" <= {ub:.17g}"
            lines.append(f" {lb:.17g} <= {name}{hi}")
    bin_names = [names[j] for j in model.binary_indices]
    if bin_names:
        lines.append("Binaries")
        lines.append(" " + " ".join(bin_names))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
