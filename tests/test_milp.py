"""Simplex + branch-and-bound solver, cross-checked against scipy and
exhaustive enumeration (scipy is an oracle here, never a dependency of the
solver itself)."""

import itertools
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

from monosafe import milp
from monosafe.encode import encode_switched
from monosafe.milp import (_AT_LB, _AT_UB, _BASIC, EQ, FEAS_TOL, GEQ, LEQ, PIVOT_TOL,
                           MilpError, MilpModel, NumericalBreakdownError, _check_solution,
                           _Simplex, solve_lp, solve_milp, write_lp_format)


def small_lp():
    m = MilpModel("small")
    m.add_var("x"); m.add_var("y")
    m.add_constraint({0: 1.0, 1: 1.0}, "<=", 4.0)
    m.add_constraint({0: 1.0, 1: 3.0}, "<=", 6.0)
    m.set_objective({0: 3.0, 1: 2.0}, "max")
    return m


def test_lp_hand_solved():
    sol = solve_lp(small_lp())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(12.0)
    assert np.allclose(sol.x, [4.0, 0.0])


def test_lp_equality_and_geq_rows():
    m = MilpModel()
    m.add_var("x"); m.add_var("y")
    m.add_constraint({0: 1.0, 1: 1.0}, "=", 10.0)
    m.add_constraint({0: 1.0}, ">=", 3.0)
    m.set_objective({0: 2.0, 1: 1.0}, "min")
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [3.0, 7.0])
    assert sol.objective == pytest.approx(13.0)


def test_lp_variable_bounds_both_sides():
    m = MilpModel()
    m.add_var("x", lb=-2.0, ub=5.0)
    m.add_var("y", lb=1.0, ub=3.0)
    m.set_objective({0: -1.0, 1: 1.0}, "max")   # rest at lb/ub without any rows
    sol = solve_lp(m)
    assert np.allclose(sol.x, [-2.0, 3.0])
    assert sol.objective == pytest.approx(5.0)


def test_lp_infeasible_and_unbounded():
    m = MilpModel()
    m.add_var("x", ub=1.0)
    m.add_constraint({0: 1.0}, ">=", 2.0)
    m.set_objective({0: 1.0}, "min")
    assert solve_lp(m).status == "infeasible"

    m2 = MilpModel()
    m2.add_var("x")
    m2.set_objective({0: 1.0}, "max")
    assert solve_lp(m2).status == "unbounded"


def test_model_validation():
    m = MilpModel()
    with pytest.raises(MilpError):
        m.add_var("x", lb=-np.inf)
    m.add_var("x")
    with pytest.raises(MilpError):
        m.add_constraint({0: 1.0}, "<", 1.0)
    with pytest.raises(MilpError):
        m.add_constraint({5: 1.0}, "<=", 1.0)
    with pytest.raises(MilpError):
        m.add_constraint({-1: 1.0}, "<=", 1.0)
    with pytest.raises(MilpError):
        m.set_objective({5: 1.0}, "max")
    assert (m.num_constraints, m.row.size, m.obj, m.sense) == (0, 0, {}, "min")


def _contents(m):
    """Everything a model holds, as plain values."""
    arrays = (m.lb, m.ub, m.binary, m.row, m.col, m.val, m.rels, m.rhs)
    return (list(m.names), [a.tolist() for a in arrays], [a.dtype for a in arrays],
            dict(m.obj), m.sense)


def test_rejected_appends_leave_the_model_unchanged():
    """A block with one bad item among good ones is refused whole: a bad
    relation, a negative or out-of-range column, an entry outside the
    block's rows, a column listed twice in a row, or a bad bound."""
    m = small_lp()
    m.add_var("b", binary=True)
    before = _contents(m)
    bad_rows = [
        ([0, 1], [0, 1], [1.0, 1.0], [LEQ, "<"], [1.0, 2.0]),
        ([0, 1], [0, -1], [1.0, 1.0], LEQ, [1.0, 2.0]),
        ([0, 1], [0, 3], [1.0, 1.0], LEQ, [1.0, 2.0]),
        ([0, 2], [0, 1], [1.0, 1.0], GEQ, [1.0, 2.0]),
        ([0, 0, 1], [2, 2, 1], [1.0, 1.0, 1.0], EQ, [1.0, 2.0]),
    ]
    for block in bad_rows:
        with pytest.raises(MilpError):
            m.add_rows(*block)
        assert _contents(m) == before, block
    for coeffs, rel in (({0: 1.0}, "<"), ({-1: 1.0}, LEQ), ({3: 1.0}, LEQ)):
        with pytest.raises(MilpError):
            m.add_constraint(coeffs, rel, 1.0)
        assert _contents(m) == before, coeffs
    for lb, ub in (([0.0, -np.inf], 1.0), ([0.0, 2.0], [1.0, 1.0])):
        with pytest.raises(MilpError):
            m.add_vars(["p", "q"], lb, ub)
        assert _contents(m) == before, (lb, ub)
    with pytest.raises(MilpError):
        m.set_objective({3: 1.0}, "max")
    assert _contents(m) == before
    assert list(m.add_rows([0, 1, 1], [2, 1, 0], [1.0, 3.0, -1.0], [LEQ, GEQ], [1.0, 0.0])) \
        == [2, 3]
    assert (m.row[-3:].tolist(), m.col[-3:].tolist(), m.val[-3:].tolist()) == \
        ([2, 3, 3], [2, 0, 1], [1.0, -1.0, 3.0])


def test_beale_degenerate_instance():
    """Classical cycling example; plain Dantzig pricing loops forever on it."""
    m = MilpModel("beale")
    for nm in ("x1", "x2", "x3", "x4"):
        m.add_var(nm)
    m.add_constraint({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0)
    m.add_constraint({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0)
    m.add_constraint({2: 1.0}, "<=", 1.0)
    m.set_objective({0: 0.75, 1: -150.0, 2: 0.02, 3: -6.0}, "max")
    sol = solve_lp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.05, abs=1e-9)


def _scipy_reference(c, A, rels, b, lb, ub, sense):
    c_s = -c if sense == "max" else c
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, r in enumerate(rels):
        if r == "<=":
            A_ub.append(A[i]); b_ub.append(b[i])
        elif r == ">=":
            A_ub.append(-A[i]); b_ub.append(-b[i])
        else:
            A_eq.append(A[i]); b_eq.append(b[i])
    return linprog(c_s, A_ub=np.array(A_ub) if A_ub else None,
                   b_ub=np.array(b_ub) if b_ub else None,
                   A_eq=np.array(A_eq) if A_eq else None,
                   b_eq=np.array(b_eq) if b_eq else None,
                   bounds=list(zip(lb, ub)), method="highs")


def test_lp_agrees_with_scipy_randomized():
    rng = np.random.default_rng(7)
    outcomes = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for k in range(80):
        n = rng.integers(1, 9)
        m_rows = rng.integers(0, 13)
        mdl = MilpModel(f"r{k}")
        lb = rng.uniform(-5, 1, n).round(2)
        ub = lb + rng.uniform(0, 12, n).round(2)
        ub = np.where(rng.random(n) < 0.25, np.inf, ub)
        for j in range(n):
            mdl.add_var(f"x{j}", lb=lb[j], ub=ub[j])
        A = np.where(rng.random((m_rows, n)) < 0.4,
                     rng.uniform(-4, 4, (m_rows, n)).round(2), 0.0)
        rels = rng.choice(["<=", ">=", "="], m_rows, p=[0.6, 0.3, 0.1])
        x0 = np.where(np.isfinite(ub), (lb + ub) / 2, lb + 1.0)
        b = A @ x0 + rng.uniform(-2, 4, m_rows).round(2)
        for i in range(m_rows):
            mdl.add_constraint({j: A[i, j] for j in range(n) if A[i, j]}, rels[i], b[i])
        c = rng.uniform(-3, 3, n).round(2)
        sense = "max" if rng.random() < 0.5 else "min"
        mdl.set_objective({j: c[j] for j in range(n)}, sense)

        ref = _scipy_reference(c, A, rels, b, lb, ub, sense)
        sol = solve_lp(mdl)
        if ref.status == 2:
            assert sol.status == "infeasible", k
        elif ref.status == 3:
            assert sol.status == "unbounded", k
        elif ref.status == 0:
            ref_obj = -ref.fun if sense == "max" else ref.fun
            assert sol.status == "optimal", (k, sol.status)
            assert abs(sol.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj)), k
        outcomes[sol.status] += 1
    # the generator must actually exercise all three outcomes
    assert min(outcomes.values()) > 0


def _enumerate_oracle(mdl, nb):
    best = None
    for bits in itertools.product([0.0, 1.0], repeat=nb):
        lb, ub = mdl.lb.copy(), mdl.ub.copy()
        lb[:nb] = ub[:nb] = bits
        sub = MilpModel("sub")
        sub.add_vars(mdl.names, lb, ub)
        sub.add_rows(mdl.row, mdl.col, mdl.val, mdl.rels, mdl.rhs)
        sub.set_objective(mdl.obj, mdl.sense)
        s = solve_lp(sub)
        if s.status == "optimal":
            best = s.objective if best is None else max(best, s.objective)
    return best


def _random_milp(rng, k, max_binaries=8, model=MilpModel):
    nb = int(rng.integers(0, max_binaries + 1))
    nc = int(rng.integers(1, 7))
    m_rows = int(rng.integers(1, 9))
    mdl = model(f"m{k}")
    for j in range(nb):
        mdl.add_var(f"b{j}", binary=True)
    for j in range(nc):
        mdl.add_var(f"x{j}", lb=0.0, ub=round(float(rng.uniform(1, 8)), 2))
    n = nb + nc
    A = np.where(rng.random((m_rows, n)) < 0.5,
                 rng.uniform(-3, 3, (m_rows, n)).round(2), 0.0)
    x0 = np.concatenate([rng.random(nb).round(0), rng.uniform(0, 1, nc).round(2)])
    b = A @ x0 + rng.uniform(0, 3, m_rows).round(2)
    rels = rng.choice(["<=", ">="], m_rows, p=[0.75, 0.25])
    for i in range(m_rows):
        mdl.add_constraint({j: A[i, j] for j in range(n) if A[i, j]}, rels[i], b[i])
    c = rng.uniform(-3, 3, n).round(2)
    mdl.set_objective({j: c[j] for j in range(n)}, "max")
    return mdl, nb


def test_milp_matches_enumeration_randomized():
    rng = np.random.default_rng(13)
    agree = 0
    for k in range(50):
        mdl, nb = _random_milp(rng, k)
        want = _enumerate_oracle(mdl, nb)
        got = solve_milp(mdl)
        if want is None:
            assert got.status == "infeasible", k
        else:
            assert got.status == "optimal", (k, got.status)
            assert abs(got.objective - want) <= 1e-6 * (1 + abs(want)), k
            # incumbent must satisfy every row and be integral on binaries
            for j in mdl.binary_indices:
                assert abs(got.x[j] - round(got.x[j])) <= 1e-6
            agree += 1
    assert agree >= 25


def _with_bounds(mdl, bounds, objective=None, rels=None):
    """Copy of ``mdl`` with ``bounds`` {j: (lb, ub)}, and optionally a new
    objective or new relations."""
    lb, ub, binary = mdl.lb.copy(), mdl.ub.copy(), mdl.binary.copy()
    for j, (lo, hi) in bounds.items():
        lb[j], ub[j], binary[j] = lo, hi, False
    sub = MilpModel(mdl.name)
    sub.add_vars(mdl.names, lb, ub, binary)
    sub.add_rows(mdl.row, mdl.col, mdl.val, mdl.rels if rels is None else rels, mdl.rhs)
    sub.set_objective(mdl.obj if objective is None else objective, mdl.sense)
    return sub


def _row_dicts(mdl):
    """Each row of ``mdl`` as ``{column: coefficient}``."""
    return [dict(zip(mdl.col[mdl.row == i].tolist(), mdl.val[mdl.row == i].tolist()))
            for i in range(mdl.num_constraints)]


def _with_duplicate_eq(mdl):
    """``mdl`` with its first row made an equation and a copy of that row
    appended, and the same model without the copy."""
    rels = mdl.rels.copy()
    rels[0] = EQ
    plain = _with_bounds(mdl, {}, rels=rels)
    dup = _with_bounds(plain, {})
    dup.add_constraint(_row_dicts(plain)[0], EQ, plain.rhs[0])
    return dup, plain


class _DictRows(MilpModel):
    """A model that also keeps its columns, rows and objective as the
    dict-per-row storage did, and builds the dense matrices from them."""

    def __init__(self, name="model"):
        super().__init__(name)
        self.ref_vars, self.ref_rows, self.ref_obj = [], [], {}

    def add_var(self, name, lb=0.0, ub=np.inf, binary=False):
        self.ref_vars.append((0.0, 1.0) if binary else (float(lb), float(ub)))
        return super().add_var(name, lb, ub, binary)

    def add_constraint(self, coeffs, rel, rhs):
        self.ref_rows.append(({int(j): float(a) for j, a in dict(coeffs).items()},
                              rel, float(rhs)))
        return super().add_constraint(coeffs, rel, rhs)

    def set_objective(self, coeffs, sense="min"):
        super().set_objective(coeffs, sense)
        self.ref_obj = {int(j): float(a) for j, a in dict(coeffs).items()}

    def ref_dense(self):
        A = np.zeros((len(self.ref_rows), len(self.ref_vars)))
        for i, (row, _, _) in enumerate(self.ref_rows):
            for j, a in row.items():
                A[i, j] = a
        c = np.zeros(len(self.ref_vars))
        for j, a in self.ref_obj.items():
            c[j] = a
        lb, ub = (np.array(v, dtype=float).reshape(-1) for v in zip(*self.ref_vars))
        return (c, A, np.array([r[1] for r in self.ref_rows]),
                np.array([r[2] for r in self.ref_rows], dtype=float), lb, ub)

    def ref_parallel_rows(self):
        """``_parallel_rows`` as it grouped rows by ``frozenset(row.items())``."""
        lower, upper = {}, {}
        for i, (row, rel, rhs) in enumerate(self.ref_rows):
            key = frozenset(row.items())
            if rel != LEQ and (key not in lower or rhs > lower[key][0]):
                lower[key] = (rhs, i)
            if rel != GEQ and (key not in upper or rhs < upper[key][0]):
                upper[key] = (rhs, i)
        for key, (lo, i) in lower.items():
            if key in upper:
                hi, k = upper[key]
                if lo - hi > 2.0 * FEAS_TOL:
                    return milp.ParallelRows(i, k, lo, hi)
        return None


def _twin_rows_model(rng, k):
    """Rows over few columns and few coefficients, with explicit zeros of
    either sign, so that rows often repeat up to the order of their terms,
    the sign of a zero, or an explicit zero; relations and right-hand sides
    drawn so that groups often contradict, and rows often tie."""
    n = int(rng.integers(1, 5))
    mdl = _DictRows(f"t{k}")
    for j in range(n):
        mdl.add_var(f"x{j}", ub=3.0, binary=bool(rng.random() < 0.3))
    rows = []
    for _ in range(int(rng.integers(1, 13))):
        if rows and rng.random() < 0.6:
            row = dict(rows[int(rng.integers(len(rows)))])
            if row and rng.random() < 0.5:
                j = list(row)[int(rng.integers(len(row)))]
                row[j] = {0.0: -0.0, -0.0: 0.0}.get(row[j], row[j])
            items = list(row.items())
            rng.shuffle(items)
            row = dict(items)
        else:
            cols = rng.permutation(n)[:int(rng.integers(0, n + 1))]
            row = {int(j): float(rng.choice([1.0, -1.0, 2.0, 0.0, -0.0])) for j in cols}
        rows.append(row)
        mdl.add_constraint(row, str(rng.choice([LEQ, GEQ, EQ])), float(rng.integers(-2, 3)))
    mdl.set_objective({j: 1.0 for j in range(n)}, "max")
    return mdl


def test_dense_matches_dict_rows():
    """``dense`` scatters the COO entries into the matrix the dict-per-row
    storage built, bit for bit (the sign of a zero included), on random
    models and on models with explicit zeros of either sign."""
    rng = np.random.default_rng(53)
    signed_zeros = 0
    for k in range(200):
        mdl = _random_milp(rng, k, model=_DictRows)[0] if k % 2 else _twin_rows_model(rng, k)
        dense = mdl.dense()
        for got, want in zip(dense, mdl.ref_dense()):
            assert got.shape == want.shape and got.dtype.kind == want.dtype.kind, k
            assert np.array_equal(got, want), k
            if got.dtype.kind == "f":
                assert np.array_equal(np.signbit(got), np.signbit(want)), k
        signed_zeros += int(np.any(np.signbit(dense[1]) & (dense[1] == 0)))
    assert signed_zeros >= 10, signed_zeros


def test_parallel_rows_match_frozenset_groups():
    """Grouping rows by the bytes of their COO slices names the pair that
    grouping by ``frozenset(row.items())`` named: -0.0 equals 0.0, an
    explicit zero is a term, and ties go to the first row."""
    rng = np.random.default_rng(59)
    named = 0
    for k in range(400):
        mdl = _twin_rows_model(rng, k)
        want = mdl.ref_parallel_rows()
        assert milp._parallel_rows(mdl) == want, k
        named += want is not None
    assert 40 <= named <= 360, named


def test_warm_children_match_cold_lp():
    """Fixing a binary at the root's optimal basis and running the dual
    simplex gives the child's cold LP status and objective.  A fractional
    binary is fixed to 0 on the live simplex and to 1 on one refactorized
    from a basis snapshot, as branch-and-bound does; an integral one (at a
    bound, or basic and degenerate) is moved to its other value.  Each model
    is also solved with a duplicated equation, whose redundant row keeps an
    artificial basic at 0 through ``fix``, ``reoptimize`` and ``restore``;
    its reference is the child without the copy."""
    rng = np.random.default_rng(23)
    seen = {"optimal": 0, "infeasible": 0, "duplicated": 0}
    for k in range(120):
        mdl, nb = _random_milp(rng, k)
        for model, ref_model in [(mdl, mdl), _with_duplicate_eq(mdl)]:
            c, A, rels, b, lb, ub = model.dense()
            sx = _Simplex(-c, A, rels, b, lb, ub)          # the models maximize
            if sx.solve() != "optimal" or nb == 0:
                continue
            xb = sx.x()[:nb]
            frac = np.abs(xb - np.round(xb))
            if frac.max() <= 1e-6:
                continue
            j = int(np.argmax(frac))
            children = [(j, 0.0), (j, 1.0)]
            children += [(i, 1.0 - round(xb[i])) for i in np.flatnonzero(frac <= 1e-6)[:1]]
            snap = sx.snapshot()
            for n, (j, val) in enumerate(children):
                if n:
                    sx.restore(tuple(a.copy() for a in snap))
                if model is not ref_model:
                    assert np.any(sx.basis >= sx.art_start), (k, j, val)
                    seen["duplicated"] += 1
                sx.fix(j, val)
                status = sx.reoptimize()
                ref = solve_lp(_with_bounds(ref_model, {j: (val, val)}))
                assert status == ref.status, (k, j, val, status, ref.status)
                if status == "optimal":
                    x = sx.x()
                    assert abs(x[j] - val) <= 1e-9, (k, j, val)
                    assert _check_solution(A, rels, b, *sx.bounds(), x), (k, j, val)
                    assert abs(float(c @ x) - ref.objective) \
                        <= 1e-6 * (1 + abs(ref.objective)), (k, j, val)
                seen[status] += 1
    assert seen["optimal"] >= 30 and seen["infeasible"] >= 5 \
        and seen["duplicated"] >= 30, seen


def test_first_feasible_zero_objective_matches_enumeration():
    """With a zero objective every basis is dual degenerate, the case of the
    traffic feasibility searches.  The answer must be a point exactly when
    enumeration finds one, and it is ``optimal``: the first integral point
    meets the root bound, 0."""
    rng = np.random.default_rng(29)
    found = infeasible = 0
    for k in range(60):
        mdl, nb = _random_milp(rng, k)
        mdl = _with_bounds(mdl, {}, objective={})
        want = _enumerate_oracle(mdl, nb)
        got = solve_milp(mdl)
        if want is None:
            assert got.status == "infeasible", (k, got.status)
            infeasible += 1
            continue
        assert got.status == "optimal", (k, got.status)
        _, A, rels, b, lb, ub = mdl.dense()
        assert _check_solution(A, rels, b, lb, ub, got.x), k
        for j in mdl.binary_indices:
            assert abs(got.x[j] - round(got.x[j])) <= 1e-6, (k, j)
        found += 1
    assert found >= 20 and infeasible >= 10, (found, infeasible)


@pytest.mark.parametrize("rel", [GEQ, LEQ])
@pytest.mark.parametrize("shift", [0.0, FEAS_TOL, -FEAS_TOL, 3 * FEAS_TOL, -3 * FEAS_TOL,
                                   1.0, -1.0])
def test_parallel_rows_never_change_a_status(rel, shift, monkeypatch):
    """A model's first row copied with relation ``rel``, its right-hand side
    moved by ``shift``, and the original row given the other relation.  The
    status is the one the simplex finds with the check switched off.  A gap
    ``lo - hi`` over ``2 FEAS_TOL`` closes the root with no pivot and names
    the pair; a smaller one is left to the simplex, which then runs as if
    the check did not exist."""
    rng = np.random.default_rng(37)
    gap = shift if rel == GEQ else -shift
    used = pivoted = 0
    for k in range(30):
        mdl, _ = _random_milp(rng, k)
        model = _with_bounds(mdl, {})
        rows = _row_dicts(model)
        # the copy must be the first row's only twin
        if not rows[0] or rows.count(rows[0]) > 1 or \
                milp._parallel_rows(model) is not None:
            continue
        rels = model.rels.copy()
        rels[0] = LEQ if rel == GEQ else GEQ
        model = _with_bounds(model, {}, rels=rels)
        model.add_constraint(rows[0], rel, model.rhs[0] + shift)
        got = solve_milp(model)
        with monkeypatch.context() as patch:
            patch.setattr(milp, "_parallel_rows", lambda model: None)
            ref = solve_milp(model)
        assert got.status == ref.status, (k, got.status, ref.status)
        if gap > 2 * FEAS_TOL:
            copy = model.num_constraints - 1
            assert got.parallel_rows[:2] == ((copy, 0) if rel == GEQ else (0, copy)), k
            assert (got.nodes, got.pivots, got.refactorizations) == (1, 0, 0), k
        else:
            # a simplex was built (its first factorization counts) and ran
            # exactly as without the check
            assert got.parallel_rows is None and got.refactorizations > 0, k
            assert (got.nodes, got.pivots, got.refactorizations) == \
                (ref.nodes, ref.pivots, ref.refactorizations), k
            assert (got.x is None) == (ref.x is None), k
            assert got.x is None or np.array_equal(got.x, ref.x), k
            pivoted += got.pivots > 0
        used += 1
    assert used >= 20
    if gap <= 2 * FEAS_TOL:
        # the simplex ran; a model whose first basis already decides it makes no pivot
        assert pivoted >= used - 3, (pivoted, used)


def test_parallel_rows_group_rows_by_exact_coefficients():
    """Rows pair only when every coefficient is equal; the largest lower and
    the smallest upper right-hand side of a group are compared, and an
    equation bounds its group from both sides."""
    m = MilpModel("groups")
    m.add_var("x", ub=10.0); m.add_var("y", ub=10.0)
    m.add_constraint({0: 1.0, 1: 1.0}, LEQ, 5.0)
    m.add_constraint({0: 1.0, 1: 2.0}, GEQ, 9.0)       # other coefficients: no pair
    m.add_constraint({1: 1.0, 0: 1.0}, GEQ, 4.0)
    assert milp._parallel_rows(m) is None
    m.add_constraint({0: 1.0, 1: 1.0}, LEQ, 3.0)
    m.add_constraint({0: 1.0, 1: 1.0}, EQ, 4.5)
    assert milp._parallel_rows(m) == milp.ParallelRows(4, 3, 4.5, 3.0)
    sol = solve_milp(m)
    assert sol.status == "infeasible" and sol.parallel_rows == (4, 3, 4.5, 3.0)


def test_parallel_rows_respect_the_budgets():
    """The check runs where the root is popped: a zero budget stops before
    it, with no node and no pair."""
    m = MilpModel("budget")
    m.add_var("b", binary=True)
    m.add_constraint({0: 1.0}, GEQ, 1.0)
    m.add_constraint({0: 1.0}, LEQ, 0.0)
    for budget in (dict(node_budget=0), dict(time_budget=0.0)):
        sol = solve_milp(m, **budget)
        assert (sol.status, sol.nodes, sol.parallel_rows) == ("budget_unknown", 0, None)
    sol = solve_milp(m, node_budget=1)
    assert (sol.status, sol.nodes, sol.pivots) == ("infeasible", 1, 0)


def test_dense_model_built_only_for_a_root_simplex(monkeypatch):
    """The dense matrices feed the root's simplex and nothing else: a root
    that parallel rows close, or a zero budget, never builds them."""
    calls = []
    dense = MilpModel.dense
    monkeypatch.setattr(MilpModel, "dense", lambda self: calls.append(1) or dense(self))
    m = MilpModel("closed")
    m.add_var("b", binary=True)
    m.add_constraint({0: 1.0}, GEQ, 1.0)
    m.add_constraint({0: 1.0}, LEQ, 0.0)
    assert solve_milp(m).status == "infeasible"
    assert solve_milp(small_lp(), node_budget=0).status == "budget_unknown"
    assert len(calls) == 0
    assert solve_milp(small_lp()).status == "optimal"
    assert len(calls) == 1


def test_search_stops_when_incumbent_meets_root_bound():
    """max y with y <= 2b: the root LP stops at b = 0.5, y = 1.  The child
    b = 1 is integral with y = 1, the root bound, so the search ends there
    and the sibling b = 0 is never solved: 2 nodes, not 3."""
    m = MilpModel("stop")
    m.add_var("b", binary=True)
    m.add_var("y", ub=1.0)
    m.add_constraint({1: 1.0, 0: -2.0}, "<=", 0.0)
    m.set_objective({1: 1.0}, "max")
    assert np.allclose(solve_lp(m).x, [0.5, 1.0])
    sol = solve_milp(m)
    assert (sol.status, sol.nodes) == ("optimal", 2)
    assert np.allclose(sol.x, [1.0, 1.0])


def test_branch_first_binaries_split_first():
    """The root LP has b0 = 0.5 and b1 = 0.1, and no b1 in {0, 1} is
    feasible.  Splitting the marked b1 first closes the search in 3 nodes;
    the most fractional rule splits b0 first and needs 5."""
    def model(marks):
        m = MilpModel()
        m.add_var("b0", binary=True)
        m.add_var("b1", binary=True)
        m.add_constraint({1: 1.0}, ">=", 0.1)
        m.add_constraint({1: 1.0}, "<=", 0.9)
        m.add_constraint({0: 1.0, 1: 1.0}, "<=", 0.6)
        m.set_objective({0: 2.0, 1: 1.0}, "max")
        m.branch_first = marks
        return m

    assert np.allclose(solve_lp(model([])).x, [0.5, 0.1])
    marked, plain = solve_milp(model([1])), solve_milp(model([]))
    assert (marked.status, marked.nodes) == ("infeasible", 3)
    assert (plain.status, plain.nodes) == ("infeasible", 5)
    m = model([1])
    m.add_var("x")
    m.branch_first = [2]
    with pytest.raises(MilpError):
        solve_milp(m)


def test_traffic_nodes_are_warm_started(deep_traffic_model):
    """A cold solve of a traffic T=2 node takes about 67 pivots; warm
    children take a few, so a silent fallback to cold solves shows here.
    Refactorizations happen at optimal verdicts and at sibling restores
    whose factorization is not parked, fewer than one per node, so
    refreshing per pivot shows here too.  The model has no count rows,
    which would close it at the root."""
    sol = solve_milp(deep_traffic_model(2))
    assert sol.status == "infeasible"
    assert sol.nodes > 1 and 0 < sol.pivots < 20 * sol.nodes, (sol.nodes, sol.pivots)
    assert 0 < sol.refactorizations <= 2 * sol.nodes, (sol.nodes, sol.refactorizations)


def _rows_lp(rng, dup_eq):
    """The data of a feasible LP with LEQ, GEQ and EQ rows (shifted rhs of
    either sign, so artificials of both signs start basic), two binaries and
    a mix of finite and infinite upper bounds; ``dup_eq`` puts a copy of its
    first EQ row on top, and the artificial of one of the two stays basic at
    0 through phase 2."""
    m, n = int(rng.integers(4, 9)), int(rng.integers(4, 9))
    A = np.where(rng.random((m, n)) < 0.7, rng.uniform(-3, 3, (m, n)).round(2), 0.0)
    rels = [LEQ, GEQ, EQ] + list(rng.choice([LEQ, GEQ, EQ], m - 3))
    lb = rng.uniform(-2, 1, n).round(1)
    lb[:2] = 0.0
    ub = np.where(rng.random(n) < 0.5, lb + rng.uniform(1, 4, n).round(1), np.inf)
    ub[:2] = 1.0
    x0 = lb + rng.uniform(0, 1, n) * np.where(np.isfinite(ub), ub - lb, 1.0)
    gap = rng.uniform(0, 2, m)
    b = A @ x0 + np.select([np.array(rels) == LEQ, np.array(rels) == GEQ], [gap, -gap], 0.0)
    if dup_eq:
        i = rels.index(EQ)
        A, b, rels = np.vstack([A[i], A]), np.append(b[i], b), [EQ] + rels
    return rng.uniform(-3, 3, n).round(2), A, rels, b, lb, ub


def _pivot_randomly(sx, rng, count):
    """``count`` basis exchanges on entries of a usable size, read through
    ``_row``; the leaving variable goes to its lower bound and ``v`` follows
    the entering column, as in a pivot."""
    for _ in range(count):
        tab = np.array([sx._row(i) for i in range(sx.basis.size)])
        movable = (sx.status != _BASIC) & (np.arange(sx.N) < sx.art_start)
        rows, cols = np.nonzero((np.abs(tab) > 0.1) & movable)
        if not rows.size:
            return
        k = int(rng.integers(rows.size))
        i, j = int(rows[k]), int(cols[k])
        col = sx._col(j)
        theta = sx.v[i] / col[i]
        x_j = sx.U[j] if sx.status[j] == _AT_UB else 0.0
        sx.v = sx.v - theta * col
        sx.v[i] = x_j + theta
        sx.status[sx.basis[i]] = _AT_LB
        sx._pivot(i, j, col)


def _kernel_states(seed):
    """Simplex states with 1 to 5 random pivots pending since the last
    refactorization: in phase 1 with artificials basic; after the cold solve
    (a quarter of the models have a duplicated EQ row, so a redundant row's
    artificial is basic at 0); after a binary is fixed; and after the dual
    simplex has re-optimized."""
    rng = np.random.default_rng(seed)
    lps = [_rows_lp(np.random.default_rng([seed, k]), k % 4 == 0) for k in range(80)]
    for lp in lps:
        sx = _Simplex(*lp)
        _pivot_randomly(sx, rng, int(rng.integers(1, 6)))
        yield sx, "phase1"
    for k, lp in enumerate(lps):
        sx = _Simplex(*lp)
        if sx.solve() != "optimal":       # unbounded: some upper bounds are infinite
            continue
        if k % 4 == 0:
            arts = np.flatnonzero(sx.basis >= sx.art_start)
            assert arts.size and np.abs(sx.v[arts]).max() <= 1e-9, k
        _pivot_randomly(sx, rng, int(rng.integers(1, 6)))
        yield sx, "redundant" if k % 4 == 0 else "phase2"
        sx.fix(int(rng.integers(2)), float(rng.integers(2)))
        yield sx, "fixed"
        if sx.reoptimize() == "optimal":
            _pivot_randomly(sx, rng, int(rng.integers(1, 6)))
            yield sx, "reoptimized"


def _assert_matches_dense_inverse(sx, case):
    """``_col``, ``_row`` and ``v`` equal what ``inv(A_ext[:, basis])`` gives."""
    B_inv = np.linalg.inv(sx.A_ext[:, sx.basis])
    want = B_inv @ sx.A_ext
    at_ub = sx.status == _AT_UB
    rhs = sx.b_eff - sx.A_ext[:, at_ub] @ sx.U[at_ub]
    rows = np.array([sx._row(i) for i in range(sx.basis.size)])
    cols = np.array([sx._col(j) for j in range(sx.N)]).T
    assert np.abs(rows - want).max() <= 1e-9, case
    assert np.abs(cols - want).max() <= 1e-9, case
    assert np.abs(sx.v - B_inv @ rhs).max() <= 1e-9, case


def test_eta_file_matches_dense_inverse():
    """With pivots pending in the eta file, the column and row queries and
    the basic values equal a dense inverse of the whole basis, in every
    state of ``_kernel_states``."""
    seen = {"phase1": 0, "redundant": 0, "phase2": 0, "fixed": 0, "reoptimized": 0}
    for sx, case in _kernel_states(37):
        if sx._etas:
            _assert_matches_dense_inverse(sx, case)
            seen[case] += 1
    assert min(seen.values()) >= 10, seen


def test_block_refresh_matches_dense_inverse():
    """Right after a refactorization (no etas) the structural-block solves
    equal a dense inverse of the whole basis, with artificial and surplus
    unit columns basic among the checked states."""
    seen = {"phase1": 0, "redundant": 0, "phase2": 0, "fixed": 0, "reoptimized": 0,
            "artificial": 0, "surplus": 0}
    for sx, case in _kernel_states(31):
        sx._refresh()
        assert not sx._etas
        _assert_matches_dense_inverse(sx, case)
        units = sx.basis[sx.basis >= sx.n]
        seen["artificial"] += int(np.any(units >= sx.art_start))
        seen["surplus"] += int(np.any(sx.A_ext[:, units].sum(axis=0) < 0))
        seen[case] += 1
    assert min(seen.values()) >= 10, seen


def test_kept_loop_arrays_match_recomputation(monkeypatch, case1):
    """After every pivot of the primal loop (``_optimize``) or the dual
    loop (``reoptimize``), the spans and entering directions that loop
    keeps between pivots equal a recomputation from the basis, the bound
    status and the spans.  A pivot updates them in the two entries it
    changes; a missed or wrong update would otherwise show only as a moved
    pin.  Checked on the states of ``_kernel_states`` and through the
    case-1 T=6 proof."""
    checked = {"_optimize": 0, "reoptimize": 0}
    pivot = _Simplex._pivot

    def checking(sx, row, j, col):
        pivot(sx, row, j, col)
        loop = sys._getframe(1)
        name = loop.f_code.co_name
        if name not in checked:
            return      # a test's own basis exchange
        spans, dirs = loop.f_locals["spans"], loop.f_locals["dirs"]
        assert np.array_equal(spans, sx.U[sx.basis]), name
        room = sx.U > PIVOT_TOL
        if name == "_optimize":
            # the primal loop also lets a variable at its upper bound enter
            room |= sx.status == _AT_UB
        movable = (sx.status != _BASIC) & room
        assert np.array_equal(dirs != 0, movable), name
        sign = np.where(sx.status == _AT_UB, -1.0, 1.0)
        assert np.array_equal(dirs[movable], sign[movable]), name
        checked[name] += 1

    monkeypatch.setattr(_Simplex, "_pivot", checking)
    for _ in _kernel_states(53):
        pass
    assert min(checked.values()) >= 100, checked
    checked.update(_optimize=0, reoptimize=0)
    sys_, S, _ = case1
    sol = solve_milp(encode_switched(sys_, S, 6, objective="max_l1_x0").model)
    assert sol.status == "infeasible" and sol.pivots == 561
    assert checked["_optimize"] + checked["reoptimize"] == sol.pivots, checked
    assert checked["reoptimize"] >= 500, checked


def test_refresh_refuses_singular_bases():
    """Two basic unit columns on one row, or a singular structural block,
    raise, and the refused refresh leaves the factorization and ``v`` as
    they were."""
    # rows: x0 + x1 <= 4 (slack column 2), x0 + x1 >= 1 (surplus 3, artificial 4)
    sx = _Simplex(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), [LEQ, GEQ],
                  np.array([4.0, 1.0]), np.zeros(2), np.full(2, np.inf))
    assert list(sx.basis) == [2, 4]
    factor, v = sx._factor, sx.v
    sx.basis[0] = 3                    # surplus and artificial both on row 1
    with pytest.raises(NumericalBreakdownError, match="singular basis"):
        sx._refresh()
    sx.basis[:] = [0, 1]               # identical structural columns
    with pytest.raises(NumericalBreakdownError, match="singular basis"):
        sx._refresh()
    assert sx._factor is factor and sx.v is v


def test_restore_from_parked_factor_is_bit_identical():
    """Restoring the latest snapshot, taken with an empty eta file, loads
    the parked factorization: no refactorization is counted, and ``v`` and
    every factor array equal those of a fresh ``_refresh`` bit for bit.  A
    restore of any other snapshot refactorizes."""
    rng = np.random.default_rng(47)
    parked = 0
    for k in range(120):
        mdl, nb = _random_milp(rng, k)
        c, A, rels, b, lb, ub = mdl.dense()
        sx = _Simplex(-c, A, rels, b, lb, ub)
        if sx.solve() != "optimal" or nb == 0:
            continue
        older = sx.snapshot()
        snap = sx.snapshot()
        assert not sx._etas and sx._parked[0] is snap[0]
        j = int(rng.integers(nb))
        sx.fix(j, 1.0 - float(np.round(sx.x()[j])))
        sx.reoptimize()
        count = sx.refactorizations
        sx.restore(snap)
        assert sx.refactorizations == count and sx._parked is None, k
        factor, v = sx._factor, sx.v
        sx._refresh()
        assert np.array_equal(sx.v, v), k
        assert all(np.array_equal(a, b) for a, b in zip(sx._factor, factor)), k
        parked += 1
        latest = sx.snapshot()
        count = sx.refactorizations
        sx.restore(tuple(a.copy() for a in latest))    # a copy is not the parked snapshot
        sx.snapshot()
        sx.restore(older)                               # nor is an older one
        assert sx.refactorizations == count + 2, k
    assert parked >= 30, parked


def test_farkas_rows_of_infeasible_leaves_are_checked(monkeypatch):
    """Every infeasible leaf the dual simplex closes without refactorizing
    passes ``_farkas_certifies`` with its leaving row of ``inv(B)``; a cold
    solve of the leaf's box agrees that it is infeasible, and the same row
    is rejected over the root's box when the root LP is feasible."""
    calls = []
    certifies = milp._farkas_certifies

    def recording(y, A, rels, b, lo, hi):
        ok = certifies(y, A, rels, b, lo, hi)
        calls.append((y.copy(), lo.copy(), hi.copy(), ok))
        return ok

    monkeypatch.setattr(milp, "_farkas_certifies", recording)
    rng = np.random.default_rng(41)
    checked = rejected = 0
    for k in range(150):
        mdl, _ = _random_milp(rng, k)
        for model in (mdl, _with_duplicate_eq(mdl)[0]):
            calls.clear()
            sol = solve_milp(model)
            assert sol.farkas_leaves == len(calls), k
            c, A, rels, b, lb, ub = model.dense()
            rels = np.asarray(rels)
            root_feasible = solve_lp(model).status == "optimal"
            for y, lo, hi, ok in calls:
                assert ok, k
                leaf = _with_bounds(model, {j: (lo[j], hi[j]) for j in range(lo.size)})
                assert solve_lp(leaf).status == "infeasible", k
                if root_feasible:
                    assert not certifies(y, A, rels, b, lb, ub), k
                    rejected += 1
                checked += 1
    assert checked >= 40 and rejected >= 20, (checked, rejected)


def test_farkas_check_zeroes_wrong_signs():
    """On x in [0, 1]: the rows x >= 0.8 and x <= 0.2 are proved empty by
    y = (-1, 1) in either orientation; flipping the sign of one entry
    breaks the proof.  The rows x <= 0.9 and x >= 0.1 have a point, and
    y = (-1, 1), whose entries both have the wrong sign, would prove them
    empty if its entries were not zeroed."""
    A = np.array([[1.0], [1.0]])
    lo, hi = np.zeros(1), np.ones(1)
    empty = (A, np.array([GEQ, LEQ]), np.array([0.8, 0.2]))
    y = np.array([-1.0, 1.0])
    assert milp._farkas_certifies(y, *empty, lo, hi)
    assert milp._farkas_certifies(-y, *empty, lo, hi)
    assert not milp._farkas_certifies(np.array([-1.0, -1.0]), *empty, lo, hi)
    assert not milp._farkas_certifies(np.array([1.0, 1.0]), *empty, lo, hi)
    inhabited = (A, np.array([LEQ, GEQ]), np.array([0.9, 0.1]))
    # unzeroed, y gives 0 x <= -0.8
    assert (y @ A)[0] == 0.0 and y @ inhabited[2] < 0.0
    assert not milp._farkas_certifies(y, *inhabited, lo, hi)
    assert not milp._farkas_certifies(-y, *inhabited, lo, hi)


def test_check_solution_matches_row_rule():
    """The vectorized re-check gives the per-row verdict on points a few
    tolerances either side of their bounds and rows, with every relation
    kind and with exact ties at the tolerance."""
    def per_row(A, rels, b, lb, ub, x, tol=FEAS_TOL):
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        Ax = A @ x
        for i, rel in enumerate(rels):
            if rel == LEQ and Ax[i] > b[i] + tol:
                return False
            if rel == GEQ and Ax[i] < b[i] - tol:
                return False
            if rel == EQ and abs(Ax[i] - b[i]) > tol:
                return False
        return True

    rng = np.random.default_rng(43)
    steps = FEAS_TOL * np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    verdicts = {True: 0, False: 0}
    kinds = set()
    for _ in range(600):
        m, n = int(rng.integers(0, 7)), int(rng.integers(1, 5))
        A = rng.uniform(-2, 2, (m, n)).round(1)
        x = rng.uniform(-1, 1, n)
        lb = x - np.where(rng.random(n) < 0.9, 1.0, rng.choice(steps, n))
        ub = x + np.where(rng.random(n) < 0.9, 1.0, rng.choice(steps, n))
        rels = list(rng.choice([LEQ, GEQ, EQ], m))
        b = A @ x + rng.choice(steps, m) * (rng.random(m) < 0.3)
        want = per_row(A, rels, b, lb, ub, x)
        assert _check_solution(A, rels, b, lb, ub, x) == want
        assert _check_solution(A, np.array(rels), b, lb, ub, x) == want
        verdicts[want] += 1
        kinds.update(rels)
    assert min(verdicts.values()) >= 100 and kinds == {LEQ, GEQ, EQ}, verdicts


def test_check_solution_refuses_non_finite_points():
    """Every comparison with NaN is false, so a bounds-and-rows test alone
    would pass a NaN entry; an infinite entry inside infinite bounds would
    pass the bounds.  Both are refused."""
    A, rels, b = np.array([[1.0, 1.0]]), [LEQ], np.array([1.0])
    lb, ub = np.zeros(2), np.array([1.0, np.inf])
    assert _check_solution(A, rels, b, lb, ub, np.array([0.5, 0.0]))
    for x in ([np.nan, 0.0], [0.0, np.nan], [0.0, np.inf], [0.0, -np.inf]):
        assert not _check_solution(A, rels, b, lb, ub, np.array(x)), x
    no_rows = (np.zeros((0, 2)), [], np.zeros(0), lb, ub)
    assert not _check_solution(*no_rows, np.array([np.nan, np.nan]))


def _budget_probe_model():
    m = MilpModel("probe")
    m.add_var("x1", binary=True)
    m.add_var("x2", binary=True)
    m.add_constraint({0: 2.0, 1: 2.0}, "<=", 3.0)
    m.set_objective({0: 1.0, 1: 1.0}, "max")
    return m


def test_budget_statuses_deterministic():
    assert solve_milp(_budget_probe_model(), node_budget=1).status == "budget_unknown"
    hit = solve_milp(_budget_probe_model(), node_budget=4)
    assert hit.status == "feasible_budget_hit"
    assert hit.objective == pytest.approx(1.0)
    full = solve_milp(_budget_probe_model())
    assert full.status == "optimal" and full.nodes == 5
    tiny_time = solve_milp(_budget_probe_model(), time_budget=0.0)
    assert tiny_time.status == "budget_unknown"


def test_milp_determinism():
    rng = np.random.default_rng(17)
    mdl1, _ = _random_milp(rng, 0)
    rng = np.random.default_rng(17)
    mdl2, _ = _random_milp(rng, 0)
    s1, s2 = solve_milp(mdl1), solve_milp(mdl2)
    assert s1.status == s2.status and s1.nodes == s2.nodes
    if s1.x is not None:
        assert np.array_equal(s1.x, s2.x)


def test_lp_format_dump(tmp_path):
    path = tmp_path / "model.lp"
    m = _budget_probe_model()
    write_lp_format(m, str(path))
    text = path.read_text()
    for section in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
        assert section in text
    assert "2 x1" in text.replace("+ ", "") or "2 x1" in text
