"""Componentwise order, boxes, polyhedral lower sets, box unions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from monosafe.order import DEFAULT_TOL, Box, BoxUnion, PolyLowerSet, as_vector, leq

vectors = st.lists(st.floats(0, 100, allow_nan=False, width=32),
                   min_size=1, max_size=6)


def pair_same_dim(draw_dim=st.integers(1, 6)):
    return draw_dim.flatmap(lambda n: st.tuples(
        st.lists(st.floats(0, 100, allow_nan=False, width=32), min_size=n, max_size=n),
        st.lists(st.floats(0, 100, allow_nan=False, width=32), min_size=n, max_size=n)))


@given(vectors)
def test_leq_reflexive(v):
    assert leq(v, v)


@given(pair_same_dim())
def test_leq_tolerance_monotone(ab):
    a, b = ab
    if leq(a, b, 1e-9):
        assert leq(a, b, 1e-3)


@given(pair_same_dim())
def test_leq_matches_numpy(ab):
    a, b = ab
    assert leq(a, b, 0.0) == bool(np.all(np.asarray(a) <= np.asarray(b)))


def test_leq_dim_mismatch():
    with pytest.raises(ValueError):
        leq([1.0, 2.0], [1.0])


def test_as_vector_rejects():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], 2, "x")
    with pytest.raises(ValueError):
        as_vector([1.0], 2, "x")
    with pytest.raises(ValueError):
        as_vector([1.0, -2.0], 2, "x")


@given(vectors)
def test_box_contains_corner_and_origin(corner):
    box = Box(corner)
    assert box.contains(corner)
    assert box.contains(np.zeros(len(corner)))


@given(pair_same_dim())
def test_box_is_lower_set(ab):
    """y <= x in R(c) implies y in R(c)."""
    x, c = ab
    box = Box(c)
    if box.contains(x):
        y = 0.5 * np.asarray(x)
        assert box.contains(y)


def test_box_rejects_negative_corner():
    with pytest.raises(ValueError):
        Box([1.0, -0.5])


def test_rectangle_agrees_with_box():
    corner = [3.0, 1.5, 7.0]
    rect = PolyLowerSet.rectangle(corner)
    box = Box(corner)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(0, 8, size=3)
        assert rect.contains(x) == box.contains(x)


def test_poly_lower_set_rejects_mixed_signs():
    with pytest.raises(ValueError):
        PolyLowerSet(np.array([[1.0, -1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        PolyLowerSet(np.array([[1.0, 1.0]]), np.array([-1.0]))


@given(pair_same_dim())
def test_lower_set_closed_downward(ab):
    x, scale = ab
    n = len(x)
    S = PolyLowerSet(np.ones((1, n)), np.array([50.0]))
    if S.contains(x):
        assert S.contains(0.25 * np.asarray(x))


def test_violation_consistent_with_contains():
    S = PolyLowerSet(np.array([[1.0, 1.0], [2.0, 0.5]]), np.array([10.0, 8.0]))
    rng = np.random.default_rng(1)
    for _ in range(300):
        x = rng.uniform(0, 12, size=2)
        assert S.contains(x, 1e-9) == (S.violation(x) <= 1e-9)
    assert S.violation(np.array([6.0, 6.0])) == pytest.approx(7.0)  # 2*6+0.5*6-8
    assert S.violation(np.array([0.0, 0.0])) == 0.0


def test_coordinate_bounds():
    S = PolyLowerSet(np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([10.0, 8.0]))
    assert np.allclose(S.coordinate_bounds(), [4.0, 10.0])
    unbounded = PolyLowerSet(np.array([[1.0, 0.0]]), np.array([5.0]))
    bounds = unbounded.coordinate_bounds()
    assert bounds[0] == 5.0 and np.isinf(bounds[1])


def test_coordinate_bounds_match_the_column_loop():
    """One masked division gives, bit for bit, the per-column minimum of
    ``b_j / A_ji`` over rows with ``A_ji > 0``, and ``inf`` for a column no
    row bounds, without a numpy warning."""
    def per_column(S):
        out = np.full(S.dim, np.inf)
        for i in range(S.dim):
            mask = S.A[:, i] > 0
            if np.any(mask):
                out[i] = np.min(S.b[mask] / S.A[mask, i])
        return out

    rng = np.random.default_rng(5)
    sets = [PolyLowerSet(np.array([[1.0, 0.0, 3.0], [0.7, 0.0, 0.1]]), np.array([2.0, 0.3]))]
    for _ in range(100):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        A = np.where(rng.random(shape) < 0.5, rng.uniform(0.0, 3.0, shape), 0.0)
        sets.append(PolyLowerSet(A, rng.uniform(0.0, 10.0, A.shape[0])))
    unbounded = 0
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for S in sets:
            got = S.coordinate_bounds()
            assert np.array_equal(got, per_column(S)), S
            unbounded += int(np.isinf(got).sum())
    assert unbounded >= 20 and np.isinf(sets[0].coordinate_bounds()[1])


def test_box_union_minimal_index():
    union = BoxUnion((Box([5.0, 5.0]), Box([10.0, 2.0]), Box([10.0, 10.0])))
    assert union.locate([4.0, 4.0]) == 0           # in all three, first wins
    assert union.locate([8.0, 1.0]) == 1
    assert union.locate([8.0, 8.0]) == 2
    assert union.locate([11.0, 11.0]) is None
    assert union.contains([8.0, 8.0])
    assert not union.contains([11.0, 0.0])


def test_box_union_rejects_mixed_dims():
    with pytest.raises(ValueError):
        BoxUnion((Box([1.0]), Box([1.0, 2.0])))


def _edge_points(corners, rng):
    """Each corner moved by -tol, 0, tol or 2 tol, as a whole and one
    coordinate at a time; each corner with one coordinate set to -tol or
    -2 tol; and random points."""
    tol = DEFAULT_TOL
    pts = []
    for c in corners:
        for shift in (-tol, 0.0, tol, 2 * tol):
            pts.append(c + shift)
            for i in range(len(c)):
                moved = c.copy()
                moved[i] = c[i] + shift
                pts.append(moved)
        for i in range(len(c)):
            for low in (-tol, -2 * tol):
                moved = c.copy()
                moved[i] = low
                pts.append(moved)
    pts.extend(rng.uniform(-0.1, 1.1, (40, len(corners[0]))) * corners[0])
    return np.array(pts)


def test_batch_contains_matches_each_point():
    rng = np.random.default_rng(8)
    corners = [np.array([3.0, 0.7, 5.25]), np.array([1.0, 4.0, 0.1]),
               np.array([2.5, 2.5, 2.5])]
    A = np.array([[1.0, 0.3, 0.0], [0.2, 1.0, 0.7], [0.0, 0.0, 1.0]])
    sets = [Box(corners[0]), PolyLowerSet.rectangle(corners[1]),
            PolyLowerSet(A, A @ corners[2]), BoxUnion(tuple(Box(c) for c in corners))]
    pts = _edge_points(corners, rng)
    for region in sets:
        batch = region.contains(pts)
        assert batch.dtype == bool and batch.shape == (len(pts),)
        single = [region.contains(p) for p in pts]
        assert all(type(v) is bool for v in single)
        assert batch.tolist() == single
        assert 0 < sum(single) < len(pts)
        one = region.contains(pts[:1])
        assert one.shape == (1,) and one[0] == single[0]
    union = sets[-1]
    for p in pts:
        first = next((k for k, box in enumerate(union.boxes) if box.contains(p)), None)
        assert union.locate(p) == first


def _numpy_locate(corners, x, tol=DEFAULT_TOL):
    """``BoxUnion.locate`` as numpy reductions over the corner matrix."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    if not (xv >= -tol).all():
        return None
    hits = (xv <= corners + tol).all(axis=1)
    return int(hits.argmax()) if hits.any() else None


def test_locate_matches_numpy_reference():
    """The float scan gives the numpy formula's answer on seeded points, on
    points exactly at ``corner + tol`` and one ulp above, on coordinates at
    ``-tol`` and one ulp below, on NaN and infinities, and on list and
    ``(1, n)`` inputs."""
    rng = np.random.default_rng(16)
    corners = np.array([[3.0, 0.7, 5.25, 0.0], [1.0, 4.0, 0.1, 2.0],
                        [2.5, 2.5, 2.5, 2.5], [0.3, 1e-12, 7.0, 1.0 / 3.0]])
    union = BoxUnion(tuple(Box(c) for c in corners))
    for tol in (0.0, DEFAULT_TOL, 1e-3):
        upper = corners + tol
        pts = list(rng.uniform(-0.05, 1.1, (200, 4)) * corners.max(axis=0))
        for c in upper:
            pts.append(c)
            pts.append(np.nextafter(c, np.inf))
            for i in range(4):
                pts.append(np.where(np.arange(4) == i, np.nextafter(c, np.inf), c))
                for v in (-tol, np.nextafter(-tol, -np.inf), np.nan, np.inf, -np.inf):
                    moved = c.copy()
                    moved[i] = v
                    pts.append(moved)
        answers = []
        for p in pts:
            expected = _numpy_locate(corners, p, tol)
            answers.append(expected)
            assert union.locate(p, tol) == expected
            assert union.locate(list(p), tol) == expected
            assert union.locate(p.reshape(1, -1), tol) == expected
        assert None in answers and len(set(answers)) == len(corners) + 1
    assert union.locate(corners[0] + DEFAULT_TOL) == 0
    assert union.locate(np.nextafter(corners[0] + DEFAULT_TOL, np.inf)) is None
    for bad in ([1.0, 2.0, 3.0], np.zeros((2, 4)), np.zeros(5)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            union.locate(bad)


def _column_loop_contains(S, x, tol):
    """``PolyLowerSet.contains`` as a sum over every column of ``A``, in
    column order, on an ``(m, n)`` array of points."""
    X = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        Ax = X[:, :1] * S.A[:, 0]
        for j in range(1, S.dim):
            Ax = Ax + X[:, j:j + 1] * S.A[:, j]
    return (X >= -tol).all(axis=1) & (Ax <= S.b + tol).all(axis=1)


def _broadcast_union_contains(union, x, tol):
    """``BoxUnion.contains`` as one ``(m, boxes, n)`` comparison."""
    X = np.asarray(x, dtype=float)
    return ((X >= -tol).all(axis=1)
            & (X[:, None, :] <= union.corners + tol).all(axis=2).any(axis=1))


def _special_points(upper, tol, zero_column=None):
    """Each bound in ``upper`` (one row per bound, the point's other
    coordinates at 0) exactly and one ulp above; NaN, +inf and -inf in each
    coordinate of the first bound; -tol and one ulp below it."""
    pts = []
    n = upper.shape[1]
    for c in upper:
        for i in range(n):
            at = np.where(np.arange(n) == i, c, 0.0)
            pts += [at, np.where(np.arange(n) == i, np.nextafter(c, np.inf), 0.0)]
    for i in range(n):
        for v in (np.nan, np.inf, -np.inf, -tol, np.nextafter(-tol, -np.inf)):
            moved = upper[0].copy()
            moved[i] = v
            pts.append(moved)
    if zero_column is not None:
        inside = np.zeros(n)
        inside[zero_column] = np.inf
        pts.append(inside)
    return np.array(pts)


def test_contains_matches_the_dense_formulas():
    """The term-by-term ``PolyLowerSet`` sum and the box-by-box
    ``BoxUnion`` test answer as the column loop and the 3-D broadcast did,
    one point at a time and as a batch: on edge and random points, on NaN
    and infinities (+inf also in a column of ``A`` that is all zero), on a
    row of ``A`` that is all zero, on -0.0 coefficients and one ulp past
    ``b + tol``, at three tolerances."""
    rng = np.random.default_rng(21)
    A = np.array([[1.0, 0.3, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [-0.0, 2.0, -0.0, 0.5],
                  [0.0, 0.0, 0.0, 1.0]])
    S = PolyLowerSet(A, np.array([4.0, 0.0, 6.0, 3.0]))
    corners = [np.array([4.0, 0.5, 9.0, 1.0]), np.array([1.0, 2.75, 0.0, 3.0]),
               np.array([0.1, 1.0, 2.0, 2.0])]
    union = BoxUnion(tuple(Box(c) for c in corners))
    cases = [(S, _column_loop_contains, np.array([[4.0, 0, 0, 0], [0, 0, 0, 3.0]]), 2),
             (union, _broadcast_union_contains, np.array(corners), None),
             (PolyLowerSet.rectangle(corners[1]), _column_loop_contains,
              np.diag(corners[1]), None)]
    for region, reference, bounds, zero_column in cases:
        for tol in (0.0, DEFAULT_TOL, 1e-3):
            pts = np.vstack([_edge_points(corners, rng),
                             _special_points(bounds + tol, tol, zero_column)])
            expected = reference(region, pts, tol)
            assert 0 < expected.sum() < len(pts)
            batch = region.contains(pts, tol)
            single = [region.contains(p, tol) for p in pts]
            assert batch.dtype == bool and batch.tolist() == expected.tolist()
            assert single == expected.tolist()
    # one ulp past b + tol on a row summed over two terms, and the bound itself
    assert S.contains([4.0, 0.0, 0.0, 0.0], 0.0)
    assert not S.contains([np.nextafter(4.0, np.inf), 0.0, 0.0, 0.0], 0.0)
    assert not S.contains([0.0, 0.0, np.inf, 0.0]) and not S.contains([0.0, 0.0, np.nan, 0.0])
