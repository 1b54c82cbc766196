"""Componentwise order, boxes, and lower sets on the nonnegative orthant.

Everything downstream (system models, the MILP encoder, the invariance
machinery) reasons in the partial order

    a <= b  iff  a_i <= b_i for every coordinate i,

restricted to ``R^n_+``.  Three set families are provided:

* ``Box(a)`` -- the order interval ``{x >= 0 : x <= a}`` below a corner ``a``.
* ``PolyLowerSet`` -- ``{x >= 0 : A x <= b}`` with ``A`` entrywise
  nonnegative, which is a sufficient (and cheaply checkable) condition for
  the set to be closed under componentwise decrease.
* ``BoxUnion`` -- a finite union of boxes, again a lower set.

All membership predicates are *closed* (boundary points are inside) and take
an explicit tolerance so that exact arithmetic and solver output can be
compared with different slack.  ``contains`` takes one point and returns a
``bool``, or an ``(m, n)`` array of points and returns one bool per row;
each row's answer is the one its point gets alone.  It works on the points
transposed to ``(n, m)``, so that each test over a point's coordinates
reduces over n contiguous rows of m, far cheaper for numpy than reducing m
short rows.  ``PolyLowerSet.row_sums`` sums ``A x`` over each row's
nonzero terms only, in column order (terms listed once, when the set is
built); a row with fewer terms than the longest, or with none, ends with
some of its zero terms.  A skipped or added zero term is ``x_j * 0 = +-0``
on a finite point and changes no comparison, so the answer is the one the
sum over every column gives; a point with a non-finite coordinate is
outside, by an explicit test, so the NaN its zero terms give is not warned
about.  Two callers share these row sums: ``PolyLowerSet.contains``, and
``invariance.least_fixed_point``, which tests each period's run by the
same comparison and, when the run exits, sums its overshoot from the same
``A x``.  ``PolyLowerSet.violation`` keeps its own BLAS product.
``BoxUnion`` tests its boxes one at a time and ORs the answers.

``BoxUnion.locate`` answers one point, the smallest index of a box holding
it, on Python floats: one list conversion, then a scan of the corners plus
the tolerance (summed once, when the union is built, for ``DEFAULT_TOL``)
that leaves each box at its first failed coordinate.  A feedback rollout
asks it once per step, and a dozen floats are cheaper to compare one by
one than to hand to numpy.

Every tolerance in the package, and the comparison it guards:

===============================  =====  =====================================
name                             value  guards
===============================  =====  =====================================
``order.DEFAULT_TOL``            1e-9   order and membership tests on exact
                                        arithmetic (``leq``, ``Box``,
                                        ``PolyLowerSet``, ``BoxUnion``),
                                        ``w <= w*`` in ``step``, turn-ratio
                                        sums, ``check_monotone`` and
                                        ``cooperative_bound_check``
``order.WITNESS_TOL``            1e-5   a witness against its re-simulation:
                                        how far ``decode`` lets a solver
                                        state lie below the simulation;
                                        ``verify_certificate`` (which
                                        ``decode`` also runs) when the
                                        certificate declares no ``tol``
``milp.INT_TOL``                 1e-6   a binary's distance to {0, 1}:
                                        branching, incumbents, and
                                        ``decode`` reading mode one-hots and
                                        junction phases
``milp.FEAS_TOL`` and the rest   --     solver-internal; the table at the
of ``milp.py``'s table                  top of ``milp.py`` names each one
``compute_limit_cycle`` ``tol``  1e-9   period-to-period residual of the
                                        limit cycle, and its descent check
``dominance_check`` ``tol``      1e-9   a trajectory state above the
                                        worst-case reference run
``dominance_check`` literal      1e-12  its precondition ``x_0 <= x*_0``
``least_fixed_point`` (as        1e-9   a period's rise at convergence;
``DEFAULT_TOL``)                        also the grid on which
                                        ``search_traffic_plan`` compares
                                        overshoots
===============================  =====  =====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: default tolerance for order comparisons on exact arithmetic
DEFAULT_TOL = 1e-9
#: a witness against its re-simulation (decoding and certificate verification)
WITNESS_TOL = 1e-5


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a 1-D float array, checking nonnegativity.

    Raises ``ValueError`` on negative entries, wrong dimension, or
    non-finite values.  Used at every construction boundary so the numeric
    core can assume clean data.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name}: expected dimension {dim}, got {v.shape[0]}")
    return _finite_nonnegative(v, name)


def as_rows(x, dim: int, name: str = "rows") -> np.ndarray:
    """Coerce ``x`` to an ``(m, dim)`` float array, checked as ``as_vector``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValueError(f"{name}: expected shape (m, {dim}), got {v.shape}")
    return _finite_nonnegative(v, name)


def _finite_nonnegative(v, name):
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name}: entries must be finite")
    if np.any(v < 0):
        raise ValueError(f"{name}: entries must be nonnegative, got {v}")
    return v


def _points(x, dim):
    """``x`` as a ``(dim, m)`` float array, one column per point, and
    whether it was one point (see the module docstring for the layout)."""
    xv = np.asarray(x, dtype=float)
    single = xv.ndim != 2
    if single:
        xv = xv.reshape(1, -1)
    if xv.shape[1] != dim:
        raise ValueError(f"dimension mismatch: {xv.shape[1]} vs {dim}")
    return np.ascontiguousarray(xv.T), single


def _answer(inside, single):
    return bool(inside[0]) if single else inside


def leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Componentwise order test: ``a_i <= b_i + tol`` for every ``i``."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    av = np.asarray(a, dtype=float).reshape(-1)
    bv = np.asarray(b, dtype=float).reshape(-1)
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return bool(np.all(av <= bv + tol))


@dataclass(frozen=True)
class Box:
    """Order interval ``R(a) = {x >= 0 : x <= a}`` with corner ``a``, a
    read-only copy of the corner given, so what was checked is what every
    answer uses."""

    corner: np.ndarray

    def __post_init__(self):
        corner = as_vector(np.array(self.corner, dtype=float), name="corner")
        corner.flags.writeable = False
        object.__setattr__(self, "corner", corner)

    @property
    def dim(self) -> int:
        return self.corner.shape[0]

    def contains(self, x, tol: float = DEFAULT_TOL):
        X, single = _points(x, self.dim)
        upper = (self.corner + tol)[:, None]
        return _answer(((X >= -tol) & (X <= upper)).all(axis=0), single)


@dataclass(frozen=True)
class PolyLowerSet:
    """Polyhedral lower set ``{x >= 0 : A x <= b}`` with ``A >= 0`` entrywise.

    The entrywise-nonnegativity requirement is rejected at construction;
    it guarantees the lower-set property (if ``x`` satisfies the
    constraints, so does any ``0 <= y <= x``) without any polyhedral
    computation.  ``A`` and ``b`` are read-only copies of the arrays
    given, so what was checked is what every answer uses.
    """

    A: np.ndarray
    b: np.ndarray
    #: each row's nonzero terms of ``A`` in column order, as ``(cols, coefs)``:
    #: term t of every row in ``cols[t]`` (shape ``(rows,)``) and
    #: ``coefs[t]`` (shape ``(rows, 1)``), for t below the most terms in a
    #: row, and at least one; a row with fewer terms ends with some of its
    #: zero terms
    _terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        if A.shape[1] == 0:
            raise ValueError("A needs at least one column")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("A and b must be finite")
        if np.any(A < 0):
            raise ValueError("A must be entrywise nonnegative for a lower set")
        if np.any(b < 0):
            raise ValueError("b must be entrywise nonnegative")
        A.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        # per row its nonzero columns in order, then its zero ones
        nonzero = A != 0
        order = np.argsort(~nonzero, axis=1, kind="stable")
        order = order[:, :nonzero.sum(axis=1).max(initial=1)]
        rows = np.arange(A.shape[0])[:, None]
        object.__setattr__(self, "_terms", (order.T, A[rows, order].T[:, :, None]))

    @classmethod
    def rectangle(cls, corner) -> "PolyLowerSet":
        """The box ``{x >= 0 : x_i <= corner_i}`` as one constraint per axis."""
        c = as_vector(corner, name="corner")
        return cls(np.eye(c.shape[0]), c)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def row_sums(self, X) -> np.ndarray:
        """``A x`` for each column ``x`` of the ``(dim, m)`` array ``X``, as a
        ``(rows, m)`` array.

        Each row is summed over its nonzero terms in column order, so that
        a point's sums do not depend on how many points share the call (a
        BLAS product may change its summation order with the number of
        rows); see the module docstring for why the skipped and the added
        zero terms change no membership answer.  A non-finite coordinate
        times a zero term is NaN, and numpy warns of it unless the caller
        ignores ``invalid``.
        """
        cols, coefs = self._terms
        Ax = X[cols[0]] * coefs[0]
        for t in range(1, len(cols)):
            Ax += X[cols[t]] * coefs[t]
        return Ax

    def contains(self, x, tol: float = DEFAULT_TOL):
        X, single = _points(x, self.dim)
        inside = ((X >= -tol) & (X < np.inf)).all(axis=0)
        # a non-finite coordinate times a padding zero term is NaN, which
        # changes no answer: the line above already put the point outside
        with np.errstate(invalid="ignore"):
            Ax = self.row_sums(X)
        inside &= (Ax <= (self.b + tol)[:, None]).all(axis=0)
        return _answer(inside, single)

    def violation(self, x) -> float:
        """Worst constraint excess ``max(max_i (A x - b)_i, 0)``.

        Zero for points inside the set.  For nonnegative ``x``,
        ``violation(x) <= tol`` is ``contains(x, tol)`` up to rounding:
        ``contains`` sums ``A x`` in column order and tests ``A x <= b + tol``,
        so the two can disagree on a point within a few ulps of the boundary.
        """
        xv = np.asarray(x, dtype=float).reshape(-1)
        if xv.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {self.dim}")
        excess = float(np.max(self.A @ xv - self.b)) if self.A.shape[0] else 0.0
        # + 0.0 turns a -0.0 (an inside point with a zero coordinate) into 0.0
        return max(excess, float(np.max(-xv)), 0.0) + 0.0

    def coordinate_bounds(self) -> np.ndarray:
        """Per-coordinate suprema ``sup {x_i : x in S}``.

        Because the set is a lower set, the supremum of ``x_i`` is attained
        with all other coordinates at zero, so it is simply
        ``min_j b_j / A_{ji}`` over rows with ``A_{ji} > 0`` (``inf`` if no
        row bounds the coordinate).  No LP is needed.
        """
        bounds = np.divide(self.b[:, None], self.A, out=np.full(self.A.shape, np.inf),
                           where=self.A > 0)
        return bounds.min(axis=0, initial=np.inf)


_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class BoxUnion:
    """Ordered finite union of boxes; membership reports the smallest index.

    ``corners`` is read-only, like each box's corner: ``locate`` answers
    from a list cached from it at construction, so an edit would split the
    two membership tests."""

    boxes: tuple = field(default_factory=tuple)
    #: the corners as one (boxes, n) matrix
    corners: np.ndarray = field(init=False, repr=False, compare=False)
    #: the dimension every box shares
    dim: int = field(init=False, repr=False, compare=False)
    #: ``corners + DEFAULT_TOL`` as nested lists of floats, for ``locate``
    _bounds: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes = tuple(b if isinstance(b, Box) else Box(b) for b in self.boxes)
        if not boxes:
            raise ValueError("BoxUnion needs at least one box")
        dims = {b.dim for b in boxes}
        if len(dims) != 1:
            raise ValueError(f"boxes must share a dimension, got {sorted(dims)}")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "dim", dims.pop())
        corners = np.array([b.corner for b in boxes])
        corners.flags.writeable = False
        object.__setattr__(self, "corners", corners)
        object.__setattr__(self, "_bounds", (self.corners + DEFAULT_TOL).tolist())

    def __len__(self) -> int:
        return len(self.boxes)

    def locate(self, x, tol: float = DEFAULT_TOL) -> int | None:
        """Smallest index ``p`` with the point ``x`` in ``boxes[p]``, or ``None``.

        Answered on Python floats (see the module docstring).  A float sum
        ``corner + tol`` rounds as numpy's does, and every test is a negated
        ``<=`` or ``>=``, so a NaN coordinate is outside, as in ``contains``.
        """
        if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT:
            xs = x.tolist()
        else:
            xs = np.asarray(x, dtype=float).reshape(-1).tolist()
        if len(xs) != self.dim:
            raise ValueError(f"dimension mismatch: {len(xs)} vs {self.dim}")
        low = -tol
        for v in xs:
            if not v >= low:
                return None
        bounds = self._bounds if tol == DEFAULT_TOL else (self.corners + tol).tolist()
        for p, upper in enumerate(bounds):
            for v, c in zip(xs, upper):
                if not v <= c:
                    break
            else:
                return p
        return None

    def contains(self, x, tol: float = DEFAULT_TOL):
        X, single = _points(x, self.dim)
        upper = (self.corners + tol)[:, :, None]
        hit = (X <= upper[0]).all(axis=0)
        for corner in upper[1:]:
            hit |= (X <= corner).all(axis=0)
        return _answer((X >= -tol).all(axis=0) & hit, single)
