"""Concrete monotone system models: switched-affine and signalized traffic.

Both models implement the same informal contract used throughout the
package:

* ``state_dim``          -- dimension n of the nonnegative state,
* ``w_star``             -- componentwise disturbance bound (disturbances
  range over the box ``R(w_star)``),
* ``controls``           -- finite ordered control alphabet,
* ``step(x, w, u)``      -- one-step successor, monotone in ``(x, w)`` for
  every fixed ``u``.

Under a fixed control each model is one map, and a checked control *is*
that map: ``check_control(u)`` validates ``u`` and returns the read-only
matrix that ``advance(x, w, m)``, the one dynamics kernel, applies.  For a
switched system it is the mode matrix ``A_u``, and ``x+ = A_u x + w``; for a
traffic network it is ``M_u = (beta^T - I) G_u``, with ``G_u`` the diagonal
green mask of ``u``, and ``x+ = x + w + M_u min(x, c)``.

``step`` checks its inputs and then calls ``advance``, which trusts them.  A
rollout that makes many steps checks the state, the disturbances
(``check_disturbance``) and each control (``check_control``) once and then
iterates ``advance``; it computes what the same calls of ``step`` would, bit
for bit.  ``advance(x, w, m, out)`` writes the successor into ``out`` (a
length-n float array, which may be ``x`` itself) and returns it, so a
rollout stores each state straight into its row of the trajectory; without
``out`` it returns a new array.  Both forms make the same floating-point
operations in the same order.

Monotonicity is not enforced structurally; ``check_monotone`` samples
ordered pairs and reports violations, which is how a modelling mistake
(e.g. a negative coefficient) surfaces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .order import DEFAULT_TOL, Box, PolyLowerSet, as_vector
from .rng import SplitMix64

NS = "NS"
EW = "EW"


class MonotoneSystem:
    """``step`` shared by the models: check (x, w, u), then ``advance``.

    A model sets ``state_dim``, ``w_star`` and ``controls`` and defines
    ``check_control(u)`` (raise ``ValueError`` for a control outside the
    alphabet, else return the read-only matrix of ``u``'s map) and
    ``advance(x, w, m, out=None)`` (the successor of checked inputs under
    the map ``m``, written into ``out`` when given).
    """

    def step(self, x, w, u) -> np.ndarray:
        u = self.check_control(u)
        xv = as_vector(x, dim=self.state_dim, name="x")
        wv = as_vector(w, dim=self.state_dim, name="w")
        self.check_disturbance(wv)
        return self.advance(xv, wv, u)

    def check_disturbance(self, w) -> None:
        """Raise ``ValueError`` if ``w``, or a row of it, exceeds ``w* + DEFAULT_TOL``."""
        rows = np.atleast_2d(w)
        over = np.any(rows > self.w_star + DEFAULT_TOL, axis=1)
        if over.any():
            raise ValueError(f"disturbance {rows[np.argmax(over)]} exceeds bound {self.w_star}")


# --------------------------------------------------------------------------
# switched affine:  x+ = A_u x + w
# --------------------------------------------------------------------------

class SwitchedAffineSystem(MonotoneSystem):
    """Finitely many nonnegative matrices ``A_u``; control picks the mode.

    Mode labels are 1-based integers matching the order of ``modes``.
    Entrywise nonnegativity of every ``A_u`` is required (it is the standard
    sufficient condition for monotonicity of ``x -> A x + w``).  The system
    keeps its own read-only copies of the matrices and of ``w_star``, so
    what was checked is what every step uses.
    """

    def __init__(self, modes, w_star):
        mats = [np.atleast_2d(np.array(A, dtype=float)) for A in modes]
        if not mats:
            raise ValueError("need at least one mode")
        n = mats[0].shape[0]
        for A in mats:
            if A.shape != (n, n):
                raise ValueError(f"mode matrices must all be {n}x{n}")
            if not np.all(np.isfinite(A)):
                raise ValueError("mode matrices must be finite")
            if np.any(A < 0):
                raise ValueError("mode matrices must be entrywise nonnegative")
            A.flags.writeable = False
        self.modes = tuple(mats)
        self.w_star = as_vector(np.array(w_star, dtype=float), dim=n, name="w_star")
        self.w_star.flags.writeable = False
        self.state_dim = n
        self.controls = tuple(range(1, len(mats) + 1))

    def check_control(self, u) -> np.ndarray:
        """The read-only mode matrix ``A_u`` of the label ``u``."""
        if u not in self.controls:
            raise ValueError(f"unknown mode label {u!r}; expected one of {self.controls}")
        return self.modes[u - 1]

    def advance(self, x, w, A, out=None) -> np.ndarray:
        out = np.matmul(A, x, out=out)
        out += w
        return out

    def to_dict(self) -> dict:
        return {
            "type": "switched_affine",
            "modes": [A.tolist() for A in self.modes],
            "w_star": self.w_star.tolist(),
        }


# --------------------------------------------------------------------------
# traffic network
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    id: int
    direction: str          # NS or EW
    head: str               # junction whose light gates this link's outflow
    c: float                # saturation flow (max vehicles served per step)
    x_s: float              # safe occupancy bound
    w_star: float           # exogenous arrival bound per step
    entry: bool             # True if the link enters from outside the network


class PhaseTuples(Sequence):
    """The controls of ``J`` junctions, made on demand: the phase tuples in
    ``itertools.product((NS, EW), repeat=J)`` order, without building them.

    Item ``i`` is the tuple of ``i``'s ``J`` bits, the first junction's the
    most significant, 0 = NS and 1 = EW; ``len`` is ``2 ** J``.  Membership
    and ``index`` read a tuple's phases, so neither walks the sequence.
    """

    def __init__(self, junctions: int):
        self.junctions = junctions

    def __len__(self) -> int:
        return 1 << self.junctions

    def __getitem__(self, i):
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("control index out of range")
        J = self.junctions
        return tuple(EW if i >> (J - 1 - p) & 1 else NS for p in range(J))

    def __iter__(self):
        return itertools.product((NS, EW), repeat=self.junctions)

    def __contains__(self, u) -> bool:
        return (isinstance(u, tuple) and len(u) == self.junctions
                and all(p == NS or p == EW for p in u))

    def index(self, u) -> int:
        """The position of the phase tuple ``u``: the number its bits spell."""
        if u not in self:
            raise ValueError(f"{u!r} is not a control of {self.junctions} junctions")
        return sum(1 << (self.junctions - 1 - p) for p, phase in enumerate(u) if phase == EW)


class TrafficNetwork(MonotoneSystem):
    """Signalized network in its cooperative (demand-limited) regime.

    When the head junction's phase matches a link's direction, the link
    releases ``z = min(x, c)`` vehicles, split among downstream links by the
    turn ratios; otherwise it releases nothing.  The update is

        x+ = x - z + w + sum over upstream k of beta_kl z_k ,

    which under a control ``u`` is the map ``x+ = x + w + M_u min(x, c)``
    with ``M_u = (beta^T - I) G_u`` and ``G_u`` the diagonal green mask of
    ``u``.  ``advance`` computes ``(x + w) + M_u min(x, c)``: the only
    negative entry of row l of ``M_u`` is its diagonal, no less than ``-1``,
    so the row's product is at least ``-min(x_l, c_l)`` in any summation
    order and ``x+ >= 0`` holds exactly, not only up to rounding.

    A control is a tuple of phases (``"NS"``/``"EW"``), one per junction, in
    ``self.junctions`` order (junction ids sorted alphabetically);
    ``controls`` lists all ``2 ** J`` of them lazily (``PhaseTuples``), so
    construction builds none.  A control's map is built on its first check
    and cached.  The safe set, the box ``x <= x_s``, is built once, at
    construction.  The link arrays ``c``, ``x_s`` and ``w_star``, and per
    link ``head`` (its head junction's index) and ``ns`` (True for an NS
    link), are read-only, so the safe set, the maps and the encoders' step
    templates cannot go stale.

    Construction validates the topology: turn ratios lie in [0, 1] and sum
    to at most 1 per source link, entry links receive no turns, and all
    turns into a link come from links sharing a single head junction (the
    link's implied tail).
    """

    def __init__(self, links, junctions, turns):
        self.links = tuple(links)
        self.junctions = tuple(sorted(junctions))
        if len(set(l.id for l in self.links)) != len(self.links):
            raise ValueError("duplicate link ids")
        if len(set(self.junctions)) != len(self.junctions):
            raise ValueError("duplicate junction ids")
        self._link_index = {l.id: i for i, l in enumerate(self.links)}
        self._junction_index = {j: i for i, j in enumerate(self.junctions)}
        n = len(self.links)

        for l in self.links:
            if l.direction not in (NS, EW):
                raise ValueError(f"link {l.id}: direction must be NS or EW")
            if l.head not in self._junction_index:
                raise ValueError(f"link {l.id}: unknown head junction {l.head!r}")
            if not all(np.isfinite(v) and v >= 0 for v in (l.c, l.x_s, l.w_star)):
                raise ValueError(f"link {l.id}: c, x_s, w_star must be finite and nonnegative")

        beta = np.zeros((n, n))
        for (src, dst, ratio) in turns:
            if src not in self._link_index or dst not in self._link_index:
                raise ValueError(f"turn ({src}, {dst}) references unknown link")
            if not (0.0 <= ratio <= 1.0):
                raise ValueError(f"turn ({src}, {dst}): ratio {ratio} outside [0, 1]")
            i, j = self._link_index[src], self._link_index[dst]
            if beta[i, j] != 0.0:
                raise ValueError(f"duplicate turn ({src}, {dst})")
            beta[i, j] = ratio
        out_sums = beta.sum(axis=1)
        for l, s in zip(self.links, out_sums):
            if s > 1.0 + DEFAULT_TOL:
                raise ValueError(f"link {l.id}: outgoing turn ratios sum to {s} > 1")
        for j, l in enumerate(self.links):
            sources = [self.links[i] for i in np.nonzero(beta[:, j])[0]]
            if l.entry and sources:
                raise ValueError(f"entry link {l.id} must not receive turns")
            tails = {s.head for s in sources}
            if len(tails) > 1:
                raise ValueError(
                    f"link {l.id}: incoming turns from junctions {sorted(tails)}; "
                    "all upstream links must share one head (the link's tail)")
        self.turns = tuple((int(s), int(d), float(r)) for (s, d, r) in turns)
        self.state_dim = n
        self.c = np.array([l.c for l in self.links])
        self.x_s = np.array([l.x_s for l in self.links])
        self.w_star = np.array([l.w_star for l in self.links])
        self.controls = PhaseTuples(len(self.junctions))
        self.head = np.array([self._junction_index[l.head] for l in self.links], dtype=int)
        self.ns = np.array([l.direction == NS for l in self.links], dtype=bool)
        for v in (self.c, self.x_s, self.w_star, self.head, self.ns):
            v.flags.writeable = False
        self._flow = beta.T - np.eye(n)
        # per control played so far: its map M_u
        self._maps = {}
        # one read-only safe set: every encoding and rollout shares it
        self._safe = PolyLowerSet.rectangle(self.x_s)

    # -- dynamics ----------------------------------------------------------

    def check_control(self, u) -> np.ndarray:
        """The read-only map ``M_u = (beta^T - I) G_u`` of the control ``u``."""
        if len(u) != len(self.junctions):
            raise ValueError(f"control must assign a phase to all {len(self.junctions)} junctions")
        for p in u:
            if p not in (NS, EW):
                raise ValueError(f"bad phase {p!r}")
        u = tuple(u)
        m = self._maps.get(u)
        if m is None:
            m = self._flow * self.green(u)
            m.flags.writeable = False
            self._maps[u] = m
        return m

    def green(self, u) -> np.ndarray:
        """Bool per link: green under the phases ``u``, where the link's head
        junction shows the link's own direction."""
        return np.array([p == NS for p in u], dtype=bool)[self.head] == self.ns

    def advance(self, x, w, m, out=None) -> np.ndarray:
        # z before the first write, so that ``out`` may be ``x``
        z = np.minimum(x, self.c)
        out = np.add(x, w, out=out)
        out += m @ z
        return out

    # -- bookkeeping -------------------------------------------------------

    def link_index(self, link_id) -> int:
        return self._link_index[link_id]

    def safe_set(self) -> PolyLowerSet:
        """Rectangle ``{x : x_i <= x_s_i}`` induced by the per-link bounds;
        one read-only set, built at construction."""
        return self._safe

    def to_dict(self) -> dict:
        return {
            "type": "traffic_network",
            "junctions": list(self.junctions),
            "links": [
                {"id": l.id, "dir": l.direction, "head": l.head, "c": l.c,
                 "x_s": l.x_s, "w_star": l.w_star, "entry": l.entry}
                for l in self.links
            ],
            "turns": [{"from": s, "to": d, "beta": r} for (s, d, r) in self.turns],
        }


def cooperative_bound_check(net: TrafficNetwork, x_cap, alpha):
    """Check that safe bounds keep the network inside its cooperative regime.

    For each link ``l`` in ``x_cap``, verifies

        x_s(l)  <=  x_cap(l) - max over incoming movements (k -> l) of
                                (alpha[k, l] / beta[k, l]) * c(k)

    i.e. even a saturated upstream release cannot push the occupancy into
    the range where the receiving link's supply (rather than demand) limits
    flow.  ``alpha`` maps movements ``(k, l)`` to supply-split coefficients;
    a zero turn ratio makes the ratio undefined and is an error.  Links with
    no incoming movements pass vacuously.  Returns ``[(link_id, ok), ...]``
    in network link order.
    """
    results = []
    for l in net.links:
        if l.id not in x_cap:
            continue
        j = net.link_index(l.id)
        worst = 0.0
        for (src, dst, ratio) in net.turns:
            if dst != l.id:
                continue
            if (src, dst) not in alpha:
                raise ValueError(f"missing alpha for movement ({src}, {dst})")
            if ratio == 0.0:
                raise ValueError(f"movement ({src}, {dst}) has zero turn ratio")
            worst = max(worst, alpha[(src, dst)] / ratio * net.c[net.link_index(src)])
        results.append((l.id, bool(l.x_s <= x_cap[l.id] - worst + DEFAULT_TOL)))
    return results


# --------------------------------------------------------------------------
# statistical monotonicity check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MonotoneReport:
    samples: int
    violations: int
    worst_violation: float
    seed: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_monotone(sys, samples: int, seed: int, domain_box: Box,
                   tol: float = DEFAULT_TOL) -> MonotoneReport:
    """Sample ordered pairs and count order violations of the step map.

    Draws ``samples`` tuples ``x1 <= x2`` in ``domain_box``, ``w1 <= w2``
    below ``w_star``, and a uniform control, then checks
    ``step(x1, w1, u) <= step(x2, w2, u)``.  The violation magnitude is the
    largest positive excess of the smaller trajectory over the larger one.
    Fully deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if domain_box.dim != sys.state_dim:
        raise ValueError("domain box dimension mismatch")
    rng = SplitMix64(seed)
    corner = domain_box.corner
    wstar = sys.w_star
    n_controls = len(sys.controls)
    violations = 0
    worst = 0.0
    for _ in range(samples):
        x2 = rng.uniform(0.0, corner)
        x1 = rng.uniform(0.0, x2)
        w2 = rng.uniform(0.0, wstar)
        w1 = rng.uniform(0.0, w2)
        u = sys.controls[rng.randint(n_controls)]
        excess = float(np.max(sys.step(x1, w1, u) - sys.step(x2, w2, u)))
        if excess > tol:
            violations += 1
            worst = max(worst, excess)
    return MonotoneReport(samples=samples, violations=violations,
                          worst_violation=worst, seed=seed)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def system_hash(spec) -> str:
    """First 16 hex digits of the sha256 of the canonical system JSON.

    Accepts a raw spec dict or a system object.  Certificates carry this
    value so a certificate cannot silently be verified against a different
    model.  The hash covers the spec as written; ``load_system_file`` binds
    a turn-ratio resolution other than ``"first"`` into it.
    """
    if hasattr(spec, "to_dict"):
        spec = spec.to_dict()
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()[:16]


def system_from_dict(spec: dict, beta_resolution: str = "first"):
    """Build a system from its JSON dict.  Returns ``(system, safe_set)``.

    ``beta_resolution`` selects between the turn ratios as listed
    (``"first"``) and the alternate values under the spec's
    ``"turn_overrides"`` key (``"second"``), for models whose source data
    states a ratio inconsistently.
    """
    kind = spec.get("type")
    if kind == "switched_affine":
        system = SwitchedAffineSystem(spec["modes"], spec["w_star"])
        safe = None
        if "safe_set" in spec:
            safe = PolyLowerSet(spec["safe_set"]["A"], spec["safe_set"]["b"])
        return system, safe
    if kind == "traffic_network":
        links = [Link(id=int(r["id"]), direction=r["dir"], head=r["head"],
                      c=float(r["c"]), x_s=float(r["x_s"]),
                      w_star=float(r["w_star"]), entry=bool(r["entry"]))
                 for r in spec["links"]]
        turns = {(int(t["from"]), int(t["to"])): float(t["beta"]) for t in spec["turns"]}
        if beta_resolution == "second":
            overrides = spec.get("turn_overrides", {}).get("second")
            if not overrides:
                raise ValueError("system spec defines no alternate turn-ratio resolution")
            for t in overrides:
                key = (int(t["from"]), int(t["to"]))
                if key not in turns:
                    raise ValueError(f"override for unknown turn {key}")
                turns[key] = float(t["beta"])
        elif beta_resolution != "first":
            raise ValueError(f"unknown beta resolution {beta_resolution!r}")
        net = TrafficNetwork(links, spec["junctions"],
                             [(s, d, r) for (s, d), r in turns.items()])
        return net, net.safe_set()
    raise ValueError(f"unknown system type {kind!r}")


def load_system_file(path, beta_resolution: str = "first"):
    """Load a system spec file.  Returns ``(system, safe_set, hash)``.

    The hash is ``system_hash`` of the spec.  A traffic spec loaded under
    another turn-ratio resolution than ``"first"`` is another model, so its
    hash covers the spec together with the resolution: a plan made under
    one resolution does not verify under the other.
    """
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    system, safe = system_from_dict(spec, beta_resolution)
    if isinstance(system, TrafficNetwork) and beta_resolution != "first":
        spec = {"spec": spec, "beta_resolution": beta_resolution}
    return system, safe, system_hash(spec)
