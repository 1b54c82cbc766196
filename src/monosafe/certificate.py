"""The s-sequence certificate record and its JSON form.

A certificate is the finite object that makes a safety claim checkable by
pure simulation: a horizon ``T``, controls ``u_0 .. u_{T-1}``, and witness
states ``x_0 .. x_T`` satisfying

    x_{k+1} = f(x_k, w*, u_k),   x_k in S for k < T,   x_T <= x_0 .

The JSON schema is ``{"T", "controls", "x_star", "system_hash"}`` with an
optional ``"tol"`` declaring the tolerance at which the witness is claimed
to verify (absent means the strict default, ``order.WITNESS_TOL`` = 1e-5).
``system_hash`` ties the certificate to the canonical hash of the system
spec it was produced for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def _canon_control(u):
    if isinstance(u, (list, tuple)):
        return tuple(str(p) for p in u)
    if isinstance(u, float) and u.is_integer():
        return int(u)
    return u


@dataclass(frozen=True)
class SSequenceCertificate:
    T: int
    controls: tuple
    x_star: tuple          # T+1 state vectors
    system_hash: str | None = None
    tol: float | None = None  # declared verification tolerance (None = default)

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if len(self.controls) != self.T:
            raise ValueError(f"need {self.T} controls, got {len(self.controls)}")
        if len(self.x_star) != self.T + 1:
            raise ValueError(f"need {self.T + 1} witness states, got {len(self.x_star)}")
        states = tuple(np.asarray(x, dtype=float).reshape(-1) for x in self.x_star)
        dims = {s.shape[0] for s in states}
        if len(dims) != 1:
            raise ValueError("witness states must share a dimension")
        for k, s in enumerate(states):
            if not np.isfinite(s).all():
                raise ValueError(f"witness state x_{k} is not finite")
        object.__setattr__(self, "x_star", states)
        object.__setattr__(self, "controls", tuple(_canon_control(u) for u in self.controls))

    @property
    def dim(self) -> int:
        return self.x_star[0].shape[0]

    def to_dict(self) -> dict:
        out = {
            "T": self.T,
            "controls": [list(u) if isinstance(u, tuple) else u for u in self.controls],
            "x_star": [x.tolist() for x in self.x_star],
            "system_hash": self.system_hash,
        }
        if self.tol is not None:
            out["tol"] = self.tol
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SSequenceCertificate":
        return cls(T=int(d["T"]), controls=tuple(d["controls"]),
                   x_star=tuple(d["x_star"]), system_hash=d.get("system_hash"),
                   tol=d.get("tol"))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SSequenceCertificate":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
