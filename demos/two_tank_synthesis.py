"""
Synthesizing a safe switching plan for a two-state system
=========================================================

Walks the full pipeline on the small bundled model: two modes, two state
variables, safe set x1 + x2 <= 50.  We sweep horizons until the solver
proves a plan exists, then turn the witness into an invariant region.
"""

from importlib import resources

import numpy as np

from monosafe import (build_rcis, feedback, find_s_sequence,
                      load_system_file, verify_certificate)

DATA = resources.files("monosafe.data")

system, safe_set, digest = load_system_file(str(DATA / "case1.json"))
print(f"system hash {digest}, modes: {len(system.modes)}, w* = {system.w_star}")

# Sweep T = 1..7.  Short horizons are proved impossible outright; the point
# of the sweep is that the first feasible T is then *minimal*.
result = find_s_sequence(system, safe_set, t_max=7, objective="max_l1_x0")
for rec in result.records:
    print(f"  T={rec.T}: {rec.status}  ({rec.nodes} nodes, {rec.elapsed:.3f} s)")

cert = result.certificate
print(f"\nminimal horizon T = {cert.T}, minimal = {result.minimal}")
print("mode sequence:", ", ".join(str(u) for u in cert.controls))
print("witness chain (largest start the plan can cover):")
for k, x in enumerate(cert.x_star):
    print(f"  x*_{k} = ({x[0]:8.4f}, {x[1]:8.4f})")

# The witness must re-verify by pure simulation -- no solver involved.
report = verify_certificate(system, safe_set, cert)
print(f"\nre-verified: {report.passed} "
      f"(worst dynamics residual {report.dynamics.worst_residual:.2e})")

# Every box below a witness point is controlled-invariant as a union.
rcis = build_rcis(cert)
print(f"\ninvariant region: union of {len(rcis.region.boxes)} boxes")
corners = np.array([b.corner for b in rcis.region.boxes])
print("box corners:\n", np.round(corners, 4))

# The region answers "which control keeps me inside?" from any member point.
policy = feedback(rcis)
for p in [(10.0, 30.0), (20.0, 10.0), (40.0, 40.0)]:
    u = policy(0, np.array(p))
    print(f"policy at {p}: {'mode ' + str(u) if u is not None else 'outside region'}")
