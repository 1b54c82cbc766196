#!/usr/bin/python3
"""Where do trajectories under a repeated plan actually settle?

The invariant region from a certificate is conservative: run the plan long
enough and the state contracts onto a small periodic orbit.  This script
computes that orbit for the bundled two-state model, then checks empirically
that random disturbed runs are attracted to it.
"""

from importlib import resources

import numpy as np

from monosafe import (SplitMix64, SSequenceCertificate, build_attractive_set,
                      build_rcis, compute_limit_cycle, load_system_file,
                      open_loop, simulate, uniform)

DATA = resources.files("monosafe.data")
system, safe_set, _ = load_system_file(str(DATA / "case1.json"))
cert = SSequenceCertificate.load(str(DATA / "cert_case1.json"))

cycle = compute_limit_cycle(system, cert)
print(f"limit cycle found after {cycle.periods} periods "
      f"(residual {cycle.residual:.1e}, closure {cycle.closure_error:.1e})")
for k, p in enumerate(cycle.points):
    print(f"  x_inf_{k} = ({p[0]:.4f}, {p[1]:.4f})")
print(f"monotone violations during the descent: {cycle.monotone_violations}")

# The orbit sits strictly inside the certificate's invariant region.
omega = build_rcis(cert).region
gamma = build_attractive_set(cycle)
shrink = (cert.x_star[:-1] - cycle.points).max(axis=1)
print(f"gap between witness corners and cycle corners: "
      f"min {shrink.min():.3f}, max {shrink.max():.3f}")

# 20 random runs, each with its own disturbance stream.  Count how long each
# takes to enter the attractive region (phase-matched box membership) and
# confirm nobody ever leaves once in.
master = SplitMix64(7)
policy = open_loop(cert)
entry_steps = []
for i in range(20):
    traj = simulate(system, np.array([10.0, 32.0]), policy,
                    uniform(master.spawn(i)), steps=500,
                    safe_set=safe_set, omega=omega, gamma=gamma)
    assert all(traj.safe)
    first = next(k for k, g in enumerate(traj.in_gamma) if g)
    assert all(traj.in_gamma[first:]), "left the attractive region!"
    entry_steps.append(first)
print(f"entry step into the attractive region over 20 runs: "
      f"min {min(entry_steps)}, max {max(entry_steps)}")
