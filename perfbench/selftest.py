#!/usr/bin/env python3
"""Self-test of the benchmark's relabelling argument (not part of tier-1).

    python3 perfbench/selftest.py [--seeds 1 2]

A relabelled system is isomorphic to the bundled one, so every verdict must
be the same under any seed's labelling.  This checks, for two seeds:

* the relabelled step map is the bundled one conjugated by the permutation;
* the relabelled bundled certificates pass ``monosafe verify``;
* ``monosafe find`` gives identical verdicts (per-horizon statuses, T,
  minimality and, for case1, the objective Σx*_0) on case1_tour's sweep
  (all four labellings) and on traffic T=1..2 (each seed's labelling).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run

SWEEPS = {
    "case1": ["--tmax", "7"],
    "traffic": ["--tmax", "2", "--objective", "first-feasible"],
}


def verdict(workloads, lab, kind, out_dir):
    code, _ = workloads.run_cli(["find", "--system", lab.spec_path, "--out", out_dir]
                                + SWEEPS[kind])
    records, minimal, cert = workloads.read_find_output(out_dir)
    sigma = None if cert is None else round(float(sum(cert.x_star[0])), 6)
    verdict = (code, tuple((T, status) for T, status, _ in records),
               cert and cert.T, minimal, sigma)
    return verdict, [nodes for _, _, nodes in records]


def conjugation_error(workloads, lab, kind):
    """max |step'(Px, Pw, u') - P step(x, w, u)| over a few seeded points."""
    import numpy as np
    from monosafe.systems import load_system_file
    bundled = "case1.json" if kind == "case1" else "traffic_table1.json"
    base, _, _ = load_system_file(os.path.join(workloads.DATA, bundled))
    new, _, _ = load_system_file(lab.spec_path)
    perm = list(lab.perm)
    if lab.mode_order is None:
        mode_of = {u: u for u in base.controls}
    else:
        mode_of = {old + 1: k + 1 for k, old in enumerate(lab.mode_order)}
    rnd = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        x = rnd.uniform(0.0, 40.0, base.state_dim)
        w = rnd.uniform(0.0, 1.0, base.state_dim) * base.w_star
        u = base.controls[rnd.integers(len(base.controls))]
        worst = max(worst, float(np.max(np.abs(
            new.step(x[perm], w[perm], mode_of[u]) - base.step(x, w, u)[perm]))))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    args = parser.parse_args(argv)
    for v in run.BLAS_THREAD_VARS:
        os.environ[v] = "1"
    sys.path.insert(0, run.SRC)
    import workloads

    work = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(work)
    failures = []
    try:
        verdicts = {}
        for seed in args.seeds:
            seed_dir = os.path.join(work, str(seed))
            os.makedirs(seed_dir)
            for kind, count in (("case1", 4), ("traffic", 1)):
                for lab in workloads.make_labellings(kind, seed, count, seed_dir):
                    err = conjugation_error(workloads, lab, kind)
                    if err > 1e-9:
                        failures.append(f"seed {seed} {lab.tag}: step differs by {err:.3g}")
                    code, out = workloads.run_cli(["verify", "--system", lab.spec_path,
                                                   "--certificate", lab.cert_path])
                    if workloads.check_verify(code, out):
                        failures.append(f"seed {seed} {lab.tag}: bundled certificate "
                                        f"fails verify (exit {code})")
                    v, nodes = verdict(workloads, lab, kind, os.path.join(seed_dir, lab.tag))
                    verdicts.setdefault(kind, []).append((seed, lab.perm, v))
                    print(f"seed {seed} {lab.tag} perm {lab.perm} modes {lab.mode_order}: "
                          f"exit {v[0]}, statuses {[st for _, st in v[1]]}, T={v[2]}, "
                          f"minimal={v[3]}, sigma={v[4]}, nodes {nodes}")
        for kind, rows in verdicts.items():
            if len({v for _, _, v in rows}) != 1:
                failures.append(f"{kind}: verdicts differ across labellings")
            if len({perm for _, perm, _ in rows}) < 2:
                failures.append(f"{kind}: the seeds gave no second labelling")
        case1 = verdicts["case1"][0][2]
        if case1[2] != 7 or not case1[3] or abs(case1[4] - workloads.CASE1_SIGMA) > 1e-6:
            failures.append(f"case1 verdict {case1} is not the frozen T=7, minimal, 50")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print("FAILED", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
