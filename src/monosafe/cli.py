"""Command-line front end: certificate search, verification, simulation.

Exit codes are a stable contract: 0 success, 1 input error, 2 negative
result (not found / verification failed), 3 inconclusive (budget ran out),
4 internal or numerical failure (``find``: no certificate, and at some
horizon the solver could not certify its own answer or a solution did not
survive decoding; or no limit cycle converged).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from importlib import resources

import numpy as np

from .certificate import SSequenceCertificate
from .encode import DecodeMismatchError
from .invariance import (LimitCycleError, build_attractive_set, build_rcis,
                         compute_limit_cycle, find_s_sequence)
from .milp import MilpError
from .order import Box
from .simulate import (_fmt_control, feedback, open_loop, simulate, uniform,
                       verify_certificate, worst_case_w_star, write_trajectory_csv)
from .systems import TrafficNetwork, load_system_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1), not negative results (exit 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


class InputError(Exception):
    pass


def _resolve_path(path):
    """Accept real paths or the bare names of bundled data files."""
    if os.path.isdir(path):
        raise InputError(f"is a directory, not a file: {path}")
    if os.path.exists(path):
        return str(path)
    candidate = resources.files("monosafe.data") / os.path.basename(path)
    if os.path.basename(path) == path and candidate.is_file():
        return str(candidate)
    raise InputError(f"no such file: {path}")


def _parse_input(parse, path, what):
    """``parse(resolved path)``; malformed JSON content is an input error."""
    resolved = _resolve_path(path)
    try:
        return parse(resolved)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{what} {path}: {exc}")


def _load_system(args):
    """The spec's system, safe set and hash; a spec without a safe set is an input error."""
    sys_, safe_set, digest = _parse_input(
        lambda path: load_system_file(path, args.beta_resolution),
        args.system, "cannot parse system spec")
    if safe_set is None:
        raise InputError(f"system spec {args.system} has no \"safe_set\"")
    return sys_, safe_set, digest


def _load_certificate(args, digest):
    """The ``--certificate`` file, which must name this system's hash if any."""
    cert = _parse_input(SSequenceCertificate.load, args.certificate,
                        "cannot parse certificate")
    if cert.system_hash is not None and cert.system_hash != digest:
        raise InputError(f"certificate was issued for system hash {cert.system_hash}, "
                         f"but {args.system} hashes to {digest}")
    return cert


def _out_dir(args):
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # a file of that name, or a file on the way to it
        raise InputError(f"cannot create output directory {out}: {exc.strerror}")
    return out


def _parse_x0(text, dim):
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise InputError(f"--x0 must be comma-separated numbers, got {text!r}")
    if vec.shape[0] != dim:
        raise InputError(f"--x0 has {vec.shape[0]} entries, system needs {dim}")
    return vec


def cmd_find(args):
    sys_, safe_set, digest = _load_system(args)
    out = _out_dir(args)
    objective = {"max-l1": "max_l1_x0", "first-feasible": "first_feasible"}[args.objective]
    dump = os.path.join(out, "model") if args.dump_lp else None
    result = find_s_sequence(
        sys_, safe_set, t_max=args.tmax, objective=objective,
        time_budget=args.time_budget, node_budget=args.node_budget,
        t_min=args.tmin, dump_lp=dump)

    lines = [f"system: {args.system}  (hash {digest})", "horizon sweep:"]
    for r in result.records:
        lines.append(f"  T={r.T}: {r.status}  [{r.solver_status}, "
                     f"{r.nodes} nodes, {r.pivots} pivots, "
                     f"{r.refactorizations} refactorizations, "
                     f"{r.farkas_leaves} Farkas leaves, {r.elapsed:.2f}s]"
                     + (f" {r.failure}" if r.failure else "")
                     + _source_text(r)
                     + (_closed_by(r.parallel_rows) if r.parallel_rows else ""))
    if result.found:
        cert = dataclasses.replace(result.certificate, system_hash=digest)
        cert.save(os.path.join(out, "certificate.json"))
        rcis = build_rcis(cert)
        _write_points_csv(os.path.join(out, "rcis_corners.csv"), "box", rcis.region.corners)
        lines.append(f"found: s-sequence of length T={cert.T}"
                     + (" (minimal)" if result.minimal else " (minimality not proven)"))
        lines.append(f"controls: {_control_text(cert.controls)}")
        if objective == "max_l1_x0":
            proven = result.records[-1].solver_status == "optimal"
            lines.append(f"max-l1: sum of x*_0 = {float(np.sum(cert.x_star[0])):.10g} "
                         f"({'' if proven else 'not '}proven optimal)")
        lines.append(f"wrote certificate.json and rcis_corners.csv to {out}")
        code = EXIT_OK
    elif result.failures:
        lines.append(f"no certificate up to T={args.tmax}; the solver failed at "
                     + ", ".join(f"T={r.T}" for r in result.failures))
        code = EXIT_INTERNAL
    elif result.budget_limited:
        lines.append(f"no certificate up to T={args.tmax}; at least one horizon "
                     "hit the budget — existence undecided")
        code = EXIT_INCONCLUSIVE
    else:
        lines.append(f"no s-sequence exists for any T <= {args.tmax} (proven)")
        code = EXIT_NEGATIVE
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(text + "\n")
    if code == EXIT_INTERNAL:
        print("error: internal failure at "
              + "; ".join(f"T={r.T} ({r.failure})" for r in result.failures),
              file=sys.stderr)
    return code


def _source_text(record):
    """Where a found horizon's plan came from, or what refuted a horizon
    with no LP: ``source`` "exact least fixed points, 14 necklaces" reads
    "refuted by exact least fixed points of 14 necklaces"."""
    if not record.source:
        return ""
    if record.status == "found":
        return f" plan from {record.source}"
    route, _, extent = record.source.partition(", ")
    return f" refuted by {route} of {extent}"


def _closed_by(rows):
    """The two contradicting rows, named as ``--dump-lp`` names them."""
    return (f" closed by rows c{rows.lo_row} >= {rows.lo:.17g}"
            f" and c{rows.hi_row} <= {rows.hi:.17g}")


def _control_text(controls):
    sep = "; " if controls and isinstance(controls[0], tuple) else ","
    return sep.join(_fmt_control(u) for u in controls)


def _write_points_csv(path, label, points):
    """Header ``label,x_1..x_n``, then one ``index,coordinates`` row per point."""
    n = points[0].shape[0]
    with open(path, "w") as fh:
        fh.write(f"{label}," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for p, point in enumerate(points):
            fh.write(f"{p}," + ",".join(repr(float(v)) for v in point) + "\n")


def cmd_verify(args):
    sys_, safe_set, digest = _load_system(args)
    cert = _load_certificate(args, digest)
    out = _out_dir(args) if args.out else None
    report = verify_certificate(sys_, safe_set, cert)
    payload = report.to_dict()
    payload["system_hash"] = digest
    payload["beta_resolution"] = args.beta_resolution if isinstance(sys_, TrafficNetwork) else None
    print(json.dumps(payload, indent=2))
    if out:
        with open(os.path.join(out, "verify_report.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_simulate(args):
    sys_, safe_set, digest = _load_system(args)
    cert = _load_certificate(args, digest)
    out = _out_dir(args)
    x0 = cert.x_star[0] if args.x0 is None else _parse_x0(args.x0, sys_.state_dim)
    rcis = build_rcis(cert)
    cycle = compute_limit_cycle(sys_, cert)
    gamma = build_attractive_set(cycle)
    policy = feedback(rcis) if args.policy == "feedback" else open_loop(cert)
    if args.policy == "open-loop" and not Box(cert.x_star[0]).contains(x0):
        print("warning: x0 lies outside R(x*_0); the periodic trajectory is no "
              "longer an upper bound and convergence to the attractive set is "
              "not guaranteed", file=sys.stderr)
    adversary = (worst_case_w_star() if args.adversary == "worst-case"
                 else uniform(args.seed))
    traj = simulate(sys_, x0, policy, adversary, args.steps,
                    safe_set=safe_set, omega=rcis.region, gamma=gamma)
    write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    _write_points_csv(os.path.join(out, "limit_cycle.csv"), "phase", cycle.points)
    print(f"simulated {len(traj) - 1} steps ({traj.status}); "
          f"safe {sum(bool(s) for s in traj.safe)}/{len(traj)}, "
          f"in attractive set at end: {bool(traj.in_gamma[-1])}")
    print(f"limit cycle: {cycle.periods} periods to residual {cycle.residual:.2e}")
    print(f"wrote trajectory.csv and limit_cycle.csv to {out}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="monosafe",
                     description="s-sequence search, verification, and "
                                 "simulation for monotone safety control")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, certificate=False):
        p.add_argument("--system", required=True,
                       help="system spec JSON (bundled names like case1.json work)")
        p.add_argument("--beta-resolution", choices=("first", "second"), default="first",
                       help="which listed value of a duplicated turn ratio to use")
        p.add_argument("--out", default=None, help="output directory")
        if certificate:
            p.add_argument("--certificate", required=True, help="certificate JSON")

    p_find = sub.add_parser("find", help="sweep horizons for an s-sequence")
    common(p_find)
    p_find.add_argument("--tmax", type=int, default=10)
    p_find.add_argument("--tmin", type=int, default=1,
                        help="skip horizons below this (forfeits minimality claims)")
    p_find.add_argument("--objective", choices=("max-l1", "first-feasible"),
                        default="max-l1")
    p_find.add_argument("--time-budget", type=float, default=None, metavar="S")
    p_find.add_argument("--node-budget", type=int, default=None, metavar="N")
    p_find.add_argument("--dump-lp", action="store_true",
                        help="write each horizon's model in LP format to the output dir")
    p_find.set_defaults(func=cmd_find)

    p_verify = sub.add_parser("verify", help="check a certificate by simulation")
    common(p_verify, certificate=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="roll the closed loop forward")
    common(p_sim, certificate=True)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--x0", default=None,
                       help="initial state as comma-separated numbers (default x*_0)")
    p_sim.add_argument("--policy", choices=("open-loop", "feedback"), default="open-loop")
    p_sim.add_argument("--adversary", choices=("uniform", "worst-case"), default="uniform")
    p_sim.add_argument("--seed", type=int, default=0, metavar="U64")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser():
    """``build_parser()`` once per process; parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (InputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (MilpError, DecodeMismatchError, LimitCycleError) as exc:
        print(f"error: internal failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
