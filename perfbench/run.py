#!/usr/bin/env python3
"""monosafe benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload case1_tour --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics for ``--seconds``
seconds.  ``--trace 1`` runs a fixed amount of work twice, untraced and with
every layer wrapped in spans, interleaved, and reports per-layer numbers and
the tracing overhead.  ``--workload all`` runs each workload in its own process
(with ``--trace 1`` both modes) and prints one table across them.

End-to-end times are scaled to a reference host speed measured beside each
operation (``reference.py``); the raw wall times are printed next to them.
Load is one caller in a closed loop: one process, no threads, and the next
operation starts only after the previous one returned.  The last line of
standard output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only if every operation was correct.
Results, with the environment they were measured in, go to
``.perfbench/results/`` and traced spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("case1_tour", "traffic_proof", "traffic_plan")

# pinned before numpy loads, so both sides of a comparison use one BLAS thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5           # set-up samples per run: this process and 4 fresh ones
TRACED_ROLLOUTS = 30        # rollouts per phase of a traced run
SUBPROCESS_TIMEOUT = 170

# times are scaled to the reference host speed (reference.py); the *_wall_*
# metrics and ref_ms are the raw wall times and the host's speed beside them
E2E_UNITS = {
    "setup_s": "s", "find_s": "s", "rollout_ms_p50": "ms", "rollout_ms_p90": "ms",
    "sim_steps_per_s": "steps/s", "peak_rss_mb": "MB",
    "setup_wall_s": "s", "find_wall_s": "s", "rollout_wall_ms_p90": "ms", "ref_ms": "ms",
}
# the metrics of BENCHMARK.json; the wall times are in the table and results
# file only, because the host's speed level moves them by more than any bound
# the benchmark may set
END_TO_END = ("setup_s", "find_s", "rollout_ms_p50", "rollout_ms_p90",
              "sim_steps_per_s", "peak_rss_mb")
PER_LAYER = {
    "milp.solve_s": "s", "milp.nodes": "count", "milp.ms_per_node": "ms",
    "milp.root_lp_ms": "ms",
    "encode.build_ms": "ms", "encode.rows": "count", "encode.cols": "count",
    "encode.binaries": "count",
    "invariance.sweep_self_ms": "ms", "invariance.horizons": "count",
    "invariance.limit_cycle_ms": "ms", "invariance.limit_cycle_periods": "count",
    "cli.self_ms": "ms",
    "systems.step_calls": "count", "systems.step_us": "us", "systems.load_ms": "ms",
    "simulate.rollout_self_ms": "ms", "simulate.verify_ms": "ms",
    "order.membership_calls": "count", "order.membership_us": "us",
    "rng.draws": "count",
    "trace.find_overhead_pct": "%", "trace.rollout_overhead_pct": "%",
}
# in the table and results file only: a share with no better direction, and
# times undefined where a workload never calls the layer (traffic_proof never
# decodes, traffic_plan never draws)
PER_LAYER_TABLE_ONLY = {"milp.find_share_pct": "%", "encode.decode_ms": "ms",
                        "rng.draw_us": "us"}


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

class Ops:
    """Runs operations one after another; records times and failures."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.times = {"find": [], "verify": [], "rollout": []}     # wall seconds
        self.scaled = {"find": [], "verify": [], "rollout": []}    # untraced only
        self.refs = []              # reference loop seconds beside each operation
        self.find_keys = []         # labelling of each entry of times["find"]
        self.steps = 0
        self.attempted = 0
        self.failures = []
        self.minted = None          # (spec, certificate) of the first successful find

    def _run(self, kind, timed, check):
        """Time ``timed()``; then ``check(result)`` returns a list of errors.

        Returns the wall time, or None if the operation raised.

        With a tracer, only ``timed()`` runs traced; the check does not.
        Without one, the reference loop runs right before and right after
        ``timed()`` and the scaled time is recorded too.
        """
        from reference import timed_scaled
        self.attempted += 1
        scaled = None
        try:
            if self.tracer is None:
                result, dt, scaled, ref = timed_scaled(timed)
            else:
                with self.tracer.active(), self.tracer.span(f"bench.{kind}", op=True) as span:
                    result = timed()
                dt = span.seconds
            errors = check(result)
        except Exception:   # an operation that raises is a failed operation
            errors = ["raised " + traceback.format_exc(limit=3).strip().replace("\n", " | ")]
            dt = None
        if dt is not None:
            self.times[kind].append(dt)
            if scaled is not None:
                self.scaled[kind].append(scaled)
                self.refs.append(ref)
        if errors:
            self.failures.append({"op": kind, "index": self.attempted, "errors": errors})
        return dt

    def find(self, lab):
        """One find; its labelling is recorded with its time."""
        from workloads import check_find, run_cli
        out_dir = tempfile.mkdtemp(prefix="find", dir=self.wl.work)
        argv = self.wl.find_argv(lab, out_dir)

        def check(result):
            errors = check_find(self.wl.expect, result[0], out_dir, lab.spec_path)
            cert = os.path.join(out_dir, "certificate.json")
            if not errors and self.minted is None and os.path.exists(cert):
                self.minted = (lab.spec_path, cert)
            return errors
        if self._run("find", lambda: run_cli(argv), check) is not None:
            self.find_keys.append(lab.tag)

    def verify(self, spec_path, cert_path):
        from workloads import check_verify, run_cli
        argv = ["verify", "--system", spec_path, "--certificate", cert_path]
        return self._run("verify", lambda: run_cli(argv), lambda r: check_verify(*r))

    def rollout(self, i):
        from workloads import check_rollout
        inputs = self.wl.rollout_inputs(i)

        def check(traj):
            self.steps += len(traj) - 1
            return check_rollout(traj, need_gamma=inputs["gamma"] is not None)
        return self._run("rollout", lambda: self.wl.rollout(i, inputs), check)

    def find_time(self, times):
        """Mean over labellings of each labelling's median find time.

        Labellings differ in cost (case1's take 311 to 361 nodes), and a run
        may find one of them once more than another; a median over all
        finds would then move with the mix.
        """
        by_key = {}
        for key, dt in zip(self.find_keys, times):
            by_key.setdefault(key, []).append(dt)
        return statistics.mean(statistics.median(v) for v in by_key.values())

    def verifies(self):
        for spec_path, cert_path in self.wl.verify_targets(self.minted):
            self.verify(spec_path, cert_path)


def measure(wl, seconds):
    """Untraced run: finds interleaved with rollouts for ``seconds``.

    Finds get the workload's share of the elapsed time: the next operation
    is a find while finds are behind that share and a find as long as the
    last one still fits in the run, otherwise a rollout.  Finds cycle
    through the workload's labellings.  So both kinds are spread over the
    whole run.  The verifies follow the first find.  At least one find and
    ``MIN_ROLLOUTS`` rollouts run.
    """
    from workloads import MIN_ROLLOUTS
    ops = Ops(wl)
    labs = wl.find_labellings()
    start = time.perf_counter()
    find_total = last_find = 0.0
    finds = rollouts = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and rollouts >= MIN_ROLLOUTS:
            break
        if not finds or (find_total <= wl.find_share * elapsed
                         and elapsed + last_find <= seconds):
            t0 = time.perf_counter()
            ops.find(labs[finds % len(labs)])
            last_find = time.perf_counter() - t0
            if not finds:
                ops.verifies()
            finds += 1
            find_total += last_find
        else:
            ops.rollout(rollouts)
            rollouts += 1
    return ops


def traced_run(wl, spans_path):
    """The same fixed work untraced and traced, interleaved; per-layer metrics.

    Untraced and traced operations alternate (find, traced find, find; then
    rollout pairs), so that both see the same drift of the host's speed.
    """
    from monosafe import milp
    from monosafe.certificate import SSequenceCertificate
    from tracing import Tracer
    from workloads import invariance, systems

    lab = wl.find_labellings()[0]
    tracer = Tracer(observe={"milp.solve_milp", "encode.encode_switched",
                             "encode.encode_traffic", "invariance.compute_limit_cycle"})
    plain, traced = Ops(wl), Ops(wl, tracer)
    with tracer.active(), tracer.span("bench.prepare"):
        system, _, _ = systems.load_system_file(wl.plan.lab.spec_path)
        invariance.compute_limit_cycle(system, SSequenceCertificate.load(wl.plan.lab.cert_path))
    plain.find(lab)
    traced.find(lab)
    plain.find(lab)
    models = [art.model for name in ("encode.encode_switched", "encode.encode_traffic")
              for art in tracer.results[name]]
    with tracer.active():
        for model in models:            # one cold LP per horizon's model
            with tracer.span("bench.root_lp", op=True):
                milp.solve_lp(model)
    traced.verifies()
    for i in range(TRACED_ROLLOUTS):
        plain.rollout(i)
        traced.rollout(i)
    tracer.write(spans_path)
    layer, table_only, self_times = unless_failed(
        plain.failures + traced.failures,
        lambda: layer_metrics(tracer, plain, models), ({}, {}, {}))
    return plain, traced, layer, table_only, self_times


def layer_metrics(tracer, plain, models):
    from tracing import MEMBERSHIP
    s = tracer.spans()

    def total(name, under=None):
        return float(s.durations(name, under).sum())

    def mean(name, scale):
        d = s.durations(name)
        return float(d.mean()) * scale if d.size else None

    solves = tracer.results["milp.solve_milp"]
    nodes = sum(sol.nodes for sol in solves)
    solve_s = total("milp.solve_milp")
    find_s = total("bench.find")
    encodes = (s.durations("encode.encode_switched").tolist()
               + s.durations("encode.encode_traffic").tolist())
    cycles = tracer.results["invariance.compute_limit_cycle"]
    memb = [s.durations(n) for n in MEMBERSHIP]
    memb_calls = sum(d.size for d in memb)
    memb_time = sum(float(d.sum()) for d in memb)
    rollout_traced = statistics.median(s.durations("bench.rollout").tolist())
    rollout_plain = statistics.median(plain.times["rollout"])
    layer = {
        "milp.solve_s": solve_s,
        "milp.nodes": nodes,
        "milp.ms_per_node": 1000.0 * solve_s / nodes,
        "milp.root_lp_ms": 1000.0 * float(s.durations("milp.solve_lp")[-1]),
        "encode.build_ms": 1000.0 * statistics.mean(encodes),
        "encode.rows": models[-1].num_constraints,
        "encode.cols": models[-1].num_vars,
        "encode.binaries": len(models[-1].binary_indices),
        "invariance.sweep_self_ms": 1000.0 * float(s.own("invariance.find_s_sequence").sum()),
        "invariance.horizons": len(encodes),
        "invariance.limit_cycle_ms": mean("invariance.compute_limit_cycle", 1000.0),
        "invariance.limit_cycle_periods": cycles[-1].periods,
        "cli.self_ms": 1000.0 * float(s.own("cli.main", under="bench.find").sum()),
        "systems.step_calls": int(s.durations("systems.step").size),
        "systems.step_us": mean("systems.step", 1e6),
        "systems.load_ms": mean("systems.load_system_file", 1000.0),
        "simulate.rollout_self_ms": 1000.0 * float(s.own("simulate.simulate").mean()),
        "simulate.verify_ms": mean("simulate.verify_certificate", 1000.0),
        "order.membership_calls": memb_calls,
        "order.membership_us": 1e6 * memb_time / memb_calls,
        "rng.draws": int(s.durations("rng.uniform").size),
        "trace.find_overhead_pct": 100.0 * (find_s / statistics.mean(plain.times["find"]) - 1.0),
        "trace.rollout_overhead_pct": 100.0 * (rollout_traced / rollout_plain - 1.0),
    }
    table_only = {"milp.find_share_pct": 100.0 * solve_s / find_s,
                  "encode.decode_ms": mean("encode.decode", 1000.0),
                    "rng.draw_us": mean("rng.uniform", 1e6)}
    return layer, table_only, s.self_by_layer()


# --------------------------------------------------------------------------
# statistics and environment
# --------------------------------------------------------------------------

def unless_failed(failures, compute, empty):
    """``compute()``; if operations failed, a metric may lack samples: ``empty``."""
    try:
        return compute()
    except (statistics.StatisticsError, IndexError, KeyError, ZeroDivisionError):
        if failures:
            return empty
        raise


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def highest_percentile(n):
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99, 99.9):
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def summary(value, values, scale=1.0, high=False):
    """A metric's value and sample count; with ``high``, also the highest
    percentile that has at least ten samples beyond it."""
    out = {"value": value, "n": len(values)}
    p = highest_percentile(len(values)) if high else None
    if p is not None and p > 50:
        out["p_high"] = [p, percentile(values, p) * scale]
    return out


def git_commit():
    """Commit of the checkout from ``.git`` files, without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, inherited):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_set": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "blas_threads_inherited": inherited,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def setup(name, seed, work):
    """Import, relabel, load, RCIS and limit cycle, warm-up.

    Returns (workload, errors, {"setup_s": scaled, "setup_wall_s": wall}).
    The reference loop runs three times after set-up, not before, so that
    set-up still imports numpy.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    wl = WORKLOADS[name](seed, work)
    errors = wl.prepare()
    wall = time.perf_counter() - t0
    from reference import REF_SECONDS, reference_loop
    ref = statistics.median(reference_loop() for _ in range(3))
    return wl, errors, {"setup_s": wall * REF_SECONDS / ref, "setup_wall_s": wall}


def setup_in_fresh_process(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def run_workload(args, inherited):
    work = os.path.join(OUT, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl, setup_errors, setup_times = setup(args.workload, args.seed, work)
        if args.setup_only:
            if setup_errors:
                print("; ".join(setup_errors), file=sys.stderr)
                return 1
            print(json.dumps(setup_times))
            return 0
        setups = [setup_times] + [setup_in_fresh_process(args)
                                  for _ in range(SETUP_REPEATS - 1)]
        return report(args, inherited, wl, setup_errors, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def end_to_end(ops, setups):
    finds, rollouts = ops.scaled["find"], ops.scaled["rollout"]
    wall = ops.times["rollout"]
    setup_s = [s["setup_s"] for s in setups]
    setup_wall = [s["setup_wall_s"] for s in setups]
    e2e = {
        "setup_s": summary(statistics.median(setup_s), setup_s),
        "find_s": summary(ops.find_time(finds), finds, high=True),
        "rollout_ms_p50": summary(percentile(rollouts, 50) * 1000.0, rollouts),
        "rollout_ms_p90": summary(percentile(rollouts, 90) * 1000.0, rollouts, 1000.0,
                                  high=True),
        "sim_steps_per_s": summary(ops.steps / sum(rollouts), rollouts),
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "n": 1},
        "setup_wall_s": summary(statistics.median(setup_wall), setup_wall),
        "find_wall_s": summary(ops.find_time(ops.times["find"]), ops.times["find"]),
        "rollout_wall_ms_p90": summary(percentile(wall, 90) * 1000.0, wall),
        "ref_ms": summary(statistics.median(ops.refs) * 1000.0, ops.refs),
    }
    for name, unit in E2E_UNITS.items():
        e2e[name]["unit"] = unit
    return e2e


def report(args, inherited, wl, setup_errors, setups):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"environment": environment(args, inherited)}
    if args.trace:
        spans_path = os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.npz")
        plain, ops, layer, table_only, self_times = traced_run(wl, spans_path)
        ops.attempted += plain.attempted
        ops.failures = plain.failures + ops.failures
        result.update(per_layer=layer, per_layer_table_only=table_only,
                      self_ms_by_layer=self_times, spans=os.path.relpath(spans_path, ROOT))
        e2e_ops = plain
    else:
        ops = e2e_ops = measure(wl, args.seconds)
    e2e = unless_failed(ops.failures, lambda: end_to_end(e2e_ops, setups), {})
    failed = len(ops.failures) + len(setup_errors)
    attempted = ops.attempted
    result.update(end_to_end=e2e, attempted=attempted, failed=failed,
                  error_rate=failed / attempted,
                  failures=[{"op": "setup", "errors": setup_errors}] * bool(setup_errors)
                  + ops.failures[:20])
    with open(os.path.join(OUT, "results", stem + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print_header(result["environment"])
    print_end_to_end({args.workload: result}, traced=bool(args.trace))
    if args.trace:
        print_per_layer({args.workload: result})
    for f in result["failures"]:
        print(f"FAILED {f['op']}: {'; '.join(f['errors'])}")
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in e2e.items() if k in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def print_header(env):
    print(f"monosafe benchmark  commit {env['commit'][:12]}  seed {env['seed']}  "
          f"python {env['python']}  numpy {env['numpy']}  "
          f"BLAS {env['blas'].get('name')} {env['blas'].get('version')} "
          f"(threads pinned to {env['blas_threads_set']['OPENBLAS_NUM_THREADS']})  "
          f"nproc {env['nproc']}  {env['cpu']}")


def print_end_to_end(results, traced):
    names = list(results)
    title = ("end-to-end (untraced phase of a traced run)" if traced
             else "end-to-end")
    print(f"\n{title}: value [samples]")
    print(f"  {'metric':<21}{'unit':<9}" + "".join(f"{n:>26}" for n in names))
    for metric, unit in E2E_UNITS.items():
        cells = []
        for n in names:
            m = results[n]["end_to_end"].get(metric)
            if m is None:           # no samples: the run's operations failed
                cells.append("-")
                continue
            extra = f" p{m['p_high'][0]:g}={_fmt(m['p_high'][1])}" if m.get("p_high") else ""
            cells.append(f"{_fmt(m['value'])} [{m['n']}]{extra}")
        print(f"  {metric:<21}{unit:<9}" + "".join(f"{c:>26}" for c in cells))
    cells = [f"{_fmt(r['error_rate'])} ({r['failed']}/{r['attempted']})"
             for r in results.values()]
    print(f"  {'error_rate':<21}{'ratio':<9}" + "".join(f"{c:>26}" for c in cells))


def print_per_layer(results):
    names = list(results)
    units = dict(PER_LAYER, **PER_LAYER_TABLE_ONLY)
    print("\nper-layer (traced run)")
    print(f"  {'metric':<32}{'unit':<7}" + "".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        cells = [_fmt({**r["per_layer"], **r["per_layer_table_only"]}.get(metric))
                 for r in results.values()]
        print(f"  {metric:<32}{unit:<7}" + "".join(f"{c:>16}" for c in cells))
    layers = sorted({k for r in results.values() for k in r["self_ms_by_layer"]})
    print("\nself time by layer over the traced work, ms (share)")
    for layer in layers:
        cells = []
        for r in results.values():
            t = r["self_ms_by_layer"]
            v = t.get(layer)
            cells.append("-" if v is None else f"{v:.1f} ({100 * v / sum(t.values()):.1f}%)")
        print(f"  {layer:<39}" + "".join(f"{c:>16}" for c in cells))


# --------------------------------------------------------------------------
# all workloads
# --------------------------------------------------------------------------

def run_all(args):
    """Each workload in its own process; one table across them."""
    results, ok = {}, True
    modes = (0, 1) if args.trace else (0,)
    for name in NAMES:
        for trace in modes:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT)
            ok = ok and proc.returncode == 0
            path = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{trace}.json")
            if not os.path.exists(path):
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            with open(path) as fh:
                data = json.load(fh)
            if trace == 0:
                results[name] = data
            else:
                results[name].update({k: data[k] for k in
                                      ("per_layer", "per_layer_table_only",
                                       "self_ms_by_layer")})
                results[name]["traced_failed"] = data["failed"]
    print_header(next(iter(results.values()))["environment"])
    print_end_to_end(results, traced=False)
    if args.trace:
        print_per_layer(results)
    failed = sum(r["failed"] + r.get("traced_failed", 0) for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    metrics = {f"{n}/{k}": {"value": v["value"], "unit": v["unit"]}
               for n, r in results.items() for k, v in r["end_to_end"].items()
               if k in END_TO_END}
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok and failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    inherited = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    for v in BLAS_THREAD_VARS:
        os.environ[v] = "1"
    if not os.path.isfile(os.path.join(SRC, "monosafe", "__init__.py")):
        print(f"error: no monosafe sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, inherited)


if __name__ == "__main__":
    sys.exit(main())
