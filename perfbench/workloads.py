"""The three benchmark workloads: inputs made from a seed, operations, checks.

Every operation goes through monosafe's public entry points: ``find`` and
``verify`` through ``monosafe.cli.main`` in-process (the user's command and
its exit-code contract), rollouts through ``monosafe.simulate.simulate``.
The program only ever sees the generated inputs: an isomorphic relabelling
of a bundled system (a permutation of the coordinates, plus the mode order
for the switched system), the matching relabelled certificate, and seeded
rollout streams and initial states.  Verdicts are invariant under the
relabelling; the solver's path is not.

Module layers are looked up as module attributes at call time, so the
tracer in ``tracing.py`` can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass

import numpy as np

from monosafe import cli, invariance, rng, systems
from monosafe.certificate import SSequenceCertificate

# the package re-exports the function ``simulate`` under the module's name
simulate = importlib.import_module("monosafe.simulate")

DATA = os.path.join(os.path.dirname(os.path.abspath(cli.__file__)), "data")

ROLLOUT_STEPS = 1000
MIN_ROLLOUTS = 100          # p90 then has ten samples beyond it
CASE1_SIGMA = 50.0          # frozen max-l1 optimum of case1 at T=7
CASE1_PERIODS = 349         # frozen limit-cycle length of cert_case1
OBJ_TOL = 1e-6


# --------------------------------------------------------------------------
# relabelling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Labelled:
    """One relabelling of a bundled system and certificate, written to disk."""
    tag: str
    perm: tuple             # new coordinate i is old coordinate perm[i]
    mode_order: tuple | None  # case1: new mode k+1 is old mode mode_order[k]+1
    spec_path: str
    cert_path: str


def relabel_switched(spec, cert, perm, mode_order):
    """New coordinate i = old perm[i]; new mode k+1 = old mode mode_order[k]+1."""
    modes = [[[spec["modes"][m][perm[i]][perm[j]] for j in range(len(perm))]
              for i in range(len(perm))] for m in mode_order]
    new = {"type": "switched_affine", "modes": modes,
           "w_star": [spec["w_star"][p] for p in perm],
           "safe_set": {"A": [[row[p] for p in perm] for row in spec["safe_set"]["A"]],
                        "b": list(spec["safe_set"]["b"])}}
    label_of = {old + 1: k + 1 for k, old in enumerate(mode_order)}
    new_cert = dict(cert, controls=[label_of[u] for u in cert["controls"]],
                    x_star=[[x[p] for p in perm] for x in cert["x_star"]],
                    system_hash=systems.system_hash(new))
    return new, new_cert


def relabel_traffic(spec, cert, perm):
    """Reorder the link list; junctions, and so the controls, are unchanged."""
    new = dict(spec, links=[spec["links"][p] for p in perm])
    new_cert = dict(cert, x_star=[[x[p] for p in perm] for x in cert["x_star"]],
                    system_hash=systems.system_hash(new))
    return new, new_cert


def _read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)


def make_labellings(kind, seed, count, work):
    """``count`` seeded relabellings of case1 or traffic, written under ``work``.

    The first one is the run's primary labelling: rollouts and verifies use
    it.  case1 has only four labellings (two coordinate orders times two
    mode orders); they come in a seeded order.
    """
    rnd = random.Random(f"{kind}:{seed}")
    if kind == "case1":
        spec, cert = _read("case1.json"), _read("cert_case1.json")
        choices = list(itertools.product(itertools.permutations(range(2)),
                                         itertools.permutations(range(2))))
        rnd.shuffle(choices)
        choices = [choices[i % len(choices)] for i in range(count)]
    else:
        spec, cert = _read("traffic_table1.json"), _read("cert_table2.json")
        n = len(spec["links"])
        choices = [tuple(rnd.sample(range(n), n)) for _ in range(count)]
    out = []
    for i, choice in enumerate(choices):
        if kind == "case1":
            perm, mode_order = choice
            new, new_cert = relabel_switched(spec, cert, perm, mode_order)
        else:
            perm, mode_order = choice, None
            new, new_cert = relabel_traffic(spec, cert, perm)
        lab = Labelled(f"{kind}{i}", tuple(perm), mode_order, os.path.join(work, f"{kind}{i}.json"),
                       os.path.join(work, f"{kind}{i}_cert.json"))
        _write(lab.spec_path, new)
        _write(lab.cert_path, new_cert)
        out.append(lab)
    return out


# --------------------------------------------------------------------------
# operations through the command line
# --------------------------------------------------------------------------

def run_cli(argv):
    """``monosafe <argv>`` in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


_RECORD = re.compile(r"^\s+T=(\d+): (\w+)\s+\[(\w+), (\d+) nodes")


def read_find_output(out_dir):
    """Per-horizon records and the certificate from a ``find`` output dir."""
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        text = fh.read()
    records = [(int(m[1]), m[2], int(m[4]))
               for m in map(_RECORD.match, text.splitlines()) if m]
    cert_path = os.path.join(out_dir, "certificate.json")
    cert = SSequenceCertificate.load(cert_path) if os.path.exists(cert_path) else None
    return records, "(minimal)" in text, cert


def check_find(expect, code, out_dir, spec_path):
    """Errors of one ``find`` against its frozen answer (empty list: correct)."""
    errors = []
    if code != expect["code"]:
        errors.append(f"exit code {code}, expected {expect['code']}")
        return errors
    records, minimal, cert = read_find_output(out_dir)
    statuses = [(T, status) for T, status, _ in records]
    if statuses != expect["statuses"]:
        errors.append(f"horizon statuses {statuses}, expected {expect['statuses']}")
    if expect["found_T"] is None:
        if cert is not None:
            errors.append("a certificate was written for a negative answer")
        return errors
    if cert is None or cert.T != expect["found_T"]:
        errors.append(f"certificate T={cert and cert.T}, expected {expect['found_T']}")
        return errors
    if minimal != expect["minimal"]:
        errors.append(f"minimal={minimal}, expected {expect['minimal']}")
    if expect.get("sigma") is not None:
        sigma = float(np.sum(cert.x_star[0]))
        if abs(sigma - expect["sigma"]) > OBJ_TOL:
            errors.append(f"sum of x*_0 is {sigma!r}, expected {expect['sigma']}")
    system, safe_set, _ = systems.load_system_file(spec_path)
    if not simulate.verify_certificate(system, safe_set, cert).passed:
        errors.append("minted certificate fails verification")
    return errors


def check_verify(code, stdout):
    if code != cli.EXIT_OK:
        return [f"verify exit code {code}, expected 0"]
    if not json.loads(stdout)["passed"]:
        return ["verify report says not passed"]
    return []


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

def _gamma_errors(flags):
    entered = False
    for k, flag in enumerate(flags):
        if entered and not flag:
            return [f"left the attractive set at step {k} after entering"]
        entered = entered or flag
    return [] if entered else ["never entered the attractive set"]


def check_rollout(traj, need_gamma):
    errors = []
    if traj.status != "completed" or len(traj) != ROLLOUT_STEPS + 1:
        errors.append(f"status {traj.status} after {len(traj) - 1} steps")
    if not all(traj.safe):
        errors.append(f"left S at step {traj.safe.index(False)}")
    if not all(traj.in_omega):
        errors.append(f"left the invariant set at step {traj.in_omega.index(False)}")
    if need_gamma:
        errors += _gamma_errors(traj.in_gamma)
    return errors


@dataclass
class Plan:
    """Loaded rollout inputs of one workload run (built during set-up)."""
    lab: Labelled
    system: object
    safe_set: object
    cert: SSequenceCertificate
    rcis: object
    gamma: object
    master_seed: int


class Workload:
    """Find arguments, frozen answers and rollout recipe of one workload.

    ``find_share`` is the part of the measured seconds given to finds;
    rollouts fill the rest, at least ``MIN_ROLLOUTS`` of them.  Finds
    cycle through ``find_labellings()``.
    """
    name = ""
    kind = ""               # "case1" | "traffic"
    find_args: tuple = ()
    expect: dict = {}
    find_share = 0.5
    labellings = 1

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def prepare(self):
        """Set-up: relabel, load, RCIS and limit cycle, warm-up."""
        self.labs = make_labellings(self.kind, self.seed, self.labellings, self.work)
        lab = self.labs[0]
        system, safe_set, _ = systems.load_system_file(lab.spec_path)
        cert = SSequenceCertificate.load(lab.cert_path)
        cycle = invariance.compute_limit_cycle(system, cert)
        self.plan = Plan(lab, system, safe_set, cert, invariance.build_rcis(cert),
                         invariance.build_attractive_set(cycle),
                         random.Random(f"streams:{self.seed}").getrandbits(64))
        errors = self.check_cycle(cycle)
        warm = self.rollout_inputs(0)
        simulate.simulate(system, warm["x0"], warm["policy"], warm["adversary"], 20,
                          safe_set=safe_set, omega=self.plan.rcis.region,
                          gamma=warm["gamma"])
        return errors

    def check_cycle(self, cycle):
        if cycle.monotone_violations:
            return [f"limit cycle has {cycle.monotone_violations} monotonicity violations"]
        return []

    def find_labellings(self):
        """The labellings finds cycle through, primary first."""
        return self.labs

    def find_argv(self, lab, out_dir):
        return (["find", "--system", lab.spec_path, "--out", out_dir]
                + list(self.find_args))

    def verify_targets(self, minted):
        """(system spec, certificate) pairs for the verify operations.

        ``minted`` is the (spec, certificate) pair of the run's first
        successful find, or None.
        """
        return [(self.plan.lab.spec_path, self.plan.lab.cert_path)]

    def rollout_inputs(self, i):
        raise NotImplementedError

    def rollout(self, i, inputs):
        p = self.plan
        return simulate.simulate(p.system, inputs["x0"], inputs["policy"],
                                 inputs["adversary"], ROLLOUT_STEPS,
                                 safe_set=p.safe_set, omega=p.rcis.region,
                                 gamma=inputs["gamma"])


class Case1Tour(Workload):
    """The README tour on the 2-state switched system."""
    name = "case1_tour"
    kind = "case1"
    find_args = ("--tmax", "7")             # default objective: max-l1
    expect = {"code": 0, "statuses": [(T, "proven_infeasible") for T in range(1, 7)]
              + [(7, "found")], "found_T": 7, "minimal": True, "sigma": CASE1_SIGMA}
    find_share = 0.55
    labellings = 4          # all of them: finds cycle through every labelling

    def check_cycle(self, cycle):
        errors = super().check_cycle(cycle)
        if cycle.periods != CASE1_PERIODS:
            errors.append(f"limit cycle took {cycle.periods} periods, "
                          f"expected {CASE1_PERIODS}")
        return errors

    def rollout_inputs(self, i):
        p = self.plan
        x0 = np.array([10.0, 32.0])[list(p.lab.perm)]
        return {"x0": x0, "policy": simulate.open_loop(p.cert),
                "adversary": simulate.uniform(rng.SplitMix64(p.master_seed).spawn(i)),
                "gamma": p.gamma}


def _x0_below(cert, seed, i):
    """Seeded initial state inside R(x*_0), drawn by the benchmark itself."""
    rnd = random.Random(f"x0:{seed}:{i}")
    return np.array([rnd.random() * v for v in cert.x_star[0]])


class TrafficProof(Workload):
    """Traffic T=1..3 searched to exhaustion; open-loop rollouts of table 2."""
    name = "traffic_proof"
    kind = "traffic"
    find_args = ("--tmax", "3", "--objective", "first-feasible")
    expect = {"code": 2, "statuses": [(T, "proven_infeasible") for T in (1, 2, 3)],
              "found_T": None}
    find_share = 0.45

    def rollout_inputs(self, i):
        p = self.plan
        return {"x0": _x0_below(p.cert, self.seed, i), "policy": simulate.open_loop(p.cert),
                "adversary": simulate.uniform(rng.SplitMix64(p.master_seed).spawn(i)),
                "gamma": None}


class TrafficPlan(Workload):
    """Traffic T=5 first-feasible; feedback rollouts of the bundled plan."""
    name = "traffic_plan"
    kind = "traffic"
    find_args = ("--tmin", "5", "--tmax", "5", "--objective", "first-feasible",
                 "--time-budget", "60")
    expect = {"code": 0, "statuses": [(5, "found")], "found_T": 5, "minimal": False}
    find_share = 0.5

    def find_labellings(self):
        """The bundled link order.

        The first-feasible dive is sensitive to the link order: over 22
        random orders it took 64 to 301 nodes, so a seeded order would make
        ``find_s`` a function of the seed rather than of the code.
        """
        return [Labelled("bundled", tuple(range(len(self.plan.cert.x_star[0]))), None,
                         os.path.join(DATA, "traffic_table1.json"),
                         os.path.join(DATA, "cert_table2.json"))]

    def verify_targets(self, minted):
        # with no minted certificate the verify runs on a missing file and fails
        minted = minted or (self.plan.lab.spec_path, os.path.join(self.work, "none.json"))
        return [minted, (self.plan.lab.spec_path, self.plan.lab.cert_path)]

    def rollout_inputs(self, i):
        p = self.plan
        return {"x0": _x0_below(p.cert, self.seed, i), "policy": simulate.feedback(p.rcis),
                "adversary": simulate.worst_case_w_star(), "gamma": None}


WORKLOADS = {w.name: w for w in (Case1Tour, TrafficProof, TrafficPlan)}
