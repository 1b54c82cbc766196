"""Smoke tests of the benchmark harness's traced run (``perfbench/run.py``).

The traced run wraps ``invariance.encode_traffic`` and
``invariance.solve_milp``, divides the solve time by the nodes and reads the
last ``milp.solve_lp`` span; a horizon decided outside ``solve_milp``, or
with no node, makes it raise.  It also counts ``order.BoxUnion.locate``
spans and divides their time by the count, and reads
``LimitCycle.periods``; a feedback rollout that went around ``locate``
leaves that count at zero and makes it raise.  Each run works on a copy of
the checkout in a temporary directory, so its results files stay out of the
source tree.  A run must write nothing to stderr and end in a line of strict
JSON, one that spells no ``NaN`` or ``Infinity``, whose every metric value
is a finite number.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _traced_run(tmp_path, workload):
    """The last line, strict JSON, of a one-second traced run of
    ``workload``, which must leave stderr empty and report every metric as
    a finite number."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stderr == ""
    last = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict)
    assert last["correct"] is True
    values = {name: metric["value"] for name, metric in last["metrics"].items()}
    assert all(type(v) in (int, float) and math.isfinite(v) for v in values.values()), values
    return last


def test_traced_case1_tour_run(tmp_path):
    """The max-l1 sweep to T=7 of seed 1's primary labelling takes 4
    fixed-control LPs and the safe set's bound LP, one node each."""
    last = _traced_run(tmp_path, "case1_tour")
    assert last["metrics"]["milp.nodes"]["value"] == 5


def test_traced_traffic_proof_run(tmp_path):
    last = _traced_run(tmp_path, "traffic_proof")
    assert last["metrics"]["milp.nodes"]["value"] == 3


def test_traced_traffic_plan_run(tmp_path):
    """The T=5 plan closes the root: a search that lost the root incumbent
    would take the 61-node dive instead."""
    last = _traced_run(tmp_path, "traffic_plan")
    assert last["metrics"]["order.membership_calls"]["value"] >= 30000
    assert last["metrics"]["milp.nodes"]["value"] == 1
