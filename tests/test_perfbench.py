"""Smoke tests of the benchmark harness's traced run (``perfbench/run.py``).

The traced run wraps ``invariance.encode_traffic`` and
``invariance.solve_milp``, divides the solve time by the nodes and reads the
last ``milp.solve_lp`` span; a horizon decided outside ``solve_milp``, or
with no node, makes it raise.  It also counts ``order.BoxUnion.locate``
spans and divides their time by the count, and reads
``LimitCycle.periods``; a feedback rollout that went around ``locate``
leaves that count at zero and makes it raise.  Each run works on a copy of
the checkout in a temporary directory, so its results files stay out of the
source tree.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def _traced_run(tmp_path, workload):
    """The last JSON line of a one-second traced run of ``workload``."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    return last


def test_traced_traffic_proof_run(tmp_path):
    last = _traced_run(tmp_path, "traffic_proof")
    assert last["metrics"]["milp.nodes"]["value"] == 3


def test_traced_traffic_plan_run(tmp_path):
    """The T=5 plan closes the root: a search that lost the root incumbent
    would take the 61-node dive instead."""
    last = _traced_run(tmp_path, "traffic_plan")
    assert last["metrics"]["order.membership_calls"]["value"] >= 30000
    assert last["metrics"]["milp.nodes"]["value"] == 1
