import json
from importlib import resources

import numpy as np
import pytest

from monosafe.certificate import SSequenceCertificate
from monosafe.encode import encode_traffic
from monosafe.milp import MilpModel
from monosafe.systems import SwitchedAffineSystem, load_system_file

DATA = resources.files("monosafe.data")


@pytest.fixture(scope="session")
def case1():
    sys_, safe_set, digest = load_system_file(str(DATA / "case1.json"))
    return sys_, safe_set, digest


@pytest.fixture(scope="session")
def case1_cert():
    return SSequenceCertificate.load(str(DATA / "cert_case1.json"))


@pytest.fixture(scope="session")
def traffic():
    net, safe_set, digest = load_system_file(str(DATA / "traffic_table1.json"))
    return net, safe_set, digest


@pytest.fixture(scope="session")
def traffic_cert():
    return SSequenceCertificate.load(str(DATA / "cert_table2.json"))


class _UncheckedSwitched(SwitchedAffineSystem):
    """``SwitchedAffineSystem``'s dynamics over matrices that skip its
    nonnegativity check: a model that need not be monotone, built without
    writing into a validated system."""

    def __init__(self, modes, w_star):
        self.modes = tuple(np.array(A, dtype=float) for A in modes)
        self.w_star = np.array(w_star, dtype=float)
        self.state_dim = self.w_star.size
        self.controls = tuple(range(1, len(self.modes) + 1))


@pytest.fixture(scope="session")
def unchecked_switched():
    return _UncheckedSwitched


@pytest.fixture(scope="session")
def traffic_spec_dict():
    return json.loads((DATA / "traffic_table1.json").read_text())


def _without_count_rows(art):
    """A copy of a traffic encoding's model without the rows whose support
    lies in the junction binaries.  Those are exactly its green-step count
    rows, so what is left is the model as it was before them, rows in the
    same order."""
    src = art.model
    keep = np.zeros(src.num_constraints, bool)
    keep[src.row[~np.isin(src.col, art.u)]] = True
    entries = keep[src.row]
    model = MilpModel(src.name)
    model.add_vars(src.names, src.lb, src.ub, src.binary)
    model.add_rows((np.cumsum(keep) - 1)[src.row[entries]], src.col[entries], src.val[entries],
                   src.rels[keep], src.rhs[keep])
    model.set_objective(src.obj, src.sense)
    model.branch_first = list(src.branch_first)
    return model


@pytest.fixture(scope="session")
def without_count_rows():
    return _without_count_rows


@pytest.fixture(scope="session")
def deep_traffic_model(traffic):
    """``T -> `` the bundled traffic model of horizon T without its count
    rows: T=1..3 then take a real branch-and-bound search, which the tests
    of warm starts, Farkas leaves and pinned counts need."""
    def build(T, objective="first_feasible"):
        return _without_count_rows(encode_traffic(traffic[0], T, objective=objective))
    return build
