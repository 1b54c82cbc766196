"""Safety certificates for discrete-time positive monotone systems.

Searches for periodic control sequences whose worst-case trajectory closes
on itself inside a safe set, turns them into robust controlled-invariant
regions (unions of boxes) with matching feedback/open-loop policies, and
certifies everything by direct simulation.
"""

from .certificate import SSequenceCertificate
from .encode import (DecodeMismatchError, EncodingArtifacts, decode, encode_switched,
                     encode_traffic, lift)
from .invariance import (LimitCycle, LimitCycleError, Rcis, SearchResult,
                         build_attractive_set, build_rcis, compute_limit_cycle,
                         find_s_sequence, least_fixed_point, necessity_bound)
from .milp import (MilpError, MilpModel, MilpSolution, NumericalBreakdownError,
                   solve_lp, solve_milp, write_lp_format)
from .order import Box, BoxUnion, PolyLowerSet, leq
from .rng import SplitMix64
from .simulate import (Trajectory, dominance_check, feedback, open_loop,
                       simulate, uniform, verify_certificate,
                       worst_case_w_star, write_trajectory_csv)
from .systems import (SwitchedAffineSystem, TrafficNetwork, check_monotone,
                      cooperative_bound_check, load_system_file, system_hash)

__version__ = "0.1.0"

__all__ = [
    "SSequenceCertificate", "DecodeMismatchError", "EncodingArtifacts",
    "decode", "encode_switched", "encode_traffic", "lift",
    "LimitCycle", "LimitCycleError", "Rcis", "SearchResult",
    "build_attractive_set", "build_rcis", "compute_limit_cycle",
    "find_s_sequence", "least_fixed_point", "necessity_bound",
    "MilpError", "MilpModel", "MilpSolution", "NumericalBreakdownError",
    "solve_lp", "solve_milp", "write_lp_format",
    "Box", "BoxUnion", "PolyLowerSet", "leq",
    "SplitMix64",
    "Trajectory", "dominance_check", "feedback", "open_loop", "simulate",
    "uniform", "verify_certificate", "worst_case_w_star", "write_trajectory_csv",
    "SwitchedAffineSystem", "TrafficNetwork", "check_monotone",
    "cooperative_bound_check", "load_system_file", "system_hash",
]
