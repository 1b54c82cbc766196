"""Driving the bundled MILP solver directly.

The synthesis pipeline builds its models automatically, but the solver is an
ordinary branch-and-bound over LP relaxations and can be used on its own.
Small knapsack: pick projects to maximize value under a shared budget, with
a coupling rule (project 2 requires project 0).
"""

import os
import tempfile

from monosafe import MilpModel, solve_lp, solve_milp, write_lp_format

values = [9.0, 5.0, 6.0, 4.0]
costs = [6.0, 3.0, 5.0, 2.0]

m = MilpModel("knapsack")
for j in range(4):
    m.add_var(f"pick{j}", binary=True)
m.add_constraint({j: costs[j] for j in range(4)}, "<=", 10.0)
m.add_constraint({2: 1.0, 0: -1.0}, "<=", 0.0)     # pick2 => pick0
m.set_objective({j: values[j] for j in range(4)}, "max")

relax = solve_lp(m)
print(f"LP relaxation bound: {relax.objective:.3f} at x = {relax.x.round(3)}")

sol = solve_milp(m)
chosen = [j for j in range(4) if sol.x[j] > 0.5]
print(f"optimal value {sol.objective:.1f}, picks {chosen}, "
      f"{sol.nodes} nodes explored")

# Budgets turn the solver into an anytime method: statuses degrade honestly
# from optimal to feasible_budget_hit to budget_unknown as the cap tightens.
for cap in (None, 8, 3):
    s = solve_milp(m, node_budget=cap)
    obj = f"{s.objective:.1f}" if s.objective is not None else "-"
    print(f"node budget {cap}: status {s.status}, incumbent {obj}")

lp_path = os.path.join(tempfile.mkdtemp(), "knapsack.lp")
write_lp_format(m, lp_path)
print("\nLP file of the model:")
with open(lp_path) as fh:
    print(fh.read())
