"""The tax grid experiment: tragedy without the levy, sustainability with it.

Sweeps the expert pipeline over the extraction tax and several seeds, prints
the summary grid, and writes the CSV/SVG artifacts for the tau=0 run into a
fresh temporary directory so the collapse is visible household by household.
"""
import os
import tempfile

from rivercommons import (RunConfig, calibrate_check, emit_outputs,
                          run_simulation, sweep)
from rivercommons.outputs import write_summary_csv

base = RunConfig(pipeline="expert-egta", seed=42)
rows = sweep(base, taus=[0.0, 0.25, 1.0], seeds=[0, 1, 2])

print(f"{'tau':>5} {'seed':>4} {'min budget':>11} {'both%':>6}")
for row in rows:
    print(f"{row['tau']:>5} {row['seed']:>4} "
          f"{row['min_budget_final']:>11.0f} {row['pct_both']:>6.1f}")

print("\ncalibration gate on the shipped defaults:")
report = calibrate_check(base)
for check in report["checks"]:
    status = "PASS" if check["passed"] else "FAIL"
    print(f"  [{status}] {check['name']} ({check['detail']})")

OUT = tempfile.mkdtemp(prefix="tax_robustness_")
write_summary_csv(rows, os.path.join(OUT, "tax_grid.csv"))
paths = emit_outputs(run_simulation(RunConfig(pipeline="expert-egta",
                                              tau=0.0, seed=42)), OUT)
print(f"\nwrote {os.path.join(OUT, 'tax_grid.csv')}")
for path in paths.values():
    print(f"wrote {path}")
print("(budgets.svg: the tau=0 collapse, one line per household)")
