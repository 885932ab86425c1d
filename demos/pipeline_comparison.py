"""All five decision pipelines on the same world, side by side.

Every pipeline faces the identical river, fishery and 9-household chain for
100 years; only the way households choose their planting and fishing differs.
LLM-backed pipelines run against the deterministic stub fixture, so this
script needs no network access.
"""
from rivercommons import RunConfig, run_simulation, summarize
from rivercommons.config import PIPELINES

TAU = 0.25
SEED = 42

print(f"100 years, 9 households, tau={TAU}, seed={SEED}\n")
header = (f"{'pipeline':<12} {'min budget':>11} {'max budget':>11} "
          f"{'both%':>6} {'farm%':>6} {'fish%':>6} {'none%':>6} {'fallbacks':>9}")
print(header)
print("-" * len(header))
for pipeline in PIPELINES:
    art = run_simulation(RunConfig(pipeline=pipeline, tau=TAU, seed=SEED))
    s = summarize(art)
    print(f"{pipeline:<12} {s['min_budget_final']:>11.0f} "
          f"{s['max_budget_final']:>11.0f} {s['pct_both']:>6.1f} "
          f"{s['pct_irrig_only']:>6.1f} {s['pct_fish_only']:>6.1f} "
          f"{s['pct_none']:>6.1f} {art.fallback_events:>9}")

print("\nThe expert pipeline plays the taxed equilibrium each year, keeping "
      "all\nhouseholds in both activities; rule-based pipelines over- or "
      "under-plant\ndepending on where the household sits on the river.")
