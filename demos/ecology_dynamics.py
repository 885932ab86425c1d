"""The ecological engine on its own, without any decision pipeline.

Fixes every household's planting and fishing choices and steps the world
forward, showing river routing, stress accumulation on starved downstream
farms, and the fishery's response to lost lake inflow.
"""
import numpy as np

from rivercommons import (Decision, EcologyParams, FishPopulation, RiverYear,
                          WorldState, YearRecord, advance_year)
from rivercommons.ecology import N_FISH_CLASSES
from rivercommons.config import DEFAULT_INITIAL_FISH

params = EcologyParams()
n = 5
river = RiverYear(np.array([20, 20, 30, 60, 90, 120, 140, 110, 70, 40, 30, 20],
                           dtype=float))
state = WorldState(
    households=tuple(YearRecord(year=0, household=i + 1, budget=300.0)
                     for i in range(n)),
    fish=FishPopulation(np.array(DEFAULT_INITIAL_FISH)))

print(f"river carries {river.annual_total:.0f} units/year; "
      f"{n} households each demand 100 (10 fields x {params.w:g})")
decisions = [Decision(10, 2)] * n

print(f"\n{'year':>4} {'delivered':>28} {'stress':>24} {'adults':>8}")
for _ in range(8):
    state = advance_year(state, river, decisions, params)
    delivered = " ".join(f"{r.delivered:5.0f}" for r in state.households)
    stress = " ".join(f"{r.stress:4.2f}" for r in state.households)
    print(f"{state.year:>4} {delivered:>28} {stress:>24} "
          f"{state.fish.adult_total:8.0f}")

print("\nupstream households drink first: the last in line accumulates "
      "stress while\nthe missing lake inflow suppresses fish recruitment")

print("\nfinal budgets:", [f"{h.budget:.0f}" for h in state.households])
