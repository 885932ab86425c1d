"""Tour of the game solvers.

Walks through the bimatrix toolkit on three classic games, then builds the
upstream/downstream irrigation game and shows how a Pigouvian tax moves its
selected equilibrium from aggressive to shared extraction.
"""
import numpy as np

from rivercommons import (BimatrixGame, IrrigationGameSpec,
                          build_irrigation_game, enumerate_pure_ne,
                          lemke_howson, solve_irrigation_game)


def show(title, game):
    print(f"\n== {title} ==")
    pure = sorted(enumerate_pure_ne(game))
    print("pure equilibria:", [(game.row_actions[i], game.col_actions[j])
                               for i, j in pure] or "none")
    profile = lemke_howson(game)
    print("lemke-howson:   row", np.round(profile.row_dist, 3),
          " col", np.round(profile.col_dist, 3))


prisoners = BimatrixGame(np.array([[3.0, 0.0], [5.0, 1.0]]),
                         np.array([[3.0, 5.0], [0.0, 1.0]]),
                         ("C", "D"), ("C", "D"))
show("prisoner's dilemma", prisoners)

pennies = BimatrixGame(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                       np.array([[-1.0, 1.0], [1.0, -1.0]]),
                       ("heads", "tails"), ("heads", "tails"))
show("matching pennies (no pure equilibrium)", pennies)

anti = BimatrixGame(np.array([[6.0, 5.0], [9.0, 5.0]]),
                    np.array([[6.0, 7.0], [3.0, 2.0]]),
                    ("H", "L"), ("H", "L"))
show("two-action anti-coordination", anti)

print("\n== pairwise irrigation game ==")
print("water supports 6 fields; both sides want to plant as much as possible")
for tau in (0.0, 1.0, 2.0, 4.0):
    spec = IrrigationGameSpec(B_u=1000, B_d=1000, c=10, T=60, w=10, y0=50,
                              ys=25, S=6, kappa=50, tau=tau)
    s_u, s_d = solve_irrigation_game(spec)
    game = build_irrigation_game(spec)
    n_pure = len(enumerate_pure_ne(game))
    print(f"tau={tau:>4}: selected ({s_u},{s_d})  payoffs "
          f"({game.row_payoffs[s_u, s_d]:.0f},{game.col_payoffs[s_u, s_d]:.0f})"
          f"  [{n_pure} pure equilibria]")
print("higher taxes shrink total extraction and even out the split")
