"""Tour of the payoff model: anonymous games as vectors of utilities.

An anonymous game maps a population distribution rho to the expected utility
u(a, rho) of every action a: `game.utilities(rho)`.  That is all the learning
theory ever needs.  How a run realizes payoffs is the simulator's choice: in
mean-field mode each agent gets its exact expected payoff, in matching mode a
lottery draw, matrix[a][a'] for a partner a' drawn from rho, one noisy sample
at a time.
"""

import numpy as np

from anonlearn import (
    ActionDistribution,
    ContributionGame,
    MixedAction,
    climbing_game,
    contribution_cost,
    estimate_lipschitz,
    prisoners_dilemma,
    utility,
)

game = ContributionGame()
print("== contribution game ==")
print(f"{game.k} contribution levels, cost c(x) kinked at 8:")
print("  x:   ", " ".join(f"{x:>5d}" for x in range(0, 20, 2)))
print("  c(x):", " ".join(f"{contribution_cost(x):>5.0f}" for x in range(0, 20, 2)))

delta8 = ActionDistribution.point_mass(8, 20)
uniform = ActionDistribution.uniform(20)
u_all8 = game.utilities(delta8)
print(f"u(8, all-8)    = {u_all8[8]:.1f}")
print(f"u(8, uniform)  = {game.utilities(uniform)[8]:.1f}")
print(f"u(9, all-8)    = {u_all8[9]:.1f}   <- the kink bites")
print(f"payoff bounds  = {game.payoff_bounds()}")

# mixed strategies are first-class: a_eps explores off a base action
a_eps = MixedAction(8, 0.05)
print(f"u(8_0.05, all-8) = {utility(a_eps, delta8, game):.2f} (exploration is costly)")

print()
print("== matrix games ==")
pd = prisoners_dilemma()
half = ActionDistribution.uniform(2)
print("prisoner's dilemma, matching lottery matrix[a] weighted by rho = (0.5, 0.5)")
for a, u in enumerate(pd.utilities(half)):
    row = pd.matrix[a]
    pairs = ", ".join(f"{v:.0f} w.p. {p:.2f}" for v, p in zip(row, half.weights))
    print(f"  {pd.labels[a]}: {pairs}  (mean {u:.1f})")

climb = climbing_game()
print(f"climbing game matrix:\n{climb.matrix}")

print()
print("== Lipschitz constants (L1 norm) ==")
for g, name in ((game, "contribution"), (pd, "prisoners dilemma"), (climb, "climbing")):
    est = estimate_lipschitz(g, samples=400)
    print(f"  {name:>18s}: declared K = {g.lipschitz:<7.1f} sampled lower bound {est:.2f}")
