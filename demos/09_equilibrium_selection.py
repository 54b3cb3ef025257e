"""Which equilibrium: in the climbing game, population size picks it.

The climbing game has its optimal equilibrium on action 0 (payoff 11),
another on action 1 (payoff 7), and a small basin around 0.  Best reply
promises convergence to *an* equilibrium, not the best one.  Each run here
starts from random bases and plays 30 stages of the default length
ceil(1/eps**2); what it ends on depends on how many agents play:

  * at eps = 0.05 only small populations ever land all on 0;
  * at eps = 0.2 small populations end on 1, large ones on 2, the
    equilibrium of the eps-perturbed game (a 1-Nash point, not a 0-Nash
    point).
"""

import math

import numpy as np

from anonlearn import ActionDistribution, RunConfig, climbing_game, is_eta_nash, run_many


def final_bases(explore, n, seeds):
    rounds = 30 * math.ceil(1.0 / explore**2)
    cfgs = [RunConfig(game="climbing", target=0, explore=explore, rounds=rounds, n=n, seed=s)
            for s in seeds]
    return [t.stage_base[-1] for t in run_many(cfgs, threads=2)]


seeds = range(30)
print(f"== eps = 0.05: runs ending all on action 0 ({len(seeds)} seeds) ==")
for n in (4, 10, 30):
    on_zero = sum(int(row[0] == n) for row in final_bases(0.05, n, seeds))
    print(f"n={n:>3d}: {on_zero:>2d}/{len(seeds)}")

seeds = range(10)
print()
print(f"== eps = 0.2: majority final base ({len(seeds)} seeds) ==")
print("     n  runs with majority on 0/1/2")
for n in (10, 1000):
    counts = np.bincount([np.argmax(row) for row in final_bases(0.2, n, seeds)], minlength=3)
    print(f"{n:>6d}  {'/'.join(str(c) for c in counts)}")

game, all_two = climbing_game(), ActionDistribution.point_mass(2, 3)
print()
print(f"all-2 is 1-Nash: {is_eta_nash(all_two, 1.0, game)}, "
      f"0-Nash: {is_eta_nash(all_two, 0.0, game)}")
print("more agents average away the luck that lets a few find the optimum;")
print("with enough exploration they follow the perturbed game's best reply to 2.")
