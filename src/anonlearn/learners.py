"""Learning rules as array kernels: one row per agent, updated in place.

A stage learner keeps a mixed action a_eps fixed for a stage, tallies the
payoffs of what it played, and at the stage end moves its base to the action
with the best stage average.  Its tally is split in two: a running sum of its
base's payoffs, added a round at a time, and sums and counts of its explorer
rounds, the only ones played off base; the stage end folds the first into the
second.  A payoff-only regret matcher (Hart and Mas-Colell's reinforcement
procedure) re-weights its next action by estimated regrets every round.  A
fixed agent plays one mixed action forever and is just sample_mixed's draws.
Learners see nothing but their own actions and payoffs; every random draw
arrives as a uniform, so the caller owns the streams.
"""

from __future__ import annotations

import numpy as np


def sample_mixed(bases, explore, k: int, u):
    """The a_eps law, elementwise: base where u < 1-explore, else uniform over
    the other k-1 actions.  bases and explore broadcast against the uniforms
    u; one uniform per draw, even where explore is 0.  Returns the draws and
    the ascending flat positions in them of the explorers: the draws off base.

    Three passes over the block (fill the bases, compare, find the explorers);
    the rest touches only the explorers.  explore keeps its own shape, whose
    flat index is u's modulo its size when it ends u's shape."""
    u = np.asarray(u, dtype=float)
    acts = np.empty(u.shape, np.int64)  # C-ordered, so reshape(-1) is a view
    acts[...] = bases
    explore = np.asarray(explore)
    if explore.shape != u.shape[u.ndim - explore.ndim :]:
        explore = np.broadcast_to(explore, u.shape)
    x = np.flatnonzero(u >= 1.0 - explore)
    e = explore.take(x, mode="wrap")
    j = ((u.reshape(-1)[x] - (1.0 - e)) * (k - 1) / e).astype(np.int64)
    np.minimum(j, k - 2, out=j)  # guard the u -> 1 edge
    flat = acts.reshape(-1)
    j += j >= flat[x]
    flat[x] = j
    return acts, x


def stage_tally(sums, counts, base_sum, acts, payoffs, x):
    """Add a (rounds, w) block of actions and payoffs to the stage tallies of
    the m learners in its last m columns, so each sum is the one sequential
    additions give.  x holds the block's explorers as ascending flat positions
    (sample_mixed's second value); those in the first w - m columns, which
    are not learners', are skipped.

    The explorers' payoffs go to their (m, k) sums and counts cells by
    np.add.at, in time order, and are then set to -0.0 in payoffs; the (m,)
    base_sum then adds the block's learner columns round by round.  An
    explorer is never on base and every other draw is, and x + -0.0 is x, so
    base_sum holds the base cells' sums, which stay 0 in sums and counts until
    stage_end puts them in place."""
    (m, k), w = sums.shape, acts.shape[1]
    cell = x % w - (w - m)
    keep = cell >= 0
    x, cell = x[keep], cell[keep]
    cell *= k
    cell += acts.reshape(-1)[x]
    flat = payoffs.reshape(-1)
    np.add.at(sums.reshape(-1), cell, flat[x])
    np.add.at(counts.reshape(-1), cell, 1.0)
    flat[x] = -0.0
    own = payoffs[:, w - m :]
    own[0] += base_sum  # so a sum down the rounds adds them to it in time order
    if m > 1:  # numpy sums pairwise only along the fast axis, here the learners'
        np.add.reduce(own, axis=0, out=base_sum)
    else:
        base_sum[:] = np.add.accumulate(own, axis=0)[-1]


def stage_end(bases, sums, counts, base_sum, rounds):
    """Fold each base's sum and count into the tallies of a stage of rounds
    rounds, move each base to the action with the best stage average and reset
    the tallies.

    A base's count is the rounds less the row's explorer counts.  Unexplored
    actions score 0, as 0 / max(count, 1) — deliberately, even though that can
    shadow actions whose true payoffs are negative.  Ties keep the current
    base when it is among the maximizers, else the lowest index.
    """
    rows = np.arange(bases.size)
    sums[rows, bases] = base_sum
    counts[rows, bases] = rounds - counts.sum(axis=1)
    values = np.divide(sums, np.maximum(counts, 1.0, out=counts), out=sums)
    best = values.argmax(axis=1)
    move = values[rows, bases] < values[rows, best]
    bases[move] = best[move]
    sums.fill(0.0)
    counts.fill(0.0)
    base_sum.fill(0.0)


def regret_act(probs, u) -> np.ndarray:
    """One action per row of the (m, k) action probabilities, by inversion of
    its uniform."""
    acts = (np.cumsum(probs, axis=1) <= np.asarray(u)[:, None]).sum(axis=1)
    return np.minimum(acts, probs.shape[1] - 1)


def regret_observe(proxy, probs, t, prev, acts, payoffs, mu: float, delta: float):
    """One round of payoff-only regret matching for m agents, in place.

    proxy[i, j, a] is agent i's importance-weighted estimate of the payoff it
    would have accumulated had it played a in the rounds it chose j.  Next
    round's switch probabilities are proportional to positive regret, damped
    by mu, capped at 1/(k-1), and mixed with a delta-uniform exploration
    floor; the action just played absorbs the residual.
    """
    rows = np.arange(acts.size)
    k = probs.shape[1]
    t += 1
    proxy[rows, :, acts] += (probs / probs[rows, acts][:, None]) * payoffs[:, None]
    prev[:] = acts
    own = proxy[rows, acts]
    regret = (own - own[rows, acts][:, None]) / t[:, None]
    np.maximum(regret, 0.0, out=regret)
    q = (1.0 - delta) * np.minimum(regret / mu, 1.0 / (k - 1))
    q += delta / k
    q[rows, acts] = 0.0
    q[rows, acts] = 1.0 - q.sum(axis=1)
    probs[:] = q
