"""Learning rules as array kernels: one row per agent, updated in place.

A stage learner keeps a mixed action a_eps fixed for a stage, tallies the
payoffs of what it played, and at the stage end moves its base to the action
with the best stage average.  A payoff-only regret matcher (Hart and
Mas-Colell's reinforcement procedure) re-weights its next action by estimated
regrets every round.  A fixed agent plays one mixed action forever and is
just sample_mixed.  Learners see nothing but their own actions and payoffs;
every random draw arrives as a uniform, so the caller owns the streams.
"""

from __future__ import annotations

import numpy as np


def sample_mixed(bases, explore, k: int, u) -> np.ndarray:
    """The a_eps law, elementwise: base where u < 1-explore, else uniform over
    the other k-1 actions.  bases and explore broadcast against the uniforms
    u; one uniform per draw, even where explore is 0.

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
    return acts


def stage_tally(sums, counts, acts, payoffs):
    """Add (rounds, m) blocks of actions and payoffs to the (m, k) stage
    tallies, round by round, so each sum is the one sequential additions give."""
    idx = (acts + np.arange(sums.shape[0]) * sums.shape[1]).ravel()
    np.add.at(sums.reshape(-1), idx, payoffs.ravel())
    np.add.at(counts.reshape(-1), idx, 1.0)


def stage_end(bases, sums, counts):
    """Move each base to the action with the best stage average and reset the
    tallies.

    Unexplored actions score 0, as 0 / max(count, 1) — deliberately, even
    though that can shadow actions whose true payoffs are negative.  Ties keep
    the current base when it is among the maximizers, else the lowest index.
    """
    values = np.divide(sums, np.maximum(counts, 1.0, out=counts), out=sums)
    rows, best = np.arange(bases.size), values.argmax(axis=1)
    move = values[rows, bases] < values[rows, best]
    bases[move] = best[move]
    sums.fill(0.0)
    counts.fill(0.0)


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
