"""Learning rules as array kernels: one row per agent, updated in place.

A stage learner keeps a mixed action a_eps fixed for a stage, tallies the
payoffs of what it played, and at the stage end moves its base to the action
with the best stage average.  It plays its base but at its explorer events,
so its tally is split in two: a running sum of its base's payoffs, added a
round at a time, and sums and counts of its events; the stage end folds the
first into the second.  A stats learner also sees each round's histogram of
actions and scores every action against it.  A payoff-only regret matcher
(Hart and Mas-Colell's reinforcement procedure) re-weights its next action by
estimated regrets every round.  A fixed agent plays one mixed action forever.
Learners see only their own actions and payoffs, and stats learners the
histograms; every random draw arrives as a uniform, so the caller owns the
streams.
"""

from __future__ import annotations

import numpy as np


def explorers(bases, explore, stay, k: int, u):
    """The a_eps law's draws off base in uniforms u, where u >= stay = 1 - explore: the
    floor((u - stay)·(k-1)/explore)-th other action, the last at u -> 1.  Returns their
    ascending flat positions in u and actions; bases, explore and stay end u's shape."""
    x = np.flatnonzero(u >= stay)
    j = ((u.reshape(-1)[x] - np.take(stay, x, mode="wrap")) * (k - 1)
         / np.take(explore, x, mode="wrap")).astype(np.int64)
    np.minimum(j, k - 2, out=j)
    j += j >= np.take(bases, x, mode="wrap")
    return x, j


def sample_mixed(bases, explore, k: int, u):
    """The a_eps law, elementwise, as dense draws: bases and explore broadcast
    against the uniforms u, one per draw even where explore is 0.  Returns the
    draws and the ascending flat positions in them of the explorers."""
    u = np.asarray(u, dtype=float)
    bases, explore = np.broadcast_arrays(bases, explore, u)[:2]
    x, j = explorers(bases, explore, 1.0 - explore, k, u)
    acts = bases.astype(np.int64, order="C")  # a copy, so reshape(-1) is a view
    acts.reshape(-1)[x] = j
    return acts, x


def event_histogram(base_counts, bases, rows, cols, acts, rounds: int):
    """The (rounds, k) histogram of a block whose agents play their bases (of
    histogram base_counts) but at the events, cols[e] playing acts[e] in round
    rows[e]: exact integers, counted from the events alone."""
    rows, size = rows * base_counts.size, rounds * base_counts.size
    hist = np.bincount(rows + acts, minlength=size) - np.bincount(rows + bases[cols], minlength=size)
    return hist.reshape(rounds, -1) + base_counts


def stage_tally(sums, counts, base_sum, own, rows, cols, acts, pay):
    """Add a block of rounds to the stage tallies of the m learners in the
    last m columns of own, the (rounds, w) block of base payoffs, which it
    overwrites and whose fast axis must be its columns.  The block's explorer
    events, in time order, are agent cols[e] playing acts[e] in round rows[e]
    for pay[e]; those in the first w - m columns, not learners', are skipped.

    The events' payoffs go to their (m, k) sums and counts cells by np.add.at,
    in time order, and their cells of own are set to -0.0; base_sum then adds
    own's learner columns round by round.  x + -0.0 is x, so each sum is the
    sequential one, and base_sum the base cells' until stage_end folds it in."""
    (m, k), lo = sums.shape, own.shape[1] - sums.shape[0]
    keep = cols >= lo
    rows, cols = rows[keep], cols[keep] - lo
    cell = cols * k + acts[keep]
    np.add.at(sums.reshape(-1), cell, pay[keep])
    np.add.at(counts.reshape(-1), cell, 1.0)
    own = own[:, lo:]
    own[rows, cols] = -0.0
    own[0] += base_sum  # so a sum down the rounds adds them to it in time order
    if m > 1:  # numpy sums pairwise only along the fast axis, here the learners'
        np.add.reduce(own, axis=0, out=base_sum)
    else:
        base_sum[:] = np.add.accumulate(own, axis=0)[-1]


def stage_end(bases, sums, counts, base_sum, rounds, seen=None, matrix=None):
    """Fold each base's sum and count into the tallies of a stage of rounds
    rounds, move each base to the action with the best stage value and reset
    the tallies.

    A base's count is the rounds less the row's explorer counts.  A stage
    learner's value is its stage average: unexplored actions score 0, as
    0 / max(count, 1) — deliberately, even though that can shadow actions
    whose true payoffs are negative.  A stats learner, given seen, the (k,)
    sum of the stage's histograms, scores action a by matrix[a] @ (seen - its
    own counts), (n - 1)·rounds times a's mean payoff against the others.
    Ties keep the current base when it is among the maximizers, else the
    lowest index.
    """
    rows = np.arange(bases.size)
    counts[rows, bases] = rounds - counts.sum(axis=1)
    if seen is None:
        sums[rows, bases] = base_sum
        values = np.divide(sums, np.maximum(counts, 1.0, out=counts), out=sums)
    else:
        values = (seen - counts) @ matrix.T
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
