"""Learning rules as objects over a population's arrays, updated in place:
StageLearners (stage and stats learners) and RegretMatchers.  One holds the
bases and explore rates, (n,), fixed agents (one mixed action forever) in the
low slots lo, and its learners' state, one row per learner; it plays the
population a block of rounds at a time (block), ends a stage (end) and resets
churned learners (reset).  Learners see only their own actions and payoffs,
and stats learners the histograms; every random draw arrives as a uniform."""

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


def event_histogram(base_counts, bases, rows, cols, acts, rounds: int):
    """The (rounds, k) histogram of a block whose agents play their bases (of
    histogram base_counts) but at the events, cols[e] playing acts[e] in round
    rows[e]: exact integers, counted from the events alone."""
    rows, size = rows * base_counts.size, rounds * base_counts.size
    hist = np.bincount(rows + acts, minlength=size) - np.bincount(rows + bases[cols], minlength=size)
    return hist.reshape(rounds, -1) + base_counts


class StageLearners:
    """Stage learners: each keeps a_eps fixed for a stage, tallies the payoffs
    of what it played, and at the stage end moves its base to the best stage
    value.  It plays its base but at its explorer events, so its tally is
    split: a running sum of its base's payoffs, base_sum (m,), added a round at
    a time, and the sums and counts of its events, (m, k).  Given the game's
    matrix, they are stats learners.  Churn draws new bases from base_k actions."""

    def __init__(self, bases, explore, lo: int, k: int, matrix=None):
        self.bases, self.explore, self.stay, self.lo = bases, explore, 1.0 - explore, lo
        self.base_k, self.k, self.matrix, m = k, k, matrix, bases.size - lo
        self.sums, self.counts, self.base_sum = np.zeros((m, k)), np.zeros((m, k)), np.zeros(m)

    def block(self, u, base_row, pays):
        """Play and tally a block, uniforms u (rounds, n), from bases of histogram
        base_row; returns its (rounds, k) histogram.  pays(hist, x, rows, j)
        gives its (rounds, n) base payoffs and its events' (x, in rounds rows,
        playing j)."""
        x, j = explorers(self.bases, self.explore, self.stay, self.k, u)
        rows, cols = np.divmod(x, self.bases.size)
        hist = event_histogram(base_row, self.bases, rows, cols, j, len(u))
        self.tally(*pays(hist, x, rows, j), rows, cols, j)
        return hist

    def tally(self, own, pay, rows, cols, acts):
        """Add a block to the tallies: own, its (rounds, n) base payoffs, which
        it overwrites and whose fast axis must be its columns, and its events in
        time order, agent cols[e] playing acts[e] in round rows[e] for pay[e]
        (the fixed agents' skipped).  The events' payoffs go to their sums and
        counts cells by np.add.at, in time order, and their cells of own are set
        to -0.0; base_sum then adds own's learner columns round by round.
        x + -0.0 is x, so each sum is the sequential one."""
        (m, k), lo, base_sum = self.sums.shape, self.lo, self.base_sum
        keep = cols >= lo
        rows, cols = rows[keep], cols[keep] - lo
        cell = cols * k + acts[keep]
        np.add.at(self.sums.reshape(-1), cell, pay[keep])
        np.add.at(self.counts.reshape(-1), cell, 1.0)
        own = own[:, lo:]
        own[rows, cols] = -0.0
        own[0] += base_sum  # so a sum down the rounds adds them to it in time order
        if m > 1:  # numpy sums pairwise only along the fast axis, here the learners'
            np.add.reduce(own, axis=0, out=base_sum)
        else:
            base_sum[:] = np.add.accumulate(own, axis=0)[-1]

    def end(self, hists):
        """Fold each base's sum and count (the rounds less the row's explorer
        counts) into the tallies of the stage of (rounds, k) histograms hists,
        move each base to the action with the best stage value and reset the
        tallies.  A stage learner's value is its stage average: unexplored
        actions score 0, as 0 / max(count, 1) — deliberately, even though that
        can shadow actions whose true payoffs are negative.  A stats learner
        scores action a by matrix[a] @ (the summed hists - its own counts),
        (n - 1)·rounds times a's mean payoff against the others.  Ties keep
        the current base when it is among the maximizers, else the lowest."""
        bases, sums, counts = self.bases[self.lo:], self.sums, self.counts
        rows = np.arange(bases.size)
        counts[rows, bases] = len(hists) - counts.sum(axis=1)
        if self.matrix is None:
            sums[rows, bases] = self.base_sum
            values = np.divide(sums, np.maximum(counts, 1.0, out=counts), out=sums)
        else:
            values = (hists.sum(axis=0) - counts) @ self.matrix.T
        best = values.argmax(axis=1)
        move = values[rows, bases] < values[rows, best]
        bases[move] = best[move]
        for tally in (sums, counts, self.base_sum):
            tally.fill(0.0)

    def reset(self, rows):
        """Nothing: churn runs at a stage end, on empty tallies, and draws bases."""


class RegretMatchers:
    """Payoff-only regret matchers (Hart and Mas-Colell's reinforcement
    procedure): proxy (m, k, k), action probabilities (m, k) and round counts
    (m,).  A matcher's base is the action it played last: churn draws none."""

    base_k = None

    def __init__(self, bases, explore, lo: int, k: int, mu: float, delta: float):
        self.bases, self.explore, self.stay, self.lo, self.k = bases, explore, 1.0 - explore, lo, k
        self.mu, self.delta, m = mu, delta, bases.size - lo
        self.proxy, self.probs = np.zeros((m, k, k)), np.full((m, k), 1.0 / k)
        self.t = np.zeros(m, dtype=np.int64)

    def block(self, u, base_row, pays):
        """StageLearners.block, a round at a time (base_row unused): the
        matchers' draws, the fixed agents' events, the payoffs, the update."""
        bases, lo, k = self.bases, self.lo, self.k
        hists = np.empty((len(u), k), dtype=np.int64)
        x = rows = j = np.empty(0, dtype=np.int64)
        for r in range(len(u)):
            self.act(u[r, lo:])
            hist = np.bincount(bases, minlength=k)
            if lo:
                x, j = explorers(bases[:lo], self.explore[:lo], self.stay[:lo], k, u[r, :lo])
                rows = np.zeros_like(x)
                hist = event_histogram(hist, bases, rows, x, j, 1)[0]
            hists[r] = hist
            self.observe(pays(hist[None], x, rows, j)[0][0, lo:])
        return hists

    def act(self, u) -> np.ndarray:
        """One action per matcher, by inversion of its uniform in u; it becomes
        the matcher's base."""
        acts = (np.cumsum(self.probs, axis=1) <= np.asarray(u)[:, None]).sum(axis=1)
        self.bases[self.lo:] = acts = np.minimum(acts, self.k - 1)
        return acts

    def observe(self, payoffs):
        """One round of regret matching, in place, for the payoffs of the
        actions just played, the bases.  proxy[i, j, a] is matcher i's
        importance-weighted estimate of the payoff it would have accumulated
        had it played a in the rounds it chose j.  Next round's switch
        probabilities are proportional to positive regret, damped by mu,
        capped at 1/(k-1), and mixed with a delta-uniform exploration floor;
        the action just played absorbs the residual."""
        acts, probs, k = self.bases[self.lo:], self.probs, self.k
        rows = np.arange(acts.size)
        self.t += 1
        self.proxy[rows, :, acts] += (probs / probs[rows, acts][:, None]) * payoffs[:, None]
        own = self.proxy[rows, acts]
        regret = (own - own[rows, acts][:, None]) / self.t[:, None]
        np.maximum(regret, 0.0, out=regret)
        q = (1.0 - self.delta) * np.minimum(regret / self.mu, 1.0 / (k - 1))
        q += self.delta / k
        q[rows, acts] = 0.0
        q[rows, acts] = 1.0 - q.sum(axis=1)
        probs[:] = q

    def end(self, hists):
        """A matcher learns every round, not at stage ends."""

    def reset(self, rows):
        """Make the matchers in rows new: no proxy, uniform probabilities, t 0."""
        self.proxy[rows] = 0.0
        self.probs[rows] = 1.0 / self.k
        self.t[rows] = 0
