"""Round loop over a finite population: the block loop (the game pays the
actions, the learners update), the stage metrics, RunTrace and the fork pool.
The seeding layout, the agents' streams and churn's draws live in streams."""

from __future__ import annotations

__all__ = ["RunTrace", "run", "run_stationary", "run_many"]

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import ActionDistribution, MatrixGame, _number, _profile
from .dynamics import best_reply_set
from .learners import (event_histogram, explorers, regret_act, regret_observe, sample_mixed,
                       stage_end, stage_tally)
from .streams import AgentStreams, RawStream, apply_churn

# Working-memory bounds for run: a block's (rounds, n) uniforms and payoffs and
# (rounds, k) histogram hold at most CAP entries, unless n + k alone exceeds CAP,
# when a block is one round (the agents' streams are bounded by streams.UCAP and
# AHEAD); RunTrace.to_csv joins at most CSV_ROWS rows of one stage at a time.
CAP = 1 << 13
CSV_ROWS = 512


@dataclass
class RunTrace:
    """Everything a run produced: one action histogram per round, one base
    histogram and one metric set per stage.  A histogram is the agents'
    integer counts of each action, so its row sums to n."""

    config: RunConfig
    realized_counts: np.ndarray  # (rounds, k) int32
    # (ceil(rounds / tau), k) int32: the bases in force during each stage
    # begun, a trailing partial one included; None for regret matchers, whose
    # base is the action each played last, so their base row is the realized row
    stage_base: np.ndarray | None
    stage_rho: np.ndarray  # (stages, k)
    stage_distance: np.ndarray  # (stages,): np.vecdot, each row's bits of its @
    stage_br_fraction: np.ndarray  # (stages,)

    @property
    def realized_dist(self) -> np.ndarray:
        """(rounds, k): the realized action distribution of each round."""
        return self.realized_counts / self.config.n

    @property
    def base_dist(self) -> np.ndarray:
        """(rounds, k): the base distribution in force each round."""
        if self.stage_base is None:
            return self.realized_dist
        tau = self.config.resolved_stage_len
        return np.repeat(self.stage_base / self.config.n, tau, axis=0)[: self.rounds]

    @property
    def k(self) -> int:
        return self.realized_counts.shape[1]

    @property
    def rounds(self) -> int:
        return self.realized_counts.shape[0]

    @property
    def stages(self) -> int:
        return self.stage_rho.shape[0]

    @property
    def final_distance(self) -> float:
        return float(self.stage_distance[-1])

    def rounds_to_threshold(self, threshold: float) -> int | None:
        """First round count by which a full stage's distance dips below threshold."""
        tau = self.config.resolved_stage_len
        for s, d in enumerate(self.stage_distance):
            if d < threshold:
                return (s + 1) * tau
        return None

    def to_csv(self, path):
        """One row per round: round, stage, that stage's end metrics, then the
        round's realized and base distributions, as csv.writer would write them.
        A cell holding count c is "," + repr(c / n), formatted once for each count
        present.  Each chunk of at most CSV_ROWS rounds of one stage is one join
        over an object array: the round numbers, the stage's lead, the realized
        cells and the row end, which is the stage's base row (one string per
        stage) or, for a regret matcher, the realized cells again and "\\r\\n"."""
        tau, n, k = self.config.resolved_stage_len, self.config.n, self.k
        regret = self.stage_base is None
        seen = np.zeros(n + 1, dtype=bool)
        seen[self.realized_counts] = True
        if not regret:
            seen[self.stage_base] = True
        table = np.empty(n + 1, dtype=object)
        c = np.flatnonzero(seen)
        table[c] = [f",{v!r}" for v in (c / n).tolist()]
        leads = [f",{s},{d!r},{b!r}" for s, (d, b) in enumerate(zip(
            self.stage_distance.tolist(), self.stage_br_fraction.tolist()))]
        leads.append(f",{self.stages},,")  # a trailing partial stage
        header = ["round", "stage", "distance", "br_fraction"] + [
            f"{p}_{a}" for p in ("rho", "base") for a in range(k)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for s, s0 in enumerate(range(0, self.rounds, tau)):
                base = [] if regret else table[self.stage_base[s]].tolist()
                end = "".join(base) + "\r\n"
                for r0 in range(s0, s1 := min(s0 + tau, self.rounds), CSV_ROWS):
                    cells = table[self.realized_counts[r0 : min(r0 + CSV_ROWS, s1)]]
                    rows = np.empty((len(cells), 3 + k * (1 + regret)), dtype=object)
                    rows[:, 0] = list(map(str, range(r0, r0 + len(cells))))
                    rows[:, 1], rows[:, -1] = leads[s], end
                    rows[:, 2 : 2 + k] = cells
                    if regret:
                        rows[:, 2 + k : -1] = cells
                    fh.write("".join(rows.ravel().tolist()))

    def summary_text(self) -> str:
        threshold = 0.5
        lines = [f"{key}={value}" for key, value in self.config.items()]
        lines.append(f"stages={self.stages}")
        lines.append(f"final_distance={self.final_distance!r}")
        reached = self.rounds_to_threshold(threshold)
        lines.append(f"threshold={threshold!r}")
        lines.append(f"rounds_to_threshold={'' if reached is None else reached}")
        return "\n".join(lines) + "\n"


def run(config: RunConfig) -> RunTrace:
    """Execute one run: actions, payoffs and learner updates a block of rounds
    at a time; metrics and churn at stage boundaries.  Deterministic given
    config (seed included).

    The population is arrays in slot order, fixed agents in the low slots:
    bases and explore rates (n,); stage-learner tallies (learners, k) and base
    sums (learners,), or a regret matcher's proxy (learners, k, k), action
    probabilities (learners, k) and round count.  A regret matcher's base is
    the action it played last.
    """
    game = config._game
    k, n, tau = game.k, config.n, config.resolved_stage_len
    streams = AgentStreams(config.seed, n)
    matching = config.mode == "matching"
    # made only when used: default_rng imports numpy.random (6.3 MB); churn's
    # stream is computed, as the agents' are
    match_rng = np.random.default_rng([config.seed, 1]) if matching else None
    churn = RawStream([config.seed, 2]) if config.churn_rate > 0.0 else None
    regret = config.learner == "regret"

    nf = int(config.fixed_fraction * n)  # fixed agents hold slots 0..nf-1
    bases = np.full(n, config.fixed_base, dtype=np.int64)
    bases[nf:] = streams.integers(k, nf)  # drawn even for regret
    explore = np.full(n, config.explore)
    explore[:nf] = config.fixed_explore
    stay = 1.0 - explore
    if regret:
        mu = config.resolved_mu
        proxy = np.zeros((n - nf, k, k))
        probs = np.full((n - nf, k), 1.0 / k)
        t = np.zeros(n - nf, dtype=np.int64)
    else:
        sums = np.zeros((n - nf, k))
        counts = np.zeros((n - nf, k))
        base_sum = np.zeros(n - nf)

    stages = config.rounds // tau
    realized_counts = np.empty((config.rounds, k), dtype=np.int32)
    stage_base = None if regret else np.empty((math.ceil(config.rounds / tau), k), np.int32)
    stage_rho = np.empty((stages, k))
    stage_br = np.empty(stages)
    width = 1 if regret else max(1, CAP // (n + k))

    for s, s0 in enumerate(range(0, config.rounds, tau)):
        s1 = min(s0 + tau, config.rounds)
        if not regret:
            stage_base[s] = np.bincount(bases, minlength=k)
        for r in range(s0, s1, width):
            u = streams.take(min(width, s1 - r))
            if regret:  # one round
                acts = np.empty(n, dtype=np.int64)
                if nf:
                    acts[:nf] = sample_mixed(bases[:nf], explore[:nf], k, u[0, :nf])[0]
                acts[nf:] = regret_act(probs, u[0, nf:])
                realized_counts[r] = hist = np.bincount(acts, minlength=k)
                payoffs = (game.matching_payoffs(acts, match_rng) if matching
                           else game.meanfield_table(hist[None])[0, acts])
                regret_observe(proxy, probs, t, bases[nf:], acts[nf:], payoffs[nf:],
                               mu, config.delta)
            else:
                x, j = explorers(bases, explore, stay, k, u)
                rows, cols = np.divmod(x, n)
                hist = event_histogram(stage_base[s], bases, rows, cols, j, len(u))
                realized_counts[r : r + len(u)] = hist
                if matching:  # the partners need every action
                    acts = bases[None].repeat(len(u), axis=0)
                    acts.reshape(-1)[x] = j
                    own = game.matching_payoffs(acts, match_rng)
                    pay = own.reshape(-1)[x]
                else:
                    table = game.meanfield_table(hist)
                    own, pay = table.take(bases, axis=1), table[rows, j]
                stage_tally(sums, counts, base_sum, own, rows, cols, j, pay)
                u = own = acts = None  # free this block's arrays before the next take
        if s == stages:  # trailing partial stage: no stage end, no metrics
            break
        if not regret:
            seen = realized_counts[s0:s1].sum(axis=0) if config.learner == "stats" else None
            stage_end(bases[nf:], sums, counts, base_sum, s1 - s0, seen, game.matrix)
        rho = ActionDistribution((realized_counts[s0:s1] / n).mean(axis=0))
        stage_rho[s] = rho.weights
        abr = list(best_reply_set(rho, config.metrics_eta, game))
        stage_br[s] = np.bincount(bases, minlength=k)[abr].sum() / n  # bases in ABR_eta(rho)
        if config.churn_rate > 0.0:  # fixed agents are never churned: only learners
            rows = apply_churn(bases[nf:], config.churn_rate, churn, None if regret else k)
            if regret:
                proxy[rows] = 0.0
                probs[rows] = 1.0 / k
                t[rows] = 0

    return RunTrace(
        config=config,
        realized_counts=realized_counts,
        stage_base=stage_base,
        stage_rho=stage_rho,
        stage_distance=np.vecdot(stage_rho, np.abs(np.arange(k) - config.target)),
        stage_br_fraction=stage_br,
    )


def run_stationary(game: MatrixGame, rho: ActionDistribution, bases, explore: float,
                   stage_len: int, rounds: int, seed: int) -> np.ndarray:
    """Drive one stage learner per entry of bases against a frozen rho for
    `rounds` rounds, and return their bases after the last full stage.

    The mean-field oracle hands back exact expected payoffs, so the only noise is
    the learners' own exploration; learner i draws from default_rng([seed, 0, i]).
    A RunConfig checks the settings, as in a run, so stage_len None is ceil(1/explore**2).
    """
    stage_len = RunConfig(explore=explore, stage_len=stage_len, rounds=rounds,
                          seed=seed).resolved_stage_len
    bases = _profile(bases, game.k, "bases")
    payoffs = game.utilities(rho)
    n = bases.size
    streams = AgentStreams(seed, n)
    sums = np.zeros((n, game.k))
    counts = np.zeros((n, game.k))
    base_sum = np.zeros(n)
    width = max(1, CAP // (n + game.k))
    for s0 in range(0, rounds - stage_len + 1, stage_len):
        for r in range(s0, s0 + stage_len, width):
            u = streams.take(min(width, s0 + stage_len - r))
            x, j = explorers(bases, explore, 1.0 - explore, game.k, u)
            own = payoffs[bases][None].repeat(len(u), axis=0)
            stage_tally(sums, counts, base_sum, own, *np.divmod(x, n), j, payoffs[j])
        stage_end(bases, sums, counts, base_sum, stage_len)
    return bases


def pool_size(threads: int, cells: int, cpus: int) -> int:
    """Worker processes for cells runs at a requested thread count: no more
    than there are cells or CPUs to run them; 1 means in-process."""
    _number(threads, "threads", "[1, inf)", integer=True)
    return max(1, min(threads, cells, cpus))


def pool_map(fn, items, threads: int):
    """An iterator over fn(x) for x in items, in item order, across pool_size
    worker processes forked when it is called (in-process, as map, where
    os.fork is missing); only results and the exceptions fn raises must be
    picklable.  Worker w runs items w, w + W, ... up to its first failure, which
    is raised when its item is reached.  Every worker is reaped, on a failed
    fork too: one still running ends at its next write.  CPUs are those this
    process may run on.  Workers forked under cli.main inherit its frozen heap,
    which their collections skip, so they do not copy its pages."""
    items = list(items)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = pool_size(threads, len(items), cpus if hasattr(os, "fork") else 1)
    if workers == 1:
        return map(fn, items)
    results = _forked_map(fn, items, workers)
    next(results)  # every fork happens here, so a failed one is raised by this call
    return results


def _forked_map(fn, items: list, workers: int):
    pipes, pids = [], []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            with open(fd, "wb") as out:  # the parent's end closes after its fork, or if it fails
                if (pid := os.fork()) == 0:  # the worker, which leaves only by os._exit
                    try:
                        for p in pipes:  # so its write fails once the parent stops reading
                            p.close()
                        for x in items[w::workers]:
                            try:
                                value = fn(x)
                            except Exception as exc:
                                out.write(pickle.dumps((False, exc)))  # and stop
                                break
                            out.write(pickle.dumps((True, value)))  # whole or not at all
                            out.flush()
                        out.close()  # flushes a failure record
                    finally:
                        os._exit(0)
            pids.append(pid)
        yield  # pool_map's next() stops here, with every worker forked
        for i in range(len(items)):
            try:
                ok, value = pickle.load(pipes[i % workers])
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"item {i}: its worker died or could not pickle it") from None
            if not ok:
                raise value
            yield value
    finally:
        for p in pipes:
            p.close()
        for pid in pids:
            os.waitpid(pid, 0)


def run_many(configs, threads: int = 1) -> list[RunTrace]:
    """Run several configs, optionally across processes; order preserved.

    Results are identical for any thread count — each run is internally
    sequential and fully seeded.
    """
    return list(pool_map(run, configs, threads))
