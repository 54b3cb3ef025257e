"""Round loop over a finite population: run configs, the block loop (the
game pays the actions, the learners update) and the stage metrics.  The
seeding layout, the agents' streams and churn's draws live in streams."""

from __future__ import annotations

__all__ = ["RunConfig", "RunTrace", "run", "run_stationary", "run_many"]

import math
import os
import pickle
from dataclasses import dataclass, fields

import numpy as np

from .core import ActionDistribution, MatrixGame, _actions, _number
from .dynamics import best_reply_set
from .games import PENALTY_N, build_game
from .learners import regret_act, regret_observe, sample_mixed, stage_end, stage_tally
from .streams import AgentStreams, RawStream, apply_churn

LEARNER_KINDS = ("stage", "regret")
# Working-memory bounds for run: a block's (rounds, n) actions and (rounds, k)
# histogram hold at most CAP entries, unless n + k alone exceeds CAP, when a
# block is one round (the agents' streams are bounded by streams.UCAP and
# AHEAD); RunTrace.to_csv formats and writes CSV_ROWS rows at a time.
CAP = 1 << 12
CSV_ROWS = 512
# Each numeric RunConfig field's interval and whether it is an integer;
# run_stationary checks its arguments against the same entries.  The game
# checks target and fixed_base as actions.
_NUMBERS = {
    "penalty_n": ("[0, inf)", True), "n": ("[2, inf)", True), "rounds": ("[1, inf)", True),
    "stage_len": ("[1, inf)", True), "fixed_base": ("(-inf, inf)", True),
    "seed": ("[0, inf)", True), "target": ("(-inf, inf)", True),
    "explore": ("(0, 1)", False), "delta": ("(0, 1)", False), "mu": ("(0, inf)", False),
    "churn_rate": ("[0, 1]", False), "fixed_fraction": ("[0, 1]", False),
    "fixed_explore": ("[0, 1)", False), "metrics_eta": ("[0, inf)", False),
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation happens at construction, against
    the game itself (so game=matrix reads its matrix file then), which the
    config keeps outside its fields for run to play, pickled copies too."""

    game: str = "contribution"
    penalty_n: int = PENALTY_N
    matrix_path: str | None = None
    mode: str = "meanfield"
    learner: str = "stage"
    explore: float = 0.05
    stage_len: int | None = None  # None -> ceil(1/explore^2)
    mu: float | None = None  # None -> the game-derived default, see resolved_mu
    delta: float = 0.05
    n: int = 100
    rounds: int = 3000
    churn_rate: float = 0.0
    fixed_fraction: float = 0.0
    fixed_base: int = 0
    fixed_explore: float = 0.0
    seed: int = 0
    target: int = 8
    metrics_eta: float = 1.0

    def __post_init__(self):
        for key, (interval, integer) in _NUMBERS.items():
            v = getattr(self, key)
            if v is not None or key not in ("stage_len", "mu"):  # None: the derived default
                _number(v, key, interval, integer)
        if self.mode not in ("meanfield", "matching"):
            raise ValueError(f"mode: must be meanfield or matching, got {self.mode!r}")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"learner: must be one of {LEARNER_KINDS}, got {self.learner!r}")
        if self.mode == "matching" and self.n % 2:
            raise ValueError(f"n: matching mode needs an even population, got {self.n}")
        if self.churn_rate > 0.0 and int(self.fixed_fraction * self.n) == self.n:
            raise ValueError(
                f"churn_rate: churn replaces learners, and fixed_fraction="
                f"{self.fixed_fraction} leaves none among {self.n} agents"
            )
        if self.rounds < self.resolved_stage_len:
            raise ValueError(
                f"rounds: must cover at least one stage of {self.resolved_stage_len}, "
                f"got {self.rounds}"
            )
        game = build_game(self.game, self.penalty_n, self.matrix_path)
        for key in ("target", "fixed_base"):
            _actions(getattr(self, key), game.k, key)
        object.__setattr__(self, "_game", game)

    @property
    def resolved_stage_len(self) -> int:
        if self.stage_len is not None:
            return self.stage_len
        return math.ceil(1.0 / self.explore**2)

    @property
    def resolved_mu(self) -> float:
        """The regret matcher's damping: mu, or else 2·max(hi−lo, 1)·(k−1)
        from the game's k actions and payoff bounds [lo, hi]."""
        if self.mu is not None:
            return self.mu
        lo, hi = self._game.payoff_bounds()
        return 2.0 * max(hi - lo, 1.0) * (self._game.k - 1)

    def items(self):
        """(key, value) pairs of the fully-resolved config, for echoing."""
        out = [(f.name, getattr(self, f.name)) for f in fields(self)]
        out.append(("resolved_stage_len", self.resolved_stage_len))
        return out


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
    stage_distance: np.ndarray  # (stages,)
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
        round's realized and base distributions.  The bytes csv.writer would
        write, CSV_ROWS rows at a time: a cell holding count c is repr(c / n),
        formatted once for each count present; each stage's lead and base row
        are joined once."""
        tau, n = self.config.resolved_stage_len, self.config.n
        seen = np.zeros(n + 1, dtype=bool)
        seen[self.realized_counts] = True
        if self.stage_base is not None:
            seen[self.stage_base] = True
        table = np.empty(n + 1, dtype=object)
        c = np.flatnonzero(seen)
        table[c] = [repr(v) for v in (c / n).tolist()]
        leads = [f"{s},{d!r},{b!r}," for s, (d, b) in enumerate(zip(
            self.stage_distance.tolist(), self.stage_br_fraction.tolist()))]
        leads.append(f"{self.stages},,,")  # a trailing partial stage
        bases = None if self.stage_base is None else [
            ",".join(row) for row in table[self.stage_base].tolist()]
        header = ["round", "stage", "distance", "br_fraction"] + [
            f"{p}_{a}" for p in ("rho", "base") for a in range(self.k)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for r0 in range(0, self.rounds, CSV_ROWS):
                cells = [",".join(row) for row in
                         table[self.realized_counts[r0 : r0 + CSV_ROWS]].tolist()]
                ts = range(r0, r0 + len(cells))
                tails = cells if bases is None else [bases[t // tau] for t in ts]
                fh.writelines(f"{t},{leads[t // tau]}{row},{tail}\r\n"
                              for t, row, tail in zip(ts, cells, tails))

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
    stage_distance = np.empty(stages)
    stage_br = np.empty(stages)
    width = 1 if regret else max(1, CAP // (n + k))

    for s, s0 in enumerate(range(0, config.rounds, tau)):
        s1 = min(s0 + tau, config.rounds)
        if not regret:
            stage_base[s] = np.bincount(bases, minlength=k)
        for r in range(s0, s1, width):
            u = streams.take(min(width, s1 - r))
            if regret:
                acts = np.empty(u.shape, dtype=np.int64)
                if nf:
                    acts[:, :nf] = sample_mixed(bases[:nf], explore[:nf], k, u[:, :nf])[0]
                acts[0, nf:] = regret_act(probs, u[0, nf:])
            else:
                acts, x = sample_mixed(bases, explore, k, u)
            b = acts.shape[0]
            flat = acts + k * np.arange(b)[:, None]
            hist = np.bincount(flat.reshape(-1), minlength=b * k).reshape(b, k)
            realized_counts[r : r + b] = hist
            if matching:
                payoffs = game.matching_payoffs(acts, match_rng)
            else:
                payoffs = game.meanfield_table(hist).reshape(-1)[flat]
            if regret:
                regret_observe(proxy, probs, t, bases[nf:], acts[0, nf:], payoffs[0, nf:],
                               mu, config.delta)
            else:
                stage_tally(sums, counts, base_sum, acts, payoffs, x)
        if s == stages:  # trailing partial stage: no stage end, no metrics
            break
        if not regret:
            stage_end(bases[nf:], sums, counts, base_sum, s1 - s0)
        rho = ActionDistribution((realized_counts[s0:s1] / n).mean(axis=0))
        stage_rho[s] = rho.weights
        stage_distance[s] = rho.weights @ np.abs(np.arange(k) - config.target)
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
        stage_distance=stage_distance,
        stage_br_fraction=stage_br,
    )


def run_stationary(game: MatrixGame, rho: ActionDistribution, bases, explore: float,
                   stage_len: int, rounds: int, seed: int) -> np.ndarray:
    """Drive one stage learner per entry of bases against a frozen rho for
    `rounds` rounds, and return their bases after the last full stage.

    The mean-field oracle hands back exact expected payoffs, so the only noise
    is the learners' own exploration.  Learner i draws from
    default_rng([seed, 0, i]).
    """
    for key, v in (("explore", explore), ("stage_len", stage_len), ("rounds", rounds),
                   ("seed", seed)):
        _number(v, key, *_NUMBERS[key])
    bases = _actions(bases, game.k, "bases")
    if rounds < stage_len:
        raise ValueError(f"rounds: must cover at least one stage of {stage_len}, got {rounds}")
    if np.ndim(bases) != 1 or np.size(bases) == 0:
        raise ValueError("bases must be a nonempty 1-d vector of actions")
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
            acts, x = sample_mixed(bases, explore, game.k, u)
            stage_tally(sums, counts, base_sum, acts, payoffs[acts], x)
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
