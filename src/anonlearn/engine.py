"""Round loop over a finite population: payoff realization, churn, metrics,
and deterministic seeding.

Seeding layout: agent i draws from default_rng([seed, 0, i]) for its whole
lifetime (so changing n never reshuffles other agents' draws), the matching
shuffle from default_rng([seed, 1]), and churn coins/bases from
default_rng([seed, 2]).
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import ActionDistribution, AnonymousGame, DimensionError, MixedAction
from .dynamics import best_reply_set
from .games import (
    ContributionGame,
    MatrixGame,
    climbing_game,
    load_matrix,
    prisoners_dilemma,
)
from .learners import FixedAgent, RegretMatcher, StageLearner

GAME_KINDS = ("contribution", "prisoners_dilemma", "climbing", "matrix")
LEARNER_KINDS = ("stage", "regret")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation happens at construction, against
    the game itself (so game=matrix reads its matrix file then)."""

    game: str = "contribution"
    penalty_n: int = 20
    matrix_path: str | None = None
    mode: str = "meanfield"
    learner: str = "stage"
    explore: float = 0.05
    stage_len: int | None = None  # None -> ceil(1/explore^2)
    mu: float | None = None  # None -> regret matcher's game-derived default
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
        if self.mode not in ("meanfield", "matching"):
            raise ValueError(f"mode: must be meanfield or matching, got {self.mode!r}")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"learner: must be one of {LEARNER_KINDS}, got {self.learner!r}")
        if not 0.0 < self.explore < 1.0:
            raise ValueError(f"explore: must be in (0, 1), got {self.explore}")
        if self.stage_len is not None and self.stage_len < 1:
            raise ValueError(f"stage_len: must be >= 1, got {self.stage_len}")
        if self.mu is not None and self.mu <= 0:
            raise ValueError(f"mu: must be positive, got {self.mu}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta: must be in (0, 1), got {self.delta}")
        if self.n < 2:
            raise ValueError(f"n: need at least 2 agents, got {self.n}")
        if self.mode == "matching" and self.n % 2:
            raise ValueError(f"n: matching mode needs an even population, got {self.n}")
        for key in ("churn_rate", "fixed_fraction"):
            v = getattr(self, key)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{key}: must be in [0, 1], got {v}")
        if self.churn_rate > 0.0 and int(self.fixed_fraction * self.n) == self.n:
            raise ValueError(
                f"churn_rate: churn replaces learners, and fixed_fraction="
                f"{self.fixed_fraction} leaves none among {self.n} agents"
            )
        if not 0.0 <= self.fixed_explore < 1.0:
            raise ValueError(f"fixed_explore: must be in [0, 1), got {self.fixed_explore}")
        if self.rounds < self.resolved_stage_len:
            raise ValueError(
                f"rounds: must cover at least one stage of {self.resolved_stage_len}, "
                f"got {self.rounds}"
            )
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")
        if self.metrics_eta < 0:
            raise ValueError(f"metrics_eta: must be >= 0, got {self.metrics_eta}")
        k = build_game(self.game, self.penalty_n, self.matrix_path).k
        for key in ("target", "fixed_base"):
            a = getattr(self, key)
            if not 0 <= a < k:
                raise ValueError(f"{key}: action {a} out of range for {k} actions")

    @property
    def resolved_stage_len(self) -> int:
        if self.stage_len is not None:
            return self.stage_len
        return math.ceil(1.0 / self.explore**2)

    def items(self):
        """(key, value) pairs of the fully-resolved config, for echoing."""
        out = [(f.name, getattr(self, f.name)) for f in fields(self)]
        out.append(("resolved_stage_len", self.resolved_stage_len))
        return out


def build_game(kind: str, penalty_n: int, matrix_path: str | None) -> AnonymousGame:
    """The game named by kind, one of GAME_KINDS."""
    if kind == "contribution":
        return ContributionGame(penalty_n)
    if kind == "prisoners_dilemma":
        return prisoners_dilemma()
    if kind == "climbing":
        return climbing_game()
    if kind != "matrix":
        raise ValueError(f"game: must be one of {GAME_KINDS}, got {kind!r}")
    if not matrix_path:
        raise ValueError("matrix_path: required when game=matrix")
    return MatrixGame(load_matrix(matrix_path))


@dataclass
class Population:
    """The n agents of a run, in slot order; fixed agents occupy the low slots."""

    agents: list

    def __post_init__(self):
        if len(self.agents) < 2:
            raise ValueError(f"population needs >= 2 agents, got {len(self.agents)}")

    @property
    def n(self) -> int:
        return len(self.agents)

    def bases(self) -> np.ndarray:
        return np.array([agent.current_base() for agent in self.agents])


def _make_learner(config: RunConfig, game: AnonymousGame, base: int):
    if config.learner == "stage":
        return StageLearner(game.k, base, config.explore, config.resolved_stage_len)
    if config.mu is not None:
        return RegretMatcher(game.k, config.mu, config.delta)
    return RegretMatcher.for_game(game, config.delta)


def build_population(config: RunConfig, game: AnonymousGame, agent_rngs) -> Population:
    """Fixed agents first (floor(fixed_fraction * n) of them), then learners.

    Learner bases are drawn uniformly from each agent's own stream.
    """
    n_fixed = int(config.fixed_fraction * config.n)
    strategy = MixedAction(config.fixed_base, config.fixed_explore)
    agents = []
    for i in range(config.n):
        if i < n_fixed:
            agents.append(FixedAgent(game.k, strategy))
        else:
            base = int(agent_rngs[i].integers(game.k))
            agents.append(_make_learner(config, game, base))
    return Population(agents)


def realize_meanfield(actions, game: AnonymousGame) -> np.ndarray:
    """Exact expected payoff for each agent against the other n-1 agents.

    Games exposing payoff_matrix() get a closed-form path; otherwise the
    utilities are evaluated once per distinct action played.
    """
    acts = np.asarray(actions, dtype=int)
    n = acts.size
    if n < 2:
        raise DimensionError("mean-field payoffs need at least 2 agents")
    k = game.k
    counts = np.bincount(acts, minlength=k).astype(float)
    matrix_of = getattr(game, "payoff_matrix", None)
    if matrix_of is not None:
        m = matrix_of()
        totals = m @ counts
        return (totals[acts] - m[acts, acts]) / (n - 1)
    by_action = np.empty(k)
    for a in np.flatnonzero(counts):
        others = counts.copy()
        others[a] -= 1.0
        by_action[a] = game.utilities(ActionDistribution(others / (n - 1)))[a]
    return by_action[acts]


def realize_matching(actions, matrix, rng) -> np.ndarray:
    """Uniform random perfect matching; payoff matrix[a_i][a_partner]."""
    acts = np.asarray(actions, dtype=int)
    n = acts.size
    if n % 2:
        raise ValueError(f"matching needs an even number of agents, got {n}")
    m = np.asarray(matrix, dtype=float)
    perm = rng.permutation(n)
    left, right = perm[0::2], perm[1::2]
    payoffs = np.empty(n)
    payoffs[left] = m[acts[left], acts[right]]
    payoffs[right] = m[acts[right], acts[left]]
    return payoffs


def apply_churn(population: Population, rate: float, rng, factory=None) -> Population:
    """Replace each learner independently with probability rate.

    Replacements come from factory(rng); the default spawns stage learners
    with a uniformly random base, copying the parameters of the first stage
    learner found.  Fixed agents are never churned — their persistence is the
    point of having them.  The population is mutated in place and returned.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"churn rate must be in [0, 1], got {rate}")
    if factory is None:
        template = next(
            (a for a in population.agents if isinstance(a, StageLearner)), None
        )
        if template is None:
            raise ValueError("no stage learner to copy; pass an explicit factory")

        def factory(r):
            base = int(r.integers(template.k))
            return StageLearner(template.k, base, template.explore, template.stage_len)

    for i, agent in enumerate(population.agents):
        if isinstance(agent, FixedAgent):
            continue
        if rng.random() < rate:
            population.agents[i] = factory(rng)
    return population


def distance_from_equilibrium(rho: ActionDistribution, target: int) -> float:
    """Mean |a - target| under rho."""
    if not 0 <= target < rho.k:
        raise DimensionError(f"target {target} out of range for {rho.k} actions")
    gaps = np.abs(np.arange(rho.k) - target)
    return float(rho.weights @ gaps)


def measure_stage_rho(rounds_rho) -> ActionDistribution:
    """Pool a stage's per-round action frequencies into one distribution."""
    rows = np.asarray(rounds_rho, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise DimensionError("need a (rounds, k) block of per-round frequencies")
    return ActionDistribution(rows.mean(axis=0))


def best_reply_fraction(
    population: Population, rho: ActionDistribution, eta: float, game: AnonymousGame
) -> float:
    """Fraction of agents whose current base is an eta-best reply to rho."""
    abr = best_reply_set(rho, eta, game)
    bases = population.bases()
    return float(np.mean([b in abr for b in bases]))


@dataclass
class RunTrace:
    """Everything a run produced; one row per round, one metric set per stage."""

    config: RunConfig
    k: int
    realized_dist: np.ndarray  # (rounds, k)
    base_dist: np.ndarray  # (rounds, k)
    stage_rho: np.ndarray  # (stages, k)
    stage_distance: np.ndarray  # (stages,)
    stage_br_fraction: np.ndarray  # (stages,)

    @property
    def rounds(self) -> int:
        return self.realized_dist.shape[0]

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
        round's realized and base distributions."""
        tau = self.config.resolved_stage_len
        header = (
            ["round", "stage", "distance", "br_fraction"]
            + [f"rho_{a}" for a in range(self.k)]
            + [f"base_{a}" for a in range(self.k)]
        )
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for t in range(self.rounds):
                s = t // tau
                if s < self.stages:
                    metrics = [repr(float(self.stage_distance[s])),
                               repr(float(self.stage_br_fraction[s]))]
                else:  # trailing partial stage
                    metrics = ["", ""]
                writer.writerow(
                    [t, s]
                    + metrics
                    + [repr(float(v)) for v in self.realized_dist[t]]
                    + [repr(float(v)) for v in self.base_dist[t]]
                )

    def summary_text(self, threshold: float = 0.5) -> str:
        lines = [f"{key}={value}" for key, value in self.config.items()]
        lines.append(f"stages={self.stages}")
        lines.append(f"final_distance={self.final_distance!r}")
        reached = self.rounds_to_threshold(threshold)
        lines.append(f"threshold={threshold!r}")
        lines.append(f"rounds_to_threshold={'' if reached is None else reached}")
        return "\n".join(lines) + "\n"


def run(config: RunConfig) -> RunTrace:
    """Execute one run: act, realize payoffs, observe, every round; metrics and
    churn at stage boundaries.  Deterministic given config (seed included)."""
    game = build_game(config.game, config.penalty_n, config.matrix_path)
    k, n, tau = game.k, config.n, config.resolved_stage_len
    agent_rngs = [np.random.default_rng([config.seed, 0, i]) for i in range(n)]
    population = build_population(config, game, agent_rngs)
    agents = population.agents
    match_rng = np.random.default_rng([config.seed, 1])
    churn_rng = np.random.default_rng([config.seed, 2])
    matching = config.mode == "matching"
    matrix = game.payoff_matrix() if matching else None

    churn_factory = None
    if config.churn_rate > 0.0 and config.learner == "regret":
        def churn_factory(r):
            return _make_learner(config, game, 0)

    stages = config.rounds // tau
    realized_hist = np.empty((config.rounds, k))
    base_hist = np.empty((config.rounds, k))
    stage_rho = np.empty((stages, k))
    stage_distance = np.empty(stages)
    stage_br = np.empty(stages)

    # Bases move only at stage boundaries for stage/fixed agents; regret
    # matchers re-anchor on every realized action, so their base row is the
    # realized row.
    rolling_bases = config.learner == "regret"
    base_row = np.bincount(population.bases(), minlength=k) / n

    for t in range(config.rounds):
        acts = np.fromiter(
            (agent.act(rng) for agent, rng in zip(agents, agent_rngs)),
            dtype=np.int64,
            count=n,
        )
        if matching:
            payoffs = realize_matching(acts, matrix, match_rng)
        else:
            payoffs = realize_meanfield(acts, game)
        for agent, a, p in zip(agents, acts, payoffs):
            agent.observe(a, p)
        realized_hist[t] = np.bincount(acts, minlength=k) / n
        boundary = (t + 1) % tau == 0
        # row t shows the bases in force during round t; the end_stage that
        # fires inside the boundary observes only applies from round t+1
        base_hist[t] = realized_hist[t] if rolling_bases else base_row
        if boundary:
            s = (t + 1) // tau - 1
            if s < stages:
                rho = measure_stage_rho(realized_hist[t + 1 - tau : t + 1])
                stage_rho[s] = rho.weights
                stage_distance[s] = distance_from_equilibrium(rho, config.target)
                stage_br[s] = best_reply_fraction(population, rho, config.metrics_eta, game)
            if config.churn_rate > 0.0:
                apply_churn(population, config.churn_rate, churn_rng, churn_factory)
            base_row = np.bincount(population.bases(), minlength=k) / n

    return RunTrace(
        config=config,
        k=k,
        realized_dist=realized_hist,
        base_dist=base_hist,
        stage_rho=stage_rho,
        stage_distance=stage_distance,
        stage_br_fraction=stage_br,
    )


def run_stationary(game: AnonymousGame, rho: ActionDistribution, learners, rounds: int, seed: int):
    """Drive each learner independently against a frozen rho for `rounds` rounds.

    The mean-field oracle hands back exact expected payoffs, so the only noise
    is the learners' own exploration.  Learner i draws from
    default_rng([seed, 0, i]).  Mutates the learners; returns them.
    """
    payoffs = game.utilities(rho)
    for i, learner in enumerate(learners):
        rng = np.random.default_rng([seed, 0, i])
        for _ in range(rounds):
            a = learner.act(rng)
            learner.observe(a, payoffs[a])
    return learners


def _run_indexed(args):
    idx, config = args
    return idx, run(config)


def run_many(configs, threads: int = 1) -> list[RunTrace]:
    """Run several configs, optionally across processes; order preserved.

    Results are identical for any thread count — each run is internally
    sequential and fully seeded.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or len(configs) <= 1:
        return [run(c) for c in configs]
    out: list = [None] * len(configs)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for idx, trace in pool.map(_run_indexed, list(enumerate(configs))):
            out[idx] = trace
    return out


def sweep_seeds(config: RunConfig, seeds, threads: int = 1) -> list[RunTrace]:
    """The same config at several master seeds."""
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    return run_many([replace(config, seed=s) for s in seeds], threads)
