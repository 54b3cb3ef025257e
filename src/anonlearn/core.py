"""Core model for anonymous games.

An anonymous game is described by a finite action set and the expected
utility u(a, rho) of each action a against the population's action
distribution rho.  Everything an agent's payoff depends on is the fraction of
the population on each action, never agent identities.  Every game here is a
MatrixGame: a two-player payoff matrix played against the population.
"""

from __future__ import annotations

__all__ = [
    "NORM_TOL", "DimensionError", "ActionDistribution", "MixedAction", "MatrixGame",
    "as_strategy_vector", "utility", "l1_distance", "estimate_lipschitz",
]

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Distributions must sum to 1 within this tolerance at construction; they are
# renormalized exactly once and immutable afterwards.
NORM_TOL = 1e-9


class DimensionError(ValueError):
    """Action or payoff vectors disagree in size."""


def _action(a, k, name: str) -> int:
    """One action, an integer in range(k) (k = inf before the game is known),
    never a bool or an array, as an int; else DimensionError naming `name`."""
    try:  # a scalar skips numpy: an ABC isinstance alone would cost more than this
        if 0 <= operator.index(a) < k and not isinstance(a, bool):
            return operator.index(a)
    except TypeError:  # an array, or no integer
        pass
    raise DimensionError(f"{name}: action {a} out of range for {k} actions")


def _profile(actions, k, name: str) -> np.ndarray:
    """A pure profile, a nonempty 1-d vector of actions (k = inf before the
    game is known), as a new int64 array; else DimensionError naming `name`."""
    rule = f"{name}: must be a nonempty 1-d action vector, got"
    try:
        arr = np.asarray(actions)
    except ValueError:  # a ragged nesting, which has no shape
        raise DimensionError(f"{rule} a ragged sequence") from None
    if arr.ndim != 1 or not arr.size:
        raise DimensionError(f"{rule} shape {arr.shape}")
    k = min(k, 2**63)  # an action must fit the int64 it is cast to
    if arr.dtype.kind not in "iu" or ((arr < 0) | (arr >= k)).any():
        for a in arr.tolist():  # the first entry that is no action is named
            _action(a, k, name)
    return arr.astype(np.int64)


@functools.cache
def _interval(text: str):
    """An interval written as "(0, 1)" or "[2, inf)": (lo, hi, lo open, hi open)."""
    lo, hi = map(float, text[1:-1].split(","))
    return lo, hi, text[0] == "(", text[-1] == ")"


def _number(v, name: str, allowed, integer: bool = False):
    """v unchanged if it is one of `allowed`, a tuple of choices, or else a real
    number, not a bool (an integer if `integer`), in the interval `allowed`,
    written as "(0, 1)" or "[2, inf)"; NaN is in none.  Else ValueError naming `name`."""
    if type(allowed) is tuple:
        if v in allowed:
            return v
        raise ValueError(f"{name}: must be one of {allowed}, got {v!r}")
    if type(v) is int or (not integer and isinstance(v, float)) or (  # no ABC call, no bool
            not isinstance(v, bool) and isinstance(v, numbers.Integral if integer else numbers.Real)):
        lo, hi, lo_open, hi_open = _interval(allowed)
        if (lo < v if lo_open else lo <= v) and (v < hi if hi_open else v <= hi):
            return v
        raise ValueError(f"{name}: must be in {allowed}, got {v}")
    raise ValueError(f"{name}: must be {'an integer' if integer else 'a real number'}, got {v!r}")


class ActionDistribution:
    """Point of the simplex over actions.

    Doubles as the population aggregate: weights[a] is the fraction of agents
    choosing action a.  Immutable; the weight vector is renormalized once at
    construction and then frozen.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DimensionError(f"need a 1-d vector of >= 2 weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < -NORM_TOL).any():
            raise ValueError(f"negative weight: min={w.min()}")
        w = np.where(w < 0.0, 0.0, w)
        total = w.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"weights sum to {total}, not 1 within {NORM_TOL}")
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def k(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, k: int) -> "ActionDistribution":
        return cls(np.full(_number(k, "k", "[2, inf)", integer=True), 1.0 / k))

    @classmethod
    def point_mass(cls, a: int, k: int) -> "ActionDistribution":
        w = np.zeros(_number(k, "k", "[2, inf)", integer=True))
        w[_action(a, k, "a")] = 1.0
        return cls(w)

    @classmethod
    def from_counts(cls, counts) -> "ActionDistribution":
        c = np.asarray(counts, dtype=float)
        total = c.sum()
        if total <= 0:
            raise ValueError("counts must have positive total")
        return cls(c / total)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def __getitem__(self, a: int) -> float:
        return float(self.weights[_action(a, self.k, "a")])

    def __eq__(self, other) -> bool:
        return isinstance(other, ActionDistribution) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash(self.weights.tobytes())

    def __repr__(self):
        return f"ActionDistribution({np.array2string(self.weights, precision=4)})"


@dataclass(frozen=True)
class MixedAction:
    """Play `base` with probability 1-explore, otherwise uniform over the rest."""

    base: int
    explore: float = 0.0

    def __post_init__(self):
        _number(self.explore, "explore", "[0, 1)")
        _action(self.base, np.inf, "base")

    def vector(self, k: int) -> np.ndarray:
        w = np.full(_number(k, "k", "[2, inf)", integer=True), self.explore / (k - 1))
        w[_action(self.base, k, "base")] = 1.0 - self.explore
        return w

    def distribution(self, k: int) -> ActionDistribution:
        return ActionDistribution(self.vector(k))


class MatrixGame:
    """Anonymous game induced by a two-player payoff matrix.

    matrix[a][a'] is the payoff to an agent playing a whose opponent plays a'.
    The expected utility of a against rho is the mean of that partner lottery,
    sum over a' of matrix[a][a'] * rho[a'].  A mean-field run pays it exactly,
    against the other agents of each round (meanfield_table); a matching run
    samples one partner instead (matching_payoffs).
    `lipschitz` is a bound K on how fast expected payoffs move in rho (L1
    norm); max|matrix| unless a subclass declares a tighter one.
    """

    def __init__(self, matrix, labels=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"payoff matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError(f"a game needs >= 2 actions, got {m.shape[0]}")
        if not np.isfinite(m).all():
            raise ValueError("payoff matrix entries must be finite")
        if labels is not None and len(labels) != m.shape[0]:
            raise ValueError("labels length must equal the number of actions")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self._transposed = m.T.reshape(-1)  # a copy: matrix[a'][a] at a·k + a'
        self.k = m.shape[0]
        self.labels = None if labels is None else tuple(labels)
        self.lipschitz = float(np.abs(m).max())

    def _check_rho(self, rho: ActionDistribution):
        if rho.k != self.k:
            raise DimensionError(f"distribution over {rho.k} actions, game has {self.k}")

    def utilities(self, rho: ActionDistribution) -> np.ndarray:
        """Expected payoff of each action against `rho`, shape (k,)."""
        self._check_rho(rho)
        # vecdot sums each row exactly as the row dot product matrix[a] @ rho
        # does; matrix @ rho can differ in the last bit and flip near-ties.
        return np.vecdot(self.matrix, rho.weights)

    def meanfield_table(self, counts) -> np.ndarray:
        """Exact mean-field payoffs of a (rounds, k) action histogram, shape
        (rounds, k): entry [r, a] is what an agent playing a in round r earns
        on average against the other n-1 agents of that round,
        (matrix @ counts[r] - matrix[a, a]) / (n - 1), n the row's total.
        The stacked np.matmul runs one gemv per round, the bits of
        matrix @ counts[r]; a gemm (counts @ matrix.T) or np.vecdot can
        differ in the last bit."""
        counts = np.asarray(counts)
        n = counts.sum(axis=1, keepdims=True)
        if n.min() < 2:
            raise DimensionError("mean-field payoffs need at least 2 agents")
        totals = np.matmul(self.matrix, counts.astype(float)[..., None])[..., 0]
        totals -= np.diagonal(self.matrix)
        totals /= n - 1
        return totals

    def matching_payoffs(self, actions, rng) -> np.ndarray:
        """Payoffs of a uniform random perfect matching, matrix[a_i][a_partner],
        for (n,) actions or a (rounds, n) block.  A block draws the
        permutations that rng.permutation(n) would draw one per row, in row
        order, in one rng.permuted call on rows r·n + arange(n) (a shuffle
        moves positions whatever they hold), so they index the flat block: the
        pairs' actions are one 1-D gather, each pair's cell is left·k + right,
        both payoffs are lookups there in the flat matrix and its transpose,
        and the scatter back is one 1-D store."""
        block = np.atleast_2d(np.asarray(actions, dtype=int))
        b, n = block.shape
        if n % 2:
            raise ValueError(f"matching needs an even number of agents, got {n}")
        perm = np.arange(b * n).reshape(b, n)
        perm = rng.permuted(perm, axis=1, out=perm).reshape(-1)
        pair = block.reshape(-1)[perm].reshape(-1, 2)  # (left, right) rows
        cell = pair[:, 0] * self.k
        cell += pair[:, 1]
        pays = np.empty(pair.shape)
        pays[:, 0] = self.matrix.reshape(-1)[cell]
        pays[:, 1] = self._transposed[cell]
        payoffs = np.empty(block.shape)
        payoffs.reshape(-1)[perm] = pays.reshape(-1)
        return payoffs.reshape(np.shape(actions))

    def payoff_bounds(self) -> tuple[float, float]:
        """(min, max) payoff a single round can ever realize."""
        return float(self.matrix.min()), float(self.matrix.max())


def as_strategy_vector(s, k: int) -> np.ndarray:
    """Coerce a strategy (action index, MixedAction, or distribution) to a weight vector."""
    if isinstance(s, MixedAction):
        return s.vector(k)
    if isinstance(s, (int, np.integer)):
        return ActionDistribution.point_mass(s, k).weights
    if not isinstance(s, ActionDistribution):
        s = ActionDistribution(s)
    if s.k != k:
        raise DimensionError(f"strategy over {s.k} actions, expected {k}")
    return s.weights


def utility(s, rho: ActionDistribution, game: MatrixGame) -> float:
    """Expected utility of strategy s against population distribution rho.

    Exact expectation over the strategy's mixing; nothing is sampled.
    """
    return float(as_strategy_vector(s, game.k) @ game.utilities(rho))


def l1_distance(rho1: ActionDistribution, rho2: ActionDistribution) -> float:
    """Sum of absolute componentwise differences; in [0, 2] for distributions."""
    if rho1.k != rho2.k:
        raise DimensionError(f"dimension mismatch: {rho1.k} vs {rho2.k}")
    return float(np.abs(rho1.weights - rho2.weights).sum())


def estimate_lipschitz(game: MatrixGame, samples: int = 200, rng_seed: int = 0) -> float:
    """Sampled lower bound on the game's Lipschitz constant.

    Draws `samples` independent pairs of distributions uniformly from the
    simplex and returns the largest observed |u(a,rho)-u(a,rho')| / L1 ratio.
    Deterministic given the seed.
    """
    _number(samples, "samples", "[2, inf)", integer=True)
    rng = np.random.default_rng(rng_seed)
    alpha = np.ones(game.k)
    best = 0.0
    for _ in range(samples):
        r1 = ActionDistribution(rng.dirichlet(alpha))
        r2 = ActionDistribution(rng.dirichlet(alpha))
        gap = l1_distance(r1, r2)
        if gap < 1e-12:
            continue
        ratio = np.abs(game.utilities(r1) - game.utilities(r2)).max() / gap
        if ratio > best:
            best = float(ratio)
    return best
