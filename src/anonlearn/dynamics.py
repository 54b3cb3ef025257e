"""Best-reply machinery: approximate best-reply sets, sequences, and the
(e, eps)-closeness relation between action distributions."""

from __future__ import annotations

__all__ = [
    "best_reply_set", "br_step", "BestReplySequence", "br_sequence", "is_eta_nash",
    "pure_profile_distribution", "mixed_profile_distribution",
    "CloseWitness", "verify_close", "close_l1_bound", "abr_containment_threshold",
]

from dataclasses import dataclass

import numpy as np

from .core import (ActionDistribution, DimensionError, MatrixGame, MixedAction, NORM_TOL,
                   _number, _profile, l1_distance)

BR_RULES = ("pointmass", "uniform")


def best_reply_set(rho: ActionDistribution, eta: float, game: MatrixGame) -> set[int]:
    """Actions whose utility against rho is within eta of the best.

    Comparison is raw double arithmetic: eta is the intended slack, no extra
    epsilon is layered on.
    """
    _number(eta, "eta", "[0, inf]")
    u = game.utilities(rho)
    best = u.max()
    return {int(a) for a in np.flatnonzero(u + eta >= best)}


def br_step(
    rho: ActionDistribution, eta: float, game: MatrixGame, rule: str = BR_RULES[0]
) -> ActionDistribution:
    """One step of the best-reply map: a distribution supported on ABR_eta(rho).

    pointmass puts everything on the lowest-index best reply; uniform spreads
    evenly over the whole set.
    """
    abr = best_reply_set(rho, eta, game)
    if _number(rule, "rule", BR_RULES) == "pointmass":
        return ActionDistribution.point_mass(min(abr), game.k)
    w = np.zeros(game.k)
    w[sorted(abr)] = 1.0 / len(abr)
    return ActionDistribution(w)


@dataclass
class BestReplySequence:
    """Trajectory rho_0, rho_1, ... of the best-reply map."""

    steps: list[ActionDistribution]
    converged: bool
    fixed_point_index: int | None

    def __len__(self):
        return len(self.steps)


def br_sequence(
    rho0: ActionDistribution,
    eta: float,
    game: MatrixGame,
    max_steps: int = 100,
    rule: str = BR_RULES[0],
) -> BestReplySequence:
    """Iterate br_step from rho0 until a fixed point or max_steps.

    The step map is deterministic, so convergence is declared on the first
    exact repeat.  Non-convergence is data, not an error: the truncated
    trajectory comes back with converged=False.
    """
    _number(max_steps, "max_steps", "[1, inf)", integer=True)
    steps = [rho0]
    for _ in range(max_steps):
        nxt = br_step(steps[-1], eta, game, rule)
        steps.append(nxt)
        if nxt == steps[-2]:
            return BestReplySequence(steps, True, len(steps) - 2)
    return BestReplySequence(steps, False, None)


def is_eta_nash(rho: ActionDistribution, eta: float, game: MatrixGame) -> bool:
    """True iff every action rho plays is an eta-best reply to rho itself."""
    abr = best_reply_set(rho, eta, game)
    return all(int(a) in abr for a in rho.support())


def pure_profile_distribution(actions, k: int) -> ActionDistribution:
    """Empirical action distribution of a finite pure-action profile."""
    a = _profile(actions, _number(k, "k", "[2, inf)", integer=True), "actions")
    return ActionDistribution.from_counts(np.bincount(a, minlength=k))


def _mixed_profile(strategies, name: str) -> tuple:
    """A mixed profile as a tuple of MixedActions; else ValueError naming `name`."""
    for s in (strategies := tuple(strategies)):
        if not isinstance(s, MixedAction):
            raise ValueError(f"{name}: must hold MixedActions, got {s!r}")
    return strategies


def mixed_profile_distribution(strategies, k: int) -> ActionDistribution:
    """Population distribution induced by per-agent mixed strategies.

    Agent (base b, explore e) puts e/(k-1) on every action and
    1 - e*k/(k-1) more on b, so the sum is one bincount over the bases.
    """
    _number(k, "k", "[2, inf)", integer=True)
    strategies = _mixed_profile(strategies, "strategies")
    bases = _profile([s.base for s in strategies], k, "strategies")
    explore = np.array([s.explore for s in strategies])
    w = np.bincount(bases, weights=1.0 - explore * k / (k - 1), minlength=k)
    return ActionDistribution((w + explore.sum() / (k - 1)) / len(strategies))


@dataclass(frozen=True)
class CloseWitness:
    """Candidate evidence that one distribution is (e, eps)-close to another.

    g and gprime assign a pure action to each agent; ghat assigns a mixed
    action.  Construction checks shapes and that g, gprime and ghat hold (mixed)
    actions of some game; the game's k and the closeness conditions are verify_close's job.
    """

    g: tuple[int, ...]
    gprime: tuple[int, ...]
    ghat: tuple[MixedAction, ...]
    e: float
    eps: float

    def __post_init__(self):
        for key in ("g", "gprime"):
            object.__setattr__(self, key, tuple(_profile(getattr(self, key), np.inf, key).tolist()))
        object.__setattr__(self, "ghat", _mixed_profile(self.ghat, "ghat"))
        if not len(self.g) == len(self.gprime) == len(self.ghat):
            raise DimensionError(
                f"profiles must cover one population: sizes {len(self.g)}, "
                f"{len(self.gprime)}, {len(self.ghat)}"
            )
        for key in ("e", "eps"):
            _number(getattr(self, key), key, "[0, 1]")

    @property
    def n(self) -> int:
        return len(self.g)


def verify_close(
    witness: CloseWitness, rho: ActionDistribution, rhohat: ActionDistribution
) -> bool:
    """Check the four closeness conditions on a finite population.

    1. g induces rho and ghat induces rhohat;
    2. g assigns plain actions (structural, given the types);
    3. ||rho_g - rho_g'||_1 <= 2e;
    4. ghat explores the gprime actions at one common rate <= eps.

    Empirical frequencies stand in for the infinite-population aggregates,
    and float comparisons get NORM_TOL of slack.  The relation is
    deliberately asymmetric: swap rho and rhohat and it generally fails.
    """
    for key, actions in (("g", witness.g), ("gprime", witness.gprime),
                         ("ghat", [m.base for m in witness.ghat])):
        _profile(actions, rho.k, key)  # the profile at fault, by its field's name
    rho_g = pure_profile_distribution(witness.g, rho.k)
    rho_gp = pure_profile_distribution(witness.gprime, rho.k)
    rho_ghat = mixed_profile_distribution(witness.ghat, rho.k)

    if l1_distance(rho_ghat, rhohat) > NORM_TOL:  # DimensionError if rhohat.k != rho.k
        return False
    if l1_distance(rho_g, rho) > NORM_TOL:
        return False
    if l1_distance(rho_g, rho_gp) > 2.0 * witness.e + NORM_TOL:
        return False
    explore = witness.ghat[0].explore
    if explore > witness.eps + NORM_TOL:
        return False
    for a, m in zip(witness.gprime, witness.ghat):
        if m.base != a or abs(m.explore - explore) > NORM_TOL:
            return False
    return True


def close_l1_bound(e: float, eps: float) -> float:
    """L1 guarantee for an (e, eps)-close pair: 2(e + eps)."""
    return 2.0 * (_number(e, "e", "[0, 1]") + _number(eps, "eps", "[0, 1]"))


def abr_containment_threshold(eta: float, K: float) -> float:
    """Closeness budget d_eta = eta/(8K) under which ABR_{eta/2} of the noisy
    distribution stays inside ABR_eta of the clean one."""
    return _number(eta, "eta", "(0, inf]") / (8.0 * _number(K, "K", "(0, inf]"))
