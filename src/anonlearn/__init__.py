"""anonlearn: learning dynamics in large anonymous games.

Finite-action games whose payoffs depend only on an agent's own action and
the population's action distribution, plus the machinery to study how simple
payoff-driven learners behave in them: best-reply dynamics, stage learners
and regret matching, mean-field and matching payoffs, churn, and a
deterministic experiment engine with a CLI.  These names are the user API;
the array kernels over a population are in anonlearn.learners, the random
streams and churn's draws in anonlearn.streams.
"""

from .core import (
    NORM_TOL,
    ActionDistribution,
    DimensionError,
    MatrixGame,
    MixedAction,
    as_strategy_vector,
    estimate_lipschitz,
    l1_distance,
    utility,
)
from .dynamics import (
    BestReplySequence,
    CloseWitness,
    abr_containment_threshold,
    best_reply_set,
    br_sequence,
    br_step,
    close_l1_bound,
    is_eta_nash,
    mixed_profile_distribution,
    pure_profile_distribution,
    verify_close,
)
from .games import (
    CONTRIBUTION_LEVELS,
    ContributionGame,
    build_game,
    climbing_game,
    contribution_cost,
    load_matrix,
    prisoners_dilemma,
)
from .engine import (
    RunConfig,
    RunTrace,
    run,
    run_many,
    run_stationary,
)
from .config import ConfigError, load_experiment, parse_config_text

__version__ = "0.1.0"

__all__ = [
    "NORM_TOL",
    "ActionDistribution",
    "BestReplySequence",
    "CloseWitness",
    "ConfigError",
    "CONTRIBUTION_LEVELS",
    "ContributionGame",
    "DimensionError",
    "MatrixGame",
    "MixedAction",
    "RunConfig",
    "RunTrace",
    "abr_containment_threshold",
    "as_strategy_vector",
    "best_reply_set",
    "br_sequence",
    "br_step",
    "build_game",
    "climbing_game",
    "close_l1_bound",
    "contribution_cost",
    "estimate_lipschitz",
    "is_eta_nash",
    "l1_distance",
    "load_experiment",
    "load_matrix",
    "mixed_profile_distribution",
    "parse_config_text",
    "prisoners_dilemma",
    "pure_profile_distribution",
    "run",
    "run_many",
    "run_stationary",
    "utility",
    "verify_close",
]
