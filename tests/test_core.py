"""Primitives: distributions, mixed actions, utilities."""

import re

import numpy as np
import pytest

import anonlearn
from anonlearn import (
    ActionDistribution,
    CloseWitness,
    ContributionGame,
    DimensionError,
    MatrixGame,
    MixedAction,
    RunConfig,
    as_strategy_vector,
    br_step,
    build_game,
    contribution_cost,
    estimate_lipschitz,
    l1_distance,
    mixed_profile_distribution,
    prisoners_dilemma,
    pure_profile_distribution,
    run_stationary,
    utility,
)
from anonlearn.core import _number

PD = [[3.0, 0.0], [5.0, 1.0]]


def test_public_names_resolve():
    namespace = {}
    exec("from anonlearn import *", namespace)
    assert [name for name in anonlearn.__all__ if name not in namespace] == []


API = [
    "NORM_TOL", "ActionDistribution", "BestReplySequence", "CloseWitness", "ConfigError",
    "CONTRIBUTION_LEVELS", "ContributionGame", "DimensionError", "MatrixGame", "MixedAction",
    "RunConfig", "RunTrace", "abr_containment_threshold", "as_strategy_vector", "best_reply_set",
    "br_sequence", "br_step", "build_game", "climbing_game", "close_l1_bound",
    "contribution_cost", "estimate_lipschitz", "is_eta_nash", "l1_distance", "load_experiment",
    "load_matrix", "mixed_profile_distribution", "parse_config_text", "prisoners_dilemma",
    "pure_profile_distribution", "run", "run_many", "run_stationary", "utility", "verify_close",
]


def test_public_names_are_declared_once_in_their_modules():
    # the top level republishes five modules' __all__, each name from the
    # module that defines it; the kernels and stream helpers stay off it
    assert sorted(anonlearn.__all__) == sorted(API)
    modules = [anonlearn.core, anonlearn.dynamics, anonlearn.games, anonlearn.engine,
               anonlearn.config]
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):  # not the constants
                assert obj.__module__ == module.__name__, name
    joined = [name for module in modules for name in module.__all__]
    assert len(set(joined)) == len(joined)
    assert joined == anonlearn.__all__
    for name in ("explorers", "sample_mixed", "event_histogram", "stage_tally", "stage_end",
                 "regret_act", "regret_observe", "AgentStreams", "RawStream", "apply_churn"):
        assert not hasattr(anonlearn, name), name


def test_action_set_basics():
    game = MatrixGame(np.eye(3))
    assert (game.k, game.labels) == (3, None)
    named = MatrixGame(PD, labels=["C", "D"])
    assert (named.k, named.labels) == (2, ("C", "D"))
    with pytest.raises(ValueError, match=">= 2 actions"):
        MatrixGame([[1.0]])
    with pytest.raises(ValueError, match="labels"):
        MatrixGame(np.eye(2), labels=("C", "D", "E"))


def test_distribution_construction():
    rho = ActionDistribution([0.25, 0.25, 0.5])
    assert rho.k == 3
    np.testing.assert_allclose(rho.weights, [0.25, 0.25, 0.5])
    assert rho.weights.sum() == 1.0


def test_distribution_rejects_bad_weights():
    with pytest.raises(ValueError):
        ActionDistribution([0.5, -0.1, 0.6])
    with pytest.raises(ValueError):
        ActionDistribution([0.4, 0.4])  # sums to 0.8
    with pytest.raises(DimensionError):
        ActionDistribution([1.0])  # single action is not a game
    with pytest.raises(ValueError, match="finite"):
        ActionDistribution([0.5, float("nan"), 0.5])
    with pytest.raises(ValueError, match="positive total"):
        ActionDistribution.from_counts([0, 0, 0])


def test_distribution_renormalizes_float_dust():
    w = np.full(7, 1.0 / 7)  # sums to 1 - 2 ulp
    rho = ActionDistribution(w)
    assert abs(rho.weights.sum() - 1.0) <= 5e-16


def test_distribution_is_frozen():
    rho = ActionDistribution.uniform(4)
    with pytest.raises(ValueError):
        rho.weights[0] = 0.9


def test_uniform_point_mass_counts():
    assert ActionDistribution.uniform(4) == ActionDistribution([0.25] * 4)
    delta = ActionDistribution.point_mass(2, 5)
    assert delta[2] == 1.0 and delta[0] == 0.0
    rho = ActionDistribution.from_counts([2, 0, 2])
    np.testing.assert_array_equal(rho.weights, [0.5, 0.0, 0.5])
    np.testing.assert_array_equal(rho.support(), [0, 2])
    assert repr(ActionDistribution.uniform(3)) == "ActionDistribution([0.3333 0.3333 0.3333])"


@pytest.mark.parametrize("a", [-1, 3, [0, 1]])
def test_point_mass_rejects_an_index_outside_its_actions(a):
    # -1 once wrapped round to the last action and 3 raised IndexError; [0, 1]
    # once made weights summing to 2, and indexed two weights at once
    message = f"^{re.escape(f'a: action {a} out of range for 3 actions')}$"
    with pytest.raises(DimensionError, match=message):
        ActionDistribution.point_mass(a, 3)
    with pytest.raises(DimensionError, match=message):
        ActionDistribution.uniform(3)[a]


def test_distribution_equality_is_exact():
    a = ActionDistribution([0.5, 0.5])
    b = ActionDistribution([0.5, 0.5])
    c = ActionDistribution([0.5 + 1e-12, 0.5 - 1e-12])
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_mixed_action_vector():
    m = MixedAction(base=2, explore=0.1)
    np.testing.assert_allclose(m.vector(5), [0.025, 0.025, 0.9, 0.025, 0.025])
    assert m.vector(5).sum() == pytest.approx(1.0)
    pure = MixedAction(base=1)
    np.testing.assert_array_equal(pure.vector(3), [0.0, 1.0, 0.0])


def test_mixed_action_validation():
    with pytest.raises(ValueError):
        MixedAction(base=0, explore=1.0)
    with pytest.raises(ValueError):
        MixedAction(base=-1, explore=0.1)
    with pytest.raises(DimensionError):
        MixedAction(base=5, explore=0.1).vector(3)


def test_mixed_action_explore_must_be_a_real_number():
    with pytest.raises(ValueError, match="^explore: must be a real number, got '0.1'$"):
        MixedAction(0, explore="0.1")


def test_number_checks_a_type_and_an_interval():
    from anonlearn.core import _number
    i8 = np.int64(3)
    assert _number(i8, "n", "[3, 3]", integer=True) is i8  # returned unchanged
    assert _number(3, "x", "(2, 4)") == 3  # an integer is a real number
    assert _number(0.0, "x", "[0, 1)") == 0.0 and _number(1.0, "x", "(0, 1]") == 1.0
    assert _number(float("inf"), "x", "[0, inf]") == float("inf")
    for v, interval in ((0.0, "(0, 1)"), (1.0, "[0, 1)"), (float("inf"), "[0, inf)"),
                        (float("nan"), "(-inf, inf)")):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x: must be in {interval}, got {v}')}$"):
            _number(v, "x", interval)
    for v in (True, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n: must be an integer, got {v!r}')}$"):
            _number(v, "n", "[0, inf)", integer=True)
    for v in ("0.5", None, np.array(0.5), 1j):
        with pytest.raises(ValueError, match="^x: must be a real number, got "):
            _number(v, "x", "[0, 1]")


K_AT_LEAST_2 = r"^k: must be in \[2, inf\), got "
WRONG_LENGTH = "^strategy over 2 actions, expected 20$"
NO_PROFILE = "must be a nonempty 1-d action vector, got shape "
UNIFORM_20 = ActionDistribution.uniform(20)


@pytest.mark.parametrize("call,message", [
    (lambda: _number(True, "x", "[0, 1]"), "^x: must be a real number, got True$"),
    (lambda: MixedAction(0, False), "^explore: must be a real number, got False$"),
    (lambda: ActionDistribution.uniform(0), K_AT_LEAST_2 + "0$"),
    (lambda: ActionDistribution.uniform(1), K_AT_LEAST_2 + "1$"),
    (lambda: ActionDistribution.uniform(2.5), "^k: must be an integer, got 2.5$"),
    (lambda: ActionDistribution.uniform(True), "^k: must be an integer, got True$"),
    (lambda: ActionDistribution.point_mass(0, 2.5), "^k: must be an integer, got 2.5$"),
    (lambda: MixedAction(0, 0.1).vector(1), K_AT_LEAST_2 + "1$"),
    (lambda: MixedAction(0, 0.1).distribution(1), K_AT_LEAST_2 + "1$"),
    (lambda: as_strategy_vector([0.5, 0.5], 20), WRONG_LENGTH),
    (lambda: utility([0.5, 0.5], ActionDistribution.uniform(20), ContributionGame()),
     WRONG_LENGTH),
    (lambda: pure_profile_distribution([], 3), rf"^actions: {NO_PROFILE}\(0,\)$"),
    (lambda: pure_profile_distribution([[0, 1]], 3), rf"^actions: {NO_PROFILE}\(1, 2\)$"),
    (lambda: pure_profile_distribution([[0], [0, 1]], 3),
     "^actions: must be a nonempty 1-d action vector, got a ragged sequence$"),
    (lambda: mixed_profile_distribution([], 3), rf"^strategies: {NO_PROFILE}\(0,\)$"),
    (lambda: mixed_profile_distribution([[0, 1]], 3),
     r"^strategies: must hold MixedActions, got \[0, 1\]$"),
    (lambda: run_stationary(ContributionGame(), UNIFORM_20, [], 0.1, 10, 20, 0),
     rf"^bases: {NO_PROFILE}\(0,\)$"),
    (lambda: run_stationary(ContributionGame(), UNIFORM_20, [[0, 1]], 0.1, 10, 20, 0),
     rf"^bases: {NO_PROFILE}\(1, 2\)$"),
    (lambda: CloseWitness(g=[], gprime=[], ghat=[], e=0.1, eps=0.1), rf"^g: {NO_PROFILE}\(0,\)$"),
    (lambda: CloseWitness(g=[[0, 1]], gprime=[0, 1], ghat=[MixedAction(0)] * 2, e=0.1, eps=0.1),
     rf"^g: {NO_PROFILE}\(1, 2\)$"),
    # 2**63 as a uint64 once wrapped to -2**63 in the int64 cast
    (lambda: CloseWitness(g=np.array([2**63], dtype=np.uint64), gprime=[0], ghat=[MixedAction(0)],
                          e=0.1, eps=0.1),
     f"^g: action {2**63} out of range for {2**63} actions$"),
    (lambda: CloseWitness(g=[0], gprime=[0], ghat=[0], e=0.1, eps=0.1),
     "^ghat: must hold MixedActions, got 0$"),
    (lambda: br_step(UNIFORM_20, 0.0, ContributionGame(), rule="x"),
     r"^rule: must be one of \('pointmass', 'uniform'\), got 'x'$"),
    (lambda: build_game("x", 20, None), r"^game: must be one of \('contribution', .*\), got 'x'$"),
], ids=["_number-bool", "MixedAction-explore-bool", "uniform-0", "uniform-1", "uniform-float",
        "uniform-bool", "point_mass-float", "vector-1", "distribution-1",
        "as_strategy_vector-length", "utility-length", "pure_profile-empty", "pure_profile-2d",
        "pure_profile-ragged", "mixed_profile-empty", "mixed_profile-not-mixed",
        "run_stationary-empty", "run_stationary-2d", "CloseWitness-empty", "CloseWitness-2d",
        "CloseWitness-uint64-2**63", "CloseWitness-ghat-not-mixed", "br_step-rule",
        "build_game-kind"])
def test_bad_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("base", [1.5, True, [1, 2]])
def test_mixed_action_base_must_be_an_integer(base):
    # [1, 2] was once accepted, and its vector(3) summed to 1.85
    with pytest.raises(DimensionError, match=f"^{re.escape(f'base: action {base} out of range')}"):
        MixedAction(base)


def test_numpy_integer_actions_match_python_ints():
    # every entry point takes numpy integers and integer arrays as it takes Python ints
    i8, game, rho = np.int64(2), ContributionGame(), ActionDistribution.uniform(20)
    assert ActionDistribution.point_mass(i8, 3) == ActionDistribution.point_mass(2, 3)
    assert MixedAction(i8, 0.1) == MixedAction(2, 0.1)
    np.testing.assert_array_equal(MixedAction(i8, 0.1).vector(3), MixedAction(2, 0.1).vector(3))
    np.testing.assert_array_equal(as_strategy_vector(i8, 3), as_strategy_vector(2, 3))
    assert contribution_cost(np.int64(9)) == contribution_cost(9)
    assert RunConfig(target=i8, fixed_base=i8).items() == RunConfig(target=2, fixed_base=2).items()
    profile = [0, 2, 2, 1]
    for dtype in (np.int32, np.uint8):
        arr = np.array(profile, dtype=dtype)
        assert pure_profile_distribution(arr, 3) == pure_profile_distribution(profile, 3)
        assert mixed_profile_distribution([MixedAction(a, 0.1) for a in arr], 3) == \
            mixed_profile_distribution([MixedAction(a, 0.1) for a in profile], 3)
        w = CloseWitness(g=arr, gprime=arr, ghat=[MixedAction(a) for a in profile], e=0.0, eps=0.0)
        assert w.g == w.gprime == tuple(profile) and all(type(a) is int for a in w.g)
        np.testing.assert_array_equal(
            run_stationary(game, rho, np.array([8, 3, 19], dtype=dtype), 0.1, 10, 30, 0),
            run_stationary(game, rho, [8, 3, 19], 0.1, 10, 30, 0))
    bases = np.zeros(3, dtype=np.int64)  # the bases run_stationary moves are its own copy
    assert run_stationary(prisoners_dilemma(), ActionDistribution.uniform(2), bases, 0.5, 10, 30,
                          0).tolist() == [1, 1, 1]
    assert bases.tolist() == [0, 0, 0]


def test_as_strategy_vector_forms():
    np.testing.assert_array_equal(as_strategy_vector(1, 3), [0.0, 1.0, 0.0])
    np.testing.assert_allclose(
        as_strategy_vector(MixedAction(0, 0.2), 2), [0.8, 0.2]
    )
    rho = ActionDistribution([0.3, 0.7])
    np.testing.assert_array_equal(as_strategy_vector(rho, 2), rho.weights)
    np.testing.assert_allclose(as_strategy_vector([0.3, 0.7], 2), [0.3, 0.7])
    with pytest.raises(DimensionError):
        as_strategy_vector(3, 3)
    with pytest.raises(DimensionError):
        as_strategy_vector(rho, 4)


def test_utility_prisoners_dilemma():
    game = prisoners_dilemma()
    uniform = ActionDistribution.uniform(2)
    all_c = ActionDistribution.point_mass(0, 2)
    assert utility(0, all_c, game) == pytest.approx(3.0)
    assert utility(0, uniform, game) == pytest.approx(1.5)
    assert utility(1, uniform, game) == pytest.approx(3.0)
    assert utility(uniform, uniform, game) == pytest.approx(2.25)


def test_utility_linear_in_strategy():
    game = prisoners_dilemma()
    rho = ActionDistribution([0.3, 0.7])
    mix = ActionDistribution([0.6, 0.4])
    direct = utility(mix, rho, game)
    blended = 0.6 * utility(0, rho, game) + 0.4 * utility(1, rho, game)
    assert direct == pytest.approx(blended)


def test_matching_utility_matches_expected_payoff():
    # one partner drawn from rho: the bilinear form s @ PD @ rho
    game = MatrixGame(PD)
    rho = ActionDistribution([0.2, 0.8])
    mix = ActionDistribution([0.6, 0.4])
    for s in (0, 1, mix):
        bilinear = as_strategy_vector(s, 2) @ np.array(PD) @ rho.weights
        assert utility(s, rho, game) == pytest.approx(bilinear)
    np.testing.assert_allclose(game.utilities(rho), [0.6, 1.8])
    with pytest.raises(DimensionError):
        utility(0, ActionDistribution.uniform(3), game)
    with pytest.raises(DimensionError):
        game.utilities(ActionDistribution.uniform(3))


def meanfield(acts, game):
    """Each agent's mean-field payoff, read from its round's table row."""
    acts = np.asarray(acts)
    return game.meanfield_table(np.bincount(acts, minlength=game.k)[None])[0][acts]


def test_meanfield_table_contribution_example():
    # three agents at (8, 8, 0): the pair of 8s each face mean 4, the
    # free rider faces mean 8 but contributes nothing
    game = ContributionGame()
    payoffs = meanfield([8, 8, 0], game)
    np.testing.assert_allclose(payoffs, [15.0, 15.0, 0.0])


def test_meanfield_table_pd_example():
    payoffs = meanfield([0, 1], prisoners_dilemma())
    np.testing.assert_array_equal(payoffs, [0.0, 5.0])


def test_meanfield_table_excludes_self():
    game = prisoners_dilemma()
    # four cooperators: each faces three cooperators, not itself
    np.testing.assert_allclose(meanfield([0, 0, 0, 0], game), [3.0] * 4)
    with pytest.raises(DimensionError):
        meanfield([0], game)
    with pytest.raises(DimensionError):  # any round short of 2 agents
        game.meanfield_table([[2, 1], [1, 0]])


def test_meanfield_table_matches_per_agent_utilities():
    # each agent is paid its action's utility against the other n-1 agents
    rng = np.random.default_rng(6)
    game = ContributionGame()
    for _ in range(10):
        acts = rng.integers(20, size=9)
        table = meanfield(acts, game)
        per_agent = [
            game.utilities(pure_profile_distribution(np.delete(acts, i), 20))[a]
            for i, a in enumerate(acts)
        ]
        np.testing.assert_allclose(table, per_agent, atol=1e-9)


def test_l1_distance():
    a = ActionDistribution([1.0, 0.0])
    b = ActionDistribution([0.0, 1.0])
    assert l1_distance(a, b) == 2.0
    assert l1_distance(a, a) == 0.0
    u = ActionDistribution.uniform(2)
    assert l1_distance(a, u) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        l1_distance(a, ActionDistribution.uniform(3))


def test_estimate_lipschitz_bounds_and_determinism():
    game = prisoners_dilemma()
    est1 = estimate_lipschitz(game, samples=300, rng_seed=5)
    est2 = estimate_lipschitz(game, samples=300, rng_seed=5)
    assert est1 == est2  # deterministic in the seed
    # Never exceeds the analytic constant, but gets within reach of it.
    assert 0.0 < est1 <= game.lipschitz + 1e-9
    assert est1 > 0.25 * game.lipschitz
    with pytest.raises(ValueError, match=r"samples: must be in \[2, inf\), got 1"):
        estimate_lipschitz(game, samples=1)


def test_estimate_lipschitz_samples_must_be_an_integer():
    game = prisoners_dilemma()
    with pytest.raises(ValueError, match="^samples: must be an integer, got 2.5$"):
        estimate_lipschitz(game, samples=2.5)
    assert estimate_lipschitz(game, samples=np.int64(5)) == estimate_lipschitz(game, samples=5)


def test_payoff_channel_degenerate_for_meanfield():
    # the game is its expected utilities: one deterministic value per action
    game = prisoners_dilemma()
    rho = ActionDistribution([0.5, 0.5])
    u = game.utilities(rho)
    assert u.shape == (2,)
    assert u[1] == pytest.approx(3.0)
    np.testing.assert_array_equal(game.utilities(rho), u)
