"""Contribution game, matrix games, and the matrix file format."""

import numpy as np
import pytest

from anonlearn import (
    CONTRIBUTION_LEVELS,
    ActionDistribution,
    ContributionGame,
    DimensionError,
    MatrixGame,
    climbing_game,
    contribution_cost,
    load_matrix,
    prisoners_dilemma,
    utility,
)


# ---------------------------------------------------------------------------
# contribution game


@pytest.mark.parametrize(
    "x,cost",
    [(0, 0.0), (1, 1.0), (2, 1.0), (3, 4.0), (5, 16.0), (8, 49.0), (9, 121.0), (19, 401.0)],
)
def test_contribution_cost_table(x, cost):
    assert contribution_cost(x, penalty_n=20) == cost


def test_contribution_cost_penalty_scaling():
    # Penalty enters only above the kink and adds 2*penalty_n.
    assert contribution_cost(9, penalty_n=100) == 81 + 200
    assert contribution_cost(8, penalty_n=100) == contribution_cost(8, penalty_n=0)
    with pytest.raises(ValueError):
        contribution_cost(20)
    with pytest.raises(ValueError):
        contribution_cost(-1)


def test_contribution_cost_rejects_a_fractional_level():
    # 8.5 was once costed as 8.5**2 + 40
    with pytest.raises(DimensionError, match="^x: action 8.5 out of range for 20 actions$"):
        contribution_cost(8.5)


def test_contribution_cost_penalty_n_must_be_an_integer():
    # 2.5 was once costed as 3 - 1 squared, 4.0
    with pytest.raises(ValueError, match="^penalty_n: must be an integer, got 2.5$"):
        contribution_cost(3, 2.5)


@pytest.mark.parametrize("penalty_n", [0, 20, 100])
def test_contribution_cost_of_an_array_is_its_levels_costs(penalty_n):
    levels = np.arange(20)
    costs = contribution_cost(levels, penalty_n)
    assert costs.dtype == np.float64 and costs.shape == (20,)
    scalar = [contribution_cost(x, penalty_n) for x in range(20)]
    assert all(type(c) is float for c in scalar)
    assert costs.tobytes() == np.array(scalar).tobytes()
    np.testing.assert_array_equal(ContributionGame(penalty_n)._costs, costs)


def _contribution_utility(x, y, penalty_n=20):
    """Utility of contributing x when every other agent contributes y."""
    return ContributionGame(penalty_n).utilities(ActionDistribution.point_mass(y, 20))[x]


def test_contribution_utility_values():
    assert _contribution_utility(8, 8) == 79.0
    assert _contribution_utility(5, 5) == 34.0
    assert _contribution_utility(9, 8) == pytest.approx(144.0 - 121.0)
    assert _contribution_utility(0, 17) == 0.0


def test_contribution_game_expected_payoffs():
    game = ContributionGame()
    assert game.k == CONTRIBUTION_LEVELS == 20
    delta8 = ActionDistribution.point_mass(8, 20)
    uniform = ActionDistribution.uniform(20)
    assert game.mean_contribution(uniform) == pytest.approx(9.5)
    assert game.utilities(delta8)[8] == pytest.approx(79.0)
    assert game.utilities(uniform)[8] == pytest.approx(103.0)
    assert utility(8, delta8, game) == pytest.approx(79.0)


def test_contribution_utilities_agree_with_matrix():
    # the closed form 2*x*mean - c(x) is the partner lottery over the matrix
    game = ContributionGame()
    m = game.matrix
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = ActionDistribution(rng.dirichlet(np.ones(20)))
        np.testing.assert_allclose(game.utilities(rho), m @ rho.weights, rtol=1e-12)


def test_contribution_payoff_bounds():
    lo, hi = ContributionGame(penalty_n=20).payoff_bounds()
    assert lo == -401.0  # contribute 19 against all-zero
    assert hi == 321.0  # contribute 19 against all-19
    # the extremes of 2*x*y - c(x) sit at y in {0, 19}
    for penalty in (0, 20, 200):
        ends = [_contribution_utility(x, y, penalty) for x in range(20) for y in (0, 19)]
        assert ContributionGame(penalty).payoff_bounds() == (min(ends), max(ends))


def test_contribution_payoff_matrix():
    m = ContributionGame(penalty_n=20).matrix
    assert m.shape == (20, 20)
    assert m[8, 8] == 79.0
    assert m[0, 13] == 0.0
    x, y = 11, 4
    assert m[x, y] == 2 * x * y - contribution_cost(x, 20)


@pytest.mark.parametrize("penalty", [0, 5, 20, 100, 200])
def test_equilibrium_is_eight_for_any_penalty(penalty):
    game = ContributionGame(penalty_n=penalty)
    delta8 = ActionDistribution.point_mass(8, 20)
    payoffs = list(game.utilities(delta8))
    assert int(np.argmax(payoffs)) == 8
    assert sorted(payoffs)[-1] > sorted(payoffs)[-2]  # strictly unique


def test_contribution_lipschitz_property():
    game = ContributionGame()
    assert game.lipschitz == 361.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        r1 = ActionDistribution(rng.dirichlet(np.ones(20)))
        r2 = ActionDistribution(rng.dirichlet(np.ones(20)))
        gap = np.abs(r1.weights - r2.weights).sum()
        diff = np.abs(game.utilities(r1) - game.utilities(r2))
        assert (diff <= game.lipschitz * gap + 1e-9).all()


def test_contribution_mode_validation():
    # how payoffs are realized belongs to the run, not the game
    with pytest.raises(TypeError):
        ContributionGame(mode="matching")
    with pytest.raises(ValueError, match="penalty_n"):
        ContributionGame(penalty_n=-1)
    with pytest.raises(DimensionError):
        ContributionGame().utilities(ActionDistribution.uniform(3))


# ---------------------------------------------------------------------------
# matrix games


def test_prisoners_dilemma_values():
    game = prisoners_dilemma()
    np.testing.assert_array_equal(game.matrix, [[3, 0], [5, 1]])
    assert game.labels == ("C", "D")
    assert game.lipschitz == 5.0


def test_matching_channel_is_partner_lottery():
    # a defector matched with a cooperator earns 5, with a defector 1; the
    # expected utility is that lottery's mean under rho
    game = prisoners_dilemma()
    acts = np.array([1, 0, 1, 1])
    payoffs = game.matching_payoffs(acts, np.random.default_rng(0))
    assert sorted(payoffs) == [0.0, 1.0, 1.0, 5.0]
    assert game.utilities(ActionDistribution([0.5, 0.5]))[1] == pytest.approx(3.0)
    assert game.utilities(ActionDistribution.point_mass(1, 2))[0] == 0.0


def test_modes_agree_on_expected_payoff():
    # mean-field payoffs are the utilities against the other agents, and
    # matched payoffs average out to them
    game = prisoners_dilemma()
    rng = np.random.default_rng(2)
    acts = rng.integers(2, size=400)
    meanfield = game.meanfield_table(np.bincount(acts, minlength=2)[None])[0][acts]
    for i in (0, 1, 2):
        others = ActionDistribution.from_counts(np.bincount(np.delete(acts, i), minlength=2))
        assert meanfield[i] == pytest.approx(game.utilities(others)[acts[i]])
    matched = np.mean(
        [game.matching_payoffs(acts, rng).mean() for _ in range(200)]
    )
    assert matched == pytest.approx(meanfield.mean(), abs=0.05)


def test_matching_payoff_set():
    # matched payoffs only ever take the matrix's own entries
    game = prisoners_dilemma()
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(20):
        seen |= set(game.matching_payoffs(rng.integers(2, size=10), rng))
    assert seen == {0.0, 1.0, 3.0, 5.0}


def test_climbing_game():
    game = climbing_game()
    m = game.matrix
    assert m.shape == (3, 3)
    assert m[0, 0] == 11.0 and m[0, 1] == -30.0
    # joint action (0,0) is the payoff-dominant point
    assert m.max() == 11.0


def test_matrix_game_validation():
    with pytest.raises(DimensionError):
        MatrixGame([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        MatrixGame([[np.inf, 0], [0, 1]])
    game = MatrixGame([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        game.matrix[0, 0] = 9.0  # read-only


# ---------------------------------------------------------------------------
# matrix file format


def test_load_matrix_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a comment\n\n1 2.5\n-3 4e1\n")
    np.testing.assert_array_equal(load_matrix(path), [[1.0, 2.5], [-3.0, 40.0]])


def test_load_matrix_errors(tmp_path):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        load_matrix(ragged)

    rect = tmp_path / "rect.txt"
    rect.write_text("1 2 3\n4 5 6\n")
    with pytest.raises(ValueError, match="square"):
        load_matrix(rect)

    junk = tmp_path / "junk.txt"
    junk.write_text("1 x\n2 3\n")
    with pytest.raises(ValueError, match="junk.txt:1"):
        load_matrix(junk)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no matrix rows"):
        load_matrix(empty)

    with pytest.raises(OSError):
        load_matrix(tmp_path / "missing.txt")


def test_builtin_matrices():
    np.testing.assert_array_equal(prisoners_dilemma().matrix, [[3, 0], [5, 1]])
    np.testing.assert_array_equal(climbing_game().matrix, [[11, -30, 0], [-30, 7, 6], [0, 0, 5]])
