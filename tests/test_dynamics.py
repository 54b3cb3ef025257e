"""Best-reply machinery and the closeness relation."""

import numpy as np
import pytest

from anonlearn import (
    ActionDistribution,
    CloseWitness,
    ContributionGame,
    DimensionError,
    MatrixGame,
    MixedAction,
    abr_containment_threshold,
    best_reply_set,
    br_sequence,
    br_step,
    close_l1_bound,
    is_eta_nash,
    l1_distance,
    mixed_profile_distribution,
    prisoners_dilemma,
    pure_profile_distribution,
    verify_close,
)


# ---------------------------------------------------------------------------
# eta-best replies


def test_best_reply_set_dominant_action():
    game = prisoners_dilemma()
    uniform = ActionDistribution.uniform(2)
    assert best_reply_set(uniform, 0.0, game) == {1}
    # gap between D and C at the uniform distribution is exactly 1.5
    assert best_reply_set(uniform, 1.4, game) == {1}
    assert best_reply_set(uniform, 1.5, game) == {0, 1}


def test_best_reply_set_contribution():
    game = ContributionGame()
    delta8 = ActionDistribution.point_mass(8, 20)
    delta5 = ActionDistribution.point_mass(5, 20)
    assert best_reply_set(delta8, 0.0, game) == {8}
    # against all-5, the payoffs 10a - c(a) peak at 6 with 5 and 7 one short
    assert best_reply_set(delta5, 0.0, game) == {6}
    assert best_reply_set(delta5, 1.0, game) == {5, 6, 7}


def test_best_reply_set_monotone_in_eta():
    game = ContributionGame()
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = ActionDistribution(rng.dirichlet(np.ones(20)))
        small = best_reply_set(rho, 0.5, game)
        large = best_reply_set(rho, 5.0, game)
        assert small <= large
        assert best_reply_set(rho, 0.0, game)  # never empty


def test_best_reply_set_rejects_negative_eta():
    with pytest.raises(ValueError):
        best_reply_set(ActionDistribution.uniform(2), -0.1, prisoners_dilemma())


def test_best_reply_set_rejects_nan_eta():
    # every comparison with NaN is false: the set would come out empty
    with pytest.raises(ValueError, match=r"eta: must be in \[0, inf\], got nan"):
        best_reply_set(ActionDistribution.uniform(2), float("nan"), prisoners_dilemma())


def test_eta_nash():
    game = ContributionGame()
    delta8 = ActionDistribution.point_mass(8, 20)
    delta5 = ActionDistribution.point_mass(5, 20)
    assert is_eta_nash(delta8, 0.0, game)
    assert not is_eta_nash(delta5, 0.99, game)
    assert is_eta_nash(delta5, 1.0, game)  # boundary: gap to the peak is 1
    # mixing over {5,6,7} is a 1.0-equilibrium against delta5's utilities?
    # No: support must sit inside the best-reply set of the mixture itself.
    pd = prisoners_dilemma()
    assert is_eta_nash(ActionDistribution.point_mass(1, 2), 0.0, pd)
    assert not is_eta_nash(ActionDistribution.uniform(2), 1.4, pd)
    assert is_eta_nash(ActionDistribution.uniform(2), 1.5, pd)


# ---------------------------------------------------------------------------
# best-reply sequences


def test_br_step_rules():
    game = prisoners_dilemma()
    uniform = ActionDistribution.uniform(2)
    assert br_step(uniform, 0.0, game) == ActionDistribution.point_mass(1, 2)
    coord = MatrixGame([[1.0, 0.0], [0.0, 1.0]])
    # both actions tie at the uniform point
    assert br_step(uniform, 0.0, coord, rule="pointmass") == ActionDistribution.point_mass(0, 2)
    assert br_step(uniform, 0.0, coord, rule="uniform") == uniform
    with pytest.raises(ValueError):
        br_step(uniform, 0.0, game, rule="argmax")


def test_br_sequence_contribution_converges_fast():
    game = ContributionGame()
    seq = br_sequence(ActionDistribution.uniform(20), 0.0, game)
    assert seq.converged
    assert seq.fixed_point_index <= 2
    assert seq.steps[seq.fixed_point_index] == ActionDistribution.point_mass(8, 20)
    assert seq.steps[-1] == seq.steps[-2]  # repeat confirms the fixed point


def test_br_sequence_prisoners_dilemma():
    for rho0 in (ActionDistribution.point_mass(0, 2), ActionDistribution.uniform(2)):
        seq = br_sequence(rho0, 0.0, prisoners_dilemma())
        assert seq.converged
        assert seq.steps[-1] == ActionDistribution.point_mass(1, 2)  # ends at all-defect


def test_br_sequence_cycle_detected_as_nonconvergence():
    anti = MatrixGame([[-1.0, 1.0], [1.0, -1.0]])
    seq = br_sequence(ActionDistribution.point_mass(0, 2), 0.0, anti, max_steps=20)
    assert not seq.converged
    assert seq.fixed_point_index is None
    assert len(seq) == 21  # initial point plus max_steps iterates
    with pytest.raises(ValueError, match=r"max_steps: must be in \[1, inf\), got 0"):
        br_sequence(ActionDistribution.point_mass(0, 2), 0.0, anti, max_steps=0)


def test_br_sequence_max_steps_must_be_an_integer():
    rho, game = ActionDistribution.uniform(2), prisoners_dilemma()
    with pytest.raises(ValueError, match="^max_steps: must be an integer, got 2.5$"):
        br_sequence(rho, 0.0, game, max_steps=2.5)
    assert br_sequence(rho, 0.0, game, max_steps=np.int64(3)) == br_sequence(rho, 0.0, game, 3)


# ---------------------------------------------------------------------------
# profile aggregation


def test_pure_profile_distribution():
    rho = pure_profile_distribution([8, 8, 8, 0], 20)
    assert rho[8] == 0.75 and rho[0] == 0.25
    with pytest.raises(DimensionError):
        pure_profile_distribution([], 20)
    with pytest.raises(ValueError):
        pure_profile_distribution([0, 21], 20)


def test_pure_profile_distribution_rejects_non_integer_actions():
    # [1.5, 0] was once truncated to [1, 0]
    with pytest.raises(DimensionError, match="^actions: action 1.5 out of range for 2 actions$"):
        pure_profile_distribution([1.5, 0], 2)


def test_mixed_profile_distribution():
    profile = [MixedAction(0, 0.05)] * 3 + [MixedAction(1, 0.05)]
    rho = mixed_profile_distribution(profile, 2)
    np.testing.assert_allclose(rho.weights, [0.725, 0.275])
    with pytest.raises(DimensionError):
        mixed_profile_distribution([], 2)
    with pytest.raises(DimensionError):
        mixed_profile_distribution([MixedAction(0, 0.1), MixedAction(3, 0.1)], 3)


def test_mixed_profile_distribution_matches_per_agent_sum():
    # the closed form against the sum of each agent's mixed-action vector
    rng = np.random.default_rng(11)
    for _ in range(200):
        n, k = int(rng.integers(1, 60)), int(rng.integers(2, 25))
        profile = [MixedAction(int(rng.integers(k)), float(rng.choice([0.0, rng.uniform()])))
                   for _ in range(n)]
        want = sum(s.vector(k) for s in profile) / n
        np.testing.assert_allclose(mixed_profile_distribution(profile, k).weights, want,
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# closeness witnesses


def _witness():
    g = (0, 0, 0, 1, 1)
    gprime = (0, 0, 0, 0, 1)
    ghat = tuple(MixedAction(a, 0.05) for a in gprime)
    return CloseWitness(g=g, gprime=gprime, ghat=ghat, e=0.25, eps=0.05)


def test_close_witness_validation():
    with pytest.raises(DimensionError):
        CloseWitness(g=(0, 1), gprime=(0,), ghat=(MixedAction(0),), e=0.1, eps=0.1)
    with pytest.raises(ValueError):
        CloseWitness(g=(0,), gprime=(0,), ghat=(MixedAction(0),), e=1.5, eps=0.1)
    with pytest.raises(ValueError, match=r"eps: must be in \[0, 1\], got 1.5"):
        CloseWitness(g=(0,), gprime=(0,), ghat=(MixedAction(0),), e=0.1, eps=1.5)
    w = _witness()
    assert w.n == 5
    assert isinstance(w.g[0], int)


@pytest.mark.parametrize("key", ["g", "gprime"])
def test_close_witness_rejects_non_integer_actions(key):
    # g=(1.7,) was once truncated to (1,)
    profiles = {"g": (0,), "gprime": (0,), key: (1.7,)}
    with pytest.raises(DimensionError, match=f"^{key}: action 1.7 out of range"):
        CloseWitness(**profiles, ghat=(MixedAction(0),), e=0.1, eps=0.1)


def test_verify_close_accepts_valid_witness():
    w = _witness()
    rho = pure_profile_distribution(w.g, 2)
    rhohat = mixed_profile_distribution(w.ghat, 2)
    assert verify_close(w, rho, rhohat)


def test_verify_close_rejections():
    w = _witness()
    rho = pure_profile_distribution(w.g, 2)
    rhohat = mixed_profile_distribution(w.ghat, 2)

    # distribution not induced by the profile
    assert not verify_close(w, ActionDistribution.uniform(2), rhohat)
    assert not verify_close(w, rho, ActionDistribution.uniform(2))

    # perturbation budget too small for one flipped agent out of five
    tight = CloseWitness(g=w.g, gprime=w.gprime, ghat=w.ghat, e=0.1, eps=0.05)
    assert not verify_close(tight, rho, rhohat)

    # exploration rate above the declared eps
    hot = tuple(MixedAction(a, 0.2) for a in w.gprime)
    hot_hat = mixed_profile_distribution(hot, 2)
    assert not verify_close(
        CloseWitness(g=w.g, gprime=w.gprime, ghat=hot, e=0.25, eps=0.05),
        rho,
        hot_hat,
    )

    # bases must follow gprime exactly
    off = (MixedAction(1, 0.05),) + w.ghat[1:]
    off_hat = mixed_profile_distribution(off, 2)
    assert not verify_close(
        CloseWitness(g=w.g, gprime=w.gprime, ghat=off, e=0.25, eps=0.05),
        rho,
        off_hat,
    )

    # mixed rates are not "one common epsilon-prime"
    uneven = (MixedAction(0, 0.01),) + w.ghat[1:]
    uneven_hat = mixed_profile_distribution(uneven, 2)
    assert not verify_close(
        CloseWitness(g=w.g, gprime=w.gprime, ghat=uneven, e=0.25, eps=0.05),
        rho,
        uneven_hat,
    )


def test_verify_close_dimension_errors():
    w = _witness()
    rho = pure_profile_distribution(w.g, 2)
    with pytest.raises(DimensionError):
        verify_close(w, rho, ActionDistribution.uniform(3))
    # same-k distributions over a larger action space are merely not close
    assert not verify_close(w, ActionDistribution.uniform(3), ActionDistribution.uniform(3))
    big = CloseWitness(g=(0, 5), gprime=(0, 5), ghat=(MixedAction(0), MixedAction(5)), e=0.1, eps=0.0)
    with pytest.raises(DimensionError):
        verify_close(big, rho, rho)


@pytest.mark.parametrize("key", ["g", "gprime", "ghat"])
def test_verify_close_names_the_profile_out_of_range(key):
    # the profile functions it calls would name their own argument instead
    profiles = {"g": (0, 1), "gprime": (0, 1), "ghat": (MixedAction(0), MixedAction(1))}
    profiles[key] = (MixedAction(0), MixedAction(5)) if key == "ghat" else (0, 5)
    rho = ActionDistribution.uniform(2)
    with pytest.raises(DimensionError, match=f"^{key}: action 5 out of range for 2 actions$"):
        verify_close(CloseWitness(**profiles, e=0.1, eps=0.0), rho, rho)


def _random_witness(rng, k, n, e, eps):
    """Construct a witness that is valid by design."""
    g = rng.integers(k, size=n)
    gprime = g.copy()
    flips = rng.choice(n, size=int(e * n), replace=False)
    gprime[flips] = rng.integers(k, size=flips.size)
    rate = float(rng.uniform(0.0, eps))
    ghat = tuple(MixedAction(int(a), rate) for a in gprime)
    return CloseWitness(g=tuple(g), gprime=tuple(gprime), ghat=ghat, e=e, eps=eps)


def test_close_l1_bound_on_random_witnesses():
    # Any (e, eps)-close pair is within 2(e + eps) in L1.
    rng = np.random.default_rng(17)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        e = float(rng.uniform(0.0, 0.3))
        eps = float(rng.uniform(0.0, 0.3))
        w = _random_witness(rng, k, n=40, e=e, eps=eps)
        rho = pure_profile_distribution(w.g, k)
        rhohat = mixed_profile_distribution(w.ghat, k)
        assert verify_close(w, rho, rhohat)
        assert l1_distance(rho, rhohat) <= close_l1_bound(e, eps) + 1e-9


def test_close_l1_bound_values():
    assert close_l1_bound(0.05, 0.05) == pytest.approx(0.2)
    assert close_l1_bound(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        close_l1_bound(-0.1, 0.0)
    with pytest.raises(ValueError):
        close_l1_bound(0.0, 1.1)


# ---------------------------------------------------------------------------
# best replies under perturbation


@pytest.mark.parametrize("call,message", [
    (lambda: best_reply_set(ActionDistribution.uniform(2), "0.5", prisoners_dilemma()),
     "^eta: must be a real number, got '0.5'$"),
    (lambda: br_sequence(ActionDistribution.uniform(2), 0.0, prisoners_dilemma(), True),
     "^max_steps: must be an integer, got True$"),
    (lambda: CloseWitness(g=(0,), gprime=(0,), ghat=(MixedAction(0),), e=None, eps=0.1),
     "^e: must be a real number, got None$"),
    (lambda: close_l1_bound("0.1", 0), "^e: must be a real number, got '0.1'$"),
    (lambda: close_l1_bound(float("nan"), 0.0), r"^e: must be in \[0, 1\], got nan$"),
    (lambda: close_l1_bound(0.0, float("nan")), r"^eps: must be in \[0, 1\], got nan$"),
    (lambda: abr_containment_threshold(1.0, "2"), "^K: must be a real number, got '2'$"),
], ids=["best_reply_set-eta", "br_sequence-max_steps", "CloseWitness-e", "close_l1_bound-e",
        "close_l1_bound-nan-e", "close_l1_bound-nan-eps", "abr_containment_threshold-K"])
def test_numeric_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_abr_containment_threshold_values():
    assert abr_containment_threshold(0.8, 5.0) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        abr_containment_threshold(0.0, 5.0)
    with pytest.raises(ValueError):
        abr_containment_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        abr_containment_threshold(float("nan"), 1.0)
    with pytest.raises(ValueError):
        abr_containment_threshold(1.0, float("nan"))


@pytest.mark.parametrize("game,eta", [(prisoners_dilemma(), 1.0), (ContributionGame(), 8.0)])
def test_abr_containment_under_perturbation(game, eta):
    # Perturbing rho by at most d_eta in L1 keeps the eta/2-replies inside
    # the eta-replies of the original distribution.
    d = abr_containment_threshold(eta, game.lipschitz)
    rng = np.random.default_rng(23)
    k = game.k
    for _ in range(100):
        rho = ActionDistribution(rng.dirichlet(np.ones(k)))
        bump = rng.dirichlet(np.ones(k)) - rng.dirichlet(np.ones(k))
        bump *= d / max(np.abs(bump).sum(), 1e-12)
        w = np.clip(rho.weights + bump, 0.0, None)
        noisy = ActionDistribution(w / w.sum())
        assert l1_distance(rho, noisy) <= d + 1e-9
        assert best_reply_set(noisy, eta / 2.0, game) <= best_reply_set(rho, eta, game)
