"""Properties that hold for every valid config, checked on small configs and
populations drawn by hypothesis."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from anonlearn import MatrixGame, RunConfig, run
from anonlearn.learners import event_histogram, explorers, sample_mixed

ACTIONS = {"contribution": 20, "prisoners_dilemma": 2, "climbing": 3}
FEW = settings(max_examples=25, deadline=None)


@st.composite
def configs(draw, learner=st.sampled_from(["stage", "regret", "stats"])):
    game = draw(st.sampled_from(sorted(ACTIONS)))
    k = ACTIONS[game]
    stage_len = draw(st.integers(1, 12))
    return RunConfig(
        game=game,
        mode=draw(st.sampled_from(["meanfield", "matching"])),
        learner=draw(learner),
        explore=draw(st.sampled_from([0.05, 0.2, 0.5])),
        stage_len=stage_len,
        n=2 * draw(st.integers(1, 8)),
        rounds=draw(st.integers(stage_len, 4 * stage_len + 3)),
        churn_rate=draw(st.sampled_from([0.0, 0.3])),
        fixed_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
        fixed_base=draw(st.integers(0, k - 1)),
        fixed_explore=draw(st.sampled_from([0.0, 0.1])),
        seed=draw(st.integers(0, 2**32)),
        target=draw(st.integers(0, k - 1)),
    )


@FEW
@given(configs())
def test_distribution_rows_sum_to_one(cfg):
    trace = run(cfg)
    for rows in (trace.realized_dist, trace.base_dist, trace.stage_rho):
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12


@FEW
@given(configs(learner=st.just("stage")))
def test_stage_bases_are_constant_within_a_stage(cfg):
    trace = run(cfg)
    tau = cfg.resolved_stage_len
    for s in range(trace.stages):
        block = trace.base_dist[s * tau : (s + 1) * tau]
        assert (block == block[0]).all()


@FEW
@given(configs())
def test_run_is_a_pure_function_of_its_config(cfg):
    a, b = run(cfg), run(dataclasses.replace(cfg))
    for field in ("realized_dist", "base_dist", "stage_rho", "stage_distance",
                  "stage_br_fraction"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


@FEW
@given(st.integers(1, 100), st.integers(0, 2**32))
def test_matching_payoffs_pairs_every_agent_once(half, seed):
    # agent i plays action i and its payoff is its partner's action
    n = 2 * half
    game = MatrixGame(np.tile(np.arange(n), (n, 1)))
    partner = game.matching_payoffs(np.arange(n), np.random.default_rng(seed)).astype(int)
    assert (partner != np.arange(n)).all()
    np.testing.assert_array_equal(partner[partner], np.arange(n))


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([2, 20, 257]), rounds=st.integers(1, 40), n=st.integers(1, 30),
       fixed=st.floats(0.0, 1.0), fixed_explore=st.sampled_from([0.0, 0.1]),
       explore=st.sampled_from([0.05, 0.3, 0.9]), seed=st.integers(0, 2**32))
def test_event_histogram_is_the_bincount_of_the_draws(k, rounds, n, fixed, fixed_explore,
                                                      explore, seed):
    # a block's explorer events, fixed agents' included, give the histogram
    # and the draws that sample_mixed's dense (rounds, n) block gives
    rng = np.random.default_rng(seed)
    nf = int(fixed * n)
    bases = rng.integers(k, size=n)
    rates = np.full(n, explore)
    rates[:nf] = fixed_explore
    u = rng.random((rounds, n))
    acts, x_dense = sample_mixed(bases, rates, k, u)
    x, j = explorers(bases, rates, 1.0 - rates, k, u)
    np.testing.assert_array_equal(x, x_dense)
    np.testing.assert_array_equal(j, acts.reshape(-1)[x])
    rows, cols = np.divmod(x, n)
    hist = event_histogram(np.bincount(bases, minlength=k), bases, rows, cols, j, rounds)
    want = np.array([np.bincount(row, minlength=k) for row in acts])
    assert hist.shape == want.shape and (hist == want).all()
