"""Learning-rule kernels: the a_eps draw, stage learners, regret matchers and
fixed agents, driven one agent (or a few) at a time against scalar
references."""

import numpy as np
import pytest

from anonlearn import (
    ActionDistribution,
    ContributionGame,
    MatrixGame,
    RunConfig,
    run,
    run_stationary,
)
from anonlearn.learners import RegretMatchers, StageLearners, explorers


def sample_mixed(bases, explore, k, u):
    """The a_eps law, elementwise, as dense draws built from explorers: bases
    and explore broadcast against the uniforms u, one per draw even where
    explore is 0.  Returns the draws and the ascending flat positions in them
    of the explorers."""
    u = np.asarray(u, dtype=float)
    bases, explore = np.broadcast_arrays(bases, explore, u)[:2]
    x, j = explorers(bases, explore, 1.0 - explore, k, u)
    acts = bases.astype(np.int64, order="C")  # a copy, so reshape(-1) is a view
    acts.reshape(-1)[x] = j
    return acts, x


def scalar_sample_mixed(base, explore, k, u):
    """The a_eps draw for one agent, as a straight transcription."""
    if u < 1.0 - explore:
        return base
    j = int((u - (1.0 - explore)) * (k - 1) / explore)
    if j > k - 2:
        j = k - 2
    return j if j < base else j + 1


# ---------------------------------------------------------------------------
# sampling the mixed action


def test_sample_mixed_frequencies():
    n = 20000
    draws = sample_mixed(2, 0.2, 5, np.random.default_rng(42).random(n))[0]
    freq = np.bincount(draws, minlength=5) / n
    assert abs(freq[2] - 0.8) < 3 * np.sqrt(0.8 * 0.2 / n)
    for a in (0, 1, 3, 4):
        assert abs(freq[a] - 0.05) < 3 * np.sqrt(0.05 * 0.95 / n)


def test_sample_mixed_zero_explore_still_draws():
    # explore=0 always returns base, but still takes one uniform per draw, so
    # populations with mixed agent kinds stay reproducible.
    u = np.random.default_rng(7).random(1000)
    draws = sample_mixed(3, 0.0, 5, u)[0]
    assert draws.shape == u.shape
    assert (draws == 3).all()
    assert sample_mixed(3, 0.0, 5, 1.0 - 1e-16)[0] == 3


def test_sample_mixed_edge_of_unit_interval():
    # u -> 1 lands on the last non-base action, never out of range
    assert sample_mixed(0, 0.5, 2, 1.0 - 1e-16)[0] == 1
    assert sample_mixed(4, 0.5, 5, 1.0 - 1e-16)[0] == 3


def test_sample_mixed_never_base_in_explore_branch():
    draws = sample_mixed(1, 0.9999, 4, np.random.default_rng(0).random(2000))[0]
    explored = {int(a) for a in draws if a != 1}
    assert explored == {0, 2, 3}


def test_sample_mixed_matches_scalar_reference():
    # per-agent bases and explore rates broadcast over a (rounds, agents) block
    rng = np.random.default_rng(5)
    k = 6
    bases = rng.integers(k, size=40)
    explore = rng.choice([0.0, 0.05, 0.3, 0.99], size=40)
    u = rng.random((25, 40))
    u[0, :5] = 1.0 - 1e-16
    draws = sample_mixed(bases, explore, k, u)[0]
    expected = [[scalar_sample_mixed(b, e, k, x) for b, e, x in zip(bases, explore, row)]
                for row in u]
    np.testing.assert_array_equal(draws, expected)


def _sample_mixed_layouts():
    """(bases, explore, u) in each layout the engine and the tests hand
    sample_mixed: a scalar base over a block, per-agent bases and rates over
    a block, a column slice of a wider block (the fixed agents of a regret
    run), per-draw rates, per-round rates, and a lone uniform."""
    rng = np.random.default_rng(12)
    k, rounds, n = 6, 30, 24
    bases, explore = rng.integers(k, size=n), rng.choice([0.0, 0.1, 0.5, 0.99], size=n)
    u = rng.random((rounds, n))
    wide = rng.random((rounds, n + 9))
    return k, {
        "scalar_base": (3, 0.4, u),
        "per_agent": (bases, explore, u),
        "sliced_u": (bases, explore, wide[:, :n]),
        "block_explore": (bases, rng.choice([0.0, 0.2, 0.7], size=(rounds, n)), u),
        "round_explore": (bases, rng.choice([0.0, 0.3], size=(rounds, 1)), u),
        "scalar_u": (4, 0.5, 0.9),
    }


@pytest.mark.parametrize("layout", list(_sample_mixed_layouts()[1]))
def test_sample_mixed_layout_matches_scalar_reference(layout):
    # the draws land where the scalar rule puts them whatever the layout of
    # bases, explore and u, and the explorers' draws are written back
    k, cases = _sample_mixed_layouts()
    bases, explore, u = cases[layout]
    if layout == "sliced_u":
        assert not u.flags.c_contiguous
    shape = np.shape(u)
    draws = sample_mixed(bases, explore, k, u)[0]
    b, e, x = (np.broadcast_to(v, shape).ravel() for v in (bases, explore, u))
    expected = np.reshape([scalar_sample_mixed(int(bi), float(ei), k, float(xi))
                           for bi, ei, xi in zip(b, e, x)], shape)
    assert draws.shape == shape and draws.dtype == np.int64
    np.testing.assert_array_equal(draws, expected)
    assert (expected != b.reshape(shape)).any()  # some draws explored


# ---------------------------------------------------------------------------
# stage learner


def stage_learners(bases, k, lo=0, matrix=None):
    """StageLearners over a copy of bases, lo of them fixed agents, with
    empty tallies (their explore rates, which only block reads, 0.1)."""
    bases = np.array(bases, dtype=np.int64)
    return StageLearners(bases, np.full(bases.size, 0.1), lo, k, matrix)


def tally(learners, acts, payoffs, x):
    """StageLearners.tally of a dense (rounds, w) block of draws and their
    payoffs, given its explorers' flat positions, as sample_mixed returns
    them; the payoffs block is overwritten."""
    rows, cols = np.divmod(x, acts.shape[1])
    learners.tally(payoffs, payoffs[rows, cols], rows, cols, acts[rows, cols])


def stage_of(rounds, k):
    """A stage's (rounds, k) histograms, for a stage learner's end, which reads
    only their number."""
    return np.zeros((rounds, k), dtype=np.int64)


def one_stage(table, base, explore, stage_len, rng):
    """One stage learner (n = 1) playing a stage against a payoff table, one
    uniform from rng per round; returns its new base and emptied tallies."""
    k = len(table)
    learners = stage_learners([base], k)
    acts, x = sample_mixed(learners.bases, explore, k, rng.random((stage_len, 1)))
    tally(learners, acts, np.asarray(table)[acts], x)
    learners.end(stage_of(stage_len, k))
    return int(learners.bases[0]), learners.sums, learners.counts


def with_base(learners, rounds):
    """Copies of a stage's tallies with the base column folded in, as end
    folds it, to read them mid-stage."""
    bases = learners.bases[learners.lo:]
    rows = np.arange(bases.size)
    sums, counts = learners.sums.copy(), learners.counts.copy()
    sums[rows, bases] = learners.base_sum
    counts[rows, bases] = rounds - counts.sum(axis=1)
    return sums, counts


def test_stage_learner_validation():
    # stage learners are set up by a RunConfig or by the caller of
    # run_stationary, and both reject out-of-range values
    for kwargs in (dict(explore=0.0), dict(explore=1.0), dict(stage_len=0)):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)
    game, rho = ContributionGame(), ActionDistribution.uniform(20)
    for bases, explore, stage_len in (([20], 0.1, 10), ([0], 0.0, 10), ([0], 1.0, 10),
                                      ([0], 0.1, 0), ([-1], 0.1, 10), ([], 0.1, 10)):
        with pytest.raises(ValueError):
            run_stationary(game, rho, bases, explore, stage_len, rounds=10, seed=0)
    with pytest.raises(ValueError, match="rounds: must cover at least one stage of 11"):
        run_stationary(game, rho, [0], 0.1, 11, rounds=10, seed=0)
    for key, stage_len, rounds, seed in (("stage_len", 100.0, 200, 0), ("rounds", 100, 200.0, 0),
                                         ("seed", 100, 200, 1.0)):
        with pytest.raises(ValueError, match=f"{key}: must be an integer, got "):
            run_stationary(game, rho, [8] * 10, 0.1, stage_len, rounds, seed)
    assert run_stationary(game, rho, [8], 0.1, np.int64(10), np.int64(20), np.int64(1)).shape == (1,)
    # a stage_len of None is a run's: ceil(1 / explore**2)
    np.testing.assert_array_equal(run_stationary(game, rho, [8, 3], 0.1, None, 200, 1),
                                  run_stationary(game, rho, [8, 3], 0.1, 100, 200, 1))


def test_stage_learner_moves_to_best_average():
    base, sums, counts = one_stage([1.0, 7.0, 3.0], 0, 0.5, 120, np.random.default_rng(0))
    assert base == 1
    # tallies reset for the next stage
    assert not sums.any() and not counts.any()


def test_stage_learner_keeps_base_on_tie():
    base, _, _ = one_stage([5.0, 5.0, 5.0], 2, 0.5, 120, np.random.default_rng(0))
    assert base == 2


def test_stage_learner_average_values_mid_stage():
    rng = np.random.default_rng(3)
    learners = stage_learners([0], 3)
    acts, x = sample_mixed(0, 0.3, 3, rng.random((2, 1)))
    a, b = (int(v) for v in acts[:, 0])
    tally(learners, acts, np.array([[4.0], [4.0 if b == a else -2.0]]), x)
    sums, counts = with_base(learners, 2)
    vals = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)[0]
    assert vals[a] == 4.0
    if b != a:
        assert vals[b] == -2.0
    for c in set(range(3)) - {a, b}:
        assert vals[c] == 0.0 and counts[0, c] == 0.0


def test_stage_tally_adds_in_time_order():
    # sums must carry the bits of one sequential addition per round
    rng = np.random.default_rng(11)
    m, k, rounds = 7, 3, 40
    acts = rng.integers(k, size=(rounds, m))
    payoffs = rng.normal(scale=3.0, size=(rounds, m)) * 10.0 ** rng.integers(-8, 8, size=(rounds, m))
    bases = acts[0]  # so that the explorers are the draws off it
    learners = stage_learners(bases, k)
    for block in (slice(0, 17), slice(17, rounds)):
        x = np.flatnonzero(acts[block] != bases)
        tally(learners, acts[block], payoffs[block].copy(), x)
    sums, counts = with_base(learners, rounds)
    ref_sums, ref_counts = np.zeros((m, k)), np.zeros((m, k))
    for t in range(rounds):
        for i in range(m):
            ref_sums[i, acts[t, i]] += payoffs[t, i]
            ref_counts[i, acts[t, i]] += 1.0
    np.testing.assert_array_equal(sums, ref_sums)
    np.testing.assert_array_equal(counts, ref_counts)


def masked_stage_end(bases, sums, counts):
    """StageLearners.end written with a masked divide and a separate max, kept as the
    reference for its bits."""
    values = np.divide(sums, counts, out=sums, where=counts > 0.0)
    move = values[np.arange(bases.size), bases] < values.max(axis=1)
    bases[move] = values.argmax(axis=1)[move]
    sums.fill(0.0)
    counts.fill(0.0)


def test_stage_end_matches_masked_divide():
    # zero-count cells (unexplored bases included), ties with the base among
    # the maximizers, negative averages, and averages that round
    rng = np.random.default_rng(8)
    m, k = 4000, 5
    counts = rng.integers(0, 4, size=(m, k)).astype(float)
    grid = rng.choice([-2.5, -0.5, 0.0, 1.5, 3.0], size=(m, k))
    noisy = rng.normal(scale=4.0, size=(m, k))
    sums = np.where(np.arange(m)[:, None] % 2 == 0, grid, noisy) * counts
    sums[counts == 0.0] = 0.0
    bases = rng.integers(k, size=m)
    want = (bases.copy(), sums.copy(), counts.copy())
    masked_stage_end(*want)
    got = bases.copy()
    totals = counts.sum(axis=1)
    for total in np.unique(totals):  # one population per stage length, its rows' count total
        sel = np.flatnonzero(totals == total)
        learners = stage_learners(bases[sel], k)
        rows = np.arange(sel.size)  # the base cells go to the base column, as tally leaves them
        learners.sums[:], learners.counts[:] = sums[sel], counts[sel]
        learners.base_sum[:] = sums[sel, bases[sel]]
        learners.sums[rows, bases[sel]] = learners.counts[rows, bases[sel]] = 0.0
        learners.end(stage_of(int(total), k))
        got[sel] = learners.bases
        assert not (learners.sums.any() or learners.counts.any() or learners.base_sum.any())
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0.0)
    top = values == values.max(axis=1, keepdims=True)
    assert (top[np.arange(m), bases] & (top.sum(axis=1) > 1)).sum() > 100  # base tied at the top
    assert (top[np.arange(m), bases] < top.any(axis=1)).sum() > 100  # bases that move
    assert (values < 0.0).sum() > 1000 and (counts[np.arange(m), bases] == 0.0).sum() > 100
    assert got.tobytes() == want[0].tobytes()
    assert not (want[1].any() or want[2].any())


def add_at_tally(sums, counts, acts, payoffs):
    """The stage tally as one np.add.at over every draw, base draws included,
    kept as the reference for the split tally's bits."""
    idx = (acts + np.arange(sums.shape[0]) * sums.shape[1]).ravel()
    np.add.at(sums.reshape(-1), idx, payoffs.ravel())
    np.add.at(counts.reshape(-1), idx, 1.0)


@pytest.mark.parametrize("m, nf, widths", [
    (6, 0, [1] * 9),  # one-round blocks
    (6, 0, [4, 1, 7, 2]),  # blocks of several rounds, a stage split across calls
    (1, 0, [3, 1, 40]),  # a lone learner, whose column numpy would sum pairwise
    (5, 3, [2, 1, 6]),  # fixed agents in the block's low columns
    (4, 0, [1]),  # a one-round stage
    (0, 4, [3, 2]),  # no learners
    (5, 3, [1] * 6),  # one-round blocks beside fixed columns, as at large n
    (1, 2, [1, 1, 1]),  # a lone learner beside fixed columns, one round a block
], ids=["one_round_blocks", "split_blocks", "lone_learner", "fixed_columns",
        "one_round_stage", "no_learners", "one_round_fixed_columns",
        "lone_learner_fixed_columns"])
def test_stage_tally_matches_add_at_reference(m, nf, widths):
    # the split tally, folded at the stage end, carries the bits of np.add.at
    # over every draw: sums, counts, the sign of each zero, and the new bases
    rng = np.random.default_rng(31 + m + nf + len(widths))
    k, rounds, w = 4, sum(widths), nf + m
    bases = rng.integers(k, size=w)
    u = rng.random((rounds, w))
    payoffs = rng.normal(scale=3.0, size=(rounds, w)) * 10.0 ** rng.integers(-8, 8, size=(rounds, w))
    payoffs[rng.random((rounds, w)) < 0.3] = -0.0
    if m > 1:
        u[:, nf] = 1.0 - 1e-16  # the first learner explores every round
        payoffs[:, -1] = -0.0  # and the last is paid only -0.0
    learners = stage_learners(bases, k, nf)
    ref_sums, ref_counts = np.zeros((m, k)), np.zeros((m, k))
    r0 = 0
    for width in widths:
        block = slice(r0, r0 + width)
        acts, x = sample_mixed(bases, 0.3, k, u[block])
        tally(learners, acts, payoffs[block].copy(), x)
        add_at_tally(ref_sums, ref_counts, acts[:, nf:], payoffs[block, nf:])
        r0 += width
    got_sums, got_counts = with_base(learners, rounds)
    assert got_sums.tobytes() == ref_sums.tobytes()
    assert got_counts.tobytes() == ref_counts.tobytes()
    np.testing.assert_array_equal(np.signbit(got_sums), np.signbit(ref_sums))
    assert not np.signbit(ref_sums[ref_sums == 0.0]).any()  # -0.0 payoffs sum to +0.0
    if m > 1:  # the first learner never played its base
        assert ref_counts[0, bases[nf]] == 0.0 and ref_counts[0].sum() == rounds
    ref_bases = bases[nf:].copy()
    learners.end(stage_of(rounds, k))
    masked_stage_end(ref_bases, ref_sums, ref_counts)
    np.testing.assert_array_equal(learners.bases[nf:], ref_bases)
    assert not (learners.sums.any() or learners.counts.any() or learners.base_sum.any())


def test_stage_learner_unexplored_zero_shadows_negative_base():
    # With everything scoring below zero and no exploration, the learner
    # walks to the first unexplored action: absent samples count as 0.
    rng = np.random.default_rng(0)  # this seed never explores in 50 rounds
    assert (sample_mixed(0, 0.001, 3, np.random.default_rng(0).random(50))[0] == 0).all()
    base, _, _ = one_stage([-5.0, -1.0, -2.0], 0, 0.001, 50, rng)
    assert base == 1


def stats_reference(game, bases, acts):
    """A stats learner's stage end, a round at a time: each learner scores
    action a by its summed payoff against the others, the meanfield_table
    entry of a in the round's histogram with the learner moved to a, then
    moves to the lowest-index best action if it strictly beats its base."""
    (rounds, n), k = acts.shape, game.k
    values = np.zeros((n, k))
    for row in acts:
        moved = np.broadcast_to(np.bincount(row, minlength=k), (n, k, k)).copy()
        moved[np.arange(n), :, row] -= 1
        moved[:, np.arange(k), np.arange(k)] += 1  # learner i moved to action a
        table = game.meanfield_table(moved.reshape(-1, k)).reshape(n, k, k)
        values += table[:, np.arange(k), np.arange(k)]
    rows, best = np.arange(n), values.argmax(axis=1)
    move = values[rows, bases] < values[rows, best]
    return np.where(move, best, bases), values


@pytest.mark.parametrize("n", [3, 5, 9])
def test_stats_stage_end_matches_per_round_reference(n):
    # a stats learner's end, (seen - own counts) @ matrix.T, moves every
    # base where the per-round reference does; n - 1 a power of two and an
    # integer matrix keep both sides exact, so their ties are the same ties
    rng = np.random.default_rng(n)
    k, rounds, moves, ties = 4, 30, 0, 0
    for _ in range(8):
        game = MatrixGame(rng.integers(-1, 2, size=(k, k)))
        bases = rng.integers(k, size=n)
        acts, x = sample_mixed(bases, 0.4, k, rng.random((rounds, n)))
        want, values = stats_reference(game, bases, acts)
        learners = stage_learners(bases, k, matrix=game.matrix)
        tally(learners, acts, rng.normal(size=(rounds, n)), x)
        learners.end(np.array([np.bincount(row, minlength=k) for row in acts]))
        got = learners.bases
        np.testing.assert_array_equal(got, want)
        assert not (learners.sums.any() or learners.counts.any() or learners.base_sum.any())
        moves += (got != bases).sum()
        ties += ((values == values.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum()
    assert moves > 0 and ties > 0


def test_stats_learner_moves_to_the_best_reply_of_the_stage():
    # against a population whose other members all play 1, the stats learner
    # moves to the best reply to 1 whether or not it explored it
    game = MatrixGame([[0.0, 0.0, 5.0], [1.0, 2.0, 0.0], [0.0, 3.0, 0.0]])
    acts = np.ones((5, 4), np.int64)
    acts[:, 0] = 0  # learner 0 never leaves its base
    learners = stage_learners(acts[0], 3, matrix=game.matrix)
    learners.end(np.array([np.bincount(row, minlength=3) for row in acts]))
    np.testing.assert_array_equal(learners.bases, [2, 2, 2, 2])


# ---------------------------------------------------------------------------
# regret matcher


def matchers(m, k, mu=100.0, delta=0.1, lo=0):
    """m fresh regret matchers after lo fixed agents, all of base -1."""
    return RegretMatchers(np.full(lo + m, -1), np.zeros(lo + m), lo, k, mu, delta)


def test_regret_matcher_validation():
    with pytest.raises(ValueError, match="mu"):
        RunConfig(learner="regret", mu=0.0)
    with pytest.raises(ValueError, match="delta"):
        RunConfig(learner="regret", delta=0.0)
    with pytest.raises(ValueError, match="delta"):
        RunConfig(learner="regret", delta=1.0)


def test_regret_matcher_first_round_uniform():
    matcher = matchers(1, 4)
    u = (np.arange(400) + 0.5) / 400
    acts = [int(matcher.act([x])[0]) for x in u]
    np.testing.assert_array_equal(np.bincount(acts, minlength=4), [100] * 4)


def test_regret_matcher_repeat_probability_after_gain():
    # One round, positive payoff: no positive regret, so the played action
    # repeats with probability 1 - delta + delta/k and the rest split delta.
    k, delta = 3, 0.1
    matcher = matchers(1, k, 100.0, delta)
    probs = matcher.probs
    a = matcher.act(np.random.default_rng(2).random(1))
    matcher.observe(np.array([6.0]))
    a = int(a[0])
    assert matcher.bases[0] == a and matcher.t[0] == 1
    assert probs[0, a] == pytest.approx(1.0 - delta + delta / k)
    for b in range(k):
        if b != a:
            assert probs[0, b] == pytest.approx(delta / k)


def test_regret_matcher_switch_probability_after_loss():
    # One round, payoff -P: every other action carries regret P/t = P.
    k, delta, mu, P = 3, 0.1, 100.0, 8.0
    matcher = matchers(1, k, mu, delta)
    probs = matcher.probs
    a = matcher.act(np.random.default_rng(2).random(1))
    matcher.observe(np.array([-P]))
    a = int(a[0])
    expected_other = (1.0 - delta) * min(P / mu, 1.0 / (k - 1)) + delta / k
    for b in range(k):
        if b != a:
            assert probs[0, b] == pytest.approx(expected_other)
    assert probs[0, a] == pytest.approx(1.0 - 2 * expected_other)


class ReferenceMatcher:
    """Straight transcription of the update rule, kept independent of the
    library code to cross-check it."""

    def __init__(self, k, mu, delta):
        self.k, self.mu, self.delta = k, mu, delta
        self.t = 0
        self.proxy = np.zeros((k, k))
        self.probs = np.full(k, 1.0 / k)
        self.prev = None

    def act(self, u):
        return min(int(np.searchsorted(np.cumsum(self.probs), u, side="right")), self.k - 1)

    def feed(self, action, payoff):
        self.t += 1
        for j in range(self.k):
            self.proxy[j, action] += self.probs[j] / self.probs[action] * payoff
        self.prev = action
        j = action
        q = np.empty(self.k)
        for b in range(self.k):
            regret = max((self.proxy[j, b] - self.proxy[j, j]) / self.t, 0.0)
            q[b] = (1 - self.delta) * min(regret / self.mu, 1 / (self.k - 1)) + self.delta / self.k
        q[j] = 0.0
        q[j] = 1.0 - q.sum()
        self.probs = q


def test_regret_matcher_lockstep_with_reference():
    # three matchers at once, each against its own scalar reference
    m, k, mu, delta = 3, 4, 50.0, 0.07
    matcher = matchers(m, k, mu, delta)
    refs = [ReferenceMatcher(k, mu, delta) for _ in range(m)]
    rng = np.random.default_rng(9)
    for _ in range(300):
        u = rng.random(m)
        acts = matcher.act(u)
        assert list(acts) == [ref.act(x) for ref, x in zip(refs, u)]
        payoffs = rng.normal(scale=5.0, size=m)
        matcher.observe(payoffs)
        for i, ref in enumerate(refs):
            ref.feed(int(acts[i]), float(payoffs[i]))
            np.testing.assert_allclose(matcher.probs[i], ref.probs, atol=1e-12)
    assert list(matcher.bases) == [ref.prev for ref in refs]


def test_regret_matcher_probability_floor():
    matcher = matchers(1, 5, 20.0, 0.05)
    rng = np.random.default_rng(4)
    for _ in range(300):
        matcher.act(rng.random(1))
        matcher.observe(rng.normal(scale=30.0, size=1))
        assert matcher.probs.min() >= 0.05 / 5 - 1e-12
        assert matcher.probs.sum() == pytest.approx(1.0)


def test_regret_matcher_act_edge_clamp():
    matcher = matchers(1, 3)
    assert matcher.act([1.0 - 1e-16])[0] == 2
    matcher.probs[0] = [0.1, 0.45, 0.45 - 1e-9]  # sums just short of 1
    assert matcher.act([1.0 - 1e-16])[0] == 2


def test_regret_matcher_reset_makes_churned_rows_fresh():
    # after some rounds, reset(rows) gives the churned matchers a fresh
    # matcher's state (proxy 0, probabilities 1/k, round count 0), leaves the
    # other rows alone, and leaves the fixed agents' bases and every base as is
    m, k, lo = 6, 3, 2
    matcher = matchers(m, k, 10.0, 0.1, lo)
    rng = np.random.default_rng(13)
    for _ in range(20):
        matcher.act(rng.random(m))
        matcher.observe(rng.normal(scale=4.0, size=m))
    before = [a.copy() for a in (matcher.proxy, matcher.probs, matcher.t, matcher.bases)]
    rows = np.array([1, 4])
    matcher.reset(rows)
    fresh = matchers(m, k, lo=lo)
    kept = np.setdiff1d(np.arange(m), rows)
    for got, was, new in zip((matcher.proxy, matcher.probs, matcher.t), before, (
            fresh.proxy, fresh.probs, fresh.t)):
        assert got[rows].tobytes() == new[rows].tobytes()
        assert got[kept].tobytes() == was[kept].tobytes()
        assert (was[rows] != new[rows]).any()  # the reset changed something
    assert matcher.bases.tobytes() == before[3].tobytes()
    np.testing.assert_array_equal(matcher.bases[:lo], -1)


def test_regret_matcher_for_game():
    pd = RunConfig(game="prisoners_dilemma", target=1, learner="regret")
    assert pd.resolved_mu == 2.0 * 5.0 * 1  # payoff range 5, one alternative
    assert RunConfig(learner="regret").resolved_mu == 2.0 * (321.0 + 401.0) * 19
    assert RunConfig(learner="regret", mu=7.5).resolved_mu == 7.5
    # summaries echo the configured mu, not the resolved one
    assert "resolved_mu" not in dict(pd.items())


# ---------------------------------------------------------------------------
# fixed agents


def test_fixed_agent():
    # a population of fixed agents plays its mixed action and never moves
    cfg = RunConfig(game="climbing", target=0, n=10, rounds=3000, explore=0.1,
                    fixed_fraction=1.0, fixed_base=1, fixed_explore=0.3)
    trace = run(cfg)
    np.testing.assert_allclose(trace.realized_dist.mean(axis=0), [0.15, 0.7, 0.15], atol=0.01)
    assert (trace.base_dist == [0.0, 1.0, 0.0]).all()


def test_fixed_agent_validates_base():
    with pytest.raises(ValueError, match="fixed_base"):
        RunConfig(game="prisoners_dilemma", target=0, fixed_fraction=0.5, fixed_base=5)
