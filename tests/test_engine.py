"""Simulation engine: configs, payoff realization, churn, full runs, the pool."""

import csv
import dataclasses
import hashlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from anonlearn import (
    ActionDistribution,
    ContributionGame,
    DimensionError,
    MatrixGame,
    MixedAction,
    RunConfig,
    RunTrace,
    best_reply_set,
    build_game,
    engine,
    load_matrix,
    prisoners_dilemma,
    run,
    run_many,
    run_stationary,
)
from anonlearn.engine import pool_map, pool_size
from anonlearn.streams import RawStream, apply_churn
from test_core import meanfield
from test_golden import GOLDEN, random_configs


# ---------------------------------------------------------------------------
# configuration


def test_run_config_defaults_and_stage_resolution():
    cfg = RunConfig()
    assert cfg.game == "contribution"
    assert cfg.resolved_stage_len == 400  # ceil(1 / 0.05^2)
    assert RunConfig(explore=0.1, rounds=3000).resolved_stage_len == 100
    assert RunConfig(stage_len=250).resolved_stage_len == 250


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(game="poker"), "game"),
        (dict(game="matrix"), "matrix_path"),
        (dict(mode="tournament"), "mode"),
        (dict(learner="ficticious"), "learner"),
        (dict(explore=0.0), "explore"),
        (dict(stage_len=0), "stage_len"),
        (dict(mu=-1.0), "mu"),
        (dict(delta=1.0), "delta"),
        (dict(n=1), "n"),
        (dict(n=101, mode="matching"), "n"),
        (dict(churn_rate=1.5), "churn_rate"),
        (dict(fixed_fraction=-0.1), "fixed_fraction"),
        (dict(fixed_explore=1.0), "fixed_explore"),
        (dict(rounds=100), "rounds"),  # less than one stage of 400
        (dict(seed=-1), "seed"),
        (dict(metrics_eta=-0.5), "metrics_eta"),
        (dict(game="prisoners_dilemma"), "target"),  # default target 8 of 2 actions
        (dict(fixed_base=25), "fixed_base"),
        (dict(churn_rate=0.1, fixed_fraction=1.0), "churn_rate"),  # no learner to churn
        (dict(game="climbing", target=0, matrix_path="/nonexistent.txt"), "matrix_path"),
        (dict(learner="regret", mu=float("nan")), "mu"),
        (dict(mu=float("inf")), "mu"),
        (dict(metrics_eta=float("nan")), "metrics_eta"),
        (dict(metrics_eta=float("inf")), "metrics_eta"),
        (dict(game="climbing", penalty_n=-1, target=0), "penalty_n"),  # checked for every game
    ],
)
def test_run_config_validation_names_offending_key(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        RunConfig(**kwargs)


@pytest.mark.parametrize("key,value", [("penalty_n", 20.5), ("n", 100.0), ("rounds", 3000.0),
                                       ("stage_len", 100.0), ("fixed_base", 0.5), ("seed", 1.0),
                                       ("target", 8.5)])
def test_run_config_rejects_non_integral_int_fields(key, value):
    with pytest.raises(ValueError, match=f"^{key}: must be an integer, got {value}$"):
        RunConfig(**{key: value})
    assert RunConfig(**{key: np.int64(value)}).items() == RunConfig(**{key: int(value)}).items()


@pytest.mark.parametrize("key,value,real", [
    ("explore", "0.1", 0.1), ("delta", "0.05", 0.2), ("mu", "1", 1.0), ("churn_rate", None, 0.1),
    ("fixed_fraction", None, 0.5), ("fixed_explore", "0", 0.1), ("metrics_eta", None, 2.0)])
def test_run_config_rejects_non_real_float_fields(key, value, real):
    with pytest.raises(ValueError, match=f"^{key}: must be a real number, got {value!r}$"):
        RunConfig(**{key: value})
    assert RunConfig(**{key: np.float64(real)}).items() == RunConfig(**{key: real}).items()


@pytest.mark.parametrize("key", ["penalty_n", "n", "rounds", "stage_len", "fixed_base", "seed",
                                 "target"])
def test_run_config_rejects_a_bool_for_an_int_field(key):
    with pytest.raises(ValueError, match=f"^{key}: must be an integer, got True$"):
        RunConfig(**{key: True})


@pytest.mark.parametrize("call,message", [
    (lambda: run_stationary(ContributionGame(), ActionDistribution.uniform(20), [0], "0.1", 10,
                            20, 0), "^explore: must be a real number, got '0.1'$"),
    (lambda: run_stationary(ContributionGame(), ActionDistribution.uniform(20), [0], 0.1, True,
                            20, 0), "^stage_len: must be an integer, got True$"),
    (lambda: pool_size("2", 3, 2), "^threads: must be an integer, got '2'$"),
    (lambda: pool_size(2.5, 3, 2), "^threads: must be an integer, got 2.5$"),
    (lambda: pool_size(float("nan"), 3, 2), "^threads: must be an integer, got nan$"),
    (lambda: pool_size(True, 3, 2), "^threads: must be an integer, got True$"),
    (lambda: apply_churn(np.full(4, 8), "0.1", RawStream([0]), 20),
     "^rate: must be a real number, got '0.1'$"),
], ids=["run_stationary-explore", "run_stationary-stage_len", "pool_size-str",
        "pool_size-float", "pool_size-nan", "pool_size-bool", "apply_churn-rate"])
def test_numeric_arguments_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_run_config_items_echoes_resolved_values():
    cfg = RunConfig(explore=0.1, rounds=1000)
    d = dict(cfg.items())
    assert d["resolved_stage_len"] == 100
    assert d["game"] == "contribution"


def test_build_game_kinds(tmp_path):
    assert build_game("contribution", 20, None).k == 20
    assert build_game("prisoners_dilemma", 20, None).k == 2
    assert build_game("climbing", 20, None).k == 3
    assert build_game("contribution", 100, None).penalty_n == 100
    path = tmp_path / "m.txt"
    path.write_text("0 1\n1 0\n")
    game = build_game("matrix", 20, str(path))
    np.testing.assert_array_equal(game.matrix, [[0, 1], [1, 0]])


def test_fixed_agents_hold_low_slots_and_learners_draw_own_base():
    # fixed agents take the low floor(fixed_fraction * n) slots; each learner
    # draws its first base from its own stream default_rng([seed, 0, i])
    cfg = RunConfig(n=8, rounds=100, explore=0.1, fixed_fraction=0.25, fixed_base=8,
                    fixed_explore=0.1, seed=4)
    bases = [8, 8] + [np.random.default_rng([4, 0, i]).integers(20) for i in range(2, 8)]
    np.testing.assert_array_equal(run(cfg).base_dist[0], np.bincount(bases, minlength=20) / 8)


def test_action_indices_checked_against_game_at_build(tmp_path):
    # action indices are checked against the game when the config is built,
    # so a bad one never reaches run or a worker
    with pytest.raises(ValueError, match="target: action 5 out of range for 2 actions"):
        RunConfig(game="prisoners_dilemma", target=5)
    with pytest.raises(ValueError, match="fixed_base: action 3 out of range for 3 actions"):
        RunConfig(game="climbing", target=0, fixed_base=3)
    path = tmp_path / "m.txt"
    path.write_text("0 1 2\n1 0 2\n2 1 0\n")
    with pytest.raises(ValueError, match="target"):
        RunConfig(game="matrix", matrix_path=str(path))
    RunConfig(game="matrix", matrix_path=str(path), target=2, fixed_base=2)
    with pytest.raises(OSError):
        RunConfig(game="matrix", matrix_path=str(tmp_path / "missing.txt"), target=0)


# ---------------------------------------------------------------------------
# payoff realization


def _per_round_payoffs(acts, counts, m):
    """The per-round reference: one m @ c per round, then
    (totals[r, a] - m[a, a]) / (n - 1) for each agent."""
    totals = np.array([m @ c for c in counts.astype(float)])
    rows = np.arange(acts.shape[0])[:, None]
    return (totals[rows, acts] - m[acts, acts]) / (acts.shape[1] - 1)


@pytest.mark.parametrize("k,rounds", [
    ("golden", 1), ("golden", 300), (2, 300), (3, 1), (7, 57), (20, 300), (40, 13),
    (64, 300), (257, 40)])
def test_meanfield_payoffs_block_matches_per_round_gemv(k, rounds):
    # a (rounds, n) block gives each round's bits of m @ counts[r], on
    # matrices whose entries are not integers (a gemm could differ there)
    rng = np.random.default_rng(rounds if k == "golden" else 1000 * k + rounds)
    if k == "golden":
        m = load_matrix(GOLDEN / "golden_matrix.txt")
    else:
        m = rng.normal(size=(k, k)) * rng.uniform(0.1, 50.0, size=(k, 1))
    n = max(50, 3 * m.shape[0])
    acts = rng.integers(m.shape[0], size=(rounds, n))
    counts = np.array([np.bincount(a, minlength=m.shape[0]) for a in acts])
    flat = acts + m.shape[0] * np.arange(rounds)[:, None]  # the index run builds
    got = MatrixGame(m).meanfield_table(counts).reshape(-1)[flat]
    assert got.shape == acts.shape
    assert got.tobytes() == _per_round_payoffs(acts, counts, m).tobytes()


def test_matching_payoffs_is_a_perfect_matching():
    # payoff 10*own + partner decodes who met whom
    k = 6
    m = np.add.outer(10 * np.arange(k), np.arange(k)).astype(float)
    acts = np.array([0, 1, 2, 3, 4, 5])
    payoffs = MatrixGame(m).matching_payoffs(acts, np.random.default_rng(0))
    partner = (payoffs - 10 * acts).astype(int)
    for i in range(k):
        assert partner[i] != i  # never self-matched
        assert partner[partner[i]] == i  # symmetric pairing


def test_matching_payoffs_zero_sum_conserved():
    game = MatrixGame([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(3)
    for _ in range(20):
        acts = rng.integers(2, size=100)
        assert game.matching_payoffs(acts, rng).sum() == 0.0


def test_matching_payoffs_needs_even_population():
    with pytest.raises(ValueError, match="even"):
        MatrixGame(np.eye(2)).matching_payoffs([0, 1, 0], np.random.default_rng(0))


def test_matching_payoffs_block_equals_stacked_rows():
    # a (rounds, n) block draws one permutation per row, in row order: the
    # bits and the generator state of one 1-D call per row
    game = MatrixGame(np.random.default_rng(1).normal(size=(5, 5)))
    acts = np.random.default_rng(2).integers(5, size=(40, 12))
    rng_block, rng_rows = np.random.default_rng(9), np.random.default_rng(9)
    block = game.matching_payoffs(acts, rng_block)
    rows = np.array([game.matching_payoffs(a, rng_rows) for a in acts])
    assert block.shape == acts.shape and block.tobytes() == rows.tobytes()
    assert rng_block.random() == rng_rows.random()
    one = game.matching_payoffs(acts[:1], np.random.default_rng(9))
    assert one.shape == (1, 12) and one.tobytes() == rows[:1].tobytes()


@pytest.mark.parametrize("n", [2, 100, 1000])
def test_matching_payoffs_block_draws_per_row_permutations(n):
    # the block's pairs are those of one rng.permutation(n) per row, in row
    # order, and the generator ends in the same state
    rounds = 30
    game = MatrixGame(np.tile(np.arange(float(n)), (n, 1)))  # payoff = partner's action
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = game.matching_payoffs(np.tile(np.arange(n), (rounds, 1)), rng)
    want = np.empty((rounds, n))
    for row in want:
        perm = ref.permutation(n)
        row[perm[0::2]], row[perm[1::2]] = perm[1::2], perm[0::2]
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_matching_payoffs_block_needs_even_population():
    with pytest.raises(ValueError, match="even"):
        MatrixGame(np.eye(2)).matching_payoffs(np.zeros((3, 5), dtype=int),
                                               np.random.default_rng(0))


def test_matching_mean_approaches_meanfield():
    # with many agents, one matched round's average payoff sits close to the
    # mean-field average for the same action profile
    game = prisoners_dilemma()
    rng = np.random.default_rng(8)
    acts = rng.integers(2, size=10000)
    exact = meanfield(acts, game).mean()
    sampled = game.matching_payoffs(acts, rng).mean()
    assert abs(sampled - exact) < 0.1


# ---------------------------------------------------------------------------
# churn


def coin(stream):
    """rng.random() on the stream's Generator: its next word as a double."""
    word = stream.peek(1)[0]
    stream.skip(1)
    return float(word >> 11) * 2.0**-53


def test_apply_churn_rate_zero_and_one():
    bases = np.full(10, 8)
    assert apply_churn(bases, 0.0, RawStream([0]), k=20).size == 0
    assert (bases == 8).all()
    np.testing.assert_array_equal(
        apply_churn(bases, 1.0, RawStream([0]), k=20), np.arange(10))


def test_apply_churn_spares_fixed_agents():
    # run hands churn only the learners: every stage's base row keeps the nf
    # fixed agents' base, though every learner is replaced at every stage end
    cfg = RunConfig(n=20, rounds=600, explore=0.1, churn_rate=1.0, fixed_fraction=0.5,
                    fixed_base=19, seed=4)
    trace = run(cfg)
    assert (trace.stage_base[:, 19] >= 10).all()
    assert (trace.stage_base[1:, 19] < 20).all()


def test_apply_churn_binomial_count():
    replaced = apply_churn(np.full(2000, 8), 0.3, RawStream([5]), k=20)
    assert abs(replaced.size - 600) < 3 * np.sqrt(2000 * 0.3 * 0.7)


def test_apply_churn_replacements_copy_template():
    # each replaced slot draws its new base right after its coin
    bases = np.full(6, 8)
    apply_churn(bases, 1.0, RawStream([2]), k=20)
    ref = np.random.default_rng(2)
    expected = []
    for _ in range(6):
        assert ref.random() < 1.0
        expected.append(ref.integers(20))
    np.testing.assert_array_equal(bases, expected)
    # without k (regret matchers) only the coins are drawn; bases stay put
    stream, ref = RawStream([2]), np.random.default_rng(2)
    bases = np.full(6, 8)
    replaced = apply_churn(bases, 0.5, stream)
    np.testing.assert_array_equal(replaced, np.flatnonzero(ref.random(6) < 0.5))
    assert 0 < replaced.size < 6 and (bases == 8).all()
    assert coin(stream) == ref.random()


def scalar_churn(bases, start, rate, rng, k=None):
    """The per-slot loop apply_churn computes without looping: a coin per
    slot, then a base right after each hit."""
    out = []
    for i in range(start, len(bases)):
        if rng.random() < rate:
            out.append(i)
            if k is not None:
                bases[i] = rng.integers(k)
    return np.array(out, dtype=np.int64)


def observable(stream, rng):
    """The stream's half and next words, and what rng's state says they are
    (numpy leaves a stale uinteger once the buffered half is used)."""
    s = rng.bit_generator.state
    bg = np.random.PCG64()
    bg.state = s
    return ((stream.half, stream.peek(3).tolist()),
            (s["uinteger"] if s["has_uint32"] else None, bg.random_raw(3).tolist()))


@pytest.mark.parametrize("k", [None, 2, 3, 20, 1000, 2**31 + 7])
@pytest.mark.parametrize("rate", [0.0, 1.0, 0.05])
def test_apply_churn_matches_scalar_loop(k, rate):
    # a buffered half going in, then three calls in a row, with and without
    # fixed agents below start
    stream, ref = RawStream([17, 2]), np.random.default_rng([17, 2])
    ref.integers(7)  # its first word's low half settles it, buffering the high half
    stream.half = int(stream.peek(1)[0]) >> 32
    stream.skip(1)
    got_state, want_state = observable(stream, ref)
    assert got_state == want_state and want_state[0] is not None
    for n, start in [(700, 40), (501, 0), (3000, 300)]:
        got, want = np.full(n, 8), np.full(n, 8)
        slots = start + apply_churn(got[start:], rate, stream, k)
        assert slots.dtype == np.int64
        np.testing.assert_array_equal(slots, scalar_churn(want, start, rate, ref, k))
        np.testing.assert_array_equal(got, want)
        got_state, want_state = observable(stream, ref)
        assert got_state == want_state
    assert coin(stream) == ref.random()


def test_apply_churn_validates_rate():
    with pytest.raises(ValueError):
        apply_churn(np.full(4, 8), 1.5, RawStream([0]), k=20)


def test_apply_churn_with_k_needs_a_32_bit_range():
    for k in (1, 2**32):
        with pytest.raises(ValueError, match=r"k: must be in \[2, 4294967296\), got "):
            apply_churn(np.full(4, 8), 0.5, RawStream([0]), k=k)


# ---------------------------------------------------------------------------
# full runs


@pytest.fixture(scope="module")
def small_run():
    return run(RunConfig(n=20, rounds=800, explore=0.1, seed=3))  # tau=100, 8 stages


def test_run_shapes(small_run):
    t = small_run
    assert t.rounds == 800
    assert t.stages == 8
    assert t.realized_dist.shape == (800, 20)
    assert t.base_dist.shape == (800, 20)
    np.testing.assert_allclose(t.realized_dist.sum(axis=1), 1.0)
    np.testing.assert_allclose(t.base_dist.sum(axis=1), 1.0)
    assert t.final_distance == t.stage_distance[-1]
    assert 0.0 <= t.stage_br_fraction.min() <= t.stage_br_fraction.max() <= 1.0


def test_run_deterministic(small_run):
    again = run(RunConfig(n=20, rounds=800, explore=0.1, seed=3))
    np.testing.assert_array_equal(small_run.realized_dist, again.realized_dist)
    np.testing.assert_array_equal(small_run.stage_distance, again.stage_distance)
    other = run(RunConfig(n=20, rounds=800, explore=0.1, seed=4))
    assert (small_run.realized_dist != other.realized_dist).any()


def _trace_arrays(t):
    return [None if a is None else a.tobytes() for a in (
        t.realized_counts, t.stage_base, t.stage_rho, t.stage_distance, t.stage_br_fraction)]


@pytest.mark.parametrize("cap", [1, 64])
def test_run_bits_do_not_depend_on_block_width(cap, monkeypatch):
    # one-round blocks (CAP 1) and blocks of a few rounds (CAP 64) give the
    # bytes the default blocks of up to CAP // (n + k) rounds give
    want = [_trace_arrays(run(cfg)) for cfg in random_configs()]
    monkeypatch.setattr(engine, "CAP", cap)
    assert [_trace_arrays(run(cfg)) for cfg in random_configs()] == want


def test_stage_br_fraction_is_the_share_of_stage_end_bases_in_abr():
    # the bases at a stage end, read back from the trace: a stage learner's
    # (without churn) are the next stage's base row; a regret matcher's are
    # the stage's last realized row when every fixed agent plays its base
    checked = {"stage": 0, "regret": 0}
    for cfg in random_configs():
        trace, tau, n = run(cfg), cfg.resolved_stage_len, cfg.n
        if cfg.learner == "regret":
            if int(cfg.fixed_fraction * n) and cfg.fixed_explore:
                continue
            ends = [trace.realized_counts[(s + 1) * tau - 1] for s in range(trace.stages)]
        elif cfg.churn_rate == 0.0:
            ends = list(trace.stage_base[1 : trace.stages + 1])
        else:
            continue
        for s, hist in enumerate(ends):
            rho = ActionDistribution((trace.realized_counts[s * tau : (s + 1) * tau] / n)
                                     .mean(axis=0))
            assert rho.weights.tobytes() == trace.stage_rho[s].tobytes()
            abr = list(best_reply_set(rho, cfg.metrics_eta, cfg._game))
            assert trace.stage_br_fraction[s] == hist[abr].sum() / n
            checked[cfg.learner] += 1
    assert min(checked.values()) >= 5


def test_run_plays_the_configs_game(monkeypatch):
    # the config keeps the game it validated against; run, and run on a
    # pickled copy (what a pool worker gets), build no other
    cfg = RunConfig(game="climbing", target=0, learner="regret", n=6, rounds=300,
                    explore=0.1, seed=2)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and repr(copy) == repr(cfg) and copy.items() == cfg.items()
    calls = []
    real = engine.build_game
    monkeypatch.setattr(engine, "build_game", lambda *args: calls.append(args) or real(*args))
    a, b = run(cfg), run(copy)
    assert calls == []
    assert a.k == b.k == 3
    for f in ("realized_dist", "base_dist", "stage_rho", "stage_distance",
              "stage_br_fraction"):
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f))


class CountingGame(MatrixGame):
    """A MatrixGame that counts the calls to its payoff methods."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = {"meanfield_table": 0, "matching_payoffs": 0}

    def meanfield_table(self, counts):
        self.calls["meanfield_table"] += 1
        return super().meanfield_table(counts)

    def matching_payoffs(self, actions, rng):
        self.calls["matching_payoffs"] += 1
        return super().matching_payoffs(actions, rng)


@pytest.mark.parametrize("mode,method", [("meanfield", "meanfield_table"),
                                         ("matching", "matching_payoffs")])
def test_run_pays_through_the_games_payoff_methods(mode, method):
    # run asks the config's game for every payoff, by the mode's method only,
    # so a game that overrides the method changes what its agents earn
    kwargs = dict(game="climbing", target=0, mode=mode, n=10, rounds=300, explore=0.1, seed=2)
    cfg = RunConfig(**kwargs)
    game = CountingGame(cfg._game.matrix)
    object.__setattr__(cfg, "_game", game)
    trace = run(cfg)
    assert game.calls[method] > 0
    assert sum(game.calls.values()) == game.calls[method]
    plain = run(RunConfig(**kwargs))
    assert trace.realized_counts.tobytes() == plain.realized_counts.tobytes()
    assert trace.stage_base.tobytes() == plain.stage_base.tobytes()


def _fresh_python(code: str) -> list[str]:
    """The words a fresh interpreter prints running code, with anonlearn on
    its path; a warning is an error there, as it is here."""
    src = str(Path(engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_meanfield_run_without_churn_leaves_numpy_random_unimported():
    # only the matching shuffle uses numpy.random (churn's stream is computed);
    # a fresh process shows whether a run imported it
    code = ("import sys; from anonlearn import RunConfig, run\n"
            "for learner in ('stage', 'regret'):\n"
            "    run(RunConfig(learner=learner, n=10, rounds=200, explore=0.1))\n"
            "print('numpy.random' in sys.modules)\n"
            "for learner in ('stage', 'regret'):\n"
            "    run(RunConfig(learner=learner, n=10, rounds=200, explore=0.1,\n"
            "                  churn_rate=0.1, fixed_fraction=0.2))\n"
            "print('numpy.random' in sys.modules)\n"
            "run(RunConfig(mode='matching', n=10, rounds=200, explore=0.1))\n"
            "print('numpy.random' in sys.modules)\n")
    assert _fresh_python(code) == ["False", "False", "True"]


def test_import_leaves_concurrent_futures_and_multiprocessing_unimported():
    # the pool forks its own workers, so neither is loaded at import
    code = ("import sys, anonlearn, anonlearn.cli\n"
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)\n")
    assert _fresh_python(code) == ["False", "False"]


def test_run_base_rows_piecewise_constant(small_run):
    # stage learners move bases only at stage boundaries
    block = small_run.base_dist[0:100]
    assert (block == block[0]).all()
    # realized rows inside a stage fluctuate
    assert (small_run.realized_dist[0:100].std(axis=0) > 0).any()


def test_rounds_to_threshold(small_run):
    r = small_run.rounds_to_threshold(2.0)
    assert r is not None and r % 100 == 0
    assert small_run.rounds_to_threshold(-1.0) is None


def test_run_trace_csv_roundtrip(tmp_path, small_run):
    import csv

    path = tmp_path / "trace.csv"
    small_run.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["round", "stage", "distance", "br_fraction"]
    assert rows[0][4] == "rho_0" and rows[0][24] == "base_0"
    assert len(rows) == 801
    # repr round-trips exactly
    assert float(rows[1][2]) == small_run.stage_distance[0]
    np.testing.assert_array_equal(
        [float(x) for x in rows[5][4:24]], small_run.realized_dist[4]
    )


def test_run_trace_csv_partial_stage(tmp_path):
    trace = run(RunConfig(n=10, rounds=450, explore=0.1, seed=0))  # 4.5 stages
    path = tmp_path / "t.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[-1].split(",")[2] == ""  # no metrics for the half stage


def _csv_writer_reference(trace, path):
    """RunTrace.to_csv as a csv.writer loop with one repr per float: the bytes
    to_csv must keep."""
    tau = trace.config.resolved_stage_len
    header = (["round", "stage", "distance", "br_fraction"]
              + [f"rho_{a}" for a in range(trace.k)] + [f"base_{a}" for a in range(trace.k)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(trace.rounds):
            s = t // tau
            if s < trace.stages:
                metrics = [repr(float(trace.stage_distance[s])),
                           repr(float(trace.stage_br_fraction[s]))]
            else:  # trailing partial stage
                metrics = ["", ""]
            writer.writerow([t, s] + metrics
                            + [repr(float(v)) for v in trace.realized_dist[t]]
                            + [repr(float(v)) for v in trace.base_dist[t]])


def _csv_digests(trace, tmp_path):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    trace.to_csv(fast)
    _csv_writer_reference(trace, slow)
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (fast, slow)]


# stage and regret learners, both modes, churn, trailing partial stages; and
# one run longer than a to_csv block of engine.CSV_ROWS rows
@pytest.mark.parametrize("cfg", random_configs() + [RunConfig(n=20, rounds=800, explore=0.1)])
def test_run_trace_csv_matches_csv_writer(cfg, tmp_path):
    fast, slow = _csv_digests(run(cfg), tmp_path)
    assert fast == slow


def test_run_trace_csv_covers_every_count(tmp_path):
    # every count 0..n appears in some cell, on both sides of the 512-row
    # blocks, and each row still sums to n
    rng = np.random.default_rng(4)
    n, k, rounds = 1000, 3, 1300
    c = np.arange(rounds) % (n + 1)
    realized = rng.permuted(np.stack([c, n - c, np.zeros_like(c)], axis=1), axis=1)
    trace = RunTrace(
        config=RunConfig(n=n, rounds=rounds, explore=0.1, stage_len=300),
        realized_counts=realized.astype(np.int32),
        stage_base=rng.multinomial(n, [0.2, 0.3, 0.5], size=5).astype(np.int32),
        stage_rho=np.full((4, k), 1 / k), stage_distance=rng.random(4) * 3,
        stage_br_fraction=rng.random(4))
    assert set(trace.realized_counts.reshape(-1).tolist()) == set(range(n + 1))
    fast, slow = _csv_digests(trace, tmp_path)
    assert fast == slow


def _counts_rows(rng, n, rounds):
    """rounds rows of 3 counts summing to n, none of them n."""
    rows = rng.multinomial(n, [0.2, 0.3, 0.5], size=rounds)
    rows[rows.max(axis=1) == n] = [n - 1, 1, 0]
    return rows.astype(np.int32)


@pytest.mark.parametrize("style", ["stage", "regret"])
def test_run_trace_csv_keeps_each_stage_base_row(style, tmp_path):
    # consecutive stages (every 300 rounds, not a multiple of the 512-row
    # block) with different base rows, one of them a count (n) that no
    # realized cell holds, and a trailing partial stage; a regret trace has
    # no stage base rows, its base rows are its realized rows
    rng = np.random.default_rng(21)
    n, k, rounds = 10, 3, 1300
    realized = _counts_rows(rng, n, rounds)
    stage_base = np.array([[0, 3, 7], [1, 2, 7], [0, 0, 10], [5, 5, 0], [1, 2, 7]],
                          dtype=np.int32)
    realized[40] = [0, 5, 5]
    trace = RunTrace(
        config=RunConfig(n=n, rounds=rounds, explore=0.1, stage_len=300),
        realized_counts=realized, stage_base=None if style == "regret" else stage_base,
        stage_rho=np.full((4, k), 1 / k), stage_distance=rng.random(4) * 3,
        stage_br_fraction=rng.random(4))
    fast, slow = _csv_digests(trace, tmp_path)
    assert fast == slow
    lines = (tmp_path / "fast.csv").read_text().splitlines()
    if style == "stage":
        assert lines[1 + 299].endswith(",0.0,0.3,0.7")
        assert lines[1 + 300].endswith(",0.1,0.2,0.7")
        assert lines[1 + 600].endswith(",0.0,0.0,1.0")
        assert lines[1 + 1299].endswith(",0.1,0.2,0.7")
    else:
        assert lines[1 + 40].endswith(",0.0,0.5,0.5,0.0,0.5,0.5")


@pytest.mark.parametrize("learner", ["stage", "regret"])
def test_run_trace_stores_one_base_row_per_stage(learner):
    # 4.5 stages of 100 rounds: five stage base rows, the partial stage's
    # included; a regret matcher's base rows are its realized rows
    t = run(RunConfig(learner=learner, n=10, rounds=450, explore=0.1, seed=2))
    if learner == "regret":
        assert t.stage_base is None
        np.testing.assert_array_equal(t.base_dist, t.realized_dist)
    else:
        assert t.stage_base.shape == (5, 20)
        assert t.stage_base.dtype == np.int32 and (t.stage_base.sum(axis=1) == 10).all()
        np.testing.assert_array_equal(t.base_dist,
                                      np.repeat(t.stage_base / 10, 100, axis=0)[:450])


@pytest.mark.parametrize("cfg", random_configs()[:8])
def test_run_trace_stores_integer_counts(cfg):
    # each round's histogram is kept as counts; realized_dist is counts / n,
    # bit for bit
    t = run(cfg)
    assert t.realized_counts.dtype == np.int32
    assert t.realized_counts.shape == (cfg.rounds, t.k)
    assert (t.realized_counts.sum(axis=1) == cfg.n).all()
    assert t.realized_dist.tobytes() == (t.realized_counts / cfg.n).tobytes()


def test_run_summary_text(small_run):
    text = small_run.summary_text()
    assert "final_distance=" in text
    assert "threshold=0.5\n" in text
    reached = small_run.rounds_to_threshold(0.5)
    assert f"rounds_to_threshold={'' if reached is None else reached}\n" in text
    assert "resolved_stage_len=100" in text


def test_run_with_churn_and_fixed_agents():
    cfg = RunConfig(
        n=20, rounds=400, explore=0.1, churn_rate=0.2,
        fixed_fraction=0.25, fixed_base=8, seed=1,
    )
    trace = run(cfg)
    assert trace.stages == 4
    # the five fixed agents pin at least a quarter of the mass near 8
    assert trace.stage_rho[-1][8] >= 0.2


def test_run_regret_learner_smoke():
    cfg = RunConfig(game="prisoners_dilemma", learner="regret", n=10,
                    rounds=2000, stage_len=100, target=1, seed=0)
    trace = run(cfg)
    assert trace.stages == 20
    # defect dominates, but the exploration floor keeps feeding cooperation:
    # with delta=0.05 the inflow delta/k balances the mu-damped outflow near
    # a quarter cooperators, so full defection is out of reach by design
    assert trace.stage_rho[-1][1] > 0.6
    assert np.mean([r[1] for r in trace.stage_rho[10:]]) < 0.9


def test_run_many_matches_sequential_and_preserves_order():
    cfgs = [RunConfig(n=10, rounds=400, explore=0.1, seed=s) for s in (5, 6)]
    seq = run_many(cfgs, threads=1)
    par = run_many(cfgs, threads=2)
    for a, b in zip(seq, par):
        assert a.config.seed == b.config.seed
        np.testing.assert_array_equal(a.realized_dist, b.realized_dist)
        np.testing.assert_array_equal(a.stage_distance, b.stage_distance)


@pytest.fixture
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_pool_map_keeps_order_and_deals_items_round_robin(three_cpus):
    # the lambda is inherited through the fork, never pickled
    out = list(pool_map(lambda x: (x * x, os.getpid()), range(7), 3))
    assert [v for v, _ in out] == [x * x for x in range(7)]
    pids = [pid for _, pid in out]
    assert pids == [pids[i % 3] for i in range(7)]  # item i from worker i mod 3
    assert len(set(pids)) == 3 and os.getpid() not in pids


def _killed_at_4(x):
    if x == 4:  # worker 1's second item, after it sent item 1
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _killed_mid_write(x):
    if x == 0:
        time.sleep(1.0)  # the parent waits for item 0 while worker 1 fills its pipe
    if x == 1:  # SIGALRM's default action ends the worker with its record half sent
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        return bytes(1 << 23)
    return x


@pytest.mark.parametrize("fn,item", [(_killed_at_4, 4), (_killed_mid_write, 1)])
def test_pool_map_names_the_item_of_a_killed_worker(three_cpus, fn, item):
    with pytest.raises(RuntimeError, match=f"item {item}: its worker died"):
        list(pool_map(fn, range(7), 3))


def _unpicklable_lock(x):
    return threading.Lock() if x == 5 else x


def _raises_unpicklable(x):
    if x == 5:
        raise ValueError(threading.Lock())
    return x


@pytest.mark.parametrize("fn", [_unpicklable_lock, _raises_unpicklable])
def test_pool_map_raises_a_result_or_error_it_cannot_pickle(three_cpus, fn):
    with pytest.raises(RuntimeError, match="item 5: its worker died or could not pickle it"):
        list(pool_map(fn, range(7), 3))


def test_pool_map_raises_the_first_failure_in_item_order(three_cpus):
    def fails(x):
        if x in (2, 4):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as info:
        list(pool_map(fails, range(7), 3))
    assert info.value.args == (2,)


def test_pool_map_yields_each_result_before_a_later_failure(three_cpus):
    def fails_at_4(x):
        if x == 4:
            raise ValueError(x)
        return x

    got = []
    with pytest.raises(ValueError):
        for value in pool_map(fails_at_4, range(7), 3):
            got.append(value)
    assert got == [0, 1, 2, 3]


def test_pool_map_runs_in_process_without_fork(three_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    out = list(pool_map(lambda x: (x, os.getpid()), range(7), 3))
    assert out == [(x, os.getpid()) for x in range(7)]


def test_pool_map_sizes_by_cpu_affinity_else_cpu_count(monkeypatch):
    # `taskset -c 0 anonlearn run --threads 2`: one CPU of the machine's many
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert list(pool_map(lambda x: os.getpid(), range(4), 2)) == [os.getpid()] * 4
    monkeypatch.delattr(os, "sched_getaffinity")  # as where the platform lacks it
    pids = list(pool_map(lambda x: os.getpid(), range(4), 2))
    assert len(set(pids)) == 2 and os.getpid() not in pids
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert list(pool_map(lambda x: os.getpid(), range(4), 2)) == [os.getpid()] * 4


# a fresh interpreter's pool of 3 whose second fork fails, and its fd count
SECOND_FORK_FAILS = ("import os\n"
                     "from anonlearn.engine import pool_map\n"
                     "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                     "fork, calls = os.fork, []\n"
                     "def second_fails():\n"
                     "    calls.append(None)\n"
                     "    if len(calls) == 2:\n"
                     "        raise BlockingIOError(11, 'Resource temporarily unavailable')\n"
                     "    return fork()\n"
                     "os.fork = second_fails\n"
                     "fds = len(os.listdir('/proc/self/fd'))\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_pool_map_failed_fork_leaks_no_fd_and_reaps_the_forked():
    # the second fork fails: its pipe is closed and the first worker reaped
    code = (SECOND_FORK_FAILS +
            "try:\n"
            "    list(pool_map(abs, range(7), 3))\n"
            "except BlockingIOError:\n"
            "    print('BlockingIOError')\n"
            "print(len(os.listdir('/proc/self/fd')) == fds)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no-child')\n")
    assert _fresh_python(code) == ["BlockingIOError", "True", "no-child"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_pool_map_forks_every_worker_when_called():
    # the second fork fails at the call itself, before any item is asked for
    code = (SECOND_FORK_FAILS +
            "try:\n"
            "    pool_map(abs, range(6), 3)\n"
            "except BlockingIOError:\n"
            "    print('BlockingIOError', len(calls))\n"
            "print(len(os.listdir('/proc/self/fd')) == fds)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no-child')\n")
    assert _fresh_python(code) == ["BlockingIOError", "2", "True", "no-child"]


def test_pool_map_leaves_no_child_after_success_failure_or_kill():
    code = ("import os, signal\n"
            "from anonlearn.engine import pool_map\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "def fail(x):\n"
            "    if x == 2:\n"
            "        raise ValueError(x)\n"
            "    return x\n"
            "def die(x):\n"
            "    if x == 4:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return x\n"
            "assert list(pool_map(abs, range(7), 3)) == list(range(7))\n"
            "for fn in (fail, die):\n"
            "    try:\n"
            "        list(pool_map(fn, range(7), 3))\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no-child')\n")
    assert _fresh_python(code) == ["ValueError", "RuntimeError", "no-child"]


def test_run_many_validates_threads():
    with pytest.raises(ValueError):
        run_many([RunConfig(n=10, rounds=400, explore=0.1)], threads=0)


def test_pool_size_clamps_to_cells_and_cpus():
    assert pool_size(8, 30, 2) == 2  # never more workers than CPUs
    assert pool_size(8, 3, 64) == 3  # nor than cells
    assert pool_size(2, 2, 2) == 2
    assert pool_size(8, 1, 2) == 1  # in-process
    assert pool_size(1, 30, 64) == 1
    assert pool_size(4, 0, 2) == 1
    with pytest.raises(ValueError):
        pool_size(0, 3, 2)


# ---------------------------------------------------------------------------
# stationary-environment runs


def test_run_stationary_exact_payoffs_move_bases_to_best_reply():
    game = ContributionGame()
    rho = MixedAction(8, 0.05).distribution(20)
    abr = best_reply_set(rho, 1.0, game)
    rng = np.random.default_rng(0)
    bases = [int(rng.integers(20)) for _ in range(50)]
    final = run_stationary(game, rho, bases, 0.05, 400, rounds=1200, seed=21)
    hits = sum(b in abr for b in final)
    assert hits >= 47  # three stages of exact payoffs pull ~everyone in


def test_run_stationary_is_per_learner_deterministic():
    game = prisoners_dilemma()
    rho = ActionDistribution.uniform(2)
    a = run_stationary(game, rho, [0, 0, 0], 0.2, 25, rounds=100, seed=5)
    b = run_stationary(game, rho, [0, 0, 0], 0.2, 25, rounds=100, seed=5)
    np.testing.assert_array_equal(a, b)
    # learner i's path depends on its own stream only
    assert run_stationary(game, rho, [0], 0.2, 25, rounds=100, seed=5)[0] == a[0]


def test_run_stationary_rejects_non_integer_bases():
    # [8.7, 3.2] was once played as bases [8, 3]
    game, rho = ContributionGame(), ActionDistribution.uniform(20)
    with pytest.raises(DimensionError, match="^bases: action 8.7 out of range for 20 actions$"):
        run_stationary(game, rho, [8.7, 3.2], 0.1, 10, rounds=20, seed=0)
