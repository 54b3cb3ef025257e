"""Acceptance suite: the eleven headline behaviors, one test and one report
line each.  Heavier than the unit tests (about 15 s on 2 CPUs); the
batches are shared across criteria through session fixtures."""

import math
import time

import numpy as np
import pytest

from anonlearn import (
    ActionDistribution,
    CloseWitness,
    ContributionGame,
    MatrixGame,
    MixedAction,
    RunConfig,
    best_reply_set,
    br_sequence,
    climbing_game,
    close_l1_bound,
    is_eta_nash,
    l1_distance,
    mixed_profile_distribution,
    prisoners_dilemma,
    pure_profile_distribution,
    run,
    run_many,
    run_stationary,
    verify_close,
)
from anonlearn.cli import main

THREADS = 8

FIG1 = dict(game="contribution", mode="meanfield", explore=0.05, stage_len=250,
            rounds=3000, n=100, target=8)


def _mean_final(traces):
    return float(np.mean([t.final_distance for t in traces]))


@pytest.fixture(scope="module")
def fig1_traces():
    cfgs = [RunConfig(seed=s, **FIG1) for s in range(10)]
    return run_many(cfgs, threads=THREADS)


@pytest.fixture(scope="module")
def fig1_single_run_seconds():
    t0 = time.perf_counter()
    run(RunConfig(seed=0, **FIG1))
    return time.perf_counter() - t0


def test_criterion_1_meanfield_figure(fig1_traces, fig1_single_run_seconds, acceptance_report):
    mean = _mean_final(fig1_traces)
    secs = fig1_single_run_seconds
    ok = mean < 0.5 and secs < 10.0
    acceptance_report(
        f"criterion 1 (mean-field contribution): {'PASS' if ok else 'FAIL'} "
        f"mean final distance {mean:.3f} (< 0.5), {secs:.2f} s/seed (< 10)"
    )
    assert mean < 0.5
    assert secs < 10.0


def test_criterion_2_population_ordering(fig1_traces, acceptance_report):
    inversions = 0
    batch_lines = []
    for batch, lo in enumerate((0, 10, 20)):
        means = []
        for n in (2, 10, 100):
            if batch == 0 and n == 100:
                traces = fig1_traces  # identical config and seeds
            else:
                cfgs = [RunConfig(seed=s, n=n, **{k: v for k, v in FIG1.items() if k != "n"})
                        for s in range(lo, lo + 10)]
                traces = run_many(cfgs, threads=THREADS)
            means.append(_mean_final(traces))
        inversions += sum(means[i + 1] > means[i] for i in range(2))
        batch_lines.append("/".join(f"{m:.2f}" for m in means))
    ok = inversions <= 1
    acceptance_report(
        f"criterion 2 (population ordering): {'PASS' if ok else 'FAIL'} "
        f"n=2/10/100 means {'; '.join(batch_lines)}, {inversions} inversion(s) (<= 1)"
    )
    assert inversions <= 1


# Matching-mode payoffs are single samples, so the over-contribution penalty
# must dominate a lucky draw; penalty_n=200 keeps it dominated.
FIG2 = dict(game="contribution", penalty_n=200, mode="matching", explore=0.01,
            stage_len=2000, rounds=30000)


@pytest.fixture(scope="module")
def fig2_traces():
    return run_many([RunConfig(n=100, seed=s, **FIG2) for s in range(10)], threads=THREADS)


def test_criterion_3_matching_figure(fig2_traces, fig1_traces, acceptance_report):
    mean = _mean_final(fig2_traces)
    cross3 = [t.rounds_to_threshold(1.5) for t in fig2_traces]
    cross1 = [t.rounds_to_threshold(0.5) for t in fig1_traces]
    crossed = None not in cross3 and None not in cross1
    mean3 = float(np.mean(cross3)) if crossed else float("nan")
    mean1 = float(np.mean(cross1)) if crossed else float("nan")
    ok = mean < 1.5 and crossed and mean3 >= 2.0 * mean1
    acceptance_report(
        f"criterion 3 (random-matching contribution): {'PASS' if ok else 'FAIL'} "
        f"mean final distance {mean:.3f} (< 1.5), convergence round {mean3:.0f} "
        f"vs mean-field {mean1:.0f}"
    )
    assert mean < 1.5
    assert crossed
    assert mean3 >= 2.0 * mean1  # "noticeably later"


def test_criterion_4_stationary_stage_learning(acceptance_report):
    game = ContributionGame()
    rho = MixedAction(8, 0.05).distribution(20)
    abr = best_reply_set(rho, 1.0, game)
    bases = run_stationary(game, rho, [8] * 1000, explore=0.05, stage_len=250, rounds=250,
                           seed=41)
    hits = sum(b in abr for b in bases)
    ok = hits >= 950
    acceptance_report(
        f"criterion 4 (stationary best-reply learning): {'PASS' if ok else 'FAIL'} "
        f"{hits}/1000 bases in ABR_1.0 (>= 950)"
    )
    assert hits >= 950


def _random_close_pair(rng, n, k, e, eps):
    """A witness satisfying the closeness definition by construction."""
    g = rng.integers(k, size=n)
    gprime = g.copy()
    flips = rng.choice(n, size=int(e * n), replace=False)
    gprime[flips] = rng.integers(k, size=flips.size)
    rate = float(eps if rng.random() < 0.1 else rng.uniform(0.0, eps))
    ghat = tuple(MixedAction(int(a), rate) for a in gprime)
    w = CloseWitness(g=tuple(g), gprime=tuple(gprime), ghat=ghat, e=e, eps=eps)
    rho = pure_profile_distribution(w.g, k)
    rhohat = mixed_profile_distribution(w.ghat, k)
    return w, rho, rhohat


def test_criterion_5_closeness_l1_bound(acceptance_report):
    rng = np.random.default_rng(2024)
    trials, violations = 10_000, 0
    for _ in range(trials):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(2, 21))
        e = float(rng.uniform(0.0, 0.5))
        eps = float(rng.uniform(0.0, 0.5))
        w, rho, rhohat = _random_close_pair(rng, n, k, e, eps)
        if not verify_close(w, rho, rhohat):
            violations += 1
        elif l1_distance(rho, rhohat) > close_l1_bound(e, eps) + 1e-9:
            violations += 1
    ok = violations == 0
    acceptance_report(
        f"criterion 5 (closeness L1 bound): {'PASS' if ok else 'FAIL'} "
        f"{violations}/{trials} violations of l1 <= 2(e+eps)"
    )
    assert violations == 0


def test_criterion_6_abr_containment(acceptance_report):
    rng = np.random.default_rng(99)
    cases = [(prisoners_dilemma(), 2.0), (ContributionGame(), 40.0)]
    trials_per_game, violations = 500, 0
    for game, eta in cases:
        d = eta / (8.0 * game.lipschitz)
        k, n = game.k, 200
        for _ in range(trials_per_game):
            e = float(rng.uniform(0.0, d))
            eps = float(rng.uniform(0.0, d - e))
            w, rho, rhohat = _random_close_pair(rng, n, k, e, eps)
            assert verify_close(w, rho, rhohat)
            if not best_reply_set(rhohat, eta / 2.0, game) <= best_reply_set(rho, eta, game):
                violations += 1
    ok = violations == 0
    acceptance_report(
        f"criterion 6 (best-reply containment): {'PASS' if ok else 'FAIL'} "
        f"{violations}/{2 * trials_per_game} violations of "
        f"ABR_eta/2(noisy) within ABR_eta(clean)"
    )
    assert violations == 0


def test_criterion_7_best_reply_oracle(acceptance_report):
    game = ContributionGame()
    seq = br_sequence(ActionDistribution.uniform(20), 0.0, game)
    fixed = seq.converged and seq.fixed_point_index <= 2
    at_eight = seq.steps[seq.fixed_point_index] == ActionDistribution.point_mass(8, 20)
    nash = is_eta_nash(seq.steps[seq.fixed_point_index], 0.0, game)
    cycle = br_sequence(
        ActionDistribution.point_mass(0, 2), 0.0, MatrixGame([[-1.0, 1.0], [1.0, -1.0]]),
        max_steps=20,
    )
    ok = fixed and at_eight and nash and not cycle.converged
    acceptance_report(
        f"criterion 7 (best-reply dynamics oracle): {'PASS' if ok else 'FAIL'} "
        f"uniform -> all-8 in {seq.fixed_point_index} step(s), 0-nash {nash}, "
        f"cycle converged={cycle.converged}"
    )
    assert fixed and at_eight and nash
    assert not cycle.converged


def test_criterion_8_regret_comparison(fig1_traces, acceptance_report):
    cfgs = [RunConfig(seed=s, learner="regret", **FIG1) for s in range(10)]
    regret_mean = _mean_final(run_many(cfgs, threads=THREADS))
    stage_mean = _mean_final(fig1_traces)
    ok = regret_mean >= stage_mean
    acceptance_report(
        f"criterion 8 (regret-matching comparison): {'PASS' if ok else 'FAIL'} "
        f"regret final {regret_mean:.3f} >= stage final {stage_mean:.3f}"
    )
    assert regret_mean >= stage_mean


def test_criterion_9_determinism(tmp_path, acceptance_report):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "game.kind = contribution\n"
        "learner.explore = 0.05\n"
        "learner.stage_len = 250\n"
        "sim.n = 100\n"
        "sim.rounds = 3000\n"
        "sweep.seeds = 0 1\n"
    )
    outs = [tmp_path / d for d in ("serial", "parallel", "again")]
    for out, threads in zip(outs, ("1", "8", "1")):
        code = main(["run", "--config", str(cfg), "--out", str(out), "--threads", threads])
        assert code == 0
    names = ["run_n100_stage_seed0.csv", "run_n100_stage_seed1.csv", "aggregate.csv"]
    identical = all(
        (outs[0] / name).read_bytes()
        == (outs[1] / name).read_bytes()
        == (outs[2] / name).read_bytes()
        for name in names
    )
    acceptance_report(
        f"criterion 9 (determinism): {'PASS' if identical else 'FAIL'} "
        f"byte-identical CSVs across reruns at 1 and 8 threads"
    )
    assert identical


def _climbing_final_bases(explore, n, seeds):
    """stage_base[-1] of each climbing-game run of 30 stages of ceil(1/eps**2)
    rounds, target 0 (the optimal equilibrium)."""
    rounds = 30 * math.ceil(1.0 / explore**2)
    cfgs = [RunConfig(game="climbing", target=0, explore=explore, rounds=rounds, n=n, seed=s)
            for s in seeds]
    return [t.stage_base[-1] for t in run_many(cfgs, threads=THREADS)]


def test_criterion_10_population_selects_equilibrium(acceptance_report):
    # eps = 0.05, 100 seeds: runs whose bases are all on the optimum, action 0
    # (18/3/0 at n = 4/10/30 when sized; 8 is 2.6 binomial sd below 18)
    on_zero = {n: sum(int(row[0] == n) for row in _climbing_final_bases(0.05, n, range(100)))
               for n in (4, 10, 30)}
    # eps = 0.2, 20 seeds: the majority base (19/20 on 1 at n = 10, 20/20 on 2 at n = 10**3)
    majority = {n: np.bincount([np.argmax(row) for row in _climbing_final_bases(0.2, n, range(20))],
                               minlength=3) for n in (10, 1000)}
    game, all_two = climbing_game(), ActionDistribution.point_mass(2, 3)
    nash = (is_eta_nash(all_two, 1.0, game), is_eta_nash(all_two, 0.0, game))
    ok = (on_zero[4] >= 8 and on_zero[30] <= 1 and majority[10][1] >= 16
          and majority[1000][2] >= 16 and nash == (True, False))
    acceptance_report(
        f"criterion 10 (population size selects the equilibrium): {'PASS' if ok else 'FAIL'} "
        f"eps=0.05 all-0 runs n=4/10/30 {on_zero[4]}/{on_zero[10]}/{on_zero[30]} of 100 "
        f"(n=4 >= 8, n=30 <= 1); eps=0.2 majority 1 at n=10 {majority[10][1]}/20, "
        f"majority 2 at n=1000 {majority[1000][2]}/20 (>= 16); all-2 1-nash {nash[0]}, "
        f"0-nash {nash[1]}"
    )
    assert on_zero[4] >= 8 and on_zero[30] <= 1
    assert majority[10][1] >= 16 and majority[1000][2] >= 16
    assert nash == (True, False)


def test_criterion_11_matching_more_agents_stop_helping(fig2_traces, acceptance_report):
    means = {n: _mean_final(run_many([RunConfig(n=n, seed=s, **FIG2) for s in seeds],
                                     threads=THREADS))
             for n, seeds in ((2, range(10)), (10, range(10)), (1000, range(3)))}
    means[100] = _mean_final(fig2_traces)
    # 0.2 is about three standard errors of the difference of the two means
    # (per-seed sd 0.20 over 10 seeds at n = 100, 0.05 over 3 at n = 1000)
    ok = means[1000] >= means[100] - 0.2
    acceptance_report(
        f"criterion 11 (matching: more agents stop helping): {'PASS' if ok else 'FAIL'} "
        f"mean final distance n=1000 {means[1000]:.3f} >= n=100 {means[100]:.3f} - 0.2; "
        f"n=2/10/100 {means[2]:.3f}/{means[10]:.3f}/{means[100]:.3f}"
    )
    assert means[1000] >= means[100] - 0.2
