"""Command-line interface: exit codes, file layout, output formats."""

import argparse
import csv
import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anonlearn
from anonlearn import ConfigError, cli, config, engine, load_experiment
from anonlearn.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

TINY = """\
sim.n = 4
sim.rounds = 200
learner.explore = 0.1
sweep.seeds = 0 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# run


def test_run_writes_expected_files(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg), "--out", str(out)]) == EXIT_OK
    for seed in (0, 1):
        assert (out / f"run_n4_stage_seed{seed}.csv").is_file()
        assert (out / f"run_n4_stage_seed{seed}.summary.txt").is_file()
    assert (out / "aggregate.csv").is_file()
    assert not list(out.glob("*.tmp"))  # atomic writes leave no debris
    assert "2 run(s)" in capsys.readouterr().out


def test_run_aggregate_is_seed_mean(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    per_seed = []
    for seed in (0, 1):
        rows = _read_csv(out / f"run_n4_stage_seed{seed}.csv")
        # stage metrics repeat on every row of the stage; take stage starts
        per_seed.append([float(rows[s * 100]["distance"]) for s in range(2)])
    agg = _read_csv(out / "aggregate.csv")
    assert [r["stage"] for r in agg] == ["0", "1"]
    assert [r["end_round"] for r in agg] == ["100", "200"]
    for s, row in enumerate(agg):
        want = np.mean([d[s] for d in per_seed])
        assert abs(float(row["mean_distance"]) - want) < 1e-12


def test_run_seed_flag_forces_single_run(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg), "--out", str(out), "--seed", "5"]) == EXIT_OK
    assert (out / "run_n4_stage_seed5.csv").is_file()
    assert not (out / "run_n4_stage_seed0.csv").exists()


def test_run_builds_each_cell_once(tmp_path, monkeypatch):
    # a matrix grid reads its file whenever a game is built: once for the
    # base config and once per cell at load; each cell's run plays its
    # config's game
    calls = []
    real = config.build_game
    monkeypatch.setattr(config, "build_game", lambda *args: calls.append(args) or real(*args))
    monkeypatch.chdir(Path(__file__).parent / "golden")
    out = tmp_path / "out"
    assert main(["run", "--config", "matrix.cfg", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 3  # two cells, stage and regret


def test_run_reads_matrix_path_from_config_directory(tmp_path, monkeypatch):
    # matrix.cfg names its matrix file relative to its own directory, so it
    # runs by its full path from anywhere
    monkeypatch.chdir(tmp_path)
    cfg = Path(__file__).parent / "golden" / "matrix.cfg"
    assert main(["run", "--config", str(cfg), "--out", "out"]) == EXIT_OK
    assert (tmp_path / "out" / "aggregate.csv").exists()


def test_run_seed_builds_only_its_own_cells(tiny_cfg, tmp_path, monkeypatch):
    # the base config and the one seed-5 cell; not the file's seeds, nor run
    calls = []
    real = config.build_game
    monkeypatch.setattr(config, "build_game", lambda *args: calls.append(args) or real(*args))
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg), "--out", str(out), "--seed", "5"]) == EXIT_OK
    assert len(calls) == 2


def _fail_seed_one(monkeypatch, error):
    real = cli.run

    def second_fails(cfg):
        if cfg.seed == 1:
            raise error("cell failed")
        return real(cfg)

    monkeypatch.setattr(cli, "run", second_fails)


def test_failed_cell_keeps_finished_cells(tiny_cfg, tmp_path, monkeypatch, capsys):
    _fail_seed_one(monkeypatch, RuntimeError)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="cell failed"):
        main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    assert "failed cell: run_n4_stage_seed1" in capsys.readouterr().err
    assert (out / "run_n4_stage_seed0.csv").is_file()
    assert (out / "run_n4_stage_seed0.summary.txt").is_file()
    assert not (out / "aggregate.csv").exists()
    assert not list(out.glob("*.tmp"))


def test_failed_write_leaves_no_temp_file(tiny_cfg, tmp_path, monkeypatch, capsys):
    # a CSV writer that fails partway: its temp file is removed, nothing renamed
    def half_written(trace, path):
        Path(path).write_text("round,stage\r\n0,")
        raise OSError("disk full")

    monkeypatch.setattr(engine.RunTrace, "to_csv", half_written)
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_cfg), "--out", str(out)]) == EXIT_IO
    assert "failed cell: run_n4_stage_seed0\n" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("error,code", [(ValueError, EXIT_CONFIG), (OSError, EXIT_IO)])
def test_failed_cell_is_named(tiny_cfg, tmp_path, monkeypatch, capsys, threads, error, code):
    # a cell's error keeps its exit code, in-process and from a forked worker,
    # which sees the patched run
    _fail_seed_one(monkeypatch, error)
    out = tmp_path / "out"
    argv = ["run", "--config", str(tiny_cfg), "--out", str(out), "--threads", str(threads)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "failed cell: run_n4_stage_seed1\n" in err and "cell failed" in err
    assert (out / "run_n4_stage_seed0.csv").is_file()
    assert not (out / "aggregate.csv").exists()


def test_killed_worker_cell_is_named(tiny_cfg, tmp_path, monkeypatch, capsys):
    # seed 1's worker SIGKILLs itself; the parent names the cell and re-raises
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent, real = os.getpid(), cli.run

    def second_dies(cfg):
        if cfg.seed == 1:
            assert os.getpid() != parent  # never kill the test process itself
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cfg)

    monkeypatch.setattr(cli, "run", second_dies)
    out = tmp_path / "out"
    argv = ["run", "--config", str(tiny_cfg), "--out", str(out), "--threads", "2"]
    with pytest.raises(RuntimeError, match="item 1: its worker died"):
        main(argv)
    assert capsys.readouterr().err == "failed cell: run_n4_stage_seed1\n"
    assert (out / "run_n4_stage_seed0.csv").is_file()
    assert not (out / "aggregate.csv").exists()


def test_failed_fork_names_no_cell(tmp_path, monkeypatch, capsys):
    # the pool forks its workers when run calls it, outside the cell naming;
    # the second fork fails after the first worker may have run its cell
    cfg = tmp_path / "three.cfg"
    cfg.write_text(TINY.replace("sweep.seeds = 0 1", "sweep.seeds = 0 1 2"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    fork, calls = os.fork, []

    def second_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fails)
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--out", str(out), "--threads", "3"]
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "failed cell" not in err
    assert not (out / "aggregate.csv").exists()


def test_run_zero_threads_is_a_config_error_not_a_failed_cell(tiny_cfg, tmp_path, capsys):
    argv = ["run", "--config", str(tiny_cfg), "--out", str(tmp_path / "out"), "--threads", "0"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: threads: must be in [1, inf), got 0\n"


SLOW = """\
sim.n = 100
sim.rounds = 6000
learner.explore = 0.1
sweep.seeds = 0 1 2 3 4 5 6 7 8 9 10 11
"""


def test_failed_cell_cancels_queued_cells(tmp_path, monkeypatch, capsys):
    # at 2 threads as in-process, the cells behind a failed one do not run: its
    # worker stops at the failure, and the other ends at its next write once
    # the parent has read it; each cell takes long enough that the failure is
    # read early
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SLOW)
    _fail_seed_one(monkeypatch, ValueError)
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--out", str(out), "--threads", "2"]
    assert main(argv) == EXIT_CONFIG
    assert "failed cell: run_n100_stage_seed1\n" in capsys.readouterr().err
    assert (out / "run_n100_stage_seed0.csv").is_file()
    # seed 0 and the cells the other worker finished or was running when the
    # failure was read; not all 11
    assert len(list(out.glob("*.csv"))) <= 7
    assert not (out / "aggregate.csv").exists()


def test_run_is_reproducible_across_threads(tiny_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(tiny_cfg), "--out", str(out1), "--threads", "1"])
    main(["run", "--config", str(tiny_cfg), "--out", str(out2), "--threads", "2"])
    for name in ("run_n4_stage_seed0.csv", "run_n4_stage_seed1.csv", "aggregate.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sim.n = 4\nsim.flavor = vanilla\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sim.flavor" in err and "bad.cfg:2" in err


def test_run_bad_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learner.explore = 0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "text,key",
    [
        ("game.kind = prisoners_dilemma\n", "target"),  # default target 8 of 2 actions
        ("sim.fixed_base = 25\n", "fixed_base"),
        ("sim.churn_rate = 0.1\nsim.fixed_fraction = 1.0\n", "churn_rate"),
        ("learner.kind = regret\nlearner.mu = nan\n", "mu"),
        ("game.kind = climbing\nsim.target = 0\ngame.penalty_n = -1\n", "penalty_n"),
    ],
)
def test_run_rejects_bad_config_at_load(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY + text)
    with pytest.raises(ConfigError, match=f"{key}: "):
        load_experiment(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{key}: " in capsys.readouterr().err


def test_run_missing_config_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == EXIT_IO
    assert "io error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command set


def test_commands_are_run_analyze_gnuplot(tiny_cfg, tmp_path, capsys):
    # run is the one command that runs a config's grid; sweep is unknown
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["analyze", "gnuplot", "run"]
    args = parser.parse_args(["run", "--config", str(tiny_cfg)])
    assert (args.out, args.threads, args.seed) == ("out", 1, None)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(tiny_cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_brs_contribution(capsys):
    assert main(["analyze", "--mode", "brs"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "step 0:" in out
    assert "converged: fixed point at step" in out
    assert "support [8]" in out
    assert "eta-nash (eta=0.0): True" in out


def test_analyze_nash(capsys):
    rho = ",".join(["0"] * 8 + ["1"] + ["0"] * 11)
    assert main(["analyze", "--mode", "nash", "--rho", rho]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eta-nash (eta=0.0): True" in out
    assert "ABR_eta(rho) = [8]" in out


def test_analyze_nan_eta_exits_2(capsys):
    # NaN is no slack: both modes reject it instead of printing an empty set
    rho = ",".join(["0"] * 8 + ["1"] + ["0"] * 11)
    for mode in (["nash", "--rho", rho], ["brs"]):
        assert main(["analyze", "--eta", "nan", "--mode", *mode]) == EXIT_CONFIG
        assert "eta: must be in [0, inf], got nan" in capsys.readouterr().err


def test_analyze_has_no_payoff_mode(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "--payoff-mode", "matching"])


def test_analyze_nash_requires_rho(capsys):
    assert main(["analyze", "--mode", "nash"]) == EXIT_CONFIG
    assert "--rho" in capsys.readouterr().err


def test_analyze_rho_validation(capsys):
    assert main(["analyze", "--mode", "nash", "--rho", "0.5,0.5"]) == EXIT_CONFIG
    assert "expected 20 weights" in capsys.readouterr().err
    assert main(["analyze", "--mode", "nash", "--rho", "a,b"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["analyze", "--mode", "nash", "--rho", " ".join(["0.1"] * 20)]) == EXIT_CONFIG
    assert "--rho: weights sum to" in capsys.readouterr().err


def test_analyze_lipschitz(capsys):
    assert main(["analyze", "--mode", "lipschitz", "--samples", "50"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "declared K: 361.0" in out
    assert "sampled lower bound" in out


def test_analyze_matrix_game(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("3 0\n5 1\n")
    assert main(["analyze", "--game", "matrix", "--matrix", str(m), "--mode", "brs"]) == EXIT_OK
    assert "support [1]" in capsys.readouterr().out


def test_analyze_matrix_requires_path(capsys):
    assert main(["analyze", "--game", "matrix"]) == EXIT_CONFIG
    assert "matrix_path" in capsys.readouterr().err


def test_analyze_matrix_path_needs_matrix_game(tmp_path, capsys):
    m = tmp_path / "m.txt"
    m.write_text("3 0\n5 1\n")
    assert main(["analyze", "--game", "climbing", "--matrix", str(m)]) == EXIT_CONFIG
    assert "matrix_path" in capsys.readouterr().err


def test_analyze_missing_matrix_exits_3(tmp_path):
    assert main(["analyze", "--game", "matrix", "--matrix", str(tmp_path / "no.txt")]) == EXIT_IO


# ---------------------------------------------------------------------------
# gnuplot


def test_gnuplot_pivots_aggregate(tiny_cfg, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    dat = tmp_path / "plot.dat"
    assert main(["gnuplot", "--aggregate", str(out / "aggregate.csv"), "--out", str(dat)]) == EXIT_OK
    lines = dat.read_text().strip().splitlines()
    assert lines[0] == "# end_round mean_distance_n4_stage"
    assert len(lines) == 3  # header + 2 stages
    round_col, value = lines[1].split()
    assert round_col == "100"
    agg = _read_csv(out / "aggregate.csv")
    assert value == agg[0]["mean_distance"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_honour_the_umask(umask, mode, tiny_cfg, tmp_path):
    # each file is written to a mkstemp file (always 0600) and renamed, so it
    # gets the mode open() would have given it
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["run", "--config", str(tiny_cfg), "--out", str(out)]) == EXIT_OK
        agg, dat = str(out / "aggregate.csv"), str(out / "plot.dat")
        assert main(["gnuplot", "--aggregate", agg, "--out", dat]) == EXIT_OK
    finally:
        os.umask(old)
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in out.iterdir()}
    assert len(modes) == 6  # two CSVs, two summaries, the aggregate, the .dat
    assert modes == dict.fromkeys(modes, oct(mode))


def test_gnuplot_unknown_metric_exits_2(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    code = main(["gnuplot", "--aggregate", str(out / "aggregate.csv"),
                 "--out", str(tmp_path / "p.dat"), "--metric", "speed"])
    assert code == EXIT_CONFIG
    assert "--metric" in capsys.readouterr().err


def test_gnuplot_mismatched_rounds_exit_2(tmp_path, capsys):
    # every column is labelled with one end_round axis, so the series must
    # share it: neither a shorter series nor one at other rounds is pivoted,
    # and an aggregate with no rows has no axis at all
    for other in ((250, 500, 750), (250, 500)):
        agg = tmp_path / "aggregate.csv"
        rows = [(10, r, 0.5) for r in (400, 800)] + [(100, r, 0.25) for r in other]
        agg.write_text("n,learner,end_round,mean_distance\n"
                       + "".join(f"{n},stage,{r},{v}\n" for n, r, v in rows))
        dat = tmp_path / "p.dat"
        assert main(["gnuplot", "--aggregate", str(agg), "--out", str(dat)]) == EXIT_CONFIG
        assert "unequal stage counts" in capsys.readouterr().err
        assert not dat.exists()
    agg.write_text("n,learner,end_round,mean_distance\n")
    assert main(["gnuplot", "--aggregate", str(agg), "--out", str(dat)]) == EXIT_CONFIG
    assert "no data rows" in capsys.readouterr().err
    assert not dat.exists()


def test_gnuplot_missing_aggregate_exits_3(tmp_path):
    code = main(["gnuplot", "--aggregate", str(tmp_path / "no.csv"),
                 "--out", str(tmp_path / "p.dat")])
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# packaging


def _fresh_python(*args):
    """A fresh interpreter run on args, importing the package this suite
    imported, installed or not; a warning is an error there, as it is here."""
    src = str(Path(anonlearn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"})


def test_module_entry_point():
    proc = _fresh_python("-m", "anonlearn", "analyze", "--mode", "lipschitz", "--samples", "10")
    assert proc.returncode == EXIT_OK
    assert "declared K" in proc.stdout


def test_main_freezes_the_heap_it_starts_with(tiny_cfg, tmp_path):
    # so that exit's collections skip numpy and the package
    out = tmp_path / "out"
    code = ("import gc, sys\n"
            "from anonlearn import cli\n"
            "rc = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(rc, gc.get_freeze_count())\n")
    proc = _fresh_python("-c", code, str(tiny_cfg), str(out))
    assert proc.returncode == 0, proc.stderr
    rc, frozen = map(int, proc.stdout.splitlines()[-1].split())
    assert rc == EXIT_OK
    assert sorted(f.name for f in out.iterdir()) == [
        "aggregate.csv", "run_n4_stage_seed0.csv", "run_n4_stage_seed0.summary.txt",
        "run_n4_stage_seed1.csv", "run_n4_stage_seed1.summary.txt"]
    assert frozen > 0


def test_library_runs_leave_the_collector_alone(tiny_cfg):
    # only the CLI entry freezes; run_many and its forked pool do not
    cfgs = load_experiment(str(tiny_cfg))
    frozen = gc.get_freeze_count()
    assert len(engine.run_many(cfgs, threads=2)) == 2
    assert gc.get_freeze_count() == frozen
