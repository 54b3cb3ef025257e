"""Experiment runner CLI: runs of a config's grid, and quick analyses.

Exit codes: 0 ok, 2 config error, 3 IO error; other errors propagate (exit 1).
A cell that stops a grid, by raising, by a dead worker or by a record that
cannot be pickled, is named on stderr first (`failed cell: <stem>`).  Each cell
writes its files as it finishes, through temp names, so none is half-written.
"""

from __future__ import annotations

import argparse
import csv
import gc
import inspect
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_experiment
from .core import ActionDistribution, estimate_lipschitz
from .dynamics import BR_RULES, best_reply_set, br_sequence, is_eta_nash
from .engine import pool_map, run
from .games import GAME_KINDS, build_game

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _atomic_write(path: Path, write_to):
    """write_to(tmp_path) then rename onto path, which gets the mode open() would
    give it under the umask (mkstemp makes its file 0600)."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        os.umask(mask := os.umask(0))  # reading the umask sets it; this restores it
        os.chmod(tmp, 0o666 & ~mask)
        write_to(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stem(cfg) -> str:
    """A cell's file stem, which also names it when it fails."""
    return f"run_n{cfg.n}_{cfg.learner}_seed{cfg.seed}"


def _run_cell(cfg, outdir: Path) -> tuple[np.ndarray, np.ndarray]:
    """Run one cell of a grid and write its CSV and summary into outdir;
    return the stage metrics the aggregate needs."""
    trace = run(cfg)
    name = _stem(cfg)
    _atomic_write(outdir / f"{name}.csv", trace.to_csv)
    summary = trace.summary_text()
    _atomic_write(
        outdir / f"{name}.summary.txt",
        lambda tmp: Path(tmp).write_text(summary, encoding="utf-8"),
    )
    return trace.stage_distance, trace.stage_br_fraction


def _write_aggregate(path: Path, cells, metrics):
    """Mean distance / best-reply fraction per stage, averaged over seeds."""
    groups: dict = {}
    for cfg, m in zip(cells, metrics):
        groups.setdefault((cfg.n, cfg.learner), (cfg.resolved_stage_len, []))[1].append(m)

    def writer(tmp):
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "learner", "stage", "end_round", "mean_distance", "mean_br_fraction"])
            for (n, kind), (tau, ms) in sorted(groups.items()):
                dist = np.mean([d for d, _ in ms], axis=0)
                brf = np.mean([b for _, b in ms], axis=0)
                for s in range(dist.size):
                    w.writerow(
                        [n, kind, s, (s + 1) * tau, repr(float(dist[s])), repr(float(brf[s]))]
                    )

    _atomic_write(path, writer)


def cmd_run(args) -> int:
    """Run every cell, each writing its own files as it finishes (so a failed
    cell leaves the finished ones in place), then write aggregate.csv."""
    cells = load_experiment(args.config, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    results = pool_map(lambda cfg: _run_cell(cfg, outdir), cells, args.threads)
    metrics = []
    try:
        for m in results:
            metrics.append(m)
    except Exception:  # a cell raised, its worker died or its record would not pickle
        print(f"failed cell: {_stem(cells[len(metrics)])}", file=sys.stderr)
        raise
    _write_aggregate(outdir / "aggregate.csv", cells, metrics)
    print(f"wrote {len(cells)} run(s) and aggregate.csv to {outdir}")
    return EXIT_OK


def _parse_rho(text: str, k: int) -> ActionDistribution:
    try:
        weights = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--rho: expected numbers, got {text!r}") from None
    if len(weights) != k:
        raise ConfigError(f"--rho: expected {k} weights, got {len(weights)}")
    try:
        return ActionDistribution(weights)
    except ValueError as exc:
        raise ConfigError(f"--rho: {exc}") from None


def cmd_analyze(args) -> int:
    game = build_game(args.game, args.penalty_n, args.matrix)
    if args.mode == "lipschitz":
        est = estimate_lipschitz(game, samples=args.samples, rng_seed=args.seed)
        print(f"declared K: {game.lipschitz!r}")
        print(f"sampled lower bound ({args.samples} pairs): {est!r}")
        return EXIT_OK
    if args.mode == "nash":
        if args.rho is None:
            raise ConfigError("--rho is required for --mode nash")
        rho = _parse_rho(args.rho, game.k)
        ok = is_eta_nash(rho, args.eta, game)
        abr = sorted(best_reply_set(rho, args.eta, game))
        print(f"eta-nash (eta={args.eta}): {ok}")
        print(f"ABR_eta(rho) = {abr}")
        return EXIT_OK
    # brs
    rho0 = _parse_rho(args.rho, game.k) if args.rho else ActionDistribution.uniform(game.k)
    seq = br_sequence(rho0, args.eta, game, max_steps=args.max_steps, rule=args.rule)
    for t, rho in enumerate(seq.steps):
        print(f"step {t}: {np.array2string(rho.weights, precision=4, suppress_small=True)}")
    if seq.converged:
        final = seq.steps[seq.fixed_point_index]
        support = [int(a) for a in final.support()]
        print(f"converged: fixed point at step {seq.fixed_point_index}, support {support}")
        print(f"fixed point is an eta-nash (eta={args.eta}): {is_eta_nash(final, args.eta, game)}")
    else:
        print(f"did not converge within {args.max_steps} steps")
    return EXIT_OK


def cmd_gnuplot(args) -> int:
    """Pivot an aggregate.csv into gnuplot columns: end_round, then one
    metric column per (n, learner)."""
    series: dict = {}
    rounds: dict = {}
    with open(args.aggregate, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or args.metric not in reader.fieldnames:
            raise ConfigError(f"--metric: {args.metric!r} not a column of {args.aggregate}")
        for row in reader:
            key = (int(row["n"]), row["learner"])
            series.setdefault(key, []).append(float(row[args.metric]))
            rounds.setdefault(key, []).append(int(row["end_round"]))
    if not series:
        raise ConfigError(f"{args.aggregate}: no data rows")
    keys = sorted(series)
    axis = rounds[keys[0]]
    if any(rounds[key] != axis for key in keys):
        raise ConfigError(f"{args.aggregate}: series have unequal stage counts or end rounds")

    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            names = " ".join(f"{args.metric}_n{n}_{kind}" for n, kind in keys)
            fh.write(f"# end_round {names}\n")
            for i, r in enumerate(axis):
                cols = " ".join(repr(series[key][i]) for key in keys)
                fh.write(f"{r} {cols}\n")

    _atomic_write(Path(args.out), writer)
    print(f"wrote {args.out}")
    return EXIT_OK


def _default(fn, param: str):
    """fn's own default for param, so that a flag does not restate it."""
    return inspect.signature(fn).parameters[param].default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anonlearn",
        description="Population learning experiments: run, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the runs a config describes")
    p_run.add_argument("--config", required=True, help="experiment config file")
    p_run.add_argument("--out", default="out", help="output directory (default: %(default)s)")
    p_run.add_argument("--threads", type=int, default=1, help="parallel runs (default: %(default)s)")
    p_run.add_argument("--seed", type=int, default=None, help="force a single master seed")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="best-reply sequences, eta-Nash, Lipschitz")
    p_an.add_argument("--game", default=RunConfig.game, choices=GAME_KINDS)
    p_an.add_argument("--matrix", default=None, help="matrix file for --game matrix")
    p_an.add_argument("--penalty-n", type=int, default=RunConfig.penalty_n, dest="penalty_n")
    p_an.add_argument("--mode", default="brs", choices=("brs", "nash", "lipschitz"))
    p_an.add_argument("--eta", type=float, default=0.0)
    p_an.add_argument("--rho", default=None, help="comma/space-separated weights")
    p_an.add_argument("--rule", default=_default(br_sequence, "rule"), choices=BR_RULES)
    p_an.add_argument("--max-steps", type=int, default=_default(br_sequence, "max_steps"),
                      dest="max_steps")
    p_an.add_argument("--samples", type=int, default=_default(estimate_lipschitz, "samples"),
                      help="pairs for lipschitz mode")
    p_an.add_argument("--seed", type=int, default=_default(estimate_lipschitz, "rng_seed"))
    p_an.set_defaults(func=cmd_analyze)

    p_gp = sub.add_parser("gnuplot", help="pivot an aggregate.csv for gnuplot")
    p_gp.add_argument("--aggregate", required=True, help="aggregate.csv from run")
    p_gp.add_argument("--out", required=True, help="output .dat path")
    p_gp.add_argument("--metric", default="mean_distance")
    p_gp.set_defaults(func=cmd_gnuplot)

    return parser


def main(argv=None) -> int:
    """Run one command after gc.freeze(): the collections at exit and in forked
    workers skip the heap alive then (numpy, the package), and an in-process
    caller's objects alive then stay frozen, never collected."""
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
