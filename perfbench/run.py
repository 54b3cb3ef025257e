"""The anonlearn benchmark.

Runs one workload through the public CLI path (``load_experiment`` ->
``run_many`` -> ``RunTrace.to_csv``/``summary_text`` -> ``aggregate.csv``),
each iteration in a fresh process, for about ``--seconds`` seconds, and checks
every output file byte for byte.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (cells) and
``metrics`` -- the end-to-end metrics (speed-scaled means over iterations) with
``--trace 0``; with ``--trace 1`` (which ignores ``--seconds``) one untraced
and one traced iteration, and the per-layer metrics of the traced one.

    python3 perfbench/run.py --workload fig1_meanfield_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --record     # rewrite perfbench/digests.json

Correctness.  At the default seed every per-cell CSV, ``.summary.txt`` and
``aggregate.csv`` must match the sha256 in ``digests.json``, recorded with one
worker.  Another seed shifts every master seed of the workload by
``seed * SEED_STRIDE``; no digests exist for it, so the first iteration's
``rho_*``/``base_*`` rows must each sum to 1, every later iteration must
reproduce its bytes, and a pooled workload reruns its first cell with one
worker, which must give the same bytes.  A traced iteration must give the
same bytes as the untraced one.  A cell whose files are missing or differ
counts in ``failed``; any failure makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import METRICS, per_layer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SEED_STRIDE = 1000
SETUP_PROBES = 8  # set-up-only processes per run, besides each iteration's own
HARD_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says
# Seconds the calibration kernel takes on the reference CPU (a quiet phase of
# a 2-vCPU Xeon VM).  Times are reported at that speed; see calibrate().
REF_CAL_S = 0.1
CAL_EVERY_S = 1.0  # running time between two calibrations of a launch
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    threads: int
    cli_seed: bool = False  # run one master seed of the grid (anonlearn run --seed)


WORKLOADS = {
    # The paper's headline grid, bundled config unchanged, one master seed
    # per process (n = 2, 10, 100): per-agent act/observe dispatch and CSV
    # writing dominate.  The whole 30-cell grid takes 10-19 s here, too long
    # for a run to hold enough iterations.
    "fig1_meanfield_grid": Workload("configs/fig1_average.cfg", 1, cli_seed=True),
    # The only workload on the process-pool path; ships 3.2 MB per RunTrace.
    "fig2_matching_pool": Workload("perfbench/workloads/fig2_matching_pool.cfg", 2),
    # The only workload whose time goes to RegretMatcher.act/observe.
    "regret_meanfield": Workload("perfbench/workloads/regret_meanfield.cfg", 1),
    # n=10000 with fixed agents and churn: O(n) set-up and per-round glue.
    "large_n_churn": Workload("perfbench/workloads/large_n_churn.cfg", 1),
}

END_TO_END = {
    "wall_ref_s": "s",
    "agent_rounds_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-launch samples, printed with their quartiles above the result: raw
# times, the same at the reference speed, and the launch's mean calibration.
SAMPLES = (("wall_s", "s"), ("wall_ref_s", "s"), ("agent_rounds_per_s", "1/s"),
           ("run_ref_s", "s"), ("setup_raw_s", "s"), ("setup_s", "s"), ("cal_s", "s"),
           ("peak_rss_mb", "MB"))


class ProgramBroken(RuntimeError):
    """anonlearn cannot even be imported and configured from this checkout."""


# -- workload configs ----------------------------------------------------------


def config_values(text: str) -> dict:
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def shift_seeds(text: str, shift: int) -> str:
    """The config text with every master seed moved up by shift."""
    out, seen = [], False
    for raw in text.splitlines():
        key, sep, val = raw.partition("=")
        if sep and key.strip() in ("sweep.seeds", "sim.seed"):
            seen = True
            raw = f"{key.strip()} = " + " ".join(str(int(s) + shift) for s in val.split())
        out.append(raw)
    if not seen:
        out.append(f"sim.seed = {shift}")
    return "\n".join(out) + "\n"


def grid(text: str, cli_seed: int | None) -> tuple[list, int]:
    """(n, learner, seed) of every cell the config runs, and sum of n * rounds."""
    v = config_values(text)
    pops = [int(s) for s in v.get("sweep.populations", v.get("sim.n", "100")).split()]
    kinds = v.get("sweep.learners", v.get("learner.kind", "stage")).split()
    seeds = [int(s) for s in v.get("sweep.seeds", v.get("sim.seed", "0")).split()]
    if cli_seed is not None:
        seeds = [cli_seed]
    rounds = int(v.get("sim.rounds", "3000"))
    cells = [(n, kind, seed) for n in pops for kind in kinds for seed in seeds]
    return cells, sum(n * rounds for n, _, _ in cells)


def cell_files(cell) -> tuple[str, str]:
    n, kind, seed = cell
    stem = f"run_n{n}_{kind}_seed{seed}"
    return f"{stem}.csv", f"{stem}.summary.txt"


# -- machine speed -------------------------------------------------------------


class _Agent:
    """Agent-shaped state: small numpy arrays touched through method calls,
    one object per agent, as the program's per-agent learners are."""

    __slots__ = ("counts", "sums", "pending")

    def __init__(self):
        self.counts = np.zeros(8)
        self.sums = np.zeros(8)
        self.pending = -1

    def act(self, rng) -> int:
        self.pending = int(rng.random() * 8)
        return self.pending

    def observe(self, action: int, payoff: float):
        self.counts[action] += 1.0
        self.sums[action] += payoff


_POPULATION = [_Agent() for _ in range(10_000)]


def calibration_kernel() -> None:
    """Fixed work shaped like the program's: rounds of per-agent act/observe
    dispatch and a bincount over the population, at n = 10 000 (state out of
    cache) and n = 100 (state in cache)."""
    rng = np.random.default_rng(12345)
    for n, rounds in ((10_000, 3), (100, 250)):
        agents = _POPULATION[:n]
        for _ in range(rounds):
            actions = [agent.act(rng) for agent in agents]
            share = np.bincount(actions, minlength=8) / n
            for agent, action in zip(agents, actions):
                agent.observe(action, share[action])


def calibrate(cpus: list) -> float:
    """Seconds the calibration kernel takes now, averaged over cpus.

    A shared host lends the benchmark CPUs whose speed drifts by up to 2x
    over seconds to minutes, so raw times of one build differ from run to
    run by more than a regression worth catching.  So every launch is
    stopped after each CAL_EVERY_S of running and calibrated on the CPUs it
    runs on (and once more after it exits), and its times are scaled by
    REF_CAL_S over its mean calibration time: ``wall_ref_s``,
    ``agent_rounds_per_ref_s`` and ``setup_s`` are means of such times at
    the reference speed.  Means, not medians, because a slow spell stretches
    the program and the calibrations in proportion to its length.  Same CPU
    only: calibrations on the other vCPU did not follow this one's speed.
    """
    allowed = os.sched_getaffinity(0)
    took = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            calibration_kernel()
            took.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(took)


# -- one fresh process ---------------------------------------------------------


@dataclass
class Iteration:
    wall_s: float  # launch to exit, less the pauses
    setup_s: float  # launch until set-up was done, less the pauses before it
    rc: int
    report: dict
    cal_s: list  # the calibrations made in its pauses


def launch(config: Path, threads: int, deadline: float, cli_seed: int | None, *, outdir: Path,
           cpus: list | None = None, setup_only: bool = False,
           trace: bool = False) -> Iteration:
    """Run child.py in a fresh process group and time it.

    With cpus, the group is stopped (SIGSTOP) after every CAL_EVERY_S of
    running, one of cpus is calibrated while it is stopped, and it is
    continued; the pauses are taken out of its times.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "report.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config),
           "--out", str(outdir / "out"), "--threads", str(threads),
           "--report", str(report_path)]
    if cli_seed is not None:
        cmd += ["--seed", str(cli_seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        (outdir / "trace").mkdir(exist_ok=True)
        cmd += ["--trace-dir", str(outdir / "trace")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    pauses, cals = [], []
    with open(outdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        # Polling a pidfd wakes as the process exits; wait(timeout=...) would
        # round times up to its 50 ms sleeps.
        exited = select.poll()
        pidfd = os.pidfd_open(proc.pid)
        exited.register(pidfd, select.POLLIN)
        try:
            while True:
                now = time.monotonic()
                until = min(deadline, now + CAL_EVERY_S) if cpus else deadline
                if exited.poll(max(0.0, until - now) * 1000.0):
                    end = time.monotonic()
                    break
                if time.monotonic() >= deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                    end = time.monotonic()
                    break
                os.killpg(proc.pid, signal.SIGSTOP)
                paused = time.monotonic()
                try:  # one CPU a pause, in turn
                    cals.append(calibrate([cpus[len(cals) % len(cpus)]]))
                finally:
                    os.killpg(proc.pid, signal.SIGCONT)
                pauses.append((paused, time.monotonic()))
        finally:
            os.close(pidfd)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            rc = proc.wait()
    report = json.loads(report_path.read_text()) if report_path.exists() else {}
    if rc != 0:
        tail = (outdir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"anonlearn run exited {rc}:\n{tail}", file=sys.stderr)
    wall = end - t0 - sum(b - a for a, b in pauses)
    setup = float("nan")
    if "loaded_at" in report:
        loaded = report["loaded_at"]
        setup = loaded - t0 - sum(b - a for a, b in pauses if b <= loaded)
    return Iteration(wall, setup, rc, report, cals)


def check_program(report: dict):
    expected = ROOT / "src" / "anonlearn"
    where = Path(report.get("anonlearn", "")).resolve().parent
    if where != expected.resolve():
        raise ProgramBroken(f"imported anonlearn from {where}, not from {expected}")


# -- output checks -------------------------------------------------------------


def digest_dir(path: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.glob("*")) if f.is_file() and not f.name.startswith(".")}


def failed_cells(digests: dict, cells, reference: dict, with_aggregate: bool = True) -> int:
    """Cells whose CSV or summary is missing or differs from reference.

    A missing or different aggregate.csv fails every cell it averages.
    """
    if with_aggregate and (
        "aggregate.csv" not in digests or digests["aggregate.csv"] != reference.get("aggregate.csv")
    ):
        return len(cells)
    return sum(
        any(f not in digests or digests[f] != reference.get(f) for f in cell_files(cell))
        for cell in cells
    )


def rows_sum_to_one(csv_path: Path) -> bool:
    with csv_path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    for prefix in ("rho_", "base_"):
        cols = [i for i, name in enumerate(header) if name.startswith(prefix)]
        if not cols:
            return False
        try:
            rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
        except ValueError:  # a malformed row
            return False
        if not np.allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            return False
    return True


# -- environment ---------------------------------------------------------------


def environment(report: dict, iterations: int, cpus: list | None = None) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(ALLOWED_CPUS),
        "bench_cpus": cpus or ALLOWED_CPUS,
        "ref_cal_s": REF_CAL_S,
        "cpu_model": cpu,
        "python": report.get("python", platform.python_version()),
        "numpy": report.get("numpy", np.__version__),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "runs": iterations,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def summarize(samples: list) -> dict:
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4)
        med = statistics.median(samples)
    else:
        q1 = med = q3 = samples[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


# -- a benchmark run -----------------------------------------------------------


def bench(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    wl = WORKLOADS[name]
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    config = ROOT / wl.config
    text = config.read_text(encoding="utf-8")
    cli_seed = seed * SEED_STRIDE if wl.cli_seed else None
    if seed != DEFAULT_SEED and not wl.cli_seed:
        text = shift_seeds(text, seed * SEED_STRIDE)
        config = work / "workload.cfg"
        config.write_text(text, encoding="utf-8")
    cells, agent_rounds = grid(text, cli_seed)
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(DIGESTS.read_text())["workloads"][name]

    # A single-process workload and its calibrations share one CPU, so that
    # they see the same speed; a pool gets every CPU, and calibrates on each.
    cpus = ALLOWED_CPUS
    if wl.threads == 1:
        cpus = cpus[:1]
    os.sched_setaffinity(0, cpus)

    # Warm-up: compiles bytecode and fills the file cache; not timed.
    calibration_kernel()
    warm = launch(config, wl.threads, hard_deadline, cli_seed, outdir=work / "warm",
                  setup_only=True)
    if warm.rc != 0 or "loaded_at" not in warm.report:
        raise ProgramBroken("anonlearn could not load the workload config")
    check_program(warm.report)

    attempted = failed = 0
    samples = {metric: [] for metric, _ in SAMPLES}
    probes = 0

    def timed(**kwargs) -> tuple[Iteration, float]:
        """A launch, and the factor that takes its times to the reference
        speed: REF_CAL_S over the mean of its calibrations.  A traced run is
        not paused, so that its per-layer times hold no calibration."""
        if trace:
            return launch(config, wl.threads, hard_deadline, cli_seed, **kwargs), 1.0
        it = launch(config, wl.threads, hard_deadline, cli_seed, cpus=cpus, **kwargs)
        samples["cal_s"].append(statistics.fmean(it.cal_s + [calibrate(cpus)]))
        speed = REF_CAL_S / samples["cal_s"][-1]
        if it.rc == 0:
            samples["setup_raw_s"].append(it.setup_s)
            samples["setup_s"].append(it.setup_s * speed)
        return it, speed

    def probe_setup():
        nonlocal probes
        timed(outdir=work / f"setup{probes}", setup_only=True)
        probes += 1

    def iterate(i: int, traced: bool = False) -> tuple[Iteration, float]:
        nonlocal attempted, failed, reference
        it, speed = timed(outdir=work / f"it{i}", trace=traced)
        outdir = work / f"it{i}" / "out"
        digests = digest_dir(outdir) if it.rc == 0 else {}
        attempted += len(cells)
        if reference is None:  # first iteration at a non-default seed
            bad = {cell for cell in cells
                   if any(f not in digests for f in cell_files(cell))
                   or not rows_sum_to_one(outdir / cell_files(cell)[0])}
            failed += len(bad) if "aggregate.csv" in digests else len(cells)
            reference = digests
        else:
            failed += failed_cells(digests, cells, reference)
        shutil.rmtree(outdir, ignore_errors=True)
        return it, speed

    iterations = []
    if trace:
        plain, _ = iterate(0)
        traced, _ = iterate(1, traced=True)
        iterations = [plain]
        if traced.rc != 0 or "trace" not in traced.report:
            metrics = {n: {"value": 0, "unit": u} for n, u, *_ in METRICS}
            absent = [n for n, *_ in METRICS]
        else:
            metrics, absent = per_layer(traced.report["trace"])
            print(f"missing hooks: {traced.report['trace']['missing']}")
        metrics["trace.overhead_ratio"] = {"value": traced.wall_s / plain.wall_s, "unit": "ratio"}
        print(f"absent per-layer metrics: {absent}")
        print(f"traced wall {traced.wall_s!r} s, untraced wall {plain.wall_s!r} s")
    else:
        deadline = start + seconds
        passes = []  # seconds per pass of the loop, pauses and probes included
        while True:
            begun = time.monotonic()
            it, speed = iterate(len(iterations))
            iterations.append(it)
            if it.rc != 0:
                break
            samples["wall_s"].append(it.wall_s)
            samples["wall_ref_s"].append(it.wall_s * speed)
            samples["agent_rounds_per_s"].append(agent_rounds / (it.wall_s - it.setup_s))
            samples["run_ref_s"].append((it.wall_s - it.setup_s) * speed)
            samples["peak_rss_mb"].append(it.report["rss_kb"] / 1024.0)
            # Spread the set-up probes over the run, like the iterations.
            if probes < SETUP_PROBES:
                probe_setup()
            # Start another iteration if it should end nearer the deadline
            # than the last one did.
            now = time.monotonic()
            passes.append(now - begun)
            typical = statistics.median(passes)
            if now + typical / 2 > deadline or now + 2 * typical > hard_deadline:
                break
        while probes < SETUP_PROBES:
            probe_setup()
        if wl.threads > 1 and seed != DEFAULT_SEED and iterations[-1].rc == 0:
            # The first cell again with one worker must give the pooled bytes.
            first = cells[0]
            single = launch(config, 1, hard_deadline, first[2], outdir=work / "one_worker")
            attempted += 1
            failed += failed_cells(digest_dir(work / "one_worker" / "out") if single.rc == 0 else {},
                                   [first], reference, with_aggregate=False)
        for metric, unit in SAMPLES:
            if not samples[metric]:
                continue
            stats = summarize(samples[metric])
            print(f"{metric}: median {stats['median']!r} {unit}, quartiles "
                  f"{stats['q1']!r} .. {stats['q3']!r}, {stats['n']} samples: "
                  + " ".join(f"{x:.6g}" for x in samples[metric]))
        values = {}
        if samples["setup_s"]:
            values["setup_s"] = statistics.fmean(samples["setup_s"])
        if samples["wall_s"]:
            values["wall_ref_s"] = statistics.fmean(samples["wall_ref_s"])
            values["agent_rounds_per_ref_s"] = agent_rounds / statistics.fmean(samples["run_ref_s"])
            values["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items() if name in values}
    print(f"cells_failed: {failed}/{attempted}")
    env = environment(iterations[0].report, len(iterations), cpus)
    print("environment: " + json.dumps(env, sort_keys=True))
    return metrics, attempted, failed


def record():
    """Rewrite digests.json from this checkout, one worker per workload."""
    workloads = {}
    for name, wl in WORKLOADS.items():
        work = OUT / "record" / name
        shutil.rmtree(work, ignore_errors=True)
        it = launch(ROOT / wl.config, 1, time.monotonic() + 900.0,
                    DEFAULT_SEED * SEED_STRIDE if wl.cli_seed else None, outdir=work)
        if it.rc != 0:
            raise ProgramBroken(f"{name}: anonlearn run failed")
        workloads[name] = digest_dir(work / "out")
        print(f"{name}: {len(workloads[name])} files, {it.wall_s:.1f} s")
    doc = {"seed": DEFAULT_SEED, "threads": 1, "environment": environment(it.report, 1),
           "workloads": workloads}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "anonlearn" / "__init__.py").is_file():
        print(f"no anonlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Unwind on SIGTERM too, so that launch() continues and kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        metrics, attempted, failed = bench(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except ProgramBroken as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
