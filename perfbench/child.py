"""One fresh-process anonlearn run, as the benchmark times it.

Imports the package and loads the experiment (the set-up the benchmark
reports as ``setup_s``), then runs it through ``anonlearn.cli.main`` exactly
as ``anonlearn run --config CFG --out DIR --threads T [--seed S]`` would.  With
``--trace-dir`` the tracer is installed first.  Writes a JSON report:

    loaded_at   time.monotonic() when set-up finished
    rc          the CLI's exit code
    rss_kb      peak RSS of this process since exec (VmHWM) and max ru_maxrss
                of its reaped children (the pool workers)
    trace       collected per-layer counts (traced runs only)

Usage: python3 perfbench/child.py --config CFG --out DIR --threads T
       --report FILE [--seed S] [--setup-only] [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seed", default=None, help="passed on to anonlearn run")
    parser.add_argument("--report", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    import numpy

    import anonlearn
    from anonlearn import cli, config

    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        # Pool workers must inherit the wrappers to be counted.
        multiprocessing.set_start_method("fork", force=True)
        tracer = Tracer(args.trace_dir)
        tracer.install()

    config.load_experiment(args.config)
    report = {
        "loaded_at": time.monotonic(),
        "anonlearn": anonlearn.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rc": 0,
    }
    if not args.setup_only:
        if tracer:
            busy0 = _outside_write(tracer)
        t0 = time.perf_counter()
        argv = ["run", "--config", args.config, "--out", args.out, "--threads", str(args.threads)]
        if args.seed is not None:
            argv += ["--seed", args.seed]
        report["rc"] = cli.main(argv)
        if tracer:
            # cli.main minus the run_many, load_experiment and shipping it did
            busy = _outside_write(tracer) - busy0
            tracer.derived["cli.write_s"] = time.perf_counter() - t0 - busy
            report["trace"] = tracer.collect()
    report["rss_kb"] = max(_own_peak_rss_kb(),
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["rc"]


def _own_peak_rss_kb() -> int:
    """This process's peak RSS.  Not ru_maxrss: Linux carries into it the
    peak of the process that launched this one, which here is the benchmark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _outside_write(tracer) -> float:
    seconds = tracer.derived.get("engine.ship_s", 0.0)
    for bucket in ("engine.run_many", "config.load_experiment"):
        seconds += tracer.buckets.get(bucket, (0, 0.0))[1]
    return seconds


if __name__ == "__main__":
    sys.exit(main())
