"""Alternating parent/change perfbench pairs, collected in one BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_11.json \\
        --workload large_n_churn --pairs 10 --seed 0

Both sides run from fresh copies without bytecode caches: the parent is REV's
committed files (`git archive`), the change is this checkout's working tree
(its tracked and untracked, not ignored, files).  Pair i runs the parent first
when i is odd and the change first when i is even.  A run is
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` in that
side's copy, with T the `run_seconds` of BENCHMARK.json, and its final JSON
line is kept as printed.

Runs are added to --out under "W/seedS"; an existing file is extended, so
workloads and seeds can be run in separate calls.  Each entry's summary is
then recomputed: for every end-to-end metric in BENCHMARK.json, each side's
median and quartiles (numpy's linear percentiles) over the runs that report it,
with their count, the pairs the change won among the pairs where both runs
report it (ties count for neither), the ratio of the medians and
`gain_rule_met`: whether at least ten pairs ran, the change won at least nine
tenths of them and its median is better than the parent's by more than the
parent's q3 - q1.  A failed run reports no metrics; it lowers those counts and
shows in `correct`.  Each side also records its `src_sha256`, as the
`environment:` line of its perfbench runs reports it, its `src_lines` (the
total of `wc -l src/anonlearn/*.py`) and `module_lines`, each module's share of
it.  Beside `machine`, `PYTHONDONTWRITEBYTECODE` records whether that variable
was set: with it, each launch in the fresh copies compiles the package.
The exit status is 1, after --out is written, when any measured run in it is
not `correct` or has failed cells; each such workload and side is printed to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WHAT = ("perfbench end-to-end metrics, `python3 perfbench/run.py --workload <w> --seed <s> "
        "--seconds <t> --trace 0`, alternating parent/change runs (odd pairs parent first, "
        "even pairs change first), each side from a fresh copy without bytecode caches; "
        "runs[side] lists each run's final JSON line in pair order; quartiles are numpy's "
        "linear percentiles")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout


def export_parent(rev: str, dest: Path):
    """REV's committed files, into dest."""
    tar = dest.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(tar), rev)
    with tarfile.open(tar) as fh:
        fh.extractall(dest, filter="data")
    tar.unlink()


def export_change(dest: Path):
    """The working tree's tracked and untracked (not ignored) files, into dest."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def module_lines(tree: Path) -> dict:
    """`wc -l src/anonlearn/*.py` per module, by file name."""
    return {f.name: f.read_bytes().count(b"\n")
            for f in sorted((tree / "src" / "anonlearn").glob("*.py"))}


def src_lines(tree: Path) -> int:
    """The src/ line count ROADMAP tracks, the total of `wc -l src/anonlearn/*.py`."""
    return sum(module_lines(tree).values())


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """One perfbench run in tree: its final JSON line and its environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.partition(": ")[2]) for line in lines
                if line.startswith("environment: ")), {})
    try:
        return json.loads(lines[-1]), env
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr[-2000:], file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit_code": proc.returncode}, env


def stats(values: list) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "runs": 0}
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(entry: dict, end_to_end: list):
    """Recompute entry's summary, cells_failed and correct from its runs."""
    runs, summary = entry["runs"], {}
    for metric in end_to_end:
        name = metric["name"]
        vals = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
                for side in SIDES}
        both = [(p, c) for p, c in zip(vals["parent"], vals["change"])
                if p is not None and c is not None]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in both)
        s = {side: stats([v for v in vals[side] if v is not None]) for side in SIDES}
        ps, cs = s["parent"], s["change"]
        measured = bool(ps["runs"] and cs["runs"])
        pairs = min(len(vals["parent"]), len(vals["change"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], **s,
            "change_wins": f"{wins}/{len(both)}",
            "median_ratio_change_over_parent": cs["median"] / ps["median"] if measured else None,
            "gain_rule_met": (measured and pairs >= 10 and 10 * wins >= 9 * pairs
                              and sign * (ps["median"] - cs["median"]) > ps["q3"] - ps["q1"]),
        }
    entry["summary"] = summary
    entry["cells_failed"] = {side: f"{sum(r['failed'] for r in runs[side])}/"
                                   f"{sum(r['attempted'] for r in runs[side])}" for side in SIDES}
    entry["correct"] = {side: all(r["correct"] for r in runs[side]) for side in SIDES}


def record_environment(doc: dict, side: str, env: dict):
    """Set doc's machine, python and numpy from the first perfbench environment
    line, and whether PYTHONDONTWRITEBYTECODE is set (perfbench inherits it);
    and side's src_sha256 from each line that reports one."""
    if "src_sha256" in env:
        doc[side]["src_sha256"] = env["src_sha256"]
    doc.setdefault("machine", {k: env[k] for k in (
        "cpu_model", "nproc", "cpu_affinity", "bench_cpus", "ref_cal_s") if k in env})
    doc.setdefault("PYTHONDONTWRITEBYTECODE", bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    doc.setdefault("python", env.get("python"))
    doc.setdefault("numpy", env.get("numpy"))


def failures(doc: dict) -> list[str]:
    """"W/seedS side" for each side of each entry with a run that is not
    correct or has failed cells."""
    return [f"{key} {side}" for key, entry in doc["workloads"].items() for side in SIDES
            if any(not r["correct"] or r["failed"] for r in entry["runs"][side])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent commit (any git revision)")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write or extend")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where the two copies go (default: the system's temporary dir)")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_commit = git("rev-parse", args.parent).strip()
    head = git("rev-parse", "HEAD").strip()
    dirty = bool(git("status", "--porcelain"))  # export_change copies the whole tree
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "what": WHAT, "workloads": {}}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_", dir=args.workdir))
    try:
        trees = {side: work / side for side in SIDES}
        export_parent(args.parent, trees["parent"])
        export_change(trees["change"])
        commits = {"parent": parent_commit,
                   "change": f"working tree of {head}" if dirty else head}
        for side in SIDES:
            doc[side] = {"commit": commits[side], "src_lines": src_lines(trees[side]),
                         "module_lines": module_lines(trees[side])}
        for workload in args.workload:
            key = f"{workload}/seed{args.seed}"
            entry = doc["workloads"].setdefault(key, {
                "seed": args.seed, "seconds": seconds, "pairs": 0,
                "runs": {side: [] for side in SIDES}})
            for _ in range(args.pairs):
                entry["pairs"] += 1
                order = SIDES if entry["pairs"] % 2 else SIDES[::-1]
                for side in order:
                    line, env = perfbench(trees[side], workload, args.seed, seconds)
                    entry["runs"][side].append(line)
                    record_environment(doc, side, env)
                    print(f"{key} pair {entry['pairs']} {side}: {json.dumps(line)}", flush=True)
                summarize(entry, bench["end_to_end"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = failures(doc)
    for name in bad:
        print(f"not correct or with failed cells: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
