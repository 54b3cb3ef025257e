"""Golden outputs: what `anonlearn run` writes for the configs in
tests/golden/, and what `anonlearn analyze` prints, must keep their exact
bytes; sampled Lipschitz estimates must keep their exact bits; `run` on a
seeded table of random small configs must keep the exact bits of every
RunTrace array; `run_stationary` must return the same bases; and each demo
in demos/ must print the same bytes.

digests.json holds the sha256 of each per-run CSV, summary and aggregate.csv
and of each analyze report, the float.hex() of each Lipschitz estimate (a max
of utility differences, so it moves with any bit-level change in the expected
utilities), the sha256 of the five arrays of each random config's
RunTrace, the sha256 of the bases `run_stationary` returns, and the sha256
of each demo's standard output.  Re-record it only when a change is meant to
alter the outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anonlearn import (
    ActionDistribution,
    ContributionGame,
    MatrixGame,
    MixedAction,
    RunConfig,
    climbing_game,
    estimate_lipschitz,
    load_matrix,
    prisoners_dilemma,
    run,
    run_stationary,
)
from anonlearn.cli import EXIT_OK, main

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "digests.json"
CONFIGS = sorted(p.name for p in GOLDEN.glob("*.cfg"))
MATRIX = ["--game", "matrix", "--matrix", "golden_matrix.txt"]
ANALYZE = {
    "nash_prisoners_dilemma": ["--game", "prisoners_dilemma", "--mode", "nash",
                               "--rho", "0.3,0.7", "--eta", "0.5"],
    "brs_contribution": ["--penalty-n", "200", "--mode", "brs", "--eta", "1.0",
                         "--rule", "uniform"],
    "brs_matrix": MATRIX + ["--mode", "brs", "--rho", "0.1,0.2,0.3,0.4", "--eta", "0.05"],
    "lipschitz_contribution": ["--mode", "lipschitz", "--samples", "100", "--seed", "7"],
    "lipschitz_climbing": ["--game", "climbing", "--mode", "lipschitz", "--samples", "100",
                           "--seed", "7"],
}
LIPSCHITZ_GAMES = {
    "contribution": lambda: ContributionGame(),
    "contribution_penalty200": lambda: ContributionGame(penalty_n=200),
    "prisoners_dilemma": lambda: prisoners_dilemma(),
    "climbing": lambda: climbing_game(),
    "matrix": lambda: MatrixGame(load_matrix(GOLDEN / "golden_matrix.txt")),
}
# run_stationary cases: n = 3 reads 128 rounds ahead per refill of the agent
# streams, n = 1000 reads 8, and n = 5000 one round at a time.
STATIONARY = {
    "n3": lambda: run_stationary(ContributionGame(), MixedAction(8, 0.05).distribution(20),
                                 [0, 8, 19], explore=0.5, stage_len=2, rounds=301, seed=7),
    "n1000": lambda: run_stationary(climbing_game(), ActionDistribution([0.5, 0.2, 0.3]),
                                    np.arange(1000) % 3, explore=0.3, stage_len=4,
                                    rounds=10, seed=41),
    "n5000": lambda: run_stationary(
        MatrixGame(load_matrix(GOLDEN / "golden_matrix.txt")),
        ActionDistribution([0.1, 0.2, 0.3, 0.4]), np.arange(5000) % 4, explore=0.3,
        stage_len=4, rounds=10, seed=2**32 + 5),
}

RANDOM_CONFIGS = 32
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def random_configs(count=RANDOM_CONFIGS, seed=20240):
    """count small RunConfigs drawn from a fixed generator: both learners, both
    payoff modes, every game kind, churn, fixed agents with and without
    exploration, explicit and derived mu, and trailing partial stages."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    out = []
    for _ in range(count):
        game = pick(["contribution", "prisoners_dilemma", "climbing", "matrix"])
        k = {"contribution": 20, "prisoners_dilemma": 2, "climbing": 3, "matrix": 4}[game]
        stage_len = pick([5, 10, 20, 50])
        out.append(RunConfig(
            game=game,
            penalty_n=pick([20, 200]),
            matrix_path=str(GOLDEN / "golden_matrix.txt") if game == "matrix" else None,
            mode=pick(["meanfield", "matching"]),
            learner=pick(["stage", "regret"]),
            explore=pick([0.05, 0.1, 0.2, 0.3]),
            stage_len=stage_len,
            mu=pick([None, None, 5.0, 80.0]),
            delta=pick([0.05, 0.1]),
            n=2 * int(rng.integers(1, 13)),
            rounds=stage_len * int(rng.integers(1, 6)) + pick([0, 0, stage_len // 2, 3]),
            churn_rate=pick([0.0, 0.1, 0.5]),
            fixed_fraction=pick([0.0, 0.2, 0.5]),
            fixed_base=int(rng.integers(k)),
            fixed_explore=pick([0.0, 0.1]),
            seed=int(rng.integers(1000)),
            target=int(rng.integers(k)),
            metrics_eta=pick([0.0, 0.5, 1.0, 2.0]),
        ))
    return out


@contextlib.contextmanager
def _in_golden_dir():
    """Matrix paths in the configs and ANALYZE are relative to tests/golden."""
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        yield
    finally:
        os.chdir(cwd)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(cfg: str, out: Path) -> dict:
    with _in_golden_dir(), contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stem = Path(cfg).stem
    return {f"{stem}/{p.name}": _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def _analyze_digest(label: str) -> dict:
    buf = io.StringIO()
    with _in_golden_dir(), contextlib.redirect_stdout(buf):
        assert main(["analyze"] + ANALYZE[label]) == EXIT_OK
    return {f"analyze/{label}": _sha(buf.getvalue().encode())}


def _lipschitz_bits(label: str) -> dict:
    est = estimate_lipschitz(LIPSCHITZ_GAMES[label](), samples=300, rng_seed=3)
    return {f"lipschitz/{label}": float(est).hex()}


def _stationary_digest(label: str) -> dict:
    bases = np.asarray(STATIONARY[label](), dtype=np.int64)
    return {f"stationary/{label}": _sha(bases.tobytes())}


def _trace_digest(idx: int, config: RunConfig) -> dict:
    t = run(config)
    arrays = (t.realized_dist, t.base_dist, t.stage_rho, t.stage_distance,
              t.stage_br_fraction)
    return {f"random/{idx:02d}": _sha(b"".join(np.ascontiguousarray(a).tobytes()
                                                for a in arrays))}


def _demo_digest(stem: str) -> dict:
    # a warning fails the demo as filterwarnings fails this suite; it goes to stderr
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{stem}.py")],
                          capture_output=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                               "PYTHONWARNINGS": "error"})
    assert proc.returncode == 0, proc.stderr.decode()
    return {f"demo/{stem}": _sha(proc.stdout)}


def _recorded(match) -> dict:
    table = json.loads(DIGESTS.read_text())
    found = {k: v for k, v in table.items() if match(k)}
    assert found, "no digests recorded"
    return found


@pytest.mark.parametrize("cfg", CONFIGS)
def test_golden_run_bytes(cfg, tmp_path):
    assert _run_digests(cfg, tmp_path) == _recorded(
        lambda key: key.startswith(f"{Path(cfg).stem}/"))


@pytest.mark.parametrize("label", sorted(ANALYZE))
def test_golden_analyze_bytes(label):
    assert _analyze_digest(label) == _recorded(lambda key: key == f"analyze/{label}")


@pytest.mark.parametrize("label", sorted(LIPSCHITZ_GAMES))
def test_golden_lipschitz_bits(label):
    assert _lipschitz_bits(label) == _recorded(lambda key: key == f"lipschitz/{label}")


@pytest.mark.parametrize("label", sorted(STATIONARY))
def test_golden_stationary_bases(label):
    assert _stationary_digest(label) == _recorded(lambda key: key == f"stationary/{label}")


@pytest.mark.parametrize("idx", range(RANDOM_CONFIGS))
def test_golden_random_trace_bits(idx):
    config = random_configs()[idx]
    assert _trace_digest(idx, config) == _recorded(lambda key: key == f"random/{idx:02d}")


@pytest.mark.parametrize("stem", DEMOS)
def test_golden_demo_stdout(stem):
    assert _demo_digest(stem) == _recorded(lambda key: key == f"demo/{stem}")


if __name__ == "__main__":
    import tempfile

    table = {}
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            table.update(_run_digests(name, Path(tmp)))
    for label in ANALYZE:
        table.update(_analyze_digest(label))
    for label in LIPSCHITZ_GAMES:
        table.update(_lipschitz_bits(label))
    for label in STATIONARY:
        table.update(_stationary_digest(label))
    for idx, config in enumerate(random_configs()):
        table.update(_trace_digest(idx, config))
    for stem in DEMOS:
        table.update(_demo_digest(stem))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests to {DIGESTS}", file=sys.stderr)
