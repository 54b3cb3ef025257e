"""Golden outputs: what `anonlearn run` writes for the configs in
tests/golden/, and what `anonlearn analyze` prints, must keep their exact
bytes; sampled Lipschitz estimates must keep their exact bits.

digests.json holds the sha256 of each per-run CSV, summary and aggregate.csv
and of each analyze report, and the float.hex() of each Lipschitz estimate
(a max of utility differences, so it moves with any bit-level change in the
expected utilities).  Re-record it only when a change is meant to alter the
outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from anonlearn import (
    ContributionGame,
    MatrixGame,
    climbing_game,
    estimate_lipschitz,
    load_matrix,
    prisoners_dilemma,
)
from anonlearn.cli import EXIT_OK, main

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
}
LIPSCHITZ_GAMES = {
    "contribution": lambda: ContributionGame(),
    "contribution_penalty200": lambda: ContributionGame(penalty_n=200),
    "prisoners_dilemma": lambda: prisoners_dilemma(),
    "climbing": lambda: climbing_game(),
    "matrix": lambda: MatrixGame(load_matrix(GOLDEN / "golden_matrix.txt")),
}


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
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} digests to {DIGESTS}", file=sys.stderr)
