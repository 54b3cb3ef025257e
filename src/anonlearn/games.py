"""Game library: the 20-action contribution game, matrix files, the bundled
matrix games, and build_game, which builds any of them by name."""

from __future__ import annotations

__all__ = [
    "CONTRIBUTION_LEVELS", "contribution_cost", "ContributionGame",
    "load_matrix", "prisoners_dilemma", "climbing_game", "build_game",
]

import numpy as np

from .core import ActionDistribution, MatrixGame, _action, _number, _profile

GAME_KINDS = ("contribution", "prisoners_dilemma", "climbing", "matrix")
CONTRIBUTION_LEVELS = 20
# The contribution game's default over-contribution penalty scale.
PENALTY_N = 20
_COST = np.array([x if x <= 1 else (x - 1) ** 2 if x <= 8 else x * x
                  for x in range(CONTRIBUTION_LEVELS)], dtype=float)  # c(x) at penalty_n = 0


def contribution_cost(x, penalty_n: int = PENALTY_N):
    """Cost of contributing at level x (a float), or at each level of a
    profile of levels (an array).

    Zero at 0, one at 1, (x-1)^2 through level 8, then x^2 plus a flat
    penalty of 2*penalty_n for over-contribution.
    """
    x = (_action if np.ndim(x) == 0 else _profile)(x, CONTRIBUTION_LEVELS, "x")
    cost = _COST[x] + 2.0 * _number(penalty_n, "penalty_n", "[0, inf)", integer=True) * (x > 8)
    return float(cost) if type(x) is int else cost


class ContributionGame(MatrixGame):
    """Collective-contribution game on levels 0..19.

    An agent contributing x against a population whose mean contribution is y
    earns 2*x*y - c(x); matched against one partner contributing x', it earns
    p[x][x'] = 2*x*x' - c(x).
    """

    def __init__(self, penalty_n: int = PENALTY_N):
        self.penalty_n = penalty_n
        self._levels = np.arange(CONTRIBUTION_LEVELS, dtype=float)
        self._costs = contribution_cost(np.arange(CONTRIBUTION_LEVELS), penalty_n)
        x = self._levels
        super().__init__(2.0 * x[:, None] * x[None, :] - self._costs[:, None])
        # |u(a,rho)-u(a,rho')| = 2a|mean(rho)-mean(rho')| and the mean moves by
        # at most (range/2)*L1, so K = 2*19*9.5, tighter than the inherited
        # max|p| (401 at penalty_n = 20).
        self.lipschitz = 2.0 * 19.0 * 9.5

    def mean_contribution(self, rho: ActionDistribution) -> float:
        self._check_rho(rho)
        return float(rho.weights @ self._levels)

    def utilities(self, rho: ActionDistribution) -> np.ndarray:
        # The closed form, not the matrix: p @ rho differs from it in the
        # last bit.
        return 2.0 * self._levels * self.mean_contribution(rho) - self._costs


def load_matrix(path) -> np.ndarray:
    """Read a payoff matrix from a plain-text file.

    Format: one row per line, entries whitespace-separated; blank lines and
    lines starting with '#' are ignored.  The matrix must be square.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in stripped.split()])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad matrix entry ({exc})") from None
    if not rows:
        raise ValueError(f"{path}: no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows, expected {width} entries per row")
    m = np.array(rows)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{path}: matrix must be square, got {m.shape}")
    return m


def prisoners_dilemma() -> MatrixGame:
    """Standard prisoner's dilemma (R=3, S=0, T=5, P=1); actions 0=C, 1=D."""
    return MatrixGame([[3, 0], [5, 1]], labels=("C", "D"))


def climbing_game() -> MatrixGame:
    """Three-action climbing game with the literature-standard common payoffs."""
    return MatrixGame([[11, -30, 0], [-30, 7, 6], [0, 0, 5]])


def build_game(kind: str, penalty_n: int, matrix_path: str | None) -> MatrixGame:
    """The game named by kind, one of GAME_KINDS."""
    if _number(kind, "game", GAME_KINDS) != "matrix" and matrix_path:
        raise ValueError(f"matrix_path: only game=matrix reads a matrix file, got game={kind!r}")
    if kind == "contribution":
        return ContributionGame(penalty_n)
    if kind == "prisoners_dilemma":
        return prisoners_dilemma()
    if kind == "climbing":
        return climbing_game()
    if not matrix_path:
        raise ValueError("matrix_path: required when game=matrix")
    return MatrixGame(load_matrix(matrix_path))
