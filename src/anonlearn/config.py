"""RunConfig, one row per setting, and experiment config files: flat
`section.key = value` text, documented defaults for every key, unknown keys rejected."""

from __future__ import annotations

__all__ = ["RunConfig", "ConfigError", "parse_config_text", "load_experiment"]

import math
import os
from dataclasses import dataclass, fields, replace

from .core import _action, _number
from .games import PENALTY_N, build_game

LEARNER_KINDS = ("stage", "regret")
# RunConfig field -> (config key, type, what it may hold): an interval for a
# number, the choices for a string, None where build_game checks it.  A field
# whose default is None (a derived default) may hold None, written "".  The game
# checks target and fixed_base as actions; run_stationary reads the same rows.
SETTINGS = {
    "game": ("game.kind", str, None),
    "penalty_n": ("game.penalty_n", int, "[0, inf)"),
    "matrix_path": ("game.matrix_path", str, None),
    "mode": ("sim.mode", str, ("meanfield", "matching")),
    "learner": ("learner.kind", str, LEARNER_KINDS),
    "explore": ("learner.explore", float, "(0, 1)"),
    "stage_len": ("learner.stage_len", int, "[1, inf)"),
    "mu": ("learner.mu", float, "(0, inf)"),
    "delta": ("learner.delta", float, "(0, 1)"),
    "n": ("sim.n", int, "[2, inf)"),
    "rounds": ("sim.rounds", int, "[1, inf)"),
    "churn_rate": ("sim.churn_rate", float, "[0, 1]"),
    "fixed_fraction": ("sim.fixed_fraction", float, "[0, 1]"),
    "fixed_base": ("sim.fixed_base", int, "(-inf, inf)"),
    "fixed_explore": ("sim.fixed_explore", float, "[0, 1)"),
    "seed": ("sim.seed", int, "[0, inf)"),
    "target": ("sim.target", int, "(-inf, inf)"),
    "metrics_eta": ("sim.metrics_eta", float, "[0, inf)"),
}
# Sweep axis -> the type of its list's entries; an axis defaults to None.
SWEEPS = {"sweep.populations": int, "sweep.seeds": int, "sweep.learners": str}


class ConfigError(ValueError):
    """Malformed config text, unknown key, or bad value."""


def _cover_stage(rounds: int, stage_len: int):
    """A run of `rounds` rounds plays at least one stage of `stage_len`; else ValueError."""
    if rounds < stage_len:
        raise ValueError(f"rounds: must cover at least one stage of {stage_len}, got {rounds}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation happens at construction, against
    the game itself (so game=matrix reads its matrix file then), which the
    config keeps outside its fields for run to play, pickled copies too."""

    game: str = "contribution"
    penalty_n: int = PENALTY_N
    matrix_path: str | None = None
    mode: str = "meanfield"
    learner: str = "stage"
    explore: float = 0.05
    stage_len: int | None = None  # None -> ceil(1/explore^2)
    mu: float | None = None  # None -> the game-derived default, see resolved_mu
    delta: float = 0.05
    n: int = 100
    rounds: int = 3000
    churn_rate: float = 0.0
    fixed_fraction: float = 0.0
    fixed_base: int = 0
    fixed_explore: float = 0.0
    seed: int = 0
    target: int = 8
    metrics_eta: float = 1.0

    def __post_init__(self):
        for key, (_, kind, allowed) in SETTINGS.items():
            v = getattr(self, key)
            if allowed is not None and (v is not None or _DEFAULTS[key] is not None):
                _number(v, key, allowed, kind is int)
        if self.mode == "matching" and self.n % 2:
            raise ValueError(f"n: matching mode needs an even population, got {self.n}")
        if self.churn_rate > 0.0 and int(self.fixed_fraction * self.n) == self.n:
            raise ValueError(
                f"churn_rate: churn replaces learners, and fixed_fraction="
                f"{self.fixed_fraction} leaves none among {self.n} agents"
            )
        _cover_stage(self.rounds, self.resolved_stage_len)
        game = build_game(self.game, self.penalty_n, self.matrix_path)
        for key in ("target", "fixed_base"):
            _action(getattr(self, key), game.k, key)
        object.__setattr__(self, "_game", game)

    @property
    def resolved_stage_len(self) -> int:
        if self.stage_len is not None:
            return self.stage_len
        return math.ceil(1.0 / self.explore**2)

    @property
    def resolved_mu(self) -> float:
        """The regret matcher's damping: mu, or else 2·max(hi−lo, 1)·(k−1)
        from the game's k actions and payoff bounds [lo, hi]."""
        if self.mu is not None:
            return self.mu
        lo, hi = self._game.payoff_bounds()
        return 2.0 * max(hi - lo, 1.0) * (self._game.k - 1)

    def items(self):
        """(key, value) pairs of the fully-resolved config, for echoing."""
        out = [(f.name, getattr(self, f.name)) for f in fields(self)]
        out.append(("resolved_stage_len", self.resolved_stage_len))
        return out


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# config key -> RunConfig field; a sweep axis has none.
CONFIG_KEYS = {key: field for field, (key, _, _) in SETTINGS.items()} | dict.fromkeys(SWEEPS)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """key -> parsed value for every key in CONFIG_KEYS, defaults filled in.
    A value parses as its row's type; a sweep axis as a list of its type."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        field = CONFIG_KEYS[key]
        try:
            if field is None:
                values[key] = [SWEEPS[key](tok) for tok in val.replace(",", " ").split()]
            else:
                none = val == "" and _DEFAULTS[field] is None
                values[key] = None if none else SETTINGS[field][1](val)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from None
    for key, field in CONFIG_KEYS.items():
        values.setdefault(key, None if field is None else _DEFAULTS[field])
    return values


def cells_from_values(values: dict, seed: int | None = None) -> list[RunConfig]:
    """The grid parsed config values describe, populations x learner kinds x
    seeds, every cell built (and so validated) once.  A sweep axis, when
    set, must be nonempty and distinct.  A given seed replaces the seed axis
    before any cell is built."""
    for key in ("sweep.populations", "sweep.learners", "sweep.seeds"):
        axis = values[key]
        if axis is not None and (not axis or len(set(axis)) != len(axis)):
            raise ConfigError(f"{key}: must be nonempty and distinct, got {axis}")
    seeds = values["sweep.seeds"]
    kwargs = {field: values[key] for key, field in CONFIG_KEYS.items() if field}
    if seed is not None:
        kwargs["seed"] = seed
        seeds = None
    try:
        base = RunConfig(**kwargs)
        return [
            replace(base, n=n, learner=kind, seed=s)
            for n in values["sweep.populations"] or [base.n]
            for kind in values["sweep.learners"] or [base.learner]
            for s in seeds or [base.seed]
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_experiment(path, seed: int | None = None) -> list[RunConfig]:
    """Parse a config file into its grid of runs; every cell is validated.
    seed, if given, makes the grid that one master seed's cells.  A relative
    game.matrix_path is read from the config file's directory."""
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read(), source=str(path))
    if values["game.matrix_path"] is not None:
        values["game.matrix_path"] = os.path.join(os.path.dirname(path), values["game.matrix_path"])
    return cells_from_values(values, seed)
