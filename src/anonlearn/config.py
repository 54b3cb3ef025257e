"""RunConfig, one field per setting, and experiment config files: flat
`section.key = value` text, documented defaults for every key, unknown keys rejected."""

from __future__ import annotations

__all__ = ["RunConfig", "ConfigError", "parse_config_text", "load_experiment"]

import itertools
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_type_hints

from .core import _action, _number
from .games import PENALTY_N, build_game

LEARNER_KINDS = ("stage", "regret", "stats")


def _setting(key: str, default, allowed=None):
    """A RunConfig field read from config key `key`.  `allowed` is what it may hold: an
    interval for a number, the choices for a string, None where build_game checks it.  A
    None default is derived (see resolved_stage_len, resolved_mu) and may be kept, written ""."""
    return field(default=default, metadata={"key": key, "allowed": allowed})


class ConfigError(ValueError):
    """Malformed config text, unknown key, or bad value."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs; validation happens at construction, against
    the game itself (so game=matrix reads its matrix file then), which the
    config keeps outside its fields for run to play, pickled copies too."""

    game: str = _setting("game.kind", "contribution")
    penalty_n: int = _setting("game.penalty_n", PENALTY_N, "[0, inf)")
    matrix_path: str | None = _setting("game.matrix_path", None)
    mode: str = _setting("sim.mode", "meanfield", ("meanfield", "matching"))
    learner: str = _setting("learner.kind", "stage", LEARNER_KINDS)
    explore: float = _setting("learner.explore", 0.05, "(0, 1)")
    stage_len: int | None = _setting("learner.stage_len", None, "[1, inf)")
    mu: float | None = _setting("learner.mu", None, "(0, inf)")
    delta: float = _setting("learner.delta", 0.05, "(0, 1)")
    n: int = _setting("sim.n", 100, "[2, inf)")
    rounds: int = _setting("sim.rounds", 3000, "[1, inf)")
    churn_rate: float = _setting("sim.churn_rate", 0.0, "[0, 1]")
    fixed_fraction: float = _setting("sim.fixed_fraction", 0.0, "[0, 1]")
    fixed_base: int = _setting("sim.fixed_base", 0, "(-inf, inf)")
    fixed_explore: float = _setting("sim.fixed_explore", 0.0, "[0, 1)")
    seed: int = _setting("sim.seed", 0, "[0, inf)")
    target: int = _setting("sim.target", 8, "(-inf, inf)")
    metrics_eta: float = _setting("sim.metrics_eta", 1.0, "[0, inf)")

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
        if self.rounds < (tau := self.resolved_stage_len):
            raise ValueError(f"rounds: must cover at least one stage of {tau}, got {self.rounds}")
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
# RunConfig field -> (config key, type, what it may hold), in field order; the
# type is the field's annotation (int for int | None).
_TYPES = {name: (get_args(t) or (t,))[0] for name, t in get_type_hints(RunConfig).items()}
SETTINGS = {f.name: (f.metadata["key"], _TYPES[f.name], f.metadata["allowed"])
            for f in fields(RunConfig)}
# Sweep axis -> the field its list's entries set, in grid order; an axis defaults to None.
SWEEPS = {"sweep.populations": "n", "sweep.learners": "learner", "sweep.seeds": "seed"}
# config key -> RunConfig field; a sweep axis has none.
CONFIG_KEYS = {key: name for name, (key, _, _) in SETTINGS.items()} | dict.fromkeys(SWEEPS)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """key -> parsed value for every key in CONFIG_KEYS, defaults filled in.
    A value parses as its row's type; a sweep axis as a list of its field's type."""
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
        name = CONFIG_KEYS[key]
        try:
            if name is None:
                values[key] = list(map(SETTINGS[SWEEPS[key]][1], val.replace(",", " ").split()))
            else:
                none = val == "" and _DEFAULTS[name] is None
                values[key] = None if none else SETTINGS[name][1](val)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from None
    for key, name in CONFIG_KEYS.items():
        values.setdefault(key, None if name is None else _DEFAULTS[name])
    return values


def cells_from_values(values: dict, seed: int | None = None) -> list[RunConfig]:
    """The grid parsed config values describe, populations x learner kinds x
    seeds, every cell built (and so validated) once.  A sweep axis, when
    set, must be nonempty and distinct.  A given seed replaces the seed axis
    before any cell is built."""
    for key in SWEEPS:
        axis = values[key]
        if axis is not None and (not axis or len(set(axis)) != len(axis)):
            raise ConfigError(f"{key}: must be nonempty and distinct, got {axis}")
    kwargs = {name: values[key] for key, name in CONFIG_KEYS.items() if name}
    axes = {name: values[key] for key, name in SWEEPS.items()}
    if seed is not None:
        kwargs["seed"], axes["seed"] = seed, None
    try:
        base = RunConfig(**kwargs)
        grid = itertools.product(*(axis or [getattr(base, name)] for name, axis in axes.items()))
        return [replace(base, **dict(zip(axes, cell))) for cell in grid]
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
