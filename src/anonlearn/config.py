"""Experiment config files: flat `section.key = value` text, documented
defaults for every key, unknown keys rejected."""

from __future__ import annotations

__all__ = ["ConfigError", "parse_config_text", "load_experiment"]

import os
from dataclasses import fields, replace

from .engine import RunConfig


class ConfigError(ValueError):
    """Malformed config text, unknown key, or bad value."""


def _parse_int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.replace(",", " ").split()]


def _parse_str_list(s: str) -> list[str]:
    return [tok for tok in s.replace(",", " ").split()]


def _optional(parser):
    return lambda s: None if s == "" else parser(s)


# key -> (parser, RunConfig field); sweep axes have no field.  A key's
# default is its field's default in RunConfig; sweep axes default to None.
CONFIG_KEYS = {
    "game.kind": (str, "game"),
    "game.penalty_n": (int, "penalty_n"),
    "game.matrix_path": (_optional(str), "matrix_path"),
    "learner.kind": (str, "learner"),
    "learner.explore": (float, "explore"),
    "learner.stage_len": (_optional(int), "stage_len"),
    "learner.mu": (_optional(float), "mu"),
    "learner.delta": (float, "delta"),
    "sim.mode": (str, "mode"),
    "sim.n": (int, "n"),
    "sim.rounds": (int, "rounds"),
    "sim.churn_rate": (float, "churn_rate"),
    "sim.fixed_fraction": (float, "fixed_fraction"),
    "sim.fixed_base": (int, "fixed_base"),
    "sim.fixed_explore": (float, "fixed_explore"),
    "sim.seed": (int, "seed"),
    "sim.target": (int, "target"),
    "sim.metrics_eta": (float, "metrics_eta"),
    "sweep.populations": (_parse_int_list, None),
    "sweep.seeds": (_parse_int_list, None),
    "sweep.learners": (_parse_str_list, None),
}
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """key -> parsed value for every key in CONFIG_KEYS, defaults filled in."""
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
        parser = CONFIG_KEYS[key][0]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError):
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from None
    for key, (_, field) in CONFIG_KEYS.items():
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
    kwargs = {field: values[key] for key, (_, field) in CONFIG_KEYS.items() if field}
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
