"""Config file parsing and experiment grids."""

import ast
import re
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

import anonlearn
from anonlearn import ConfigError, RunConfig, load_experiment, parse_config_text
from anonlearn.config import CONFIG_KEYS, SETTINGS, cells_from_values


SAMPLE = """\
# a full experiment
game.kind = contribution
game.penalty_n = 20

learner.kind = stage
learner.explore = 0.1

sim.n = 10
sim.rounds = 1000
sim.target = 8

sweep.populations = 2, 10
sweep.seeds = 0 1 2
"""


def test_parse_fills_defaults():
    values = parse_config_text("sim.n = 50\n")
    assert values["sim.n"] == 50
    assert values["game.kind"] == "contribution"
    assert values["learner.delta"] == 0.05
    assert values["sweep.seeds"] is None
    assert set(values) == set(CONFIG_KEYS)


def test_parse_comments_blanks_and_commas():
    values = parse_config_text(SAMPLE)
    assert values["sweep.populations"] == [2, 10]
    assert values["sweep.seeds"] == [0, 1, 2]
    assert values["learner.explore"] == 0.1


def test_parse_unknown_key_names_it():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'sim\.temperature'"):
        parse_config_text("sim.n = 4\nsim.temperature = 9\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("sim.n = 4\nsim.n = 5\n")


def test_parse_bad_value_reports_line():
    with pytest.raises(ConfigError, match=r"myfile:1: bad value for sim\.n"):
        parse_config_text("sim.n = ten\n", source="myfile")
    # only a whole line is a comment: after a value, # is part of the value
    with pytest.raises(ConfigError, match=r"<config>:2: bad value for sim\.n: '10  # agents'"):
        parse_config_text("  # agents\nsim.n = 10  # agents\n")


def test_parse_requires_assignment():
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("just some words\n")


def test_spec_grid_enumeration():
    cells = cells_from_values(parse_config_text(SAMPLE))
    assert [(c.n, c.seed) for c in cells] == [
        (2, 0), (2, 1), (2, 2), (10, 0), (10, 1), (10, 2)
    ]
    for cfg in cells:
        assert cfg.learner == "stage"
        assert cfg.explore == 0.1  # base carried through


def test_spec_defaults_axes_to_base():
    [cfg] = cells_from_values(parse_config_text("sim.n = 12\nsim.seed = 7\n"))
    assert (cfg.n, cfg.learner, cfg.seed) == (12, "stage", 7)


def test_spec_seed_override_replaces_seed_axis():
    cells = cells_from_values(parse_config_text(SAMPLE), seed=5)
    assert [(c.n, c.seed) for c in cells] == [(2, 5), (10, 5)]


def test_spec_rejects_invalid_base():
    with pytest.raises(ConfigError, match="explore"):
        cells_from_values(parse_config_text("learner.explore = 2.0\n"))


def test_spec_rejects_invalid_cell():
    # base is fine, but the n=3 cell is odd under matching
    text = "sim.mode = matching\nsim.n = 4\nsweep.populations = 4 3\n"
    with pytest.raises(ConfigError, match="even"):
        cells_from_values(parse_config_text(text))


def test_spec_rejects_duplicate_seeds():
    # every sweep axis: a repeated value would run one cell twice into the
    # same files
    for key, axis in (("sweep.seeds", "1 1"), ("sweep.populations", "10 10"),
                      ("sweep.learners", "stage regret stage")):
        with pytest.raises(ConfigError, match=f"{key}: must be nonempty and distinct"):
            cells_from_values(parse_config_text(f"{key} = {axis}\n"))


def test_experiment_spec_direct_validation(tmp_path):
    # an empty sweep axis is an error, with or without a forced seed
    path = tmp_path / "exp.cfg"
    for key in ("sweep.seeds", "sweep.populations", "sweep.learners"):
        path.write_text(f"{key} =\n")
        for seed in (None, 5):
            with pytest.raises(ConfigError, match=f"{key}: must be nonempty and distinct"):
                load_experiment(path, seed)


def test_load_experiment_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SAMPLE)
    cells = load_experiment(path)
    assert [c.rounds for c in cells] == [1000] * 6
    assert [c.n for c in cells] == [2, 2, 2, 10, 10, 10]


def test_load_experiment_error_names_file(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("nonsense\n")
    with pytest.raises(ConfigError, match="broken.cfg:1"):
        load_experiment(path)


def test_bundled_configs_parse():
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    for name in ("fig1_average.cfg", "fig2_matching.cfg"):
        cells = load_experiment(root / "configs" / name)
        assert len(cells) == 30  # 3 populations x 10 seeds
        assert {c.game for c in cells} == {"contribution"}


def test_every_run_config_field_has_one_settings_row():
    assert list(SETTINGS) == [f.name for f in fields(RunConfig)]
    keys = [key for key, _, _ in SETTINGS.values()]
    assert len(set(keys)) == len(keys)
    assert {CONFIG_KEYS[key] for key in keys} == set(SETTINGS)


def test_each_settings_row_has_its_fields_annotated_type():
    # the annotation is the row's type, optional exactly when the default is None (derived)
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kind = SETTINGS[f.name][1]
        assert hints[f.name] == (kind | None if f.default is None else kind), f.name


def test_readme_config_table_lists_every_config_key_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)`", section, flags=re.M)
    assert sorted(keys) == sorted(CONFIG_KEYS)


@pytest.mark.parametrize("field", [f.name for f in fields(RunConfig)])
def test_a_default_written_under_its_key_parses_back(field):
    # "" stands for a None default, the derived one
    default = getattr(RunConfig, field)
    key = SETTINGS[field][0]
    value = parse_config_text(f"{key} = {'' if default is None else default}\n")[key]
    assert value == default and type(value) is type(default)


def test_config_imports_nothing_from_the_run_loop():
    tree = ast.parse(Path(anonlearn.config.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert names.isdisjoint({"engine", "learners", "streams"})
    assert anonlearn.engine.RunConfig is anonlearn.config.RunConfig is RunConfig
