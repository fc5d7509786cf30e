"""Run-file parsing and validation."""

import pytest

from ckflow import config
from ckflow.errors import ConfigError


def test_empty_text_yields_defaults():
    cfg = config.parse_config("")
    assert cfg["geometry"] == "euclidean"
    assert cfg["seed.kind"] == "sphere"
    assert cfg["seed.level"] == 4
    assert cfg["schedule.t0"] == "auto"
    assert cfg["rotation.axis"] == (1.0, 0.0, 0.0)
    assert set(cfg) == set(config.REGISTRY)


def test_values_comments_and_lists():
    text = """
    # a curved run
    geometry = paper_example
    seed.kind = ellipsoid           # inline comment
    seed.semiaxes = [1.08, 1, 0.93]
    flow.t_end = 12.5
    flow.smooth_every = 5
    schedule.t0 = 2.0
    rotation.omega = 1e-1
    """
    cfg = config.parse_config(text)
    assert cfg["geometry"] == "paper_example"
    assert cfg["seed.semiaxes"] == (1.08, 1.0, 0.93)
    assert cfg["flow.t_end"] == 12.5
    assert cfg["flow.smooth_every"] == 5
    assert cfg["schedule.t0"] == 2.0
    assert cfg["rotation.omega"] == 0.1
    # untouched keys keep their defaults
    assert cfg["flow.backend"] == "lagrangian"


@pytest.mark.parametrize("line,fragment", [
    ("colour = red", "unknown key"),
    ("geometry = flat", "must be one of"),
    ("flow.t_end = fast", "must be a number"),
    ("seed.level = 3.5", "must be an integer"),
    ("seed.semiaxes = [1, 2]", "3-component"),
    ("seed.semiaxes = [1, 2, x]", "non-numeric"),
    ("seed.semiaxes = [1, 2, 3", "unterminated"),
    ("schedule.t0 = soon", "'auto' or a number"),
    ("flow.cfl =", "empty value"),
    ("flow.cfl", "expected 'key = value'"),
    ("flow.t_end = inf", "must be finite"),
    ("seed.semiaxes = [1, nan, 1]", "must be finite"),
    ("schedule.margin = 1", r"must be in \(0, 1\)"),
    ("schedule.t0 = 0", "must be > 0"),
    ("sampling.seed = -1", "must be >= 0"),
])
def test_rejects_malformed_lines(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config.parse_config(line)


def test_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate"):
        config.parse_config("flow.cfl = 0.2\nflow.cfl = 0.3\n")


def test_error_carries_file_and_line():
    with pytest.raises(ConfigError, match=r"run\.cfg:3"):
        config.parse_config("\n\nbogus = 1\n", name="run.cfg")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed.radius = 0.7\n")
    cfg = config.load_config(path)
    assert cfg["seed.radius"] == 0.7
    with pytest.raises(ConfigError, match="cannot read"):
        config.load_config(tmp_path / "missing.cfg")
