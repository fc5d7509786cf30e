"""End-to-end command line behavior: exit codes, artifacts, determinism."""

import os
import subprocess
import sys

import numpy as np
import pytest

import ckflow
from ckflow import ambient, cli, errors, flow, surface
from ckflow.config import parse_config
from ckflow.diagnostics import TRACE_COLUMNS
from ckflow.errors import (
    DomainExit,
    EllipticityLost,
    GradientBoundExceeded,
    SeedInfeasible,
)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return cli.main(args)


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


def test_run_flat_sphere_is_instant(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "seed.level = 2\n")
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "STATUS=ok" in captured.err
    assert "overall: pass" in captured.out
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 2  # a leaf converges before the first step
    verdict = (out / "verdict.txt").read_text()
    assert "isoperimetric_pass = true" in verdict
    assert "converged = true" in verdict


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_run_is_deterministic(tmp_path, backend):
    text = ("seed.kind = ellipsoid\nseed.semiaxes = [1.3, 1, 1]\n"
            f"seed.level = 2\nflow.t_end = 0.05\nflow.backend = {backend}\n")
    cfg = write_cfg(tmp_path, text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"])
        assert code == 3  # t_end hits before convergence; artifacts still land
        outs.append(out)
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
    assert (outs[0] / "verdict.txt").read_bytes() == (outs[1] / "verdict.txt").read_bytes()


def test_run_nonconvergence_exit(tmp_path, capsys):
    text = ("seed.kind = ellipsoid\nseed.semiaxes = [1.5, 1, 1]\n"
            "seed.level = 2\nflow.t_end = 0.02\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 3
    assert "STATUS=nonconv" in captured.err
    assert (out / "trace.csv").exists()
    assert "converged = false" in (out / "verdict.txt").read_text()


def test_run_writes_frames(tmp_path):
    text = ("seed.kind = ellipsoid\nseed.semiaxes = [1.3, 1, 1]\n"
            "seed.level = 2\nflow.t_end = 0.4\noutput.frame_every = 2\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    head = (out / "frame_0.obj").read_text().split("\n")[0]
    assert head.startswith("#")
    steps = len((out / "trace.csv").read_text().strip().split("\n")) - 2
    assert steps % 2 == 1  # the last frame is off the cadence
    saved = sorted(int(p.stem.split("_")[1]) for p in out.glob("frame_*.obj"))
    assert saved == list(range(0, steps, 2)) + [steps]


def test_run_writes_each_frame_once(tmp_path, monkeypatch):
    # every step is on the cadence, the last one included
    written, save = [], surface.save_obj

    def spy(mesh, path, **kwargs):
        written.append(os.path.basename(path))
        save(mesh, path, **kwargs)

    monkeypatch.setattr(surface, "save_obj", spy)
    text = ("seed.kind = ellipsoid\nseed.semiaxes = [1.3, 1, 1]\n"
            "seed.level = 2\nflow.t_end = 0.3\noutput.frame_every = 1\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    steps = len((out / "trace.csv").read_text().strip().split("\n")) - 2
    assert written == [f"frame_{k}.obj" for k in range(steps + 1)]


def test_run_graph_backend(tmp_path, capsys):
    text = "seed.level = 2\nflow.backend = leaf_graph\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    assert "STATUS=ok" in capsys.readouterr().err


ELLIPSOID = ("seed.kind = ellipsoid\nseed.semiaxes = [1.3, 1, 1]\n"
             "seed.level = 2\n")
GRAPH_ELLIPSOID = ELLIPSOID + "flow.backend = leaf_graph\n"


def _raise_from(monkeypatch, name, error):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(flow, name, failing)


def _flow_error(backend, name, error):
    return pytest.param(backend, name, error,
                        id=f"{backend}-{name}-{error.__name__}")


@pytest.mark.parametrize("backend, name, error", [
    _flow_error("leaf_graph", "_graph_guards", GradientBoundExceeded),
    _flow_error("leaf_graph", "step_graph", DomainExit),
    _flow_error("lagrangian", "step_lagrangian", DomainExit),
])
def test_run_flow_error_writes_partial_trace(tmp_path, capsys, monkeypatch,
                                             backend, name, error):
    _raise_from(monkeypatch, name, error)
    cfg = write_cfg(tmp_path, ELLIPSOID + f"flow.backend = {backend}\n")
    out = tmp_path / "out"
    code = run_cli(["run", "--config", cfg, "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert "STATUS=flow" in captured.err
    # the driver names the step and time the error came from, once
    label = "graph " if backend == "leaf_graph" else ""
    assert f"flow error: {label}step 0 from t=0: injected\n" in captured.err
    assert captured.err.count(" from t=") == 1
    # the partial trace holds the loop-top row written before the first step
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 2


def test_run_any_package_error_exits_flow(tmp_path, capsys, monkeypatch):
    _raise_from(monkeypatch, "_graph_guards", EllipticityLost)
    cfg = write_cfg(tmp_path, GRAPH_ELLIPSOID)
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert "STATUS=flow" in captured.err
    assert "injected" in captured.err


# a star-shaped ellipsoid that is not star-shaped for the scheduled field:
# the fast rotation about z drives u to -3.242 on its long flanks
ROTATED_ELLIPSOID = ("seed.semiaxes = [1.6, 0.7, 0.7]\nseed.level = 2\n"
                     "rotation.axis = [0, 0, 1]\nrotation.omega = 5.0\n")


@pytest.mark.parametrize("cmd", ["seed", "run"])
def test_seed_not_starshaped_for_the_field_exits_flow(tmp_path, capsys, cmd):
    cfg = write_cfg(tmp_path, "seed.kind = ellipsoid\n" + ROTATED_ELLIPSOID)
    out = tmp_path / "out"
    code = run_cli([cmd, "--config", cfg, "--out", str(out), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("STATUS=") == 1
    assert "STATUS=flow" in captured.err
    assert "starshape" in captured.err
    assert not (out / "seed.obj").exists()
    assert not (out / "trace.csv").exists()


def test_every_seed_kind_gets_the_same_starshape_check():
    geom = ambient.Euclidean()
    messages = []
    for kind in ("seed.kind = ellipsoid\n",
                 "seed.kind = twisted\nseed.twist = 0\n"):
        cfg = parse_config(kind + ROTATED_ELLIPSOID)
        with pytest.raises(SeedInfeasible) as exc:
            cli.make_seed(cfg, geom, cli.make_pair(cfg))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    cfg = parse_config(ROTATED_ELLIPSOID)
    seed = surface.ellipsoid_seed(cfg["seed.semiaxes"], cfg["seed.level"])
    vg = surface.mesh_geometry(seed, geom, cli.make_pair(cfg), xi_now=1.0)
    min_u = float(np.min(vg.u))
    assert min_u < 0.0
    assert f"min u = {min_u:.3e};" in messages[0]


def test_run_twisted_without_rotation_fails_starshape(tmp_path, capsys):
    text = ("seed.kind = twisted\nseed.semiaxes = [1.6, 0.7, 0.7]\n"
            "seed.twist = 1.5\nseed.level = 2\n"
            "rotation.axis = [0, 0, 1]\nrotation.omega = 0.0\n")
    cfg = write_cfg(tmp_path, text)
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert "STATUS=flow" in captured.err
    assert "starshape" in captured.err


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def test_verify_curved_geometry_passes(tmp_path, capsys):
    text = "geometry = paper_example\nseed.radius = 0.9\nseed.level = 2\n"
    cfg = write_cfg(tmp_path, text)
    code = run_cli(["verify", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: pass" in captured.out
    assert "STATUS=ok" in captured.err


def test_verify_wrong_rotation_axis_fails(tmp_path, capsys):
    # the curved example is symmetric about the x axis only
    text = ("geometry = paper_example\nseed.radius = 0.9\nseed.level = 2\n"
            "rotation.axis = [0, 0, 1]\nrotation.omega = 1.0\n")
    cfg = write_cfg(tmp_path, text)
    code = run_cli(["verify", "--config", cfg, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "overall: FAIL" in captured.out
    assert "STATUS=assumptions" in captured.err


# --------------------------------------------------------------------------
# a seed at or past the chart boundary
# --------------------------------------------------------------------------


SEEDS_OUTSIDE = {
    "poincare_default_seed": "geometry = poincare_ball\n",  # on the ball
    # inside the chart, but its clipped label band is empty; `seed` builds
    # no band, so it runs only the first case
    "paper_seed_r1.99": "geometry = paper_example\nseed.radius = 1.99\n",
}


@pytest.mark.parametrize("text, cmd", [
    pytest.param(SEEDS_OUTSIDE[name], cmd, id=f"{name}-{cmd}")
    for name in SEEDS_OUTSIDE for cmd in ("verify", "run", "profile", "seed")
    if cmd != "seed" or name == "poincare_default_seed"
])
def test_seed_outside_the_chart_exits_flow(tmp_path, capsys, cmd, text):
    cfg = write_cfg(tmp_path, text)
    code = run_cli([cmd, "--config", cfg, "--out", str(tmp_path / "out"),
                    "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert "STATUS=flow" in captured.err
    assert "chart" in captured.err


# --------------------------------------------------------------------------
# profile
# --------------------------------------------------------------------------


def test_profile_flat_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, "")
    out = tmp_path / "out"
    assert run_cli(["profile", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    r, area, volume = rows[:, 0], rows[:, 1], rows[:, 2]
    assert rows.shape[0] > 100
    assert np.max(np.abs(area / (4.0 * np.pi * r**2) - 1.0)) < 5e-3
    assert np.all(np.diff(volume) > 0.0)


@pytest.mark.parametrize("level", range(2, 6))
def test_shell_bounds_reads_the_passed_base(level):
    text = ("geometry = paper_example\nseed.kind = ellipsoid\n"
            f"seed.semiaxes = [1.08, 1.0, 0.93]\nseed.level = {level}\n")
    parsed = parse_config(text)
    geom = cli.make_geometry(parsed)
    base = cli._base_seed(parsed, level)
    assert cli.shell_bounds(parsed, geom, base) == \
        cli.shell_bounds(parsed, geom)


def test_run_builds_one_icosphere(tmp_path, monkeypatch):
    calls = []
    original = surface.icosphere

    def counted(level):
        calls.append(level)
        return original(level)

    monkeypatch.setattr(surface, "icosphere", counted)
    cfg = write_cfg(tmp_path, "seed.level = 2\n")
    assert run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                    "--quiet"]) == 0
    assert calls == [2]


def test_profile_near_the_pole_matches_the_closed_forms(tmp_path):
    # a paper-example sphere of radius 1.9 profiles leaves out to r = 1.91,
    # 0.09 from the pole, where exp(f) peaks
    text = ("geometry = paper_example\nseed.kind = sphere\n"
            "seed.radius = 1.9\nseed.level = 2\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli(["profile", "--config", cfg, "--out", str(out),
                    "--quiet"]) == 0
    rows = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    parsed = parse_config(text)
    geom = cli.make_geometry(parsed)
    lam_lo, lam_hi = cli.shell_bounds(parsed, geom)
    r = np.linspace(geom.r_of_lambda(lam_lo), geom.r_of_lambda(lam_hi),
                    rows.shape[0])
    assert r[-1] > 1.9
    area = 4.0 * np.pi * r**2 / (4.0 - r**2) ** 2
    volume = 4.0 * np.pi * r**3 / (3.0 * (4.0 - r**2) ** 3)
    # the file keeps 9 significant digits: a relative rounding of <= 5e-9
    for column, exact in enumerate((r, area, volume)):
        np.testing.assert_allclose(rows[:, column], exact, rtol=5e-9, atol=0.0)


# --------------------------------------------------------------------------
# seed
# --------------------------------------------------------------------------


def test_seed_twisted_reports_support_minima(tmp_path, capsys):
    text = ("seed.kind = twisted\nseed.semiaxes = [1.6, 0.7, 0.7]\n"
            "seed.twist = 1.5\nseed.level = 2\n"
            "rotation.axis = [0, 0, 1]\nrotation.omega = 1.0\n")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = run_cli(["seed", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "seed.obj").exists()
    vals = {}
    for line in captured.out.split("\n"):
        if " = " in line:
            key, _, val = line.partition(" = ")
            vals[key.strip()] = val.strip()
    assert float(vals["min_u0"]) > 0.0
    assert float(vals["min_uperp"]) < 0.0


# --------------------------------------------------------------------------
# config failures
# --------------------------------------------------------------------------


def test_unknown_key_exits_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "colour = red\n")
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 64
    assert "STATUS=config" in capsys.readouterr().err


def test_unusable_out_exits_config(tmp_path, capsys):
    # an output path that names a file cannot become a directory
    cfg = write_cfg(tmp_path, "seed.level = 0\n")
    out = tmp_path / "taken"
    out.write_text("")
    code = run_cli(["seed", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 64
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out}" in err
    assert err.strip().splitlines()[-1] == "STATUS=config"


@pytest.mark.parametrize("line", [
    "flow.cfl = 0.9",
    "seed.level = -1",
    "seed.level = 8",
    "poincare_ball.radius = 0",
    "poincare_ball.radius = 1e-300",
    "poincare_ball.radius = 1e155",
    "seed.semiaxes = [1, 0, 1]",
    "seed.radius = 1e100",
    "seed.semiaxes = [1e100, 1, 1]",
    "rotation.axis = [0, 0, 0]",
    "rotation.axis = [1e-200, 0, 1e-300]",
    "rotation.axis = [1e200, 0, 0]",
    "flow.t_end = nan",
])
def test_out_of_range_value_exits_config(tmp_path, capsys, monkeypatch, line):
    def no_computation(cfg):
        raise AssertionError("computation started before the config check")

    monkeypatch.setattr(cli, "make_geometry", no_computation)
    cfg = write_cfg(tmp_path, line + "\n")
    code = run_cli(["run", "--config", cfg, "--out", str(tmp_path)])
    assert code == 64
    assert "STATUS=config" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["seed", "verify"])
@pytest.mark.parametrize("text", [
    "seed.radius = 1e76\n",
    "seed.kind = ellipsoid\nseed.semiaxes = [1e76, 1, 1]\n",
])
def test_largest_seed_sizes_run_clean(tmp_path, capsys, cmd, text):
    # numpy overflow warnings are errors in this suite
    cfg = write_cfg(tmp_path, text + "seed.level = 1\n")
    code = run_cli([cmd, "--config", cfg, "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert "STATUS=ok" in capsys.readouterr().err


def test_missing_config_exits_config(tmp_path, capsys):
    code = run_cli(["run", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path)])
    assert code == 64
    assert "STATUS=config" in capsys.readouterr().err


# --------------------------------------------------------------------------
# the exit table
# --------------------------------------------------------------------------


PACKAGE_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.CkflowError)]
# an error's code and message prefix, as the module docstring documents them
DOCUMENTED_EXIT = {
    errors.ConfigError: (64, "config error"),
    errors.ScheduleInfeasible: (1, "schedule infeasible"),
    errors.SeedInfeasible: (2, "starshape violation"),
    errors.ProfileNotMonotone: (2, "profile error"),
}


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_every_package_error_ends_in_its_documented_exit(tmp_path, capsys,
                                                         monkeypatch, error):
    def failing(*args):
        raise error("injected")

    monkeypatch.setattr(cli, "make_seed", failing)
    cfg = write_cfg(tmp_path, "seed.level = 0\n")
    code = run_cli(["seed", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    expected_code, prefix = DOCUMENTED_EXIT.get(error, (2, "flow error"))
    assert code == expected_code
    assert captured.err.count("STATUS=") == 1
    assert captured.err.strip().splitlines()[-1] == next(
        f"STATUS={name}" for name, c in cli.STATUS_CODE.items() if c == code)
    assert f"{prefix}: injected" in captured.err


# --------------------------------------------------------------------------
# the run path and the oracles
# --------------------------------------------------------------------------


def _python(tmp_path, code):
    """Run `code` in a fresh interpreter that imports this ckflow."""
    src = os.path.dirname(os.path.dirname(ckflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_no_command_loads_the_oracles(tmp_path):
    # the oracles check the paper's claims for the tests; every command runs
    # without them, and they import on their own.  No command loads
    # scipy.stats or scipy.optimize either: the shell sampler and the leaf
    # radius's root are ckflow's own
    cfg = write_cfg(tmp_path, "seed.kind = ellipsoid\n"
                    "seed.semiaxes = [1.3, 1, 1]\nseed.level = 1\n")
    out = _python(tmp_path, (
        "import sys\nfrom ckflow import cli\n"
        "codes = [cli.main([cmd, '--config', 'run.cfg', '--quiet'])\n"
        "         for cmd in ('run', 'verify', 'profile', 'seed')]\n"
        "names = ('ckflow.oracles', 'scipy.stats', 'scipy.optimize')\n"
        "print(codes, [name in sys.modules for name in names])\n"))
    assert out.splitlines()[-1] == "[0, 0, 0, 0] [False, False, False]"
    assert (tmp_path / "trace.csv").read_text().count("\n") > 2  # it stepped
    _python(tmp_path, "import ckflow.oracles\n")
