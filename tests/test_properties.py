"""Property tests: flat mesh geometry under scaling and rotation, and the
command line's exit contract over drawn run files.

Each geometry example is a level 1-2 euclidean ellipsoid with drawn
semiaxes, so the properties cost milliseconds; each run file has
`seed.level <= 1` and a small `flow.t_end`.  The runs are derandomized and
keep no example database, so the suite stays deterministic.
"""

import contextlib
import io
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckflow import ambient, ckv, cli, config, surface

EUCLID = ambient.Euclidean()
PAIR = ckv.KillingPair()

CHEAP = settings(max_examples=12, deadline=None, derandomize=True,
                 database=None)

semiaxes = st.tuples(*[st.floats(0.5, 2.0)] * 3)
levels = st.sampled_from([1, 2])
scales = st.floats(0.1, 10.0)
# rotations from four uniform draws normalised to a unit quaternion, kept
# away from the zero vector
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)


def rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def h_flat(mesh):
    return surface.mesh_geometry(mesh, EUCLID, PAIR,
                                 with_curvatures=False).H_flat


@CHEAP
@given(semiaxes, levels, scales)
def test_area_volume_and_mean_curvature_scale(axes, level, s):
    mesh = surface.ellipsoid_seed(axes, level)
    big = mesh.with_vertices(s * mesh.vertices)
    area, vol, h = (surface.surface_area(mesh, EUCLID),
                    surface.enclosed_volume(mesh, EUCLID), h_flat(mesh))
    assert abs(surface.surface_area(big, EUCLID) / (s * s * area) - 1.0) <= 1e-12
    assert abs(surface.enclosed_volume(big, EUCLID) / (s**3 * vol) - 1.0) <= 1e-12
    assert np.max(np.abs(s * h_flat(big) / h - 1.0)) <= 1e-12


@CHEAP
@given(semiaxes, levels, quaternions)
def test_normals_and_mean_curvature_are_rotation_covariant(axes, level, q):
    mesh = surface.ellipsoid_seed(axes, level)
    rot = rotation(q)
    turned = mesh.with_vertices(mesh.vertices @ rot.T)
    nu = surface.vertex_normals(mesh)
    assert np.max(np.abs(surface.vertex_normals(turned) - nu @ rot.T)) <= 1e-12
    h = h_flat(mesh)
    assert np.max(np.abs(h_flat(turned) / h - 1.0)) <= 1e-12


@CHEAP
@given(semiaxes, levels)
def test_tangential_smooth_keeps_flat_volume(axes, level):
    mesh = surface.ellipsoid_seed(axes, level)
    smoothed = surface.tangential_smooth(mesh)
    vol = surface.enclosed_volume_flat(mesh)
    assert abs(surface.enclosed_volume_flat(smoothed) / vol - 1.0) <= 1e-12


# --------------------------------------------------------------------------
# run files: every input ends in a documented exit code
# --------------------------------------------------------------------------


def _number(lo, hi):
    return st.floats(lo, hi).map(lambda v: f"{v:.6g}")


def _integer(lo, hi):
    return st.integers(lo, hi).map(str)


def _vec3(lo, hi):
    return st.tuples(*[st.floats(lo, hi)] * 3).map(
        lambda v: "[" + ", ".join(f"{x:.6g}" for x in v) + "]")


def _choice(key):
    return st.sampled_from(config.REGISTRY[key][2])


# values that run in well under a second at seed.level <= 1; a key
# added to the registry must be added here
RUN_FILE_VALUES = {
    "geometry": _choice("geometry"),
    "poincare_ball.radius": _number(0.5, 3.0),
    "rotation.axis": _vec3(-1.0, 1.0),
    "rotation.omega": _number(-2.0, 2.0),
    "schedule.t0": st.one_of(st.just("auto"), _number(0.1, 4.0)),
    "schedule.margin": _number(0.01, 0.99),
    "seed.kind": _choice("seed.kind"),
    "seed.radius": _number(0.2, 2.5),
    "seed.semiaxes": _vec3(0.2, 2.5),
    "seed.twist": _number(-2.0, 2.0),
    "seed.level": _integer(0, 1),
    "flow.backend": _choice("flow.backend"),
    "flow.cfl": _number(0.05, 0.5),
    "flow.t_end": _number(1e-3, 0.05),
    "flow.speed_tol": _number(1e-3, 0.1),
    "flow.leaf_tol": _number(1e-3, 0.1),
    "flow.smooth_every": _integer(0, 3),
    "flow.max_steps": _integer(0, 30),
    "output.frame_every": _integer(0, 2),
    "sampling.seed": _integer(0, 5),
}
# malformed, out-of-range or extreme text for any one key
JUNK = st.sampled_from(["nan", "inf", "-1", "0", "1e-300", "fast",
                        "[1, 0, 1]", "[1e-200, 0, 0]", "[1, 2", "auto"])
# `run` reads every key; the other commands read a few
COMMANDS = st.one_of(st.just("run"), st.sampled_from(sorted(cli.COMMANDS)))


@st.composite
def run_files(draw):
    keys = draw(st.lists(st.sampled_from(sorted(RUN_FILE_VALUES)),
                         unique=True, max_size=8))
    values = {key: draw(RUN_FILE_VALUES[key]) for key in keys}
    for key in ("seed.level", "flow.t_end"):  # bound the cost of a run
        values.setdefault(key, draw(RUN_FILE_VALUES[key]))
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(RUN_FILE_VALUES)))] = draw(JUNK)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def test_run_file_values_cover_the_registry():
    assert set(RUN_FILE_VALUES) == set(config.REGISTRY)


TINY_TWISTED = ("seed.kind = twisted\nseed.twist = 1\n"
                "seed.semiaxes = [1e-300, 1e-300, 1e-300]\nseed.level = 0\n")


# a numpy warning is a defect here too (the CI fast step errors on it), so
# the explicit examples cover seeds whose scale underflows the geometry
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(run_files(), COMMANDS, st.booleans())
@example("seed.radius = 1e-300\nseed.level = 0\n", "run", False)
@example("seed.radius = 1e-300\nseed.level = 0\n", "seed", False)
@example("seed.radius = 1e-150\nseed.level = 0\n", "seed", False)
@example(TINY_TWISTED, "seed", False)
@example(TINY_TWISTED, "run", False)
def test_every_run_file_ends_in_a_documented_exit(text, cmd, force):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/run.cfg"
        with open(path, "w") as fh:
            fh.write(text)
        args = [cmd, "--config", path, "--out", f"{tmp}/out", "--quiet"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(args + (["--force"] if force else []))
    status = err.getvalue().strip().splitlines()[-1]
    assert status.startswith("STATUS="), status
    assert cli.STATUS_CODE[status[len("STATUS="):]] == code
