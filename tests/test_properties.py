"""Property tests: flat mesh geometry under scaling and rotation, the flow's
symmetries on both backends, and the command line's exit contract over
drawn run files.

Each geometry example is a level 1-2 euclidean ellipsoid with drawn
semiaxes, so the properties cost milliseconds; each symmetry example runs
a level 2-3 seed for tens of steps; each run file has `seed.level <= 1`
and a small `flow.t_end`.  The runs are derandomized and keep no example
database, so the suite stays deterministic.
"""

import contextlib
import functools
import io
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckflow import ambient, ckv, cli, config, diagnostics, flow, surface
from conftest import assert_traces_close, run_backend

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
    # f = 0 under Euclidean, so the curved H is the flat one
    return surface.mesh_geometry(mesh, EUCLID, PAIR).H


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


# each geometry with the largest semiaxis that keeps a seed in its chart
SMOOTHING_GEOMETRIES = st.sampled_from([
    (EUCLID, 2.0), (ambient.PaperExample(), 1.5), (ambient.PoincareBall(), 0.7),
])


@CHEAP
@given(semiaxes, levels, SMOOTHING_GEOMETRIES)
def test_smoothing_pass_keeps_the_curved_volume(axes, level, geom_size):
    # the pass as the front runs it: the tangential move, then the
    # projection onto the seed's curved volume, its one volume correction
    geom, size = geom_size
    mesh = surface.ellipsoid_seed(np.multiply(axes, size / max(axes)), level)
    vol = surface.enclosed_volume(mesh, geom)
    smoothed = flow._rescale_to_volume(surface.tangential_smooth(mesh), geom,
                                       vol)
    assert abs(surface.enclosed_volume(smoothed, geom) / vol - 1.0) \
        <= flow.VOLUME_TOL


@CHEAP
@given(semiaxes, levels, st.integers(0, 2**16))
def test_smoothing_moves_each_vertex_orthogonally_to_its_normal(axes, level,
                                                                 seed):
    mesh = surface.ellipsoid_seed(axes, level)
    # jittered, so that no vertex sits at its one-ring centroid by symmetry
    jitter = np.random.default_rng(seed).normal(size=mesh.vertices.shape)
    mesh = mesh.with_vertices(mesh.vertices + 0.05 * mesh.min_edge * jitter)
    move = surface.tangential_smooth(mesh).vertices - mesh.vertices
    assert np.min(np.linalg.norm(move, axis=1)) > 1e-6 * mesh.min_edge
    along = np.einsum("ij,ij->i", move, mesh.normals)
    # the rounding of v + move is all that is left along the normal
    assert np.max(np.abs(along)) <= 1e-14 * np.max(np.abs(mesh.vertices))


# --------------------------------------------------------------------------
# the flow's symmetries: an isometry that keeps the conformal Killing pair
# maps a run to a run, and in flat space with omega = 0 so does x -> s x,
# with F(t) -> s F(t / s)
# --------------------------------------------------------------------------

SYMMETRY = settings(max_examples=3, deadline=None, derandomize=True,
                    database=None)
BACKENDS = ["lagrangian", "leaf_graph"]
PAIR_E3 = ckv.KillingPair(omega=1.0, axis=(0.0, 0.0, 1.0))


def assert_max_close(actual, desired, rtol):
    """Max-norm agreement relative to the largest magnitude of `desired`."""
    assert np.max(np.abs(actual - desired)) <= rtol * np.max(np.abs(desired))


def flat_seed(level):
    return surface.ellipsoid_seed((1.3, 1.0, 0.9), level)


@functools.lru_cache(maxsize=None)
def unscaled_run(backend, level):
    return run_backend(backend, EUCLID, PAIR, flat_seed(level),
                       flow.StepControl(t_end=8.0))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("level", [2, 3])
@SYMMETRY
@given(st.floats(0.3, 3.0))
def test_flat_flow_is_scale_covariant(backend, level, s):
    base = unscaled_run(backend, level)
    seed = flat_seed(level)
    res = run_backend(backend, EUCLID, PAIR,
                      seed.with_vertices(s * seed.vertices),
                      flow.StepControl(t_end=8.0 * s))
    assert (res.steps, res.reason) == (base.steps, base.reason)
    assert abs(res.t / (s * base.t) - 1.0) <= 1e-12
    for name, power in (("time", 1), ("dt", 1), ("area", 2), ("volume", 3)):
        np.testing.assert_allclose(res.trace.column(name),
                                   s**power * base.trace.column(name),
                                   rtol=1e-12, atol=0.0, err_msg=name)
    assert_max_close(res.mesh.vertices, s * base.mesh.vertices, 1e-12)


def twisted_seed(level):
    return surface.checked_seed(surface.ellipsoid_seed((1.6, 0.7, 0.7), level),
                                EUCLID, PAIR_E3, 1.5)[0]


# (geometry, pair, seed, backend, t_end, the axis rotations keep or None
# for any); the curved graph breaks down after some 20 steps at L3 and at
# step 0 at L2, so it stops early, and the twisted seed is not a radial
# graph, so only the front runs it
ROTATION_CASES = {
    "flat front": (EUCLID, PAIR, lambda: flat_seed(2), "lagrangian", 8.0,
                   None),
    "flat graph": (EUCLID, PAIR, lambda: flat_seed(2), "leaf_graph", 8.0,
                   None),
    "poincare front": (ambient.PoincareBall(), PAIR,
                       lambda: surface.ellipsoid_seed((0.65, 0.5, 0.45), 2),
                       "lagrangian", 8.0, None),
    "poincare graph": (ambient.PoincareBall(), PAIR,
                       lambda: surface.ellipsoid_seed((0.65, 0.5, 0.45), 2),
                       "leaf_graph", 0.1, None),
    "paper front": (ambient.PaperExample(), PAIR,
                    lambda: surface.ellipsoid_seed((1.08, 1.0, 0.93), 3),
                    "lagrangian", 0.2, (1.0, 0.0, 0.0)),
    "paper graph": (ambient.PaperExample(), PAIR,
                    lambda: surface.ellipsoid_seed((1.08, 1.0, 0.93), 3),
                    "leaf_graph", 0.01, (1.0, 0.0, 0.0)),
    "twisted front": (EUCLID, PAIR_E3, lambda: twisted_seed(2), "lagrangian",
                      8.0, PAIR_E3.axis),
}


@functools.lru_cache(maxsize=None)
def unrotated_run(case):
    geom, pair, seed, backend, t_end, _ = ROTATION_CASES[case]
    return run_backend(backend, geom, pair, seed(),
                       flow.StepControl(t_end=t_end))


@pytest.mark.parametrize("case", sorted(ROTATION_CASES))
@SYMMETRY
@given(quaternions, st.floats(-np.pi, np.pi))
def test_flow_is_covariant_under_the_isometries_that_keep_the_pair(case, q,
                                                                   angle):
    geom, pair, seed, backend, t_end, axis = ROTATION_CASES[case]
    if axis is not None:
        q = (np.cos(angle / 2), *(np.sin(angle / 2) * np.asarray(axis)))
    rot = rotation(q)
    base, seed = unrotated_run(case), seed()
    res = run_backend(backend, geom, pair,
                      seed.with_vertices(seed.vertices @ rot.T),
                      flow.StepControl(t_end=t_end))
    # the residual columns are small differences of O(1) sums, so they are
    # compared on their column's scale (see `assert_traces_close`)
    assert_traces_close(res.trace, base.trace, rtol=1e-10)
    assert_max_close(res.mesh.vertices, base.mesh.vertices @ rot.T, 1e-12)


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
    "flow.leaf_tol": _number(1e-3, 0.1),
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
    # bound the cost of a run; the default sphere seed converges at once,
    # so the seed kind is always drawn
    for key in ("seed.kind", "seed.level", "flow.t_end"):
        values.setdefault(key, draw(RUN_FILE_VALUES[key]))
    if draw(st.booleans()):
        values[draw(st.sampled_from(sorted(RUN_FILE_VALUES)))] = draw(JUNK)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def test_run_file_values_cover_the_registry():
    assert set(RUN_FILE_VALUES) == set(config.REGISTRY)


TINY_TWISTED = ("seed.kind = twisted\nseed.twist = 1\n"
                "seed.semiaxes = [1e-300, 1e-300, 1e-300]\nseed.level = 0\n")
# a sphere seed converges at once and drawn ellipsoids or twisted seeds
# often fail early, so these take a few steps each, through the
# lagged-factor CG of both backends
STEPPING = "seed.level = 1\nflow.cfl = 0.05\nflow.t_end = 0.05\n"
STEPPING_ELLIPSOID = ("seed.kind = ellipsoid\nseed.semiaxes = [1.3, 1, 1]\n"
                      + STEPPING)
STEPPING_TWISTED = ("seed.kind = twisted\nseed.semiaxes = [1.6, 0.7, 0.7]\n"
                    "seed.twist = 1.5\nrotation.axis = [0, 0, 1]\n"
                    "rotation.omega = 1.0\n" + STEPPING)


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
@example(STEPPING_ELLIPSOID, "run", False)
@example(STEPPING_ELLIPSOID + "flow.backend = leaf_graph\n", "run", False)
@example(STEPPING_TWISTED, "run", False)
def test_every_run_file_ends_in_a_documented_exit(text, cmd, force):
    # a run that writes trace.csv runs again into a fresh directory: the
    # same config gives the same bytes; a flow error that left a trace
    # names the step and time it came from
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/run.cfg"
        with open(path, "w") as fh:
            fh.write(text)

        def main(out):
            args = [cmd, "--config", path, "--out", f"{tmp}/{out}", "--quiet"]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(args + (["--force"] if force else []))
            return code, err.getvalue().strip().splitlines()[-2:]

        code, (*error, status) = main("out")
        assert status.startswith("STATUS="), status
        assert cli.STATUS_CODE[status[len("STATUS="):]] == code
        trace = pathlib.Path(tmp, "out", "trace.csv")
        if cmd == "run" and trace.exists():
            assert main("again") == (code, [*error, status])
            again = pathlib.Path(tmp, "again", "trace.csv").read_bytes()
            assert again == trace.read_bytes()
        if cmd == "run" and status in ("STATUS=ok", "STATUS=nonconv"):
            _assert_volume_kept_and_area_not_increased(trace)
        if cmd == "run" and status == "STATUS=flow" and trace.exists():
            assert re.match(r"flow error: (graph )?step \d+ from t=\S+: ",
                            error[0]), error


# two roundings to the 9 significant digits of trace.csv
CSV_ROUNDING = 1e-8


def _assert_volume_kept_and_area_not_increased(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    volume = rows[:, diagnostics.TRACE_COLUMNS.index("volume")]
    area = rows[:, diagnostics.TRACE_COLUMNS.index("area")]
    assert np.max(np.abs(volume / volume[0] - 1.0)) <= 5e-3
    limit = 1.0 + flow.StepControl.area_slack + CSV_ROUNDING
    assert np.all(area[1:] <= area[:-1] * limit)
