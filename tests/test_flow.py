"""Time integration: Lagrangian driver, leaf-graph backend, evolution checks."""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from ckflow import ckv, diagnostics, flow, oracles, surface
from ckflow.errors import MeshDegenerate, StarshapeLost
from conftest import assert_traces_close, seed_label_band, twisted_run_at
from conftest import chart_fields, paper_run_at, run_backend as _run_backend


# --------------------------------------------------------------------------
# step control and basic kinematics
# --------------------------------------------------------------------------


def test_step_control_rejects_bad_knobs():
    with pytest.raises(ValueError):
        flow.StepControl(cfl=0.0)
    with pytest.raises(ValueError):
        flow.StepControl(cfl=0.7)
    with pytest.raises(ValueError):
        flow.StepControl(t_end=0.0)
    # no time reaches a NaN t_end, and min(dt, nan) would drop it unseen
    with pytest.raises(ValueError):
        flow.StepControl(t_end=float("nan"))
    # an exact leaf reads ~1e-15: a run could never meet these
    with pytest.raises(ValueError):
        flow.StepControl(leaf_tol=0.0)
    with pytest.raises(ValueError):
        flow.StepControl(leaf_tol=-1e-3)
    # each backend has one step: there is no scheme to choose
    with pytest.raises(TypeError):
        flow.StepControl(scheme="imex")
    # a run converges on the leaf test alone: there is no speed tolerance
    with pytest.raises(TypeError):
        flow.StepControl(speed_tol=1e-2)
    # the front smooths on the fixed cadence flow.SMOOTH_EVERY
    with pytest.raises(TypeError):
        flow.StepControl(smooth_every=10)
    # the area guard's slack is fixed, not a field
    assert flow.StepControl().area_slack == 1e-8
    with pytest.raises(TypeError):
        flow.StepControl(area_slack=1e-6)


def test_flow_speed_vanishes_on_flat_spheres(euclid, pair):
    # every centered sphere is a leaf of the flat foliation
    for r in (0.5, 1.0, 2.0):
        vg = surface.mesh_geometry(surface.sphere_seed(r, 3), euclid, pair)
        assert np.max(np.abs(vg.speed)) <= 0.01 * np.max(vg.H)


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
@pytest.mark.parametrize("geom_name, radius", [
    ("euclid", 1.3), ("paper", 1.3), ("paper", 1.5), ("poincare", 0.6),
])
def test_coordinate_sphere_leaf_converges_at_step_0(request, pair, backend,
                                                    geom_name, radius):
    # every coordinate sphere is a leaf of these geometries; the curved
    # ones' cotan H spreads by 5-9% at L3, which must not keep the run going
    geom = request.getfixturevalue(geom_name)
    res = _run_backend(backend, geom, pair, surface.sphere_seed(radius, 3),
                       flow.StepControl())
    assert res.converged and res.steps == 0
    assert len(res.trace) == 1


def test_chart_velocity_is_normal(euclid, pair):
    mesh = surface.ellipsoid_seed((1.4, 1.0, 0.9), 2)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    vel = oracles.chart_velocity(vg)
    # velocity is parallel to the flat normal by construction
    cross = np.cross(vel, vg.nu_flat)
    assert np.max(np.linalg.norm(cross, axis=1)) < 1e-12


def test_cfl_dt_linear_in_resolution_under_imex():
    dts = [flow.cfl_dt(surface.sphere_seed(1.0, level), 0.25)
           for level in (2, 3)]
    assert 1.5 < dts[0] / dts[1] < 2.5


def test_cfl_dt_is_not_set_by_one_sliver_edge():
    # pull one end of the shortest edge along it until the edge is 10x
    # shorter: the shortest edge follows, the step bound does not
    mesh = surface.sphere_seed(1.0, 2)
    fg = mesh.face_geometry
    face, corner = np.unravel_index(np.argmin(fg.sq), fg.sq.shape)
    # edge c of a face is the one opposite corner c
    a, b = mesh.faces[face][[(corner + 1) % 3, (corner + 2) % 3]]
    verts = mesh.vertices.copy()
    verts[a] = verts[b] + 0.1 * (verts[a] - verts[b])
    sliver = mesh.with_vertices(verts)
    assert sliver.min_edge == pytest.approx(0.1 * mesh.min_edge, rel=1e-12)
    before, after = flow.cfl_dt(mesh, 0.25), flow.cfl_dt(sliver, 0.25)
    assert abs(after / before - 1.0) < 1e-2


def test_cfl_dt_rejects_collapsed_edge():
    mesh = surface.sphere_seed(1.0, 2)
    tiny = mesh.with_vertices(1e-10 * mesh.vertices)
    with pytest.raises(MeshDegenerate):
        flow.cfl_dt(tiny, 0.25)


def test_step_conserves_volume_after_projection(euclid, pair):
    mesh = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    sched = ckv.Schedule(t0=1.0)
    res = flow.run(euclid, pair, mesh, sched, flow.StepControl(t_end=0.3))
    assert res.steps >= 2
    vol = res.trace.column("volume")
    assert np.max(np.abs(vol / vol[0] - 1.0)) < 1e-10


def test_step_reuses_loop_top_geometry_bit_identically(paper, pair_e3):
    mesh = surface.ellipsoid_seed((1.08, 1.0, 0.93), 2)
    sched = ckv.Schedule(t0=0.5)
    t, dt = 0.1, 1e-3
    # the loop top's snapshot, whose curvature memo the trace has filled,
    # against a cold copy and its own bundle
    loop_top = surface.mesh_geometry(mesh, paper, pair_e3, sched.xi_at(t))
    diagnostics.minkowski2_residual(mesh, paper, loop_top)
    diagnostics.umbilicity_deficit(mesh, loop_top)
    assert "flat_curvatures" in vars(mesh)
    cold = mesh.with_vertices(mesh.vertices)
    assert "flat_curvatures" not in vars(cold)
    start = surface.mesh_geometry(cold, paper, pair_e3, sched.xi_at(t))
    reused = flow.step_lagrangian(mesh, paper, dt, loop_top,
                                  flow.LaggedFactor())
    fresh = flow.step_lagrangian(cold, paper, dt, start, flow.LaggedFactor())
    assert np.array_equal(reused.vertices, fresh.vertices)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_imex_step_keeps_a_sphere_on_its_leaf(euclid, pair, radius):
    # dt = 0.5 is about 1e3 times an explicit step's parabolic bound
    # cfl h_min^2 at level 3
    mesh = surface.sphere_seed(radius, 3)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    new = flow.step_lagrangian(mesh, euclid, 0.5, vg, flow.LaggedFactor())
    drift = np.linalg.norm(new.vertices, axis=1) / radius - 1.0
    assert np.max(np.abs(drift)) <= 1e-3


# the explicit rates the steps are consistent with are evaluated on level-3
# seeds, rotating about e3, at a time inside the schedule's ramp
CONSISTENCY_DTS = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
CONSISTENCY_SEED = (1.08, 1.0, 0.93)


def _consistency_setup(request, geom_name):
    geom = request.getfixturevalue(geom_name)
    pair = ckv.KillingPair(omega=0.5, axis=(0.0, 0.0, 1.0))
    return geom, pair, ckv.Schedule(t0=0.5).xi_at(0.1)


def _assert_first_order(rate_at, ref):
    """The relative max error of rate_at(dt) against ref shrinks by more
    than 1.5x each time dt halves: the step is first-order consistent."""
    scale = np.max(np.abs(ref))
    errs = [np.max(np.abs(rate_at(dt) - ref)) / scale
            for dt in CONSISTENCY_DTS]
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse > 1.5 * fine, errs


@pytest.mark.parametrize("geom_name", ["euclid", "paper"])
def test_front_step_is_consistent_with_chart_velocity(request, geom_name):
    # only the normal part: the discrete Lap x has a tangential component
    geom, pair, xi_now = _consistency_setup(request, geom_name)
    mesh = surface.ellipsoid_seed(CONSISTENCY_SEED, 3)
    vg = surface.mesh_geometry(mesh, geom, pair, xi_now)

    def normal(vel):
        return np.einsum("ij,ij->i", vel, vg.nu_flat)

    def rate_at(dt):
        new = flow.step_lagrangian(mesh, geom, dt, vg, flow.LaggedFactor())
        return normal((new.vertices - mesh.vertices) / dt)

    _assert_first_order(rate_at, normal(oracles.chart_velocity(vg)))


def _count_surface_calls(monkeypatch, name):
    calls = []
    original = getattr(surface, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(surface, name, counted)
    return calls


def test_imex_run_computes_geometry_once_per_step(euclid, pair, monkeypatch):
    # the loop top is the whole step's geometry: no predictor; the run
    # includes a smoothing pass
    calls = _count_surface_calls(monkeypatch, "mesh_geometry")
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    res = flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                   flow.StepControl(t_end=0.9))
    assert res.steps >= 10
    assert len(calls) == res.steps + 1


def _graph_run(euclid, pair, ctrl):
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    return _run_backend("leaf_graph", euclid, pair, seed, ctrl)


def test_implicit_run_graph_computes_geometry_once_per_step(euclid, pair,
                                                            monkeypatch):
    calls = _count_surface_calls(monkeypatch, "mesh_geometry")
    res = _graph_run(euclid, pair, flow.StepControl(t_end=0.6))
    assert res.steps >= 5
    assert len(calls) == res.steps + 1


def test_implicit_run_graph_builds_leaf_geometry_once(euclid, pair,
                                                      monkeypatch):
    # per step: the candidate's area only, whose face kernels the next loop
    # top reads from the memo; plus 2 per run: the leaf's gradient basis,
    # which its stiffness and dual areas also read, and the first loop top
    calls = _count_surface_calls(monkeypatch, "face_normals_areas")
    res = _graph_run(euclid, pair, flow.StepControl(t_end=0.6))
    assert res.steps >= 5
    assert len(calls) == res.steps + 2


def _label(backend):
    return "graph " if backend == "leaf_graph" else ""


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_every_step_is_bounded_by_its_loop_top_mesh(euclid, pair, backend):
    # one bound for both backends: cfl h_mean of the mesh the loop top hands
    # to frame_cb (the graph's embedded mesh, not its unit leaf), cut to
    # reach t_end, and halved only by the area guard
    seed = surface.ellipsoid_seed((2.6, 2.0, 2.0), 2)
    ctrl = flow.StepControl(t_end=1.8)
    frames = []
    res = _run_backend(backend, euclid, pair, seed, ctrl,
                       frame_cb=lambda step, t, mesh: frames.append((t, mesh)))
    assert len(frames) == res.steps + 1 and res.steps >= 10
    full = 0
    for (t, mesh), dt in zip(frames, res.trace.column("dt")[1:]):
        bound = ctrl.cfl * mesh.mean_edge
        step = min(bound, ctrl.t_end - t)
        assert dt in [step * 0.5**k for k in range(flow.MAX_RETRIES)]
        full += dt == bound
    assert full >= res.steps - 1


def _assert_tagged_at_row(err, label, row):
    """The driver tagged the error, once, with the step and time of the
    loop top that wrote trace row `row`; returns the rest of the message."""
    trace = err.trace
    step, t = int(trace.column("step")[row]), trace.column("time")[row]
    tag = f"{label}step {step} from t={t:.6g}: "
    message = str(err)
    assert message.startswith(tag), message
    assert message.count(" from t=") == 1, message
    return message[len(tag):]


# the graph backend fails at step 0 on the curved L2 ellipsoids elongated
# along x (a known defect), so in the paper example it runs one flattened
# along x; the front smooths every 10 steps, and implicit steps are long
@pytest.mark.parametrize("backend, geom_name, semiaxes, t_end, min_steps", [
    pytest.param("lagrangian", "paper", (1.08, 1.0, 0.93), 0.8, 10,
                 id="lagrangian-paper"),
    pytest.param("lagrangian", "euclid", (1.3, 1.0, 1.0), 0.5, 5,
                 id="lagrangian-euclid"),
    pytest.param("leaf_graph", "euclid", (1.08, 1.0, 0.93), 0.6, 5,
                 id="leaf_graph-euclid-imex"),
    pytest.param("leaf_graph", "paper", (0.9, 1.0, 1.0), 0.3, 5,
                 id="leaf_graph-paper"),
])
def test_trace_volume_is_the_frame_volume(request, pair, backend, geom_name,
                                          semiaxes, t_end, min_steps):
    # the front's loop top reuses the volume projection's last evaluation;
    # the graph's evaluates its embedded mesh, which is the frame.  The
    # columns the loop top computes on its warm snapshot are exactly those
    # of a recomputation on a cold copy of each frame
    geom = request.getfixturevalue(geom_name)
    seed = surface.ellipsoid_seed(semiaxes, 2)
    frames = []
    res = _run_backend(backend, geom, pair, seed,
                       flow.StepControl(t_end=t_end),
                       frame_cb=lambda k, t, mesh: frames.append((k, t, mesh)))
    assert res.steps >= min_steps
    # every loop top is a frame, the last one included
    assert [k for k, _, _ in frames] == list(range(res.steps + 1))
    assert frames[-1][2] is res.mesh
    assert len(frames) == len(res.trace)
    sched = ckv.Schedule(t0=1.0)
    for (k, t, mesh), row in zip(frames, res.trace.rows):
        cold = mesh.with_vertices(mesh.vertices)
        vg = surface.mesh_geometry(cold, geom, pair, sched.xi_at(t))
        got = dict(zip(diagnostics.TRACE_COLUMNS, row))
        assert got["volume"] == surface.enclosed_volume(mesh, geom), k
        assert got["mink1"] == diagnostics.minkowski1_residual(vg), k
        assert got["mink2"] == diagnostics.minkowski2_residual(cold, geom,
                                                               vg), k
        assert got["umbilicity"] == diagnostics.umbilicity_deficit(cold,
                                                                   vg), k


def _fail_solve_at(monkeypatch, step):
    # a run without retries makes one solve per step, so the solve at
    # `step` is the run's (step + 1)-th
    original, calls = flow.LaggedFactor.solve, []

    def poisoned(self, lhs, rhs, x0):
        calls.append(1)
        if len(calls) == step + 1:
            raise MeshDegenerate("poisoned solve")
        return original(self, lhs, rhs, x0)

    monkeypatch.setattr(flow.LaggedFactor, "solve", poisoned)


def _fail_umbilicity_at(monkeypatch, row):
    original, calls = diagnostics.umbilicity_deficit, []

    def poisoned(*args, **kwargs):
        calls.append(1)
        if len(calls) == row + 1:
            raise MeshDegenerate("poisoned umbilicity")
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "umbilicity_deficit", poisoned)


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_trace_column_error_fails_its_loop_top_with_step_and_time(
        euclid, pair, monkeypatch, backend):
    # the columns come before the step, so their error leaves its loop top
    # without a row or a frame, and its step never runs
    step, frames, solves = 2, [], []
    _fail_umbilicity_at(monkeypatch, step)
    original = flow.LaggedFactor.solve

    def counted(self, lhs, rhs, x0):
        solves.append(1)
        return original(self, lhs, rhs, x0)

    monkeypatch.setattr(flow.LaggedFactor, "solve", counted)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        _run_backend(backend, euclid, pair, seed, flow.StepControl(t_end=0.3),
                     frame_cb=lambda k, t, mesh: frames.append(k))
    message, trace = str(exc.value), exc.value.trace
    assert len(trace) == step
    assert frames == list(range(step))
    # one solve for each step before, as no step retried (see _fail_solve_at)
    assert len(solves) == step
    tag = f"{_label(backend)}step {step} from t="
    assert message.startswith(tag), message
    assert message.count(" from t=") == 1, message
    t_fail, rest = message[len(tag):].split(": ", 1)
    assert float(t_fail) > trace.column("time")[-1]
    assert rest == "poisoned umbilicity"


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
@pytest.mark.parametrize("outcome", ["converged", "t_end", "step_error",
                                     "column_error"])
def test_run_starts_no_thread(euclid, pair, monkeypatch, backend, outcome):
    # a step error after clean columns keeps its loop top's row and frame
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    t_end = 0.05 if outcome == "t_end" else 8.0
    if outcome == "step_error":
        _fail_solve_at(monkeypatch, 2)
    elif outcome == "column_error":
        _fail_umbilicity_at(monkeypatch, 2)
    before, during = threading.active_count(), set()
    try:
        res = _run_backend(
            backend, euclid, pair, seed, flow.StepControl(t_end=t_end),
            frame_cb=lambda k, t, mesh: during.add(threading.active_count()))
    except MeshDegenerate as err:
        assert outcome.endswith("_error")
        rows = 3 if outcome == "step_error" else 2
        assert len(err.trace) == rows
        assert str(err).startswith(f"{_label(backend)}step 2 from t=")
    else:
        assert res.reason == outcome
    assert during == {before}
    assert threading.active_count() == before


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_runs_on_many_threads_under_fine_switching_match_a_serial_run(
        euclid, pair, monkeypatch, backend):
    # four runs at once on a host of few cores; a 1 us switch interval
    # interleaves their threads finely, so a memo entry, ring table or
    # other state one run shared with another would show in the rows.  The
    # front smooths at every step, so each run makes new snapshots from
    # each loop top and fits its two-ring quadrics, the only ring table a
    # run builds
    monkeypatch.setattr(flow, "SMOOTH_EVERY", 1)
    ctrl = flow.StepControl(t_end=0.5)

    def rows():
        seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
        return _run_backend(backend, euclid, pair, seed, ctrl).trace.rows

    expected, interval = rows(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(rows) for _ in range(4)]
            got = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert len(expected) > 5
    assert got == [expected] * 4


@pytest.mark.parametrize("backend", [
    pytest.param("lagrangian", id="lagrangian-step_lagrangian"),
    pytest.param("leaf_graph", id="leaf_graph-step_graph"),
])
def test_non_finite_candidate_fails_with_step_and_time(euclid, pair,
                                                       monkeypatch, backend):
    # the step-2 solve, the run's third, returns a NaN, whichever path made
    # it: under the default cadence it is CG on the step-0 factor
    step, original, lagged, calls = 2, flow.LaggedFactor.solve, [], []

    def poisoned(self, lhs, rhs, x0):
        factors = self.counts.factors
        out = original(self, lhs, rhs, x0)
        calls.append(1)
        if len(calls) != step + 1:
            return out
        lagged.append(self.counts.factors == factors)
        out[0] = np.nan
        return out

    monkeypatch.setattr(flow.LaggedFactor, "solve", poisoned)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        _run_backend(backend, euclid, pair, seed,
                     flow.StepControl(t_end=0.3))
    assert len(exc.value.trace) == step + 1
    rest = _assert_tagged_at_row(exc.value, _label(backend), step)
    what = "vertex" if backend == "lagrangian" else "label"
    assert rest == f"non-finite {what}"
    assert lagged == [True]


def _backend_step(backend, euclid, pair):
    """step(dt, factor) -> one step's result from the flat L2 ellipsoid,
    its bundle frozen at the seed."""
    mesh = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    if backend == "lagrangian":
        def step(dt, factor):
            return flow.step_lagrangian(mesh, euclid, dt, vg, factor).vertices
    else:
        state = flow.graph_state_from_mesh(mesh, euclid)
        fields = flow._graph_chart_fields(euclid, pair, state, 1.0,
                                          state.embedded(euclid), vg)

        def step(dt, factor):
            return flow.step_graph(state, dt, fields, factor).lam
    return step


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_cg_that_does_not_converge_falls_back_to_a_fresh_factor(
        euclid, pair, monkeypatch, backend):
    # one CG iteration on the first solve's factor cannot solve the system
    # at half the step: the solve refactors, and its result is the fresh
    # factor's
    step = _backend_step(backend, euclid, pair)
    dt = flow.cfl_dt(surface.ellipsoid_seed((1.3, 1.0, 1.0), 2), 0.25)
    factor = flow.LaggedFactor()
    step(dt, factor)
    assert factor.counts == flow.SolveCounts(factors=1)
    monkeypatch.setattr(flow, "CG_MAXITER", 1)
    lagged = step(0.5 * dt, factor)
    assert factor.counts == flow.SolveCounts(factors=2, cg_iterations=1,
                                             fallbacks=1)
    assert factor.served == 1
    assert np.array_equal(lagged, step(0.5 * dt, flow.LaggedFactor()))


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_lagged_factor_refreshes_by_solve_count(euclid, pair, backend):
    # REFACTOR_EVERY + 1 solves of one step, as retries would make them:
    # the factor serves REFACTOR_EVERY of them and the last one refactors
    step = _backend_step(backend, euclid, pair)
    dt = flow.cfl_dt(surface.ellipsoid_seed((1.3, 1.0, 1.0), 2), 0.25)
    factor, served = flow.LaggedFactor(), []
    for _ in range(flow.REFACTOR_EVERY + 1):
        step(dt, factor)
        served.append(factor.served)
    assert served == list(range(1, flow.REFACTOR_EVERY + 1)) + [1]
    assert factor.counts.factors == 2
    assert factor.counts.fallbacks == 0


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_lagged_factor_agrees_with_a_fresh_factor_every_step(
        euclid, pair, pair_e3, monkeypatch, backend):
    # the front on the twisted L3 seed, the graph on the flat L3 ellipsoid
    def run():
        if backend == "lagrangian":
            return twisted_run_at(euclid, pair_e3, 3)["res"]
        return _run_backend(backend, euclid, pair,
                            surface.ellipsoid_seed((1.3, 1.0, 1.0), 3),
                            flow.StepControl())

    every, lagged = flow.REFACTOR_EVERY, run()
    monkeypatch.setattr(flow, "REFACTOR_EVERY", 1)
    fresh = run()
    assert (lagged.steps, lagged.reason) == (fresh.steps, fresh.reason)
    assert lagged.reason == "converged"
    assert_traces_close(lagged.trace, fresh.trace, rtol=1e-9)
    # the lag makes a factor every `every` steps, and one per fallback;
    # the fresh run makes one each step
    counts = lagged.solves
    assert counts.cg_iterations > 0
    assert counts.factors <= math.ceil(lagged.steps / every) + counts.fallbacks
    assert fresh.solves.factors == fresh.steps
    assert fresh.solves.fallbacks == 0


def test_non_finite_implicit_system_fails_with_step_and_time(euclid, pair,
                                                             monkeypatch):
    # a NaN entry would make the sparse factorization raise RuntimeError;
    # the step names it first
    step, original, calls = 2, surface.cotan_stiffness, []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        if len(calls) != step + 1:
            return out
        out = out.copy()
        out.data[0] = np.nan
        return out

    monkeypatch.setattr(surface, "cotan_stiffness", poisoned)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                 flow.StepControl(t_end=0.3))
    assert len(exc.value.trace) == step + 1
    rest = _assert_tagged_at_row(exc.value, "", step)
    assert rest == "non-finite implicit system entry"


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_implicit_system_is_the_sparse_difference_bit_for_bit(weighted):
    # the system filled on the topology's pattern against the one assembled
    # from coordinates: COO -> CSC, then diag(mass) - dt K
    rng = np.random.default_rng(7)
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 3)
    mesh = mesh.with_vertices(mesh.vertices * (
        1.0 + 0.02 * rng.standard_normal((mesh.n_vertices, 1))))
    face_weight = rng.uniform(0.2, 2.0, mesh.n_faces) if weighted else None

    class Recording(flow.LaggedFactor):
        def solve(self, lhs, rhs, x0):
            self.lhs = lhs
            return super().solve(lhs, rhs, x0)

    topo, V = mesh.topology, mesh.n_vertices
    cot = mesh.face_geometry.cot
    if weighted:
        cot = cot * face_weight[:, None]
    he_cot = cot[:, [2, 0, 1]].reshape(-1)
    half = 0.5 * (he_cot + he_cot[topo.he_twin])
    diag = np.arange(V)
    stiff = sp.csc_array(
        (np.concatenate([half, -(topo.scatter @ half)]),
         (np.concatenate([topo.he_tail, diag]),
          np.concatenate([topo.he_head, diag]))), shape=(V, V))
    mass, dt = mesh.mixed_areas, 0.3 * mesh.min_edge
    expected = sp.diags_array(mass, format="csc") - dt * stiff

    factor = Recording()
    flow._implicit_solve(factor, mesh, mass, mass[:, None] * mesh.vertices,
                         mesh.vertices, dt, "position",
                         face_weight=face_weight)
    lhs = factor.lhs
    assert lhs.format == "csc" and lhs.shape == (V, V)
    assert np.array_equal(lhs.indptr, expected.indptr)
    assert np.array_equal(lhs.indices, expected.indices)
    assert np.array_equal(lhs.data.view(np.int64),
                          expected.data.view(np.int64))


# --------------------------------------------------------------------------
# the Lagrangian driver
# --------------------------------------------------------------------------


def test_sphere_seed_converges_at_once(euclid, pair):
    res = flow.run(euclid, pair, surface.sphere_seed(1.0, 3),
                   ckv.Schedule(t0=1.0))
    assert res.converged and res.steps == 0
    assert np.allclose(res.mesh.vertices, res.mesh_initial.vertices)


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_mesh_initial_is_the_step_zero_frame(euclid, pair, backend):
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    frames = {}
    res = _run_backend(backend, euclid, pair, seed,
                       flow.StepControl(t_end=0.1),
                       frame_cb=lambda k, t, mesh: frames.setdefault(k, mesh))
    assert res.steps >= 1
    first = frames[0]
    assert res.mesh_initial.vertices.tobytes() == first.vertices.tobytes()
    assert np.array_equal(res.mesh_initial.faces, first.faces)
    # frame 0 is the seed, embedded from its graph state on the leaf graph
    start = seed if backend == "lagrangian" \
        else flow.graph_state_from_mesh(seed, euclid).embedded(euclid)
    assert first.vertices.tobytes() == start.vertices.tobytes()


def _final_area(res):
    assert res.converged
    return float(res.trace.column("area")[-1])


@pytest.mark.slow
@pytest.mark.parametrize("seed_name", ["twisted", "paper"])
def test_time_error_is_below_the_space_error(request, euclid, paper, pair,
                                             pair_e3, seed_name):
    # the final area's time error at L3, against a run at cfl/4, is at most
    # a quarter of what one refinement level, L3 -> L4, moves it by
    cfl = flow.StepControl.cfl
    if seed_name == "twisted":
        def at_l3(c):
            return twisted_run_at(euclid, pair_e3, 3, c)["res"]
        l4 = request.getfixturevalue("twisted_run")["res"]
    else:
        def at_l3(c):
            return paper_run_at(paper, pair, 3, c)
        l4 = request.getfixturevalue("paper_run")
    coarse = _final_area(at_l3(cfl))
    time_err = abs(coarse / _final_area(at_l3(0.25 * cfl)) - 1.0)
    space_err = abs(coarse / _final_area(l4) - 1.0)
    assert time_err <= 0.25 * space_err, (time_err, space_err)


def test_run_reaches_leaf_and_records_trace(euclid_l2_run):
    res = euclid_l2_run
    assert res.converged and res.reason == "converged"
    assert res.trace.column("leaf_distance")[-1] <= 1e-2
    area = res.trace.column("area")
    assert np.all(np.diff(area) <= area[:-1] * 1e-8 + 1e-12)
    vol = res.trace.column("volume")
    assert np.max(np.abs(vol / vol[0] - 1.0)) < 1e-10
    lo, hi = seed_label_band(res.trace)
    assert np.all(res.trace.column("lambda_min") >= lo)
    assert np.all(res.trace.column("lambda_max") <= hi)


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_run_stops_at_the_first_leaf_row(euclid, pair, backend):
    ctrl = flow.StepControl(t_end=8.0)
    res = _run_backend(backend, euclid, pair,
                       surface.ellipsoid_seed((1.3, 1.0, 1.0), 2), ctrl)
    assert res.converged and res.steps >= 1
    on_leaf = res.trace.column("leaf_distance") <= ctrl.leaf_tol
    assert int(np.argmax(on_leaf)) == len(res.trace) - 1 == res.steps


def test_run_stops_at_t_end_without_convergence(euclid, pair):
    seed = surface.ellipsoid_seed((1.5, 1.0, 1.0), 2)
    res = flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                   flow.StepControl(t_end=0.02))
    assert not res.converged and res.reason == "t_end"
    assert res.t >= 0.02


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_nan_support_fails_starshape_with_step_and_time(euclid, pair,
                                                        monkeypatch, backend):
    # NaN compares false with everything, so `u <= 0` cannot be the guard
    step, original, calls = 2, surface.mesh_geometry, []

    def poisoned(*args, **kwargs):
        # implicit steps compute no bundle of their own: every call is a
        # loop top's
        vg = original(*args, **kwargs)
        calls.append(1)
        if len(calls) != step + 1:
            return vg
        u = np.array(vg.u)
        u[0] = np.nan
        return dataclasses.replace(vg, u=u)

    monkeypatch.setattr(surface, "mesh_geometry", poisoned)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(StarshapeLost) as exc:
        _run_backend(backend, euclid, pair, seed, flow.StepControl(t_end=0.3))
    # the failing loop top wrote no row: its time is past the last one's
    message, trace = str(exc.value), exc.value.trace
    assert len(trace) == step
    tag = f"{_label(backend)}step {step} from t="
    assert message.startswith(tag), message
    assert message.count(" from t=") == 1, message
    t_fail, rest = message[len(tag):].split(": ", 1)
    assert float(t_fail) > trace.column("time")[-1]
    assert rest == "support function reached nan"


def _poison_graph_support(monkeypatch, call):
    original, calls = flow._graph_chart_fields, []

    def poisoned(*args, **kwargs):
        fields = original(*args, **kwargs)
        calls.append(1)
        if len(calls) != call:
            return fields
        u = np.array(fields[-1])
        u[0] = np.nan
        return fields[:-1] + (u,)

    monkeypatch.setattr(flow, "_graph_chart_fields", poisoned)


def test_nan_graph_step_support_fails_starshape_with_time(euclid, pair,
                                                         monkeypatch):
    # the guard reads step 1's frozen loop-top fields
    _poison_graph_support(monkeypatch, 2)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(StarshapeLost) as exc:
        _run_backend("leaf_graph", euclid, pair, seed,
                     flow.StepControl(t_end=0.3))
    assert len(exc.value.trace) == 2
    rest = _assert_tagged_at_row(exc.value, "graph ", 1)
    assert rest == "chart support function reached nan"


def test_front_quality_guard_fails_with_time(euclid, pair, monkeypatch):
    # the guard reads the quality after each smoothing pass (every 10th
    # step), and names the step it came from: the last trace row's
    collapsed = surface.MeshQuality(min_angle_deg=0.5, max_edge_ratio=2.0)
    monkeypatch.setattr(surface, "quality", lambda mesh: collapsed)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                 flow.StepControl(t_end=5.0))
    assert len(exc.value.trace) == 10
    rest = _assert_tagged_at_row(exc.value, "", 9)
    assert rest == "mesh quality collapsed: min angle 0.50 deg, edge ratio 2.0"


def test_run_detects_starshape_loss(euclid, pair, pair_e3):
    # the twisted seed is starshaped only thanks to the rotational part;
    # running it without rotation must fail the support-function check
    mesh, _, min_uperp = surface.checked_seed(
        surface.ellipsoid_seed((1.6, 0.7, 0.7), 2), euclid, pair_e3, 1.5)
    assert min_uperp < 0.0
    with pytest.raises(StarshapeLost) as exc:
        flow.run(euclid, pair, mesh, ckv.Schedule(t0=1.0))
    assert hasattr(exc.value, "trace")


# --------------------------------------------------------------------------
# leaf-graph backend
# --------------------------------------------------------------------------


def test_leaf_coefficients_flat(euclid):
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    lam = np.array([4.0, 4.0])  # r = 2
    g, h = flow.leaf_coefficients(euclid, dirs, lam)
    assert np.allclose(g, 4.0)
    assert np.allclose(h, 1.0 / 16.0)


def test_graph_flux_jacobian_matches_fd():
    rng = np.random.default_rng(3)
    p = rng.normal(size=(5, 3)) * 0.4
    g = 1.0 + rng.random(5)
    h = 0.5 + rng.random(5)
    jac = oracles.graph_flux_jacobian(p, g, h)
    eps = 1e-6
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = eps
        fd = (flow.graph_flux(p + dp, g, h) - flow.graph_flux(p - dp, g, h)) \
            / (2.0 * eps)
        assert np.max(np.abs(jac[:, :, j] - fd)) < 1e-6


def test_ellipticity_bounds_unit_case():
    c2, c3 = oracles.ellipticity_bounds(None, None, 1.0)
    assert abs(c2 - 2.0 ** -1.5) < 1e-9
    assert abs(c3 - 1.0) < 1e-9
    with pytest.raises(ValueError):
        oracles.ellipticity_bounds(None, None, 0.0)


def test_ellipticity_bounds_on_curved_shell(paper, pair):
    shell = (float(ckv.lam(paper, np.array([[0.3, 0.0, 0.0]]))[0]),
             float(ckv.lam(paper, np.array([[1.8, 0.0, 0.0]]))[0]))
    c2, c3 = oracles.ellipticity_bounds(paper, shell, 1.0)
    assert 0.0 < c2 <= c3


def test_flux_jacobian_spectrum_is_the_ellipticity_bounds():
    # for n = 2 and unit coefficients the Jacobian's eigenvalues are W^-3
    # along p and W^-1 across it, the closed form `ellipticity_bounds` sweeps
    c1 = 1.7
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = np.concatenate([[0.0, c1], rng.uniform(0.0, c1, 398)])
    eig = np.linalg.eigvalsh(
        oracles.graph_flux_jacobian(mags[:, None] * dirs))
    c2, c3 = oracles.ellipticity_bounds(None, None, c1)
    assert abs(eig.min() - c2) <= 1e-12 * c2
    assert abs(eig.max() - c3) <= 1e-12 * c3


def test_graph_state_roundtrip(euclid):
    mesh = surface.sphere_seed(1.3, 2)
    state = flow.graph_state_from_mesh(mesh, euclid)
    assert np.max(np.abs(state.lam - 1.69)) < 1e-12
    back = state.embedded(euclid)
    assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12


def test_run_graph_settles_perturbed_sphere(euclid, pair):
    mesh = surface.sphere_seed(1.0, 2)
    r = 1.0 + 0.05 * mesh.vertices[:, 2] ** 2
    res = flow.run_graph(euclid, pair,
                         mesh.with_vertices(r[:, None] * mesh.vertices),
                         ckv.Schedule(t0=1.0), flow.StepControl(t_end=4.0))
    assert res.converged
    assert res.trace.column("leaf_distance")[-1] <= 1e-2
    area = res.trace.column("area")
    assert np.all(np.diff(area) <= area[:-1] * 1e-8 + 1e-12)


def test_implicit_graph_step_keeps_a_leaf(euclid, pair):
    # a constant label has zero flux, and the flat source vanishes on it
    sched = ckv.Schedule(t0=1.0)
    state = flow.graph_state_from_mesh(surface.sphere_seed(1.2, 3), euclid)
    fields = chart_fields(euclid, pair, state, sched.xi_at(0.0))
    new = flow.step_graph(state, 0.1, fields, flow.LaggedFactor())
    assert np.max(np.abs(new.lam - state.lam)) <= 1e-12 * np.max(state.lam)


@pytest.mark.parametrize("geom_name", ["euclid", "paper"])
def test_graph_step_is_consistent_with_graph_rate(request, geom_name):
    geom, pair, xi_now = _consistency_setup(request, geom_name)
    state = flow.graph_state_from_mesh(
        surface.ellipsoid_seed(CONSISTENCY_SEED, 3), geom)
    fields = chart_fields(geom, pair, state, xi_now)

    def rate_at(dt):
        new = flow.step_graph(state, dt, fields, flow.LaggedFactor())
        return (new.lam - state.lam) / dt

    _assert_first_order(rate_at, flow._graph_rate(state, fields))


@pytest.mark.parametrize("target, what", [
    ("cotan_stiffness", "non-finite implicit system entry"),
    ("label_evolution_source", "non-finite right-hand side"),
])
def test_non_finite_implicit_graph_step_fails_with_step_and_time(
        euclid, pair, monkeypatch, target, what):
    # a NaN stiffness entry would make the factorization raise RuntimeError,
    # a NaN source a NaN label; the step names either before any solve
    factors = []

    class Recording(flow.LaggedFactor):
        def __init__(self):
            super().__init__()
            self.solved = []  # the counts after each solve
            factors.append(self)

        def solve(self, lhs, rhs, x0):
            x = super().solve(lhs, rhs, x0)
            self.solved.append(dataclasses.replace(self.counts))
            return x

    monkeypatch.setattr(flow, "LaggedFactor", Recording)
    module = surface if target == "cotan_stiffness" else diagnostics
    step, original, calls = 2, getattr(module, target), []

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        if len(calls) != step + 1:
            return out
        out = out.copy()
        if target == "cotan_stiffness":
            out.data[0] = np.nan
        else:
            out[0] = np.nan
        return out

    monkeypatch.setattr(module, target, poisoned)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        _run_backend("leaf_graph", euclid, pair, seed,
                     flow.StepControl(t_end=0.6))
    assert len(exc.value.trace) == step + 1
    assert _assert_tagged_at_row(exc.value, "graph ", step) == what
    # one solve per earlier step, and the poisoned step solved nothing: no
    # CG iteration, no fallback
    [factor] = factors
    assert len(factor.solved) == step
    assert factor.counts == factor.solved[-1]
    assert factor.counts.fallbacks == 0


def test_run_graph_starshape_guard(euclid, pair, pair_e3):
    mesh, _, _ = surface.checked_seed(
        surface.ellipsoid_seed((1.6, 0.7, 0.7), 2), euclid, pair_e3, 1.5)
    with pytest.raises(StarshapeLost):
        flow.run_graph(euclid, pair, mesh, ckv.Schedule(t0=1.0))


# --------------------------------------------------------------------------
# evolution-identity residuals
# --------------------------------------------------------------------------


def test_evolution_residuals_smoke(euclid, pair, monkeypatch):
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 3)
    state = flow.graph_state_from_mesh(seed, euclid)
    sources = []
    original = diagnostics.label_evolution_source
    monkeypatch.setattr(diagnostics, "label_evolution_source",
                        lambda *a: sources.append(1) or original(*a))
    rel_u, rel_h = oracles.evolution_residuals(euclid, pair, state,
                                               ckv.Schedule(t0=1.0))
    assert not sources  # the oracle needs no label evolution source
    # level-3 smoke values; the H identity needs 4th-derivative jets and
    # only reaches its working accuracy at level 4 (see the acceptance run)
    assert rel_u < 0.2
    assert rel_h < 0.35
