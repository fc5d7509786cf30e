"""Time integration: Lagrangian driver, leaf-graph backend, evolution checks."""

import dataclasses

import numpy as np
import pytest

from ckflow import ckv, diagnostics, flow, surface
from ckflow.errors import MeshDegenerate, StarshapeLost


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
    # each backend has one step: there is no scheme to choose
    with pytest.raises(TypeError):
        flow.StepControl(scheme="imex")


def test_flow_speed_vanishes_on_flat_spheres(euclid, pair):
    # every centered sphere is a leaf of the flat foliation
    for r in (0.5, 1.0, 2.0):
        vg = surface.mesh_geometry(surface.sphere_seed(r, 3), euclid, pair)
        assert np.max(np.abs(flow.flow_speed(vg))) <= 0.01 * np.max(vg.H)


def test_chart_velocity_is_normal(euclid, pair):
    mesh = surface.ellipsoid_seed((1.4, 1.0, 0.9), 2)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    vel = flow.chart_velocity(vg)
    # velocity is parallel to the flat normal by construction
    cross = np.cross(vel, vg.nu_flat)
    assert np.max(np.linalg.norm(cross, axis=1)) < 1e-12


def test_cfl_dt_linear_in_resolution_under_imex():
    dts = [flow.cfl_dt(surface.sphere_seed(1.0, level), 0.25)
           for level in (2, 3)]
    assert 1.5 < dts[0] / dts[1] < 2.5


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
    cold = mesh.copy()
    assert "flat_curvatures" not in vars(cold)
    start = surface.mesh_geometry(cold, paper, pair_e3, sched.xi_at(t))
    reused = flow.step_lagrangian(mesh, paper, t, dt, loop_top, 0)
    fresh = flow.step_lagrangian(cold, paper, t, dt, start, 0)
    assert np.array_equal(reused.vertices, fresh.vertices)


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
def test_imex_step_keeps_a_sphere_on_its_leaf(euclid, pair, radius):
    # dt = 0.5 is about 1e3 times an explicit step's parabolic bound
    # cfl h_min^2 at level 3
    mesh = surface.sphere_seed(radius, 3)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    new = flow.step_lagrangian(mesh, euclid, 0.0, 0.5, vg, 0)
    drift = np.linalg.norm(new.vertices, axis=1) / radius - 1.0
    assert np.max(np.abs(drift)) <= 1e-3


# the explicit rates the steps are consistent with are evaluated on level-3
# seeds, rotating about e3, at a time inside the schedule's ramp
CONSISTENCY_DTS = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
CONSISTENCY_SEED = (1.08, 1.0, 0.93)


def _consistency_setup(request, geom_name):
    geom = request.getfixturevalue(geom_name)
    pair = ckv.KillingPair(omega=0.5, axis=(0.0, 0.0, 1.0))
    t = 0.1
    return geom, pair, t, ckv.Schedule(t0=0.5).xi_at(t)


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
    geom, pair, t, xi_now = _consistency_setup(request, geom_name)
    mesh = surface.ellipsoid_seed(CONSISTENCY_SEED, 3)
    vg = surface.mesh_geometry(mesh, geom, pair, xi_now)

    def normal(vel):
        return np.einsum("ij,ij->i", vel, vg.nu_flat)

    def rate_at(dt):
        new = flow.step_lagrangian(mesh, geom, t, dt, vg, 0)
        return normal((new.vertices - mesh.vertices) / dt)

    _assert_first_order(rate_at, normal(flow.chart_velocity(vg)))


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
                   flow.StepControl(t_end=0.6))
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


def _run_backend(backend, geom, pair, seed, ctrl, **kwargs):
    sched = ckv.Schedule(t0=1.0)
    if backend == "lagrangian":
        return flow.run(geom, pair, seed, sched, ctrl, **kwargs)
    state0 = flow.graph_state_from_mesh(seed, geom)
    return flow.run_graph(geom, pair, state0, sched, ctrl, **kwargs)


# the graph backend fails on the curved L2 seed (a known defect), so it
# runs flat; the front smooths every 10 steps, and implicit steps are long
@pytest.mark.parametrize("backend, geom_name, t_end, min_steps", [
    pytest.param("lagrangian", "paper", 0.6, 10, id="lagrangian-paper"),
    pytest.param("leaf_graph", "euclid", 0.6, 5, id="leaf_graph-euclid-imex"),
])
def test_trace_volume_is_the_frame_volume(request, pair, backend, geom_name,
                                          t_end, min_steps):
    # the front's loop top reuses the volume projection's last evaluation;
    # the graph's evaluates its embedded mesh, which is the frame
    geom = request.getfixturevalue(geom_name)
    seed = surface.ellipsoid_seed((1.08, 1.0, 0.93), 2)
    frames = []
    res = _run_backend(backend, geom, pair, seed,
                       flow.StepControl(t_end=t_end), frame_every=1,
                       frame_cb=lambda k, t, mesh: frames.append((k, mesh)))
    assert res.steps >= min_steps
    volume = res.trace.column("volume")
    assert len(frames) == len(volume) + 1  # the final frame repeats
    for (k, mesh), vol in zip(frames, volume):
        assert vol == surface.enclosed_volume(mesh, geom), k


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_frames_need_a_callback(euclid, pair, backend):
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(ValueError, match="frame_cb"):
        _run_backend(backend, euclid, pair, seed, flow.StepControl(),
                     frame_every=1)


@pytest.mark.parametrize("backend, fn_name, call, step", [
    pytest.param("lagrangian", "step_lagrangian", 3, 2,
                 id="lagrangian-step_lagrangian"),
    pytest.param("leaf_graph", "step_graph", 3, 2, id="leaf_graph-step_graph"),
])
def test_non_finite_candidate_fails_with_step_and_time(euclid, pair,
                                                       monkeypatch, backend,
                                                       fn_name, call, step):
    original = getattr(flow, fn_name)
    calls = []

    def nan_first(values):
        values = np.array(values)
        values[0] = np.nan
        return values

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        if len(calls) != call:
            return out
        if fn_name == "step_graph":
            return dataclasses.replace(out, lam=nan_first(out.lam))
        return out.with_vertices(nan_first(out.vertices))

    monkeypatch.setattr(flow, fn_name, poisoned)
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 2)
    with pytest.raises(MeshDegenerate) as exc:
        _run_backend(backend, euclid, pair, seed,
                     flow.StepControl(t_end=0.3))
    assert f"step {step} from t=" in str(exc.value)
    assert "non-finite" in str(exc.value)
    assert len(exc.value.trace) == step + 1


def test_non_finite_implicit_system_fails_with_step_and_time(euclid, pair,
                                                             monkeypatch):
    # a NaN entry would make the sparse factorization raise RuntimeError;
    # the step names it first
    step, original, calls = 2, surface.cotan_stiffness, []

    def poisoned(mesh):
        out = original(mesh)
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
    assert f"step {step} from t=" in str(exc.value)
    assert "non-finite implicit system entry" in str(exc.value)
    assert len(exc.value.trace) == step + 1


# --------------------------------------------------------------------------
# the Lagrangian driver
# --------------------------------------------------------------------------


def test_sphere_seed_converges_at_once(euclid, pair):
    res = flow.run(euclid, pair, surface.sphere_seed(1.0, 3),
                   ckv.Schedule(t0=1.0))
    assert res.converged and res.steps == 0
    assert np.allclose(res.mesh.vertices, res.mesh_initial.vertices)


def test_run_reaches_leaf_and_records_trace(euclid_l2_run):
    res = euclid_l2_run
    assert res.converged and res.reason == "converged"
    assert res.trace.column("leaf_distance")[-1] <= 1e-2
    area = res.trace.column("area")
    assert np.all(np.diff(area) <= area[:-1] * 1e-8 + 1e-12)
    vol = res.trace.column("volume")
    assert np.max(np.abs(vol / vol[0] - 1.0)) < 1e-10
    assert res.band_ok
    lam_lo = res.trace.column("lambda_min")
    lam_hi = res.trace.column("lambda_max")
    assert np.all(lam_lo >= res.lam_band[0]) and np.all(lam_hi <= res.lam_band[1])


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
    label = "graph " if backend == "leaf_graph" else ""
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
    assert "support function reached nan at t=" in str(exc.value)
    assert f"({label}step {step})" in str(exc.value)
    assert len(exc.value.trace) == step


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
    assert "graph support function reached nan at t=" in str(exc.value)
    assert len(exc.value.trace) == 2


def test_run_detects_starshape_loss(euclid, pair, pair_e3):
    # the twisted seed is starshaped only thanks to the rotational part;
    # running it without rotation must fail the support-function check
    mesh, _, min_uperp = surface.twisted_seed(euclid, pair_e3,
                                              (1.6, 0.7, 0.7), 1.5, 2)
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
    jac = flow.graph_flux_jacobian(p, g, h)
    eps = 1e-6
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = eps
        fd = (flow.graph_flux(p + dp, g, h) - flow.graph_flux(p - dp, g, h)) \
            / (2.0 * eps)
        assert np.max(np.abs(jac[:, :, j] - fd)) < 1e-6


def test_ellipticity_bounds_unit_case():
    c2, c3 = flow.ellipticity_bounds(None, None, 1.0)
    assert abs(c2 - 2.0 ** -1.5) < 1e-9
    assert abs(c3 - 1.0) < 1e-9
    with pytest.raises(ValueError):
        flow.ellipticity_bounds(None, None, 0.0)


def test_ellipticity_bounds_on_curved_shell(paper, pair):
    shell = (float(ckv.lam(paper, np.array([[0.3, 0.0, 0.0]]))[0]),
             float(ckv.lam(paper, np.array([[1.8, 0.0, 0.0]]))[0]))
    c2, c3 = flow.ellipticity_bounds(paper, shell, 1.0)
    assert 0.0 < c2 <= c3


def test_flux_jacobian_spectrum_is_the_ellipticity_bounds():
    # for n = 2 and unit coefficients the Jacobian's eigenvalues are W^-3
    # along p and W^-1 across it, the closed form `ellipticity_bounds` sweeps
    c1 = 1.7
    rng = np.random.default_rng(7)
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = np.concatenate([[0.0, c1], rng.uniform(0.0, c1, 398)])
    eig = np.linalg.eigvalsh(flow.graph_flux_jacobian(mags[:, None] * dirs))
    c2, c3 = flow.ellipticity_bounds(None, None, c1)
    assert abs(eig.min() - c2) <= 1e-12 * c2
    assert abs(eig.max() - c3) <= 1e-12 * c3


def _chart_fields(geom, pair, state, xi_now):
    """A graph state's `_graph_chart_fields` tuple from its own bundle."""
    emb = state.embedded(geom)
    vg = surface.mesh_geometry(emb, geom, pair, xi_now)
    return flow._graph_chart_fields(geom, pair, state, xi_now, emb, vg)


def test_graph_state_roundtrip(euclid):
    mesh = surface.sphere_seed(1.3, 2)
    state = flow.graph_state_from_mesh(mesh, euclid)
    assert np.max(np.abs(state.lam - 1.69)) < 1e-12
    back = state.embedded(euclid)
    assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-12


def test_run_graph_settles_perturbed_sphere(euclid, pair):
    mesh = surface.sphere_seed(1.0, 2)
    r = 1.0 + 0.05 * mesh.vertices[:, 2] ** 2
    state0 = flow.graph_state_from_mesh(
        mesh.with_vertices(r[:, None] * mesh.vertices), euclid
    )
    res = flow.run_graph(euclid, pair, state0, ckv.Schedule(t0=1.0),
                         flow.StepControl(t_end=4.0))
    assert res.converged
    assert res.trace.column("leaf_distance")[-1] <= 1e-2
    area = res.trace.column("area")
    assert np.all(np.diff(area) <= area[:-1] * 1e-8 + 1e-12)


def test_implicit_graph_step_keeps_a_leaf(euclid, pair):
    # a constant label has zero flux, and the flat source vanishes on it
    sched = ckv.Schedule(t0=1.0)
    state = flow.graph_state_from_mesh(surface.sphere_seed(1.2, 3), euclid)
    fields = _chart_fields(euclid, pair, state, sched.xi_at(0.0))
    new = flow.step_graph(euclid, state, 0.1, 10.0, fields, 0)
    assert new.t == 0.1
    assert np.max(np.abs(new.lam - state.lam)) <= 1e-12 * np.max(state.lam)


@pytest.mark.parametrize("geom_name", ["euclid", "paper"])
def test_graph_step_is_consistent_with_graph_rate(request, geom_name):
    geom, pair, t, xi_now = _consistency_setup(request, geom_name)
    state = flow.graph_state_from_mesh(
        surface.ellipsoid_seed(CONSISTENCY_SEED, 3), geom, t=t)
    fields = _chart_fields(geom, pair, state, xi_now)

    def rate_at(dt):
        new = flow.step_graph(geom, state, dt, 10.0, fields, 0)
        return (new.lam - state.lam) / dt

    _assert_first_order(rate_at, flow._graph_rate(geom, state, fields))


@pytest.mark.parametrize("target, what", [
    ("cotan_stiffness", "non-finite implicit system entry"),
    ("label_evolution_source", "non-finite label"),
])
def test_non_finite_implicit_graph_step_fails_with_step_and_time(
        euclid, pair, monkeypatch, target, what):
    # a NaN stiffness entry would make the factorization raise RuntimeError,
    # a NaN source a NaN label; the step names either first
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
    assert f"graph step {step} from t=" in str(exc.value)
    assert what in str(exc.value)
    assert len(exc.value.trace) == step + 1


def test_run_graph_starshape_guard(euclid, pair, pair_e3):
    mesh, _, _ = surface.twisted_seed(euclid, pair_e3, (1.6, 0.7, 0.7), 1.5, 2)
    state0 = flow.graph_state_from_mesh(mesh, euclid)
    with pytest.raises(StarshapeLost):
        flow.run_graph(euclid, pair, state0, ckv.Schedule(t0=1.0))


# --------------------------------------------------------------------------
# evolution-identity residuals
# --------------------------------------------------------------------------


def test_evolution_residuals_smoke(euclid, pair):
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), 3)
    state = flow.graph_state_from_mesh(seed, euclid)
    rel_u, rel_h = flow.evolution_residuals(euclid, pair, state,
                                            ckv.Schedule(t0=1.0))
    # level-3 smoke values; the H identity needs 4th-derivative jets and
    # only reaches its working accuracy at level 4 (see the acceptance run)
    assert rel_u < 0.2
    assert rel_h < 0.35
