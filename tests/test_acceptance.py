"""Acceptance checks: one test per headline property of the solver.

Each test prints a single [PASS]/[FAIL] line so a plain `pytest -v -s
tests/test_acceptance.py` doubles as the sign-off checklist.  The heavy
level-4 runs are shared session fixtures (see conftest).
"""

import numpy as np
import pytest

from ckflow import ambient, ckv, diagnostics, flow, oracles, surface
from ckflow.errors import StarshapeLost
from conftest import cross_backend_at, seed_label_band


def report(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


# --------------------------------------------------------------------------


def test_c01_leaf_stationarity(euclid, pair):
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        vg = surface.mesh_geometry(surface.sphere_seed(r, 4), euclid, pair)
        speed = vg.speed
        worst = max(worst, float(np.max(np.abs(speed)) / np.max(vg.H)))
    report(f"criterion 1: flat spheres stationary (max speed/H = {worst:.2e},"
           " tol 1e-2)", worst <= 1e-2)


def volume_area_check(res):
    trace = res.trace
    vol = trace.column("volume")
    area = trace.column("area")
    drift = float(np.max(np.abs(vol / vol[0] - 1.0)))
    monotone = bool(np.all(np.diff(area) <= area[:-1] * 1e-8))
    return (f"volume drift {drift:.2e} <= 5e-3 and area non-increasing each "
            f"step (slack 1e-8): {monotone}", drift <= 5e-3 and monotone)


def equal_volume_sphere_check(res):
    ld = float(res.trace.column("leaf_distance")[-1])
    area = float(res.trace.column("area")[-1])
    target = 4.0 * np.pi * 2.0 ** (2.0 / 3.0)  # seed volume is 8 pi / 3
    rel = abs(area / target - 1.0)
    return (f"converged={res.converged}, leaf distance {ld:.2e} <= 1e-2, "
            f"final area off by {rel:.2e} <= 1e-2",
            res.converged and ld <= 1e-2 and rel <= 1e-2)


@pytest.mark.slow
def test_c02_volume_conserved_area_monotone(euclid_headline):
    label, ok = volume_area_check(euclid_headline)
    report(f"criterion 2: {label}", ok)


@pytest.mark.slow
def test_c03_convergence_to_equal_volume_sphere(euclid_headline):
    label, ok = equal_volume_sphere_check(euclid_headline)
    report(f"criterion 3: {label}", ok)


@pytest.mark.slow
def test_c04_leaf_band_maximum_principle(euclid_l2_run, euclid_headline,
                                         paper_run, twisted_run,
                                         cross_backend):
    runs = {
        "flat ellipsoid L2": euclid_l2_run,
        "flat ellipsoid L4": euclid_headline,
        "curved ellipsoid L4": paper_run,
        "twisted L4": twisted_run["res"],
        "cross lagrangian": cross_backend["lag"],
        "cross graph": cross_backend["gra"],
    }
    bad = []
    for name, res in runs.items():
        lo, hi = seed_label_band(res.trace)
        in_band = (np.all(res.trace.column("lambda_min") >= lo)
                   and np.all(res.trace.column("lambda_max") <= hi))
        if not in_band:
            bad.append(name)
    report("criterion 4: lambda stays in the seed band (slack 1e-3 range) "
           f"on all {len(runs)} runs", not bad)


def test_c05_minkowski_identities(euclid, paper, poincare, pair):
    shapes = [
        (euclid, ("s", 1.0)),
        (euclid, ("e", (2.0, 1.0, 1.0))),
        (euclid, ("e", (1.3, 1.0, 1.0))),
        (paper, ("s", 0.8)),
        (paper, ("e", (1.08, 1.0, 0.93))),
        (poincare, ("s", 0.5)),
    ]
    worst1, worst_ratio, worst2 = 0.0, 0.0, 0.0
    for geom, (kind, arg) in shapes:
        m1 = []
        for level in (4, 5):
            mesh = (surface.sphere_seed(arg, level) if kind == "s"
                    else surface.ellipsoid_seed(arg, level))
            vg = surface.mesh_geometry(mesh, geom, pair)
            m1.append(diagnostics.minkowski1_residual(vg))
            if level == 4 and isinstance(geom, ambient.Euclidean):
                worst2 = max(worst2,
                             diagnostics.minkowski2_residual(mesh, geom, vg))
        worst1 = max(worst1, m1[0])
        worst_ratio = max(worst_ratio, m1[1] / m1[0])
    report(f"criterion 5: mink1 L4 max {worst1:.2e} <= 1e-2, refinement "
           f"ratio max {worst_ratio:.2f} <= 0.7, flat mink2 max "
           f"{worst2:.2e} <= 5e-2",
           worst1 <= 1e-2 and worst_ratio <= 0.7 and worst2 <= 5e-2)


def test_c06_evolution_equation_residuals(euclid, paper, pair):
    # label identity on smooth non-leaf seeds (on a leaf all terms vanish)
    worst_lam = 0.0
    for geom, ax in ((euclid, (1.3, 1.0, 1.0)), (euclid, (1.6, 1.0, 1.0)),
                     (paper, (1.08, 1.0, 0.93))):
        mesh = surface.ellipsoid_seed(ax, 4)
        vg = surface.mesh_geometry(mesh, geom, pair)
        worst_lam = max(
            worst_lam, oracles.label_evolution_residual(
                mesh, geom, vg).rel
        )
    # u/H identities probed on graph snapshots
    sphere = surface.sphere_seed(1.0, 4)
    bump = 1.0 + 0.05 * sphere.vertices[:, 2] ** 2
    pert = sphere.with_vertices(bump[:, None] * sphere.vertices)
    sphere9 = surface.sphere_seed(0.9, 4)
    bump9 = 1.0 + 0.05 * (sphere9.vertices[:, 2] / 0.9) ** 2
    pert9 = sphere9.with_vertices(bump9[:, None] * sphere9.vertices)
    worst_u, worst_h = 0.0, 0.0
    for geom, mesh in ((euclid, surface.ellipsoid_seed((1.6, 1.0, 1.0), 4)),
                       (euclid, pert), (paper, pert9)):
        state = flow.graph_state_from_mesh(mesh, geom)
        rel_u, rel_h = oracles.evolution_residuals(geom, pair, state,
                                                   ckv.Schedule(t0=1.0))
        worst_u, worst_h = max(worst_u, rel_u), max(worst_h, rel_h)
    report(f"criterion 6: label residual {worst_lam:.2e} <= 5e-2, "
           f"u residual {worst_u:.2e} <= 1e-1, H residual "
           f"{worst_h:.2e} <= 1e-1",
           worst_lam <= 5e-2 and worst_u <= 1e-1 and worst_h <= 1e-1)


@pytest.mark.slow
def test_c07_schedule_necessity(euclid, pair, twisted_run):
    seed_ok = twisted_run["min_uperp"] < 0.0 < twisted_run["min_u"]
    res = twisted_run["res"]
    u_min = res.trace.column("u_min")
    positive = bool(np.all(u_min > 0.0))
    # identical seed without the rotational part: rejected at t = 0
    try:
        flow.run(euclid, pair, twisted_run["mesh"], ckv.Schedule(t0=1.0))
        control_rejected, detail = False, "no error raised"
    except StarshapeLost as err:
        control_rejected, detail = "t=0" in str(err), str(err)
    report(
        "criterion 7: scheduled twisted run has min u "
        f"{float(u_min.min()):.3f} > 0 and converges ({res.converged}); "
        f"unscheduled control rejected at start ({detail.split('(')[0].strip()})",
        seed_ok and positive and res.converged and control_rejected,
    )


def curved_run_check(res):
    vol = res.trace.column("volume")
    drift = float(np.max(np.abs(vol / vol[0] - 1.0)))
    ld = float(res.trace.column("leaf_distance")[-1])
    return (f"curved run converged={res.converged} (leaf {ld:.2e} <= 1e-2, "
            f"drift {drift:.2e} <= 5e-3)",
            res.converged and ld <= 1e-2 and drift <= 5e-3)


@pytest.mark.slow
def test_c08_curved_example(paper, pair, paper_run):
    lam_lo = float(ckv.lam(paper, np.array([[0.3, 0.0, 0.0]]))[0])
    lam_hi = float(ckv.lam(paper, np.array([[1.8, 0.0, 0.0]]))[0])
    rep = ckv.verify_assumptions(paper, pair, lam_lo, lam_hi)
    all_ten = rep.ok and len({it.index for it in rep.items}) == 10

    p = np.array([[1.0, 0.0, 0.0]])
    phi_err = abs(float(ckv.phi(paper, p)[0]) - 3.0)
    lam_err = abs(float(ckv.lam(paper, p)[0]) - 1.0 / 9.0)
    xperp_lam = float(paper.dlambda_dr(np.array([1.0]))[0])  # |p| = 1
    xp_err = abs(xperp_lam - 10.0 / 27.0)
    analytic = max(phi_err, lam_err, xp_err)

    h = 1e-6
    df = (paper.f(p + [[h, 0, 0]]) - paper.f(p - [[h, 0, 0]])) / (2 * h)
    phi_fd = abs(1.0 + float(df[0]) - 3.0)
    lam_p = float(ckv.lam(paper, p + [[h, 0, 0]])[0])
    lam_m = float(ckv.lam(paper, p - [[h, 0, 0]])[0])
    xp_fd = abs((lam_p - lam_m) / (2 * h) - 10.0 / 27.0)
    fd = max(phi_fd, xp_fd)

    run_label, run_ok = curved_run_check(paper_run)
    report(
        f"criterion 8: ten shell conditions pass ({all_ten}), spot values "
        f"analytic {analytic:.1e} <= 1e-10 / FD {fd:.1e} <= 1e-5, {run_label}",
        all_ten and analytic <= 1e-10 and fd <= 1e-5 and run_ok,
    )


def test_c09_graph_flux_ellipticity(paper, pair):
    c2, c3 = oracles.ellipticity_bounds(None, None, 1.0)
    unit_ok = abs(c2 - 2.0 ** -1.5) <= 1e-6 and abs(c3 - 1.0) <= 1e-6
    shell = (float(ckv.lam(paper, np.array([[0.3, 0.0, 0.0]]))[0]),
             float(ckv.lam(paper, np.array([[1.8, 0.0, 0.0]]))[0]))
    c2c, c3c = oracles.ellipticity_bounds(paper, shell, 1.0)
    report(
        f"criterion 9: unit-coefficient bounds ({c2:.6f}, {c3:.6f}) match "
        f"(2^-3/2, 1); curved shell keeps c2 = {c2c:.3e} > 0",
        unit_ok and c2c > 0.0 and c3c >= c2c,
    )


def cross_backend_gap(euclid, runs):
    """(front steps, graph steps, lambda max-norm gap) of a cross-backend
    pair of runs, which must end at the same time."""
    lag, gra = runs["lag"], runs["gra"]
    assert abs(lag.t - gra.t) <= 1e-12
    seed = runs["seed"].vertices
    dirs = seed / np.linalg.norm(seed, axis=1, keepdims=True)
    pts = oracles.radial_intersections(lag.mesh, dirs)
    lam_lag = ckv.lam(euclid, pts)
    lam_gra = ckv.lam(euclid, gra.mesh.vertices)
    rel = float(np.max(np.abs(lam_lag - lam_gra)) / np.max(np.abs(lam_gra)))
    return lag.steps, gra.steps, rel


@pytest.mark.slow
def test_c10_cross_backend_agreement(euclid, pair, cross_backend):
    # under one step bound both backends take the same steps, and their
    # independent discretisations of one PDE close in on each other
    runs = [cross_backend_at(euclid, pair, level) for level in (2, 3)]
    gaps = [cross_backend_gap(euclid, r) for r in runs + [cross_backend]]
    rels = [rel for _, _, rel in gaps]
    steps = "/".join(f"{a}:{b}" for a, b, _ in gaps)
    report(f"criterion 10: backends agree at t = 0.25 over L2-L4 (steps "
           f"{steps} front:graph, lambda max-norm gap "
           + " > ".join(f"{rel:.2e}" for rel in rels) + ", L4 <= 2e-2)",
           all(a == b for a, b, _ in gaps)
           and all(x > y for x, y in zip(rels, rels[1:])) and rels[-1] <= 2e-2)


def test_c11_isoperimetric_equality_case(euclid, pair):
    mesh = surface.sphere_seed(1.2, 4)
    verdict = diagnostics.isoperimetric_check(euclid, mesh, mesh, True)
    r_err = abs(verdict.r_leaf / 1.2 - 1.0)
    a_err = abs(verdict.area_leaf_equal_volume / verdict.area_initial - 1.0)
    report(f"criterion 11: leaf seed recovers its radius (err {r_err:.2e} "
           f"<= 1e-3) and area (err {a_err:.2e} <= 1e-3)",
           verdict.isoperimetric_pass and r_err <= 1e-3 and a_err <= 1e-3)
