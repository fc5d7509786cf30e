"""Integral identities, leaf profile, isoperimetric verdict, trace record."""

import numpy as np
import pytest

from ckflow import ckv, diagnostics, surface
from ckflow.errors import DomainExit


# --------------------------------------------------------------------------
# scalar diagnostics
# --------------------------------------------------------------------------


def test_leaf_distance_values():
    assert diagnostics.leaf_distance(np.array([1.3, 1.3, 1.3])) == 0.0
    spread = diagnostics.leaf_distance(np.array([1.0, 1.1]))
    assert abs(spread - 0.1 / 1.05) < 1e-15


def test_support_criterion_zero_on_leaves(paper, pair):
    vg = surface.mesh_geometry(surface.sphere_seed(0.8, 3), paper, pair)
    assert diagnostics.support_criterion(vg) < 1e-3
    vg_e = surface.mesh_geometry(
        surface.ellipsoid_seed((1.5, 1.0, 1.0), 3), paper, pair
    )
    assert diagnostics.support_criterion(vg_e) > 0.05


def test_minkowski1_small_on_resolved_shapes(euclid, paper, pair):
    for geom, shape in ((euclid, (1.3, 1.0, 1.0)), (paper, (1.05, 1.0, 0.95))):
        vg = surface.mesh_geometry(surface.ellipsoid_seed(shape, 4), geom, pair)
        assert diagnostics.minkowski1_residual(vg) <= 1e-2


def test_minkowski2_parts_balance_on_sphere(euclid, pair):
    vg = surface.mesh_geometry(surface.sphere_seed(1.0, 4), euclid, pair)
    lhs, rhs_ric, rhs_umb, scale = diagnostics.minkowski2_parts(
        surface.sphere_seed(1.0, 4), euclid, vg
    )
    assert rhs_ric == 0.0  # flat ambient space
    assert abs(lhs - rhs_umb) <= 5e-2 * scale


def test_umbilicity_separates_spheres_from_ellipsoids(euclid, pair):
    sphere = surface.sphere_seed(1.0, 4)
    ellipsoid = surface.ellipsoid_seed((2.0, 1.0, 1.0), 4)
    vg_s = surface.mesh_geometry(sphere, euclid, pair)
    vg_e = surface.mesh_geometry(ellipsoid, euclid, pair)
    h2 = float(np.sum(vg_s.H**2 * vg_s.area_g))
    assert diagnostics.umbilicity_deficit(sphere, vg_s) <= 5e-3 * h2
    assert diagnostics.umbilicity_deficit(ellipsoid, vg_e) > 0.1


def test_label_evolution_residual_small(euclid, pair):
    mesh = surface.ellipsoid_seed((1.3, 1.0, 1.0), 3)
    vg = surface.mesh_geometry(mesh, euclid, pair)
    check = diagnostics.label_evolution_residual(mesh, euclid, vg)
    assert check.rel <= 0.15
    assert check.lhs_norm > 0.0


# --------------------------------------------------------------------------
# leaf profile
# --------------------------------------------------------------------------


def test_leaf_area_and_volume_flat_closed_forms(euclid):
    for r in (0.5, 1.0, 1.7):
        assert abs(diagnostics.leaf_area(euclid, r) - 4.0 * np.pi * r * r) < 1e-10
        assert abs(
            diagnostics.ball_volume(euclid, r) - 4.0 * np.pi * r**3 / 3.0
        ) < 1e-9


def test_leaf_area_curved_closed_form(paper):
    # conformal factor 1/q^2 with the pole at distance 2 integrates to
    # A(r) = 4 pi r^2 / (4 - r^2)^2 over the coordinate sphere
    for r in (0.5, 1.0, 1.5):
        exact = 4.0 * np.pi * r * r / (4.0 - r * r) ** 2
        assert abs(diagnostics.leaf_area(paper, r) / exact - 1.0) < 1e-10


def test_leaf_profile_flat(euclid):
    prof = diagnostics.leaf_profile(euclid, 0.5, 2.0, n=64)
    assert np.max(np.abs(prof.area - 4.0 * np.pi * prof.r**2)) < 1e-9
    assert np.max(np.abs(prof.volume - 4.0 * np.pi * prof.r**3 / 3.0)) < 1e-8


def test_leaf_profile_curved_monotone(paper):
    prof = diagnostics.leaf_profile(paper, 0.3, 1.8, n=64)
    assert np.all(np.diff(prof.volume) > 0.0)
    assert np.all(np.diff(prof.area) > 0.0)


def test_leaf_profile_rejects_bad_ranges(paper):
    with pytest.raises(ValueError):
        diagnostics.leaf_profile(paper, 1.0, 0.5)
    with pytest.raises(DomainExit):
        diagnostics.leaf_profile(paper, 0.3, 2.5)


def test_leaf_radius_for_volume_flat(euclid):
    target = 2.0 * (4.0 * np.pi / 3.0)
    r1 = diagnostics.leaf_radius_for_volume(euclid, target, 0.5, 2.0)
    assert abs(r1 - 2.0 ** (1.0 / 3.0)) < 1e-10
    with pytest.raises(ValueError):
        diagnostics.leaf_radius_for_volume(euclid, target, 0.1, 0.2)


def test_ball_volume_and_leaf_radius_curved_closed_form(paper):
    # with exp(f) = 1/|x - c|^2, |c| = 2, the shell density integrates in
    # closed form: the integral of exp(3f) over |x| = s is
    # 4 pi s^2 (4 + s^2) / (4 - s^2)^4, the s-derivative of V below
    def exact(r):
        return 4.0 * np.pi * r**3 / (3.0 * (4.0 - r * r) ** 3)

    for r, tol in ((0.5, 1e-14), (1.0, 1e-14), (1.5, 1e-11)):
        assert abs(diagnostics.ball_volume(paper, r) / exact(r) - 1.0) < tol
    r1 = diagnostics.leaf_radius_for_volume(paper, exact(1.1), 0.3, 1.8)
    assert abs(r1 - 1.1) < 1e-10


def test_profile_csv_round_trip(euclid, tmp_path):
    prof = diagnostics.leaf_profile(euclid, 0.5, 1.0, n=8)
    path = tmp_path / "profile.csv"
    prof.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,area,volume"
    assert len(lines) == 9


# --------------------------------------------------------------------------
# isoperimetric verdict
# --------------------------------------------------------------------------


def test_isoperimetric_equality_on_leaf_seed(euclid, pair):
    mesh = surface.sphere_seed(1.2, 4)
    verdict = diagnostics.isoperimetric_check(euclid, mesh, mesh, True)
    assert verdict.isoperimetric_pass and verdict.converged
    assert abs(verdict.r_leaf / 1.2 - 1.0) < 1.5e-3
    # a polyhedral sphere has more area than the ball of equal volume
    assert verdict.area_leaf_equal_volume <= verdict.area_initial


def test_isoperimetric_verdict_file(euclid, pair, tmp_path):
    mesh = surface.ellipsoid_seed((1.3, 1.0, 1.0), 3)
    verdict = diagnostics.isoperimetric_check(euclid, mesh, mesh, False)
    path = tmp_path / "verdict.txt"
    verdict.write_txt(path)
    lines = path.read_text().strip().split("\n")
    keys = [ln.split(" = ")[0] for ln in lines]
    assert keys == [
        "area_initial", "area_final", "volume_initial", "volume_final",
        "area_leaf_equal_volume", "isoperimetric_pass", "converged",
    ]
    assert "converged = false" in lines[-1]


# --------------------------------------------------------------------------
# curvature growth envelope
# --------------------------------------------------------------------------


def test_h_growth_fit_constant_history():
    t = np.linspace(0.0, 5.0, 40)
    h = np.full_like(t, 2.0 / 1.3)
    a, b, ok = diagnostics.h_growth_fit(t, h)
    assert ok and b <= 1e-12
    assert abs(a - 2.0 / 1.3) < 0.02 * (2.0 / 1.3)


def test_h_growth_fit_flags_late_blowup():
    t = np.linspace(0.0, 5.0, 40)
    h = 1.0 + 0.1 * t
    h[-5:] += 3.0
    _, _, ok = diagnostics.h_growth_fit(t, h)
    assert not ok
    with pytest.raises(ValueError):
        diagnostics.h_growth_fit(t[:3], h[:3])


def test_h_growth_envelope_on_run(euclid_l2_run):
    trace = euclid_l2_run.trace
    a, b, ok = diagnostics.h_growth_fit(trace.column("time"),
                                        trace.column("H_max"))
    assert ok


# --------------------------------------------------------------------------
# trace record
# --------------------------------------------------------------------------


def test_trace_rejects_incomplete_rows():
    trace = diagnostics.FlowTrace()
    with pytest.raises(ValueError):
        trace.add(step=0, time=0.0)


def test_trace_csv_format(tmp_path):
    trace = diagnostics.FlowTrace()
    row = {c: float(k) for k, c in enumerate(diagnostics.TRACE_COLUMNS)}
    trace.add(**row)
    row2 = dict(row, step=1.0, time=0.5)
    trace.add(**row2)
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(diagnostics.TRACE_COLUMNS)
    assert lines[1].startswith("0,1,2,")
    assert len(trace) == 2
    assert np.allclose(trace.column("time"), [1.0, 0.5])
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_text() == text
