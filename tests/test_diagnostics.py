"""Integral identities, leaf profile, isoperimetric verdict, trace record."""

import numpy as np
import pytest
from scipy import integrate

from ckflow import ambient, diagnostics, flow, oracles, surface
from ckflow.errors import DomainExit
from conftest import run_backend


# --------------------------------------------------------------------------
# scalar diagnostics
# --------------------------------------------------------------------------


def test_leaf_distance_values():
    assert diagnostics.leaf_distance(np.array([1.3, 1.3, 1.3])) == 0.0
    spread = diagnostics.leaf_distance(np.array([1.0, 1.1]))
    assert abs(spread - 0.1 / 1.05) < 1e-15


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
    check = oracles.label_evolution_residual(mesh, euclid, vg)
    assert check.rel <= 0.15
    assert check.lhs_norm > 0.0


# --------------------------------------------------------------------------
# leaf profile
# --------------------------------------------------------------------------


def _sphere_integral(geom, r, power):
    """Integral of exp(power * f) over the coordinate sphere of radius r,
    from geom.f alone by adaptive quadrature in the angle from the x axis
    (the paper example's pole axis; the other geometries are radial)."""

    def density(theta):
        p = r * np.array([np.cos(theta), np.sin(theta), 0.0])
        return np.exp(power * geom.f(p)) * np.sin(theta)

    val, _ = integrate.quad(density, 0.0, np.pi, epsabs=0.0, epsrel=1e-13,
                            limit=200)
    return 2.0 * np.pi * r * r * val


def _ball_volume_by_quad(geom, r):
    val, _ = integrate.quad(lambda s: _sphere_integral(geom, s, 3.0), 0.0, r,
                            epsabs=0.0, epsrel=1e-13, limit=200)
    return val


@pytest.mark.parametrize("geom, radii", [
    (ambient.Euclidean(), (0.3, 1.0, 2.5)),
    # up to 0.05 from the pole, where exp(f) peaks
    (ambient.PaperExample(), (0.5, 1.0, 1.5, 1.85, 1.9, 1.95)),
    # r/R of 1e-4 and 1e-3 too, where the closed-form ball volume cancels
    # to O((r/R)^3)
    (ambient.PoincareBall(1.0), (1e-4, 1e-3, 0.05, 0.3, 0.6, 0.9)),
    (ambient.PoincareBall(0.8), (8e-5, 8e-4, 0.04, 0.4, 0.7)),
], ids=["euclid", "paper", "poincare_r1", "poincare_r0.8"])
def test_leaf_area_and_ball_volume_match_quadrature_of_f(geom, radii):
    for r in radii:
        assert geom.leaf_area(r) == pytest.approx(
            _sphere_integral(geom, r, 2.0), rel=1e-12, abs=0.0)
        assert geom.ball_volume(r) == pytest.approx(
            _ball_volume_by_quad(geom, r), rel=1e-12, abs=0.0)
    # an array of radii gives the same values as the scalars
    r = np.array(radii)
    np.testing.assert_array_equal(geom.leaf_area(r),
                                  [geom.leaf_area(x) for x in radii])
    np.testing.assert_array_equal(geom.ball_volume(r),
                                  [geom.ball_volume(x) for x in radii])


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
    # with exp(f) = 1/|x - c|^2, |c| = 2, the coordinate ball of radius r
    # holds V(r) = 4 pi r^3 / (3 (4 - r^2)^3); the root search inverts it,
    # near the pole too
    def exact(r):
        return 4.0 * np.pi * r**3 / (3.0 * (4.0 - r * r) ** 3)

    for r in (0.31, 1.1, 1.9, 1.97):
        r1 = diagnostics.leaf_radius_for_volume(paper, exact(r), 0.3, 1.98)
        assert abs(r1 - r) < 1e-10


def test_leaf_radius_rejects_targets_outside_the_range(paper):
    v_lo = paper.ball_volume(0.3)
    v_hi = paper.ball_volume(1.8)
    for target in (0.5 * v_lo, 1.01 * v_hi):
        with pytest.raises(ValueError, match="not bracketed"):
            diagnostics.leaf_radius_for_volume(paper, target, 0.3, 1.8)


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


@pytest.mark.parametrize("backend", ["lagrangian", "leaf_graph"])
def test_isoperimetric_verdict_reads_the_run_memo(euclid, pair, monkeypatch,
                                                  backend):
    # a run leaves the curved area and volume of its first and last
    # snapshots in their memos, so the verdict calls neither kernel
    res = run_backend(backend, euclid, pair,
                      surface.ellipsoid_seed((1.3, 1.0, 1.0), 2),
                      flow.StepControl(t_end=0.05))
    args = (euclid, res.mesh_initial, res.mesh, res.converged)
    expected = diagnostics.isoperimetric_check(*args)

    def forbidden(*_):
        raise AssertionError("the verdict recomputed a memoized value")

    for module in (surface, diagnostics):
        monkeypatch.setattr(module, "surface_area", forbidden)
        monkeypatch.setattr(module, "enclosed_volume", forbidden)
    assert res.steps > 0
    assert diagnostics.isoperimetric_check(*args) == expected


# --------------------------------------------------------------------------
# curvature growth envelope
# --------------------------------------------------------------------------


def test_h_growth_fit_constant_history():
    t = np.linspace(0.0, 5.0, 40)
    h = np.full_like(t, 2.0 / 1.3)
    a, b, ok = oracles.h_growth_fit(t, h)
    assert ok and b <= 1e-12
    assert abs(a - 2.0 / 1.3) < 0.02 * (2.0 / 1.3)


def test_h_growth_fit_flags_late_blowup():
    t = np.linspace(0.0, 5.0, 40)
    h = 1.0 + 0.1 * t
    h[-5:] += 3.0
    _, _, ok = oracles.h_growth_fit(t, h)
    assert not ok
    with pytest.raises(ValueError):
        oracles.h_growth_fit(t[:3], h[:3])


def test_h_growth_envelope_on_run(euclid_l2_run):
    trace = euclid_l2_run.trace
    a, b, ok = oracles.h_growth_fit(trace.column("time"),
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


def _brackets(geom, rng, count):
    """Random brackets [lo, hi] in the chart with a root r inside each."""
    r_out = float(geom.outer_distance(np.zeros(3)))
    top = 0.995 * r_out if np.isfinite(r_out) else 3.0
    for _ in range(count):
        lo, r, hi = np.sort(rng.uniform(1e-3 * top, top, 3))
        yield float(lo), float(r), float(hi)


def _volume_gap(geom, target):
    return lambda r: float(geom.ball_volume(r)) - target


@pytest.mark.parametrize("name", ["euclid", "paper", "poincare"])
def test_leaf_radius_is_scipys_brentq(name, request):
    from scipy.optimize import brentq
    geom = request.getfixturevalue(name)
    cases = list(_brackets(geom, np.random.default_rng(5), 60))
    if name == "paper":
        cases.append((0.3, 1.97, 1.98))            # the pole at |x| = 2
    if name == "poincare":
        cases += [(1e-3, 0.02, 0.3), (0.01, 0.049, 0.06)]  # the series branch
    cases += [(lo, lo, hi) for lo, _, hi in cases[:3]]     # a root at an end
    cases += [(lo, hi, hi) for lo, _, hi in cases[:3]]
    for lo, r, hi in cases:
        target = float(geom.ball_volume(r))
        got = diagnostics.leaf_radius_for_volume(geom, target, lo, hi)
        assert got == brentq(_volume_gap(geom, target), lo, hi,
                             xtol=1e-12, rtol=1e-13)
        assert abs(got - r) <= 1e-10 * max(1.0, r)
    # outside the bracket both refuse with a ValueError
    lo, r, hi = cases[0]
    target = float(geom.ball_volume(0.5 * lo))
    fn = _volume_gap(geom, target)
    with pytest.raises(ValueError, match="not bracketed"):
        diagnostics.leaf_radius_for_volume(geom, target, lo, hi)
    with pytest.raises(ValueError, match="different signs"):
        brentq(fn, lo, hi, xtol=1e-12, rtol=1e-13)
    with pytest.raises(ValueError, match="different signs"):
        diagnostics._brentq(fn, lo, hi, fn(lo), fn(hi), 1e-12, 1e-13)


def test_brentq_fails_like_scipys():
    from scipy.optimize import brentq

    def fn(x):
        return x**3 - 2.0 * x - 5.0

    for maxiter in (1, 2, 5):
        with pytest.raises(RuntimeError) as ref:
            brentq(fn, 0.0, 4.0, xtol=1e-12, rtol=1e-13, maxiter=maxiter)
        with pytest.raises(RuntimeError) as got:
            diagnostics._brentq(fn, 0.0, 4.0, fn(0.0), fn(4.0), 1e-12, 1e-13,
                                maxiter=maxiter)
        assert str(got.value) == str(ref.value)
    assert (diagnostics._brentq(fn, 0.0, 4.0, fn(0.0), fn(4.0), 1e-12, 1e-13)
            == brentq(fn, 0.0, 4.0, xtol=1e-12, rtol=1e-13))
    with pytest.raises(ValueError, match="NaN"):
        diagnostics._brentq(lambda x: np.nan, 0.0, 1.0, -1.0, 1.0,
                            1e-12, 1e-13)
