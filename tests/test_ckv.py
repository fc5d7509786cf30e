"""Conformal Killing pair scalars, schedule, horizon estimate, verifier."""

import numpy as np
import pytest

from ckflow import ambient, ckv
from ckflow.errors import ScheduleInfeasible

# 2 s/(1 - s^2)^2 exp(-s^2/(1 - s^2)) at s = 3^(-1/4); guards the schedule
# normalization
XI_SUP_PRIME = 2.170357085710339


def test_phi_spot_values(euclid, paper):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 3))
    assert np.allclose(ckv.phi(euclid, pts), 1.0)
    assert abs(ckv.phi(paper, np.array([1.0, 0.0, 0.0])) - 3.0) < 1e-10
    assert abs(ckv.phi(paper, np.array([0.0, 1.0, 0.0])) - 0.6) < 1e-10


def test_phi_matches_fd_conformal_factor(paper, poincare):
    # phi = 1 + X_perp(f), with the dilation derivative taken by FD
    rng = np.random.default_rng(1)
    for geom in (paper, poincare):
        for _ in range(8):
            p = rng.uniform(-0.45, 0.45, size=3) + np.array([0.7, 0.0, 0.0])
            if not geom.boundary_distance(p[None])[0] > 0.1:
                continue
            fd = 1.0 + float(p @ ambient.fd_jacobian(geom, geom.f, p))
            assert abs(ckv.phi(geom, p) - fd) < 1e-5


def test_lambda_spot_values(euclid, paper):
    assert abs(ckv.lam(paper, np.array([1.0, 0.0, 0.0])) - 1.0 / 9.0) < 1e-10
    assert abs(ckv.lam(euclid, np.array([0.0, 0.0, 2.0])) - 4.0) < 1e-12


def test_lambda_constant_on_leaves(paper):
    rng = np.random.default_rng(2)
    v = rng.normal(size=(200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    vals = ckv.lam(paper, 1.3 * v)
    assert np.std(vals) < 1e-10


def test_Lambda_euclidean_is_one(euclid):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 3))
    assert np.allclose(ckv.Lam(euclid, pts), 1.0)


def test_dilation_lambda_paper_spot_value(paper):
    # X_perp(lam) at r=1: 2 r^2 (4 + r^2)/(4 - r^2)^3 = 10/27
    p = np.array([1.0, 0.0, 0.0])
    analytic = float(paper.dlambda_dr(1.0))  # times r = 1
    assert abs(analytic - 10.0 / 27.0) < 1e-10
    fd = float(p @ ambient.fd_jacobian(paper, lambda q: ckv.lam(paper, q), p))
    assert abs(fd - 10.0 / 27.0) < 1e-5
    # and it equals 2 Lam |X_perp|_g^2 at the same point
    two_lam_x2 = 2.0 * ckv.Lam(paper, p) * ckv.dilation_norm_g(paper, p) ** 2
    assert abs(two_lam_x2 - 10.0 / 27.0) < 1e-10


def test_grad_lambda_proportional_to_dilation(euclid, paper, poincare):
    # flat-chart identity: d(lam) = 2 Lam e^{2f} X_perp
    rng = np.random.default_rng(4)
    for geom in (euclid, paper, poincare):
        for _ in range(8):
            p = rng.uniform(-0.5, 0.5, size=3) + np.array([0.6, 0.0, 0.0])
            if not geom.boundary_distance(p[None])[0] > 0.1:
                continue
            fd = ambient.fd_jacobian(geom, lambda q: ckv.lam(geom, q), p)
            target = 2.0 * ckv.Lam(geom, p) * np.exp(2.0 * geom.f(p)) * p
            assert np.max(np.abs(fd - target)) <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_xi_schedule_shape():
    assert ckv.xi(0.0) == 1.0
    assert ckv.xi(2.0) == 0.0
    assert ckv.xi_prime(2.0) == 0.0
    assert ckv.xi(1.0) == 0.0
    s = np.linspace(0.0, 2.0, 10001)
    vals = ckv.xi(s)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals[s >= 1.0] == 0.0)
    # smooth closure at s=1: values decay faster than any polynomial
    assert ckv.xi(0.999) < 1e-100


def test_xi_sup_derivative_regression():
    assert abs(ckv.xi_sup_derivative() - XI_SUP_PRIME) < 1e-12


def test_xi_sup_derivative_bounds_a_dense_sample():
    s = np.linspace(0.0, 1.0, 1000001)
    assert np.max(np.abs(ckv.xi_prime(s))) <= ckv.xi_sup_derivative()


def shell_label(geom, r):
    """The leaf label of the coordinate sphere of radius r."""
    return float(ckv.lam(geom, (r, 0.0, 0.0)))


RADIAL_GEOMETRIES = {"euclid": ambient.Euclidean(),
                     "paper": ambient.PaperExample(),
                     "poincare": ambient.PoincareBall(1.0),
                     "poincare_2.5": ambient.PoincareBall(2.5)}


def _random_rays(geom, rng, n=200):
    """n radii inside the chart domain (below 3) and unit directions."""
    dirs = rng.standard_normal((n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_max = min(3.0, float(geom.outer_distance(np.zeros(3))))
    return rng.uniform(0.05, 0.95, n) * r_max, dirs


def _radial_derivative(func, r, dirs):
    """Central difference of func along each ray at r, step 1e-6 r."""
    h = 1e-6 * r
    return (func((r + h)[:, None] * dirs) - func((r - h)[:, None] * dirs)) \
        / (2.0 * h)


@pytest.mark.parametrize("name", RADIAL_GEOMETRIES)
def test_radial_closed_forms_match_the_pointwise_scalars(name):
    # the graph reads r_of_lambda for its embedding, dlambda_dr for its H
    # coefficient and d_lam_phi2_dr for its source B
    geom = RADIAL_GEOMETRIES[name]
    r, dirs = _random_rays(geom, np.random.default_rng(11))
    label = ckv.lam(geom, r[:, None] * dirs)
    assert np.max(np.abs(geom.r_of_lambda(label) / r - 1.0)) <= 1e-13
    fd = _radial_derivative(lambda p: ckv.lam(geom, p), r, dirs)
    assert np.max(np.abs(fd / geom.dlambda_dr(r) - 1.0)) <= 1e-7
    # flat space: Lam phi^2 = 1 exactly, so both sides are exactly zero
    fd = _radial_derivative(
        lambda p: ckv.Lam(geom, p) * ckv.phi(geom, p) ** 2, r, dirs)
    exact = geom.d_lam_phi2_dr(r)
    assert np.all(np.abs(fd - exact) <= 1e-6 * np.abs(exact))


def test_estimate_T0_euclid_closed_form(euclid):
    # c = 1 (Lam phi^3 = 1, X_top(phi) = 0), M = 2 on the lam <= 4 shell
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    t0 = ckv.estimate_T0(euclid, pair, 0.25, 4.0, margin=0.1)
    assert abs(t0 - XI_SUP_PRIME * 2.0 / (2.0 * 0.9)) < 1e-3


def test_estimate_T0_no_rotation(euclid):
    assert ckv.estimate_T0(euclid, ckv.KillingPair(), 0.25, 4.0) == 1.0


def test_estimate_T0_paper_sampling_converged(paper):
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    lo = shell_label(paper, 0.5)
    hi = shell_label(paper, 1.8)
    t0 = ckv.estimate_T0(paper, pair, lo, hi)
    t0_dense = ckv.estimate_T0(paper, pair, lo, hi,
                               n_spheres=64, n_per_sphere=2000)
    assert t0 > 0.0 and np.isfinite(t0)
    assert abs(t0_dense - t0) / t0 < 1e-2


def test_schedule_infeasible_for_wrong_axis(paper):
    # rotation about e3 does not preserve f; a large rate drives the
    # schedule gap negative somewhere on the shell
    pair = ckv.KillingPair(omega=50.0, axis=(0.0, 0.0, 1.0))
    with pytest.raises(ScheduleInfeasible):
        ckv.estimate_T0(paper, pair, shell_label(paper, 0.5),
                        shell_label(paper, 1.8))


def test_schedule_t0_inequality(euclid):
    # |xi'(t/T0)| M / T0 <= n c (1 - margin/2) for the returned T0
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    t0 = ckv.estimate_T0(euclid, pair, 0.25, 4.0, margin=0.1)
    tgrid = np.linspace(0.0, 1.5 * t0, 2001)
    lhs = np.abs(ckv.xi_prime(tgrid / t0) / t0) * 2.0
    assert np.max(lhs) <= 2.0 * 1.0 * (1.0 - 0.05)


def test_schedule_rejects_bad_horizon():
    with pytest.raises(ScheduleInfeasible):
        ckv.Schedule(t0=-1.0)
    # xi(t / nan) reads 0: the rotation would be off from t = 0; under an
    # infinite horizon it would never decay
    for t0 in (float("nan"), float("inf")):
        with pytest.raises(ScheduleInfeasible):
            ckv.Schedule(t0=t0)


def test_estimate_T0_rejects_a_nan_gap(euclid, monkeypatch):
    monkeypatch.setattr(ckv, "schedule_gap",
                        lambda geom, pair, p: np.full(len(p), np.nan))
    with pytest.raises(ScheduleInfeasible):
        ckv.estimate_T0(euclid, ckv.KillingPair(omega=1.0), 0.25, 4.0)


@pytest.mark.parametrize("kwargs", [
    dict(axis=(0.0, 0.0, 0.0)), dict(axis=(np.nan, 0.0, 1.0)),
    dict(axis=(np.inf, 0.0, 1.0)), dict(omega=np.nan), dict(omega=np.inf),
], ids=["zero_axis", "nan_axis", "inf_axis", "nan_omega", "inf_omega"])
def test_killing_pair_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        ckv.KillingPair(**kwargs)


def test_verify_assumptions_euclid_exact(euclid):
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    report = ckv.verify_assumptions(euclid, pair, 0.25, 4.0)
    assert report.ok
    # conformality of the linear field is exact at stencil precision
    assert report["i"].value <= 1e-12
    assert "overall: pass" in report.table()


def test_verify_assumptions_tiny_omega_keeps_the_rotation_items(paper):
    # items (ix)/(x) read only the rotation's direction; a tiny omega once
    # left no sample above the field-length cut-off and raised ValueError
    lo = shell_label(paper, 0.5)
    hi = shell_label(paper, 1.5)
    reports = [ckv.verify_assumptions(paper, ckv.KillingPair(omega=omega), lo,
                                      hi) for omega in (1.0, 1e-300)]
    for name in ("rotation_least_ricci", "ricci_values_equal"):
        one, tiny = (next(it for it in rep.items if it.name == name)
                     for rep in reports)
        assert tiny.value == one.value and tiny.passed == one.passed


def test_verify_assumptions_wrong_axis_fails_killing(paper):
    pair = ckv.KillingPair(omega=1.0, axis=(0.0, 0.0, 1.0))
    lo = shell_label(paper, 0.5)
    hi = shell_label(paper, 1.5)
    report = ckv.verify_assumptions(paper, pair, lo, hi)
    assert not report.ok
    assert not report["vii"].passed


def test_verify_assumptions_poincare(poincare):
    pair = ckv.KillingPair(omega=1.0, axis=(0.0, 1.0, 0.0))
    lo = shell_label(poincare, 0.2)
    hi = shell_label(poincare, 0.7)
    report = ckv.verify_assumptions(poincare, pair, lo, hi)
    assert report.ok


def loop_lie_derivative_metric(geom, field, jac, p):
    """(L_X g)_ij at one point, metric derivative from the p +- h e_k
    stencil; the per-point form of the verifier, kept as a reference."""
    h = float(geom.fd_step(p))
    dg = np.zeros((3, 3, 3))  # [k, i, j] = d_k g_ij
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dg[k] = (geom.metric_at(p + e) - geom.metric_at(p - e)) / (2.0 * h)
    g = geom.metric_at(p)
    lie = np.einsum("k,kij->ij", field(p), dg)
    lie += np.einsum("kj,ki->ij", g, jac)
    lie += np.einsum("ik,kj->ij", g, jac)
    return lie


def loop_conformal_and_killing(geom, pair, sub):
    """Worst (value, point) of items (i) and (vii), one point at a time."""
    worst = {"i": (0.0, tuple(sub[0])), "vii": (0.0, tuple(sub[0]))}
    for q in sub:
        lie = loop_lie_derivative_metric(geom, pair.full, pair.full_jac(1.0), q)
        target = 2.0 * ckv.phi(geom, q) * geom.metric_at(q)
        scale = max(1.0, float(np.max(np.abs(target))))
        res_i = float(np.max(np.abs(lie - target))) / scale
        lie = loop_lie_derivative_metric(geom, pair.rotation,
                                         pair.rotation_jac(), q)
        scale = float(np.max(np.abs(geom.metric_at(q)))) * (1.0 + abs(pair.omega))
        res_vii = float(np.max(np.abs(lie))) / scale
        for index, res in (("i", res_i), ("vii", res_vii)):
            if res > worst[index][0]:
                worst[index] = (res, tuple(q))
    return worst


@pytest.mark.parametrize("axis, failing", [
    ((1.0, 0.0, 0.0), set()),
    ((0.0, 0.0, 1.0), {"i", "vii"}),  # f is not symmetric about e3
])
def test_verify_assumptions_matches_per_point_reference(paper, axis, failing):
    pair = ckv.KillingPair(omega=1.0, axis=axis)
    lo = shell_label(paper, 0.5)
    hi = shell_label(paper, 1.5)
    report = ckv.verify_assumptions(paper, pair, lo, hi)
    _, pts = ckv.shell_spheres(paper, lo, hi, 16, 200, 0)
    flat = pts.reshape(-1, 3)
    ref = loop_conformal_and_killing(paper, pair, flat[:: flat.shape[0] // 160])
    for index, (value, point) in ref.items():
        assert abs(report[index].value - value) <= 1e-12
        assert report[index].worst_point == point
    assert {it.index for it in report.items if not it.passed} == failing


# --------------------------------------------------------------------------
# the shell sampler and the fused assumption scalars
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31])
@pytest.mark.parametrize("n", [1, 7, 200, 1000])
def test_scrambled_halton_is_scipys(n, seed):
    from scipy.stats import qmc
    ref = qmc.Halton(d=2, seed=seed, scramble=True).random(n)
    got = ckv._scrambled_halton(n, seed)
    assert got.shape == ref.shape == (n, 2)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("omega", [0.0, 1.0])
@pytest.mark.parametrize("name", sorted(RADIAL_GEOMETRIES))
def test_verify_assumptions_reads_the_public_scalars(name, omega):
    # the verifier evaluates grad f and Hess f once per point set; its items
    # are still the public phi, lam, Lam and schedule_gap, bit for bit
    geom = RADIAL_GEOMETRIES[name]
    pair = ckv.KillingPair(omega=omega)
    r_out = float(geom.outer_distance(np.zeros(3)))
    r_hi = 0.75 * r_out if np.isfinite(r_out) else 1.5
    lo, hi = shell_label(geom, 0.4 * r_hi), shell_label(geom, r_hi)
    report = ckv.verify_assumptions(geom, pair, lo, hi)
    _, pts = ckv.shell_spheres(geom, lo, hi, 16, 200, 0)
    flat = pts.reshape(-1, 3)
    by_name = {it.name: it for it in report.items}
    for item, values in (
            ("conformal_factor_positive", ckv.phi(geom, flat)),
            ("label_coefficient_positive", ckv.Lam(geom, flat)),
            ("schedule_gap_positive", ckv.schedule_gap(geom, pair, flat))):
        k = int(np.argmin(values))
        assert by_name[item].value == values[k]
        assert by_name[item].worst_point == tuple(flat[k])
    lam_vals = ckv.lam(geom, flat).reshape(16, 200)
    spread = np.ptp(lam_vals, axis=1) / lam_vals.mean(axis=1)
    assert report["iv"].value == np.max(spread)
