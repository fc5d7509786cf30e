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


def test_estimate_T0_euclid_closed_form(euclid):
    # c = 1 (Lam phi^3 = 1, X_top(phi) = 0), M = 2 on the lam <= 4 shell
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    t0 = ckv.estimate_T0(euclid, pair, 0.25, 4.0, margin=0.1)
    assert abs(t0 - XI_SUP_PRIME * 2.0 / (2.0 * 0.9)) < 1e-3


def test_estimate_T0_no_rotation(euclid):
    assert ckv.estimate_T0(euclid, ckv.KillingPair(), 0.25, 4.0) == 1.0


def test_estimate_T0_paper_sampling_converged(paper):
    pair = ckv.KillingPair(omega=1.0, axis=(1.0, 0.0, 0.0))
    lo = float(paper.lambda_of_r(0.5))
    hi = float(paper.lambda_of_r(1.8))
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
        ckv.estimate_T0(paper, pair, float(paper.lambda_of_r(0.5)),
                        float(paper.lambda_of_r(1.8)))


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
    lo = float(paper.lambda_of_r(0.5))
    hi = float(paper.lambda_of_r(1.5))
    reports = [ckv.verify_assumptions(paper, ckv.KillingPair(omega=omega), lo,
                                      hi) for omega in (1.0, 1e-300)]
    for name in ("rotation_least_ricci", "ricci_values_equal"):
        one, tiny = (next(it for it in rep.items if it.name == name)
                     for rep in reports)
        assert tiny.value == one.value and tiny.passed == one.passed


def test_verify_assumptions_wrong_axis_fails_killing(paper):
    pair = ckv.KillingPair(omega=1.0, axis=(0.0, 0.0, 1.0))
    lo = float(paper.lambda_of_r(0.5))
    hi = float(paper.lambda_of_r(1.5))
    report = ckv.verify_assumptions(paper, pair, lo, hi)
    assert not report.ok
    assert not report["vii"].passed


def test_verify_assumptions_poincare(poincare):
    pair = ckv.KillingPair(omega=1.0, axis=(0.0, 1.0, 0.0))
    lo = float(poincare.lambda_of_r(0.2))
    hi = float(poincare.lambda_of_r(0.7))
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
    lo = float(paper.lambda_of_r(0.5))
    hi = float(paper.lambda_of_r(1.5))
    report = ckv.verify_assumptions(paper, pair, lo, hi)
    _, pts = ckv.shell_spheres(paper, lo, hi, 16, 200, 0)
    flat = pts.reshape(-1, 3)
    ref = loop_conformal_and_killing(paper, pair, flat[:: flat.shape[0] // 160])
    for index, (value, point) in ref.items():
        assert abs(report[index].value - value) <= 1e-12
        assert report[index].worst_point == point
    assert {it.index for it in report.items if not it.passed} == failing
