"""Ambient geometry: conformal factors, Christoffels, Ricci, FD oracles."""

import numpy as np
import pytest

from ckflow import ambient, oracles
from ckflow.errors import DomainExit


def _interior_points(geom, rng, n=100):
    """Random points well inside the domain, biased to the unit shell."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1.4, 1.4, size=3)
        r = np.linalg.norm(p)
        if 0.3 < r and geom.boundary_distance(p[None, :])[0] > 0.1:
            pts.append(p)
    return np.array(pts)


def test_metric_euclidean_identity(euclid):
    p = np.array([[0.3, -1.2, 0.7]])
    assert np.allclose(euclid.metric_at(p)[0], np.eye(3))


def test_metric_paper_spot_values(paper):
    # f(1,0,0) = -ln 1 = 0 and f(0,1,0) = -ln 5
    g1 = paper.metric_at(np.array([[1.0, 0.0, 0.0]]))[0]
    g2 = paper.metric_at(np.array([[0.0, 1.0, 0.0]]))[0]
    assert np.allclose(g1, np.eye(3), atol=1e-14)
    assert np.allclose(g2, np.eye(3) / 25.0, atol=1e-14)


def test_metric_positive_multiple_of_identity(euclid, paper, poincare):
    rng = np.random.default_rng(3)
    for geom in (euclid, paper, poincare):
        pts = _interior_points(geom, rng, n=20)
        g = geom.metric_at(pts)
        scale = g[:, 0, 0]
        assert np.all(scale > 0.0)
        assert np.allclose(g, scale[:, None, None] * np.eye(3)[None])


def test_grad_f_closed_forms(euclid, paper):
    p = np.array([[1.0, 0.0, 0.0]])
    assert np.allclose(euclid.grad_f(p), 0.0)
    # grad f = -2 (x-2, y, z)/q; at (1,0,0): q = 1, grad = (2, 0, 0)
    assert np.allclose(paper.grad_f(p)[0], [2.0, 0.0, 0.0], atol=1e-12)


def test_grad_f_matches_fd(paper, poincare):
    rng = np.random.default_rng(5)
    for geom in (paper, poincare):
        for p in _interior_points(geom, rng, n=10):
            fd = ambient.fd_jacobian(geom, geom.f, p)
            assert np.allclose(geom.grad_f(p[None])[0], fd, atol=1e-6)


# per-point value shape of each geometry method
POINT_SHAPES = {"f": (), "grad_f": (3,), "hess_f": (3, 3), "metric_at": (3, 3),
                "christoffels_at": (3, 3, 3), "ricci_at": (3, 3),
                "outer_distance": (), "boundary_distance": ()}


@pytest.mark.parametrize("method, tail", POINT_SHAPES.items())
def test_methods_broadcast_over_leading_axes(euclid, paper, poincare, method,
                                             tail):
    # one point convention: (3,), (N, 3) and (N, K, 3) give the same values
    rng = np.random.default_rng(17)
    for geom in (euclid, paper, poincare):
        grid = _interior_points(geom, rng, n=6).reshape(2, 3, 3)
        fn = getattr(geom, method)
        whole, rows, single = fn(grid), fn(grid[0]), fn(grid[0, 0])
        assert np.shape(whole) == (2, 3) + tail
        assert np.shape(rows) == (3,) + tail
        assert np.shape(single) == tail
        assert np.array_equal(whole[0], rows)
        assert np.array_equal(rows[0], single)


@pytest.mark.parametrize("shape", [(200, 3), (16, 48, 96, 3)])
@pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
def test_sq_norm_is_bitwise_the_sum_reduce(shape, scale):
    # the conformal factors' squared norms keep np.sum's bits, so a run's
    # trace does not move with the helper
    x = np.random.default_rng(23).standard_normal(shape) * scale
    for arr in (x, np.asfortranarray(x)):
        assert np.array_equal(ambient._sq_norm(arr),
                              np.sum(arr * arr, axis=-1))


def test_conformal_factors_match_a_sum_reduce_reference(paper, poincare):
    rng = np.random.default_rng(29)
    pts = _interior_points(paper, rng)
    d = pts - np.array([2.0, 0.0, 0.0])
    q = np.sum(d * d, axis=-1)
    hess = (-2.0 / q)[:, None, None] * np.eye(3)
    hess += (4.0 / (q * q))[:, None, None] * d[:, :, None] * d[:, None, :]
    assert np.array_equal(paper.f(pts), -np.log(q))
    assert np.array_equal(paper.grad_f(pts), -2.0 * d / q[:, None])
    assert np.array_equal(paper.hess_f(pts), hess)

    pts = _interior_points(poincare, rng)
    s = np.sum(pts * pts, axis=-1) / poincare.radius**2
    assert np.array_equal(poincare.f(pts), np.log(2.0) - np.log1p(-s))
    grad = (2.0 / poincare.radius**2) * pts / (1.0 - s)[:, None]
    assert np.array_equal(poincare.grad_f(pts), grad)


def test_fd_jacobian_is_pointwise(paper, poincare):
    # a batched stencil equals stacking per-point calls, for scalar, vector
    # and matrix fields, with the derivative index last
    rng = np.random.default_rng(19)
    for geom in (paper, poincare):
        grid = _interior_points(geom, rng, n=6).reshape(2, 3, 3)
        for func, tail in ((geom.f, (3,)), (geom.grad_f, (3, 3)),
                           (geom.metric_at, (3, 3, 3))):
            whole = ambient.fd_jacobian(geom, func, grid)
            rows = ambient.fd_jacobian(geom, func, grid[1])
            each = np.array([[ambient.fd_jacobian(geom, func, p) for p in row]
                             for row in grid])
            assert whole.shape == (2, 3) + tail
            assert np.array_equal(whole, each)
            assert np.array_equal(rows, each[1])
        # the gradient of f comes out in the grad_f layout
        assert np.allclose(ambient.fd_jacobian(geom, geom.f, grid),
                           geom.grad_f(grid), atol=1e-6)


def test_fd_jacobian_needs_room_at_the_boundary(euclid, poincare):
    near_origin = np.array([1e-6, 0.0, 0.0])
    with pytest.raises(DomainExit):
        ambient.fd_jacobian(euclid, euclid.f, near_origin)
    inside_sphere = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 1.0 - 1e-6]])
    with pytest.raises(DomainExit):
        ambient.fd_jacobian(poincare, poincare.f, inside_sphere)


def test_hessian_linear_function_euclidean(euclid):
    # covariant Hessian of a chart-linear function vanishes in flat space
    def lin(p):
        p = np.asarray(p, dtype=float)
        return 0.3 * p[..., 0] - 1.1 * p[..., 1] + 0.25 * p[..., 2]

    # roundoff floor of the central second difference is ~eps/h^2 ~ 1e-8
    h = oracles.covariant_hessian(
        euclid, lambda q: ambient.fd_jacobian(euclid, lin, q),
        np.array([0.4, -0.2, 0.9]))
    assert np.max(np.abs(h)) < 1e-7


def test_christoffel_symmetry_and_fd(euclid, paper, poincare):
    rng = np.random.default_rng(7)
    for geom in (euclid, paper, poincare):
        pts = _interior_points(geom, rng, n=100)
        gam = geom.christoffels_at(pts)
        assert np.allclose(gam, np.swapaxes(gam, 2, 3))
        for p in pts[:12]:
            fd = oracles.christoffels_fd(geom, p)
            ana = geom.christoffels_at(p[None])[0]
            assert np.max(np.abs(ana - fd)) <= 1e-6 * (1.0 + np.max(np.abs(ana)))


def test_christoffels_euclidean_zero(euclid):
    pts = np.array([[0.5, 0.1, -0.3], [1.5, 0.0, 0.2]])
    assert np.allclose(euclid.christoffels_at(pts), 0.0)


def test_ricci_flat_geometries(euclid, paper):
    pts = np.array([[1.0, 0.0, 0.0], [0.4, 0.8, -0.3]])
    assert np.allclose(euclid.ricci_at(pts), 0.0, atol=1e-12)
    assert np.allclose(paper.ricci_at(pts), 0.0, atol=1e-12)


def test_ricci_poincare_einstein(poincare):
    rng = np.random.default_rng(11)
    pts = _interior_points(poincare, rng, n=8)
    ana = poincare.ricci_at(pts)
    for k, p in enumerate(pts):
        # Einstein: Ric = -2 g in ambient dimension 3
        target = -2.0 * poincare.metric_at(p[None])[0]
        assert np.allclose(ana[k], target, atol=1e-12)
        fd = oracles.ricci_fd(poincare, p)
        assert np.max(np.abs(fd - target)) <= 1e-4 * (1.0 + np.max(np.abs(target)))


def test_ricci_fd_matches_closed_form_everywhere(euclid, paper, poincare):
    rng = np.random.default_rng(13)
    for geom in (euclid, paper, poincare):
        for p in _interior_points(geom, rng, n=6):
            fd = oracles.ricci_fd(geom, p)
            ana = geom.ricci_at(p[None])[0]
            assert np.max(np.abs(fd - ana)) <= 1e-4 * (1.0 + np.max(np.abs(ana)))


def test_domain_rejection(paper, poincare):
    outside = np.array([[2.5, 0.0, 0.0]])
    with pytest.raises(DomainExit):
        paper.require_in_domain(outside)
    with pytest.raises(DomainExit):
        paper.metric_at(np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(DomainExit):
        poincare.require_in_domain(np.array([[1.2, 0.0, 0.0]]))


def test_make_geometry_names():
    assert isinstance(ambient.make_geometry("euclidean"), ambient.Euclidean)
    assert isinstance(ambient.make_geometry("paper_example"), ambient.PaperExample)
    ball = ambient.make_geometry("poincare_ball", radius=2.0)
    assert isinstance(ball, ambient.PoincareBall)
    with pytest.raises(ValueError):
        ambient.make_geometry("torus")
