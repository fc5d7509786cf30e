"""Conformally flat ambient 3-manifolds on a chart domain of R^3.

The metric is g = exp(2 f) * delta on an open star-shaped chart domain.
Each geometry supplies f with analytic first and second derivatives, a
domain distance, and the radial profiles of its leaves (in the built-in
geometries, coordinate spheres about the origin): the leaf label lambda,
the leaf area A(r) and the volume V(r) of the coordinate ball the leaf
bounds, all in closed form.

Points are any (..., 3) array, a single (3,) point included; every method
returns its per-point values over the leading axes.  Finite differences go
through one operator, `fd_jacobian`, which differences whole point arrays.
"""

import numpy as np

from .errors import DomainExit

# surface dimension; the ambient chart lives in R^(SURF_DIM + 1)
SURF_DIM = 2

# finite differencing: relative step and absolute floor, second order central
FD_REL_STEP = 1e-4
FD_MIN_STEP = 1e-6


def _sq_norm(x):
    """|x|^2 over the last axis of a (..., 3) array, summed left to right.

    The same order, hence the same bits, as np.sum(x * x, axis=-1), without
    a reduce over an axis of length 3, which costs more than the products.
    """
    return (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
            + x[..., 2] * x[..., 2])


class AmbientGeometry:
    """Base class: conformal factor, metric data, domain, leaf profiles."""

    name = "abstract"

    # --- conformal factor -------------------------------------------------

    def f(self, p):
        raise NotImplementedError

    def grad_f(self, p):
        raise NotImplementedError

    def hess_f(self, p):
        raise NotImplementedError

    # --- chart domain ------------------------------------------------------

    def outer_distance(self, p):
        """Distance to the outer chart boundary (inf if unbounded)."""
        raise NotImplementedError

    def boundary_distance(self, p):
        """Distance to the full boundary; the origin is always excluded."""
        p = np.asarray(p, dtype=float)
        return np.minimum(np.linalg.norm(p, axis=-1), self.outer_distance(p))

    def fd_step(self, p):
        """Central difference step, scaled to the local boundary distance."""
        return np.maximum(FD_MIN_STEP, FD_REL_STEP * self.boundary_distance(p))

    def require_in_domain(self, p, what="point"):
        d = self.boundary_distance(p)
        if not np.all(d > 0.0):
            worst = float(np.min(d))
            raise DomainExit(
                f"{what} left the {self.name} chart domain "
                f"(boundary distance {worst:.3e})"
            )

    # --- metric data (chart components) -------------------------------------

    def metric_at(self, p):
        """g_ij = exp(2 f) delta_ij."""
        self.require_in_domain(p, what="metric point")
        return np.exp(2.0 * self.f(p))[..., None, None] * np.eye(3)

    def christoffels_at(self, p):
        """Gamma^k_ij for a conformal metric, from the analytic gradient of f.

        Gamma^k_ij = delta^k_i d_j f + delta^k_j d_i f - delta_ij d_k f
        """
        df = self.grad_f(p)
        eye = np.eye(3)
        gam = np.zeros(df.shape[:-1] + (3, 3, 3))
        # index order: [..., k, i, j]
        gam += eye[:, :, None] * df[..., None, None, :]
        gam += eye[:, None, :] * df[..., None, :, None]
        gam -= eye[None, :, :] * df[..., :, None, None]
        return gam

    def ricci_at(self, p):
        """Ricci tensor of exp(2f) delta in dimension 3 (chart components).

        Ric = -(Hess f - df x df) - (Lap f + |grad f|^2) delta, all flat ops.
        """
        df = self.grad_f(p)
        hf = self.hess_f(p)
        lap = np.trace(hf, axis1=-2, axis2=-1)
        gf2 = np.sum(df * df, axis=-1)
        ric = -(hf - df[..., :, None] * df[..., None, :])
        ric -= (lap + gf2)[..., None, None] * np.eye(3)
        return ric

    # --- leaf profiles (label, area, ball volume of coordinate spheres) ------

    def lambda_of_r(self, r):
        raise NotImplementedError

    def dlambda_dr(self, r):
        raise NotImplementedError

    def r_of_lambda(self, lam):
        raise NotImplementedError

    def d_lam_phi2_dr(self, r):
        """Radial derivative of the invariant Lambda * phi^2 (constant on
        leaves)."""
        raise NotImplementedError

    def leaf_area(self, r):
        """Curved area of the coordinate sphere of radius r."""
        raise NotImplementedError

    def ball_volume(self, r):
        """Curved volume of the coordinate ball of radius r."""
        raise NotImplementedError


class Euclidean(AmbientGeometry):
    """f = 0: flat space, leaves are round spheres, lambda = r^2."""

    name = "euclidean"

    def f(self, p):
        return np.zeros(np.shape(p)[:-1])

    def grad_f(self, p):
        return np.zeros(np.shape(p))

    def hess_f(self, p):
        return np.zeros(np.shape(p) + (3,))

    def outer_distance(self, p):
        return np.full(np.shape(p)[:-1], np.inf)

    def lambda_of_r(self, r):
        r = np.asarray(r, dtype=float)
        return r * r

    def dlambda_dr(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * r

    def r_of_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        return np.sqrt(lam)

    def d_lam_phi2_dr(self, r):
        r = np.asarray(r, dtype=float)
        return np.zeros_like(r)

    def leaf_area(self, r):
        r = np.asarray(r, dtype=float)
        return 4.0 * np.pi * r * r

    def ball_volume(self, r):
        r = np.asarray(r, dtype=float)
        return 4.0 * np.pi * r**3 / 3.0


class PaperExample(AmbientGeometry):
    """f = -ln((x-2)^2 + y^2 + z^2) on 0 < |x| < 2.

    Flat (the Ricci tensor vanishes identically), but with a non-radial
    conformal factor, so it exercises every non-trivial code path.
    """

    name = "paper_example"
    _c = np.array([2.0, 0.0, 0.0])

    def _dq(self, p):
        """Offset from the pole (2, 0, 0) and its squared length."""
        d = np.asarray(p, dtype=float) - self._c
        return d, _sq_norm(d)

    def f(self, p):
        return -np.log(self._dq(p)[1])

    def grad_f(self, p):
        d, q = self._dq(p)
        return -2.0 * d / q[..., None]

    def hess_f(self, p):
        d, q = self._dq(p)
        h = (-2.0 / q)[..., None, None] * np.eye(3)
        h += (4.0 / (q * q))[..., None, None] * d[..., :, None] * d[..., None, :]
        return h

    def outer_distance(self, p):
        return 2.0 - np.linalg.norm(np.asarray(p, dtype=float), axis=-1)

    def lambda_of_r(self, r):
        r = np.asarray(r, dtype=float)
        return r * r / (4.0 - r * r) ** 2

    def dlambda_dr(self, r):
        r = np.asarray(r, dtype=float)
        return 2.0 * r * (4.0 + r * r) / (4.0 - r * r) ** 3

    def r_of_lambda(self, lam):
        # sqrt(lam) = r / (4 - r^2); stable positive root of the quadratic
        lam = np.asarray(lam, dtype=float)
        s = np.sqrt(lam)
        return 8.0 * s / (1.0 + np.sqrt(1.0 + 16.0 * lam))

    def d_lam_phi2_dr(self, r):
        r = np.asarray(r, dtype=float)
        return 16.0 * r / (4.0 - r * r) ** 2

    def leaf_area(self, r):
        # exp(2f) = 1/q^2 with q = r^2 + 4 - 4 r cos(theta) about the pole
        # axis; its sphere integral is 4 pi / ((r^2 + 4)^2 - 16 r^2)
        r = np.asarray(r, dtype=float)
        return 4.0 * np.pi * r * r / (4.0 - r * r) ** 2

    def ball_volume(self, r):
        r = np.asarray(r, dtype=float)
        return 4.0 * np.pi * r**3 / (3.0 * (4.0 - r * r) ** 3)


class PoincareBall(AmbientGeometry):
    """Hyperbolic ball of radius R: exp(f) = 2 / (1 - |x|^2/R^2).

    Einstein with Ric = -(2/R^2) g; sectional curvature -1/R^2.
    """

    name = "poincare_ball"

    def __init__(self, radius=1.0):
        if radius <= 0.0:
            raise ValueError("poincare_ball radius must be positive")
        self.radius = float(radius)

    def _ps(self, p):
        """The point as floats and its squared radius over R^2."""
        p = np.asarray(p, dtype=float)
        return p, _sq_norm(p) / self.radius**2

    def f(self, p):
        return np.log(2.0) - np.log1p(-self._ps(p)[1])

    def grad_f(self, p):
        p, s = self._ps(p)
        return (2.0 / self.radius**2) * p / (1.0 - s)[..., None]

    def hess_f(self, p):
        p, s = self._ps(p)
        R2 = self.radius**2
        one = 1.0 - s
        h = (2.0 / (R2 * one))[..., None, None] * np.eye(3)
        h += (4.0 / (R2 * R2 * one * one))[..., None, None] * (
            p[..., :, None] * p[..., None, :]
        )
        return h

    def outer_distance(self, p):
        return self.radius - np.linalg.norm(np.asarray(p, dtype=float), axis=-1)

    def lambda_of_r(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r / self.radius**2
        return 4.0 * r * r / (1.0 + s) ** 2

    def dlambda_dr(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r / self.radius**2
        return 8.0 * r * (1.0 - s) / (1.0 + s) ** 3

    def r_of_lambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        s = np.sqrt(lam)
        root = np.sqrt(np.maximum(0.0, 1.0 - lam / self.radius**2))
        return s / (1.0 + root)

    def d_lam_phi2_dr(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r / self.radius**2
        return -4.0 * r / (self.radius**2 * (1.0 + s) ** 2)

    def leaf_area(self, r):
        r = np.asarray(r, dtype=float)
        s = r * r / self.radius**2
        return 16.0 * np.pi * r * r / (1.0 - s) ** 2

    def ball_volume(self, r):
        # 32 pi R^3 times the integral of t^2/(1 - t^2)^3 over [0, x = r/R].
        # The closed form's two terms cancel to O(x^3), so below x = 0.05 its
        # series sum_k 4k(k+1)/(2k+1) x^(2k+1) takes over, whose first eleven
        # terms are exact to about 1e-16 there
        x = np.asarray(r, dtype=float) / self.radius
        x2 = x * x
        series = 0.0
        for k in range(11, 0, -1):
            series = series * x2 + 4.0 * k * (k + 1) / (2 * k + 1)
        closed = x * (1.0 + x2) / (1.0 - x2) ** 2 - np.arctanh(x)
        return 4.0 * np.pi * self.radius**3 * np.where(
            x < 0.05, series * x2 * x, closed)[()]


_BUILTIN = {
    "euclidean": Euclidean,
    "paper_example": PaperExample,
    "poincare_ball": PoincareBall,
}


def make_geometry(name, **kwargs):
    """Instantiate a built-in geometry by name."""
    try:
        cls = _BUILTIN[name]
    except KeyError:
        raise ValueError(f"unknown geometry {name!r}; choices: {sorted(_BUILTIN)}")
    return cls(**kwargs)


# --------------------------------------------------------------------------
# Finite differences.  The verifier's Lie derivatives and gradients, and the
# FD references in `oracles`, go through `fd_jacobian`; the flow itself only
# touches the analytic methods.
# --------------------------------------------------------------------------


def fd_jacobian(geom, func, p):
    """Central differences of `func` at every point of a (..., 3) array.

    `func` maps points (..., 3) to values (..., *V); the result is
    (..., *V, 3) with the derivative index last, d func / d p_k from the
    stencil p +- h e_k and the per-point step h = `geom.fd_step`.  A point
    within two steps of the boundary raises DomainExit.
    """
    p = np.asarray(p, dtype=float)
    h = geom.fd_step(p)
    d = geom.boundary_distance(p)
    if np.any(d < 2.0 * h):
        raise DomainExit(
            f"finite differencing too close to the {geom.name} boundary "
            f"(distance {float(np.min(d)):.3e}, step {float(np.max(h)):.3e})"
        )
    offset = h[..., None, None] * np.eye(3)  # row k is h e_k
    centre = p[..., None, :]
    # axes (..., +-, k, *V) -> (+-, ..., *V, k)
    lead = p.ndim - 1
    vals = np.moveaxis(func(np.stack([centre + offset, centre - offset], -3)),
                       (lead, lead + 1), (0, -1))
    two_h = np.reshape(2.0 * h, np.shape(h) + (1,) * (vals.ndim - 1 - lead))
    return (vals[0] - vals[1]) / two_h


def lie_derivative_metric(geom, field, jac, p):
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k.

    The metric derivative is FD; `jac[k, i] = d_i X^k` is the constant chart
    Jacobian of the linear field X (the dilation and rotation generators).
    """
    p = np.asarray(p, dtype=float)
    g = geom.metric_at(p)
    lie = np.einsum("...k,...ijk->...ij", field(p),
                    fd_jacobian(geom, geom.metric_at, p))
    lie += np.einsum("...kj,ki->...ij", g, jac)
    lie += np.einsum("...ik,kj->...ij", g, jac)
    return lie
