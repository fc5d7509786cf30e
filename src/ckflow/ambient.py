"""Conformally flat ambient 3-manifolds on a chart domain of R^3.

The metric is g = exp(2 f) * delta on an open star-shaped chart domain.
Each geometry supplies f with analytic first and second derivatives, a
domain distance, and the radial profiles of the leaf label lambda (leaves
of the built-in geometries are coordinate spheres about the origin).

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

    def in_domain(self, p, margin=0.0):
        return self.boundary_distance(p) > margin

    def require_in_domain(self, p, margin=0.0, what="point"):
        d = self.boundary_distance(p)
        if not np.all(d > margin):
            worst = float(np.min(d))
            raise DomainExit(
                f"{what} left the {self.name} chart domain "
                f"(boundary distance {worst:.3e} <= margin {margin:.3e})"
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

    # --- leaf profiles (lambda on coordinate spheres) -----------------------

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
        return d, np.sum(d * d, axis=-1)

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
        return p, np.sum(p * p, axis=-1) / self.radius**2

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
# Finite differences.  These are the reference path of the verifier, the
# tests and the phi Hessian; the flow itself only touches the analytic
# methods.
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


def christoffels_fd(geom, p):
    """Gamma^k_ij from finite differences of the metric (reference path).

    Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij), where the
    conformal inverse metric is g^{kl} = exp(-2 f) delta^{kl}.
    """
    dg = fd_jacobian(geom, geom.metric_at, p)  # [..., i, j, k] = d_k g_ij
    ginv = np.exp(-2.0 * geom.f(p))[..., None, None, None]
    # [..., k, i, j]: d_i g_kj + d_j g_ki - d_k g_ij
    return 0.5 * (ginv * (np.swapaxes(dg, -1, -2) + dg
                          - np.moveaxis(dg, -1, -3)))


def ricci_fd(geom, p):
    """Ricci by contracting the FD Riemann tensor of the analytic Christoffels.

    R^k_{i k j} with R^r_{s m n} = d_m Gamma^r_ns - d_n Gamma^r_ms
                                   + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms
    """
    dgam = fd_jacobian(geom, geom.christoffels_at, p)  # [..., k, i, j, m]
    gam = geom.christoffels_at(p)
    return (np.einsum("...mnsm->...sn", dgam)
            - np.einsum("...mmsn->...sn", dgam)
            + np.einsum("...mml,...lns->...sn", gam, gam)
            - np.einsum("...mnl,...lms->...sn", gam, gam))


def covariant_hessian(geom, grad, p):
    """Covariant Hessian d_i d_j u - Gamma^k_ij d_k u of a scalar u.

    `grad` is u's flat gradient; its Jacobian is taken by central
    differences and symmetrised, the Christoffels are analytic.
    """
    p = np.asarray(p, dtype=float)
    jac = fd_jacobian(geom, grad, p)
    jac = 0.5 * (jac + np.swapaxes(jac, -1, -2))
    return jac - np.einsum("...kij,...k->...ij", geom.christoffels_at(p), grad(p))


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
