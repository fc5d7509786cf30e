"""Conformally flat ambient 3-manifolds on a chart domain of R^3.

The metric is g = exp(2 f) * delta on an open star-shaped chart domain.
Each geometry supplies f with analytic first and second derivatives, a
domain distance, and the radial profiles of the leaf label lambda (leaves
of the built-in geometries are coordinate spheres about the origin).
"""

import numpy as np

from .errors import DomainExit

# surface dimension; the ambient chart lives in R^(SURF_DIM + 1)
SURF_DIM = 2

# finite differencing: relative step and absolute floor, second order central
FD_REL_STEP = 1e-4
FD_MIN_STEP = 1e-6


def _pts(p):
    """Normalize to an (N,3) float array, remember if input was a single point."""
    a = np.asarray(p, dtype=float)
    single = a.ndim == 1
    return np.atleast_2d(a), single


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
        a, single = _pts(p)
        r = np.linalg.norm(a, axis=-1)
        d = np.minimum(r, self.outer_distance(a))
        return d[0] if single else d

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
        a, single = _pts(p)
        self.require_in_domain(a, what="metric point")
        e2f = np.exp(2.0 * self.f(a))
        g = e2f[..., None, None] * np.eye(3)
        return g[0] if single else g

    def inverse_metric_at(self, p):
        a, single = _pts(p)
        e2f = np.exp(-2.0 * self.f(a))
        g = e2f[..., None, None] * np.eye(3)
        return g[0] if single else g

    def christoffels_at(self, p):
        """Gamma^k_ij for a conformal metric, from the analytic gradient of f.

        Gamma^k_ij = delta^k_i d_j f + delta^k_j d_i f - delta_ij d_k f
        """
        a, single = _pts(p)
        df = self.grad_f(a)
        n = a.shape[0]
        eye = np.eye(3)
        gam = np.zeros((n, 3, 3, 3))
        # index order: [point, k, i, j]
        gam += eye[None, :, :, None] * df[:, None, None, :]
        gam += eye[None, :, None, :] * df[:, None, :, None]
        gam -= eye[None, None, :, :] * df[:, :, None, None]
        return gam[0] if single else gam

    def ricci_at(self, p):
        """Ricci tensor of exp(2f) delta in dimension 3 (chart components).

        Ric = -(Hess f - df x df) - (Lap f + |grad f|^2) delta, all flat ops.
        """
        a, single = _pts(p)
        df = self.grad_f(a)
        hf = self.hess_f(a)
        lap = np.trace(hf, axis1=-2, axis2=-1)
        gf2 = np.sum(df * df, axis=-1)
        ric = -(hf - df[..., :, None] * df[..., None, :])
        ric -= (lap + gf2)[..., None, None] * np.eye(3)
        return ric[0] if single else ric

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
        a, single = _pts(p)
        z = np.zeros(a.shape[0])
        return z[0] if single else z

    def grad_f(self, p):
        a, single = _pts(p)
        z = np.zeros_like(a)
        return z[0] if single else z

    def hess_f(self, p):
        a, single = _pts(p)
        z = np.zeros((a.shape[0], 3, 3))
        return z[0] if single else z

    def outer_distance(self, p):
        a, _ = _pts(p)
        return np.full(a.shape[0], np.inf)

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

    def _q(self, a):
        d = a - self._c
        return np.sum(d * d, axis=-1)

    def f(self, p):
        a, single = _pts(p)
        v = -np.log(self._q(a))
        return v[0] if single else v

    def grad_f(self, p):
        a, single = _pts(p)
        d = a - self._c
        v = -2.0 * d / self._q(a)[..., None]
        return v[0] if single else v

    def hess_f(self, p):
        a, single = _pts(p)
        d = a - self._c
        q = self._q(a)
        h = (-2.0 / q)[..., None, None] * np.eye(3)
        h += (4.0 / (q * q))[..., None, None] * d[..., :, None] * d[..., None, :]
        return h[0] if single else h

    def outer_distance(self, p):
        a, _ = _pts(p)
        return 2.0 - np.linalg.norm(a, axis=-1)

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

    def _s(self, a):
        return np.sum(a * a, axis=-1) / self.radius**2

    def f(self, p):
        a, single = _pts(p)
        v = np.log(2.0) - np.log1p(-self._s(a))
        return v[0] if single else v

    def grad_f(self, p):
        a, single = _pts(p)
        s = self._s(a)
        v = (2.0 / self.radius**2) * a / (1.0 - s)[..., None]
        return v[0] if single else v

    def hess_f(self, p):
        a, single = _pts(p)
        R2 = self.radius**2
        s = self._s(a)
        one = 1.0 - s
        h = (2.0 / (R2 * one))[..., None, None] * np.eye(3)
        h += (4.0 / (R2 * R2 * one * one))[..., None, None] * (
            a[..., :, None] * a[..., None, :]
        )
        return h[0] if single else h

    def outer_distance(self, p):
        a, _ = _pts(p)
        return self.radius - np.linalg.norm(a, axis=-1)

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
# Finite-difference operators.  These are the slow reference path used by the
# verifier and the tests; the flow itself only touches the analytic methods.
# --------------------------------------------------------------------------


def _check_fd_room(geom, p, h):
    d = geom.boundary_distance(p)
    if np.any(d < 2.0 * h):
        raise DomainExit(
            f"finite differencing too close to the {geom.name} boundary "
            f"(distance {float(np.min(d)):.3e}, step {float(np.max(h)):.3e})"
        )


def fd_grad_scalar(geom, func, p):
    """Central-difference gradient of a scalar field at a single point."""
    p = np.asarray(p, dtype=float)
    h = float(geom.fd_step(p))
    _check_fd_room(geom, p, h)
    g = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        g[k] = (func(p + e) - func(p - e)) / (2.0 * h)
    return g

def fd_hess_scalar(geom, func, p):
    """Central-difference flat Hessian of a scalar field at a single point."""
    p = np.asarray(p, dtype=float)
    h = float(geom.fd_step(p))
    _check_fd_room(geom, p, h)
    hess = np.zeros((3, 3))
    f0 = func(p)
    for k in range(3):
        ek = np.zeros(3)
        ek[k] = h
        hess[k, k] = (func(p + ek) - 2.0 * f0 + func(p - ek)) / (h * h)
        for l in range(k + 1, 3):
            el = np.zeros(3)
            el[l] = h
            v = (
                func(p + ek + el)
                - func(p + ek - el)
                - func(p - ek + el)
                + func(p - ek - el)
            ) / (4.0 * h * h)
            hess[k, l] = hess[l, k] = v
    return hess


def fd_metric_grad(geom, p):
    """d_k g_ij by central differences; returns array indexed [k,i,j]."""
    p = np.asarray(p, dtype=float)
    h = float(geom.fd_step(p))
    _check_fd_room(geom, p, h)
    out = np.zeros((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        out[k] = (geom.metric_at(p + e) - geom.metric_at(p - e)) / (2.0 * h)
    return out


def christoffels_fd(geom, p):
    """Gamma^k_ij from finite differences of the metric (reference path)."""
    p = np.asarray(p, dtype=float)
    dg = fd_metric_grad(geom, p)
    ginv = geom.inverse_metric_at(p)
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    gam = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                s = 0.0
                for l in range(3):
                    s += ginv[k, l] * (dg[i, l, j] + dg[j, l, i] - dg[l, i, j])
                gam[k, i, j] = 0.5 * s
    return gam


def ricci_fd(geom, p):
    """Ricci by contracting the FD Riemann tensor of the analytic Christoffels.

    R^k_{i k j} with R^r_{s m n} = d_m Gamma^r_ns - d_n Gamma^r_ms
                                   + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms
    """
    p = np.asarray(p, dtype=float)
    h = float(geom.fd_step(p))
    _check_fd_room(geom, p, h)
    dgam = np.zeros((3, 3, 3, 3))  # [m, k, i, j] = d_m Gamma^k_ij
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        dgam[m] = (geom.christoffels_at(p + e) - geom.christoffels_at(p - e)) / (2.0 * h)
    gam = geom.christoffels_at(p)
    ric = np.zeros((3, 3))
    for s in range(3):
        for n in range(3):
            v = 0.0
            for m in range(3):
                v += dgam[m, m, n, s] - dgam[n, m, m, s]
                for l in range(3):
                    v += gam[m, m, l] * gam[l, n, s] - gam[m, n, l] * gam[l, m, s]
            ric[s, n] = v
    return ric


def hessian_scalar(geom, func, p):
    """Covariant Hessian (nabla^2 func)_ij = d^2 func - Gamma^k_ij d_k func.

    Derivatives of func by central differences, Christoffels analytic.
    """
    p = np.asarray(p, dtype=float)
    grad = fd_grad_scalar(geom, func, p)
    hess = fd_hess_scalar(geom, func, p)
    gam = geom.christoffels_at(p)
    return hess - np.einsum("kij,k->ij", gam, grad)


def lie_derivative_metric(geom, field, field_jac, p):
    """(L_X g)_ij = X^k d_k g_ij + g_kj d_i X^k + g_ik d_j X^k.

    The metric derivative is FD; the field Jacobian is supplied analytically
    (the dilation and rotation generators are linear in the chart).
    """
    p = np.asarray(p, dtype=float)
    X = np.asarray(field(p), dtype=float)
    J = np.asarray(field_jac(p), dtype=float)  # J[k, i] = d_i X^k
    dg = fd_metric_grad(geom, p)
    g = geom.metric_at(p)
    lie = np.einsum("k,kij->ij", X, dg)
    lie += np.einsum("kj,ki->ij", g, J)
    lie += np.einsum("ik,kj->ij", g, J)
    return lie
