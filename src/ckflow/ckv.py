"""Conformal Killing data on the chart: dilation + scheduled rotation.

The driving field is X(t) = D + Xi(t/T0) * R where D(p) = p is the chart
dilation (conformal, factor phi = 1 + D(f)) and R(p) = omega * axis x p is
a rotation (Killing when f is axisymmetric about the axis).  Derived
scalars: the leaf label lam = |D|_g^2 / phi^2 and the coefficient Lam with
d(lam) = 2 * Lam * D^flat.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import ambient
from .errors import ScheduleInfeasible

N_SURF = ambient.SURF_DIM  # = 2
ASSUMPTION_TOL = 1e-5      # relative residual bound of the shell conditions


# --------------------------------------------------------------------------
# fields
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KillingPair:
    """Dilation plus rotation about a fixed axis with rate omega."""

    omega: float = 0.0
    axis: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise ValueError("rotation axis must be nonzero")
        object.__setattr__(self, "axis", tuple(a / norm))

    @property
    def axis_vec(self):
        return np.asarray(self.axis)

    def rotation(self, p):
        p = np.asarray(p, dtype=float)
        return self.omega * np.cross(np.broadcast_to(self.axis_vec, p.shape), p)

    def full(self, p, xi_now=1.0):
        return np.asarray(p, dtype=float) + xi_now * self.rotation(p)

    # chart Jacobians J[k, i] = d_i X^k (both generators are linear)
    def rotation_jac(self):
        a = self.axis_vec
        hat = np.array(
            [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
        )
        return self.omega * hat

    def full_jac(self, xi_now=1.0):
        return np.eye(3) + xi_now * self.rotation_jac()


# --------------------------------------------------------------------------
# derived scalars (all closed form given the geometry's f derivatives)
# --------------------------------------------------------------------------


def phi(geom, p):
    """Conformal factor of the dilation: 1 + D(f)."""
    p = np.asarray(p, dtype=float)
    return 1.0 + np.sum(p * geom.grad_f(p), axis=-1)


def grad_phi(geom, p):
    """Flat gradient of phi: grad f + (Hess f) p."""
    p = np.asarray(p, dtype=float)
    hf = geom.hess_f(p)
    return geom.grad_f(p) + np.einsum("...ij,...j->...i", hf, p)


def dilation_norm_g(geom, p):
    """|D|_g = exp(f) |p|."""
    p = np.asarray(p, dtype=float)
    return np.exp(geom.f(p)) * np.linalg.norm(p, axis=-1)


def lam(geom, p):
    """Leaf label |D|_g^2 / phi^2 (constant on the built-in leaves)."""
    p = np.asarray(p, dtype=float)
    return dilation_norm_g(geom, p) ** 2 / phi(geom, p) ** 2


def Lam(geom, p):
    """Coefficient with d(lam) = 2 Lam D^flat: (phi^2 - D(phi)) / phi^3."""
    p = np.asarray(p, dtype=float)
    ph = phi(geom, p)
    dphi = np.sum(p * grad_phi(geom, p), axis=-1)
    return (ph * ph - dphi) / ph**3


def rotation_phi(geom, pair, p):
    """R(phi), the rotation derivative of the conformal factor."""
    p = np.asarray(p, dtype=float)
    return np.sum(pair.rotation(p) * grad_phi(geom, p), axis=-1)


def rotation_norm_g(geom, pair, p):
    """|R|_g = exp(f) |omega| |axis x p|."""
    p = np.asarray(p, dtype=float)
    return np.exp(geom.f(p)) * np.linalg.norm(pair.rotation(p), axis=-1)


# --------------------------------------------------------------------------
# schedule
# --------------------------------------------------------------------------

# below this distance from s=1 the bump value underflows double precision
_XI_EDGE = 1.0 - 1e-6


def xi(s):
    """Smooth cutoff: exp(-s^2/(1-s^2)) for |s| < 1, zero beyond."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < _XI_EDGE
    sm = s[m]
    out[m] = np.exp(-sm * sm / (1.0 - sm * sm))
    return out if out.ndim else float(out)


def xi_prime(s):
    """d(xi)/ds = -2 s / (1-s^2)^2 * xi(s) for |s| < 1, zero beyond."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = np.abs(s) < _XI_EDGE
    sm = s[m]
    one = 1.0 - sm * sm
    out[m] = -2.0 * sm / (one * one) * np.exp(-sm * sm / one)
    return out if out.ndim else float(out)


def xi_sup_derivative():
    """sup |xi'| on [0,1], at its one critical point s = 3^(-1/4).

    On (0, 1), xi'' is 1 - 3 s^4 times a function of one sign, and |xi'|
    vanishes at both ends.
    """
    return abs(xi_prime(3.0 ** -0.25))


@dataclass(frozen=True)
class Schedule:
    """Rotation decay schedule Xi(t/t0)."""

    t0: float = 1.0

    def __post_init__(self):
        if self.t0 <= 0.0:
            raise ScheduleInfeasible(f"schedule horizon must be positive, got {self.t0}")

    def xi_at(self, t):
        return xi(t / self.t0)


# --------------------------------------------------------------------------
# shell sampling and the horizon estimate
# --------------------------------------------------------------------------


def shell_spheres(geom, lam_lo, lam_hi, n_spheres=32, n_per_sphere=1000, seed=0):
    """Quasi-random samples on coordinate spheres spanning a leaf-label band.

    Returns (radii, points) with points of shape (n_spheres, n_per_sphere, 3).
    Low-discrepancy (Halton) sampling, area-uniform per sphere, deterministic
    for a fixed seed.
    """
    if not (0.0 < lam_lo <= lam_hi):
        raise ValueError("need 0 < lam_lo <= lam_hi")
    lams = np.linspace(lam_lo, lam_hi, n_spheres)
    radii = np.asarray(geom.r_of_lambda(lams), dtype=float)
    eng = qmc.Halton(d=2, seed=seed, scramble=True)
    uv = eng.random(n_per_sphere)
    cost = 1.0 - 2.0 * uv[:, 0]
    sint = np.sqrt(np.maximum(0.0, 1.0 - cost**2))
    az = 2.0 * np.pi * uv[:, 1]
    dirs = np.stack([sint * np.cos(az), sint * np.sin(az), cost], axis=-1)
    pts = radii[:, None, None] * dirs[None, :, :]
    return radii, pts


def schedule_gap(geom, pair, p):
    """Lam*phi^3 - R(phi), the quantity that must stay positive on the shell."""
    ph = phi(geom, p)
    return Lam(geom, p) * ph**3 - rotation_phi(geom, pair, p)


def estimate_T0(geom, pair, lam_lo, lam_hi, margin=0.1,
                n_spheres=32, n_per_sphere=1000, seed=0):
    """Smallest decay horizon that keeps the scheduled rotation subcritical.

    With c = min over the shell of (Lam phi^3 - R(phi)) and M = max |R|_g,
    returns T0 = sup|xi'| * M / (n c (1 - margin)), so that for all t
    |xi'(t/T0)| |R|_g / T0 <= n c (1 - margin).  Returns 1.0 when there is
    no rotation.  Raises ScheduleInfeasible when c <= 0.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must be in (0, 1)")
    if pair.omega == 0.0:
        return 1.0
    _, pts = shell_spheres(geom, lam_lo, lam_hi, n_spheres, n_per_sphere, seed)
    flat = pts.reshape(-1, 3)
    gap = schedule_gap(geom, pair, flat)
    c = float(np.min(gap))
    if c <= 0.0:
        raise ScheduleInfeasible(
            f"no positive schedule gap on the shell (min {c:.3e}); "
            "the scheduled rotation cannot be made subcritical"
        )
    M = float(np.max(rotation_norm_g(geom, pair, flat)))
    if M == 0.0:
        return 1.0
    return xi_sup_derivative() * M / (N_SURF * c * (1.0 - margin))


# --------------------------------------------------------------------------
# assumption verifier
# --------------------------------------------------------------------------


@dataclass
class AssumptionItem:
    index: str
    name: str
    value: float
    threshold: float
    passed: bool
    worst_point: tuple = (0.0, 0.0, 0.0)

    def line(self):
        mark = "pass" if self.passed else "FAIL"
        return (
            f"({self.index:>4s}) {self.name:<28s} {mark}  "
            f"value={self.value: .3e}  thresh={self.threshold: .3e}"
        )


@dataclass
class AssumptionReport:
    items: list = field(default_factory=list)

    @property
    def ok(self):
        return all(it.passed for it in self.items)

    def __getitem__(self, index):
        for it in self.items:
            if it.index == index:
                return it
        raise KeyError(index)

    def table(self):
        lines = [it.line() for it in self.items]
        lines.append("overall: " + ("pass" if self.ok else "FAIL"))
        return "\n".join(lines)


def _positive_item(index, name, points, values):
    """Strict positivity of the smallest value over `points`."""
    k = int(np.argmin(values))
    return AssumptionItem(index, name, float(values[k]), 0.0,
                          bool(values[k] > 0.0), tuple(points[k]))


def _residual_item(index, name, points, res):
    """The largest residual over `points` (the first one on ties)."""
    k = int(np.argmax(res))
    return AssumptionItem(index, name, float(res[k]), ASSUMPTION_TOL,
                          bool(res[k] <= ASSUMPTION_TOL), tuple(points[k]))


def verify_assumptions(geom, pair, lam_lo, lam_hi, seed=0):
    """Numerically check the ten structural conditions on a leaf-label shell.

    (i)    X = D + R is conformal: L_X g = 2 phi g          (FD Lie derivative)
    (ii)   phi > 0 and |D|_g > 0
    (iii)  coordinate spheres are strictly starshaped for X
    (iv)   lam is constant on each sphere
    (v)    Lam > 0 and d(lam) = 2 Lam D^flat                (FD gradient)
    (vi)   Lam phi^3 - R(phi) > 0
    (vii)  R is Killing: L_R g = 0                          (FD Lie derivative)
    (viii) the distribution orthogonal to R is integrable   (FD curl triple)
    (ix)   D/|D| minimizes the Ricci quadratic form
    (x)    R/|R| minimizes it too, with equal value

    Every item is one batched evaluation over the shell samples; the FD
    items (i), (v), (vii) and (viii) take `ambient.fd_jacobian` over an
    evenly thinned subset of about 160 of them.  The shell is sampled on 16
    spheres of 200 points.  Each item reports its worst sample.  Residual
    conditions are relative with threshold `ASSUMPTION_TOL`; positivity
    conditions require strict positivity of the sampled minimum.
    """
    radii, pts = shell_spheres(geom, lam_lo, lam_hi, 16, 200, seed)
    flat = pts.reshape(-1, 3)
    sub = flat[:: max(1, flat.shape[0] // 160)]
    items = []

    # (i) conformality of the full field at Xi = 1
    lie = ambient.lie_derivative_metric(geom, pair.full, pair.full_jac(1.0), sub)
    target = 2.0 * phi(geom, sub)[:, None, None] * geom.metric_at(sub)
    scale = np.maximum(1.0, np.max(np.abs(target), axis=(1, 2)))
    res = np.max(np.abs(lie - target), axis=(1, 2)) / scale
    items.append(_residual_item("i", "full_field_conformal", sub, res))

    # (ii) positivity of phi and |D|_g
    items.append(_positive_item("ii", "conformal_factor_positive", flat,
                                phi(geom, flat)))
    items.append(_positive_item("ii", "dilation_nonvanishing", flat,
                                dilation_norm_g(geom, flat)))

    # (iii) leaf support: u = g(X, outward g-unit sphere normal) > 0
    rr = np.linalg.norm(flat, axis=-1)
    x_hat = flat / rr[:, None]
    u_leaf = np.exp(geom.f(flat)) * np.sum(pair.full(flat, 1.0) * x_hat, axis=-1)
    items.append(_positive_item("iii", "leaf_support_positive", flat, u_leaf))

    # (iv) leaf-constancy of lam, sphere by sphere
    lam_vals = lam(geom, flat).reshape(pts.shape[0], pts.shape[1])
    spread = (lam_vals.max(axis=1) - lam_vals.min(axis=1)) / lam_vals.mean(axis=1)
    k = int(np.argmax(spread))
    items.append(AssumptionItem("iv", "leaf_label_constant",
                                float(spread[k]), ASSUMPTION_TOL,
                                bool(spread[k] <= ASSUMPTION_TOL),
                                (float(radii[k]), 0.0, 0.0)))

    # (v) Lam > 0 and the label gradient is 2 Lam D^flat
    items.append(_positive_item("v", "label_coefficient_positive", flat,
                                Lam(geom, flat)))
    fd = ambient.fd_jacobian(geom, lambda q: lam(geom, q), sub)
    target = (2.0 * Lam(geom, sub) * np.exp(2.0 * geom.f(sub)))[:, None] * sub
    scale = np.maximum(np.linalg.norm(target, axis=-1), 1e-12)
    res = np.linalg.norm(fd - target, axis=-1) / scale
    items.append(_residual_item("v", "label_gradient_radial", sub, res))

    # (vi) schedule gap positivity
    items.append(_positive_item("vi", "schedule_gap_positive", flat,
                                schedule_gap(geom, pair, flat)))

    # (vii) rotation is Killing (exactly zero without a rotation)
    lie = ambient.lie_derivative_metric(geom, pair.rotation, pair.rotation_jac(),
                                        sub)
    scale = np.max(np.abs(geom.metric_at(sub)), axis=(1, 2)) * (1.0 + abs(pair.omega))
    res = np.max(np.abs(lie), axis=(1, 2)) / scale
    items.append(_residual_item("vii", "rotation_killing", sub, res))

    # (viii) integrability of the distribution orthogonal to the rotation:
    # the flat 1-form w_i = exp(2f) R_i must satisfy w . curl w = 0
    def w_field(q):
        return np.exp(2.0 * geom.f(q))[..., None] * pair.rotation(q)

    jac = ambient.fd_jacobian(geom, w_field, sub)  # jac[n, i, j] = d_j w_i
    curl = np.stack([jac[:, 2, 1] - jac[:, 1, 2],
                     jac[:, 0, 2] - jac[:, 2, 0],
                     jac[:, 1, 0] - jac[:, 0, 1]], axis=-1)
    w = w_field(sub)
    denom = np.maximum(np.linalg.norm(w, axis=-1) * np.linalg.norm(curl, axis=-1),
                       1e-12)
    res = np.abs(np.sum(w * curl, axis=-1)) / denom
    items.append(_residual_item("viii", "rotation_orthogonal_integrable", sub,
                                res))

    # (ix)/(x) least-Ricci directions.  Work with exp(-2f) Ric, whose
    # eigenvalues are those of the g-shape of the Ricci form.
    e2f = np.exp(2.0 * geom.f(flat))
    shaped = geom.ricci_at(flat) / e2f[:, None, None]
    eigs = np.linalg.eigvalsh(shaped)
    mu_min = eigs[:, 0]
    scale = np.maximum(1.0, np.max(np.abs(eigs), axis=1))

    def _quad(vecs, mats):
        vn = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        return np.einsum("ni,nij,nj->n", vn, mats, vn)

    q_dil = _quad(flat, shaped)
    items.append(_residual_item("ix", "dilation_least_ricci", flat,
                                (q_dil - mu_min) / scale))

    if pair.omega != 0.0:
        # the rotation's direction, which does not depend on omega (a tiny
        # omega would leave no point above the cut-off below)
        rot = np.cross(np.broadcast_to(pair.axis_vec, flat.shape), flat)
        good = np.linalg.norm(rot, axis=-1) > 1e-12
        q_rot = _quad(rot[good], shaped[good])
        v_x = (q_rot - mu_min[good]) / scale[good]
        v_eq = np.abs(q_rot - q_dil[good]) / scale[good]
        items.append(_residual_item("x", "rotation_least_ricci", flat[good],
                                    v_x))
        items.append(_residual_item("x", "ricci_values_equal", flat[good],
                                    v_eq))
    else:
        for name in ("rotation_least_ricci", "ricci_values_equal"):
            items.append(AssumptionItem("x", name, 0.0, ASSUMPTION_TOL, True,
                                        tuple(flat[0])))

    return AssumptionReport(items)
