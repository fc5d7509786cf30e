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

    def dilation(self, p):
        return np.asarray(p, dtype=float)

    def rotation(self, p):
        p = np.asarray(p, dtype=float)
        return self.omega * np.cross(np.broadcast_to(self.axis_vec, p.shape), p)

    def full(self, p, xi_now=1.0):
        return self.dilation(p) + xi_now * self.rotation(p)

    # chart Jacobians (both generators are linear)
    def dilation_jac(self, p=None):
        return np.eye(3)

    def rotation_jac(self, p=None):
        a = self.axis_vec
        hat = np.array(
            [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
        )
        return self.omega * hat

    def full_jac(self, p=None, xi_now=1.0):
        return self.dilation_jac() + xi_now * self.rotation_jac()


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


def dilation_lam_phi2(geom, p):
    """D(Lam * phi^2), via the radial profile of Lam * phi^2."""
    p = np.asarray(p, dtype=float)
    r = np.linalg.norm(p, axis=-1)
    return r * geom.d_lam_phi2_dr(r)


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


def xi_sup_derivative(n=200001):
    """sup |xi'| on [0,1] by dense sampling."""
    s = np.linspace(0.0, 1.0, n)
    return float(np.max(np.abs(xi_prime(s))))


@dataclass(frozen=True)
class Schedule:
    """Rotation decay schedule Xi(t/t0)."""

    t0: float = 1.0

    def __post_init__(self):
        if self.t0 <= 0.0:
            raise ScheduleInfeasible(f"schedule horizon must be positive, got {self.t0}")

    def xi_at(self, t):
        return xi(t / self.t0)

    def dxi_dt(self, t):
        return xi_prime(t / self.t0) / self.t0


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


def _worst(points, values, take_max=True):
    k = int(np.argmax(values) if take_max else np.argmin(values))
    return tuple(np.asarray(points[k], dtype=float))


def verify_assumptions(geom, pair, lam_lo, lam_hi, tol=1e-5,
                       n_spheres=16, n_per_sphere=200, seed=0):
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

    Residual conditions are relative with threshold `tol`; positivity
    conditions require strict positivity of the sampled minimum.
    """
    radii, pts = shell_spheres(geom, lam_lo, lam_hi, n_spheres, n_per_sphere, seed)
    flat = pts.reshape(-1, 3)
    items = []

    # (i) conformality of the full field at Xi = 1
    def x_full(q):
        return pair.full(q, 1.0)

    def x_full_jac(q):
        return pair.full_jac(q, 1.0)

    # FD Lie derivative on a thinned subset (it is O(points * 18) evaluations)
    sub = flat[:: max(1, flat.shape[0] // 160)]
    worst_i = 0.0
    worst_i_pt = tuple(sub[0])
    for q in sub:
        lie = ambient.lie_derivative_metric(geom, x_full, x_full_jac, q)
        target = 2.0 * phi(geom, q) * geom.metric_at(q)
        scale = max(1.0, float(np.max(np.abs(target))))
        res = float(np.max(np.abs(lie - target))) / scale
        if res > worst_i:
            worst_i, worst_i_pt = res, tuple(q)
    items.append(AssumptionItem("i", "full_field_conformal", worst_i, tol,
                                worst_i <= tol, worst_i_pt))

    # (ii) positivity of phi and |D|_g
    ph = phi(geom, flat)
    items.append(AssumptionItem("ii", "conformal_factor_positive",
                                float(np.min(ph)), 0.0,
                                bool(np.min(ph) > 0.0), _worst(flat, ph, False)))
    dn = dilation_norm_g(geom, flat)
    items.append(AssumptionItem("ii", "dilation_nonvanishing",
                                float(np.min(dn)), 0.0,
                                bool(np.min(dn) > 0.0), _worst(flat, dn, False)))

    # (iii) leaf support: u = g(X, outward g-unit sphere normal) > 0
    rr = np.linalg.norm(flat, axis=-1)
    x_hat = flat / rr[:, None]
    u_leaf = np.exp(geom.f(flat)) * np.sum(pair.full(flat, 1.0) * x_hat, axis=-1)
    items.append(AssumptionItem("iii", "leaf_support_positive",
                                float(np.min(u_leaf)), 0.0,
                                bool(np.min(u_leaf) > 0.0),
                                _worst(flat, u_leaf, False)))

    # (iv) leaf-constancy of lam, sphere by sphere
    lam_vals = lam(geom, flat).reshape(pts.shape[0], pts.shape[1])
    spread = (lam_vals.max(axis=1) - lam_vals.min(axis=1)) / lam_vals.mean(axis=1)
    k = int(np.argmax(spread))
    items.append(AssumptionItem("iv", "leaf_label_constant",
                                float(spread[k]), tol,
                                bool(spread[k] <= tol), (float(radii[k]), 0.0, 0.0)))

    # (v) Lam > 0 and the label gradient is 2 Lam D^flat
    lam_co = Lam(geom, flat)
    items.append(AssumptionItem("v", "label_coefficient_positive",
                                float(np.min(lam_co)), 0.0,
                                bool(np.min(lam_co) > 0.0),
                                _worst(flat, lam_co, False)))
    worst_v = 0.0
    worst_v_pt = tuple(sub[0])
    for q in sub:
        fd = ambient.fd_grad_scalar(geom, lambda x: lam(geom, x), q)
        target = 2.0 * Lam(geom, q) * np.exp(2.0 * geom.f(q)) * q
        scale = max(float(np.linalg.norm(target)), 1e-12)
        res = float(np.linalg.norm(fd - target)) / scale
        if res > worst_v:
            worst_v, worst_v_pt = res, tuple(q)
    items.append(AssumptionItem("v", "label_gradient_radial", worst_v, tol,
                                worst_v <= tol, worst_v_pt))

    # (vi) schedule gap positivity
    gap = schedule_gap(geom, pair, flat)
    items.append(AssumptionItem("vi", "schedule_gap_positive",
                                float(np.min(gap)), 0.0,
                                bool(np.min(gap) > 0.0), _worst(flat, gap, False)))

    # (vii) rotation is Killing
    worst_vii = 0.0
    worst_vii_pt = tuple(sub[0])
    if pair.omega != 0.0:
        for q in sub:
            lie = ambient.lie_derivative_metric(
                geom, pair.rotation, pair.rotation_jac, q)
            scale = float(np.max(np.abs(geom.metric_at(q)))) * (1.0 + abs(pair.omega))
            res = float(np.max(np.abs(lie))) / scale
            if res > worst_vii:
                worst_vii, worst_vii_pt = res, tuple(q)
    items.append(AssumptionItem("vii", "rotation_killing", worst_vii, tol,
                                worst_vii <= tol, worst_vii_pt))

    # (viii) integrability of the distribution orthogonal to the rotation:
    # the flat 1-form w_i = exp(2f) R_i must satisfy w . curl w = 0
    worst_viii = 0.0
    worst_viii_pt = tuple(sub[0])
    if pair.omega != 0.0:
        def w_field(q):
            return np.exp(2.0 * geom.f(q)) * pair.rotation(q)

        for q in sub:
            h = float(geom.fd_step(q))
            jac = np.zeros((3, 3))  # jac[i, j] = d_j w_i
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                jac[:, j] = (w_field(q + e) - w_field(q - e)) / (2.0 * h)
            curl = np.array([jac[2, 1] - jac[1, 2],
                             jac[0, 2] - jac[2, 0],
                             jac[1, 0] - jac[0, 1]])
            w = w_field(q)
            denom = max(np.linalg.norm(w) * np.linalg.norm(curl), 1e-12)
            res = abs(float(np.dot(w, curl))) / denom
            if res > worst_viii:
                worst_viii, worst_viii_pt = res, tuple(q)
    items.append(AssumptionItem("viii", "rotation_orthogonal_integrable",
                                worst_viii, tol, worst_viii <= tol, worst_viii_pt))

    # (ix)/(x) least-Ricci directions.  Work with exp(-2f) Ric, whose
    # eigenvalues are those of the g-shape of the Ricci form.
    worst_ix = -np.inf
    worst_ix_pt = tuple(flat[0])
    worst_x = -np.inf
    worst_x_pt = tuple(flat[0])
    worst_eq = 0.0
    worst_eq_pt = tuple(flat[0])
    e2f = np.exp(2.0 * geom.f(flat))
    ric = geom.ricci_at(flat)
    shaped = ric / e2f[:, None, None]
    eigs = np.linalg.eigvalsh(shaped)
    mu_min = eigs[:, 0]
    scale = np.maximum(1.0, np.max(np.abs(eigs), axis=1))

    def _quad(vecs):
        vn = vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)
        return np.einsum("ni,nij,nj->n", vn, shaped, vn)

    q_dil = _quad(flat)
    v_ix = (q_dil - mu_min) / scale
    k = int(np.argmax(v_ix))
    worst_ix, worst_ix_pt = float(v_ix[k]), tuple(flat[k])
    items.append(AssumptionItem("ix", "dilation_least_ricci", worst_ix, tol,
                                worst_ix <= tol, worst_ix_pt))

    if pair.omega != 0.0:
        rot = pair.rotation(flat)
        good = np.linalg.norm(rot, axis=-1) > 1e-12
        q_rot = _quad(rot[good])
        v_x = (q_rot - mu_min[good]) / scale[good]
        k = int(np.argmax(v_x))
        worst_x, worst_x_pt = float(v_x[k]), tuple(flat[good][k])
        v_eq = np.abs(q_rot - q_dil[good]) / scale[good]
        k = int(np.argmax(v_eq))
        worst_eq, worst_eq_pt = float(v_eq[k]), tuple(flat[good][k])
    else:
        worst_x = 0.0
    items.append(AssumptionItem("x", "rotation_least_ricci", worst_x, tol,
                                worst_x <= tol, worst_x_pt))
    items.append(AssumptionItem("x", "ricci_values_equal", worst_eq, tol,
                                worst_eq <= tol, worst_eq_pt))

    return AssumptionReport(items)
