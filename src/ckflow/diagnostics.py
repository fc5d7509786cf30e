"""Flow diagnostics: integral identities, leaf profiles, trace recording.

All surface integrals are vertex quadrature: per-vertex values times mixed
Voronoi cell areas scaled into the curved metric.
"""

import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import ckv
from .ckv import N_SURF
from .errors import ProfileNotMonotone
# perfbench's tracer wraps cotan_laplacian_apply, enclosed_volume and
# surface_area here as well as in surface; this module calls none of them
from .surface import (cotan_laplacian_apply, enclosed_volume,  # noqa: F401
                      principal_curvatures, surface_area)

TRACE_COLUMNS = (
    "step", "time", "xi", "area", "volume", "lambda_min", "lambda_max",
    "u_min", "uperp_min", "H_min", "H_max", "mink1", "mink2",
    "umbilicity", "leaf_distance", "dt",
)


# --------------------------------------------------------------------------
# pointwise / integral diagnostics on a geometry bundle
# --------------------------------------------------------------------------


def leaf_distance(lam_values):
    """(max - min) / mean of the leaf label over the surface."""
    lam = np.asarray(lam_values, dtype=float)
    return float((lam.max() - lam.min()) / lam.mean())


def minkowski1_residual(vg):
    """Relative residual of  integral(H u) = n * integral(phi)."""
    w = vg.area_g
    lhs = float(np.sum(vg.H * vg.u * w))
    rhs = float(N_SURF * np.sum(vg.phi * w))
    return abs(lhs - rhs) / abs(rhs)


def minkowski2_parts(mesh, geom, vg):
    """Both sides of the curvature-difference identity plus its scale.

    lhs = integral H (n phi - H u)
    rhs = n/(n-1) integral u (Ric(N_dil, N_dil) - Ric(nu, nu))
          - integral (k1 - k2)^2 u
    scale = integral H^2 u        (the curvature energy of the surface)
    """
    w = vg.area_g
    lhs = float(np.sum(vg.H * vg.speed * w))

    verts = mesh.vertices
    ric = geom.ricci_at(verts)
    e2f = np.exp(2.0 * vg.f)
    rr = np.linalg.norm(verts, axis=1)
    n_dil = verts / rr[:, None]
    ric_dil = np.einsum("ni,nij,nj->n", n_dil, ric, n_dil) / e2f
    ric_nu = np.einsum("ni,nij,nj->n", vg.nu_flat, ric, vg.nu_flat) / e2f
    rhs_ric = float(
        (N_SURF / (N_SURF - 1.0)) * np.sum(vg.u * (ric_dil - ric_nu) * w)
    )
    k1, k2 = principal_curvatures(mesh, vg)
    rhs_umb = -float(np.sum((k1 - k2) ** 2 * vg.u * w))
    scale = float(np.sum(vg.H**2 * np.abs(vg.u) * w))
    return lhs, rhs_ric, rhs_umb, scale


def minkowski2_residual(mesh, geom, vg):
    """|lhs - rhs| normalized by the curvature energy integral(H^2 u)."""
    lhs, rhs_ric, rhs_umb, scale = minkowski2_parts(mesh, geom, vg)
    return abs(lhs - rhs_ric - rhs_umb) / max(scale, 1e-300)


def umbilicity_deficit(mesh, vg):
    """integral (k1 - k2)^2 dA_g: zero exactly on umbilic surfaces."""
    k1, k2 = principal_curvatures(mesh, vg)
    return float(np.sum((k1 - k2) ** 2 * vg.area_g))


# --------------------------------------------------------------------------
# source of the leaf-label evolution (the leaf graph's B)
# --------------------------------------------------------------------------


def label_evolution_source(geom, mesh, vg):
    """Zeroth-order source of the leaf-label evolution identity.

    B = -2 Lam n phi (u - u_perp)
        - u * 2/(phi^2 |D|^2) * D(Lam phi^2) * (|D|^2 - u_perp^2)
        + 4 u (Lam/phi) (D(phi) - nu(phi) u_perp)
    """
    verts = mesh.vertices
    dn2 = ckv.dilation_norm_g(geom, verts)**2
    lam_coef = ckv.Lam(geom, verts)
    gp = ckv.grad_phi(geom, verts)
    d_phi = np.einsum("ij,ij->i", verts, gp)
    nu_phi = np.exp(-vg.f) * np.einsum("ij,ij->i", vg.nu_flat, gp)
    r = np.linalg.norm(verts, axis=-1)
    d_lamphi2 = r * geom.d_lam_phi2_dr(r)  # D(Lam phi^2), radial profile
    b = -2.0 * lam_coef * N_SURF * vg.phi * (vg.u - vg.u_perp)
    b -= vg.u * (2.0 / (vg.phi**2 * dn2)) * d_lamphi2 * (dn2 - vg.u_perp**2)
    b += 4.0 * vg.u * (lam_coef / vg.phi) * (d_phi - nu_phi * vg.u_perp)
    return b


# --------------------------------------------------------------------------
# leaf profile and the isoperimetric comparison
# --------------------------------------------------------------------------

ISOPERIMETRIC_TOL = 5e-3   # relative slack of A(leaf) <= A(seed)


@dataclass
class LeafProfile:
    r: np.ndarray
    area: np.ndarray
    volume: np.ndarray

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("r,area,volume\n")
            for r, a, v in zip(self.r, self.area, self.volume):
                fh.write(f"{r:.9g},{a:.9g},{v:.9g}\n")


def leaf_profile(geom, r_lo, r_hi, n=128):
    """Tabulate the geometry's leaf area and ball volume against the radius."""
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    geom.require_in_domain(
        np.array([[r_hi, 0.0, 0.0]]), what="leaf profile radius"
    )
    r = np.linspace(r_lo, r_hi, n)
    vol = geom.ball_volume(r)
    if np.any(np.diff(vol) <= 0.0):
        raise ProfileNotMonotone("ball volume is not strictly increasing")
    return LeafProfile(r=r, area=geom.leaf_area(r), volume=vol)


def _nan_check(x, fx):
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _brentq(fn, xpre, xcur, fpre, fcur, xtol, rtol, maxiter=100):
    """Root of `fn` in [xpre, xcur], where it takes the values fpre, fcur.

    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), step for step as scipy's `brentq`: inverse
    quadratic or secant steps inside the bracket, bisection when a step is
    too long or the bracket shrinks too slowly, and a step of at least the
    tolerance `(xtol + rtol |x|) / 2`.  Equal signs at the ends and a NaN
    value raise ValueError; no convergence in `maxiter` steps raises
    RuntimeError.
    """
    _nan_check(xpre, fpre)
    _nan_check(xcur, fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end as xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _nan_check(xcur, fn(xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def leaf_radius_for_volume(geom, target, r_lo, r_hi):
    """Radius in [r_lo, r_hi] of the coordinate ball enclosing the given
    curved volume: a root of `geom.ball_volume(r) - target`, found by
    Brent's method (`_brentq`) to xtol = 1e-12, rtol = 1e-13, 100 steps
    at most.  A target outside [V(r_lo), V(r_hi)] raises ValueError."""

    def fn(r):
        return float(geom.ball_volume(r)) - target

    flo, fhi = fn(r_lo), fn(r_hi)
    if flo * fhi > 0.0:
        raise ValueError(
            f"volume {target:.6g} not bracketed on [{r_lo}, {r_hi}] "
            f"(V - target = {flo:.3g} at r_lo, {fhi:.3g} at r_hi)"
        )
    return float(_brentq(fn, r_lo, r_hi, flo, fhi, xtol=1e-12, rtol=1e-13))


@dataclass
class IsoperimetricVerdict:
    area_initial: float
    area_final: float
    volume_initial: float
    volume_final: float
    r_leaf: float
    area_leaf_equal_volume: float
    isoperimetric_pass: bool
    converged: bool

    def write_txt(self, path):
        with open(path, "w") as fh:
            fh.write(f"area_initial = {self.area_initial:.9g}\n")
            fh.write(f"area_final = {self.area_final:.9g}\n")
            fh.write(f"volume_initial = {self.volume_initial:.9g}\n")
            fh.write(f"volume_final = {self.volume_final:.9g}\n")
            fh.write(f"area_leaf_equal_volume = {self.area_leaf_equal_volume:.9g}\n")
            fh.write(f"isoperimetric_pass = {str(self.isoperimetric_pass).lower()}\n")
            fh.write(f"converged = {str(self.converged).lower()}\n")


def isoperimetric_check(geom, mesh_initial, mesh_final, converged):
    """Leaf-of-equal-volume comparison against the seed surface.

    The flow preserves volume and shrinks area toward the leaf enclosing the
    same volume, so A(leaf) <= A(seed) up to the discretization tolerance
    `ISOPERIMETRIC_TOL`.  The leaf radius comes from
    `leaf_radius_for_volume`, and its area from `geom.leaf_area`.  The
    areas and volumes are the snapshots' memos, which a run has filled.
    """
    a0, v0 = mesh_initial.area(geom), mesh_initial.volume(geom)
    a1, v1 = mesh_final.area(geom), mesh_final.volume(geom)
    rmax = float(np.max(np.linalg.norm(mesh_initial.vertices, axis=1)))
    rmin = float(np.min(np.linalg.norm(mesh_initial.vertices, axis=1)))
    r_out = float(geom.outer_distance(np.zeros(3)))  # outer chart radius
    r_hi = 2.0 * rmax if not np.isfinite(r_out) else min(2.0 * rmax, 0.995 * r_out)
    r_leaf = leaf_radius_for_volume(geom, v0, 0.2 * rmin, r_hi)
    a_leaf = float(geom.leaf_area(r_leaf))
    return IsoperimetricVerdict(
        area_initial=a0,
        area_final=a1,
        volume_initial=v0,
        volume_final=v1,
        r_leaf=r_leaf,
        area_leaf_equal_volume=a_leaf,
        isoperimetric_pass=bool(a_leaf <= a0 * (1.0 + ISOPERIMETRIC_TOL)),
        converged=bool(converged),
    )


# --------------------------------------------------------------------------
# trace recording
# --------------------------------------------------------------------------


@dataclass
class FlowTrace:
    """Per-step scalar diagnostics of a flow run."""

    rows: list = field(default_factory=list)

    def add(self, **kw):
        missing = set(TRACE_COLUMNS) - set(kw)
        if missing:
            raise ValueError(f"trace row missing {sorted(missing)}")
        self.rows.append(tuple(float(kw[c]) for c in TRACE_COLUMNS))

    def column(self, name):
        k = TRACE_COLUMNS.index(name)
        return np.array([row[k] for row in self.rows])

    def __len__(self):
        return len(self.rows)

    def to_csv(self):
        buf = io.StringIO()
        buf.write(",".join(TRACE_COLUMNS) + "\n")
        for row in self.rows:
            step = int(row[0])
            rest = ",".join(f"{v:.9g}" for v in row[1:])
            buf.write(f"{step},{rest}\n")
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())
