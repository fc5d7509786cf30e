"""Flow diagnostics: integral identities, leaf profiles, trace recording.

All surface integrals are vertex quadrature: per-vertex values times mixed
Voronoi cell areas scaled into the curved metric.
"""

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import ckv
from .ckv import N_SURF
from .errors import ProfileNotMonotone
from .surface import (cotan_laplacian_apply, enclosed_volume,
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


def support_criterion(vg):
    """max |u_perp - |D|_g| / |D|_g: zero exactly on a leaf."""
    return float(np.max(np.abs(vg.u_perp - vg.dilation_norm) / vg.dilation_norm))


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
    lhs = float(np.sum(vg.H * (N_SURF * vg.phi - vg.H * vg.u) * w))

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
# evolution-identity residual for the leaf label (Lagrangian backend)
# --------------------------------------------------------------------------


def label_evolution_source(geom, mesh, vg):
    """Zeroth-order source of the leaf-label evolution identity.

    B = -2 Lam n phi (u - u_perp)
        - u * 2/(phi^2 |D|^2) * D(Lam phi^2) * (|D|^2 - u_perp^2)
        + 4 u (Lam/phi) (D(phi) - nu(phi) u_perp)
    """
    verts = mesh.vertices
    dn2 = vg.dilation_norm**2
    gp = ckv.grad_phi(geom, verts)
    d_phi = np.einsum("ij,ij->i", verts, gp)
    nu_phi = np.exp(-vg.f) * np.einsum("ij,ij->i", vg.nu_flat, gp)
    d_lamphi2 = ckv.dilation_lam_phi2(geom, verts)
    b = -2.0 * vg.Lam * N_SURF * vg.phi * (vg.u - vg.u_perp)
    b -= vg.u * (2.0 / (vg.phi**2 * dn2)) * d_lamphi2 * (dn2 - vg.u_perp**2)
    b += 4.0 * vg.u * (vg.Lam / vg.phi) * (d_phi - nu_phi * vg.u_perp)
    return b


@dataclass
class ResidualCheck:
    rel: float
    lhs_norm: float
    diffusion_norm: float
    source_norm: float


def label_evolution_residual(mesh, geom, vg):
    """Surface-L2 residual of (d/dt) lam = u Lap_g lam + B along the flow.

    The material derivative is exact by the chain rule,
    (d/dt) lam = speed * 2 Lam u_perp, so the residual probes the
    consistency of the discrete Laplacian with the discrete curvature.
    """
    speed = N_SURF * vg.phi - vg.u * vg.H
    lhs = speed * 2.0 * vg.Lam * vg.u_perp
    lam_vals = vg.lam
    lap = cotan_laplacian_apply(mesh, lam_vals) * np.exp(-2.0 * vg.f)
    diffusion = vg.u * lap
    source = label_evolution_source(geom, mesh, vg)
    w = vg.area_g / np.sum(vg.area_g)

    def l2(x):
        return float(np.sqrt(np.sum(x * x * w)))

    res = l2(lhs - diffusion - source)
    denom = max(l2(lhs), l2(diffusion), l2(source), 1e-300)
    return ResidualCheck(res / denom, l2(lhs), l2(diffusion), l2(source))


# --------------------------------------------------------------------------
# leaf profile and the isoperimetric comparison
# --------------------------------------------------------------------------

_GL_NODES = 48
_AZ_NODES = 96


def _sphere_grid():
    """Unit directions of the Gauss-Legendre (in cos theta) x uniform
    azimuth grid, (_GL_NODES, _AZ_NODES, 3), and the Gauss-Legendre
    weights."""
    x, wx = np.polynomial.legendre.leggauss(_GL_NODES)
    az = 2.0 * np.pi * np.arange(_AZ_NODES) / _AZ_NODES
    st = np.sqrt(1.0 - x**2)
    dirs = np.empty((_GL_NODES, _AZ_NODES, 3))
    dirs[..., 0] = st[:, None] * np.cos(az)[None, :]
    dirs[..., 1] = st[:, None] * np.sin(az)[None, :]
    dirs[..., 2] = x[:, None]
    dirs.flags.writeable = False
    wx.flags.writeable = False
    return dirs, wx


# built once: every isoperimetric comparison and leaf-radius solve reads it
_SPHERE_DIRS, _SPHERE_WX = _sphere_grid()
_SPHERE_WAZ = 2.0 * np.pi / _AZ_NODES


def _sphere_quad(geom, r, power):
    """integral over the coordinate sphere of radius r of exp(power * f),
    against the flat sphere measure r^2 dOmega.  Gauss-Legendre x trapezoid."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pts = r[:, None, None, None] * _SPHERE_DIRS[None]
    vals = np.exp(power * geom.f(pts))
    return r * r * np.einsum("rga,g->r", vals, _SPHERE_WX) * _SPHERE_WAZ


def leaf_area(geom, r):
    """Curved area of the coordinate sphere of radius r."""
    out = _sphere_quad(geom, r, 2.0)
    return float(out[0]) if np.isscalar(r) else out


_GL_RADIAL_X, _GL_RADIAL_W = np.polynomial.legendre.leggauss(16)


def _shell_volume(geom, a, b):
    """Curved volume of the shell a <= |x| <= b: a 16-node Gauss-Legendre
    rule on the radial density rho(s) = s^2 * integral exp(3 f(s w)) dw."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = _sphere_quad(geom, mid + half * _GL_RADIAL_X, 3.0)
    return float(np.sum(vals * _GL_RADIAL_W) * half)


class _BallVolumeTable:
    """Curved ball volume V(r) for 0 <= r <= r_hi from one radial sweep.

    The radial density is integrated once, panel by panel, over n_panels
    equal panels of [0, r_hi]; the cumulative sums give V at the panel
    edges, and V(r) between edges adds one partial-panel rule.
    """

    def __init__(self, geom, r_hi, n_panels=64):
        self.geom = geom
        self.edges = np.linspace(0.0, r_hi, n_panels + 1)
        shells = [_shell_volume(geom, a, b)
                  for a, b in zip(self.edges[:-1], self.edges[1:])]
        self.cumulative = np.concatenate([[0.0], np.cumsum(shells)])

    def panel(self, r):
        """Index k of the panel [edges[k], edges[k+1]] that holds r."""
        k = int(np.searchsorted(self.edges, r, side="right")) - 1
        return min(max(k, 0), self.edges.size - 2)

    def volume(self, r, k=None):
        """V(r), integrating from the lower edge of panel k (default: r's)."""
        if k is None:
            k = self.panel(r)
        return float(self.cumulative[k]
                     + _shell_volume(self.geom, self.edges[k], r))


def ball_volume(geom, r, n_panels=64):
    """Curved volume of the coordinate ball of radius r (origin included)."""
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    table = _BallVolumeTable(geom, float(r.max()), n_panels)
    out = np.array([table.volume(rk) for rk in r])
    return float(out[0]) if scalar else out


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
    """Tabulate leaf area and enclosed ball volume against the radius."""
    if not (0.0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    geom.require_in_domain(
        np.array([[r_hi, 0.0, 0.0]]), what="leaf profile radius"
    )
    r = np.linspace(r_lo, r_hi, n)
    area = _sphere_quad(geom, r, 2.0)
    vol = ball_volume(geom, r)
    if np.any(np.diff(vol) <= 0.0):
        raise ProfileNotMonotone("ball volume is not strictly increasing")
    return LeafProfile(r=r, area=area, volume=vol)


def leaf_radius_for_volume(geom, target, r_lo, r_hi):
    """Radius of the coordinate ball enclosing the given curved volume.

    One radial sweep tabulates the ball volume at the panel edges of
    [0, r_hi] (`_BallVolumeTable`); the cumulative sums bracket the root in
    one panel, and brentq refines it there with a partial-panel rule per
    iteration.
    """
    table = _BallVolumeTable(geom, r_hi)
    flo = table.volume(r_lo) - target
    fhi = float(table.cumulative[-1]) - target
    if flo * fhi > 0.0:
        raise ValueError(
            f"volume {target:.6g} not bracketed on [{r_lo}, {r_hi}] "
            f"(endpoint values {flo:.3g}, {fhi:.3g})"
        )
    # first panel whose outer edge encloses the target volume
    k = max(table.panel(r_lo),
            int(np.searchsorted(table.cumulative, target)) - 1)

    def fn(r):
        return table.volume(float(r), k) - target

    a, b = max(float(table.edges[k]), r_lo), float(table.edges[k + 1])
    return float(brentq(fn, a, b, xtol=1e-12, rtol=1e-13))


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


def isoperimetric_check(geom, mesh_initial, mesh_final, converged, tol=5e-3):
    """Leaf-of-equal-volume comparison against the seed surface.

    The flow preserves volume and shrinks area toward the leaf enclosing the
    same volume, so A(leaf) <= A(seed) up to discretization tolerance.  The
    leaf radius comes from `leaf_radius_for_volume`: one tabulated sweep of
    the radial volume density over [0, r_hi], then a root search inside a
    single panel.
    """
    a0 = surface_area(mesh_initial, geom)
    v0 = enclosed_volume(mesh_initial, geom)
    a1 = surface_area(mesh_final, geom)
    v1 = enclosed_volume(mesh_final, geom)
    rmax = float(np.max(np.linalg.norm(mesh_initial.vertices, axis=1)))
    rmin = float(np.min(np.linalg.norm(mesh_initial.vertices, axis=1)))
    r_out = float(geom.outer_distance(np.zeros(3)))  # outer chart radius
    r_hi = 2.0 * rmax if not np.isfinite(r_out) else min(2.0 * rmax, 0.995 * r_out)
    r_leaf = leaf_radius_for_volume(geom, v0, 0.2 * rmin, r_hi)
    a_leaf = leaf_area(geom, r_leaf)
    return IsoperimetricVerdict(
        area_initial=a0,
        area_final=a1,
        volume_initial=v0,
        volume_final=v1,
        r_leaf=r_leaf,
        area_leaf_equal_volume=a_leaf,
        isoperimetric_pass=bool(a_leaf <= a0 * (1.0 + tol)),
        converged=bool(converged),
    )


# --------------------------------------------------------------------------
# curvature growth envelope
# --------------------------------------------------------------------------


def h_growth_fit(times, h_max, slack=1e-6):
    """Affine envelope fitted on the first half, checked on the whole trace.

    Least squares fit a + b t on the first half, slope clamped to b >= 0,
    intercept shifted up so the first half lies below the line; returns
    (a, b, ok) where ok means max H never exceeds the extrapolated envelope.
    """
    t = np.asarray(times, dtype=float)
    h = np.asarray(h_max, dtype=float)
    if t.size < 4:
        raise ValueError("need at least 4 samples for the envelope fit")
    half = t.size // 2
    th, hh = t[:half], h[:half]
    A = np.stack([np.ones_like(th), th], axis=1)
    (a, b), *_ = np.linalg.lstsq(A, hh, rcond=None)
    b = max(0.0, float(b))
    a = float(a + np.max(hh - (a + b * th)))
    ok = bool(np.all(h <= a + b * t + slack * max(1.0, np.max(np.abs(h)))))
    return a, b, ok


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
