"""Numerical checks of the paper's claims that no command runs.

The run modules hold what `ckflow run`, `verify`, `profile` and `seed`
execute.  The tests check them, and the paper's claims, against what lives
here: finite-difference Christoffels, Ricci tensor and covariant Hessian
against the geometries' analytic data, single-patch jets of u and H, rays
against a starshaped mesh, the ellipticity of the graph flux, the residuals
of the u- and H-evolution identities, and the linear growth envelope of
max H.  This module depends on the run modules, and none of them imports it.
"""

from dataclasses import dataclass

import numpy as np

from . import ckv, surface
from .ambient import fd_jacobian
from .ckv import N_SURF
from .errors import EllipticityLost, MeshDegenerate
from .flow import GraphState, _graph_slope_fields, leaf_coefficients

# --------------------------------------------------------------------------
# finite-difference references for the analytic metric data
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# single-patch jets and radial rays on a mesh
# --------------------------------------------------------------------------


# bivariate monomial exponents through degree 6 (constant first), for the
# jet fit; even top degree matches the stencil symmetry
_JET_EXPS = np.array(
    [(a, n - a) for n in range(7) for a in range(n, -1, -1)],
    dtype=np.int64,
)


def _jet_eval(coeffs, x, y, dx=0, dy=0):
    """Evaluate a d^dx d^dy derivative of the quartic jet at (x, y)."""
    out = 0.0
    for k, (a, b) in enumerate(_JET_EXPS):
        if a < dx or b < dy:
            continue
        fac = 1.0
        for i in range(dx):
            fac *= a - i
        for i in range(dy):
            fac *= b - i
        term = fac * coeffs[..., k]
        ea, eb = a - dx, b - dy
        if ea:
            term = term * x**ea
        if eb:
            term = term * y**eb
        out = out + term
    return out


@dataclass
class JetFields:
    """Support function, curvatures and their surface derivatives."""

    u: np.ndarray        # support of the full field, curved metric
    h: np.ndarray        # mean curvature, curved metric
    a2: np.ndarray       # |A|^2, curved metric
    nu_flat: np.ndarray  # patch unit normal (flat), outward
    grad_u: np.ndarray   # flat surface gradients (ambient 3-vectors)
    grad_h: np.ndarray
    lap_u: np.ndarray    # flat Laplace-Beltrami values
    lap_h: np.ndarray


def jet_fields(mesh, geom, pair, xi_now):
    """Per-vertex u/H fields and their surface operators from one local fit.

    The mean curvature is second order in position and its Laplacian
    fourth; chaining per-vertex fits through nodal fields stacks their
    rough error and the second pass diverges under refinement.  Instead a
    single degree-six height fit over the four-ring (`surface._local_fit`,
    the quadric's kernel) defines an analytic patch; u and H are evaluated
    on the patch and differentiated there (machine-accurate composition),
    so only the one smooth truncation error survives.
    """
    verts, normals = mesh.vertices, mesh.normals
    nbr, cnt = mesh.topology.ring(4)
    real = (np.arange(nbr.shape[1])[None, :] < cnt[:, None])[..., None]

    def jet_columns(x, y):
        # the constant column is 1 at the padded slots too: zero those rows
        cols = x[..., None] ** _JET_EXPS[:, 0] * y[..., None] ** _JET_EXPS[:, 1]
        return cols * real

    frames, scale, co = surface._local_fit(verts, normals, nbr, cnt,
                                           jet_columns)
    e1, e2 = frames[:, 0], frames[:, 1]  # co is the scaled height jet

    # 3x3 patch grid in scaled coordinates; physical derivative = /scale^k
    delta = 1e-3
    off = delta * np.array([-1.0, 0.0, 1.0])
    gx = np.repeat(off, 3)[None, :]  # (1, 9)
    gy = np.tile(off, 3)[None, :]
    co9 = co[:, None, :]
    hpatch = _jet_eval(co9, gx, gy)                   # scaled height
    h1p = _jet_eval(co9, gx, gy, dx=1)
    h2p = _jet_eval(co9, gx, gy, dy=1)
    h11p = _jet_eval(co9, gx, gy, dx=2) / scale[:, None]
    h12p = _jet_eval(co9, gx, gy, dx=1, dy=1) / scale[:, None]
    h22p = _jet_eval(co9, gx, gy, dy=2) / scale[:, None]

    pts = (
        verts[:, None, :]
        + (scale[:, None] * gx)[..., None] * e1[:, None, :]
        + (scale[:, None] * gy)[..., None] * e2[:, None, :]
        + (scale[:, None] * hpatch)[..., None] * normals[:, None, :]
    )
    wp = np.sqrt(1.0 + h1p**2 + h2p**2)
    nu_p = (
        normals[:, None, :] - h1p[..., None] * e1[:, None, :]
        - h2p[..., None] * e2[:, None, :]
    ) / wp[..., None]
    # outward-positive sum convention: sphere patch h ~ -|xi|^2/(2r)
    hbar = -(
        (1.0 + h2p**2) * h11p
        - 2.0 * h1p * h2p * h12p
        + (1.0 + h1p**2) * h22p
    ) / wp**3

    fv = geom.f(pts)
    nu_f = np.einsum("vkj,vkj->vk", nu_p, geom.grad_f(pts))
    xfull = pair.full(pts, xi_now)
    upatch = np.exp(fv) * np.einsum("vkj,vkj->vk", xfull, nu_p)
    hpatch_g = (hbar + 2.0 * nu_f) / np.exp(fv)

    # grid index (i, j) -> 3*(i+1) + (j+1); FD in scaled coords, then /scale^k
    def fd(F):
        f1 = (F[:, 7] - F[:, 1]) / (2.0 * delta) / scale
        f2 = (F[:, 5] - F[:, 3]) / (2.0 * delta) / scale
        f11 = (F[:, 7] - 2.0 * F[:, 4] + F[:, 1]) / delta**2 / scale**2
        f22 = (F[:, 5] - 2.0 * F[:, 4] + F[:, 3]) / delta**2 / scale**2
        f12 = (F[:, 8] - F[:, 6] - F[:, 2] + F[:, 0]) / (4.0 * delta**2) \
            / scale**2
        return F[:, 4], f1, f2, f11, f12, f22

    # graph metric at the patch center
    hx, hy = h1p[:, 4], h2p[:, 4]
    hxx, hxy, hyy = h11p[:, 4], h12p[:, 4], h22p[:, 4]
    wsq = 1.0 + hx * hx + hy * hy
    g11 = 1.0 - hx * hx / wsq
    g12 = -hx * hy / wsq
    g22 = 1.0 - hy * hy / wsq
    trace_h = g11 * hxx + 2.0 * g12 * hxy + g22 * hyy
    tau1 = e1 + hx[:, None] * normals
    tau2 = e2 + hy[:, None] * normals

    def surface_ops(F):
        f0, f1, f2, f11, f12, f22 = fd(F)
        lap = g11 * f11 + 2.0 * g12 * f12 + g22 * f22
        lap -= (trace_h / wsq) * (hx * f1 + hy * f2)
        gu1 = g11 * f1 + g12 * f2
        gu2 = g12 * f1 + g22 * f2
        grad = gu1[:, None] * tau1 + gu2[:, None] * tau2
        return f0, grad, lap

    u0, grad_u, lap_u = surface_ops(upatch)
    h0, grad_h, lap_h = surface_ops(hpatch_g)

    # |A|^2 from the center shape operator: S = g^{-1} b, b_ij = -h_ij / W
    wc = np.sqrt(wsq)
    b11, b12, b22 = -hxx / wc, -hxy / wc, -hyy / wc
    det_g = wsq  # det(I + hh^T) = 1 + |h|^2
    tr_s = g11 * b11 + 2.0 * g12 * b12 + g22 * b22
    det_s = (b11 * b22 - b12 * b12) / det_g
    a2_flat = tr_s * tr_s - 2.0 * det_s
    nu_fc = nu_f[:, 4]
    efc = np.exp(fv[:, 4])
    a2 = (a2_flat + 2.0 * tr_s * nu_fc + 2.0 * nu_fc**2) / efc**2
    return JetFields(
        u=u0, h=h0, a2=a2, nu_flat=nu_p[:, 4],
        grad_u=grad_u, grad_h=grad_h, lap_u=lap_u, lap_h=lap_h,
    )


def radial_intersections(mesh, dirs):
    """Intersection points of origin rays with a starshaped mesh.

    Moller-Trumbore per ray/face pair, 512 rays at a time; each ray must hit
    the surface (starshapedness about the chart origin), else MeshDegenerate.
    """
    dirs = np.asarray(dirs, dtype=float)
    v0 = mesh.vertices[mesh.faces[:, 0]]
    e1 = mesh.vertices[mesh.faces[:, 1]] - v0
    e2 = mesh.vertices[mesh.faces[:, 2]] - v0
    out = np.empty(dirs.shape[0])
    eps, chunk = 1e-12, 512
    for start in range(0, dirs.shape[0], chunk):
        d = dirs[start:start + chunk]
        pvec = np.cross(d[:, None, :], e2[None, :, :])
        det = np.einsum("fj,rfj->rf", e1, pvec)
        inv = np.where(np.abs(det) > eps, 1.0 / np.where(det == 0, 1.0, det), 0.0)
        uu = -np.einsum("fj,rfj->rf", v0, pvec) * inv
        qvec = np.cross(-v0[None, :, :], e1[None, :, :])
        vv = np.einsum("rj,rfj->rf", d, qvec) * inv
        tt = np.einsum("fj,rfj->rf", e2, qvec) * inv
        hit = (
            (np.abs(det) > eps)
            & (uu >= -1e-9) & (vv >= -1e-9) & (uu + vv <= 1.0 + 1e-9)
            & (tt > eps)
        )
        tt = np.where(hit, tt, np.inf)
        best = np.min(tt, axis=1)
        if np.any(~np.isfinite(best)):
            raise MeshDegenerate("a radial ray missed the mesh")
        out[start:start + chunk] = best
    return out[:, None] * dirs


# --------------------------------------------------------------------------
# ellipticity of the graph flux
# --------------------------------------------------------------------------


def graph_flux_jacobian(p, g_coef=1.0, h_coef=1.0):
    """dA_i/dp_j; symmetric with eigenvalues 1/W^3 along p, 1/W across."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(g_coef, dtype=float)
    ratio = np.asarray(h_coef, dtype=float) / g
    p2 = np.sum(p * p, axis=-1)
    w2 = 1.0 + ratio * p2
    amp = 1.0 / np.sqrt(w2)
    d = p.shape[-1]
    eye = np.eye(d)
    outer = p[..., :, None] * p[..., None, :]
    return amp[..., None, None] * (eye - (ratio / w2)[..., None, None] * outer)


def ellipticity_bounds(geom, shell, c1):
    """Extremes (c2, c3) of the flux Jacobian eigenvalues over the shell.

    Sweeps 16 x 200 shell samples and 65 gradient magnitudes |p| <= c1;
    geom=None evaluates the constant-coefficient case G = H_coef = 1.
    """
    if c1 <= 0.0:
        raise ValueError("gradient bound c1 must be positive")
    if geom is None:
        ratio = np.array([1.0])
    else:
        _, pts = ckv.shell_spheres(geom, shell[0], shell[1],
                                   n_spheres=16, n_per_sphere=200)
        pts = pts.reshape(-1, 3)
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        g, h = leaf_coefficients(geom, dirs, ckv.lam(geom, pts))
        ratio = h / g
    mags = np.linspace(0.0, c1, 65)
    w2 = 1.0 + ratio[:, None] * mags[None, :] ** 2
    lo = 1.0 / w2 ** 1.5
    hi = 1.0 / np.sqrt(w2)
    c2, c3 = float(np.min(lo)), float(np.max(hi))
    if not c2 > 0.0:
        raise EllipticityLost(f"flux Jacobian lower bound c2 = {c2:.3e}")
    return c2, c3


# --------------------------------------------------------------------------
# evolution-equation residuals on graph snapshots
# --------------------------------------------------------------------------


def evolution_residuals(geom, pair, state, schedule):
    """Discrete residuals of the u- and H-evolution identities at a state.

    The chart time derivative is taken centrally along the flow's own
    vertical rate d(lam)/dt = speed W / sqrt(H_coef); differencing raw
    solver snapshots does not work here because the finite-volume rate
    carries mesh-frequency noise that the curvature jet amplifies.  The
    chart derivative is then corrected by the tangential drift of graph
    points relative to flow particles.  Identities hold for a settled
    field; use omega = 0 or t >= T0 states.
    """
    xim = schedule.xi_at(state.t)
    emb = state.embedded(geom)
    vg = surface.mesh_geometry(emb, geom, pair, xim)
    jm = jet_fields(emb, geom, pair, xim)
    um, hm, a2 = jm.u, jm.h, jm.a2
    grad_u, lap_u = jm.grad_u, jm.lap_u
    grad_h, lap_h = jm.grad_h, jm.lap_h
    pts = emb.vertices
    areas_g = vg.area_g

    _, h_coef, _, _, w = _graph_slope_fields(geom, state)
    speed = N_SURF * vg.phi - um * hm
    rate = speed * w / np.sqrt(h_coef)
    delta = 1e-4 * np.max(np.abs(state.lam)) / max(np.max(np.abs(rate)),
                                                   1e-300)
    pair_at = []
    for sgn in (-1.0, 1.0):
        shifted = GraphState(leaf=state.leaf, lam=state.lam + sgn * delta
                             * rate, t=state.t + sgn * delta)
        js = jet_fields(shifted.embedded(geom), geom, pair,
                        schedule.xi_at(shifted.t))
        pair_at.append(js)
    j0, j1 = pair_at
    u0, h0, u1, h1 = j0.u, j0.h, j1.u, j1.h
    dt = 2.0 * delta

    # tangential drift of chart-vertical motion against normal flow motion
    drdlam = 1.0 / geom.dlambda_dr(np.linalg.norm(pts, axis=1))
    chart_vel = (rate * drdlam)[:, None] * state.leaf.vertices
    material_vel = (speed * np.exp(-vg.f))[:, None] * jm.nu_flat
    t_drift = chart_vel - material_vel

    x_full = pair.full(pts, xim)
    gphi = ckv.grad_phi(geom, pts)
    x_phi = np.einsum("ij,ij->i", x_full, gphi)
    nu_chart = np.exp(-vg.f)[:, None] * jm.nu_flat
    nu_phi = np.einsum("ij,ij->i", nu_chart, gphi)
    ric = geom.ricci_at(pts)
    ric_nn = np.einsum("ij,ijk,ik->i", nu_chart, ric, nu_chart)

    def l2(v):
        return float(np.sqrt(np.sum(v * v * areas_g) / np.sum(areas_g)))

    def material_residual(f0, f1, grad_m, lap_m, rhs):
        dchart = (f1 - f0) / dt
        lhs = dchart - np.einsum("ij,ij->i", t_drift, grad_m)
        diff = um * np.exp(-2.0 * vg.f) * lap_m
        res = lhs - diff - rhs
        scale = max(l2(lhs), l2(diff), l2(rhs), 1e-300)
        return l2(res) / scale

    # u equation
    rhs_u = (
        N_SURF * vg.phi**2
        - N_SURF * x_phi
        - 2.0 * vg.phi * hm * um
        + a2 * um**2
        + 2.0 * N_SURF * um * nu_phi
        + um**2 * ric_nn
        + hm * np.einsum("ij,ij->i", x_full, grad_u)
    )
    rel_u = material_residual(u0, u1, grad_u, lap_u, rhs_u)

    # H equation; phi's covariant Hessian differences its analytic gradient
    hess_phi = covariant_hessian(geom, lambda q: ckv.grad_phi(geom, q), pts)
    hess_nn = np.einsum("ij,ijk,ik->i", nu_chart, hess_phi, nu_chart)
    n_perp = pts / (np.exp(vg.f) * np.linalg.norm(pts, axis=1))[:, None]
    hess_pp = np.einsum("ij,ijk,ik->i", n_perp, hess_phi, n_perp)
    ric_pp = np.einsum("ij,ijk,ik->i", n_perp, ric, n_perp)
    # sign note: substituting the support-Laplacian identity into the
    # speed variation yields +phi (H^2 - n|A|^2) = -phi (k1 - k2)^2; the
    # nonpositive sign is also what the linear-growth bound on H needs.
    rhs_h = (
        2.0 * np.exp(-2.0 * vg.f) * np.einsum("ij,ij->i", grad_h, grad_u)
        + hm * np.einsum("ij,ij->i", x_full, grad_h)
        + vg.phi * (hm**2 - N_SURF * a2)
        + N_SURF * (hess_nn - hess_pp)
        + N_SURF * vg.phi * (ric_pp - ric_nn)
    )
    rel_h = material_residual(h0, h1, grad_h, lap_h, rhs_h)
    return rel_u, rel_h


# --------------------------------------------------------------------------
# curvature growth envelope
# --------------------------------------------------------------------------


def h_growth_fit(times, h_max):
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
    ok = bool(np.all(h <= a + b * t + 1e-6 * max(1.0, np.max(np.abs(h)))))
    return a, b, ok
