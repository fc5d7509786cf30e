"""Time integration of the flow: one time-loop driver over two steppers.

The Lagrangian front (`run`) moves mesh vertices along the chart velocities
(n phi - u H) exp(-f) nu_flat; the leaf graph (`run_graph`) evolves the leaf
label lam over a fixed leaf as a scalar PDE.  Both run in `_drive`, with
steps retried at half the size while the curved area would increase.  The
driver owns the loop-top geometry and star-shape check, the label band, the
trace row, frames, convergence and error tagging; a stepper (`_FrontStepper`,
`_GraphStepper`) holds one backend's state, bounds dt, proposes a finite
candidate and commits it.  The front projects each candidate back onto the
initial curved volume and smooths tangentially on a fixed cadence, skipping
a pass that would break area monotonicity.

Each backend has one step, linearly implicit.  The front's
(`step_lagrangian`) takes the stiff part u exp(-2f) Lap x of the chart
velocity at the new time through one sparse solve with the cotan stiffness,
the rest at the old, so its bound (`cfl_dt`) is dt = cfl h_min.  The leaf
graph's (`step_graph`) does the same for its divergence term, with the
leaf's cotan stiffness weighting each face by 1/W, under dt = cfl h_min of
the fixed leaf (`graph_cfl_dt`).  `chart_velocity` and `_graph_rate` are the
explicit rates the two steps are consistent with.

Each snapshot's geometry is computed once per step: the loop-top
`mesh_geometry` bundle is the step's start (it depends on neither the step
size nor the retry), and a step needs nothing else.  Every snapshot
memoizes its own face kernels, area and volume (see `surface.TriSurface`),
so the loop top reads the accepted mesh's area and volume where the area
guard and the volume projection left them, and the graph's fixed leaf keeps
its gradient basis, dual areas and shortest edge for the whole run.  The
graph stepper's loop-top chart fields are the frozen coefficients of its
step.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import ambient, ckv, diagnostics, surface
from .ckv import N_SURF
from .errors import (CkflowError, EllipticityLost, GradientBoundExceeded,
                     MeshDegenerate, StarshapeLost)

BAND_SLACK = 1e-3       # relative padding of the initial leaf-label band
SMOOTH_STRENGTH = 0.5   # tangential smoothing step of the front
MAX_RETRIES = 8         # step halvings before the area guard gives up


@dataclass
class StepControl:
    """Knobs of the time integration loop."""

    cfl: float = 0.25
    t_end: float = 20.0
    speed_tol: float = 1e-2
    leaf_tol: float = 1e-2
    smooth_every: int = 10
    area_slack: float = 1e-8
    max_steps: int = 500000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")


@dataclass
class RunResult:
    mesh: surface.TriSurface
    mesh_initial: surface.TriSurface
    trace: diagnostics.FlowTrace
    converged: bool
    reason: str
    t: float
    steps: int
    band_ok: bool
    lam_band: tuple


def flow_speed(vg):
    """Normal speed n phi - u H of the current snapshot."""
    return N_SURF * vg.phi - vg.u * vg.H


def chart_velocity(vg):
    """Chart displacement rate: speed * exp(-f) along the flat normal."""
    v = flow_speed(vg) * np.exp(-vg.f)
    return v[:, None] * vg.nu_flat


def _min_edge(mesh):
    h_min = mesh.min_edge
    if h_min < 1e-9:
        raise MeshDegenerate(f"minimum edge collapsed to {h_min:.3e}")
    return h_min


def cfl_dt(mesh, cfl):
    """Front step bound: cfl * h_min."""
    return cfl * _min_edge(mesh)


def step_lagrangian(mesh, geom, t, dt, vg, step):
    """One linearly implicit step (Dziuk 1991) from t; returns the new mesh.

    The chart velocity is c Lap x + b nu_flat, with c = u exp(-2f) and
    b = n phi exp(-f) - 2 c nu_flat(f) frozen at the step's start (Lap x
    carries -H_flat nu_flat).  With M the mixed Voronoi areas and L the
    cotan stiffness (L x = M Lap x) the step solves

        (diag(M/c) - dt L) x+ = diag(M/c) (x + dt b nu_flat),

    a symmetric positive definite system while u > 0.  `vg` is the mesh's
    geometry bundle at time t; it does not depend on dt, so the loop top's
    bundle serves every retry.  A system entry that is not finite raises
    MeshDegenerate naming `step` and t before the sparse solver would fail
    on it, and so does a result that is not finite before the chart-domain
    check would read it as a domain exit.
    """
    c = vg.u * np.exp(-2.0 * vg.f)
    b = N_SURF * vg.phi * np.exp(-vg.f) - 2.0 * c * vg.nu_f
    mass = vg.area_flat / c
    lhs = sp.diags_array(mass, format="csc") \
        - dt * surface.cotan_stiffness(mesh)
    _require_finite(lhs.data, "", step, t, "implicit system entry")
    rhs = mass[:, None] * (mesh.vertices + dt * b[:, None] * vg.nu_flat)
    new = mesh.with_vertices(splu(lhs).solve(rhs))
    _require_finite(new.vertices, "", step, t)
    geom.require_in_domain(new.vertices, what="vertex")
    return new


def _rescale_to_volume(mesh, geom, target, tol=1e-12):
    """Scale about the origin until the curved volume matches `target`.

    Returns the scaled mesh, which keeps its curved volume in its memo.
    """
    def scaled(s):
        out = mesh.with_vertices(s * mesh.vertices)
        return out, out.volume(geom) / target - 1.0

    s0 = 1.0
    out, e0 = scaled(s0)
    if abs(e0) < tol:
        return out
    # cubic scaling holds only at leading order in curved geometry, where a
    # fixed-exponent iteration can stall; the secant update does not care.
    s1 = (1.0 + e0) ** (-1.0 / 3.0)
    for _ in range(20):
        out, e1 = scaled(s1)
        if abs(e1) < tol or e1 == e0:
            return out
        s0, s1, e0 = s1, s1 - e1 * (s1 - s0) / (e1 - e0), e1
    return scaled(s1)[0]


def _require_finite(vertices, label, step, t, what="vertex"):
    if not np.all(np.isfinite(vertices)):
        raise MeshDegenerate(f"{label}step {step} from t={t:.6g} gave a "
                             f"non-finite {what}")


def _drive(stepper, schedule, ctrl, frame_every, frame_cb):
    """The time loop of both backends; returns a RunResult.

    The stepper has `geom`, `pair`, `label` (its name in messages), `t`,
    `mesh` (embedded, at t), `mesh_initial`, `labels(vg)` -> the leaf
    labels, `max_dt(vg, xi_now)`, `propose(vg, dt, step)` -> the candidate's
    mesh and `accept(dt, step, area_prev)`.
    Convergence: leaf spread (max-min)/mean of the label <= leaf_tol and
    max |speed| <= speed_tol * max H; t_end or max_steps return
    converged=False.  With frame_every > 0, frame_cb(step, t, mesh) gets
    every frame_every-th loop-top snapshot and the last one.  A package
    error raised in the loop carries the partial trace as `err.trace`.
    """
    if frame_every > 0 and frame_cb is None:
        raise ValueError("frame_every > 0 needs a frame_cb")
    geom, pair = stepper.geom, stepper.pair
    trace = diagnostics.FlowTrace()
    step, dt_arrived, band, band_ok = 0, 0.0, None, True

    try:
        while True:
            t, mesh = stepper.t, stepper.mesh
            xi_now = schedule.xi_at(t)
            vg = surface.mesh_geometry(mesh, geom, pair, xi_now)
            # a NaN fails this comparison too
            if not np.min(vg.u) > 0.0:
                raise StarshapeLost(
                    f"support function reached {float(np.min(vg.u)):.3e} "
                    f"at t={t:.6g} ({stepper.label}step {step})"
                )
            area, volume = mesh.area(geom), mesh.volume(geom)
            lam = stepper.labels(vg)
            if band is None:
                rng = float(lam.max() - lam.min())
                pad = BAND_SLACK * max(rng, 1e-300)
                band = (float(lam.min()) - pad, float(lam.max()) + pad)
            if lam.min() < band[0] or lam.max() > band[1]:
                band_ok = False
            speed = flow_speed(vg)
            ld = diagnostics.leaf_distance(lam)
            trace.add(
                step=step, time=t, xi=xi_now, area=area, volume=volume,
                lambda_min=float(lam.min()), lambda_max=float(lam.max()),
                u_min=float(vg.u.min()), uperp_min=float(vg.u_perp.min()),
                H_min=float(vg.H.min()), H_max=float(vg.H.max()),
                mink1=diagnostics.minkowski1_residual(vg),
                mink2=diagnostics.minkowski2_residual(mesh, geom, vg),
                umbilicity=diagnostics.umbilicity_deficit(mesh, vg),
                leaf_distance=ld, dt=dt_arrived,
            )
            if frame_every > 0 and step % frame_every == 0:
                frame_cb(step, t, mesh)

            converged = (
                ld <= ctrl.leaf_tol
                and float(np.max(np.abs(speed))) <= ctrl.speed_tol * float(np.max(vg.H))
            )
            if converged:
                reason = "converged"
                break
            if t >= ctrl.t_end or step >= ctrl.max_steps:
                reason = "t_end" if t >= ctrl.t_end else "max_steps"
                break

            dt = min(stepper.max_dt(vg, xi_now), ctrl.t_end - t)
            for _ in range(MAX_RETRIES):
                cand = stepper.propose(vg, dt, step)
                if cand.area(geom) <= area * (1.0 + ctrl.area_slack):
                    break
                dt *= 0.5
            else:
                raise MeshDegenerate(
                    f"{stepper.label}area kept increasing at t={t:.6g} "
                    f"even at dt={dt:.3e}"
                )
            step += 1
            dt_arrived = dt
            stepper.accept(dt, step, area)
    except CkflowError as err:
        err.trace = trace
        raise

    if frame_every > 0:
        frame_cb(step, stepper.t, stepper.mesh)
    return RunResult(
        mesh=stepper.mesh, mesh_initial=stepper.mesh_initial, trace=trace,
        converged=(reason == "converged"), reason=reason, t=stepper.t,
        steps=step, band_ok=band_ok, lam_band=band,
    )


class _FrontStepper:
    """The Lagrangian front: the mesh vertices move."""

    label = ""

    def __init__(self, geom, pair, mesh0, ctrl):
        self.geom, self.pair, self.ctrl = geom, pair, ctrl
        self.mesh_initial = self.mesh = mesh0
        self.t = 0.0
        self.vol0 = mesh0.volume(geom)
        self._cand = None  # the last proposal

    def labels(self, vg):
        return vg.lam

    def max_dt(self, vg, xi_now):
        return cfl_dt(self.mesh, self.ctrl.cfl)

    def propose(self, vg, dt, step):
        cand = step_lagrangian(self.mesh, self.geom, self.t, dt, vg, step)
        _require_finite(cand.vertices, self.label, step, self.t)
        # the continuum flow conserves enclosed volume (first Minkowski
        # identity), but the discrete identity only holds to quadrature
        # order; project back before judging the area trend, else the
        # drift masquerades as area growth.
        self._cand = _rescale_to_volume(cand, self.geom, self.vol0)
        return self._cand

    def accept(self, dt, step, area_prev):
        """Commit the candidate, then smooth on the cadence; guard quality."""
        self.mesh = self._cand
        self.t += dt
        ctrl = self.ctrl
        if ctrl.smooth_every > 0 and step % ctrl.smooth_every == 0:
            sm = surface.tangential_smooth(self.mesh, SMOOTH_STRENGTH)
            sm = _rescale_to_volume(sm, self.geom, self.vol0)
            if sm.area(self.geom) <= area_prev * (1.0 + ctrl.area_slack):
                self.mesh = sm
            q = surface.quality(self.mesh)
            if q.degenerate():
                raise MeshDegenerate(
                    f"mesh quality collapsed at t={self.t:.6g}: "
                    f"min angle {q.min_angle_deg:.2f} deg, "
                    f"edge ratio {q.max_edge_ratio:.1f}"
                )


def run(geom, pair, mesh0, schedule, ctrl=None, frame_every=0, frame_cb=None):
    """Integrate the Lagrangian front from the seed; see `_drive`."""
    ctrl = ctrl or StepControl()
    stepper = _FrontStepper(geom, pair, mesh0, ctrl)
    return _drive(stepper, schedule, ctrl, frame_every, frame_cb)


# --------------------------------------------------------------------------
# leaf-graph backend: the flow as a scalar PDE for lam over a fixed leaf
# --------------------------------------------------------------------------


def leaf_coefficients(geom, dirs, lam):
    """Chart metric blocks over the leaf: G = e^{2f} r^2, H_coef = e^{2f} r'(lam)^2.

    dirs are unit directions, lam the leaf labels; the chart metric is
    G sigma + H_coef dlam^2 with sigma the round metric of the unit leaf.
    """
    lam = np.asarray(lam, dtype=float)
    r = geom.r_of_lambda(lam)
    pts = r[..., None] * np.asarray(dirs, dtype=float)
    e2f = np.exp(2.0 * geom.f(pts))
    drdlam = 1.0 / geom.dlambda_dr(r)
    return e2f * r * r, e2f * drdlam * drdlam


def graph_flux(p, g_coef=1.0, h_coef=1.0):
    """Flux A = p / sqrt(1 + (H/G)|p|^2) of the graph equation (n = 2)."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(g_coef, dtype=float)
    p2 = np.sum(p * p, axis=-1)
    w = np.sqrt(1.0 + (np.asarray(h_coef, dtype=float) / g) * p2)
    amp = 1.0 / w
    return amp[..., None] * p


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


def ellipticity_bounds(geom, shell, c1, n_spheres=16, n_per_sphere=200,
                       n_grad=65, seed=0):
    """Extremes (c2, c3) of the flux Jacobian eigenvalues over the shell.

    Sweeps sampled shell points and gradient magnitudes |p| <= c1; geom=None
    evaluates the constant-coefficient case G = H_coef = 1.
    """
    if c1 <= 0.0:
        raise ValueError("gradient bound c1 must be positive")
    if geom is None:
        ratio = np.array([1.0])
    else:
        _, pts = ckv.shell_spheres(geom, shell[0], shell[1],
                                   n_spheres=n_spheres,
                                   n_per_sphere=n_per_sphere, seed=seed)
        pts = pts.reshape(-1, 3)
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        g, h = leaf_coefficients(geom, dirs, ckv.lam(geom, pts))
        ratio = h / g
    mags = np.linspace(0.0, c1, n_grad)
    w2 = 1.0 + ratio[:, None] * mags[None, :] ** 2
    lo = 1.0 / w2 ** 1.5
    hi = 1.0 / np.sqrt(w2)
    c2, c3 = float(np.min(lo)), float(np.max(hi))
    if not c2 > 0.0:
        raise EllipticityLost(f"flux Jacobian lower bound c2 = {c2:.3e}")
    return c2, c3


@dataclass
class GraphState:
    """Leaf labels over a fixed unit-direction mesh (radial graph chart)."""

    leaf: surface.TriSurface
    lam: np.ndarray
    t: float = 0.0

    def embedded(self, geom):
        r = geom.r_of_lambda(np.asarray(self.lam, dtype=float))
        return self.leaf.with_vertices(r[:, None] * self.leaf.vertices)


def graph_state_from_mesh(mesh, geom, t=0.0):
    """Project a radially graphical mesh onto the leaf chart."""
    rad = np.linalg.norm(mesh.vertices, axis=1)
    if np.any(rad <= 0.0):
        raise MeshDegenerate("vertex at the chart origin cannot be a graph")
    leaf = mesh.with_vertices(mesh.vertices / rad[:, None])
    return GraphState(leaf=leaf, lam=ckv.lam(geom, mesh.vertices), t=t)


def _graph_chart_fields(geom, pair, state, xi_now, emb, vg):
    """Per-vertex chart quantities of a graph state.

    Returns (emb, vg, g, h, pf, pv, w, u) with pf the P1 leaf gradient of
    lam per face, pv its vertex average, w the graph area factor and u the
    scheduled support function computed from the chart identities
    u_perp = |X_perp|_g / W, u_top = -sqrt(H_coef) X_top(lam) / W.  `emb`
    and `vg` are the state's embedded mesh and its geometry bundle at
    xi_now.
    """
    leaf = state.leaf
    g, h = leaf_coefficients(geom, leaf.vertices, state.lam)
    pf = surface.face_gradients(leaf, state.lam)
    pv = surface.vertex_gradients(leaf, pf)
    w = np.sqrt(1.0 + (h / g) * np.einsum("ij,ij->i", pv, pv))
    u_perp = vg.dilation_norm / w
    u_top = -np.sqrt(h) * np.einsum("ij,ij->i", pair.rotation(leaf.vertices),
                                    pv) / w
    u = u_perp + xi_now * u_top
    return emb, vg, g, h, pf, pv, w, u


def _graph_guards(fields, c1, t):
    """Raise unless a graph state's chart fields keep the gradient bound c1
    and a positive support function; the graph step calls it on the fields
    it freezes."""
    _, _, _, _, _, pv, _, u = fields
    grad_mag = np.linalg.norm(pv, axis=1)
    if np.max(grad_mag) > c1:
        raise GradientBoundExceeded(
            f"leaf gradient {np.max(grad_mag):.3f} exceeded the bound {c1:.3f}"
        )
    if not np.min(u) > 0.0:  # a NaN fails this comparison too
        raise StarshapeLost(
            f"graph support function reached {float(np.min(u)):.3e} "
            f"at t={t:.6g}"
        )


def _graph_rate(geom, state, fields):
    """Fixed-chart rate d lam/dt = W^2 (u div(A)/(G W) + B).

    The W^2 factor converts the material evolution law to the vertical
    chart derivative (graph points move vertically, flow points normally).
    `fields` is the state's `_graph_chart_fields` tuple.  The explicit rate
    that `step_graph` is consistent with; no run calls it.
    """
    leaf = state.leaf
    emb, vg, g, h, pf, pv, w, u = fields
    basis = leaf.basis
    gf = np.mean(g[leaf.faces], axis=1)
    hf = np.mean(h[leaf.faces], axis=1)
    af = graph_flux(pf, gf, hf)
    # div A over barycentric dual cells: -(1/Omega_i) sum_f area_f A.grad chi_i
    div = np.zeros(leaf.n_vertices)
    for c in range(3):
        contrib = -0.5 * np.einsum("ij,ij->i", af, basis.corner_cross[c])
        div += np.bincount(leaf.faces[:, c], weights=contrib,
                           minlength=leaf.n_vertices)
    div /= basis.dual_area
    b = diagnostics.label_evolution_source(geom, emb, vg)
    return w * u * div / g + w * w * b


def graph_cfl_dt(leaf, cfl):
    """Graph step bound: cfl h_min of the fixed leaf."""
    return cfl * leaf.min_edge


def step_graph(geom, state, dt, c1, fields, step):
    """One linearly implicit step of the leaf-graph evolution from state.t.

    For n = 2 the flux is A_f = p_f / W_f, so the divergence in the rate
    W^2 (u div(A)/(G W) + B) is (K_{1/W} lam) / Omega, with K_a the leaf's
    cotan stiffness under face weights a (`surface.cotan_stiffness`) and
    Omega the barycentric dual areas.  With W_f, g, w, u and B frozen at the
    step's start (`fields`, the state's `_graph_chart_fields` tuple, which
    does not depend on dt and so serves every retry) the step solves

        (diag(Omega g/(w u)) - dt K_{1/W}) lam+
            = diag(Omega g/(w u)) (lam + dt w^2 B),

    symmetric positive definite while u > 0: the frozen-coefficient scheme
    for graph mean curvature flow (Deckelnick, Dziuk & Elliott 2005).  The
    fields carry the step's xi.  A system entry or result that is not finite
    raises MeshDegenerate naming `step` and t.
    """
    _graph_guards(fields, c1, state.t)
    emb, vg, g, h, pf, _, w, u = fields
    leaf = state.leaf
    gf = np.mean(g[leaf.faces], axis=1)
    hf = np.mean(h[leaf.faces], axis=1)
    wf = np.sqrt(1.0 + (hf / gf) * np.einsum("ij,ij->i", pf, pf))
    mass = leaf.basis.dual_area * g / (w * u)
    lhs = sp.diags_array(mass, format="csc") \
        - dt * surface.cotan_stiffness(leaf, face_weight=1.0 / wf)
    _require_finite(lhs.data, "graph ", step, state.t, "implicit system entry")
    b = diagnostics.label_evolution_source(geom, emb, vg)
    lam = splu(lhs).solve(mass * (state.lam + dt * w * w * b))
    _require_finite(lam, "graph ", step, state.t, "label")
    return GraphState(leaf=leaf, lam=lam, t=state.t + dt)


class _GraphStepper:
    """The leaf graph: the label lam evolves over the fixed leaf."""

    label = "graph "

    def __init__(self, geom, pair, state0, ctrl):
        self.geom, self.pair, self.ctrl = geom, pair, ctrl
        state = GraphState(leaf=state0.leaf,
                           lam=np.array(state0.lam, dtype=float), t=state0.t)
        pv = surface.vertex_gradients(
            state.leaf, surface.face_gradients(state.leaf, state.lam))
        self.c1 = max(1.0, 2.0 * float(np.linalg.norm(pv, axis=1).max()))
        self.mesh_initial = state0.embedded(geom)
        self.state, self.mesh = state, state.embedded(geom)
        self.fields = None  # the loop-top `_graph_chart_fields` tuple
        self._cand = None  # the last proposal: (state, embedded mesh)

    @property
    def t(self):
        return self.state.t

    def labels(self, vg):
        return self.state.lam

    def max_dt(self, vg, xi_now):
        # the loop-top chart fields are also the step's start
        self.fields = _graph_chart_fields(self.geom, self.pair, self.state,
                                          xi_now, self.mesh, vg)
        return graph_cfl_dt(self.state.leaf, self.ctrl.cfl)

    def propose(self, vg, dt, step):
        cand = step_graph(self.geom, self.state, dt, self.c1, self.fields,
                          step)
        emb = cand.embedded(self.geom)
        _require_finite(emb.vertices, self.label, step, self.t)
        self._cand = (cand, emb)
        return emb

    def accept(self, dt, step, area_prev):
        self.state, self.mesh = self._cand


def run_graph(geom, pair, state0, schedule, ctrl=None, frame_every=0,
              frame_cb=None):
    """Integrate the leaf-graph backend; see `_drive`."""
    ctrl = ctrl or StepControl()
    stepper = _GraphStepper(geom, pair, state0, ctrl)
    return _drive(stepper, schedule, ctrl, frame_every, frame_cb)


# --------------------------------------------------------------------------
# evolution-equation residuals on graph snapshots
# --------------------------------------------------------------------------


def _phi_hessian(geom, pts):
    """Covariant Hessian of phi: FD of its analytic gradient minus the
    Christoffel contraction."""
    return ambient.covariant_hessian(geom, lambda q: ckv.grad_phi(geom, q), pts)


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
    jm = surface.jet_fields(emb, geom, pair, xim)
    um, hm, a2 = jm.u, jm.h, jm.a2
    grad_u, lap_u = jm.grad_u, jm.lap_u
    grad_h, lap_h = jm.grad_h, jm.lap_h
    pts = emb.vertices
    areas_g = vg.area_g

    _, _, g_coef, h_coef, _, _, w, _ = _graph_chart_fields(
        geom, pair, state, xim, emb, vg)
    speed = N_SURF * vg.phi - um * hm
    rate = speed * w / np.sqrt(h_coef)
    delta = 1e-4 * np.max(np.abs(state.lam)) / max(np.max(np.abs(rate)),
                                                   1e-300)
    pair_at = []
    for sgn in (-1.0, 1.0):
        shifted = GraphState(leaf=state.leaf, lam=state.lam + sgn * delta
                             * rate, t=state.t + sgn * delta)
        js = surface.jet_fields(shifted.embedded(geom), geom, pair,
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

    # H equation
    hess_phi = _phi_hessian(geom, pts)
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
