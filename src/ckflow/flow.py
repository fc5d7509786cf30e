"""Time integration of the flow: one time-loop driver over two steppers.

The Lagrangian front (`run`) moves mesh vertices along the chart velocities
(n phi - u H) exp(-f) nu_flat; the leaf graph (`run_graph`) evolves the leaf
label lam over a fixed leaf, the seed mesh's radial projection
(`graph_state_from_mesh`), as a scalar PDE.  Both take the same arguments
and run in `_drive`, with steps retried at half the size while the curved
area would increase.  The driver owns the one clock, from t = 0, the step
index, the step bound, the run's `LaggedFactor`, the loop-top geometry and
star-shape check, the initial mesh, the trace row, frames, convergence and
error tagging: a package error that leaves the loop carries the partial
trace, and its message starts with the loop top's step and time ("graph
step 3 from t=0.0125: ..."), which no raise site names itself.  The flow is
stationary exactly on the leaves, so a run converges at its first loop top
with leaf distance <= `leaf_tol`.  A stepper (`_FrontStepper`,
`_GraphStepper`) holds one backend's state, proposes a finite candidate and
commits it.  The front projects each candidate back onto the initial curved
volume and, every SMOOTH_EVERY steps it commits, smooths tangentially and
projects the smoothed mesh back too, skipping a pass that would break area
monotonicity.

Each backend has one step, linearly implicit.  The front's
(`step_lagrangian`) takes the stiff part u exp(-2f) Lap x of the chart
velocity at the new time through one sparse solve with the cotan stiffness,
the rest at the old.  The leaf graph's (`step_graph`) does the same for its
divergence term, with the leaf's cotan stiffness weighting each face by 1/W.
Both step under one bound (`cfl_dt`), dt = cfl h_mean of the loop-top
mesh, the graph's embedded one, h_mean its mean edge, so in flat space a
seed scaled by s takes the same steps, each s times as long.  The stiff
term puts no stability limit on an implicit step, so one short edge does
not set dt.  Both steps build their mass and
right-hand side and hand them to `_implicit_solve`, the one place a system
diag(mass) - dt K is assembled, checked and solved.  It scales K's
values by -dt in place and adds the mass in the diagonal slots of the
fixed CSC pattern the mesh's topology owns (`surface.StiffnessPattern`).
It solves through the run's `LaggedFactor`: a sparse LU factor made every
REFACTOR_EVERY solves preconditions CG in between, and a CG that does not
converge refactors.  A run without retries makes one solve per step.
`_graph_rate` is the explicit rate the graph step is consistent with; the
front's, `oracles.chart_velocity`, lives with the checks no command runs.

Each snapshot's geometry is computed once per step: the loop-top
`mesh_geometry` bundle is the step's start (it depends on neither the step
size nor the retry), and a step needs nothing else.  Every snapshot
memoizes its own face kernels, area and volume (see `surface.TriSurface`),
so the loop top reads the accepted mesh's area and volume where the area
guard and the volume projection left them, and the graph's fixed leaf keeps
its gradient basis and dual areas for the whole run.  The graph stepper
computes and guards its frozen chart fields in each proposal, as the front
does its c, b and mass.

The trace columns that no step reads (volume, the two Minkowski residuals
and the umbilicity deficit, whose principal curvatures need a two-ring
quadric fit) are computed in line at each loop top, before the step
(`_trace_columns`).
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, splu

from . import ckv, diagnostics, surface
from .ckv import N_SURF
from .errors import (CkflowError, GradientBoundExceeded, MeshDegenerate,
                     StarshapeLost)

MAX_RETRIES = 8         # step halvings before the area guard gives up
SMOOTH_EVERY = 10       # front steps between two smoothing passes
VOLUME_TOL = 1e-12      # relative volume error the projection stops at
REFACTOR_EVERY = 10     # solves one factor of the implicit system serves
CG_RTOL = 1e-12         # relative residual a lagged-factor CG solve stops at
CG_MAXITER = 40         # CG iterations before a solve refactors afresh


@dataclass
class StepControl:
    """Knobs of the time integration loop."""

    cfl: float = 0.25
    t_end: float = 20.0
    leaf_tol: float = 1e-2
    max_steps: int = 500000
    area_slack: ClassVar[float] = 1e-8  # area growth the guard forgives

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if not self.t_end > 0.0:  # a NaN fails this comparison too
            raise ValueError("t_end must be positive")
        # an exact leaf reads ~1e-15: a tolerance of 0 could never be met
        if not self.leaf_tol > 0.0:
            raise ValueError("leaf_tol must be positive")


@dataclass
class SolveCounts:
    """What a run's implicit solves did: sparse LU factors made, CG
    iterations on a lagged factor, and CG solves that did not converge and
    fell back to a fresh factor (each also counted as a factor)."""

    factors: int = 0
    cg_iterations: int = 0
    fallbacks: int = 0


@dataclass
class RunResult:
    mesh: surface.TriSurface
    mesh_initial: surface.TriSurface
    trace: diagnostics.FlowTrace
    converged: bool
    reason: str
    t: float
    steps: int
    solves: SolveCounts


def cfl_dt(mesh, cfl):
    """Step bound cfl * h_mean, the mesh's mean edge; a collapsed edge
    raises MeshDegenerate."""
    h_min = mesh.min_edge
    if h_min < 1e-9:
        raise MeshDegenerate(f"minimum edge collapsed to {h_min:.3e}")
    return cfl * mesh.mean_edge


class LaggedFactor:
    """A run's last sparse LU factor of its implicit system, reused.

    The system diag(mass) - dt K changes slowly from solve to solve, so an
    earlier solve's factor is a near-exact preconditioner.  Once the held
    factor has served REFACTOR_EVERY solves, its own included, the next
    solve factors afresh (COLAMD `splu`); any other solves by CG from the
    given start, preconditioned by the held factor, down to the relative
    residual CG_RTOL.  A CG solve that has not converged in CG_MAXITER
    iterations falls back to a fresh factor.  One factor is alive at a
    time.  Each run holds its own, so nothing carries over between runs.
    """

    def __init__(self):
        self.lu = None
        self.served = 0  # solves the held factor has served
        self.counts = SolveCounts()

    def solve(self, lhs, rhs, x0):
        """x with lhs x = rhs; x0 (shaped like rhs) starts the CG."""
        if self.lu is not None and self.served < REFACTOR_EVERY:
            x = self._cg(lhs, rhs, x0)
            if x is not None:
                self.served += 1
                return x
            self.counts.fallbacks += 1
        self.lu = None  # drop the old factor before making the new one
        self.lu = splu(lhs)
        self.served = 1
        self.counts.factors += 1
        return self.lu.solve(rhs)

    def _cg(self, lhs, rhs, x0):
        """The lagged-factor CG solution, or None if CG did not converge.

        The columns of rhs solve as one block-diagonal system, so each
        iteration makes one sparse product and one factor solve.
        """
        shape = rhs.shape

        def by_column(apply):
            return LinearOperator(
                (rhs.size, rhs.size), dtype=float,
                matvec=lambda v: apply(v.reshape(shape)).reshape(-1))

        counts = self.counts

        def count(_):
            counts.cg_iterations += 1

        x, info = cg(by_column(lambda x: lhs @ x), rhs.reshape(-1),
                     x0=x0.reshape(-1), rtol=CG_RTOL, maxiter=CG_MAXITER,
                     M=by_column(self.lu.solve), callback=count)
        return x.reshape(shape) if info == 0 else None


def _implicit_solve(factor, mesh, mass, rhs, x0, dt, what, face_weight=None):
    """Solve (diag(mass) - dt K) x = rhs, K the mesh's cotan stiffness.

    `factor` is the run's `LaggedFactor`, and x0 (the state at the step's
    start, shaped like rhs) starts its CG.  `face_weight` is
    `surface.cotan_stiffness`'s.  A system entry or right-hand side that is
    not finite raises MeshDegenerate before any solve would run on it, and
    so does a result that is not finite (called a non-finite `what`).

    The system is assembled in place on K, in the topology's fixed CSC
    pattern (`surface.StiffnessPattern`): its values are scaled by -dt and
    the mass is added in the diagonal slots.  That is the sparse difference
    diag(mass) - dt K bit for bit, except that an entry that is exactly 0
    stays in the pattern where the difference would drop it.
    """
    lhs = surface.cotan_stiffness(mesh, face_weight=face_weight)
    lhs.data *= -dt
    lhs.data[mesh.topology.stiffness_pattern.diag_slot] += mass
    _require_finite(lhs.data, "implicit system entry")
    _require_finite(rhs, "right-hand side")
    x = factor.solve(lhs, rhs, x0)
    _require_finite(x, what)
    return x


def step_lagrangian(mesh, geom, dt, vg, factor):
    """One linearly implicit step (Dziuk 1991); returns the new mesh.

    The chart velocity is c Lap x + b nu_flat, with c = u exp(-2f) and
    b = n phi exp(-f) - 2 c nu_flat(f) frozen at the step's start (Lap x
    carries -H_flat nu_flat).  With M the mixed Voronoi areas and L the
    cotan stiffness (L x = M Lap x) the step solves

        (diag(M/c) - dt L) x+ = diag(M/c) (x + dt b nu_flat),

    a symmetric positive definite system while u > 0.  `vg` is the mesh's
    geometry bundle at the step's start; it does not depend on dt, so the
    loop top's bundle serves every retry.  `factor` is the run's
    `LaggedFactor`, and the CG starts from the vertices.  A system entry,
    right-hand side or result that is not finite raises MeshDegenerate
    (`_implicit_solve`), the result before the chart-domain check would
    read it as a domain exit.
    """
    c = vg.u * np.exp(-2.0 * vg.f)
    b = N_SURF * vg.phi * np.exp(-vg.f) - 2.0 * c * vg.nu_f
    mass = vg.area_flat / c
    rhs = mass[:, None] * (mesh.vertices + dt * b[:, None] * vg.nu_flat)
    new = mesh.with_vertices(
        _implicit_solve(factor, mesh, mass, rhs, mesh.vertices, dt, "vertex"))
    geom.require_in_domain(new.vertices, what="vertex")
    return new


def _rescale_to_volume(mesh, geom, target):
    """Scale about the origin until the curved volume matches `target`.

    Returns the scaled mesh, which keeps its curved volume in its memo.
    """
    def scaled(s):
        out = mesh.with_vertices(s * mesh.vertices)
        return out, out.volume(geom) / target - 1.0

    s0 = 1.0
    out, e0 = scaled(s0)
    if abs(e0) < VOLUME_TOL:
        return out
    # cubic scaling holds only at leading order in curved geometry, where a
    # fixed-exponent iteration can stall; the secant update does not care.
    s1 = (1.0 + e0) ** (-1.0 / 3.0)
    for _ in range(20):
        out, e1 = scaled(s1)
        if abs(e1) < VOLUME_TOL or e1 == e0:
            return out
        s0, s1, e0 = s1, s1 - e1 * (s1 - s0) / (e1 - e0), e1
    return scaled(s1)[0]


def _require_finite(values, what):
    if not np.all(np.isfinite(values)):
        raise MeshDegenerate(f"non-finite {what}")


def _trace_columns(mesh, geom, vg):
    """The trace columns that no step reads, at a loop-top snapshot."""
    return dict(volume=mesh.volume(geom),
                mink1=diagnostics.minkowski1_residual(vg),
                mink2=diagnostics.minkowski2_residual(mesh, geom, vg),
                umbilicity=diagnostics.umbilicity_deficit(mesh, vg))


def _drive(stepper, schedule, ctrl, frame_cb):
    """The time loop of both backends from t = 0; returns a RunResult.

    The stepper has `geom`, `pair`, `label` (its name in messages), `mesh`
    (embedded, at the loop top), `labels(vg)` -> the leaf labels,
    `propose(vg, xi_now, dt, factor)` -> the candidate's mesh and
    `accept()`, which commits the last proposal.  The loop owns the rest:
    the step index, the clock, the run's one `LaggedFactor` (handed to
    every proposal; its counts are the result's `solves`) and the step
    bound, dt = cfl h_mean of the loop-top mesh (`cfl_dt`) cut to reach
    t_end, the same for both backends.
    Convergence: the first loop top, step 0 included, whose leaf spread
    (max-min)/mean of the label is <= leaf_tol; t_end or max_steps return
    converged=False.  The result's `mesh_initial` is the step-0 loop-top
    mesh.  frame_cb(step, t, mesh), when given, gets every loop-top
    snapshot, the last one included, once its trace row is added.  The
    row and the frame come before the convergence test and the step, so a
    step error keeps its loop top's row and frame, and an error from the
    trace columns leaves its loop top without either and its step unrun.  A
    package error raised in the loop carries the partial trace as
    `err.trace`, and its message starts with "<label>step N from t=T: ", N
    and T the loop top's step and time: the one place a failed run's step
    and time are named.
    """
    geom, pair = stepper.geom, stepper.pair
    trace = diagnostics.FlowTrace()
    factor = LaggedFactor()
    step, t, dt_arrived, mesh_initial = 0, 0.0, 0.0, stepper.mesh

    try:
        while True:
            mesh = stepper.mesh
            xi_now = schedule.xi_at(t)
            vg = surface.mesh_geometry(mesh, geom, pair, xi_now)
            # a NaN fails this comparison too
            if not np.min(vg.u) > 0.0:
                raise StarshapeLost(
                    f"support function reached {float(np.min(vg.u)):.3e}")
            area = mesh.area(geom)
            lam = stepper.labels(vg)
            ld = diagnostics.leaf_distance(lam)
            trace.add(
                step=step, time=t, xi=xi_now, area=area,
                lambda_min=float(lam.min()), lambda_max=float(lam.max()),
                u_min=float(vg.u.min()), uperp_min=float(vg.u_perp.min()),
                H_min=float(vg.H.min()), H_max=float(vg.H.max()),
                leaf_distance=ld, dt=dt_arrived,
                **_trace_columns(mesh, geom, vg),
            )
            if frame_cb is not None:
                frame_cb(step, t, mesh)
            if ld <= ctrl.leaf_tol:
                reason = "converged"
                break
            if t >= ctrl.t_end or step >= ctrl.max_steps:
                reason = "t_end" if t >= ctrl.t_end else "max_steps"
                break

            dt = min(cfl_dt(mesh, ctrl.cfl), ctrl.t_end - t)
            for _ in range(MAX_RETRIES):
                cand = stepper.propose(vg, xi_now, dt, factor)
                if cand.area(geom) <= area * (1.0 + ctrl.area_slack):
                    break
                dt *= 0.5
            else:
                raise MeshDegenerate(
                    f"area kept increasing even at dt={dt:.3e}")
            stepper.accept()
            step += 1
            t += dt
            dt_arrived = dt
    except CkflowError as err:
        err.trace = trace
        err.args = (f"{stepper.label}step {step} from t={t:.6g}: {err}",)
        raise

    return RunResult(
        mesh=stepper.mesh, mesh_initial=mesh_initial, trace=trace,
        converged=(reason == "converged"), reason=reason, t=t, steps=step,
        solves=factor.counts,
    )


class _FrontStepper:
    """The Lagrangian front: the mesh vertices move."""

    label = ""

    def __init__(self, geom, pair, mesh0):
        self.geom, self.pair = geom, pair
        self.mesh = mesh0
        self.vol0 = mesh0.volume(geom)
        self.accepted = 0  # steps committed, for the smoothing cadence
        self._cand = None  # the last proposal

    def labels(self, vg):
        return vg.lam

    def propose(self, vg, xi_now, dt, factor):
        cand = step_lagrangian(self.mesh, self.geom, dt, vg, factor)
        # the continuum flow conserves enclosed volume (first Minkowski
        # identity), but the discrete identity only holds to quadrature
        # order; project back before judging the area trend, else the
        # drift masquerades as area growth.
        self._cand = _rescale_to_volume(cand, self.geom, self.vol0)
        return self._cand

    def accept(self):
        """Commit the candidate; every SMOOTH_EVERY steps, smooth it
        tangentially, project it back onto the seed's curved volume (the
        pass's one volume correction) and keep the pass unless the area
        grows past the loop top's by more than the guard's slack; then
        guard the mesh quality."""
        area_prev = self.mesh.area(self.geom)  # the loop top's, memoized
        self.mesh = self._cand
        self.accepted += 1
        if self.accepted % SMOOTH_EVERY == 0:
            sm = surface.tangential_smooth(self.mesh)
            sm = _rescale_to_volume(sm, self.geom, self.vol0)
            slack = StepControl.area_slack
            if sm.area(self.geom) <= area_prev * (1.0 + slack):
                self.mesh = sm
            q = surface.quality(self.mesh)
            if q.degenerate():
                raise MeshDegenerate(
                    "mesh quality collapsed: min angle "
                    f"{q.min_angle_deg:.2f} deg, edge ratio "
                    f"{q.max_edge_ratio:.1f}")


def run(geom, pair, mesh0, schedule, ctrl=None, frame_cb=None):
    """Integrate the Lagrangian front from the seed; see `_drive`."""
    return _drive(_FrontStepper(geom, pair, mesh0), schedule,
                  ctrl or StepControl(), frame_cb)


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


@dataclass
class GraphState:
    """Leaf labels over a fixed unit-direction mesh (radial graph chart)."""

    leaf: surface.TriSurface
    lam: np.ndarray

    def embedded(self, geom):
        r = geom.r_of_lambda(np.asarray(self.lam, dtype=float))
        return self.leaf.with_vertices(r[:, None] * self.leaf.vertices)


def graph_state_from_mesh(mesh, geom):
    """Project a radially graphical mesh onto the leaf chart."""
    rad = np.linalg.norm(mesh.vertices, axis=1)
    if np.any(rad <= 0.0):
        raise MeshDegenerate("vertex at the chart origin cannot be a graph")
    leaf = mesh.with_vertices(mesh.vertices / rad[:, None])
    return GraphState(leaf=leaf, lam=ckv.lam(geom, mesh.vertices))


def _graph_slope_fields(geom, state):
    """The leaf coefficients and slope of a graph state: (g, h, pf, pv, w)
    with pf the P1 leaf gradient of lam per face, pv its vertex average and
    w the graph area factor."""
    leaf = state.leaf
    g, h = leaf_coefficients(geom, leaf.vertices, state.lam)
    pf = surface.face_gradients(leaf, state.lam)
    pv = surface.vertex_gradients(leaf, pf)
    w = np.sqrt(1.0 + (h / g) * np.einsum("ij,ij->i", pv, pv))
    return g, h, pf, pv, w


def _graph_chart_fields(geom, pair, state, xi_now, emb, vg):
    """Per-vertex chart quantities of a graph state.

    Returns (g, h, pf, pv, w, b, u): the `_graph_slope_fields`, the label
    evolution source B and the scheduled support function u computed from
    the chart identities u_perp = |X_perp|_g / W,
    u_top = -sqrt(H_coef) X_top(lam) / W.  `emb` and `vg` are the state's
    embedded mesh and its geometry bundle at xi_now.
    """
    leaf = state.leaf
    g, h, pf, pv, w = _graph_slope_fields(geom, state)
    u_perp = ckv.dilation_norm_g(geom, emb.vertices) / w
    u_top = -np.sqrt(h) * np.einsum("ij,ij->i", pair.rotation(leaf.vertices),
                                    pv) / w
    u = u_perp + xi_now * u_top
    b = diagnostics.label_evolution_source(geom, emb, vg)
    return g, h, pf, pv, w, b, u


def _graph_guards(fields, c1):
    """Raise unless a graph state's chart fields keep the gradient bound c1
    and a positive support function; the graph stepper calls it on the
    fields each proposal freezes."""
    _, _, _, pv, _, _, u = fields
    grad_mag = np.linalg.norm(pv, axis=1)
    if np.max(grad_mag) > c1:
        raise GradientBoundExceeded(
            f"leaf gradient {np.max(grad_mag):.3f} exceeded the bound {c1:.3f}"
        )
    if not np.min(u) > 0.0:  # a NaN fails this comparison too
        raise StarshapeLost(
            f"chart support function reached {float(np.min(u)):.3e}")


def _graph_rate(state, fields):
    """Fixed-chart rate d lam/dt = W^2 (u div(A)/(G W) + B).

    The W^2 factor converts the material evolution law to the vertical
    chart derivative (graph points move vertically, flow points normally).
    `fields` is the state's `_graph_chart_fields` tuple.  The explicit rate
    that `step_graph` is consistent with; no run calls it.
    """
    leaf = state.leaf
    g, h, pf, _, w, b, u = fields
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
    return w * u * div / g + w * w * b


# No run calls this: the graph steps under `cfl_dt` of its embedded mesh.
# It stays only because the benchmark's tracer binds it by name.
def graph_cfl_dt(leaf, cfl):
    """cfl h_min of the fixed unit leaf."""
    return cfl * leaf.min_edge


def step_graph(state, dt, fields, factor):
    """One linearly implicit step of the leaf graph; returns the new state.

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
    fields carry the step's xi.  `factor` is the run's `LaggedFactor`, and
    the CG starts from lam.  A system entry, right-hand side or result that
    is not finite raises MeshDegenerate (`_implicit_solve`).
    """
    g, h, pf, _, w, b, u = fields
    leaf = state.leaf
    gf = np.mean(g[leaf.faces], axis=1)
    hf = np.mean(h[leaf.faces], axis=1)
    wf = np.sqrt(1.0 + (hf / gf) * np.einsum("ij,ij->i", pf, pf))
    mass = leaf.basis.dual_area * g / (w * u)
    lam = _implicit_solve(factor, leaf, mass,
                          mass * (state.lam + dt * w * w * b), state.lam, dt,
                          "label", face_weight=1.0 / wf)
    return GraphState(leaf=leaf, lam=lam)


class _GraphStepper:
    """The leaf graph: the label lam evolves over the fixed leaf, both
    projected radially from the seed mesh."""

    label = "graph "

    def __init__(self, geom, pair, mesh0):
        self.geom, self.pair = geom, pair
        state = graph_state_from_mesh(mesh0, geom)
        pv = _graph_slope_fields(geom, state)[3]
        self.c1 = max(1.0, 2.0 * float(np.linalg.norm(pv, axis=1).max()))
        self.state, self.mesh = state, state.embedded(geom)
        self._cand = None  # the last proposal: (state, embedded mesh)

    def labels(self, vg):
        return self.state.lam

    def propose(self, vg, xi_now, dt, factor):
        # the chart fields at the step's start, frozen over the step
        fields = _graph_chart_fields(self.geom, self.pair, self.state, xi_now,
                                     self.mesh, vg)
        _graph_guards(fields, self.c1)
        cand = step_graph(self.state, dt, fields, factor)
        emb = cand.embedded(self.geom)
        _require_finite(emb.vertices, "vertex")
        self._cand = (cand, emb)
        return emb

    def accept(self):
        self.state, self.mesh = self._cand


def run_graph(geom, pair, mesh0, schedule, ctrl=None, frame_cb=None):
    """Integrate the leaf graph from the seed's radial projection onto the
    leaf chart; see `_drive`."""
    return _drive(_GraphStepper(geom, pair, mesh0), schedule,
                  ctrl or StepControl(), frame_cb)
