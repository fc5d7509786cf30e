"""Shared fixtures; the session-scoped ones hold the expensive flow runs."""

import numpy as np
import pytest

from ckflow import ambient, ckv, diagnostics, flow, surface


def seed_label_band(trace):
    """The leaf-label band of a run's seed: trace row 0's label range,
    padded on each side by 1e-3 of its width."""
    lo = trace.column("lambda_min")[0]
    hi = trace.column("lambda_max")[0]
    pad = 1e-3 * max(float(hi - lo), 1e-300)
    return float(lo) - pad, float(hi) + pad


def assert_traces_close(a, b, rtol):
    """Assert two flow traces have the same rows, each column agreeing to
    `rtol` of the column's largest magnitude.

    The residual columns (`mink1`, `mink2`, `umbilicity`) are small
    differences of O(1) sums, so round-off alone moves them by more than
    `rtol` of their own size, and bytes of trace.csv can differ with it;
    measured against the column's scale, round-off stays far inside `rtol`
    and a change of the flow does not.
    """
    assert len(a) == len(b)
    for name in diagnostics.TRACE_COLUMNS:
        x, y = a.column(name), b.column(name)
        scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
        np.testing.assert_allclose(x, y, rtol=0.0, atol=rtol * scale,
                                   err_msg=name)


def run_backend(backend, geom, pair, seed, ctrl, **kwargs):
    """Run `backend` ("lagrangian" or "leaf_graph") from the mesh `seed`
    under the schedule t0 = 1."""
    run = flow.run if backend == "lagrangian" else flow.run_graph
    return run(geom, pair, seed, ckv.Schedule(t0=1.0), ctrl, **kwargs)


def chart_fields(geom, pair, state, xi_now):
    """A graph state's `_graph_chart_fields` tuple from its own bundle."""
    emb = state.embedded(geom)
    vg = surface.mesh_geometry(emb, geom, pair, xi_now)
    return flow._graph_chart_fields(geom, pair, state, xi_now, emb, vg)


@pytest.fixture(scope="session")
def euclid():
    return ambient.Euclidean()


@pytest.fixture(scope="session")
def paper():
    return ambient.PaperExample()


@pytest.fixture(scope="session")
def poincare():
    return ambient.PoincareBall()


@pytest.fixture(scope="session")
def pair():
    return ckv.KillingPair()


@pytest.fixture(scope="session")
def pair_e3():
    return ckv.KillingPair(omega=1.0, axis=(0.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def euclid_l2_run(euclid, pair):
    """Cheap convergent run for trace-shape tests."""
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), level=2)
    return flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                    flow.StepControl(t_end=8.0))


@pytest.fixture(scope="session")
def euclid_headline(euclid, pair):
    """Ellipsoid (2,1,1) level-4 run to convergence."""
    seed = surface.ellipsoid_seed((2.0, 1.0, 1.0), level=4)
    return flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0),
                    flow.StepControl(t_end=8.0))


def paper_run_at(paper, pair, level, cfl=flow.StepControl.cfl):
    """Near-spherical seed at r ~ 1 in the curved example geometry."""
    seed = surface.ellipsoid_seed((1.08, 1.0, 0.93), level=level)
    return flow.run(paper, pair, seed, ckv.Schedule(t0=1.0),
                    flow.StepControl(cfl=cfl, t_end=8.0))


@pytest.fixture(scope="session")
def paper_run(paper, pair):
    return paper_run_at(paper, pair, 4)


# twist rate found once by sweeping upward until min u_perp < 0 < min u;
# regression-locked together with the schedule horizon it implies
TWIST_TAU = 1.5
TWIST_SEMIAXES = (1.6, 0.7, 0.7)


def twisted_run_at(euclid, pair_e3, level, cfl=flow.StepControl.cfl):
    """Scheduled run of the twisted seed at `level` under `cfl`; returns run
    plus seed data."""
    mesh, min_u, min_uperp = surface.checked_seed(
        surface.ellipsoid_seed(TWIST_SEMIAXES, level), euclid, pair_e3,
        TWIST_TAU
    )
    lam_v = ckv.lam(euclid, mesh.vertices)
    t0 = ckv.estimate_T0(euclid, pair_e3, 0.75 * lam_v.min(), 1.3 * lam_v.max())
    res = flow.run(euclid, pair_e3, mesh, ckv.Schedule(t0=t0),
                   flow.StepControl(cfl=cfl, t_end=4.0 * t0))
    return {"mesh": mesh, "min_u": min_u, "min_uperp": min_uperp,
            "t0": t0, "res": res}


@pytest.fixture(scope="session")
def twisted_run(euclid, pair_e3):
    return twisted_run_at(euclid, pair_e3, 4)


def cross_backend_at(euclid, pair, level):
    """Both backends integrated to the same time from the same graphical
    seed at `level`."""
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), level=level)
    ctrl = flow.StepControl(t_end=0.25)
    lag = run_backend("lagrangian", euclid, pair, seed, ctrl)
    gra = run_backend("leaf_graph", euclid, pair, seed, ctrl)
    return {"seed": seed, "lag": lag, "gra": gra}


@pytest.fixture(scope="session")
def cross_backend(euclid, pair):
    return cross_backend_at(euclid, pair, 4)
