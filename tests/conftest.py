"""Shared fixtures; the session-scoped ones hold the expensive flow runs."""

import numpy as np
import pytest

from ckflow import ambient, ckv, flow, surface


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


@pytest.fixture(scope="session")
def paper_run(paper, pair):
    """Near-spherical seed at r ~ 1 in the curved example geometry."""
    seed = surface.ellipsoid_seed((1.08, 1.0, 0.93), level=4)
    return flow.run(paper, pair, seed, ckv.Schedule(t0=1.0),
                    flow.StepControl(t_end=8.0))


# twist rate found once by sweeping upward until min u_perp < 0 < min u;
# regression-locked together with the schedule horizon it implies
TWIST_TAU = 1.5
TWIST_SEMIAXES = (1.6, 0.7, 0.7)


@pytest.fixture(scope="session")
def twisted_run(euclid, pair_e3):
    """Scheduled run of the twisted seed; returns run plus seed data."""
    mesh, min_u, min_uperp = surface.twisted_seed(
        euclid, pair_e3, TWIST_SEMIAXES, TWIST_TAU, 4
    )
    lam_v = ckv.lam(euclid, mesh.vertices)
    t0 = ckv.estimate_T0(euclid, pair_e3, 0.75 * lam_v.min(), 1.3 * lam_v.max())
    res = flow.run(euclid, pair_e3, mesh, ckv.Schedule(t0=t0),
                   flow.StepControl(t_end=4.0 * t0))
    return {"mesh": mesh, "min_u": min_u, "min_uperp": min_uperp,
            "t0": t0, "res": res}


@pytest.fixture(scope="session")
def cross_backend(euclid, pair):
    """Both backends integrated to the same time from the same graphical seed."""
    seed = surface.ellipsoid_seed((1.3, 1.0, 1.0), level=4)
    ctrl = flow.StepControl(t_end=0.25)
    lag = flow.run(euclid, pair, seed, ckv.Schedule(t0=1.0), ctrl)
    state0 = flow.graph_state_from_mesh(seed, euclid)
    gra = flow.run_graph(euclid, pair, state0, ckv.Schedule(t0=1.0), ctrl)
    return {"seed": seed, "lag": lag, "gra": gra, "state0": state0}
