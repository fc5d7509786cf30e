"""Property tests of the flat mesh geometry under scaling and rotation.

Each example is a level 1-2 euclidean ellipsoid with drawn semiaxes, so the
properties cost milliseconds; the runs are derandomized and keep no
example database, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckflow import ambient, ckv, surface

EUCLID = ambient.Euclidean()
PAIR = ckv.KillingPair()

CHEAP = settings(max_examples=12, deadline=None, derandomize=True,
                 database=None)

semiaxes = st.tuples(*[st.floats(0.5, 2.0)] * 3)
levels = st.sampled_from([1, 2])
scales = st.floats(0.1, 10.0)
# rotations from four uniform draws normalised to a unit quaternion, kept
# away from the zero vector
quaternions = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)


def rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def h_flat(mesh):
    return surface.mesh_geometry(mesh, EUCLID, PAIR,
                                 with_curvatures=False).H_flat


@CHEAP
@given(semiaxes, levels, scales)
def test_area_volume_and_mean_curvature_scale(axes, level, s):
    mesh = surface.ellipsoid_seed(axes, level)
    big = mesh.with_vertices(s * mesh.vertices)
    area, vol, h = (surface.surface_area(mesh, EUCLID),
                    surface.enclosed_volume(mesh, EUCLID), h_flat(mesh))
    assert abs(surface.surface_area(big, EUCLID) / (s * s * area) - 1.0) <= 1e-12
    assert abs(surface.enclosed_volume(big, EUCLID) / (s**3 * vol) - 1.0) <= 1e-12
    assert np.max(np.abs(s * h_flat(big) / h - 1.0)) <= 1e-12


@CHEAP
@given(semiaxes, levels, quaternions)
def test_normals_and_mean_curvature_are_rotation_covariant(axes, level, q):
    mesh = surface.ellipsoid_seed(axes, level)
    rot = rotation(q)
    turned = mesh.with_vertices(mesh.vertices @ rot.T)
    nu = surface.vertex_normals(mesh)
    assert np.max(np.abs(surface.vertex_normals(turned) - nu @ rot.T)) <= 1e-12
    h = h_flat(mesh)
    assert np.max(np.abs(h_flat(turned) / h - 1.0)) <= 1e-12


@CHEAP
@given(semiaxes, levels)
def test_tangential_smooth_keeps_flat_volume(axes, level):
    mesh = surface.ellipsoid_seed(axes, level)
    smoothed = surface.tangential_smooth(mesh)
    vol = surface.enclosed_volume_flat(mesh)
    assert abs(surface.enclosed_volume_flat(smoothed) / vol - 1.0) <= 1e-12
