"""Mesh geometry: discrete curvature, quadrature, seeds, smoothing, jets."""

import numpy as np
import pytest

from ckflow import ckv, surface
from ckflow.errors import MeshDegenerate, SeedInfeasible


def ellipsoid_reference(p, semiaxes):
    """Exact outward normal, support, H (sum), and |A|^2 on an ellipsoid."""
    a2 = np.asarray(semiaxes, dtype=float) ** 2
    g = 2.0 * p / a2                       # grad of x^2/a^2 + ... - 1
    m = np.linalg.norm(g, axis=1)
    nu = g / m[:, None]
    u = np.einsum("ij,ij->i", p, nu)
    hess = 2.0 / a2
    ghg = np.einsum("ij,j,ij->i", g, hess, g)
    lap = np.sum(hess)
    h = (lap - ghg / m**2) / m
    # full shape operator P (Hess/|grad|) P has eigenvalues k1, k2, 0
    eye = np.eye(3)
    proj = eye[None] - nu[:, :, None] * nu[:, None, :]
    s = np.einsum("nij,j,njk->nik", proj, hess, proj) / m[:, None, None]
    a2_ref = np.einsum("nij,nji->n", s, s)
    return nu, u, h, a2_ref


# --------------------------------------------------------------------------
# topology and seeds
# --------------------------------------------------------------------------


def test_icosphere_counts():
    m0 = surface.icosphere(0)
    assert m0.n_vertices == 12 and m0.n_faces == 20
    assert m0.topology.n_edges == 30
    m3 = surface.icosphere(3)
    assert m3.n_vertices == 10 * 4**3 + 2
    for m in (m0, m3):
        assert m.n_vertices - m.topology.n_edges + m.n_faces == 2
        assert surface.enclosed_volume_flat(m) > 0.0


def test_icosphere_rejects_negative_level():
    with pytest.raises(ValueError):
        surface.icosphere(-1)


def test_topology_rejects_open_mesh():
    # single triangle: not closed
    with pytest.raises(MeshDegenerate):
        surface.Topology(np.array([[0, 1, 2]]))


def test_twisted_seed_identity_at_zero_twist(euclid, pair_e3):
    base = surface.ellipsoid_seed((1.6, 0.7, 0.7), 2)
    mesh, _, _ = surface.twisted_seed(euclid, pair_e3, (1.6, 0.7, 0.7), 0.0, 2)
    assert np.allclose(mesh.vertices, base.vertices)


def test_twisted_seed_regression_signs(euclid, pair_e3):
    mesh, min_u, min_uperp = surface.twisted_seed(
        euclid, pair_e3, (1.6, 0.7, 0.7), 1.5, 3
    )
    assert min_uperp < 0.0 < min_u
    # vertexwise rotation preserves every radius exactly
    base = surface.ellipsoid_seed((1.6, 0.7, 0.7), 3)
    r_mesh = np.linalg.norm(mesh.vertices, axis=1)
    r_base = np.linalg.norm(base.vertices, axis=1)
    assert np.max(np.abs(r_mesh - r_base)) < 1e-12


def test_twisted_seed_infeasible_without_rotation(euclid):
    still = ckv.KillingPair(omega=0.0, axis=(0.0, 0.0, 1.0))
    with pytest.raises(SeedInfeasible):
        surface.twisted_seed(euclid, still, (1.6, 0.7, 0.7), 1.5, 3)


# --------------------------------------------------------------------------
# vertex geometry
# --------------------------------------------------------------------------


def test_unit_sphere_mean_curvature(euclid, pair):
    vg = surface.mesh_geometry(surface.sphere_seed(1.0, 4), euclid, pair)
    assert np.max(np.abs(vg.H - 2.0)) / 2.0 <= 0.01


def test_radius_two_sphere_is_stationary(euclid, pair):
    vg = surface.mesh_geometry(surface.sphere_seed(2.0, 4), euclid, pair)
    speed = 2.0 * vg.phi - vg.H * vg.u
    assert np.max(np.abs(speed)) <= 0.01 * np.max(vg.H)


def test_paper_sphere_mean_curvature(paper, pair):
    # leaves are umbilical with H = n lam^{-1/2}; at r=1, lam = 1/9
    vg = surface.mesh_geometry(surface.sphere_seed(1.0, 4), paper, pair)
    assert np.max(np.abs(vg.H - 6.0)) / 6.0 <= 0.02


def test_leaf_formula_all_geometries(euclid, paper, poincare, pair):
    for geom, r in ((euclid, 1.3), (paper, 0.8), (poincare, 0.5)):
        mesh = surface.sphere_seed(r, 4)
        vg = surface.mesh_geometry(mesh, geom, pair)
        target = 2.0 / np.sqrt(ckv.lam(geom, mesh.vertices))
        assert np.max(np.abs(vg.H - target) / vg.H) <= 0.02
        assert np.min(vg.u) > 0.0
        assert np.max(np.abs(vg.k1 - vg.k2)) <= 0.05 * np.max(vg.H)


def test_trace_consistency_two_estimators(euclid, paper, pair):
    shapes = [
        (euclid, surface.ellipsoid_seed((2.0, 1.0, 1.0), 4)),
        (euclid, surface.ellipsoid_seed((1.5, 1.0, 1.0), 4)),
        (paper, surface.sphere_seed(1.0, 4)),
    ]
    for geom, mesh in shapes:
        vg = surface.mesh_geometry(mesh, geom, pair)
        assert np.all(np.abs(vg.k1 + vg.k2 - vg.H) <= 0.05 * (1.0 + np.abs(vg.H)))


def test_mesh_geometry_matches_standalone_kernels(paper, pair):
    # jittered, so some faces are obtuse and the mixed-area branch runs
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 3)
    rng = np.random.default_rng(1)
    mesh = mesh.with_vertices(
        mesh.vertices * (1.0 + 0.02 * rng.standard_normal((mesh.n_vertices, 1)))
    )
    vg = surface.mesh_geometry(mesh, paper, pair)
    nu = surface.vertex_normals(mesh)
    areas = surface.mixed_voronoi_areas(mesh.vertices, mesh.faces)
    lap_x = surface.cotan_laplacian_apply(mesh, mesh.vertices)
    assert np.array_equal(vg.nu_flat, nu)
    assert np.array_equal(vg.area_flat, areas)
    assert np.array_equal(vg.H_flat, -np.einsum("ij,ij->i", lap_x, nu))


def test_orientation_flip_negates_support(euclid, pair):
    mesh = surface.ellipsoid_seed((1.5, 1.0, 0.8), 2)
    flipped = surface.TriSurface(mesh.vertices, mesh.faces[:, ::-1].copy())
    vg = surface.mesh_geometry(mesh, euclid, pair, xi_now=1.0)
    fg = surface.mesh_geometry(flipped, euclid, pair, xi_now=1.0)
    assert np.allclose(vg.u_perp, -fg.u_perp, atol=1e-12)
    assert np.allclose(vg.u_top, -fg.u_top, atol=1e-12)


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------


def test_area_volume_unit_sphere(euclid):
    mesh = surface.sphere_seed(1.0, 4)
    assert abs(surface.surface_area(mesh, euclid) / (4.0 * np.pi) - 1.0) < 5e-3
    assert abs(surface.enclosed_volume(mesh, euclid) / (4.0 * np.pi / 3.0) - 1.0) < 5e-3


def test_ellipsoid_volume(euclid):
    mesh = surface.ellipsoid_seed((2.0, 1.0, 1.0), 4)
    assert abs(surface.enclosed_volume(mesh, euclid) / (8.0 * np.pi / 3.0) - 1.0) < 5e-3


def test_quadrature_refinement_second_order(euclid):
    errs = []
    for level in (3, 4):
        mesh = surface.sphere_seed(1.0, level)
        errs.append(abs(surface.surface_area(mesh, euclid) - 4.0 * np.pi))
    assert errs[1] <= 0.35 * errs[0]


def test_curved_area_spot_value(paper):
    # r=1 coordinate sphere: area = int e^{2f} dA_flat with f = -ln q
    mesh = surface.sphere_seed(1.0, 4)
    from ckflow.diagnostics import leaf_area

    assert abs(surface.surface_area(mesh, paper) / leaf_area(paper, 1.0) - 1.0) < 5e-3


# --------------------------------------------------------------------------
# smoothing and quality
# --------------------------------------------------------------------------


def test_smooth_icosphere_preserves_shape(euclid):
    # smoothing may slide vertices within the sphere (the icosphere's
    # pentagon neighborhoods are not centroidal), but the quadric
    # re-projection keeps the shape: radii stay put to fit accuracy
    mesh = surface.sphere_seed(1.0, 3)
    sm = surface.tangential_smooth(mesh, 0.5)
    radial = np.abs(np.linalg.norm(sm.vertices, axis=1) - 1.0)
    assert np.max(radial) <= 1e-3 * mesh.min_edge()
    slide = np.linalg.norm(sm.vertices - mesh.vertices, axis=1)
    assert np.max(slide) <= 0.1 * mesh.min_edge()


def test_smooth_improves_min_angle(euclid):
    rng = np.random.default_rng(8)
    mesh = surface.sphere_seed(1.0, 3)
    noisy = mesh.with_vertices(
        mesh.vertices + 0.01 * rng.normal(size=mesh.vertices.shape)
    )
    q0 = surface.quality(noisy)
    q1 = surface.quality(surface.tangential_smooth(noisy, 0.5))
    assert q1.min_angle_deg >= q0.min_angle_deg
    v0 = surface.enclosed_volume_flat(noisy)
    v1 = surface.enclosed_volume_flat(surface.tangential_smooth(noisy, 0.5))
    assert abs(v1 / v0 - 1.0) <= 1e-4


def test_quality_flags_degenerate():
    # vertex 3 sits on the segment 0-1, so face (0, 1, 3) has zero area
    verts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    with pytest.raises(MeshDegenerate):
        surface.mesh_geometry(
            surface.TriSurface(verts, faces), surface_geom(), ckv.KillingPair()
        )


def surface_geom():
    from ckflow import ambient

    return ambient.Euclidean()


# --------------------------------------------------------------------------
# jet fields (single-patch curvature derivatives)
# --------------------------------------------------------------------------


def test_jet_fields_sphere_exact_values(euclid, pair):
    mesh = surface.sphere_seed(1.0, 4)
    jf = surface.jet_fields(mesh, euclid, pair, 1.0)
    assert np.max(np.abs(jf.u - 1.0)) < 2e-4
    assert np.max(np.abs(jf.h - 2.0)) < 2e-3
    assert np.max(np.abs(jf.a2 - 2.0)) < 4e-3
    # constant fields: surface gradients and Laplacians vanish
    assert np.max(np.linalg.norm(jf.grad_h, axis=1)) < 2e-2
    assert np.max(np.abs(jf.lap_h)) < 5e-2


def test_jet_fields_ellipsoid_converges(euclid, pair):
    errs_h, errs_a2 = [], []
    for level in (3, 4):
        mesh = surface.ellipsoid_seed((1.6, 1.0, 1.0), level)
        jf = surface.jet_fields(mesh, euclid, pair, 1.0)
        _, u_ref, h_ref, a2_ref = ellipsoid_reference(mesh.vertices, (1.6, 1.0, 1.0))
        assert np.max(np.abs(jf.u - u_ref)) < 2e-3
        errs_h.append(np.max(np.abs(jf.h - h_ref)) / np.max(h_ref))
        errs_a2.append(np.max(np.abs(jf.a2 - a2_ref)) / np.max(a2_ref))
    assert errs_h[1] <= 0.5 * errs_h[0] and errs_h[1] < 5e-3
    assert errs_a2[1] <= 0.5 * errs_a2[0] and errs_a2[1] < 2e-2


def test_jet_fields_match_vertex_geometry(paper, pair):
    mesh = surface.ellipsoid_seed((1.05, 1.0, 0.95), 3)
    vg = surface.mesh_geometry(mesh, paper, pair)
    jf = surface.jet_fields(mesh, paper, pair, 1.0)
    assert np.max(np.abs(jf.u - vg.u)) <= 0.02 * np.max(np.abs(vg.u))
    assert np.max(np.abs(jf.h - vg.H)) <= 0.05 * np.max(np.abs(vg.H))
