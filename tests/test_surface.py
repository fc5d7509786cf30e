"""Mesh geometry: discrete curvature, quadrature, seeds, smoothing, jets."""

import numpy as np
import pytest

from ckflow import ambient, ckv, diagnostics, flow, oracles, surface
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


def icosphere_by_loop(level):
    """The icosphere face by face: each edge's midpoint made, normalised by
    its 1-D norm and numbered the first time a face's (a,b), (b,c), (c,a)
    reaches it."""
    verts, faces = surface.icosahedron()
    verts = list(verts)
    for _ in range(level):
        cache, new_faces = {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                m /= np.linalg.norm(m)
                verts.append(m)
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.asarray(new_faces, dtype=np.int64)
    mesh = surface.TriSurface(np.asarray(verts), faces)
    if surface.enclosed_volume_flat(mesh) < 0.0:
        mesh = surface.TriSurface(mesh.vertices, mesh.faces[:, ::-1].copy())
    return mesh


@pytest.mark.parametrize("level", range(7))
def test_icosphere_matches_the_face_loop_bit_for_bit(level):
    mesh, ref = surface.icosphere(level), icosphere_by_loop(level)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.faces, ref.faces)
    assert mesh.faces.dtype == ref.faces.dtype


@pytest.mark.parametrize("level", range(1, 6))
def test_subdivision_only_appends_vertices(level):
    coarse = surface.icosphere(level - 1).vertices
    assert np.array_equal(surface.icosphere(level).vertices[:len(coarse)],
                          coarse)


def test_icosphere_rejects_negative_level():
    with pytest.raises(ValueError):
        surface.icosphere(-1)


def test_topology_rejects_open_mesh():
    # single triangle: not closed
    with pytest.raises(MeshDegenerate):
        surface.Topology(np.array([[0, 1, 2]]))


def test_topology_rejects_a_repeated_directed_edge():
    # two copies of one face: every directed edge twice
    faces = surface.icosphere(0).faces
    with pytest.raises(MeshDegenerate, match="duplicate directed edge"):
        surface.Topology(np.concatenate([faces, faces[:1]]))


def test_ring_tables_match_breadth_first_search():
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 2)
    topo = mesh.topology
    nbrs = [set() for _ in range(mesh.n_vertices)]
    for i, j in zip(topo.he_tail, topo.he_head):
        nbrs[i].add(j)
    for depth in (1, 2, 4):
        table, counts = topo.ring(depth)
        for i in range(mesh.n_vertices):
            seen, front = {i}, {i}
            for _ in range(depth):
                front = set().union(*(nbrs[v] for v in front)) - seen
                seen |= front
            expected = sorted(seen - {i})
            assert counts[i] == len(expected)
            assert list(table[i, :counts[i]]) == expected
            assert np.all(table[i, counts[i]:] == i)
        assert counts.max() == table.shape[1]


def test_scatter_matches_bincount():
    mesh = surface.icosphere(3)
    faces = mesh.faces
    w = np.random.default_rng(3).standard_normal(mesh.n_faces)
    assert np.array_equal(
        mesh.topology.scatter @ np.repeat(w, 3),
        np.bincount(faces.reshape(-1), np.repeat(w, 3)),
    )


def test_twisted_seed_identity_at_zero_twist(euclid, pair_e3):
    base = surface.ellipsoid_seed((1.6, 0.7, 0.7), 2)
    mesh, _, _ = surface.checked_seed(base, euclid, pair_e3, 0.0)
    assert mesh is base  # the zero twist is skipped...
    zero = np.zeros(base.n_vertices)
    # ...and applying it would move no vertex by a single bit
    assert np.array_equal(
        surface._rodrigues(base.vertices, pair_e3.axis_vec, zero), base.vertices)


def test_twisted_seed_regression_signs(euclid, pair_e3):
    base = surface.ellipsoid_seed((1.6, 0.7, 0.7), 3)
    mesh, min_u, min_uperp = surface.checked_seed(base, euclid, pair_e3, 1.5)
    assert min_uperp < 0.0 < min_u
    # vertexwise rotation preserves every radius exactly
    r_mesh = np.linalg.norm(mesh.vertices, axis=1)
    r_base = np.linalg.norm(base.vertices, axis=1)
    assert np.max(np.abs(r_mesh - r_base)) < 1e-12


def test_twisted_seed_infeasible_without_rotation(euclid):
    still = ckv.KillingPair(omega=0.0, axis=(0.0, 0.0, 1.0))
    with pytest.raises(SeedInfeasible):
        surface.checked_seed(surface.ellipsoid_seed((1.6, 0.7, 0.7), 3),
                             euclid, still, 1.5)


# --------------------------------------------------------------------------
# the face pass
# --------------------------------------------------------------------------


def jittered_ellipsoid(rng):
    """An L3 ellipsoid with radially jittered vertices: some faces are
    obtuse, so the mixed-area branch runs, and the local frames are
    irregular."""
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 3)
    return mesh.with_vertices(
        mesh.vertices * (1.0 + 0.02 * rng.standard_normal((mesh.n_vertices, 1)))
    )


def corner_cotans(verts, faces):
    """Cotangent at each corner as a.b / |a x b| per corner, kept as a
    reference; corner c faces the edge (c+1, c+2)."""
    p = verts[faces]
    cot = np.empty((faces.shape[0], 3))
    for c in range(3):
        a = p[:, (c + 1) % 3] - p[:, c]
        b = p[:, (c + 2) % 3] - p[:, c]
        cr = np.linalg.norm(np.cross(a, b), axis=1)
        cot[:, c] = np.einsum("ij,ij->i", a, b) / np.maximum(cr, 1e-300)
    return cot


def looped_mixed_areas(mesh):
    """Mixed Voronoi areas as a per-corner loop, kept as a reference."""
    faces = mesh.faces
    p = mesh.vertices[faces]
    cot = corner_cotans(mesh.vertices, faces)
    fa = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]),
                              axis=1)
    contrib = np.empty((faces.shape[0], 3))
    obtuse_any = np.any(cot < 0.0, axis=1)
    for c in range(3):
        e1 = p[:, (c + 1) % 3] - p[:, c]
        e2 = p[:, (c + 2) % 3] - p[:, c]
        l1 = np.einsum("ij,ij->i", e1, e1)
        l2 = np.einsum("ij,ij->i", e2, e2)
        vor = (l1 * cot[:, (c + 2) % 3] + l2 * cot[:, (c + 1) % 3]) / 8.0
        obtuse_here = cot[:, c] < 0.0
        contrib[:, c] = np.where(obtuse_any,
                                 np.where(obtuse_here, fa / 2.0, fa / 4.0), vor)
    return np.bincount(faces.reshape(-1), contrib.reshape(-1),
                       minlength=mesh.n_vertices)


def looped_corner_cross(mesh):
    """n x e_c per corner, e_c the edge opposite corner c, kept as a
    reference."""
    p = mesh.vertices[mesh.faces]
    cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    fn = cr / np.linalg.norm(cr, axis=1)[:, None]
    return np.stack([np.cross(fn, p[:, (c + 2) % 3] - p[:, (c + 1) % 3])
                     for c in range(3)])


def test_face_pass_matches_per_corner_references():
    mesh = jittered_ellipsoid(np.random.default_rng(1))
    fg = surface.face_normals_areas(mesh.vertices, mesh.faces)
    cot = corner_cotans(mesh.vertices, mesh.faces)
    assert np.any(cot < 0.0)
    # the numerators agree bit for bit; only the denominators |a x b| of
    # corners 1 and 2 may differ from 2A in the last place
    assert np.all(np.abs(fg.cot - cot) <= 1e-13 * np.abs(cot))
    assert np.array_equal(fg.cot[:, 0], cot[:, 0])

    areas = looped_mixed_areas(mesh)
    assert np.all(np.abs(mesh.mixed_areas - areas) <= 1e-14 * areas)
    ref = looped_corner_cross(mesh)
    assert np.max(np.abs(mesh.basis.corner_cross - ref)) \
        <= 1e-14 * np.max(np.abs(ref))

    topo = mesh.topology
    edges = np.linalg.norm(mesh.vertices[topo.he_head]
                           - mesh.vertices[topo.he_tail], axis=1)
    assert abs(mesh.min_edge - edges.min()) <= 1e-15 * edges.min()
    q = surface.quality(mesh)
    angles = np.degrees(np.arctan2(1.0, cot))
    assert abs(q.min_angle_deg - angles.min()) <= 1e-13 * angles.min()
    ratio = np.max(edges.reshape(-1, 3).max(axis=1)
                   / edges.reshape(-1, 3).min(axis=1))
    assert abs(q.max_edge_ratio - ratio) <= 1e-13 * ratio


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
        k1, k2 = surface.principal_curvatures(mesh, vg)
        assert np.max(np.abs(k1 - k2)) <= 0.05 * np.max(vg.H)


def test_trace_consistency_two_estimators(euclid, paper, pair):
    shapes = [
        (euclid, surface.ellipsoid_seed((2.0, 1.0, 1.0), 4)),
        (euclid, surface.ellipsoid_seed((1.5, 1.0, 1.0), 4)),
        (paper, surface.sphere_seed(1.0, 4)),
    ]
    for geom, mesh in shapes:
        vg = surface.mesh_geometry(mesh, geom, pair)
        k1, k2 = surface.principal_curvatures(mesh, vg)
        assert np.all(np.abs(k1 + k2 - vg.H) <= 0.05 * (1.0 + np.abs(vg.H)))


def test_mesh_geometry_matches_standalone_kernels(euclid, paper, pair):
    mesh = jittered_ellipsoid(np.random.default_rng(1))
    vg = surface.mesh_geometry(mesh, paper, pair)
    nu = surface.vertex_normals(mesh)
    areas = surface.mixed_voronoi_areas(mesh)
    lap_x = surface.cotan_laplacian_apply(mesh, mesh.vertices)
    assert np.array_equal(vg.nu_flat, nu)
    assert np.array_equal(vg.area_flat, areas)
    # f = 0 under Euclidean, so the curved H is the flat one
    flat = surface.mesh_geometry(mesh, euclid, pair)
    assert np.array_equal(flat.H, -np.einsum("ij,ij->i", lap_x, nu))


def bincount_cotan_laplacian(mesh, values):
    """The cotan Laplacian as per-corner bincount loops, kept as a reference."""
    verts, faces = mesh.vertices, mesh.faces
    cot = corner_cotans(verts, faces)
    areas = surface.mixed_voronoi_areas(mesh)
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(vals.shape[0], -1)
    acc = np.zeros_like(flat)
    V = verts.shape[0]
    for c in range(3):
        i = faces[:, (c + 1) % 3]
        j = faces[:, (c + 2) % 3]
        w = cot[:, c]
        diff_ij = flat[j] - flat[i]
        for k in range(flat.shape[1]):
            acc[:, k] += np.bincount(i, weights=w * diff_ij[:, k], minlength=V)
            acc[:, k] -= np.bincount(j, weights=w * diff_ij[:, k], minlength=V)
    acc /= (2.0 * areas)[:, None]
    return acc.reshape(vals.shape)


def test_cotan_laplacian_matches_bincount_reference():
    rng = np.random.default_rng(1)
    mesh = jittered_ellipsoid(rng)
    assert np.any(mesh.face_geometry.cot < 0.0)
    for values in (mesh.vertices, rng.standard_normal(mesh.n_vertices)):
        lap = surface.cotan_laplacian_apply(mesh, values)
        ref = bincount_cotan_laplacian(mesh, values)
        assert lap.shape == ref.shape
        assert np.max(np.abs(lap - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cotan_stiffness_is_areas_times_the_laplacian():
    rng = np.random.default_rng(1)
    mesh = jittered_ellipsoid(rng)
    stiff = surface.cotan_stiffness(mesh)
    dense = stiff.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12 * np.max(np.abs(dense))
    areas = surface.mixed_voronoi_areas(mesh)
    for values in (mesh.vertices, rng.standard_normal(mesh.n_vertices)):
        ref = (areas * surface.cotan_laplacian_apply(mesh, values).T).T
        assert np.max(np.abs(stiff @ values - ref)) <= 1e-12
    # the pattern comes from the topology's half-edges: a moved snapshot
    # only changes values
    moved = surface.cotan_stiffness(mesh.with_vertices(1.1 * mesh.vertices))
    assert np.array_equal(moved.indices, stiff.indices)
    assert np.array_equal(moved.indptr, stiff.indptr)
    assert np.count_nonzero(dense) == stiff.nnz


def test_stiffness_pattern_is_shared_by_a_topology_s_snapshots():
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 2)
    moved = mesh.with_vertices(1.1 * mesh.vertices)
    pattern = mesh.topology.stiffness_pattern
    assert moved.topology.stiffness_pattern is pattern
    for shared in (pattern.indptr, pattern.indices):
        assert not shared.flags.writeable
    weights = np.random.default_rng(4).uniform(0.2, 2.0, mesh.n_faces)
    for stiff in (surface.cotan_stiffness(mesh),
                  surface.cotan_stiffness(moved),
                  surface.cotan_stiffness(moved, face_weight=weights)):
        assert np.shares_memory(stiff.indptr, pattern.indptr)
        assert np.shares_memory(stiff.indices, pattern.indices)
    # each half-edge's slot holds its (tail, head) entry, and the diagonal
    # slots the diagonal
    topo = mesh.topology
    cols = np.repeat(np.arange(mesh.n_vertices), np.diff(pattern.indptr))
    assert np.array_equal(pattern.indices[pattern.he_slot], topo.he_tail)
    assert np.array_equal(cols[pattern.he_slot], topo.he_head)
    assert np.array_equal(pattern.indices[pattern.diag_slot],
                          np.arange(mesh.n_vertices))
    assert np.array_equal(cols[pattern.diag_slot], np.arange(mesh.n_vertices))


def test_weighted_cotan_stiffness():
    rng = np.random.default_rng(2)
    mesh = jittered_ellipsoid(rng)
    stiff = surface.cotan_stiffness(mesh)
    ones = surface.cotan_stiffness(mesh, face_weight=np.ones(mesh.n_faces))
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(ones, attr), getattr(stiff, attr)), attr
    weighted = surface.cotan_stiffness(
        mesh, face_weight=rng.uniform(0.2, 2.0, mesh.n_faces))
    dense = weighted.toarray()
    assert np.array_equal(dense, dense.T)
    assert np.max(np.abs(dense.sum(axis=1))) <= 1e-12 * np.max(np.abs(dense))
    assert np.array_equal(weighted.indices, stiff.indices)
    assert np.array_equal(weighted.indptr, stiff.indptr)


def test_weighted_stiffness_is_the_graph_divergence(euclid, paper):
    # the graph step's operator K_{1/W} lam / Omega is the explicit rate's
    # flux divergence, written out in `_reference_divergence`
    for geom in (euclid, paper):
        state = _jittered_graph_state(geom)
        leaf, lam = state.leaf, state.lam
        g, h = flow.leaf_coefficients(geom, leaf.vertices, lam)
        pf = surface.face_gradients(leaf, lam)
        wf = np.sqrt(1.0 + (np.mean(h[leaf.faces], axis=1)
                            / np.mean(g[leaf.faces], axis=1))
                     * np.einsum("ij,ij->i", pf, pf))
        div = surface.cotan_stiffness(leaf, face_weight=1.0 / wf) @ lam \
            / leaf.basis.dual_area
        ref = _reference_divergence(geom, state)
        assert np.max(np.abs(div - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_orientation_flip_negates_support(euclid, pair):
    mesh = surface.ellipsoid_seed((1.5, 1.0, 0.8), 2)
    flipped = surface.TriSurface(mesh.vertices, mesh.faces[:, ::-1].copy())
    vg = surface.mesh_geometry(mesh, euclid, pair, xi_now=1.0)
    fg = surface.mesh_geometry(flipped, euclid, pair, xi_now=1.0)
    assert np.allclose(vg.u_perp, -fg.u_perp, atol=1e-12)
    assert np.allclose(vg.u, -fg.u, atol=1e-12)


# --------------------------------------------------------------------------
# the snapshot memo
# --------------------------------------------------------------------------


def _jittered_graph_state(geom):
    leaf = surface.icosphere(2)
    rng = np.random.default_rng(5)
    dirs = leaf.vertices + 0.06 * rng.normal(size=leaf.vertices.shape)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = 1.0 + 0.08 * dirs[:, 2] ** 2 - 0.05 * dirs[:, 0] * dirs[:, 1]
    return flow.graph_state_from_mesh(leaf.with_vertices(r[:, None] * dirs),
                                      geom)


def _reference_divergence(geom, state):
    """The graph flux divergence written out as bincount loops."""
    leaf, lam = state.leaf, state.lam
    g, h = flow.leaf_coefficients(geom, leaf.vertices, lam)
    fg = surface.face_normals_areas(leaf.vertices, leaf.faces)
    fn, fa = fg.normal, fg.area
    af = flow.graph_flux(surface.face_gradients(leaf, lam),
                         np.mean(g[leaf.faces], axis=1),
                         np.mean(h[leaf.faces], axis=1))
    div = np.zeros(leaf.n_vertices)
    p = leaf.vertices[leaf.faces]
    for c in range(3):
        e = p[:, (c + 2) % 3] - p[:, (c + 1) % 3]
        contrib = -0.5 * np.einsum("ij,ij->i", af, np.cross(fn, e))
        div += np.bincount(leaf.faces[:, c], weights=contrib,
                           minlength=leaf.n_vertices)
    div /= np.bincount(leaf.faces.reshape(-1), weights=np.repeat(fa / 3.0, 3),
                       minlength=leaf.n_vertices)
    return div


def _reference_rate(geom, pair, state, xi_now):
    """The graph rate around `_reference_divergence`."""
    leaf, lam = state.leaf, state.lam
    emb = state.embedded(geom)
    vg = surface.mesh_geometry(emb, geom, pair, xi_now)
    g, h = flow.leaf_coefficients(geom, leaf.vertices, lam)
    pv = surface.vertex_gradients(leaf, surface.face_gradients(leaf, lam))
    w = np.sqrt(1.0 + (h / g) * np.einsum("ij,ij->i", pv, pv))
    u_top = -np.sqrt(h) * np.einsum("ij,ij->i", pair.rotation(leaf.vertices),
                                    pv) / w
    u = vg.dilation_norm / w + xi_now * u_top
    div = _reference_divergence(geom, state)
    b = diagnostics.label_evolution_source(geom, emb, vg)
    return w * u * div / g + w * w * b


def _chart_fields(geom, pair, state, xi_now):
    """A graph state's `_graph_chart_fields` tuple from its own bundle."""
    emb = state.embedded(geom)
    vg = surface.mesh_geometry(emb, geom, pair, xi_now)
    return flow._graph_chart_fields(geom, pair, state, xi_now, emb, vg)


def _memo(mesh, geom):
    """Everything a snapshot memoizes, read through the memo."""
    return {"face_geometry": mesh.face_geometry, "normals": mesh.normals,
            "mixed_areas": mesh.mixed_areas, "basis": mesh.basis,
            "min_edge": mesh.min_edge, "flat_curvatures": mesh.flat_curvatures,
            "area": mesh.area(geom), "volume": mesh.volume(geom)}


def _kernels(mesh, geom):
    """The same quantities from the module's kernels."""
    fg = surface.face_normals_areas(mesh.vertices, mesh.faces)
    return {"face_geometry": fg,
            "normals": surface.vertex_normals(mesh),
            "mixed_areas": surface.mixed_voronoi_areas(mesh),
            "basis": surface.gradient_basis(mesh),
            "min_edge": float(np.sqrt(np.min(fg.sq))),
            "flat_curvatures": surface.principal_curvatures_flat(mesh),
            "area": surface.surface_area(mesh, geom),
            "volume": surface.enclosed_volume(mesh, geom)}


def _assert_bit_equal(a, b, what):
    if isinstance(a, tuple):
        for x, y in zip(a, b):
            _assert_bit_equal(x, y, what)
    elif isinstance(a, (surface.FaceGeometry, surface.GradientBasis,
                        surface.VertexGeometry)):
        for key, x in vars(a).items():
            _assert_bit_equal(x, getattr(b, key), f"{what}.{key}")
    else:
        assert np.array_equal(a, b), what


@pytest.mark.parametrize("geom_name, axis", [("euclid", (0.0, 0.0, 1.0)),
                                             ("paper", (1.0, 0.0, 0.0))])
def test_snapshot_memo_matches_fresh_kernels(request, monkeypatch, geom_name,
                                             axis):
    geom = request.getfixturevalue(geom_name)
    other = ambient.PaperExample() if geom_name == "euclid" \
        else ambient.Euclidean()
    pair = ckv.KillingPair(omega=0.5, axis=axis)
    mesh = jittered_ellipsoid(np.random.default_rng(1))

    # a warm memo hands back what it computed, bit-equal to the kernels on a
    # fresh snapshot with its own topology, and keys area and volume by the
    # geometry object
    vg = surface.mesh_geometry(mesh, geom, pair, 0.7)
    warm = _memo(mesh, geom)
    assert all(v is warm[k] for k, v in _memo(mesh, geom).items())
    fresh = surface.TriSurface(np.array(mesh.vertices), mesh.faces)
    for name, value in _kernels(fresh, geom).items():
        _assert_bit_equal(warm[name], value, name)
    _assert_bit_equal(vg, surface.mesh_geometry(fresh, geom, pair, 0.7), "vg")
    assert mesh.area(other) == surface.surface_area(fresh, other)
    assert mesh.volume(other) == surface.enclosed_volume(fresh, other)

    # moved snapshots start cold; a read of the warm one computes nothing
    calls = []
    original = surface.face_normals_areas

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(surface, "face_normals_areas", counted)
    assert mesh.face_geometry is warm["face_geometry"] and not calls
    for cold in (mesh.with_vertices(mesh.vertices),
                 surface.TriSurface(mesh.vertices, mesh.faces, mesh.topology)):
        assert "flat_curvatures" not in vars(cold)
        _assert_bit_equal(cold.area(geom), warm["area"], "cold area")
        _assert_bit_equal(cold.normals, warm["normals"], "cold normals")
    assert len(calls) == 2
    # every face kernel of a cold snapshot reads the one face pass
    cold = mesh.with_vertices(mesh.vertices)
    surface.mesh_geometry(cold, geom, pair, 0.7)
    cold.basis, cold.min_edge, surface.quality(cold)
    assert len(calls) == 3
    monkeypatch.undo()

    # the vertices cannot be written, nor reached through the caller's array
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 0.0
    with pytest.raises(ValueError):
        mesh.vertices *= 2.0
    verts = np.array(mesh.vertices)
    moved = mesh.with_vertices(verts)
    verts[0] = 0.0
    assert np.array_equal(moved.vertices, mesh.vertices)

    # the graph rate reads its fixed leaf's gradient basis from the memo:
    # cold, warm and the written-out reference agree bit for bit
    sched = ckv.Schedule(t0=0.5)
    state = _jittered_graph_state(geom)
    state.t = 0.1
    xi_now = sched.xi_at(state.t)
    k1 = flow._graph_rate(state, _chart_fields(geom, pair, state, xi_now))
    assert np.array_equal(k1, flow._graph_rate(
        state, _chart_fields(geom, pair, state, xi_now)))
    assert np.array_equal(k1, _reference_rate(geom, pair, state, xi_now))


# --------------------------------------------------------------------------
# quadric fit
# --------------------------------------------------------------------------


def einsum_quadric_fit(mesh, normals):
    """The quadric fit as a masked 3-operand einsum, kept as a reference."""
    verts = mesh.vertices
    topo = mesh.topology
    seed = np.eye(3)[np.argmin(np.abs(normals), axis=1)]
    e1 = seed - normals * np.einsum("ij,ij->i", seed, normals)[:, None]
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    nbr, cnt = topo.ring(2)
    mask = np.arange(nbr.shape[1])[None, :] < cnt[:, None]
    d = verts[nbr] - verts[:, None, :]
    lx = np.einsum("vkj,vj->vk", d, e1)
    ly = np.einsum("vkj,vj->vk", d, e2)
    lz = np.einsum("vkj,vj->vk", d, normals)
    scale = np.sqrt(np.sum((lx * lx + ly * ly + lz * lz) * mask, axis=1)
                    / np.maximum(cnt, 1))
    scale = np.maximum(scale, 1e-300)
    lx, ly, lz = lx / scale[:, None], ly / scale[:, None], lz / scale[:, None]
    cols = np.stack([lx * lx, lx * ly, ly * ly, lx, ly], axis=-1)
    w = mask.astype(float)
    G = np.einsum("vka,vkb,vk->vab", cols, cols, w)
    rhs = np.einsum("vka,vk,vk->va", cols, lz, w)
    G += 1e-12 * np.eye(5)
    coeffs = np.linalg.solve(G, rhs[..., None])[..., 0]
    coeffs[:, :3] /= scale[:, None]
    return np.stack([e1, e2, normals], axis=1), coeffs


def test_quadric_fit_recovers_a_quadric_patch(monkeypatch):
    # the cap z > 0.3 of an icosphere lifted onto z = 1 + q(x, y); vertical
    # normals, which the snapshot memo takes from `vertex_normals`, make the
    # local frame the coordinate axes
    def vertical(mesh):
        return np.tile([0.0, 0.0, 1.0], (mesh.n_vertices, 1))

    monkeypatch.setattr(surface, "vertex_normals", vertical)
    a, b, c, d, e = 0.3, -0.2, 0.5, 0.1, -0.15
    mesh = surface.icosphere(3)
    x, y, z = mesh.vertices.T
    cap = z > 0.3
    lifted = np.where(cap, 1.0 + a * x * x + b * x * y + c * y * y + d * x
                      + e * y, z)
    mesh = mesh.with_vertices(np.column_stack([x, y, lifted]))
    frames, co = surface.quadric_fit(mesh)
    inner = cap & np.all(cap[mesh.topology.ring(2)[0]], axis=1)
    assert np.count_nonzero(inner) >= 50
    assert np.array_equal(frames[inner], np.tile(np.eye(3), (inner.sum(), 1, 1)))
    # about a vertex (x0, y0) the same quadric has shifted linear terms
    x0, y0 = x[inner], y[inner]
    expected = np.column_stack([
        np.full_like(x0, a), np.full_like(x0, b), np.full_like(x0, c),
        d + 2.0 * a * x0 + b * y0, e + b * x0 + 2.0 * c * y0,
    ])
    assert np.max(np.abs(co[inner] - expected)) <= 1e-10


def test_quadric_fit_sphere_principal_curvatures():
    # a two-ring quadric is second-order accurate: 2.3% off at L3
    r = 0.7
    k1, k2 = surface.principal_curvatures_flat(surface.sphere_seed(r, 3))
    assert np.max(np.abs(k1 * r - 1.0)) <= 3e-2
    assert np.max(np.abs(k2 * r - 1.0)) <= 3e-2
    assert np.all(k1 >= k2)


def lstsq_over_real_neighbours(mesh, nbr, cnt, i, frame, exps, scale=1.0):
    """Height-fit coefficients at vertex i from its unpadded neighbours."""
    real = nbr[i, :cnt[i]]
    assert real.size < nbr.shape[1]  # the table row is padded
    x, y, z = frame @ (mesh.vertices[real] - mesh.vertices[i]).T / scale
    cols = x[:, None] ** exps[:, 0] * y[:, None] ** exps[:, 1]
    return np.linalg.lstsq(cols, z, rcond=None)[0]


def test_quadric_fit_ignores_padded_two_ring_slots():
    # the icosahedron's 12 vertices keep valence 5, so their two-rings are
    # shorter than the table and padded with the vertex itself
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 3)
    topo = mesh.topology
    frames, co = surface.quadric_fit(mesh)
    valence = np.bincount(topo.faces.reshape(-1), minlength=mesh.n_vertices)
    exps = np.array([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)])
    for i in np.flatnonzero(valence == 5):
        ref = lstsq_over_real_neighbours(mesh, *topo.ring(2), i, frames[i],
                                         exps)
        assert np.max(np.abs(co[i] - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_jet_fit_ignores_padded_ring_slots(euclid, pair, monkeypatch):
    # the jet's constant column is 1 at a padded slot, so jet_fields must
    # zero those rows itself
    fits = []
    local_fit = surface._local_fit

    def spy(*args):
        fits.append(local_fit(*args))
        return fits[-1]

    monkeypatch.setattr(surface, "_local_fit", spy)
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 3)
    oracles.jet_fields(mesh, euclid, pair, 1.0)
    (frames, scale, co), = fits
    nbr, cnt = mesh.topology.ring(4)
    for i in np.flatnonzero(cnt < nbr.shape[1])[::20]:
        ref = lstsq_over_real_neighbours(mesh, nbr, cnt, i, frames[i],
                                         oracles._JET_EXPS, scale[i])
        assert np.max(np.abs(co[i] - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_quadric_fit_matches_einsum_reference():
    mesh = jittered_ellipsoid(np.random.default_rng(1))
    frames, co = surface.quadric_fit(mesh)
    frames_ref, co_ref = einsum_quadric_fit(mesh, surface.vertex_normals(mesh))
    assert np.array_equal(frames, frames_ref)
    err = np.max(np.abs(co - co_ref), axis=0)
    assert np.all(err <= 1e-12 * np.max(np.abs(co_ref), axis=0))


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
    assert abs(surface.surface_area(mesh, paper) / paper.leaf_area(1.0) - 1.0) < 5e-3


# --------------------------------------------------------------------------
# smoothing and quality
# --------------------------------------------------------------------------


def test_smooth_icosphere_preserves_shape(euclid):
    # smoothing may slide vertices within the sphere (the icosphere's
    # pentagon neighborhoods are not centroidal), but a tangential move of
    # a small fraction of an edge changes a radius only to second order
    mesh = surface.sphere_seed(1.0, 3)
    sm = surface.tangential_smooth(mesh)
    radial = np.abs(np.linalg.norm(sm.vertices, axis=1) - 1.0)
    assert np.max(radial) <= 1e-3 * mesh.min_edge
    slide = np.linalg.norm(sm.vertices - mesh.vertices, axis=1)
    assert np.max(slide) <= 0.1 * mesh.min_edge


def test_smooth_improves_min_angle(euclid):
    rng = np.random.default_rng(8)
    mesh = surface.sphere_seed(1.0, 3)
    noisy = mesh.with_vertices(
        mesh.vertices + 0.01 * rng.normal(size=mesh.vertices.shape)
    )
    q0 = surface.quality(noisy)
    q1 = surface.quality(surface.tangential_smooth(noisy))
    assert q1.min_angle_deg >= q0.min_angle_deg
    v0 = surface.enclosed_volume_flat(noisy)
    v1 = surface.enclosed_volume_flat(surface.tangential_smooth(noisy))
    assert abs(v1 / v0 - 1.0) <= 1e-4


def test_smoothing_matches_a_per_vertex_loop():
    rng = np.random.default_rng(3)
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 2)
    mesh = mesh.with_vertices(
        mesh.vertices
        + 0.05 * mesh.min_edge * rng.normal(size=mesh.vertices.shape))
    verts, areas, normals = mesh.vertices, mesh.mixed_areas, mesh.normals
    neighbours = [set() for _ in range(mesh.n_vertices)]
    for face in mesh.faces:
        for a in face:
            neighbours[a].update(b for b in face if b != a)
    expected = np.empty_like(verts)
    for i, ring in enumerate(neighbours):
        ring = sorted(ring)
        centroid = areas[ring] @ verts[ring] / np.sum(areas[ring])
        delta = centroid - verts[i]
        delta -= normals[i] * (delta @ normals[i])
        expected[i] = verts[i] + 0.5 * delta
    got = surface.tangential_smooth(mesh).vertices
    assert np.max(np.abs(got - expected)) <= 1e-14


def test_smoothing_needs_no_fit_ring_table_or_volume(monkeypatch):
    # the tangential move alone: the front's curved projection is the
    # pass's one volume correction
    mesh = surface.ellipsoid_seed((1.3, 1.0, 0.8), 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("tangential_smooth must not call this")

    monkeypatch.setattr(surface, "quadric_fit", forbidden)
    monkeypatch.setattr(surface.Topology, "ring", forbidden)
    monkeypatch.setattr(surface, "enclosed_volume_flat", forbidden)
    surface.tangential_smooth(mesh)


@pytest.mark.parametrize("min_angle, ratio, degenerate", [
    (1.0, 50.0, False),
    (float(np.nextafter(1.0, 0.0)), 50.0, True),
    (1.0, float(np.nextafter(50.0, 51.0)), True),
])
def test_quality_degenerate_bounds(min_angle, ratio, degenerate):
    # the front's guard: a corner under 1 degree or an edge ratio over 50:1
    quality = surface.MeshQuality(min_angle_deg=min_angle,
                                  max_edge_ratio=ratio)
    assert quality.degenerate() is degenerate


def test_quality_flags_degenerate():
    # vertex 3 sits on the segment 0-1, so face (0, 1, 3) has zero area; the
    # face pass rejects it before it divides by 2A
    verts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    mesh = surface.TriSurface(verts, faces)
    with np.errstate(all="raise"):
        with pytest.raises(MeshDegenerate, match="zero-area face"):
            surface.face_normals_areas(verts, faces)
        for read in ("min_edge", "mixed_areas", "basis"):
            with pytest.raises(MeshDegenerate, match="zero-area face"):
                getattr(mesh, read)
        with pytest.raises(MeshDegenerate, match="zero-area face"):
            surface.quality(mesh)
        with pytest.raises(MeshDegenerate, match="zero-area face"):
            surface.mesh_geometry(mesh, ambient.Euclidean(), ckv.KillingPair())


# --------------------------------------------------------------------------
# jet fields (single-patch curvature derivatives)
# --------------------------------------------------------------------------


def test_jet_fields_sphere_exact_values(euclid, pair):
    mesh = surface.sphere_seed(1.0, 4)
    jf = oracles.jet_fields(mesh, euclid, pair, 1.0)
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
        jf = oracles.jet_fields(mesh, euclid, pair, 1.0)
        _, u_ref, h_ref, a2_ref = ellipsoid_reference(mesh.vertices, (1.6, 1.0, 1.0))
        assert np.max(np.abs(jf.u - u_ref)) < 2e-3
        errs_h.append(np.max(np.abs(jf.h - h_ref)) / np.max(h_ref))
        errs_a2.append(np.max(np.abs(jf.a2 - a2_ref)) / np.max(a2_ref))
    assert errs_h[1] <= 0.5 * errs_h[0] and errs_h[1] < 5e-3
    assert errs_a2[1] <= 0.5 * errs_a2[0] and errs_a2[1] < 2e-2


def test_jet_fields_match_vertex_geometry(paper, pair):
    mesh = surface.ellipsoid_seed((1.05, 1.0, 0.95), 3)
    vg = surface.mesh_geometry(mesh, paper, pair)
    jf = oracles.jet_fields(mesh, paper, pair, 1.0)
    assert np.max(np.abs(jf.u - vg.u)) <= 0.02 * np.max(np.abs(vg.u))
    assert np.max(np.abs(jf.h - vg.H)) <= 0.05 * np.max(np.abs(vg.H))
