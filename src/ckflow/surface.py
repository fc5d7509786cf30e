"""Triangulated closed surfaces in the chart, with curved-metric geometry.

Meshes live in flat chart coordinates; all metric quantities are obtained
from the flat ones through the conformal factor:

    nu = exp(-f) nu_flat,   kappa_i = exp(-f) (kappa_flat_i + nu_flat(f)),
    u_perp = exp(f) <D, nu_flat>,   dA_g = exp(2f) dA_flat.

Flat mean curvature comes from the cotangent Laplacian over mixed Voronoi
cells; flat principal curvatures from per-vertex quadric fits over the
two-ring (read only by the trace's curvature columns).  The fit's
kernel, `_local_fit`, gathers each padded neighbour table once, projects it
onto the local frames and solves all the normal equations as stacked matrix
products; `oracles.jet_fields` fits its degree-six jet through it too.
Connectivity is fixed over a flow and lives on one `Topology`, shared
between snapshots: its corner-to-vertex `scatter` matrix carries every
face-to-vertex sum (vertex normals, mixed areas, gradient weights), the
cotan Laplacian is one weighted half-edge difference through that same
matrix and the smoothing centroid one weighted half-edge sum.  The sparse
cotan stiffness of both implicit steps holds the same half-edge weights
(scaled per face for the leaf graph), written into the slots of the
topology's fixed CSC pattern (`stiffness_pattern`), so every snapshot's
stiffness shares one pair of index arrays.  The pattern and the padded
neighbour tables (`ring`), which only the fits read, are built on first
use.
A snapshot's vertices are read-only, so what they determine is memoized on
the `TriSurface` at its first use: the face pass, the vertex normals, the
mixed Voronoi areas, the P1 gradient basis, the shortest edge, the flat
principal curvatures, and the curved area and volume under a given
geometry.  The face pass (`face_normals_areas`) is the one kernel that
gathers the face corners: it forms each face's edge vectors and their
squared lengths, and takes the unit normal, the area and the three corner
cotangents from one cross product.  Every other face kernel reads its
`FaceGeometry`, so a snapshot computes each of these at most once, whoever
asks first, and no caller passes one along.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import ckv
from .ckv import N_SURF
from .errors import DomainExit, MeshDegenerate, SeedInfeasible

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# 4-point tetrahedron rule, exact for quadratics
_TET_A = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
_TET_B = (5.0 - np.sqrt(5.0)) / 20.0
_TET_BARY = np.full((4, 4), _TET_B) + (_TET_A - _TET_B) * np.eye(4)


# --------------------------------------------------------------------------
# topology
# --------------------------------------------------------------------------


class Topology:
    """Half-edge connectivity of a closed oriented triangle mesh.

    Half-edge k = 3*face + corner runs from faces[f, c] to faces[f, (c+1)%3]
    and faces corner (c+2)%3; `he_twin` pairs it with its reverse.  Corner k
    sits at vertex faces[f, c], the half-edge's tail.  `scatter` is the
    (V, 3F) CSR matrix of that corner-to-vertex map, with its columns in
    corner order: `scatter @ x` sums per-corner (or per-half-edge) values onto
    vertices in ascending corner order, and every face-to-vertex accumulation
    goes through it.  The padded neighbour tables of `ring` and the cotan
    stiffness's `stiffness_pattern` are built on first use, once each.
    """

    def __init__(self, faces):
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError("faces must be (F,3)")
        self.faces = faces
        F = faces.shape[0]
        V = int(faces.max()) + 1
        self.n_vertices = V
        self.n_faces = F

        c0 = faces.reshape(-1)
        c1 = faces[:, [1, 2, 0]].reshape(-1)
        self.he_tail = c0
        self.he_head = c1

        # twin pairing: every directed edge must appear exactly once, and its
        # reverse exactly once (closed, consistently oriented)
        key = c0 * V + c1
        rkey = c1 * V + c0
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        if np.any(sorted_key[1:] == sorted_key[:-1]):
            raise MeshDegenerate("duplicate directed edge; orientation broken")
        pos = np.searchsorted(sorted_key, rkey)
        pos = np.minimum(pos, key.size - 1)
        if not np.all(sorted_key[pos] == rkey):
            raise MeshDegenerate("mesh is not a closed oriented surface")
        self.he_twin = order[pos]
        if np.any(self.he_twin[self.he_twin] != np.arange(3 * F)):
            raise MeshDegenerate("half-edge twin pairing is not an involution")

        self.n_edges = 3 * F // 2
        euler = V - self.n_edges + F
        if euler != 2:
            raise MeshDegenerate(f"expected sphere topology, Euler number {euler}")

        self.scatter = sp.csr_array(
            (np.ones(3 * F), (c0, np.arange(3 * F))), shape=(V, 3 * F)
        )
        self._rings = {}

    def ring(self, depth):
        """Padded neighbour table within `depth` edges, self excluded.

        Returns (indices, counts): row i lists the counts[i] vertices within
        `depth` edges of i in ascending order, then repeats i itself (a zero
        offset in the local fits).
        """
        if depth not in self._rings:
            V = self.n_vertices
            # the half-edges hold both directions of every edge
            step = sp.csr_array(
                (np.ones(self.he_tail.size, dtype=np.int64),
                 (self.he_tail, self.he_head)), shape=(V, V)
            ) + sp.eye_array(V, dtype=np.int64, format="csr")
            reach = step
            for _ in range(depth - 1):
                reach = reach @ step
            reach.setdiag(0)
            reach.eliminate_zeros()
            reach.sort_indices()
            counts = np.diff(reach.indptr)
            table = np.repeat(np.arange(V), counts.max()).reshape(V, -1)
            rows = np.repeat(np.arange(V), counts)
            table[rows, np.arange(rows.size) - reach.indptr[rows]] = reach.indices
            self._rings[depth] = table, counts
        return self._rings[depth]

    @cached_property
    def stiffness_pattern(self):
        """The `StiffnessPattern` of the V x V cotan stiffness."""
        V = self.n_vertices
        # sorting col * V + row of the half-edges' entries, then of the
        # diagonal's, gives the canonical CSC order.  The indices are int32,
        # as scipy.sparse picks for this size, so no matrix copies them
        key = np.concatenate([self.he_head * V + self.he_tail,
                              np.arange(V) * (V + 1)])
        order = np.argsort(key)
        slot = np.empty(order.size, dtype=np.int32)
        slot[order] = np.arange(order.size)
        indptr = np.zeros(V + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.he_head, minlength=V) + 1, out=indptr[1:])
        indices = (key[order] % V).astype(np.int32)
        for shared in (indptr, indices):
            shared.flags.writeable = False
        he = self.he_tail.size
        return StiffnessPattern(indptr, indices, slot[:he], slot[he:])


@dataclass(frozen=True)
class StiffnessPattern:
    """Fixed CSC sparsity pattern of a topology's cotan stiffness.

    Every directed edge's (tail, head) entry and every diagonal entry, in
    canonical order (columns in turn, rows ascending within each).
    `he_slot[k]` is the data slot of half-edge k's entry and `diag_slot[i]`
    that of (i, i).  `indptr` and `indices` are read-only: every matrix
    assembled on the pattern shares them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    he_slot: np.ndarray
    diag_slot: np.ndarray


@dataclass
class TriSurface:
    """One snapshot: read-only vertices over faces with shared adjacency.

    The memo fills on first use and calls each kernel by its module name;
    `with_vertices` gives a new snapshot with an empty memo.
    """

    vertices: np.ndarray
    faces: np.ndarray
    topology: Topology = None

    def __post_init__(self):
        self.vertices = np.array(self.vertices, dtype=float, order="C")
        self.vertices.flags.writeable = False
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.topology is None:
            self.topology = Topology(self.faces)
        self._curved = {}  # (name, id(geom)) -> (geom, value)

    def with_vertices(self, verts):
        return TriSurface(verts, self.faces, self.topology)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @cached_property
    def face_geometry(self):
        """The face pass's `FaceGeometry`."""
        return face_normals_areas(self.vertices, self.faces)

    @cached_property
    def normals(self):
        """Flat unit vertex normals (V, 3)."""
        return vertex_normals(self)

    @cached_property
    def mixed_areas(self):
        """Flat mixed Voronoi cell areas (V,)."""
        return mixed_voronoi_areas(self)

    @cached_property
    def basis(self):
        """The P1 gradient's `GradientBasis`."""
        return gradient_basis(self)

    @cached_property
    def min_edge(self):
        """Length of the shortest edge."""
        return float(np.sqrt(np.min(self.face_geometry.sq)))

    @cached_property
    def flat_curvatures(self):
        """Flat principal curvatures (k1, k2) (`principal_curvatures_flat`)."""
        return principal_curvatures_flat(self)

    def area(self, geom):
        """Curved area under `geom` (`surface_area`)."""
        return self._under("area", geom, surface_area)

    def volume(self, geom):
        """Curved enclosed volume under `geom` (`enclosed_volume`)."""
        return self._under("volume", geom, enclosed_volume)

    def _under(self, name, geom, kernel):
        # the entry holds geom, so its id names no other geometry meanwhile
        key = (name, id(geom))
        if key not in self._curved:
            self._curved[key] = (geom, kernel(self, geom))
        return self._curved[key][1]


# --------------------------------------------------------------------------
# icosphere and seeds
# --------------------------------------------------------------------------


def icosahedron():
    """Unit icosahedron (12 vertices, 20 faces), outward oriented."""
    t = GOLDEN
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosphere(level):
    """Subdivided icosahedron projected to the unit sphere.

    level 0 gives 12 vertices; each level quadruples the face count,
    so V = 10 * 4**level + 2.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    verts, faces = icosahedron()
    for _ in range(level):
        n = len(verts)
        # edges (a,b), (b,c), (c,a) of each face in turn; each new midpoint
        # is numbered by its edge's first appearance in that order
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * n + edges[:, 1],
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        ends = edges[first[order]]
        m = verts[ends[:, 0]] + verts[ends[:, 1]]
        # the row-wise matmul adds in the order of a 1-D norm, bit for bit
        m /= np.sqrt((m[:, None, :] @ m[:, :, None])[:, 0, 0])[:, None]
        verts = np.concatenate([verts, m])
        a, b, c = faces.T
        faces = np.stack([np.stack([a, ab, ca], axis=1),
                          np.stack([b, bc, ab], axis=1),
                          np.stack([c, ca, bc], axis=1),
                          np.stack([ab, bc, ca], axis=1)],
                         axis=1).reshape(-1, 3)
    mesh = TriSurface(verts, faces)
    # outward orientation: positive enclosed flat volume
    if enclosed_volume_flat(mesh) < 0.0:
        mesh = TriSurface(mesh.vertices, mesh.faces[:, ::-1].copy())
    return mesh


def sphere_seed(radius, level):
    m = icosphere(level)
    return m.with_vertices(radius * m.vertices)


def ellipsoid_seed(semiaxes, level):
    a = np.asarray(semiaxes, dtype=float)
    if a.shape != (3,) or np.any(a <= 0.0):
        raise ValueError("semiaxes must be three positive numbers")
    m = icosphere(level)
    return m.with_vertices(m.vertices * a)


def _rodrigues(points, axis, angles):
    """Rotate each point about `axis` by its own angle."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    c = np.cos(angles)[:, None]
    s = np.sin(angles)[:, None]
    cross = np.cross(np.broadcast_to(a, points.shape), points)
    dot = (points @ a)[:, None]
    return points * c + cross * s + a[None, :] * dot * (1.0 - c)


def checked_seed(mesh, geom, pair, tau=0.0):
    """The seed `mesh`, twisted when tau != 0, and its support minima.

    Returns (mesh, min_u, min_uperp) with u taken at Xi = 1.  The twist
    rotates each vertex about the pair's axis by tau * ln|p|, so rays from
    the origin become the integral spirals of dilation + tau*rotation.
    Raises DomainExit if a vertex lies outside the chart domain,
    SeedInfeasible unless the seed is strictly starshaped for the scheduled
    field at t=0, whatever its kind.
    """
    # the chart domains are shells about the origin and the twist keeps
    # radii, so the untwisted mesh is checked before ln|p| is taken
    geom.require_in_domain(mesh.vertices, what="seed vertex")
    if tau != 0.0:
        r = np.linalg.norm(mesh.vertices, axis=1)
        mesh = mesh.with_vertices(
            _rodrigues(mesh.vertices, pair.axis_vec, tau * np.log(r)))
    vg = mesh_geometry(mesh, geom, pair, xi_now=1.0)
    min_u = float(np.min(vg.u))
    min_uperp = float(np.min(vg.u_perp))
    if min_u <= 0.0:
        raise SeedInfeasible(
            f"seed not starshaped for the scheduled field "
            f"(min u = {min_u:.3e}; tau={tau}, omega={pair.omega})"
        )
    return mesh, min_u, min_uperp


# --------------------------------------------------------------------------
# flat mesh kernels
# --------------------------------------------------------------------------


@dataclass
class FaceGeometry:
    """Flat per-face data of one snapshot (`mesh.face_geometry`).

    Corner c sits at p_c and faces the edge e_c = p_{c+2} - p_{c+1}.
    """

    edge: np.ndarray    # (F, 3, 3) e_c
    sq: np.ndarray      # (F, 3) |e_c|^2
    normal: np.ndarray  # (F, 3) unit normals
    area: np.ndarray    # (F,)
    cot: np.ndarray     # (F, 3) corner cotangents


def face_normals_areas(verts, faces):
    """The face pass: one gather of the corners and one cross product.

    2A = |e_1 x e_2|, and corner c, between e_{c+2} and -e_{c+1}, has
    cot = -(e_{c+1} . e_{c+2}) / 2A.
    """
    p = verts[faces]
    edge = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
    cr = np.cross(edge[:, 1], edge[:, 2])
    nrm = np.linalg.norm(cr, axis=1)
    if np.any(nrm <= 0.0):
        raise MeshDegenerate("zero-area face")
    cot = -np.einsum("fcj,fcj->fc", edge[:, [1, 2, 0]], edge[:, [2, 0, 1]])
    return FaceGeometry(edge=edge, sq=np.einsum("fcj,fcj->fc", edge, edge),
                        normal=cr / nrm[:, None], area=0.5 * nrm,
                        cot=cot / nrm[:, None])


def vertex_normals(mesh):
    """Area-weighted average of incident face normals, unit length."""
    fg = mesh.face_geometry
    out = mesh.topology.scatter @ np.repeat(fg.normal * fg.area[:, None], 3,
                                            axis=0)
    nrm = np.linalg.norm(out, axis=1)
    if np.any(nrm <= 0.0):
        raise MeshDegenerate("vanishing vertex normal")
    return out / nrm[:, None]


def mixed_voronoi_areas(mesh):
    """Per-vertex mixed Voronoi cell areas (obtuse-safe).

    Corner c's Voronoi part is (|e_{c+1}|^2 cot_{c+1} + |e_{c+2}|^2
    cot_{c+2}) / 8; a face with an obtuse corner gives that corner half its
    area and the other two a quarter each instead.
    """
    fg = mesh.face_geometry
    s = fg.sq * fg.cot
    vor = (s[:, [2, 0, 1]] + s[:, [1, 2, 0]]) / 8.0
    obtuse = fg.cot < 0.0
    fa = fg.area[:, None]
    contrib = np.where(np.any(obtuse, axis=1, keepdims=True),
                       np.where(obtuse, fa / 2.0, fa / 4.0), vor)
    areas = mesh.topology.scatter @ contrib.reshape(-1)
    if np.any(areas <= 0.0):
        raise MeshDegenerate("non-positive mixed Voronoi area")
    return areas


def _half_edge_weights(topo, cot):
    """cot a + cot b of each half-edge: the corner it faces plus its twin's."""
    he_cot = cot[:, [2, 0, 1]].reshape(-1)
    return he_cot + he_cot[topo.he_twin]


def cotan_laplacian_apply(mesh, values):
    """Pointwise Laplace-Beltrami of per-vertex values (flat induced metric).

    (Lap v)_i = (1 / (2 A_i)) sum_j (cot a_ij + cot b_ij) (v_j - v_i)

    One product over the half-edges: half-edge k (tail i, head j) carries
    the cotangent of the corner it faces, plus its twin's, as its weight, and
    `scatter` sums the weighted differences onto the tails.
    """
    topo = mesh.topology
    vals = np.asarray(values, dtype=float)
    flat = vals.reshape(vals.shape[0], -1)
    w = _half_edge_weights(topo, mesh.face_geometry.cot)
    acc = topo.scatter @ (w[:, None] * (flat[topo.he_head] - flat[topo.he_tail]))
    acc /= (2.0 * mesh.mixed_areas)[:, None]
    return acc.reshape(vals.shape)


def cotan_stiffness(mesh, face_weight=None):
    """Sparse cotan stiffness L: (L x)_i = (1/2) sum_j w_ij (x_j - x_i).

    w_ij = cot a + cot b.  Symmetric with zero row sums; L x equals the
    mixed areas times `cotan_laplacian_apply(x)`, from the same half-edge
    weights: half-edge k gives the entry (tail, head), and each directed
    edge is one half-edge.  `face_weight` (F,) scales each face's corner
    cotangents by a_f, giving the weighted P1 stiffness
    (K_a x)_i = -sum_f area_f a_f grad chi_i . grad x; None is a_f = 1.

    The weights fill the slots of the topology's `stiffness_pattern`, so
    every snapshot of a topology gives a CSC matrix with the same, shared
    `indices` and `indptr`.  An entry whose weight is exactly 0 stays as an
    explicit zero.
    """
    topo = mesh.topology
    cot = mesh.face_geometry.cot
    if face_weight is not None:
        cot = cot * np.asarray(face_weight, dtype=float)[:, None]
    half = 0.5 * _half_edge_weights(topo, cot)
    pattern = topo.stiffness_pattern
    data = np.empty(pattern.indices.size)
    data[pattern.he_slot] = half
    data[pattern.diag_slot] = -(topo.scatter @ half)
    V = topo.n_vertices
    return sp.csc_array((data, pattern.indices, pattern.indptr), shape=(V, V))


@dataclass
class GradientBasis:
    """Vertex-position data of the P1 gradient on one mesh (`mesh.basis`)."""

    corner_cross: np.ndarray   # (3, F, 3): n x e_c, e_c opposite corner c
    vertex_weight: np.ndarray  # (V,) summed areas of the faces at each vertex
    dual_area: np.ndarray      # (V,) barycentric dual cell areas


def gradient_basis(mesh):
    """The mesh's `GradientBasis`."""
    fg = mesh.face_geometry
    fa, scatter = fg.area, mesh.topology.scatter
    return GradientBasis(
        corner_cross=np.cross(fg.normal, fg.edge.swapaxes(0, 1)),
        vertex_weight=scatter @ np.repeat(fa, 3),
        dual_area=scatter @ np.repeat(fa / 3.0, 3))


def face_gradients(mesh, values):
    """Piecewise-linear gradient of per-vertex values, one 3-vector per face.

    grad chi_c = (n x e_c) / (2 area) with e_c the edge opposite corner c,
    so the gradient lies in the face plane.
    """
    basis = mesh.basis
    faces = mesh.faces
    vals = np.asarray(values, dtype=float)
    grad = np.zeros((faces.shape[0], 3))
    for c in range(3):
        grad += vals[faces[:, c], None] * basis.corner_cross[c]
    return grad / (2.0 * mesh.face_geometry.area)[:, None]


def vertex_gradients(mesh, face_grad):
    """`face_gradients` output averaged to vertices with flat-area weights."""
    grad = face_grad * mesh.face_geometry.area[:, None]
    out = mesh.topology.scatter @ np.repeat(grad, 3, axis=0)
    return out / mesh.basis.vertex_weight[:, None]


def _local_fit(verts, normals, nbr, cnt, design):
    """Batched least-squares height fits over padded neighbour tables.

    Each vertex's neighbour offsets are taken into its local frame, rows
    (e1, e2, normal) with e1 seeded by the axis least aligned with the
    normal, and divided by their RMS length `scale`.  In these coordinates
    z = design(x, y) @ coeffs is fitted through the normal equations
    G = C^T C, rhs = C^T z (one stacked matmul each, 1e-12 ridge) and
    `np.linalg.solve`.  Padded slots repeat the vertex itself, so their
    offsets are exactly zero; a design whose columns all vanish there needs
    no mask, any other must zero those rows itself.

    Returns frames (V,3,3), scale (V,) and the scaled coefficients (V,m).
    """
    seed = np.eye(3)[np.argmin(np.abs(normals), axis=1)]
    e1 = seed - normals * np.einsum("ij,ij->i", seed, normals)[:, None]
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    axes = np.stack([e1, e2, normals], axis=2)  # frame vectors as columns

    local = np.take(verts, nbr, axis=0)
    local -= verts[:, None, :]
    local = local @ axes  # (V, K, 3): x, y, z per neighbour
    # condition the normal equations on the local length scale
    scale = np.sqrt(np.einsum("vkj,vkj->v", local, local)
                    / np.maximum(cnt, 1))
    scale = np.maximum(scale, 1e-300)
    local /= scale[:, None, None]

    cols = design(local[..., 0], local[..., 1])  # (V, K, m)
    cols_t = cols.transpose(0, 2, 1)
    G = cols_t @ cols
    G += 1e-12 * np.eye(cols.shape[-1])
    coeffs = np.linalg.solve(G, cols_t @ local[..., 2:])[..., 0]
    return axes.transpose(0, 2, 1), scale, coeffs


def _quadric_columns(x, y):
    return np.stack([x * x, x * y, y * y, x, y], axis=-1)


def quadric_fit(mesh):
    """Per-vertex quadric over the two-ring in the local normal frame.

    Fits z = a x^2 + b xy + c y^2 + d x + e y with `_local_fit` and returns
    (frames, coeffs) with frames (V,3,3) rows (e1, e2, normal) and coeffs
    (V,5).  Every column vanishes at the origin, so the two-ring's padded
    slots drop out without a mask.
    """
    frames, scale, coeffs = _local_fit(mesh.vertices, mesh.normals,
                                       *mesh.topology.ring(2), _quadric_columns)
    # undo the scaling: quadratic terms pick up 1/scale, linear ones none
    coeffs[:, :3] /= scale[:, None]
    return frames, coeffs


def principal_curvatures_flat(mesh):
    """Flat principal curvatures (k1 >= k2) from the quadric fit.

    Outward-positive convention: a round sphere of radius r gives +1/r.
    """
    _, co = quadric_fit(mesh)
    a, b, c, d, e = (co[:, k] for k in range(5))
    gsq = d * d + e * e
    denom = np.sqrt(1.0 + gsq)
    # shape operator of a graph at (0,0) with gradient (d,e)
    h11, h12, h22 = 2.0 * a, b, 2.0 * c
    i11, i12, i22 = 1.0 + d * d, d * e, 1.0 + e * e
    det_i = i11 * i22 - i12 * i12
    s11 = (i22 * h11 - i12 * h12) / (det_i * denom)
    s12 = (i22 * h12 - i12 * h22) / (det_i * denom)
    s21 = (i11 * h12 - i12 * h11) / (det_i * denom)
    s22 = (i11 * h22 - i12 * h12) / (det_i * denom)
    tr = s11 + s22
    det = s11 * s22 - s12 * s21
    disc = np.sqrt(np.maximum(0.0, tr * tr - 4.0 * det))
    # height grows opposite to the outward normal on a convex patch
    k1 = -(tr - disc) / 2.0
    k2 = -(tr + disc) / 2.0
    return k1, k2


def principal_curvatures(mesh, vg):
    """Curved principal curvatures (k1, k2) of a snapshot with bundle `vg`,
    from its memoized flat ones."""
    ef = np.exp(vg.f)
    k1f, k2f = mesh.flat_curvatures
    return (k1f + vg.nu_f) / ef, (k2f + vg.nu_f) / ef


# --------------------------------------------------------------------------
# curved-metric geometry bundle
# --------------------------------------------------------------------------


@dataclass
class VertexGeometry:
    """Per-vertex geometric data of a mesh snapshot in the curved metric."""

    f: np.ndarray            # conformal exponent at vertices
    nu_flat: np.ndarray      # flat unit normals (outward)
    nu_f: np.ndarray         # normal derivative nu_flat(f)
    H: np.ndarray            # curved mean curvature
    u_perp: np.ndarray       # support of the dilation
    u: np.ndarray            # scheduled support u_perp + xi * u_top
    phi: np.ndarray
    lam: np.ndarray
    Lam: np.ndarray
    area_flat: np.ndarray    # mixed Voronoi cell areas, flat
    area_g: np.ndarray       # curved cell areas exp(2f) * flat
    dilation_norm: np.ndarray  # |D|_g at vertices

    @property
    def speed(self):
        """The flow's normal speed n phi - u H at the vertices."""
        return N_SURF * self.phi - self.u * self.H


def mesh_geometry(mesh, geom, pair, xi_now=1.0):
    """Assemble the per-vertex geometry bundle for the current snapshot."""
    verts = mesh.vertices
    f_v = geom.f(verts)
    ef = np.exp(f_v)
    nu = mesh.normals
    areas = mesh.mixed_areas
    lap_x = cotan_laplacian_apply(mesh, verts)
    H_flat = -np.einsum("ij,ij->i", lap_x, nu)
    nu_f = np.einsum("ij,ij->i", nu, geom.grad_f(verts))
    H = (H_flat + 2.0 * nu_f) / ef

    u_perp = ef * np.einsum("ij,ij->i", verts, nu)
    u_top = ef * np.einsum("ij,ij->i", pair.rotation(verts), nu)
    u = u_perp + xi_now * u_top

    return VertexGeometry(
        f=f_v,
        nu_flat=nu,
        nu_f=nu_f,
        H=H,
        u_perp=u_perp,
        u=u,
        phi=ckv.phi(geom, verts),
        lam=ckv.lam(geom, verts),
        Lam=ckv.Lam(geom, verts),
        area_flat=areas,
        area_g=np.exp(2.0 * f_v) * areas,
        dilation_norm=ckv.dilation_norm_g(geom, verts),
    )


# --------------------------------------------------------------------------
# area and volume quadrature
# --------------------------------------------------------------------------


def enclosed_volume_flat(mesh):
    p0 = mesh.vertices[mesh.faces[:, 0]]
    p1 = mesh.vertices[mesh.faces[:, 1]]
    p2 = mesh.vertices[mesh.faces[:, 2]]
    return float(np.sum(np.einsum("ij,ij->i", p0, np.cross(p1, p2))) / 6.0)


def surface_area(mesh, geom):
    """Curved area: flat face areas times a 3-point rule on exp(2f).

    Edge-midpoint quadrature, exact for quadratic integrands per face.
    """
    v, faces = mesh.vertices, mesh.faces
    fa = mesh.face_geometry.area
    p0, p1, p2 = v[faces[:, 0]], v[faces[:, 1]], v[faces[:, 2]]
    total = 0.0
    for qa, qb in ((p0, p1), (p1, p2), (p2, p0)):
        mid = 0.5 * (qa + qb)
        geom.require_in_domain(mid, what="area quadrature node")
        total += np.sum(fa * np.exp(2.0 * geom.f(mid))) / 3.0
    return float(total)


def enclosed_volume(mesh, geom):
    """Curved volume of the region bounded by the mesh around the origin.

    Signed tetrahedra against the chart origin with the 4-point quadratic
    rule on exp(3f).  Quadrature nodes are strictly interior, so only the
    outer chart boundary is checked.
    """
    v, faces = mesh.vertices, mesh.faces
    p = np.stack(
        [np.zeros_like(v[faces[:, 0]]), v[faces[:, 0]], v[faces[:, 1]], v[faces[:, 2]]],
        axis=1,
    )  # (F, 4, 3)
    signed = np.einsum(
        "ij,ij->i", p[:, 1], np.cross(p[:, 2], p[:, 3])
    ) / 6.0
    total = 0.0
    for q in range(4):
        node = np.einsum("k,fkj->fj", _TET_BARY[q], p)
        outer = geom.outer_distance(node)
        if np.any(outer <= 0.0):
            raise DomainExit(
                f"volume quadrature node left the {geom.name} outer boundary"
            )
        total += np.sum(signed * np.exp(3.0 * geom.f(node))) / 4.0
    return float(total)


# --------------------------------------------------------------------------
# quality and smoothing
# --------------------------------------------------------------------------


@dataclass
class MeshQuality:
    min_angle_deg: float
    max_edge_ratio: float

    def degenerate(self):
        return self.min_angle_deg < 1.0 or self.max_edge_ratio > 50.0


def quality(mesh):
    fg = mesh.face_geometry
    edges = np.sqrt(fg.sq)
    angles = np.arctan2(1.0, fg.cot)  # corner angles in (0, pi)
    return MeshQuality(
        min_angle_deg=float(np.degrees(np.min(angles))),
        max_edge_ratio=float(np.max(edges.max(axis=1) / edges.min(axis=1))),
    )


def tangential_smooth(mesh):
    """Move each vertex tangentially halfway to its one-ring centroid.

    The centroid weights each neighbour by its mixed Voronoi area, summed
    over the half-edges (each runs once from a vertex to one of its
    neighbours).  The move drops the offset's part along the flat vertex
    normal and keeps no volume; the front projects the smoothed mesh back
    onto the seed's curved volume.
    """
    topo, verts = mesh.topology, mesh.vertices
    w = mesh.mixed_areas[topo.he_head]
    delta = (topo.scatter @ (w[:, None] * verts[topo.he_head])) \
        / (topo.scatter @ w)[:, None] - verts
    nu = mesh.normals
    delta -= nu * np.einsum("ij,ij->i", delta, nu)[:, None]
    return mesh.with_vertices(verts + 0.5 * delta)


# --------------------------------------------------------------------------
# OBJ export
# --------------------------------------------------------------------------


def save_obj(mesh, path, t=0.0, frame=0):
    """Wavefront OBJ snapshot with the flow time stamped in the header."""
    with open(path, "w") as fh:
        fh.write(f"# ckflow t={t:.9g} frame={frame}\n")
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
