"""The Kuhn mesh builders that wellspin.mesh replaced, kept as test
oracles.

FirstVisitMesh is SimplicialMesh as it was before build_kuhn_mesh numbered
facets in closed form: from any cells it numbers facets by grouping the
sorted vertex tuples of every (cell, omitted vertex) visit, orients every
facet normal by the opposite-vertex test and takes barycenters and edge
inverses as it did then. build_kuhn_mesh must reproduce all of its arrays
byte for byte, and tests that hand-build meshes use it.

ReferenceMesh and reference_build_kuhn_mesh are the loop-based builder,
kept verbatim: ReferenceMesh swaps the dict-based facet construction, the
SVD facet frames with their orientation loop and the per-facet surface
loop back in; reference_normal_directions is the per-facet loop that read
the normal set off the facets. The array builder must
reproduce every array byte for byte, except the n = 2 facet normals,
which wellspin forms in closed form, and the n = 2 tangents, which it no
longer stores: fields.facet_jumps turns the normal back by 90 degrees.

mesh_constants holds the scale-free shape constants of any mesh, which no
run reads; ReferenceMesh.constants computes them one facet at a time.

jitter_vertices gives tests the general geometry that a Kuhn mesh lacks,
and facet_check_incompatibility is check_incompatibility as it read the
normal set off the facets, put in the reference order that
check_incompatibility reports.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from wellspin.mesh import (
    MeshError,
    MeshResourceError,
    SimplicialMesh,
    _batched_det,
    kuhn_reference_normals,
)


@dataclass
class MeshConstants:
    """Scale-free non-degeneracy constants of a mesh.

    Volumes satisfy vol_lower * m^-n <= |T| <= vol_upper * m^-n, the
    scaled inradius is at least inradius_lower and the scaled diameter at
    most diameter_upper.
    """

    vol_lower: float
    vol_upper: float
    inradius_lower: float
    diameter_upper: float


def mesh_constants(mesh):
    """MeshConstants of a mesh, with whole-array passes."""
    n = mesh.dim
    # the largest squared edge length over the n(n+1)/2 vertex pairs of
    # each cell, one pair at a time to bound memory
    d2 = np.zeros(mesh.n_cells)
    for i, j in itertools.combinations(range(n + 1), 2):
        edge = mesh.vertices[mesh.cells[:, i]] - mesh.vertices[mesh.cells[:, j]]
        d2 = np.maximum(d2, (edge**2).sum(-1))
    diam = np.sqrt(d2)
    # each cell's n+1 facet areas, added in increasing facet id as a loop
    # over facets adds them, which fixes the rounding
    owner = np.concatenate([mesh.facet_cells[:, 0], mesh.facet_cells[mesh.interior, 1]])
    fid = np.concatenate([np.arange(len(mesh.facet_area)), mesh.interior])
    areas = mesh.facet_area[fid[np.lexsort((fid, owner))]].reshape(mesh.n_cells, n + 1)
    surf = areas[:, 0].copy()
    for k in range(1, n + 1):
        surf += areas[:, k]
    inradius = n * mesh.volumes / surf
    return MeshConstants(
        vol_lower=float(mesh.volumes.min() * mesh.m**n),
        vol_upper=float(mesh.volumes.max() * mesh.m**n),
        inradius_lower=float((inradius * mesh.m).min()),
        diameter_upper=float((diam * mesh.m).max()),
    )


def _first_visit_groups(keys):
    """Group equal int64 keys, numbering the groups in first-visit order:
    (first visit of each group, group of each key, visits per group)."""
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)], counts[order]


def _facet_visits(cells, n_vertices):
    """Every (cell, omitted vertex) facet visit, grouped into facets.

    Visit c*(n+1) + omit is cell c without its vertex omit; visits holds
    each visit's vertex ids in increasing order. Facets are numbered in
    first-visit order: first[f] is the first visit of facet f, inverse the
    facet of each visit and counts[f] its number of visits.
    """
    k = cells.shape[1]
    if n_vertices ** (k - 1) >= 2**63:
        raise MeshResourceError(f"{n_vertices} vertices overflow the int64 facet keys")
    keep = np.array([[j for j in range(k) if j != omit] for omit in range(k)])
    visits = np.sort(cells[:, keep], axis=2).reshape(-1, k - 1)
    keys = visits @ n_vertices ** np.arange(k - 2, -1, -1, dtype=np.int64)
    return (visits, *_first_visit_groups(keys))


class FirstVisitMesh(SimplicialMesh):
    def __init__(self, dim, m, lattice_rotation, vertices, cells):
        facets = self._build_facets(cells, len(vertices))
        super().__init__(dim, m, lattice_rotation, vertices, cells, *facets)

    @staticmethod
    def _build_facets(cells, n_vertices):
        """(facet_vertices, facet_cells, omit) in first-visit order."""
        k = cells.shape[1]
        visits, first, inverse, counts = _facet_visits(cells, n_vertices)
        if np.any(counts > 2):
            raise MeshError("facet shared by more than two cells")
        fc = np.full((len(first), 2), -1, dtype=np.int64)
        fc[:, 0] = first // k
        # with at most two visits per facet, a visit that is not its
        # facet's first is the only second one
        second = np.nonzero(first[inverse] != np.arange(len(visits)))[0]
        fc[inverse[second], 1] = second // k
        return visits[first], fc, first % k

    def _compute_cell_geometry(self):
        verts = self.vertices[self.cells]  # (C, n+1, n)
        edges = verts[:, 1:, :] - verts[:, :1, :]  # (C, n, n)
        dets = _batched_det(edges)
        self.volumes = np.abs(dets) / math.factorial(self.dim)
        if np.any(self.volumes <= 0):
            raise MeshError("degenerate cell with zero volume")
        self.barycenters = verts.mean(axis=1)
        dv = np.swapaxes(edges, 1, 2)
        if self.dim == 2:
            adj = np.stack([dv[:, 1, 1], -dv[:, 0, 1], -dv[:, 1, 0], dv[:, 0, 0]], axis=1)
            self.inverse_edges = adj.reshape(-1, 2, 2) / _batched_det(dv)[:, None, None]
        else:
            self.inverse_edges = np.linalg.inv(dv)
        return dets

    def _compute_facet_geometry(self, omit, dets):
        n = self.dim
        pts = self.vertices[self.facet_vertices]  # (F, n, n)
        edges = pts[:, 1:, :] - pts[:, :1, :]  # (F, n-1, n)
        gram = edges @ np.swapaxes(edges, 1, 2)
        self.facet_area = np.sqrt(np.abs(_batched_det(gram))) / math.factorial(n - 1)
        if n == 2:
            normals = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
            normals /= self.facet_area[:, None]
        else:
            _, _, vt = np.linalg.svd(edges)
            normals = vt[:, -1, :]  # (F, n)
            self.facet_tangent = np.swapaxes(vt[:, : n - 1, :], 1, 2)  # (F, n, n-1)
        # orient away from the opposite vertex of the first adjacent cell
        fbary = pts.mean(axis=1)
        opposite = self.vertices[self.cells[self.facet_cells[:, 0], omit]]
        flip = np.einsum("fi,fi->f", normals, fbary - opposite) < 0
        normals[flip] = -normals[flip]
        self.facet_normal = normals


class ReferenceMesh(FirstVisitMesh):
    @staticmethod
    def _build_facets(cells, n_vertices):
        n = cells.shape[1] - 1
        facet_map = {}
        order = []
        for ci, cell in enumerate(cells):
            for omit in range(n + 1):
                fverts = tuple(sorted(np.delete(cell, omit)))
                if fverts in facet_map:
                    facet_map[fverts].append(ci)
                else:
                    facet_map[fverts] = [ci]
                    order.append(fverts)
        fv = np.array(order, dtype=np.int64)
        fc = np.full((len(order), 2), -1, dtype=np.int64)
        for fi, key in enumerate(order):
            owners = facet_map[key]
            if len(owners) > 2:
                raise MeshError("facet shared by more than two cells")
            fc[fi, : len(owners)] = owners
        return fv, fc, None

    def _compute_facet_geometry(self, omit, dets):
        n = self.dim
        pts = self.vertices[self.facet_vertices]  # (F, n, n)
        edges = pts[:, 1:, :] - pts[:, :1, :]  # (F, n-1, n)
        gram = edges @ np.swapaxes(edges, 1, 2)
        self.facet_area = np.sqrt(np.abs(_batched_det(gram))) / math.factorial(n - 1)
        _, _, vt = np.linalg.svd(edges)
        normals = vt[:, -1, :]  # (F, n)
        tangents = np.swapaxes(vt[:, : n - 1, :], 1, 2)  # (F, n, n-1)
        # orient away from the opposite vertex of the first adjacent cell
        fbary = pts.mean(axis=1)
        opp = np.empty((len(normals), n))
        for fi in range(len(normals)):
            cell = self.cells[self.facet_cells[fi, 0]]
            fset = set(self.facet_vertices[fi].tolist())
            for v in cell:
                if int(v) not in fset:
                    opp[fi] = self.vertices[v]
                    break
        flip = np.einsum("fi,fi->f", normals, fbary - opp) < 0
        normals[flip] = -normals[flip]
        self.facet_normal = normals
        self.facet_tangent = tangents

    @property
    def constants(self):
        n = self.dim
        verts = self.vertices[self.cells]
        d2 = (
            (verts[:, :, None, :] - verts[:, None, :, :]) ** 2
        ).sum(-1)
        diam = np.sqrt(d2.max(axis=(1, 2)))
        surf = np.zeros(self.n_cells)
        for fi in range(len(self.facet_area)):
            surf[self.facet_cells[fi, 0]] += self.facet_area[fi]
            if self.facet_cells[fi, 1] >= 0:
                surf[self.facet_cells[fi, 1]] += self.facet_area[fi]
        inradius = n * self.volumes / surf
        return MeshConstants(
            vol_lower=float(self.volumes.min() * self.m**n),
            vol_upper=float(self.volumes.max() * self.m**n),
            inradius_lower=float((inradius * self.m).min()),
            diameter_upper=float((diam * self.m).max()),
        )


def reference_normal_directions(facet_normal):
    """Distinct facet normal directions, one facet at a time."""
    reps = {}
    for v in facet_normal:
        nz = np.nonzero(np.abs(v) > 1e-9)[0]
        vec = -v if len(nz) and v[nz[0]] < 0 else v
        reps.setdefault(tuple(np.round(vec, 10)), vec)
    return np.array([reps[k] for k in sorted(reps)])


def jitter_vertices(mesh, jitter, rng):
    """The mesh with its interior vertices moved, as a wellspin
    SimplicialMesh: each coordinate by a uniform draw from rng within
    +-jitter / m. The vertices of boundary facets stay and the cells share
    the moved vertices, so the mesh stays conforming and covers the same
    union of cells, for jitter up to 0.2; its facet normals leave the
    Kuhn set. The draws are reference_build_kuhn_mesh's jitter draws, so
    the two builders' jittered meshes compare byte for byte."""
    moved = np.ones(len(mesh.vertices), dtype=bool)
    moved[mesh.facet_vertices[mesh.boundary]] = False
    disp = rng.uniform(-jitter / mesh.m, jitter / mesh.m, size=mesh.vertices.shape)
    # omit[f] is where facet f's left-out vertex sits in its first cell
    first = mesh.cells[mesh.facet_cells[:, 0]]
    omit = np.argmin((first[:, :, None] == mesh.facet_vertices[:, None, :]).any(axis=2), axis=1)
    return SimplicialMesh(
        mesh.dim,
        mesh.m,
        mesh.lattice_rotation,
        mesh.vertices + disp * moved[:, None],
        mesh.cells,
        mesh.facet_vertices,
        mesh.facet_cells,
        omit,
    )


def facet_check_incompatibility(mesh, twins, delta0):
    """(ok, worst alignment, offenders) of check_incompatibility with the
    normal set read off the facets (reference_normal_directions), for twin
    normals twins (k, n); offenders as (facet normal, twin normal,
    alignment) in check_incompatibility's order. That is reference order:
    each direction takes the place and the sign of the turned reference
    normal (kuhn_reference_normals times the transposed lattice rotation)
    it is most aligned with."""
    normals = reference_normal_directions(mesh.facet_normal)
    dots = normals @ (kuhn_reference_normals(mesh.dim) @ mesh.lattice_rotation.T).T
    slot = np.abs(dots).argmax(axis=1)
    order = np.argsort(slot)
    normals = normals[order] * np.sign(dots[order, slot[order]])[:, None]
    align = np.minimum(np.abs(normals @ twins.T), 1.0)
    worst = float(align.max())
    pairs = np.argwhere(align > 1.0 - delta0)
    return worst <= 1.0 - delta0, worst, [(normals[f], twins[t], align[f, t]) for f, t in pairs]


def reference_build_kuhn_mesh(
    n,
    m,
    domain=None,
    lattice_rotation=None,
    jitter=0.0,
    rng=None,
    max_cells=4_000_000,
):
    """Build the Kuhn mesh of a box at scale 1/m.

    The reference lattice is rotated by lattice_rotation (an element of
    SO(n)) before clipping: cells with any vertex outside the closed box
    are dropped. jitter, in units of 1/m and at most 0.2, displaces
    interior vertices uniformly; the mesh stays conforming because cells
    share the moved vertices.
    """
    if m < 2:
        raise MeshError("need m >= 2")
    if domain is None:
        domain = (np.zeros(n), np.ones(n))
    lo = np.asarray(domain[0], dtype=float)
    hi = np.asarray(domain[1], dtype=float)
    if lo.shape != (n,) or hi.shape != (n,) or np.any(hi <= lo):
        raise MeshError("domain must be a nonempty box (lo, hi)")
    if lattice_rotation is None:
        rot = np.eye(n)
    else:
        rot = np.asarray(lattice_rotation, dtype=float)
        if np.linalg.norm(rot.T @ rot - np.eye(n)) > 1e-10 or np.linalg.det(rot) < 0:
            raise MeshError("lattice_rotation must be a rotation")
    if jitter < 0 or jitter > 0.2:
        raise MeshError("jitter must lie in [0, 0.2] (units of 1/m)")

    corners = np.array(list(itertools.product(*zip(lo, hi))))
    lat_corners = corners @ rot * m  # R^T c * m, rowwise
    lat_lo = np.floor(lat_corners.min(axis=0)).astype(int) - 1
    lat_hi = np.ceil(lat_corners.max(axis=0)).astype(int) + 1

    n_cubes = int(np.prod(lat_hi - lat_lo))
    est_cells = n_cubes * math.factorial(n)
    if est_cells > max_cells:
        raise MeshResourceError(
            f"estimated {est_cells} cells exceeds budget {max_cells}"
        )

    perms = list(itertools.permutations(range(n)))
    paths = []
    for perm in perms:
        steps = np.zeros((n + 1, n), dtype=int)
        for k, axis in enumerate(perm):
            steps[k + 1] = steps[k]
            steps[k + 1, axis] += 1
        paths.append(steps)

    vertex_ids = {}
    coords = []
    tol = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))

    def vid(key):
        out = vertex_ids.get(key)
        if out is None:
            out = len(coords)
            vertex_ids[key] = out
            coords.append(rot @ (np.array(key, dtype=float) / m))
        return out

    cells = []
    ranges = [range(lat_lo[a], lat_hi[a]) for a in range(n)]
    for cube in itertools.product(*ranges):
        base = np.array(cube, dtype=int)
        for steps in paths:
            keys = [tuple(base + s) for s in steps]
            pts = np.array([coords[vid(k)] for k in keys])
            if np.all(pts >= lo - tol) and np.all(pts <= hi + tol):
                cells.append([vertex_ids[k] for k in keys])

    if not cells:
        raise MeshError("no cells inside the domain (domain too small for m)")

    vertices = np.array(coords)
    cells = np.array(cells, dtype=np.int64)
    used = np.unique(cells)
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = vertices[used]
    cells = remap[cells]

    if jitter > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        boundary_verts = _boundary_vertices(cells, n)
        mask = np.ones(len(vertices), dtype=bool)
        mask[list(boundary_verts)] = False
        disp = rng.uniform(-jitter / m, jitter / m, size=vertices.shape)
        vertices = vertices + disp * mask[:, None]

    return ReferenceMesh(n, m, rot, vertices, cells)


def _boundary_vertices(cells, n):
    counts = {}
    for cell in cells:
        for omit in range(n + 1):
            key = tuple(sorted(np.delete(cell, omit)))
            counts[key] = counts.get(key, 0) + 1
    out = set()
    for key, c in counts.items():
        if c == 1:
            out.update(key)
    return out
