"""Structured simplicial meshes of the unit box.

Each lattice cube of side 1/m is subdivided into n! simplices along the
main diagonal (Kuhn subdivision), so the facet normal directions form a
fixed finite set and all shape constants are exact and independent of m.
The reference lattice may be rotated before clipping to the domain; cells
that straddle the boundary are dropped, so the effective domain is the
union of kept cells. Optional vertex jitter (interior vertices only)
exercises non-uniform but still conforming meshes.

Order contract (every CSV derived from a mesh depends on it): lattice cubes
are visited in row-major index order (last axis fastest), and within each
cube the n! simplices in itertools.permutations order of their step axes.
Cells are numbered in that visit order, cube-major then by permutation.
Vertices are numbered in the order of their first visit over all visits,
including visits of cells later dropped by the clip, with unused vertices
then removed. That order has a closed form: the lattice box has a one-cube
margin, so a kept lattice point p is first visited in the cube with low
corner p - (1, ..., 1), and the kept vertices come in increasing row-major
index of their lattice points. Facets are numbered in first-visit order
over (cell, omitted vertex) visits, and facet_cells[:, 0] is a facet's
first cell. That order has a closed form too: the facet a cell leaves out
of its path has one other possible visitor in the Kuhn grid (_kuhn_facets),
and a visit comes first unless that partner is kept and earlier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .wells import rotation_2d


class MeshError(ValueError):
    """Invalid mesh construction parameters."""


class MeshResourceError(MeshError):
    """Requested mesh exceeds the configured cell budget."""


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


@dataclass
class IncompatibilityReport:
    ok: bool
    worst_alignment: float
    delta0: float
    offenders: list = field(default_factory=list)


@dataclass
class AdmissibleRotation:
    rotation: np.ndarray
    angle: float
    margin: float


def _batched_det(a):
    """Determinants by explicit cofactor expansion for n <= 3.

    LU-based determinants are not exact under power-of-two rescaling of the
    input, which would break the exact scale invariance of mesh constants;
    the explicit formulas are.
    """
    k = a.shape[-1]
    if k == 1:
        return a[..., 0, 0]
    if k == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if k == 3:
        return (
            a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
            - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
            + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
        )
    return np.linalg.det(a)


def kuhn_reference_normals(n):
    """The n(n+1)/2 distinct facet normal directions of the reference
    Kuhn mesh: axis normals e_i and diagonal normals (e_i - e_j)/sqrt(2)."""
    eye = np.eye(n)
    pairs = itertools.combinations(range(n), 2)
    return np.array([*eye, *[(eye[i] - eye[j]) / np.sqrt(2.0) for i, j in pairs]])


class SimplicialMesh:
    """Simplicial mesh with full facet geometry.

    Arrays:
      vertices      (V, n) float
      cells         (C, n+1) int vertex indices
      volumes       (C,) float
      barycenters   (C, n) float
      inverse_edges (C, n, n) float inverses of the edge matrices with
                    columns v_k - v_0, k = 1..n; a vertex field's
                    differences times these give its cell gradients
      facet_vertices (F, n) int, increasing
      facet_area    (F,) float
      facet_normal  (F, n) float, oriented away from facet_cells[:, 0]; for
                    n = 2 the facet edge turned by 90 degrees, no SVD
      facet_tangent (F, n, n-1) float orthonormal tangent basis; for n = 2
                    the oriented normal turned back by 90 degrees, (-n1, n0)
      facet_cells   (F, 2) int, second entry -1 on the domain boundary

    omit[f], given with the facets, is the position in
    cells[facet_cells[f, 0]] of the vertex that facet f leaves out.
    """

    def __init__(
        self, dim, m, lattice_rotation, vertices, cells, facet_vertices, facet_cells, omit
    ):
        self.dim = dim
        self.m = m
        self.lattice_rotation = np.asarray(lattice_rotation, float)
        self.vertices = vertices
        self.cells = cells
        self.facet_vertices = facet_vertices
        self.facet_cells = facet_cells
        self.interior = np.nonzero(facet_cells[:, 1] >= 0)[0]
        self.boundary = np.nonzero(facet_cells[:, 1] < 0)[0]
        self._compute_facet_geometry(omit, self._compute_cell_geometry())
        self._constants = None

    # -- construction helpers -------------------------------------------

    def _compute_cell_geometry(self):
        """Volumes, barycenters and edge inverses; returns the determinants."""
        n = self.dim
        # np.take gathers rows several times faster than fancy indexing
        verts = np.take(self.vertices, self.cells, axis=0)  # (C, n+1, n)
        edges = verts[:, 1:, :] - verts[:, :1, :]  # (C, n, n)
        # added in vertex order, as mean(axis=1) adds them
        total = verts[:, 0] + verts[:, 1]
        for k in range(2, n + 1):
            total += verts[:, k]
        del verts
        self.barycenters = total / (n + 1)
        dets = _batched_det(edges)
        self.volumes = np.abs(dets) / math.factorial(n)
        if np.any(self.volumes <= 0):
            raise MeshError("degenerate cell with zero volume")
        # inverses of the edge matrices with columns v_k - v_0, the
        # transposes of edges; their determinants are dets, byte for byte
        if n == 2:
            adj = np.stack([edges[:, 1, 1], -edges[:, 1, 0], -edges[:, 0, 1], edges[:, 0, 0]], axis=1)
            self.inverse_edges = adj.reshape(-1, 2, 2) / dets[:, None, None]
        else:
            self.inverse_edges = np.linalg.inv(np.swapaxes(edges, 1, 2))
        return dets

    def _compute_facet_geometry(self, omit, dets):
        n = self.dim
        first = self.facet_cells[:, 0]
        pts = np.take(self.vertices, self.facet_vertices, axis=0)  # (F, n, n)
        edges = pts[:, 1:, :] - pts[:, :1, :]  # (F, n-1, n)
        if n == 2:
            del pts  # only n = 3 reads it again: free it before the peak
        gram = edges @ np.swapaxes(edges, 1, 2)
        self.facet_area = np.sqrt(np.abs(_batched_det(gram))) / math.factorial(n - 1)
        if n == 2:
            # the edge turned by 90 degrees, which points away from the
            # first cell when that cell, with the omitted vertex moved
            # last, turns counterclockwise: omit 0 and 2 keep the cell's
            # vertex order, omit 1 swaps it. Dividing by -area negates.
            flip = (dets[first] > 0) == (omit == 1)
            normals = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
            normals /= np.where(flip, -self.facet_area, self.facet_area)[:, None]
            # the oriented normal turned back by 90 degrees
            tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)[:, :, None]
        else:
            _, _, vt = np.linalg.svd(edges)
            normals = vt[:, -1, :]  # (F, n)
            tangents = np.swapaxes(vt[:, : n - 1, :], 1, 2)  # (F, n, n-1)
            # the SVD sign is arbitrary: orient away from the vertex the
            # facet leaves out of its first cell
            fbary = pts.mean(axis=1)
            opposite = self.vertices[self.cells[first, omit]]
            flip = np.einsum("fi,fi->f", normals, fbary - opposite) < 0
            normals[flip] = -normals[flip]
        self.facet_normal = normals
        self.facet_tangent = tangents

    # -- queries ---------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def effective_volume(self):
        return float(self.volumes.sum())

    @property
    def constants(self):
        if self._constants is None:
            n = self.dim
            # the largest squared edge length over the n(n+1)/2 vertex
            # pairs of each cell, one pair at a time to bound memory
            d2 = np.zeros(self.n_cells)
            for i, j in itertools.combinations(range(n + 1), 2):
                edge = self.vertices[self.cells[:, i]] - self.vertices[self.cells[:, j]]
                d2 = np.maximum(d2, (edge**2).sum(-1))
            diam = np.sqrt(d2)
            # each cell's n+1 facet areas, added in increasing facet id as a
            # loop over facets adds them, which fixes the rounding
            owner = np.concatenate([self.facet_cells[:, 0], self.facet_cells[self.interior, 1]])
            fid = np.concatenate([np.arange(len(self.facet_area)), self.interior])
            areas = self.facet_area[fid[np.lexsort((fid, owner))]].reshape(self.n_cells, n + 1)
            surf = areas[:, 0].copy()
            for k in range(1, n + 1):
                surf += areas[:, k]
            inradius = n * self.volumes / surf
            self._constants = MeshConstants(
                vol_lower=float(self.volumes.min() * self.m**n),
                vol_upper=float(self.volumes.max() * self.m**n),
                inradius_lower=float((inradius * self.m).min()),
                diameter_upper=float((diam * self.m).max()),
            )
        return self._constants

    def normal_directions(self):
        """Distinct facet normal directions as unit vectors.

        Signs are canonical (first sizable component positive); vectors are
        deduplicated on 10 decimals but returned unrounded (the first facet's
        vector of each key), sorted by the rounded key for determinism.
        """
        v = self.facet_normal
        sizable = np.abs(v) > 1e-9
        lead = v[np.arange(len(v)), np.argmax(sizable, axis=1)]
        canon = np.where(((lead < 0) & sizable.any(axis=1))[:, None], -v, v)
        # -0.0 and 0.0 make one key, as they do in a dict of tuples
        _, idx = np.unique(np.round(canon, 10) + 0.0, axis=0, return_index=True)
        return canon[idx]


# default cell budget of build_kuhn_mesh
MAX_CELLS = 4_000_000


def _lattice_box(m, rot):
    """Integer lattice box around the unit box in rotated lattice
    coordinates at scale m, one cube wider on every side, and the cell
    count of its Kuhn cubes."""
    n = len(rot)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    lat_corners = corners @ rot * m  # R^T c * m, rowwise
    lat_lo = np.floor(lat_corners.min(axis=0)).astype(int) - 1
    lat_hi = np.ceil(lat_corners.max(axis=0)).astype(int) + 1
    cells = math.prod(int(s) for s in lat_hi - lat_lo) * math.factorial(n)
    return lat_lo, lat_hi, cells


def kuhn_cell_estimate(n, m, lattice_rotation=None):
    """The cell estimate that build_kuhn_mesh checks against its budget."""
    rot = np.eye(n) if lattice_rotation is None else np.asarray(lattice_rotation, dtype=float)
    return _lattice_box(m, rot)[2]


def build_kuhn_mesh(n, m, lattice_rotation=None, jitter=0.0, rng=None, max_cells=MAX_CELLS):
    """Build the Kuhn mesh of the unit box [0, 1]^n at scale 1/m.

    The reference lattice is rotated by lattice_rotation (an element of
    SO(n)) before clipping: cells with any vertex outside the closed box
    are dropped. jitter, in units of 1/m and at most 0.2, displaces
    interior vertices uniformly; the mesh stays conforming because cells
    share the moved vertices.
    """
    if m < 2:
        raise MeshError("need m >= 2")
    if lattice_rotation is None:
        rot = np.eye(n)
    else:
        rot = np.asarray(lattice_rotation, dtype=float)
        if np.linalg.norm(rot.T @ rot - np.eye(n)) > 1e-10 or np.linalg.det(rot) < 0:
            raise MeshError("lattice_rotation must be a rotation")
    if jitter < 0 or jitter > 0.2:
        raise MeshError("jitter must lie in [0, 0.2] (units of 1/m)")

    lat_lo, lat_hi, est_cells = _lattice_box(m, rot)
    if est_cells > max_cells:
        raise MeshResourceError(
            f"estimated {est_cells} cells exceeds budget {max_cells}"
        )

    # a lattice point is one int64 in mixed radix over the keys lat_lo ..
    # lat_hi, so a step from a cube's low corner adds a fixed code
    size = lat_hi - lat_lo + 1
    radix = np.array([np.prod(size[a + 1 :]) for a in range(n)], dtype=np.int64)
    grids = np.meshgrid(*[np.arange(s - 1) for s in size], indexing="ij")
    cube_codes = sum(g.reshape(-1) * r for g, r in zip(grids, radix))
    perms = np.array(list(itertools.permutations(range(n))))
    steps = np.cumsum(radix[perms], axis=1)  # along each permutation's path
    path_codes = np.hstack([np.zeros((len(perms), 1), dtype=np.int64), steps])
    cells = (cube_codes[:, None] + path_codes.reshape(-1)).reshape(-1, n + 1)
    del grids, cube_codes

    # every lattice point once, clipped on its own; a cell is kept when all
    # of its points are inside
    keys = np.arange(math.prod(int(s) for s in size))[:, None] // radix % size + lat_lo
    points = (rot[None] @ (keys / m)[:, :, None])[:, :, 0]
    del keys
    inside = np.all((points >= -1e-12) & (points <= 1.0 + 1e-12), axis=1)
    kept = inside[cells[:, 0]]
    for k in range(1, n + 1):
        kept &= inside[cells[:, k]]
    cells = np.compress(kept, cells, axis=0)
    if not len(cells):
        raise MeshError("no cells inside the domain (domain too small for m)")

    # a kept point p is first visited in the cube whose low corner is
    # p - (1, ..., 1), inside the box by its one-cube margin, as the last
    # vertex of the first permutation: first-visit order is code order
    used = np.zeros(len(points), dtype=bool)
    used[cells] = True
    vertices = np.compress(used, points, axis=0)
    cells = (np.cumsum(used) - 1)[cells]
    del points, inside, used
    facet_vertices, facet_cells, omit = _kuhn_facets(perms, size - 1, kept, cells)

    if jitter > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        # the vertices of boundary facets stay where they are
        mask = np.ones(len(vertices), dtype=bool)
        mask[facet_vertices[facet_cells[:, 1] < 0]] = False
        disp = rng.uniform(-jitter / m, jitter / m, size=vertices.shape)
        vertices = vertices + disp * mask[:, None]

    return SimplicialMesh(n, m, rot, vertices, cells, facet_vertices, facet_cells, omit)


def _kuhn_facets(perms, cubes, kept, cells):
    """(facet_vertices, facet_cells, omit) of the kept cells, in first-visit
    order. kept marks the candidate cells, cube-major over a row-major grid
    of shape cubes, then in perms order. The facet that a visit (cube z,
    permutation p, omitted vertex j) leaves has one possible other visitor:
    for 0 < j < n cube z, p with entries j - 1 and j swapped, omitting j;
    for j = 0 cube z + e_p[0], p rotated left, omitting n; for j = n cube
    z - e_p[n-1], p rotated right, omitting 0."""
    count, k = perms.shape[0], perms.shape[1] + 1
    n = k - 1
    cube_radix = [math.prod(int(c) for c in cubes[a + 1 :]) * count for a in range(n)]
    index = {p: i for i, p in enumerate(map(tuple, perms.tolist()))}
    # the candidate-index step from a visit to its partner
    step = np.empty((count, k), dtype=np.int64)
    for i, p in enumerate(index):
        for j in range(1, n):
            step[i, j] = index[p[: j - 1] + (p[j], p[j - 1]) + p[j + 1 :]] - i
        step[i, 0] = index[p[1:] + p[:1]] - i + cube_radix[p[0]]
        step[i, n] = index[p[-1:] + p[:-1]] - i - cube_radix[p[-1]]
    # kept-cell id of each candidate, -1 if dropped; a kept cell has no
    # vertex on the box's outer layer of points, so its partners' cubes
    # lie in the grid and no step wraps a row
    cell_ids = np.cumsum(kept) - 1
    cell_ids[~kept] = -1
    candidate = np.nonzero(kept)[0]
    partner = cell_ids[candidate[:, None] + np.take(step, candidate % count, axis=0)]
    # a visit is its facet's first unless its partner is kept and earlier
    visit = np.flatnonzero((partner < 0) | (partner > np.arange(len(partner))[:, None]))
    omit = visit % k
    facet_cells = np.stack([visit // k, partner.reshape(-1)[visit]], axis=1)
    # path codes, and so vertex ids, rise along a cell's row
    keep = np.array([[j for j in range(k) if j != o] for o in range(k)])
    facet_vertices = cells.reshape(-1)[(visit - omit)[:, None] + np.take(keep, omit, axis=0)]
    return facet_vertices, facet_cells, omit


def check_incompatibility(mesh, wells, delta0):
    """Report whether every facet normal keeps the margin delta0 from
    every twin normal of the well set: |b_facet . b_twin| <= 1 - delta0.

    A pure report; experiment drivers decide whether to refuse to run.
    """
    twins = wells.twin_normals()
    if not twins:
        return IncompatibilityReport(ok=True, worst_alignment=0.0, delta0=delta0)
    normals = mesh.normal_directions()
    twins = np.array(twins)
    align = np.minimum(np.abs(normals @ twins.T), 1.0)
    worst = float(align.max())
    offenders = [
        {
            "facet_normal": normals[fi].tolist(),
            "twin_normal": twins[ti].tolist(),
            "alignment": float(align[fi, ti]),
        }
        for fi, ti in np.argwhere(align > 1.0 - delta0)
    ]
    return IncompatibilityReport(worst <= 1.0 - delta0, worst, delta0, offenders)


def find_admissible_rotation(wells):
    """The lattice rotation (n = 2) maximizing the incompatibility margin,
    min over (facet normal, twin normal) pairs of 1 - |b . b_twin|.

    A reference normal at angle r_k, turned by phi, is most aligned with a
    twin normal at angle t_j when phi meets t_j - r_k modulo pi, so the
    best phi is the midpoint of the largest gap between the points
    (t_j - r_k) mod pi on the period [0, pi). Midpoints whose margin lies
    within 4 eps of the best tie, and the smallest angle wins. Without any
    twin connections the identity rotation has full margin 1.
    """
    if wells.dim != 2:
        raise MeshError("rotation search implemented for n = 2")
    twins = np.array(wells.twin_normals())
    if len(twins) == 0:
        return AdmissibleRotation(rotation=np.eye(2), angle=0.0, margin=1.0)
    ref = kuhn_reference_normals(2)
    angles = np.arctan2(twins[:, 1], twins[:, 0])[:, None] - np.arctan2(ref[:, 1], ref[:, 0])
    points = np.sort(angles.ravel() % np.pi)
    mids = np.sort((points + np.diff(points, append=points[0] + np.pi) / 2.0) % np.pi)

    c, s = np.cos(mids), np.sin(mids)
    # rotated reference normals, shape (A, 3, 2)
    rn = np.empty((len(mids), len(ref), 2))
    rn[..., 0] = c[:, None] * ref[None, :, 0] - s[:, None] * ref[None, :, 1]
    rn[..., 1] = s[:, None] * ref[None, :, 0] + c[:, None] * ref[None, :, 1]
    margins = 1.0 - np.abs(np.einsum("afi,ti->aft", rn, twins)).max(axis=(1, 2))
    # the smallest midpoint angle among the ties
    k = int(np.argmax(margins >= margins.max() - 4.0 * np.finfo(float).eps))
    if margins[k] <= 0.0:
        raise MeshError("no rotation with positive incompatibility margin found")
    return AdmissibleRotation(
        rotation=rotation_2d(mids[k]), angle=float(mids[k]), margin=float(margins[k])
    )
