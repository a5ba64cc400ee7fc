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
then removed. Facets are numbered in first-visit order over (cell, omitted
vertex) pairs; facet_cells[:, 0] is the first cell to visit a facet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import golden_min
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
    normals = [np.eye(n)[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = np.zeros(n)
            v[i], v[j] = 1.0, -1.0
            normals.append(v / np.sqrt(2.0))
    return np.array(normals)


class SimplicialMesh:
    """Simplicial mesh with full facet geometry.

    Arrays:
      vertices      (V, n) float
      cells         (C, n+1) int vertex indices
      volumes       (C,) float
      barycenters   (C, n) float
      facet_vertices (F, n) int
      facet_area    (F,) float
      facet_normal  (F, n) float, oriented away from facet_cells[:, 0]; for
                    n = 2 the facet edge turned by 90 degrees, no SVD
      facet_tangent (F, n, n-1) float orthonormal tangent basis; for n = 2
                    the oriented normal turned back by 90 degrees, (-n1, n0)
      facet_cells   (F, 2) int, second entry -1 on the domain boundary
    """

    def __init__(self, dim, m, domain, lattice_rotation, vertices, cells):
        self.dim = dim
        self.m = m
        self.domain = (np.asarray(domain[0], float), np.asarray(domain[1], float))
        self.lattice_rotation = np.asarray(lattice_rotation, float)
        self.vertices = vertices
        self.cells = cells
        self._compute_cell_geometry()
        self._compute_facet_geometry(self._build_facets())
        self._constants = None
        self._inverse_edges = None

    # -- construction helpers -------------------------------------------

    def _compute_cell_geometry(self):
        verts = self.vertices[self.cells]  # (C, n+1, n)
        edges = verts[:, 1:, :] - verts[:, :1, :]  # (C, n, n)
        dets = _batched_det(edges)
        self.volumes = np.abs(dets) / math.factorial(self.dim)
        if np.any(self.volumes <= 0):
            raise MeshError("degenerate cell with zero volume")
        self.barycenters = verts.mean(axis=1)

    def _build_facets(self):
        """Facet arrays in first-visit order; returns the vertex opposite
        each facet in its first cell."""
        n = self.dim
        visits, first, inverse, counts = _facet_visits(self.cells, len(self.vertices))
        if np.any(counts > 2):
            raise MeshError("facet shared by more than two cells")
        fc = np.full((len(first), 2), -1, dtype=np.int64)
        fc[:, 0] = first // (n + 1)
        # with at most two visits per facet, a visit that is not its
        # facet's first is the only second one
        second = np.nonzero(first[inverse] != np.arange(len(visits)))[0]
        fc[inverse[second], 1] = second // (n + 1)
        self.facet_vertices = visits[first]
        self.facet_cells = fc
        self.interior = np.nonzero(fc[:, 1] >= 0)[0]
        self.boundary = np.nonzero(fc[:, 1] < 0)[0]
        # visit c*(n+1) + omit leaves out vertex cells[c, omit]
        return self.cells.reshape(-1)[first]

    def _compute_facet_geometry(self, opposite):
        n = self.dim
        pts = self.vertices[self.facet_vertices]  # (F, n, n)
        edges = pts[:, 1:, :] - pts[:, :1, :]  # (F, n-1, n)
        gram = edges @ np.swapaxes(edges, 1, 2)
        self.facet_area = np.sqrt(np.abs(_batched_det(gram))) / math.factorial(n - 1)
        if n == 2:
            # the edge turned by 90 degrees; facet_area is the edge length
            normals = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
            normals /= self.facet_area[:, None]
        else:
            _, _, vt = np.linalg.svd(edges)
            normals = vt[:, -1, :]  # (F, n)
            tangents = np.swapaxes(vt[:, : n - 1, :], 1, 2)  # (F, n, n-1)
        # orient away from the opposite vertex of the first adjacent cell
        fbary = pts.mean(axis=1)
        flip = np.einsum("fi,fi->f", normals, fbary - self.vertices[opposite]) < 0
        normals[flip] = -normals[flip]
        if n == 2:
            # the oriented normal turned back by 90 degrees
            tangents = np.stack([-normals[:, 1], normals[:, 0]], axis=1)[:, :, None]
        self.facet_normal = normals
        self.facet_tangent = tangents

    # -- queries ---------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def facet_barycenters(self):
        return self.vertices[self.facet_vertices].mean(axis=1)

    @property
    def effective_volume(self):
        return float(self.volumes.sum())

    @property
    def inverse_edges(self):
        """(C, n, n) inverses of the edge matrices whose columns are
        v_k - v_0, k = 1..n; a vertex field's differences times these give
        its cell gradients."""
        if self._inverse_edges is None:
            verts = self.vertices[self.cells]
            dv = np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)
            self._inverse_edges = np.linalg.inv(dv)
        return self._inverse_edges

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
    visits = (cube_codes[:, None] + path_codes.reshape(-1)).reshape(-1)

    # vertices numbered by first visit, visits of clipped cells included
    first, inverse, _ = _first_visit_groups(visits)
    keys = visits[first][:, None] // radix % size + lat_lo
    vertices = (rot[None] @ (keys / m)[:, :, None])[:, :, 0]
    cells = inverse.reshape(-1, n + 1)

    pts = vertices[cells]
    cells = cells[np.all((pts >= -1e-12) & (pts <= 1.0 + 1e-12), axis=(1, 2))]
    if not len(cells):
        raise MeshError("no cells inside the domain (domain too small for m)")

    used = np.unique(cells)
    remap = -np.ones(len(vertices), dtype=np.int64)
    remap[used] = np.arange(len(used))
    vertices = vertices[used]
    cells = remap[cells]

    if jitter > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        # boundary vertices lie on facets that only one cell visits
        visits, first, _, counts = _facet_visits(cells, len(vertices))
        mask = np.ones(len(vertices), dtype=bool)
        mask[visits[first[counts == 1]]] = False
        disp = rng.uniform(-jitter / m, jitter / m, size=vertices.shape)
        vertices = vertices + disp * mask[:, None]

    return SimplicialMesh(n, m, (np.zeros(n), np.ones(n)), rot, vertices, cells)


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


def check_incompatibility(mesh, wells, delta0):
    """Report whether every facet normal keeps the margin delta0 from
    every twin normal of the well set: |b_facet . b_twin| <= 1 - delta0.

    A pure report; experiment drivers decide whether to refuse to run.
    """
    if wells.connections is None:
        raise MeshError("solve rank-one connections before checking the mesh")
    twins = [c.b for c in wells.connections]
    if not twins:
        return IncompatibilityReport(ok=True, worst_alignment=0.0, delta0=delta0)
    normals = mesh.normal_directions()
    twins = np.array(twins)
    align = np.minimum(np.abs(normals @ twins.T), 1.0)
    worst = float(align.max())
    offenders = []
    bad = np.argwhere(align > 1.0 - delta0)
    for fi, ti in bad:
        offenders.append(
            {
                "facet_normal": normals[fi].tolist(),
                "twin_normal": twins[ti].tolist(),
                "alignment": float(align[fi, ti]),
            }
        )
    return IncompatibilityReport(
        ok=worst <= 1.0 - delta0,
        worst_alignment=worst,
        delta0=delta0,
        offenders=offenders,
    )


def find_admissible_rotation(wells, angle_grid_size=4096):
    """Search lattice rotations (n = 2) maximizing the incompatibility
    margin min over (facet normal, twin normal) pairs of 1 - |b . b_twin|.

    Scans angles in [0, pi/2) and polishes the best candidate. Without any
    twin connections the identity rotation has full margin 1.
    """
    if wells.dim != 2:
        raise MeshError("rotation search implemented for n = 2")
    if wells.connections is None:
        raise MeshError("solve rank-one connections before searching rotations")
    twins = np.array([c.b for c in wells.connections])
    if len(twins) == 0:
        return AdmissibleRotation(
            rotation=np.eye(2),
            angle=0.0,
            margin=1.0,
        )
    ref = kuhn_reference_normals(2)

    angles = np.linspace(0.0, np.pi / 2.0, angle_grid_size, endpoint=False)

    def margin_of(phi_arr):
        c, s = np.cos(phi_arr), np.sin(phi_arr)
        # rotated reference normals, shape (A, 3, 2)
        rn = np.empty((len(phi_arr), len(ref), 2))
        rn[..., 0] = c[:, None] * ref[None, :, 0] - s[:, None] * ref[None, :, 1]
        rn[..., 1] = s[:, None] * ref[None, :, 0] + c[:, None] * ref[None, :, 1]
        align = np.abs(np.einsum("afi,ti->aft", rn, twins))
        return 1.0 - align.max(axis=(1, 2))

    margins = margin_of(angles)
    best = int(np.argmax(margins))
    step = (np.pi / 2.0) / angle_grid_size
    phi_star, neg_margin = golden_min(
        lambda p: -float(margin_of(np.array([p]))[0]),
        angles[best] - step,
        angles[best] + step,
    )
    margin = -neg_margin
    if margin <= 0.0:
        raise MeshError("no rotation with positive incompatibility margin found")
    return AdmissibleRotation(
        rotation=rotation_2d(phi_star),
        angle=float(phi_star),
        margin=float(margin),
    )
