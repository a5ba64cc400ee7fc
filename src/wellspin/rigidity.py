"""Incompatible matrix fields and their discrete curl.

A per-cell constant matrix field is generally not a gradient; its
distributional curl concentrates on the interior facets, with mass equal
to facet area times the tangential part of the jump. Restricting a
classified deformation gradient to one phase and multiplying by the
inverse well matrix produces exactly such a field: near a rotation inside
the phase, zero outside, with curl controlled by the phase boundary. The
empirical rigidity checks below compare the distance of a field to a
single rotation against its distance to all rotations plus its curl mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PWAffineField
from .numerics import ratio
from .wells import dist_to_son_batch, polar_rotation, rotation_2d


class RigidityError(ValueError):
    pass


@dataclass
class IncompatibleField:
    """Per-cell matrix field, optionally living on a mapped domain.

    map_matrix, when set, is the invertible matrix carrying the mesh into
    the domain the field belongs to; facet areas, normals and volumes are
    transformed by it whenever measures are computed, so the mesh itself
    is never rebuilt.
    """

    mesh: object
    values: np.ndarray
    map_matrix: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_cells, self.mesh.dim, self.mesh.dim):
            raise RigidityError("value array does not match the mesh")
        if not np.all(np.isfinite(self.values)):
            raise RigidityError("non-finite field values")

    def cell_volumes(self):
        if self.map_matrix is None:
            return self.mesh.volumes
        return abs(float(np.linalg.det(self.map_matrix))) * self.mesh.volumes


@dataclass
class CurlMeasure:
    facet_ids: np.ndarray
    per_facet: np.ndarray
    total: float


def _as_field(field):
    """An IncompatibleField as is, or the gradients of a PWAffineField."""
    if isinstance(field, PWAffineField):
        return IncompatibleField(mesh=field.mesh, values=field.gradients)
    return field


def _measure_geometry(field):
    """Interior facet areas, normals and tangent bases, transformed by the
    field's map when present.

    A hyperplane element with unit normal nu and area s maps to one with
    normal U^-T nu (normalized) and area s * det(U) * |U^-T nu|. For
    n = 2 the mapped tangent is the mapped normal turned by 90 degrees.
    """
    mesh = field.mesh
    ids = mesh.interior
    areas = np.take(mesh.facet_area, ids, axis=0)
    normals = np.take(mesh.facet_normal, ids, axis=0)
    tangents = np.take(mesh.facet_tangent, ids, axis=0)
    if field.map_matrix is None:
        return ids, areas, tangents
    u = field.map_matrix
    det = abs(float(np.linalg.det(u)))
    conormals = normals @ np.linalg.inv(u)  # rows nu^T U^-1 = (U^-T nu)^T
    stretch = np.linalg.norm(conormals, axis=1)
    mapped_normals = conormals / stretch[:, None]
    mapped_areas = areas * det * stretch
    if mesh.dim == 2:
        mapped_tangents = np.stack([-mapped_normals[:, 1], mapped_normals[:, 0]], axis=1)
        return ids, mapped_areas, mapped_tangents[:, :, None]
    _, _, vt = np.linalg.svd(mapped_normals[:, None, :])
    mapped_tangents = np.swapaxes(vt[:, 1:, :], 1, 2)
    return ids, mapped_areas, mapped_tangents


def _facet_jumps(field):
    """Interior facet ids, their (mapped) areas and tangent bases, and the
    field's jump across each, for both facet measures from one pass."""
    field = _as_field(field)
    ids, areas, tangents = _measure_geometry(field)
    a = field.mesh.facet_cells[ids, 0]
    b = field.mesh.facet_cells[ids, 1]
    return ids, areas, tangents, field.values[b] - field.values[a]


def _measure(ids, areas, jumps):
    """Facet masses area * |jump|_F as a facet measure."""
    masses = areas * np.linalg.norm(jumps, axis=(1, 2))
    return CurlMeasure(facet_ids=ids, per_facet=masses, total=float(masses.sum()))


def curl_total_variation(field):
    """Distributional curl of a piecewise-constant field as a facet measure.

    Each interior facet carries mass area * |jump restricted to the facet
    tangent space|_F; gradients of continuous piecewise-affine deformations
    have zero total mass.
    """
    ids, areas, tangents, jumps = _facet_jumps(field)
    return _measure(ids, areas, jumps @ tangents)


def build_reduced_field(field, labeling, well_index, wells):
    """Restrict a classified gradient to one phase and normalize the well:
    grad . U_j^-1 on cells labeled j, zero elsewhere, on the domain mapped
    by U_j."""
    uj = wells.matrices[well_index]
    uinv = np.linalg.inv(uj)
    values = np.where(
        (labeling.labels == well_index)[:, None, None],
        field.gradients @ uinv,
        0.0,
    )
    return IncompatibleField(mesh=field.mesh, values=values, map_matrix=uj)


def fitted_rotation(field):
    """Polar projection of the volume-weighted mean of the field."""
    vols = field.cell_volumes()
    mean = (field.values * vols[:, None, None]).sum(axis=0) / vols.sum()
    return polar_rotation(mean)


@dataclass
class RigidityReport:
    rotation: np.ndarray
    lhs: float
    dist_term: float
    curl_term: float
    rhs: float
    ratio: float
    p: float


def rigidity_ratio(field, p):
    """Empirical ratio for the one-rotation rigidity inequality.

    lhs integrates |A - R|^p against volume for the fitted rotation R; rhs
    is the same integral of dist(A, SO(n))^p plus the curl mass raised to
    n/(n-1). Using the fitted mean rotation instead of the optimal one
    only increases the lhs, so the reported ratio is conservative.
    """
    field = _as_field(field)
    n = field.mesh.dim
    # the critical exponent n/(n-1) itself is admitted: for n = 2 the
    # reference family runs exactly at p = 2
    if p < n / (n - 1):
        raise RigidityError(f"need p >= n/(n-1) = {n / (n - 1):.4f}, got {p}")
    rot = fitted_rotation(field)
    vols = field.cell_volumes()
    diff = np.linalg.norm(field.values - rot, axis=(1, 2))
    lhs = float((diff**p) @ vols)
    dist = dist_to_son_batch(field.values)
    dist_term = float((dist**p) @ vols)
    curl = curl_total_variation(field)
    curl_term = float(curl.total ** (n / (n - 1)))
    rhs = dist_term + curl_term
    return RigidityReport(
        rotation=rot,
        lhs=lhs,
        dist_term=dist_term,
        curl_term=curl_term,
        rhs=rhs,
        ratio=ratio(lhs, rhs),
        p=float(p),
    )


@dataclass
class BVReport:
    dv_total: float
    curl_total: float
    ratio: float
    facet_ids: np.ndarray
    per_facet_dv: np.ndarray
    per_facet_curl: np.ndarray


def bv_structure_check(field):
    """Compare the full discrete variation |DA| with the curl mass.

    For piecewise-constant fields with rotation-valued jumps the tangential
    jump can never vanish while the full jump does not, so the ratio stays
    finite; it is reported per facet for setwise checks.
    """
    ids, areas, tangents, jumps = _facet_jumps(field)
    dv = _measure(ids, areas, jumps)
    curl = _measure(ids, areas, jumps @ tangents)
    return BVReport(
        dv_total=dv.total,
        curl_total=curl.total,
        ratio=ratio(dv.total, curl.total),
        facet_ids=dv.facet_ids,
        per_facet_dv=dv.per_facet,
        per_facet_curl=curl.per_facet,
    )


def weak_norm_surrogate(magnitudes, volumes, dim, levels=64):
    """sup over t of t * |{|A| > t}|^((n-1)/n) on a logarithmic t-grid.

    The grid spans [1e-6, max magnitude]; a refinement of the level count
    must move the value by less than a few percent for the surrogate to be
    trusted (asserted by the test suite).
    """
    magnitudes = np.asarray(magnitudes, float)
    top = float(magnitudes.max(initial=0.0))
    if top <= 0.0:
        return 0.0
    lo = min(1e-6, top / 10.0)
    ts = np.geomspace(lo, top, levels)
    exponent = (dim - 1) / dim
    best = 0.0
    for t in ts:
        vol = float(volumes[magnitudes > t].sum())
        best = max(best, t * vol**exponent)
    return best


def weak_rigidity_ratio(field):
    """Weak-norm analogue of rigidity_ratio with the same conventions."""
    field = _as_field(field)
    n = field.mesh.dim
    rot = fitted_rotation(field)
    vols = field.cell_volumes()
    diff = np.linalg.norm(field.values - rot, axis=(1, 2))
    lhs = weak_norm_surrogate(diff, vols, n)
    dist = dist_to_son_batch(field.values)
    rhs = weak_norm_surrogate(dist, vols, n) + curl_total_variation(field).total
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio(lhs, rhs), "rotation": rot}


def random_block_values(rng, n_blocks):
    """Random near-rotation values on an n_blocks x n_blocks partition.

    Each block gets R(theta) (I + delta M) with theta within 0.6 of a
    common base angle, |M| = 1 and delta below 0.05; drawing the values
    separately from any mesh lets the same field be evaluated at several
    resolutions.
    """
    base = rng.uniform(0.0, 2.0 * np.pi)
    thetas = base + rng.uniform(-0.6, 0.6, (n_blocks, n_blocks))
    perturb = rng.uniform(-1.0, 1.0, (n_blocks, n_blocks, 2, 2))
    scale = np.linalg.norm(perturb, axis=(2, 3), keepdims=True)
    perturb = perturb / np.maximum(scale, 1e-12) * rng.uniform(
        0.0, 0.05, (n_blocks, n_blocks, 1, 1)
    )
    return rotation_2d(thetas) @ (np.eye(2) + perturb)


def field_from_blocks(mesh, block_values):
    """Assign each cell the value of the block of the unit box containing
    its barycenter."""
    n_blocks = block_values.shape[0]
    idx = np.clip((mesh.barycenters * n_blocks).astype(int), 0, n_blocks - 1)
    values = block_values[idx[:, 0], idx[:, 1]]
    return IncompatibleField(mesh=mesh, values=values)
