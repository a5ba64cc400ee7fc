"""Incompatible matrix fields and their discrete curl.

A per-cell constant matrix field is generally not a gradient; its
distributional curl concentrates on the interior facets, with mass equal
to facet area times the tangential part of the jump, the part whose
vanishing makes a deformation continuous: both come from one kernel,
fields.facet_jumps. Restricting a classified deformation gradient to one
phase and multiplying by the inverse well matrix produces exactly such a
field: near a rotation inside the phase, zero outside, with curl
carried by the phase boundary. phase_boundary_measures reads the curl and
full variation of every phase's reduced field in one facet pass, without
building them; build_reduced_field and bv_structure_check are its oracle.
The empirical rigidity checks below compare the distance of a field to a
single rotation against its distance to all rotations plus its curl mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PWAffineField, facet_jumps
from .numerics import entry_planes, ratio
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
    """A facet measure: per_facet holds the mass of each interior facet,
    in mesh.interior order, and total their sum."""

    per_facet: np.ndarray
    total: float


def _as_field(field):
    """An IncompatibleField as is, or the gradients of a PWAffineField."""
    if isinstance(field, PWAffineField):
        return IncompatibleField(mesh=field.mesh, values=field.gradients)
    return field


def _facet_jumps(field):
    """Interior facet areas, and the field's jumps and tangential jumps
    across them (fields.facet_jumps), in mesh.interior order, on the
    domain mapped by the field's map when present.

    A hyperplane element with unit normal nu and area s maps to one with
    normal U^-T nu (normalized) and area s * det(U) * |U^-T nu|.
    """
    field = _as_field(field)
    mesh, ids = field.mesh, field.mesh.interior
    areas, normals = np.take(mesh.facet_area, ids, axis=0), None
    u = field.map_matrix
    if u is not None:
        normals = np.take(mesh.facet_normal, ids, axis=0) @ np.linalg.inv(u)  # rows (U^-T nu)^T
        stretch = np.linalg.norm(normals, axis=1)
        normals /= stretch[:, None]
        areas = areas * abs(float(np.linalg.det(u))) * stretch
        del stretch  # free it before the kernel's peak
    return areas, *facet_jumps(mesh, field.values, normals)


def _measure(areas, jumps):
    """Facet masses area * |jump|_F as a facet measure."""
    masses = areas * np.linalg.norm(jumps, axis=(1, 2))
    return CurlMeasure(per_facet=masses, total=float(masses.sum()))


def curl_total_variation(field):
    """Distributional curl of a piecewise-constant field as a facet measure.

    Each interior facet carries mass area * |jump restricted to the facet
    tangent space|_F; gradients of continuous piecewise-affine deformations
    have zero total mass.
    """
    areas, _, tangential = _facet_jumps(field)
    return _measure(areas, tangential)


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


def _fit(field):
    """The polar rotation R of the field's volume-weighted mean, the cell
    volumes and |A - R| per cell."""
    vols = field.cell_volumes()
    mean = (field.values * vols[:, None, None]).sum(axis=0) / vols.sum()
    rot = polar_rotation(mean)
    return rot, vols, np.linalg.norm(field.values - rot, axis=(1, 2))


@dataclass
class RigidityReport:
    rotation: np.ndarray
    lhs: float
    rhs: float
    ratio: float
    p: float


# a p-th power past the float range is inf, which the rigidity-family gate
# ratios_finite reports
@np.errstate(over="ignore")
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
    rot, vols, diff = _fit(field)
    lhs = float((diff**p) @ vols)
    dist_term = float((dist_to_son_batch(field.values) ** p) @ vols)
    curl_term = float(curl_total_variation(field).total ** (n / (n - 1)))
    rhs = dist_term + curl_term
    return RigidityReport(rotation=rot, lhs=lhs, rhs=rhs, ratio=ratio(lhs, rhs), p=float(p))


@dataclass
class BVReport:
    dv: CurlMeasure
    curl: CurlMeasure
    ratio: float


def bv_structure_check(field):
    """Compare the full discrete variation |DA| with the curl mass.

    For piecewise-constant fields with rotation-valued jumps the tangential
    jump can never vanish while the full jump does not, so the ratio stays
    finite; both measures are kept per facet for setwise checks.
    """
    areas, jumps, tangential = _facet_jumps(field)
    dv, curl = _measure(areas, jumps), _measure(areas, tangential)
    return BVReport(dv=dv, curl=curl, ratio=ratio(dv.total, curl.total))


# interior facets per step of phase_boundary_measures, which bounds its
# transient memory: every mesh of m <= 128 (48,017 facets) is one step
_FACET_CHUNK = 2**16


def phase_boundary_measures(field, labeling, wells, phases):
    """(curl, dv) totals of each phase j's reduced field, those of
    bv_structure_check(build_reduced_field(field, labeling, j, wells)),
    read from one pass over the interior facets of an n = 2 field.

    On the domain mapped by U = U_j a facet of area s and tangent
    tau = (-n1, n0) has area s |U tau|, and the reduced field jumps by
    X U^-1 across it, with X the jump of chi_j G; its tangential part is
    X tau / |U tau|. So the curl mass is s |X tau|, which vanishes inside
    the phase, where G is the gradient of a continuous deformation, and
    is s |G_side tau| on the phase boundary, G_side the gradient on phase
    j's side: the curl is summed over the boundary facets only. The full
    variation sums s |U tau| |X U^-1|_F, entry by entry, over the boundary
    (X = G_side) and the facets inside the phase (X = [G]). The facet
    pairs, areas, normals and jumps [G] are gathered once for all phases,
    _FACET_CHUNK facets at a time.
    """
    mesh = field.mesh
    planes = [np.ascontiguousarray(p) for p in entry_planes(field.gradients)]
    per_phase = [(labeling.labels == j, wells.matrices[j], [0.0, 0.0]) for j in phases]
    for start in range(0, len(mesh.interior), _FACET_CHUNK):
        ids = mesh.interior[start : start + _FACET_CHUNK]
        a, b = (np.take(mesh.facet_cells[:, k], ids) for k in (0, 1))
        areas = np.take(mesh.facet_area, ids)
        n0, n1 = np.take(mesh.facet_normal, ids, axis=0).T
        jumps = [np.take(p, a) - np.take(p, b) for p in planes]
        for on, u, totals in per_phase:
            in_a, in_b = np.take(on, a), np.take(on, b)
            edge, inner = np.flatnonzero(in_a != in_b), np.flatnonzero(in_a & in_b)
            sides = [np.take(p, np.where(in_a[edge], a[edge], b[edge])) for p in planes]
            tau = (-n1[edge], n0[edge])
            totals[0] += _total(areas[edge], _apply(sides, tau))
            totals[1] += _variation(u, areas[edge], tau, sides) + _variation(
                u, areas[inner], (-n1[inner], n0[inner]), [np.take(x, inner) for x in jumps]
            )
    return [tuple(totals) for _, _, totals in per_phase]


def _apply(x, v):
    """X v for a 2 x 2 matrix X and a vector v, both given entry by entry."""
    x00, x01, x10, x11 = x
    return x00 * v[0] + x01 * v[1], x10 * v[0] + x11 * v[1]


def _total(areas, entries):
    """sum of area * |entries| over facets: numpy's sum, not a BLAS dot,
    which may start threads on long vectors."""
    return float((areas * np.sqrt(sum(e * e for e in entries))).sum())


def _variation(u, areas, tau, x):
    """sum of area |U tau| |X U^-1|_F over facets with tangents tau and
    values X, given entry by entry; X U^-1 is formed column by column."""
    w = np.linalg.inv(u)
    stretch = np.sqrt(sum(e * e for e in _apply(u.ravel(), tau)))
    return _total(areas * stretch, _apply(x, w[:, 0]) + _apply(x, w[:, 1]))


def weak_norm(magnitudes, volumes, dim):
    """sup over t > 0 of t * |{|A| > t}|^((n-1)/n), exactly.

    Between two magnitudes the level set is fixed and the product grows
    with t; as t rises to a magnitude a the level set is every cell of
    magnitude at least a. So with the magnitudes in decreasing order and
    V_i the volume of the first i + 1 of them, the supremum is the largest
    a_i * V_i^((n-1)/n). Within equal magnitudes the last has the largest
    volume, so ties need no grouping.
    """
    order = np.argsort(magnitudes)[::-1]
    volume = np.cumsum(np.take(volumes, order))
    return float(np.max(np.take(magnitudes, order) * volume ** ((dim - 1) / dim), initial=0.0))


def weak_rigidity_ratio(field):
    """Weak-norm analogue of rigidity_ratio with the same conventions.

    strong is the L^(n/(n-1)) norm of |A - R| for the same R and volumes,
    which by Chebyshev's inequality bounds its weak norm lhs.
    """
    field = _as_field(field)
    n = field.mesh.dim
    rot, vols, diff = _fit(field)
    lhs = weak_norm(diff, vols, n)
    strong = float((diff ** (n / (n - 1))) @ vols) ** ((n - 1) / n)
    dist = dist_to_son_batch(field.values)
    rhs = weak_norm(dist, vols, n) + curl_total_variation(field).total
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio(lhs, rhs), "rotation": rot, "strong": strong}


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
