"""Piecewise-affine deformations on a simplicial mesh.

A deformation is stored through its per-cell constant gradient. Fields
built by sampling a continuous function at the vertices are continuous by
construction: their gradient jumps across any interior facet have no
tangential part. The multi-well energy integrates a density of the squared
distance to the wells exactly, cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import entry_planes, from_planes
from .wells import dist_table


class FieldError(ValueError):
    """Mismatched mesh/field data or invalid construction parameters."""


def facet_jumps(mesh, values, normals=None):
    """Jumps V_a - V_b of a (..., C, n, n) stack of per-cell values across
    the interior facets, (a, b) = facet_cells[interior], (..., F, n, n),
    and their tangential parts (V_a - V_b) T, (..., F, n, n-1).

    T is an orthonormal basis of each facet's tangent space: for n = 2 the
    unit normal turned back by 90 degrees, (-n1, n0), multiplied entry by
    entry, and both results are plane-backed (numerics.from_planes); for
    n = 3 the mesh's stored basis, or one from the SVD of the given
    normals. normals (F, n) replace the mesh's, as on a mapped domain.
    """
    cells = np.take(mesh.facet_cells, mesh.interior, axis=0).T  # (a, b)
    if mesh.dim == 2:
        if normals is None:
            normals = np.take(mesh.facet_normal, mesh.interior, axis=0)
        n0, n1 = normals.T
        jumps = np.empty((2, 2, *values.shape[:-3], len(mesh.interior)))
        tangential = np.empty((2, 1, *jumps.shape[2:]))
        for i in range(2):  # row i of the jump times (-n1, n0)
            j0, j1 = _jump_row(values, i, cells, jumps[i])
            np.subtract(j1 * n0, j0 * n1, out=tangential[i, 0])
        return from_planes(jumps), from_planes(tangential)
    a, b = cells
    jumps = np.take(values, a, axis=-3)
    jumps -= np.take(values, b, axis=-3)
    if normals is None:
        return jumps, jumps @ np.take(mesh.facet_tangent, mesh.interior, axis=0)
    _, _, vt = np.linalg.svd(normals[:, None, :])
    return jumps, jumps @ np.swapaxes(vt[:, 1:, :], 1, 2)


def _jump_row(values, i, cells, out):
    """Row i of the n = 2 jumps V_a - V_b across the interior facets, for
    (a, b) = cells, written into the two (..., F) planes of out."""
    a, b = cells
    for k, jump in enumerate(out):
        plane = np.ascontiguousarray(values[..., i, k])  # a copy unless plane-backed
        # in-range ids: "clip" takes straight into out, with no buffer
        np.take(plane, a, axis=-1, out=jump, mode="clip")
        jump -= np.take(plane, b, axis=-1)
    return out


def tangential_jump_residual(mesh, gradients):
    """Largest tangential gradient jump over interior facets, one per
    field of a (..., C, n, n) stack of per-cell gradients: the largest
    spectral norm of the tangential parts from facet_jumps, which vanish
    exactly when the per-cell gradients come from one continuous
    piecewise-affine deformation. For n = 2 that norm is the length of
    the single tangent column, formed row by row in three (..., F) planes.
    """
    if len(mesh.interior) == 0:
        return np.zeros(gradients.shape[:-3])[()]
    if mesh.dim != 2:
        tangential = facet_jumps(mesh, gradients)[1]
        return np.linalg.svd(tangential, compute_uv=False)[..., 0].max(axis=-1)
    cells = np.take(mesh.facet_cells, mesh.interior, axis=0).T
    n0, n1 = np.take(mesh.facet_normal, mesh.interior, axis=0).T
    j0, t0, t1 = np.empty((3, *gradients.shape[:-3], len(mesh.interior)))
    for i, t in enumerate((t0, t1)):  # row i's jumps, turned in place
        _jump_row(gradients, i, cells, (j0, t))
        t *= n0
        t -= np.multiply(j0, n1, out=j0)
    return np.hypot(t0, t1, out=t1).max(axis=-1)


def vertex_gradients(mesh, values):
    """Per-cell gradients (..., C, n, n) of the piecewise-affine
    interpolant of vertex values (..., V, n): each cell's differences
    v_k - v_0 times mesh.inverse_edges. For n = 2 that product is formed
    entry by entry (d1 i00 + d2 i10, ...) on contiguous (..., C) planes
    gathered from the x and y planes of the values, and the gradients are
    plane-backed (numerics.from_planes), the layout the n = 2 kernels
    read."""
    if mesh.dim != 2:
        cell_vals = np.take(values, mesh.cells, axis=-2)  # (..., C, n+1, n)
        du = np.swapaxes(cell_vals[..., 1:, :] - cell_vals[..., :1, :], -1, -2)
        return du @ mesh.inverse_edges
    inverse = entry_planes(mesh.inverse_edges)
    out = np.empty((2, 2, *values.shape[:-2], mesh.n_cells))
    x0, d1, d2 = np.empty((3, *out.shape[2:]))
    # x, then y: (..., V) planes of the values, into gradient rows 0 and 1
    for plane, row in zip(np.ascontiguousarray(np.moveaxis(values, -1, 0)), out):
        for v, x in zip(np.ascontiguousarray(mesh.cells.T), (x0, d1, d2)):
            np.take(plane, v, axis=-1, out=x, mode="clip")  # in-range ids: unbuffered
        d1 -= x0
        d2 -= x0
        for g, i0k, i1k in zip(row, inverse[:2], inverse[2:]):  # d1 i0k + d2 i1k
            np.multiply(d1, i0k, out=g)
            g += np.multiply(d2, i1k, out=x0)
    return from_planes(out)


def check_gradients(mesh, gradients, validate=True, ids=None):
    """Tangential residuals of a (C, n, n) gradient array, or one per
    field of a (B, C, n, n) stack, after checking each field in turn.

    A field fails when it has a non-finite entry or, with validate, when
    its residual exceeds 1e-9 times its largest gradient norm: it is then
    not the gradient of a continuous field. The first failing field
    raises FieldError; for a stack the message names it by its entry in
    ids (default: its index). Each test reads the entry planes, so a
    plane-backed stack is read plane by plane.
    """
    stack = gradients.reshape(-1, *gradients.shape[-3:])
    entries = entry_planes(stack)
    finite = np.logical_and.reduce([np.isfinite(p).all(axis=-1) for p in entries])
    # only the fields before the first non-finite one are measured
    n_ok = len(stack) if finite.all() else int(np.argmin(finite))
    residual = tangential_jump_residual(mesh, stack[:n_ok])
    problem = None if n_ok == len(stack) else (n_ok, "gradient array has non-finite entries")
    if validate:
        # the largest norm: the root of the largest square sum, in the norm's order
        scale = np.sqrt(sum(p[:n_ok] ** 2 for p in entries).max(axis=1))
        jumps = np.flatnonzero(residual > 1e-9 * np.maximum(scale, 1e-30))
        if len(jumps):
            k = jumps[0]
            problem = (
                k,
                "tangential jumps too large: not the gradient of a "
                f"continuous field (residual {residual[k]:.3e})",
            )
    if problem:
        k, text = problem
        if gradients.ndim > 3:
            text = f"field {k if ids is None else ids[k]}: {text}"
        raise FieldError(text)
    return residual.reshape(gradients.shape[:-3])[()]


class PWAffineField:
    """Gradient field of a continuous piecewise-affine deformation.

    The gradients are held as a read-only view and must not change after
    construction (nor may a caller write into the array it passed in), so
    the field keeps one (cells x wells) distance table for the last well
    set it was asked about (well_distances). The energy, the labels and
    the spin-lemma scan of a field all read that table.
    """

    def __init__(self, mesh, gradients, validate=True):
        gradients = np.asarray(gradients, dtype=float).view()
        gradients.flags.writeable = False
        if gradients.shape != (mesh.n_cells, mesh.dim, mesh.dim):
            raise FieldError("gradient array does not match the mesh")
        self.mesh = mesh
        self.gradients = gradients
        self.continuity_residual = check_gradients(mesh, gradients, validate)
        self._table_wells = None
        self._table = None

    @classmethod
    def from_vertex_function(cls, mesh, fn):
        """Interpolate fn: R^n -> R^n at the vertices and differentiate.

        fn must accept an (V, n) array and return (V, n) values.
        """
        values = np.asarray(fn(mesh.vertices), dtype=float)
        if values.shape != mesh.vertices.shape:
            raise FieldError("vertex function must map (V, n) to (V, n)")
        return cls(mesh, vertex_gradients(mesh, values))

    @classmethod
    def from_linear(cls, mesh, matrix):
        """The linear deformation x -> M x, with exact gradients."""
        matrix = np.asarray(matrix, dtype=float)
        grads = np.broadcast_to(matrix, (mesh.n_cells, mesh.dim, mesh.dim)).copy()
        return cls(mesh, grads)

    def rotated(self, rotation):
        """The field R o u (composition with a rotation of value space)."""
        return PWAffineField(self.mesh, np.asarray(rotation) @ self.gradients)

    def well_distances(self, wells):
        """Read-only (C, k) distances of each cell gradient to each well of
        a WellSet, computed on first use and kept for that well set."""
        if self._table_wells is not wells:
            self._table = dist_table(self.gradients, wells.matrices)
            self._table.flags.writeable = False
            self._table_wells = wells
        return self._table


@dataclass
class EnergyReport:
    """Cellwise energy accounting: the total is the exact sum of the
    per-cell contributions c1 * dist^2(grad, wells) * |T|."""

    total: float
    per_cell_dist2: np.ndarray


def evaluate_energy(field, wells, c1=1.0):
    """Integrate the multi-well energy c1 * dist^2(grad, wells) of a field.

    The gradient is constant per cell so the quadrature is exact.
    """
    if field.mesh.dim != wells.dim:
        raise FieldError("field and well set dimensions differ")
    dist2 = field.well_distances(wells).min(axis=1) ** 2
    total = float((c1 * dist2 * field.mesh.volumes).sum())
    return EnergyReport(total=total, per_cell_dist2=dist2)


def laminate_profile(t, volume_fraction, period, offset=0.0):
    """Scalar profile of a simple laminate.

    Piecewise linear and continuous with slope 0 on the first
    volume_fraction of each period and slope -1 on the rest.
    """
    t = np.asarray(t, dtype=float)
    k = np.floor((t - offset) / period)
    s = t - offset - k * period
    return -(1.0 - volume_fraction) * period * k - np.maximum(
        s - volume_fraction * period, 0.0
    )


def laminate_values(x, ui, a, b, volume_fraction, period, offset):
    """Values U_i x + a g(b . x) of a simple laminate at points x (V, n),
    with g its laminate_profile.

    The arrays ui (..., n, n), a and b (..., n) and the scalars or (...)
    arrays volume_fraction, period and offset describe one field per entry
    of the leading axes; the result is (..., V, n), and each field's values
    are the same as from its parameters alone.
    """
    vf, period, offset = (
        np.asarray(v, dtype=float)[..., None] for v in (volume_fraction, period, offset)
    )
    g = laminate_profile((x @ b[..., None])[..., 0], vf, period, offset)  # (..., V)
    return x @ np.swapaxes(ui, -1, -2) + g[..., None] * a[..., None, :]


def build_laminate(
    mesh, wells, connection, volume_fraction, period, offset=0.0, ripple=0.0
):
    """A continuous deformation alternating between the two wells of a
    twin across planes with the twin's normal.

    u(x) = U_i x + a g(b . x) with the laminate profile g, sampled at the
    mesh vertices and re-differentiated; cells crossed by a kink plane pick
    up transitional gradients, everything else sits exactly in a well.
    The period must resolve at least two cells per layer.

    ripple > 0 superposes a smooth displacement of amplitude ripple/m, so
    the family over m is a genuinely mesh-dependent low-energy sequence:
    the extra energy is O(m^-2) and the gradient converges at rate 1/m.
    """
    if not 0.0 < volume_fraction < 1.0:
        raise FieldError("volume_fraction must lie in (0, 1)")
    if period < 2.0 / mesh.m:
        raise FieldError("laminate period below two cells per layer")
    if mesh.dim != len(connection.b):
        raise FieldError("connection and mesh dimensions differ")
    ui = wells.matrices[connection.i]
    amp = ripple / mesh.m

    def displacement(x):
        if ripple == 0.0:
            return 0.0
        wave = 2.0 * np.pi * x[:, : min(2, x.shape[1])]
        out = np.zeros_like(x)
        out[:, 0] = np.sin(wave[:, 0])
        out[:, 1 % x.shape[1]] += np.cos(wave[:, -1])
        return amp * out

    def deformation(x):
        values = laminate_values(x, ui, connection.a, connection.b, volume_fraction, period, offset)
        return values + displacement(x)

    return PWAffineField.from_vertex_function(mesh, deformation)
