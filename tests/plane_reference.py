"""The n = 2 kernels that the entry-plane layout replaced, kept as test
oracles.

Before the layout, n = 2 gradients were C-order (..., C, 2, 2) stacks:

- stack_vertex_gradients formed the four entries entry by entry on
  contiguous planes, as now, and stacked them into a C-order array;
- take_facet_jumps gathered whole (2, 2) values per facet with np.take
  along the cell axis and formed the tangential parts on strided views;
- take_residual is the continuity residual from those tangential parts;
- copy_dist_table copied every stack into four contiguous planes, filled
  a C-order (..., k) table column by column, and its distance kernel
  (expression_dist_2x2) wrote every step of the arithmetic into a fresh
  temporary.

The plane kernels do the same arithmetic in the same order, so each must
match its oracle byte for byte, whatever the layout of its input.
"""

import numpy as np


def stack_vertex_gradients(mesh, values):
    """C-order (..., C, 2, 2) gradients of vertex values (..., V, 2)."""
    i00, i01, i10, i11 = np.ascontiguousarray(mesh.inverse_edges.reshape(-1, 4).T)
    entries = []
    for plane in np.ascontiguousarray(np.moveaxis(values, -1, 0)):  # x, then y: (..., V)
        x0, x1, x2 = (np.take(plane, v, axis=-1) for v in np.ascontiguousarray(mesh.cells.T))
        d1, d2 = x1 - x0, x2 - x0
        entries += [d1 * i00 + d2 * i10, d1 * i01 + d2 * i11]
    return np.stack(entries, axis=-1).reshape(*values.shape[:-2], -1, 2, 2)


def take_facet_jumps(mesh, values, normals=None):
    """Jumps (..., F, 2, 2) of a (..., C, 2, 2) stack across the interior
    facets and their tangential parts (..., F, 2, 1), both C-order."""
    a, b = np.take(mesh.facet_cells, mesh.interior, axis=0).T
    jumps = np.take(values, a, axis=-3)
    jumps -= np.take(values, b, axis=-3)
    if normals is None:
        normals = np.take(mesh.facet_normal, mesh.interior, axis=0)
    n0, n1 = normals.T
    tangential = np.empty((*jumps.shape[:-1], 1))
    for i in range(2):  # row i of the jump times (-n1, n0)
        np.subtract(jumps[..., i, 1] * n0, jumps[..., i, 0] * n1, out=tangential[..., i, 0])
    return jumps, tangential


def take_residual(mesh, gradients):
    """Largest tangential jump length of each field of a stack, 0 on a
    mesh without interior facets."""
    if len(mesh.interior) == 0:
        return np.zeros(gradients.shape[:-3])[()]
    tangential = take_facet_jumps(mesh, gradients)[1]
    return np.hypot(tangential[..., 0, 0], tangential[..., 1, 0]).max(axis=-1)


def copy_dist_table(fs, mats):
    """C-order (..., k) distance table of a (..., 2, 2) stack."""
    planes = np.ascontiguousarray(fs.reshape(-1, 4).T)
    table = np.empty((planes.shape[1], len(mats)))
    for j, u in enumerate(mats.reshape(-1, 4).tolist()):
        table[:, j] = expression_dist_2x2(*planes, *u)
    return table.reshape(*fs.shape[:-2], len(mats))


def expression_dist_2x2(f00, f01, f10, f11, u00, u01, u10, u11):
    """min over rotations R of |F - R U|_F, entry by entry."""
    a = f00 * u00 + f01 * u01  # M00 + M11
    a += f10 * u10 + f11 * u11
    b = f10 * u00 + f11 * u01  # M10 - M01
    b -= f00 * u10 + f01 * u11
    r = np.hypot(a, b)
    tie = r == 0.0
    r[tie] = 1.0
    c = np.divide(a, r, out=a)
    c[tie] = 1.0
    s = np.divide(b, r, out=b)
    d2 = f00 - (c * u00 - s * u10)
    d2 *= d2
    e = f01 - (c * u01 - s * u11)
    d2 += e * e
    e = f10 - (s * u00 + c * u10)
    d2 += e * e
    e = f11 - (s * u01 + c * u11)
    d2 += e * e
    return np.sqrt(d2, out=d2)
