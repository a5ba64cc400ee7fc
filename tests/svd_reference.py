"""The SVD code that the closed-form n = 2 kernels of wellspin replaced.

Kept as a test oracle. For 2x2 input the closed forms must agree with it
to round-off (the rotations, the distances and the tangential residuals);
for n = 3, where wellspin still runs the SVD, they must agree byte for
byte.

matmul_dist_to_single_well_batch is the batched-matmul form of the n = 2
closed form that the entry-by-entry distance table replaced. On diagonal
wells every product of M = F U^T and of R U is exact, so the table must
match it byte for byte there.

broadcast_dist_pairs is the entry-by-entry kernel on strided views of
(..., 2, 2) arrays that the kernel on contiguous planes replaced; the
plane kernel does the same arithmetic in the same order, so it must
match byte for byte. matmul_vertex_gradients is the batched matmul that
the entry-wise n = 2 vertex gradients replaced: they agree to round-off
for n = 2 and byte for byte for n = 3, which still runs the matmul.

The facet-jump kernel (fields.facet_jumps) replaced two passes. The
continuity residual multiplied the jumps by a tangent that the n = 2 mesh
stored (stored_tangent_residual), and the curl measures took mapped
tangent bases and one batched matmul (matmul_facet_masses). Against
them the residual must match byte for byte, and the facet masses byte
for byte for n = 3 and to round-off for n = 2.
"""

import numpy as np


def polar_rotation(m):
    """Frobenius-nearest rotation: the SVD with the smallest singular
    direction flipped when det(U V^T) < 0."""
    m = np.asarray(m, dtype=float)
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    if d == 0:
        d = 1.0
    flip = np.ones(m.shape[0])
    flip[-1] = d
    return (u * flip) @ vt


def dist_to_son_batch(fs):
    """||sigma - 1||_2 with the smallest singular value sign-flipped
    where det < 0."""
    fs = np.asarray(fs, dtype=float)
    sigma = np.linalg.svd(fs, compute_uv=False)
    neg = np.linalg.det(fs) < 0
    sigma = sigma.copy()
    sigma[neg, -1] = -sigma[neg, -1]
    return np.linalg.norm(sigma - 1.0, axis=-1)


def procrustes_rotation_batch(ms):
    """argmax over Q in SO(n) of tr(Q^T M) from the SVD, with the last
    column of U flipped where det M < 0."""
    u, _, vt = np.linalg.svd(ms)
    sign = np.where(np.linalg.det(ms) < 0, -1.0, 1.0)
    u = u.copy()
    u[..., :, -1] *= sign[..., None]
    return u @ vt


def dist_to_single_well_batch(fs, u):
    """|F - R U|_F at the SVD rotation R."""
    fs = np.asarray(fs, dtype=float)
    u = np.asarray(u, dtype=float)
    rot = procrustes_rotation_batch(fs @ u.T)
    return np.linalg.norm(fs - rot @ u, axis=(-2, -1))


def matmul_dist_to_single_well_batch(fs, u):
    """|F - R U|_F at the closed-form rotation of M = F U^T, with batched
    2x2 matmuls and np.linalg.norm."""
    fs = np.asarray(fs, dtype=float)
    u = np.asarray(u, dtype=float)
    m = fs @ u.T
    a, b = m[..., 0, 0] + m[..., 1, 1], m[..., 1, 0] - m[..., 0, 1]
    r = np.hypot(a, b)
    tie = r == 0.0
    r = np.where(tie, 1.0, r)
    c, s = np.where(tie, 1.0, a / r), b / r
    rot = np.stack([c, -s, s, c], axis=-1).reshape(fs.shape)
    return np.linalg.norm(fs - rot @ u, axis=(-2, -1))


def broadcast_dist_pairs(fs, us):
    """min over rotations R of |F - R U|_F for 2x2 matrices, broadcast
    over the leading axes of fs and us (..., 2, 2), in place on strided
    views of the entries."""
    f00, f01 = fs[..., 0, 0], fs[..., 0, 1]
    f10, f11 = fs[..., 1, 0], fs[..., 1, 1]
    u00, u01 = us[..., 0, 0], us[..., 0, 1]
    u10, u11 = us[..., 1, 0], us[..., 1, 1]
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


def matmul_vertex_gradients(mesh, values):
    """Per-cell gradients of vertex values (..., V, n): each cell's value
    differences times mesh.inverse_edges, as one batched matmul."""
    cell_vals = np.take(values, mesh.cells, axis=-2)  # (..., C, n+1, n)
    du = np.swapaxes(cell_vals[..., 1:, :] - cell_vals[..., :1, :], -1, -2)
    return du @ mesh.inverse_edges


def facet_tangents(mesh, normals=None):
    """(F, n, n-1) tangent bases of the interior facets, as the mesh
    stored them and the curl measures built them: for n = 2 the unit
    normal (the mesh's, or the given mapped one) turned back by 90
    degrees, (-n1, n0); for n = 3 the stored basis, or mapped_tangents of
    the given normals."""
    if mesh.dim == 3:
        return mesh.facet_tangent[mesh.interior] if normals is None else mapped_tangents(normals)
    if normals is None:
        normals = mesh.facet_normal[mesh.interior]
    return np.stack([-normals[:, 1], normals[:, 0]], axis=1)[:, :, None]


def tangential_jump_residual(mesh, gradients):
    """Largest spectral norm of (G_a - G_b) T over interior facets."""
    interior = mesh.interior
    if len(interior) == 0:
        return 0.0
    a = mesh.facet_cells[interior, 0]
    b = mesh.facet_cells[interior, 1]
    jumps = gradients[a] - gradients[b]
    tangential = jumps @ facet_tangents(mesh)
    return float(np.linalg.svd(tangential, compute_uv=False)[:, 0].max())


def stored_tangent_residual(mesh, gradients):
    """The continuity residual of a (..., C, n, n) stack with a stored
    tangent basis T: for n = 2 (G_a - G_b) t entry by entry on strided
    views and the length of that column, for n = 3 the batched matmul and
    its largest singular value."""
    interior = mesh.interior
    if len(interior) == 0:
        return np.zeros(gradients.shape[:-3])
    a, b = np.take(mesh.facet_cells, interior, axis=0).T
    jumps = np.take(gradients, a, axis=-3) - np.take(gradients, b, axis=-3)
    tangents = facet_tangents(mesh)
    if mesh.dim == 2:
        t0, t1 = tangents[:, 0, 0], tangents[:, 1, 0]
        row0 = jumps[..., 0, 0] * t0 + jumps[..., 0, 1] * t1
        row1 = jumps[..., 1, 0] * t0 + jumps[..., 1, 1] * t1
        return np.hypot(row0, row1).max(axis=-1)
    return np.linalg.svd(jumps @ tangents, compute_uv=False)[..., 0].max(axis=-1)


def mapped_tangents(mapped_normals):
    """(F, n, n-1) orthonormal bases of the complements of unit normals,
    from the SVD of each normal as a 1 x n matrix."""
    _, _, vt = np.linalg.svd(mapped_normals[:, None, :])
    return np.swapaxes(vt[:, 1:, :], 1, 2)


def mapped_geometry(mesh, u):
    """(areas, unit normals) of the interior facets mapped by u: normal
    U^-T nu normalized, area s * det(U) * |U^-T nu|."""
    ids = mesh.interior
    conormals = mesh.facet_normal[ids] @ np.linalg.inv(u)
    stretch = np.linalg.norm(conormals, axis=1)
    return mesh.facet_area[ids] * abs(float(np.linalg.det(u))) * stretch, conormals / stretch[:, None]


def matmul_facet_masses(field):
    """(full, tangential) per-facet masses, area * |jump|_F, of an
    IncompatibleField over the interior facets: areas and normals from
    mapped_geometry when the field has a map, jumps V_b - V_a, and the
    tangential part as one batched matmul with facet_tangents."""
    mesh = field.mesh
    areas, normals = mesh.facet_area[mesh.interior], None
    if field.map_matrix is not None:
        areas, normals = mapped_geometry(mesh, field.map_matrix)
    a, b = mesh.facet_cells[mesh.interior].T
    jumps = field.values[b] - field.values[a]
    tangential = jumps @ facet_tangents(mesh, normals)
    return areas * np.linalg.norm(jumps, axis=(1, 2)), areas * np.linalg.norm(tangential, axis=(1, 2))
