"""The SVD code that the closed-form n = 2 kernels of wellspin replaced.

Kept as a test oracle. For 2x2 input the closed forms must agree with it
to round-off (the rotations, the distances and the tangential residuals);
for n = 3, where wellspin still runs the SVD, they must agree byte for
byte.

matmul_dist_to_single_well_batch is the batched-matmul form of the n = 2
closed form that the entry-by-entry distance table replaced. On diagonal
wells every product of M = F U^T and of R U is exact, so the table must
match it byte for byte there.
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


def tangential_jump_residual(mesh, gradients):
    """Largest spectral norm of (G_a - G_b) T over interior facets."""
    interior = mesh.interior
    if len(interior) == 0:
        return 0.0
    a = mesh.facet_cells[interior, 0]
    b = mesh.facet_cells[interior, 1]
    jumps = gradients[a] - gradients[b]
    tangential = jumps @ mesh.facet_tangent[interior]
    return float(np.linalg.svd(tangential, compute_uv=False)[:, 0].max())


def mapped_tangents(mapped_normals):
    """(F, n, n-1) orthonormal bases of the complements of unit normals,
    from the SVD of each normal as a 1 x n matrix."""
    _, _, vt = np.linalg.svd(mapped_normals[:, None, :])
    return np.swapaxes(vt[:, 1:, :], 1, 2)
