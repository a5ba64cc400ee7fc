"""The grid scans that wellspin's closed-form planar twins and admissible
rotation replaced, and the polar form of the twins that came between.

Kept as test oracles: reference_twin_solve brackets the roots of
det(U_i - Q(t) U_j) by sign changes on TWIN_GRID angles, bisects them,
polishes tangencies by golden-section search and factors each twin with
an SVD; reference_admissible_rotation scans lattice rotations in
[0, pi/2) and polishes the best one by golden-section search. The closed
forms must find the same twins and never a smaller margin.
polar_twin_solve writes the determinant as alpha - rho cos(t - psi) and
takes a tangency within 1e-10 |U_i| |U_j|; alpha - rho cancels when the
wells nearly coincide, so it refuses near twins. The half-angle form must
accept them, and find the same twins wherever the polar roots lie apart.
"""

import math

import numpy as np

from wellspin.mesh import AdmissibleRotation, MeshError, kuhn_reference_normals
from wellspin.numerics import golden_min
from wellspin.wells import (
    RESIDUAL_RTOL,
    ROTATION_TOL,
    RankOneConnection,
    RankOneSolution,
    WellSetError,
    _canonical_sign,
    rotation_2d,
)

# angles in the sign-change scan of reference_twin_solve
TWIN_GRID = 4096


def reference_twin_solve(ui, uj):
    """Find all twins between two matrices: U_i - Q U_j = a (x) b.

    Roots of det(U_i - Q(theta) U_j) = 0 are bracketed by sign changes on a
    grid of TWIN_GRID angles and polished by bisection. For each root the
    rank-one difference is factored as a (x) b via SVD. Roots where the difference
    vanishes entirely (identical wells up to rotation) are reported as
    trivial rotations, not connections. A root touched without a sign
    change (tangency) is returned with multiplicity 2.
    """
    ui = np.asarray(ui, dtype=float)
    uj = np.asarray(uj, dtype=float)
    if ui.shape != (2, 2) or uj.shape != (2, 2):
        raise WellSetError("twin solver implemented for n = 2 only")
    scale = np.linalg.norm(ui)
    thetas = np.linspace(0.0, 2.0 * np.pi, TWIN_GRID, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    # det(U_i - Q U_j) is alpha + beta cos(theta) + gamma sin(theta) for n=2,
    # but evaluate it directly so the bracketing stays structure-agnostic.
    q00 = cos_t * uj[0, 0] - sin_t * uj[1, 0]
    q01 = cos_t * uj[0, 1] - sin_t * uj[1, 1]
    q10 = sin_t * uj[0, 0] + cos_t * uj[1, 0]
    q11 = sin_t * uj[0, 1] + cos_t * uj[1, 1]
    f = (ui[0, 0] - q00) * (ui[1, 1] - q11) - (ui[0, 1] - q01) * (ui[1, 0] - q10)

    def det_at(theta):
        q = rotation_2d(theta)
        return float(np.linalg.det(ui - q @ uj))

    roots = []
    step = 2.0 * np.pi / TWIN_GRID
    for k in range(TWIN_GRID):
        fk, fk1 = f[k], f[(k + 1) % TWIN_GRID]
        if fk == 0.0:
            # an exact grid hit is a double root when the determinant only
            # touches zero (no sign change across the neighbors)
            mult = 2 if f[(k - 1) % TWIN_GRID] * fk1 > 0.0 else 1
            roots.append((thetas[k], mult))
            continue
        if fk * fk1 < 0.0:
            lo, hi = thetas[k], thetas[k] + step
            flo = fk
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = det_at(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append((0.5 * (lo + hi), 1))

    # tangential (double) roots: local minima of |f| that reach ~0 without
    # a sign change near them
    absf = np.abs(f)
    det_scale = max(scale * np.linalg.norm(uj), 1e-30)
    for k in range(TWIN_GRID):
        prev_i, next_i = (k - 1) % TWIN_GRID, (k + 1) % TWIN_GRID
        if absf[k] <= absf[prev_i] and absf[k] <= absf[next_i]:
            if absf[k] < 1e-6 * det_scale:
                theta0 = thetas[k]
                if any(_ang_close(theta0, r, 2.5 * step) for r, _ in roots):
                    continue
                t_star, f_star = golden_min(
                    lambda t: abs(det_at(t)), theta0 - step, theta0 + step, tol=1e-14
                )
                if abs(f_star) < 1e-10 * det_scale:
                    roots.append((t_star % (2.0 * np.pi), 2))

    out = RankOneSolution()
    for theta, mult in roots:
        q = rotation_2d(theta)
        c = ui - q @ uj
        u_svd, sv, vt = np.linalg.svd(c)
        if sv[0] <= RESIDUAL_RTOL * scale:
            out.trivial_rotations.append(q)
            continue
        a = sv[0] * u_svd[:, 0]
        b = vt[0]
        a, b = _canonical_sign(a, b)
        conn = RankOneConnection(i=0, j=1, rotation=q, a=a, b=b, multiplicity=mult)
        # post-conditions of the factorization
        if np.linalg.norm(q.T @ q - np.eye(2)) > ROTATION_TOL:
            raise WellSetError("twin rotation drifted off SO(2)")
        if np.linalg.norm(c - np.outer(a, b)) > RESIDUAL_RTOL * scale:
            raise WellSetError("rank-one factorization residual too large")
        out.connections.append(conn)
    return out


def polar_twin_solve(ui, uj):
    """Find all twins between two matrices: U_i - Q U_j = a (x) b.

    For 2x2 matrices det(U_i - Q(t) U_j) = alpha - rho cos(t - psi), with
    alpha = det U_i + det U_j and, for N = U_j adj(U_i), rho and psi the
    polar form of (N00 + N11, N01 - N10). Its roots are psi +- acos(alpha /
    rho) when |alpha| < rho and none when |alpha| > rho; when |alpha - rho|
    is within 1e-10 |U_i| |U_j| the determinant only touches zero, at the
    double root psi (multiplicity 2). The twins are factored as in
    wellspin.wells.twin_solve.
    """
    ui = np.asarray(ui, dtype=float)
    uj = np.asarray(uj, dtype=float)
    if ui.shape != (2, 2) or uj.shape != (2, 2):
        raise WellSetError("twin solver implemented for n = 2 only")
    scale = np.linalg.norm(ui)
    n = uj @ np.array([[ui[1, 1], -ui[0, 1]], [-ui[1, 0], ui[0, 0]]])
    alpha = ui[0, 0] * ui[1, 1] - ui[0, 1] * ui[1, 0]
    alpha += uj[0, 0] * uj[1, 1] - uj[0, 1] * uj[1, 0]
    rho = math.hypot(n[0, 0] + n[1, 1], n[0, 1] - n[1, 0])
    psi = math.atan2(n[0, 1] - n[1, 0], n[0, 0] + n[1, 1])
    if abs(alpha - rho) <= 1e-10 * scale * np.linalg.norm(uj):
        roots = [(psi, 2)]
    elif abs(alpha) < rho:
        half = math.acos(alpha / rho)
        roots = [(psi - half, 1), (psi + half, 1)]
    else:
        roots = []

    out = RankOneSolution()
    for theta, mult in sorted((t % (2.0 * math.pi), mult) for t, mult in roots):
        q = rotation_2d(theta)
        c = ui - q @ uj
        # a rank-one c has |c|_F equal to its one singular value
        if np.linalg.norm(c) <= RESIDUAL_RTOL * scale:
            out.trivial_rotations.append(q)
            continue
        rows = np.hypot(c[:, 0], c[:, 1])
        b = c[np.argmax(rows)] / rows.max()
        a, b = _canonical_sign(c @ b, b)
        conn = RankOneConnection(i=0, j=1, rotation=q, a=a, b=b, multiplicity=mult)
        # post-conditions of the factorization
        if np.linalg.norm(q.T @ q - np.eye(2)) > ROTATION_TOL:
            raise WellSetError("twin rotation drifted off SO(2)")
        if np.linalg.norm(c - np.outer(a, b)) > RESIDUAL_RTOL * scale:
            raise WellSetError("rank-one factorization residual too large")
        out.connections.append(conn)
    return out


def _ang_close(t0, t1, tol):
    d = abs((t0 - t1) % (2.0 * np.pi))
    return min(d, 2.0 * np.pi - d) < tol



def reference_admissible_rotation(wells, angle_grid_size=4096):
    """Search lattice rotations (n = 2) maximizing the incompatibility
    margin min over (facet normal, twin normal) pairs of 1 - |b . b_twin|.

    Scans angles in [0, pi/2) and polishes the best candidate. Without any
    twin connections the identity rotation has full margin 1.
    """
    if wells.dim != 2:
        raise MeshError("rotation search implemented for n = 2")
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
