"""Algebra of energy wells.

A well is the orbit SO(n)U of a symmetric positive definite matrix U under
left multiplication by rotations. This module provides distances to single
rotations and to unions of wells, the twin (rank-one connection) solver for
n = 2, and the incompatibility constant that measures how far apart two
wells stay when their difference is probed only along directions tangent to
a facet whose normal avoids all twin normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import golden_min

SYMMETRY_TOL = 1e-12
ROTATION_TOL = 1e-10
RESIDUAL_RTOL = 1e-9
# angles in the sign-change scan of twin_solve
TWIN_GRID = 4096
# grid points per pi radians of admissible normal angle in compute_dbar
DBAR_GRID = 4096


class WellSetError(ValueError):
    """Raised for invalid well data or infeasible configuration parameters."""


def rotation_2d(theta):
    """Counterclockwise rotation matrices for an angle or an array of
    angles (radians), shape theta.shape + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)


def random_rotation(rng, n):
    """Haar-ish random element of SO(n) via QR with positive diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def polar_rotation(m):
    """Frobenius-nearest rotation to a square matrix (special orthogonal).

    The single-matrix case of _procrustes_rotation_batch: for n = 2 the
    closed form (cos, sin) proportional to (m00 + m11, m10 - m01), for
    larger n the SVD with its smallest singular direction flipped when
    needed. The result always has determinant +1.
    """
    return _procrustes_rotation_batch(np.asarray(m, dtype=float)[None])[0]


def _check_finite(f):
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise WellSetError("matrix has non-finite entries")
    return f


def dist_to_son(f):
    """Frobenius distance of a square matrix to the rotation group SO(n).

    For n = 2 this is the residual |f - R| at the closed-form nearest
    rotation R (see _procrustes_rotation_batch). For larger n it comes
    from the singular values: ||sigma - 1||_2, with the smallest singular
    value sign-flipped first if det(f) < 0.
    """
    f = _check_finite(f)
    return float(dist_to_son_batch(f[None])[0])


def dist_to_son_batch(fs):
    """Vectorized dist_to_son over an array of shape (..., n, n)."""
    fs = np.asarray(fs, dtype=float)
    if fs.shape[-1] == 2:
        return dist_to_single_well_batch(fs, np.eye(2))
    sigma = np.linalg.svd(fs, compute_uv=False)
    neg = np.linalg.det(fs) < 0
    # svd returns singular values in descending order; flip the smallest
    sigma[neg, -1] = -sigma[neg, -1]
    return np.linalg.norm(sigma - 1.0, axis=-1)


def _procrustes_rotation_batch(ms):
    """argmax over Q in SO(n) of tr(Q^T M), batched over (..., n, n).

    For n = 2, tr(Q(theta)^T M) = cos(theta) (M00 + M11) + sin(theta)
    (M10 - M01), so the maximiser has (cos, sin) proportional to
    (M00 + M11, M10 - M01), whatever the sign of det M; when both vanish
    every rotation ties and the identity is returned. For larger n it is
    U V^T from the SVD M = U S V^T, with the last column of U flipped when
    det(U V^T) < 0.
    """
    if ms.shape[-1] == 2:
        a = ms[..., 0, 0] + ms[..., 1, 1]
        b = ms[..., 1, 0] - ms[..., 0, 1]
        r = np.hypot(a, b)
        tie = r == 0.0
        r = np.where(tie, 1.0, r)
        c = np.where(tie, 1.0, a / r)
        s = b / r
        return np.stack([c, -s, s, c], axis=-1).reshape(ms.shape)
    u, _, vt = np.linalg.svd(ms)
    flip = np.linalg.det(u @ vt) < 0
    u[flip, :, -1] = -u[flip, :, -1]
    return u @ vt


def dist_to_single_well(f, u):
    """min over rotations R of |f - R u|_F for a single well matrix u."""
    f = _check_finite(f)
    return float(dist_to_single_well_batch(f[None], u)[0])


def dist_table(fs, mats):
    """(..., k) table of min over rotations R of |F - R U_j|_F, for every
    matrix F of fs (..., n, n) and every well U_j of mats (k, n, n).

    For n = 2 the table is filled entry by entry in one broadcast pass:
    M = F U^T, the nearest rotation has (cos, sin) proportional to
    (M00 + M11, M10 - M01), the identity when both vanish (see
    _procrustes_rotation_batch), and the residual F - R U is measured
    directly; the expanded form |F|^2 + |U|^2 - 2 tr cancels
    catastrophically when the distance is tiny. Larger n takes the SVD
    rotation of every (F, U_j) pair.
    """
    fs = np.asarray(fs, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != fs.shape[-2:]:
        raise WellSetError(f"{fs.shape[-2:]} matrices against {mats.shape[1:]} wells")
    # every matrix as a (..., 1) column against the (k,) wells
    return _dist_pairs(fs[..., None, :, :], mats)


def dist_to_single_well_batch(fs, u):
    """min over rotations R of |F - R U|_F for every matrix F of fs
    (..., n, n), shape fs.shape[:-2].

    u is one well (n, n) or one well per matrix, broadcast against fs;
    either way each entry is dist_table's, bit for bit.
    """
    fs = np.asarray(fs, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != fs.shape[-2:]:
        raise WellSetError(f"{fs.shape[-2:]} matrices against {u.shape[-2:]} wells")
    return _dist_pairs(fs[..., None, :, :], u[..., None, :, :])[..., 0]


def _dist_pairs(fs, us):
    """min over rotations R of |F - R U|_F, broadcast over the leading axes
    of fs and us (..., n, n); the kernel of dist_table."""
    if fs.shape[-1] != 2:
        rot = _procrustes_rotation_batch(fs @ np.swapaxes(us, -1, -2))
        return np.linalg.norm(fs - rot @ us, axis=(-2, -1))
    # the in-place steps keep the arithmetic and bound the temporaries
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


def dist_to_wells_batch(fs, wells):
    """Distance of each matrix to the union of wells and the index of the
    nearest well; ties resolve to the lowest index."""
    table = dist_table(fs, wells.matrices)
    return table.min(axis=-1), table.argmin(axis=-1)


def well_distance(wells, i, j):
    """min over rotations Q of |U_i - Q U_j|_F (distance between two wells)."""
    if i == j:
        raise WellSetError("well_distance requires two distinct wells")
    return dist_to_single_well(wells.matrices[i], wells.matrices[j])


@dataclass
class RankOneConnection:
    """A twin: rotation Q and vectors a, b with U_i - Q U_j = a (x) b.

    b is a unit vector with its first nonzero component positive;
    multiplicity 2 marks a degenerate double root of the twin equation.
    """

    i: int
    j: int
    rotation: np.ndarray
    a: np.ndarray
    b: np.ndarray
    multiplicity: int = 1

    def residual(self, wells):
        diff = wells.matrices[self.i] - self.rotation @ wells.matrices[self.j]
        return float(np.linalg.norm(diff - np.outer(self.a, self.b)))

    def to_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "Q": self.rotation.tolist(),
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "multiplicity": self.multiplicity,
        }


@dataclass
class RankOneSolution:
    """All twins between a pair of wells, plus any trivial coincidences.

    trivial_rotations lists rotations Q with U_i = Q U_j exactly (same
    well); those are reported separately and never as connections.
    """

    connections: list[RankOneConnection] = field(default_factory=list)
    trivial_rotations: list[np.ndarray] = field(default_factory=list)


class WellSet:
    """An ordered family of pairwise distinct SPD well matrices.

    The pairwise well separation is computed on construction. The
    incompatibility constant (and the combined constant c0 used as a
    classification threshold) become available once compute_dbar has run.
    """

    def __init__(self, matrices, delta0=None):
        mats = [np.asarray(m, dtype=float) for m in matrices]
        if not mats:
            raise WellSetError("need at least one well")
        n = mats[0].shape[0]
        if n < 2:
            raise WellSetError("wells must be at least 2x2")
        for k, u in enumerate(mats):
            if u.shape != (n, n):
                raise WellSetError(f"well {k} is not {n}x{n}")
            if not np.all(np.isfinite(u)):
                raise WellSetError(f"well {k} has non-finite entries")
            if np.max(np.abs(u - u.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(u))):
                raise WellSetError(f"well {k} is not symmetric")
            if np.min(np.linalg.eigvalsh(u)) <= 0:
                raise WellSetError(f"well {k} is not positive definite")
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                if np.linalg.norm(mats[a] - mats[b]) == 0.0:
                    raise WellSetError(f"wells {a} and {b} coincide")
        self.dim = n
        self.matrices = mats
        self.delta0 = delta0
        self.connections = None  # populated by solve_all_connections
        self.incompat_dbar = None  # populated by compute_dbar
        if len(mats) == 1:
            self.separation_d = math.inf
        else:
            self.separation_d = min(
                dist_to_single_well(mats[a], mats[b])
                for a in range(len(mats))
                for b in range(a + 1, len(mats))
            )
            if self.separation_d <= 0:
                raise WellSetError("two wells lie on the same rotation orbit")

    @property
    def k(self):
        return len(self.matrices)

    @property
    def c0(self):
        """min of the well separation and the incompatibility constant.

        None until compute_dbar has populated incompat_dbar.
        """
        if self.incompat_dbar is None:
            return None
        return min(self.separation_d, self.incompat_dbar)

    def twin_normals(self):
        """Unit normals b of all solved rank-one connections."""
        if self.connections is None:
            raise WellSetError("rank-one connections not solved yet")
        return [c.b for c in self.connections]

    def to_json(self):
        doc = {
            "dim": self.dim,
            "wells": [u.tolist() for u in self.matrices],
        }
        if self.delta0 is not None:
            doc["delta0"] = self.delta0
        derived = {}
        if self.separation_d is not None:
            derived["d"] = None if math.isinf(self.separation_d) else self.separation_d
        if self.incompat_dbar is not None:
            derived["dbar"] = (
                None if math.isinf(self.incompat_dbar) else self.incompat_dbar
            )
            c0 = self.c0
            derived["c0"] = None if math.isinf(c0) else c0
        if self.connections is not None:
            derived["connections"] = [c.to_dict() for c in self.connections]
        if derived:
            doc["derived"] = derived
        return doc


def _canonical_sign(a, b):
    """Flip (a, b) together so b's first nonzero component is positive."""
    nz = np.nonzero(np.abs(b) > 1e-12)[0]
    if len(nz) and b[nz[0]] < 0:
        return -a, -b
    return a, b


def solve_rank_one(wells, i, j):
    """Find all twins between wells i and j of a well set (n = 2 only)."""
    if i == j:
        raise WellSetError("solve_rank_one requires two distinct wells")
    if wells.dim != 2:
        raise WellSetError("rank-one solver implemented for n = 2 only")
    sol = twin_solve(wells.matrices[i], wells.matrices[j])
    for conn in sol.connections:
        conn.i, conn.j = i, j
    return sol


def twin_solve(ui, uj):
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


def _ang_close(t0, t1, tol):
    d = abs((t0 - t1) % (2.0 * np.pi))
    return min(d, 2.0 * np.pi - d) < tol


def solve_all_connections(wells):
    """Solve twins for every well pair and store them on the well set."""
    conns = []
    for i in range(wells.k):
        for j in range(i + 1, wells.k):
            conns.extend(solve_rank_one(wells, i, j).connections)
    wells.connections = conns
    return conns


def admissible_normal_intervals(twin_normals, delta0):
    """Admissible angle intervals for facet normals on the half-circle.

    A normal b(phi) = (cos phi, sin phi), phi in [0, pi), is admissible when
    |b . t| <= 1 - delta0 for every twin normal t. Returns a list of closed
    [lo, hi] intervals; empty when delta0 excludes everything.
    """
    if not 0.0 < delta0 < 1.0:
        raise WellSetError("delta0 must lie in (0, 1)")
    if not twin_normals:
        return [(0.0, np.pi)]
    beta = math.acos(1.0 - delta0)
    forbidden = []
    for t in twin_normals:
        alpha = math.atan2(t[1], t[0]) % math.pi
        forbidden.append(((alpha - beta) % math.pi, (alpha + beta) % math.pi))
    # subtract (possibly wrapped) open arcs from [0, pi)
    events = []
    for lo, hi in forbidden:
        if lo <= hi:
            events.append((lo, hi))
        else:
            events.append((0.0, hi))
            events.append((lo, math.pi))
    events.sort()
    allowed = []
    cursor = 0.0
    for lo, hi in events:
        if lo > cursor:
            allowed.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < math.pi:
        allowed.append((cursor, math.pi))
    return [(lo, hi) for lo, hi in allowed if hi - lo > 1e-12]


def compute_dbar(wells, delta0, store=True):
    """Incompatibility constant of a well set for a given margin delta0.

    For every pair of distinct wells this minimizes, over rotations Q and
    over unit normals b that keep the angle margin delta0 from every twin
    normal, the stretch |(U_i1 - Q U_i2) tau| along the facet tangent tau
    orthogonal to b. In the plane a rotation can turn U_i2 tau onto
    U_i1 tau, so the minimum over Q is | |U_i1 tau| - |U_i2 tau| | and a
    1-D minimum over the admissible normal angles is left (see
    _tangent_gap_min).

    A single well has nothing to separate: the result is +inf. The result
    is stored on the well set (with the delta0 used) unless store=False.
    """
    if wells.dim != 2:
        raise WellSetError("compute_dbar implemented for n = 2")
    if not 0.0 < delta0 < 1.0:
        raise WellSetError("delta0 must lie in (0, 1)")
    if wells.k == 1:
        if store:
            wells.incompat_dbar = math.inf
            wells.delta0 = delta0
        return math.inf
    intervals = admissible_normal_intervals(wells.twin_normals(), delta0)
    if not intervals:
        raise WellSetError(
            f"delta0={delta0} leaves no admissible facet normal directions"
        )
    best = min(
        _tangent_gap_min(wells.matrices[i1], wells.matrices[i2], lo, hi)
        for i1 in range(wells.k)
        for i2 in range(i1 + 1, wells.k)
        for lo, hi in intervals
    )
    if store:
        wells.incompat_dbar = best
        wells.delta0 = delta0
    return best


def _tangent_gap(u1, u2, phi):
    """| |U1 tau| - |U2 tau| | at tau = (-sin phi, cos phi), the facet
    tangent of the normal (cos phi, sin phi); elementwise over phi."""
    s, c = np.sin(phi), np.cos(phi)
    a = np.hypot(u1[0, 1] * c - u1[0, 0] * s, u1[1, 1] * c - u1[1, 0] * s)
    b = np.hypot(u2[0, 1] * c - u2[0, 0] * s, u2[1, 1] * c - u2[1, 0] * s)
    return np.abs(a - b)


def _tangent_gap_min(u1, u2, lo, hi):
    """Minimum of _tangent_gap over normal angles in [lo, hi].

    |U1 tau|^2 - |U2 tau|^2 vanishes only at twin tangents, which the
    admissible intervals exclude, so the gap is smooth on [lo, hi]. It is
    scanned on about DBAR_GRID points per pi radians; every grid local
    minimum is polished by golden-section search between its neighbours,
    and both ends are candidates too.
    """
    phis = np.linspace(lo, hi, max(8, math.ceil(DBAR_GRID * (hi - lo) / math.pi)) + 1)
    vals = _tangent_gap(u1, u2, phis)
    # strict on the left so a plateau is polished once
    padded = np.concatenate([[math.inf], vals, [math.inf]])
    local = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))
    best = min(vals[0], vals[-1])
    for k in local:
        _, val = golden_min(
            lambda p: _tangent_gap(u1, u2, p),
            phis[max(k - 1, 0)],
            phis[min(k + 1, len(phis) - 1)],
        )
        best = min(best, val)
    return float(best)
