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
from functools import cached_property

import numpy as np

from .numerics import golden_min

SYMMETRY_TOL = 1e-12
# the largest absolute entry of a well
MAX_ENTRY = 1e150
ROTATION_TOL = 1e-10
RESIDUAL_RTOL = 1e-9
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
    return rotations_from_normals(rng.standard_normal((n, n)))


def rotations_from_normals(g):
    """The rotations random_rotation makes of standard normal matrices g
    (..., n, n): the QR factor Q with its columns signed by R's diagonal,
    and the first column negated where that leaves det Q < 0."""
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = np.linalg.det(q) < 0
    q[..., 0] = np.where(flip[..., None], -q[..., 0], q[..., 0])
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


def dist_to_son_batch(fs):
    """Frobenius distance of each matrix of fs (..., n, n) to SO(n): the
    identity's well for n = 2, else from the singular values."""
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

    For n = 2 each matrix entry is copied into one contiguous plane, and
    _dist_2x2 fills the table a well at a time, the well's entries as
    floats; larger n takes the SVD rotation of every (F, U_j) pair.
    """
    fs = np.asarray(fs, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != fs.shape[-2:]:
        raise WellSetError(f"{fs.shape[-2:]} matrices against {mats.shape[1:]} wells")
    if fs.shape[-1] != 2:
        # every matrix as a (..., 1) column against the (k,) wells
        return dist_to_single_well_batch(fs[..., None, :, :], mats)
    planes = np.ascontiguousarray(fs.reshape(-1, 4).T)
    table = np.empty((planes.shape[1], len(mats)))
    for j, u in enumerate(mats.reshape(-1, 4).tolist()):
        table[:, j] = _dist_2x2(*planes, *u)
    return table.reshape(*fs.shape[:-2], len(mats))


def dist_to_single_well_batch(fs, u):
    """min over rotations R of |F - R U|_F for every matrix F of fs
    (..., n, n), shape fs.shape[:-2].

    u is one well (n, n) or one well per matrix, broadcast against fs.
    For n = 2 the entries of both go to _dist_2x2 as planes that
    broadcast, so each entry is dist_table's, bit for bit.
    """
    fs = np.asarray(fs, dtype=float)
    u = np.asarray(u, dtype=float)
    if u.shape[-2:] != fs.shape[-2:]:
        raise WellSetError(f"{fs.shape[-2:]} matrices against {u.shape[-2:]} wells")
    # a trailing axis of 1 keeps even a single pair's planes arrays
    fs, u = fs[..., None, :, :], u[..., None, :, :]
    if fs.shape[-1] == 2:
        return _dist_2x2(*[m[..., i, j] for m in (fs, u) for i in (0, 1) for j in (0, 1)])[..., 0]
    rot = _procrustes_rotation_batch(fs @ np.swapaxes(u, -1, -2))
    return np.linalg.norm(fs - rot @ u, axis=(-2, -1))[..., 0]


def _dist_2x2(f00, f01, f10, f11, u00, u01, u10, u11):
    """min over rotations R of |F - R U|_F for 2x2 matrices given entry by
    entry, each entry a plane (array or float) broadcast against the
    others, at least one of them an array; the n = 2 kernel.

    With M = F U^T the nearest rotation has (cos, sin) proportional to
    (M00 + M11, M10 - M01), the identity when both vanish (see
    _procrustes_rotation_batch), and the residual F - R U is measured
    directly; the expanded form |F|^2 + |U|^2 - 2 tr cancels
    catastrophically when the distance is tiny.
    """
    # the in-place steps keep the arithmetic and bound the temporaries
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
    """An ordered family of pairwise distinct SPD well matrices and the
    margin delta0 its incompatibility constant is taken at.

    The pairwise well separation is computed on construction; the twins,
    the incompatibility constant and the combined constant c0 used as a
    classification threshold on first use, once each. A set without
    delta0 has twins but no incompatibility constant.
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
            # products and sums of squares of two entries, which the twins
            # and distances rest on, stay finite below the bound
            if not np.max(np.abs(u)) <= MAX_ENTRY:
                bound = f"not finite or exceeds {MAX_ENTRY:g}"
                raise WellSetError(f"well {k} has an entry that is {bound}")
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

    @cached_property
    def connections(self):
        """Every twin of the set, pair by pair (solve_all_connections)."""
        return solve_all_connections(self)

    @cached_property
    def incompat_dbar(self):
        """The incompatibility constant at delta0 (compute_dbar)."""
        return compute_dbar(self, self.delta0)

    @property
    def c0(self):
        """min of the well separation and the incompatibility constant."""
        return min(self.separation_d, self.incompat_dbar)

    def twin_normals(self):
        """Unit normals b of all rank-one connections."""
        return [c.b for c in self.connections]

    def to_json(self):
        def finite(x):
            return None if math.isinf(x) else x

        derived = {
            "d": finite(self.separation_d),
            "dbar": finite(self.incompat_dbar),
            "c0": finite(self.c0),
            "connections": [c.to_dict() for c in self.connections],
        }
        return {
            "dim": self.dim,
            "wells": [u.tolist() for u in self.matrices],
            "delta0": self.delta0,
            "derived": derived,
        }


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

    For 2x2 matrices det(U_i - Q(t) U_j) = alpha - rho cos(t - psi), with
    alpha = det U_i + det U_j and, for N = U_j adj(U_i), rho and psi the
    polar form of (N00 + N11, N01 - N10). Its roots are psi +- acos(alpha /
    rho) when |alpha| < rho and none when |alpha| > rho; when |alpha - rho|
    is within 1e-10 |U_i| |U_j| the determinant only touches zero, at the
    double root psi (multiplicity 2). For positive definite wells alpha > 0,
    so only its minimum can touch zero. Roots come out in ascending angle
    in [0, 2 pi). The rank-one difference is factored from its largest row:
    b = row / |row| and a = (U_i - Q U_j) b. Roots where the difference
    vanishes entirely (identical wells up to rotation) are reported as
    trivial rotations, not connections.
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


def solve_all_connections(wells):
    """The twins of every well pair, pair by pair."""
    conns = []
    for i in range(wells.k):
        for j in range(i + 1, wells.k):
            conns.extend(solve_rank_one(wells, i, j).connections)
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


def compute_dbar(wells, delta0):
    """Incompatibility constant of a well set for a given margin delta0.

    For every pair of distinct wells this minimizes, over rotations Q and
    over unit normals b that keep the angle margin delta0 from every twin
    normal, the stretch |(U_i1 - Q U_i2) tau| along the facet tangent tau
    orthogonal to b. In the plane a rotation can turn U_i2 tau onto
    U_i1 tau, so the minimum over Q is | |U_i1 tau| - |U_i2 tau| | and a
    1-D minimum over the admissible normal angles is left (see
    _tangent_gap_min).

    A single well has nothing to separate: the result is +inf.
    """
    if wells.dim != 2:
        raise WellSetError("compute_dbar implemented for n = 2")
    if delta0 is None or not 0.0 < delta0 < 1.0:
        raise WellSetError("delta0 must lie in (0, 1)")
    if wells.k == 1:
        return math.inf
    intervals = admissible_normal_intervals(wells.twin_normals(), delta0)
    if not intervals:
        raise WellSetError(
            f"delta0={delta0} leaves no admissible facet normal directions"
        )
    return min(
        _tangent_gap_min(wells.matrices[i1], wells.matrices[i2], lo, hi)
        for i1 in range(wells.k)
        for i2 in range(i1 + 1, wells.k)
        for lo, hi in intervals
    )


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
    and both ends are candidates too. A local minimum whose neighbours
    rise above it by no more than the rounding error of the gap lies on a
    flat stretch (for U2 = 2 U1 the gap is constant), where polishing
    could gain no more than that rounding: it is taken as it is.
    """
    phis = np.linspace(lo, hi, max(8, math.ceil(DBAR_GRID * (hi - lo) / math.pi)) + 1)
    vals = _tangent_gap(u1, u2, phis)
    # strict on the left so a plateau is polished once
    padded = np.concatenate([[math.inf], vals, [math.inf]])
    local = np.flatnonzero((vals < padded[:-2]) & (vals <= padded[2:]))
    # |U tau| <= |U|_F, so the gap is off by a few ulps of that at most
    noise = 4.0 * np.finfo(float).eps * (np.linalg.norm(u1) + np.linalg.norm(u2))
    # each end of the interval stands in for its missing outer neighbour
    edged = np.concatenate([vals[:1], vals, vals[-1:]])
    flat = np.maximum(edged[local], edged[local + 2]) - vals[local] <= noise
    best = min(vals[0], vals[-1], vals[local[flat]].min(initial=math.inf))
    for k in local[~flat]:
        _, val = golden_min(
            lambda p: _tangent_gap(u1, u2, p),
            phis[max(k - 1, 0)],
            phis[min(k + 1, len(phis) - 1)],
        )
        best = min(best, val)
    return float(best)
