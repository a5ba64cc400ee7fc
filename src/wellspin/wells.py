"""Algebra of energy wells.

A well is the orbit SO(n)U of a symmetric positive definite matrix U under
left multiplication by rotations. This module provides distances to single
rotations and to unions of wells, the twin (rank-one connection) solver for
n = 2, and the incompatibility constant: how far apart two wells stay along
the tangents of facets whose normals avoid all twin normals, a 1-D minimum
taken exactly, at the roots of a trigonometric polynomial and the ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import entry_planes, half_angle_roots

SYMMETRY_TOL = 1e-12
# the largest absolute entry of a well
MAX_ENTRY = 1e150
ROTATION_TOL = 1e-10
RESIDUAL_RTOL = 1e-9
# 8 samples of a degree-3 trigonometric polynomial onto its coefficients of
# z^3, ..., z^-3: a DFT as one product (a lazy numpy.fft import costs more)
_DFT_ANGLES = np.arange(8) * (np.pi / 4)
_DFT = np.exp(-1j * np.outer(np.arange(3, -4, -1), _DFT_ANGLES)) / 8


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


def polar_rotation(ms):
    """Frobenius-nearest rotation to each matrix of ms (..., n, n): argmax
    over Q in SO(n) of tr(Q^T M), always of determinant +1.

    For n = 1 it is 1, the one element of SO(1). For n = 2,
    tr(Q(theta)^T M) = cos(theta) (M00 + M11) + sin(theta) (M10 - M01),
    so the maximiser has (cos, sin) proportional to (M00 + M11, M10 - M01),
    whatever the sign of det M; when both vanish every rotation ties and
    the identity is returned. For larger n it is U V^T from the SVD
    M = U S V^T, with the last column of U flipped when det(U V^T) < 0.
    """
    if ms.shape[-1] == 1:
        return np.ones_like(ms)
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


def fit_rotation(values, weights, well):
    """The rotation R fitted to the matrices values (k, n, n) of one phase
    of the well SO(n) U, the polar rotation of the weighted mean of
    F_k U^-1, and the residual sqrt(sum_k w_k |F_k - R U|^2); (None, None)
    where that mean has nonpositive determinant and no rotation is near."""
    local = values @ np.linalg.inv(well)
    local *= weights[:, None, None]
    mean = local.sum(axis=0) / float(weights.sum())
    if np.linalg.det(mean) <= 0:
        return None, None
    rot = polar_rotation(mean)
    # the squared residual F_k - R U in the buffer of the mean's terms,
    # weighted and summed by numpy: a BLAS dot may start threads on long vectors
    np.subtract(values, rot @ well, out=local)
    res2 = (np.square(local, out=local).sum(axis=(1, 2)) * weights).sum()
    return rot, float(math.sqrt(max(res2, 0.0)))


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


def dist_table(fs, mats):
    """(..., k) table of min over rotations R of |F - R U_j|_F, for every
    matrix F of fs (..., n, n) and every well U_j of mats (k, n, n).

    For n = 2 _dist_2x2 fills the table a well at a time, the well's
    entries as floats, from the entry planes of fs: a plane-backed stack's
    (numerics.from_planes) as they are, any other layout's copied into
    contiguous planes. The table is plane-backed too, a contiguous plane
    per well. Larger n takes the SVD rotation of every (F, U_j) pair.
    """
    fs = np.asarray(fs, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != fs.shape[-2:]:
        raise WellSetError(f"{fs.shape[-2:]} matrices against {mats.shape[1:]} wells")
    if fs.shape[-1] != 2:
        # every matrix as a (..., 1) column against the (k,) wells
        return dist_to_single_well_batch(fs[..., None, :, :], mats)
    planes = [np.ascontiguousarray(p) for p in entry_planes(fs.reshape(-1, 2, 2))]
    table = np.empty((len(mats), len(planes[0])))
    for j, u in enumerate(mats.reshape(-1, 4).tolist()):
        _dist_2x2(*planes, *u, out=table[j])
    return table.T.reshape(*fs.shape[:-2], len(mats))


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
    rot = polar_rotation(fs @ np.swapaxes(u, -1, -2))
    return np.linalg.norm(fs - rot @ u, axis=(-2, -1))[..., 0]


def _dist_2x2(f00, f01, f10, f11, u00, u01, u10, u11, out=None):
    """min over rotations R of |F - R U|_F for 2x2 matrices given entry by
    entry, each entry a plane (array or float) broadcast against the
    others, at least one of them an array; the n = 2 kernel. out, when
    given, receives the result.

    With M = F U^T the nearest rotation has (cos, sin) proportional to
    (M00 + M11, M10 - M01), the identity when both vanish (see
    polar_rotation), and the residual F - R U is measured
    directly; the expanded form |F|^2 + |U|^2 - 2 tr cancels
    catastrophically when the distance is tiny.
    """
    # every step rounds as the plain expression does, but writes into one
    # of the planes a, b, t, w or the result, so that nothing else is made
    a, t, w = f00 * u00, f01 * u01, f10 * u10
    a += t  # M00 + M11 = (f00 u00 + f01 u01) + (f10 u10 + f11 u11)
    a += np.add(w, np.multiply(f11, u11, out=t), out=w)
    b = f10 * u00  # M10 - M01 = (f10 u00 + f11 u01) - (f00 u10 + f01 u11)
    b += np.multiply(f11, u01, out=t)
    b -= np.add(np.multiply(f00, u10, out=w), np.multiply(f01, u11, out=t), out=w)
    r = np.hypot(a, b, out=w)
    tie = r == 0.0
    r[tie] = 1.0
    c = np.divide(a, r, out=a)
    c[tie] = 1.0
    s = np.divide(b, r, out=b)
    d2 = np.empty_like(a) if out is None else out
    d2.fill(0.0)  # 0 + x is x: the squares add up in their own order
    # F - R U entry by entry: f - (x p -+ y q), squared
    for f, x, p, y, q, op in ((f00, c, u00, s, u10, np.subtract), (f01, c, u01, s, u11, np.subtract),
                              (f10, s, u00, c, u10, np.add), (f11, s, u01, c, u11, np.add)):
        e = np.subtract(f, op(np.multiply(x, p, out=t), np.multiply(y, q, out=w), out=t), out=t)
        d2 += np.multiply(e, e, out=e)
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
    return float(dist_to_single_well_batch(wells.matrices[i], wells.matrices[j]))


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
                float(dist_to_single_well_batch(mats[a], mats[b]))
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

    For 2x2 matrices, with u = tan(t/2), J the quarter turn, S = U_i + U_j
    and D = U_i - U_j, det(U_i - Q(t) U_j) (1 + u^2) is qa u^2 + qb u + qc
    for qa = det S, qb = -tr(adj(D) J S) and qc = det D, which keep their
    digits when the wells nearly coincide. A discriminant within round-off
    of its own terms is a tangency, one double root (multiplicity 2); for
    positive definite wells qa > 0, so t = pi is never a root. Roots come
    out in ascending angle in [0, 2 pi). The rank-one difference is
    factored from its largest row: b = row / |row| and a = (U_i - Q U_j) b.
    Roots where the difference vanishes entirely (identical wells up to
    rotation) are reported as trivial rotations, not connections.
    """
    ui = np.asarray(ui, dtype=float)
    uj = np.asarray(uj, dtype=float)
    if ui.shape != (2, 2) or uj.shape != (2, 2):
        raise WellSetError("twin solver implemented for n = 2 only")
    scale = np.linalg.norm(ui)
    # one power of two brings the largest entry near 1, so that the
    # discriminant, quartic in the entries, stays in range
    pow2 = 2.0 ** -math.frexp(max(np.abs(ui).max(), np.abs(uj).max()))[1]
    (s00, s01), (s10, s11) = (ui + uj) * pow2
    (d00, d01), (d10, d11) = (ui - uj) * pow2
    qa, qc = s00 * s11 - s01 * s10, d00 * d11 - d01 * d10
    qb = (d11 * s10 - d10 * s11) + (d01 * s00 - d00 * s01)
    angles, disc = half_angle_roots(qa, qb, qc)
    if abs(disc) <= 64.0 * np.finfo(float).eps * (qb**2 + 4.0 * abs(qa * qc)):
        roots = [(2.0 * math.atan2(-qb, 2.0 * qa), 2)]
    else:
        roots = [(float(t), 1) for t in angles if not math.isnan(t)]

    out = RankOneSolution()
    for theta, mult in sorted((t % (2.0 * math.pi), mult) for t, mult in roots):
        q = rotation_2d(theta)
        c = ui - q @ uj
        # a trivial rotation leaves only round-off: U_i = Q U_j
        if np.linalg.norm(c) <= 64.0 * np.finfo(float).eps * scale:
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
    1-D minimum over the admissible normal angles is left, which
    _tangent_gap_min takes exactly.

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
        _tangent_gap_min(wells.matrices[i1], wells.matrices[i2], np.array(intervals))
        for i1 in range(wells.k)
        for i2 in range(i1 + 1, wells.k)
    )


def _tangent_gap(u1, u2, phi):
    """| |U1 tau| - |U2 tau| | at tau = (-sin phi, cos phi), the facet
    tangent of the normal (cos phi, sin phi); elementwise over phi."""
    s, c = np.sin(phi), np.cos(phi)
    a = np.hypot(u1[0, 1] * c - u1[0, 0] * s, u1[1, 1] * c - u1[1, 0] * s)
    b = np.hypot(u2[0, 1] * c - u2[0, 0] * s, u2[1, 1] * c - u2[1, 0] * s)
    return np.abs(a - b)


@np.errstate(divide="ignore", invalid="ignore")
def _tangent_gap_min(u1, u2, intervals):
    """Minimum of _tangent_gap over the [lo, hi] rows of intervals, which
    hold no twin tangent: the gap is smooth there and least at an end or a
    critical angle. With theta = 2 phi, S = U^T U, p = tr S / 2 and w =
    (S11 - S00) / 2 - i S01, A = |U tau|^2 = p + Re(w e^(-i theta)) and A'
    = Im(w e^(-i theta)). A critical angle zeroes F = A_1'^2 A_2 - A_2'^2
    A_1, of degree 3: the angle of a root of z^3 F(z), sharpened by two
    Newton steps on A_1' / sqrt(A_1) - A_2' / sqrt(A_2) (A'' = p - A; a nan
    step lies in no interval). F is round-off where a well is isotropic or
    dwarfed, so each A's own critical angles join. Powers of two bring the
    entries near 1, lest F (degree 6 in them) overflow, then F, lest
    np.roots divide by a subnormal; a spurious root is one more point.
    """
    u = np.array([u1, u2])
    u = u * 2.0 ** -math.frexp(np.abs(u).max())[1]
    s = np.swapaxes(u, 1, 2) @ u
    s00, s01, s11 = s[:, 0, 0, None], s[:, 0, 1, None], s[:, 1, 1, None]
    p, w = 0.5 * (s00 + s11), 0.5 * (s11 - s00) - 1j * s01
    e = w * np.exp(-1j * _DFT_ANGLES)
    a, d = p + e.real, e.imag
    f = d[0] ** 2 * a[1] - d[1] ** 2 * a[0]
    theta = np.angle(np.roots(_DFT @ np.ldexp(f, -math.frexp(abs(f).max())[1])))
    for _ in range(2):
        e = w * np.exp(-1j * theta)
        a, d = p + e.real, e.imag
        g, dg = d / np.sqrt(a), (p - a - 0.5 * d * d / a) / np.sqrt(a)
        theta = theta - (g[0] - g[1]) / (dg[0] - dg[1])
    crit = np.angle(w).ravel()
    phis = np.concatenate([theta, crit, crit + np.pi]) / 2 % np.pi
    inside = ((intervals[:, :1] <= phis) & (phis <= intervals[:, 1:])).any(axis=0)
    return float(_tangent_gap(u1, u2, np.append(intervals, phis[inside])).min())
