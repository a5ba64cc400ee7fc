"""The two searches that wellspin.wells.compute_dbar replaced.

Kept as test oracles. reference_compute_dbar scans rotations Q and
admissible facet normals on a grid and polishes the best pair by
alternating golden-section refinements; the closed-form reduction in
wellspin must never lie above it by more than round-off, and must match it
where twins exist. grid_tangent_gap_min is the 1-D kernel that came after
it: a scan of the tangent gap with its local minima polished, which the
exact minimum over critical angles must never lie above by more than the
rounding of the gap.
"""

import math

import numpy as np

from wellspin.numerics import golden_min
from wellspin.wells import WellSetError, _tangent_gap, admissible_normal_intervals, rotation_2d

# grid points per pi radians of admissible normal angle in grid_tangent_gap_min
DBAR_GRID = 4096


def reference_compute_dbar(wells, delta0, q_grid=8192):
    """Incompatibility constant of a well set for a given margin delta0.

    For every pair of distinct wells this minimizes, over rotations Q and
    over unit normals b that keep the angle margin delta0 from every twin
    normal, the largest stretch of (U_i1 - Q U_i2) along the tangent frame
    orthogonal to b. Rotations and normals are scanned on grids and the
    best candidates are polished with golden-section refinement.

    A single well has nothing to separate: the result is +inf. Nothing is
    stored on the well set.
    """
    if wells.dim != 2:
        raise WellSetError("compute_dbar implemented for n = 2")
    if not 0.0 < delta0 < 1.0:
        raise WellSetError("delta0 must lie in (0, 1)")
    if wells.k == 1:
        return math.inf
    intervals = admissible_normal_intervals(wells.twin_normals(), delta0)
    if not intervals:
        raise WellSetError(
            f"delta0={delta0} leaves no admissible facet normal directions"
        )

    b_grid = max(q_grid // 16, 512)
    thetas = np.linspace(0.0, 2.0 * np.pi, q_grid, endpoint=False)
    rots = rotation_2d(thetas)

    phis_parts = []
    total_len = sum(hi - lo for lo, hi in intervals)
    for lo, hi in intervals:
        count = max(8, int(round(b_grid * (hi - lo) / total_len)))
        phis_parts.append(np.linspace(lo, hi, count))
    phis = np.concatenate(phis_parts)
    sin2, cos2 = np.sin(phis) ** 2, np.cos(phis) ** 2
    sincos = np.sin(phis) * np.cos(phis)

    best = math.inf
    for i1 in range(wells.k):
        for i2 in range(i1 + 1, wells.k):
            u1, u2 = wells.matrices[i1], wells.matrices[i2]
            diffs = u1[None] - rots @ u2  # (q_grid, 2, 2)
            # |M tau(phi)|^2 with tau = (-sin, cos) is a quadratic form in
            # the columns of M: g11 sin^2 + g22 cos^2 - 2 g12 sin cos
            g11 = (diffs[:, :, 0] ** 2).sum(axis=1)
            g22 = (diffs[:, :, 1] ** 2).sum(axis=1)
            g12 = (diffs[:, :, 0] * diffs[:, :, 1]).sum(axis=1)

            def value(theta, phi, _u1=u1, _u2=u2):
                m = _u1 - rotation_2d(theta) @ _u2
                tau = np.array([-math.sin(phi), math.cos(phi)])
                return float(np.linalg.norm(m @ tau))

            # coarse grid of squared values, chunked over theta to bound
            # memory; the strict < keeps the first grid minimum
            grid_best2 = math.inf
            grid_arg = (0.0, 0.0)
            chunk = max(1, 2**18 // max(len(phis), 1))
            for s in range(0, q_grid, chunk):
                vals = (
                    g11[s : s + chunk, None] * sin2[None, :]
                    + g22[s : s + chunk, None] * cos2[None, :]
                    - 2.0 * g12[s : s + chunk, None] * sincos[None, :]
                )
                flat = np.argmin(vals)
                ci, pi = np.unravel_index(flat, vals.shape)
                if vals[ci, pi] < grid_best2:
                    grid_best2 = float(vals[ci, pi])
                    grid_arg = (float(thetas[s + ci]), float(phis[pi]))
            grid_best = math.sqrt(max(grid_best2, 0.0))

            # alternate golden refinements in theta and phi, phi clamped to
            # its admissible interval
            theta_star, phi_star = grid_arg
            pair_best = grid_best
            dt = 2.0 * np.pi / q_grid
            dp = math.pi / max(len(phis), 1)
            for _ in range(4):
                theta_star, pair_best = golden_min(
                    lambda t: value(t, phi_star), theta_star - 2 * dt, theta_star + 2 * dt
                )
                lo, hi = _enclosing_interval(intervals, phi_star)
                phi_star, pair_best = golden_min(
                    lambda p: value(theta_star, p),
                    max(lo, phi_star - 2 * dp),
                    min(hi, phi_star + 2 * dp),
                )
            best = min(best, pair_best)

    return best


def _enclosing_interval(intervals, phi):
    phi = phi % math.pi
    for lo, hi in intervals:
        if lo - 1e-12 <= phi <= hi + 1e-12:
            return lo, hi
    # fall back to the nearest interval
    return min(intervals, key=lambda iv: min(abs(phi - iv[0]), abs(phi - iv[1])))


def grid_tangent_gap_min(u1, u2, lo, hi):
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
