"""The closed-form planar twins and admissible rotation against the grid
scans they replaced, and the half-angle twins against the polar form that
came between (tests/twin_reference.py)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from twin_reference import (
    TWIN_GRID,
    polar_twin_solve,
    reference_admissible_rotation,
    reference_twin_solve,
)

from wellspin.mesh import find_admissible_rotation, kuhn_reference_normals
from wellspin.wells import (
    RESIDUAL_RTOL,
    WellSet,
    WellSetError,
    rotation_2d,
    twin_solve,
)

SHIPPED_WELLS = Path(__file__).resolve().parent.parent / "configs" / "wellset.json"


@st.composite
def spd(draw):
    lo = draw(st.floats(0.2, 5.0))
    hi = draw(st.floats(0.2, 5.0))
    r = rotation_2d(draw(st.floats(0.0, math.pi)))
    return r @ np.diag([lo, hi]) @ r.T


def twin_form(ui, uj):
    """(alpha, rho) of det(U_i - Q(t) U_j) = alpha - rho cos(t - psi),
    from the determinant at t = 0, pi/2 and pi. The 2x2 determinant is taken
    in closed form: LAPACK's LU warns on subnormal pivots, which a rotation
    angle near 0 or pi puts off the diagonal of the drawn wells."""

    def det(a):
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]

    f0, f1, f2 = (det(ui - rotation_2d(t) @ uj) for t in (0.0, math.pi / 2, math.pi))
    alpha = 0.5 * (f0 + f2)
    return alpha, math.hypot(alpha - f0, alpha - f1)


def angle_of(q):
    return math.atan2(q[1, 0], q[0, 0])


def turn_between(t0, t1):
    return abs((t0 - t1 + math.pi) % (2.0 * math.pi) - math.pi)


@st.composite
def twin_pairs(draw):
    """A distinct SPD pair, both wells scaled by 2^j, |j| <= 480, and j: a
    near twin U_1 + 10^-k M (M symmetric of unit norm, k in [1, 12]), a
    tangency (U_2 scaled so that det(U_1 - Q(t) U_2) only touches zero, as
    in test_wells' test_tangent_pair_double_root_off_grid) or an unrelated
    pair."""
    ui, kind = draw(spd()), draw(st.sampled_from(["near", "tangent", "apart"]))
    if kind == "near":
        x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
        m = np.array([[x, y], [y, z]])
        assume(np.linalg.norm(m) > 0.1)
        uj = ui + 10.0 ** -draw(st.floats(1.0, 12.0)) * m / np.linalg.norm(m)
    elif kind == "tangent":
        # det(U_1 - Q(t) s U_2) = det U_1 + s^2 det U_2 - s rho cos(t - psi)
        # touches zero where det U_1 + s^2 det U_2 = s rho
        u2 = draw(spd())
        adj = np.array([[ui[1, 1], -ui[0, 1]], [-ui[1, 0], ui[0, 0]]])
        rho = math.hypot(np.trace(adj @ u2), np.trace(adj @ rotation_2d(math.pi / 2) @ u2))
        det1, det2 = np.linalg.det(ui), np.linalg.det(u2)
        uj = u2 * (rho - math.sqrt(max(rho**2 - 4.0 * det1 * det2, 0.0))) / (2.0 * det2)
    else:
        uj = draw(spd())
    assume(not np.array_equal(ui, uj))
    j = draw(st.integers(-480, 480))
    return np.ldexp(ui, j), np.ldexp(uj, j), j


class TestTwinsAgainstGrid:
    @settings(max_examples=150, deadline=None)
    @given(spd(), spd())
    def test_same_twins_as_grid_scan(self, ui, uj):
        alpha, rho = twin_form(ui, uj)
        step = 2.0 * math.pi / TWIN_GRID
        # keep the two roots at least 16 grid steps apart, or the minimum
        # of the determinant clearly above zero
        scale = np.linalg.norm(ui) * np.linalg.norm(uj)
        assume(alpha < rho * math.cos(8 * step) or alpha - rho > 1e-6 * scale)
        sol, ref = twin_solve(ui, uj), reference_twin_solve(ui, uj)
        assert len(sol.trivial_rotations) == len(ref.trivial_rotations) == 0
        assert len(sol.connections) == len(ref.connections)
        for conn, old in zip(sol.connections, ref.connections):
            assert conn.multiplicity == old.multiplicity
            turn = angle_of(conn.rotation) - angle_of(old.rotation)
            assert abs((turn + math.pi) % (2.0 * math.pi) - math.pi) <= 1e-12
            assert np.abs(conn.b - old.b).max() <= 1e-12
            diff = ui - conn.rotation @ uj - np.outer(conn.a, conn.b)
            assert np.linalg.norm(diff) <= RESIDUAL_RTOL * np.linalg.norm(ui)

    def test_ascending_angles(self):
        # turning U_j by -t0 moves every root by +t0: the shipped pair's
        # roots +-1.08 move to about 0.92 and 3.08, both within (0, pi)
        for t0 in (0.0, 2.0, 4.0):
            ui, uj = np.diag([2.0, 0.5]), rotation_2d(-t0) @ np.diag([0.5, 2.0])
            sol, ref = twin_solve(ui, uj), reference_twin_solve(ui, uj)
            angles = [angle_of(c.rotation) % (2.0 * math.pi) for c in sol.connections]
            assert len(angles) == 2 and angles[0] < angles[1]
            for conn, old in zip(sol.connections, ref.connections):
                assert np.abs(conn.rotation - old.rotation).max() <= 1e-12

    def test_rotated_copy_trivial_as_grid(self):
        ui = np.array([[1.5, 0.2], [0.2, 0.8]])
        sol = twin_solve(ui, rotation_2d(0.7) @ ui)
        ref = reference_twin_solve(ui, rotation_2d(0.7) @ ui)
        assert len(sol.trivial_rotations) == len(ref.trivial_rotations) == 1
        assert sol.connections == ref.connections == []
        assert abs(angle_of(sol.trivial_rotations[0]) + 0.7) <= 1e-12


class TestNearTwins:
    """The half-angle quadratic of the well sum and difference against the
    polar form alpha - rho cos(t - psi), whose alpha - rho cancels and
    whose 1e-10 tangency swallows the roots of near twins."""

    @settings(max_examples=300, deadline=None)
    @given(twin_pairs())
    # the polar form refuses this pair: "rank-one factorization residual
    # too large"
    @example((np.diag([2.0, 0.5]), np.array([[2.000001, 0.0], [0.0, 0.499999]]), 0))
    # a rank-one difference: the root at 0 sorts first here and last in
    # the polar form, at 2 pi less a rounding
    @example((np.array([[0.5, 0.3], [0.3, 0.8]]), np.array([[0.5, 0.3], [0.3, 1.0]]), 0))
    # wells 1e-10 apart: both twins went to trivial_rotations at a
    # tolerance of RESIDUAL_RTOL
    @example((np.diag([2.0, 0.5]), np.array([[2.0000000001, 0.0], [0.0, 0.4999999999]]), 0))
    def test_accepted_and_as_polar_form(self, case):
        ui, uj, j = case
        sol = twin_solve(ui, uj)  # never raises WellSetError
        # a trivial rotation is U_i = Q U_j up to round-off, which no pair
        # at least 1e-12 apart (relative to U_i) is
        if np.linalg.norm(ui - uj) >= 1e-12 * np.linalg.norm(ui):
            assert sol.trivial_rotations == []
        for conn in sol.connections:
            diff = ui - conn.rotation @ uj - np.outer(conn.a, conn.b)
            assert np.linalg.norm(diff) <= RESIDUAL_RTOL * np.linalg.norm(ui)
        # one power of two scales both wells to the same coefficients
        unscaled = twin_solve(np.ldexp(ui, -j), np.ldexp(uj, -j))
        for conn, ref in zip(sol.connections, unscaled.connections, strict=True):
            assert np.array_equal(conn.rotation, ref.rotation)
        try:
            old = polar_twin_solve(ui, uj)
        except WellSetError:
            return
        # compare where the polar roots are simple and lie 16 grid steps
        # apart, as against the grid scan: both forms lose digits to the
        # conditioning of the roots, and at 1e-3 apart they differed by
        # up to 2e-12
        if old.trivial_rotations or any(c.multiplicity == 2 for c in old.connections):
            return
        angles = [angle_of(c.rotation) for c in old.connections]
        if len(angles) == 2 and turn_between(*angles) < 16 * 2.0 * math.pi / TWIN_GRID:
            return
        assert len(sol.trivial_rotations) == 0
        assert len(sol.connections) == len(old.connections)
        # matched by angle: a root at 0 may sort first in one and last in
        # the other
        for conn in sol.connections:
            assert conn.multiplicity == 1
            assert min(turn_between(angle_of(conn.rotation), a) for a in angles) <= 1e-12

    def test_wells_1e10_apart_keep_both_twins(self):
        ws = WellSet([np.diag([2.0, 0.5]), np.diag([2.0000000001, 0.4999999999])], delta0=0.05)
        assert len(ws.connections) == 2
        assert ws.incompat_dbar == pytest.approx(5.09e-11, rel=1e-3)
        # a rotated copy is still one trivial rotation and no twin
        u = np.array([[1.5, 0.2], [0.2, 0.7]])
        for uj in (u, rotation_2d(0.4) @ u):
            sol = twin_solve(u, uj)
            assert len(sol.trivial_rotations) == 1 and sol.connections == []


class TestRotationAgainstGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(spd(), min_size=2, max_size=4))
    def test_margin_never_below_grid_search(self, mats):
        try:
            ws = WellSet(mats)
        except WellSetError:
            assume(False)
        res = find_admissible_rotation(ws)
        assert res.margin >= reference_admissible_rotation(ws).margin - 1e-12
        assert 0.0 <= res.angle < math.pi
        twins = np.array(ws.twin_normals()).reshape(-1, 2)
        # the margin reported is the margin of the rotation returned
        normals = kuhn_reference_normals(2) @ res.rotation.T
        assert abs(res.margin - (1.0 - np.abs(normals @ twins.T).max(initial=0.0))) <= 1e-15

    def test_shipped_wells_at_pi_over_8(self):
        doc = json.loads(SHIPPED_WELLS.read_text(encoding="utf-8"))["wells"]
        ws = WellSet(doc["wells"])
        res = find_admissible_rotation(ws)
        assert res.angle == np.pi / 8
        assert res.margin >= reference_admissible_rotation(ws).margin
