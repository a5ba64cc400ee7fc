"""The closed-form planar twins and admissible rotation against the grid
scans they replaced (tests/twin_reference.py)."""

import json
import math
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from twin_reference import TWIN_GRID, reference_admissible_rotation, reference_twin_solve

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
