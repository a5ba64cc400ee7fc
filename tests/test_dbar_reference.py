"""compute_dbar's 1-D reduction against the 2-D search it replaced, its
exact minimum over critical angles against the scan-and-polish kernel
that came between (dbar_reference.grid_tangent_gap_min) and against dense
1-D grids, and the SVD-free planar geometry of the mesh path."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dbar_reference import grid_tangent_gap_min, reference_compute_dbar
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from kuhn_reference import jitter_vertices

from wellspin.fields import tangential_jump_residual
from wellspin.mesh import build_kuhn_mesh, find_admissible_rotation
from wellspin.rigidity import IncompatibleField, bv_structure_check
from wellspin.wells import (
    WellSet,
    WellSetError,
    _tangent_gap,
    _tangent_gap_min,
    admissible_normal_intervals,
    compute_dbar,
    rotation_2d,
    twin_solve,
)

SHIPPED_WELLS = Path(__file__).resolve().parent.parent / "configs" / "wellset.json"


def gap_at_interval_ends(ws, delta0):
    intervals = admissible_normal_intervals(ws.twin_normals(), delta0)
    ends = np.array([end for iv in intervals for end in iv])
    return min(
        float(_tangent_gap(ws.matrices[a], ws.matrices[b], ends).min())
        for a in range(ws.k)
        for b in range(a + 1, ws.k)
    )


def grid_min(ws, delta0, points):
    """Minimum of | |U_a tau| - |U_b tau| | on a uniform grid of every
    admissible normal interval, ends included."""
    intervals = admissible_normal_intervals(ws.twin_normals(), delta0)
    return min(
        float(_tangent_gap(ws.matrices[a], ws.matrices[b], np.linspace(lo, hi, points)).min())
        for a in range(ws.k)
        for b in range(a + 1, ws.k)
        for lo, hi in intervals
    )


@st.composite
def spd_well_sets(draw):
    mats = []
    for _ in range(draw(st.integers(2, 3))):
        lam = [draw(st.floats(0.4, 2.5)) for _ in range(2)]
        rot = rotation_2d(draw(st.floats(0.0, math.pi)))
        mats.append(rot @ np.diag(lam) @ rot.T)
    return mats


class TestAgainstTwoDimensionalSearch:
    @settings(max_examples=25, deadline=None)
    @given(spd_well_sets(), st.sampled_from([0.02, 0.05, 0.1]))
    # the minimum lies at an interval end, where the grid finds it too, and
    # the 2-D search stops 1.5e-4 relative above it
    @example(
        [
            np.array([[2.11684015, -0.00879058], [-0.00879058, 2.12534735]]),
            np.array([[1.17198383, -0.57547178], [-0.57547178, 1.78548841]]),
        ],
        0.02,
    )
    def test_never_above_oracle(self, mats, delta0):
        try:
            ws = WellSet(mats)
            val = compute_dbar(ws, delta0)
        except WellSetError:
            assume(False)
        assert val <= reference_compute_dbar(ws, delta0) + 1e-12
        # nor above a dense 1-D grid, ends included
        grid = grid_min(ws, delta0, 20001)
        assert val <= grid + 1e-12
        if ws.connections and val == gap_at_interval_ends(ws, delta0):
            # a minimum at an admissible interval end is a grid point
            assert abs(val - grid) <= 1e-9 * grid

    def test_interior_minimum_with_twins_below_oracle(self):
        # two twins, and a minimum inside an admissible interval, which
        # the 2-D search overshoots by 1.3e-5 relative
        ws = WellSet(
            [
                np.diag([1.63, 1.62]),
                np.array([[1.73, -0.46], [-0.46, 0.97]]),
                np.array([[1.04, -0.06], [-0.06, 0.64]]),
            ]
        )
        assert len(ws.connections) == 2
        val = compute_dbar(ws, 0.05)
        grid = grid_min(ws, 0.05, 2_000_001)
        assert val < gap_at_interval_ends(ws, 0.05)
        assert val <= grid and grid - val <= 1e-10 * grid
        assert reference_compute_dbar(ws, 0.05) > val * (1 + 1e-5)

    def test_near_twin_pair(self):
        # a pair 1e-6 apart, whose twins the polar form refused: the gap
        # is smallest at an admissible interval end, a grid point, and the
        # 2-D search stops at about twice it
        ws = WellSet([np.diag([2.0, 0.5]), np.array([[2.000001, 0.0], [0.0, 0.499999]])])
        assert len(ws.connections) == 2
        val = compute_dbar(ws, 0.05)
        assert val == gap_at_interval_ends(ws, 0.05)
        assert abs(val - grid_min(ws, 0.05, 20001)) <= 1e-9 * val
        assert val <= reference_compute_dbar(ws, 0.05)


class TestTwinFree:
    def test_identity_against_diagonal(self):
        ws = WellSet([np.eye(2), np.diag([2.0, 3.0])])
        assert ws.connections == []
        val = compute_dbar(ws, 0.05)
        grid = grid_min(ws, 0.05, 2_000_001)
        assert abs(val - grid) <= 1e-10 * grid

    def test_rotated_pair_below_oracle(self):
        # the 2-D search stops 0.4% above the true minimum on this pair,
        # which overstates c0 and with it the spin threshold c0/100
        rot = rotation_2d(0.7)
        ws = WellSet([np.diag([1.0, 3.0]), rot @ np.diag([0.8, 1.2]) @ rot.T])
        assert ws.connections == []
        val = compute_dbar(ws, 0.05)
        grid = grid_min(ws, 0.05, 2_000_001)
        assert val <= grid and grid - val <= 1e-10 * grid
        assert reference_compute_dbar(ws, 0.05) > 1.003 * val

    def test_constant_gap_is_exact(self):
        # for I and 2 I the gap is 1 at every tangent
        assert compute_dbar(WellSet([np.eye(2), 2.0 * np.eye(2)]), 0.05) == 1.0


def spd_well(draw):
    """An SPD well, isotropic one time in three."""
    lam = draw(st.floats(0.4, 2.5))
    if draw(st.integers(0, 2)) == 0:
        return lam * np.eye(2)
    rot = rotation_2d(draw(st.floats(0.0, math.pi)))
    return rot @ np.diag([lam, draw(st.floats(0.4, 2.5))]) @ rot.T


@st.composite
def gap_cases(draw):
    """Two wells, the second one a near twin of the first half of the time,
    and one of their admissible intervals at delta0, whole or cut at one
    end, so that many intervals still touch 0 or pi."""
    u1 = spd_well(draw)
    if draw(st.booleans()):
        u2 = u1 + 10.0 ** draw(st.floats(-8.0, -1.0)) * spd_well(draw)
    else:
        u2 = spd_well(draw)
    normals = [c.b for c in twin_solve(u1, u2).connections]
    intervals = admissible_normal_intervals(normals, draw(st.floats(1e-3, 0.3)))
    assume(intervals)
    lo, hi = intervals[draw(st.integers(0, len(intervals) - 1))]
    cut = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    lo, hi = draw(st.sampled_from([(lo, hi), (lo, cut), (cut, hi)]))
    assume(hi - lo > 1e-9)
    return u1, u2, lo, hi


class TestExactMinimum:
    """The minimum over interval ends and critical angles against the
    scan-and-polish kernel it replaced and a dense grid."""

    @settings(max_examples=300, deadline=None)
    @given(gap_cases())
    # the isotropic well leaves only round-off in the cubic terms of F, and
    # the roots of np.roots alone land 1.4e-10 above the oracle
    @example((np.eye(2), np.diag([1.5, 2.0]), 0.0, math.pi))
    # condition numbers near 1e3 and 1e4 leave np.roots 2e4 times the noise
    # bound above the oracle without the Newton steps
    @example(
        (
            np.array([[1.13690598, 0.13653631], [0.13653631, 0.01963281]]),
            np.array([[466.322486, 57.134644], [57.134644, 7.638115]]),
            0.0,
            math.pi,
        )
    )
    # F underflows whole (1e-100) or to subnormal coefficients (1e-80) when
    # one well dwarfs the other; the larger well's own critical angles serve
    @example((1e-100 * np.diag([1.0, 3.0]), 1e100 * np.diag([1.0, 2.0]), 0.3, math.pi))
    @example((1e-80 * np.diag([1.0, 3.0]), 1e80 * np.diag([1.0, 2.0]), 0.3, math.pi))
    def test_never_above_scan_or_grid(self, case):
        u1, u2, lo, hi = case
        val = _tangent_gap_min(u1, u2, np.array([[lo, hi]]))
        # |U tau| <= |U|_F, so the gap is off by a few ulps of that at most
        noise = 4.0 * np.finfo(float).eps * (np.linalg.norm(u1) + np.linalg.norm(u2))
        assert val <= grid_tangent_gap_min(u1, u2, lo, hi) + noise
        assert val <= _tangent_gap(u1, u2, np.linspace(lo, hi, 20001)).min() + noise

    @settings(max_examples=60, deadline=None)
    @given(spd_well_sets(), st.integers(-60, 60))
    def test_power_of_two_scale_is_exact(self, mats, j):
        try:
            val = compute_dbar(WellSet(mats), 0.05)
        except WellSetError:
            assume(False)
        scaled = WellSet([np.ldexp(m, j) for m in mats])
        assert compute_dbar(scaled, 0.05) == np.ldexp(val, j)


class TestSvdFree:
    """The planar mesh path, its facet-jump kernel and compute_dbar never
    call an SVD."""

    @pytest.fixture
    def shipped(self):
        doc = json.loads(SHIPPED_WELLS.read_text())["wells"]
        ws = WellSet(doc["wells"])  # its twins are solved on first read, without an SVD
        return ws, doc["delta0"]

    def test_mesh_and_dbar_without_svd(self, shipped, monkeypatch):
        ws, delta0 = shipped

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert compute_dbar(ws, delta0) > 0
        rot = find_admissible_rotation(ws).rotation
        mesh = jitter_vertices(build_kuhn_mesh(2, 16, lattice_rotation=rot), 0.1, np.random.default_rng(0))
        # the facet-jump kernel, on the mesh's normals and on mapped ones
        values = np.random.default_rng(0).normal(size=(3, mesh.n_cells, 2, 2))
        assert tangential_jump_residual(mesh, values).shape == (3,)
        field = IncompatibleField(mesh=mesh, values=values[0], map_matrix=np.diag([2.0, 0.5]))
        assert bv_structure_check(field).curl.total > 0

    def test_dbar_allocates_under_one_mib(self, shipped):
        ws, delta0 = shipped
        tracemalloc.start()
        try:
            compute_dbar(ws, delta0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
