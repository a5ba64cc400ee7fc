"""compute_dbar's 1-D reduction against the 2-D search it replaced and
against dense 1-D grids, and the SVD-free planar geometry of the mesh
path."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dbar_reference import reference_compute_dbar
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wellspin import wells
from wellspin.fields import tangential_jump_residual
from wellspin.mesh import build_kuhn_mesh, find_admissible_rotation
from wellspin.numerics import golden_min
from wellspin.rigidity import IncompatibleField, bv_structure_check
from wellspin.wells import (
    WellSet,
    WellSetError,
    _tangent_gap,
    admissible_normal_intervals,
    compute_dbar,
    rotation_2d,
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

    def test_constant_gap_is_not_polished(self, monkeypatch):
        # for I and 2 I the gap is 1 at every tangent, and its rounding
        # noise makes dozens of grid points local minima
        flat = WellSet([np.eye(2), 2.0 * np.eye(2)])
        shipped = WellSet([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return golden_min(*args, **kwargs)

        monkeypatch.setattr(wells, "golden_min", counting)
        val = compute_dbar(flat, 0.05)
        assert len(calls) <= 2
        assert abs(val - 1.0) <= 4 * np.finfo(float).eps
        # the shipped wells still polish their genuine minima
        calls.clear()
        compute_dbar(shipped, 0.05)
        assert len(calls) >= 1


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
        mesh = build_kuhn_mesh(2, 16, lattice_rotation=rot, jitter=0.1)
        # the facet-jump kernel, on the mesh's normals and on mapped ones
        values = np.random.default_rng(0).normal(size=(3, mesh.n_cells, 2, 2))
        assert tangential_jump_residual(mesh, values).shape == (3,)
        field = IncompatibleField(mesh=mesh, values=values[0], map_matrix=np.diag([2.0, 0.5]))
        assert bv_structure_check(field).curl_total > 0

    def test_dbar_allocates_under_one_mib(self, shipped):
        ws, delta0 = shipped
        tracemalloc.start()
        try:
            compute_dbar(ws, delta0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
