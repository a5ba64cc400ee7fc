"""Tests for the energy-well algebra."""

import math

import numpy as np
import pytest
from dbar_reference import reference_compute_dbar

from wellspin.wells import (
    WellSet,
    WellSetError,
    _check_finite,
    admissible_normal_intervals,
    compute_dbar,
    dist_to_son_batch,
    dist_to_wells_batch,
    polar_rotation,
    random_rotation,
    rotation_2d,
    solve_all_connections,
    solve_rank_one,
    well_distance,
)

U1 = np.diag([2.0, 0.5])
U2 = np.diag([0.5, 2.0])


def standard_pair():
    return WellSet([U1, U2])


def dist_to_son(f):
    """The distance of one matrix to SO(n), through the batched kernel,
    after the finiteness check of the single-matrix distances."""
    return float(dist_to_son_batch(_check_finite(f)[None])[0])


def brute_force_dist_to_so2(f, n_angles=10**6):
    """Independent oracle: dense scan over rotation angles."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    d00 = f[0, 0] - c
    d01 = f[0, 1] + s
    d10 = f[1, 0] - s
    d11 = f[1, 1] - c
    return float(np.sqrt(d00**2 + d01**2 + d10**2 + d11**2).min())


def brute_force_dist_to_well(f, u, n_angles=10**6):
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    c, s = np.cos(thetas), np.sin(thetas)
    q = np.empty((n_angles, 2, 2))
    q[:, 0, 0] = c
    q[:, 0, 1] = -s
    q[:, 1, 0] = s
    q[:, 1, 1] = c
    diffs = f[None] - q @ u
    return float(np.linalg.norm(diffs, axis=(1, 2)).min())


class TestDistToSon:
    def test_identity_is_rotation(self):
        assert dist_to_son(np.eye(2)) == 0.0

    def test_diag_matches_brute_force(self):
        f = np.diag([2.0, 0.5])
        assert abs(dist_to_son(f) - brute_force_dist_to_so2(f)) < 1e-5

    def test_minus_identity_in_so2(self):
        f = -np.eye(2)
        oracle = brute_force_dist_to_so2(f)
        assert oracle < 1e-5
        assert dist_to_son(f) < 1e-12

    def test_negative_det_matches_brute_force(self):
        f = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert abs(dist_to_son(f) - brute_force_dist_to_so2(f)) < 1e-5

    def test_random_matrices_against_brute_force(self):
        # same rotation-grid oracle, with |F - Q(t)|^2 expanded to
        # |F|^2 + 2 - 2 tr(Q^T F) so the 100 x 1e6 sweep stays a matmul
        rng = np.random.default_rng(7)
        fs = rng.uniform(-3.0, 3.0, (100, 2, 2))
        thetas = np.linspace(0.0, 2.0 * np.pi, 10**6, endpoint=False)
        basis = np.stack([np.cos(thetas), np.sin(thetas)])  # (2, 1e6)
        alpha = fs[:, 0, 0] + fs[:, 1, 1]
        beta = fs[:, 1, 0] - fs[:, 0, 1]
        coef = np.stack([alpha, beta], axis=1)  # (100, 2)
        norms2 = (fs**2).sum(axis=(1, 2))
        best = np.full(100, np.inf)
        for s in range(0, basis.shape[1], 250_000):
            d2 = norms2[:, None] + 2.0 - 2.0 * (coef @ basis[:, s : s + 250_000])
            best = np.minimum(best, d2.min(axis=1))
        oracle = np.sqrt(np.maximum(best, 0.0))
        for f, ref in zip(fs, oracle):
            assert abs(dist_to_son(f) - ref) < 1e-5

    def test_frame_indifference(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.uniform(-3.0, 3.0, (2, 2))
            r = random_rotation(rng, 2)
            d = dist_to_son(f)
            assert abs(dist_to_son(r @ f) - d) < 1e-9
            assert abs(dist_to_son(f @ r) - d) < 1e-9

    def test_nonfinite_rejected(self):
        with pytest.raises(WellSetError):
            dist_to_son(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestDistToWells:
    def test_exact_well_member(self):
        ws = standard_pair()
        (d,), (j,) = dist_to_wells_batch(U1[None], ws)
        assert d == 0.0 and j == 0

    def test_rotated_member(self):
        ws = standard_pair()
        rng = np.random.default_rng(3)
        q = random_rotation(rng, 2)
        (d,), (j,) = dist_to_wells_batch((q @ U2)[None], ws)
        assert d < 1e-10 and j == 1

    def test_midpoint_matches_brute_force(self):
        ws = standard_pair()
        conn = solve_rank_one(ws, 0, 1).connections[0]
        mid = 0.5 * (U1 + conn.rotation @ U2)
        (d,), _ = dist_to_wells_batch(mid[None], ws)
        oracle = min(
            brute_force_dist_to_well(mid, U1), brute_force_dist_to_well(mid, U2)
        )
        assert abs(d - oracle) < 1e-5


class TestWellDistance:
    def test_duplicate_wells_rejected(self):
        with pytest.raises(WellSetError):
            WellSet([U1, U1])

    def test_rotated_copy_same_well_distance_zero(self):
        # the un-symmetrized rotated copy lives on the same orbit
        rotated = rotation_2d(0.4) @ U1
        from wellspin.wells import dist_to_single_well

        assert dist_to_single_well(U1, rotated) < 1e-12

    def test_standard_pair_value(self):
        ws = standard_pair()
        d = well_distance(ws, 0, 1)
        assert abs(d - math.sqrt(4.5)) < 1e-12
        assert abs(d - brute_force_dist_to_well(U1, U2)) < 1e-6

    def test_scaled_well(self):
        ws = WellSet([U1, 1.1 * U1])
        d = well_distance(ws, 0, 1)
        assert abs(d - brute_force_dist_to_well(U1, 1.1 * U1)) < 1e-6

    def test_symmetry(self):
        ws = standard_pair()
        assert abs(well_distance(ws, 0, 1) - well_distance(ws, 1, 0)) < 1e-10

    def test_same_index_rejected(self):
        with pytest.raises(WellSetError):
            well_distance(standard_pair(), 1, 1)


class TestRankOne:
    def test_standard_pair_two_connections(self):
        ws = standard_pair()
        sol = solve_rank_one(ws, 0, 1)
        assert len(sol.connections) == 2
        for conn in sol.connections:
            q = conn.rotation
            assert np.linalg.norm(q.T @ q - np.eye(2)) < 1e-10
            assert abs(np.linalg.det(q) - 1.0) < 1e-10
            assert abs(np.linalg.norm(conn.b) - 1.0) < 1e-12
            assert conn.residual(ws) <= 1e-9 * np.linalg.norm(U1)
            nz = np.nonzero(np.abs(conn.b) > 1e-12)[0]
            assert conn.b[nz[0]] > 0

    def test_root_count_matches_sign_change_oracle(self):
        ws = standard_pair()
        thetas = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        dets = np.array(
            [np.linalg.det(U1 - rotation_2d(t) @ U2) for t in thetas]
        )
        changes = int(np.sum(dets * np.roll(dets, -1) < 0))
        assert changes == len(solve_rank_one(ws, 0, 1).connections) == 2

    def test_twin_normals_orthogonal(self):
        sol = solve_rank_one(standard_pair(), 0, 1)
        b0, b1 = sol.connections[0].b, sol.connections[1].b
        assert abs(b0 @ b1) < 1e-6

    def test_twin_normals_are_diagonals(self):
        bs = sorted(
            [tuple(np.round(c.b, 9)) for c in solve_rank_one(standard_pair(), 0, 1).connections]
        )
        r = 1 / math.sqrt(2)
        assert np.allclose(bs, [(r, -r), (r, r)], atol=1e-9)

    def test_three_one_pair(self):
        ws = WellSet([np.diag([3.0, 1.0]), np.diag([1.0, 3.0])])
        sol = solve_rank_one(ws, 0, 1)
        assert len(sol.connections) == 2
        b0, b1 = sol.connections[0].b, sol.connections[1].b
        assert abs(b0 @ b1) < 1e-6

    def test_rotated_copy_reports_trivial(self):
        # U2 = Q U1 lies on the same well; the zero-difference rotation is
        # reported separately and never as an a=0 connection
        from wellspin.wells import twin_solve

        sol = twin_solve(U1, rotation_2d(0.7) @ U1)
        assert len(sol.trivial_rotations) >= 1
        for conn in sol.connections:
            assert np.linalg.norm(conn.a) > 1e-9

    def test_conjugated_variant_is_distinct_well(self):
        # conjugation by a rotation produces a different variant with two
        # twin connections of its own
        u_conj = rotation_2d(0.3) @ U1 @ rotation_2d(0.3).T
        ws = WellSet([U1, u_conj])
        sol = solve_rank_one(ws, 0, 1)
        assert sol.trivial_rotations == []
        assert len(sol.connections) == 2
        for conn in sol.connections:
            assert conn.residual(ws) <= 1e-9 * np.linalg.norm(U1)

    def test_unconnected_pair_empty(self):
        # wells too far apart in determinant never satisfy the twin equation
        ws = WellSet([np.eye(2), 3.0 * np.eye(2)])
        sol = solve_rank_one(ws, 0, 1)
        assert sol.connections == []

    def test_tangent_pair_double_root_on_grid(self):
        # diagonal wells sharing an eigenvalue: det(U1 - Q(t) U2) touches
        # zero exactly at t = 0 without a sign change
        ws = WellSet([np.diag([2.0, 0.5]), np.diag([2.0, 1.0])])
        sol = solve_rank_one(ws, 0, 1)
        assert len(sol.connections) == 1
        conn = sol.connections[0]
        assert conn.multiplicity == 2
        assert np.allclose(conn.rotation, np.eye(2), atol=1e-12)
        assert conn.residual(ws) <= 1e-9 * np.linalg.norm(ws.matrices[0])

    def test_tangent_pair_double_root_off_grid(self):
        # scale the second well so the determinant's minimum touches zero
        # away from any grid angle. With Q(t) = cos t I + sin t J the
        # determinant is alpha - (beta cos t + gamma sin t), so the exact
        # amplitude is hypot(beta, gamma) and the tangency condition
        # det U1 + s^2 det U2 = s * amplitude is a quadratic in s.
        u1 = rotation_2d(0.3).T @ np.diag([2.0, 0.5]) @ rotation_2d(0.3)
        u2 = np.diag([2.0, 1.0])
        adj1 = np.array([[u1[1, 1], -u1[0, 1]], [-u1[1, 0], u1[0, 0]]])
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        beta = np.trace(adj1 @ u2)
        gamma = np.trace(adj1 @ j @ u2)
        rho = float(np.hypot(beta, gamma))
        det1, det2 = np.linalg.det(u1), np.linalg.det(u2)
        s = (rho - np.sqrt(rho**2 - 4.0 * det1 * det2)) / (2.0 * det2)
        ws = WellSet([u1, s * u2])
        sol = solve_rank_one(ws, 0, 1)
        assert len(sol.connections) == 1
        conn = sol.connections[0]
        assert conn.multiplicity == 2
        theta_star = np.arctan2(conn.rotation[1, 0], conn.rotation[0, 0])
        assert abs(theta_star) > 1e-3  # genuinely off the grid origin
        assert conn.residual(ws) <= 1e-9 * np.linalg.norm(u1)

    def test_requires_distinct_indices(self):
        with pytest.raises(WellSetError):
            solve_rank_one(standard_pair(), 0, 0)


class TestComputeDbar:
    def test_single_well_sentinel(self):
        ws = WellSet([U1], delta0=0.1)
        assert math.isinf(compute_dbar(ws, 0.1))
        assert ws.incompat_dbar == ws.c0 == ws.separation_d == math.inf

    def test_positive_and_grid_stable(self):
        # the 1-D reduction agrees with the 2-D grid search it replaced at
        # both grid sizes; this pair's minimum sits at an interval end,
        # where that search converges
        ws = standard_pair()
        solve_all_connections(ws)
        val = compute_dbar(ws, 0.1)
        assert val > 0
        for q_grid in (8192, 32768):
            oracle = reference_compute_dbar(ws, 0.1, q_grid=q_grid)
            assert val <= oracle + 1e-12
            assert abs(val - oracle) <= 1e-9 * oracle

    def test_matches_exact_tangent_oracle(self):
        # for n=2 the rotation minimum has the closed form
        # | |U1 tau| - |U2 tau| |, an independent check of the nested grids
        ws = standard_pair()
        solve_all_connections(ws)
        val = compute_dbar(ws, 0.05)
        phis = np.linspace(0, np.pi, 400001, endpoint=False)
        b = np.stack([np.cos(phis), np.sin(phis)], 1)
        twins = np.array([c.b for c in ws.connections])
        adm = (np.abs(b @ twins.T) <= 1 - 0.05).all(axis=1)
        tau = np.stack([-np.sin(phis), np.cos(phis)], 1)[adm]
        oracle = np.abs(
            np.linalg.norm(tau @ U1.T, axis=1) - np.linalg.norm(tau @ U2.T, axis=1)
        ).min()
        assert abs(val - oracle) < 1e-4

    def test_monotone_in_delta0(self):
        ws = standard_pair()
        solve_all_connections(ws)
        values = [
            compute_dbar(ws, d0)
            for d0 in (0.1, 0.05, 0.03, 0.01)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0

    def test_too_large_delta0_is_configuration_error(self):
        # both twin normals sit 90 degrees apart; delta0=0.3 forbids the
        # whole circle of facet normals
        ws = standard_pair()
        solve_all_connections(ws)
        with pytest.raises(WellSetError):
            compute_dbar(ws, 0.3)

    def test_bounded_by_well_distance(self):
        ws = standard_pair()
        solve_all_connections(ws)
        val = compute_dbar(ws, 0.1)
        assert val <= math.sqrt(2) * ws.separation_d + 1e-12

    def test_never_reads_mesh_scale(self):
        import inspect

        params = inspect.signature(compute_dbar).parameters
        assert not any("mesh" in p or p == "m" for p in params)

    def test_stores_result_and_c0(self):
        # the set takes dbar at its own delta0, once; compute_dbar at
        # another margin leaves the set as it is
        ws = WellSet([U1, U2], delta0=0.05)
        other = compute_dbar(ws, 0.1)
        assert ws.delta0 == 0.05 and "incompat_dbar" not in vars(ws)
        assert ws.incompat_dbar == compute_dbar(ws, 0.05) != other
        assert "incompat_dbar" in vars(ws)
        assert ws.c0 == min(ws.separation_d, ws.incompat_dbar)


class TestAdmissibleIntervals:
    def test_no_twins_full_circle(self):
        assert admissible_normal_intervals([], 0.1) == [(0.0, np.pi)]

    def test_cones_removed(self):
        ivs = admissible_normal_intervals([np.array([1.0, 0.0])], 0.1)
        beta = math.acos(0.9)
        assert all(beta - 1e-9 <= lo and hi <= math.pi - beta + 1e-9 for lo, hi in ivs)


class TestWellSetValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(WellSetError):
            WellSet([np.array([[1.0, 0.5], [0.0, 1.0]])])

    def test_indefinite_rejected(self):
        with pytest.raises(WellSetError):
            WellSet([np.diag([1.0, -1.0])])

    def test_largest_entry_bounded(self):
        with pytest.raises(WellSetError, match="exceeds 1e\\+150"):
            WellSet([np.diag([1.3e154, 1.0]), np.diag([1.0, 1.3e154])])
        # at the bound the twins and the well distance stay finite
        with np.errstate(all="raise"):
            ws = WellSet([np.diag([1e150, 1.0]), np.diag([1.0, 1e150])])
            solve_all_connections(ws)
        assert math.isfinite(ws.separation_d) and len(ws.connections) == 2

    def test_polar_rotation_projects(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        r = polar_rotation(m)
        assert np.linalg.norm(r.T @ r - np.eye(2)) < 1e-12
        assert abs(np.linalg.det(r) - 1) < 1e-12
        assert abs(np.linalg.norm(m - r) - dist_to_son(m)) < 1e-10
