"""Tests for piecewise-affine fields, laminates and the multi-well energy."""

import numpy as np
import pytest

from conftest import auto_laminate
from kuhn_reference import mesh_constants
from wellspin.fields import (
    FieldError,
    PWAffineField,
    build_laminate,
    evaluate_energy,
    laminate_profile,
    laminate_values,
)
from wellspin.mesh import build_kuhn_mesh
from wellspin.wells import dist_to_wells_batch, random_rotation


def brute_force_well_dist2(gradients, wells, n_angles=10**6):
    """Rotation-grid oracle for squared well distances, batched over cells.

    Expands |F - Q U|^2 = |F|^2 + |U|^2 - 2 tr(Q^T F U^T) so the grid scan
    is a matrix product against (cos, sin)."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    basis = np.stack([np.cos(thetas), np.sin(thetas)])
    out = np.full(len(gradients), np.inf)
    for u in wells.matrices:
        m = gradients @ u.T  # (C, n, n)
        alpha = m[:, 0, 0] + m[:, 1, 1]
        beta = m[:, 1, 0] - m[:, 0, 1]
        const = (gradients**2).sum(axis=(1, 2)) + (u**2).sum()
        best = np.full(len(gradients), -np.inf)
        for s in range(0, n_angles, 200_000):
            block = np.stack([alpha, beta], axis=1) @ basis[:, s : s + 200_000]
            best = np.maximum(best, block.max(axis=1))
        out = np.minimum(out, const - 2.0 * best)
    return np.maximum(out, 0.0)


class TestPWAffineField:
    def test_linear_field_gradient(self, admissible_meshes):
        mesh = admissible_meshes[8]
        f = np.array([[1.0, 0.3], [0.0, 2.0]])
        field = PWAffineField.from_linear(mesh, f)
        assert np.allclose(field.gradients, f[None], atol=1e-12)
        assert field.continuity_residual < 1e-12

    def test_continuity_invariant_on_vertex_fields(self, admissible_meshes):
        mesh = admissible_meshes[16]
        rng = np.random.default_rng(2)

        def fn(x):
            return np.stack(
                [
                    np.sin(2 * np.pi * x[:, 0]) + x[:, 1],
                    np.cos(2 * np.pi * x[:, 1]) - 0.5 * x[:, 0],
                ],
                axis=1,
            )

        field = PWAffineField.from_vertex_function(mesh, fn)
        scale = np.linalg.norm(field.gradients, axis=(1, 2)).max()
        assert field.continuity_residual <= 1e-9 * scale

    def test_discontinuous_gradients_rejected(self, admissible_meshes):
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(3)
        grads = rng.standard_normal((mesh.n_cells, 2, 2))
        with pytest.raises(FieldError):
            PWAffineField(mesh, grads)

    def test_shape_mismatch_rejected(self, admissible_meshes):
        with pytest.raises(FieldError):
            PWAffineField(admissible_meshes[8], np.zeros((3, 2, 2)))


class TestEnergy:
    def test_exact_well_zero(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], wells_std.matrices[0])
        rep = evaluate_energy(field, wells_std)
        assert rep.total == 0.0

    def test_frame_indifference(self, wells_std, admissible_meshes):
        rng = np.random.default_rng(4)
        r = random_rotation(rng, 2)
        field = PWAffineField.from_linear(admissible_meshes[8], r @ wells_std.matrices[1])
        rep = evaluate_energy(field, wells_std)
        assert rep.total <= 1e-18 * max(np.linalg.norm(wells_std.matrices[1]), 1.0)

    def test_rotated_laminate_energy_invariant(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        rng = np.random.default_rng(5)
        rotated = field.rotated(random_rotation(rng, 2))
        e0 = evaluate_energy(field, wells_std).total
        e1 = evaluate_energy(rotated, wells_std).total
        assert abs(e0 - e1) <= 1e-12 * e0

    def test_laminate_matches_brute_force_oracle(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        rep = evaluate_energy(field, wells_std)
        oracle_d2 = brute_force_well_dist2(field.gradients, wells_std)
        oracle_total = float((oracle_d2 * mesh.volumes).sum())
        assert rep.total == pytest.approx(oracle_total, rel=1e-4)

    def test_report_identity(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        field = auto_laminate(mesh, wells_std)
        rep = evaluate_energy(field, wells_std, c1=2.5)
        recomputed = float((2.5 * rep.per_cell_dist2 * mesh.volumes).sum())
        assert rep.total == recomputed

    def test_custom_density_dominates_default(self, wells_std):
        rng = np.random.default_rng(6)

        def density(m):
            d, _ = dist_to_wells_batch(m[None], wells_std)
            return float(3.0 * d[0] ** 2 + 0.1 * d[0] ** 4)

        samples = rng.uniform(-3, 3, (10_000, 2, 2))
        d, _ = dist_to_wells_batch(samples, wells_std)
        vals = 3.0 * d**2 + 0.1 * d**4
        assert np.all(vals >= 1.0 * d**2 - 1e-12)

    def test_mismatched_mesh_rejected(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], np.eye(2))
        other = build_kuhn_mesh(2, 4)
        field.mesh = other  # sabotage
        with pytest.raises(FieldError):
            PWAffineField(other, np.zeros((5, 2, 2)))


class TestLaminate:
    def test_profile_continuous_and_periodic_slopes(self):
        ts = np.linspace(-3, 3, 10_001)
        g = laminate_profile(ts, 0.5, 1.0)
        slopes = np.diff(g) / np.diff(ts)
        assert np.all(slopes <= 1e-9)
        assert np.all(slopes >= -1.0 - 1e-9)

    def test_values_batched_as_one_at_a_time(self):
        # the spin suite's block of fields and build_laminate's single field
        # come from the same kernel, so a field's values must not depend on
        # the block it is in
        rng = np.random.default_rng(3)
        for _ in range(50):
            count, points = int(rng.integers(1, 8)), int(rng.integers(1, 200))
            x = rng.uniform(-1.0, 2.0, (points, 2))
            ui, a = rng.standard_normal((count, 2, 2)), rng.standard_normal((count, 2))
            b = rng.standard_normal((count, 2))
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            vf, period = rng.uniform(0.1, 0.9, count), rng.uniform(0.05, 1.0, count)
            offset = rng.uniform(-1.0, 1.0, count)
            block = laminate_values(x, ui, a, b, vf, period, offset)
            assert block.shape == (count, len(x), 2)
            for k in range(count):
                one = laminate_values(x, ui[k], a[k], b[k], vf[k], period[k], offset[k])
                assert one.tobytes() == block[k].tobytes()
            # U_i x + a g(b . x), written out for the last field
            g = laminate_profile(x @ b[k], vf[k], period[k], offset[k])
            np.testing.assert_allclose(one, x @ ui[k].T + np.outer(g, a[k]), rtol=0, atol=1e-12)

    def test_unit_volume_fraction_rejected(self, wells_std, admissible_meshes):
        # a single phase is no laminate, as the config schema says too
        conn = wells_std.connections[0]
        with pytest.raises(FieldError, match=r"\(0, 1\)"):
            build_laminate(admissible_meshes[16], wells_std, conn, 1.0, 0.5)

    def test_gradients_hit_both_wells(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        d, nearest = dist_to_wells_batch(field.gradients, wells_std)
        exact = d < 1e-9
        assert exact.mean() > 0.6
        assert set(np.unique(nearest[exact])) == {0, 1}

    def test_transition_cell_count_scales_like_m(self, wells_std, admissible_meshes):
        c0 = wells_std.c0
        counts = {}
        for m in (16, 32, 64):
            field = auto_laminate(admissible_meshes[m], wells_std)
            d, _ = dist_to_wells_batch(field.gradients, wells_std)
            counts[m] = int((d > c0 / 100.0).sum())
        kappa = counts[16] / 16
        assert counts[32] <= 2.0 * kappa * 32
        assert counts[64] <= 2.0 * kappa * 64
        assert counts[64] >= 0.25 * kappa * 64

    def test_energy_scaling_slope(self, wells_std, admissible_meshes):
        from wellspin.numerics import loglog_slope

        ms = [8, 16, 32, 64]
        es = [
            evaluate_energy(auto_laminate(admissible_meshes[m], wells_std), wells_std).total
            for m in ms
        ]
        slope, _ = loglog_slope(ms, es)
        assert -1.25 <= slope <= -0.75

    def test_energy_concentrates_near_interfaces(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[32]
        conn = wells_std.connections[0]
        field = auto_laminate(mesh, wells_std)
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        proj = corners @ conn.b
        period = (proj.max() - proj.min()) / 2.0
        offset = proj.min()
        t = mesh.barycenters @ conn.b - offset
        # distance to the nearest kink plane (kinks at 0 and vf*period mod period)
        frac = np.mod(t, period)
        kink_dist = np.minimum.reduce(
            [frac, np.abs(frac - 0.5 * period), period - frac]
        )
        diam = mesh_constants(mesh).diameter_upper / mesh.m
        far = kink_dist > 2.0 * diam
        d, _ = dist_to_wells_batch(field.gradients[far], wells_std)
        assert np.all(d <= 1e-9)

    def test_period_too_small_rejected(self, wells_std, admissible_meshes):
        with pytest.raises(FieldError):
            build_laminate(
                admissible_meshes[8], wells_std, wells_std.connections[0], 0.5, 0.1
            )
