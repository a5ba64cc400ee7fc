"""Tests for the spin classification, perimeters and partition extraction."""

import math

import numpy as np
import pytest

from conftest import auto_laminate
from wellspin.fields import PWAffineField, build_laminate, evaluate_energy
from wellspin.mesh import build_kuhn_mesh
from wellspin.numerics import loglog_slope
from wellspin.spin import (
    BAD_LABEL,
    SpinError,
    classify,
    count_bad_cells,
    discrete_perimeter,
    extract_partition,
    verify_spin_lemma,
)
from wellspin.wells import WellSet, WellSetError, dist_to_wells_batch, random_rotation


def aligned_adversarial_laminate(wells):
    """Laminate whose twin normal coincides with a Kuhn diagonal facet
    normal on the unrotated mesh; kink planes land exactly on facets."""
    mesh = build_kuhn_mesh(2, 8)
    diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
    conn = max(wells.connections, key=lambda c: abs(c.b @ diag))
    assert abs(conn.b @ diag) > 1 - 1e-12
    spacing = 1.0 / (np.sqrt(2.0) * mesh.m)  # facet-plane spacing along b
    period = 4.0 * spacing
    offset = float((mesh.vertices @ conn.b).min())
    field = build_laminate(mesh, wells, conn, 0.5, period, offset=offset)
    return mesh, field


class TestClassify:
    def test_single_well_field(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], wells_std.matrices[0])
        lab = classify(field, wells_std)
        assert np.all(lab.labels == 0)
        assert count_bad_cells(lab) == 0

    def test_requires_c0(self, admissible_meshes):
        # without a delta0 the set has no dbar, so no default threshold
        ws = WellSet([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])
        field = PWAffineField.from_linear(admissible_meshes[8], ws.matrices[0])
        with pytest.raises(WellSetError, match="delta0"):
            classify(field, ws)
        assert classify(field, ws, threshold=0.01).bad_volume == 0.0

    def test_midpoint_cell_is_bad(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        conn = wells_std.connections[0]
        grads = np.broadcast_to(
            wells_std.matrices[0], (mesh.n_cells, 2, 2)
        ).copy()
        mid = 0.5 * (wells_std.matrices[0] + conn.rotation @ wells_std.matrices[1])
        grads[3] = mid
        field = PWAffineField(mesh, grads, validate=False)
        (d,), _ = dist_to_wells_batch(mid[None], wells_std)
        assert d > wells_std.c0 / 100.0
        lab = classify(field, wells_std)
        assert lab.labels[3] == BAD_LABEL
        assert count_bad_cells(lab) == 1

    def test_threshold_inclusive(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        bump = wells_std.matrices[0] * 1.001
        grads = np.broadcast_to(wells_std.matrices[0], (mesh.n_cells, 2, 2)).copy()
        grads[0] = bump
        field = PWAffineField(mesh, grads, validate=False)
        (d,), _ = dist_to_wells_batch(bump[None], wells_std)
        lab_at = classify(field, wells_std, threshold=d)
        assert lab_at.labels[0] == 0  # <= is inclusive
        lab_below = classify(field, wells_std, threshold=np.nextafter(d, 0.0))
        assert lab_below.labels[0] == BAD_LABEL

    def test_laminate_bad_count_scaling(self, wells_std, admissible_meshes):
        counts = {}
        for m in (16, 32, 64):
            lab = classify(auto_laminate(admissible_meshes[m], wells_std), wells_std)
            counts[m] = count_bad_cells(lab)
        kappa = counts[16] / 16.0
        for m in (32, 64):
            assert counts[m] <= 2.0 * kappa * m
        slope, _ = loglog_slope(list(counts), list(counts.values()))
        assert 2 - 1.3 <= slope <= 2 - 0.7  # n - 1 for n = 2

    def test_labels_rotation_invariant(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        rng = np.random.default_rng(11)
        rot = random_rotation(rng, 2)
        lab0 = classify(field, wells_std)
        lab1 = classify(field.rotated(rot), wells_std)
        assert np.array_equal(lab0.labels, lab1.labels)
        assert np.max(np.abs(lab0.distances - lab1.distances)) < 1e-9


class TestSpinLemma:
    def test_laminate_admissible_no_violations(self, wells_std, admissible_meshes):
        field = auto_laminate(admissible_meshes[16], wells_std)
        lab = classify(field, wells_std)
        assert verify_spin_lemma(field, lab, wells_std) == []

    def test_single_well_no_violations(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], wells_std.matrices[1])
        lab = classify(field, wells_std)
        assert verify_spin_lemma(field, lab, wells_std) == []

    def test_aligned_mesh_finds_violations(self, wells_std):
        mesh, field = aligned_adversarial_laminate(wells_std)
        lab = classify(field, wells_std)
        violations = verify_spin_lemma(field, lab, wells_std)
        assert len(violations) >= 1
        v = violations[0]
        assert v.well_label != v.other_label
        assert v.dist_other_to_well > lab.threshold

    def test_random_fields_property(self, wells_std, admissible_meshes):
        # randomized laminates, rotations and smooth perturbations never
        # produce well-to-well contacts on an admissible mesh
        mesh = admissible_meshes[16]
        rng = np.random.default_rng(1234)
        for _ in range(50):
            conn = wells_std.connections[rng.integers(0, 2)]
            vf = rng.uniform(0.25, 0.75)
            period = rng.uniform(0.3, 0.8)
            offset = rng.uniform(0.0, period)
            base = build_laminate(mesh, wells_std, conn, vf, period, offset=offset)
            rot = random_rotation(rng, 2)
            amp = wells_std.c0 / 1000.0
            kx, ky = rng.uniform(1.0, 3.0, 2)

            def fn(x, rot=rot, base=base, amp=amp, kx=kx, ky=ky):
                vals = x @ (rot @ wells_std.matrices[conn.i]).T
                return vals + amp * np.stack(
                    [np.sin(kx * np.pi * x[:, 0]), np.cos(ky * np.pi * x[:, 1])], 1
                )

            field = base.rotated(rot)
            lab = classify(field, wells_std)
            assert verify_spin_lemma(field, lab, wells_std) == []
            bumpy = PWAffineField.from_vertex_function(mesh, fn)
            lab2 = classify(bumpy, wells_std)
            assert verify_spin_lemma(bumpy, lab2, wells_std) == []


class TestPerimeter:
    def test_uniform_label_boundary_only(self, wells_std):
        mesh = build_kuhn_mesh(2, 8)
        field = PWAffineField.from_linear(mesh, wells_std.matrices[0])
        lab = classify(field, wells_std)
        assert discrete_perimeter(lab, 0) == pytest.approx(4.0, abs=1e-9)
        assert discrete_perimeter(lab, 0, include_boundary=False) == 0.0

    def test_half_split_interface(self, wells_std):
        mesh = build_kuhn_mesh(2, 8)
        field = PWAffineField.from_linear(mesh, wells_std.matrices[0])
        lab = classify(field, wells_std)
        left = mesh.barycenters[:, 0] < 0.5
        lab.labels = np.where(left, 0, 1)
        interior_interface = discrete_perimeter(lab, 0, include_boundary=False)
        assert interior_interface == pytest.approx(1.0, abs=1e-9)
        # interface (1) plus the domain boundary of the left half (2)
        assert discrete_perimeter(lab, 0) == pytest.approx(3.0, abs=1e-9)

    def test_unknown_label_rejected(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], wells_std.matrices[0])
        lab = classify(field, wells_std)
        with pytest.raises(SpinError):
            discrete_perimeter(lab, -7)

    def test_laminate_perimeters_bounded_in_m(self, wells_std, admissible_meshes):
        for well in (0, 1):
            values = []
            for m in (8, 16, 32, 64):
                lab = classify(
                    auto_laminate(admissible_meshes[m], wells_std), wells_std
                )
                values.append(discrete_perimeter(lab, well))
            assert max(values) / min(values) <= 2.0


class TestCounting:
    def test_zero_energy_field(self, wells_std, admissible_meshes):
        field = PWAffineField.from_linear(admissible_meshes[8], wells_std.matrices[0])
        assert count_bad_cells(classify(field, wells_std)) == 0

    def test_chebyshev_bound_exact(self, wells_std, admissible_meshes):
        c1 = 1.0
        for m in (8, 16, 32):
            field = auto_laminate(admissible_meshes[m], wells_std)
            lab = classify(field, wells_std)
            rep = evaluate_energy(field, wells_std, c1=c1)
            lhs = (
                count_bad_cells(lab)
                * (wells_std.c0 / 100.0) ** 2
                * c1
                * float(field.mesh.volumes.min())
            )
            assert lhs <= rep.total

    def test_bound_rederived_from_per_cell_energies(self, wells_std, admissible_meshes):
        field = auto_laminate(admissible_meshes[16], wells_std)
        lab = classify(field, wells_std)
        rep = evaluate_energy(field, wells_std)
        thr2 = (wells_std.c0 / 100.0) ** 2
        bound = rep.total / (thr2 * 1.0 * float(field.mesh.volumes.min()))
        assert count_bad_cells(lab) <= bound


class TestPartition:
    def test_single_rotated_state(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(21)
        r0 = random_rotation(rng, 2)
        field = PWAffineField.from_linear(mesh, r0 @ wells_std.matrices[0])
        lab = classify(field, wells_std)
        part = extract_partition(field, lab, wells_std)
        assert len(part.components) == 1
        comp = part.components[0]
        assert comp.well == 0
        assert np.linalg.norm(comp.rotation - r0) < 1e-10
        assert comp.residual < 1e-9
        assert part.bad_volume == 0.0

    def test_two_rotation_states_with_transition(self, wells_std):
        # two rotations of the same well joined by a thin transition band;
        # the band is BAD, the two large components recover R1, R2
        mesh = build_kuhn_mesh(2, 16)
        u1 = wells_std.matrices[0]
        t1, t2 = 0.3, 1.1
        lo, hi = 0.45, 0.55

        def fn(x):
            t = np.clip((x[:, 0] - lo) / (hi - lo), 0.0, 1.0)
            theta = t1 + (t2 - t1) * t
            c, s = np.cos(theta), np.sin(theta)
            ux = x @ u1.T
            return np.stack(
                [c * ux[:, 0] - s * ux[:, 1], s * ux[:, 0] + c * ux[:, 1]], 1
            )

        field = PWAffineField.from_vertex_function(mesh, fn)
        lab = classify(field, wells_std)
        part = extract_partition(field, lab, wells_std)
        big = [c for c in part.components if c.volume > 0.1]
        assert len(big) == 2
        rots = sorted(
            [math.atan2(c.rotation[1, 0], c.rotation[0, 0]) for c in big]
        )
        assert abs(rots[0] - t1) < 1e-6
        assert abs(rots[1] - t2) < 1e-6

    def test_degenerate_component_flagged(self, wells_std, admissible_meshes):
        # a reflected state is far from every well; forcing it into a label
        # with a huge threshold gives a mean with negative determinant,
        # which must be flagged instead of fitted
        mesh = admissible_meshes[8]
        reflected = np.diag([-1.0, 1.0]) @ wells_std.matrices[0]
        field = PWAffineField.from_linear(mesh, reflected)
        lab = classify(field, wells_std, threshold=100.0)
        part = extract_partition(field, lab, wells_std)
        assert len(part.components) == 1
        comp = part.components[0]
        assert comp.degenerate
        assert comp.rotation is None and comp.residual is None

    def test_volume_completeness(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        lab = classify(field, wells_std)
        part = extract_partition(field, lab, wells_std)
        total = sum(c.volume for c in part.components) + part.bad_volume
        assert total == pytest.approx(mesh.effective_volume, rel=1e-12)

    def test_laminate_sweep_components_and_residuals(
        self, wells_std, admissible_meshes
    ):
        counts, residuals = [], []
        for m in (8, 16, 32, 64):
            mesh = admissible_meshes[m]
            # the ripple makes the family a genuinely m-dependent sequence,
            # so the fitted-rotation residuals have a real 1/m decay
            field = auto_laminate(mesh, wells_std, ripple=0.004)
            lab = classify(field, wells_std)
            part = extract_partition(field, lab, wells_std)
            macro = part.macroscopic(0.01 * mesh.effective_volume)
            counts.append(len(macro))
            residuals.append(max(c.residual for c in macro))
        assert len(set(counts)) == 1  # stable macroscopic component count
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_bad_volume_decay_constant(self, wells_std, admissible_meshes):
        scaled = []
        for m in (16, 32, 64):
            lab = classify(auto_laminate(admissible_meshes[m], wells_std), wells_std)
            scaled.append(lab.bad_volume * m)
        assert max(scaled) / min(scaled) <= 2.0

    def test_fitted_rotations_conjugate_under_global_rotation(
        self, wells_std, admissible_meshes
    ):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        rng = np.random.default_rng(9)
        rot = random_rotation(rng, 2)
        p0 = extract_partition(field, classify(field, wells_std), wells_std)
        rotated = field.rotated(rot)
        p1 = extract_partition(rotated, classify(rotated, wells_std), wells_std)
        for c0, c1 in zip(p0.components, p1.components):
            assert np.linalg.norm(rot @ c0.rotation - c1.rotation) < 1e-9
