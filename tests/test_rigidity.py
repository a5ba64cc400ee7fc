"""Tests for curl measures, reduced fields and the empirical rigidity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import auto_laminate
from rigidity_reference import block_closed_form, brute_weak_norm, grid_weak_norm
from wellspin.fields import PWAffineField, build_laminate
from wellspin.mesh import build_kuhn_mesh
from wellspin.rigidity import (
    IncompatibleField,
    RigidityError,
    build_reduced_field,
    bv_structure_check,
    curl_total_variation,
    field_from_blocks,
    phase_boundary_measures,
    random_block_values,
    rigidity_ratio,
    weak_norm,
    weak_rigidity_ratio,
)
from wellspin.numerics import ratio
from wellspin.spin import BAD_LABEL, PhaseLabeling, classify, discrete_perimeter
from wellspin.wells import random_rotation, rotation_2d

EPS = np.finfo(float).eps


def two_rotation_interface(m=8, theta1=0.4, theta2=1.3):
    """R1 left of x=1/2, R2 right of it, on the unrotated unit-square mesh."""
    mesh = build_kuhn_mesh(2, m)
    r1, r2 = rotation_2d(theta1), rotation_2d(theta2)
    values = np.where(
        (mesh.barycenters[:, 0] < 0.5)[:, None, None], r1[None], r2[None]
    )
    return mesh, IncompatibleField(mesh=mesh, values=values), r1, r2


class TestCurl:
    def test_gradient_fields_have_zero_curl(self, wells_std, admissible_meshes):
        for m in (8, 16):
            field = auto_laminate(admissible_meshes[m], wells_std)
            assert curl_total_variation(field).total <= 1e-9

    def test_reduced_single_well_is_identity(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        field = PWAffineField.from_linear(mesh, wells_std.matrices[0])
        lab = classify(field, wells_std)
        reduced = build_reduced_field(field, lab, 0, wells_std)
        assert np.allclose(reduced.values, np.eye(2)[None], atol=1e-12)
        assert curl_total_variation(reduced).total <= 1e-9

    def test_reduced_rotated_well_is_rotation(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(3)
        r = random_rotation(rng, 2)
        field = PWAffineField.from_linear(mesh, r @ wells_std.matrices[1])
        lab = classify(field, wells_std)
        reduced = build_reduced_field(field, lab, 1, wells_std)
        assert np.max(np.abs(reduced.values - r[None])) < 1e-12

    def test_two_rotation_interface_hand_value(self):
        mesh, field, r1, r2 = two_rotation_interface()
        expected = float(np.linalg.norm((r1 - r2) @ np.array([0.0, 1.0])))
        assert curl_total_variation(field).total == pytest.approx(
            expected, abs=1e-10
        )

    def test_facet_masses_invariant_under_global_rotation(self):
        mesh, field, _, _ = two_rotation_interface()
        rng = np.random.default_rng(7)
        r = random_rotation(rng, 2)
        rotated = IncompatibleField(mesh=mesh, values=r[None] @ field.values)
        m0 = curl_total_variation(field).per_facet
        m1 = curl_total_variation(rotated).per_facet
        assert np.max(np.abs(m0 - m1)) < 1e-9

    def test_reduced_laminate_dist_bound(self, wells_std, admissible_meshes):
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        lab = classify(field, wells_std)
        for j in (0, 1):
            reduced = build_reduced_field(field, lab, j, wells_std)
            on = lab.labels == j
            from wellspin.wells import dist_to_son_batch

            dists = dist_to_son_batch(reduced.values[on])
            sigma_min = np.linalg.svd(wells_std.matrices[j], compute_uv=False)[-1]
            assert np.all(dists <= wells_std.c0 / (100.0 * sigma_min) + 1e-12)

    def test_curl_bounded_by_perimeter_across_m(self, wells_std, admissible_meshes):
        ratios = []
        for m in (16, 32, 64):
            field = auto_laminate(admissible_meshes[m], wells_std)
            lab = classify(field, wells_std)
            for j in (0, 1):
                reduced = build_reduced_field(field, lab, j, wells_std)
                curl = curl_total_variation(reduced).total
                perim = discrete_perimeter(lab, j)
                ratios.append(curl / perim)
        assert max(ratios) / min(ratios) <= 2.0

    def test_setwise_curl_bound_on_dyadic_boxes(self, wells_std, admissible_meshes):
        # the measure inequality restricted to dyadic sub-boxes up to depth 3
        mesh = admissible_meshes[16]
        field = auto_laminate(mesh, wells_std)
        lab = classify(field, wells_std)
        reduced = build_reduced_field(field, lab, 0, wells_std)
        curl = curl_total_variation(reduced)
        centers = mesh.vertices[mesh.facet_vertices[mesh.interior]].mean(axis=1)
        labs = lab.labels
        a = mesh.facet_cells[mesh.interior, 0]
        b = mesh.facet_cells[mesh.interior, 1]
        boundary_of_0 = (labs[a] == 0) ^ (labs[b] == 0)
        areas = mesh.facet_area[mesh.interior]
        # one constant must serve every subset: the largest per-facet
        # mass-to-area ratio on the phase boundary, which stays below the
        # crude cap sup|A| * (area stretch of the map)
        on_boundary = boundary_of_0 & (curl.per_facet > 1e-12)
        kappa = float((curl.per_facet[on_boundary] / areas[on_boundary]).max())
        sup_a = np.linalg.norm(reduced.values, axis=(1, 2)).max()
        stretch = np.linalg.svd(wells_std.matrices[0], compute_uv=False)[0]
        assert kappa <= sup_a * stretch + 1e-9
        for depth in (1, 2, 3):
            k = 2**depth
            for i in range(k):
                for j in range(k):
                    lo = np.array([i / k, j / k])
                    hi = np.array([(i + 1) / k, (j + 1) / k])
                    inside = np.all(centers >= lo, 1) & np.all(centers < hi, 1)
                    curl_box = float(curl.per_facet[inside].sum())
                    perim_box = float(areas[inside & boundary_of_0].sum())
                    assert curl_box <= kappa * perim_box + 1e-9


class TestRigidityRatio:
    def test_constant_rotation_ratio_zero(self):
        mesh = build_kuhn_mesh(2, 8)
        field = IncompatibleField(
            mesh=mesh, values=np.broadcast_to(np.eye(2), (mesh.n_cells, 2, 2)).copy()
        )
        rep = rigidity_ratio(field, p=2)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
        # a generic constant rotation leaves only floating-point dust
        r0 = rotation_2d(0.9)
        generic = IncompatibleField(
            mesh=mesh, values=np.broadcast_to(r0, (mesh.n_cells, 2, 2)).copy()
        )
        rep2 = rigidity_ratio(generic, p=2)
        assert rep2.lhs < 1e-25 and rep2.rhs < 1e-25

    def test_p_range_enforced(self):
        mesh = build_kuhn_mesh(2, 4)
        field = IncompatibleField(mesh=mesh, values=np.zeros((mesh.n_cells, 2, 2)))
        with pytest.raises(RigidityError):
            rigidity_ratio(field, p=1.5)  # n/(n-1) = 2 for n = 2

    def test_epsilon_sweep_quadratic_scaling(self):
        from wellspin.numerics import loglog_slope

        mesh = build_kuhn_mesh(2, 16)
        rng = np.random.default_rng(11)
        r0 = rotation_2d(0.3)
        noise = rng.uniform(-1.0, 1.0, (mesh.n_cells, 2, 2))
        noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
        eps_values = [1e-3, 5e-4, 2.5e-4, 1e-4]
        lhs_values, ratios = [], []
        for eps in eps_values:
            field = IncompatibleField(mesh=mesh, values=r0[None] + eps * noise)
            rep = rigidity_ratio(field, p=2)
            lhs_values.append(rep.lhs)
            ratios.append(rep.ratio)
        slope, _ = loglog_slope(eps_values, lhs_values)
        assert 1.8 <= slope <= 2.2
        assert max(ratios) / min(ratios) <= 4.0

    def test_block_family_scale_stability(self):
        rng = np.random.default_rng(42)
        meshes = {m: build_kuhn_mesh(2, m) for m in (16, 32)}
        max_ratio = {16: 0.0, 32: 0.0}
        for _ in range(50):
            blocks = random_block_values(rng, 4)
            for m, mesh in meshes.items():
                rep = rigidity_ratio(field_from_blocks(mesh, blocks), p=2)
                assert math.isfinite(rep.ratio)
                max_ratio[m] = max(max_ratio[m], rep.ratio)
        hi, lo = max(max_ratio.values()), min(max_ratio.values())
        assert hi / lo <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(
        # B blocks a side and k with m = kB in [2, 48]
        st.integers(1, 8).flatmap(
            lambda b: st.tuples(st.just(b), st.integers(2 if b == 1 else 1, 48 // b))
        ),
        st.sampled_from([2.0, 2.5, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_block_family_closed_form(self, blocks_and_k, p, seed):
        # while the block count B divides m, a family member's ratio is a
        # sum over its blocks that does not depend on m
        b, k = blocks_and_k
        mesh = build_kuhn_mesh(2, k * b)
        blocks = random_block_values(np.random.default_rng(seed), b)
        rep = rigidity_ratio(field_from_blocks(mesh, blocks), p=p)
        _, rhs, rot = block_closed_form(blocks, p)
        lhs = block_closed_form(blocks, p, rotation=rep.rotation)[0]
        # the mesh sums its mean over the cells in sequence, which can put
        # its rotation up to about n_cells eps off the closed form's (0.125
        # n_cells measured), enough to move lhs for p > 2: so lhs is taken
        # at the mesh's rotation and the gap is bounded on its own; the
        # other sums over the cells err by about sqrt(n_cells) eps
        assert np.abs(rep.rotation - rot).max() <= mesh.n_cells * EPS
        scale = float((np.linalg.norm(blocks, axis=(2, 3)) ** p).sum()) / b**2
        assert abs(rep.lhs - lhs) <= 16 * EPS * scale
        assert abs(rep.rhs - rhs) <= (16 + mesh.n_cells**0.5) * EPS * rhs


class TestBVStructure:
    def test_constant_field(self):
        mesh = build_kuhn_mesh(2, 4)
        field = IncompatibleField(
            mesh=mesh, values=np.broadcast_to(np.eye(2), (mesh.n_cells, 2, 2)).copy()
        )
        rep = bv_structure_check(field)
        assert rep.dv.total == 0.0 and rep.curl.total == 0.0 and rep.ratio == 0.0

    def test_two_rotation_interface_ratio(self):
        mesh, field, r1, r2 = two_rotation_interface()
        rep = bv_structure_check(field)
        jump = r1 - r2
        expected = np.linalg.norm(jump) / np.linalg.norm(jump @ np.array([0.0, 1.0]))
        assert rep.ratio == pytest.approx(expected, rel=1e-10)
        assert math.isfinite(rep.ratio)

    def test_partition_field_ratio_stable_across_m(self, wells_std, admissible_meshes):
        from wellspin.spin import extract_partition

        ratios = []
        for m in (16, 32, 64):
            mesh = admissible_meshes[m]
            field = auto_laminate(mesh, wells_std)
            lab = classify(field, wells_std)
            part = extract_partition(field, lab, wells_std)
            values = np.zeros((mesh.n_cells, 2, 2))
            for comp in part.components:
                if comp.well == 0 and comp.rotation is not None:
                    values[comp.cells] = comp.rotation
            limit = IncompatibleField(
                mesh=mesh, values=values, map_matrix=wells_std.matrices[0]
            )
            rep = bv_structure_check(limit)
            assert math.isfinite(rep.ratio) and rep.ratio > 0
            ratios.append(rep.ratio)
        assert max(ratios) / min(ratios) <= 2.0


class TestPhaseBoundaryMeasures:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(8, 64),
        st.floats(0.0, 2.0 * math.pi),
        st.sampled_from(["classified", "random", "empty", "full"]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reduced_fields(self, wells_std, m, angle, relabel, seed):
        # the one facet pass against bv_structure_check on each phase's
        # reduced field, on a random laminate and labeling: "empty" leaves
        # phase 0 without cells, "full" gives it every cell
        rng = np.random.default_rng(seed)
        mesh = build_kuhn_mesh(2, m, lattice_rotation=rotation_2d(angle))
        conn = wells_std.connections[int(rng.integers(len(wells_std.connections)))]
        field = build_laminate(
            mesh, wells_std, conn, rng.uniform(0.2, 0.8), rng.uniform(2.0 / m, 1.0),
            offset=rng.uniform(0.0, 1.0), ripple=float(rng.choice([0.0, 0.004, 0.05])),
        )
        lab = classify(field, wells_std)
        labels = {
            "classified": lab.labels,
            "random": rng.integers(BAD_LABEL, 2, mesh.n_cells),
            "empty": np.where(lab.labels == 0, BAD_LABEL, lab.labels),
            "full": np.zeros(mesh.n_cells, np.int64),
        }[relabel]
        lab = PhaseLabeling(mesh, labels, lab.distances, lab.threshold)
        a, b = mesh.facet_cells[mesh.interior].T
        areas = mesh.facet_area[mesh.interior]
        scale = np.linalg.norm(field.gradients, axis=(1, 2)).max()
        for j, (curl, dv) in zip((0, 1), phase_boundary_measures(field, lab, wells_std, (0, 1))):
            bv = bv_structure_check(build_reduced_field(field, lab, j, wells_std))
            in_a, in_b = labels[a] == j, labels[b] == j
            edge = in_a != in_b
            want = float(bv.curl.per_facet[edge].sum())
            assert abs(dv - bv.dv.total) <= 1e-13 * bv.dv.total
            assert abs(curl - want) <= 1e-13 * want
            # what the boundary sum leaves out is the round-off of [G] tau
            # on the facets inside the phase; elsewhere the masses are 0
            cond = np.linalg.cond(wells_std.matrices[j])
            rest = float(bv.curl.per_facet[~edge].sum())
            bound = field.continuity_residual + 4 * EPS * scale * cond
            assert rest <= float(areas[in_a & in_b].sum()) * bound
            if relabel == "empty" and j == 0:
                assert (curl, dv) == (0.0, 0.0) and ratio(dv, curl) == 0.0
            if relabel == "full" and j == 0:
                assert curl == 0.0 and ratio(dv, curl) == (math.inf if dv else 0.0)


# magnitudes often drawn from a few values, so that ties and zeros are
# common, with positive cell volumes; lists of length 0 and 1 included
_MAGNITUDE = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0)
_CELLS = st.integers(0, 40).flatmap(
    lambda n: st.tuples(
        st.lists(_MAGNITUDE, min_size=n, max_size=n),
        st.lists(st.floats(1e-4, 1.0), min_size=n, max_size=n),
    )
)


class TestWeakNorm:
    @settings(max_examples=200, deadline=None)
    @given(cells=_CELLS, dim=st.sampled_from([2, 3]))
    def test_exact_supremum(self, cells, dim):
        mags, vols = np.array(cells[0], float), np.array(cells[1], float)
        exact = weak_norm(mags, vols, dim)
        # the volume sums add in a different order, hence the round-off slack
        assert exact == pytest.approx(brute_weak_norm(mags, vols, dim), rel=1e-12, abs=0.0)
        for levels in (64, 256):
            assert exact >= grid_weak_norm(mags, vols, dim, levels) * (1.0 - 1e-12)
        # Chebyshev's inequality bounds it by the L^(n/(n-1)) norm, taken
        # as top * ||mags / top||_q so that tiny magnitudes do not underflow
        q = dim / (dim - 1)
        top = float(mags.max(initial=0.0))
        strong = top * float(((mags / top) ** q) @ vols) ** (1.0 / q) if top > 0.0 else 0.0
        assert exact <= strong * (1.0 + 1e-12)

    def test_ties_one_cell_and_empty(self):
        # just below 2 the level set holds the three 2s and the 3, volume
        # 4: 2 * 4^(1/2) beats 3 * 1^(1/2)
        mags, vols = np.array([2.0, 3.0, 2.0, 0.0, 2.0]), np.ones(5)
        assert weak_norm(mags, vols, 2) == 2.0 * 4.0**0.5
        assert weak_norm(np.array([3.0]), np.array([4.0]), 2) == 6.0
        assert weak_norm(np.array([]), np.array([]), 2) == 0.0

    def test_weak_ratio_below_strong_norm(self):
        mesh = build_kuhn_mesh(2, 16)
        field = field_from_blocks(mesh, random_block_values(np.random.default_rng(5), 4))
        rep = weak_rigidity_ratio(field)
        mags = np.linalg.norm(field.values - rep["rotation"], axis=(1, 2))
        assert rep["lhs"] == weak_norm(mags, field.cell_volumes(), 2)
        assert rep["lhs"] <= rep["strong"]
        assert rep["strong"] == pytest.approx(float(mags**2 @ field.cell_volumes()) ** 0.5)

    def test_weak_ratio_finite_and_stable_across_family(self):
        mesh = build_kuhn_mesh(2, 16)
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(30):
            field = field_from_blocks(mesh, random_block_values(rng, 4))
            rep = weak_rigidity_ratio(field)
            assert math.isfinite(rep["ratio"])
            ratios.append(rep["ratio"])
        assert max(ratios) / max(min(ratios), 1e-12) < 50.0

    def test_zero_field(self):
        assert weak_norm(np.zeros(5), np.ones(5), 2) == 0.0
