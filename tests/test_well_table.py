"""The (cells x wells) distance table: the entry-by-entry n = 2 kernel
against the SVD and matmul oracles (tests/svd_reference.py), the gathered
spin-lemma scan against the per-well loop it replaced
(tests/spin_reference.py), and the per-field memo that the energy, the
labels and the scan share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_reference
import svd_reference as ref
from conftest import auto_laminate
from test_harness import small_wells
from test_spin import aligned_adversarial_laminate
from test_svd_reference import KINDS, make_batch, spd
from wellspin import fields, harness, wells
from wellspin.fields import PWAffineField, evaluate_energy
from wellspin.mesh import build_kuhn_mesh
from wellspin.spin import PhaseLabeling, classify, verify_spin_lemma
from wellspin.wells import (
    WellSet,
    WellSetError,
    dist_table,
    dist_to_single_well_batch,
    dist_to_wells_batch,
    rotation_2d,
)

SEEDS = st.integers(0, 2**32 - 1)


def assert_same_violations(got, want):
    assert got == want
    assert [v.dist_other_to_well.hex() for v in got] == [
        v.dist_other_to_well.hex() for v in want
    ]


class TestKernel:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(1, 40), SEEDS)
    def test_nondiagonal_wells_against_svd(self, kind, k, count, seed):
        fs, u = make_batch(kind, 2, count, seed)
        rng = np.random.default_rng([seed, k])
        mats = np.stack([u] + [spd(rng, 2) for _ in range(k - 1)])
        table = dist_table(fs, mats)
        assert table.shape == (count, k)
        for j, uj in enumerate(mats):
            scale = np.linalg.norm(fs, axis=(1, 2)) + np.linalg.norm(uj)
            err = np.abs(table[:, j] - ref.dist_to_single_well_batch(fs, uj))
            assert np.all(err <= 1e-14 * scale)
            assert np.array_equal(table[:, j], dist_to_single_well_batch(fs, uj))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(1, 40), SEEDS)
    def test_diagonal_wells_byte_equal_to_matmul_form(self, kind, k, count, seed):
        fs, _ = make_batch(kind, 2, count, seed)
        rng = np.random.default_rng([seed, k])
        mats = np.stack([np.diag(rng.uniform(0.25, 4.0, 2)) for _ in range(k)])
        table = dist_table(fs, mats)
        for j, uj in enumerate(mats):
            assert np.array_equal(table[:, j], ref.matmul_dist_to_single_well_batch(fs, uj))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(("random", "reflected", "near-well")),
        st.integers(1, 3),
        st.integers(1, 20),
        SEEDS,
    )
    def test_n3_columns_byte_equal_to_svd(self, kind, k, count, seed):
        fs, u = make_batch(kind, 3, count, seed)
        rng = np.random.default_rng([seed, k])
        mats = np.stack([u] + [spd(rng, 3) for _ in range(k - 1)])
        table = dist_table(fs, mats)
        for j, uj in enumerate(mats):
            assert np.array_equal(table[:, j], ref.dist_to_single_well_batch(fs, uj))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.integers(1, 20), SEEDS)
    def test_one_well_per_matrix_byte_equal_to_pairwise(self, n, count, seed):
        fs, _ = make_batch("random", n, count, seed)
        rng = np.random.default_rng(seed)
        us = np.stack([spd(rng, n) for _ in range(count)])
        got = dist_to_single_well_batch(fs, us)
        want = np.array([dist_to_single_well_batch(f[None], u)[0] for f, u in zip(fs, us)])
        assert got.shape == (count,)
        assert got.tobytes() == want.tobytes()

    def test_size_mismatch_rejected(self, wells_std):
        with pytest.raises(WellSetError):
            dist_table(np.zeros((4, 2, 2)), [np.eye(3)])
        with pytest.raises(WellSetError):
            dist_to_single_well_batch(np.zeros((4, 3, 3)), np.eye(2))

    def test_leading_axes_and_nearest_well(self, wells_std):
        rng = np.random.default_rng(5)
        fs = rng.normal(size=(3, 4, 2, 2))
        table = dist_table(fs, wells_std.matrices)
        assert table.shape == (3, 4, 2)
        assert np.array_equal(table.reshape(12, 2), dist_table(fs.reshape(12, 2, 2), wells_std.matrices))
        d, idx = dist_to_wells_batch(fs, wells_std)
        assert np.array_equal(idx, table.argmin(axis=-1))
        assert np.array_equal(d, np.take_along_axis(table, idx[..., None], axis=-1)[..., 0])


class TestGatheredSpinScan:
    def test_aligned_adversarial_laminate(self, wells_std):
        _, field = aligned_adversarial_laminate(wells_std)
        lab = classify(field, wells_std)
        got = verify_spin_lemma(field, lab, wells_std)
        assert len(got) >= 1
        assert_same_violations(got, spin_reference.verify_spin_lemma(field, lab, wells_std))

    def test_spin_suite_fields(self, wells_std, admissible_meshes):
        # the spin-suite field kinds, on the admissible mesh the scenario
        # uses and on the unrotated mesh, where twin planes can meet facets
        rng = np.random.default_rng(77)
        found = 0
        for mesh in (admissible_meshes[16], build_kuhn_mesh(2, 16)):
            for _ in range(30):
                field, _ = harness._random_spin_field(mesh, wells_std, rng)
                for scale in (1.0, 10.0):
                    thr = scale * wells_std.c0 / 100.0
                    lab = classify(field, wells_std, threshold=thr)
                    got = verify_spin_lemma(field, lab, wells_std)
                    found += len(got)
                    assert_same_violations(
                        got, spin_reference.verify_spin_lemma(field, lab, wells_std)
                    )
        assert found > 0

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(1, 4))
    def test_arbitrary_labels(self, admissible_meshes, seed, k):
        # labels and threshold drawn at random, so that violations appear
        # in both directions and for every well
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(seed)
        ws = WellSet([np.diag([1.0 + j, 1.0 / (1.0 + j)]) for j in range(k)])
        field = PWAffineField(mesh, rng.normal(size=(mesh.n_cells, 2, 2)), validate=False)
        labels = rng.integers(-1, k, mesh.n_cells)
        thr = float(rng.uniform(0.0, 2.0))
        lab = PhaseLabeling(mesh, labels, None, thr)
        assert_same_violations(
            verify_spin_lemma(field, lab, ws), spin_reference.verify_spin_lemma(field, lab, ws)
        )


def count_tables(monkeypatch):
    """Record the gradient arrays of every table the field memo computes."""
    seen = []

    def counting(fs, mats):
        seen.append(fs)
        return dist_table(fs, mats)

    monkeypatch.setattr(fields, "dist_table", counting)
    return seen


class TestTableMemo:
    def test_rotated_field_gets_its_own_table(self, wells_std, admissible_meshes):
        field = auto_laminate(admissible_meshes[8], wells_std)
        t0 = field.well_distances(wells_std)
        rotated = field.rotated(rotation_2d(0.7))
        t1 = rotated.well_distances(wells_std)
        assert t1 is not t0
        assert np.array_equal(t1, dist_table(rotated.gradients, wells_std.matrices))
        assert field.well_distances(wells_std) is t0

    def test_second_well_set_gets_its_own_table(self, wells_std, admissible_meshes):
        field = auto_laminate(admissible_meshes[8], wells_std)
        t0 = field.well_distances(wells_std).copy()
        other = WellSet([np.diag([1.5, 1.0 / 1.5]), np.diag([1.0 / 1.5, 1.5]), np.eye(2)])
        t1 = field.well_distances(other)
        assert t1.shape == (field.mesh.n_cells, 3)
        assert np.array_equal(t1, dist_table(field.gradients, other.matrices))
        # equal matrices, but a different well set: a table of its own
        twin = WellSet(wells_std.matrices)
        t2 = field.well_distances(twin)
        assert t2 is not t1 and np.array_equal(t2, t0)
        lab = classify(field, other, threshold=0.1)
        assert np.array_equal(lab.labels, classify(field.rotated(np.eye(2)), other, 0.1).labels)
        assert np.array_equal(field.well_distances(wells_std), t0)

    def test_gradients_and_table_are_read_only(self, wells_std, admissible_meshes):
        field = auto_laminate(admissible_meshes[8], wells_std)
        with pytest.raises(ValueError):
            field.gradients[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            field.gradients += 1.0
        with pytest.raises(ValueError):
            field.well_distances(wells_std)[0, 0] = 0.0

    def test_energy_labels_and_scan_share_one_table(
        self, monkeypatch, wells_std, admissible_meshes
    ):
        seen = count_tables(monkeypatch)
        field = auto_laminate(admissible_meshes[16], wells_std)
        rep = evaluate_energy(field, wells_std)
        lab = classify(field, wells_std)
        verify_spin_lemma(field, lab, wells_std)
        assert len(seen) == 1
        d, nearest = dist_to_wells_batch(field.gradients, wells_std)
        assert np.array_equal(rep.per_cell_dist2, d**2)
        assert np.array_equal(lab.distances, d)
        assert np.array_equal(lab.labels, np.where(d <= lab.threshold, nearest, -1))


class TestRunnersOneTablePerField:
    def kernel_calls(self, monkeypatch, tmp_path, cfg):
        """(tables the memo computed, calls of the wells kernel outside it)."""
        seen = count_tables(monkeypatch)
        direct = []

        def counting(fs, mats):
            direct.append(fs)
            return dist_table(fs, mats)

        monkeypatch.setattr(wells, "dist_table", counting)
        harness.run(cfg, out_dir=tmp_path)
        return seen, direct

    def test_spin_lemma_suite(self, monkeypatch, tmp_path):
        counts = []
        for count in (2, 5):
            cfg = {
                "scenario": "spin-lemma-suite",
                "seed": 3,
                "wells": small_wells(),
                "m": 8,
                "field_count": count,
            }
            seen, direct = self.kernel_calls(monkeypatch, tmp_path / str(count), cfg)
            # one table per random field and one for the aligned laminate
            assert len(seen) == count + 1
            assert len({id(fs) for fs in seen}) == count + 1
            counts.append(len(direct))
        # no distance call outside the memo grows with the field count
        assert counts[0] == counts[1]

    def test_laminate_sweep(self, monkeypatch, tmp_path):
        cfg = {
            "scenario": "laminate-sweep",
            "seed": 3,
            "wells": small_wells(),
            "m_list": [8, 16, 32],
            "laminate": {"volume_fraction": 0.5, "connection": 0, "ripple": 0.004},
        }
        seen, _ = self.kernel_calls(monkeypatch, tmp_path, cfg)
        # one table per mesh, read by evaluate_energy and by classify
        assert len(seen) == len(cfg["m_list"])
        assert len({id(fs) for fs in seen}) == len(seen)
