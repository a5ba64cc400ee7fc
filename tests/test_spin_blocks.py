"""The block pass of the spin-lemma suite against the per-field oracle
(tests/spin_reference.py): the same rows on the admissible and the
unrotated mesh, whatever the block size, the same gradients and rotations
bit for bit, the same rows as the rule that turned the rotated kind's
gradients instead of its vertex values, the same draws as a loop of one
generator call per uniform, and the same FieldError for a bad field
inside a block. The pass's peak memory per cell of a block is pinned
too."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_reference
from wellspin import harness
from wellspin.fields import FieldError, vertex_gradients
from wellspin.harness import (
    EXIT_INTERNAL,
    EXIT_OK,
    _draw_spin_fields,
    _spin_gradients,
    _spin_suite_rows,
    run,
    substream,
)
from wellspin.mesh import build_kuhn_mesh
from wellspin.wells import random_rotation, rotations_from_normals

COUNT = 40


@pytest.fixture(scope="module")
def meshes(admissible_meshes):
    # the scenario's mesh, and the unrotated one, where twin planes meet facets
    return {"admissible": admissible_meshes[16], "unrotated": build_kuhn_mesh(2, 16)}


def both_directions(mesh, violations):
    """Whether violations were found with the first cell of a facet as the
    anchor and with the second."""
    first = {v.cell_in_well == mesh.facet_cells[v.facet, 0] for v in violations}
    return first == {True, False}


class TestRowsMatchOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("which", ["admissible", "unrotated"])
    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_rows(self, wells_std, meshes, seed, which, scale):
        mesh = meshes[which]
        thr = scale * wells_std.c0 / 100.0
        got = _spin_suite_rows(mesh, wells_std, substream(seed, "spin"), COUNT, thr)
        want, found = spin_reference.spin_suite_rows(
            mesh, wells_std, substream(seed, "spin"), COUNT, thr
        )
        assert got == want
        assert [type(v) for v in got[0]] == [type(v) for v in want[0]]
        if which == "unrotated" and scale == 10.0:
            assert sum(row[5] for row in got) > 0 and both_directions(mesh, found)
        if which == "admissible" and scale == 1.0:
            assert sum(row[5] for row in got) == 0

    def test_block_size_does_not_change_rows(self, monkeypatch, wells_std, meshes):
        mesh = meshes["unrotated"]
        thr = 10.0 * wells_std.c0 / 100.0
        rows = []
        for cells in (1, harness._SPIN_BLOCK_CELLS, COUNT * mesh.n_cells):
            monkeypatch.setattr(harness, "_SPIN_BLOCK_CELLS", cells)
            rows.append(_spin_suite_rows(mesh, wells_std, substream(5, "spin"), COUNT, thr))
        assert rows[0] == rows[1] == rows[2]
        assert sum(row[5] for row in rows[0]) > 0

    @pytest.mark.parametrize("which", ["admissible", "unrotated"])
    def test_gradients_bit_for_bit(self, wells_std, meshes, which):
        mesh = meshes[which]
        draws = _draw_spin_fields(wells_std, substream(9, "spin"), COUNT)
        grads = _spin_gradients(mesh, wells_std, draws, range(COUNT))
        rng = substream(9, "spin")
        kinds = set()
        for got in grads:
            field, meta = spin_reference.random_spin_field(mesh, wells_std, rng)
            kinds.add(meta[0])
            assert np.array_equal(got, field.gradients)
        assert len(kinds) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("which", ["admissible", "unrotated"])
    def test_turned_values_match_turned_gradients(self, wells_std, meshes, seed, which):
        # the rotated kind turns its vertex values before differentiating;
        # the rule it replaced turned each cell's gradient. Both give the
        # same rows, and gradients within a few ulps of the field's largest
        # gradient norm times m: an edge about 1/m long divides the turned
        # values' round-off by 1/m (at most 2.2 m ulps measured, m = 8-32)
        mesh = meshes[which]
        thr = 10.0 * wells_std.c0 / 100.0 if which == "unrotated" else wells_std.c0 / 100.0
        got = _spin_suite_rows(mesh, wells_std, substream(seed, "spin"), COUNT, thr)
        want, _ = spin_reference.spin_suite_rows(
            mesh, wells_std, substream(seed, "spin"), COUNT, thr, turn_gradients=True
        )
        assert got == want
        assert (sum(row[5] for row in got) > 0) == (which == "unrotated")
        draws = _draw_spin_fields(wells_std, substream(seed, "spin"), COUNT)
        grads = _spin_gradients(mesh, wells_std, draws, range(COUNT))
        rng, turned = substream(seed, "spin"), 0
        for got, draw in zip(grads, draws):
            field, _ = spin_reference.random_spin_field(mesh, wells_std, rng, turn_gradients=True)
            if draw[4] != 1:
                continue
            turned += 1
            scale = np.linalg.norm(field.gradients, axis=(1, 2)).max()
            assert np.abs(got - field.gradients).max() <= 4 * mesh.m * np.finfo(float).eps * scale
        assert turned > 0


def test_gradients_are_the_differentiated_values(monkeypatch, wells_std, meshes):
    # every kind is composed at its vertex values, so a block's gradients
    # leave vertex_gradients as they are returned: no product follows
    made = []

    def recording(mesh, values):
        grads = vertex_gradients(mesh, values)
        made.append(grads.copy())
        return grads

    monkeypatch.setattr(harness, "vertex_gradients", recording)
    draws = _draw_spin_fields(wells_std, substream(9, "spin"), COUNT)
    grads = _spin_gradients(meshes["admissible"], wells_std, draws, range(COUNT))
    assert {draw[4] for draw in draws} == {0, 1, 2}
    assert len(made) == 1 and np.array_equal(grads, made[0])


@pytest.mark.parametrize("n", [2, 3])
def test_batched_rotations_match_random_rotation(n):
    rng = np.random.default_rng(11)
    normals = rng.standard_normal((200, n, n))
    rng = np.random.default_rng(11)
    want = np.stack([random_rotation(rng, n) for _ in range(200)])
    got = rotations_from_normals(normals)
    assert np.array_equal(got, want)
    assert np.all(np.linalg.det(got) > 0)
    assert np.allclose(got @ np.swapaxes(got, -1, -2), np.eye(n), atol=1e-14)


class TestBadFieldInBlock:
    def corrupted_run(self, monkeypatch, tmp_path, corrupt):
        """Run a small suite with one field of the second block corrupted;
        returns (exit code, error.txt, id of the corrupted field)."""
        calls = []

        def corrupting(mesh, values):
            grads = vertex_gradients(mesh, values)
            if len(calls) == 1:
                corrupt(grads[2])
            calls.append(len(values))
            return grads

        monkeypatch.setattr(harness, "vertex_gradients", corrupting)
        monkeypatch.setattr(harness, "_SPIN_BLOCK_CELLS", 1000)
        cfg = {"scenario": "spin-lemma-suite", "seed": 3, "m": 8, "field_count": 30}
        code = run(cfg, out_dir=tmp_path)
        return code, (tmp_path / "error.txt").read_text(), calls[0] + 2

    def test_non_finite(self, monkeypatch, tmp_path):
        def corrupt(grads):
            grads[7, 1, 0] = np.nan

        code, error, fid = self.corrupted_run(monkeypatch, tmp_path, corrupt)
        assert code == EXIT_INTERNAL
        assert f"FieldError: field {fid}: gradient array has non-finite entries" in error

    def test_discontinuous(self, monkeypatch, tmp_path):
        def corrupt(grads):
            grads[7] += np.eye(2)

        code, error, fid = self.corrupted_run(monkeypatch, tmp_path, corrupt)
        assert code == EXIT_INTERNAL
        assert f"FieldError: field {fid}: tangential jumps too large" in error


def test_short_period_named(wells_std):
    # validation keeps m >= 7; below that a laminate period of the random
    # range can resolve fewer than two cells per layer
    mesh = build_kuhn_mesh(2, 4)
    draws = _draw_spin_fields(wells_std, substream(4, "spin"), 20)
    short = [k for k, d in enumerate(draws) if d[4] < 2 and d[2] < 2.0 / mesh.m]
    assert short
    with pytest.raises(FieldError, match=f"field {100 + short[0]}: laminate period below"):
        _spin_gradients(mesh, wells_std, draws, range(100, 120))


def test_smallest_valid_mesh_runs(tmp_path):
    cfg = {"scenario": "spin-lemma-suite", "seed": 3, "m": 7, "field_count": 50}
    assert run(cfg, out_dir=tmp_path) == EXIT_OK


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 40))
def test_draws_equal_to_a_loop_of_uniforms(wells_std, seed, count):
    # the same values of the same types, and the stream left in the same
    # state
    got_rng, want_rng = substream(seed, "spin-lemma-suite"), substream(seed, "spin-lemma-suite")
    got = _draw_spin_fields(wells_std, got_rng, count)
    want = spin_reference.draw_spin_fields(wells_std, want_rng, count)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        assert g[0] is w[0] and g[1:5] == w[1:5]
        assert [type(v) for v in g[1:5]] == [type(v) for v in w[1:5]]
        assert g[5].tobytes() == w[5].tobytes()
        assert (g[6] is None and w[6] is None) or g[6].tobytes() == w[6].tobytes()
    assert got_rng.random() == want_rng.random()


def test_block_peak_per_cell(wells_std, meshes):
    # the block pass at the shipped block size holds at most 100 bytes per
    # cell of a block above its entry (86 measured at m = 16: the gradient
    # planes with the continuity check's or the distance kernel's planes;
    # the C-order pass held 226)
    mesh, thr = meshes["admissible"], wells_std.c0 / 100.0
    per_block = harness._SPIN_BLOCK_CELLS // mesh.n_cells
    # a first block caches the mesh's planes before the measurement
    _spin_suite_rows(mesh, wells_std, substream(1, "spin"), per_block, thr)
    tracemalloc.start()
    try:
        _spin_suite_rows(mesh, wells_std, substream(1, "spin"), 3 * per_block, thr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * per_block * mesh.n_cells
