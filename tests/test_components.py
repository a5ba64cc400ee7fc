"""label_components and the lattice pair helper against the union-find
loops they replaced (tests/component_reference.py), byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import component_reference as ref
from conftest import auto_laminate
from wellspin.lattice import LatticeClassification, _axis_pairs
from wellspin.mesh import build_kuhn_mesh
from wellspin.numerics import label_components
from wellspin.spin import PhaseLabeling, classify, extract_partition
from wellspin.wells import rotation_2d

MESHES = {(n, m): build_kuhn_mesh(n, m) for n, m in [(2, 2), (2, 5), (2, 9), (3, 2), (3, 3)]}


def as_bytes(components):
    return [(label, members.dtype.str, members.tobytes()) for label, members in components]


@st.composite
def label_grids(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3)))
    seed = draw(st.integers(0, 2**32 - 1))
    low = draw(st.integers(-2, 2))
    rng = np.random.default_rng(seed)
    return rng.integers(low, 3, size=shape)


class TestLabelComponents:
    @settings(max_examples=150, deadline=None)
    @given(label_grids())
    def test_grid_matches_union_find(self, labs):
        new = label_components(labs, *_axis_pairs(labs.shape))
        assert as_bytes(new) == as_bytes(ref.lattice_components(labs))

    @settings(max_examples=150, deadline=None)
    @given(label_grids(), st.integers(0, 2**32 - 1))
    def test_pair_order_and_orientation(self, labs, seed):
        # the run pass links (i, i + 1) given either way round, in any order
        # and any number of times
        rng = np.random.default_rng(seed)
        a, b = _axis_pairs(labs.shape)
        flip = rng.random(a.size) < 0.5
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        again = rng.integers(0, 3, size=a.size)
        order = rng.permutation(int(again.sum()) + a.size)
        a = np.concatenate([a, np.repeat(a, again)])[order]
        b = np.concatenate([b, np.repeat(b, again)])[order]
        new = label_components(labs, a, b)
        assert as_bytes(new) == as_bytes(ref.lattice_components(labs))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(MESHES)),
        st.integers(0, 2**32 - 1),
        st.integers(-2, 2),
    )
    def test_mesh_matches_union_find(self, key, seed, low):
        mesh = MESHES[key]
        labs = np.random.default_rng(seed).integers(low, 3, size=mesh.n_cells)
        new = label_components(labs, *mesh.facet_cells[mesh.interior].T)
        assert as_bytes(new) == as_bytes(ref.mesh_components(mesh, labs))

    def test_all_negative_is_empty(self):
        labs = np.full((4, 5), -1)
        assert label_components(labs, *_axis_pairs(labs.shape)) == []
        assert label_components(np.array([-2, -1]), np.array([0]), np.array([1])) == []

    def test_long_chain_runs(self):
        labs = np.repeat(np.array([0, 1, 0, 1]), 4096)
        comps = label_components(labs, *_axis_pairs(labs.shape))
        assert as_bytes(comps) == as_bytes(ref.lattice_components(labs))
        assert [len(members) for _, members in comps] == [4096] * 4

    def test_extract_partition_components(self, wells_std):
        mesh = MESHES[(2, 9)]
        field = auto_laminate(mesh, wells_std)
        lab = classify(field, wells_std)
        part = extract_partition(field, lab, wells_std)
        got = [(c.well, c.cells) for c in part.components]
        # extract_partition orders by well, then by falling volume
        want = ref.mesh_components(mesh, lab.labels)
        want.sort(key=lambda c: (c[0], -float(mesh.volumes[c[1]].sum())))
        assert len(got) > 1 and as_bytes(got) == as_bytes(want)
        # an all-BAD labelling has no components
        bad = PhaseLabeling(mesh, np.full(mesh.n_cells, -1), lab.distances, lab.threshold)
        assert extract_partition(field, bad, wells_std).components == []


class TestAxisPairs:
    @settings(max_examples=150, deadline=None)
    @given(label_grids())
    def test_perimeter_and_violations_match_slicing(self, labs):
        cls = LatticeClassification(labs, threshold=0.1, m=7, dim=labs.ndim)
        for label in (-2, -1, 0, 1, 2):
            count = ref.label_perimeter_count(labs, label)
            assert cls.label_perimeter(label) == count * 7.0 ** (-(labs.ndim - 1))
        assert cls.adjacency_violations() == ref.adjacency_violations(labs)

    def test_pairs_are_axis_major_neighbours(self):
        a, b = _axis_pairs((2, 3))
        assert a.tolist() == [0, 1, 2, 0, 1, 3, 4]
        assert b.tolist() == [3, 4, 5, 1, 2, 4, 5]
        for shape in [(0, 3), (1,), (5,), (1, 1, 4), (3, 1, 2), (2, 3, 4)]:
            idx = np.arange(int(np.prod(shape))).reshape(shape)
            halves = [ref._halves(idx, axis) for axis in range(len(shape))]
            a, b = _axis_pairs(shape)
            assert a.tolist() == [i for lo, _ in halves for i in lo.reshape(-1).tolist()]
            assert b.tolist() == [j for _, hi in halves for j in hi.reshape(-1).tolist()]


class TestRotation2d:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=0, max_size=12), st.integers(1, 3))
    def test_array_matches_hand_filled(self, angles, cols):
        thetas = np.resize(np.array(angles, dtype=float), (len(angles), cols))
        c, s = np.cos(thetas), np.sin(thetas)
        rots = np.empty(thetas.shape + (2, 2))
        rots[..., 0, 0] = c
        rots[..., 0, 1] = -s
        rots[..., 1, 0] = s
        rots[..., 1, 1] = c
        new = rotation_2d(thetas)
        assert new.shape == rots.shape and new.tobytes() == rots.tobytes()
        assert new.flags.c_contiguous

    def test_scalar(self):
        c, s = np.cos(0.7), np.sin(0.7)
        assert rotation_2d(0.7).tobytes() == np.array([[c, -s], [s, c]]).tobytes()
