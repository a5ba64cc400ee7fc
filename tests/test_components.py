"""label_components and the lattice pair helper against the union-find
loops they replaced, and fit_rotation against the two inline fits it
replaced (tests/component_reference.py)."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import component_reference as ref
from conftest import auto_laminate
from wellspin.lattice import LatticeClassification, _axis_pairs
from wellspin.mesh import build_kuhn_mesh
from wellspin.numerics import label_components
from wellspin.spin import PhaseLabeling, classify, extract_partition
from wellspin.wells import fit_rotation, random_rotation, rotation_2d

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


def fit_case(n, k, kind, seed, scale, power):
    """(values (k, n, n), weights (k,), well, kind) for a component fit:
    values near a rotated well, near a reflected one (a mean of negative
    determinant), zero (a singular mean) or random, at one scale, with
    weights uniform in [0.1, 1) to the power 0 or 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    well = g @ g.T + 0.5 * np.eye(n)
    values = rng.standard_normal((k, n, n))
    if kind != "random":
        flip = np.diag([-1.0] + [1.0] * (n - 1)) if kind == "reflected" else np.eye(n)
        near = random_rotation(rng, n) @ flip @ well
        values = 0.0 * values if kind == "zero" else near + 0.05 * values
    weights = rng.uniform(0.1, 1.0, k) ** power
    return scale * values, weights, well, kind


@st.composite
def fit_cases(draw):
    return fit_case(
        draw(st.sampled_from([2, 3])),
        draw(st.integers(1, 40)),
        draw(st.sampled_from(["rotated", "reflected", "zero", "random"])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([1e-6, 1.0, 1e6])),
        draw(st.sampled_from([0, 1])),
    )


class TestFitRotation:
    @settings(max_examples=200, deadline=None)
    @given(fit_cases())
    def test_matches_partition_fit_bytes(self, case):
        values, weights, well, _ = case
        rot, residual = fit_rotation(values, weights, well)
        want_rot, want_residual = ref.partition_fit(values, weights, well)
        assert (rot is None) == (want_rot is None)
        if rot is not None:
            assert rot.tobytes() == want_rot.tobytes()
        assert residual == want_residual

    @settings(max_examples=200, deadline=None)
    @given(fit_cases(), st.integers(2, 64))
    # a random component whose terms cancel 14-fold, 5 eps off the fixed bound
    @example(fit_case(2, 15, "random", 1876536053, 1.0, 1), 15)
    # components near their wells whose means are 1 and 0.5 eps apart and
    # whose n = 3 SVD rotations are 19.25 and 30.25 eps apart
    @example(fit_case(3, 9, "rotated", 4208264349, 1.0, 0), 34)
    @example(fit_case(3, 8, "rotated", 3297412022, 1.0, 0), 31)
    def test_agrees_with_lattice_fit(self, case, m):
        values, _, well, kind = case
        n = well.shape[0]
        weight = float(m) ** -n
        weights = np.full(len(values), weight)
        rot, residual = fit_rotation(values, weights, well)
        want_rot, want_residual = ref.lattice_fit(values, weight, well)
        local = values @ np.linalg.inv(well)
        mean = local.mean(axis=0)
        # clearly nonzero: well above the round-off of its terms and the
        # lattice form's absolute 1e-12; the sign then decides, and no
        # rotation fits a negative one
        det = np.linalg.det(mean)
        clear = max(1e-2 * np.linalg.norm(mean) ** n, 1e-11)
        if det > clear:
            assert want_rot is not None and rot is not None
            # the two means sum in different orders, so their round-off is
            # relative to the terms, the norm of their summed absolute values
            terms = np.linalg.norm(np.abs(local).sum(axis=0))
            if n == 2:
                # the polar rotation magnifies the means' round-off by about
                # the condition number, which is near 1 for a component near
                # its well (at most 2 eps seen over 20,000 such draws). A
                # random component's bound scales by how much its terms
                # cancel, their norm over that of their sum (at most 1 eps
                # times that seen over 200,000 random draws); one cancelling
                # more than 32-fold is left to the residual check
                cancel = 1.0
                if kind == "random":
                    cancel = terms / np.linalg.norm(local.sum(axis=0))
                if np.linalg.cond(mean) <= 2.0 and cancel <= 32.0:
                    assert np.abs(rot - want_rot).max() <= 4 * np.finfo(float).eps * cancel
            else:
                # the n = 3 SVD turns a last-bit gap between the means into
                # 30 eps and more between the rotations, so the means are
                # compared: fit_rotation's (partition_fit's, byte for byte)
                # and the lattice form's are at most 3.2 eps times the terms'
                # norm over k apart over 400,000 draws of every kind
                gap = np.abs(ref.partition_mean(values, weights, well) - mean).max()
                assert gap <= 8 * np.finfo(float).eps * terms / len(values)
            slack = 64 * np.finfo(float).eps * np.linalg.norm(values) * math.sqrt(weight)
            assert abs(residual - want_residual) <= 1e-12 * want_residual + slack
        elif det < -clear:
            assert rot is None and residual is None and want_rot is not None
        elif det == 0.0:
            assert rot is None and want_rot is None
