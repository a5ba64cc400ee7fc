"""The n = 2 kernels on contiguous entry planes against the forms they
replaced: the plane distance kernel against the broadcast kernel on
strided views (tests/svd_reference.py) byte for byte, the column-by-column
label rule against min and argmin (tests/spin_reference.py) byte for
byte, and the entry-wise vertex gradients against the batched matmul,
to round-off for n = 2 and byte for byte for n = 3.

The plane layout (numerics.from_planes) against the C-order forms of
tests/plane_reference.py, byte for byte, on C-order and plane-backed
inputs: the vertex gradients against the stacked ones, the facet jumps,
their tangential parts and the continuity residual against the take
form, with the mesh's normals and with mapped ones (the rigidity path),
and the distance table against the table of contiguous copies."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import plane_reference
import svd_reference as ref
from kuhn_reference import jitter_vertices
from spin_reference import min_argmin_labels
from test_svd_reference import KINDS, make_batch, spd
from wellspin.fields import facet_jumps, tangential_jump_residual, vertex_gradients
from wellspin.mesh import build_kuhn_mesh
from wellspin.numerics import entry_planes, from_planes
from wellspin.spin import BAD_LABEL, cell_labels
from wellspin.wells import dist_table, dist_to_single_well_batch, random_rotation

SEEDS = st.integers(0, 2**32 - 1)
# leading batch axes that the (count, 2, 2) matrices are reshaped to
LEADING = st.sampled_from([(), (1,), (2,), (3, 1), (1, 2, 1)])


def with_leading(fs, lead):
    """fs (count, 2, 2) as lead + (count, 2, 2)."""
    return np.broadcast_to(fs, (*lead, *fs.shape)).copy()


def plane_backed(stack):
    """A plane-backed copy of a (..., N, 2, 2) stack."""
    return from_planes(np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1))))


def is_plane_backed(stack):
    return all(p.flags.c_contiguous for p in entry_planes(stack))


def jittered_mesh(m, rng):
    """A rotated, jittered mesh: edge inverses and normals with no exact
    zeros."""
    return jitter_vertices(build_kuhn_mesh(2, m, lattice_rotation=random_rotation(rng, 2)), 0.2, rng)


def tie_batch(u0, u1):
    """Matrices F with M = F U^T = [[0, u0 u1], [u1 u0, 0]] (up to sign)
    for U = diag(u0, u1): M00 + M11 and M10 - M01 vanish exactly, the
    r == 0 tie, where the kernel takes the identity rotation."""
    return np.array([[[0.0, u0], [u1, 0.0]], [[0.0, -u0], [-u1, 0.0]], np.zeros((2, 2))])


class TestDistanceKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(1, 30), LEADING, SEEDS)
    def test_table_byte_equal_to_broadcast_kernel(self, kind, k, count, lead, seed):
        fs, u = make_batch(kind, 2, count, seed)
        rng = np.random.default_rng([seed, k])
        mats = np.stack([u] + [spd(rng, 2) for _ in range(k - 1)])
        fs = with_leading(fs, lead)
        table = dist_table(fs, mats)
        want = ref.broadcast_dist_pairs(fs[..., None, :, :], mats)
        assert table.shape == (*lead, count, k)
        assert table.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 30), LEADING, SEEDS)
    def test_single_well_byte_equal_to_broadcast_kernel(self, kind, count, lead, seed):
        fs, u = make_batch(kind, 2, count, seed)
        fs = with_leading(fs, lead)
        got = dist_to_single_well_batch(fs, u)
        want = ref.broadcast_dist_pairs(fs[..., None, :, :], u[None])[..., 0]
        assert got.shape == (*lead, count)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 30), LEADING, SEEDS)
    def test_one_well_per_matrix_byte_equal_to_broadcast_kernel(self, kind, count, lead, seed):
        fs, _ = make_batch(kind, 2, count, seed)
        rng = np.random.default_rng(seed)
        us = with_leading(np.stack([spd(rng, 2) for _ in range(count)]), lead)
        fs = with_leading(fs, lead)
        got = dist_to_single_well_batch(fs, us)
        want = ref.broadcast_dist_pairs(fs[..., None, :, :], us[..., None, :, :])[..., 0]
        assert got.shape == (*lead, count)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(1, 30), LEADING, st.booleans(), SEEDS)
    def test_table_byte_equal_to_copy_form(self, kind, k, count, lead, planes, seed):
        fs, u = make_batch(kind, 2, count, seed)
        rng = np.random.default_rng([seed, k])
        mats = np.stack([u] + [spd(rng, 2) for _ in range(k - 1)])
        fs = with_leading(fs, lead)
        table = dist_table(plane_backed(fs) if planes else fs, mats)
        want = plane_reference.copy_dist_table(fs, mats)
        assert table.shape == want.shape and table.tobytes() == want.tobytes()
        # one contiguous plane per well
        assert np.moveaxis(table, -1, 0).flags.c_contiguous

    def test_exact_tie_takes_the_identity(self):
        u = np.diag([2.0, 0.5])
        fs = tie_batch(2.0, 0.5)
        identity = np.linalg.norm(fs - u, axis=(1, 2))
        table = dist_table(fs, u[None])[:, 0]
        assert table.tobytes() == ref.broadcast_dist_pairs(fs, u[None]).tobytes()
        assert table.tobytes() == identity.tobytes()
        assert dist_to_single_well_batch(fs, u).tobytes() == identity.tobytes()

    def test_single_matrix_and_many_wells_broadcast(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 2))
        us = np.stack([spd(rng, 2) for _ in range(5)])
        got = dist_to_single_well_batch(f, us)
        assert got.shape == (5,)
        assert got.tobytes() == ref.broadcast_dist_pairs(f[None], us).tobytes()
        assert got.tobytes() == dist_table(f[None], us)[0].tobytes()


class TestLabelRule:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 30),
        st.sampled_from([(), (1,), (3,), (2, 2)]),
        st.sampled_from([0.0, 0.5, 1.0, np.inf]),
        SEEDS,
    )
    def test_byte_equal_to_min_argmin(self, k, cells, lead, threshold, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so that rows hold exact ties, inf and NaN
        values = np.array([0.0, 0.25, 0.5, 1.0, 2.0, np.inf, np.nan])
        weights = rng.dirichlet(np.ones(len(values)))
        table = rng.choice(values, size=(*lead, cells, k), p=weights)
        dists, labels = cell_labels(table, threshold)
        want_dists, want_labels = min_argmin_labels(table, threshold)
        assert dists.shape == want_dists.shape and labels.dtype == want_labels.dtype
        assert dists.tobytes() == want_dists.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

    def test_ties_go_to_the_lowest_index(self):
        table = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 0.5], [np.inf, np.inf, 0.25]])
        dists, labels = cell_labels(table, 1.0)
        assert dists.tolist() == [1.0, 0.5, 0.25] and labels.tolist() == [0, 1, 2]

    def test_nan_rows_are_bad(self):
        table = np.array([[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan]])
        dists, labels = cell_labels(table, np.inf)
        assert np.isnan(dists).all() and (labels == BAD_LABEL).all()

    def test_table_is_left_alone(self):
        table = np.array([[0.5], [2.0]])
        table.flags.writeable = False
        dists, labels = cell_labels(table, 1.0)
        dists[:] = 7.0
        assert table.tolist() == [[0.5], [2.0]] and labels.tolist() == [0, BAD_LABEL]


class TestVertexGradients:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 8, 12]),
        st.sampled_from([(), (1,), (3,), (2, 2)]),
        st.sampled_from([1e-6, 1.0, 1e6]),
        st.booleans(),
        SEEDS,
    )
    def test_n2_matches_matmul_to_round_off(self, m, lead, scale, rotated, seed):
        rng = np.random.default_rng(seed)
        # a rotated lattice and jittered vertices give edge inverses with
        # no exact zeros
        rot = random_rotation(rng, 2) if rotated else None
        mesh = build_kuhn_mesh(2, m, lattice_rotation=rot)
        if rotated:
            mesh = jitter_vertices(mesh, 0.2, rng)
        values = scale * rng.normal(size=(*lead, len(mesh.vertices), 2))
        got = vertex_gradients(mesh, values)
        want = ref.matmul_vertex_gradients(mesh, values)
        assert got.shape == want.shape and is_plane_backed(got)
        # per field: the largest gradient entry sets the scale
        size = np.abs(want).max(axis=(-3, -2, -1), keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * size)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([2, 3, 5, 8]), st.sampled_from([(), (1,), (3,), (2, 2)]), SEEDS)
    def test_n2_byte_equal_to_stack_form(self, m, lead, seed):
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(m, rng)
        values = rng.normal(size=(*lead, len(mesh.vertices), 2))
        got = vertex_gradients(mesh, values)
        want = plane_reference.stack_vertex_gradients(mesh, values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([2, 3]), st.sampled_from([(), (2,)]), SEEDS)
    def test_n3_byte_equal_to_matmul(self, m, lead, seed):
        rng = np.random.default_rng(seed)
        mesh = build_kuhn_mesh(3, m)
        values = rng.normal(size=(*lead, len(mesh.vertices), 3))
        got = vertex_gradients(mesh, values)
        assert got.tobytes() == ref.matmul_vertex_gradients(mesh, values).tobytes()

    def test_affine_values_give_the_matrix(self):
        mesh = build_kuhn_mesh(2, 4)
        a = np.array([[1.5, -0.25], [0.75, 2.0]])
        grads = vertex_gradients(mesh, mesh.vertices @ a.T + [0.3, -0.1])
        assert np.abs(grads - a).max() <= 1e-14


class TestFacetJumps:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 8]),
        st.sampled_from([(), (1,), (3,), (2, 2)]),
        st.booleans(),
        st.booleans(),
        SEEDS,
    )
    def test_byte_equal_to_take_form(self, m, lead, planes, mapped, seed):
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(m, rng)
        values = rng.normal(size=(*lead, mesh.n_cells, 2, 2))
        normals = None
        if mapped:
            # the rigidity path: the normals of the domain mapped by U
            normals = mesh.facet_normal[mesh.interior] @ np.linalg.inv(spd(rng, 2))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
        given = plane_backed(values) if planes else values
        jumps, tangential = facet_jumps(mesh, given, normals)
        want_jumps, want_tangential = plane_reference.take_facet_jumps(mesh, values, normals)
        assert jumps.shape == want_jumps.shape and tangential.shape == want_tangential.shape
        assert jumps.tobytes() == want_jumps.tobytes()
        assert tangential.tobytes() == want_tangential.tobytes()
        assert is_plane_backed(jumps) and is_plane_backed(tangential)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 8]),
        st.sampled_from([(), (1,), (3,), (2, 2)]),
        st.booleans(),
        SEEDS,
    )
    def test_residual_byte_equal_to_take_form(self, m, lead, planes, seed):
        rng = np.random.default_rng(seed)
        mesh = jittered_mesh(m, rng)
        values = rng.normal(size=(*lead, mesh.n_cells, 2, 2))
        got = tangential_jump_residual(mesh, plane_backed(values) if planes else values)
        want = plane_reference.take_residual(mesh, values)
        assert np.shape(got) == lead and got.tobytes() == want.tobytes()

    def test_edge_inverses_plane_backed(self, admissible_meshes):
        assert is_plane_backed(admissible_meshes[8].inverse_edges)
