"""The closed-form n = 2 kernels against the SVD code they replaced
(tests/svd_reference.py), and the n = 3 paths, which still run the SVD,
byte for byte against the same code."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svd_reference as ref
from kuhn_reference import FirstVisitMesh
from wellspin.fields import PWAffineField, tangential_jump_residual
from wellspin.mesh import build_kuhn_mesh
from wellspin.rigidity import (
    IncompatibleField,
    _facet_jumps,
    _measure,
    _measure_geometry,
    bv_structure_check,
    curl_total_variation,
)
from wellspin.wells import (
    _procrustes_rotation_batch,
    dist_to_single_well_batch,
    dist_to_son_batch,
    polar_rotation,
    random_rotation,
    rotation_2d,
)

KINDS = ("random", "near-singular", "reflected", "zero", "near-well")
EPS = np.finfo(float).eps


def spd(rng, n):
    """A symmetric positive definite well with eigenvalues in [0.5, 2]."""
    q = random_rotation(rng, n)
    return q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T


def make_batch(kind, n, count, seed):
    """(count, n, n) matrices of one kind and a well U they are measured
    against; near-well batches are R U + 1e-12 noise, with noise entries
    in [-1, 1], so that their distance is at most n * 1e-12."""
    rng = np.random.default_rng(seed)
    u = spd(rng, n)
    fs = rng.normal(size=(count, n, n))
    if kind == "near-singular":
        # the last singular value pushed down to 1e-14 or below
        w, s, vt = np.linalg.svd(fs)
        s[:, -1] *= 1e-14 * rng.uniform(0.0, 1.0, count)
        fs = (w * s[:, None, :]) @ vt
    elif kind == "reflected":
        fs[:, 0] *= np.sign(np.linalg.det(fs))[:, None]
        fs[:, 0] = -fs[:, 0]
    elif kind == "zero":
        fs[:] = 0.0
    elif kind == "near-well":
        rots = np.stack([random_rotation(rng, n) for _ in range(count)])
        fs = rots @ u + 1e-12 * rng.uniform(-1.0, 1.0, (count, n, n))
    return fs, u


def is_rotation(r):
    eye = np.eye(r.shape[-1])
    orth = np.abs(np.swapaxes(r, -1, -2) @ r - eye).max()
    return orth <= 16 * EPS and np.all(np.linalg.det(r) > 0)


def extended_distance(fs, u):
    """|F - R U|_F at the maximiser of tr(R^T F U^T), all in np.longdouble
    (80-bit on x86-64), rounded to float."""
    fs, u = fs.astype(np.longdouble), u.astype(np.longdouble)
    m = fs @ u.T
    a, b = m[:, 0, 0] + m[:, 1, 1], m[:, 1, 0] - m[:, 0, 1]
    r = np.sqrt(a * a + b * b)
    c, s = a / r, b / r
    rot = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    return np.sqrt(((fs - rot @ u) ** 2).sum(axis=(1, 2))).astype(float)


def objective(r, m):
    """tr(R^T M), batched."""
    return np.einsum("...ij,...ij->...", r, m)


class TestClosedFormN2:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_procrustes_rotation(self, kind, count, seed):
        ms, _ = make_batch(kind, 2, count, seed)
        rot = _procrustes_rotation_batch(ms)
        assert rot.shape == ms.shape
        assert is_rotation(rot)
        best = np.hypot(ms[:, 0, 0] + ms[:, 1, 1], ms[:, 1, 0] - ms[:, 0, 1])
        scale = np.linalg.norm(ms, axis=(1, 2))
        # the closed form reaches the maximum |(M00 + M11, M10 - M01)|, and
        # the SVD rotation never does better
        assert np.all(np.abs(objective(rot, ms) - best) <= 8 * EPS * scale)
        assert np.all(objective(ref.procrustes_rotation_batch(ms), ms) <= best + 8 * EPS * scale)

    def test_zero_gives_identity(self):
        rot = _procrustes_rotation_batch(np.zeros((3, 2, 2)))
        assert np.array_equal(rot, np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(polar_rotation(np.zeros((2, 2))), np.eye(2))

    def test_reflection_picks_the_so2_argmax(self):
        # det < 0: the nearest rotation of diag(2, -1) is the identity
        m = np.diag([2.0, -1.0])
        assert np.array_equal(polar_rotation(m), np.eye(2))
        assert np.allclose(ref.polar_rotation(m), np.eye(2), atol=1e-15)

    def test_exact_rotation_recovered(self):
        thetas = np.linspace(-3.0, 3.0, 13)
        rots = rotation_2d(thetas)
        assert np.abs(_procrustes_rotation_batch(3.0 * rots) - rots).max() <= 2 * EPS

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_dist_to_single_well(self, kind, count, seed):
        fs, u = make_batch(kind, 2, count, seed)
        d = dist_to_single_well_batch(fs, u)
        d_ref = ref.dist_to_single_well_batch(fs, u)
        if kind == "near-well":
            # the residual is measured directly, so a distance near 1e-12
            # keeps its digits; the expanded form would leave about 1e-8.
            # The SVD rotation of the oracle is itself off by up to about
            # 1.8e-15 here, so the 1e-15 bound is taken against the same
            # residual evaluated in extended precision.
            assert np.abs(d - extended_distance(fs, u)).max() <= 1e-15
            assert np.abs(d - d_ref).max() <= 2e-15
            assert np.all(d <= 2e-12 + 1e-15)
        else:
            scale = np.linalg.norm(fs, axis=(1, 2)) + np.linalg.norm(u)
            assert np.all(np.abs(d - d_ref) <= 1e-14 * scale)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_dist_to_son(self, kind, count, seed):
        fs, u = make_batch(kind, 2, count, seed)
        if kind == "near-well":
            rng = np.random.default_rng(seed)
            noise = rng.uniform(-1.0, 1.0, (count, 2, 2))
            fs = rotation_2d(rng.uniform(0, 7, count)) + 1e-12 * noise
        d = dist_to_son_batch(fs)
        assert np.array_equal(d, dist_to_single_well_batch(fs, np.eye(2)))
        d_ref = ref.dist_to_son_batch(fs)
        tol = 1e-15 if kind == "near-well" else 1e-14 * (1.0 + np.linalg.norm(fs, axis=(1, 2)))
        assert np.all(np.abs(d - d_ref) <= tol)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
    def test_polar_rotation(self, kind, seed):
        ms, _ = make_batch(kind, 2, 1, seed)
        r = polar_rotation(ms[0])
        assert np.array_equal(r, _procrustes_rotation_batch(ms)[0])
        assert is_rotation(r)
        scale = np.linalg.norm(ms[0])
        assert objective(ref.polar_rotation(ms[0]), ms[0]) <= objective(r, ms[0]) + 8 * EPS * scale


class TestSvdPathsN3:
    """n = 3 still runs the SVD: byte-equal to the oracle away from
    singular input, and always a rotation."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(("random", "reflected", "near-well")),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_byte_equal(self, kind, count, seed):
        fs, u = make_batch(kind, 3, count, seed)
        d = dist_to_single_well_batch(fs, u)
        assert np.array_equal(d, ref.dist_to_single_well_batch(fs, u))
        assert np.array_equal(dist_to_son_batch(fs), ref.dist_to_son_batch(fs))
        assert np.array_equal(
            _procrustes_rotation_batch(fs @ u.T), ref.procrustes_rotation_batch(fs @ u.T)
        )
        assert np.array_equal(polar_rotation(fs[0]), ref.polar_rotation(fs[0]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(("near-singular", "zero")),
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
    )
    def test_singular_input_stays_special_orthogonal(self, kind, count, seed):
        fs, u = make_batch(kind, 3, count, seed)
        assert is_rotation(_procrustes_rotation_batch(fs))
        assert is_rotation(polar_rotation(fs[0]))
        # the old batched kernel took the flip from det M, which can come
        # out with the wrong sign here and leave a reflection; the polar
        # oracle takes it from det(U V^T), as wellspin now does
        d = dist_to_single_well_batch(fs, u)
        d_ref = [np.linalg.norm(f - ref.polar_rotation(f @ u.T) @ u) for f in fs]
        scale = np.linalg.norm(fs, axis=(1, 2)) + np.linalg.norm(u)
        assert np.all(np.abs(d - d_ref) <= 1e-14 * scale)

    def test_mesh_paths_byte_equal(self):
        mesh = build_kuhn_mesh(3, 3)
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(mesh.n_cells, 3, 3))
        assert tangential_jump_residual(mesh, grads) == ref.tangential_jump_residual(mesh, grads)
        field = IncompatibleField(mesh=mesh, values=grads, map_matrix=spd(rng, 3))
        _, _, tangents = _measure_geometry(field)
        normals = mesh.facet_normal[mesh.interior] @ np.linalg.inv(field.map_matrix)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        assert np.array_equal(tangents, ref.mapped_tangents(normals))


class TestMeshKernelsN2:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1e-9, 1.0, 1e3)))
    def test_tangential_jump_residual(self, admissible_meshes, seed, scale):
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(seed)
        grads = scale * rng.normal(size=(mesh.n_cells, 2, 2))
        got = tangential_jump_residual(mesh, grads)
        want = ref.tangential_jump_residual(mesh, grads)
        assert abs(got - want) <= 4 * EPS * want

    def test_continuous_field_residual(self, admissible_meshes):
        mesh = admissible_meshes[16]

        def fn(x):
            return np.stack([np.sin(3 * x[:, 0]) + x[:, 1] ** 2, np.cos(2 * x[:, 1]) * x[:, 0]], 1)

        field = PWAffineField.from_vertex_function(mesh, fn)
        want = ref.tangential_jump_residual(mesh, field.gradients)
        assert abs(field.continuity_residual - want) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mapped_tangents(self, admissible_meshes, seed):
        mesh = admissible_meshes[8]
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(mesh.n_cells, 2, 2))
        field = IncompatibleField(mesh=mesh, values=values, map_matrix=spd(rng, 2))
        ids, areas, tangents = _measure_geometry(field)
        assert tangents.shape == (len(ids), 2, 1)
        normals = mesh.facet_normal[ids] @ np.linalg.inv(field.map_matrix)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        old = ref.mapped_tangents(normals)
        # the same line, up to the sign the SVD happens to pick
        t, o = tangents[:, :, 0], old[:, :, 0]
        assert np.abs(np.abs(np.einsum("fi,fi->f", t, o)) - 1.0).max() <= 4 * EPS
        assert np.abs(np.einsum("fi,fi->f", t, normals)).max() <= 4 * EPS
        curl = curl_total_variation(field)
        jumps = values[mesh.facet_cells[ids, 1]] - values[mesh.facet_cells[ids, 0]]
        want = areas * np.linalg.norm(jumps @ old, axis=(1, 2))
        assert np.abs(curl.per_facet - want).max() <= 1e-14 * want.max()

    def test_bv_report_carries_the_curl(self, admissible_meshes):
        mesh = admissible_meshes[16]
        rng = np.random.default_rng(9)
        field = IncompatibleField(
            mesh=mesh, values=rng.normal(size=(mesh.n_cells, 2, 2)), map_matrix=np.diag([2.0, 0.5])
        )
        assert bv_structure_check(field).curl_total == curl_total_variation(field).total


def full_jump_variation(field):
    """Discrete total variation |DA|, facet area times full jump norm, in
    a pass of its own."""
    ids, areas, _, jumps = _facet_jumps(field)
    return _measure(ids, areas, jumps)


class TestOnePassBV:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mapped", [False, True])
    def test_matches_both_measures(self, admissible_meshes, n, mapped):
        # one geometry and one jump array give both measures bit for bit
        mesh = admissible_meshes[16] if n == 2 else build_kuhn_mesh(3, 3)
        rng = np.random.default_rng(9)
        field = IncompatibleField(
            mesh=mesh,
            values=rng.normal(size=(mesh.n_cells, n, n)),
            map_matrix=spd(rng, n) if mapped else None,
        )
        bv = bv_structure_check(field)
        dv, curl = full_jump_variation(field), curl_total_variation(field)
        assert bv.dv_total == dv.total and bv.curl_total == curl.total
        assert np.array_equal(bv.facet_ids, dv.facet_ids)
        assert np.array_equal(bv.facet_ids, curl.facet_ids)
        assert bv.per_facet_dv.tobytes() == dv.per_facet.tobytes()
        assert bv.per_facet_curl.tobytes() == curl.per_facet.tobytes()
        assert bv.ratio == dv.total / curl.total


def pairwise_diameter(mesh):
    """m times the largest cell diameter, from all pairwise vertex
    differences at once, as SimplicialMesh.constants computed it before."""
    verts = mesh.vertices[mesh.cells]
    d2 = ((verts[:, :, None, :] - verts[:, None, :, :]) ** 2).sum(-1)
    return float((np.sqrt(d2.max(axis=(1, 2))) * mesh.m).max())


def edge_matrices(mesh):
    verts = mesh.vertices[mesh.cells]
    return np.swapaxes(verts[:, 1:, :] - verts[:, :1, :], 1, 2)


class TestMeshCaches:
    def test_inverse_edges_cached_and_exact(self, admissible_meshes):
        # n = 2 takes the adjugate over the determinant: within 4 eps of
        # LAPACK's inverse, relative to each cell's largest entry; n = 3
        # still runs LAPACK, bit for bit
        rot = admissible_meshes[8].lattice_rotation
        for m, jitter in [(6, 0.0), (16, 0.0), (9, 0.15)]:
            mesh = build_kuhn_mesh(2, m, lattice_rotation=rot, jitter=jitter)
            first = mesh.inverse_edges
            assert mesh.inverse_edges is first
            want = np.linalg.inv(edge_matrices(mesh))
            scale = np.abs(want).max(axis=(1, 2))[:, None, None]
            assert np.all(np.abs(first - want) <= 4 * EPS * scale)
        mesh = build_kuhn_mesh(3, 3, lattice_rotation=random_rotation(np.random.default_rng(2), 3))
        assert np.array_equal(mesh.inverse_edges, np.linalg.inv(edge_matrices(mesh)))

    @pytest.mark.parametrize("n, m", [(2, 9), (3, 3)])
    def test_diameters_match_pairwise_array(self, n, m):
        rng = np.random.default_rng(n)
        mesh = build_kuhn_mesh(n, m, jitter=0.15, rng=rng)
        assert mesh.constants.diameter_upper == pairwise_diameter(mesh)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_diameter_of_one_simplex(self, n, seed):
        # one random simplex: its longest edge may join any vertex pair
        vertices = np.random.default_rng(seed).normal(size=(n + 1, n))
        cells = np.arange(n + 1)[None]
        mesh = FirstVisitMesh(n, 1, np.eye(n), vertices, cells)
        assert mesh.constants.diameter_upper == pairwise_diameter(mesh)
