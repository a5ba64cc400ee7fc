"""Tests for Kuhn mesh construction and the twin-alignment checks."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from kuhn_reference import (
    FirstVisitMesh,
    ReferenceMesh,
    _facet_visits,
    facet_check_incompatibility,
    jitter_vertices,
    mesh_constants,
    reference_build_kuhn_mesh,
    reference_normal_directions,
)
from twin_reference import reference_admissible_rotation

from wellspin.fields import facet_jumps
from wellspin.mesh import (
    MeshError,
    MeshResourceError,
    SimplicialMesh,
    build_kuhn_mesh,
    check_incompatibility,
    find_admissible_rotation,
    kuhn_reference_normals,
)
from wellspin.wells import WellSet, random_rotation, rotation_2d

U1 = np.diag([2.0, 0.5])
U2 = np.diag([0.5, 2.0])


def standard_wells():
    return WellSet([U1, U2])


class TestBuild:
    def test_counts_m2(self):
        mesh = build_kuhn_mesh(2, 2)
        assert mesh.n_cells == 8
        assert np.allclose(mesh.volumes, 1.0 / 8.0)

    def test_counts_m16(self):
        mesh = build_kuhn_mesh(2, 16)
        assert mesh.n_cells == 512
        c = mesh_constants(mesh)
        assert c.vol_lower == pytest.approx(0.5, abs=1e-14)
        assert c.vol_upper == pytest.approx(0.5, abs=1e-14)

    def test_counts_3d(self):
        mesh = build_kuhn_mesh(3, 2)
        assert mesh.n_cells == 48

    def test_tiles_domain(self):
        mesh = build_kuhn_mesh(2, 8)
        assert abs(mesh.effective_volume - 1.0) < 1e-9

    def test_facet_normals_unit_and_shared(self):
        mesh = build_kuhn_mesh(2, 4)
        norms = np.linalg.norm(mesh.facet_normal, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert np.all(mesh.facet_cells[mesh.interior, 1] >= 0)

    @staticmethod
    def _normal_keys(mesh):
        return {tuple(np.round(v, 10)) for v in reference_normal_directions(mesh.facet_normal)}

    def test_normal_set_independent_of_m(self):
        sets = [self._normal_keys(build_kuhn_mesh(2, m)) for m in (4, 8, 16)]
        assert sets[0] == sets[1] == sets[2]
        assert len(sets[0]) == 3  # n(n+1)/2 for n=2

    def test_normal_set_rotated(self):
        rot = rotation_2d(np.pi / 8)
        sets = [
            self._normal_keys(build_kuhn_mesh(2, m, lattice_rotation=rot))
            for m in (4, 8)
        ]
        assert sets[0] == sets[1]

    def test_adjacency_symmetric_and_interior_count(self):
        mesh = build_kuhn_mesh(2, 4)
        pairs = mesh.facet_cells[mesh.interior]
        # each interior facet joins two distinct cells, and no pair of
        # cells shares two facets
        assert np.all(pairs[:, 0] != pairs[:, 1])
        assert len(np.unique(np.sort(pairs, axis=1), axis=0)) == len(pairs)
        slots = mesh.n_cells * 3
        n_boundary = len(mesh.boundary)
        assert len(mesh.interior) == (slots - n_boundary) // 2

    def test_constants_scale_invariant_exact(self):
        c8 = mesh_constants(build_kuhn_mesh(2, 8))
        c64 = mesh_constants(build_kuhn_mesh(2, 64))
        assert c8.vol_lower == c64.vol_lower
        assert c8.vol_upper == c64.vol_upper
        assert c8.diameter_upper == c64.diameter_upper

    def test_constants_scale_invariant_rotated(self):
        # rotated absolute coordinates carry ulp noise, so equality is
        # exact only up to round-off here
        rot = rotation_2d(np.pi / 7)
        c8 = mesh_constants(build_kuhn_mesh(2, 8, lattice_rotation=rot))
        c64 = mesh_constants(build_kuhn_mesh(2, 64, lattice_rotation=rot))
        assert c8.vol_lower == pytest.approx(c64.vol_lower, abs=1e-12)
        assert c8.diameter_upper == pytest.approx(c64.diameter_upper, abs=1e-12)

    def test_diameter_times_m_constant(self):
        vals = [mesh_constants(build_kuhn_mesh(2, m)).diameter_upper for m in (4, 8, 16)]
        assert vals[0] == vals[1] == vals[2]

    def test_resource_budget(self, monkeypatch):
        monkeypatch.setattr("wellspin.mesh.MAX_CELLS", 100_000)
        with pytest.raises(MeshResourceError) as err:
            build_kuhn_mesh(2, 4096)
        assert "cells" in str(err.value)

    def test_small_m_rejected(self):
        with pytest.raises(MeshError):
            build_kuhn_mesh(2, 1)

    def test_rotated_mesh_stays_inside(self):
        rot = rotation_2d(0.3)
        mesh = build_kuhn_mesh(2, 8, lattice_rotation=rot)
        assert np.all(mesh.vertices >= -1e-12)
        assert np.all(mesh.vertices <= 1 + 1e-12)
        assert mesh.effective_volume < 1.0
        assert abs(mesh.effective_volume - mesh.volumes.sum()) == 0.0


class TestIncompatibility:
    def test_axis_twin_always_aligned(self):
        # a twin normal along (1,0) hits the axis facet normal exactly
        ws = standard_wells()
        ws.connections[0].b = np.array([1.0, 0.0])
        mesh = build_kuhn_mesh(2, 4)
        rep = check_incompatibility(mesh.lattice_rotation, ws, 0.1)
        assert not rep.ok
        assert rep.worst_alignment == pytest.approx(1.0, abs=1e-12)

    def test_rotated_mesh_alignment_value(self):
        ws = standard_wells()
        ws.connections = [ws.connections[0]]
        ws.connections[0].b = np.array([1.0, 0.0])
        mesh = build_kuhn_mesh(2, 8, lattice_rotation=rotation_2d(np.radians(22.5)))
        rep = check_incompatibility(mesh.lattice_rotation, ws, 0.05)
        assert rep.worst_alignment == pytest.approx(np.cos(np.radians(22.5)), abs=1e-9)
        assert rep.ok  # 0.9239 <= 1 - 0.05
        rep2 = check_incompatibility(mesh.lattice_rotation, ws, 0.1)
        assert not rep2.ok

    def test_no_connections_vacuously_ok(self):
        ws = WellSet([U1])
        ws.connections = []
        mesh = build_kuhn_mesh(2, 4)
        rep = check_incompatibility(mesh.lattice_rotation, ws, 0.3)
        assert rep.ok and rep.worst_alignment == 0.0

    def test_standard_pair_identity_mesh_is_aligned(self):
        # the diagonal Kuhn facets share the (1,-1)/sqrt(2) twin normal
        ws = standard_wells()
        rep = check_incompatibility(build_kuhn_mesh(2, 8).lattice_rotation, ws, 0.05)
        assert not rep.ok
        assert rep.worst_alignment == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3]), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
    def test_closed_form_normals_match_facets(self, n, rotated, seed, delta0):
        # every facet normal is +- a reference normal turned by the lattice
        # rotation, and check_incompatibility reads those, in reference
        # order, in place of the facets' own; a small clipped mesh may lack
        # some direction
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 11 if n == 2 else 5))
        try:
            mesh = build_kuhn_mesh(n, m, random_rotation(rng, n) if rotated else None)
        except MeshError:
            return
        # a facet edge about 1/m long is a difference of coordinates up to
        # 1, so a facet normal carries about m eps of their round-off, and
        # the n = 3 SVD a few eps more (at most 7.8 and 9.7 eps measured)
        tol = (m + 8) * np.finfo(float).eps
        turned = kuhn_reference_normals(n) @ mesh.lattice_rotation.T
        facets = mesh.facet_normal[:, None]
        gap = np.minimum(np.abs(facets - turned).max(axis=2), np.abs(facets + turned).max(axis=2))
        assert gap.min(axis=1).max() <= tol
        # random twin normals, and one near each turned normal
        twins = np.vstack([rng.standard_normal((2, n)), turned + 0.1 * rng.standard_normal(turned.shape)])
        twins /= np.linalg.norm(twins, axis=1)[:, None]
        rep = check_incompatibility(mesh.lattice_rotation, SimpleNamespace(twin_normals=lambda: list(twins)), delta0)
        ok, worst, offenders = facet_check_incompatibility(mesh, twins, delta0)
        # no alignment within round-off of the bound, where the verdicts may part
        assume(np.all(np.abs(np.abs(turned @ twins.T) - (1.0 - delta0)) > tol))
        if len(reference_normal_directions(mesh.facet_normal)) < len(turned):
            assert rep.ok <= ok and rep.worst_alignment >= worst - tol
            assert len(rep.offenders) >= len(offenders)
            return
        assert rep.ok == ok and abs(rep.worst_alignment - worst) <= tol
        assert len(rep.offenders) == len(offenders)
        for got, (normal, twin, align) in zip(rep.offenders, offenders):
            assert np.abs(np.array(got["facet_normal"]) - normal).max() <= tol
            assert got["twin_normal"] == twin.tolist()
            assert abs(got["alignment"] - align) <= tol


class TestAdmissibleRotation:
    def test_beats_identity(self):
        ws = standard_wells()
        res = find_admissible_rotation(ws)
        ref = kuhn_reference_normals(2)
        twins = np.array([c.b for c in ws.connections])
        id_margin = 1.0 - np.abs(ref @ twins.T).max()
        assert res.margin >= id_margin - 1e-12

    def test_margin_matches_grid_search(self):
        # the exact rule never loses margin to the grid search it replaced,
        # at either grid, and the grid converges to it
        ws = standard_wells()
        margin = find_admissible_rotation(ws).margin
        for grid in (4096, 16384):
            old = reference_admissible_rotation(ws, angle_grid_size=grid).margin
            assert old - 1e-12 <= margin <= old + 1e-4

    def test_standard_pair_margin_value(self):
        # twins at +-45 degrees force the optimum near 22.5 degrees
        ws = standard_wells()
        res = find_admissible_rotation(ws)
        assert res.margin == pytest.approx(1.0 - np.cos(np.radians(22.5)), abs=1e-6)

    def test_mesh_built_with_found_rotation_admissible(self):
        ws = standard_wells()
        res = find_admissible_rotation(ws)
        mesh = build_kuhn_mesh(2, 8, lattice_rotation=res.rotation)
        rep = check_incompatibility(mesh.lattice_rotation, ws, 0.05)
        assert rep.ok

    def test_no_connections_identity(self):
        ws = WellSet([U1])
        ws.connections = []
        res = find_admissible_rotation(ws)
        assert res.margin == 1.0
        assert np.allclose(res.rotation, np.eye(2))


MESH_ARRAYS = (
    "vertices",
    "cells",
    "volumes",
    "barycenters",
    "facet_vertices",
    "facet_cells",
    "facet_area",
    "facet_normal",
    "interior",
    "boundary",
)


def mesh_arrays(mesh):
    """The arrays compared between builders: an n = 2 mesh stores no
    facet tangent."""
    return MESH_ARRAYS if mesh.dim == 2 else MESH_ARRAYS + ("facet_tangent",)


@st.composite
def mesh_inputs(draw):
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(2, 10 if n == 2 else 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kwargs = {}
    if draw(st.booleans()):
        kwargs["lattice_rotation"] = random_rotation(rng, n)
    if draw(st.booleans()):
        kwargs["jitter"] = draw(st.floats(0.01, 0.2))
    return n, m, seed, kwargs


def build(n, m, seed, kwargs):
    """build_kuhn_mesh at kwargs' lattice_rotation, its interior vertices
    moved by kwargs' jitter (jitter_vertices) with a generator of seed."""
    mesh = build_kuhn_mesh(n, m, kwargs.get("lattice_rotation"))
    jitter = kwargs.get("jitter", 0.0)
    return jitter_vertices(mesh, jitter, np.random.default_rng(seed)) if jitter else mesh


def build_both(n, m, seed, kwargs):
    """(new mesh, reference mesh), each jittered from its own generator of
    the same seed, or the MeshError messages if construction fails."""
    makers = (
        lambda: build(n, m, seed, kwargs),
        lambda: reference_build_kuhn_mesh(n, m, rng=np.random.default_rng(seed), **kwargs),
    )
    out = []
    for make in makers:
        try:
            out.append(make())
        except MeshError as err:
            out.append(str(err))
    return out


# the n = 2 facet frames are closed-form in wellspin and SVD-based in the
# reference; they may differ by a few ulps (the tangent also by its sign),
# and so may the normal directions taken from them
FRAME_TOL = 4 * np.finfo(float).eps


def assert_matches_reference(new, ref):
    assert isinstance(ref, ReferenceMesh) and type(new) is SimplicialMesh
    assert hasattr(new, "facet_tangent") == (new.dim == 3)
    for name in mesh_arrays(new):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if new.dim == 2 and name == "facet_normal":
            continue
        assert a.tobytes() == b.tobytes(), name
    assert mesh_constants(new) == ref.constants
    if new.dim == 3:
        return
    assert np.abs(new.facet_normal - ref.facet_normal).max() <= FRAME_TOL
    # the tangent facet_jumps forms: the normal turned back, (-n1, n0)
    turned = np.stack([-new.facet_normal[:, 1], new.facet_normal[:, 0]], axis=1)[:, :, None]
    sign = np.sign(np.einsum("fik,fik->fk", turned, ref.facet_tangent))
    drift = turned - sign[:, None, :] * ref.facet_tangent
    assert np.abs(drift).max() <= FRAME_TOL


class TestReferenceOracle:
    """The array builder against the loop builder it replaced: byte for
    byte, but for the closed-form n = 2 facet normals and tangents."""

    @settings(max_examples=60, deadline=None)
    @given(mesh_inputs())
    def test_matches_loop_builder(self, inputs):
        new, ref = build_both(*inputs)
        if isinstance(ref, str):
            assert new == ref
            return
        assert_matches_reference(new, ref)

    @pytest.mark.parametrize(
        "n, m, kwargs",
        [
            (2, 128, {"lattice_rotation": rotation_2d(0.3927)}),
            (3, 4, {"jitter": 0.1, "lattice_rotation": random_rotation(np.random.default_rng(3), 3)}),
        ],
    )
    def test_matches_fixed_cases(self, n, m, kwargs):
        assert_matches_reference(*build_both(n, m, 7, kwargs))

    def test_closed_form_tangent_turns_normal_back(self):
        # facet_jumps multiplies by the normal, the mesh's or a given one,
        # turned back: (-n1, n0). With the value c I on cell c each jump
        # is (a - b) I, so its tangential part is (a - b) times that
        # tangent, exactly
        mesh = build(2, 8, 0, {"lattice_rotation": rotation_2d(0.3), "jitter": 0.1})
        values = np.arange(mesh.n_cells)[:, None, None] * np.eye(2)
        a, b = mesh.facet_cells[mesh.interior].T
        nrm = mesh.facet_normal[mesh.interior]
        mapped = nrm @ np.diag([2.0, 0.5])
        mapped /= np.linalg.norm(mapped, axis=1)[:, None]
        for normals, given in ((nrm, None), (mapped, mapped)):
            tangential = facet_jumps(mesh, values, given)[1][:, :, 0]
            want = (a - b)[:, None] * np.stack([-normals[:, 1], normals[:, 0]], axis=1)
            assert np.array_equal(tangential, want)

    def test_resource_budget_matches(self, monkeypatch):
        # the budget is read at call time; the oracle takes it as a parameter
        monkeypatch.setattr("wellspin.mesh.MAX_CELLS", 1000)
        with pytest.raises(MeshResourceError, match="exceeds budget 1000"):
            build_kuhn_mesh(3, 200)
        with pytest.raises(MeshResourceError, match="exceeds budget 1000"):
            reference_build_kuhn_mesh(3, 200, max_cells=1000)

    def test_no_cells_inside_domain(self):
        # at m = 2 this rotation leaves no whole cell inside the unit cube
        rot = random_rotation(np.random.default_rng(6), 3)
        for build in (build_kuhn_mesh, reference_build_kuhn_mesh):
            with pytest.raises(MeshError, match="no cells inside the domain"):
                build(3, 2, lattice_rotation=rot)

    def test_facet_of_three_cells_rejected(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.5, 2.0]])
        cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        for cls in (FirstVisitMesh, ReferenceMesh):
            with pytest.raises(MeshError, match="more than two cells"):
                cls(2, 2, np.eye(2), vertices, cells)

    def test_facet_keys_overflow_rejected(self):
        with pytest.raises(MeshResourceError, match="overflow"):
            _facet_visits(np.arange(5)[None, :], 2**16)


class TestClosedFormFacets:
    """build_kuhn_mesh's closed-form facet numbering, n = 2 orientation,
    barycenters and edge inverses against the first-visit numbering and
    the opposite-vertex test, byte for byte on every array."""

    @staticmethod
    def assert_matches_first_visit(mesh):
        oracle = FirstVisitMesh(
            mesh.dim, mesh.m, mesh.lattice_rotation, mesh.vertices, mesh.cells
        )
        assert hasattr(oracle, "facet_tangent") == (mesh.dim == 3)
        for name in mesh_arrays(mesh) + ("inverse_edges",):
            a, b = getattr(mesh, name), getattr(oracle, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(mesh_inputs())
    def test_matches_first_visit_oracle(self, inputs):
        try:
            mesh = build(*inputs)
        except MeshError:
            return
        self.assert_matches_first_visit(mesh)

    @pytest.mark.parametrize(
        "n, m, rotation",
        [(2, 128, rotation_2d(np.pi / 8)), (3, 6, random_rotation(np.random.default_rng(4), 3))],
    )
    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_matches_fixed_cases(self, n, m, rotation, jitter):
        mesh = build(n, m, 0, {"lattice_rotation": rotation, "jitter": jitter})
        self.assert_matches_first_visit(mesh)
