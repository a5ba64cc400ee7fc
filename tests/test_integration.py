"""Cross-module integration checks: 3-D paths and non-uniform meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellspin import harness, wells
from wellspin.fields import PWAffineField, evaluate_energy
from wellspin.mesh import build_kuhn_mesh, check_incompatibility
from wellspin.rigidity import IncompatibleField, curl_total_variation, rigidity_ratio
from wellspin.spin import classify, count_bad_cells, extract_partition, verify_spin_lemma
from wellspin.wells import WellSet, compute_dbar, random_rotation, solve_all_connections
from conftest import auto_laminate


class TestThreeDimensional:
    """The mesh, field, energy, classification and curl paths are
    dimension generic; only the twin solver is restricted to n = 2."""

    @pytest.fixture(scope="module")
    @staticmethod
    def wells3():
        ws = WellSet([np.diag([2.0, 1.0, 0.5]), np.diag([0.5, 1.0, 2.0])])
        ws.connections = []  # twin solver is 2-D; no connections needed here
        ws.incompat_dbar = ws.separation_d  # classification threshold proxy
        return ws

    @pytest.fixture(scope="module")
    @staticmethod
    def mesh3():
        return build_kuhn_mesh(3, 4)

    def test_mesh_normals_and_tiling(self, mesh3):
        assert abs(mesh3.effective_volume - 1.0) < 1e-9
        assert len(mesh3.normal_directions()) == 6  # n(n+1)/2 for n = 3
        norms = np.linalg.norm(mesh3.facet_normal, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_rotated_well_state(self, wells3, mesh3):
        rng = np.random.default_rng(17)
        rot = random_rotation(rng, 3)
        field = PWAffineField.from_linear(mesh3, rot @ wells3.matrices[1])
        rep = evaluate_energy(field, wells3)
        assert rep.total < 1e-25
        lab = classify(field, wells3)
        assert count_bad_cells(lab) == 0
        assert set(np.unique(lab.labels)) == {1}
        part = extract_partition(field, lab, wells3)
        assert len(part.components) == 1
        assert np.linalg.norm(part.components[0].rotation - rot) < 1e-9

    def test_gradient_field_zero_curl(self, mesh3):
        rng = np.random.default_rng(23)

        def fn(x):
            return np.stack(
                [
                    np.sin(2 * np.pi * x[:, 0]) + x[:, 1],
                    x[:, 2] - 0.3 * x[:, 0],
                    np.cos(np.pi * x[:, 1]) + 2.0 * x[:, 2],
                ],
                axis=1,
            )

        field = PWAffineField.from_vertex_function(mesh3, fn)
        assert curl_total_variation(field).total <= 1e-9

    def test_two_rotation_interface_curl(self, mesh3):
        rng = np.random.default_rng(29)
        r1, r2 = random_rotation(rng, 3), random_rotation(rng, 3)
        values = np.where(
            (mesh3.barycenters[:, 0] < 0.5)[:, None, None], r1[None], r2[None]
        )
        total = curl_total_variation(
            IncompatibleField(mesh=mesh3, values=values)
        ).total
        # tangential jump of (r1 - r2) on the x=1/2 plane, area 1
        jump = (r1 - r2)[:, 1:]  # columns along e2, e3
        assert total == pytest.approx(np.linalg.norm(jump), rel=1e-9)

    def test_rigidity_ratio_supercritical(self, mesh3):
        rng = np.random.default_rng(31)
        r0 = random_rotation(rng, 3)
        noise = rng.uniform(-1.0, 1.0, (mesh3.n_cells, 3, 3))
        noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
        field = IncompatibleField(mesh=mesh3, values=r0[None] + 1e-3 * noise)
        rep = rigidity_ratio(field, p=2)  # p > 3/2 = n/(n-1)
        assert np.isfinite(rep.ratio)


class TestJitteredMesh:
    def test_spin_lemma_on_jittered_admissible_mesh(self, wells_std, admissible_rotation):
        # small jitter keeps every facet normal inside the margin; the
        # forbidden-contact property must survive on non-uniform meshes
        rng = np.random.default_rng(41)
        mesh = build_kuhn_mesh(
            2,
            16,
            lattice_rotation=admissible_rotation.rotation,
            jitter=0.05,
            rng=rng,
        )
        rep = check_incompatibility(mesh, wells_std, 0.02)
        assert rep.ok, "jitter ate the incompatibility margin"
        for offset_frac in (0.0, 0.3, 0.6):
            field = auto_laminate(mesh, wells_std, offset_frac=offset_frac)
            lab = classify(field, wells_std)
            assert verify_spin_lemma(field, lab, wells_std) == []

    def test_energy_comparable_to_uniform(self, wells_std, admissible_rotation):
        rng = np.random.default_rng(43)
        uniform = build_kuhn_mesh(2, 16, lattice_rotation=admissible_rotation.rotation)
        jittered = build_kuhn_mesh(
            2,
            16,
            lattice_rotation=admissible_rotation.rotation,
            jitter=0.05,
            rng=rng,
        )
        e_u = evaluate_energy(auto_laminate(uniform, wells_std), wells_std).total
        e_j = evaluate_energy(auto_laminate(jittered, wells_std), wells_std).total
        assert 0.25 <= e_j / e_u <= 4.0


def connection_bytes(conns):
    return [
        (c.i, c.j, c.multiplicity, np.concatenate([c.rotation.ravel(), c.a, c.b]).tobytes())
        for c in conns
    ]


class TestWellSetLifecycle:
    """A WellSet owns its twins, dbar and c0: each is the pure function's
    value, computed once however many stages read it."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 2**32 - 1))
    def test_derived_values_equal_pure_calls(self, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, 2, 2))
        mats = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(2)
        ws = WellSet(mats, delta0=0.02)
        pure = WellSet(mats)
        assert connection_bytes(ws.connections) == connection_bytes(solve_all_connections(pure))
        dbar = compute_dbar(pure, 0.02)
        assert np.float64(ws.incompat_dbar).tobytes() == np.float64(dbar).tobytes()
        assert np.float64(ws.c0).tobytes() == np.float64(min(pure.separation_d, dbar)).tobytes()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"scenario": "wellset-analysis"},
            {"scenario": "laminate-sweep", "m_list": [8, 16, 32, 64]},
            {"scenario": "spin-lemma-suite", "m": 8, "field_count": 10},
        ],
        ids=lambda cfg: cfg["scenario"],
    )
    def test_run_computes_each_once(self, cfg, tmp_path, monkeypatch):
        calls = {"solve_all_connections": 0, "compute_dbar": 0}

        def counted(name):
            original = getattr(wells, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(wells, name, counted(name))
        assert harness.run({**cfg, "seed": 1}, out_dir=tmp_path) == harness.EXIT_OK
        assert calls == {"solve_all_connections": 1, "compute_dbar": 1}
