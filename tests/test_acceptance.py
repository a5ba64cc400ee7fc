"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime limit is pinned here.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from conftest import auto_laminate
from wellspin.fields import PWAffineField, build_laminate, evaluate_energy
from wellspin.harness import run, substream
from wellspin.lattice import (
    antiferro_chain,
    antiferro_system,
    evaluate_hamiltonian,
    lattice_partition_diagnostics,
    verify_h2,
)
from wellspin.mesh import build_kuhn_mesh
from wellspin.numerics import loglog_slope
from wellspin.rigidity import (
    IncompatibleField,
    build_reduced_field,
    bv_structure_check,
    curl_total_variation,
    field_from_blocks,
    random_block_values,
    rigidity_ratio,
)
from wellspin.spin import classify, count_bad_cells, discrete_perimeter, extract_partition, verify_spin_lemma
from wellspin.wells import rotation_2d, solve_rank_one, well_distance


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_rank_one_algebra(wells_std):
    with criterion(1, "rank-one algebra, residuals and brute-force well distance"):
        start = time.perf_counter()
        sol = solve_rank_one(wells_std, 0, 1)
        assert len(sol.connections) == 2
        scale = np.linalg.norm(wells_std.matrices[0])
        for conn in sol.connections:
            assert conn.residual(wells_std) <= 1e-9 * scale
        d = well_distance(wells_std, 0, 1)
        thetas = np.linspace(0.0, 2.0 * np.pi, 10**6, endpoint=False)
        q = np.empty((len(thetas), 2, 2))
        q[:, 0, 0] = np.cos(thetas)
        q[:, 0, 1] = -np.sin(thetas)
        q[:, 1, 0] = np.sin(thetas)
        q[:, 1, 1] = np.cos(thetas)
        diffs = wells_std.matrices[0][None] - q @ wells_std.matrices[1]
        brute = float(np.linalg.norm(diffs, axis=(1, 2)).min())
        assert abs(d - brute) <= 1e-6
        assert time.perf_counter() - start < 1.0


def test_criterion_2_spin_lemma_suite(wells_std, admissible_meshes):
    with criterion(2, "spin lemma: 1000 admissible fields clean, aligned mesh violated"):
        start = time.perf_counter()
        mesh = admissible_meshes[16]
        rng = substream(20260809, "acceptance-spin")
        from wellspin.harness import _spin_suite_rows

        rows = _spin_suite_rows(mesh, wells_std, rng, 1000, wells_std.c0 / 100.0)
        assert len(rows) == 1000
        total = sum(row[5] for row in rows)
        assert total == 0

        aligned = build_kuhn_mesh(2, 8)
        diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
        conn = max(wells_std.connections, key=lambda c: abs(c.b @ diag))
        spacing = 1.0 / (np.sqrt(2.0) * aligned.m)
        offset = float((aligned.vertices @ conn.b).min())
        adv = build_laminate(aligned, wells_std, conn, 0.5, 4 * spacing, offset=offset)
        adv_lab = classify(adv, wells_std)
        assert len(verify_spin_lemma(adv, adv_lab, wells_std)) >= 1
        assert time.perf_counter() - start < 30.0


def test_criterion_3_counting_bound(wells_std, admissible_meshes):
    with criterion(3, "counting bound holds as computed on every evaluated field"):
        c1 = 1.0
        thr2 = (wells_std.c0 / 100.0) ** 2
        checked = 0
        for m in (8, 16, 32, 64):
            mesh = admissible_meshes[m]
            fields = [
                auto_laminate(mesh, wells_std),
                auto_laminate(mesh, wells_std, connection_index=1, volume_fraction=0.3),
                PWAffineField.from_linear(mesh, wells_std.matrices[0]),
            ]
            for fld in fields:
                rep = evaluate_energy(fld, wells_std, c1=c1)
                lab = classify(fld, wells_std)
                lhs = (
                    count_bad_cells(lab) * thr2 * c1 * float(mesh.volumes.min())
                )
                assert lhs <= rep.total
                checked += 1
        assert checked == 12


def test_criterion_4_scaling_laws(wells_std, admissible_meshes):
    with criterion(4, "laminate sweep slopes: energy, bad count, bad volume, perimeters"):
        start = time.perf_counter()
        ms = [8, 16, 32, 64]
        energies, counts, vols = [], [], []
        perims = {0: [], 1: []}
        conn = wells_std.connections[0]
        corners = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        proj = corners @ conn.b
        for m in ms:
            mesh = admissible_meshes[m]
            # full-span period: one interior interface
            fld = build_laminate(
                mesh,
                wells_std,
                conn,
                0.5,
                proj.max() - proj.min(),
                offset=proj.min(),
                ripple=0.004,
            )
            rep = evaluate_energy(fld, wells_std)
            lab = classify(fld, wells_std)
            energies.append(rep.total)
            counts.append(count_bad_cells(lab))
            vols.append(lab.bad_volume)
            for j in (0, 1):
                perims[j].append(discrete_perimeter(lab, j))
        assert abs(loglog_slope(ms, energies)[0] + 1.0) <= 0.3
        assert abs(loglog_slope(ms, counts)[0] - 1.0) <= 0.3
        assert abs(loglog_slope(ms, vols)[0] + 1.0) <= 0.3
        assert abs(loglog_slope(ms, perims[0])[0]) <= 0.15
        assert abs(loglog_slope(ms, perims[1])[0]) <= 0.15
        assert time.perf_counter() - start < 120.0


def test_criterion_5_curl_machinery(wells_std, admissible_meshes):
    with criterion(5, "curl: gradients exact, interface hand value, perimeter bound"):
        for m in (8, 16, 32):
            fld = auto_laminate(admissible_meshes[m], wells_std)
            assert curl_total_variation(fld).total <= 1e-9

        mesh = build_kuhn_mesh(2, 8)
        r1, r2 = rotation_2d(0.4), rotation_2d(1.3)
        values = np.where(
            (mesh.barycenters[:, 0] < 0.5)[:, None, None], r1[None], r2[None]
        )
        total = curl_total_variation(IncompatibleField(mesh=mesh, values=values)).total
        hand = float(np.linalg.norm((r1 - r2) @ np.array([0.0, 1.0])))
        assert abs(total - hand) <= 1e-10

        ratios = []
        for m in (16, 32, 64):
            fld = auto_laminate(admissible_meshes[m], wells_std)
            lab = classify(fld, wells_std)
            for j in (0, 1):
                reduced = build_reduced_field(fld, lab, j, wells_std)
                ratios.append(
                    curl_total_variation(reduced).total / discrete_perimeter(lab, j)
                )
        kappa = max(ratios)
        assert math.isfinite(kappa)
        assert kappa / min(ratios) <= 2.0  # one constant serves the whole suite


def test_criterion_6_rigidity_family():
    with criterion(6, "rigidity ratios: 200-field family stable across scales"):
        start = time.perf_counter()
        rng = substream(20260809, "acceptance-rigidity")
        meshes = {m: build_kuhn_mesh(2, m) for m in (16, 32)}
        max_ratio = {16: 0.0, 32: 0.0}
        for _ in range(200):
            blocks = random_block_values(rng, 4)
            for m, mesh in meshes.items():
                rep = rigidity_ratio(field_from_blocks(mesh, blocks), p=2)
                assert math.isfinite(rep.ratio)
                max_ratio[m] = max(max_ratio[m], rep.ratio)
        hi, lo = max(max_ratio.values()), min(max_ratio.values())
        assert hi / lo <= 2.0

        mesh = meshes[16]
        noise = rng.uniform(-1.0, 1.0, (mesh.n_cells, 2, 2))
        noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
        r0 = rotation_2d(0.3)
        eps_values = [1e-3, 5e-4, 2.5e-4, 1e-4]
        lhs = []
        for eps in eps_values:
            fld = IncompatibleField(mesh=mesh, values=r0[None] + eps * noise)
            lhs.append(rigidity_ratio(fld, p=2).lhs)
        slope, _ = loglog_slope(eps_values, lhs)
        assert 1.8 <= slope <= 2.2
        assert time.perf_counter() - start < 120.0


def test_criterion_7_bv_structure(wells_std, admissible_meshes):
    with criterion(7, "partition: stable components, shrinking residuals, |DA| <= k|Curl|"):
        counts, residuals, ratios = [], [], []
        for m in (8, 16, 32, 64):
            mesh = admissible_meshes[m]
            fld = auto_laminate(mesh, wells_std, ripple=0.004)
            lab = classify(fld, wells_std)
            part = extract_partition(fld, lab, wells_std)
            macro = part.macroscopic(0.01 * mesh.effective_volume)
            counts.append(len(macro))
            residuals.append(max(c.residual for c in macro))
            values = np.zeros((mesh.n_cells, 2, 2))
            for comp in part.components:
                if comp.well == 0 and comp.rotation is not None:
                    values[comp.cells] = comp.rotation
            limit = IncompatibleField(
                mesh=mesh, values=values, map_matrix=wells_std.matrices[0]
            )
            rep = bv_structure_check(limit)
            assert math.isfinite(rep.ratio)
            ratios.append(rep.ratio)
        assert len(set(counts)) == 1
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert max(ratios) / min(ratios) <= 2.0


def test_criterion_8_lattice_antiferro():
    with criterion(8, "antiferro: exact zeros, exhaustive growth bound, interfaces"):
        start = time.perf_counter()
        system = antiferro_system("raw")

        ground = antiferro_chain(system, m=64)
        assert evaluate_hamiltonian(ground, system).total == 0.0

        h2 = verify_h2(system)
        assert h2.exhaustive and h2.n_windows == 3**6
        assert h2.ok and h2.c > 0.0
        assert h2.violations == []

        m = 64
        one = antiferro_chain(system, m=m, interfaces=(0.5,))
        rep = evaluate_hamiltonian(one, system)
        assert rep.total == 2.0 / m  # the defect window costs exactly 2
        assert float(rep.per_site.max()) == 2.0 / m

        k = 3
        fracs = [0.25, 0.5, 0.75]
        chains = {
            mm: antiferro_chain(system, m=mm, interfaces=fracs)
            for mm in (64, 256, 1024)
        }
        records = [
            lattice_partition_diagnostics(mm, x, system, energy_constant=2.0 * k + 2.0)
            for mm, x in chains.items()
        ]
        for rec in records:
            assert rec["n_components"] == k + 1
        slope, _ = loglog_slope(
            [r["m"] for r in records], [r["boundary_volume"] for r in records]
        )
        assert abs(slope + 1.0) <= 0.2
        assert time.perf_counter() - start < 60.0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "same seed reproduces every CSV byte for byte"):
        configs = [
            {
                "scenario": "rigidity-family",
                "seed": 424242,
                "m_list": [8, 16],
                "family_size": 25,
            },
            {
                "scenario": "antiferro-sweep",
                "seed": 424242,
                "lattice": {"interfaces": 2, "m_list": [32, 64, 128]},
            },
            {
                "scenario": "wellset-analysis",
                "seed": 424242,
                "wells": {
                    "dim": 2,
                    "wells": [[[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]],
                    "delta0": 0.05,
                },
            },
        ]
        for i, cfg in enumerate(configs):
            a = tmp_path / f"a{i}"
            b = tmp_path / f"b{i}"
            assert run(cfg, out_dir=a) == run(cfg, out_dir=b)
            csvs_a = sorted((a / "tables").glob("*.csv"))
            csvs_b = sorted((b / "tables").glob("*.csv"))
            assert csvs_a and len(csvs_a) == len(csvs_b)
            for fa, fb in zip(csvs_a, csvs_b):
                assert fa.read_bytes() == fb.read_bytes(), fa.name
