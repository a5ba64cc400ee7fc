"""Tests for lattice Hamiltonians, classification and sweep diagnostics."""

import tracemalloc

import numpy as np
import pytest

from wellspin.lattice import (
    BAD_SITE,
    BOUNDARY_SITE,
    EnergyBoundError,
    LatticeDeformation,
    antiferro_chain,
    antiferro_system,
    averaged_gradient_field,
    classify_lattice,
    evaluate_hamiltonian,
    ground_state_deformation,
    lattice_partition_diagnostics,
    synthetic_twin_system,
    verify_h2,
)
from wellspin.numerics import loglog_slope
from wellspin.wells import dist_to_single_well, rotation_2d


@pytest.fixture(scope="module")
def raw():
    return antiferro_system("raw")


@pytest.fixture(scope="module")
def remapped():
    return antiferro_system("remapped")


@pytest.fixture(scope="module")
def twin2d():
    return synthetic_twin_system()


class TestSystems:
    def test_raw_structure(self, raw):
        assert raw.dim == 1 and raw.q == 2
        assert raw.L0 == 2
        assert len(raw.window_tilde) == 6
        assert raw.separation_d == 2.0

    def test_remapped_structure(self, remapped):
        assert remapped.separation_d == 1.0
        for u in remapped.averaged_gradients:
            assert u[0, 0] == 1.5

    def test_raw_average_not_invertible(self, raw):
        rep = raw.h1_report()
        assert rep["averaged_invertible"] == [False, False]
        assert rep["zero_on_ground_states"]
        assert rep["ground_energy"] == 0.0  # exact on the finite alphabet

    def test_remapped_h1_full(self, remapped):
        rep = remapped.h1_report()
        assert rep["averaged_invertible"] == [True, True]
        assert rep["zero_on_ground_states"]
        assert rep["separation_d"] == 1.0

    def test_synthetic_h1(self, twin2d):
        rep = twin2d.h1_report()
        assert rep["averaged_invertible"] == [True, True, True, True]
        assert rep["zero_on_ground_states"]  # round-off dust only
        assert rep["ground_energy"] <= 1e-28

    def test_twin2d_separation_positive(self, twin2d):
        assert twin2d.separation_d > 0.1
        for u in twin2d.averaged_gradients:
            assert abs(np.linalg.det(u)) > 0.5

    @pytest.mark.parametrize("name", ["raw", "remapped", "twin2d"])
    def test_separation_byte_identical_to_site_loop(self, name, request):
        # the per-site scalar loop that one batched call per pair replaced
        system = request.getfixturevalue(name)
        states = system.ground_states
        best = float("inf")
        for a in range(len(states)):
            for b in range(a + 1, len(states)):
                worst = 0.0
                for site in system.q0_offsets:
                    pa, pb = states[a].gradient_at(site), states[b].gradient_at(site)
                    if system.dim == 1:
                        d = abs(float(pa[0, 0] - pb[0, 0]))
                    else:
                        d = dist_to_single_well(pa, pb)
                    worst = max(worst, d)
                best = min(best, worst)
        assert len(states) > 1
        assert np.float64(system.separation_d).tobytes() == np.float64(best).tobytes()


class TestHamiltonian:
    def test_ground_state_exact_zero(self, raw):
        x = antiferro_chain(raw, m=20)
        rep = evaluate_hamiltonian(x, raw)
        assert rep.total == 0.0
        assert np.all(rep.per_site == 0.0)

    def test_rotated_translated_ground_zero(self, remapped):
        x = ground_state_deformation(remapped, 1, (24,), m=24, shift=[3.7])
        assert evaluate_hamiltonian(x, remapped).total == 0.0

    def test_one_defect_costs_two_over_m(self, raw):
        m = 16
        x = antiferro_chain(raw, m=m, interfaces=(0.5,))
        rep = evaluate_hamiltonian(x, raw)
        assert rep.total == 2.0 / m
        assert (rep.per_site > 0).sum() == 1

    def test_translation_invariance_exact(self, raw):
        x = antiferro_chain(raw, m=12, interfaces=(0.3, 0.7))
        shifted = x.translated([2.25])
        assert (
            evaluate_hamiltonian(x, raw).total
            == evaluate_hamiltonian(shifted, raw).total
        )

    def test_total_is_sum_of_per_site(self, raw):
        x = antiferro_chain(raw, m=32, interfaces=(0.25, 0.5, 0.75))
        rep = evaluate_hamiltonian(x, raw)
        assert rep.total == float(rep.per_site.sum())

    def test_window_exceeding_domain(self, raw):
        x = LatticeDeformation.from_gradient_sequence([1.0], m=2)
        rep = evaluate_hamiltonian(x, raw)
        assert rep.empty and rep.total == 0.0

    def test_zero_energy_iff_ground_exhaustive(self, raw):
        # every chain over the raw alphabet with 8 gradients: zero energy
        # exactly for the two alternating chains
        import itertools

        for grads in itertools.product((-1.0, 0.0, 1.0), repeat=8):
            x = LatticeDeformation.from_gradient_sequence(grads, m=8)
            total = evaluate_hamiltonian(x, raw).total
            alternating = all(
                grads[i] * grads[i + 1] == -1.0 for i in range(len(grads) - 1)
            )
            assert (total == 0.0) == alternating

    def test_gradient_cache_consistent(self, raw):
        x = antiferro_chain(raw, m=16, interfaces=(0.5,))
        cached = x.gradient()
        assert x.gradient() is cached
        fresh = LatticeDeformation(x.values, x.m).gradient()
        assert cached.tobytes() == fresh.tobytes()


class TestClassify:
    def test_ground_state_labels(self, raw):
        m = 32
        x = antiferro_chain(raw, m=m)
        cls = classify_lattice(x, raw)
        assert cls.count(BAD_SITE) == 0
        assert cls.count(BOUNDARY_SITE) == raw.L0
        interior = cls.labels[cls.labels >= 0]
        assert set(np.unique(interior)) == {0}
        assert cls.boundary_volume == raw.L0 / m

    def test_defect_neighborhood_bad_and_phases_split(self, raw):
        m = 64
        x = antiferro_chain(raw, m=m, interfaces=(0.5,))
        cls = classify_lattice(x, raw)
        labs = cls.labels
        bad = np.nonzero(labs == BAD_SITE)[0]
        assert 1 <= len(bad) <= raw.L0 + 1
        assert np.all(np.abs(bad - m // 2) <= raw.L0 + 1)
        left = labs[: bad.min()]
        right = labs[bad.max() + 1 :]
        right = right[right != BOUNDARY_SITE]
        assert set(np.unique(left)) == {0}
        assert set(np.unique(right)) == {1}

    def test_no_adjacent_well_mismatch(self, raw):
        x = antiferro_chain(raw, m=128, interfaces=(0.3, 0.6, 0.9))
        cls = classify_lattice(x, raw)
        assert cls.adjacency_violations() == []

    def test_random_low_energy_chain_bad_count(self, raw):
        rng = np.random.default_rng(3)
        counts = {}
        for m in (64, 128, 256):
            k = 3
            fracs = sorted(rng.uniform(0.1, 0.9, k))
            x = antiferro_chain(raw, m=m, interfaces=fracs)
            assert evaluate_hamiltonian(x, raw).total <= 2.0 * k / m
            counts[m] = classify_lattice(x, raw).count(BAD_SITE)
        # n = 1: bad count stays O(1) = m^(n-1)
        assert max(counts.values()) <= 3 * (raw.L0 + 1)

    def test_synthetic_2d_ground_state(self, twin2d):
        rot = rotation_2d(0.4)
        x = ground_state_deformation(twin2d, 0, (10, 10), m=10, rotation=rot)
        cls = classify_lattice(x, twin2d)
        interior = cls.labels[cls.labels >= 0]
        assert interior.size > 0
        assert set(np.unique(interior)) == {0}
        assert cls.count(BAD_SITE) == 0

    def test_peak_memory_bounded(self, raw, twin2d):
        # the chain takes a sliding max, the twin match goes in fixed chunks
        chain = antiferro_chain(raw, m=2**18, interfaces=(0.25, 0.5, 0.75))
        twin = ground_state_deformation(twin2d, 0, (65, 65), m=64, rotation=rotation_2d(0.7))
        for x, system, limit in ((chain, raw, 20e6), (twin, twin2d, 32e6)):
            x.gradient()
            tracemalloc.start()
            try:
                classify_lattice(x, system)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit


class TestH2:
    def test_raw_exhaustive(self, raw):
        rep = verify_h2(raw)
        assert rep.exhaustive
        assert rep.n_windows == 3**6
        assert rep.ok and rep.c > 0
        assert rep.violations == []

    def test_remapped_exhaustive(self, remapped):
        rep = verify_h2(remapped)
        assert rep.exhaustive and rep.ok and rep.c > 0

    def test_planted_violation_detected(self, raw):
        broken = antiferro_system("raw")

        def dead_density(patches):
            g = patches[..., 0, 0]
            vals = g[..., 0] * g[..., 1] + 1.0
            # silently forgive one non-ground pattern
            vals = np.where((g[..., 0] == 1.0) & (g[..., 1] == 1.0), 0.0, vals)
            return vals

        broken.density = dead_density
        rep = verify_h2(broken)
        assert not rep.ok
        assert rep.violations
        w = rep.violations[0]["window"]
        assert any(v != 0 for v in w)

    def test_ground_windows_unconstrained(self, raw):
        rep = verify_h2(raw)
        # the two alternating windows have kappa = 0 and impose nothing
        assert rep.worst_kappa > 0


class TestAveraging:
    def test_ground_state_average_equals_u(self, remapped):
        x = ground_state_deformation(remapped, 0, (33,), m=32)
        avg = averaged_gradient_field(x, remapped, 0)
        assert avg.shape == (31, 1, 1)  # 32 gradient sites, period 2
        assert np.allclose(avg[..., 0, 0], 1.5, atol=0.0)

    def test_defect_localized(self, remapped):
        m = 64
        x = antiferro_chain(remapped, m=m, interfaces=(0.5,))
        avg = averaged_gradient_field(x, remapped, 0)
        vals = avg[..., 0, 0]
        off = np.nonzero(np.abs(vals - 1.5) > 1e-12)[0]
        assert len(off) <= 2 * remapped.L0
        assert np.all(np.abs(off - m // 2) <= 2 * remapped.L0)

    def test_rotated_2d_average(self, twin2d):
        rot = rotation_2d(1.1)
        x = ground_state_deformation(twin2d, 2, (9, 9), m=8, rotation=rot)
        avg = averaged_gradient_field(x, twin2d, 2)
        target = rot @ twin2d.ground_states[2].averaged
        assert np.allclose(avg, target, atol=1e-12)

    def test_idempotent_on_ground(self, remapped):
        x = ground_state_deformation(remapped, 0, (41,), m=40)
        avg1 = averaged_gradient_field(x, remapped, 0)
        # averaging a constant field again changes nothing
        y = LatticeDeformation.from_gradient_sequence(avg1[..., 0, 0], m=40)
        avg2 = averaged_gradient_field(y, remapped, 0)
        assert np.allclose(avg2, avg1[: len(avg2)], atol=1e-15)


class TestDiagnostics:
    def sweep(self, system, interfaces, ms=(64, 256, 1024)):
        return {
            m: antiferro_chain(system, m=m, interfaces=interfaces) for m in ms
        }

    def test_ground_sweep(self, raw):
        records = lattice_partition_diagnostics(
            self.sweep(raw, ()), raw, energy_constant=1.0
        )
        for rec in records:
            assert rec["energy"] == 0.0
            assert rec["n_components"] == 1
            assert rec["adjacency_violations"] == []
            comp = rec["components"][0]
            assert comp.label == 0
        slopes = loglog_slope(
            [r["m"] for r in records], [r["boundary_volume"] for r in records]
        )
        assert abs(slopes[0] + 1.0) <= 0.2

    def test_three_interface_sweep(self, raw):
        records = lattice_partition_diagnostics(
            self.sweep(raw, (0.25, 0.5, 0.75)), raw, energy_constant=8.0
        )
        perims = []
        for rec in records:
            assert rec["n_components"] == 4
            labels = [c.label for c in rec["components"]]
            assert labels.count(0) + labels.count(1) == 4
            perims.append(sum(p for p in rec["perimeters"].values()))
        # coarse perimeter counts interface contacts: constant in m
        assert len(set(perims)) == 1
        assert perims[0] <= 2 * 3 + 2
        bad = [r["bad_volume"] for r in records]
        slope, _ = loglog_slope([r["m"] for r in records], bad)
        assert abs(slope + 1.0) <= 0.3

    def test_interface_positions_stable(self, raw):
        records = lattice_partition_diagnostics(
            self.sweep(raw, (0.5,), ms=(64, 256, 1024)), raw, energy_constant=4.0
        )
        fractions = []
        for rec in records:
            comps = sorted(rec["components"], key=lambda c: c.sites.min())
            m = rec["m"]
            fractions.append([c.sites.max() / m for c in comps[:-1]])
        for f in fractions:
            assert abs(f[0] - 0.5) < 0.1
        assert abs(fractions[0][0] - fractions[-1][0]) < 0.05

    def test_energy_bound_enforced(self, raw):
        bad_chain = {
            16: LatticeDeformation.from_gradient_sequence([1.0] * 16, m=16)
        }
        with pytest.raises(EnergyBoundError) as err:
            lattice_partition_diagnostics(bad_chain, raw, energy_constant=1.0)
        assert err.value.m == 16
        assert err.value.total > err.value.allowed

    def test_commute_gap_decays(self, remapped):
        records = lattice_partition_diagnostics(
            self.sweep(remapped, (0.5,), ms=(32, 64, 128, 256)),
            remapped,
            energy_constant=4.0,
        )
        gaps = [r["commute_gap"] for r in records]
        ms = [r["m"] for r in records]
        assert all(g <= 4.0 / m for g, m in zip(gaps, ms))

    def test_remapped_components_have_rotation_one(self, remapped):
        records = lattice_partition_diagnostics(
            self.sweep(remapped, (0.5,), ms=(64, 128)), remapped, energy_constant=4.0
        )
        for rec in records:
            for comp in rec["components"]:
                if comp.rotation is not None:
                    assert comp.rotation.shape == (1, 1)
                    assert comp.rotation[0, 0] == pytest.approx(1.0, abs=1e-12)
                    assert comp.residual == pytest.approx(0.0, abs=1e-12)
