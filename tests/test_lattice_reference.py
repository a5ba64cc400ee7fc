"""The exact rotation match, the bound-pruned classifier, the array chain
builder, the ground-state integrator and the sliding window views against
the code they replaced (tests/lattice_reference.py)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattice_reference as ref
from wellspin import lattice
from wellspin.lattice import (
    BOUNDARY_SITE,
    GroundState,
    LatticeDeformation,
    LatticeError,
    LatticeSystem,
    _ground_patch_bank,
    _rotation_match,
    antiferro_chain,
    antiferro_system,
    averaged_gradient_field,
    classify_lattice,
    evaluate_hamiltonian,
    ground_state_deformation,
    synthetic_twin_system,
    verify_h2,
)
from wellspin.wells import rotation_2d

SCAN = rotation_2d(np.linspace(0.0, 2.0 * np.pi, 2**16, endpoint=False))
KINDS = ("random", "near-rotated", "repeated", "zero", "reflected")


def make_pair(kind, q, seed):
    """A patch and a ground patch of q entries, shape (q, 2, 2)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(q, 2, 2))
    p = rng.normal(size=(q, 2, 2))
    if kind == "near-rotated":
        p = rotation_2d(rng.uniform(0.0, 2.0 * np.pi)) @ g + 1e-9 * rng.normal(size=(q, 2, 2))
    elif kind == "repeated":
        g[1:] = g[0]
        p[1:] = p[0]
    elif kind == "zero":
        (p if seed % 2 else g)[:] = 0.0
    elif kind == "reflected":
        # mirrored ground entries: det < 0 against det > 0, no rotation fits
        g[..., 1, :] *= np.sign(np.linalg.det(g))[:, None]
        p = g * np.array([-1.0, 1.0])
    return p, g


def dense_scan(p, g):
    """max over entries, min over 2^16 equally spaced angles."""
    resid = p[None] - SCAN[:, None] @ g[None]
    return float(np.linalg.norm(resid, axis=(-2, -1)).max(axis=1).min())


class TestRotationMatch:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1))
    # two entries cross within rounding of a tangency of the unturned
    # expansion, which loses that crossing and stops 12% above the scan
    @example("near-rotated", 2, 30249)
    def test_exact_below_oracle_and_scan(self, kind, q, seed):
        p, g = make_pair(kind, q, seed)
        exact = float(_rotation_match(p, g))
        scan = dense_scan(p, g)
        assert exact <= ref._rotation_grid_match(p, g) + 1e-12
        assert exact <= scan + 1e-12
        # the scan is within half a grid step of the optimum, and a residual
        # moves by at most |G_k| per radian
        step = 2.0 * np.pi / 2**16
        lipschitz = np.linalg.norm(g, axis=(-2, -1)).max()
        assert scan - exact <= 0.5 * step * lipschitz + 1e-12

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]),
    )
    def test_turned_frame_never_above_expansion(self, kind, q, seed, noise):
        p, g = make_pair(kind, q, seed)
        if kind == "near-rotated":
            rng = np.random.default_rng(seed)
            p = rotation_2d(rng.uniform(0.0, 2.0 * np.pi)) @ g + noise * rng.normal(size=g.shape)
        exact = float(_rotation_match(p, g))
        assert exact <= ref.expanded_rotation_match(p[None], g[None])[0] + 1e-12
        assert exact <= dense_scan(p, g) + 1e-12

    def test_rotated_ground_patch_is_zero(self):
        p, g = make_pair("random", 9, 5)
        exact = _rotation_match(rotation_2d(1.234) @ g, g)
        assert exact <= 1e-14
        # the old grid-and-polish value stops at its angle tolerance
        assert ref._rotation_grid_match(rotation_2d(1.234) @ g, g) > exact

    def test_zero_inputs(self):
        zero = np.zeros((4, 2, 2))
        assert _rotation_match(zero, zero) == 0.0
        p, _ = make_pair("random", 4, 1)
        # nothing to rotate: the largest entry norm of the patch
        assert _rotation_match(p, zero) == np.linalg.norm(p, axis=(-2, -1)).max()

    def test_batch_beyond_one_chunk_matches_single_calls(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, q = 300, 9
        assert n > lattice._MATCH_BLOCK // (4 * q**3)
        pairs = [make_pair(KINDS[i % len(KINDS)], q, int(rng.integers(2**32))) for i in range(n)]
        p = np.array([a for a, _ in pairs])
        g = np.array([b for _, b in pairs])
        batch = _rotation_match(p, g)
        assert batch.shape == (n,)
        single = np.array([_rotation_match(a, b) for a, b in pairs])
        np.testing.assert_allclose(batch, single, rtol=0.0, atol=1e-14)
        # chunk boundaries do not change a site's value
        monkeypatch.setattr(lattice, "_MATCH_BLOCK", 3 * 4 * q**3)
        assert np.array_equal(_rotation_match(p, g), batch)
        for i in range(0, n, 37):
            assert batch[i] <= ref._rotation_grid_match(p[i], g[i]) + 1e-12

    def test_broadcast_over_leading_axes(self):
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(5, 6, 2, 2))
        bank = rng.normal(size=(3, 6, 2, 2))
        table = _rotation_match(windows[:, None], bank[None])
        assert table.shape == (5, 3)
        for i in range(5):
            for b in range(3):
                assert table[i, b] == _rotation_match(windows[i], bank[b])


class TestClassifyLabels:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["raw", "remapped"]),
        st.integers(1, 80),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 0.6),
    )
    def test_chain_labels_match_stacks(self, variant, length, seed, flips):
        system = antiferro_system(variant)
        rng = np.random.default_rng(seed)
        grads = system.ground_states[0].gradient_at(np.arange(length)[:, None])[:, 0, 0]
        # flip some sites to random letters, off by a little or by a letter
        flip = rng.random(length) < flips
        grads = np.where(flip, rng.choice(system.alphabet, length), grads)
        grads = grads + np.where(rng.random(length) < 0.2, rng.normal(0.0, 0.02, length), 0.0)
        x = LatticeDeformation.from_gradient_sequence(grads, m=length)
        labels = classify_lattice(x, system).labels
        assert labels.tobytes() == ref.classify_labels(x, system).tobytes()

    @pytest.mark.parametrize("state, angle", [(0, 0.4), (3, 2.9), (1, 5.0)])
    def test_twin_labels_match_grid_match(self, state, angle):
        twin = synthetic_twin_system()
        x = ground_state_deformation(twin, state, (9, 9), m=8, rotation=rotation_2d(angle))
        rng = np.random.default_rng(state)
        # small noise everywhere and a defect in one corner
        values = x.values + 2e-4 * rng.normal(size=x.values.shape)
        values[:3, :3] += 0.05 * rng.normal(size=(3, 3, 2))
        x = LatticeDeformation(values, 8)
        labels = classify_lattice(x, twin).labels
        assert labels.tobytes() == ref.classify_labels(x, twin).tobytes()
        assert set(np.unique(labels)) == {-2, -1, state}


@st.composite
def twin_lattices(draw):
    """A noisy rotated twin ground state (any of the four), its m, and
    what to plant in it: nothing, a NaN or an infinite value, or a site
    at exactly the threshold distance of some state."""
    state = draw(st.integers(0, 3))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    m = draw(st.integers(3, 9))
    # value noise in units of the threshold, 0.6 / 100
    noise = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0])) * 0.006
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plant = draw(st.sampled_from(["none", "threshold", "nan", "inf", "-inf"]))
    twin = synthetic_twin_system()
    x = ground_state_deformation(twin, state, (m + 1, m + 1), m=m, rotation=rotation_2d(angle))
    values = x.values + noise * rng.normal(size=x.values.shape)
    if plant in ("nan", "inf", "-inf"):
        values[tuple(rng.integers(0, m + 1, 2))] = float(plant)
    return twin, LatticeDeformation(values, m), plant, rng


class TestBoundPrune:
    @settings(max_examples=100, deadline=None)
    @given(twin_lattices())
    def test_labels_equal_unpruned(self, case):
        twin, x, plant, rng = case
        with pytest.MonkeyPatch.context() as mp:
            if plant == "threshold":
                # a site's computed distance to a state becomes the threshold
                dists = ref.unpruned_distances(x, twin)
                d = float(dists.reshape(-1)[rng.integers(dists.size)])
                sep = 100.0 * d
                for _ in range(4):  # the separation whose hundredth is d
                    if sep / 100.0 == d:
                        break
                    sep = np.nextafter(sep, np.inf if sep / 100.0 < d else -np.inf)
                mp.setattr(twin, "separation_d", sep)
            labels = classify_lattice(x, twin).labels
            assert labels.tobytes() == ref.unpruned_labels(x, twin).tobytes()

    def test_only_the_own_state_is_matched(self, monkeypatch):
        twin = synthetic_twin_system()
        x = ground_state_deformation(twin, 2, (13, 13), m=12, rotation=rotation_2d(2.2))
        calls = []

        def counted(patches, gpatches):
            calls.append(len(patches))
            return _rotation_match(patches, gpatches)

        monkeypatch.setattr(lattice, "_rotation_match", counted)
        labels = classify_lattice(x, twin).labels
        assert calls == [0, 0, 100, 0]
        assert labels.tobytes() == ref.unpruned_labels(x, twin).tobytes()
        assert set(np.unique(labels)) == {BOUNDARY_SITE, 2}


class TestWindowViews:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["raw", "remapped", "twin"]),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_energies_and_averages_match_gathers(self, kind, size, seed):
        rng = np.random.default_rng(seed)
        if kind == "twin":
            system = synthetic_twin_system()
            shape = (size + 1, int(rng.integers(1, 14)), 2)
        else:
            system = antiferro_system(kind)
            size *= 8
            shape = (size + 1, 1)
        x = LatticeDeformation(rng.normal(size=shape), m=max(size, 1))
        rep = evaluate_hamiltonian(x, system)
        old = ref.hamiltonian_per_site(x, system)
        if old is None:
            assert rep.empty and rep.per_site.size == 0
        else:
            assert rep.per_site.tobytes() == old.tobytes()
            assert rep.total == float(old.sum())
        for l in range(len(system.ground_states)):
            new = averaged_gradient_field(x, system, l)
            avg = ref.averaged_gradients(x, system, l)
            assert new.shape == avg.shape and new.tobytes() == avg.tobytes()


class TestChainBuilder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["raw", "remapped"]),
        st.integers(0, 120),
        st.data(),
    )
    def test_gradients_match_loop_builder(self, variant, length, data):
        system = antiferro_system(variant)
        sites = data.draw(
            st.lists(st.integers(0, max(length - 1, 0)), unique=True, max_size=min(length, 8))
        )
        fracs = [s / length for s in sites]
        new = antiferro_chain(system, length, fracs)
        old = ref.alternating_chain(system, length, fracs)
        assert new.values.tobytes() == old.values.tobytes()
        assert new.gradient().tobytes() == old.gradient().tobytes()

    def test_slip_at_first_sites(self):
        system = antiferro_system("raw")
        for fracs in ([0.0], [0.0, 0.1], [0.0, 0.1, 0.2, 0.5]):
            new = antiferro_chain(system, 10, fracs)
            old = ref.alternating_chain(system, 10, fracs)
            assert new.values.tobytes() == old.values.tobytes()

    def test_repeated_position_rejected(self):
        system = antiferro_system("raw")
        # the loop builder planted one slip here instead of two
        old = ref.alternating_chain(system, 10, [0.1, 0.1, 0.5]).gradient()[:, 0, 0]
        assert int((old[1:] == old[:-1]).sum()) == 1
        with pytest.raises(LatticeError, match=r"repeated \[1\]"):
            antiferro_chain(system, 10, [0.1, 0.1, 0.5])

    def test_out_of_range_position_rejected(self):
        system = antiferro_system("raw")
        with pytest.raises(LatticeError, match=r"outside \[4\]"):
            antiferro_chain(system, 4, [0.25, 0.9])
        fracs = [(i + 1) / 8 for i in range(7)]
        with pytest.raises(LatticeError, match=r"repeated \[2\], outside \[4\]"):
            antiferro_chain(system, 4, fracs)


class TestVerifyH2Planar:
    def test_twin_sampler(self):
        twin = synthetic_twin_system()
        bank = _ground_patch_bank(twin, twin.window_tilde)

        def sampler(rng, count):
            picks = bank[rng.integers(0, len(bank), count)]
            rots = rotation_2d(rng.uniform(0.0, 2.0 * np.pi, count))[:, None]
            scale = np.where(np.arange(count) % 3 == 0, 0.0, rng.uniform(0.01, 0.5, count))
            noise = scale[:, None, None, None] * rng.normal(size=picks.shape)
            return rots @ picks + noise

        rep = verify_h2(twin, sample_budget=24, rng=np.random.default_rng(4), sampler=sampler)
        assert rep.n_windows == 24 and not rep.exhaustive
        assert rep.ok and rep.c > 0.0 and rep.violations == []
        # the exact match puts the rotated ground windows on their orbit
        # (kappa <= 1e-12), so the worst ratio comes from a perturbed one
        assert rep.worst_kappa > 1e-3
        oracle = min(ref._rotation_grid_match(rep.worst_window, gp) for gp in bank)
        assert rep.worst_kappa <= oracle + 1e-12
        assert oracle - rep.worst_kappa <= 1e-5


class TestGroundStateIntegrator:
    """ground_state_deformation's cumulative sums against the row loop."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3),
        st.floats(0.0, 2.0 * np.pi),
        st.integers(1, 20),
        st.integers(1, 20),
    )
    @example(0, 0.7, 9, 9)
    @example(1, 2.2, 13, 13)
    @example(2, 4.1, 17, 17)
    @example(3, 5.9, 25, 25)
    @example(1, 1.3, 65, 65)
    def test_twin_values_match_row_loop(self, state, angle, rows, cols):
        twin = synthetic_twin_system()
        g, rot = twin.ground_states[state], rotation_2d(angle)
        new = ground_state_deformation(twin, state, (rows, cols), m=8, rotation=rot)
        old = ref.deformation_from_gradient_function(
            lambda sites: rot @ g.gradient_at(sites), (rows, cols), 8
        )
        assert new.values.tobytes() == old.values.tobytes()

    @pytest.mark.parametrize("variant", ["raw", "remapped"])
    @pytest.mark.parametrize("length", [1, 2, 7, 41])
    def test_chain_values_match_row_loop(self, variant, length):
        system = antiferro_system(variant)
        for state, g in enumerate(system.ground_states):
            new = ground_state_deformation(system, state, (length,), m=length)
            old = ref.deformation_from_gradient_function(g.gradient_at, (length,), length)
            assert new.values.tobytes() == old.values.tobytes()

    def test_empty_chain(self):
        x = LatticeDeformation.from_gradient_sequence([], m=0)
        assert x.values.tolist() == [[0.0]] and x.gradient().shape == (0, 1, 1)

    def test_non_integrable_rejected(self):
        rng = np.random.default_rng(3)
        curl = GroundState(rng.normal(size=(2, 2, 2, 2)))
        system = LatticeSystem(2, [(0, 0), (1, 0), (0, 1)], lambda p: 0.0, [curl])
        with pytest.raises(LatticeError, match="not integrable"):
            ground_state_deformation(system, 0, (5, 5), m=4)
        with pytest.raises(LatticeError, match="not integrable"):
            ref.deformation_from_gradient_function(curl.gradient_at, (5, 5), 4)
