"""The exact rotation match, its entry-plane coefficients and its
half-angle crossings, the classifier settled by two-sided bounds, the
array chain builder, the ground-state integrator, the sliding window
views, the blocked twin density and the table-built antiferro model
against the code they replaced (tests/lattice_reference.py), and the tiled
box read of a ground pattern against its modular gather."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lattice_reference as ref
from wellspin import lattice
from wellspin.lattice import (
    BAD_SITE,
    BOUNDARY_SITE,
    GroundState,
    LatticeDeformation,
    LatticeError,
    LatticeSystem,
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
from wellspin.numerics import half_angle_roots
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

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_plane_sinusoids_match_products(self, kind, q, seed):
        # the entry-plane coefficients against those of P_k G_k^T, within a
        # few roundings of the entry products
        p, g = make_pair(kind, q, seed)
        norms = np.linalg.norm(p, axis=(-2, -1)) * np.linalg.norm(g, axis=(-2, -1))
        tol = 4.0 * np.finfo(float).eps * norms
        for new, old in zip(lattice._sinusoids(p, g), ref.matmul_sinusoids(p, g)):
            assert new.shape == old.shape and np.all(np.abs(new - old) <= tol)

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
        # stacks of one shape: any leading axes, matched pair by pair
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(5, 6, 2, 2))
        bank = rng.normal(size=(3, 6, 2, 2))
        p = np.repeat(windows[:, None], 3, axis=1)
        g = np.repeat(bank[None], 5, axis=0)
        assert p.shape == g.shape == (5, 3, 6, 2, 2)
        table = _rotation_match(p, g)
        assert table.shape == (5, 3)
        for i in range(5):
            for b in range(3):
                assert table[i, b] == _rotation_match(windows[i], bank[b])


class TestHalfAngleRoots:
    """numerics.half_angle_roots against the quadratic formula that was
    inline in _rotation_match (lattice_reference.inline_crossings)."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-300, 300))
    def test_same_angles_as_inline_roots(self, seed, exp):
        rng = np.random.default_rng(seed)
        qa, qb, qc = np.ldexp(rng.normal(size=(3, 8, 16)), exp)
        qa[0] = 0.0  # a root at +-pi
        qc[1] = 0.0  # a root at 0
        qa[2], qb[2], qc[2] = np.abs(qa[2]), 0.0, np.abs(qc[2])  # no real root
        qa[3], qb[3], qc[3] = 0.0, 0.0, 0.0  # 0/0
        qb[4], qc[4] = 0.0, 0.0  # a double root at 0 and a 0/0
        angles, disc = half_angle_roots(qa, qb, qc)
        old, crosses, old_disc = ref.inline_crossings(qa, qb, qc)
        new = np.concatenate(angles, axis=1)
        assert np.array_equal(np.sign(disc), np.sign(old_disc))
        assert np.array_equal(~np.isnan(new), crosses)
        assert np.array_equal(new[crosses], old[crosses])
        assert np.all(np.isnan(new[2:4])) and np.all(crosses[:2]) and np.all(new[4, :16] == 0.0)
        # (qa u^2 + qb u + qc) / (1 + u^2) at u = tan(t/2), to round-off
        qa, qb, qc = (np.tile(c, 2)[crosses] for c in (qa, qb, qc))
        t = new[crosses]
        resid = qc + (qa - qc) * np.sin(0.5 * t) ** 2 + 0.5 * qb * np.sin(t)
        assert np.all(np.abs(resid) <= 8.0 * np.finfo(float).eps * (abs(qa) + abs(qb) + abs(qc)))


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


def twin_case(state, angle, m, noise, seed, plant):
    """A noisy rotated twin ground state (any of the four), its m, and
    what to plant in it: nothing, a NaN or an infinite value, a site at
    exactly the threshold distance or ceiling of some state (the test sets
    the threshold), or a seam: the rows from m // 2 on come from the
    state's parity partner. Noise is in units of the threshold, 0.6 / 100."""
    twin = synthetic_twin_system()
    shape = (m + 1, m + 1)
    rot = rotation_2d(angle)
    grads = rot @ twin.ground_states[state].box(shape)
    if plant == "seam":
        grads[m // 2 :] = (rot @ twin.ground_states[state ^ 1].box(shape))[m // 2 :]
    rng = np.random.default_rng(seed)
    values = lattice._integrate(grads, shape) + noise * 0.006 * rng.normal(size=shape + (2,))
    if plant in ("nan", "inf", "-inf"):
        values[tuple(rng.integers(0, m + 1, 2))] = float(plant)
    return twin, LatticeDeformation(values, m), plant, rng


@st.composite
def twin_lattices(draw):
    return twin_case(
        draw(st.integers(0, 3)),
        draw(st.floats(0.0, 2.0 * np.pi)),
        draw(st.integers(3, 9)),
        draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(["none", "threshold", "ceiling", "seam", "nan", "inf", "-inf"])),
    )


def set_threshold(mp, twin, d):
    """Patch twin's separation so that its hundredth, the threshold, is d."""
    sep = 100.0 * d
    for _ in range(4):
        if sep / 100.0 == d:
            break
        sep = np.nextafter(sep, np.inf if sep / 100.0 < d else -np.inf)
    mp.setattr(twin, "separation_d", sep)


class TestBoundPrune:
    @settings(max_examples=100, deadline=None)
    @given(twin_lattices(), st.sampled_from([None, 1, 500, 5000]))
    # both parity states at the same distance on the seam, all matched
    @example(twin_case(0, 1.0, 9, 0.0, 3, "seam"), None)
    # the own state's ceiling at one site is the threshold
    @example(twin_case(1, 1.3, 7, 0.3, 1, "ceiling"), 1)
    def test_labels_equal_unpruned(self, case, block):
        twin, x, plant, rng = case
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                # chunks of one row or a few: chunk edges change no label
                mp.setattr(lattice, "_MATCH_BLOCK", block)
            if plant in ("threshold", "ceiling"):
                # a site's computed distance to a state, or the ceiling of
                # that distance, becomes the threshold
                bound = ref.ceiling_distances if plant == "ceiling" else ref.unpruned_distances
                dists = bound(x, twin)
                set_threshold(mp, twin, float(dists.reshape(-1)[rng.integers(dists.size)]))
            elif plant == "seam":
                # half again the largest distance of a site to its nearest
                # state: every site is labelled, and the seam sites, at
                # about the same distance from both halves' states, have
                # both within the threshold
                nearest = ref.unpruned_distances(x, twin).min(axis=-1)
                set_threshold(mp, twin, 1.5 * float(nearest.max()))
            labels = classify_lattice(x, twin).labels
            assert labels.tobytes() == ref.unpruned_labels(x, twin).tobytes()

    def counted_labels(self, monkeypatch, x, twin):
        """The labels of x and the site counts of the exact match calls."""
        calls = []

        def counted(patches, gpatches):
            calls.append(len(patches))
            return _rotation_match(patches, gpatches)

        monkeypatch.setattr(lattice, "_rotation_match", counted)
        return classify_lattice(x, twin).labels, calls

    def test_only_the_own_state_is_matched(self, monkeypatch):
        # the own state's ceiling settles every site of a twin ground
        # state, so no site reaches the exact match
        twin = synthetic_twin_system()
        x = ground_state_deformation(twin, 2, (13, 13), m=12, rotation=rotation_2d(2.2))
        labels, calls = self.counted_labels(monkeypatch, x, twin)
        assert calls == []
        assert labels.tobytes() == ref.unpruned_labels(x, twin).tobytes()
        assert set(np.unique(labels)) == {BOUNDARY_SITE, 2}

    def test_site_near_threshold_is_matched(self, monkeypatch):
        # one value moved by the threshold: the sites around it have a
        # ceiling above the threshold and a floor below it, so the exact
        # match decides them, and some land just within the threshold
        twin = synthetic_twin_system()
        x = ground_state_deformation(twin, 2, (13, 13), m=12, rotation=rotation_2d(2.2))
        values = x.values.copy()
        values[6, 6, 0] += twin.separation_d / 100.0
        x = LatticeDeformation(values, 12)
        labels, calls = self.counted_labels(monkeypatch, x, twin)
        assert calls and all(calls)
        assert labels.tobytes() == ref.unpruned_labels(x, twin).tobytes()
        dists = ref.unpruned_distances(x, twin)[..., 2]
        ceilings = ref.ceiling_distances(x, twin)[..., 2]
        threshold = twin.separation_d / 100.0
        matched = (ceilings > threshold) & (dists <= threshold)
        assert matched.any() and np.all(labels[: dists.shape[0], : dists.shape[1]][matched] == 2)
        assert set(np.unique(labels)) == {BOUNDARY_SITE, BAD_SITE, 2}


class TestWindowViews:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["raw", "remapped", "twin"]),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 1000]),
    )
    def test_energies_and_averages_match_gathers(self, kind, size, seed, block):
        rng = np.random.default_rng(seed)
        if kind == "twin":
            system = synthetic_twin_system()
            shape = (size + 1, int(rng.integers(1, 14)), 2)
        else:
            system = antiferro_system(kind)
            size *= 8
            shape = (size + 1, 1)
        x = LatticeDeformation(rng.normal(size=shape), m=max(size, 1))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                # the twin density in blocks of one window or a few
                mp.setattr(lattice, "_MATCH_BLOCK", block)
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


class TestGroundStateBox:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_box_equals_gradient_at(self, n, data):
        period = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        # sides of 0 give empty boxes
        shape = tuple(data.draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        g = GroundState(np.random.default_rng(seed).normal(size=period + (n, n)))
        box = g.box(shape)
        old = g.gradient_at(np.moveaxis(np.indices(shape), 0, -1))
        assert box.shape == old.shape == shape + (n, n)
        assert box.dtype == old.dtype and box.tobytes() == old.tobytes()
        # a fresh array: writing into the box leaves the pattern alone
        assert not np.shares_memory(box, g.gradients)


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


class TestVerifyH2Domain:
    def test_planar_system_rejected(self):
        with pytest.raises(LatticeError, match="one-dimensional systems with a finite alphabet"):
            verify_h2(synthetic_twin_system())


class TestAntiferroTable:
    @pytest.mark.parametrize("variant", ["raw", "remapped"])
    def test_matches_hand_written_variants(self, variant):
        new, old = antiferro_system(variant), ref.hand_written_antiferro_system(variant)
        assert new.alphabet.tobytes() == old.alphabet.tobytes()
        assert (new.p, new.name) == (old.p, old.name)
        assert new.window.tobytes() == old.window.tobytes()
        assert [g.name for g in new.ground_states] == [g.name for g in old.ground_states]
        for a, b in zip(new.ground_states, old.ground_states):
            assert a.gradients.shape == b.gradients.shape
            assert a.gradients.tobytes() == b.gradients.tobytes()
        # every window of the enlarged box, each read as its sliding pairs
        t_len = len(new.window_tilde)
        windows = np.array(list(itertools.product(new.alphabet, repeat=t_len)))
        assert windows.shape == (3**6, 6)
        pairs = windows[:, np.arange(t_len - 1)[:, None] + [0, 1], None, None]
        assert new.density(pairs).tobytes() == old.density(pairs).tobytes()

    def test_unknown_variant_rejected(self):
        with pytest.raises(LatticeError, match="unknown antiferro variant 'flat'"):
            antiferro_system("flat")


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
