"""Finite-range lattice Hamiltonians with periodic ground states.

Deformations map lattice sites to vectors; the Hamiltonian is a
translation-invariant window sum over a finite interaction range and,
because of translation invariance, depends only on the forward-difference
gradient. Ground states are given by periodic gradient patterns; shifted
variants of one pattern count as distinct ground states, which is how
phase/antiphase structure is represented. The rescaled energy weights
every window by m^-n, and classification happens per coarse site by
matching the local gradient patch against rotated ground patterns.

In two dimensions the match is exact: the distance of a patch P to the
rotated ground patch G is min over the angle of max over the entries k of
|P_k - R G_k|. Each squared entry residual is a sinusoid in the angle,
so the minimum of their maximum lies at some entry's own minimiser or
where two entries cross; _rotation_match evaluates those closed-form
candidate angles for all sites at once, in chunks of bounded size.

classify_lattice runs that match only where a ground state can still be
within the threshold. Each entry's own minimum over rotations is a lower
bound on the squared minimax, and so is the largest of them, which costs
O(Q) per site and state. A state whose bound exceeds threshold^2 by more
than a rounding margin has a computed distance above the threshold too,
so it cannot be the first nearest state of a site within the threshold,
and its distance is set to inf unmatched; the labels are the same as with
every state matched. On a twin ground state only the site's own state is
matched. NaN bounds compare false and are matched. verify_h2 needs the
exact kappa of every window and keeps the unpruned match.

The one-dimensional anti-ferromagnetic pair Hamiltonian is built in, in
its raw form (gradients in {0, +-1}, non-invertible averages) and in a
remapped form on the alphabet {1, 3/2, 2} whose averaged gradients are
invertible. A synthetic two-dimensional system with oscillating ground
states exercises the rotation-search paths.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import label_components
from .wells import _procrustes_rotation_batch, dist_to_single_well_batch, polar_rotation

BAD_SITE = -1
BOUNDARY_SITE = -2


class LatticeError(ValueError):
    pass


class EnergyBoundError(LatticeError):
    """A sweep deformation exceeded the configured surface-energy bound."""

    def __init__(self, m, total, allowed):
        self.m = m
        self.total = total
        self.allowed = allowed
        super().__init__(
            f"H_m = {total:.6g} exceeds bound {allowed:.6g} at m = {m}"
        )


@dataclass
class GroundState:
    """A periodic gradient pattern.

    gradients has shape period + (n, n); the pattern value at an absolute
    site is read off modulo the period in every axis.
    """

    gradients: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.gradients = np.asarray(self.gradients, dtype=float)
        n = self.gradients.shape[-1]
        self.dim = n
        self.period = self.gradients.shape[:-2]
        if len(self.period) != n:
            raise LatticeError("pattern must have one period axis per dimension")
        self.averaged = self.gradients.reshape(-1, n, n).mean(axis=0)

    def gradient_at(self, sites):
        """Pattern values at absolute integer sites, shape (..., n, n)."""
        sites = np.asarray(sites, dtype=int)
        idx = tuple(
            np.mod(sites[..., a], self.period[a]) for a in range(self.dim)
        )
        return self.gradients[idx]

    @property
    def period_length(self):
        return max(self.period)


class LatticeSystem:
    """Interaction window, density and ground states of one Hamiltonian."""

    def __init__(
        self,
        dim,
        window,
        density,
        ground_states,
        p=2.0,
        alphabet=None,
        name="",
    ):
        self.dim = dim
        self.window = np.asarray(sorted(map(tuple, window)), dtype=int)
        self.density = density
        self.ground_states = list(ground_states)
        self.p = float(p)
        self.alphabet = None if alphabet is None else np.asarray(alphabet, float)
        self.name = name
        if not self.ground_states:
            raise LatticeError("need at least one ground state")
        self.L0 = max(g.period_length for g in self.ground_states)
        # enlarged comparison box: smallest box holding the window and twice
        # the ground period box, plus a one-site margin to contain it strictly
        hi = int(max(self.window.max(), 2 * self.L0)) + 1
        lo = int(min(self.window.min(), 0))
        self.window_tilde = np.array(
            list(itertools.product(*[range(lo, hi + 1)] * dim)), dtype=int
        )
        self.q0_offsets = np.array(
            list(itertools.product(*[range(self.L0 + 1)] * dim)), dtype=int
        )
        self.separation_d = self._separation()

    def _separation(self):
        """min over ground-state pairs of the largest well distance between
        their values over the q0 box."""
        if len(self.ground_states) == 1:
            return math.inf
        values = [g.gradient_at(self.q0_offsets) for g in self.ground_states]
        best = math.inf
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                pa, pb = values[a], values[b]
                if self.dim == 1:
                    d = np.abs(pa[:, 0, 0] - pb[:, 0, 0])
                else:
                    d = dist_to_single_well_batch(pa, pb)
                best = min(best, float(d.max()))
        return best


class LatticeDeformation:
    """Site values on an integer box with a cached forward-difference
    gradient: column r of the gradient at site i is X[i+e_r] - X[i]."""

    def __init__(self, values, m):
        values = np.asarray(values, dtype=float)
        if values.ndim < 2:
            raise LatticeError("values must have shape sites x dim")
        self.dim = values.shape[-1]
        if values.ndim != self.dim + 1:
            raise LatticeError("values must have one axis per dimension plus one")
        self.values = values
        self.m = int(m)
        self._gradient = None

    @classmethod
    def from_gradient_sequence(cls, gradients, m):
        """One-dimensional chain from its gradient sequence (prefix sums)."""
        g = np.asarray(gradients, dtype=float).reshape(-1, 1, 1)
        return cls(_integrate(g, (len(g) + 1,)), m)

    def gradient(self):
        if self._gradient is None:
            n = self.dim
            shape = tuple(s - 1 for s in self.values.shape[:-1])
            grad = np.empty(shape + (n, n))
            inner = tuple(slice(0, s) for s in shape)
            for r in range(n):
                shifted = tuple(
                    slice(1, s + 1) if a == r else slice(0, s)
                    for a, s in enumerate(shape)
                )
                grad[..., :, r] = self.values[shifted] - self.values[inner]
            self._gradient = grad
        return self._gradient


def _integrate(grads, value_shape):
    """Site values on the box value_shape, zero at the origin, from the
    gradients grads at its sites. Column r is read only where coordinate r
    is below its last, so a chain passes just its value_shape[0] - 1
    gradients.

    Every site is reached from the origin along axis 0, then axis 1, and so
    on: the site after i along axis r, with every later coordinate 0, is
    the value at i plus column r of the gradient at i. The values grow one
    axis at a time, each by one cumulative sum, which adds in that order.
    """
    n = len(value_shape)
    values = np.zeros((1,) * n + (n,))
    for r, s in enumerate(value_shape):
        steps = grads[(slice(None),) * r + (slice(0, s - 1),) + (slice(0, 1),) * (n - r - 1)]
        values = np.cumsum(np.concatenate([values, steps[..., :, r]], axis=r), axis=r)
    return values


def ground_state_deformation(system, l, value_shape, m, rotation=None):
    """Materialize a (rotated) ground state on a value box.

    The turned pattern is read once on every site of the box and
    integrated; a pattern that is not integrable (column r at a site
    differs between paths) is rejected.
    """
    g = system.ground_states[l]
    rot = np.eye(system.dim) if rotation is None else np.asarray(rotation, float)
    grads = rot @ g.gradient_at(np.moveaxis(np.indices(value_shape), 0, -1))
    x = LatticeDeformation(_integrate(grads, value_shape), m)
    box = tuple(slice(0, s - 1) for s in value_shape)
    if not np.allclose(x.gradient(), grads[box], atol=1e-9):
        raise LatticeError("gradient pattern is not integrable")
    return x


def _window(values, start, shape):
    """The view values[start + j] for j in the index box shape: one window
    position of a sliding window, as a basic slice without a copy."""
    return values[tuple(slice(o, o + h) for o, h in zip(start, shape))]


@dataclass
class HamiltonianReport:
    total: float
    per_site: np.ndarray
    empty: bool = False


def evaluate_hamiltonian(x, system):
    """Rescaled window sum: m^-n * density over every window that fits.

    Windows touching the boundary are excluded by the containment rule;
    if no window fits at all the report carries total 0 and a warning
    flag. The total is defined as the sum of the per-site contributions.
    """
    grad = x.gradient()
    gshape = grad.shape[: system.dim]
    offsets = system.window
    lo = -offsets.min(axis=0)
    hi = np.array(gshape) - offsets.max(axis=0)
    if np.any(hi <= lo):
        return HamiltonianReport(
            total=0.0,
            per_site=np.zeros(0),
            empty=True,
        )
    # (windows..., W, n, n), windows in C order of their base site
    patches = np.stack([_window(grad, lo + off, hi - lo) for off in offsets], axis=system.dim)
    patches = patches.reshape((-1,) + patches.shape[system.dim :])
    energies = np.asarray(system.density(patches), dtype=float)
    weight = float(x.m) ** (-system.dim)
    per_site = weight * energies
    return HamiltonianReport(
        total=float(per_site.sum()),
        per_site=per_site,
        empty=False,
    )


@dataclass
class LatticeClassification:
    labels: np.ndarray
    threshold: float
    m: int
    dim: int

    @cached_property
    def _counts(self):
        """Sites per label, for the labels BOUNDARY_SITE, BAD_SITE, 0, 1, ..."""
        return np.bincount(self.labels.reshape(-1) - BOUNDARY_SITE)

    def count(self, label):
        k = label - BOUNDARY_SITE
        return int(self._counts[k]) if 0 <= k < len(self._counts) else 0

    def volume(self, label):
        return self.count(label) * float(self.m) ** (-self.dim)

    @property
    def well_labels(self):
        return np.flatnonzero(self._counts[-BOUNDARY_SITE:]).tolist()

    @cached_property
    def pairs(self):
        """The flat indices of the axis-adjacent sites (see _axis_pairs),
        built once for the perimeters, the violations and the components."""
        return _axis_pairs(self.labels.shape)

    @property
    def bad_volume(self):
        return self.volume(BAD_SITE)

    @property
    def boundary_volume(self):
        return self.volume(BOUNDARY_SITE)

    def label_perimeter(self, label):
        """Coarse interface measure of one label: axis-adjacent site pairs
        with exactly one side labeled `label`, weighted by m^-(n-1)."""
        labs = self.labels.reshape(-1)
        a, b = self.pairs
        count = int(((labs[a] == label) ^ (labs[b] == label)).sum())
        return count * float(self.m) ** (-(self.dim - 1))

    def adjacency_violations(self):
        """Pairs of directly adjacent sites carrying two different well
        labels with no BAD or boundary site in between, as
        (axis, site index, label, neighbour label)."""
        shape = self.labels.shape
        labs = self.labels.reshape(-1)
        a, b = self.pairs
        bad = (labs[a] >= 0) & (labs[b] >= 0) & (labs[a] != labs[b])
        a, b = a[bad], b[bad]
        sites = np.unravel_index(a, shape)
        axes = (np.array(np.unravel_index(b, shape)) - sites).argmax(axis=0)
        return [
            (int(axis), site, int(labs[i]), int(labs[j]))
            for axis, site, i, j in zip(axes, zip(*sites), a, b)
        ]


def _axis_pairs(shape):
    """Flat C-order indices (a, b) of the axis-adjacent sites of a grid,
    b one step past a along an axis; axis-major, C order within an axis."""
    size = math.prod(shape)
    counts = [size - size // s if s else 0 for s in shape]
    a = np.empty(sum(counts), dtype=np.int64)
    b = np.empty_like(a)
    start = 0
    for axis, (s, count) in enumerate(zip(shape, counts)):
        if not count:
            continue
        step = math.prod(shape[axis + 1 :])
        # broadcast over (index before the axis, position on it but the last, index after it)
        heads = np.arange(0, size, s * step)[:, None, None]
        along = np.arange(0, (s - 1) * step, step)[:, None]
        a[start : start + count] = (heads + along + np.arange(step)).reshape(-1)
        b[start : start + count] = a[start : start + count] + step
        start += count
    return a, b


# float64 elements in one candidate residual block of _rotation_match
_MATCH_BLOCK = 2**18
# rounding margin of the prune in classify_lattice, relative to the largest
# entry scale half_k of a site: about 4,500 ulps, far above the few ulps by
# which the bound and the exact match can each be off
_BOUND_MARGIN = 1e-12


def _sinusoids(p, g):
    """alpha_k, beta_k and half_k = (|P_k|^2 + |G_k|^2) / 2 of the entry
    residuals |P_k - R(t) G_k|^2 = 2 (half_k - alpha_k cos t - beta_k sin t),
    for p and g of shape (..., Q, 2, 2)."""
    mm = p @ np.swapaxes(g, -1, -2)
    alpha = mm[..., 0, 0] + mm[..., 1, 1]
    beta = mm[..., 1, 0] - mm[..., 0, 1]
    half = 0.5 * ((p**2).sum(axis=(-2, -1)) + (g**2).sum(axis=(-2, -1)))
    return alpha, beta, half


def _rotation_match(patches, gpatches):
    """min over rotations R of max over k of |P_k - R G_k|_F, for n = 2.

    patches and gpatches have shape (..., Q, 2, 2) and broadcast over the
    leading axes; the result has the broadcast leading shape. Each squared
    entry residual is a sinusoid in the angle, so the minimum of their
    maximum lies at some entry's own minimiser or where two entries cross.
    These candidates are found in a frame turned by a reference angle, the
    own minimiser atan2(beta_K, alpha_K) of the entry K with the largest
    |(alpha_K, beta_K)| (see _sinusoids): with H_k = R(ref) G_k,
    E_k = P_k - H_k and J the quarter turn,
        |P_k - R(ref + s) G_k|^2 = |E_k|^2 + 4 sin^2(s/2) a_k - 2 sin(s) b_k
    for a_k = <P_k, H_k> and b_k = <E_k, J H_k>. Near a match E is small,
    and so are the terms that place the candidates, which are therefore
    computed to their own relative precision; in the unturned expansion
    they would be rounding noise of the O(1) coefficients, and crossings
    within that noise of a tangency would be lost. Entry k's minimiser is
    s = atan2(b_k, a_k); entries j and k cross where u = tan(s/2) solves
    (dE + 4 da) u^2 - 4 db u + dE = 0, with d the difference j - k (no
    real root, or 0/0 when the entries agree: no crossing). Every
    candidate is evaluated with the direct residual E_k - (R(s) - I) H_k,
    not the expanded form, which cancels near zero. Sites are taken in
    chunks so that the residual block, chunk * Q^2 candidates * Q entries
    * 4 values, stays within _MATCH_BLOCK.
    """
    patches = np.asarray(patches, dtype=float)
    gpatches = np.asarray(gpatches, dtype=float)
    lead = np.broadcast_shapes(patches.shape[:-3], gpatches.shape[:-3])
    shape = lead or (1,)
    q = patches.shape[-3]
    p_all = np.broadcast_to(patches, shape + patches.shape[-3:])
    g_all = np.broadcast_to(gpatches, shape + gpatches.shape[-3:])
    j, k = np.triu_indices(q, 1)
    out = np.empty(math.prod(lead))
    chunk = max(1, _MATCH_BLOCK // (4 * q**3))
    for start in range(0, out.size, chunk):
        stop = min(start + chunk, out.size)
        idx = np.unravel_index(np.arange(start, stop), shape)
        p, g = p_all[idx], g_all[idx]  # (chunk, Q, 2, 2)
        alpha, beta, _ = _sinusoids(p, g)
        pick = (np.arange(stop - start), np.hypot(alpha, beta).argmax(axis=1))
        ref = np.arctan2(beta[pick], alpha[pick])[:, None, None]
        # entries flattened to 4 values; R(t) G = cos t G + sin t J G
        turned = np.stack([-g[..., 1, :], g[..., 0, :]], axis=-2).reshape(-1, q, 4)
        g = g.reshape(-1, q, 4)
        h = np.cos(ref) * g + np.sin(ref) * turned
        jh = np.cos(ref) * turned - np.sin(ref) * g
        e = p.reshape(-1, q, 4) - h
        ee = np.einsum("...i,...i->...", e, e)
        a = np.einsum("...i,...i->...", p.reshape(e.shape), h)
        b = np.einsum("...i,...i->...", e, jh)
        de, da, db = ee[:, j] - ee[:, k], a[:, j] - a[:, k], b[:, j] - b[:, k]
        qa, qb = de + 4.0 * da, -4.0 * db
        disc = qb**2 - 4.0 * qa * de
        # the stable pair of roots; u = +-inf is the crossing at s = pi
        root = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.concatenate([root / qa, de / root], axis=1)
        s = np.concatenate([np.arctan2(b, a), 2.0 * np.arctan(u)], axis=1)
        crosses = np.tile(disc >= 0.0, 2) & ~np.isnan(u)
        live = np.concatenate([np.ones(a.shape, bool), crosses], axis=1)
        # E - (R(s) - I) H with cos s - 1 = -2 sin^2(s/2); the residual
        # block has shape (chunk, Q^2, Q, 4)
        resid = (-2.0 * np.sin(0.5 * s) ** 2)[..., None, None] * h[:, None]
        resid += np.sin(s)[..., None, None] * jh[:, None]
        np.subtract(e[:, None], resid, out=resid)
        worst2 = np.einsum("...i,...i->...", resid, resid).max(axis=-1)  # (chunk, Q^2)
        out[start:stop] = np.sqrt(np.where(live, worst2, np.inf).min(axis=1))
    return out.reshape(lead)


# non-finite gradients give NaN or infinite distances, which label BAD
@np.errstate(invalid="ignore", over="ignore")
def classify_lattice(x, system):
    """Label every coarse site by the matching ground state within the
    comparison window, BAD when no rotation of any pattern fits, or
    BOUNDARY when the window leaves the domain.

    A site's distance to ground state l is the largest entry distance over
    the window at the site, minimised over rotations in two dimensions; a
    site takes the first nearest state when that distance is at most the
    threshold, a hundredth of the separation constant.
    """
    threshold = system.separation_d / 100.0
    grad = x.gradient()
    gshape = grad.shape[: system.dim]
    offsets = system.q0_offsets
    labels = np.full(gshape, BOUNDARY_SITE, dtype=np.int64)
    hi = tuple(int(h) for h in np.array(gshape) - offsets.max(axis=0))
    if min(hi) > 0:
        sites = np.moveaxis(np.indices(gshape), 0, -1)
        if system.dim > 1:
            patches = np.stack([_window(grad, off, hi) for off in offsets], axis=-3)
        # the labels of the sites with a full window, a view written in place
        nearest = labels[tuple(slice(0, h) for h in hi)]
        nearest[...] = 0
        best = np.full(hi, np.inf)
        for l, g in enumerate(system.ground_states):
            if system.dim == 1:
                # one entry distance per site, then its sliding max
                err = g.gradient_at(sites)[..., 0, 0]
                np.abs(np.subtract(grad[..., 0, 0], err, out=err), out=err)
                dist = np.zeros(hi)
                for off in offsets:
                    np.maximum(dist, _window(err, off, hi), out=dist)
                del err
            else:
                pattern = g.gradient_at(sites)
                gpatches = np.stack([_window(pattern, off, hi) for off in offsets], axis=-3)
                # each entry's own minimum over rotations, 2 (half_k - |(alpha_k,
                # beta_k)|), bounds the squared minimax from below; a state whose
                # bound clears threshold^2 cannot label the site, so it is not
                # matched. NaN bounds compare false and are matched
                alpha, beta, half = _sinusoids(patches, gpatches)
                floor = (half - np.hypot(alpha, beta)).max(axis=-1)
                live = ~(floor > 0.5 * threshold**2 + _BOUND_MARGIN * half.max(axis=-1))
                dist = np.full(hi, np.inf)
                dist[live] = _rotation_match(patches[live], gpatches[live])
            nearest[dist < best] = l
            np.minimum(best, dist, out=best)
        nearest[~(best <= threshold)] = BAD_SITE  # NaN distances too
    return LatticeClassification(
        labels=labels, threshold=float(threshold), m=x.m, dim=system.dim
    )


@dataclass
class H2Report:
    c: float
    p: float
    n_windows: int
    exhaustive: bool
    worst_window: object
    worst_kappa: float
    worst_energy: float
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations and self.c > 0.0


def _ground_patch_bank(system, offsets):
    """All rotation-free ground patches over the offsets, including every
    periodic shift, as one array (bank, T, n, n)."""
    bank = []
    for g in system.ground_states:
        shifts = itertools.product(*[range(p) for p in g.period])
        for s in shifts:
            bank.append(g.gradient_at(offsets + np.asarray(s, int)))
    return np.unique(np.array(bank), axis=0)


def verify_h2(system, sample_budget=500_000, rng=None, sampler=None):
    """Check the growth condition: windows off every ground-state orbit by
    kappa must carry local energy at least c * kappa^p.

    With a finite one-dimensional alphabet the check enumerates every
    gradient window over the enlarged box exhaustively (up to the budget);
    otherwise `sampler(rng, count)` must supply window gradients. Reports
    the fitted constant c and any outright violations (kappa > 0 with zero
    energy)."""
    offsets = system.window_tilde
    t_len = len(offsets)
    if system.dim != 1 and sampler is None:
        raise LatticeError("continuous systems need a window sampler")
    if system.dim == 1 and system.alphabet is not None:
        total = len(system.alphabet) ** t_len
        exhaustive = total <= sample_budget
        if exhaustive:
            windows = np.array(
                list(itertools.product(system.alphabet, repeat=t_len))
            )[..., None, None]
        else:
            rng = rng or np.random.default_rng(0)
            windows = rng.choice(system.alphabet, size=(sample_budget, t_len))[
                ..., None, None
            ]
    else:
        rng = rng or np.random.default_rng(0)
        windows = np.asarray(sampler(rng, sample_budget))
        exhaustive = False

    bank = _ground_patch_bank(system, offsets)
    if system.dim == 1:
        diffs = np.abs(
            windows[:, None, :, 0, 0] - bank[None, :, :, 0, 0]
        ).max(axis=-1)
        kappas = diffs.min(axis=1)
    else:
        kappas = _rotation_match(windows[:, None], bank[None]).min(axis=1)

    # local energy: sum of density over every interaction window inside
    inner = []
    off_arr = system.window
    lo = offsets.min(axis=0)
    hi = offsets.max(axis=0)
    index_of = {tuple(o): k for k, o in enumerate(offsets)}
    for j in itertools.product(*[range(lo[a], hi[a] + 1) for a in range(system.dim)]):
        j = np.asarray(j, int)
        cells = [tuple(j + o) for o in off_arr]
        if all(c in index_of for c in cells):
            inner.append([index_of[c] for c in cells])
    inner = np.asarray(inner, dtype=int)
    energies = np.zeros(len(windows))
    for idx in inner:
        energies += np.asarray(system.density(windows[:, idx]), dtype=float)

    live = kappas > 1e-12
    violations = [
        {
            "window": windows[i, :, 0, 0].tolist() if system.dim == 1 else windows[i].tolist(),
            "kappa": float(kappas[i]),
            "energy": float(energies[i]),
        }
        for i in np.nonzero(live & (energies <= 0.0))[0]
    ]
    if np.any(live):
        ratios = energies[live] / kappas[live] ** system.p
        worst = int(np.argmin(ratios))
        worst_idx = np.nonzero(live)[0][worst]
        c = float(ratios[worst])
    else:
        c, worst_idx = math.inf, None
    return H2Report(
        c=0.0 if violations else c,
        p=system.p,
        n_windows=len(windows),
        exhaustive=exhaustive,
        worst_window=None if worst_idx is None else windows[worst_idx],
        worst_kappa=float(kappas[worst_idx]) if worst_idx is not None else 0.0,
        worst_energy=float(energies[worst_idx]) if worst_idx is not None else 0.0,
        violations=violations,
    )


def averaged_gradient_field(x, system, l):
    """Sliding mean of the gradient over the period cell of ground state l.

    values[j] averages grad over j plus the period box, for every j whose
    box lies inside the domain; on ground-state regions the average equals
    the averaged gradient exactly."""
    period = system.ground_states[l].period
    grad = x.gradient()
    out_shape = tuple(max(s - p + 1, 0) for s, p in zip(grad.shape, period))
    acc = np.zeros(out_shape + grad.shape[-2:])
    if min(out_shape) > 0:
        for off in itertools.product(*[range(p) for p in period]):
            acc += _window(grad, off, out_shape)
        acc /= math.prod(period)
    return acc


@dataclass
class LatticeComponent:
    label: int
    sites: np.ndarray
    volume: float
    rotation: np.ndarray | None
    residual: float | None


def lattice_partition_diagnostics(deformations, system, energy_constant=None):
    """Sweep diagnostics: volumes, perimeters and components with fitted
    rotations against the averaged gradients, one record per scale m.

    deformations gives (m, LatticeDeformation) pairs, one record each in
    the order given; a generator builds each deformation only when its
    record is due, and it is freed before the next one is built. With
    energy_constant C the surface-energy bound total <= C/m is enforced
    and its violation raises EnergyBoundError (carrying the measured
    value).
    """
    records = []
    for m, x in deformations:
        records.append(_partition_record(m, x, system, energy_constant))
        del x
    return records


def _partition_record(m, x, system, energy_constant):
    """The diagnostics record of one scale."""
    ham = evaluate_hamiltonian(x, system)
    if energy_constant is not None and ham.total > energy_constant / m:
        raise EnergyBoundError(m, ham.total, energy_constant / m)
    cls = classify_lattice(x, system)
    comps = []
    for label, members in label_components(cls.labels, *cls.pairs):
        g = system.ground_states[label]
        vol = len(members) * float(m) ** (-system.dim)
        if abs(np.linalg.det(g.averaged)) < 1e-12:
            # the averaged gradient is singular (raw anti-ferromagnetic
            # chains): no rotation fit, and no averaged field is built
            comps.append(LatticeComponent(label, members, vol, None, None))
            continue
        avg = averaged_gradient_field(x, system, label)
        coords = np.array(np.unravel_index(members, cls.labels.shape)).T  # (k, n)
        avg_shape = np.array(avg.shape[: system.dim])
        inside = np.all(coords < avg_shape, axis=1)
        if not np.any(inside):
            comps.append(LatticeComponent(label, members, vol, None, None))
            continue
        local = avg[tuple(coords[inside].T)]
        uinv = np.linalg.inv(g.averaged)
        mean = (local @ uinv).mean(axis=0)
        if abs(np.linalg.det(mean)) < 1e-12:
            comps.append(LatticeComponent(label, members, vol, None, None))
            continue
        rot = polar_rotation(mean)
        res2 = ((local - rot @ g.averaged) ** 2).sum() * float(m) ** (-system.dim)
        comps.append(LatticeComponent(label, members, vol, rot, float(math.sqrt(max(res2, 0.0)))))
    return {
        "m": m,
        "energy": ham.total,
        "bad_volume": cls.bad_volume,
        "boundary_volume": cls.boundary_volume,
        "perimeters": {l: cls.label_perimeter(l) for l in cls.well_labels},
        "components": comps,
        "n_components": len(comps),
        "adjacency_violations": cls.adjacency_violations(),
    }


# -- built-in systems --------------------------------------------------


def antiferro_system(variant="raw"):
    """The one-dimensional anti-ferromagnetic pair Hamiltonian.

    raw: gradients in {0, +-1}, density g0*g1 + 1, ground states the two
    alternating spin chains; their averaged gradients vanish, so the
    invertibility condition fails (by design). remapped: the same model
    conjugated onto the alphabet {1, 3/2, 2}, density
    (2 g0 - 3)(2 g1 - 3) + 1, ground patterns (1,2)/(2,1) with invertible
    averaged gradient 3/2.
    """
    if variant == "raw":

        def density(patches):
            g = patches[..., 0, 0]
            return g[..., 0] * g[..., 1] + 1.0

        grounds = [
            GroundState(np.array([1.0, -1.0])[:, None, None], name="alternating+"),
            GroundState(np.array([-1.0, 1.0])[:, None, None], name="alternating-"),
        ]
        return LatticeSystem(
            dim=1,
            window=[(0,), (1,)],
            density=density,
            ground_states=grounds,
            p=2.0,
            alphabet=(-1.0, 0.0, 1.0),
            name="antiferro-raw",
        )
    if variant == "remapped":

        def density(patches):
            g = patches[..., 0, 0]
            return (2.0 * g[..., 0] - 3.0) * (2.0 * g[..., 1] - 3.0) + 1.0

        grounds = [
            GroundState(np.array([1.0, 2.0])[:, None, None], name="updown"),
            GroundState(np.array([2.0, 1.0])[:, None, None], name="downup"),
        ]
        return LatticeSystem(
            dim=1,
            window=[(0,), (1,)],
            density=density,
            ground_states=grounds,
            p=2.0,
            alphabet=(1.0, 1.5, 2.0),
            name="antiferro-remapped",
        )
    raise LatticeError(f"unknown antiferro variant {variant!r}")


def slip_sites(length, interfaces):
    """Sorted chain sites of fractional interface positions.

    A position f lands on site round(f * length); the sites must be
    distinct and inside [0, length), else LatticeError names the ones
    that are not.
    """
    sites = sorted(int(round(f * length)) for f in interfaces)
    repeated = sorted({a for a, b in zip(sites, sites[1:]) if a == b})
    outside = sorted({a for a in sites if not 0 <= a < length})
    if repeated or outside:
        found = [f"repeated {repeated}"] if repeated else []
        found += [f"outside {outside}"] if outside else []
        raise LatticeError(
            f"interface sites {sites} on a chain of {length} sites must be "
            f"distinct and in [0, {length}): " + ", ".join(found)
        )
    return sites


def antiferro_chain(system, m, interfaces=()):
    """Chain of m sites over the unit interval in the first ground state,
    with planted antiphase boundaries.

    interfaces lists fractional positions in (0, 1), each on its own site
    (see slip_sites); at each one the previous gradient is repeated (the
    first site repeats the pattern at site 0), which flips the parity (an
    antiphase boundary) and costs one defect window of energy.
    """
    g0 = system.ground_states[0]
    slip = np.zeros(m, dtype=bool)
    slip[slip_sites(m, interfaces)] = True
    index = np.arange(m)
    # parity: the number of slips before a site, mod 2
    parity = (np.cumsum(slip) - slip) % 2
    pattern = g0.gradient_at((index + parity)[:, None])[:, 0, 0]
    # a slip copies the last site before it that is no slip; a leading run
    # of slips copies site 0, where the parity is still 0
    last = np.maximum.accumulate(np.where(slip, -1, index))
    return LatticeDeformation.from_gradient_sequence(pattern[np.maximum(last, 0)], m=m)


def synthetic_twin_system():
    """A two-dimensional system with 2-periodic oscillating ground states.

    Each base matrix, diag(2, 1/2) or diag(1/2, 2), carries an oscillation
    +-0.3 e1 (x) e1 along the first axis; both parities of each base pattern are listed as ground
    states, so the ground set is closed under lattice shifts. The density
    is the squared Procrustes distance of the two-site window to the
    nearest rotated ground patch, which vanishes exactly on ground-state
    orbits.
    """
    w = np.zeros((2, 2))
    w[0, 0] = 0.3
    grounds = []
    for name, u in (("A", np.diag([2.0, 0.5])), ("B", np.diag([0.5, 2.0]))):
        for parity, sign in (("+", 1.0), ("-", -1.0)):
            pattern = np.stack([u + sign * w, u - sign * w])[:, None]  # (2,1,n,n)
            grounds.append(GroundState(pattern, name=f"{name}{parity}"))

    window = [(0, 0), (1, 0)]
    offsets = np.asarray(window, int)
    bank = []
    for g in grounds:
        bank.append(np.stack([g.gradient_at(o) for o in offsets]))
    bank = np.array(bank)  # (4, 2, n, n)

    def density(patches):
        patches = np.asarray(patches, float)
        lead = patches.shape[:-3]
        flat = patches.reshape((-1,) + patches.shape[-3:])
        best = np.full(len(flat), np.inf)
        for gp in bank:
            m = np.einsum("ktij,tlj->kil", flat, gp)
            rot = _procrustes_rotation_batch(m)
            resid = flat - rot[:, None] @ gp[None]
            val = (resid**2).sum(axis=(-3, -2, -1))
            best = np.minimum(best, val)
        return best.reshape(lead)

    return LatticeSystem(
        dim=2,
        window=window,
        density=density,
        ground_states=grounds,
        p=2.0,
        name="synthetic-twin-2d",
    )
