"""The per-site lattice code that wellspin.lattice replaced.

Kept as a test oracle. _rotation_grid_match is the 1024-angle scan with a
golden-section polish that classify_lattice and verify_h2 ran for every
two-dimensional site: the exact match must never lie above it (beyond
round-off). classify_labels is the old classify_lattice with its index
stacks: one-dimensional labels must agree byte for byte, and so must
two-dimensional ones away from the threshold. alternating_chain is the
per-site loop builder: antiferro_chain must give the same gradients,
byte for byte, whenever the interface positions are distinct and in range.
hamiltonian_per_site and averaged_gradients are the index-gather window
stacks of evaluate_hamiltonian and averaged_gradient_field: the sliding
window views must give the same bytes. expanded_rotation_match is the
exact match with its candidate angles taken from the unturned expansion,
whose crossings drown in rounding near a match: the turned frame must
never lie above it (beyond round-off). unpruned_labels is the 2-D
classify_lattice that matched every site against every ground state: the
bound-pruned labels must agree byte for byte. deformation_from_gradient_function
is the row-by-row integrator that called its gradient function once per
row and again on every site: ground_state_deformation must give the same
values, byte for byte.
"""

import itertools
import math

import numpy as np

from wellspin.lattice import (
    BAD_SITE,
    BOUNDARY_SITE,
    LatticeDeformation,
    LatticeError,
    _rotation_match,
    _sinusoids,
    _window,
)
from wellspin.numerics import golden_min
from wellspin.wells import rotation_2d


def _rotation_grid_match(patch, ground_patch, grid=1024):
    """min over rotations of the sup-norm patch distance, for n = 2.

    Scans a uniform angle grid and polishes the best angle by
    golden-section to about 1e-6.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    diffs = patch[None] - rotation_2d(thetas)[:, None] @ ground_patch[None]
    vals = np.linalg.norm(diffs, axis=(-2, -1)).max(axis=1)
    k = int(np.argmin(vals))
    step = 2.0 * np.pi / grid

    def f(theta):
        cc, ss = math.cos(theta), math.sin(theta)
        rot = np.array([[cc, -ss], [ss, cc]])
        return float(
            np.linalg.norm(patch - rot @ ground_patch, axis=(-2, -1)).max()
        )

    _, best = golden_min(f, thetas[k] - step, thetas[k] + step, tol=1e-6)
    return min(best, float(vals[k]))


def classify_labels(x, system, threshold=None):
    """The labels of the old classify_lattice."""
    if threshold is None:
        threshold = system.separation_d / 100.0
    grad = x.gradient()
    gshape = np.array(grad.shape[: system.dim])
    offsets = system.q0_offsets
    labels = np.full(tuple(gshape), BOUNDARY_SITE, dtype=np.int64)
    hi = gshape - offsets.max(axis=0)
    if np.all(hi > 0):
        base_ranges = [np.arange(0, hi[a]) for a in range(system.dim)]
        base = np.stack(np.meshgrid(*base_ranges, indexing="ij"), axis=-1)
        base_flat = base.reshape(-1, system.dim)
        patches = np.stack(
            [grad[tuple((base_flat + off).T)] for off in offsets], axis=1
        )  # (sites, Q, n, n)
        dists = np.empty((len(base_flat), len(system.ground_states)))
        for l, g in enumerate(system.ground_states):
            gpatches = np.stack(
                [g.gradient_at(base_flat + off) for off in offsets], axis=1
            )
            if system.dim == 1:
                diffs = np.abs(patches[..., 0, 0] - gpatches[..., 0, 0])
                dists[:, l] = diffs.max(axis=-1)
            else:
                for i in range(len(base_flat)):
                    dists[i, l] = _rotation_grid_match(patches[i], gpatches[i])
        nearest = np.argmin(dists, axis=1)
        best = dists[np.arange(len(base_flat)), nearest]
        site_labels = np.where(best <= threshold, nearest, BAD_SITE)
        labels[tuple(base_flat.T)] = site_labels
    return labels


def alternating_chain(system, length, interfaces=()):
    """Gradient chain in the first ground state with optional phase slips.

    interfaces lists fractional positions in (0, 1); at each one a single
    gradient is repeated, which flips the parity (an antiphase boundary)
    and costs one defect window of energy.
    """
    g0 = system.ground_states[0]
    positions = sorted(int(round(f * length)) for f in interfaces)
    grads = []
    parity = 0
    next_pos = list(positions)
    for i in range(length):
        if next_pos and i == next_pos[0]:
            grads.append(grads[-1] if grads else float(g0.gradient_at([0])[0, 0]))
            next_pos.pop(0)
            parity ^= 1
            continue
        grads.append(float(g0.gradient_at([i + parity])[0, 0]))
    return LatticeDeformation.from_gradient_sequence(grads, m=1)


def hamiltonian_per_site(x, system):
    """The per-window energies of the old evaluate_hamiltonian, or None
    when no window fits."""
    grad = x.gradient()
    gshape = grad.shape[: system.dim]
    offsets = system.window
    lo = -offsets.min(axis=0)
    hi = np.array(gshape) - offsets.max(axis=0)
    if np.any(hi <= lo):
        return None
    base_ranges = [np.arange(lo[a], hi[a]) for a in range(system.dim)]
    base = np.stack(np.meshgrid(*base_ranges, indexing="ij"), axis=-1)
    base_flat = base.reshape(-1, system.dim)
    patches = np.stack(
        [grad[tuple((base_flat + off).T)] for off in offsets], axis=1
    )  # (n_windows, W, n, n)
    energies = np.asarray(system.density(patches), dtype=float)
    return float(x.m) ** (-system.dim) * energies


def averaged_gradients(x, system, l):
    """The values of the old averaged_gradient_field."""
    g = system.ground_states[l]
    grad = x.gradient()
    gshape = np.array(grad.shape[: system.dim])
    period = np.asarray(g.period, int)
    out_shape = gshape - period + 1
    if np.any(out_shape <= 0):
        return np.zeros(tuple(np.maximum(out_shape, 0)) + grad.shape[-2:])
    offsets = np.array(list(itertools.product(*[range(p) for p in period])), int)
    base = np.stack(
        np.meshgrid(*[np.arange(s) for s in out_shape], indexing="ij"), axis=-1
    )
    flat = base.reshape(-1, system.dim)
    acc = np.zeros((len(flat),) + grad.shape[-2:])
    for off in offsets:
        acc += grad[tuple((flat + off).T)]
    acc /= len(offsets)
    return acc.reshape(tuple(out_shape) + grad.shape[-2:])


def expanded_rotation_match(patches, gpatches):
    """_rotation_match for (S, Q, 2, 2) arrays, with the candidates from
    |P_k - R(t) G_k|^2 = 2 (half_k - alpha_k cos t - beta_k sin t): the
    minimisers atan2(beta_k, alpha_k) and the crossings
    cos t da + sin t db = dh."""
    p, g = np.asarray(patches, float), np.asarray(gpatches, float)
    q = p.shape[-3]
    j, k = np.triu_indices(q, 1)
    alpha, beta, half = _sinusoids(p, g)
    da, db, dh = alpha[:, j] - alpha[:, k], beta[:, j] - beta[:, k], half[:, j] - half[:, k]
    r = np.hypot(da, db)
    crosses = (r > 0.0) & (np.abs(dh) <= r)
    phi = np.arctan2(db, da)
    spread = np.arccos(np.clip(dh / np.where(crosses, r, 1.0), -1.0, 1.0))
    thetas = np.concatenate([np.arctan2(beta, alpha), phi - spread, phi + spread], axis=1)
    live = np.concatenate([np.ones(alpha.shape, bool), crosses, crosses], axis=1)
    turned = np.stack([-g[..., 1, :], g[..., 0, :]], axis=-2)
    resid = np.cos(thetas)[..., None, None] * g.reshape(-1, 1, q, 4)
    resid += np.sin(thetas)[..., None, None] * turned.reshape(-1, 1, q, 4)
    np.subtract(p.reshape(-1, 1, q, 4), resid, out=resid)
    worst2 = np.einsum("...i,...i->...", resid, resid).max(axis=-1)
    return np.sqrt(np.where(live, worst2, np.inf).min(axis=1))


def _full_window_box(x, system):
    gshape = x.gradient().shape[: system.dim]
    return tuple(int(h) for h in np.array(gshape) - system.q0_offsets.max(axis=0))


def unpruned_distances(x, system):
    """The exact match of every full-window site against every ground
    state, shape (sites..., states), for a two-dimensional system whose
    window fits somewhere."""
    grad = x.gradient()
    hi = _full_window_box(x, system)
    sites = np.moveaxis(np.indices(grad.shape[:2]), 0, -1)
    offsets = system.q0_offsets
    patches = np.stack([_window(grad, off, hi) for off in offsets], axis=-3)
    dists = []
    for g in system.ground_states:
        pattern = g.gradient_at(sites)
        gpatches = np.stack([_window(pattern, off, hi) for off in offsets], axis=-3)
        dists.append(_rotation_match(patches, gpatches))
    return np.stack(dists, axis=-1)


@np.errstate(invalid="ignore", over="ignore")
def unpruned_labels(x, system):
    """The labels of the two-dimensional classify_lattice that matched
    every site against every ground state."""
    threshold = system.separation_d / 100.0
    labels = np.full(x.gradient().shape[:2], BOUNDARY_SITE, dtype=np.int64)
    hi = _full_window_box(x, system)
    if min(hi) > 0:
        nearest = labels[: hi[0], : hi[1]]
        nearest[...] = 0
        best = np.full(hi, np.inf)
        for l, dist in enumerate(np.moveaxis(unpruned_distances(x, system), -1, 0)):
            nearest[dist < best] = l
            np.minimum(best, dist, out=best)
        nearest[~(best <= threshold)] = BAD_SITE
    return labels


def deformation_from_gradient_function(fn, value_shape, m):
    """Integrate a gradient pattern into a deformation on a value box.

    fn maps integer sites (..., n) to gradient matrices (..., n, n) and
    must be integrable (column r at i consistent across paths); the result
    is checked against fn and rejected otherwise.
    """
    value_shape = tuple(value_shape)
    n = len(value_shape)
    values = np.zeros(value_shape + (n,))
    for axis in range(n):
        lead = value_shape[:axis]
        lead_sites = np.array(list(itertools.product(*[range(s) for s in lead])), int)
        count = value_shape[axis] - 1
        if count <= 0:
            continue
        for k in range(count):
            sites = np.zeros((len(lead_sites), n), dtype=int)
            if axis > 0:
                sites[:, :axis] = lead_sites
            sites[:, axis] = k
            cols = fn(sites)[..., :, axis]
            src = tuple([lead_sites[:, a] for a in range(axis)] + [k])
            dst = tuple([lead_sites[:, a] for a in range(axis)] + [k + 1])
            values[dst] = values[src] + cols
    x = LatticeDeformation(values, m)
    grads = x.gradient()
    sites = np.stack(
        np.meshgrid(*[np.arange(s - 1) for s in value_shape], indexing="ij"),
        axis=-1,
    )
    expected = fn(sites)
    if not np.allclose(grads, expected, atol=1e-9):
        raise LatticeError("gradient pattern is not integrable")
    return x
