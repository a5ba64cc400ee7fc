"""The per-site lattice code that wellspin.lattice replaced.

Kept as a test oracle. _rotation_grid_match is the 1024-angle scan with a
golden-section polish that classify_lattice and verify_h2 ran for every
two-dimensional site: the exact match must never lie above it (beyond
round-off). classify_labels is the old classify_lattice with its index
stacks: one-dimensional labels must agree byte for byte, and so must
two-dimensional ones away from the threshold. alternating_chain is the
per-site loop builder: the array builder must give the same gradients,
byte for byte, whenever the interface positions are distinct and in range.
hamiltonian_per_site and averaged_gradients are the index-gather window
stacks of evaluate_hamiltonian and averaged_gradient_field: the sliding
window views must give the same bytes.
"""

import itertools
import math

import numpy as np

from wellspin.lattice import BAD_SITE, BOUNDARY_SITE, LatticeDeformation
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
