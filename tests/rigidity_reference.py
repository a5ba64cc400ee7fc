"""The rigidity-family loop that the per-scale stages of the harness
replaced, and the level-grid weak norm that rigidity.weak_norm replaced,
kept as test oracles next to a brute-force weak norm.

family_rows draws each family member once, from one substream, and
measures it at every scale before drawing the next (members outside,
scales inside). Its rows come out in (field_id, m) order, and the largest
ratio at each m starts from 0. The stages redraw the family at each scale
and sort the rows afterwards; they must give the same rows in the same
order and the same largest ratios.

grid_weak_norm evaluates t * |{|A| > t}|^((n-1)/n) on a geometric t-grid,
so it can only fall short of the supremum; brute_weak_norm takes the
supremum over each distinct magnitude, one level set at a time.

block_closed_form is rigidity_ratio of a family member in closed form,
on the unrotated Kuhn mesh of any m that the block count B divides. Then
every block holds whole cells, of total volume B^-2, and every facet
between two blocks lies on a block edge of length 1/B, while the facets
inside a block carry no jump. So the mean is B^-2 sum A_b, the two
integrals are B^-2 sums over the blocks, and the curl mass is B^-1 times
the sum of |(A_b - A_b') tau| over adjacent blocks, tau along the edge
they share: none of it depends on m.
"""

import numpy as np

from wellspin.harness import substream
from wellspin.mesh import build_kuhn_mesh
from wellspin.rigidity import field_from_blocks, random_block_values, rigidity_ratio
from wellspin.wells import dist_to_son_batch, polar_rotation


def family_rows(seed, m_list, family_size, block_grid, p):
    """(rigidity.csv rows, {m: largest ratio at m})."""
    rng = substream(seed, "rigidity-family")
    meshes = {m: build_kuhn_mesh(2, m) for m in m_list}
    rows = []
    max_ratio = {m: 0.0 for m in m_list}
    for fid in range(family_size):
        blocks_values = random_block_values(rng, block_grid)
        for m in m_list:
            rep = rigidity_ratio(field_from_blocks(meshes[m], blocks_values), p=p)
            rows.append((fid, m, p, rep.lhs, rep.rhs, rep.ratio))
            max_ratio[m] = max(max_ratio[m], rep.ratio)
    return rows, max_ratio


def grid_weak_norm(magnitudes, volumes, dim, levels):
    """sup over t of t * |{|A| > t}|^((n-1)/n) on a logarithmic t-grid
    spanning [1e-6, max magnitude]."""
    magnitudes = np.asarray(magnitudes, float)
    top = float(magnitudes.max(initial=0.0))
    if top <= 0.0:
        return 0.0
    lo = min(1e-6, top / 10.0)
    ts = np.geomspace(lo, top, levels)
    exponent = (dim - 1) / dim
    best = 0.0
    for t in ts:
        vol = float(volumes[magnitudes > t].sum())
        best = max(best, t * vol**exponent)
    return best


def brute_weak_norm(magnitudes, volumes, dim):
    """The supremum as the largest a * |{|A| >= a}|^((n-1)/n) over the
    distinct magnitudes a, the limits of t * |{|A| > t}|^((n-1)/n) as t
    rises to each: O(N^2)."""
    magnitudes, volumes = np.asarray(magnitudes, float), np.asarray(volumes, float)
    best = 0.0
    for a in np.unique(magnitudes):
        vol = float(volumes[magnitudes >= a].sum())
        best = max(best, float(a) * vol ** ((dim - 1) / dim))
    return best


def block_closed_form(block_values, p, rotation=None):
    """(lhs, rhs, rotation) of rigidity_ratio for the (B, B, 2, 2) block
    values on the unrotated Kuhn mesh, at any m that B divides; lhs is
    taken at the given rotation in place of the fitted one when given."""
    b = block_values.shape[0]
    flat = block_values.reshape(-1, 2, 2)
    rot = polar_rotation(flat.sum(axis=0) / b**2) if rotation is None else rotation
    lhs = float((np.linalg.norm(flat - rot, axis=(1, 2)) ** p).sum()) / b**2
    dist = float((dist_to_son_batch(flat) ** p).sum()) / b**2
    # blocks adjacent along x share an edge along e_y, those along y one
    # along e_x; the tangential jump is the column of the jump along tau
    across_x = np.linalg.norm(np.diff(block_values, axis=0)[..., :, 1], axis=-1)
    across_y = np.linalg.norm(np.diff(block_values, axis=1)[..., :, 0], axis=-1)
    curl = float(across_x.sum() + across_y.sum()) / b
    return lhs, dist + curl**2, rot
