"""The rigidity-family loop that the per-scale stages of the harness
replaced, kept as a test oracle.

family_rows draws each family member once, from one substream, and
measures it at every scale before drawing the next (members outside,
scales inside). Its rows come out in (field_id, m) order, and the largest
ratio at each m starts from 0. The stages redraw the family at each scale
and sort the rows afterwards; they must give the same rows in the same
order and the same largest ratios.
"""

from wellspin.harness import substream
from wellspin.mesh import build_kuhn_mesh
from wellspin.rigidity import field_from_blocks, random_block_values, rigidity_ratio


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
