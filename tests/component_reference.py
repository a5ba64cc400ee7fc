"""The union-find component labelling that wellspin.numerics.label_components
replaced, with the loops that drove it.

Kept as a test oracle, with the per-axis slicing written once in
_halves: the kernel must return the same labels and the same member
arrays, byte for byte, in the same order. The slicing versions of
LatticeClassification.label_perimeter and adjacency_violations are kept
here for the same reason, and so are the two inline rotation fits that
wellspin.wells.fit_rotation replaced: extract_partition's, which it must
match byte for byte, and lattice_partition_diagnostics'.
"""

import math

import numpy as np

from wellspin.wells import polar_rotation


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return ri
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]
        return ri


def mesh_components(mesh, labs):
    """Facet-connected components of each label >= 0, as extract_partition
    grouped them: [(label, cells)]."""
    uf = UnionFind(mesh.n_cells)
    a = mesh.facet_cells[mesh.interior, 0]
    b = mesh.facet_cells[mesh.interior, 1]
    same = (labs[a] == labs[b]) & (labs[a] >= 0)
    for i, j in zip(a[same], b[same]):
        uf.union(int(i), int(j))

    groups = {}
    for cell in range(mesh.n_cells):
        if labs[cell] < 0:
            continue
        groups.setdefault(uf.find(cell), []).append(cell)
    out = []
    for cells in groups.values():
        cells = np.array(cells, dtype=np.int64)
        out.append((int(labs[cells[0]]), cells))
    return out


def _halves(labs, axis):
    a = labs[tuple(slice(0, -1) if ax == axis else slice(None) for ax in range(labs.ndim))]
    b = labs[tuple(slice(1, None) if ax == axis else slice(None) for ax in range(labs.ndim))]
    return a, b


def lattice_components(labs):
    """Axis-connected components of each label >= 0 of a label grid."""
    shape = labs.shape
    flat = labs.reshape(-1)
    uf = UnionFind(flat.size)
    idx = np.arange(flat.size).reshape(shape)
    for axis in range(labs.ndim):
        a, b = _halves(idx, axis)
        same = (flat[a.reshape(-1)] == flat[b.reshape(-1)]) & (flat[a.reshape(-1)] >= 0)
        for i, j in zip(a.reshape(-1)[same], b.reshape(-1)[same]):
            uf.union(int(i), int(j))
    comps = {}
    for i in range(flat.size):
        if flat[i] < 0:
            continue
        comps.setdefault(uf.find(i), []).append(i)
    return [
        (int(flat[members[0]]), np.array(members, dtype=np.int64))
        for members in comps.values()
    ]


def label_perimeter_count(labs, label):
    """Axis-adjacent site pairs with exactly one side labeled `label`."""
    count = 0
    for axis in range(labs.ndim):
        a, b = _halves(labs, axis)
        count += int(((a == label) ^ (b == label)).sum())
    return count


def adjacency_violations(labs):
    out = []
    for axis in range(labs.ndim):
        a, b = _halves(labs, axis)
        bad = (a >= 0) & (b >= 0) & (a != b)
        for idx in np.argwhere(bad):
            out.append((axis, tuple(idx), int(a[tuple(idx)]), int(b[tuple(idx)])))
    return out


def partition_mean(values, vols, well):
    """The volume-weighted mean of F U^-1 that partition_fit takes the polar
    rotation of."""
    local = values @ np.linalg.inv(well)
    return (local * vols[:, None, None]).sum(axis=0) / float(vols.sum())


def partition_fit(values, vols, well):
    """extract_partition's inline fit of one component: (rotation,
    residual), or (None, None) for a mean of nonpositive determinant. The
    residual's weighted sum is numpy's, as fit_rotation's is; the inline
    fit took a BLAS dot, which may start threads on long vectors."""
    mean = partition_mean(values, vols, well)
    if np.linalg.det(mean) <= 0:
        return None, None
    rot = polar_rotation(mean)
    res2 = (((values - rot @ well) ** 2).sum(axis=(1, 2)) * vols).sum()
    return rot, float(math.sqrt(max(res2, 0.0)))


def lattice_fit(local, weight, well):
    """lattice_partition_diagnostics' inline fit of one component with
    site weight m^-n: (rotation, residual), or (None, None) for a singular
    mean."""
    mean = (local @ np.linalg.inv(well)).mean(axis=0)
    if abs(np.linalg.det(mean)) < 1e-12:
        return None, None
    rot = polar_rotation(mean)
    res2 = ((local - rot @ well) ** 2).sum() * weight
    return rot, float(math.sqrt(max(res2, 0.0)))
