"""Cell classification by nearest well and the resulting partitions.

Cells whose gradient sits within c0/100 of some well get that well's
label; everything else is BAD. On a twin-incompatible mesh two different
well labels can never touch across a facet: the tangential continuity of
the deformation plus the incompatibility constant force a BAD cell in
between, which is what bounds the interfaces by the energy.

Both steps read one number per (cell, well): the labels take each cell's
nearest well, and the spin-lemma scan measures the neighbour of a labelled
cell against that same well. A field computes that distance table once
per well set (PWAffineField.well_distances), and the energy, the labels
and the scan all share it. The label rule (cell_labels) and the scan
(spin_hits) also take stacks of tables, so that a suite of fields can be
labelled and scanned in blocks. For n = 2 the table is built from one
contiguous plane per matrix entry and holds one contiguous plane per well
(wells.dist_table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import label_components
from .wells import fit_rotation

BAD_LABEL = -1


class SpinError(ValueError):
    """Classification preconditions not met."""


class PhaseLabeling:
    """Per-cell labels: well index >= 0 or BAD_LABEL."""

    def __init__(self, mesh, labels, distances, threshold):
        self.mesh = mesh
        self.labels = labels
        self.distances = distances
        self.threshold = threshold

    @property
    def bad_volume(self):
        return float(self.mesh.volumes[self.labels == BAD_LABEL].sum())


def classify(field, wells, threshold=None):
    """Label every cell by its nearest well within threshold, else BAD.

    The default threshold is the well set's c0/100; the comparison is
    inclusive, and ties between wells resolve to the lowest index.
    """
    if threshold is None:
        threshold = wells.c0 / 100.0
    dists, labels = cell_labels(field.well_distances(wells), threshold)
    return PhaseLabeling(field.mesh, labels.astype(np.int64), dists, float(threshold))


def cell_labels(table, threshold):
    """Each cell's distance to its nearest well and its label, from a
    (..., C, k) distance table: the nearest well's index if that distance
    is at most threshold, else BAD_LABEL. One np.minimum per well column
    and a strict < that keeps ties at the lowest index: min and argmin's bytes."""
    dists, nearest = table[..., 0].copy(), np.zeros(table.shape[:-1], np.intp)
    for j in range(1, table.shape[-1]):
        np.copyto(nearest, j, where=table[..., j] < dists)
        dists = np.minimum(dists, table[..., j])
    return dists, np.where(dists <= threshold, nearest, BAD_LABEL)


@dataclass
class SpinViolation:
    facet: int
    cell_in_well: int
    cell_other: int
    well_label: int
    other_label: int
    dist_other_to_well: float


def verify_spin_lemma(field, labeling, wells):
    """Scan adjacent cell pairs for forbidden well-to-well contacts.

    Whenever one cell of an interior facet is labeled with well i1 and the
    neighbor is farther than the threshold from that well (for every
    rotation), the neighbor must be BAD. Returns the violations: neighbor
    pairs where the neighbor carries a different well label instead.
    On a mesh satisfying the incompatibility margin this list is empty for
    every continuous field; it is nonempty exactly when twin planes align
    with facets.

    The neighbour distances are gathered from the field's distance table
    (the one classify read) by spin_hits, so the scan computes no
    distances. Violations come per direction (first cell as anchor, then
    second), grouped by the anchor's well in increasing order, facets
    ascending within a well.
    """
    mesh = labeling.mesh
    violations = []
    labels = labeling.labels
    for anchor, other, d_other, hits in spin_hits(
        mesh, field.well_distances(wells), labels, labeling.threshold
    ):
        found = np.flatnonzero(hits)
        for fi in found[np.argsort(labels[anchor[found]], kind="stable")]:
            violations.append(
                SpinViolation(
                    facet=int(mesh.interior[fi]),
                    cell_in_well=int(anchor[fi]),
                    cell_other=int(other[fi]),
                    well_label=int(labels[anchor[fi]]),
                    other_label=int(labels[other[fi]]),
                    dist_other_to_well=float(d_other[fi]),
                )
            )
    return violations


def spin_hits(mesh, table, labels, threshold):
    """The spin-lemma scan of (..., C, k) distance tables and (..., C)
    labels, in both directions across the interior facets.

    Returns two (anchor cells, other cells, d, hits): the cells are (F,)
    per interior facet, first cell as anchor and then second; d (..., F)
    is the other cell's distance to the anchor's well (meaningless where
    the anchor is BAD); hits (..., F) marks the facets where both cells
    carry a well label and that distance exceeds threshold.
    """
    a, b = np.take(mesh.facet_cells, mesh.interior, axis=0).T
    # x.T[cells].T gathers cells along the last axis of x, of any rank
    good = (labels >= 0).T
    labelled = (good[a] & good[b]).T
    # the tables well by well, a view for dist_table's plane-backed ones
    flat = np.moveaxis(table, -1, 0).reshape(-1)
    # where each field's own cells start in a well's plane
    first = np.arange(0, labels.size, labels.shape[-1]).reshape(*labels.shape[:-1], 1)
    out = []
    for anchor, other in ((a, b), (b, a)):
        anchor_well = np.maximum(labels.T[anchor].T, 0)
        d = flat[anchor_well * labels.size + first + other]
        out.append((anchor, other, d, labelled & (d > threshold)))
    return out


def discrete_perimeter(labeling, label, include_boundary=True):
    """Total facet area of the interface of one label's cell set.

    Interior facets count when exactly one side carries the label; facets
    on the domain boundary count when their cell does (skipped with
    include_boundary=False).
    """
    mesh = labeling.mesh
    labs = labeling.labels
    if label != BAD_LABEL and label < 0:
        raise SpinError(f"unknown label {label}")
    a, b = np.take(mesh.facet_cells, mesh.interior, axis=0).T
    differs = (np.take(labs, a) == label) ^ (np.take(labs, b) == label)
    total = float(np.compress(differs, np.take(mesh.facet_area, mesh.interior)).sum())
    if include_boundary:
        cells = np.take(mesh.facet_cells[:, 0], mesh.boundary)
        on = np.take(labs, cells) == label
        total += float(np.compress(on, np.take(mesh.facet_area, mesh.boundary)).sum())
    return total


def count_bad_cells(labeling):
    return int((labeling.labels == BAD_LABEL).sum())


@dataclass
class PartitionComponent:
    well: int
    cells: np.ndarray
    volume: float
    rotation: np.ndarray | None
    residual: float | None
    degenerate: bool = False


@dataclass
class CaccioppoliPartition:
    components: list
    bad_volume: float

    def macroscopic(self, min_volume):
        """Components with volume at least min_volume.

        Discrete transition staircases can pinch off well-labeled islands
        of a few cells; their volume vanishes under refinement, so counts
        of limit components are read above a fixed volume floor.
        """
        return [c for c in self.components if c.volume >= min_volume]


def extract_partition(field, labeling, wells):
    """Facet-connected components of each well label with fitted rotations.

    Connectivity is through shared facets only; sets touching at corners
    stay separate. Each component's rotation is wells.fit_rotation's, with
    the cell volumes as weights; components it leaves unfitted (a mean of
    nonpositive determinant) are flagged degenerate.
    """
    mesh = labeling.mesh
    components = []
    for well, cells in label_components(labeling.labels, *mesh.facet_cells[mesh.interior].T):
        vols = mesh.volumes[cells]
        rot, residual = fit_rotation(field.gradients[cells], vols, wells.matrices[well])
        components.append(
            PartitionComponent(well, cells, float(vols.sum()), rot, residual, rot is None)
        )
    components.sort(key=lambda c: (c.well, -c.volume))
    return CaccioppoliPartition(components=components, bad_volume=labeling.bad_volume)
