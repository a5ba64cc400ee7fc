"""The per-well spin-lemma scan that the table gather of
wellspin.spin.verify_spin_lemma replaced.

Kept as a test oracle: for each direction it groups the candidate facets
by the anchor's well with np.unique and measures the neighbours against
that well with one distance call per group. The gathered scan must return
the same violations in the same order, distances byte for byte.
"""

import numpy as np

from wellspin.spin import SpinViolation
from wellspin.wells import dist_to_single_well_batch


def verify_spin_lemma(field, labeling, wells):
    mesh = labeling.mesh
    thr = labeling.threshold
    violations = []
    interior = mesh.interior
    a = mesh.facet_cells[interior, 0]
    b = mesh.facet_cells[interior, 1]
    lab_a, lab_b = labeling.labels[a], labeling.labels[b]
    for anchor, other, lab_anchor, lab_other in (
        (a, b, lab_a, lab_b),
        (b, a, lab_b, lab_a),
    ):
        candidates = np.nonzero((lab_anchor >= 0) & (lab_other >= 0))[0]
        for w in np.unique(lab_anchor[candidates]):
            sel = candidates[lab_anchor[candidates] == w]
            d_other = dist_to_single_well_batch(field.gradients[other[sel]], wells.matrices[w])
            for k in np.nonzero(d_other > thr)[0]:
                fi = sel[k]
                violations.append(
                    SpinViolation(
                        facet=int(interior[fi]),
                        cell_in_well=int(anchor[fi]),
                        cell_other=int(other[fi]),
                        well_label=int(w),
                        other_label=int(lab_other[fi]),
                        dist_other_to_well=float(d_other[k]),
                    )
                )
    return violations
