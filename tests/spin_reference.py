"""The per-field spin-lemma code that the block pass of the harness and
the table gather of wellspin.spin.verify_spin_lemma replaced.

Kept as test oracles:

- random_spin_field builds one random spin-suite field as a PWAffineField
  with the public builders, drawing from the stream in the suite's order;
  spin_suite_rows labels and scans the fields one at a time. The block
  pass must give the same rows. With turn_gradients the rotated kind
  composes its laminate with the rotation through PWAffineField.rotated,
  a product per cell of the gradients, as the block pass did before it
  turned the vertex values: the rows must still be the same, and the
  gradients equal within a few ulps of the field's largest gradient norm
  times m.
- draw_spin_fields is the parameter loop of the block pass with one
  generator call per uniform. The draws from one random(3) per field must
  be the same values, and leave the stream in the same state.
- min_argmin_labels is the label rule that took the nearest well with
  min and argmin over the well axis. The column-by-column rule of
  wellspin.spin.cell_labels must return the same bytes.
- verify_spin_lemma groups the candidate facets of each direction by the
  anchor's well with np.unique and measures the neighbours against that
  well with one distance call per group. The gathered scan must return
  the same violations in the same order, distances byte for byte.
"""

import numpy as np

from wellspin.fields import PWAffineField, build_laminate, laminate_profile
from wellspin.spin import BAD_LABEL, PhaseLabeling, SpinViolation
from wellspin.wells import dist_to_single_well_batch, dist_to_wells_batch, random_rotation


def random_spin_field(mesh, ws, rng, turn_gradients=False):
    """One random spin-suite field and its row metadata. The rotated kind
    turns its laminate's vertex values before differentiating, as the
    block pass does; with turn_gradients it turns the laminate's gradients
    instead (PWAffineField.rotated), the rule the block pass had before."""
    conn = ws.connections[int(rng.integers(0, len(ws.connections)))]
    vf = float(rng.uniform(0.25, 0.75))
    period = float(rng.uniform(0.3, 0.8))
    offset = float(rng.uniform(0.0, period))
    kind = int(rng.integers(0, 3))
    # every kind draws the rotation, so the stream does not depend on kind
    rot = random_rotation(rng, 2)
    meta = (("laminate", "rotated-laminate", "perturbed-laminate")[kind], vf, period, offset)
    if kind == 0 or (kind == 1 and turn_gradients):
        base = build_laminate(mesh, ws, conn, vf, period, offset=offset)
        return (base if kind == 0 else base.rotated(rot)), meta
    amp = ws.c0 / 1000.0
    waves = rng.uniform(1.0, 3.0, 2) if kind == 2 else None
    b, a_vec, ui = conn.b, conn.a, ws.matrices[conn.i]

    def fn(x):
        g = laminate_profile(x @ b, vf, period, offset)
        vals = x @ ui.T + np.outer(g, a_vec)
        vals = vals @ rot.T
        if waves is None:
            return vals
        kx, ky = waves
        return vals + amp * np.stack(
            [np.sin(kx * np.pi * x[:, 0]), np.cos(ky * np.pi * x[:, 1])], 1
        )

    return PWAffineField.from_vertex_function(mesh, fn), meta


def draw_spin_fields(ws, rng, count):
    draws = []
    for _ in range(count):
        conn = ws.connections[int(rng.integers(0, len(ws.connections)))]
        vf = float(rng.uniform(0.25, 0.75))
        period = float(rng.uniform(0.3, 0.8))
        offset = float(rng.uniform(0.0, period))
        kind = int(rng.integers(0, 3))
        # every kind draws the rotation, so the stream does not depend on kind
        normal = rng.standard_normal((2, 2))
        waves = rng.uniform(1.0, 3.0, 2) if kind == 2 else None
        draws.append((conn, vf, period, offset, kind, normal, waves))
    return draws


def min_argmin_labels(table, threshold):
    """Nearest-well distances and labels of a (..., C, k) table, with
    ties to the lowest index, by min and argmin over the well axis."""
    dists, nearest = table.min(axis=-1), table.argmin(axis=-1)
    return dists, np.where(dists <= threshold, nearest, BAD_LABEL)


def reference_labels(field, wells, threshold):
    """Nearest-well labels within threshold, from dist_to_wells_batch."""
    d, nearest = dist_to_wells_batch(field.gradients, wells)
    return PhaseLabeling(field.mesh, np.where(d <= threshold, nearest, BAD_LABEL), d, threshold)


def spin_suite_rows(mesh, ws, rng, count, threshold, turn_gradients=False):
    """(rows as the suite writes them, every violation found), one field
    at a time; turn_gradients as in random_spin_field."""
    rows, found = [], []
    for fid in range(count):
        field, meta = random_spin_field(mesh, ws, rng, turn_gradients)
        lab = reference_labels(field, ws, threshold)
        violations = verify_spin_lemma(field, lab, ws)
        found += violations
        rows.append((fid, *meta, len(violations), int((lab.labels == BAD_LABEL).sum())))
    return rows, found


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
