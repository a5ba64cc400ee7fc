"""Benchmark workloads: wellspin configs made from a seed, and the checks
that each round's outputs must pass.

A workload is a list of parts; each part is one config passed to
``wellspin.harness.run``. Checks compare outputs with values computed
here, apart from the program, or with properties the method must have.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

WELLS = {
    "dim": 2,
    "wells": [[[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]],
    "delta0": 0.05,
}
LAMINATE = {"volume_fraction": 0.5, "connection": 0, "ripple": 0.004}
INTERFACES = 3


def config_seed(seed):
    """The config seed for a benchmark seed: any int maps to a valid
    nonnegative 63-bit seed, and nearby benchmark seeds land far apart."""
    return (int(seed) * 0x9E3779B97F4A7C15 + 20260809) & (2**63 - 1)


def _laminate(seed, m_list):
    return {
        "scenario": "laminate-sweep",
        "seed": seed,
        "wells": WELLS,
        "m_list": m_list,
        "c1": 1.0,
        "laminate": LAMINATE,
    }


def _spin(seed, field_count):
    return {
        "scenario": "spin-lemma-suite",
        "seed": seed,
        "wells": WELLS,
        "m": 16,
        "field_count": field_count,
    }


def _twin(seed, m_list):
    return {
        "scenario": "lattice-sweep",
        "seed": seed,
        "lattice": {"system": "synthetic-twin", "m_list": m_list},
    }


def _antiferro(seed, m_list):
    return {
        "scenario": "antiferro-sweep",
        "seed": seed,
        "lattice": {"system": "antiferro-raw", "interfaces": INTERFACES, "m_list": m_list},
    }


def parts(workload, seed, warmup=False):
    """[(part name, config)] run in one round of the workload.

    The warm-up variant runs the same code paths at small sizes, so that
    lazy imports and first-call costs are paid before timing starts.
    """
    s = config_seed(seed)
    if workload == "laminate-scale":
        return [("laminate", _laminate(s, [8, 16, 32] if warmup else [16, 32, 64, 128]))]
    if workload == "spin-suite":
        return [("spin", _spin(s, 20 if warmup else 500))]
    if workload == "lattice-scale":
        return [
            ("twin", _twin(s, [8, 10, 12] if warmup else [8, 12, 16, 24])),
            (
                "antiferro",
                _antiferro(s, [64, 256, 1024] if warmup else [4096, 16384, 65536, 262144]),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("laminate-scale", "spin-suite", "lattice-scale")


# -- checks ------------------------------------------------------------


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def closed_form_energy(gradients, volumes, wells, c1=1.0):
    """Multi-well energy with the closed-form 2x2 distance to SO(2)U.

    For M = F U^T, max over R in SO(2) of tr(R^T M) is
    |(M00 + M11, M10 - M01)|, so dist^2(F, SO(2)U) is
    |F|^2 + |U|^2 - 2 |(M00 + M11, M10 - M01)|.
    """
    best = None
    for u in wells:
        u = np.asarray(u, dtype=float)
        mm = gradients @ u.T
        trace_max = np.hypot(mm[:, 0, 0] + mm[:, 1, 1], mm[:, 1, 0] - mm[:, 0, 1])
        d2 = (gradients**2).sum(axis=(1, 2)) + (u**2).sum() - 2.0 * trace_max
        best = d2 if best is None else np.minimum(best, d2)
    return float((c1 * np.maximum(best, 0.0) * volumes).sum())


def laminate_reference_energy(cfg):
    """Energy of the sweep's smallest-m laminate, recomputed here.

    The mesh and the field come from wellspin's public builders, with the
    laminate laid out as the laminate-sweep config documents it (one period
    across the domain's span along the twin normal); the distance to the
    wells is the closed form above, not wellspin's SVD kernel.
    """
    from wellspin import (
        WellSet,
        build_kuhn_mesh,
        build_laminate,
        find_admissible_rotation,
        solve_all_connections,
    )

    ws = WellSet(cfg["wells"]["wells"], delta0=cfg["wells"]["delta0"])
    solve_all_connections(ws)
    rot = find_admissible_rotation(ws)
    mesh = build_kuhn_mesh(2, cfg["m_list"][0], lattice_rotation=rot.rotation)
    lam = cfg["laminate"]
    conn = ws.connections[lam["connection"]]
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    proj = corners @ conn.b
    fld = build_laminate(
        mesh,
        ws,
        conn,
        lam["volume_fraction"],
        proj.max() - proj.min(),
        offset=proj.min(),
        ripple=lam["ripple"],
    )
    return closed_form_energy(fld.gradients, mesh.volumes, cfg["wells"]["wells"], cfg["c1"])


def _all_rows(part, rows, cfg):
    m_list = cfg["lattice"]["m_list"]
    return (f"{part}.all_m_rows", len(rows) == len(m_list), f"{len(rows)} rows, {len(m_list)} m")


class Checker:
    """Checks one workload's round outputs; every check is one operation."""

    def __init__(self, workload, seed):
        self.parts = dict(parts(workload, seed))
        self.reference_energy = None
        if workload == "laminate-scale":
            self.reference_energy = laminate_reference_energy(self.parts["laminate"])

    def check_round(self, round_dir, exit_codes):
        """[(name, ok, detail)] for one round's output directory.

        Outputs that are missing or unreadable fail as one check of the part.
        """
        out = []
        for part, cfg in self.parts.items():
            code = exit_codes[part]
            out.append((f"{part}.exit_code", code == 0, f"run() returned {code}"))
            d = Path(round_dir) / part
            try:
                summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
                gates = [
                    (f"{part}.gate.{gate}", passed is True, f"gate {gate}={passed}")
                    for gate, passed in sorted(summary["gates"].items())
                ]
                out += gates + getattr(self, f"_check_{part}")(cfg, d, summary)
            except (OSError, KeyError, ValueError, IndexError) as err:
                out.append((f"{part}.outputs", False, f"unreadable outputs: {err!r}"))
        return out

    def _check_laminate(self, cfg, d, summary):
        rows = _rows(d / "tables" / "sweep.csv")
        m0 = cfg["m_list"][0]
        energy = float(rows[0]["energy"])
        ref = self.reference_energy
        ok = int(rows[0]["m"]) == m0 and math.isclose(energy, ref, rel_tol=1e-9)
        return [
            (
                "laminate.energy_closed_form",
                ok,
                f"m={rows[0]['m']}: energy {energy!r}, closed form {ref!r}",
            )
        ]

    def _check_spin(self, cfg, d, summary):
        rows = _rows(d / "tables" / "fields.csv")
        count = cfg["field_count"]
        ids = [int(r["field_id"]) for r in rows]
        in_table = sum(int(r["violations"]) for r in rows)
        return [
            (
                "spin.admissible_no_violations",
                summary["total_violations"] == 0 and in_table == 0,
                f"summary {summary['total_violations']}, table {in_table}",
            ),
            (
                "spin.aligned_has_violations",
                summary["aligned_violations"] >= 1,
                f"{summary['aligned_violations']} on the aligned mesh",
            ),
            (
                "spin.one_row_per_field",
                ids == list(range(count)),
                f"{len(rows)} rows for {count} fields",
            ),
        ]

    def _check_antiferro(self, cfg, d, summary):
        k = cfg["lattice"]["interfaces"]
        out = []
        rows = _rows(d / "tables" / "sweep.csv")
        for m, row in zip(cfg["lattice"]["m_list"], rows):
            energy = float(row["energy"])
            boundary = float(row["boundary_volume"])
            comps = int(row["components"])
            out += [
                (f"antiferro.m{m}.energy_2k_over_m", energy == 2 * k / m, f"energy {energy!r}"),
                (
                    f"antiferro.m{m}.boundary_2_over_m",
                    math.isclose(boundary, 2 / m, rel_tol=1e-12),
                    f"boundary volume {boundary!r}",
                ),
                (f"antiferro.m{m}.k_plus_1_components", comps == k + 1, f"{comps} components"),
            ]
        out.append(_all_rows("antiferro", rows, cfg))
        return out

    def _check_twin(self, cfg, d, summary):
        out = []
        rows = _rows(d / "tables" / "sweep.csv")
        for m, row in zip(cfg["lattice"]["m_list"], rows):
            boundary = float(row["boundary_volume"])
            expected = 1.0 - ((m - 2) / m) ** 2
            comps = int(row["components"])
            out += [
                (
                    f"twin.m{m}.boundary_volume",
                    math.isclose(boundary, expected, rel_tol=1e-12),
                    f"boundary volume {boundary!r}, expected {expected!r}",
                ),
                (f"twin.m{m}.single_component", comps == 1, f"{comps} components"),
            ]
        out.append(_all_rows("twin", rows, cfg))
        return out
