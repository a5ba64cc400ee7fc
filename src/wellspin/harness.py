"""Experiment orchestration: configuration, m-sweeps, scaling fits and
reproducible artifact emission.

Every scenario writes one directory: summary.json, tables/*.csv and a
digest.txt with one PASS/FAIL line per gate. All randomness flows through
labeled substreams of one counter-based generator, so re-running a config
with the same seed reproduces every CSV byte for byte, and adding a
scenario never perturbs another one's draws.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import json
import math
import os
import traceback
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fields import (
    FieldError,
    build_laminate,
    check_gradients,
    evaluate_energy,
    laminate_values,
    vertex_gradients,
)
from .lattice import (
    EnergyBoundError,
    antiferro_chain,
    antiferro_system,
    evaluate_hamiltonian,
    ground_state_deformation,
    lattice_partition_diagnostics,
    synthetic_twin_system,
    verify_h2,
)
from .mesh import (
    MAX_CELLS,
    build_kuhn_mesh,
    check_incompatibility,
    find_admissible_rotation,
    kuhn_cell_estimate,
)
from .numerics import loglog_slope, ratio
from .rigidity import (
    IncompatibleField,
    field_from_blocks,
    phase_boundary_measures,
    random_block_values,
    rigidity_ratio,
    weak_rigidity_ratio,
)
from .spin import (
    BAD_LABEL,
    cell_labels,
    classify,
    count_bad_cells,
    discrete_perimeter,
    extract_partition,
    spin_hits,
)
from .wells import (
    WellSet,
    admissible_normal_intervals,
    dist_table,
    random_rotation,
    rotation_2d,
    rotations_from_normals,
)

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_INCOMPATIBLE_MESH = 2
EXIT_ENERGY_BOUND = 3
EXIT_INTERNAL = 4

# the margin of a well set whose document gives none
DELTA0 = 0.05

# random spin-lemma fields are laminates with periods drawn from this
# range, so a mesh needs m >= 2 / _SPIN_PERIODS[0] for two cells per layer
_SPIN_PERIODS = (0.3, 0.8)
_SPIN_KINDS = ("laminate", "rotated-laminate", "perturbed-laminate")
# cells in one block of spin-lemma fields (36 fields at m = 16); the block
# pass peaks at about 85 bytes per block cell, and 2^14 ran fastest of 2^12-2^16
_SPIN_BLOCK_CELLS = 2**14


def substream(seed, label):
    """Independent generator for one labeled stream of a run.

    The Philox key packs the seed above a CRC of the label, so streams are
    independent across labels and reproducible across runs and platforms.
    """
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.Generator(np.random.Philox(key=(int(seed) << 32) + key))


def format_float(x):
    return repr(float(x))


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _show(v):
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(map(_show, v)) + "]"
    return f"{v:.6g}" if isinstance(v, (float, np.floating)) else str(v)


@dataclass
class Gate:
    """One pass/fail check of a run: the value measured and its bound.

    A dotted name such as "scaling.energy" is one part of the summary gate
    named before the dot, which passes when all of its parts pass.
    """

    name: str
    passed: bool
    measured: object
    bound: object

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {_show(self.measured)} (bound {_show(self.bound)})"


@dataclass
class ScalingReport:
    """Log-log slope of one quantity over an m-sweep with a pass gate.

    A log-log fit needs positive values; with a value that is not, slope
    and intercept are None and the gate fails at the first such m.
    """

    name: str
    m: list
    values: list
    slope: float | None
    intercept: float | None
    expected: float
    tolerance: float
    passed: bool

    @classmethod
    def fit(cls, name, m_values, values, expected, tolerance):
        m, values = [int(m) for m in m_values], [float(v) for v in values]
        slope = intercept = None
        if all(v > 0 for v in values):
            slope, intercept = loglog_slope(m, values)
        passed = slope is not None and abs(slope - expected) <= tolerance
        return cls(name, m, values, slope, intercept, float(expected), float(tolerance), passed)

    def to_dict(self):
        return asdict(self)

    def gate(self, name):
        bound = f"{self.expected:+.2f} +- {self.tolerance:.2f}"
        if self.slope is None:
            m, v = next((m, v) for m, v in zip(self.m, self.values) if not v > 0)
            return Gate(name, False, f"no log-log fit: {v:g} at m = {m}", bound)
        return Gate(name, self.passed, f"slope {self.slope:+.3f}", bound)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    # the abs() bound also rejects nan, inf and ints too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < 1e300


def _rule(ok, text):
    return lambda v: None if ok(v) else f"must be {text}"


def _at_least(lo):
    return _rule(lambda v: _is_int(v) and v >= lo, f"an integer >= {lo}")


def _scales(count):
    return _rule(
        lambda v: isinstance(v, list)
        and len(v) >= count
        and all(_is_int(m) and m >= 2 for m in v)
        and all(a < b for a, b in zip(v, v[1:])),
        f"a strictly increasing list of at least {count} integers >= 2",
    )


def _one_of(*names):
    return _rule(lambda v: v in names, f"one of {', '.join(names)}")


_FRACTION = _rule(lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)")
_POSITIVE = _rule(lambda v: _is_number(v) and v > 0, "a positive number")
_STRING = _rule(lambda v: isinstance(v, str), "a string")
# the eps sweep fits the power of lhs ~ eps^p, which needs eps to spread
_EPS_VALUES = _rule(
    lambda v: isinstance(v, list) and v and all(_is_number(e) and e > 0 for e in v)
    and max(v) >= 2 * min(v),
    "a list of positive numbers, the largest at least twice the smallest",
)

_COMMON = {
    "scenario": (None, _STRING),  # _resolve picks the table by it
    "seed": (0, _rule(lambda v: _is_int(v) and 0 <= v < 2**63, "a nonnegative 63-bit integer")),
    "out": (None, _STRING),
}
_WELLS = {
    "wells": {
        "dim": (2, _rule(lambda v: _is_int(v) and v == 2, "2: the scenarios run in the plane")),
        "wells": (
            [[[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]],
            _rule(lambda v: isinstance(v, list) and len(v) > 0, "a nonempty list of matrices"),
        ),
        "delta0": (DELTA0, _FRACTION),
    },
    "wells_file": (None, _STRING),
}


def _walk(table, given, prefix, problems):
    """Check one config object against its table, appending to problems;
    returns the object with defaults filled in."""
    problems += [f"{prefix}{key}: unknown key" for key in given if key not in table]
    filled = {}
    for key, spec in table.items():
        value = given.get(key)
        if isinstance(spec, dict):
            if not isinstance(value, (dict, type(None))):
                problems.append(f"{prefix}{key}: must be an object")
                value = None
            filled[key] = _walk(spec, value or {}, f"{prefix}{key}.", problems)
            continue
        default, check = spec
        if value is None and (key not in given or default is None):
            value = copy.deepcopy(default)
        else:
            problem = check(value)
            if problem:
                problems.append(f"{prefix}{key}: {problem}")
        filled[key] = value
    return filled


def load_config(source):
    """A config from the path of a JSON file, or a copy of one given as a
    dict."""
    if isinstance(source, (str, os.PathLike)):
        return json.loads(Path(source).read_text(encoding="utf-8"))
    return dict(source) if isinstance(source, dict) else source


def _check_wells(raw, cfg):
    """Build the well set, inline or from the document at wells_file (which
    the inline table checks, but for the derived block of a wellset-analysis
    summary), solve its twins and find its lattice rotation, so that a bad
    one fails validation and not a run. A good set replaces cfg["wells"]
    with the (WellSet, AdmissibleRotation) pair that the stages take, so a
    wells_file is read once per run."""
    name = "wells" if cfg["wells_file"] is None else "wells_file"
    if name == "wells_file" and raw.get("wells") is not None:
        return ["wells: give either inline wells or wells_file, not both"]
    try:
        doc = cfg["wells"]
        if name == "wells_file":
            doc = json.loads(Path(cfg["wells_file"]).read_text(encoding="utf-8"))
            if not isinstance(doc, dict) or "wells" not in doc:
                return ["wells_file: must hold an object with a wells entry"]
            doc.pop("derived", None)
            doc = _walk(_WELLS["wells"], doc, "wells_file.", problems := [])
            if problems:
                return problems
        # the twin solver refuses 3x3 wells; the MeshErrors are ValueErrors
        ws = WellSet(doc["wells"], delta0=doc["delta0"])
        if not admissible_normal_intervals(ws.twin_normals(), ws.delta0):
            bound = "|b . t| <= 1 - delta0 for every twin normal t"
            return [f"delta0: {ws.delta0} leaves no facet normal b with {bound}"]
        rot = find_admissible_rotation(ws)
    except (OSError, ValueError, LookupError, TypeError) as err:
        return [f"{name}: {err}"]
    ws.c0  # dbar, once, for every run's classification threshold
    cfg["wells"] = ws, rot
    return []


def _first_problem(key, scales, problem):
    """[key: problem(m)] for the first scale m that has a problem, or []."""
    found = next(filter(None, map(problem, scales)), None)
    return [f"{key}: {found}"] if found else []


def _mesh_problem(m, rotation=None):
    """Whether the mesh at m, as build_kuhn_mesh estimates it, has more
    cells than its budget."""
    # past the budget m alone rules the mesh out (it has over m^2 cells),
    # and the float estimate would overflow for huge m
    cells = None if m > MAX_CELLS else kuhn_cell_estimate(2, m, lattice_rotation=rotation)
    if cells is None or cells > MAX_CELLS:
        need = f"over {MAX_CELLS}" if cells is None else f"an estimated {cells}"
        return f"the mesh at m = {m} needs {need} cells, the budget is {MAX_CELLS}"
    return None


def _check_laminate(raw, cfg):
    """build_laminate needs two cells per layer on the coarsest mesh, and
    the laminate a twin of the set."""
    period, m = cfg["laminate"]["period"], cfg["m_list"][0]
    if period is not None and period < 2.0 / m:
        return [f"laminate.period: must be at least 2 / m_list[0] = {2.0 / m:g}"]
    problems = _check_wells(raw, cfg)
    if problems:
        return problems
    ws, rot = cfg["wells"]
    if cfg["laminate"]["connection"] >= len(ws.connections):
        return [f"laminate.connection: must be below {len(ws.connections)}, the twin count"]
    return _first_problem("m_list", cfg["m_list"], lambda m: _mesh_problem(m, rot.rotation))


def _check_spin_suite(raw, cfg):
    """The suite draws its laminates along twins of the set."""
    problems = _check_wells(raw, cfg)
    if problems:
        return problems
    ws, rot = cfg["wells"]
    if not ws.connections:
        name = "wells" if cfg["wells_file"] is None else "wells_file"
        return [f"{name}: spin-lemma-suite laminates along twins, and these wells have none"]
    return _first_problem("m", [cfg["m"]], lambda m: _mesh_problem(m, rot.rotation))


# The memory a lattice or rigidity-family run may ask for, above the peak of a
# mesh at the MAX_CELLS budget. Each divisor bounds a whole run's tracemalloc
# peak bytes per unit of its largest size, as measured and rounded up
# (docs/formats.md); test_run_peak_within_budget pins all three.
MEMORY_BUDGET = 2_000_000_000
MAX_CHAIN_SITES = MEMORY_BUDGET // 100
MAX_TWIN_SITES = MEMORY_BUDGET // 270
MAX_BLOCKS = MEMORY_BUDGET // 224


def _check_rigidity(raw, cfg):
    """rigidity-family draws block_grid^2 blocks for each family member."""
    grid, family = cfg["block_grid"], cfg["family_size"]
    if grid**2 > MAX_BLOCKS:
        blocks = f"{grid}^2 = {grid**2} blocks for each of {family} fields"
        return [f"block_grid: {blocks}, the budget is {MAX_BLOCKS}"]
    return _first_problem("m_list", cfg["m_list"], _mesh_problem)


def _sites_problem(m, sites, budget):
    """Whether the lattice at m has more sites than its budget."""
    if sites > budget:
        return f"the lattice at m = {m} has {sites} sites, the budget is {budget}"
    return None


def _interface_fractions(k):
    """k antiphase boundaries evenly spaced along the chain."""
    return [float(i + 1) / (k + 1) for i in range(k)]


def _interfaces_problem(k, m):
    """Whether k interfaces leave a stretch of an m-site chain without a
    full ground window.

    Each of the k + 1 segments between slips and chain ends must span
    L0 + 1 = 3 sites (L0 = 2 is the period of both antiferro variants), or
    all its sites are BAD. For evenly spaced interfaces that holds exactly
    when 3 (k + 1) <= m: the positions (i + 1) m / (k + 1) are then at
    least 3 apart, a spacing over 3 rounds to at least 3 sites and one of
    exactly 3 puts every interface on a whole site.
    """
    if 3 * (k + 1) > m:
        return f"at m = {m}, {k} interfaces need {3 * (k + 1)} sites, 3 for each of {k + 1} segments"
    return None


def _check_antiferro(raw, cfg):
    """A chain of m sites, with a full ground window between interfaces."""
    k, m_list = cfg["lattice"]["interfaces"], cfg["lattice"]["m_list"]
    return _first_problem(
        "lattice.m_list", m_list, lambda m: _sites_problem(m, m, MAX_CHAIN_SITES)
    ) or _first_problem("lattice.interfaces", m_list, lambda m: _interfaces_problem(k, m))


def _check_twin_lattice(raw, cfg):
    """A twin lattice of (m + 1)^2 sites."""
    return _first_problem(
        "lattice.m_list",
        cfg["lattice"]["m_list"],
        lambda m: _sites_problem(m, (m + 1) ** 2, MAX_TWIN_SITES),
    )


def _resolve(source):
    """(problems, config with defaults filled in or None if problems, the
    config as read or None if it could not be read); reads source once."""
    try:
        raw = load_config(source)
    except (OSError, ValueError) as err:
        return [f"config: unreadable ({err})"], None, None
    scenario = raw.get("scenario") if isinstance(raw, dict) else None
    if not isinstance(scenario, str) or scenario not in SCHEMA:
        return [f"scenario: must be one of {', '.join(SCENARIOS)} in a JSON object"], None, raw
    problems = []
    cfg = _walk(SCHEMA[scenario].schema, raw, "", problems)
    problems = problems or SCHEMA[scenario].check(raw, cfg)
    return problems, None if problems else cfg, raw


def validate_config(source):
    """Field-level diagnostics for a config; empty list means valid.

    Unknown keys are reported, and a config that cannot be read or is not
    a JSON object is a problem too; this never raises.
    """
    return _resolve(source)[0]


class IncompatibleMeshError(Exception):
    """The sweep's mesh fails the twin-incompatibility check; the argument
    is the IncompatibilityReport."""


def _config_only(cfg, force):
    """The prepare of a scenario whose stages read only the config."""
    return cfg


def _stage_wellset(ctx, m):
    ws, _ = ctx["wells"]
    return [
        (c.i, c.j, *c.rotation.reshape(-1), *c.a, *c.b, c.residual(ws), c.multiplicity)
        for c in ws.connections
    ]


def _finish_wellset(ctx, rows):
    ws, rot = ctx["wells"]
    header = "i j q00 q01 q10 q11 a0 a1 b0 b1 residual multiplicity".split()
    admissible = {"angle": rot.angle, "margin": rot.margin}
    summary = {"wells": ws.to_json(), "admissible_rotation": admissible}
    measured = (
        f"k={ws.k} d={ws.separation_d:.6f} dbar={ws.incompat_dbar:.6f} c0={ws.c0:.6f} "
        f"(delta0={ws.delta0}), {len(ws.connections)} connections, admissible rotation "
        f"{math.degrees(rot.angle):.3f} deg with margin {rot.margin:.4f}"
    )
    gates = [Gate("ok", rot.margin > 0.0, measured, "margin > 0")]
    return summary, {"connections": (header, rows)}, gates


def _prepare_laminate(cfg, force):
    """The twin-incompatibility check of the lattice rotation, which must
    pass unless forced, and the layout of the laminate."""
    ws, rot = cfg["wells"]
    incompat = check_incompatibility(rot.rotation, ws, ws.delta0)
    if not incompat.ok and not force:
        raise IncompatibleMeshError(incompat)
    lam = cfg["laminate"]
    conn = ws.connections[lam["connection"]]
    proj = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]) @ conn.b
    # default: one full period across the domain span, i.e. two layers and
    # a single interior interface; coarse meshes resolve that fastest
    period = lam["period"] or (proj.max() - proj.min())
    offset = proj.min() + lam["offset_frac"] * period
    return {**cfg, "conn": conn, "period": period, "offset": offset}


def _stage_laminate(ctx, m):
    """The sweep row at m, and the count side of the Chebyshev identity."""
    ws, rot = ctx["wells"]
    conn, c1, lam = ctx["conn"], ctx["c1"], ctx["laminate"]
    mesh = build_kuhn_mesh(2, m, lattice_rotation=rot.rotation)
    vf, ripple = lam["volume_fraction"], lam["ripple"]
    fld = build_laminate(mesh, ws, conn, vf, ctx["period"], offset=ctx["offset"], ripple=ripple)
    energy = evaluate_energy(fld, ws, c1=c1).total
    lab = classify(fld, ws)
    macro = extract_partition(fld, lab, ws).macroscopic(0.01 * mesh.effective_volume)
    n_bad = count_bad_cells(lab)
    lhs = n_bad * lab.threshold**2 * c1 * float(mesh.volumes.min())
    row = {
        "m": m,
        "energy": energy,
        "bad_count": n_bad,
        "bad_volume": lab.bad_volume,
        "components": len(macro),
        "max_residual": max((c.residual for c in macro if c.residual is not None), default=0.0),
    }
    del macro  # the last reference to the partition's cell lists
    pair = (conn.i, conn.j)  # the two wells the laminate alternates
    for j, (curl, dv) in zip(pair, phase_boundary_measures(fld, lab, ws, pair)):
        row[f"perimeter_w{j}"] = discrete_perimeter(lab, j)
        row[f"perimeter_interior_w{j}"] = discrete_perimeter(lab, j, include_boundary=False)
        row[f"curl_w{j}"] = curl
        row[f"dv_curl_ratio_w{j}"] = ratio(dv, curl)
    return [(lhs, row)]


def _finish_laminate(ctx, staged):
    m_list, pair = ctx["m_list"], (ctx["conn"].i, ctx["conn"].j)
    rows = [row for _, row in staged]

    def column(key):
        return [r[key] for r in rows]

    tol, perim_tol = ctx["slope_tolerance"], ctx["perimeter_tolerance"]
    reports = [
        ScalingReport.fit("energy", m_list, column("energy"), -1.0, tol),
        ScalingReport.fit("bad_cell_count", m_list, column("bad_count"), 1.0, tol),
        ScalingReport.fit("bad_volume", m_list, column("bad_volume"), -1.0, tol),
    ] + [
        ScalingReport.fit(f"perimeter_w{j}", m_list, column(f"perimeter_w{j}"), 0.0, perim_tol)
        for j in pair
    ]
    curl_ratios = [ratio(r[f"curl_w{j}"], r[f"perimeter_w{j}"]) for r in rows for j in pair]
    dv_ratios = [r[f"dv_curl_ratio_w{j}"] for r in rows for j in pair]
    comps, residuals = column("components"), column("max_residual")
    excess = max(lhs - row["energy"] for lhs, row in staged)
    bounded = all(lhs <= row["energy"] for lhs, row in staged)
    curl_spread, dv_spread = _spread(curl_ratios), _spread(dv_ratios)
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    gates = [r.gate(f"scaling.{r.name}") for r in reports] + [
        Gate("chebyshev_identity", bounded, f"count bound - energy = {excess:.3g}", "<= 0"),
        Gate("components_stable", len(set(comps)) == 1, comps, "equal at every m"),
        Gate("residuals_decreasing", decreasing, residuals, "strictly decreasing in m"),
        Gate("curl_vs_perimeter_stable", curl_spread <= 2.0, curl_spread, "max/min <= 2"),
        Gate("dv_vs_curl_stable", dv_spread <= 2.0, dv_spread, "max/min <= 2"),
    ]

    header = list(rows[0].keys())
    table_rows = [tuple(r[k] for k in header) for r in rows]
    scaling_rows = [(r.name, m, v) for r in reports for m, v in zip(r.m, r.values)]
    summary = {
        "m_list": m_list,
        "scaling_reports": [r.to_dict() for r in reports],
        "curl_ratios": curl_ratios,
        "dv_ratios": dv_ratios,
    }
    tables = {"sweep": (header, table_rows), "scaling": (["quantity", "m", "value"], scaling_rows)}
    return summary, tables, gates


def _spread(ratios):
    """max/min of a stability gate's ratios; inf when one is 0, as where a
    phase is empty at some m."""
    lo = min(ratios)
    return max(ratios) / lo if lo > 0 else math.inf


def _draw_spin_fields(ws, rng, count):
    """Parameters of the next count random spin fields, in stream order:
    per field the twin, volume fraction, period, offset, kind, a standard
    normal 2x2 for the rotation, and the wave numbers of the perturbed
    kind. One random(3) gives the three uniforms, each low + (high - low)
    u, as rng.uniform forms them from the same doubles."""
    (lo, hi), draws = _SPIN_PERIODS, []
    for _ in range(count):
        conn = ws.connections[int(rng.integers(0, len(ws.connections)))]
        u_vf, u_period, u_offset = rng.random(3).tolist()
        period = lo + (hi - lo) * u_period
        kind = int(rng.integers(0, 3))
        # every kind draws the rotation, so the stream does not depend on kind
        normal = rng.standard_normal((2, 2))
        waves = 1.0 + 2.0 * rng.random(2) if kind == 2 else None
        draws.append((conn, 0.25 + 0.5 * u_vf, period, period * u_offset, kind, normal, waves))
    return draws


def _spin_gradients(mesh, ws, draws, ids):
    """(B, C, 2, 2) plane-backed gradients of a block of spin fields, checked.

    Each field is the laminate of its twin (laminate_values, as in
    build_laminate without ripple). The rotated and perturbed kinds turn
    its vertex values by their rotation, and the perturbed kind adds a
    smooth wave of amplitude c0/1000, before one differentiation.
    """
    conns, vf, period, offset, kind, normals, waves = zip(*draws)
    kind = np.array(kind)
    rot = rotations_from_normals(np.array(normals))
    short = (kind < 2) & (np.array(period) < 2.0 / mesh.m)
    if short.any():
        fid = ids[np.argmax(short)]
        raise FieldError(f"field {fid}: laminate period below two cells per layer")
    x = mesh.vertices
    ui = np.array([ws.matrices[c.i] for c in conns])
    a, b = np.array([c.a for c in conns]), np.array([c.b for c in conns])
    values = laminate_values(x, ui, a, b, vf, period, offset)  # (B, V, 2)
    turned = kind > 0
    values[turned] = values[turned] @ np.swapaxes(rot[turned], -1, -2)
    wavy = kind == 2
    if wavy.any():
        kx, ky = np.array([w for w in waves if w is not None]).T[..., None]
        wave = np.stack([np.sin(kx * np.pi * x[:, 0]), np.cos(ky * np.pi * x[:, 1])], -1)
        values[wavy] += ws.c0 / 1000.0 * wave
    grads = vertex_gradients(mesh, values)
    del values  # before the check's peak
    check_gradients(mesh, grads, ids=ids)
    return grads


def _scan_block(mesh, ws, draws, ids, threshold):
    """Spin-lemma violations and BAD cells under threshold, one count of
    each per field of a block of spin fields (as _draw_spin_fields draws
    them, named by ids in errors)."""
    grads = _spin_gradients(mesh, ws, draws, ids)
    table = dist_table(grads, ws.matrices)
    del grads  # the gradient planes go once the table is filled
    labels = cell_labels(table, threshold)[1]
    violations = sum(hits.sum(axis=-1) for *_, hits in spin_hits(mesh, table, labels, threshold))
    return violations, (labels == BAD_LABEL).sum(axis=-1)


def _spin_suite_rows(mesh, ws, rng, count, threshold):
    """One table row per random spin field on mesh: field id, kind, volume
    fraction, period, offset, spin-lemma violations and BAD cells under
    threshold. Fields are drawn and scanned in blocks of about
    _SPIN_BLOCK_CELLS cells, which give the same rows as one at a time."""
    rows = []
    per_block = max(1, _SPIN_BLOCK_CELLS // mesh.n_cells)
    for start in range(0, count, per_block):
        draws = _draw_spin_fields(ws, rng, min(per_block, count - start))
        violations, bad = _scan_block(mesh, ws, draws, range(start, start + len(draws)), threshold)
        for k, (_, vf, period, offset, kind, _, _) in enumerate(draws):
            rows.append(
                (start + k, _SPIN_KINDS[kind], vf, period, offset, int(violations[k]), int(bad[k]))
            )
    return rows


def _stage_spin_suite(ctx, m):
    ws, rot = ctx["wells"]
    rng = substream(ctx["seed"], "spin-lemma-suite")
    mesh = build_kuhn_mesh(2, m, lattice_rotation=rot.rotation)
    return _spin_suite_rows(mesh, ws, rng, ctx["field_count"], ctx["threshold"])


def _finish_spin_suite(ctx, rows):
    ws, _ = ctx["wells"]
    total_violations = sum(row[5] for row in rows)

    # adversarial: twin normal aligned with the unrotated diagonal facets
    aligned_mesh = build_kuhn_mesh(2, 8)
    diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
    conn = max(ws.connections, key=lambda c: abs(c.b @ diag))
    spacing = 1.0 / (np.sqrt(2.0) * aligned_mesh.m)
    offset = float((aligned_mesh.vertices @ conn.b).min())
    # one field scanned as the random ones are, drawn in _draw_spin_fields'
    # order: twin, fraction, period, offset, kind 0 (unturned), normal, waves
    draw = (conn, 0.5, 4 * spacing, offset, 0, np.eye(2), None)
    aligned = int(_scan_block(aligned_mesh, ws, [draw], ["aligned"], ctx["threshold"])[0][0])

    summary = {
        "field_count": ctx["field_count"],
        "m": ctx["m"],
        "total_violations": total_violations,
        "aligned_violations": aligned,
    }
    header = ["field_id", "kind", "volume_fraction", "period", "offset", "violations", "bad_cells"]
    gates = [
        Gate("no_violations_on_admissible", total_violations == 0, total_violations, "0"),
        Gate("violations_on_aligned", aligned >= 1, aligned, ">= 1"),
    ]
    return summary, {"fields": (header, rows)}, gates


def _stage_rigidity(ctx, m):
    """The family's ratios at m. Each stage redraws the family, one member
    at a time, from a fresh substream, so every stage measures the same
    members."""
    mesh = build_kuhn_mesh(2, m)
    rng = substream(ctx["seed"], "rigidity-family")
    rows = []
    for fid in range(ctx["family_size"]):
        blocks = random_block_values(rng, ctx["block_grid"])
        rep = rigidity_ratio(field_from_blocks(mesh, blocks), p=ctx["p"])
        rows.append((fid, m, ctx["p"], rep.lhs, rep.rhs, rep.ratio))
    return rows


def _finish_rigidity(ctx, rows):
    """The eps sweep and the weak-norm ratio run on the coarsest mesh."""
    p, mesh = ctx["p"], build_kuhn_mesh(2, ctx["m_list"][0])
    # the stages ran in m order, so a stable sort gives (field_id, m) order
    rows.sort(key=lambda row: row[0])
    max_ratio = {}
    for row in rows:
        max_ratio[row[1]] = max(max_ratio.get(row[1], 0.0), row[-1])

    # epsilon sweep around a fixed rotation
    noise_rng = substream(ctx["seed"], "rigidity-eps")
    noise = noise_rng.uniform(-1.0, 1.0, (mesh.n_cells, 2, 2))
    noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
    r0 = random_rotation(noise_rng, 2)
    eps_rows = []
    eps_values = ctx["eps_values"]
    lhs_values = []
    for eps in eps_values:
        fld = IncompatibleField(mesh=mesh, values=r0[None] + eps * noise)
        rep = rigidity_ratio(fld, p=p)
        eps_rows.append((eps, rep.lhs, rep.rhs, rep.ratio))
        lhs_values.append(rep.lhs)
    eps_slope, _ = loglog_slope(eps_values, lhs_values)

    # the weak-norm ratio of the first family member, redrawn as the stages
    # draw it
    first = random_block_values(substream(ctx["seed"], "rigidity-family"), ctx["block_grid"])
    weak = weak_rigidity_ratio(field_from_blocks(mesh, first))
    # Chebyshev's inequality: the exact weak norm is at most the L^2 norm,
    # up to the round-off of the volume sums; for a constant |A - R|, as at
    # block_grid 1, the two are equal
    below_strong = weak["lhs"] <= weak["strong"] * (1.0 + 1e-9)

    ratios_sorted = list(max_ratio.values())
    spread = _spread(ratios_sorted)
    n_infinite = sum(not math.isfinite(row[-1]) for row in rows)
    # lhs ~ eps^p near a rotation; at p = 2 this is the [1.8, 2.2] gate
    power_p = abs(eps_slope - p) <= 0.1 * p
    gates = [
        Gate("ratios_finite", n_infinite == 0, f"{n_infinite} not finite", "0"),
        Gate("max_ratio_scale_stable", spread <= 2.0, ratios_sorted, "max/min <= 2"),
        Gate("eps_slope_power_p", power_p, eps_slope, f"{p:g} +- {0.1 * p:g}"),
        Gate("weak_below_strong", below_strong, [weak["lhs"], weak["strong"]], "<= L^2 norm, rel 1e-9"),
        Gate("weak_ratio_finite", math.isfinite(weak["ratio"]), weak["ratio"], "finite"),
    ]
    summary = {
        "family_size": ctx["family_size"],
        "p": p,
        "max_ratio": {str(m): r for m, r in max_ratio.items()},
        "eps_slope": eps_slope,
        "weak_ratio": weak["ratio"],
    }
    tables = {
        "rigidity": (["field_id", "m", "p", "lhs", "rhs", "ratio"], rows),
        "eps_sweep": (["eps", "lhs", "rhs", "ratio"], eps_rows),
    }
    return summary, tables, gates


def _prepare_antiferro(cfg, force):
    """The chain model (lattice.system picks its variant) and its
    interfaces."""
    lat = cfg["lattice"]
    system = antiferro_system(lat["system"].replace("antiferro-", ""))
    fracs = _interface_fractions(lat["interfaces"])
    energy_constant = lat["energy_constant"]
    if energy_constant is None:
        energy_constant = 2.0 * lat["interfaces"] + 2.0
    return {
        **cfg,
        "system": system,
        "sample": lambda m: antiferro_chain(system, m=m, interfaces=fracs),
        "energy_constant": energy_constant,
    }


def _prepare_twin_lattice(cfg, force):
    """The synthetic twin lattice, turned by a random rotation."""
    system = synthetic_twin_system()
    angle = float(substream(cfg["seed"], "lattice-sweep").uniform(0.0, 2.0 * np.pi))
    rot = rotation_2d(angle)
    return {
        **cfg,
        "system": system,
        "sample": lambda m: ground_state_deformation(system, 0, (m + 1, m + 1), m=m, rotation=rot),
        "energy_constant": cfg["lattice"]["energy_constant"],
        "angle": angle,
    }


def _stage_lattice(ctx, m):
    """The partition record at m, of a deformation built for it alone."""
    x = ctx["sample"](m)
    return [lattice_partition_diagnostics(m, x, ctx["system"], ctx["energy_constant"])]


def _lattice_gates(records, name, components, tol):
    """The boundary-volume fit and the gates of both lattice scenarios."""
    volumes = [r["boundary_volume"] for r in records]
    boundary = ScalingReport.fit("boundary_volume", [r["m"] for r in records], volumes, -1.0, tol)
    counts = [r["n_components"] for r in records]
    adjacency = [len(r["adjacency_violations"]) for r in records]
    gates = [
        Gate(name, all(c == components for c in counts), counts, f"{components} at every m"),
        boundary.gate("boundary_volume_slope"),
        Gate("no_adjacency_violations", not any(adjacency), adjacency, "0"),
    ]
    return boundary.to_dict(), gates


def _finish_antiferro(ctx, records):
    system, lat = ctx["system"], ctx["lattice"]
    k, m0 = lat["interfaces"], lat["m_list"][0]
    ground_energy = evaluate_hamiltonian(antiferro_chain(system, m=m0), system).total
    h2 = verify_h2(system)
    single = antiferro_chain(system, m=m0, interfaces=(0.5,))
    defect_total = evaluate_hamiltonian(single, system).total
    h2_measured = f"c = {h2.c:.4f} over {h2.n_windows} windows (exhaustive={h2.exhaustive})"
    boundary, gates = _lattice_gates(records, "components_k_plus_1", k + 1, 0.2)
    gates = [
        Gate("ground_energy_zero", ground_energy == 0.0, ground_energy, "== 0"),
        Gate("h2_ok", h2.ok, h2_measured, "c > 0 and no violating window"),
        Gate("single_defect_energy", defect_total == 2.0 / m0, defect_total, "== 2/m"),
    ] + gates
    h2_keys = ("c", "p", "n_windows", "exhaustive", "violations")
    summary = {
        "variant": lat["system"].replace("antiferro-", ""),
        "interfaces": _interface_fractions(k),
        "h2": {key: getattr(h2, key) for key in h2_keys},
        "boundary_volume": boundary,
    }
    columns = ["m", "energy", "bad_volume", "boundary_volume", "components", "perimeter_total"]
    rows = [
        (r["m"], r["energy"], r["bad_volume"], r["boundary_volume"], r["n_components"])
        + (sum(r["perimeters"].values()), len(r["adjacency_violations"]))
        for r in records
    ]
    return summary, {"sweep": (columns + ["adjacency_violations"], rows)}, gates


def _finish_twin_lattice(ctx, records):
    boundary, gates = _lattice_gates(records, "single_component", 1, 0.3)
    # the count, not the largest residual, which is round-off and would tie
    # the digest to the last bits of the fit
    residuals = [c.residual for r in records for c in r["components"] if c.rotation is not None]
    over = sum(x > 1e-9 for x in residuals)
    measured = f"{over} of {len(residuals)} fitted residuals above 1e-9"
    gates.append(Gate("ground_residual_zero", over == 0, measured, "<= 1e-9"))
    # the 2-D twin sweep records no perimeter total
    columns = ["m", "energy", "bad_volume", "boundary_volume", "components", "adjacency_violations"]
    rows = [
        (r["m"], r["energy"], r["bad_volume"], r["boundary_volume"], r["n_components"])
        + (len(r["adjacency_violations"]),)
        for r in records
    ]
    summary = {"system": ctx["system"].name, "rotation_angle": ctx["angle"]}
    summary["boundary_volume"] = boundary
    return summary, {"sweep": (columns, rows)}, gates


@dataclass(frozen=True)
class Scenario:
    """One scenario of SCHEMA: its config keys and checks, and its run.

    schema maps each allowed key to (default, check), or to the nested
    table of an object-valued key; a key's check returns None for a good
    value and the problem otherwise. After the walk of the schema,
    check(config as read, config with defaults) returns the problems
    across keys; it builds the well set, where there is one (_check_wells).
    A run calls prepare(config, force) once for a context (the config and
    what the scenario builds once), stage(context, m) for each m of
    scales(config) in order, and finish(context, rows of all stages) for
    (summary, {table name: (header, rows)}, [Gate]).
    """

    schema: dict
    check: Callable
    scales: Callable
    prepare: Callable
    stage: Callable
    finish: Callable


SCHEMA = {
    "wellset-analysis": Scenario(
        {**_COMMON, **_WELLS},
        _check_wells, lambda cfg: [None],  # one stage, at no scale
        _config_only, _stage_wellset, _finish_wellset,
    ),
    "laminate-sweep": Scenario(
        {
            **_COMMON,
            **_WELLS,
            "m_list": ([8, 16, 32, 64], _scales(3)),
            "c1": (1.0, _POSITIVE),
            "slope_tolerance": (0.3, _POSITIVE),
            "perimeter_tolerance": (0.15, _POSITIVE),
            "laminate": {
                "volume_fraction": (0.5, _FRACTION),
                "connection": (0, _at_least(0)),
                "period": (None, _POSITIVE),
                "offset_frac": (0.0, _rule(_is_number, "a finite number")),
                "ripple": (0.004, _rule(lambda v: _is_number(v) and v >= 0, "a number >= 0")),
            },
        },
        _check_laminate, lambda cfg: cfg["m_list"],
        _prepare_laminate, _stage_laminate, _finish_laminate,
    ),
    "spin-lemma-suite": Scenario(
        {
            **_COMMON,
            **_WELLS,
            # a random laminate period needs two cells per layer
            "m": (16, _at_least(math.ceil(2.0 / _SPIN_PERIODS[0]))),
            "field_count": (1000, _at_least(1)),
        },
        _check_spin_suite, lambda cfg: [cfg["m"]],  # one stage
        lambda cfg, force: {**cfg, "threshold": cfg["wells"][0].c0 / 100.0},  # both scans'
        _stage_spin_suite, _finish_spin_suite,
    ),
    "rigidity-family": Scenario(
        {
            **_COMMON,
            "m_list": ([16, 32], _scales(1)),
            "family_size": (200, _at_least(1)),
            # rigidity_ratio needs p >= n/(n-1), which is 2 in the plane
            "p": (2.0, _rule(lambda v: _is_number(v) and v >= 2, "a number >= n/(n-1) = 2")),
            "block_grid": (4, _at_least(1)),
            "eps_values": ([1e-3, 5e-4, 2.5e-4, 1e-4], _EPS_VALUES),
        },
        _check_rigidity, lambda cfg: cfg["m_list"],
        _config_only, _stage_rigidity, _finish_rigidity,
    ),
    # each lattice scenario runs one model family; lattice.system names the
    # model within it
    "antiferro-sweep": Scenario(
        {
            **_COMMON,
            "lattice": {
                "system": ("antiferro-raw", _one_of("antiferro-raw", "antiferro-remapped")),
                "interfaces": (3, _at_least(0)),
                "m_list": ([64, 256, 1024], _scales(3)),
                "energy_constant": (None, _POSITIVE),
            },
        },
        _check_antiferro, lambda cfg: cfg["lattice"]["m_list"],
        _prepare_antiferro, _stage_lattice, _finish_antiferro,
    ),
    "lattice-sweep": Scenario(
        {
            **_COMMON,
            "lattice": {
                "system": ("synthetic-twin", _one_of("synthetic-twin")),
                "m_list": ([8, 12, 16], _scales(3)),
                "energy_constant": (None, _POSITIVE),
            },
        },
        _check_twin_lattice, lambda cfg: cfg["lattice"]["m_list"],
        _prepare_twin_lattice, _stage_lattice, _finish_twin_lattice,
    ),
}
SCENARIOS = tuple(SCHEMA)


def _rejected_out(raw, out_dir):
    """Where a rejected config's run would have written, if that can be
    told: out_dir, else the config's own out, else runs/<scenario>."""
    if out_dir:
        return Path(out_dir)
    if not isinstance(raw, dict):
        return None
    # an empty out is unset, as in a run
    if isinstance(raw.get("out"), str) and raw["out"]:
        return Path(raw["out"])
    scenario = raw.get("scenario")
    return Path("runs") / scenario if isinstance(scenario, str) and scenario in SCHEMA else None


def _write_run(out, summary, tables, digest, failure=None):
    """Replace a run's files in out: summary.json, digest.txt, error.txt
    and tables/*.csv, and nothing else."""
    out.mkdir(parents=True, exist_ok=True)
    # out may be a user directory such as ".": delete only what a run writes
    for name in ("summary.json", "digest.txt", "error.txt"):
        (out / name).unlink(missing_ok=True)
    for table in (out / "tables").glob("*.csv"):
        table.unlink()
    # numpy scalars and arrays all convert through tolist()
    text = json.dumps(summary, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    (out / "summary.json").write_text(text + "\n", encoding="utf-8")
    for name, (header, rows) in tables.items():
        write_csv(out / "tables" / f"{name}.csv", header, rows)
    if failure:
        (out / "error.txt").write_text(failure, encoding="utf-8")
    (out / "digest.txt").write_text("\n".join(digest) + "\n", encoding="utf-8")


@functools.cache
def _pin_heap():
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    the largest values its dynamic rule reaches on 64-bit, so that freed
    numpy temporaries stay in the heap and repeated runs reuse resident
    pages, whatever the allocation history. Once per process, from run();
    False, with nothing changed, where there is no glibc mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD = -3 and M_TRIM_THRESHOLD = -1; mallopt returns 1 when set
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


def run(source, force=False, out_dir=None):
    """Execute a scenario config and write its artifacts.

    Returns the exit code: 0 all gates passed, 1 a quantitative gate
    failed, 2 incompatible mesh without --force, 3 surface-energy bound
    violated, 4 invalid config or internal failure. A rejected config
    still replaces the files of an earlier run in its output directory,
    when that is known, with a summary of the problems.
    """
    return _run_resolved(*_resolve(source), force, out_dir)


def _run_resolved(problems, cfg, raw, force, out_dir):
    """run() on what _resolve returned for its config."""
    if problems:
        print("\n".join(f"config error: {p}" for p in problems))
        out = _rejected_out(raw, out_dir)
        if out is not None:
            summary = {"exit_code": EXIT_INTERNAL, "gates": {}, "problems": problems}
            _write_run(out, summary, {}, [f"CONFIG ERROR: {p}" for p in problems])
        return EXIT_INTERNAL
    _pin_heap()
    scenario = SCHEMA[cfg["scenario"]]
    out = Path(out_dir or cfg["out"] or Path("runs") / cfg["scenario"])
    failure = None
    try:
        ctx = scenario.prepare(cfg, force)
        rows = []
        for m in scenario.scales(cfg):
            rows += scenario.stage(ctx, m)
        summary, tables, gates = scenario.finish(ctx, rows)
        code = EXIT_OK if all(g.passed for g in gates) else EXIT_GATE_FAILED
    except IncompatibleMeshError as err:
        rep, code, tables = err.args[0], EXIT_INCOMPATIBLE_MESH, {}
        incompat = {"ok": False, "worst_alignment": rep.worst_alignment, "offenders": rep.offenders}
        summary = {"incompatibility": incompat}
        bound = f"<= 1 - delta0 = {1.0 - rep.delta0:.6g}; --force runs anyway"
        gates = [Gate("incompatible_mesh", False, rep.worst_alignment, bound)]
    except EnergyBoundError as err:
        code, tables = EXIT_ENERGY_BOUND, {}
        summary = {"energy_bound": {"m": err.m, "total": err.total, "allowed": err.allowed}}
        measured = f"H_m = {err.total:.6g} at m = {err.m}"
        gates = [Gate("energy_bound", False, measured, f"<= {err.allowed:.6g}")]
    except Exception as err:  # any other failure is reported, with its traceback
        code, tables, gates = EXIT_INTERNAL, {}, []
        summary = {"error": f"{type(err).__name__}: {err}"}
        failure = traceback.format_exc()

    verdicts = {}
    for g in gates:
        key = g.name.partition(".")[0]
        verdicts[key] = verdicts.get(key, True) and g.passed
    summary.update(scenario=cfg["scenario"], seed=cfg["seed"], exit_code=code, gates=verdicts)
    digest = [f"INTERNAL ERROR: {summary['error']}"] if failure else [g.line() for g in gates]
    _write_run(out, summary, tables, digest, failure)
    return code
