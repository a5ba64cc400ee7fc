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
import json
import math
import os
import traceback
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fields import (
    FieldError,
    build_laminate,
    check_gradients,
    evaluate_energy,
    laminate_profile,
    vertex_gradients,
)
from .lattice import (
    EnergyBoundError,
    LatticeError,
    antiferro_chain,
    antiferro_system,
    evaluate_hamiltonian,
    ground_state_deformation,
    lattice_partition_diagnostics,
    slip_sites,
    synthetic_twin_system,
    verify_h2,
)
from .mesh import (
    MAX_CELLS,
    MeshError,
    build_kuhn_mesh,
    check_incompatibility,
    find_admissible_rotation,
    kuhn_cell_estimate,
)
from .numerics import loglog_slope, ratio
from .rigidity import (
    IncompatibleField,
    build_reduced_field,
    bv_structure_check,
    field_from_blocks,
    random_block_values,
    rigidity_ratio,
    weak_norm_surrogate,
    weak_rigidity_ratio,
    fitted_rotation,
)
from .spin import (
    BAD_LABEL,
    cell_labels,
    classify,
    count_bad_cells,
    discrete_perimeter,
    extract_partition,
    spin_hits,
    verify_spin_lemma,
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

LATTICE_SYSTEMS = ("antiferro-raw", "antiferro-remapped", "synthetic-twin")

# random spin-lemma fields are laminates with periods drawn from this
# range, so a mesh needs m >= 2 / _SPIN_PERIODS[0] for two cells per layer
_SPIN_PERIODS = (0.3, 0.8)
_SPIN_KINDS = ("laminate", "rotated-laminate", "perturbed-laminate")
# cells in one block of spin-lemma fields; the suite's peak RSS grows by
# about 300 bytes per cell of the block (at m = 16, 9 fields per block)
_SPIN_BLOCK_CELLS = 2**12


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


# -- config schema -----------------------------------------------------
#
# One table per scenario maps each allowed key to (default, check), or to
# the nested table of an object-valued key. A check returns None for a
# good value and the problem otherwise. validate_config walks the table;
# run hands each runner the config with every default filled in, and with
# "wells", where the scenario has it, replaced by the well set and lattice
# rotation that validation built (see _check_wells).


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
        "delta0": (None, _FRACTION),
    },
    "wells_file": (None, _STRING),
    "delta0": (0.05, _FRACTION),
}


def _lattice_table(system):
    names = ", ".join(LATTICE_SYSTEMS)
    systems = _rule(lambda v: isinstance(v, str) and v in LATTICE_SYSTEMS, f"one of {names}")
    return {
        **_COMMON,
        "m_list": (None, _scales(3)),
        "lattice": {
            "system": (system, systems),
            "interfaces": (3, _at_least(0)),
            "m_list": (None, _scales(3)),
            "energy_constant": (None, _POSITIVE),
        },
    }


SCHEMA = {
    "wellset-analysis": {**_COMMON, **_WELLS},
    "laminate-sweep": {
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
    "spin-lemma-suite": {
        **_COMMON,
        **_WELLS,
        # a random laminate period needs two cells per layer
        "m": (16, _at_least(math.ceil(2.0 / _SPIN_PERIODS[0]))),
        "field_count": (1000, _at_least(1)),
    },
    "rigidity-family": {
        **_COMMON,
        "m_list": ([16, 32], _scales(1)),
        "family_size": (200, _at_least(1)),
        # rigidity_ratio needs p >= n/(n-1), which is 2 in the plane
        "p": (2.0, _rule(lambda v: _is_number(v) and v >= 2, "a number >= n/(n-1) = 2")),
        "block_grid": (4, _at_least(1)),
        "eps_values": ([1e-3, 5e-4, 2.5e-4, 1e-4], _EPS_VALUES),
    },
    # the scenario name only picks the default lattice.system
    "antiferro-sweep": _lattice_table("antiferro-raw"),
    "lattice-sweep": _lattice_table("synthetic-twin"),
}
SCENARIOS = tuple(SCHEMA)


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


def _well_set(cfg):
    """The configured WellSet: inline wells, or the document at wells_file."""
    doc = cfg["wells"]
    if cfg["wells_file"] is not None:
        doc = json.loads(Path(cfg["wells_file"]).read_text(encoding="utf-8"))
    return WellSet(doc["wells"], delta0=doc.get("delta0") or cfg["delta0"])


def _check_wells(raw, cfg):
    """(problems, (WellSet, AdmissibleRotation) or None): build the well
    set, solve its twins and find its lattice rotation, so that a bad one
    fails validation and not a run. delta0 must leave an admissible facet
    normal, laminate-sweep needs its twin index in range and
    spin-lemma-suite a twin to draw its laminates from. The runners take
    the pair, so a wells_file is read once per run."""
    name = "wells" if cfg["wells_file"] is None else "wells_file"
    if name == "wells_file" and raw.get("wells") is not None:
        return ["wells: give either inline wells or wells_file, not both"], None
    try:
        ws = _well_set(cfg)
        if ws.dim != 2 or _FRACTION(ws.delta0):
            return [f"{name}: must hold 2x2 wells and a delta0 in (0, 1)"], None
        twins = ws.twin_normals()
    except (OSError, ValueError, LookupError, TypeError) as err:
        return [f"{name}: {err}"], None
    if not admissible_normal_intervals(twins, ws.delta0):
        bound = "|b . t| <= 1 - delta0 for every twin normal t"
        return [f"delta0: {ws.delta0} leaves no facet normal b with {bound}"], None
    if cfg["scenario"] == "laminate-sweep" and cfg["laminate"]["connection"] >= len(ws.connections):
        return [f"laminate.connection: must be below {len(ws.connections)}, the twin count"], None
    if cfg["scenario"] == "spin-lemma-suite" and not ws.connections:
        return [f"{name}: spin-lemma-suite laminates along twins, and these wells have none"], None
    try:
        rot = find_admissible_rotation(ws)
    except MeshError as err:
        return [f"{name}: {err}"], None
    ws.c0  # dbar, once, for every run's classification threshold
    if cfg["scenario"] == "wellset-analysis":
        return [], (ws, rot)
    return _check_mesh_budget(cfg, rot.rotation), (ws, rot)


def _check_period(cfg):
    """build_laminate needs two cells per layer on the coarsest mesh."""
    period, m = cfg["laminate"]["period"], cfg["m_list"][0]
    if period is not None and period < 2.0 / m:
        return [f"laminate.period: must be at least 2 / m_list[0] = {2.0 / m:g}"]
    return []


def _check_mesh_budget(cfg, rotation=None):
    """The first scale whose mesh, as build_kuhn_mesh estimates it, has
    more cells than its budget."""
    key = "m" if "m" in cfg else "m_list"
    for m in [cfg[key]] if key == "m" else cfg[key]:
        # past the budget m alone rules the mesh out (it has over m^2
        # cells), and the float estimate would overflow for huge m
        cells = None if m > MAX_CELLS else kuhn_cell_estimate(2, m, lattice_rotation=rotation)
        if cells is None or cells > MAX_CELLS:
            need = f"over {MAX_CELLS}" if cells is None else f"an estimated {cells}"
            return [f"{key}: the mesh at m = {m} needs {need} cells, the budget is {MAX_CELLS}"]
    return []


# The memory a lattice or rigidity-family run may ask for: above the peak of a
# mesh at the MAX_CELLS budget (build_kuhn_mesh peaks at 280 bytes per cell at
# m = 256 and m = 512 under tracemalloc, edge inverses included, 1.1 GB at
# 4,000,000 cells). Each size budget below divides it by the peak bytes per
# unit of the scenario's largest allocations, measured with tracemalloc on
# whole runs and rounded up: 98 per antiferro chain site (at 2^18 and 2^20
# sites), 1,740 to 1,790 per twin lattice site (at m = 128 and 192, the
# stacked patches of the rotation match), and 210 to 217 per rigidity block
# (block_grid 512, 1 to 16 members; a member's values are drawn when it is
# measured, and only the first one's stay alive).
MEMORY_BUDGET = 2_000_000_000
MAX_CHAIN_SITES = MEMORY_BUDGET // 100
MAX_TWIN_SITES = MEMORY_BUDGET // 1_800
MAX_BLOCKS = MEMORY_BUDGET // 224


def _check_lattice_budget(cfg):
    """The first scale whose lattice has more sites than its budget."""
    lat = cfg["lattice"]
    key = "lattice.m_list" if lat["m_list"] else "m_list"
    twin = lat["system"] == "synthetic-twin"
    budget = MAX_TWIN_SITES if twin else MAX_CHAIN_SITES
    for m in _lattice_scales(cfg):
        # the twin lattice has (m + 1)^2 sites, a chain m
        sites = (m + 1) ** 2 if twin else m
        if sites > budget:
            return [f"{key}: the lattice at m = {m} has {sites} sites, the budget is {budget}"]
    return []


def _check_block_budget(cfg):
    """rigidity-family draws block_grid^2 blocks for each family member."""
    grid, family = cfg["block_grid"], cfg["family_size"]
    if grid**2 > MAX_BLOCKS:
        blocks = f"{grid}^2 = {grid**2} blocks for each of {family} fields"
        return [f"block_grid: {blocks}, the budget is {MAX_BLOCKS}"]
    return []


def _lattice_scales(cfg):
    """lattice.m_list, else the top-level m_list, else the system's default."""
    lat = cfg["lattice"]
    default = [8, 12, 16] if lat["system"] == "synthetic-twin" else [64, 256, 1024]
    return lat["m_list"] or cfg["m_list"] or default


def _interface_fractions(k):
    """k antiphase boundaries evenly spaced along the chain."""
    return [float(i + 1) / (k + 1) for i in range(k)]


def _check_interfaces(raw, cfg):
    """The twin system plants no interfaces; an antiferro chain needs its
    interfaces on distinct sites at every scale."""
    lat = cfg["lattice"]
    if lat["system"] == "synthetic-twin":
        # the schema fills in interfaces, so only the raw config tells
        # whether one was given to a model that plants none
        if "interfaces" in (raw.get("lattice") or {}):
            return ["lattice.interfaces: the synthetic-twin system plants no interfaces"]
        return []
    k = lat["interfaces"]
    for m in _lattice_scales(cfg):
        if k > m:  # checked first: k may be too large to list
            return [f"lattice.interfaces: at m = {m}, {k} interfaces cannot take distinct sites"]
        try:
            slip_sites(m, _interface_fractions(k))
        except LatticeError as err:
            return [f"lattice.interfaces: at m = {m}, {err}"]
    return []


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
    cfg = _walk(SCHEMA[scenario], raw, "", problems)
    if not problems and scenario == "laminate-sweep":
        problems = _check_period(cfg)
    if not problems and "wells" in cfg:
        problems, cfg["wells"] = _check_wells(raw, cfg)
    if not problems and "lattice" in cfg:
        problems = _check_lattice_budget(cfg) or _check_interfaces(raw, cfg)
    if not problems and scenario == "rigidity-family":
        problems = _check_block_budget(cfg) or _check_mesh_budget(cfg)
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


# -- scenarios ---------------------------------------------------------
#
# Each runner takes the config with defaults filled in and the --force flag
# and returns (summary, {table name: (header, rows)}, [Gate]).


def _run_wellset_analysis(cfg, force):
    ws, rot = cfg["wells"]
    rows = [
        (c.i, c.j, *c.rotation.reshape(-1), *c.a, *c.b, c.residual(ws), c.multiplicity)
        for c in ws.connections
    ]
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


def _run_laminate_sweep(cfg, force):
    ws, rot = cfg["wells"]
    m_list, c1, lam = cfg["m_list"], cfg["c1"], cfg["laminate"]

    mesh0 = build_kuhn_mesh(2, m_list[0], lattice_rotation=rot.rotation)
    incompat = check_incompatibility(mesh0, ws, ws.delta0)
    if not incompat.ok and not force:
        raise IncompatibleMeshError(incompat)

    conn = ws.connections[lam["connection"]]
    pair = (conn.i, conn.j)  # the two wells the laminate alternates
    proj = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]) @ conn.b
    # default: one full period across the domain span, i.e. two layers and
    # a single interior interface; coarse meshes resolve that fastest
    period = lam["period"] or (proj.max() - proj.min())
    offset = proj.min() + lam["offset_frac"] * period
    vf, ripple = lam["volume_fraction"], lam["ripple"]
    rows, chebyshev = [], []
    for m in m_list:
        mesh = mesh0 if m == mesh0.m else build_kuhn_mesh(2, m, lattice_rotation=rot.rotation)
        fld = build_laminate(mesh, ws, conn, vf, period, offset=offset, ripple=ripple)
        rep = evaluate_energy(fld, ws, c1=c1)
        lab = classify(fld, ws)
        part = extract_partition(fld, lab, ws)
        macro = part.macroscopic(0.01 * mesh.effective_volume)
        n_bad = count_bad_cells(lab)
        lhs = n_bad * (ws.c0 / 100.0) ** 2 * c1 * float(mesh.volumes.min())
        chebyshev.append((lhs, rep.total))
        fitted = [c.residual for c in macro if c.residual is not None]
        row = {
            "m": m,
            "energy": rep.total,
            "bad_count": n_bad,
            "bad_volume": lab.bad_volume,
            "components": len(macro),
            "max_residual": max(fitted, default=0.0),
        }
        for j in pair:
            row[f"perimeter_w{j}"] = discrete_perimeter(lab, j)
            row[f"perimeter_interior_w{j}"] = discrete_perimeter(
                lab, j, include_boundary=False
            )
            reduced = build_reduced_field(fld, lab, j, ws)
            bv = bv_structure_check(reduced)
            row[f"curl_w{j}"] = bv.curl_total
            row[f"dv_curl_ratio_w{j}"] = bv.ratio
        rows.append(row)

    def column(key):
        return [r[key] for r in rows]

    tol, perim_tol = cfg["slope_tolerance"], cfg["perimeter_tolerance"]
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
    excess = max(lhs - energy for lhs, energy in chebyshev)
    bounded = all(lhs <= energy for lhs, energy in chebyshev)
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
    kind."""
    draws = []
    for _ in range(count):
        conn = ws.connections[int(rng.integers(0, len(ws.connections)))]
        vf = float(rng.uniform(0.25, 0.75))
        period = float(rng.uniform(*_SPIN_PERIODS))
        offset = float(rng.uniform(0.0, period))
        kind = int(rng.integers(0, 3))
        # every kind draws the rotation, so the stream does not depend on kind
        normal = rng.standard_normal((2, 2))
        waves = rng.uniform(1.0, 3.0, 2) if kind == 2 else None
        draws.append((conn, vf, period, offset, kind, normal, waves))
    return draws


def _spin_gradients(mesh, ws, draws, ids):
    """(B, C, 2, 2) gradients of a block of random spin fields, checked.

    Each field is the laminate of its twin (build_laminate's deformation
    without ripple); the rotated kind composes it with its rotation, and
    the perturbed kind rotates its vertex values and adds a smooth wave of
    amplitude c0/1000 before differentiating.
    """
    conns, vf, period, offset, kind, normals, waves = zip(*draws)
    vf, period, offset = (np.array(v)[:, None] for v in (vf, period, offset))
    kind = np.array(kind)
    rot = rotations_from_normals(np.array(normals))
    short = (kind < 2) & (period[:, 0] < 2.0 / mesh.m)
    if short.any():
        fid = ids[np.argmax(short)]
        raise FieldError(f"field {fid}: laminate period below two cells per layer")
    x = mesh.vertices
    ui = np.array([ws.matrices[c.i] for c in conns])
    b = np.array([c.b for c in conns])[..., None]
    a = np.array([c.a for c in conns])[:, None, :]
    g = laminate_profile((x @ b)[..., 0], vf, period, offset)  # (B, V)
    values = x @ np.swapaxes(ui, -1, -2) + g[..., None] * a
    wavy = kind == 2
    if wavy.any():
        kx, ky = np.array([w for w in waves if w is not None]).T[..., None]
        wave = np.stack([np.sin(kx * np.pi * x[:, 0]), np.cos(ky * np.pi * x[:, 1])], -1)
        values[wavy] = values[wavy] @ np.swapaxes(rot[wavy], -1, -2) + ws.c0 / 1000.0 * wave
    grads = vertex_gradients(mesh, values)
    turned = kind == 1
    grads[turned] = rot[turned, None] @ grads[turned]
    check_gradients(mesh, grads, ids=ids)
    return grads


def _spin_suite_rows(mesh, ws, rng, count, threshold):
    """One table row per random spin field on mesh: field id, kind, volume
    fraction, period, offset, spin-lemma violations and BAD cells under
    threshold. Fields are drawn and scanned in blocks of about
    _SPIN_BLOCK_CELLS cells, which give the same rows as one at a time."""
    rows = []
    per_block = max(1, _SPIN_BLOCK_CELLS // mesh.n_cells)
    for start in range(0, count, per_block):
        draws = _draw_spin_fields(ws, rng, min(per_block, count - start))
        grads = _spin_gradients(mesh, ws, draws, range(start, start + len(draws)))
        table = dist_table(grads, ws.matrices)
        _, labels = cell_labels(table, threshold)
        scan = spin_hits(mesh, table, labels, threshold)
        violations = sum(hits.sum(axis=-1) for *_, hits in scan)
        bad = (labels == BAD_LABEL).sum(axis=-1)
        for k, (_, vf, period, offset, kind, _, _) in enumerate(draws):
            rows.append(
                (start + k, _SPIN_KINDS[kind], vf, period, offset, int(violations[k]), int(bad[k]))
            )
    return rows


def _run_spin_lemma_suite(cfg, force):
    ws, rot = cfg["wells"]
    m = cfg["m"]
    count = cfg["field_count"]
    rng = substream(cfg["seed"], "spin-lemma-suite")
    mesh = build_kuhn_mesh(2, m, lattice_rotation=rot.rotation)
    rows = _spin_suite_rows(mesh, ws, rng, count, ws.c0 / 100.0)
    total_violations = sum(row[5] for row in rows)

    # adversarial: twin normal aligned with the unrotated diagonal facets
    aligned_mesh = build_kuhn_mesh(2, 8)
    diag = np.array([1.0, -1.0]) / np.sqrt(2.0)
    conn = max(ws.connections, key=lambda c: abs(c.b @ diag))
    spacing = 1.0 / (np.sqrt(2.0) * aligned_mesh.m)
    offset = float((aligned_mesh.vertices @ conn.b).min())
    adv = build_laminate(aligned_mesh, ws, conn, 0.5, 4 * spacing, offset=offset)
    adv_lab = classify(adv, ws)
    adv_violations = verify_spin_lemma(adv, adv_lab, ws)

    summary = {
        "field_count": count,
        "m": m,
        "total_violations": total_violations,
        "aligned_violations": len(adv_violations),
    }
    header = ["field_id", "kind", "volume_fraction", "period", "offset", "violations", "bad_cells"]
    gates = [
        Gate("no_violations_on_admissible", total_violations == 0, total_violations, "0"),
        Gate("violations_on_aligned", len(adv_violations) >= 1, len(adv_violations), ">= 1"),
    ]
    return summary, {"fields": (header, rows)}, gates


def _run_rigidity_family(cfg, force):
    m_list = cfg["m_list"]
    size = cfg["family_size"]
    p = cfg["p"]
    rng = substream(cfg["seed"], "rigidity-family")
    meshes = {m: build_kuhn_mesh(2, m) for m in m_list}

    rows = []
    max_ratio = {m: 0.0 for m in m_list}
    for fid in range(size):
        blocks_values = random_block_values(rng, cfg["block_grid"])
        if fid == 0:
            first = blocks_values
        for m in m_list:
            rep = rigidity_ratio(field_from_blocks(meshes[m], blocks_values), p=p)
            rows.append((fid, m, p, rep.lhs, rep.rhs, rep.ratio))
            max_ratio[m] = max(max_ratio[m], rep.ratio)

    # epsilon sweep around a fixed rotation
    mesh = meshes[m_list[0]]
    noise_rng = substream(cfg["seed"], "rigidity-eps")
    noise = noise_rng.uniform(-1.0, 1.0, (mesh.n_cells, 2, 2))
    noise /= np.linalg.norm(noise, axis=(1, 2), keepdims=True)
    r0 = random_rotation(noise_rng, 2)
    eps_rows = []
    eps_values = cfg["eps_values"]
    lhs_values = []
    for eps in eps_values:
        fld = IncompatibleField(mesh=mesh, values=r0[None] + eps * noise)
        rep = rigidity_ratio(fld, p=p)
        eps_rows.append((eps, rep.lhs, rep.rhs, rep.ratio))
        lhs_values.append(rep.lhs)
    eps_slope, _ = loglog_slope(eps_values, lhs_values)

    # weak-norm surrogate refinement stability on the first family member
    fld0 = field_from_blocks(mesh, first)
    rot0 = fitted_rotation(fld0)
    mags = np.linalg.norm(fld0.values - rot0, axis=(1, 2))
    coarse = weak_norm_surrogate(mags, fld0.cell_volumes(), 2, levels=64)
    fine = weak_norm_surrogate(mags, fld0.cell_volumes(), 2, levels=256)
    weak = weak_rigidity_ratio(fld0)

    ratios_sorted = [max_ratio[m] for m in m_list]
    spread = max(ratios_sorted) / min(ratios_sorted)
    n_infinite = sum(not math.isfinite(row[-1]) for row in rows)
    # lhs ~ eps^p near a rotation; at p = 2 this is the [1.8, 2.2] gate
    power_p = abs(eps_slope - p) <= 0.1 * p
    weak_stable = abs(fine - coarse) <= 0.05 * max(fine, 1e-300)
    gates = [
        Gate("ratios_finite", n_infinite == 0, f"{n_infinite} not finite", "0"),
        Gate("max_ratio_scale_stable", spread <= 2.0, ratios_sorted, "max/min <= 2"),
        Gate("eps_slope_power_p", power_p, eps_slope, f"{p:g} +- {0.1 * p:g}"),
        Gate("weak_surrogate_stable", weak_stable, [coarse, fine], "64 -> 256 levels within 5%"),
        Gate("weak_ratio_finite", math.isfinite(weak["ratio"]), weak["ratio"], "finite"),
    ]
    summary = {
        "family_size": size,
        "p": p,
        "max_ratio": {str(m): max_ratio[m] for m in m_list},
        "eps_slope": eps_slope,
        "weak_ratio": weak["ratio"],
    }
    tables = {
        "rigidity": (["field_id", "m", "p", "lhs", "rhs", "ratio"], rows),
        "eps_sweep": (["eps", "lhs", "rhs", "ratio"], eps_rows),
    }
    return summary, tables, gates


def _run_lattice(cfg, force):
    """antiferro-sweep and lattice-sweep: lattice.system picks the model."""
    lat = cfg["lattice"]
    twin = lat["system"] == "synthetic-twin"
    m_list = _lattice_scales(cfg)
    energy_constant = lat["energy_constant"]
    if twin:
        system = synthetic_twin_system()
        # the twin model draws from this stream under either scenario name
        angle = float(substream(cfg["seed"], "lattice-sweep").uniform(0.0, 2.0 * np.pi))
        rot = rotation_2d(angle)

        def sample(m):
            return ground_state_deformation(system, 0, (m + 1, m + 1), m=m, rotation=rot)

        components, summary, gates = 1, {"system": system.name, "rotation_angle": angle}, []
    else:
        variant = lat["system"].replace("antiferro-", "")
        system = antiferro_system(variant)
        k = lat["interfaces"]
        fracs = _interface_fractions(k)
        if energy_constant is None:
            energy_constant = 2.0 * k + 2.0
        components = k + 1
        ground = antiferro_chain(system, m=m_list[0])
        ground_energy = evaluate_hamiltonian(ground, system).total
        h2 = verify_h2(system)
        single = antiferro_chain(system, m=m_list[0], interfaces=(0.5,))
        defect_total = evaluate_hamiltonian(single, system).total

        def sample(m):
            return antiferro_chain(system, m=m, interfaces=fracs)

        h2_keys = ("c", "p", "n_windows", "exhaustive", "violations")
        summary = {
            "variant": variant,
            "interfaces": fracs,
            "h2": {key: getattr(h2, key) for key in h2_keys},
        }
        h2_measured = f"c = {h2.c:.4f} over {h2.n_windows} windows (exhaustive={h2.exhaustive})"
        gates = [
            Gate("ground_energy_zero", ground_energy == 0.0, ground_energy, "== 0"),
            Gate("h2_ok", h2.ok, h2_measured, "c > 0 and no violating window"),
            Gate("single_defect_energy", defect_total == 2.0 / m_list[0], defect_total, "== 2/m"),
        ]

    # each deformation is built when its scale is diagnosed, and freed after
    samples = ((m, sample(m)) for m in m_list)
    records = lattice_partition_diagnostics(samples, system, energy_constant=energy_constant)
    volumes = [r["boundary_volume"] for r in records]
    tol = 0.3 if twin else 0.2
    boundary = ScalingReport.fit("boundary_volume", [r["m"] for r in records], volumes, -1.0, tol)
    counts = [r["n_components"] for r in records]
    adjacency = [len(r["adjacency_violations"]) for r in records]
    no_adjacency = all(not r["adjacency_violations"] for r in records)
    name = "single_component" if twin else "components_k_plus_1"
    gates += [
        Gate(name, all(c == components for c in counts), counts, f"{components} at every m"),
        boundary.gate("boundary_volume_slope"),
        Gate("no_adjacency_violations", no_adjacency, adjacency, "0"),
    ]
    if twin:
        residuals = [
            c.residual for r in records for c in r["components"] if c.rotation is not None
        ]
        grounded = not any(x > 1e-9 for x in residuals)
        gates.append(Gate("ground_residual_zero", grounded, max(residuals, default=0.0), "<= 1e-9"))

    # the 2-D twin sweep records no perimeter total
    columns = ["m", "energy", "bad_volume", "boundary_volume", "components"]
    columns += ["adjacency_violations"] if twin else ["perimeter_total", "adjacency_violations"]
    rows = [
        (r["m"], r["energy"], r["bad_volume"], r["boundary_volume"], r["n_components"])
        + (() if twin else (sum(r["perimeters"].values()),))
        + (len(r["adjacency_violations"]),)
        for r in records
    ]
    summary["boundary_volume"] = boundary.to_dict()
    return summary, {"sweep": (columns, rows)}, gates


_RUNNERS = {
    "wellset-analysis": _run_wellset_analysis,
    "laminate-sweep": _run_laminate_sweep,
    "spin-lemma-suite": _run_spin_lemma_suite,
    "rigidity-family": _run_rigidity_family,
    "antiferro-sweep": _run_lattice,
    "lattice-sweep": _run_lattice,
}


def _rejected_out(raw, out_dir):
    """Where a rejected config's run would have written, if that can be
    told: out_dir, else the config's own out, else runs/<scenario>."""
    if out_dir:
        return Path(out_dir)
    if not isinstance(raw, dict):
        return None
    if isinstance(raw.get("out"), str):
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
    scenario = cfg["scenario"]
    out = Path(out_dir or cfg["out"] or Path("runs") / scenario)
    failure = None
    try:
        summary, tables, gates = _RUNNERS[scenario](cfg, force)
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
    summary.update(scenario=scenario, seed=cfg["seed"], exit_code=code, gates=verdicts)
    digest = [f"INTERNAL ERROR: {summary['error']}"] if failure else [g.line() for g in gates]
    _write_run(out, summary, tables, digest, failure)
    return code
