"""Spans around wellspin's public functions, recorded from outside.

The tracer replaces a public function by a wrapper in every loaded
``wellspin`` module that holds it, which covers both the defining module
and every module that imported the name (``from .wells import ...``).
Each call becomes one span: name, round, parent span, start, end, and a
work count. The program itself is not changed; ``uninstall`` puts every
original back.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans, so the self times of all layers,
including ``harness.run_self_s`` for the root ``run()`` spans, add up to
the traced wall time of the ``run()`` calls.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np


def _matrices(args, kwargs, result):
    return int(np.prod(np.shape(args[0])[:-2]))


def _mesh_work(args, kwargs, result):
    return result.n_cells, len(result.facet_cells)


def _sites(args, kwargs, result):
    return int(result.labels.size)


# layer metric -> the wellspin functions whose spans it sums, as
# "module:qualified.name"; an optional count hook records work per call
LAYERS = {
    "wells.solve_all_connections_s": ["wells:solve_all_connections"],
    "wells.compute_dbar_s": ["wells:compute_dbar"],
    "wells.dist_to_wells_batch_s": [
        "wells:dist_to_wells_batch",
        "wells:dist_to_single_well_batch",
    ],
    "mesh.find_admissible_rotation_s": ["mesh:find_admissible_rotation"],
    "mesh.build_kuhn_mesh_s": ["mesh:build_kuhn_mesh"],
    "mesh.check_incompatibility_s": ["mesh:check_incompatibility"],
    "fields.field_build_s": [
        "fields:build_laminate",
        "fields:PWAffineField.from_vertex_function",
        "fields:PWAffineField.rotated",
    ],
    "fields.evaluate_energy_s": ["fields:evaluate_energy"],
    "spin.classify_s": ["spin:classify"],
    "spin.verify_spin_lemma_s": ["spin:verify_spin_lemma"],
    "spin.extract_partition_s": ["spin:extract_partition"],
    "spin.discrete_perimeter_s": ["spin:discrete_perimeter"],
    "rigidity.build_reduced_field_s": ["rigidity:build_reduced_field"],
    "rigidity.curl_total_variation_s": ["rigidity:curl_total_variation"],
    "rigidity.bv_structure_check_s": ["rigidity:bv_structure_check"],
    "lattice.deformation_build_s": [
        "lattice:antiferro_chain",
        "lattice:ground_state_deformation",
    ],
    "lattice.evaluate_hamiltonian_s": ["lattice:evaluate_hamiltonian"],
    "lattice.verify_h2_s": ["lattice:verify_h2"],
    "lattice.classify_lattice_s": ["lattice:classify_lattice"],
    "lattice.lattice_partition_diagnostics_s": ["lattice:lattice_partition_diagnostics"],
    "numerics.golden_min_s": ["numerics:golden_min"],
}
ROOT_SPAN = "harness:run"
ROOT_METRIC = "harness.run_self_s"

COUNT_HOOKS = {
    "wells:dist_to_single_well_batch": _matrices,
    "mesh:build_kuhn_mesh": _mesh_work,
    "lattice:classify_lattice": _sites,
}

# work counts, read from the spans in layer_totals
COUNTS = (
    "wells.dist_calls",
    "wells.dist_matrices",
    "mesh.cells",
    "mesh.facets",
    "fields.fields_built",
    "lattice.sites",
    "numerics.golden_min_calls",
)
# the traced run_s (the sum of all self times) and its excess over the
# untraced rounds of the same process; the worker fills these in
TOTALS = ("trace.run_s", "trace.overhead_s")


def metric_names():
    """Every per-layer metric the tracer reports, with its unit."""
    names = {name: "s" for name in LAYERS}
    names[ROOT_METRIC] = "s"
    names.update({name: "count" for name in COUNTS})
    names.update({name: "s" for name in TOTALS})
    return names


class Span:
    __slots__ = ("name", "round", "parent", "start", "end", "work")

    def __init__(self, name, round_id, parent):
        self.name = name
        self.round = round_id
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.work = None

    def to_list(self):
        return [self.name, self.round, self.parent, self.start, self.end, self.work]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans = []
        self.round = -1
        self._stack = []
        self._patches = []

    def span(self, name, fn, count=None):
        """fn wrapped so that each call records one span named name."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, self.round, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                span.work = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function wherever a wellspin module holds it."""
        targets = [ref for refs in LAYERS.values() for ref in refs]
        for ref in targets:
            module_name, qualname = ref.split(":")
            module = importlib.import_module(f"wellspin.{module_name}")
            if "." in qualname:
                self._install_method(ref, module, *qualname.split("."))
            else:
                original = getattr(module, qualname)
                wrapper = self.span(ref, original, COUNT_HOOKS.get(ref))
                self._replace_everywhere(original, wrapper)

    def _install_method(self, ref, module, class_name, attr):
        cls = getattr(module, class_name)
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapper = classmethod(self.span(ref, original.__func__))
        else:
            wrapper = self.span(ref, original)
        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, original))

    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "wellspin" and not name.startswith("wellspin."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_totals(spans):
    """Self time per layer metric and work counts, summed over spans."""
    metric_of = {ref: name for name, refs in LAYERS.items() for ref in refs}
    metric_of[ROOT_SPAN] = ROOT_METRIC
    field_refs = set(LAYERS["fields.field_build_s"])
    totals = dict.fromkeys([*LAYERS, ROOT_METRIC, *COUNTS], 0.0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    for k, span in enumerate(spans):
        totals[metric_of[span.name]] += span.end - span.start - child_time[k]
        if span.name == "wells:dist_to_single_well_batch":
            totals["wells.dist_calls"] += 1
            totals["wells.dist_matrices"] += span.work
        elif span.name == "mesh:build_kuhn_mesh":
            totals["mesh.cells"] += span.work[0]
            totals["mesh.facets"] += span.work[1]
        elif span.name == "lattice:classify_lattice":
            totals["lattice.sites"] += span.work
        elif span.name == "numerics:golden_min":
            totals["numerics.golden_min_calls"] += 1
        elif span.name in field_refs and (
            span.parent < 0 or spans[span.parent].name not in field_refs
        ):
            totals["fields.fields_built"] += 1
    return totals


def root_time(spans):
    """Summed wall time of the root run() spans."""
    return sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
