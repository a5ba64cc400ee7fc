"""Tests for the experiment harness: configs, scenarios, determinism."""

import ctypes
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidity_reference
from wellspin import harness, spin
from wellspin.fields import build_laminate
from wellspin.harness import (
    EXIT_ENERGY_BOUND,
    EXIT_GATE_FAILED,
    EXIT_INCOMPATIBLE_MESH,
    EXIT_INTERNAL,
    EXIT_OK,
    SCENARIOS,
    SCHEMA,
    ScalingReport,
    format_float,
    run,
    substream,
    validate_config,
    write_csv,
)
from wellspin.lattice import (
    LatticeError,
    antiferro_chain,
    antiferro_system,
    lattice_partition_diagnostics,
)
from wellspin.mesh import build_kuhn_mesh

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def schema_keys(table):
    """Every key of a schema table, nested tables included."""
    keys = set()
    for key, spec in table.items():
        keys.add(key)
        if isinstance(spec, dict):
            keys |= schema_keys(spec)
    return keys


ALL_KEYS = sorted(set().union(*(schema_keys(s.schema) for s in SCHEMA.values())))
# config keys: the schema's own, so that nested tables get walked, or typos
KEYS = st.sampled_from(ALL_KEYS) | st.text(max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


def small_wells():
    return {
        "dim": 2,
        "wells": [[[2.0, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 2.0]]],
        "delta0": 0.05,
    }


class TestValidate:
    def test_example_configs_valid(self):
        for path in CONFIG_DIR.glob("*.json"):
            assert validate_config(path) == [], path.name

    def test_unknown_scenario(self):
        assert validate_config({"scenario": "nope", "seed": 1})

    def test_short_m_list_for_slope_scenario(self):
        problems = validate_config(
            {
                "scenario": "laminate-sweep",
                "seed": 1,
                "wells": small_wells(),
                "m_list": [8, 16],
            }
        )
        assert any("m_list" in p for p in problems)

    def test_negative_delta0(self):
        cfg = {"scenario": "wellset-analysis", "seed": 1, "wells": small_wells()}
        cfg["wells"]["delta0"] = -0.5
        problems = validate_config(cfg)
        assert any("delta0" in p for p in problems)

    def test_unsorted_m_list(self):
        problems = validate_config(
            {
                "scenario": "antiferro-sweep",
                "seed": 1,
                "m_list": [64, 32, 128],
            }
        )
        assert any("m_list" in p for p in problems)

    def test_minimal_valid(self):
        assert validate_config({"scenario": "antiferro-sweep", "seed": 7}) == []

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"scenario": "laminate-sweep", "wells": [1]}, "wells"),
            ({"scenario": "antiferro-sweep", "lattice": [1]}, "lattice"),
            ({"scenario": "wellset-analysis", "delta0": "x"}, "delta0"),
            ({"scenario": "laminate-sweep", "m_lst": [8, 16, 32]}, "m_lst"),
            ({"scenario": "laminate-sweep", "laminate": {"connection": 2}}, "laminate.connection"),
            (
                {"scenario": "spin-lemma-suite", "wells": {"wells": [[[1.0, 0.0], [0.0, np.nan]]]}},
                "wells",
            ),
            ({"scenario": "rigidity-family", "c1": 1.0}, "c1"),
            # the twin normals of the default wells leave no admissible
            # facet normal once delta0 exceeds 1 - 1/sqrt(2)
            ({"scenario": "wellset-analysis", "wells": {"delta0": 0.9}}, "delta0"),
            ({"scenario": "spin-lemma-suite", "wells": {"delta0": 0.3}}, "delta0"),
            ({"scenario": "laminate-sweep", "wells": {"delta0": 0.5}}, "delta0"),
            # random laminate periods from 0.3 need two cells per layer
            ({"scenario": "spin-lemma-suite", "m": 2}, "m"),
            ({"scenario": "spin-lemma-suite", "m": 6}, "m"),
            # |diag(1e200, 1e-200)|_F overflows, and with it every scale of
            # the twin solver
            (
                {"scenario": "wellset-analysis", "wells": {"wells": [[[1e200, 0], [0, 1e-200]], [[1, 0], [0, 1]]]}},
                "wells",
            ),
            # build_laminate needs two cells per layer at m_list[0] = 8
            ({"scenario": "laminate-sweep", "laminate": {"period": 1e-9}}, "laminate.period"),
            # one phase has zero energy at every m, which no slope fits
            ({"scenario": "laminate-sweep", "laminate": {"volume_fraction": 1.0}}, "laminate.volume_fraction"),
            # a finite norm, but the distance kernel's sums of squares overflow
            (
                {"scenario": "wellset-analysis", "wells": {"wells": [[[1.3e154, 0], [0, 1]], [[1, 0], [0, 1.3e154]]]}},
                "wells",
            ),
            # the eps sweep's log-log fit needs a spread: equal or ulp-close
            # values made polyfit rank-deficient (a RankWarning and no slope)
            ({"scenario": "rigidity-family", "eps_values": [0.0078125, 0.0078125]}, "eps_values"),
            ({"scenario": "rigidity-family", "eps_values": [1e-3, 1.0000000000000002e-3]}, "eps_values"),
            ({"scenario": "rigidity-family", "eps_values": []}, "eps_values"),
            # each setting has one key: delta0 lives in the wells document,
            # the lattice scales in lattice.m_list, and each lattice
            # scenario runs one model family
            ({"scenario": "wellset-analysis", "wells": {"delta0": "x"}}, "wells.delta0"),
            ({"scenario": "wellset-analysis", "delta0": 0.05}, "delta0: unknown key"),
            ({"scenario": "lattice-sweep", "m_list": [8, 12, 16]}, "m_list: unknown key"),
            ({"scenario": "antiferro-sweep", "m_list": [64, 256, 1024]}, "m_list: unknown key"),
            (
                {"scenario": "lattice-sweep", "lattice": {"interfaces": 3}},
                "lattice.interfaces: unknown key",
            ),
            (
                {"scenario": "antiferro-sweep", "lattice": {"system": "synthetic-twin"}},
                "lattice.system: must be one of antiferro-raw, antiferro-remapped",
            ),
            (
                {"scenario": "lattice-sweep", "lattice": {"system": "antiferro-raw"}},
                "lattice.system: must be one of synthetic-twin",
            ),
        ],
    )
    def test_defect_reported_not_raised(self, cfg, key):
        problems = validate_config(cfg)
        assert problems and all(isinstance(p, str) for p in problems)
        # key names the problem's key, or is the whole problem
        assert any(p == key or p.startswith(f"{key}:") for p in problems), problems

    def test_interfaces_rejected_for_twin_system(self):
        # the twin model plants no interfaces, and only lattice-sweep runs it
        twin = {"scenario": "lattice-sweep", "lattice": {"interfaces": 7}}
        assert validate_config(twin) == ["lattice.interfaces: unknown key"]
        twin = {"system": "synthetic-twin", "interfaces": 3}
        assert validate_config({"scenario": "antiferro-sweep", "lattice": twin}) == [
            "lattice.system: must be one of antiferro-raw, antiferro-remapped"
        ]
        # the scenario decides the model family, so a chain needs antiferro-sweep
        antiferro = {"system": "antiferro-raw", "interfaces": 2, "m_list": [32, 64, 128]}
        assert validate_config({"scenario": "antiferro-sweep", "lattice": antiferro}) == []
        assert validate_config({"scenario": "lattice-sweep", "lattice": antiferro}) == [
            "lattice.interfaces: unknown key",
            "lattice.system: must be one of synthetic-twin",
        ]

    def test_interfaces_on_shared_sites_rejected(self):
        # at m = 3 the 3 interfaces round to sites 1, 2, 2
        cfg = {"scenario": "antiferro-sweep", "lattice": {"interfaces": 3, "m_list": [3, 8, 16]}}
        problems = validate_config(cfg)
        assert len(problems) == 1
        assert problems[0].startswith("lattice.interfaces: at m = 3,")
        assert "3 interfaces need 12 sites" in problems[0]
        cfg["lattice"]["m_list"] = [12, 16, 32]
        assert validate_config(cfg) == []
        # 7 interfaces at m = 4 land on sites 0, 1, 2, 2, 2, 3, 4
        cfg["lattice"]["m_list"] = [4, 8, 16]
        cfg["lattice"]["interfaces"] = 7
        problems = validate_config(cfg)
        assert len(problems) == 1 and problems[0].startswith("lattice.interfaces: at m = 4,")
        cfg["lattice"]["interfaces"] = 10**12
        assert validate_config(cfg)[0].startswith("lattice.interfaces: at m = 4,")

    def test_interfaces_without_full_ground_windows_rejected(self):
        # distinct sites 2, 4, ..., 14 at m = 16 leave 2-site segments, all
        # of whose sites are BAD: the run would fail components_k_plus_1
        lattice = {"interfaces": 7, "m_list": [16, 1000, 1048576]}
        problems = validate_config({"scenario": "antiferro-sweep", "lattice": lattice})
        assert len(problems) == 1
        assert problems[0].startswith("lattice.interfaces: at m = 16,")

    def test_interfaces_accepted_exactly_when_the_chain_splits(self):
        # validation accepts k interfaces at m exactly when the chain has
        # k + 1 components and no adjacency violation, in both variants
        for variant in ("raw", "remapped"):
            system = antiferro_system(variant)
            for k in range(9):
                for m in range(2, 100):
                    lattice = {
                        "system": f"antiferro-{variant}",
                        "interfaces": k,
                        "m_list": [m, 1000, 2000],
                    }
                    valid = not validate_config({"scenario": "antiferro-sweep", "lattice": lattice})
                    try:
                        x = antiferro_chain(system, m, harness._interface_fractions(k))
                    except LatticeError:
                        assert not valid, (variant, k, m)
                        continue
                    rec = lattice_partition_diagnostics(m, x, system)
                    splits = rec["n_components"] == k + 1 and not rec["adjacency_violations"]
                    assert valid == splits, (variant, k, m)

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"scenario": "laminate-sweep", "m_list": [8, 16, 100000]}, "m_list"),
            ({"scenario": "laminate-sweep", "m_list": [8, 16, 10**400]}, "m_list"),
            ({"scenario": "rigidity-family", "m_list": [16, 1500]}, "m_list"),
            ({"scenario": "spin-lemma-suite", "m": 2000}, "m"),
        ],
    )
    def test_mesh_budget(self, cfg, key):
        problems = validate_config(cfg)
        assert len(problems) == 1 and problems[0].startswith(f"{key}: the mesh at m = ")
        assert problems[0].endswith("the budget is 4000000")

    def test_mesh_budget_uses_build_estimate(self):
        from wellspin.mesh import MAX_CELLS, MeshResourceError, build_kuhn_mesh, kuhn_cell_estimate

        # rigidity-family meshes are unrotated: the largest m that fits
        m = 1412
        assert kuhn_cell_estimate(2, m) <= MAX_CELLS < kuhn_cell_estimate(2, m + 1)
        assert validate_config({"scenario": "rigidity-family", "m_list": [m]}) == []
        assert validate_config({"scenario": "rigidity-family", "m_list": [m + 1]})
        with pytest.raises(MeshResourceError, match=str(kuhn_cell_estimate(2, m + 1))):
            build_kuhn_mesh(2, m + 1)

    @pytest.mark.parametrize(
        "cfg, start",
        [
            (
                {"scenario": "antiferro-sweep", "lattice": {"m_list": [8, 16, 2**40]}},
                "lattice.m_list: the lattice at m = 1099511627776 has 1099511627776 sites",
            ),
            (
                {"scenario": "lattice-sweep", "lattice": {"m_list": [8, 16, 100_000]}},
                "lattice.m_list: the lattice at m = 100000 has 10000200001 sites",
            ),
            (
                {"scenario": "rigidity-family", "block_grid": 10**6},
                "block_grid: 1000000^2 = 1000000000000 blocks for each of 200 fields",
            ),
        ],
    )
    def test_lattice_and_block_budgets(self, cfg, start):
        tracemalloc.start()
        try:
            problems = validate_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(problems) == 1 and problems[0].startswith(start + ", the budget is ")
        # the check allocates nothing of the size it rejects
        assert peak < 2**20

    def test_lattice_and_block_budget_edges(self):
        # 3 interfaces need m >= 12
        chain = {"scenario": "antiferro-sweep", "lattice": {"m_list": [12, 16, harness.MAX_CHAIN_SITES]}}
        assert validate_config(chain) == []
        chain["lattice"]["m_list"][-1] += 1
        assert validate_config(chain)[0].startswith("lattice.m_list: ")
        # a twin lattice at m has (m + 1)^2 sites
        m = math.isqrt(harness.MAX_TWIN_SITES) - 1
        twin = {"scenario": "lattice-sweep", "lattice": {"m_list": [8, 16, m]}}
        assert validate_config(twin) == []
        twin["lattice"]["m_list"][-1] += 1
        assert validate_config(twin)[0].startswith("lattice.m_list: ")
        # the block budget does not depend on the family size
        for family in (1, 200):
            grid = math.isqrt(harness.MAX_BLOCKS)
            cfg = {"scenario": "rigidity-family", "family_size": family, "block_grid": grid}
            assert validate_config(cfg) == []
            cfg["block_grid"] += 1
            assert validate_config(cfg)[0].startswith("block_grid: ")

    def test_not_a_json_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert validate_config(path)
        assert validate_config(tmp_path / "missing.json")

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SCENARIOS), st.dictionaries(KEYS, JSON_VALUES, max_size=6))
    def test_fuzz_never_raises(self, scenario, body):
        problems = validate_config({**body, "scenario": scenario})
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)

    def test_schema_keys_documented(self):
        doc = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        missing = [key for key in ALL_KEYS if f"`{key}`" not in doc]
        assert not missing


class TestScalingReport:
    def test_fit_and_gate(self):
        ms = [8, 16, 32, 64]
        values = [1.0 / m for m in ms]
        rep = ScalingReport.fit("x", ms, values, -1.0, 0.1)
        assert rep.passed
        assert rep.slope == pytest.approx(-1.0, abs=1e-12)
        rep2 = ScalingReport.fit("x", ms, values, 0.0, 0.1)
        assert not rep2.passed

    def test_raw_values_retained(self):
        rep = ScalingReport.fit("x", [2, 4, 8], [3.0, 1.5, 0.75], -1.0, 0.2)
        assert rep.values == [3.0, 1.5, 0.75]

    def test_non_positive_value_fails_without_fit(self):
        rep = ScalingReport.fit("x", [8, 16, 32], [1.0, 0.0, -2.0], 0.0, 10.0)
        assert not rep.passed and rep.slope is None and rep.intercept is None
        gate = rep.gate("scaling.x")
        assert not gate.passed
        assert gate.line() == "FAIL scaling.x: no log-log fit: 0 at m = 16 (bound +0.00 +- 10.00)"
        assert json.loads(json.dumps(rep.to_dict()))["slope"] is None


class TestSubstreams:
    def test_labels_independent(self):
        a = substream(7, "alpha").standard_normal(4)
        b = substream(7, "beta").standard_normal(4)
        a2 = substream(7, "alpha").standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        a = substream(7, "alpha").standard_normal(4)
        b = substream(8, "alpha").standard_normal(4)
        assert not np.array_equal(a, b)


class TestRun:
    def test_wellset_analysis(self, tmp_path):
        cfg = {"scenario": "wellset-analysis", "seed": 1, "wells": small_wells()}
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        derived = summary["wells"]["derived"]
        assert len(derived["connections"]) == 2
        assert derived["c0"] == pytest.approx(min(derived["d"], derived["dbar"]))
        assert (tmp_path / "out" / "tables" / "connections.csv").exists()
        assert (tmp_path / "out" / "digest.txt").exists()

    def test_antiferro_sweep_small(self, tmp_path):
        cfg = {
            "scenario": "antiferro-sweep",
            "seed": 3,
            "lattice": {"system": "antiferro-raw", "interfaces": 2, "m_list": [32, 64, 128]},
        }
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["gates"]["components_k_plus_1"]
        assert summary["h2"]["c"] > 0

    @pytest.mark.parametrize(
        "scenario, m",
        [
            ("antiferro-sweep", 2**18),
            ("antiferro-sweep", 2**20),
            ("lattice-sweep", 128),
            ("lattice-sweep", 192),
            ("rigidity-family", 512),
        ],
    )
    def test_run_peak_within_budget(self, tmp_path, scenario, m):
        # a run at the size limit fits the memory budget: the whole run, its
        # smaller scales included, peaks at most at MEMORY_BUDGET / limit
        # bytes per unit of its largest size (a lattice site, or a block of
        # the rigidity family's block_grid^2)
        if scenario == "antiferro-sweep":
            cfg = {"lattice": {"interfaces": 3, "m_list": [m // 16, m // 4, m]}}
            units, limit = m, harness.MAX_CHAIN_SITES
        elif scenario == "lattice-sweep":
            cfg = {"lattice": {"m_list": [8, 16, m]}}
            units, limit = (m + 1) ** 2, harness.MAX_TWIN_SITES
        else:
            cfg = {"m_list": [16], "family_size": 1, "block_grid": m}
            units, limit = m**2, harness.MAX_BLOCKS
        tracemalloc.start()
        try:
            code = run({"scenario": scenario, **cfg}, out_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak <= units * harness.MEMORY_BUDGET / limit

    def test_laminate_sweep_small(self, tmp_path):
        cfg = {
            "scenario": "laminate-sweep",
            "seed": 3,
            "wells": small_wells(),
            "m_list": [16, 32, 64],
        }
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        table = (tmp_path / "out" / "tables" / "sweep.csv").read_text().splitlines()
        assert len(table) == 4  # header + 3 scales

    @pytest.mark.parametrize(
        "extra",
        [
            # the perimeter of well 0 is 0 at m = 8, where BAD cells take its layers
            {"m_list": [8, 16, 32], "laminate": {"period": 0.25}},
            {"m_list": [2, 3, 4]},
        ],
    )
    def test_laminate_sweep_zero_perimeter_fails_gates(self, tmp_path, extra):
        out = tmp_path / "out"
        assert run({"scenario": "laminate-sweep", "seed": 1, **extra}, out_dir=out) == EXIT_GATE_FAILED
        assert not (out / "error.txt").exists()
        summary = json.loads((out / "summary.json").read_text())
        unfit = [r for r in summary["scaling_reports"] if r["slope"] is None]
        assert unfit and all(r["intercept"] is None for r in unfit)
        assert not summary["gates"]["scaling"] and not summary["gates"]["curl_vs_perimeter_stable"]
        digest = (out / "digest.txt").read_text()
        assert "no log-log fit: 0 at m = " in digest
        assert "FAIL curl_vs_perimeter_stable: inf" in digest

    def test_wells_at_entry_bound_run_without_overflow(self, tmp_path):
        wells = {"wells": [[[1e150, 0], [0, 1]], [[1, 0], [0, 1e150]]]}
        out = tmp_path / "out"
        # an overflow raises inside the run, which then exits 4
        with np.errstate(over="raise", invalid="raise"):
            code = run({"scenario": "wellset-analysis", "wells": wells}, out_dir=out)
        assert code == EXIT_OK
        derived = json.loads((out / "summary.json").read_text())["wells"]["derived"]
        assert math.isfinite(derived["d"]) and math.isfinite(derived["dbar"])

    def test_lattice_sweep_synthetic(self, tmp_path):
        cfg = {
            "scenario": "lattice-sweep",
            "seed": 5,
            "lattice": {"system": "synthetic-twin", "m_list": [8, 12, 16]},
        }
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["gates"]["single_component"]
        assert summary["gates"]["ground_residual_zero"]

    def test_twin_system_runs_only_under_lattice_sweep(self, tmp_path):
        lattice = {"system": "synthetic-twin", "m_list": [8, 10, 12]}
        cfg = {"scenario": "lattice-sweep", "seed": 5, "lattice": lattice}
        assert run(cfg, out_dir=tmp_path / "twin") == EXIT_OK
        summary = json.loads((tmp_path / "twin" / "summary.json").read_text())
        assert summary["gates"]["single_component"]
        cfg["scenario"] = "antiferro-sweep"
        assert run(cfg, out_dir=tmp_path / "chain") == EXIT_INTERNAL
        problem = "lattice.system: must be one of antiferro-raw, antiferro-remapped"
        assert (tmp_path / "chain" / "digest.txt").read_text() == f"CONFIG ERROR: {problem}\n"

    def test_laminate_connection_beyond_wells_0_1(self, tmp_path):
        # twin 2 of this set joins wells 0 and 2; well 1 gets no cells
        wells = small_wells()
        wells["wells"].append([[1.0, 0.0], [0.0, 1.0]])
        cfg = {
            "scenario": "laminate-sweep",
            "seed": 1,
            "wells": wells,
            "m_list": [8, 16, 32],
            "laminate": {"connection": 2},
        }
        assert validate_config(cfg) == []
        code = run(cfg, force=True, out_dir=tmp_path / "out")
        assert code in (EXIT_OK, EXIT_GATE_FAILED)
        header = (tmp_path / "out" / "tables" / "sweep.csv").read_text().splitlines()[0]
        assert "perimeter_w0" in header and "perimeter_w2" in header
        assert "perimeter_w1" not in header
        digest = (tmp_path / "out" / "digest.txt").read_text().splitlines()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(digest) == 10
        assert all(line.startswith(("PASS ", "FAIL ")) for line in digest)
        assert summary["exit_code"] == code

    def test_spin_suite_builds_only_the_laminates_it_uses(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_laminate(*args, **kwargs)

        monkeypatch.setattr(harness, "build_laminate", counting)
        cfg = {"scenario": "spin-lemma-suite", "seed": 3, "m": 8, "field_count": 30}
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        lines = (tmp_path / "tables" / "fields.csv").read_text().splitlines()[1:]
        kinds = {line.split(",")[1] for line in lines}
        assert kinds == {"laminate", "rotated-laminate", "perturbed-laminate"}
        # the random laminates and the aligned one are made in blocks of
        # arrays: no field is built one at a time
        assert calls == []

    def test_spin_suite_scans_the_aligned_laminate_as_a_block(self, tmp_path, monkeypatch):
        # the aligned control goes through the block scan whose zero on the
        # admissible mesh it vouches for, not through the per-field path
        def refuse(*args, **kwargs):
            raise AssertionError("the spin suite left the block scan")

        for name in ("build_laminate", "classify"):
            monkeypatch.setattr(harness, name, refuse)
        for name in ("classify", "verify_spin_lemma"):
            monkeypatch.setattr(spin, name, refuse)
        assert not hasattr(harness, "verify_spin_lemma")
        cfg = {"scenario": "spin-lemma-suite", "seed": 3, "m": 8, "field_count": 30}
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert json.loads((tmp_path / "summary.json").read_text())["aligned_violations"] >= 1

    def test_invalid_config_exit_code(self, tmp_path):
        assert run({"scenario": "nope"}, out_dir=tmp_path) == EXIT_INTERNAL

    @pytest.mark.parametrize(
        "cfg, key",
        [
            # rigidity_ratio needs p >= n/(n-1) = 2 in the plane
            ({"scenario": "rigidity-family", "p": 1.5}, "p"),
            # I and 2I, or one well, leave no twin to draw a laminate along
            ({"scenario": "spin-lemma-suite", "wells": {"wells": [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]}}, "wells"),
            ({"scenario": "spin-lemma-suite", "wells": {"wells": [[[1, 0], [0, 1]]]}}, "wells"),
        ],
    )
    def test_config_problem_is_not_internal_error(self, tmp_path, cfg, key):
        assert run({"seed": 1, **cfg}, out_dir=tmp_path) == EXIT_INTERNAL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [p.partition(":")[0] for p in summary["problems"]] == [key]
        assert (tmp_path / "digest.txt").read_text().startswith(f"CONFIG ERROR: {key}: ")
        assert not (tmp_path / "error.txt").exists()

    def test_incompatible_mesh_exit_code(self, tmp_path, monkeypatch):
        # delta0 = 0.09 exceeds the best achievable margin (~0.076) for the
        # canonical pair, so the rotated mesh still fails the check
        wells = small_wells()
        wells["delta0"] = 0.09
        cfg = {
            "scenario": "laminate-sweep",
            "seed": 1,
            "wells": wells,
            "m_list": [8, 16, 32],
        }
        built, laminates = [], []

        def recording_mesh(n, m, **kwargs):
            built.append(m)
            return build_kuhn_mesh(n, m, **kwargs)

        def recording_laminate(*args, **kwargs):
            laminates.append(1)
            return build_laminate(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "build_kuhn_mesh", recording_mesh)
            patch.setattr(harness, "build_laminate", recording_laminate)
            code = run(cfg, out_dir=tmp_path / "strict")
        assert code == EXIT_INCOMPATIBLE_MESH
        # the check needs only the lattice rotation, so it runs before
        # any stage builds a mesh
        assert built == [] and not laminates
        summary = json.loads((tmp_path / "strict" / "summary.json").read_text())
        assert not summary["incompatibility"]["ok"]
        assert summary["incompatibility"]["offenders"]
        assert not (tmp_path / "strict" / "tables").exists()
        # --force overrides the refusal and actually runs the sweep
        forced = run(cfg, force=True, out_dir=tmp_path / "forced")
        assert forced in (EXIT_OK, EXIT_GATE_FAILED)
        assert (tmp_path / "forced" / "tables" / "sweep.csv").exists()

    @pytest.mark.parametrize("seed, p", [(1, 2.0), (7, 3.5)])
    def test_rigidity_stages_match_member_loop(self, tmp_path, seed, p):
        # the per-scale stages against the member-outer loop they replaced
        m_list, family, grid = [8, 12, 16], 4, 3
        cfg = {"scenario": "rigidity-family", "seed": seed, "m_list": m_list, "p": p}
        cfg.update(family_size=family, block_grid=grid)
        assert run(cfg, out_dir=tmp_path / "out") in (EXIT_OK, EXIT_GATE_FAILED)
        rows, max_ratio = rigidity_reference.family_rows(seed, m_list, family, grid, p)
        write_csv(tmp_path / "want.csv", ["field_id", "m", "p", "lhs", "rhs", "ratio"], rows)
        got = (tmp_path / "out" / "tables" / "rigidity.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        want = {str(m): r for m, r in max_ratio.items()}
        assert json.dumps(summary["max_ratio"], sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_energy_bound_exit_code(self, tmp_path):
        cfg = {
            "scenario": "antiferro-sweep",
            "seed": 1,
            "lattice": {
                "interfaces": 3,
                "m_list": [32, 64, 128],
                "energy_constant": 1e-9,
            },
        }
        code = run(cfg, out_dir=tmp_path / "out")
        assert code == EXIT_ENERGY_BOUND
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["energy_bound"]["total"] > summary["energy_bound"]["allowed"]

    def test_internal_error_replaces_earlier_artifacts(self, tmp_path, monkeypatch):
        cfg = {"scenario": "antiferro-sweep", "seed": 1, "lattice": {"m_list": [32, 64, 128]}}
        (tmp_path / "notes.txt").write_text("kept")
        assert run(cfg, out_dir=tmp_path) == EXIT_OK

        def broken(ctx, m):
            raise RuntimeError("boom")

        failing = dataclasses.replace(SCHEMA["antiferro-sweep"], stage=broken)
        monkeypatch.setitem(SCHEMA, "antiferro-sweep", failing)
        assert run(cfg, out_dir=tmp_path) == EXIT_INTERNAL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["exit_code"] == EXIT_INTERNAL
        assert summary["error"] == "RuntimeError: boom"
        assert (tmp_path / "digest.txt").read_text() == "INTERNAL ERROR: RuntimeError: boom\n"
        trace = (tmp_path / "error.txt").read_text()
        assert trace.startswith("Traceback") and "in broken" in trace
        assert not list((tmp_path / "tables").glob("*.csv"))
        monkeypatch.undo()
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert not (tmp_path / "error.txt").exists()
        assert (tmp_path / "notes.txt").read_text() == "kept"

    def test_energy_bound_drops_earlier_tables(self, tmp_path):
        lattice = {"interfaces": 3, "m_list": [32, 64, 128]}
        cfg = {"scenario": "antiferro-sweep", "seed": 1, "lattice": lattice}
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert (tmp_path / "tables" / "sweep.csv").exists()
        lattice["energy_constant"] = 1e-6
        assert run(cfg, out_dir=tmp_path) == EXIT_ENERGY_BOUND
        assert not list((tmp_path / "tables").glob("*.csv"))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["exit_code"] == EXIT_ENERGY_BOUND

    def test_rejected_config_replaces_earlier_artifacts(self, tmp_path):
        cfg = {"scenario": "antiferro-sweep", "seed": 1, "lattice": {"m_list": [32, 64, 128]}}
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert (tmp_path / "tables" / "sweep.csv").exists()
        assert run({**cfg, "m_lst": [8, 16, 32]}, out_dir=tmp_path) == EXIT_INTERNAL
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == {"exit_code": EXIT_INTERNAL, "gates": {}, "problems": ["m_lst: unknown key"]}
        assert (tmp_path / "digest.txt").read_text() == "CONFIG ERROR: m_lst: unknown key\n"
        assert not list((tmp_path / "tables").glob("*.csv"))
        # the config's own out is used when no directory is passed
        assert run({"scenario": "nope", "out": str(tmp_path / "own")}) == EXIT_INTERNAL
        own = json.loads((tmp_path / "own" / "summary.json").read_text())
        assert own["exit_code"] == EXIT_INTERNAL
        # an unreadable config names no directory, so nothing is written
        assert run(tmp_path / "missing.json") == EXIT_INTERNAL

    def test_rejected_config_with_empty_out(self, tmp_path, monkeypatch):
        # an empty out is unset, as in a valid run: the rejected run writes
        # to runs/<scenario>, and the working directory keeps its files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "tables").mkdir()
        (tmp_path / "tables" / "mine.csv").write_text("kept")
        assert run({"scenario": "antiferro-sweep", "out": "", "m_lst": 1}) == EXIT_INTERNAL
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs", "tables"]
        assert (tmp_path / "tables" / "mine.csv").read_text() == "kept"
        summary = json.loads((tmp_path / "runs" / "antiferro-sweep" / "summary.json").read_text())
        assert summary["problems"] == ["m_lst: unknown key"]

    @pytest.mark.parametrize("seed", [1, 7331])
    def test_shipped_rigidity_config_passes(self, seed, tmp_path):
        # the level-grid weak norm failed its own refinement gate at both
        cfg = json.loads((CONFIG_DIR / "rigidity.json").read_text())
        assert run({**cfg, "seed": seed}, out_dir=tmp_path) == EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["gates"]) == 5 and all(summary["gates"].values())

    def test_constant_field_passes_weak_gate(self, tmp_path):
        # at block_grid 1 |A - R| is constant, and the weak norm equals the
        # L^2 norm up to round-off
        for seed in range(12):
            cfg = {"scenario": "rigidity-family", "seed": seed, "block_grid": 1, "family_size": 2}
            assert run(cfg, out_dir=tmp_path) == EXIT_OK

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {
            "scenario": "rigidity-family",
            "seed": 99,
            "m_list": [8, 16],
            "family_size": 10,
        }
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        for name in ("rigidity", "eps_sweep"):
            a = (tmp_path / "a" / "tables" / f"{name}.csv").read_bytes()
            b = (tmp_path / "b" / "tables" / f"{name}.csv").read_bytes()
            assert a == b

    def test_seed_changes_tables(self, tmp_path):
        base = {
            "scenario": "rigidity-family",
            "m_list": [8, 16],
            "family_size": 5,
        }
        run({**base, "seed": 1}, out_dir=tmp_path / "a")
        run({**base, "seed": 2}, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "tables" / "rigidity.csv").read_bytes()
        b = (tmp_path / "b" / "tables" / "rigidity.csv").read_bytes()
        assert a != b


@pytest.fixture
def fresh_heap_policy():
    """Let the next run() apply the heap policy again, and the run after
    the test too, whatever the test did to it."""
    harness._pin_heap.cache_clear()
    yield
    harness._pin_heap.cache_clear()


@pytest.mark.usefixtures("fresh_heap_policy")
class TestHeapPolicy:
    @pytest.mark.parametrize("cdll", ["raises", "no-mallopt"])
    def test_no_op_without_mallopt(self, tmp_path, monkeypatch, cdll):
        def raises(name):
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", raises if cdll == "raises" else lambda name: object())
        cfg = {"scenario": "wellset-analysis", "seed": 1, "wells": small_wells()}
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert harness._pin_heap() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_repeated_run_reuses_resident_pages(self, tmp_path):
        import resource

        # at dynamic thresholds the third of these runs faults about 5,500
        # fresh pages, which freed temporaries gave back to the kernel
        lattice = {"system": "antiferro-raw", "interfaces": 3, "m_list": [2**14, 2**16, 2**18]}
        cfg = {"scenario": "antiferro-sweep", "seed": 1, "lattice": lattice}
        for _ in range(2):
            assert run(cfg, out_dir=tmp_path) == EXIT_OK
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert run(cfg, out_dir=tmp_path) == EXIT_OK
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256
        assert harness._pin_heap() is True


class TestCsv:
    def test_float_formatting_round_trip(self, tmp_path):
        values = [0.1, 1e-17, 123456.789, 2.0 / 3.0]
        write_csv(tmp_path / "x.csv", ["v"], [(v,) for v in values])
        lines = (tmp_path / "x.csv").read_text().splitlines()[1:]
        assert [float(l) for l in lines] == values

    def test_format_float_shortest(self):
        assert format_float(0.5) == "0.5"
        assert float(format_float(1 / 3)) == 1 / 3


class TestCli:
    def test_validate_command(self, capsys):
        from wellspin.cli import main

        assert main(["validate", "--config", str(CONFIG_DIR / "wellset.json")]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out

    def test_scenario_mismatch(self, tmp_path, capsys):
        from wellspin.cli import main

        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"scenario": "wellset-analysis", "seed": 1}))
        code = main(["antiferro-sweep", "--config", str(cfg_path)])
        assert code == 4

    def test_env_output_root(self, tmp_path, monkeypatch):
        from wellspin.cli import main

        monkeypatch.setenv("WELLSPIN_OUT", str(tmp_path / "root"))
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps({"scenario": "wellset-analysis", "seed": 5, "wells": small_wells()})
        )
        assert main(["wellset-analysis", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "wellset-analysis" / "summary.json").exists()

    def test_missing_config_exit_4(self, tmp_path, capsys):
        from wellspin.cli import main

        missing = str(tmp_path / "missing.json")
        assert main(["laminate-sweep", "--config", missing]) == EXIT_INTERNAL
        assert "config error:" in capsys.readouterr().out

    def test_malformed_json_exit_4(self, tmp_path, capsys):
        from wellspin.cli import main

        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"scenario": "laminate-sweep",')
        assert main(["laminate-sweep", "--config", str(cfg_path)]) == EXIT_INTERNAL
        assert "config error:" in capsys.readouterr().out

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_config_read_once_from_pipe(self, tmp_path):
        # a pipe, as from --config <(echo ...), can be read only once
        from wellspin.cli import main

        read, write = os.pipe()
        os.write(write, json.dumps({"scenario": "wellset-analysis"}).encode())
        os.close(write)
        try:
            argv = ["wellset-analysis", "--config", f"/dev/fd/{read}", "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
        finally:
            os.close(read)
        assert json.loads((tmp_path / "summary.json").read_text())["exit_code"] == EXIT_OK

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_wells_file_read_once_from_pipe(self, tmp_path):
        # a wells_file that is a pipe can be read only once, so validation
        # and the run must share one read of it
        from wellspin.cli import main

        read, write = os.pipe()
        os.write(write, json.dumps(small_wells()).encode())
        os.close(write)
        cfg = {"scenario": "wellset-analysis", "wells_file": f"/dev/fd/{read}"}
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        try:
            argv = ["wellset-analysis", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
            assert main(argv) == EXIT_OK
        finally:
            os.close(read)
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["wells"]["wells"] == small_wells()["wells"]

    @pytest.mark.parametrize(
        "doc, problem",
        [
            # a typo of delta0 must not run at the default 0.05
            ({"wells": [[[2, 0], [0, 0.5]], [[0.5, 0], [0, 2]]], "delta": 0.3}, "wells_file.delta: unknown key"),
            ({"dim": 3, "wells": [[[2, 0], [0, 0.5]], [[0.5, 0], [0, 2]]]}, "wells_file.dim: must be 2"),
            ({"wells": [[[2, 0], [0, 0.5]]], "delta0": 1.5}, "wells_file.delta0: must be a number in (0, 1)"),
            ({"delta0": 0.1}, "wells_file: must hold an object with a wells entry"),
            ([1, 2], "wells_file: must hold an object with a wells entry"),
        ],
    )
    def test_wells_file_checked_as_inline_wells(self, tmp_path, doc, problem):
        path = tmp_path / "wells.json"
        path.write_text(json.dumps(doc))
        problems = validate_config({"scenario": "wellset-analysis", "wells_file": str(path)})
        assert problems and problems[0].startswith(problem)
        if isinstance(doc, dict) and "wells" in doc:
            inline = validate_config({"scenario": "wellset-analysis", "wells": doc})
            assert problems == ["wells_file." + p.removeprefix("wells.") for p in inline]

    def test_wells_file_from_a_summary(self, tmp_path):
        # the well set a wellset-analysis summary holds, derived block and
        # all, serves as a wells_file and gives the same summary
        first, second = tmp_path / "first", tmp_path / "second"
        cfg = {"scenario": "wellset-analysis", "wells": {**small_wells(), "delta0": 0.1}}
        assert run(cfg, out_dir=first) == EXIT_OK
        wells = json.loads((first / "summary.json").read_text())["wells"]
        assert "derived" in wells
        path = tmp_path / "wells.json"
        path.write_text(json.dumps(wells))
        assert run({"scenario": "wellset-analysis", "wells_file": str(path)}, out_dir=second) == EXIT_OK
        assert (first / "summary.json").read_text() == (second / "summary.json").read_text()

    def test_usage_error_exit_4(self):
        from wellspin.cli import main

        config = str(CONFIG_DIR / "antiferro.json")
        assert main(["antiferro-sweep", "--config", config, "--workers", "2"]) == EXIT_INTERNAL

    def test_run_via_cli(self, tmp_path):
        from wellspin.cli import main

        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "antiferro-sweep",
                    "seed": 11,
                    "lattice": {"interfaces": 1, "m_list": [32, 64, 128]},
                }
            )
        )
        code = main(
            ["antiferro-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert (tmp_path / "o" / "summary.json").exists()


class TestCliExitCodes:
    """The exit-code contract of `python -m wellspin.cli`, one process per code."""

    CASES = {
        EXIT_OK: {"scenario": "antiferro-sweep", "lattice": {"interfaces": 1, "m_list": [32, 64, 128]}},
        EXIT_GATE_FAILED: {
            "scenario": "laminate-sweep",
            "m_list": [8, 16, 32],
            "slope_tolerance": 1e-9,
        },
        # delta0 = 0.09 exceeds the best margin of the canonical pair
        EXIT_INCOMPATIBLE_MESH: {
            "scenario": "laminate-sweep",
            "wells": {**small_wells(), "delta0": 0.09},
            "m_list": [8, 16, 32],
        },
        EXIT_ENERGY_BOUND: {
            "scenario": "antiferro-sweep",
            "lattice": {"interfaces": 3, "m_list": [32, 64, 128], "energy_constant": 1e-9},
        },
        EXIT_INTERNAL: {"scenario": "antiferro-sweep", "m_lst": [32, 64, 128]},
    }

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_exit_code(self, tmp_path, code):
        cfg = {"seed": 3, **self.CASES[code]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(harness.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "wellspin.cli", cfg["scenario"], "--config", str(path)]
        proc = subprocess.run(
            argv + ["--out", str(tmp_path / "out")], env=env, capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stdout + proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_code"] == code
