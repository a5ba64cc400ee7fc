"""Every config that validation accepts reaches a gate verdict: random
schema-valid configs of every scenario, within small budgets, run through
harness.run exit with 0-3 and leave no error.txt."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wellspin.harness import (
    EXIT_ENERGY_BOUND,
    EXIT_GATE_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    SCHEMA,
    run,
    validate_config,
)

SEEDS = st.integers(0, 2**63 - 1)
FRACTIONS = st.floats(0.01, 0.99)


def scales(lo, hi, count):
    """Strictly increasing lists of at least count integers in [lo, hi]."""
    return st.sets(st.integers(lo, hi), min_size=count, max_size=count + 1).map(sorted)


@st.composite
def spd_well(draw):
    """A symmetric positive definite 2x2 matrix with entries of order 1."""
    a, c = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    b = draw(st.floats(-0.9, 0.9)) * (a * c) ** 0.5
    return [[a, b], [b, c]]


@st.composite
def wells_keys(draw, least):
    """The well keys: inline wells, or the same document in a wells file
    (written by the test), with delta0 in the document or left to its
    default."""
    doc = {"dim": 2, "wells": draw(st.lists(spd_well(), min_size=least, max_size=3))}
    delta0 = draw(optional(st.floats(0.01, 0.3)))
    if delta0 is not None:
        doc["delta0"] = delta0
    # a wells file is replaced by its path when the test runs
    return {"wells" if draw(st.booleans()) else "wells_file": doc}


def optional(strategy):
    return st.none() | strategy


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from(sorted(SCHEMA)))
    cfg = {"scenario": scenario, "seed": draw(SEEDS)}
    if scenario == "wellset-analysis":
        cfg.update(draw(wells_keys(1)))
    elif scenario == "laminate-sweep":
        cfg.update(draw(wells_keys(2)))
        cfg["m_list"] = draw(scales(2, 16, 3))
        cfg["c1"] = draw(st.floats(0.1, 10.0))
        cfg["slope_tolerance"] = draw(st.floats(0.01, 1.0))
        cfg["perimeter_tolerance"] = draw(st.floats(0.01, 1.0))
        cfg["laminate"] = {
            "volume_fraction": draw(FRACTIONS),
            "connection": draw(st.integers(0, 1)),
            "period": draw(optional(st.floats(2.0 / cfg["m_list"][0], 2.0))),
            "offset_frac": draw(st.floats(-2.0, 2.0)),
            "ripple": draw(st.floats(0.0, 0.05)),
        }
    elif scenario == "spin-lemma-suite":
        cfg.update(draw(wells_keys(2)))
        cfg["m"] = draw(st.integers(7, 12))
        cfg["field_count"] = draw(st.integers(1, 12))
    elif scenario == "rigidity-family":
        cfg["m_list"] = draw(scales(2, 10, 1))
        cfg["family_size"] = draw(st.integers(1, 4))
        cfg["p"] = draw(st.floats(2.0, 6.0))
        cfg["block_grid"] = draw(st.integers(1, 4))
        cfg["eps_values"] = draw(st.lists(st.floats(1e-4, 1e-2), min_size=2, max_size=4))
    else:
        # each lattice scenario runs one model family
        if scenario == "lattice-sweep":
            lattice = {"system": "synthetic-twin", "m_list": draw(optional(scales(2, 8, 3)))}
        else:
            system = draw(st.sampled_from(["antiferro-raw", "antiferro-remapped"]))
            lattice = {"system": system, "m_list": draw(optional(scales(4, 256, 3)))}
            lattice["interfaces"] = draw(st.integers(0, 4))
        lattice["energy_constant"] = draw(optional(st.floats(0.1, 10.0)))
        cfg["lattice"] = lattice
    return cfg


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(configs())
def test_valid_configs_reach_a_gate_verdict(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if "wells_file" in cfg:
            path = tmp / "wells.json"
            path.write_text(json.dumps(cfg["wells_file"]), encoding="utf-8")
            cfg["wells_file"] = str(path)
        cfg["out"] = str(tmp / "out")
        assume(validate_config(cfg) == [])
        code = run(cfg)
        assert 0 <= code <= EXIT_ENERGY_BOUND, (tmp / "out" / "digest.txt").read_text()
        assert not (tmp / "out" / "error.txt").exists()
        summary = json.loads((tmp / "out" / "summary.json").read_text())
        assert summary["exit_code"] == code


def test_eps_sweep_without_spread_is_a_config_error(tmp_path):
    # found by the property test: with equal eps values the eps-slope fit
    # is rank-deficient, numpy.polyfit warns and its slope means nothing
    cfg = {"scenario": "rigidity-family", "m_list": [2], "family_size": 1, "block_grid": 1}
    cfg["eps_values"] = [0.0078125, 0.0078125]
    assert run(cfg, out_dir=tmp_path) == EXIT_INTERNAL
    assert "CONFIG ERROR: eps_values:" in (tmp_path / "digest.txt").read_text()
    assert not (tmp_path / "error.txt").exists()
    cfg["eps_values"] = [0.0078125, 0.015625]
    assert run(cfg, out_dir=tmp_path) in (EXIT_OK, EXIT_GATE_FAILED)
