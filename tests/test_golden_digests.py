"""Each shipped config, run at its shipped seed, against its committed
golden digest (tests/golden/<config>.digest.txt).

A digest holds the gate verdicts and their measured values to 6
significant digits, so round-off drift in a kernel leaves it alone while
a changed verdict or a moved value fails here. Regenerate a golden file
only for a change that is meant to move a value, and say which.
"""

from pathlib import Path

import pytest

from wellspin.harness import EXIT_OK, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_every_config_has_a_golden_digest():
    goldens = sorted((ROOT / "tests" / "golden").glob("*.digest.txt"))
    assert [p.name.removesuffix(".digest.txt") for p in goldens] == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_digest_matches_golden(config, tmp_path):
    assert run(config, out_dir=tmp_path) == EXIT_OK
    golden = ROOT / "tests" / "golden" / f"{config.stem}.digest.txt"
    assert (tmp_path / "digest.txt").read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
