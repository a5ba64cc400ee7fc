"""wellspin benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wellspin is imported from src/.
With --trace 0 the result holds the end-to-end metrics (setup_s, run_s,
peak_rss_mb); with --trace 1 it holds the per-layer metrics of a traced
run. Every round's outputs are checked, each check counting as one
attempted operation. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import TOTALS, metric_names  # noqa: E402

DEADLINE_S = 170.0


def run_worker(args, out, deadline):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        str(out),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - perf_counter()
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    deadline = perf_counter() + DEADLINE_S
    if not (ROOT / "src" / "wellspin" / "__init__.py").is_file():
        print(f"no wellspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        report = run_worker(args, out, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(err, file=sys.stderr)
        return 1

    checker = workloads.Checker(args.workload, args.seed)
    attempted = failed = 0
    for k, rnd in enumerate(report["rounds"]):
        for name, ok, detail in checker.check_round(out / f"round-{k}", rnd["exit_codes"]):
            attempted += 1
            if not ok:
                failed += 1
                print(f"FAILED round {k} {name}: {detail}")

    rounds = report["rounds"]
    plain = [r["seconds"] for r in rounds if not r["traced"]]
    host = statistics.median(r["host_ref_s"] for r in rounds)
    print(
        f"host reference {host:.4f} s (median of {len(rounds)}, not a metric); "
        f"{len(plain)} untraced rounds: " + ", ".join(f"{s:.3f}" for s in plain)
    )
    if args.trace:
        layers = report["layers"]
        residual = layers["trace.run_s"] - sum(
            v for name, v in layers.items() if name.endswith("_s") and name not in TOTALS
        )
        print(
            f"traced run_s {layers['trace.run_s']:.4f} s, overhead "
            f"{layers['trace.overhead_s']:+.4f} s, self times sum to it within "
            f"{abs(residual):.1e} s ({report['spans']} spans in {out / 'trace.json'})"
        )
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit in metric_names().items()
        }
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(t for r in rounds for t in r["startup_s"]),
                "unit": "s",
            },
            "run_s": {"value": statistics.fmean(plain), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
