"""Run one workload's rounds in a fresh process and print a JSON report.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 bench/worker.py --workload NAME --seed N --validate-only

The first form runs a small warm-up round, then whole rounds of the
workload through ``wellspin.harness.run`` until the next round would end
after S seconds. With ``--trace 1`` untraced and traced rounds alternate,
so that the tracing overhead is measured in the same process. Outputs of
round k go to DIR/round-k/<part>/; the spans of a traced run go to
DIR/trace.json. The last line of standard output is the JSON report.

The second form only imports wellspin and validates the workload's
configs; the first form times it from fresh interpreters as the set-up
cost.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# fresh start-ups timed before each untraced round, so that set-up is
# sampled across the whole run rather than in one host phase
STARTUPS_PER_ROUND = 2


def host_reference():
    """Wall time of a fixed Python and numpy loop that calls no wellspin
    code; it tells a slow host phase apart from a slow program."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 40_000.0
    for _ in range(30):
        a = np.sin(a @ a.T / 200.0)
    return perf_counter() - t0


def startup_seconds(args):
    """Wall time of a fresh interpreter that imports wellspin and validates
    the workload's configs: the set-up every CLI call pays."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    t0 = perf_counter()
    proc = subprocess.run(cmd + ["--validate-only"], cwd=ROOT, capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--validate-only", action="store_true")
    return p.parse_args(argv)


def validate(args):
    from wellspin.harness import validate_config

    problems = [
        f"{part}: {problem}"
        for part, cfg in workloads.parts(args.workload, args.seed)
        for problem in validate_config(cfg)
    ]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def run_rounds(args):
    from wellspin.harness import run

    from tracing import ROOT_SPAN, Span, Tracer, layer_totals, root_time

    for part, cfg in workloads.parts(args.workload, args.seed, warmup=True):
        run(cfg, out_dir=args.out / "warmup" / part)

    tracer = Tracer() if args.trace else None
    plan = workloads.parts(args.workload, args.seed)
    rounds = []
    peak_rss_mb = None
    start = perf_counter()
    while True:
        k = len(rounds)
        traced = tracer is not None and k % 2 == 1
        host = host_reference()
        startups = [] if tracer else [startup_seconds(args) for _ in range(STARTUPS_PER_ROUND)]
        call = run
        if traced:
            tracer.round = k
            tracer.install()
            call = tracer.span(ROOT_SPAN, run)
        codes, seconds = {}, 0.0
        try:
            for part, cfg in plan:
                t0 = perf_counter()
                codes[part] = call(cfg, out_dir=args.out / f"round-{k}" / part)
                seconds += perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(
            {
                "traced": traced,
                "seconds": seconds,
                "exit_codes": codes,
                "host_ref_s": host,
                "startup_s": startups,
            }
        )
        if peak_rss_mb is None:
            # read after the first round: the peak creeps up by about 1 MB a
            # round as the heap fragments, and must not depend on how many
            # rounds fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = {r["traced"] for r in rounds}
        if done >= ({False, True} if tracer else {False}):
            typical = statistics.median(
                r["seconds"] + r["host_ref_s"] + sum(r["startup_s"]) for r in rounds
            )
            if perf_counter() - start + typical > args.seconds:
                break

    report = {"rounds": rounds, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        n = sum(r["traced"] for r in rounds)
        totals = layer_totals(tracer.spans)
        traced_s = root_time(tracer.spans) / n
        plain_s = statistics.fmean(r["seconds"] for r in rounds if not r["traced"])
        report["layers"] = {name: value / n for name, value in totals.items()}
        report["layers"]["trace.run_s"] = traced_s
        report["layers"]["trace.overhead_s"] = traced_s - plain_s
        report["spans"] = len(tracer.spans)
        with open(args.out / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": Span.__slots__,
                    "spans": [s.to_list() for s in tracer.spans],
                },
                fh,
            )
    return report


def main(argv=None):
    args = parse_args(argv)
    if args.validate_only:
        return validate(args)
    print(json.dumps(run_rounds(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
