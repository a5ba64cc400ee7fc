"""Run two wellspin trees on the same inputs and report where their outputs
differ.

    python tests/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (say, a `git archive` of
one commit unpacked next to the working tree). Each tree runs in an
interpreter of its own, from its root, with its src/ and bench/ on
PYTHONPATH, through harness.run on:

- every configs/*.json of the tree, at its own seed and at seeds 1 and 7;
- every part of every bench workload, run and warm-up, at bench seed 1, as
  bench/workloads.parts builds them.

Per run, the exit codes are compared, and `diff -r` compares tables/,
summary.json and digest.txt (error.txt holds a traceback with the tree's
paths, so it is left out). Every difference is printed; the exit status is
0 only when every run of the two trees agrees. The file name has no test_
prefix, so pytest does not collect it; a comparison takes a few seconds.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG_SEEDS = (None, 1, 7)  # None: the config's own seed
BENCH_SEED = 1
COMPARED = ("tables", "summary.json", "digest.txt")


def cases(root):
    """[(run name, config)] for the tree at root, with wellspin and the
    bench's workloads importable from it."""
    from workloads import WORKLOADS, parts

    runs = []
    for path in sorted((root / "configs").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        for seed in CONFIG_SEEDS:
            label = "own" if seed is None else seed
            seeded = cfg if seed is None else {**cfg, "seed": seed}
            runs.append((f"config/{path.stem}/seed-{label}", seeded))
    for workload in WORKLOADS:
        for warmup in (False, True):
            for part, cfg in parts(workload, BENCH_SEED, warmup=warmup):
                runs.append((f"bench/{workload}/{part}/{'warmup' if warmup else 'run'}", cfg))
    return runs


def run_tree(root, out):
    """Run every case of the tree at root into out, and write their exit
    codes to out/codes.json."""
    import wellspin
    from wellspin.harness import run

    if root not in Path(wellspin.__file__).resolve().parents:
        raise SystemExit(f"wellspin imported from {wellspin.__file__}, not from {root}")
    codes = {name: run(cfg, out_dir=out / name) for name, cfg in cases(root)}
    (out / "codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")


def spawn(root, out):
    """Start this script on the tree at root in an interpreter of its own."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "bench")])
    cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(root), str(out)]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL)


def differences(a, b):
    """[lines] describing how the runs under the two output roots differ."""
    codes_a = json.loads((a / "codes.json").read_text(encoding="utf-8"))
    codes_b = json.loads((b / "codes.json").read_text(encoding="utf-8"))
    found = [
        f"{name}: only in {'PARENT' if name in codes_a else 'CHANGE'}"
        for name in sorted(codes_a.keys() ^ codes_b.keys())
    ]
    for name in sorted(codes_a.keys() & codes_b.keys()):
        if codes_a[name] != codes_b[name]:
            found.append(f"{name}: exit code {codes_a[name]} against {codes_b[name]}")
        for item in COMPARED:
            pa, pb = a / name / item, b / name / item
            if not pa.exists() and not pb.exists():
                continue
            diff = subprocess.run(["diff", "-r", str(pa), str(pb)], capture_output=True, text=True)
            if diff.returncode != 0:
                found.append(f"{name}: {item} differs\n{diff.stdout}{diff.stderr}".rstrip())
    return found, codes_a


def main(argv):
    if len(argv) == 3 and argv[0] == "--tree":
        run_tree(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    if len(argv) != 2:
        print("usage: python tests/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        procs = [spawn(root, out) for root, out in zip(roots, outs)]
        if any([proc.wait() != 0 for proc in procs]):  # wait for both
            print("a tree failed to run its cases", file=sys.stderr)
            return 1
        found, codes = differences(*outs)
    for line in found:
        print(line)
    nonzero = {name: code for name, code in codes.items() if code != 0}
    print(f"{len(codes)} runs compared, {len(found)} differences")
    print(f"non-zero exit codes: {nonzero or 'none'}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
