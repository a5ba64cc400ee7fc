"""Peak memory of five chains, each bounded in RSS and in traced bytes.

    python tests/memory_steps.py

Each step runs in two fresh interpreters with PYTHONPATH set to this tree's
src: one untraced, against a bound on ru_maxrss, and one that starts
tracemalloc after numpy and wellspin.harness are imported, against a bound
on the traced peak. That peak counts the arrays the code holds, not the
heap's layout, so it does not move with where the checkout sits; tracing
adds 7 MB or more to the RSS, so the two never share a process. Prints one
line per step; exits 1 if a peak is over its bound or a run exits non-zero.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the program of one run; the mesh chain builds meshes at m = 64 .. 512 and
# their edge inverses outside run(), so glibc's heap thresholds stay dynamic
CHILD = """
import resource, sys, tracemalloc
import numpy as np
from wellspin.harness import run
from wellspin.mesh import build_kuhn_mesh, find_admissible_rotation
from wellspin.wells import WellSet

def mesh_chain():
    wells = WellSet([np.diag([2.0, 0.5]), np.diag([0.5, 2.0])])
    rotation = find_admissible_rotation(wells).rotation
    for m in (64, 128, 256, 512):
        build_kuhn_mesh(2, m, lattice_rotation=rotation).inverse_edges
    return 0

CONFIG, OUT = {config!r}, {out!r}
{start}
code = mesh_chain() if CONFIG is None else run(CONFIG, out_dir=OUT)
print({peak})
sys.exit(code)
"""
RSS = "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024"
TRACED = "tracemalloc.get_traced_memory()[1] / 2**20"

# name, the config harness.run takes (None for the mesh chain), the
# ru_maxrss bound in MB (ru_maxrss / 1024) and the traced peak in MiB as
# measured on a 2-core Linux host (Python 3.11, numpy 2.4)
STEPS = [
    ("mesh chain", None, 275, 133.19),
    ("laminate chain", {"scenario": "laminate-sweep", "m_list": [128, 256, 512]}, 240, 165.33),
    ("lattice chain", {"scenario": "antiferro-sweep", "lattice": {"m_list": [2**16, 2**18, 2**20]}},
     134, 83.52),
    ("twin lattice", {"scenario": "lattice-sweep", "lattice": {"m_list": [64, 256, 512]}}, 108, 51.17),
    ("spin suite", str(ROOT / "configs" / "spin.json"), 44, 2.29),
]


def peak(config, out, traced):
    """The peak a fresh interpreter prints after one step, and its exit code."""
    start, report = ("tracemalloc.start()", TRACED) if traced else ("", RSS)
    program = CHILD.format(config=config, out=str(out), start=start, peak=report)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stdout.write(proc.stdout + proc.stderr)
    return float((proc.stdout.split() or ["inf"])[-1]), proc.returncode


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, rss_bound, traced_peak in STEPS:
            rss, rss_code = peak(config, Path(tmp, name, "rss"), traced=False)
            traced, traced_code = peak(config, Path(tmp, name, "traced"), traced=True)
            # an 8 MB array live at the laminate or lattice chain's peak is over it
            traced_bound = traced_peak + max(0.03 * traced_peak, 0.5)
            ok = rss <= rss_bound and traced <= traced_bound and rss_code == traced_code == 0
            failed |= not ok
            print(
                f"{'PASS' if ok else 'FAIL'} {name}: RSS {rss:.1f} MB (bound {rss_bound}), "
                f"traced {traced:.2f} MiB (bound {traced_bound:.2f}), exit codes {rss_code} {traced_code}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
