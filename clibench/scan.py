"""One-off scaling scan of ``verify`` and ``simulate``, for the record only.

    python3 clibench/scan.py

Runs each point once, in its own interpreter so that peak memory is per
point: ``verify`` on full binary and 4-ary trees from 64 to 65,536 atoms
(unrestricted ``tau``, seed 0) and ``simulate`` on the README scenario from
10k to 300k paths.  1M paths would hold about 2 GB, which is more than a
shared 8 GB machine should give a one-off scan.  Prints one line per point.
Not part of the benchmark's metrics: one run per point is too few to compare.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TREES = [(2, d) for d in (6, 8, 10, 12, 14, 16)] + [(4, d) for d in (3, 4, 5, 6, 7, 8)]
PATHS = (10_000, 30_000, 100_000, 300_000)


def point(kind: str, a: int, b: int, work: Path) -> dict:
    """Run one CLI command in this process; wall time and peak RSS."""
    import numpy as np

    import inputs

    sys.path.insert(0, str(ROOT / "src"))
    from horizon_deflators import cli

    rng = np.random.default_rng(0)
    if kind == "verify":
        tree = inputs.Tree.random(rng, a, b)
        doc = inputs.write_json(work / "model.json",
                                inputs.model_doc(tree, inputs.free_tau(rng, tree)))
        argv = ["verify", "--model", doc]
        size = f"{tree.n_atoms} atoms, {a}-ary, T={b}"
    else:
        doc = inputs.write_json(work / "scenario.json", inputs.scenario_doc(7, a, 2.0 ** -10))
        argv = ["simulate", "--scenario", doc]
        size = f"{a} paths"
    t0 = time.perf_counter()
    code = cli.main(argv + ["--out", str(work / "out")])
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"command": kind, "size": size, "exit": code, "wall_s": round(wall, 3),
            "peak_rss_mb": round(rss, 1)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--point", nargs=3, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.point:
        kind, a, b = args.point
        work = Path(tempfile.mkdtemp(dir=ROOT / ".clibench-work"))
        try:
            print(json.dumps(point(kind, int(a), int(b), work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    (ROOT / ".clibench-work").mkdir(exist_ok=True)
    plan = [("verify", b, d) for b, d in TREES]
    plan += [("simulate", n, 0) for n in PATHS]
    for kind, a, b in plan:
        proc = subprocess.run([sys.executable, __file__, "--point", kind, str(a), str(b)],
                              capture_output=True, text=True, cwd=ROOT)
        line = proc.stdout.strip().splitlines()[-1] if proc.returncode == 0 else proc.stderr
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
