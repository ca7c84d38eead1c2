"""End-to-end benchmark of the four horizon-deflators CLI commands.

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Each operation is one in-process call of ``horizon_deflators.cli.main`` with
a command's arguments, reading documents written during set-up and writing
into a fresh output directory.  Operations run one at a time (a closed loop
with one client) in whole rounds of the same operations until ``--seconds``
have passed.  Every operation's output is checked against the benchmark's
own computation the first time and must be byte-identical in later rounds.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced, and the per-layer metrics come from the traced rounds' spans (see
``spans.py`` and README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".clibench-work"
SETUP_PROBES = 3
# The statistical suite tests ~100 z-scores at 3 standard errors, so some
# seeds reject by chance.  mc-suite runs the two seeds the project itself
# uses (README example and acceptance battery), whatever --seed is.
MC_SEEDS = (7, 424242)
MC_PATHS = 100_000
MC_DT = 2.0 ** -10
REPORT_TIMES = 8  # simulate's default report grid


@dataclass
class Op:
    """One CLI call of a round.

    ``argv`` maps the round's output directories (by op key) to the command's
    arguments, so an op may read what an earlier op of its round wrote.  A
    well-formed op must exit 0 and pass ``check(code, outdir)``; a malformed
    one (``expect_exit`` set) must exit with that code, else it counts as
    failed.
    """

    key: str
    argv: Callable[[dict], list]
    check: Callable | None = None
    cells: int = 0
    expect_exit: int | None = None


@dataclass
class Workload:
    ops: list
    warmup: list  # full argument lists of small commands of the same kinds


def _tree_cells(tree) -> int:
    return tree.n_atoms * (tree.T + 1)


def _priced_model(rng, work: Path, label, branching, horizon, n_assets):
    """A regular-tau priced model plus its three route documents."""
    tree = inputs.Tree.random(rng, branching, horizon)
    tau = inputs.regular_tau(rng, tree)
    S, Z_F = inputs.priced_market(rng, tree, n_assets)
    model = inputs.write_json(work / f"{label}-model.json", inputs.model_doc(tree, tau, S))
    params = {route: inputs.write_json(work / f"{label}-{route}.json", doc)
              for route, doc in inputs.route_params(tree, tau, Z_F).items()}
    return tree, model, params, inputs.expected_deflator(tree, tau, Z_F)


def _deflate_ops(label, tree, model, params, expected_Z) -> list:
    """deflate on every route, then decompose of the multiplicative route's Z."""
    ops = []
    for route, path in params.items():
        ops.append(Op(f"{label}-deflate-{route}",
                      lambda outs, path=path: ["deflate", "--model", model, "--params", path],
                      check=lambda code, out, route=route: checks.check_deflate(
                          code, out, tree, route, expected_Z),
                      cells=_tree_cells(tree)))
    z_key = f"{label}-deflate-multiplicative"
    ops.append(Op(f"{label}-decompose",
                  lambda outs: ["decompose", "--model", model,
                                "--input", os.path.join(outs[z_key], "Z.csv")],
                  check=lambda code, out: checks.check_decompose(code, out, tree),
                  cells=_tree_cells(tree)))
    return ops


# (label, branching, horizon, assets) of the priced models in a trees round:
# a bushy one-asset tree, whose oracle takes the interval formula and whose
# decomposition loop grows with the branching, and two narrower trees whose
# oracle takes the vertex-enumeration path.
PRICED = (("bushy1", 4, 5, 1), ("multi2", 3, 5, 2), ("multi3", 3, 5, 3))


def trees(rng, work: Path) -> Workload:
    wide = inputs.Tree.random(rng, 2, 14)
    tau = inputs.free_tau(rng, wide)
    wide_model = inputs.write_json(work / "wide-model.json", inputs.model_doc(wide, tau))
    nan_model = inputs.write_json(work / "nan-model.json", inputs.nan_model_doc())
    ops = [
        Op("wide-verify", lambda outs: ["verify", "--model", wide_model],
           check=lambda code, out: checks.check_verify(code, out, wide, tau),
           cells=_tree_cells(wide)),
        Op("nan-prob-verify", lambda outs: ["verify", "--model", nan_model],
           expect_exit=2),
    ]
    for label, branching, horizon, n_assets in PRICED:
        ops += _deflate_ops(label, *_priced_model(rng, work, label, branching, horizon,
                                                 n_assets))

    small = inputs.Tree.random(rng, 2, 6)
    small_model = inputs.write_json(work / "warm-model.json",
                                    inputs.model_doc(small, inputs.free_tau(rng, small)))
    warm_out = str(work / "warm-out")
    warmup = [["verify", "--model", small_model, "--out", warm_out]]
    for label, branching, _, n_assets in (PRICED[0], PRICED[2]):  # interval and vertex paths
        _, warm, params, _ = _priced_model(rng, work, f"warm-{label}", branching, 3, n_assets)
        z_dir = str(work / f"warm-{label}-out")
        warmup += [["deflate", "--model", warm, "--params", params["multiplicative"],
                    "--out", z_dir],
                   ["decompose", "--model", warm, "--input", os.path.join(z_dir, "Z.csv"),
                    "--out", warm_out]]
    return Workload(ops, warmup)


def mc_suite(rng, work: Path) -> Workload:
    ops = []
    for seed in MC_SEEDS:
        sc = inputs.scenario_doc(seed, MC_PATHS, MC_DT)
        path = inputs.write_json(work / f"scenario-{seed}.json", sc)
        ops.append(Op(f"simulate-{seed}",
                      lambda outs, path=path: ["simulate", "--scenario", path],
                      check=lambda code, out, sc=sc: checks.check_simulate(code, out, sc),
                      cells=MC_PATHS * REPORT_TIMES))
    warm = inputs.write_json(work / "warm-scenario.json",
                             inputs.scenario_doc(MC_SEEDS[0], 2000, 2.0 ** -6))
    return Workload(ops, [["simulate", "--scenario", warm, "--out", str(work / "warm-out")]])


WORKLOADS = {"trees": trees, "mc-suite": mc_suite}

END_TO_END = {"setup_s": "s", "round_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {m: "s" for m in spans.SELF_METRICS + spans.COMMAND_METRICS}
    units.update({m: "count" for m in spans.COUNT_METRICS})
    units.update({"modelio.bytes_read": "bytes", "modelio.bytes_written": "bytes",
                  "trace.overhead_s": "s", "trace.attributed_pct": "%"})
    return units


def measure_setup(warmup_file: str) -> float:
    """Median over fresh interpreters of import plus warm-up time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC),
                               str(warmup_file)],
                              capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"probe imported {probe['module']}, not this checkout")
        times.append(probe["setup_s"])
    return statistics.median(times)


def call_cli(cli, argv, tracer=None, op_id=None):
    """One CLI call with its output captured: (exit code, wall seconds, log)."""
    sink = io.StringIO()
    gc.collect()  # garbage of the previous operation, outside the timed region
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.run(op_id, cli.main, argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return code, wall, sink.getvalue()


class Runner:
    def __init__(self, cli, workload: Workload, work: Path, tracer=None):
        self.cli, self.workload, self.work, self.tracer = cli, workload, work, tracer
        self.correct, self.attempted, self.failed = True, 0, 0
        self.digests = {}
        self.rounds = []  # (traced, wall of the well-formed ops, [(op id, wall)])
        self.op_walls = {}  # op key -> untraced walls

    def _output_ok(self, op: Op, code, outdir: str, log: str) -> bool:
        """Full check the first time an op passes, byte identity afterwards."""
        try:
            if op.key in self.digests:
                checks.exit_zero(code)
                if checks.digests(outdir) != self.digests[op.key]:
                    raise checks.CheckFailed("output differs from an earlier round")
            else:
                op.check(code, outdir)
                self.digests[op.key] = checks.digests(outdir)
            return True
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            print(f"check failed for {op.key}: {exc}\n{log}", file=sys.stderr)
            return False

    def round(self, index: int, traced: bool):
        round_dir = self.work / "out" / f"r{index}"
        outs, wall_sum, op_walls = {}, 0.0, []
        for op in self.workload.ops:
            outdir = str(round_dir / op.key)
            os.makedirs(outdir)
            argv = op.argv(outs) + ["--out", outdir]
            op_id = f"r{index}:{op.key}"
            use_tracer = self.tracer if traced and op.expect_exit is None else None
            code, wall, log = call_cli(self.cli, argv, use_tracer, op_id)
            outs[op.key] = outdir
            self.attempted += 1
            if op.expect_exit is not None:
                if code != op.expect_exit:
                    self.failed += 1
                continue
            if not self._output_ok(op, code, outdir, log):
                self.failed += 1
                self.correct = False
            wall_sum += wall
            op_walls.append((op_id, wall))
            if not traced:
                self.op_walls.setdefault(op.key, []).append(wall)
        shutil.rmtree(round_dir)
        self.rounds.append((traced, wall_sum, op_walls))

    def run(self, seconds: float):
        t0 = time.perf_counter()
        index = 0
        while True:
            self.round(index, traced=self.tracer is not None and index % 2 == 1)
            index += 1
            enough = time.perf_counter() - t0 >= seconds
            if enough and (self.tracer is None or index >= 2):
                return

    def end_to_end(self, setup_s: float) -> dict:
        walls = [w for traced, w, _ in self.rounds if not traced]
        cells = sum(op.cells for op in self.workload.ops if op.expect_exit is None)
        return {
            "setup_s": setup_s,
            "round_s": statistics.median(walls),
            "cells_per_s": statistics.median(cells / w for w in walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        per_round, attributed = [], []
        for traced, _, op_walls in self.rounds:
            if not traced:
                continue
            total = dict.fromkeys(per_layer_units(), 0.0)
            for op_id, wall in op_walls:
                m = self.tracer.op_metrics(op_id)
                attributed.append(100.0 * sum(m[k] for k in spans.SELF_METRICS) / wall)
                for k, v in m.items():
                    total[k] += v
            per_round.append(total)
        out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        untraced = statistics.median(w for traced, w, _ in self.rounds if not traced)
        traced = statistics.median(w for t, w, _ in self.rounds if t)
        out["trace.overhead_s"] = traced - untraced
        out["trace.attributed_pct"] = min(attributed)
        return out


def import_cli():
    sys.path.insert(0, str(SRC))
    from horizon_deflators import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not this checkout's src/")
    return cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "horizon_deflators" / "cli.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        workload = WORKLOADS[args.workload](rng, work)
        warmup_file = inputs.write_json(work / "warmup.json", workload.warmup)
        setup_s = measure_setup(warmup_file)
        cli = import_cli()
        for argv in workload.warmup:
            call_cli(cli, argv)

        tracer = spans.Tracer() if args.trace else None
        runner = Runner(cli, workload, work, tracer)
        runner.run(args.seconds)

        print("median wall per operation: " + ", ".join(
            f"{key} {statistics.median(w):.4f} s" for key, w in runner.op_walls.items())
            + "; rounds (t: traced): " + " ".join(
                f"{w:.3f}{'t' if t else ''}" for t, w, _ in runner.rounds) + " s",
            file=sys.stderr)
        if tracer is not None:
            metrics, units = runner.per_layer(), per_layer_units()
            tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, units = runner.end_to_end(setup_s), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
