"""Command-line front end: verify, deflate, decompose, simulate.

Exit codes are a stable contract: 0 on success, 1 on a mathematical failure
(an invariant or admissibility inequality is named), 2 on input errors.
Outputs are canonical JSON and CSV, byte-identical across runs for identical
inputs and seed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import deflators as dfl
from . import enlargement as enl
from . import jumpdiff as jd
from . import modelio
from .errors import (
    AdmissibilityError,
    ContractViolationError,
    HorizonDeflatorError,
    SpaceValidationError,
    UnsupportedDimensionError,
)
from .market import verify_deflator, verify_lmd
from .prob_core import classify

OUT_ENV = "HORIZON_DEFLATORS_OUT"


@functools.cache
def _keep_chunk_memory() -> None:
    """Keep simulate's chunk memory resident, once per process; a no-op with no mallopt.

    Each 8192-path chunk frees about 25 MB of temporaries, past glibc's dynamic trim threshold
    (twice the largest freed mmapped block, about 2 MB), so the next chunk faulted them back
    in. Setting one value alone ends both dynamic thresholds. A library call leaves them be.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no mallopt in it
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: above a chunk's temporaries
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: above each of them, so they stay on the heap


def _outdir(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise SpaceValidationError(f"output directory {out}: {exc.strerror}") from exc
    return out


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite, non-negative float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite, non-negative number, got {text!r}")
    return value


def cmd_verify(args) -> int:
    try:
        doc = modelio.load_model(args.model)
        rts = enl.build_survival(doc.space, doc.tau, verify=False)
        invariants = enl.survival_residuals(rts)
    except (SpaceValidationError, ContractViolationError) as exc:
        return _fail(2, f"input error: {exc}")
    out = _outdir(args.out)
    failing = {k: v for k, v in invariants.items() if not v <= args.tol}  # NaN fails
    report = {
        "model": os.path.basename(str(args.model)),
        "tolerance": args.tol,
        "invariants": invariants,
        "failing": sorted(failing),
        "ok": not failing,
    }
    modelio.write_json(os.path.join(out, "verify-report.json"), report)
    for name, proc in (("G", rts.G), ("G_tilde", rts.G_tilde), ("m", rts.m),
                       ("N_G", rts.N_G), ("Z_bar", rts.Z_bar)):
        modelio.process_to_csv(os.path.join(out, f"survival_{name}.csv"),
                               doc.space.outcomes, proc)
    if failing:
        worst = max(failing, key=failing.get)
        return _fail(1, f"invariant {worst} fails with residual {failing[worst]:g}")
    print(f"verify: all {len(invariants)} invariants hold at tolerance {args.tol:g}")
    return 0


def cmd_deflate(args) -> int:
    try:
        doc = modelio.load_model(args.model)
        params = modelio.load_params(args.params, doc.space.n_atoms, doc.space.horizon)
        if args.route:
            params = replace(params, route=args.route)
        rts = enl.build_survival(doc.space, doc.tau)
    except (SpaceValidationError, ContractViolationError, AdmissibilityError) as exc:
        return _fail(2, f"input error: {exc}")  # AdmissibilityError: a table or route
    try:
        deflator = dfl.ROUTES[params.route][1](params, rts)
    except AdmissibilityError as exc:
        return _fail(1, f"inadmissible parameters: {exc}")
    out = _outdir(args.out)
    modelio.process_to_csv(os.path.join(out, "Z.csv"), doc.space.outcomes, deflator.Z)
    for name, f in deflator.factors.items():
        modelio.process_to_csv(os.path.join(out, f"factor_{name}.csv"),
                               doc.space.outcomes, f)
    certificate = {
        "route": params.route,
        "provenance": deflator.provenance,
        "admissible": deflator.report.ok,
        "min_factor": deflator.report.min_factor,
        "factor_product_residual": float(np.max(np.abs(
            deflator.factor_product() - deflator.Z))),
        "classify": classify(rts.space, deflator.Z,
                             filtration=rts.G_filtration).verdict,
    }
    verdicts = "no price table, so no oracle ran"
    if doc.market is not None:
        stopped = doc.market.stopped(rts.tau, rts.G_filtration)
        lmd = verify_lmd(deflator.Z, stopped, tol=args.tol)
        certificate["verify_lmd"] = {"ok": lmd.ok, "residual": lmd.max_residual}
        verdicts = (f"verify_lmd {'accepts' if lmd.ok else 'rejects'} Z "
                    f"(residual {lmd.max_residual:g})")
        try:
            gen = verify_deflator(deflator.Z, stopped, tol=args.tol)
            certificate["verify_deflator"] = {"ok": gen.ok, "excess": gen.max_residual}
            verdicts += (f", verify_deflator {'accepts' if gen.ok else 'rejects'} Z "
                         f"(excess {gen.max_residual:g})")
        except UnsupportedDimensionError as exc:
            certificate["verify_deflator"] = {"ok": None, "note": str(exc)}
            verdicts += ", verify_deflator not run"
    modelio.write_json(os.path.join(out, "certificate.json"), certificate)
    # exit 0 says the parameters are admissible; the oracles' verdicts on Z close the line
    print(f"deflate: route {params.route}, admissible, certificate written; {verdicts}")
    return 0


def cmd_decompose(args) -> int:
    try:
        doc = modelio.load_model(args.model)
        rts = enl.build_survival(doc.space, doc.tau)
        table = modelio.process_from_csv(args.input, doc.space.outcomes,
                                         doc.space.horizon)
        if not rts.G_filtration.is_adapted(table, tol=1e-9):
            raise SpaceValidationError("table is not adapted to the enlarged filtration")
    except (SpaceValidationError, ContractViolationError) as exc:
        return _fail(2, f"input error: {exc}")
    try:
        repn = dfl.decompose_martingale(table, rts, tol=args.tol)
    except ContractViolationError as exc:
        return _fail(1, f"decomposition rejected: {exc}")
    out = _outdir(args.out)
    modelio.process_to_csv(os.path.join(out, "M_F.csv"), doc.space.outcomes, repn.M_F)
    modelio.process_to_csv(os.path.join(out, "phi.csv"), doc.space.outcomes, repn.phi)
    report = {"reassembly_residual": repn.residual, "tolerance": args.tol,
              "ok": repn.residual <= args.tol}
    modelio.write_json(os.path.join(out, "decompose-report.json"), report)
    if repn.residual > args.tol:
        return _fail(1, f"reassembly residual {repn.residual:g} exceeds {args.tol:g}")
    print(f"decompose: reassembly residual {repn.residual:g}")
    return 0


def cmd_simulate(args) -> int:
    try:
        sc, extras = modelio.load_scenario(args.scenario)
        overrides = {"dt": args.dt, "n_paths": args.paths, "seed": args.seed}
        sc = replace(sc, **{k: v for k, v in overrides.items() if v is not None})
        psi2, phi_o, phi_pr = extras["psi2"], extras["phi_o"], extras["phi_pr"]
        psi1 = jd.solve_drift(sc, psi2)
        kept, reports, n_z, z_crit, m_residual = jd.simulate_suite(
            sc, psi1, psi2, theta=extras["theta"], phi_o=phi_o, phi_pr=phi_pr,
            keep_paths=extras["keep_paths"])
    except SpaceValidationError as exc:
        return _fail(2, f"input error: {exc}")
    except AdmissibilityError as exc:
        return _fail(2, f"scenario constraint violation: {exc}")
    rejected = sorted(name for name, rep in reports.items() if rep.rejected)
    warnings = [f"{name}: {rep.warning}" for name, rep in reports.items() if rep.warning]
    out = _outdir(args.out)
    summary = {
        "scenario": {"sigma": sc.sigma, "zeta": sc.zeta, "mu": sc.mu, "lambda": sc.lam,
                     "a": sc.a, "beta": sc.beta, "S0": sc.S0, "horizon": sc.horizon,
                     "dt": sc.dt, "n_paths": sc.n_paths, "seed": sc.seed,
                     "psi1": psi1, "psi2": psi2},
        "report_times": kept.report_times.tolist(),
        "alpha": jd.SUITE_ALPHA,
        "n_zscores": n_z,
        "z_crit": z_crit,
        "results": {name: {"null": rep.null, "means": rep.means, "ses": rep.ses,
                           "zscores": rep.zscores, "max_abs_z": rep.max_abs_z,
                           "rejected": rep.rejected} for name, rep in reports.items()},
        "m_identity_residual": m_residual,
        "rejected": rejected,
        "warnings": warnings,
        "ok": not rejected,
    }
    modelio.write_json(os.path.join(out, "simulate-summary.json"), summary)
    if kept.samples:
        cols = ("time", "W", "N", "S", "G", "m", "N_G")
        rows = ((s["index"], np.column_stack([s[c] for c in cols] + [
            jd.deflator_grid(kept, s["index"], psi1, psi2, phi_o=phi_o, phi_pr=phi_pr)]))
            for s in kept.samples)
        modelio.table_to_csv(os.path.join(out, "paths.csv"), ("path", *cols, "Z"), rows)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if rejected:
        return _fail(1, f"null rejected for: {', '.join(rejected)}")
    print(f"simulate: all {len(reports)} statistical nulls pass: every one of {n_z} z-scores "
          f"within {z_crit:.3f} (family-wise size {jd.SUITE_ALPHA:g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="horizon-deflators",
        description="Construct and verify deflators for markets stopped at a random horizon.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check all survival-structure invariants of a model")
    v.add_argument("--model", required=True)
    v.add_argument("--out", default=None)
    v.add_argument("--tol", type=_tolerance, default=1e-10)
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("deflate", help="build a deflator from a parameter document")
    d.add_argument("--model", required=True)
    d.add_argument("--params", required=True)
    d.add_argument("--route", choices=list(dfl.ROUTES), default=None)
    d.add_argument("--out", default=None)
    d.add_argument("--tol", type=_tolerance, default=1e-9)
    d.set_defaults(func=cmd_deflate)

    c = sub.add_parser("decompose", help="decompose an enlarged-filtration martingale")
    c.add_argument("--model", required=True)
    c.add_argument("--input", required=True, help="CSV process table (atom,time,value)")
    c.add_argument("--out", default=None)
    c.add_argument("--tol", type=_tolerance, default=1e-9)
    c.set_defaults(func=cmd_decompose)

    s = sub.add_parser("simulate", help="run the jump-diffusion statistical suite")
    s.add_argument("--scenario", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--paths", type=int, default=None)
    s.add_argument("--dt", type=float, default=None)
    s.set_defaults(func=cmd_simulate)
    return p


def main(argv=None) -> int:
    _keep_chunk_memory()
    args = build_parser().parse_args(argv)
    args.out = args.out or os.environ.get(OUT_ENV) or "."
    try:
        out = path = os.path.abspath(args.out)  # refused before any work: a file, or below one
        while not os.path.exists(path):
            path = os.path.dirname(path)
        if not os.path.isdir(path):
            reason = "File exists" if path == out else "Not a directory"
            raise SpaceValidationError(f"output directory {args.out}: {reason}")
        return args.func(args)
    except HorizonDeflatorError as exc:
        return _fail(2, f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
