"""Output checks for each CLI command, computed independently of the library.

Every check reads what a command wrote and compares it with the benchmark's
own numpy computation (``inputs.Tree``) or with a property the method must
have.  None compares against a stored copy of an earlier output.  A check
raises :class:`CheckFailed` naming the first thing that is wrong.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

TOL_PROB = 1e-12      # survival probabilities lie in [0, 1]
TOL_REL = 1e-10       # relative, for products of ratios (Z_bar, deflators)
TOL_MART = 1e-9       # martingale residual relative to the process scale


class CheckFailed(Exception):
    """A command's output disagrees with the benchmark's own computation."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def exit_zero(code):
    _require(code == 0, f"exit code {code}, expected 0")


def read_json(outdir, name):
    path = os.path.join(outdir, name)
    _require(os.path.isfile(path), f"{name} was not written")
    with open(path) as fh:
        return json.load(fh)


def read_table(outdir, name, tree) -> np.ndarray:
    """Parse an (atom, time, value) CSV into an (n_atoms, T + 1) array.

    Rows must come atom by atom in the model's order, times 0..T within each.
    """
    path = os.path.join(outdir, name)
    _require(os.path.isfile(path), f"{name} was not written")
    values = []
    with open(path) as fh:
        _require(fh.readline() == "atom,time,value\n", f"{name}: bad header")
        for i in range(tree.n_atoms):
            for n in range(tree.T + 1):
                line = fh.readline()
                key, _, value = line.rstrip("\n").rpartition(",")
                _require(key == f"a{i},{n}", f"{name}: row {line!r} where a{i},{n} belongs")
                values.append(float(value))
        _require(fh.readline() == "", f"{name}: rows beyond the horizon")
    return np.array(values).reshape(tree.n_atoms, tree.T + 1)


def _close(name, got, want, *, rel=0.0, abs_=0.0):
    err = np.abs(got - want)
    lim = abs_ + rel * np.abs(want)
    bad = ~(err <= lim)  # NaN counts as bad
    if np.any(bad):
        atom, n = np.unravel_index(int(np.argmax(np.where(bad, err, -1.0))), got.shape)
        raise CheckFailed(f"{name} differs at atom {atom}, time {n}: "
                          f"{got[atom, n]!r} against {want[atom, n]!r}")


def check_verify(code, outdir, tree, tau):
    """Exit 0, no failing invariant, and G, G~, Z_bar equal to our own."""
    exit_zero(code)
    report = read_json(outdir, "verify-report.json")
    _require(report.get("failing") == [] and report.get("ok") is True,
             f"verify reports failing invariants {report.get('failing')}")
    G, Gt, Z_bar = tree.survival(tau)
    _close("G", read_table(outdir, "survival_G.csv", tree), G, abs_=TOL_PROB)
    _close("G_tilde", read_table(outdir, "survival_G_tilde.csv", tree), Gt, abs_=TOL_PROB)
    _close("Z_bar", read_table(outdir, "survival_Z_bar.csv", tree), Z_bar, rel=TOL_REL)
    for name in ("m", "N_G"):
        _require(os.path.isfile(os.path.join(outdir, f"survival_{name}.csv")),
                 f"survival_{name}.csv was not written")


def check_deflate(code, outdir, tree, route, expected_Z):
    """Exit 0, Z = Z_F^tau / Z_bar^tau, admissible, both oracles ok."""
    exit_zero(code)
    _close(f"{route} Z", read_table(outdir, "Z.csv", tree), expected_Z, rel=TOL_REL)
    cert = read_json(outdir, "certificate.json")
    _require(cert.get("route") == route, f"certificate names route {cert.get('route')}")
    _require(cert.get("admissible") is True, "certificate: not admissible")
    for oracle in ("verify_lmd", "verify_deflator"):
        verdict = cert.get(oracle) or {}
        _require(verdict.get("ok") is True, f"certificate: {oracle} is {verdict}")


def check_decompose(code, outdir, tree):
    """Exit 0, reassembly within tolerance, M_F a public martingale."""
    exit_zero(code)
    report = read_json(outdir, "decompose-report.json")
    res, tol = report.get("reassembly_residual"), report.get("tolerance")
    _require(isinstance(res, float) and isinstance(tol, float) and res <= tol
             and report.get("ok") is True,
             f"reassembly residual {res!r} against tolerance {tol!r}")
    M_F = read_table(outdir, "M_F.csv", tree)
    scale = max(1.0, float(np.max(np.abs(M_F))))
    worst = tree.martingale_residual(M_F)
    _require(worst <= TOL_MART * scale, f"M_F is not a martingale: residual {worst:g}")
    _require(os.path.isfile(os.path.join(outdir, "phi.csv")), "phi.csv was not written")


def m_identity_bound(beta, lam, dt, horizon) -> float:
    """Trapezoid error bound for the D^o quadrature, O(dt^2).

    The integrand f(s) = (beta + lam) beta s exp(-beta s) has
    |f''| <= 2 beta^2 (beta + lam) on [0, inf); the trapezoid rule over
    [0, t] with step dt errs by at most t dt^2 max|f''| / 12, and the last
    partial step adds at most dt^3 max|f''| / 12.
    """
    f2 = 2.0 * beta**2 * (beta + lam)
    return f2 * (horizon + dt) * dt**2 / 12.0 + 1e-12


def check_simulate(code, outdir, scenario):
    """Exit 0, beta and psi1 in closed form, m = G + D^o within O(dt^2)."""
    exit_zero(code)
    summary = read_json(outdir, "simulate-summary.json")
    sc = summary.get("scenario", {})
    lam, a = scenario["lambda"], scenario["a"]
    beta = lam * (1.0 / a - 1.0)
    _require(abs(sc.get("beta", np.nan) - beta) <= 1e-12 * beta,
             f"beta {sc.get('beta')!r}, closed form {beta!r}")
    psi2 = scenario["psi2"]
    _require(sc.get("psi2") == psi2, f"psi2 {sc.get('psi2')!r}, sent {psi2!r}")
    psi1 = -(scenario["mu"] + (psi2 - 1.0) * scenario["zeta"] * lam) / scenario["sigma"]
    _require(abs(sc.get("psi1", np.nan) - psi1) <= 1e-12 * max(1.0, abs(psi1)),
             f"psi1 {sc.get('psi1')!r}, closed form {psi1!r}")
    _require(sc.get("n_paths") == scenario["n_paths"] and sc.get("seed") == scenario["seed"],
             "summary names another sampling plan")
    res = summary.get("m_identity_residual", np.nan)
    bound = m_identity_bound(beta, lam, scenario["dt"], scenario["horizon"])
    _require(res <= bound, f"m_identity_residual {res!r} exceeds {bound:g}")
    _require(summary.get("ok") is True and summary.get("rejected") == []
             and len(summary.get("results", {})) == 9,
             f"nulls rejected: {summary.get('rejected')}")


def digests(outdir) -> dict:
    """sha256 of every file an operation wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
