"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Exact criteria run on randomized finite trees at their stated tolerances;
the Monte-Carlo criterion runs the full-scale jump-diffusion suite at the
default sampling plan with a fixed seed.  Criteria tied to the strict-
positivity hypotheses of the continuous theory (the cross-route and converse
theorems) draw ``regular`` random times, whose sub-cells never die out under
a live parent block; the survival-algebra and transport criteria use
unrestricted random times.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from horizon_deflators import (
    DeflatorParams,
    build_additive,
    build_measure_change,
    build_multiplicative,
    build_survival,
    classify,
    compensated_default_indicator,
    extract_multiplicative,
    modelio,
    multiplicative_decomposition,
    stochastic_exponential,
    transport,
    transport_compensated,
    trees,
    validate,
    verify_deflator,
    verify_lmd,
)
from horizon_deflators import jumpdiff as jd
from horizon_deflators.cli import main as cli_main
from horizon_deflators.deflators import driver_base, progressive_exponential
from horizon_deflators.errors import AdmissibilityError

import oracle

SEED_TREES = 20240611
SEED_MC = 424242


def _report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


@pytest.fixture(scope="module")
def tree_suite():
    rng = np.random.default_rng(SEED_TREES)
    t0 = time.perf_counter()
    suite = []
    for _ in range(100):
        space = trees.random_space(rng, max_horizon=6, max_atoms=64)
        tau = trees.random_tau(rng, space)
        suite.append((space, tau, build_survival(space, tau)))
    return suite, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mc_bundle():
    sc = jd.JumpDiffusionScenario(sigma=0.2, zeta=0.1, mu=0.03, lam=2.0, a=0.5,
                                  S0=1.0, horizon=1.0, dt=2.0 ** -10,
                                  n_paths=100_000, seed=SEED_MC)
    t0 = time.perf_counter()
    bundle = jd.simulate(sc, keep_paths=4)
    return sc, bundle, time.perf_counter() - t0


def test_criterion_01_survival_algebra(tree_suite):
    suite, build_seconds = tree_suite
    t0 = time.perf_counter()
    worst_mart, worst_ident = 0.0, 0.0
    for space, tau, rts in suite:
        worst_mart = max(worst_mart, classify(space, rts.m).max_residual)
        ident = np.diff(rts.m, axis=1) - (rts.G_tilde[:, 1:] - rts.G_minus[:, 1:])
        worst_ident = max(worst_ident, float(np.max(np.abs(ident))))
    elapsed = build_seconds + time.perf_counter() - t0
    ok = worst_mart <= 1e-10 and worst_ident <= 1e-12 and elapsed < 10.0
    _report(1, "survival algebra on 100 random trees", ok,
            f"martingale residual {worst_mart:.2e}, increment identity "
            f"{worst_ident:.2e}, {elapsed:.2f}s")


def test_criterion_02_transform_martingality(tree_suite):
    suite, _ = tree_suite
    rng = np.random.default_rng(SEED_TREES + 1)
    worst = 0.0
    for space, tau, rts in suite:
        M = trees.random_martingale(rng, space)
        gf = rts.G_filtration
        checks = [
            (transport(M, rts, check=False), gf),
            (transport_compensated(M, rts, check=False), gf),
            (rts.N_G, gf),
            (compensated_default_indicator(rts), gf),
            (rts.Z_bar, None),
        ]
        for X, filt in checks:
            worst = max(worst, classify(space, X, filtration=filt).max_residual)
    _report(2, "transport martingality on 100 random trees", worst <= 1e-10,
            f"worst residual {worst:.2e}")


def test_criterion_03_ground_truth(demo, demo_rts):
    space, tau, _ = demo
    ref = oracle.survival([Fraction(1, 4)] * 4,
                          space.filtration.block_ids.tolist(), tau.tolist())
    F = Fraction
    frozen = {
        "G": [[F(3, 4), F(1, 2), 0]] * 4,
        "Gt": [[1, 1, 1], [1, 1, 0], [1, F(1, 2), 1], [1, F(1, 2), 0]],
        "m": [[1, F(5, 4), F(7, 4)], [1, F(5, 4), F(3, 4)],
              [1, F(3, 4), F(5, 4)], [1, F(3, 4), F(1, 4)]],
        "NG": [[0, -F(1, 2), -F(1, 2)], [0, F(1, 2), F(1, 2)],
               [0, 0, 0], [1, 1, 1]],
        "Zbar": [[1, F(4, 3), F(8, 3)], [1, F(4, 3), 0],
                 [1, F(2, 3), F(4, 3)], [1, F(2, 3), 0]],
    }
    worst = 0.0
    for name, lib in (("G", demo_rts.G), ("Gt", demo_rts.G_tilde),
                      ("m", demo_rts.m), ("NG", demo_rts.N_G),
                      ("Zbar", demo_rts.Z_bar)):
        assert ref[name] == frozen[name], f"oracle disagrees with frozen {name}"
        want = np.array([[float(v) for v in row] for row in frozen[name]])
        worst = max(worst, float(np.max(np.abs(lib - want))))
    qt = demo_rts.qtilde().weights
    assert [F(w).limit_denominator(10**6) for w in qt] == [F(2, 3), 0, F(1, 3), 0]
    zphi = build_measure_change(1.0, 0.5, demo_rts).factors["default_exponential"]
    worst = max(worst, float(np.max(np.abs(
        zphi[:, 2] - [0.75, 1.25, 1.0, 1.0]))))
    rep = validate(DeflatorParams("measure-change", phi=0.0), demo_rts)
    assert np.allclose(rep.bounds["optional_lower"][:, 1], [-2, -2, -1, -1])
    up = rep.bounds["optional_upper"][:, 1]
    assert np.allclose(up[:2], 2.0) and np.isinf(up[2:]).all()
    _report(3, "two-period ground truth vs enumeration oracle", worst <= 1e-14,
            f"max deviation {worst:.2e}")


def _admissible_draw(rng, max_horizon=5, max_atoms=48, n_assets=1):
    space = trees.random_space(rng, max_horizon=max_horizon, max_atoms=max_atoms)
    tau = trees.regular_tau(rng, space)
    rts = build_survival(space, tau)
    market, Z_lmd = trees.random_market(rng, space, n_assets=n_assets)
    return space, tau, rts, market, Z_lmd


def test_criterion_04_lmd_parametrization_forward():
    rng = np.random.default_rng(SEED_TREES + 2)
    worst_agree, worst_oracle = 0.0, 0.0
    for _ in range(100):
        space, tau, rts, market, Z_lmd = _admissible_draw(rng)
        K_F = np.zeros_like(Z_lmd)
        K_F[:, 1:] = np.cumsum(np.diff(Z_lmd, axis=1) / Z_lmd[:, :-1], axis=1)
        phi_m = trees.random_optional_integrand(rng, rts)
        d_mult = build_multiplicative(Z_lmd, phi_m, None, rts)
        Y = driver_base(K_F, rts, check=False)
        phi_add = np.zeros_like(phi_m)
        phi_add[:, 1:] = phi_m[:, 1:] * (1.0 + np.diff(Y, axis=1))
        d_add = build_additive(K_F, None, phi_add, None, rts)
        worst_agree = max(worst_agree, float(np.max(np.abs(d_add.Z - d_mult.Z))))
        stopped = market.stopped(tau, rts.G_filtration)
        rep = verify_lmd(d_add.Z, stopped, tol=1e-9)
        worst_oracle = max(worst_oracle, rep.max_residual)
        assert rep.ok
    ok = worst_agree <= 1e-10
    _report(4, "local-martingale parametrization, 100 admissible draws", ok,
            f"route gap {worst_agree:.2e}, oracle residual {worst_oracle:.2e}")


def test_criterion_05_general_deflators_forward():
    rng = np.random.default_rng(SEED_TREES + 3)
    count = {1: 0, 2: 0}
    for i in range(100):
        d_assets = 2 if i >= 70 else 1
        space, tau, rts, market, Z_lmd = _admissible_draw(
            rng, max_horizon=4, max_atoms=32, n_assets=d_assets)
        V = trees.random_predictable_nondecreasing(rng, space, max_step=0.2)
        Z_F = Z_lmd * stochastic_exponential(-V)
        phi_o = trees.random_optional_integrand(rng, rts)
        d = build_multiplicative(Z_F, phi_o, None, rts)
        stopped = market.stopped(tau, rts.G_filtration)
        rep = verify_deflator(d.Z, stopped, tol=1e-9)
        assert rep.ok, (i, rep.worst, rep.max_residual)
        count[d_assets] += 1
    _report(5, "general deflators pass the node-polytope oracle", True,
            f"{count[1]} one-asset and {count[2]} two-asset draws")


def test_criterion_06_converse_round_trips():
    rng = np.random.default_rng(SEED_TREES + 4)
    worst_rebuild, worst_reassembly = 0.0, 0.0
    for _ in range(100):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.regular_tau(rng, space)
        rts = build_survival(space, tau)
        qt = rts.qtilde()
        Z_QF = trees.random_martingale(rng, space, positive=True, measure=qt)
        Z_QF = Z_QF / Z_QF[:, :1]
        phi = trees.random_optional_integrand(rng, rts)
        Z = build_measure_change(Z_QF, phi, rts).Z
        params, diag = extract_multiplicative(Z, rts)
        assert validate(params, rts).ok
        rebuilt = build_multiplicative(params.Z_F, params.phi_o, params.phi_pr, rts).Z
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - Z))))
        worst_reassembly = max(worst_reassembly, diag["decomposition"].residual)
        N1, V1 = multiplicative_decomposition(space, Z, filtration=rts.G_filtration)
        N2, V2 = multiplicative_decomposition(space, Z, filtration=rts.G_filtration)
        assert np.array_equal(N1, N2) and np.array_equal(V1, V2)
    ok = worst_rebuild <= 1e-10 and worst_reassembly <= 1e-12
    _report(6, "converse round-trips on 100 independent deflators", ok,
            f"rebuild {worst_rebuild:.2e}, reassembly {worst_reassembly:.2e}")


def test_criterion_07_measure_change_equivalence():
    rng = np.random.default_rng(SEED_TREES + 5)
    worst_gap, worst_zbar, worst_mass = 0.0, 0.0, 0.0
    for _ in range(50):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.regular_tau(rng, space)
        rts = build_survival(space, tau)
        qt = rts.qtilde()
        worst_mass = max(worst_mass, abs(float(qt.weights.sum()) - 1.0))
        worst_zbar = max(worst_zbar, classify(space, rts.Z_bar).max_residual)
        Z_QF = trees.random_martingale(rng, space, positive=True, measure=qt)
        Z_QF = Z_QF / Z_QF[:, :1]
        phi = trees.random_optional_integrand(rng, rts)
        d_q = build_measure_change(Z_QF, phi, rts)
        d_m = build_multiplicative(Z_QF * rts.Z_bar, phi, None, rts)
        worst_gap = max(worst_gap, float(np.max(np.abs(d_q.Z - d_m.Z))))
    ok = worst_gap <= 1e-10 and worst_zbar <= 1e-12 and worst_mass <= 1e-12
    _report(7, "measure-change route equals product route on 50 draws", ok,
            f"gap {worst_gap:.2e}, density residual {worst_zbar:.2e}, "
            f"mass defect {worst_mass:.2e}")


def test_criterion_08_progressive_collapse():
    rng = np.random.default_rng(SEED_TREES + 6)
    for _ in range(30):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        bad = np.zeros((space.n_atoms, space.horizon + 1))
        atom = int(rng.integers(0, space.n_atoms))
        bad[atom, tau[atom]] += rng.uniform(0.1, 0.5)
        rep = validate(DeflatorParams("multiplicative", Z_F=1.0, phi_pr=bad), rts)
        assert not rep.ok and not rep.collapse_ok
        with pytest.raises(AdmissibilityError):
            build_multiplicative(1.0, None, bad, rts)
        good = trees.random_progressive_integrand(rng, rts)
        assert np.array_equal(progressive_exponential(good, rts),
                              np.ones((space.n_atoms, space.horizon + 1)))
    _report(8, "progressive integrand collapses on trees", True,
            "nonzero values at the default date are rejected; the default-leg "
            "exponential is identically 1")


def test_criterion_09_jump_diffusion_suite(mc_bundle):
    sc, bundle, sim_seconds = mc_bundle
    t0 = time.perf_counter()
    psi2 = 1.0
    psi1 = jd.solve_drift(sc, psi2)
    plain = jd.build_deflator(bundle, psi1, psi2)
    fancy = jd.build_deflator(bundle, psi1, psi2, phi_o=0.25)
    msgs = []
    ok = True

    for name, out in (("survival-discount deflator", plain),
                      ("deflator with default leg", fancy)):
        Z1 = out["Z"][:, -1]
        se = Z1.std(ddof=1) / np.sqrt(sc.n_paths)
        dev = abs(Z1.mean() - 1.0)
        ok &= dev <= 3 * se
        msgs.append(f"{name}: |mean-1| = {dev:.2e} vs 3se = {3 * se:.2e}")

    tests = jd.suite_tests(bundle, psi1, psi2, theta=0.7)[0]
    drift_off = jd.suite_tests(bundle, psi1 + 0.1 * abs(sc.mu) / sc.sigma, psi2,
                               theta=0.7)[0]["deflated_price_drift"]
    base, pert = (jd.mc_test(values, bundle.report_times, start=start, features=feats)
                  for values, start, _, feats in (tests["deflated_price_drift"], drift_off))
    ok &= (not base.rejected) and pert.rejected
    msgs.append(f"drift power: base z = {base.max_abs_z:.2f}, "
                f"perturbed z = {pert.max_abs_z:.2f}")

    for name in ("m", "transported_brownian", "transported_poisson", "N_G",
                 "survival_exponential"):
        vals, x0, _, feats = tests[name]
        rep = jd.mc_test(vals, bundle.report_times, start=x0, features=feats)
        ok &= not rep.rejected
        if rep.rejected:
            msgs.append(f"{name} rejected at z = {rep.max_abs_z:.2f}")

    resid = jd.closed_forms(bundle)["m_identity_residual"]
    resid = max(resid, max(s["m_identity_residual"] for s in bundle.samples))
    ok &= resid <= 5 * sc.dt
    msgs.append(f"pathwise identity residual {resid:.2e} vs 5dt = {5 * sc.dt:.2e}")

    elapsed = sim_seconds + (time.perf_counter() - t0)
    ok &= elapsed < 120.0
    _report(9, "jump-diffusion statistical suite", ok,
            "; ".join(msgs) + f"; runtime {elapsed:.1f}s")


def test_criterion_10_cli_contract(tmp_path):
    space, tau, S = trees.two_period_demo()
    model = modelio.model_to_dict(space, tau, S)
    modelio.write_json(tmp_path / "model.json", model)
    ok = cli_main(["verify", "--model", str(tmp_path / "model.json"),
                   "--out", str(tmp_path / "v1")]) == 0

    corrupt = json.loads((tmp_path / "model.json").read_text())
    corrupt["outcomes"][0]["prob"] = 0.15
    modelio.write_json(tmp_path / "corrupt.json", corrupt)
    ok &= cli_main(["verify", "--model", str(tmp_path / "corrupt.json"),
                    "--out", str(tmp_path / "v2")]) == 2

    modelio.write_json(tmp_path / "bad_params.json",
                       {"route": "measure-change", "phi": -2.0})
    ok &= cli_main(["deflate", "--model", str(tmp_path / "model.json"),
                    "--params", str(tmp_path / "bad_params.json"),
                    "--out", str(tmp_path / "d1")]) == 1

    modelio.write_json(tmp_path / "scenario.json",
                       {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0,
                        "a": 0.5, "n_paths": 4000, "seed": 3, "dt": 2.0 ** -8})
    for sub in ("r1", "r2"):
        ok &= cli_main(["verify", "--model", str(tmp_path / "model.json"),
                        "--out", str(tmp_path / sub)]) == 0
        ok &= cli_main(["simulate", "--scenario", str(tmp_path / "scenario.json"),
                        "--out", str(tmp_path / sub)]) == 0
    for name in ("verify-report.json", "simulate-summary.json", "survival_m.csv",
                 "paths.csv"):
        ok &= ((tmp_path / "r1" / name).read_bytes()
               == (tmp_path / "r2" / name).read_bytes())
    _report(10, "command-line contract and byte-stable outputs", ok)
