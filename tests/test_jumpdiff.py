"""Jump-diffusion engine: exactness, closed forms, statistics (fast scale)."""

import re

import numpy as np
import pytest

from horizon_deflators import (
    AdmissibilityError,
    JumpDiffusionScenario,
    SpaceValidationError,
    build_deflator,
    closed_forms,
    mc_test,
    simulate,
    solve_drift,
)
from horizon_deflators import jumpdiff as jd
from oracle import per_path_simulate, sandwich_regression_z


def scenario(**kw):
    base = dict(sigma=0.2, zeta=0.1, mu=0.03, lam=2.0, a=0.5,
                n_paths=4000, seed=5, dt=2.0 ** -8)
    base.update(kw)
    return JumpDiffusionScenario(**base)


# ------------------------------------------------------------------ validation

def test_scenario_rejections():
    with pytest.raises(SpaceValidationError):
        scenario(sigma=0.0)
    with pytest.raises(SpaceValidationError):
        scenario(a=1.5)
    with pytest.raises(SpaceValidationError):
        scenario(zeta=-1.0)
    with pytest.raises(SpaceValidationError):
        scenario(dt=0.0)
    with pytest.raises(SpaceValidationError):
        scenario(n_paths=0)


@pytest.mark.parametrize("field,value,message", [
    ("mu", np.nan, "mu must be finite"),
    ("S0", np.nan, "S0 must be finite"),
    ("sigma", np.inf, "sigma must be finite"),
    ("lam", np.inf, "lam must be finite"),
    ("horizon", np.inf, "horizon must be finite"),
    ("dt", np.inf, "dt must be finite"),
    ("seed", -1, "seed must be non-negative"),
    ("seed", 7.0, "seed must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("n_paths", 100.0, "n_paths must be an integer"),
    ("n_paths", jd.MAX_PATHS + 1, "n_paths must lie in"),
    ("dt", 1e-9, "horizon / dt"),
    ("lam", 2000.0, "lam * horizon"),
])
def test_scenario_rejects_non_finite_and_bad_integers(field, value, message):
    with pytest.raises(SpaceValidationError, match=re.escape(message)):
        scenario(**{field: value})


def test_simulate_rejects_keep_paths_outside_range():
    for keep in (-1, 5):
        with pytest.raises(SpaceValidationError, match="keep_paths"):
            simulate(scenario(n_paths=3), keep_paths=keep)


def test_beta_definition():
    sc = scenario()
    assert np.isclose(sc.beta, sc.lam * (1 / sc.a - 1))


# ----------------------------------------------------------------- solve_drift

def test_solve_drift_examples():
    assert solve_drift(scenario(mu=0.0), 1.0) == 0.0
    assert np.isclose(solve_drift(scenario(mu=0.05, zeta=0.0), 0.7), -0.25)
    assert np.isclose(solve_drift(scenario(), 0.5), 0.35)
    with pytest.raises(AdmissibilityError):
        solve_drift(scenario(), 0.0)


# -------------------------------------------------------------------- simulate

def test_simulation_reproducible_and_prefix_stable():
    sc = scenario(n_paths=500)
    b1 = simulate(sc)
    b2 = simulate(sc)
    assert np.array_equal(b1.W, b2.W) and np.array_equal(b1.tau, b2.tau)
    b3 = simulate(scenario(n_paths=900))
    assert np.array_equal(b3.tau[:500], b1.tau)
    assert np.array_equal(b3.W[:500], b1.W)


@pytest.mark.parametrize("seed", [0, 7, 424242, 2**32 + 5, 2**70 + 3])
def test_spawn_keys_match_seed_sequence(seed):
    n = 70_000
    keys = jd._spawn_keys(seed, n)
    assert keys.shape == (n, 2) and keys.dtype == np.uint64
    for i in (0, 1, 65535, 65536, n - 1):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(2, np.uint64)
        assert np.array_equal(keys[i], ref), i


BUNDLE_FIELDS = ("report_times", "t1", "t2", "tau", "from_second_jump", "W", "W_tau",
                 "N", "S", "G", "G_tilde", "m", "D_opt", "N_G")


@pytest.mark.parametrize("lam", [2.0, 12.0], ids=["readme", "overflow-heavy"])
def test_simulate_matches_per_path_reference(lam):
    # the README scenario; with lam = 12 most paths need more than 8 gaps
    sc = JumpDiffusionScenario(sigma=0.2, zeta=0.1, mu=0.03, lam=lam, a=0.5,
                               n_paths=3000, seed=7)
    got = simulate(sc, keep_paths=4)
    ref = per_path_simulate(sc, keep_paths=4)
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    if lam > 2.0:
        assert np.mean(got.N[:, -1] >= 8) > 0.5  # these paths were replayed
    assert len(got.samples) == len(ref.samples) == 4
    for s_got, s_ref in zip(got.samples, ref.samples):
        assert s_got.keys() == s_ref.keys()
        for key in s_ref:
            assert np.array_equal(s_got[key], s_ref[key]), key


def test_horizon_respects_order():
    b = simulate(scenario(n_paths=300))
    assert np.all(b.tau <= b.t1 + 1e-15)
    assert np.all(b.t1 < b.t2)


def test_brownian_and_poisson_moments():
    sc = scenario(n_paths=20000, mu=0.0, zeta=0.0, seed=6)
    b = simulate(sc)
    se = b.S[:, -1].std(ddof=1) / np.sqrt(sc.n_paths)
    assert abs(b.S[:, -1].mean() - sc.S0) <= 3 * se
    counts = b.N[:, -1]
    se_n = counts.std(ddof=1) / np.sqrt(sc.n_paths)
    assert abs(counts.mean() - sc.lam * sc.horizon) <= 3 * se_n
    var_w = b.W[:, -1].var(ddof=1)
    assert abs(var_w - sc.horizon) <= 5 * np.sqrt(2.0 / sc.n_paths)


def test_closed_forms_initials_and_identity():
    b = simulate(scenario(n_paths=200), keep_paths=3)
    for s in b.samples:
        assert s["G"][0] == 1.0 and s["G_tilde"][0] == 1.0
        assert s["D_opt"][0] == 0.0 and s["m"][0] == 1.0
        assert s["m_identity_residual"] <= 5 * b.scenario.dt
        # the pre-default interval sits inside {G_minus > 0}
        before = s["time"] < s["tau"]
        assert np.all(s["G"][before] > 0)
    res = closed_forms(b)
    assert res["m_identity_residual"] <= 5 * b.scenario.dt


def test_closed_form_value_at_inverse_beta():
    # beta = lam = 2 when a = 1/2: survival at t = 1/beta equals 2/e on {T1 > t}
    sc = scenario(n_paths=500, seed=7)
    b = simulate(sc)
    t_idx = np.argmin(np.abs(b.report_times - 0.5))
    assert np.isclose(b.report_times[t_idx], 0.5)
    alive = b.t1 > 0.5
    assert alive.any()
    assert np.allclose(b.G[alive, t_idx], 2 * np.exp(-1.0))


def test_survival_mc_matches_closed_form():
    sc = scenario(n_paths=20000, seed=8)
    b = simulate(sc)
    # E[1{tau > t}] = E[G_t]: compare the indicator mean with the mean of G
    for j in (2, 5, 7):
        ind = (b.tau > b.report_times[j]).astype(float)
        se = ind.std(ddof=1) / np.sqrt(sc.n_paths)
        assert abs(ind.mean() - b.G[:, j].mean()) <= 3 * se + 1e-3


def test_g_tilde_vanishes_from_t1_on_both_grids():
    # path 0 has T1 on a point of both grids; path 1 has T1 2e-6 before one,
    # inside np.isclose's relative tolerance of that point
    sc = scenario(n_paths=2, dt=2.0 ** -6)
    t1 = np.array([0.5, 0.5 - 2e-6])
    jumps = np.stack([t1, np.full(2, 5.0), np.full(2, np.inf)], axis=1)  # tau = T1
    rep = np.array([0.25, 0.5 - 2e-6, 0.5, 0.5 + 2e-6, 1.0])
    normals = np.random.default_rng(0).standard_normal((2, len(rep) + 1))
    b = jd._evaluate(sc, rep, jumps, normals, 2, lambda i: np.random.default_rng(i))
    for i in range(2):
        for times, G, G_tilde in ((rep, b.G[i], b.G_tilde[i]),
                                  (b.samples[i]["time"], b.samples[i]["G"],
                                   b.samples[i]["G_tilde"])):
            assert 0.5 in times
            assert np.array_equal(G_tilde, G)
            assert np.all(G_tilde[times >= t1[i]] == 0.0)
            assert np.all(G_tilde[times < t1[i]] > 0.0)


def test_bridge_samples_consistent_with_report_grid():
    sc = scenario(n_paths=64, dt=2.0 ** -6, seed=9)
    b = simulate(sc, keep_paths=2)
    for s in b.samples:
        i = s["index"]
        for j, t in enumerate(b.report_times):
            g = np.argmin(np.abs(s["time"] - t))
            assert np.isclose(s["time"][g], t)
            assert abs(s["W"][g] - b.W[i, j]) <= 1e-12
            assert abs(s["S"][g] - b.S[i, j]) <= 1e-9
            assert s["N"][g] == b.N[i, j]


def test_bridge_fill_covers_grid_past_last_anchor():
    # a horizon that is not a multiple of dt, and report times ending early,
    # leave grid points past the last anchor; W must move like a Brownian
    # path there too (no step beyond 6 standard deviations)
    sc = scenario(n_paths=8, horizon=0.6484375, dt=2.0 ** -6, seed=0)
    for rep in (None, [0.1, 0.3]):
        b = simulate(sc, report_times=rep, keep_paths=3)
        for s in b.samples:
            assert s["time"][-1] > sc.horizon
            steps = np.abs(np.diff(s["W"])) / np.sqrt(np.diff(s["time"]))
            assert np.max(steps) < 6.0
            for key in ("S", "G", "m", "D_opt", "N_G"):
                assert np.all(np.isfinite(s[key])), key


# ----------------------------------------------------------- deflators and mc

def test_deflator_constraints():
    b = simulate(scenario(n_paths=300))
    with pytest.raises(AdmissibilityError):
        build_deflator(b, 0.0, 1.0, phi_o=-2.0)
    with pytest.raises(AdmissibilityError):
        build_deflator(b, 0.0, 0.0)
    with pytest.raises(AdmissibilityError) as err:
        build_deflator(b, 0.0, 1e-9, phi_o=0.5)
    assert "path" in str(err.value)


def test_deflator_unit_mean_and_wealth():
    sc = scenario(n_paths=20000, seed=10)
    b = simulate(sc)
    psi2 = 1.0
    psi1 = solve_drift(sc, psi2)
    out = build_deflator(b, psi1, psi2)
    rep = mc_test(out["Z"], b.report_times, start=1.0)
    assert not rep.rejected
    w = jd.proportional_wealth(b, 0.8)
    rep2 = mc_test(out["Z"] * w, b.report_times, start=1.0, null="supermartingale")
    assert not rep2.rejected
    out3 = build_deflator(b, psi1, psi2, phi_o=0.4)
    rep3 = mc_test(out3["Z"], b.report_times, start=1.0)
    assert not rep3.rejected


def test_martingale_suite_small():
    sc = scenario(n_paths=20000, seed=11)
    b = simulate(sc)
    feats = jd.feature_matrix(b)
    for vals, x0 in ((b.m, 1.0), (jd.transported_brownian(b), 0.0),
                     (jd.transported_poisson(b), 0.0), (b.N_G, 0.0),
                     (jd.survival_exponential(b), 1.0)):
        rep = mc_test(vals, b.report_times, start=x0, features=feats)
        assert not rep.rejected, rep.max_abs_z


def test_mc_power_detects_price_drift():
    sc = scenario(n_paths=20000, mu=0.05, zeta=0.0, seed=12)
    b = simulate(sc)
    rep = mc_test(b.S, b.report_times, start=sc.S0)
    assert rep.rejected and rep.max_abs_z > 10


def test_mc_test_constant_and_warning():
    vals = np.ones((500, 4))
    rep = mc_test(vals, [0.25, 0.5, 0.75, 1.0], start=1.0)
    assert rep.max_abs_z == 0.0 and not rep.rejected
    assert rep.warning is not None


def test_mc_test_fails_closed_on_non_finite(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("lstsq reached on non-finite input")

    monkeypatch.setattr(np.linalg, "lstsq", unreachable)
    rng = np.random.default_rng(0)
    times = [0.25, 0.5, 0.75, 1.0]
    feats = rng.normal(size=(2000, 4, 2))
    for bad in (np.nan, np.inf):
        vals = rng.normal(size=(2000, 4))
        vals[3, 2] = bad
        rep = mc_test(vals, times, start=0.0, features=feats)
        assert rep.rejected and rep.max_abs_z == np.inf
        assert "non-finite values (1 of 8000 entries)" in rep.warning
        assert np.isnan(rep.zscores[2]) and rep.regression_z is None
    feats[0, 1, 0] = np.nan
    rep = mc_test(rng.normal(size=(2000, 4)), times, start=0.0, features=feats)
    assert rep.rejected and "non-finite features" in rep.warning
    rep = mc_test(np.ones((1, 4)), times, start=1.0, null="supermartingale")
    assert rep.rejected and rep.max_abs_z == np.inf  # one path: no standard error
    assert "only 1 paths" in rep.warning and "standard errors" in rep.warning


@pytest.mark.parametrize("value,null,z", [
    (0.0, "martingale", -np.inf),
    (2.0, "supermartingale", np.inf),
    (0.5, "supermartingale", -np.inf),
], ids=["zeros-martingale", "above-start-supermartingale", "below-start-supermartingale"])
def test_mc_test_zero_variance_off_start(value, null, z):
    # a constant column away from start has no standard error but is no
    # martingale: z is +-inf, named in a warning; only a rise rejects a
    # supermartingale
    times = [0.25, 0.5, 0.75, 1.0]
    rep = mc_test(np.full((1000, 4), value), times, start=1.0, null=null)
    assert np.array_equal(rep.zscores, np.full(4, z))
    assert rep.rejected == (z > 0 or null == "martingale")
    assert rep.max_abs_z == (np.inf if rep.rejected else -np.inf)
    assert rep.warning == ("zero standard error with mean != start 1 at t = 0.25, 0.5, "
                           f"0.75, 1: z = +-inf under the {null} null")


def _random_suite(seed):
    """1-6 martingale nulls of n = 30..20k paths sharing one feature array.

    Every fifth suite has a constant feature column (2.0, so the reference's
    normal equations are exactly singular too), every fifth a zero column,
    every fifth an all-ones column, every fifth log-normal features spanning
    decades; some nulls drift with the first feature.
    """
    rng = np.random.default_rng(seed)
    n = int(np.exp(rng.uniform(np.log(30), np.log(20_000))))
    R, p, k = (int(rng.integers(lo, hi)) for lo, hi in ((2, 9), (1, 4), (1, 7)))
    F = rng.normal(size=(n, R, p)) * np.exp(rng.normal(scale=3.0, size=p))
    kind = seed % 5
    if kind == 1:
        F[:, :, 0] = 2.0
    elif kind == 2:
        F[:, :, -1] = 0.0
    elif kind == 3:
        F[:, :, 0] = 1.0
    elif kind == 4:
        F[:, :, 0] = np.exp(2.0 * rng.normal(size=(n, R)))
    lagged = np.concatenate([np.zeros((n, 1)), F[:, :-1, 0]], axis=1)
    suite = {}
    for i in range(k):
        noise = rng.normal(size=(n, R)) * (1.0 + rng.uniform() * np.abs(F[:, :, -1]))
        drift = rng.uniform(-0.2, 0.2) * lagged / (1.0 + np.abs(F[:, :, 0]).mean())
        suite[f"null{i}"] = (np.cumsum(noise + drift, axis=1) * rng.uniform(0.01, 100.0),
                             0.0, "martingale", F)
    return suite, np.arange(1, R + 1) / R


def _bundle_suite(lam, n_paths, seed):
    """The simulate suite's martingale nulls with features, each with random increments."""
    sc = scenario(lam=lam, n_paths=n_paths, seed=seed, dt=2.0 ** -10)
    b = simulate(sc)
    feats = jd.feature_matrix(b)
    suite = {
        "transported_brownian": (jd.transported_brownian(b), 0.0, "martingale", feats),
        "deflated_price_drift": (jd.lmd_times_price(b, solve_drift(sc, 1.0), 1.0), 1.0,
                                 "martingale", feats),
    }
    if np.any(b.t1 < sc.horizon):  # else m, N_G and the rest are deterministic
        suite.update({
            "m": (b.m, 1.0, "martingale", feats),
            "transported_poisson": (jd.transported_poisson(b), 0.0, "martingale", feats),
            "N_G": (b.N_G, 0.0, "martingale", feats),
            "survival_exponential": (jd.survival_exponential(b), 1.0, "martingale", feats),
        })
    return suite, b.report_times


def _assert_matches_reference(suite, times):
    reports = jd.mc_suite(suite, times)
    for name, (values, start, null, feats) in suite.items():
        rep = reports[name]
        single = mc_test(values, times, start=start, null=null, features=feats)
        for field in ("means", "ses", "zscores"):
            assert np.array_equal(getattr(rep, field), getattr(single, field)), field
        z_ref, se_ref = sandwich_regression_z(values, feats)
        live = se_ref > 1e-150
        assert np.allclose(rep.regression_z[live], z_ref[live], rtol=1e-8, atol=0.0), name
        ref_max = max(float(np.max(np.abs(rep.zscores))), float(np.max(np.abs(z_ref))))
        assert rep.rejected == single.rejected == (ref_max > 3.0), name
    return reports


@pytest.mark.parametrize("seed", range(60))
def test_mc_suite_matches_per_null_reference(seed):
    _assert_matches_reference(*_random_suite(seed))


@pytest.mark.parametrize("lam,n_paths,seed", [(1e-4, 2000, 3), (12.0, 3000, 7)],
                         ids=["all-ones-pre", "three-live-paths"])
def test_mc_suite_matches_reference_on_simulated_nulls(lam, n_paths, seed):
    suite, times = _bundle_suite(lam, n_paths, seed)
    reports = _assert_matches_reference(suite, times)
    if lam == 12.0:
        # 3 paths alive over 0.5 -> 0.625: the sandwich z of -12.9 is the
        # reference's too (the few-live-paths guard is a separate change)
        rep = reports["survival_exponential"]
        assert rep.rejected and rep.max_abs_z == pytest.approx(12.90, abs=0.005)
    else:
        feats = suite["transported_brownian"][3]
        assert np.all(feats[:, :, 1] == 0.0) and np.all(feats[:, :, 2] == 1.0)  # no jumps


def test_mc_suite_groups_by_feature_array_and_skips_failed_nulls():
    rng = np.random.default_rng(4)
    times = [0.25, 0.5, 0.75, 1.0]
    f1, f2 = rng.normal(size=(2, 3000, 4, 2))
    bad = rng.normal(size=(3000, 4))
    bad[5, 1] = np.nan
    suite = {
        "a": (rng.normal(size=(3000, 4)).cumsum(axis=1), 0.0, "martingale", f1),
        "b": (rng.normal(size=(3000, 4)).cumsum(axis=1), 0.0, "martingale", f2),
        "c": (bad, 0.0, "martingale", f1),
        "d": (rng.normal(size=(3000, 4)).cumsum(axis=1), 0.0, "martingale", f1),
        "e": (np.ones((3000, 4)), 1.0, "supermartingale", f1),
    }
    reports = jd.mc_suite(suite, times)
    assert list(reports) == list(suite)
    assert reports["c"].rejected and reports["c"].regression_z is None
    assert reports["e"].regression_z is None and not reports["e"].rejected
    for name in "abd":
        values, start, null, feats = suite[name]
        z_ref, _ = sandwich_regression_z(values, feats)
        assert np.allclose(reports[name].regression_z, z_ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("shape", [(3000, 3, 2), (3000, 5, 2), (2999, 4, 2), (3000, 4)],
                         ids=["fewer-times", "more-times", "fewer-paths", "two-axes"])
def test_mc_test_rejects_features_of_another_shape(shape):
    # a regression over the features' steps alone would leave increments untested
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="^x: features of shape"):
        mc_test(rng.normal(size=(3000, 4)), [0.25, 0.5, 0.75, 1.0], start=0.0, null="x",
                features=rng.normal(size=shape))


def test_mc_suite_checks_each_null_against_shared_features():
    # "b" shares the features of "a" but has one more report time
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(3000, 4, 2))
    suite = {"a": (rng.normal(size=(3000, 4)), 0.0, "martingale", feats),
             "b": (rng.normal(size=(3000, 5)), 0.0, "martingale", feats)}
    with pytest.raises(ValueError, match="^b: features of shape"):
        jd.mc_suite(suite, [0.2, 0.4, 0.6, 0.8, 1.0])


def test_regression_z_invariant_to_power_of_two_scales():
    # rows are normalized by exact powers of two, so rescaling a feature (or
    # the values) by one changes no bit, and no square overflows
    rng = np.random.default_rng(9)
    times = [0.25, 0.5, 0.75, 1.0]
    feats = rng.normal(size=(3000, 4, 3))
    vals = rng.normal(size=(3000, 4)).cumsum(axis=1)
    rep = mc_test(vals, times, start=0.0, features=feats)
    big = feats.copy()
    big[:, :, 1] *= 2.0 ** 600
    scaled = mc_test(vals, times, start=0.0, features=big)
    assert np.array_equal(scaled.regression_z, rep.regression_z)
    assert scaled.max_abs_z == rep.max_abs_z and scaled.rejected == rep.rejected
    tiny = mc_test(vals * 2.0 ** -600, times, start=0.0, features=big)
    assert np.array_equal(tiny.regression_z, rep.regression_z)


def test_regression_z_same_for_any_constant_feature():
    # a constant feature is collinear with the intercept; the minimum-norm fit
    # gives both the same z whatever the constant, here against 2.0, where the
    # normal equations are exactly singular
    rng = np.random.default_rng(21)
    times = [0.25, 0.5, 0.75, 1.0]
    feats = rng.normal(size=(5000, 4, 2)) * np.array([1.0, 40.0])
    vals = rng.normal(size=(5000, 4)).cumsum(axis=1)
    feats[:, :, 0] = 2.0
    ref = mc_test(vals, times, start=0.0, features=feats)
    assert np.allclose(ref.regression_z[:, 0], ref.regression_z[:, 1], rtol=1e-8)
    for c in (3.7, 0.1, 1e5):
        feats[:, :, 0] = c
        rep = mc_test(vals, times, start=0.0, features=feats)
        assert np.allclose(rep.regression_z, ref.regression_z, rtol=1e-8, atol=0.0), c
        assert rep.rejected == ref.rejected


def test_deflator_grid_matches_report_values():
    sc = scenario(n_paths=64, dt=2.0 ** -6, seed=14)
    b = simulate(sc, keep_paths=3)
    psi2 = 1.0
    psi1 = solve_drift(sc, psi2)
    out = build_deflator(b, psi1, psi2, phi_o=0.2)
    for s in b.samples:
        i = s["index"]
        Z = jd.deflator_grid(b, i, psi1, psi2, phi_o=0.2)
        for j, t in enumerate(b.report_times):
            g = np.argmin(np.abs(s["time"] - t))
            assert abs(Z[g] - out["Z"][i, j]) <= 1e-10


def test_progressive_mean_bin_test():
    sc = scenario(n_paths=20000, seed=15)
    b = simulate(sc)
    rng = np.random.default_rng(0)
    centered = rng.normal(size=sc.n_paths)  # independent of everything: passes
    z0, rej0, bins = jd.progressive_mean_test(b, centered)
    assert not rej0 and bins
    biased = np.where(b.from_second_jump, 0.4, -0.1)  # observable at default
    z1, rej1, _ = jd.progressive_mean_test(b, biased)
    assert rej1 and z1 > 10


def test_transported_poisson_jump_factor_variant_rejected():
    # the jump at the observed first arrival must carry factor 1 + beta T1;
    # the damped variant 1 + beta T1/(1 + beta T1) is statistically rejected
    sc = scenario(n_paths=20000, seed=18)
    b = simulate(sc)
    beta, lam = sc.beta, sc.lam
    ts = b.stopped_times()
    hit = b.first_jump_stopped()
    ours = hit * (1.0 + beta * b.t1[:, None]) - lam * ts
    damped = hit * (1.0 + beta * b.t1[:, None] / (1.0 + beta * b.t1[:, None])) \
        - lam * ts
    feats = jd.feature_matrix(b)
    assert not mc_test(ours, b.report_times, start=0.0, features=feats).rejected
    rep = mc_test(damped, b.report_times, start=0.0, features=feats)
    assert rep.rejected and rep.max_abs_z > 8


def test_grid_refinement_improves_quadrature():
    coarse = simulate(scenario(n_paths=200, dt=2.0 ** -4, seed=13), keep_paths=1)
    fine = simulate(scenario(n_paths=200, dt=2.0 ** -8, seed=13), keep_paths=1)
    rc = closed_forms(coarse)["m_identity_residual"]
    rf = closed_forms(fine)["m_identity_residual"]
    assert rf < rc / 4  # trapezoid error falls at least quadratically
