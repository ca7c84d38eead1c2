"""Jump-diffusion engine: exactness, closed forms, statistics (fast scale)."""

import re
import sys
import threading
import warnings

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
from oracle import (bridge_loop, i1_series, ig_series, per_path_simulate,
                    sandwich_regression_z, suite_reference)


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


@pytest.mark.parametrize("make, message", [
    (lambda: scenario(lam=0.0), "lam must be positive"),
    (lambda: scenario(lam=-2.0), "lam must be positive"),
    (lambda: scenario(horizon=0.0), "horizon must be positive"),
    (lambda: scenario(S0=0.0), "S0 must be positive"),
    (lambda: scenario(S0=-1.0), "S0 must be positive"),
    # a huge psi2 makes psi1 = -(mu + (psi2 - 1) zeta lam) / sigma about -1e300
    (lambda: solve_drift(scenario(), 1e300),
     "the market price of risk -(mu + (psi2 - 1) zeta lam) / sigma = -1e+300 overflows: "
     "its square times the horizon must be finite"),
], ids=["lam-zero", "lam-negative", "horizon-zero", "S0-zero", "S0-negative", "psi1-overflow"])
def test_each_scenario_refusal_names_its_rule(make, message):
    with pytest.raises(SpaceValidationError, match=f"^{re.escape(message)}$"):
        make()


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

@pytest.mark.parametrize("report_times", [[0.75, 0.25], [0.5, np.nan], [1.0, 3.0],
                                          [0.0, 0.5], [0.5, 0.5], [], [[0.5]]])
def test_simulate_rejects_bad_report_times(report_times):
    # jumps are drawn only up to the horizon, so a later time would undercount N
    with pytest.raises(SpaceValidationError, match="report_times must be finite"):
        simulate(scenario(n_paths=20, lam=6.0), report_times=report_times)


def test_simulation_reproducible_and_prefix_stable():
    sc = scenario(n_paths=500)
    b1 = simulate(sc)
    b2 = simulate(sc)
    assert np.array_equal(b1.W, b2.W) and np.array_equal(b1.tau, b2.tau)
    b3 = simulate(scenario(n_paths=900))
    assert np.array_equal(b3.tau[:500], b1.tau)
    assert np.array_equal(b3.W[:500], b1.W)


def _assert_distribution(x, mean, var, fourth, tails):
    """Sample mean, variance and tail frequencies of x within 5 standard errors.

    ``fourth`` is the fourth central moment; ``tails`` maps a predicate
    label to (the indicator array, its probability)."""
    n = x.size
    assert abs(x.mean() - mean) <= 5.0 * np.sqrt(var / n)
    assert abs(x.var(ddof=1) - var) <= 5.0 * np.sqrt((fourth - var**2) / n)
    for label, (hit, prob) in tails.items():
        assert abs(hit.mean() - prob) <= 5.0 * np.sqrt(prob * (1.0 - prob) / n), label


def test_main_stream_draws_exponential_gaps_and_standard_normals():
    # 10^6 gaps and 10^6 normals: 125,000 paths of 8 gaps and, with 7 report
    # times, 8 normals (4 Box-Muller pairs)
    from statistics import NormalDist
    key = np.random.SeedSequence(2024).generate_state(2, np.uint64)
    gaps, normals = jd._main_draws(key, 125_000, 7, 2.0)
    assert gaps.shape == normals.shape == (125_000, 8)
    e = 2.0 * gaps.ravel()  # Exp(1)
    _assert_distribution(e, 1.0, 1.0, 9.0, {
        "E < 0.01": (e < 0.01, -np.expm1(-0.01)), "E > 5": (e > 5.0, np.exp(-5.0)),
        "E > 10": (e > 10.0, np.exp(-10.0))})
    z = normals.ravel()
    phi = NormalDist().cdf
    _assert_distribution(z, 0.0, 1.0, 3.0, {
        "Z < -3": (z < -3.0, phi(-3.0)), "Z > 3": (z > 3.0, phi(-3.0)),
        "|Z| > 4": (np.abs(z) > 4.0, 2.0 * phi(-4.0))})
    # the two normals of a pair, and neighbouring gaps, are uncorrelated
    for a, b in ((normals[:, 0], normals[:, 4]), (gaps[:, 0], gaps[:, 1])):
        assert abs(np.corrcoef(a, b)[0, 1]) <= 5.0 / np.sqrt(len(a))


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
        assert np.mean(got.N[:, -1] >= 8) > 0.5  # these paths drew spill gaps
    assert len(got.samples) == len(ref.samples) == 4
    for s_got, s_ref in zip(got.samples, ref.samples):
        assert s_got.keys() == s_ref.keys()
        for key in s_ref:
            assert np.array_equal(s_got[key], s_ref[key]), key


@pytest.mark.parametrize("lam", [2.0, 12.0], ids=["readme", "overflow-heavy"])
def test_simulate_matches_per_path_reference_in_uneven_chunks(lam, monkeypatch):
    # 3,000 paths in chunks of 1,100, 1,100 and 800 rows, run on the pool; the
    # reference evaluates all paths in one block
    monkeypatch.setattr(jd, "_ROWS", 1100)
    test_simulate_matches_per_path_reference(lam)
    if lam > 2.0:  # spill paths in every chunk
        N = simulate(JumpDiffusionScenario(sigma=0.2, zeta=0.1, mu=0.03, lam=lam, a=0.5,
                                           n_paths=3000, seed=7)).N[:, -1]
        assert all((N[lo:lo + 1100] >= 8).any() for lo in (0, 1100, 2200))


def test_kept_paths_span_chunks(monkeypatch):
    sc = scenario(n_paths=7, lam=6.0)
    whole = simulate(sc, keep_paths=5)
    monkeypatch.setattr(jd, "_ROWS", 2)
    chunked = simulate(sc, keep_paths=5)
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name
    assert [s["index"] for s in chunked.samples] == [0, 1, 2, 3, 4]
    for s_chunked, s_whole in zip(chunked.samples, whole.samples):
        for key in s_whole:
            assert np.array_equal(s_chunked[key], s_whole[key]), key


@pytest.mark.parametrize("n_paths,keep,rows", [(7, 5, 2), (120, 50, 16)])
def test_suite_pass_keeps_the_first_paths_across_chunks(monkeypatch, n_paths, keep, rows):
    # the kept paths span several chunks, the last in part: 5 of 7 paths in chunks of 2,
    # and 50 of 120 in chunks of 16, where the head grows past 2 MIN_SAMPLES - 1 to 50
    sc = scenario(n_paths=n_paths, lam=6.0)
    whole = simulate(sc, keep_paths=keep)
    monkeypatch.setattr(jd, "_ROWS", rows)
    kept = jd.simulate_suite(sc, solve_drift(sc, 1.0), 1.0, theta=0.5, keep_paths=keep)[0]
    assert kept.n_paths == keep and np.array_equal(kept.report_times, whole.report_times)
    for name in BUNDLE_FIELDS[1:]:  # every per-path field
        assert np.array_equal(getattr(kept, name), getattr(whole, name)[:keep]), name
    assert [s["index"] for s in kept.samples] == list(range(keep))
    for s_kept, s_whole in zip(kept.samples, whole.samples, strict=True):
        assert s_kept.keys() == s_whole.keys()
        for key in s_whole:
            assert np.array_equal(s_kept[key], s_whole[key]), key


def _traced_growth(run):
    """The traced peak of run(n_paths) per path added from 20k to 80k paths, after one
    untraced call that loads what the call imports and caches."""
    import tracemalloc

    run(3000)
    peaks = []
    for n in (20_000, 80_000):
        tracemalloc.start()
        try:
            run(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / 60_000


# In chunks of 1024 paths the pass keeps one _fold_block record per chunk: the moment
# table (7 steps x 16 rows x 20 monomials, 17.9 KB), the 9 nulls' moments (2.9 KB), the
# extremes and counts (1.5 KB) and their array headers, about 28 KB, or 28 B per path.
# The peak of the pass, or of mc_suite beside its inputs, may grow by no more than
# 64 B per path; holding the 63 increments and features per path would add 504.
RECORD_BYTES_PER_PATH = 64


def test_suite_pass_grows_by_its_block_records_alone(monkeypatch):
    # 20 to 79 chunks on 2 workers, each drawn, evaluated and folded in turn
    monkeypatch.setattr(jd, "_ROWS", 1024)
    monkeypatch.setattr(jd, "_workers", lambda: 2)

    def run(n):
        sc = scenario(n_paths=n)
        jd.simulate_suite(sc, solve_drift(sc, 1.0), 1.0, theta=0.5, keep_paths=4)

    growth = _traced_growth(run)
    assert growth < RECORD_BYTES_PER_PATH, growth


def test_mc_suite_holds_one_block_record_per_block_beside_its_inputs(monkeypatch):
    # blocks of 1024 paths on 2 workers: mc_suite reads the suite's arrays in place
    # and, beside them, grows by its block records alone, as the streamed pass does,
    # whose reports it gives bit for bit
    monkeypatch.setattr(jd, "_ROWS", 1024)
    monkeypatch.setattr(jd, "_workers", lambda: 2)
    suites = {}
    for n in (3000, 20_000, 80_000):
        sc = scenario(n_paths=n)
        suites[n] = sc, jd.suite_tests(simulate(sc), solve_drift(sc, 1.0), 1.0, theta=0.5)

    def run(n):
        sc, (tests, _, z_crit) = suites[n]
        reports = jd.mc_suite(tests, sc.horizon * np.arange(1, 9) / 8, z_crit=z_crit)
        assert len(reports) == 9

    growth = _traced_growth(run)
    assert growth < RECORD_BYTES_PER_PATH, growth
    sc, (tests, _, z_crit) = suites[20_000]
    streamed = jd.simulate_suite(sc, solve_drift(sc, 1.0), 1.0, theta=0.5)[1]
    _assert_same_reports(streamed, jd.mc_suite(tests, sc.horizon * np.arange(1, 9) / 8,
                                               z_crit=z_crit))


def test_many_workers_switching_often_give_the_same_bits(monkeypatch):
    # 8 workers on chunks of 97 rows, the interpreter switching threads every
    # microsecond, against one worker (inline) on the same chunks: a row written
    # to the wrong place, a block record out of order, or a buffer two tasks
    # share would change a bundle array, a deflator, a null's array or a report
    sc = scenario(n_paths=3000, lam=12.0)
    monkeypatch.setattr(jd, "_ROWS", 97)

    def pipeline():
        b = simulate(sc, keep_paths=3)
        Z = build_deflator(b, solve_drift(sc, 1.0), 1.0, phi_o=0.25)["Z"]
        tests, _, _ = jd.suite_tests(b, solve_drift(sc, 1.0), 1.0, theta=0.7, phi_o=0.25)
        kept, streamed, *_, residual = jd.simulate_suite(sc, solve_drift(sc, 1.0), 1.0,
                                                         theta=0.7, phi_o=0.25, keep_paths=3)
        return b, Z, tests, jd.mc_suite(tests, b.report_times), (kept, streamed, residual)

    monkeypatch.setattr(jd, "_workers", lambda: 1)
    reference = pipeline()
    monkeypatch.setattr(jd, "_workers", lambda: 8)
    result = []
    worker = threading.Thread(target=lambda: result.append(pipeline()))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(result) == 1
    (b, Z, tests, reports, arrays), (b_ref, Z_ref, tests_ref, reports_ref, arrays_ref) = \
        result[0], reference
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(b, name), getattr(b_ref, name)), name
    for s, s_ref in zip(b.samples, b_ref.samples, strict=True):
        assert all(np.array_equal(s[key], s_ref[key]) for key in s_ref)
    assert np.array_equal(Z, Z_ref)
    for name, (values, *_, feats) in tests.items():
        assert np.array_equal(values, tests_ref[name][0]), name
        assert feats is None or np.array_equal(feats, tests_ref[name][3]), name
    _assert_same_reports(reports, reports_ref)
    (kept, streamed, residual), (kept_ref, streamed_ref, residual_ref) = arrays, arrays_ref
    for name in BUNDLE_FIELDS:
        assert np.array_equal(getattr(kept, name), getattr(kept_ref, name)), name
    assert residual == residual_ref
    _assert_same_reports(streamed, streamed_ref)


@pytest.mark.parametrize("n_paths", [50, 300], ids=["one-chunk", "five-chunks"])
def test_path_arrays_are_column_major(n_paths, monkeypatch):
    monkeypatch.setattr(jd, "_ROWS", 64)
    sc = scenario(n_paths=n_paths, lam=6.0)
    b = simulate(sc, keep_paths=2)
    psi1 = solve_drift(sc, 1.0)
    arrays = {name: getattr(b, name) for name in jd._PER_REPORT}
    tests, _, z_crit = jd.suite_tests(b, psi1, 1.0, theta=0.8, phi_o=0.25, phi_pr=-0.1)
    arrays.update({f"suite {name}": values for name, (values, *_) in tests.items()},
                  features=tests["m"][3], **build_deflator(b, psi1, 1.0, phi_o=0.25, phi_pr=-0.1))
    for name, arr in arrays.items():
        assert arr.shape[0] == n_paths and arr.ndim >= 2, name
        assert arr.flags.f_contiguous and not arr.flags.c_contiguous, name
    # the streamed pass folds its chunks in that layout, as mc_suite folds these arrays
    streamed = jd.simulate_suite(sc, psi1, 1.0, theta=0.8, phi_o=0.25, phi_pr=-0.1)[1]
    _assert_same_reports(streamed, jd.mc_suite(tests, b.report_times, z_crit=z_crit))


def test_mc_suite_same_on_row_and_column_major_copies():
    # every column is converted to one layout before it is summed, so a
    # row-major copy of a suite gives the same bits
    for suite, times in [_bundle_suite(12.0, 3000, 7), _random_suite(2), _random_suite(4)]:
        copies = {}
        for order in "CF":
            shared = {}
            copies[order] = {
                name: (np.array(values, order=order), start, null,
                       None if feats is None else shared.setdefault(
                           id(feats), np.array(feats, order=order)))
                for name, (values, start, null, feats) in suite.items()}
        assert all(values.flags.c_contiguous for values, *_ in copies["C"].values())
        row, col = (jd.mc_suite(copies[order], times) for order in "CF")
        for name, rep in row.items():
            for field in ("means", "ses", "zscores", "regression_z"):
                assert np.array_equal(getattr(rep, field), getattr(col[name], field),
                                      equal_nan=True), (name, field)
            assert (rep.rejected, rep.max_abs_z, rep.warning) == \
                (col[name].rejected, col[name].max_abs_z, col[name].warning), name


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
        # N_G and D^o start at +0, never -0: paths.csv writes 0, not -0
        assert not np.signbit(s["N_G"][0]) and not np.signbit(s["D_opt"][0])
        assert s["N_G"][0] == 0.0 and s["m_identity_residual"] <= 5 * b.scenario.dt
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


def test_closed_form_integrals_match_exact_series():
    # the closed forms cancel as beta x falls (at beta x = 1e-8 the closed form
    # of _i1 is 122% off); below its cut the series takes over, and either side
    # of the cut is within 1e-14 of the exact value
    x = np.concatenate([[0.0, 1e-150, 1e-3, 0.049, 0.1, 0.15, 0.5, 0.7], np.linspace(0.8, 1.0, 5)])
    for beta in np.concatenate([np.logspace(-12, 1, 27), [0.0299, 0.03, 0.2, 0.3, 0.6, 2.0]]):
        for fn, ref in ((jd._i1, i1_series), (jd._ig, ig_series)):
            got = fn(beta, x)
            exact = np.array([ref(beta, xi) for xi in x])
            assert got[0] == 0.0 and exact[0] == 0.0
            rel = np.abs(got[1:] - exact[1:]) / exact[1:]
            assert rel.max() <= 1e-14, (fn.__name__, beta, rel.max())
    # beta = 0: the limits x^2 / 2 and 0
    assert np.array_equal(jd._i1(0.0, x), x * x / 2) and np.array_equal(jd._ig(0.0, x), 0 * x)


def test_tiny_intensity_raises_no_warning():
    # at lam = 1e-170, beta^2 underflows: the closed form of _i1 divided by 0; at
    # a = 0.9999999999999999, beta is 4.4e-16 lam.  Each runs all nine kernels
    for kw in (dict(lam=1e-170), dict(a=0.9999999999999999)):
        sc = scenario(n_paths=500, **kw)
        psi1 = solve_drift(sc, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = simulate(sc, keep_paths=1)
            tests, _, _ = jd.suite_tests(b, psi1, 1.0, theta=0.7, phi_o=0.25, phi_pr=-0.1)
            build_deflator(b, psi1, 1.0, phi_o=0.25)
            if sc.lam == 1e-170:
                assert np.array_equal(b.m, np.ones_like(b.m))
                assert not mc_test(b.m, b.report_times, start=1.0).rejected
        assert all(np.isfinite(values).all() for values, *_ in tests.values()), kw


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


def test_brownian_values_with_tau_on_a_report_time_or_past_the_horizon():
    # tau = T1 on the report time 0.5, tau = a T2 on 0.75, tau = T1 before 0.125,
    # and tau past the horizon, where it is taken at H = 1: on the default grid
    # that is the last report time, on [0.25, 0.5, 0.75] a time after it.  tau
    # ^ H takes its place among the report times after those it equals, so
    # there its step is 0 and its normal adds nothing
    sc = scenario(n_paths=4, dt=2.0 ** -6)
    jumps = np.array([[0.5, 3.0, np.inf], [0.9, 1.5, np.inf],
                      [0.1, 3.0, np.inf], [3.0, 7.0, np.inf]])
    tau = np.array([0.5, 0.75, 0.1, 3.0])
    z = np.random.default_rng(4).standard_normal((4, 9))
    # the row of tau ^ H among the report times of each grid, path by path
    for rep, places in ((np.arange(1, 9) / 8.0, [4, 6, 0, 8]),
                        (np.array([0.25, 0.5, 0.75]), [2, 3, 0, 3])):
        R = len(rep)
        b = jd._evaluate(sc, rep, jumps, z[:, :R + 1], 0, None)
        assert np.array_equal(b.tau, tau)
        for i, at in enumerate(places):
            times = np.insert(rep, at, min(tau[i], 1.0))
            W = np.cumsum(z[i, :R + 1] * np.sqrt(np.diff(times, prepend=0.0)))
            assert np.array_equal(b.W[i], np.delete(W, at)), i
            assert b.W_tau[i] == W[at], i
        assert b.W_tau[0] == b.W[0, places[0] - 1]  # tau = 0.5: its step is 0


def _bridge_anchors(b, i):
    """Path i's anchors as ``_evaluate`` builds them: (0, 0), then the report
    times and tau ^ horizon in stable sorted order, with their Brownian values."""
    t = np.append(b.report_times, min(b.tau[i], b.scenario.horizon))
    w = np.append(b.W[i], b.W_tau[i])
    order = np.argsort(t, kind="stable")
    return np.r_[0.0, t[order]], np.r_[0.0, w[order]]


@pytest.mark.parametrize("dt, n_paths", [(2.0 ** -6, 30), (2.0 ** -10, 30), (2.0 ** -16, 4)])
def test_bridge_fill_matches_per_point_reference(dt, n_paths):
    # horizon 0.65 is no multiple of dt, and [0.1, 0.3] ends early.  The
    # reference set a grid point within np.isclose of an anchor, without
    # equalling it, to the anchor's value.  Before the last anchor it still
    # drew that point's normal; past it, it drew none (path 1 at [0.1, 0.3]:
    # tau, its last anchor, lies 4.9e-7 before a grid point at 2^-10 and
    # 2^-16), so its later draws lag the engine's by one normal there
    sc = scenario(n_paths=n_paths, horizon=0.65, dt=dt, seed=3)
    grid = jd._quadrature_table(sc)[0]
    for rep in (None, [0.1, 0.3], [0.25, 0.5]):
        b = simulate(sc, report_times=rep)
        for i in range(n_paths):
            at, aw = _bridge_anchors(b, i)
            gen, ref_gen = np.random.default_rng(i), np.random.default_rng(i)
            W, W_ref = jd._bridge_fill(grid, at, aw, gen), bridge_loop(grid, at, aw, ref_gen)
            on = (grid[:, None] == at).any(axis=1)
            near = np.isclose(grid[:, None], at).any(axis=1) & ~on
            compared = ~near
            if (near & (grid > at[-1])).any():
                ref_gen.standard_normal()
                compared &= grid <= at[-1]
            assert gen.bit_generator.state == ref_gen.bit_generator.state
            assert np.max(np.abs(W - W_ref)[compared]) <= 1e-11
            assert np.array_equal(W[on], aw[np.searchsorted(at, grid[on])])


def test_bridge_point_near_tau_keeps_its_bridge_value():
    # tau = T1 lies 2e-6 after the grid point 0.5, within np.isclose of it; 0.5
    # is the one grid point inside the anchor interval (0.5 - dt, tau), so it
    # takes the one-step bridge value, not W_tau
    sc = scenario(n_paths=1, dt=2.0 ** -6)
    t1 = 0.5 + 2e-6
    jumps = np.array([[t1, 5.0, np.inf]])  # tau = T1
    rep = np.array([0.25, 0.5 - 2.0 ** -6, 1.0])
    normals = np.random.default_rng(0).standard_normal((1, len(rep) + 1))
    b = jd._evaluate(sc, rep, jumps, normals, 1, lambda i: np.random.default_rng(1))
    s = b.samples[0]
    g = np.flatnonzero(s["time"] == 0.5)[0]
    assert np.isclose(0.5, t1) and b.tau[0] == t1
    # grid order: 15 normals inside (0, 0.25), 14 inside (0.25, 0.5 - dt), then 0.5's
    z = np.random.default_rng(1).standard_normal(30)[-1]
    u, start, ws, we = 0.5, rep[1], b.W[0, 1], b.W_tau[0]
    bridge = ws + (u - start) / (t1 - start) * (we - ws) \
        + np.sqrt((u - start) * (t1 - u) / (t1 - start)) * z
    assert abs(s["W"][g] - bridge) <= 1e-12
    assert s["W"][g] != we


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
            assert s["time"][-1] == sc.horizon  # the last step is half a dt
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


def test_nan_theta_is_refused():
    # 1 + nan * zeta <= 0 is False, so the refusal must read "unless > 0"; and
    # 1 + inf * zeta > 0 at zeta = 0.1, but the wealth would read inf - inf
    b = simulate(scenario(n_paths=50))
    for theta in (np.nan, np.inf):
        with pytest.raises(AdmissibilityError, match=f"^theta = {theta:g} is inadmissible"):
            jd.suite_tests(b, solve_drift(b.scenario, 1.0), 1.0, theta=theta)
        with pytest.raises(AdmissibilityError, match=f"^theta = {theta:g} is inadmissible"):
            jd.simulate_suite(b.scenario, solve_drift(b.scenario, 1.0), 1.0, theta=theta)


def test_deflator_admissibility_names_the_global_path(monkeypatch):
    # no path of the first 150 hits tau at T1, so every offending path lies
    # past the first two chunks of 100 rows, and the error names its index
    monkeypatch.setattr(jd, "_ROWS", 100)
    b = simulate(scenario(n_paths=300))
    b.from_second_jump[:150] = True
    hit_t1 = ~b.from_second_jump & (b.tau <= b.scenario.horizon)
    first = int(np.flatnonzero(hit_t1 & (0.5 >= 1e-9 * (1.0 + b.scenario.beta * b.t1)))[0])
    assert first >= 150
    with pytest.raises(AdmissibilityError, match=f"on path {first}$"):
        build_deflator(b, 0.0, 1e-9, phi_o=0.5)


def test_deflator_unit_mean_and_wealth():
    sc = scenario(n_paths=20000, seed=10)
    b = simulate(sc)
    psi2 = 1.0
    psi1 = solve_drift(sc, psi2)
    out = build_deflator(b, psi1, psi2)
    rep = mc_test(out["Z"], b.report_times, start=1.0)
    assert not rep.rejected
    # the suite's deflated wealth, E(0.8 X)^tau times E_L, which is Z at phi_o = phi_pr = 0
    values, start, null, _ = jd.suite_tests(b, psi1, psi2, theta=0.8)[0]["deflated_wealth"]
    rep2 = mc_test(values, b.report_times, start=start, null=null)
    assert null == "supermartingale" and not rep2.rejected
    out3 = build_deflator(b, psi1, psi2, phi_o=0.4)
    rep3 = mc_test(out3["Z"], b.report_times, start=1.0)
    assert not rep3.rejected


def test_plain_deflator_is_the_e_l_factor():
    # with phi_o = phi_pr = 0 the other two factors are exactly 1, so the CLI
    # takes the plain deflator from the one it builds with phi_o and phi_pr
    sc = scenario(n_paths=3000, lam=6.0)
    b = simulate(sc)
    psi1 = solve_drift(sc, 1.3)
    plain = build_deflator(b, psi1, 1.3)
    assert np.array_equal(plain["E_NG"], np.ones_like(plain["Z"]))
    assert np.array_equal(plain["E_D"], np.ones_like(plain["Z"]))
    assert np.array_equal(plain["Z"], build_deflator(b, psi1, 1.3, phi_o=0.25, phi_pr=-0.1)["E_L"])


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).view(np.uint64)


def _assert_same_reports(got, want):
    assert got.keys() == want.keys()
    for name, rep in want.items():
        for field in ("means", "ses", "zscores", "regression_z"):
            a, b = _bits(getattr(got[name], field)), _bits(getattr(rep, field))
            assert (a is None and b is None) or np.array_equal(a, b), (name, field)
        assert (got[name].rejected, got[name].max_abs_z, got[name].warning, got[name].null) \
            == (rep.rejected, rep.max_abs_z, rep.warning, rep.null), name


@pytest.mark.parametrize("rows,workers", [(64, 2), (64, 1), (10**9, 2), (16, 2)],
                         ids=["pooled", "inline", "one-block", "head-across-blocks"])
def test_streamed_suite_equals_mc_suite_on_suite_tests(rows, workers, monkeypatch):
    # 300 paths in blocks of 64, the last of 44, with kept paths: the streamed suite,
    # on the pool or inline, gives mc_suite's reports over suite_tests' arrays, made in
    # chunks of the default size and folded in the same blocks; in one block of all
    # paths too, and in blocks of 16, where the 39 paths of the common values, drawn
    # first, span three blocks
    sc = scenario(n_paths=300, lam=6.0)
    psi1, psi2, theta, phi_o, phi_pr = solve_drift(sc, 1.3), 1.3, -0.6, 0.25, -0.1
    b = simulate(sc, keep_paths=3)
    tests, n_z, z_crit = jd.suite_tests(b, psi1, psi2, theta=theta, phi_o=phi_o, phi_pr=phi_pr)
    residual = closed_forms(b)["m_identity_residual"]
    monkeypatch.setattr(jd, "_ROWS", rows)
    monkeypatch.setattr(jd, "_workers", lambda: workers)
    kept, streamed, *counts, got_residual = jd.simulate_suite(
        sc, psi1, psi2, theta=theta, phi_o=phi_o, phi_pr=phi_pr, keep_paths=3)
    assert counts == [n_z, z_crit]
    _assert_same_reports(streamed, jd.mc_suite(tests, b.report_times, z_crit=z_crit))
    assert streamed["deflator_with_default_leg"].null == "supermartingale"
    assert sum(rep.regression_z is not None for rep in streamed.values()) == 6
    for name in BUNDLE_FIELDS[1:]:  # every per-path field
        assert np.array_equal(getattr(kept, name), getattr(b, name)[:3]), name
    assert got_residual == residual and residual > 0.0


def test_suite_tests_match_the_per_path_reference():
    # 300 paths at lam = 6 and a = 0.4 (beta = 9, so a swap of beta and lam shows) with
    # S0, psi2, theta, phi_o and phi_pr away from 0 and 1: each computed null is within
    # rtol 1e-13 of oracle.suite_reference's scalar formulas (the kernels differ from
    # them by about 2e-15 at most), and m, N_G and the features are the bundle's bits
    sc = scenario(n_paths=300, lam=6.0, a=0.4, S0=1.7)
    psi1, psi2, theta, phi_o, phi_pr = solve_drift(sc, 1.3), 1.3, -0.6, 0.25, -0.1
    b = simulate(sc)
    tests, _, _ = jd.suite_tests(b, psi1, psi2, theta=theta, phi_o=phi_o, phi_pr=phi_pr)
    ref = suite_reference(b, psi1, psi2, theta, phi_o, phi_pr)
    assert list(tests) == [name for name, *_ in jd.SUITE]
    assert set(tests) - set(ref) == {"m", "N_G"}
    for name, want in ref.items():
        assert np.allclose(tests[name][0], want, rtol=1e-13, atol=0.0), name
    assert np.array_equal(tests["m"][0], b.m) and np.array_equal(tests["N_G"][0], b.N_G)
    features = tests["m"][3]
    assert np.array_equal(features, np.stack([b.S, b.N, b.report_times < b.t1[:, None]], -1))
    assert (b.tau < b.t1).any() and (b.tau == b.t1).any()  # tau = a T2 and tau = T1


def test_martingale_suite_small():
    sc = scenario(n_paths=20000, seed=11)
    b = simulate(sc)
    tests, _, _ = jd.suite_tests(b, solve_drift(sc, 1.0), 1.0, theta=0.7)
    for name in ("m", "transported_brownian", "transported_poisson", "N_G",
                 "survival_exponential"):
        values, start, null, feats = tests[name]
        rep = mc_test(values, b.report_times, start=start, null=null, features=feats)
        assert not rep.rejected, (name, rep.max_abs_z)


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
    for start in (np.nan, np.inf):
        rep = mc_test(rng.normal(size=(2000, 4)), times, start=start)
        assert rep.rejected and rep.max_abs_z == np.inf
        assert rep.warning == f"non-finite start ({start:g}): null rejected"


@pytest.mark.parametrize("features", [None, np.empty((0, 4, 2))], ids=["plain", "features"])
def test_mc_suite_fails_closed_on_zero_paths(features):
    # no block to merge gave Python-float NaNs, whose sums / 0 raised ZeroDivisionError
    times = [0.25, 0.5, 0.75, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [mc_test(np.empty((0, 4)), times, start=0.0, features=features),
                   *jd.mc_suite({"m": (np.empty((0, 4)), 0.0, "martingale", features),
                                 "s": (np.empty((0, 4)), 1.0, "supermartingale", features)},
                                times).values()]
    for rep in reports:
        assert rep.rejected and rep.max_abs_z == np.inf and rep.regression_z is None
        assert rep.warning == ("only 0 paths: statistical power is low; non-finite means or "
                               "standard errors: null rejected")
        assert rep.means.shape == rep.ses.shape == rep.zscores.shape == (4,)


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
    assert rep.max_abs_z == np.inf
    assert rep.warning == ("zero standard error with mean != start 1 at t = 0.25, 0.5, "
                           f"0.75, 1: z = +-inf under the {null} null")


def test_supermartingale_max_abs_z_is_its_largest_size():
    # a null drifting down 0.1 a step: its z-scores fall to about -190, and
    # max_abs_z reports that size, while only a rise would reject it
    rng = np.random.default_rng(3)
    values = 1.0 - np.array([0.0, 0.1, 0.2, 0.3]) + rng.normal(0.0, 0.1, size=(4000, 4))
    rep = mc_test(values, [0.25, 0.5, 0.75, 1.0], start=1.0, null="supermartingale")
    assert np.max(rep.zscores) < 3.0 and np.min(rep.zscores) < -100.0
    assert not rep.rejected and rep.max_abs_z == np.max(np.abs(rep.zscores))


@pytest.mark.parametrize("n", [1000, 1001, 4097])
@pytest.mark.parametrize("value", [0.1, 0.3, 1.0 / 3.0])
def test_mc_test_constant_column_has_its_value_as_mean(value, n):
    # the float mean of n copies of 0.1 can be an ulp off 0.1, with that ulp
    # as its standard error: z = sqrt(n) on a constant martingale
    rep = mc_test(np.full((n, 4), value), [0.25, 0.5, 0.75, 1.0], start=value)
    assert np.array_equal(rep.means, np.full(4, value))
    assert np.array_equal(rep.ses, np.zeros(4)) and np.array_equal(rep.zscores, np.zeros(4))
    assert not rep.rejected and rep.max_abs_z == 0.0 and rep.warning is None


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
    """The simulate suite's martingale nulls with features, each with random increments:
    of ``suite_tests``, those it regresses, but for the four that are deterministic
    where no path jumps before the horizon."""
    sc = scenario(lam=lam, n_paths=n_paths, seed=seed, dt=2.0 ** -10)
    b = simulate(sc)
    tests = jd.suite_tests(b, solve_drift(sc, 1.0), 1.0, theta=0.7)[0]
    jumps = np.any(b.t1 < sc.horizon)
    suite = {name: test for name, test in tests.items() if test[3] is not None
             and (jumps or name in ("transported_brownian", "deflated_price_drift"))}
    return suite, b.report_times


def _assert_matches_reference(suite, times):
    reports = jd.mc_suite(suite, times)
    for name, (values, start, null, feats) in suite.items():
        rep = reports[name]
        single = mc_test(values, times, start=start, null=null, features=feats)
        for field in ("means", "ses", "zscores"):
            assert np.array_equal(getattr(rep, field), getattr(single, field)), field
        z_ref, se_ref = sandwich_regression_z(values, feats)
        assert np.array_equal(np.isnan(rep.regression_z), np.isnan(z_ref)), name
        live = se_ref > 1e-150
        assert np.allclose(rep.regression_z[live], z_ref[live], rtol=1e-8, atol=0.0), name
        ref_max = max(float(np.max(np.abs(rep.zscores))),
                      float(np.max(np.abs(z_ref), where=~np.isnan(z_ref), initial=0.0)))
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
        # 7 paths alive at 0.5, 1 from 0.625 on: the regression of
        # survival_exponential rests on them from 0.5 and is skipped there
        rep = reports["survival_exponential"]
        assert not rep.rejected
        assert rep.warning == ("regression skipped where fewer than 20 paths move off the "
                               "common increment or feature value: t = 0.5 -> 0.625 (7 paths), "
                               "0.625 -> 0.75 (1 path), 0.75 -> 0.875 (1 path), "
                               "0.875 -> 1 (0 paths)")
        assert np.isnan(rep.regression_z[3:]).all() and not np.isnan(rep.regression_z[:3]).any()
    else:
        # one path jumps: it alone moves the jump-count feature and the
        # default-driven nulls, so every regression step is skipped.  N_G is
        # the compensator curve on every other path, and its mean z rejects
        feats = suite["transported_brownian"][3]
        assert np.count_nonzero(feats[:, -1, 1]) == 1
        for name, rep in reports.items():
            assert np.isnan(rep.regression_z).all(), name
            assert rep.warning.endswith("0.875 -> 1 (1 path)"), name
            assert rep.rejected == (name == "N_G"), name
        assert np.max(np.abs(reports["N_G"].zscores)) > 1000


def test_mc_suite_same_on_the_pool_and_inline(monkeypatch):
    # the simulate suite's nulls, random suites, a null with a NaN and a
    # supermartingale, in blocks of 97 paths: two workers run every map of more
    # than one block on the pool, one runs it inline
    monkeypatch.setattr(jd, "_ROWS", 97)
    suites = [_bundle_suite(12.0, 3000, 7)] + [_random_suite(seed) for seed in range(5)]
    values, _, _, feats = suites[0][0]["transported_brownian"]
    bad = values.copy()
    bad[3, 2] = np.nan
    suites[0][0].update({"nan": (bad, 0.0, "martingale", feats),
                         "super": (values, 0.0, "supermartingale", None)})
    for suite, times in suites:
        reports = {}
        for workers in (2, 1):
            monkeypatch.setattr(jd, "_workers", lambda w=workers: w)
            reports[workers] = jd.mc_suite(suite, times)
        for name, pooled in reports[2].items():
            inline = reports[1][name]
            for field in ("means", "ses", "zscores", "regression_z"):
                a, b = getattr(pooled, field), getattr(inline, field)
                assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True), field
            assert (pooled.rejected, pooled.max_abs_z, pooled.warning) == \
                (inline.rejected, inline.max_abs_z, inline.warning), name


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


_WALK = np.random.default_rng(7).normal(size=(2000, 4)).cumsum(axis=1)
_UNMATCHED = "do not match times of shape ({},); expected (n_paths, n_times) and (n_times,)"


@pytest.mark.parametrize("values, n_times, null, message", [
    (_WALK, 4, "Martingale", "null 'Martingale' is not 'martingale' or 'supermartingale'"),
    (_WALK, 4, "martingle", "null 'martingle' is not 'martingale' or 'supermartingale'"),
    (_WALK, 3, "martingale", "values of shape (2000, 4) " + _UNMATCHED.format(3)),
    (_WALK, 5, "supermartingale", "values of shape (2000, 4) " + _UNMATCHED.format(5)),
    (np.ones((2000, 4)), 3, "martingale", "values of shape (2000, 4) " + _UNMATCHED.format(3)),
    (_WALK[:, 0], 4, "martingale", "values of shape (2000,) " + _UNMATCHED.format(4)),
], ids=["null-capitalised", "null-misspelt", "fewer-times", "more-times",
        "fewer-times-constant", "one-axis"])
def test_mc_suite_refuses_a_malformed_test(values, n_times, null, message):
    # a null it does not know was tested as a supermartingale, so it failed open;
    # times that miss a column were taken silently, or raised a bare IndexError on
    # a constant column; one-axis values raised a bare AxisError
    with pytest.raises(ValueError, match=f"^{re.escape('x: ' + message)}$"):
        jd.mc_suite({"x": (values, 0.0, null, None)}, np.arange(1, n_times + 1) / n_times)


def test_mc_suite_checks_each_null_against_shared_features():
    # "b" shares the features of "a" but has one path fewer
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(3000, 4, 2))
    suite = {"a": (rng.normal(size=(3000, 4)), 0.0, "martingale", feats),
             "b": (rng.normal(size=(2999, 4)), 0.0, "martingale", feats)}
    with pytest.raises(ValueError, match="^b: features of shape"):
        jd.mc_suite(suite, [0.25, 0.5, 0.75, 1.0])


def test_mc_suite_checks_shared_features_once(monkeypatch):
    # six nulls share one features array: it is scanned for non-finite entries
    # once, and each null still fails closed on them
    rng = np.random.default_rng(8)
    feats = np.asfortranarray(rng.normal(size=(3000, 4, 2)))
    feats[7, 2, 1] = np.inf
    suite = {f"n{i}": (rng.normal(size=(3000, 4)), 0.0, "martingale", feats) for i in range(6)}
    isfinite, scans = np.isfinite, []

    def counting(x, *args, **kwargs):
        scans.append(x is feats)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    reports = jd.mc_suite(suite, [0.25, 0.5, 0.75, 1.0])
    assert scans.count(True) == 1
    for rep in reports.values():
        assert rep.rejected and rep.regression_z is None
        assert "non-finite features (1 of 24000 entries)" in rep.warning


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


def test_regression_sums_over_many_blocks_match_the_reference(monkeypatch):
    # blocks of 97 paths: a 3000-path suite spans 31 of them
    monkeypatch.setattr(jd, "_ROWS", 97)
    for suite, times in [_bundle_suite(12.0, 3000, 7)] + [_random_suite(s) for s in range(10)]:
        _assert_matches_reference(suite, times)


def test_regression_over_many_blocks_skips_the_steps_of_one_block(monkeypatch):
    # the moving-path counts and the common values do not depend on the blocks,
    # even where every moving path lies past the first block
    suite, times = _bundle_suite(12.0, 3000, 7)
    F = np.asfortranarray(suite["m"][3])
    Xs = [np.asfortranarray(values) for values, *_ in suite.values()]
    rng = np.random.default_rng(22)
    feats = rng.normal(size=(3000, 4, 2))
    feats[:, 2, 1] = 1.0
    feats[[1500, 2200, 2999], 2, 1] = 0.0  # 3 paths move off the feature at t = 0.75
    vals = rng.normal(size=(3000, 4)).cumsum(axis=1)
    vals[:, 1] = vals[:, 0]
    vals[500:505, 1] += 1.0  # 5 paths move from t = 0.25 to 0.5
    sandwich, runs = jd._sandwich_z, []
    for block in (8192, 97):
        monkeypatch.setattr(jd, "_ROWS", block)
        calls = []  # (z, live) of each regression: the suite's, then the test's
        monkeypatch.setattr(jd, "_sandwich_z", lambda *args: calls.append(sandwich(*args))
                            or calls[-1])
        jd.mc_suite({i: (X, 0.0, "martingale", F) for i, X in enumerate(Xs)}, times)
        runs.append((calls[0], mc_test(vals, [0.25, 0.5, 0.75, 1.0], start=0.0,
                                       features=feats)))
    ((z_one, live_one), rep_one), ((z_many, live_many), rep_many) = runs
    assert np.array_equal(live_many, live_one) and live_one.min() < jd.MIN_SAMPLES
    assert np.array_equal(np.isnan(z_many), np.isnan(z_one))
    assert rep_many.warning == rep_one.warning == (
        "regression skipped where fewer than 20 paths move off the common increment or "
        "feature value: t = 0.25 -> 0.5 (5 paths), 0.75 -> 1 (3 paths)")
    assert np.array_equal(np.isnan(rep_many.regression_z), np.isnan(rep_one.regression_z))
    assert np.isnan(rep_many.regression_z[[0, 2]]).all()
    assert not np.isnan(rep_many.regression_z[1]).any()


def test_blocked_regression_same_bits_on_one_and_eight_workers(monkeypatch):
    # 31 blocks, folded and then swept per step inline on 1 worker or on a pool of
    # 8 switching every microsecond: the fold's records merge in block order, and
    # each step sums its blocks in order inside its own task
    suite, times = _bundle_suite(12.0, 3000, 7)
    monkeypatch.setattr(jd, "_ROWS", 97)  # on 8 workers every map runs on the pool
    reports = {}
    interval = sys.getswitchinterval()
    for workers in (1, 8):
        monkeypatch.setattr(jd, "_workers", lambda w=workers: w)
        result = []
        worker = threading.Thread(target=lambda: result.append(jd.mc_suite(suite, times)))
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive() and len(result) == 1
        reports[workers] = result[0]
    for name, rep in reports[8].items():
        one = reports[1][name]
        for field in ("means", "ses", "zscores", "regression_z"):
            assert np.array_equal(getattr(rep, field), getattr(one, field), equal_nan=True), name
        assert (rep.rejected, rep.max_abs_z, rep.warning) == \
            (one.rejected, one.max_abs_z, one.warning), name


def test_regression_z_invariant_to_power_of_two_scales_across_blocks(monkeypatch):
    # each block's sums are rescaled to the scales of its rows' extremes over all paths
    monkeypatch.setattr(jd, "_ROWS", 97)
    test_regression_z_invariant_to_power_of_two_scales()


def test_regression_rescale_at_the_scale_edges(monkeypatch):
    # blocks of 97 paths: the feature and increment rows of block 1 sit 2^600 below
    # the others', and no path of block 2 moves, so its increment rows have the
    # frexp exponent 0, above the others' (about -17); each block's normal equations,
    # summed at its own scales and rescaled to the global ones, still give the
    # reference's z-scores and its skipped steps
    monkeypatch.setattr(jd, "_ROWS", 97)
    rng = np.random.default_rng(23)
    n, times = 5 * 97 + 30, [0.25, 0.5, 0.75, 1.0]
    feats = rng.normal(size=(n, 4, 2)) * np.array([1.0, 30.0])
    vals = rng.normal(size=(n, 4)).cumsum(axis=1) * 2.0 ** -20
    feats[97:194] *= 2.0 ** -600
    vals[97:194] *= 2.0 ** -600
    vals[194:291] = vals[194:291, :1]
    frozen = vals.copy()
    frozen[:, 2] = frozen[:, 1]
    frozen[300:305, 2] += 2.0 ** -20  # 5 paths move from t = 0.5 to 0.75
    suite = {"scaled": (vals, 0.0, "martingale", feats),
             "frozen": (frozen, 0.0, "martingale", feats)}
    reports = jd.mc_suite(suite, times)
    for name, (values, *_, f) in suite.items():
        z_ref, se_ref = sandwich_regression_z(values, f)
        reg = reports[name].regression_z
        assert np.array_equal(np.isnan(reg), np.isnan(z_ref)), name
        live = se_ref > 1e-150
        assert np.allclose(reg[live], z_ref[live], rtol=1e-8, atol=0.0), name
    assert not np.isnan(reports["scaled"].regression_z).any()
    assert np.isnan(reports["frozen"].regression_z[1]).all()
    assert not np.isnan(reports["frozen"].regression_z[[0, 2]]).any()


@pytest.mark.parametrize("rows", [8192, 97], ids=["one-block", "many-blocks"])
def test_exact_linear_increments_fail_closed(rows, monkeypatch):
    # increments exactly 0.5 F_0 (small integers, so every sum is exact) on paths in
    # pairs (f, -f), so every mean is exactly 0: the residuals are 0 and the folded
    # meat M2 - 2 c.M3 + c c : M4 cancels to rounding, which must floor the slope's
    # standard error and reject, as a sweep over the residuals does; a meat that
    # cancelled to a positive multiple of M2 would give the slope a z of about 24
    monkeypatch.setattr(jd, "_ROWS", rows)
    half = np.random.default_rng(23).integers(-8, 9, size=(1000, 4, 2)).astype(float)
    feats = np.concatenate([half, -half])
    vals = np.zeros((2000, 4))
    vals[:, 1:] = np.cumsum(0.5 * feats[:, :-1, 0], axis=1)
    assert np.array_equal(np.diff(vals, axis=1), 0.5 * feats[:, :-1, 0])
    rep = mc_test(vals, [0.25, 0.5, 0.75, 1.0], start=0.0, features=feats)
    assert np.array_equal(rep.zscores, np.zeros(4)) and rep.warning is None
    assert rep.rejected and (np.abs(rep.regression_z[:, 1]) > 1e6).all()


def test_moments_over_many_blocks_match_numpy(monkeypatch):
    # 21 blocks of 97 paths (the last of 13) whose means lie up to thousands of
    # their spreads apart: the merged means and standard errors are numpy's over
    # all paths, to rounding
    monkeypatch.setattr(jd, "_ROWS", 97)
    rng = np.random.default_rng(24)
    n = 20 * 97 + 13
    offsets = 5e3 + 1e3 * rng.normal(size=(21, 4))
    vals = rng.normal(size=(n, 4)) + np.repeat(offsets, 97, axis=0)[:n]
    rep = mc_test(vals, [0.25, 0.5, 0.75, 1.0], start=5e3)
    assert np.allclose(rep.means, vals.mean(axis=0), rtol=1e-13, atol=0.0)
    assert np.allclose(rep.ses, vals.std(axis=0, ddof=1) / np.sqrt(n), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("psi2", [0.0, -1.0, np.nan])
def test_psi2_rule_is_the_same_in_both_public_functions(psi2):
    sc = scenario(n_paths=50)
    b = simulate(sc)
    with pytest.raises(AdmissibilityError, match="^psi2 must be strictly positive$"):
        solve_drift(sc, psi2)
    with pytest.raises(AdmissibilityError, match="^psi2 must be strictly positive$"):
        jd.check_deflator(b, psi2)


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
    values, _, _, feats = jd.suite_tests(b, solve_drift(sc, 1.0), 1.0,
                                         theta=0.7)[0]["transported_poisson"]
    assert np.array_equal(values, ours)
    assert not mc_test(ours, b.report_times, start=0.0, features=feats).rejected
    rep = mc_test(damped, b.report_times, start=0.0, features=feats)
    assert rep.rejected and rep.max_abs_z > 8


def test_grid_refinement_improves_quadrature():
    coarse = simulate(scenario(n_paths=200, dt=2.0 ** -4, seed=13), keep_paths=1)
    fine = simulate(scenario(n_paths=200, dt=2.0 ** -8, seed=13), keep_paths=1)
    rc = closed_forms(coarse)["m_identity_residual"]
    rf = closed_forms(fine)["m_identity_residual"]
    assert rf < rc / 4  # trapezoid error falls at least quadratically
