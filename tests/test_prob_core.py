"""Core calculus: conditional expectations, projections, integrals, brackets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon_deflators import (
    DegenerateConditioningError,
    ContractViolationError,
    FiniteFilteredSpace,
    ProbabilityMeasure,
    SpaceValidationError,
    bracket,
    change_measure,
    classify,
    cond_expect,
    doob_decomposition,
    dual_projection,
    project,
    stochastic_exponential,
    stochastic_integral,
)
from horizon_deflators.prob_core import AdaptedProcess, Filtration, increments
from horizon_deflators import trees

from conftest import frac_table


def two_atom_space():
    return FiniteFilteredSpace.from_partitions(
        ("a", "b"), (0.5, 0.5), [[0, 0], [0, 1]])


# ---------------------------------------------------------------- space rules

def test_space_rejects_non_finite_probs():
    for bad in (np.nan, np.inf):
        with pytest.raises(SpaceValidationError, match="finite"):
            FiniteFilteredSpace.from_partitions(("a", "b"), (0.5, bad), [[0, 0], [0, 1]])
        with pytest.raises(SpaceValidationError, match="finite"):
            ProbabilityMeasure(np.array([1.0, bad]))


def test_space_rejects_bad_probs():
    with pytest.raises(SpaceValidationError):
        FiniteFilteredSpace.from_partitions(("a", "b"), (0.5, 0.4), [[0, 0], [0, 1]])
    with pytest.raises(SpaceValidationError):
        FiniteFilteredSpace.from_partitions(("a", "b"), (1.0, 0.0), [[0, 0], [0, 1]])


def test_space_rejects_duplicate_and_unhashable_atom_ids():
    with pytest.raises(SpaceValidationError, match="duplicate atom id 'b'"):
        FiniteFilteredSpace.from_partitions(
            ("a", "b", "c", "b"), (0.25,) * 4, [[0, 0, 0, 0], [0, 1, 2, 3]])
    with pytest.raises(SpaceValidationError, match="hashable"):
        FiniteFilteredSpace.from_partitions((["a"], "b"), (0.5, 0.5), [[0, 0], [0, 1]])


def test_space_rejects_non_refining_partitions():
    with pytest.raises(SpaceValidationError):
        FiniteFilteredSpace.from_partitions(
            ("a", "b", "c"), (0.25, 0.25, 0.5), [[0, 0, 1], [0, 1, 0], [0, 1, 2]])


@pytest.mark.parametrize("make, error, message", [
    (lambda space: ProbabilityMeasure(np.array([-0.5, 1.5])), SpaceValidationError,
     "measure weights must be nonnegative"),
    (lambda space: ProbabilityMeasure(np.array([0.5, 0.25])), SpaceValidationError,
     "measure weights sum to 0.75, not 1"),
    (lambda space: FiniteFilteredSpace.from_partitions(("a", "b"), (0.5, 0.25), [[0, 0], [0, 1]]),
     SpaceValidationError, "atom probabilities sum to 0.75, not 1"),
    (lambda space: FiniteFilteredSpace.from_partitions(("a", "b"), (0.5, 0.5), [[0, 0]]),
     SpaceValidationError, "horizon must be >= 1"),
    (lambda space: FiniteFilteredSpace.from_partitions(("a", "b"), (1.0,), [[0, 0], [0, 1]]),
     SpaceValidationError, "outcomes and probs disagree in length"),
    (lambda space: FiniteFilteredSpace(("a", "b"), np.array([0.5, 0.5]), 2,
                                       Filtration(np.array([[0, 0], [0, 1]]))),
     SpaceValidationError, "filtration must carry horizon\\+1 partitions"),
    (lambda space: FiniteFilteredSpace(("a", "b", "c"), np.array([0.25, 0.25, 0.5]), 1,
                                       Filtration(np.array([[0, 0], [0, 1]]))),
     SpaceValidationError, "filtration atom count mismatch"),
    (lambda space: project(space, np.ones((4, 3)), "dual"), ValueError,
     "unknown projection mode 'dual'"),
    (lambda space: bracket(np.ones((4, 3)), np.ones((4, 3)), "predictable"),
     ContractViolationError, "predictable bracket needs the space"),
    (lambda space: bracket(np.ones((4, 3)), np.ones((4, 3)), "dual"), ValueError,
     "unknown bracket mode 'dual'"),
    (lambda space: change_measure(space, np.ones((4, 1))), SpaceValidationError,
     "density must be one value per atom"),
], ids=["negative-weight", "weight-sum", "prob-sum", "horizon", "probs-length", "partition-count",
        "atom-count", "projection-mode", "bracket-space", "bracket-mode", "density-shape"])
def test_each_core_refusal_names_its_rule(demo, make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make(demo[0])


def test_adapted_process_certificate(demo):
    space, _, S = demo
    ap = AdaptedProcess.from_values(space.filtration, S)
    assert ap.is_adapted and not ap.predictable
    det = AdaptedProcess.from_values(space.filtration, np.ones((4, 3)))
    assert det.predictable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measurability_checks_fail_closed(demo, bad):
    # one NaN cell, or a block that is +inf throughout, is neither adapted
    # nor predictable: a spread passes only if it is <= tol
    space, _, S = demo
    filt = space.filtration
    X = np.ones((4, 3))
    if np.isnan(bad):
        X[1, 2] = bad
    else:
        X[:, 2] = bad  # constant +inf: inf - inf is NaN
    assert filt.is_adapted(S) and filt.is_predictable(np.ones((4, 3)))
    assert not filt.is_adapted(X, tol=1.0)
    assert not filt.is_predictable(X, tol=1.0)
    cert = AdaptedProcess.from_values(filt, X, tol=1.0)
    assert not cert.is_adapted and not cert.predictable
    assert cert.adapted == (True, True, False)
    V = np.ones((4, 3))
    V[0, 0] = np.nan
    assert not filt.is_predictable(V, tol=1.0)
    with pytest.raises(ContractViolationError):
        stochastic_integral(X, S, filtration=filt)


# ------------------------------------------------------- conditional expectation

def test_cond_expect_uniform_average():
    space = two_atom_space()
    out, _ = cond_expect([2.0, 4.0], [0, 0], space.measure)
    assert np.allclose(out, 3.0)


def test_cond_expect_identity_on_singletons():
    space = two_atom_space()
    x = np.array([1.7, -2.4])
    out, _ = cond_expect(x, [0, 1], space.measure)
    assert np.array_equal(out, x)


def test_cond_expect_demo_default_indicator(demo):
    space, tau, _ = demo
    x = (tau == 1).astype(float)
    out, _ = cond_expect(x, space.filtration.block_ids[1], space.measure)
    assert np.allclose(out, [0.5, 0.5, 0.0, 0.0])


def test_cond_expect_degenerate_block():
    meas = ProbabilityMeasure([1.0, 0.0])
    with pytest.raises(DegenerateConditioningError):
        cond_expect([1.0, 2.0], [0, 1], meas)
    out, dead = cond_expect([1.0, 2.0], [0, 1], meas, allow_degenerate=True)
    assert out[1] == 0.0 and dead[1] and not dead[0]


def test_tower_property_random_trees():
    rng = np.random.default_rng(1)
    for _ in range(25):
        space = trees.random_space(rng)
        x = rng.normal(size=space.n_atoms)
        fine = rng.integers(1, space.horizon + 1)
        coarse = rng.integers(0, fine)
        inner, _ = cond_expect(x, space.filtration.block_ids[fine], space.measure)
        two_step, _ = cond_expect(inner, space.filtration.block_ids[coarse], space.measure)
        direct, _ = cond_expect(x, space.filtration.block_ids[coarse], space.measure)
        assert np.max(np.abs(two_step - direct)) <= 1e-12


# ------------------------------------------------------------------ projections

def test_project_optional_is_identity_on_adapted(demo):
    space, _, S = demo
    assert np.allclose(project(space, S, "optional"), S, atol=0, rtol=0)


def test_project_predictable_deterministic_invariance(demo):
    space, _, _ = demo
    X = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    assert np.array_equal(project(space, X, "predictable"), X)


def test_project_optional_default_indicator(demo):
    space, tau, _ = demo
    D = (tau[:, None] <= np.arange(3)[None, :]).astype(float)
    opt = project(space, D, "optional")
    assert np.allclose(opt[:, 0], 0.25)
    assert np.allclose(opt[:, 1], [0.5, 0.5, 0.5, 0.5])


def test_dual_projection_deterministic_invariance(demo):
    space, _, _ = demo
    A = np.tile(np.array([0.0, 0.5, 1.5]), (4, 1))
    for mode in ("optional", "predictable"):
        assert np.allclose(dual_projection(space, A, mode), A, atol=1e-15)


def test_dual_projection_demo_values(demo, demo_rts):
    space, tau, _ = demo
    D = (tau[:, None] <= np.arange(3)[None, :]).astype(float)
    opt = dual_projection(space, D, "optional")
    expected = frac_table([
        ["1/4", "3/4", "7/4"],
        ["1/4", "3/4", "3/4"],
        ["1/4", "1/4", "5/4"],
        ["1/4", "1/4", "1/4"],
    ])
    assert np.max(np.abs(opt - expected)) <= 1e-15
    pred = dual_projection(space, D, "predictable")
    assert np.allclose(pred[:, 1] - pred[:, 0], 0.25)


def test_predictable_projection_kills_martingale_increments():
    rng = np.random.default_rng(8)
    for _ in range(10):
        space = trees.random_space(rng)
        M = trees.random_martingale(rng, space)
        inc = np.zeros_like(M)
        inc[:, 1:] = np.diff(M, axis=1)
        proj = project(space, inc, "predictable")
        assert np.max(np.abs(proj[:, 1:])) <= 1e-12


def test_dual_predictable_projection_compensates():
    rng = np.random.default_rng(2)
    for _ in range(10):
        space = trees.random_space(rng)
        A = np.cumsum(rng.uniform(0, 1, size=(space.n_atoms, space.horizon + 1)), axis=1)
        comp = dual_projection(space, A, "predictable")
        assert space.filtration.is_predictable(comp, tol=1e-12)
        assert np.all(np.diff(comp, axis=1) >= -1e-12)
        rep = classify(space, A - comp)
        assert rep.is_martingale


# ------------------------------------------------------- integrals and exponentials

def test_integral_telescoping(demo):
    space, _, S = demo
    ones = np.ones_like(S)
    out = stochastic_integral(ones, S)
    assert np.allclose(out, S - S[:, :1])
    assert np.allclose(stochastic_integral(np.zeros_like(S), S), 0.0)


def test_integral_demo_m(demo_rts):
    out = stochastic_integral(np.ones_like(demo_rts.m), demo_rts.m)
    assert np.allclose(out[:, 2], [0.75, -0.25, 0.25, -0.75])


def test_integral_bilinear():
    rng = np.random.default_rng(9)
    phi, psi = rng.normal(size=(2, 3, 5))
    X, Y = np.cumsum(rng.normal(size=(2, 3, 5)), axis=2)
    lhs = stochastic_integral(phi + 2.0 * psi, X)
    rhs = stochastic_integral(phi, X) + 2.0 * stochastic_integral(psi, X)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    lhs = stochastic_integral(phi, X + Y)
    rhs = stochastic_integral(phi, X) + stochastic_integral(phi, Y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_integral_rejects_non_predictable(demo):
    space, _, S = demo
    with pytest.raises(ContractViolationError):
        stochastic_integral(S, S, filtration=space.filtration)


def test_integral_of_a_d_asset_stack_sums_the_per_asset_integrals():
    rng = np.random.default_rng(12)
    phi = rng.normal(size=(3, 4, 5))
    X = np.cumsum(rng.normal(size=(3, 4, 5)), axis=2)
    stacked = stochastic_integral(phi, X)
    assert stacked.shape == (4, 5)
    assert np.max(np.abs(stacked - sum(map(stochastic_integral, phi, X)))) <= 1e-12
    for P, V in ((phi, X[:2]), (phi, X[0]), (phi[0], X)):
        with pytest.raises(ContractViolationError, match="shapes disagree"):
            stochastic_integral(P, V)


def test_integral_constant_integrator(demo):
    space, _, _ = demo
    const = np.ones((4, 3)) * 4.2
    assert np.allclose(stochastic_integral(np.ones((4, 3)), const), 0.0)


def test_exponential_basics():
    Z = stochastic_exponential(np.zeros((3, 5)))
    assert np.array_equal(Z, np.ones((3, 5)))
    c = 0.3
    X = np.tile(np.arange(5.0) * c, (2, 1))
    assert np.allclose(stochastic_exponential(X), (1 + c) ** np.arange(5))


def test_exponential_recursion_and_sign():
    rng = np.random.default_rng(3)
    X = np.cumsum(rng.uniform(-1.5, 1.5, size=(6, 5)), axis=1)
    Z = stochastic_exponential(X)
    dX = np.diff(X, axis=1)
    assert np.allclose(Z[:, 1:], Z[:, :-1] * (1 + dX))
    assert np.array_equal(np.all(1 + dX > 0, axis=1), np.all(Z > 0, axis=1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_yor_formula(seed):
    rng = np.random.default_rng(seed)
    X = np.cumsum(rng.uniform(-0.8, 0.8, size=(4, 6)), axis=1)
    Y = np.cumsum(rng.uniform(-0.8, 0.8, size=(4, 6)), axis=1)
    lhs = stochastic_exponential(X) * stochastic_exponential(Y)
    rhs = stochastic_exponential(X + Y + bracket(X, Y))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_yor_formula_many_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(200):
        X = np.cumsum(rng.uniform(-0.9, 0.9, size=(5, 7)), axis=1)
        Y = np.cumsum(rng.uniform(-0.9, 0.9, size=(5, 7)), axis=1)
        lhs = stochastic_exponential(X) * stochastic_exponential(Y)
        rhs = stochastic_exponential(X + Y + bracket(X, Y))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_integration_by_parts(seed):
    rng = np.random.default_rng(seed)
    X = np.cumsum(rng.normal(size=(4, 6)), axis=1)
    Y = np.cumsum(rng.normal(size=(4, 6)), axis=1)
    lhs = X * Y - (X * Y)[:, :1]
    prev = lambda A: A[:, :-1]
    inc = np.diff(X * Y, axis=1)
    expand = prev(X) * np.diff(Y, axis=1) + prev(Y) * np.diff(X, axis=1) \
        + np.diff(X, axis=1) * np.diff(Y, axis=1)
    assert np.max(np.abs(inc - expand)) <= 1e-12
    assert np.max(np.abs(np.cumsum(expand, axis=1) - lhs[:, 1:])) <= 1e-12


# ------------------------------------------------------------------- brackets

def test_bracket_unit_jump_coin():
    signs = np.array([[1, -1, 1, -1], [1, 1, -1, 1]], dtype=float)
    X = np.concatenate([np.zeros((2, 1)), np.cumsum(signs, axis=1)], axis=1)
    assert np.allclose(bracket(X, X)[:, 1:], np.arange(1, 5))


def test_bracket_constant_is_zero(demo):
    _, _, S = demo
    const = np.full_like(S, 2.0)
    assert np.allclose(bracket(S, const), 0.0)


def test_bracket_demo_m(demo_rts):
    val = bracket(demo_rts.m, demo_rts.m)[:, 1]
    assert np.allclose(val, 1 / 16)


def test_bracket_predictable_nondecreasing(demo):
    space, _, S = demo
    ang = bracket(S, S, "predictable", space=space)
    assert space.filtration.is_predictable(ang, tol=1e-12)
    assert np.all(np.diff(ang, axis=1) >= -1e-12)


def test_bracket_bilinear():
    rng = np.random.default_rng(5)
    X, Y, W = (np.cumsum(rng.normal(size=(3, 5)), axis=1) for _ in range(3))
    assert np.allclose(bracket(X + 2 * W, Y), bracket(X, Y) + 2 * bracket(W, Y))
    assert np.allclose(bracket(X, Y), bracket(Y, X))


# ---------------------------------------------------------- Doob decomposition

def test_doob_martingale_input(demo_rts):
    space = demo_rts.space
    M, A = doob_decomposition(space, demo_rts.m)
    assert np.allclose(A, 0.0)
    assert np.allclose(M, demo_rts.m)


def test_doob_deterministic(demo):
    space, _, _ = demo
    X = np.tile(np.array([2.0, 2.5, 1.0]), (4, 1))
    M, A = doob_decomposition(space, X)
    assert np.allclose(M, 2.0)
    assert np.allclose(A, X - 2.0)


def test_doob_demo_survival(demo_rts):
    _, A = doob_decomposition(demo_rts.space, demo_rts.G)
    assert np.allclose(A[:, 1] - A[:, 0], -0.25)


def test_doob_unique_and_exact():
    rng = np.random.default_rng(6)
    for _ in range(10):
        space = trees.random_space(rng)
        X = np.cumsum(rng.normal(size=(space.n_atoms, space.horizon + 1)), axis=1)
        M, A = doob_decomposition(space, X)
        assert space.filtration.is_predictable(A, tol=1e-12)
        assert classify(space, M, tol=1e-12).is_martingale
        assert np.max(np.abs(M + A - X)) <= 1e-12
        M2, A2 = doob_decomposition(space, M + A)
        assert np.max(np.abs(M2 - M)) <= 1e-13
        assert np.max(np.abs(A2 - A)) <= 1e-13


def test_doob_supermartingale_direction(demo_rts):
    _, A = doob_decomposition(demo_rts.space, demo_rts.G)
    assert np.all(np.diff(A, axis=1) <= 1e-15)


def test_doob_direction_characterizes_verdict():
    rng = np.random.default_rng(10)
    for _ in range(15):
        space = trees.random_space(rng)
        M = trees.random_martingale(rng, space)
        drift = trees.random_predictable_nondecreasing(rng, space, max_step=0.2)
        for X, sign in ((M - drift, -1.0), (M + drift, 1.0)):
            _, A = doob_decomposition(space, X)
            assert np.all(sign * np.diff(A, axis=1) >= -1e-12)
            want = "supermartingale" if sign < 0 else "submartingale"
            assert classify(space, X).verdict in (want, "martingale")


# -------------------------------------------------------------------- classify

def test_classify_constant(demo):
    space, _, _ = demo
    rep = classify(space, np.ones((4, 3)))
    assert rep.is_martingale and rep.max_residual == 0.0


def test_classify_demo_processes(demo_rts):
    space = demo_rts.space
    assert classify(space, demo_rts.m).is_martingale
    rep = classify(space, demo_rts.G)
    assert rep.verdict == "supermartingale"


def test_classify_submartingale(demo):
    space, _, _ = demo
    X = np.tile(np.array([0.0, 1.0, 2.0]), (4, 1))
    assert classify(space, X).verdict == "submartingale"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_fails_closed_on_non_finite(demo, bad):
    space, _, _ = demo
    X = np.ones((4, 3))
    X[1, 2] = bad
    rep = classify(space, X)
    assert rep.verdict == "none" and not rep.is_martingale
    assert rep.max_residual == np.inf


def test_classify_names_its_worst_node():
    # X drifts only on the second time-1 block, so martingality fails at the
    # node (time 2, time-1 block 1); a NaN elsewhere is named first
    space = FiniteFilteredSpace.from_partitions(
        ("a", "b", "c", "d"), (0.25,) * 4, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]])
    X = np.zeros((4, 3))
    X[:2, 1], X[2:, 1] = 0.1, -0.1
    X[:, 2] = X[:, 1] + np.array([0.3, -0.3, 0.5, 0.1])
    rep = classify(space, X)
    assert rep.verdict == "submartingale" and rep.worst == (2, 1)
    assert rep.max_residual == rep.sup_residual == 0.3
    assert classify(space, np.ones((4, 3))).worst == (1, 0)
    X[0, 2] = np.nan
    assert classify(space, X).worst == (2, 0)


# -------------------------------------------------------------- measure change

def test_change_measure_identity(demo):
    space, _, _ = demo
    q = change_measure(space, np.ones(4))
    assert np.allclose(q.weights, space.probs)


def test_change_measure_demo(demo, demo_rts):
    space, _, _ = demo
    q = change_measure(space, demo_rts.Z_bar[:, -1])
    assert np.allclose(q.weights, [2 / 3, 0.0, 1 / 3, 0.0])
    assert abs(q.weights.sum() - 1.0) <= 1e-15


def test_change_measure_two_atom_transport():
    space = two_atom_space()
    q = change_measure(space, np.array([2.0, 0.0]))
    assert np.allclose(q.weights, [1.0, 0.0])


def test_change_measure_rejections(demo):
    space, _, _ = demo
    with pytest.raises(SpaceValidationError):
        change_measure(space, np.array([-0.5, 1.5, 1.0, 2.0]))
    with pytest.raises(SpaceValidationError):
        change_measure(space, np.array([1.0, 1.0, 1.0, 2.0]))


def test_supermartingale_under_changed_measure(demo, demo_rts):
    # X is a Q-supermartingale iff Z_bar X is a P-supermartingale
    space, _, _ = demo
    rng = np.random.default_rng(7)
    q = change_measure(space, demo_rts.Z_bar[:, -1])
    X = np.cumsum(rng.uniform(-0.4, 0.1, size=(4, 3)), axis=1)
    under_q = classify(space, X, measure=q).verdict
    under_p = classify(space, demo_rts.Z_bar * X).verdict
    sup_q = under_q in ("martingale", "supermartingale")
    sup_p = under_p in ("martingale", "supermartingale")
    assert sup_q == sup_p


def test_increments_convention():
    X = np.array([[2.0, 3.0, 2.5]])
    dX = increments(X)
    assert np.allclose(dX, [[2.0, 1.0, -0.5]])
