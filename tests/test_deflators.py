"""Deflator factories, admissibility, decompositions, and round-trips."""

import dataclasses
import re

import numpy as np
import pytest

from horizon_deflators import (
    AdmissibilityError,
    ContractViolationError,
    DeflatorParams,
    additive_to_multiplicative,
    build_additive,
    build_measure_change,
    build_multiplicative,
    build_survival,
    classify,
    decompose_martingale,
    extract_multiplicative,
    induced_base,
    multiplicative_decomposition,
    multiplicative_to_additive,
    represent_payoff,
    split_at,
    stochastic_exponential,
    stop,
    validate,
)
from horizon_deflators.deflators import (
    ROUTES,
    AdmissibilityReport,
    _numbers,
    lift_predictable,
    progressive_exponential,
    reassemble,
)
from horizon_deflators.prob_core import bracket, cond_expect

import trees


def _regular_case(rng, *, max_horizon=5, max_atoms=40):
    space = trees.random_space(rng, max_horizon=max_horizon, max_atoms=max_atoms)
    tau = trees.regular_tau(rng, space)
    return space, tau, build_survival(space, tau)


# -------------------------------------------------------------------- validate

def test_validate_measure_change_bounds(demo_rts):
    rep = validate(DeflatorParams("measure-change", phi=0.0), demo_rts)
    assert rep.ok
    assert np.allclose(rep.bounds["optional_lower"][:, 1], [-2, -2, -1, -1])
    up = rep.bounds["optional_upper"][:, 1]
    assert np.allclose(up[:2], [2, 2]) and np.isinf(up[2:]).all()


def test_validate_zero_phi_always_admissible():
    rng = np.random.default_rng(20)
    for _ in range(10):
        space = trees.random_space(rng)
        rts = build_survival(space, trees.random_tau(rng, space))
        assert validate(DeflatorParams("multiplicative", Z_F=1.0), rts).ok


def test_validate_boundary_is_rejected(demo_rts):
    # phi equal to the lower bound -G~/G on a cell where it binds
    phi = np.zeros((4, 3))
    phi[:, 1] = -2.0  # the bound on the up-block at date 1
    rep = validate(DeflatorParams("measure-change", phi=phi), demo_rts)
    assert not rep.ok
    assert rep.first_violation[0] == "factor_positive"


def test_validate_progressive_collapse(demo_rts):
    phi_pr = np.zeros((4, 3))
    phi_pr[1, 1] = 0.3  # atom w2 defaults at date 1
    rep = validate(DeflatorParams("multiplicative", Z_F=1.0, phi_pr=phi_pr), demo_rts)
    assert not rep.ok and not rep.collapse_ok
    with pytest.raises(AdmissibilityError):
        build_multiplicative(1.0, None, phi_pr, demo_rts)


def test_validate_additive_reports_what_build_additive_enforces(demo_rts):
    # validate runs the additive check of ROUTES; build_additive raises on
    # exactly the violation that check names, and builds when it passes
    rep = validate(DeflatorParams("additive"), demo_rts)
    d = build_additive(None, None, None, None, demo_rts)
    assert rep.route == "additive" and rep.ok and rep.first_violation is None
    assert rep.min_factor == d.report.min_factor == 0.75
    phi_o, phi_pr = np.zeros((4, 3)), np.zeros((4, 3))
    phi_o[:, 1] = -5.0  # the factor 1 + dK_G at date 1 falls to -1.75 on w2
    phi_pr[1, 1] = 0.3  # w2 defaults at date 1, where phi_pr must vanish
    for params, violation in ((DeflatorParams("additive", phi_o=phi_o), ("factor_positive", 1, 1)),
                              (DeflatorParams("additive", phi_pr=phi_pr),
                               ("progressive_collapse", None, None))):
        rep = validate(params, demo_rts)
        assert rep.route == "additive" and not rep.ok
        assert rep.first_violation == violation
        assert rep.collapse_ok == (violation[0] != "progressive_collapse")
        with pytest.raises(AdmissibilityError) as err:
            build_additive(params.K_F, params.V_F, params.phi_o, params.phi_pr, demo_rts)
        assert (err.value.inequality, err.value.atom, err.value.time) == violation
    assert validate(DeflatorParams("additive", phi_o=phi_o), demo_rts).min_factor == -1.75


def _assert_same_report(a, b):
    for field in dataclasses.fields(AdmissibilityReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), field.name
            assert all(np.array_equal(x[k], y[k]) for k in x), field.name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def test_validate_reports_what_each_builder_enforces():
    # on every route, regular and free tau, admissible and inadmissible draws:
    # an ok report is the builder's report field by field, and a failed one
    # names the violation the builder raises
    rng = np.random.default_rng(24)
    seen = {True: 0, False: 0}
    for i in range(40):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.regular_tau(rng, space) if i % 2 else trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        K = trees.random_driver(rng, space)
        V = trees.random_predictable_nondecreasing(rng, space)
        Z_QF = trees.random_martingale(rng, space, positive=True)
        for scale in (1.0, 6.0):
            phi_o = scale * trees.random_optional_integrand(rng, rts)
            phi_pr = trees.random_progressive_integrand(rng, rts)
            if scale > 1.0 and i % 3 == 0:
                phi_pr[np.arange(space.n_atoms), tau] = 0.25  # breaks the collapse
            Z_F = stochastic_exponential(K) * stochastic_exponential(-V)
            cases = (
                (DeflatorParams("additive", K_F=K, V_F=V, phi_o=phi_o, phi_pr=phi_pr),
                 lambda: build_additive(K, V, phi_o, phi_pr, rts)),
                (DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o, phi_pr=phi_pr),
                 lambda: build_multiplicative(Z_F, phi_o, phi_pr, rts)),
                (DeflatorParams("measure-change", Z_QF=Z_QF, phi=phi_o),
                 lambda: build_measure_change(Z_QF, phi_o, rts)),
            )
            for params, build in cases:
                rep = validate(params, rts)
                seen[rep.ok] += 1
                if rep.ok:
                    _assert_same_report(rep, build().report)
                else:
                    with pytest.raises(AdmissibilityError) as err:
                        build()
                    assert (err.value.inequality, err.value.atom,
                            err.value.time) == rep.first_violation
    assert min(seen.values()) >= 40, seen


def _additive_build_after_ok_report(demo_rts, **tables):
    params = DeflatorParams("additive", **tables)
    assert validate(params, demo_rts).ok  # only the builder's input checks fail
    return lambda: build_additive(params.K_F, params.V_F, params.phi_o, params.phi_pr,
                                  demo_rts)


def test_build_additive_checks_the_driver_factors(demo_rts):
    K_F = np.zeros((4, 3))
    K_F[3, 1:] = -2.0  # w4 defaults at 0, so only the driver check sees 1 + dK_F = -1
    with pytest.raises(AdmissibilityError, match=r"driver factors 1 \+ dK_F must be positive"):
        _additive_build_after_ok_report(demo_rts, K_F=K_F)()


@pytest.mark.parametrize("rows, message", [
    ([[0.1, 0.1, 0.1]] * 4, "V must start at 0"),
    ([[0.0, 0.2, 0.1]] * 4, "V must be nondecreasing"),
    ([[0.0, 1.0, 1.0]] * 4, "V increments must stay below 1"),
    ([[0.0, 0.1, 0.1], [0.0, 0.1, 0.1], [0.0, 0.2, 0.2], [0.0, 0.2, 0.2]],
     "V must be predictable"),
])
def test_build_additive_checks_V(demo_rts, rows, message):
    with pytest.raises(AdmissibilityError, match=message):
        _additive_build_after_ok_report(demo_rts, V_F=np.array(rows))()


def test_build_additive_requires_a_public_martingale_driver(demo_rts):
    K_F = np.tile([0.0, 0.1, 0.2], (4, 1))  # deterministic drift
    with pytest.raises(ContractViolationError, match="transport input is not a martingale"):
        _additive_build_after_ok_report(demo_rts, K_F=K_F)()


def test_build_additive_names_the_report_violation_before_V(demo_rts):
    phi_o = np.zeros((4, 3))
    phi_o[:, 1] = -5.0
    V_F = np.full((4, 3), 0.1)  # V_0 != 0 too
    with pytest.raises(AdmissibilityError) as err:
        build_additive(None, V_F, phi_o, None, demo_rts)
    assert (err.value.inequality, err.value.atom, err.value.time) == ("factor_positive", 1, 1)


@pytest.mark.parametrize("route, build", [
    ("multiplicative", lambda base, rts: build_multiplicative(base, None, None, rts)),
    ("measure-change", lambda base, rts: build_measure_change(base, None, rts)),
])
@pytest.mark.parametrize("base", [0.0, -1.0])
def test_product_routes_require_a_positive_base(demo_rts, route, build, base):
    with pytest.raises(AdmissibilityError, match=f"{route} base must be"):
        build(base, demo_rts)


@pytest.mark.parametrize("base", [-1.0, 0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route, key", [("multiplicative", "Z_F"), ("measure-change", "Z_QF")])
def test_validate_refuses_the_base_its_builder_refuses(demo_rts, route, key, base):
    # validate used to report ok on a measure-change base <= 0, and both
    # routes let a NaN or infinite base through
    table = np.ones((4, 3))
    table[2, 1] = base
    for value in (base, table):
        params = DeflatorParams(route, **{key: value})
        for check in (validate, ROUTES[route][1]):
            with pytest.raises(AdmissibilityError,
                               match=f"{route} base must be finite and strictly positive"):
                check(params, demo_rts)


@pytest.mark.parametrize("route, key", [("multiplicative", "phi_o"), ("multiplicative", "phi_pr"),
                                        ("measure-change", "phi"), ("additive", "phi_o")])
def test_a_non_finite_parameter_is_refused_in_a_dead_cell_too(demo_rts, route, key):
    # atom 3 is dead at date 2, so no factor there is checked, but the
    # exponentials multiply in every cell: 1 + nan * 0 made Z[3, 2] NaN
    table = np.zeros((4, 3))
    table[3, 2] = np.nan
    params = DeflatorParams(route, **{key: table})
    for check in (validate, ROUTES[route][1]):
        with pytest.raises(AdmissibilityError, match=rf"{key} must be finite, got nan at cell \(3, 2\)"):
            check(params, demo_rts)


@pytest.mark.parametrize("x, integral, read", [
    ([[1, 2.5]], False, [[1.0, 2.5]]),
    (2 ** 70, False, 1.1805916207174113e21),  # the float it rounds to
    ([2 ** 64, -1], False, [1.8446744073709552e19, -1.0]),
    ([7.0, -2 ** 63, 2 ** 63 - 1], True, [7, -2 ** 63, 2 ** 63 - 1]),
    ([[2 ** 62 + 1, 1.0]], True, [[2 ** 62 + 1, 1]]),  # exact, though NumPy rounds it to 2^62
], ids=["floats", "past-int64", "past-uint64", "int64-range", "exact-integer"])
def test_the_number_rule_reads_each_number(x, integral, read):
    values = _numbers(x, integral)
    assert values.dtype == (np.int64 if integral else np.float64)
    assert values.tolist() == read


@pytest.mark.parametrize("x, integral, bad", [
    (10 ** 400, False, str(10 ** 400)),  # past the float range
    ([[1.0, 2.0], [3.0, [4.0]]], False, "ragged rows"),
    ([[[1, 2]], [[3, True]]], False, "True"),
    ([1, None], False, "None"),
    (["1"], False, "'1'"),
    (np.array([0.0, 1.0]) > 0, False, "False"),
    ([1, 7.5, 8.5], True, "7.5"),
    ([2 ** 63], True, "9223372036854775808"),
    ([1.0, 2.0 ** 63], True, "9.223372036854776e+18"),
    ([float("nan")], True, "nan"),
], ids=["huge", "ragged", "deep-bool", "null", "text", "bool-array", "fraction", "past-int64",
        "float-past-int64", "nan-integer"])
def test_the_number_rule_names_the_first_cell_it_refuses(x, integral, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(bad)}$"):
        _numbers(x, integral)


@pytest.mark.parametrize("shape", [(3,), (4,), (1, 3), (3, 3), (4, 2), (4, 3, 1)],
                         ids=["3", "4", "1x3", "3x3", "4x2", "4x3x1"])
@pytest.mark.parametrize("route, key, name", [
    ("additive", "K_F", "K_F"), ("additive", "V_F", "V_F"), ("additive", "phi_o", "phi_o"),
    ("additive", "phi_pr", "phi_pr"), ("multiplicative", "Z_F", "multiplicative base"),
    ("multiplicative", "phi_o", "phi_o"), ("multiplicative", "phi_pr", "phi_pr"),
    ("measure-change", "Z_QF", "measure-change base"), ("measure-change", "phi", "phi")])
def test_a_parameter_table_of_the_wrong_shape_is_refused(demo_rts, route, key, name, shape):
    # the demo has 4 atoms and T = 2: a table must be (4, 3); a (1, 3) one was
    # broadcast across the atoms, others raised IndexError or AxisError, or passed
    params = DeflatorParams(route, **{key: np.ones(shape)})
    for check in (validate, ROUTES[route][1]):
        with pytest.raises(AdmissibilityError, match=rf"^{name} must be a number or a table "
                           rf"of shape \(4, 3\), got shape {re.escape(str(shape))}$"):
            check(params, demo_rts)


@pytest.mark.parametrize("make, error, message", [
    (lambda rts: DeflatorParams("affine"), AdmissibilityError, "unknown route 'affine'"),
    (lambda rts: DeflatorParams(["additive"]), AdmissibilityError,
     "unknown route ['additive']"),
    (lambda rts: multiplicative_decomposition(rts.space, -np.ones((4, 3))),
     ContractViolationError, "multiplicative decomposition needs Z > 0"),
    (lambda rts: represent_payoff(np.arange(12.0).reshape(4, 3), rts), ContractViolationError,
     "payoff must be adapted"),
    (lambda rts: split_at(-np.ones((4, 3)), rts.tau), ContractViolationError,
     "split needs a positive process"),
    (lambda rts: extract_multiplicative(np.arange(1.0, 13.0).reshape(4, 3), rts),
     ContractViolationError, "extraction applies to processes stopped at tau"),
], ids=["route", "unhashable-route", "decomposition-sign", "payoff-adapted", "split-sign",
        "extraction-stopped"])
def test_each_deflator_refusal_names_its_rule(demo_rts, make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(demo_rts)


# ------------------------------------------------------------------- factories

def test_additive_null_params_demo(demo_rts):
    d = build_additive(None, None, None, None, demo_rts)
    assert np.allclose(d.Z[:, 1], [0.75, 0.75, 1.5, 1.0])
    assert classify(demo_rts.space, d.Z, filtration=demo_rts.G_filtration).is_martingale
    assert np.max(np.abs(d.factor_product() - d.Z)) <= 1e-12
    base = induced_base(None, demo_rts)
    assert np.array_equal(base, d.Z)


def test_multiplicative_demo_example(demo_rts):
    d = build_multiplicative(1.0, 0.5, None, demo_rts)
    assert np.allclose(d.factors["default_exponential"][:, 1], [0.75, 1.25, 1.0, 1.0])
    assert np.allclose(d.Z[:, 1], [9 / 16, 15 / 16, 1.5, 1.0])
    assert np.max(np.abs(d.factor_product() - d.Z)) <= 1e-12


def test_factor_product_with_unnormalized_base(demo_rts):
    Z_F = 2.0 * np.ones((4, 3))  # positive supermartingale with Z_0 = 2
    d = build_multiplicative(Z_F, 0.25, None, demo_rts)
    assert np.allclose(d.Z[:, 0], 2.0)
    assert np.max(np.abs(d.factor_product() - d.Z)) <= 1e-12
    assert d.params.route == "multiplicative"


def test_multiplicative_null_params_is_survival_discount(demo_rts):
    d = build_multiplicative(1.0, None, None, demo_rts)
    zb = stop(demo_rts.Z_bar, demo_rts.tau)
    assert np.allclose(d.Z, 1.0 / zb)


def test_measure_change_demo_example(demo_rts):
    d = build_measure_change(1.0, 0.5, demo_rts)
    zphi = d.factors["default_exponential"]
    assert np.allclose(zphi[:, 2], [0.75, 1.25, 1.0, 1.0])
    # one-step means over the enlarged blocks at date 0 are exactly 1
    e0, _ = cond_expect(zphi[:, 1], demo_rts.G_filtration.block_ids[0],
                        demo_rts.space.measure)
    assert np.allclose(e0, 1.0)
    assert classify(demo_rts.space, d.Z, filtration=demo_rts.G_filtration).is_martingale


def test_measure_change_zero_phi(demo_rts):
    d = build_measure_change(1.0, None, demo_rts)
    assert np.allclose(d.factors["default_exponential"], 1.0)


def test_additive_rejects_inadmissible(demo_rts):
    phi = np.zeros((4, 3))
    phi[:, 1] = -5.0
    with pytest.raises(AdmissibilityError) as err:
        build_additive(None, None, phi, None, demo_rts)
    assert "factor_positive" in str(err.value)


def test_route_agreement_on_regular_trees():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        space, tau, rts = _regular_case(rng)
        K = trees.random_driver(rng, space)
        V = trees.random_predictable_nondecreasing(rng, space)
        phi_o = trees.random_optional_integrand(rng, rts)
        Z_F = stochastic_exponential(K) * stochastic_exponential(-V)
        pm = DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o,
                            phi_pr=np.zeros_like(K), V_F=V)
        pa = multiplicative_to_additive(pm, rts)
        z_m = build_multiplicative(pm.Z_F, pm.phi_o, pm.phi_pr, rts).Z
        z_a = build_additive(pa.K_F, pa.V_F, pa.phi_o, pa.phi_pr, rts).Z
        worst = max(worst, float(np.max(np.abs(z_m - z_a))))
        back = additive_to_multiplicative(pa, rts)
        assert np.max(np.abs(back.phi_o - pm.phi_o)[:, 1:]
                      * (rts.tau[:, None] >= np.arange(1, space.horizon + 1))) <= 1e-9
    assert worst <= 1e-10


def test_measure_change_equals_multiplicative_through_density():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(50):
        space, tau, rts = _regular_case(rng)
        qt = rts.qtilde()
        Z_QF = trees.random_martingale(rng, space, positive=True, measure=qt)
        Z_QF = Z_QF / Z_QF[:, :1]
        phi = trees.random_optional_integrand(rng, rts)
        d_q = build_measure_change(Z_QF, phi, rts)
        d_m = build_multiplicative(Z_QF * rts.Z_bar, phi, None, rts)
        worst = max(worst, float(np.max(np.abs(d_q.Z - d_m.Z))))
    assert worst <= 1e-10


def test_induced_base_martingale_on_any_tree():
    rng = np.random.default_rng(23)
    for _ in range(30):
        space = trees.random_space(rng)
        rts = build_survival(space, trees.random_tau(rng, space))
        K = trees.random_driver(rng, space)
        Z = induced_base(K, rts)
        rep = classify(space, Z, filtration=rts.G_filtration)
        assert rep.max_residual <= 1e-10
        assert np.min(Z) > 0


# -------------------------------------------------- multiplicative decomposition

def test_mult_decompose_martingale_input(demo_rts):
    space = demo_rts.space
    M = trees.random_martingale(np.random.default_rng(30), space, positive=True)
    N, V = multiplicative_decomposition(space, M)
    assert np.max(np.abs(V)) <= 1e-13
    assert np.max(np.abs(M[:, :1] * stochastic_exponential(N) - M)) <= 1e-12


def test_mult_decompose_deterministic_decay(demo):
    space, _, _ = demo
    c = 0.2
    Z = np.tile((1 - c) ** np.arange(3.0), (4, 1))
    N, V = multiplicative_decomposition(space, Z)
    assert np.max(np.abs(N)) <= 1e-14
    assert np.allclose(np.diff(V, axis=1), c)


def test_mult_decompose_reassembly_random():
    rng = np.random.default_rng(24)
    for _ in range(25):
        space = trees.random_space(rng)
        M = trees.random_martingale(rng, space, positive=True)
        A = trees.random_predictable_nondecreasing(rng, space, max_step=0.4)
        Z = M * np.exp(-A)
        N, V = multiplicative_decomposition(space, Z)
        back = Z[:, :1] * stochastic_exponential(N) * stochastic_exponential(-V)
        assert np.max(np.abs(back - Z)) <= 1e-12
        assert classify(space, N).max_residual <= 1e-12
        assert space.filtration.is_predictable(V, tol=1e-12)
        assert np.min(1.0 + np.diff(N, axis=1)) > -1.0 + 1e-12
        assert np.max(np.diff(V, axis=1)) < 1.0
        # determinism: re-application is bit-identical
        N2, V2 = multiplicative_decomposition(space, Z)
        assert np.array_equal(N, N2) and np.array_equal(V, V2)


def test_mult_decompose_rejects_submartingale(demo):
    space, _, _ = demo
    Z = np.tile(np.array([1.0, 1.2, 1.5]), (4, 1))
    with pytest.raises(ContractViolationError):
        multiplicative_decomposition(space, Z)


# -------------------------------------------------- martingale decomposition

def test_decompose_basis_element(demo_rts):
    repn = decompose_martingale(demo_rts.N_G, demo_rts)
    assert repn.residual <= 1e-12
    assert np.max(np.abs(repn.M_F)) <= 1e-12
    assert np.all(repn.phi[repn.phi_known] == 1.0)
    assert repn.phi_known.any()


def test_decompose_constant(demo_rts):
    repn = decompose_martingale(np.full((4, 3), 3.3), demo_rts)
    assert np.max(np.abs(repn.M_F)) == 0.0
    assert np.max(np.abs(repn.phi)) == 0.0


def test_decompose_demo_default_exponential(demo_rts):
    Z = build_measure_change(1.0, 0.5, demo_rts).Z
    repn = decompose_martingale(Z - 1.0, demo_rts)
    assert repn.residual <= 1e-12
    assert np.max(np.abs(repn.M_F)) <= 1e-12
    assert np.all(np.abs(repn.phi[repn.phi_known] - 0.5) <= 1e-12)


def test_decompose_transported_martingale_scaling():
    rng = np.random.default_rng(25)
    from horizon_deflators import transport
    for _ in range(20):
        space, tau, rts = _regular_case(rng)
        M = trees.random_martingale(rng, space)
        MG = transport(M, rts, check=False)
        repn = decompose_martingale(MG, rts)
        assert repn.residual <= 1e-11
        # recovered public part carries the squared left survival weight
        dM = np.diff(M, axis=1)
        expected = np.cumsum(rts.G_minus[:, 1:] ** 2 * dM, axis=1)
        got = repn.M_F[:, 1:]
        assert np.max(np.abs(got - expected)) <= 1e-10
        if repn.phi_known.any():
            assert np.max(np.abs(repn.phi[repn.phi_known])) <= 1e-10


def test_decompose_idempotent():
    rng = np.random.default_rng(32)
    for _ in range(10):
        space, tau, rts = _regular_case(rng)
        phi = trees.random_optional_integrand(rng, rts)
        Z = build_measure_change(1.0, phi, rts).Z
        first = decompose_martingale(Z - 1.0, rts)
        rebuilt = reassemble(0.0, first.M_F, first.phi, rts)
        second = decompose_martingale(rebuilt, rts)
        assert np.max(np.abs(second.M_F - first.M_F)) <= 1e-12
        assert np.max(np.abs(second.phi - first.phi)) <= 1e-12


def test_decompose_rejects_non_martingale(demo_rts):
    X = np.tile(np.array([0.0, 1.0, 2.0]), (4, 1))
    with pytest.raises(ContractViolationError):
        decompose_martingale(X, demo_rts)


def test_reassemble_matches_manual(demo_rts):
    phi = np.full((4, 3), 0.5)
    out = reassemble(1.0, np.zeros((4, 3)), phi, demo_rts)
    alt = 1.0 + 0.5 * (demo_rts.N_G - demo_rts.N_G[:, :1])
    assert np.allclose(out, alt)


# ------------------------------------------------------------ payoff projection

def test_represent_constant_payoff(demo_rts):
    r = represent_payoff(np.ones((4, 3)), demo_rts)
    assert np.allclose(r.H_h, 1.0)
    assert r.residual <= 1e-12


def test_represent_terminal_indicator(demo_rts):
    h = np.zeros((4, 3))
    h[:, 2] = 1.0
    r = represent_payoff(h, demo_rts)
    expected_H0 = np.array([2 / 3, 2 / 3, 2 / 3, 0.0])
    assert np.allclose(r.H_h[:, 0], expected_H0)
    assert np.allclose(r.H_h[:, 1], [1.0, 0.0, 1.0, 0.0])
    assert np.allclose(r.H_h[:, 2], (demo_rts.tau == 2).astype(float))
    assert r.residual <= 1e-10
    assert np.allclose(r.Y_h[:, 0], 0.5)  # E[h_tau 1{tau>0}]
    assert np.allclose(r.J[:, 0], 2 / 3)


def test_represent_time_function_payoff():
    rng = np.random.default_rng(26)
    for _ in range(15):
        space = trees.random_space(rng)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        vals = rng.normal(size=space.horizon + 1)
        h = np.tile(vals, (space.n_atoms, 1))
        r = represent_payoff(h, rts)
        # direct conditional expectation of h(tau) over enlarged blocks
        target = vals[tau]
        for n in range(space.horizon + 1):
            direct, _ = cond_expect(target, rts.G_filtration.block_ids[n],
                                    space.measure)
            assert np.max(np.abs(r.H_h[:, n] - direct)) <= 1e-12
        assert r.residual <= 1e-10


def test_represent_random_payoffs_identity():
    rng = np.random.default_rng(27)
    for _ in range(20):
        space = trees.random_space(rng)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        h = np.empty((space.n_atoms, space.horizon + 1))
        for n in range(space.horizon + 1):
            h[:, n], _ = cond_expect(rng.normal(size=space.n_atoms),
                                     space.filtration.block_ids[n], space.measure)
        r = represent_payoff(h, rts)
        assert r.residual <= 1e-10


# ---------------------------------------------------------------------- split

def test_split_identities(demo_rts):
    Z = build_additive(None, None, None, None, demo_rts).Z
    K1, K2 = split_at(Z, demo_rts.tau, filtration=demo_rts.G_filtration)
    prod = stochastic_exponential(K1) * stochastic_exponential(K2)
    assert np.max(np.abs(prod - Z)) <= 1e-12
    assert np.max(np.abs(bracket(K1, K2))) == 0.0


def test_split_degenerate_times(demo_rts):
    Z = build_additive(None, None, None, None, demo_rts).Z
    K1, K2 = split_at(Z, np.full(4, 2), filtration=demo_rts.G_filtration)
    assert np.max(np.abs(K2)) == 0.0
    K1, K2 = split_at(Z, np.zeros(4, dtype=int), filtration=demo_rts.G_filtration)
    assert np.max(np.abs(K1)) == 0.0


def test_split_rejects_non_stopping_time(demo_rts):
    sigma = np.array([2, 0, 2, 0])  # {sigma=0} not a union of time-0 blocks
    Z = build_additive(None, None, None, None, demo_rts).Z
    with pytest.raises(ContractViolationError):
        split_at(Z, sigma, filtration=demo_rts.space.filtration)


# ------------------------------------------------------------------ converses

def test_extraction_round_trip():
    rng = np.random.default_rng(28)
    for _ in range(30):
        space, tau, rts = _regular_case(rng)
        qt = rts.qtilde()
        Z_QF = trees.random_martingale(rng, space, positive=True, measure=qt)
        Z_QF = Z_QF / Z_QF[:, :1]
        phi = trees.random_optional_integrand(rng, rts)
        Z = build_measure_change(Z_QF, phi, rts).Z
        assert classify(space, Z, filtration=rts.G_filtration).max_residual <= 1e-10
        params, diag = extract_multiplicative(Z, rts)
        assert validate(params, rts).ok
        rebuilt = build_multiplicative(params.Z_F, params.phi_o, params.phi_pr, rts).Z
        assert np.max(np.abs(rebuilt - Z)) <= 1e-10
        assert diag["decomposition"].residual <= 1e-12


def test_factorization_uniqueness_on_live_region():
    # extracting (Z_F, phi_o, V_F) from a built deflator reproduces the inputs
    # wherever the left survival probability is positive
    rng = np.random.default_rng(31)
    for _ in range(20):
        space, tau, rts = _regular_case(rng)
        K = trees.random_driver(rng, space)
        V = trees.random_predictable_nondecreasing(rng, space, max_step=0.3)
        phi_o = trees.random_optional_integrand(rng, rts)
        Z_F = stochastic_exponential(K) * stochastic_exponential(-V)
        Z = build_multiplicative(Z_F, phi_o, None, rts).Z
        params, diag = extract_multiplicative(Z, rts)
        live = rts.G_minus > 0
        assert np.max(np.abs((params.Z_F - Z_F)[live])) <= 1e-9
        assert np.max(np.abs((params.V_F - V)[live])) <= 1e-9
        known = diag["decomposition"].phi_known
        assert np.max(np.abs((params.phi_o - phi_o)[known]), initial=0.0) <= 1e-9


def test_lift_predictable_refuses_a_move_on_a_surviving_sub_cell(demo_rts):
    # tau = (2, 1, 2, 0): w1, w2 and w3 survive date 0, and w1 and w3 date 1
    V = trees.random_predictable_nondecreasing(np.random.default_rng(5), demo_rts.space)
    assert np.array_equal(lift_predictable(V, demo_rts), V)
    moved = V.copy()
    moved[0, 1:] += 1e-6  # w1 moves at date 1, apart from its fellow survivors w2, w3
    with pytest.raises(ContractViolationError, match="not constant on a surviving sub-cell"):
        lift_predictable(moved, demo_rts)


def test_measure_change_market_precondition(demo, demo_rts):
    # with a market supplied, the base must be a deflator under the changed measure
    space, tau, _ = demo
    from horizon_deflators import MarketModel
    qt = demo_rts.qtilde()
    flat = MarketModel.from_prices(space, np.ones((4, 3)), measure=qt)
    d = build_measure_change(1.0, 0.25, demo_rts, market=flat)
    assert d.report.ok
    drifting = np.tile(np.array([1.0, 1.3, 1.6]), (4, 1))
    up = MarketModel.from_prices(space, drifting, measure=qt)
    with pytest.raises(AdmissibilityError):
        build_measure_change(1.0, 0.25, demo_rts, market=up)


def test_progressive_exponential_collapse(demo_rts):
    phi_pr = trees.random_progressive_integrand(np.random.default_rng(29), demo_rts)
    assert np.array_equal(progressive_exponential(phi_pr, demo_rts),
                          np.ones((4, 3)))
