"""Wealth, the deflator oracles, and strategy lifting."""

import numpy as np
import pytest

from horizon_deflators import (
    ContractViolationError,
    MarketModel,
    UnsupportedDimensionError,
    build_multiplicative,
    build_survival,
    lift_strategy,
    stochastic_exponential,
    stop,
    verify_deflator,
    verify_lmd,
    wealth,
)
from horizon_deflators.market import Strategy
from horizon_deflators.prob_core import FiniteFilteredSpace, ProbabilityMeasure

import trees


def binomial_market():
    space = FiniteFilteredSpace.from_partitions(
        ("u", "d"), (0.5, 0.5), [[0, 0], [0, 1]])
    S = np.array([[1.0, 2.0], [1.0, 0.5]])
    return MarketModel.from_prices(space, S)


@pytest.mark.parametrize("shape", [(4, 2), (3, 3), (4, 4), (4,)])
def test_market_refuses_a_price_table_of_the_wrong_shape(demo, shape):
    # the demo space has 4 atoms and dates 0..2: a one-asset table is (4, 3)
    space, _, _ = demo
    with pytest.raises(ContractViolationError, match=r"shape \(assets, 4, 3\) or \(4, 3\)"):
        MarketModel.from_prices(space, np.ones(shape))


# ---------------------------------------------------------------------- wealth

def test_wealth_zero_strategy(demo):
    space, _, S = demo
    market = MarketModel.from_prices(space, S)
    assert np.allclose(wealth(np.zeros((4, 3)), market), 1.0)


def test_wealth_full_investment_binomial():
    market = binomial_market()
    W = wealth(np.ones((2, 2)), market)
    assert np.allclose(W[:, 1], [2.0, 0.5])


def test_wealth_demo_half(demo):
    space, _, S = demo
    market = MarketModel.from_prices(space, S)
    W = wealth(np.full((4, 3), 0.5), market)
    assert np.allclose(W[:, 1], [1.5, 1.5, 0.75, 0.75])


def test_wealth_rejects_inadmissible():
    market = binomial_market()
    with pytest.raises(ContractViolationError) as err:
        wealth(np.full((2, 2), 2.5), market)
    assert "atom" in str(err.value)


@pytest.mark.parametrize("check", [wealth, lambda phi, market: Strategy.check(market, phi)],
                         ids=["wealth", "Strategy.check"])
@pytest.mark.parametrize("shape", [(2, 4, 3), (0, 4, 3)])
def test_a_strategy_with_the_wrong_number_of_components_is_refused(demo, check, shape):
    # the demo market has one asset: a strategy is (4, 3) or (1, 4, 3)
    space, _, S = demo
    market = MarketModel.from_prices(space, S)
    with pytest.raises(ContractViolationError, match="^strategy has wrong number of components$"):
        check(np.zeros(shape), market)


def test_wealth_rejects_non_predictable(demo):
    space, _, S = demo
    market = MarketModel.from_prices(space, S)
    with pytest.raises(ContractViolationError):
        wealth(S, market)


def test_strategy_certificate(demo):
    from horizon_deflators import Strategy
    space, _, S = demo
    market = MarketModel.from_prices(space, S)
    good = Strategy.check(market, np.full((4, 3), 0.5))
    assert good.admissible
    assert np.allclose(wealth(good, market)[:, 1], [1.5, 1.5, 0.75, 0.75])
    assert not Strategy.check(market, np.full((4, 3), 2.5)).admissible
    assert not Strategy.check(market, S).admissible  # not predictable


# ------------------------------------------------------------------ verify_lmd

def test_lmd_martingale_price():
    space = FiniteFilteredSpace.from_partitions(
        ("u", "d"), (0.5, 0.5), [[0, 0], [0, 1]])
    S = np.array([[1.0, 1.5], [1.0, 0.5]])
    market = MarketModel.from_prices(space, S)
    assert verify_lmd(np.ones((2, 2)), market).ok


def test_lmd_binomial_density():
    market = binomial_market()
    q = (1 - 0.5) / (2 - 0.5)
    Z = np.array([[1.0, q / 0.5], [1.0, (1 - q) / 0.5]])
    rep = verify_lmd(Z, market)
    assert rep.ok and rep.max_residual <= 1e-15


def test_lmd_detects_drift():
    market = binomial_market()
    rep = verify_lmd(np.ones((2, 2)), market)
    assert not rep.ok
    assert abs(rep.max_residual - 0.25) <= 1e-15  # |E[dS]| = (1 - 0.5)/2


def test_lmd_names_the_block_after_a_dead_one():
    # the first time-1 block carries no mass; the drift sits in the second
    space = FiniteFilteredSpace.from_partitions(
        ("a", "b", "c", "d"), (0.25,) * 4, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]])
    S = np.array([[1.0, 1.0, 1.2], [1.0, 1.0, 0.8], [1.0, 1.0, 1.1], [1.0, 1.0, 1.2]])
    market = MarketModel.from_prices(space, S, measure=ProbabilityMeasure([0, 0, 0.5, 0.5]))
    rep = verify_lmd(np.ones((4, 3)), market)
    assert not rep.ok and rep.worst == (2, 1, "price[0]")


def test_lmd_names_the_node_where_Z_is_no_martingale():
    # Z is a martingale except on the second time-1 block; the prices are
    # flat, so the martingale residual is the worst and its node is named
    space = FiniteFilteredSpace.from_partitions(
        ("a", "b", "c", "d"), (0.25,) * 4, [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]])
    Z = np.ones((4, 3))
    Z[2:, 2] = [1.2, 1.0]
    rep = verify_lmd(Z, MarketModel.from_prices(space, np.ones((4, 3))))
    assert not rep.ok and rep.worst == (2, 1, "martingale")
    assert abs(rep.max_residual - 0.1) <= 1e-15


@pytest.mark.parametrize("n_assets", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracles_fail_closed_on_non_finite_Z(n_assets, bad):
    rng = np.random.default_rng(48)
    space = trees.random_space(rng, max_horizon=3, max_atoms=16)
    market, Z = trees.random_market(rng, space, n_assets=n_assets)
    assert verify_lmd(Z, market).ok and verify_deflator(Z, market).ok
    Z[0, -1] = bad
    for oracle in (verify_lmd, verify_deflator):
        rep = oracle(Z, market)
        assert not rep.ok and rep.max_residual == np.inf


@pytest.mark.parametrize("n_assets", [1, 2])
@pytest.mark.parametrize("scale", [1.0, 1e300])
def test_oracles_fail_closed_on_overflowing_sums(n_assets, scale):
    # prices move by 1e10 under a drift, so Z is no deflator at any scale; at
    # 1e300 the node sums overflow and inf - inf gives NaN, which must fail
    space = FiniteFilteredSpace.from_partitions(
        ("u", "m", "d"), (0.5, 0.25, 0.25), [[0, 0, 0], [0, 1, 2]])
    up, down = 1.0 + 1e10, 1.0 - 1e10
    S = np.array([[[1.0, up], [1.0, down], [1.0, 1.0]],
                  [[1.0, 1.0], [1.0, up], [1.0, down]]])[:n_assets]
    Z, market = np.full((3, 2), scale), MarketModel.from_prices(space, S)
    lmd, gen = verify_lmd(Z, market), verify_deflator(Z, market)
    assert not lmd.ok and lmd.worst == (1, 0, "price[0]")
    assert not gen.ok and gen.worst == (1, 0, "vertex" if scale == 1.0 else "non-finite")
    if scale > 1.0:
        assert lmd.max_residual == gen.max_residual == np.inf


# -------------------------------------------------------------- verify_deflator

def test_deflator_accepts_lmd():
    market = binomial_market()
    q = 1 / 3
    Z = np.array([[1.0, q / 0.5], [1.0, (1 - q) / 0.5]])
    assert verify_deflator(Z, market).ok


def test_deflator_rejects_upward_drift():
    space = FiniteFilteredSpace.from_partitions(
        ("u", "d"), (0.5, 0.5), [[0, 0], [0, 1]])
    S = np.array([[1.0, 2.0], [1.0, 1.2]])  # both moves up: free lunch
    market = MarketModel.from_prices(space, S)
    rep = verify_deflator(np.ones((2, 2)), market)
    assert not rep.ok and rep.worst[2] == "recession"


def test_deflator_constant_price(demo):
    space, _, _ = demo
    market = MarketModel.from_prices(space, np.ones((4, 3)))
    assert verify_deflator(np.ones((4, 3)), market).ok


def test_deflator_drifting_but_bounded():
    market = binomial_market()
    rep = verify_deflator(np.ones((2, 2)), market)
    assert not rep.ok  # strategies at the admissible endpoint beat Z = 1


def test_lmd_implies_deflator_random():
    rng = np.random.default_rng(40)
    for _ in range(25):
        space = trees.random_space(rng, max_horizon=4, max_atoms=32)
        market, Z = trees.random_market(rng, space)
        assert verify_lmd(Z, market).ok
        assert verify_deflator(Z, market).ok


def test_deflator_two_assets():
    rng = np.random.default_rng(41)
    for _ in range(10):
        space = trees.random_space(rng, max_horizon=3, max_atoms=24)
        market, Z = trees.random_market(rng, space, n_assets=2)
        assert verify_lmd(Z, market).ok
        assert verify_deflator(Z, market).ok


def test_deflator_binomial_drift_fails_at_root():
    market = binomial_market()
    rep = verify_deflator(np.ones((2, 2)), market)
    assert not rep.ok and rep.worst[0] == 1 and rep.worst[2] == "vertex"
    # the violating strategy sits at the admissible endpoint phi = 1/|d-move|
    assert abs(rep.max_residual - (0.5 * (2 + 2 * 1 - 2 * 0.5) - 1)) <= 1e-12


def test_deflator_parallel_increments_rank_deficient():
    # two assets moving in lockstep: the polytope is a slab, rank 1
    space = FiniteFilteredSpace.from_partitions(
        ("u", "d"), (0.5, 0.5), [[0, 0], [0, 1]])
    S = np.array([[[1.0, 1.5], [1.0, 0.5]], [[1.0, 2.0], [1.0, 0.0]]])
    market = MarketModel.from_prices(space, S)
    assert verify_lmd(np.ones((2, 2)), market).ok  # both assets driftless
    assert verify_deflator(np.ones((2, 2)), market).ok
    # tilt one asset: a free-lunch direction appears inside the slab
    S2 = np.array([[[1.0, 1.6], [1.0, 0.5]], [[1.0, 2.0], [1.0, 0.0]]])
    market2 = MarketModel.from_prices(space, S2)
    assert not verify_deflator(np.ones((2, 2)), market2).ok


def test_deflator_zero_increment_asset():
    # a flat asset contributes a zero row: any position in it is admissible
    space = FiniteFilteredSpace.from_partitions(
        ("u", "d"), (0.5, 0.5), [[0, 0], [0, 1]])
    S = np.array([[[1.0, 1.5], [1.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]]])
    market = MarketModel.from_prices(space, S)
    assert verify_deflator(np.ones((2, 2)), market).ok


def test_deflator_three_assets():
    rng = np.random.default_rng(46)
    for _ in range(6):
        space = trees.random_space(rng, max_horizon=3, max_atoms=20)
        market, Z = trees.random_market(rng, space, n_assets=3)
        assert verify_lmd(Z, market).ok
        assert verify_deflator(Z, market).ok
    # tilt one asset upward everywhere: the oracle must notice
    space = trees.random_space(rng, max_horizon=3, max_atoms=20)
    market, Z = trees.random_market(rng, space, n_assets=3)
    S = market.S.copy()
    S[0, :, 1:] += 0.3 * np.arange(1, space.horizon + 1)
    tilted = MarketModel.from_prices(space, S)
    assert not verify_deflator(Z, tilted).ok


def test_node_sup_matches_grid_search():
    # the vertex/interval optimum dominates dense sampling of the polytope
    from horizon_deflators.market import _interval_nodes, _vertex_sup
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        rows1 = rng.uniform(-1.5, 1.5, size=n)
        rows1 = rows1[np.abs(rows1) > 1e-9]
        if len(rows1) == 0 or not (rows1 > 0).any() or not (rows1 < 0).any():
            continue  # unbounded interval: covered by the recession path
        v = float(rng.normal())
        lo, hi = -1.0 / rows1.max(), -1.0 / rows1.min()
        grid = np.linspace(lo, hi, 2001)
        best = float(np.max(v * grid))
        exact = float(_interval_nodes(np.array([v]), rows1.min(keepdims=True),
                                      rows1.max(keepdims=True))[1][0])
        assert exact >= best - 1e-9
        assert exact <= best + 1e-6 * (1 + abs(best))
    kept = 0
    for _ in range(200):
        n = int(rng.integers(3, 8))
        rows = rng.uniform(-1.0, 1.0, size=(n, 2))
        v = rng.normal(size=2)
        # exact boundedness: a recession ray exists iff the half-plane arcs
        # {angle(r, row_i) <= pi/2} intersect; the intersection boundary is a
        # candidate angle ang(row_i) +/- pi/2
        angs = np.arctan2(rows[:, 1], rows[:, 0])
        cands = np.concatenate([angs + np.pi / 2, angs - np.pi / 2])
        dirs = np.stack([np.cos(cands), np.sin(cands)], axis=1)
        if np.any((rows @ dirs.T >= -1e-12).all(axis=0)):
            continue  # unbounded: that case belongs to the recession LP
        kept += 1
        exact = float(_vertex_sup(v[None], rows[None], 1e-14)[0])
        samples = rng.uniform(-40, 40, size=(40000, 2))
        feasible = samples[(samples @ rows.T >= -1.0).all(axis=1)]
        if len(feasible) == 0:
            continue
        best = float(np.max(feasible @ v))
        assert exact >= best - 1e-9
    assert kept > 30


def test_deflator_rejects_dimension_above_three(demo):
    space, _, _ = demo
    S = np.ones((4, 4, 3))
    market = MarketModel.from_prices(space, S)
    with pytest.raises(UnsupportedDimensionError):
        verify_deflator(np.ones((4, 3)), market)


def test_deflator_invariant_under_positive_scaling():
    # rescaling the increment coordinates by a positive predictable factor
    # re-parametrizes the strategy polytope without changing the verdict
    rng = np.random.default_rng(42)
    for _ in range(10):
        space = trees.random_space(rng, max_horizon=4, max_atoms=24)
        market, Z = trees.random_market(rng, space)
        scale = trees.random_predictable_nondecreasing(rng, space, max_step=0.5) + 0.5
        S2 = np.empty_like(market.S[0])
        S2[:, 0] = market.S[0][:, 0]
        dS = np.diff(market.S[0], axis=1)
        S2[:, 1:] = S2[:, :1] + np.cumsum(scale[:, 1:] * dS, axis=1)
        market2 = MarketModel.from_prices(space, S2)
        assert verify_deflator(Z, market2).ok == verify_deflator(Z, market).ok


def test_stopped_market_deflator(demo, demo_rts):
    space, tau, S = demo
    market = MarketModel.from_prices(space, S)
    stopped = market.stopped(tau, demo_rts.G_filtration)
    assert np.allclose(stopped.S[0][:, 2], [4.0, 2.0, 1.0, 1.0])


# ---------------------------------------------------------------- lift_strategy

def test_lift_identity_for_public_strategy(demo_rts):
    rng = np.random.default_rng(43)
    space = demo_rts.space
    phi = trees.random_predictable_nondecreasing(rng, space)
    lifted = lift_strategy(phi, demo_rts)
    live = demo_rts.tau[:, None] >= np.arange(space.horizon + 1)[None, :]
    assert np.max(np.abs((lifted - phi) * live)[:, 1:]) == 0.0


def test_lift_demo(demo_rts):
    phi_G = np.zeros((4, 3))
    phi_G[:3, 1] = 0.7  # constant on the surviving date-0 cell
    phi_G[3, 1] = -0.2
    lifted = lift_strategy(phi_G, demo_rts)
    assert np.allclose(lifted[:, 1], 0.7)


def test_lift_rejects_non_predictable(demo_rts):
    phi_G = np.zeros((4, 3))
    phi_G[0, 1] = 1.0  # differs across the surviving date-0 cell
    with pytest.raises(ContractViolationError):
        lift_strategy(phi_G, demo_rts)


def test_lift_rejects_nan(demo_rts):
    phi_G = np.zeros((4, 3))
    phi_G[1, 2] = np.nan
    with pytest.raises(ContractViolationError):
        lift_strategy(phi_G, demo_rts)
    with pytest.raises(ContractViolationError):
        lift_strategy(phi_G, demo_rts, tol=np.inf)


def test_lift_preserves_stopped_wealth_and_admissibility():
    rng = np.random.default_rng(44)
    for _ in range(20):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        market, _ = trees.random_market(rng, space)
        stopped = market.stopped(tau, rts.G_filtration)
        # an enlarged-predictable strategy, scaled into admissibility
        phi_G = np.zeros((space.n_atoms, space.horizon + 1))
        for k in range(1, space.horizon + 1):
            for atoms in trees.blocks(rts.G_filtration, k - 1):
                phi_G[atoms, k] = rng.uniform(-0.45, 0.45)
        dS = np.diff(stopped.S[0], axis=1)
        floor = np.min(phi_G[:, 1:] * dS)
        if floor <= -1.0:
            phi_G *= 0.9 / abs(floor)
        w_g = wealth(phi_G, stopped)
        phi_F = lift_strategy(phi_G, rts)
        assert space.filtration.is_predictable(phi_F, tol=0.0)
        w_f = wealth(phi_F, market)
        assert np.max(np.abs(stop(w_f, tau) - w_g)) <= 1e-12
        assert np.min(1.0 + np.diff(w_f, axis=1) / w_f[:, :-1]) > 0.0


def test_verified_deflator_for_stopped_market():
    rng = np.random.default_rng(45)
    for _ in range(20):
        space = trees.random_space(rng, max_horizon=4, max_atoms=32)
        tau = trees.regular_tau(rng, space)
        rts = build_survival(space, tau)
        market, Z_lmd = trees.random_market(rng, space)
        V = trees.random_predictable_nondecreasing(rng, space, max_step=0.2)
        Z_F = Z_lmd * stochastic_exponential(-V)
        phi_o = trees.random_optional_integrand(rng, rts)
        d = build_multiplicative(Z_F, phi_o, None, rts)
        stopped = market.stopped(tau, rts.G_filtration)
        assert verify_deflator(d.Z, stopped).ok
