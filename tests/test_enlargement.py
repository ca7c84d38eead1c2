"""Survival structure, enlarged filtration, transports, and the density change."""

from dataclasses import replace

import numpy as np
import pytest

from horizon_deflators import (
    TOL_EXACT,
    ContractViolationError,
    SpaceValidationError,
    StructuralError,
    build_survival,
    classify,
    compensated_default_indicator,
    density_change,
    enlarge,
    stochastic_exponential,
    stochastic_integral,
    stop,
    transport,
    transport_compensated,
)
from horizon_deflators import enlargement as enl
from horizon_deflators.enlargement import survival_exponential_integrand
from horizon_deflators.prob_core import FiniteFilteredSpace, dual_projection, increments, project

import oracle
import trees
from conftest import frac_table


def test_demo_survival_tables(demo_rts):
    assert np.allclose(demo_rts.G, frac_table([["3/4", "1/2", "0"]] * 4))
    expected_gt = frac_table([
        ["1", "1", "1"], ["1", "1", "0"], ["1", "1/2", "1"], ["1", "1/2", "0"]])
    assert np.allclose(demo_rts.G_tilde, expected_gt)
    expected_m = frac_table([
        ["1", "5/4", "7/4"], ["1", "5/4", "3/4"],
        ["1", "3/4", "5/4"], ["1", "3/4", "1/4"]])
    assert np.allclose(demo_rts.m, expected_m)
    assert np.allclose(demo_rts.G_minus[:, 0], 1.0)
    # positivity report: survival vanishes only at the terminal date here
    assert not demo_rts.g_zero_cells[:, :2].any()
    assert demo_rts.g_zero_cells[:, 2].all()


def test_demo_ng_and_zbar(demo_rts):
    dn1 = demo_rts.N_G[:, 1] - demo_rts.N_G[:, 0]
    assert np.allclose(dn1, [-0.5, 0.5, 0.0, 0.0])
    assert np.allclose(demo_rts.N_G[:, 2], demo_rts.N_G[:, 1])
    expected_zbar = frac_table([
        ["1", "4/3", "8/3"], ["1", "4/3", "0"],
        ["1", "2/3", "4/3"], ["1", "2/3", "0"]])
    assert np.allclose(demo_rts.Z_bar, expected_zbar)
    _, qtilde = density_change(demo_rts)
    assert np.allclose(qtilde.weights, [2 / 3, 0, 1 / 3, 0])


def test_deterministic_horizon(demo):
    space, _, _ = demo
    rts = build_survival(space, np.full(4, 2))
    assert np.allclose(rts.G[:, :2], 1.0) and np.allclose(rts.G[:, 2], 0.0)
    assert np.allclose(rts.m, 1.0)
    assert np.allclose(rts.D_opt[:, 2] - rts.D_opt[:, 1], 1.0)
    assert np.allclose(rts.N_G[:, 2], rts.N_G[:, 1])  # certain event, no surprise
    assert np.allclose(rts.Z_bar, 1.0)


def test_immediate_death(demo):
    space, _, _ = demo
    rts = build_survival(space, np.zeros(4, dtype=int))
    assert np.allclose(rts.D, 1.0)
    assert np.allclose(rts.G, 0.0)
    assert np.allclose(rts.m, 1.0)
    assert np.allclose(rts.N_G, 1.0)


def two_atom_model(p):
    """Atoms of probability p and 1 - p, split at date 1; the first dies at 1, the other at 0."""
    return FiniteFilteredSpace.from_partitions(["a", "b"], [p, 1.0 - p], [[0, 0], [0, 1]]), [1, 0]


def rare_branch_tree(T=3, p=1e-5):
    """A binary tree whose every step is rare (bit 1) with probability p; tau is
    the index of the first common step, T if there is none, so each death is
    seen one date late."""
    bits = (np.arange(2 ** T)[:, None] >> np.arange(T - 1, -1, -1)) & 1
    probs = np.prod(np.where(bits == 1, p, 1.0 - p), axis=1)
    tau = np.where(bits.all(axis=1), T, np.argmin(bits, axis=1))
    partitions = [np.arange(2 ** T) >> (T - n) for n in range(T + 1)]
    space = FiniteFilteredSpace.from_partitions([f"w{i}" for i in range(2 ** T)],
                                                probs / probs.sum(), partitions)
    return space, tau


@pytest.mark.parametrize("p", [1e-8, 1e-16, 1e-17, 1e-300])
def test_two_atom_model_verifies_at_every_probability(p):
    # the levels D_opt_0 = 1 - p and m_0 rounded to 1 and, differenced back,
    # lost p: the compensator and the Z_bar identity read 5e-9 at p = 1e-8
    # and 1.0 from p = 1e-17
    rts = build_survival(*two_atom_model(p), verify=True)
    assert max(enl.survival_residuals(rts).values()) <= 1e-15


def test_rare_branch_compensator_is_a_martingale_to_rounding():
    # it read 6.6e-12 when D_pred was differenced from its levels
    rts = build_survival(*rare_branch_tree(), verify=False)
    assert enl.survival_residuals(rts)["compensated_default_martingale"] <= 1e-15


def test_levels_are_one_cumulative_sum_of_the_increments():
    for rts, _ in _random_structures(23, 6):
        for level, inc in (("D", "dD"), ("D_opt", "dD_opt"), ("D_pred", "dD_pred"),
                           ("m", "dm"), ("N_G", "dN_G")):
            assert np.array_equal(getattr(rts, level), np.cumsum(getattr(rts, inc), axis=1))


def test_a_g_cell_off_by_1e9_relative_still_shows():
    # the guard for any later bound of the mass balance: one G cell of the
    # rare-branch tree (G = 1e-5) off by 1e-9 relative moves the residual to
    # the full 1e-14, twenty times and more its rounding on the true tree
    rts = build_survival(*rare_branch_tree(), verify=False)
    good = enl.survival_residuals(rts)["survival_mass_balance"]
    for atom, n in np.argwhere(rts.G > 0.0):
        G = rts.G.copy()
        G[atom, n] *= 1.0 + 1e-9
        bad = enl.survival_residuals(replace(rts, G=G))["survival_mass_balance"]
        assert bad >= 0.9e-9 * rts.G[atom, n] and bad >= 20 * good


def test_tau_out_of_range(demo):
    space, _, _ = demo
    with pytest.raises(SpaceValidationError):
        build_survival(space, np.array([0, 1, 2, 3]))
    with pytest.raises(SpaceValidationError):
        build_survival(space, np.array([0, 1, 2, -1]))


def test_survival_matches_enumeration_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40, dyadic=True)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        ref = oracle.survival(space.probs, space.filtration.block_ids.tolist(),
                              tau.tolist())
        for name, got in (("G", rts.G), ("Gt", rts.G_tilde), ("Dopt", rts.D_opt),
                          ("Dpred", rts.D_pred), ("m", rts.m), ("NG", rts.N_G),
                          ("Zbar", rts.Z_bar)):
            want = np.array([[float(v) for v in row] for row in ref[name]])
            assert np.max(np.abs(got - want)) <= 1e-12, name


def test_enlarged_blocks_demo(demo, demo_rts):
    space, tau, _ = demo
    blocks0 = [sorted(b.tolist()) for b in trees.blocks(demo_rts.G_filtration, 0)]
    assert sorted(blocks0) == [[0, 1, 2], [3]]
    blocks1 = [sorted(b.tolist()) for b in trees.blocks(demo_rts.G_filtration, 1)]
    assert sorted(blocks1) == [[0], [1], [2], [3]]
    ref = oracle.enlarged_blocks(space.filtration.block_ids.tolist(), tau.tolist(), 0)
    assert sorted(sorted(b) for b in ref) == sorted(blocks0)


def test_enlargement_of_stopping_time_is_trivial():
    rng = np.random.default_rng(11)
    space = trees.random_space(rng, max_horizon=4, max_atoms=24)
    # cell-level death: the first time the time-1 block id is even, say
    tau = np.zeros(space.n_atoms, dtype=int)
    for i in range(space.n_atoms):
        tau[i] = 1 if space.filtration.block_ids[1][i] % 2 == 0 else space.horizon
    filt = enlarge(space, tau)
    assert np.array_equal(filt.block_ids, space.filtration.block_ids)


def test_enlargement_terminal_discrete(demo):
    space, tau, _ = demo
    filt = enlarge(space, tau)
    assert len(trees.blocks(filt, 2)) == 4


def test_adapted_stays_adapted(demo, demo_rts):
    space, _, S = demo
    assert demo_rts.G_filtration.is_adapted(S)


# ------------------------------------------------------------------ transports

def test_transport_constant(demo_rts):
    M = np.full((4, 3), 2.0)
    out = transport(M, demo_rts)
    assert np.array_equal(out, M)


def test_transport_demo_m(demo_rts):
    out = transport(demo_rts.m, demo_rts)
    assert np.allclose(out[:, 1] - out[:, 0], [3 / 16, 3 / 16, -3 / 8, 0.0])
    assert np.allclose(out[:, 2], out[:, 1])  # the dead-cell mass is recycled
    rep = classify(demo_rts.space, out, filtration=demo_rts.G_filtration)
    assert rep.is_martingale


def test_transport_rejects_non_martingale(demo_rts):
    X = np.tile(np.array([0.0, 1.0, 2.0]), (4, 1))
    with pytest.raises(ContractViolationError):
        transport(X, demo_rts)


def test_transport_is_stopping_with_unit_ratio(demo):
    # deterministic horizon: survival ratios are 1, transport = the process itself
    space, _, _ = demo
    rng = np.random.default_rng(12)
    rts = build_survival(space, np.full(4, 2))
    M = trees.random_martingale(rng, space)
    assert np.allclose(transport(M, rts), M, atol=1e-14)


def test_transport_compensated_demo(demo_rts):
    out = transport_compensated(demo_rts.m, demo_rts)
    dm1 = demo_rts.m[:, 1] - demo_rts.m[:, 0]
    expected = np.where(demo_rts.tau >= 1, dm1 - (1 / 0.75) * (1 / 16), 0.0)
    assert np.allclose(out[:, 1] - out[:, 0], expected)
    assert classify(demo_rts.space, out, filtration=demo_rts.G_filtration).is_martingale


def test_transports_flat_for_immediate_death(demo):
    space, _, _ = demo
    rts = build_survival(space, np.zeros(4, dtype=int))
    M = trees.random_martingale(np.random.default_rng(13), space)
    assert np.allclose(np.diff(transport(M, rts), axis=1), 0.0)
    assert np.allclose(np.diff(transport_compensated(M, rts), axis=1), 0.0)


def test_predictable_numerator_variant_differs(demo, demo_rts):
    # compensating D with the one-step-ahead hazard instead of the realized
    # one is not a martingale of the enlarged filtration on this tree
    space, tau, _ = demo
    variant = np.zeros_like(demo_rts.N_G)
    variant[:, 0] = demo_rts.D[:, 0]
    dD = np.diff(demo_rts.D, axis=1)
    dDp = np.diff(demo_rts.D_pred, axis=1)
    for k in (1, 2):
        live = tau >= k
        gt = demo_rts.G_tilde[:, k]
        ratio = np.divide(dDp[:, k - 1], gt, out=np.zeros(4), where=gt > 0)
        inc = np.where(live, dD[:, k - 1] - ratio, 0.0)
        variant[:, k] = variant[:, k - 1] + inc
    gap = np.max(np.abs(variant - demo_rts.N_G))
    assert gap > 0.2
    rep = classify(space, variant, filtration=demo_rts.G_filtration)
    assert not rep.is_martingale and rep.max_residual > 0.2


def test_zbar_single_period_trivial_information():
    space = FiniteFilteredSpace.from_partitions(
        ("a", "b"), (0.7, 0.3), [[0, 0], [0, 0]])
    rts = build_survival(space, np.array([1, 0]))
    assert np.allclose(rts.Z_bar, 1.0)


def test_zbar_is_exponential_of_survival_integrand(demo_rts):
    integrand = survival_exponential_integrand(demo_rts)
    alt = stochastic_exponential(stochastic_integral(integrand, demo_rts.m))
    assert np.max(np.abs(alt - demo_rts.Z_bar)) <= 1e-14


def test_randomized_transform_martingality():
    rng = np.random.default_rng(14)
    for _ in range(30):
        space = trees.random_space(rng, max_horizon=5, max_atoms=48)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        M = trees.random_martingale(rng, space)
        gf = rts.G_filtration
        for X, filt in ((transport(M, rts, check=False), gf),
                        (transport_compensated(M, rts, check=False), gf),
                        (compensated_default_indicator(rts), gf),
                        (rts.N_G, gf), (rts.m, None), (rts.Z_bar, None)):
            rep = classify(space, X, filtration=filt)
            assert rep.max_residual <= 1e-10
        # increment identity and stopping
        dm = np.diff(rts.m, axis=1)
        ident = dm - (rts.G_tilde[:, 1:] - rts.G_minus[:, 1:])
        assert np.max(np.abs(ident)) <= 1e-12
        for X in (transport(M, rts, check=False), rts.N_G,
                  compensated_default_indicator(rts)):
            assert np.max(np.abs(stop(X, rts.tau) - X)) == 0.0


def test_stopped_compensator_identity():
    # the enlarged compensator of a stopped public finite-variation process
    rng = np.random.default_rng(15)
    for _ in range(15):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        # adapted nondecreasing V with V_0 = 0: increments constant per cell
        V = np.zeros((space.n_atoms, space.horizon + 1))
        for k in range(1, space.horizon + 1):
            col = np.zeros(space.n_atoms)
            for atoms in trees.blocks(space.filtration, k):
                col[atoms] = rng.uniform(0, 1)
            V[:, k] = V[:, k - 1] + col
        lhs = dual_projection(space, stop(V, tau), "predictable",
                              filtration=rts.G_filtration)
        weighted = np.zeros_like(V)
        weighted[:, 1:] = np.cumsum(rts.G_tilde[:, 1:] * np.diff(V, axis=1), axis=1)
        comp = dual_projection(space, weighted, "predictable")
        gm = rts.G_minus
        live = (rts.tau[:, None] >= np.arange(V.shape[1])[None, :])
        rhs = np.zeros_like(V)
        inc = np.zeros_like(np.diff(V, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(gm[:, 1:] > 0, 1.0 / gm[:, 1:], 0.0)
        inc = live[:, 1:] * ratio * np.diff(comp, axis=1)
        rhs[:, 1:] = np.cumsum(inc, axis=1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_regular_sampler_is_regular_and_nontrivial():
    rng = np.random.default_rng(16)
    nontrivial = 0
    for _ in range(40):
        space = trees.random_space(rng, max_horizon=5, max_atoms=48)
        tau = trees.regular_tau(rng, space)
        assert trees.is_regular(space, tau)
        rts = build_survival(space, tau)
        assert not rts.irregular_cells.any()
        inner = rts.G_tilde[(rts.G_tilde > 1e-12) & (rts.G_tilde < 1 - 1e-12)]
        nontrivial += int(inner.size > 0)
    assert nontrivial > 20  # most draws carry genuinely partial information


def test_single_atom_space():
    space = FiniteFilteredSpace.from_partitions(("only",), (1.0,), [[0], [0]])
    for t in (0, 1):
        rts = build_survival(space, np.array([t]))
        assert np.allclose(rts.m, 1.0)
        assert classify(space, rts.N_G, filtration=rts.G_filtration).is_martingale


def test_heavy_randomized_stress():
    rng = np.random.default_rng(99)
    for _ in range(60):
        space = trees.random_space(rng, max_horizon=6, max_atoms=64)
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        M = trees.random_martingale(rng, space)
        out = transport(M, rts, check=False)
        rep = classify(space, out, filtration=rts.G_filtration)
        assert rep.max_residual <= 1e-10
        assert np.isfinite(out).all()


def test_irregular_cells_flag(demo_rts):
    cells = demo_rts.irregular_cells
    assert cells[1, 2] and cells[3, 2]  # the two atoms dead before date 2
    assert not cells[0].any() and not cells[2].any()


# ------------------------------------------- invariant registry and compensator

def test_registry_failure_names_invariant_residual_and_tolerance(demo, monkeypatch):
    space, tau, _ = demo
    monkeypatch.setitem(enl.SURVIVAL_INVARIANTS, "ng_stopped", lambda rts: 1.0)
    with pytest.raises(SpaceValidationError,
                       match=r"ng_stopped fails: residual 1 exceeds tolerance 1e-12"):
        build_survival(space, tau)
    build_survival(space, tau, verify=False)  # the registry runs only on request


def test_registry_reads_nan_as_inf(demo_rts):
    G = demo_rts.G.copy()
    G[1, 1] = np.nan
    residuals = enl.survival_residuals(replace(demo_rts, G=G))
    assert residuals["gtilde_dominates"] == np.inf
    assert all(np.isfinite(v) for v in enl.survival_residuals(demo_rts).values())


def _random_structures(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        space = trees.random_space(rng, max_horizon=6, max_atoms=48)
        tau = trees.regular_tau(rng, space) if i % 2 else trees.random_tau(rng, space)
        yield build_survival(space, tau), trees.random_martingale(rng, space)


def test_survival_layer_matches_date_loops():
    irregular = 0
    for rts, M in _random_structures(17, 30):
        space, tau = rts.space, rts.tau
        irregular += int(rts.irregular_cells.any())
        N_G, Z_bar = oracle.survival_loops(rts.dD, rts.dD_opt, rts.G, rts.G_tilde, tau)
        assert np.array_equal(rts.Z_bar, Z_bar)
        assert np.max(np.abs(rts.N_G - N_G)) <= TOL_EXACT
        want = oracle.transport_loop(M, tau, rts.G_minus, rts.G_tilde,
                                     space.filtration.block_ids, space.probs)
        assert np.array_equal(transport(M, rts, check=False), want)
        dM = increments(M)
        angle = project(space, dM * rts.dm, "predictable")  # the increments of <M, m>
        assert np.array_equal(transport_compensated(M, rts, check=False),
                              oracle.compensate_loop(dM, angle, rts.G_minus, tau))
        assert np.array_equal(compensated_default_indicator(rts),
                              oracle.compensate_loop(rts.dD, rts.dD_pred, rts.G_minus, tau))
    assert irregular > 0  # the dead-cell correction was exercised


def test_vanishing_g_minus_raises_where_the_date_loop_does():
    rng = np.random.default_rng(18)
    for rts, M in _random_structures(19, 20):
        live = np.argwhere(rts.tau[:, None] >= np.arange(1, rts.horizon + 1)[None, :])
        if len(live) == 0:
            continue
        gm = rts.G_minus.copy()
        for atom, k in live[rng.choice(len(live), size=min(3, len(live)), replace=False)]:
            gm[atom, k + 1] = 0.0
        bad = replace(rts, G_minus=gm)
        with pytest.raises(ValueError) as ref:
            oracle.compensate_loop(rts.dD, rts.dD_pred, gm, rts.tau)
        for build in (lambda: compensated_default_indicator(bad),
                      lambda: transport_compensated(M, bad, check=False)):
            with pytest.raises(StructuralError) as got:
                build()
            assert (got.value.time, got.value.atom) == ref.value.args
