"""The vectorized partition kernel against the per-block loops it replaced.

Each test draws random trees and compares the package with a reference scan
kept in ``oracle.py``: the CSR ``Filtration`` against first-appearance
relabelling and per-block scans, the closed-form one-asset and the batched
two- and three-asset deflator oracles against the per-node LP scan, the
segment-reduced two-term decomposition
against its block-pair loop, and the chunked CSV writer against the per-cell
writer.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracle
from horizon_deflators import (
    ContractViolationError,
    Filtration,
    MarketModel,
    ProbabilityMeasure,
    SpaceValidationError,
    build_survival,
    decompose_martingale,
    modelio,
    stop,
    transport,
    trees,
    verify_deflator,
)
from horizon_deflators import market as market_mod
from horizon_deflators.market import _CHUNK_ELEMENTS, _vertex_max


def _full_tree(branching, horizon):
    atoms = np.arange(branching ** horizon)
    return np.stack([atoms // branching ** (horizon - n) for n in range(horizon + 1)])


def _scrambled(rng, ids):
    """Shuffle the atoms and give every level arbitrary (negative, sparse) labels."""
    ids = ids[:, rng.permutation(ids.shape[1])]
    out = np.empty_like(ids)
    for n, row in enumerate(ids):
        labels = rng.choice(10 * (row.max() + 1), size=row.max() + 1, replace=False) - 7
        out[n] = labels[row]
    return out


def _raw_partitions(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        ids = _full_tree(2, int(rng.integers(1, 7)))
    elif kind == 1:
        ids = _full_tree(4, int(rng.integers(1, 4)))
    else:
        ids = trees.random_space(rng, max_horizon=6, max_atoms=48).filtration.block_ids
    return _scrambled(rng, ids)


def test_filtration_csr_matches_per_block_reference():
    rng = np.random.default_rng(101)
    broken = 0
    for case in range(150):
        raw = _raw_partitions(rng)
        if case % 2 and raw.shape[0] > 1:
            # move one atom to another label at one level; may break refinement
            n = int(rng.integers(1, raw.shape[0]))
            raw = raw.copy()
            raw[n, rng.integers(0, raw.shape[1])] = rng.choice(raw[n])
        ids, blocks, error = oracle.naive_filtration(raw)
        if error is not None:
            broken += 1
            with pytest.raises(SpaceValidationError) as exc:
                Filtration(raw)
            assert str(exc.value) == error
            continue
        filt = Filtration(raw)
        assert filt.block_ids.dtype == np.int64
        assert np.array_equal(filt.block_ids, ids)
        for n in range(filt.n_times):
            got = filt.blocks(n)
            assert len(got) == len(blocks[n])
            assert all(np.array_equal(a, b) for a, b in zip(got, blocks[n]))
            if n:
                assert np.array_equal(filt.parent[n], [ids[n - 1][b[0]] for b in blocks[n]])
    assert broken > 10


def test_segment_reduce_conventions():
    filt = Filtration([[0, 0, 0, 0], [5, 3, 5, 3]])
    x = np.array([1.0, -2.0, 4.0, np.nan])
    assert np.array_equal(filt.segment_reduce(1, x[:3].tolist() + [0.0]), [5.0, -2.0])
    assert np.isnan(filt.segment_reduce(1, x, np.maximum)[1])
    assert filt.is_adapted(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [1.0, 3.0]]))
    assert not filt.is_adapted(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [1.0, 2.5]]))
    value, found = filt.first_where(1, np.array([7.0, 8.0, 9.0, 10.0]),
                                    np.array([False, False, True, False]))
    assert np.array_equal(value, [9.0, 0.0]) and np.array_equal(found, [True, False])


def _one_asset_prices(rng, space):
    """Prices whose nodes are mixed, all-up, all-down or flat, chosen per node."""
    ids = space.filtration.block_ids
    S = np.ones((space.n_atoms, space.horizon + 1))
    for k in range(1, space.horizon + 1):
        _, first = np.unique(ids[k], return_index=True)
        kind = rng.integers(0, 4, size=ids[k - 1].max() + 1)[ids[k - 1][first]]
        inc = rng.uniform(-0.3, 0.3, size=len(first))
        inc = np.select([kind == 1, kind == 2, kind == 3], [np.abs(inc), -np.abs(inc), 0.0], inc)
        S[:, k] = S[:, k - 1] + inc[ids[k]]
    return S


def _reference_verdict(Z, market):
    if market.n_assets == 1:
        def sup(v, rows):
            return oracle.interval_sup(float(v[0]), rows[:, 0], 1e-14)
    else:
        def sup(v, rows):
            return oracle.vertex_sup(v, rows, 1e-14)
    return oracle.deflator_scan(np.asarray(Z, dtype=float), market.S,
                                market.filtration.block_ids, market.measure.weights, sup)


def _same_verdict(Z, market):
    got = verify_deflator(Z, market)
    ok, excess, worst = _reference_verdict(Z, market)
    assert (got.ok, got.worst) == (ok, worst)
    if np.isfinite(excess):
        assert abs(got.max_residual - excess) <= 1e-12 * max(1.0, abs(excess))
    else:
        assert got.max_residual == excess
    return ok


def test_one_asset_oracle_matches_per_node_reference():
    rng = np.random.default_rng(102)
    verdicts = set()
    for case in range(20):
        space = trees.random_space(rng, max_horizon=5, max_atoms=32)
        market, Z_lmd = trees.random_market(rng, space)
        verdicts.add(_same_verdict(Z_lmd, market))
        S = _one_asset_prices(rng, space)
        edge = MarketModel.from_prices(space, S)
        Z = trees.random_martingale(rng, space, positive=True)
        verdicts.add(_same_verdict(Z, edge))
        verdicts.add(_same_verdict(Z_lmd * (1.0 + 0.01 * rng.normal(size=Z.shape)), edge))
        # stopped market: flat nodes after tau, enlarged blocks
        tau = trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        verdicts.add(_same_verdict(stop(Z_lmd, tau), market.stopped(tau, rts.G_filtration)))
        verdicts.add(_same_verdict(Z, edge.stopped(tau, rts.G_filtration)))
        # zero-mass atoms leave dead nodes the scan must skip
        w = space.probs * (rng.random(space.n_atoms) < 0.7)
        if w.sum() > 0:
            measure = ProbabilityMeasure(w / w.sum())
            skewed = MarketModel.from_prices(space, S, measure=measure)
            verdicts.add(_same_verdict(Z, skewed))
            flat = MarketModel.from_prices(space, np.ones_like(S), measure=measure)
            verdicts.add(_same_verdict(Z * 0.9 ** np.arange(space.horizon + 1), flat))
    assert verdicts == {True, False}


def _node_market(incs):
    """Two dates, one time-1 node per entry of ``incs`` holding its atoms' increments."""
    atoms = sum([[b] * len(i) for b, i in enumerate(incs)], [])
    n = len(atoms)
    space = trees.FiniteFilteredSpace.from_partitions(
        [f"w{i}" for i in range(n)], np.full(n, 1.0 / n), [atoms, atoms, list(range(n))])
    S = np.ones((n, 3))
    S[:, 2] += sum(incs, [])
    return MarketModel.from_prices(space, S)


def test_one_asset_oracle_edge_nodes():
    # up and flat atoms, down and flat, flat only, a single atom, and
    # increments within 1e-14 of zero beside real ones; alone and together
    incs = [[0.2, 0.0], [-0.3, 0.0], [0.0, 0.0], [0.1], [0.2, -1e-15], [-0.2, 1e-15, 0.4]]
    for market in [_node_market([i]) for i in incs] + [_node_market(incs)]:
        n = market.space.n_atoms
        for z_scale in (1.0, 0.5, -0.5):
            Z = np.ones((n, 3))
            Z[:, 2] += z_scale * np.linspace(-0.2, 0.3, n)
            _same_verdict(Z, market)


def _collinear(rng, market):
    """The last asset moves as a fixed combination of the others: rank-deficient nodes."""
    S = market.S.copy()
    S[-1] = 1.0
    for c, comp in zip(rng.normal(size=len(S) - 1), S[:-1]):
        S[-1] += c * (comp - 1.0)  # elementwise, so equal atoms stay equal
    return MarketModel.from_prices(market.space, S)


def test_polytope_oracle_matches_per_node_reference():
    # 300 random two- and three-asset markets, each checked plain, tilted
    # (recession violations), with a perturbed Z, with collinear assets, and
    # stopped (flat nodes after tau, enlarged blocks)
    rng = np.random.default_rng(105)
    seen = set()
    for case in range(300):
        space = trees.random_space(rng, max_horizon=3, max_atoms=12)
        market, Z = trees.random_market(rng, space, n_assets=2 + case % 2)
        Z_bent = Z * (1.0 + 0.02 * rng.normal(size=Z.shape))
        kind = case % 5
        if kind == 0:
            checks = [(Z, market)]
        elif kind == 1:
            S = market.S.copy()
            S[int(rng.integers(0, len(S))), :, 1:] += rng.uniform(0.1, 0.4) * np.arange(
                1, space.horizon + 1)
            checks = [(Z, MarketModel.from_prices(space, S))]
        elif kind == 2:
            checks = [(Z_bent, market)]
        elif kind == 3:
            checks = [(Z, _collinear(rng, market)), (Z_bent, _collinear(rng, market))]
        else:
            tau = trees.random_tau(rng, space)
            stopped = market.stopped(tau, build_survival(space, tau).G_filtration)
            checks = [(stop(Z, tau), stopped), (stop(Z_bent, tau), stopped)]
        for Zc, mk in checks:
            got = verify_deflator(Zc, mk)
            _same_verdict(Zc, mk)
            seen.add((kind, got.ok, got.worst and got.worst[2]))
    assert {(0, True, None), (1, False, "recession"), (2, False, "vertex"),
            (3, True, None), (3, False, "vertex"), (4, True, None)} <= seen


def test_polytope_oracle_wide_node():
    # one node with 60 child blocks and three assets: both enumerations run
    # over more d-subsets than one chunk holds
    rng = np.random.default_rng(106)
    n = 60
    p = rng.uniform(0.2, 1.0, size=n)
    space = trees.FiniteFilteredSpace.from_partitions(
        [f"w{i}" for i in range(n)], p / p.sum(), [[0] * n, list(range(n))])
    market, Z = trees.random_market(rng, space, n_assets=3)
    assert math.comb(n, 3) * (n + 9) > _CHUNK_ELEMENTS
    assert _same_verdict(Z, market)
    assert not _same_verdict(Z * (1.0 + 0.05 * rng.normal(size=Z.shape)), market)


def test_polytope_oracle_mixed_widths():
    # one date whose nodes have 1, 2, 3, 7 and 40 child blocks, several of
    # each: every width is its own group and the verdicts match node by node
    rng = np.random.default_rng(107)
    widths = [1, 2, 2, 3, 7, 2, 40, 1, 3, 3, 7, 2]
    n = sum(widths)
    p = rng.uniform(0.2, 1.0, size=n)
    space = trees.FiniteFilteredSpace.from_partitions(
        [f"w{i}" for i in range(n)], p / p.sum(),
        [[0] * n, sum([[b] * c for b, c in enumerate(widths)], []), list(range(n))])
    for d in (2, 3):
        market, Z = trees.random_market(rng, space, n_assets=d)
        assert _same_verdict(Z, market)
        assert not _same_verdict(Z * (1.0 + 0.05 * rng.normal(size=Z.shape)), market)
        assert _same_verdict(Z, _collinear(rng, market))


def test_vertex_max_draws_subsets_lazily(monkeypatch):
    # 120 rows in three dimensions have C(120, 3) = 280,840 subsets, whose
    # index array alone takes 6.7 MB; with a 2^14-number chunk budget the
    # whole enumeration must stay far below that, and give the same maximum
    rng = np.random.default_rng(108)
    A = rng.normal(size=(1, 120, 3))
    v = rng.normal(size=(1, 3))
    full = _vertex_max(v, A, -np.ones(120))
    monkeypatch.setattr(market_mod, "_CHUNK_ELEMENTS", 1 << 14)
    tracemalloc.start()
    try:
        chunked = _vertex_max(v, A, -np.ones(120))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, full)
    assert peak < math.comb(120, 3) * 3 * 8 / 4


def _stopped_martingales(rng, rts):
    space = rts.space
    M = trees.random_martingale(rng, space)
    yield transport(M, rts, check=False)
    yield transport(M, rts, check=False) + 0.3 * rts.N_G
    yield np.full((space.n_atoms, space.horizon + 1), 2.5)


def _decompose_reference(MG, rts):
    return oracle.decompose_cells(
        stop(MG, rts.tau), rts.space.probs, rts.space.filtration.block_ids, rts.tau,
        rts.G, rts.G_tilde, rts.G_minus, rts.D_opt)


def _break_cell(rng, MG, rts, k):
    """Spread one surviving sub-cell's increment at date k, keeping its weighted mean."""
    space = rts.space
    ids = space.filtration.block_ids[k]
    for c in rng.permutation(ids.max() + 1):
        part = np.flatnonzero((ids == c) & (rts.tau > k))
        if len(part) >= 2 and rts.G_minus[part[0], k] > 0:
            eps = rng.normal(size=len(part))
            eps -= (space.probs[part] @ eps) / space.probs[part].sum()
            out = MG.copy()
            out[part, k:] += 1e-3 * eps[:, None]
            return out
    return MG


def test_decompose_matches_per_cell_reference():
    rng = np.random.default_rng(103)
    rejected = 0
    for case in range(40):
        space = trees.random_space(rng, max_horizon=5, max_atoms=40)
        tau = trees.regular_tau(rng, space) if case % 2 else trees.random_tau(rng, space)
        rts = build_survival(space, tau)
        for MG in _stopped_martingales(rng, rts):
            M_F, phi, known = _decompose_reference(MG, rts)
            repn = decompose_martingale(MG, rts)
            assert np.array_equal(repn.phi_known, known)
            assert np.max(np.abs(repn.M_F - M_F)) <= 1e-12 * max(1.0, np.max(np.abs(M_F)))
            assert np.max(np.abs(repn.phi - phi)) <= 1e-12 * max(1.0, np.max(np.abs(phi)))
            k = int(rng.integers(1, space.horizon + 1))
            broken = _break_cell(rng, _break_cell(rng, MG, rts, k), rts, k)
            try:
                _decompose_reference(broken, rts)
            except ValueError as exc:
                rejected += 1
                with pytest.raises(ContractViolationError) as got:
                    decompose_martingale(broken, rts)
                assert str(got.value).endswith(str(exc))
    assert rejected > 10


def test_process_to_csv_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(104)
    X = rng.normal(size=(4500, 3)) * 10.0 ** rng.integers(-300, 300, size=(4500, 3))
    X[:20] = [[np.nan, np.inf, -np.inf], [-0.0, 0.0, 5e-324]] * 10
    X[3000] = [-0.0, 1e308, -1.0 / 3.0]
    # adapted: one value per (block, date), each block's atoms scattered over
    # the table, and one block running across the chunk boundary at 2048
    blocks = rng.integers(0, 40, size=(4500, 6))
    adapted = rng.normal(size=(40, 6))[blocks, np.arange(6)]
    adapted[2040:2060, 3] = 0.1
    # -0.0 and 0.0, NaNs of three bit patterns, infinities and subnormals,
    # each repeated on atoms that are not adjacent
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    special = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0 / 3.0], nans])
    mixed = special[rng.integers(0, len(special), size=(4500, 4))]
    names = [f"w{i}" for i in range(len(X))]
    for rows in (X, X[20:], X[:0], adapted, mixed, mixed[:2048], mixed[:2049]):
        modelio.process_to_csv(tmp_path / "got.csv", names[:len(rows)], rows)
        oracle.write_cells(tmp_path / "ref.csv", names[:len(rows)], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
