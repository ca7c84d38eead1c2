"""The vectorized partition kernel against the per-block loops it replaced.

Each test draws random trees and compares the package with a reference scan
kept in ``oracle.py``: the ``Filtration`` and its node reductions against
first-appearance relabelling and per-block scans, the closed-form one-asset
and the batched two- and three-asset deflator oracles against the per-node
LP scan, the segment-reduced two-term decomposition against its block-pair
loop, the chunked CSV writer against the per-cell writer, and the one-pass CSV
reader against its row loop.
"""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracle
import trees
from horizon_deflators import (
    TOL_EXACT,
    ContractViolationError,
    DegenerateConditioningError,
    FiniteFilteredSpace,
    Filtration,
    MarketModel,
    ProbabilityMeasure,
    SpaceValidationError,
    build_survival,
    classify,
    decompose_martingale,
    doob_decomposition,
    dual_projection,
    multiplicative_decomposition,
    project,
    modelio,
    stop,
    transport,
    verify_deflator,
)
from horizon_deflators import market as market_mod
from horizon_deflators.market import _CHUNK_ELEMENTS, _polytope_nodes, _vertex_max
from horizon_deflators.prob_core import increments


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
            assert np.array_equal(filt.nodes[n], ids[n] + filt.offsets[n])
            assert filt.offsets[n + 1] - filt.offsets[n] == len(blocks[n])
            if n:
                assert np.array_equal(filt.parent[n], [ids[n - 1][b[0]] for b in blocks[n]])
        date, first = filt.node_atoms()
        assert np.array_equal(date, [n for n in range(filt.n_times) for _ in blocks[n]])
        assert np.array_equal(first, [b[0] for level in blocks for b in level])
    assert broken > 10


def test_node_reduce_conventions_at_one_date():
    filt = Filtration([[0, 0, 0, 0], [5, 3, 5, 3]])
    x = np.array([1.0, -2.0, 4.0, np.nan])
    assert np.array_equal(filt.node_reduce(np.asarray(x[:3].tolist() + [0.0])[None], np.add, 1),
                          [5.0, -2.0])
    assert np.isnan(filt.node_reduce(np.asarray(x)[None], np.maximum, 1)[1])
    assert filt.is_adapted(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [1.0, 3.0]]))
    assert not filt.is_adapted(np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 2.0], [1.0, 2.5]]))
    value, found = filt.first_where(1, np.array([7.0, 8.0, 9.0, 10.0]),
                                    np.array([False, False, True, False]))
    assert np.array_equal(value, [9.0, 0.0]) and np.array_equal(found, [True, False])


def _per_date_cond(x, ids, w):
    """E[x | ids] by one bincount pair on one date, 0 on zero-mass blocks.

    Returns the conditioned vector, the per-block masses and the zero-mass
    blocks; this is the date-by-date computation the space-time index
    replaced, so the index must reproduce it bit for bit.
    """
    mass = np.bincount(ids, weights=w)
    live = mass[ids] > 0.0
    out = np.zeros(len(x))
    if live.any():
        _, label = np.unique(ids[live], return_inverse=True)
        out[live] = oracle.block_mean(x[live], label.ravel(), w[live])
    return out, mass, np.flatnonzero(mass <= 0.0)


def _per_date_table(V, id_rows, w, allow_degenerate):
    """Column n of V conditioned on id_rows[n]; raises as the per-date loop did."""
    out = np.empty_like(V)
    for n, ids in enumerate(id_rows):
        out[:, n], _, dead = _per_date_cond(V[:, n], ids, w)
        if len(dead) and not allow_degenerate:
            raise DegenerateConditioningError(
                f"zero-mass block(s) {dead.tolist()} without degeneracy convention")
    return out


def _per_date_classify(V, ids, w, tol=TOL_EXACT):
    """(verdict, max, sup, inf, worst) by the date loop of the martingale scan."""
    sup, inf, top, worst = 0.0, 0.0, -1.0, None
    for n in range(1, ids.shape[0]):
        cond, mass, _ = _per_date_cond(V[:, n] - V[:, n - 1], ids[n - 1], w)
        live = np.flatnonzero(mass > 0.0)
        if not len(live):
            continue
        r = cond[np.array([np.flatnonzero(ids[n - 1] == b)[0] for b in live])]
        if not np.all(np.isfinite(r)):
            j = int(np.flatnonzero(~np.isfinite(r))[0])
            return "none", np.inf, np.inf, -np.inf, (n, int(live[j]))
        j = int(np.argmax(np.abs(r)))
        if abs(r[j]) > top:
            top, worst = abs(r[j]), (n, int(live[j]))
        sup, inf = max(sup, float(r.max())), min(inf, float(r.min()))
    max_res = max(sup, -inf)
    verdict = ("martingale" if max_res <= tol else "supermartingale" if sup <= tol
               else "submartingale" if -inf <= tol else "none")
    return verdict, max_res, sup, inf, worst


def _per_date_flat(V, id_rows, tol):
    """Every block of id_rows[n] spreads column n of V by at most tol (NaN fails)."""
    return all(np.ptp(V[blk, n]) <= tol
               for n, ids in enumerate(id_rows) for blk in oracle.blocks_of(ids))


def _index_cases(rng):
    """Scrambled partitions, T = 1 and single-atom spaces among them."""
    yield np.zeros((2, 1), dtype=np.int64)
    yield _scrambled(rng, _full_tree(3, 1))
    for _ in range(60):
        yield _raw_partitions(rng)


def test_space_time_index_is_bit_identical_to_per_date_loops():
    rng = np.random.default_rng(105)
    degenerate = 0
    for raw in _index_cases(rng):
        filt = Filtration(raw)
        ids = filt.block_ids
        n, T = filt.n_atoms, filt.n_times - 1
        space = FiniteFilteredSpace(tuple(range(n)), np.full(n, 1.0 / n), T, filt)
        w = rng.uniform(0.2, 1.0, n) * (rng.random(n) < 0.7)
        if not w.any():
            w[rng.integers(n)] = 1.0
        measure = ProbabilityMeasure(w / w.sum())
        w = measure.weights
        V = rng.normal(size=(n, T + 1))
        # exact fractions confirm the float reference wherever blocks have mass
        ref, mass, _ = _per_date_cond(V[:, T], ids[T - 1], w)
        alive = mass[ids[T - 1]] > 0.0
        exact = oracle.cond_exp([Fraction(x) for x in V[:, T]], [Fraction(p) for p in w],
                                [b for b in oracle.blocks_of(ids[T - 1]) if alive[b[0]]])
        assert np.allclose(ref[alive], np.array(exact, dtype=object)[alive].astype(float),
                           rtol=1e-12, atol=1e-12)
        pred_rows = np.vstack([np.zeros((1, n), dtype=np.int64), ids[:-1]])
        for mode, id_rows in (("optional", ids), ("predictable", pred_rows)):
            for allow in (True, False):
                try:
                    want = _per_date_table(V, id_rows, w, allow)
                except DegenerateConditioningError as exc:
                    degenerate += 1
                    with pytest.raises(DegenerateConditioningError) as got:
                        project(space, V, mode, measure=measure, allow_degenerate=allow)
                    assert str(got.value) == str(exc)
                    continue
                got = project(space, V, mode, measure=measure, allow_degenerate=allow)
                assert np.array_equal(got, want)
                dual = dual_projection(space, V, mode, measure=measure, allow_degenerate=allow)
                assert np.array_equal(dual, np.cumsum(_per_date_table(
                    increments(V), id_rows, w, allow), axis=1))
        dA = np.zeros_like(V)
        dA[:, 1:] = _per_date_table(np.diff(V, axis=1), ids[:-1], w, True)
        M, A = doob_decomposition(space, V, measure=measure)
        assert np.array_equal(A, np.cumsum(dA, axis=1)) and np.array_equal(M, V - A)
        # a positive supermartingale for the multiplicative split
        Z = _per_date_table(np.repeat(rng.uniform(0.5, 2.0, (n, 1)), T + 1, axis=1), ids, w, True)
        Z = np.where(Z > 0.0, Z, 1.0) * 0.99 ** np.arange(T + 1)
        dX = np.diff(Z, axis=1) / Z[:, :-1]
        dVp = -_per_date_table(dX, ids[:-1], w, True)
        N, Vd = multiplicative_decomposition(space, Z, measure=measure)
        assert np.array_equal(N[:, 1:], np.cumsum((dX + dVp) / (1.0 - dVp), axis=1))
        assert np.array_equal(Vd[:, 1:], np.cumsum(dVp, axis=1))
        for X in (V, Z, np.cumsum(V, axis=1) ** 2):
            rep = classify(space, X, measure=measure)
            got = (rep.verdict, rep.max_residual, rep.sup_residual, rep.inf_residual, rep.worst)
            assert got == _per_date_classify(X, ids, w)
        # measurability: adapted and predictable tables, then broken ones
        adapted = rng.normal(size=(ids.max() + 1, T + 1))[ids.T, np.arange(T + 1)]
        predictable = np.hstack([np.full((n, 1), 0.5), adapted[:, :-1]])
        for X in (adapted, predictable, V):
            broken = X.copy()
            broken[rng.integers(n), rng.integers(T + 1)] = rng.choice([np.nan, 1e-3])
            for Y in (X, broken):
                for tol in (0.0, 1e-2):
                    assert filt.is_adapted(Y, tol) == _per_date_flat(Y, ids, tol)
                    assert filt.is_predictable(Y, tol) == _per_date_flat(Y, pred_rows, tol)
    assert degenerate > 10


def _per_node_fold(filt, rows, first, ufunc=np.add):
    """Each node's atoms folded in atom order, one node at a time: a sum from
    0.0, a minimum or maximum from the node's first atom."""
    out = []
    for j, row in enumerate(rows):
        for block in trees.blocks(filt, first + j):
            acc = np.zeros(row.shape[1:]) if ufunc is np.add else row[block[0]]
            for atom in block if ufunc is np.add else block[1:]:
                acc = ufunc(acc, row[atom])
            out.append(acc)
    return np.array(out, dtype=rows.dtype).reshape((-1,) + rows.shape[2:])


def test_node_sums_add_atoms_in_atom_order():
    # -0.0 tells the orders apart on every node: 0.0 + -0.0 is 0.0, while a
    # reduction that starts from the first atom keeps -0.0; magnitudes over
    # 16 decades tell sequential from pairwise sums on nodes of many atoms
    rng = np.random.default_rng(106)
    for raw in _index_cases(rng):
        filt = Filtration(raw)
        n, T = filt.n_atoms, filt.n_times
        for trail in ((), (3,), (2, 2)):
            for first in range(T):
                shape = (int(rng.integers(1, T - first + 1)), n) + trail
                rows = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
                rows[rng.random(shape) < 0.3] = -0.0
                got = filt.node_reduce(rows, np.add, first)
                want = _per_node_fold(filt, rows, first)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        w = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)
        mass = filt.node_reduce(np.broadcast_to(w, (T, n)))
        assert np.array_equal(filt.node_mass(w).view(np.uint64), mass.view(np.uint64))
    # a minimum or maximum folds from each node's first atom in atom order:
    # ties of -0.0 and 0.0 resolve by that order, a NaN propagates without a
    # warning, and int64 rows (as first_where reduces) keep their dtype
    rng = np.random.default_rng(107)
    for raw in _index_cases(rng):
        filt = Filtration(raw)
        n, T = filt.n_atoms, filt.n_times
        for trail in ((), (3,), (2, 2)):
            for first in range(T):
                shape = (int(rng.integers(1, T - first + 1)), n) + trail
                rows = rng.choice([-0.0, 0.0, 1.0, -1.0], size=shape)
                rows[rng.random(shape) < 0.05] = np.nan
                ints = rng.integers(-3, 4, size=shape)
                for x in (rows, ints):
                    for ufunc in (np.minimum, np.maximum):
                        got = filt.node_reduce(x, ufunc, first)
                        want = _per_node_fold(filt, x, first, ufunc)
                        assert got.shape == want.shape and got.dtype == x.dtype
                        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_recession_pass_matches_full_enumeration():
    # the recession pass of the two- and three-asset oracle enumerates only
    # the d-subsets that hold a box row and no box row with its negative;
    # over the same rows, every d-subset must give the same slopes bit for bit
    rng = np.random.default_rng(109)
    for d in (2, 3):
        for m in range(1, 7):
            R = rng.normal(size=(300, m, d))
            R[rng.random((300, m)) < 0.2] = 0.0
            axis = rng.random((300, m)) < 0.2  # rows along an axis, as the box rows are
            R[axis] = np.eye(d)[rng.integers(0, d, size=axis.sum())] * rng.choice([-2.0, 0.5],
                                                                                size=(axis.sum(), 1))
            one_sided = rng.random(300) < 0.5  # a recession direction exists
            R[one_sided, :, 0] = np.abs(R[one_sided, :, 0])
            v = rng.normal(size=(300, d))
            norm = np.linalg.norm(R, axis=2, keepdims=True)
            unit = np.divide(R, norm, out=np.zeros_like(R), where=norm > 1e-14)
            box = np.broadcast_to(np.concatenate([np.eye(d), -np.eye(d)]), (300, 2 * d, d))
            full = _vertex_max(v, np.concatenate([unit, box], axis=1),
                               np.concatenate([np.zeros(m), -np.ones(2 * d)]))
            rec, _ = _polytope_nodes(v, R, np.full(300, 1e-9))
            assert np.array_equal(rec, full)
            assert (full > 1e-9).sum() > 30  # unbounded nodes are in the draw


def _stopped_martingales(rng, rts):
    space = rts.space
    M = trees.random_martingale(rng, space)
    yield transport(M, rts, check=False)
    yield transport(M, rts, check=False) + 0.3 * rts.N_G
    yield np.full((space.n_atoms, space.horizon + 1), 2.5)


def _decompose_reference(MG, rts):
    return oracle.decompose_cells(
        stop(MG, rts.tau), rts.space.probs, rts.space.filtration.block_ids, rts.tau,
        rts.G, rts.G_tilde, rts.G_minus, rts.dD_opt)


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


def _random_doubles(rng, n):
    """Random bit patterns: a third with the exponent of subnormals, a third with
    that of NaN payloads and infinities, plus the edge cases of each kind."""
    bits = np.frombuffer(rng.bytes(8 * n), dtype=np.uint64).copy()
    kind = rng.integers(0, 3, size=n)
    bits[kind == 1] &= np.uint64(0x800FFFFFFFFFFFFF)
    bits[kind == 2] |= np.uint64(0x7FF0000000000000)
    edges = np.array([0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
                      0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
                      0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                      0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.concatenate([bits, edges]).view(np.float64)


def test_batched_texts_match_fmt_on_every_kind_of_double():
    # one % pass renders the finite values, fmt the others: both as fmt does
    values = _random_doubles(np.random.default_rng(110), 30000)
    texts, cells = modelio._cell_texts(values[:, None, None], np.array([""], dtype=object),
                                       np.array([False]))
    assert texts[cells.reshape(-1)].tolist() == [modelio.fmt(v) + "\n" for v in values.tolist()]


def test_table_to_csv_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(111)
    n = 4500
    special = _random_doubles(rng, 40)
    columns = [
        np.arange(n) / 1024.0,  # one time grid shared by every table
        np.repeat(rng.normal(size=n // 70 + 1), 70)[:n],  # runs across the chunk boundary
        rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n),
        special[rng.integers(0, len(special), size=n)],
        np.full(n, -0.0),
    ]
    columns.append(columns[1][::-1].copy())  # values the second column also holds
    block = np.column_stack(columns)
    block[2040:2060, 2] = 0.0  # a run of 0.0 beside the -0.0 column, across the boundary
    tables = [(0, block), (1, block[:2048]), (2, -block[:2049]), (3, block[:0]),
              ("p", block[4499:]), (17, block[:, :1])]
    header = ("path", *(f"c{k}" for k in range(block.shape[1])))
    for some in (tables[:5], tables[5:]):
        modelio.table_to_csv(tmp_path / "got.csv", header, some)
        oracle.write_table_cells(tmp_path / "ref.csv", header, some)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_process_table_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(112)
    values = _random_doubles(rng, 60000)
    values = values[np.isfinite(values)]
    X = values[rng.integers(0, len(values), size=(4500, 7))]
    X[2000:2100, 2] = X[2000, 2]  # a run across the chunk boundary
    X[:, 5] = -0.0
    names = [f"w{i}" for i in range(len(X))]
    modelio.process_to_csv(tmp_path / "X.csv", names, X)
    back = modelio.process_from_csv(tmp_path / "X.csv", names, X.shape[1] - 1)
    assert np.array_equal(back.view(np.uint64), X.view(np.uint64))


@pytest.mark.parametrize("text,message", [
    ("w916,2", "row 5500: malformed process row 'w916,2'"),
    ("w916,2,687.25,0", "row 5500: malformed process row 'w916,2,687.25,0'"),
    ("x916,2,687.25", "row 5500: unknown atom id 'x916'"),
    ("w916,two,687.25", "row 5500: time must be an integer and value a number, "
                        "got 'w916,two,687.25'"),
    ("w916,6,687.25", "row 5500: time 6 outside 0..5"),
    ("w916,99999999999999999999,687.25", "row 5500: time 99999999999999999999 outside 0..5"),
    ("w916,2,-inf", "row 5500: value -inf of (w916, 2) is not finite"),
    ("w916,1,687.25", "row 5500: cell (w916, 1) appears twice"),
    ("", "process table misses (atom, time) cells, first (w916, 2)"),
], ids=["two-cells", "four-cells", "unknown-atom", "word", "time-past-horizon", "huge-time",
        "infinite", "duplicate", "missing"])
def test_process_table_reader_names_a_bad_row_deep_in_a_large_table(tmp_path, text, message):
    # the reader's whole-column masks name a bad row past row 5000 exactly
    names = [f"w{i}" for i in range(1024)]
    X = np.arange(1024 * 6.0).reshape(1024, 6) / 8.0
    modelio.process_to_csv(tmp_path / "X.csv", names, X)
    assert np.array_equal(modelio.process_from_csv(tmp_path / "X.csv", names, 5), X)
    lines = (tmp_path / "X.csv").read_text().split("\n")
    assert lines[5499] == "w916,2,687.25"  # row 5500: the header is row 1
    lines[5499] = text
    (tmp_path / "bad.csv").write_text("\n".join(lines))
    with pytest.raises(SpaceValidationError, match=f"^{re.escape(message)}$"):
        modelio.process_from_csv(tmp_path / "bad.csv", names, 5)


@pytest.mark.parametrize("time,value", [
    ("0_0", "1"), ("\u0661", "1"), ("0", "1_0.5"), ("0", "\u0663.\u0665"), ("\uff11", "1"),
], ids=["underscore-time", "arabic-indic-time", "underscore-value", "arabic-indic-value",
        "fullwidth-time"])
def test_process_table_reader_refuses_numbers_no_table_holds(tmp_path, time, value):
    # int and float take an underscore and any Unicode digit; process_to_csv writes neither
    (tmp_path / "Z.csv").write_text(f"atom,time,value\nw1,{time},{value}\nw1,1,2\n",
                                    encoding="utf-8")
    message = ("row 2: time must be an integer and value a number, "
               f"got {f'w1,{time},{value}'!r}")
    with pytest.raises(SpaceValidationError, match=f"^{re.escape(message)}$"):
        modelio.process_from_csv(tmp_path / "Z.csv", ["w1"], 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        oracle.read_rows(tmp_path / "Z.csv", ["w1"], 1)


def test_process_table_reader_keeps_atom_ids_with_underscores_or_non_ascii(tmp_path):
    # the written-number rule is for times and values: an atom id keeps any text
    names = ["w_1", "ω١"]
    X = np.array([[1.5, -2.0], [0.25, 3.0]])
    modelio.process_to_csv(tmp_path / "Z.csv", names, X)
    assert np.array_equal(modelio.process_from_csv(tmp_path / "Z.csv", names, 1), X)
    assert np.array_equal(oracle.read_rows(tmp_path / "Z.csv", names, 1), X)


def _corrupt(rng, records, horizon):
    """Apply one corruption, drawn at random, to ``records`` (a table's rows as cell lists)."""
    k = int(rng.integers(len(records)))
    kind = rng.integers(6)
    if kind == 0:  # a row of 2 or 4 cells
        records[k] = records[k][:2] if rng.random() < 0.5 else records[k] + ["1"]
    elif kind == 1:
        records[k][0] = "x" + records[k][0]
    elif kind == 2 and len(records[k]) > 1:  # a word, a fraction, past T, negative, huge,
        # or a number int takes but no table holds: an underscore, a non-ASCII digit
        records[k][1] = rng.choice(["two", "1.5", str(horizon + 1), "-1", str(2 ** 70),
                                    str(2 ** 63 - 1), "0_0", "\u0661", "\uff11"])
    elif kind == 3 and len(records[k]) > 2:
        records[k][2] = rng.choice(["nan", "-inf", "1e400", '"nan"', "1_0.5",
                                    "\u0663.\u0665"])
    elif kind == 4:  # a repeated cell: in place of another row, or beside the rows
        if rng.random() < 0.5:
            records[int(rng.integers(len(records)))] = list(records[k])
        else:
            records.insert(int(rng.integers(len(records) + 1)), list(records[k]))
    elif kind == 5:
        del records[k]


# the message of each rule of a process table, as the row loop words it
PROCESS_TABLE_RULES = {"shape": r"row \d+: malformed", "atom": r"row \d+: unknown atom",
                       "number": r"row \d+: time must", "range": r"row \d+: time -?\d+ outside",
                       "finite": r"row \d+: value", "repeat": r"row \d+: cell",
                       "missing": r"process table misses"}


def test_process_table_reader_matches_its_row_loop_on_corrupt_tables(tmp_path):
    # random tables with 1 to 3 corruptions each, among blank lines, edge whitespace
    # and CRLF line endings: the reader gives the row loop's bits or its whole message
    rng = np.random.default_rng(113)
    outcomes = set()
    for case in range(1500):
        n_atoms, horizon = int(rng.integers(1, 6)), int(rng.integers(0, 4))
        names = [f"w{i}" for i in range(n_atoms)]
        X = rng.normal(size=(n_atoms, horizon + 1)) * 10.0 ** rng.integers(-5, 5)
        records = [[name, str(t), modelio.fmt(X[i, t])]
                   for i, name in enumerate(names) for t in range(horizon + 1)]
        if rng.random() < 0.5:
            records = [records[j] for j in rng.permutation(len(records))]
        for _ in range(rng.integers(1, 4)):
            if records:
                _corrupt(rng, records, horizon)
        lines = []
        for cells in records:
            lines += [" "] * int(rng.random() < 0.2) + [""] * int(rng.random() < 0.1)
            lines.append(" " * int(rng.integers(2)) + ",".join(cells) + "\t" * int(rng.integers(2)))
        end = "\r\n" if rng.random() < 0.3 else "\n"
        path = tmp_path / f"X{case}.csv"
        path.write_bytes((end.join(["atom,time,value", *lines]) + end).encode())
        try:
            want = oracle.read_rows(path, names, horizon)
        except ValueError as exc:
            with pytest.raises(SpaceValidationError) as got:
                modelio.process_from_csv(path, names, horizon)
            assert str(got.value) == str(exc)
            outcomes.add(next(rule for rule, pattern in PROCESS_TABLE_RULES.items()
                              if re.match(pattern, str(exc))))
        else:
            got = modelio.process_from_csv(path, names, horizon)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            outcomes.add("read")
    assert outcomes == {*PROCESS_TABLE_RULES, "read"}  # every rule was met, and a good table
