"""Market objects and the brute-force deflator oracles.

A market is a d-asset adapted price process together with the filtration and
measure it lives under.  The two oracles certify the defining properties of a
deflator directly from one-step conditional quantities:

* ``verify_lmd``: Z and Z * (price increments) have zero one-step conditional
  means — the local-martingale-deflator property;
* ``verify_deflator``: at every node, the supremum over one-step admissible
  strategies (the closed polytope {phi : phi' dS >= -1}) of the deflated
  conditional wealth gain is nonpositive.  For d = 1 all nodes of a date are
  settled in closed form in one vectorized pass, with no LP: the strategy set
  is an interval, unbounded exactly on the side no increment bounds, and the
  supremum sits at its endpoints.  For d in {2, 3} each node runs a
  recession-ray LP and vertex enumeration; higher dimensions are refused.

Both oracles fail closed: a Z that is not finite and positive is reported as
not a deflator, with residual inf.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .errors import ContractViolationError, UnsupportedDimensionError
from .prob_core import (
    Array,
    FiniteFilteredSpace,
    Filtration,
    ProbabilityMeasure,
    as_values,
    classify,
    stop,
)


@dataclass(frozen=True)
class MarketModel:
    """Adapted price process S (d assets), its filtration, and its measure."""

    space: FiniteFilteredSpace
    S: Array
    filtration: Filtration
    measure: ProbabilityMeasure
    assets: tuple = ()

    def __post_init__(self):
        S = np.asarray(as_values(self.S), dtype=float)
        if S.ndim == 2:
            S = S[None]
        object.__setattr__(self, "S", S)
        if not self.assets:
            object.__setattr__(self, "assets", tuple(f"S{i}" for i in range(S.shape[0])))
        if not np.all(np.isfinite(S)):
            raise ContractViolationError("prices must be finite")
        for comp in S:
            if not self.filtration.is_adapted(comp, tol=0.0):
                raise ContractViolationError("price process is not adapted")

    @classmethod
    def from_prices(cls, space, S, *, filtration=None, measure=None, assets=()):
        return cls(space, S,
                   filtration if filtration is not None else space.filtration,
                   measure if measure is not None else space.measure,
                   tuple(assets))

    @property
    def n_assets(self) -> int:
        return self.S.shape[0]

    def stopped(self, tau, filtration: Filtration) -> "MarketModel":
        """The stopped market (S^tau, enlarged filtration)."""
        S_stopped = np.stack([stop(comp, tau) for comp in self.S])
        return MarketModel(self.space, S_stopped, filtration, self.measure, self.assets)


@dataclass(frozen=True)
class Strategy:
    """A d-dimensional predictable strategy with its admissibility certificate.

    Admissibility means one-step gains phi' dS stay above -1 everywhere, so
    the multiplicative wealth remains strictly positive.
    """

    phi: Array
    admissible: bool

    @classmethod
    def check(cls, market: "MarketModel", phi) -> "Strategy":
        P = _phi3(phi, market.n_assets)
        predictable = all(market.filtration.is_predictable(c, tol=0.0) for c in P)
        gains = (P[:, :, 1:] * np.diff(market.S, axis=2)).sum(axis=0)
        return cls(P, bool(predictable and np.min(gains) > -1.0))


def _phi3(phi, d) -> Array:
    P = np.asarray(as_values(getattr(phi, "phi", phi)), dtype=float)
    if P.ndim == 2:
        P = P[None]
    if P.shape[0] != d:
        raise ContractViolationError("strategy has wrong number of components")
    return P


def wealth(phi, market: MarketModel, *, require_predictable: bool = True) -> Array:
    """Wealth of an admissible strategy: product of (1 + phi' dS), started at 1."""
    P = _phi3(phi, market.n_assets)
    if require_predictable:
        for comp in P:
            if not market.filtration.is_predictable(comp, tol=0.0):
                raise ContractViolationError("strategy is not predictable")
    dS = np.diff(market.S, axis=2)
    gains = (P[:, :, 1:] * dS).sum(axis=0)
    if np.min(gains) <= -1.0:
        atom, k = np.unravel_index(np.argmin(gains), gains.shape)
        raise ContractViolationError(
            f"inadmissible strategy: wealth hits zero at atom {atom}, time {int(k) + 1}")
    W = np.ones((market.S.shape[1], market.S.shape[2]))
    W[:, 1:] = np.cumprod(1.0 + gains, axis=1)
    return W


@dataclass(frozen=True)
class OracleReport:
    """Verdict of a deflator oracle with the worst node and residual."""

    ok: bool
    max_residual: float
    worst: tuple | None  # (time, block_index, kind)
    details: dict


def verify_lmd(Z, market: MarketModel, *, tol: float = 1e-9) -> OracleReport:
    """Local-martingale-deflator check for Z against a market.

    Z must be a positive martingale and E[Z_n dS_n | block at n-1] must vanish
    for every asset and reachable node; the sup-norm of those residuals is
    reported.
    """
    V = as_values(Z)
    if not (np.all(np.isfinite(V)) and np.min(V) > 0.0):
        return OracleReport(False, float("inf"), None, {"reason": "Z not finite and positive"})
    rep = classify(market.space, V, filtration=market.filtration,
                   measure=market.measure, tol=tol)
    worst = None
    max_res = rep.max_residual
    if not rep.is_martingale:
        worst = (None, None, "martingale")
    w = market.measure.weights
    filt = market.filtration
    dS = np.diff(market.S, axis=2)
    for k in range(1, filt.n_times):
        mass = filt.segment_reduce(k - 1, w)
        live = np.flatnonzero(mass > 0)
        if len(live) == 0:
            continue
        sums = filt.segment_reduce(k - 1, (w * V[:, k])[:, None] * dS[:, :, k - 1].T)
        r = np.abs(sums[live] / mass[live, None]).T  # (asset, node)
        i, j = np.unravel_index(np.argmax(r), r.shape)
        if r[i, j] > max_res:
            max_res, worst = float(r[i, j]), (k, int(live[j]), f"price[{i}]")
    ok = rep.is_martingale and max_res <= tol
    return OracleReport(ok, float(max_res), worst if not ok else None,
                        {"martingale_residual": rep.max_residual})


def _recession_violation(v: Array, rows: Array, tol: float) -> float:
    """Max of v'r over the recession cone {r : rows r >= 0}, |r|_inf <= 1."""
    d = len(v)
    res = linprog(-v, A_ub=-rows if len(rows) else None,
                  b_ub=np.zeros(len(rows)) if len(rows) else None,
                  bounds=[(-1.0, 1.0)] * d, method="highs")
    if not res.success:
        return np.inf
    return float(-res.fun)


def _vertex_sup(v: Array, rows: Array, tol: float) -> float:
    """Sup of v'phi over {phi : rows phi >= -1} given nonpositive recession slopes."""
    d = len(v)
    keep = rows[np.linalg.norm(rows, axis=1) > tol]
    best = 0.0  # phi = 0 is always feasible
    if len(keep) == 0:
        return best
    rank = np.linalg.matrix_rank(keep, tol=1e-12)
    if rank < d:
        # optimize inside the row space; orthogonal directions have zero slope
        _, _, vt = np.linalg.svd(keep)
        Q = vt[:rank].T
        return _vertex_sup(Q.T @ v, keep @ Q, tol)
    scale = np.linalg.norm(keep, axis=1).max()
    for combo in combinations(range(len(keep)), d):
        A = keep[list(combo)]
        if abs(np.linalg.det(A)) <= 1e-12 * scale**d:
            continue
        phi = np.linalg.solve(A, -np.ones(d))
        if np.all(keep @ phi >= -1.0 - 1e-9 * (1.0 + np.abs(keep @ phi))):
            best = max(best, float(v @ phi))
    return best


def _interval_nodes(v: Array, lo_row: Array, hi_row: Array):
    """One asset: recession slope and sup of v*phi over {phi : rows*phi >= -1}, per node.

    ``lo_row``/``hi_row`` are each node's smallest and largest increment;
    increments within 1e-14 of zero count as zero.  The ray r >= 0 (|r| <= 1)
    is feasible iff no increment is negative, r <= 0 iff none is positive.
    The sup is v times the endpoint its sign points to, inf if unbounded.
    """
    neg, pos = lo_row < -1e-14, hi_row > 1e-14
    rec = np.maximum(np.where(neg, 0.0, v), np.where(pos, 0.0, -v))
    hi = np.full_like(v, np.inf)
    np.divide(-1.0, lo_row, out=hi, where=neg)
    lo = np.full_like(v, -np.inf)
    np.divide(-1.0, hi_row, out=lo, where=pos)
    return rec, v * np.where(v > 0, hi, np.where(v < 0, lo, 0.0))


def verify_deflator(Z, market: MarketModel, *, tol: float = 1e-9) -> OracleReport:
    """Supermartingale-deflator check by one-step strategy optimization.

    For each node the oracle maximizes E[Z_n (1 + phi' dS_n) | block] over the
    closed admissibility polytope (including recession directions) and checks
    the optimum against Z_{n-1}.  Supports up to three assets.  The reported
    worst node is the first (time, block) reaching the largest excess.
    """
    d = market.n_assets
    if d > 3:
        raise UnsupportedDimensionError(f"node polytope oracle supports d <= 3, got {d}")
    V = as_values(Z)
    if not (np.all(np.isfinite(V)) and np.min(V) > 0.0):
        return OracleReport(False, float("inf"), None, {"reason": "Z not finite and positive"})
    w = market.measure.weights
    filt = market.filtration
    dS = np.diff(market.S, axis=2)
    worst, max_excess = None, -np.inf
    for k in range(1, filt.n_times):
        mass = filt.segment_reduce(k - 1, w)
        live = np.flatnonzero(mass > 0.0)
        if len(live) == 0:
            continue
        wb = w / np.where(mass > 0.0, mass, 1.0)[filt.block_ids[k - 1]]
        z_prev = filt.segment_reduce(k - 1, wb * V[:, k - 1])[live]
        zw = wb * V[:, k]
        base = filt.segment_reduce(k - 1, zw)[live]
        rows = dS[:, :, k - 1].T
        v = filt.segment_reduce(k - 1, rows * zw[:, None])[live]
        room = tol * np.maximum(1.0, np.abs(z_prev))
        if d == 1:
            rec, sup = _interval_nodes(
                v[:, 0], filt.segment_reduce(k - 1, rows[:, 0], np.minimum)[live],
                filt.segment_reduce(k - 1, rows[:, 0], np.maximum)[live])
        else:
            rec, sup = np.zeros(len(live)), np.zeros(len(live))
            starts = filt.starts[k - 1]
            for j, b in enumerate(live):
                node_rows = rows[filt.order[k - 1][starts[b]:starts[b + 1]]]
                rec[j] = _recession_violation(v[j], node_rows, tol)
                if rec[j] <= room[j]:
                    sup[j] = _vertex_sup(v[j], node_rows, 1e-14)
        recession = rec > room
        excess = np.where(recession, np.inf, base + sup - z_prev)
        j = int(np.argmax(excess))
        if excess[j] > max_excess:
            kind = "recession" if recession[j] else "vertex"
            max_excess, worst = float(excess[j]), (k, int(live[j]), kind)
    ok = max_excess <= tol * max(1.0, float(np.max(np.abs(V))))
    return OracleReport(ok, float(max_excess), worst if not ok else None, {})


def lift_strategy(phi_G, rts, *, tol: float = 0.0) -> Array:
    """Lift an enlarged-predictable strategy to a public-predictable one.

    On each public time-(k-1) block the lifted value is the enlarged
    strategy's value on the surviving sub-cell {tau >= k}; blocks without
    survivors take 0.  The two strategies agree on every (atom, k <= tau).
    """
    P = np.asarray(as_values(phi_G), dtype=float)
    if P.ndim == 2:
        P = P[None]
    for comp in P:
        if not rts.G_filtration.is_predictable(comp, tol=tol):
            raise ContractViolationError("strategy is not predictable for the enlarged filtration")
    filt = rts.space.filtration
    out = np.zeros_like(P)
    for k in range(1, rts.horizon + 1):
        alive = rts.tau >= k
        for i, comp in enumerate(P[:, :, k]):
            hi = filt.segment_reduce(k - 1, np.where(alive, comp, -np.inf), np.maximum)
            lo = filt.segment_reduce(k - 1, np.where(alive, comp, np.inf), np.minimum)
            if np.any(hi - lo > tol):
                raise ContractViolationError(
                    "enlarged strategy not constant on a surviving sub-cell")
            out[i, :, k] = filt.first_where(k - 1, comp, alive)[0][filt.block_ids[k - 1]]
    return out if as_values(phi_G).ndim == 3 else out[0]
