"""Market objects and the brute-force deflator oracles.

A market is a d-asset adapted price process together with the filtration and
measure it lives under.  The two oracles certify the defining properties of a
deflator directly from one-step conditional quantities:

* ``verify_lmd``: Z and Z * (price increments) have zero one-step conditional
  means — the local-martingale-deflator property;
* ``verify_deflator``: at every node, the supremum over one-step admissible
  strategies (the closed polytope {phi : phi' dS >= -1}) of the deflated
  conditional wealth gain is nonpositive.  The nodes of all dates are settled
  in one vectorized pass, with no LP.  For d = 1 in closed form: the strategy
  set is an interval, unbounded exactly on the side no increment bounds, and
  the supremum sits at its endpoints.  For d in {2, 3} by a stacked vertex
  enumeration over every d-subset of each node's distinct increment rows,
  one per group of nodes with equally many rows: once over the recession
  cone capped by the unit box, and once over the polytope itself.  Higher
  dimensions are refused.

Every node sum runs through :meth:`Filtration.node_reduce`, in the order of
``classify``, and the masses are the filtration's cached ``node_mass``.
Both oracles fail closed, with no numpy warning: a Z that is not finite and
positive, or a node whose residual or excess is not finite (an overflowing
sum gives inf - inf = NaN), reads inf and not ok; ``worst`` names the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product

import numpy as np

from .enlargement import _lift_surviving
from .errors import ContractViolationError, UnsupportedDimensionError
from .prob_core import (
    Array,
    FiniteFilteredSpace,
    Filtration,
    ProbabilityMeasure,
    _compound,
    _date_of,
    _ratio,
    _step,
    as_values,
    classify,
    stop,
)


def __getattr__(name):
    # no oracle path runs an LP; clibench/spans.py counts LP calls through
    # market.linprog, so the name stays, imported only when looked up
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if not self.filtration.is_adapted(S):
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
        gains = (P[:, :, 1:] * np.diff(market.S, axis=2)).sum(axis=0)
        return cls(P, bool(market.filtration.is_predictable(P) and np.min(gains) > -1.0))


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
    if require_predictable and not market.filtration.is_predictable(P):
        raise ContractViolationError("strategy is not predictable")
    dS = np.diff(market.S, axis=2)
    gains = (P[:, :, 1:] * dS).sum(axis=0)
    if np.min(gains) <= -1.0:
        atom, k = np.unravel_index(np.argmin(gains), gains.shape)
        raise ContractViolationError(
            f"inadmissible strategy: wealth hits zero at atom {atom}, time {int(k) + 1}")
    return _compound(1.0 + gains)


@dataclass(frozen=True)
class OracleReport:
    """Verdict of a deflator oracle with the worst node and residual."""

    ok: bool
    max_residual: float
    worst: tuple | None  # (time, block_index, kind)
    details: dict


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails closed below
def verify_lmd(Z, market: MarketModel, *, tol: float = 1e-9) -> OracleReport:
    """Local-martingale-deflator check for Z against a market.

    Z must be a positive martingale and E[Z_n dS_n | block at n-1] must vanish
    for every asset and reachable node; the sup-norm of those residuals is
    reported.
    """
    V = as_values(Z)
    if not (np.all(np.isfinite(V)) and np.min(V) > 0.0):
        return OracleReport(False, float("inf"), None, {"reason": "Z not finite and positive"})
    filt = market.filtration
    rep = classify(market.space, V, filtration=filt, measure=market.measure, tol=tol)
    max_res = rep.max_residual
    worst = (*(rep.worst or (None, None)), "martingale")  # dropped if the verdict is ok
    mass = filt.node_mass(market.measure.weights)[:filt.offsets[-2]]
    live = np.flatnonzero(mass > 0.0)
    zw = market.measure.weights * V.T[1:]
    sums = filt.node_reduce(zw[:, :, None] * np.diff(market.S, axis=2).T)
    r = np.abs(sums[live] / mass[live, None])  # (node, asset)
    r[~np.isfinite(r)] = np.inf
    if r.size and r.max() > max_res:
        node, asset = np.nonzero(r == r.max())
        date = _date_of(filt, live[node])
        j = np.lexsort((node, asset, date))[0]  # the first date, then asset, then node
        max_res = float(r[node[j], asset[j]])
        worst = (*_step(filt, live[node[j]]), f"price[{asset[j]}]")
    ok = rep.is_martingale and max_res <= tol
    return OracleReport(ok, float(max_res), worst if not ok else None,
                        {"martingale_residual": rep.max_residual})


def _vertex_sup(v: Array, rows: Array, tol: float):
    """Per node, sup of v'phi over {phi : rows phi >= -1} given nonpositive recession slopes.

    ``v`` is (nodes, d) and ``rows`` (nodes, m, d), or one node's (d,) and
    (m, d) for a float; rows of norm <= tol are dropped.  Nodes whose kept
    rows have rank below d are reduced to their row space (orthogonal
    directions have zero slope) by one stacked SVD per group of nodes with
    equally many kept rows and equal rank.
    """
    if v.ndim == 1:
        return float(_vertex_sup(v[None], rows[None], tol)[0])
    out = np.zeros(len(v))
    keep = np.linalg.norm(rows, axis=2) > tol
    count = keep.sum(axis=1)
    for c in np.unique(count[count > 0]):
        at = np.flatnonzero(count == c)
        K = rows[at][keep[at]].reshape(len(at), c, v.shape[1])
        rank = np.linalg.matrix_rank(K, tol=1e-12)
        for r in np.unique(rank):
            sel = rank == r
            if r == v.shape[1]:
                out[at[sel]] = _vertex_max(v[at[sel]], K[sel], -np.ones(c))
            else:
                Qt = np.linalg.svd(K[sel])[2][:, :r]  # (nodes, r, d): the row space
                out[at[sel]] = _vertex_sup((Qt @ v[at[sel], :, None])[..., 0],
                                           K[sel] @ Qt.transpose(0, 2, 1), tol)
    return out


_CHUNK_ELEMENTS = 1 << 20  # numbers per (node, d-subset) temporary of one _vertex_max pass


def _vertex_max(v: Array, A: Array, b: Array, subsets=None) -> Array:
    """Per node, max of v'x over x = 0 and the vertices of {x : A x >= b}.

    ``v`` is (nodes, d), ``A`` is (nodes, m, d) and ``b`` is (m,); zero
    rows join no vertex.  Every d-subset of rows is solved with equality:
    subsets with |det| <= 1e-12 scale^d are skipped (scale: the node's
    largest row norm), and a solution counts if every row holds within
    1e-9 (1 + |A x|).  Subsets (all, or ``subsets``: count and tuples) are drawn
    lazily and, with the nodes, run in chunks of at most ``_CHUNK_ELEMENTS``
    numbers per temporary, so memory does not grow with the number of subsets.
    """
    n, m, d = A.shape
    best = np.zeros(n)
    total, subsets = subsets or (math.comb(m, d), combinations(range(m), d))
    if n == 0 or total == 0:
        return best
    tiny = 1e-12 * np.linalg.norm(A, axis=2).max(axis=1) ** d
    per_subset = m + d * d
    nodes = max(1, _CHUNK_ELEMENTS // (per_subset * total))
    width = max(1, _CHUNK_ELEMENTS // (per_subset * nodes))
    for _ in range(0, total, width):
        idx = np.array(list(islice(subsets, width)), dtype=np.intp)
        for lo in range(0, n, nodes):
            An, vn = A[lo:lo + nodes], v[lo:lo + nodes, None, None, :]
            M = An[:, idx]  # (nodes, subsets, d, d)
            solvable = np.abs(np.linalg.det(M)) > tiny[lo:lo + nodes, None]
            x = np.linalg.solve(np.where(solvable[..., None, None], M, np.eye(d)),
                                b[idx][..., None])
            Ax = (An[:, None] @ x)[..., 0]  # (nodes, subsets, m)
            solvable &= np.all(Ax >= b - 1e-9 * (1.0 + np.abs(Ax)), axis=2)
            # (1, d) @ (d, 1) products round as a plain v @ x does
            vx = np.where(solvable, (vn @ x)[..., 0, 0], -np.inf)
            best[lo:lo + nodes] = np.maximum(best[lo:lo + nodes], vx.max(axis=1))
    return best


def _child_rows(filt: Filtration, rows: Array, live: Array):
    """The rows of each ``live`` node's child nodes, grouped by width.

    ``rows`` is time-major (T, n_atoms, d): ``rows[k - 1]`` is constant on
    time-k blocks, so one atom per child carries a time-(k-1) node's
    distinct rows.  ``live`` lists node ids of the dates 0..T-1.  Yields,
    per distinct child count c, the positions in ``live`` of the nodes with
    c children and their rows (nodes, c, d), children in block-id order.  No
    node is padded, so an enumeration over a group costs what its nodes cost.
    """
    T = len(rows)
    date, first = (col[filt.offsets[1]:] for col in filt.node_atoms())
    par = filt.nodes[date - 1, first]  # the parent node of each node of the dates 1..T
    kids = np.argsort(par, kind="stable")
    count = np.bincount(par, minlength=filt.offsets[T])
    kid_rows, owner = rows[date[kids] - 1, first[kids]], par[kids]
    width = count[live]
    for c in np.unique(width):
        at = np.flatnonzero(width == c)
        mine = np.zeros(len(count), dtype=bool)
        mine[live[at]] = True
        yield at, kid_rows[mine[owner]].reshape(len(at), c, rows.shape[2])


def _polytope_nodes(v: Array, R: Array, room: Array):
    """d in {2, 3}: recession slope and sup of v'phi over {phi : R phi >= -1}, per node.

    ``R`` holds each node's child rows (nodes, m, d); rows of norm <= 1e-14
    count as zero.  The recession slope is the max of v'r over the cone
    {R r >= 0} capped by the box |r|_inf <= 1, found by :func:`_vertex_max`
    with the rows scaled to unit norm (the cone does not change).  Where it
    is within ``room``, the sup comes from the same enumeration over R;
    nodes whose rows have rank strictly between 0 and d go, all at once,
    through the row-space reduction of :func:`_vertex_sup`.
    """
    n, m, d = R.shape
    norm = np.linalg.norm(R, axis=2, keepdims=True)
    R = np.where(norm > 1e-14, R, 0.0)
    unit = np.divide(R, norm, out=np.zeros_like(R), where=norm > 1e-14)
    box = np.broadcast_to(np.concatenate([np.eye(d), -np.eye(d)]), (n, 2 * d, d))
    # k >= 1 box rows on k axes: cone rows alone meet at x = 0, e_j with -e_j is singular
    count = sum(math.comb(m, d - k) * math.comb(d, k) * 2 ** k for k in range(1, d + 1))
    boxed = (cone + tuple(sorted(m + j + d * sign for j, sign in zip(axes, signs)))
             for k in range(1, d + 1) for cone in combinations(range(m), d - k)
             for axes in combinations(range(d), k) for signs in product((0, 1), repeat=k))
    rec = _vertex_max(v, np.concatenate([unit, box], axis=1),
                      np.concatenate([np.zeros(m), -np.ones(2 * d)]), (count, boxed))
    sup = np.zeros(n)
    bounded = rec <= room
    rank = np.linalg.matrix_rank(R, tol=1e-12)
    full = bounded & (rank == d)
    sup[full] = _vertex_max(v[full], R[full], -np.ones(m))
    low = bounded & (rank > 0) & (rank < d)
    sup[low] = _vertex_sup(v[low], R[low], 1e-14)
    return rec, sup


def _interval_nodes(v: Array, lo_row: Array, hi_row: Array):
    """One asset: recession slope and sup of v*phi over {phi : rows*phi >= -1}, per node.

    ``lo_row``/``hi_row`` are each node's smallest and largest increment;
    increments within 1e-14 of zero count as zero.  The ray r >= 0 (|r| <= 1)
    is feasible iff no increment is negative, r <= 0 iff none is positive.
    The sup is v times the endpoint its sign points to, inf if unbounded.
    """
    neg, pos = lo_row < -1e-14, hi_row > 1e-14
    rec = np.maximum(np.where(neg, 0.0, v), np.where(pos, 0.0, -v))
    hi, lo = _ratio(-1.0, lo_row, np.inf, neg), _ratio(-1.0, hi_row, -np.inf, pos)
    return rec, v * np.where(v > 0, hi, np.where(v < 0, lo, 0.0))


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails closed below
def verify_deflator(Z, market: MarketModel, *, tol: float = 1e-9) -> OracleReport:
    """Supermartingale-deflator check by one-step strategy optimization.

    For each node the oracle maximizes E[Z_n (1 + phi' dS_n) | block] over the
    closed admissibility polytope (including recession directions) and checks
    the optimum against Z_{n-1}.  Supports up to three assets.  The nodes of
    all dates are settled in one batched pass, with no LP: for one asset by the
    interval formulas of :func:`_interval_nodes`, for two or three by the
    vertex enumeration of :func:`_polytope_nodes` over the rows of each
    node's time-n child blocks (S is adapted, so these are all its atoms'
    rows), once per group of nodes with the same number of children.  The
    reported worst node is the first (time, block) reaching the
    largest excess.
    """
    d = market.n_assets
    if d > 3:
        raise UnsupportedDimensionError(f"node polytope oracle supports d <= 3, got {d}")
    V = as_values(Z)
    if not (np.all(np.isfinite(V)) and np.min(V) > 0.0):
        return OracleReport(False, float("inf"), None, {"reason": "Z not finite and positive"})
    w = market.measure.weights
    filt = market.filtration
    mass = filt.node_mass(w)[:filt.offsets[-2]]
    live = np.flatnonzero(mass > 0.0)
    wb = w / np.where(mass > 0.0, mass, 1.0)[filt.nodes[:-1]]
    z_prev = filt.node_reduce(wb * V.T[:-1])[live]
    zw = wb * V.T[1:]
    base = filt.node_reduce(zw)[live]
    rows = np.diff(market.S, axis=2).T  # (date, atom, asset)
    v = filt.node_reduce(rows * zw[:, :, None])[live]
    room = tol * np.maximum(1.0, np.abs(z_prev))
    if d == 1:
        rec, sup = _interval_nodes(v[:, 0], filt.node_reduce(rows[:, :, 0], np.minimum)[live],
                                   filt.node_reduce(rows[:, :, 0], np.maximum)[live])
    else:
        rec, sup = np.empty(len(live)), np.empty(len(live))
        for at, R in _child_rows(filt, rows, live):
            rec[at], sup[at] = _polytope_nodes(v[at], R, room[at])
    recession = rec > room
    finite = np.isfinite(base) & np.isfinite(z_prev) & np.isfinite(v).all(axis=1)
    excess = np.where(recession | ~finite, np.inf, base + sup - z_prev)
    worst, max_excess = None, -np.inf
    if len(live):
        j = int(np.argmax(excess))
        kind = "recession" if recession[j] else "vertex" if finite[j] else "non-finite"
        max_excess, worst = float(excess[j]), (*_step(filt, live[j]), kind)
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
    if not rts.G_filtration.is_predictable(P, tol=tol):
        raise ContractViolationError("strategy is not predictable for the enlarged filtration")
    out = np.zeros_like(P)
    out[:, :, 1:] = _lift_surviving(P[:, :, 1:].T, rts, lambda hi, lo: tol,
                                   "enlarged strategy not constant on a surviving sub-cell").T
    return out if as_values(phi_G).ndim == 3 else out[0]
