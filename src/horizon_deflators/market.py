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
  the supremum sits at its endpoints.  For d in {2, 3} by one enumeration of
  the bases of each node's LP dual, min{1'y : y >= 0, R'y = -v} over its
  child increment rows R, stacked per group of nodes with equally many
  rows: the supremum is the least 1'y of a feasible basis, and no feasible
  basis means a recession direction (a sure gain).  Higher dimensions are
  refused.

Every node sum runs through :meth:`Filtration.node_reduce`, in the order of
``classify``, and the masses are the filtration's cached ``node_mass``.
Both oracles fail closed, with no numpy warning: a Z that is not finite and
positive, or a node whose residual or excess is not finite (an overflowing
sum gives inf - inf = NaN), reads inf and not ok; ``worst`` names the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

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
    # no oracle path runs an LP; clibench/spans.py counts LP calls through market.linprog,
    # so the name stays until an in-library trace replaces that tracer.  It loads scipy
    # only when looked up, and scipy comes with the test extra alone, not at run time.
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class MarketModel:
    """Adapted price process S (d assets), its filtration, and its measure.

    The one home of the price rules, checked in this order: S is (d, atoms,
    T + 1), or (atoms, T + 1); names are absent (S0, S1, ...) or one per
    asset; S is finite and exactly adapted, as the oracles assume.  A breach
    raises :class:`ContractViolationError` naming where it occurs.
    """

    space: FiniteFilteredSpace
    S: Array
    filtration: Filtration
    measure: ProbabilityMeasure
    assets: tuple = ()

    def __post_init__(self):
        S = np.asarray(as_values(self.S), dtype=float)
        shape = (self.filtration.n_atoms, self.filtration.n_times)
        if S.shape[-2:] != shape or S.ndim not in (2, 3):
            raise ContractViolationError(f"price table must have shape (assets, {shape[0]}, "
                                         f"{shape[1]}) or {shape}, got {S.shape}")
        S = S.reshape(-1, *shape)
        names = tuple(self.assets) or tuple(f"S{i}" for i in range(S.shape[0]))
        if len(names) != S.shape[0]:
            raise ContractViolationError(
                f"asset names must be one per asset: {len(names)} name(s), {len(S)} asset(s)")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "assets", names)
        if not np.all(np.isfinite(S)):
            i, atom, n = np.argwhere(~np.isfinite(S))[0]
            raise ContractViolationError(
                f"asset table value {float(S[i, atom, n])!r} of (asset {names[i]}, atom "
                f"{self.space.outcomes[atom]}, time {n}) is not finite")
        ok = self.filtration.spread_ok(S.T).all(axis=1)  # per node, in date order
        if not ok.all():
            date, atom = (col[np.argmin(ok)] for col in self.filtration.node_atoms())
            raise ContractViolationError(
                f"price process is not adapted: at time {date} it is not constant on the "
                f"block of atom {self.space.outcomes[atom]}")

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


def wealth(phi, market: MarketModel) -> Array:
    """Wealth of a predictable admissible strategy: product of (1 + phi' dS), started at 1."""
    P = _phi3(phi, market.n_assets)
    if not market.filtration.is_predictable(P):
        raise ContractViolationError("strategy is not predictable")
    gains = (P[:, :, 1:] * np.diff(market.S, axis=2)).sum(axis=0)
    if np.min(gains) <= -1.0:
        atom, k = np.unravel_index(np.argmin(gains), gains.shape)
        raise ContractViolationError(
            f"inadmissible strategy: wealth hits zero at atom {atom}, time {int(k) + 1}")
    return _compound(1.0 + gains)


@dataclass(frozen=True)
class OracleReport:
    """Verdict of a deflator oracle, with the worst node and residual.

    ``worst`` is the first (time, block, kind) reaching the largest residual.
    The kinds of verify_lmd: ``martingale`` or ``price[i]``.  Of verify_deflator:
    ``non-finite`` where a node sum is not finite, else ``recession`` where a
    direction of sure gain exists (for d >= 2: no basis of the node's LP dual
    is feasible), else ``vertex``, a finite supremum above Z_{n-1}.
    """

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


_CHUNK_ELEMENTS = 1 << 20  # numbers per (node, basis) temporary of one _dual_sup pass


def _dual_sup(v: Array, R: Array, room: Array) -> Array:
    """d in {2, 3}: sup of v'phi over {phi : R phi >= -1} per node, by its LP dual.

    ``R`` holds each node's child rows (nodes, m, d); rows of norm <= 1e-14 count
    as zero.  The sup is min{1'y : y >= 0, R'y = -v}, inf where no y exists (then
    a recession direction does).  A node of rank r < d (at 1e-12) is reduced to
    its row space, and is unbounded if the part of v off it exceeds ``room``.  A
    basis, r rows S with |det| > 1e-12 scale^r (scale: the largest row norm),
    solves R_S'y = -v and counts if each y_i >= -1e-9 |y|_1 (a zero may round
    below).  Bases are drawn lazily and, with the nodes, run in chunks of at most
    ``_CHUNK_ELEMENTS`` numbers per temporary: memory does not grow with C(m, r).
    """
    n, m, d = R.shape
    norm = np.linalg.norm(R, axis=2)
    R = np.where(norm[..., None] > 1e-14, R, 0.0)
    _, sv, Vt = np.linalg.svd(R, full_matrices=False)
    rank = (sv > 1e-12).sum(axis=1)
    best = np.full(n, np.inf)
    for r in np.unique(rank):
        at, A, b = np.flatnonzero(rank == r), R[rank == r], v[rank == r]
        if r < d:
            Qt = Vt[at, :r]  # (nodes, r, d): the row space
            proj = (Qt @ b[:, :, None])[..., 0]
            inside = np.linalg.norm(b - (proj[:, None] @ Qt)[:, 0], axis=1) <= room[at]
            at, A, b = at[inside], (A @ Qt.transpose(0, 2, 1))[inside], proj[inside]
        total, bases = math.comb(m, r), combinations(range(m), r)
        tiny = 1e-12 * norm[at].max(axis=1) ** r
        budget = _CHUNK_ELEMENTS // (r * r + 3 * r + 1)  # (node, basis) pairs per chunk
        nodes = max(1, budget // total)
        width = max(1, budget // nodes)
        for _ in range(0, total, width):
            idx = np.array(list(islice(bases, width)), dtype=np.intp)
            for lo in range(0, len(at), nodes):
                part = at[lo:lo + nodes]
                M = A[lo:lo + nodes, idx].swapaxes(-1, -2)  # (nodes, bases, r, r): R_S'
                ok = np.abs(np.linalg.det(M)) > tiny[lo:lo + nodes, None]
                y = np.linalg.solve(np.where(ok[..., None, None], M, np.eye(r)),
                                    -b[lo:lo + nodes, None, :, None])[..., 0]
                ok &= np.all(y >= -1e-9 * np.abs(y).sum(axis=2, keepdims=True), axis=2)
                cost = np.where(ok, y.sum(axis=2), np.inf)
                best[part] = np.minimum(best[part], cost.min(axis=1))
    return best


def _interval_nodes(v: Array, lo_row: Array, hi_row: Array) -> Array:
    """One asset: sup of v*phi over {phi : rows*phi >= -1}, per node; the dual in closed form.

    ``lo_row``/``hi_row`` are each node's smallest and largest increment;
    increments within 1e-14 of zero count as zero.  The sup is v times the
    endpoint its sign points to: inf where no increment bounds that side, a
    recession direction of positive slope.
    """
    neg, pos = lo_row < -1e-14, hi_row > 1e-14
    hi, lo = _ratio(-1.0, lo_row, np.inf, neg), _ratio(-1.0, hi_row, -np.inf, pos)
    return v * np.where(v > 0, hi, np.where(v < 0, lo, 0.0))


@np.errstate(over="ignore", invalid="ignore")  # what overflows fails closed below
def verify_deflator(Z, market: MarketModel, *, tol: float = 1e-9) -> OracleReport:
    """Supermartingale-deflator check by one-step strategy optimization.

    For each node the oracle maximizes E[Z_n (1 + phi' dS_n) | block] over the
    closed admissibility polytope (including recession directions) and checks
    the optimum against Z_{n-1}.  Supports up to three assets.  The nodes of
    all dates are settled in one batched pass, with no LP solver: for one
    asset by the interval formulas of :func:`_interval_nodes`, for two or
    three by :func:`_dual_sup`, which enumerates the bases of each node's LP
    dual over the rows of its time-n child blocks (S is adapted, so these are
    all its atoms' rows), once per group of nodes with the same number of
    children; no feasible basis means a recession direction.  The worst node
    is the first (time, block) reaching the largest excess, with its kind:
    ``non-finite`` (a node sum is not finite), else ``recession``, else
    ``vertex``.
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
    if d == 1:
        sup = _interval_nodes(v[:, 0], filt.node_reduce(rows[:, :, 0], np.minimum)[live],
                              filt.node_reduce(rows[:, :, 0], np.maximum)[live])
    else:
        sup = np.empty(len(live))
        for at, R in _child_rows(filt, rows, live):
            sup[at] = _dual_sup(v[at], R, tol * np.maximum(1.0, np.abs(z_prev[at])))
    finite = np.isfinite(base) & np.isfinite(z_prev) & np.isfinite(v).all(axis=1)
    excess = np.where(finite, base + sup - z_prev, np.inf)
    worst, max_excess = None, -np.inf
    if len(live):
        j = int(np.argmax(excess))
        kind = "non-finite" if not finite[j] else "recession" if sup[j] == np.inf else "vertex"
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
