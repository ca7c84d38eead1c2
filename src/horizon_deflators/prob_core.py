"""Exact stochastic calculus on finite discrete-time filtered probability spaces.

A space is a finite set of atoms with strictly positive weights and a
refinement chain of partitions (one partition per trading date 0..T).
Processes are plain ``(n_atoms, T+1)`` float arrays; every operation below is
a pure function of its inputs.  Conditional expectations are block-weighted
means, so every identity of discrete stochastic calculus (tower property,
Doob decomposition, Yor's formula, integration by parts) holds up to machine
rounding; ``TOL_EXACT`` is the library-wide tolerance for those checks.

A finite-variation process is handled as its increments (column 0 the time-0
value, as :func:`increments` has them).  A projection or bracket projects the
increments and sums them to a level once; no level is differenced back, since
a level near 1 absorbs an increment below its ulp.

Every reduction over the blocks of all dates runs on one index, the
space-time node ids of :class:`Filtration`: one int64 node id per (date,
atom), time-major, built on first use (8 bytes per atom and date).  Each is
one :meth:`Filtration.node_reduce` over all dates: one ``bincount`` for a
sum, one ``ufunc.at`` for a minimum or maximum.  Each node takes in its atoms
in atom order; a sum starts from 0.0, as :func:`cond_expect` does on one
partition, so every layer rounds its node sums alike, and bit for bit as the
date-by-date computation did.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateConditioningError,
    SpaceValidationError,
)

TOL_EXACT = 1e-12

Array = np.ndarray


def as_values(X) -> Array:
    """Unwrap an AdaptedProcess (or pass an array through) as a float array."""
    return np.asarray(getattr(X, "values", X), dtype=float)


def _canonical_level(row, ids) -> Array:
    """Fill one level's block ids (numbered by first appearance); return each block's first atom."""
    _, first, label = np.unique(row, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(first))
    ids[:] = rank[label]
    return first[by_first]


@dataclass(frozen=True)
class Filtration:
    """A refinement chain of partitions encoded as a block id per (time, atom).

    ``block_ids[n, i]`` is the index of the time-n block containing atom i,
    numbered in order of first appearance.  Blocks at time n+1 must refine
    blocks at time n; ``parent[n]`` maps each time-n block to the time-(n-1)
    block containing it (``parent[0]`` is all zeros).

    The space-time index numbers every (date, block) node once: block b of
    time n is node ``offsets[n] + b``.  ``nodes``, built on first use, holds
    the node of every (date, atom), time-major, in one int64 array (8 bytes
    per atom and date); its first T rows are the time-(n-1) maps of the
    predictable projections and increment scans.  ``heads[v]`` is the
    time-major cell ``n * n_atoms + i`` of node v's first atom i.  This is
    the one index of the blocks: every per-date reduction of the library
    runs over all dates at once on it, through :meth:`node_reduce`, and
    each node takes in its atoms in atom order, as a reduction over its
    date alone does, so the results are bit-identical to date-by-date loops.
    """

    block_ids: Array
    parent: tuple = field(init=False, repr=False, compare=False)
    offsets: Array = field(init=False, repr=False, compare=False)
    heads: Array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.atleast_2d(np.asarray(self.block_ids))
        ids = np.empty(raw.shape, dtype=np.int64)
        firsts = list(map(_canonical_level, raw, ids))
        parent = [np.zeros(len(firsts[0]), dtype=np.int64)]
        for n in range(1, ids.shape[0]):
            parent.append(ids[n - 1][firsts[n]])
            # each finer block must sit inside exactly one coarser block
            if not np.array_equal(parent[n][ids[n]], ids[n - 1]):
                raise SpaceValidationError(f"partition at time {n} does not refine time {n - 1}")
        object.__setattr__(self, "block_ids", ids)
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "offsets", np.cumsum([0] + list(map(len, firsts))))
        object.__setattr__(self, "heads", np.concatenate(
            [n * raw.shape[1] + first for n, first in enumerate(firsts)]))
        object.__setattr__(self, "_cache", {})

    @property
    def n_times(self) -> int:
        return self.block_ids.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.block_ids.shape[1]

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @property
    def nodes(self) -> Array:
        """The node of every (date, atom), time-major (built on first use)."""
        return self._cached("nodes", lambda: self.block_ids + self.offsets[:-1, None])

    def node_atoms(self):
        """(date, first atom) of every node."""
        return np.divmod(self.heads, self.n_atoms)

    def node_mass(self, w) -> Array:
        """Mass of every node under atom weights w; the last w's masses are kept."""
        held = self._cache.get("mass")
        if held is None or not np.array_equal(held[0], w):
            mass = self.node_reduce(np.broadcast_to(w, (self.n_times, self.n_atoms)))
            held = self._cache["mass"] = (np.array(w, dtype=float), mass)
        return held[1]

    def blocks(self, n: int) -> tuple:
        """Atom-index arrays of the time-n partition, atoms ascending (built on first use)."""
        ids = self.block_ids[n]
        return self._cached(n, lambda: tuple(np.split(np.argsort(ids, kind="stable"),
                                                      np.cumsum(np.bincount(ids))[:-1])))

    def node_reduce(self, rows, ufunc=np.add, first: int = 0) -> Array:
        """``ufunc`` over every node of the dates first, first+1, ...: one bincount or ufunc.at.

        ``rows`` is time-major: ``rows[j]``, for date first+j, is indexed by
        atom on its axis 0.  The result is indexed by node minus ``offsets[first]``.
        Each node takes in its atoms in atom order: a sum (``np.add``) in one
        ``bincount`` from 0.0; ``np.minimum`` or ``np.maximum`` in one
        ``ufunc.at`` per trailing index from the node's first atom, so a NaN
        propagates and a tie of -0.0 and 0.0 resolves as that fold does.
        """
        rows = np.asarray(rows)
        m, n = len(rows), self.n_atoms
        lo, hi = self.offsets[first], self.offsets[first + m]
        k = int(np.prod(rows.shape[2:]))
        ids = self.nodes[first:first + m]
        if ufunc is np.add:
            if k != 1:  # one bin per (node, trailing index)
                ids = ids[..., None] * k + np.arange(k)
            sums = np.bincount(ids.ravel(), weights=rows.ravel(), minlength=hi * k)
            return sums[lo * k:].reshape((hi - lo,) + rows.shape[2:])
        ids, heads = ids.ravel(), self.heads[lo:hi] - first * n
        out = np.empty((k, hi), rows.dtype)
        with np.errstate(invalid="ignore"):  # a NaN propagates, as it should
            for col, acc in zip(rows.reshape(m * n, k).T, out):
                col = np.ascontiguousarray(col)
                acc[lo:] = col[heads]
                ufunc.at(acc, ids, col)
        return out[:, lo:].T.reshape((hi - lo,) + rows.shape[2:])

    def segment_reduce(self, n: int, values, ufunc=np.add) -> Array:
        """``ufunc`` reduced over each time-n block; values are indexed by atom on axis 0."""
        return self.node_reduce(np.asarray(values)[None], ufunc, n)

    def first_where(self, n: int, x, mask):
        """Per node: x at its first atom where mask holds (else 0), and if one exists.

        With a 1-d ``mask``, x and mask are indexed by atom and the nodes are
        the time-n blocks; with time-major ``(m, n_atoms)`` rows, the nodes
        of the dates n..n+m-1.  x may carry trailing axes.
        """
        mask = np.asarray(mask)
        rows = mask.reshape(-1, self.n_atoms)
        size = rows.size
        pos = self.node_reduce(np.where(rows, np.arange(size).reshape(rows.shape), size),
                               np.minimum, n)
        found = pos < size
        x = np.asarray(x).reshape((size,) + np.shape(x)[mask.ndim:])
        value = x[np.minimum(pos, size - 1)]
        return np.where(found.reshape((-1,) + (1,) * (x.ndim - 1)), value, 0.0), found

    def spread_ok(self, rows, tol: float = 0.0) -> Array:
        """Per node of the dates 0, 1, ...: rows spread by at most tol on it.

        Fails closed: a NaN, or a block that is inf throughout, fails.
        """
        hi = self.node_reduce(rows, np.maximum)
        with np.errstate(invalid="ignore"):
            return hi - self.node_reduce(rows, np.minimum) <= tol

    def is_adapted(self, X, tol: float = 0.0) -> bool:
        """True iff X[..., n] is constant on every time-n block (X may stack processes)."""
        return bool(self.spread_ok(as_values(X).T, tol).all())

    def is_predictable(self, X, tol: float = 0.0) -> bool:
        """True iff X[..., n] is constant on time-(n-1) blocks, X[..., 0] deterministic."""
        V = as_values(X)
        return bool(np.all(np.ptp(V[..., 0], axis=-1) <= tol)
                    and self.spread_ok(V.T[1:], tol).all())


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Nonnegative atom weights summing to one (zero weights permitted)."""

    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)):
            raise SpaceValidationError("measure weights must be finite")
        if np.any(w < -TOL_EXACT):
            raise SpaceValidationError("measure weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise SpaceValidationError(f"measure weights sum to {float(w.sum())!r}, not 1")


@dataclass(frozen=True)
class FiniteFilteredSpace:
    """Finite outcome space, strictly positive weights, and a filtration.

    ``horizon`` is the final trading date T; the filtration carries T+1
    partitions, coarsest first.
    """

    outcomes: tuple
    probs: Array
    horizon: int
    filtration: Filtration

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if self.horizon < 1:
            raise SpaceValidationError("horizon must be >= 1")
        if len(self.outcomes) != len(p):
            raise SpaceValidationError("outcomes and probs disagree in length")
        try:
            unique = len(set(self.outcomes)) == len(self.outcomes)
        except TypeError as exc:
            raise SpaceValidationError(f"atom ids must be hashable: {exc}") from exc
        if not unique:
            count = Counter(self.outcomes)
            repeated = next(o for o in self.outcomes if count[o] > 1)
            raise SpaceValidationError(f"duplicate atom id {repeated!r}")
        if not np.all(np.isfinite(p)):
            raise SpaceValidationError("atom probabilities must be finite")
        if np.any(p <= 0):
            raise SpaceValidationError("atom probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise SpaceValidationError(f"atom probabilities sum to {float(p.sum())!r}, not 1")
        if self.filtration.n_times != self.horizon + 1:
            raise SpaceValidationError("filtration must carry horizon+1 partitions")
        if self.filtration.n_atoms != len(self.outcomes):
            raise SpaceValidationError("filtration atom count mismatch")

    @classmethod
    def from_partitions(cls, outcomes, probs, partitions) -> "FiniteFilteredSpace":
        filt = Filtration(np.asarray(partitions))
        return cls(tuple(outcomes), np.asarray(probs, float), len(partitions) - 1, filt)

    @property
    def n_atoms(self) -> int:
        return len(self.outcomes)

    @property
    def measure(self) -> ProbabilityMeasure:
        return ProbabilityMeasure(self.probs)


@dataclass(frozen=True)
class AdaptedProcess:
    """Process values with their measurability certificate.

    ``adapted[n]`` certifies constancy on time-n blocks; ``predictable`` adds
    constancy on time-(n-1) blocks with a deterministic time-0 value.
    """

    values: Array
    adapted: tuple
    predictable: bool

    @classmethod
    def from_values(cls, filtration: Filtration, values, tol: float = 0.0):
        V = np.asarray(values, dtype=float)
        ok = filtration.spread_ok(V.T, tol)
        flags = np.logical_and.reduceat(ok, filtration.offsets[:-1])
        return cls(V, tuple(map(bool, flags)), filtration.is_predictable(V, tol))

    @property
    def is_adapted(self) -> bool:
        return all(self.adapted)


def _ratio(num, den, fill: float = 0.0, where=None) -> Array:
    """num / den where ``where`` holds (by default where den > 0), ``fill`` elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(den), fill),
                     where=den > 0.0 if where is None else where)


def _weights(measure, space=None) -> Array:
    """The atom weights of a measure or weight array; of the space's own measure if None."""
    if measure is None:
        return space.probs
    return measure.weights if isinstance(measure, ProbabilityMeasure) else np.asarray(measure, float)


def cond_expect(X, block_ids, measure, *, allow_degenerate: bool = False):
    """Conditional expectation of an atom-indexed variable given a partition.

    Returns the block-probability-weighted mean of X, constant on each block.
    A zero-mass block yields the convention value 0 when ``allow_degenerate``
    is set and raises otherwise.  The second return value flags atoms lying
    in degenerate blocks.
    """
    ids, w = np.asarray(block_ids), _weights(measure)
    nb = ids.max() + 1
    mass = np.bincount(ids, weights=w, minlength=nb)
    sums = np.bincount(ids, weights=w * np.asarray(X, dtype=float), minlength=nb)
    return _means(sums, mass, [0, nb], allow_degenerate)[ids], (mass <= 0.0)[ids]


def _means(sums, mass, offsets, allow_degenerate: bool) -> Array:
    """sums / mass per block, 0 on a zero-mass block, which raises unless allowed.

    ``offsets`` delimit the dates; the error names the zero-mass blocks of
    the first date that has one.
    """
    dead = mass <= 0.0
    if not allow_degenerate and dead.any():
        lo, hi = offsets[np.searchsorted(offsets, np.argmax(dead), side="right") - 1:][:2]
        raise DegenerateConditioningError(
            f"zero-mass block(s) {np.flatnonzero(dead[lo:hi]).tolist()} without degeneracy convention")
    return _ratio(sums, mass, where=~dead)


def _node_means(filt: Filtration, weighted, w, allow_degenerate: bool):
    """(mean, mass) per node of dates 0..m-1, m = len(weighted).

    ``weighted`` is time-major: row n holds w times the values conditioned on
    the time-n partition.  :meth:`Filtration.node_reduce` sums them (the
    masses are :meth:`Filtration.node_mass`).
    """
    mass = filt.node_mass(w)[:filt.offsets[len(weighted)]]
    return _means(filt.node_reduce(weighted), mass, filt.offsets, allow_degenerate), mass


def _date_of(filt: Filtration, node):
    """The date of a node id (elementwise for an array of ids)."""
    return np.searchsorted(filt.offsets, node, side="right") - 1


def _step(filt: Filtration, node) -> tuple:
    """(k, block) of the time-(k-1) node at which a one-step scan starts."""
    n = int(_date_of(filt, node))
    return n + 1, int(node - filt.offsets[n])


def _cond_rows(filt: Filtration, rows, w, allow_degenerate: bool) -> Array:
    """(n_atoms, m) table of E[rows[n] | time-n partition], n < m = len(rows)."""
    means, _ = _node_means(filt, np.multiply(rows, w, order="C"), w, allow_degenerate)
    return means[filt.nodes[:len(rows)].T]


def project(space, X, mode: str = "optional", *, filtration=None, measure=None,
            allow_degenerate: bool = False) -> Array:
    """Optional or predictable projection of a raw process.

    Optional mode conditions X at n on the time-n partition; predictable mode
    on the time-(n-1) partition, with the time-0 value conditioned on the
    trivial partition (deterministic).
    """
    V = as_values(X)
    filt = filtration if filtration is not None else space.filtration
    w = _weights(measure, space)
    out = np.empty_like(V)
    if mode == "optional":
        out[:] = _cond_rows(filt, V.T, w, allow_degenerate)
    elif mode == "predictable":
        out[:, 0], _ = cond_expect(V[:, 0], np.zeros(filt.n_atoms, dtype=np.int64), w,
                                   allow_degenerate=allow_degenerate)
        out[:, 1:] = _cond_rows(filt, V.T[1:], w, allow_degenerate)
    else:
        raise ValueError(f"unknown projection mode {mode!r}")
    return out


def increments(X) -> Array:
    """One-step increments with the finite-variation convention dX_0 = X_0."""
    return np.diff(as_values(X), axis=1, prepend=0.0)


def dual_projection(space, A, mode: str = "optional", *, filtration=None, measure=None,
                    allow_degenerate: bool = False) -> Array:
    """Dual optional/predictable projection of a finite-variation raw process.

    Cumulative conditional expectations of the increments of A, with the
    time-0 increment equal to A_0: one projection, one sum.
    """
    return np.cumsum(project(space, increments(A), mode, filtration=filtration,
                             measure=measure, allow_degenerate=allow_degenerate), axis=1)


def stochastic_integral(phi, X, *, filtration=None) -> Array:
    """Discrete stochastic integral: sum of phi_k * dX_k over 0 < k <= n.

    Accepts single processes of shape (n_atoms, T+1) or d-asset stacks of
    shape (d, n_atoms, T+1); the d-asset form sums componentwise.  When a
    filtration is supplied, phi must be predictable.
    """
    P = np.asarray(as_values(phi))
    V = np.asarray(as_values(X))
    if P.ndim == 2 and V.ndim == 2:
        P3, V3 = P[None], V[None]
    elif P.ndim == 3 and V.ndim == 3 and P.shape == V.shape:
        P3, V3 = P, V
    else:
        raise ContractViolationError("integrand and integrator shapes disagree")
    if filtration is not None and not filtration.is_predictable(P3):
        raise ContractViolationError("integrand is not predictable")
    dX = np.diff(V3, axis=2)
    out = np.zeros(V3.shape[1:])
    out[:, 1:] = np.cumsum((P3[:, :, 1:] * dX).sum(axis=0), axis=1)
    return out


def _steps(dX, p=None) -> Array:
    """The factors 1 + p_k dX_k of E(p . X), k = 1..T, from X's increments (p = 1 if None)."""
    return 1.0 + (dX[:, 1:] if p is None else p[:, 1:] * dX[:, 1:])


def _compound(steps) -> Array:
    """Running products of one-step factors (atom, k = 1..T), with value 1 at time 0."""
    out = np.empty((steps.shape[0], steps.shape[1] + 1))
    out[:, 0] = 1.0
    np.cumprod(steps, axis=1, out=out[:, 1:])
    return out


def stochastic_exponential(X) -> Array:
    """Discrete Doleans-Dade exponential: product of (1 + dX_k), value 1 at 0."""
    return _compound(1.0 + np.diff(as_values(X), axis=1))


def bracket(X, Y, mode: str = "optional", *, space=None) -> Array:
    """Quadratic covariation [X, Y]; predictable mode compensates it.

    Optional mode is the raw sum of dX_k dY_k (from k = 1); predictable mode
    sums their predictable projections, the dual projection <X, Y>, and
    requires ``space``.
    """
    prod = increments(X) * increments(Y)
    prod[:, 0] = 0.0
    if mode == "predictable":
        if space is None:
            raise ContractViolationError("predictable bracket needs the space")
        prod = project(space, prod, "predictable")
    elif mode != "optional":
        raise ValueError(f"unknown bracket mode {mode!r}")
    return np.cumsum(prod, axis=1)


def doob_decomposition(space, X, *, filtration=None, measure=None):
    """Doob decomposition X = M + A with A predictable, A_0 = 0.

    dA_n = E[dX_n | F_{n-1}] for n >= 1; M = X - A carries X_0.
    """
    filt = filtration if filtration is not None else space.filtration
    w = _weights(measure, space)
    V = as_values(X)
    dA = _cond_rows(filt, increments(V).T[1:], w, True)
    A = np.cumsum(np.insert(dA, 0, 0.0, axis=1), axis=1)
    return V - A, A


@dataclass(frozen=True)
class ClassifyReport:
    """Outcome of a martingale scan: verdict plus exact residual extremes.

    ``max_residual`` is the sup-norm of the one-step conditional-mean
    increments; ``sup_residual``/``inf_residual`` are their signed extremes.
    ``worst`` is the node (time k, time-(k-1) block) of the largest
    |residual| (of the first non-finite one, if any), None without a
    reachable node.
    """

    verdict: str
    max_residual: float
    sup_residual: float
    inf_residual: float
    worst: tuple | None = None

    @property
    def is_martingale(self) -> bool:
        return self.verdict == "martingale"


def classify(space, X, *, filtration=None, measure=None, tol: float = TOL_EXACT) -> ClassifyReport:
    """Classify an adapted process as martingale / super / sub / none.

    Residuals are E[dX_n | time-(n-1) block] over every reachable block;
    blocks with zero mass under the supplied measure impose no constraint.
    A non-finite residual is reported as inf with verdict ``"none"``.
    """
    filt = filtration if filtration is not None else space.filtration
    return _classify_steps(filt, increments(X), _weights(measure, space), tol)


def _classify_steps(filt: Filtration, dX, w, tol: float) -> ClassifyReport:
    """:func:`classify` of the process with increments dX, under atom weights w."""
    means, mass = _node_means(filt, np.multiply(dX.T[1:], w, order="C"), w, True)
    live = np.flatnonzero(mass > 0.0)
    r = means[live]
    bad = ~np.isfinite(r)
    worst = _step(filt, live[np.argmax(bad) if bad.any() else np.argmax(np.abs(r))]) if r.size else None
    if bad.any():
        return ClassifyReport("none", np.inf, np.inf, -np.inf, worst)
    sup = max(0.0, float(r.max())) if r.size else 0.0
    inf = min(0.0, float(r.min())) if r.size else 0.0
    max_res = max(sup, -inf)
    if max_res <= tol:
        verdict = "martingale"
    elif sup <= tol:
        verdict = "supermartingale"
    elif -inf <= tol:
        verdict = "submartingale"
    else:
        verdict = "none"
    return ClassifyReport(verdict, max_res, sup, inf, worst)


def change_measure(space, density) -> ProbabilityMeasure:
    """Absolutely continuous measure change from a terminal density.

    The density must be nonnegative with unit mean under the base measure;
    the new atom weights are density * P(atom).
    """
    d = np.asarray(density, dtype=float)
    if d.ndim != 1 or len(d) != space.n_atoms:
        raise SpaceValidationError("density must be one value per atom")
    if np.any(d < 0):
        raise SpaceValidationError("density must be nonnegative")
    mean = float(d @ space.probs)
    if abs(mean - 1.0) > 1e-9:
        raise SpaceValidationError(f"density has mean {mean!r}, not 1")
    w = d * space.probs
    return ProbabilityMeasure(w / w.sum())


def stop(X, times) -> Array:
    """Stop a process at a per-atom time: X_{n ∧ times}."""
    V = as_values(X)
    t = np.minimum(np.arange(V.shape[1])[None, :], np.asarray(times)[:, None])
    return np.take_along_axis(V, t, axis=1)
