"""Exact stochastic calculus on finite discrete-time filtered probability spaces.

A space is a finite set of atoms with strictly positive weights and a
refinement chain of partitions (one partition per trading date 0..T).
Processes are plain ``(n_atoms, T+1)`` float arrays; every operation below is
a pure function of its inputs.  Conditional expectations are block-weighted
means, so every identity of discrete stochastic calculus (tower property,
Doob decomposition, Yor's formula, integration by parts) holds up to machine
rounding; ``TOL_EXACT`` is the library-wide tolerance for those checks.
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


def _canonical_block_ids(raw) -> Array:
    """Relabel block ids time by time in order of first appearance."""
    rows = []
    for row in raw:
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(first))
        rows.append(rank[inverse.ravel()])
    return np.vstack(rows)


@dataclass(frozen=True)
class Filtration:
    """A refinement chain of partitions encoded as a block id per (time, atom).

    ``block_ids[n, i]`` is the index of the time-n block containing atom i,
    numbered in order of first appearance.  Blocks at time n+1 must refine
    blocks at time n.

    Each level is also held in CSR form: ``order[n]`` lists the atoms sorted
    by time-n block (a stable argsort, so ascending inside each block),
    ``starts[n]`` gives the offset of every block in ``order[n]`` plus a
    final offset ``n_atoms``, and ``parent[n]`` maps each time-n block to
    the time-(n-1) block containing it (``parent[0]`` is all zeros).
    ``segment_reduce`` reduces atom-indexed values over the blocks of one
    level in a single ``ufunc.reduceat`` over this layout.
    """

    block_ids: Array
    order: Array = field(init=False, repr=False, compare=False)
    starts: tuple = field(init=False, repr=False, compare=False)
    parent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = _canonical_block_ids(np.atleast_2d(np.asarray(self.block_ids)))
        order = np.argsort(ids, axis=1, kind="stable")
        order.flags.writeable = False
        starts = tuple(np.concatenate(([0], np.cumsum(np.bincount(row))))
                       for row in ids)
        parent = [np.zeros(len(starts[0]) - 1, dtype=np.int64)]
        for n in range(1, ids.shape[0]):
            parent.append(ids[n - 1][order[n][starts[n][:-1]]])
            # each finer block must sit inside exactly one coarser block
            if not np.array_equal(parent[n][ids[n]], ids[n - 1]):
                raise SpaceValidationError(f"partition at time {n} does not refine time {n - 1}")
        object.__setattr__(self, "block_ids", ids)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "_blocks", {})

    @property
    def n_times(self) -> int:
        return self.block_ids.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.block_ids.shape[1]

    def blocks(self, n: int) -> tuple:
        """Atom-index arrays of the time-n partition (built on first use)."""
        if n not in self._blocks:
            self._blocks[n] = tuple(np.split(self.order[n], self.starts[n][1:-1]))
        return self._blocks[n]

    def segment_reduce(self, n: int, values, ufunc=np.add) -> Array:
        """``ufunc`` reduced over each time-n block; values are indexed by atom on axis 0."""
        return ufunc.reduceat(np.asarray(values)[self.order[n]], self.starts[n][:-1], axis=0)

    def first_where(self, n: int, x, mask):
        """Per time-n block: x at its first atom where mask holds (else 0), and if one exists."""
        idx = self.segment_reduce(n, np.where(mask, np.arange(self.n_atoms), self.n_atoms),
                                  np.minimum)
        found = idx < self.n_atoms
        return np.where(found, np.asarray(x)[np.minimum(idx, self.n_atoms - 1)], 0.0), found

    def _flat(self, n: int, x, tol: float) -> bool:
        """True iff x spreads by at most tol on every time-n block."""
        spread = self.segment_reduce(n, x, np.maximum) - self.segment_reduce(n, x, np.minimum)
        return not np.any(spread > tol)

    def is_adapted(self, X, tol: float = 0.0) -> bool:
        """True iff X[:, n] is constant on every time-n block."""
        V = as_values(X)
        return all(self._flat(n, V[:, n], tol) for n in range(self.n_times))

    def is_predictable(self, X, tol: float = 0.0) -> bool:
        """True iff X[:, n] is constant on time-(n-1) blocks, X[:, 0] deterministic."""
        V = as_values(X)
        if np.ptp(V[:, 0]) > tol:
            return False
        return all(self._flat(n - 1, V[:, n], tol) for n in range(1, self.n_times))


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
            raise SpaceValidationError(f"measure weights sum to {w.sum()!r}, not 1")


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
            raise SpaceValidationError(f"atom probabilities sum to {p.sum()!r}, not 1")
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

    def constant(self, value: float) -> Array:
        return np.full((self.n_atoms, self.horizon + 1), float(value))


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
        flags = tuple(filtration._flat(n, V[:, n], tol) for n in range(filtration.n_times))
        return cls(V, flags, filtration.is_predictable(V, tol))

    @property
    def is_adapted(self) -> bool:
        return all(self.adapted)


def cond_expect(X, block_ids, measure, *, allow_degenerate: bool = False):
    """Conditional expectation of an atom-indexed variable given a partition.

    Returns the block-probability-weighted mean of X, constant on each block.
    A zero-mass block yields the convention value 0 when ``allow_degenerate``
    is set and raises otherwise.  The second return value flags atoms lying
    in degenerate blocks.
    """
    x = np.asarray(X, dtype=float)
    ids = np.asarray(block_ids)
    w = measure.weights if isinstance(measure, ProbabilityMeasure) else np.asarray(measure, float)
    nb = ids.max() + 1
    mass = np.bincount(ids, weights=w, minlength=nb)
    sums = np.bincount(ids, weights=w * x, minlength=nb)
    dead = mass <= 0.0
    if np.any(dead) and not allow_degenerate:
        raise DegenerateConditioningError(
            f"zero-mass block(s) {np.flatnonzero(dead).tolist()} without degeneracy convention"
        )
    means = np.zeros(nb)
    np.divide(sums, mass, out=means, where=~dead)
    return means[ids], dead[ids]


def _cond(space, X, n_partition, measure=None, *, allow_degenerate=False):
    """E[X | F_{n_partition}] for a single atom-vector X."""
    meas = measure if measure is not None else space.measure
    out, _ = cond_expect(X, space.filtration.block_ids[n_partition], meas,
                         allow_degenerate=allow_degenerate)
    return out


def project(space, X, mode: str = "optional", *, filtration=None, measure=None,
            allow_degenerate: bool = False) -> Array:
    """Optional or predictable projection of a raw process.

    Optional mode conditions X at n on the time-n partition; predictable mode
    on the time-(n-1) partition, with the time-0 value conditioned on the
    trivial partition (deterministic).
    """
    V = as_values(X)
    filt = filtration if filtration is not None else space.filtration
    meas = measure if measure is not None else space.measure
    out = np.empty_like(V)
    for n in range(filt.n_times):
        if mode == "optional":
            ids = filt.block_ids[n]
        elif mode == "predictable":
            ids = filt.block_ids[n - 1] if n >= 1 else np.zeros(filt.n_atoms, dtype=np.int64)
        else:
            raise ValueError(f"unknown projection mode {mode!r}")
        out[:, n], _ = cond_expect(V[:, n], ids, meas, allow_degenerate=allow_degenerate)
    return out


def increments(X) -> Array:
    """One-step increments with the finite-variation convention dX_0 = X_0."""
    V = as_values(X)
    dX = np.empty_like(V)
    dX[:, 0] = V[:, 0]
    dX[:, 1:] = np.diff(V, axis=1)
    return dX


def dual_projection(space, A, mode: str = "optional", *, filtration=None, measure=None,
                    allow_degenerate: bool = False) -> Array:
    """Dual optional/predictable projection of a finite-variation raw process.

    Cumulative conditional expectations of the increments of A, with the
    time-0 increment equal to A_0.
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
    if filtration is not None:
        for comp in P3:
            if not filtration.is_predictable(comp, tol=0.0):
                raise ContractViolationError("integrand is not predictable")
    dX = np.diff(V3, axis=2)
    out = np.zeros(V3.shape[1:])
    out[:, 1:] = np.cumsum((P3[:, :, 1:] * dX).sum(axis=0), axis=1)
    return out


def stochastic_exponential(X) -> Array:
    """Discrete Doleans-Dade exponential: product of (1 + dX_k), value 1 at 0."""
    V = as_values(X)
    factors = np.ones_like(V)
    factors[:, 1:] = 1.0 + np.diff(V, axis=1)
    return np.cumprod(factors, axis=1)


def bracket(X, Y, mode: str = "optional", *, space=None) -> Array:
    """Quadratic covariation [X, Y]; predictable mode compensates it.

    Optional mode is the raw sum of dX_k dY_k (from k = 1); predictable mode
    returns the predictable dual projection <X, Y> and requires ``space``.
    """
    VX, VY = as_values(X), as_values(Y)
    prod = np.zeros_like(VX)
    prod[:, 1:] = np.diff(VX, axis=1) * np.diff(VY, axis=1)
    raw = np.cumsum(prod, axis=1)
    if mode == "optional":
        return raw
    if mode == "predictable":
        if space is None:
            raise ContractViolationError("predictable bracket needs the space")
        return dual_projection(space, raw, "predictable")
    raise ValueError(f"unknown bracket mode {mode!r}")


def doob_decomposition(space, X, *, filtration=None, measure=None):
    """Doob decomposition X = M + A with A predictable, A_0 = 0.

    dA_n = E[dX_n | F_{n-1}] for n >= 1; M = X - A carries X_0.
    """
    filt = filtration if filtration is not None else space.filtration
    meas = measure if measure is not None else space.measure
    V = as_values(X)
    dA = np.zeros_like(V)
    dX = np.diff(V, axis=1)
    for n in range(1, filt.n_times):
        dA[:, n], _ = cond_expect(dX[:, n - 1], filt.block_ids[n - 1], meas,
                                  allow_degenerate=True)
    A = np.cumsum(dA, axis=1)
    return V - A, A


@dataclass(frozen=True)
class ClassifyReport:
    """Outcome of a martingale scan: verdict plus exact residual extremes.

    ``max_residual`` is the sup-norm of the one-step conditional-mean
    increments; ``sup_residual``/``inf_residual`` are their signed extremes.
    """

    verdict: str
    max_residual: float
    sup_residual: float
    inf_residual: float

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
    meas = measure if measure is not None else space.measure
    V = as_values(X)
    w = meas.weights if isinstance(meas, ProbabilityMeasure) else np.asarray(meas, float)
    sup, inf = 0.0, 0.0
    dX = np.diff(V, axis=1)
    for n in range(1, filt.n_times):
        ids = filt.block_ids[n - 1]
        nb = ids.max() + 1
        mass = np.bincount(ids, weights=w, minlength=nb)
        sums = np.bincount(ids, weights=w * dX[:, n - 1], minlength=nb)
        live = mass > 0.0
        if not np.any(live):
            continue
        r = sums[live] / mass[live]
        if not np.all(np.isfinite(r)):
            return ClassifyReport("none", np.inf, np.inf, -np.inf)
        sup = max(sup, float(r.max()))
        inf = min(inf, float(r.min()))
    max_res = max(sup, -inf)
    if max_res <= tol:
        verdict = "martingale"
    elif sup <= tol:
        verdict = "supermartingale"
    elif -inf <= tol:
        verdict = "submartingale"
    else:
        verdict = "none"
    return ClassifyReport(verdict, max_res, sup, inf)


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
    w = w / w.sum()
    return ProbabilityMeasure(w)


def stop(X, times) -> Array:
    """Stop a process at a per-atom time: X_{n ∧ times}."""
    V = as_values(X)
    t = np.minimum(np.arange(V.shape[1])[None, :], np.asarray(times)[:, None])
    return np.take_along_axis(V, t, axis=1)
