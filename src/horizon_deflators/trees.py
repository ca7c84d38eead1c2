"""Generators for random filtered trees, random times, and arbitrage-free markets.

The randomized suites in the test battery draw from these: refinement chains
with bounded width and depth, death times (unrestricted, or ``regular`` in
the sense that no sub-cell ever dies out completely while a sibling of the
same parent block still carries survivors — the discrete counterpart of the
strict-positivity hypothesis of the continuous theory), and price processes
built around an explicitly chosen one-step martingale measure so that an
exact local martingale deflator is known by construction.
"""

from __future__ import annotations

import numpy as np

from .enlargement import _alive
from .market import MarketModel
from .prob_core import FiniteFilteredSpace, project


def two_period_demo():
    """Four equally likely atoms over two dates with a binomial price.

    The public filtration reveals an up/down move at date 1 and everything at
    date 2; the death dates are (2, 1, 2, 0).  Returns (space, tau, S).
    """
    space = FiniteFilteredSpace.from_partitions(
        ("w1", "w2", "w3", "w4"),
        (0.25, 0.25, 0.25, 0.25),
        [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3]],
    )
    tau = np.array([2, 1, 2, 0])
    S = np.array([
        [1.0, 2.0, 4.0],
        [1.0, 2.0, 1.0],
        [1.0, 0.5, 1.0],
        [1.0, 0.5, 0.25],
    ])
    return space, tau, S


def random_space(rng, *, max_horizon: int = 6, max_atoms: int = 64,
                 dyadic: bool = False) -> FiniteFilteredSpace:
    """A random refinement chain with strictly positive atom weights."""
    T = int(rng.integers(2, max_horizon + 1))
    # cell tree: parent_rows[level - 1] holds each level cell's parent cell
    n_cells = [int(rng.integers(1, 3))]  # number of cells at level 0
    parent_rows = []
    for level in range(1, T + 1):
        row = []
        for cell in range(n_cells[level - 1]):
            k = int(rng.integers(1, 4))
            row.extend([cell] * k)
        # trim uniformly if the frontier would overflow the atom budget
        while len(row) > max_atoms:
            drop = int(rng.integers(0, len(row)))
            # keep at least one child per parent
            if row.count(row[drop]) > 1:
                row.pop(drop)
        parent_rows.append(row)
        n_cells.append(len(row))
    n_atoms = n_cells[-1]
    # block ids per level for each atom (= leaf)
    ids = np.zeros((T + 1, n_atoms), dtype=np.int64)
    ids[T] = np.arange(n_atoms)
    for level in range(T - 1, -1, -1):
        ids[level] = np.array(parent_rows[level], dtype=np.int64)[ids[level + 1]]
    if dyadic:
        raw = 2.0 ** rng.integers(0, 3, size=n_atoms)
    else:
        raw = rng.uniform(0.2, 1.0, size=n_atoms)
    probs = raw / raw.sum()
    outcomes = tuple(f"w{i}" for i in range(n_atoms))
    return FiniteFilteredSpace.from_partitions(outcomes, probs, ids)


def random_tau(rng, space: FiniteFilteredSpace) -> np.ndarray:
    """An unrestricted random death date per atom."""
    return rng.integers(0, space.horizon + 1, size=space.n_atoms)


def regular_tau(rng, space: FiniteFilteredSpace) -> np.ndarray:
    """A random death date whose sub-cells never die out under live parents.

    Survivor pools follow the refinement tree; a pool stops at step j with
    probability 0.35, leaving one representative dying exactly at j-1 (keeping
    its cell reachable) and scattering the rest below, while pools that survive
    the final step die at the horizon block-for-block.  The resulting time
    satisfies: no time-k cell has all atoms dead before k while its time-(k-1)
    parent still holds an atom with tau >= k.
    """
    T = space.horizon
    tau = np.zeros(space.n_atoms, dtype=np.int64)
    pools = [atoms for atoms in space.filtration.blocks(0)]
    for j in range(1, T + 1):
        next_pools = []
        for atoms in pools:
            if rng.random() < 0.35:
                rep = atoms[int(rng.integers(0, len(atoms)))]
                tau[atoms] = rng.integers(0, j, size=len(atoms))
                tau[rep] = j - 1
            else:
                ids = space.filtration.block_ids[j][atoms]
                for b in np.unique(ids):
                    next_pools.append(atoms[ids == b])
        pools = next_pools
    for atoms in pools:
        tau[atoms] = T
    return tau


def is_regular(space: FiniteFilteredSpace, tau) -> bool:
    """True iff no cell with G~_k = 0 sits under a block with G_{k-1} > 0."""
    filt = space.filtration
    alive = _alive(np.asarray(tau), space.horizon).T
    date, first = (col[filt.offsets[1]:] for col in filt.node_atoms())
    block_alive = filt.node_reduce(alive)[filt.nodes[date - 1, first]] > 0
    return not np.any(block_alive & (filt.node_reduce(alive, first=1) <= 0))


def random_market(rng, space: FiniteFilteredSpace, *, n_assets: int = 1):
    """An arbitrage-free market with a known local martingale deflator.

    Prices are built around a strictly positive one-step measure q chosen per
    node: moves uniform within 0.35 of the last price, recentred so that q
    prices every asset to zero drift.  Returns (market, Z) where Z is the
    density martingale of q, an exact local martingale deflator for the market.
    """
    T, n = space.horizon, space.n_atoms
    S = np.ones((n_assets, n, T + 1))
    density = np.ones(n)  # dq/dP per atom, built as a product of one-step ratios
    filt = space.filtration
    mass = filt.node_mass(space.probs)
    for k in range(1, T + 1):
        for atoms in filt.blocks(k - 1):
            kids, cell = np.unique(filt.block_ids[k][atoms], return_inverse=True)
            qc = rng.uniform(0.2, 1.0, size=len(kids))
            qc = qc / qc.sum()
            pc = mass[filt.offsets[k] + kids] / mass[filt.nodes[k - 1, atoms[0]]]
            density[atoms] *= (qc / pc)[cell]
            for i in range(n_assets):
                prev = S[i, atoms[0], k - 1]
                moves = rng.uniform(-0.35, 0.35, size=len(kids)) * prev
                moves = moves - qc @ moves
                S[i, atoms, k] = S[i, atoms, k - 1] + moves[cell]
    Z = project(space, np.repeat(density[:, None], T + 1, axis=1))
    market = MarketModel.from_prices(space, S if n_assets > 1 else S[0])
    return market, Z


def random_martingale(rng, space: FiniteFilteredSpace, *, positive: bool = False,
                      measure=None) -> np.ndarray:
    """An exact martingale from conditional expectations of a terminal draw,
    uniform on [0.25, 2.0) if ``positive``, else standard normal.

    A measure with zero-mass atoms may be supplied (degenerate blocks take the
    convention value 0); the result is a martingale under that measure.
    """
    if positive:
        xi = rng.uniform(0.25, 2.0, size=space.n_atoms)
    else:
        xi = rng.normal(size=space.n_atoms)
    meas = measure if measure is not None else space.measure
    return project(space, np.repeat(xi[:, None], space.horizon + 1, axis=1), measure=meas,
                   allow_degenerate=True)


def random_driver(rng, space: FiniteFilteredSpace) -> np.ndarray:
    """A martingale driver K with K_0 = 0 and 1 + dK > 0 (exponential positive)."""
    M = random_martingale(rng, space, positive=True)
    K = np.zeros_like(M)
    K[:, 1:] = np.cumsum(np.diff(M, axis=1) / M[:, :-1], axis=1)
    return K


def random_predictable_nondecreasing(rng, space: FiniteFilteredSpace, *,
                                     max_step: float = 0.25) -> np.ndarray:
    """A predictable nondecreasing V with V_0 = 0 and increments < 1."""
    T, n = space.horizon, space.n_atoms
    V = np.zeros((n, T + 1))
    for k in range(1, T + 1):
        ids = space.filtration.block_ids[k - 1]
        V[:, k] = V[:, k - 1] + rng.uniform(0.0, max_step, size=ids.max() + 1)[ids]
    return V


def random_optional_integrand(rng, rts) -> np.ndarray:
    """An adapted integrand against N_G inside the strict admissible interval.

    Per public time-k cell the admissible interval for the product route is
    (-G~/G, G~/(G~-G)) with vanishing denominators read as +/-infinity; the
    draw stays inside 0.9 of the interval (capped for unbounded sides).
    """
    space, T = rts.space, rts.horizon
    phi = np.zeros((space.n_atoms, T + 1))
    for k in range(1, T + 1):
        for atoms in space.filtration.blocks(k):
            i = atoms[0]
            g, gt = rts.G[i, k], rts.G_tilde[i, k]
            lo = -gt / g * 0.9 if g > 0 else -2.0
            hi = gt / (gt - g) * 0.9 if gt > g else 2.0
            if gt <= 0:
                lo, hi = -2.0, 2.0
            phi[atoms, k] = rng.uniform(max(lo, -8.0), min(hi, 8.0))
    return phi


def random_progressive_integrand(rng, rts) -> np.ndarray:
    """A progressive integrand vanishing at tau (the tree collapse) but free off it."""
    space, T = rts.space, rts.horizon
    phi = rng.uniform(-0.5, 0.5, size=(space.n_atoms, T + 1))
    phi[np.arange(space.n_atoms), rts.tau] = 0.0
    return phi
