"""Seeded inputs for the CLI benchmark, built with numpy alone.

Nothing here imports ``horizon_deflators``: a refactor of the library's own
tree generators must not change what the benchmark feeds the CLI.

Every model is a full ``b``-ary tree of depth ``T``: atom ``i`` sits in the
time-``n`` block ``i // b**(T - n)``, so each block is a contiguous run of
atoms and every block reduction below is a reshape and a sum.  The same
helpers give the benchmark's own survival objects, which the output checks
compare the CLI against.
"""

from __future__ import annotations

import json
import os

import numpy as np


class Tree:
    """A full b-ary tree of depth T with atom weights (summing to one)."""

    def __init__(self, branching: int, horizon: int, probs):
        self.b = branching
        self.T = horizon
        self.n_atoms = branching ** horizon
        self.probs = np.asarray(probs, dtype=float)
        if self.probs.shape != (self.n_atoms,):
            raise ValueError("one weight per atom expected")

    @classmethod
    def random(cls, rng, branching: int, horizon: int) -> "Tree":
        raw = rng.uniform(0.2, 1.0, size=branching ** horizon)
        return cls(branching, horizon, raw / raw.sum())

    def block_size(self, n: int) -> int:
        return self.b ** (self.T - n)

    def block_ids(self, n: int) -> np.ndarray:
        return np.arange(self.n_atoms) // self.block_size(n)

    def block_sums(self, x, n: int) -> np.ndarray:
        """Sum of an atom vector over each time-n block."""
        return np.asarray(x, dtype=float).reshape(-1, self.block_size(n)).sum(axis=1)

    def block_mean(self, x, n: int) -> np.ndarray:
        """E[x | F_n] as an atom vector (weights are strictly positive)."""
        num = self.block_sums(self.probs * x, n)
        den = self.block_sums(self.probs, n)
        return np.repeat(num / den, self.block_size(n))

    def survival(self, tau):
        """(G, G_tilde, Z_bar) from block means of 1{tau > n} and 1{tau >= n}."""
        tau = np.asarray(tau)
        grid = np.arange(self.T + 1)
        G = np.stack([self.block_mean(tau > n, n) for n in grid], axis=1)
        Gt = np.stack([self.block_mean(tau >= n, n) for n in grid], axis=1)
        Z_bar = np.ones_like(G)
        for k in range(1, self.T + 1):
            prev = G[:, k - 1]
            ratio = np.ones_like(prev)
            np.divide(Gt[:, k], prev, out=ratio, where=prev > 0.0)
            Z_bar[:, k] = Z_bar[:, k - 1] * ratio
        return G, Gt, Z_bar

    def martingale_residual(self, X) -> float:
        """Largest |E[X_k - X_{k-1} | F_{k-1}]| over all nodes."""
        X = np.asarray(X, dtype=float)
        worst = 0.0
        for k in range(1, self.T + 1):
            r = self.block_mean(X[:, k] - X[:, k - 1], k - 1)
            worst = max(worst, float(np.max(np.abs(r))))
        return worst if np.all(np.isfinite(X)) else float("inf")


def stop(X, tau) -> np.ndarray:
    """X_{n ^ tau} per atom."""
    X = np.asarray(X)
    t = np.minimum(np.arange(X.shape[-1])[None, :], np.asarray(tau)[:, None])
    return np.take_along_axis(X, t, axis=1)


def free_tau(rng, tree: Tree) -> np.ndarray:
    """An unrestricted death date per atom, uniform on 0..T."""
    return rng.integers(0, tree.T + 1, size=tree.n_atoms)


def regular_tau(rng, tree: Tree, stops: int = 1) -> np.ndarray:
    """A death date under which no sub-block dies out beneath a live parent.

    Walks the tree from the root, which lives past date 0.  Of the children
    of every block living past ``k - 1``, exactly ``stops`` (drawn at random)
    stop at ``k`` and the rest live on, so some atoms survive to the horizon.
    A stopped block's atoms take ``tau = k - (offset mod (k + 1))``: its first
    atom dies at ``k``, which keeps ``G_tilde_k > 0`` on it, the regularity
    under which the three deflator routes agree.  Only the choice of the
    stopping children is random, so every seed gives the same tree up to a
    reordering of siblings, and with it the same number of enlarged blocks and
    oracle nodes: the work per command does not depend on the seed.
    """
    T, b = tree.T, tree.b
    if not 0 < stops < b:
        raise ValueError("stops must leave at least one child alive")
    tau = np.full(tree.n_atoms, T, dtype=np.int64)
    live = np.array([0])  # blocks living past the previous date
    for k in range(1, T + 1):
        children = live[:, None] * b + np.arange(b)[None, :]
        order = np.argsort(rng.random(children.shape), axis=1)
        stopped = np.take_along_axis(children, order[:, :stops], axis=1).ravel()
        size = tree.block_size(k)
        pattern = k - np.arange(size) % (k + 1)
        for c in stopped:
            tau[c * size:(c + 1) * size] = pattern
        live = np.take_along_axis(children, order[:, stops:], axis=1).ravel()
    return tau


def priced_market(rng, tree: Tree, n_assets: int):
    """Prices built around a positive one-step measure with known density.

    At every node the one-step martingale measure ``q`` is drawn positive and
    each asset's returns are centred under it, so ``Z_F`` (the product of
    ``q / p`` along the path) is a local martingale deflator of ``S`` in the
    public filtration.  Returns ``(S, Z_F)`` with ``S`` of shape
    ``(n_assets, n_atoms, T + 1)``.
    """
    b, T = tree.b, tree.T
    S = np.ones((n_assets, tree.n_atoms, T + 1))
    Z_F = np.ones((tree.n_atoms, T + 1))
    for k in range(1, T + 1):
        n_nodes = b ** (k - 1)
        q = rng.uniform(0.5, 1.5, size=(n_nodes, b))
        q /= q.sum(axis=1, keepdims=True)
        child_mass = tree.block_sums(tree.probs, k).reshape(n_nodes, b)
        p = child_mass / child_mass.sum(axis=1, keepdims=True)
        r = rng.uniform(-0.3, 0.3, size=(n_assets, n_nodes, b))
        r -= (r * q[None]).sum(axis=2, keepdims=True)
        size = tree.block_size(k)
        Z_F[:, k] = Z_F[:, k - 1] * np.repeat((q / p).ravel(), size)
        S[:, :, k] = S[:, :, k - 1] * np.repeat(1.0 + r.reshape(n_assets, -1), size, axis=1)
    return S, Z_F


def route_params(tree: Tree, tau, Z_F) -> dict:
    """One parameter document per route, all forced to give Z_F^tau / Z_bar^tau.

    Multiplicative takes Z_F itself with phi_o = 0; additive its driver
    K_F (dK = dZ_F / Z_F-) with V_F = 0; measure-change Z_QF = Z_F / Z_bar
    with phi = 0.
    """
    _, _, Z_bar = tree.survival(tau)
    K_F = np.zeros_like(Z_F)
    K_F[:, 1:] = np.cumsum(Z_F[:, 1:] / Z_F[:, :-1] - 1.0, axis=1)
    return {
        "additive": {"route": "additive", "K_F": K_F.tolist(), "V_F": 0.0,
                     "phi_o": 0.0, "phi_pr": 0.0},
        "multiplicative": {"route": "multiplicative", "Z_F": Z_F.tolist(),
                           "phi_o": 0.0, "phi_pr": 0.0},
        "measure-change": {"route": "measure-change", "Z_QF": (Z_F / Z_bar).tolist(),
                           "phi": 0.0},
    }


def expected_deflator(tree: Tree, tau, Z_F) -> np.ndarray:
    _, _, Z_bar = tree.survival(tau)
    return stop(Z_F, tau) / stop(Z_bar, tau)


def model_doc(tree: Tree, tau, S=None) -> dict:
    doc = {
        "outcomes": [{"id": f"a{i}", "prob": float(p)} for i, p in enumerate(tree.probs)],
        "horizon": tree.T,
        "partitions": [tree.block_ids(n).tolist() for n in range(tree.T + 1)],
        "tau": [int(t) for t in tau],
    }
    if S is not None:
        doc["assets"] = {"names": [f"S{i}" for i in range(len(S))], "values": S.tolist()}
    return doc


def nan_model_doc() -> dict:
    """A fixed 8-atom binary model whose third atom has probability NaN.

    Malformed input: the CLI must refuse it with exit code 2.
    """
    tree = Tree(2, 3, np.full(8, 0.125))
    doc = model_doc(tree, [3, 1, 2, 0, 3, 3, 1, 2])
    doc["outcomes"][2]["prob"] = float("nan")
    return doc


README_SCENARIO = {"sigma": 0.2, "zeta": 0.1, "mu": 0.03, "lambda": 2.0, "a": 0.5}


def scenario_doc(seed: int, n_paths: int, dt: float) -> dict:
    return dict(README_SCENARIO, psi2=1.0, horizon=1.0, seed=int(seed),
                n_paths=int(n_paths), dt=float(dt))


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return os.fspath(path)
