"""Independent brute-force enumeration oracle used to freeze expected values.

Everything here works on exact Fractions with plain Python loops and never
calls into the package under test: conditional expectations are literal
probability-weighted sums over partition blocks, projections and compensators
are written out from their definitions, and martingale residuals are scanned
block by block.

The last section keeps, in numpy, the per-block loops that the package's
vectorized partition kernel replaced; the kernel is tested against them.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import linprog


def blocks_of(row):
    """Partition row (block id per atom) -> list of atom-index lists."""
    out = {}
    for i, b in enumerate(row):
        out.setdefault(b, []).append(i)
    return list(out.values())


def cond_exp(values, probs, blocks):
    """E[X | partition] as exact Fractions; every block must have mass."""
    out = [None] * len(values)
    for blk in blocks:
        mass = sum(probs[i] for i in blk)
        mean = sum(probs[i] * values[i] for i in blk) / mass
        for i in blk:
            out[i] = mean
    return out


def enlarged_blocks(partitions, tau, n):
    """Blocks of the progressively enlarged partition at time n."""
    out = []
    for blk in blocks_of(partitions[n]):
        cells = {}
        for i in blk:
            key = tau[i] if tau[i] <= n else n + 1
            cells.setdefault(key, []).append(i)
        out.extend(cells.values())
    return out


def survival(probs, partitions, tau):
    """All survival objects by direct enumeration, as Fractions.

    Returns dict with per-(atom, time) lists: D, G, Gt, Dopt, Dpred, m, NG,
    Zbar; times run 0..T.
    """
    T = len(partitions) - 1
    n_atoms = len(probs)
    probs = [Fraction(p) for p in probs]
    rng_t = range(T + 1)

    D = [[Fraction(1) if tau[i] <= n else Fraction(0) for n in rng_t]
         for i in range(n_atoms)]
    G, Gt, Dopt, Dpred = ([[Fraction(0)] * (T + 1) for _ in range(n_atoms)]
                          for _ in range(4))
    for n in rng_t:
        blocks_n = blocks_of(partitions[n])
        alive = cond_exp([Fraction(1) if tau[i] > n else Fraction(0)
                          for i in range(n_atoms)], probs, blocks_n)
        weak = cond_exp([Fraction(1) if tau[i] >= n else Fraction(0)
                         for i in range(n_atoms)], probs, blocks_n)
        dD = [D[i][n] - (D[i][n - 1] if n else Fraction(0)) for i in range(n_atoms)]
        hit_n = cond_exp(dD, probs, blocks_n)
        prev_blocks = blocks_of(partitions[n - 1]) if n else [list(range(n_atoms))]
        hit_pred = cond_exp(dD, probs, prev_blocks)
        for i in range(n_atoms):
            G[i][n] = alive[i]
            Gt[i][n] = weak[i]
            Dopt[i][n] = (Dopt[i][n - 1] if n else Fraction(0)) + hit_n[i]
            Dpred[i][n] = (Dpred[i][n - 1] if n else Fraction(0)) + hit_pred[i]

    m = [[G[i][n] + Dopt[i][n] for n in rng_t] for i in range(n_atoms)]

    NG = [[Fraction(0)] * (T + 1) for _ in range(n_atoms)]
    for i in range(n_atoms):
        NG[i][0] = D[i][0]
    for n in range(1, T + 1):
        for i in range(n_atoms):
            inc = Fraction(0)
            if tau[i] >= n:
                dD = D[i][n] - D[i][n - 1]
                inc = dD - (Dopt[i][n] - Dopt[i][n - 1]) / Gt[i][n]
            NG[i][n] = NG[i][n - 1] + inc

    Zbar = [[Fraction(1)] * (T + 1) for _ in range(n_atoms)]
    for n in range(1, T + 1):
        for i in range(n_atoms):
            prev = G[i][n - 1]
            factor = Gt[i][n] / prev if prev > 0 else Fraction(1)
            Zbar[i][n] = Zbar[i][n - 1] * factor

    return {"D": D, "G": G, "Gt": Gt, "Dopt": Dopt, "Dpred": Dpred,
            "m": m, "NG": NG, "Zbar": Zbar}


def martingale_residual(X, probs, block_rows):
    """Largest |E[dX_n | block at n-1]| over all reachable blocks (Fractions)."""
    probs = [Fraction(p) for p in probs]
    T = len(block_rows) - 1
    worst = Fraction(0)
    for n in range(1, T + 1):
        for blk in blocks_of(block_rows[n - 1]):
            mass = sum(probs[i] for i in blk)
            if mass == 0:
                continue
            mean = sum(probs[i] * (X[i][n] - X[i][n - 1]) for i in blk) / mass
            worst = max(worst, abs(mean))
    return worst


# ------------------------------------------------------------------------------
# Per-block reference loops for the vectorized partition kernel.  These are
# the straightforward scans the kernel replaced (numpy floats, not Fractions);
# the kernel must reproduce their labels, verdicts and error locations.


def naive_filtration(raw):
    """First-appearance labels, per-level blocks and the refinement error.

    Returns (block_ids, blocks, error) where blocks[n] lists ascending atom
    arrays and error is the message for the first non-refining level, or None.
    """
    ids = []
    for row in raw:
        labels = {}
        ids.append([labels.setdefault(b, len(labels)) for b in row])
    ids = np.array(ids, dtype=np.int64)
    blocks = [[np.flatnonzero(row == b) for b in range(row.max() + 1)] for row in ids]
    for n in range(1, len(ids)):
        for atoms in blocks[n]:
            if len(np.unique(ids[n - 1][atoms])) != 1:
                return ids, blocks, f"partition at time {n} does not refine time {n - 1}"
    return ids, blocks, None


def interval_sup(v, rows, tol):
    """Closed-form sup of v*phi over {phi : rows*phi >= -1} in one dimension."""
    pos = rows[rows > tol]
    neg = rows[rows < -tol]
    lo = -1.0 / pos.max() if len(pos) else -np.inf
    hi = -1.0 / neg.min() if len(neg) else np.inf
    if v > 0:
        return v * hi if np.isfinite(hi) else np.inf
    if v < 0:
        return v * lo if np.isfinite(lo) else np.inf
    return 0.0


def vertex_sup(v, rows, tol):
    """Sup of v'phi over {phi : rows phi >= -1} given nonpositive recession slopes.

    One d-subset of rows at a time: subsets with |det| <= 1e-12 scale^d are
    skipped, and a solution counts if every row holds within 1e-9 (1 + |rows phi|).
    Rank-deficient rows are reduced to their row space first.
    """
    d = len(v)
    keep = rows[np.linalg.norm(rows, axis=1) > tol]
    best = 0.0  # phi = 0 is always feasible
    if len(keep) == 0:
        return best
    rank = np.linalg.matrix_rank(keep, tol=1e-12)
    if rank < d:
        _, _, vt = np.linalg.svd(keep)
        Q = vt[:rank].T
        return vertex_sup(Q.T @ v, keep @ Q, tol)
    scale = np.linalg.norm(keep, axis=1).max()
    for combo in combinations(range(len(keep)), d):
        A = keep[list(combo)]
        if abs(np.linalg.det(A)) <= 1e-12 * scale**d:
            continue
        phi = np.linalg.solve(A, -np.ones(d))
        if np.all(keep @ phi >= -1.0 - 1e-9 * (1.0 + np.abs(keep @ phi))):
            best = max(best, float(v @ phi))
    return best


def recession_violation(v, rows):
    """Max of v'r over the recession cone {r : rows r >= 0}, |r|_inf <= 1, by HiGHS LP."""
    d = len(v)
    res = linprog(-v, A_ub=-rows if len(rows) else None,
                  b_ub=np.zeros(len(rows)) if len(rows) else None,
                  bounds=[(-1.0, 1.0)] * d, method="highs")
    if not res.success:
        return np.inf
    return float(-res.fun)


def deflator_scan(Z, S, block_rows, w, sup, tol=1e-9):
    """Node-by-node supermartingale-deflator scan over every atom row of each node.

    ``S`` is (assets, atoms, times); the recession slope comes from the LP in
    :func:`recession_violation` and the supremum from ``sup(v, rows)``.
    Returns (ok, max_excess, worst) with worst the first (time, block, kind)
    reaching the largest excess.
    """
    worst, max_excess = None, -np.inf
    for k in range(1, len(block_rows)):
        ids = block_rows[k - 1]
        for b in range(ids.max() + 1):
            atoms = np.flatnonzero(ids == b)
            mass = w[atoms].sum()
            if mass <= 0.0:
                continue
            wb = w[atoms] / mass
            z_prev = float(wb @ Z[atoms, k - 1])
            rows = (S[:, atoms, k] - S[:, atoms, k - 1]).T
            v = rows.T @ (wb * Z[atoms, k])
            base = float(wb @ Z[atoms, k])
            if recession_violation(v, rows) > tol * max(1.0, abs(z_prev)):
                if np.inf > max_excess:
                    max_excess, worst = np.inf, (k, b, "recession")
                continue
            excess = base + sup(v, rows) - z_prev
            if excess > max_excess:
                max_excess, worst = float(excess), (k, b, "vertex")
    ok = max_excess <= tol * max(1.0, float(np.max(np.abs(Z))))
    return ok, max_excess, worst if not ok else None


def decompose_cells(V, probs, block_rows, tau, G, G_tilde, G_minus, D_opt, tol=1e-9):
    """Block-pair loop of the two-term decomposition of a stopped martingale V.

    Returns (M_F, phi, known); raises ValueError naming (time, block) of the
    first public block holding a sub-cell where the increment is not constant.
    """
    w = np.asarray(probs, dtype=float)
    dV, dDo = np.diff(V, axis=1), np.diff(D_opt, axis=1)
    M_F, phi = np.zeros_like(V), np.zeros_like(V)
    known = np.zeros(V.shape, dtype=bool)

    def value(part, k, b):
        if len(part) == 0:
            return None
        vals = dV[part, k - 1]
        if np.ptp(vals) > tol * max(1.0, float(np.max(np.abs(vals)))):
            raise ValueError(f"not constant on an enlarged cell at time {k}, block {b}")
        return float(w[part] @ vals / w[part].sum())

    for k in range(1, V.shape[1]):
        col = np.zeros(len(w))
        parents, cells = block_rows[k - 1], block_rows[k]
        for b in range(parents.max() + 1):
            atoms = np.flatnonzero(parents == b)
            g_prev = G_minus[atoms[0], k]
            if g_prev <= 0.0:
                continue
            for c in range(cells.max() + 1):
                C = np.flatnonzero(cells == c)
                C = C[np.isin(C, atoms)]
                if len(C) == 0:
                    continue
                a = value(C[tau[C] == k], k, b)
                bb = value(C[tau[C] > k], k, b)
                if a is not None and bb is not None:
                    phi[C, k], known[C, k] = a - bb, True
                    col[C] = g_prev * (a * dDo[C[0], k - 1] + bb * G[C[0], k])
                elif a is not None or bb is not None:
                    col[C] = g_prev * G_tilde[C[0], k] * (a if a is not None else bb)
        M_F[:, k] = M_F[:, k - 1] + col
    return M_F, phi, known


def fmt_cell(v):
    """One float as the CSV tables print it: ``.17g``, or a quoted word when not finite."""
    v = float(v)
    if v != v:
        return '"nan"'
    if v in (np.inf, -np.inf):
        return '"inf"' if v > 0 else '"-inf"'
    return format(v, ".17g")


def write_cells(path, outcomes, X):
    """The per-cell process-table writer: one formatted write per cell."""
    with open(path, "w") as fh:
        fh.write("atom,time,value\n")
        for i, name in enumerate(outcomes):
            for n in range(X.shape[1]):
                fh.write(f"{name},{n},{fmt_cell(X[i, n])}\n")


def write_paths(path, bundle, deflator_grid, psi1, psi2, phi_o, phi_pr):
    """The per-cell ``paths.csv`` writer: one formatted row per kept grid point.

    ``deflator_grid`` is the library's function of that name, which gives the
    ``Z`` column.
    """
    cols = ("W", "N", "S", "G", "m", "N_G")
    with open(path, "w") as fh:
        fh.write("path,time," + ",".join(cols) + ",Z\n")
        for s in bundle.samples:
            Z = deflator_grid(bundle, s["index"], psi1, psi2, phi_o=phi_o, phi_pr=phi_pr)
            for j, t in enumerate(s["time"]):
                row = ",".join(fmt_cell(s[c][j]) for c in cols)
                fh.write(f"{s['index']},{fmt_cell(t)},{row},{fmt_cell(Z[j])}\n")


# ------------------------------------------------------------------------------
# Per-date reference loops for the survival layer: the date-by-date scans that
# ``enlargement`` replaced by masked increments and one cumsum (or cumprod).
# A vanishing denominator on a live cell raises ValueError(time, atom) at the
# earliest date, and there at the first atom.

def block_mean(x, ids, w):
    """E[x | partition] the way ``cond_expect`` computes it (no zero-mass blocks)."""
    return (np.bincount(ids, weights=w * x) / np.bincount(ids, weights=w))[ids]


def survival_loops(D, D_opt, G, G_tilde, tau):
    """(N_G, Z_bar) by the date loops of the survival construction."""
    n_atoms, n_times = D.shape
    N_G, Z_bar = np.empty_like(D), np.ones_like(G)
    N_G[:, 0] = D[:, 0]
    dD, dD_opt = np.diff(D, axis=1), np.diff(D_opt, axis=1)
    for k in range(1, n_times):
        live = tau >= k
        gt = G_tilde[:, k]
        if np.any(live & (gt <= 0.0)):
            raise ValueError(k, int(np.flatnonzero(live & (gt <= 0.0))[0]))
        comp = np.zeros(n_atoms)
        comp[live] = dD_opt[live, k - 1] / gt[live]
        N_G[:, k] = N_G[:, k - 1] + dD[:, k - 1] - comp
        gm = G[:, k - 1]
        factor = np.divide(G_tilde[:, k], gm, out=np.ones_like(gm), where=gm > 0.0)
        Z_bar[:, k] = Z_bar[:, k - 1] * factor
    return N_G, Z_bar


def compensate_loop(X, A, G_minus, tau):
    """X_0 plus dX_k - dA_k / G_{k-1}, summed date by date over ]0, tau]."""
    out = np.empty_like(X)
    out[:, 0] = X[:, 0]
    dX, dA = np.diff(X, axis=1), np.diff(A, axis=1)
    for k in range(1, X.shape[1]):
        live = tau >= k
        gm = G_minus[:, k]
        if np.any(live & (gm <= 0.0)):
            raise ValueError(k, int(np.flatnonzero(live & (gm <= 0.0))[0]))
        inc = np.zeros(X.shape[0])
        inc[live] = dX[live, k - 1] - dA[live, k - 1] / gm[live]
        out[:, k] = out[:, k - 1] + inc
    return out


def transport_loop(V, tau, G_minus, G_tilde, block_rows, w):
    """Transport with the dead-cell correction conditioned date by date."""
    out = np.empty_like(V)
    out[:, 0] = V[:, 0]
    dM = np.diff(V, axis=1)
    for k in range(1, V.shape[1]):
        live = tau >= k
        gt = G_tilde[:, k]
        ratio = np.zeros(V.shape[0])
        ratio[live] = G_minus[live, k] / gt[live] * dM[live, k - 1]
        corr = block_mean(dM[:, k - 1] * (gt <= 0.0), block_rows[k - 1], w)
        out[:, k] = out[:, k - 1] + np.where(live, ratio + corr, 0.0)
    return out


# ------------------------------------------------------------------------------
# Per-path reference for the Monte-Carlo engine: a fresh SeedSequence, Philox
# and Generator for every path, and a ragged list of jump times.  ``simulate``
# derives the same keys in one pass and re-keys one generator; every draw and
# every array it returns must equal this reference bit for bit.

def per_path_simulate(sc, *, report_times=None, keep_paths=0):
    from horizon_deflators import jumpdiff as jd

    H, lam = sc.horizon, sc.lam
    if report_times is None:
        report_times = H * np.arange(1, 9) / 8.0
    rep = np.asarray(report_times, dtype=float)
    R = len(rep)
    n = sc.n_paths

    jump_lists = []
    normals = np.empty((n, R + 1))
    keep_streams = []
    for i in range(n):
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=sc.seed, spawn_key=(i,))))
        gaps = gen.exponential(scale=1.0 / lam, size=8)
        cum = np.cumsum(gaps)
        while cum[-1] < H or len(cum) < 2:
            gaps = gen.exponential(scale=1.0 / lam, size=8)
            cum = np.concatenate([cum, cum[-1] + np.cumsum(gaps)])
        jump_lists.append(cum)
        normals[i] = gen.standard_normal(R + 1)
        if i < keep_paths:
            keep_streams.append(gen)

    kmax = max(len(c) for c in jump_lists)
    jumps = np.full((n, kmax), np.inf)
    for i, c in enumerate(jump_lists):
        jumps[i, :len(c)] = c
    return jd._evaluate(sc, rep, jumps, normals, keep_paths, keep_streams.__getitem__)


# ------------------------------------------------------------------------------
# Per-null reference for the Monte-Carlo regression: for each one-step increment
# its own [1, F_j] design, an SVD least-squares fit and the sandwich covariance
# from pinv(A^T A), one null and one step at a time.  ``mc_suite`` shares one
# pass per step among every null with the same features; its regression
# z-scores are tested against these.

def sandwich_regression_z(values, features):
    """Regression z-scores and standard errors of one null's increments.

    Both are (n_times - 1, p + 1); a standard error at 1e-150 sits on the floor.
    """
    X = np.asarray(values, dtype=float)
    F = np.asarray(features, dtype=float)
    n = X.shape[0]
    rows, ses = [], []
    for j in range(X.shape[1] - 1):
        dx = X[:, j + 1] - X[:, j]
        A = np.column_stack([np.ones(n), F[:, j, :]])
        coef, *_ = np.linalg.lstsq(A, dx, rcond=None)
        resid = dx - A @ coef
        AtA_inv = np.linalg.pinv(A.T @ A)
        meat = A.T @ (A * (resid**2)[:, None])
        cov = AtA_inv @ meat @ AtA_inv
        se = np.sqrt(np.maximum(np.diag(cov), 1e-300))
        rows.append(coef / se)
        ses.append(se)
    return np.asarray(rows), np.asarray(ses)
