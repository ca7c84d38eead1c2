"""Independent brute-force enumeration oracle used to freeze expected values.

Everything here works on exact Fractions with plain Python loops and never
calls into the package under test: conditional expectations are literal
probability-weighted sums over partition blocks, projections and compensators
are written out from their definitions, and martingale residuals are scanned
block by block.

The last section keeps, in numpy, the per-block loops that the package's
vectorized partition kernel replaced; the kernel is tested against them.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np


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
    from scipy.optimize import linprog

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


def decompose_cells(V, probs, block_rows, tau, G, G_tilde, G_minus, dD_opt, tol=1e-9):
    """Block-pair loop of the two-term decomposition of a stopped martingale V.

    ``dD_opt`` holds the increments of the dual optional projection of the
    default indicator (column 0 its time-0 value).  Returns (M_F, phi, known);
    raises ValueError naming (time, block) of the first public block holding
    a sub-cell where the increment is not constant.
    """
    w = np.asarray(probs, dtype=float)
    dV, dDo = np.diff(V, axis=1), dD_opt[:, 1:]
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


def write_table_cells(path, header, tables):
    """The per-cell ``table_to_csv``: one formatted write per table row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for label, values in tables:
            for row in values:
                fh.write(f"{label}," + ",".join(fmt_cell(v) for v in row) + "\n")


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


def read_rows(path, outcomes, horizon):
    """The row-by-row process-table reader: the first bad row raises ValueError naming it
    (by line, the header row 1), else the first missing (atom, time) cell does."""
    with open(path) as fh:
        header, *lines = fh.read().split("\n")
    if not header.lower().startswith("atom"):
        raise ValueError("process table must carry an atom,time,value header")
    index = {str(name): i for i, name in enumerate(outcomes)}
    X = np.full((len(outcomes), horizon + 1), np.nan)
    for row, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"row {row}: malformed process row {line!r}")
        name, n, v = parts
        if name not in index:
            raise ValueError(f"row {row}: unknown atom id {name!r}")
        try:  # int and float also take an "_" or a non-ASCII digit, which no table holds
            if "_" in n + v or not (n + v).isascii():
                raise ValueError
            n, v = int(n), float(v)
        except ValueError:
            raise ValueError(
                f"row {row}: time must be an integer and value a number, got {line!r}"
            ) from None
        if not 0 <= n <= horizon:
            raise ValueError(f"row {row}: time {n} outside 0..{horizon}")
        if not math.isfinite(v):
            raise ValueError(f"row {row}: value {v!r} of ({name}, {n}) is not finite")
        if not math.isnan(X[index[name], n]):
            raise ValueError(f"row {row}: cell ({name}, {n}) appears twice")
        X[index[name], n] = v
    if np.any(np.isnan(X)):
        i, n = np.argwhere(np.isnan(X))[0]
        raise ValueError(f"process table misses (atom, time) cells, first ({outcomes[i]}, {n})")
    return X


# ------------------------------------------------------------------------------
# Per-date reference loops for the survival layer: the date-by-date scans that
# ``enlargement`` replaced by masked increments and one cumsum (or cumprod).
# They take increment tables (column 0 the time-0 value), as the library
# stores them.  A vanishing denominator on a live cell raises
# ValueError(time, atom) at the earliest date, and there at the first atom.

def block_mean(x, ids, w):
    """E[x | partition] the way ``cond_expect`` computes it (no zero-mass blocks)."""
    return (np.bincount(ids, weights=w * x) / np.bincount(ids, weights=w))[ids]


def survival_loops(dD, dD_opt, G, G_tilde, tau):
    """(N_G, Z_bar) by the date loops of the survival construction."""
    n_atoms, n_times = dD.shape
    N_G, Z_bar = np.empty_like(dD), np.ones_like(G)
    N_G[:, 0] = dD[:, 0]
    for k in range(1, n_times):
        live = tau >= k
        gt = G_tilde[:, k]
        if np.any(live & (gt <= 0.0)):
            raise ValueError(k, int(np.flatnonzero(live & (gt <= 0.0))[0]))
        comp = np.zeros(n_atoms)
        comp[live] = dD_opt[live, k] / gt[live]
        N_G[:, k] = N_G[:, k - 1] + dD[:, k] - comp
        gm = G[:, k - 1]
        factor = np.divide(G_tilde[:, k], gm, out=np.ones_like(gm), where=gm > 0.0)
        Z_bar[:, k] = Z_bar[:, k - 1] * factor
    return N_G, Z_bar


def compensate_loop(dX, dA, G_minus, tau):
    """X_0 plus dX_k - dA_k / G_{k-1}, summed date by date over ]0, tau]."""
    out = np.empty_like(dX)
    out[:, 0] = dX[:, 0]
    for k in range(1, dX.shape[1]):
        live = tau >= k
        gm = G_minus[:, k]
        if np.any(live & (gm <= 0.0)):
            raise ValueError(k, int(np.flatnonzero(live & (gm <= 0.0))[0]))
        inc = np.zeros(dX.shape[0])
        inc[live] = dX[live, k] - dA[live, k] / gm[live]
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
# Per-path reference for the Monte-Carlo engine: for every path its own Philox
# at the path's counter offset, its K words turned into gaps and normals one
# at a time, and its own spill generator; a ragged list of jump times.
# ``simulate`` draws every path's words in one call and transforms them as
# arrays; every array it returns must equal this reference bit for bit.
# ``bridge_loop`` is the per-point bridge fill that the engine's
# cumulative-sum fill replaced.

def i1_series(beta, x):
    """int_0^x s e^(-beta s) ds = x^2 sum_k (-y)^k (k + 1) / (k + 2)!, y = beta x,
    summed in exact rationals of the float inputs until a term is below 1e-40
    of the sum, past its largest; the one rounding is to float at the end."""
    y = Fraction(beta) * Fraction(x)
    total, term, k = Fraction(0), Fraction(1, 2), 0
    while k <= y or abs(term) > Fraction(1, 10**40) * abs(total):
        total += term
        term *= -y * (k + 2) / ((k + 1) * (k + 3))
        k += 1
    return float(Fraction(x) ** 2 * total)


def ig_series(beta, x):
    """int_0^x beta s / (1 + beta s) ds = x (1 - log(1 + y) / y), y = beta x, with
    log(1 + y) = 2 sum_j u^(2j + 1) / (2j + 1), u = y / (2 + y), summed in exact
    rationals until a term is below 1e-40 of the sum; rounded to float once."""
    y = Fraction(beta) * Fraction(x)
    if y == 0:
        return 0.0
    u = y / (2 + y)
    total, power, j = Fraction(0), u, 0
    while power > Fraction(1, 10**40) * total:
        total += power / (2 * j + 1)
        power *= u * u
        j += 1
    return float(Fraction(x) * (1 - 2 * total / y))


def per_path_simulate(sc, *, report_times=None, keep_paths=0):
    from horizon_deflators import jumpdiff as jd

    H, lam = sc.horizon, sc.lam
    if report_times is None:
        report_times = H * np.arange(1, 9) / 8.0
    rep = np.asarray(report_times, dtype=float)
    R = len(rep)
    n = sc.n_paths
    P = math.ceil((R + 1) / 2)          # Box-Muller pairs
    K = 4 * math.ceil((8 + 2 * P) / 4)  # words per path: whole 4-word counter blocks
    key = np.random.SeedSequence(sc.seed).generate_state(2, np.uint64)

    jump_lists = []
    normals = np.empty((n, R + 1))
    keep_streams = []
    for i in range(n):
        words = np.random.Philox(key=key, counter=[i * K // 4, 0, 0, 0]).random_raw(K)
        u = [np.float64(((int(w) >> 11) + 0.5) * 2.0 ** -53) for w in words]
        cum = np.cumsum([-np.log(x) / lam for x in u[:8]])
        spill = np.random.Generator(np.random.Philox(key=key, counter=[0, i + 1, 0, 0]))
        while cum[-1] < H:
            cum = np.concatenate([cum, cum[-1] + np.cumsum(spill.exponential(1.0 / lam, 8))])
        jump_lists.append(cum)
        cos, sin = [], []
        for k in range(P):
            r = np.sqrt(-2.0 * np.log(u[8 + k]))
            angle = 2.0 * np.pi * u[8 + P + k]
            cos.append(r * np.cos(angle))
            sin.append(r * np.sin(angle))
        normals[i] = (cos + sin)[:R + 1]
        if i < keep_paths:
            keep_streams.append(spill)

    kmax = max(len(c) for c in jump_lists)
    jumps = np.full((n, kmax), np.inf)
    for i, c in enumerate(jump_lists):
        jumps[i, :len(c)] = c
    return evaluate(sc, rep, jumps, normals, keep_paths, keep_streams.__getitem__)


def bridge_loop(grid, anchors_t, anchors_w, gen):
    """The per-point bridge fill that ``jumpdiff._bridge_fill`` replaced.

    Anchors ascend from (0, 0).  One ``standard_normal()`` call per grid point
    strictly inside an anchor interval, each a one-step bridge from the last
    filled point to the interval's end; then every point within ``np.isclose``
    of that end is set to the end's value.  Points past the last anchor (and
    not within ``np.isclose`` of it) move by independent increments.
    """
    W = np.empty_like(grid)
    W[0] = 0.0
    for j in range(len(anchors_t) - 1):
        s, e = anchors_t[j], anchors_t[j + 1]
        ws, we = anchors_w[j], anchors_w[j + 1]
        prev_t, prev_w = s, ws
        for g in np.flatnonzero((grid > s) & (grid < e)):
            u = grid[g]
            span = e - prev_t
            mean = prev_w + (u - prev_t) / span * (we - prev_w)
            var = (u - prev_t) * (e - u) / span
            prev_w = mean + np.sqrt(max(var, 0.0)) * gen.standard_normal()
            prev_t = u
            W[g] = prev_w
        for g in np.flatnonzero(np.isclose(grid, e) & (grid > s)):
            W[g] = we
    prev_t, prev_w = anchors_t[-1], anchors_w[-1]
    for g in np.flatnonzero((grid > prev_t) & ~np.isclose(grid, prev_t)):
        prev_w = prev_w + np.sqrt(grid[g] - prev_t) * gen.standard_normal()
        prev_t = grid[g]
        W[g] = prev_w
    return W


# ------------------------------------------------------------------------------
# Per-null reference for the Monte-Carlo regression: for each one-step increment
# its own [1, F_j] design, an SVD least-squares fit and the sandwich covariance
# from pinv(A^T A), one null and one step at a time.  ``mc_suite`` shares one
# pass per step among every null with the same features; its regression
# z-scores are tested against these.

def sandwich_regression_z(values, features):
    """Regression z-scores and standard errors of one null's increments.

    Both are (n_times - 1, p + 1); a standard error at 1e-150 sits on the floor.
    A step is skipped, with a row of NaN in each, where all but fewer than 20
    increments share one value, or all but 1 to 19 values of a feature.
    """
    X = np.asarray(values, dtype=float)
    F = np.asarray(features, dtype=float)
    n = X.shape[0]
    rows, ses = [], []
    for j in range(X.shape[1] - 1):
        dx = X[:, j + 1] - X[:, j]
        off = [n - np.unique(col, return_counts=True)[1].max()
               for col in (dx, *F[:, j, :].T)]
        if off[0] < 20 or any(0 < m < 20 for m in off[1:]):
            rows.append(np.full(F.shape[2] + 1, np.nan))
            ses.append(np.full(F.shape[2] + 1, np.nan))
            continue
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


# ------------------------------------------------------------------------------
# Per-path reference for the simulate suite: its seven computed nulls as scalar
# formulas of the model, one path and one report time at a time.  The model is
# S = S0 E(X), X = sigma W + zeta N^c + mu t, with N a Poisson process of
# intensity lam and N^c = N - lam t; tau = (a T2) ^ T1 and beta = lam (1/a - 1);
# I_G(x) = int_0^x beta s / (1 + beta s) ds, by ``ig_series``.

def suite_reference(bundle, psi1, psi2, theta, phi_o, phi_pr):
    """The computed nulls of the simulate suite on ``bundle``, (n_paths, R) each.

    With s = t ^ tau, J = 1{tau = T1 <= t} (so N_s = J), and
    Y = E(psi1 W + (psi2 - 1) N^c) = exp(psi1 W - psi1^2 t / 2 - (psi2 - 1) lam t) psi2^N:
      transported_brownian       W_s;
      transported_poisson        J (1 + beta T1) - lam s;
      survival_exponential       V_t = exp(lam I_G(t ^ T1)) / (1 + beta T1)^1{T1 <= t}, the
                                 exponential of (1 / G_-) . m, G_- = e^(-beta t)(1 + beta t)
                                 and dm = lam beta t e^(-beta t) dt before T1, and m jumps
                                 by -beta T1 e^(-beta T1) at T1;
      deflator_plain             E_L = Y_s / V_s;
      deflator_with_default_leg  E_L exp(-phi_o (lam + beta) I_G(s))
                                 (1 + phi_o 1{tau = a T2 <= t}) (1 + phi_pr 1{tau <= t}):
                                 the exponentials of phi_o . N_G, with
                                 N_G = 1{tau = a T2 <= t} - (lam + beta) I_G(s), and of
                                 phi_pr . D;
      deflated_wealth            E(theta X)_s E_L, with E(theta X) = (1 + theta zeta)^N
                                 exp(theta sigma W + (theta mu - theta zeta lam
                                 - theta^2 sigma^2 / 2) t);
      deflated_price_drift       Y_t E(X)_t, unstopped.
    """
    sc = bundle.scenario
    lam, beta = sc.lam, sc.beta
    ig = {}

    def I_G(x):
        if x not in ig:
            ig[x] = ig_series(beta, x)
        return ig[x]

    def Y(w, t, n):
        return math.exp(psi1 * w - 0.5 * psi1**2 * t - (psi2 - 1.0) * lam * t) * psi2**n

    def V(x, t1):
        return math.exp(lam * I_G(min(x, t1))) / (1.0 + beta * t1) ** (t1 <= x)

    def wealth(th, w, t, n):  # E(th X)
        drift = th * sc.mu - th * sc.zeta * lam - 0.5 * th**2 * sc.sigma**2
        return math.exp(th * sc.sigma * w + drift * t) * (1.0 + th * sc.zeta) ** n

    names = ("transported_brownian", "transported_poisson", "survival_exponential",
             "deflator_plain", "deflator_with_default_leg", "deflated_wealth",
             "deflated_price_drift")
    out = {name: np.empty(bundle.W.shape) for name in names}
    for i in range(bundle.n_paths):
        t1, tau = float(bundle.t1[i]), float(bundle.tau[i])
        second = bool(bundle.from_second_jump[i])
        for j, t in enumerate(bundle.report_times.tolist()):
            w, n = float(bundle.W[i, j]), float(bundle.N[i, j])
            seen = tau <= t
            s, J = min(t, tau), int(seen and not second)
            w_s = float(bundle.W_tau[i]) if seen else w
            e_l = Y(w_s, s, J) / V(s, t1)
            values = (w_s, J * (1.0 + beta * t1) - lam * s, V(t, t1), e_l,
                      e_l * math.exp(-phi_o * (lam + beta) * I_G(s))
                      * (1.0 + phi_o * (seen and second)) * (1.0 + phi_pr * seen),
                      wealth(theta, w_s, s, J) * e_l, Y(w, t, n) * wealth(1.0, w, t, n))
            for name, value in zip(names, values):
                out[name][i, j] = value
    return out


# ------------------------------------------------------------------------------
# The package's own kernels on whole arrays, for the tests alone: a block of
# paths filled at once, the simulate suite's tests on a whole bundle, and the
# additive route's driver as a process.

def evaluate(sc, rep, jumps, normals, keep_paths, stream):
    """The bundle of the paths drawn as ``jumps`` and ``normals``, filled in one block by
    the engine's ``_fill``, with the dt-grid samples of the first ``keep_paths`` drawn
    from ``stream(i)``."""
    from horizon_deflators import jumpdiff as jd

    bundle = jd._empty_bundle(sc, rep, len(jumps))
    bundle.samples = jd._fill(bundle, jd._quadrature_table(sc), 0, jumps, normals,
                              keep_paths, stream)
    return bundle


def suite_tests(bundle, psi1, psi2, *, theta, phi_o=0.0, phi_pr=0.0):
    """(tests, n_zscores, z_crit): the simulate suite's nulls on the whole ``bundle`` as
    ``mc_suite``'s tests, the regressed ones on the features (S_t, N_t, 1{t < T1}), with
    the engine's z-score count and critical value.  The checks and row kernels are
    ``simulate_suite``'s, run chunk by chunk, so ``mc_suite`` on these tests gives its
    reports bit for bit."""
    from horizon_deflators import jumpdiff as jd

    jd.check_deflator(bundle, psi2, phi_o=phi_o, phi_pr=phi_pr)
    jd.check_wealth(bundle.scenario, theta)
    *values, features = jd._by_rows(jd._suite_rows, bundle, psi1, psi2, theta, phi_o, phi_pr)
    nulls, n_z, z_crit = jd._suite_nulls(len(bundle.report_times), features.shape[2], phi_pr)
    tests = {name: (X, start, null, features if regressed else None)
             for X, (name, start, null, regressed) in zip(values, nulls)}
    return tests, n_z, z_crit


def driver_base(K_F, rts):
    """The additive driver Y = T(K_F) - (1/G_minus) . T(m), summed from the increments
    that the additive route builds (``deflators._driver_steps``); K_F is not checked."""
    from horizon_deflators import deflators as dfl
    from horizon_deflators.prob_core import increments

    return np.cumsum(dfl._driver_steps(increments(K_F), rts), axis=1)
