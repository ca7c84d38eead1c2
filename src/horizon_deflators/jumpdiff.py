"""Monte-Carlo engine for the Brownian-Poisson market with a random horizon.

The market is S = S0 * E(sigma.W + zeta.N^c + mu.t) driven by a Brownian
motion and a compensated Poisson process with intensity ``lam``; the random
horizon is tau = (a T2) ^ T1, the minimum of the first Poisson jump time and
a fraction of the second.  For this horizon every survival object has a
closed form in terms of beta = lam (1/a - 1):

    G_t  = exp(-beta t)(1 + beta t)  before T1,   0 from T1 on,
    m_t  = 1 + lam beta I1(t ^ T1) - beta T1 exp(-beta T1) 1{T1 <= t},
    D^o_t = int_0^{t ^ T1} (beta+lam) beta s exp(-beta s) ds
            + exp(-beta T1) 1{T1 <= t},

with I1(x) = int_0^x s exp(-beta s) ds.  G~_t = P(tau >= t | F_t) is G_t but
for exp(-beta T1) at t = T1; {t = T1} has probability 0 on a fixed time grid,
so both grids hold G~ = G, 0 from T1 on.  One evaluator gives these, N and S
on the report grid of all paths and on the dt grid of the kept ones.  Jump
times are drawn exactly (exponential gaps, kept off-grid); Brownian values are
sampled exactly at the report times and at tau, and bridged in between on the
dt grid; the Lebesgue part of D^o is the one quantity evaluated by trapezoidal
quadrature on the dt grid, so the pathwise identity m = G + D^o holds up to
O(dt^2).

Draws come from one counter-based Philox stream (Salmon et al., SC'11): path
i owns a fixed run of counter blocks, and each path has a spill stream of its
own for the rare extra draws (``simulate``).  So any block of paths can be
drawn and evaluated on its own, with the same bits.  ``simulate``,
``simulate_suite`` and ``build_deflator`` work in chunks of ``_ROWS`` paths, and
``mc_suite`` folds the same blocks, each map on a thread pool of its own, made and
joined inside the call, with one worker per CPU of the process's affinity set.  Each
chunk writes its own rows or returns its own record, and records merge in block order,
so no output depends on the number of workers; work of one chunk, or on one worker,
runs inline, with no thread.

Every (n_paths, R) and (n_paths, R, p) array here is column-major, so one report
time's values are contiguous: the fold sums each column of a block in one pass
(NumPy's pairwise order), on that layout whatever its input's.  The row kernels
compute on the ``.T`` views of those arrays, (report time, path) rows: an (R, 1)
column of times broadcasts against per-path rows, and each kernel returns its
(paths, R) block as a view.  ``simulate`` places tau ^ H
among the report times by one ``searchsorted`` and writes its rows through
``.T``.  Kept paths on the dt grid stay (path, grid), so each orientation keeps its
long axis innermost: time-major they gave the same bits, but ``simulate`` of 100 paths at
dt 2^-16 with 4 kept paths took 32-37 ms against 27-29 ms, and 84-134 ms with the counts
by ``_running_sum`` (medians of 30 calls, 2 shared vCPUs).

``SUITE`` is the one table of the suite's nulls, a row per null: name, start, hypothesis,
regression and row kernel.  ``simulate_suite`` runs the kernels on each chunk of paths as
it draws it, folds them and tests the fold at the Sidak critical value, holding one record
per block.  Its reports are those that ``mc_suite`` gives, bit for bit, on the same kernels'
rows of the whole bundle of the same paths.

Statistical verification is by Monte-Carlo means with standard errors,
sharpened by regressing one-step increments on observable features with
heteroskedasticity-robust (sandwich) standard errors.  ``mc_suite`` tests a
whole suite of nulls: each block of paths is folded once into per-null moments
and, per step, one table of moments of the increments and features, which holds
the normal equations and the HC0 meats of every null that passes the same
feature array.  One finish per step turns the merged tables into z-scores, with
no second pass over the paths.  ``mc_test`` is its one-null call.  A zero
standard error reads as a pass only where the mean equals the start.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import AdmissibilityError, SpaceValidationError

SIGMA_FLOOR = 1e-12
MAX_PATHS = 2**32        # the n_paths K / 4 main-stream counter blocks stay below 2^64, so counter
                         # word 0 never carries into word 1, which numbers the spill streams
MAX_STEPS = 2**20        # dt-grid points: bounds the quadrature table and each kept path's arrays
MAX_MEAN_JUMPS = 2**10   # lam * horizon: bounds the jump table and the gap-drawing loop
MAX_EXPONENT = 512.0     # sigma^2 * horizon and |drift| * horizon: exp(sigma W_t + drift t)
                         # stays far from float overflow
MIN_SAMPLES = 20         # fewest moving paths an mc_suite regression step rests on
_ROWS = 8192             # paths per chunk of the row map, and per block of the suite's fold
_SERIAL_PRODUCT = 2**18  # m n k of the largest matrix product OpenBLAS runs on the calling thread:
                         # the fold's products stay below it, so no BLAS threads meet _map's

# family-wise size of the simulate suite: the chance that a correct model has
# any of the suite's z-scores past the critical value
SUITE_ALPHA = 0.01
# the simulate suite's nulls in test order: (name, start, hypothesis, increments regressed
# on the features, rows(b, k)): rows gives the null on the paths of a bundle b from the
# parameters and deflator factors k of _suite_rows, looking its kernel up when called
SUITE = (
    ("m", 1.0, "martingale", True, lambda b, k: b.m),
    ("transported_brownian", 0.0, "martingale", True, lambda b, k: b.stopped_W()),
    ("transported_poisson", 0.0, "martingale", True, lambda b, k: _transported_poisson(b)),
    ("N_G", 0.0, "martingale", True, lambda b, k: b.N_G),
    ("survival_exponential", 1.0, "martingale", True, lambda b, k: _survival_exponential(b)),
    ("deflator_plain", 1.0, "martingale", False, lambda b, k: k["E_L"]),
    ("deflator_with_default_leg", 1.0, "martingale", False, lambda b, k: k["Z"]),
    ("deflated_wealth", 1.0, "supermartingale", False,
     lambda b, k: _wealth(b, k["theta"]) * k["E_L"]),
    ("deflated_price_drift", 1.0, "martingale", True,
     lambda b, k: _lmd_times_price(b, k["psi1"], k["psi2"])),
)


def _workers() -> int:
    """The worker count of ``_map``: the CPUs in the process's affinity set, else all CPUs."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return len(cpus) if cpus else os.cpu_count() or 1


def _map(fn, items, rows: int) -> list:
    """[fn(x) for x in items], on a pool of ``_workers()`` threads made and joined
    inside the call when there are several workers and items and ``rows``, the
    paths the work spans, fill more than one chunk.

    Callers write disjoint outputs and reduce in a fixed order, so results do
    not depend on the worker count.  Tasks call private helpers only (a public
    function may be wrapped by a tracer that keeps one call stack).
    """
    workers = _workers()
    if len(items) < 2 or rows <= _ROWS or workers < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def _row_map(fn, n: int) -> list:
    """[fn(lo, hi) for every chunk lo : hi of _ROWS rows of n], run by ``_map``."""
    return _map(lambda c: fn(*c), [(lo, min(lo + _ROWS, n)) for lo in range(0, n, _ROWS)], n)


@dataclass(frozen=True)
class JumpDiffusionScenario:
    """Model coefficients, horizon fraction, grid, and sampling plan.

    sigma/zeta/mu are per-unit-time constants of the price dynamics, lam the
    Poisson intensity, ``a`` the second-jump fraction defining the horizon.
    """

    sigma: float
    zeta: float
    mu: float
    lam: float
    a: float
    S0: float = 1.0
    horizon: float = 1.0
    dt: float = 2.0 ** -10
    n_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma", "zeta", "mu", "lam", "a", "S0", "horizon", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise SpaceValidationError(f"{name} must be finite")
        for name in ("n_paths", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SpaceValidationError(f"{name} must be an integer")
        if not self.sigma > SIGMA_FLOOR:
            raise SpaceValidationError("sigma must be strictly positive")
        if not self.zeta > -1.0:
            raise SpaceValidationError("zeta must exceed -1")
        if not self.lam > 0.0:
            raise SpaceValidationError("lam must be positive")
        if not 0.0 < self.a < 1.0:
            raise SpaceValidationError("a must lie in (0, 1)")
        if not self.dt > 0.0:
            raise SpaceValidationError("dt must be positive")
        if not self.horizon > 0.0:
            raise SpaceValidationError("horizon must be positive")
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise SpaceValidationError(f"n_paths must lie in [1, {MAX_PATHS}]")
        if self.seed < 0:
            raise SpaceValidationError("seed must be non-negative")
        if not self.S0 > 0.0:
            raise SpaceValidationError("S0 must be positive")
        if not self.horizon / self.dt <= MAX_STEPS:
            raise SpaceValidationError(f"horizon / dt must not exceed {MAX_STEPS} steps")
        if not self.lam * self.horizon <= MAX_MEAN_JUMPS:
            raise SpaceValidationError(
                f"lam * horizon (expected jumps per path) must not exceed {MAX_MEAN_JUMPS}")
        _check_exponent(self, "sigma", self.sigma, self.sigma * self.sigma, "sigma^2")
        _check_exponent(self, "drift", self.drift, abs(self.drift),
                        "|mu - zeta lam - sigma^2/2|")

    @property
    def beta(self) -> float:
        return self.lam * (1.0 / self.a - 1.0)

    @property
    def drift(self) -> float:
        """The time coefficient of log S: mu - zeta lam - sigma^2 / 2."""
        return self.mu - self.zeta * self.lam - 0.5 * self.sigma**2


def _i1(beta: float, x) -> np.ndarray:
    """int_0^x s exp(-beta s) ds = (1 - e^(-beta x)(1 + beta x)) / beta^2, exact.  Below
    beta x = 0.3, where the closed form cancels (above, its error is under 6e-15 relative),
    the series x^2 sum_k (-beta x)^k (k + 1) / (k + 2)! takes over: x^2 / 2 at beta = 0."""
    return _below_cut(beta, x, 0.3, 2, _I1_SERIES,
                      lambda x: (1.0 - np.exp(-beta * x) * (1.0 + beta * x)) / beta**2)


def _ig(beta: float, x) -> np.ndarray:
    """int_0^x beta s / (1 + beta s) ds = x - log(1 + beta x) / beta, exact.  Below
    beta x = 0.1 (above, the closed form's error is under 4e-15 relative) the series
    x sum_k>=1 (-1)^(k+1) (beta x)^k / (k + 1) takes over: 0 at beta = 0."""
    return _below_cut(beta, x, 0.1, 1, _IG_SERIES, lambda x: x - np.log1p(beta * x) / beta)


# the leading coefficients of the series of _i1 / x^2 and of _ig / x in beta x, highest
# power first; below its cut each series' first omitted term is under 1e-17 of its value
_I1_SERIES = [(-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(13, -1, -1)]
_IG_SERIES = [(-1) ** (k + 1) / (k + 1) for k in range(17, 0, -1)] + [0.0]


def _below_cut(beta, x, cut, power, series, closed) -> np.ndarray:
    """``closed(x)``, but x^power polyval(series, beta x) on the cells of x where
    beta x < cut, which alone pay for the series."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        out = np.asarray(closed(x))  # cells below the cut may be 0 / 0: they are overwritten
    small = beta * x < cut
    x = x[small]
    out[small] = np.polyval(series, beta * x) * x**power
    return out


def _stopped(f, times, stop, after) -> np.ndarray:
    """f(min(times, stop)) for an elementwise f, evaluated on the shared times and on the
    per-path stop times alone (a stop past the last time is taken there, unused).  Unless
    ``after`` is None, each path's value v from its stop on is after(v), evaluated per path."""
    at_stop = f(np.minimum(stop, times[-1]))
    return np.where(times < stop, f(times), at_stop if after is None else after(at_stop))


@dataclass
class PathBundle:
    """Per-path simulation output at the report times plus full-grid samples.

    All (n_paths, n_report) arrays are exact-in-distribution; ``samples``
    holds dt-grid versions of the first few paths, one dict each, with W
    bridged between the report times and tau (``_bridge_fill``) from each
    path's spill stream.
    """

    scenario: JumpDiffusionScenario
    report_times: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    tau: np.ndarray
    from_second_jump: np.ndarray
    W: np.ndarray
    W_tau: np.ndarray
    N: np.ndarray
    S: np.ndarray
    G: np.ndarray
    m: np.ndarray
    D_opt: np.ndarray
    N_G: np.ndarray
    samples: list = field(default_factory=list)

    @property
    def n_paths(self) -> int:
        return len(self.tau)

    @property
    def G_tilde(self) -> np.ndarray:
        """G~, which is G: {t = T1} has probability 0 on a fixed grid."""
        return self.G

    # each (n_paths, R) process below is the .T view of its (R, n_paths) rows

    def stopped_times(self) -> np.ndarray:
        return np.minimum(self.report_times[:, None], self.tau).T

    def stopped_W(self) -> np.ndarray:
        return np.where(self.tau <= self.report_times[:, None], self.W_tau, self.W.T).T

    def first_jump_stopped(self) -> np.ndarray:
        """1{tau = T1 <= t}: the price jump happened before or at the horizon."""
        return (~self.from_second_jump
                & (self.t1 <= self.report_times[:, None])).astype(float).T


def _quadrature_table(sc: JumpDiffusionScenario):
    """The dt grid, ending at the horizon, with the D^o density and its trapezoid table."""
    beta, lam = sc.beta, sc.lam
    n_steps = int(np.ceil(sc.horizon / sc.dt - 1e-9))
    grid = np.append(np.arange(n_steps) * sc.dt, sc.horizon)
    dens = (beta + lam) * beta * grid * np.exp(-beta * grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    return grid, dens, cum


def _lebesgue_quadrature(sc, grid, dens, cum, x):
    """Trapezoid of the D^o density over [0, x] using the dt grid plus a stub."""
    beta, lam = sc.beta, sc.lam
    idx = np.minimum((x / sc.dt).astype(int), len(grid) - 1)
    fx = np.exp(-beta * x) * ((beta + lam) * beta * x)
    return (dens[idx] + fx) * 0.5 * (x - grid[idx]) + cum[idx]


def simulate(sc: JumpDiffusionScenario, *, report_times=None, keep_paths: int = 0) -> PathBundle:
    """Draw all paths and evaluate the market and survival objects.

    Every path draws from one Philox stream keyed by
    ``SeedSequence(seed).generate_state(2, uint64)``.  With R report times,
    P = ceil((R + 1) / 2) and K = 4 ceil((8 + 2P) / 4), path i owns the K
    words of ``Philox(key, counter=[i K / 4, 0, 0, 0]).random_raw(K)``: K/4
    whole counter blocks.  Each chunk lo : hi of ``_ROWS`` paths draws its
    words in one ``random_raw((hi - lo) K)`` call from counter lo K / 4, and
    the chunks run on a thread pool (``_row_map``).
    Each word w is the uniform u = ((w >> 11) + 1/2) 2^-53 in (0, 1); words
    0-7 give 8 exponential jump gaps -log(u) / lam, and words 8 to 8 + 2P
    give R + 1 Brownian normals by Box-Muller (the first P are r cos, the
    next r sin, of the P pairs).  The draws of path i do not depend on
    n_paths, so the first k paths are the same whatever n_paths.

    Path i also owns a spill stream, ``Generator(Philox(key, counter=[0, i + 1, 0, 0]))``,
    whose counters never meet the main stream's.  A path whose 8 gaps end before the
    horizon draws further blocks of 8 gaps from it (about 0.1% of paths at lam = 2), and a
    kept path then draws its bridge normals from it: one per dt-grid point that is neither
    a report time nor tau, in grid order.  The dt grid ends at the horizon, so its last
    step may be shorter.  ``report_times`` must be finite, strictly increasing and in
    (0, horizon].
    """
    rep, draw = _paths(sc, report_times, keep_paths)
    b = _empty_bundle(sc, rep, sc.n_paths)
    chunks = _row_map(lambda lo, hi: draw(_rows(b, lo, hi), lo, keep_paths - lo), sc.n_paths)
    b.samples = [s for samples in chunks for s in samples]
    return b


def _paths(sc, report_times, keep_paths):
    """(rep, draw): the checked report times, and draw(part, lo, keep), which fills ``part``
    with paths lo, lo + 1, ... as ``simulate`` does and returns the samples of its first keep."""
    if not 0 <= keep_paths <= sc.n_paths:
        raise SpaceValidationError(f"keep_paths must lie in [0, n_paths = {sc.n_paths}]")
    H = sc.horizon
    if report_times is None:
        report_times = H * np.arange(1, 9) / 8.0
    rep = np.asarray(report_times, dtype=float)
    if not (rep.ndim == 1 and len(rep) and np.isfinite(rep).all() and rep[0] > 0.0
            and rep[-1] <= H and (np.diff(rep) > 0.0).all()):
        raise SpaceValidationError(
            f"report_times must be finite, strictly increasing and in (0, horizon = {H:g}]")
    key = np.random.SeedSequence(sc.seed).generate_state(2, np.uint64)
    quad = _quadrature_table(sc)

    def draw(part, lo, keep):
        gaps, normals = _main_draws(key, part.n_paths, len(rep), sc.lam, first=lo)
        jumps = np.cumsum(gaps, axis=1)
        streams = {}

        def stream(i):  # the spill stream of path lo + i
            if i not in streams:
                streams[i] = np.random.Generator(
                    np.random.Philox(key=key, counter=[0, lo + i + 1, 0, 0]))
            return streams[i]

        for i in np.flatnonzero(jumps[:, -1] < H):
            path_jumps = jumps[i, :8]
            while path_jumps[-1] < H:
                more = stream(i).exponential(scale=1.0 / sc.lam, size=8)
                path_jumps = np.concatenate([path_jumps, path_jumps[-1] + np.cumsum(more)])
            if len(path_jumps) > jumps.shape[1]:
                jumps = np.pad(jumps, ((0, 0), (0, len(path_jumps) - jumps.shape[1])),
                               constant_values=np.inf)
            jumps[i, :len(path_jumps)] = path_jumps
        return _fill(part, quad, lo, jumps, normals, min(keep, part.n_paths), stream)

    return rep, draw


def _main_draws(key, n: int, R: int, lam: float, first: int = 0):
    """The main stream's (n, 8) jump gaps and (n, R + 1) normals of paths
    first .. first + n - 1, as ``simulate`` lays them out."""
    P = -(-(R + 1) // 2)
    K = 4 * -(-(8 + 2 * P) // 4)
    raw = np.random.Philox(key=key, counter=[first * K // 4, 0, 0, 0]).random_raw(n * K)
    raw = raw.reshape(n, K)
    u = np.right_shift(raw, 11, out=raw)[:, :8 + 2 * P].astype(float)
    u += 0.5
    u *= 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u[:, 8:8 + P]))
    angle = 2.0 * np.pi * u[:, 8 + P:]
    normals = np.concatenate([r * np.cos(angle), r * np.sin(angle)], axis=1)[:, :R + 1]
    return -np.log(u[:, :8]) / lam, normals


# the arrays of a bundle: one value, or one row of report-time values, per path
_PER_PATH = ("t1", "t2", "tau", "from_second_jump", "W_tau")
_PER_REPORT = ("W", "N", "S", "G", "m", "D_opt", "N_G")


def _empty_bundle(sc, rep, n: int) -> PathBundle:
    """A bundle of n paths whose arrays are yet to be filled (``_fill``)."""
    return PathBundle(
        scenario=sc, report_times=rep,
        **{f: np.empty(n, bool if f == "from_second_jump" else float) for f in _PER_PATH},
        **{f: np.empty((n, len(rep)), order="F") for f in _PER_REPORT})


def _rows(b: PathBundle, lo: int, hi: int) -> PathBundle:
    """Paths lo : hi of a bundle, as views, without its samples."""
    return replace(b, samples=[], **{f: getattr(b, f)[lo:hi] for f in _PER_PATH + _PER_REPORT})


def _by_rows(fn, bundle: PathBundle, *args) -> tuple:
    """fn(bundle, *args), a tuple of arrays with one row per path, evaluated chunk by
    chunk (``_row_map``) into column-major arrays shaped like fn's output on no rows."""
    n = bundle.n_paths
    empty = fn(_rows(bundle, 0, 0), *args)
    outs = [np.empty((n,) + e.shape[1:], e.dtype, order="F") for e in empty]

    def chunk(lo, hi):
        for out, part in zip(outs, fn(_rows(bundle, lo, hi), *args)):
            out[lo:hi] = part

    _row_map(chunk, n)
    return tuple(outs)


def _fill(bundle, quad, first, jumps, normals, keep, stream) -> list:
    """The arrays of ``bundle`` from the draws of its paths, one per row of ``jumps``,
    and the dt-grid samples of its first ``keep``, whose indexes start at ``first``.

    ``jumps`` holds each row's jump times (inf-padded), ``normals`` its R+1
    Brownian normals, ``stream(i)`` the generator that row i's bridge fill
    draws from, and ``quad`` the dt-grid trapezoid table of D^o.  The report
    arrays are computed as (report time, path) rows and written through the
    bundle's ``.T`` views.
    """
    sc, rep = bundle.scenario, bundle.report_times
    H, n, R = sc.horizon, len(jumps), len(rep)
    t1, t2 = jumps[:, 0], jumps[:, 1]
    tau = np.minimum(sc.a * t2, t1)
    from_second = sc.a * t2 < t1
    tau_c = np.minimum(tau, H)

    # Brownian values at the report times and at tau ^ H in time order, (R + 1, n): tau ^ H
    # is row `at`, after the report times equal to it, report time j row j or j + 1
    at = np.searchsorted(rep, tau_c, side="right")
    paths, rows = np.arange(n), np.arange(R + 1)[:, None]
    starts = np.r_[0.0, rep]
    root = np.sqrt(np.diff(starts))  # of the steps between report times
    scale = np.where(rows < at, np.r_[root, 0.0][:, None], np.r_[0.0, root][:, None])
    scale[at, paths] = np.sqrt(tau_c - starts[at])
    inner = np.flatnonzero(at < R)
    scale[at[inner] + 1, inner] = np.sqrt(rep[at[inner]] - tau_c[inner])
    W_aug = _running_sum(normals.T * scale)
    W_tau = W_aug[at, paths]
    W = np.where(rows[:R] < at, W_aug[:R], W_aug[1:])

    N = _jump_counts(rep, jumps, axis=0)
    cols = {"t1": t1, "t2": t2, "tau": tau, "from_second_jump": from_second, "W": W,
            "W_tau": W_tau, **_path_processes(sc, quad, rep[:, None], t1, tau, from_second, W, N)}
    for name, value in cols.items():
        getattr(bundle, name).T[...] = value
    if keep <= 0:
        return []
    grid = quad[0]
    W = np.stack([_bridge_fill(grid, np.r_[0.0, np.insert(rep, at[i], tau_c[i])],
                               np.r_[0.0, W_aug[:, i]], stream(i)) for i in range(keep)])
    full = _path_processes(sc, quad, grid, t1[:keep, None], tau[:keep, None],
                           from_second[:keep, None], W, _jump_counts(grid, jumps[:keep], axis=1))
    res = full["G"] + full["D_opt"]
    np.subtract(full["m"], res, out=res)
    res = np.abs(res, out=res).max(axis=1)
    return [{"index": first + i, "time": grid, "W": W[i],
             **{key: v[i] for key, v in full.items()}, "G_tilde": full["G"][i],  # G~ = G
             "tau": float(tau[i]), "t1": float(t1[i]), "m_identity_residual": float(res[i])}
            for i in range(keep)]


def _path_processes(sc, quad, times, t1, tau, from_second, W, N) -> dict:
    """S, G, m, D^o and N_G of every path at the shared ``times``, and the jump counts N.

    The arguments broadcast in either orientation: a (times, 1) column against
    per-path rows (n,), or times (T,) against per-path columns (n, 1).  ``W``
    and ``N`` are shaped as the results, and ``quad`` is the dt-grid trapezoid
    table of D^o.
    """
    beta, lam = sc.beta, sc.lam
    # the compensator (lam + beta) I_G(t ^ tau) before tau and from it on; 0.0 - c, not -c,
    # so that a compensator of 0 (at time 0) gives +0
    c, c_tau = ((lam + beta) * _ig(beta, x) for x in (times, np.minimum(tau, times[-1])))
    N_G = np.where(times < tau, 0.0 - c, from_second - c_tau)
    m = _stopped(lambda x: 1.0 + lam * beta * _i1(beta, x), times, t1,
                 lambda v: v - beta * t1 * np.exp(-beta * t1))
    D_opt = _stopped(lambda x: _lebesgue_quadrature(sc, *quad, x), times, t1,
                     lambda v: v + np.exp(-beta * t1))
    S = sc.S0 * np.exp(sc.sigma * W + sc.drift * times) * (1.0 + sc.zeta) ** N
    G = np.where(times < t1, np.exp(-beta * times) * (1.0 + beta * times), 0.0)
    return {"N": N, "S": S, "G": G, "m": m, "D_opt": D_opt, "N_G": N_G}


def _jump_counts(times, jumps, axis: int) -> np.ndarray:
    """#{k : jumps[i, k] <= times[g]}, (paths, times) with axis 1, (times, paths) with 0,
    with no times x jumps table: each jump up to the last time lands on the first
    time at or after it, and counts are running sums of landings along ``axis``."""
    T, (n, J) = len(times), jumps.shape
    cell = np.flatnonzero(jumps <= times[-1])
    path, land = cell // J, np.searchsorted(times, jumps.ravel()[cell])
    cells = land * n + path if axis == 0 else land + T * path
    hits = np.bincount(cells, minlength=n * T)
    if axis == 0:
        return _running_sum(hits.reshape(T, n)).astype(float)
    return hits.reshape(n, T).cumsum(axis=1).astype(float)


def _running_sum(rows) -> np.ndarray:
    """np.cumsum(rows, axis=0), the same sums in the same order, in place: one
    vector add per row, where cumsum would run down each column in turn."""
    for k in range(1, len(rows)):
        rows[k] += rows[k - 1]
    return rows


def _bridge_fill(grid, anchors_t, anchors_w, gen) -> np.ndarray:
    """Brownian values on ``grid`` through the anchors (ascending, from (0, 0)).

    A grid point equal to an anchor takes its value; every other point takes
    one normal z from ``gen``, in grid order, in one call.  Between anchors
    s < u_1 < ... < e the sequential Brownian bridge is, with u_0 = s,
    W(u_k) = ws + (u_k - s)/(e - s) (we - ws)
             + (e - u_k) sum_{i<=k} sqrt((u_i - u_{i-1}) / ((e - u_i)(e - u_{i-1}))) z_i;
    past the last anchor W moves by independent increments.
    """
    W = np.empty_like(grid)
    at = np.searchsorted(grid, anchors_t)                   # first point at or after each anchor
    after = np.searchsorted(grid, anchors_t, side="right")  # first point past each anchor
    W[at[at < after]] = anchors_w[at < after]
    # segment k runs from anchor k to anchor k + 1, the last one to the grid's end
    ends = np.append(at[1:], len(grid))
    sizes = np.maximum(ends - after, 0)
    z = np.split(gen.standard_normal(sizes.sum()), np.cumsum(sizes)[:-1])
    for k in np.flatnonzero(sizes):
        lo, hi = after[k], ends[k]
        s, ws, u = anchors_t[k], anchors_w[k], grid[lo:hi]
        p = np.maximum(grid[lo - 1:hi - 1], s)  # lo >= 1: grid[0] = 0 is the first anchor
        if k + 1 == len(anchors_t):
            W[lo:hi] = ws + np.cumsum(np.sqrt(u - p) * z[k])
            continue
        e, we = anchors_t[k + 1], anchors_w[k + 1]
        W[lo:hi] = ws + (u - s) / (e - s) * (we - ws) \
            + (e - u) * np.cumsum(np.sqrt((u - p) / ((e - u) * (e - p))) * z[k])
    return W


def closed_forms(bundle: PathBundle) -> dict:
    """Survival grids at the report times with the pathwise identity residual."""
    return {"G": bundle.G, "G_tilde": bundle.G_tilde, "m": bundle.m, "D_opt": bundle.D_opt,
            "N_G": bundle.N_G, "m_identity_residual": _m_residual(bundle)}


def _m_residual(b) -> float:
    """max |m - (G + D^o)| over the paths of ``b`` and the report times."""
    return float(np.abs(b.m.T - (b.G.T + b.D_opt.T)).max())


def solve_drift(sc: JumpDiffusionScenario, psi2: float) -> float:
    """The Brownian loading making the deflated price driftless.

    Solves mu + psi1 sigma + (psi2 - 1) zeta lam = 0 for psi1.  Checked in this
    order: psi2 > 0, psi1^2 * horizon finite, then the exponent bound of
    ``_check_psi2``.
    """
    psi1 = -(sc.mu + (psi2 - 1.0) * sc.zeta * sc.lam) / sc.sigma
    if psi2 > 0.0 and not math.isfinite(psi1 * psi1 * sc.horizon):  # else _check_psi2 raises
        raise SpaceValidationError(
            f"the market price of risk -(mu + (psi2 - 1) zeta lam) / sigma = {psi1:.3g} "
            "overflows: its square times the horizon must be finite")
    _check_psi2(sc, psi2)
    return psi1


def _check_psi2(sc, psi2) -> None:
    """The psi2 rule of ``solve_drift`` and ``check_deflator``: psi2 > 0 (so not NaN), then
    |psi2 - 1| lam, the exponent of psi2^N exp(-(psi2 - 1) lam t), within ``_check_exponent``."""
    if not psi2 > 0.0:
        raise AdmissibilityError("psi2 must be strictly positive")
    _check_exponent(sc, "psi2", psi2, abs(psi2 - 1.0) * sc.lam, "|psi2 - 1| lam")


def _check_exponent(sc, name, value, rate, formula) -> None:
    """Raise :class:`SpaceValidationError` naming ``name`` unless ``rate``, an exponent's
    coefficient of time, times the horizon stays within MAX_EXPONENT (so not NaN)."""
    if not rate * sc.horizon <= MAX_EXPONENT:
        raise SpaceValidationError(f"{name} = {value:.3g}: {formula} times the horizon must "
                                   f"not exceed {MAX_EXPONENT:g}")


def _transported_poisson(b):
    """The transported compensated Poisson process: stopped, jumping 1 + beta T1 at tau = T1."""
    sc = b.scenario
    return (b.first_jump_stopped().T * (1.0 + sc.beta * b.t1)
            - sc.lam * b.stopped_times().T).T


def _survival_exponential(b):
    """The density-style exponential of (1/G_minus) . m, a unit-mean martingale."""
    beta, lam = b.scenario.beta, b.scenario.lam
    return _stopped(lambda x: np.exp(lam * _ig(beta, x)), b.report_times[:, None], b.t1,
                    lambda v: v * (1.0 / (1.0 + beta * b.t1))).T


def build_deflator(bundle: PathBundle, psi1: float, psi2: float, *,
                   phi_o: float = 0.0, phi_pr: float = 0.0) -> dict:
    """Deflator samples Z = E(L)^tau E(phi_o . N_G) E(phi_pr . D).

    L folds the drift-corrected Brownian and Poisson loadings with the
    survival discount; the pathwise constraints are checked at the realized
    default dates and violations name the offending path.
    """
    check_deflator(bundle, psi2, phi_o=phi_o, phi_pr=phi_pr)
    Z, e_l, e_ng, e_d = _by_rows(_deflator_rows, bundle, psi1, psi2, phi_o, phi_pr)
    return {"Z": Z, "E_L": e_l, "E_NG": e_ng, "E_D": e_d}


def check_deflator(bundle: PathBundle, psi2: float, *, phi_o: float = 0.0,
                   phi_pr: float = 0.0) -> None:
    """Raise unless the deflator of ``build_deflator`` is admissible on every path:
    psi2, phi_o and phi_pr first (``_check_loadings``), then ``_check_paths``."""
    _check_loadings(bundle.scenario, psi2, phi_o, phi_pr)
    _check_paths(bundle, psi2, phi_o, 0)


def _check_loadings(sc, psi2, phi_o, phi_pr) -> None:
    """``check_deflator``'s rules on the parameters alone, in this order: ``_check_psi2``,
    then :class:`AdmissibilityError` unless phi_o > -1 and -1 < phi_pr <= 0, then
    :class:`SpaceValidationError` unless phi_o is finite."""
    _check_psi2(sc, psi2)
    if not phi_o > -1.0:
        raise AdmissibilityError("phi_o must exceed -1 before the first jump")
    if not phi_pr > -1.0:
        raise AdmissibilityError("phi_pr must exceed -1 at the default date")
    if phi_pr > 0.0:  # Z = M (1 + phi_pr 1{tau <= t}) with M > 0 a unit-mean martingale
        raise AdmissibilityError("phi_pr must not exceed 0: above, E[Z_t] > 1 once default "
                                 "can occur, so Z is no supermartingale deflator")
    if not math.isfinite(phi_o):
        raise SpaceValidationError("phi_o must be finite")


def _check_paths(b, psi2, phi_o, first) -> None:
    """``check_deflator``'s path rule, phi_o < psi2 (1 + beta T1) wherever tau = T1 <= H,
    on the rows of ``b``, which are the paths first, first + 1, ..."""
    hit_t1 = (~b.from_second_jump) & (b.tau <= b.scenario.horizon)
    bad = np.flatnonzero(hit_t1 & (phi_o >= psi2 * (1.0 + b.scenario.beta * b.t1)))
    if len(bad):
        raise AdmissibilityError(
            f"phi_o at the first jump breaches psi2 (1 + beta T1) on path {first + int(bad[0])}")


def _deflator_rows(b, psi1, psi2, phi_o, phi_pr):
    e_l, e_ng, e_d = _deflator_factors(
        b.scenario, b.report_times[:, None], b.W.T, b.W_tau, b.tau, b.t1,
        b.from_second_jump, psi1, psi2, phi_o, phi_pr)
    return (e_l * e_ng * e_d).T, e_l.T, e_ng.T, e_d.T


def _deflator_factors(sc, times, W, W_tau, tau, t1, from_second, psi1, psi2, phi_o, phi_pr):
    """E(L)^tau, E(phi_o . N_G) and E(phi_pr . D) at the stopped (t ^ tau, W_{t ^ tau}).

    ``W`` is unstopped at ``times``; the per-path arguments broadcast against
    it: rows (n,) against a (times, 1) column for many paths, scalars for one.
    """
    beta, lam = sc.beta, sc.lam
    seen = tau <= times
    ts = np.minimum(times, tau)
    Ws = np.where(seen, W_tau, W)
    log_el = (psi1 * Ws - 0.5 * psi1**2 * ts - lam * psi2 * ts
              + _stopped(lambda x: (lam / beta) * np.log1p(beta * x), times, tau, None))
    e_l = np.exp(log_el) * np.where(seen, np.where(from_second, 1.0, (1.0 + beta * t1) * psi2),
                                    1.0)
    e_ng = _stopped(lambda x: np.exp(-phi_o * (lam + beta) * _ig(beta, x)), times, tau,
                    lambda v: np.where(from_second, 1.0 + phi_o, 1.0) * v)
    e_d = 1.0 + phi_pr * seen
    return e_l, e_ng, e_d


def check_wealth(sc: JumpDiffusionScenario, theta: float) -> None:
    """Raise :class:`AdmissibilityError` unless theta is finite and 1 + theta zeta > 0,
    then :class:`SpaceValidationError` unless the wealth's exponent rates theta^2 sigma^2
    and |theta (mu - zeta lam)| meet ``_check_exponent``."""
    if not (math.isfinite(theta) and 1.0 + theta * sc.zeta > 0.0):
        raise AdmissibilityError(
            f"theta = {theta:g} is inadmissible: 1 + theta zeta must be positive")
    _check_exponent(sc, "theta", theta, theta * theta * sc.sigma * sc.sigma, "theta^2 sigma^2")
    _check_exponent(sc, "theta", theta, abs(theta * (sc.mu - sc.zeta * sc.lam)),
                    "|theta (mu - zeta lam)|")


def _wealth(b, theta):
    """E(theta . X)^tau, X the price driver: the wealth of the proportional strategy theta."""
    sc = b.scenario
    ts, Ws, Ns = b.stopped_times().T, b.stopped_W().T, b.first_jump_stopped().T
    drift = theta * sc.mu - theta * sc.zeta * sc.lam - 0.5 * theta**2 * sc.sigma**2
    return (np.exp(theta * sc.sigma * Ws + drift * ts) * (1.0 + theta * sc.zeta) ** Ns).T


def deflator_grid(bundle: PathBundle, index: int, psi1: float, psi2: float, *,
                  phi_o: float = 0.0, phi_pr: float = 0.0) -> np.ndarray:
    """Deflator values of one kept sample path on the full dt grid."""
    s = bundle.samples[index]
    e_l, e_ng, e_d = _deflator_factors(
        bundle.scenario, s["time"], s["W"], bundle.W_tau[index], s["tau"], s["t1"],
        bundle.from_second_jump[index], psi1, psi2, phi_o, phi_pr)
    return e_l * e_ng * e_d


def _lmd_times_price(b, psi1, psi2):
    """E(psi1.W + (psi2-1).N^c) * S / S0, unstopped: the drift-condition probe."""
    sc, t = b.scenario, b.report_times[:, None]
    dens = np.exp(psi1 * b.W.T - 0.5 * psi1**2 * t - (psi2 - 1.0) * sc.lam * t) * psi2 ** b.N.T
    return (dens * b.S.T / sc.S0).T


def simulate_suite(sc: JumpDiffusionScenario, psi1: float, psi2: float, *, theta: float,
                   phi_o: float = 0.0, phi_pr: float = 0.0, keep_paths: int = 0) -> tuple:
    """The ``simulate`` suite, drawn, evaluated, folded and tested in one pass per chunk of paths.

    Returns (kept, reports, n_zscores, z_crit, m_identity_residual): the first ``keep_paths``
    paths of ``bundle = simulate(sc, keep_paths=keep_paths)`` and their samples; the reports
    that ``mc_suite`` gives, bit for bit, at z_crit on the tests {name: (X, start, hypothesis,
    F if regressed else None)}, where ``_suite_rows`` on the whole ``bundle`` gives each
    null's X and the features F and ``_suite_nulls`` the rest; its z-score count and
    critical value z_crit; and ``closed_forms``' residual.  Each chunk of ``_ROWS``
    paths draws all its paths, runs ``SUITE``'s kernels and is one block of ``_fold_block``.
    The head, the first max(2 MIN_SAMPLES - 1, ``keep_paths``) paths, is drawn first with the
    kept samples: it gives ``_commons``' common values, and ``kept`` views its rows.  psi2,
    phi_o and phi_pr (``_check_loadings``), then theta (``check_wealth``), then ``keep_paths``
    are checked before any draw; the paths then meet the path rule, the head first and the
    chunks raised in chunk order (``_map``), so a breach names the first offending path.
    """
    _check_loadings(sc, psi2, phi_o, phi_pr)
    check_wealth(sc, theta)
    rep, draw = _paths(sc, None, keep_paths)
    n, R = sc.n_paths, len(rep)

    head = _empty_bundle(sc, rep, min(max(2 * MIN_SAMPLES - 1, keep_paths), n))
    kept = replace(_rows(head, 0, keep_paths), samples=draw(head, 0, keep_paths))
    _check_paths(head, psi2, phi_o, 0)
    *values, F = _suite_rows(head, psi1, psi2, theta, phi_o, phi_pr)
    p = F.shape[2]
    nulls, n_z, z_crit = _suite_nulls(R, p, phi_pr)
    members = [i for i, (*_, regressed) in enumerate(nulls) if regressed]
    common = _commons(F, [values[i] for i in members])

    def chunk(lo, hi):
        b = _empty_bundle(sc, rep, hi - lo)
        draw(b, lo, 0)
        _check_paths(b, psi2, phi_o, lo)
        *values, F = _suite_rows(b, psi1, psi2, theta, phi_o, phi_pr)
        block = _fold_block(values, [(F, members, common)])
        return block, F.size - np.count_nonzero(np.isfinite(F)), _m_residual(b)

    blocks, bad, residual = zip(*_row_map(chunk, n))
    specs = [(name, start, null, 0 if regressed else None)
             for name, start, null, regressed in nulls]
    reports = _reports(specs, [(sum(bad), n * R * p, members)], blocks, rep, z_crit)
    return kept, reports, n_z, z_crit, float(np.max(residual))


def _suite_rows(b, psi1, psi2, theta, phi_o, phi_pr) -> tuple:
    """``SUITE``'s rows on the paths of ``b`` in its order, then the features."""
    Z, e_l, _, _ = _deflator_rows(b, psi1, psi2, phi_o, phi_pr)
    k = {"psi1": psi1, "psi2": psi2, "theta": theta, "E_L": e_l, "Z": Z}
    return (*(rows(b, k) for *_, rows in SUITE), _feature_matrix(b))


def _suite_nulls(R: int, p: int, phi_pr: float) -> tuple:
    """(nulls, n_zscores, z_crit): ``SUITE``'s (name, start, hypothesis, regressed) at
    phi_pr, how many z-scores they compute over R report times and p features (R per
    null, plus (R - 1)(p + 1) per regressed martingale null), and the Sidak (JASA 1967)
    two-sided critical value that gives so many independent N(0, 1) z-scores the
    family-wise size SUITE_ALPHA.  With phi_pr < 0 the default leg's deflator is a
    supermartingale null: a martingale times 1 + phi_pr 1{tau <= t}."""
    nulls, n_z = [], 0
    for name, start, null, regressed, _ in SUITE:
        null = "supermartingale" if name == "deflator_with_default_leg" and phi_pr < 0 else null
        regressed = regressed and null == "martingale"
        nulls.append((name, start, null, regressed))
        n_z += R + ((R - 1) * (p + 1) if regressed else 0)
    z_crit = NormalDist().inv_cdf(1.0 + math.expm1(math.log1p(-SUITE_ALPHA) / n_z) / 2.0)
    return nulls, n_z, z_crit


@dataclass(frozen=True)
class MCTestReport:
    """Mean / standard-error / z-score table per report time, plus regression z's."""

    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    zscores: np.ndarray
    regression_z: np.ndarray | None
    null: str
    rejected: bool      # past z_crit: the largest |z|, or a supermartingale null's largest z
    max_abs_z: float    # the largest |z|, regression z's included
    warning: str | None


def mc_test(values, times, *, start: float, null: str = "martingale",
            features=None) -> MCTestReport:
    """Monte-Carlo null test of mean constancy (or decrease) from ``start``.

    The one-null call of :func:`mc_suite`, at ``z_crit`` 3.0; that function documents the test.
    """
    return mc_suite({null: (values, start, null, features)}, times, z_crit=3.0)[null]


def mc_suite(tests, times, *, z_crit: float = 3.0) -> dict[str, MCTestReport]:
    """Monte-Carlo null tests of a suite, one :class:`MCTestReport` per name.

    ``tests`` maps a name to ``(values, start, null, features)``.  ``values``
    is (n_paths, n_times).  The paths are folded in blocks of ``_ROWS``, one task
    each, by ``_fold_block``, the fold and finish that ``simulate_suite`` runs,
    on a column-major copy of a row-major input (this module's arrays are read in
    place), so no bit depends on the memory order, and the blocks merge in block
    order: each column's mean is its block sums' sum over n, and its standard
    error comes from the blocks' centred second moments, merged pairwise (Chan,
    Golub and LeVeque 1979).  Under the ``"martingale"`` null every mean
    equals ``start``; under ``"supermartingale"`` means may only drift down.  A zero
    standard error (a column of one repeated value, whose mean is that value)
    gives z = 0 where the mean equals ``start`` and z = +-inf
    (with a warning naming the null and the times) where it does not.  With
    (n_paths, n_times, p) ``features`` observable at each time, the one-step
    increments of a martingale null are regressed on them (intercept added)
    and the heteroskedasticity-robust coefficient z-scores sharpen the test
    (see ``_sandwich_z``); nulls passing the same features object share one
    moment table per block and step, and one pseudo-inverse per step.
    A step that rests on fewer than ``MIN_SAMPLES`` moving paths is not regressed for a
    null: where fewer move off the increment the null's other paths share (0 for a stopped
    process, the deterministic drift before a jump), or off the value a feature's other
    paths share while at least one moves off it (a jump count that one path has left at
    0).  Its regression z-scores are NaN, and a warning names the step and the count.
    Values that are not (n_paths, n_times) for the times, features that are not (n_paths,
    n_times, p), and a null other than ``"martingale"`` or ``"supermartingale"`` raise
    ``ValueError`` naming the test.

    Each test fails closed: a non-finite start, values or features (each features
    object is scanned once), or a mean or standard error that is not finite (fewer
    than two paths, overflow), give ``rejected=True`` and ``max_abs_z = inf`` with a
    warning naming the cause, and the null joins no regression.
    """
    times = np.asarray(times, float)
    shared = {}  # per features object: its group index, array, non-finite count, regressed nulls
    for *_, features in tests.values():
        if features is not None and id(features) not in shared:
            F = np.asfortranarray(features, dtype=float)
            shared[id(features)] = len(shared), F, F.size - np.count_nonzero(np.isfinite(F)), []
    Xs, specs = [], []
    for i, (name, (values, start, null, features)) in enumerate(tests.items()):
        X = np.asfortranarray(values, dtype=float)
        if X.ndim != 2 or times.shape != X.shape[1:]:
            raise ValueError(f"{name}: values of shape {X.shape} do not match times of shape "
                             f"{times.shape}; expected (n_paths, n_times) and (n_times,)")
        g = None
        if features is not None:
            g, F, _, members = shared[id(features)]
            if F.ndim != 3 or F.shape[:2] != X.shape:
                raise ValueError(f"{name}: features of shape {F.shape} do not match values "
                                 f"of shape {X.shape}; expected (n_paths, n_times, p)")
            if null == "martingale" and X.shape[1] > 1:
                members.append(i)
        if null not in ("martingale", "supermartingale"):
            raise ValueError(f"{name}: null {null!r} is not 'martingale' or 'supermartingale'")
        Xs.append(X)
        specs.append((name, start, null, g))
    groups = [(n_bad, F.size, members) for _, F, n_bad, members in shared.values()]
    folds = [(F, members, _commons(F, [Xs[i] for i in members]) if members and len(F) else None)
             for _, F, _, members in shared.values()]
    blocks = _row_map(lambda lo, hi: _fold_block(
        [X[lo:hi] for X in Xs], [(F[lo:hi], members, common) for F, members, common in folds]),
        max((len(X) for X in Xs), default=0))
    return _reports(specs, groups, blocks, times, z_crit)


def _commons(F, Xs) -> tuple:
    """(features, increments): the common values of the few-moving-paths rule, ``_common`` of
    the first 2 MIN_SAMPLES - 1 paths, per regression step j < R - 1, of each feature column
    F_j, (R - 1, p), and of each X's one-step increments X_{j+1} - X_j, (R - 1, k)."""
    head = min(2 * MIN_SAMPLES - 1, len(F))
    dx = [np.subtract(X[:head, 1:], X[:head, :-1]) for X in Xs]
    return _common(F[:head, :-1]), _common(np.stack(dx, axis=-1))


def _fold_block(nulls, groups) -> tuple:
    """One block of paths folded: (moments, normal).

    ``nulls`` holds each null's (paths, R) rows of the block, ``groups`` each
    feature array's (F, members, common): its (paths, R, p) rows of the block, the
    indices of the nulls regressed on it, and their ``_commons``.  ``moments``
    holds, per null, ``_fold_moments`` of its rows, and ``normal``, per group,
    ``_fold_normal`` of its members; each is None where there are no rows or no
    members.  Non-finite entries fold without a warning; the reports fail closed
    on them.
    """
    with np.errstate(all="ignore"):
        moments = [_fold_moments(X) if len(X) else None for X in nulls]
        normal = [_fold_normal(F, [nulls[i] for i in members], common)
                  if members and len(F) else None for F, members, common in groups]
    return moments, normal


def _fold_moments(X) -> tuple:
    """(count, sums, m2, low, high, bad) of a null's rows X, (paths, R), per report
    time: the paths, each column's pairwise sum, its second moment about its own
    mean, its extremes, and its non-finite entries, counted where the sum is not
    finite (a non-finite entry leaves no finite sum)."""
    rows = X.T
    n = len(X)
    sums = rows.sum(axis=1)
    dev = rows - (sums / n)[:, None]
    m2 = np.square(dev, out=dev).sum(axis=1)
    bad = np.zeros(len(sums), dtype=int)
    for r in np.flatnonzero(~np.isfinite(sums)):
        bad[r] = n - np.count_nonzero(np.isfinite(rows[r]))
    return n, sums, m2, rows.min(axis=1), rows.max(axis=1), bad


def _fold_normal(F, Xs, common) -> tuple:
    """(n, f_ext, x_ext, S, moving, off) of one block of n paths, per regression step
    j < R - 1: the extremes (low, high) of each feature column F_j, (2, R - 1, p), and of
    each X's increments DX, (2, R - 1, k); the moment table S = U V^T, (R - 1, 2k + 1 + p,
    len(V)), of the rows U = [DX; DX^2; 1; F_j] and V = [1; F_j; F_j's monomials of degree
    2 and 3] (``_monomials``), rows of one buffer [DX; DX^2; V], with F_j and DX scaled by
    the powers of two of the block's own extremes (``_exponent``); and the paths off the
    ``common`` values (``_commons``), of each X's increments and of each feature column."""
    n, R, p = F.shape
    steps, k = R - 1, len(Xs)
    _, products, *_ = _monomials(p)
    T = np.empty((2 * k + p + 1 + len(products), n))
    DX, U, V = T[:k], T[:2 * k + 1 + p], T[2 * k:]
    V[0] = 1.0
    f_ext = np.stack([F[:, :steps].min(axis=0), F[:, :steps].max(axis=0)])
    e_f = _exponent(f_ext)
    x_ext = np.empty((2, steps, k))
    S = np.empty((steps, len(U), len(V)))
    width = max(_SERIAL_PRODUCT // S[0].size, 1)
    moving, off = np.empty((steps, k), dtype=int), np.empty((steps, p), dtype=int)
    for j in range(steps):
        for row, X in zip(DX, Xs):
            np.subtract(X[:, j + 1], X[:, j], out=row)
        moving[j] = np.count_nonzero(DX != common[1][j][:, None], axis=1)
        x_ext[0, j], x_ext[1, j] = DX.min(axis=1), DX.max(axis=1)
        np.ldexp(DX, -_exponent(x_ext[:, j])[:, None], out=DX)
        np.square(DX, out=T[k:2 * k])
        for c in range(p):
            off[j, c] = np.count_nonzero(F[:, j, c] != common[0][j, c])
            np.ldexp(F[:, j, c], -e_f[j, c], out=V[c + 1])
        for m, (a, b) in enumerate(products, start=p + 1):
            np.multiply(V[a], V[b], out=V[m])
        S[j] = 0.0
        for lo in range(0, n, width):
            S[j] += U[:, lo:lo + width] @ V[:, lo:lo + width].T
    return n, f_ext, x_ext, S, moving, off


@functools.cache
def _monomials(p: int) -> tuple:
    """(degrees, products, at, index, zeros) of the monomials of degree <= 4 in p features
    (35 for p = 3), by degree; degrees holds each one's power of each feature.  Those of
    degree <= 3 are the rows of ``_fold_normal``'s V: 1, the features, and then row
    m = products[m - p - 1] = (a, b), the product of rows a and b (a feature).  Each
    monomial's sum is S[2k + at[0], at[1]] of the table: the row of 1 against it, or for
    degree 4 its first feature against the rest.  For the design rows a = [1/2, features],
    index[d] and zeros[d], shaped (p + 1,) * d, give the monomial of each product a_u a_v
    ... of d rows and its count of intercepts: the product is 2^-zeros times it."""
    rows = [()]
    for d in range(1, 5):
        rows += itertools.combinations_with_replacement(range(1, p + 1), d)
    order = {m: i for i, m in enumerate(rows)}
    products = [(order[m[:-1]], m[-1]) for m in rows[p + 1:] if len(m) < 4]
    degrees = np.array([[m.count(c) for c in range(1, p + 1)] for m in rows],
                       dtype=int).reshape(len(rows), p)
    at = np.array([(m[0], order[m[1:]]) if len(m) == 4 else (0, order[m]) for m in rows],
                  dtype=int).reshape(len(rows), 2).T
    index, zeros = {}, {}
    for d in range(1, 5):
        cells = list(itertools.product(range(p + 1), repeat=d))
        index[d] = np.array([order[tuple(sorted(c for c in u if c))] for u in cells]).reshape(
            (p + 1,) * d)
        zeros[d] = np.array([u.count(0) for u in cells]).reshape((p + 1,) * d)
    for table in (degrees, at, *index.values(), *zeros.values()):  # one copy serves all calls
        table.setflags(write=False)
    return degrees, products, at, index, zeros


def _exponent(ext) -> np.ndarray:
    """The exponent e of the power of two 2^-e that scales values with extremes
    ext = (low, high) to a maximum modulus in [1/2, 1) (0 for values all 0)."""
    return np.frexp(np.maximum(ext[1], -ext[0]))[1]


def _reports(specs, groups, blocks, times, z_crit) -> dict:
    """The reports of ``mc_suite`` from the fold of its blocks.

    ``specs`` holds each null's (name, start, null, group), the group the index of
    its features in ``groups`` or None; ``groups`` each features array's (n_bad,
    size, members): its non-finite count and size, and the nulls regressed on it;
    ``blocks`` the ``_fold_block`` records in block order.
    """
    reports, joined = {}, [[] for _ in groups]
    for i, (name, start, null, g) in enumerate(specs):
        n_bad, size, members = groups[g] if g is not None else (0, 0, [])
        reports[name], ok = _report(start, null, _merged_moments([m[i] for m, _ in blocks]),
                                    n_bad, size, times, z_crit)
        if ok and i in members:
            joined[g].append(members.index(i))
    for g, (_, _, members) in enumerate(groups):
        if not joined[g]:
            continue
        reg, live = _sandwich_z(*_merged_normal(
            [normal[g] for _, normal in blocks if normal[g] is not None], joined[g]))
        for m, reg_z, n_live in zip(joined[g], reg, live):
            name = specs[members[m]][0]
            rep = reports[name]
            used = ~np.isnan(reg_z)
            max_z = max(rep.max_abs_z, float(np.max(np.abs(reg_z), where=used, initial=0.0)))
            notes = [rep.warning] if rep.warning else []
            few = [f"{times[j]:g} -> {times[j + 1]:g} ({c} path{'' if c == 1 else 's'})"
                   for j, c in enumerate(n_live) if c < MIN_SAMPLES]
            if few:
                notes.append(f"regression skipped where fewer than {MIN_SAMPLES} paths move "
                             f"off the common increment or feature value: t = {', '.join(few)}")
            reports[name] = replace(rep, regression_z=reg_z, rejected=max_z > z_crit,
                                    max_abs_z=max_z, warning="; ".join(notes) or None)
    return reports


def _merged_moments(parts) -> tuple:
    """(n, sums, m2, low, high, bad) of a null's ``_fold_moments`` records, merged
    in block order: counts, sums and non-finite counts add, extremes take their
    extremes, and the centred second moments merge pairwise (Chan, Golub and
    LeVeque 1979), M2 = M2_a + M2_b + d^2 n_a n_b / n with d the difference of
    the two means."""
    parts = [part for part in parts if part is not None]
    if not parts:  # no path: NumPy NaNs, which the report divides by 0 without raising
        return 0, *np.full(4, np.nan), 0
    n, sums, m2, low, high, bad = parts[0]
    with np.errstate(all="ignore"):
        for n_b, s_b, m2_b, low_b, high_b, bad_b in parts[1:]:
            d = s_b / n_b - sums / n
            m2 = m2 + m2_b + d * d * (n * n_b / (n + n_b))
            n, sums, bad = n + n_b, sums + s_b, bad + bad_b
            low, high = np.minimum(low, low_b), np.maximum(high, high_b)
    return n, sums, m2, low, high, bad


def _report(start, null, moments, f_bad, f_size, times, z_crit) -> tuple:
    """One null's report from its merged moments (see ``mc_suite``), and whether
    it may join a regression: its values and features are finite, and so are its
    means and standard errors."""
    n, sums, m2, low, high, x_bad = moments
    R = len(times)
    notes = [f"only {n} paths: statistical power is low"] if n < 1000 else []
    rounding = n * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        means = sums / n
        # one path has no standard error; a float sum of one repeated value can miss
        # it by an ulp, so a column whose spread is rounding (below n eps |mean|) and
        # whose extremes are equal holds that value
        ses = np.sqrt(m2 / (n - 1)) / np.sqrt(n) if n > 1 else np.full(R, np.nan)
        flat = (ses <= rounding * np.abs(means)) & (low == high)
        means, ses = np.where(flat, low, means), np.where(flat, 0.0, ses)
        dev = means - start
        z = np.where((ses == 0) & (dev == 0), 0.0, dev / ses)
    flat = (ses == 0) & (dev != 0)
    if flat.any():
        notes.append(f"zero standard error with mean != start {start:g} at t = "
                     f"{', '.join(f'{t:g}' for t in times[flat])}: z = +-inf under "
                     f"the {null} null")
    bad = [f"start ({start:g})"] if not np.isfinite(start) else []
    bad += [f"{label} ({count} of {size} entries)"
            for label, size, count in (("values", n * R, int(np.sum(x_bad))),
                                       ("features", f_size, f_bad)) if count]
    if not bad and not (np.isfinite(means).all() and np.isfinite(ses).all()):
        bad = ["means or standard errors"]
    if bad:
        notes.append(f"non-finite {', '.join(bad)}: null rejected")
        z = np.where(np.isfinite(means) & np.isfinite(ses), z, np.nan)
        return (MCTestReport(times, means, ses, z, None, null, True, float("inf"),
                             "; ".join(notes)), False)
    size = float(np.max(np.abs(z)))
    top = size if null == "martingale" else np.max(z)  # only a rise rejects a supermartingale
    rep = MCTestReport(times, means, ses, z, None, null, bool(top > z_crit), size,
                       "; ".join(notes) or None)
    return rep, True


def _merged_normal(parts, joined) -> tuple:
    """(n, S, moving, off) of one group's ``_fold_normal`` records and its nulls
    ``joined``: the paths, the moment tables with each row scaled by the power of two of
    its extremes over all paths (``_exponent``), and the moving-path counts.  A block's
    table is rescaled to these scales by ``ldexp`` (a product's shift is the sum of its
    factors'), exact but where a product falls below the normal range, and the tables
    add in block order."""
    f_ext = np.stack([np.min([f[0] for _, f, *_ in parts], axis=0),
                      np.max([f[1] for _, f, *_ in parts], axis=0)])
    x_ext = np.stack([np.min([x[0] for _, _, x, *_ in parts], axis=0),
                      np.max([x[1] for _, _, x, *_ in parts], axis=0)])[:, :, joined]
    e_f, e_x = _exponent(f_ext), _exponent(x_ext)
    k, p = parts[0][2].shape[2], e_f.shape[1]
    tables = [*joined, *(k + i for i in joined), *range(2 * k, 2 * k + 1 + p)]
    degrees = _monomials(p)[0]
    n, S, moving, off = 0, 0.0, 0, 0
    for n_b, f_b, x_b, S_b, moving_b, off_b in parts:
        shift_x, shift_f = _exponent(x_b[:, :, joined]) - e_x, _exponent(f_b) - e_f
        rows = np.concatenate([shift_x, 2 * shift_x, 0 * shift_f[:, :1], shift_f], axis=1)
        cols = shift_f @ degrees[:S_b.shape[2]].T
        S = S + np.ldexp(S_b[:, tables], rows[:, :, None] + cols[:, None, :])
        n, moving, off = n + n_b, moving + moving_b[:, joined], off + off_b
    return n, S, moving, off


def _sandwich_z(n, S, moving, off) -> tuple:
    """Robust z-scores of k nulls' one-step increments on [1, F_j]: (k, R - 1, p + 1),
    and the number of moving paths each null's step rests on: (k, R - 1).

    n, S, moving and off are ``_merged_normal``'s: from S, with the design rows
    a = [1/2, F_j] and the increment rows dx at the global power-of-two row scales,
    which leave each z-score unchanged and keep every sum finite, come the normal
    equations G = sum a a^T and sum a dx, and per null M2 = sum dx^2 a a^T and
    M3 = sum dx a (x) a (x) a, and M4 = sum a (x) a (x) a (x) a.  One pseudo-inverse
    of G per step gives the coefficients c = G^+ sum a dx (the minimum-norm fit when
    the features are rank-deficient), and the HC0 meat sum (dx - c^T a)^2 a a^T is
    M2 - 2 c.M3 + c c : M4.  Each null's covariance is G^+ meat G^+ (MacKinnon and
    White's HC0 sandwich, its diagonal floored at 1e-300), so the fit and the
    covariance cut the same directions: those of G below (p + 1) n eps of its
    largest, the rounding of its n-term sums.  A meat that cancels to rounding (an
    exact fit) floors its standard errors, so a nonzero coefficient rejects.

    The moving-path count is the fewest paths that move off a common value: of the
    null's increments, or of a feature column some path moves off, each against the
    median of its first 2 MIN_SAMPLES - 1 entries (``_commons``).  A step where it is
    below ``MIN_SAMPLES`` has NaN z-scores for that null: a coefficient carried by a
    handful of paths fits them almost exactly, so its sandwich standard error sits
    near 0 and gives any z.
    """
    p, k = off.shape[1], moving.shape[1]
    _, _, at, index, zeros = _monomials(p)
    linear, square, ones = S[:, :k], S[:, k:2 * k], S[:, 2 * k + at[0], at[1]]
    G = np.ldexp(ones[:, index[2]], -zeros[2])
    AD = np.ldexp(linear[:, :, index[1]], -zeros[1])
    M2 = np.ldexp(square[:, :, index[2]], -zeros[2])
    M3 = np.ldexp(linear[:, :, index[3]], -zeros[3])
    M4 = np.ldexp(ones[:, index[4]], -zeros[4])
    G_inv = np.linalg.pinv(G, rcond=(p + 1) * n * np.finfo(float).eps, hermitian=True)
    C = (G_inv @ AD.swapaxes(1, 2)).swapaxes(1, 2)  # (steps, k, p + 1): each null's c
    meat = (M2 - 2.0 * np.einsum("skuvw,skw->skuv", M3, C)
            + np.einsum("suvwx,skw,skx->skuv", M4, C, C))
    cov = G_inv[:, None] @ meat @ G_inv[:, None]
    se = np.sqrt(np.maximum(np.diagonal(cov, axis1=2, axis2=3), 1e-300))
    live = np.minimum(moving, np.where(off > 0, off, n).min(axis=1, initial=n)[:, None]).T
    out = (C / se).transpose(1, 0, 2)
    out[live < MIN_SAMPLES] = np.nan
    return out, live


def _common(head):
    """The median of ``head`` along its first axis, a column's first 2 MIN_SAMPLES - 1
    entries: if fewer than MIN_SAMPLES entries of the column differ from some value,
    that median is it."""
    mid = (len(head) - 1) // 2
    return np.partition(head, mid, axis=0)[mid]


def _feature_matrix(b):
    """Observable features (S_t, N_t, 1{t < T1}) at each report time."""
    F = np.empty((3,) + b.S.T.shape)  # (feature, time, path): F.T is stored as _by_rows stores it
    F[0], F[1] = b.S.T, b.N.T
    np.less(b.report_times[:, None], b.t1, out=F[2])
    return F.T
