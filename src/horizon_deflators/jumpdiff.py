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
``simulate_suite``, the null processes and ``build_deflator`` work in chunks of
``_ROWS`` paths, and ``mc_suite`` one null, then one report step, at a time,
each map on a thread pool of its own, made and joined inside the call, with one
worker per CPU of the process's affinity set.  Each chunk writes its own rows;
``mc_suite``'s column moments run on whole columns, and its regression sums over
fixed blocks of ``_BLOCK`` paths, in block order, inside one step's task, so no
output depends on the number of workers; work of one chunk runs inline, with no
thread.

Every (n_paths, R) and (n_paths, R, p) array here is column-major, so one report
time's values are contiguous: ``mc_suite`` sums each column in one pass (NumPy's
pairwise order) and reads each step's blocks in place, on that layout whatever its
input's, so it holds one block's buffers per worker beside the arrays.  The
row kernels compute on the ``.T`` views of those arrays, (report time, path)
rows: an (R, 1) column of times broadcasts against per-path rows, and each
kernel returns its (paths, R) block as a view.  ``simulate`` places tau ^ H
among the report times by one ``searchsorted`` and writes its rows through
``.T``.  Kept paths on the dt grid stay (path, grid), so each orientation keeps its
long axis innermost: time-major they gave the same bits, but ``simulate`` of 100 paths at
dt 2^-16 with 4 kept paths took 32-37 ms against 27-29 ms, and 84-134 ms with the counts
by ``_running_sum`` (medians of 30 calls, 2 shared vCPUs).  ``SUITE`` lists the nulls:
``simulate_suite`` draws each chunk of paths and runs all their kernels on it in one pass,
holding no array of all paths but theirs, and ``suite_tests`` makes them ``mc_suite``'s
tests at the Sidak critical value.  Each public null function maps one kernel over a bundle.

Statistical verification is by Monte-Carlo means with standard errors,
sharpened by regressing one-step increments on observable features with
heteroskedasticity-robust (sandwich) standard errors.  ``mc_suite`` tests a
whole suite of nulls: per report step, one regression pass serves every null
that passes the same feature array.  ``mc_test`` is its one-null call.  A
zero standard error reads as a pass only where the mean equals the start.
"""

from __future__ import annotations

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
_ROWS = 8192             # paths per chunk of the row map
_BLOCK = 8192            # paths per block of mc_suite's regression sums

# family-wise size of the simulate suite: the chance that a correct model has
# any of the suite's z-scores past the critical value
SUITE_ALPHA = 0.01
# the simulate suite's nulls in test order: (name, start, hypothesis, increments regressed
# on the features); _suite_rows gives their rows in this order
SUITE = (
    ("m", 1.0, "martingale", True),
    ("transported_brownian", 0.0, "martingale", True),
    ("transported_poisson", 0.0, "martingale", True),
    ("N_G", 0.0, "martingale", True),
    ("survival_exponential", 1.0, "martingale", True),
    ("deflator_plain", 1.0, "martingale", False),
    ("deflator_with_default_leg", 1.0, "martingale", False),
    ("deflated_wealth", 1.0, "supermartingale", False),
    ("deflated_price_drift", 1.0, "martingale", True),
)


def _workers() -> int:
    """The worker count of ``_map``: the CPUs in the process's affinity set, else all CPUs."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return len(cpus) if cpus else os.cpu_count() or 1


def _map(fn, items, rows: int) -> list:
    """[fn(x) for x in items], on a pool of ``_workers()`` threads made and joined
    inside the call when there are several and ``rows``, the paths the work
    spans, fill more than one chunk.

    Callers write disjoint outputs and reduce in a fixed order, so results do
    not depend on the worker count.  Tasks call private helpers only (a public
    function may be wrapped by a tracer that keeps one call stack).
    """
    if len(items) < 2 or rows <= _ROWS:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(_workers()) as pool:
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
        if not self.sigma * self.sigma * self.horizon <= MAX_EXPONENT:
            raise SpaceValidationError(
                f"sigma^2 = {self.sigma * self.sigma:.3g} times the horizon must not exceed "
                f"{MAX_EXPONENT:g}")
        if not abs(self.drift) * self.horizon <= MAX_EXPONENT:
            raise SpaceValidationError(
                f"the drift mu - zeta lam - sigma^2/2 = {self.drift:.3g} times the horizon "
                f"must not exceed {MAX_EXPONENT:g} in size")

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


def _stopped(f, times, stop, after=None) -> np.ndarray:
    """f(min(times, stop)) for an elementwise f, evaluated on the shared times and on the
    per-path stop times alone (a stop past the last time is taken there, unused).  With
    ``after``, each path's value v from its stop on is after(v), evaluated per path."""
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
    bundle = _empty_bundle(sc, rep, sc.n_paths)
    chunks = _row_map(lambda lo, hi: draw(_rows(bundle, lo, hi), lo), sc.n_paths)
    bundle.samples = [s for samples in chunks for s in samples]
    return bundle


def _paths(sc, report_times, keep_paths):
    """(rep, draw): the checked report times, and draw(part, lo), which fills ``part`` with
    paths lo, lo + 1, ... as ``simulate`` does and returns their samples below ``keep_paths``."""
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

    def draw(part, lo):
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
        return _fill(part, quad, lo, jumps, normals, min(keep_paths - lo, part.n_paths), stream)

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


def _by_rows(fn, bundle: PathBundle, *args):
    """fn(bundle, *args), an array or a tuple of arrays with one row per path,
    evaluated chunk by chunk (``_row_map``) into column-major arrays shaped
    like fn's output on no rows."""
    n = bundle.n_paths
    empty = fn(_rows(bundle, 0, 0), *args)
    one = not isinstance(empty, tuple)
    outs = [np.empty((n,) + e.shape[1:], e.dtype, order="F") for e in ((empty,) if one else empty)]

    def chunk(lo, hi):
        parts = fn(_rows(bundle, lo, hi), *args)
        for out, part in zip(outs, (parts,) if one else parts):
            out[lo:hi] = part

    _row_map(chunk, n)
    return outs[0] if one else tuple(outs)


def _evaluate(sc, rep, jumps, normals, keep_paths, stream) -> PathBundle:
    """The bundle of the paths drawn as ``jumps`` and ``normals``, in one block."""
    bundle = _empty_bundle(sc, rep, len(jumps))
    bundle.samples = _fill(bundle, _quadrature_table(sc), 0, jumps, normals, keep_paths, stream)
    return bundle


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
                           from_second[:keep, None], W, _jump_counts(grid, jumps[:keep]))
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


def _jump_counts(times, jumps, axis: int = 1) -> np.ndarray:
    """#{k : jumps[i, k] <= times[g]}, (paths, times), or (times, paths) with axis 0,
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
    res = _by_rows(_m_residual, bundle)
    return {
        "G": bundle.G, "G_tilde": bundle.G_tilde, "m": bundle.m,
        "D_opt": bundle.D_opt, "N_G": bundle.N_G,
        "m_identity_residual": float(res.max()),
    }


def _m_residual(b):
    """max_t |m - (G + D^o)| of each path."""
    return np.abs(b.m.T - (b.G.T + b.D_opt.T)).max(axis=0)


def solve_drift(sc: JumpDiffusionScenario, psi2: float) -> float:
    """The Brownian loading making the deflated price driftless.

    Solves mu + psi1 sigma + (psi2 - 1) zeta lam = 0 for psi1; psi2 must be
    strictly positive, and psi1^2 * horizon finite.
    """
    if not psi2 > 0.0:
        raise AdmissibilityError("psi2 must be strictly positive")
    psi1 = -(sc.mu + (psi2 - 1.0) * sc.zeta * sc.lam) / sc.sigma
    if not math.isfinite(psi1 * psi1 * sc.horizon):
        raise SpaceValidationError(
            f"the market price of risk -(mu + (psi2 - 1) zeta lam) / sigma = {psi1:.3g} "
            "overflows: its square times the horizon must be finite")
    return psi1


def transported_brownian(bundle: PathBundle) -> np.ndarray:
    """W stopped at tau: the transport of the Brownian motion."""
    return _by_rows(PathBundle.stopped_W, bundle)


def transported_poisson(bundle: PathBundle) -> np.ndarray:
    """Transport of the compensated Poisson process.

    The stopped compensated process plus the jump correction (1 + beta T1)
    replacing the plain unit jump when the horizon coincides with T1.
    """
    return _by_rows(_transported_poisson, bundle)


def _transported_poisson(b):
    sc = b.scenario
    return (b.first_jump_stopped().T * (1.0 + sc.beta * b.t1)
            - sc.lam * b.stopped_times().T).T


def survival_exponential(bundle: PathBundle) -> np.ndarray:
    """The density-style exponential of (1/G_minus) . m, a unit-mean martingale."""
    return _by_rows(_survival_exponential, bundle)


def _survival_exponential(b):
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
    """Raise :class:`AdmissibilityError` unless the deflator of ``build_deflator``
    is admissible on every path: psi2, phi_o and phi_pr first, then ``_check_paths``."""
    if not psi2 > 0.0:
        raise AdmissibilityError("psi2 must be strictly positive")
    if not phi_o > -1.0:
        raise AdmissibilityError("phi_o must exceed -1 before the first jump")
    if not phi_pr > -1.0:
        raise AdmissibilityError("phi_pr must exceed -1 at the default date")
    if phi_pr > 0.0:  # Z = M (1 + phi_pr 1{tau <= t}) with M > 0 a unit-mean martingale
        raise AdmissibilityError("phi_pr must not exceed 0: above, E[Z_t] > 1 once default "
                                 "can occur, so Z is no supermartingale deflator")
    _check_paths(bundle, psi2, phi_o, 0)


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
              + _stopped(lambda x: (lam / beta) * np.log1p(beta * x), times, tau))
    e_l = np.exp(log_el) * np.where(seen, np.where(from_second, 1.0, (1.0 + beta * t1) * psi2),
                                    1.0)
    e_ng = _stopped(lambda x: np.exp(-phi_o * (lam + beta) * _ig(beta, x)), times, tau,
                    lambda v: np.where(from_second, 1.0 + phi_o, 1.0) * v)
    e_d = 1.0 + phi_pr * seen
    return e_l, e_ng, e_d


def proportional_wealth(bundle: PathBundle, theta: float, *, stopped: bool = True) -> np.ndarray:
    """Wealth of the constant proportional strategy theta, optionally stopped.

    The multiplicative wealth E(theta . X) with X the price driver; requires
    1 + theta zeta > 0 for admissibility.
    """
    check_wealth(bundle.scenario, theta)
    return _by_rows(_wealth, bundle, theta, stopped)


def check_wealth(sc: JumpDiffusionScenario, theta: float) -> None:
    """Raise :class:`AdmissibilityError` unless theta is finite and 1 + theta zeta > 0."""
    if not (math.isfinite(theta) and 1.0 + theta * sc.zeta > 0.0):
        raise AdmissibilityError(
            f"theta = {theta:g} is inadmissible: 1 + theta zeta must be positive")


def _wealth(b, theta, stopped):
    sc = b.scenario
    if stopped:
        ts, Ws, Ns = b.stopped_times().T, b.stopped_W().T, b.first_jump_stopped().T
    else:
        ts, Ws, Ns = b.report_times[:, None], b.W.T, b.N.T
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


def lmd_times_price(bundle: PathBundle, psi1: float, psi2: float) -> np.ndarray:
    """E(psi1.W + (psi2-1).N^c) * S / S0, unstopped: the drift-condition probe."""
    return _by_rows(_lmd_times_price, bundle, psi1, psi2)


def _lmd_times_price(b, psi1, psi2):
    sc, t = b.scenario, b.report_times[:, None]
    dens = np.exp(psi1 * b.W.T - 0.5 * psi1**2 * t - (psi2 - 1.0) * sc.lam * t) * psi2 ** b.N.T
    return (dens * b.S.T / sc.S0).T


def simulate_suite(sc: JumpDiffusionScenario, psi1: float, psi2: float, *, theta: float,
                   phi_o: float = 0.0, phi_pr: float = 0.0, keep_paths: int = 0) -> tuple:
    """The ``simulate`` suite, drawn and evaluated in one pass per chunk of paths.

    Returns (kept, values, features, m_identity_residual), bit for bit what the public
    functions give on ``bundle = simulate(sc, keep_paths=keep_paths)``: its first
    ``keep_paths`` paths and their samples; each ``SUITE`` null's (n_paths, R) array (``m``
    and ``N_G`` the bundle's, ``deflator_plain`` and ``deflator_with_default_leg``
    ``build_deflator``'s ``E_L`` and ``Z``, ``deflated_wealth`` ``proportional_wealth`` times
    ``E_L``, ``deflated_price_drift`` ``lmd_times_price``, the others their namesakes);
    ``feature_matrix(bundle)``; and ``closed_forms``' residual.  ``keep_paths``, then psi2,
    phi_o and phi_pr, then theta are checked before any draw; each chunk's paths then meet
    the path rule, and ``_map`` raises in chunk order, so a breach names the first offending path.
    """
    rep, draw = _paths(sc, None, keep_paths)
    n, R = sc.n_paths, len(rep)
    kept = _empty_bundle(sc, rep, keep_paths)
    check_deflator(_rows(kept, 0, 0), psi2, phi_o=phi_o, phi_pr=phi_pr)  # 0 paths: loadings alone
    check_wealth(sc, theta)
    values = {name: np.empty((n, R), order="F") for name, *_ in SUITE}
    features, residual = np.empty((n, R, 3), order="F"), np.empty(n)

    def chunk(lo, hi):
        b = _empty_bundle(sc, rep, hi - lo)
        b.samples = draw(b, lo)
        _check_paths(b, psi2, phi_o, lo)
        parts = _suite_rows(b, psi1, psi2, theta, phi_o, phi_pr)
        for out, part in zip((*values.values(), features, residual), parts):
            out[lo:hi] = part
        if lo < keep_paths:  # the rows past keep_paths fall off both slices
            for f in _PER_PATH + _PER_REPORT:
                getattr(kept, f)[lo:hi] = getattr(b, f)[:keep_paths - lo]
        return b.samples

    kept.samples = [s for samples in _row_map(chunk, n) for s in samples]
    return kept, values, features, float(residual.max())


def _suite_rows(b, psi1, psi2, theta, phi_o, phi_pr):
    """The rows of ``SUITE``'s nulls in its order, then the features and the m residual."""
    Z, e_l, _, _ = _deflator_rows(b, psi1, psi2, phi_o, phi_pr)
    return (b.m, b.stopped_W(), _transported_poisson(b), b.N_G, _survival_exponential(b), e_l,
            Z, _wealth(b, theta, True) * e_l, _lmd_times_price(b, psi1, psi2),
            _feature_matrix(b), _m_residual(b))


def suite_tests(values, features, *, phi_pr: float = 0.0) -> tuple:
    """(tests, n_zscores, z_crit): ``SUITE``'s nulls as ``mc_suite``'s tests of
    ``simulate_suite``'s values and features, how many z-scores they compute (R per null
    of R report times, plus (R - 1)(p + 1) per martingale null regressed on p features),
    and the Sidak (JASA 1967) two-sided critical value that gives so many independent
    N(0, 1) z-scores the family-wise size SUITE_ALPHA.  With phi_pr < 0 the default
    leg's deflator is a supermartingale null: a martingale times 1 + phi_pr 1{tau <= t}.
    """
    _, R, p = features.shape
    tests, n_z = {}, 0
    for name, start, null, regressed in SUITE:
        null = "supermartingale" if name == "deflator_with_default_leg" and phi_pr < 0 else null
        regressed = regressed and null == "martingale"
        tests[name] = (values[name], start, null, features if regressed else None)
        n_z += R + ((R - 1) * (p + 1) if regressed else 0)
    z_crit = NormalDist().inv_cdf(1.0 + math.expm1(math.log1p(-SUITE_ALPHA) / n_z) / 2.0)
    return tests, n_z, z_crit


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
    is (n_paths, n_times); each column's mean and standard error are sums over
    it in one pass, in NumPy's pairwise order, on a column-major copy of a
    row-major input (this module's arrays are read in place), so no bit
    depends on the memory order.  The regression's normal equations and
    meats are sums over fixed blocks of ``_BLOCK`` paths, added in block
    order (see ``_sandwich_z``).  Under the ``"martingale"`` null every mean
    equals ``start``; under ``"supermartingale"`` means may only drift down.  A zero
    standard error (a column of one repeated value, whose mean is that value)
    gives z = 0 where the mean equals ``start`` and z = +-inf
    (with a warning naming the null and the times) where it does not.  With
    (n_paths, n_times, p) ``features`` observable at each time, the one-step
    increments of a martingale null are regressed on them (intercept added)
    and the heteroskedasticity-robust coefficient z-scores sharpen the test;
    nulls passing the same features object share one regression pass per step.
    A step that rests on fewer than ``MIN_SAMPLES`` moving paths is not
    regressed for a null: where fewer move off the increment the null's
    other paths share (0 for a stopped process, the deterministic drift
    before a jump), or off the value a feature's other paths share while at
    least one moves off it (a jump count that one path has left at 0).  Its
    regression z-scores are NaN, and a warning names the step and the count.
    Features whose first two axes differ from ``values`` raise ``ValueError``.

    Each test fails closed: non-finite values or features (each features
    object is scanned once), or a mean or standard error that is not finite
    (fewer than two paths, overflow), give ``rejected=True`` and ``max_abs_z =
    inf`` with a warning naming the cause, and the null joins no regression.
    """
    times = np.asarray(times, float)
    items = list(tests.items())
    rows = max((len(values) for values, *_ in tests.values()), default=0)
    shared = {}  # per features object: its array, its non-finite count, the nulls regressed on it
    for *_, features in tests.values():
        if features is not None and id(features) not in shared:
            F = np.asfortranarray(features, dtype=float)
            shared[id(features)] = F, F.size - np.count_nonzero(np.isfinite(F)), []

    def moments(item):
        F, n_bad, _ = shared.get(id(item[1][3]), (None, 0, None))
        return _moments(*item, F, n_bad, times, z_crit)

    reports = {}
    for (name, (*_, features)), (rep, X, joins) in zip(items, _map(moments, items, rows)):
        reports[name] = rep
        if joins:
            shared[id(features)][2].append((name, X))
    for F, _, members in (group for group in shared.values() if group[2]):
        reg, live = _sandwich_z(F, [X for _, X in members])
        for (name, _), reg_z, n_live in zip(members, reg, live):
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


def _moments(name, test, F, n_bad, times, z_crit) -> tuple:
    """One null's report from its means and standard errors (see ``mc_suite``),
    its column-major values, and whether it joins the regression on its
    features F, which hold n_bad non-finite entries.  Each column's standard
    error, constant check and non-finite count run on that column alone, so no
    temporary spans more than one column."""
    values, start, null, _ = test
    X = np.asfortranarray(values, dtype=float)
    if F is not None and (F.ndim != 3 or F.shape[:2] != X.shape):
        raise ValueError(f"{name}: features of shape {F.shape} do not match values "
                         f"of shape {X.shape}; expected (n_paths, n_times, p)")
    n, R = X.shape
    notes = [f"only {n} paths: statistical power is low"] if n < 1000 else []
    ses, x_bad, rounding = np.full(R, np.nan), 0, n * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        means = X.mean(axis=0)
        for j in range(R):
            col = X[:, j]
            if not np.isfinite(means[j]):  # a non-finite entry leaves no finite sum
                x_bad += n - np.count_nonzero(np.isfinite(col))
            if n > 1:  # a float sum of one repeated value can miss it by an ulp
                ses[j] = col.std(ddof=1) / np.sqrt(n)
                # a column whose spread is rounding (below n eps |mean|) may be constant
                if ses[j] <= rounding * abs(means[j]) and (col == col[0]).all():
                    means[j], ses[j] = col[0], 0.0
        dev = means - start
        z = np.where((ses == 0) & (dev == 0), 0.0, dev / ses)
    flat = (ses == 0) & (dev != 0)
    if flat.any():
        notes.append(f"zero standard error with mean != start {start:g} at t = "
                     f"{', '.join(f'{t:g}' for t in times[flat])}: z = +-inf under "
                     f"the {null} null")
    bad = [f"{label} ({count} of {arr.size} entries)"
           for label, arr, count in (("values", X, x_bad), ("features", F, n_bad)) if count]
    if not bad and not (np.isfinite(means).all() and np.isfinite(ses).all()):
        bad = ["means or standard errors"]
    if bad:
        notes.append(f"non-finite {', '.join(bad)}: null rejected")
        z = np.where(np.isfinite(means) & np.isfinite(ses), z, np.nan)
        return (MCTestReport(times, means, ses, z, None, null, True, float("inf"),
                             "; ".join(notes)), X, False)
    size = float(np.max(np.abs(z)))
    top = size if null == "martingale" else np.max(z)  # only a rise rejects a supermartingale
    rep = MCTestReport(times, means, ses, z, None, null, bool(top > z_crit), size,
                       "; ".join(notes) or None)
    return rep, X, F is not None and null == "martingale" and X.shape[1] > 1


def _sandwich_z(F, Xs) -> tuple:
    """Robust z-scores of each X's one-step increments on [1, F_j]: (len(Xs), R - 1, p + 1),
    and the number of moving paths each X's step rests on: (len(Xs), R - 1).

    That number is the fewest paths that move off a common value: of the
    X's increments, or of a feature column some path moves off.  A step
    where it is below ``MIN_SAMPLES`` has NaN z-scores for that X: a
    coefficient carried by a handful of paths fits them almost exactly, so
    its sandwich standard error sits near 0 and gives any z.

    The steps run on a thread pool (``_map``), one task each.  A step reads
    the column-major F and Xs in place, and sums over blocks of ``_BLOCK``
    paths, in block order, into buffers of one block that its task makes
    once: the design rows A = [1/2, F_j] and the increment rows DX.  It
    makes three sweeps over the blocks:

    1. the moving-path counts, each against the median of its row's first
       2 MIN_SAMPLES - 1 entries (``_common``), and the extremes of each
       row, which give the power of two that scales the row to a maximum
       modulus in [1/2, 1): that leaves each z-score unchanged and keeps
       every square finite;
    2. G = A A^T and A DX^T, of the scaled rows;
    3. after one pseudo-inverse of G, which gives the coefficients
       C = G^+ A DX^T (the minimum-norm fit when the features are
       rank-deficient), the meats of the squared residuals.

    Each null's covariance is G^+ meat G^+ (MacKinnon and White's HC0
    sandwich, its diagonal floored at 1e-300), so the fit and the covariance
    cut the same directions: those of G below (p + 1) n eps of its largest,
    the rounding of its n-term sums.  The meats of all nulls come from two
    products of the squared residuals: with A, whose rows are twice the
    intercept's row products A_0 A_b, and with the products A_a A_b for
    1 <= a <= b.  Sweep 1 reads each feature's counts and extremes straight
    from its contiguous column of F; only the increments need a buffer there.
    """
    n, R, p = F.shape
    k = len(Xs)
    rows, cols = np.triu_indices(p)
    rows += 1
    cols += 1
    out = np.empty((k, R - 1, p + 1))
    live = np.empty((k, R - 1), dtype=int)
    rtol = (p + 1) * n * np.finfo(float).eps
    blocks = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    head = slice(0, 2 * MIN_SAMPLES - 1)

    def step(j):
        A = np.empty((p + 1, min(_BLOCK, n)))
        A[0] = 0.5
        P = np.empty((len(rows), A.shape[1]))
        DX = np.empty((k, A.shape[1]))
        feats = [F[:, j, c] for c in range(p)]

        def increments(lo, hi):
            dx = DX[:, :hi - lo]
            for i, X in enumerate(Xs):
                np.subtract(X[lo:hi, j + 1], X[lo:hi, j], out=dx[i])
            return dx

        # sweep 1: moving paths, and the extremes that give each row's scale
        on_features = [np.count_nonzero(f != _common(f[head])) for f in feats]
        common = np.array([_common(X[head, j + 1] - X[head, j]) for X in Xs])[:, None]
        moving = np.zeros(k, dtype=int)
        top, bottom = np.full(k, -np.inf), np.full(k, np.inf)
        for lo, hi in blocks:
            dx = increments(lo, hi)
            moving += np.count_nonzero(dx != common, axis=1)
            np.maximum(top, dx.max(axis=1), out=top)
            np.minimum(bottom, dx.min(axis=1), out=bottom)
        live[:, j] = np.minimum(moving, min((c for c in on_features if c > 0), default=n))
        e_f = [np.frexp(max(f.max(), -f.min()))[1] for f in feats]
        e_x = np.frexp(np.maximum(top, -bottom))[1][:, None]

        def scaled(lo, hi):  # the block's design rows and increments, each row scaled
            a, dx = A[:, :hi - lo], increments(lo, hi)
            for c, f in enumerate(feats):
                np.ldexp(f[lo:hi], -e_f[c], out=a[c + 1])
            return a, np.ldexp(dx, -e_x, out=dx)

        # sweep 2: the normal equations
        G, AD = np.zeros((p + 1, p + 1)), np.zeros((p + 1, k))
        for lo, hi in blocks:
            a, dx = scaled(lo, hi)
            G += a @ a.T
            AD += a @ dx.T
        G_inv = np.linalg.pinv(G, rcond=rtol, hermitian=True)
        C = G_inv @ AD

        # sweep 3: the meats of the squared residuals
        on_a, on_p = np.zeros((k, p + 1)), np.zeros((k, len(rows)))
        for lo, hi in blocks:
            a, dx = scaled(lo, hi)
            for i in range(k):
                dx[i] -= C[:, i] @ a
            np.square(dx, out=dx)
            pr = P[:, :hi - lo]
            for q, (r, c) in enumerate(zip(rows, cols)):
                np.multiply(a[r], a[c], out=pr[q])
            on_a += dx @ a.T
            on_p += dx @ pr.T
        meat = np.empty((k, p + 1, p + 1))
        meat[:, 0, :] = meat[:, :, 0] = 0.5 * on_a
        meat[:, rows, cols] = meat[:, cols, rows] = on_p
        cov = G_inv @ meat @ G_inv
        se = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1e-300))
        out[:, j] = C.T / se
        out[live[:, j] < MIN_SAMPLES, j] = np.nan

    _map(step, range(R - 1), n)
    return out, live


def _common(head):
    """The median of ``head``, a row's first 2 MIN_SAMPLES - 1 entries: if fewer
    than MIN_SAMPLES entries of the row differ from some value, that median is it."""
    mid = (len(head) - 1) // 2
    return np.partition(head, mid)[mid]


def feature_matrix(bundle: PathBundle) -> np.ndarray:
    """Observable features (S_t, N_t, 1{t < T1}) at each report time."""
    return _by_rows(_feature_matrix, bundle)


def _feature_matrix(b):
    F = np.empty((3,) + b.S.T.shape)  # (feature, time, path): F.T is stored as _by_rows stores it
    F[0], F[1] = b.S.T, b.N.T
    np.less(b.report_times[:, None], b.t1, out=F[2])
    return F.T
