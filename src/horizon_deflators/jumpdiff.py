"""Monte-Carlo engine for the Brownian-Poisson market with a random horizon.

The market is S = S0 * E(sigma.W + zeta.N^c + mu.t) driven by a Brownian
motion and a compensated Poisson process with intensity ``lam``; the random
horizon is tau = (a T2) ^ T1, the minimum of the first Poisson jump time and
a fraction of the second.  For this horizon every survival object has a
closed form in terms of beta = lam (1/a - 1):

    G~_t = exp(-beta t)(1 + beta t)  before T1,   exp(-beta t) at T1,
    G_t  = exp(-beta t)(1 + beta t)  before T1,   0 from T1 on,
    m_t  = 1 + lam beta I1(t ^ T1) - beta T1 exp(-beta T1) 1{T1 <= t},
    D^o_t = int_0^{t ^ T1} (beta+lam) beta s exp(-beta s) ds
            + exp(-beta T1) 1{T1 <= t},

with I1(x) = int_0^x s exp(-beta s) ds.  Jump times are drawn exactly
(exponential gaps, kept off-grid); Brownian values are sampled exactly at the
report times and at tau; the Lebesgue part of D^o is the one quantity
evaluated by trapezoidal quadrature on the dt grid, so the pathwise identity
m = G + D^o holds up to O(dt^2).

Statistical verification is by Monte-Carlo means with standard errors,
sharpened by regressing one-step increments on observable features with
heteroskedasticity-robust (sandwich) standard errors.  ``mc_suite`` tests a
whole suite of nulls: per report step, one regression pass serves every null
that passes the same feature array.  ``mc_test`` is its one-null call.  A
zero standard error reads as a pass only where the mean equals the start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AdmissibilityError, SpaceValidationError

SIGMA_FLOOR = 1e-12
MAX_PATHS = 2**32        # a path index must fit one 32-bit spawn-key word
MAX_STEPS = 2**20        # dt-grid points: bounds the quadrature table and the bridge fill
MAX_MEAN_JUMPS = 2**10   # lam * horizon: bounds the jump table and the gap-drawing loop
MAX_EXPONENT = 512.0     # sigma^2 * horizon and |drift| * horizon: exp(sigma W_t + drift t)
                         # stays far from float overflow


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
        drift = self.mu - self.zeta * self.lam - 0.5 * self.sigma * self.sigma
        if not abs(drift) * self.horizon <= MAX_EXPONENT:
            raise SpaceValidationError(
                f"the drift mu - zeta lam - sigma^2/2 = {drift:.3g} times the horizon must "
                f"not exceed {MAX_EXPONENT:g} in size")

    @property
    def beta(self) -> float:
        return self.lam * (1.0 / self.a - 1.0)


def _i1(beta: float, x):
    """int_0^x s exp(-beta s) ds, exact."""
    x = np.asarray(x, dtype=float)
    return (1.0 - np.exp(-beta * x) * (1.0 + beta * x)) / beta**2


def _ig(beta: float, x):
    """int_0^x beta s / (1 + beta s) ds = x - log(1 + beta x)/beta, exact."""
    x = np.asarray(x, dtype=float)
    return x - np.log1p(beta * x) / beta


@dataclass
class PathBundle:
    """Per-path simulation output at the report times plus full-grid samples.

    All (n_paths, n_report) arrays are exact-in-distribution; ``samples``
    holds full-grid versions of the first few paths (Brownian values filled
    in by bridge sampling from each path's own stream).
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
    G_tilde: np.ndarray
    m: np.ndarray
    D_opt: np.ndarray
    N_G: np.ndarray
    samples: list = field(default_factory=list)

    @property
    def n_paths(self) -> int:
        return len(self.tau)

    def stopped_times(self) -> np.ndarray:
        return np.minimum(self.report_times[None, :], self.tau[:, None])

    def stopped_W(self) -> np.ndarray:
        hit = self.tau[:, None] <= self.report_times[None, :]
        return np.where(hit, self.W_tau[:, None], self.W)

    def default_seen(self) -> np.ndarray:
        """1{tau <= t} at the report times."""
        return (self.tau[:, None] <= self.report_times[None, :]).astype(float)

    def first_jump_stopped(self) -> np.ndarray:
        """1{tau = T1 <= t}: the price jump happened before or at the horizon."""
        return ((~self.from_second_jump)[:, None]
                & (self.t1[:, None] <= self.report_times[None, :])).astype(float)


def _quadrature_table(sc: JumpDiffusionScenario):
    beta, lam = sc.beta, sc.lam
    n_steps = int(np.ceil(sc.horizon / sc.dt - 1e-9))
    grid = np.arange(n_steps + 1) * sc.dt
    dens = (beta + lam) * beta * grid * np.exp(-beta * grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    return grid, dens, cum


def _lebesgue_quadrature(sc, grid, dens, cum, x):
    """Trapezoid of the D^o density over [0, x] using the dt grid plus a stub."""
    beta, lam = sc.beta, sc.lam
    x = np.asarray(x, dtype=float)
    idx = np.minimum((x / sc.dt).astype(int), len(grid) - 1)
    base = cum[idx]
    left = grid[idx]
    fl = dens[idx]
    fx = (beta + lam) * beta * x * np.exp(-beta * x)
    return base + 0.5 * (fl + fx) * (x - left)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, hashed with these constants.
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _spawn_keys(seed: int, n: int) -> np.ndarray:
    """Philox keys of ``SeedSequence(entropy=seed, spawn_key=(i,))`` for i < n, (n, 2) uint64.

    The run entropy (the seed's little-endian 32-bit words, zero-padded to the
    pool size because a spawn key follows) hashes into the same pool for every
    path, so it is mixed once in Python ints.  Only the mixing of the spawn
    word i into each pool word and ``generate_state(2, uint64)`` run on
    arrays: uint32 arithmetic on uint64 arrays masked to 32 bits, which wraps
    silently where numpy scalars would warn.  The hash constant advances the
    same way whatever the data, so scalar and array words share one schedule.
    """
    seed, hash_a = int(seed), _INIT_A

    def hashmix(v):
        nonlocal hash_a
        v = v ^ hash_a
        hash_a = hash_a * _MULT_A & _M32
        v = v * hash_a & _M32
        return v ^ v >> 16

    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL - len(words))
    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in [*words[_POOL:], np.arange(n, dtype=np.uint64)]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    hash_b = _INIT_B
    state = []
    for p in pool:
        p = p ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        p = p * hash_b & _M32
        state.append(p ^ p >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def _rekeyer(bitgen: np.random.Philox):
    """``rekey(key)`` puts ``bitgen`` where ``Philox(SeedSequence)`` starts:
    that key, counter zero, empty buffer.  One state dict serves every call."""
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": None},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(key):
        state["state"]["key"] = key
        bitgen.state = state

    return rekey


def _path_draws(gen, scale: float, H: float, n_normals: int):
    """One path's draw sequence: blocks of 8 jump gaps until past H, then its normals."""
    cum = np.cumsum(gen.exponential(scale=scale, size=8))
    while cum[-1] < H:
        cum = np.concatenate([cum, cum[-1] + np.cumsum(gen.exponential(scale=scale, size=8))])
    return cum, gen.standard_normal(n_normals)


def simulate(sc: JumpDiffusionScenario, *, report_times=None, keep_paths: int = 0,
             progress: bool = False) -> PathBundle:
    """Draw all paths and evaluate the market and survival objects.

    Path i draws from the Philox stream keyed by
    ``SeedSequence(entropy=seed, spawn_key=(i,))``: first blocks of 8
    exponential jump gaps until their sum passes the horizon, then the
    Brownian normals for the report grid augmented by tau, then (for kept
    paths) the bridge refinement onto the full dt grid.  The keys of all paths
    are derived in one vectorized pass of numpy's SeedSequence hash, and one
    Philox generator, re-keyed per path at counter zero, draws every path's
    first 8 gaps and its normals into preallocated arrays.  A path whose 8
    gaps end before the horizon, and every kept path, replays its own sequence
    from its key.  The draws are those of a fresh ``Generator(Philox(...))``
    per path, so results are reproducible per (seed, dt), and the first k paths
    are the same whatever n_paths.
    """
    if not 0 <= keep_paths <= sc.n_paths:
        raise SpaceValidationError(f"keep_paths must lie in [0, n_paths = {sc.n_paths}]")
    H, n = sc.horizon, sc.n_paths
    if report_times is None:
        report_times = H * np.arange(1, 9) / 8.0
    rep = np.asarray(report_times, dtype=float)
    R = len(rep)
    scale = 1.0 / sc.lam

    keys = _spawn_keys(sc.seed, n)
    bitgen = np.random.Philox(key=keys[0])
    gen = np.random.Generator(bitgen)
    rekey = _rekeyer(bitgen)
    gaps = np.empty((n, 8))
    normals = np.empty((n, R + 1))
    for i in range(n):
        rekey(keys[i])
        gen.standard_exponential(out=gaps[i])
        gen.standard_normal(out=normals[i])
    jumps = np.cumsum(gaps * scale, axis=1)  # exponential(scale) is scale * standard
    for i in np.flatnonzero(jumps[:, -1] < H):
        rekey(keys[i])
        path_jumps, normals[i] = _path_draws(gen, scale, H, R + 1)
        if len(path_jumps) > jumps.shape[1]:
            jumps = np.pad(jumps, ((0, 0), (0, len(path_jumps) - jumps.shape[1])),
                           constant_values=np.inf)
        jumps[i, :len(path_jumps)] = path_jumps

    def stream(i):
        rekey(keys[i])
        _path_draws(gen, scale, H, R + 1)
        return gen

    return _evaluate(sc, rep, jumps, normals, keep_paths, stream)


def _evaluate(sc, rep, jumps, normals, keep_paths, stream) -> PathBundle:
    """Every report-grid quantity from the draws, plus the kept full-grid samples.

    ``jumps`` holds each path's jump times (inf-padded), ``normals`` its R+1
    Brownian normals, and ``stream(i)`` returns path i's generator positioned
    just after those normals, where its bridge fill continues.
    """
    H, beta, lam = sc.horizon, sc.beta, sc.lam
    n, R = len(jumps), len(rep)
    t1, t2 = jumps[:, 0], jumps[:, 1]
    tau = np.minimum(sc.a * t2, t1)
    from_second = sc.a * t2 < t1
    tau_c = np.minimum(tau, H)

    # Brownian values at the report grid augmented (per path) by tau
    stacked = np.concatenate([np.tile(rep, (n, 1)), tau_c[:, None]], axis=1)
    order = np.argsort(stacked, axis=1, kind="stable")
    times_aug = np.take_along_axis(stacked, order, axis=1)
    dt_aug = np.diff(np.concatenate([np.zeros((n, 1)), times_aug], axis=1), axis=1)
    W_aug = np.cumsum(normals * np.sqrt(dt_aug), axis=1)
    tau_col = order == R
    W_tau = W_aug[tau_col]
    W_rep = W_aug[~tau_col].reshape(n, R)

    # Poisson counts and the price at the report times
    N_rep = np.zeros((n, R))
    step = 8192
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        N_rep[lo:hi] = (jumps[lo:hi, :, None] <= rep[None, None, :]).sum(axis=1)
    drift = sc.mu - sc.zeta * lam - 0.5 * sc.sigma**2
    S_rep = sc.S0 * np.exp(sc.sigma * W_rep + drift * rep[None, :]) \
        * (1.0 + sc.zeta) ** N_rep

    # closed-form survival objects
    before_t1 = rep[None, :] < t1[:, None]
    egrid = np.exp(-beta * rep)[None, :] * (1.0 + beta * rep)[None, :]
    G = np.where(before_t1, egrid, 0.0)
    G_tilde = np.where(before_t1, egrid, 0.0)  # {t = T1} carries no dt mass
    x1 = np.minimum(rep[None, :], t1[:, None])
    m = 1.0 + lam * beta * _i1(beta, x1) \
        - beta * t1[:, None] * np.exp(-beta * t1[:, None]) * (~before_t1)
    grid, dens, cum = _quadrature_table(sc)
    D_opt = _lebesgue_quadrature(sc, grid, dens, cum, x1) \
        + np.exp(-beta * t1[:, None]) * (~before_t1)
    xs = np.minimum(rep[None, :], tau[:, None])
    N_G = (from_second[:, None] & (sc.a * t2[:, None] <= rep[None, :])).astype(float) \
        - (lam + beta) * _ig(beta, xs)

    bundle = PathBundle(
        scenario=sc, report_times=rep, t1=t1, t2=t2, tau=tau,
        from_second_jump=from_second, W=W_rep, W_tau=W_tau, N=N_rep, S=S_rep,
        G=G, G_tilde=G_tilde, m=m, D_opt=D_opt, N_G=N_G,
    )
    for i in range(keep_paths):
        bundle.samples.append(_full_grid_sample(
            sc, grid, dens, cum, i, times_aug[i], W_aug[i], jumps[i],
            tau[i], from_second[i], stream(i)))
    return bundle


def _full_grid_sample(sc, grid, dens, cum, index, coarse_t, coarse_w, jumps,
                      tau, from_second, gen):
    """Bridge-fill one path onto the dt grid and evaluate every process on it."""
    beta, lam = sc.beta, sc.lam
    anchors_t = np.concatenate([[0.0], coarse_t])
    anchors_w = np.concatenate([[0.0], coarse_w])
    W = np.empty_like(grid)
    W[0] = 0.0
    for j in range(len(anchors_t) - 1):
        s, e = anchors_t[j], anchors_t[j + 1]
        ws, we = anchors_w[j], anchors_w[j + 1]
        inside = np.flatnonzero((grid > s) & (grid < e))
        prev_t, prev_w = s, ws
        for g in inside:
            u = grid[g]
            span = e - prev_t
            mean = prev_w + (u - prev_t) / span * (we - prev_w)
            var = (u - prev_t) * (e - u) / span
            prev_w = mean + np.sqrt(max(var, 0.0)) * gen.standard_normal()
            prev_t = u
            W[g] = prev_w
        on = np.flatnonzero(np.isclose(grid, e) & (grid > s))
        for g in on:
            W[g] = we
    # grid points past the last anchor (a horizon that is not a multiple of dt,
    # or report times ending before it) continue by independent increments
    prev_t, prev_w = anchors_t[-1], anchors_w[-1]
    for g in np.flatnonzero((grid > prev_t) & ~np.isclose(grid, prev_t)):
        prev_w = prev_w + np.sqrt(grid[g] - prev_t) * gen.standard_normal()
        prev_t = grid[g]
        W[g] = prev_w
    t1 = jumps[0]
    N = (jumps[None, :] <= grid[:, None]).sum(axis=1).astype(float)
    drift = sc.mu - sc.zeta * lam - 0.5 * sc.sigma**2
    S = sc.S0 * np.exp(sc.sigma * W + drift * grid) * (1.0 + sc.zeta) ** N
    before = grid < t1
    e1 = np.exp(-beta * grid) * (1.0 + beta * grid)
    G = np.where(before, e1, 0.0)
    G_tilde = np.where(before, e1, 0.0)  # as on the report grid: {t = T1} carries no dt mass
    x1 = np.minimum(grid, t1)
    m = 1.0 + lam * beta * _i1(beta, x1) - beta * t1 * np.exp(-beta * t1) * (grid >= t1)
    D_opt = _lebesgue_quadrature(sc, grid, dens, cum, x1) + np.exp(-beta * t1) * (grid >= t1)
    xs = np.minimum(grid, tau)
    N_G = (float(from_second) * (tau <= grid)) - (lam + beta) * _ig(beta, xs)
    return {
        "index": index, "time": grid, "W": W, "N": N, "S": S,
        "G": G, "G_tilde": G_tilde, "m": m, "D_opt": D_opt, "N_G": N_G,
        "tau": float(tau), "t1": float(t1),
        "m_identity_residual": float(np.max(np.abs(m - (G + D_opt)))),
    }


def closed_forms(bundle: PathBundle) -> dict:
    """Survival grids at the report times with the pathwise identity residual."""
    res = np.abs(bundle.m - (bundle.G + bundle.D_opt))
    return {
        "G": bundle.G, "G_tilde": bundle.G_tilde, "m": bundle.m,
        "D_opt": bundle.D_opt, "N_G": bundle.N_G,
        "m_identity_residual": float(res.max()),
    }


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
    return bundle.stopped_W()


def transported_poisson(bundle: PathBundle) -> np.ndarray:
    """Transport of the compensated Poisson process.

    The stopped compensated process plus the jump correction (1 + beta T1)
    replacing the plain unit jump when the horizon coincides with T1.
    """
    sc = bundle.scenario
    ts = bundle.stopped_times()
    hit = bundle.first_jump_stopped()
    return hit * (1.0 + sc.beta * bundle.t1[:, None]) - sc.lam * ts


def survival_exponential(bundle: PathBundle) -> np.ndarray:
    """The density-style exponential of (1/G_minus) . m, a unit-mean martingale."""
    sc = bundle.scenario
    beta, lam = sc.beta, sc.lam
    x1 = np.minimum(bundle.report_times[None, :], bundle.t1[:, None])
    cont = np.exp(lam * _ig(beta, x1))
    seen = (bundle.t1[:, None] <= bundle.report_times[None, :])
    jump = np.where(seen, 1.0 / (1.0 + beta * bundle.t1[:, None]), 1.0)
    return cont * jump


def build_deflator(bundle: PathBundle, psi1: float, psi2: float, *,
                   phi_o: float = 0.0, phi_pr: float = 0.0) -> dict:
    """Deflator samples Z = E(L)^tau E(phi_o . N_G) E(phi_pr . D).

    L folds the drift-corrected Brownian and Poisson loadings with the
    survival discount; the pathwise constraints are checked at the realized
    default dates and violations name the offending path.
    """
    sc = bundle.scenario
    beta, lam = sc.beta, sc.lam
    if not psi2 > 0.0:
        raise AdmissibilityError("psi2 must be strictly positive")
    if not phi_o > -1.0:
        raise AdmissibilityError("phi_o must exceed -1 before the first jump")
    if not phi_pr > -1.0:
        raise AdmissibilityError("phi_pr must exceed -1 at the default date")
    hit_t1 = (~bundle.from_second_jump) & (bundle.tau <= sc.horizon)
    bound = psi2 * (1.0 + beta * bundle.t1)
    bad = np.flatnonzero(hit_t1 & (phi_o >= bound))
    if len(bad):
        raise AdmissibilityError(
            f"phi_o at the first jump breaches psi2 (1 + beta T1) on path {int(bad[0])}",
        )

    ts = bundle.stopped_times()
    Ws = bundle.stopped_W()
    jump_seen = bundle.first_jump_stopped()
    log_el = (psi1 * Ws - 0.5 * psi1**2 * ts - lam * psi2 * ts
              + (lam / beta) * np.log1p(beta * ts))
    e_l = np.exp(log_el) * np.where(
        jump_seen > 0, (1.0 + beta * bundle.t1[:, None]) * psi2, 1.0)
    second_seen = (bundle.from_second_jump[:, None]
                   & (bundle.tau[:, None] <= bundle.report_times[None, :]))
    e_ng = np.where(second_seen, 1.0 + phi_o, 1.0) \
        * np.exp(-phi_o * (lam + beta) * _ig(beta, ts))
    e_d = 1.0 + phi_pr * bundle.default_seen()
    Z = e_l * e_ng * e_d
    return {"Z": Z, "E_L": e_l, "E_NG": e_ng, "E_D": e_d}


def proportional_wealth(bundle: PathBundle, theta: float, *, stopped: bool = True) -> np.ndarray:
    """Wealth of the constant proportional strategy theta, optionally stopped.

    The multiplicative wealth E(theta . X) with X the price driver; requires
    1 + theta zeta > 0 for admissibility.
    """
    sc = bundle.scenario
    if 1.0 + theta * sc.zeta <= 0.0:
        raise AdmissibilityError("inadmissible proportional strategy")
    if stopped:
        ts, Ws = bundle.stopped_times(), bundle.stopped_W()
        Ns = bundle.first_jump_stopped()
    else:
        ts = np.tile(bundle.report_times, (bundle.n_paths, 1))
        Ws, Ns = bundle.W, bundle.N
    drift = theta * sc.mu - theta * sc.zeta * sc.lam - 0.5 * theta**2 * sc.sigma**2
    return np.exp(theta * sc.sigma * Ws + drift * ts) * (1.0 + theta * sc.zeta) ** Ns


def deflator_grid(bundle: PathBundle, index: int, psi1: float, psi2: float, *,
                  phi_o: float = 0.0, phi_pr: float = 0.0) -> np.ndarray:
    """Deflator values of one kept sample path on the full dt grid."""
    sc = bundle.scenario
    beta, lam = sc.beta, sc.lam
    s = bundle.samples[index]
    grid = s["time"]
    tau, t1 = s["tau"], s["t1"]
    ts = np.minimum(grid, tau)
    Ws = np.where(grid >= tau, bundle.W_tau[index], s["W"])
    jump_seen = (not bundle.from_second_jump[index]) & (tau <= grid)
    log_el = (psi1 * Ws - 0.5 * psi1**2 * ts - lam * psi2 * ts
              + (lam / beta) * np.log1p(beta * ts))
    e_l = np.exp(log_el) * np.where(jump_seen, (1.0 + beta * t1) * psi2, 1.0)
    second_seen = bundle.from_second_jump[index] & (tau <= grid)
    e_ng = np.where(second_seen, 1.0 + phi_o, 1.0) \
        * np.exp(-phi_o * (lam + beta) * _ig(beta, ts))
    e_d = 1.0 + phi_pr * (tau <= grid)
    return e_l * e_ng * e_d


def progressive_mean_test(bundle: PathBundle, values_at_default, *,
                          n_bins: int = 6, z_crit: float = 3.0):
    """Bin test of the zero-conditional-mean condition at the default date.

    ``values_at_default`` gives the progressive integrand evaluated at tau per
    path; paths defaulting inside the window are binned on observables at the
    default date (which jump produced it, and the default date quantile) and
    each bin's mean is z-tested against zero.  Returns (max |z|, rejected,
    bins) where bins maps a label to (count, mean, se).
    """
    vals = np.asarray(values_at_default, dtype=float)
    seen = bundle.tau <= bundle.scenario.horizon
    bins = {}
    max_z = 0.0
    for flag in (False, True):
        sel = seen & (bundle.from_second_jump == flag)
        if not np.any(sel):
            continue
        edges = np.quantile(bundle.tau[sel], np.linspace(0, 1, n_bins + 1))
        which = np.clip(np.searchsorted(edges, bundle.tau[sel], side="right") - 1,
                        0, n_bins - 1)
        v = vals[sel]
        for b in range(n_bins):
            grp = v[which == b]
            if len(grp) < 20:
                continue
            se = grp.std(ddof=1) / np.sqrt(len(grp))
            z = 0.0 if se == 0 else grp.mean() / se
            bins[f"jump{int(flag) + 1}/bin{b}"] = (len(grp), float(grp.mean()), float(se))
            max_z = max(max_z, abs(float(z)))
    return max_z, max_z > z_crit, bins


def lmd_times_price(bundle: PathBundle, psi1: float, psi2: float) -> np.ndarray:
    """E(psi1.W + (psi2-1).N^c) * S / S0, unstopped: the drift-condition probe."""
    sc = bundle.scenario
    t = bundle.report_times[None, :]
    dens = np.exp(psi1 * bundle.W - 0.5 * psi1**2 * t
                  - (psi2 - 1.0) * sc.lam * t) * psi2 ** bundle.N
    return dens * bundle.S / sc.S0


@dataclass(frozen=True)
class MCTestReport:
    """Mean / standard-error / z-score table per report time, plus regression z's."""

    times: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    zscores: np.ndarray
    regression_z: np.ndarray | None
    null: str
    rejected: bool
    max_abs_z: float
    warning: str | None


def mc_test(values, times, *, start: float, null: str = "martingale",
            features=None, z_crit: float = 3.0) -> MCTestReport:
    """Monte-Carlo null test of mean constancy (or decrease) from ``start``.

    The one-null call of :func:`mc_suite`, which documents the test.
    """
    return mc_suite({null: (values, start, null, features)}, times, z_crit=z_crit)[null]


def mc_suite(tests, times, *, z_crit: float = 3.0) -> dict[str, MCTestReport]:
    """Monte-Carlo null tests of a suite, one :class:`MCTestReport` per name.

    ``tests`` maps a name to ``(values, start, null, features)``.  ``values``
    is (n_paths, n_times).  Under the ``"martingale"`` null every mean equals
    ``start``; under ``"supermartingale"`` means may only drift down.  A zero
    standard error gives z = 0 where the mean equals ``start`` and z = +-inf
    (with a warning naming the null and the times) where it does not.  With
    (n_paths, n_times, p) ``features`` observable at each time, the one-step
    increments of a martingale null are regressed on them (intercept added)
    and the heteroskedasticity-robust coefficient z-scores sharpen the test;
    nulls passing the same features object share one regression pass per step.
    Features whose first two axes differ from ``values`` raise ``ValueError``.

    Each test fails closed: non-finite values or features, or a mean or
    standard error that is not finite (fewer than two paths, overflow), give
    ``rejected=True`` and ``max_abs_z = inf`` with a warning naming the cause,
    and the null joins no regression.
    """
    times = np.asarray(times, float)
    reports, shared = {}, {}
    for name, (values, start, null, features) in tests.items():
        X = np.asarray(values, dtype=float)
        F = None if features is None else np.asarray(features, dtype=float)
        if F is not None and (F.ndim != 3 or F.shape[:2] != X.shape):
            raise ValueError(f"{name}: features of shape {F.shape} do not match values "
                             f"of shape {X.shape}; expected (n_paths, n_times, p)")
        n = X.shape[0]
        notes = [f"only {n} paths: statistical power is low"] if n < 1000 else []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            means = X.mean(axis=0)
            ses = X.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.full_like(means, np.nan)
            dev = means - start
            z = np.where((ses == 0) & (dev == 0), 0.0, dev / ses)
        flat = (ses == 0) & (dev != 0)
        if flat.any():
            notes.append(f"zero standard error with mean != start {start:g} at t = "
                         f"{', '.join(f'{t:g}' for t in times[flat])}: z = +-inf under "
                         f"the {null} null")
        bad = [f"{label} ({np.count_nonzero(~np.isfinite(arr))} of {arr.size} entries)"
               for label, arr in (("values", X), ("features", F))
               if arr is not None and not np.isfinite(arr).all()]
        if not bad and not (np.isfinite(means).all() and np.isfinite(ses).all()):
            bad = ["means or standard errors"]
        if bad:
            notes.append(f"non-finite {', '.join(bad)}: null rejected")
            z = np.where(np.isfinite(means) & np.isfinite(ses), z, np.nan)
            reports[name] = MCTestReport(times, means, ses, z, None, null, True,
                                         float("inf"), "; ".join(notes))
            continue
        max_z = float(np.max(np.abs(z))) if null == "martingale" else float(np.max(z))
        reports[name] = MCTestReport(times, means, ses, z, None, null, max_z > z_crit,
                                     max_z, "; ".join(notes) or None)
        if F is not None and null == "martingale" and X.shape[1] > 1:
            shared.setdefault(id(features), (F, []))[1].append((name, X))
    for F, members in shared.values():
        reg = _sandwich_z(F, [X for _, X in members])
        for (name, _), reg_z in zip(members, reg):
            rep = reports[name]
            max_z = max(rep.max_abs_z, float(np.max(np.abs(reg_z))))
            reports[name] = replace(rep, regression_z=reg_z, rejected=max_z > z_crit,
                                    max_abs_z=max_z)
    return reports


def _sandwich_z(F, Xs) -> np.ndarray:
    """Robust z-scores of each X's one-step increments on [1, F_j]: (len(Xs), R - 1, p + 1).

    Per step j the design rows A = [1/2, F_j] and the increment rows DX are
    filled into preallocated buffers, every feature and increment row scaled
    by a power of two to a maximum modulus in [1/2, 1): that leaves each
    z-score unchanged and keeps every square finite.  One pseudo-inverse of
    G = A A^T gives both the coefficients C = G^+ A DX^T (the minimum-norm fit
    when the features are rank-deficient) and each null's covariance
    G^+ meat G^+ (MacKinnon and White's HC0 sandwich, its diagonal floored at
    1e-300), so the two cut the same directions: those of G below
    (p + 1) n eps of its largest, the rounding of its n-term sums.  The meats
    of all nulls come from two products of the squared residuals: with A,
    whose rows are twice the intercept's row products A_0 A_b, and with the
    products A_a A_b for 1 <= a <= b.
    """
    n, R, p = F.shape
    k = len(Xs)
    rows, cols = np.triu_indices(p)
    rows += 1
    cols += 1
    A = np.empty((p + 1, n))
    A[0] = 0.5
    P = np.empty((len(rows), n))
    DX = np.empty((k, n))
    meat = np.empty((k, p + 1, p + 1))
    out = np.empty((k, R - 1, p + 1))
    rtol = (p + 1) * n * np.finfo(float).eps
    for j in range(R - 1):
        A[1:] = F[:, j, :].T
        for i, X in enumerate(Xs):
            np.subtract(X[:, j + 1], X[:, j], out=DX[i])
        for M in (A[1:], DX):
            top = np.maximum(M.max(axis=1), -M.min(axis=1))
            np.ldexp(M, -np.frexp(top)[1][:, None], out=M)
        G_inv = np.linalg.pinv(A @ A.T, rcond=rtol, hermitian=True)
        C = G_inv @ (A @ DX.T)
        for i in range(k):
            DX[i] -= C[:, i] @ A
        np.square(DX, out=DX)
        for q, (a, b) in enumerate(zip(rows, cols)):
            np.multiply(A[a], A[b], out=P[q])
        meat[:, 0, :] = meat[:, :, 0] = 0.5 * (DX @ A.T)
        meat[:, rows, cols] = meat[:, cols, rows] = DX @ P.T
        cov = G_inv @ meat @ G_inv
        se = np.sqrt(np.maximum(np.diagonal(cov, axis1=1, axis2=2), 1e-300))
        out[:, j] = C.T / se
    return out


def feature_matrix(bundle: PathBundle) -> np.ndarray:
    """Observable features (S_t, N_t, 1{t < T1}) at each report time."""
    pre = (bundle.report_times[None, :] < bundle.t1[:, None]).astype(float)
    return np.stack([bundle.S, bundle.N, pre], axis=2)
