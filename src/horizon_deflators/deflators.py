"""Deflator factories for the stopped market, with decompositions and converses.

Three routes construct a positive process Z for the stopped model from
public-filtration data:

* additive: Z = E(K_G) * E(-V_F)^tau where the driver K_G transports a public
  martingale driver, subtracts the survival drift, and adds integrals against
  the compensated default indicator and the default time itself;
* multiplicative: Z = (Z_F)^tau / E((1/G_minus) . m)^tau * E(phi_o . N_G)
  * E(phi_pr . D), the literal product parametrization;
* measure-change: Z = (Z_QF)^tau * Z^(phi) with Z_QF a deflator under the
  survival-changed measure and Z^(phi) = E(phi . N_G).

On trees where no sub-cell dies while a sibling survives (``regular`` random
times, the discrete counterpart of the G > 0 hypothesis of the continuous
theory) the three routes agree exactly after the parameter re-scalings
implemented in ``additive_to_multiplicative`` / ``multiplicative_to_additive``.
At irregular cells the additive route redistributes the vanished survival
mass (staying a martingale) while the product routes are supermartingales;
both behaviours are exposed rather than reconciled.

The module also provides the inverse machinery: multiplicative decomposition
of positive supermartingales, the two-term decomposition of enlarged-
filtration martingales into a transported public martingale plus an integral
against the compensated default indicator, optional-payoff representation,
and the split of a deflator at a stopping time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, StructuralError
from .enlargement import (
    RandomTimeStructure,
    _lift_surviving,
    _martingale_input,
    survival_exponential_integrand,
    transport,
)
from .prob_core import (
    TOL_EXACT,
    Array,
    as_values,
    _cond_rows,
    _date_of,
    _ratio,
    _weights,
    classify,
    project,
    stochastic_exponential,
    stochastic_integral,
    stop,
)


@dataclass(frozen=True)
class DeflatorParams:
    """Parameter bundle for one deflator route.

    ``phi_o`` is an optional (adapted) integrand against the compensated
    default indicator, ``phi_pr`` a progressive integrand against the default
    indicator (identically absorbed on finite trees: its value at tau must
    vanish), ``V_F`` a predictable nondecreasing process with increments < 1.
    The base is ``K_F`` (additive), ``Z_F`` (multiplicative) or ``Z_QF``
    (measure-change); ``phi`` is the measure-change route's integrand.
    """

    route: str
    K_F: Array | None = None
    Z_F: Array | None = None
    Z_QF: Array | None = None
    phi_o: Array | None = None
    phi_pr: Array | None = None
    phi: Array | None = None
    V_F: Array | None = None

    def __post_init__(self):
        if self.route not in ROUTES:
            raise AdmissibilityError(f"unknown route {self.route!r}")


@dataclass(frozen=True)
class Deflator:
    """A constructed positive process with its factorization certificate.

    ``provenance`` names the route, ``params`` the inputs that built it, and
    ``factors`` multiply back to Z exactly.
    """

    Z: Array
    provenance: str
    K_G: Array | None
    factors: dict
    report: "AdmissibilityReport"
    params: "DeflatorParams | None" = None

    def factor_product(self) -> Array:
        return _product(self.factors.values())


def _product(factors) -> Array:
    out = 1.0
    for f in factors:
        out = out * f
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-node admissibility maps; the realized factor signs are authoritative."""

    route: str
    ok: bool
    factor_positive: Array
    inequalities: dict
    bounds: dict
    collapse_ok: bool
    min_factor: float
    first_violation: tuple | None


@dataclass(frozen=True)
class Representation:
    """Decomposition data for an enlarged-filtration martingale or payoff."""

    M_F: Array | None = None
    phi: Array | None = None
    phi_known: Array | None = None
    residual: float = 0.0
    h: Array | None = None
    J: Array | None = None
    Y_h: Array | None = None
    M_h: Array | None = None
    H_h: Array | None = None
    g_positive: Array | None = None


def _full(rts, x) -> Array:
    """Broadcast scalars to an (atom, time) table."""
    if x is None:
        return np.zeros((rts.space.n_atoms, rts.horizon + 1))
    x = np.asarray(as_values(x), dtype=float)
    if x.ndim == 0:
        return np.full((rts.space.n_atoms, rts.horizon + 1), float(x))
    return x


def _exponential(p, X) -> Array:
    """The product of the factors 1 + p_k dX_k over 0 < k <= n."""
    factors = np.ones_like(p)
    factors[:, 1:] = 1.0 + p[:, 1:] * np.diff(X, axis=1)
    return np.cumprod(factors, axis=1)


def default_exponential(phi, rts: RandomTimeStructure) -> Array:
    """E(phi . N_G) for an adapted integrand: one factor per pre-horizon date.

    The factor at k is 1 + phi_k G_k / G~_k on {tau = k} and
    1 - phi_k dD_opt_k / G~_k on {tau > k}; 1 after tau.
    """
    return _exponential(_full(rts, phi), rts.N_G)


def progressive_exponential(phi_pr, rts: RandomTimeStructure) -> Array:
    """E(phi_pr . D): a single factor 1 + phi_pr at the default date (>= 1)."""
    return _exponential(_full(rts, phi_pr), rts.D)


def survival_discount(rts: RandomTimeStructure) -> Array:
    """The stopped reciprocal density 1 / Z_bar^tau (positive on every atom)."""
    zb = stop(rts.Z_bar, rts.tau)
    return 1.0 / zb


def induced_base(K_F, rts: RandomTimeStructure, *, check: bool = True) -> Array:
    """E(T(K_F) - (1/G_minus) . T(m)): the martingale base of every route.

    For a public martingale driver K_F this is a martingale of the enlarged
    filtration on every tree; it equals (E(K_F))^tau / Z_bar^tau wherever the
    random time is regular.
    """
    K_F = _full(rts, K_F)
    Y = driver_base(K_F, rts, check=check)
    return stochastic_exponential(Y)


def driver_base(K_F, rts: RandomTimeStructure, *, check: bool = True) -> Array:
    """The additive driver Y = T(K_F) - (1/G_minus) . T(m)."""
    TK = transport(K_F, rts, check=check)
    Tm = transport(rts.m, rts, check=False)
    return TK - stochastic_integral(survival_exponential_integrand(rts), Tm)


def _collapse_ok(phi_pr, rts) -> bool:
    p = _full(rts, phi_pr)
    at_tau = p[np.arange(rts.space.n_atoms), rts.tau]
    return bool(np.all(at_tau == 0.0))


def _factor_report(route, factors_live, rts, inequalities, bounds, collapse_ok):
    """Assemble the report from realized one-step factors on live cells."""
    pos = factors_live > 0.0
    ok = bool(pos.all()) and collapse_ok
    first = None
    if not pos.all():
        atom, km1 = np.unravel_index(np.argmin(factors_live), factors_live.shape)
        first = ("factor_positive", int(atom), int(km1) + 1)
    elif not collapse_ok:
        first = ("progressive_collapse", None, None)
    full_pos = np.ones((rts.space.n_atoms, rts.horizon + 1), dtype=bool)
    full_pos[:, 1:] = pos
    return AdmissibilityReport(
        route=route, ok=ok, factor_positive=full_pos, inequalities=inequalities,
        bounds=bounds, collapse_ok=collapse_ok,
        min_factor=float(factors_live.min()) if factors_live.size else 1.0,
        first_violation=first,
    )


def _optional_bounds(rts) -> dict:
    """The strict interval for the optional integrand, with +/-inf conventions."""
    G, Gt = rts.G, rts.G_tilde
    return {"optional_lower": _ratio(-Gt, G, -np.inf), "optional_upper": _ratio(Gt, Gt - G, np.inf)}


def _live_factors(Z_inc_factors, rts) -> Array:
    """Restrict one-step factors (atom, k>=1) to cells with k <= tau (else 1)."""
    T = rts.horizon
    live = rts.tau[:, None] >= np.arange(1, T + 1)[None, :]
    return np.where(live, Z_inc_factors, 1.0)


def validate(params: DeflatorParams, rts: RandomTimeStructure) -> AdmissibilityReport:
    """Admissibility check for a parameter bundle, report only.

    Inequality maps are reported per node with zero-denominator bounds read as
    +/-infinity; the overall verdict is the strict positivity of every
    realized exponential factor of the would-be deflator plus the progressive
    collapse condition (the integrand against D must vanish at tau).
    """
    return ROUTES[params.route][0](params, rts)


def _check_additive(params, rts) -> tuple:
    """The additive report, with the driver base Y and the driver K_G it checks."""
    collapse_ok = _collapse_ok(params.phi_pr, rts)
    K_F = _full(rts, params.K_F)
    phi_o = _full(rts, params.phi_o)
    phi_pr = _full(rts, params.phi_pr)
    Y = driver_base(K_F, rts, check=False)
    K_G = Y + stochastic_integral(phi_o, rts.N_G) + stochastic_integral(phi_pr, rts.D)
    factors = _live_factors(1.0 + np.diff(K_G, axis=1), rts)
    dK = np.diff(K_F, axis=1)
    one_dK = np.concatenate([np.ones((rts.space.n_atoms, 1)), 1.0 + dK], axis=1)
    G, Gt, Gm = rts.G, rts.G_tilde, rts.G_minus
    lo = _ratio(-Gm * one_dK, G, -np.inf)
    hi = _ratio(Gm * one_dK, Gt - G, np.inf)
    bounds = {"optional_lower": lo, "optional_upper": hi}
    prog_lo = _ratio(-(Gm * one_dK + phi_o * G), Gt, -np.inf)
    bounds["progressive_lower"] = prog_lo
    ineq = {
        "optional": (phi_o > lo) & (phi_o < hi),
        "progressive": phi_pr > prog_lo,
    }
    return _factor_report("additive", factors, rts, ineq, bounds, collapse_ok), Y, K_G


def _check_multiplicative(params, rts) -> AdmissibilityReport:
    collapse_ok = _collapse_ok(params.phi_pr, rts)
    Z_F = _full(rts, params.Z_F if params.Z_F is not None else 1.0)
    if np.min(Z_F) <= 0.0:
        raise AdmissibilityError("multiplicative base must be strictly positive")
    phi_o = _full(rts, params.phi_o)
    phi_pr = _full(rts, params.phi_pr)
    f_ng = 1.0 + phi_o[:, 1:] * np.diff(rts.N_G, axis=1)
    f_d = 1.0 + phi_pr[:, 1:] * np.diff(rts.D, axis=1)
    factors = _live_factors(f_ng * f_d, rts)
    bounds = _optional_bounds(rts)
    ineq = {
        "optional": (phi_o > bounds["optional_lower"]) & (phi_o < bounds["optional_upper"]),
        "progressive": phi_pr > -1.0,
    }
    return _factor_report("multiplicative", factors, rts, ineq, bounds, collapse_ok)


def _check_measure_change(params, rts) -> AdmissibilityReport:
    phi = _full(rts, params.phi)
    f_ng = 1.0 + phi[:, 1:] * np.diff(rts.N_G, axis=1)
    factors = _live_factors(f_ng, rts)
    bounds = _optional_bounds(rts)
    ineq = {"optional": (phi > bounds["optional_lower"]) & (phi < bounds["optional_upper"])}
    return _factor_report("measure-change", factors, rts, ineq, bounds, True)


def _require_ok(report: AdmissibilityReport):
    if not report.ok:
        name, atom, time = report.first_violation
        raise AdmissibilityError(
            f"inadmissible parameters on route {report.route!r}: {name} fails"
            + ("" if atom is None else f" at atom {atom}, time {time}"),
            inequality=name, atom=atom, time=time)


def _check_V(V_F, rts):
    V = _full(rts, V_F)
    if np.max(np.abs(V[:, 0])) > 0.0:
        raise AdmissibilityError("V must start at 0")
    dV = np.diff(V, axis=1)
    if np.min(dV) < 0.0:
        raise AdmissibilityError("V must be nondecreasing")
    if np.max(dV) >= 1.0:
        raise AdmissibilityError("V increments must stay below 1")
    if not rts.space.filtration.is_predictable(V, tol=0.0):
        raise AdmissibilityError("V must be predictable")
    return V


def build_additive(K_F, V_F, phi_o, phi_pr, rts: RandomTimeStructure, *,
                   check: bool = True) -> Deflator:
    """Additive-route deflator: E(K_G) E(-V_F)^tau.

    K_G transports the public driver, removes the survival drift, and adds
    the optional and progressive integrals; admissibility is the strict
    positivity of the realized factors.
    """
    K_F = _full(rts, K_F)
    params = DeflatorParams("additive", K_F=K_F, phi_o=_full(rts, phi_o),
                            phi_pr=_full(rts, phi_pr), V_F=_full(rts, V_F))
    report, Y, K_G = _check_additive(params, rts)
    _require_ok(report)
    if np.min(1.0 + np.diff(K_F, axis=1)) <= 0.0:
        raise AdmissibilityError("driver factors 1 + dK_F must be positive")
    V = _check_V(V_F, rts)
    _martingale_input(K_F, rts, check, TOL_EXACT)  # raises unless a public martingale
    decay = stop(stochastic_exponential(-V), rts.tau)
    Z = stochastic_exponential(K_G) * decay

    # exact Yor split into certificate factors
    phi_o_mult, phi_pr_mult = _yor_split(params.phi_o, params.phi_pr, Y, rts, np.divide)
    e_y = stochastic_exponential(Y)
    base_stopped = stop(stochastic_exponential(K_F), rts.tau)
    factors = {
        "base": base_stopped,
        "survival_discount": e_y / base_stopped,
        "default_exponential": default_exponential(phi_o_mult, rts),
        "progressive_exponential": progressive_exponential(phi_pr_mult, rts),
        "decay": decay,
    }
    return Deflator(Z=Z, provenance="additive", K_G=K_G, factors=factors,
                    report=report, params=params)


def build_multiplicative(Z_F, phi_o, phi_pr, rts: RandomTimeStructure) -> Deflator:
    """Product-route deflator: (Z_F)^tau / Z_bar^tau * E(phi_o . N_G) * E(phi_pr . D)."""
    Z_F = _full(rts, Z_F if Z_F is not None else 1.0)
    params = DeflatorParams("multiplicative", Z_F=Z_F, phi_o=_full(rts, phi_o),
                            phi_pr=_full(rts, phi_pr))
    report = validate(params, rts)
    _require_ok(report)
    factors = {
        "base": stop(Z_F, rts.tau),
        "survival_discount": survival_discount(rts),
        "default_exponential": default_exponential(phi_o, rts),
        "progressive_exponential": progressive_exponential(phi_pr, rts),
    }
    return Deflator(Z=_product(factors.values()), provenance="multiplicative", K_G=None,
                    factors=factors, report=report, params=params)


def build_measure_change(Z_QF, phi, rts: RandomTimeStructure, *, market=None,
                         tol: float = 1e-9) -> Deflator:
    """Measure-change-route deflator: (Z_QF)^tau * E(phi . N_G).

    ``Z_QF`` is a deflator for the market under the survival-changed measure;
    when a market under that measure is supplied the membership is verified
    by the one-step oracle.
    """
    from .market import verify_deflator

    Z_QF = _full(rts, Z_QF if Z_QF is not None else 1.0)
    if np.min(Z_QF) <= 0.0:
        raise AdmissibilityError("measure-change base must be strictly positive")
    params = DeflatorParams("measure-change", Z_QF=Z_QF, phi=_full(rts, phi))
    report = validate(params, rts)
    _require_ok(report)
    if market is not None:
        oracle = verify_deflator(Z_QF, market, tol=tol)
        if not oracle.ok:
            raise AdmissibilityError(
                f"base process is not a deflator under the changed measure "
                f"(excess {oracle.max_residual:g} at node {oracle.worst})")
    factors = {
        "base": stop(Z_QF, rts.tau),
        "default_exponential": default_exponential(phi, rts),
    }
    return Deflator(Z=_product(factors.values()), provenance="measure-change", K_G=None,
                    factors=factors, report=report, params=params)


# route -> (its admissibility check, its builder from a parameter bundle).  The
# builders are looked up when called, so a rebinding of one (a wrapper) is used.
ROUTES = {
    "additive": (lambda p, rts: _check_additive(p, rts)[0],
                 lambda p, rts: build_additive(p.K_F, p.V_F, p.phi_o, p.phi_pr, rts)),
    "multiplicative": (_check_multiplicative,
                       lambda p, rts: build_multiplicative(p.Z_F, p.phi_o, p.phi_pr, rts)),
    "measure-change": (_check_measure_change,
                       lambda p, rts: build_measure_change(p.Z_QF, p.phi, rts)),
}


def _rescale(phi, driver, op) -> Array:
    """phi_k op (1 + d driver_k) for k >= 1, and 0 at time 0."""
    out = np.zeros_like(phi)
    out[:, 1:] = op(phi[:, 1:], 1.0 + np.diff(driver, axis=1))
    return out


def _yor_split(phi_o, phi_pr, Y, rts, op) -> tuple:
    """Re-scale (phi_o, phi_pr) between the additive and product routes.

    Yor's formula E(Y + phi_o . N_G + phi_pr . D) = E(Y) E(phi_o' . N_G)
    E(phi_pr' . D) holds with phi_o' = phi_o / (1 + dY) and phi_pr' =
    phi_pr / (1 + dX), X = Y + phi_o . N_G the additive driver so far.
    ``op`` is ``np.divide`` for additive -> product, ``np.multiply`` back.
    """
    phi_o_new = _rescale(phi_o, Y, op)
    phi_o_add = phi_o if op is np.divide else phi_o_new
    X = Y + stochastic_integral(phi_o_add, rts.N_G)
    return phi_o_new, _rescale(phi_pr, X, op)


def additive_to_multiplicative(params: DeflatorParams, rts) -> DeflatorParams:
    """Re-scale additive parameters into the product parametrization."""
    K_F = _full(rts, params.K_F)
    V_F = _full(rts, params.V_F)
    phi_o = _full(rts, params.phi_o)
    phi_pr = _full(rts, params.phi_pr)
    Y = driver_base(K_F, rts, check=False)
    phi_o_m, phi_pr_m = _yor_split(phi_o, phi_pr, Y, rts, np.divide)
    Z_F = stochastic_exponential(K_F) * stochastic_exponential(-V_F)
    return DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o_m, phi_pr=phi_pr_m,
                          V_F=V_F)


def multiplicative_to_additive(params: DeflatorParams, rts, *, space=None) -> DeflatorParams:
    """Re-scale product parameters into the additive parametrization."""
    space = space if space is not None else rts.space
    Z_F = _full(rts, params.Z_F if params.Z_F is not None else 1.0)
    N, V = multiplicative_decomposition(space, Z_F)
    K_F = N
    phi_o = _full(rts, params.phi_o)
    phi_pr = _full(rts, params.phi_pr)
    Y = driver_base(K_F, rts, check=False)
    phi_o_a, phi_pr_a = _yor_split(phi_o, phi_pr, Y, rts, np.multiply)
    return DeflatorParams("additive", K_F=K_F, V_F=V, phi_o=phi_o_a, phi_pr=phi_pr_a)


def multiplicative_decomposition(space, Z, *, filtration=None, measure=None,
                                 tol: float = TOL_EXACT):
    """Split a positive supermartingale as Z_0 E(N) E(-V).

    N is a martingale with dN > -1, V predictable nondecreasing with dV < 1;
    the split inverts the one-step Doob decomposition of (1/Z_minus) . Z and
    reassembles exactly.
    """
    V = as_values(Z)
    if np.min(V) <= 0.0:
        raise ContractViolationError("multiplicative decomposition needs Z > 0")
    filt = filtration if filtration is not None else space.filtration
    rep = classify(space, V, filtration=filt, measure=measure, tol=tol)
    if rep.verdict not in ("martingale", "supermartingale"):
        raise ContractViolationError(
            f"not a supermartingale: positive residual {rep.sup_residual:g}")
    dX = np.diff(V, axis=1) / V[:, :-1]
    dVp = -_cond_rows(filt, dX.T, _weights(measure, space), True)
    dN = (dX + dVp) / (1.0 - dVp)
    N = np.zeros_like(V)
    N[:, 1:] = np.cumsum(dN, axis=1)
    Vout = np.zeros_like(V)
    Vout[:, 1:] = np.cumsum(dVp, axis=1)
    return N, Vout


def decompose_martingale(M_G, rts: RandomTimeStructure, *, tol: float = 1e-9) -> Representation:
    """Two-term decomposition of a stopped enlarged-filtration martingale.

    Solves, cell by cell, for the public martingale M_F and the adapted
    integrand phi with (M_G)^tau = M_0 + (1/G_minus^2) . T(M_F) + phi . N_G.
    Each public time-k cell splits into the atoms dying at k and those
    surviving k (both empty under a block with G_{k-1} = 0); the martingale
    increment must be constant on each part, and its weighted means determine
    the cell.
    The integrand is reported where it is identified (cells where the
    compensated default indicator actually moves both ways); elsewhere it is
    0 by convention, as is M_F on cells unreachable before the horizon.
    """
    space, T = rts.space, rts.horizon
    V = stop(as_values(M_G), rts.tau)
    rep = classify(space, as_values(M_G), filtration=rts.G_filtration, tol=tol)
    if not rep.is_martingale:
        raise ContractViolationError(
            f"decomposition input is not a martingale (residual {rep.max_residual:g})")
    filt = space.filtration
    x = np.diff(V, axis=1).T[:, :, None]  # time-major increments, dates 1..T
    dates = np.arange(1, T + 1)[:, None]
    sub = np.stack([rts.tau == dates, rts.tau > dates], axis=2)  # (dying at k, surviving k)
    wsub = np.where(sub, space.probs[:, None], 0.0)
    mass = filt.node_reduce(wsub, first=1)
    present = mass > 0.0
    mean = _ratio(filt.node_reduce(wsub * x, first=1), mass)
    hi = filt.node_reduce(np.where(sub, x, -np.inf), np.maximum, 1)
    lo = filt.node_reduce(np.where(sub, x, np.inf), np.minimum, 1)
    even = hi - lo <= tol * np.maximum(1.0, np.maximum(hi, -lo))
    uneven = (present & ~even).any(axis=1)
    if np.any(uneven):
        node = np.flatnonzero(uneven) + filt.offsets[1]
        k = int(_date_of(filt, node[0]))
        blocks = node[_date_of(filt, node) == k] - filt.offsets[k]
        raise ContractViolationError(
            "martingale increment not constant on an enlarged cell "
            f"at time {k}, block {int(filt.parent[k][blocks].min())}")
    a, bb = mean[:, 0], mean[:, 1]
    both = present.all(axis=1)
    k, first = (col[filt.offsets[1]:] for col in filt.node_atoms())  # one atom per cell
    g_prev = rts.G_minus[first, k]
    dDo = np.diff(rts.D_opt, axis=1)
    dMF = np.where(both, g_prev * (a * dDo[first, k - 1] + bb * rts.G[first, k]),
                   g_prev * rts.G_tilde[first, k] * np.where(present[:, 0], a, bb))
    cells = (filt.nodes[1:] - filt.offsets[1]).T  # the time-k cell of each atom, k = 1..T
    phi = np.zeros_like(V)
    phi[:, 1:] = np.where(both, a - bb, 0.0)[cells]
    known = np.zeros_like(V, dtype=bool)
    known[:, 1:] = both[cells]
    M_F = np.zeros_like(V)
    M_F[:, 1:] = dMF[cells]
    M_F = np.cumsum(M_F, axis=1)
    rebuilt = reassemble(V[:, 0], M_F, phi, rts)
    residual = float(np.max(np.abs(rebuilt - V)))
    return Representation(M_F=M_F, phi=phi, phi_known=known, residual=residual)


def reassemble(start, M_F, phi, rts: RandomTimeStructure) -> Array:
    """Rebuild M_0 + (1/G_minus^2) . T(M_F) + phi . N_G from decomposition data."""
    TM = transport(M_F, rts, check=False)
    gm = rts.G_minus
    weight = _ratio(1.0, gm * gm, where=gm > 0)
    out = stochastic_integral(weight, TM) + stochastic_integral(_full(rts, phi), rts.N_G)
    start = np.asarray(start, dtype=float)
    return (start.reshape(-1, 1) if start.ndim else float(start)) + out


def represent_payoff(h, rts: RandomTimeStructure, *, tol: float = 1e-10) -> Representation:
    """Optional-payoff representation of the enlarged projection of h at tau.

    Builds M_h (the projection of the full integral of h against the dual
    optional projection of D), the ratio J = (M_h - h . D_opt)/G on {G > 0},
    and H = E[h_tau | enlarged blocks]; the increment identity
    dH = (1/G_minus) dT(M_h) - (J_minus/G_minus) dT(m) + (h - J) dN_G
    is verified node for node on {G > 0}.
    """
    space, T = rts.space, rts.horizon
    hv = _full(rts, h)
    if not space.filtration.is_adapted(hv, tol=1e-12):
        raise ContractViolationError("payoff must be adapted")
    dDo = np.diff(rts.D_opt, axis=1)
    inc = np.concatenate([rts.D_opt[:, :1], dDo], axis=1)  # dD_opt with time-0 mass
    total = (hv * inc).sum(axis=1)
    M_h = project(space, np.repeat(total[:, None], T + 1, axis=1))
    h_int = np.cumsum(hv * inc, axis=1)
    Y_h = M_h - h_int
    g_pos = rts.G > 0.0
    J = _ratio(Y_h, rts.G)
    h_at_tau = hv[np.arange(space.n_atoms), rts.tau]
    H = project(space, np.repeat(h_at_tau[:, None], T + 1, axis=1), filtration=rts.G_filtration)

    TM = transport(M_h, rts, check=False)
    Tm = transport(rts.m, rts, check=False)
    gm_inv = survival_exponential_integrand(rts)
    J_minus = np.concatenate([J[:, :1], J[:, :-1]], axis=1)
    rhs = (H[:, :1]
           + stochastic_integral(gm_inv, TM)
           - stochastic_integral(J_minus * gm_inv, Tm)
           + stochastic_integral(hv - J, rts.N_G))
    residual_map = np.abs(rhs - H)
    residual = float(np.max(residual_map[g_pos])) if np.any(g_pos) else 0.0
    if residual > tol:
        raise StructuralError(f"payoff representation identity fails: {residual:g}")
    return Representation(h=hv, J=J, Y_h=Y_h, M_h=M_h, H_h=H,
                          residual=residual, g_positive=g_pos)


def split_at(Z, sigma, *, filtration=None) -> tuple:
    """Split the driver of a positive process at a stopping time.

    Returns (K1, K2) with K1 stopped at sigma, K2 flat before sigma, zero
    bracket, and E(K1) E(K2) = Z / Z_0.
    """
    V = as_values(getattr(Z, "Z", Z))
    if np.min(V) <= 0.0:
        raise ContractViolationError("split needs a positive process")
    s = np.asarray(sigma, dtype=np.int64)
    if filtration is not None and not filtration.is_adapted(s[:, None] <= np.arange(V.shape[1])):
        raise ContractViolationError("sigma is not a stopping time")
    K = np.zeros_like(V)
    K[:, 1:] = np.cumsum(np.diff(V, axis=1) / V[:, :-1], axis=1)
    K1 = stop(K, s)
    K2 = K - K1
    return K1, K2


def _broadcast_live(values, rts: RandomTimeStructure) -> Array:
    """Make a per-atom column table adapted by spreading each cell's live value.

    Values on atoms already dead at k are immaterial (the integrand multiplies
    a flat factor there); this replaces them with the surviving sub-cell's
    value so the returned process is constant on public cells.
    """
    out = np.array(values, dtype=float, copy=True)
    filt = rts.space.filtration
    live, found = filt.first_where(1, out.T[1:], rts.tau >= np.arange(1, rts.horizon + 1)[:, None])
    cells = (filt.nodes[1:] - filt.offsets[1]).T
    out[:, 1:] = np.where(found[cells], live[cells], out[:, 1:])
    return out


def extract_multiplicative(Z, rts: RandomTimeStructure, *, tol: float = 1e-9):
    """Recover product-route parameters from a positive stopped deflator.

    Inverts the construction: multiplicative split of Z in the enlarged
    filtration, lift of the predictable part, two-term decomposition of the
    martingale part, and the driver re-scaling.  Returns (params, diagnostics)
    with params rebuilding Z exactly on regular trees.
    """
    space = rts.space
    V = as_values(getattr(Z, "Z", Z))
    if np.max(np.abs(stop(V, rts.tau) - V)) > 0:
        raise ContractViolationError("extraction applies to processes stopped at tau")
    N, V_G = multiplicative_decomposition(space, V, filtration=rts.G_filtration, tol=tol)
    V_F = lift_predictable(V_G, rts)
    repn = decompose_martingale(N, rts, tol=max(tol, 10 * TOL_EXACT))
    gm = rts.G_minus
    w1 = _ratio(1.0, gm)
    w2 = _ratio(1.0, gm * gm, where=gm > 0)
    K_F = stochastic_integral(w1, rts.m) + stochastic_integral(w2, repn.M_F)
    Y = driver_base(K_F, rts, check=False)
    phi_o = _broadcast_live(_rescale(repn.phi, Y, np.divide), rts)
    Z_F = stochastic_exponential(K_F) * stochastic_exponential(-V_F)
    params = DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o,
                            phi_pr=np.zeros_like(K_F), V_F=V_F)
    return params, {"K_F": K_F, "decomposition": repn, "V_G": V_G, "N": N}


def lift_predictable(V_G, rts: RandomTimeStructure, *, tol: float = 1e-9) -> Array:
    """Lift an enlarged-predictable finite-variation process to the public side.

    On each public time-(k-1) block the lifted increment is the enlarged
    increment on the surviving sub-cell; blocks without survivors take 0.
    """
    dV = np.diff(as_values(V_G), axis=1)
    out = np.zeros((dV.shape[0], dV.shape[1] + 1))
    out[:, 1:] = _lift_surviving(dV.T, rts, lambda hi, lo: tol * np.maximum(1.0, np.maximum(hi, -lo)),
                                "predictable part not constant on a surviving sub-cell").T
    return np.cumsum(out, axis=1)
