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

Each route is one generator of the parameters: it broadcasts each table and
forms each exponential's one-step factors 1 + p_k dX_k once, yields the
admissibility report that ``validate`` returns and, resumed by a ``build_*``
once that report passes, the deflator built from the same tables.
``validate`` raises where a route's checks precede its report: every parameter
meets the one table rule, ``_full`` (numbers only, a number or a finite
(atoms, T+1) table), and a product route's base is positive.

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ContractViolationError, StructuralError
from .enlargement import (
    RandomTimeStructure,
    _alive,
    _lift_surviving,
    _martingale_steps,
    _transport_steps,
    survival_exponential_integrand,
)
from .market import verify_deflator
from .prob_core import (
    TOL_EXACT,
    Array,
    as_values,
    _compound,
    _cond_rows,
    _date_of,
    _ratio,
    _steps,
    _weights,
    classify,
    increments,
    project,
    stochastic_exponential,
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
        if not isinstance(self.route, str) or self.route not in ROUTES:
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
        return math.prod(self.factors.values())


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


def _full(shape, x, name: str, positive: bool = False) -> Array:
    """The one rule of a parameter table: ``x`` broadcast to ``shape``, (atoms, T+1).

    None reads 1 if ``positive``, else 0.  ``x`` must hold numbers only (no bool, no text,
    no ragged rows) and be a number or a table of that shape.  Every cell, a dead one too
    (an exponential multiplies in every cell), must be finite, and positive if ``positive``;
    else the error names ``name``, and the first bad cell.
    """
    try:
        x = _numbers(getattr(x, "values", float(positive) if x is None else x), integral=False)
    except ValueError:
        raise AdmissibilityError(f"{name} must be a number or a table of numbers: "
                                 "no bool, no text, no ragged rows") from None
    if x.ndim == 0:
        x = np.full(shape, float(x))
    elif x.shape != shape:
        raise AdmissibilityError(f"{name} must be a number or a table of shape {shape}, "
                                 f"got shape {x.shape}")
    ok = np.isfinite(x) & (x > 0.0) if positive else np.isfinite(x)
    if not ok.all():
        cell = np.unravel_index(np.argmin(ok), ok.shape)
        raise AdmissibilityError(f"{name} must be finite{' and strictly positive' * positive}, "
                                 f"got {float(x[cell])!r} at cell {tuple(map(int, cell))}")
    return x


def _numbers(x, integral: bool) -> Array:
    """``x`` by the one number rule of this library's inputs: floats, or int64 if ``integral``.

    Numbers only, at any depth: a bool, a text, a null or ragged rows raise ValueError, whose
    text is the first such cell's ``repr``, or "ragged rows".  An integer reads as the float
    it rounds to, refused only past the float range; if ``integral``, 7.0 reads 7, and a
    fraction or a value past int64 is refused.
    """
    try:
        values = np.asarray(x)
    except ValueError:
        raise ValueError("ragged rows") from None
    kind, listed = values.dtype.kind, isinstance(x, (list, tuple))
    rows = [x]  # a list's innermost rows
    for _ in range(values.ndim - 1 if listed else 0):
        rows = list(itertools.chain.from_iterable(rows))
    # NumPy reads a bool among numbers as a number: a list's rows are scanned for one
    if kind in "iuf" and (not listed or all(
            {bool, np.bool_}.isdisjoint(map(type, row)) for row in rows)):
        if not integral:
            return values.astype(float, copy=False)
        if kind == "i" or kind == "f" and np.all(  # up to 2^53 no integer was rounded
                (values == np.floor(values)) & (np.abs(values) <= 2.0 ** 53)):
            return values.astype(np.int64, copy=False)
    cells = list(itertools.chain.from_iterable(rows)) if listed else values.reshape(-1).tolist()
    numbers = [_cell(cell, integral) for cell in cells]  # exact, one cell at a time
    if integral:  # int64 cells: an integer past that range is refused
        numbers = [n if n is None or -2 ** 63 <= n < 2 ** 63 else None for n in numbers]
    if None in numbers:
        raise ValueError(repr(cells[numbers.index(None)]))
    return np.array(numbers, dtype=np.int64 if integral else float).reshape(values.shape)


def _cell(cell, integral: bool):
    """One cell by the rule of :func:`_numbers`: a float, or an int of any size if ``integral``
    (the int64 range is an array's); else None."""
    cell = cell.item() if isinstance(cell, np.generic) else cell
    try:
        value = float(cell) if type(cell) in (int, float) else None  # a bool is no number
    except OverflowError:  # an integer past the float range
        return None
    if integral and value is not None:
        return int(cell) if value.is_integer() else None
    return value


def _tables(params: DeflatorParams, rts, *names) -> tuple:
    """The named parameter tables, each broadcast and checked by :func:`_full`."""
    return tuple(_full(rts.G.shape, getattr(params, name), name) for name in names)


def default_exponential(phi, rts: RandomTimeStructure) -> Array:
    """E(phi . N_G) for an adapted integrand: one factor per pre-horizon date.

    The factor at k is 1 + phi_k G_k / G~_k on {tau = k} and
    1 - phi_k dD_opt_k / G~_k on {tau > k}; 1 after tau.
    """
    return _compound(_steps(rts.dN_G, _full(rts.G.shape, phi, "phi")))


def progressive_exponential(phi_pr, rts: RandomTimeStructure) -> Array:
    """E(phi_pr . D): a single factor 1 + phi_pr at the default date (>= 1)."""
    return _compound(_steps(rts.dD, _full(rts.G.shape, phi_pr, "phi_pr")))


def survival_discount(rts: RandomTimeStructure) -> Array:
    """The stopped reciprocal density 1 / Z_bar^tau (positive on every atom)."""
    return 1.0 / stop(rts.Z_bar, rts.tau)


def induced_base(K_F, rts: RandomTimeStructure) -> Array:
    """E(T(K_F) - (1/G_minus) . T(m)): the martingale base of every route.

    For a public martingale driver K_F this is a martingale of the enlarged
    filtration on every tree; it equals (E(K_F))^tau / Z_bar^tau wherever the
    random time is regular.
    """
    dK_F = _martingale_steps(_full(rts.G.shape, K_F, "K_F"), rts, True)
    return _compound(_steps(_driver_steps(dK_F, rts)))


def driver_base(K_F, rts: RandomTimeStructure, *, check: bool = True) -> Array:
    """The additive driver Y = T(K_F) - (1/G_minus) . T(m)."""
    return np.cumsum(_driver_steps(_martingale_steps(K_F, rts, check), rts), axis=1)


def _driver_steps(dK_F, rts) -> Array:
    """The increments of :func:`driver_base` from the increments of K_F."""
    dY = _transport_steps(dK_F, rts)
    dY[:, 1:] -= survival_exponential_integrand(rts)[:, 1:] * _transport_steps(rts.dm, rts)[:, 1:]
    return dY


def _optional(phi, c, rts) -> tuple:
    """The strict interval (-c / G, c / (G~ - G)) for the optional integrand, with
    +/-inf conventions, and the map of where ``phi`` lies inside it.  The numerator c
    is G~ on the product routes and G_-(1 + dK_F) on the additive one."""
    lo, hi = _ratio(-c, rts.G, -np.inf), _ratio(c, rts.G_tilde - rts.G, np.inf)
    return {"optional_lower": lo, "optional_upper": hi}, (phi > lo) & (phi < hi)


def _report(route, steps, phi_pr, rts, inequalities, bounds) -> AdmissibilityReport:
    """The verdict on the one-step factors of Z at the dates 1..T.

    Every factor on a live cell (k <= tau) must be positive, and the integrand
    ``phi_pr`` against D (None on a route without one) must vanish at tau.
    """
    live = np.where(_alive(rts.tau, rts.horizon), steps, 1.0)
    pos = live > 0.0
    collapse_ok = phi_pr is None or bool(
        np.all(phi_pr[np.arange(rts.space.n_atoms), rts.tau] == 0.0))
    first = None
    if not pos.all():
        atom, km1 = np.unravel_index(np.argmin(live), live.shape)
        first = ("factor_positive", int(atom), int(km1) + 1)
    elif not collapse_ok:
        first = ("progressive_collapse", None, None)
    return AdmissibilityReport(
        route=route, ok=first is None, factor_positive=np.insert(pos, 0, True, axis=1),
        inequalities=inequalities, bounds=bounds, collapse_ok=collapse_ok,
        min_factor=float(live.min()) if live.size else 1.0,
        first_violation=first,
    )


def _decay_steps(V, rts) -> Array:
    """The one-step factors 1 - dV of E(-V), once V is checked."""
    if np.max(np.abs(V[:, 0])) > 0.0:
        raise AdmissibilityError("V must start at 0")
    dV = np.diff(V, axis=1)
    if np.min(dV) < 0.0:
        raise AdmissibilityError("V must be nondecreasing")
    if np.max(dV) >= 1.0:
        raise AdmissibilityError("V increments must stay below 1")
    if not rts.space.filtration.is_predictable(V, tol=0.0):
        raise AdmissibilityError("V must be predictable")
    return 1.0 - dV


def _additive(params: DeflatorParams, rts):
    """The additive route: yields its report, then, resumed, its deflator."""
    K_F, V_F, phi_o, phi_pr = _tables(params, rts, "K_F", "V_F", "phi_o", "phi_pr")
    dK_F = increments(K_F)
    dY = _driver_steps(dK_F, rts)
    dK_G = dY + phi_o * rts.dN_G + phi_pr * rts.dD
    dK_G[:, 0] = dY[:, 0]  # the integrals start at 0
    steps_G, steps_F = _steps(dK_G), _steps(dK_F)
    c = rts.G_minus * np.insert(steps_F, 0, 1.0, axis=1)
    bounds, inside = _optional(phi_o, c, rts)
    prog_lo = _ratio(-(c + phi_o * rts.G), rts.G_tilde, -np.inf)
    report = _report("additive", steps_G, phi_pr, rts,
                     {"optional": inside, "progressive": phi_pr > prog_lo},
                     {**bounds, "progressive_lower": prog_lo})
    yield report
    if np.min(steps_F) <= 0.0:
        raise AdmissibilityError("driver factors 1 + dK_F must be positive")
    decay = stop(_compound(_decay_steps(V_F, rts)), rts.tau)
    _martingale_steps(K_F, rts, True)  # raises unless a public martingale
    steps_Y = _steps(dY)
    phi_o_mult, phi_pr_mult = _yor_split(phi_o, phi_pr, dY, steps_Y, rts, np.divide)
    base = stop(_compound(steps_F), rts.tau)
    factors = {
        "base": base,
        "survival_discount": _compound(steps_Y) / base,
        "default_exponential": default_exponential(phi_o_mult, rts),
        "progressive_exponential": progressive_exponential(phi_pr_mult, rts),
        "decay": decay,
    }
    yield Deflator(Z=_compound(steps_G) * decay, provenance="additive",
                   K_G=np.cumsum(dK_G, axis=1), factors=factors, report=report,
                   params=DeflatorParams("additive", K_F=K_F, phi_o=phi_o, phi_pr=phi_pr, V_F=V_F))


def _multiplicative(params: DeflatorParams, rts):
    """The product route: yields its report, then, resumed, its deflator."""
    Z_F = _full(rts.G.shape, params.Z_F, "multiplicative base", positive=True)
    phi_o, phi_pr = _tables(params, rts, "phi_o", "phi_pr")
    steps_o, steps_pr = _steps(rts.dN_G, phi_o), _steps(rts.dD, phi_pr)
    bounds, inside = _optional(phi_o, rts.G_tilde, rts)
    report = _report("multiplicative", steps_o * steps_pr, phi_pr, rts,
                     {"optional": inside, "progressive": phi_pr > -1.0}, bounds)
    yield report
    factors = {
        "base": stop(Z_F, rts.tau),
        "survival_discount": survival_discount(rts),
        "default_exponential": _compound(steps_o),
        "progressive_exponential": _compound(steps_pr),
    }
    yield Deflator(Z=math.prod(factors.values()), provenance="multiplicative", K_G=None,
                   factors=factors, report=report,
                   params=DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o, phi_pr=phi_pr))


def _measure_change(params: DeflatorParams, rts, market=None):
    """Measure-change route (oracle tol 1e-9): yields its report, then, resumed, its deflator."""
    Z_QF = _full(rts.G.shape, params.Z_QF, "measure-change base", positive=True)
    phi = _full(rts.G.shape, params.phi, "phi")
    steps = _steps(rts.dN_G, phi)
    bounds, inside = _optional(phi, rts.G_tilde, rts)
    report = _report("measure-change", steps, None, rts, {"optional": inside}, bounds)
    yield report
    if market is not None:
        oracle = verify_deflator(Z_QF, market, tol=1e-9)
        if not oracle.ok:
            raise AdmissibilityError(
                f"base process is not a deflator under the changed measure "
                f"(excess {oracle.max_residual:g} at node {oracle.worst})")
    factors = {"base": stop(Z_QF, rts.tau), "default_exponential": _compound(steps)}
    yield Deflator(Z=math.prod(factors.values()), provenance="measure-change", K_G=None,
                   factors=factors, report=report,
                   params=DeflatorParams("measure-change", Z_QF=Z_QF, phi=phi))


def _built(params: DeflatorParams, rts, *options) -> Deflator:
    """The deflator of the parameters' route once its report passes; else raise its violation."""
    route = ROUTES[params.route][0](params, rts, *options)
    report = next(route)
    if not report.ok:
        name, atom, time = report.first_violation
        raise AdmissibilityError(
            f"inadmissible parameters on route {report.route!r}: {name} fails"
            + ("" if atom is None else f" at atom {atom}, time {time}"),
            inequality=name, atom=atom, time=time)
    return next(route)


def validate(params: DeflatorParams, rts: RandomTimeStructure) -> AdmissibilityReport:
    """Admissibility check for a parameter bundle, report only.

    Inequality maps are reported per node with zero-denominator bounds read as
    +/-infinity; the overall verdict is the strict positivity of every
    realized exponential factor of the would-be deflator plus the progressive
    collapse condition (the integrand against D must vanish at tau).  A parameter
    table that is not numbers, of the wrong shape or with a non-finite cell, or a
    product route's base with a cell <= 0, raises, as in its builder.
    """
    return next(ROUTES[params.route][0](params, rts))


def build_additive(K_F, V_F, phi_o, phi_pr, rts: RandomTimeStructure) -> Deflator:
    """Additive-route deflator: E(K_G) E(-V_F)^tau.

    K_G transports the public driver, removes the survival drift, and adds
    the optional and progressive integrals; admissibility is the strict
    positivity of the realized factors.
    """
    return _built(DeflatorParams("additive", K_F=K_F, V_F=V_F, phi_o=phi_o, phi_pr=phi_pr), rts)


def build_multiplicative(Z_F, phi_o, phi_pr, rts: RandomTimeStructure) -> Deflator:
    """Product-route deflator: (Z_F)^tau / Z_bar^tau * E(phi_o . N_G) * E(phi_pr . D)."""
    return _built(DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o, phi_pr=phi_pr), rts)


def build_measure_change(Z_QF, phi, rts: RandomTimeStructure, *, market=None) -> Deflator:
    """Measure-change-route deflator: (Z_QF)^tau * E(phi . N_G).

    ``Z_QF`` is a deflator for the market under the survival-changed measure;
    when a market under that measure is supplied the membership is verified
    by the one-step oracle at tolerance 1e-9.
    """
    return _built(DeflatorParams("measure-change", Z_QF=Z_QF, phi=phi), rts, market)


# route -> (its generator of the report and the deflator, its public builder).  The
# builders are looked up when called, so a rebinding of one (a wrapper) is used.
ROUTES = {
    "additive": (_additive,
                 lambda p, rts: build_additive(p.K_F, p.V_F, p.phi_o, p.phi_pr, rts)),
    "multiplicative": (_multiplicative,
                       lambda p, rts: build_multiplicative(p.Z_F, p.phi_o, p.phi_pr, rts)),
    "measure-change": (_measure_change,
                       lambda p, rts: build_measure_change(p.Z_QF, p.phi, rts)),
}


def _rescale(phi, steps, op) -> Array:
    """phi_k op steps_k for k >= 1, and 0 at time 0."""
    return np.insert(op(phi[:, 1:], steps), 0, 0.0, axis=1)


def _yor_split(phi_o, phi_pr, dY, steps_Y, rts, op) -> tuple:
    """Re-scale (phi_o, phi_pr) between the additive and product routes.

    Yor's formula E(Y + phi_o . N_G + phi_pr . D) = E(Y) E(phi_o' . N_G)
    E(phi_pr' . D) holds with phi_o' = phi_o / (1 + dY) and phi_pr' =
    phi_pr / (1 + dX), X = Y + phi_o . N_G the additive driver so far.
    ``dY`` are the increments of Y, ``steps_Y`` the factors 1 + dY, and
    ``op`` is ``np.divide`` for additive -> product, ``np.multiply`` back.
    """
    phi_o_new = _rescale(phi_o, steps_Y, op)
    phi_o_add = phi_o if op is np.divide else phi_o_new
    return phi_o_new, _rescale(phi_pr, _steps(dY + phi_o_add * rts.dN_G), op)


def additive_to_multiplicative(params: DeflatorParams, rts) -> DeflatorParams:
    """Re-scale additive parameters into the product parametrization."""
    K_F, V_F, phi_o, phi_pr = _tables(params, rts, "K_F", "V_F", "phi_o", "phi_pr")
    dY = _driver_steps(increments(K_F), rts)
    phi_o_m, phi_pr_m = _yor_split(phi_o, phi_pr, dY, _steps(dY), rts, np.divide)
    Z_F = stochastic_exponential(K_F) * stochastic_exponential(-V_F)
    return DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o_m, phi_pr=phi_pr_m,
                          V_F=V_F)


def multiplicative_to_additive(params: DeflatorParams, rts) -> DeflatorParams:
    """Re-scale product parameters into the additive parametrization."""
    Z_F = _full(rts.G.shape, 1.0 if params.Z_F is None else params.Z_F, "Z_F")
    K_F, V = multiplicative_decomposition(rts.space, Z_F)
    phi_o, phi_pr = _tables(params, rts, "phi_o", "phi_pr")
    dY = _driver_steps(increments(K_F), rts)
    phi_o_a, phi_pr_a = _yor_split(phi_o, phi_pr, dY, _steps(dY), rts, np.multiply)
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
    return tuple(np.insert(np.cumsum([dN, dVp], axis=2), 0, 0.0, axis=2))  # (N, V)


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
    dMF = np.where(both, g_prev * (a * rts.dD_opt[first, k] + bb * rts.G[first, k]),
                   g_prev * rts.G_tilde[first, k] * np.where(present[:, 0], a, bb))
    cells = (filt.nodes[1:] - filt.offsets[1]).T  # the time-k cell of each atom, k = 1..T
    phi = np.insert(np.where(both, a - bb, 0.0)[cells], 0, 0.0, axis=1)
    known = np.insert(both[cells], 0, False, axis=1)
    M_F = np.cumsum(np.insert(dMF[cells], 0, 0.0, axis=1), axis=1)
    rebuilt = reassemble(V[:, 0], M_F, phi, rts)
    residual = float(np.max(np.abs(rebuilt - V)))
    return Representation(M_F=M_F, phi=phi, phi_known=known, residual=residual)


def reassemble(start, M_F, phi, rts: RandomTimeStructure) -> Array:
    """Rebuild M_0 + (1/G_minus^2) . T(M_F) + phi . N_G from decomposition data."""
    gm = rts.G_minus
    weight = _ratio(1.0, gm * gm, where=gm > 0)
    inc = (weight * _transport_steps(increments(M_F), rts)
           + _full(rts.G.shape, phi, "phi") * rts.dN_G)
    inc[:, 0] = start
    return np.cumsum(inc, axis=1)


def represent_payoff(h, rts: RandomTimeStructure) -> Representation:
    """Optional-payoff representation of the enlarged projection of h at tau.

    Builds M_h (the projection of the full integral of h against the dual
    optional projection of D), the ratio J = (M_h - h . D_opt)/G on {G > 0},
    and H = E[h_tau | enlarged blocks]; the increment identity
    dH = (1/G_minus) dT(M_h) - (J_minus/G_minus) dT(m) + (h - J) dN_G
    is verified node for node on {G > 0}; a residual above 1e-10 raises.
    """
    space, T = rts.space, rts.horizon
    hv = _full(rts.G.shape, h, "h")
    if not space.filtration.is_adapted(hv, tol=1e-12):
        raise ContractViolationError("payoff must be adapted")
    h_int = np.cumsum(hv * rts.dD_opt, axis=1)
    M_h = project(space, np.repeat(h_int[:, -1:], T + 1, axis=1))
    Y_h = M_h - h_int
    g_pos = rts.G > 0.0
    J = _ratio(Y_h, rts.G)
    h_at_tau = hv[np.arange(space.n_atoms), rts.tau]
    H = project(space, np.repeat(h_at_tau[:, None], T + 1, axis=1), filtration=rts.G_filtration)

    gm_inv = survival_exponential_integrand(rts)
    J_minus = np.concatenate([J[:, :1], J[:, :-1]], axis=1)
    inc = (gm_inv * _transport_steps(increments(M_h), rts)
           - J_minus * gm_inv * _transport_steps(rts.dm, rts)
           + (hv - J) * rts.dN_G)
    inc[:, 0] = H[:, 0]
    residual = float(np.max(np.abs(np.cumsum(inc, axis=1) - H)[g_pos], initial=0.0))
    if residual > 1e-10:
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
    K = np.insert(np.cumsum(np.diff(V, axis=1) / V[:, :-1], axis=1), 0, 0.0, axis=1)
    K1 = stop(K, s)
    return K1, K - K1


def _broadcast_live(values, rts: RandomTimeStructure) -> Array:
    """Make a per-atom column table adapted by spreading each cell's live value.

    Values on atoms already dead at k are immaterial (the integrand multiplies
    a flat factor there); this replaces them with the surviving sub-cell's
    value so the returned process is constant on public cells.
    """
    out = np.array(values, dtype=float, copy=True)
    filt = rts.space.filtration
    live, found = filt.first_where(1, out.T[1:], _alive(rts.tau, rts.horizon).T)
    cells = (filt.nodes[1:] - filt.offsets[1]).T
    out[:, 1:] = np.where(found[cells], live[cells], out[:, 1:])
    return out


def extract_multiplicative(Z, rts: RandomTimeStructure):
    """Recover product-route parameters from a positive stopped deflator.

    Inverts the construction: multiplicative split of Z in the enlarged
    filtration, lift of the predictable part, two-term decomposition of the
    martingale part (each at tolerance 1e-9), and the driver re-scaling.  Returns
    (params, diagnostics) with params rebuilding Z exactly on regular trees.
    """
    V = as_values(getattr(Z, "Z", Z))
    if np.max(np.abs(stop(V, rts.tau) - V)) > 0:
        raise ContractViolationError("extraction applies to processes stopped at tau")
    N, V_G = multiplicative_decomposition(rts.space, V, filtration=rts.G_filtration, tol=1e-9)
    V_F = lift_predictable(V_G, rts)
    repn = decompose_martingale(N, rts, tol=1e-9)
    gm = rts.G_minus
    dK_F = _ratio(1.0, gm) * rts.dm + _ratio(1.0, gm * gm, where=gm > 0) * increments(repn.M_F)
    dK_F[:, 0] = 0.0  # K_F = (1/G_minus) . m + (1/G_minus^2) . M_F
    K_F = np.cumsum(dK_F, axis=1)
    phi_o = _broadcast_live(_rescale(repn.phi, _steps(_driver_steps(dK_F, rts)), np.divide), rts)
    Z_F = _compound(_steps(dK_F)) * stochastic_exponential(-V_F)
    params = DeflatorParams("multiplicative", Z_F=Z_F, phi_o=phi_o,
                            phi_pr=np.zeros_like(K_F), V_F=V_F)
    return params, {"K_F": K_F, "decomposition": repn, "V_G": V_G, "N": N}


def lift_predictable(V_G, rts: RandomTimeStructure) -> Array:
    """Lift an enlarged-predictable finite-variation process to the public side.

    On each public time-(k-1) block the lifted increment is its survivors'
    enlarged increment (equal to 1e-9 relative); blocks without any take 0.
    """
    dV = _lift_surviving(np.diff(as_values(V_G), axis=1).T, rts,
                         lambda hi, lo: 1e-9 * np.maximum(1.0, np.maximum(hi, -lo)),
                         "predictable part not constant on a surviving sub-cell").T
    return np.cumsum(np.insert(dV, 0, 0.0, axis=1), axis=1)
