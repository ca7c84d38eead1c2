"""Random-horizon layer: survival processes and the enlarged filtration.

Given a finite filtered space and a random time ``tau`` (one death date per
atom, not necessarily a stopping time), this module builds every derived
object an agent observing only the public filtration can use:

* the default indicator D_n = 1{tau <= n} and its dual projections,
* the Azema supermartingales G_n = P(tau > n | F_n), G~_n = P(tau >= n | F_n),
* the martingale m = G + D^o summarizing the horizon's interaction with F,
* the progressively enlarged filtration (public blocks split by the observed
  value of tau),
* the compensated default indicator N_G, a martingale of the enlarged
  filtration supported before the horizon,
* the density process Z_bar and the associated measure change.

The transport operator carries public-filtration martingales into enlarged-
filtration martingales supported on the pre-horizon interval; it includes the
correction term that redistributes mass from cells whose conditional survival
probability vanishes, which is what keeps the output an exact martingale on
finite trees (where the terminal survival probability is forced to zero).

D, its dual projections, m and N_G are stored once, as their increments, and
the calculus below works on those; a level is one cumulative sum where a
caller reads it, so a level of 1 never absorbs a survival probability of 1e-17.

``SURVIVAL_INVARIANTS`` is the one registry of the layer's structural
identities: ``build_survival`` checks it at construction and the ``verify``
command reports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, SpaceValidationError, StructuralError
from .prob_core import (
    TOL_EXACT,
    Array,
    FiniteFilteredSpace,
    Filtration,
    ProbabilityMeasure,
    _classify_steps,
    _compound,
    _ratio,
    _steps,
    classify,
    change_measure,
    increments,
    project,
)


def enlarge(space: FiniteFilteredSpace, tau) -> Filtration:
    """Progressive enlargement: time-n blocks split by {tau=0},..,{tau=n},{tau>n}."""
    t = np.asarray(tau, dtype=np.int64)
    n = np.arange(space.horizon + 1)[:, None]
    level = np.minimum(t[None, :], n + 1)  # values 0..n plus n+1 for {tau > n}
    return Filtration(space.filtration.block_ids * (n + 2) + level)


def _level(name: str, doc: str) -> property:
    """A read-only level: the cumulative sum of an increment field, built on each read."""
    return property(lambda self: np.cumsum(getattr(self, name), axis=1), doc=doc)


@dataclass(frozen=True)
class RandomTimeStructure:
    """A random time tau with all derived survival objects on one space.

    Fields follow the standard enlargement-of-filtration notation: G and
    G_tilde the Azema supermartingales, G_minus the left shift of G (value 1
    at time 0), Z_bar the density process of the survival measure change,
    G_filtration the enlarged partition chain.  The finite-variation objects
    are stored as increments (column 0 the time-0 value): dD of the default
    indicator D, dD_opt / dD_pred of its dual projections, dm of m = G + D_opt
    and dN_G of the compensated default indicator N_G.  Each level is a
    read-only property, one uncached cumulative sum.
    """

    space: FiniteFilteredSpace
    tau: Array
    dD: Array
    G: Array
    G_tilde: Array
    G_minus: Array
    dD_opt: Array
    dD_pred: Array
    dm: Array
    dN_G: Array
    Z_bar: Array
    G_filtration: Filtration

    D = _level("dD", "The default indicator D_n = 1{tau <= n}.")
    D_opt = _level("dD_opt", "The dual optional projection of D.")
    D_pred = _level("dD_pred", "The dual predictable projection of D.")
    m = _level("dm", "The public martingale m = G + D_opt.")
    N_G = _level("dN_G", "The compensated default indicator, an enlarged-filtration martingale.")

    @property
    def horizon(self) -> int:
        return self.space.horizon

    @property
    def g_zero_cells(self) -> Array:
        """Boolean (atom, time) map of cells where G vanishes (positivity report)."""
        return self.G <= 0.0

    @property
    def irregular_cells(self) -> Array:
        """Cells with G~_n = 0 < G_{n-1}: a sub-block died while siblings survive.

        On these cells the transport correction term is active and the
        continuous-theory hypotheses fail; empty for regular random times.
        """
        return np.insert((self.G_tilde[:, 1:] <= 0.0) & (self.G_minus[:, 1:] > 0.0),
                         0, False, axis=1)

    def qtilde(self) -> ProbabilityMeasure:
        """The measure defined by the terminal value of Z_bar."""
        return change_measure(self.space, self.Z_bar[:, -1])


def build_survival(space: FiniteFilteredSpace, tau, *, verify: bool = True) -> RandomTimeStructure:
    """Build the full survival structure for a random time.

    ``tau`` gives one integer death date in 0..T per atom.  Unless ``verify``
    is disabled, every invariant of the registry ``SURVIVAL_INVARIANTS`` is
    checked at construction, and the first residual above ``TOL_EXACT``, in
    registry order, raises ``SpaceValidationError`` naming the invariant.
    """
    t = np.asarray(tau, dtype=np.int64)
    T = space.horizon
    if t.shape != (space.n_atoms,):
        raise SpaceValidationError("tau must give one value per atom")
    if np.any((t < 0) | (t > T)):
        raise SpaceValidationError("tau out of range: values must lie in 0..horizon")

    grid = np.arange(T + 1)[None, :]
    dD = (t[:, None] == grid).astype(float)  # the increments of D_n = 1{tau <= n}

    # survival probabilities via optional projections of the indicators
    G = project(space, (t[:, None] > grid).astype(float), "optional")         # 1{tau > n}
    G_tilde = project(space, (t[:, None] >= grid).astype(float), "optional")  # 1{tau >= n}
    G_minus = np.insert(G[:, :-1], 0, 1.0, axis=1)

    dD_opt = project(space, dD, "optional")
    dD_pred = project(space, dD, "predictable")
    dm = increments(G) + dD_opt

    # compensated default indicator: dN_k = dD_k - 1{k<=tau} dD_opt_k / G~_k
    dN_G = _compensate(dD, dD_opt, G_tilde, t,
                       "vanishing pre-horizon survival probability on a live cell")

    # density process of the survival measure change: a product of the
    # ratios G~_k / G_{k-1}, with factor 1 where G_{k-1} = 0
    Z_bar = _compound(_ratio(G_tilde[:, 1:], G_minus[:, 1:], 1.0))

    rts = RandomTimeStructure(
        space=space, tau=t, dD=dD, G=G, G_tilde=G_tilde, G_minus=G_minus,
        dD_opt=dD_opt, dD_pred=dD_pred, dm=dm, dN_G=dN_G, Z_bar=Z_bar,
        G_filtration=enlarge(space, t),
    )
    if verify:
        for name, value in survival_residuals(rts).items():
            if not value <= TOL_EXACT:
                raise SpaceValidationError(
                    f"survival invariant {name} fails: residual {value:g} exceeds "
                    f"tolerance {TOL_EXACT:g}")
    return rts


def _alive(tau, T: int) -> Array:
    """Boolean (atom, k) map of k <= tau for the dates k = 1..T."""
    return tau[:, None] >= np.arange(1, T + 1)[None, :]


def _compensate(dX, dA, den, tau, message: str) -> Array:
    """The increments dX_k - dA_k / den_k on ]0, tau], 0 after tau, X_0 at time 0.

    Raises ``StructuralError`` with ``message`` at the earliest date, and there
    at the first atom, where ``den`` vanishes on a cell with k <= tau.
    """
    live = _alive(tau, dX.shape[1] - 1)
    den = den[:, 1:]
    bad = live & (den <= 0.0)
    if bad.any():
        k, atom = divmod(int(np.argmax(bad.T)), len(tau))
        raise StructuralError(message, time=k + 1, atom=atom)
    return np.insert(np.where(live, dX[:, 1:] - dA[:, 1:] / np.where(live, den, 1.0), 0.0),
                     0, dX[:, 0], axis=1)


def _martingale_steps(M, rts: RandomTimeStructure, check: bool) -> Array:
    """The increments of a transport input; with ``check``, it must be a public martingale."""
    dM = increments(M)
    if check and not (residual := _residual(rts, dM)) <= TOL_EXACT:
        raise ContractViolationError(f"transport input is not a martingale (residual {residual:g})")
    return dM


def transport(M, rts: RandomTimeStructure, *, check: bool = True) -> Array:
    """Carry a public-filtration martingale into the enlarged filtration.

    The increment at k on {k <= tau} is (G_{k-1} / G~_k) dM_k plus the
    conditional mass E[dM_k 1{G~_k = 0} | F_{k-1}] recovered from sub-blocks
    that died out; the output is flat after tau and starts at M_0.  With
    ``check``, an input off martingale by more than ``TOL_EXACT`` raises.
    """
    return np.cumsum(_transport_steps(_martingale_steps(M, rts, check), rts), axis=1)


def _transport_steps(dM, rts: RandomTimeStructure) -> Array:
    """The increments of :func:`transport` from the increments dM of its input."""
    live = _alive(rts.tau, rts.horizon)
    corr = project(rts.space, dM * (rts.G_tilde <= 0.0), "predictable")[:, 1:]
    step = np.where(live, rts.G_tilde[:, 1:], 1.0)
    np.divide(rts.G_minus[:, 1:], step, out=step)
    step *= dM[:, 1:]
    step += corr
    return np.insert(np.where(live, step, 0.0), 0, dM[:, 0], axis=1)


def transport_compensated(M, rts: RandomTimeStructure, *, check: bool = True) -> Array:
    """Martingale part of the stopped process in its Doob-Meyer decomposition.

    M_bar = M^tau - (1/G_{k-1}) d<M, m>_k summed over ]0, tau]; an enlarged-
    filtration martingale for every public martingale M, with no hypotheses
    on the random time beyond reachable cells having G_{k-1} > 0.  With
    ``check``, an input off martingale by more than ``TOL_EXACT`` raises.
    """
    return np.cumsum(_compensated_steps(_martingale_steps(M, rts, check), rts), axis=1)


def _compensated_steps(dM, rts: RandomTimeStructure) -> Array:
    """The increments of :func:`transport_compensated`, with d<M, m> = E[dM dm | F_{k-1}]."""
    angle = project(rts.space, dM * rts.dm, "predictable")  # column 0 is not read
    return _compensate(dM, angle, rts.G_minus, rts.tau, "G_{k-1} vanishes on a reachable cell")


def compensated_default_indicator(rts: RandomTimeStructure) -> Array:
    """N_bar = D - (1/G_{k-1}) dD_pred_k summed over ]0, tau].

    The Doob-Meyer martingale part of the default indicator in the enlarged
    filtration, using the predictable dual projection of D.
    """
    return np.cumsum(_default_steps(rts), axis=1)


def _default_steps(rts: RandomTimeStructure) -> Array:
    return _compensate(rts.dD, rts.dD_pred, rts.G_minus, rts.tau,
                       "G_{k-1} vanishes on a reachable cell")


def density_change(rts: RandomTimeStructure):
    """Return (Z_bar, Q~): the density martingale and the changed measure.

    Z_bar multiplies conditional survival ratios G~_k / G_{k-1} (factor 1
    where G_{k-1} = 0) and coincides with the stochastic exponential of
    (1/G_minus) 1{G_minus > 0} . m node for node.
    """
    return rts.Z_bar, rts.qtilde()


def _lift_surviving(x, rts: RandomTimeStructure, slack, message: str) -> Array:
    """Lift time-major x[k - 1] (k = 1..T) from the survivors {tau >= k} of
    each public time-(k-1) block to the whole block (0 without survivors).

    The survivors' values must spread by at most ``slack(hi, lo)``, else
    ``ContractViolationError(message)``.
    """
    filt = rts.space.filtration
    alive = _alive(rts.tau, rts.horizon).T
    held = alive.reshape(alive.shape + (1,) * (x.ndim - 2))
    hi = filt.node_reduce(np.where(held, x, -np.inf), np.maximum)
    lo = filt.node_reduce(np.where(held, x, np.inf), np.minimum)
    if not np.all(hi - lo <= slack(hi, lo)):
        raise ContractViolationError(message)
    return filt.first_where(0, x, alive)[0][filt.nodes[:-1]]


def survival_exponential_integrand(rts: RandomTimeStructure) -> Array:
    """The predictable integrand 1{G_minus > 0} / G_minus against m giving Z_bar."""
    return _ratio(1.0, rts.G_minus)


def _residual(rts: RandomTimeStructure, dX, filtration=None) -> float:
    """The martingale residual of the process with increments dX (public filtration if None)."""
    filt = filtration if filtration is not None else rts.space.filtration
    return _classify_steps(filt, dX, rts.space.probs, TOL_EXACT).max_residual


# Every structural identity of the survival layer, as a residual computed from
# the structure alone (0 when the identity holds exactly).  Listed in the order
# the verify report prints them.  Each reads the increments, never a level
# differenced back.  The mass balance uses the linearity of the projection:
# sum_{k<=n} P(tau = k | F_n) = P(tau <= n | F_n).
SURVIVAL_INVARIANTS = {
    "compensated_default_martingale":
        lambda r: _residual(r, _default_steps(r), r.G_filtration),
    "compensated_transport_martingale":
        lambda r: _residual(r, _compensated_steps(r.dm, r), r.G_filtration),
    "gtilde_dominates": lambda r: np.max(r.G - r.G_tilde, initial=0.0),
    "increment_identity":
        lambda r: np.max(np.abs(r.dm[:, 1:] - (r.G_tilde[:, 1:] - r.G_minus[:, 1:]))),
    "m_martingale": lambda r: _residual(r, r.dm),
    "ng_martingale": lambda r: _residual(r, r.dN_G, r.G_filtration),
    "ng_stopped":
        lambda r: np.max(np.abs(r.dN_G[:, 1:][~_alive(r.tau, r.horizon)]), initial=0.0),
    "survival_mass_balance": lambda r: np.max(np.abs(r.G + project(r.space, r.D) - 1.0)),
    "terminal_survival_zero": lambda r: np.max(np.abs(r.G[:, -1])),
    "transport_m_martingale":
        lambda r: _residual(r, _transport_steps(r.dm, r), r.G_filtration),
    "zbar_exponential_identity": lambda r: np.max(np.abs(
        _compound(_steps(r.dm, survival_exponential_integrand(r))) - r.Z_bar)),
    "zbar_martingale": lambda r: classify(r.space, r.Z_bar).max_residual,
}


def survival_residuals(rts: RandomTimeStructure) -> dict:
    """The residual of every invariant in ``SURVIVAL_INVARIANTS``, in registry order.

    A non-finite residual reads inf, so it fails every tolerance.
    """
    out = {}
    for name, residual in SURVIVAL_INVARIANTS.items():
        value = float(residual(rts))
        out[name] = value if np.isfinite(value) else np.inf
    return out
