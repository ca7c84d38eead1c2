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
    _compound,
    _ratio,
    as_values,
    bracket,
    classify,
    change_measure,
    dual_projection,
    project,
    stochastic_exponential,
    stochastic_integral,
    stop,
)


def enlarge(space: FiniteFilteredSpace, tau) -> Filtration:
    """Progressive enlargement: time-n blocks split by {tau=0},..,{tau=n},{tau>n}."""
    t = np.asarray(tau, dtype=np.int64)
    n = np.arange(space.horizon + 1)[:, None]
    level = np.minimum(t[None, :], n + 1)  # values 0..n plus n+1 for {tau > n}
    return Filtration(space.filtration.block_ids * (n + 2) + level)


@dataclass(frozen=True)
class RandomTimeStructure:
    """A random time tau with all derived survival objects on one space.

    Fields follow the standard enlargement-of-filtration notation: D is the
    default indicator, G and G_tilde the Azema supermartingales, G_minus the
    left shift of G (value 1 at time 0), D_opt / D_pred the dual optional and
    predictable projections of D, m = G + D_opt, N_G the compensated default
    indicator (martingale of the enlarged filtration), Z_bar the density
    process of the survival measure change, and G_filtration the enlarged
    partition chain.
    """

    space: FiniteFilteredSpace
    tau: Array
    D: Array
    G: Array
    G_tilde: Array
    G_minus: Array
    D_opt: Array
    D_pred: Array
    m: Array
    N_G: Array
    Z_bar: Array
    G_filtration: Filtration

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
        out = np.zeros_like(self.G, dtype=bool)
        out[:, 1:] = (self.G_tilde[:, 1:] <= 0.0) & (self.G_minus[:, 1:] > 0.0)
        return out

    def qtilde(self) -> ProbabilityMeasure:
        """The measure defined by the terminal value of Z_bar."""
        return change_measure(self.space, self.Z_bar[:, -1])


def build_survival(space: FiniteFilteredSpace, tau, *, tol: float = TOL_EXACT,
                   verify: bool = True) -> RandomTimeStructure:
    """Build the full survival structure for a random time.

    ``tau`` gives one integer death date in 0..T per atom.  Unless ``verify``
    is disabled, every invariant of the registry ``SURVIVAL_INVARIANTS`` is
    checked at construction, and the first residual above ``tol``, in
    registry order, raises ``SpaceValidationError`` naming the invariant.
    """
    t = np.asarray(tau, dtype=np.int64)
    T = space.horizon
    if t.shape != (space.n_atoms,):
        raise SpaceValidationError("tau must give one value per atom")
    if np.any((t < 0) | (t > T)):
        raise SpaceValidationError("tau out of range: values must lie in 0..horizon")

    grid = np.arange(T + 1)[None, :]
    D = (t[:, None] <= grid).astype(float)

    # survival probabilities via optional projections of the indicators
    alive_strict = (t[:, None] > grid).astype(float)   # 1{tau > n}
    alive_weak = (t[:, None] >= grid).astype(float)    # 1{tau >= n}
    G = project(space, alive_strict, "optional")
    G_tilde = project(space, alive_weak, "optional")
    G_minus = np.empty_like(G)
    G_minus[:, 0] = 1.0
    G_minus[:, 1:] = G[:, :-1]

    D_opt = dual_projection(space, D, "optional")
    D_pred = dual_projection(space, D, "predictable")
    m = G + D_opt

    # compensated default indicator: dN_k = dD_k - 1{k<=tau} dD_opt_k / G~_k
    N_G = _compensate(D, D_opt, G_tilde, t,
                      "vanishing pre-horizon survival probability on a live cell")

    # density process of the survival measure change: a product of the
    # ratios G~_k / G_{k-1}, with factor 1 where G_{k-1} = 0
    Z_bar = _compound(_ratio(G_tilde[:, 1:], G_minus[:, 1:], 1.0))

    rts = RandomTimeStructure(
        space=space, tau=t, D=D, G=G, G_tilde=G_tilde, G_minus=G_minus,
        D_opt=D_opt, D_pred=D_pred, m=m, N_G=N_G, Z_bar=Z_bar,
        G_filtration=enlarge(space, t),
    )
    if verify:
        for name, value in survival_residuals(rts).items():
            if not value <= tol:
                raise SpaceValidationError(
                    f"survival invariant {name} fails: residual {value:g} exceeds "
                    f"tolerance {tol:g}")
    return rts


def _alive(tau, T: int) -> Array:
    """Boolean (atom, k) map of k <= tau for the dates k = 1..T."""
    return tau[:, None] >= np.arange(1, T + 1)[None, :]


def _compensate(X, A, den, tau, message: str) -> Array:
    """X_0 plus the sum over ]0, tau] of dX_k - dA_k / den_k, in one cumsum.

    Raises ``StructuralError`` with ``message`` at the earliest date, and there
    at the first atom, where ``den`` vanishes on a cell with k <= tau.
    """
    live = _alive(tau, X.shape[1] - 1)
    den = den[:, 1:]
    bad = live & (den <= 0.0)
    if bad.any():
        k, atom = divmod(int(np.argmax(bad.T)), len(tau))
        raise StructuralError(message, time=k + 1, atom=atom)
    inc = np.empty_like(X)
    inc[:, 0] = X[:, 0]
    inc[:, 1:] = np.where(live, np.diff(X, axis=1) - np.diff(A, axis=1) / np.where(live, den, 1.0),
                          0.0)
    return np.cumsum(inc, axis=1)


def _martingale_input(M, rts: RandomTimeStructure, check: bool, tol: float) -> Array:
    """The values of a transport input; with ``check``, it must be a public martingale."""
    V = as_values(M)
    if check:
        rep = classify(rts.space, V, tol=tol)
        if not rep.is_martingale:
            raise ContractViolationError(
                f"transport input is not a martingale (residual {rep.max_residual:g})")
    return V


def transport(M, rts: RandomTimeStructure, *, check: bool = True,
              tol: float = TOL_EXACT) -> Array:
    """Carry a public-filtration martingale into the enlarged filtration.

    The increment at k on {k <= tau} is (G_{k-1} / G~_k) dM_k plus the
    conditional mass E[dM_k 1{G~_k = 0} | F_{k-1}] recovered from sub-blocks
    that died out; the output is flat after tau and starts at M_0.
    """
    V = _martingale_input(M, rts, check, tol)
    live = _alive(rts.tau, rts.horizon)
    dM = np.diff(V, axis=1)
    gt = rts.G_tilde[:, 1:]
    dead_mass = np.zeros_like(V)
    dead_mass[:, 1:] = dM * (gt <= 0.0)
    corr = project(rts.space, dead_mass, "predictable")[:, 1:]
    del dead_mass
    step = np.where(live, gt, 1.0)
    np.divide(rts.G_minus[:, 1:], step, out=step)
    step *= dM
    step += corr
    inc = np.empty_like(V)
    inc[:, 0] = V[:, 0]
    inc[:, 1:] = np.where(live, step, 0.0)
    return np.cumsum(inc, axis=1)


def transport_compensated(M, rts: RandomTimeStructure, *, check: bool = True,
                          tol: float = TOL_EXACT) -> Array:
    """Martingale part of the stopped process in its Doob-Meyer decomposition.

    M_bar = M^tau - (1/G_{k-1}) d<M, m>_k summed over ]0, tau]; an enlarged-
    filtration martingale for every public martingale M, with no hypotheses
    on the random time beyond reachable cells having G_{k-1} > 0.
    """
    V = _martingale_input(M, rts, check, tol)
    angle = bracket(V, rts.m, "predictable", space=rts.space)
    return _compensate(V, angle, rts.G_minus, rts.tau, "G_{k-1} vanishes on a reachable cell")


def compensated_default_indicator(rts: RandomTimeStructure) -> Array:
    """N_bar = D - (1/G_{k-1}) dD_pred_k summed over ]0, tau].

    The Doob-Meyer martingale part of the default indicator in the enlarged
    filtration, using the predictable dual projection of D.
    """
    return _compensate(rts.D, rts.D_pred, rts.G_minus, rts.tau,
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


def _public_residual(rts: RandomTimeStructure, X) -> float:
    return classify(rts.space, X).max_residual


def _enlarged_residual(rts: RandomTimeStructure, X) -> float:
    return classify(rts.space, X, filtration=rts.G_filtration).max_residual


# Every structural identity of the survival layer, as a residual computed from
# the structure alone (0 when the identity holds exactly).  Listed in the order
# the verify report prints them.  The mass balance uses the linearity of the
# projection: sum_{k<=n} P(tau = k | F_n) = P(tau <= n | F_n).
SURVIVAL_INVARIANTS = {
    "compensated_default_martingale":
        lambda r: _enlarged_residual(r, compensated_default_indicator(r)),
    "compensated_transport_martingale":
        lambda r: _enlarged_residual(r, transport_compensated(r.m, r, check=False)),
    "gtilde_dominates": lambda r: np.max(r.G - r.G_tilde, initial=0.0),
    "increment_identity":
        lambda r: np.max(np.abs(np.diff(r.m, axis=1) - (r.G_tilde[:, 1:] - r.G_minus[:, 1:]))),
    "m_martingale": lambda r: _public_residual(r, r.m),
    "ng_martingale": lambda r: _enlarged_residual(r, r.N_G),
    "ng_stopped": lambda r: np.max(np.abs(stop(r.N_G, r.tau) - r.N_G)),
    "survival_mass_balance": lambda r: np.max(np.abs(r.G + project(r.space, r.D) - 1.0)),
    "terminal_survival_zero": lambda r: np.max(np.abs(r.G[:, -1])),
    "transport_m_martingale":
        lambda r: _enlarged_residual(r, transport(r.m, r, check=False)),
    "zbar_exponential_identity": lambda r: np.max(np.abs(stochastic_exponential(
        stochastic_integral(survival_exponential_integrand(r), r.m)) - r.Z_bar)),
    "zbar_martingale": lambda r: _public_residual(r, r.Z_bar),
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
