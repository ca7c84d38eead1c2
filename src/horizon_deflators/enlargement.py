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
    as_values,
    bracket,
    classify,
    cond_expect,
    change_measure,
    dual_projection,
    project,
    stop,
)


def enlarge(space: FiniteFilteredSpace, tau) -> Filtration:
    """Progressive enlargement: time-n blocks split by {tau=0},..,{tau=n},{tau>n}."""
    t = np.asarray(tau, dtype=np.int64)
    T = space.horizon
    base = space.filtration.block_ids
    ids = np.empty_like(base)
    for n in range(T + 1):
        level = np.minimum(t, n + 1)  # values 0..n plus n+1 for {tau > n}
        ids[n] = base[n] * (n + 2) + level
    return Filtration(ids)


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

    ``tau`` gives one integer death date in 0..T per atom.  All structure
    invariants (projection identities, martingale properties, stopping) are
    verified at construction unless ``verify`` is disabled.
    """
    t = np.asarray(tau, dtype=np.int64)
    T = space.horizon
    n_atoms = space.n_atoms
    if t.shape != (n_atoms,):
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
    N_G = np.empty_like(D)
    N_G[:, 0] = D[:, 0]
    dD_opt = np.diff(D_opt, axis=1)
    for k in range(1, T + 1):
        live = t >= k
        comp = np.zeros(n_atoms)
        gt = G_tilde[:, k]
        if np.any(live):
            if np.any(gt[live] <= 0.0):
                bad = int(np.flatnonzero(live & (gt <= 0.0))[0])
                raise StructuralError(
                    "vanishing pre-horizon survival probability on a live cell",
                    time=k, atom=bad)
            comp[live] = dD_opt[live, k - 1] / gt[live]
        N_G[:, k] = N_G[:, k - 1] + np.diff(D, axis=1)[:, k - 1] - comp

    # density process of the survival measure change
    Z_bar = np.ones_like(G)
    for k in range(1, T + 1):
        gm = G[:, k - 1]
        factor = np.divide(G_tilde[:, k], gm, out=np.ones_like(gm), where=gm > 0.0)
        Z_bar[:, k] = Z_bar[:, k - 1] * factor

    rts = RandomTimeStructure(
        space=space, tau=t, D=D, G=G, G_tilde=G_tilde, G_minus=G_minus,
        D_opt=D_opt, D_pred=D_pred, m=m, N_G=N_G, Z_bar=Z_bar,
        G_filtration=enlarge(space, t),
    )
    if verify:
        _verify_structure(rts, tol)
    return rts


def _verify_structure(rts: RandomTimeStructure, tol: float):
    space, T = rts.space, rts.horizon
    # survival mass balance: G_n + sum_{k<=n} P(tau = k | F_n) = 1
    for n in range(T + 1):
        acc = rts.G[:, n].copy()
        for k in range(n + 1):
            hit = (rts.tau == k).astype(float)
            pk, _ = cond_expect(hit, space.filtration.block_ids[n], space.measure)
            acc += pk
        if np.max(np.abs(acc - 1.0)) > tol:
            raise SpaceValidationError("survival mass balance violated")
    if np.min(rts.G_tilde - rts.G) < -tol:
        raise SpaceValidationError("G~ - G must be nonnegative")
    if np.max(np.abs(rts.G[:, T])) > tol:
        raise SpaceValidationError("terminal survival probability must vanish")
    rep = classify(space, rts.m, tol=tol)
    if not rep.is_martingale:
        raise SpaceValidationError(f"m is not a martingale (residual {rep.max_residual:g})")
    rep = classify(space, rts.N_G, filtration=rts.G_filtration, tol=tol)
    if not rep.is_martingale:
        raise SpaceValidationError(f"N_G is not a martingale (residual {rep.max_residual:g})")
    rep = classify(space, rts.Z_bar, tol=tol)
    if not rep.is_martingale:
        raise SpaceValidationError(f"Z_bar is not a martingale (residual {rep.max_residual:g})")
    if np.max(np.abs(stop(rts.N_G, rts.tau) - rts.N_G)) > 0.0:
        raise SpaceValidationError("N_G must be flat after tau")


def transport(M, rts: RandomTimeStructure, *, check: bool = True,
              tol: float = TOL_EXACT) -> Array:
    """Carry a public-filtration martingale into the enlarged filtration.

    The increment at k on {k <= tau} is (G_{k-1} / G~_k) dM_k plus the
    conditional mass E[dM_k 1{G~_k = 0} | F_{k-1}] recovered from sub-blocks
    that died out; the output is flat after tau and starts at M_0.
    """
    V = as_values(M)
    if check:
        rep = classify(rts.space, V, tol=tol)
        if not rep.is_martingale:
            raise ContractViolationError(
                f"transport input is not a martingale (residual {rep.max_residual:g})")
    space, T, t = rts.space, rts.horizon, rts.tau
    out = np.empty_like(V)
    out[:, 0] = V[:, 0]
    dM = np.diff(V, axis=1)
    for k in range(1, T + 1):
        live = t >= k
        gt = rts.G_tilde[:, k]
        ratio = np.zeros(space.n_atoms)
        if np.any(live):
            ratio[live] = rts.G_minus[live, k] / gt[live] * dM[live, k - 1]
        dead_mass = dM[:, k - 1] * (gt <= 0.0)
        corr, _ = cond_expect(dead_mass, space.filtration.block_ids[k - 1], space.measure)
        out[:, k] = out[:, k - 1] + np.where(live, ratio + corr, 0.0)
    return out


def transport_compensated(M, rts: RandomTimeStructure, *, check: bool = True,
                          tol: float = TOL_EXACT) -> Array:
    """Martingale part of the stopped process in its Doob-Meyer decomposition.

    M_bar = M^tau - (1/G_{k-1}) d<M, m>_k summed over ]0, tau]; an enlarged-
    filtration martingale for every public martingale M, with no hypotheses
    on the random time beyond reachable cells having G_{k-1} > 0.
    """
    V = as_values(M)
    if check:
        rep = classify(rts.space, V, tol=tol)
        if not rep.is_martingale:
            raise ContractViolationError(
                f"transport input is not a martingale (residual {rep.max_residual:g})")
    space, T, t = rts.space, rts.horizon, rts.tau
    angle = bracket(V, rts.m, "predictable", space=space)
    d_angle = np.diff(angle, axis=1)
    out = np.empty_like(V)
    out[:, 0] = V[:, 0]
    dM = np.diff(V, axis=1)
    for k in range(1, T + 1):
        live = t >= k
        gm = rts.G_minus[:, k]
        if np.any(live & (gm <= 0.0)):
            bad = int(np.flatnonzero(live & (gm <= 0.0))[0])
            raise StructuralError("G_{k-1} vanishes on a reachable cell",
                                  time=k, atom=bad)
        inc = np.zeros(space.n_atoms)
        inc[live] = dM[live, k - 1] - d_angle[live, k - 1] / gm[live]
        out[:, k] = out[:, k - 1] + inc
    return out


def compensated_default_indicator(rts: RandomTimeStructure) -> Array:
    """N_bar = D - (1/G_{k-1}) dD_pred_k summed over ]0, tau].

    The Doob-Meyer martingale part of the default indicator in the enlarged
    filtration, using the predictable dual projection of D.
    """
    space, T, t = rts.space, rts.horizon, rts.tau
    dDp = np.diff(rts.D_pred, axis=1)
    out = np.empty_like(rts.D)
    out[:, 0] = rts.D[:, 0]
    dD = np.diff(rts.D, axis=1)
    for k in range(1, T + 1):
        live = t >= k
        gm = rts.G_minus[:, k]
        if np.any(live & (gm <= 0.0)):
            bad = int(np.flatnonzero(live & (gm <= 0.0))[0])
            raise StructuralError("G_{k-1} vanishes on a reachable cell",
                                  time=k, atom=bad)
        inc = np.zeros(space.n_atoms)
        inc[live] = dD[live, k - 1] - dDp[live, k - 1] / gm[live]
        out[:, k] = out[:, k - 1] + inc
    return out


def density_change(rts: RandomTimeStructure):
    """Return (Z_bar, Q~): the density martingale and the changed measure.

    Z_bar multiplies conditional survival ratios G~_k / G_{k-1} (factor 1
    where G_{k-1} = 0) and coincides with the stochastic exponential of
    (1/G_minus) 1{G_minus > 0} . m node for node.
    """
    return rts.Z_bar, rts.qtilde()


def survival_exponential_integrand(rts: RandomTimeStructure) -> Array:
    """The predictable integrand 1{G_minus > 0} / G_minus against m giving Z_bar."""
    gm = rts.G_minus
    out = np.zeros_like(gm)
    np.divide(1.0, gm, out=out, where=gm > 0.0)
    return out
