"""Deflators for market models stopped at a random horizon.

Exact constructions and verifications on finite discrete-time trees, plus a
Monte-Carlo jump-diffusion engine with closed-form survival processes.
"""

from .errors import (
    AdmissibilityError,
    ContractViolationError,
    DegenerateConditioningError,
    HorizonDeflatorError,
    SpaceValidationError,
    StructuralError,
    UnsupportedDimensionError,
)
from .prob_core import (
    TOL_EXACT,
    AdaptedProcess,
    ClassifyReport,
    FiniteFilteredSpace,
    Filtration,
    ProbabilityMeasure,
    bracket,
    change_measure,
    classify,
    cond_expect,
    doob_decomposition,
    dual_projection,
    project,
    stochastic_exponential,
    stochastic_integral,
    stop,
)
from .enlargement import (
    RandomTimeStructure,
    build_survival,
    compensated_default_indicator,
    density_change,
    enlarge,
    transport,
    transport_compensated,
)
from .deflators import (
    AdmissibilityReport,
    Deflator,
    DeflatorParams,
    Representation,
    additive_to_multiplicative,
    build_additive,
    build_measure_change,
    build_multiplicative,
    decompose_martingale,
    default_exponential,
    extract_multiplicative,
    induced_base,
    multiplicative_decomposition,
    multiplicative_to_additive,
    represent_payoff,
    split_at,
    validate,
)
from .market import (
    MarketModel,
    OracleReport,
    Strategy,
    lift_strategy,
    verify_deflator,
    verify_lmd,
    wealth,
)
from .jumpdiff import (
    JumpDiffusionScenario,
    MCTestReport,
    PathBundle,
    build_deflator,
    closed_forms,
    mc_suite,
    mc_test,
    simulate,
    solve_drift,
)

__version__ = "0.1.0"
