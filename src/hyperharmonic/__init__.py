"""Numerical verifier for hypergeometric series identities carrying
harmonic-number weights.

The package has three layers: scalar special functions (specialfn),
a weighted-series summation engine with unit-circle extrapolation (series),
and a registry of verifiable identities whose sides are expression trees
(expr, catalog) fronted by the `hyperharmonic` command line tool (cli).
"""

from .errors import (
    AccelerationBreakdown,
    DomainError,
    HyperharmonicError,
    NonConvergentError,
    PoleError,
    UnknownIdentityError,
)
from .specialfn import (
    digamma,
    elliptic_K,
    gamma_ratio,
    generalized_harmonic,
    harmonic,
    ln_gamma,
    pochhammer,
)
from .series import (
    DigammaDiffSum,
    DigammaLog,
    Harmonic,
    HarmonicSqPlusGen2,
    LinearCombo,
    PochhammerRatioSeries,
    SeriesResult,
    Unit,
    WeightKind,
    eval_weighted,
    hyp2f1,
)
from .catalog import (
    DEFAULT_SEED,
    Identity,
    PointCheck,
    REGISTRY,
    VerifyReport,
    boundary_asymptotic_check,
    build_registry,
    eval_lhs,
    eval_rhs,
    get_identity,
    ode_residual,
    verify,
    with_perturbed_rhs,
)

__version__ = "0.1.0"

__all__ = [
    "AccelerationBreakdown",
    "DomainError",
    "HyperharmonicError",
    "NonConvergentError",
    "PoleError",
    "UnknownIdentityError",
    "digamma",
    "elliptic_K",
    "gamma_ratio",
    "generalized_harmonic",
    "harmonic",
    "ln_gamma",
    "pochhammer",
    "DigammaDiffSum",
    "DigammaLog",
    "Harmonic",
    "HarmonicSqPlusGen2",
    "LinearCombo",
    "PochhammerRatioSeries",
    "SeriesResult",
    "Unit",
    "WeightKind",
    "eval_weighted",
    "hyp2f1",
    "DEFAULT_SEED",
    "Identity",
    "PointCheck",
    "REGISTRY",
    "VerifyReport",
    "boundary_asymptotic_check",
    "build_registry",
    "eval_lhs",
    "eval_rhs",
    "get_identity",
    "ode_residual",
    "verify",
    "with_perturbed_rhs",
    "__version__",
]
