"""Simulation and numerical-verification laboratory for branching
diffusions in a random environment.

The package simulates the two-dimensional population/environment
diffusion and its conditioned variants, computes the associated scale
functions and extinction probabilities in closed form, Rao-Blackwellizes
survival estimates through the exact quenched law, evaluates the special
functions of the long-time survival asymptotics by adaptive quadrature,
and checks all of it against independent routes via `verify.run_verify`
or the `bdrelab verify` command line.
"""

from .config import (
    DEFAULT_SEED,
    ENV_SEED_VAR,
    Experiment,
    ExperimentConfig,
    config_hash,
    read_config,
    write_config,
)
from .envexact import (
    dufresne_samples,
    environment_laplace,
    environment_survival_curve,
)
from .errors import ConfigError, NotComputableError, NumericalFailure
from .estimators import (
    ExtinctionMethod,
    Functional,
    KSReport,
    LaplacePoint,
    MCEstimate,
    RateFit,
    SurvivalRoute,
    conditioned_law_equivalence_test,
    estimate_conditioned_survival,
    estimate_extinction,
    laplace_limit_test,
    martingale_test,
)
from .model import (
    ModelParams,
    QuenchedVariant,
    Regime,
    classify_regime,
    extinction_probability,
    generator_apply,
    rao_blackwell_se_ratio,
    scale_U,
    scale_V,
    survival_ratio,
)
from .results import Gate, Provenance, ResultRecord, read_results_csv, write_results
from .rng import RngStream
from .sde import (
    Path,
    SchemeConfig,
    bridge_extinction_frequency,
    simulate_bdre,
    simulate_conditioned_extinction,
    simulate_conditioned_survival,
    simulate_discrete_bpre,
    simulate_quenched,
)
from .specfun import (
    DEFAULT_QUAD,
    INFINITE,
    QuadratureConfig,
    Reading,
    integral_a_psi,
    laplace_Y,
    phi_beta,
    psi,
    strong_level_limit,
    theorem1_constant,
)
from .verify import VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "ENV_SEED_VAR",
    "Experiment",
    "ExperimentConfig",
    "config_hash",
    "read_config",
    "write_config",
    "dufresne_samples",
    "environment_laplace",
    "environment_survival_curve",
    "ConfigError",
    "NotComputableError",
    "NumericalFailure",
    "ExtinctionMethod",
    "Functional",
    "KSReport",
    "LaplacePoint",
    "MCEstimate",
    "RateFit",
    "SurvivalRoute",
    "conditioned_law_equivalence_test",
    "estimate_conditioned_survival",
    "estimate_extinction",
    "laplace_limit_test",
    "martingale_test",
    "ModelParams",
    "QuenchedVariant",
    "Regime",
    "classify_regime",
    "extinction_probability",
    "generator_apply",
    "rao_blackwell_se_ratio",
    "scale_U",
    "scale_V",
    "survival_ratio",
    "Gate",
    "Provenance",
    "ResultRecord",
    "read_results_csv",
    "write_results",
    "RngStream",
    "Path",
    "SchemeConfig",
    "bridge_extinction_frequency",
    "simulate_bdre",
    "simulate_conditioned_extinction",
    "simulate_conditioned_survival",
    "simulate_discrete_bpre",
    "simulate_quenched",
    "DEFAULT_QUAD",
    "INFINITE",
    "QuadratureConfig",
    "Reading",
    "integral_a_psi",
    "laplace_Y",
    "phi_beta",
    "psi",
    "strong_level_limit",
    "theorem1_constant",
    "VerifyReport",
    "run_verify",
    "__version__",
]
