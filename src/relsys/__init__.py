"""Hierarchical Bayesian reliability estimation for masked system failures.

Series and parallel systems report only the system failure time and the
responsible component; each component's lifetime is Weibull with gamma
priors on both parameters.  The package decomposes masked samples into
per-component censored data, estimates the prior means by alternating
Metropolis sampling with EM updates, and summarizes the resulting
posterior draws as reliability curves with credible bands.  A simulation
laboratory measures bias and mean squared error of the fitted mean
lifetime over a grid of generators, censoring fractions and sample sizes.
"""

from .curves import (
    ReliabilityBand,
    TimeGrid,
    mean_time_posterior,
    reliability_band,
    system_band,
)
from .dists import (
    ComponentParams,
    GeneratorSpec,
    MeanVarGamma,
    gamma_from_moments,
    lognormal_from_moments,
    log_gamma_fn,
    sample,
    weibull_from_moments,
)
from .errors import (
    ConvergenceError,
    DataError,
    NumericalError,
    RelsysError,
    UnsolvableError,
    UsageError,
)
from .mcem import (
    ComponentFit,
    EmStep,
    FitConfig,
    SystemFit,
    fit_component,
    fit_system,
    m_step,
)
from .sampler import (
    McmcConfig,
    PosteriorDraws,
    run_chain,
)
from .simlab import (
    GRID_CENSOR_FRACTIONS,
    GRID_FAMILIES,
    GRID_MEANS,
    GRID_REPLICATES,
    GRID_SIDES,
    GRID_SIZES,
    GRID_VARIANCE,
    ScenarioResult,
    ScenarioSpec,
    generate_censored_sample,
    generate_system_sample,
    grid_specs,
    run_scenario,
)
from .streams import RandomStream, as_stream
from .sysmodel import (
    ComponentSample,
    SystemSample,
    decompose,
    make_log_kernel,
)

__version__ = "0.1.0"

__all__ = [
    # errors
    "RelsysError",
    "UsageError",
    "DataError",
    "NumericalError",
    "UnsolvableError",
    "ConvergenceError",
    # streams
    "RandomStream",
    "as_stream",
    # distributions
    "ComponentParams",
    "MeanVarGamma",
    "GeneratorSpec",
    "log_gamma_fn",
    "weibull_from_moments",
    "gamma_from_moments",
    "lognormal_from_moments",
    "sample",
    # system model
    "SystemSample",
    "ComponentSample",
    "decompose",
    "make_log_kernel",
    # sampler
    "McmcConfig",
    "PosteriorDraws",
    "run_chain",
    # estimation
    "FitConfig",
    "EmStep",
    "ComponentFit",
    "SystemFit",
    "m_step",
    "fit_component",
    "fit_system",
    # curves
    "TimeGrid",
    "ReliabilityBand",
    "reliability_band",
    "mean_time_posterior",
    "system_band",
    # simulation lab
    "ScenarioSpec",
    "ScenarioResult",
    "generate_system_sample",
    "generate_censored_sample",
    "run_scenario",
    "grid_specs",
    "GRID_FAMILIES",
    "GRID_MEANS",
    "GRID_CENSOR_FRACTIONS",
    "GRID_SIZES",
    "GRID_SIDES",
    "GRID_VARIANCE",
    "GRID_REPLICATES",
]
