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

import importlib

__version__ = "0.1.0"

# the modules whose own ``__all__`` make up the package's public names
_MODULES = (
    "errors", "settings", "streams", "dists", "sysmodel", "sampler", "mcem", "curves", "simlab",
)


def _homes() -> dict[str, str]:
    """Each public name and the module that holds it; imports all of them."""
    return {
        name: module
        for module in _MODULES
        for name in importlib.import_module(f".{module}", __name__).__all__
    }


def __getattr__(name: str):
    # PEP 562: each name is looked up here on first use, then kept, so that
    # ``import relsys`` alone loads neither the modules nor numpy; a private
    # name, such as the probes of introspection tools, loads nothing
    if name == "__all__":
        value = list(_homes())
    elif not name.startswith("_") and name in (homes := _homes()):
        value = getattr(importlib.import_module(f".{homes[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_homes()))
