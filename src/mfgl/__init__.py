"""Multi-fidelity estimation on graph-Laplacian priors.

A large set of cheap low-fidelity solutions fixes the geometry; a few
expensive high-fidelity runs anchor the values.  The package fuses the
two into Gaussian estimates (mean and pointwise spread) of what the
high-fidelity model would return everywhere.

Submodules load lazily: the command-line front end must be able to cap
BLAS thread pools via environment variables before numpy first loads.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "acquisition",
    "bench",
    "cli",
    "config",
    "data",
    "exceptions",
    "graph",
    "matio",
    "posterior",
    "spectral",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
