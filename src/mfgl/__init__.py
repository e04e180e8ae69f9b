"""Multi-fidelity estimation on graph-Laplacian priors.

A large set of cheap low-fidelity solutions fixes the geometry; a few
expensive high-fidelity runs anchor the values.  The package fuses the
two into Gaussian estimates (mean and pointwise spread) of what the
high-fidelity model would return everywhere.
"""

__version__ = "0.1.0"
