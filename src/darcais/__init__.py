"""Exact recursive polynomials attached to normalized arithmetic functions.

P_0 = 1 and P_n = (x / h(n)) * sum_{k=1}^n g(k) P_{n-k} for a pair of
normalized arithmetic functions g, h (h non-vanishing).  The package
computes these polynomials and their coefficient triangle exactly, derives
the coefficients independently from partition-weight formulas, checks
everything against generating-function and hook-length oracles, and runs
log-concavity and non-vanishing scans.
"""

# Not used by the package itself: perfbench/test_perfbench.py checks that the
# benchmark tracer rebinds this name in the package root.
from .series import euler_product_power  # noqa: F401

__version__ = "0.1.0"
