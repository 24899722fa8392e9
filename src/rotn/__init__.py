"""Skew products over irrational circle rotations, computed exactly.

The package builds the renormalization tower of a rotation with an
eventually periodic continued fraction, predicts first-return words
from the substitution rules, checks them against direct simulation,
and scans long orbits of the associated sign cocycle with certified
floating point (falling back to exact quadratic-field arithmetic only
when a float cannot decide a predicate).

Layout:

- ``exactreal``:  quadratic surds, continued fractions, certified floats
- ``words``:      hash-consed sign words with O(1) prefix statistics
- ``scan``:       long orbit scans: certified float kernel or exact walk
- ``circle``:     visit sets of one level and their circular gaps
- ``renorm``:     the tower of return maps, substitutions, bounds checks
- ``foliation``:  rectangle-to-rectangle leaf tracing
- ``harness``:    experiment drivers, one table of kinds
- ``cli``:        the ``rotn`` command line
"""

from .exactreal import (
    CFNumber,
    CertifiedFloat,
    SurdReal,
    alpha_next,
    cf_value,
    convergent,
    gauss_step,
    parse_cf,
)

__version__ = "0.1.0"

__all__ = [
    "CFNumber",
    "CertifiedFloat",
    "SurdReal",
    "alpha_next",
    "cf_value",
    "convergent",
    "gauss_step",
    "parse_cf",
    "__version__",
]
