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
- ``euclid``:     the sign word of any orbit, by Euclid's algorithm
- ``foliation``:  rectangle-to-rectangle leaf tracing
- ``example``:    the orbit family whose forward sums stay at most -1
- ``harness``:    configs, output files, and the exact experiments
- ``spell``:      CSV rows of numeric columns, spelled in numpy
- ``orbits``:     the experiments that read an orbit
- ``cli``:        the ``rotn`` command line

``scan``, ``circle``, ``foliation``, ``orbits`` and ``spell`` import numpy; in
``words`` and ``exactreal`` only the functions that make arrays do.  So
the exact runs (``tower``, ``oracle``, ``fast_birkhoff``) never load it.
Nor do they, or ``import rotn.cli``, load ``dataclasses``, ``inspect``
or ``ast``: the records are slotted classes on ``exactreal.Record`` and
``exactreal.FrozenRecord``, and only ``harness.parse_point``, which
parses a leaf's seed expression, imports ``ast``.
"""

from .exactreal import (
    CFNumber,
    CertifiedFloat,
    SurdReal,
    alpha_next,
    cf_value,
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
    "gauss_step",
    "parse_cf",
    "__version__",
]
