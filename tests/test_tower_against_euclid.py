"""The tower's word at 1/2 against Euclid's, at lengths no run's keyed
prefix reaches.

Two parts of F_b' swapped in `renorm.step` at one level keep every
word's length and total, so the tower's bounds and chains and the keyed
2^16 signs still pass; only the sums in between move.  Euclid's word
(`euclid.sign_word`) reads neither the tower nor its words, so the two
words' histograms and sums at 10^18 and 2^63 - 1 letters tell such a
swap apart, on alphas outside the example family too.
"""

import numpy as np
import pytest

from rotn.euclid import sign_word
from rotn.exactreal import HALF, parse_cf
from rotn.renorm import half_word
from rotn.words import prefix_histogram, prefix_sum_at


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]"])
@pytest.mark.parametrize("n", [10 ** 18, 2 ** 63 - 1])
def test_tower_word_at_half_has_euclids_histogram(alpha, n):
    cf = parse_cf(alpha)
    tower, euclid = half_word(cf, n), sign_word(cf.value, HALF, n)
    (tower_lo, tower_counts), (euclid_lo, euclid_counts) = (
        prefix_histogram(tower, n), prefix_histogram(euclid, n))
    assert tower_lo == euclid_lo
    assert np.array_equal(tower_counts, euclid_counts)
    assert prefix_sum_at(tower, n) == prefix_sum_at(euclid, n)
