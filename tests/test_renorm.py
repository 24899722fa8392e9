"""The interval tower: substitution words, stats inequalities, oracles."""

import random
from fractions import Fraction

import pytest

from rotn.exactreal import SurdReal, parse_cf
from rotn.renorm import (
    base_level,
    fast_birkhoff,
    oracle_first_return,
    predicted_return_word,
    rationals_strictly_between,
    step,
    tower,
    verify_bounds,
    verify_chains,
)
from rotn.scan import orbit_scan
from rotn.words import EMPTY, MINUS, PLUS, expand, iter_letters, prefix_sum_at

ALPHA = parse_cf("[0;5,(6)]")
HALF = SurdReal(1, 0, 2)


# ---------------------------------------------------------------------------
# admissibility and construction


@pytest.mark.parametrize("bad, fragment", [
    ("[0;4,(6)]", "a1 = 4"),
    ("[0;6,(6)]", "a1 = 6"),
    ("[0;3,(6)]", "a1 = 3"),
    ("[0;5,7,(6)]", "a2 = 7"),
    ("[0;5,(6,9)]", "a3 = 9"),
    ("[0;5,(4)]", "a2 = 4"),
])
def test_admissibility_diagnostics(bad, fragment):
    with pytest.raises(ValueError, match=fragment.replace("(", "\\(")):
        tower(parse_cf(bad), 3)


def test_base_level():
    lvl = base_level(ALPHA)
    assert lvl.index == 1
    assert lvl.beta == ALPHA.value
    assert lvl.f_plus is PLUS and lvl.f_minus is MINUS and lvl.f_zero is EMPTY
    assert lvl.interval.left == 0 and lvl.interval.right == 1
    assert lvl.n_half == 2  # (5 - 1)/2


def test_level_two_frozen():
    l2 = tower(ALPHA, 2)[1]
    a = ALPHA.value
    assert l2.interval.length == SurdReal.root(10) - 3
    assert l2.beta == -a  # the self-similar point: renormalizing reproduces alpha
    assert l2.beta_cf == ALPHA
    assert expand(l2.f_plus) == [1, -1, -1, 1, 1]
    assert expand(l2.f_minus) == [-1, -1, -1, 1, 1]
    assert expand(l2.f_zero) == [1, -1, -1, -1, 1, 1]
    assert l2.stats == {"max_plus": 1, "min_plus": -1,
                        "max_minus": -1, "min_minus": -3}
    # symmetric about 1/2
    assert l2.interval.left + l2.interval.right == 1


def test_level_three_frozen():
    l3 = tower(ALPHA, 3)[2]
    assert (l3.f_plus.length, l3.f_minus.length, l3.f_zero.length) == (31, 31, 36)
    assert l3.stats == {"max_plus": 4, "min_plus": -1,
                        "max_minus": 2, "min_minus": -3}
    assert l3.beta == ALPHA.value  # the tower is exactly self-similar here
    assert l3.interval.length == 19 - 6 * SurdReal.root(10)


def test_word_totals_always_unit():
    for lvl in tower(parse_cf("[0;5,8,(6)]"), 7):
        assert lvl.f_plus.total == 1
        assert lvl.f_minus.total == -1
        assert lvl.f_zero.total == 0


def test_surgery_alpha_sequence():
    levels = tower(parse_cf("[0;5,8,(6)]"), 4)
    assert levels[1].beta_cf == parse_cf("[0;7,(6)]")
    assert levels[2].beta_cf == parse_cf("[0;5,(6)]")
    assert levels[3].beta_cf == parse_cf("[0;5,(6)]")


def test_intervals_nest_and_shrink():
    levels = tower(ALPHA, 8)
    for parent, child in zip(levels, levels[1:]):
        assert parent.interval.left <= child.interval.left
        assert child.interval.right <= parent.interval.right
        assert child.interval.length < parent.interval.length
        # contraction factor is |beta|(1 - G(|beta|)) < |beta|
        assert child.interval.length < parent.interval.length * abs_val(parent.beta)


def abs_val(x: SurdReal) -> SurdReal:
    return x if x.sign() >= 0 else -x


def test_tower_depth_validation():
    with pytest.raises(ValueError):
        tower(ALPHA, 0)


def test_tower_is_cached_prefixwise():
    t5 = tower(ALPHA, 5)
    t8 = tower(ALPHA, 8)
    assert all(a is b for a, b in zip(t5, t8[:5]))


# ---------------------------------------------------------------------------
# words of deeper levels refine shallower ones


def test_minus_words_extend_each_other():
    levels = tower(ALPHA, 10)
    rng = random.Random(3)
    for parent, child in zip(levels, levels[1:]):
        w0, w1 = parent.f_minus, child.f_minus
        for _ in range(40):
            k = rng.randrange(w0.length + 1)
            assert prefix_sum_at(w0, k) == prefix_sum_at(w1, k)


def test_fast_birkhoff_equals_direct():
    assert fast_birkhoff(ALPHA, 4) == -2
    sums = orbit_scan(HALF, ALPHA.value, 54321, policy="exact").sums
    for n in list(range(1, 300)) + [1234, 12345, 54321]:
        assert fast_birkhoff(ALPHA, n) == sums[n]
    beta = parse_cf("[0;5,8,(6)]")
    sums = orbit_scan(HALF, beta.value, 9999, policy="exact").sums
    for n in (1, 2, 77, 500, 9999):
        assert fast_birkhoff(beta, n) == sums[n]


# ---------------------------------------------------------------------------
# the stats inequalities


def test_bounds_hold_to_depth_eight():
    levels = tower(ALPHA, 8)
    for parent, child in zip(levels, levels[1:]):
        rows = verify_bounds(parent, child)
        assert all(r.ok for r in rows) and len(rows) == 4


def test_chains_hold_and_diverge():
    levels = tower(ALPHA, 12)
    rows = verify_chains(levels)
    assert rows and all(r.ok for r in rows)
    # the extrema actually fly apart, not just pass inequalities
    assert levels[-1].f_minus.min_prefix <= -12
    assert levels[-1].f_minus.max_prefix >= 10


def test_verify_bounds_rejects_non_consecutive():
    levels = tower(ALPHA, 4)
    with pytest.raises(ValueError):
        verify_bounds(levels[0], levels[2])


# ---------------------------------------------------------------------------
# dual routes to the first return


def test_oracle_first_return_at_half():
    l2 = tower(ALPHA, 2)[1]
    rec = oracle_first_return(l2, HALF)
    assert rec.time == 5
    assert list(rec.word) == expand(l2.f_minus)
    assert rec.landing == l2.return_map(HALF)


def test_predicted_matches_oracle_on_sampled_regions():
    rng = random.Random(11)
    one = SurdReal(1)
    for lvl in tower(ALPHA, 4)[1:]:
        if lvl.beta.sign() > 0:
            regions = [(SurdReal(0), HALF), (HALF, one - lvl.beta),
                       (one - lvl.beta, one)]
        else:
            regions = [(SurdReal(0), -lvl.beta), (-lvl.beta, HALF), (HALF, one)]
        for lo, hi in regions:
            for q in rationals_strictly_between(lo, hi, 4, rng):
                x = lvl.interval.from_local(SurdReal.from_fraction(q))
                rec = oracle_first_return(lvl, x)
                assert list(iter_letters(predicted_return_word(lvl, x))) == list(rec.word)
                assert rec.landing == lvl.return_map(x)


def test_predicted_word_refuses_case_boundary():
    l3 = tower(ALPHA, 3)[2]  # beta > 0 here
    x = l3.interval.from_local(SurdReal(1) - l3.beta)
    with pytest.raises(ValueError, match="boundary"):
        predicted_return_word(l3, x)


def test_oracle_refuses_outside_starts():
    l2 = tower(ALPHA, 2)[1]
    outside = SurdReal(1, 0, 10)
    with pytest.raises(ValueError):
        oracle_first_return(l2, outside)
    with pytest.raises(ValueError):
        predicted_return_word(l2, outside)


def test_return_map_stays_inside():
    l2 = tower(ALPHA, 2)[1]
    x = HALF
    for _ in range(50):
        x = l2.return_map(x)
        assert l2.interval.contains(x)


# ---------------------------------------------------------------------------
# sampling helper


def test_rationals_strictly_between():
    lo, hi = SurdReal(1, 0, 4), SurdReal(1, 0, 2)
    got = rationals_strictly_between(lo, hi, 25, random.Random(0))
    assert len(got) == 25
    assert all(isinstance(q, Fraction) and lo < SurdReal.from_fraction(q) < hi
               for q in got)
    again = rationals_strictly_between(lo, hi, 25, random.Random(0))
    assert got == again  # same seed, same draw
    with pytest.raises(ValueError):
        rationals_strictly_between(lo, lo, 1, random.Random(0))


def test_fast_birkhoff_on_a_cold_cache():
    # a fresh interpreter starts with an empty tower cache; this call used
    # to loop forever there, so it runs in its own process with a deadline
    import os
    import subprocess
    import sys

    import rotn

    src = os.path.dirname(os.path.dirname(os.path.abspath(rotn.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("from rotn.exactreal import parse_cf\n"
            "from rotn.renorm import fast_birkhoff\n"
            "print(fast_birkhoff(parse_cf('[0;5,(6)]'), 100))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == orbit_scan(HALF, ALPHA.value, 100, policy="exact").sums[100]
