"""The exact orbit engine against the SurdReal reference, by property.

The exact scan, the exact leaf tracer and the first-return oracle all
walk on an ``exactreal.Frame``.  Their reference here is plain
``SurdReal`` arithmetic (orbit points ``(x + a*n).frac()`` and their
floats, sums of their signs, and the landing frac(y + beta) in a
level's local chart), which shares no code with the frame walks, over
random admissible rotation numbers, random exact seeds (p + q*a)/r and
both directions.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotn.exactreal import HALF, CFNumber, Frame, SurdReal, _surd_sign, parse_cf
from rotn.foliation import trace_leaf_through, trace_ray
from rotn.harness import ExperimentConfig, run
from rotn.renorm import _local_return_word, oracle_first_return, tower
from rotn.scan import orbit_scan
from rotn.words import expand

# small coefficients keep the oracle's return times short
alphas = st.builds(
    lambda a1, period: CFNumber((a1,), tuple(period)),
    st.sampled_from([5, 7, 9, 11]),
    st.lists(st.sampled_from([6, 8, 10, 12]), min_size=1, max_size=2),
)
seeds = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 12))
directions = st.sampled_from([1, -1])
engine = settings(max_examples=40, deadline=None)
A = parse_cf("[0;5,(6)]")


def _point(seed, a):
    p, q, r = seed
    return (SurdReal(p) + a * q) / r


def _sum(x, a, n):
    """S_n(x) for signed n, one SurdReal sign test per orbit point."""
    def f(j):
        return 1 if (x + a * j).frac() < HALF else -1
    if n >= 0:
        return sum(f(j) for j in range(n))
    return -sum(f(j) for j in range(n, 0))


def _float(x):
    """float() of an exact point, as the bytes of a float64."""
    return np.float64(float(x)).tobytes()


def _off_the_orbit_of_zero(seed):
    # (p + q*a)/r = n*a + m runs into the singular corner of the leaf
    p, q, r = seed
    return p % r != 0 or q % r != 0


@engine
@given(alpha=alphas, seed=seeds, j0=st.integers(-3, 3), direction=directions)
@example(alpha=A, seed=(1, 0, 2), j0=0, direction=-1)  # starts on 1/2
def test_exact_leaf_trace_follows_the_rotation(alpha, seed, j0, direction):
    assume(_off_the_orbit_of_zero(seed))
    a = alpha.value
    x0 = _point(seed, a)
    N = 40
    tr = trace_leaf_through(x0, j0, a, N, direction=direction, policy="exact")
    for k in range(N + 1):
        n = direction * k
        assert tr.entry_x[k].tobytes() == _float((x0 + a * n).frac()), k
        assert tr.entry_level[k] == j0 + _sum(x0, a, n), k


@engine
@given(alpha=alphas, i=st.integers(-3, 3))
def test_exact_ray_trace_follows_the_rotation(alpha, i):
    a = alpha.value
    N = 40
    tr = trace_ray(i, a, N, policy="exact")
    for n in range(1, N + 1):
        assert tr.entry_x[n - 1].tobytes() == _float((HALF + a * (n - 1)).frac()), n
        assert tr.entry_level[n - 1] == i + 1 + _sum(HALF, a, n), n


@engine
@given(alpha=alphas, seed=seeds, level=st.integers(2, 4))
def test_oracle_lands_where_the_substitution_predicts(alpha, seed, level):
    lvl = tower(alpha, level)[-1]
    y = _point(seed, alpha.value).frac()
    boundary = SurdReal(1) - lvl.beta if lvl.beta.sign() > 0 else -lvl.beta
    assume(y != boundary)
    x = lvl.interval.from_local(y)
    rec = oracle_first_return(lvl, x)
    # the first-return map is the rotation by beta in the local chart
    assert rec.landing == lvl.interval.from_local((y + lvl.beta).frac())
    assert list(rec.word) == expand(_local_return_word(lvl, y))


@engine
@given(alpha=alphas, seed=seeds, direction=directions,
       n=st.integers(1, 2000))
@example(alpha=A, seed=(1, 0, 2), direction=1, n=50)  # starts on 1/2
def test_certified_scan_matches_the_exact_engine(alpha, seed, direction, n):
    a = alpha.value
    x0 = _point(seed, a)
    cert = orbit_scan(x0, a, n, direction=direction)
    exact = orbit_scan(x0, a, n, direction=direction, policy="exact")
    assert np.array_equal(cert.signs, exact.signs)
    assert np.array_equal(cert.sums, exact.sums)
    # each certified position is within radius_bound of the exact point,
    # whose own float shadow is off by at most its certified radius
    step = a if direction == 1 else -a
    p = x0.frac()
    for i in range(n + 1):
        shadow = p.certified()
        assert abs(cert.positions[i] - shadow.value) \
            <= cert.radius_bound + shadow.radius, i
        p = (p + step).frac()


@settings(max_examples=15, deadline=None)
@given(alpha=alphas, seed=seeds, direction=directions,
       precision=st.sampled_from(["certified-fast", "exact-only"]))
def test_leaf_checks_pass_on_honest_traces(alpha, seed, direction, precision):
    assume(_off_the_orbit_of_zero(seed))
    p, q, r = seed
    rep = run(ExperimentConfig(kind="leaf", alpha=str(alpha), N=300,
                               through="(%d+%d*a)/%d" % (p, q, r),
                               backward=direction == -1, precision=precision))
    assert rep["ok"] and rep["prefix_visits_checked"] == 257


def test_frame_embeds_only_its_lattice():
    a = A.value
    frame = Frame(a, HALF)
    P, Q = frame.embed(a)
    assert frame.surd(P, Q) == a
    assert _surd_sign(*frame.embed(HALF), frame.d) == 1
    with pytest.raises(ValueError, match="not on the lattice"):
        frame.embed(SurdReal(1, 0, 7))
    with pytest.raises(ValueError, match="cannot mix"):
        Frame(a, SurdReal.root(2))
