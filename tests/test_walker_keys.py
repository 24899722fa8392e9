"""The keyed exact walkers against their unscreened forms.

``renorm.oracle_first_return`` and ``foliation._trace_exact`` decide
each comparison on the points' ``Frame.key`` and call ``_surd_sign``
only inside the band where the keys cannot tell.  Their references
here are the same walkers as they were before the key, with one
``_surd_sign`` call per comparison.  The walks must agree on every
output (the trace's floats and levels), and on exact hits (a point
equal to a threshold, placed by the orbit formula), which only the
band can decide, the counted ``_surd_sign`` calls show the band was
taken.  With every key 0, so that the band decides every comparison on
the pair the walker rebuilds, they must agree too; and the tracer must
agree with its reference without the key walk, the keys or the scan.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rotn.foliation
import rotn.renorm
import rotn.scan
from rotn.exactreal import (HALF, CFNumber, Frame, SurdReal, _surd_float, _surd_sign,
                            parse_cf)
from rotn.foliation import _trace_exact, trace_leaf_through, trace_ray
from rotn.renorm import ReturnRecord, oracle_first_return, tower

alphas = st.builds(
    lambda a1, period: CFNumber((a1,), tuple(period)),
    st.sampled_from([5, 7, 9, 11]),
    st.lists(st.sampled_from([6, 8, 10, 12]), min_size=1, max_size=2),
)
starts = st.fractions(0, 1, max_denominator=10 ** 6).filter(lambda q: q < 1)
keyed = settings(max_examples=40, deadline=None)
A = parse_cf("[0;5,(6)]")


# ---------------------------------------------------------------------------
# the walkers before the key


def _reference_oracle(level, x):
    """``oracle_first_return`` with one ``_surd_sign`` call per comparison."""
    interval = level.interval
    if not interval.contains(x):
        raise ValueError(
            "oracle start %s is outside level %d" % (x.exact_str(), level.index)
        )
    alpha = level.base_alpha
    budget = 10 * (level.f_minus.length + level.f_zero.length)
    frame = Frame(x, alpha, HALF, interval.left, interval.right)
    R, d, sign = frame.R, frame.d, _surd_sign
    P, Q = frame.embed(x)
    Pa, Qa = frame.embed(alpha)
    Ph, _ = frame.embed(HALF)
    Pl, Ql = frame.embed(interval.left)
    Pr, Qr = frame.embed(interval.right)
    # alpha is in (0, 1), so a step wraps at most once; when alpha < 1/2
    # a point left of 1/2 cannot wrap at all
    short = sign(Ph - Pa, -Qa, d) > 0
    left = sign(P - Ph, Q, d) < 0
    word = []
    for _ in range(budget):
        word.append(1 if left else -1)
        P += Pa
        Q += Qa
        if not (short and left) and sign(P - R, Q, d) >= 0:
            P -= R
        # the interval is symmetric about 1/2, so the side of 1/2 the
        # point is on tells which endpoint can exclude it
        left = sign(P - Ph, Q, d) < 0
        if (sign(P - Pl, Q - Ql, d) >= 0) if left else (sign(P - Pr, Q - Qr, d) < 0):
            return ReturnRecord(time=len(word), word=tuple(word), landing=frame.surd(P, Q))
    raise RuntimeError(
        "no return to level %d within %d steps from %s"
        % (level.index, budget, x.exact_str())
    )


def _reference_turn_map(frame, alpha):
    """``foliation._turn_map`` with one ``_surd_sign`` call per side."""
    R, d = frame.R, frame.d
    Pa, Qa = frame.embed(alpha)
    Ps, Qs = R - Pa, -Qa  # the split 1 - alpha

    def turn(P: int, Q: int) -> tuple[int, int]:
        c = _surd_sign(P - Ps, Q - Qs, d)
        if c == 0:
            raise ValueError("leaf at x = 1 - alpha runs into the singular corner")
        if c < 0:
            return Ps - P, Qs - Q
        return Ps + R - P, Qs - Q

    return turn


def _reference_trace(x0, level0, alpha, count, direction, ray_convention):
    """``foliation._trace_exact`` with one ``_surd_sign`` call per side, as it
    was when it also kept the ray bookkeeping: ``trace_ray`` now reads a ray
    off a leaf, and the forward ray convention is compared with that."""
    frame = Frame(x0, alpha, HALF)
    R, d = frame.R, frame.d
    sign, to_float = _surd_sign, _surd_float
    turn = _reference_turn_map(frame, alpha)
    Ph, _ = frame.embed(HALF)
    P, Q = frame.embed(x0)
    # forward rays and backward leaves move by f of the new coordinate
    f_of_new = (direction == 1) == ray_convention
    xs = np.empty(count, dtype=np.float64)
    lv = np.empty(count, dtype=np.int64)
    j = level0
    for k in range(count):
        xs[k] = to_float(P, Q, R, d)
        lv[k] = j
        if k + 1 == count:
            break
        if not f_of_new:
            f = 1 if sign(P - Ph, Q, d) < 0 else -1
        if direction == 1:
            dP, dQ = turn(P, Q)
            P, Q = R - dP, -dQ  # 1 - b(x), already in (0, 1)
        else:
            # b(1 - x): 1 - x is in (0, 1], and at 1 b agrees with b(0)
            P, Q = turn(R - P, -Q)
        if f_of_new:
            f = 1 if sign(P - Ph, Q, d) < 0 else -1
        j += direction * f
    return xs, lv


# ---------------------------------------------------------------------------
# helpers


def _same_trace(got, want):
    (xs, lv), (xs0, lv0) = got, want
    assert np.array_equal(lv, lv0)
    assert xs.tobytes() == xs0.tobytes()


def _outcome(walk, *args):
    """(trace, None), or (None, message) when the walk refuses."""
    try:
        return walk(*args), None
    except ValueError as err:
        return None, str(err)


@pytest.fixture
def ties(monkeypatch):
    """Wrap ``_surd_sign`` where the walkers call it; list the calls that tie."""
    calls = []

    def counted(p, q, d):
        c = _surd_sign(p, q, d)
        if c == 0:
            calls.append((p, q))
        return c

    monkeypatch.setattr(rotn.renorm, "_surd_sign", counted)
    monkeypatch.setattr(rotn.foliation, "_surd_sign", counted)
    return calls


def _back_into(level, t, budget):
    """(j, t^(-j)(t)) for the least j >= 1 with t^(-j)(t) in the level's interval."""
    a = level.base_alpha
    for j in range(1, budget + 1):
        x = (t - a * j).frac()
        if level.interval.contains(x):
            return j, x
    raise AssertionError("no backward entry within %d steps" % (budget,))


# ---------------------------------------------------------------------------
# the key's lemma


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3, 10, 13, 1234567]),
       P=st.integers(-2 ** 80, 2 ** 80), Q=st.integers(-2 ** 40, 2 ** 40),
       Pt=st.integers(-2 ** 80, 2 ** 80), Qt=st.integers(-2 ** 40, 2 ** 40))
@example(d=2, P=0, Q=0, Pt=0, Qt=0)
def test_keys_outside_the_band_give_the_exact_sign(d, P, Q, Pt, Qt):
    frame = Frame(SurdReal.root(d))
    X, Xt = frame.key(P, Q), frame.key(Pt, Qt)
    assert frame.key(P - Pt, Q - Qt) == X - Xt  # additive
    B = abs(Q - Qt)
    exact = _surd_sign(P - Pt, Q - Qt, d)
    if X - Xt > B:
        assert exact > 0
    elif X - Xt < -B:
        assert exact < 0


@pytest.mark.parametrize("d, p1, q1", [(2, 1, 1), (7, 8, 3), (13, 18, 5)])
def test_keys_on_pell_near_ties(d, p1, q1):
    # p - q*sqrt(d) = +-1/(p + q*sqrt(d)): once q passes 2^64 its key is
    # within q of 0, so only _surd_sign can tell the side
    frame = Frame(SurdReal.root(d))
    p, q = p1, q1
    inside = 0
    while p < 2 ** 120:
        for P, Q in ((p, -q), (-p, q)):
            X, exact = frame.key(P, Q), _surd_sign(P, Q, d)
            if abs(X) > q:
                assert (X > 0) == (exact > 0)
            else:
                inside += 1
        p, q = p * p1 + d * q * q1, p * q1 + q * p1
    assert inside >= 2


# ---------------------------------------------------------------------------
# the keyed walkers equal their references


@keyed
@given(alpha=alphas, level=st.integers(2, 4), seed=st.integers(0, 10 ** 6),
       surd=st.booleans())
def test_keyed_oracle_equals_the_reference(alpha, level, seed, surd):
    lvl = tower(alpha, level)[-1]
    rng = random.Random(seed)
    if surd:
        # a rational local coordinate, so a start in alpha's field
        x = lvl.interval.from_local(SurdReal.from_fraction(Fraction(rng.random())))
    else:
        # a rational global start: the float of a point in the interval's
        # middle third, which lies inside by far more than its rounding
        lo, hi = lvl.interval.left, lvl.interval.right
        mid = lo + (hi - lo) * ((1 + SurdReal.from_fraction(Fraction(rng.random()))) / 3)
        x = SurdReal.from_fraction(Fraction(float(mid)))
        assert lo < x < hi
    assert oracle_first_return(lvl, x) == _reference_oracle(lvl, x)


@keyed
@given(alpha=alphas, x0=starts, q=st.integers(-20, 20), j0=st.integers(-3, 3),
       direction=st.sampled_from([1, -1]), count=st.integers(1, 300))
def test_keyed_trace_equals_the_reference(alpha, x0, q, j0, direction, count):
    a = alpha.value
    x = (SurdReal.from_fraction(x0) + a * q).frac()
    got, err = _outcome(_trace_exact, x, j0, a, count, direction)
    want, err0 = _outcome(_reference_trace, x, j0, a, count, direction, False)
    assert err == err0
    if want is not None:
        _same_trace(got, want)


@keyed
@given(alpha=alphas, i=st.integers(-3, 3), count=st.integers(1, 300))
def test_keyed_ray_equals_the_reference(alpha, i, count):
    a = alpha.value
    tr = trace_ray(i, a, count, policy="exact")
    _same_trace((tr.entry_x, tr.entry_level), _reference_trace(HALF, i, a, count, 1, True))


# ---------------------------------------------------------------------------
# exact hits: only the band decides them


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_oracle_lands_exactly_on_the_included_left_end(ties, alpha, level):
    lvl = tower(parse_cf(alpha), level)[-1]
    left = lvl.interval.left
    j, x = _back_into(lvl, left, 10 * (lvl.f_minus.length + lvl.f_zero.length))
    ties.clear()
    rec = oracle_first_return(lvl, x)
    assert rec.time == j and rec.landing == left
    assert rec == _reference_oracle(lvl, x)
    assert (0, 0) in ties


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_oracle_passes_the_excluded_right_end(ties, alpha, level):
    lvl = tower(parse_cf(alpha), level)[-1]
    right = lvl.interval.right
    j, x = _back_into(lvl, right, 10 * (lvl.f_minus.length + lvl.f_zero.length))
    ties.clear()
    rec = oracle_first_return(lvl, x)
    y = lvl.interval.to_local(x)
    assert rec.time > j and rec.landing == lvl.interval.from_local((y + lvl.beta).frac())
    assert rec == _reference_oracle(lvl, x)
    assert (0, 0) in ties


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("ray_convention", [True, False])
def test_a_leaf_visits_exactly_one_half(ties, direction, ray_convention):
    a = A.value
    if ray_convention:
        # a ray enters its first rectangle at 1/2; backward, the orbit of
        # 1/2 is the forward one under rotation by -alpha, that is 1 - alpha
        a = a if direction == 1 else 1 - a
        tr = trace_ray(0, a, 10, policy="exact")
        got, at = (tr.entry_x, tr.entry_level), 0
        want = _reference_trace(HALF, 0, a, 10, 1, True)
    else:
        x0 = (HALF - a * (3 * direction)).frac()
        assert (x0 + a * (3 * direction)).frac() == HALF  # visit 3 sits on 1/2
        got, at = _trace_exact(x0, 0, a, 10, direction), 3
        want = _reference_trace(x0, 0, a, 10, direction, False)
    assert got[0][at] == 0.5
    _same_trace(got, want)
    assert (0, 0) in ties


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("ray_convention", [True, False])
def test_a_leaf_reaching_the_corner_is_refused(ties, direction, ray_convention):
    # forward, the turn at x = 1 - alpha is the corner; backward, the one
    # at 1 - x = 1 - alpha, that is x = alpha; visit 2 sits there
    a = A.value
    corner = 1 - a if direction == 1 else a
    x0 = (corner - a * (2 * direction)).frac()
    assert (x0 + a * (2 * direction)).frac() == corner
    # three visits take no turn from visit 2, a fourth must.  A ray from
    # 1/2 never meets the corner (alpha is irrational), so the ray case
    # runs through trace_leaf_through, the tracer trace_ray reads
    def walk(count):
        if ray_convention:
            tr = trace_leaf_through(x0, 0, a, count - 1, direction=direction,
                                    policy="exact")
            return tr.entry_x, tr.entry_level
        return _trace_exact(x0, 0, a, count, direction)

    xs, _ = walk(3)
    assert xs[2] == float(corner)
    ties.clear()
    with pytest.raises(ValueError, match="singular corner"):
        walk(4)
    with pytest.raises(ValueError, match="singular corner"):
        _reference_trace(x0, 0, a, 4, direction, ray_convention)
    assert (0, 0) in ties


# ---------------------------------------------------------------------------
# the chunks: one _surd_floats call writes each chunk's floats


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]"])
def test_chunked_trace_equals_the_reference_at_every_chunk_edge(monkeypatch, chunk, direction,
                                                                 alpha):
    if chunk is not None:
        monkeypatch.setattr(rotn.foliation, "_CHUNK", chunk)
    C = rotn.foliation._CHUNK
    a = parse_cf(alpha).value
    for x0 in ((1 + a) / 3, HALF, SurdReal.from_fraction(Fraction(2, 7))):
        for count in (1, 2, C - 1, C, C + 1, 2 * C - 1, 3 * C + 5):
            got = _trace_exact(x0, 2, a, count, direction)
            _same_trace(got, _reference_trace(x0, 2, a, count, direction, False))


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("direction", [1, -1])
def test_a_corner_met_mid_chunk_is_refused_with_the_references_message(monkeypatch, chunk,
                                                                       direction):
    if chunk is not None:
        monkeypatch.setattr(rotn.foliation, "_CHUNK", chunk)
    C = rotn.foliation._CHUNK
    a = A.value
    corner = 1 - a if direction == 1 else a
    at = C + C // 2  # the visit that sits on the corner, inside the second chunk
    x0 = (corner - a * (at * direction)).frac()
    got, err = _outcome(_trace_exact, x0, 0, a, 3 * C + 5, direction)
    want, err0 = _outcome(_reference_trace, x0, 0, a, 3 * C + 5, direction, False)
    assert got is None and want is None
    assert err == err0 == "leaf at x = 1 - alpha runs into the singular corner"
    # up to the corner's visit the walk takes no turn there
    _same_trace(_trace_exact(x0, 0, a, at + 1, direction),
                _reference_trace(x0, 0, a, at + 1, direction, False))


# ---------------------------------------------------------------------------
# the band: with every key 0, every comparison rebuilds its lattice pair


@pytest.fixture
def keyless(monkeypatch):
    """Every ``Frame.key`` 0, so every comparison falls in its band."""
    monkeypatch.setattr(Frame, "key", lambda self, P, Q: 0)


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("direction", [1, -1])
def test_a_trace_decided_in_the_band_alone_equals_the_reference(keyless, monkeypatch, chunk,
                                                                direction):
    if chunk is not None:
        monkeypatch.setattr(rotn.foliation, "_CHUNK", chunk)
    C = rotn.foliation._CHUNK
    for alpha in ("[0;5,(6)]", "[0;7,(8,10)]"):
        a = parse_cf(alpha).value
        for x0 in ((1 + a) / 3, HALF, (HALF - a * (3 * direction)).frac()):
            for count in (1, 2, C - 1, C, C + 1, 2 * C - 1, 3 * C + 5):
                _same_trace(_trace_exact(x0, -1, a, count, direction),
                            _reference_trace(x0, -1, a, count, direction, False))


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_an_oracle_decided_in_the_band_alone_equals_the_reference(keyless, alpha, level):
    lvl = tower(parse_cf(alpha), level)[-1]
    budget = 10 * (lvl.f_minus.length + lvl.f_zero.length)
    starts = [_back_into(lvl, lvl.interval.left, budget)[1],
              _back_into(lvl, lvl.interval.right, budget)[1],
              lvl.interval.from_local(SurdReal.from_fraction(Fraction(2, 7)))]
    for x in starts:
        assert oracle_first_return(lvl, x) == _reference_oracle(lvl, x)


# ---------------------------------------------------------------------------
# the lattice points of a chunk, on int64 and on Python ints


@pytest.mark.parametrize("direction", [1, -1])
def test_traces_past_int64_take_python_int_chunks_and_equal_the_reference(monkeypatch,
                                                                          direction):
    # from 1/2 + 2^-47 the points of [0;5,(6)] stay on int64; from
    # 1/2 + 2^-80, R passes 2^80 and every chunk's points are Python ints
    kinds, lattice = [], rotn.foliation._lattice

    def spy(*args):
        Pk, Qk = lattice(*args)
        kinds.append(Pk.dtype.kind)
        return Pk, Qk

    monkeypatch.setattr(rotn.foliation, "_lattice", spy)
    count = 3 * rotn.foliation._CHUNK + 5
    for e in (47, 80):
        x0, start = HALF + SurdReal(1, 0, 2 ** e), len(kinds)
        for a in (A.value, parse_cf("[0;7,(8,10)]").value):
            _same_trace(_trace_exact(x0, 0, a, count, direction),
                        _reference_trace(x0, 0, a, count, direction, False))
        if e == 80:
            assert set(kinds[start:]) == {"O"}
    assert set(kinds) == {"i", "O"}


# ---------------------------------------------------------------------------
# the tracer reads no orbit: not the key walk, nor the keys, nor the scan


def test_exact_traces_read_neither_the_walk_nor_the_keys_nor_the_scan(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact tracer read the orbit")

    for name in ("_key_walk", "key_signs", "orbit_scan"):
        monkeypatch.setattr(rotn.scan, name, refuse)
    monkeypatch.setattr(rotn.foliation, "orbit_scan", refuse)
    for alpha in ("[0;5,(6)]", "[0;7,(8,10)]"):
        a = parse_cf(alpha).value
        for direction in (1, -1):
            x0 = (1 + a) / 3
            tr = trace_leaf_through(x0, 1, a, 700, direction=direction, policy="exact")
            _same_trace((tr.entry_x, tr.entry_level),
                        _reference_trace(x0, 1, a, 701, direction, False))
        tr = trace_ray(2, a, 700, policy="exact")
        _same_trace((tr.entry_x, tr.entry_level), _reference_trace(HALF, 2, a, 700, 1, True))
