"""Hash-consed sign words: structure sharing, stats, lazy expansion."""

import random
import time
import weakref
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotn import words
from rotn.euclid import sign_word
from rotn.exactreal import HALF, parse_cf
from rotn.renorm import half_word, tower
from rotn.scan import orbit_scan
from rotn.words import (
    EMPTY,
    MAX_HISTOGRAM_LENGTH,
    MINUS,
    PLUS,
    atom,
    concat,
    concat_all,
    expand,
    intern_size,
    iter_letters,
    letters,
    level_times,
    power,
    prefix_histogram,
    prefix_sum_at,
    to_sexpr,
)


def test_atoms():
    assert PLUS.length == 1 and PLUS.total == 1
    assert MINUS.length == 1 and MINUS.total == -1
    assert PLUS.max_prefix == 1 and PLUS.min_prefix == 1
    assert atom(1) is PLUS  # interned
    with pytest.raises(ValueError):
        atom(0)


def test_empty_word():
    assert EMPTY.length == 0 and EMPTY.total == 0
    assert concat(EMPTY, PLUS) is PLUS
    assert concat(PLUS, EMPTY) is PLUS
    with pytest.raises(ValueError):
        EMPTY.max_prefix  # no nonempty prefixes to take a max over


def test_concat_stats():
    w = concat_all([MINUS, MINUS, MINUS, PLUS, PLUS])
    assert (w.length, w.total) == (5, -1)
    assert (w.max_prefix, w.min_prefix) == (-1, -3)
    assert expand(w) == [-1, -1, -1, 1, 1]


def test_power_stats_without_materializing():
    base = concat(MINUS, power(PLUS, 2))  # total +1, dips to -1 first
    w = power(base, 10**9)
    assert w.length == 3 * 10**9
    assert w.total == 10**9
    assert w.min_prefix == -1
    assert w.max_prefix == 10**9  # climbs by +1 per repetition
    assert prefix_sum_at(w, w.length) == w.total
    assert prefix_sum_at(w, 4) == 0  # -1 +1 +1 -1


def test_power_of_power_collapses():
    w = power(power(PLUS, 3), 4)
    assert w.length == 12
    assert w is power(PLUS, 12)


def test_interning_shares_structure():
    a = concat(power(MINUS, 5), PLUS)
    b = concat(power(MINUS, 5), PLUS)
    assert a is b
    before = intern_size()
    concat(power(MINUS, 5), PLUS)
    assert intern_size() == before


def test_dead_nodes_are_dropped_and_their_uids_never_reused():
    held = concat(power(MINUS, 123_456_789), PLUS)
    dead = concat(power(PLUS, 987_654_321), MINUS)  # exponents no other test uses
    dead_uids = {dead.uid, dead.left.uid}
    ref = weakref.ref(dead)
    del dead
    alive = ref() is not None
    assert not alive
    # more new entries than the table takes before its next sweep
    for k in range(words._sweep_at + 1):
        power(PLUS, 10**9 + k)
    again = concat(power(PLUS, 987_654_321), MINUS)
    assert min(again.uid, again.left.uid) > max(dead_uids)
    same = concat(power(MINUS, 123_456_789), PLUS) is held
    assert same


def test_power_rejects_bad_exponent():
    with pytest.raises(ValueError):
        power(PLUS, 0)
    with pytest.raises(ValueError):
        power(PLUS, -2)


def test_prefix_sum_bounds_checked():
    w = power(PLUS, 5)
    assert prefix_sum_at(w, 0) == 0
    with pytest.raises(ValueError):
        prefix_sum_at(w, 6)
    with pytest.raises(ValueError):
        prefix_sum_at(w, -1)


def test_iter_letters_streams():
    w = power(concat(PLUS, MINUS), 10**8)
    head = list(islice(iter_letters(w), 6))
    assert head == [1, -1, 1, -1, 1, -1]


def test_expand_cap():
    with pytest.raises(ValueError):
        expand(power(PLUS, 10**8), cap=10**6)


def test_sexpr():
    w = concat(MINUS, power(PLUS, 3))
    assert to_sexpr(w) == "(- (+^3))"
    assert to_sexpr(EMPTY) == "()"
    assert to_sexpr(concat_all([MINUS, MINUS, PLUS])) == "(- - +)"


def test_repr_of_a_deep_word_is_short():
    # to_sexpr of a depth-40 tower word would run to ~10^24 characters
    level = tower(parse_cf("[0;5,(6)]"), 40)[-1]
    t = time.perf_counter()
    size = len(repr(level))
    assert time.perf_counter() - t < 0.1
    assert size < 10**4
    assert repr(level.f_zero) == "SignWord[uid=%d concat len=%d total=0]" \
        % (level.f_zero.uid, level.f_zero.length)
    assert repr(concat(MINUS, power(PLUS, 3))) == "SignWord[(- (+^3)) len=4 total=2]"


# ---------------------------------------------------------------------------
# randomized structure vs naive expansion


@st.composite
def sign_words(draw, max_len=10**4):
    """Random words of at most about max_len letters."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from([PLUS, MINUS]))
    if kind == 1:
        return EMPTY
    if kind == 2:
        a = draw(sign_words(max_len // 2))
        b = draw(st.sampled_from([PLUS, MINUS, a]))  # a twice: a shared node
        return concat(a, b)
    base = draw(sign_words(max_len // 4))
    if base.length == 0:
        return base
    exp = draw(st.integers(1, max(1, min(8, max_len // max(base.length, 1)))))
    return power(base, exp)


@settings(max_examples=200, deadline=None)
@given(sign_words(), st.data())
def test_dag_stats_match_naive(w, data):
    letters = expand(w, cap=10**5)
    assert len(letters) == w.length
    assert sum(letters) == w.total
    assert letters == list(iter_letters(w))
    if letters:
        sums = np.cumsum(letters)
        assert w.max_prefix == int(sums.max())
        assert w.min_prefix == int(sums.min())
        k = data.draw(st.integers(0, w.length))
        assert prefix_sum_at(w, k) == (int(sums[k - 1]) if k else 0)


# ---------------------------------------------------------------------------
# the node constructors against a reference built from recipes


def _recipe(rng, budget):
    """A random recipe ("atom", s), ("concat", A, B) or ("power", A, e) of at
    most budget letters, budget >= 1, with its length."""
    kind = rng.randrange(3) if budget > 1 else 0
    if kind == 0:
        return ("atom", rng.choice((1, -1))), 1
    if kind == 1:
        a, la = _recipe(rng, budget - 1)
        b, lb = _recipe(rng, budget - la)
        return ("concat", a, b), la + lb
    a, la = _recipe(rng, budget // 2)
    e = rng.randint(1, budget // la)
    return ("power", a, e), la * e


def _build(recipe):
    if recipe[0] == "atom":
        return atom(recipe[1])
    if recipe[0] == "concat":
        return concat(_build(recipe[1]), _build(recipe[2]))
    return power(_build(recipe[1]), recipe[2])


def _law_stats(recipe):
    """(length, total, max_prefix, min_prefix) by the composition laws: a
    concat composes its two parts, a power folds e copies one by one."""
    if recipe[0] == "atom":
        s = recipe[1]
        return 1, s, s, s
    if recipe[0] == "concat":
        parts = [_law_stats(recipe[1]), _law_stats(recipe[2])]
    else:
        parts = [_law_stats(recipe[1])] * recipe[2]
    length, total, hi, lo = parts[0]
    for n, t, h, m in parts[1:]:
        length, total, hi, lo = (length + n, total + t, max(hi, total + h),
                                 min(lo, total + m))
    return length, total, hi, lo


def _letters(recipe):
    if recipe[0] == "atom":
        return [recipe[1]]
    if recipe[0] == "concat":
        return _letters(recipe[1]) + _letters(recipe[2])
    return _letters(recipe[1]) * recipe[2]


def _nodes(w):
    """Every node of w's DAG, each once."""
    seen, todo = {}, [w]
    while todo:
        node = todo.pop()
        if node.uid not in seen:
            seen[node.uid] = node
            todo.extend(k for k in (node.left, node.right, node.base) if k is not None)
    return list(seen.values())


def test_built_words_match_the_laws_and_their_letters():
    rng = random.Random(3701)
    for _ in range(300):
        recipe, size = _recipe(rng, rng.choice((4, 64, 2 ** 12)))
        w = _build(recipe)
        spelled = _letters(recipe)
        sums = np.cumsum(spelled)
        assert len(spelled) == size <= 2 ** 12
        assert (w.length, w.total, w.max_prefix, w.min_prefix) == _law_stats(recipe)
        assert (w.length, w.total, w.max_prefix, w.min_prefix) == (
            size, int(sums[-1]), int(sums.max()), int(sums.min()))
        assert expand(w) == spelled
        # structurally equal words are one object
        assert _build(recipe) is w


def test_new_nodes_get_fresh_increasing_uids_and_no_histogram():
    rng = random.Random(3702)
    held = []
    for _ in range(50):
        before = max(n.uid for n in _nodes(held[-1])) if held else -1
        top = words._next_uid
        # an exponent no other test uses makes the power, and every node
        # above it, new
        recipe, _ = _recipe(rng, 2 ** 10)
        recipe = ("concat", recipe, ("power", ("atom", 1), 10 ** 12 + len(held)))
        w = _build(recipe)
        held.append(w)
        new = sorted((n for n in _nodes(w) if n.uid >= top), key=lambda n: n.uid)
        assert new and new[-1] is w and new[0].uid >= top > before
        assert all(n._hist is None for n in new)
        assert words._next_uid == new[-1].uid + 1
        # a node is built after its parts, so its uid is the larger
        for n in new:
            assert all(k.uid < n.uid for k in (n.left, n.right, n.base) if k is not None)


def test_a_swept_node_leaves_the_table_and_is_never_matched():
    key = ("power", PLUS.uid, 10 ** 13 + 7)  # an exponent no other test uses
    dead = power(PLUS, 10 ** 13 + 7)
    old_uid = dead.uid
    assert words._interned[key]() is dead
    del dead
    assert words._interned[key]() is None  # dead, still in the table
    # more new entries than the table takes before its next sweep
    kept = [power(MINUS, 10 ** 13 + k) for k in range(words._sweep_at + 1)]
    assert key not in words._interned
    again = power(PLUS, 10 ** 13 + 7)
    assert again.uid > old_uid and again.uid > max(w.uid for w in kept)
    assert words._interned[key]() is again


# ---------------------------------------------------------------------------
# letters and prefix histograms, against numpy on the expanded word


def _numpy_reference(w, n):
    """The first n letters by the letter generator, and their sums' histogram."""
    ref = np.fromiter(islice(iter_letters(w), n), dtype=np.int8, count=n)
    sums = np.cumsum(ref, dtype=np.int64)
    lo = int(sums.min()) if n else 0
    return ref, lo, np.bincount(sums - lo) if n else np.zeros(0, dtype=np.int64)


def _check_prefix(w, n):
    ref, lo, counts = _numpy_reference(w, n)
    got = letters(w, n)
    assert got.dtype == np.int8 and np.array_equal(got, ref)
    hist_lo, hist = prefix_histogram(w, n)
    assert hist_lo == lo and np.array_equal(hist, counts), n


def _node_boundaries(w, cap):
    """Offsets below cap where a DAG node starts or ends, found by descent."""
    found, todo = set(), [(w, 0)]
    while todo and len(found) < 200:
        node, start = todo.pop()
        if start >= cap or node.length < 2:
            continue
        if node.kind == "power":
            step = node.base.length
            found.update(range(start, min(start + node.length, cap) + 1, step))
            todo.append((node.base, start))
        else:
            found.add(start + node.left.length)
            todo += [(node.left, start), (node.right, start + node.left.length)]
    return found


@st.composite
def admissible_levels(draw):
    a1 = draw(st.sampled_from([5, 7, 9, 11, 13, 15]))
    period = draw(st.lists(st.sampled_from([6, 8, 10, 14, 20]), min_size=1, max_size=2))
    levels = tower(parse_cf("[0;%d,(%s)]" % (a1, ",".join(map(str, period)))), 7)
    level = draw(st.sampled_from(levels))
    return draw(st.sampled_from([level.f_plus, level.f_minus, level.f_zero]))


@settings(max_examples=60, deadline=None)
@given(admissible_levels(), st.data())
def test_letters_and_histogram_match_numpy_on_tower_words(w, data):
    cap = min(w.length, 10**5)
    n = data.draw(st.integers(0, cap))
    _check_prefix(w, n)
    edges = sorted(_node_boundaries(w, cap))
    for b in data.draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else ():
        for m in (b - 1, b, b + 1):
            if 0 <= m <= cap:
                _check_prefix(w, m)


@settings(max_examples=200, deadline=None)
@given(sign_words(), st.data())
def test_letters_and_histogram_match_numpy_on_any_word(w, data):
    _check_prefix(w, data.draw(st.integers(0, w.length)))
    _check_prefix(w, w.length)


def test_histogram_of_a_long_power_in_closed_form():
    # a total-0 base repeated 10^9 times: its histogram, times 10^9
    lo, counts = prefix_histogram(power(concat_all([PLUS, PLUS, MINUS, MINUS]), 10**9),
                                  4 * 10**9)
    assert (lo, counts.tolist()) == (0, [10**9, 2 * 10**9, 10**9])
    # (+ + -)^e climbs by 1 a copy: copy j writes j+1, j+2, j+1
    e = 10**6
    lo, counts = prefix_histogram(power(concat_all([PLUS, PLUS, MINUS]), e), 3 * e)
    assert lo == 1 and counts.tolist() == [2] + [3] * (e - 1) + [1]
    lo, counts = prefix_histogram(power(concat_all([MINUS, MINUS, PLUS]), e), 3 * e)
    assert lo == -(e + 1) and counts.tolist() == [1] + [3] * (e - 1) + [2]


def test_prefix_readers_check_their_length():
    w = power(PLUS, 5)
    for read in (letters, prefix_histogram):
        with pytest.raises(ValueError):
            read(w, 6)
        with pytest.raises(ValueError):
            read(w, -1)
    huge = power(PLUS, MAX_HISTOGRAM_LENGTH + 1)
    with pytest.raises(ValueError, match="int64"):
        prefix_histogram(huge, MAX_HISTOGRAM_LENGTH + 1)
    assert prefix_histogram(huge, 3)[1].tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# level times, against the visits of the expanded prefix sums


def _check_level_times(w, m, n):
    got = level_times(w, m, n)
    want = np.flatnonzero(np.cumsum(letters(w, n), dtype=np.int64) == m) + 1
    assert got.dtype == np.int64 and np.array_equal(got, want), (m, n)


@st.composite
def power_words(draw):
    """Concatenations of long powers whose bases total +-1 or +-3."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        total = draw(st.sampled_from([1, -1, 3, -3]))
        pairs = draw(st.integers(0, 3))
        signs = draw(st.permutations([1, -1] * pairs + [1 if total > 0 else -1] * abs(total)))
        base = concat_all(atom(s) for s in signs)
        if draw(st.booleans()):  # a power inside the base, and one more letter
            base = concat(power(base, draw(st.integers(2, 50))),
                          draw(st.sampled_from([PLUS, MINUS])))
        parts.append(power(base, draw(st.integers(1, 3 * 2**16 // base.length))))
        parts.append(draw(st.sampled_from([PLUS, MINUS, EMPTY])))
    return concat_all(parts)


@settings(max_examples=60, deadline=None)
@given(power_words(), st.data())
def test_level_times_match_numpy_on_long_powers(w, data):
    chunk = words._SUM_CHUNK
    edges = [n for n in (0, 1, chunk - 1, chunk, chunk + 1, 2**16, w.length) if n <= w.length]
    for n in edges + [data.draw(st.integers(0, w.length))]:  # a partial last copy, often
        lo, counts = prefix_histogram(w, n)
        hi = lo + counts.size - 1
        for m in {lo - 1, hi + 1, 0, data.draw(st.integers(lo, max(lo, hi)))}:
            _check_level_times(w, m, n)
    assert level_times(w, w.max_prefix + 1, w.length).size == 0
    assert level_times(w, w.min_prefix - 10**20, w.length).size == 0


@settings(max_examples=200, deadline=None)
@given(sign_words(), st.data())
def test_level_times_descend_any_word(w, data):
    # nodes of more than 4 letters are descended, not expanded, powers of
    # total 0 among them
    n = data.draw(st.integers(0, w.length))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(words, "_SUM_CHUNK", 4)
        for m in range(-3, 4):
            _check_level_times(w, m, n)


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;7,(8,10)]", "[0;15,(20)]"])
def test_level_times_of_half_word_at_every_level(alpha):
    n = 10**6
    w = half_word(parse_cf(alpha), n)
    sums = np.cumsum(letters(w, n), dtype=np.int64)
    lo, counts = prefix_histogram(w, n)
    for m in range(lo - 1, lo + counts.size + 1):
        got = level_times(w, m, n)
        assert np.array_equal(got, np.flatnonzero(sums == m) + 1), m
        assert got.size == (counts[m - lo] if lo <= m < lo + counts.size else 0)


def test_level_times_with_one_summed_node_kept(monkeypatch):
    # the sums of whole short nodes are dropped each time a second is kept
    monkeypatch.setattr(words, "_SUMMED_NODES", 1)
    n = 10**6
    w = half_word(parse_cf("[0;5,(6)]"), n)
    lo, counts = prefix_histogram(w, n)
    for m in range(lo, lo + counts.size):
        _check_level_times(w, m, n)


def test_level_times_descend_powers_of_total_0():
    # after the first letter, the power's range [0, 1] holds m + 1 for m in
    # (-1, 0): every copy is entered, and none for m outside
    w = concat(MINUS, power(concat(PLUS, MINUS), 2**17))
    lo, counts = prefix_histogram(w, w.length)
    assert (lo, counts.tolist()) == (-1, [2**17 + 1, 2**17])
    assert level_times(w, -1, w.length).tolist() == list(range(1, w.length + 1, 2))
    assert level_times(w, 0, w.length).tolist() == list(range(2, w.length + 1, 2))
    assert level_times(w, 1, w.length).size == level_times(w, -2, w.length).size == 0
    assert level_times(w, -1, 2**16).tolist() == list(range(1, 2**16, 2))
    # Euclid's words on alphas without a tower hold such powers, (w wbar)^q
    N = 2 * 10**5
    for alpha in ("[0;(2)]", "[0;(1)]"):
        a = parse_cf(alpha).value
        for step in (a, -a):
            w = sign_word(step, HALF, N)
            sums = orbit_scan(HALF, step, N, policy="exact").sums
            for m in range(-6, 4):
                assert np.array_equal(level_times(w, m, N),
                                      np.flatnonzero(sums[1:] == m) + 1), (alpha, m)
    assert _has_power_of_total_0(sign_word(parse_cf("[0;(2)]").value, HALF, N))


def _has_power_of_total_0(w) -> bool:
    todo, seen = [w], set()
    while todo:
        node = todo.pop()
        if node.uid in seen:
            continue
        seen.add(node.uid)
        if node.kind == "power" and node.base.total == 0:
            return True
        todo.extend(c for c in (node.left, node.right, node.base) if c is not None)
    return False


def test_level_times_refuse_a_count_over_budget(monkeypatch):
    w = power(concat(PLUS, MINUS), 2**40)  # level 1 is visited 2^40 times
    with pytest.raises(ValueError, match="budget"):
        level_times(w, 1, w.length)
    assert level_times(w, 2, w.length).size == 0
    monkeypatch.setattr(words, "MAX_LEVEL_TIMES", 5)
    assert level_times(w, 1, 10).tolist() == [1, 3, 5, 7, 9]
    with pytest.raises(ValueError, match="budget of 5 visits"):
        level_times(w, 1, 11)
