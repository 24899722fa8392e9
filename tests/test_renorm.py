"""The interval tower: substitution words, stats inequalities, oracles."""

import itertools
import random
import time
import weakref

import pytest

from rotn import renorm
from rotn.euclid import sign_word
from rotn.exactreal import ONE, ZERO, CFNumber, SurdReal, alpha_next, gauss_step, parse_cf
from rotn.renorm import (
    ExactInterval,
    RenormLevel,
    _case_regions,
    _local_return_word,
    admissible,
    base_level,
    fast_birkhoff,
    half_word,
    oracle_first_return,
    step,
    tower,
    verify_bounds,
    verify_chains,
)
from rotn.scan import orbit_scan
from rotn import words
from rotn.words import (EMPTY, MINUS, PLUS, concat, concat_all, expand, intern_size,
                        iter_letters, power, prefix_sum_at)

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
    cf = parse_cf(bad)
    assert not admissible(cf)
    for refuse in (lambda: tower(cf, 3), lambda: half_word(cf, 10)):
        with pytest.raises(ValueError, match=fragment.replace("(", "\\(")):
            refuse()
    assert _record(cf).levels == _record(cf).minus == []  # the refused record holds no level


@pytest.mark.parametrize("good", ["[0;5,(6)]", "[0;7,(8,10)]", "[0;9,6,(12)]",
                                  "[0;5,8,(6)]"])
def test_admissible_alphas_build_towers(good):
    assert admissible(parse_cf(good))
    assert len(tower(parse_cf(good), 4)) == 4


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


def _record(cf: CFNumber):
    """cf's record in the tower cache."""
    return renorm._towers((cf.preperiod, cf.period))


def test_tower_depth_validation():
    with pytest.raises(ValueError):
        tower(ALPHA, 0)


def test_the_tower_refuses_more_levels_than_its_budget():
    assert renorm.MAX_LEVELS == 1001
    calls = renorm._towers.cache_info()
    with pytest.raises(ValueError,
                       match="depth 1002 is above the limit of 1001 tower levels"):
        tower(parse_cf("[0;5,(6,8)]"), renorm.MAX_LEVELS + 1)
    assert renorm._towers.cache_info() == calls  # refused before building


def test_a_prefix_past_the_level_budget_is_refused_before_building_and_one_within_answered():
    cf = parse_cf("[0;5,(8)]")
    word = half_word(cf, 10 ** 300)
    levels = _record(cf).levels
    built = len(levels)
    assert word.length >= 10 ** 300 and built < renorm.MAX_LEVELS
    assert fast_birkhoff(cf, word.length) == -1  # the total of F_minus
    assert word.min_prefix <= fast_birkhoff(cf, 10 ** 300) <= word.max_prefix
    for n, bits in ((10 ** 3000, 9966), (10 ** 30000, 99658)):
        with pytest.raises(ValueError, match="n of %d bits needs more than the limit "
                                             "of 1001 tower levels" % bits):
            fast_birkhoff(cf, n)
        assert len(levels) == built
    # Euclid's word of another start never reads the tower
    assert sign_word(cf.value, ((1 + cf.value) / 3).frac(), 10 ** 300).length == 10 ** 300
    assert len(levels) == built


# 10^3000 is past the bound of two of these alphas; [0;5,(1000)]'s reaches it
@pytest.mark.parametrize("alpha, digits, bits", [("[0;21,(30,28,26)]", 3000, 9966),
                                                ("[0;5,(1000)]", 30000, 99658),
                                                ("[0;7,10,(8,12)]", 3000, 9966)])
def test_a_prefix_beyond_reach_is_refused_at_once_without_a_level(alpha, digits, bits):
    cf, n = parse_cf(alpha), 10 ** digits
    levels = _record(cf).levels
    before = len(levels)
    start = time.thread_time()
    for refuse in (lambda: half_word(cf, n), lambda: fast_birkhoff(cf, n)):
        with pytest.raises(ValueError, match="n of %d bits needs more than the limit "
                                             "of 1001 tower levels" % bits):
            refuse()
    assert time.thread_time() - start < 0.01
    assert len(levels) == before
    fast_birkhoff(cf, 10 ** 300)  # answers
    assert half_word(cf, 10 ** 300).length >= 10 ** 300


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;21,(30,28,26)]", "[0;7,10,(8,12)]"])
def test_reach_bounds_every_levels_words_and_the_prefixes_answered(alpha):
    # the bound's steps: L_i <= U_i = prod_(k<i) (b_k + 2), b_k the leading
    # coefficient of level k's beta_cf, which reads a_1, then a_k - 1
    cf = parse_cf(alpha)
    U = 1
    for i, level in enumerate(tower(cf, 30), start=1):
        b = level.beta_cf.coefficient(1)
        assert b == (cf.coefficient(1) if i == 1 else cf.coefficient(i) - 1)
        assert max(level.f_plus.length, level.f_minus.length, level.f_zero.length) <= U
        U *= b + 2
        assert level.f_minus.length <= _record(cf).reach(cf)
    reach = _record(cf).reach(cf)
    assert reach > 10 ** 300
    assert half_word(cf, 10 ** 300).length <= reach


@pytest.mark.parametrize("alpha", ["[0;5,(6)]", "[0;21,(30,28,26)]", "[0;7,10,(8,12)]",
                                   "[0;5,(1000)]"])
def test_the_length_recurrence_is_the_towers(alpha):
    cf = parse_cf(alpha)
    levels = tower(cf, 30)
    assert [(lv.f_plus.length, lv.f_minus.length, lv.f_zero.length) for lv in levels] \
        == list(itertools.islice(renorm._lengths(cf), 30))


def test_a_prefix_past_level_1001s_half_word_is_refused_before_building():
    # a bound on all word lengths (9,972 bits) once passed 10^3000 (9,966
    # bits) here, but level 1001's F_minus has 9,959: the refusal came after
    # all 1001 levels
    cf = parse_cf("[0;5,(1000)]")
    assert _record(cf).reach(cf).bit_length() == 9959
    levels = _record(cf).levels
    before = list(levels)
    start = time.thread_time()
    with pytest.raises(ValueError, match="n of 9966 bits needs more than the limit "
                                         "of 1001 tower levels"):
        fast_birkhoff(cf, 10 ** 3000)
    assert time.thread_time() - start < 0.05
    assert levels == before
    # and it is the exact bound: that prefix is answered by level 1001
    reach = _record(cf).reach(cf)
    assert half_word(cf, reach).length == reach and len(levels) == renorm.MAX_LEVELS
    with pytest.raises(ValueError, match="needs more than the limit of 1001 tower levels"):
        half_word(cf, reach + 1)


def test_the_deepest_run_the_config_admits_fits_the_budget():
    from rotn.example import example_alpha, example_m_formulas
    from rotn.harness import ExperimentConfig, run

    # example --kmax 500 builds 2*500 + 1 levels, exactly the budget
    assert ExperimentConfig(kind="example", m=2, k_max=500).k_max == 500
    assert example_m_formulas(2, 500).ok
    assert len(_record(example_alpha(2)).levels) == renorm.MAX_LEVELS
    report = run(ExperimentConfig(kind="tower", alpha="[0;5,(6)]", depth=1000))
    assert report["ok"] and len(report["levels"]) == 1000
    with pytest.raises(ValueError, match="depth 1001 is above the limit of 1000"):
        ExperimentConfig(kind="tower", depth=1001)


def test_tower_is_cached_prefixwise():
    t5 = tower(ALPHA, 5)
    t8 = tower(ALPHA, 8)
    assert all(a is b for a, b in zip(t5, t8[:5]))


# ---------------------------------------------------------------------------
# step's beta memo against the step that redid its arithmetic at every level


def _reference_step(level: RenormLevel, n: int) -> tuple[RenormLevel, int]:
    """One renormalization with the exponent n of ``level``: I_(i+1) inside
    I_i, the rewritten words, and the next level's exponent (b - 1)/2."""
    beta_abs = level.beta if level.beta.sign() > 0 else -level.beta
    g = gauss_step(beta_abs)
    scale = beta_abs * (ONE - g)
    new_len = scale * level.interval.length
    half_len = new_len / 2
    interval = ExactInterval(HALF - half_len, HALF + half_len)
    if not (new_len <= beta_abs * level.interval.length):
        raise AssertionError("contraction failed at level %d" % (level.index,))

    new_beta_abs = g / (ONE - g)
    new_cf = alpha_next(level.beta_cf)
    if new_cf.value != new_beta_abs:
        raise AssertionError(
            "coefficient surgery and Gauss map disagree at level %d" % (level.index,)
        )
    b = new_cf.coefficient(1)
    if b % 2 == 0 or b < 5:
        raise ValueError(
            "next level needs an odd leading coefficient >= 5, got %d" % (b,)
        )

    fp, fm, f0 = level.f_plus, level.f_minus, level.f_zero
    if level.beta.sign() > 0:
        new_plus = concat_all([fp, power(fm, n), f0, power(fp, n)])
        new_minus = concat_all([power(fm, n + 1), f0, power(fp, n)])
        new_zero = concat_all([fp, power(fm, n + 1), f0, power(fp, n)])
        new_beta = -new_beta_abs
    else:
        new_plus = concat_all([power(fp, n + 1), f0, power(fm, n)])
        new_minus = concat_all([fm, power(fp, n), f0, power(fm, n)])
        new_zero = concat_all([fm, power(fp, n + 1), f0, power(fm, n)])
        new_beta = new_beta_abs

    return RenormLevel(
        index=level.index + 1,
        interval=interval,
        beta=new_beta,
        beta_cf=new_cf,
        f_plus=new_plus,
        f_minus=new_minus,
        f_zero=new_zero,
        base_alpha=level.base_alpha,
    ), (b - 1) // 2


def _seeded_alpha(rng: random.Random) -> CFNumber:
    """[0;a1,c...,(c...)]: a1 odd >= 5, a preperiod and a period of 1-3 terms."""
    pre = [rng.randrange(5, 22, 2)] + [rng.randrange(6, 31, 2) for _ in range(rng.randint(0, 2))]
    period = [rng.randrange(6, 31, 2) for _ in range(rng.randint(1, 3))]
    return CFNumber(pre, period)


@pytest.fixture
def cleared_memo():
    renorm._beta_step.cache_clear()
    yield
    renorm._beta_step.cache_clear()


def test_memoized_tower_equals_the_reference_field_by_field(cleared_memo):
    rng = random.Random(1414)
    alphas = {_seeded_alpha(rng) for _ in range(24)}
    assert len(alphas) >= 20
    assert {len(a.period) for a in alphas} == {1, 2, 3}
    assert {len(a.preperiod) for a in alphas} >= {2, 3}
    for cf in sorted(alphas, key=str):
        levels = tower(cf, 60)
        ref, n = base_level(cf), (cf.coefficient(1) - 1) // 2
        for lvl in levels:
            assert lvl.index == ref.index
            # compared as a list of names, so a mismatch of long strings
            # fails without pytest diffing them
            exact = [(lvl.interval.left, ref.interval.left),
                     (lvl.interval.right, ref.interval.right),
                     (lvl.interval.length, ref.interval.length), (lvl.beta, ref.beta)]
            differ = [i for i, (a, b) in enumerate(exact) if a.exact_str() != b.exact_str()]
            assert not differ, (str(cf), lvl.index, differ)
            assert lvl.beta_cf == ref.beta_cf and lvl.n_half == n
            # words are interned, so equal words are one node
            assert lvl.f_plus is ref.f_plus
            assert lvl.f_minus is ref.f_minus
            assert lvl.f_zero is ref.f_zero
            assert lvl.base_alpha == ref.base_alpha
            assert lvl == ref
            if lvl.index < 60:
                ref, n = _reference_step(ref, n)
    # a tail recurs once a period, so the memo saw far fewer tails than levels
    assert renorm._beta_step.cache_info().hits > 50 * len(alphas)


def test_a_wrong_successor_fails_the_consistency_check(cleared_memo, monkeypatch):
    cf = parse_cf("[0;7,(8)]")
    assert alpha_next(cf) == cf
    wrong = parse_cf("[0;7,(10)]")  # a valid leading coefficient, another value
    monkeypatch.setattr(renorm, "alpha_next", lambda c: wrong)
    for _ in range(2):  # a failed check is not memoized
        with pytest.raises(AssertionError, match="disagree"):
            step(base_level(cf))


def test_an_inadmissible_successor_is_refused(cleared_memo):
    # [0;5,7,6,7,...] passes to [0;6,6,7,...], whose leading 6 is even;
    # base_level refuses such an alpha, so the level is built by hand
    cf = parse_cf("[0;5,(7,6)]")
    level = RenormLevel(index=1, interval=ExactInterval(ZERO, ONE), beta=cf.value,
                        beta_cf=cf, f_plus=PLUS, f_minus=MINUS,
                        f_zero=EMPTY, base_alpha=cf.value)
    for _ in range(2):
        with pytest.raises(ValueError, match="odd leading coefficient"):
            step(level)


def test_a_level_whose_beta_is_not_its_cf_value_is_refused():
    cf = parse_cf("[0;7,(8)]")
    with pytest.raises(ValueError, match="not the value"):
        RenormLevel(index=1, interval=ExactInterval(ZERO, ONE), beta=ALPHA.value,
                    beta_cf=cf, f_plus=PLUS, f_minus=MINUS,
                    f_zero=EMPTY, base_alpha=ALPHA.value)


def test_the_memo_stays_within_its_bound(cleared_memo):
    bound = renorm._beta_step.cache_info().maxsize
    assert bound is not None
    alphas = [CFNumber((a1,), (c1, c2)) for a1 in range(5, 22, 2)
              for c1 in range(6, 31, 2) for c2 in range(6, 31, 2)]
    assert len(alphas) > bound
    for cf in alphas[: bound + 50]:
        step(base_level(cf))  # keyed by cf itself, a new tail each time
    info = renorm._beta_step.cache_info()
    assert info.misses == bound + 50
    assert info.currsize == bound


def test_interval_length_is_stored_and_outside_equality():
    a = ExactInterval(ZERO, ONE)
    assert a.length == ONE
    half = SurdReal.root(10) - 3
    b = ExactInterval(HALF - half / 2, HALF + half / 2)
    assert b.length == half and b.length is b.length
    assert a == ExactInterval(ZERO, ONE) and hash(a) == hash(ExactInterval(ZERO, ONE))
    assert "length" not in repr(a)


@pytest.mark.parametrize("left, right, said", [
    (HALF, HALF, "empty interval"),
    (ONE, ZERO, "empty interval"),
    (HALF + SurdReal.root(2) / 4, HALF - SurdReal.root(2) / 4, "empty interval"),
    (ZERO, HALF, "not symmetric about 1/2"),
])
def test_interval_refuses_empty_and_lopsided_ends(left, right, said):
    with pytest.raises(ValueError, match=said):
        ExactInterval(left, right)


@pytest.mark.parametrize("literal", ["[0;5,(6)]", "[0;7,(8,10)]", "[0;21,6,(30,6,14)]"])
def test_the_centred_interval_equals_the_public_one_field_by_field(literal):
    lengths = [lvl.interval.length for lvl in tower(parse_cf(literal), 12)]
    lengths += [ONE, SurdReal(1, 0, 3), SurdReal.root(2) / 3, SurdReal(1, 1, 5, 5)]
    for length in lengths:
        h = length / 2
        want = ExactInterval(HALF - h, HALF + h)
        got = ExactInterval._centred(length)
        for name in ("left", "right", "length"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.p, a.q, a.r, a.d) == (b.p, b.q, b.r, b.d), (literal, name)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)


def test_both_interval_constructors_refuse_empty_and_lopsided_intervals(monkeypatch):
    for length in (ZERO, -ONE, 3 - SurdReal.root(10)):
        with pytest.raises(ValueError, match="empty interval"):
            ExactInterval._centred(length)
    root = SurdReal.root(10)
    with pytest.raises(ValueError, match="empty interval"):
        ExactInterval(HALF + root / 9, HALF - root / 9)
    with pytest.raises(ValueError, match="not symmetric about 1/2"):
        ExactInterval(root - 3, HALF + root / 9)
    # the symmetry test runs on the endpoints _centred builds
    monkeypatch.setattr(renorm, "ONE", SurdReal(2))
    with pytest.raises(ValueError, match="not symmetric about 1/2"):
        ExactInterval._centred(HALF)


# ---------------------------------------------------------------------------
# the bounded tower cache and the weak intern table

# 500 distinct admissible alphas [0;a,(b,c)]: a odd in 5..13, b and c even in
# 6..24.  None has a1 = 21, so none is _KEPT
_FRESH = ["[0;%d,(%d,%d)]" % (a, b, c) for a in range(5, 15, 2)
          for b in range(6, 26, 2) for c in range(6, 26, 2)]
_KEPT = "[0;21,(26,30)]"
# a step makes at most 11 nodes: the three words' 8 concats and 3 new powers
_NODES_PER_LEVEL = 11


def _evict(alpha: CFNumber) -> None:
    """Build as many fresh depth-1 towers of other alphas as the cache
    holds.  Past that many other alphas, alpha's tower is the least
    recently used, so it is dropped."""
    maxsize = renorm._towers.cache_info().maxsize
    others = [cf for cf in map(parse_cf, _FRESH[:maxsize + 1]) if cf != alpha]
    for cf in others[:maxsize]:
        tower(cf, 1)


def _dag(w) -> list:
    """w's DAG as text, one line a node in post-order: equal text, equal words."""
    index, lines, todo = {}, [], [w]
    while todo:
        node = todo[-1]
        if node.uid in index:
            todo.pop()
            continue
        kids = ([node.base] if node.kind == "power"
                else [node.left, node.right] if node.kind == "concat" else [])
        missing = [k for k in kids if k.uid not in index]
        if missing:
            todo.extend(reversed(missing))
            continue
        todo.pop()
        index[node.uid] = len(lines)
        lines.append("%s %d %d %s" % (node.kind, node.sign, node.exp,
                                      " ".join(str(index[k.uid]) for k in kids)))
    return lines


def _snapshot(levels) -> list:
    """Every field of every level, as exact strings."""
    return [(lvl.index, lvl.interval.left.exact_str(), lvl.interval.right.exact_str(),
             lvl.beta.exact_str(), str(lvl.beta_cf), lvl.n_half,
             lvl.base_alpha.exact_str(), _dag(lvl.f_plus), _dag(lvl.f_minus),
             _dag(lvl.f_zero)) for lvl in levels]


def test_500_fresh_towers_keep_both_caches_bounded():
    before = intern_size()
    maxsize = renorm._towers.cache_info().maxsize
    live_bound = before + maxsize * _NODES_PER_LEVEL * 40
    # the table also holds dead entries until its next sweep
    table_bound = max(words._SWEEP_MIN, 2 * live_bound) + 1
    # sizes are read into ints first: pytest's report of a failed assert
    # would print the words, and a deep word's text is exponentially long
    for i, literal in enumerate(_FRESH):
        tower(parse_cf(literal), 40)
        if i % 50 == 49:
            cached, live, table = (renorm._towers.cache_info().currsize,
                                   intern_size(), len(words._interned))
            assert cached <= maxsize, (i, cached)
            assert live <= live_bound, (i, live, live_bound)
            assert table <= table_bound, (i, table, table_bound)
    cached = renorm._towers.cache_info().currsize
    assert cached == maxsize == 32


def test_a_held_word_is_the_word_of_the_rebuilt_tower():
    alpha = parse_cf(_KEPT)
    kept = tower(alpha, 40)[-1].f_minus
    _evict(alpha)
    misses = renorm._towers.cache_info().misses
    rebuilt = tower(alpha, 40)
    assert renorm._towers.cache_info().misses == misses + 1  # not a hit
    # the word kept holds the words of every level below it, and the rebuilt
    # levels are made of those same live nodes
    same = rebuilt[-1].f_minus is kept and rebuilt[-2].f_plus is kept.right.base
    assert same


def test_a_rebuilt_tower_equals_the_dropped_one_field_by_field():
    alpha = parse_cf(_KEPT)
    _evict(alpha)
    levels = tower(alpha, 40)
    want = _snapshot(levels)
    dropped = weakref.ref(levels[-1].f_plus)
    del levels
    _evict(alpha)
    alive = dropped() is not None  # no table kept the evicted tower's words
    assert not alive
    got = _snapshot(tower(alpha, 40))
    differ = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(got) == len(want) == 40 and not differ, differ


# the README's tower alphas and five seeded fresh ones
_RECORD_ALPHAS = ["[0;5,(6)]", "[0;7,10,(8,12)]", "[0;21,(30,28,26)]"] + [
    str(_seeded_alpha(random.Random(4500 + i))) for i in range(5)]


@pytest.mark.parametrize("alpha", _RECORD_ALPHAS)
def test_fast_birkhoff_is_the_prefix_sum_of_euclids_word_at_half(alpha):
    # Euclid's word never reads the tower; n drawn as tower_queries draws them
    cf = parse_cf(alpha)
    word = sign_word(cf.value, HALF, 2 ** 63 - 1)
    rng = random.Random(alpha)
    ns = [max(1, int(10 ** rng.uniform(0, 15))) for _ in range(300)]
    assert [fast_birkhoff(cf, n) for n in ns] == [prefix_sum_at(word, n) for n in ns]


@pytest.mark.parametrize("alpha", _RECORD_ALPHAS)
def test_the_record_keeps_its_lengths_in_step_with_its_levels(alpha):
    cf = parse_cf(alpha)
    # a prefix one letter past level 19's F_minus needs level 20
    deep = next(itertools.islice(renorm._lengths(cf), 18, None))[1] + 1

    def grow_by_query():
        half_word(cf, deep)

    def in_step(depth):
        record = _record(cf)
        assert len(record.levels) == depth
        assert record.minus == [level.f_minus.length for level in record.levels]
        return record

    for order in ((lambda: tower(cf, 3), 3, grow_by_query, 20),
                  (grow_by_query, 20, lambda: tower(cf, 3), 20)):
        _evict(cf)
        misses = renorm._towers.cache_info().misses
        for grow, depth in zip(order[::2], order[1::2]):
            grow()
            record = in_step(depth)
        tower(cf, 40)
        assert in_step(40) is record
        assert renorm._towers.cache_info().misses == misses + 1  # one record throughout
    _evict(cf)
    tower(cf, 40)
    assert in_step(40) is not record  # rebuilt


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


def test_half_word_is_the_shallowest_long_enough_f_minus():
    cf = parse_cf("[0;7,(8,10)]")
    tower(cf, 9)  # a deeper cached tower must not change the answer
    lengths = [lvl.f_minus.length for lvl in tower(cf, 9)]
    for n in (0, 1, 2, lengths[2] - 1, lengths[2], lengths[2] + 1, lengths[8]):
        w = half_word(cf, n)
        assert w.length >= n
        assert w.length == min(x for x in lengths if x >= n)
    # past the cached levels the tower grows, and the words stay nested
    deep = half_word(cf, lengths[8] + 1)
    assert deep.length > lengths[8] and len(tower(cf, 10)) == 10
    sums = orbit_scan(HALF, cf.value, 5000, policy="exact").sums
    assert [prefix_sum_at(deep, n) for n in range(5001)] == sums.tolist()


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


def _landing(lvl, x):
    """The first-return map of lvl at x: rotation by beta in the local chart."""
    return lvl.interval.from_local((lvl.interval.to_local(x) + lvl.beta).frac())


def test_oracle_first_return_at_half():
    l2 = tower(ALPHA, 2)[1]
    rec = oracle_first_return(l2, HALF)
    assert rec.time == 5
    assert list(rec.word) == expand(l2.f_minus)
    assert rec.landing == _landing(l2, HALF)


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
            for _ in range(4):
                # an odd multiple of 2^-53 in (0, 1) puts y strictly inside
                y = lo + (hi - lo) * SurdReal(2 * rng.getrandbits(52) + 1, 0, 1 << 53)
                assert lo < y < hi
                x = lvl.interval.from_local(y)
                rec = oracle_first_return(lvl, x)
                assert list(iter_letters(_local_return_word(lvl, y))) == list(rec.word)
                assert rec.landing == _landing(lvl, x)


def test_predicted_word_refuses_case_boundary():
    l3 = tower(ALPHA, 3)[2]  # beta > 0 here
    with pytest.raises(ValueError, match="boundary"):
        _local_return_word(l3, SurdReal(1) - l3.beta)
    l2 = tower(ALPHA, 2)[1]  # beta < 0 here
    with pytest.raises(ValueError, match="boundary"):
        _local_return_word(l2, -l2.beta)
    # 0 and 1/2 are row ends too, and each opens its row
    assert _local_return_word(l3, ZERO) is l3.f_plus
    assert _local_return_word(l3, HALF) is l3.f_minus
    assert _local_return_word(l2, ZERO) is concat(l2.f_plus, l2.f_zero)
    assert _local_return_word(l2, HALF) is l2.f_minus


def test_the_case_table_spells_the_three_regions():
    l2, l3 = tower(ALPHA, 3)[1:]
    assert l2.beta.sign() < 0 < l3.beta.sign()
    gamma = -l2.beta
    assert _case_regions(l2) == [
        ("plus_zero", ZERO, gamma, concat(l2.f_plus, l2.f_zero)),
        ("plus", gamma, HALF, l2.f_plus),
        ("minus", HALF, ONE, l2.f_minus)]
    split = ONE - l3.beta
    assert _case_regions(l3) == [
        ("plus", ZERO, HALF, l3.f_plus),
        ("minus", HALF, split, l3.f_minus),
        ("minus_zero", split, ONE, concat(l3.f_minus, l3.f_zero))]


def test_oracle_refuses_outside_starts():
    l2 = tower(ALPHA, 2)[1]
    outside = SurdReal(1, 0, 10)
    with pytest.raises(ValueError):
        oracle_first_return(l2, outside)


def test_oracle_landings_stay_inside():
    # 50 first returns in a row, each from the last one's landing
    for lvl in tower(ALPHA, 3)[1:]:
        x = HALF
        for _ in range(50):
            x = oracle_first_return(lvl, x).landing
            assert lvl.interval.contains(x)


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


def test_prefixes_below_the_sure_bound_never_compute_the_reach(monkeypatch):
    # every admissible alpha's reach is past 3^1000, so a shorter prefix
    # skips the bound, which costs 1000 levels of length recurrence
    cf = parse_cf("[0;9,(14,20)]")
    assert _record(cf).reach(cf) > renorm._SURE
    assert min(_record(cf).reach(cf) for cf in map(parse_cf, ("[0;5,(6)]", "[0;5,(6,6,6)]"))) \
        >= 5 ** (renorm.MAX_LEVELS - 1) > renorm._SURE
    monkeypatch.setattr(renorm._Tower, "reach", lambda record, alpha: pytest.fail("reach computed"))
    assert fast_birkhoff(cf, 10 ** 18) == prefix_sum_at(half_word(cf, 10 ** 18), 10 ** 18)
    assert half_word(cf, renorm._SURE).length >= renorm._SURE
