"""Sign words as hash-consed DAGs with O(1) composition of prefix stats.

A sign word is a finite sequence over {+1, -1}.  The substitution rules
of the renormalization tower build words whose expanded length grows
geometrically with the level, so words are kept as DAGs: atoms, binary
concatenations, and powers, with shared subterms.  Every node carries
four numbers that compose without expansion:

    length      number of letters
    total       sum of all letters
    max_prefix  max over NONEMPTY prefixes of the prefix sum
    min_prefix  min over nonempty prefixes

The composition laws are the usual monoid of (sum, running-extrema)
summaries:

    concat(A, B):  total = tA + tB
                   max_prefix = max(maxA, tA + maxB)
    power(A, n):   total = n * tA
                   max_prefix = maxA + max(0, (n - 1) * tA)

(min is the mirror image).  Nodes are interned, so structurally equal
*live* words are the same object and the memoized stats are shared.
Each of ``atom``, ``empty``, ``concat`` and ``power`` forms its node's
key from its kind and its parts' uids, looks it up, and on a miss
composes the stats above from its parts and hands them to ``_node``,
the one constructor of every kind: it stores the slots, takes a fresh
uid and enters the node in the table.  The intern table holds its nodes
weakly: a node lives as long as some word or caller holds it, and a
word dropped by everyone is freed with its memoized histogram.  All
counters are Python ints: a depth-40 tower has word lengths around
10^28 and that must not overflow.

Three more readers work by descent, at a cost that grows with the
depth of the DAG and not with the prefix length: ``letters`` writes a
prefix as an int8 array by block copies, with the one fill that
``expand`` runs into a list, ``prefix_histogram`` counts how often each
value occurs among the prefix sums, and ``level_times`` lists the times
at which the prefix sum equals one value.  The second memoizes each
node's histogram, which composes like the stats above: a concat shifts
the right histogram by the left total, and a power adds copies shifted
by multiples of the base total.  The third is sized by the second and
skips every node whose prefix range misses its level.
These three import numpy when called and hand it to their private
helpers; building words and reading their stats needs no numpy.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SignWord",
    "atom",
    "empty",
    "concat",
    "concat_all",
    "power",
    "expand",
    "letters",
    "prefix_sum_at",
    "prefix_histogram",
    "level_times",
    "MAX_HISTOGRAM_LENGTH",
    "MAX_LEVEL_TIMES",
    "to_sexpr",
    "PLUS",
    "MINUS",
    "EMPTY",
]

_ATOM, _EMPTY, _CONCAT, _POWER = "atom", "empty", "concat", "power"

# key -> weakref.ref of the node.  Structurally equal *live* words are the
# same object.  A uid comes from a counter and is never reused, so a key
# naming a dead node's uid can never match a node built later.  Dead
# entries are swept out once the table has doubled since the last sweep,
# which costs O(1) per new node amortized.
_interned: dict = {}
_next_uid = 0
_SWEEP_MIN = 4096
_sweep_at = _SWEEP_MIN


class SignWord:
    """One DAG node.  Construct only via atom/empty/concat/power."""

    __slots__ = (
        "kind",
        "sign",
        "left",
        "right",
        "base",
        "exp",
        "length",
        "total",
        "_maxp",
        "_minp",
        "_hist",
        "uid",
        "__weakref__",
    )

    @property
    def max_prefix(self) -> int:
        if self._maxp is None:
            raise ValueError("max_prefix is undefined for the empty word")
        return self._maxp

    @property
    def min_prefix(self) -> int:
        if self._minp is None:
            raise ValueError("min_prefix is undefined for the empty word")
        return self._minp

    def __repr__(self):
        # to_sexpr writes a shared subword once per occurrence (a tower
        # word's text grows ~4x a level), so only a short word is spelled out
        spelled = to_sexpr(self) if self.length <= 64 else "uid=%d %s" % (self.uid, self.kind)
        return "SignWord[%s len=%d total=%d]" % (spelled, self.length, self.total)


_new_word = SignWord.__new__


def _node(key, kind, sign, left, right, base, exp, length, total, maxp, minp) -> SignWord:
    """A new node under key, which the caller found in no live entry of the
    intern table, with the stats the caller composed from its parts."""
    global _interned, _next_uid, _sweep_at
    node = _new_word(SignWord)
    node.kind = kind
    node.sign = sign
    node.left = left
    node.right = right
    node.base = base
    node.exp = exp
    node.length = length
    node.total = total
    node._maxp = maxp
    node._minp = minp
    node._hist = None  # (lo, counts), filled by _histogram
    node.uid = _next_uid
    _next_uid += 1
    _interned[key] = weakref.ref(node)
    if len(_interned) > _sweep_at:
        _interned = {k: r for k, r in _interned.items() if r() is not None}
        _sweep_at = max(_SWEEP_MIN, 2 * len(_interned))
    return node


def _live(key) -> SignWord | None:
    """The live node interned under key, or None.  A node is always true,
    so ``_live(key) or _node(key, ...)`` builds only on a miss."""
    ref = _interned.get(key)
    return None if ref is None else ref()


def atom(sign: int) -> SignWord:
    """The one-letter word (+1) or (-1)."""
    if sign not in (1, -1):
        raise ValueError("atom sign must be +1 or -1, got %r" % (sign,))
    key = (_ATOM, sign)
    return _live(key) or _node(key, _ATOM, sign, None, None, None, 0, 1, sign, sign, sign)


def empty() -> SignWord:
    key = (_EMPTY,)
    return _live(key) or _node(key, _EMPTY, 0, None, None, None, 0, 0, 0, None, None)


def concat(a: SignWord, b: SignWord) -> SignWord:
    """The word a followed by b."""
    if not a.length:
        return b
    if not b.length:
        return a
    key = (_CONCAT, a.uid, b.uid)
    total = a.total
    maxp, minp = total + b._maxp, total + b._minp
    return _live(key) or _node(
        key, _CONCAT, 0, a, b, None, 0, a.length + b.length, total + b.total,
        a._maxp if a._maxp > maxp else maxp, a._minp if a._minp < minp else minp)


def concat_all(parts: Iterable[SignWord]) -> SignWord:
    """The parts one after another, folded left; no part gives the empty word."""
    parts = iter(parts)
    out = next(parts, EMPTY)
    for part in parts:
        out = concat(out, part)
    return out


def power(base: SignWord, exp: int) -> SignWord:
    """The word repeated exp times, exp >= 1 (use empty() for nothing)."""
    if exp < 1:
        raise ValueError("power exponent must be >= 1, got %r" % (exp,))
    if exp == 1 or not base.length:
        return base
    if base.kind == _POWER:
        base, exp = base.base, exp * base.exp
    key = (_POWER, base.uid, exp)
    total = base.total
    tail = (exp - 1) * total
    return _live(key) or _node(
        key, _POWER, 0, None, None, base, exp, exp * base.length, exp * total,
        base._maxp + tail if tail > 0 else base._maxp,
        base._minp + tail if tail < 0 else base._minp)


PLUS = atom(1)
MINUS = atom(-1)
EMPTY = empty()


def intern_size() -> int:
    """Number of live interned nodes (for dedup tests)."""
    return sum(r() is not None for r in _interned.values())


def prefix_sum_at(w: SignWord, k: int) -> int:
    """Sum of the first k letters, 0 <= k <= length; k = 0 gives 0.

    Descends the DAG, so the cost is the depth, not k.
    """
    if not (0 <= k <= w.length):
        raise ValueError("prefix length %d outside [0, %d]" % (k, w.length))
    acc = 0
    # a node's fields tell its kind: a concat has a left, a power a base,
    # an atom neither, and the empty word has no letter for k to reach
    while k > 0:
        left = w.left
        if left is not None:  # concat
            if k <= left.length:
                w = left
            else:
                acc += left.total
                k -= left.length
                w = w.right
        elif (base := w.base) is not None:  # power
            copies, k = divmod(k, base.length)
            acc += copies * base.total
            if k == 0:
                return acc
            w = base
        else:  # atom
            return acc + w.sign
    return acc


def _spell(w: SignWord, n: int, out):
    """Write the first n letters of w into out[:n] and return out.

    out is any preallocated buffer that takes slice assignment: an int8
    array or a list.  The fill runs left to right.  A node met again is
    copied from its first copy, complete by then, as a DAG node never
    contains itself; a power writes its base once and doubles that copy
    until its letters are written, a partial last copy included.  So
    each DAG node is spelled out once, and nothing beyond the output is
    allocated but a table of node offsets.  Only the nodes on the path
    to letter n are cut short, and nothing is written after them.
    """
    todo = [w]  # nodes to write, and tiles (start, end): double out[start:at]
    pop, push = todo.pop, todo.append
    written = {}  # uid -> offset of the node's first copy in out
    at = 0  # the next letter of out to write
    while at < n:
        node = pop()
        if type(node) is tuple:
            start, end = node
            if end > n:
                end = n
            size = at - start
            while at + size < end:
                out[at:at + size] = out[start:at]
                at += size
                size += size
            out[at:end] = out[start:start + end - at]
            at = end
            continue
        kind = node.kind
        if kind == _ATOM:
            out[at] = node.sign
            at += 1
            continue
        src = written.get(node.uid)
        if src is not None:
            size = node.length
            if size > n - at:
                size = n - at
            out[at:at + size] = out[src:src + size]
            at += size
            continue
        written[node.uid] = at
        if kind == _POWER:
            push((at, at + node.length))
            push(node.base)
        else:
            push(node.right)
            push(node.left)
    return out


def letters(w: SignWord, n: int) -> np.ndarray:
    """The first n letters, 0 <= n <= length, as an int8 array."""
    import numpy as np

    if not (0 <= n <= w.length):
        raise ValueError("prefix length %d outside [0, %d]" % (n, w.length))
    return _spell(w, n, np.empty(n, dtype=np.int8))


# Prefix-sum histograms are pairs (lo, counts): counts[j] is how many of
# the prefix sums s_1..s_k equal lo + j.  Counts are int64, so k, and
# every node whose histogram is built, stays below 2^63.
MAX_HISTOGRAM_LENGTH = 2 ** 63 - 1


def _add_shifted(np, parts) -> tuple:
    """The sum of histograms (lo, counts), each moved up by its shift."""
    parts = [(lo + shift, c) for shift, (lo, c) in parts if c.size]
    if not parts:
        return 0, np.zeros(0, dtype=np.int64)
    lo = min(p[0] for p in parts)
    hi = max(p[0] + p[1].size for p in parts)
    out = np.zeros(hi - lo, dtype=np.int64)
    for plo, c in parts:
        out[plo - lo:plo - lo + c.size] += c
    return lo, out


def _power_histogram(np, hist: tuple, total: int, exp: int) -> tuple:
    """The histogram of base^exp, from the base's histogram and total.

    Copy j adds the base histogram shifted by j*total.  Those shifts
    step by |total|, so each output count is a window sum of exp
    entries along one residue class mod |total|: a cumsum down the
    columns of a (rows, |total|) reshape, minus itself exp rows up.
    That is linear in the output's size, whatever exp is.
    """
    lo, counts = hist
    if total == 0:
        return lo, counts * exp
    step = abs(total)
    size = counts.size + (exp - 1) * step
    rows = -(-size // step)
    grid = np.zeros(rows * step, dtype=np.int64)
    grid[:counts.size] = counts
    run = grid.reshape(rows, step).cumsum(axis=0)
    run[exp:] -= run[:-exp].copy()
    return lo + min(0, (exp - 1) * total), run.ravel()[:size]


def _histogram(np, w: SignWord) -> tuple:
    """The histogram of all prefix sums of a nonempty w, memoized on every
    node; ``concat`` and ``power`` build no node with an empty part."""
    todo = [w]
    while todo:
        node = todo[-1]
        if node._hist is not None:
            todo.pop()
            continue
        kind = node.kind
        if kind == _ATOM:
            node._hist = (node.sign, np.ones(1, dtype=np.int64))
        else:
            kids = [node.base] if kind == _POWER else [node.left, node.right]
            missing = [c for c in kids if c._hist is None]
            if missing:
                todo.extend(missing)
                continue
            if kind == _POWER:
                node._hist = _power_histogram(np, node.base._hist, node.base.total,
                                              node.exp)
            else:
                node._hist = _add_shifted(np, [(0, node.left._hist),
                                               (node.left.total, node.right._hist)])
        todo.pop()
    return w._hist


def prefix_histogram(w: SignWord, k: int) -> tuple:
    """(lo, counts) with counts[j] = #{1 <= i <= k : s_i = lo + j}.

    s_i is the sum of the first i letters; 0 <= k <= length, and k is at
    most MAX_HISTOGRAM_LENGTH, because the counts are int64.  Letters
    are +-1, so the sums take every value from lo = min(s_1..s_k) to
    their max and no count is 0 (k = 0 gives (0, [])).  Descends the
    DAG like prefix_sum_at, adding the memoized histograms of the whole
    nodes it passes.
    """
    import numpy as np

    if not (0 <= k <= w.length):
        raise ValueError("prefix length %d outside [0, %d]" % (k, w.length))
    if k > MAX_HISTOGRAM_LENGTH:
        raise ValueError("prefix length %d is above the int64 limit 2^63 - 1" % (k,))
    parts = []  # (shift, histogram)
    acc = 0
    while k > 0:
        if k == w.length:
            parts.append((acc, _histogram(np, w)))
            break
        if w.kind == _POWER:
            base = w.base
            copies, k = divmod(k, base.length)
            if copies:
                parts.append((acc, _power_histogram(np, _histogram(np, base),
                                                    base.total, copies)))
                acc += copies * base.total
            w = base
        else:  # concat; an atom has length 1 and was taken whole above
            if k > w.left.length:
                parts.append((acc, _histogram(np, w.left)))
                acc += w.left.total
                k -= w.left.length
                w = w.right
            else:
                w = w.left
    return _add_shifted(np, parts)


# level_times answers at most this many visits.  A density run holds
# 16 B a visit (the time and the position computed at it) and keeps no
# sorted copy of the positions: tracemalloc reads a peak of 20.4 B a
# visit for density --N 5000000 --m 2, so the budget allows a peak
# near 5 GiB
MAX_LEVEL_TIMES = 2 ** 28
# a node prefix this short is expanded and summed instead of descended;
# the sums of up to _SUMMED_NODES whole such nodes (64 KiB each) are
# kept, for the other levels the same node is read at.  Against 2^16, a
# call on 60 of scan_long's (alpha, m) at N = 5*10^6 took a median
# 1.44 ms, not 1.79, faster on 45 (best of 5, in process, 2-core host),
# and m = 0 at N = 10^8 about as long on the README's alphas: a short
# node whose range misses the target is skipped, not expanded
_SUM_CHUNK = 1 << 14
_SUMMED_NODES = 16


def level_times(w: SignWord, m: int, n: int) -> np.ndarray:
    """The sorted int64 times i, 1 <= i <= n, at which s_i = m.

    Allocates the output once, sized by ``prefix_histogram(w, n)``, and
    refuses more than MAX_LEVEL_TIMES visits with ValueError.  Fills it
    left to right by descent, the target level moving down by each
    total it passes: a node whose [min_prefix, max_prefix] misses its
    target is skipped; a whole node already written at the same target
    is copied from there, shifted in time; a power descends only into
    the copies whose target lies in the base's range.  A node prefix of
    at most 2^14 letters is expanded and summed.  A power of total 0,
    as ``euclid.sign_word``'s words hold, has every copy in the range of
    its base, which the check above found to hold the target, so the
    descent enters every copy.
    """
    import numpy as np

    lo, counts = prefix_histogram(w, n)
    total = int(counts[m - lo]) if lo <= m < lo + counts.size else 0
    if total > MAX_LEVEL_TIMES:
        raise ValueError("level %d is reached %d times in %d steps, above the budget "
                         "of %d visits" % (m, total, n, MAX_LEVEL_TIMES))
    out = np.empty(total, dtype=np.int64)
    at = 0  # the next entry of out to write
    written = {}  # (uid, target) -> (entry, size, time) of a whole node
    summed = {}  # uid -> prefix sums of a whole node of at most 2^14 letters
    # (node, time, count, target, None) writes the times time + i, i <=
    # count, at which the node's prefix sum s_i equals target; for a whole
    # node, the same entry with the node's first output entry in place of
    # None runs once its parts are written, to note it in ``written``
    todo = [(w, 0, n, m, None)] if total else []
    while todo:
        node, time, count, target, first = todo.pop()
        if first is not None:
            written[node.uid, target] = (first, at - first, time)
            continue
        # s_1..s_count lie in the node's range and within count of 0
        if abs(target) > count or not node._minp <= target <= node._maxp:
            continue
        if count == node.length and (node.uid, target) in written:
            src, size, src_time = written[node.uid, target]
            np.add(out[src:src + size], time - src_time, out=out[at:at + size])
            at += size
            continue
        if count <= _SUM_CHUNK:
            sums = summed.get(node.uid) if count == node.length else None
            if sums is None:
                sums = np.cumsum(letters(node, count), dtype=np.int32)
                if count == node.length:
                    if len(summed) == _SUMMED_NODES:
                        summed.clear()
                    summed[node.uid] = sums
            hits = np.flatnonzero(sums == target)
            out[at:at + hits.size] = hits + (time + 1)
            if count == node.length:
                written[node.uid, target] = (at, hits.size, time)
            at += hits.size
            continue
        if count == node.length:
            todo.append((node, time, count, target, at))
        if node.kind == _CONCAT:
            left = node.left
            if count > left.length:
                todo.append((node.right, time + left.length, count - left.length,
                             target - left.total, None))
            todo.append((left, time, min(count, left.length), target, None))
        else:  # a power: copy j aims at target - j*step, within the base's range
            base, step = node.base, node.base.total
            copies, rem = divmod(count, base.length)
            # of total 0, every copy's range is the base's, which holds target
            j_lo, j_hi = 0, copies if rem else copies - 1
            if step:  # j*step within [target - max_prefix, target - min_prefix]
                a, b = target - base._maxp, target - base._minp
                if step < 0:
                    a, b = b, a
                j_lo, j_hi = max(0, -(-a // step)), min(j_hi, b // step)
            for j in range(j_hi, j_lo - 1, -1):
                todo.append((base, time + j * base.length,
                             rem if j == copies else base.length, target - j * step,
                             None))
    assert at == total
    return out


def iter_letters(w: SignWord) -> Iterator[int]:
    """Yield the letters left to right without materializing the word."""
    stack = [(w, 1)]
    while stack:
        node, reps = stack.pop()
        kind = node.kind
        if kind == _ATOM:
            for _ in range(reps):
                yield node.sign
        elif kind == _EMPTY:
            continue
        elif kind == _POWER:
            stack.append((node.base, reps * node.exp))
        else:
            if reps > 1:
                # unroll one level: (AB)^r = AB AB ... AB
                stack.append((node, reps - 1))
            stack.append((node.right, 1))
            stack.append((node.left, 1))


def expand(w: SignWord, cap: int = 10**7) -> list[int]:
    """Materialize the word as a list of +-1, refusing lengths above cap.

    The list is filled by ``_spell``, as ``letters`` fills its array;
    plain lists keep it free of numpy.
    """
    if w.length > cap:
        raise ValueError(
            "expansion of length %d exceeds cap %d" % (w.length, cap)
        )
    return _spell(w, w.length, [0] * w.length)


def to_sexpr(w: SignWord) -> str:
    """Debug form: atoms as +/-, powers as (w^n), concats flattened."""
    kind = w.kind
    if kind == _ATOM:
        return "+" if w.sign > 0 else "-"
    if kind == _EMPTY:
        return "()"
    if kind == _POWER:
        return "(%s^%d)" % (to_sexpr(w.base), w.exp)
    parts = []
    stack = [w]
    while stack:
        node = stack.pop()
        if node.kind == _CONCAT:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(to_sexpr(node))
    return "(" + " ".join(parts) + ")"
