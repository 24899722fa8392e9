"""Experiment runner: reproducible command-line runs over the library.

``run(config)`` is the one entry point.  Every experiment is a function
of its ``ExperimentConfig`` alone, found by the config's kind; it
returns a JSON-friendly report, plus a column-major table for the
CSV-shaped kinds (the column names and one sequence per column: the
scan's own arrays, a range of indices, or a short list), and ``run``
writes ``config.out`` in one place.  The exact kinds, ``tower`` and
``oracle``, are here; the kinds that read an orbit are in
``rotn.orbits``, which ``run`` imports for them alone, so that this
module and the exact kinds need no numpy.  Nor do they need ``ast``:
``parse_point`` imports it when a seed expression is parsed.  All
validation and normalization happens when the config is built, so the
config a caller holds is the config its output header records.

Output files are self-describing: a JSON header that round-trips the
full configuration (``config_from_header(read_header(path))`` equals
the config that wrote it), then the payload.  CSV-shaped outputs put
the header on a single leading comment line; report-shaped outputs are
one JSON document with the header inside.  Under the exact-only policy
identical configs give byte-identical payload bytes.

``write_columns`` writes a table _ROWS_PER_WRITE (2^13) rows at a time,
so the memory it holds does not grow with the row count, and
``write_csv``, a table given as rows, transposes each chunk of rows and
writes it the same way.  A chunk whose columns are all ranges, integer
or float arrays, or lists of ints or of floats, as heavy's and leaf's
are and density's ladder is when it holds no None, is spelled in numpy
by ``rotn.spell``, imported for such a chunk alone: one uint8 matrix of
cells, slots as wide as the chunk's cells need, kept for the table's
chunks, and one write, and each float cell comes from the shortest
digits that ``rotn.spell`` proves, or from ``float.__repr__`` where it
proves none.  Any other chunk is spelled row by row by ``_cell`` and
written in one write.  Both ways give ``_cell``'s bytes.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import random
from decimal import Decimal
from itertools import islice
from typing import Optional

from . import __version__
from .example import example_alpha
from .exactreal import FrozenRecord, SurdReal, parse_cf
from .renorm import (
    MAX_LEVELS,
    _case_regions,
    _local_return_word,
    oracle_first_return,
    tower,
    verify_bounds,
    verify_chains,
)
from .words import MAX_HISTOGRAM_LENGTH, expand

PRECISIONS = ("certified-fast", "exact-only")
# oracle walks: at ~0.3 us per exact step, 10^8 steps is about half a minute
_MAX_ORACLE_STEPS = 10 ** 8
# tower levels: example builds 2*k_max + 1 levels, so k_max up to
# _MAX_DEPTH // 2 keeps every run within renorm's budget of MAX_LEVELS
_MAX_DEPTH = MAX_LEVELS - 1
# a leaf's level moves by one a visit, and rotation Birkhoff sums grow
# like log N, so a seed level this far inside int64 cannot leave it
_MAX_LEVEL = 2 ** 62
# leaf seeds: a**100000 already takes 0.2 s to parse.  Every value a
# seed expression builds has at most ~4000 digits, so each step costs
# little and the seed prints under Python's 4300-digit int-to-str limit
_MAX_EXPONENT = 10 ** 4
_MAX_POINT_BITS = 13300
# CSV rows formatted per write: a chunk's cells and text take about 1.5 MB
# at three columns, so a 10^9-row table never holds a whole column
_ROWS_PER_WRITE = 1 << 13


class ExperimentConfig(FrozenRecord):
    """Everything needed to reproduce one run.

    The alpha literal and the leaf seed stay in their surface syntax so
    a written header parses back to an equal config.  Building a config
    checks it and normalizes its derived fields: alpha to its canonical
    literal (for ``example``, the family member ``m`` selects), and the
    precision of the exact-by-construction ``tower`` and ``oracle`` to
    exact-only.  ``_fields`` lists the fields in order: the header, the
    header reader and the command line all read it.
    """

    __slots__ = _fields = ("kind", "alpha", "depth", "N", "m", "k", "k_max", "samples",
                           "seed", "ray", "through", "level", "backward", "out",
                           "precision")
    kind: str
    alpha: str
    depth: int
    N: int
    m: int
    k: int
    k_max: int
    samples: int
    seed: int
    ray: Optional[int]
    through: Optional[str]
    level: int
    backward: bool
    out: Optional[str]
    precision: str

    def __init__(self, kind: str, alpha: str = "[0;5,(6)]", depth: int = 0, N: int = 0,
                 m: int = 0, k: int = 0, k_max: int = 0, samples: int = 0, seed: int = 0,
                 ray: Optional[int] = None, through: Optional[str] = None, level: int = 0,
                 backward: bool = False, out: Optional[str] = None,
                 precision: str = "certified-fast"):
        self._store(kind, alpha, depth, N, m, k, k_max, samples, seed, ray, through, level,
                    backward, out, precision)
        if self.kind not in KINDS:
            raise ValueError("unknown experiment kind %r" % (self.kind,))
        if self.precision not in PRECISIONS:
            raise ValueError(
                "precision must be one of %s, got %r" % (PRECISIONS, self.precision)
            )
        for name in ("depth", "N", "k_max", "samples"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be >= 0" % (name,))
        # orbit indices and visit counts are int64, and so are the shifted
        # times of density and the entry levels of a leaf, which stay
        # within N of --level or ray + 1
        if self.N > MAX_HISTOGRAM_LENGTH:
            raise ValueError("N %d is above the limit of 2^63 - 1" % (self.N,))
        if abs(self.k) + self.N > MAX_HISTOGRAM_LENGTH:
            raise ValueError("|k| + N = %d is above the limit of 2^63 - 1"
                             % (abs(self.k) + self.N,))
        for name in ("ray", "level"):
            value = getattr(self, name)
            if value is not None and abs(value) > _MAX_LEVEL:
                raise ValueError("%s %d is outside the limit of +-2^62" % (name, value))
        kind = self.kind
        if kind in ("tower", "oracle") and self.depth > _MAX_DEPTH:
            raise ValueError("depth %d is above the limit of %d"
                             % (self.depth, _MAX_DEPTH))
        # example builds a tower of 2*k_max + 1 levels
        if kind == "example" and self.k_max > _MAX_DEPTH // 2:
            raise ValueError("k_max %d is above the limit of %d"
                             % (self.k_max, _MAX_DEPTH // 2))
        if kind == "example":
            alpha = example_alpha(self.m)
        else:
            alpha = parse_cf(self.alpha)
        object.__setattr__(self, "alpha", str(alpha))
        if kind in ("tower", "oracle"):
            object.__setattr__(self, "precision", "exact-only")
        if kind == "leaf":
            if (self.ray is None) == (self.through is None):
                raise ValueError("give exactly one of ray=... or through=...")
            if self.ray is not None and self.backward:
                raise ValueError("rays only go forward; trace a leaf through a point instead")
        if kind == "heavy" and self.N < 1:
            raise ValueError("need N >= 1, got %r" % (self.N,))
        if kind == "oracle":
            if self.depth < 2:
                raise ValueError("oracle needs depth >= 2, got %r" % (self.depth,))
            if self.samples < 1:
                raise ValueError("need samples >= 1, got %r" % (self.samples,))

    @property
    def policy(self) -> str:
        """The scan policy the precision flag selects."""
        return "exact" if self.precision == "exact-only" else "certified"

    def header(self) -> dict:
        config = {name: getattr(self, name) for name in self._fields}
        return {"tool": "rotn", "version": __version__, "config": config}


def config_from_header(header: dict) -> ExperimentConfig:
    """Rebuild the config a header was written from."""
    raw = dict(header["config"])
    extra = set(raw).difference(ExperimentConfig._fields)
    if extra:
        raise ValueError("header carries unknown config fields %s" % (sorted(extra),))
    return ExperimentConfig(**raw)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    # numpy registers its integer and floating scalars with these ABCs
    if isinstance(v, numbers.Integral):
        return str(int(v))
    if isinstance(v, numbers.Real):
        return repr(float(v))  # shortest round-trip form, stable across runs
    # np.bool_ is neither a bool nor a numbers.Integral
    if getattr(getattr(v, "dtype", None), "kind", None) == "b":
        return "true" if v else "false"
    return str(v)


def _head(config: ExperimentConfig, names) -> str:
    return "# %s\n%s\n" % (json.dumps(config.header(), sort_keys=True), ",".join(names))


_INT64 = range(-(1 << 63), 1 << 63)


def _numeric(chunk):
    """A column's chunk as rotn.spell spells it, or None where it cannot.

    A range of int64 values, its step one too, and an integer or float
    array are spelled as they are; a list or tuple of exact ints (not
    bools) that fit int64, or of floats (np.float64 among them), as an
    int64 or a float64 array.
    """
    if isinstance(chunk, range):
        return chunk if all(v in _INT64 for v in (chunk[0], chunk[-1], chunk.step)) else None
    if getattr(getattr(chunk, "dtype", None), "kind", None) in ("i", "u", "f"):
        return chunk
    if not isinstance(chunk, (list, tuple)):
        return None
    kinds = set(map(type, chunk))
    if kinds == {int} and min(chunk) in _INT64 and max(chunk) in _INT64:
        dtype = "int64"
    elif all(issubclass(t, float) for t in kinds):
        dtype = "float64"
    else:
        return None
    import numpy as np

    return np.array(chunk, dtype=dtype)


def _write_table(path: str, config: ExperimentConfig, names, chunks) -> None:
    """Write the header, then each chunk, a list of the columns' slices,
    in one write.

    A chunk whose columns are all numeric (_numeric) is spelled in numpy
    by ``rotn.spell.spell_rows``, imported for the first such chunk, on
    one matrix kept for the table; any other is spelled row by row by
    _cell.  Both give _cell's bytes, written as UTF-8.
    """
    kept = None
    with open(path, "wb") as fh:
        fh.write(_head(config, names).encode())
        for cols in chunks:
            spelt = [_numeric(c) for c in cols]
            if all(c is not None for c in spelt):
                from .spell import Kept, spell_rows

                kept = Kept() if kept is None else kept
                fh.write(spell_rows(spelt, kept))
            else:
                fh.write("".join([",".join(map(_cell, row)) + "\n"
                                  for row in zip(*cols)]).encode())


def write_columns(path: str, config: ExperimentConfig, names: list, cols: list) -> None:
    """Write a column-major table: cols[j] holds column names[j], top to bottom.

    A column is any sliceable sequence of one length: a list, a range,
    or a numpy array.  Rows go out _ROWS_PER_WRITE at a time, so no
    column is ever converted to a whole-length list; each chunk is
    spelled by _write_table.  Columns of different lengths raise
    ValueError before anything is written.
    """
    rows = len(cols[0])
    if any(len(c) != rows for c in cols):
        raise ValueError("columns of different lengths: %s" % [len(c) for c in cols])
    _write_table(path, config, names, ([c[lo: lo + _ROWS_PER_WRITE] for c in cols]
                                       for lo in range(0, rows, _ROWS_PER_WRITE)))


def write_csv(path: str, config: ExperimentConfig, columns: list, rows) -> None:
    """Write a row-major table with the column names ``columns``.

    ``rows`` is any iterable of equal-length rows.  Each chunk of
    _ROWS_PER_WRITE rows is transposed and spelled by _write_table, as
    write_columns spells its chunks, so both give the same bytes.  A row
    of another length raises ValueError; the chunks before its own are
    already written.  ``run`` writes column tables; this form serves
    callers that build rows, such as the benchmark's writer probe
    (rotnbench/layers.py).
    """
    rows = iter(rows)
    chunks = iter(lambda: list(islice(rows, _ROWS_PER_WRITE)), [])
    _write_table(path, config, columns, (list(zip(*chunk, strict=True)) for chunk in chunks))


# the JSON scalars (bool is an int): a container of these alone, or a list of
# such dicts, is one call of the C encoder
_SCALARS = (str, int, float, type(None))
_INDENT = "  "


def json_text(obj) -> str:
    """obj as JSON, keys sorted and indented by two spaces, mostly in C.

    The bytes are json.dumps's with those two options, which makes
    json.dumps fall back to its pure-Python encoder.  Here a non-empty
    container whose members are all scalars goes to the C encoder in
    one call, with its members' newline and indent in the item
    separator, and only its brackets are re-wrapped.  A list of such
    dicts is one call too, with the dicts' inner separator; each
    boundary between two dicts is then re-indented by one str.replace,
    which cannot touch an encoded string, since none holds a raw
    newline.  Any other dict encodes its scalar entries in one call and
    recurses into the rest, as any other list does into its members:
    a tower report takes four calls of the C encoder.
    """
    return _json_text(obj, "\n")


def _flat(members) -> bool:
    return all(isinstance(v, _SCALARS) for v in members)


def _json_text(obj, nl: str) -> str:
    """json_text(obj) at the nesting whose lines start with nl."""
    if isinstance(obj, dict):
        members = obj.values()
    elif isinstance(obj, (list, tuple)):
        members = obj
    else:
        return json.dumps(obj)
    if not obj:
        return json.dumps(obj)
    inner = nl + _INDENT
    if _flat(members):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(obj, dict):
        # the scalar entries are one C call, whose items come out in sorted
        # key order and split apart at the separator, as no encoded string
        # holds a raw newline; a key that is not a str is spelled as its
        # JSON scalar, then quoted
        sep = "," + inner
        flat = {k: v for k, v in obj.items() if isinstance(v, _SCALARS)}
        text = json.dumps(flat, sort_keys=True, separators=(sep, ": "))
        parts = dict(zip(sorted(flat), text[1:-1].split(sep)))
        for k, v in obj.items():
            if k not in parts:
                parts[k] = (json.dumps(k if isinstance(k, str) else json.dumps(k))
                            + ": " + _json_text(v, inner))
        return "{" + inner + sep.join(parts[k] for k in sorted(parts)) + nl + "}"
    if all(isinstance(v, dict) and v and _flat(v.values()) for v in obj):
        deep = inner + _INDENT
        text = json.dumps(obj, sort_keys=True, separators=("," + deep, ": "))
        body = text[2:-2].replace("}," + deep + "{", inner + "}," + inner + "{" + deep)
        return "[" + inner + "{" + deep + body + inner + "}" + nl + "]"
    return "[" + inner + ("," + inner).join(_json_text(v, inner) for v in obj) + nl + "]"


def write_json(path: str, config: ExperimentConfig, report: dict) -> None:
    doc = {"header": config.header(), "report": report}
    with open(path, "w", newline="") as fh:
        fh.write(json_text(doc) + "\n")


def read_header(path: str) -> dict:
    """Parse the self-describing header back out of an output file."""
    with open(path, "r") as fh:
        first = fh.readline()
        if first.startswith("# "):
            return json.loads(first[2:])
        doc = json.loads(first + fh.read())
    return doc["header"]


# ---------------------------------------------------------------------------
# leaf seeds


def _sqrt_in_field(n: int, alpha: SurdReal) -> SurdReal:
    """sqrt(n) as a point of alpha's field, found without factoring n.

    A perfect square is rational; n = d*s*s for alpha's square-free d
    is s*sqrt(d); any other n lies in another field.
    """
    if n < 0:
        raise ValueError("sqrt() of a negative number %d" % (n,))
    s = math.isqrt(n)
    if s * s == n:
        return SurdReal(s)
    d = alpha.d
    if n % d == 0:
        s = math.isqrt(n // d)
        if s * s * d == n:
            return SurdReal(0, s, 1, d)
    raise ValueError("cannot mix sqrt(%d) with sqrt(%d)" % (d, n))


def _bits(x: SurdReal) -> int:
    return max(abs(x.p), abs(x.q), x.r).bit_length()


def parse_point(expr: str, alpha: SurdReal) -> SurdReal:
    """Evaluate a seed expression like "(1+a)/2" to an exact point.

    Grammar: integers, the name `a` (the rotation number), sqrt(int),
    +, -, *, /, ** with integer exponents, and parentheses.  sqrt(n)
    must lie in alpha's field.  An exponent may be at most 10^4, and
    the point and every value on the way to it at most 13,300 bits.
    """
    import ast  # only seed expressions need the parser

    arithmetic = {ast.Add: operator.add, ast.Sub: operator.sub,
                  ast.Mult: operator.mul, ast.Div: operator.truediv}
    try:
        node = ast.parse(expr, mode="eval").body
    except SyntaxError as err:
        raise ValueError("cannot parse point %r: %s" % (expr, err)) from None
    too_large = "point %r has a value of more than %d bits" % (expr, _MAX_POINT_BITS)

    def ev(n):
        v = value_of(n)
        if _bits(v) > _MAX_POINT_BITS:
            raise ValueError(too_large)
        return v

    def value_of(n):
        if isinstance(n, ast.Constant) and isinstance(n.value, int):
            return SurdReal(n.value)
        if isinstance(n, ast.Name) and n.id == "a":
            return alpha
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, (ast.UAdd, ast.USub)):
            v = ev(n.operand)
            return v if isinstance(n.op, ast.UAdd) else -v
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                and n.func.id == "sqrt" and len(n.args) == 1 and not n.keywords:
            arg = n.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
                return _sqrt_in_field(arg.value, alpha)
            raise ValueError("sqrt() takes an integer literal")
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow):
            if not (isinstance(n.right, ast.Constant) and isinstance(n.right.value, int)):
                raise ValueError("** needs an integer literal exponent")
            e = n.right.value
            if e > _MAX_EXPONENT:
                raise ValueError("exponent %d in point %r is above the limit %d"
                                 % (e, expr, _MAX_EXPONENT))
            base = ev(n.left)
            # base**e has at least e*(bits - 1) bits: refuse before computing
            if e * (_bits(base) - 1) > _MAX_POINT_BITS:
                raise ValueError(too_large)
            return base ** e
        if isinstance(n, ast.BinOp) and type(n.op) in arithmetic:
            return arithmetic[type(n.op)](ev(n.left), ev(n.right))
        raise ValueError("unsupported syntax in point %r" % (expr,))

    try:
        return ev(node)
    except ZeroDivisionError:
        raise ValueError("division by zero in point %r" % (expr,)) from None


# ---------------------------------------------------------------------------
# experiments: each maps a config to (report, table), where table is
# (names, columns) for the CSV-shaped kinds and None for the JSON ones


def _tower(config: ExperimentConfig):
    """Build the tower and verify every stats inequality along it."""
    levels = tower(parse_cf(config.alpha), config.depth)

    bound_rows = []
    for parent, child in zip(levels, levels[1:]):
        bound_rows.extend(verify_bounds(parent, child, strict=False))
    chain_rows = verify_chains(levels, strict=False)

    def level_entry(lvl):
        return {
            "index": lvl.index,
            "interval_left": lvl.interval.left.exact_str(),
            "interval_right": lvl.interval.right.exact_str(),
            "length": float(lvl.interval.length),
            "length_exact": lvl.interval.length.exact_str(),
            "beta": float(lvl.beta),
            "beta_exact": lvl.beta.exact_str(),
            "beta_cf": str(lvl.beta_cf),
            "n_half": lvl.n_half,
            "len_plus": lvl.f_plus.length,
            "len_minus": lvl.f_minus.length,
            "len_zero": lvl.f_zero.length,
            **lvl.stats,
        }

    def check_entry(row):
        return {"level": row.level, "check": row.name, "value": row.lhs, "ok": row.ok}

    ok = all(r.ok for r in bound_rows) and all(r.ok for r in chain_rows)
    report = {
        "alpha": config.alpha,
        "depth": config.depth,
        "levels": [level_entry(l) for l in levels],
        "bounds": [check_entry(r) for r in bound_rows],
        "chains": [check_entry(r) for r in chain_rows],
        "ok": ok,
    }
    return report, None


def _oracle(config: ExperimentConfig):
    """Dual-route check: predicted return words vs simulated first returns.

    For every level 2..depth and each row (name, lo, hi) of its table
    ``renorm._case_regions``, draws `samples` starts lo + (hi - lo)*u by
    exact construction: u is a random odd multiple of 2^-53, so each
    start lies strictly inside the region.  Then demands the
    substitution word equal the simulated sign word letter for letter
    and both routes land on the same exact point.  The simulation,
    ``oracle_first_return``, reads neither the table nor any word.
    """
    samples = config.samples
    cf = parse_cf(config.alpha)
    # each first return takes at most |F-| + |F0| steps; levels are built
    # one at a time, so a refusal stops at the first level past the limit
    steps = 0
    for depth in range(2, config.depth + 1):
        lvl = tower(cf, depth)[-1]
        steps += 3 * samples * (lvl.f_minus.length + lvl.f_zero.length)
        if steps > _MAX_ORACLE_STEPS:
            # steps can pass the float range, so Decimal rounds it
            mantissa, exponent = format(Decimal(steps), ".1e").split("e")
            raise ValueError("oracle at depth %d with %d samples predicts at least "
                             "%se%+03d steps, above the limit of %.0e; lower --depth "
                             "or --samples" % (config.depth, samples, mantissa,
                                               int(exponent), _MAX_ORACLE_STEPS))
    levels = tower(cf, config.depth)
    rng = random.Random(config.seed)

    rows = []
    total = matched = 0
    for lvl in levels[1:]:
        chart = lvl.interval
        for name, lo, hi, _ in _case_regions(lvl):
            good = 0
            width = hi - lo
            for _ in range(samples):
                u = SurdReal(2 * rng.getrandbits(52) + 1, 0, 1 << 53)
                # one chart round trip: the oracle walks x, the words read y
                x = chart.from_local(lo + width * u)
                y = chart.to_local(x)
                rec = oracle_first_return(lvl, x)
                pred = _local_return_word(lvl, y)
                if (tuple(expand(pred)) == rec.word
                        and chart.from_local((y + lvl.beta).frac()) == rec.landing):
                    good += 1
            rows.append({"level": lvl.index, "region": name,
                         "samples": samples, "matches": good})
            total += samples
            matched += good

    report = {
        "alpha": config.alpha,
        "depth": config.depth,
        "samples_per_region": samples,
        "regions": rows,
        "total": total,
        "matches": matched,
        "ok": matched == total,
    }
    return report, None


# the kinds that read an orbit are in rotn.orbits, which imports numpy;
# run imports it for those kinds only
_EXACT_EXPERIMENTS = {"tower": _tower, "oracle": _oracle}
KINDS = ("tower", "density", "example", "leaf", "heavy", "oracle")


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be opened, before the run does its work."""
    if os.path.isdir(path):
        raise ValueError("--out %s is a directory" % (path,))
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ValueError("--out %s: no directory %s" % (path, folder))


def run(config: ExperimentConfig) -> dict:
    """Run the experiment a config describes, write config.out, return the report.

    An out path whose directory does not exist, or that is a directory,
    is refused before the experiment runs; any other error opening it
    comes when it is written.
    """
    if config.out:
        _check_out(config.out)
    experiment = _EXACT_EXPERIMENTS.get(config.kind)
    if experiment is None:
        from .orbits import EXPERIMENTS
        experiment = EXPERIMENTS[config.kind]
    report, table = experiment(config)
    if config.out:
        if table is None:
            write_json(config.out, config, report)
        else:
            write_columns(config.out, config, *table)
    return report
