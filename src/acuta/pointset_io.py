"""Reading and writing point-set files.

The native format is JSON with three fixed keys plus an optional trace:

    {"backend": "rational" | "float64",
     "dim": d,
     "points": [[...], ...],          # exact strings, or bare floats
     "trace": {...}}                  # optional construction trace

A trace holds ``backend``, ``dim`` and ``steps``, one step per cube vertex
in the order they moved, each ``{"eps", "index", "s"}``: the vertex, a bound
on its displacement, and the scale of the ladder step that moved it (null
for a frozen design's step). The reader ignores keys it does not model,
such as the ``a``, ``b`` and ``vertex_order`` that older files carry.

Serialization is canonical — keys sorted, no whitespace — so equal sets
produce byte-identical files. An exact value p/q in lowest terms is written
as decimal ``"p/q"`` while |p| and q have at most ``_DECIMAL_BITS`` (64)
bits, and otherwise in a binary form, a sum of hex terms over an optional
odd denominator o > 1::

    binary := term (("+" | "-") hex "p" exp)* ("/" hex)?
    term   := "-"? hex "p" exp
    hex    := "0x" [0-9a-f]+
    exp    := "-"? [0-9]+

so that 1 - 2**-12028 reads ``"0x1p0-0x1p-12028"``. For p/(o * 2**k) the
terms are p's signed binary digits when :func:`~acuta.geometry._digits`
takes them (at most ``_LEAD_TERMS`` of them), else p is one dense term; a
:class:`Dyadic` too large for a Fraction writes its own terms. So does
every Dyadic coordinate of a set, which :class:`PointSet` keeps only when
one of its values is too large for a Fraction (exact ladder sets with
d >= 6): the loaded set then has the saved set's terms, and its scan the
same work. The binary form reads and writes in time linear in its length:
the reader's Fraction comes from :meth:`Dyadic.over`, which takes no gcd of
two long numbers (the README gives the measured times).

The reader refuses, with ParseError and before any int() call, a coordinate
longer than a decimal "p/q" of ``_MAX_COORD_BITS`` bits can be, a binary
value of more than ``_MAX_TERMS`` terms or with an exponent of more than
``_MAX_EXP_DIGITS`` digits (d = 10's deepest has 123), an even denominator,
and a value beyond ``FRACTION_BITS`` over a denominator. It builds a
Dyadic, divided by o if o > 1; :class:`PointSet` then holds Fractions for
every set whose values fit one. The writer refuses the same values, with
ValueError and before it opens the file. The reader lifts CPython's
int<->str digit guard only while it parses. The writer lifts it for good,
by bits // 3 + 2 digits for each exact value that fits a Fraction, in
either form: callers that read a report back with Fraction in the same
process rely on it.
Float coordinates rely on JSON's shortest round-tripping float encoding.
CSV output is supported for the float backend only, with header
``x0,...,x{d-1}`` and no trace.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple, Union

from .construct import ConstructionTrace, TraceStep
from .geometry import GeometryError, PointSet, _digits, _odd
from .scalars import FLOAT64, FRACTION_BITS, RATIONAL, Dyadic, RawScalar

__all__ = ["ParseError", "render_coord", "point_set_to_obj",
           "save_point_set", "load_point_set", "dumps_canonical"]


class ParseError(ValueError):
    """The file is not a well-formed point-set file."""


# The reader refuses rational coordinates longer than a "p/q" of this many
# bits can be. Values this package writes are products and sums of
# coordinates of up to FRACTION_BITS bits: the d = 5 margin has 80 183 bits
# and a d = 5 point moved within its safe radius 96 254. Each part of "p/q"
# has at most bits * log10(2) + 1 digits; two more characters cover a sign
# and the slash.
_MAX_COORD_BITS = 4 * FRACTION_BITS
_MAX_DIGITS = int(_MAX_COORD_BITS * math.log10(2)) + 2
_MAX_COORD_CHARS = _MAX_DIGITS + 2
# Exact values with a longer numerator or denominator take the binary form.
_DECIMAL_BITS = 64
# The reader's caps on a binary value: ladder values have at most 4 terms,
# and the deepest exponent has 123 digits at d = 10 and about 490 at d = 12.
# The writer refuses what these caps, _MAX_COORD_CHARS and FRACTION_BITS
# over a denominator refuse.
_MAX_TERMS = 1024
_MAX_EXP_DIGITS = 1000
_EXP_LIMIT = 10 ** _MAX_EXP_DIGITS
_HEX = "0x[0-9a-f]+"
_HEX_TERM = rf"{_HEX}p-?[0-9]{{1,{_MAX_EXP_DIGITS}}}"
_BINARY = re.compile(rf"-?{_HEX_TERM}(?:[+-]{_HEX_TERM})*(?:/{_HEX})?")
_TERM = re.compile(r"(-?)0x([0-9a-f]+)p(-?[0-9]+)")


def _lift_digit_guard(digits: int) -> int:
    """Raise CPython's int<->str digit guard to ``digits`` unless it is
    higher or off (0); return its old value."""
    old = sys.get_int_max_str_digits()
    if old and old < digits:
        sys.set_int_max_str_digits(digits)
    return old


def render_coord(x: RawScalar, decimal: bool = False) -> Union[str, float]:
    """A value as files and reports write it (see the module docstring).
    With ``decimal``, as ``acuta verify`` reports print them, every value a
    Fraction holds is decimal "p/q", whatever its size. Without it, a value
    the reader would refuse raises ValueError."""
    if isinstance(x, Dyadic):
        if not x.fits_fraction():
            return _binary(x.terms) if decimal else _file_binary(x)
        x = x.to_fraction()
    if not isinstance(x, Fraction):
        return float(x)
    p, q = x.numerator, x.denominator
    bits = max(p.bit_length(), q.bit_length())
    # For good and in either form, as far as the value needs (log10(2) <
    # 1/3); see the module docstring.
    _lift_digit_guard(bits // 3 + 2)
    if decimal or bits <= _DECIMAL_BITS:
        return f"{p}/{q}"
    o = _odd(q)
    return _file_binary(_digits(x, o), o)


def _binary(terms, o: int = 1) -> str:
    body = "".join(f"{'-' if c < 0 else '+'}0x{abs(c):x}p{e}"
                   for e, c in terms).removeprefix("+") or "0x0p0"
    return f"{body}/0x{o:x}" if o > 1 else body


def _file_binary(x: Dyadic, o: int = 1) -> str:
    """The binary form of x / o as a file holds it; ValueError for a value
    the reader's caps refuse, checked on what the writer already has."""
    t = x.terms
    if len(t) > _MAX_TERMS:
        raise ValueError(f"cannot write a coordinate of {len(t):,} terms; "
                         f"files hold at most {_MAX_TERMS}")
    if t and not -_EXP_LIMIT < t[-1][0] <= t[0][0] < _EXP_LIMIT:
        raise ValueError("cannot write a coordinate with an exponent of "
                         f"more than {_MAX_EXP_DIGITS} digits")
    if o > 1 and not x.fits_fraction():
        raise ValueError(f"cannot write a coordinate over {o:#x} beyond the "
                         f"{FRACTION_BITS:,}-bit limit of a Fraction")
    raw = _binary(t, o)
    if len(raw) > _MAX_COORD_CHARS:
        raise ValueError(f"cannot write a coordinate of {len(raw):,} "
                         f"characters; files hold at most "
                         f"{_MAX_COORD_CHARS:,}")
    return raw


def _parse_binary(raw: str) -> RawScalar:
    if raw.count("p") > _MAX_TERMS:
        raise ParseError(f"binary coordinate has more than {_MAX_TERMS} "
                         "terms")
    if not _BINARY.fullmatch(raw):
        raise ParseError(f"bad binary coordinate {raw!r}")
    body, _, den = raw.partition("/")
    x = Dyadic((int(e), -int(c, 16) if sign == "-" else int(c, 16))
               for sign, c, e in _TERM.findall(body))
    if not den:
        return x
    o = int(den, 16)
    if not o & 1:
        raise ParseError(f"binary coordinate has an even denominator {den}")
    if not x.fits_fraction():
        raise ParseError(f"binary coordinate over {den} exceeds the "
                         f"{FRACTION_BITS:,}-bit limit of a Fraction")
    return x.over(o)


def _parse_coord(raw, backend) -> RawScalar:
    if backend == RATIONAL:
        if not isinstance(raw, str):
            raise ParseError(
                f"rational coordinates must be strings, got {raw!r}")
        if len(raw) > _MAX_COORD_CHARS:
            raise ParseError(
                f"rational coordinate of {len(raw):,} characters exceeds "
                f"the {_MAX_COORD_CHARS:,} of a {_MAX_COORD_BITS:,}-bit 'p/q'")
        if "x" in raw:
            return _parse_binary(raw)
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational coordinate {raw!r}") from exc
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"float coordinates must be numbers, got {raw!r}")
    try:
        val = float(raw)
    except OverflowError as exc:
        raise ParseError("an integer coordinate overflows float64") from exc
    if not math.isfinite(val):
        raise ParseError(f"non-finite coordinate {val!r}")
    return val


def _trace_to_obj(trace: ConstructionTrace) -> dict:
    return {
        "dim": trace.dim,
        "backend": trace.backend,
        "steps": [
            {"index": st.index, "eps": render_coord(st.eps),
             "s": None if st.s is None else render_coord(st.s)}
            for st in trace.steps
        ],
    }


def _trace_from_obj(obj, dim: int, backend: str) -> ConstructionTrace:
    """Parse a trace, which must name the ``dim`` and ``backend`` of its set
    and hold one step per cube vertex, 2**(dim - 1) of them."""
    try:
        if obj["dim"] != dim or obj["backend"] != backend:
            raise ParseError(
                f"trace is for dim {obj['dim']!r}, backend "
                f"{obj['backend']!r}; the set has dim {dim}, backend "
                f"{backend!r}")
        n = len(obj["steps"])
        if n.bit_length() != dim or n & (n - 1):    # n != 2**(dim - 1)
            raise ParseError(
                f"trace has {n} steps; a dim-{dim} set has 2**{dim - 1} "
                "cube vertices")
        steps = []
        for st in obj["steps"]:
            i = st["index"]
            if isinstance(i, bool) or not isinstance(i, int):
                raise ParseError(f"trace step index must be an integer, "
                                 f"got {i!r}")
            steps.append(TraceStep(
                index=i, eps=_parse_coord(st["eps"], backend),
                s=None if st["s"] is None else _parse_coord(st["s"], backend)))
        return ConstructionTrace(dim=dim, backend=backend, steps=tuple(steps))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed trace: {exc}") from exc


def point_set_to_obj(ps: PointSet,
                     trace: Optional[ConstructionTrace] = None) -> dict:
    # A set keeps Dyadic values only if one is too large for a Fraction
    # (PointSet). They are written with their own terms, so that the loaded
    # set has the saved set's terms, and its Gram matrix the same work.
    obj = {
        "backend": ps.backend,
        "dim": ps.dim,
        "points": [[_file_binary(x) if isinstance(x, Dyadic)
                    else render_coord(x) for x in p] for p in ps.points],
    }
    if trace is not None:
        obj["trace"] = _trace_to_obj(trace)
    return obj


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_point_set(path: Union[str, Path], ps: PointSet,
                   fmt: str = "json",
                   trace: Optional[ConstructionTrace] = None) -> None:
    path = Path(path)
    if fmt == "json":
        path.write_text(dumps_canonical(point_set_to_obj(ps, trace)))
        return
    if fmt == "csv":
        if ps.backend != FLOAT64:
            raise ValueError("csv output supports the float64 backend only")
        if trace is not None:
            raise ValueError("csv output cannot carry a trace")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([f"x{k}" for k in range(ps.dim)])
        for p in ps.points:
            writer.writerow([repr(x) for x in p])
        path.write_text(buf.getvalue())
        return
    raise ValueError(f"unknown format: {fmt!r}")


def _load_json(text: str) -> Tuple[PointSet, Optional[ConstructionTrace]]:
    def _bad_const(name):
        raise ParseError(f"non-finite JSON constant {name!r}")

    try:
        obj = json.loads(text, parse_constant=_bad_const)
    except ValueError as exc:       # JSONDecodeError, or an int too long
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    for key in ("backend", "dim", "points"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    backend = obj["backend"]
    if backend not in (RATIONAL, FLOAT64):
        raise ParseError(f"unknown backend {backend!r}")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"dim must be an integer >= 1, got {dim!r}")
    rows = obj["points"]
    if not isinstance(rows, list):
        raise ParseError("points must be a list")
    pts = []
    for row in rows:
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"point {row!r} does not have {dim} coordinates")
        pts.append(tuple(_parse_coord(x, backend) for x in row))
    try:
        ps = PointSet(dim=dim, points=tuple(pts), backend=backend)
    except GeometryError as exc:
        raise ParseError(str(exc)) from exc
    trace = None
    if "trace" in obj and obj["trace"] is not None:
        trace = _trace_from_obj(obj["trace"], dim, backend)
    return ps, trace


def _load_csv(text: str) -> Tuple[PointSet, None]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ParseError("empty csv file")
    header = rows[0]
    dim = len(header)
    if header != [f"x{k}" for k in range(dim)] or dim == 0:
        raise ParseError(f"csv header must be x0..x{{d-1}}, got {header}")
    pts = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != dim:
            raise ParseError(f"row {row} does not have {dim} fields")
        try:
            pts.append(tuple(float(x) for x in row))
        except ValueError as exc:
            raise ParseError(f"bad float in row {row}") from exc
        if not all(math.isfinite(x) for x in pts[-1]):
            raise ParseError(f"non-finite value in row {row}")
    try:
        return PointSet(dim=dim, points=tuple(pts), backend=FLOAT64), None
    except GeometryError as exc:
        raise ParseError(str(exc)) from exc


def load_point_set(path: Union[str, Path]) -> Tuple[PointSet, Optional[ConstructionTrace]]:
    """Load a point-set file, returning the set and its trace (if any).

    JSON and CSV are distinguished by suffix, with a content sniff as the
    fallback for unusual names. All malformations raise ParseError, never
    the underlying json/csv/geometry errors.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".csv" or (suffix != ".json"
                            and not text.lstrip().startswith("{")):
        return _load_csv(text)
    old = _lift_digit_guard(_MAX_DIGITS)
    try:
        return _load_json(text)
    finally:
        sys.set_int_max_str_digits(old)
