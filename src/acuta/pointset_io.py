"""Reading and writing point-set files.

The native format is JSON with three fixed keys plus an optional trace:

    {"backend": "rational" | "float64",
     "dim": d,
     "points": [[...], ...],          # "p/q" strings, or bare floats
     "trace": {...}}                  # optional construction trace

Serialization is canonical — keys sorted, no whitespace — so equal sets
produce byte-identical files. Rational coordinates are written as "p/q"
strings in lowest terms, which holds every exact value up to
``FRACTION_BITS`` bits; a larger :class:`Dyadic` (exact sets with d >= 6)
cannot be written and raises ValueError. The reader refuses, with
ParseError and before parsing it, any coordinate longer than a "p/q" of
``_MAX_COORD_BITS`` bits, and lifts CPython's int<->str digit guard only
while it parses; the writer lifts it for good, as far as the values it
writes need. Float coordinates rely on JSON's shortest round-tripping float
encoding. CSV output is supported for the float
backend only, with header ``x0,...,x{d-1}`` and no trace.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Tuple, Union

from .construct import ConstructionTrace, TraceStep
from .geometry import GeometryError, PointSet
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


def _lift_digit_guard(digits: int) -> int:
    """Raise CPython's int<->str digit guard to ``digits`` unless it is
    higher or off (0); return its old value."""
    old = sys.get_int_max_str_digits()
    if old and old < digits:
        sys.set_int_max_str_digits(digits)
    return old


def render_coord(x: RawScalar) -> Union[str, float]:
    if isinstance(x, Dyadic):
        if not x.fits_fraction():
            lo, hi = x.terms[-1][0], x.terms[0][0]
            raise ValueError(
                f"cannot write an exact coordinate of "
                f"{max(hi, 0) - min(lo, 0):,} bits as 'p/q' (limit "
                f"{FRACTION_BITS:,} bits); the file format has no sparse "
                "encoding yet, so exact ladder sets with d >= 6 cannot be "
                "saved")
        x = x.to_fraction()
    if isinstance(x, Fraction):
        p, q = x.numerator, x.denominator
        # Writing the package's own values lifts the guard for the rest of
        # the process, as far as the value needs (log10(2) < 1/3): callers
        # that read the text back with Fraction in the same process, such
        # as bench/workloads.py on `acuta verify` reports, rely on it.
        # Reading untrusted text lifts it only for the duration of a load.
        _lift_digit_guard(max(p.bit_length(), q.bit_length()) // 3 + 2)
        return f"{p}/{q}"
    return float(x)


def _parse_coord(raw, backend) -> RawScalar:
    if backend == RATIONAL:
        if not isinstance(raw, str):
            raise ParseError(
                f"rational coordinates must be 'p/q' strings, got {raw!r}")
        if len(raw) > _MAX_COORD_CHARS:
            raise ParseError(
                f"rational coordinate of {len(raw):,} characters exceeds "
                f"the {_MAX_COORD_CHARS:,} of a {_MAX_COORD_BITS:,}-bit 'p/q'")
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
        "vertex_order": list(trace.vertex_order),
        "steps": [
            {"index": st.index, "eps": render_coord(st.eps),
             "s": render_coord(st.s), "a": render_coord(st.a),
             "b": render_coord(st.b)}
            for st in trace.steps
        ],
    }


def _trace_from_obj(obj) -> ConstructionTrace:
    try:
        backend = obj["backend"]
        dim = obj["dim"]
        steps = tuple(
            TraceStep(index=int(st["index"]),
                      eps=_parse_coord(st["eps"], backend),
                      s=_parse_coord(st["s"], backend),
                      a=_parse_coord(st["a"], backend),
                      b=_parse_coord(st["b"], backend))
            for st in obj["steps"]
        )
        return ConstructionTrace(dim=int(dim), backend=backend,
                                 vertex_order=tuple(int(i) for i in obj["vertex_order"]),
                                 steps=steps)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed trace: {exc}") from exc


def point_set_to_obj(ps: PointSet,
                     trace: Optional[ConstructionTrace] = None) -> dict:
    obj = {
        "backend": ps.backend,
        "dim": ps.dim,
        "points": [[render_coord(x) for x in p] for p in ps.points],
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
    try:
        dim = int(obj["dim"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad dim: {obj['dim']!r}") from exc
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
        trace = _trace_from_obj(obj["trace"])
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
