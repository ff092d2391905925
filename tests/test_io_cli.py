import dataclasses
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from acuta import (ConstructionConfig, Dyadic, ParseError, PointSet,
                   construct_acute_cube, construct_full, load_point_set,
                   save_point_set, set_margin, verify_acute)
from acuta import cli
from acuta.cli import _report_obj, main
from acuta.geometry import _digits, _odd
from acuta.pointset_io import (_MAX_COORD_CHARS, _MAX_EXP_DIGITS, _MAX_TERMS,
                               _binary, _parse_coord, dumps_canonical,
                               point_set_to_obj, render_coord)
from acuta.scalars import FRACTION_BITS, as_exact, brief, floor_log2

F = Fraction

DATA = Path(__file__).resolve().parent / "data"
SQUARE_ROWS = [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def square_obj(**overrides):
    obj = {"backend": "rational", "dim": 2, "points": SQUARE_ROWS}
    obj.update(overrides)
    return obj


class TestJsonRoundTrip:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rational_bit_exact(self, tmp_path, d):
        ps, trace, _ = construct_full(ConstructionConfig(dim=d))
        p = tmp_path / "set.json"
        save_point_set(p, ps, trace=trace)
        loaded, loaded_trace = load_point_set(p)
        assert loaded.points == ps.points
        assert loaded.backend == ps.backend
        assert loaded_trace == trace
        assert set_margin(loaded) == set_margin(ps)

    def test_float_shortest_repr(self, tmp_path):
        ps, trace, _ = construct_full(ConstructionConfig(dim=3,
                                                         backend="float64"))
        p = tmp_path / "set.json"
        save_point_set(p, ps, trace=trace)
        loaded, _ = load_point_set(p)
        assert loaded.points == ps.points  # repr() round-trips doubles

    def test_canonical_bytes_are_stable(self, tmp_path):
        ps, trace, _ = construct_full(ConstructionConfig(dim=3))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_point_set(a, ps, trace=trace)
        save_point_set(b, ps, trace=trace)
        assert a.read_bytes() == b.read_bytes()
        raw = a.read_text()
        obj = json.loads(raw)
        assert raw == dumps_canonical(obj)
        assert list(obj) == sorted(obj)

    @pytest.mark.parametrize("d, backend", [
        (2, "rational"), (3, "rational"), (4, "rational"), (5, "rational"),
        (2, "float64"), (3, "float64"), (4, "float64")])
    def test_every_written_trace_loads_back(self, tmp_path, d, backend):
        ps, trace, _ = construct_full(ConstructionConfig(dim=d,
                                                         backend=backend))
        p = tmp_path / "set.json"
        save_point_set(p, ps, trace=trace)
        loaded, loaded_trace = load_point_set(p)
        assert loaded_trace == trace
        assert len(trace.steps) == 2 ** (d - 1)

    @pytest.mark.parametrize("d, backend", [
        (2, "rational"), (3, "rational"), (4, "rational"), (5, "rational"),
        (2, "float64"), (3, "float64"), (4, "float64")])
    def test_written_steps_hold_eps_index_and_s(self, d, backend):
        # Design steps move freely and write no scale; ladder steps write
        # the scale 2**-k they applied.
        obj = point_set_to_obj(*construct_acute_cube(
            ConstructionConfig(dim=d, backend=backend)))["trace"]
        assert set(obj) == {"backend", "dim", "steps"}
        for st in obj["steps"]:
            assert set(st) == {"eps", "index", "s"}
            if d < 5:
                assert st["s"] is None
            else:
                s = as_exact(_parse_coord(st["s"], backend))
                assert s.numerator == 1 and s.denominator.bit_count() == 1

    @pytest.mark.parametrize("backend", ["rational", "float64"])
    def test_files_with_old_trace_keys_load(self, backend):
        # Written before traces lost their a, b and vertex_order keys and
        # design steps their nominal s; the reader ignores all four.
        path = DATA / f"d3_{backend}_old_trace.json"
        raw = json.loads(path.read_text())["trace"]
        assert {"a", "b", "s"} <= set(raw["steps"][0])
        ps, trace = load_point_set(path)
        want, want_trace, _ = construct_full(
            ConstructionConfig(dim=3, backend=backend))
        assert ps.points == want.points
        assert [(st.index, st.eps) for st in trace.steps] == [
            (st.index, st.eps) for st in want_trace.steps]
        assert list(trace.vertex_order) == raw["vertex_order"]

    def test_trace_optional(self, tmp_path):
        ps, _, _ = construct_full(ConstructionConfig(dim=2))
        p = tmp_path / "set.json"
        save_point_set(p, ps)
        loaded, trace = load_point_set(p)
        assert trace is None
        assert loaded.points == ps.points


def decimal_obj(ps, trace):
    """``point_set_to_obj`` of a ladder set and its trace with every exact
    value in decimal "p/q", as files were written before the binary form."""
    obj = point_set_to_obj(ps, trace)
    obj["points"] = [[render_coord(x, decimal=True) for x in p]
                     for p in ps.points]
    for st, raw in zip(trace.steps, obj["trace"]["steps"]):
        raw["eps"] = render_coord(st.eps, decimal=True)
        raw["s"] = render_coord(st.s, decimal=True)
    return obj


def kicked_d5():
    """The d = 5 set with its deepest cube vertex, whose coordinates have
    thousands of bits, moved by a non-dyadic amount: its coordinates get
    the odd denominator 3."""
    ps = construct_full(ConstructionConfig(dim=5))[0]
    pts = list(ps.points)
    i = max(range(16), key=lambda i: pts[i][0].denominator)
    pts[i] = tuple(x + F(k, 3 << 40) for k, x in zip((1, 2, 4, 5, 7), pts[i]))
    return PointSet(dim=5, points=tuple(pts), backend="rational"), i


class TestBinaryForm:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_write_read_write_is_byte_identical(self, tmp_path, d):
        ps, trace, _ = construct_full(ConstructionConfig(dim=d))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_point_set(a, ps, trace=trace)
        loaded, loaded_trace = load_point_set(a)
        assert loaded.points == ps.points and loaded_trace == trace
        # Fractions up to d = 5; from d = 6 on the same types and Dyadic
        # terms, so the scan of the loaded set does the saved one's work.
        assert [[(type(x), getattr(x, "terms", None)) for x in p]
                for p in loaded.points] == [
            [(type(x), getattr(x, "terms", None)) for x in p]
            for p in ps.points]
        assert d > 5 or all(type(x) is F for p in loaded.points for x in p)
        save_point_set(b, loaded, trace=loaded_trace)
        assert a.read_bytes() == b.read_bytes()

    def test_kicked_set_round_trips(self, tmp_path):
        ps, i = kicked_d5()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_point_set(a, ps)
        row = json.loads(a.read_text())["points"][i]
        assert all(x.endswith("/0x3") for x in row)
        loaded, _ = load_point_set(a)
        assert loaded.points == ps.points
        assert all(type(x) is F for p in loaded.points for x in p)
        save_point_set(b, loaded)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("x", [
        F(1, 2), F(-3, 7), F(2 ** 64 - 1, 2 ** 63), F(1, 2 ** 64),
        1 - F(1, 2 ** 200), F(-(2 ** 200) - 1, 2 ** 200),
        F(3 ** 90, 2 ** 150), F(3 ** 90 + 1, 5 * 2 ** 150),
        F(2 ** 300 + 2 ** 100)],
        ids=["half", "small-odd", "64-bits", "65-bits", "two-digits",
             "negative", "dense", "odd-denominator", "integer"])
    def test_equal_values_give_identical_bytes(self, x):
        # A Dyadic that a Fraction holds is written as that Fraction, and
        # the text reads back as the same value.
        text = render_coord(x)
        assert ("0x" in text) == (max(x.numerator.bit_length(),
                                      x.denominator.bit_length()) > 64)
        if x.denominator & (x.denominator - 1) == 0:
            assert render_coord(Dyadic.of(x)) == text
        assert as_exact(_parse_coord(text, "rational")) == x

    def test_dyadic_too_large_for_a_fraction_writes_its_terms(self):
        x = Dyadic([(0, 1), (-10 ** 30, -1), (-3 * 10 ** 30, 5)])
        text = render_coord(x)
        assert text == ("0x1p0-0x1p-1000000000000000000000000000000"
                        "+0x5p-3000000000000000000000000000000")
        back = _parse_coord(text, "rational")
        assert isinstance(back, Dyadic) and back.terms == x.terms


def _spaced(k):
    return Dyadic([(-100 * i, 1) for i in range(k)])


def _dense(hex_digits):
    return F(int("a5" * (hex_digits // 2), 16))


class TestWriterCaps:
    """The writer refuses what the reader refuses: each pair is a value one
    step past a reader cap and one at it."""

    @pytest.mark.parametrize("past, at", [
        (_spaced(_MAX_TERMS + 1), _spaced(_MAX_TERMS)),
        (Dyadic.pow2(-10 ** _MAX_EXP_DIGITS),
         Dyadic.pow2(1 - 10 ** _MAX_EXP_DIGITS)),
        (Dyadic.pow2(10 ** _MAX_EXP_DIGITS),
         Dyadic.pow2(10 ** _MAX_EXP_DIGITS - 1)),
        (_dense(_MAX_COORD_CHARS - 2), _dense(_MAX_COORD_CHARS - 4)),
        (F(1, 3 << FRACTION_BITS + 1), F(1, 3 << FRACTION_BITS)),
    ], ids=["terms", "negative-exponent", "positive-exponent", "characters",
            "fraction-over-3"])
    def test_save_refuses_what_load_refuses(self, tmp_path, past, at):
        path = tmp_path / "set.json"
        big = PointSet(dim=1, points=((past,), (0,)), backend="rational")
        with pytest.raises(ValueError, match="cannot write"):
            save_point_set(path, big)
        assert not path.exists()
        if isinstance(past, Dyadic):
            text = _binary(past.terms)
        else:
            o = _odd(past.denominator)
            text = _binary(_digits(past, o).terms, o)
        with pytest.raises(ParseError):
            _parse_coord(text, "rational")
        ok = PointSet(dim=1, points=((at,), (0,)), backend="rational")
        save_point_set(path, ok)
        assert load_point_set(path)[0] == ok

    def test_trace_values_are_checked_too(self, tmp_path):
        ps, trace, _ = construct_full(ConstructionConfig(dim=3))
        tiny = Dyadic([(-1000 - 100 * i, 1) for i in range(_MAX_TERMS + 1)])
        last = dataclasses.replace(trace.steps[-1], eps=tiny)
        trace = dataclasses.replace(trace, steps=trace.steps[:-1] + (last,))
        path = tmp_path / "set.json"
        with pytest.raises(ValueError, match="cannot write"):
            save_point_set(path, ps, trace=trace)
        assert not path.exists()


class TestDigitGuard:
    def test_d5_load_leaves_the_guard_alone(self, tmp_path):
        # A d = 5 file in decimal "p/q", as older versions wrote it, holds
        # integers of about 18 000 digits, past CPython's default int<->str
        # guard of 4300: it still loads, and reading it may lift the guard
        # only while it parses.
        ps, trace, _ = construct_full(ConstructionConfig(dim=5))
        p = tmp_path / "d5.json"
        write_json(p, decimal_obj(ps, trace))
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            loaded, loaded_trace = load_point_set(p)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(before)
        assert loaded.points == ps.points and loaded_trace == trace


class TestCsv:
    def test_float_round_trip(self, tmp_path):
        ps, _, _ = construct_full(ConstructionConfig(dim=3,
                                                     backend="float64"))
        p = tmp_path / "set.csv"
        save_point_set(p, ps, fmt="csv")
        loaded, trace = load_point_set(p)
        assert trace is None
        assert loaded.points == ps.points
        assert loaded.backend == "float64"

    def test_rational_rejected(self, tmp_path):
        ps, _, _ = construct_full(ConstructionConfig(dim=2))
        with pytest.raises(ValueError):
            save_point_set(tmp_path / "set.csv", ps, fmt="csv")

    def test_trace_rejected(self, tmp_path):
        ps, trace, _ = construct_full(ConstructionConfig(dim=2,
                                                         backend="float64"))
        with pytest.raises(ValueError):
            save_point_set(tmp_path / "set.csv", ps, fmt="csv", trace=trace)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "set.csv"
        p.write_text("a,b\n0.0,0.0\n1.0,0.0\n0.0,1.0\n")
        with pytest.raises(ParseError):
            load_point_set(p)

    def test_blank_row_is_skipped(self, tmp_path):
        p = tmp_path / "set.csv"
        p.write_text("x0,x1\n0,0\n\n1,0\n0,1\n")
        loaded, _ = load_point_set(p)
        assert loaded.points == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))

    def test_unknown_format_rejected(self, tmp_path):
        ps, _, _ = construct_full(ConstructionConfig(dim=2))
        with pytest.raises(ValueError, match="unknown format"):
            save_point_set(tmp_path / "set.xml", ps, fmt="xml")


class TestParseErrors:
    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("points"),
        lambda o: o.pop("dim"),
        lambda o: o.update(backend="decimal"),
        lambda o: o.update(dim="two"),
        lambda o: o.update(points=[["0"], ["0", "1"], ["1", "0"]]),
        lambda o: o.update(points=[["0", True], ["0", "1"], ["1", "0"]]),
        lambda o: o.update(points=SQUARE_ROWS + [["0", "0"]]),
        lambda o: o.update(points="nope"),
    ])
    def test_structural_damage(self, tmp_path, mutate):
        obj = square_obj()
        mutate(obj)
        path = write_json(tmp_path / "bad.json", obj)
        with pytest.raises(ParseError):
            load_point_set(path)

    def test_nan_and_infinity_constants(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"backend":"float64","dim":2,'
                     '"points":[[0.0,0.0],[1.0,Infinity],[0.0,1.0]]}')
        with pytest.raises(ParseError):
            load_point_set(p)
        p.write_text('{"backend":"float64","dim":2,'
                     '"points":[[0.0,0.0],[1.0,NaN],[0.0,1.0]]}')
        with pytest.raises(ParseError):
            load_point_set(p)

    @pytest.mark.parametrize("backend, trace", [
        pytest.param("rational", lambda: point_set_to_obj(
            *construct_acute_cube(ConstructionConfig(dim=2)))["trace"],
            id="trace-of-d2"),
        pytest.param("float64", lambda: point_set_to_obj(
            *construct_acute_cube(ConstructionConfig(dim=3)))["trace"],
            id="rational-trace"),
        pytest.param("rational", lambda: {"dim": 7, "backend": "decimal",
                                          "vertex_order": [], "steps": []},
                     id="dim7-decimal"),
    ])
    def test_trace_must_match_the_set(self, tmp_path, backend, trace):
        ps, _ = construct_acute_cube(ConstructionConfig(dim=3,
                                                        backend=backend))
        obj = point_set_to_obj(ps)
        obj["trace"] = trace()
        path = write_json(tmp_path / "bad.json", obj)
        with pytest.raises(ParseError, match="trace is for dim"):
            load_point_set(path)

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda t: t.update(vertex_order=[], steps=[]),
                     id="empty"),
        pytest.param(lambda t: t.update(vertex_order=[0, 1, 2],
                                        steps=t["steps"][:3]),
                     id="three-steps"),
        pytest.param(lambda t: [st.update(index=7) for st in t["steps"]],
                     id="every-index-7"),
    ])
    def test_trace_must_describe_the_set(self, tmp_path, mutate):
        obj = point_set_to_obj(*construct_acute_cube(
            ConstructionConfig(dim=3)))
        mutate(obj["trace"])
        path = write_json(tmp_path / "bad.json", obj)
        with pytest.raises(ParseError):
            load_point_set(path)

    @pytest.mark.parametrize("index", [1.9, "1", True])
    def test_trace_index_must_be_a_json_integer(self, tmp_path, capsys,
                                                index):
        # Each of these once loaded as vertex 1.
        obj = point_set_to_obj(*construct_acute_cube(
            ConstructionConfig(dim=3)))
        for st in obj["trace"]["steps"]:
            if st["index"] == 1:
                st["index"] = index
        path = write_json(tmp_path / "bad.json", obj)
        assert main(["verify", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: trace step index must be an "
                                f"integer, got {index!r}\n")

    def test_trace_of_a_huge_dim_is_refused_at_once(self, tmp_path):
        # No set or trace of this dim could be checked against 2**(dim - 1)
        # steps by building that number.
        dim = 10 ** 15
        path = write_json(tmp_path / "huge.json", {
            "backend": "rational", "dim": dim, "points": [],
            "trace": {"dim": dim, "backend": "rational",
                      "vertex_order": [], "steps": []}})
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="steps"):
            load_point_set(path)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("dim", [2.9, "2", True, 2.0, 0, -2, None, [2]])
    def test_dim_must_be_a_json_integer(self, tmp_path, dim):
        # Points of the width int(dim) would give, where there is one.
        width = 1 if dim is True else 2
        rows = [[str(k)] + ["0"] * (width - 1) for k in range(3)]
        path = write_json(tmp_path / "bad.json",
                          square_obj(dim=dim, points=rows))
        with pytest.raises(ParseError):
            load_point_set(path)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_point_set(p)

    def test_huge_coordinate_refused_at_once(self, tmp_path):
        rows = [["1" * 10 ** 6, "0"], ["0", "1"], ["1", "0"]]
        path = write_json(tmp_path / "huge.json", square_obj(points=rows))
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            load_point_set(path)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("digits", [5000, 10 ** 5])
    def test_huge_json_integer_is_a_parse_error(self, tmp_path, digits):
        # 5000 digits parse as an int but overflow float64; 10**5 digits
        # exceed the digit guard itself.
        p = tmp_path / "huge.json"
        p.write_text('{"backend":"float64","dim":1,"points":[['
                     + "7" * digits + ']]}')
        with pytest.raises(ParseError):
            load_point_set(p)

    @pytest.mark.parametrize("raw", [
        "+".join(["0x1p0"] * 10 ** 6),
        "+".join(f"0x1p{k}" for k in range(2 * _MAX_TERMS)),
        "0x1p-" + "9" * 10 ** 6,
        "0x1p-" + "9" * 1001,
        "0x" + "f" * _MAX_COORD_CHARS + "p0",
        "0x1p0/0x2", "0x1p0/0x0", "0x1p0/0x",
        "0x1Fp0", "0X1p0", "0x1p0/0x1F", "0x1_0p0", "0x1p1_0",
        "0xp0", "0x1p", "0x1p0-", "0x1p00x1p0", "+0x1p0", "0x1p+1",
        "0x1p-70000/0x3", "0x1p-" + "9" * 100 + "/0x3",
    ], ids=["1e6-terms", "terms-over-cap", "1e6-digit-exponent",
            "1001-digit-exponent", "long-coefficient", "even-denominator",
            "zero-denominator", "empty-denominator", "uppercase-digit",
            "uppercase-x", "uppercase-denominator", "underscore",
            "underscore-exponent", "no-digits", "no-exponent",
            "trailing-sign", "no-sign", "leading-plus", "plus-exponent",
            "beyond-fraction-over-3", "huge-exponent-over-3"])
    def test_hostile_binary_coordinate_refused_at_once(self, tmp_path, raw):
        path = write_json(tmp_path / "bad.json",
                          square_obj(points=[[raw, "0"], ["0", "1"],
                                             ["1", "0"]]))
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            load_point_set(path)
        assert time.perf_counter() - t0 < 1.0

    def test_d10_exponents_load(self, tmp_path):
        # The deepest scale of the d = 10 ladder has a 123-digit exponent.
        deep = "0x1p-" + "9" * 123
        path = write_json(tmp_path / "deep.json", {
            "backend": "rational", "dim": 1,
            "points": [["0/1"], [deep], ["0x1p0-" + deep]]})
        ps, _ = load_point_set(path)
        assert ps.points[1][0] == Dyadic.pow2(-int("9" * 123))

    # Files the reader refuses. The first two fail inside json and csv
    # with errors other than ValueError: 200 000 nested brackets
    # (RecursionError), and a field longer than csv's field limit
    # (csv.Error).
    HOSTILE = {
        "deep.json": ('{"backend":"rational","dim":2,"points":'
                      + "[" * 200_000 + "]" * 200_000 + "}"),
        "long.csv": "x0,x1\n" + "1" * 200_000 + ",1\n",
        "empty.csv": "",
        "short-row.csv": "x0,x1\n0,0\n1\n0,1\n",
        "word.csv": "x0,x1\n0,0\n1,abc\n0,1\n",
        "inf.csv": "x0,x1\n0,0\n1,inf\n0,1\n",
        "nan.csv": "x0,x1\nnan,1\n0,0\n0,1\n",
        "duplicate.csv": "x0,x1\n0,0\n1,0\n1,0\n",
        **{f"{name}.json": ('{"backend":"float64","dim":2,"points":'
                            f'[[0,0],[1,{x}],[0,1]]}}')
           for name, x in [("string", '"0"'), ("true", "true"),
                           ("1e400", "1e400"), ("400-digits", "9" * 400)]},
        "array.json": '[{"backend":"float64","dim":1,"points":[[0]]}]',
    }

    @pytest.mark.parametrize("name", HOSTILE)
    def test_hostile_file_is_a_parse_error(self, tmp_path, capsys, name):
        p = tmp_path / name
        p.write_text(self.HOSTILE[name])
        with pytest.raises(ParseError):
            load_point_set(p)
        assert main(["verify", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_point_set(tmp_path / "absent.json")

    def test_unknown_extension_sniffs_content(self, tmp_path):
        p = tmp_path / "set.dat"
        p.write_text(dumps_canonical(square_obj()))
        loaded, _ = load_point_set(p)
        assert len(loaded) == 4


class TestCli:
    def test_generate_d3(self, capsys):
        assert main(["generate", "3"]) == 0
        out = capsys.readouterr().out
        assert "points=5" in out
        assert "margin=" in out

    def test_generate_d5_float_fails_cleanly(self, capsys):
        assert main(["generate", "5", "--mode", "float"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "float64" in err

    def test_generate_writes_json(self, tmp_path, capsys):
        out = tmp_path / "d3.json"
        assert main(["generate", "3", "--out", str(out)]) == 0
        loaded, trace = load_point_set(out)
        assert len(loaded) == 5
        assert trace is not None

    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "d3.csv"
        assert main(["generate", "3", "--mode", "float",
                     "--out", str(out), "--format", "csv"]) == 0
        loaded, _ = load_point_set(out)
        assert len(loaded) == 5

    def test_verify_acute_failure_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path / "sq.json", square_obj())
        assert main(["verify", path]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is False
        assert report["margin"] == "0/1"
        assert report["witness"]["apex"] == 0

    def test_verify_nonobtuse_passes(self, tmp_path, capsys):
        path = write_json(tmp_path / "sq.json", square_obj())
        assert main(["verify", path, "--check", "nonobtuse"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    @pytest.mark.parametrize("name", ["square", "d4"])
    def test_verify_verdict_mode(self, tmp_path, capsys, name):
        if name == "square":
            path = write_json(tmp_path / "sq.json", square_obj())
        else:
            path = tmp_path / "d4.json"
            save_point_set(path, construct_full(ConstructionConfig(dim=4))[0])
        code = main(["verify", str(path), "--mode", "verdict"])
        got = json.loads(capsys.readouterr().out)
        want = _report_obj(verify_acute(load_point_set(path)[0],
                                        mode="verdict"))
        assert want["verdict"] == (name == "d4")
        assert code == (0 if want["verdict"] else 3)
        del got["elapsed"], want["elapsed"]
        assert got == want

    def test_verify_nonobtuse_verdict_mode(self, tmp_path, capsys):
        path = write_json(tmp_path / "sq.json", square_obj())
        assert main(["verify", path, "--check", "nonobtuse",
                     "--mode", "verdict"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == "nonobtuse" and report["verdict"] is True
        assert report["margin"] is None and report["witness"] is None
        assert report["triples_checked"] == 4

    def test_verify_antipodal(self, tmp_path, capsys):
        ps, _, _ = construct_full(ConstructionConfig(dim=3))
        p = tmp_path / "d3.json"
        save_point_set(p, ps)
        assert main(["verify", str(p), "--check", "antipodal"]) == 0

    def test_verify_antipodal_refuses_verdict_mode(self, tmp_path, capsys):
        path = write_json(tmp_path / "sq.json", square_obj())
        assert main(["verify", path, "--check", "antipodal",
                     "--mode", "verdict"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --mode verdict applies to --check "
                                "acute and nonobtuse only\n")

    def test_verify_generated_set_round_trip(self, tmp_path, capsys):
        out = tmp_path / "d4.json"
        assert main(["generate", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == "acute"
        assert report["verdict"] is True

    @pytest.mark.parametrize("check", ["acute", "nonobtuse", "antipodal"])
    def test_verify_overflowing_float_diameter_exits_2(self, tmp_path,
                                                       capsys, check):
        path = write_json(tmp_path / "big.json", {
            "backend": "float64", "dim": 2,
            "points": [[0.0, 0.0], [1e200, 0.0], [0.0, 1e200]]})
        assert main(["verify", path, "--check", check]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the float64 squared diameter "
                                       "is inf")

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_generate_unwritable_out_exits_2(self, tmp_path, capsys, where):
        out = {"missing-dir": tmp_path / "missing" / "x.json",
               "a-dir": tmp_path}[where]
        assert main(["generate", "3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["--out", "missing/x.json"],
        ["--out", "."],
        ["--mode", "exact", "--format", "csv", "--out", "x.csv"],
    ])
    def test_generate_refuses_its_out_before_the_build(self, argv, tmp_path,
                                                        monkeypatch, capsys):
        def build(cfg):
            raise AssertionError("construct_full was called")
        monkeypatch.setattr(cli, "construct_full", build)
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_verify_corrupt_input(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["verify", str(p)]) == 2
        assert capsys.readouterr().err

    def test_verify_report_is_canonical_json(self, tmp_path, capsys):
        path = write_json(tmp_path / "sq.json", square_obj())
        main(["verify", path])
        raw = capsys.readouterr().out
        assert raw == dumps_canonical(json.loads(raw))

    def test_table_frozen_row(self, capsys):
        assert main(["table", "2", "7"]) == 0
        out = capsys.readouterr().out
        assert "17 | 31 | 13 | 1 | 9 | 2" in out     # d = 5
        assert "fib" in out.splitlines()[0]

    def test_table_bad_range(self, capsys):
        assert main(["table", "6", "3"]) == 2

    def test_table_refuses_rows_python_cannot_print(self, capsys):
        # 2**14285 - 1 has 4301 digits, one past CPython's default limit:
        # refused before the header, not after the rows below it.
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["table", "14280", "14290"]) == 2
            refused = capsys.readouterr()
            assert main(["table", "14284", "14284"]) == 0
        finally:
            sys.set_int_max_str_digits(before)
        assert refused.out == "" and refused.err.count("\n") == 1
        assert refused.err.startswith("error: dmax 14290: ")
        row = capsys.readouterr().out.splitlines()[1].split(" | ")
        assert len(row[2]) == 4300

    def test_baseline_runs(self, capsys):
        assert main(["baseline", "3", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "points=" in out and "target=17" not in out

    def test_baseline_of_two_points_has_no_margin(self, capsys):
        assert main(["baseline", "2", "--trials", "1"]) == 0
        assert capsys.readouterr().out == "points=1 target=3 margin=n/a\n"

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])          # missing dim
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [
        ["--schedule", "geometric"], ["--s1", "1/10"], ["--gamma", "1/4"]],
        ids=["schedule", "s1", "gamma"])
    def test_generate_has_no_schedule_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "3", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_generate_exact_margin_rendering(self, capsys):
        assert main(["generate", "4"]) == 0
        out = capsys.readouterr().out
        assert "margin=" in out

    def test_generate_d6_prints_dyadic_margin_scale(self, capsys):
        # Both margins lie below the float range: d = 5's is a Fraction and
        # d = 6's a Dyadic, and each prints its binary scale. (d = 5 joined
        # this test as a case, so that its id is kept.)
        for d, points, scale in ((5, 17, -16031), (6, 33, -105225310)):
            assert main(["generate", str(d)]) == 0
            out = capsys.readouterr().out
            assert f"points={points} margin=exact>0 (~2^{scale}) " in out

    @pytest.mark.parametrize("margin, text", [
        (F(1, 2 ** 2000), "exact>0 (~2^-2000)"),
        (F(-1, 2 ** 2000), "exact<0 (~-2^-2000)"),
        (F(10 ** 400), "exact>0 (~2^1328)"),
        (F(-10 ** 400), "exact<0 (~-2^1328)"),
        (F(0), "0/1 (0)"),
        (F(-1, 3), "-1/3 (-0.333333)"),
        # The bit lengths' difference is one too high when |p| < q * 2**e.
        (F(1, 3 * 2 ** 2000), "exact>0 (~2^-2002)"),
        (F(2 ** 2000 + 1, 3), "exact>0 (~2^1998)"),
        # Over 140 bits but inside the float range: the float alone.
        (F(2 ** 200 + 1, 2 ** 200), "1"),
        (-2.5, "-2.5"),
        (10 ** 400, "exact>0 (~2^1328)"),
        (-Dyadic.pow2(-10 ** 8), "exact<0 (~-2^-100000000)"),
    ])
    def test_fraction_margins_beyond_float_print_their_scale(self, margin,
                                                             text):
        assert brief(margin) == text

    def test_generate_d8_json_verifies(self, tmp_path, capsys):
        # Exact sets with d >= 6 hold values no "p/q" can; the binary form
        # writes their terms, and `acuta verify` re-certifies the file.
        out = tmp_path / "d8.json"
        assert main(["generate", "8", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        got = json.loads(capsys.readouterr().out)
        _, _, want = construct_full(ConstructionConfig(dim=8))
        margin = _parse_coord(got["margin"], "rational")
        assert margin == want.margin
        assert floor_log2(margin) == floor_log2(want.margin)
        assert [got["witness"]["apex"], *got["witness"]["legs"]] == list(
            want.witness.indices())

    def test_verify_d5_stdout_is_unchanged(self, tmp_path, capsys):
        # The sha256 of the report of the parent of the binary form, with
        # its elapsed time cut out: reports keep decimal "p/q".
        out = tmp_path / "d5.json"
        assert main(["generate", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        text = re.sub(r'"elapsed":[0-9.e-]+,', "", capsys.readouterr().out)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "75bf70ccc918f6fe6484ca208a7d97a5dcaca422cf0fe9accfd39c71412a20fb")

    def test_verify_refuses_a_quadratic_merge_at_once(self, tmp_path,
                                                      capsys):
        # Three points in R^2, each coordinate 1024 one-bit terms, the 6144
        # exponents 67 apart: a 72 kB file whose pair sums tie, so the
        # merge that ranks them would take one step per pair, 18.9 million,
        # before the exact Gram was built.
        points = [["+".join(f"0x1p-{67 * (6 * t + 2 * p + c)}"
                            for t in range(_MAX_TERMS)) for c in range(2)]
                  for p in range(3)]
        path = write_json(tmp_path / "merge.json", {
            "backend": "rational", "dim": 2, "points": points})
        assert 70_000 < Path(path).stat().st_size < 75_000
        t0 = time.perf_counter()
        assert main(["verify", path]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: the pair sums of 6144 distinct "
                              "exponents take more than 90112 merge steps")


class TestObjShape:
    def test_point_set_obj_has_expected_keys(self):
        ps, trace = construct_acute_cube(ConstructionConfig(dim=2))
        obj = point_set_to_obj(ps, trace=trace)
        assert set(obj) == {"backend", "dim", "points", "trace"}
        assert obj["points"][0] == ["0/1", "0/1"]
