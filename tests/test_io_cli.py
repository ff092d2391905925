import json
import re
import sys
import time
from fractions import Fraction

import pytest

from acuta import (ConstructionConfig, ParseError, PointSet,
                   construct_acute_cube, construct_full, load_point_set,
                   save_point_set, set_margin)
from acuta.cli import main
from acuta.pointset_io import dumps_canonical, point_set_to_obj

F = Fraction

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

    def test_trace_optional(self, tmp_path):
        ps, _, _ = construct_full(ConstructionConfig(dim=2))
        p = tmp_path / "set.json"
        save_point_set(p, ps)
        loaded, trace = load_point_set(p)
        assert trace is None
        assert loaded.points == ps.points


class TestDigitGuard:
    def test_d5_load_leaves_the_guard_alone(self, tmp_path):
        # The d = 5 file holds integers of about 18 000 digits, past
        # CPython's default int<->str guard of 4300; reading it may lift the
        # guard only while it parses.
        ps, trace, _ = construct_full(ConstructionConfig(dim=5))
        p = tmp_path / "d5.json"
        save_point_set(p, ps, trace=trace)
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

    def test_verify_antipodal(self, tmp_path, capsys):
        ps, _, _ = construct_full(ConstructionConfig(dim=3))
        p = tmp_path / "d3.json"
        save_point_set(p, ps)
        assert main(["verify", str(p), "--check", "antipodal"]) == 0

    def test_verify_generated_set_round_trip(self, tmp_path, capsys):
        out = tmp_path / "d4.json"
        assert main(["generate", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check"] == "acute"
        assert report["verdict"] is True

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

    def test_baseline_runs(self, capsys):
        assert main(["baseline", "3", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "points=" in out and "target=17" not in out

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])          # missing dim
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_generate_exact_margin_rendering(self, capsys):
        assert main(["generate", "4"]) == 0
        out = capsys.readouterr().out
        assert "margin=" in out

    def test_generate_d6_prints_dyadic_margin_scale(self, capsys):
        assert main(["generate", "6"]) == 0
        out = capsys.readouterr().out
        assert "points=33" in out
        m = re.search(r"margin=exact>0 \(~2\^(-\d+)\)", out)
        assert m and int(m.group(1)) < -1074   # below the float64 range

    def test_generate_d6_json_refused_at_once(self, tmp_path, capsys):
        # "p/q" would need ~10**8-bit integers; the writer must refuse
        # instead of converting them to decimal.
        out = tmp_path / "d6.json"
        t0 = time.perf_counter()
        assert main(["generate", "6", "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 60
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'p/q'" in err
        assert not out.exists()


class TestObjShape:
    def test_point_set_obj_has_expected_keys(self):
        ps, trace = construct_acute_cube(ConstructionConfig(dim=2))
        obj = point_set_to_obj(ps, trace=trace)
        assert set(obj) == {"backend", "dim", "points", "trace"}
        assert obj["points"][0] == ["0/1", "0/1"]
