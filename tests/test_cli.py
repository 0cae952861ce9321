import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from chambers import cli
from chambers import generators as gn
from chambers import spectrum as sp
from chambers.cli import main
from chambers.projective import ProjArrangement, dump_arrangement
from chambers.toric import ToricArrangement, dump_toric
from chambers.generators import double_pencil, general_position, toric_construction_b

TRIANGLE = ProjArrangement(2, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    dump_arrangement(TRIANGLE, str(path))
    return str(path)


@pytest.fixture
def toric_file(tmp_path):
    path = tmp_path / "toric.json"
    dump_toric(toric_construction_b(4, 2, 3), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCount:
    def test_zaslavsky(self, capsys, triangle_file):
        code, out = run(capsys, "count", "--engine", "zaslavsky", triangle_file)
        assert code == 0
        assert json.loads(out) == {"f": 4}

    def test_oracle_agrees(self, capsys, triangle_file):
        code, out = run(capsys, "count", "--engine", "oracle", triangle_file)
        assert code == 0
        assert json.loads(out) == {"f": 4}

    def test_toric_exact_and_cube(self, capsys, toric_file):
        code, out = run(capsys, "count", toric_file)
        assert code == 0
        assert json.loads(out) == {"f": 7}
        code, out = run(capsys, "count", "--engine", "cube", toric_file)
        assert code == 0
        assert json.loads(out) == {"f": 7}

    def test_cube_engine_rejected_for_projective(self, capsys, triangle_file):
        code, out = run(capsys, "count", "--engine", "cube", triangle_file)
        assert code == 2
        assert out == ""

    def test_toric_past_the_cube_guards(self, capsys, tmp_path):
        path = tmp_path / "t5.json"
        dump_toric(toric_construction_b(20, 5, 2), str(path))
        for engine in ("auto", "cube"):
            code, out = run(capsys, "count", "--engine", engine, str(path))
            assert code == 0
            assert json.loads(out) == {"f": 32}
        # the sweep counts b(400, 2, 9); the cube engine's programs overrun the budget
        path = tmp_path / "b400.json"
        dump_toric(toric_construction_b(400, 2, 9), str(path))
        code, out = run(capsys, "count", str(path))
        assert code == 0
        assert json.loads(out) == {"f": 805}
        self.refused_quickly(capsys, path, "--engine", "cube")

    @staticmethod
    def refused_quickly(capsys, path, *flags):
        start = time.perf_counter()
        code = main(["count", *flags, str(path)])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_oversize_toric_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        dump_toric(ToricArrangement.make(2, [((1, 10 ** 6), 0), ((1, -10 ** 6), 0)]),
                   str(path))
        self.refused_quickly(capsys, path)

    def test_steep_normal_is_refused_by_the_cube_engine(self, capsys, tmp_path):
        # (10^9, 1) . x = 0 meets the unit square in 10^9 + 2 translates
        path = tmp_path / "steep.json"
        dump_toric(ToricArrangement.make(2, [((10 ** 9, 1), 0)]), str(path))
        self.refused_quickly(capsys, path, "--engine", "cube")

    def test_high_dimensional_toric_is_usage_error(self, capsys, tmp_path):
        # each restriction would build a 2000 x 2000 unimodular basis
        path = tmp_path / "t2000.json"
        dump_toric(ToricArrangement.make(2000, [(tuple(int(i == j) for i in range(2000)), 0)
                                                for j in range(3)]), str(path))
        self.refused_quickly(capsys, path)

    @pytest.mark.parametrize("d", [50, 2000])
    def test_high_dimensional_toric_is_refused_by_the_cube_engine(self, capsys, tmp_path, d):
        # T^50 is refused by its programs' (d + 2)^3 charges, T^2000 by its lift
        path = tmp_path / "coordinates.json"
        dump_toric(ToricArrangement.make(d, [(tuple(int(i == j) for i in range(d)), 0)
                                             for j in range(3)]), str(path))
        self.refused_quickly(capsys, path, "--engine", "cube")

    @pytest.mark.parametrize("d,a", [(0, []), (-1, [1])])
    def test_toric_dimension_below_one_is_named(self, capsys, tmp_path, d, a):
        path = tmp_path / "t0.json"
        path.write_text(json.dumps({"type": "toric", "d": d, "subtori": [{"a": a, "c": "0"}]}))
        code = main(["count", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: torus dimension must be >= 1, got d = {d}\n"

    @pytest.mark.parametrize("arr", [
        # the 25 coordinate hyperplanes of RP^24 would sweep for minutes
        ProjArrangement(24, tuple(tuple(int(i == j) for j in range(25)) for i in range(25))),
        general_position(25, 10),
    ], ids=["rp24-coordinates", "gp-25-10"])
    def test_oversize_projective_is_usage_error(self, capsys, tmp_path, arr):
        path = tmp_path / "huge.json"
        dump_arrangement(arr, str(path))
        self.refused_quickly(capsys, path)

    @pytest.mark.parametrize("d", [4, 5])
    def test_oversize_projective_is_refused_by_the_oracle(self, capsys, tmp_path, d):
        path = tmp_path / "gp.json"
        dump_arrangement(general_position(24, d), str(path))
        self.refused_quickly(capsys, path, "--engine", "oracle")

    @pytest.mark.parametrize("argv", [["--refinement", "2"], ["--engine", "grid"]])
    def test_grid_options_are_gone(self, capsys, toric_file, argv):
        with pytest.raises(SystemExit) as exc:
            main(["count", *argv, toric_file])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "count", "no-such-file.json")
        assert code == 2

    def test_oracle_engine_rejected_for_toric(self, capsys, toric_file):
        code, out = run(capsys, "count", "--engine", "oracle", toric_file)
        assert code == 2
        assert out == ""

    def test_zaslavsky_engine_rejected_for_toric(self, capsys, toric_file):
        code = main(["count", "--engine", "zaslavsky", toric_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "projective arrangements only" in captured.err

    def test_internal_fault_is_not_usage_error(self, capsys, monkeypatch, triangle_file):
        def broken(arr):
            raise RuntimeError("invariant failed")

        monkeypatch.setattr(cli, "count_regions_projective", broken)
        code = main(["count", triangle_file])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "internal error: invariant failed\n"

    @pytest.mark.parametrize("argv", [["count"], ["gen", "cone", "--base"]])
    def test_deeply_nested_file_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path} is nested too deeply to read as JSON\n"

    @pytest.mark.parametrize("payload", [
        {"type": "projective", "d": 2},
        {"type": "projective", "d": 2, "covectors": "1 0 0"},
        {"type": "projective", "d": 2.0, "covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        {"type": "toric", "d": 2},
        {"type": "toric", "d": 2, "subtori": [{"c": "1/2"}]},
        {"type": "toric", "d": 2, "subtori": [{"a": "10", "c": "1/2"}]},
        {"type": "toric", "d": 2, "subtori": [{"a": [1, 0], "c": 0.5}]},
        ["not", "an", "object"],
    ])
    def test_malformed_file_is_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = main(["count", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("covectors,violation", [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-2, 0, 0]], "DuplicateHyperplane: 0 and 3"),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "CommonPoint: covector matrix rank below d+1"),
    ])
    @pytest.mark.parametrize("argv", [["count"], ["count", "--engine", "oracle"],
                                      ["gen", "cone", "--base"],
                                      ["gen", "two-extra", "--base"]])
    def test_invalid_projective_file_is_usage_error(self, capsys, tmp_path, argv,
                                                    covectors, violation):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"type": "projective", "d": 2, "covectors": covectors}))
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {violation}\n"


# Inputs that reach a reader or a listing: each is refused, exit 2 within a
# second, by a message that names the field, the flag or the size at fault.
NOT_RATIONALS = ["1_0/3", "0.5", " 1/2", "1/2 ", "1e10000000", "\u0663", "1/-2", "1/+2",
                 "1" * 5000, "1/" + "1" * 5000, "1/0"]
NOT_INTEGERS = ["1_0", "\u0663", " 7 ", "1e3", "7.0", "1" * 5000]


class TestDoor:
    @staticmethod
    def refused(capsys, argv, named):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert named in captured.err

    @pytest.mark.parametrize("text", NOT_RATIONALS)
    def test_toric_offset_outside_the_grammar(self, capsys, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"type": "toric", "d": 2, "subtori": [
            {"a": ["1", "0"], "c": "1/3"}, {"a": ["0", "1"], "c": text}]}))
        self.refused(capsys, ["count", str(path)], "subtori[1].c: ")

    @pytest.mark.parametrize("text", NOT_INTEGERS)
    def test_toric_normal_entry_outside_the_grammar(self, capsys, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"type": "toric", "d": 2, "subtori": [
            {"a": ["1", text], "c": "0"}]}))
        self.refused(capsys, ["count", str(path)], "subtori[0].a: ")

    @pytest.mark.parametrize("text", NOT_INTEGERS)
    def test_covector_entry_outside_the_grammar(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"type": "projective", "d": "2",
                                    "covectors": [["1", "0", "0"], ["0", "1", "0"],
                                                  ["0", "0", text]]}))
        self.refused(capsys, ["count", str(path)], "covectors[2]: ")

    @pytest.mark.parametrize("text", NOT_INTEGERS)
    def test_dimension_outside_the_grammar(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"type": "projective", "d": text,
                                    "covectors": [["1", "0"], ["0", "1"]]}))
        self.refused(capsys, ["count", str(path)], "d: ")

    @pytest.mark.parametrize("data, named", [
        ({"type": "projective", "d": 2,
          "covectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, "BIG"]]}, "covectors[3]: "),
        ({"type": "toric", "d": 2,
          "subtori": [{"a": [1, 0], "c": "0"}, {"a": [1, "BIG"], "c": "0"}]}, "subtori[1].a: "),
    ], ids=["covector", "toric-normal"])
    def test_oversize_json_integer_names_its_field(self, capsys, tmp_path, data, named):
        # "BIG" becomes a JSON number of 5000 digits, which json.dumps cannot write
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data).replace('"BIG"', "1" * 5000))
        self.refused(capsys, ["count", str(path)],
                     f"{named}5000 digits, more than the 4300 an integer may have")

    def test_projective_arrangement_too_large_to_check(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"type": "projective", "d": 200, "covectors": [
            [str((7 * i + 3 * j) % 19 - 9) for j in range(201)] for i in range(201)]}))
        self.refused(capsys, ["count", str(path)], "the construction check needs more than")
        self.refused(capsys, ["gen", "general-position", "-n", "400", "-d", "200"],
                     "the construction check needs more than")

    @pytest.mark.parametrize("text", NOT_RATIONALS)
    def test_offsets_flag_outside_the_grammar(self, capsys, text):
        self.refused(capsys, ["gen", "toric-b", "-n", "4", "-d", "2", "-k", "1",
                              "--offsets", "1/3", text], "--offsets: ")

    def test_signs_and_leading_zeros_are_in_the_grammar(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"type": "toric", "d": "+02", "subtori": [
            {"a": ["+1", "-0"], "c": "-1/03"}, {"a": ["0", "1"], "c": "+4/2"}]}))
        code, out = run(capsys, "count", str(path))
        assert (code, json.loads(out)) == (0, {"f": 1})

    @pytest.mark.parametrize("argv", [
        ["spectrum", "-n", "4", "-d", "2", "--toric", "--cap", "100000000"],
        ["search", "--space", "toric", "-n", "4", "-d", "2", "--cap", "100000000",
         "--budget", "1"],
    ])
    def test_listing_past_the_budget(self, capsys, argv):
        self.refused(capsys, argv, "cap 100000000")

    @pytest.mark.parametrize("argv, named", [
        (["-n", "1000000", "-d", "100000"], "n = 1000000, d = 100000"),
        (["-n", "100000000", "-d", "10000000", "-m", "20000000"],
         "n = 100000000, d = 10000000, m = 20000000"),
        (["-n", "100000", "-d", "14283"], "14301 bits"),
    ])
    def test_bounds_too_long_to_print(self, capsys, argv, named):
        self.refused(capsys, ["bounds", *argv], named)

    def test_bounds_just_short_enough_to_print(self, capsys):
        code, out = run(capsys, "bounds", "-n", "3000", "-d", "1500", "-m", "3000")
        assert code == 0
        rows = {r["bound"]: r for r in json.loads(out)}
        assert len(str(rows["mcmullen"]["ceil"])) == 455


class TestBounds:
    def test_table_contains_product_bound(self, capsys):
        code, out = run(capsys, "bounds", "-n", "11", "-d", "3", "-m", "5")
        assert code == 0
        rows = {r["bound"]: r for r in json.loads(out)}
        assert rows["multiplicity_product"]["ceil"] == 56
        # 3 * (C(11,3)/C(5,3) + C(11,1)/C(3,1)) = 3 * (33/2 + 11/3)
        assert rows["multiplicity_sum"]["value"] == "121/2"
        assert rows["multiplicity_sum"]["ceil"] == 61
        assert rows["mcmullen"]["ceil"] == 36


class TestSpectrum:
    def test_first_four(self, capsys):
        code, out = run(capsys, "spectrum", "--first-four", "-n", "11", "-d", "3")
        assert code == 0
        assert json.loads(out) == [36, 48, 50, 56]

    def test_toric(self, capsys):
        code, out = run(capsys, "spectrum", "--toric", "-n", "4", "-d", "2",
                        "--cap", "8")
        assert code == 0
        assert json.loads(out) == [3, 4, 5, 6, 7, 8]

    def test_no_mode_is_usage_error(self, capsys):
        code, _ = run(capsys, "spectrum", "-n", "11", "-d", "3")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--martinov", "-n", "9", "-d", "5"],
         "-d 5 does not apply: --martinov lists counts in RP^2"),
        (["--low-range-3d", "-n", "50", "-d", "4"],
         "-d 4 does not apply: --low-range-3d lists counts in RP^3"),
        (["--first-four", "-n", "11", "-d", "3", "--cap", "40"],
         "--cap applies to --toric only"),
        (["--martinov", "-n", "9", "--cap", "40"], "--cap applies to --toric only"),
    ])
    def test_flag_the_mode_does_not_read_is_usage_error(self, capsys, argv, message):
        code = main(["spectrum", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,want", [
        (["--martinov", "-n", "9"], [16, 21, 22, 24]),
        (["--martinov", "-n", "9", "-d", "2"], [16, 21, 22, 24]),
        (["--first-four", "-n", "11"], [36, 48, 50, 56]),
    ])
    def test_mode_dimension_may_be_given_or_left_out(self, capsys, argv, want):
        code, out = run(capsys, "spectrum", *argv)
        assert (code, json.loads(out)) == (0, want)


class TestGen:
    def test_double_pencil_expect(self, capsys, tmp_path):
        out_path = tmp_path / "dp.json"
        code, _ = run(capsys, "gen", "double-pencil", "-a", "3", "-b", "4",
                      "--common", "-o", str(out_path), "--expect")
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["type"] == "projective"
        assert len(data["covectors"]) == 6

    def test_toric_b_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "b.json"
        code, _ = run(capsys, "gen", "toric-b", "-n", "4", "-d", "2", "-k", "3",
                      "-o", str(out_path), "--expect")
        assert code == 0
        arr = ToricArrangement.from_json(json.loads(out_path.read_text()))
        assert arr.n == 4

    def test_negative_offset_is_a_value(self, capsys, tmp_path):
        # -3/5 is 2/5 mod 1, so both offset lists give the same arrangement
        files = []
        for offsets in (["1/7", "-3/5"], ["1/7", "2/5"]):
            files.append(tmp_path / f"b{len(files)}.json")
            code, _ = run(capsys, "gen", "toric-b", "-n", "4", "-d", "2", "-k", "3",
                          "--offsets", *offsets, "-o", str(files[-1]), "--expect")
            assert code == 0
        assert files[0].read_text() == files[1].read_text()

    def test_gen_to_stdout(self, capsys):
        code, out = run(capsys, "gen", "near-pencil", "-n", "6")
        assert code == 0
        assert json.loads(out)["type"] == "projective"

    @pytest.mark.parametrize("argv,flag", [
        (["general-position"], "-n and -d"),
        (["general-position", "-n", "8"], "-d"),
        (["double-pencil", "-a", "3"], "-b"),
        (["near-pencil"], "-n"),
        (["cone"], "--base"),
        (["two-extra"], "-n"),
        (["toric-a", "-n", "3"], "-d"),
        (["toric-b", "-d", "2"], "-n"),
    ])
    def test_missing_flag_is_usage_error(self, capsys, argv, flag):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: family {argv[0]!r} needs {flag}\n"

    @pytest.mark.parametrize("argv,flags", [
        (["near-pencil", "-n", "5", "-d", "7", "-k", "3"], "-d and -k"),
        (["general-position", "-n", "5", "-d", "2", "--no-common"], "--no-common"),
        (["double-pencil", "-a", "3", "-b", "4", "--common", "--extras", "2"], "--extras"),
        (["two-extra", "-n", "9", "--line-in-union", "--offsets", "1/2"], "--offsets"),
        (["toric-b", "-n", "4", "-d", "2", "-k", "3", "--coincidences", "0"],
         "--coincidences"),
    ])
    def test_flag_the_family_does_not_read_is_usage_error(self, capsys, argv, flags):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: family {argv[0]!r} does not read {flags}\n"

    def test_two_extra_over_a_base_does_not_read_n(self, capsys, tmp_path):
        path = tmp_path / "base.json"
        dump_arrangement(double_pencil(3, 4, True), str(path))
        assert main(["gen", "two-extra", "--base", str(path), "--coincidences", "1"]) == 0
        capsys.readouterr()
        assert main(["gen", "two-extra", "--base", str(path), "-n", "9"]) == 2
        assert capsys.readouterr().err == "error: family 'two-extra' does not read -n\n"

    @pytest.mark.parametrize("family", ["cone", "two-extra"])
    def test_toric_base_is_usage_error(self, capsys, toric_file, family):
        code = main(["gen", family, "--base", toric_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: not a projective arrangement file\n"

    def test_bad_params_exit_2(self, capsys):
        code, _ = run(capsys, "gen", "double-pencil", "-a", "1", "-b", "4")
        assert code == 2

    @pytest.mark.parametrize("base,pair,f", [
        (general_position(5, 2), ("0", "1"), 37),  # mu = 2: 3 * 11 + 5 - 1
        (double_pencil(3, 4, True), ("0", "3"), 39),  # mu = 4: 3 * 12 + 6 - 3
        (double_pencil(3, 4, True), ("1", "3"), 41),  # mu = 2
        (double_pencil(3, 4, True), ("0", "1"), 40),  # mu = 3, at (0, 0, 1)
    ])
    def test_cone_through_point_expect(self, capsys, tmp_path, base, pair, f):
        path = tmp_path / "base.json"
        dump_arrangement(base, str(path))
        code = main(["gen", "cone", "--base", str(path), "--extras", "2",
                     "--through", *pair, "--expect"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert captured.err == f"count verified: f = {f}\n"

    def test_unplaceable_coincidences_name_their_count(self, capsys):
        # near_pencil(9) has no crossings whose savings add up to 9
        code = main(["gen", "two-extra", "-n", "11", "--coincidences", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: 9 trace coincidences are not realizable over this base\n"

    @pytest.mark.parametrize("argv", [
        ["--extras", "2", "--through", "0", "9"],
        ["--extras", "2", "--through", "-1", "0"],
        ["--extras", "2", "--through", "2", "2"],
        ["--through", "0", "1"],
    ])
    def test_cone_bad_through_point_is_usage_error(self, capsys, tmp_path, argv):
        path = tmp_path / "base.json"
        dump_arrangement(general_position(5, 2), str(path))
        code = main(["gen", "cone", "--base", str(path), *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_expect_without_closed_form_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "base.json"
        dump_arrangement(general_position(5, 2), str(path))
        code = main(["gen", "cone", "--base", str(path), "--extras", "3", "--expect"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: family 'cone' has no closed-form count")


class TestSearch:
    def test_projective_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out = run(capsys, "search", "--space", "projective",
                        "-n", "11", "-d", "3", "--json", str(report_path))
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["unexpected"] == []
        assert set(map(int, payload["found"])) == {36, 48, 50, 56}

    def test_toric_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, _ = run(capsys, "search", "--space", "toric", "-n", "4", "-d", "2",
                      "--cap", "8", "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "f,witness,predicted_member"
        assert len(lines) > 3

    def test_projective_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "table.csv"
        code, _ = run(capsys, "search", "--space", "projective", "-n", "10", "-d", "2",
                      "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "f,witness,predicted_member"
        assert [line.split(",")[0] for line in lines[1:]] == ["18", "24", "25", "28"]
        assert all(line.endswith(",True") for line in lines[1:])

    def test_first_four_in_rp8(self, capsys):
        code, out = run(capsys, "search", "-n", "21", "-d", "8")
        assert code == 0
        report = json.loads(out)
        assert sorted(map(int, report["found"])) == [1792, 2496, 2560, 2912]
        assert report["missing_predicted"] == report["unexpected"] == []

    @pytest.mark.parametrize("argv, witness", [
        (["search", "-n", "11", "-d", "3"], "cone(double_pencil(2, 9, True))"),
        (["verify-acceptance", "--only", "1"], "cone(double_pencil(2, 5, True))"),
    ], ids=["search", "verify-acceptance"])
    def test_catalogue_recipe_that_does_not_build_is_internal_error(
            self, capsys, monkeypatch, argv, witness):
        # every witness of (11, 3) is a cone, and so are some of c1's recipes;
        # a direct `gen` keeps its exit 2 (test_unplaceable_coincidences_name_their_count)
        def broken(base, extras=1):
            raise gn.PlacementError("no apex")

        monkeypatch.setattr(gn, "cone", broken)
        monkeypatch.setattr(sp, "random_arrangements", lambda count, seed: [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"internal error: {witness} did not build: no apex\n"

    def test_plane_below_martinov_range_is_usage_error(self, capsys):
        code = main(["search", "--space", "projective", "-n", "6", "-d", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: (n, d) = (6, 2) outside")

    @pytest.mark.parametrize("flags, message", [
        (("--cap", "-5"), "error: cap must be at least 1, got -5\n"),
        (("--budget", "-1"), "error: budget must be at least 0, got -1\n"),
    ])
    def test_limit_that_cannot_be_honoured_is_usage_error(self, capsys, flags, message):
        code = main(["search", "-n", "11", "-d", "3", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == message


class TestVerifyAcceptance:
    def test_single_fast_criterion(self, capsys):
        code = main(["verify-acceptance", "--only", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS criterion 5" in out

    def test_bound_invariants_run_after_the_others(self, capsys):
        code = main(["verify-acceptance", "--only", "8", "--only", "6", "--only", "7"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split()[2] for line in lines] == ["6", "7", "8"]
        # 22 arrangements from criterion 7 and 24 from criterion 8
        assert "0 violations over 46 counted arrangements" in lines[0]

    def test_bound_invariants_alone_fail(self, capsys):
        code = main(["verify-acceptance", "--only", "6"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("FAIL criterion 6")

    @pytest.mark.parametrize("only", [["0"], ["9"], ["3", "9"]])
    def test_unknown_criterion_is_usage_error(self, capsys, only):
        argv = ["verify-acceptance"]
        for number in only:
            argv += ["--only", number]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: unknown criterion {only[-1]}; "
                                "the criteria are 1..8\n")


SRC = str(Path(__file__).resolve().parents[1] / "src")

COUNT_IN_FRESH_PROCESS = """
import contextlib, io, json, sys
import chambers
from chambers import cli
proj, tor = sys.argv[1:]
counts = []
for argv in (["count", proj], ["count", "--engine", "oracle", proj],
             ["count", tor], ["count", "--engine", "cube", tor]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    counts.append([code, json.loads(out.getvalue())["f"]])
print(json.dumps([counts, sorted(m for m in ("numpy", "scipy") if m in sys.modules)]))
"""

GRID_IN_FRESH_PROCESS = """
import json, sys
from chambers.toric import ToricArrangement, count_regions_toric_grid
assert count_regions_toric_grid(ToricArrangement.make(2, [((1, 0), 0)])) == 1
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def fresh_python(script, *argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestColdStart:
    """Nothing in the package loads numpy or scipy: neither a CLI count nor
    the grid heuristic, the last code that used numpy."""

    def test_counts_load_neither_numpy_nor_scipy(self, triangle_file, toric_file):
        counts, loaded = fresh_python(COUNT_IN_FRESH_PROCESS, triangle_file, toric_file)
        assert counts == [[0, 4], [0, 4], [0, 7], [0, 7]]
        assert loaded == []

    def test_the_grid_loads_neither_numpy_nor_scipy(self):
        assert fresh_python(GRID_IN_FRESH_PROCESS) == []


def invoke(argv):
    """(exit code, stdout, stderr) of `chambers ARGV`, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


SUBCOMMAND_NAMES = ["count", "bounds", "spectrum", "gen", "search", "verify-acceptance"]

# Help and usage errors whose text must not change.  `spectrum -h` and a
# spectrum usage error are pinned as text below: their usage line shows the
# mutually exclusive modes.
SURFACE = [[], ["-h"], ["--help"],
           *([name, "-h"] for name in SUBCOMMAND_NAMES if name != "spectrum"),
           ["frobnicate"], ["count"], ["bounds"], ["gen"], ["search"],
           ["count", "--engine", "bogus", "a.json"], ["count", "a.json", "--bogus"]]
SURFACE_SHA256 = "056e8347e1be790fbcdabf4e4dff6aeca275385377ab9607c3f7049def9cd9fc"

SPECTRUM_USAGE = """\
usage: chambers spectrum [-h] -n N [-d D]
                         [--first-four | --low-range-3d | --toric | --martinov]
                         [--cap CAP]
"""

SEARCH_USAGE = """\
usage: chambers search [-h] [--space {projective,toric}] -n N -d D [--cap CAP]
                       [--budget BUDGET] [--json JSON] [--csv CSV]
"""


class TestSurface:
    """The text and exit codes of help and usage errors, at 80 columns."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_help_and_usage_errors_are_pinned(self):
        rows = [[argv, *invoke(argv)] for argv in SURFACE]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SURFACE_SHA256

    def test_spectrum_help_shows_the_exclusive_modes(self):
        code, out, err = invoke(["spectrum", "-h"])
        assert (code, err) == (0, "")
        assert out == SPECTRUM_USAGE + """
options:
  -h, --help      show this help message and exit
  -n N
  -d D
  --first-four    four smallest counts in RP^d (d >= 3, n >= 2d+5)
  --low-range-3d  all 36 counts up to 12n-60 in RP^3 (n >= 50)
  --toric         predicted toric spectrum up to --cap
  --martinov      plane spectrum members up to 4n-12
  --cap CAP
"""

    def test_spectrum_without_n_is_usage_error(self):
        assert invoke(["spectrum"]) == (2, "", SPECTRUM_USAGE + (
            "chambers spectrum: error: the following arguments are required: -n\n"))

    def test_conflicting_spectrum_modes_are_usage_error(self):
        argv = ["spectrum", "--first-four", "--toric", "-n", "11", "-d", "3"]
        assert invoke(argv) == (2, "", SPECTRUM_USAGE + (
            "chambers spectrum: error: argument --toric: "
            "not allowed with argument --first-four\n"))

    @pytest.mark.parametrize("modes", [
        ("--first-four", "--low-range-3d"), ("--low-range-3d", "--martinov"),
        ("--toric", "--martinov"), ("--martinov", "--first-four", "--toric"),
    ])
    def test_any_two_spectrum_modes_conflict(self, modes):
        code, out, err = invoke(["spectrum", "-n", "11", "-d", "3", *modes])
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_spectrum_without_mode_names_the_modes(self):
        assert invoke(["spectrum", "-n", "11", "-d", "3"]) == (2, "", (
            "choose one of --first-four, --low-range-3d, --toric, --martinov\n"))

    def test_search_cap_that_is_no_integer_names_the_flag(self):
        assert invoke(["search", "-n", "11", "-d", "3", "--cap", "x"]) == (
            2, "", SEARCH_USAGE + ("chambers search: error: argument --cap: "
                                   "expected 'auto' or an integer, got 'x'\n"))


def refuse_to_build(parser):
    raise AssertionError(f"built the sub-parser {parser.prog!r}")


class TestOneSubParser:
    """An invocation that names a subcommand builds that sub-parser only."""

    def test_count_builds_only_its_own_sub_parser(self, monkeypatch, triangle_file):
        table = {name: (help_text, add_arguments if name == "count" else refuse_to_build,
                        handler)
                 for name, (help_text, add_arguments, handler) in cli.SUBCOMMANDS.items()}
        monkeypatch.setattr(cli, "SUBCOMMANDS", table)
        code, out, err = invoke(["count", triangle_file])
        assert (code, json.loads(out), err) == (0, {"f": 4}, "")

    def test_top_level_help_lists_all_six(self):
        code, out, _ = invoke(["-h"])
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("    ")]
        assert listed == SUBCOMMAND_NAMES

    def test_no_parser_outlives_a_call(self, monkeypatch, triangle_file):
        built, build = [], cli.build_parser

        def tracked(names):
            parser = build(names)
            built.append(weakref.ref(parser))
            return parser

        monkeypatch.setattr(cli, "build_parser", tracked)
        assert invoke(["count", triangle_file])[0] == 0
        gc.collect()
        assert len(built) == 1 and built[0]() is None
