import json

import pytest

from chambers import cli
from chambers.cli import main
from chambers.projective import ProjArrangement, dump_arrangement
from chambers.toric import ToricArrangement, dump_toric
from chambers.generators import toric_construction_b

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
        code, out = run(capsys, "count", str(path))
        assert code == 0
        assert json.loads(out) == {"f": 32}
        code = main(["count", "--engine", "cube", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")

    def test_oversize_toric_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        dump_toric(ToricArrangement.make(2, [((1, 10 ** 6), 0), ((1, -10 ** 6), 0)]),
                   str(path))
        code = main(["count", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

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

    @pytest.mark.parametrize("family", ["cone", "two-extra"])
    def test_toric_base_is_usage_error(self, capsys, toric_file, family):
        code = main(["gen", family, "--base", toric_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: not a projective arrangement file\n"

    def test_bad_params_exit_2(self, capsys):
        code, _ = run(capsys, "gen", "double-pencil", "-a", "1", "-b", "4")
        assert code == 2


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


class TestVerifyAcceptance:
    def test_single_fast_criterion(self, capsys):
        code = main(["verify-acceptance", "--only", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS criterion 5" in out
