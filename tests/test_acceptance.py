"""Acceptance battery, one test per criterion.

The battery runs once per session (it is the expensive part of the suite)
and each test asserts its criterion's verdict, so a red criterion points
straight at the failing requirement.
"""

import hashlib
import json
import re

import pytest

from chambers import acceptance
from chambers import bounds as bd
from chambers import spectrum as sp
from chambers.acceptance import _catalog_small, battery_exit_code, run_battery
from chambers.cli import main


def untimed(lines):
    return [re.sub(r" \(\d+\.\ds\)$", "", line) for line in lines]


@pytest.fixture(scope="module")
def printed():
    lines = []
    results = run_battery(echo=lines.append)
    return results, lines


@pytest.fixture(scope="module")
def battery(printed):
    return {(r.number, r.required): r for r in printed[0]}


def _get(battery, number, required=True):
    return battery[(number, required)]


# sha256 over the describe() strings of c1's catalogue, one per line, as
# taken from the whole catalogues.
CATALOG_SMALL = "9f121a130ed15be7f422cc1d2395ad5da3612bc21529f3a4254c598dfebbcfb7"


def test_c1_catalogue_stops_early_and_is_unchanged(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"built the whole catalogue at {args}")
    monkeypatch.setattr(sp, "projective_recipes", refuse)
    described = [r.describe() for r in _catalog_small()]
    assert len(described) == 116
    assert hashlib.sha256("\n".join(described).encode()).hexdigest() == CATALOG_SMALL


def test_criterion_1_oracle_equivalence(battery):
    result = _get(battery, 1)
    assert result.passed, result.detail


def test_criterion_2_four_smallest_counts(battery):
    result = _get(battery, 2)
    assert result.passed, result.detail


def test_criterion_3_low_spectrum_3d(battery):
    result = _get(battery, 3)
    assert result.passed, result.detail


def test_criterion_3_stretch_all_36(battery):
    # stretch tier: non-blocking, reported but asserted here because the
    # catalogue currently reaches every listed value
    result = _get(battery, 3, required=False)
    assert result.passed, result.detail


def test_criterion_4_toric_constructions(battery):
    result = _get(battery, 4)
    assert result.passed, result.detail


def test_criterion_5_toric_plane_spectrum(battery):
    result = _get(battery, 5)
    assert result.passed, result.detail


def test_criterion_5_fails_when_a_gap_value_is_admitted(monkeypatch):
    # 2(n - d) - 1 lies in the gap at each (n, d) that c5 searches; no
    # construction reaches it, so it must be reported missing
    row = bd.CLAIMS["toric_spectrum"]

    def with_gap_value(n, d):
        low, high = row.intervals(n, d)
        return [low, (2 * (n - d) - 1,) * 2, high]

    monkeypatch.setitem(bd.CLAIMS, "toric_spectrum", row._replace(intervals=with_gap_value))
    [result] = run_battery(only={5}, echo=lambda line: None)
    assert not result.passed
    assert result.detail == ("n=6,d=2: missing [7]; n=7,d=2: missing [9]; "
                             "n=8,d=2: missing [11]; n=8,d=3: missing [9]")


def test_dropping_a_martinov_value_reaches_the_cli_the_search_and_c8(monkeypatch, capsys):
    # 3n - 5 is realizable (double_pencil(2, n - 2, False)); a table without
    # it must change every reader of the martinov row, and c8 must fail
    def readers():
        assert main(["spectrum", "--martinov", "-n", "10"]) == 0
        return json.loads(capsys.readouterr().out), sp.search_projective(10, 2).unexpected

    assert readers() == ([18, 24, 25, 28], [])
    row = bd.CLAIMS["martinov"]
    monkeypatch.setitem(bd.CLAIMS, "martinov", row._replace(
        intervals=lambda n, d: [iv for iv in row.intervals(n, d) if iv != (3 * n - 5,) * 2]))
    assert readers() == ([18, 24, 28], [25])
    [result] = run_battery(only={8}, echo=lambda line: None)
    assert not result.passed
    assert result.detail.startswith("n=7: counted [12, 15, 16], predicted [12, 15]; "
                                    "n=8: counted [14, 18, 19, 20], predicted [14, 18, 20]")


def test_criterion_6_bound_invariants(battery):
    result = _get(battery, 6)
    assert result.passed, result.detail


def test_criterion_7_sharpness(battery):
    result = _get(battery, 7)
    assert result.passed, result.detail


def test_criterion_8_martinov_values(battery):
    result = _get(battery, 8)
    assert result.passed, result.detail


def test_exit_code_contract(battery):
    assert battery_exit_code(list(battery.values())) == 0


# sha256 of the full battery's printed lines, joined by newlines, each
# without its trailing "(x.xs)" timing.
BATTERY_LINES = "51d6eeb5c7787654d30cab70f340ebab0af6cc0aaa3b35b7b0f626cb0f1576fa"


def test_printed_lines_are_pinned(printed):
    lines = untimed(printed[1])
    assert len(lines) == 9
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BATTERY_LINES


def test_criterion_3_prints_its_required_then_its_stretch_line():
    lines = []
    run_battery(only={3}, echo=lines.append)
    assert untimed(lines) == [
        "PASS criterion 3 (low-spectrum-3d): 36 of 36 listed values realized, "
        "nothing unexpected below 540",
        "PASS criterion 3 (low-spectrum-3d-complete) [stretch]: "
        "all 36 listed values witnessed",
    ]


def test_runner_reports_the_first_four_problems(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        (2, "dirty", lambda registry, seed: ([f"p{i}" for i in range(6)], "unused")),
        (1, "clean", lambda registry, seed: ([], f"seed {seed}")),
    ))
    results = run_battery(seed=7, echo=lambda line: None)
    assert [(r.number, r.passed, r.detail) for r in results] == [
        (1, True, "seed 7"), (2, False, "p0; p1; p2; p3")]
    assert battery_exit_code(results) == 1


def test_unknown_criterion_is_refused_before_any_check(monkeypatch):
    def refuse(registry, seed):
        raise AssertionError("ran a check")
    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "one", refuse),))
    with pytest.raises(ValueError, match=r"unknown criterion 0, 9; the criteria are 1\.\.1"):
        run_battery(only={1, 9, 0}, echo=lambda line: None)
