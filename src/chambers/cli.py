"""Command-line front end.

Subcommands: count, bounds, spectrum, gen, search, verify-acceptance.
JSON on stdout is the canonical output (CSV is offered for spectrum search
tables); diagnostics go to stderr.  All behaviour is driven by flags, never
by environment variables, so runs are reproducible.

Exit codes:
  0  success;
  1  a violation or count mismatch was found;
  2  usage error: a bad flag or input file, or an oversize instance;
  3  internal error: a failed invariant of an engine (a `RuntimeError`).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from . import bounds as bd
from . import generators as gn
from . import spectrum as sp
from .exactlin import format_rational, json_field, parse_rational
from .oracle import count_regions_oracle
from .projective import (
    ProjArrangement,
    count_regions_projective,
    dump_arrangement,
    load_arrangement,
)
from .toric import (
    ToricArrangement,
    count_regions_toric,
    dump_toric,
    torus_decomposition,
)


def _load_any(path: str):
    with open(path) as fh:
        data = json.load(fh)
    kind = json_field(data, "type")
    if kind == "projective":
        return ProjArrangement.from_json(data)
    if kind == "toric":
        return ToricArrangement.from_json(data)
    raise ValueError(f"unknown arrangement type {kind!r}")


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=1, default=str)
    sys.stdout.write("\n")


def cmd_count(args) -> int:
    arr = _load_any(args.file)
    if isinstance(arr, ProjArrangement):
        if args.engine == "cube":
            print("engine 'cube' applies to toric arrangements only", file=sys.stderr)
            return 2
        f = (count_regions_oracle(arr) if args.engine == "oracle"
             else count_regions_projective(arr))
    else:
        if args.engine in ("oracle", "zaslavsky"):
            print(f"engine '{args.engine}' applies to projective arrangements only",
                  file=sys.stderr)
            return 2
        f = (torus_decomposition(arr).f if args.engine == "cube"
             else count_regions_toric(arr))
    _emit({"f": f})
    return 0


def cmd_bounds(args) -> int:
    rows = []
    manifold_bounds = [
        ("homological_rp", bd.bound_homological(args.n, bd.projective_space(args.d))),
        ("homological_torus", bd.bound_homological(args.n, bd.torus(args.d))),
        ("mcmullen", bd.bound_mcmullen(args.n, args.d)),
    ]
    if args.m is not None:
        manifold_bounds += [
            ("multiplicity_sum", bd.bound_multiplicity_sum(args.n, args.d, args.m)),
            ("multiplicity_product",
             bd.bound_multiplicity_product(args.n, args.d, args.m)),
            ("quadratic", bd.bound_quadratic(args.n, args.d, args.m)),
        ]
    for name, bound in manifold_bounds:
        rows.append({"bound": name, "value": format_rational(bound.value),
                     "ceil": bound.ceil})
    _emit(rows)
    return 0


def cmd_spectrum(args) -> int:
    if args.first_four:
        _emit(bd.first_four_counts(args.n, args.d))
    elif args.low_range_3d:
        _emit(bd.low_counts_3d(args.n))
    elif args.toric:
        cap = args.cap if args.cap is not None else 2 * args.n
        _emit(bd.toric_predicted_values(args.n, args.d, cap))
    elif args.martinov:
        _emit(sorted(bd.martinov_subset(args.n)))
    else:
        print("choose one of --first-four, --low-range-3d, --toric, --martinov",
              file=sys.stderr)
        return 2
    return 0


# Flags each family needs; two-extra needs -n only when --base is not given.
_FAMILY_FLAGS = {
    "general-position": ("-n", "-d"),
    "double-pencil": ("-a", "-b"),
    "near-pencil": ("-n",),
    "cone": ("--base",),
    "two-extra": ("-n",),
    "toric-a": ("-n", "-d"),
    "toric-b": ("-n", "-d"),
}


def _build_from_args(args):
    family = args.family
    needed = () if family == "two-extra" and args.base else _FAMILY_FLAGS.get(family, ())
    missing = [flag for flag in needed if getattr(args, flag.lstrip("-")) is None]
    if missing:
        raise ValueError(f"family {family!r} needs {' and '.join(missing)}")
    if family == "general-position":
        arr = gn.general_position(args.n, args.d)
        expected = gn.general_position_count(args.n, args.d)
    elif family == "double-pencil":
        arr = gn.double_pencil(args.a, args.b, args.common)
        expected = gn.double_pencil_count(args.a, args.b, args.common)
    elif family == "near-pencil":
        arr = gn.near_pencil(args.n)
        expected = 2 * args.n - 2
    elif family == "cone":
        base = load_arrangement(args.base)
        point = tuple(args.through) if args.through else None
        arr = gn.cone(base, extras=args.extras,
                      placement="through_chosen_flat" if point else "generic",
                      through_point=point)
        expected = gn.cone_count(count_regions_projective(base), args.extras,
                                 base_n=base.n)
    elif family == "two-extra":
        base = gn.near_pencil(args.n - 2) if args.base is None \
            else load_arrangement(args.base)
        arr = gn.two_extra_planes(base, coincidences=args.coincidences,
                                  line_in_union=args.line_in_union)
        expected = gn.two_extra_planes_count(
            count_regions_projective(base), base.n,
            coincidences=args.coincidences, line_in_union=args.line_in_union)
    elif family == "toric-a":
        offsets = [parse_rational(c) for c in args.offsets] if args.offsets else None
        arr = gn.toric_construction_a(args.n, args.d, args.k, offsets)
        expected = args.n - args.k
    elif family == "toric-b":
        offsets = [parse_rational(c) for c in args.offsets] if args.offsets else None
        arr = gn.toric_construction_b(args.n, args.d, args.k, offsets)
        expected = gn.toric_construction_b_count(args.n, args.d, args.k)
    else:
        raise ValueError(f"unknown family {family!r}")
    return arr, expected


def cmd_gen(args) -> int:
    arr, expected = _build_from_args(args)
    if args.output:
        if isinstance(arr, ProjArrangement):
            dump_arrangement(arr, args.output)
        else:
            dump_toric(arr, args.output)
    else:
        _emit(arr.to_json())
    if args.expect:
        counted = (count_regions_projective(arr)
                   if isinstance(arr, ProjArrangement) else
                   count_regions_toric(arr))
        if expected is not None and counted != expected:
            print(f"count mismatch: expected {expected}, counted {counted}",
                  file=sys.stderr)
            return 1
        print(f"count verified: f = {counted}", file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    cap = None if args.cap in (None, "auto") else int(args.cap)
    if args.space == "projective":
        report = sp.search_projective(args.n, args.d, budget=args.budget, cap=cap)
    else:
        report = sp.search_toric(args.n, args.d, budget=args.budget, cap=cap)
    payload = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    if args.csv:
        member = (bd.toric_spectrum_contains if args.space == "toric"
                  else None)
        with open(args.csv, "w") as fh:
            fh.write("f,witness,predicted_member\n")
            for f in sorted(report.found):
                if member is not None:
                    ok = member(args.n, args.d, f)
                else:
                    ok = f not in report.unexpected
                fh.write(f"{f},\"{report.found[f].describe()}\",{ok}\n")
    _emit(payload)
    return 1 if report.unexpected else 0


def cmd_verify_acceptance(args) -> int:
    only = set(args.only) if args.only else None
    results = acceptance.run_battery(seed=args.seed, only=only)
    return acceptance.battery_exit_code(results)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chambers",
        description="Exact region counting for projective hyperplane "
                    "arrangements and toric subtorus arrangements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count regions of an arrangement file")
    p.add_argument("file")
    p.add_argument("--engine", choices=("auto", "zaslavsky", "oracle", "cube"),
                   default="auto")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("bounds", help="evaluate the lower-bound table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-m", type=int, default=None,
                   help="maximal point multiplicity, enables the m-dependent bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("spectrum", help="print predicted realizable-count sets")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, default=3)
    p.add_argument("--first-four", action="store_true",
                   help="four smallest counts in RP^d (d >= 3, n >= 2d+5)")
    p.add_argument("--low-range-3d", action="store_true",
                   help="all 36 counts up to 12n-60 in RP^3 (n >= 50)")
    p.add_argument("--toric", action="store_true",
                   help="predicted toric spectrum up to --cap")
    p.add_argument("--martinov", action="store_true",
                   help="plane spectrum members up to 4n-12")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("gen", help="generate an arrangement from a family")
    p.add_argument("family", choices=(
        "general-position", "double-pencil", "near-pencil", "cone",
        "two-extra", "toric-a", "toric-b"))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-a", type=int, default=None)
    p.add_argument("-b", type=int, default=None)
    p.add_argument("-k", type=int, default=0)
    p.add_argument("--common", action="store_true", default=True)
    p.add_argument("--no-common", dest="common", action="store_false")
    p.add_argument("--base", default=None, help="base arrangement file (cone, two-extra)")
    p.add_argument("--extras", type=int, default=1)
    p.add_argument("--through", type=int, nargs=2, default=None,
                   help="base line pair for through_chosen_flat placement")
    p.add_argument("--coincidences", type=int, default=0)
    p.add_argument("--line-in-union", action="store_true")
    p.add_argument("--offsets", nargs="*", default=None,
                   help="rational offsets like 1/3 2/3")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--expect", action="store_true",
                   help="fail unless the exact count matches the family's formula")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("search", help="search realizable counts over the catalogue")
    p.add_argument("--space", choices=("projective", "toric"), default="projective")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--cap", default="auto")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify-acceptance", help="run the acceptance battery")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                   help="seed for the random violation-hunting stream")
    p.add_argument("--only", type=int, action="append", default=None,
                   help="run only the given criterion number (repeatable)")
    p.set_defaults(func=cmd_verify_acceptance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
