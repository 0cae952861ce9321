"""Command-line front end.

Subcommands: count, bounds, spectrum, gen, search, verify-acceptance.  The
table `SUBCOMMANDS` gives each its help line, the function that adds its
arguments and its handler.  An invocation whose first argument names a
subcommand builds that one sub-parser; any other (none, -h, an unknown
command) builds all six, so the top-level help and errors list every one.
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
import math
import re
import sys

from . import acceptance
from . import bounds as bd
from . import generators as gn
from . import spectrum as sp
from .exactlin import format_rational, json_field, parse_rational, read_json
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
    data = read_json(path)
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


# An int of at most this many bits has at most Python's default 4300 decimal
# digits, beyond which an int does not convert to text.
PRINTABLE_BITS = int(sys.int_info.default_max_str_digits * math.log2(10))


def cmd_bounds(args) -> int:
    n, d, m = args.n, args.d, args.m
    if 1 <= d < n and (m is None or d <= m <= n):
        bits = bd.bound_bits(n, d, m)
        if bits > PRINTABLE_BITS:
            at = f"n = {n}, d = {d}" + ("" if m is None else f", m = {m}")
            raise ValueError(f"the bounds at {at} could take up to {bits} bits, more "
                             f"than the {sys.int_info.default_max_str_digits} digits "
                             "a value may print in")
    rows = []
    manifold_bounds = [
        ("homological_rp", bd.bound_homological(n, bd.projective_space(d))),
        ("homological_torus", bd.bound_homological(n, bd.torus(d))),
        ("mcmullen", bd.bound_mcmullen(n, d)),
    ]
    if m is not None:
        manifold_bounds += [
            ("multiplicity_sum", bd.bound_multiplicity_sum(n, d, m)),
            ("multiplicity_product", bd.bound_multiplicity_product(n, d, m)),
            ("quadratic", bd.bound_quadratic(n, d, m)),
        ]
    for name, bound in manifold_bounds:
        rows.append({"bound": name, "value": format_rational(bound.value),
                     "ceil": bound.ceil})
    _emit(rows)
    return 0


def cmd_spectrum(args) -> int:
    if args.claim is None:
        flags = ", ".join(f"--{claim.flag}" for claim in bd.CLAIMS.values())
        print(f"choose one of {flags}", file=sys.stderr)
        return 2
    claim = bd.CLAIMS[args.claim]
    if args.cap is not None and claim.space != "toric":
        raise ValueError("--cap applies to --toric only")
    if args.d is not None and claim.d not in (None, args.d):
        raise ValueError(f"-d {args.d} does not apply: --{claim.flag} lists counts "
                         f"in RP^{claim.d}")
    d = claim.d or (3 if args.d is None else args.d)
    _emit(bd.predicted(args.claim, args.n, d, args.cap)[1])
    return 0


# Family -> (flags it needs, other flags it reads); -o and --expect apply to
# every family.  two-extra reads --base in place of -n when it is given.
_FAMILY_FLAGS = {
    "general-position": (("-n", "-d"), ()),
    "double-pencil": (("-a", "-b"), ("--common",)),
    "near-pencil": (("-n",), ()),
    "cone": (("--base",), ("--extras", "--through")),
    "two-extra": (("-n",), ("--coincidences", "--line-in-union")),
    "toric-a": (("-n", "-d"), ("-k", "--offsets")),
    "toric-b": (("-n", "-d"), ("-k", "--offsets")),
}
# every family flag, in the order the help lists them; --no-common sets --common's
_GEN_FLAGS = ("-n", "-d", "-a", "-b", "-k", "--common", "--base", "--extras",
              "--through", "--coincidences", "--line-in-union", "--offsets")


def _flag_value(args, flag: str):
    """The value of a family flag; None when it was not given."""
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _build_from_args(args):
    family = args.family
    needed, read = _FAMILY_FLAGS[family]
    if family == "two-extra" and args.base is not None:
        needed, read = (), ("--base",) + read
    missing = [flag for flag in needed if _flag_value(args, flag) is None]
    if missing:
        raise ValueError(f"family {family!r} needs {' and '.join(missing)}")
    unread = ["--no-common" if flag == "--common" and not args.common else flag
              for flag in _GEN_FLAGS
              if flag not in needed + read and _flag_value(args, flag) is not None]
    if unread:
        raise ValueError(f"family {family!r} does not read {' and '.join(unread)}")
    if family == "general-position":
        arr = gn.general_position(args.n, args.d)
        expected = gn.general_position_count(args.n, args.d)
    elif family == "double-pencil":
        common = args.common is not False
        arr = gn.double_pencil(args.a, args.b, common)
        expected = gn.double_pencil_count(args.a, args.b, common)
    elif family == "near-pencil":
        arr = gn.near_pencil(args.n)
        expected = 2 * args.n - 2
    elif family == "cone":
        base = load_arrangement(args.base)
        point = tuple(args.through) if args.through else None
        extras = 1 if args.extras is None else args.extras
        arr = gn.cone(base, extras=extras, through_point=point)
        mu = gn.base_crossing(base, point)[1] if point else 1
        expected = gn.cone_count(count_regions_projective(base), extras,
                                 base_n=base.n, through_multiplicity=mu)
    elif family == "two-extra":
        base = gn.near_pencil(args.n - 2) if args.base is None \
            else load_arrangement(args.base)
        coincidences = args.coincidences or 0
        line_in_union = bool(args.line_in_union)
        arr = gn.two_extra_planes(base, coincidences=coincidences,
                                  line_in_union=line_in_union)
        expected = gn.two_extra_planes_count(
            count_regions_projective(base), base.n,
            coincidences=coincidences, line_in_union=line_in_union)
    else:  # toric-a or toric-b
        k = args.k or 0
        offsets = ([parse_rational(c, "--offsets") for c in args.offsets]
                   if args.offsets else None)
        if family == "toric-a":
            arr = gn.toric_construction_a(args.n, args.d, k, offsets)
            expected = args.n - k
        else:
            arr = gn.toric_construction_b(args.n, args.d, k, offsets)
            expected = gn.toric_construction_b_count(args.n, args.d, k)
    return arr, expected


def cmd_gen(args) -> int:
    arr, expected = _build_from_args(args)
    if args.expect and expected is None:
        raise ValueError(f"family {args.family!r} has no closed-form count "
                         "for these parameters; drop --expect")
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
        if counted != expected:
            print(f"count mismatch: expected {expected}, counted {counted}",
                  file=sys.stderr)
            return 1
        print(f"count verified: f = {counted}", file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    if args.space == "projective":
        report = sp.search_projective(args.n, args.d, budget=args.budget, cap=args.cap)
    else:
        report = sp.search_toric(args.n, args.d, budget=args.budget, cap=args.cap)
    payload = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("f,witness,predicted_member\n")
            for f in sorted(report.found):
                member = f not in report.unexpected
                fh.write(f"{f},\"{report.found[f].describe()}\",{member}\n")
    _emit(payload)
    return 1 if report.unexpected else 0


def cmd_verify_acceptance(args) -> int:
    only = set(args.only) if args.only else None
    results = acceptance.run_battery(seed=args.seed, only=only)
    return acceptance.battery_exit_code(results)


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--engine", choices=("auto", "zaslavsky", "oracle", "cube"),
                   default="auto")


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-m", type=int, default=None,
                   help="maximal point multiplicity, enables the m-dependent bounds")


def _spectrum_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, default=None)
    mode = p.add_mutually_exclusive_group()
    for name, claim in bd.CLAIMS.items():
        mode.add_argument(f"--{claim.flag}", dest="claim", action="store_const",
                          const=name, help=claim.help)
    p.add_argument("--cap", type=int, default=None)


def _gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("family", choices=(
        "general-position", "double-pencil", "near-pencil", "cone",
        "two-extra", "toric-a", "toric-b"))
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-d", type=int, default=None)
    p.add_argument("-a", type=int, default=None)
    p.add_argument("-b", type=int, default=None)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--common", action="store_true", default=None)
    p.add_argument("--no-common", dest="common", action="store_false")
    p.add_argument("--base", default=None, help="base arrangement file (cone, two-extra)")
    p.add_argument("--extras", type=int, default=None)
    p.add_argument("--through", type=int, nargs=2, default=None,
                   help="two base lines whose crossing the extras after the "
                        "first pass through (cone, --extras 2 or more)")
    p.add_argument("--coincidences", type=int, default=None)
    p.add_argument("--line-in-union", action="store_true", default=None)
    p.add_argument("--offsets", nargs="*", default=None,
                   help="rational offsets like 1/3 2/3")
    # argparse takes -7 or -0.5 for a value, not an option; so is -3/5 here
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--expect", action="store_true",
                   help="fail unless the exact count matches the family's formula")


def _search_cap(value: str):
    """`search --cap`: `auto` (None: the rule's own cap) or an integer."""
    try:
        return None if value == "auto" else int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer, got {value!r}") from None


def _search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", choices=("projective", "toric"), default="projective")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--cap", type=_search_cap, default="auto")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", default=None)
    p.add_argument("--csv", default=None)


def _verify_acceptance_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                   help="seed for the random violation-hunting stream")
    p.add_argument("--only", type=int, action="append", default=None,
                   help="run only the given criterion number, 1..8 (repeatable)")


# name -> (help, argument adder, handler), in the order the help lists them.
SUBCOMMANDS = {
    "count": ("count regions of an arrangement file", _count_arguments, cmd_count),
    "bounds": ("evaluate the lower-bound table", _bounds_arguments, cmd_bounds),
    "spectrum": ("print predicted realizable-count sets", _spectrum_arguments,
                 cmd_spectrum),
    "gen": ("generate an arrangement from a family", _gen_arguments, cmd_gen),
    "search": ("search realizable counts over the catalogue", _search_arguments,
               cmd_search),
    "verify-acceptance": ("run the acceptance battery", _verify_acceptance_arguments,
                          cmd_verify_acceptance),
}


def build_parser(names) -> argparse.ArgumentParser:
    """The `chambers` parser with the sub-parsers of `names` only."""
    parser = argparse.ArgumentParser(
        prog="chambers",
        description="Exact region counting for projective hyperplane "
                    "arrangements and toric subtorus arrangements.")
    sub = parser.add_subparsers(dest="command", required=True)
    if len(names) < len(SUBCOMMANDS):
        # An "unrecognized arguments" error prints this usage line, which names
        # all six; the full parser's missing-command error names "command".
        sub.metavar = "{" + ",".join(SUBCOMMANDS) + "}"
    for name in names:
        help_text, add_arguments, _ = SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else tuple(SUBCOMMANDS)
    args = build_parser(names).parse_args(argv)
    _, _, handler = SUBCOMMANDS[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
