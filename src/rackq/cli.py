"""Command line surface tying the package together.

Subcommands: check, profile, closure, obstruct, hayashi, enumerate, make.
File arguments accept '-' for stdin, so tables can be piped between
invocations.  Exit status is 0 on success, 1 for domain errors (the
module error message is printed verbatim to stderr) and 2 for usage
errors.
"""
from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from functools import cache

from . import constructors
from .enumeration import EnumerationFilter, census
from .errors import RackError
from .inner import NotIndecomposable, classify, rack_profile
from .core import subrack_closure
from .obstructions import SCOPE_RACKS, SCOPES, full_verdict, hayashi_check, parse_profile
from .perm import from_cycles
from .tableio import emit_report, emit_table, load_table, report_object


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    return load_table(_read_text(path))


def _cmd_check(args) -> int:
    rt = _load(args.table)
    payload = {"order": rt.n}
    payload.update(report_object(classify(rt)))
    # The members of an orbit share one profile object: format each once.
    distinct = {id(prof): prof for prof in rt.patterns}
    text = {key: str(prof) for key, prof in distinct.items()}
    payload["per_point_patterns"] = [
        {"point": x + 1, "pattern": text[id(prof)]} for x, prof in enumerate(rt.patterns)
    ]
    print(emit_report(payload))
    return 0


def _cmd_profile(args) -> int:
    rt = _load(args.table)
    if args.per_point:
        for x, prof in enumerate(rt.patterns):
            print(f"{x + 1}: {prof}")
        return 0
    try:
        print(rack_profile(rt))
    except RackError as exc:
        raise RackError(f"{exc}; rerun with --per-point for per-point patterns") from exc
    return 0


# At most as many digits as int() reads: sys.get_int_max_str_digits(), 0 for no limit.
_INTEGER = re.compile(rf"-?[0-9]{{1,{sys.get_int_max_str_digits() or ''}}}")


def _ascii_int(text: str) -> int:
    """argparse type for integer arguments: an optional minus sign and ASCII
    digits only, so ``+5``, `` 5``, ``1_0`` and Arabic-Indic digits are
    refused."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_point_list(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise RackError(f"bad point list {text!r}: expected comma-separated integers")
    return [int(tok) for tok in tokens]


def _cmd_closure(args) -> int:
    rt = _load(args.table)
    seed = _parse_point_list(args.seed)
    if any(not 1 <= p <= rt.n for p in seed):
        raise RackError(f"seed points must lie in 1..{rt.n}")
    closed = subrack_closure(rt, {p - 1 for p in seed})
    print(",".join(str(p + 1) for p in sorted(closed)))
    return 0


def _cmd_obstruct(args) -> int:
    pf = parse_profile(args.profile)
    print(emit_report(full_verdict(pf, args.scope)))
    return 0


def _cmd_hayashi(args) -> int:
    if (args.table is None) == (args.profile is None):
        raise RackError("give exactly one of a table file or --profile")
    if args.profile is not None:
        pf = parse_profile(args.profile)
    else:
        try:
            pf = rack_profile(_load(args.table))
        except NotIndecomposable as exc:
            raise RackError(f"{exc}; rackq profile --per-point gives per-point patterns") from exc
    print(emit_report({"profile": str(pf), "holds": hayashi_check(pf)}))
    return 0


def _cmd_enumerate(args) -> int:
    filt = EnumerationFilter(
        require_quandle=args.quandle,
        require_crossed_set=args.crossed_set,
        require_braided=args.braided,
        require_indecomposable=args.indecomposable,
    )
    sink = None
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
        counter = itertools.count()

        def sink(rt, _order=args.order):
            index = next(counter)
            path = os.path.join(args.dump, f"rack_{_order}_{index:04d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit_table(rt, name=f"census order={_order} index={index}"))

    report = census(args.order, filt, workers=args.threads, sink=sink)
    print(emit_report(report))
    return 0


def _cmd_make(args) -> int:
    rt = args.build(args)
    print(emit_table(rt), end="")
    return 0


def _build_affine(args):
    moduli = _parse_point_list(args.moduli)
    rows = [r for r in args.alpha.split(";") if r.strip()]
    alpha = [_parse_point_list(r) for r in rows]
    return constructors.affine(constructors.AffineSpec(tuple(moduli), tuple(map(tuple, alpha))))


def _parse_cycle_notation(degree: int, text: str) -> list[list[int]]:
    """Parse 1-based cycle notation like "(1 2)(3 4)" into 0-based cycles.

    Points are ASCII digits separated by spaces, tabs or commas; each one
    sits inside a pair of parentheses and appears at most once.
    """
    cycles = []
    current = None  # the open cycle, None between cycles
    for digits, ch in re.findall(r"([0-9]+)|(.)", text.strip(), flags=re.DOTALL):
        if digits:
            if current is None:
                raise RackError(f"point {digits} outside parentheses in cycle notation {text!r}")
            # Wider than the degree, it is out of range; int() refuses thousands of digits.
            digits = digits.lstrip("0") or "0"
            current.append(int(digits) if len(digits) <= len(str(degree)) else degree + 1)
        elif ch == "(":
            if current is not None:
                raise RackError(f"nested parenthesis in cycle notation {text!r}")
            current = []
        elif ch == ")":
            if current is None:
                raise RackError(f"unmatched ')' in cycle notation {text!r}")
            cycles.append(current)
            current = None
        elif ch not in " ,\t":
            raise RackError(f"bad character {ch!r} in cycle notation {text!r}")
    if current is not None:
        raise RackError(f"unclosed parenthesis in cycle notation {text!r}")
    points = [p for cyc in cycles for p in cyc]
    if any(not 1 <= p <= degree for p in points):
        raise RackError(f"cycle point outside 1..{degree} in {text!r}")
    seen = set()
    for p in points:
        if p in seen:
            raise RackError(f"point {p} appears more than once in cycle notation {text!r}")
        seen.add(p)
    constructors.check_class_size(degree, map(len, cycles))
    return [[p - 1 for p in cyc] for cyc in cycles]


def _build_conj(args):
    cycles = _parse_cycle_notation(args.degree, args.rep)
    if all(len(cyc) <= 1 for cyc in cycles):
        # A rep that moves no point is its own class, at any degree.
        return constructors.trivial(1)
    return constructors.conjugation_class_quandle(args.degree, from_cycles(args.degree, cycles))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="rackq",
        description="Construct, classify and enumerate finite racks and quandles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a table and print its classification")
    p.add_argument("table", help="table file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("profile", help="print the profile of an indecomposable rack")
    p.add_argument("table", help="table file, or - for stdin")
    p.add_argument("--per-point", action="store_true", help="print every point's pattern")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("closure", help="smallest subrack containing the seed")
    p.add_argument("table", help="table file, or - for stdin")
    p.add_argument("--seed", required=True, help="comma-separated 1-based points")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("obstruct", help="apply the profile exclusion rules")
    p.add_argument("--profile", required=True, help='profile string, e.g. "1^2.6.10.15"')
    p.add_argument(
        "--scope",
        choices=SCOPES,
        default=SCOPE_RACKS,
        help="which structures the verdict should cover (default: %(default)s)",
    )
    p.set_defaults(func=_cmd_obstruct)

    p = sub.add_parser("hayashi", help="check the divisibility conjecture")
    p.add_argument("table", nargs="?", default=None, help="table file, or - for stdin")
    p.add_argument("--profile", default=None, help="check an abstract profile string instead")
    p.set_defaults(func=_cmd_hayashi)

    p = sub.add_parser("enumerate", help="census of all tables of one order up to isomorphism")
    p.add_argument("--order", type=_ascii_int, required=True)
    p.add_argument("--quandle", action="store_true", help="only quandles: r_x(x) = x for every x")
    p.add_argument("--crossed-set", action="store_true", help="only crossed sets; implies --quandle")
    p.add_argument("--braided", action="store_true", help="only braided racks")
    p.add_argument("--indecomposable", action="store_true", help="only racks with one inner orbit")
    p.add_argument("--dump", metavar="DIR", help="write each representative table to DIR")
    p.add_argument("--threads", type=_ascii_int, default=None, help="parallel search processes")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("make", help="construct a table from a named family")
    make_sub = p.add_subparsers(dest="family", required=True)

    q = make_sub.add_parser("trivial")
    q.add_argument("order", type=_ascii_int)
    q.set_defaults(func=_cmd_make, build=lambda a: constructors.trivial(a.order))

    q = make_sub.add_parser("cyclic")
    q.add_argument("order", type=_ascii_int)
    q.set_defaults(func=_cmd_make, build=lambda a: constructors.cyclic_rack(a.order))

    q = make_sub.add_parser("dihedral")
    q.add_argument("order", type=_ascii_int)
    q.set_defaults(func=_cmd_make, build=lambda a: constructors.dihedral(a.order))

    q = make_sub.add_parser("affine")
    q.add_argument("--moduli", required=True, help='comma-separated, e.g. "5" or "3,3"')
    q.add_argument(
        "--alpha",
        required=True,
        help='matrix rows separated by ";", entries by ",", e.g. "2" or "0,1;1,1"',
    )
    q.set_defaults(func=_cmd_make, build=_build_affine)

    q = make_sub.add_parser("conj")
    q.add_argument("--degree", type=_ascii_int, required=True, help="symmetric group degree")
    q.add_argument("--rep", required=True, help='class representative, e.g. "(1 2)"')
    q.set_defaults(func=_cmd_make, build=_build_conj)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
