"""Command-line interface: bounds, types, realizations, arrays, verification.

Exit codes: 0 success / property holds, 1 property violated, 2 usage error,
3 cap exceeded (raise --cap-n to override).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .arrays import generate_la, verify_ca2, verify_da11, verify_la
from .baranyai import DEFAULT_MAX_N, CapExceededError, realize
from .combinatorics import VARIANT_LABELS, max_columns
from .formats import (
    format_array,
    format_oracle,
    format_spread_system,
    format_table,
    format_type,
    parse_array,
    parse_type,
)
from .oracle import DEFAULT_SEARCH_CAP, max_k_exhaustive
from .selfcheck import SUITES
from .spread_types import build_variant_type

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3

VARIANT_CHOICES = tuple(VARIANT_LABELS)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_bound(args: argparse.Namespace) -> int:
    k = max_columns(args.N, args.v, VARIANT_LABELS[args.variant])
    _emit(f"{k}\n", args.out)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    variant = VARIANT_LABELS[args.variant]
    n_lo, n_hi = args.n_min, args.n_max
    v_lo = args.v_min
    v_hi = args.v_max if args.v_max is not None else n_hi + 1
    if n_lo > n_hi or v_lo > v_hi:
        raise ValueError("empty table range")
    vs = list(range(v_lo, v_hi + 1))
    rows = [(n, [max_columns(n, v, variant) for v in vs]) for n in range(n_lo, n_hi + 1)]
    _emit(format_table(variant, vs, rows, args.format), args.out)
    return EXIT_OK


def _cmd_type(args: argparse.Namespace) -> int:
    t = build_variant_type(args.N, args.v, VARIANT_LABELS[args.variant])
    _emit(format_type(t, args.format), args.out)
    return EXIT_OK


def _cmd_realize(args: argparse.Namespace) -> int:
    t = parse_type(_read_input(args.type_file))
    system = realize(t, max_n=args.cap_n)
    _emit(format_spread_system(system, args.format), args.out)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    arr = generate_la(args.N, args.v, VARIANT_LABELS[args.variant], max_n=args.cap_n)
    _emit(format_array(arr, args.format), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    arr = parse_array(_read_input(args.array_file))
    if args.v is not None and args.v != arr.v:
        raise ValueError(f"array declares v={arr.v} but --v {args.v} was given")
    if args.check == "ca2":
        verdict = verify_ca2(arr)
    elif args.check == "da11":
        verdict = verify_da11(arr)
    else:
        verdict = verify_la(arr, VARIANT_LABELS[args.variant])
    if verdict.ok:
        print("ok")
        return EXIT_OK
    where = " and ".join(f"(column {c}, symbol {s})" for c, s in verdict.witness)
    print(f"violated: {verdict.reason} at {where}")
    return EXIT_VIOLATION


def _cmd_oracle(args: argparse.Namespace) -> int:
    variant = VARIANT_LABELS[args.variant]
    best, witness = max_k_exhaustive(args.N, args.v, variant, max_n=args.cap_n)
    _emit(format_oracle(args.N, args.v, variant, best, witness, args.format), args.out)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    ok = True
    for name, suite in SUITES:
        fails = suite()
        if fails:
            ok = False
            print(f"{name}: FAIL ({len(fails)} problems)")
            for msg in fails[:5]:
                print(f"  {msg}")
        else:
            print(f"{name}: PASS")
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache  # one parser per process: main may be called many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locarray",
        description="Exact construction and verification of strength-1 locating arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, variant: bool = True, document: bool = True) -> None:
        if variant:
            p.add_argument("--variant", choices=VARIANT_CHOICES, default="11")
        if document:  # bound prints a bare number
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("bound", help="print the exact optimal column count")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    common(p, document=False)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="grid of optimal column counts over a range")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--v-min", type=int, default=2)
    p.add_argument("--v-max", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("type", help="emit the optimal shape multiset for n, v")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("realize", help="realize a type document as a spread system")
    p.add_argument("type_file", nargs="?", default="-", help="type document ('-' = stdin)")
    p.add_argument("--cap-n", type=int, default=DEFAULT_MAX_N)
    common(p, variant=False)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("generate", help="generate an optimal array")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--cap-n", type=int, default=DEFAULT_MAX_N)
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="verify an array document")
    p.add_argument("array_file", nargs="?", default="-", help="array document ('-' = stdin)")
    p.add_argument("--v", type=int, default=None, help="cross-check the declared symbol count")
    p.add_argument("--check", choices=("la", "ca2", "da11"), default="la")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="11",
                   help="the variant that --check la checks; ca2 and da11 read none")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive maximum search on a tiny ground set")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--cap-n", type=int, default=DEFAULT_SEARCH_CAP)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("selftest", help="run the built-in diagnostic suites")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    # Exact counts at large n have more digits than Python turns into text by
    # default (4300, since 3.10.7); lift that limit for this call only.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}; raise --cap-n to override", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
