"""Command-line driver.

Subcommands: construct, verify, sequence, count, enumerate.

Exit codes: 0 ok/valid, 1 property-invalid, 2 usage error or malformed
input, 3 search truncated by limit/budget, 4 internal inconsistency
(count methods disagree), 141 stdout closed by its reader (128 + SIGPIPE,
as a shell reports a writer killed by a closed pipe).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .construct import construct_l_array
from .errors import BudgetError, DomainError, GridParseError
from .grid import DigitGrid, parse_grid_json, parse_grid_text
from .search import SYMMETRIES, SearchConfig, enumerate_l_arrays
from .sequences import (count_best, count_brute, count_formula,
                        generate_sequence, parse_word)
from .verify import verify_l_array, verify_sequence, verify_torus

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3
EXIT_INCONSISTENT = 4
EXIT_BROKEN_PIPE = 141


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debruijn-arrays",
        description="Construct, verify, count, and enumerate de Bruijn "
                    "sequences, tori, and L-arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="print the modular k-de Bruijn L-array")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="verify a grid or sequence from a file or stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shape", nargs="+", required=True,
                   metavar="SHAPE",
                   help="'l-array', 'torus M N', or 'sequence N'")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="input format for grids")
    p.add_argument("input", nargs="?", default="-",
                   help="input file, or '-' for stdin (default)")

    p = sub.add_parser("sequence", help="generate a (k,n)-de Bruijn sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("euler", "greedy"), default="euler")

    p = sub.add_parser("count", help="count (k,n)-de Bruijn sequences exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("formula", "best", "brute", "all"),
                   default="formula")

    p = sub.add_parser("enumerate", help="enumerate all k-de Bruijn L-arrays")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--symmetry", choices=SYMMETRIES, default="none")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock cap in seconds")
    p.add_argument("--workers", type=int, default=1,
                   help="search worker processes (default: 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--report-file", default=None,
                   help="write the JSON search report here instead of stderr")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"construct": _run_construct, "verify": _run_verify,
                "sequence": _run_sequence, "count": _run_count,
                "enumerate": _run_enumerate}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except (DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`).  Point stdout at devnull
        # so the interpreter's final flush cannot raise again; see "Note on
        # SIGPIPE" in the signal module's documentation.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _run_construct(args) -> int:
    g = construct_l_array(args.k)
    if args.format == "json":
        print(g.to_json())
    else:
        sys.stdout.write(g.to_text())
    return EXIT_OK


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    # undecodable bytes become lone surrogates, which the parsers report
    # as bad digits (exit 2)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return fh.read()


# each --shape kind: its token count, and the usage shown when that is wrong
_SHAPES = {"l-array": (1, "--shape l-array takes no extra arguments"),
           "torus": (3, "--shape torus needs window dims: torus M N"),
           "sequence": (2, "--shape sequence needs a window length: sequence N")}


def _run_verify(args) -> int:
    # greedy --shape parsing swallows a trailing input path; each shape kind
    # has a fixed arity, so one extra token is the input file
    shape = list(args.shape)
    kind = shape[0]
    if kind not in _SHAPES:
        print(f"error: unknown shape {kind!r}", file=sys.stderr)
        return EXIT_USAGE
    arity, usage = _SHAPES[kind]
    if len(shape) == arity + 1 and args.input == "-":
        args.input = shape.pop()
    if len(shape) != arity:
        print(f"error: {usage}", file=sys.stderr)
        return EXIT_USAGE
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if kind == "sequence":
            report = verify_sequence(parse_word(text, args.k), args.k,
                                     int(shape[1]))
        else:
            parse = parse_grid_json if args.format == "json" else parse_grid_text
            k_in, rows = parse(text)
            if k_in != args.k:
                raise GridParseError(f"input declares k={k_in}, but --k {args.k} given")
            if kind == "torus":
                report = verify_torus(rows, args.k, int(shape[1]), int(shape[2]))
            else:
                report = verify_l_array(DigitGrid(args.k, rows))
    except ValueError as exc:  # GridParseError, DimensionError, DomainError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(json.dumps(report.to_json_dict(), separators=(", ", ": ")))
    return EXIT_OK if report.valid else EXIT_INVALID


def _run_sequence(args) -> int:
    word = generate_sequence(args.k, args.n, args.method)
    print(word)
    return EXIT_OK


def _run_count(args) -> int:
    methods = {"formula": count_formula, "best": count_best, "brute": count_brute}
    if args.method == "all":
        values = {}
        for name, fn in methods.items():
            try:
                values[name] = fn(args.k, args.n)
            except BudgetError as exc:
                print(f"note: {name} skipped: {exc}", file=sys.stderr)
        if not values:
            raise BudgetError(f"every method is over its budget for "
                              f"(k={args.k}, n={args.n})")
        if len(set(values.values())) > 1:
            print(f"error: count methods disagree: {values}", file=sys.stderr)
            return EXIT_INCONSISTENT
        print(next(iter(values.values())))
        return EXIT_OK
    print(methods[args.method](args.k, args.n))
    return EXIT_OK


def _run_enumerate(args) -> int:
    cfg = SearchConfig(k=args.k, symmetry=args.symmetry, limit=args.limit,
                       time_budget=args.time_budget)
    # open the report file before searching, so a bad path costs no search
    try:
        report_out = (open(args.report_file, "w", encoding="utf-8")
                      if args.report_file else contextlib.nullcontext(sys.stderr))
    except OSError as exc:
        print(f"error: cannot write report file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with report_out as report_fh:
        solutions, report = enumerate_l_arrays(cfg, workers=args.workers)
        if args.format == "json":
            print("[" + ", ".join(g.to_json() for g in solutions) + "]")
        else:
            for i, g in enumerate(solutions):
                if i:
                    print()
                sys.stdout.write(g.to_text())
        print(json.dumps(report.to_json_dict(), separators=(", ", ": ")),
              file=report_fh)
    return EXIT_OK if report.complete else EXIT_TRUNCATED


if __name__ == "__main__":
    sys.exit(main())
