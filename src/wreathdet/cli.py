"""Command-line front end.

Subcommands: adet, wrdet, verify, xi-scan. Exact values are printed as
fraction strings (never floats); JSON reports are deterministic for a fixed
command, inputs and seed, except for the wall_time_s field. Exit codes:
0 success, 1 verification failure, 2 usage or parse error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

from .alphadet import adet_dp, adet_laplace, adet_sum
from .errors import CapExceededError, WreathdetError
from .linalg import Matrix
from .rings import ALPHA
from .spherical import xi_scan
from .verify import run_suite
from .wreath import wrdet_direct, wrdet_monomial, wrdet_symmetric, wrdet_tableaux

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(WreathdetError):
    pass


def _parse_cell(text):
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad matrix entry {text!r}: {exc}") from None


def load_matrix(path):
    """MatrixFile loader: JSON {'rows', 'cols', 'entries'} or CSV cells."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"no such file: {path}")
    if p.suffix.lower() == ".csv":
        with open(p, newline="") as fh:
            rows = [[_parse_cell(c) for c in row] for row in csv.reader(fh) if row]
        if not rows:
            raise UsageError(f"{path}: empty CSV matrix")
        return Matrix(rows)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    try:
        entries = doc["entries"]
        r, c = int(doc["rows"]), int(doc["cols"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path}: need rows, cols, entries ({exc})") from None
    if (
        not isinstance(entries, list)
        or len(entries) != r
        or any(not isinstance(row, list) or len(row) != c for row in entries)
    ):
        raise UsageError(f"{path}: entries do not match {r}x{c}")
    return Matrix([[_parse_cell(e) for e in row] for row in entries])


def _parse_alpha(text):
    if text == "symbolic":
        return ALPHA
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad alpha {text!r}: {exc}") from None


def _render_text(report):
    lines = []
    for key, value in report.get("values", {}).items():
        lines.append(f"{key} = {value}")
    for chk in report.get("checks", []):
        status = "PASS" if chk["passed"] else "FAIL"
        suffix = f": {chk['detail']}" if chk.get("detail") else ""
        lines.append(f"{status} {chk['name']}{suffix}")
    for pair in report.get("pairs", []):
        if pair.get("skipped"):
            lines.append(f"(n={pair['n']}, k={pair['k']}) SKIPPED: {pair['reason']}")
        else:
            lines.append(
                f"(n={pair['n']}, k={pair['k']}) order={pair['order']} "
                f"det={pair['det']} positive_definite={pair['positive_definite']}"
            )
    if "passed" in report:
        lines.append("OK" if report["passed"] else "FAILED")
    return "\n".join(lines)


def cmd_adet(args, report):
    A = load_matrix(args.matrix)
    if A.nrows != A.ncols:
        raise UsageError(f"adet needs a square matrix, got {A.nrows}x{A.ncols}")
    alpha = _parse_alpha(args.alpha)
    cap = args.cap_factorial
    values = {}
    if args.method == "dp":
        values["dp"] = adet_dp(A, alpha, cap=cap)
    if args.method in ("sum", "both"):
        values["sum"] = adet_sum(A, alpha, cap=cap)
    if args.method in ("laplace", "both"):
        results = {str(adet_laplace(A, alpha, q, cap=cap)) for q in range(1, A.nrows + 1)}
        if len(results) != 1:
            report["values"]["laplace_columns"] = sorted(results)
            report["passed"] = False
            print("internal disagreement between expansion columns", file=sys.stderr)
            return EXIT_FAIL
        values["laplace"] = results.pop()
    strs = {m: str(v) for m, v in values.items()}
    report["values"] = dict(strs)
    report["values"]["adet"] = next(iter(strs.values()))
    report["passed"] = len(set(strs.values())) == 1
    if not report["passed"]:
        print("methods disagree (internal bug)", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


_WRDET_METHODS = {
    "direct": wrdet_direct,
    "tableaux": wrdet_tableaux,
    "symmetric": wrdet_symmetric,
    "monomial": wrdet_monomial,
}


def cmd_wrdet(args, report):
    if args.cap_factorial is not None and args.method not in ("direct", "all"):
        raise UsageError(
            f"--cap-factorial bounds only the direct route's kdet; "
            f"the {args.method} route takes no cap (use --method direct or all)"
        )
    A = load_matrix(args.matrix)
    k = args.k
    if k < 1 or A.ncols == 0 or A.nrows != k * A.ncols:
        raise UsageError(
            f"wrdet needs a kn x n matrix with k={k}, got {A.nrows}x{A.ncols}"
        )
    routes = dict(_WRDET_METHODS, direct=partial(wrdet_direct, cap=args.cap_factorial))
    methods = list(routes) if args.method == "all" else [args.method]
    values = {m: routes[m](A, k) for m in methods}
    report["values"] = {m: str(v) for m, v in values.items()}
    report["values"]["wrdet"] = str(values[methods[0]])
    report["passed"] = len(set(values.values())) == 1
    if not report["passed"]:
        print("methods disagree (internal bug)", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args, report):
    checks = run_suite(args.suite, args.seed)
    report["seed"] = args.seed
    report["checks"] = [
        {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
    ]
    failed = [c for c in checks if not c.passed]
    report["passed"] = not failed
    if failed:
        first = failed[0]
        print(f"first failure: {first.name} {first.detail}".rstrip(), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_xi_scan(args, report):
    pairs = xi_scan(args.max_kn)
    report["pairs"] = pairs
    bad = [p for p in pairs if not p.get("skipped") and not p["positive_definite"]]
    report["passed"] = not bad
    for p in bad:
        print(
            f"internal bug: Xi not positive definite at (n={p['n']}, k={p['k']}), "
            f"det = {p['det']}; every seminormal norm is positive",
            file=sys.stderr,
        )
    return EXIT_FAIL if bad else EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(
        prog="wreathdet",
        description="Exact wreath determinants, alpha-determinants and the "
        "spherical positivity scan.",
    )
    sub = top.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--output", metavar="PATH", default=None)

    def cap_factorial(p):
        p.add_argument("--cap-factorial", type=int, default=None, metavar="N",
                       help="largest alpha-determinant degree to evaluate "
                       "(default: config.FACTORIAL_CAP)")

    p = sub.add_parser("adet", help="alpha-determinant of a matrix file")
    # let bare negative fractions like -1/2 pass as values, not option names
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("matrix")
    p.add_argument("--alpha", default="symbolic",
                   help="exact fraction like -1/2, or 'symbolic'")
    p.add_argument("--method", choices=("dp", "sum", "laplace", "both"), default="dp",
                   help="dp: cycle-cover DP; sum, laplace: the oracles; "
                   "both: sum against laplace")
    cap_factorial(p)
    common(p)
    p.set_defaults(fn=cmd_adet)

    p = sub.add_parser("wrdet", help="k-th wreath determinant of a kn x n matrix")
    p.add_argument("matrix")
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--method",
        choices=("direct", "tableaux", "symmetric", "monomial", "all"),
        default="direct",
    )
    cap_factorial(p)
    common(p)
    p.set_defaults(fn=cmd_wrdet)

    p = sub.add_parser("verify", help="run a seeded identity suite")
    p.add_argument("suite", choices=("alphadet", "wreath", "symfun", "spherical", "all"))
    p.add_argument("--seed", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("xi-scan", help="exact positivity scan of the Gram matrices")
    p.add_argument("--max-kn", type=int, default=10)
    common(p)
    p.set_defaults(fn=cmd_xi_scan)

    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = {"command": argv, "seed": None, "values": {}, "checks": []}
    start = time.perf_counter()
    try:
        code = args.fn(args, report)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except WreathdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report["wall_time_s"] = round(time.perf_counter() - start, 6)
    payload = (
        json.dumps(report, indent=2, sort_keys=True)
        if args.format == "json"
        else _render_text(report)
    )
    if args.output:
        Path(args.output).write_text(payload + "\n")
    else:
        print(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
