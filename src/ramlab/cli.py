"""Command-line front end with JSON/CSV/text output.

Subcommands: series, verify-system, ak, ord, deriv, stable, k0, auxsearch.
All machine output renders rationals exactly as "p/q" or integer strings.

Importing this module loads no other ramlab module: each subcommand imports
the layers it runs, so a process starts with only those.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import stat
import sys

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _series_payload(s: TruncatedSeries) -> dict:
    from .arith import fraction_str

    return {"precision": s.precision, "coefficients": [fraction_str(c) for c in s.coeffs]}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _resolve_series(which: str, precision: int) -> TruncatedSeries:
    from .forms import discriminant_series, eisenstein, g_series, theta_series

    if which == "Delta":
        return discriminant_series(precision)
    if which == "Theta":
        return theta_series(precision)
    m = re.fullmatch(r"E(\d+)", which)
    if m:
        weight = int(m.group(1))
        if weight < 2 or weight % 2:
            raise CliError(f"no Eisenstein series of weight {weight}")
        return eisenstein(weight // 2, precision)
    m = re.fullmatch(r"g\[(\d+),(\d+)\]", which)
    if m:
        return g_series(int(m.group(1)), int(m.group(2)), precision)
    raise CliError(f"unknown series {which!r}; use E2k, g[u,v], Delta or Theta")


def _report_payload(report: SystemReport) -> dict:
    def check(eq):
        entry = {"equation": eq.name, "ok": eq.ok}
        if eq.first_mismatch is not None:
            entry["first_mismatch"] = eq.first_mismatch
        return entry

    return {
        "ok": report.ok,
        "equations": [check(eq) for eq in report.equations],
        "errata": [check(eq) for eq in report.errata],
    }


def _parse_poly(text: str, m: int):
    from .ring import ParseError, SystemConfig, parse

    try:
        return parse(text, SystemConfig(m))
    except ParseError as exc:
        raise CliError(f"polynomial syntax error: {exc}") from None


def _parse_grid(spec: str) -> Iterator[DegreeBudget]:
    """Grid spec "D0MAX:DMAX": every budget with d0 <= D0MAX and d <= DMAX,
    built one at a time as it is read, so `experiment_grid` refuses a cell
    over its size limit before the rest of the grid is built."""
    from .multlab import DegreeBudget

    m = re.fullmatch(r"(\d+):(\d+)", spec)
    if not m:
        raise CliError("grid spec must look like D0MAX:DMAX, e.g. 1:2")
    d0max, dmax = int(m.group(1)), int(m.group(2))
    return (DegreeBudget(d0, d) for d0 in range(d0max + 1) for d in range(dmax + 1))


def _experiment_rows(rows, summary) -> dict:
    from .arith import fraction_str
    from .ring import format_polynomial

    return {
        "exponent_operational": summary.exponent_operational,
        "exponent_paper": summary.exponent_paper,
        "rows": [
            {
                "m": r.m,
                "d0": r.d0,
                "d": r.d,
                "T": r.T,
                "n_star": r.n_star,
                "ord": str(r.measured_ord),
                "ratio": fraction_str(r.ratio),
                "ratio_paper": fraction_str(r.ratio_paper),
                "witness": format_polynomial(r.witness),
                "precision": r.precision,
                "precision_limited": r.precision_limited,
            }
            for r in rows
        ],
        "max_ratio": fraction_str(summary.max_ratio),
        "max_ratio_paper": fraction_str(summary.max_ratio_paper),
        "flagged": [{"d0": b.d0, "d": b.d} for b in summary.flagged],
    }


def _rows_to_csv(rows) -> str:
    # every field is an integer or an order such as ">=5", so none needs quoting
    lines = ["m,d0,d,T,n_star,ord,ratio_num,ratio_den,flag"]
    for r in rows:
        fields = (r.m, r.d0, r.d, r.T, r.n_star, r.measured_ord,
                  r.ratio.numerator, r.ratio.denominator, int(r.precision_limited))
        lines.append(",".join(map(str, fields)))
    return "\n".join(lines) + "\n"


def _render_text(record: dict) -> str:
    lines = [f"subcommand: {record['subcommand']}"]
    for key, value in record["params"].items():
        lines.append(f"  {key}: {value}")
    lines.append(json.dumps(record["payload"], indent=2))
    return "\n".join(lines) + "\n"


def _precision(minimum: int):
    """argparse type for --prec: an integer no smaller than `minimum`."""

    def precision(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return precision


def _required(type=None, **kwargs) -> dict:
    """add_argument's keywords for a required option."""
    return {"type": type, "required": True, **kwargs}


_M, _POLY, _PREC = _required(int), _required(), _required(_precision(0))
# Each subcommand once: its help text and its options in --help order, each
# as add_argument's keywords.  The options are also the params of its record,
# except for auxsearch, whose params show the budgets in place of --d0, --d
# and --grid.
_COMMANDS = {
    "series": ("dump a series' exact coefficients",
               {"which": _required(help="E2k, g[u,v], Delta or Theta"), "prec": _PREC}),
    # compares z^0..z^(prec-1), and z^0 always matches
    "verify-system": ("check the differential system", {"m": _M, "prec": _required(_precision(2))}),
    "ak": ("reduction polynomial for E_{2k}",
           {"k": _required(int), "prec": {"type": _precision(0), "default": 60}}),
    "ord": ("order of vanishing of an evaluated polynomial", {"poly": _POLY, "m": _M, "prec": _PREC}),
    "deriv": ("apply the derivation D", {"poly": _POLY, "m": _M}),
    "stable": ("principal D-stability check", {"poly": _POLY, "m": _M}),
    "k0": ("order of vanishing of the Theta evaluation", {"m": _M, "prec": _PREC}),
    "auxsearch": ("auxiliary polynomial vanishing search", {
        "m": _M,
        "d0": {"type": int},
        "d": {"type": int},
        "prec": {"type": _precision(0), "help": "default: adaptive"},
        "grid": {"help": "D0MAX:DMAX grid of budgets"},
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    # global options, also accepted after the subcommand: one set of actions
    # shared by the top-level parser and every subcommand.  Their SUPPRESS
    # defaults never clobber a value given up front; _run supplies the real
    # defaults in the namespace it parses into
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "csv", "text"], default=argparse.SUPPRESS)
    common.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS)
    common.add_argument(
        "--strict",
        action="store_true",
        default=argparse.SUPPRESS,
        help="exit 1 on a precision-limited auxsearch cell, or when ord's order is "
        "not resolved at --prec",
    )

    parser = argparse.ArgumentParser(
        prog="ramlab",
        description="Exact computations around the extended Ramanujan system.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        for option, kwargs in options.items():
            p.add_argument(f"--{option}", **kwargs)
    return parser


def _dispatch(args) -> tuple[dict, int, list | None]:
    """Returns (record, exit_code, search rows or None); CSV renders the rows.

    Each branch imports the layers it runs, and only those.
    """
    params = {option: getattr(args, option) for option in _COMMANDS[args.subcommand][1]}
    record: dict = {"subcommand": args.subcommand, "params": params, "payload": {}}
    code = EXIT_OK
    rows = None

    if args.subcommand == "series":
        record["payload"] = _series_payload(_resolve_series(args.which, args.prec))

    elif args.subcommand == "verify-system":
        # from forms, not _checks, so the trace shim's forms.verify_system span counts it
        from .forms import verify_system

        report = verify_system(args.m, args.prec)
        record["payload"] = _report_payload(report)
        if not report.ok:
            code = EXIT_FAIL

    elif args.subcommand == "ak":
        from .arith import fraction_str
        # from forms, not _checks, so the trace shim's forms.ak_polynomial span counts it
        from .forms import ak_polynomial

        ak = ak_polynomial(args.k, args.prec)
        record["payload"] = {
            "monomials": [
                {"e4_exp": a, "e6_exp": b, "coefficient": fraction_str(c)}
                for (a, b), c in sorted(ak.coefficients.items())
            ]
        }

    elif args.subcommand == "ord":
        from .forms import function_tuple
        from .ring import evaluate

        poly = _parse_poly(args.poly, args.m)
        order = evaluate(poly, function_tuple(args.m, args.prec)).order()
        record["payload"] = {"ord": str(order), "finite": order.is_finite}
        if not order.is_finite and args.strict:
            code = EXIT_FAIL

    elif args.subcommand == "deriv":
        # derive from ring, not _system, so the trace shim's ring.derive span counts it
        from .ring import derive, format_polynomial

        poly = _parse_poly(args.poly, args.m)
        record["payload"] = {"derivative": format_polynomial(derive(poly))}

    elif args.subcommand == "stable":
        from .ring import format_polynomial
        from .stability import principal_stability

        poly = _parse_poly(args.poly, args.m)
        if poly.is_zero():
            raise CliError("the zero polynomial has no stability verdict")
        verdict = principal_stability(poly)
        record["payload"] = {"stable": verdict.stable}
        if verdict.stable:
            record["payload"]["cofactor"] = format_polynomial(verdict.cofactor)

    elif args.subcommand == "k0":
        from .forms import PrecisionError, compute_k0

        try:
            order = compute_k0(args.m, args.prec)
        except PrecisionError as exc:
            raise CliError(str(exc), code=EXIT_FAIL) from None
        record["payload"] = {"ord": order.value}

    elif args.subcommand == "auxsearch":
        if args.grid is not None and (args.d0 is not None or args.d is not None):
            raise CliError("auxsearch takes either --d0 and --d, or --grid, not both")
        from .multlab import DegreeBudget, experiment_grid

        if args.grid is not None:
            budgets = _parse_grid(args.grid)
        elif args.d0 is not None and args.d is not None:
            budgets = [DegreeBudget(args.d0, args.d)]
        else:
            raise CliError("auxsearch needs either --d0 and --d, or --grid")
        rows, summary = experiment_grid(args.m, budgets, args.prec)
        record["params"] = {
            "m": args.m,
            "budgets": [{"d0": r.d0, "d": r.d} for r in rows],
            "prec": args.prec,
        }
        if args.format != "csv":
            record["payload"] = _experiment_rows(rows, summary)
        if summary.flagged and args.strict:
            code = EXIT_FAIL

    return record, code, rows


def run(argv: list[str] | None = None) -> int:
    """Run one command line; returns the exit code.

    Coefficients may pass the 4,300 digits that Python (3.11+, and security
    releases before it) allows in int/str conversion by default, so the
    limit is lifted while the command runs and restored afterwards.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _unwritable(path: str) -> str | None:
    """Why open(path, "w") would fail, where that shows without creating the
    file: path names a directory, or its parent is missing or not a
    directory.  Any other failure is reported when the output is written."""
    if path.endswith(os.sep) or os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    try:
        parent = os.stat(os.path.dirname(path) or ".")
    except OSError as exc:
        return exc.strerror
    return None if stat.S_ISDIR(parent.st_mode) else os.strerror(errno.ENOTDIR)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(format="text", out=None, strict=False))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    if args.format == "csv" and args.subcommand != "auxsearch":
        print("error: csv output is only available for auxsearch", file=sys.stderr)
        return EXIT_USAGE
    reason = args.out and _unwritable(args.out)
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    try:
        record, code, rows = _dispatch(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE

    if args.format == "json":
        output = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        output = _rows_to_csv(rows)
    else:
        output = _render_text(record)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(output)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
