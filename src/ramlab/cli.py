"""Command-line front end: the subcommand table, the parser, output.

Subcommands: series, verify-system, ak, ord, deriv, stable, k0, auxsearch.
All machine output renders rationals exactly as "p/q" or integer strings.

Importing this module loads no other ramlab module.  Each subcommand's own
code is one handler, in a module that the subcommand loads anyway, so a
process compiles only the code of its own subcommand.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from . import CliError

__all__ = ["main", "run"]

EXIT_USAGE = 2


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
# Each subcommand once: its help text, its options in --help order, each as
# add_argument's keywords, and its handler (module, function).  The options
# are also the params of its record, except for auxsearch, whose params show
# the budgets in place of --d0, --d and --grid.  A handler calls what the
# benchmark's trace shim wraps by the name it wraps, so the shim counts it.
_COMMANDS = {
    "series": ("dump a series' exact coefficients",
               {"which": _required(help="E2k, g[u,v], Delta or Theta"), "prec": _PREC},
               ("forms", "series_command")),
    # compares z^0..z^(prec-1), and z^0 always matches
    "verify-system": ("check the differential system", {"m": _M, "prec": _required(_precision(2))},
                      ("_checks", "verify_system_command")),
    "ak": ("reduction polynomial for E_{2k}",
           {"k": _required(int), "prec": {"type": _precision(0), "default": 60}},
           ("_checks", "ak_command")),
    "ord": ("order of vanishing of an evaluated polynomial", {"poly": _POLY, "m": _M, "prec": _PREC},
            ("forms", "ord_command")),
    "deriv": ("apply the derivation D", {"poly": _POLY, "m": _M}, ("_parse", "deriv_command")),
    "stable": ("principal D-stability check", {"poly": _POLY, "m": _M},
               ("stability", "stable_command")),
    "k0": ("order of vanishing of the Theta evaluation", {"m": _M, "prec": _PREC},
           ("forms", "k0_command")),
    "auxsearch": ("auxiliary polynomial vanishing search", {
        "m": _M,
        "d0": {"type": int},
        "d": {"type": int},
        "prec": {"type": _precision(0), "help": "default: adaptive"},
        "grid": {"help": "D0MAX:DMAX grid of budgets"},
    }, ("multlab", "auxsearch_command")),
}


class _Subparser:
    """One subcommand's parser, built only when its subcommand is parsed.

    `add_parser` passes its keywords here, and argparse calls nothing on the
    chosen subparser but `parse_known_args` (3.13 also warns through it for
    a subcommand declared deprecated, which none is), so the other
    subcommands' options are never built."""

    def __init__(self, options: dict, **kwargs):
        self.options, self.kwargs = options, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        for option, kwargs in self.options.items():
            parser.add_argument(f"--{option}", **kwargs)
        return parser.parse_known_args(args, namespace)


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
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)
    for name, (summary, options, _) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=summary, options=options)
    return parser


def _dispatch(args) -> tuple[dict, int]:
    """Imports and runs the subcommand's handler; returns (record, exit
    code).  The handler sets the payload, which is the CSV text under
    --format csv, and may replace the params."""
    if args.subcommand == "auxsearch":
        # refused before the search's layers load
        if args.grid is not None and (args.d0 is not None or args.d is not None):
            raise CliError("auxsearch takes either --d0 and --d, or --grid, not both")
        if args.grid is None and (args.d0 is None or args.d is None):
            raise CliError("auxsearch needs either --d0 and --d, or --grid")
    _, options, (home, name) = _COMMANDS[args.subcommand]
    record = {"subcommand": args.subcommand, "params": {o: getattr(args, o) for o in options}, "payload": {}}
    handler = getattr(__import__(f"ramlab.{home}", fromlist=(name,)), name)
    return record, handler(args, record)


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
    file: path is empty or a directory, or its parent is missing or not a
    directory.  Any other failure is reported when the output is written."""
    if not path:
        return os.strerror(errno.ENOENT)
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
    reason = args.out is not None and _unwritable(args.out)
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_USAGE
    try:
        record, code = _dispatch(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_USAGE

    if args.format == "json":
        output = json.dumps(record, indent=2) + "\n"
    elif args.format == "csv":
        output = record["payload"]
    else:
        output = _render_text(record)

    if args.out is not None:
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
