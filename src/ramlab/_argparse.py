"""The argparse parser, for a command line that `cli` does not parse from
its tables: help, a usage error, an abbreviation, `--name=value`, a
repeated option or `--`.  Only such a command line loads this module, and
with it argparse, gettext and locale.  `cli` may run as __main__, so its
tables are passed in, not imported.
"""

from __future__ import annotations

import argparse
from types import SimpleNamespace

__all__ = ["parse_args"]


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


def parse_args(argv: list[str] | None, global_options: dict, commands: dict) -> SimpleNamespace:
    """argv's namespace, as cli builds a canonical one; exits as argparse
    does on help or a usage error."""
    # global options, also accepted after the subcommand: one set of actions
    # shared by the top-level parser and every subcommand.  Their SUPPRESS
    # defaults never clobber a value given up front; the namespace parsed
    # into holds their values when not given
    common = argparse.ArgumentParser(add_help=False)
    for option, (kwargs, _) in global_options.items():
        common.add_argument(f"--{option}", default=argparse.SUPPRESS, **kwargs)

    parser = argparse.ArgumentParser(
        prog="ramlab",
        description="Exact computations around the extended Ramanujan system.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subparser)
    for name, (summary, options, _) in commands.items():
        sub.add_parser(name, parents=[common], help=summary, options=options)
    defaults = {option: default for option, (_, default) in global_options.items()}
    return parser.parse_args(argv, SimpleNamespace(**defaults))
