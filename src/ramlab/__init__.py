"""Exact computer algebra for the extended Ramanujan differential system.

Subpackages:
  arith      Bernoulli numbers, divisor sums, shared exact helpers
  series     truncated power series over rationals, Euler operator, ord
  forms      E_{2k}, g_{u,v}, Delta, Theta, k0, the function tuple, evaluation
  ring       sparse polynomial ring, printer, parser entry
  stability  principal D-stability (does Q divide DQ?)
  multlab    auxiliary-polynomial vanishing experiments
  cli        command-line front end: the subcommand table, the parser, output

Layering and start-up: `import ramlab` loads no layer, each name is
imported from the module that defines it, `ring` loads only `arith` (and
`_parse` when it parses), and the CLI imports, for the
subcommand that runs, its one handler from a module that the subcommand
loads anyway.  Code that only some commands run lives in a private module,
so a command's process start does not compile it:
  _parse     the parser, loaded by `ring.parse`
  _system    D, its velocity table and E_{2k} in E4 and E6
  _checks    `verify_system` and `ak_polynomial`
  _bareiss   `RowReducer` and `solve_square`
  _argparse  the argparse parser, for a command line that `cli` does not
             parse from its tables (help, a usage error, any form but
             `--name value`): no canonical command pays its 4.7 ms
`ring`, `forms` and `_linalg` forward (`arith.forward_names`) only the names
of these, and `forms.evaluate`, that the benchmark's trace shim wraps there.
So `ramlab deriv` and `ramlab stable` load only `arith`, `ring`, `_parse` and
`_system` (and `stability`) at every m, no q-series layer; the search loads
none of the four, and only `multlab` loads `_linalg`.
"""

__all__ = ["CliError", "arith", "series", "forms", "ring", "stability", "multlab", "cli"]
__version__ = "0.1.0"


class CliError(Exception):
    """A refusal (an `error:` line, exit `code`); not in `cli`, which may run as `__main__`."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code
