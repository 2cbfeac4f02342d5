"""Exact computer algebra for the extended Ramanujan differential system.

Subpackages:
  arith      Bernoulli numbers, divisor sums, shared exact helpers
  series     truncated power series over rationals, Euler operator, ord
  forms      E_{2k}, g_{u,v}, Delta, Theta, k0, the function tuple
  ring       sparse polynomial ring, evaluation, printer, parser entry
  stability  principal D-stability (does Q divide DQ?)
  multlab    auxiliary-polynomial vanishing experiments
  cli        command-line front end

Layering and start-up: `import ramlab` loads no layer.  The four names
below resolve on first use (PEP 562), `ring` loads only `arith` until it
evaluates at the function tuple, and the CLI imports each layer in the
subcommand that runs it.  Code that only some commands run lives in a
private module that its public home loads on first use, so a command's
process start does not compile it:
  _parse     the parser, loaded by `ring.parse`
  _system    D, its velocity table and E_{2k} in E4 and E6, resolved by `ring`
  _checks    `verify_system` and `ak_polynomial`, resolved by `forms`
  _bareiss   `RowReducer` and `solve_square`, resolved by `_linalg`
So `ramlab deriv` and `ramlab stable` load only `arith`, `ring`, `_parse`
and `_system` (and `stability`) at every m, the search loads none of the
four, and only `multlab` loads `_linalg`.
"""

__all__ = ["Order", "TruncatedSeries", "Polynomial", "SystemConfig"]
__version__ = "0.1.0"

_HOMES = {
    "Order": "series",
    "TruncatedSeries": "series",
    "Polynomial": "ring",
    "SystemConfig": "ring",
}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_HOMES[name]}", __name__), name)
