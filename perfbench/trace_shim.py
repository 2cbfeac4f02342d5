"""Run one ramlab command with each layer's public functions wrapped in spans.

    PYTHONPATH=src python3 perfbench/trace_shim.py <ramlab arguments...>

stdout and the exit code are the command's own.  After the command, one
line `TRACE {json}` goes to stderr with, per span name, the call count and
the self time (the span's duration minus the time of the spans it caused),
plus a few counts read from arguments and results.

Every wrapper is installed from here; ramlab's source is untouched.  A name
imported elsewhere with `from .x import name` is patched in every module that
holds it, and methods are patched on their class (with aliases such as
`__rmul__ = __mul__`), so each lookup the program makes reaches a wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from ramlab import _linalg, arith, cli, forms, multlab, ring, series, stability

MODULES = (arith, series, forms, ring, stability, multlab, _linalg, cli)

# span name -> (owner, attribute): a module function or a class method
SPANS = {
    "arith.sigma_table": (arith, "sigma_table"),
    "series.mul": (series.TruncatedSeries, "__mul__"),
    "series.add": (series.TruncatedSeries, "__add__"),
    "series.pow": (series.TruncatedSeries, "__pow__"),
    "forms.function_tuple": (forms, "function_tuple"),
    "forms.ak_polynomial": (forms, "ak_polynomial"),
    "forms.verify_system": (forms, "verify_system"),
    "ring.evaluate": (ring, "evaluate"),
    "ring.derive": (ring, "derive"),
    "ring.exact_divide": (ring.Polynomial, "exact_divide"),
    "ring.parse": (ring, "parse"),
    "ring.format_polynomial": (ring, "format_polynomial"),
    "ring.poly_mul": (ring.Polynomial, "__mul__"),
    "stability.principal_stability": (stability, "principal_stability"),
    "multlab.max_vanishing_search": (multlab, "max_vanishing_search"),
    "linalg.reduce": (_linalg.RowReducer, "reduce"),
    "linalg.add": (_linalg.RowReducer, "add"),
    "linalg.kernel_vector": (_linalg.RowReducer, "kernel_vector"),
    "linalg.solve_square": (_linalg, "solve_square"),
    "cli": (cli, "run"),
}


class Recorder:
    """Call counts, self times and counters; one per process."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []  # [name, child seconds]

    def wrap(self, name, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(self.counts, parent, args, result)
            return result

        return wrapper

    def install(self):
        for name, (owner, attr) in SPANS.items():
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            holders = [owner] if isinstance(owner, type) else MODULES
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def _observe_mul(counts, parent, args, result):
    a, b = args
    if isinstance(b, series.TruncatedSeries):
        p = min(a.precision, b.precision)
        counts["series.mul.coeff_products"] += (p + 1) * (p + 2) // 2


def _observe_search(counts, parent, args, result):
    counts["multlab.rows_consumed"] += result.n_star + 1
    counts["multlab.basis_T"] += result.T
    counts["multlab.precision_sum"] += result.precision


def _observe_reduce(counts, parent, args, result):
    if parent == "linalg.add":
        return  # add() re-reduces its row; count each matrix row once
    counts["linalg.rows_reduced"] += 1
    if any(x != 0 for x in result):
        counts["linalg.rows_raising_rank"] += 1


OBSERVERS = {
    "series.mul": _observe_mul,
    "multlab.max_vanishing_search": _observe_search,
    "linalg.reduce": _observe_reduce,
}


def main() -> int:
    recorder = Recorder()
    recorder.install()
    code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("TRACE " + json.dumps(recorder.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
