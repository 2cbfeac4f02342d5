"""Shows that the benchmark's answer checks bite.

    python3 perfbench/selfcheck.py [--seed N]

For every workload, each command runs once untraced and once through the
trace shim.  The self-check passes (exit 0) when
  - no run fails against the real oracle,
  - every traced run's stdout is byte-identical to the untraced run's, and
  - with every expected answer corrupted in one field, every run fails, so
    the failed fraction the benchmark reports is above zero.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile

import oracle
import workloads
from run import ROOT, Bench, _on_alarm


def corrupt(value):
    """A copy of an expected answer with one leaf changed."""
    if isinstance(value, dict):
        key = min(value)
        return {**value, key: corrupt(value[key])}
    if isinstance(value, list):
        return [corrupt(value[0]), *value[1:]] if value else [None]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return f"{value}?"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    ok = True
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmpdir:
        pinned = oracle.load()
        for workload in workloads.WORKLOADS:
            bench = Bench(workload, args.seed, tmpdir, pinned)
            n = len(bench.cmds)
            for i in range(n):
                bench.run(i, traced=False)
                bench.run(i, traced=True)
            clean = len(bench.failures)
            identical = sum(
                bench.runs[False][i][0]["stdout"] == bench.runs[True][i][0]["stdout"]
                for i in range(n)
            )
            bench.expected = [corrupt(e) for e in bench.expected]
            for i in range(n):
                bench.run(i, traced=False)
            bitten = len(bench.failures) - clean
            print(
                f"{workload}: {clean} of {2 * n} runs fail against the oracle; "
                f"{identical} of {n} traced outputs byte-identical; "
                f"{bitten} of {n} runs fail against a corrupted oracle"
            )
            for failure in bench.failures[:clean]:
                print(f"  {failure}")
            ok = ok and clean == 0 and identical == n and bitten == n
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
