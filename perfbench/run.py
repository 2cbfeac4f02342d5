"""ramlab benchmark: fixed CLI workloads, timed end to end, answers checked.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

The program is the one in src/ of the checkout holding this file.  Each
command runs in a fresh interpreter, one at a time, the way a user runs it
(a closed loop with one client).  The commands of the workload run
round-robin until --seconds have elapsed.

After every timed process, reference.py runs in a fresh interpreter.  The
machine this was built on changes speed by up to 1.6x, for periods from
under a second to minutes, because of other load on its host.  Dividing a
process's time by the mean of the reference times just before and after it
cancels most of that.  Every time reported in seconds is such a ratio times
REFERENCE_S, the reference's time at full speed: seconds at a fixed machine
speed.  The raw times are in `info`.

--trace 0 prints the end-to-end metrics:
  wall_s        one pass over the workload, process starts included: the sum
                over commands of each command's median time
  setup_s       median of set-up probes spread over the run: interpreter
                start plus `import ramlab.cli`
  peak_rss_mib  largest peak RSS of any command process (per command, the
                median over its runs)
--trace 1 follows each untraced run with a run of the same command through
trace_shim.py, and prints the per-layer metrics (see README.md).

Every run's exit code and answer are checked (oracle.py), and its stdout
must be byte-identical to the command's first untraced run.  The last stdout
line is the JSON result; the line before it, `{"info": ...}`, records the
environment and the raw times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHIM = HERE / "trace_shim.py"
REFERENCE = HERE / "reference.py"
REFERENCE_S = 0.13  # reference.py at full speed on a 2-vCPU Xeon, Python 3.11
SETUP_SAMPLES = 15
MIN_SAMPLES = 2  # runs of each command, even if that overruns --seconds
HARD_LIMIT_S = 170  # no process may run past this point of the run
HELD_OUT_SEED = 90017  # never used while writing a change; re-check claims on it


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through run_command's cleanup


def run_command(argv: list[str], env: dict, tmpdir: str, timeout: float) -> dict:
    """Run one process to completion; wall time, exit code, output, peak RSS."""
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                code = os.waitstatus_to_exitcode(status)
            except CommandTimeout:
                code = "timeout"
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # terminated or interrupted: stop the child too
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return {
        "seconds": seconds,
        "code": code,
        "stdout": stdout,
        "stderr": stderr,
        "rss_mib": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    }


class Bench:
    """One workload's commands, their expected answers, and every run made."""

    def __init__(self, workload: str, seed: int, tmpdir: str, pinned: dict):
        self.cmds = workloads.commands(workload, seed)
        self.expected = oracle.expected_for(self.cmds, pinned)
        self.tmpdir = tmpdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.start = time.perf_counter()
        self.first_stdout: list[str | None] = [None] * len(self.cmds)
        self.runs = {False: [[] for _ in self.cmds], True: [[] for _ in self.cmds]}
        self.failures: list[str] = []
        self.reference_s: list[float] = [self._reference()]

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def _reference(self) -> float:
        r = run_command([sys.executable, str(REFERENCE)], self.env, self.tmpdir, self.remaining())
        if r["code"] != 0:
            raise SystemExit(f"reference.py failed:\n{r['stderr']}")
        return r["seconds"]

    def timed(self, argv: list[str]) -> dict:
        """Run one process, then the reference; scale its time to full speed."""
        r = run_command(argv, self.env, self.tmpdir, self.remaining())
        self.reference_s.append(self._reference())
        r["scale"] = REFERENCE_S / statistics.mean(self.reference_s[-2:])
        r["scaled_s"] = r["seconds"] * r["scale"]
        return r

    def run(self, i: int, traced: bool) -> None:
        """Run command i once and check its exit code and answer."""
        cmd = self.cmds[i]
        prefix = [sys.executable, str(SHIM)] if traced else [sys.executable, "-m", "ramlab.cli"]
        r = self.timed(prefix + cmd["argv"])
        failure = oracle.check(cmd, self.expected[i], r["code"], r["stdout"])
        if traced:
            line = r["stderr"].rstrip("\n").rpartition("\n")[2]
            r["trace"] = json.loads(line[6:]) if line.startswith("TRACE ") else None
            if failure is None and r["trace"] is None:
                failure = "traced run wrote no trace"
        if failure is None:
            if self.first_stdout[i] is None:
                self.first_stdout[i] = r["stdout"]
            elif r["stdout"] != self.first_stdout[i]:
                failure = "stdout differs from the first run" + (" (traced)" if traced else "")
        if failure is not None:
            self.failures.append(f"{cmd['label']}: {failure}")
        self.runs[traced][i].append(r)

    @property
    def attempted(self) -> int:
        return sum(len(rs) for runs in self.runs.values() for rs in runs)

    def setup_time(self) -> dict:
        r = self.timed([sys.executable, "-c", "import ramlab.cli"])
        if r["code"] != 0:
            raise SystemExit(f"cannot import ramlab.cli from {ROOT / 'src'}:\n{r['stderr']}")
        return r

    def pass_s(self, traced: bool) -> float:
        """One pass: the sum over commands of each command's median time."""
        return sum(statistics.median(r["scaled_s"] for r in rs) for rs in self.runs[traced])

    def passes(self, key: str) -> list[float]:
        """Times of the complete untraced passes, in the order they ran."""
        runs = self.runs[False]
        return [sum(rs[j][key] for rs in runs) for j in range(min(map(len, runs)))]


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "min": min(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    out["all"] = values
    return out


SPAN_NAMES = (
    "arith.sigma_table", "series.mul", "series.add", "series.pow",
    "forms.function_tuple", "forms.ak_polynomial", "forms.verify_system",
    "ring.evaluate", "ring.derive", "ring.exact_divide", "ring.parse",
    "ring.format_polynomial", "ring.poly_mul", "stability.principal_stability",
    "multlab.max_vanishing_search", "linalg.reduce", "linalg.add",
    "linalg.kernel_vector", "linalg.solve_square", "cli",
)
COUNTS = ("series.mul.coeff_products", "multlab.rows_consumed", "multlab.basis_T", "multlab.precision_sum")


def layer_metrics(bench: Bench) -> dict:
    """Per-layer metrics from the traced runs; see README.md.

    Counts come from each command's first traced run (they repeat exactly).
    A self time is scaled like the run it was measured in, and is the median
    over a command's traced runs, summed over the commands of the pass.
    """
    runs = bench.runs[True]
    first = [rs[0]["trace"] or {} for rs in runs]

    def total(kind: str, name: str) -> int:
        return sum(t.get(kind, {}).get(name, 0) for t in first)

    def self_s(name: str) -> float:
        return sum(
            statistics.median((r["trace"] or {}).get("self_s", {}).get(name, 0.0) * r["scale"] for r in rs)
            for rs in runs
        )

    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        if name != "cli":  # cli.run is called once per command
            metrics[f"{name}.calls"] = (total("calls", name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in COUNTS:
        metrics[name] = (total("counts", name), "count")
    reduced = total("counts", "linalg.rows_reduced")
    raising = total("counts", "linalg.rows_raising_rank")
    metrics["linalg.rank_gain_ratio"] = (raising / reduced if reduced else 0.0, "ratio")
    metrics["cli.output_bytes"] = (sum(len(out.encode()) for out in bench.first_stdout if out), "bytes")
    metrics["trace.span_s"] = (sum(self_s(name) for name in SPAN_NAMES), "s")
    untraced, traced = bench.pass_s(False), bench.pass_s(True)
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    return metrics


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramlab" / "cli.py").is_file():
        print(f"error: no ramlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmpdir:
        bench = Bench(args.workload, args.seed, tmpdir, oracle.load())
        bench.setup_time()  # warm-up: byte-compiles src/ on a fresh checkout
        # Commands run round-robin until the deadline, so that every command
        # is sampled across the whole run; set-up probes are spread likewise.
        setup: list[dict] = []
        t0 = time.perf_counter()
        deadline = t0 + args.seconds
        probe_every = args.seconds / SETUP_SAMPLES
        next_probe = t0
        n = len(bench.cmds)
        k = 0
        while bench.remaining() > 0:
            now = time.perf_counter()
            if now >= deadline and min(map(len, bench.runs[False])) >= MIN_SAMPLES:
                break
            bench.run(k % n, traced=False)
            if args.trace:
                bench.run(k % n, traced=True)
            elif now >= next_probe:
                setup.append(bench.setup_time())
                next_probe += probe_every
            k += 1
        while not args.trace and len(setup) < SETUP_SAMPLES and bench.remaining() > 0:
            setup.append(bench.setup_time())

    runs = bench.runs[False]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        **environment(),
        "reference_s": summary(bench.reference_s),
        "pass_raw_s": summary(bench.passes("seconds")),
        "pass_s": summary(bench.passes("scaled_s")),
        "command_raw_s": {c["label"]: summary([r["seconds"] for r in rs]) for c, rs in zip(bench.cmds, runs)},
        "command_s": {c["label"]: summary([r["scaled_s"] for r in rs]) for c, rs in zip(bench.cmds, runs)},
        "failures": bench.failures[:20],
    }
    if args.trace:
        metrics = layer_metrics(bench)
    else:
        info["setup_raw_s"] = summary([r["seconds"] for r in setup])
        metrics = {
            "wall_s": (bench.pass_s(False), "s"),
            "setup_s": (statistics.median(r["scaled_s"] for r in setup), "s"),
            "peak_rss_mib": (max(statistics.median(r["rss_mib"] for r in rs) for rs in runs), "MiB"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
