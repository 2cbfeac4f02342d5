"""Expected answers for every benchmark command, and the check against them.

Fixed commands (`verify`, `search`, `rank`) are checked against values pinned
in oracle.json.  Regenerate that file only on purpose, from a commit whose
answers are trusted:

    python3 perfbench/oracle.py --pin

The seeded `symbolic` commands are checked against an independent reference:
D from the system's velocities (workloads.derive), exact division by leading
terms, and the cofactor a*E2 + b of (E4^3-E6^2)^a * z^b.

What is pinned leaves out `precision` of a search cell, which an adaptive
precision is allowed to change; every other reported field of a cell is kept.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import workloads

ORACLE_FILE = Path(__file__).with_name("oracle.json")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def payload_of(stdout: str) -> dict:
    """The payload of a command's output, in JSON or the default text format."""
    if stdout.startswith("{"):
        return json.loads(stdout)["payload"]
    start = stdout.index("\n{") + 1  # the params lines above are indented
    return json.loads(stdout[start:])


def answer(argv: list[str], stdout: str) -> dict:
    """The fields of one fixed command's output that the oracle pins."""
    payload = payload_of(stdout)
    sub = next(a for a in argv if a in ("verify-system", "ak", "series", "auxsearch"))
    if sub == "verify-system":
        return payload
    if sub == "ak":
        mons = payload["monomials"]
        return {"monomials": len(mons), "digest": digest(mons)}
    if sub == "series":
        cs = payload["coefficients"]
        return {"precision": payload["precision"], "coefficients": len(cs), "digest": digest(cs)}
    return {
        "rows": [
            {
                "cell": [r["m"], r["d0"], r["d"]],
                "T": r["T"],
                "n_star": r["n_star"],
                "ord": r["ord"],
                "ratio": r["ratio"],
                "ratio_paper": r["ratio_paper"],
                "witness": digest(r["witness"]),
                "precision_limited": r["precision_limited"],
            }
            for r in payload["rows"]
        ],
    }


# -- the independent reference for `symbolic` ----------------------------


def divide(p: dict, q: dict):
    """p / q if q divides p exactly, else None (leading terms, graded-lex)."""
    key = lambda t: (sum(t), t)  # noqa: E731
    q_mono = max(q, key=key)
    q_coeff = q[q_mono]
    rem = dict(p)
    quotient: dict = {}
    while rem:
        r_mono = max(rem, key=key)
        diff = tuple(a - b for a, b in zip(r_mono, q_mono))
        if min(diff) < 0:
            return None
        c = rem[r_mono] / q_coeff
        quotient[diff] = c
        for mono, qc in q.items():
            t = tuple(a + b for a, b in zip(diff, mono))
            v = rem.get(t, 0) - c * qc
            if v:
                rem[t] = v
            else:
                rem.pop(t, None)
    return quotient


def symbolic_expected(case: dict) -> dict:
    """The payload a `symbolic` command must print."""
    if case["kind"] == "stable_delta":
        names = workloads.variable_names(1)
        e2 = tuple(int(n == "E2") for n in names)
        cof = {e2: Fraction(case["a"]), (0,) * len(names): Fraction(case["b"])}
        return {"stable": True, "cofactor": workloads.format_poly(cof, names)}
    names = workloads.variable_names(case["m"])
    d = workloads.derive(case["poly"], case["m"])
    if case["kind"] == "deriv":
        return {"derivative": workloads.format_poly(d, names)}
    cof = divide(d, case["poly"])
    if cof is None:
        return {"stable": False}
    return {"stable": True, "cofactor": workloads.format_poly(cof, names)}


# -- checking --------------------------------------------------------------


def load() -> dict:
    """Pinned answers of the fixed commands, keyed by command label."""
    with open(ORACLE_FILE) as fh:
        return json.load(fh)


def expected_for(cmds: list[dict], pinned: dict) -> list[dict]:
    """Expected answer of each command, computed before any timing starts."""
    out = []
    for cmd in cmds:
        if cmd["kind"] == "pinned":
            out.append(pinned[cmd["label"]])
        else:
            out.append(symbolic_expected(cmd))
    return out


def check(cmd: dict, expected: dict, code: int, stdout: str) -> str | None:
    """None when the command's exit code and answer are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        if cmd["kind"] == "pinned":
            got = answer(cmd["argv"], stdout)
        else:
            got = payload_of(stdout)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"
    if got != expected:
        return "answer differs from the oracle"
    return None


def pin(root: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    pinned = {}
    for workload in workloads.FIXED:
        for cmd in workloads.commands(workload, 0):
            proc = subprocess.run(
                [sys.executable, "-m", "ramlab.cli", *cmd["argv"]],
                cwd=root, env=env, capture_output=True, text=True, check=True,
            )
            pinned[cmd["label"]] = answer(cmd["argv"], proc.stdout)
    with open(ORACLE_FILE, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 perfbench/oracle.py --pin")
    pin(Path(__file__).resolve().parent.parent)
