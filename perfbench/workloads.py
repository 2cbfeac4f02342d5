"""The benchmark's workloads: fixed ramlab command lines, plus the seeded
polynomial inputs of the `symbolic` workload.

Polynomials here are plain dicts {exponent tuple: Fraction} over the
variable order z, E2, E4, E6, g[u,v] (v odd ascending, then u), which is the
order ramlab prints in.  Nothing in this module imports ramlab: the program
under test receives only the generated text.
"""

from __future__ import annotations

import random
from fractions import Fraction

# `series --which g[2,3]` prints JSON so that the large dump goes through the
# JSON renderer; every other command uses the default text format.
FIXED = {
    "verify": [
        ["verify-system", "--m", "7", "--prec", "200"],
        ["ak", "--k", "12", "--prec", "200"],
        ["series", "--which", "Theta", "--prec", "300"],
        ["--format", "json", "series", "--which", "g[2,3]", "--prec", "1000"],
    ],
    "search": [
        ["auxsearch", "--m", "1", "--grid", "1:2"],
        ["auxsearch", "--m", "3", "--grid", "1:1"],
    ],
    "rank": [
        ["auxsearch", "--m", "5", "--d0", "3", "--d", "1", "--prec", "57"],
    ],
}

WORKLOADS = ("verify", "search", "rank", "symbolic")

# Shape of the seeded `symbolic` inputs.  Every seed gives, per m, a base
# polynomial with the same number of terms per total degree, whose cube has
# exactly C(k+2, 3) distinct monomials and whose derivative has its term count
# within DERIVATIVE_SLACK of DERIVATIVE_TERMS[m] (the median over seeds).  So
# the amount of work barely depends on the seed; the monomials and
# coefficients do.
SYMBOLIC_MS = (3, 5)
BASE_DEGREES = (1, 1, 1, 2, 2, 2, 2, 3, 3, 3)
CUBE = 3
DERIVATIVE_TERMS = {3: 1015, 5: 1204}
DERIVATIVE_SLACK = 0.01
DELTA_POWER = 60  # stable on (E4^3-E6^2)^a * z^b with this a
DELTA_Z_POWER = 2  # ... and this b


def variable_names(m: int) -> tuple[str, ...]:
    ys = tuple(f"g[{u},{v}]" for v in range(1, m + 1, 2) for u in range(v))
    return ("z", "E2", "E4", "E6") + ys


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(poly: dict, names: tuple[str, ...]) -> str:
    """ramlab's canonical text: graded-lex descending, exact rationals."""
    if not poly:
        return "0"
    pieces = []
    for idx, mono in enumerate(sorted(poly, key=lambda t: (sum(t), t), reverse=True)):
        c = poly[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        mag = abs(c)
        if not factors:
            body = _frac(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_frac(mag)] + factors)
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _velocities(m: int) -> list[dict]:
    """D of each variable, written out from the system's definition."""
    names = variable_names(m)

    def mono(*factors: str) -> tuple:
        e = [0] * len(names)
        for name in factors:
            e[names.index(name)] += 1
        return tuple(e)

    F = Fraction
    vels = [
        {mono("z"): F(1)},
        {mono("E2", "E2"): F(1, 12), mono("E4"): F(-1, 12)},
        {mono("E2", "E4"): F(1, 3), mono("E6"): F(-1, 3)},
        {mono("E2", "E6"): F(1, 2), mono("E4", "E4"): F(-1, 2)},
    ]
    # closing velocity of g[v-1,v]: (B_{v+1}/(2v+2)) * (1 - E_{v+1})
    closing = {1: ("E2", F(1, 6) / 4), 3: ("E4", F(-1, 30) / 8), 5: ("E6", F(1, 42) / 12)}
    for name in names[4:]:
        u, v = map(int, name[2:-1].split(","))
        if u < v - 1:
            vels.append({mono(f"g[{u + 1},{v}]"): F(1)})
        else:
            eis, c = closing[v]
            vels.append({mono(): c, mono(eis): -c})
    return vels


def derive(poly: dict, m: int) -> dict:
    """Reference D, accumulating every term into one dict."""
    vels = _velocities(m)
    out: dict = {}
    for mono, c in poly.items():
        for i, e in enumerate(mono):
            if not e:
                continue
            lowered = list(mono)
            lowered[i] -= 1
            for vm, vc in vels[i].items():
                t = tuple(a + b for a, b in zip(lowered, vm))
                out[t] = out.get(t, 0) + c * e * vc
    return {k: v for k, v in out.items() if v}


def _random_base(m: int, rng: random.Random) -> tuple[dict, dict]:
    """A base B of the fixed shape, and B^CUBE."""
    nvars = len(variable_names(m))
    while True:
        base: dict = {}
        for deg in BASE_DEGREES:
            mono = [0] * nvars
            for _ in range(deg):
                mono[rng.randrange(nvars)] += 1
            num = rng.choice([n for n in range(-9, 10) if n])
            base[tuple(mono)] = Fraction(num, rng.randint(1, 9))
        cube = _power(base, CUBE)
        k = len(BASE_DEGREES)
        if len(base) != k or len(cube) != k * (k + 1) * (k + 2) // 6:
            continue
        target = DERIVATIVE_TERMS[m]
        if abs(len(derive(cube, m)) - target) <= DERIVATIVE_SLACK * target:
            return base, cube


def _power(p: dict, e: int) -> dict:
    out = p
    for _ in range(e - 1):
        out = poly_mul(out, p)
    return out


def symbolic_inputs(seed: int) -> list[dict]:
    """The seeded `symbolic` cases: each has argv and what the oracle needs.

    For each m, one random base B; Q = B^3 is passed compact as "(B)^3" and
    expanded, to both `deriv` and `stable`.
    """
    rng = random.Random(seed)
    cases = []
    for m in SYMBOLIC_MS:
        names = variable_names(m)
        base, cube = _random_base(m, rng)
        texts = {
            "compact": f"({format_poly(base, names)})^{CUBE}",
            "expanded": format_poly(cube, names),
        }
        for form, text in texts.items():
            for sub in ("deriv", "stable"):
                cases.append(
                    {
                        "argv": [sub, "--poly", text, "--m", str(m)],
                        "kind": sub,
                        "m": m,
                        "poly": cube,
                        "label": f"{sub} m={m} {form}",
                    }
                )
    a, b = DELTA_POWER, DELTA_Z_POWER
    cases.append(
        {
            "argv": ["stable", "--poly", f"(E4^3-E6^2)^{a}*z^{b}", "--m", "1"],
            "kind": "stable_delta",
            "m": 1,
            "a": a,
            "b": b,
            "label": f"stable m=1 Delta^{a}*z^{b}",
        }
    )
    return cases


def commands(workload: str, seed: int) -> list[dict]:
    """Every command of one pass, in order, with its oracle key."""
    if workload == "symbolic":
        return symbolic_inputs(seed)
    return [
        {"argv": argv, "kind": "pinned", "label": " ".join(argv)}
        for argv in FIXED[workload]
    ]
