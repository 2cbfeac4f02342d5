"""The derivation D of the extended Ramanujan system: the velocity of each
variable, built when it is read, which is the one statement of the system,
and E_{2k} in E4 and E6 by the Weierstrass recurrence, for the closings.

Callers import these names from here.  `ring` forwards `derive` alone
(`arith.forward_names`), only because the benchmark's trace shim wraps it
as `ring.derive`.  A process that never applies D, as the search does not,
never compiles this module.  The commands that load it are `deriv` and
`stable`, which apply D, and `verify-system` and `ak`, which check it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .arith import bernoulli
from .ring import Polynomial, SystemConfig, _products, _slots

__all__ = ["eisenstein_polynomial", "velocity", "derive"]


# F_k = (2k-1) c_k E_{2k} (see eisenstein_polynomial) as (den, [(i, j), n, 1]
# per term): the sum of n/den F_2^i F_3^j.  Append-only, grown on demand.
_WEIERSTRASS: list[tuple[int, list]] = [(1, [])] * 2 + [(1, [((1, 0), 1, 1)]), (1, [((0, 1), 1, 1)])]


def eisenstein_polynomial(k: int) -> Polynomial:
    """E_{2k} in the ring of m = 1: the variable E2, E4 or E6 for k <= 3, else
    a polynomial in E4 and E6 (Serre, A Course in Arithmetic, ch. VII).

    The Weierstrass function P(w) = w^-2 + sum_{n>=2} (2n-1) G_{2n} w^(2n-2)
    solves P'' = 6 P^2 - 30 G_4.  For k >= 4 its w^(2k-4) coefficients give
    (2k-1)(2k-2)(2k-3) G_{2k} = 12 (2k-1) G_{2k} + 6 S, with S the sum over
    a = 2..k-2 of (2a-1)(2k-2a-1) G_{2a} G_{2k-2a}, and (2k-2)(2k-3) - 12 =
    2 (2k+1)(k-3), so (2k+1)(k-3)(2k-1) G_{2k} = 3 S.  With c_k = (-1)^(k+1)
    B_{2k}/(2k)!, G_{2k} = 2 zeta(2k) E_{2k} = c_k (2 pi)^(2k) E_{2k}, and the
    powers of 2 pi cancel: (2k+1)(k-3)(2k-1) c_k E_{2k} =
    3 sum_{a=2}^{k-2} (2a-1)(2k-2a-1) c_a c_{k-a} E_{2a} E_{2k-2a}; E8 = E4^2.
    So F_k = (2k-1) c_k E_{2k} has (2k+1)(k-3) F_k = 3 sum F_a F_{k-a}, run in
    integers over one denominator per k, in F_2 = 3 c_2 E4 and F_3 = 5 c_3 E6.
    """
    cfg = SystemConfig(1)
    if k <= 3:
        return Polynomial.variable(f"E{2 * k}", cfg)
    while len(_WEIERSTRASS) <= k:
        j = len(_WEIERSTRASS)
        # the pairs a <= j-a, each twice in the sum unless a = j-a
        halves = [(*_WEIERSTRASS[a], *_WEIERSTRASS[j - a], 2 - (2 * a == j)) for a in range(2, j // 2 + 1)]
        den = lcm(*(da * db for da, _, db, _, _ in halves))
        pairs = (([(e, 3 * twice * (den // (da * db)) * n, 1) for e, n, _ in fa], fb)
                 for da, fa, db, fb, twice in halves)
        terms = [(e, c.numerator, 1) for e, c in _products(pairs).items()]
        _WEIERSTRASS.append((den * (2 * j + 1) * (j - 3), terms))
    w2, w3, wk = ((2 * a - 1) * (-1) ** (a + 1) * bernoulli(2 * a) / factorial(2 * a) for a in (2, 3, k))
    den, terms = _WEIERSTRASS[k]
    return Polynomial(cfg, {(0, 0, i, j, 0): n * w2**i * w3**j / (den * wk) for (i, j), n, _ in terms})


def velocity(name: str, cfg: SystemConfig) -> Polynomial:
    """D applied to one variable, built when it is read.  This is the one
    definition of the system; `derive` reads it, and `_checks.verify_system`
    checks it.  KeyError if no variable has this name."""
    if _slots(cfg.m)[name] < 4:
        z, x1, x2, x3 = (Polynomial.variable(x, cfg) for x in ("z", "E2", "E4", "E6"))
        return {
            "z": lambda: z,
            "E2": lambda: (x1 * x1 - x2).scale(Fraction(1, 12)),
            "E4": lambda: (x1 * x2 - x3).scale(Fraction(1, 3)),
            "E6": lambda: (x1 * x3 - x2 * x2).scale(Fraction(1, 2)),
        }[name]()
    u, v = map(int, name[2:-1].split(","))
    if u < v - 1:
        return Polynomial.variable(f"g[{u + 1},{v}]", cfg)
    # D(g[v-1,v]) = (B_{v+1}/(2v+2)) * (1 - E_{v+1}) at m = 1; z, E2, E4, E6
    # lead every m's variables, so its terms are padded with zeros
    closing = (1 - eisenstein_polynomial((v + 1) // 2)).scale(bernoulli(v + 1) / (2 * v + 2))
    pad = (0,) * (cfg.nvars - 4)
    return Polynomial(cfg, {mono[:4] + pad: c for mono, c in closing})


@lru_cache(maxsize=None)
def _shifted(m: int, i: int) -> tuple:
    """D(x_i)/x_i at m as terms (shift, numerator, denominator), each over its
    own coefficient's denominator; a shift may have an exponent -1.  Built
    when `derive` first reads it."""
    cfg = SystemConfig(m)
    return tuple((mono[:i] + (mono[i] - 1,) + mono[i + 1 :], c.numerator, c.denominator)
                 for mono, c in velocity(cfg.names[i], cfg))


def derive(p: Polynomial) -> Polynomial:
    """The derivation D = z d/dz + sum of coefficient polynomials times d/dx.
    Contributions to one monomial over different denominators are
    cross-multiplied by `_products`."""
    m = p.config.m
    # (c*e) * mono * (D(x_i)/x_i) for each variable x_i of each term
    pairs = (
        (((mono, c.numerator * e, c.denominator),), _shifted(m, i))
        for mono, c in p.terms.items() for i, e in enumerate(mono) if e
    )
    return Polynomial(p.config, _products(pairs))
