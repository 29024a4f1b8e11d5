"""Brute-force reference computations for the test suites.

Everything here recomputes from first principles: trial division for
factor counts and for the primes, direct loops for averages, full
enumeration for moment combinations.  The helpers shared with the fast
modules are the trial-division factoriser `sieve.factorize` and its
exponent sum `sieve.omega_oracle`; the sieve's segment kernel is never
touched, so agreement between the two is evidence, not tautology.

Single-threaded by design; determinism over speed.  Nothing here is
meant to scale past n = 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, ContractError
from .sieve import factorize, omega_oracle

__all__ = [
    "PeriodicTerm",
    "PeriodicCombo",
    "indicator_combo",
    "brute_correlation",
    "periodic_independence_check",
    "moment_identity_check",
]

_BRUTE_LIMIT = 10 ** 6


@dataclass(frozen=True)
class PeriodicTerm:
    """One weighted congruence indicator: coefficient * 1[n = residue mod modulus]."""

    coefficient: complex
    modulus: int
    residue: int

    def __post_init__(self):
        if abs(self.coefficient) > 1.0 + 1e-12:
            raise ContractError("term coefficients must have modulus <= 1")
        if self.modulus < 1:
            raise ContractError("modulus must be a positive integer")
        if not 0 <= self.residue < self.modulus:
            raise ContractError("residue must lie in [0, modulus)")


@dataclass(frozen=True)
class PeriodicCombo:
    """Finite linear combination of congruence indicators."""

    terms: tuple

    def __post_init__(self):
        if len(self.terms) == 0:
            raise ContractError("combo needs at least one term")

    @property
    def period(self) -> int:
        return math.lcm(*(t.modulus for t in self.terms))

    def evaluate(self, n: int) -> complex:
        total = 0.0 + 0.0j
        for t in self.terms:
            if n % t.modulus == t.residue:
                total += t.coefficient
        return total

    def period_mean(self) -> complex:
        """Exact mean over one full period: each term contributes c/a."""
        total = 0.0 + 0.0j
        for t in self.terms:
            total += t.coefficient / t.modulus
        return total


def indicator_combo(modulus: int, residue: int = 0) -> PeriodicCombo:
    return PeriodicCombo(terms=(PeriodicTerm(1.0 + 0.0j, modulus, residue),))


def brute_correlation(a, b, n_limit: int, shift: int,
                      weighting: str = "cesaro") -> complex:
    """Two-point correlation by direct loop, the slow way.

    a and b are callables on the factor count (the bounded level
    functions of the fast path work directly).  weighting is "cesaro"
    or "logarithmic".
    """
    n_limit, shift = int(n_limit), int(shift)
    if n_limit > _BRUTE_LIMIT:
        raise CapacityError("brute correlation capped at n = 10^6")
    if n_limit < 1 or shift < 0:
        raise ContractError("need n_limit >= 1 and shift >= 0")
    if weighting not in ("cesaro", "logarithmic"):
        raise ContractError(f"unknown weighting {weighting!r}")
    total = 0.0 + 0.0j
    mass = 0.0
    for n in range(1, n_limit + 1):
        w = 1.0 if weighting == "cesaro" else 1.0 / n
        total += w * a(omega_oracle(n)) * b(omega_oracle(n + shift))
        mass += w
    return complex(total / mass)


def periodic_independence_check(f: PeriodicCombo, g: PeriodicCombo,
                                n_limit: int) -> dict:
    """Compare the mean of f*g against the product of full-period means.

    Requires the two periods to be coprime.  scaled_error multiplies the
    gap by N/(k*l) where k and l are the term counts, so a universal
    constant should bound it uniformly in N.
    """
    n_limit = int(n_limit)
    if n_limit < 1:
        raise ContractError("need n_limit >= 1")
    r, s = f.period, g.period
    if math.gcd(r, s) != 1:
        raise ContractError(f"periods must be coprime, got {r} and {s}")
    total = 0.0 + 0.0j
    for n in range(1, n_limit + 1):
        total += f.evaluate(n) * g.evaluate(n)
    lhs = complex(total / n_limit)
    product = complex(f.period_mean() * g.period_mean())
    k, ell = len(f.terms), len(g.terms)
    scaled = abs(lhs - product) * n_limit / (k * ell)
    return {"lhs": lhs, "product": product, "scaled_error": float(scaled)}


def moment_identity_check(k: int, n_limit: int, p: int, q: int,
                          r_cutoff: float, m_limit: int | None = None) -> float:
    """k-th moment combination of truncated divisor-count differences.

    With X(n) = sum over primes r <= r_cutoff of (1[r | n+p] - 1[r | n+q])
    and Y(m) = sum over the same primes of 1[r | m], evaluates

        | E_{n<=N} X(n)^k  -  2 E_{m<=M, n<=N} (Y(m)-Y(n))^k
                           +  E_{m,l<=M} (Y(m)-Y(l))^k |

    by full enumeration with exact rational arithmetic.  Only k in
    {1, 2} is supported; the double averages are expanded over the
    product measure, which is exact, not an estimate.
    """
    if k not in (1, 2):
        raise ContractError("moment order k must be 1 or 2")
    n_limit = int(n_limit)
    if n_limit > 10 ** 5:
        raise CapacityError("moment check capped at n = 10^5")
    if n_limit < 1 or min(p, q) < 0:
        raise ContractError("need n_limit >= 1 and nonnegative shifts")
    if not math.isfinite(r_cutoff):
        raise ContractError("prime cutoff must be finite")
    if m_limit is None:
        m_limit = n_limit
    m_limit = int(m_limit)
    primes = [r for r in range(2, math.floor(r_cutoff) + 1) if factorize(r) == [(r, 1)]]
    if not primes:
        return 0.0

    def x_value(n: int) -> int:
        total = 0
        for r in primes:
            total += ((n + p) % r == 0) - ((n + q) % r == 0)
        return total

    def y_value(m: int) -> int:
        total = 0
        for r in primes:
            total += (m % r == 0)
        return total

    sx = sum(x_value(n) ** k for n in range(1, n_limit + 1))
    term1 = Fraction(sx, n_limit)

    ym = [y_value(m) for m in range(1, m_limit + 1)]
    yn = [y_value(n) for n in range(1, n_limit + 1)]
    s1_m, s2_m = sum(ym), sum(v * v for v in ym)
    s1_n, s2_n = sum(yn), sum(v * v for v in yn)
    if k == 1:
        term2 = Fraction(s1_m, m_limit) - Fraction(s1_n, n_limit)
        term3 = Fraction(0)
    else:
        term2 = Fraction(s2_m, m_limit) \
            - 2 * Fraction(s1_m, m_limit) * Fraction(s1_n, n_limit) \
            + Fraction(s2_n, n_limit)
        term3 = 2 * Fraction(s2_m, m_limit) \
            - 2 * Fraction(s1_m, m_limit) ** 2
    return float(abs(term1 - 2 * term2 + term3))
