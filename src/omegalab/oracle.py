"""Brute-force reference computations for the test suites.

Everything here recomputes from first principles: trial division for
factor counts and direct loops for averages.  The helper shared with the
fast modules is `sieve.omega_oracle`, the exponent sum of the
trial-division factoriser `sieve.factorize`; the sieve's segment kernel is
never touched, so agreement between the two is evidence, not tautology.

Single-threaded by design; determinism over speed.  Nothing here is
meant to scale past n = 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError, ContractError
from .sieve import omega_oracle

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
