"""Counting and constructing GP-graphs with integral spectrum.

The per-field census follows from the divisor structure of q - 1 and of
(q - 1)/(p - 1); the family enumerators realize the arithmetic criteria
(subfield divisors, semiprimitive divisors, totient powers, cyclotomic
polynomial values) together with the tower construction that lifts any
integral graph over GF(q) to one over every GF(q^a).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import HypothesisViolated, check
from .numbertheory import factorize, is_prime
from .spectra import Nature, nature_for


@dataclass(frozen=True)
class FieldCensus:
    q: int
    sigma: int                 # number of divisors of q - 1, = number of GP-graphs
    n_complex: int
    n_real: int                # undirected graphs (includes the integral ones)
    n_integral: int
    n_real_nonintegral: int


def census(p: int, m: int) -> FieldCensus:
    """Counts of GP-graphs over GF(p^m) by spectrum nature, from the factorizations
    of q - 1 and (q - 1)/(p - 1).

    verify's census check recounts them by classifying every divisor k of
    q - 1 arithmetically.
    """
    q = p ** m
    sigma = 1
    odd_part_sigma = 1
    for prime, e in factorize(q - 1).items():
        sigma *= e + 1
        if prime != 2:
            odd_part_sigma *= e + 1
    n_complex = odd_part_sigma if q % 2 == 1 else 0
    n_integral = 1
    for e in factorize((q - 1) // (p - 1)).values():
        n_integral *= e + 1
    n_real = sigma - n_complex
    n_real_nonintegral = n_real - n_integral
    return FieldCensus(q, sigma, n_complex, n_real, n_integral, n_real_nonintegral)


def _cyclotomic_value(d: int, x: int) -> int:
    """Phi_d(x) for an integer x >= 2, as the product over e | d of (x^e - 1)^mu(d/e)."""
    squarefree = [(1, 1)]  # (s, mu(s)) for the squarefree s | d; mu vanishes elsewhere
    for prime in factorize(d):
        squarefree += [(s * prime, -mu) for s, mu in squarefree]
    num = den = 1
    for s, mu in squarefree:
        if mu > 0:
            num *= x ** (d // s) - 1
        else:
            den *= x ** (d // s) - 1
    value, rest = divmod(num, den)
    check(rest == 0, "the Moebius product of x^e - 1 must divide exactly")
    return value


# ---------------------------------------------------------------------------
# family enumerators

SUBFIELD_DIVISOR = "SubfieldDivisor"
SEMIPRIMITIVE_DIVISOR = "SemiprimitiveDivisor"
TOTIENT_POWER = "TotientPower"
CYCLOTOMIC_VALUE = "CyclotomicValue"
TOWER = "Tower"
FAMILY_KINDS = (SUBFIELD_DIVISOR, SEMIPRIMITIVE_DIVISOR, TOTIENT_POWER, CYCLOTOMIC_VALUE, TOWER)


@dataclass(frozen=True)
class FamilyDescriptor:
    """One integral family.

    SubfieldDivisor: k | p - 1, fields p^(k*t).
    SemiprimitiveDivisor: k | p + 1, fields p^(2*t).
    TotientPower: k odd with gcd(k, p(p-1)) = 1, fields p^(phi(k)*t).
    CyclotomicValue: k = Phi_d(p) for d > 1, fields p^(d*t).
    Tower: lifts the integral base GP(k, p^d) to GP(k*(q^a-1)/(q-1), q^a).
    """

    kind: str
    p: int
    k: int | None = None
    d: int | None = None


def _totient(k: int) -> int:
    out = k
    for prime in factorize(k):
        out -= out // prime
    return out


def enumerate_family(descriptor: FamilyDescriptor, max_q: int) -> Iterator[tuple[int, int]]:
    """Emit the family's (k, q) pairs with q <= max_q, in increasing q.

    Hypotheses are checked up front (HypothesisViolated names the failure)
    and every emitted pair is checked integral by the arithmetic rule.
    """
    p, kind = descriptor.p, descriptor.kind
    if kind not in FAMILY_KINDS:
        raise HypothesisViolated(f"unknown family kind {kind!r}")
    if not is_prime(p):
        raise HypothesisViolated(f"p = {p} is not prime")

    if kind == SUBFIELD_DIVISOR:
        k = _require_k(descriptor)
        if (p - 1) % k != 0:
            raise HypothesisViolated(f"k = {k} does not divide p - 1 = {p - 1}")
        pairs = ((k, k * t) for t in itertools.count(1))
    elif kind == SEMIPRIMITIVE_DIVISOR:
        k = _require_k(descriptor)
        if (p + 1) % k != 0:
            raise HypothesisViolated(f"k = {k} does not divide p + 1 = {p + 1}")
        pairs = ((k, 2 * t) for t in itertools.count(1))
    elif kind == TOTIENT_POWER:
        k = _require_k(descriptor)
        if k % 2 == 0:
            raise HypothesisViolated(f"k = {k} must be odd")
        if math.gcd(k, p * (p - 1)) != 1:
            raise HypothesisViolated(f"gcd({k}, p(p-1)) = {math.gcd(k, p * (p - 1))} != 1")
        # past this bound phi(k) >= sqrt(k/2) > log2(max_q), so p^phi(k) > max_q and
        # nothing is emitted; factoring k, which Pollard rho can stall on, would go unused
        if k > 2 * max_q.bit_length() ** 2:
            return
        phi = _totient(k)
        pairs = ((k, phi * t) for t in itertools.count(1))
    elif kind == CYCLOTOMIC_VALUE:
        if descriptor.d is None or descriptor.d < 2:
            raise HypothesisViolated("CyclotomicValue needs d >= 2")
        if descriptor.d > max_q.bit_length():  # p^d >= 2^d > max_q: Phi_d(p) would go unused
            return
        k = _cyclotomic_value(descriptor.d, p)
        pairs = ((k, descriptor.d * t) for t in itertools.count(1))
    else:  # TOWER
        k = _require_k(descriptor)
        if descriptor.d is None or descriptor.d < 1:
            raise HypothesisViolated("Tower needs d >= 1 (the base field is GF(p^d))")
        d = descriptor.d
        # past max_q's bit length p^d >= 2^d > max_q, so p^d is not built
        base_q = p ** d if d <= max_q.bit_length() else None
        if pow(p, d, k) != 1 % k:
            raise HypothesisViolated(
                f"base k = {k} does not divide q - 1 = {base_q - 1 if base_q else f'{p}^{d} - 1'}")
        if nature_for(p, d, k) is not Nature.INTEGRAL:
            raise HypothesisViolated(f"tower base GP({k},{base_q or f'{p}^{d}'}) is not integral")
        if base_q is None:
            return
        pairs = ((k * (base_q ** a - 1) // (base_q - 1), d * a) for a in itertools.count(1))

    for k_out, m_out in pairs:
        if m_out > max_q.bit_length():  # p^m >= 2^m > max_q, and p^m itself may be huge
            return
        q_out = p ** m_out
        if q_out > max_q:
            return
        check((q_out - 1) % k_out == 0, f"{kind}: k = {k_out} must divide q - 1 = {q_out - 1}")
        check(nature_for(p, m_out, k_out) is Nature.INTEGRAL,
              f"{kind}: GP({k_out},{q_out}) must be integral")
        yield k_out, q_out


def _require_k(descriptor: FamilyDescriptor) -> int:
    if descriptor.k is None or descriptor.k < 1:
        raise HypothesisViolated(f"{descriptor.kind} needs a positive k")
    return descriptor.k
