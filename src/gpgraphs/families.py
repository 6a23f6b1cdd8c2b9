"""Counting and constructing GP-graphs with integral spectrum.

The per-field census follows from the divisor structure of q - 1 and of
(q - 1)/(p - 1); the family enumerators realize the arithmetic criteria
(subfield divisors, semiprimitive divisors, totient powers, cyclotomic
polynomial values) together with the tower construction that lifts any
integral graph over GF(q) to one over every GF(q^a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import HypothesisViolated, InvariantViolated, check
from .fields import _check_field_size
from .numbertheory import factorize, is_prime, max_exponent
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
    of q - 1 and (q - 1)/(p - 1), once p and m pass the field size check.

    verify's census check recounts them from the natures of the report rows.
    """
    q = _check_field_size(p, m)
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


def enumerate_family(descriptor: FamilyDescriptor, max_q: int) -> Iterator[tuple[int, int]]:
    """Emit the family's (k, q) pairs with q <= max_q, in increasing q.

    Hypotheses are checked up front (HypothesisViolated names the failure).
    The reach is then decided once, before any power of p is built: top =
    max_exponent(p, max_q), and the fields are p^m for m = step, 2*step, ...
    up to top. Every emitted pair is checked integral by the arithmetic rule.
    """
    p, kind = descriptor.p, descriptor.kind
    if kind not in FAMILY_KINDS:
        raise HypothesisViolated(f"unknown family kind {kind!r}")
    try:
        if not is_prime(p):
            raise HypothesisViolated(f"p = {p} is not prime")
    except ValueError as exc:
        raise HypothesisViolated(f"p is too large: {exc}") from None
    top = max_exponent(p, max_q)

    if kind == SUBFIELD_DIVISOR:
        k = step = _require_k(descriptor)
        if (p - 1) % k != 0:
            raise HypothesisViolated(f"k = {k} does not divide p - 1 = {p - 1}")
    elif kind == SEMIPRIMITIVE_DIVISOR:
        k, step = _require_k(descriptor), 2
        if (p + 1) % k != 0:
            raise HypothesisViolated(f"k = {k} does not divide p + 1 = {p + 1}")
    elif kind == TOTIENT_POWER:
        k = _require_k(descriptor)
        if k % 2 == 0:
            raise HypothesisViolated(f"k = {k} must be odd")
        if math.gcd(k, p * (p - 1)) != 1:
            raise HypothesisViolated(f"gcd({k}, p(p-1)) = {math.gcd(k, p * (p - 1))} != 1")
        # past this bound phi(k) >= sqrt(k/2) > top, so p^phi(k) > max_q and nothing is
        # emitted; factoring k, which factorize may refuse past 10^12, would go unused
        if k > 2 * top ** 2:
            return
        step = k  # phi(k) = k * prod(1 - 1/prime) over the primes dividing k
        for prime in factorize(k):
            step -= step // prime
    elif kind == CYCLOTOMIC_VALUE:
        step = descriptor.d
        if step is None or step < 2:
            raise HypothesisViolated("CyclotomicValue needs d >= 2")
        k = _cyclotomic_value(step, p) if step <= top else None  # unused when p^d > max_q
    else:  # TOWER
        k, step = _require_k(descriptor), descriptor.d
        if step is None or step < 1:
            raise HypothesisViolated("Tower needs d >= 1 (the base field is GF(p^d))")
        base_q = p ** step if step <= top else None  # past max_q, p^d is neither built nor printed
        if pow(p, step, k) != 1 % k:
            raise HypothesisViolated(
                f"base k = {k} does not divide q - 1 = {base_q - 1 if base_q else f'{p}^{step} - 1'}")
        if nature_for(p, step, k) is not Nature.INTEGRAL:
            raise HypothesisViolated(f"tower base GP({k},{base_q or f'{p}^{step}'}) is not integral")

    q = 1
    for m in range(step, top + 1, step):
        q *= p ** step  # p^m
        k_out = k * (q - 1) // (base_q - 1) if kind == TOWER else k
        if (q - 1) % k_out != 0:
            raise InvariantViolated(f"{kind}: k = {k_out} must divide q - 1 = {q - 1}")
        if nature_for(p, m, k_out) is not Nature.INTEGRAL:
            raise InvariantViolated(f"{kind}: GP({k_out},{q}) must be integral")
        yield k_out, q


def _require_k(descriptor: FamilyDescriptor) -> int:
    if descriptor.k is None or descriptor.k < 1:
        raise HypothesisViolated(f"{descriptor.kind} needs a positive k")
    return descriptor.k
