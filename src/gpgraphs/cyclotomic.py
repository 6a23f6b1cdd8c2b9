"""Exact arithmetic in Z[zeta_p], the ring of integers of the p-th cyclotomic field.

A value is a length-p integer coefficient vector over the redundant basis
1, zeta, ..., zeta^(p-1). The relation 1 + zeta + ... + zeta^(p-1) = 0 is
used to force the last coefficient to zero, which makes the representation
canonical: two values are equal exactly when their vectors agree.
Coefficients are Python ints, so nothing ever overflows.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import Iterable

import numpy as np

from .errors import MixedRootOrders
from .numbertheory import is_prime


class ValueClass(Enum):
    """Classification of a single cyclotomic integer."""

    RATIONAL = "rational"
    REAL_IRRATIONAL = "real-irrational"
    NONREAL = "nonreal"


@lru_cache(maxsize=None)
def _unit_roots(p: int) -> np.ndarray:
    return np.exp(2j * math.pi * np.arange(p) / p)


def embed_coeffs(p: int, coeffs) -> complex:
    """The image of a coefficient vector under zeta -> exp(2*pi*i/p).

    The single place that rounds a value to a complex double, so every
    caller agrees bit for bit on the image of the same coefficients.
    """
    return complex(np.asarray(coeffs, dtype=np.float64) @ _unit_roots(p))


class CyclotomicInteger:
    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]):
        coeffs = list(coeffs)
        if len(coeffs) != p:
            raise ValueError(f"need exactly {p} coefficients, got {len(coeffs)}")
        last = coeffs[p - 1]
        if last:
            coeffs = [c - last for c in coeffs]
        self.p = p
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInteger":
        return cls(p, [0] * p)

    @classmethod
    def from_int(cls, p: int, value: int) -> "CyclotomicInteger":
        coeffs = [0] * p
        coeffs[0] = value
        return cls(p, coeffs)

    @classmethod
    def one(cls, p: int) -> "CyclotomicInteger":
        return cls.from_int(p, 1)

    def _check_compatible(self, other: "CyclotomicInteger"):
        if self.p != other.p:
            raise MixedRootOrders(f"cannot combine Z[zeta_{self.p}] with Z[zeta_{other.p}]")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.p, other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check_compatible(other)
        return CyclotomicInteger(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.p, other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check_compatible(other)
        return CyclotomicInteger(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CyclotomicInteger(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.p, [other * a for a in self.coeffs])
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        out = [0] * p
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in nonzero:
                    out[(i + j) % p] += a * b
        return CyclotomicInteger(p, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation zeta -> zeta^(-1): coefficient j moves to -j mod p."""
        c = self.coeffs
        return CyclotomicInteger(self.p, (c[0],) + c[:0:-1])

    def classify(self) -> ValueClass:
        if self.is_rational():
            return ValueClass.RATIONAL
        if self == self.conjugate():
            return ValueClass.REAL_IRRATIONAL
        return ValueClass.NONREAL

    def is_rational(self) -> bool:
        # canonical form: rational exactly when every coefficient but the first is zero
        return not any(self.coeffs[1:self.p - 1])

    def rational_value(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def embed(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/p)."""
        return embed_coeffs(self.p, self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for j, c in compress(enumerate(self.coeffs), self.coeffs):  # nonzero terms only
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                var = "z" if j == 1 else f"z^{j}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"CyclotomicInteger(p={self.p}, {self})"


def root_power(p: int, j: int) -> CyclotomicInteger:
    """zeta_p^j in canonical form; j is reduced modulo p."""
    if not is_prime(p):
        raise ValueError(f"root order p = {p} must be prime")
    coeffs = [0] * p
    coeffs[j % p] = 1
    return CyclotomicInteger(p, coeffs)


def zeta(p: int) -> CyclotomicInteger:
    return root_power(p, 1)


@lru_cache(maxsize=None)
def quadratic_gauss_sum(p: int) -> CyclotomicInteger:
    """The sum of legendre(x) * zeta^x over x in F_p*, for odd prime p.

    Its square is p when p = 1 (mod 4) and -p when p = 3 (mod 4), which
    gives exact sqrt(p) and i*sqrt(p) representatives inside Z[zeta_p].
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} must be an odd prime")
    coeffs = [0] * p
    for x in range(1, p):
        coeffs[x] = 1 if pow(x, (p - 1) // 2, p) == 1 else -1
    return CyclotomicInteger(p, coeffs)
