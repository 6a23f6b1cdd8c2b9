"""Exact values in Z[zeta_p], the ring of integers of the p-th cyclotomic field.

A value is a length-p integer coefficient vector over the redundant basis
1, zeta, ..., zeta^(p-1). The relation 1 + zeta + ... + zeta^(p-1) = 0 is
used to force the last coefficient to zero, which makes the representation
canonical: two values are equal exactly when their vectors agree.
Coefficients are Python ints, so nothing ever overflows. The library only
compares, conjugates, classifies, embeds and renders values: spectra
computes on period rows instead. The ring arithmetic (sums, products, the
roots of unity and the quadratic Gauss sum) is the tests' oracle and lives
in tests/oracles.py.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import Iterable

import numpy as np


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
    def from_terms(cls, p: int, terms: Iterable[tuple[int, int]]) -> "CyclotomicInteger":
        """The value with coefficient c_j at zeta^j for each term (j, c_j), zero elsewhere."""
        coeffs = [0] * p
        for j, c in terms:
            coeffs[j] = c
        return cls(p, coeffs)

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation zeta -> zeta^(-1): coefficient j moves to -j mod p."""
        c = self.coeffs
        return type(self)(self.p, (c[0],) + c[:0:-1])

    def classify(self) -> ValueClass:
        if self.is_rational():
            return ValueClass.RATIONAL
        if self == self.conjugate():
            return ValueClass.REAL_IRRATIONAL
        return ValueClass.NONREAL

    def is_rational(self) -> bool:
        # canonical form: rational exactly when every coefficient but the first is zero
        return not any(self.coeffs[1:self.p - 1])

    def embed(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/p)."""
        return embed_coeffs(self.p, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self):
        return render_terms(compress(enumerate(self.coeffs), self.coeffs))  # nonzero terms only

    def __repr__(self):
        return f"CyclotomicInteger(p={self.p}, {self})"


def render_terms(terms: Iterable[tuple[int, int]]) -> str:
    """A value from its nonzero canonical terms (j, c_j), ascending in j, as `str` prints it."""
    parts = []
    for j, c in terms:
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
    return " ".join(parts) or "0"
