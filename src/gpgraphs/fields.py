"""Exact arithmetic in finite fields GF(p^m).

Elements are residue-class polynomials modulo a fixed monic irreducible
polynomial, stored positionally: the element with coefficients
(c0, c1, ..., c_{m-1}) has integer index c0 + c1*p + ... + c_{m-1}*p^(m-1).
Index 0 is zero and indices below p form the prime subfield.

Construction is deterministic: with no modulus given, the canonical field
uses the lexicographically least monic irreducible polynomial (coefficient
tuples compared constant term first) and the least-index generator of the
multiplicative group.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .errors import DivisionByZero, NotPrime, SizeBudgetExceeded, ZeroHasNoLog
from .numbertheory import factorize, is_prime

DEFAULT_SIZE_BUDGET = 2 ** 20


# ---------------------------------------------------------------------------
# polynomial arithmetic over F_p (dense coefficient tuples, constant first)

def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul_mod(a, b, modulus, p):
    """a*b reduced modulo the monic polynomial `modulus`, all over F_p."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(m):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    return _poly_trim(tuple(prod))


def _poly_pow_mod(a, e, modulus, p):
    result = (1,)
    base = _poly_trim(tuple(a))
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_mod(a, b, p):
    """Remainder of a modulo b over F_p; b must be nonzero."""
    a = list(_poly_trim(tuple(a)))
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv_lead % p
        if c:
            shift = len(a) - len(b)
            for j, cb in enumerate(b):
                a[shift + j] = (a[shift + j] - c * cb) % p
        a.pop()  # leading coefficient cancelled above
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _poly_gcd(a, b, p):
    """Monic gcd of two polynomials over F_p."""
    a, b = _poly_trim(tuple(a)), _poly_trim(tuple(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    if not a:
        return ()
    inv_lead = pow(a[-1], p - 2, p)
    return tuple(c * inv_lead % p for c in a)


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial of degree >= 1 over F_p."""
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    if m == 1:
        return True
    x = (0, 1)
    # x^(p^m) == x mod f
    xq = x
    for _ in range(m):
        xq = _poly_pow_mod(xq, p, modulus, p)
    if _poly_trim(xq) != x:
        return False
    # gcd(x^(p^(m/r)) - x, f) == 1 for every prime r | m
    for r in factorize(m):
        xe = x
        for _ in range(m // r):
            xe = _poly_pow_mod(xe, p, modulus, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(tuple(diff), modulus, p)
        if len(g) != 1:
            return False
    return True


def irreducible_polynomials(p: int, m: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducible degree-m polynomials over F_p, in constant-first
    lexicographic order of their coefficient tuples.

    For m = 1 the degenerate modulus is the single polynomial x, so that
    elements of the prime field are plain residues.
    """
    if m == 1:
        yield (0, 1)
        return
    for coeffs in itertools.product(range(p), repeat=m):
        candidate = coeffs + (1,)
        if is_irreducible(candidate, p):
            yield candidate


def canonical_modulus(p: int, m: int, skip: int = 0) -> tuple[int, ...]:
    """The canonical (lexicographically least) modulus, or a later one with skip > 0."""
    return next(itertools.islice(irreducible_polynomials(p, m), skip, None))


# ---------------------------------------------------------------------------
# fields and elements

class FieldElement:
    """An element of a FiniteField, identified by its integer index."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FiniteField", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of the representative polynomial, constant term first."""
        return self.field.index_coeffs(self.index)

    def trace(self) -> int:
        return self.field.trace(self)

    def is_zero(self) -> bool:
        return self.index == 0

    def _coerce(self, other) -> "FieldElement":
        # bare ints act as prime-subfield residues
        if isinstance(other, int):
            return FieldElement(self.field, other % self.field.p)
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("operands belong to different fields")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.index_add(self.index, other.index))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.index_sub(self.index, other.index))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.index_mul(self.index, other.index))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.index_mul(self.index, self.field.index_inv(other.index)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.index_pow(self.index, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.index_neg(self.index))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.index_inv(self.index))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and self.index == other.index
        if isinstance(other, int):
            return self.index == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __str__(self):
        coeffs = self.coeffs
        if self.field.m == 1:
            return str(coeffs[0])
        terms = []
        for i in range(self.field.m - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FieldElement({self}, GF({self.field.p}^{self.field.m}))"


class FiniteField:
    """GF(p^m) with a fixed modulus, primitive element and full log table.

    Instances are immutable once constructed and safe to share. Use
    build_field() rather than calling this constructor directly; it
    validates arguments and caches the result.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], size_budget: int = DEFAULT_SIZE_BUDGET):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m = {m} must be positive")
        q = p ** m
        if q > size_budget:
            raise SizeBudgetExceeded(f"q = {p}^{m} = {q} exceeds the size budget {size_budget}")
        modulus = tuple(int(c) % p for c in modulus)
        if m == 1:
            if modulus != (0, 1):
                raise ValueError("the m = 1 modulus is the polynomial x by convention")
        else:
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")

        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus

        self._pows = tuple(p ** i for i in range(m))

        # numpy views used by bulk helpers (BFS, adjacency construction)
        digits = np.empty((q, m), dtype=np.int64)
        x = np.arange(q, dtype=np.int64)
        for i in range(m):
            digits[:, i] = x % p
            x //= p
        self._digits = digits
        self._weights = np.array(self._pows, dtype=np.int64)
        self._neg = ((p - digits) % p) @ self._weights

        self._build_log_tables()
        self._build_trace_table()

    # -- construction internals ------------------------------------------------

    def _build_log_tables(self):
        p, m, q = self.p, self.m, self.q
        q1_factors = list(factorize(q - 1)) if q > 2 else []
        omega_index = None
        omega_coeffs = None
        for idx in range(1, q):
            cand = _poly_trim(self.index_coeffs(idx))
            if all(_poly_pow_mod(cand, (q - 1) // r, self.modulus, p) != (1,) for r in q1_factors):
                omega_index = idx
                omega_coeffs = cand
                break
        assert omega_index is not None, "cyclic group of a field always has a generator"
        self.omega_index = omega_index

        exp = [0] * (q - 1)
        log = [-1] * q
        cur = (1,)
        for e in range(q - 1):
            idx = self._coeffs_index(cur)
            exp[e] = idx
            log[idx] = e
            cur = _poly_mul_mod(cur, omega_coeffs, self.modulus, p)
        assert cur == (1,), "generator order must be exactly q - 1"
        self.exp = exp
        self.log = log

    def _build_trace_table(self):
        p, m = self.p, self.m
        basis_traces = []
        for i in range(m):
            acc = 0
            x = self._pows[i]  # index of a^i
            for _ in range(m):
                acc = self.index_add(acc, x)
                x = self.index_pow(x, p)
            # Frobenius orbit sums land in the prime subfield (indices < p)
            assert acc < p, "trace of a basis element must lie in the prime subfield"
            basis_traces.append(acc)
        self._basis_traces = tuple(basis_traces)
        traces = (self._digits @ np.array(basis_traces, dtype=np.int64)) % p
        self.trace_table = tuple(int(t) for t in traces)

    # -- index-level arithmetic --------------------------------------------------

    def index_coeffs(self, idx: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    def _coeffs_index(self, coeffs: Iterable[int]) -> int:
        idx = 0
        for c, w in zip(coeffs, self._pows):
            idx += (c % self.p) * w
        return idx

    def index_add(self, u: int, v: int) -> int:
        p = self.p
        if self.m == 1:
            return (u + v) % p
        if p == 2:
            return u ^ v
        out = 0
        for w in self._pows:
            out += ((u // w + v // w) % p) * w
        return out

    def index_neg(self, u: int) -> int:
        return int(self._neg[u])

    def index_sub(self, u: int, v: int) -> int:
        return self.index_add(u, self.index_neg(v))

    def index_mul(self, u: int, v: int) -> int:
        if u == 0 or v == 0:
            return 0
        return self.exp[(self.log[u] + self.log[v]) % (self.q - 1)]

    def index_inv(self, u: int) -> int:
        if u == 0:
            raise DivisionByZero("the zero element has no inverse")
        return self.exp[-self.log[u] % (self.q - 1)]

    def index_pow(self, u: int, e: int) -> int:
        if u == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of the zero element")
            return 0
        return self.exp[self.log[u] * e % (self.q - 1)]

    @functools.cached_property
    def zech(self) -> np.ndarray:
        """Zech logarithms: zech[e] = log(1 + omega^e) for e in [0, q - 1), -1 where 1 + omega^e = 0.

        Built on first use rather than in the constructor, since only graph
        traversal reads it.
        """
        exp = np.asarray(self.exp, dtype=np.int64)
        low = self._digits[exp, 0]  # adding 1 changes only the constant coefficient
        return np.asarray(self.log, dtype=np.int64)[exp - low + (low + 1) % self.p]

    @functools.cached_property
    def trace_of_exp(self) -> np.ndarray:
        """Absolute traces along the powers of omega: trace_of_exp[e] = Tr(omega^e) for e in [0, q - 1).

        Built on first use, like zech; only the spectra read it. The field
        keeps it, so it uses the narrowest dtype that holds a trace.
        """
        traces = np.asarray(self.trace_table, dtype=np.min_scalar_type(self.p - 1))
        return traces[np.asarray(self.exp, dtype=np.int64)]

    def add_outer(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Pairwise sums us[i] + vs[j] as a (len(us), len(vs)) index array."""
        s = (self._digits[us][:, None, :] + self._digits[vs][None, :, :]) % self.p
        return s @ self._weights

    # -- public surface ---------------------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an index, coefficient iterable or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            value = int(value)
            if not 0 <= value < self.q:
                raise ValueError(f"element index {value} out of range [0, {self.q})")
            return FieldElement(self, value)
        coeffs = tuple(int(c) for c in value)
        if len(coeffs) != self.m or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"need {self.m} coefficients in [0, {self.p})")
        return FieldElement(self, self._coeffs_index(coeffs))

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    @property
    def omega(self) -> FieldElement:
        """The canonical primitive element: least index of multiplicative order q - 1."""
        return FieldElement(self, self.omega_index)

    def elements(self) -> Iterator[FieldElement]:
        return (FieldElement(self, i) for i in range(self.q))

    def trace(self, x) -> int:
        """Trace down to the prime field, as a residue mod p."""
        return self.trace_table[self.element(x).index]

    def discrete_log(self, x) -> int:
        """The exponent e with omega^e = x, for nonzero x."""
        idx = self.element(x).index
        if idx == 0:
            raise ZeroHasNoLog("discrete log of zero is undefined")
        return self.log[idx]

    def power_residue_indices(self, k: int) -> list[int]:
        """Indices of the subgroup of nonzero k-th powers, ascending."""
        kk = math.gcd(k, self.q - 1)
        return sorted(self.exp[e] for e in range(0, self.q - 1, kk))

    def power_residues(self, k: int) -> list[FieldElement]:
        """The subgroup {x^k : x nonzero}, in ascending index order."""
        return [FieldElement(self, i) for i in self.power_residue_indices(k)]

    def modulus_str(self) -> str:
        terms = []
        for i in range(self.m, -1, -1):
            c = self.modulus[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"

    def __repr__(self):
        return f"FiniteField(GF({self.p}^{self.m}), modulus={self.modulus_str()})"


_FIELD_CACHE: dict[tuple, FiniteField] = {}


def build_field(p: int, m: int, modulus: Iterable[int] | None = None,
                size_budget: int = DEFAULT_SIZE_BUDGET) -> FiniteField:
    """Construct (or fetch the cached) GF(p^m).

    With modulus=None the canonical modulus is used, so the same (p, m)
    always yields the identical field. An explicit modulus must be a monic
    irreducible degree-m coefficient sequence, constant term first.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m = {m} must be positive")
    if p ** m > size_budget:
        raise SizeBudgetExceeded(f"q = {p}^{m} = {p ** m} exceeds the size budget {size_budget}")
    key_modulus = None if modulus is None else tuple(int(c) for c in modulus)
    key = (p, m, key_modulus)
    field = _FIELD_CACHE.get(key)
    if field is None:
        actual = canonical_modulus(p, m) if key_modulus is None else key_modulus
        field = FiniteField(p, m, actual, size_budget=size_budget)
        _FIELD_CACHE[key] = field
    return field
