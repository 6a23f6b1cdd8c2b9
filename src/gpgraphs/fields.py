"""Exact arithmetic in finite fields GF(p^m).

Elements are residue-class polynomials modulo a fixed monic irreducible
polynomial, stored positionally: the element with coefficients
(c0, c1, ..., c_{m-1}) has integer index c0 + c1*p + ... + c_{m-1}*p^(m-1).
Index 0 is zero and indices below p form the prime subfield.

Construction is deterministic: the canonical field, which build_field
caches, uses the lexicographically least monic irreducible polynomial
(coefficient tuples compared constant term first), found by Ben-Or's test,
which stops at a candidate's least factor degree, and the least-index
generator of the multiplicative group. A field is its tables, exp, log,
trace_of_exp and, on first read, zech, and the library computes on them
alone; a FieldElement only names an element for printing. The element
arithmetic, the tests' field model, is in tests/oracles.py.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

import numpy as np

from .errors import NotPrime, NotPrimePower, SizeBudgetExceeded, check
from .numbertheory import factorize, is_prime, max_exponent, prime_power

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
                prod[i + j] += ca * cb
    for i in range(len(prod) - 1, m - 1, -1):  # Python ints: reduce mod p once a coefficient is final
        c = prod[i] % p
        if c:
            for j in range(m):
                prod[i - m + j] -= c * modulus[j]
    return _poly_trim(tuple(c % p for c in prod[:m]))


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
    """Ben-Or's test (FOCS 1981) for a monic polynomial f of degree m >= 1 over F_p.

    f is irreducible exactly when gcd(x^(p^i) - x, f) = 1 for i = 1 .. m/2, as
    x^(p^i) - x is the product of the monic irreducibles of degree dividing i;
    so a reducible f is rejected at the least degree of its factors.
    """
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    xe = (0, 1)
    for _ in range(m // 2):
        xe = _poly_pow_mod(xe, p, modulus, p)
        diff = list(xe) + [0] * (2 - len(xe))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(tuple(diff), modulus, p)) != 1:
            return False
    return True


def irreducible_polynomials(p: int, m: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducible degree-m polynomials over F_p, in constant-first
    lexicographic order of their coefficient tuples.

    For m = 1 the degenerate modulus is the single polynomial x, so that
    elements of the prime field are plain residues. For m >= 2 a zero
    constant term makes x a factor, so those candidates are skipped.
    """
    if m == 1:
        yield (0, 1)
        return
    for coeffs in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        candidate = coeffs + (1,)
        if is_irreducible(candidate, p):
            yield candidate


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """The canonical modulus: the lexicographically least monic irreducible polynomial."""
    return next(irreducible_polynomials(p, m))


def _poly_str(coeffs: tuple[int, ...], var: str) -> str:
    """Nonzero terms c*var^i of the coefficients (constant first), highest degree first, joined by "+"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            power = var if i == 1 else f"{var}^{i}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# power tables by doubling (coefficient rows, constant first)

_BLOCK_ENTRIES = 1 << 18  # matrix entries per block of temporaries


def _product_mod(rows: np.ndarray, matrix: np.ndarray, modulus: int, out: np.ndarray) -> None:
    """out = (rows @ matrix) % modulus for unsigned rows and a nonnegative matrix, a block of rows at a time.

    The products run in float64 (BLAS) whenever every sum they form is
    exact there, and in int64 otherwise.
    """
    width = rows.shape[1]
    bound = width * int(np.iinfo(rows.dtype).max) * int(matrix.max())
    matrix = matrix.astype(np.float64 if bound < 2 ** 53 else np.int64)
    step = max(1, _BLOCK_ENTRIES // width)
    for start in range(0, len(rows), step):
        block = rows[start:start + step] @ matrix
        out[start:start + step] = block.astype(np.int64) % modulus


def _mul_matrix(a: tuple[int, ...], modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The m x m matrix of multiplication by a over F_p: row i holds the coefficients of a * x^i."""
    m = len(modulus) - 1
    matrix = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        row = _poly_mul_mod(a, (0,) * i + (1,), modulus, p)
        matrix[i, :len(row)] = row
    return matrix


def _power_digits(omega: tuple[int, ...], modulus: tuple[int, ...], p: int, q: int) -> np.ndarray:
    """Coefficient rows of omega^e for e in [0, q), in the narrowest dtype that holds a digit.

    Rows [B, 2B) are rows [0, B) times the matrix of omega^B, so the table
    takes ceil(log2 q) block products instead of q polynomial multiplies.
    """
    digits = np.zeros((q, len(modulus) - 1), dtype=np.min_scalar_type(p - 1))
    digits[0, 0] = 1
    step = _mul_matrix(omega, modulus, p)  # multiplication by omega^filled
    filled = 1
    while filled < q:
        n = min(filled, q - filled)
        _product_mod(digits[:n], step, p, digits[filled:filled + n])
        step = step @ step % p
        filled += n
    return digits


# ---------------------------------------------------------------------------
# fields and elements

class FieldElement:
    """An element of a FiniteField by its integer index: what witness returns and the CLI prints."""

    __slots__ = ("field", "index")

    def __init__(self, field: "FiniteField", index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients of the representative polynomial, constant term first."""
        return self.field.index_coeffs(self.index)

    def __str__(self):
        return _poly_str(self.coeffs, "a")

    def __repr__(self):
        return f"FieldElement({self}, GF({self.field.p}^{self.field.m}))"


def _named(name: str, value: int) -> str:
    """The words `name = value`, or name alone for a value past str()'s digit limit."""
    try:
        return f"{name} = {value}"
    except ValueError:
        return name


def check_size_budget(q: int, name: str) -> None:
    """Refuse q above DEFAULT_SIZE_BUDGET, read at call time; the message calls q `name`."""
    if q > DEFAULT_SIZE_BUDGET:
        raise SizeBudgetExceeded(f"{_named(name, q)} exceeds the size budget {DEFAULT_SIZE_BUDGET}")


def _check_field_size(p: int, m: int) -> int:
    """q = p^m for m >= 1, |p| and q within the budget (checked before p is tested or q built), p prime."""
    if m < 1:
        raise NotPrimePower("p^m with m < 1 is not a prime power")
    if abs(p) > DEFAULT_SIZE_BUDGET:  # named, not printed: p may pass str()'s 4,300 digits
        raise SizeBudgetExceeded(f"|p| exceeds the size budget {DEFAULT_SIZE_BUDGET}")
    if p >= 2 and m > (top := max_exponent(p, DEFAULT_SIZE_BUDGET)):  # m, like p, may pass str()'s limit
        raise SizeBudgetExceeded(f"{p}^m with m > {top} exceeds the size budget {DEFAULT_SIZE_BUDGET}")
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    return p ** m


class FiniteField:
    """GF(p^m) with a fixed modulus, primitive element and full log table.

    The tables are flat numpy arrays: exp[e] is the index of omega^e for
    e in [0, q - 1), log inverts it (log[0] = -1) and trace_of_exp[e] is
    Tr(omega^e). They are all the field computes on, with zech on first read.
    -1 has index p - 1, so its log is field.log[p - 1].

    The tables are immutable and safe to share; graphs.build_graph fills `graphs`.
    build_field() gives the canonical field and caches it; the constructor
    takes any monic irreducible modulus and checks that it is one.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        q = _check_field_size(p, m)
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
        self.graphs = {}
        self._build_tables()

    # -- construction internals ------------------------------------------------

    def _least_primitive(self) -> int | None:
        """The least index of multiplicative order q - 1, or None if there is none.

        For m >= 2 the indices below p form F_p, of orders dividing p - 1, so the search starts at p.
        """
        p, q = self.p, self.q
        q1_factors = list(factorize(q - 1)) if q > 2 else []
        for idx in range(p if self.m > 1 else 1, q):
            cand = _poly_trim(self.index_coeffs(idx))
            if all(_poly_pow_mod(cand, (q - 1) // r, self.modulus, p) != (1,) for r in q1_factors):
                return idx
        return None

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        omega_index = self._least_primitive()
        check(omega_index is not None, f"{self!r}: the multiplicative group must have a generator")
        self.omega_index = omega_index

        digits = _power_digits(self.index_coeffs(omega_index), self.modulus, p, q)
        check((digits[q - 1] == digits[0]).all(), f"{self!r}: the generator must satisfy omega^(q-1) = 1")
        digits = digits[:q - 1]
        index_dtype = np.promote_types(np.int32, np.min_scalar_type(-q))
        pows = [p ** i for i in range(m)]  # the index of a^i
        exp = np.empty(q - 1, dtype=index_dtype)
        _product_mod(digits, np.array(pows), q, exp)  # each index is already below q
        log = np.full(q, -1, dtype=index_dtype)
        log[exp] = np.arange(q - 1, dtype=index_dtype)
        check(log[0] == -1 and (log[1:] >= 0).all(),
              f"{self!r}: the powers of the generator must cover every nonzero element exactly once")
        self.exp = exp
        self.log = log

        # Tr(a^i) sums the conjugates a^(i p^j), read off their coefficient rows; it lies in F_p
        conjugates = [[int(log[w]) * p ** j % (q - 1) for j in range(m)] for w in pows]
        traces = digits[conjugates].sum(axis=1, dtype=np.int64) % p
        check(not traces[:, 1:].any(),
              f"{self!r}: the trace of a basis element must lie in the prime subfield")
        self.trace_of_exp = np.empty(q - 1, dtype=np.min_scalar_type(p - 1))
        _product_mod(digits, traces[:, 0], p, self.trace_of_exp)

    # -- coefficients and the Zech table ---------------------------------------

    def index_coeffs(self, idx: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(idx % p)
            idx //= p
        return tuple(out)

    @functools.cached_property
    def zech(self) -> np.ndarray:
        """Zech logarithms: zech[e] = log(1 + omega^e) for e in [0, q - 1), -1 where 1 + omega^e = 0.

        Built on first use rather than in the constructor. graphs.log_bfs,
        the one BFS kernel, steps by it (mod k for the quotient, mod q - 1
        for a witness), as do verify's period gcd and the srg count.
        """
        low = self.exp % self.p  # the constant coefficient, the only one that adding 1 changes
        return self.log[self.exp - low + (low + 1) % self.p]

    # -- public surface ---------------------------------------------------------

    def element(self, value) -> FieldElement:
        """Coerce an index or a FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError("element belongs to a different field")
            return value
        value = operator.index(value)
        if not 0 <= value < self.q:
            raise ValueError(f"element index {value} out of range [0, {self.q})")
        return FieldElement(self, value)

    def modulus_str(self) -> str:
        return _poly_str(self.modulus, "x")

    def __repr__(self):
        return f"FiniteField(GF({self.p}^{self.m}), modulus={self.modulus_str()})"


# least recently used first, keyed by (p, m); a field weighs q, and q more per graph with its O(q) kept
# results; the weights add up to at most DEFAULT_SIZE_BUDGET, except that the newest field may pass it alone
_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def build_field(p: int, m: int) -> FiniteField:
    """Construct (or fetch the cached) canonical GF(p^m).

    The same (p, m) yields the identical field while it stays cached, and
    an equal one after it is evicted.
    """
    _check_field_size(p, m)  # before searching for a modulus
    field = _FIELD_CACHE.pop((p, m), None)
    if field is None:
        field = FiniteField(p, m, canonical_modulus(p, m))
        cached = field.q + sum(f.q * (1 + len(f.graphs)) for f in _FIELD_CACHE.values())
        while _FIELD_CACHE and cached > DEFAULT_SIZE_BUDGET:
            evicted = _FIELD_CACHE.pop(next(iter(_FIELD_CACHE)))
            cached -= evicted.q * (1 + len(evicted.graphs))
            evicted.graphs.clear()  # they refer back to it: now refcounting frees its tables at once
    _FIELD_CACHE[(p, m)] = field  # now the most recently used
    return field


def field_of_order(q: int) -> FiniteField:
    """The canonical GF(q), with the budget checked first: a q far past it may not factor in time."""
    check_size_budget(q, "q")
    pm = prime_power(q)
    if pm is None:
        raise NotPrimePower(f"{_named('q', q)} is not a prime power")
    return build_field(*pm)
