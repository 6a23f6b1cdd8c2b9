import hashlib
import itertools
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from gpgraphs import (
    FiniteField,
    NotPrime,
    NotPrimePower,
    SizeBudgetExceeded,
    build_field,
    build_graph,
    canonical_modulus,
    irreducible_polynomials,
    witness,
)
from gpgraphs import fields
from gpgraphs.fields import _poly_mul_mod, _poly_pow_mod, _poly_trim, field_of_order, is_irreducible
from gpgraphs.numbertheory import is_prime, prime_power
from gpgraphs.verify import run_verification
from oracles import (Element, add_outer, discrete_log, index_inv, index_mul, index_neg, index_pow,
                     irreducible_by_trial_division, trace_table)

# A concrete GF(25) model used throughout the tests: x^2 + 2x + 3,
# so the generator a satisfies a^2 = 3a + 2.
F25_MODEL = FiniteField(5, 2, (3, 2, 1))


def test_prime_field_omega_is_least_generator():
    # independent oracle: multiplicative orders mod 5 by brute force
    orders = {x: next(e for e in range(1, 5) if pow(x, e, 5) == 1) for x in (1, 2, 3, 4)}
    least = min(x for x, o in orders.items() if o == 4)
    field = build_field(5, 1)
    assert least == 2
    assert field.omega_index == least
    assert field.modulus == (0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        build_field(4, 2)


def test_size_budget(monkeypatch):
    with pytest.raises(SizeBudgetExceeded):
        build_field(2, 21)  # 2^21 is past the default budget
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    monkeypatch.setattr(fields, "DEFAULT_SIZE_BUDGET", 8)
    with pytest.raises(SizeBudgetExceeded):
        build_field(3, 2)
    monkeypatch.setattr(fields, "DEFAULT_SIZE_BUDGET", 9)
    assert build_field(3, 2).q == 9


def test_size_budget_is_decided_before_p_is_tested_or_p_to_the_m_built():
    # 2^(10^8) took 0.7 s to build and then failed to print, and a 61-digit p ran
    # Miller-Rabin first; m = 10^12 comes last, so a field that builds p^m first
    # fails at 10^8 and never tries to build 2^(10^12). A p or an m past the budget is named
    # by the bound, not printed: str() refuses an int of more than 4,300 digits, such as +-10^5000.
    rows = ((2, 10 ** 8, r"2\^m with m > 20"), (10 ** 60 + 7, 1, r"\|p\|"), (10 ** 5000, 1, r"\|p\|"),
            (-10 ** 5000, 1, r"\|p\|"), (2, 10 ** 5000, r"2\^m with m > 20"),
            (3, 10 ** 5000, r"3\^m with m > 12"), (2, 10 ** 12, r"2\^m with m > 20"))
    for p, m, q in rows:
        start = time.perf_counter()
        with pytest.raises(SizeBudgetExceeded, match=rf"^{q} exceeds the size budget 1048576$"):
            build_field(p, m)
        assert time.perf_counter() - start < 0.1, (p.bit_length(), m.bit_length())
    with pytest.raises(NotPrime):
        build_field(1, 10 ** 12)  # p < 2 has no budget to check


def test_a_q_past_str_limit_is_named_not_printed():
    # str() refuses an int of more than 4,300 digits, so a q or max_q past that is named in the
    # message, not printed, and is refused at once; a printable one is still printed
    rows = ((field_of_order, 10 ** 5000, SizeBudgetExceeded, "q exceeds the size budget 1048576"),
            (field_of_order, -10 ** 5000, NotPrimePower, "q is not a prime power"),
            (field_of_order, 10 ** 4400, SizeBudgetExceeded, "q exceeds the size budget 1048576"),
            (run_verification, 10 ** 5000, SizeBudgetExceeded, "max_q exceeds the size budget 1048576"),
            (field_of_order, -6, NotPrimePower, "q = -6 is not a prime power"),
            (run_verification, 5 * 10 ** 6, SizeBudgetExceeded,
             "max_q = 5000000 exceeds the size budget 1048576"))
    for call, value, error, message in rows:
        start = time.perf_counter()
        with pytest.raises(error) as raised:
            call(value)
        assert str(raised.value) == message
        assert time.perf_counter() - start < 0.1, (call.__name__, value.bit_length())


def test_extension_degree_below_1_is_not_a_prime_power():
    # m < 1 is refused before the budget and before p is tested, so a composite p does not mask it
    for p, m in ((2, 0), (2, -3), (4, 0), (10 ** 5000, -10 ** 5000)):
        with pytest.raises(NotPrimePower, match=r"^p\^m with m < 1 is not a prime power$"):
            build_field(p, m)


def test_canonical_field_is_deterministic():
    f1 = build_field(5, 2)
    f2 = build_field(5, 2)
    assert f1 is f2
    # degree-2 irreducibility oracle: no roots in the prime field
    c0, c1, _ = f1.modulus
    assert all((x * x + c1 * x + c0) % 5 != 0 for x in range(5))
    # canonical = first in constant-first lexicographic order
    assert f1.modulus == canonical_modulus(5, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteField(5, 2, (1, 0, 1))  # x^2 + 1 has roots 2, 3 mod 5


def test_model_arithmetic():
    a = Element.from_coeffs(F25_MODEL, (0, 1))
    assert a * a == Element.from_coeffs(F25_MODEL, (2, 3))  # a^2 = 3a + 2
    assert a ** 12 == Element.from_coeffs(F25_MODEL, (4, 0))
    assert str(a ** 12) == "4"


def test_mul_inv_is_identity_everywhere():
    field = build_field(5, 2)
    one = Element.one(field)
    for x in Element.elements(field):
        if x.is_zero():
            with pytest.raises(ValueError, match="no inverse"):
                one / x
            with pytest.raises(ValueError, match="no inverse"):
                x.inverse()
        else:
            assert x * x.inverse() == one
            assert one / x == x.inverse()


def test_pow_edge_cases():
    field = build_field(7, 1)
    zero, one = Element.zero(field), Element.one(field)
    assert zero ** 0 == one
    assert zero ** 3 == zero
    x = Element(field, 3)
    assert x ** (field.q - 1) == one


def test_trace_examples():
    traces = trace_table(F25_MODEL)
    assert traces[1] == 2  # m * 1 mod p
    assert traces[0] == 0
    # independent oracle for trace(a): a + a^5 by explicit Frobenius powering
    a = Element.from_coeffs(F25_MODEL, (0, 1))
    frob = a * a * a * a * a
    assert frob == Element.from_coeffs(F25_MODEL, (3, 4))  # a^5 = 4a + 3
    assert (a + frob).coeffs == (3, 0)
    assert traces[a.index] == 3


def test_trace_additive_and_frobenius_exhaustive():
    # all element pairs of every field with q <= 343, vectorized
    for q in range(2, 344):
        pm = prime_power(q)
        if pm is None:
            continue
        p, _ = pm
        field = build_field(*pm)
        everyone = np.arange(q, dtype=np.int64)
        sums = add_outer(field, everyone, everyone)
        tr = trace_table(field)
        assert (tr[sums] == (tr[:, None] + tr[None, :]) % p).all()
        frob = np.asarray([index_pow(field, u, p) for u in range(q)], dtype=np.int64)
        assert (frob[sums] == add_outer(field, frob, frob)).all()


def test_trace_lands_in_prime_subfield():
    field = build_field(3, 4)
    traces = trace_table(field)
    for x in Element.elements(field):
        acc = Element.zero(field)
        y = x
        for _ in range(field.m):
            acc = acc + y
            y = y ** field.p
        assert acc.index < field.p  # prime-subfield elements are exactly the small indices
        assert acc.index == traces[x.index]


def test_power_residues_model_fourth_powers():
    fourth = {str(F25_MODEL.element(i)) for i in build_graph(F25_MODEL, 4).connection.tolist()}
    assert fourth == {"1", "4", "a+3", "a+4", "4a+1", "4a+2"}


def test_power_residues_whole_group_and_reduction():
    field = build_field(5, 2)
    assert len(build_graph(field, 1).connection) == 24
    assert build_graph(field, 28).connection.tolist() == build_graph(field, 4).connection.tolist()


@pytest.mark.parametrize("p,m,k", [(5, 2, 4), (7, 2, 6), (2, 6, 9), (13, 1, 3)])
def test_power_residues_form_a_subgroup(p, m, k):
    import math

    field = build_field(p, m)
    residues = build_graph(field, k).connection.tolist()
    assert len(residues) == (field.q - 1) // math.gcd(k, field.q - 1)
    rset = set(residues)
    for u in residues:
        assert index_inv(field, u) in rset
        for v in residues:
            assert index_mul(field, u, v) in rset


def test_discrete_log():
    field = F25_MODEL
    assert discrete_log(field, Element.omega(field)) == 1
    assert discrete_log(field, 1) == 0
    assert discrete_log(field, Element.from_coeffs(field, (4, 0))) == 12
    with pytest.raises(ValueError, match="discrete log of zero"):
        discrete_log(field, 0)
    # log is a bijection onto 0..q-2
    assert sorted(discrete_log(field, x) for x in Element.elements(field) if not x.is_zero()) \
        == list(range(field.q - 1))


def test_element_rendering_and_coercion():
    field = build_field(5, 2)
    assert str(field.element(0)) == "0"
    assert str(field.element(17)) == "3a+2"
    assert Element.from_coeffs(field, (2, 1)) == field.element(7)
    x = Element.from_coeffs(field, (1, 2))
    assert x + 0 == x and x * 1 == x and x - x == Element.zero(field)


def test_m1_modulus_convention():
    field = build_field(13, 1)
    assert field.modulus == (0, 1)
    assert [field.element(i).coeffs for i in range(13)] == [(i,) for i in range(13)]


def test_is_irreducible_known_cases():
    assert is_irreducible((1, 1, 1), 5)       # x^2 + x + 1
    assert not is_irreducible((1, 0, 1), 5)   # x^2 + 1 = (x-2)(x-3)
    assert is_irreducible((1, 1, 0, 1, 1, 0, 0, 0, 1), 2)      # x^8+x^4+x^3+x+1
    assert not is_irreducible((1, 1, 0, 0, 0, 0, 0, 0, 1), 2)  # x^8+x+1 splits
    assert not is_irreducible((0, 0, 1), 7)   # x^2


@pytest.mark.parametrize("p, m", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2),
                                  (5, 3), (7, 2), (11, 2)])
def test_canonical_modulus_matches_search_over_every_candidate(p, m):
    every = [c + (1,) for c in itertools.product(range(p), repeat=m)
             if irreducible_by_trial_division(c + (1,), p)]
    assert list(itertools.islice(irreducible_polynomials(p, m), 2)) == every[:2]
    assert canonical_modulus(p, m) == every[0]


@pytest.mark.parametrize("p, max_m", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_is_irreducible_agrees_with_trial_division(p, max_m):
    # every monic polynomial, so squares of irreducibles and zero constant terms among them
    for m in range(1, max_m + 1):
        for low in itertools.product(range(p), repeat=m):
            f = low + (1,)
            assert is_irreducible(f, p) == irreducible_by_trial_division(f, p), f


def test_canonical_moduli_of_every_extension_field_are_pinned():
    fields_by_q = sorted((p ** m, p, m) for p in range(2, 1025) if is_prime(p)
                         for m in range(2, 21) if p ** m <= 2 ** 20)
    moduli = [((p, m), canonical_modulus(p, m)) for _, p, m in fields_by_q]
    assert len(moduli) == 242
    assert hashlib.sha256(repr(moduli).encode()).hexdigest()[:16] == "43e17d4b0f2702b0"


def test_modulus_search_skips_multiples_of_x(monkeypatch):
    calls = []

    def counting(modulus, p):
        calls.append(modulus)
        return is_irreducible(modulus, p)

    monkeypatch.setattr(fields, "is_irreducible", counting)
    assert canonical_modulus(2, 16) == (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)
    assert len(calls) < 100  # 32,790 when every constant-term-0 candidate was tested
    calls.clear()
    with pytest.raises(SizeBudgetExceeded):
        build_field(2, 40)  # the budget is checked before any modulus is searched for
    assert calls == []


# ---------------------------------------------------------------------------
# the tables against the per-element construction they replaced

def _reference_tables(field):
    """omega, exp, log, traces, negatives and Zech logs, one polynomial multiply at a time.

    omega is the least index whose powers first return to 1 after q - 1
    steps; traces are linear in the coefficients, from the Frobenius orbit
    sums of the basis elements a^i.
    """
    p, m, q, modulus = field.p, field.m, field.q, field.modulus

    def index(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    for omega in range(1, q):
        step = _poly_trim(field.index_coeffs(omega))
        exp, cur = [], (1,)
        while True:
            exp.append(index(cur))
            cur = _poly_mul_mod(cur, step, modulus, p)
            if cur == (1,):
                break
        if len(exp) == q - 1:
            break
    log = [-1] * q
    for e, x in enumerate(exp):
        log[x] = e

    basis_traces = []
    for i in range(m):
        x = (0,) * i + (1,)
        orbit = [_poly_pow_mod(x, p ** j, modulus, p) for j in range(m)]
        total = [sum(c[t] for c in orbit if t < len(c)) % p for t in range(m)]
        assert total[1:] == [0] * (m - 1)  # the trace lies in the prime subfield
        basis_traces.append(total[0])
    digits = [field.index_coeffs(x) for x in range(q)]
    traces = [sum(c * t for c, t in zip(d, basis_traces)) % p for d in digits]
    neg = [index([(p - c) % p for c in d]) for d in digits]
    zech = [log[index(((d[0] + 1) % p,) + d[1:])] for d in (digits[x] for x in exp)]
    return omega, exp, log, traces, neg, zech


def _assert_tables_match_reference(field):
    omega, exp, log, traces, neg, zech = _reference_tables(field)
    assert field.omega_index == omega
    assert field.exp.tolist() == exp
    assert field.log.tolist() == log
    assert field.trace_of_exp.tolist() == [traces[x] for x in exp]
    assert [index_neg(field, x) for x in range(field.q)] == neg
    assert field.zech.tolist() == zech


def test_tables_match_per_element_build_for_every_q_up_to_1024():
    for q in range(2, 1025):
        if (pm := prime_power(q)) is not None:
            _assert_tables_match_reference(build_field(*pm))


@pytest.mark.parametrize("q", [2 ** 14, 3 ** 9, 139 ** 2, 65521])
def test_tables_match_per_element_build_on_larger_fields(q):
    _assert_tables_match_reference(build_field(*prime_power(q)))


def test_block_products_stay_exact_beyond_float64():
    # each product here passes 2**53, so the float64 path would round it
    rows = np.array([[2 ** 32 - 1], [2 ** 31 + 5], [7]], dtype=np.uint32)
    matrix = np.array([[2 ** 28 + 1]])
    out = np.empty(3, dtype=np.int64)
    fields._product_mod(rows, matrix[:, 0], 2 ** 31 - 1, out)
    assert out.tolist() == [int(r) * (2 ** 28 + 1) % (2 ** 31 - 1) for r in rows[:, 0]]


def test_index_level_results_are_python_ints():
    field = build_field(3, 4)
    assert type(field.omega_index) is int
    for signed in (False, True):
        terms = witness(field, 4, field.element(58), signed=signed)
        assert terms and all(type(x.index) is int for _, x in terms)


def test_index_pow_does_not_wrap_on_large_exponents():
    # log(u) * 10**6 passes 2**31 for these u, which an int32 product would wrap
    field = build_field(2, 16)
    e = 10 ** 6
    for log_u in (1, 40000, field.q - 2):
        u = int(field.exp[log_u])
        expected = _poly_pow_mod(field.index_coeffs(u), e, field.modulus, field.p)
        assert index_pow(field, u, e) == sum(c * field.p ** i for i, c in enumerate(expected))


def test_table_laws_survive_python_O(run_optimized):
    # a corrupted table build must still be caught when asserts are stripped
    proc = run_optimized("""
        import sys

        from gpgraphs import InvariantViolated, build_field, fields

        def expect_violation(what):
            try:
                build_field(5, 2)
            except InvariantViolated as exc:
                print(exc)
            else:
                sys.exit(f"{what} went unnoticed")

        honest_search = fields.FiniteField._least_primitive
        fields.FiniteField._least_primitive = lambda self: 1  # the element 1 has order 1
        expect_violation("a non-primitive omega")
        fields.FiniteField._least_primitive = honest_search

        honest_product = fields._product_mod
        calls = []

        def drop_fourth_doubling(rows, matrix, modulus, out):
            calls.append(len(rows))
            if len(calls) != 4:  # the step that fills the powers omega^8 .. omega^15
                honest_product(rows, matrix, modulus, out)

        fields._product_mod = drop_fourth_doubling
        expect_violation("a dropped doubling step")
    """)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert "every nonzero element exactly once" in lines[0]
    assert "omega^(q-1) = 1" in lines[1]


def test_build_field_memory(monkeypatch):
    # tracemalloc peak of a cold GF(2^20) build, modulus search included:
    # 32.1 MB measured (numpy 2.4, Python 3.11); the bound allows 20 % more.
    # The per-element build it replaced peaked at 662 MB.
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    tracemalloc.start()
    try:
        field = build_field(2, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.exp.dtype.itemsize <= 4 and field.trace_of_exp.dtype.itemsize == 1
    assert peak < 39 * 2 ** 20
    for tables in (["exp", "log", "trace_of_exp"], ["exp", "log", "trace_of_exp", "zech"]):
        assert sorted(name for name, value in vars(field).items() if isinstance(value, np.ndarray)) == tables
        field.zech  # a field is its tables, and zech after its first read


def test_field_cache_evicts_the_least_recently_used_field(monkeypatch):
    # 2^19 + 5^8 + 7^6 = 1,032,562 elements fit the 2^20 budget; 3^11 more do not
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    binary, quintic = build_field(2, 19), build_field(5, 8)
    assert build_field(2, 19) is binary  # a hit makes 2^19 the most recently used
    septic = build_field(7, 6)
    ternary = build_field(3, 11)
    assert list(fields._FIELD_CACHE) == [(2, 19), (7, 6), (3, 11)]
    assert sum(f.q for f in fields._FIELD_CACHE.values()) <= fields.DEFAULT_SIZE_BUDGET
    assert all(build_field(*pm) is field for pm, field in (((2, 19), binary), ((7, 6), septic),
                                                          ((3, 11), ternary)))
    rebuilt = build_field(5, 8)  # evicted: an equal field, not the same object
    assert rebuilt is not quintic and np.array_equal(rebuilt.exp, quintic.exp)
    assert rebuilt.modulus == quintic.modulus
    assert build_field(5, 8) is rebuilt
    assert (2, 19) not in fields._FIELD_CACHE  # least recently used when 5^8 came back


def test_field_cache_weighs_each_graph_as_q_and_drops_the_graphs_it_evicts(monkeypatch):
    # budget 64: GF(25) with one graph weighs 50 and GF(7) 7, which fit; a second graph on
    # GF(25) makes 75, so GF(3) evicts it, where counting q alone would keep all three
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    monkeypatch.setattr(fields, "DEFAULT_SIZE_BUDGET", 64)
    field = build_field(5, 2)
    build_graph(field, 4)
    build_field(7, 1)
    assert list(fields._FIELD_CACHE) == [(5, 2), (7, 1)]
    build_graph(field, 8)
    build_field(3, 1)
    assert list(fields._FIELD_CACHE) == [(7, 1), (3, 1)]
    assert field.graphs == {}
    # no graph refers back to the evicted field, so refcounting frees it at once
    evicted = weakref.ref(field)
    del field
    assert evicted() is None
