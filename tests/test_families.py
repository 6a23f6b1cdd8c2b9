import time

import pytest

from gpgraphs import (
    FamilyDescriptor,
    HypothesisViolated,
    Nature,
    NotPrime,
    NotPrimePower,
    SizeBudgetExceeded,
    census,
    enumerate_family,
    nature_for,
)
from gpgraphs.families import _cyclotomic_value
from gpgraphs.numbertheory import divisors, factorize, is_prime, max_exponent, prime_power
from oracles import _poly_mul, cyclotomic_poly, integrality_reasons


def test_census_values():
    c = census(5, 2)
    assert (c.q, c.sigma, c.n_complex, c.n_real, c.n_integral, c.n_real_nonintegral) \
        == (25, 8, 2, 6, 4, 2)
    assert census(3, 4).n_integral == 8
    c = census(7, 2)
    assert (c.sigma, c.n_complex, c.n_integral) == (10, 2, 4)
    c = census(2, 8)
    assert (c.n_complex, c.n_integral, c.n_real_nonintegral) == (0, 8, 0)


# without the field size check, census(9, 1) counts a "GF(9)" with p = 9 (1 integral and 2 real
# non-integral graphs, where census(3, 2) has 3, 0 and 1 complex), census(4, 1) a GF(4) with
# (1, 1) for (2, 0), census(2, 0) fails inside factorize and census(2, 60) factors 2^60 - 1
# past the size budget
@pytest.mark.parametrize("p, m, error", [
    (9, 1, NotPrime), (4, 1, NotPrime), (2, 0, NotPrimePower), (2, 60, SizeBudgetExceeded),
])
def test_census_refuses_what_is_no_field_within_the_budget(p, m, error):
    with pytest.raises(error):
        census(p, m)


def test_census_matches_enumeration_sweep():
    # the recount by nature_for lives in verify's census check and criterion 8
    for q in range(2, 2000):
        if (pm := prime_power(q)) is not None:
            c = census(*pm)
            assert c.sigma == len(divisors(q - 1))
            assert c.n_real_nonintegral == c.sigma - c.n_complex - c.n_integral


def test_integrality_reasons_examples():
    reasons = integrality_reasons(3, 6, 7)
    assert "CyclotomicDivisor(6)" in reasons            # 7 = Phi_6(3)
    assert "MasterDivisibility" in reasons
    reasons = integrality_reasons(5, 2, 3)
    assert "CoprimePMinus1" in reasons and "CMinusCongruence" in reasons
    assert integrality_reasons(5, 1, 4) == []
    assert "BPlusCongruence" in integrality_reasons(5, 4, 4)  # 5 = 1 mod 4, 4 | 4


def test_sufficient_criteria_imply_integrality():
    for p, m in ((3, 6), (5, 4), (7, 2), (11, 2)):
        for k in divisors(p ** m - 1):
            reasons = integrality_reasons(p, m, k)
            if reasons:
                assert nature_for(p, m, k) is Nature.INTEGRAL
            if nature_for(p, m, k) is Nature.INTEGRAL:
                assert "MasterDivisibility" in reasons


def test_cyclotomic_poly_values():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert _cyclotomic_value(6, 3) == 7
    assert _cyclotomic_value(3, 7) == 57


def test_cyclotomic_product_identity():
    for n in range(1, 201):
        product = (1,)
        for d in divisors(n):
            product = _poly_mul(product, cyclotomic_poly(d))
        assert product == tuple([-1] + [0] * (n - 1) + [1]), n


def test_cyclotomic_value_is_the_polynomial_at_x():
    for d in range(1, 401):
        for x in (2, 3, 5, 7, 11, 13, 101, 65521):
            assert _cyclotomic_value(d, x) == sum(c * x ** i for i, c in enumerate(cyclotomic_poly(d)))
    # Phi_13860(2) has degree phi(13860) = 2880: the polynomial route took seconds
    start = time.perf_counter()
    value = _cyclotomic_value(13860, 2)
    assert time.perf_counter() - start < 1.0
    assert value.bit_length() == 2881 and (2 ** 13860 - 1) % value == 0


def test_enumerators():
    got = list(enumerate_family(FamilyDescriptor("SemiprimitiveDivisor", p=3, k=4), 81))
    assert got == [(4, 9), (4, 81)]
    got = list(enumerate_family(FamilyDescriptor("Tower", p=3, k=2, d=2), 81))
    assert got == [(2, 9), (20, 81)]
    got = list(enumerate_family(FamilyDescriptor("CyclotomicValue", p=7, d=3), 343))
    assert got == [(57, 343)]
    got = list(enumerate_family(FamilyDescriptor("CyclotomicValue", p=3, d=6), 729))
    assert got == [(7, 729)]
    got = list(enumerate_family(FamilyDescriptor("SubfieldDivisor", p=5, k=2), 5 ** 6))
    assert got == [(2, 25), (2, 625), (2, 15625)]
    got = list(enumerate_family(FamilyDescriptor("TotientPower", p=5, k=7), 5 ** 6))
    assert got == [(7, 5 ** 6)]
    # composite k: the totient is multiplicative, so k = 7 * 11 lifts at phi = 60
    got = list(enumerate_family(FamilyDescriptor("TotientPower", p=2, k=77), 2 ** 60))
    assert got == [(77, 2 ** 60)]
    # k is an odd semiprime with two 63-bit factors, which factorize refuses;
    # phi(k) > log2(max_q), so nothing is emitted and k is not factored
    start = time.perf_counter()
    k = 42535295865121361738670918221525633983
    assert list(enumerate_family(FamilyDescriptor("TotientPower", p=2, k=k), 10 ** 41)) == []
    assert time.perf_counter() - start < 1.0


def test_factorize_refuses_a_composite_past_trial_division():
    # trial division runs to 10^6: a cofactor left over is either prime or refused
    assert factorize(1000000000039) == {1000000000039: 1}
    assert factorize(2 ** 3 * 999983 * 1000000000039) == {2: 3, 999983: 1, 1000000000039: 1}
    with pytest.raises(ValueError, match="1000036000099 has no prime factor up to 1000000"):
        factorize(1000003 * 1000033)


def test_max_exponent_is_the_largest_power_within_the_limit():
    for p, m in ((2, 1), (2, 60), (3, 7), (7, 10), (65521, 3), (10 ** 60 + 7, 2)):
        assert max_exponent(p, p ** m) == m
        assert max_exponent(p, p ** m - 1) == m - 1
        assert max_exponent(p, p ** m * p - 1) == m
    assert max_exponent(5, 4) == max_exponent(10 ** 60 + 7, 10 ** 60) == 0  # p > limit
    assert max_exponent(2, 1) == max_exponent(3, 1) == 0
    assert max_exponent(2, 10 ** 4400) == 14616  # 2^14616 < 10^4400 < 2^14617


def test_is_prime_refuses_past_its_exact_range():
    # the least strong pseudoprime to the bases 2 .. 37 is 399165290221 * 798330580441;
    # base 41 exposes it, and the least one to 2 .. 41 is refused
    assert not is_prime(318665857834031151167461)
    assert is_prime(399165290221) and is_prime(798330580441)
    with pytest.raises(ValueError, match="primality is decided only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        is_prime(10 ** 60 + 7)


@pytest.mark.parametrize("descriptor, first_q", [
    (FamilyDescriptor("SubfieldDivisor", p=5, k=2), 25),
    (FamilyDescriptor("SemiprimitiveDivisor", p=3, k=4), 9),
    (FamilyDescriptor("TotientPower", p=5, k=7), 5 ** 6),
    (FamilyDescriptor("CyclotomicValue", p=7, d=3), 343),
    (FamilyDescriptor("Tower", p=3, k=2, d=2), 9),
], ids=lambda value: getattr(value, "kind", value))
def test_each_family_reaches_its_first_q_exactly(descriptor, first_q):
    assert [q for _, q in enumerate_family(descriptor, first_q)] == [first_q]
    assert list(enumerate_family(descriptor, first_q - 1)) == []


def test_family_past_str_digit_limit_formats_nothing_that_passes():
    # 10^4400 has more digits than str() prints: a message built for a passing
    # check raised ValueError, and formatting every pair took seconds
    start = time.perf_counter()
    pairs = list(enumerate_family(FamilyDescriptor("SubfieldDivisor", p=2, k=1), 10 ** 4400))
    assert time.perf_counter() - start < 2.0
    assert len(pairs) == 14616 and pairs[-1] == (1, 2 ** 14616)


def test_enumerator_hypotheses():
    bad = [
        FamilyDescriptor("SubfieldDivisor", p=5, k=3),
        FamilyDescriptor("SubfieldDivisor", p=4, k=3),  # composite p
        FamilyDescriptor("SemiprimitiveDivisor", p=5, k=4),
        FamilyDescriptor("TotientPower", p=5, k=4),     # even
        FamilyDescriptor("TotientPower", p=7, k=3),     # gcd(3, 42) > 1
        FamilyDescriptor("CyclotomicValue", p=5, d=1),
        FamilyDescriptor("Tower", p=5, k=4, d=1),       # GP(4,5) is not integral
        FamilyDescriptor("Nonsense", p=5, k=1),
        FamilyDescriptor("SubfieldDivisor", p=318665857834031151167461, k=1),   # composite
        FamilyDescriptor("SubfieldDivisor", p=3317044064679887385961981, k=1),  # past is_prime
    ]
    for descriptor in bad:
        with pytest.raises(HypothesisViolated):
            list(enumerate_family(descriptor, 10 ** 6))


def test_emitted_pairs_are_integral_and_divide():
    descriptors = [
        FamilyDescriptor("SubfieldDivisor", p=7, k=3),
        FamilyDescriptor("SemiprimitiveDivisor", p=7, k=8),
        FamilyDescriptor("TotientPower", p=3, k=7),
        FamilyDescriptor("CyclotomicValue", p=2, d=5),
        FamilyDescriptor("Tower", p=2, k=3, d=4),
    ]
    for descriptor in descriptors:
        pairs = list(enumerate_family(descriptor, 10 ** 7))
        assert pairs, descriptor
        last_q = 0
        for k, q in pairs:
            assert q > last_q
            last_q = q
            p, m = prime_power(q)
            assert (q - 1) % k == 0
            assert ((q - 1) // (p - 1)) % k == 0  # master divisibility
            assert nature_for(p, m, k) is Nature.INTEGRAL


def test_tower_closure():
    # lifting an integral pair stays integral at every level
    for p, m, k in ((5, 2, 3), (3, 4, 8), (7, 2, 8), (2, 4, 5)):
        assert nature_for(p, m, k) is Nature.INTEGRAL
        q = p ** m
        for a in range(1, 4):
            lifted_k = k * (q ** a - 1) // (q - 1)
            assert nature_for(p, m * a, lifted_k) is Nature.INTEGRAL
