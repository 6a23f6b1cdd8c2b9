import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from gpgraphs import CyclotomicInteger, ValueClass
from oracles import Cyclotomic, quadratic_gauss_sum, root_power

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

values = st.integers(min_value=-50, max_value=50)


def cyclotomics(p):
    return st.lists(values, min_size=p, max_size=p).map(lambda c: Cyclotomic(p, c))


def test_canonical_form_examples():
    # zeta_5 + zeta_5^4: apply 1 + z + z^2 + z^3 + z^4 = 0 by hand
    v = root_power(5, 1) + root_power(5, 4)
    assert v.coeffs == (-1, 0, -1, -1, 0)
    # zeta_3^2 = -1 - zeta_3
    assert root_power(3, 2).coeffs == (-1, -1, 0)
    assert root_power(5, 0) == Cyclotomic.from_int(5, 1)
    assert root_power(5, 7) == root_power(5, 2)
    # an int is no value, so the eq/hash contract holds
    assert CyclotomicInteger(5, [3, 0, 0, 0, 0]) != 3


def test_vanishing_root_sum():
    for p in SMALL_PRIMES:
        total = Cyclotomic.zero(p)
        for j in range(p):
            total = total + root_power(p, j)
        assert total.is_zero()
        assert total == Cyclotomic.from_int(p, 0)


def test_mul_by_zero_and_ints():
    a = root_power(7, 1) * 3 - 2
    assert a * Cyclotomic.zero(7) == Cyclotomic.zero(7)
    assert (a * 0).is_zero()
    assert (a - a).is_zero()


def test_mixed_root_orders_rejected():
    with pytest.raises(ValueError, match=re.escape("cannot combine Z[zeta_5] with Z[zeta_7]")):
        root_power(5, 1) + root_power(7, 1)
    with pytest.raises(ValueError, match=re.escape("cannot combine Z[zeta_5] with Z[zeta_3]")):
        root_power(5, 1) * root_power(3, 1)


def test_conjugate_examples():
    assert root_power(7, 1).conjugate() == root_power(7, 6)
    r = Cyclotomic.from_int(11, -4)
    assert r.conjugate() == r
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        a = CyclotomicInteger(p, [rng.randrange(-20, 21) for _ in range(p)])
        assert a.conjugate().conjugate() == a


@pytest.mark.parametrize("p", (2, 3, 5, 7, 47))
def test_conjugate_is_zeta_to_inverse_and_an_involution(p):
    rng = random.Random(p)
    for _ in range(40):
        a = CyclotomicInteger(p, [rng.randrange(-9, 10) for _ in range(p)])
        by_definition = Cyclotomic.zero(p)
        for j, c in enumerate(a.coeffs):
            by_definition = by_definition + root_power(p, -j) * c
        assert a.conjugate() == by_definition
        assert a.conjugate().conjugate() == a


def test_classify_examples():
    assert Cyclotomic.from_int(5, -1).classify() is ValueClass.RATIONAL
    assert Cyclotomic.from_int(5, -1).rational_value() == -1
    v = root_power(5, 1) + root_power(5, 4)  # 2cos(2pi/5)
    assert v.classify() is ValueClass.REAL_IRRATIONAL
    assert root_power(7, 1).classify() is ValueClass.NONREAL
    with pytest.raises(ValueError):
        root_power(7, 1).rational_value()


def test_embed_examples():
    assert abs(Cyclotomic.from_int(5, 1).embed() - 1) < 1e-12
    v = root_power(5, 1) + root_power(5, 4)
    assert abs(v.embed() - 2 * math.cos(2 * math.pi / 5)) < 1e-12
    total = Cyclotomic.zero(7)
    for j in range(7):
        total = total + root_power(7, j)
    assert abs(total.embed()) < 1e-12


def test_quadratic_gauss_sum_squares():
    for p in (3, 5, 7, 11, 13, 17, 19):
        g = quadratic_gauss_sum(p)
        expected = p if p % 4 == 1 else -p
        assert g * g == Cyclotomic.from_int(p, expected)


@given(st.data())
def test_ring_axioms(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    a = data.draw(cyclotomics(p))
    b = data.draw(cyclotomics(p))
    c = data.draw(cyclotomics(p))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Cyclotomic.zero(p)


@given(st.data())
def test_canonicalization_idempotent(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    a = data.draw(cyclotomics(p))
    assert CyclotomicInteger(p, a.coeffs) == a
    assert a.coeffs[p - 1] == 0


@given(st.data())
def test_nonreal_iff_not_self_conjugate(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES))
    a = data.draw(cyclotomics(p))
    assert (a.classify() is ValueClass.NONREAL) == (a != a.conjugate())


def test_nonreal_iff_not_self_conjugate_exhaustive_small():
    import itertools

    for p in (2, 3, 5):
        for coeffs in itertools.product(range(-2, 3), repeat=p):
            a = CyclotomicInteger(p, coeffs)
            assert (a.classify() is ValueClass.NONREAL) == (a != a.conjugate())


def test_embed_is_multiplicative():
    rng = random.Random(11)
    for _ in range(150):
        p = rng.choice(SMALL_PRIMES)
        a = Cyclotomic(p, [rng.randrange(-1000, 1001) for _ in range(p)])
        b = Cyclotomic(p, [rng.randrange(-1000, 1001) for _ in range(p)])
        assert abs((a * b).embed() - a.embed() * b.embed()) <= 1e-9 * max(1.0, abs(a.embed() * b.embed()))


def test_rendering():
    assert str(Cyclotomic.from_int(5, -3)) == "-3"
    h = root_power(7, 1) + root_power(7, 2) + root_power(7, 4)
    assert str(h) == "z + z^2 + z^4"
    assert str(root_power(5, 1) * 2 - 1) == "-1 + 2*z"
    assert str(Cyclotomic.zero(3)) == "0"
