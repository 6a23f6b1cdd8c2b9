import itertools

import pytest

from gpgraphs import (
    DivisionByZero,
    NotPrime,
    SizeBudgetExceeded,
    ZeroHasNoLog,
    build_field,
    canonical_modulus,
)
from gpgraphs import fields
from gpgraphs.fields import is_irreducible

# A concrete GF(25) model used throughout the tests: x^2 + 2x + 3,
# so the generator a satisfies a^2 = 3a + 2.
F25_MODEL_MODULUS = (3, 2, 1)


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


def test_size_budget():
    with pytest.raises(SizeBudgetExceeded):
        build_field(2, 21)  # 2^21 is past the default budget
    with pytest.raises(SizeBudgetExceeded):
        build_field(3, 2, size_budget=8)
    assert build_field(3, 2, size_budget=9).q == 9


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
        build_field(5, 2, modulus=(1, 0, 1))  # x^2 + 1 has roots 2, 3 mod 5


def test_model_arithmetic():
    field = build_field(5, 2, modulus=F25_MODEL_MODULUS)
    a = field.element((0, 1))
    assert a * a == field.element((2, 3))  # a^2 = 3a + 2
    assert a ** 12 == field.element((4, 0))
    assert str(a ** 12) == "4"


def test_mul_inv_is_identity_everywhere():
    field = build_field(5, 2)
    one = field.one()
    for x in field.elements():
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                one / x
            with pytest.raises(DivisionByZero):
                x.inverse()
        else:
            assert x * x.inverse() == one
            assert one / x == x.inverse()


def test_pow_edge_cases():
    field = build_field(7, 1)
    assert field.zero() ** 0 == field.one()
    assert field.zero() ** 3 == field.zero()
    x = field.element(3)
    assert x ** (field.q - 1) == field.one()


def test_trace_examples():
    field = build_field(5, 2, modulus=F25_MODEL_MODULUS)
    assert field.trace(field.one()) == 2  # m * 1 mod p
    assert field.trace(field.zero()) == 0
    # independent oracle for trace(a): a + a^5 by explicit Frobenius powering
    a = field.element((0, 1))
    frob = a * a * a * a * a
    assert frob == field.element((3, 4))  # a^5 = 4a + 3
    assert (a + frob).coeffs == (3, 0)
    assert field.trace(a) == 3


def test_trace_additive_and_frobenius_exhaustive():
    # all element pairs of every field with q <= 343, vectorized
    import numpy as np

    from gpgraphs.numbertheory import prime_power

    for q in range(2, 344):
        pm = prime_power(q)
        if pm is None:
            continue
        p, _ = pm
        field = build_field(*pm)
        everyone = np.arange(q, dtype=np.int64)
        sums = field.add_outer(everyone, everyone)
        tr = np.asarray(field.trace_table, dtype=np.int64)
        assert (tr[sums] == (tr[:, None] + tr[None, :]) % p).all()
        frob = np.asarray([field.index_pow(u, p) for u in range(q)], dtype=np.int64)
        assert (frob[sums] == field.add_outer(frob, frob)).all()


def test_trace_lands_in_prime_subfield():
    field = build_field(3, 4)
    for x in field.elements():
        acc = field.zero()
        y = x
        for _ in range(field.m):
            acc = acc + y
            y = y ** field.p
        assert acc.index < field.p  # prime-subfield elements are exactly the small indices
        assert acc.index == field.trace(x)


def test_power_residues_model_fourth_powers():
    field = build_field(5, 2, modulus=F25_MODEL_MODULUS)
    fourth = {str(x) for x in field.power_residues(4)}
    assert fourth == {"1", "4", "a+3", "a+4", "4a+1", "4a+2"}


def test_power_residues_whole_group_and_reduction():
    field = build_field(5, 2)
    assert len(field.power_residues(1)) == 24
    assert field.power_residue_indices(28) == field.power_residue_indices(4)


@pytest.mark.parametrize("p,m,k", [(5, 2, 4), (7, 2, 6), (2, 6, 9), (13, 1, 3)])
def test_power_residues_form_a_subgroup(p, m, k):
    import math

    field = build_field(p, m)
    residues = field.power_residue_indices(k)
    assert len(residues) == (field.q - 1) // math.gcd(k, field.q - 1)
    rset = set(residues)
    for u in residues:
        assert field.index_inv(u) in rset
        for v in residues:
            assert field.index_mul(u, v) in rset


def test_discrete_log():
    field = build_field(5, 2, modulus=F25_MODEL_MODULUS)
    assert field.discrete_log(field.omega) == 1
    assert field.discrete_log(field.one()) == 0
    assert field.discrete_log(field.element((4, 0))) == 12
    with pytest.raises(ZeroHasNoLog):
        field.discrete_log(field.zero())
    # log is a bijection onto 0..q-2
    assert sorted(field.discrete_log(x) for x in field.elements() if not x.is_zero()) \
        == list(range(field.q - 1))


def test_element_rendering_and_coercion():
    field = build_field(5, 2)
    assert str(field.zero()) == "0"
    assert str(field.element((2, 3))) == "3a+2"
    assert field.element(7) == field.element((2, 1))
    x = field.element((1, 2))
    assert x + 0 == x and x * 1 == x and x - x == field.zero()


def test_m1_modulus_convention():
    field = build_field(13, 1)
    assert field.modulus == (0, 1)
    assert [x.index for x in field.elements()] == list(range(13))


def test_is_irreducible_known_cases():
    assert is_irreducible((1, 1, 1), 5)       # x^2 + x + 1
    assert not is_irreducible((1, 0, 1), 5)   # x^2 + 1 = (x-2)(x-3)
    assert is_irreducible((1, 1, 0, 1, 1, 0, 0, 0, 1), 2)      # x^8+x^4+x^3+x+1
    assert not is_irreducible((1, 1, 0, 0, 0, 0, 0, 0, 1), 2)  # x^8+x+1 splits
    assert not is_irreducible((0, 0, 1), 7)   # x^2


@pytest.mark.parametrize("p, m", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2),
                                  (5, 3), (7, 2), (11, 2)])
def test_canonical_modulus_matches_search_over_every_candidate(p, m):
    every = [c + (1,) for c in itertools.product(range(p), repeat=m) if is_irreducible(c + (1,), p)]
    assert [canonical_modulus(p, m, skip) for skip in (0, 1)] == every[:2]


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
