import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gpgraphs import (
    FiniteField,
    Nature,
    SizeBudgetExceeded,
    build_field,
    build_graph,
    classify_structure,
    components,
    nature_for,
    spectra,
    spectrum,
    srg_parameters,
    verify,
)
from gpgraphs.graphs import PALEY_UNION
from gpgraphs.numbertheory import divisors, is_prime, prime_power
from gpgraphs.verify import doubled_rows, moments
from oracles import (
    Cyclotomic,
    boundary_values,
    dense_entries,
    exact_values,
    gaussian_period,
    index_add,
    numeric_oracle_check,
    quadratic_gauss_sum,
    root_power,
    second_modulus,
    square_histogram,
    verify_2re,
)


def as_multiset(report):
    return dict(exact_values(report))


def test_gaussian_period_whole_group():
    # sum over all of F_q* of zeta^trace is -1 (orthogonality)
    for q in (7, 9, 25, 32):
        field = build_field(*prime_power(q))
        assert gaussian_period(field, 1, 0) == Cyclotomic.from_int(field.p, -1)


def test_gaussian_period_quadratic_cases():
    field = build_field(3, 2)
    values = {gaussian_period(field, 2, i) for i in range(2)}
    assert values == {Cyclotomic.from_int(3, 1), Cyclotomic.from_int(3, -2)}

    field = build_field(7, 1)
    values = {gaussian_period(field, 2, i) for i in range(2)}
    # exactly the two halves of -1 +- i*sqrt(7): 2v + 1 = +-gauss sum
    assert {v * 2 + 1 for v in values} == {quadratic_gauss_sum(7), -quadratic_gauss_sum(7)}


def test_gaussian_period_errors():
    field = build_field(5, 2)
    with pytest.raises(ValueError, match=re.escape("coset index 4 outside [0, 4)")):
        gaussian_period(field, 4, 4)
    with pytest.raises(ValueError):
        gaussian_period(field, 5, 0)


def test_spectrum_complete_graph():
    report = spectrum(build_graph(build_field(7, 1), 1))
    assert as_multiset(report) == {Cyclotomic.from_int(7, 6): 1,
                                   Cyclotomic.from_int(7, -1): 6}
    assert report.nature is Nature.INTEGRAL and report.mu == 2


def test_spectrum_binary_matching_union():
    report = spectrum(build_graph(build_field(2, 8), 255))
    assert as_multiset(report) == {Cyclotomic.from_int(2, 1): 128,
                                   Cyclotomic.from_int(2, -1): 128}


def test_spectrum_ten_eigenvalue_digraph():
    # GP(38, 343): eigenvalues generated by h = z + z^2 + z^4 = (-1 + i*sqrt7)/2
    h = root_power(7, 1) + root_power(7, 2) + root_power(7, 4)
    hb = h.conjugate()
    expected = {
        Cyclotomic.from_int(7, 9): 1,
        Cyclotomic.from_int(7, 2): 54,
        h * 2 + 3: 27, hb * 2 + 3: 27,   # 2 +- i*sqrt7
        h + 6: 9, hb + 6: 9,             # (11 +- i*sqrt7)/2
        h * 3: 27, hb * 3: 27,           # (-3 +- 3i*sqrt7)/2
        h - 1: 81, hb - 1: 81,           # (-3 +- i*sqrt7)/2
    }
    report = spectrum(build_graph(build_field(7, 3), 38))
    assert as_multiset(report) == expected
    assert report.mu == 10 and report.nature is Nature.COMPLEX


def test_nature_examples():
    assert nature_for(5, 2, 3) is Nature.INTEGRAL
    assert nature_for(5, 2, 12) is Nature.REAL_NONINTEGRAL
    assert nature_for(5, 2, 24) is Nature.COMPLEX
    # binary fields are always integral
    assert all(nature_for(2, 6, k) is Nature.INTEGRAL for k in divisors(63))


def test_nature_matches_eigenvalues_small_sweep():
    for q in (9, 13, 16, 25, 27, 49):
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            assert spectrum(graph).nature is nature_for(field.p, field.m, k)


def test_principal_multiplicity_is_component_count():
    for q, k in ((25, 6), (49, 16), (256, 51), (81, 80)):
        graph = build_graph(build_field(*prime_power(q)), k)
        assert spectrum(graph).principal_multiplicity == components(graph).count


def test_two_re_examples():
    assert verify_2re(build_field(5, 2), 8)
    # full-power case: cycle spectra, 2cos values against root powers
    for q in (5, 7, 27, 25):
        field = build_field(*prime_power(q))
        assert verify_2re(field, q - 1)
    # q = 3^5 with k = 2, 22 and 242 (all carry the full 2-part of q - 1)
    field = build_field(3, 5)
    for k in (2, 22, 242):
        assert verify_2re(field, k)


def test_two_re_requires_directed():
    with pytest.raises(ValueError):
        verify_2re(build_field(5, 2), 3)


def test_mu_examples():
    field = build_field(7, 3)
    assert spectrum(build_graph(field, 19)).mu == 4
    assert spectrum(build_graph(field, 38)).mu == 10
    for q in (4, 9, 31):
        assert spectrum(build_graph(build_field(*prime_power(q)), 1)).mu == 2


def test_three_eigenvalue_digraph_detection():
    # the directed GP-graphs with three eigenvalues are the oriented Paley unions
    for p, m, k, text in ((7, 1, 2, "dP(7)"), (7, 2, 16, "7xdP(7)")):
        graph = build_graph(build_field(p, m), k)
        label = classify_structure(graph)
        assert (label.kind, label.text) == (PALEY_UNION, text)
        assert spectrum(graph).mu == 3
    graph = build_graph(build_field(5, 2), 8)
    assert classify_structure(graph).kind != PALEY_UNION
    assert spectrum(graph).mu > 3


def test_directed_paley_closed_form():
    # connected directed Paley on q = p^m vertices (q = 3 mod 4, m odd):
    # non-principal eigenvalues are (-1 +- i*sqrt(q))/2, realized exactly as
    # (-1 +- p^((m-1)/2) * gauss)/2 with gauss^2 = -p
    for p, m in ((7, 1), (11, 1), (19, 1), (23, 1), (3, 3), (7, 3), (3, 5)):
        field = build_field(p, m)
        report = spectrum(build_graph(field, 2))
        scaled_gauss = quadratic_gauss_sum(p) * p ** ((m - 1) // 2)
        principal = Cyclotomic.from_int(p, (field.q - 1) // 2)
        non_principal = [(v, mult) for v, mult in exact_values(report) if v != principal]
        assert {v * 2 + 1 for v, _ in non_principal} == {scaled_gauss, -scaled_gauss}
        assert all(mult == (field.q - 1) // 2 for _, mult in non_principal)


def test_hamming_closed_form():
    # lattice and cube cases: GP realizations of H(b, q0) have spectrum
    # {[l*q0 - b] with multiplicity C(b, l) * (q0-1)^(b-l)}
    import math as _math

    from gpgraphs import classify_structure

    for p, m, k, b, q0 in ((5, 2, 3, 2, 5), (7, 2, 4, 2, 7), (3, 4, 5, 2, 9),
                           (2, 6, 7, 3, 4)):
        graph = build_graph(build_field(p, m), k)
        label = classify_structure(graph)
        lattice = f"=L({q0},{q0})" if b == 2 else ""
        assert (label.kind, label.text) == ("hamming", f"H({b},{q0}){lattice}")
        expected = {
            Cyclotomic.from_int(p, level * q0 - b):
                _math.comb(b, level) * (q0 - 1) ** (b - level)
            for level in range(b + 1)
        }
        assert as_multiset(spectrum(graph)) == expected, (p, m, k)


def test_semiprimitive_closed_form():
    # {[n]^1, [(s(k-1)r - 1)/k]^n, [-(s r + 1)/k]^((k-1)n)} with r = sqrt(q),
    # s = (-1)^(m/(2t) + 1), t minimal with k | p^t + 1
    cases = [(3, 4, 4), (3, 4, 2), (5, 2, 2), (2, 8, 3), (2, 8, 5), (2, 4, 3), (7, 2, 4)]
    for p, m, k in cases:
        field = build_field(p, m)
        graph = build_graph(field, k)
        n = graph.n
        t = next(t for t in range(1, m + 1) if (p ** t + 1) % k == 0)
        s = (-1) ** (m // (2 * t) + 1)
        r = p ** (m // 2)
        assert ((s * (k - 1) * r - 1) % k, (s * r + 1) % k) == (0, 0)
        expected = {
            Cyclotomic.from_int(p, n): 1,
            Cyclotomic.from_int(p, (s * (k - 1) * r - 1) // k): n,
            Cyclotomic.from_int(p, -(s * r + 1) // k): (k - 1) * n,
        }
        assert as_multiset(spectrum(graph)) == expected, (p, m, k)


def test_srg_parameters():
    assert srg_parameters(build_graph(build_field(3, 4), 4)) == (81, 20, 1, 6)
    assert srg_parameters(build_graph(build_field(2, 8), 5)) == (256, 51, 2, 12)
    assert srg_parameters(build_graph(build_field(2, 8), 3)) == (256, 85, 24, 30)
    assert srg_parameters(build_graph(build_field(2, 8), 15)) is None
    assert srg_parameters(build_graph(build_field(5, 2), 1)) is None   # complete: mu = 2
    assert srg_parameters(build_graph(build_field(5, 2), 8)) is None   # directed
    assert srg_parameters(build_graph(build_field(5, 2), 6)) is None   # disconnected


def _srg_by_sets(graph):
    """Common-neighbor counts on Python sets of indices: the oracle for srg_parameters' Zech counts."""
    if graph.directed or components(graph).count > 1 or spectrum(graph).mu != 3:
        return None
    field = graph.field
    q, n = field.q, graph.n
    connection = graph.connection.tolist()
    nbrs0 = set(connection)
    nbrs_adj = {index_add(field, connection[0], r) for r in connection}
    e = len(nbrs0 & nbrs_adj)
    w = next(i for i in range(1, q) if i not in nbrs0)
    nbrs_non = {index_add(field, w, r) for r in connection}
    d = len(nbrs0 & nbrs_non)
    return (q, n, e, d)


def test_srg_parameters_match_set_counts():
    # every k on every prime power q < 2500, and on 3^8, 2^12 and 5^5
    srgs = Counter()
    for q in [q for q in range(2, 2500) if prime_power(q) is not None] + [3 ** 8, 2 ** 12, 5 ** 5]:
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            graph = build_graph(field, k)
            expected = _srg_by_sets(graph)
            assert srg_parameters(graph) == expected, (q, k)
            srgs[q] += expected is not None
    assert sum(srgs.values()) == 271
    assert (srgs[3 ** 8], srgs[2 ** 12], srgs[5 ** 5]) == (5, 4, 1)


def test_boundary_spectrum():
    def boundary(q, k):
        return boundary_values(spectrum(build_graph(build_field(*prime_power(q)), k)))

    assert boundary(13, 2) == (Cyclotomic.from_int(13, 6),)
    # K(2399): its period -1 is not on the boundary, only n = 2398 is
    assert boundary(2399, 1) == (Cyclotomic.from_int(2399, 2398),)
    assert set(boundary(5, 4)) == {root_power(5, j) for j in range(5)}
    assert set(boundary(256, 255)) == {Cyclotomic.from_int(2, 1), Cyclotomic.from_int(2, -1)}


def test_numeric_oracle():
    assert numeric_oracle_check(build_graph(build_field(3, 2), 2), 1e-8)
    assert numeric_oracle_check(build_graph(build_field(5, 2), 8), 1e-8)
    assert numeric_oracle_check(build_graph(build_field(2, 2), 1), 1e-8)
    with pytest.raises(SizeBudgetExceeded):
        numeric_oracle_check(build_graph(build_field(3, 6), 2), 1e-8)


def test_spectrum_invariant_under_modulus_change():
    for p, m in ((5, 2), (7, 2), (3, 4)):
        canonical = build_field(p, m)
        alternate = FiniteField(p, m, second_modulus(p, m))
        assert canonical.modulus != alternate.modulus
        for k in divisors(p ** m - 1):
            left = as_multiset(spectrum(build_graph(canonical, k)))
            right = as_multiset(spectrum(build_graph(alternate, k)))
            assert left == right, (p, m, k)


def per_character_spectrum(field, k):
    """The spectrum as one n-term sum for each of the q - 1 nonzero characters, plus n.

    Character omega^e0 sums zeta^Tr(omega^(e0 + k*j)) over j < n. This is the
    oracle for the period path, which takes each class e0 mod k once.
    """
    p, q1 = field.p, field.q - 1
    n = q1 // k
    trace_of_exp = np.asarray(field.trace_of_exp)
    counts = Counter({Cyclotomic.from_int(p, n): 1})
    chunk = max(1, (1 << 18) // n)
    for start in range(0, q1, chunk):
        e0 = np.arange(start, min(start + chunk, q1))
        traces = trace_of_exp[(e0[:, None] + k * np.arange(n)[None, :]) % q1]
        offsets = np.arange(len(e0))[:, None] * p
        hist = np.bincount((offsets + traces).ravel(), minlength=len(e0) * p).reshape(-1, p)
        counts.update(Cyclotomic(p, row) for row in hist.tolist())
    return counts


def period_spectrum(field, k):
    """{n} and every gaussian_period n times."""
    n = (field.q - 1) // k
    counts = Counter({Cyclotomic.from_int(field.p, n): 1})
    for i in range(k):
        counts[gaussian_period(field, k, i)] += n
    return counts


ORACLE_QS = [q for q in range(2, 344) if prime_power(q) is not None] + [729, 2209, 2401]


def test_spectrum_matches_per_character_and_period_oracles():
    disconnected = 0
    for q in ORACLE_QS:
        field = build_field(*prime_power(q))
        for k in divisors(q - 1):
            report = spectrum(build_graph(field, k))
            principal = Cyclotomic.from_int(field.p, report.n)
            by_character = per_character_spectrum(field, k)
            assert as_multiset(report) == by_character == period_spectrum(field, k), (q, k)
            assert report.principal_multiplicity == by_character[principal], (q, k)
            assert report.mu == len(report.eigenvalues) == len(by_character), (q, k)
            disconnected += field.m > 1 and report.principal_multiplicity > 1
    assert disconnected >= 60  # the sweep exercises disconnected extension fields (68 graphs)


def _canonical(histogram):
    return tuple((histogram - histogram[-1]).tolist())


def _check_row_squares(report, p):
    """Each row squared by pairs and by Kronecker substitution: the two methods agree."""
    for row in report._rows:
        by_pairs = verify._pair_sums(row[None], p, np.zeros(1, dtype=np.intp), 1)[0]
        assert np.array_equal(by_pairs, verify._kronecker_square(row, p)), (report.q, report.k)


def test_row_products_match_cyclotomic_products(monkeypatch):
    # eta^2 (one row at a time, and weighted into the second moment) and
    # eta + conj(eta) from the period rows, against Cyclotomic
    # arithmetic on every gaussian_period (with n once); with blocks of 4096
    # pairs, the rows of the larger fields take several steps
    monkeypatch.setattr(verify, "PAIR_BLOCK", 4096)
    branches = Counter()
    for q in ORACLE_QS[:-3]:  # q <= 343
        field = build_field(*prime_power(q))
        p = field.p
        for k in divisors(q - 1):
            report = spectrum(build_graph(field, k))
            expected = (Counter(), Counter())
            second = np.zeros(p, dtype=np.int64)
            for value, mult in period_spectrum(field, k).items():
                square = value * value
                for counts, image in zip(expected, (square, value + value.conjugate())):
                    counts[image.coeffs] += mult
                second += mult * np.array(square.coeffs)
            sums = np.array([np.bincount(row, minlength=p) for row in doubled_rows(report)])
            by_rows = ([_canonical(square_histogram(row, p)) for row in report._rows],
                       map(tuple, (sums - sums[:, -1:]).tolist()))
            for counts, rows in zip(expected, by_rows):
                found = Counter()
                for row, mult in zip(rows, report._multiplicities.tolist()):
                    found[row] += mult
                assert found == counts, (q, k)
            assert np.array_equal(moments(report)[1], second), (q, k)
            _check_row_squares(report, p)
            branches["pairs" if report.n ** 2 <= verify.KRONECKER_RATIO * p else "kronecker"] += 1
    assert branches == Counter(pairs=574, kronecker=155)


def test_row_squares_at_p_4093_match_cyclotomic_products():
    # GP(12, 4093) squares its rows by pairs, GP(11, 4093) and GP(1, 4093)
    # by Kronecker substitution; the rows whose canonical value has a few
    # hundred terms keep the Cyclotomic product quick
    field = build_field(4093, 1)
    branches = Counter()
    for k in (1, 11, 12):
        report = spectrum(build_graph(field, k))
        checked = 0
        for row in report._rows:
            value = Cyclotomic(4093, np.bincount(row, minlength=4093).tolist())
            if sum(map(bool, value.coeffs)) > 400:
                continue
            assert _canonical(square_histogram(row, 4093)) == (value * value).coeffs, k
            checked += 1
        assert checked >= min(k, 5), k
        _check_row_squares(report, 4093)
        branches["pairs" if report.n ** 2 <= verify.KRONECKER_RATIO * 4093 else "kronecker"] += 1
    assert branches == Counter(pairs=1, kronecker=2)


def test_second_moment_memory_is_linear_in_p():
    # the mu x p matrix of eta^2 rows took 134 MB here; the moments are length-p vectors
    graph = build_graph(build_field(4093, 1), 4092)
    tracemalloc.start()
    try:
        first, second = moments(spectrum(graph))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not first.any() and second[0] == 0 and not second[1:].any()  # directed: sum of squares 0
    assert peak < 8 * 2 ** 20, peak


def test_prime_fields_have_k_plus_one_eigenvalues():
    for p in range(2, 2400):
        if not is_prime(p):
            continue
        field = build_field(p, 1)
        for k in divisors(p - 1):
            report = spectrum(build_graph(field, k))
            assert (report.mu, report.principal_multiplicity) == (k + 1, 1), (p, k)


def test_prime_field_spectrum_memory_is_linear_in_p():
    # the period rows hold q - 1 + n traces, where a k x p matrix of int64
    # would take 46 MB at q = 2399 and 21 MB at q = 139^2 (an extension field)
    for q, mu, bound_mb in ((2399, 2399, 2), (139 ** 2, 139, 4)):
        graph = build_graph(build_field(*prime_power(q)), q - 1)
        tracemalloc.start()
        try:
            report = spectrum(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mu == mu, q
        assert peak < bound_mb * 2**20, (q, peak)


def test_report_table_agrees_with_values():
    # every entry answers embed, classify and str as the exact value does;
    # GP(5, 256) over p = 2 and GP(16, 2401) are integral: every value is rational
    graphs = [(q, k) for q in range(2, 344) if prime_power(q) for k in divisors(q - 1)]
    for q, k in graphs + [(25, 8), (49, 16), (343, 38), (2401, 30), (13, 4), (2399, 11), (256, 5),
                          (2401, 16)]:
        report = spectrum(build_graph(build_field(*prime_power(q)), k))
        assert report.eigenvalues == tuple((entry, entry.multiplicity) for entry in report.entries)
        for entry in report.entries:
            value = Cyclotomic.from_terms(report._p, entry.terms)
            assert entry.embed() == entry.numeric == value.embed(), (q, k)
            assert entry.classify() is entry.value_class is value.classify(), (q, k)
            assert str(entry) == str(value), (q, k)


def test_entries_match_the_dense_decode():
    # GP(2398, 2399) and GP(1199, 2399) have one row with trace p - 1 among
    # thousands; GP(736, 2209) and GP(63, 16129) have dozens
    graphs = [(q, k) for q in range(2, 344) if prime_power(q) for k in divisors(q - 1)]
    for q, k in graphs + [(2399, 2398), (2399, 1199), (2209, 736), (16129, 63)]:
        report = spectrum(build_graph(build_field(*prime_power(q)), k))
        assert report.entries == dense_entries(report), (q, k)


def test_unit_roots_keep_one_table():
    # a table of length p per prime seen held 697 MB after the primes below 30,000
    for p in (101, 103, 107, 109):
        spectrum(build_graph(build_field(p, 1), 2)).entries
    assert spectra._unit_roots.cache_info().currsize <= 1


def test_entries_break_float_ties_by_coefficients(monkeypatch):
    # no two distinct eigenvalues are known to tie on their rounded images,
    # so force every image to 0: the order must be that of the coefficients
    monkeypatch.setattr(spectra, "embed_coeffs", lambda p, coeffs: 0j)
    report = spectrum(build_graph(build_field(5, 2), 8))
    values = [value for value, _ in exact_values(report)]
    assert [v.coeffs for v in values] == sorted(v.coeffs for v in values)
    assert len(values) == report.mu == 7


def test_spectrum_laws_survive_python_O(run_optimized):
    # spectrum checks nothing; a corrupted principal multiplicity must still be
    # caught by verify's waring-formula family when asserts are stripped
    proc = run_optimized("""
        import dataclasses

        from gpgraphs import spectra
        from gpgraphs.verify import verify_field

        honest = spectra.spectrum

        def corrupted(graph):
            report = honest(graph)
            if graph.k != 6:
                return report
            return dataclasses.replace(report, principal_multiplicity=report.principal_multiplicity + 1)

        spectra.spectrum = corrupted
        for outcome in verify_field(25):
            if outcome.failed:
                print(outcome.name, outcome.failed, outcome.first_failure)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("waring-formula 1 q=25 k=6: principal multiplicity 6 "
                           "!= component count 5\n"), proc.stdout


def test_the_shared_spectrum_arrays_are_read_only():
    # every caller of the field's own GP(4, 81) reads the one kept report
    report = spectrum(build_graph(build_field(3, 4), 4))
    assert spectrum(build_graph(build_field(3, 4), 4)) is report
    for array in (report._rows, report._multiplicities, report._classes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
