"""Acceptance suite: one test per criterion, exact arithmetic throughout,
each printing a PASS line with its wall time (run with -s to see them).
"""

import itertools
import random
import time
from fractions import Fraction
from math import factorial

from wreathdet.alphadet import adet_laplace, adet_sum, kdet
from wreathdet.linalg import Matrix, det, symbolic_matrix
from wreathdet.perm import (
    Permutation,
    enumerate_group,
    shifted_cycle_sum,
    support_subgroup_elements,
)
from wreathdet.rings import ALPHA, variable
from wreathdet.spherical import phi, phi_decomposition_check, xi_scan
from wreathdet.symfun import (
    cauchy_check,
    complete_direct,
    d_nk,
    delta_shift,
    elementary_direct,
    h_series_check,
    monomial_direct,
    monomial_via_kdet,
    pde_via_kdet,
    power_direct,
    sample_cauchy_points,
    sample_distinct_fractions,
    schur_bialternant,
    specht_expansion_check,
    symmetric_sum_vdm_check,
    wreath_vandermonde,
)
from wreathdet.tableaux import (
    Partition,
    content_polynomial,
    count_semistandard,
    frobenius_weight,
    hook_f,
    kostka,
    mn_character,
    partitions,
    standard_tableaux,
)
from wreathdet.verify import rand_fraction, rand_matrix
from wreathdet.wreath import (
    ColoringFunction,
    colorings,
    column_k_plex,
    det_power_identity_check,
    nk_sign,
    orbit_data,
    pf_coefficient,
    tableau_unit_wrdets,
    wrdet_direct,
    wrdet_monomial,
    wrdet_symmetric,
    wrdet_tableaux,
    wreath_group_elements,
)

_EX53 = (
    Fraction(1, 8),
    Fraction(-1, 16),
    Fraction(-1, 16),
    Fraction(1, 32),
    Fraction(1, 32),
)


def _done(num, label, start, budget):
    took = time.perf_counter() - start
    print(f"ACCEPTANCE {num} ({label}): PASS in {took:.2f}s (budget {budget}s)")
    assert took < budget, f"criterion {num} exceeded its {budget}s budget ({took:.1f}s)"


def test_acceptance_1_tableau_example_reproduction():
    start = time.perf_counter()
    tabs = standard_tableaux(Partition((2, 2, 2)))
    units = tableau_unit_wrdets(3, 2)
    assert tuple(units[T] for T in tabs) == _EX53
    rng = random.Random(20080101)
    for _ in range(50):
        A = rand_matrix(rng, 6, 3)
        assert wrdet_tableaux(A, 2) == wrdet_direct(A, 2)
    _done(1, "worked 6x3 example", start, 5)


def test_acceptance_2_gram_determinants():
    start = time.perf_counter()
    expected = {
        (2, 2): Fraction(3, 4),
        (3, 2): Fraction(2, 3) * Fraction(3, 4) ** 5,
        (2, 3): Fraction(3, 2) * Fraction(2, 3) ** 5,
        (4, 2): Fraction(2**6 * 5, 3) * Fraction(3, 8) ** 14,
        (2, 4): Fraction(3, 2**6 * 5) * Fraction(5, 6) ** 14,
    }
    from wreathdet.spherical import xi_det

    for (n, k), value in expected.items():
        assert xi_det(n, k) == value, (n, k)
    _done(2, "Gram determinants", start, 30)


def test_acceptance_3_positivity_scan():
    start = time.perf_counter()
    pairs = xi_scan(10)
    assert pairs, "scan produced nothing"
    seen = set()
    for rep in pairs:
        assert not rep.get("skipped"), rep
        seen.add((rep["n"], rep["k"]))
        assert rep["positive_definite"] is True, rep
        minors = [Fraction(m) for m in rep["leading_minors"]]
        assert len(minors) == rep["order"] and all(m > 0 for m in minors)
    assert seen == {
        (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (3, 3),
    }
    _done(3, "positivity scan kn<=10", start, 300)


def test_acceptance_4_four_path_consistency():
    start = time.perf_counter()
    rng = random.Random(20080102)
    for n, k in ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4)):
        for _ in range(50):
            A = rand_matrix(rng, k * n, n)
            d = wrdet_direct(A, k)
            assert wrdet_tableaux(A, k) == d
            assert wrdet_symmetric(A, k) == d
            assert wrdet_monomial(A, k) == d
    _done(4, "four wrdet paths x50", start, 60)


def test_acceptance_5_laplace_oracle():
    start = time.perf_counter()
    rng = random.Random(20080103)
    for n in range(2, 7):
        for _ in range(100):
            A = rand_matrix(rng, n, n)
            alpha = rand_fraction(rng)
            ref = adet_sum(A, alpha)
            for q in range(1, n + 1):
                assert adet_laplace(A, alpha, q) == ref
    for n in range(2, 5):
        for _ in range(100):
            A = rand_matrix(rng, n, n)
            ref = adet_sum(A, ALPHA)
            for q in range(1, n + 1):
                assert adet_laplace(A, ALPHA, q) == ref
    # the printed 4x4 expansion at the second column, fully symbolic
    X = symbolic_matrix(4, 4)

    def sub(rows):
        return Matrix([[X[i, j] for j in (0, 2, 3)] for i in rows])

    manual = (
        ALPHA * X[0, 1] * adet_sum(sub([1, 2, 3]), ALPHA)
        + X[1, 1] * adet_sum(sub([0, 2, 3]), ALPHA)
        + ALPHA * X[2, 1] * adet_sum(sub([0, 1, 3]), ALPHA)
        + ALPHA * X[3, 1] * adet_sum(sub([0, 2, 1]), ALPHA)
    )
    assert adet_laplace(X, ALPHA, 2) == manual == adet_sum(X, ALPHA)
    _done(5, "Laplace vs defining sum", start, 60)


def test_acceptance_6_structure_lemma_suite():
    start = time.perf_counter()
    # shifted cycle sums factor as alpha^m * prod (1 + i alpha), all g and I
    for n in range(1, 6):
        members = range(1, n + 1)
        for g in enumerate_group(n):
            for r in range(n + 1):
                for I in itertools.combinations(members, r):
                    value, m = shifted_cycle_sum(g, I, ALPHA)
                    expect = ALPHA**m
                    for i in range(1, r):
                        expect = expect * (1 + i * ALPHA)
                    assert value == expect
    rng = random.Random(20080104)
    # averaged alternating sums vanish when the support beats k
    n = 5
    A = rand_matrix(rng, n, n)
    for k in (1, 2, 3):
        for I in itertools.combinations(range(1, n + 1), k + 1):
            total_cols = sum(
                kdet(A.perm_cols(w), k) for w in support_subgroup_elements(I, n)
            )
            total_rows = sum(
                kdet(A.perm_rows(w), k) for w in support_subgroup_elements(I, n)
            )
            assert total_cols == 0 and total_rows == 0
    # repeated columns kill kdet outright
    for n in range(3, 7):
        for k in range(1, n):
            B = rand_matrix(rng, n, n)
            b = [rand_fraction(rng) for _ in range(n)]
            for j in range(k + 1):
                B = B.with_col(j, b)
            assert kdet(B, k) == 0
    # block triangular multiplicativity, symbolic alpha
    for sizes in ((1, 1), (2, 2), (2, 3), (3, 2)):
        p, q = sizes
        A11, A22 = rand_matrix(rng, p, p), rand_matrix(rng, q, q)
        A12 = rand_matrix(rng, p, q)
        assembled = Matrix.from_blocks([[A11, A12], [Matrix.zero(q, p), A22]])
        assert adet_sum(assembled, ALPHA) == adet_sum(A11, ALPHA) * adet_sum(A22, ALPHA)
    # column-add invariance in the presence of k repeated columns
    n, k = 5, 2
    C = rand_matrix(rng, n, n)
    b = [rand_fraction(rng) for _ in range(n)]
    C = C.with_col(0, b).with_col(3, b)
    for j in (1, 2, 4):
        bumped = C.with_col(j, [a + v for a, v in zip(C.col(j), b)])
        assert kdet(bumped, k) == kdet(C, k)
    _done(6, "structure lemmas", start, 60)


def test_acceptance_7_invariance_suite():
    start = time.perf_counter()
    rng = random.Random(20080105)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, k * n, n)
        P = rand_matrix(rng, n, n)
        assert wrdet_direct(A @ P, k) == det(P) ** k * wrdet_direct(A, k)
    for n, k in ((2, 2), (3, 2)):
        A = rand_matrix(rng, k * n, n)
        base = wrdet_direct(A, k)
        for g in wreath_group_elements(n, k):
            assert wrdet_direct(A.perm_rows(g.embed()), k) == g.character() ** k * base
    # displayed (2,2) discrepancy polynomial: factors and vanishing locus
    X = symbolic_matrix(4, 2)
    P = Matrix([[1, 1], [0, 1]])
    diff = adet_sum(column_k_plex(X @ P, 2), ALPHA) - adet_sum(
        column_k_plex(X, 2), ALPHA
    )
    x = lambda i, j: variable("x", i, j)
    bracket = (
        (1 + 3 * ALPHA) * x(1, 1) * x(2, 1) * x(3, 1) * x(4, 1)
        + 2 * ALPHA * (x(1, 2) * x(2, 1) + x(1, 1) * x(2, 2)) * x(3, 1) * x(4, 1)
        + (1 + ALPHA) * x(1, 1) * x(2, 1) * (x(3, 2) * x(4, 1) + x(3, 1) * x(4, 2))
    )
    assert diff == (1 + ALPHA) * (1 + 2 * ALPHA) * bracket
    for j in range(1, 7):
        vanished = diff.subs({("a",): Fraction(-1, j)}).is_zero()
        assert vanished == (j in (1, 2)), f"alpha = -1/{j}"
    _done(7, "relative invariance", start, 60)


def _ratio_suite(n, k, rng, sizes=(1, 2, 3, 4)):
    kn = k * n
    xs = sample_distinct_fractions(rng, kn, num_hi=9, den_hi=4)
    units = {}
    for size in sizes:
        for mu in partitions(size):
            if mu.depth <= kn:
                units[mu.parts] = monomial_via_kdet(mu, xs, n, k)
                assert units[mu.parts] == monomial_direct(mu, xs)
    for size in sizes:
        for lam in partitions(size):
            if lam.depth > kn:
                continue
            total = Fraction(0)
            for mu in partitions(size):
                if mu.depth <= kn:
                    c = kostka(lam, mu.parts)
                    if c:
                        total += c * units[mu.parts]
            assert total == schur_bialternant(lam, xs)
    for d in sizes:
        assert pde_via_kdet("power", d, xs, n, k) == power_direct(d, xs)
        assert pde_via_kdet("complete", d, xs, n, k) == complete_direct(d, xs)
        assert pde_via_kdet("elementary", d, xs, n, k) == elementary_direct(d, xs)


def test_acceptance_8_symmetric_function_suite():
    start = time.perf_counter()
    rng = random.Random(20080106)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        for _ in range(5):
            xs, ys = sample_cauchy_points(rng, n, k)
            assert cauchy_check(xs, ys, k, "plus")
            assert cauchy_check(xs, ys, k, "geometric")
        pts = sample_distinct_fractions(rng, k * n)
        assert specht_expansion_check(pts, n, k)
        assert symmetric_sum_vdm_check(pts, n, k)
        assert d_nk(pts, delta_shift(n, k), k) == wreath_vandermonde(pts, n, k)
    for n, k in ((2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (2, 4)):
        _ratio_suite(n, k, rng)
    xs = sample_distinct_fractions(rng, 4)
    ys = sample_distinct_fractions(rng, 2)
    assert h_series_check(2, 2, 2, xs, ys)
    _done(8, "symmetric function formulas", start, 180)


def test_acceptance_9_sign_and_spherical_suite():
    start = time.perf_counter()
    # the worked (3,2) coloring example
    U4 = standard_tableaux(Partition((2, 2, 2)))[3]
    f4 = ColoringFunction.from_tableau(U4)
    assert nk_sign(f4) == Fraction(1, 32)
    assert orbit_data(f4) == (8, 2, 1)
    assert pf_coefficient(f4) == Fraction(1, 4)
    # determinant-power identity over every coloring of the smallest family
    rng = random.Random(20080107)
    A = rand_matrix(rng, 2, 2)
    for f in colorings(2, 2):
        assert det_power_identity_check(f, A)
    # Frobenius specialization as a polynomial identity in alpha
    for N in range(1, 7):
        for cls in partitions(N):
            total = 0 * ALPHA
            for lam in partitions(N):
                total = total + frobenius_weight(lam, ALPHA) * mn_character(lam, cls)
            assert total == ALPHA ** (N - cls.depth)
    # content polynomial vs tableau counting at the singular points
    for k in (1, 2, 3, 4):
        for N in range(k, 9, k):
            for lam in partitions(N):
                expect = Fraction(
                    factorial(N) * count_semistandard(lam.conjugate(), k),
                    hook_f(lam) * k**N,
                )
                assert content_polynomial(lam, Fraction(-1, k)) == expect
    # spherical decomposition via Murnaghan-Nakayama, every group element
    for n, k in ((2, 2), (3, 2)):
        for g in enumerate_group(k * n):
            assert phi_decomposition_check(g, n, k)
    _done(9, "signs and spherical functions", start, 180)
