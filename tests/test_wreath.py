import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from wreathdet import wreath
from wreathdet.errors import CapExceededError, ShapeError
from wreathdet.linalg import Matrix, det, solve_exact, symbolic_matrix
from wreathdet.perm import (
    Permutation,
    enumerate_group,
    young_subgroup_elements,
    young_subgroup_histogram,
)
from wreathdet.tableaux import Partition, row_reading_tableau, standard_tableaux
from wreathdet.verify import rand_matrix
from wreathdet.wreath import (
    ColoringFunction,
    WreathGroupElement,
    colorings,
    column_k_plex,
    det_power_coefficient,
    det_power_identity_check,
    nk_sign,
    orbit_data,
    pf_coefficient,
    pile,
    row_k_plex,
    solve_tdet_duality,
    tableau_matrix,
    tableau_unit_wrdets,
    tdet,
    tdet_duality_columns,
    tdet_duality_matrix,
    wrdet_direct,
    wrdet_expansion_coefficients,
    wrdet_monomial,
    wrdet_symmetric,
    wrdet_tableaux,
    wreath_group_elements,
)


def brute_wrdet(A, k):
    """Standalone oracle: the S_kn sum over the column-plexed matrix."""
    kn, n = A.nrows, A.ncols
    total = Fraction(0)
    for w in itertools.permutations(range(kn)):
        prod = Fraction(1)
        for i, wi in enumerate(w):
            e = A[wi, i // k]
            if e == 0:
                prod = 0
                break
            prod *= e
        if prod:
            seen = [False] * kn
            c = 0
            for s in range(kn):
                if not seen[s]:
                    c += 1
                    t = s
                    while not seen[t]:
                        seen[t] = True
                        t = w[t]
            total += prod * Fraction(-1, k) ** (kn - c)
    return total


def test_plexing():
    A = Matrix([[1, 2], [3, 4], [5, 6]])
    assert column_k_plex(A, 2) == Matrix([[1, 1, 2, 2], [3, 3, 4, 4], [5, 5, 6, 6]])
    assert row_k_plex(A, 2) == Matrix(
        [[1, 2], [1, 2], [3, 4], [3, 4], [5, 6], [5, 6]]
    )
    assert column_k_plex(A, 1) == A


def test_plex_kronecker_relations():
    rng = random.Random(3)
    A = rand_matrix(rng, 3, 2)
    P = rand_matrix(rng, 3, 3)
    Q = rand_matrix(rng, 2, 2)
    assert column_k_plex(P @ A, 2) == P @ column_k_plex(A, 2)
    assert row_k_plex(A @ Q, 2) == row_k_plex(A, 2) @ Q


def test_wrdet_direct_matches_brute():
    rng = random.Random(5)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, k * n, n)
        assert wrdet_direct(A, k) == brute_wrdet(A, k)


def test_wrdet_shape_and_cap():
    with pytest.raises(ShapeError):
        wrdet_direct(Matrix.ones(4, 3), 2)
    with pytest.raises(CapExceededError):
        wrdet_direct(Matrix.ones(8, 4), 2, cap=6)


def test_wrdet_k1_is_det():
    rng = random.Random(7)
    A = rand_matrix(rng, 3, 3)
    assert wrdet_direct(A, 1) == det(A)


def test_row_plexed_identity_values():
    for n, k in ((3, 2), (2, 3)):
        expect = Fraction(factorial(k), k**k) ** n
        assert wrdet_direct(row_k_plex(Matrix.identity(n), k), k) == expect
    rng = random.Random(11)
    A = rand_matrix(rng, 3, 3)
    assert wrdet_direct(row_k_plex(A, 2), 2) == Fraction(1, 4) ** 3 * 2**3 * det(A) ** 2


def test_example_unit_wrdets_and_matrices():
    tabs = standard_tableaux(Partition((2, 2, 2)))
    units = tableau_unit_wrdets(3, 2)
    expected = [
        Fraction(1, 8),
        Fraction(-1, 16),
        Fraction(-1, 16),
        Fraction(1, 32),
        Fraction(1, 32),
    ]
    assert [units[T] for T in tabs] == expected
    printed_I_U4 = Matrix(
        [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]]
    )
    assert tableau_matrix(tabs[3]) == printed_I_U4
    assert tableau_matrix(tabs[0]) == row_k_plex(Matrix.identity(3), 2)
    for T in tabs:
        assert wrdet_direct(tableau_matrix(T), 2) == units[T]


def test_tdet_duality_erratum_witness():
    # tdet_T(I(U)) is unit upper-triangular but NOT the identity: the
    # row-reading/column-reading pair at (3,2) is the smallest failure
    m = tdet_duality_matrix(3, 2)
    assert all(m[p][p] == 1 for p in range(5))
    assert m[0][4] == 1
    assert sum(1 for row in m for v in row if v) == 6
    assert all(m[p][q] == 0 for p in range(5) for q in range(p))


def test_expansion_coefficients_correct_the_duality():
    tabs = standard_tableaux(Partition((2, 2, 2)))
    coeffs = wrdet_expansion_coefficients(3, 2)
    assert [coeffs[T] for T in tabs] == [
        Fraction(1, 8),
        Fraction(-1, 16),
        Fraction(-1, 16),
        Fraction(1, 32),
        Fraction(-3, 32),
    ]


# every (n, k) with n, k >= 2 whose Gram order is at most 42
_SMALL_DUALITY_PAIRS = ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (2, 5), (5, 2))


def duality_dense(n, k):
    """tdet_duality_columns(n, k) as a full matrix, unit diagonal filled in."""
    columns = tdet_duality_columns(n, k)
    f = len(columns)
    dense = [[int(p == q) for q in range(f)] for p in range(f)]
    for q, column in enumerate(columns):
        for p, v in column:
            assert p < q and v in (1, -1)
            dense[p][q] = v
    return dense


def check_incidence_against_determinants(n, k):
    m = tdet_duality_matrix(n, k)
    dense = duality_dense(n, k)
    assert [list(row) for row in m] == dense
    f = len(m)
    assert all(m[p][p] == 1 for p in range(f))
    assert all(m[p][q] == 0 for p in range(f) for q in range(p))


@pytest.mark.parametrize("n,k", _SMALL_DUALITY_PAIRS)
def test_duality_incidence_matches_determinants(n, k):
    check_incidence_against_determinants(n, k)


@pytest.mark.slow
@pytest.mark.parametrize("n,k", ((2, 6), (6, 2)))
def test_duality_incidence_matches_determinants_order_132(n, k):
    # the determinant oracle takes several seconds per pair at order 132
    check_incidence_against_determinants(n, k)


@pytest.mark.parametrize("n,k", _SMALL_DUALITY_PAIRS)
def test_forward_substitution_matches_solve_exact(n, k):
    m = tdet_duality_matrix(n, k)
    f = len(m)
    system = [[m[p][q] for p in range(f)] for q in range(f)]
    tabs = standard_tableaux(Partition((k,) * n))
    units = tableau_unit_wrdets(n, k)
    rng = random.Random(f"{n}:{k}")
    for rhs in ([units[T] for T in tabs],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(f)]):
        assert solve_tdet_duality(n, k, rhs) == solve_exact(system, rhs)


def test_duality_columns_refuse_a_non_triangular_order(monkeypatch):
    # the forward substitution relies on the canonical order; reversed, the
    # incidence matrix is lower-triangular and the build must say so
    monkeypatch.setattr(
        wreath, "standard_tableaux", lambda shape: standard_tableaux(shape)[::-1]
    )
    with pytest.raises(ArithmeticError):
        tdet_duality_columns.__wrapped__(3, 2)


def test_duality_columns_at_order_132():
    # built without the triangularity guard firing; the off-diagonal count
    # agrees between the conjugate shapes (2,6) and (6,2)
    for n, k in ((2, 6), (6, 2)):
        columns = tdet_duality_columns(n, k)
        assert len(columns) == 132
        assert sum(len(column) for column in columns) == 262


def test_tdet_values():
    T0 = row_reading_tableau(3, 2)
    assert tdet(row_k_plex(Matrix.identity(3), 2), T0) == 1
    rng = random.Random(13)
    A = rand_matrix(rng, 6, 3)
    P = rand_matrix(rng, 3, 3)
    for T in standard_tableaux(Partition((2, 2, 2))):
        assert tdet(A @ P, T) == det(P) ** 2 * tdet(A, T)
    with pytest.raises(ShapeError):
        tdet(A, standard_tableaux(Partition((3, 2, 1)))[0])


def test_four_paths_small():
    rng = random.Random(17)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, k * n, n)
        zero_row = Matrix([[0] * n if i == 2 else row for i, row in enumerate(A.rows)])
        for M in (A, zero_row):
            d = wrdet_direct(M, k)
            assert wrdet_tableaux(M, k) == d
            assert wrdet_symmetric(M, k) == d
            assert wrdet_monomial(M, k) == d


def symmetric_loop(A, k):
    """The symmetrization route as one tdet per Young-subgroup element."""
    n = A.ncols
    T0 = row_reading_tableau(n, k)
    total = Fraction(0)
    for sigma in young_subgroup_elements(n, k):
        total += tdet(A.perm_rows(sigma), T0)
    return total * Fraction(1, k ** (k * n))


def test_symmetric_route_matches_tdet_loop():
    rng = random.Random(29)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, k * n, n)
        zero_row = Matrix([[0] * n if i == 1 else row for i, row in enumerate(A.rows)])
        for M in (A, rand_matrix(rng, k * n, n), zero_row):
            assert wrdet_symmetric(M, k) == symmetric_loop(M, k)
    assert wrdet_symmetric(zero_row, 3) == 0


def test_symmetric_and_monomial_routes_on_poly_entries():
    X = symbolic_matrix(4, 2)
    d = wrdet_direct(X, 2)
    assert wrdet_symmetric(X, 2) == d
    assert wrdet_monomial(X, 2) == d


def test_gl_relative_invariance():
    rng = random.Random(19)
    A = rand_matrix(rng, 6, 3)
    P = rand_matrix(rng, 3, 3)
    assert wrdet_direct(A @ P, 2) == det(P) ** 2 * wrdet_direct(A, 2)


def test_wreath_relative_invariance():
    rng = random.Random(23)
    for n, k in ((2, 2), (3, 2)):
        A = rand_matrix(rng, k * n, n)
        base = wrdet_direct(A, k)
        count = 0
        for g in wreath_group_elements(n, k):
            count += 1
            assert wrdet_direct(A.perm_rows(g.embed()), k) == g.character() ** k * base
        assert count == factorial(k) ** n * factorial(n)


def test_wreath_element_embedding():
    g = WreathGroupElement(
        (Permutation((2, 1)), Permutation((1, 2))), Permutation((2, 1))
    )
    assert g.character() == -1
    assert g.embed().degree == 4
    # all embeddings distinct
    embeds = {h.embed().images for h in wreath_group_elements(2, 2)}
    assert len(embeds) == 8


def test_column_sign_action():
    rng = random.Random(29)
    A = rand_matrix(rng, 6, 3)
    tau = Permutation((2, 3, 1))
    assert wrdet_direct(A.perm_cols(tau), 2) == tau.sign() ** 2 * wrdet_direct(A, 2)


def test_pile_two_blocks():
    rng = random.Random(31)
    A, B = rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2)
    inter1 = det(Matrix([A.rows[0], B.rows[0]]))
    inter2 = det(Matrix([A.rows[1], B.rows[1]]))
    assert (
        wrdet_direct(pile(A, B), 2)
        == Fraction(1, 4) * inter1 * inter2 - Fraction(1, 8) * det(A) * det(B)
    )


def test_coloring_validation_and_views():
    with pytest.raises(ShapeError):
        ColoringFunction((1, 1, 1, 2), 2, 2)
    f = ColoringFunction.iota(3, 2)
    assert f.values == (1, 1, 2, 2, 3, 3)
    assert f.matrix_view() == ((1, 1), (2, 2), (3, 3))
    assert f.g_perm().is_identity()
    assert len(list(colorings(2, 2))) == 6
    assert len(list(colorings(3, 2))) == 90


def test_nk_sign_iota_and_k1():
    for n, k in ((2, 2), (3, 2), (2, 3)):
        assert nk_sign(ColoringFunction.iota(n, k)) == Fraction(factorial(k), k**k) ** n
    for images in itertools.permutations((1, 2, 3)):
        assert nk_sign(ColoringFunction(images, 3, 1)) == Permutation(images).sign()


def young_sum_nk_sign(f):
    """Oracle: sgn^(k)(f) = sum over sigma in S_k^n of (-1/k)^(kn - nu(g_f sigma))."""
    n, k = f.n, f.k
    counts = young_subgroup_histogram(f.g_perm().zero_based(), n, k)
    return sum(c * Fraction(-1, k) ** (k * n - nu) for nu, c in enumerate(counts))


def test_det_power_coefficient_unit_cases():
    for g in enumerate_group(4):
        P = tuple(tuple(int(g(i + 1) == j + 1) for j in range(4)) for i in range(4))
        assert det_power_coefficient(P, 1) == g.sign()
    for n, k in ((1, 5), (2, 3), (3, 3), (4, 2)):
        kI = tuple(tuple(k * (i == j) for j in range(n)) for i in range(n))
        assert det_power_coefficient(kI, k) == 1
    # margins other than k, and a negative exponent, give 0
    assert det_power_coefficient(((2, 0), (0, 2)), 3) == 0
    assert det_power_coefficient(((2, 1), (0, 2)), 2) == 0
    assert det_power_coefficient(((3, -1), (-1, 3)), 2) == 0
    assert det_power_coefficient((), 3) == 1
    assert det_power_coefficient(((0, 0), (0, 0)), 0) == 1
    with pytest.raises(ShapeError):
        det_power_coefficient(((1, 1), (1,)), 1)
    # [x11 x12 x21 x22] (x11 x22 - x12 x21)^2 = -2
    assert det_power_coefficient(((1, 1), (1, 1)), 2) == -2


def test_det_power_coefficient_symmetries():
    # transposing m keeps the coefficient; swapping two rows multiplies it by (-1)^k
    rng = random.Random(43)
    for n, k in ((3, 2), (3, 3), (4, 2), (4, 3), (2, 5)):
        for _ in range(6):
            m = [[0] * n for _ in range(n)]
            for _ in range(k):
                pi = list(range(n))
                rng.shuffle(pi)
                for i in range(n):
                    m[i][pi[i]] += 1
            m = tuple(map(tuple, m))
            c = det_power_coefficient(m, k)
            assert det_power_coefficient(tuple(zip(*m)), k) == c
            swapped = (m[1], m[0]) + m[2:]
            assert det_power_coefficient(swapped, k) == (-1) ** k * c


def test_nk_sign_matches_young_sum_on_every_orbit():
    for n, k in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        canonical = {f.canonical_values() for f in colorings(n, k)}
        for values in canonical:
            f = ColoringFunction(values, n, k)
            assert nk_sign(f) == young_sum_nk_sign(f)


def test_nk_sign_is_delta_matrix_wrdet():
    for f in colorings(2, 2):
        assert nk_sign(f) == wrdet_direct(f.delta_matrix(), 2)


def test_u4_worked_example():
    tabs = standard_tableaux(Partition((2, 2, 2)))
    f = ColoringFunction.from_tableau(tabs[3])
    assert f.matrix_view() == ((1, 2), (1, 3), (2, 3))
    assert f.multiplicity_matrix() == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert nk_sign(f) == Fraction(1, 32)
    orbit = list(f.orbit())
    assert len(orbit) == 8
    assert orbit_data(f) == (8, 2, 1)
    assert pf_coefficient(f) == Fraction(1, 4)
    # reconstruction: sgn(w) (k!/k^k)^n |orbit cap regular| / |orbit|
    assert nk_sign(f) == 1 * Fraction(2, 4) ** 3 * Fraction(2, 8)


def test_orbit_reconstruction_all_small():
    for n, k in ((2, 2), (2, 3)):
        scale = Fraction(factorial(k), k**k) ** n
        for f in colorings(n, k):
            size, inter, sign = orbit_data(f)
            assert len(list(f.orbit())) == size
            if inter == 0:
                assert sign is None and nk_sign(f) == 0
            else:
                assert nk_sign(f) == sign * scale * Fraction(inter, size)


def test_left_action_sign_rule():
    tau = Permutation((2, 1, 3))
    for f in colorings(3, 2):
        assert nk_sign(f.act_left(tau)) == tau.sign() ** 2 * nk_sign(f)


def test_det_power_identity():
    rng = random.Random(37)
    A = rand_matrix(rng, 2, 2)
    for f in colorings(2, 2):
        assert det_power_identity_check(f, A)
        assert det_power_identity_check(f, Matrix.identity(2))


def test_monomial_expansion_1_matches_paper_link():
    # standard tableaux as colorings: nk_sign(T) = wrdet I(T)
    units = tableau_unit_wrdets(3, 2)
    for T, c in units.items():
        assert nk_sign(ColoringFunction.from_tableau(T)) == c


def test_monomial_delta_pattern_collapse():
    # on the row-plexed identity only the canonical coloring contributes
    n, k = 3, 2
    A = row_k_plex(Matrix.identity(n), k)
    iota = ColoringFunction.iota(n, k)
    surviving = [
        f
        for f in colorings(n, k)
        if all(A[i, f.values[i] - 1] for i in range(k * n))
    ]
    assert surviving == [iota]
    assert pf_coefficient(iota) == 1
    assert wrdet_monomial(A, k) == nk_sign(iota)
