import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from wreathdet import _kernels, alphadet
from wreathdet.alphadet import (
    _cycle_cover_sums,
    adet,
    adet_dp,
    adet_laplace,
    adet_sum,
    block_adet_check,
    kdet,
    singular_order,
)
from wreathdet.errors import CapExceededError, ShapeError
from wreathdet.linalg import Matrix, det, symbolic_matrix
from wreathdet.perm import enumerate_group, support_subgroup_elements
from wreathdet.rings import ALPHA
from wreathdet.symfun import d_nk, power_matrix
from wreathdet.verify import rand_matrix
from wreathdet.wreath import column_k_plex, wrdet_direct


def brute_adet(A, alpha):
    """Defining sum, written independently of the library kernels."""
    n = A.nrows
    total = 0
    for w in itertools.permutations(range(1, n + 1)):
        left = set(range(1, n + 1))
        nu = 0
        while left:
            nu += 1
            start = left.pop()
            t = w[start - 1]
            while t in left:
                left.remove(t)
                t = w[t - 1]
        prod = alpha ** (n - nu)
        for i in range(n):
            prod = prod * A[w[i] - 1, i]
        total = total + prod
    return total


def test_all_ones_stirling():
    assert adet(Matrix.ones(3), ALPHA) == (1 + ALPHA) * (1 + 2 * ALPHA)
    for n in (1, 2, 3, 4, 5, 12):
        expect = 1 * ALPHA**0
        for i in range(1, n):
            expect = expect * (1 + i * ALPHA)
        assert adet(Matrix.ones(n), ALPHA) == expect


def test_det_and_permanent():
    A = Matrix([[1, 2], [3, 4]])
    assert adet(A, -1) == -2
    assert adet(A, 1) == 10


def test_adet_matches_brute_force():
    rng = random.Random(17)
    for n in range(1, 6):
        A = rand_matrix(rng, n, n)
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert adet_sum(A, alpha) == brute_adet(A, alpha)
    A = rand_matrix(rng, 3, 3)
    assert adet_sum(A, ALPHA) == brute_adet(A, ALPHA)


def test_adet_symbolic_entries():
    X = symbolic_matrix(3, 3)
    assert adet(X, ALPHA) == brute_adet(X, ALPHA)


def test_transpose_invariance():
    rng = random.Random(23)
    for n in range(2, 6):
        A = rand_matrix(rng, n, n)
        assert adet(A, Fraction(2, 5)) == adet(A.transpose(), Fraction(2, 5))


def test_kdet_examples():
    assert kdet(Matrix.ones(2), 2) == Fraction(1, 2)
    for k in (1, 2, 3):
        assert kdet(Matrix.ones(k), k) == Fraction(factorial(k), k**k)
        assert kdet(Matrix.ones(k + 1), k) == 0
        assert brute_adet(Matrix.ones(k + 1), Fraction(-1, k)) == 0
    rng = random.Random(29)
    A = rand_matrix(rng, 4, 4)
    assert kdet(A, 1) == det(A)
    with pytest.raises(ValueError):
        kdet(Matrix.ones(2), 0)


def test_laplace_matches_sum_every_column():
    rng = random.Random(31)
    for n in range(2, 7):
        A = rand_matrix(rng, n, n)
        alpha = Fraction(3, 7)
        expect = adet_sum(A, alpha)
        for q in range(1, n + 1):
            assert adet_laplace(A, alpha, q) == expect


def test_laplace_symbolic_and_structure():
    X = symbolic_matrix(4, 4)
    full = adet_sum(X, ALPHA)
    assert adet_laplace(X, ALPHA, 2) == full

    # the four-term expansion at the second column, with its submatrices
    # assembled exactly as printed: removed row/column 2, and for p != 2 the
    # p-th row replaced by what was row 2
    def sub(rows):
        return Matrix([[X[i, j] for j in (0, 2, 3)] for i in rows])

    manual = (
        ALPHA * X[0, 1] * adet_sum(sub([1, 2, 3]), ALPHA)
        + X[1, 1] * adet_sum(sub([0, 2, 3]), ALPHA)
        + ALPHA * X[2, 1] * adet_sum(sub([0, 1, 3]), ALPHA)
        + ALPHA * X[3, 1] * adet_sum(sub([0, 2, 1]), ALPHA)
    )
    assert manual == full


def test_laplace_bad_column():
    with pytest.raises(ShapeError):
        adet_laplace(Matrix.ones(3), ALPHA, 4)


def test_degenerate_sizes():
    assert adet(Matrix([]), ALPHA) == 1
    assert adet(Matrix([[Fraction(5, 3)]]), ALPHA) == Fraction(5, 3)
    assert adet_laplace(Matrix([[7]]), ALPHA, 1) == 7


def test_cap_and_shape_errors():
    with pytest.raises(ShapeError):
        adet(Matrix([[1, 2]]), 1)
    with pytest.raises(CapExceededError):
        adet_sum(Matrix.ones(6), ALPHA, cap=5)
    # the Laplace route keeps the cap, forced or taken by auto above n = 8
    with pytest.raises(CapExceededError):
        adet(symbolic_matrix(3, 3), ALPHA, "laplace", cap=1)
    with pytest.raises(CapExceededError):
        adet(symbolic_matrix(9, 9), ALPHA, cap=2)
    with pytest.raises(CapExceededError):
        adet_laplace(Matrix.ones(13), ALPHA)


def test_block_multiplicativity():
    rng = random.Random(37)
    assert block_adet_check(Matrix([[1]]), Matrix([[5]]), Matrix([[1]]), ALPHA)
    assert block_adet_check(
        rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2),
        Fraction(-2, 3),
    )
    assert adet(
        Matrix.from_blocks(
            [[Matrix.ones(2), Matrix.zero(2, 2)], [Matrix.zero(2, 2), Matrix.ones(2)]]
        ),
        ALPHA,
    ) == (1 + ALPHA) ** 2


def test_permutation_action_identity():
    rng = random.Random(41)
    A = rand_matrix(rng, 4, 4)
    for w in enumerate_group(4):
        assert adet(A.perm_rows(w), ALPHA) == adet(A.perm_cols(w), ALPHA)


def test_k_alternating_and_column_add():
    rng = random.Random(43)
    n, k = 5, 2
    A = rand_matrix(rng, n, n)
    b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    A = A.with_col(0, b).with_col(2, b)
    # k+1 equal columns kill kdet
    assert kdet(A.with_col(4, b), k) == 0
    # adding the repeated column elsewhere changes nothing
    for j in (1, 3, 4):
        bumped = A.with_col(j, [a + v for a, v in zip(A.col(j), b)])
        assert kdet(bumped, k) == kdet(A, k)
    # averaged alternating sums over S_n(I) vanish when |I| > k
    B = rand_matrix(rng, n, n)
    I = (1, 2, 4)
    assert sum(kdet(B.perm_cols(w), 2) for w in support_subgroup_elements(I, n)) == 0


def test_singular_order():
    assert singular_order(Fraction(-1, 4)) == 4
    assert singular_order(-1) == 1
    assert singular_order(Fraction(1, 4)) is None
    assert singular_order(Fraction(-3, 4)) is None


# --- the cycle-cover DP against the two oracles ------------------------------

SPECIAL_ALPHAS = [Fraction(-1, k) for k in range(1, 5)] + [Fraction(0), ALPHA]


def mixed_matrix(rng, n):
    """Rational entries over mixed denominators, with zeros."""
    return Matrix(
        [
            [Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def assert_three_agree(A, alpha, q=1):
    value = adet_dp(A, alpha)
    assert value == adet_sum(A, alpha)
    if A.nrows:
        assert value == adet_laplace(A, alpha, q)


def test_dp_matches_sum_and_laplace_seeded():
    rng = random.Random(47)
    for n in range(0, 8):
        A = mixed_matrix(rng, n)
        alphas = SPECIAL_ALPHAS + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))]
        for alpha in alphas:
            assert_three_agree(A, alpha, q=rng.randint(1, max(n, 1)))


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
alphas = st.one_of(fractions, st.sampled_from(SPECIAL_ALPHAS))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 7))
    entries = st.one_of(st.just(Fraction(0)), fractions)
    return Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(deadline=None)
@given(square_matrices(), alphas, st.integers(1, 7))
def test_dp_matches_sum_and_laplace_property(A, alpha, q):
    assert_three_agree(A, alpha, q=min(q, max(A.nrows, 1)))


def test_cycle_cover_sums_kernel_contract():
    rng = random.Random(53)
    for n in range(0, 8):
        for _ in range(5):
            rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
            assert _cycle_cover_sums(rows, n) == _kernels.nu_grouped_products(rows, n)


def test_dp_edge_cases():
    assert adet_dp(Matrix([]), ALPHA) == 1
    assert adet_dp(Matrix([[Fraction(-4, 9)]]), ALPHA) == Fraction(-4, 9)
    rng = random.Random(59)
    A = mixed_matrix(rng, 5)
    for alpha in SPECIAL_ALPHAS:
        # a zero column kills every term
        assert adet_dp(A.with_col(2, [0] * 5), alpha) == 0
        # a diagonal matrix keeps only the identity, whose weight is alpha^0
        diag = Matrix([[A[i, i] if i == j else 0 for j in range(5)] for i in range(5)])
        expect = A[0, 0] * A[1, 1] * A[2, 2] * A[3, 3] * A[4, 4]
        assert adet_dp(diag, alpha) == expect == adet_sum(diag, alpha)
    # rank deficient: the third row is the sum of the first two
    rows = [list(r) for r in A.rows]
    rows[2] = [a + b for a, b in zip(rows[0], rows[1])]
    B = Matrix(rows)
    assert adet_dp(B, -1) == 0 == det(B)
    for alpha in SPECIAL_ALPHAS:
        assert_three_agree(B, alpha, q=3)


def test_dp_symbolic_entries():
    X = symbolic_matrix(4, 4)
    assert adet(X, ALPHA, "dp") == adet_sum(X, ALPHA) == adet_laplace(X, ALPHA, 3)


def test_dp_cap():
    # one past the cap fails loudly instead of falling back to Laplace
    with pytest.raises(CapExceededError):
        adet(Matrix.ones(13), Fraction(1, 2))
    with pytest.raises(CapExceededError):
        adet_dp(Matrix.ones(6), ALPHA, cap=5)
    with pytest.raises(CapExceededError):
        wrdet_direct(Matrix.ones(8, 4), 2, cap=6)
    with pytest.raises(ValueError):
        adet(Matrix.ones(2), ALPHA, "bogus")


def test_auto_routes_rationals_to_dp(monkeypatch):
    def no_enumeration(rows, n):
        raise AssertionError("auto took the n! defining sum")

    monkeypatch.setattr(alphadet, "nu_grouped_products", no_enumeration)
    rng = random.Random(61)
    A = mixed_matrix(rng, 6)
    assert adet(A, Fraction(2, 3)) == adet_laplace(A, Fraction(2, 3))
    assert kdet(A, 3) == adet_laplace(A, Fraction(-1, 3))
    W = rand_matrix(rng, 6, 3)
    assert wrdet_direct(W, 2) == adet_laplace(column_k_plex(W, 2), Fraction(-1, 2))
    xs, exps = [1, 2, 3, 5], [0, 0, 1, 1]
    assert d_nk(xs, exps, 2) == adet_laplace(power_matrix(xs, exps), Fraction(-1, 2))
