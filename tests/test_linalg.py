import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wreathdet import linalg
from wreathdet.errors import ShapeError
from wreathdet.linalg import (
    Matrix,
    det,
    leading_principal_minors,
    solve_exact,
    symbolic_matrix,
)
from wreathdet.perm import Permutation
from wreathdet.verify import rand_matrix


def leibniz_det(A):
    n = A.nrows
    total = Fraction(0)
    for w in itertools.permutations(range(n)):
        sign = 1
        for i, j in itertools.combinations(range(n), 2):
            if w[i] > w[j]:
                sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= A[w[i], i]
        total += sign * prod
    return total


def test_det_against_leibniz():
    rng = random.Random(5)
    for n in range(1, 6):
        A = rand_matrix(rng, n, n)
        assert det(A) == leibniz_det(A)
    assert det(Matrix([])) == 1


def test_det_singular_and_pivoting():
    A = Matrix([[0, 1, 2], [0, 2, 4], [1, 1, 1]])
    assert det(A) == 0
    B = Matrix([[0, 1], [1, 0]])
    assert det(B) == -1


def test_det_symbolic():
    X = symbolic_matrix(3, 3)
    rng = random.Random(9)
    A = rand_matrix(rng, 3, 3)
    assignment = {("x", i + 1, j + 1): A[i, j] for i in range(3) for j in range(3)}
    assert det(X).subs(assignment).as_rational() == det(A)


def test_row_and_column_actions():
    A = Matrix([[1, 2], [3, 4], [5, 6]])
    sigma = Permutation((2, 3, 1))  # row i of result at position sigma(i)
    assert A.perm_rows(sigma) == Matrix([[5, 6], [1, 2], [3, 4]])
    tau = Permutation((2, 1))
    assert A.perm_cols(tau) == Matrix([[2, 1], [4, 3], [6, 5]])
    # P_sigma A and A P_tau realisations
    P = Matrix.identity(3).perm_rows(sigma)
    assert P @ A == A.perm_rows(sigma)
    Q = Matrix.identity(2).perm_cols(tau)
    assert A @ Q == A.perm_cols(tau)


def test_action_composition():
    rng = random.Random(11)
    A = rand_matrix(rng, 4, 4)
    s = Permutation((2, 3, 4, 1))
    t = Permutation((2, 1, 4, 3))
    assert A.perm_rows(s).perm_rows(t) == A.perm_rows(t * s)
    assert A.perm_cols(s).perm_cols(t) == A.perm_cols(s * t)


def test_blocks_and_shapes():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[5], [6]])
    M = Matrix.from_blocks([[A, B]])
    assert M == Matrix([[1, 2, 5], [3, 4, 6]])
    with pytest.raises(ShapeError):
        Matrix.from_blocks([[A, Matrix([[1]])]])
    with pytest.raises(ShapeError):
        Matrix([[1, 2], [3]])


def minors_by_det(A):
    """Oracle: one pivoting Bareiss determinant per leading minor."""
    return [det(A.submatrix(range(j), range(j))) for j in range(1, A.nrows + 1)]


def mixed_matrix(rng, n):
    """Rational entries over mixed denominators, with zeros and signs."""
    return Matrix(
        [
            [Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def symmetric_matrix(rng, n):
    """A + A^T with A over mixed denominators."""
    A = mixed_matrix(rng, n)
    return A + A.transpose()


def test_leading_principal_minors():
    A = Matrix([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    assert leading_principal_minors(A) == [2, 3, 4]
    # zero middle minor does not break the later ones
    B = Matrix([[0, 1], [1, 0]])
    assert leading_principal_minors(B) == [0, -1]
    C = Matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert leading_principal_minors(C) == [1, 0, -1]
    h = Fraction(1, 2)
    S = Matrix([[h, h, 0, 1], [h, h, Fraction(1, 3), 0], [0, Fraction(1, 3), 2, h], [1, 0, h, -1]])
    minors = leading_principal_minors(S)
    assert minors == minors_by_det(S) and minors[1] == 0
    assert leading_principal_minors(Matrix([])) == []
    assert leading_principal_minors(Matrix([[Fraction(-3, 7)]])) == [Fraction(-3, 7)]
    with pytest.raises(ShapeError):
        leading_principal_minors(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_leading_principal_minors_match_det_seeded():
    rng = random.Random(17)
    for n in range(0, 8):
        for _ in range(6):
            A = mixed_matrix(rng, n)
            assert leading_principal_minors(A) == minors_by_det(A)
            S = symmetric_matrix(rng, n)
            assert leading_principal_minors(S) == minors_by_det(S)
    # negative pivots, a zero first row, and rank-deficient matrices
    neg = Matrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert leading_principal_minors(neg) == [-2, 3, -4]
    for n in range(1, 7):
        A = mixed_matrix(rng, n)
        zero_first = Matrix([[0] * n] + [list(r) for r in A.rows[1:]])
        assert leading_principal_minors(zero_first) == [0] * n
        for rank in range(1, n):
            L, R = mixed_matrix(rng, n), mixed_matrix(rng, n)
            low = L.submatrix(range(n), range(rank)) @ R.submatrix(range(rank), range(n))
            minors = leading_principal_minors(low)
            assert minors == minors_by_det(low)
            assert minors[-1] == 0
            # symmetric and rank-deficient: B^T diag(d) B with B of rank `rank`
            B = mixed_matrix(rng, rank) @ mixed_matrix(rng, n).submatrix(range(rank), range(n))
            d = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rank)]
            sym_low = B.transpose() @ Matrix(
                [[d[i] if i == j else 0 for j in range(rank)] for i in range(rank)]
            ) @ B
            minors = leading_principal_minors(sym_low)
            assert minors == minors_by_det(sym_low)
            assert minors[-1] == 0


def test_leading_principal_minors_paths(monkeypatch):
    # a symmetric input takes the upper-triangle pass; changing one
    # off-diagonal entry sends it down the row-scaled general pass
    calls = []
    upper = linalg._scaled_upper_triangle

    def spy(matrix):
        calls.append(matrix)
        return upper(matrix)

    monkeypatch.setattr(linalg, "_scaled_upper_triangle", spy)
    rng = random.Random(37)
    for n in range(2, 8):
        S = symmetric_matrix(rng, n)
        assert leading_principal_minors(S) == minors_by_det(S)
        assert calls == [S]
        calls.clear()
        rows = [list(r) for r in S.rows]
        rows[0][n - 1] += Fraction(1, 7)
        T = Matrix(rows)
        assert leading_principal_minors(T) == minors_by_det(T)
        assert calls == []


def test_leading_principal_minors_one_pass(monkeypatch):
    # with every leading minor nonzero, no per-minor determinant is taken
    def no_det(matrix):
        raise AssertionError("took a determinant per minor")

    monkeypatch.setattr(linalg, "det", no_det)
    A = Matrix([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 3), 2, Fraction(-5, 6)], [0, 1, 7]])
    assert leading_principal_minors(A) == [Fraction(1, 2), Fraction(8, 9), Fraction(239, 36)]
    S = Matrix([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 3), 2, Fraction(-5, 6)], [0, Fraction(-5, 6), 7]])
    assert leading_principal_minors(S) == [Fraction(1, 2), Fraction(8, 9), Fraction(47, 8)]


def test_leading_principal_minors_poly_entries():
    X = symbolic_matrix(3, 3)
    assert leading_principal_minors(X) == minors_by_det(X)
    rng = random.Random(23)
    A = rand_matrix(rng, 3, 3)
    assignment = {("x", i + 1, j + 1): A[i, j] for i in range(3) for j in range(3)}
    assert [m.subs(assignment).as_rational() for m in leading_principal_minors(X)] == (
        leading_principal_minors(A)
    )


entries = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 7))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        # a repeated row makes every later leading minor singular
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[j] = list(rows[i])
    if draw(st.booleans()):
        # mirror the upper triangle: a symmetric input
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return Matrix(rows)


@settings(deadline=None)
@given(square_matrices())
def test_leading_principal_minors_match_det_property(A):
    assert leading_principal_minors(A) == minors_by_det(A)


def test_solve_exact():
    rng = random.Random(3)
    A = rand_matrix(rng, 4, 4)
    while det(A) == 0:
        A = rand_matrix(rng, 4, 4)
    xs = [rand_matrix(rng, 1, 1)[0, 0] for _ in range(4)]
    rhs = [sum(A[i, j] * xs[j] for j in range(4)) for i in range(4)]
    assert solve_exact([list(r) for r in A.rows], rhs) == xs
    with pytest.raises(ShapeError):
        solve_exact([[1, 1], [2, 2]], [1, 1])
