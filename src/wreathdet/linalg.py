"""Dense matrices over exact scalars (rationals or Poly entries).

Row and column permutation actions follow the usual conventions for a left
S_m action and a right S_n action on m x n matrices:

    (sigma . A)[i, j] = A[sigma^{-1}(i), j]      (rows;  sigma . A = P_sigma A)
    (A . tau)[i, j]   = A[i, tau(j)]             (cols;  A . tau = A P_tau)

Indices are 0-based internally; permutations are the 1-based Permutation
objects from wreathdet.perm.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import ShapeError
from .rings import Poly, is_rational


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ShapeError("ragged rows")
        self.rows = rows

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"Matrix[{self.nrows}x{self.ncols}]({body})"

    # constructors -----------------------------------------------------------

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def ones(m, n=None):
        n = m if n is None else n
        return Matrix([[1] * n for _ in range(m)])

    @staticmethod
    def zero(m, n):
        return Matrix([[0] * n for _ in range(m)])

    @staticmethod
    def from_blocks(grid):
        """Assemble from a 2D grid of Matrix blocks with compatible shapes."""
        out = []
        for block_row in grid:
            heights = {b.nrows for b in block_row}
            if len(heights) != 1:
                raise ShapeError("block heights differ within a row")
            for i in range(heights.pop()):
                out.append([e for b in block_row for e in b.rows[i]])
        return Matrix(out)

    # elementwise / structural -------------------------------------------------

    def transpose(self):
        return Matrix(zip(*self.rows)) if self.rows else Matrix([])

    def map(self, fn):
        return Matrix([[fn(e) for e in r] for r in self.rows])

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def with_col(self, j, column):
        column = tuple(column)
        if len(column) != self.nrows:
            raise ShapeError("column length mismatch")
        return Matrix(
            [r[:j] + (column[i],) + r[j + 1 :] for i, r in enumerate(self.rows)]
        )

    def submatrix(self, row_idx, col_idx):
        return Matrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions differ")
        bt = tuple(zip(*other.rows))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows]
        )

    def __mul__(self, scalar):
        return self.map(lambda e: e * scalar)

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return self + other.map(lambda e: -e)

    # group actions ------------------------------------------------------------

    def perm_rows(self, sigma):
        """sigma . A: row sigma(i) of the result is row i of A."""
        if sigma.degree != self.nrows:
            raise ShapeError("permutation degree != row count")
        inv = sigma.inverse()
        return Matrix([self.rows[inv(i + 1) - 1] for i in range(self.nrows)])

    def perm_cols(self, tau):
        """A . tau: column j of the result is column tau(j) of A."""
        if tau.degree != self.ncols:
            raise ShapeError("permutation degree != column count")
        return Matrix(
            [tuple(r[tau(j + 1) - 1] for j in range(self.ncols)) for r in self.rows]
        )

    def is_rational(self):
        return all(is_rational(e) for r in self.rows for e in r)


def symbolic_matrix(m, n, name="x"):
    """m x n matrix of Poly variables name[i,j], 1-based indices."""
    from .rings import variable

    return Matrix(
        [[variable(name, i, j) for j in range(1, n + 1)] for i in range(1, m + 1)]
    )


# exact determinants ------------------------------------------------------------


def _det_int_bareiss(rows):
    """Fraction-free (Bareiss) determinant of an integer matrix, with pivoting."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        piv = m[i][i]
        for r in range(i + 1, n):
            mri = m[r][i]
            row_r = m[r]
            row_i = m[i]
            for c in range(i + 1, n):
                row_r[c] = (row_r[c] * piv - mri * row_i[c]) // prev
            row_r[i] = 0
        prev = piv
    return sign * m[n - 1][n - 1]


def _scaled_int_rows(matrix):
    """(integer rows, row denominators): row i is scaled by dens[i]."""
    dens = []
    out = []
    for row in matrix.rows:
        fracs = [Fraction(e) for e in row]
        d = lcm(*(f.denominator for f in fracs)) if fracs else 1
        out.append([int(f * d) for f in fracs])
        dens.append(d)
    return out, dens


def det(matrix):
    """Exact determinant; Bareiss for rational entries, expansion for Poly."""
    if matrix.nrows != matrix.ncols:
        raise ShapeError("determinant of a non-square matrix")
    if matrix.nrows == 0:
        return Fraction(1)
    if matrix.is_rational():
        rows, dens = _scaled_int_rows(matrix)
        return Fraction(_det_int_bareiss(rows), prod(dens))
    return _det_expansion(matrix.rows, list(range(matrix.nrows)))


def _det_expansion(rows, live):
    # cofactor expansion on the first live column; fine at the sizes Poly needs
    if not live:
        return Fraction(1)
    j = len(rows[0]) - len(live)
    total = Poly.const(0)
    for pos, i in enumerate(live):
        e = rows[i][j]
        if e == 0:
            continue
        minor = _det_expansion(rows, live[:pos] + live[pos + 1 :])
        term = e * minor
        total = total + (term if pos % 2 == 0 else -term)
    return total


def solve_exact(rows, rhs):
    """Solve A x = b over the rationals; raises ShapeError when singular."""
    n = len(rows)
    m = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ShapeError("singular linear system")
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [e / pv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _is_symmetric(rows):
    return all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i))


def _scaled_upper_triangle(matrix):
    """(integer upper triangle, dens) of a symmetric matrix scaled by the lcm
    D of all its denominators: row r holds columns r..n-1; dens is [D] * n."""
    fracs = [[Fraction(e) for e in row[r:]] for r, row in enumerate(matrix.rows)]
    d = lcm(*(f.denominator for row in fracs for f in row))
    return [[int(f * d) for f in row] for row in fracs], [d] * len(fracs)


def leading_principal_minors(matrix):
    """All n leading principal minors, exactly.

    Rational matrices take one fraction-free (Bareiss) pass without row
    exchanges over a scaled integer matrix: by Sylvester's identity the
    pivot before step i is the (i+1)-th leading minor of that matrix, so
    dividing it by the scale of rows 0..i gives the minor of the input, in
    O(n^3) instead of one determinant per minor.

    A symmetric input is scaled by one common denominator D, so the i-th
    minor is piv / D^(i+1), and only its upper triangle is kept (row r holds
    columns r..n-1). The pass stays symmetric: after step i, entry (r, c) is
    the bordered minor of rows 0..i, r and columns 0..i, c of the scaled
    matrix, which is its transpose's (c, r) entry, so m[r][i] is read as
    m[i][r] and each row update touches columns r..n-1 only, half the work
    of the general pass. Any other input is scaled row by row and reduced in
    full.

    At the first zero pivot either pass stops and the remaining minors are
    taken one by one with the pivoting det. Poly entries take det for every
    minor.
    """
    if matrix.nrows != matrix.ncols:
        raise ShapeError("principal minors of a non-square matrix")
    n = matrix.nrows
    out = []
    if matrix.is_rational():
        upper = _is_symmetric(matrix.rows)
        m, dens = (_scaled_upper_triangle if upper else _scaled_int_rows)(matrix)
        scale = 1
        prev = 1
        for i in range(n):
            # row i holds columns i..n-1 on either pass
            row_i = m[i]
            piv = row_i[0]
            if piv == 0:
                break
            scale *= dens[i]
            out.append(Fraction(piv, scale))
            for r in range(i + 1, n):
                if upper:
                    row_r, mri, tail = m[r], row_i[r - i], row_i[r - i :]
                else:
                    row_r, mri, tail = m[r][1:], m[r][0], row_i[1:]
                m[r] = [(x * piv - mri * y) // prev for x, y in zip(row_r, tail)]
            prev = piv
    for j in range(len(out) + 1, n + 1):
        idx = range(j)
        out.append(det(matrix.submatrix(idx, idx)))
    return out
