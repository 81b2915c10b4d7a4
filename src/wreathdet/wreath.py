"""Wreath determinants, k-plexing, (n,k)-signs and orbit combinatorics.

The k-th wreath determinant of a kn x n matrix A is kdet of the matrix whose
columns are the columns of A each repeated k times:

    wrdet_k(A) = kdet(A^[k]) = sum over sigma in S_kn of
                 (-1/k)^(kn - nu(sigma)) * prod_{p,l} a_{sigma((p-1)k+l), p}.

Four independent evaluation routes are provided (the defining sum, the
standard-tableaux expansion, the Young-subgroup symmetrization, and the
monomial expansion over colorings); the test suites check they agree
everywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from . import config
from .alphadet import kdet
from .errors import CapExceededError, ShapeError
from .linalg import Matrix, _scaled_int_rows, det
from .perm import (
    Permutation,
    phi_embed,
    psi_embed,
    young_subgroup_order,
    young_subgroup_tuples0,
)
from .tableaux import Partition, standard_tableaux


def column_k_plex(A, k):
    """Each column repeated k times in place (Kronecker with a length-k row of ones)."""
    return Matrix([[e for e in row for _ in range(k)] for row in A.rows])


def row_k_plex(A, k):
    """Each row repeated k times in place."""
    return Matrix([row for row in A.rows for _ in range(k)])


def pile(*blocks):
    """Stack matrices with equal column counts on top of each other."""
    return Matrix.from_blocks([[b] for b in blocks])


def _check_wrdet_shape(A, k):
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    n = A.ncols
    if A.nrows != k * n:
        raise ShapeError(f"wreath determinant needs kn x n, got {A.nrows}x{n} with k={k}")
    return n


def det_power_coefficient(m, k):
    """[x^m] det(X)^k for an n x n matrix m of exponents, as an exact integer.

    det(X)^k sums sgn(pi_1)...sgn(pi_k) x^(P_pi_1 + ... + P_pi_k) over
    ordered k-tuples of permutations of [n], so the coefficient is 0 unless
    every row and column of m sums to k. It is computed by peeling one
    permutation matrix off at a time,

        f(M) = sum over P_pi <= M of sgn(pi) * f(M - P_pi),

    with pi enumerated row by row over the support of M. The margin j of M
    is the depth of the recursion, so M alone keys the memo, which lives for
    this call only. At j = 1 the remainder is a permutation matrix and f is
    its sign.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ShapeError("exponent matrix must be square")
    if (any(e < 0 for row in m for e in row) or any(sum(row) != k for row in m)
            or any(sum(col) != k for col in zip(*m))):
        return 0
    if n == 0 or k == 0:
        return 1
    cells = [e for row in m for e in row]
    memo = {}

    def permutation_sign():
        # cells holds a permutation matrix; count inversions of its columns
        sign, used = 1, 0
        for i in range(n):
            c = cells.index(1, i * n, i * n + n) - i * n
            if (used >> c).bit_count() & 1:
                sign = -sign
            used |= 1 << c
        return sign

    def coeff(j):
        # j < k here: margin-k matrices occur only at the top
        if j == 1:
            return permutation_sign()
        key = tuple(cells)
        val = memo.get(key)
        if val is None:
            val = memo[key] = peel(0, 0, 1, j)
        return val

    def peel(i, used, sign, j):
        # rows < i already chose the columns in `used`; sign is sgn so far
        if i == n:
            return sign * coeff(j - 1)
        total = 0
        base = i * n
        for c in range(n):
            if cells[base + c] and not used >> c & 1:
                cells[base + c] -= 1
                flip = (used >> c).bit_count() & 1
                total += peel(i + 1, used | 1 << c, -sign if flip else sign, j)
                cells[base + c] += 1
        return total

    return permutation_sign() if k == 1 else peel(0, 0, 1, k)


def _sign_from_multiplicities(m, k):
    """sgn^(k) of any coloring with multiplicity matrix m:
    prod_ab m_ab! * [x^m] det(X)^k / k^(kn) (the det-power identity at iota)."""
    weight = prod(factorial(e) for row in m for e in row)
    return Fraction(weight * det_power_coefficient(m, k), k ** (k * len(m)))


def wrdet_direct(A, k, *, cap=None):
    """wrdet as the kdet of the column-k-plexed matrix."""
    _check_wrdet_shape(A, k)
    return kdet(column_k_plex(A, k), k, cap=cap)


def tdet(A, T):
    """Product over the tableau's columns of the n x n minors of A they name.

    T has rectangular shape (k^n); column l picks rows t_{1l}, ..., t_{nl}.
    """
    shape = T.shape
    if len(set(shape.parts)) > 1:
        raise ShapeError(f"rectangular tableau required, got {shape.parts}")
    n, k = shape.depth, shape.parts[0]
    if A.nrows != k * n or A.ncols != n:
        raise ShapeError(f"matrix must be {k * n}x{n} for this tableau")
    val = Fraction(1)
    cols = list(range(n))
    for l in range(1, k + 1):
        rows = [t - 1 for t in T.column(l)]
        val = val * det(A.submatrix(rows, cols))
    return val


def tableau_matrix(T):
    """I(T): the 0/1 matrix whose t_{ij}-th row is the i-th unit row vector."""
    shape = T.shape
    n, k = shape.depth, shape.parts[0]
    rows = [[0] * n for _ in range(k * n)]
    for i, row in enumerate(T.rows):
        for t in row:
            rows[t - 1][i] = 1
    return Matrix(rows)


@lru_cache(maxsize=32)
def tableau_unit_wrdets(n, k):
    """wrdet I(T) for every standard tableau T of shape (k^n).

    I(T) is the delta matrix of the coloring t_ij -> i, so wrdet I(T) is its
    (n,k)-sign, prod m_ab! [x^m] det(X)^k / k^(kn) with m the multiplicity
    matrix of ColoringFunction.from_tableau(T).
    """
    return {
        T: _sign_from_multiplicities(ColoringFunction.from_tableau(T).multiplicity_matrix(), k)
        for T in standard_tableaux(Partition((k,) * n))
    }


@lru_cache(maxsize=32)
def tdet_duality_matrix(n, k):
    """M[p][q] = tdet_{T_p}(I(T_q)) over the canonical tableau order.

    Unit diagonal, entries in {0, +-1}, and unit upper-triangular in the
    row-word order -- but NOT the identity in general: the first off-diagonal
    entry appears at (3,2) for the pair (row-reading tableau, column-reading
    tableau), whose columns and rows share no two-element set, so no minor
    can vanish. This is the paper's route, one determinant per column of
    T_p; the tableaux expansion solves against the same matrix read off the
    tableaux (tdet_duality_columns), and this one is its oracle.
    """
    tabs = standard_tableaux(Partition((k,) * n))
    mats = [tableau_matrix(U) for U in tabs]
    return tuple(tuple(tdet(IU, T) for IU in mats) for T in tabs)


def _incidence_sign(columns, row_of):
    # det of the unit rows row_of[t], t down each column: the sign of those
    # row indices as a permutation, 0 when one repeats
    sign = 1
    for column in columns:
        used = 0
        for t in column:
            r = row_of[t]
            if used >> r & 1:
                return 0
            if (used >> r).bit_count() & 1:
                sign = -sign
            used |= 1 << r
    return sign


@lru_cache(maxsize=32)
def tdet_duality_columns(n, k):
    """tdet_duality_matrix(n, k) read off the tableaux, stored by columns:
    column q is the tuple of (p, M[p][q]) with p < q and M[p][q] != 0.

    I(T_q) puts the unit row e_i at every entry of row i of T_q, so each
    minor tdet_{T_p} takes is a permutation matrix or singular: M[p][q] is
    the product over the columns of T_p of the sign of the row indices T_q
    gives their entries, and 0 when a column repeats one. This is the
    incidence of the tabloid {T_q} in the polytabloid e_{T_p} of the Specht
    module S^(k^n), unit upper-triangular in the canonical order by the
    standard basis theorem; solve_tdet_duality relies on that, so it is
    checked here.
    """
    tabs = standard_tableaux(Partition((k,) * n))
    columns = [[T.column(l) for l in range(1, k + 1)] for T in tabs]
    out = []
    for q, U in enumerate(tabs):
        row_of = [0] * (k * n + 1)
        for i, row in enumerate(U.rows):
            for t in row:
                row_of[t] = i
        signs = [_incidence_sign(cols, row_of) for cols in columns]
        if signs[q] != 1 or any(signs[q + 1:]):
            raise ArithmeticError(f"duality matrix ({n},{k}) is not unit upper-triangular")
        out.append(tuple((p, v) for p, v in enumerate(signs[:q]) if v))
    return tuple(out)


def solve_tdet_duality(n, k, rhs):
    """The C with sum_p C_p M[p][q] = rhs[q] for every q, M =
    tdet_duality_matrix(n, k): forward substitution down its columns."""
    sol = []
    for q, column in enumerate(tdet_duality_columns(n, k)):
        sol.append(Fraction(rhs[q]) - sum(sol[p] * v for p, v in column))
    return sol


@lru_cache(maxsize=32)
def wrdet_expansion_coefficients(n, k):
    """The coefficients C with wrdet A = sum_T C_T tdet_T(A): the unique
    solution of sum_p C_p tdet_{T_p}(I(T_q)) = wrdet I(T_q) for all q."""
    tabs = standard_tableaux(Partition((k,) * n))
    units = tableau_unit_wrdets(n, k)
    return dict(zip(tabs, solve_tdet_duality(n, k, [units[T] for T in tabs])))


def wrdet_tableaux(A, k):
    """wrdet by the standard-tableaux expansion sum_T C_T * tdet_T(A)."""
    n = _check_wrdet_shape(A, k)
    total = Fraction(0)
    for T, c in wrdet_expansion_coefficients(n, k).items():
        total += c * tdet(A, T)
    return total


def wrdet_symmetric(A, k):
    """wrdet by symmetrization: k^{-kn} sum_{sigma in S_k^n} tdet_{T0}(sigma . A).

    Column l of the row-reading tableau T0 holds l, k+l, ..., (n-1)k+l, so
    tdet_{T0}(sigma . A) = prod_l det A[sigma^-1(l), sigma^-1(k+l), ...]:
    each minor takes one row from every block. The sum runs over every
    sigma, but each of the at most k^n distinct row tuples is one det.
    """
    n = _check_wrdet_shape(A, k)
    cols = list(range(n))
    minors = {}
    total = Fraction(0)
    for images in young_subgroup_tuples0(n, k):
        inv = [0] * (k * n)
        for i, v in enumerate(images):
            inv[v] = i
        term = Fraction(1)
        for l in range(k):
            rows = tuple(inv[l::k])
            minor = minors.get(rows)
            if minor is None:
                minor = minors[rows] = det(A.submatrix(rows, cols))
            term = term * minor
        total += term
    return total * Fraction(1, k ** (k * n))


def colorings(n, k):
    """All f: [kn] -> [n] with every fiber of size k, lexicographic order."""
    count = factorial(k * n) // factorial(k) ** n
    if count > config.YOUNG_SUBGROUP_CAP:
        raise CapExceededError("coloring family", count, config.YOUNG_SUBGROUP_CAP)
    word = [v for v in range(1, n + 1) for _ in range(k)]
    for values in _multiset_permutations(word):
        yield ColoringFunction(values, n, k)


def _multiset_permutations(word):
    values = sorted(set(word))
    counts = {v: word.count(v) for v in values}
    n = len(word)
    out = [0] * n

    def rec(pos):
        if pos == n:
            yield tuple(out)
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                out[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    yield from rec(0)


class ColoringFunction:
    """f: [kn] -> [n] with all fibers of size k; also viewed as the n x k
    matrix with (i, j) entry f((i-1)k + j)."""

    __slots__ = ("values", "n", "k")

    def __init__(self, values, n, k):
        values = tuple(values)
        # kn values with each of 1..n k times leave room for no other value
        if len(values) != k * n or any(values.count(j) != k for j in range(1, n + 1)):
            raise ShapeError(f"{values} is not a map [{k * n}] -> [{n}] with fibers of size {k}")
        self.values = values
        self.n = n
        self.k = k

    @staticmethod
    def iota(n, k):
        """The canonical coloring (i-1)k+j -> i (stabilized by S_k^n)."""
        return ColoringFunction(
            [i for i in range(1, n + 1) for _ in range(k)], n, k
        )

    @staticmethod
    def from_tableau(T):
        """A standard tableau of shape (k^n) as a coloring: t_{ij} -> i."""
        shape = T.shape
        n, k = shape.depth, shape.parts[0]
        values = [0] * (k * n)
        for i, row in enumerate(T.rows, start=1):
            for t in row:
                values[t - 1] = i
        return ColoringFunction(values, n, k)

    def __call__(self, i):
        return self.values[i - 1]

    def matrix_view(self):
        k = self.k
        return tuple(self.values[(i - 1) * k : i * k] for i in range(1, self.n + 1))

    def canonical_values(self):
        """Orbit representative under the right S_k^n action: rows sorted."""
        return tuple(v for row in self.matrix_view() for v in sorted(row))

    def delta_matrix(self):
        """The kn x n 0/1 matrix (delta_{f(i), j})."""
        return Matrix(
            [[1 if self.values[i] == j else 0 for j in range(1, self.n + 1)]
             for i in range(self.k * self.n)]
        )

    def g_perm(self):
        """Some g with f = iota . g (i.e. iota(g(i)) = f(i)); fibers are sent
        to blocks in increasing order."""
        slot = [0] * self.n
        images = []
        for v in self.values:
            images.append((v - 1) * self.k + 1 + slot[v - 1])
            slot[v - 1] += 1
        return Permutation(images)

    def act_right(self, w):
        """f . w: i -> f(w(i)); the right S_{kn} action."""
        return ColoringFunction(
            [self.values[w(i) - 1] for i in range(1, self.k * self.n + 1)],
            self.n,
            self.k,
        )

    def act_left(self, tau):
        """tau . f: i -> tau(f(i)); the left S_n action."""
        return ColoringFunction(
            [tau(v) for v in self.values], self.n, self.k
        )

    def orbit(self):
        """The right S_k^n orbit: all independent row rearrangements."""
        rows = self.matrix_view()
        arrangements = [
            sorted(set(itertools.permutations(row))) for row in rows
        ]
        for combo in itertools.product(*arrangements):
            yield ColoringFunction(
                [v for row in combo for v in row], self.n, self.k
            )

    def multiplicity_matrix(self):
        """m_{ij}(f) = #{l in [k] : f((i-1)k+l) = j}."""
        out = []
        for row in self.matrix_view():
            counts = [0] * self.n
            for v in row:
                counts[v - 1] += 1
            out.append(tuple(counts))
        return tuple(out)

    def column_perms(self):
        """When every matrix-view column is a permutation of [n], the tuple of
        those permutations (the omega-preimage); otherwise None."""
        view = self.matrix_view()
        perms = []
        for j in range(self.k):
            col = [view[i][j] for i in range(self.n)]
            if sorted(col) != list(range(1, self.n + 1)):
                return None
            perms.append(Permutation(col))
        return tuple(perms)

    def __eq__(self, other):
        return (
            isinstance(other, ColoringFunction)
            and (self.values, self.n, self.k) == (other.values, other.n, other.k)
        )

    def __hash__(self):
        return hash((self.values, self.n, self.k))

    def __repr__(self):
        return f"ColoringFunction({self.values}, n={self.n}, k={self.k})"


@lru_cache(maxsize=100_000)
def _nk_sign_cached(canon_values, n, k):
    return _sign_from_multiplicities(ColoringFunction(canon_values, n, k).multiplicity_matrix(), k)


def nk_sign(f):
    """sgn^(k)(f) = wrdet of the 0/1 matrix (delta_{f(i),j}); constant on
    right S_k^n orbits.

    With m the multiplicity matrix of f, sgn^(k)(f) = prod m_ab! [x^m]
    det(X)^k / k^(kn): the det-power identity at the canonical coloring,
    read coefficient by coefficient (see det_power_coefficient).
    """
    return _nk_sign_cached(f.canonical_values(), f.n, f.k)


def wrdet_monomial(A, k):
    """wrdet by the monomial expansion sum_f sgn^(k)(f) prod_i a_{i, f(i)}.

    A rational A is first scaled to integers row by row (row i by the lcm
    d_i of its denominators), so each coloring's product is a plain int and
    the sum is divided by prod d_i once.
    """
    n = _check_wrdet_shape(A, k)
    if A.is_rational():
        rows, dens = _scaled_int_rows(A)
    else:
        rows, dens = A.rows, [1]
    total = Fraction(0)
    for f in colorings(n, k):
        term = 1
        for row, v in zip(rows, f.values):
            e = row[v - 1]
            if e == 0:
                term = 0
                break
            term = term * e
        if term:
            total += nk_sign(f) * term
    return total * Fraction(1, prod(dens))


def orbit_data(f):
    """(orbit size, |orbit ∩ column-regular colorings|, base sign).

    The orbit size comes from the multinomial formula k!^n / prod m_{ij}!;
    the intersection with the column-regular family (each matrix-view column
    a permutation) is counted by enumeration, and the base sign is the
    product of the column-permutation signs of any member (None when the
    intersection is empty, in which case sgn^(k)(f) must vanish).
    """
    orbit_size = factorial(f.k) ** f.n
    for row in f.multiplicity_matrix():
        for m in row:
            orbit_size //= factorial(m)
    intersection = 0
    base_sign = None
    for g in f.orbit():
        perms = g.column_perms()
        if perms is not None:
            intersection += 1
            sign = 1
            for p in perms:
                sign *= p.sign()
            if base_sign is None:
                base_sign = sign
    return orbit_size, intersection, base_sign


def det_power_identity_check(f, A):
    """sgn^(k)(f) det(A)^k == sum_h sgn^(k)(h) prod_i a_{f(i), h(i)}?"""
    n, k = f.n, f.k
    if A.nrows != n or A.ncols != n:
        raise ShapeError(f"matrix must be {n}x{n}")
    lhs = nk_sign(f) * det(A) ** k
    rhs = Fraction(0)
    for h in colorings(n, k):
        prod = Fraction(1)
        for i in range(k * n):
            prod *= A[f.values[i] - 1, h.values[i] - 1]
        rhs += nk_sign(h) * prod
    return lhs == rhs


def pf_coefficient(f):
    """Coefficient of prod_{i,j} x_{ij} in the row-symmetrized monomial
    P_f(x) = (k!)^{-n} sum_{sigma in S_k^n} prod_{i,j} x_{f((i-1)k+j), sigma_i(j)}.

    Equals |orbit ∩ column-regular| / |orbit|.
    """
    n, k = f.n, f.k
    view = f.matrix_view()
    count = 0
    for combo in itertools.product(itertools.permutations(range(1, k + 1)), repeat=n):
        pairs = set()
        ok = True
        for i in range(n):
            for j in range(k):
                pair = (view[i][j], combo[i][j])
                if pair in pairs:
                    ok = False
                    break
                pairs.add(pair)
            if not ok:
                break
        if ok:
            count += 1
    return Fraction(count, factorial(k) ** n)


class WreathGroupElement:
    """An element of the wreath product S_k wr S_n acting on [kn]: n block
    permutations in S_k followed by a block-moving permutation in S_n."""

    __slots__ = ("block_perms", "outer")

    def __init__(self, block_perms, outer):
        block_perms = tuple(block_perms)
        k = block_perms[0].degree if block_perms else 1
        if any(p.degree != k for p in block_perms):
            raise ValueError("block permutations must share one degree")
        if outer.degree != len(block_perms):
            raise ValueError("outer degree must equal the number of blocks")
        self.block_perms = block_perms
        self.outer = outer

    @property
    def n(self):
        return self.outer.degree

    @property
    def k(self):
        return self.block_perms[0].degree

    def embed(self):
        """The corresponding permutation of [kn]."""
        return phi_embed(self.block_perms) * psi_embed(self.outer, self.k)

    def character(self):
        """The sign character of the outer part."""
        return self.outer.sign()

    def __repr__(self):
        return f"WreathGroupElement({self.block_perms}, {self.outer})"


def wreath_group_elements(n, k):
    """All (k!)^n n! elements of S_k wr S_n."""
    order = young_subgroup_order(n, k) * factorial(n)
    if order > config.YOUNG_SUBGROUP_CAP:
        raise CapExceededError("wreath product", order, config.YOUNG_SUBGROUP_CAP)
    blocks = [list(itertools.permutations(range(1, k + 1))) for _ in range(n)]
    for combo in itertools.product(*blocks):
        sigmas = tuple(Permutation(c) for c in combo)
        for tau_images in itertools.permutations(range(1, n + 1)):
            yield WreathGroupElement(sigmas, Permutation(tau_images))
