"""Partitions, Young tableaux, Kostka numbers and symmetric-group characters.

Standard tableaux are enumerated in lexicographic order on the row-reading
word; this order is canonical throughout the library (it also fixes the
row/column order of the spherical Gram matrices). Kostka numbers are counted
by direct semistandard backtracking so they stay an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import config
from .errors import CapExceededError, ShapeError
from .perm import Permutation


class Partition:
    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts if p != 0)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    @property
    def depth(self):
        return len(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        other = other.parts if isinstance(other, Partition) else tuple(other)
        return self.parts == other

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def conjugate(self):
        if not self.parts:
            return Partition(())
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def cells(self):
        """(row, col) 1-based, row-major."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def hook_length(self, i, j):
        arm = self.parts[i - 1] - j
        leg = sum(1 for p in self.parts[i:] if p >= j)
        return arm + leg + 1

    def padded(self, length):
        if length < len(self.parts):
            raise ValueError("padding shorter than the partition")
        return self.parts + (0,) * (length - len(self.parts))


def partitions(n, max_part=None):
    """All partitions of n, descending lexicographic order."""
    max_part = n if max_part is None else max_part
    if n == 0:
        yield Partition(())
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield Partition((first,) + rest.parts)


def hook_f(shape):
    """f^lambda: the number of standard tableaux, by the hook-length formula."""
    n = shape.size
    val = factorial(n)
    for i, j in shape.cells():
        val, rem = divmod(val, shape.hook_length(i, j))
        assert rem == 0
    return val if n else 1


class StandardTableau:
    __slots__ = ("rows", "shape")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        shape = Partition(len(r) for r in rows)
        n = shape.size
        if sorted(v for r in rows for v in r) != list(range(1, n + 1)):
            raise ValueError("entries must be 1..N, each once")
        for r in rows:
            if any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
                raise ValueError("rows must increase strictly")
        cols = shape.conjugate()
        for j in range(len(cols)):
            col = [rows[i][j] for i in range(cols[j])]
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise ValueError("columns must increase strictly")
        self.rows = rows
        self.shape = shape

    @property
    def size(self):
        return self.shape.size

    def row_word(self):
        return tuple(v for r in self.rows for v in r)

    def column(self, j):
        """Entries of column j (1-based), top to bottom."""
        return tuple(r[j - 1] for r in self.rows if len(r) >= j)

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"StandardTableau{self.rows}"


def standard_tableaux(shape):
    """All standard tableaux of the given shape, row-word lexicographic."""
    n = shape.size
    if n > config.TABLEAU_CELL_CAP:
        raise CapExceededError("tableau size", n, config.TABLEAU_CELL_CAP)
    if n == 0:
        return [StandardTableau(())]
    ncols = shape.parts[0] if shape.parts else 0
    grid = [[0] * p for p in shape.parts]
    fill = [0] * len(shape.parts)  # cells filled so far in each row
    out = []

    def place(v):
        if v > n:
            out.append(StandardTableau(tuple(tuple(r) for r in grid)))
            return
        for i, p in enumerate(shape.parts):
            j = fill[i]
            if j < p and (i == 0 or fill[i - 1] > j):
                grid[i][j] = v
                fill[i] += 1
                place(v + 1)
                fill[i] -= 1

    place(1)
    out.sort(key=StandardTableau.row_word)
    return out


def row_reading_tableau(n, k):
    """The (k^n) tableau whose (i, j) entry is (i-1)k + j."""
    return StandardTableau(
        [tuple((i - 1) * k + j for j in range(1, k + 1)) for i in range(1, n + 1)]
    )


def g_of_T(T):
    """The permutation in S_{kn} with g((i-1)k+j) = t_{ij}, for shape (k^n).

    g(T) carries the row-reading tableau to T.
    """
    shape = T.shape
    if len(set(shape.parts)) > 1:
        raise ShapeError(f"rectangular shape required, got {shape.parts}")
    return Permutation(v for row in T.rows for v in row)


def _count_ssyt(shape, allowed_of):
    """Count semistandard fillings; allowed_of(v) = remaining budget for v."""
    parts = shape.parts
    nrows = len(parts)
    if nrows == 0:
        return 1
    grid = [[0] * p for p in parts]
    budget = allowed_of

    def place(idx, cells):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        lo = grid[i][j - 1] if j > 0 else 1
        hi = len(budget)
        total = 0
        for v in range(lo, hi + 1):
            if budget[v - 1] == 0:
                continue
            if i > 0 and grid[i - 1][j] >= v:
                continue
            grid[i][j] = v
            budget[v - 1] -= 1
            total += place(idx + 1, cells)
            budget[v - 1] += 1
        return total

    cells = [(i, j) for i in range(nrows) for j in range(parts[i])]
    return place(0, cells)


def kostka(lam, mu):
    """K_{lambda, mu}: semistandard tableaux of shape lambda and weight mu.

    mu may be any composition (weight vector); the count only depends on the
    multiset of its parts.
    """
    mu = tuple(mu)
    if lam.size != sum(mu):
        raise ShapeError(f"|lambda| = {lam.size} != |mu| = {sum(mu)}")
    return _count_ssyt(lam, list(mu))


def count_semistandard(shape, max_entry):
    """|SSTab_{max_entry}(shape)|: semistandard fillings with entries <= max_entry."""
    return _count_ssyt(shape, [shape.size] * max_entry)


def content_polynomial(lam, alpha):
    """prod over cells (i, j) of (1 + (j - i) * alpha)."""
    val = alpha ** 0  # one of the right ring
    for i, j in lam.cells():
        val = val * (1 + (j - i) * alpha)
    return val


@lru_cache(maxsize=None)
def _mn(lam_parts, rho_parts):
    if not rho_parts:
        return 1 if not lam_parts else 0
    r, rest = rho_parts[0], rho_parts[1:]
    ell = len(lam_parts)
    beta = [lam_parts[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for b2 in beta if nb < b2 < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        m = len(newbeta)
        newlam = tuple(
            x for x in (newbeta[j] - (m - 1 - j) for j in range(m)) if x > 0
        )
        total += (-1) ** height * _mn(newlam, rest)
    return total


def mn_character(lam, class_type):
    """chi^lambda on the conjugacy class of cycle type class_type, recursively
    peeling border strips."""
    if lam.size != class_type.size:
        raise ShapeError("character and class must partition the same N")
    if lam.size > 12:
        raise CapExceededError("character degree", lam.size, 12)
    return _mn(lam.parts, class_type.parts)


def class_size(class_type):
    """Size of the S_N conjugacy class with the given cycle type."""
    n = class_type.size
    denom = 1
    mult = {}
    for p in class_type:
        mult[p] = mult.get(p, 0) + 1
    for length, m in mult.items():
        denom *= length**m * factorial(m)
    return factorial(n) // denom


def frobenius_weight(lam, alpha):
    """(f^lambda / N!) * f_lambda(alpha) as an exact scalar."""
    return content_polynomial(lam, alpha) * Fraction(hook_f(lam), factorial(lam.size))
