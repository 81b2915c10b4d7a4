"""Alpha-determinants over exact rings.

adet(A, alpha) = sum over w in S_n of alpha^(n - nu(w)) * a_{w(1),1} ... a_{w(n),n}

with nu the cycle count. alpha = -1 gives the determinant, alpha = +1 the
permanent; kdet is the specialization alpha = -1/k. alpha may be an exact
rational or a Poly (e.g. rings.ALPHA); entries may be rationals or Polys.

Three evaluators ship:

- adet_dp, the production route for rational matrices: a sum over cycle
  covers (a permutation is a set partition of [n] with one cyclic order on
  each block), in O(3^n n) ring operations.
- adet_sum, the defining sum over all n! permutations. It is an oracle, and
  the route adet takes for matrices with Poly entries up to n = 8.
- adet_laplace, a one-column expansion that removes a column and substitutes
  rows. It is an oracle independent of both, and adet's route for matrices
  with Poly entries above n = 8.

Their agreement is part of the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import config
from ._kernels import nu_grouped_products
from .errors import CapExceededError, ShapeError
from .linalg import Matrix
from .rings import Poly, is_rational


def singular_order(alpha):
    """k when alpha == -1/k for a positive integer k, else None."""
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if isinstance(alpha, Fraction) and alpha.numerator == -1:
        return alpha.denominator
    return None


def _require_square(A):
    if A.nrows != A.ncols:
        raise ShapeError(f"adet needs a square matrix, got {A.nrows}x{A.ncols}")
    return A.nrows


def adet(A, alpha, method="auto", *, cap=None):
    """The alpha-determinant of a square matrix, exactly.

    method "auto" takes the cycle-cover DP for rational matrices at any n
    (subject to cap), and for matrices with Poly entries the defining sum up
    to n = 8 and the Laplace expansion above. "dp", "sum" and "laplace" force
    one evaluator.
    """
    n = _require_square(A)
    if method == "auto":
        if A.is_rational():
            method = "dp"
        else:
            method = "sum" if n <= 8 else "laplace"
    if method == "dp":
        return adet_dp(A, alpha, cap=cap)
    if method == "sum":
        return adet_sum(A, alpha, cap=cap)
    if method == "laplace":
        return adet_laplace(A, alpha, cap=cap)
    raise ValueError(f"unknown method {method!r}")


def adet_sum(A, alpha, *, cap=None):
    """adet by the defining sum over S_n."""
    n = _require_square(A)
    cap = config.FACTORIAL_CAP if cap is None else cap
    if n > cap:
        raise CapExceededError("adet degree", n, cap)
    if n == 0:
        return Fraction(1)
    if A.is_rational():
        return _adet_sum_rational(A, alpha, n)
    return _adet_sum_ring(A, alpha, n)


def _integer_rows(A, n):
    # clear denominators column by column (adet is multilinear in columns);
    # returns the integer rows and the product of the column scales
    scale = 1
    cols = []
    for j in range(n):
        col = [Fraction(A[i, j]) for i in range(n)]
        d = lcm(*(c.denominator for c in col))
        scale *= d
        cols.append([int(c * d) for c in col])
    return [[cols[j][i] for j in range(n)] for i in range(n)], scale


def _collect(sums, alpha, n):
    # sum over nu of sums[nu] * alpha^(n - nu)
    total = 0
    for nu, s in enumerate(sums):
        if s:
            total = total + s * alpha ** (n - nu)
    return total


def _adet_sum_rational(A, alpha, n):
    # run the integer kernel grouped by cycle count, then divide once
    rows, scale = _integer_rows(A, n)
    return _collect(nu_grouped_products(rows, n), alpha, n) * Fraction(1, scale)


def _adet_sum_ring(A, alpha, n):
    # generic ring path (Poly entries): column recursion with zero pruning
    alpha_pows = [1]
    for _ in range(n):
        alpha_pows.append(alpha_pows[-1] * alpha)
    rows = A.rows
    total = Poly.const(0)
    choice = [0] * n

    def rec(col, prod, used):
        nonlocal total
        if col == n:
            seen = 0
            c = 0
            for s in range(n):
                if not (seen >> s) & 1:
                    c += 1
                    t = s
                    while not (seen >> t) & 1:
                        seen |= 1 << t
                        t = choice[t]
            total = total + prod * alpha_pows[n - c]
            return
        for r in range(n):
            if not (used >> r) & 1:
                e = rows[r][col]
                if e == 0:
                    continue
                choice[col] = r
                rec(col + 1, prod * e, used | (1 << r))

    rec(0, Poly.const(1), 0)
    return total


def adet_dp(A, alpha, *, cap=None):
    """adet as a sum over cycle covers, in O(3^n n) ring operations.

    Rational matrices are scaled to integers column by column, as in the
    defining sum; Poly entries go through the same DP unscaled. The degree
    cap is the one adet_sum enforces.
    """
    n = _require_square(A)
    cap = config.FACTORIAL_CAP if cap is None else cap
    if n > cap:
        raise CapExceededError("adet degree", n, cap)
    if n == 0:
        return Fraction(1)
    if A.is_rational():
        rows, scale = _integer_rows(A, n)
        return _collect(_cycle_cover_sums(rows, n), alpha, n) * Fraction(1, scale)
    return Poly.const(0) + _collect(_cycle_cover_sums(A.rows, n), alpha, n)


def _cycle_cover_sums(rows, n):
    """sums[c] = sum over n-permutations w with c cycles of prod_i rows[w(i)][i].

    The contract of _kernels.nu_grouped_products, without enumerating S_n.
    A permutation is a set partition of [n] with a cyclic order on each
    block, so with cyc[B] the summed weight of the cyclic permutations of the
    block B (bitmask), sums[c] is the sum over partitions of [n] into c
    blocks of the product of cyc over the blocks.

    cyc comes from a Held-Karp path DP rooted at min(B), where the step
    i -> w(i) weighs rows[w(i)][i], in O(2^n n^2). The partition sum is a
    subset convolution graded by block count, in O(3^n n): the block holding
    min(S) is split off first, so each partition is counted once.
    """
    if n == 0:
        return [1]
    size = 1 << n
    cyc = [0] * size
    for r in range(n):
        rbit = 1 << r
        higher = [(w, 1 << w) for w in range(r + 1, n)]
        back = rows[r]
        # paths[S][v]: weight of the paths r -> ... -> v visiting exactly S
        paths = {rbit: {r: 1}}
        for t in range(1 << (n - 1 - r)):
            S = (t << (r + 1)) | rbit
            ends = paths.pop(S, None)
            if ends is None:
                continue
            closed = 0
            for v, x in ends.items():
                e = back[v]
                if e:
                    closed += x * e
                for w, wbit in higher:
                    if S & wbit:
                        continue
                    e = rows[w][v]
                    if e:
                        nxt = paths.get(S | wbit)
                        if nxt is None:
                            paths[S | wbit] = {w: x * e}
                        else:
                            nxt[w] = nxt.get(w, 0) + x * e
            cyc[S] = closed

    # graded[S][c]: sum over partitions of S into c blocks
    graded = [None] * size
    graded[0] = [1]

    def split(S):
        low = S & -S
        rest = S ^ low
        out = [0] * (S.bit_count() + 1)
        U = rest
        while True:
            c = cyc[U | low]
            if c:
                for j, f in enumerate(graded[rest ^ U]):
                    if f:
                        out[j + 1] += c * f
            if not U:
                return out
            U = (U - 1) & rest

    # only the full set and the sets without vertex 0 are ever split off
    for S in range(2, size, 2):
        graded[S] = split(S)
    return split(size - 1)


def adet_laplace(A, alpha, q=1, *, cap=None):
    """adet by the one-column expansion at column q (1-based).

    The expansion removes column q and row q; the term for row p carries the
    weight alpha^(1 - delta_{pq}) times the entry a_{pq}, and when p != q the
    surviving row p is overwritten with row q's surviving entries. Recursive
    subexpansions always use the first remaining column, with memoization on
    the tuple of row contents (replacements cascade, so the content tuple is
    the correct key). Degrees above cap (default FACTORIAL_CAP) raise
    CapExceededError, as in the other evaluators.
    """
    n = _require_square(A)
    cap = config.FACTORIAL_CAP if cap is None else cap
    if n > cap:
        raise CapExceededError("adet degree", n, cap)
    if n == 0:
        return Fraction(1)
    if not 1 <= q <= n:
        raise ShapeError(f"expansion column {q} out of range 1..{n}")
    rows = A.rows
    memo = {}

    def value(row_ids, col_off, cols):
        # square submatrix: entry (u, v) = rows[row_ids[u]][cols[col_off + v]]
        m = len(row_ids)
        if m == 0:
            return Fraction(1)
        key = row_ids
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = 0
        c0 = cols[col_off]
        for p in range(m):
            x = rows[row_ids[p]][c0]
            if x == 0:
                continue
            if p == 0:
                sub = row_ids[1:]
                term = x * value(sub, col_off + 1, cols)
            else:
                sub = tuple(
                    row_ids[0] if u == p else row_ids[u] for u in range(1, m)
                )
                term = alpha * x * value(sub, col_off + 1, cols)
            total = total + term
        memo[key] = total
        return total

    q0 = q - 1
    cols = tuple(j for j in range(n) if j != q0)
    total = 0
    for p in range(n):
        x = rows[p][q0]
        if x == 0:
            continue
        if p == q0:
            sub = tuple(u for u in range(n) if u != q0)
            term = x * value(sub, 0, cols)
        else:
            sub = tuple(q0 if u == p else u for u in range(n) if u != q0)
            term = alpha * x * value(sub, 0, cols)
        total = total + term
    return total if not isinstance(total, int) else Fraction(total)


def kdet(A, k, method="auto", *, cap=None):
    """adet at alpha = -1/k, exactly."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return adet(A, Fraction(-1, k), method, cap=cap)


def block_adet_check(A11, A12, A22, alpha):
    """adet of [[A11, A12], [0, A22]] equals adet(A11) * adet(A22)?"""
    n, m = A11.nrows, A22.nrows
    if A11.ncols != n or A22.ncols != m:
        raise ShapeError("diagonal blocks must be square")
    if A12.nrows != n or A12.ncols != m:
        raise ShapeError(f"off-diagonal block must be {n}x{m}")
    assembled = Matrix.from_blocks([[A11, A12], [Matrix.zero(m, n), A22]])
    lhs = adet_sum(assembled, alpha)
    rhs = adet_sum(A11, alpha) * adet_sum(A22, alpha)
    return lhs == rhs
