"""Zonal spherical functions of Young subgroups and the Gram matrix test.

phi_{n,k}(g) is the S_k^n-biinvariant function on S_{kn} given by the
normalized kdet of the row-permuted block-ones matrix:

    phi_{n,k}(g) = kdet(g . 1_k^{+n}) / kdet(1_k^{+n})
                 = (k^{kn} / (k!)^n) sum_{sigma in S_k^n} (-1/k)^{kn - nu(g^{-1} sigma)}.

It is constant on S_k^n double cosets, which the transport matrix m of g
classifies: an n x n matrix of nonnegative integers whose rows and columns
all sum to k. As a function of m it has the closed form

    phi_{n,k}(g) = (prod_{a,b} m_ab!) / (k!)^n * [x^m] det(X)^k,

X the generic n x n matrix, which `phi` evaluates. Derivation: Vere-Jones'
generating function (Linear Algebra Appl. 111, 1988) gives
adet_alpha(B) = [x_1 ... x_N] det(I - alpha diag(x) B)^(-1/alpha). At
alpha = -1/k take B = g . 1_k^{+n} = U V^T, where U and V are the kn x n
block-membership matrices of the rows and the columns. Sylvester's
determinant identity det(I + diag(x) U V^T / k) = det(I + Y / k) reduces the
kn x kn determinant to the n x n matrix Y = V^T diag(x) U, whose (a, b) entry
is the sum of the m_ab variables of the points that g carries between blocks
a and b. Since Y is linear in x, the degree-kn part of det(I + Y/k)^k is
k^(-kn) det(Y)^k, and its multilinear coefficient is prod m_ab! [y^m] det(Y)^k.
Dividing by kdet(1_k^{+n}) = (k!/k^k)^n gives the closed form. Read
backwards, it is the paper's det-power identity at the canonical coloring.

The Young-subgroup sum is kept as the oracle `phi_young_sum`.

The Gram-type matrix Xi_{n,k} = (phi(g(T)^{-1} g(S)))_{S,T} over rectangular
standard tableaux is symmetric with unit diagonal. Its leading principal
minors have a closed form. For a standard tableau T let r(v) be the row of
entry v and c(v) = column - row its content, and put

    d_T = prod over a < b with r(a) > r(b) of (1 - 1/(c(b) - c(a))^2).

The i-th leading minor of Xi in the canonical tableau order is
d_{T_1} ... d_{T_i}; the d_T are the norms of Young's seminormal basis
(G. James and G. E. Murphy, "The determinant of the Gram matrix for a
Specht module", J. Algebra 59, 1979; G. E. Murphy, "A new construction of
Young's seminormal representation of the symmetric groups", J. Algebra 69,
1981). If a < b and r(a) > r(b), standardness puts b strictly right of a's
column, so c(b) - c(a) >= 2 and every factor lies in [3/4, 1): Xi is
positive definite, and every prime of det Xi is at most n + k.

What is proved and what is checked. The bound on the factors, and with it
the positivity and the prime bound given the minors, is the argument above.
That the minors of Xi are these products is not proved here; it is checked
exactly against fraction-free elimination (`leading_principal_minors`): by
the tier-1 tests at every pair of xi_scan(12), by `verify` at (2,2), (3,2),
(2,3), (4,2) and (2,4), and by slow tests at the order-429/462 pairs (7,2),
(2,7), (4,3) and (3,4).

`xi_report` and `xi_scan` take the minors from the closed form
(`xi_pivots`); the elimination route, `xi_positive_definite`, is the oracle.
Everything is exact rational arithmetic, never floating-point eigenvalues.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import factorial, prod
from operator import mul
from time import perf_counter

from . import config
from .alphadet import kdet
from .errors import CapExceededError, ShapeError
from .linalg import Matrix, det, leading_principal_minors, symbolic_matrix
from .perm import young_subgroup_histogram, young_subgroup_order, young_subgroup_tuples0
from .rings import Poly
from .tableaux import (
    Partition,
    count_semistandard,
    g_of_T,
    mn_character,
    partitions,
    standard_tableaux,
)
from .wreath import column_k_plex, det_power_coefficient

log = logging.getLogger(__name__)


def phi(g, n, k):
    """phi_{n,k}(g), exactly, by the closed form of the module docstring:
    (prod m_ab!) / (k!)^n * [x^m] det(X)^k with m the transport matrix of g.

    Its cost depends on m alone and does not grow with (k!)^n.
    """
    if g.degree != k * n:
        raise ShapeError(f"permutation degree {g.degree} != kn = {k * n}")
    m = transport_matrix(g, n, k)
    weight = prod(factorial(e) for row in m for e in row)
    return Fraction(weight * det_power_coefficient(m, k), young_subgroup_order(n, k))


def phi_young_sum(g, n, k):
    """Oracle: phi_{n,k}(g) as the defining sum over the (k!)^n elements of
    S_k^n; raises CapExceededError past the Young-subgroup cap."""
    if g.degree != k * n:
        raise ShapeError(f"permutation degree {g.degree} != kn = {k * n}")
    counts = young_subgroup_histogram(g.inverse().zero_based(), n, k)
    # (k^{kn}/(k!)^n) * sum counts[v] (-1/k)^{kn-v}  ==  numerator / (k!)^n
    num = sum(cnt * (-1) ** (k * n - nu) * k**nu for nu, cnt in enumerate(counts))
    return Fraction(num, young_subgroup_order(n, k))


def transport_matrix(g, n, k):
    """Block-transport invariant: entry (i, j) counts how much of block j
    lands in block i. Classifies the S_k^n double coset of g."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        for l in range(k):
            target = (g((j * k) + l + 1) - 1) // k
            m[target][j] += 1
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class XiMatrix:
    n: int
    k: int
    tableaux: tuple
    gram: Matrix

    @property
    def order(self):
        return len(self.tableaux)


def xi_matrix(n, k, *, order_cap=None):
    """The Gram matrix of phi_{n,k} over the canonical tableau order.

    phi is constant on S_k^n double cosets, which the transport matrix
    classifies, so entries repeat heavily; each distinct transport matrix
    takes one phi call. The transport matrix of g(T)^{-1} g(S) needs no
    permutation product: g(S) carries block b onto row b of S and g(T)^{-1}
    carries row a of T back onto block a, so its (a, b) entry is
    |row_a(T) intersect row_b(S)|, read here as the popcount of two row
    bitmasks.
    """
    order_cap = config.XI_ORDER_CAP if order_cap is None else order_cap
    tabs = standard_tableaux(Partition((k,) * n))
    if len(tabs) > order_cap:
        raise CapExceededError("Gram matrix order", len(tabs), order_cap)
    gs = [g_of_T(T) for T in tabs]
    ginv = [g.inverse() for g in gs]
    row_sets = [[sum(1 << v for v in row) for row in T.rows] for T in tabs]
    cache = {}
    rows = []
    for i, rows_s in enumerate(row_sets):
        row = [rows[j][i] for j in range(i)]
        for j in range(i, len(tabs)):
            key = tuple([(s & t).bit_count() for t in row_sets[j] for s in rows_s])
            val = cache.get(key)
            if val is None:
                val = cache[key] = phi(ginv[j] * gs[i], n, k)
            row.append(val)
        rows.append(row)
    return XiMatrix(n=n, k=k, tableaux=tuple(tabs), gram=Matrix(rows))


def xi_det(n, k, **kwargs):
    """Exact determinant of Xi_{n,k} (fraction-free elimination)."""
    return det(xi_matrix(n, k, **kwargs).gram)


def xi_positive_definite(n, k, **kwargs):
    """Oracle: (verdict, leading principal minors) by the exact Sylvester
    criterion on the built Gram matrix."""
    minors = leading_principal_minors(xi_matrix(n, k, **kwargs).gram)
    return all(m > 0 for m in minors), minors


def seminormal_norm(T):
    """d_T of the module docstring: the product of 1 - 1/(c(b) - c(a))^2 over
    the pairs a < b with a in a lower row than b."""
    size = sum(len(row) for row in T.rows)
    rows = [0] * (size + 1)
    contents = [0] * (size + 1)
    for r, row in enumerate(T.rows):
        for col, v in enumerate(row):
            rows[v] = r
            contents[v] = col - r
    num = den = 1
    for b in range(2, size + 1):
        rb, cb = rows[b], contents[b]
        for a in range(1, b):
            if rows[a] > rb:
                gap = cb - contents[a]
                num *= gap * gap - 1
                den *= gap * gap
    return Fraction(num, den)


def xi_pivots(n, k):
    """d_T for each standard tableau of shape (k^n), in canonical order: the
    ratios of consecutive leading principal minors of Xi_{n,k}."""
    return [seminormal_norm(T) for T in standard_tableaux(Partition((k,) * n))]


def xi_report(n, k, **kwargs):
    """Machine-readable record for one (n, k) pair. The Gram matrix is built
    (through the module global, so callers can watch it) and its leading
    minors are the running products of the seminormal norms of its tableaux."""
    start = perf_counter()
    xi = xi_matrix(n, k, **kwargs)
    built = perf_counter()
    minors = list(accumulate((seminormal_norm(T) for T in xi.tableaux), mul))
    log.info(
        "xi (%d,%d): order %d, build %.3f s, pivots %.3f s",
        n, k, xi.order, built - start, perf_counter() - built,
    )
    return {
        "n": n,
        "k": k,
        "order": xi.order,
        "det": str(minors[-1]),
        "leading_minors": [str(m) for m in minors],
        "positive_definite": all(m > 0 for m in minors),
    }


def xi_scan(max_kn=10, *, order_cap=None):
    """Reports for every (n, k) with n, k >= 2 and kn <= max_kn.

    Pairs whose Gram order exceeds the order cap are reported as skipped
    rather than silently dropped. Every seminormal norm is a product of
    factors in [3/4, 1) (module docstring), so a report with
    positive_definite == False signals an internal bug; callers should treat
    it as a loud failure.
    """
    if max_kn > 12:
        raise CapExceededError("scan degree kn", max_kn, 12)
    order_cap = config.XI_ORDER_CAP if order_cap is None else order_cap
    out = []
    for kn in range(4, max_kn + 1):
        for n in range(2, kn + 1):
            if kn % n:
                continue
            k = kn // n
            if k < 2:
                continue
            order = len(standard_tableaux(Partition((k,) * n)))
            if order > order_cap:
                out.append(
                    {"n": n, "k": k, "order": order, "skipped": True,
                     "reason": f"order {order} exceeds cap {order_cap}"}
                )
                continue
            out.append(xi_report(n, k, order_cap=order_cap))
    return out


# --- the matrix-element expression of phi -----------------------------------


@lru_cache(maxsize=8)
def wrdet_symbolic(n, k):
    """wrdet of the generic kn x n matrix of variables x[i,j], as a Poly."""
    X = symbolic_matrix(k * n, n)
    return kdet(column_k_plex(X, k), k, method="sum")


def _poly_inner(p, q):
    """Monomial-orthogonal pairing: sum of products of matching coefficients."""
    total = Fraction(0)
    small, big = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    for mono, c in small.items():
        d = big.get(mono)
        if d is not None:
            total += c * d
    return total


def _row_relabel(poly, g):
    """The action g . f with (g . f)(X) = f(g^{-1} . X): renames x[i,j] -> x[g(i),j]."""
    varmap = {}
    for v in poly.variables():
        name, i, j = v
        varmap[v] = (name, g(i), j)
    return poly.relabel(varmap)


def phi_matrix_element_check(g, n, k):
    """Verify both symbolic expressions of phi at g: the matrix-element form
    <g.W, W> / <W, W> and the projector identity P(g.W) = phi(g) W, with W
    the symbolic wreath determinant."""
    W = wrdet_symbolic(n, k)
    gW = _row_relabel(W, g)
    value = phi(g, n, k)
    if _poly_inner(gW, W) != value * _poly_inner(W, W):
        return False
    projected = Poly.const(0)
    count = 0
    for images0 in young_subgroup_tuples0(n, k):
        sigma_map = {i + 1: images0[i] + 1 for i in range(k * n)}
        varmap = {v: (v[0], sigma_map[v[1]], v[2]) for v in gW.variables()}
        projected = projected + gW.relabel(varmap)
        count += 1
    return projected == (value * count) * W


# --- character-theoretic decomposition ---------------------------------------


def _cycle_type0(images):
    n = len(images)
    seen = [False] * n
    lens = []
    for s in range(n):
        if not seen[s]:
            t = s
            length = 0
            while not seen[t]:
                seen[t] = True
                length += 1
                t = images[t]
            lens.append(length)
    return tuple(sorted(lens, reverse=True))


@lru_cache(maxsize=32)
def _spherical_class_table(N, k):
    """Cycle type -> sum over lambda of |SSTab_k(lambda')| chi^lambda(type)."""
    mults = [(lam, count_semistandard(lam.conjugate(), k)) for lam in partitions(N)]
    mults = [(lam, mult) for lam, mult in mults if mult]
    return {
        rho.parts: sum(mult * mn_character(lam, rho) for lam, mult in mults)
        for rho in partitions(N)
    }


def phi_decomposition_check(g, n, k):
    """phi_{n,k}(g) == sum over lambda of |SSTab_k(lambda')| phi^lambda(g),
    where phi^lambda(g) = (k!)^{-n} sum_{sigma} chi^lambda(g^{-1} sigma).

    The sum over lambda depends on g^{-1} sigma only through its cycle type,
    so it is tabulated once per (kn, k) and weighted by the cycle-type
    histogram of g^{-1} sigma over S_k^n.
    """
    N = k * n
    ginv0 = g.inverse().zero_based()
    type_hist = {}
    for sig in young_subgroup_tuples0(n, k):
        t = _cycle_type0(tuple(ginv0[sig[i]] for i in range(N)))
        type_hist[t] = type_hist.get(t, 0) + 1
    table = _spherical_class_table(N, k)
    total = sum(cnt * table[t] for t, cnt in type_hist.items())
    return Fraction(total, factorial(k) ** n) == phi(g, n, k)


def kdet_weight_class_identity(N, k):
    """(-1/k)^{N - nu} == sum_lambda (|SSTab_k(lambda')| / k^N) chi^lambda, as
    class functions on S_N; checking it on every cycle type proves the
    spherical decomposition of phi for every group element at once."""
    mults = {lam: count_semistandard(lam.conjugate(), k) for lam in partitions(N)}
    for class_type in partitions(N):
        nu = class_type.depth
        lhs = Fraction(-1, k) ** (N - nu)
        rhs = Fraction(0)
        for lam, mult in mults.items():
            if mult:
                rhs += Fraction(mult, k**N) * mn_character(lam, class_type)
        if lhs != rhs:
            return False
    return True
