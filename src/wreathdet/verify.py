"""Seeded verification suites: every identity the library implements, checked
by independent evaluation paths at desk scale.

Each check draws its own Random stream from (seed, check name), so results
are reproducible regardless of execution order. Suites are
grouped as the CLI exposes them: alphadet, wreath, symfun, spherical.
"""

from __future__ import annotations

import itertools
import logging
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from time import perf_counter

from .alphadet import (
    adet,
    adet_dp,
    adet_laplace,
    adet_sum,
    block_adet_check,
    kdet,
    singular_order,
)
from .errors import WreathdetError
from .linalg import Matrix, det, symbolic_matrix
from .perm import (
    Permutation,
    enumerate_group,
    shifted_cycle_sum,
    support_subgroup_elements,
)
from .rings import ALPHA, Poly, variable
from .spherical import (
    kdet_weight_class_identity,
    phi,
    phi_decomposition_check,
    phi_matrix_element_check,
    phi_young_sum,
    transport_matrix,
    xi_matrix,
    xi_pivots,
    xi_positive_definite,
)
from .symfun import (
    cauchy_check,
    d_nk,
    delta_shift,
    diff_product,
    elementary_direct,
    complete_direct,
    h_series_check,
    monomial_direct,
    monomial_via_kdet,
    pde_via_kdet,
    power_direct,
    sample_cauchy_points,
    sample_distinct_fractions,
    schur_bialternant,
    schur_via_kdet,
    specht_expansion_check,
    symmetric_sum_vdm_check,
    wreath_vandermonde,
)
from .tableaux import (
    Partition,
    class_size,
    content_polynomial,
    count_semistandard,
    frobenius_weight,
    g_of_T,
    hook_f,
    kostka,
    mn_character,
    partitions,
    standard_tableaux,
)
from .wreath import (
    ColoringFunction as CF,
    colorings,
    column_k_plex,
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


log = logging.getLogger(__name__)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


# --- deterministic random inputs ----------------------------------------------


def rand_fraction(rng, num_hi=9, den_hi=9, nonzero=False):
    while True:
        f = Fraction(rng.randint(-num_hi, num_hi), rng.randint(1, den_hi))
        if f or not nonzero:
            return f


def rand_matrix(rng, m, n, num_hi=9, den_hi=9):
    return Matrix([[rand_fraction(rng, num_hi, den_hi) for _ in range(n)] for _ in range(m)])


def rand_big_fraction(rng):
    """Evaluation points for polynomial identities: entries in [1, 10^6]."""
    return Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))


def rand_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def _brute_permanent(A):
    n = A.nrows
    total = Fraction(0)
    for w in itertools.permutations(range(n)):
        prod = Fraction(1)
        for i, wi in enumerate(w):
            prod *= A[wi, i]
        total += prod
    return total


def check_runner(seed, named_checks):
    """Run (name, fn) pairs; fn(rng) -> bool or (bool, detail)."""

    def run_one(name, fn):
        rng = random.Random(f"{seed}:{name}")
        try:
            out = fn(rng)
        except WreathdetError as exc:
            return Check(name, False, f"error: {exc}")
        if isinstance(out, tuple):
            ok, detail = out
            return Check(name, bool(ok), "" if ok else str(detail))
        return Check(name, bool(out))

    checks = []
    for name, fn in named_checks:
        start = perf_counter()
        checks.append(run_one(name, fn))
        log.debug("check %s: passed=%s, %.3f s", name, checks[-1].passed,
                  perf_counter() - start)
    return checks


# --- alphadet suite -------------------------------------------------------------


def _ones_product(n, alpha):
    val = alpha ** 0
    for i in range(1, n):
        val = val * (1 + i * alpha)
    return val


def _chk_ones_formula(rng):
    return all(
        adet(Matrix.ones(n), ALPHA) == _ones_product(n, ALPHA) for n in range(1, 6)
    )


def _chk_det_permanent(rng):
    for n in (2, 3, 4):
        A = rand_matrix(rng, n, n)
        if adet(A, -1) != det(A):
            return False, f"alpha=-1 mismatch at n={n}"
        if adet(A, 1) != _brute_permanent(A):
            return False, f"alpha=+1 mismatch at n={n}"
    return True


def _chk_transpose(rng):
    for n in range(2, 6):
        A = rand_matrix(rng, n, n)
        if adet(A, ALPHA if n <= 4 else Fraction(3, 7)) != adet(
            A.transpose(), ALPHA if n <= 4 else Fraction(3, 7)
        ):
            return False, f"n={n}"
    return True


def _chk_multilinear(rng):
    n = 4
    alpha = rand_fraction(rng)
    c = rand_fraction(rng, nonzero=True)
    base = rand_matrix(rng, n, n)
    u = [rand_fraction(rng) for _ in range(n)]
    v = [rand_fraction(rng) for _ in range(n)]
    for j in (0, 2):
        combo = base.with_col(j, [a + c * b for a, b in zip(u, v)])
        split = adet(base.with_col(j, u), alpha) + c * adet(base.with_col(j, v), alpha)
        if adet(combo, alpha) != split:
            return False, f"column {j}"
    At = base.transpose()
    combo = At.with_col(1, [a + c * b for a, b in zip(u, v)]).transpose()
    split = (
        adet(At.with_col(1, u).transpose(), alpha)
        + c * adet(At.with_col(1, v).transpose(), alpha)
    )
    return adet(combo, alpha) == split


def _chk_laplace_random(rng):
    for n in range(2, 7):
        A = rand_matrix(rng, n, n)
        alpha = rand_fraction(rng)
        ref = adet_sum(A, alpha)
        if adet_dp(A, alpha) != ref:
            return False, f"dp n={n}"
        for q in range(1, n + 1):
            if adet_laplace(A, alpha, q) != ref:
                return False, f"n={n}, q={q}"
    for n in (2, 3, 4):
        A = rand_matrix(rng, n, n)
        ref = adet_sum(A, ALPHA)
        for q in range(1, n + 1):
            if adet_laplace(A, ALPHA, q) != ref:
                return False, f"symbolic n={n}, q={q}"
    return True


def _appendix_expansion_terms(X, alpha):
    """The printed n=4 expansion at the second column, assembled by hand."""
    r = X.rows

    def sub(rows):
        return Matrix([[r[i][j] for j in (0, 2, 3)] for i in rows])

    x = lambda p: r[p - 1][1]
    return (
        alpha * x(1) * adet(sub([1, 2, 3]), alpha)
        + x(2) * adet(sub([0, 2, 3]), alpha)
        + alpha * x(3) * adet(sub([0, 1, 3]), alpha)
        + alpha * x(4) * adet(sub([0, 2, 1]), alpha)
    )


def _chk_laplace_appendix(rng):
    X = symbolic_matrix(4, 4)
    return adet_laplace(X, ALPHA, 2) == _appendix_expansion_terms(X, ALPHA)


def _chk_perm_action(rng):
    A = rand_matrix(rng, 4, 4)
    alpha = rand_fraction(rng)
    return all(
        adet(A.perm_rows(w), alpha) == adet(A.perm_cols(w), alpha)
        for w in enumerate_group(4)
    )


def _chk_block(rng):
    for sizes in ((1, 1), (2, 2), (2, 3)):
        n, m = sizes
        A11, A22 = rand_matrix(rng, n, n), rand_matrix(rng, m, m)
        A12 = rand_matrix(rng, n, m)
        if not block_adet_check(A11, A12, A22, rand_fraction(rng)):
            return False, f"sizes {sizes}"
    ok_sym = block_adet_check(
        symbolic_matrix(2, 2), symbolic_matrix(2, 2, "y"), symbolic_matrix(2, 2, "z"), ALPHA
    )
    return ok_sym


def _chk_k_alternating(rng):
    for n in range(3, 7):
        for k in range(1, min(n - 1, 3) + 1):
            A = rand_matrix(rng, n, n)
            b = [rand_fraction(rng) for _ in range(n)]
            for j in range(k + 1):
                A = A.with_col(j, b)
            if kdet(A, k) != 0:
                return False, f"{k + 1} equal columns, n={n}"
    # averaged form: sums over S_n(I) kill kdet when |I| > k
    n = 5
    A = rand_matrix(rng, n, n)
    for k in (1, 2, 3):
        I = sorted(rng.sample(range(1, n + 1), k + 1))
        col_sum = sum(kdet(A.perm_cols(w), k) for w in support_subgroup_elements(I, n))
        row_sum = sum(kdet(A.perm_rows(w), k) for w in support_subgroup_elements(I, n))
        if col_sum != 0 or row_sum != 0:
            return False, f"I={I}, k={k}"
    return True


def _chk_column_add(rng):
    n, k = 5, 2
    A = rand_matrix(rng, n, n)
    b = [rand_fraction(rng) for _ in range(n)]
    A = A.with_col(1, b).with_col(3, b)  # k columns equal to b
    for j in (0, 2, 4):
        bumped = A.with_col(j, [a + x for a, x in zip(A.col(j), b)])
        if kdet(bumped, k) != kdet(A, k):
            return False, f"target column {j}"
    return True


def _chk_kdet_ones(rng):
    for k in (1, 2, 3, 4):
        if kdet(Matrix.ones(k), k) != Fraction(factorial(k), k**k):
            return False, f"kdet(1_{k})"
        if kdet(Matrix.ones(k + 1), k) != 0:
            return False, f"kdet(1_{k + 1}) at k={k}"
    A = rand_matrix(rng, 4, 4)
    return kdet(A, 1) == det(A)


def _chk_singular_flag(rng):
    cases = [(Fraction(-1, 3), 3), (Fraction(-1), 1), (-1, 1), (Fraction(-2, 6), 3)]
    if any(singular_order(a) != k for a, k in cases):
        return False
    return all(
        singular_order(a) is None
        for a in (Fraction(1, 3), Fraction(0), Fraction(-2, 3), 2)
    )


def _chk_shifted_cycle_sum(rng):
    n = 4
    members = list(range(1, n + 1))
    for g in enumerate_group(n):
        for r in range(n + 1):
            for I in itertools.combinations(members, r):
                value, m = shifted_cycle_sum(g, I, ALPHA)
                expect = ALPHA**m * _ones_product(len(I), ALPHA)
                if value != expect:
                    return False, f"g={g.images}, I={I}"
    return True


def _chk_singular_degeneration(rng):
    alpha = ALPHA
    A = symbolic_matrix(4, 2)
    P = Matrix([[1, 1], [0, 1]])
    diff = adet(column_k_plex(A @ P, 2), alpha) - adet(column_k_plex(A, 2), alpha)
    x = lambda i, j: variable("x", i, j)
    bracket = (
        (1 + 3 * alpha) * x(1, 1) * x(2, 1) * x(3, 1) * x(4, 1)
        + 2 * alpha * (x(1, 2) * x(2, 1) + x(1, 1) * x(2, 2)) * x(3, 1) * x(4, 1)
        + (1 + alpha) * x(1, 1) * x(2, 1) * (x(3, 2) * x(4, 1) + x(3, 1) * x(4, 2))
    )
    if diff != _ones_product(3, alpha) * bracket:
        return False, "factored form differs"
    for j in range(1, 7):
        at = diff.subs({("a",): Fraction(-1, j)})
        if (j in (1, 2)) != at.is_zero():
            return False, f"vanishing wrong at alpha=-1/{j}"
    return True


def _chk_adet_edges(rng):
    if adet(Matrix([]), Fraction(1, 2)) != 1:
        return False, "empty matrix"
    e = rand_fraction(rng)
    return adet(Matrix([[e]]), ALPHA) == e and adet_laplace(Matrix([[e]]), ALPHA, 1) == e


def _big_matrix(rng, m, n):
    return Matrix([[rand_big_fraction(rng) for _ in range(n)] for _ in range(m)])


def _chk_large_identity_sampling(rng):
    # identities whose symbolic expansion is infeasible at this size are
    # checked at 5 seeded rational points with entries in [1, 10^6]
    for _ in range(5):
        A = _big_matrix(rng, 5, 5)
        alpha = rand_big_fraction(rng)
        if adet_sum(A, alpha) != adet_sum(A.transpose(), alpha):
            return False, "transpose at n=5"
        if adet_laplace(A, alpha, 3) != adet_sum(A, alpha):
            return False, "laplace at n=5"
        B = _big_matrix(rng, 6, 3)
        P = _big_matrix(rng, 3, 3)
        if wrdet_direct(B @ P, 2) != det(P) ** 2 * wrdet_direct(B, 2):
            return False, "wrdet relative invariance at (3,2)"
    return True


ALPHADET_CHECKS = [
    ("ones_stirling_product", _chk_ones_formula),
    ("det_and_permanent_specializations", _chk_det_permanent),
    ("transpose_invariance", _chk_transpose),
    ("multilinearity", _chk_multilinear),
    ("laplace_matches_defining_sum", _chk_laplace_random),
    ("laplace_four_term_expansion", _chk_laplace_appendix),
    ("row_vs_column_permutation_action", _chk_perm_action),
    ("block_triangular_multiplicativity", _chk_block),
    ("k_alternating_property", _chk_k_alternating),
    ("column_add_invariance", _chk_column_add),
    ("kdet_of_all_ones", _chk_kdet_ones),
    ("singular_alpha_flag", _chk_singular_flag),
    ("shifted_cycle_sum_factorization", _chk_shifted_cycle_sum),
    ("plex_multiplicativity_degeneration", _chk_singular_degeneration),
    ("degenerate_inputs", _chk_adet_edges),
    ("large_point_identity_sampling", _chk_large_identity_sampling),
]


# --- wreath suite ---------------------------------------------------------------


def _chk_plex_shapes(rng):
    A = Matrix([[variable("a", i, j) for j in (1, 2)] for i in (1, 2, 3)])
    a = lambda i, j: variable("a", i, j)
    two = Matrix([[a(1, 1), a(1, 1), a(1, 2), a(1, 2)],
                  [a(2, 1), a(2, 1), a(2, 2), a(2, 2)],
                  [a(3, 1), a(3, 1), a(3, 2), a(3, 2)]])
    three = Matrix([[a(i, 1)] * 3 + [a(i, 2)] * 3 for i in (1, 2, 3)])
    if column_k_plex(A, 2) != two or column_k_plex(A, 3) != three:
        return False, "displayed plexings differ"
    return column_k_plex(A, 1) == A and row_k_plex(A, 1) == A


def _chk_plex_identities(rng):
    A = rand_matrix(rng, 3, 2)
    P = rand_matrix(rng, 3, 3)
    Q = rand_matrix(rng, 2, 2)
    k = 2
    if column_k_plex(P @ A, k) != P @ column_k_plex(A, k):
        return False, "kple(PA)"
    if row_k_plex(A @ Q, k) != row_k_plex(A, k) @ Q:
        return False, "kplerow(AQ)"
    sigma = rand_permutation(rng, 3)
    tau = rand_permutation(rng, 2)
    return (
        column_k_plex(A.perm_rows(sigma), k) == column_k_plex(A, k).perm_rows(sigma)
        and row_k_plex(A.perm_cols(tau), k) == row_k_plex(A, k).perm_cols(tau)
    )


_EX53_COEFFS = (
    Fraction(1, 8),
    Fraction(-1, 16),
    Fraction(-1, 16),
    Fraction(1, 32),
    Fraction(1, 32),
)


def _chk_tableau_coefficients(rng):
    tabs = standard_tableaux(Partition((2, 2, 2)))
    if len(tabs) != 5:
        return False, "tableau count"
    words = [T.row_word() for T in tabs]
    if words != [
        (1, 2, 3, 4, 5, 6),
        (1, 2, 3, 5, 4, 6),
        (1, 3, 2, 4, 5, 6),
        (1, 3, 2, 5, 4, 6),
        (1, 4, 2, 5, 3, 6),
    ]:
        return False, f"canonical order {words}"
    units = tableau_unit_wrdets(3, 2)
    if tuple(units[T] for T in tabs) != _EX53_COEFFS:
        return False, "unit wrdets"
    # direct wrdet of the five 0/1 matrices agrees with the det-power closed form
    if any(wrdet_direct(tableau_matrix(T), 2) != units[T] for T in tabs):
        return False, "direct vs det-power coefficient"
    # expansion coefficients differ from the unit wrdets exactly where the
    # tdet duality fails: the last coefficient picks up -1/8 from the pair
    # (row-reading, column-reading)
    expansion = wrdet_expansion_coefficients(3, 2)
    expect = _EX53_COEFFS[:4] + (Fraction(-3, 32),)
    return tuple(expansion[T] for T in tabs) == expect


def _chk_tableau_delta(rng):
    # tdet_T(I(U)) has unit diagonal and vanishes for T after U in row-word
    # order; it is NOT the Kronecker delta: the (3,2) pair below is the
    # smallest counterexample (no two entries share a column of T and a row
    # of U, so no minor vanishes)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        m = tdet_duality_matrix(n, k)
        f = len(m)
        for p in range(f):
            if m[p][p] != 1:
                return False, f"diagonal ({n},{k})"
            for q in range(p):
                if m[p][q] != 0:
                    return False, f"lower triangle ({n},{k}) at ({p},{q})"
        # the incidence build the expansion solves against, entry for entry
        columns = tdet_duality_columns(n, k)
        dense = [[int(p == q) for q in range(f)] for p in range(f)]
        for q, column in enumerate(columns):
            for p, v in column:
                dense[p][q] = v
        if tuple(map(tuple, dense)) != m:
            return False, f"incidence build ({n},{k})"
    m32 = tdet_duality_matrix(3, 2)
    if m32[0][4] != 1:
        return False, "expected duality failure witness missing"
    return sum(1 for row in m32 for v in row if v != 0) == 6


_FOUR_PATH_PAIRS = ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4))


def _chk_four_paths(rng):
    for n, k in _FOUR_PATH_PAIRS:
        reps = 3 if k * n <= 6 else 2
        for _ in range(reps):
            A = rand_matrix(rng, k * n, n)
            d = wrdet_direct(A, k)
            if wrdet_tableaux(A, k) != d:
                return False, f"tableaux path ({n},{k})"
            if wrdet_symmetric(A, k) != d:
                return False, f"symmetric path ({n},{k})"
            if wrdet_monomial(A, k) != d:
                return False, f"monomial path ({n},{k})"
    return True


def _chk_gl_invariance(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, k * n, n)
        P = rand_matrix(rng, n, n)
        if wrdet_direct(A @ P, k) != det(P) ** k * wrdet_direct(A, k):
            return False, f"({n},{k})"
    return True


def _chk_wreath_invariance(rng):
    for n, k in ((2, 2), (3, 2)):
        A = rand_matrix(rng, k * n, n)
        base = wrdet_direct(A, k)
        for g in wreath_group_elements(n, k):
            if wrdet_direct(A.perm_rows(g.embed()), k) != g.character() ** k * base:
                return False, f"({n},{k}) at {g!r}"
    return True


def _chk_column_operations(rng):
    n, k = 3, 2
    A = rand_matrix(rng, k * n, n)
    c = rand_fraction(rng, nonzero=True)
    base = wrdet_direct(A, k)
    bumped = A.with_col(0, [a + c * b for a, b in zip(A.col(0), A.col(2))])
    if wrdet_direct(bumped, k) != base:
        return False, "column add"
    scaled = A.with_col(1, [c * a for a in A.col(1)])
    if wrdet_direct(scaled, k) != c**k * base:
        return False, "column scale"
    tau = rand_permutation(rng, n)
    return wrdet_direct(A.perm_cols(tau), k) == tau.sign() ** k * base


def _chk_double_plex(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        A = rand_matrix(rng, n, n)
        expect = Fraction(factorial(k), k**k) ** n * det(A) ** k
        if wrdet_direct(row_k_plex(A, k), k) != expect:
            return False, f"({n},{k})"
    return True


def _chk_pile_formula(rng):
    # two-term expansion for a pile of two 2x2 blocks; the 1/4 coefficient
    # sits on the interleaved minors (tdet of the row-reading tableau), the
    # -1/8 on det(A) det(B) -- cross-checked at A = B = I where the pile is
    # the unit matrix of the second tableau and wrdet is -1/8
    A, B = rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2)
    lhs = wrdet_direct(pile(A, B), 2)
    inter1 = det(Matrix([A.rows[0], B.rows[0]]))
    inter2 = det(Matrix([A.rows[1], B.rows[1]]))
    if lhs != Fraction(1, 4) * inter1 * inter2 - Fraction(1, 8) * det(A) * det(B):
        return False, "random blocks"
    eye = Matrix.identity(2)
    return wrdet_direct(pile(eye, eye), 2) == Fraction(-1, 8)


def _chk_nk_sign_values(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        iota = CF.iota(n, k)
        if nk_sign(iota) != Fraction(factorial(k), k**k) ** n:
            return False, f"iota ({n},{k})"
        if orbit_data(iota) != (1, 1, 1):
            return False, f"iota orbit ({n},{k})"
    # n = k = 1 reduces the family to S_n and the sign character
    for images in itertools.permutations((1, 2, 3)):
        f = CF(images, 3, 1)
        if nk_sign(f) != Permutation(images).sign():
            return False, f"k=1 sign at {images}"
    U4 = standard_tableaux(Partition((2, 2, 2)))[3]
    f4 = CF.from_tableau(U4)
    if f4.matrix_view() != ((1, 2), (1, 3), (2, 3)):
        return False, "U4 matrix view"
    if f4.multiplicity_matrix() != ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        return False, "U4 multiplicity matrix"
    if nk_sign(f4) != Fraction(1, 32):
        return False, "U4 sign"
    if orbit_data(f4) != (8, 2, 1):
        return False, "U4 orbit data"
    return pf_coefficient(f4) == Fraction(1, 4)


def _chk_sign_left_action(rng):
    for f in colorings(3, 2):
        for tau in enumerate_group(3):
            if nk_sign(f.act_left(tau)) != tau.sign() ** 2 * nk_sign(f):
                return False, f"{f!r}, tau={tau.images}"
    for f in colorings(2, 3):
        tau = Permutation((2, 1))
        if nk_sign(f.act_left(tau)) != tau.sign() ** 3 * nk_sign(f):
            return False, f"{f!r} at k=3"
    return True


def _chk_orbit_reconstruction(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        scale = Fraction(factorial(k), k**k) ** n
        for f in colorings(n, k):
            size, inter, sign = orbit_data(f)
            if len(list(f.orbit())) != size:
                return False, f"orbit size formula {f!r}"
            if inter == 0:
                if sign is not None or nk_sign(f) != 0:
                    return False, f"empty intersection {f!r}"
            elif nk_sign(f) != sign * scale * Fraction(inter, size):
                return False, f"reconstruction {f!r}"
            if pf_coefficient(f) != Fraction(inter, size):
                return False, f"pf coefficient {f!r}"
    return True


def _chk_det_power_identity(rng):
    A = rand_matrix(rng, 2, 2)
    for f in colorings(2, 2):
        if not det_power_identity_check(f, A):
            return False, f"{f!r}"
    # delta-pattern collapse at A = I_n
    eye = Matrix.identity(2)
    for f in colorings(2, 2):
        if not det_power_identity_check(f, eye):
            return False, f"identity collapse {f!r}"
    if len(list(colorings(2, 2))) != 6:
        return False, "coloring count"
    return True


def _chk_monomial_sign_link(rng):
    # standard tableaux, read as colorings, have nk_sign equal to wrdet I(T)
    units = tableau_unit_wrdets(3, 2)
    return all(nk_sign(CF.from_tableau(T)) == c for T, c in units.items())


WREATH_CHECKS = [
    ("plexing_matches_displayed_examples", _chk_plex_shapes),
    ("plexing_commutes_with_actions", _chk_plex_identities),
    ("rectangular_tableau_coefficients", _chk_tableau_coefficients),
    ("tdet_duality_on_unit_matrices", _chk_tableau_delta),
    ("four_evaluation_paths_agree", _chk_four_paths),
    ("right_gl_relative_invariance", _chk_gl_invariance),
    ("wreath_group_relative_invariance", _chk_wreath_invariance),
    ("column_operations", _chk_column_operations),
    ("double_plex_determinant_power", _chk_double_plex),
    ("two_block_pile_expansion", _chk_pile_formula),
    ("nk_sign_examples", _chk_nk_sign_values),
    ("nk_sign_left_action", _chk_sign_left_action),
    ("orbit_data_reconstructs_sign", _chk_orbit_reconstruction),
    ("det_power_identity", _chk_det_power_identity),
    ("tableau_colorings_match_coefficients", _chk_monomial_sign_link),
]


# --- symfun suite ---------------------------------------------------------------


_SYM_PAIRS = ((2, 2), (3, 2), (2, 3))


def _chk_cauchy(rng):
    for n, k in _SYM_PAIRS:
        for _ in range(2):
            xs, ys = sample_cauchy_points(rng, n, k)
            if not cauchy_check(xs, ys, k, "plus"):
                return False, f"plus ({n},{k})"
            if not cauchy_check(xs, ys, k, "geometric"):
                return False, f"geometric ({n},{k})"
    xs, ys = sample_cauchy_points(rng, 3, 1)
    return cauchy_check(xs, ys, 1, "plus")


def _chk_vdm_notice(rng):
    for n, k in _SYM_PAIRS:
        xs = sample_distinct_fractions(rng, k * n)
        if d_nk(xs, delta_shift(n, k), k) != wreath_vandermonde(xs, n, k):
            return False, f"({n},{k})"
    xs = sample_distinct_fractions(rng, 3)
    if wreath_vandermonde(xs, 3, 1) != diff_product(xs):
        return False, "k=1 Vandermonde"
    for k in (2, 3):
        xs = sample_distinct_fractions(rng, k)
        if wreath_vandermonde(xs, 1, k) != Fraction(factorial(k), k**k):
            return False, f"n=1, k={k}"
    return True


def _chk_specht_expansion(rng):
    return all(
        specht_expansion_check(sample_distinct_fractions(rng, k * n), n, k)
        for n, k in _SYM_PAIRS
    )


def _chk_symmetric_sum(rng):
    for n, k in _SYM_PAIRS:
        if not symmetric_sum_vdm_check(sample_distinct_fractions(rng, k * n), n, k):
            return False, f"({n},{k})"
    xs = sample_distinct_fractions(rng, 4)
    return symmetric_sum_vdm_check(xs, 4, 1)


def _chk_monomial_ratio(rng):
    for n, k in ((2, 2), (1, 2)):
        xs = sample_distinct_fractions(rng, k * n)
        for lam in [Partition(p) for s in (0, 1, 2, 3) for p in _parts_lists(s)]:
            if lam.depth > k * n:
                continue
            if monomial_via_kdet(lam, xs, n, k) != monomial_direct(lam, xs):
                return False, f"lambda={lam.parts} ({n},{k})"
    return True


def _parts_lists(s):
    return [p.parts for p in partitions(s)]


def _chk_schur_ratio(rng):
    xs = sample_distinct_fractions(rng, 4)
    for parts in ((1,), (2, 1), (2, 2), (1, 1, 1)):
        lam = Partition(parts)
        if schur_via_kdet(lam, xs, 2, 2) != schur_bialternant(lam, xs):
            return False, f"lambda={parts}"
    return True


def _chk_pde_ratio(rng):
    xs = sample_distinct_fractions(rng, 4)
    n = k = 2
    for d in (1, 2, 3):
        if pde_via_kdet("power", d, xs, n, k) != power_direct(d, xs):
            return False, f"p_{d}"
        if pde_via_kdet("complete", d, xs, n, k) != complete_direct(d, xs):
            return False, f"h_{d}"
        if pde_via_kdet("elementary", d, xs, n, k) != elementary_direct(d, xs):
            return False, f"e_{d}"
    return pde_via_kdet("elementary", 5, xs, n, k) == 0


def _chk_h_series(rng):
    xs = sample_distinct_fractions(rng, 4)
    ys = sample_distinct_fractions(rng, 2)
    if not h_series_check(2, 2, 2, xs, ys):
        return False, "(2,2)"
    xs = sample_distinct_fractions(rng, 2)
    ys = sample_distinct_fractions(rng, 2)
    return h_series_check(2, 1, 2, xs, ys)


SYMFUN_CHECKS = [
    ("cauchy_identities", _chk_cauchy),
    ("vandermonde_power_matrix_forms", _chk_vdm_notice),
    ("specht_expansion", _chk_specht_expansion),
    ("young_orbit_symmetrization", _chk_symmetric_sum),
    ("monomial_ratio_formula", _chk_monomial_ratio),
    ("schur_ratio_formula", _chk_schur_ratio),
    ("power_complete_elementary_ratios", _chk_pde_ratio),
    ("generating_series_slices", _chk_h_series),
]


# --- spherical suite --------------------------------------------------------------


def _chk_phi_basics(rng):
    for n, k in ((2, 2), (3, 2)):
        kn = k * n
        if phi(Permutation.identity(kn), n, k) != 1:
            return False, f"identity ({n},{k})"
        for _ in range(4):
            g = rand_permutation(rng, kn)
            if phi(g, n, k) != phi(g.inverse(), n, k):
                return False, f"inversion ({n},{k})"
            scale = Fraction(factorial(k), k**k) ** n
            direct = wrdet_direct(row_k_plex(Matrix.identity(n), k).perm_rows(g), k)
            if phi(g, n, k) != direct / scale:
                return False, f"matrix form ({n},{k})"
    return True


def _chk_phi_biinvariance(rng):
    n, k = 3, 2
    from .perm import young_subgroup_elements

    subgroup = list(young_subgroup_elements(n, k))
    for _ in range(3):
        g = rand_permutation(rng, k * n)
        h1, h2 = rng.choice(subgroup), rng.choice(subgroup)
        if phi(h1 * g * h2, n, k) != phi(g, n, k):
            return False, f"{g.images}"
    return True


def _chk_xi_structure(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        xi = xi_matrix(n, k)
        gram = xi.gram
        if gram != gram.transpose():
            return False, f"symmetry ({n},{k})"
        if any(gram[i, i] != 1 for i in range(xi.order)):
            return False, f"diagonal ({n},{k})"
        # each entry, read through the transport-matrix cache, against the
        # Young-subgroup sum at its own group element
        gs = [g_of_T(T) for T in xi.tableaux]
        for i, gi in enumerate(gs):
            for j, gj in enumerate(gs):
                if gram[i, j] != phi_young_sum(gj.inverse() * gi, n, k):
                    return False, f"entry ({i},{j}) of ({n},{k}) vs Young-subgroup sum"
    return True


def _chk_xi_first_column(rng):
    n, k = 3, 2
    xi = xi_matrix(n, k)
    units = tableau_unit_wrdets(n, k)
    scale = Fraction(factorial(k), k**k) ** n
    return all(
        xi.gram[i, 0] == units[T] / scale for i, T in enumerate(xi.tableaux)
    )


_XI_DETS = {
    (2, 2): Fraction(1, 3) * Fraction(3, 2) ** 2,
    (3, 2): Fraction(2, 3) * Fraction(3, 4) ** 5,
    (2, 3): Fraction(3, 2) * Fraction(2, 3) ** 5,
    (4, 2): Fraction(2**6 * 5, 3) * Fraction(3, 8) ** 14,
    (2, 4): Fraction(3, 2**6 * 5) * Fraction(5, 6) ** 14,
}


def _chk_xi_determinants(rng):
    for (n, k), expect in _XI_DETS.items():
        _, minors = xi_positive_definite(n, k)
        if minors[-1] != expect:
            return False, f"det Xi_({n},{k})"
        if any(m <= 0 for m in minors):
            return False, f"minors ({n},{k})"
        if list(itertools.accumulate(xi_pivots(n, k), operator.mul)) != minors:
            return False, f"seminormal norms ({n},{k})"
    return True


def _chk_xi_edge(rng):
    one = xi_matrix(1, 3)
    two = xi_matrix(4, 1)
    return one.gram == Matrix([[1]]) and two.gram == Matrix([[1]])


def _translated_expansion_coefficients(xi, scale, j):
    # expansion of X -> wrdet(g(T_j)^{-1} . X) over {tdet_S}: evaluating at
    # the unit matrices I(S_q) gives scale * Xi[q, j], then solve against the
    # tdet duality matrix exactly as for wrdet itself
    return solve_tdet_duality(xi.n, xi.k, [scale * xi.gram[q, j] for q in range(xi.order)])


def _chk_dt_expansion(rng):
    # symbolic at (2,2), numeric at (3,2)
    n, k = 2, 2
    X = symbolic_matrix(k * n, n)
    scale = Fraction(factorial(k), k**k) ** n
    xi = xi_matrix(n, k)
    for j, T in enumerate(xi.tableaux):
        lhs = kdet(column_k_plex(X.perm_rows(g_of_T(T).inverse()), k), k)
        coeffs = _translated_expansion_coefficients(xi, scale, j)
        rhs = Poly.const(0)
        for i, S in enumerate(xi.tableaux):
            rhs = rhs + coeffs[i] * tdet(X, S)
        if lhs != rhs:
            return False, f"symbolic T index {j}"
    n, k = 3, 2
    A = rand_matrix(rng, k * n, n)
    xi = xi_matrix(n, k)
    scale = Fraction(factorial(k), k**k) ** n
    for j, T in enumerate(xi.tableaux):
        lhs = wrdet_direct(A.perm_rows(g_of_T(T).inverse()), k)
        coeffs = _translated_expansion_coefficients(xi, scale, j)
        rhs = sum(c * tdet(A, S) for c, S in zip(coeffs, xi.tableaux))
        if lhs != rhs:
            return False, f"numeric T index {j}"
        # the evaluation link itself: wrdet(g(T)^{-1} I(S)) = scale * Xi[S,T]
        for i, S in enumerate(xi.tableaux):
            translated = tableau_matrix(S).perm_rows(g_of_T(T).inverse())
            if wrdet_direct(translated, k) != scale * xi.gram[i, j]:
                return False, f"translation link at ({i},{j})"
    return True


def _chk_matrix_element(rng):
    n, k = 2, 2
    return all(phi_matrix_element_check(g, n, k) for g in enumerate_group(k * n))


def _chk_phi_decomposition(rng):
    for n, k in ((2, 2), (3, 2)):
        for g in enumerate_group(k * n):
            if not phi_decomposition_check(g, n, k):
                return False, f"({n},{k}) at {g.images}"
    return True


def _chk_classwise_weight_identity(rng):
    for N, k in ((8, 2), (8, 4), (6, 2), (6, 3), (4, 2)):
        if not kdet_weight_class_identity(N, k):
            return False, f"N={N}, k={k}"
    return True


def _chk_frobenius_specialization(rng):
    for N in range(1, 6):
        for cls in partitions(N):
            total = Poly.const(0)
            for lam in partitions(N):
                total = total + frobenius_weight(lam, ALPHA) * mn_character(lam, cls)
            if total != ALPHA ** (N - cls.depth):
                return False, f"N={N}, class={cls.parts}"
    return True


def _chk_content_identity(rng):
    for N in range(1, 7):
        for k in (1, 2, 3):
            for lam in partitions(N):
                expect = Fraction(
                    factorial(N) * count_semistandard(lam.conjugate(), k),
                    hook_f(lam) * k**N,
                )
                if content_polynomial(lam, Fraction(-1, k)) != expect:
                    return False, f"lambda={lam.parts}, k={k}"
    return True


def _chk_character_table(rng):
    for N in range(1, 7):
        classes = list(partitions(N))
        lams = list(partitions(N))
        for lam in lams:
            if any(mn_character(Partition((N,)), c) != 1 for c in classes):
                return False, "trivial character"
            sign_lam = Partition((1,) * N)
            if any(
                mn_character(sign_lam, c) != (-1) ** (N - c.depth) for c in classes
            ):
                return False, "sign character"
        for lam in lams:
            for mu in lams:
                total = sum(
                    class_size(c) * mn_character(lam, c) * mn_character(mu, c)
                    for c in classes
                )
                if total != (factorial(N) if lam == mu else 0):
                    return False, f"orthogonality {lam.parts} {mu.parts}"
    return True


def _chk_kostka_basics(rng):
    for n, k in ((2, 2), (3, 2), (2, 3)):
        if kostka(Partition((k,) * n), (k,) * n) != 1:
            return False, f"K_(k^n),(k^n) ({n},{k})"
    for N in range(1, 7):
        for lam in partitions(N):
            if kostka(lam, (1,) * N) != hook_f(lam):
                return False, f"K vs f at {lam.parts}"
    lam = Partition((2, 1))
    if kostka(lam, (1, 1, 1)) != 2:
        return False, "K_(2,1),(1,1,1)"
    # weight-permutation invariance on small compositions
    return all(
        kostka(lam, w) == kostka(lam, tuple(sorted(w, reverse=True)))
        for w in itertools.permutations((2, 1, 0))
    )


def _chk_transport_invariant(rng):
    n, k = 3, 2
    from .perm import young_subgroup_elements

    subgroup = list(young_subgroup_elements(n, k))
    for _ in range(3):
        g = rand_permutation(rng, k * n)
        key = transport_matrix(g, n, k)
        h = rng.choice(subgroup) * g * rng.choice(subgroup)
        if transport_matrix(h, n, k) != key:
            return False, "transport not biinvariant"
        if phi(h, n, k) != phi(g, n, k):
            return False, "phi not constant on the double coset"
    return True


SPHERICAL_CHECKS = [
    ("phi_normalization_and_symmetry", _chk_phi_basics),
    ("phi_biinvariance", _chk_phi_biinvariance),
    ("gram_symmetry_and_cache", _chk_xi_structure),
    ("gram_first_column_links_coefficients", _chk_xi_first_column),
    ("gram_determinants", _chk_xi_determinants),
    ("gram_trivial_orders", _chk_xi_edge),
    ("translated_wrdet_expansion", _chk_dt_expansion),
    ("matrix_element_expression", _chk_matrix_element),
    ("spherical_decomposition_per_element", _chk_phi_decomposition),
    ("classwise_weight_identity", _chk_classwise_weight_identity),
    ("frobenius_specialization", _chk_frobenius_specialization),
    ("content_polynomial_tableau_identity", _chk_content_identity),
    ("character_table_orthogonality", _chk_character_table),
    ("kostka_oracles", _chk_kostka_basics),
    ("transport_matrix_classifies_cosets", _chk_transport_invariant),
]


SUITES = {
    "alphadet": ALPHADET_CHECKS,
    "wreath": WREATH_CHECKS,
    "symfun": SYMFUN_CHECKS,
    "spherical": SPHERICAL_CHECKS,
}


def run_suite(name, seed):
    """Run one suite (or 'all'); returns Check records in canonical order."""
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return check_runner(seed, checks)
