import hashlib
import json
import logging
import random
from fractions import Fraction
from math import factorial

import pytest

from wreathdet import alphadet, perm, spherical, wreath
from wreathdet.alphadet import kdet
from wreathdet.errors import CapExceededError, ShapeError
from wreathdet.linalg import Matrix
from wreathdet.perm import (
    Permutation,
    enumerate_group,
    young_subgroup_elements,
)
from wreathdet.spherical import (
    kdet_weight_class_identity,
    phi,
    phi_decomposition_check,
    phi_matrix_element_check,
    phi_young_sum,
    transport_matrix,
    wrdet_symbolic,
    xi_det,
    xi_matrix,
    xi_positive_definite,
    xi_report,
    xi_scan,
)
from wreathdet.tableaux import (
    Partition,
    count_semistandard,
    g_of_T,
    mn_character,
    partitions,
)
from wreathdet.verify import rand_permutation
from wreathdet.wreath import ColoringFunction, nk_sign, row_k_plex, wrdet_direct


def brute_phi(g, n, k):
    """Oracle: ratio of wreath determinants of permuted block-ones matrices."""
    base = row_k_plex(Matrix.identity(n), k)
    return wrdet_direct(base.perm_rows(g), k) / wrdet_direct(base, k)


def _block_ones(n, k):
    """1_k^{+n}: the kn x kn block-diagonal matrix of n all-ones k x k blocks."""
    return Matrix([[int(i // k == j // k) for j in range(k * n)] for i in range(k * n)])


def kdet_ratio_phi(g, n, k):
    """Oracle: kdet(g . 1_k^{+n}) / kdet(1_k^{+n}), through the cycle-cover DP."""
    # kdet(1_k^{+n}) = (k!/k^k)^n
    return kdet(_block_ones(n, k).perm_rows(g), k) * k ** (k * n) / factorial(k) ** n


def _bounded_compositions(total, bounds):
    """Tuples e with 0 <= e_i <= bounds[i] and sum e = total."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(total, bounds[0]) + 1):
        for rest in _bounded_compositions(total - first, bounds[1:]):
            yield (first,) + rest


def margin_matrices(n, k):
    """Every n x n matrix of nonnegative integers whose rows and columns all
    sum to k: one per S_k^n double coset of S_kn."""

    def fill(i, cols):
        if i == n:
            yield ()
            return
        for row in _bounded_compositions(k, cols):
            rest = tuple(c - e for c, e in zip(cols, row))
            for tail in fill(i + 1, rest):
                yield (row,) + tail

    return list(fill(0, (k,) * n))


def coset_representative(m, k):
    """A g with transport_matrix(g) == m: block j sends m[i][j] of its points
    to block i, filling each target block in increasing order."""
    n = len(m)
    slot = [0] * n
    images = []
    for j in range(n):
        for i in range(n):
            for _ in range(m[i][j]):
                images.append(i * k + slot[i] + 1)
                slot[i] += 1
    return Permutation(images)


def test_phi_identity_and_shape():
    assert phi(Permutation.identity(4), 2, 2) == 1
    with pytest.raises(ShapeError):
        phi(Permutation.identity(5), 2, 2)


def test_phi_matches_ratio_oracle():
    rng = random.Random(3)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        for _ in range(4):
            g = rand_permutation(rng, k * n)
            assert phi(g, n, k) == brute_phi(g, n, k)


def test_phi_matches_young_sum_at_large_young_subgroups():
    # seeded g where (k!)^n is 1,728 (3,4) and 518,400 (2,6)
    rng = random.Random(19)
    for n, k, draws in ((3, 4, 4), (2, 6, 2)):
        for _ in range(draws):
            g = rand_permutation(rng, k * n)
            assert phi(g, n, k) == phi_young_sum(g, n, k)


def test_phi_decomposition_2_4():
    rng = random.Random(29)
    for g in [Permutation.identity(8)] + [rand_permutation(rng, 8) for _ in range(2)]:
        assert phi_decomposition_check(g, 2, 4)


def test_phi_matches_young_sum_on_every_double_coset():
    # one g per margin-k matrix, for every n, k >= 2 with kn <= 10
    counts = {}
    for n, k in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2), (3, 3)):
        cosets = margin_matrices(n, k)
        counts[(n, k)] = len(cosets)
        for m in cosets:
            g = coset_representative(m, k)
            assert transport_matrix(g, n, k) == m
            assert phi(g, n, k) == phi_young_sum(g, n, k)
    assert counts[(4, 2)] == 282 and counts[(5, 2)] == 6210
    assert sum(counts.values()) == 6586


def test_phi_matches_kdet_ratio():
    # every double coset of (2,6) and (3,4), and a seeded 60 of the 2008 of (4,3)
    for n, k in ((2, 6), (3, 4)):
        cosets = margin_matrices(n, k)
        assert len(cosets) == {(2, 6): 7, (3, 4): 120}[(n, k)]
        for m in cosets:
            g = coset_representative(m, k)
            assert phi(g, n, k) == kdet_ratio_phi(g, n, k)
    cosets = margin_matrices(4, 3)
    assert len(cosets) == 2008
    for m in random.Random(41).sample(cosets, 60):
        g = coset_representative(m, 3)
        assert phi(g, 4, 3) == kdet_ratio_phi(g, 4, 3)


def test_phi_routes_by_young_subgroup_order(monkeypatch):
    # Whatever (k!)^n is, phi, the Gram matrix, the (n,k)-signs and the unit
    # wreath determinants go through det_power_coefficient alone: at (2,6)
    # and (6,2) none of them may enumerate a Young subgroup or call kdet.
    def forbidden(*args, **kwargs):
        raise AssertionError("reached a Young-subgroup sum or kdet")

    for module in (perm, alphadet, spherical, wreath):
        for name in ("young_subgroup_histogram", "kdet"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    wreath._nk_sign_cached.cache_clear()
    wreath.tableau_unit_wrdets.cache_clear()
    rng = random.Random(31)
    for n, k in ((2, 6), (6, 2)):
        g = rand_permutation(rng, 12)
        assert phi(Permutation.identity(12), n, k) == 1
        phi(g, n, k)
        assert xi_matrix(n, k).order == 132
        nk_sign(ColoringFunction.iota(n, k).act_right(g))
        assert len(wreath.tableau_unit_wrdets(n, k)) == 132


def test_phi_biinvariance_and_inversion():
    rng = random.Random(5)
    n, k = 3, 2
    sub = list(young_subgroup_elements(n, k))
    for _ in range(4):
        g = rand_permutation(rng, k * n)
        assert phi(g, n, k) == phi(g.inverse(), n, k)
        h1, h2 = rng.choice(sub), rng.choice(sub)
        assert phi(h1 * g * h2, n, k) == phi(g, n, k)


def test_phi_explicit_value():
    # the off-diagonal entry of the order-2 Gram matrix
    g = Permutation((1, 3, 2, 4))
    assert phi(g, 2, 2) == Fraction(-1, 2)


def test_transport_matrix_invariant():
    n, k = 2, 2
    g = Permutation((1, 3, 2, 4))
    assert transport_matrix(g, n, k) == ((1, 1), (1, 1))
    assert transport_matrix(Permutation.identity(4), n, k) == ((2, 0), (0, 2))


def test_xi_22_matrix():
    xi = xi_matrix(2, 2)
    assert xi.order == 2
    assert xi.gram == Matrix([[1, Fraction(-1, 2)], [Fraction(-1, 2), 1]])


def test_xi_symmetry_diagonal_and_cache_agreement():
    # every entry, read through the transport-matrix cache, equals the
    # Young-subgroup sum at its own group element
    for n, k in ((2, 2), (3, 2), (2, 3), (2, 4)):
        xi = xi_matrix(n, k)
        assert xi.gram == xi.gram.transpose()
        assert all(xi.gram[i, i] == 1 for i in range(xi.order))
        gs = [g_of_T(T) for T in xi.tableaux]
        for i, gi in enumerate(gs):
            for j, gj in enumerate(gs):
                assert xi.gram[i, j] == phi_young_sum(gj.inverse() * gi, n, k)


def test_xi_entries_from_row_sets():
    # the Gram entries keyed by tableau row intersections are phi at the
    # group element itself, in both triangles
    for n, k in ((3, 3), (2, 4), (4, 2), (2, 5)):
        xi = xi_matrix(n, k)
        gs = [g_of_T(T) for T in xi.tableaux]
        for i, gi in enumerate(gs):
            for j, gj in enumerate(gs):
                assert xi.gram[i, j] == phi(gj.inverse() * gi, n, k)


def test_xi_matrix_calls_phi_once_per_transport_matrix(monkeypatch):
    seen = []
    real_phi = spherical.phi

    def counting_phi(g, n, k):
        seen.append(transport_matrix(g, n, k))
        return real_phi(g, n, k)

    monkeypatch.setattr(spherical, "phi", counting_phi)
    for n, k in ((3, 3), (4, 2)):
        seen.clear()
        xi = xi_matrix(n, k)
        gs = [g_of_T(T) for T in xi.tableaux]
        distinct = {
            transport_matrix(gs[j].inverse() * gs[i], n, k)
            for i in range(xi.order)
            for j in range(i, xi.order)
        }
        assert len(seen) == len(set(seen)) == len(distinct)
        assert set(seen) == distinct


def test_xi_determinants_match_paper():
    assert xi_det(2, 2) == Fraction(3, 4)
    assert xi_det(3, 2) == Fraction(2, 3) * Fraction(3, 4) ** 5
    assert xi_det(2, 3) == Fraction(3, 2) * Fraction(2, 3) ** 5
    assert xi_det(4, 2) == Fraction(2**6 * 5, 3) * Fraction(3, 8) ** 14
    assert xi_det(2, 4) == Fraction(3, 2**6 * 5) * Fraction(5, 6) ** 14


def test_xi_positive_definite_with_witness():
    ok, minors = xi_positive_definite(2, 2)
    assert ok and minors == [1, Fraction(3, 4)]
    for n, k in ((3, 2), (2, 3)):
        ok, minors = xi_positive_definite(n, k)
        assert ok and all(m > 0 for m in minors) and len(minors) == 5


def test_xi_trivial_orders():
    assert xi_matrix(1, 4).gram == Matrix([[1]])
    assert xi_matrix(5, 1).gram == Matrix([[1]])


def test_xi_order_cap():
    with pytest.raises(CapExceededError):
        xi_matrix(3, 2, order_cap=4)


def test_xi_report_fields():
    rep = xi_report(2, 2)
    assert rep == {
        "n": 2,
        "k": 2,
        "order": 2,
        "det": "3/4",
        "leading_minors": ["1", "3/4"],
        "positive_definite": True,
    }


def test_xi_scan_contents():
    pairs = xi_scan(6)
    keyed = {(p["n"], p["k"]): p for p in pairs}
    assert set(keyed) == {(2, 2), (2, 3), (3, 2)}
    assert keyed[(2, 2)]["det"] == "3/4"
    assert all(p["positive_definite"] for p in pairs)
    with pytest.raises(CapExceededError):
        xi_scan(13)


def test_xi_scan_logs_one_record_per_pair(caplog):
    quiet = xi_scan(6)
    with caplog.at_level(logging.INFO, logger="wreathdet.spherical"):
        logged = xi_scan(6)
    assert logged == quiet
    records = [r for r in caplog.records if r.name == "wreathdet.spherical"]
    assert len(records) == len(logged) == 3
    for rec, rep in zip(records, logged):
        assert rec.levelno == logging.INFO
        assert rec.args[:3] == (rep["n"], rep["k"], rep["order"])
        assert all(t >= 0 for t in rec.args[3:])


def test_xi_scan_12_regression():
    # sha256 of the scan's JSON, (3,4) and (4,3) skipped by the order cap
    doc = json.dumps(xi_scan(12), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "938296b30161d8b1d2693095d1bab5de22003a36630c4be9acfe5c03a556d55b"
    )


def test_wrdet_symbolic_monomial_count():
    W = wrdet_symbolic(2, 2)
    # 4 x 4 alpha-determinant over a rank-pattern with 2 distinct columns
    assert W.subs(
        {v: Fraction(1) for v in W.variables()}
    ).as_rational() == wrdet_direct(Matrix.ones(4, 2), 2)


def test_phi_matrix_element_expression():
    for g in enumerate_group(4):
        assert phi_matrix_element_check(g, 2, 2)


def test_phi_decomposition_small():
    for g in enumerate_group(4):
        assert phi_decomposition_check(g, 2, 2)
    rng = random.Random(11)
    for _ in range(3):
        assert phi_decomposition_check(rand_permutation(rng, 6), 3, 2)


def decomposition_by_lambda(g, n, k):
    """sum over lambda of |SSTab_k(lambda')| phi^lambda(g), one character
    sum per lambda over the Young subgroup."""
    N = k * n
    sub = list(young_subgroup_elements(n, k))
    ginv = g.inverse()
    total = Fraction(0)
    for lam in partitions(N):
        mult = count_semistandard(lam.conjugate(), k)
        if mult:
            acc = sum(mn_character(lam, Partition((ginv * sigma).cycle_type()))
                      for sigma in sub)
            total += Fraction(mult * acc, factorial(k) ** n)
    return total


def test_phi_decomposition_matches_per_lambda_sum(monkeypatch):
    # the check compares its tabulated sum with phi; substituting the
    # per-lambda sum for phi must keep it passing, and one more must fail it
    rng = random.Random(31)
    sample = [rand_permutation(rng, 6) for _ in range(6)]
    expected = {g.images: decomposition_by_lambda(g, 3, 2) for g in sample}
    assert all(expected[g.images] == phi(g, 3, 2) for g in sample)
    monkeypatch.setattr(spherical, "phi", lambda g, n, k: expected[g.images])
    assert all(phi_decomposition_check(g, 3, 2) for g in sample)
    monkeypatch.setattr(spherical, "phi", lambda g, n, k: expected[g.images] + 1)
    assert not any(phi_decomposition_check(g, 3, 2) for g in sample)


def test_phi_decomposition_detects_wrong_phi(monkeypatch):
    target = Permutation([2, 3, 1, 4])
    true_phi = spherical.phi
    monkeypatch.setattr(
        spherical, "phi",
        lambda g, n, k: true_phi(g, n, k) + (g == target),
    )
    verdicts = {g.images: phi_decomposition_check(g, 2, 2) for g in enumerate_group(4)}
    assert [img for img, ok in verdicts.items() if not ok] == [target.images]


def test_classwise_weight_identity():
    for N, k in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4)):
        assert kdet_weight_class_identity(N, k)


def test_weight_identity_detects_wrong_multiplicities():
    # sanity of the checker itself: perturbing one multiplicity must break it
    N, k = 4, 2
    lams = list(partitions(N))
    good = {
        lam: count_semistandard(lam.conjugate(), k) for lam in lams
    }
    for cls in partitions(N):
        lhs = Fraction(-1, k) ** (N - cls.depth)
        rhs = sum(
            Fraction(mult, k**N) * mn_character(lam, cls)
            for lam, mult in good.items()
        )
        assert lhs == rhs
    bad = dict(good)
    bad[lams[0]] += 1
    broken = any(
        Fraction(-1, k) ** (N - cls.depth)
        != sum(
            Fraction(mult, k**N) * mn_character(lam, cls)
            for lam, mult in bad.items()
        )
        for cls in partitions(N)
    )
    assert broken
