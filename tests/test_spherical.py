import hashlib
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from wreathdet import spherical
from wreathdet.errors import CapExceededError, ShapeError
from wreathdet.linalg import Matrix
from wreathdet.perm import (
    Permutation,
    enumerate_group,
    young_subgroup_elements,
    young_subgroup_histogram,
)
from wreathdet.spherical import (
    kdet_weight_class_identity,
    phi,
    phi_decomposition_check,
    phi_matrix_element_check,
    transport_matrix,
    wrdet_symbolic,
    xi_det,
    xi_matrix,
    xi_positive_definite,
    xi_report,
    xi_scan,
)
from wreathdet.tableaux import count_semistandard, mn_character, partitions
from wreathdet.verify import rand_permutation
from wreathdet.wreath import row_k_plex, wrdet_direct


def brute_phi(g, n, k):
    """Oracle: ratio of wreath determinants of permuted block-ones matrices."""
    base = row_k_plex(Matrix.identity(n), k)
    return wrdet_direct(base.perm_rows(g), k) / wrdet_direct(base, k)


def young_sum_phi(g, n, k):
    """Oracle: the Young-subgroup sum of the module docstring, without kdet."""
    counts = young_subgroup_histogram(g.inverse().zero_based(), n, k)
    num = sum(c * (-1) ** (k * n - nu) * k**nu for nu, c in enumerate(counts))
    return Fraction(num, factorial(k) ** n)


def two_block_coset_reps(k):
    """One g per S_k^2 double coset in S_2k: j of the k points swap blocks."""
    reps = []
    for j in range(k + 1):
        images = list(range(1, 2 * k + 1))
        for i in range(j):
            images[i], images[k + i] = images[k + i], images[i]
        reps.append(Permutation(images))
    return reps


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


def test_phi_kdet_route_matches_young_sum():
    for k in (4, 5):
        reps = two_block_coset_reps(k)
        assert len({transport_matrix(g, 2, k) for g in reps}) == k + 1
        for g in reps:
            assert phi(g, 2, k) == young_sum_phi(g, 2, k)
    rng = random.Random(19)
    for n, k, draws in ((3, 4, 4), (2, 6, 2)):
        for _ in range(draws):
            g = rand_permutation(rng, k * n)
            assert phi(g, n, k) == young_sum_phi(g, n, k)


def test_phi_decomposition_on_kdet_route():
    rng = random.Random(29)
    for g in [Permutation.identity(8)] + [rand_permutation(rng, 8) for _ in range(2)]:
        assert phi_decomposition_check(g, 2, 4)


def test_phi_routes_by_young_subgroup_order(monkeypatch):
    # (6!)^2 > 2^12 takes the kdet ratio; (2!)^6 <= 2^12 takes the Young sum
    rng = random.Random(31)
    g = rand_permutation(rng, 12)

    def no_young_sum(*args, **kwargs):
        raise AssertionError("(2,6) enumerated its Young subgroup")

    monkeypatch.setattr(spherical, "young_subgroup_histogram", no_young_sum)
    assert phi(Permutation.identity(12), 2, 6) == 1
    phi(g, 2, 6)
    monkeypatch.undo()

    def no_kdet(*args, **kwargs):
        raise AssertionError("(6,2) took the kdet ratio")

    monkeypatch.setattr(spherical, "kdet", no_kdet)
    assert phi(Permutation.identity(12), 6, 2) == 1
    phi(g, 6, 2)


def test_phi_kdet_route_caps():
    g = Permutation.identity(12)
    with pytest.raises(CapExceededError):
        phi(g, 2, 6, cap=1000)
    with pytest.raises(CapExceededError):
        xi_matrix(2, 6, cap=1000)
    with pytest.raises(CapExceededError):
        phi(Permutation.identity(14), 2, 7, cap=10**8)  # kn = 14 > FACTORIAL_CAP


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
    for n, k in ((2, 2), (3, 2), (2, 3), (2, 4)):
        xi = xi_matrix(n, k)
        assert xi.gram == xi.gram.transpose()
        assert all(xi.gram[i, i] == 1 for i in range(xi.order))
        assert xi_matrix(n, k, cache_double_cosets=False).gram == xi.gram


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
