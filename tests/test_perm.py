import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from wreathdet.errors import CapExceededError
from wreathdet.perm import (
    Permutation,
    cycle_count,
    enumerate_group,
    phi_embed,
    psi_embed,
    shifted_cycle_sum,
    support_subgroup_elements,
    young_subgroup_elements,
    young_subgroup_order,
)
from wreathdet.rings import ALPHA


def brute_cycles(images):
    # independent cycle counter used as the oracle throughout this file
    left = set(range(1, len(images) + 1))
    count = 0
    while left:
        count += 1
        start = left.pop()
        t = images[start - 1]
        while t in left:
            left.remove(t)
            t = images[t - 1]
    return count


perm_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_cycle_count_examples():
    assert cycle_count(Permutation.identity(4)) == 4
    assert cycle_count(Permutation.from_cycles(4, (1, 2))) == 3
    assert cycle_count(Permutation.from_cycles(4, (1, 2, 3, 4))) == 1


@given(perm_strategy)
def test_cycle_count_matches_oracle_and_inverse(images):
    p = Permutation(images)
    assert p.cycle_count() == brute_cycles(p.images)
    assert p.cycle_count() == p.inverse().cycle_count()


@given(perm_strategy)
def test_inverse_and_sign(images):
    p = Permutation(images)
    assert (p * p.inverse()).is_identity()
    inversions = sum(
        1
        for i, j in itertools.combinations(range(len(images)), 2)
        if images[i] > images[j]
    )
    assert p.sign() == (-1) ** inversions


def test_composition_order():
    # (p * q)(i) = p(q(i))
    p = Permutation((2, 1, 3))
    q = Permutation((1, 3, 2))
    assert (p * q).images == (2, 3, 1)


def test_enumerate_group_counts_and_order():
    assert len(list(enumerate_group(1))) == 1
    perms = list(enumerate_group(3))
    assert len(perms) == 6
    assert [p.images for p in perms] == sorted(p.images for p in perms)
    assert len(set(enumerate_group(4))) == 24


def test_enumerate_group_cap():
    with pytest.raises(CapExceededError):
        next(enumerate_group(13))


def test_young_subgroup_counts():
    elements = list(young_subgroup_elements(3, 2))
    assert len(elements) == 8 == young_subgroup_order(3, 2)
    # (1, k): the whole S_k; (n, 1): identity only
    assert {p.images for p in young_subgroup_elements(1, 3)} == {
        p.images for p in enumerate_group(3)
    }
    assert [p.images for p in young_subgroup_elements(4, 1)] == [(1, 2, 3, 4)]


def test_young_subgroup_blocks_fixed():
    for p in young_subgroup_elements(3, 2):
        for block in ((1, 2), (3, 4), (5, 6)):
            assert {p(i) for i in block} == set(block)


def test_young_subgroup_cap():
    # 11! > 10^7 elements; the order alone bounds the enumeration, so an
    # ambient degree past the factorial cap (kn = 14) is no error
    with pytest.raises(CapExceededError):
        next(young_subgroup_elements(1, 11))
    assert len(list(young_subgroup_elements(7, 2))) == 128


def test_psi_embed_example():
    tau = Permutation((2, 1))
    assert psi_embed(tau, 2).images == (3, 4, 1, 2)
    assert psi_embed(Permutation.identity(3), 2).is_identity()


def test_psi_embed_homomorphism():
    # multiplicative and injective across the whole group, n <= 4, k <= 3
    for n in (2, 3, 4):
        group = list(enumerate_group(n))
        for k in (2, 3):
            images = {psi_embed(t, k).images for t in group}
            assert len(images) == factorial(n)
            for s in group:
                for t in group:
                    assert psi_embed(s * t, k) == psi_embed(s, k) * psi_embed(t, k)


def test_phi_embed_blockwise():
    sigmas = [Permutation((2, 1)), Permutation((1, 2)), Permutation((2, 1))]
    assert phi_embed(sigmas).images == (2, 1, 3, 4, 6, 5)


def test_support_subgroup():
    elems = support_subgroup_elements((1, 3), 4)
    assert len(elems) == 2
    for w in elems:
        assert w(2) == 2 and w(4) == 4


def test_shifted_cycle_sum_identity_cases():
    n = 4
    g = Permutation.identity(n)
    value, m = shifted_cycle_sum(g, range(1, n + 1), ALPHA)
    expect = (1 + ALPHA) * (1 + 2 * ALPHA) * (1 + 3 * ALPHA)
    assert value == expect and m == 0
    value, m = shifted_cycle_sum(g, (), ALPHA)
    assert value == 1 and m == 0


def test_shifted_cycle_sum_factorization_brute():
    # raw sums over S_n(I), recomputed without the library kernel
    n = 4
    for g in enumerate_group(n):
        for r in range(n + 1):
            for I in itertools.combinations(range(1, n + 1), r):
                value, m = shifted_cycle_sum(g, I, ALPHA)
                raw = sum(
                    ALPHA ** (n - brute_cycles((g * w).images))
                    for w in support_subgroup_elements(I, n)
                )
                assert value == raw
                factored = ALPHA**m
                for i in range(1, len(I)):
                    factored = factored * (1 + i * ALPHA)
                assert value == factored
