import itertools
import random

import wreathdet
from wreathdet import _kernels


def brute_nu(images):
    left = set(range(len(images)))
    c = 0
    while left:
        c += 1
        t = left.pop()
        t = images[t]
        while t in left:
            left.remove(t)
            t = images[t]
    return c


def brute_histogram(left, sigmas, n):
    counts = [0] * (n + 1)
    for sig in sigmas:
        counts[brute_nu(tuple(left[sig[i]] for i in range(n)))] += 1
    return counts


def brute_grouped_products(rows, n):
    sums = [0] * (n + 1)
    if n == 0:
        return [1]
    for w in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= rows[w[i]][i]
        sums[brute_nu(w)] += prod
    return sums


def random_perm0(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def test_pure_histogram_matches_brute():
    rng = random.Random(1)
    for n in (1, 3, 5):
        left = random_perm0(rng, n)
        sigmas = [random_perm0(rng, n) for _ in range(20)]
        assert _kernels.nu_histogram_compose(left, sigmas, n) == brute_histogram(
            left, sigmas, n
        )


def test_pure_grouped_products_matches_brute():
    rng = random.Random(2)
    for n in range(0, 6):
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert _kernels.nu_grouped_products(rows, n) == brute_grouped_products(rows, n)


def test_grouped_products_zero_pruning_pattern():
    # delta-pattern matrix: only block permutations contribute
    rows = [
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]
    sums = _kernels.nu_grouped_products(rows, 4)
    assert sum(sums) == 4  # (2!)^2 permutations survive
    assert sums == brute_grouped_products(rows, 4)


def test_backend_contract():
    # perfbench records KERNEL_BACKEND and wraps these two kernels by name
    assert wreathdet.KERNEL_BACKEND == "python"
    assert callable(_kernels.nu_grouped_products)
    assert callable(_kernels.nu_histogram_compose)
    assert _kernels.cycle_count0((1, 0, 2)) == 2
