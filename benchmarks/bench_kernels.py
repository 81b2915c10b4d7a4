"""Benchmark: compiled kernel vs pure-Python fallback.

Times the two kernel entry points on representative workloads and a couple
of end-to-end operations. Run from the repository root:

    python benchmarks/bench_kernels.py
"""

import random
import time

from wreathdet._kernels import _pycore

try:
    from wreathdet._kernels import _cycore
except ImportError:
    _cycore = None


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def rand_perm0(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def bench_histogram(backend, n, count, rng):
    left = rand_perm0(rng, n)
    sigmas = [rand_perm0(rng, n) for _ in range(count)]
    return timeit(lambda: backend.nu_histogram_compose(left, sigmas, n))


def bench_products(backend, n, rng, hi):
    rows = [[rng.randint(-hi, hi) for _ in range(n)] for _ in range(n)]
    return timeit(lambda: backend.nu_grouped_products(rows, n))


def row(label, pure, comp):
    speedup = f"{pure / comp:6.1f}x" if comp else "    n/a"
    comp_s = f"{comp:10.4f}s" if comp else "       -  "
    print(f"{label:<44} {pure:10.4f}s {comp_s} {speedup}")


def main():
    rng = random.Random(0)
    print(f"{'workload':<44} {'pure':>11} {'compiled':>11} {'speedup':>8}")
    for n, count in ((8, 50_000), (10, 100_000), (12, 100_000)):
        pure = bench_histogram(_pycore, n, count, rng)
        comp = bench_histogram(_cycore, n, count, rng) if _cycore else None
        row(f"nu_histogram_compose n={n}, {count} perms", pure, comp)
    for n, hi in ((7, 9), (8, 9), (8, 10**14)):
        pure = bench_products(_pycore, n, rng, hi)
        comp = bench_products(_cycore, n, rng, hi) if _cycore else None
        tag = "bigint" if hi > 10**6 else "int64"
        row(f"nu_grouped_products n={n} ({tag} entries)", pure, comp)

    # end-to-end: the wreath determinant of a random 8x4 rational matrix by
    # the defining sum (wrdet_direct itself takes the cycle-cover DP, which
    # does not use the kernel)
    import os
    import subprocess
    import sys

    snippet = (
        "import random, time;"
        "from fractions import Fraction;"
        "from wreathdet.alphadet import adet_sum;"
        "from wreathdet.verify import rand_matrix;"
        "from wreathdet.wreath import column_k_plex;"
        "rng = random.Random(1);"
        "A = column_k_plex(rand_matrix(rng, 8, 4), 2);"
        "t0 = time.perf_counter();"
        "[adet_sum(A, Fraction(-1, 2)) for _ in range(5)];"
        "print((time.perf_counter() - t0) / 5)"
    )
    times = {}
    for mode in ("0", "1"):
        env = dict(os.environ, WREATHDET_PURE=mode)
        out = subprocess.run(
            [sys.executable, "-c", snippet], env=env, capture_output=True, text=True
        )
        times[mode] = float(out.stdout.strip())
    row("wrdet 8x4 rational by adet_sum (end to end)", times["1"], times["0"])


if __name__ == "__main__":
    main()
