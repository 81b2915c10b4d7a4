"""The library's inner loops, in pure Python.

Cycle-count histograms over streams of permutations (behind the
Young-subgroup-sum oracles), and cycle-grouped permutation sums over integer
matrices (behind the `adet_sum` oracle). Permutations here are 0-based
image tuples.
"""

from itertools import permutations

BACKEND = "python"


def cycle_count0(images):
    """Number of cycles of a 0-based image sequence (fixed points count)."""
    n = len(images)
    seen = 0
    c = 0
    for s in range(n):
        if not (seen >> s) & 1:
            c += 1
            t = s
            while not (seen >> t) & 1:
                seen |= 1 << t
                t = images[t]
    return c


def nu_histogram_compose(left, sigmas, n):
    """counts[v] = #{sigma in sigmas : (left o sigma) has v cycles}.

    `left` is a fixed 0-based image tuple; each sigma is applied first,
    i.e. the composite maps i to left[sigma[i]].
    """
    counts = [0] * (n + 1)
    rng = range(n)
    for sig in sigmas:
        seen = 0
        c = 0
        for s in rng:
            if not (seen >> s) & 1:
                c += 1
                t = s
                while not (seen >> t) & 1:
                    seen |= 1 << t
                    t = left[sig[t]]
        counts[c] += 1
    return counts


def nu_grouped_products(rows, n):
    """sums[v] = sum over n-permutations w with v cycles of prod_i rows[w(i)][i].

    `rows` is an n x n integer matrix (arbitrary precision).
    """
    sums = [0] * (n + 1)
    if n == 0:
        sums[0] = 1
        return sums
    rng = range(n)
    for w in permutations(rng):
        p = 1
        for i in rng:
            e = rows[w[i]][i]
            if not e:
                p = 0
                break
            p *= e
        if p:
            seen = 0
            c = 0
            for s in rng:
                if not (seen >> s) & 1:
                    c += 1
                    t = s
                    while not (seen >> t) & 1:
                        seen |= 1 << t
                        t = w[t]
            sums[c] += p
    return sums
