"""Permutations of [N] = {1..N}, cycle counting, and group enumerations.

Permutations are stored in one-line notation over 1-based labels. The
product p * q is composition with q applied first: (p * q)(i) = p(q(i)).
Enumeration order is always lexicographic on the one-line notation, so
output is reproducible.
All values are immutable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

from . import _kernels, config
from .errors import CapExceededError


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {images}")
        self.images = images

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def from_cycles(n, *cycles):
        """E.g. from_cycles(4, (1, 2), (3, 4)) for the double transposition."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(images)

    @staticmethod
    def from_zero_based(images0):
        return Permutation(i + 1 for i in images0)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("degrees differ")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(inv)

    def zero_based(self):
        return tuple(v - 1 for v in self.images)

    def cycles(self):
        """Cycle decomposition, fixed points included, smallest element first."""
        out = []
        seen = set()
        for s in range(1, self.degree + 1):
            if s not in seen:
                cyc = []
                t = s
                while t not in seen:
                    seen.add(t)
                    cyc.append(t)
                    t = self(t)
                out.append(tuple(cyc))
        return out

    def cycle_count(self):
        return _kernels.cycle_count0(self.zero_based())

    def cycle_type(self):
        """Cycle lengths, weakly decreasing."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def sign(self):
        return -1 if (self.degree - self.cycle_count()) % 2 else 1

    def is_identity(self):
        return all(v == i + 1 for i, v in enumerate(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation{self.images}"


def cycle_count(p):
    """nu_N(p): the number of cycles of p, fixed points included."""
    return p.cycle_count()


def enumerate_group(n):
    """All n! permutations of [n] in lexicographic order."""
    if n > config.FACTORIAL_CAP:
        raise CapExceededError("symmetric group degree", n, config.FACTORIAL_CAP)
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


def young_subgroup_order(n, k):
    return factorial(k) ** n


def young_subgroup_tuples0(n, k):
    """S_k^n as 0-based image tuples in S_{kn}, lexicographic order.

    Block i is {(i-1)k+1, ..., ik}; every element permutes each block within
    itself.
    """
    order = young_subgroup_order(n, k)
    if order > config.YOUNG_SUBGROUP_CAP:
        raise CapExceededError(f"Young subgroup S_{k}^{n}", order, config.YOUNG_SUBGROUP_CAP)
    base = list(itertools.permutations(range(k)))
    for combo in itertools.product(base, repeat=n):
        yield tuple(b * k + j for b, sig in enumerate(combo) for j in sig)


@lru_cache(maxsize=8)
def _young_tuples_cached(n, k):
    return tuple(young_subgroup_tuples0(n, k))


def young_subgroup_elements(n, k):
    """The (k!)^n elements of S_k^n inside S_{kn}, lexicographic order."""
    for images in young_subgroup_tuples0(n, k):
        yield Permutation.from_zero_based(images)


def young_subgroup_histogram(left0, n, k):
    """Cycle-count histogram of left o sigma over sigma in S_k^n.

    `left0` is a fixed 0-based image tuple of degree kn. Small subgroups are
    materialized once and cached; large ones are streamed in batches.
    """
    N = k * n
    if young_subgroup_order(n, k) <= 200_000:
        return _kernels.nu_histogram_compose(left0, _young_tuples_cached(n, k), N)
    counts = [0] * (N + 1)
    stream = young_subgroup_tuples0(n, k)
    while batch := list(itertools.islice(stream, 65536)):
        part = _kernels.nu_histogram_compose(left0, batch, N)
        counts = [a + b for a, b in zip(counts, part)]
    return counts


def psi_embed(tau, k):
    """The block-permuting embedding S_n -> S_{kn}: (i-1)k+j -> (tau(i)-1)k+j."""
    n = tau.degree
    images = [0] * (k * n)
    for i in range(1, n + 1):
        off = (tau(i) - 1) * k
        for j in range(1, k + 1):
            images[(i - 1) * k + j - 1] = off + j
    return Permutation(images)


def phi_embed(sigmas, k=None):
    """The blockwise embedding S_k^n -> S_{kn}: (i-1)k+j -> (i-1)k+sigma_i(j)."""
    sigmas = list(sigmas)
    if k is None:
        k = sigmas[0].degree
    if any(s.degree != k for s in sigmas):
        raise ValueError("all block permutations must have the same degree")
    images = []
    for i, sig in enumerate(sigmas):
        off = i * k
        images.extend(off + sig(j) for j in range(1, k + 1))
    return Permutation(images)


def support_subgroup_tuples0(I, n):
    """S_n(I): 0-based image tuples of permutations fixing [n] \\ I pointwise."""
    members = sorted(set(I))
    if any(x < 1 or x > n for x in members):
        raise ValueError(f"support {members} is not a subset of [{n}]")
    out = []
    for arrangement in itertools.permutations(members):
        images = list(range(n))
        for pos, val in zip(members, arrangement):
            images[pos - 1] = val - 1
        out.append(tuple(images))
    return out


def support_subgroup_elements(I, n):
    """S_n(I) as Permutation objects."""
    return [Permutation.from_zero_based(t) for t in support_subgroup_tuples0(I, n)]


def shifted_cycle_sum(g, I, alpha):
    """(sum over w in S_n(I) of alpha^(n - nu(g w)), m) with the exponent m.

    The sum always factors as alpha^m * prod_{1 <= i < |I|} (1 + i*alpha)
    where m = n - max_w nu(g w); both the raw sum and m are returned so the
    factorization can be checked independently.
    """
    n = g.degree
    members = sorted(set(I))
    if len(members) > config.FACTORIAL_CAP:
        raise CapExceededError("support size", len(members), config.FACTORIAL_CAP)
    sigmas = support_subgroup_tuples0(members, n)
    counts = _kernels.nu_histogram_compose(g.zero_based(), sigmas, n)
    value = 0
    top = 0
    for nu, cnt in enumerate(counts):
        if cnt:
            top = nu
            value = value + cnt * alpha ** (n - nu)
    return value, n - top
