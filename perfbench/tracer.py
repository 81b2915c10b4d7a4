"""Span tracing around the library's layers, from outside the library.

`Tracer.install` replaces each function named in LAYERS, in every loaded
`wreathdet` module that holds it, by a wrapper that records a span: name,
start, end, parent span and item id. It also wraps `Poly.__mul__` and
`Poly.__add__`. Spans are kept in memory and summed when the run ends. A
layer's self time is its spans' duration minus the time their child spans
cover.

Spans are recorded only between `begin_item` and `end_item`, so the
independent checks a workload runs after its timer stops never count.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from math import factorial
from time import perf_counter

# Layer functions: (span name, module, attribute).
LAYERS = (
    ("kernels.nu_grouped_products", "wreathdet._kernels", "nu_grouped_products"),
    ("kernels.nu_histogram_compose", "wreathdet._kernels", "nu_histogram_compose"),
    ("alphadet.adet_sum", "wreathdet.alphadet", "adet_sum"),
    ("alphadet.adet_laplace", "wreathdet.alphadet", "adet_laplace"),
    ("alphadet.kdet", "wreathdet.alphadet", "kdet"),
    ("symfun.d_nk", "wreathdet.symfun", "d_nk"),
    ("symfun.wreath_vandermonde", "wreathdet.symfun", "wreath_vandermonde"),
    ("perm.young_subgroup_histogram", "wreathdet.perm", "young_subgroup_histogram"),
    ("spherical.phi", "wreathdet.spherical", "phi"),
    ("spherical.xi_matrix", "wreathdet.spherical", "xi_matrix"),
    ("linalg.det", "wreathdet.linalg", "det"),
    ("linalg.leading_principal_minors", "wreathdet.linalg", "leading_principal_minors"),
    ("linalg.solve_exact", "wreathdet.linalg", "solve_exact"),
    ("wreath.wrdet_direct", "wreathdet.wreath", "wrdet_direct"),
    ("wreath.wrdet_tableaux", "wreathdet.wreath", "wrdet_tableaux"),
    ("wreath.wrdet_symmetric", "wreathdet.wreath", "wrdet_symmetric"),
    ("wreath.wrdet_monomial", "wreathdet.wreath", "wrdet_monomial"),
    ("tableaux.standard_tableaux", "wreathdet.tableaux", "standard_tableaux"),
    ("tableaux.mn_character", "wreathdet.tableaux", "mn_character"),
    ("tableaux.kostka", "wreathdet.tableaux", "kostka"),
)

# Poly operators: (span name, the class attributes that alias one function).
POLY_OPS = (
    ("rings.Poly.mul", ("__mul__", "__rmul__")),
    ("rings.Poly.add", ("__add__", "__radd__")),
)

# Work counts, computed from each call's arguments and result.
WORK = {
    "kernels.nu_grouped_products": ("perms", lambda a, r: factorial(a[1])),
    "kernels.nu_histogram_compose": ("sigmas", lambda a, r: len(a[1])),
    "perm.young_subgroup_histogram": ("elements", lambda a, r: factorial(a[2]) ** a[1]),
    "spherical.xi_matrix": ("entries", lambda a, r: r.order * (r.order + 1) // 2),
    "linalg.leading_principal_minors": ("order_sum", lambda a, r: a[0].nrows),
}

# lru_caches whose hit ratio is reported: (metric prefix, module, attribute).
CACHES = (
    ("perm._young_tuples_cached", "wreathdet.perm", "_young_tuples_cached"),
    ("wreath._nk_sign_cached", "wreathdet.wreath", "_nk_sign_cached"),
    ("wreath.tableau_unit_wrdets", "wreathdet.wreath", "tableau_unit_wrdets"),
    ("wreath.wrdet_expansion_coefficients", "wreathdet.wreath", "wrdet_expansion_coefficients"),
)


SPANS = [name for name, _, _ in LAYERS] + [name for name, _ in POLY_OPS]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in WORK:
            out.append((f"{name}.{WORK[name][0]}", "count", "lower"))
    out.append(("spherical.xi_matrix.coset_hit_ratio", "ratio", "higher"))
    out += [(f"{name}.hit_ratio", "ratio", "higher") for name, _, _ in CACHES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span or None, item]
        self.work = Counter()
        self.cache_counts = {name: [0, 0] for name, _, _ in CACHES}
        self.item = None
        self.on = False
        self._local = threading.local()
        self._cache_start = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        work = WORK.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item]
            spans.append(span)
            stack.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                self.work[f"{name}.{work[0]}"] += work[1](args, result)
            return result

        return traced

    def install(self):
        """Wrap every layer function wherever a wreathdet module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "wreathdet" or key.startswith("wreathdet.")]
        for name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        poly = sys.modules["wreathdet.rings"].Poly
        for name, attrs in POLY_OPS:
            wrapper = self._wrap(name, poly.__dict__[attrs[0]])
            for attr in attrs:
                setattr(poly, attr, wrapper)

    def _cache_infos(self):
        return {name: getattr(sys.modules[module], attr).cache_info()
                for name, module, attr in CACHES}

    def begin_item(self, item):
        self.item = item
        self._cache_start = self._cache_infos()
        self.on = True

    def end_item(self):
        self.on = False
        for name, info in self._cache_infos().items():
            start = self._cache_start[name]
            self.cache_counts[name][0] += info.hits - start.hits
            self.cache_counts[name][1] += info.misses - start.misses

    def dump(self):
        """Sums and spans as plain JSON data; parents become span indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        child_time = Counter()
        for span in self.spans:
            if span[3] is not None:
                child_time[id(span[3])] += span[2] - span[1]
        layers = {}
        phi_in_xi = 0
        for span in self.spans:
            calls_self = layers.setdefault(span[0], [0, 0.0])
            calls_self[0] += 1
            calls_self[1] += span[2] - span[1] - child_time[id(span)]
            if span[0] == "spherical.phi" and span[3] is not None \
                    and span[3][0] == "spherical.xi_matrix":
                phi_in_xi += 1
        return {
            "layers": layers,
            "work": dict(self.work),
            "caches": self.cache_counts,
            "phi_in_xi": phi_in_xi,
            "spans": [
                [s[0], s[1], s[2], None if s[3] is None else index[id(s[3])], s[4]]
                for s in self.spans
            ],
        }


def merge(dumps):
    """One dump from several (one per traced process)."""
    out = {"layers": {}, "work": Counter(), "caches": {}, "phi_in_xi": 0, "spans": []}
    for d in dumps:
        for name, (calls, self_s) in d["layers"].items():
            acc = out["layers"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        out["work"].update(d["work"])
        for name, (hits, misses) in d["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        out["phi_in_xi"] += d["phi_in_xi"]
        base = len(out["spans"])
        out["spans"] += [
            [s[0], s[1], s[2], None if s[3] is None else s[3] + base, s[4]] for s in d["spans"]
        ]
    out["work"] = dict(out["work"])
    return out


def layer_values(dump, overhead_ratio):
    """{metric name: value} for every per-layer metric. A ratio with nothing
    to count (no lookups, no xi_matrix call) reads 0."""
    values = {}
    for name in SPANS:
        calls, self_s = dump["layers"].get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        if name in WORK:
            key = f"{name}.{WORK[name][0]}"
            values[key] = dump["work"].get(key, 0)
    entries = dump["work"].get("spherical.xi_matrix.entries", 0)
    values["spherical.xi_matrix.coset_hit_ratio"] = (
        1 - dump["phi_in_xi"] / entries if entries else 0.0
    )
    for name, _, _ in CACHES:
        hits, misses = dump["caches"].get(name, (0, 0))
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values
