"""Compare two result files of perfbench/run.py, or check traced counts.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --counts FILE.jsonl [FILE.jsonl ...]

The first form prints, for each workload and metric, each side's median and
quartiles, the ratio CHANGE/BASE of the medians and, for end-to-end metrics,
a verdict against the bounds in BENCHMARK.json:

    improved    CHANGE wins at least 9 of 10 runs paired by seed, and its
                median beats BASE's by more than BASE's quartile distance
    worse       CHANGE's median is worse than BASE's by more than the bound
    unresolved  either side's quartile distance is wider than the bound
    no worse    none of the above

It refuses files whose kernel backends differ. The second form checks that
traced runs of one workload on one seed repeat every work count exactly
(calls, perms, sigmas, elements, entries, order sums and cache hit ratios)
and lists each count that differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    """(q1, median, q3); the quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    """base, change: {seed: [values]} of one metric on one workload."""
    a = [v for vs in base.values() for v in vs]
    b = [v for vs in change.values() for v in vs]
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    sign = 1 if better == "lower" else -1
    worse_by = sign * (mb - ma) / ma
    pairs = [(x, y) for seed in base.keys() & change.keys()
             for x, y in zip(base[seed], change[seed])]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > (qa3 - qa1) / ma:
        return "improved"
    if worse_by > bound:
        return "worse"
    if max((qa3 - qa1) / ma, (qb3 - qb1) / mb) > bound:
        return "unresolved"
    return "no worse"


def by_workload(records, trace):
    """{workload: {metric: {seed: [values]}}} over runs with this trace flag."""
    out = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for r in records:
        if r["trace"] == trace:
            for name, m in r["metrics"].items():
                out[r["workload"]][name][r["seed"]].append(m["value"])
    return out


def backends(records):
    return {json.dumps(r["provenance"]["kernel_backend"]) for r in records}


def compare(base, change, spec):
    if backends(base) != backends(change) or len(backends(base)) != 1:
        sys.exit(f"refusing to compare: kernel backends {sorted(backends(base))} "
                 f"vs {sorted(backends(change))}")
    for label, records in (("base", base), ("change", change)):
        p = records[0]["provenance"]
        print(f"{label}: {len(records)} runs, commit {p['git_commit']}, "
              f"source {p['source_sha256'][:12]}, python {p['python']}, nproc {p['nproc']}, "
              f"backend {p['kernel_backend']}, env {p['env']}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for trace, kind in ((0, "end-to-end"), (1, "per-layer")):
        a, b = by_workload(base, trace), by_workload(change, trace)
        for workload in sorted(a.keys() & b.keys()):
            print(f"\n{workload} ({kind})")
            print(f"{'metric':48} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34}"
                  f" {'ratio':>7}  verdict")
            for name in sorted(a[workload].keys() & b[workload].keys()):
                sides = []
                for side in (a[workload][name], b[workload][name]):
                    q1, med, q3 = quartiles([v for vs in side.values() for v in vs])
                    sides.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}]"))
                ratio = f"{sides[1][0] / sides[0][0]:.3f}" if sides[0][0] else "-"
                v = "-"
                if name in bounds:
                    v = verdict(a[workload][name], b[workload][name],
                                bounds[name]["better"], bounds[name]["bound"])
                print(f"{name:48} {sides[0][1]:>34} {sides[1][1]:>34} {ratio:>7}  {v}")


def count_mismatches(records, spec):
    """Each per-layer count that differs between traced runs of one workload
    on one seed, as (workload, seed, metric, distinct values)."""
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] == "count" or m["name"].endswith("hit_ratio")]
    groups = defaultdict(list)
    for r in records:
        if r["trace"] == 1:
            groups[(r["workload"], r["seed"], r.get("tiny", False))].append(r["metrics"])
    out = []
    for (workload, seed, _), runs in sorted(groups.items()):
        for name in counts:
            seen = sorted({json.dumps(m[name]["value"]) for m in runs})
            if len(seen) > 1:
                out.append((workload, seed, name, seen))
    return out, {key: len(runs) for key, runs in groups.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--counts", action="store_true")
    p.add_argument("files", nargs="+")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.counts:
        mismatches, groups = count_mismatches(
            [r for f in args.files for r in load(f)], spec)
        for (workload, seed, _), n in sorted(groups.items()):
            print(f"{workload} seed {seed}: {n} traced runs")
        for workload, seed, name, seen in mismatches:
            print(f"COUNT DIFFERS {workload} seed {seed} {name}: {', '.join(seen)}")
        print("counts repeat" if not mismatches else f"{len(mismatches)} counts differ")
        return 1 if mismatches else 0
    if len(args.files) != 2:
        p.error("give two result files, BASE and CHANGE")
    compare(load(args.files[0]), load(args.files[1]), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
