"""The benchmark's workloads, as seeded rounds of items.

Each workload is an endless sequence of rounds. A round is a fixed list of
items whose inputs come from (workload, seed, round number) alone, so the
same seed always gives the same inputs. An item is one closed-loop request:
`compute` is the timed call into the library and `check` is the independent
route it must agree with, run after the timer stops.

Runs measure whole rounds. Item costs differ by three orders of magnitude
(a 4x4 kdet against an order-132 Gram matrix), so cutting a run inside a
round would let the mix of cheap and dear items, rather than the program,
decide items_per_s.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import speed

WORKLOADS = ("symfun", "gram", "verify")

# (n, k) pairs of acceptance criterion 8 with n, k >= 2.
SYMFUN_PAIRS = ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4))
TINY_SYMFUN_PAIRS = ((2, 2), (3, 2), (2, 3))

# The pairs xi_scan(12) builds. (3, 4) and (4, 3) have Gram order 462, over
# XI_ORDER_CAP, and xi_scan reports them as skipped; they stay out of the
# workload so that raising the cap cannot change what the workload measures.
GRAM_PAIRS = (
    (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (2, 6), (6, 2),
)
GRAM_SKIPPED = ((3, 4), (4, 3))
TINY_GRAM_PAIRS = ((2, 2), (2, 3), (3, 2))

VERIFY_PER_ROUND = 4
VERIFY_SUITE = "all"
# The smallest suite (all of its identities are at kn <= 6).
TINY_VERIFY_SUITE = "alphadet"


@dataclass(frozen=True)
class Item:
    label: str
    compute: Callable[[], object]
    check: Callable[[object], bool]


def _rng(workload, seed, round_no):
    return random.Random(f"{workload}:{seed}:{round_no}")


# --- symfun -------------------------------------------------------------------


def _equals(oracle):
    return lambda got: got == oracle()


def _cauchy_matrix(xs, ys, variant):
    from wreathdet.linalg import Matrix

    rows = []
    denom = Fraction(1)
    for x in xs:
        row = []
        for y in ys:
            d = x + y if variant == "plus" else 1 - x * y
            denom *= d
            row.append(1 / d)
        rows.append(row)
    return Matrix(rows), denom


def symfun_round(seed, round_no, *, tiny=False):
    """Acceptance-8-style identities: each kdet ratio against its classical
    definition, and both Cauchy variants against the product formula."""
    from wreathdet import symfun
    from wreathdet.tableaux import Partition
    from wreathdet.wreath import wrdet_direct

    rng = _rng("symfun", seed, round_no)
    items = []
    for n, k in TINY_SYMFUN_PAIRS if tiny else SYMFUN_PAIRS:
        xs = symfun.sample_distinct_fractions(rng, k * n, num_hi=9, den_hi=4)
        cx, cy = symfun.sample_cauchy_points(rng, n, k)
        tag = f"({n},{k})"
        mono, schur = Partition((2,)), Partition((1, 1))
        items += [
            Item(
                f"monomial(2) {tag}",
                lambda mono=mono, xs=xs, n=n, k=k: symfun.monomial_via_kdet(mono, xs, n, k),
                _equals(lambda mono=mono, xs=xs: symfun.monomial_direct(mono, xs)),
            ),
            Item(
                f"schur(1,1) {tag}",
                lambda lam=schur, xs=xs, n=n, k=k: symfun.schur_via_kdet(lam, xs, n, k),
                _equals(lambda lam=schur, xs=xs: symfun.schur_bialternant(lam, xs)),
            ),
        ]
        for kind, d, direct in (
            ("power", 2, symfun.power_direct),
            ("complete", 1, symfun.complete_direct),
            ("elementary", 1, symfun.elementary_direct),
        ):
            items.append(
                Item(
                    f"{kind}({d}) {tag}",
                    lambda kind=kind, d=d, xs=xs, n=n, k=k: symfun.pde_via_kdet(kind, d, xs, n, k),
                    _equals(lambda direct=direct, d=d, xs=xs: direct(d, xs)),
                )
            )
        for variant in ("plus", "geometric"):
            matrix, denom = _cauchy_matrix(cx, cy, variant)
            items.append(
                Item(
                    f"cauchy-{variant} {tag}",
                    lambda matrix=matrix, k=k: wrdet_direct(matrix, k),
                    _equals(
                        lambda cx=cx, cy=cy, denom=denom, n=n, k=k: symfun.diff_product(cy) ** k
                        / denom
                        * symfun.wreath_vandermonde(cx, n, k)
                    ),
                )
            )
    rng.shuffle(items)
    return items


# --- gram ---------------------------------------------------------------------


class _LastGram:
    """Keeps the Gram matrix xi_report builds, so the check can take an
    independent determinant of it without building it a second time."""

    matrix = None


def _capture_gram():
    from wreathdet import spherical

    build = spherical.xi_matrix
    if getattr(build, "_keeps_last", False):
        return

    def xi_matrix(*args, **kwargs):
        xi = build(*args, **kwargs)
        _LastGram.matrix = xi.gram
        return xi

    xi_matrix._keeps_last = True
    spherical.xi_matrix = xi_matrix


def _gram_ok(report):
    from wreathdet.linalg import det

    minors = [Fraction(m) for m in report["leading_minors"]]
    gram = _LastGram.matrix
    return (
        report["positive_definite"] is True
        and len(minors) == report["order"] == gram.nrows
        and all(m > 0 for m in minors)
        and minors[-1] == Fraction(report["det"]) == det(gram)
    )


def gram_round(seed, round_no, *, tiny=False):
    """The exact positivity scan: one item per (n, k) pair, through xi_report,
    in xi_scan's order. The pairs are the whole input, so the seed changes
    nothing. (A shuffled order was tried: items after the order-132 pairs
    ran 40% slower, which made the median item depend on the seed.)

    Call after any tracer is installed: the capture wraps whatever
    spherical.xi_matrix is at that point.
    """
    from wreathdet.spherical import xi_report

    _capture_gram()
    return [
        Item(f"xi({n},{k})", lambda n=n, k=k: xi_report(n, k), _gram_ok)
        for n, k in (TINY_GRAM_PAIRS if tiny else GRAM_PAIRS)
    ]


# --- verify -------------------------------------------------------------------


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str


def _verify_ok(run):
    if run.code != 0:
        return False
    try:
        return json.loads(run.stdout)["passed"] is True
    except (ValueError, KeyError, TypeError):
        return False


def cli_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env, probe):
    """Run one CLI process to completion; its peak RSS lands in
    RUSAGE_CHILDREN. An untraced process samples its own speed and hands the
    samples to `probe`."""
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=150)
    if probe is not None:
        last = proc.stderr.rstrip().rpartition("\n")[2]
        if last.startswith(speed.MARK):
            probe.merge(*json.loads(last[len(speed.MARK):]))
    return CliRun(proc.returncode, proc.stdout)


def verify_round(seed, round_no, *, root, tiny=False, trace_dir=None, probe=None):
    """Fresh `wreathdet verify` processes, one per CLI seed, each running
    wreathdet.cli.main through `worker.py cli`.

    With `trace_dir`, each process runs under the tracer and leaves its trace
    in that directory, named after the item. Otherwise it samples its speed
    for `probe`.
    """
    env = cli_env(root)
    suite = TINY_VERIFY_SUITE if tiny else VERIFY_SUITE
    count = 1 if tiny else VERIFY_PER_ROUND
    items = []
    for i in range(count):
        cli_seed = seed * 1000 + round_no * count + i
        argv = [sys.executable, str(Path(__file__).with_name("worker.py")), "cli",
                "--item", str(cli_seed)]
        if trace_dir is not None:
            argv += ["--dump", str(Path(trace_dir) / f"cli-{cli_seed}.json")]
        argv += ["--", "verify", suite, "--seed", str(cli_seed), "--format", "json"]
        items.append(
            Item(f"verify {suite} --seed {cli_seed}",
                 lambda argv=argv: run_cli(argv, env, probe), _verify_ok)
        )
    return items


def make_round(workload, seed, round_no, *, root, tiny=False, trace_dir=None, probe=None):
    if workload == "symfun":
        return symfun_round(seed, round_no, tiny=tiny)
    if workload == "gram":
        return gram_round(seed, round_no, tiny=tiny)
    if workload == "verify":
        return verify_round(seed, round_no, root=root, tiny=tiny, trace_dir=trace_dir,
                            probe=probe)
    raise ValueError(f"unknown workload {workload!r}")
