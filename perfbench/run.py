"""The wreathdet benchmark: one run of one workload.

    python3 perfbench/run.py --workload {symfun,gram,verify} --seed N \
        --seconds S --trace {0,1} [--out FILE]

Run it from the root of a checkout. With --trace 0 it times the workload
untraced and reports the end-to-end metrics; with --trace 1 it runs one
round untraced and the same round traced, in fresh interpreters, and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the whole run record,
with provenance, is appended to FILE (default perfbench/results/runs.jsonl).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# Every run must end within 180 s; the worker gets what is left of this.
RUN_BUDGET_S = 170.0


class RunError(Exception):
    pass


def timed_setup(workload, seed, tiny, deadline):
    """Seconds from starting a fresh interpreter to its first item being ready."""
    argv = [sys.executable, str(WORKER), "setup", workload, str(seed)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RunError(f"setup of {workload} failed (exit {code})")
    return elapsed


def run_worker(args, extra, deadline):
    argv = [sys.executable, str(WORKER), "run", args.workload, str(args.seed), *extra]
    if args.tiny:
        argv.append("--tiny")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{args.workload} did not finish within {RUN_BUDGET_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalized_setup(args, deadline):
    """(raw, reference) seconds of one set-up, the reference loop timed
    around it giving the machine's speed at that moment."""
    around = [speed.time_reference(args.workload) for _ in range(3)]
    raw = timed_setup(args.workload, args.seed, args.tiny, deadline)
    around += [speed.time_reference(args.workload) for _ in range(3)]
    return raw, raw * speed.scale(args.workload, around)


def end_to_end(args, deadline):
    setups = [normalized_setup(args, deadline) for _ in range(SETUP_REPEATS)]
    result = run_worker(args, ["--seconds", str(args.seconds)], deadline)
    raw = [r["s"] for r in result["items"]]
    times = [r["ref_s"] for r in result["items"]]
    metrics = {
        "setup_s": (statistics.median(n for _, n in setups), "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
    }
    # Too noisy for a bound (see README.md), so kept out of the metrics.
    extra = {
        "item_p50_ms": statistics.median(times) * 1e3,
        "raw": {"setup_s": statistics.median(s for s, _ in setups),
                "items_per_s": len(raw) / sum(raw),
                "item_p50_ms": statistics.median(raw) * 1e3},
        "setup_runs_s": setups,
        "probe_samples": result["probe_samples"],
        "rounds": result["rounds"],
    }
    # p90 needs ten items beyond it; only long item streams have that many.
    if len(times) >= 100:
        extra["item_p90_ms"] = statistics.quantiles(times, n=10)[8] * 1e3
    return [result], metrics, extra


def traced(args, deadline):
    plain = run_worker(args, ["--rounds", "1"], deadline)
    out_dir = Path(args.out).parent
    trace_dir = out_dir / f"tmp-{os.getpid()}"
    try:
        result = run_worker(args, ["--rounds", "1", "--trace", "--trace-dir", str(trace_dir)],
                            deadline)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    dump = result.pop("trace")
    overhead = sum(r["s"] for r in result["items"]) / sum(r["s"] for r in plain["items"])
    values = tracer.layer_values(dump, overhead)
    units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
    metrics = {name: (values[name], units[name]) for name in units}
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps(dump["spans"]))
    return [plain, result], metrics, {"spans_file": str(spans_file)}


def outcome(items):
    """Failures are items that raised or disagreed with their check."""
    failed = sum(1 for r in items if not r["ok"])
    return {"correct": failed == 0, "attempted": len(items), "failed": failed,
            "failed_ratio": failed / len(items)}


def git_commit():
    """HEAD's commit, read from .git without running git; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library's sources: names the code where git cannot."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(worker):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "kernel_backend": worker["kernel_backend"],
        "env": worker["env"],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(HERE / "results" / "runs.jsonl"))
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes (kn <= 6), for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "wreathdet" / "__init__.py").is_file():
        print(f"error: no wreathdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        workers, metrics, extra = (traced if args.trace else end_to_end)(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    items = [r for w in workers for r in w["items"]]
    tally = outcome(items)
    summary = {key: tally[key] for key in ("correct", "attempted", "failed")}
    summary["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    skipped = workloads.GRAM_SKIPPED if args.workload == "gram" and not args.tiny else ()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **summary,
        "failed_ratio": tally["failed_ratio"],
        "skipped": [f"({n},{k})" for n, k in skipped],
        "extra": extra,
        "provenance": provenance(workers[-1]),
        "items": items,
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for r in items:
        if not r["ok"]:
            print(f"FAILED {r['label']} ({r['s']:.3f} s) {r['error'].strip()}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
