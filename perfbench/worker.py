"""One fresh interpreter of the benchmark, started by run.py.

    worker.py setup WORKLOAD SEED [--tiny]
        import wreathdet, build the first round, print "ready"
    worker.py run WORKLOAD SEED (--seconds S | --rounds N) [--trace] [--tiny]
        run whole rounds and print one JSON line with every item's time
    worker.py cli --item ID [--dump PATH] -- ARGS...
        `wreathdet ARGS...`, sampling machine speed, or with --dump under
        the tracer, its trace written to PATH

wreathdet is imported from the `src` directory of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    src = ROOT / "src"
    if not (src / "wreathdet" / "__init__.py").is_file():
        sys.exit(f"no wreathdet package under {src}")
    sys.path.insert(0, str(src))
    import wreathdet

    if Path(wreathdet.__file__).resolve().parent != (src / "wreathdet").resolve():
        sys.exit(f"imported wreathdet from {wreathdet.__file__}, not from {src}")
    return wreathdet


def run_items(items, tracer=None, first_id=0, probe=None):
    """Time each item's compute, then check it with the timer stopped.

    Returns {label, start, s, ok, error} per item, `s` in seconds from
    `start` on the perf_counter clock. An exception, a cap error included,
    fails the item. Time the probe spent sampling in this thread during an
    item is left out of the item's time.
    """
    records = []
    for i, item in enumerate(items, first_id):
        error = ""
        if tracer is not None:
            tracer.begin_item(i)
        sampling = probe.total if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            result = item.compute()
        except Exception:
            seconds = time.perf_counter() - t0
            ok, error = False, traceback.format_exc(limit=3)
        else:
            seconds = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.end_item()
        if probe is not None:
            seconds -= probe.total - sampling
        if not error:
            try:
                ok = bool(item.check(result))
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
        records.append({"label": item.label, "start": t0, "s": seconds, "ok": ok,
                        "error": error})
    return records


def peak_rss_kb():
    # Linux reports ru_maxrss in KiB; for children, the largest waited-for child.
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def cmd_setup(args):
    import_library()
    workloads.make_round(args.workload, args.seed, 0, root=ROOT, tiny=args.tiny)
    print("ready", flush=True)


def cmd_run(args):
    wreathdet = import_library()
    tracer = None
    trace_dir = None
    if args.trace:
        if args.workload == "verify":
            trace_dir = Path(args.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
        else:
            tracer = tracing.Tracer()
            tracer.install()
    records = []
    round_no = 0
    # Untraced runs sample machine speed throughout, on the thread that runs
    # the items: here, or inside each of verify's CLI processes.
    probe = None if args.trace else speed.Probe(args.workload)
    sampling_here = probe is not None and args.workload != "verify"
    with probe if sampling_here else contextlib.nullcontext():
        while True:
            items = workloads.make_round(args.workload, args.seed, round_no, root=ROOT,
                                         tiny=args.tiny, trace_dir=trace_dir, probe=probe)
            records += run_items(items, tracer, len(records), probe)
            round_no += 1
            if args.rounds is not None:
                if round_no >= args.rounds:
                    break
            elif sum(r["s"] for r in records) >= args.seconds:
                break
    if probe is not None:
        for r in records:
            r["ref_s"] = r["s"] * probe.scale(r["start"], r["start"] + r["s"])
    dump = None
    if tracer is not None:
        dump = tracer.dump()
    elif trace_dir is not None:
        dumps = []
        for path in sorted(trace_dir.glob("cli-*.json")):
            dumps.append(json.loads(path.read_text()))
            path.unlink()
        dump = tracing.merge(dumps)
    print(json.dumps({
        "items": records,
        "rounds": round_no,
        "rss_kb": peak_rss_kb(),
        "probe_samples": len(probe.samples) if probe is not None else 0,
        "kernel_backend": wreathdet.KERNEL_BACKEND,
        "env": {k: os.environ.get(k) for k in ("WREATHDET_THREADS", "WREATHDET_PURE")},
        "trace": dump,
    }))


def cmd_cli(args):
    import_library()
    import wreathdet.cli

    if args.dump is None:
        with speed.Probe("verify") as probe:
            code = wreathdet.cli.main(args.argv)
        print(speed.MARK + json.dumps([probe.samples, probe.total]), file=sys.stderr)
        sys.exit(code)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_item(args.item)
    try:
        code = wreathdet.cli.main(args.argv)
    finally:
        tracer.end_item()
        Path(args.dump).write_text(json.dumps(tracer.dump()))
    sys.exit(code)


def main(argv=None):
    top = argparse.ArgumentParser(description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="cmd", required=True)
    for name in ("setup", "run"):
        p = sub.add_parser(name)
        p.add_argument("workload", choices=workloads.WORKLOADS)
        p.add_argument("seed", type=int)
        p.add_argument("--tiny", action="store_true")
    p = sub.choices["run"]
    stop = p.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float)
    stop.add_argument("--rounds", type=int)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--trace-dir", help="where verify's traced CLI processes leave traces")
    p = sub.add_parser("cli")
    p.add_argument("--dump", help="trace the run and write the trace here")
    p.add_argument("--item", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = top.parse_args(argv)
    if args.cmd == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    {"setup": cmd_setup, "run": cmd_run, "cli": cmd_cli}[args.cmd](args)


if __name__ == "__main__":
    main()
