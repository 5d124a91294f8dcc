"""One benchmark process: set up a workload, then run its closed loop.

Started by run.py, one fresh process per run.  Prints `READY` once the
first job can start, then one JSON line with the job records.  With
--setup-only it stops after `READY`; run.py times those launches for
setup_s.  With --trace 1 it runs the workload's fixed trace list, each
job once untraced and once traced, and adds the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

import probe


def run_one(wl, i: int) -> tuple:
    """Build, run and check job i: (record, known defects).

    The record's `loop_s` covers building the job's inputs and running
    it, its `ms` the run alone; the check is timed by neither.
    The host-speed probe runs just before and just after, untimed.
    """
    before = probe.seconds(wl.probe)
    t0 = time.perf_counter()
    job = wl.make(i)
    t1 = time.perf_counter()
    try:
        out = wl.run(job)
        error = None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    t2 = time.perf_counter()
    after = probe.seconds(wl.probe)
    bad, found = [error], []
    if error is None:
        try:
            bad, found = wl.check(job, out)
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}: {exc}"]
    record = {"i": i, "ms": (t2 - t1) * 1e3, "loop_s": t2 - t0, "failures": bad,
              "props": job["props"], "probe_s": (before, after)}
    return record, found


def loop(wl, seconds: float) -> tuple:
    """Closed loop, one job at a time, for at least `seconds` of loop time.

    The loop ends on a whole block of the workload's job pattern, so
    every run has the same mix of job classes.
    """
    records, defects = [], []
    busy = 0.0
    while busy < seconds or len(records) % wl.block:
        record, found = run_one(wl, len(records))
        records.append(record)
        defects.extend(found)
        busy += record["loop_s"]
    return records, busy, defects


@contextlib.contextmanager
def tracing(wl, tr, spans_dir: Path):
    """Trace the biasedcube layers for the duration of the block."""
    import tracer

    if wl.name == "cli_batch":
        wl.spans_dir = spans_dir  # the CLI children trace themselves
        try:
            yield
        finally:
            wl.spans_dir = None
    else:
        uninstall = tracer.install(tr)
        try:
            yield
        finally:
            uninstall()


def trace_loop(wl, seconds: float, out_dir: Path) -> tuple:
    """Run the fixed trace list, each job untraced and traced back to back.

    The order of the two alternates from job to job, so warm-up and slow
    spells of the machine fall on both sides alike.  Stops early, on a
    block boundary, if the untraced side alone exceeds `seconds`.
    """
    import tracer

    tr = tracer.Tracer()
    spans_dir = out_dir / f"{wl.name}-seed{wl.seed}.spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob("*.jsonl"):
        old.unlink()
    records, defects = [], []
    busy = {False: 0.0, True: 0.0}
    for i in range(wl.trace_jobs):
        if busy[False] >= seconds and i % wl.block == 0:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracing(wl, tr, spans_dir) if traced else contextlib.nullcontext():
                record, found = run_one(wl, i)
            records.append(record)
            defects.extend(found)
            busy[traced] += record["loop_s"]
    if wl.name == "cli_batch":
        loaded = [tracer.load(p) for p in sorted(spans_dir.glob("*.jsonl"))]
        summary = tracer.summarize([spans for _, spans in loaded])
        summary["cli.import_s"] = sum(extra["import_s"] for extra, _ in loaded)
    else:
        tr.dump(spans_dir / "worker.jsonl")
        summary = tracer.summarize([tr.spans])
    summary["trace.overhead_frac"] = busy[True] / busy[False] - 1.0
    return records, busy[False], defects, summary


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    if args.trace:
        records, busy, defects, result["trace"] = trace_loop(wl, args.seconds, Path(args.out_dir))
    else:
        records, busy, defects = loop(wl, args.seconds)
    result.update(jobs=records, busy_s=busy, defects=defects, probe_kind=wl.probe,
                  peak_rss_mb=wl.peak_rss_mb(), tail_pct=wl.tail_pct)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
