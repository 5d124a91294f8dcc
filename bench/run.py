"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: dense_tables, exact_counting,
monte_carlo, cli_batch (see bench/WORKLOADS.md).  The library runs from
`src/` with PYTHONPATH=src; nothing is installed.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json:
set-up time as the median of several fresh launches, then one closed-loop
run of S seconds in a fresh worker process.  Each time is rescaled by a
host-speed probe timed next to it (bench/probe.py); the unscaled figures
are printed as well.  --trace 1 prints the per-layer metrics instead,
from a fixed job list in which each job runs once untraced and once
traced.  Both check every job's output.  The last line of stdout is one
JSON object; earlier lines record the machine and the job mix, and a
fuller record goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
DEADLINE_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = "py"  # interpreter start and imports are interpreter-bound


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    env.update({k: "1" for k in PINNED_THREADS})
    return env


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment(env: dict) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "l2": caches.get("L2"),
            "l3": caches.get("L3"), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "commit": git_commit(),
            "threads": {k: env[k] for k in PINNED_THREADS}}


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("deadline exceeded")
        return left

    def worker_cmd(self, *extra) -> list:
        a = self.args
        return [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
                "--out-dir", str(OUT), *extra]

    def launch(self, cmd):
        """Start a child; returns (process, seconds until it printed READY)."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            if line.strip() != "READY":
                proc.wait(timeout=self.remaining())
                raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
            return proc, time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise

    def finish(self, proc) -> str:
        try:
            out, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker exceeded the deadline")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return out

    def setup_sample(self) -> tuple:
        """(seconds, probe before, probe after) for one fresh launch."""
        before = probe.seconds(SETUP_PROBE)
        if self.args.workload == "cli_batch":
            # every CLI call pays this import before doing any work
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import biasedcube"], cwd=ROOT,
                           env=self.env, check=True, timeout=self.remaining())
            took = time.perf_counter() - t0
        else:
            proc, took = self.launch(self.worker_cmd("--setup-only"))
            self.finish(proc)
        return took, before, probe.seconds(SETUP_PROBE)

    def run(self) -> dict:
        setup = [] if self.args.trace else [self.setup_sample() for _ in range(SETUP_PROBES)]
        proc, _ = self.launch(self.worker_cmd())
        lines = self.finish(proc).strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        result["setup_samples"] = setup
        return result


def e2e_metrics(result: dict, tail_pct: int, rescale: bool = True) -> dict:
    """End-to-end metrics, each time rescaled by the probes around it."""
    jobs, kind = result["jobs"], result["probe_kind"]
    speeds = [probe.speed(kind, *r["probe_s"]) if rescale else 1.0 for r in jobs]
    ms = [r["ms"] * s for r, s in zip(jobs, speeds)]
    return {
        "setup_s": statistics.median(
            took * (probe.speed(SETUP_PROBE, before, after) if rescale else 1.0)
            for took, before, after in result["setup_samples"]),
        "jobs_per_s": len(ms) / sum(r["loop_s"] * s for r, s in zip(jobs, speeds)),
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": statistics.quantiles(ms, n=100, method="inclusive")[tail_pct - 1],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def layer_metrics(result: dict, names) -> dict:
    summary = dict(result["trace"])
    summary.setdefault("cli.import_s", 0.0)
    summary["checks.monotone_flag_wrong"] = len(result["defects"])
    out = {}
    for name in names:
        if name in summary:
            out[name] = summary[name]
        elif name.endswith((".calls", ".self_s")):
            out[name] = 0  # the layer was not called on this workload
        else:
            raise BenchError(f"no per-layer value for {name}")
    return out


def shares(jobs) -> dict:
    """Share of jobs with each value of each recorded input property."""
    out: dict = {}
    for key in sorted({k for r in jobs for k in r["props"]}):
        counts: dict = {}
        for r in jobs:
            v = str(r["props"].get(key))
            counts[v] = counts.get(v, 0) + 1
        if len(counts) <= 16:
            out[key] = {v: round(c / len(jobs), 4) for v, c in sorted(counts.items())}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense_tables", "exact_counting", "monte_carlo", "cli_batch"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "biasedcube" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/biasedcube and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    OUT.mkdir(exist_ok=True)

    probe.pin_to_one_core()
    runner = Runner(args)
    env = environment(runner.env)
    print("env " + json.dumps(env), flush=True)
    try:
        result = runner.run()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = result["jobs"]
    failed = [r for r in jobs if r["failures"]]
    for r in failed[:10]:
        print(f"job {r['i']} {r['props']}: {'; '.join(r['failures'])}", file=sys.stderr)
    tail_pct = result["tail_pct"]
    if args.trace:
        values = layer_metrics(result, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = e2e_metrics(result, tail_pct)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw = e2e_metrics(result, tail_pct, rescale=False)
        beyond = sum(1 for r in jobs if r["ms"] > raw["job_ms_tail"])
        print(f"jobs attempted={len(jobs)} failed={len(failed)} "
              f"error_rate={len(failed) / len(jobs):.4f} tail=p{tail_pct} "
              f"jobs_beyond_tail={beyond} known_defects={len(result['defects'])}", flush=True)
        print("unscaled " + json.dumps(raw), flush=True)
    print("shares " + json.dumps(shares(jobs)), flush=True)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {"args": vars(args), "env": env, "metrics": metrics, "tail_pct": tail_pct,
              "unscaled": None if args.trace else raw, "probe_kind": result["probe_kind"],
              "setup_samples": result["setup_samples"], "defects": result["defects"],
              "jobs": jobs}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
