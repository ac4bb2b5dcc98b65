#!/usr/bin/env python3
"""thouless-lab benchmark: one closed-loop client, one process, every output checked.

    python3 bench/run.py --workload grid|currents|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run measures the
end-to-end metrics: it issues the workload's requests one after another,
round(S / block_seconds) blocks of them, which takes about S seconds of
request time on a 2-core Xeon.  With --trace 1 it runs a fixed number of blocks twice, first
plain and then with spans around the library's module boundaries, and
reports the per-layer metrics.  Both print a human-readable report, then as
the last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10


class RunStats:
    """Latencies, failures and reference errors of the requests run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ref_errs: list[float] = []


def execute(request, stats: RunStats, tracer=None) -> None:
    """Run one request, time it, then check its output outside the timed part."""
    if tracer is None:
        def call(_name, fn, *args):
            return fn(*args)
    else:
        def call(name, fn, *args):
            with tracer.span(f"bench.{name}"):
                return fn(*args)
        tracer.request = stats.attempted
        points_before = tracer.integrand_points

    stats.attempted += 1
    error = None
    t0 = time.perf_counter()
    try:
        output = request.run(call)
    except Exception as exc:  # a library error fails this request; the run goes on
        error = f"{request.kind}: {type(exc).__name__}: {exc}"
        if tracer is not None and type(exc).__name__ == "QuadratureError":
            tracer.failed_points += tracer.integrand_points - points_before
    dt = time.perf_counter() - t0
    stats.latencies.append(dt)
    stats.busy += dt

    if error is None:
        # checks (oracle calls included) stay out of the trace
        was_active = tracer is not None and tracer.active
        if was_active:
            tracer.active = False
        try:
            err = request.check(output)
            if err is not None:
                stats.ref_errs.append(err)
        except Exception as exc:  # a failed check fails this request; the run goes on
            error = f"{request.kind}: check: {exc}"
        finally:
            if was_active:
                tracer.active = True
    if error is not None:
        stats.failed += 1
        stats.failures.append(error)


def cold_start_s(snippet: str, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the library and serve one request."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {snippet}"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def import_times() -> tuple[float, float]:
    """(scipy, whole CLI) import seconds from `python -X importtime`, medians of a few runs."""
    scipy_s, total_s = [], []
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import thouless_lab.cli"
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=120)
        entries = []  # (depth, module, cumulative us), children before parents
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
        scipy_us = 0
        for i, (depth, name, cum) in enumerate(entries):
            if not name.startswith("scipy"):
                continue
            parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
            if not parent.startswith("scipy"):
                scipy_us += cum
        scipy_s.append(scipy_us / 1e6)
        total_s.append(sum(c for d, n, c in entries if n == "thouless_lab.cli") / 1e6)
    return statistics.median(scipy_s), statistics.median(total_s)


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "THOULESS_LAB_THREADS": os.environ.get("THOULESS_LAB_THREADS"),
    }


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples above it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def blocks_for(workload, seconds: float) -> int:
    """A fixed amount of work per run, sized to `seconds` at the workload's nominal
    block time, so that the latency percentiles always fall on the same requests."""
    return max(1, round(seconds / workload.block_seconds))


def measure(workload, seconds: float) -> tuple[RunStats, dict]:
    for request in workload.warmup():
        execute(request, RunStats())
    setup = cold_start_s(workload.setup_snippet(), SETUP_REPEATS)
    stats = RunStats()
    for block in islice(workload.blocks(), blocks_for(workload, seconds)):
        for request in block:
            execute(request, stats)
    completed = stats.attempted - stats.failed
    tail_s, tail_pct, beyond = tail(stats.latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} cold starts"),
        "latency_p50_ms": (1e3 * statistics.median(stats.latencies), "ms",
                           f"n={len(stats.latencies)}"),
        "latency_tail_ms": (1e3 * tail_s, "ms",
                            f"p{tail_pct:.2f}, {beyond} samples beyond, n={len(stats.latencies)}"),
        "requests_per_s": (completed / stats.busy, "1/s",
                           f"{completed} completed in {stats.busy:.3f} s of request time"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of the benchmark process"),
    }
    return stats, metrics


def measure_traced(workload, units: dict[str, str]) -> tuple[RunStats, dict]:
    from tracer import Tracer, layer_metrics
    from workloads import defect_probe

    for request in workload.warmup():
        execute(request, RunStats())
    plain, traced = RunStats(), RunStats()
    tracer = Tracer()

    def run_traced(block):
        tracer.install()
        tracer.active = True
        try:
            for request in block:
                execute(request, traced, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()

    # Each block runs plain and traced, in alternating order, so that drift
    # over the run does not read as tracing overhead.
    for i, block in enumerate(islice(workload.blocks(), workload.traced_blocks)):
        if i % 2:
            run_traced(block)
        for request in block:
            execute(request, plain)
        if not i % 2:
            run_traced(block)
    layers = layer_metrics(tracer)
    metrics = {name: (value, units[name], "") for name, value in layers.items()}
    scipy_s, import_s = import_times()
    metrics["setup.scipy_import_s"] = (scipy_s, "s", f"median of {IMPORTTIME_REPEATS}, -X importtime")
    metrics["setup.import_s"] = (import_s, "s", f"median of {IMPORTTIME_REPEATS}, -X importtime")
    metrics["trace.overhead_frac"] = (traced.busy / plain.busy - 1.0, "ratio",
                                      f"traced {traced.busy:.3f} s vs plain {plain.busy:.3f} s")
    ref = max(plain.ref_errs + traced.ref_errs, default=0.0)
    metrics["check.ref_err"] = (ref, "1", f"worst of {len(plain.ref_errs + traced.ref_errs)} checks")
    for name, value in defect_probe().items():
        metrics[name] = (value, units[name], "fixed probe inputs, untimed")
    merged = RunStats()
    for part in (plain, traced):
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.failures += part.failures
    return merged, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "thouless_lab" / "__init__.py").is_file():
        print(f"bench: no thouless_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            stats, metrics = measure_traced(workload, units)
        else:
            stats, metrics = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 3

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# fail_frac {stats.failed / stats.attempted:.6g} ({stats.failed}/{stats.attempted})")
    if not args.trace:
        worst = max(stats.ref_errs, default=float("nan"))
        print(f"# ref_err {worst:.6g} (worst of {len(stats.ref_errs)} checked requests)")
    for name in wanted:
        value, unit, note = metrics[name]
        print(f"# {name:<40} {value:<24.10g} {unit:<6} {note}")
    for failure in stats.failures[:20]:
        print(f"bench: failed request: {failure}", file=sys.stderr)

    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
