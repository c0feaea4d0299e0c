"""turlab benchmark: one workload run, printed as metrics plus one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; turlab is imported from ``src/``.
Every run is one process, closed loop with one client, BLAS pinned to one
thread and ``TURLAB_THREADS`` unset. Workloads (see ``workloads.py``):
exact-sweep, shots-sweep, verify-suites, bound-queries.

``--trace 0`` measures the end-to-end metrics for ``--seconds``:

  setup_s         median over fresh interpreters of ``import turlab.cli`` plus
                  the workload's first (untimed) warm-up item
  items_per_s     items (trials, suite cases or queries) per second of request
                  wall time, median over throughput samples (one command, or
                  50 queries)
  latency_ms_p50  median and 90th percentile of the wall time of one request:
  latency_ms_p90  a query on bound-queries, a whole command on the batch
                  workloads; printed with the sample count
  peak_rss_mb     peak resident set size of this process

The tail is reported at p90, not p99: on a shared 2-core machine the p99 of
bound queries spread by 0.35 of its median over processes (p95 by 0.12, p90
by 0.07), wider than any bound a later change could be held to.

``failed_fraction`` (failed items over attempted items) is printed with the
metrics and carried by the ``failed``/``attempted`` fields of the JSON line.

``--trace 1`` runs the workload untraced, then traced (``tracing.py``), and
reports the per-layer metrics. Results, an environment record and the spans
are written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
MIN_SAMPLES = 4          # throughput samples a run takes however short --seconds is
PROBED = ("shots-sweep", "verify-suites", "bound-queries")   # one request each covers every traced function


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ.get(var) for var in BLAS_PINS},
        "TURLAB_THREADS": os.environ.get("TURLAB_THREADS", "unset"),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time ``import turlab.cli`` plus the first warm-up item."""
    start = perf_counter()
    import turlab.cli  # noqa: F401
    import workloads

    workloads.make(workload, seed, OUT / "work" / "setup").warm_up()
    print(perf_counter() - start)


def setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(workload, seconds: float, tracer=None) -> list:
    """Closed loop: requests until ``seconds`` pass, ending on a whole throughput sample."""
    requests = []
    group = workload.group
    deadline = perf_counter() + seconds
    while len(requests) < MIN_SAMPLES * group or len(requests) % group or perf_counter() < deadline:
        if tracer is not None:
            tracer.item = len(requests)
        requests.append(workload.request())
    return requests


def throughput(requests: list, group: int) -> float:
    samples = [requests[i:i + group] for i in range(0, len(requests), group)]
    return median(sum(r.items for r in s) / sum(r.seconds for r in s) for s in samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # ru_maxrss is in KiB


def end_to_end(requests: list, group: int, setup: list[float]) -> dict:
    latencies = [r.seconds * 1e3 for r in requests]
    p90 = quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "setup_s": {"value": median(setup), "unit": "s"},
        "items_per_s": {"value": throughput(requests, group), "unit": "1/s"},
        "latency_ms_p50": {"value": median(latencies), "unit": "ms"},
        "latency_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def traced_run(workload, args, work: Path) -> tuple[list, dict]:
    import tracing
    import workloads

    untraced = measure(workload, args.seconds * 0.4)
    with tracing.Tracer() as run:
        traced = measure(workload, args.seconds * 0.5, tracer=run)
    with tracing.Tracer() as probe:
        for name in PROBED:
            problems = workloads.make(name, args.seed, work / "probe").request().problems
            if problems:
                raise RuntimeError(f"{name} probe failed: {problems}")
    tracing.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", {"run": run, "probe": probe})
    produced = sum(r.sampled[0] for r in traced)
    attempted = sum(r.sampled[1] for r in traced)
    values = tracing.layer_metrics(
        run, probe,
        items=sum(r.items for r in traced),
        wall_s=sum(r.seconds for r in traced),
        useful_ratio=produced / attempted if attempted else 0.0,
        overhead_ratio=throughput(traced, workload.group) / throughput(untraced, workload.group),
    )
    units = {name: unit for name, unit, _ in tracing.metric_specs()}
    return untraced + traced, {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    if not (SRC / "turlab" / "cli.py").is_file():
        print(f"turlab sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_PINS:
        os.environ[var] = "1"
    os.environ.pop("TURLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import turlab
    import workloads

    if SRC.resolve() not in Path(turlab.__file__).resolve().parents:
        print(f"imported turlab from {turlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.make(args.workload, args.seed, work)
        if args.trace:
            workload.warm_up()
            requests, metrics = traced_run(workload, args, work)
        else:
            setup = setup_seconds(args.workload, args.seed)
            workload.warm_up()
            requests = measure(workload, args.seconds)
            metrics = end_to_end(requests, workload.group, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.items for r in requests)
    failed = sum(r.items for r in requests if r.problems)
    problems = [p for r in requests for p in r.problems]
    env = environment(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(requests)} requests, {attempted} items, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'latency samples':<48} {len(requests)}")
    print(f"  {'failed_fraction':<48} {failed / attempted:.6g} ratio")
    for p in problems[:10]:
        print(f"  gate miss: {p}")
    print("env: " + json.dumps(env))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "failed_fraction": failed / attempted,
                                  "requests": len(requests), "problems": problems, "env": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
