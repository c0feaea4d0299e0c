"""Run every workload of BENCHMARK.json once and print its end-to-end metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in its own process through ``run.py --trace 0``; its
metric table (with units, the latency sample count and ``failed_fraction``)
is printed as it finishes. Exits 1 if any run fails or its outputs are wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for workload in spec["workloads"]:
        cmd = [sys.executable, *spec["command"][1:], "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("env: ")), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"  run failed (exit {proc.returncode}): {proc.stderr.strip()}", flush=True)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
