"""Repository benchmark: time to first frame and frame rate of the replay engine.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload replay --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload replay --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py                       # every workload, one process each

A single-workload run prints the seed/environment record, any failed
output checks, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The exit code is
0 when every output check passed, 1 when one failed and 2 when the
benchmark cannot run at all (for instance without the package source).
See README.md for the workloads and how to read the traced run's files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("replay", "serve", "cluster")

#: Thread-pool variables of the BLAS/OpenMP runtimes numpy may load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads() -> None:
    """Pin native thread pools to one thread (before numpy is imported,
    which is when the pools size themselves): the workloads make no BLAS
    calls large enough to share, and idle pool threads that spin would
    count in the process CPU clock the benchmark reads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's default-seed sim digests in digests.json")
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Every workload in a fresh process of its own; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            combined["failed"] += 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"   {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record_digests:
        if (args.seed, result["failed"]) != (harness.DEFAULT_SEED, 0):
            print("perfbench: digests are recorded from a clean default-seed full run",
                  file=sys.stderr)
            return 2
        harness.record_digests(args.workload, result["digests"])
    print("env " + json.dumps(result["env"], sort_keys=True))
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
