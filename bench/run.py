"""End-to-end benchmark of the palmdpp command line.

    python3 bench/run.py --workload finite-exact --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  Each workload runs in its own process
(bench/worker.py) with one BLAS thread, one workload after another, and
its metrics are printed by name.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  Inputs and
records of a run go to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pools

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(pools.WORKLOADS)
DEADLINE_S = 170.0        # one workload ends within 180 s
BLAS_THREADS = "1"


def workload_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, args, env: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = BENCH / "out" / f"{name}-seed{args.seed}-trace{args.trace}"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {proc.returncode}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(f"# {name}: seed {args.seed}, {info['passes']} passes of {info['pool_size']} "
          f"operations, tail = p{info['tail_percentile']}, env {json.dumps(info['env'])}")
    print(f"# {name}: attempted {result['attempted']} failed {result['failed']} "
          f"(known faults: {info['failed_by_known_fault'] or 'none'}) correct {result['correct']}")
    print(f"# {name}: unscaled wall time: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in info["wall"].items()))
    for metric, v in result["metrics"].items():
        print(f"# {name}: {metric} = {v['value']:.6g} {v['unit']}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "palmdpp" / "cli.py").is_file():
        print(f"no palmdpp sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    env = workload_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args, env) for name in names]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
