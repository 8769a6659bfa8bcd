"""Runs one workload in this process; the last line it prints is the result as JSON.

Started by run.py with the BLAS thread count fixed in the environment.
Each operation is one in-process call of palmdpp.cli.main(argv) with
stdout captured; its output is checked by checks.py afterwards, outside
the timed region.  One untimed warm-up pass precedes whole timed passes
over the pool.  With --trace 1, timed passes alternate between traced
and untraced, and the per-layer metrics come from the traced ones.

Every time is reported at the reference speed of the machine (see
SpeedProbe): the wall time, scaled by how fast a fixed probe computation
ran around it.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

import checks
import pools
from tracing import EIG_SPANS, Tracer


ROOT = Path(__file__).resolve().parents[1]
SETUP_STARTS = 5          # fresh interpreter starts per run, one after each of the first passes
PROBE_EVERY_S = 0.1       # at most this long between probes, outside the timed calls
PROBE_WINDOW_S = 1.5      # an interval is scaled by the probes within this of its ends
# each probe part's time on the reference machine (README), near its median
PROBE_REFERENCE_S = {"eigh": 1.6e-3, "det": 0.7e-3, "sampler": 0.9e-3, "special": 1.35e-3}


class SpeedProbe:
    """Tracks the machine's speed with a fixed computation timed between operations.

    The host's speed drifts by about +-25 % over tens of seconds, and not
    by the same amount for every kind of work.  So each workload names the
    probe parts that resemble its own work (pools.Workload.probe):

    - eigh: one dense `eigh` of order 128 (LAPACK);
    - det: 200 `det` calls on 6x6 matrices (numpy call overhead);
    - sampler: 12 draws of a site-by-site sampler on 12 sites
      (interpreter and small arrays);
    - special: `scipy.special.j1` and elementwise arithmetic on 40,000
      points (vectorized numerics).

    The probe runs between operations at least every PROBE_EVERY_S.  An
    interval's wall time times the probe's reference time over the median
    probe time around it is the time the interval takes at the reference
    speed: the drift cancels, a change in the program does not.  The probe
    is fixed, independent of the seed and of palmdpp, and keeps numpy's
    own functions, not the tracer's wrappers.
    """

    def __init__(self, parts: tuple[str, ...]) -> None:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(128, 128))
        self.dense = a + a.T
        self.small = [rng.normal(size=(6, 6)) for _ in range(200)]
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        self.kernel = (q * rng.uniform(0.1, 0.9, 12)) @ q.T
        self.points = np.sort(rng.uniform(0.01, 50.0, 40_000))
        self.eigh, self.det = np.linalg.eigh, np.linalg.det
        self.parts = [getattr(self, "_" + part) for part in parts]
        self.reference = sum(PROBE_REFERENCE_S[part] for part in parts)
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _eigh(self) -> None:
        self.eigh(self.dense)

    def _det(self) -> None:
        for m in self.small:
            self.det(m)

    def _sampler(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(12):
            K = self.kernel.copy()
            for j in range(len(K) - 1):
                p = K[j, j]
                d = p if rng.random() < p else p - 1.0
                K[j + 1:, j + 1:] -= np.outer(K[j + 1:, j], K[j, j + 1:]) / d

    def _special(self) -> None:
        x = self.points
        y = special.j1(2.0 * x) / (np.pi * x)
        float((x ** 0.3 * y * y).sum())

    def sample(self) -> None:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        return self.reference / statistics.median(self.seconds[lo:hi])


def setup_start(probe: SpeedProbe) -> tuple[float, float]:
    """Start and end of a fresh interpreter that imports palmdpp.cli, in this environment."""
    for _ in range(3):
        probe.sample()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import palmdpp.cli"], cwd=ROOT, check=True, timeout=60)
    t1 = time.perf_counter()
    for _ in range(3):
        probe.sample()
    return t0, t1


def program_seed(run_seed: int, pass_index: int, op_index: int) -> int:
    return (run_seed * 1_000_003 + pass_index * 10_007 + op_index) % 2 ** 31


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, workload: pools.Workload, seed: int, cli, probe: SpeedProbe):
        self.workload = workload
        self.seed = seed
        self.cli = cli
        self.probe = probe
        self.unexpected: list[str] = []
        self.grid_draws: list[tuple[float, checks.CountLaw]] = []

    def run_op(self, op: pools.Op, argv: list[str], tracer: Tracer | None, op_id: int) -> dict:
        """Call the CLI once, then check its output outside the timed and traced region."""
        out, err = io.StringIO(), io.StringIO()
        self.probe.due()
        gc.collect()
        error = None
        if tracer is not None:
            tracer.op = op_id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed operation, not a crash
                code, error = None, exc
            seconds = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if tracer is not None:
            tracer.op = -1
        text = out.getvalue()
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        elif code != 0:
            problems = [f"exit {code}: {err.getvalue().strip()[:300]}"]
        else:
            problems = op.check(text)
            if op.grid_law is not None and not problems:
                self.grid_draws += [(float(c), op.grid_law) for c in checks.grid_counts(text)]
        if problems and op.known_fault is None:
            self.unexpected.append(f"{op.name} {' '.join(argv)}: {'; '.join(problems)}")
        return {"start": t0, "wall": seconds, "cpu": cpu, "ok": not problems}

    def run_pass(self, pass_index: int, tracer: Tracer | None, records: list) -> None:
        for i, op in enumerate(self.workload.ops):
            argv = op.resolve(program_seed(self.seed, pass_index, i))
            result = self.run_op(op, argv, tracer, op_id=len(records))
            records.append({"op": op.name, "pass": pass_index, **result,
                            "traced": tracer is not None, "fault": op.known_fault})


def scale_records(records: list, probe: SpeedProbe) -> None:
    """Sets each record's seconds: its wall time at the reference speed."""
    for r in records:
        r["scale"] = probe.scale(r["start"], r["start"] + r["wall"])
        r["seconds"] = r["wall"] * r["scale"]


def goodput(records: list) -> float:
    """Operations that passed their check per reference second spent inside cli.main."""
    return sum(r["ok"] for r in records) / sum(r["seconds"] for r in records)


def end_to_end(records: list, workload: pools.Workload) -> dict:
    ms = [r["seconds"] * 1e3 for r in records]
    return {
        "goodput_ops_s": {"value": goodput(records), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_tail_ms": {"value": percentile(ms, workload.tail_percentile), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


# per-layer metric: (unit, how to read it off one traced operation)
def _incl(name):
    return lambda a: a["incl"][name] if a["calls"][name] else None


def _self(name):
    return lambda a: a["self"][name] if a["calls"][name] else None


def _calls(*names):
    return lambda a: sum(a["calls"][n] for n in names) or None


def _counter(key):
    return lambda a: a["counters"][key] if key in a["counters"] else None


def _eig_ms(a):
    return sum(a["incl"][n] for n in EIG_SPANS) if any(a["calls"][n] for n in EIG_SPANS) else None


def _draw_ms(a):
    draws = a["counters"]["finite_dpp.sample_exact_many.draws"]
    return a["incl"]["finite_dpp.sample_exact_many"] / draws if draws else None


LAYER_METRICS = {
    "cli.load_kernel_spec_ms": ("ms", _incl("cli.load_kernel_spec")),
    "cli.self_ms": ("ms", _self("cli.main")),
    "finite_dpp.subset_law_ms": ("ms", _incl("finite_dpp.subset_law")),
    "linalg.det_calls": ("count", _calls("linalg.det")),
    "finite_dpp.coupling_feasible_ms": ("ms", _incl("finite_dpp.coupling_feasible")),
    "finite_dpp.coupling_pairs": ("count", _counter("finite_dpp.coupling_feasible.pairs")),
    "finite_dpp.palm_matrix_ms": ("ms", _incl("finite_dpp.palm_matrix")),
    "finite_dpp.xi_law_ms": ("ms", _incl("finite_dpp.xi_law")),
    "finite_dpp.sample_coupled_many_ms": ("ms", _incl("finite_dpp.sample_coupled_many")),
    "finite_dpp.validate_ms": ("ms", _incl("finite_dpp.validate")),
    "finite_dpp.sample_draw_ms": ("ms", _draw_ms),
    "analysis.grid_discretize_ms": ("ms", _incl("analysis.grid_discretize")),
    "analysis.grid_discretize_self_ms": ("ms", _self("analysis.grid_discretize")),
    "linalg.eig_calls": ("count", _calls(*EIG_SPANS)),
    "linalg.eig_ms": ("ms", _eig_ms),
    "numerics.hermitian_eig_ms": ("ms", _incl("numerics.hermitian_eig")),
    "analysis.grid_cells": ("count", _counter("analysis.grid_discretize.cells")),
    "analysis.grid_matrix_mb": ("MiB", _counter("analysis.grid_discretize.matrix_mb")),
    "numerics.integrate_radial_ms": ("ms", _incl("numerics.integrate_radial")),
    "numerics.integrate_radial_calls": ("count", _calls("numerics.integrate_radial")),
    "kernel_core.repulsiveness_p_ms": ("ms", _incl("kernel_core.repulsiveness_p")),
    "analysis.moment_quadrature_ms": ("ms", _incl("analysis.moment_quadrature")),
    "analysis.radial_profile_ms": ("ms", _incl("analysis.radial_profile")),
}


def per_layer(records: list, tracer: Tracer) -> dict:
    """Median over the traced operations in which each layer ran (0: it never ran).

    Times are scaled to the reference speed like the operation's own time.
    """
    ops = tracer.per_op()
    traced = [(i, r) for i, r in enumerate(records) if r["traced"]]
    metrics = {}
    for name, (unit, read) in LAYER_METRICS.items():
        vals = [v * (r["scale"] if unit == "ms" else 1.0)
                for v, r in ((read(ops[i]), r) for i, r in traced if i in ops) if v is not None]
        metrics[name] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
    # the self times of one operation sum to the cli.main span; what the
    # operation's wall time has beyond that is time no span covered
    gaps = []
    for i, r in traced:
        covered = sum(ops[i]["self"].values()) if i in ops else 0.0
        gaps.append(100.0 * (r["wall"] * 1e3 - covered) / (r["wall"] * 1e3))
    metrics["trace.uncovered_max_pct"] = {"value": max(gaps), "unit": "%"}
    on = goodput([r for _, r in traced])
    off = goodput([r for r in records if not r["traced"]])
    metrics["trace.overhead_pct"] = {"value": 100.0 * (off - on) / off, "unit": "%"}
    return metrics


def environment(blas_threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(pools.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for generated inputs and records")
    args = ap.parse_args()

    out = Path(args.out)
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    workload = pools.WORKLOADS[args.workload](args.seed, inputs)

    import palmdpp.cli as cli

    probe = SpeedProbe(workload.probe)
    runner = Runner(workload, args.seed, cli, probe)
    tracer = Tracer() if args.trace else None
    runner.run_pass(-1, None, [])                     # warm-up, untimed
    records: list = []
    # Set-up starts sit between timed passes, so both sample more of the
    # machine's slow and fast phases than back-to-back blocks would.
    setup: list[tuple[float, float]] = []
    measured = 0.0
    passes = 0
    while passes < workload.min_passes or measured < args.seconds:
        traced = tracer is not None and passes % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            runner.run_pass(passes, tracer if traced else None, records)
        finally:
            if traced:
                tracer.uninstall()
        measured += time.perf_counter() - t0
        passes += 1
        if tracer is None and len(setup) < SETUP_STARTS:
            setup.append(setup_start(probe))
    if tracer is not None and passes % 2:
        runner.run_pass(passes, None, records)       # as many untraced passes as traced
        passes += 1
    while tracer is None and len(setup) < SETUP_STARTS:
        setup.append(setup_start(probe))

    probe.sample()                                   # the last operation has probes after it
    scale_records(records, probe)
    runner.unexpected += checks.pooled_count_problems(runner.grid_draws)
    for line in runner.unexpected[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    failed = sum(not r["ok"] for r in records)
    if tracer is not None:
        metrics = per_layer(records, tracer)
    else:
        metrics = end_to_end(records, workload)
        setup_s = [(t1 - t0) * probe.scale(t0, t1) for t0, t1 in setup]
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    env = environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    record = {"workload": workload.name, "seed": args.seed, "passes": passes,
              "pool_size": len(workload.ops), "tail_percentile": workload.tail_percentile,
              "env": env, "ops": records}
    (out / "record.json").write_text(json.dumps(record), encoding="utf-8")
    if tracer is not None:
        tracer.dump(out / "spans.json")
    faults = {f: sum(not r["ok"] for r in records if r["fault"] == f) for f in pools.KNOWN_FAULTS}
    wall = {"goodput_ops_s": sum(r["ok"] for r in records) / sum(r["wall"] for r in records),
            "op_p50_ms": statistics.median(r["wall"] for r in records) * 1e3,
            "probe_ms": statistics.median(probe.seconds) * 1e3,
            "probe_reference_ms": probe.reference * 1e3}
    print(json.dumps({"env": env, "passes": passes, "pool_size": len(workload.ops),
                      "tail_percentile": workload.tail_percentile, "wall": wall,
                      "failed_by_known_fault": {f: n for f, n in faults.items() if n}}))
    print(json.dumps({"correct": not runner.unexpected, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
