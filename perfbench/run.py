"""krauslab benchmark: one workload, a closed loop of ops for a fixed time.

Usage, from the repository root:

    python3 perfbench/run.py --workload cuntz_dense --seed 1 --seconds 24 --trace 0

One client runs ops back to back (the next op starts when the previous one
returns) until ``--seconds`` have passed; the op in flight at that moment
still completes.  Every op's output is checked (see ``workloads.py``); with
``--seed 0`` every report is also compared with the reference reports in
``reference/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (sample counts, p90 where at least 100 ops ran, the
environment).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced then traced, and reports the per-layer metrics of the traced
copies, the tracing overhead and the span coverage (see ``spans.py``).  The
spans are written to ``.perfbench_out/`` at the repository root.

For the workloads in ``CALIBRATION`` a fixed calibration kernel runs before
every op and after the last one.  Each op's time is divided by its host
slowdown (the mean time of the kernels just before and just after it, over
the kernel's nominal time), and ``op_s.p50`` is the median of those
quotients; the wall-clock median and the median slowdown are in the detail
line.

The BLAS thread count (``BLAS_THREADS``) is set in the environment before
numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
REFERENCE_SEED = 0
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two BLAS threads, never more than nproc.  On a 2-core Xeon with OpenBLAS
# 0.3.31, one thread made a cuntz_dense op 1.6x slower (22.7 s vs 13.7 s) and
# left the run-to-run spread of commuting_sweep as it was (8.5% vs 9.0%).
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
NAMES = ("cuntz_dense", "family_queries", "commuting_sweep", "fuzz_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def set_up(name: str, seed: int, workdir: str):
    """Import the package, generate the inputs and run one untimed warm-up op."""
    import workloads

    wl = workloads.make(name)
    wl.prepare(seed, workdir)
    return wl


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_kernel() -> float:
    """Seconds for 160 eigh/svd calls on 8x8 matrices: interpreter-bound work."""
    import numpy as np

    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(8)]
    start = time.perf_counter()
    for _ in range(20):
        for m in mats:
            np.linalg.eigh(m + m.conj().T)
            np.linalg.svd(m, compute_uv=False)
    return time.perf_counter() - start


def _lapack_kernel() -> float:
    """Seconds for one full svd and one eigvals of a 144x144 complex matrix."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((144, 144)) + 1j * rng.standard_normal((144, 144))
    start = time.perf_counter()
    np.linalg.svd(m)
    np.linalg.eigvals(m)
    return time.perf_counter() - start


# The host's speed drifts with its load, over seconds and over tens of
# minutes.  The sweeps' short ops are timed against a calibration kernel of
# the same kind of work, run between ops: workload -> (kernel, nominal
# kernel seconds).  Over 150 s on a 2-vCPU Xeon VM, 15 s buckets of
# commuting ops ranged 1.66-2.09 s while op / _lapack_kernel stayed within
# 45.5-51.5; fuzz ops ranged 0.18-0.29 s and op / _small_kernel 55-67.  Over
# six seeds, dividing each op by its neighbouring kernels gave a quartile
# spread of 5.4% on fuzz_sweep where dividing the run's median op by its
# median kernel gave 14.8%, and raw wall time 13.6%.  The
# dense workloads' 2-15 s ops are longer than the kernel can follow, so they
# stay raw: calibrated by the median kernel, cuntz_dense spread 30% against
# 5% raw, and calibrated op by op, family_queries 5.9% against 3.6% raw.
SMALL_KERNEL_S = 0.0075
CALIBRATION = {"fuzz_sweep": (_small_kernel, SMALL_KERNEL_S), "commuting_sweep": (_lapack_kernel, 0.035)}


def setup_seconds(args) -> float:
    """Seconds from spawning a fresh process until it is ready to time op 0.

    Set-up is import- and interpreter-bound for every workload, so each
    probe is divided by the host slowdown that ``_small_kernel`` measures
    just before and just after it.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = _small_kernel()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    slowdown = (before + _small_kernel()) / 2 / SMALL_KERNEL_S
    return elapsed / slowdown


def run_op(wl, i: int, reference, tracer=None) -> tuple:
    """Time op i, then check its output; returns (seconds, problems)."""
    import workloads

    start = time.perf_counter()
    elapsed = None
    try:
        if tracer is None:
            out = wl.op(i)
        else:
            with tracer.installed(), tracer.op_span(i):
                out = wl.op(i)
        elapsed = time.perf_counter() - start
        report, problems = wl.check(i, out)
        if reference is not None:
            problems += workloads.compare(reference["reports"][str(i % reference["pool"])], report)
    except (Exception, SystemExit) as exc:
        problems = [f"raised {exc!r}"]
    if elapsed is None:
        elapsed = time.perf_counter() - start
    return elapsed, [f"op {i}: {p}" for p in problems]


def prepare_process() -> bool:
    """Point imports at the checkout's sources and fix BLAS threads; False if absent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "krauslab", "__init__.py")):
        print(f"error: no krauslab sources under {ROOT}/src", file=sys.stderr)
        return False
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.simplefilter("ignore")
    os.makedirs(OUT_DIR, exist_ok=True)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare_process():
        return 2

    if args.setup_probe:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            set_up(args.workload, args.seed, workdir)
        print("ready", flush=True)
        return 0

    reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        wl = set_up(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        times, traced_times, problems, calibration = [], [], [], []
        passes = [(times, None)] + ([(traced_times, tracer)] if tracer else [])
        kernel, nominal_s = CALIBRATION.get(args.workload, (None, None))
        if kernel:
            kernel()  # the first call in a process pays LAPACK's one-time set-up
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < args.seconds:
            if kernel:
                calibration.append(kernel())
            for sink, tr in passes:
                elapsed, bad = run_op(wl, i, reference, tr)
                sink.append(elapsed)
                attempted += 1
                failed += bool(bad)
                problems += bad
            i += 1
        if kernel:
            calibration.append(kernel())
        # The probes run after the ops, back to back; each is calibrated.
        setup_samples = [] if tracer else [setup_seconds(args) for _ in range(SETUP_PROBES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    p50 = statistics.median(times)
    host_slowdown = calibrated_p50 = None
    if calibration:
        slowdowns = [(a + b) / 2 / nominal_s for a, b in zip(calibration, calibration[1:])]
        host_slowdown = statistics.median(slowdowns)
        calibrated_p50 = statistics.median(t / k for t, k in zip(times, slowdowns))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(times),
        "op_s.p50.wall": p50,
        "host_slowdown": host_slowdown,
        "op_s.p90": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "setup_s.samples": setup_samples,
        "reference_checked": reference is not None,
        "problems": problems[:10],
        "env": environment(),
    }
    if tracer is None:
        metrics = {
            "op_s.p50": (calibrated_p50 or p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = tracer.layer_metrics()
        traced_p50 = statistics.median(traced_times)
        metrics["trace.op_s.p50"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
