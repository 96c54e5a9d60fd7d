"""tracelab benchmark: time the verify, hunt and dominance workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload runs closed-loop (one caller, one op at a
time) for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` a fixed number of passes runs once untraced and once with every
layer wrapped by :mod:`tracer`, and the per-layer metrics are reported.
Either way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with the machine it
ran on, is also written under ``perfbench/out/``.

The package is imported from ``src/`` of the same checkout and nowhere else.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

# numpy and tracelab are imported inside functions: a set-up probe must find
# nothing but the standard library loaded when it starts its clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh interpreters started per run to time set-up; the median is reported
COLD_STARTS = 5
#: microseconds per iteration of calibrate()'s loop at the machine speed that
#: ops_per_s is scaled to
CAL_NOMINAL_US = 25.0
#: passes run with --trace 1, each once untraced and once traced (about
#: 6-10 s of each)
TRACE_PASSES = {"verify": 10, "hunt": 2, "dominance": 3}

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    pass


def import_tracelab():
    """Import tracelab from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "tracelab", "__init__.py")):
        raise SetupError(f"no tracelab package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracelab

    if os.path.dirname(os.path.dirname(os.path.abspath(tracelab.__file__))) != SRC:
        raise SetupError(f"imported tracelab from {tracelab.__file__}, not {SRC}")
    return tracelab


def setup_probe(workload: str, seed: int) -> None:
    """Child side of one cold start: import, build the workload, report."""
    t0 = time.perf_counter()
    import_tracelab()
    scipy_optimize_loaded = "scipy.optimize" in sys.modules
    import tracelab.cli  # noqa: F401  (the CLI's cold start is part of set-up)

    import_s = time.perf_counter() - t0
    import workloads

    workloads.build(workload, seed)
    print(json.dumps({"import_s": import_s,
                      "scipy_optimize_loaded": scipy_optimize_loaded}), flush=True)


def calibrate(iters: int = 300) -> float:
    """Microseconds per iteration of a fixed loop of small numpy and Python work.

    The speed of a shared host changes by up to 70% within seconds to minutes,
    and the workloads slow down with this loop, which does what their inner
    calls do on 3x3 matrices (hermitize, check, eigh, spectral power) without
    calling tracelab.  The loop is timed before the first op and after every
    op, and each op's time is scaled by CAL_NOMINAL_US over the loop times
    around it, which reports ops_per_s at a fixed machine speed.  Cold starts
    are not scaled: they slow down far less than this loop does.
    """
    import numpy as np

    h = np.array([[2.0, 1j, 0.0], [-1j, 3.0, 0.5], [0.0, 0.5, 1.0]])
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(iters):
        m = np.asarray(h, dtype=complex)
        m = 0.5 * (m + m.conj().T)
        acc += float(np.max(np.abs(m - m.conj().T)))
        w, v = np.linalg.eigh(m)
        e = w ** 0.7
        acc += float(np.sum(e)) + float(((v * e) @ v.conj().T)[0, 0].real)
    return 1e6 * (time.perf_counter() - t0) / iters


def cold_starts(workload: str, seed: int, n: int) -> list[dict]:
    """Time n fresh interpreters from launch until the first op is ready."""
    probes = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(n):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line:
                raise SetupError(f"set-up probe exited with code {proc.returncode}")
        probes.append({"setup_s": ready, **json.loads(line)})
    return probes


def run_pass(ops, pass_no: int, cal: list | None = None) -> tuple[list, list]:
    """Run every op once; returns the outcomes and the seconds of each op.

    With ``cal``, the reference loop is timed after each op and appended.
    """
    from workloads import Outcome

    outcomes, seconds = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcomes.append(op(pass_no))
        except Exception as exc:  # a raising op counts as failed, the run goes on
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(ok=False, text=f"error: {type(exc).__name__}: {exc}"))
        seconds.append(time.perf_counter() - t0)
        if cal is not None:
            cal.append(calibrate())
    return outcomes, seconds


def closed_loop(ops, budget_s: float):
    """Whole passes back to back until budget_s has elapsed (at least one).

    Returns the outcomes and op seconds of each pass, and the reference-loop
    times: one before the first op and one after every op.
    """
    results, seconds, cal = [], [], [calibrate()]
    t_end = time.perf_counter() + budget_s
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        outcomes, op_seconds = run_pass(ops, k, cal)
        results.append(outcomes)
        seconds.append(op_seconds)
        k += 1
    return results, seconds, cal


def digest(outcomes) -> str:
    return hashlib.sha256("\n".join(o.text for o in outcomes).encode()).hexdigest()


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "platform": platform.platform(),
    }


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be asked."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def flatten(nested) -> list:
    return [x for inner in nested for x in inner]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_seconds(seconds, cal) -> float:
    """Total seconds of all ops at the nominal machine speed.

    The i-th op run (counting across passes) sits between calibrations i and
    i + 1 and is scaled by CAL_NOMINAL_US over their mean.
    """
    return sum(s * CAL_NOMINAL_US / statistics.mean(cal[i:i + 2])
               for i, s in enumerate(flatten(seconds)))


def end_to_end(probes, outcomes, seconds, cal) -> dict:
    flat = flatten(outcomes)
    passed = sum(o.ok for o in flat)
    return {
        "ops_per_s": metric(len(flat) / scaled_seconds(seconds, cal), "op/s"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "passed_ratio": metric(passed / len(flat), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
    }


#: span names whose calls and self time are reported
SPAN_METRICS = ("linalg.from_matrix", "linalg.matrix_power", "linalg.matrix_exp_herm",
                "linalg.sample_posdef", "posmaps.apply_map", "posmaps.is_strictly_positive",
                "means.eval_mean", "means.power_mean", "norms.eval_norm_from_eigs")
#: span names whose self time only is reported
SELF_ONLY = ("lab.midpoint_test", "lab.hunt_counterexample", "lab.loewner_midpoint_test",
             "lab.certificate_is_valid")


def per_layer(probes, tracer, outcomes, wall_untraced: float, wall_traced: float) -> dict:
    spans = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    span = lambda name: spans.get(name, empty)
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = metric(span(name)["calls"], "count")
        m[f"{name}.self_s"] = metric(span(name)["self_s"], "s")
    m["linalg.check_hermitian.calls"] = metric(tracer.counts["linalg.check_hermitian.calls"],
                                               "count")
    evals = tracer.counts["families.eval_family.evals"]
    family = span("families.eval_family")
    m["families.eval_family.evals"] = metric(evals, "count")
    m["families.eval_family.self_s"] = metric(family["self_s"], "s")
    m["families.eval_family.us_per_eval"] = metric(
        1e6 * family["total_s"] / evals if evals else 0.0, "us")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = metric(span(name)["self_s"], "s")

    flat = flatten(outcomes)
    trials = sum(o.trials for o in flat)
    off_region = [o for o in flat if o.off_region_hunt]
    m["lab.trial_failure_ratio"] = metric(
        sum(o.failures for o in flat) / trials if trials else 0.0, "ratio")
    m["lab.hunt.trials_used"] = metric(sum(o.hunt_trials for o in flat), "count")
    m["lab.hunt.certified_ratio"] = metric(
        sum(o.certified for o in off_region) / len(off_region) if off_region else 0.0,
        "ratio")
    m["lab.nm.minimize_calls"] = metric(span("lab.nm")["calls"], "count")
    m["lab.nm.nfev"] = metric(tracer.counts["lab.nm.nfev"], "count")
    m["lab.nm.self_s"] = metric(span("lab.nm")["self_s"], "s")
    m["cli.import_s"] = metric(statistics.median(p["import_s"] for p in probes), "s")
    m["cli.scipy_optimize_loaded"] = metric(
        int(statistics.median(p["scipy_optimize_loaded"] for p in probes)), "flag")
    m["trace.overhead_ratio"] = metric(wall_traced / wall_untraced, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "hunt", "dominance"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        import_tracelab()
        probes = cold_starts(args.workload, args.seed, COLD_STARTS)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "ops_per_pass": len(ops),
            "cold_starts": probes}
    os.makedirs(OUT, exist_ok=True)
    if args.trace == 0:
        outcomes, seconds, cal = closed_loop(ops, args.seconds)
        metrics = end_to_end(probes, outcomes, seconds, cal)
        spans_ok = True
        info.update(calibration_us=cal)
    else:
        tracer = Tracer()
        outcomes, seconds, traced, traced_seconds = [], [], [], []
        # alternate untraced and traced runs of the same pass, so that drift in
        # machine speed falls on both sides of the overhead ratio
        for k in range(TRACE_PASSES[args.workload]):
            r, op_seconds = run_pass(ops, k)
            outcomes.append(r)
            seconds.append(op_seconds)
            with tracer.installed():
                r, op_seconds = run_pass(ops, k)
            traced.append(r)
            traced_seconds.append(op_seconds)
        wall_untraced = sum(flatten(seconds))
        wall_traced = sum(flatten(traced_seconds))
        metrics = per_layer(probes, tracer, traced, wall_untraced, wall_traced)
        self_sum = sum(s["self_s"] for s in tracer.summary().values())
        # the traced layers' self times partition part of the traced wall time
        spans_ok = self_sum <= wall_traced
        info.update(traced_wall_s=wall_traced, self_s_sum=self_sum,
                    traced_op_seconds=traced_seconds, traced_digest=digest(traced[0]))
        outcomes += traced
        tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))

    flat = flatten(outcomes)
    failed = sum(not o.ok for o in flat)
    info.update(passes=len(seconds), op_seconds=seconds, digest=digest(outcomes[0]),
                metrics=metrics)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}"
                                f"-seed{args.seed}.json"), "w") as fh:
        json.dump(info, fh, indent=1)
    print(json.dumps({k: info[k] for k in ("workload", "seed", "digest", "machine")}))
    print(json.dumps({"correct": failed == 0 and spans_ok, "attempted": len(flat),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
