"""Write BENCH_<pr>.json: benchmark metrics, test wall times and the machine.

Usage, from the root of a checkout:

    python3 tools/bench_file.py 6

runs, one after another, on this checkout's ``src/``:

- ``perfbench/run.py`` on each workload (seed 1, its default run length,
  untraced), keeping the end-to-end metrics of its last line;
- the tier-1 suite once, timing the whole run and, from pytest's JUnit
  report, each acceptance criterion;
- five cold starts of ``python -m tracelab.cli --version``, reporting the
  median;
- per-call timings of the spectral core's layers, in this process (``layers``);

and writes ``BENCH_<pr>.json`` at the root together with the machine (cores,
Python, numpy, scipy, BLAS).  A claim that something got faster compares two
such files written on the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("verify", "hunt", "dominance")
SEED = 1
COLD_STARTS = 5
#: each layer timing is the fastest of LAYER_REPEATS runs of LAYER_CALLS calls
LAYER_REPEATS, LAYER_CALLS = 7, 200


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def workload_metrics(workload: str) -> dict:
    """The last line of one untraced perfbench run: correct, attempted, failed
    and the end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    """Wall time of the tier-1 suite, its outcome counts and the time of each
    acceptance criterion's test."""
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "junit.xml")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", f"--junitxml={report}"],
            cwd=ROOT, env=_env(), capture_output=True, text=True)
        wall = time.perf_counter() - t0
        cases = ET.parse(report).getroot().iter("testcase")
        outcomes = {"passed": 0, "failed": 0, "skipped": 0}
        criteria = {}
        for case in cases:
            tags = {child.tag for child in case}
            outcomes["failed" if tags & {"failure", "error"} else
                     "skipped" if "skipped" in tags else "passed"] += 1
            if case.get("classname", "").endswith("test_acceptance"):
                criteria[case.get("name")] = round(float(case.get("time")), 3)
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode, **outcomes,
            "acceptance_s": criteria}


def cold_start_s() -> float:
    """Median wall time of a fresh ``tracelab --version``."""
    times = []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tracelab.cli", "--version"], cwd=ROOT,
                       env=_env(), capture_output=True, check=True)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 4)


def layers(repeats: int = LAYER_REPEATS, calls: int = LAYER_CALLS) -> dict:
    """Microseconds per call, the minimum over repeats of calls calls each, of:
    linalg.eigh and PosDef.from_hermitian of a 3 x 3 Hermitian matrix, one
    eval_family of the lieb trace family with rank-2 Kraus maps at n = 3 (verify's
    and hunt's kernel), and one call of the Nelder-Mead dominance objective on 4
    rows at n = 2, a step's four candidates (dominance's refined ops).  tracelab
    is imported from this checkout's src/, as perfbench imports it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    run.import_tracelab()
    from tracelab import lab, linalg
    from tracelab.families import FamilySpec, ParameterPoint, eval_family
    from tracelab.norms import NormSpec
    from tracelab.posmaps import sample_kraus

    rng = linalg.rng_for(SEED, 0)
    A, B = (linalg.sample_posdef_rng(rng, 3) for _ in range(2))
    lieb = FamilySpec("lieb", sample_kraus(3, 3, 2, SEED, 0), NormSpec("trace"),
                      ParameterPoint(0.7, 0.7, 1 / 1.4), psi=sample_kraus(3, 3, 2, SEED, 1))
    objective = lab._dominance_objective(0.6, 0.9, 2)
    V = rng.normal(0.0, 1.5, (4, 8))
    timed = {"linalg.eigh_3x3_us": lambda: linalg.eigh(A.mat),
             "linalg.from_hermitian_3x3_us": lambda: linalg.PosDef.from_hermitian(A.mat),
             "families.eval_family_lieb_kraus_n3_us": lambda: eval_family(lieb, A, B),
             "lab.dominance_objective_4_rows_n2_us": lambda: objective(V)}
    return {name: round(min(timeit.repeat(fn, number=calls, repeat=repeats)) / calls * 1e6, 3)
            for name, fn in timed.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pr", type=int, help="number of the change, used in the file name")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run  # perfbench's machine description

    bench = {"workloads": {w: workload_metrics(w) for w in WORKLOADS},
             "seed": SEED,
             "tier1": tier1(),
             "cold_start_s": cold_start_s(),
             "layers": layers(),
             "machine": run.machine()}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
