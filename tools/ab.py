"""A/B benchmark: run perfbench on a revision and on the working tree, alternating.

Usage, from anywhere inside a checkout:

    python3 tools/ab.py REV --workload verify[,hunt,...] --pairs 10 [--seconds 30] [--seed 2]

builds two temporary checkouts, each holding this checkout's ``perfbench/`` and
``BENCHMARK.json``: one with ``src/`` of the git revision REV and one with the
working tree's ``src/``.  Both are built the same way, so that only their
``src/`` differs: each ``src/`` is a tar (``git archive`` for REV, the working
tree's files without bytecode for the other) unpacked as ``tools/digests.py``
unpacks one, into sibling directories whose names have the same length.  It then
runs ``perfbench/run.py --workload W --seed K --seconds S`` in each, one after
the other, for N pairs; odd pairs run REV first, even pairs the working tree
first.  A comma list of workloads runs them in turn.  It prints each run's
metrics to standard error as it ends, then, for each workload after its pairs,
one block: for every end-to-end metric of ``BENCHMARK.json``, each side's median
and quartiles and in how many pairs the working tree did better, and last one
verdict line per metric, its relative ``bound`` taken from ``BENCHMARK.json``:

- gain: the working tree did better in at least 9 of 10 pairs, and its median
  is better than REV's by more than REV's quartile spread;
- regression: the working tree's median is worse than REV's by more than the bound;
- unresolved: REV's quartile spread is wider than the bound, and not every run of
  the working tree did better than every run of REV;
- no regression: none of these.

Nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

from digests import ROOT, src_archive, unpack


def tree_archive() -> bytes:
    """The working tree's ``src/`` without its bytecode, as a tar."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        tar.add(os.path.join(ROOT, "src"), "src",
                filter=lambda info: None if "__pycache__" in info.name.split("/") else info)
    return buf.getvalue()


def checkout(dest: str, archive: bytes) -> str:
    """A checkout at dest with the src/ of the tar archive and copies of perfbench/
    (without its results) and BENCHMARK.json; returns dest."""
    unpack(archive, dest)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def run(root: str, workload: str, args) -> dict:
    """The end-to-end metric values of one perfbench run of workload in the
    checkout root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=root, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(values: list) -> str:
    """median [first quartile, third quartile] of values, or the one value."""
    if len(values) == 1:
        return f"{values[0]:.4g}"
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def wins(rev: list, tree: list, better: str) -> int:
    """The pairs in which the working tree did better; a tie counts for neither."""
    return sum(b > a if better == "higher" else b < a for a, b in zip(rev, tree))


def verdict(rev: list, tree: list, better: str, bound: float) -> str:
    """gain, regression, unresolved or no regression of one metric, from the runs
    of REV and of the working tree in pair order (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    q1, median, q3 = quartiles(rev)
    gap = sign * (statistics.median(tree) - median)  # > 0: the working tree is better
    if gap < -bound * abs(median):
        return "regression"
    if 10 * wins(rev, tree, better) >= 9 * len(rev) and gap > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(median) and not (min(sign * b for b in tree)
                                              > max(sign * a for a in rev)):
        return "unresolved"
    return "no regression"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=2)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {args.rev: checkout(os.path.join(tmp, "a"), src_archive(args.rev)),
                 "working tree": checkout(os.path.join(tmp, "b"), tree_archive())}
        for workload in args.workload.split(","):
            runs = {name: [] for name in sides}
            for k in range(args.pairs):
                for name in (list(sides) if k % 2 == 0 else list(sides)[::-1]):
                    runs[name].append(run(sides[name], workload, args))
                    print(f"{workload} pair {k + 1}, {name}: {runs[name][-1]}",
                          file=sys.stderr, flush=True)
            print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s "
                  f"runs: median [quartiles] at {args.rev} -> working tree")
            verdicts = []
            for m in end_to_end:
                rev, tree = ([r[m["name"]] for r in runs[name]] for name in sides)
                print(f"  {m['name']} ({m['unit']}): {summary(rev)} -> {summary(tree)}; "
                      f"working tree better in {wins(rev, tree, m['better'])} of {args.pairs}")
                verdicts.append(f"verdict {m['name']}: "
                                f"{verdict(rev, tree, m['better'], m['bound'])} "
                                f"(bound {m['bound']:g})")
            print("\n".join(verdicts), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
