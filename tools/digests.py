"""Byte-identity gate: compare the report digests of a revision and the working tree.

Usage, from anywhere inside a checkout:

    python3 tools/digests.py REV

extracts ``src/`` of the git revision REV into a temporary directory and runs
this checkout's digest printers, ``tests/test_acceptance.py`` (criteria 1-10),
``tests/test_cli.py`` (the pinned CLI runs), the first-pass digests of this
checkout's perfbench workloads ``verify``, ``hunt`` and ``dominance`` at seed 1
(computed in-process, nothing written under ``perfbench/out``) and the SHA-256
of the CSV of an 80-cell ``sweep`` (``SWEEP_DIGEST``), once on REV's
``src/`` and once on the working tree's; the two sides of each printer run at
the same time.  It prints the lines of the two sides that differ as a unified
diff and exits 1 on any difference or failed printer, 0 otherwise.  Nothing is
written inside the checkout.
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PERFBENCH_DIGESTS = """\
import run, workloads
for name in ("verify", "hunt", "dominance"):
    print("perfbench", name, "seed 1", run.digest(run.run_pass(workloads.build(name, 1), 0)[0]))
"""
#: the 80-cell sweep box of ROADMAP's Baseline: lieb, identity maps, trace norm,
#: n = 2, 100 trials per cell, seed 3
SWEEP_DIGEST = """\
import contextlib, hashlib, io
from tracelab.cli import main
out, grid = io.StringIO(), "0.25,0.5,0.75,1"
with contextlib.redirect_stdout(out):
    code = main(["sweep", "--family", "lieb", "--p-grid", grid, "--q-grid", grid,
                 "--s-grid", "0.3,0.6,0.9,1.2,1.6", "--trials", "100", "--seed", "3"])
print("sweep lieb 80 cells seed 3 exit", code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
#: the interpreter arguments of each printer, by name
PRINTERS = {"tests/test_acceptance.py": [os.path.join(ROOT, "tests/test_acceptance.py")],
            "tests/test_cli.py": [os.path.join(ROOT, "tests/test_cli.py")],
            "perfbench first passes": ["-c", PERFBENCH_DIGESTS],
            "80-cell sweep": ["-c", SWEEP_DIGEST]}


def src_archive(rev: str) -> bytes:
    """``src/`` of revision rev, as the tar ``git archive`` writes."""
    return subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                          capture_output=True, check=True).stdout


def unpack(archive: bytes, dest: str) -> str:
    """The ``src/`` of a tar, unpacked under dest; returns its path."""
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return os.path.join(dest, "src")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {args.rev: unpack(src_archive(args.rev), os.path.join(tmp, "rev")),
                "working tree": os.path.join(ROOT, "src")}
        lines = {name: [] for name in srcs}
        for printer, argv in PRINTERS.items():
            procs = {name: subprocess.Popen(
                [sys.executable, *argv], cwd=tmp, text=True,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, PERFBENCH]),
                         PYTHONDONTWRITEBYTECODE="1"),
                stdout=subprocess.PIPE) for name, src in srcs.items()}
            outs = {name: proc.communicate()[0] for name, proc in procs.items()}
            for name, proc in procs.items():
                if proc.returncode != 0:
                    print(f"digests: {printer} failed on {name}", file=sys.stderr)
                    return 1
                lines[name] += outs[name].splitlines(keepends=True)
    diff = list(difflib.unified_diff(*lines.values(), *lines.keys()))
    if diff:
        sys.stdout.writelines(diff)
        return 1
    print(f"no difference: {len(lines[args.rev])} digest lines agree with {args.rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
