"""The repository's tools, run as a user runs them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _files(root):
    """(path, size, mtime) of every file under root, .git aside."""
    found = []
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if x != ".git"]
        for f in files:
            st = os.stat(os.path.join(d, f))
            found.append((os.path.join(d, f), st.st_size, st.st_mtime_ns))
    return sorted(found)


def test_ab_compares_head_with_the_working_tree_and_writes_nothing():
    before = _files(ROOT)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab.py"), "HEAD",
                           "--workload", "verify", "--pairs", "1", "--seconds", "0.2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("verify, seed 2, 1 pairs of 0.2 s runs")
    for name in ("ops_per_s", "setup_s", "passed_ratio", "peak_rss_mb"):
        assert sum(line.startswith(f"  {name} (") and line.endswith(" of 1")
                   for line in lines) == 1
    assert _files(ROOT) == before
