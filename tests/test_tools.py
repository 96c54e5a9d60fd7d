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
    verdicts = [line for line in lines if line.startswith("verdict ")]
    assert [line.split(":")[0] for line in verdicts] == [
        "verdict ops_per_s", "verdict setup_s", "verdict passed_ratio", "verdict peak_rss_mb"]
    assert all(line.split(": ")[1].split(" (bound ")[0] in
               ("gain", "regression", "unresolved", "no regression") for line in verdicts)
    assert _files(ROOT) == before


def test_ab_runs_a_comma_list_of_workloads_and_writes_nothing():
    before = _files(ROOT)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "ab.py"), "HEAD",
                           "--workload", "hunt,dominance", "--pairs", "1", "--seconds", "0.2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    heads = [i for i, line in enumerate(lines) if not line.startswith(("  ", "verdict "))]
    assert [lines[i].split(",")[0] for i in heads] == ["hunt", "dominance"]
    for start, end in zip(heads, heads[1:] + [len(lines)]):
        block = lines[start + 1:end]
        names = ("ops_per_s", "setup_s", "passed_ratio", "peak_rss_mb")
        assert [line.split(" (")[0] for line in block[:4]] == [f"  {n}" for n in names]
        assert [line.split(":")[0] for line in block[4:]] == [f"verdict {n}" for n in names]
        assert all(line.split(": ")[1].split(" (bound ")[0] in
                   ("gain", "regression", "unresolved", "no regression") for line in block[4:])
    assert _files(ROOT) == before


def test_hotspots_profiles_a_workload_and_writes_nothing():
    before = _files(ROOT)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "hotspots.py"), "verify",
                           "--passes", "1", "--top", "5"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("verify, seed 2, 1 profiled passes after one warm-up: ")
    tables = [i for i, line in enumerate(lines) if line.startswith("top 5 by ")]
    assert [lines[i] for i in tables] == ["top 5 by self time", "top 5 by cumulative time"]
    for i in tables:
        assert lines[i + 1].split() == ["self_s", "cum_s", "calls", "function"]
        assert len(lines[i + 2:i + 7]) == 5 and all(line.strip() for line in lines[i + 2:i + 7])
    assert any("src/tracelab/families.py" in line and "(eval_family)" in line
               for line in lines[tables[1]:])
    assert _files(ROOT) == before


def test_ab_verdicts():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        from ab import verdict
    finally:
        sys.path.pop(0)
    rev = [10.0, 10.2, 10.4, 10.1, 10.3, 10.0, 10.2, 10.4, 10.1, 10.3]
    # ahead in 9 of 10 pairs and by more than rev's quartile spread of 0.2
    assert verdict(rev, [11.0] * 9 + [9.0], "higher", 0.2) == "gain"
    assert verdict(rev, [9.0] * 9 + [11.0], "lower", 0.2) == "gain"
    # ahead by as much, but in 8 of 10 pairs only
    assert verdict(rev, [11.0] * 8 + [9.0] * 2, "higher", 0.2) == "no regression"
    assert verdict(rev, [x + 0.1 for x in rev], "higher", 0.2) == "no regression"
    assert verdict(rev, [7.9] * 10, "higher", 0.2) == "regression"
    assert verdict(rev, [12.5] * 10, "lower", 0.2) == "regression"
    assert verdict(rev, [12.0] * 10, "lower", 0.2) == "no regression"
    # a spread of 0.2 on a median of 10.2 is wider than a bound of 0.01
    assert verdict(rev, list(rev), "higher", 0.01) == "unresolved"
    # unless every run of the working tree did better than every run of rev
    rev = [10.0] * 4 + [10.1, 10.5] + [10.6] * 4
    assert verdict(rev, [10.7] * 10, "higher", 0.01) == "no regression"


def test_bench_file_times_the_layers_and_writes_nothing():
    path = list(sys.path)
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        from bench_file import layers
        before = _files(ROOT)  # after the import, which may cache its bytecode
        timings = layers(repeats=2, calls=2)
    finally:
        sys.path[:] = path
    assert sorted(timings) == ["families.eval_family_lieb_kraus_n3_us",
                               "lab.dominance_objective_4_rows_n2_us",
                               "linalg.eigh_3x3_us", "linalg.from_hermitian_3x3_us"]
    assert all(t > 0 for t in timings.values())
    assert _files(ROOT) == before
