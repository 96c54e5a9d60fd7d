"""Where a perfbench workload spends its time: cProfile over whole passes.

Usage, from anywhere inside a checkout:

    python3 tools/hotspots.py WORKLOAD [--passes 2] [--seed 2] [--top 25]

builds perfbench's workload WORKLOAD (``verify``, ``hunt`` or ``dominance``) at
the seed on this checkout's ``src/``, runs one warm-up pass and then ``--passes``
passes in this process under cProfile, and prints the ``--top`` functions by
self time and by cumulative time, perfbench's own functions left out.  cProfile
sees every Python function, the ones that perfbench's tracer does not wrap too,
but adds a cost to each call and none to native code: use it to find where the
time goes, and the benchmark to measure a change.  Nothing is written inside
the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def label(func: tuple) -> str:
    """file:line(function), the file relative to the checkout when inside it."""
    path, line, name = func
    if path.startswith(ROOT + os.sep):
        path = os.path.relpath(path, ROOT)
    return f"{path}:{line}({name})" if line else name


def table(stats: pstats.Stats, key: str, top: int) -> list[str]:
    """The top functions of stats sorted by key ("tottime" or "cumtime"), leaving
    out perfbench's own: its pass loop and the ops that wrap tracelab's calls."""
    column = {"tottime": 2, "cumtime": 3}[key]
    rows = sorted(((func, row) for func, row in stats.stats.items()
                   if not func[0].startswith(PERFBENCH + os.sep)),
                  key=lambda item: item[1][column], reverse=True)
    lines = [f"{'self_s':>8} {'cum_s':>8} {'calls':>9}  function"]
    for func, (_, calls, self_s, cum_s, _) in rows[:top]:
        lines.append(f"{self_s:8.3f} {cum_s:8.3f} {calls:9d}  {label(func)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", help="a perfbench workload: verify, hunt or dominance")
    ap.add_argument("--passes", type=int, default=2, help="profiled passes (default 2)")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--top", type=int, default=25, help="functions per table (default 25)")
    args = ap.parse_args(argv)
    if args.passes < 1 or args.top < 1:
        ap.error("--passes and --top must be at least 1")
    sys.path.insert(0, PERFBENCH)
    import run

    run.import_tracelab()  # this checkout's src/, and no other copy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    run.run_pass(ops, 0)
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    for k in range(1, args.passes + 1):
        run.run_pass(ops, k)
    profiler.disable()
    wall = time.perf_counter() - t0
    stats = pstats.Stats(profiler)
    print(f"{args.workload}, seed {args.seed}, {args.passes} profiled passes after one "
          f"warm-up: {wall:.2f} s under cProfile")
    for key, title in (("tottime", "self time"), ("cumtime", "cumulative time")):
        print(f"\ntop {args.top} by {title}")
        print("\n".join(table(stats, key, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
