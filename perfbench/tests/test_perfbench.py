"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from tracelab import families, lab, linalg, means  # noqa: E402

SMALL = {
    "verify": lambda seed: workloads.verify(seed, block=3),
    "hunt": lambda seed: workloads.hunt(seed, budget=5),
    "dominance": lambda seed: workloads.dominance(seed, block=10),
}


def outcomes_of(ops, pass_no=0):
    return run.run_pass(ops, pass_no)[0]


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_self_time_of_synthetic_span_tree():
    # root [0, 10] has children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    own = self_times(parent, end - start)
    np.testing.assert_allclose(own, [4.0, 2.0, 3.0, 1.0])
    assert own.sum() == pytest.approx(10.0)


def test_op_times_are_scaled_by_the_calibrations_around_them():
    nominal = run.CAL_NOMINAL_US
    seconds = [[1.0, 2.0], [3.0, 4.0]]
    assert run.scaled_seconds(seconds, [nominal] * 5) == pytest.approx(10.0)
    # the machine ran at half speed around the last op only
    cal = [nominal, nominal, nominal, nominal, 3 * nominal]
    assert run.scaled_seconds(seconds, cal) == pytest.approx(1 + 2 + 3 + 4 / 2)


def test_tracer_rebinds_every_holder_and_restores():
    originals = (families.eval_family, lab.eval_family, means.matrix_power,
                 families.matrix_power, linalg.PosDef.__dict__["from_matrix"])
    ops = SMALL["verify"](0)
    tracer = Tracer()
    with tracer.installed():
        assert lab.eval_family is families.eval_family is not originals[0]
        assert families.matrix_power is means.matrix_power is linalg.matrix_power
        assert families.matrix_power is not originals[3]
        outcomes_of(ops[:1])
    assert (families.eval_family, lab.eval_family, means.matrix_power,
            families.matrix_power, linalg.PosDef.__dict__["from_matrix"]) == originals

    spans = tracer.summary()
    assert spans["lab.midpoint_test"]["calls"] == 1
    assert tracer.counts["families.eval_family.evals"] == spans["families.eval_family"]["calls"]
    assert spans["linalg.from_matrix"]["calls"] > 0
    assert tracer.counts["linalg.check_hermitian.calls"] > 0
    # the single root span covers everything, so self times add up to it
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert roots.sum() == 1
    root_s = float((a["end"] - a["start"])[roots][0])
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(root_s)


@pytest.mark.parametrize("name", ["verify", "hunt", "dominance"])
def test_tiny_workload_passes_its_checks(name):
    outcomes = outcomes_of(SMALL[name](1))
    assert outcomes and all(o.ok for o in outcomes), [o.text[:200] for o in outcomes]


def test_same_seed_same_digest():
    a = run.digest(outcomes_of(SMALL["verify"](5)))
    b = run.digest(outcomes_of(SMALL["verify"](5)))
    c = run.digest(outcomes_of(SMALL["verify"](6)))
    assert a == b != c


def test_passes_draw_independent_inputs():
    ops = SMALL["verify"](5)
    assert run.digest(outcomes_of(ops, 0)) != run.digest(outcomes_of(ops, 1))


def test_traced_run_reports_every_declared_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(run, "TRACE_PASSES", {"verify": 1})
    monkeypatch.setitem(workloads.WORKLOADS, "verify", SMALL["verify"])
    assert run.main(["--workload", "verify", "--seed", "2", "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(declared("per_layer"))
    assert last["metrics"]["families.eval_family.evals"]["value"] > 0


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "verify", SMALL["verify"])
    assert run.main(["--workload", "verify", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["attempted"] >= 4
    assert sorted(last["metrics"]) == sorted(declared("end_to_end"))
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
