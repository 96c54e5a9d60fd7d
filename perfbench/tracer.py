"""Span tracing of tracelab's layers, installed from outside the package.

The tracer wraps public functions of each module and rebinds the wrapper at
every module attribute that holds the original, so that ``from .x import f``
bindings in other modules are traced too.  Spans (name, parent, start, end)
are appended to flat arrays while the workload runs; self times and per-layer
metrics are computed afterwards.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, attribute, span name, kind) for every traced function.  kind is
#: "span" (timed), "count" (call count only, for very hot helpers) or a
#: tally name: "evals" counts input pairs, "nfev" counts objective evaluations.
TARGETS = (
    ("tracelab.linalg", "PosDef.from_matrix", "linalg.from_matrix", "span"),
    ("tracelab.linalg", "matrix_power", "linalg.matrix_power", "span"),
    ("tracelab.linalg", "matrix_exp_herm", "linalg.matrix_exp_herm", "span"),
    # every sampler in lab, and sample_posdef itself, draws through this one
    ("tracelab.linalg", "sample_posdef_rng", "linalg.sample_posdef", "span"),
    ("tracelab.linalg", "check_hermitian", "linalg.check_hermitian", "count"),
    ("tracelab.posmaps", "apply_map", "posmaps.apply_map", "span"),
    ("tracelab.posmaps", "is_strictly_positive", "posmaps.is_strictly_positive", "span"),
    ("tracelab.means", "eval_mean", "means.eval_mean", "span"),
    ("tracelab.means", "power_mean", "means.power_mean", "span"),
    ("tracelab.norms", "eval_norm_from_eigs", "norms.eval_norm_from_eigs", "span"),
    ("tracelab.families", "eval_family", "families.eval_family", "evals"),
    ("tracelab.lab", "midpoint_test", "lab.midpoint_test", "span"),
    ("tracelab.lab", "hunt_counterexample", "lab.hunt_counterexample", "span"),
    ("tracelab.lab", "loewner_midpoint_test", "lab.loewner_midpoint_test", "span"),
    ("tracelab.lab", "certificate_is_valid", "lab.certificate_is_valid", "span"),
    # the Nelder-Mead refinement in lab resolves scipy.optimize.minimize at call time
    ("scipy.optimize", "minimize", "lab.nm", "nfev"),
)


def _input_pairs(args) -> int:
    """Input pairs in one eval_family call: N for a stack of N, else 1."""
    A = args[1]
    shape = getattr(A, "shape", ())
    return shape[0] if len(shape) == 3 else 1


class Tracer:
    """Collects spans and counts while installed; see :meth:`installed`."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span_wrapper(self, fn, name: str, kind: str):
        nid = self._name(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        tally = f"{name}.{kind}"
        if kind in ("evals", "nfev"):
            counts.setdefault(tally, 0)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if kind == "evals":
                counts[tally] += _input_pairs(args)
            elif kind == "nfev":
                counts[tally] += int(result.nfev)
            return result

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        tally = f"{name}.calls"
        counts.setdefault(tally, 0)

        def counted(*args, **kwargs):
            counts[tally] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        undo = []
        try:
            for module_name, attr, name, kind in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    # a classmethod: wrap its function and rebind on the class
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapped = classmethod(self._span_wrapper(original.__func__, name, kind))
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                if kind == "count":
                    wrapped = self._count_wrapper(original, name)
                else:
                    wrapped = self._span_wrapper(original, name, kind)
                for holder in _holders(module):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], dur)
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own_by_name = np.bincount(a["name_id"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own_by_name[i])}
            for i, name in enumerate(self.names)
        }


def _holders(home):
    """The defining module plus every tracelab module (and the package)."""
    yield home
    for name, module in list(sys.modules.items()):
        if module is not home and (name == "tracelab" or name.startswith("tracelab.")):
            yield module


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    ``parent[i]`` is the index of span i's parent, or -1 for a root span.
    Spans nest properly (one thread), so children never overlap each other.
    """
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    return dur - children
