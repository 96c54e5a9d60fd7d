"""Kubo-Ando operator means via representing functions.

A mean is evaluated as A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} where f is its
representing function with f(1) = 1.  The plain-sum combiner A + B is carried
alongside as non-normalized plumbing.  A spec that sets a parameter its kind does
not take (see ``PARAMETER``) is refused when it is built.

The matrix power mean ((A^p + B^p)/2)^{1/p} is computed by power_mean_pair
on A and B stacked as one PosDef, raised to p in one call; the mean's matrix
is built only for a caller that reads it.  power_mean(A, B, p) stacks its
arguments and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import PosDef, is_real, matrix_exp_herm, matrix_log, matrix_power

#: the parameter each kind takes; every kind but sum is a Kubo-Ando mean
PARAMETER = {"geometric": "t", "power": "r", "arithmetic": None, "harmonic": None, "sum": None}
MODIFIERS = frozenset({"transposed", "adjoint"})


@dataclass(frozen=True)
class MeanSpec:
    """Operator mean selected by representing function, plus the sum combiner.

    geometric carries the weight t in [0, 1] (t = 1/2 is the geometric mean);
    power carries r in [-1, 1], r != 0 (r = 1 arithmetic, r = -1 harmonic).
    """

    kind: str
    t: float | None = None
    r: float | None = None
    modifier: str | None = None

    def __post_init__(self):
        if self.kind not in PARAMETER:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        for name in ("t", "r"):
            if (value := getattr(self, name)) is not None and not is_real(value):
                raise ValueError(f"mean parameter {name} must be a real number, got {value!r}")
            if value is not None and name != PARAMETER[self.kind]:
                raise ValueError(f"{self.kind} mean takes no parameter {name}, got {value!r}")
        if self.kind == "geometric":
            if self.t is None or not (0 <= self.t <= 1):
                raise ValueError(f"geometric mean requires t in [0, 1], got {self.t}")
        if self.kind == "power":
            if self.r is None or not (-1 <= self.r <= 1) or self.r == 0:
                raise ValueError(f"power mean requires r in [-1, 1], r != 0, got {self.r}")
        if self.modifier is not None and self.modifier not in MODIFIERS:
            raise ValueError(f"unknown modifier {self.modifier!r}")

    def rep_function(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.kind == "arithmetic":
            return lambda x: (1.0 + x) / 2.0
        if self.kind == "harmonic":
            return lambda x: 2.0 * x / (1.0 + x)
        if self.kind == "geometric":
            t = self.t
            return lambda x: x**t
        if self.kind == "power":
            r = self.r
            return lambda x: ((1.0 + x**r) / 2.0) ** (1.0 / r)
        raise ValueError(f"{self.kind} has no representing function")

    def label(self) -> str:
        base = self.kind
        if (name := PARAMETER[self.kind]) is not None:
            base += f":{getattr(self, name):g}"
        if self.modifier:
            base = f"{self.modifier}({base})"
        return base

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "MeanSpec":
        return cls(kind=d["kind"], t=d.get("t"), r=d.get("r"), modifier=d.get("modifier"))

    @classmethod
    def parse(cls, text: str) -> "MeanSpec":
        """Parse CLI shorthand like 'geometric:0.5', 'power:-0.3', 'sum'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            if (name := PARAMETER.get(kind)) is None:
                raise ValueError(f"mean kind {kind!r} takes no parameter")
            return cls(kind=kind, **{name: float(param)})
        if text == "geometric":
            return cls(kind="geometric", t=0.5)
        return cls(kind=text)


def eval_mean(spec: MeanSpec, A: PosDef, B: PosDef) -> PosDef:
    if spec.modifier == "transposed":
        A, B = B, A
    adjoint = spec.modifier == "adjoint"
    if adjoint:
        A, B = A.inv(), B.inv()
    if spec.kind == "sum":
        M = PosDef.from_hermitian(A.mat + B.mat)
    else:
        f = spec.rep_function()
        Ah = matrix_power(A, 0.5)
        Aih = matrix_power(A, -0.5)
        W = PosDef.from_hermitian(Aih.mat @ B.mat @ Aih.mat)
        fW = (W.vecs * f(W.eigs)[..., None, :]) @ W.vecs.conj().swapaxes(-1, -2)
        M = PosDef.from_hermitian(Ah.mat @ fW @ Ah.mat)
    return M.inv() if adjoint else M


def power_mean_pair(P: PosDef, p: float) -> PosDef:
    """The power mean ((A^p + B^p)/2)^{1/p} of A = P[0] and B = P[1], each a matrix
    or a stack, raised to p in one call; p = 0 is the log-exp limit.  The mean's
    matrix is left unbuilt but at p = 1, where its last step has it."""
    if p == 0:
        logs = matrix_log(P)
        return matrix_exp_herm(0.5 * (logs[0] + logs[1]))
    X = matrix_power(P, p).mat
    return matrix_power(PosDef.from_hermitian(0.5 * (X[0] + X[1])), 1.0 / p)


def power_mean(A: PosDef, B: PosDef, p: float) -> PosDef:
    """The matrix power mean ((A^p + B^p)/2)^{1/p}; p = 0 is the log-exp limit."""
    return power_mean_pair(PosDef(np.stack([A.eigs, B.eigs]), np.stack([A.vecs, B.vecs]),
                                  np.stack([A.mat, B.mat])), p)
