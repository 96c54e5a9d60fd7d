"""Kubo-Ando operator means via representing functions.

A mean is evaluated as A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} where f is its
representing function with f(1) = 1.  The plain-sum combiner A + B is carried
alongside as non-normalized plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    DimensionMismatchError,
    PosDef,
    hermitize,
    matrix_log,
    matrix_exp_herm,
    matrix_power,
)

KUBO_ANDO_KINDS = frozenset({"arithmetic", "harmonic", "geometric", "power"})
ALL_KINDS = KUBO_ANDO_KINDS | {"sum"}
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
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        if self.kind == "geometric":
            if self.t is None or not (0 <= self.t <= 1):
                raise ValueError(f"geometric mean requires t in [0, 1], got {self.t}")
        if self.kind == "power":
            if self.r is None or not (-1 <= self.r <= 1) or self.r == 0:
                raise ValueError(f"power mean requires r in [-1, 1], r != 0, got {self.r}")
        if self.modifier is not None and self.modifier not in MODIFIERS:
            raise ValueError(f"unknown modifier {self.modifier!r}")
        if self.kind != "sum":
            f = self.rep_function()
            if abs(float(f(np.asarray([1.0]))[0]) - 1.0) > 1e-12:
                raise ValueError("representing function is not normalized: f(1) != 1")

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
        if self.t is not None:
            base += f":{self.t:g}"
        if self.r is not None:
            base += f":{self.r:g}"
        if self.modifier:
            base = f"{self.modifier}({base})"
        return base

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.t is not None:
            d["t"] = self.t
        if self.r is not None:
            d["r"] = self.r
        if self.modifier is not None:
            d["modifier"] = self.modifier
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MeanSpec":
        return cls(kind=d["kind"], t=d.get("t"), r=d.get("r"), modifier=d.get("modifier"))

    @classmethod
    def parse(cls, text: str) -> "MeanSpec":
        """Parse CLI shorthand like 'geometric:0.5', 'power:-0.3', 'sum'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            if kind == "geometric":
                return cls(kind=kind, t=float(param))
            if kind == "power":
                return cls(kind=kind, r=float(param))
            raise ValueError(f"mean kind {kind!r} takes no parameter")
        if text == "geometric":
            return cls(kind="geometric", t=0.5)
        return cls(kind=text)


def eval_mean(spec: MeanSpec, A: PosDef, B: PosDef) -> PosDef:
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch {A.dim} vs {B.dim}")
    if spec.modifier == "transposed":
        base = MeanSpec(spec.kind, spec.t, spec.r)
        return eval_mean(base, B, A)
    if spec.modifier == "adjoint":
        base = MeanSpec(spec.kind, spec.t, spec.r)
        return eval_mean(base, A.inv(), B.inv()).inv()
    if spec.kind == "sum":
        return PosDef.from_matrix(A.mat + B.mat)
    f = spec.rep_function()
    Ah = matrix_power(A, 0.5)
    Aih = matrix_power(A, -0.5)
    W = PosDef.from_matrix(hermitize(Aih.mat @ B.mat @ Aih.mat))
    fW = (W.vecs * np.asarray(f(W.eigs), dtype=float)) @ W.vecs.conj().T
    return PosDef.from_matrix(hermitize(Ah.mat @ fW @ Ah.mat))


def power_mean(A: PosDef, B: PosDef, p: float) -> PosDef:
    """The matrix power mean ((A^p + B^p)/2)^{1/p}; p = 0 is the log-exp limit."""
    if A.dim != B.dim:
        raise DimensionMismatchError(f"dimension mismatch {A.dim} vs {B.dim}")
    if p == 0:
        return matrix_exp_herm(0.5 * (matrix_log(A) + matrix_log(B)))
    M = PosDef.from_matrix(0.5 * (matrix_power(A, p).mat + matrix_power(B, p).mat))
    return matrix_power(M, 1.0 / p)
