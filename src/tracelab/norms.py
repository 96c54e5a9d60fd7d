"""Catalog of symmetric norms and symmetric anti-norms on PSD matrices.

All functionals here depend only on the eigenvalue multiset, so evaluation
goes through the sorted spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PosDef

#: eigenvalues below this fraction of the largest count as zero for rank decisions
RANK_FLOOR = 1e-14

NORM_KINDS = frozenset({"kyfan", "trace", "operator"})
ANTINORM_KINDS = frozenset(
    {"kyfan-anti", "schatten-quasi", "neg-schatten", "minkowski", "trace", "lambda-min"}
)
ALL_KINDS = NORM_KINDS | ANTINORM_KINDS


@dataclass(frozen=True)
class NormSpec:
    """Tagged choice of symmetric norm or anti-norm.

    kind: one of kyfan(k), kyfan-anti(k), schatten-quasi(p), neg-schatten(p),
    minkowski(k), trace, operator, lambda-min.  The trace is simultaneously a
    norm and an anti-norm.
    """

    kind: str
    k: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind in ("kyfan", "kyfan-anti", "minkowski"):
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.kind} requires k >= 1, got {self.k}")
        if self.kind == "schatten-quasi":
            if self.p is None or not (0 < self.p < 1):
                raise ValueError(f"schatten-quasi requires 0 < p < 1, got {self.p}")
        if self.kind == "neg-schatten":
            if self.p is None or self.p <= 0:
                raise ValueError(f"neg-schatten requires p > 0, got {self.p}")

    @property
    def is_norm(self) -> bool:
        return self.kind in NORM_KINDS

    def label(self) -> str:
        if self.k is not None:
            return f"{self.kind}:{self.k}"
        if self.p is not None:
            return f"{self.kind}:{self.p:g}"
        return self.kind

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.k is not None:
            d["k"] = self.k
        if self.p is not None:
            d["p"] = self.p
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NormSpec":
        return cls(kind=d["kind"], k=d.get("k"), p=d.get("p"))

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse CLI shorthand like 'kyfan:2', 'schatten-quasi:0.5', 'trace'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            if kind in ("kyfan", "kyfan-anti", "minkowski"):
                return cls(kind=kind, k=int(param))
            return cls(kind=kind, p=float(param))
        return cls(kind=text)


def _check_psd_eigs(eigs: np.ndarray) -> np.ndarray:
    """Clip tiny negatives (numerical PSD) to zero; reject genuine negatives."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    scale = max(1.0, float(np.abs(eigs).max()) if eigs.size else 1.0)
    if eigs[0] < -1e-10 * scale:
        raise ValueError(f"input is not PSD: smallest eigenvalue {eigs[0]:.3e}")
    return np.clip(eigs, 0.0, None)


def _rank_deficient(lam: np.ndarray) -> bool:
    """Whether the smallest of a sorted spectrum counts as zero."""
    return lam[0] <= RANK_FLOOR * max(lam[-1], 1.0)


def eval_norm_from_eigs(spec: NormSpec, eigs: np.ndarray) -> float:
    """Evaluate the functional from a PSD spectrum (any order)."""
    lam = _check_psd_eigs(eigs)
    n = lam.size
    if spec.k is not None and spec.k > n:
        raise ValueError(f"k = {spec.k} out of range for dimension {n}")
    if spec.kind == "trace":
        return float(lam.sum())
    if spec.kind == "operator":
        return float(lam[-1])
    if spec.kind == "lambda-min":
        return float(lam[0])
    if spec.kind == "kyfan":
        return float(lam[n - spec.k :].sum())
    if spec.kind == "kyfan-anti":
        return float(lam[: spec.k].sum())
    if spec.kind == "schatten-quasi":
        return float(np.sum(lam ** spec.p) ** (1.0 / spec.p))
    if spec.kind in ("neg-schatten", "minkowski") and _rank_deficient(lam):
        return 0.0
    if spec.kind == "neg-schatten":
        return float(np.sum(lam ** (-spec.p)) ** (-1.0 / spec.p))
    if spec.kind == "minkowski":
        # log-sum to avoid product underflow
        return float(np.exp(np.mean(np.log(lam[: spec.k]))))
    raise AssertionError(spec.kind)


def eval_norm(spec: NormSpec, A: PosDef) -> float:
    return eval_norm_from_eigs(spec, A.eigs)


def derived_antinorm(spec: NormSpec, A: PosDef) -> float:
    """The anti-norm ||A^{-1}||^{-1} derived from a symmetric norm."""
    if not spec.is_norm:
        raise ValueError(f"derived_antinorm needs a NORM-tagged spec, got {spec.kind!r}")
    lam = _check_psd_eigs(A.eigs)
    if _rank_deficient(lam):
        return 0.0
    return 1.0 / eval_norm_from_eigs(spec, 1.0 / lam)


def catalog_antinorms(dim: int) -> list[NormSpec]:
    """The anti-norm catalog instantiated for a given dimension."""
    specs = [NormSpec("trace"), NormSpec("lambda-min")]
    for k in range(1, dim + 1):
        specs.append(NormSpec("kyfan-anti", k=k))
        specs.append(NormSpec("minkowski", k=k))
    specs.append(NormSpec("schatten-quasi", p=0.5))
    specs.append(NormSpec("neg-schatten", p=1.0))
    return specs


def catalog_norms(dim: int) -> list[NormSpec]:
    specs = [NormSpec("trace"), NormSpec("operator")]
    for k in range(1, dim + 1):
        specs.append(NormSpec("kyfan", k=k))
    return specs
