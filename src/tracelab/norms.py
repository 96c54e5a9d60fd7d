"""Catalog of symmetric norms and symmetric anti-norms on PSD matrices.

All functionals here depend only on the eigenvalue multiset, so evaluation
goes through the sorted spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PosDef, hermitize

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


def eval_norm_from_eigs(spec: NormSpec, eigs: np.ndarray) -> float:
    """Evaluate the functional from a PSD spectrum (any order)."""
    lam = _check_psd_eigs(eigs)
    n = lam.size
    if spec.k is not None and spec.k > n:
        raise ValueError(f"k = {spec.k} out of range for dimension {n}")
    lmax = lam[-1]
    singular = lam[0] <= RANK_FLOOR * max(lmax, 1.0)

    if spec.kind == "trace":
        return float(lam.sum())
    if spec.kind == "operator":
        return float(lmax)
    if spec.kind == "lambda-min":
        return float(lam[0])
    if spec.kind == "kyfan":
        return float(lam[n - spec.k :].sum())
    if spec.kind == "kyfan-anti":
        return float(lam[: spec.k].sum())
    if spec.kind == "schatten-quasi":
        return float(np.sum(lam ** spec.p) ** (1.0 / spec.p))
    if spec.kind == "neg-schatten":
        if singular:
            return 0.0
        return float(np.sum(lam ** (-spec.p)) ** (-1.0 / spec.p))
    if spec.kind == "minkowski":
        small = lam[: spec.k]
        if small[0] <= RANK_FLOOR * max(lmax, 1.0):
            return 0.0
        # log-sum to avoid product underflow
        return float(np.exp(np.mean(np.log(small))))
    raise AssertionError(spec.kind)


def eval_norm(spec: NormSpec, A: "PosDef | np.ndarray") -> float:
    if isinstance(A, PosDef):
        return eval_norm_from_eigs(spec, A.eigs)
    return eval_norm_from_eigs(spec, np.linalg.eigvalsh(hermitize(A)))


def derived_antinorm(spec: NormSpec, A: "PosDef | np.ndarray") -> float:
    """The anti-norm ||A^{-1}||^{-1} derived from a symmetric norm."""
    if not spec.is_norm:
        raise ValueError(f"derived_antinorm needs a NORM-tagged spec, got {spec.kind!r}")
    eigs = A.eigs if isinstance(A, PosDef) else np.linalg.eigvalsh(hermitize(A))
    lam = _check_psd_eigs(eigs)
    if lam[0] <= RANK_FLOOR * max(lam[-1], 1.0):
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
