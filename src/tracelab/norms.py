"""Catalog of symmetric norms and symmetric anti-norms on PSD matrices.

All functionals here depend only on the eigenvalue multiset, so evaluation
goes through the sorted spectrum.  A spec that sets a parameter its kind does
not take (see ``PARAMETER``) is refused when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import is_real


#: eigenvalues below this fraction of the largest count as zero for rank decisions
RANK_FLOOR = 1e-14

#: the parameter each kind takes; kyfan, operator and trace are norms, the rest anti-norms
PARAMETER = {"kyfan": "k", "kyfan-anti": "k", "minkowski": "k", "schatten-quasi": "p",
             "neg-schatten": "p", "trace": None, "operator": None, "lambda-min": None}


@dataclass(frozen=True)
class NormSpec:
    """Tagged choice of symmetric norm or anti-norm.

    kind: a key of PARAMETER, which names the parameter (k, p or none) that the
    kind takes.  The trace is simultaneously a norm and an anti-norm.
    """

    kind: str
    k: int | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in PARAMETER:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.p is not None and not is_real(self.p):
            raise ValueError(f"{self.kind} requires a real p, got {self.p!r}")
        for name in ("k", "p"):
            if (value := getattr(self, name)) is not None and name != PARAMETER[self.kind]:
                raise ValueError(f"{self.kind} takes no parameter {name}, got {value!r}")
        if PARAMETER[self.kind] == "k":
            if type(self.k) is not int or self.k < 1:  # bool, float and None refused
                raise ValueError(f"{self.kind} requires an integer k >= 1, got {self.k!r}")
        if self.kind == "schatten-quasi":
            if self.p is None or not (0 < self.p < 1):
                raise ValueError(f"schatten-quasi requires 0 < p < 1, got {self.p}")
        if self.kind == "neg-schatten":
            if self.p is None or not 0 < self.p < np.inf:  # refuses NaN too
                raise ValueError(f"neg-schatten requires p > 0 and finite, got {self.p}")

    def label(self) -> str:
        if self.k is not None:
            return f"{self.kind}:{self.k}"
        if self.p is not None:
            return f"{self.kind}:{self.p:g}"
        return self.kind

    def to_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "NormSpec":
        return cls(kind=d["kind"], k=d.get("k"), p=d.get("p"))

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        """Parse CLI shorthand like 'kyfan:2', 'schatten-quasi:0.5', 'trace'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            if PARAMETER.get(kind) == "k":
                return cls(kind=kind, k=int(param))
            return cls(kind=kind, p=float(param))
        return cls(kind=text)


def _check_psd_eigs(eigs: np.ndarray) -> np.ndarray:
    """Sort a spectrum (n,), or each of a stack (..., n), and clip tiny negatives
    (numerical PSD) to zero; reject genuine negatives.

    A spectrum fails when its smallest value is below -1e-10 times its largest
    |eigenvalue| floored at 1.  That threshold is at most -1e-10, so it is computed
    only when some smallest value is negative.  The error names the first failing
    spectrum of a stack, with its smallest eigenvalue and its threshold."""
    eigs = np.sort(np.asarray(eigs, dtype=float), axis=-1)
    if np.fmin.reduce(eigs[..., :1], axis=None, initial=np.inf) < 0:
        low = eigs[..., 0]
        threshold = -1e-10 * np.fmax(1.0, np.abs(eigs).max(axis=-1))
        bad = np.flatnonzero(low < threshold)
        if bad.size:
            if eigs.ndim == 1:
                raise ValueError(f"input is not PSD: smallest eigenvalue {low:.3e}")
            at = np.unravel_index(bad[0], low.shape)
            raise ValueError(
                f"input is not PSD: spectrum {list(map(int, at))} of the stack has "
                f"smallest eigenvalue {low[at]:.3e}, below {threshold[at]:.3e}")
    return np.maximum(eigs, 0.0)


def _rank_deficient(lam: np.ndarray) -> np.ndarray:
    """Whether the smallest of a sorted spectrum counts as zero."""
    return lam[..., 0] <= RANK_FLOOR * np.maximum(lam[..., -1], 1.0)


#: x ** e entry by entry with the C library's pow, as on numpy scalars; the
#: vectorized power ufunc differs from it in the last bit
_pow = np.vectorize(pow, otypes=[float])


def eval_norm_from_eigs(spec: NormSpec, eigs: np.ndarray):
    """Evaluate the functional from a PSD spectrum (any order): a float for a
    spectrum (n,), an array of shape (...) for a stack (..., n)."""
    lam = _check_psd_eigs(eigs)
    n = lam.shape[-1]
    if spec.k is not None and spec.k > n:
        raise ValueError(f"k = {spec.k} out of range for dimension {n}")
    if spec.kind == "trace":
        value = np.add.reduce(lam, axis=-1)
    elif spec.kind == "operator":
        value = lam[..., -1]
    elif spec.kind == "lambda-min":
        value = lam[..., 0]
    elif spec.kind == "kyfan":
        value = np.add.reduce(lam[..., n - spec.k :], axis=-1)
    elif spec.kind == "kyfan-anti":
        value = np.add.reduce(lam[..., : spec.k], axis=-1)
    elif spec.kind == "schatten-quasi":
        value = _pow(np.sum(lam ** spec.p, axis=-1), 1.0 / spec.p)
    else:
        # neg-schatten and minkowski are 0 on a rank-deficient spectrum, whose
        # eigenvalues are set to 1 so that no 0^-p or log 0 is taken
        full = ~_rank_deficient(lam)
        lam = np.where(full[..., None], lam, 1.0)
        if spec.kind == "neg-schatten":
            value = _pow(np.sum(lam ** (-spec.p), axis=-1), -1.0 / spec.p)
        else:  # minkowski, as a log-sum to avoid product underflow
            value = np.exp(np.mean(np.log(lam[..., : spec.k]), axis=-1))
        value = np.where(full, value, 0.0)
    return float(value) if value.ndim == 0 else value


def catalog_antinorms(dim: int) -> list[NormSpec]:
    """The anti-norm catalog instantiated for a given dimension."""
    specs = [NormSpec("trace"), NormSpec("lambda-min")]
    for k in range(1, dim + 1):
        specs.append(NormSpec("kyfan-anti", k=k))
        specs.append(NormSpec("minkowski", k=k))
    specs.append(NormSpec("schatten-quasi", p=0.5))
    specs.append(NormSpec("neg-schatten", p=1.0))
    return specs
