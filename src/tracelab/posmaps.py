"""Positive linear maps between matrix algebras.

Every map is a Kraus stack: A -> sum_k X_k* A X_k, optionally applied to A^T
instead of A.  By Choi's theorem every completely positive map has this form;
the transpose-composed variant is positive but not completely positive, so
CP-only claims can be probed for CP-necessity.  Phi(I), and with it strict
positivity, is computed once when a map is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DimensionMismatchError,
    MatrixError,
    PosDef,
    _complex,
    _matrix_payload,
    eigh,
    hermitize,
    mat_from_json,
    mat_to_json,
    rng_for,
)

KINDS = frozenset({"identity", "conjugation", "kraus", "pinching", "transpose-kraus"})

#: strict-positivity threshold on lambda_min(Phi(I)) relative to lambda_max
STRICT_POS_RTOL = 1e-12
#: eigenvalue floor for inverses inside the hat-map
HAT_FLOOR = 1e-13


def _kraus_sum(adjoint: np.ndarray, src: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_k X_k* src X_k over Kraus pieces X_k (r, n, m), adjoint their X_k* (r, m, n)."""
    return np.add.reduce(adjoint @ src[..., None, :, :] @ kraus, axis=-3)


@dataclass(frozen=True, eq=False)
class MapSpec:
    """The positive map A -> sum_k X_k* A X_k, applied to A^T when ``transpose``.

    ``kraus`` is the stack of pieces X_k, of shape (r, in_dim, out_dim).
    ``kind`` records how the map was spelled (identity, conjugation, kraus,
    pinching, transpose-kraus) so that it serializes as it was built; only
    ``transpose`` reads it.  ``unit`` is Phi(I) and ``strictly_positive``
    whether it is positive definite, computed at construction as the adjoints are.
    """

    kind: str
    kraus: np.ndarray
    _adjoint: np.ndarray = field(init=False, repr=False)
    unit: np.ndarray = field(init=False, repr=False)
    strictly_positive: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        kraus = np.array(self.kraus, dtype=complex)
        if kraus.ndim != 3 or 0 in kraus.shape:
            raise ValueError(f"{self.kind} map requires a non-empty stack of Kraus pieces")
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "_adjoint", kraus.conj().transpose(0, 2, 1))
        unit = _kraus_sum(self._adjoint, np.eye(kraus.shape[1], dtype=complex), kraus)
        unit.setflags(write=False)
        w = eigh(hermitize(unit), vectors=False)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "strictly_positive",
                           bool(w[0] > STRICT_POS_RTOL * max(w[-1], 0.0)))

    @property
    def in_dim(self) -> int:
        return self.kraus.shape[1]

    @property
    def out_dim(self) -> int:
        return self.kraus.shape[2]

    @property
    def transpose(self) -> bool:
        return self.kind == "transpose-kraus"

    @property
    def cp(self) -> bool:
        return not self.transpose

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "in_dim": self.in_dim, "out_dim": self.out_dim,
                   "cp": self.cp}
        if self.kind == "pinching":
            d["projections"] = [mat_to_json(P) for P in self.kraus]
        elif self.kind != "identity":
            d["kraus"] = [mat_to_json_rect(X) for X in self.kraus]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MapSpec":
        kind = d["kind"]
        if kind == "identity":
            spec = identity_map(d["in_dim"])
        elif kind == "pinching":
            spec = pinching([mat_from_json(x) for x in d["projections"]])
        else:
            spec = cls(kind, [mat_from_json_rect(x) for x in d.get("kraus", ())])
        if (spec.in_dim, spec.out_dim) != (d["in_dim"], d["out_dim"]):
            raise DimensionMismatchError("map payload dimensions do not match its pieces")
        return spec


def mat_to_json_rect(X: np.ndarray) -> dict:
    X = np.asarray(X, dtype=complex)
    return {"rows": X.shape[0], "cols": X.shape[1],
            "re": X.real.tolist(), "im": X.imag.tolist()}


def mat_from_json_rect(obj: dict) -> np.ndarray:
    X, rows, cols = _matrix_payload(obj, "rows", "cols")
    if X.shape != (rows, cols):
        raise MatrixError("rectangular matrix payload shape mismatch")
    return X


def identity_map(dim: int) -> MapSpec:
    return MapSpec("identity", np.eye(dim, dtype=complex)[None])


def conjugation(X: np.ndarray) -> MapSpec:
    return MapSpec("conjugation", [X])


def kraus_map(pieces) -> MapSpec:
    return MapSpec("kraus", list(pieces))


def pinching(projections) -> MapSpec:
    """The pinching A -> sum_k P_k A P_k by orthogonal projections summing to I."""
    P = np.array(list(projections), dtype=complex)
    if P.ndim != 3 or P.shape[1] != P.shape[2]:
        raise DimensionMismatchError("pinching needs a stack of square projections")
    if not np.allclose(P.sum(axis=0), np.eye(P.shape[1]), atol=1e-10):
        raise ValueError("pinching projections must sum to the identity")
    for i, Pi in enumerate(P):
        if not (np.allclose(Pi @ Pi, Pi, atol=1e-10)
                and np.allclose(Pi.conj().T, Pi, atol=1e-10)):
            raise ValueError(f"pinching piece {i} is not an orthogonal projection")
    return MapSpec("pinching", P)


def transpose_then_kraus(pieces) -> MapSpec:
    return MapSpec("transpose-kraus", list(pieces))


def apply_map(spec: MapSpec, A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (spec.in_dim, spec.in_dim):
        raise DimensionMismatchError(
            f"input shape {A.shape} does not match map in_dim {spec.in_dim}"
        )
    return _kraus_sum(spec._adjoint, A.swapaxes(-1, -2) if spec.transpose else A, spec.kraus)


def is_strictly_positive(spec: MapSpec) -> bool:
    return spec.strictly_positive


def hat_map(spec: MapSpec, A: PosDef) -> PosDef:
    """The nonlinear transform Phi(A^{-1})^{-1} on positive definite inputs.  An image
    whose smallest eigenvalue is not above HAT_FLOOR times its largest (floored at 1)
    raises MatrixError; the error names the first such image of a stack."""
    img = hermitize(apply_map(spec, A.inv().mat))
    w, V = eigh(img)
    low, threshold = w[..., 0], HAT_FLOOR * np.maximum(w[..., -1], 1.0)
    singular = low <= threshold
    if np.logical_or.reduce(singular, axis=None):
        if w.ndim == 1:
            raise MatrixError(f"hat-map image is numerically singular: eigenvalue {low:.3e}")
        at = np.unravel_index(np.flatnonzero(singular)[0], low.shape)
        raise MatrixError(
            f"hat-map image is numerically singular: matrix {list(map(int, at))} of the "
            f"stack has smallest eigenvalue {low[at]:.3e}, not above {threshold[at]:.3e}")
    return PosDef.from_spectrum(1.0 / w, V)


def sample_kraus(in_dim: int, out_dim: int, rank: int, seed: int,
                 stream_index: int = 0) -> MapSpec:
    """Random Kraus map, scaled so Phi(I) has unit spectral norm.

    Phi(I) = sum_k X_k^* X_k has rank at most rank * in_dim, so a map with
    out_dim above that is never strictly positive and is refused; any other
    shape is strictly positive with probability 1.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if out_dim > rank * in_dim:
        raise ValueError(f"a rank-{rank} map from dimension {in_dim} cannot be strictly "
                         f"positive on dimension {out_dim}")
    pieces = _complex(rng_for(seed, stream_index).standard_normal((rank, 2, in_dim, out_dim)))
    norm = float(eigh(hermitize(kraus_map(pieces).unit), vectors=False)[-1])
    spec = kraus_map(pieces / np.sqrt(norm))
    if not spec.strictly_positive:
        raise RuntimeError("sampled Kraus map is not strictly positive")
    return spec
