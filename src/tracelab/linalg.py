"""Hermitian spectral calculus, Loewner-order predicates and seeded sampling.

All matrices are dense complex numpy arrays at desk scale (dim <= ~64).
Every matrix produced by arithmetic is passed through :func:`hermitize`
before decomposition to suppress floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

HERM_ATOL = 1e-12
RECON_RTOL = 1e-10


class MatrixError(ValueError):
    pass


class NotHermitianError(MatrixError):
    pass


class NotPositiveDefiniteError(MatrixError):
    pass


class DimensionMismatchError(MatrixError):
    pass


def hermitize(M: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part (M + M*) / 2."""
    M = np.asarray(M, dtype=complex)
    return 0.5 * (M + M.conj().T)


def max_asymmetry(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=complex)
    return float(np.max(np.abs(M - M.conj().T)))


def check_hermitian(M: np.ndarray, atol: float = HERM_ATOL) -> np.ndarray:
    """Validate hermiticity; returns the hermitized matrix.

    The tolerance scales with the largest entry, floored at 1.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    asym = max_asymmetry(M)
    if asym > atol * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} exceeds "
            f"{atol * scale:.3e}"
        )
    return hermitize(M)


def spectral_decompose(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and a unitary of eigenvectors for Hermitian H."""
    H = check_hermitian(H)
    w, V = np.linalg.eigh(H)
    return w, V


@dataclass(frozen=True)
class PosDef:
    """A positive definite matrix with its cached spectral decomposition.

    ``vecs @ diag(eigs) @ vecs*`` reconstructs ``mat``; eigenvalues are
    ascending and strictly positive.
    """

    mat: np.ndarray
    eigs: np.ndarray
    vecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "PosDef":
        w, V = spectral_decompose(M)
        if w[0] <= 0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e}"
            )
        return cls(mat=hermitize(M), eigs=w, vecs=V)

    @classmethod
    def from_spectrum(cls, eigs: np.ndarray, vecs: np.ndarray) -> "PosDef":
        eigs = np.asarray(eigs, dtype=float)
        if np.any(eigs <= 0):
            raise NotPositiveDefiniteError(
                f"spectrum contains a non-positive value: {eigs.min():.3e}"
            )
        order = np.argsort(eigs)
        eigs = eigs[order]
        vecs = np.asarray(vecs, dtype=complex)[:, order]
        mat = hermitize((vecs * eigs) @ vecs.conj().T)
        return cls(mat=mat, eigs=eigs, vecs=vecs)

    def power(self, t: float) -> "PosDef":
        return matrix_power(self, t)

    def inv(self) -> "PosDef":
        return matrix_power(self, -1.0)


def as_posdef(A: "PosDef | np.ndarray") -> PosDef:
    if isinstance(A, PosDef):
        return A
    return PosDef.from_matrix(A)


def matrix_power(P: PosDef, t: float) -> PosDef:
    """Spectral real power; t = 0 yields the identity (A^0 := I on PD)."""
    if t == 0:
        eye = np.eye(P.dim)
        return PosDef(mat=eye.astype(complex), eigs=np.ones(P.dim), vecs=eye.astype(complex))
    if t == 1:
        return P
    return PosDef.from_spectrum(P.eigs**t, P.vecs)


def matrix_function(P: PosDef, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to P through its spectrum; returns Hermitian."""
    w = np.asarray(f(P.eigs), dtype=float)
    if not np.all(np.isfinite(w)):
        bad = P.eigs[~np.isfinite(w)][0]
        raise MatrixError(f"scalar function is not finite at eigenvalue {bad!r}")
    return hermitize((P.vecs * w) @ P.vecs.conj().T)


def matrix_log(P: PosDef) -> np.ndarray:
    return matrix_function(P, np.log)


def matrix_exp_herm(H: np.ndarray) -> PosDef:
    """exp of a Hermitian matrix, always positive definite."""
    w, V = spectral_decompose(H)
    return PosDef.from_spectrum(np.exp(w), V)


def loewner_leq(A: np.ndarray, B: np.ndarray, tol: float = 0.0) -> tuple[bool, float]:
    """A <= B in the Loewner order; witness is the smallest eigenvalue of B - A."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch {A.shape} vs {B.shape}")
    witness = float(np.linalg.eigvalsh(hermitize(B - A))[0])
    return witness >= -tol, witness


@dataclass(frozen=True)
class SamplerConfig:
    """Log-uniform eigenvalue sampling with a Haar-random eigenbasis.

    Identical (seed, stream_index) reproduces identical output bit-exactly.
    """

    dim: int
    eig_low: float = 0.1
    eig_high: float = 10.0
    seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if not (0 < self.eig_low <= self.eig_high):
            raise ValueError(
                f"need 0 < eig_low <= eig_high, got [{self.eig_low}, {self.eig_high}]"
            )

    def rng(self) -> np.random.Generator:
        return rng_for(self.seed, self.stream_index)


def rng_for(seed: int, stream_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_index,)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    Z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def sample_unitary(dim: int, seed: int, stream_index: int = 0) -> np.ndarray:
    return haar_unitary(dim, rng_for(seed, stream_index))


def sample_posdef_rng(
    rng: np.random.Generator, dim: int, eig_low: float, eig_high: float
) -> PosDef:
    logs = rng.uniform(np.log(eig_low), np.log(eig_high), size=dim)
    eigs = np.exp(logs)
    U = haar_unitary(dim, rng)
    return PosDef.from_spectrum(eigs, U)


def sample_posdef(cfg: SamplerConfig) -> PosDef:
    return sample_posdef_rng(cfg.rng(), cfg.dim, cfg.eig_low, cfg.eig_high)


def sample_hermitian_rng(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(Z) * scale


def mat_to_json(M: np.ndarray) -> dict:
    """Row-major {dim, re, im} representation used in certificates and fixtures."""
    M = np.asarray(M, dtype=complex)
    return {
        "dim": M.shape[0],
        "re": M.real.tolist(),
        "im": M.imag.tolist(),
    }


def mat_from_json(obj: dict) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    M = re + 1j * im
    if M.shape != (obj["dim"], obj["dim"]):
        raise MatrixError(f"matrix payload shape {M.shape} does not match dim {obj['dim']}")
    return M
