"""Hermitian spectral calculus, Loewner-order predicates and seeded sampling.

All matrices are dense complex numpy arrays at desk scale (dim <= ~64).
Every matrix produced by arithmetic is passed through :func:`hermitize`
before decomposition to suppress floating-point drift, even one Hermitian by
construction (matrix_exp_herm's): on exact zeros hermitize is not idempotent,
and eigh reads one triangle.

Shape rule: a matrix is (n, n), or (..., n, n) for a stack evaluated in one
call; the spectral calculus here, the maps, means, norms and families take
either, and a stack fails as its failing matrix would alone.  Hermiticity and
finite entries are checked only by check_hermitian and PosDef.from_matrix, which
also take either and judge each matrix of a stack against its own scale: on
matrices from outside the program, and on the stacked mixes of lab's midpoint
trials.  Everywhere else the means, families and lab build with
PosDef.from_hermitian, PosDef.from_spectrum and matrix_exp_herm, which do not
check, from matrices that are Hermitian.

A PosDef holds its spectrum and builds its matrix on the first read of .mat,
so a caller that reads only spectra, such as the power means of the Loewner
tests, builds no matrix.  Every eigensolver run on a computed matrix goes
through eigh, which calls the LAPACK gufuncs of np.linalg.eigh and eigvalsh
(numpy.linalg._umath_linalg) directly, for their bits without their wrappers'
cost, and turns a solver failure into a MatrixError; its error state is set by
np.errstate used as a decorator, which builds no context object per call.
PosDef.from_spectrum checks positivity and order with one ufunc reduction each
over the whole stack (np.fmin.reduce, np.logical_and.reduce): the ndarray
methods .min(), .all() reach the same reductions through an extra Python
frame.  The other modules' hot paths call reductions the same way.

A Hermitian n x n matrix is parametrized by a real vector of length n*n: the
n diagonal entries, then the real and imaginary parts of each entry above the
diagonal, row by row (vec_to_herm).  herm_grad_to_vec maps the gradient of a
real function with respect to the matrix to its gradient with respect to that
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

HERM_ATOL = 1e-12
#: range of the sampled eigenvalues, drawn log-uniformly
EIG_LOW, EIG_HIGH = 0.1, 10.0


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
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def check_hermitian(M: np.ndarray) -> None:
    """Raise unless M is a finite square matrix, or a stack (..., n, n) of them, each
    Hermitian within HERM_ATOL times its own largest entry (floored at 1); the error
    names the first failing matrix of a stack.  M itself is left to the caller to
    hermitize."""
    M = np.asarray(M, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M), axis=(-2, -1), initial=1.0)
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite matrix
        asym = np.max(np.abs(M - M.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(~np.isfinite(scale) | (asym > HERM_ATOL * scale))
    if bad.size == 0:
        return
    at = np.unravel_index(bad[0], scale.shape)
    scale, asym = float(scale[at]), float(asym[at])
    which = "matrix" if M.ndim == 2 else f"matrix {list(map(int, at))} of the stack"
    if not np.isfinite(scale):
        raise MatrixError(f"{which} has a non-finite entry ({scale})")
    raise NotHermitianError(
        f"{which} is not Hermitian: max asymmetry {asym:.3e} exceeds "
        f"{HERM_ATOL * scale:.3e}"
    )


@np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore")
def eigh(H: np.ndarray, vectors: bool = True):
    """np.linalg.eigh's (w, V), or eigvalsh's w without vectors, of a computed float64
    or complex128 Hermitian matrix or stack; a solver failure raises MatrixError."""
    t = "D" if H.dtype.kind == "c" else "d"
    try:
        if vectors:
            return _umath_linalg.eigh_lo(H, signature=f"{t}->d{t}")
        return _umath_linalg.eigvalsh_lo(H, signature=f"{t}->d")
    except FloatingPointError as exc:
        raise MatrixError("eigensolver failed: Eigenvalues did not converge") from exc


class PosDef:
    """A positive definite matrix, or a stack of them, held by its spectrum.

    Eigenvalues are ascending and strictly positive; ``mat``, ``vecs @ diag(eigs)
    @ vecs*``, is built on its first read and kept, unless a constructor had it.
    """

    __slots__ = ("eigs", "vecs", "_mat")

    def __init__(self, eigs: np.ndarray, vecs: np.ndarray, mat: np.ndarray | None = None):
        self.eigs, self.vecs, self._mat = eigs, vecs, mat

    @property
    def mat(self) -> np.ndarray:
        if self._mat is None:
            V = self.vecs
            self._mat = hermitize((V * self.eigs[..., None, :]) @ V.conj().swapaxes(-1, -2))
        return self._mat

    @property
    def dim(self) -> int:
        return self.eigs.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.vecs.shape

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "PosDef":
        check_hermitian(M)
        return cls.from_hermitian(M)

    @classmethod
    def from_hermitian(cls, M: np.ndarray) -> "PosDef":
        """The Hermitian part of M, decomposed; M's asymmetry is not checked."""
        H = hermitize(M)
        w, V = eigh(H)
        low = np.fmin.reduce(w[..., 0], axis=None)  # over a stack, NaN rows ignored
        if low <= 0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: smallest eigenvalue {low:.3e}"
            )
        return cls(w, V, H)

    @classmethod
    def from_spectrum(cls, eigs: np.ndarray, vecs: np.ndarray) -> "PosDef":
        eigs = np.asarray(eigs, dtype=float)
        low = np.fmin.reduce(eigs, axis=None, initial=np.inf)  # NaN ignored, as by <= 0
        if low <= 0:
            # min's value, whose zero can be -0.0 where fmin's is 0.0, unless min is NaN
            shown = eigs.min()
            shown = low if np.isnan(shown) else shown
            raise NotPositiveDefiniteError(f"spectrum contains a non-positive value: {shown:.3e}")
        vecs = np.asarray(vecs, dtype=complex)
        # strictly ascending needs no sort, strictly descending (a negative power) a reversal
        if not np.logical_and.reduce(eigs[..., 1:] > eigs[..., :-1], axis=None):
            if np.logical_and.reduce(eigs[..., 1:] < eigs[..., :-1], axis=None):
                eigs, vecs = eigs[..., ::-1].copy(), vecs[..., ::-1].copy()
            else:
                vecs = np.take_along_axis(vecs, eigs.argsort(axis=-1)[..., None, :], axis=-1)
                eigs = np.sort(eigs, axis=-1)
        return cls(eigs, vecs)

    def __getitem__(self, rows) -> "PosDef":
        """The rows of a stack (an index into its leading axes), lazy as the stack is."""
        mat = None if self._mat is None else self._mat[rows]
        return PosDef(self.eigs[rows], self.vecs[rows], mat)

    def power(self, t: float) -> "PosDef":
        return matrix_power(self, t)

    def inv(self) -> "PosDef":
        return matrix_power(self, -1.0)


def matrix_power(P: PosDef, t: float) -> PosDef:
    """Spectral real power; t = 0 yields the identity (A^0 := I on PD)."""
    if t == 0:
        eye = np.broadcast_to(np.eye(P.dim, dtype=complex), P.shape)
        return PosDef(np.ones(P.eigs.shape), eye, eye)
    if t == 1:
        return P
    return PosDef.from_spectrum(P.eigs**t, P.vecs)


def matrix_function(P: PosDef, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to P through its spectrum; returns Hermitian."""
    w = np.broadcast_to(np.asarray(f(P.eigs), dtype=float), P.eigs.shape)
    if not np.all(np.isfinite(w)):
        bad = P.eigs[~np.isfinite(w)][0]
        raise MatrixError(f"scalar function is not finite at eigenvalue {bad!r}")
    return hermitize((P.vecs * w[..., None, :]) @ P.vecs.conj().swapaxes(-1, -2))


def matrix_log(P: PosDef) -> np.ndarray:
    return matrix_function(P, np.log)


def matrix_exp_herm(H: np.ndarray) -> PosDef:
    """exp of a Hermitian matrix (not checked), always positive definite."""
    w, V = eigh(hermitize(H))
    return PosDef.from_spectrum(np.exp(w), V)


def loewner_leq(A: np.ndarray, B: np.ndarray, tol: float = 0.0) -> tuple[bool, float]:
    """A <= B in the Loewner order; witness is the smallest eigenvalue of B - A."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise DimensionMismatchError(f"shape mismatch {A.shape} vs {B.shape}")
    witness = float(eigh(hermitize(B - A), vectors=False)[0])
    return witness >= -tol, witness


@lru_cache(maxsize=None)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(dim, 1), kept per dim."""
    return np.triu_indices(dim, 1)


@lru_cache(maxsize=None)
def _herm_gather(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """vec_to_herm's gather table, kept per dim: the parameter index of each entry's
    real and imaginary part, (2, dim, dim), and its imaginary part's sign."""
    i, j = _upper_indices(dim)
    idx = np.diag(np.arange(dim)) + np.zeros((2, 1, 1), dtype=np.intp)
    idx[:, i, j] = idx[:, j, i] = dim + 2 * np.arange(len(i)) + [[0], [1]]
    return idx, np.triu(np.ones((dim, dim)), 1) - np.tril(np.ones((dim, dim)), -1)


def vec_to_herm(v: np.ndarray, dim: int) -> np.ndarray:
    """The Hermitian matrix of the real parameter vector v (length dim*dim), with
    the signed zeros of d + 0i on the diagonal and re +- 1j*im off it (v finite)."""
    idx, sign = _herm_gather(dim)
    parts = v[..., idx]
    im = parts[..., 1, :, :] * sign
    M = np.empty(im.shape, dtype=complex)
    M.real = parts[..., 0, :, :] + 0.0 * im
    M.imag = im + 0.0
    return M


def herm_grad_to_vec(K: np.ndarray) -> np.ndarray:
    """Gradient K with respect to a Hermitian matrix, as the gradient with
    respect to its parameter vector (see vec_to_herm)."""
    dim = K.shape[0]
    v = np.empty(dim * dim)
    v[:dim] = np.diagonal(K).real
    upper = K[_upper_indices(dim)]
    v[dim::2] = 2.0 * upper.real
    v[dim + 1::2] = 2.0 * upper.imag
    return v


@dataclass(frozen=True)
class SamplerConfig:
    """Log-uniform eigenvalues in [EIG_LOW, EIG_HIGH], Haar-random eigenbasis.

    Identical (seed, stream_index) reproduces identical output bit-exactly.
    """

    dim: int
    seed: int = 0
    stream_index: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


def rng_for(seed: int, stream_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream_index,)))


def _complex_gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    re, im = rng.standard_normal((2, dim, dim))
    return (re + 1j * im) / np.sqrt(2)


def _haar_unitary(Z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries via QR of complex Gaussians Z with phase fix."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return np.multiply(Q, (d / np.abs(d))[..., None, :], out=Q)  # in place: one block less


def sample_unitary(dim: int, seed: int, stream_index: int = 0) -> np.ndarray:
    return _haar_unitary(_complex_gaussian(dim, rng_for(seed, stream_index)))


def draw_posdef(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """What sample_posdef_rng draws from rng: log-eigenvalues, then the complex
    Gaussian of its unitary."""
    return rng.uniform(np.log(EIG_LOW), np.log(EIG_HIGH), size=dim), _complex_gaussian(dim, rng)


def build_posdef(logs: np.ndarray, Z: np.ndarray) -> PosDef:
    """The matrix of draw_posdef's draws, or the stack of a stack of draws
    ((..., n) and (..., n, n)): one QR, phase fix and from_spectrum for all."""
    return PosDef.from_spectrum(np.exp(logs), _haar_unitary(Z))


def sample_posdef_rng(rng: np.random.Generator, dim: int) -> PosDef:
    return build_posdef(*draw_posdef(rng, dim))


def sample_posdef(cfg: SamplerConfig) -> PosDef:
    return sample_posdef_rng(rng_for(cfg.seed, cfg.stream_index), cfg.dim)


def sample_hermitian_rng(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    re, im = rng.standard_normal((2, dim, dim))
    return hermitize(re + 1j * im) * scale


def mat_to_json(M: np.ndarray) -> dict:
    """Row-major {dim, re, im} representation used in certificates and fixtures."""
    M = np.asarray(M, dtype=complex)
    return {
        "dim": M.shape[0],
        "re": M.real.tolist(),
        "im": M.imag.tolist(),
    }


def mat_from_json(obj: dict) -> np.ndarray:
    M, dim = _matrix_payload(obj, "dim")
    if M.shape != (dim, dim):
        raise MatrixError(f"matrix payload shape {M.shape} does not match dim {dim}")
    return M


def _matrix_payload(obj, *size_keys) -> tuple:
    """The matrix ``re + 1j*im`` of a payload object, then its size fields."""
    try:
        M = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return (M, *(obj[k] for k in size_keys))
    except (KeyError, TypeError, ValueError) as exc:
        raise MatrixError(f"malformed matrix payload: {type(exc).__name__} {exc}") from exc
