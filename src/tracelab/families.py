"""The functional families under test.

lieb:    ||{Phi(A^p)^{1/2} Psi(B^q) Phi(A^p)^{1/2}}^s||
mean:    ||{Phi(A^p) sigma Psi(B^q)}^s||      (sigma an operator mean or plain sum)
epstein: ||Phi(A^p)^s||
logexp:  ||exp{Phi(log A) + Psi(log B)}||     (unital premise Phi(I) + Psi(I) = I)

plus the variational functional
    (1/r) Tr{Phi(A^p) B^{1-r} + (r-1) B},
whose infimum over positive definite B realizes Tr Phi(A^p)^{1/r}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PosDef,
    as_posdef,
    hermitize,
    matrix_exp_herm,
    matrix_log,
    matrix_power,
)
from .means import MeanSpec, eval_mean
from .norms import NormSpec, eval_norm_from_eigs
from .posmaps import MapSpec, apply_map

FAMILIES = frozenset({"lieb", "mean", "epstein", "logexp"})

#: relative eigenvalue floor applied to the inner matrix before powering
INNER_FLOOR = 1e-13


class EvaluationError(RuntimeError):
    pass


@dataclass(frozen=True)
class ParameterPoint:
    p: float
    q: float
    s: float

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "s": self.s}

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterPoint":
        return cls(p=d["p"], q=d["q"], s=d["s"])


@dataclass(frozen=True)
class FamilySpec:
    family: str
    phi: MapSpec
    norm: NormSpec
    params: ParameterPoint
    psi: MapSpec | None = None
    mean: MeanSpec | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("lieb", "mean", "logexp") and self.psi is None:
            raise ValueError(f"{self.family} family requires psi")
        if self.family == "mean" and self.mean is None:
            raise ValueError("mean family requires a mean spec")
        if self.family in ("lieb", "mean"):
            if (self.params.p, self.params.q) == (0.0, 0.0) or self.params.s == 0.0:
                raise ValueError("lieb/mean families require (p, q) != (0, 0) and s != 0")
        if self.family == "epstein":
            if self.params.p == 0.0 or self.params.s == 0.0:
                raise ValueError("epstein family requires p != 0 and s != 0")
        if self.psi is not None and self.psi.out_dim != self.phi.out_dim:
            raise ValueError("phi and psi output dimensions must agree")

    @property
    def two_variable(self) -> bool:
        return self.family != "epstein"

    def with_params(self, params: ParameterPoint) -> "FamilySpec":
        return FamilySpec(self.family, self.phi, self.norm, params, self.psi, self.mean)

    def label(self) -> str:
        pp = self.params
        tag = f"{self.family}(p={pp.p:g}, q={pp.q:g}, s={pp.s:g}, norm={self.norm.label()}"
        if self.mean is not None:
            tag += f", mean={self.mean.label()}"
        return tag + ")"

    def to_dict(self) -> dict:
        d: dict = {
            "family": self.family,
            "phi": self.phi.to_dict(),
            "norm": self.norm.to_dict(),
            "params": self.params.to_dict(),
        }
        if self.psi is not None:
            d["psi"] = self.psi.to_dict()
        if self.mean is not None:
            d["mean"] = self.mean.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FamilySpec":
        return cls(
            family=d["family"],
            phi=MapSpec.from_dict(d["phi"]),
            norm=NormSpec.from_dict(d["norm"]),
            params=ParameterPoint.from_dict(d["params"]),
            psi=MapSpec.from_dict(d["psi"]) if "psi" in d else None,
            mean=MeanSpec.from_dict(d["mean"]) if "mean" in d else None,
        )


def _floored_eigs(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a nominally-PSD Hermitian matrix, floored for powering.

    A genuinely indefinite matrix signals an input bug and aborts.
    """
    w = np.linalg.eigvalsh(hermitize(M))
    lmax = max(float(w[-1]), 0.0)
    floor = INNER_FLOOR * max(lmax, 1e-300)
    if w[0] < -floor:
        raise EvaluationError(
            f"inner matrix is indefinite: eigenvalue {w[0]:.3e} below floor {-floor:.3e}"
        )
    return np.maximum(w, floor)


def _map_power(phi: MapSpec, A: PosDef, p: float) -> PosDef:
    return PosDef.from_matrix(hermitize(apply_map(phi, matrix_power(A, p).mat)))


def _check_strict(spec: FamilySpec):
    if not spec.phi.strictly_positive:
        raise EvaluationError("phi is not strictly positive")
    if spec.psi is not None and not spec.psi.strictly_positive:
        raise EvaluationError("psi is not strictly positive")


def lieb_inner_eigs(spec: FamilySpec, A: PosDef, B: PosDef) -> np.ndarray:
    """Spectrum of Phi(A^p)^{1/2} Psi(B^q) Phi(A^p)^{1/2}, ascending."""
    S = _map_power(spec.phi, A, spec.params.p)
    T = _map_power(spec.psi, B, spec.params.q)
    Sh = matrix_power(S, 0.5).mat
    return _floored_eigs(Sh @ T.mat @ Sh)


def eval_lieb(spec: FamilySpec, A: PosDef, B: PosDef) -> float:
    _check_strict(spec)
    w = lieb_inner_eigs(spec, A, B)
    return eval_norm_from_eigs(spec.norm, w ** spec.params.s)


def eval_mean_family(spec: FamilySpec, A: PosDef, B: PosDef) -> float:
    _check_strict(spec)
    S = _map_power(spec.phi, A, spec.params.p)
    T = _map_power(spec.psi, B, spec.params.q)
    M = eval_mean(spec.mean, S, T)
    return eval_norm_from_eigs(spec.norm, M.eigs ** spec.params.s)


def eval_epstein(spec: FamilySpec, A: PosDef) -> float:
    _check_strict(spec)
    S = _map_power(spec.phi, A, spec.params.p)
    return eval_norm_from_eigs(spec.norm, S.eigs ** spec.params.s)


def eval_logexp(spec: FamilySpec, A: PosDef, B: PosDef) -> float:
    if not np.allclose(spec.phi.unit + spec.psi.unit, np.eye(spec.phi.out_dim), atol=1e-10):
        raise EvaluationError("logexp family requires Phi(I) + Psi(I) = I")
    H = hermitize(apply_map(spec.phi, matrix_log(A)) + apply_map(spec.psi, matrix_log(B)))
    E = matrix_exp_herm(H)
    return eval_norm_from_eigs(spec.norm, E.eigs)


def eval_family(spec: FamilySpec, A: PosDef, B: PosDef | None = None) -> float:
    if spec.family == "lieb":
        return eval_lieb(spec, A, B)
    if spec.family == "mean":
        return eval_mean_family(spec, A, B)
    if spec.family == "epstein":
        return eval_epstein(spec, A)
    if spec.family == "logexp":
        return eval_logexp(spec, A, B)
    raise AssertionError(spec.family)


# ---------------------------------------------------------------------------
# variational functional


def variational_value(phi: MapSpec, p: float, r: float, A: "PosDef | np.ndarray",
                      B: "PosDef | np.ndarray") -> float:
    """(1/r) Tr{Phi(A^p) B^{1-r} + (r-1) B}."""
    if not (1 <= r <= 2):
        raise ValueError(f"r must lie in [1, 2], got {r}")
    A = as_posdef(A)
    B = as_posdef(B)
    C = _map_power(phi, A, p)
    val = np.trace(C.mat @ matrix_power(B, 1.0 - r).mat).real + (r - 1) * B.eigs.sum()
    return float(val / r)


def _herm_basis_size(dim: int) -> int:
    return dim * dim


def _vec_to_herm(v: np.ndarray, dim: int) -> np.ndarray:
    M = np.zeros((dim, dim), dtype=complex)
    idx = dim
    M[np.diag_indices(dim)] = v[:dim]
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = v[idx], v[idx + 1]
            M[i, j] = a + 1j * b
            M[j, i] = a - 1j * b
            idx += 2
    return M


def _grad_to_vec(K: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the real parametrization of a Hermitian matrix."""
    dim = K.shape[0]
    v = np.empty(dim * dim)
    v[:dim] = np.diagonal(K).real
    idx = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            v[idx] = 2.0 * K[i, j].real
            v[idx + 1] = 2.0 * K[i, j].imag
            idx += 2
    return v


def _dalecki_krein(w: np.ndarray, V: np.ndarray, C: np.ndarray, g, gprime) -> np.ndarray:
    """Adjoint Frechet derivative: Dg(B)*[C] = V (g^[1] o V*CV) V*."""
    diff = np.subtract.outer(w, w)
    gw = g(w)
    num = np.subtract.outer(gw, gw)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(np.abs(diff) > 1e-10 * max(1.0, np.abs(w).max()),
                         num / diff, 0.0)
    deriv = gprime(w)
    same = np.abs(diff) <= 1e-10 * max(1.0, np.abs(w).max())
    gamma = np.where(same, 0.5 * (deriv[:, None] + deriv[None, :]), gamma)
    inner = V.conj().T @ C @ V
    return hermitize(V @ (gamma * inner) @ V.conj().T)


@dataclass(frozen=True)
class VariationalResult:
    value: float
    target: float
    gap: float
    iterations: int
    converged: bool


def variational_min(phi: MapSpec, p: float, r: float, A: "PosDef | np.ndarray",
                    descent_budget: int = 500, rtol: float = 1e-6) -> VariationalResult:
    """Minimize the variational functional over PD B, descending from B = I.

    B is parametrized as exp(M) over Hermitian M so iterates stay positive
    definite without projection.  The known closed-form infimum
    Tr Phi(A^p)^{1/r} is reported alongside for gap diagnostics; it is not
    used to seed the descent.
    """
    import scipy.optimize

    if not (1 <= r <= 2):
        raise ValueError(f"r must lie in [1, 2], got {r}")
    A = as_posdef(A)
    C = _map_power(phi, A, p)
    target = float(np.sum(C.eigs ** (1.0 / r)))
    dim = C.dim

    if r == 1:
        # integrand collapses: value is Tr C for any B
        return VariationalResult(value=target, target=target, gap=0.0,
                                 iterations=0, converged=True)

    g = lambda x: x ** (1.0 - r)
    gprime = lambda x: (1.0 - r) * x ** (-r)

    def objective(v: np.ndarray) -> tuple[float, np.ndarray]:
        M = _vec_to_herm(v, dim)
        wM, VM = np.linalg.eigh(M)
        wB = np.exp(wM)
        val = (np.sum((VM.conj().T @ C.mat @ VM).diagonal().real * g(wB))
               + (r - 1) * wB.sum()) / r
        grad_B = (_dalecki_krein(wB, VM, C.mat, g, gprime)
                  + (r - 1) * np.eye(dim)) / r
        grad_M = _dalecki_krein(wM, VM, grad_B, np.exp, np.exp)
        return float(val), _grad_to_vec(grad_M)

    v0 = np.zeros(_herm_basis_size(dim))
    res = scipy.optimize.minimize(
        objective, v0, jac=True, method="L-BFGS-B",
        options={"maxiter": descent_budget, "ftol": 1e-15, "gtol": 1e-12},
    )
    value = float(res.fun)
    gap = abs(value - target) / max(1.0, abs(target))
    return VariationalResult(value=value, target=target, gap=gap,
                             iterations=int(res.nit), converged=gap <= rtol)
