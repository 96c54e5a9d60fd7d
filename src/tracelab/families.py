"""The functional families under test.

lieb:    ||{Phi(A^p)^{1/2} Psi(B^q) Phi(A^p)^{1/2}}^s||
mean:    ||{Phi(A^p) sigma Psi(B^q)}^s||      (sigma an operator mean or plain sum)
epstein: ||Phi(A^p)^s||
logexp:  ||exp{Phi(log A) + Psi(log B)}||     (unital premise Phi(I) + Psi(I) = I)

plus the variational functional
    (1/r) Tr{Phi(A^p) B^{1-r} + (r-1) B},
whose infimum over positive definite B realizes Tr Phi(A^p)^{1/r}.  A FamilySpec
holding a spec that its family does not read (see ``READS``) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PosDef,
    eigh,
    herm_grad_to_vec,
    hermitize,
    is_real,
    matrix_exp_herm,
    matrix_log,
    matrix_power,
    vec_to_herm,
)
from .means import MeanSpec, eval_mean
from .norms import NormSpec, eval_norm_from_eigs
from .posmaps import MapSpec, apply_map

#: the specs each family reads besides phi and its norm
READS = {"lieb": ("psi",), "mean": ("psi", "mean"), "epstein": (), "logexp": ("psi",)}

#: relative eigenvalue floor applied to the inner matrix before powering
INNER_FLOOR = 1e-13


class EvaluationError(RuntimeError):
    pass


def real_field(d: dict, key: str):
    """d[key] of a JSON payload, refused with TypeError unless it is a number."""
    if not is_real(value := d[key]):
        raise TypeError(f"{key!r} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class ParameterPoint:
    p: float
    q: float
    s: float

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "s": self.s}

    @classmethod
    def from_dict(cls, d: dict) -> "ParameterPoint":
        return cls(p=real_field(d, "p"), q=real_field(d, "q"), s=real_field(d, "s"))


@dataclass(frozen=True)
class FamilySpec:
    family: str
    phi: MapSpec
    norm: NormSpec
    params: ParameterPoint
    psi: MapSpec | None = None
    mean: MeanSpec | None = None

    def __post_init__(self):
        if self.family not in READS:
            raise ValueError(f"unknown family {self.family!r}")
        for name, what in (("psi", "psi"), ("mean", "a mean spec")):
            if name in READS[self.family] and getattr(self, name) is None:
                raise ValueError(f"{self.family} family requires {what}")
            if name not in READS[self.family] and getattr(self, name) is not None:
                raise ValueError(f"{self.family} family reads no {name}")
        if self.family in ("lieb", "mean"):
            if (self.params.p, self.params.q) == (0.0, 0.0) or self.params.s == 0.0:
                raise ValueError("lieb/mean families require (p, q) != (0, 0) and s != 0")
        if self.family == "epstein":
            if self.params.p == 0.0 or self.params.s == 0.0:
                raise ValueError("epstein family requires p != 0 and s != 0")
        if self.psi is not None and self.psi.out_dim != self.phi.out_dim:
            raise ValueError("phi and psi output dimensions must agree")
        if self.norm.k is not None and self.norm.k > self.phi.out_dim:
            raise ValueError(f"{self.norm.label()} needs k <= {self.phi.out_dim}")
        # logexp needs Phi(I) + Psi(I) = I instead, checked when it is evaluated
        if self.family != "logexp":
            for name, m in (("phi", self.phi), ("psi", self.psi)):
                if m is not None and not m.strictly_positive:
                    raise ValueError(f"{self.family} family requires a strictly "
                                     f"positive {name}")

    @property
    def two_variable(self) -> bool:
        return "psi" in READS[self.family]

    def with_params(self, params: ParameterPoint) -> "FamilySpec":
        return FamilySpec(self.family, self.phi, self.norm, params, self.psi, self.mean)

    def label(self) -> str:
        pp = self.params
        tag = f"{self.family}(p={pp.p:g}, q={pp.q:g}, s={pp.s:g}, norm={self.norm.label()}"
        if self.mean is not None:
            tag += f", mean={self.mean.label()}"
        return tag + ")"

    def to_dict(self) -> dict:
        # every field but the family's name is a spec
        return {k: v if k == "family" else v.to_dict()
                for k, v in vars(self).items() if v is not None}

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
    w = eigh(hermitize(M), vectors=False)
    floor = INNER_FLOOR * np.maximum(w[..., -1:], 1e-300)
    low = w[..., :1] < -floor
    if np.logical_or.reduce(low, axis=None):
        i = low.argmax()  # the first failing matrix of a stack
        raise EvaluationError(f"inner matrix is indefinite: eigenvalue "
                              f"{w[..., 0].flat[i]:.3e} below floor {-floor.flat[i]:.3e}")
    return np.maximum(w, floor)


def _map_power(phi: MapSpec, A: PosDef, p: float) -> PosDef:
    return PosDef.from_hermitian(apply_map(phi, matrix_power(A, p).mat))


def eval_family(spec: FamilySpec, A: PosDef, B: PosDef | None = None):
    """The family's value at (A, B); ``epstein`` reads A only.  For stacks A
    and B of N pairs (see linalg) it is the array of the N values.

    Every family but ``logexp`` is the norm of the s-th power of an inner
    spectrum built from S = Phi(A^p) and T = Psi(B^q): S's own (``epstein``),
    that of the mean S sigma T (``mean``), or the floored spectrum of
    S^{1/2} T S^{1/2} (``lieb``).
    """
    if spec.family == "logexp":
        if not np.allclose(spec.phi.unit + spec.psi.unit, np.eye(spec.phi.out_dim),
                           atol=1e-10):
            raise EvaluationError("logexp family requires Phi(I) + Psi(I) = I")
        H = hermitize(apply_map(spec.phi, matrix_log(A)) + apply_map(spec.psi, matrix_log(B)))
        return eval_norm_from_eigs(spec.norm, matrix_exp_herm(H).eigs)
    S = _map_power(spec.phi, A, spec.params.p)
    if spec.family == "epstein":
        w = S.eigs
    else:
        T = _map_power(spec.psi, B, spec.params.q)
        if spec.family == "mean":
            w = eval_mean(spec.mean, S, T).eigs
        else:
            Sh = matrix_power(S, 0.5).mat
            w = _floored_eigs(Sh @ T.mat @ Sh)
    return eval_norm_from_eigs(spec.norm, w ** spec.params.s)


# ---------------------------------------------------------------------------
# variational functional


def variational_value(phi: MapSpec, p: float, r: float, A: PosDef, B: PosDef) -> float:
    """(1/r) Tr{Phi(A^p) B^{1-r} + (r-1) B}."""
    if not (1 <= r <= 2):
        raise ValueError(f"r must lie in [1, 2], got {r}")
    C = _map_power(phi, A, p)
    val = np.trace(C.mat @ matrix_power(B, 1.0 - r).mat).real + (r - 1) * B.eigs.sum()
    return float(val / r)


def _dalecki_krein(w: np.ndarray, V: np.ndarray, C: np.ndarray, g, gprime) -> np.ndarray:
    """Adjoint Frechet derivative: Dg(B)*[C] = V (g^[1] o V*CV) V*."""
    diff = np.subtract.outer(w, w)
    gw, deriv = g(w), gprime(w)
    same = np.abs(diff) <= 1e-10 * max(1.0, np.abs(w).max())
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(same, 0.5 * (deriv[:, None] + deriv[None, :]),
                         np.subtract.outer(gw, gw) / diff)
    inner = V.conj().T @ C @ V
    return hermitize(V @ (gamma * inner) @ V.conj().T)


@dataclass(frozen=True)
class VariationalResult:
    value: float
    target: float
    gap: float
    iterations: int
    converged: bool


def variational_min(phi: MapSpec, p: float, r: float, A: PosDef) -> VariationalResult:
    """Minimize the variational functional over PD B, descending from B = I.

    B is parametrized as exp(M) over Hermitian M so iterates stay positive
    definite without projection.  The known closed-form infimum
    Tr Phi(A^p)^{1/r} is reported alongside for gap diagnostics; it is not
    used to seed the descent.
    """
    import scipy.optimize

    if not (1 <= r <= 2):
        raise ValueError(f"r must lie in [1, 2], got {r}")
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
        M = vec_to_herm(v, dim)
        wM, VM = eigh(M)
        wB = np.exp(wM)
        val = (np.sum((VM.conj().T @ C.mat @ VM).diagonal().real * g(wB))
               + (r - 1) * wB.sum()) / r
        grad_B = (_dalecki_krein(wB, VM, C.mat, g, gprime)
                  + (r - 1) * np.eye(dim)) / r
        grad_M = _dalecki_krein(wM, VM, grad_B, np.exp, np.exp)
        return float(val), herm_grad_to_vec(grad_M)

    v0 = np.zeros(dim * dim)
    res = scipy.optimize.minimize(
        objective, v0, jac=True, method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
    )
    value = float(res.fun)
    gap = abs(value - target) / max(1.0, abs(target))
    return VariationalResult(value=value, target=target, gap=gap,
                             iterations=int(res.nit), converged=gap <= 1e-6)
