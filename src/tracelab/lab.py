"""Randomized joint-concavity/convexity testing and counterexample hunting.

Tolerance policy: numerical slack is 1e-8 x max(1, |lhs|, |rhs|); a violation
is claimed only above 1e-4 x the same scale.  Values in between are
inconclusive for that trial, keeping three decades between noise and claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .families import EvaluationError, FamilySpec, _vec_to_herm, eval_family
from .linalg import (
    MatrixError,
    PosDef,
    SamplerConfig,
    as_posdef,
    hermitize,
    matrix_exp_herm,
    mat_from_json,
    mat_to_json,
    rng_for,
    sample_hermitian_rng,
    sample_posdef_rng,
)
from .means import MeanSpec, eval_mean, power_mean
from .posmaps import MapSpec, apply_map, hat_map

SLACK_REL = 1e-8
CLAIM_REL = 1e-4
#: default mixing weights; 1/2 always included (midpoint arguments)
DEFAULT_LAMBDAS = (0.5, 0.25, 0.9)
#: input regularization used for certificate stability re-checks
CERT_EPS = 1e-8


@dataclass(frozen=True)
class Certificate:
    """A replayable witness of a concavity/convexity violation."""

    family: FamilySpec
    a1: np.ndarray
    a2: np.ndarray
    lam: float
    lhs: float
    rhs: float
    violation: float
    direction: str
    seed: int
    stream: int
    regularization_eps: float = 0.0
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None

    def to_dict(self) -> dict:
        d = {
            "family": self.family.to_dict(),
            "a1": mat_to_json(self.a1),
            "a2": mat_to_json(self.a2),
            "lambda": self.lam,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violation": self.violation,
            "direction": self.direction,
            "seed": self.seed,
            "stream": self.stream,
            "regularization_eps": self.regularization_eps,
        }
        if self.b1 is not None:
            d["b1"] = mat_to_json(self.b1)
            d["b2"] = mat_to_json(self.b2)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        return cls(
            family=FamilySpec.from_dict(d["family"]),
            a1=mat_from_json(d["a1"]),
            a2=mat_from_json(d["a2"]),
            lam=d["lambda"],
            lhs=d["lhs"],
            rhs=d["rhs"],
            violation=d["violation"],
            direction=d["direction"],
            seed=d["seed"],
            stream=d["stream"],
            regularization_eps=d.get("regularization_eps", 0.0),
            b1=mat_from_json(d["b1"]) if "b1" in d else None,
            b2=mat_from_json(d["b2"]) if "b2" in d else None,
        )


@dataclass
class TestReport:
    label: str
    direction: str
    trials: int
    worst_violation: float
    verdict: str
    tolerance_used: float = SLACK_REL
    failures: int = 0
    worst_case: Certificate | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "direction": self.direction,
            "trials": self.trials,
            "worst_violation": self.worst_violation,
            "verdict": self.verdict,
            "tolerance_used": self.tolerance_used,
            "failures": self.failures,
        }
        if self.worst_case is not None:
            d["worst_case"] = self.worst_case.to_dict()
        if self.witness is not None:
            d["witness"] = self.witness
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class HuntResult:
    certificate: Certificate | None
    trials_used: int
    best_violation: float
    report: TestReport | None = None


def _mix(P1: PosDef, P2: PosDef, lam: float) -> PosDef:
    return PosDef.from_matrix(lam * P1.mat + (1 - lam) * P2.mat)


def _signed_violation(direction: str, lhs: float, rhs: float) -> float:
    # concave claim: lhs >= rhs, so rhs - lhs > 0 violates; convex mirrored
    return rhs - lhs if direction == "concave" else lhs - rhs


def midpoint_violation(
    family: FamilySpec,
    direction: str,
    A1: PosDef,
    A2: PosDef,
    lam: float,
    B1: PosDef | None = None,
    B2: PosDef | None = None,
    f1: float | None = None,
    f2: float | None = None,
) -> tuple[float, float, float, float]:
    """Returns (raw signed violation, lhs, rhs, scale) for one convex combination."""
    if f1 is None:
        f1 = eval_family(family, A1, B1)
    if f2 is None:
        f2 = eval_family(family, A2, B2)
    Bmix = _mix(B1, B2, lam) if B1 is not None else None
    lhs = eval_family(family, _mix(A1, A2, lam), Bmix)
    rhs = lam * f1 + (1 - lam) * f2
    scale = max(1.0, abs(lhs), abs(rhs))
    return _signed_violation(direction, lhs, rhs), lhs, rhs, scale


def _sample_inputs(family: FamilySpec, rng, cfg: SamplerConfig):
    A1 = sample_posdef_rng(rng, family.phi.in_dim, cfg.eig_low, cfg.eig_high)
    A2 = sample_posdef_rng(rng, family.phi.in_dim, cfg.eig_low, cfg.eig_high)
    if family.two_variable:
        B1 = sample_posdef_rng(rng, family.psi.in_dim, cfg.eig_low, cfg.eig_high)
        B2 = sample_posdef_rng(rng, family.psi.in_dim, cfg.eig_low, cfg.eig_high)
    else:
        B1 = B2 = None
    return A1, B1, A2, B2


def _verdict(failures: int, trials: int, violated: bool, worst_rel: float) -> str:
    """INCONCLUSIVE above 1% failed trials, else VIOLATED on a claimed
    violation, else PASS within numerical slack, else INCONCLUSIVE."""
    if failures > 0.01 * trials:
        return "INCONCLUSIVE"
    if violated:
        return "VIOLATED"
    if worst_rel <= SLACK_REL:
        return "PASS"
    return "INCONCLUSIVE"


def _make_certificate(family, direction, A1, B1, A2, B2, lam, lhs, rhs, violation,
                      seed, stream) -> Certificate:
    return Certificate(
        family=family, a1=A1.mat, a2=A2.mat, lam=lam, lhs=lhs, rhs=rhs,
        violation=violation, direction=direction, seed=seed, stream=stream,
        b1=B1.mat if B1 is not None else None,
        b2=B2.mat if B2 is not None else None,
    )


def midpoint_test(
    family: FamilySpec,
    direction: str,
    trials: int,
    sampler: SamplerConfig,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
    label: str | None = None,
) -> TestReport:
    """Randomized joint midpoint concavity/convexity test."""
    if direction not in ("concave", "convex"):
        raise ValueError(f"direction must be concave or convex, got {direction!r}")
    worst_rel = -np.inf
    worst_cert: Certificate | None = None
    worst_cert_rel = 0.0
    failures = 0
    for t in range(trials):
        stream = sampler.stream_index + t
        rng = rng_for(sampler.seed, stream)
        try:
            A1, B1, A2, B2 = _sample_inputs(family, rng, sampler)
            f1 = eval_family(family, A1, B1)
            f2 = eval_family(family, A2, B2)
            lam_extra = float(rng.uniform())
            for lam in (*lambdas, lam_extra):
                viol, lhs, rhs, scale = midpoint_violation(
                    family, direction, A1, A2, lam, B1, B2, f1, f2
                )
                rel = viol / scale
                worst_rel = max(worst_rel, rel)
                if viol > CLAIM_REL * scale and rel > worst_cert_rel:
                    worst_cert_rel = rel
                    worst_cert = _make_certificate(
                        family, direction, A1, B1, A2, B2, lam, lhs, rhs, viol,
                        sampler.seed, stream,
                    )
        except (EvaluationError, MatrixError) as _:
            failures += 1
    return TestReport(
        label=label or family.label(),
        direction=direction,
        trials=trials,
        worst_violation=float(worst_rel),
        verdict=_verdict(failures, trials, worst_cert is not None, worst_rel),
        failures=failures,
        worst_case=worst_cert,
    )


def segment_test(
    family: FamilySpec,
    direction: str,
    A: PosDef,
    H: np.ndarray,
    B: PosDef | None = None,
    K: np.ndarray | None = None,
    steps: int = 21,
    x_max: float = 1.0,
) -> TestReport:
    """Second-difference scan of x -> F(A + xH, B + xK) along a line segment."""

    def pd_at(x: float) -> tuple[PosDef, PosDef | None]:
        Ax = PosDef.from_matrix(A.mat + x * hermitize(H))
        Bx = PosDef.from_matrix(B.mat + x * hermitize(K)) if B is not None else None
        return Ax, Bx

    for _ in range(60):
        try:
            pd_at(x_max)
            break
        except MatrixError:
            x_max /= 2
    else:
        raise EvaluationError("no positive definite range along the segment")

    xs = np.linspace(0.0, x_max, steps)
    vals = []
    for x in xs:
        Ax, Bx = pd_at(float(x))
        vals.append(eval_family(family, Ax, Bx))
    vals = np.asarray(vals)
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    scale = max(1.0, float(np.abs(vals).max()))
    # concave claim: second differences <= 0
    signed = d2 if direction == "concave" else -d2
    worst_rel = float(signed.max() / scale)
    return TestReport(
        label=f"segment:{family.label()}",
        direction=direction,
        trials=steps - 2,
        worst_violation=worst_rel,
        verdict=_verdict(0, steps - 2, worst_rel > CLAIM_REL, worst_rel),
        witness={"x_max": x_max, "values": vals.tolist()},
    )


def _regularized(P: PosDef, eps: float) -> PosDef:
    return PosDef.from_matrix(P.mat + eps * P.eigs[-1] * np.eye(P.dim))


def _stable_violation(family, direction, A1, B1, A2, B2, lam, eps: float) -> float:
    """Violation recomputed on regularized inputs; guards conditioning artifacts."""
    reg = lambda P: _regularized(P, eps) if P is not None else None
    viol, _, _, scale = midpoint_violation(
        family, direction, reg(A1), reg(A2), lam, reg(B1), reg(B2)
    )
    return viol / scale


def _structured_candidates(family: FamilySpec, cfg: SamplerConfig):
    """Near-singular diagonal pairs that seed known counterexample shapes."""
    n = family.phi.in_dim
    if n % 2 != 0:
        return
    half = n // 2
    for eps in (1e-1, 1e-2, 1e-3):
        d1 = PosDef.from_matrix(np.diag([1.0] * half + [eps] * half).astype(complex))
        d2 = PosDef.from_matrix(np.diag([eps] * half + [1.0] * half).astype(complex))
        if family.two_variable:
            m = family.psi.in_dim
            if m != n:
                continue
            yield d1, d1, d2, d2
            yield d1, d2, d2, d1
        else:
            yield d1, None, d2, None


def _hill_climb(family, direction, A1, B1, A2, B2, lam, rng, iters=200):
    """Local refinement: perturb inputs and weight to amplify the violation."""
    best = midpoint_violation(family, direction, A1, A2, lam, B1, B2)
    state = [A1, B1, A2, B2]
    step = 0.3
    for _ in range(iters):
        idx = int(rng.integers(0, 4))
        if state[idx] is None:
            continue
        P = state[idx]
        G = sample_hermitian_rng(rng, P.dim, scale=step * float(P.eigs[-1]))
        try:
            P2 = PosDef.from_matrix(P.mat + G)
        except MatrixError:
            step *= 0.9
            continue
        trial_state = list(state)
        trial_state[idx] = P2
        lam2 = float(np.clip(lam + step * rng.normal(0, 0.1), 0.02, 0.98))
        try:
            cand = midpoint_violation(
                family, direction, trial_state[0], trial_state[2], lam2,
                trial_state[1], trial_state[3],
            )
        except (EvaluationError, MatrixError):
            step *= 0.9
            continue
        if cand[0] / cand[3] > best[0] / best[3]:
            state, lam, best = trial_state, lam2, cand
        else:
            step *= 0.97
    return state[0], state[1], state[2], state[3], lam, best


def _curvature_direction(family, direction, rng, cfg):
    """Search one random base point for a curvature sign that breaks the claim.

    Builds the finite-difference Hessian of the functional over Hermitian
    perturbations of the inputs.  An eigendirection with the wrong curvature
    sign (negative when convexity is claimed, positive when concavity is)
    yields a segment whose midpoint test violates the claim at second order.
    Returns (base inputs, perturbation matrices, evaluation count) or None.
    """
    A0, B0, _, _ = _sample_inputs(family, rng, cfg)
    n1 = A0.dim
    k1 = n1 * n1
    nparams = k1 + (B0.dim * B0.dim if B0 is not None else 0)
    h = 1e-4 * (1.0 + float(A0.eigs[-1]))

    def value(v):
        A = PosDef.from_matrix(A0.mat + _vec_to_herm(v[:k1], n1))
        B = None
        if B0 is not None:
            B = PosDef.from_matrix(B0.mat + _vec_to_herm(v[k1:], B0.dim))
        return eval_family(family, A, B)

    evals = 0
    try:
        f0 = value(np.zeros(nparams))
        hess = np.empty((nparams, nparams))
        for i in range(nparams):
            ei = np.zeros(nparams)
            ei[i] = h
            fp, fm = value(ei), value(-ei)
            evals += 2
            hess[i, i] = (fp - 2.0 * f0 + fm) / h**2
        for i in range(nparams):
            for j in range(i + 1, nparams):
                e = np.zeros(nparams)
                e[i] = h
                e[j] = h
                fpp, fmm = value(e), value(-e)
                e[j] = -h
                fpm, fmp = value(e), value(-e)
                evals += 4
                hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
    except (EvaluationError, MatrixError):
        return None

    eigs, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    scale_h = max(1.0, float(np.max(np.abs(eigs))))
    if direction == "convex":
        idx, curv = 0, eigs[0]  # need negative curvature
        if curv > -1e-8 * scale_h:
            return None
    else:
        idx, curv = -1, eigs[-1]  # need positive curvature
        if curv < 1e-8 * scale_h:
            return None
    u = vecs[:, idx]
    G1 = _vec_to_herm(u[:k1], n1)
    G2 = _vec_to_herm(u[k1:], B0.dim) if B0 is not None else None
    return A0, B0, G1, G2, evals


def _segment_endpoints(A0, B0, G1, G2):
    """Endpoint pairs A0 +- t G along a perturbation, out to the cone boundary."""
    for t in (0.05, 0.2, 0.8, 2.0, 5.0):
        step = t * (1.0 + float(A0.eigs[-1]))
        try:
            A1 = PosDef.from_matrix(A0.mat + step * G1)
            A2 = PosDef.from_matrix(A0.mat - step * G1)
            if B0 is not None:
                B1 = PosDef.from_matrix(B0.mat + step * G2)
                B2 = PosDef.from_matrix(B0.mat - step * G2)
            else:
                B1 = B2 = None
        except MatrixError:
            return
        yield A1, B1, A2, B2


def hunt_counterexample(
    family: FamilySpec,
    direction: str,
    budget: int,
    sampler: SamplerConfig,
    refine: bool = True,
) -> HuntResult:
    """Random + structured search for a certified violation.

    Raw violations above the claim threshold are optionally hill-climbed and
    must survive a stability re-check under input regularization at eps and
    eps/10 before a certificate is emitted.
    """
    best_rel = -np.inf
    trials_used = 0
    near_miss = None  # best sub-threshold candidate for final refinement

    def certify(A1, B1, A2, B2, lam, found, stream) -> Certificate | None:
        """Certificate for found = (violation, lhs, rhs, scale) at these inputs.

        The violation must clear the claim threshold and survive the
        stability re-check; a numerical failure in the re-check counts as
        not stable.
        """
        viol, lhs, rhs, scale = found
        if viol <= CLAIM_REL * scale:
            return None
        try:
            if any(_stable_violation(family, direction, A1, B1, A2, B2, lam, eps)
                   <= 0.5 * CLAIM_REL for eps in (CERT_EPS, CERT_EPS / 10)):
                return None
        except (EvaluationError, MatrixError):
            return None
        return _make_certificate(family, direction, A1, B1, A2, B2, lam, lhs, rhs,
                                 viol, sampler.seed, stream)

    def consider(A1, B1, A2, B2, lam, stream) -> Certificate | None:
        nonlocal best_rel, near_miss
        try:
            found = midpoint_violation(family, direction, A1, A2, lam, B1, B2)
        except (EvaluationError, MatrixError):
            return None
        rel = found[0] / found[3]
        if rel > best_rel:
            best_rel = rel
            near_miss = (A1, B1, A2, B2, lam, stream)
        if refine and found[0] > CLAIM_REL * found[3]:
            rng = rng_for(sampler.seed, stream ^ 0x5EED)
            A1, B1, A2, B2, lam, found = _hill_climb(
                family, direction, A1, B1, A2, B2, lam, rng
            )
        cert = certify(A1, B1, A2, B2, lam, found, stream)
        if cert is not None:
            best_rel = max(best_rel, found[0] / found[3])
        return cert

    for A1, B1, A2, B2 in _structured_candidates(family, sampler):
        trials_used += 1
        for lam in (0.5, 0.25, 0.75):
            cert = consider(A1, B1, A2, B2, lam, stream=0)
            if cert is not None:
                return HuntResult(cert, trials_used, best_rel)

    # curvature-directed phase: Hessian eigendirections at random base points
    n_base = int(min(10, max(2, budget // 100)))
    for k in range(n_base):
        stream = 0xC0DE + k
        rng = rng_for(sampler.seed, stream)
        found = _curvature_direction(family, direction, rng, sampler)
        if found is None:
            trials_used += 1
            continue
        A0, B0, G1, G2, evals = found
        trials_used += max(1, evals // 3)
        for A1, B1, A2, B2 in _segment_endpoints(A0, B0, G1, G2):
            cert = consider(A1, B1, A2, B2, 0.5, stream)
            if cert is not None:
                return HuntResult(cert, trials_used, best_rel)

    for t in range(budget):
        stream = sampler.stream_index + t
        rng = rng_for(sampler.seed, stream)
        trials_used += 1
        try:
            A1, B1, A2, B2 = _sample_inputs(family, rng, sampler)
        except MatrixError:
            continue
        for lam in (0.5, float(rng.uniform(0.05, 0.95))):
            cert = consider(A1, B1, A2, B2, lam, stream)
            if cert is not None:
                return HuntResult(cert, trials_used, best_rel)

    # budget exhausted: one last refinement from the best near-miss
    if refine and near_miss is not None:
        A1, B1, A2, B2, lam, stream = near_miss
        rng = rng_for(sampler.seed, stream ^ 0x5EED)
        A1, B1, A2, B2, lam, found = _hill_climb(
            family, direction, A1, B1, A2, B2, lam, rng, iters=400
        )
        rel = found[0] / found[3]
        cert = certify(A1, B1, A2, B2, lam, found, stream)
        if cert is not None:
            return HuntResult(cert, trials_used, rel)
        best_rel = max(best_rel, rel)

    return HuntResult(None, trials_used, best_rel)


def replay_certificate(cert: Certificate) -> tuple[float, float]:
    """Re-evaluate both sides of a certificate from its embedded inputs."""
    A1 = PosDef.from_matrix(cert.a1)
    A2 = PosDef.from_matrix(cert.a2)
    B1 = PosDef.from_matrix(cert.b1) if cert.b1 is not None else None
    B2 = PosDef.from_matrix(cert.b2) if cert.b2 is not None else None
    _, lhs, rhs, _ = midpoint_violation(
        cert.family, cert.direction, A1, A2, cert.lam, B1, B2
    )
    return lhs, rhs


def certificate_is_valid(cert: Certificate, rtol: float = 1e-10) -> bool:
    lhs, rhs = replay_certificate(cert)
    scale = max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - cert.lhs) > rtol * scale or abs(rhs - cert.rhs) > rtol * scale:
        return False
    # direction duality: the violation is the mirrored one for -F
    expected = cert.rhs - cert.lhs if cert.direction == "concave" else cert.lhs - cert.rhs
    return abs(expected - cert.violation) <= rtol * scale


# ---------------------------------------------------------------------------
# Loewner-order midpoint/dominance tests

def _loewner_excess(small, big) -> tuple[float, float]:
    """Relative excess of the claim small <= big in the Loewner order.

    Conjugating by big^{-1/2} makes the comparison scale-free and keeps
    violations visible even when they live in the small-eigenvalue subspace:
    the claim holds iff lambda_max(big^{-1/2} small big^{-1/2}) <= 1.
    Returns (excess, witness) where excess = lambda_max - 1 (positive means
    violated) and witness = lambda_min(big - small).
    """
    Rih = big.power(-0.5).mat
    C = hermitize(Rih @ small.mat @ Rih)
    excess = float(np.linalg.eigvalsh(C)[-1] - 1.0)
    if excess <= 0.0:
        return excess, excess  # witness only needed for violations
    witness = float(np.linalg.eigvalsh(hermitize(big.mat - small.mat))[0])
    return excess, witness


def _loewner_gap(expr: str, params: dict, rng, cfg: SamplerConfig):
    """Returns (relative excess, witness eigenvalue, payload) for one trial.

    The claimed inequality holds iff the excess is non-positive.
    """
    if expr == "power-mean-dominance":
        p, q = params["p"], params["q"]
        A = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        B = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        return _dominance_gap(p, q, A, B)
    if expr == "hat-power":
        phi: MapSpec = params["phi"]
        p = params["p"]
        A = sample_posdef_rng(rng, phi.in_dim, cfg.eig_low, cfg.eig_high)
        B = sample_posdef_rng(rng, phi.in_dim, cfg.eig_low, cfg.eig_high)
        return _hat_power_gap(phi, p, A, B)
    if expr == "mean-concavity":
        mean: MeanSpec = params["mean"]
        A1 = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        A2 = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        B1 = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        B2 = sample_posdef_rng(rng, cfg.dim, cfg.eig_low, cfg.eig_high)
        mid = eval_mean(mean, _mix(A1, A2, 0.5), _mix(B1, B2, 0.5))
        avg = as_posdef(0.5 * (eval_mean(mean, A1, B1).mat + eval_mean(mean, A2, B2).mat))
        excess, w = _loewner_excess(avg, mid)
        payload = {"a1": mat_to_json(A1.mat), "a2": mat_to_json(A2.mat),
                   "b1": mat_to_json(B1.mat), "b2": mat_to_json(B2.mat)}
        return excess, w, payload
    raise ValueError(f"unknown Loewner expression {expr!r}")


def _dominance_gap(p: float, q: float, A: PosDef, B: PosDef):
    excess, w = _loewner_excess(power_mean(A, B, p), power_mean(A, B, q))
    payload = {"a": mat_to_json(A.mat), "b": mat_to_json(B.mat)}
    return excess, w, payload


def _hat_power_gap(phi: MapSpec, p: float, A: PosDef, B: PosDef):
    mid = hat_map(phi, _mix(A, B, 0.5).power(p))
    avg = as_posdef(0.5 * (hat_map(phi, A.power(p)).mat + hat_map(phi, B.power(p)).mat))
    excess, w = _loewner_excess(avg, mid)
    payload = {"a": mat_to_json(A.mat), "b": mat_to_json(B.mat)}
    return excess, w, payload


def _nm_dominance_search(p, q, dim, rng, maxiter=2000):
    """Simplex search for a dominance violation over log-parametrized inputs.

    Violations for nearby exponent pairs need extreme anisotropy that random
    sampling essentially never reaches, so minimize the negated excess over
    A = exp(H1), B = exp(H2) directly.  The bound on the parameter vector
    guards against overflow in the exponential.
    """
    import scipy.optimize

    k = dim * dim

    def objective(v):
        if np.max(np.abs(v)) > 10.0:
            return 1.0
        A = as_posdef(matrix_exp_herm(_vec_to_herm(v[:k], dim)))
        B = as_posdef(matrix_exp_herm(_vec_to_herm(v[k:], dim)))
        excess, _ = _loewner_excess(power_mean(A, B, p), power_mean(A, B, q))
        return -excess

    res = scipy.optimize.minimize(
        objective, rng.normal(0.0, 1.5, 2 * k), method="Nelder-Mead",
        options={"maxiter": maxiter, "xatol": 1e-12, "fatol": 1e-16},
    )
    v = res.x
    A = as_posdef(matrix_exp_herm(_vec_to_herm(v[:k], dim)))
    B = as_posdef(matrix_exp_herm(_vec_to_herm(v[k:], dim)))
    return A, B


def loewner_midpoint_test(
    expr: str,
    params: dict,
    trials: int,
    sampler: SamplerConfig,
    refine: bool = False,
    stop_on_violation: bool = False,
    label: str | None = None,
) -> TestReport:
    worst_rel = -np.inf
    witness = None
    failures = 0
    for t in range(trials):
        rng = rng_for(sampler.seed, sampler.stream_index + t)
        try:
            excess, w, payload = _loewner_gap(expr, params, rng, sampler)
        except (EvaluationError, MatrixError):
            failures += 1
            continue
        if excess > worst_rel:
            worst_rel = excess
            if excess > CLAIM_REL:
                witness = {"witness_eigenvalue": w, "relative_excess": excess,
                           "stream": sampler.stream_index + t, **payload}
                if stop_on_violation:
                    break

    if witness is None and refine and expr == "power-mean-dominance":
        # simplex restarts: dominance failures for close exponent pairs sit in
        # corners of the cone that the random phase cannot reach
        p, q = params["p"], params["q"]
        for k in range(24):
            stream = (sampler.stream_index + k) ^ 0x0D0A
            rng = rng_for(sampler.seed, stream)
            A, B = _nm_dominance_search(p, q, sampler.dim, rng)
            excess, w, payload = _dominance_gap(p, q, A, B)
            worst_rel = max(worst_rel, excess)
            if excess > CLAIM_REL:
                witness = {"witness_eigenvalue": w, "relative_excess": excess,
                           "stream": stream, **payload}
                break

    return TestReport(
        label=label or f"loewner:{expr}",
        direction="loewner",
        trials=trials,
        worst_violation=float(worst_rel),
        verdict=_verdict(failures, trials, witness is not None, worst_rel),
        failures=failures,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# parameter sweeps


@dataclass
class SweepResult:
    rows: list[dict] = field(default_factory=list)

    CSV_HEADER = (
        "p,q,s,verdict,worst_concave_violation,worst_convex_violation,trials,failures"
    )

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                "{p:.17g},{q:.17g},{s:.17g},{verdict},"
                "{worst_concave_violation:.17g},{worst_convex_violation:.17g},"
                "{trials},{failures}".format(**row)
            )
        return "\n".join(lines) + "\n"


def _cell_verdict_from(concave: str, convex: str) -> str:
    cpass = concave == "PASS"
    vpass = convex == "PASS"
    if cpass and vpass:
        return "both-pass"
    if cpass:
        return "concave-pass"
    if vpass:
        return "convex-pass"
    if concave == "VIOLATED" and convex == "VIOLATED":
        return "both-violated"
    return "inconclusive"


def sweep(
    family: FamilySpec,
    p_grid,
    q_grid,
    s_grid,
    trials_per_cell: int,
    sampler: SamplerConfig,
) -> SweepResult:
    from .families import ParameterPoint

    result = SweepResult()
    for p in p_grid:
        for q in q_grid:
            for s in s_grid:
                row = {"p": float(p), "q": float(q), "s": float(s),
                       "trials": trials_per_cell, "failures": 0,
                       "worst_concave_violation": float("nan"),
                       "worst_convex_violation": float("nan")}
                try:
                    cell = family.with_params(ParameterPoint(float(p), float(q), float(s)))
                    rc = midpoint_test(cell, "concave", trials_per_cell, sampler)
                    rv = midpoint_test(cell, "convex", trials_per_cell, sampler)
                except (ValueError, EvaluationError, MatrixError):
                    row["verdict"] = "inconclusive"
                    result.rows.append(row)
                    continue
                worst = {"concave": rc.worst_violation,
                         "convex": rv.worst_violation}
                verdicts = {"concave": rc.verdict, "convex": rv.verdict}
                # random midpoints miss violations that need structured inputs;
                # escalate non-violated directions to a short directed hunt
                for direction in ("concave", "convex"):
                    if verdicts[direction] == "VIOLATED":
                        continue
                    found = hunt_counterexample(cell, direction,
                                                budget=max(40, trials_per_cell // 4),
                                                sampler=sampler)
                    worst[direction] = max(worst[direction], found.best_violation)
                    if found.certificate is not None:
                        verdicts[direction] = "VIOLATED"
                row["verdict"] = _cell_verdict_from(verdicts["concave"],
                                                    verdicts["convex"])
                row["worst_concave_violation"] = worst["concave"]
                row["worst_convex_violation"] = worst["convex"]
                row["failures"] = rc.failures + rv.failures
                result.rows.append(row)
    return result
