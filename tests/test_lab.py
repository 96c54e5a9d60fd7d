"""Randomized convexity testing, certificates, Loewner tests, and sweeps."""

import dataclasses
import json
import os
import subprocess
import sys
import zlib
from itertools import count, repeat

import numpy as np
import pytest

from tracelab import lab
from tracelab.families import EvaluationError, FamilySpec, ParameterPoint, eval_family
from tracelab.lab import (
    CLAIM_REL,
    _curvature_steps,
    Certificate,
    HuntResult,
    certificate_is_valid,
    hunt_counterexample,
    loewner_midpoint_test,
    midpoint_test,
    replay_certificate,
    sweep,
)
from tracelab.linalg import (
    MatrixError,
    PosDef,
    SamplerConfig,
    eigh,
    hermitize,
    loewner_leq,
    mat_to_json,
    matrix_exp_herm,
    rng_for,
    sample_posdef,
    sample_posdef_rng,
    vec_to_herm,
)
from tracelab.means import MeanSpec, eval_mean, power_mean
from tracelab.norms import NormSpec
from tracelab.posmaps import (conjugation, hat_map, identity_map, sample_kraus,
                              transpose_then_kraus)

TRACE = NormSpec(kind="trace")


def _sample(seed, stream=0, dim=2):
    return sample_posdef(SamplerConfig(dim=dim, seed=seed, stream_index=stream))


def epstein(p, s, phi=None, norm=TRACE, dim=2):
    return FamilySpec(family="epstein", phi=phi or identity_map(dim), norm=norm,
                      params=ParameterPoint(p, 0.0, s))


def carlen_lieb(p):
    """Trace of ((A^p + B^p)/... the plain-sum family Tr(A^p+B^p)^{1/p}."""
    return FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                      norm=TRACE, mean=MeanSpec(kind="sum"),
                      params=ParameterPoint(p, p, 1.0 / p))


def midpoint_violation(family, direction, A1, A2, lam, B1=None, B2=None, f1=None, f2=None):
    """(raw signed violation, lhs, rhs, scale) of one convex combination, one
    lab.eval_family call per pair (so a patched lab.eval_family reaches it): the
    scalar reference of the hunt's stacked evaluator."""
    if f1 is None:
        f1 = lab.eval_family(family, A1, B1)
    if f2 is None:
        f2 = lab.eval_family(family, A2, B2)
    Bmix = lab._mix(B1, B2, lam) if B1 is not None else None
    return lab._violation(direction, lam, lab.eval_family(family, lab._mix(A1, A2, lam), Bmix),
                          f1, f2)


def _sample_inputs(family, rng):
    """The inputs (A1, B1, A2, B2) of one trial drawn from rng, as a block of one."""
    return lab._build_inputs([lab._draw_inputs(family, rng)])[0]


def _nelder_mead(fun, x0, maxiter, xatol, fatol):
    """The end point of one _simplex search, run by _lockstep."""
    return lab._lockstep(fun, [lab._simplex(x0, maxiter, xatol, fatol)])[0]


class TestMidpointTest:
    def test_affine_family_is_exact(self):
        fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, mean=MeanSpec(kind="sum"),
                         params=ParameterPoint(1.0, 1.0, 1.0))
        A1, B1, A2, B2 = (_sample(101, k) for k in range(4))
        for direction in ("concave", "convex"):
            viol, lhs, rhs, _ = midpoint_violation(fam, direction, A1, A2, 0.5,
                                                   B1, B2)
            assert abs(viol) < 1e-12 * max(1.0, abs(lhs), abs(rhs))

    def test_on_region_trace_concavity_passes(self):
        fam = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(0.7, 0.7, 1 / 1.4))
        report = midpoint_test(fam, "concave", trials=150,
                               sampler=SamplerConfig(dim=2, seed=102))
        assert report.verdict == "PASS"
        assert report.worst_violation <= 1e-8

    def test_numerical_failure_counts_as_a_failed_trial(self):
        # logexp needs Phi(I) + Psi(I) = I: with two identity maps every trial fails
        fam = FamilySpec(family="logexp", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(1.0, 1.0, 1.0))
        report = midpoint_test(fam, "concave", trials=5,
                               sampler=SamplerConfig(dim=2, seed=0))
        assert (report.failures, report.verdict) == (5, "INCONCLUSIVE")

    def test_a_trial_that_fails_at_a_later_weight_leaves_no_witness(self):
        # at p = 315 some trials evaluate the weight 1/2 before a later weight's
        # A^p is not numerically positive definite: each fails, none names a witness
        report = midpoint_test(epstein(315.0, 0.01), "concave", trials=20,
                               sampler=SamplerConfig(dim=2, seed=0))
        assert (report.failures, report.verdict) == (20, "INCONCLUSIVE")
        assert report.worst_case is None
        assert report.worst_violation == -np.inf

    @pytest.mark.parametrize("p, s, direction, failed", [(1.5, 300.0, "convex", 8),
                                                         (np.nan, 1.0, "concave", 20)])
    def test_a_trial_with_a_non_finite_value_fails(self, p, s, direction, failed):
        # Tr A^{ps} overflows to inf on some draws at s = 300, and every value is
        # NaN at p = NaN: those trials fail instead of passing unjudged
        with np.errstate(over="ignore", invalid="ignore"):
            report = midpoint_test(epstein(p, s), direction, trials=20,
                                   sampler=SamplerConfig(dim=2, seed=0))
        assert (report.failures, report.verdict) == (failed, "INCONCLUSIVE")

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            midpoint_test(carlen_lieb(1.5), "sideways", trials=1,
                          sampler=SamplerConfig(dim=2, seed=0))

    def test_every_search_rejects_an_invalid_direction(self):
        with pytest.raises(ValueError):
            hunt_counterexample(carlen_lieb(1.5), "concav", budget=1,
                                sampler=SamplerConfig(dim=2, seed=0))


class TestScalarCurvature:
    def test_scalar_second_derivative_sign_classification(self):
        # for f(x) = (x^p + b)^s the sign of f'' matches (ps-1)x^p + (p-1)b;
        # checked across a parameter grid via 1x1 segment scans
        b = 0.8
        for p in np.linspace(0.25, 2.0, 20):
            for s in np.linspace(0.25, 2.0, 20):
                x0 = 1.3
                h = 1e-4
                f = lambda x: (x**p + b) ** s
                d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
                closed = (p * s - 1) * x0**p + (p - 1) * b
                if abs(closed) < 1e-3:  # too close to the sign boundary
                    continue
                assert np.sign(d2) == np.sign(closed), (p, s)

    def test_scalar_joint_obstruction(self):
        # joint midpoint concavity of x^{ps} y^{qs} on scalars requires
        # pq(1 - (p+q)s) >= 0
        rng = rng_for(105, 0)
        for p, q, s in [(0.5, 0.5, 1.0), (0.5, 0.5, 1.8), (1.0, 1.0, 0.4),
                        (1.0, 1.0, 0.75)]:
            obstruction = p * q * (1 - (p + q) * s)
            worst = -np.inf
            for _ in range(4000):
                x1, y1, x2, y2 = rng.uniform(0.2, 5.0, size=4)
                f = lambda x, y: x ** (p * s) * y ** (q * s)
                mid = f((x1 + x2) / 2, (y1 + y2) / 2)
                avg = (f(x1, y1) + f(x2, y2)) / 2
                worst = max(worst, avg - mid)
            if obstruction >= 0:
                assert worst <= 1e-8, (p, q, s, worst)
            else:
                assert worst > 1e-4, (p, q, s, worst)


class TestHuntAndCertificates:
    def test_convexity_point_yields_concavity_certificate(self):
        # p = 1, s = 1.2 with a conjugation map is convex, so concavity fails
        rng = rng_for(106, 0)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        fam = epstein(1.0, 1.2, phi=conjugation(X))
        result = hunt_counterexample(fam, "concave", budget=10_000,
                                     sampler=SamplerConfig(dim=2, seed=106))
        cert = result.certificate
        assert cert is not None
        assert cert.violation > CLAIM_REL * max(1.0, abs(cert.lhs), abs(cert.rhs))
        lhs, rhs = replay_certificate(cert)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - cert.lhs) <= 1e-10 * scale
        assert abs(rhs - cert.rhs) <= 1e-10 * scale
        assert certificate_is_valid(cert)

    def test_direction_duality(self):
        fam = carlen_lieb(3.0)
        result = hunt_counterexample(fam, "convex", budget=50_000,
                                     sampler=SamplerConfig(dim=2, seed=107))
        cert = result.certificate
        assert cert is not None
        # a convexity violation of F is a concavity violation of -F
        assert cert.direction == "convex"
        assert cert.lhs - cert.rhs == cert.violation

    def test_on_region_hunt_exhausts(self):
        fam = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(0.7, 0.7, 1 / 1.4))
        result = hunt_counterexample(fam, "concave", budget=300,
                                     sampler=SamplerConfig(dim=2, seed=108))
        assert result.certificate is None
        assert result.best_violation <= 1e-8

    def test_unstable_recheck_is_not_a_crash(self):
        # the stability re-check regularizes near-singular structured inputs
        # of the cube-sum family into a singular matrix; that candidate must
        # count as not stable instead of aborting the hunt
        fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, mean=MeanSpec(kind="sum"),
                         params=ParameterPoint(3.0, 3.0, 1 / 3))
        result = hunt_counterexample(fam, "concave", budget=1,
                                     sampler=SamplerConfig(dim=2, seed=3))
        assert isinstance(result, HuntResult)
        if result.certificate is not None:
            assert certificate_is_valid(result.certificate)

    def test_structured_certificate_names_the_hunt_stream(self):
        # the cube-sum family certifies from a structured candidate, which
        # draws nothing: its certificate names the hunt's own stream
        fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, mean=MeanSpec(kind="sum"),
                         params=ParameterPoint(3.0, 3.0, 1 / 3))
        result = hunt_counterexample(fam, "concave", budget=200,
                                     sampler=SamplerConfig(dim=2, seed=3,
                                                           stream_index=500))
        assert result.certificate is not None
        assert result.certificate.stream == 500
        assert certificate_is_valid(result.certificate)

    def test_overflowing_curvature_base_point_does_not_abort(self):
        # A^400 overflows, so the finite-difference Hessian is not finite;
        # each curvature base point fails and the hunt goes on
        with np.errstate(over="ignore", invalid="ignore"):
            result = hunt_counterexample(epstein(400.0, 0.001), "concave", budget=20,
                                         sampler=SamplerConfig(dim=2, seed=0))
        assert result.certificate is None

    def test_nan_violation_is_not_certified(self):
        # A^500 overflows, so midpoint violations are inf - inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            result = hunt_counterexample(epstein(500.0, 0.001), "convex", budget=20,
                                         sampler=SamplerConfig(dim=2, seed=0))
        assert result.certificate is None

    def _lieb_certificate(self):
        fam = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(0.7, 0.7, 1 / 1.4))
        A1, A2, B1, B2 = (sample_posdef(SamplerConfig(dim=2, seed=110, stream_index=k))
                          for k in range(4))
        viol, lhs, rhs, _ = midpoint_violation(fam, "concave", A1, A2, 0.5, B1, B2)
        return Certificate(fam, A1.mat, A2.mat, 0.5, lhs, rhs, viol, "concave", 110, 0,
                           B1.mat, B2.mat)

    def test_a_certificate_with_a_nan_matrix_does_not_replay(self):
        cert = self._lieb_certificate()
        assert certificate_is_valid(cert)
        nan = dataclasses.replace(cert, a1=np.full((2, 2), np.nan, dtype=complex))
        with pytest.raises(MatrixError, match="non-finite"):
            certificate_is_valid(nan)

    @pytest.mark.parametrize("sides", [(np.nan, np.nan), (np.nan, 0.0), (0.0, np.nan),
                                       (np.inf, np.inf), (0.0, -np.inf)])
    def test_non_finite_replayed_sides_are_not_valid(self, sides, monkeypatch):
        cert = self._lieb_certificate()
        lhs, rhs = (cert.lhs if s == 0.0 else s for s in sides)
        monkeypatch.setattr(lab, "replay_certificate", lambda c: (lhs, rhs))
        assert not certificate_is_valid(cert)
        monkeypatch.setattr(lab, "replay_certificate", lambda c: (cert.lhs, cert.rhs))
        assert certificate_is_valid(cert)

    def test_certificate_serialization_roundtrip(self):
        rng = rng_for(109, 0)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        fam = epstein(1.0, 1.2, phi=conjugation(X))
        result = hunt_counterexample(fam, "concave", budget=5_000,
                                     sampler=SamplerConfig(dim=2, seed=109))
        cert = result.certificate
        assert cert is not None
        back = Certificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert certificate_is_valid(back)


def _curvature_steps_list(k, h):
    """The list the curvature phase built step by step, kept as the reference
    of _curvature_steps."""
    E = h * np.eye(k)
    steps = [np.zeros(k)]
    for i in range(k):
        steps += [E[i], -E[i]]
    for i, j in zip(*np.triu_indices(k, 1)):
        steps += [E[i] + E[j], -(E[i] + E[j]), E[i] - E[j], -(E[i] - E[j])]
    return np.array(steps)


@pytest.mark.parametrize("k", [1, 4, 8, 18])
def test_curvature_steps_equal_the_list(k):
    h = 1e-4 * (1.0 + 7.3)
    steps, reference = _curvature_steps(k, h), _curvature_steps_list(k, h)
    assert steps.shape == (2 * k + 2 * k * (k - 1) + 1, k)
    assert np.array_equal(steps, reference)
    assert np.array_equal(np.signbit(steps), np.signbit(reference))


def _curvature_direction_loop(family, direction, rng):
    """The curvature search as it was with one eval_family call per row, kept
    as the reference of _curvature_direction."""
    A0, B0, _, _ = _sample_inputs(family, rng)
    n1 = A0.dim
    k1 = n1 * n1
    nparams = k1 + (B0.dim * B0.dim if B0 is not None else 0)
    h = 1e-4 * (1.0 + float(A0.eigs[-1]))

    def value(v):
        A = PosDef.from_hermitian(A0.mat + vec_to_herm(v[:k1], n1))
        B = None
        if B0 is not None:
            B = PosDef.from_hermitian(B0.mat + vec_to_herm(v[k1:], B0.dim))
        return eval_family(family, A, B)

    upper = np.triu_indices(nparams, 1)
    steps = _curvature_steps(nparams, h)
    try:
        f = np.array([value(v) for v in steps])
    except (EvaluationError, MatrixError):
        return None
    fp, fm = f[1:2 * nparams + 1:2], f[2:2 * nparams + 1:2]
    fpp, fmm, fpm, fmp = f[2 * nparams + 1:].reshape(-1, 4).T
    hess = np.diag((fp - 2.0 * f[0] + fm) / h**2)
    hess[upper] = hess[upper[::-1]] = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
    if not np.all(np.isfinite(hess)):
        return None
    eigs, vecs = np.linalg.eigh(0.5 * (hess + hess.T))
    scale_h = max(1.0, float(np.max(np.abs(eigs))))
    if direction == "convex":
        idx, curv = 0, eigs[0]
        if curv > -1e-8 * scale_h:
            return None
    else:
        idx, curv = -1, eigs[-1]
        if curv < 1e-8 * scale_h:
            return None
    u = vecs[:, idx]
    G1 = vec_to_herm(u[:k1], n1)
    G2 = vec_to_herm(u[k1:], B0.dim) if B0 is not None else None
    return A0, B0, G1, G2, len(steps) - 1


def _sample_inputs_loop(family, rng):
    """_sample_inputs as it was: A1, A2, then B1, B2, each sampled alone."""
    A1, A2 = (sample_posdef_rng(rng, family.phi.in_dim) for _ in range(2))
    if not family.two_variable:
        return A1, None, A2, None
    B1, B2 = (sample_posdef_rng(rng, family.psi.in_dim) for _ in range(2))
    return A1, B1, A2, B2


def _midpoint_test_loop(family, direction, trials, sampler, label=None):
    """midpoint_test as it was, one pass per direction, kept as its reference."""
    worst_rel = -np.inf
    worst_cert = None
    worst_cert_rel = 0.0
    failures = 0
    for t in range(trials):
        stream = sampler.stream_index + t
        rng = rng_for(sampler.seed, stream)
        try:
            A1, B1, A2, B2 = _sample_inputs_loop(family, rng)
            f1 = eval_family(family, A1, B1)
            f2 = eval_family(family, A2, B2)
            lam_extra = float(rng.uniform())
            for lam in (*lab.DEFAULT_LAMBDAS, lam_extra):
                viol, lhs, rhs, scale = midpoint_violation(
                    family, direction, A1, A2, lam, B1, B2, f1, f2)
                rel = viol / scale
                worst_rel = max(worst_rel, rel)
                if viol > CLAIM_REL * scale and rel > worst_cert_rel:
                    worst_cert_rel = rel
                    worst_cert = lab._make_certificate(
                        family, direction, A1, B1, A2, B2, lam, lhs, rhs, viol,
                        sampler.seed, stream)
        except (EvaluationError, MatrixError):
            failures += 1
    return lab.TestReport(
        label=label or family.label(), direction=direction, trials=trials,
        worst_violation=float(worst_rel),
        verdict=lab._verdict(failures, trials, worst_cert is not None, worst_rel),
        failures=failures, worst_case=worst_cert)


def _stacked_case(name):
    """Families whose curvature scans and midpoint tests are compared with the loops."""
    kraus = sample_kraus(3, 3, rank=2, seed=141)
    X = rng_for(141, 1).normal(size=(2, 2)) + 2 * np.eye(2)
    return {
        "lieb-n2": lambda: FamilySpec("lieb", identity_map(2), TRACE,
                                      ParameterPoint(0.7, 0.7, 1 / 1.4), psi=identity_map(2)),
        "lieb-kraus-n3": lambda: FamilySpec("lieb", kraus, NormSpec("neg-schatten", p=0.5),
                                            ParameterPoint(1.2, 0.6, 0.9),
                                            psi=transpose_then_kraus(kraus.kraus)),
        "mean-n2": lambda: FamilySpec("mean", identity_map(2), NormSpec("minkowski", k=2),
                                      ParameterPoint(0.5, 1.5, 1.0), psi=conjugation(X),
                                      mean=MeanSpec("power", r=-0.5, modifier="adjoint")),
        "epstein-n3": lambda: epstein(1.5, 0.8, phi=kraus,
                                      norm=NormSpec("schatten-quasi", p=0.5)),
        "sum-n2": lambda: carlen_lieb(3.0),
        "overflow-n2": lambda: epstein(400.0, 0.001),
    }[name]()


_STACKED_CASES = ["lieb-n2", "lieb-kraus-n3", "mean-n2", "epstein-n3", "sum-n2",
                  "overflow-n2"]


def _same(x, y):
    if x is None or y is None:
        return x is y
    return x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("block", [lab.CURVATURE_BLOCK, 50])
@pytest.mark.parametrize("name", _STACKED_CASES)
def test_curvature_direction_equals_the_per_point_loop(name, block, monkeypatch):
    fam = _stacked_case(name)
    monkeypatch.setattr(lab, "CURVATURE_BLOCK", block)
    found = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for direction in ("concave", "convex"):
            for seed in range(3):
                got = lab._curvature_direction(fam, direction, rng_for(seed, 0xC0DE))
                ref = _curvature_direction_loop(fam, direction, rng_for(seed, 0xC0DE))
                assert (got is None) == (ref is None)
                if got is not None:
                    found += 1
                    assert all(_same(*pair) for pair in zip(
                        (got[0].mat, getattr(got[1], "mat", None), got[2], got[3]),
                        (ref[0].mat, getattr(ref[1], "mat", None), ref[2], ref[3])))
                    assert got[4] == ref[4]
    assert (found == 0) == (name == "overflow-n2")


@pytest.mark.parametrize("name", ["lieb-n2", "lieb-kraus-n3", "mean-n2", "epstein-n3",
                                  "sum-n2", "logexp-fails"])
def test_midpoint_test_equals_the_per_direction_loop(name):
    if name == "logexp-fails":  # Phi(I) + Psi(I) = 2I: every trial fails
        fam = FamilySpec("logexp", identity_map(2), TRACE, ParameterPoint(1.0, 1.0, 1.0),
                         psi=identity_map(2))
    else:
        fam = _stacked_case(name)
    for seed, stream_index in ((0, 0), (7, 0), (11, 300)):
        sampler = SamplerConfig(dim=fam.phi.in_dim, seed=seed, stream_index=stream_index)
        both = lab._midpoint_reports(fam, ("concave", "convex"), 12, sampler, "case")
        for direction in ("concave", "convex"):
            got = midpoint_test(fam, direction, 12, sampler, label="case")
            ref = _midpoint_test_loop(fam, direction, 12, sampler, label="case")
            assert got.to_json() == both[direction].to_json() == ref.to_json()
    assert (got.failures == 12) == (name == "logexp-fails")


def _midpoint_reports_loop(family, directions, trials, sampler, label=None):
    """lab._midpoint_reports as it was, each trial sampled and evaluated on its own,
    kept as the reference of its blocks of draws."""
    def draw(rng):
        A1, B1, A2, B2 = inputs = _sample_inputs_loop(family, rng)
        f = eval_family(family, A1, B1), eval_family(family, A2, B2)
        sides = [(lam, *midpoint_violation(family, "concave", A1, A2, lam, B1, B2, *f)[1:])
                 for lam in (*lab.DEFAULT_LAMBDAS, float(rng.uniform()))]
        if not np.isfinite([side[1:3] for side in sides]).all():
            raise EvaluationError("a midpoint trial has a non-finite value")
        return inputs, sides

    worst = dict.fromkeys(directions, -np.inf)
    best = dict.fromkeys(directions, (0.0, None))
    failures = 0
    for stream, trial in lab._trials(sampler, trials, draw):
        if trial is None:
            failures += 1
            continue
        inputs, sides = trial
        for direction in directions:
            for lam, lhs, rhs, scale in sides:
                viol = lab._signed_violation(direction, lhs, rhs)
                rel = viol / scale
                worst[direction] = max(worst[direction], rel)
                if viol > CLAIM_REL * scale and rel > best[direction][0]:
                    best[direction] = rel, lab._make_certificate(
                        family, direction, *inputs, lam, lhs, rhs, viol, sampler.seed, stream)
    return {d: lab.TestReport(label=label or family.label(), direction=d, trials=trials,
                              worst_violation=float(worst[d]), failures=failures,
                              verdict=lab._verdict(failures, trials, best[d][1] is not None,
                                                   worst[d]),
                              worst_case=best[d][1])
            for d in directions}


def _midpoint_block_case(name):
    """Families whose midpoint trials are compared with the one-trial loop."""
    return {
        "lieb-kraus-n3": lambda: _stacked_case("lieb-kraus-n3"),
        "epstein-n2": lambda: epstein(1.5, 0.8),
        "geometric-n2": lambda: FamilySpec("mean", identity_map(2), NormSpec("kyfan-anti", k=1),
                                           ParameterPoint(0.5, 0.5, 1.0), psi=identity_map(2),
                                           mean=MeanSpec("geometric", t=0.5)),
        # psi takes 3 x 3 inputs, phi 2 x 2: B is built in a stack of its own
        "lieb-psi-n3": lambda: FamilySpec("lieb", identity_map(2), TRACE,
                                          ParameterPoint(0.6, 0.8, 1.0),
                                          psi=sample_kraus(3, 2, rank=1, seed=5)),
        # Tr A^{ps} overflows on some draws: those trials fail on a non-finite value
        "overflow-n2": lambda: epstein(1.5, 300.0),
    }[name]()


@pytest.mark.parametrize("setting", ["block-100", "block-7", "one-draw-builds",
                                     "one-trial-mixes"])
@pytest.mark.parametrize("name", ["lieb-kraus-n3", "epstein-n2", "geometric-n2",
                                  "lieb-psi-n3", "overflow-n2"])
def test_midpoint_blocks_equal_the_per_trial_loop(name, setting, monkeypatch):
    fam = _midpoint_block_case(name)
    monkeypatch.setattr(lab, "LOEWNER_BLOCK", 7 if setting == "block-7" else 100)
    if setting == "one-draw-builds":  # a build of several draws raises
        build = lab.build_posdef

        def one_draw_only(logs, Z):
            if logs.shape[-2] > 1:
                raise MatrixError("a stack of draws")
            return build(logs, Z)

        monkeypatch.setattr(lab, "build_posdef", one_draw_only)
    if setting == "one-trial-mixes":  # a checked stack of several trials' mixes raises
        check = PosDef.from_matrix

        def one_trial_only(M):
            if M.ndim > 2 and len(M) > 1:
                raise MatrixError("a stack of trials")
            return check(M)

        monkeypatch.setattr(PosDef, "from_matrix", one_trial_only)
    sampler = SamplerConfig(dim=fam.phi.in_dim, seed=3, stream_index=40)
    with np.errstate(all="ignore"):
        for direction in ("concave", "convex"):
            got = midpoint_test(fam, direction, 120, sampler, label="case")
            ref = _midpoint_reports_loop(fam, (direction,), 120, sampler, "case")[direction]
            assert got.to_json() == ref.to_json()
        grid = ([fam.params.p], [fam.params.q], [fam.params.s])
        cells = sweep(fam, *grid, trials_per_cell=20, sampler=sampler).to_csv()
        monkeypatch.setattr(lab, "_midpoint_reports", _midpoint_reports_loop)
        assert cells == sweep(fam, *grid, trials_per_cell=20, sampler=sampler).to_csv()
    assert (0 < got.failures < 120) == (name == "overflow-n2")


def test_a_trial_whose_build_raises_fails(monkeypatch):
    def refuse(logs, Z):
        raise MatrixError("no build")

    monkeypatch.setattr(lab, "build_posdef", refuse)
    monkeypatch.setattr(lab, "_curvature_direction", lambda *args: None)
    fam = epstein(1.5, 0.8, dim=3)  # odd: no structured candidates
    report = midpoint_test(fam, "concave", 30, SamplerConfig(dim=3, seed=0))
    assert (report.failures, report.verdict) == (30, "INCONCLUSIVE")
    # each draw is charged 1, as are the two curvature base points
    found = hunt_counterexample(fam, "concave", 20, SamplerConfig(dim=3, seed=0))
    assert (found.certificate, found.trials_used, found.best_violation) == (None, 22, -np.inf)


def test_a_trial_whose_mixes_raise_alone_fails_alone(monkeypatch):
    fam, sampler = epstein(1.5, 0.8), SamplerConfig(dim=2, seed=0)
    assert midpoint_test(fam, "concave", 30, sampler).failures == 0
    mixes, refused = lab._trial_mixes, []

    def refuse_the_third(trials):  # the third trial's mixes raise, alone or stacked
        refused[:] = refused or [trials[2][0]]
        if any(inputs is refused[0] for inputs, _ in trials):
            raise MatrixError("refused")
        return mixes(trials)

    monkeypatch.setattr(lab, "_trial_mixes", refuse_the_third)
    assert midpoint_test(fam, "concave", 30, sampler).failures == 1


def test_stacked_scans_make_one_call_per_block(monkeypatch):
    calls = []

    def counted(family, A, B=None):
        calls.append(A.shape)
        return eval_family(family, A, B)

    monkeypatch.setattr(lab, "eval_family", counted)
    fam = _stacked_case("lieb-kraus-n3")  # 2 * 18**2 + 1 = 649 rows
    assert lab._curvature_direction(fam, "concave", rng_for(0, 0xC0DE)) is not None
    assert calls == [(649, 3, 3)]
    monkeypatch.setattr(lab, "CURVATURE_BLOCK", 200)
    del calls[:]
    lab._curvature_direction(fam, "concave", rng_for(0, 0xC0DE))
    assert calls == [(200, 3, 3)] * 3 + [(49, 3, 3)]


def test_sweep_cell_evaluates_each_trial_once(monkeypatch):
    pairs = {"midpoint": 0, "hunt": 0}
    phase = ["midpoint"]
    hunt = lab.hunt_counterexample

    def counted(family, A, B=None):
        pairs[phase[0]] += A.shape[0] if len(A.shape) == 3 else 1
        return eval_family(family, A, B)

    def hunted(*args, **kwargs):
        phase[0] = "hunt"
        try:
            return hunt(*args, **kwargs)
        finally:
            phase[0] = "midpoint"

    monkeypatch.setattr(lab, "eval_family", counted)
    monkeypatch.setattr(lab, "hunt_counterexample", hunted)
    fam = FamilySpec("lieb", identity_map(2), TRACE, ParameterPoint(0.7, 0.7, 1 / 1.4),
                     psi=identity_map(2))
    sweep(fam, [0.7], [0.7], [1 / 1.4], trials_per_cell=20,
          sampler=SamplerConfig(dim=2, seed=118))
    # two endpoint values and four mixed ones per trial, for both directions
    assert pairs["midpoint"] == 6 * 20
    assert pairs["hunt"] > 0


def _hill_climb_loop(family, direction, state, f, lam, best, rng, iters):
    """The hill climb as it was, one step and one eval_family call per pair at a
    time, kept as the reference of _hill_climb."""
    step = 0.3
    for _ in range(iters):
        idx = int(rng.integers(0, 4))
        if state[idx] is None:
            continue
        P = state[idx]
        G = lab.sample_hermitian_rng(rng, P.dim, scale=step * float(P.eigs[-1]))
        try:
            P2 = PosDef.from_hermitian(P.mat + G)
        except MatrixError:
            step *= 0.9
            continue
        trial_state, trial_f = list(state), list(f)
        trial_state[idx] = P2
        lam2 = float(np.clip(lam + step * rng.normal(0, 0.1), 0.02, 0.98))
        pair = idx // 2
        try:
            trial_f[pair] = eval_family(family, *trial_state[2 * pair:2 * pair + 2])
            cand = midpoint_violation(family, direction, trial_state[0], trial_state[2], lam2,
                                      trial_state[1], trial_state[3], *trial_f)
        except (EvaluationError, MatrixError):
            step *= 0.9
            continue
        if cand[0] / cand[3] > best[0] / best[3]:
            state, f, lam, best = trial_state, trial_f, lam2, cand
        else:
            step *= 0.97
    return state, lam, best


def _climb_start(name):
    """(family, direction, (A1, B1, A2, B2)) of a climb compared with the loop."""
    kraus = sample_kraus(3, 3, rank=2, seed=141)
    X = rng_for(109, 0).normal(size=(2, 2)) + 1j * rng_for(109, 1).normal(size=(2, 2))
    if name == "lieb-kraus-n3":
        fam = FamilySpec("lieb", kraus, TRACE, ParameterPoint(0.7, 0.7, 1 / 1.4),
                         psi=transpose_then_kraus(kraus.kraus))
        return fam, "concave", _sample_inputs(fam, rng_for(5, 0))
    if name == "epstein-n2":  # B is None: a step that picks it moves nothing
        fam = epstein(1.0, 1.2, phi=conjugation(X))
        return fam, "concave", _sample_inputs(fam, rng_for(5, 1))
    fam = carlen_lieb(3.0)  # cube-sum, from near-singular structured inputs
    return fam, "concave", next(lab._structured_candidates(fam))


def _climbs_agree(fam, direction, inputs, seed, iters):
    """Runs _hill_climb and the loop from inputs at lambda = 1/2 on the same
    stream; asserts equal end states, weights, values and rng states."""
    A1, B1, A2, B2 = inputs
    f = eval_family(fam, A1, B1), eval_family(fam, A2, B2)
    found = midpoint_violation(fam, direction, A1, A2, 0.5, B1, B2, *f)
    rng, ref_rng = rng_for(seed, 0x5EED), rng_for(seed, 0x5EED)
    state, lam, best = lab._hill_climb(fam, direction, inputs, f, 0.5, found, rng, iters)
    ref = _hill_climb_loop(fam, direction, inputs, f, 0.5, found, ref_rng, iters)
    for P, Q in zip(state, ref[0]):
        assert (P is None) == (Q is None)
        if P is not None:
            assert all(_same(x, y) for x, y in ((P.mat, Q.mat), (P.eigs, Q.eigs),
                                                 (P.vecs, Q.vecs)))
    assert lam == ref[1]
    assert np.array(best).tobytes() == np.array(ref[2]).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return best != found  # whether any step was accepted


@pytest.mark.parametrize("iters", [1, 5, 200])
@pytest.mark.parametrize("name", ["lieb-kraus-n3", "epstein-n2", "cube-sum-n2"])
def test_hill_climb_equals_the_one_step_loop(name, iters):
    # iters 1 and 5 end inside the first and second blocks (2 and 4 steps)
    fam, direction, inputs = _climb_start(name)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        moved = [_climbs_agree(fam, direction, inputs, seed, iters) for seed in range(3)]
    assert any(moved) or iters < 200


def test_a_hill_climb_block_that_raises_runs_step_by_step(monkeypatch):
    def one_pair_only(family, A, B=None):
        if len(A.shape) == 3 and A.shape[0] > 1:
            raise EvaluationError("a stack of more than one pair")
        return eval_family(family, A, B)

    monkeypatch.setattr(lab, "eval_family", one_pair_only)
    fam, direction, inputs = _climb_start("lieb-kraus-n3")
    assert _climbs_agree(fam, direction, inputs, 0, 60)


@pytest.mark.parametrize("chosen", [(), (0,), (3,), (1, 4, 6), tuple(range(7))])
@pytest.mark.parametrize("kind", ["array", "list"])
def test_a_stack_that_raises_gives_each_item_its_value_alone(chosen, kind):
    # row k holds k in its first entry: a stack that holds a chosen row raises
    V = rng_for(7, 0).normal(size=(7, 4))
    V[:, 0] = np.arange(7)
    calls = []

    def evaluate(rows):
        rows = np.array(rows)
        calls.append(len(rows))
        if set(rows[:, 0]) & set(chosen):
            raise MatrixError("a chosen row")
        return eigh(vec_to_herm(rows, 2), vectors=False)[:, -1]

    items = V if kind == "array" else list(V)
    got = lab._stacked(evaluate, items, failed="failed")
    assert calls == ([7] if not chosen else [7] + [1] * 7)
    for k, value in enumerate(got):
        if k in chosen:
            assert value == "failed"
        else:
            assert value.tobytes() == evaluate(V[k:k + 1])[0].tobytes()
    assert lab._stacked(evaluate, items[:0]) == []


def test_blocks_take_one_block_per_size_and_give_results_in_order():
    seen = []

    def evaluate(items):
        seen.append(list(items))
        return [10 * x for x in items]

    got = list(lab._blocks(iter([(k, k) for k in range(7)]), (1, 2, 4), evaluate))
    assert seen == [[0], [1, 2], [3, 4, 5, 6]]
    assert got == [(k, 10 * k) for k in range(7)]


def test_blocks_pass_none_through_and_fail_an_item_that_raises_alone():
    seen = []

    def evaluate(items):
        seen.append(list(items))
        if 3 in items:
            raise EvaluationError("item 3")
        return [10 * x for x in items]

    items = [(k, None if k == 1 else k) for k in range(5)]
    got = list(lab._blocks(iter(items), repeat(5), evaluate))
    assert got == [(0, 0), (1, None), (2, 20), (3, None), (4, 40)]
    assert seen == [[0, 2, 3, 4], [0], [2], [3], [4]]  # None never reaches evaluate


def test_blocks_pull_a_block_only_when_it_is_read_through_two_stages():
    pulled = []

    def source():
        for k in count():
            pulled.append(k)
            yield k, k

    first = lab._blocks(source(), repeat(4), lambda items: [x + 1 for x in items])
    assert next(first) == (0, 1) and pulled == [0, 1, 2, 3]
    pulled.clear()
    second = lab._blocks(lab._blocks(source(), repeat(4), lambda items: [x + 1 for x in items]),
                         repeat(2), lambda items: [2 * x for x in items])
    assert next(second) == (0, 2) and pulled == [0, 1, 2, 3]
    assert [next(second) for _ in range(3)] == [(1, 4), (2, 6), (3, 8)]
    assert pulled == [0, 1, 2, 3]
    assert next(second) == (4, 10) and pulled == list(range(8))


def _values_raise(chosen, evaluate=eval_family):
    """eval_family that raises on a call holding a pair whose value is chosen(value)."""
    def raising(family, A, B=None):
        values = evaluate(family, A, B)
        if any(chosen(v) for v in np.atleast_1d(values)):
            raising.raised.append(np.shape(values))
            raise EvaluationError("a chosen pair")
        return values

    raising.raised = []
    return raising


def test_a_climb_step_that_fails_alone_is_rejected_inside_its_block(monkeypatch):
    fam, direction, inputs = _climb_start("lieb-kraus-n3")
    A1, B1, A2, B2 = inputs
    f = eval_family(fam, A1, B1), eval_family(fam, A2, B2)
    found = midpoint_violation(fam, direction, A1, A2, 0.5, B1, B2, *f)
    # about one pair in six raises, alone or in any stack that holds it; the
    # loop evaluates its moved pair through this module's eval_family
    raising = _values_raise(lambda v: zlib.crc32(np.float64(v).tobytes()) % 6 == 0)
    monkeypatch.setattr(lab, "eval_family", raising)
    monkeypatch.setitem(globals(), "eval_family", raising)
    for seed in range(3):
        rng, ref_rng = rng_for(seed, 0x5EED), rng_for(seed, 0x5EED)
        state, lam, best = lab._hill_climb(fam, direction, inputs, f, 0.5, found, rng, 120)
        ref = _hill_climb_loop(fam, direction, inputs, f, 0.5, found, ref_rng, 120)
        for P, Q in zip(state, ref[0]):
            assert all(_same(x, y) for x, y in ((P.mat, Q.mat), (P.eigs, Q.eigs)))
        assert lam == ref[1]
        assert np.array(best).tobytes() == np.array(ref[2]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    # stacks of several steps raised, and so did single pairs
    assert any(shape[0] > 2 for shape in raising.raised if shape)
    assert () in raising.raised


@pytest.mark.parametrize("row", ["mix", "endpoint"])
def test_a_hunt_value_that_fails_alone_drops_only_its_part(row, monkeypatch):
    monkeypatch.setattr(lab, "_curvature_direction", lambda *args: None)
    fam, direction, budget, sampler = _hunt_case("random-phase")
    # the certifying draw 32: its mix at 1/2, or its first endpoint, raises alone
    A1, B1, A2, B2 = _sample_inputs(fam, rng_for(sampler.seed, 32))
    value = (midpoint_violation(fam, direction, A1, A2, 0.5, B1, B2)[1] if row == "mix"
             else eval_family(fam, A1, B1))
    raising = _values_raise(lambda v: np.float64(v).tobytes() == np.float64(value).tobytes())
    monkeypatch.setattr(lab, "eval_family", raising)
    got = hunt_counterexample(fam, direction, budget, sampler)
    assert (1,) in raising.raised  # the block raised, and the value raised alone
    ref = _hunt_loop(fam, direction, budget, sampler)
    assert () in raising.raised
    assert _hunt_key(got) == _hunt_key(ref)
    assert got.certificate is not None


def _hunt_loop(family, direction, budget, sampler):
    """hunt_counterexample as it was, one candidate and one lab.eval_family call
    per pair at a time, kept as the reference of the hunt's stacked look-ahead."""
    def candidates():
        for inputs in lab._structured_candidates(family):
            yield 1, inputs, (0.5, 0.25, 0.75), sampler.stream_index
        for k in range(int(min(10, max(2, budget // 100)))):
            stream = 0xC0DE + k
            found = lab._curvature_direction(family, direction, rng_for(sampler.seed, stream))
            yield 1 if found is None else max(1, found[-1] // 3), None, (), stream
            if found is not None:
                for inputs in lab._segment_endpoints(*found[:4]):
                    yield 0, inputs, (0.5,), stream
        draw = lambda rng: (_sample_inputs_loop(family, rng),
                            (0.5, float(rng.uniform(0.05, 0.95))))
        for stream, drawn in lab._trials(sampler, budget, draw):
            yield 1, *(drawn or (None, ())), stream

    def climb_and_certify(inputs, f, lam, found, stream, iters):
        rng = rng_for(sampler.seed, stream ^ 0x5EED)
        (A1, B1, A2, B2), lam, (viol, lhs, rhs, scale) = lab._hill_climb(
            family, direction, inputs, f, lam, found, rng, iters)
        rel = viol / scale
        if not viol > CLAIM_REL * scale:
            return None, rel
        for eps in (lab.CERT_EPS, lab.CERT_EPS / 10):
            reg = lambda P: (PosDef.from_hermitian(P.mat + eps * P.eigs[-1] * np.eye(P.dim))
                             if P is not None else None)
            try:
                again = midpoint_violation(family, direction, reg(A1), reg(A2), lam,
                                           reg(B1), reg(B2))
            except (EvaluationError, MatrixError):
                return None, rel
            if not again[0] / again[3] > 0.5 * CLAIM_REL:
                return None, rel
        return lab._make_certificate(family, direction, A1, B1, A2, B2, lam, lhs, rhs,
                                     viol, sampler.seed, stream), rel

    best_rel, trials_used, near_miss = -np.inf, 0, None
    for charge, inputs, lams, stream in candidates():
        trials_used += charge
        if inputs is None:
            continue
        A1, B1, A2, B2 = inputs
        try:
            f = lab.eval_family(family, A1, B1), lab.eval_family(family, A2, B2)
        except (EvaluationError, MatrixError):
            continue
        for lam in lams:
            try:
                found = midpoint_violation(family, direction, A1, A2, lam, B1, B2, *f)
            except (EvaluationError, MatrixError):
                continue
            rel = found[0] / found[3]
            if rel > best_rel:
                best_rel, near_miss = rel, (inputs, f, lam, found, stream)
            if found[0] > CLAIM_REL * found[3]:
                cert, rel = climb_and_certify(inputs, f, lam, found, stream, iters=200)
                if cert is not None:
                    return HuntResult(cert, trials_used, max(best_rel, rel))
    if near_miss is not None:
        cert, rel = climb_and_certify(*near_miss, iters=400)
        return HuntResult(cert, trials_used, max(best_rel, rel))
    return HuntResult(None, trials_used, best_rel)


def _hunt_case(name):
    """(family, direction, budget, sampler) of a hunt compared with the loop: the
    on-region hunt, the roundtrip test's off-region one (a structured
    certificate), one that certifies on random draw 32, inside the block of
    draws 31 to 62, once the curvature phase finds nothing, and one whose Phi
    takes 2 x 2 inputs and Psi 3 x 3 (a curvature certificate)."""
    if name == "on-region":
        fam = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                         norm=TRACE, params=ParameterPoint(0.7, 0.7, 1 / 1.4))
        return fam, "concave", 300, SamplerConfig(dim=2, seed=108)
    if name == "random-phase":
        fam = FamilySpec(family="lieb", phi=identity_map(3), psi=identity_map(3),
                         norm=TRACE, params=ParameterPoint(0.5, 0.5, 1.1))
        return fam, "concave", 300, SamplerConfig(dim=3, seed=0)
    if name == "mixed-dims":
        return _midpoint_block_case("lieb-psi-n3"), "concave", 300, SamplerConfig(dim=2, seed=0)
    rng = rng_for(109, 0)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return epstein(1.0, 1.2, phi=conjugation(X)), "concave", 5_000, SamplerConfig(2, 109)


def _hunt_key(result):
    cert = result.certificate
    return (json.dumps(cert.to_dict(), sort_keys=True) if cert else None,
            result.trials_used, np.float64(result.best_violation).tobytes())


@pytest.mark.parametrize("name", ["on-region", "off-region", "random-phase", "mixed-dims"])
def test_hunt_equals_the_one_draw_loop(name, monkeypatch):
    rows = {"blocks": 0, "loop": 0, "climb": 0}
    counting, climb = ["blocks"], lab._hill_climb

    def counted(family, A, B=None):
        rows[counting[0]] += A.shape[0] if len(A.shape) == 3 else 1
        return eval_family(family, A, B)

    def uncounted(*args):  # both hunts climb with _hill_climb: count the candidates
        seen, counting[0] = counting[0], "climb"
        try:
            return climb(*args)
        finally:
            counting[0] = seen

    monkeypatch.setattr(lab, "eval_family", counted)
    monkeypatch.setattr(lab, "_hill_climb", uncounted)
    if name == "random-phase":
        monkeypatch.setattr(lab, "_curvature_direction", lambda *args: None)
    fam, direction, budget, sampler = _hunt_case(name)
    got = hunt_counterexample(fam, direction, budget, sampler)
    counting[0] = "loop"
    ref = _hunt_loop(fam, direction, budget, sampler)
    assert _hunt_key(got) == _hunt_key(ref)
    assert (got.certificate is None) == (name == "on-region")
    # the look-ahead past the certifying draw: at most a block's 4 rows per draw
    assert 0 <= rows["blocks"] - rows["loop"] <= 4 * lab.HUNT_BLOCK
    if name == "random-phase":
        assert got.certificate.stream == 32 and rows["blocks"] > rows["loop"]
    if name == "on-region":
        assert rows["blocks"] == rows["loop"]
    if name == "mixed-dims":  # replay joins A and B stacks of different n in one call
        cert = got.certificate
        A1, A2, B1, B2 = (PosDef.from_matrix(M) for M in (cert.a1, cert.a2, cert.b1, cert.b2))
        ref = midpoint_violation(fam, direction, A1, A2, cert.lam, B1, B2)[1:3]
        assert (A1.dim, B1.dim) == (2, 3)
        assert np.array(replay_certificate(cert)).tobytes() == np.array(ref).tobytes()


class TestLoewnerTests:
    def test_hat_power_concavity_passes(self):
        rng = rng_for(110, 0)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        report = loewner_midpoint_test("hat-power", {"phi": conjugation(X), "p": 1.0},
                                       trials=300,
                                       sampler=SamplerConfig(dim=2, seed=110))
        assert report.verdict == "PASS"

    def test_mean_concavity_passes(self):
        report = loewner_midpoint_test(
            "mean-concavity", {"mean": MeanSpec(kind="geometric", t=0.5)},
            trials=300, sampler=SamplerConfig(dim=2, seed=111))
        assert report.verdict == "PASS"

    def test_dominance_passes_on_region(self):
        report = loewner_midpoint_test("power-mean-dominance", {"p": 1.0, "q": 2.0},
                                       trials=1000,
                                       sampler=SamplerConfig(dim=2, seed=112))
        assert report.verdict == "PASS"

    def test_simplex_point_without_positive_definite_means_is_a_failed_point(self):
        # restart k = 9 of verify L5.4 at (1, 2), seed 112, steps onto points
        # whose power mean is not numerically positive definite
        x = _nelder_mead(lab._dominance_objective(1.0, 2.0, 2),
                         rng_for(112, 9 ^ 0x0D0A).normal(0.0, 1.5, 8), maxiter=2000,
                         xatol=1e-12, fatol=1e-16)
        A, B = matrix_exp_herm(lab._log_pairs(x[None], 2))
        assert A.dim == B.dim == 2

    def test_dominance_violated_off_region(self):
        report = loewner_midpoint_test("power-mean-dominance", {"p": 0.3, "q": 1.0},
                                       trials=3000,
                                       sampler=SamplerConfig(dim=2, seed=113),
                                       refine=True, stop_on_violation=True)
        assert report.verdict == "VIOLATED"
        assert report.witness is not None
        assert report.witness["witness_eigenvalue"] < 0


class TestSweep:
    def test_single_cell_matches_midpoint_test(self):
        fam = epstein(0.5, 1.0)
        sampler = SamplerConfig(dim=2, seed=114)
        result = sweep(fam, [0.5], [0.0], [1.0], trials_per_cell=80, sampler=sampler)
        assert len(result.rows) == 1
        row = result.rows[0]
        cell = fam.with_params(ParameterPoint(0.5, 0.0, 1.0))
        direct = midpoint_test(cell, "concave", 80, sampler)
        # the sweep folds in extra directed probes, so its worst can only grow
        assert row["worst_concave_violation"] >= direct.worst_violation
        assert row["worst_concave_violation"] <= 1e-8
        assert row["verdict"] == "concave-pass"

    def test_large_exponent_cell_fails_both_ways(self):
        fam = carlen_lieb(3.0)
        result = sweep(fam, [3.0], [3.0], [1 / 3.0], trials_per_cell=400,
                       sampler=SamplerConfig(dim=2, seed=115))
        assert result.rows[0]["verdict"] == "both-violated"

    def test_csv_contract_and_determinism(self):
        fam = epstein(0.5, 1.0)
        args = (fam, [0.5, 1.5], [0.0], [1.0])
        a = sweep(*args, trials_per_cell=40,
                  sampler=SamplerConfig(dim=2, seed=116)).to_csv()
        b = sweep(*args, trials_per_cell=40,
                  sampler=SamplerConfig(dim=2, seed=116)).to_csv()
        assert a == b
        assert a.splitlines()[0] == ("p,q,s,verdict,worst_concave_violation,"
                                     "worst_convex_violation,trials,failures")
        assert len(a.splitlines()) == 3


class TestReportSerialization:
    def test_report_json_deterministic(self):
        fam = epstein(0.5, 1.0)
        r1 = midpoint_test(fam, "concave", 50, SamplerConfig(dim=2, seed=117))
        r2 = midpoint_test(fam, "concave", 50, SamplerConfig(dim=2, seed=117))
        assert r1.to_json() == r2.to_json()


def _loewner_excess_one(small, big):
    Rih = big.power(-0.5).mat
    C = hermitize(Rih @ small.mat @ Rih)
    return float(np.linalg.eigvalsh(C)[-1] - 1.0)


def _loewner_gap_one(expr, params, rng, cfg):
    """One trial's (excess, witness eigenvalue, inputs as JSON) as the per-trial
    loop drew and evaluated it."""
    mix = lambda P1, P2: PosDef.from_matrix(0.5 * P1.mat + (1 - 0.5) * P2.mat)
    if expr == "power-mean-dominance":
        A, B = (sample_posdef_rng(rng, cfg.dim) for _ in range(2))
        small, big = power_mean(A, B, params["p"]), power_mean(A, B, params["q"])
        inputs = {"a": A, "b": B}
    elif expr == "hat-power":
        phi, p = params["phi"], params["p"]
        A, B = (sample_posdef_rng(rng, phi.in_dim) for _ in range(2))
        big = hat_map(phi, mix(A, B).power(p))
        small = PosDef.from_hermitian(0.5 * (hat_map(phi, A.power(p)).mat
                                             + hat_map(phi, B.power(p)).mat))
        inputs = {"a": A, "b": B}
    else:
        mean = params["mean"]
        A1, A2, B1, B2 = (sample_posdef_rng(rng, cfg.dim) for _ in range(4))
        big = eval_mean(mean, mix(A1, A2), mix(B1, B2))
        small = PosDef.from_hermitian(0.5 * (eval_mean(mean, A1, B1).mat
                                             + eval_mean(mean, A2, B2).mat))
        inputs = {"a1": A1, "a2": A2, "b1": B1, "b2": B2}
    excess = _loewner_excess_one(small, big)
    w = excess if excess <= 0.0 else loewner_leq(small.mat, big.mat)[1]
    return excess, w, {name: mat_to_json(P.mat) for name, P in inputs.items()}


def _loewner_midpoint_test_loop(expr, params, trials, sampler, stop_on_violation=False):
    """The random phase of loewner_midpoint_test as it was, one trial per
    evaluation, kept as its reference."""
    worst_rel, witness, failures = -np.inf, None, 0
    for t in range(trials):
        stream = sampler.stream_index + t
        try:
            excess, w, payload = _loewner_gap_one(expr, params, rng_for(sampler.seed, stream),
                                                  sampler)
        except (EvaluationError, MatrixError):
            failures += 1
            continue
        if excess > worst_rel:
            worst_rel = excess
            if excess > CLAIM_REL:
                witness = {"witness_eigenvalue": w, "relative_excess": excess,
                           "stream": stream, **payload}
                if stop_on_violation:
                    break
    return lab.TestReport(
        label=f"loewner:{expr}", direction="loewner", trials=trials,
        worst_violation=float(worst_rel),
        verdict=lab._verdict(failures, trials, witness is not None, worst_rel),
        failures=failures, witness=witness)


def _loewner_cases(dim):
    """(expr, params) that pass, violate, take the p = 0 limit or fail some trials."""
    X = rng_for(144, dim).normal(size=(dim, dim)) + 2 * np.eye(dim)
    return [
        ("power-mean-dominance", {"p": 0.5, "q": 1.0}),
        ("power-mean-dominance", {"p": 0.3, "q": 1.0}),
        ("power-mean-dominance", {"p": 0.0, "q": 1.0}),
        ("power-mean-dominance", {"p": 2.0, "q": -1.0}),
        ("power-mean-dominance", {"p": 300.0, "q": 200.0}),  # A^300 fails in some trials
        ("hat-power", {"phi": conjugation(X), "p": 1.0}),
        ("hat-power", {"phi": conjugation(X), "p": 2.0}),
        ("hat-power", {"phi": sample_kraus(dim, dim, 2, 144), "p": 0.5}),
        ("mean-concavity", {"mean": MeanSpec("geometric", t=0.5)}),
        ("mean-concavity", {"mean": MeanSpec("power", r=-0.5, modifier="adjoint")}),
        ("mean-concavity", {"mean": MeanSpec("sum")}),
    ]


@pytest.mark.parametrize("block", [lab.LOEWNER_BLOCK, 16])
@pytest.mark.parametrize("dim", [2, 3])
def test_loewner_blocks_equal_the_per_trial_loop(dim, block, monkeypatch):
    monkeypatch.setattr(lab, "LOEWNER_BLOCK", block)
    seen = set()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for expr, params in _loewner_cases(dim):
            for seed, stream_index in ((0, 0), (11, 300)):
                sampler = SamplerConfig(dim=dim, seed=seed, stream_index=stream_index)
                for stop in (False, True):
                    got = loewner_midpoint_test(expr, params, 40, sampler,
                                                stop_on_violation=stop)
                    ref = _loewner_midpoint_test_loop(expr, params, 40, sampler, stop)
                    assert got.to_json() == ref.to_json(), (expr, params, seed, stop)
                    seen.add((expr, got.verdict, 0 < got.failures < 40))
    assert {(e, "PASS", False) for e in lab.LOEWNER_INPUTS} <= seen
    assert {("power-mean-dominance", "VIOLATED", False), ("hat-power", "VIOLATED", False)} <= seen
    assert ("power-mean-dominance", "INCONCLUSIVE", True) in seen  # blocks that raised


def test_a_witness_mid_block_leaves_later_failures_uncounted():
    # at (300, 200) A^300 fails on some trials; with stop_on_violation the test
    # stops at the witness on stream 1, inside a block that fails again after it
    params, sampler = {"p": 300.0, "q": 200.0}, SamplerConfig(dim=2, seed=2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = loewner_midpoint_test("power-mean-dominance", params, 100, sampler,
                                    stop_on_violation=True)
        ref = _loewner_midpoint_test_loop("power-mean-dominance", params, 100, sampler, True)
        whole = _loewner_midpoint_test_loop("power-mean-dominance", params, 100, sampler)
    assert got.to_json() == ref.to_json()
    assert got.verdict == "VIOLATED" and got.witness["stream"] == 1
    assert got.failures == 1 < whole.failures


def test_a_passing_block_builds_no_witness(monkeypatch):
    built = []
    monkeypatch.setattr(lab, "mat_to_json", lambda M: built.append(M))
    monkeypatch.setattr(lab, "loewner_leq", lambda A, B: built.append(A))
    report = loewner_midpoint_test("power-mean-dominance", {"p": 0.5, "q": 1.0}, 500,
                                   SamplerConfig(dim=2, seed=61))
    assert report.verdict == "PASS" and built == []


def _dominance_objective_one(p, q, dim):
    """The Nelder-Mead objective as it was, one point per call, kept as the
    reference of lab._dominance_objective."""
    k = dim * dim

    def objective(v):
        if np.max(np.abs(v)) > 10.0:
            return 1.0
        A = matrix_exp_herm(vec_to_herm(v[:k], dim))
        B = matrix_exp_herm(vec_to_herm(v[k:], dim))
        try:
            return -_loewner_excess_one(power_mean(A, B, p), power_mean(A, B, q))
        except MatrixError:
            return 1.0

    return objective


# (p, q, seed, restart k): perfbench's two refined starts, criterion 6's restarts
# at (0.8, 0.9) up to its witness, and verify L5.4's restart k = 9 at (1, 2),
# which steps onto failed points; then the exponents of each branch of the power
# mean (the log-exp limit, A^1, the fast paths of 0.5, 2 and -1) at n = 2 and 3
_NM_RUNS = ([pytest.param(*run, 2, id="-".join(map(str, run)))
             for run in [(0.6, 0.9, 1, 0), (0.6, 0.9, 4, 0)]
             + [(0.8, 0.9, 7, k) for k in range(11)] + [(1.0, 2.0, 112, 9)]]
            + [pytest.param(p, q, 3, 0, dim, id=f"{p}-{q}-3-0-n{dim}")
               for p, q in [(0.0, 0.5), (1.0, 2.0), (-1.0, 0.5), (0.5, 1.0), (0.6, 0.9)]
               for dim in (2, 3)])


@pytest.mark.parametrize("p, q, seed, k, dim", _NM_RUNS)
def test_nelder_mead_ends_where_scipy_does(p, q, seed, k, dim):
    import scipy.optimize

    x0 = rng_for(seed, k ^ 0x0D0A).normal(0.0, 1.5, 2 * dim * dim)
    ref = scipy.optimize.minimize(_dominance_objective_one(p, q, dim), x0, method="Nelder-Mead",
                                  options={"maxiter": 2000, "xatol": 1e-12, "fatol": 1e-16})
    x = _nelder_mead(lab._dominance_objective(p, q, dim), x0, maxiter=2000, xatol=1e-12,
                     fatol=1e-16)
    assert x.tobytes() == ref.x.tobytes()


def _nan_inf_objective(v):
    """A quadratic whose minimum lies in a half-space where it is NaN, and which
    is inf on a quadrant in between."""
    if v[0] > 1.0:
        return float("nan")
    if v[1] < -1.0 and v[2] > 0.0:
        return float("inf")
    return float(((v - np.array([1.2, -1.3, 0.4, 0.7])) ** 2).sum())


@pytest.mark.parametrize("seed", range(6))
def test_nelder_mead_branches_on_nan_and_inf_as_scipy_does(seed):
    import scipy.optimize

    seen = []

    def one(v):
        seen.append(_nan_inf_objective(v))
        return seen[-1]

    x0 = rng_for(seed, 0).normal(0.0, 1.5, 4)
    ref = scipy.optimize.minimize(one, x0, method="Nelder-Mead",
                                  options={"maxiter": 2000, "xatol": 1e-12, "fatol": 1e-16})
    # seed 0 starts in the NaN half-space and stays there
    assert np.isnan(seen).any() and (seed == 0 or np.isinf(seen).any())
    x = _nelder_mead(lambda V: np.array([_nan_inf_objective(v) for v in V]), x0,
                     maxiter=2000, xatol=1e-12, fatol=1e-16)
    assert x.tobytes() == ref.x.tobytes()


def _restart_x0(seed, k, dim):
    return rng_for(seed, k ^ 0x0D0A).normal(0.0, 1.5, 2 * dim * dim)


# (p, q, seed, restarts k, dim): criterion 6's restarts at (0.8, 0.9) through the
# block that holds its witness, k = 10; verify L5.4's restart k = 9 at (1, 2), which
# steps onto failed points, in its block; the n = 3 exponent cases of _NM_RUNS
@pytest.mark.parametrize("p, q, seed, ks, dim", [
    pytest.param(0.8, 0.9, 7, range(15), 2, id="0.8-0.9-7"),
    pytest.param(1.0, 2.0, 112, range(7, 15), 2, id="1.0-2.0-112"),
    *[pytest.param(p, q, 3, range(3), 3, id=f"{p}-{q}-3-n3")
      for p, q in [(0.0, 0.5), (1.0, 2.0), (-1.0, 0.5), (0.5, 1.0), (0.6, 0.9)]]])
def test_restarts_in_lockstep_end_where_each_ends_alone(p, q, seed, ks, dim):
    fun = lab._dominance_objective(p, q, dim)
    together = lab._lockstep(fun, [lab._simplex(_restart_x0(seed, k, dim), maxiter=2000,
                                                xatol=1e-12, fatol=1e-16) for k in ks])
    for k, x in zip(ks, together):
        alone = _nelder_mead(fun, _restart_x0(seed, k, dim), maxiter=2000, xatol=1e-12,
                             fatol=1e-16)
        assert x.tobytes() == alone.tobytes(), k


def _refined_one_restart_at_a_time(params, trials, sampler):
    """loewner_midpoint_test on power-mean-dominance with refine, its restarts run
    one at a time in restart order: the reference of the lockstep blocks."""
    base = loewner_midpoint_test("power-mean-dominance", params, trials, sampler)
    worst, kept, dim = base.worst_violation, base.witness, sampler.dim
    for k in range(24 if kept is None else 0):
        stream = (sampler.stream_index + k) ^ 0x0D0A
        x = _nelder_mead(lab._dominance_objective(params["p"], params["q"], dim),
                         rng_for(sampler.seed, stream).normal(0.0, 1.5, 2 * dim * dim),
                         maxiter=2000, xatol=1e-12, fatol=1e-16)
        P = matrix_exp_herm(lab._log_pairs(x[None], dim))
        try:
            excess, witness = lab._loewner_evaluation("power-mean-dominance", params, P)
        except MatrixError:
            continue
        if excess[0] > worst:
            worst = float(excess[0])
            if worst > CLAIM_REL:
                kept = witness(0, stream)
                break
    return dataclasses.replace(base, worst_violation=worst, witness=kept,
                               verdict=lab._verdict(base.failures, trials, kept is not None,
                                                    worst))


@pytest.mark.parametrize("outcomes, blocks", [
    # a witness at k = 9 inside the block k = 7..14, after two end points that
    # raise; a larger witness later in that block is dropped
    ({0: 0.1, 1: 0.3, 2: "raise", 3: 0.2, 5: "raise", 8: 0.5, 9: 3.0, 10: 9.0, 14: 9.0},
     [1, 2, 4, 8]),
    ({1: 2.0, 2: 5.0}, [1, 2]),  # the first of two witnesses in one block is kept
    ({0: 2.0}, [1]),
    ({3: 0.4, 6: "raise", 20: 0.9, 23: "raise"}, [1, 2, 4, 8, 9]),  # no witness
])
def test_refined_restarts_report_as_one_at_a_time(monkeypatch, outcomes, blocks):
    """The restarts' end points get chosen outcomes (an excess in units of
    CLAIM_REL, or an evaluation that raises) from a cheap objective whose end
    points differ by restart; the report must be the reference loop's."""
    params, trials, sampler = {"p": 0.8, "q": 0.9}, 4, SamplerConfig(dim=2, seed=7)
    monkeypatch.setattr(lab, "_dominance_objective", lambda p, q, dim: lambda V: np.array(
        [float(((v[:2] - 0.5) ** 2).sum()) for v in V]))
    table = {}
    for k in range(24):
        x = _nelder_mead(lab._dominance_objective(0.8, 0.9, 2), _restart_x0(7, k, 2),
                         maxiter=2000, xatol=1e-12, fatol=1e-16)
        P = matrix_exp_herm(lab._log_pairs(x[None], 2))
        table[P.vecs.tobytes() + P.eigs.tobytes()] = (k, outcomes.get(k, -1.0))
    assert len(table) == 24
    evaluation = lab._loewner_evaluation

    def chosen(expr, params, P):
        if (P.vecs.tobytes() + P.eigs.tobytes()) not in table:
            return evaluation(expr, params, P)  # the random phase
        k, outcome = table[P.vecs.tobytes() + P.eigs.tobytes()]
        if outcome == "raise":
            raise MatrixError("chosen to fail")
        return np.array([outcome * CLAIM_REL]), lambda t, stream: {"k": k, "stream": stream}

    monkeypatch.setattr(lab, "_loewner_evaluation", chosen)
    sizes = []
    lockstep = lab._lockstep
    monkeypatch.setattr(lab, "_lockstep", lambda fun, searches: (
        sizes.append(len(searches)) or lockstep(fun, searches)))
    got = loewner_midpoint_test("power-mean-dominance", params, trials, sampler, refine=True)
    assert sizes == blocks
    ref = _refined_one_restart_at_a_time(params, trials, sampler)
    assert got.to_json() == ref.to_json()
    witnesses = sorted(k for k, o in outcomes.items() if o != "raise" and o > 1.0)
    assert got.witness == ({"k": witnesses[0], "stream": witnesses[0] ^ 0x0D0A}
                           if witnesses else None)


@pytest.mark.parametrize("seed", [1, 4])
def test_refined_restarts_report_as_one_at_a_time_on_the_real_objective(seed):
    # perfbench's two refined dominance ops: their witness is restart k = 0
    params, sampler = {"p": 0.6, "q": 0.9}, SamplerConfig(dim=2, seed=seed)
    got = loewner_midpoint_test("power-mean-dominance", params, 3, sampler, refine=True)
    assert got.witness is not None
    assert got.to_json() == _refined_one_restart_at_a_time(params, 3, sampler).to_json()


def test_the_stacked_objective_scores_each_point_as_alone():
    for dim in (2, 3):
        rng = rng_for(145, 0 if dim == 2 else dim)
        V = rng.normal(0.0, 1.5, (60, 2 * dim * dim))
        V[::7] *= 8.0  # beyond the bound
        # rows raise at (200, 300) and (300, -1): at n = 3 the powers overflow to
        # inf, on which the eigensolver fails, and that scores as any failure
        raising = ((200.0, 300.0), (300.0, -1.0))
        for p, q in ((0.8, 0.9), (1.0, 2.0), (0.0, 1.0), (0.0, 0.5), (-1.0, 0.5), (0.5, 1.0),
                     (0.6, 0.9)) + raising:
            one = _dominance_objective_one(p, q, dim)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                got = np.concatenate([lab._dominance_objective(p, q, dim)(V[i:i + 4])
                                      for i in range(0, len(V), 4)])
                ref = np.array([one(v) for v in V])
            assert got.tobytes() == ref.tobytes(), (dim, p, q)
            if (p, q) in raising:
                assert 1.0 in ref[np.max(np.abs(V), axis=1) <= 10.0]


@pytest.mark.parametrize("dim", [2, 3])
def test_the_stacked_objective_scores_nan_and_out_of_bound_rows_as_alone(dim):
    # the whole-stack bound test is False on NaN, so these stacks take the
    # row-by-row path, where a NaN row is inside the bound as it is alone
    V = rng_for(146, dim).normal(0.0, 1.5, (8, 2 * dim * dim))
    V[2, 3] = np.nan
    V[5, 0] = 10.5
    V[6, -1] = -np.inf
    one = _dominance_objective_one(0.8, 0.9, dim)
    objective = lab._dominance_objective(0.8, 0.9, dim)

    def alone(v):  # at n = 3 the NaN row's eigensolve fails: a failed point scores 1
        try:
            return one(v)
        except MatrixError:
            return 1.0

    with np.errstate(all="ignore"):
        for rows in ([0, 1, 3], [2], [5], [0, 2, 4], [0, 5, 7], [2, 5], list(range(8))):
            got = objective(V[rows])
            ref = np.array([alone(v) for v in V[rows]])
            assert got.tobytes() == ref.tobytes(), rows


def test_scipy_optimize_is_not_imported():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "import tracelab.cli\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from tracelab.lab import loewner_midpoint_test\n"
            "from tracelab.linalg import SamplerConfig\n"
            "r = loewner_midpoint_test('power-mean-dominance', {'p': 0.6, 'q': 0.9}, 3,\n"
            "                          SamplerConfig(dim=2, seed=1), refine=True)\n"
            "print(r.verdict, 'scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.split() == ["False", "VIOLATED", "False"]
