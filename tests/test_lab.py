"""Randomized convexity testing, certificates, Loewner tests, and sweeps."""

import json

import numpy as np
import pytest

from tracelab import lab, linalg
from tracelab.families import FamilySpec, ParameterPoint, eval_family
from tracelab.lab import (
    CLAIM_REL,
    _curvature_steps,
    Certificate,
    HuntResult,
    certificate_is_valid,
    hunt_counterexample,
    loewner_midpoint_test,
    midpoint_test,
    midpoint_violation,
    replay_certificate,
    segment_test,
    sweep,
)
from tracelab.linalg import PosDef, SamplerConfig, rng_for, sample_posdef
from tracelab.means import MeanSpec
from tracelab.norms import NormSpec
from tracelab.posmaps import conjugation, identity_map, sample_kraus

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

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            midpoint_test(carlen_lieb(1.5), "sideways", trials=1,
                          sampler=SamplerConfig(dim=2, seed=0))

    def test_every_search_rejects_an_invalid_direction(self):
        with pytest.raises(ValueError):
            hunt_counterexample(carlen_lieb(1.5), "concav", budget=1,
                                sampler=SamplerConfig(dim=2, seed=0))
        with pytest.raises(ValueError):
            segment_test(epstein(1.0, 1.0), "concav", _sample(0), np.eye(2))


class TestSegmentTest:
    def test_quadratic_profile_is_convex(self):
        fam = epstein(2.0, 1.0)  # Tr A^2 along a line is a parabola
        A = _sample(103)
        rng = rng_for(103, 1)
        H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        report = segment_test(fam, "convex", A, H + H.conj().T)
        assert report.verdict == "PASS"

    def test_concave_epstein_segment(self):
        fam = epstein(0.5, 2.0)
        A = _sample(104)
        rng = rng_for(104, 1)
        H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        report = segment_test(fam, "concave", A, H + H.conj().T)
        assert report.verdict == "PASS"

    def test_points_run_no_hermiticity_check(self, monkeypatch):
        fam = epstein(0.5, 2.0)
        A = _sample(104)
        rng = rng_for(104, 1)
        H = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        expected = segment_test(fam, "concave", A, H + H.conj().T)

        def refuse(M):
            raise AssertionError("check_hermitian called on an internal matrix")

        monkeypatch.setattr(linalg, "check_hermitian", refuse)
        report = segment_test(fam, "concave", A, H + H.conj().T)
        assert report.to_json() == expected.to_json()

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
        A, B = lab._nm_dominance_search(1.0, 2.0, 2, rng_for(112, 9 ^ 0x0D0A))
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
