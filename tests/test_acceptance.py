"""Acceptance suite: one test per headline claim, plus a determinism gate.

Each criterion is implemented as a runner that returns
(ok, detail, serialized_report).  Runners are cached so criteria 1-10 execute
once; the final criterion re-executes every runner with identical seeds and
requires byte-identical serialized reports.
"""

import json
import time

import numpy as np

from tracelab.families import (
    FamilySpec,
    ParameterPoint,
    eval_family,
    variational_min,
)
from tracelab.lab import (
    CLAIM_REL,
    hunt_counterexample,
    loewner_midpoint_test,
    midpoint_test,
    replay_certificate,
)
from tracelab.linalg import PosDef, SamplerConfig, rng_for, sample_posdef
from tracelab.means import MeanSpec
from tracelab.norms import NormSpec, catalog_antinorms, eval_norm_from_eigs
from tracelab.posmaps import conjugation, identity_map, sample_kraus

TRACE = NormSpec(kind="trace")


# --- criterion runners -----------------------------------------------------

def _criterion_1():
    """Trace concavity of the two-map functional on its parameter region,
    positive and negative exponent branches, under random Kraus maps."""
    phi = sample_kraus(3, 3, 2, 42, 0)
    psi = sample_kraus(3, 3, 2, 42, 1)
    base = FamilySpec(family="lieb", phi=phi, psi=psi, norm=TRACE,
                      params=ParameterPoint(0.7, 0.7, 1 / 1.4))
    points = [(0.7, 0.7, 1 / 1.4), (0.3, 0.9, 0.8), (-0.7, -0.7, -1 / 1.4)]
    t0 = time.time()
    reports = []
    for i, (p, q, s) in enumerate(points):
        fam = base.with_params(ParameterPoint(p, q, s))
        sampler = SamplerConfig(dim=3, seed=42, stream_index=10_000 * i)
        reports.append(midpoint_test(fam, "concave", trials=2000, sampler=sampler))
    elapsed = time.time() - t0
    worst = max(r.worst_violation for r in reports)
    ok = all(r.verdict == "PASS" for r in reports) and worst <= 1e-8 and elapsed < 60
    detail = (f"3 parameter points x 2000 trials, worst relative violation "
              f"{worst:.2e}, {elapsed:.1f}s")
    return ok, detail, "\n".join(r.to_json() for r in reports)


def _criterion_2():
    """Anti-norm concavity of the operator-mean functional for the geometric
    and power(1/2) means across the full anti-norm catalog."""
    means = [MeanSpec(kind="geometric", t=0.5), MeanSpec(kind="power", r=0.5)]
    antinorms = [NormSpec("kyfan-anti", k=1), NormSpec("kyfan-anti", k=3),
                 NormSpec("schatten-quasi", p=0.5), NormSpec("neg-schatten", p=1.0),
                 NormSpec("minkowski", k=3)]
    reports = []
    for i, mean in enumerate(means):
        for j, anorm in enumerate(antinorms):
            fam = FamilySpec(family="mean", phi=identity_map(3), psi=identity_map(3),
                             norm=anorm, mean=mean,
                             params=ParameterPoint(0.6, 0.9, 1 / 0.9))
            sampler = SamplerConfig(dim=3, seed=43,
                                    stream_index=10_000 * (5 * i + j))
            reports.append(midpoint_test(fam, "concave", trials=1000,
                                         sampler=sampler))
    worst = max(r.worst_violation for r in reports)
    ok = all(r.verdict == "PASS" for r in reports)
    detail = (f"{len(reports)} mean/anti-norm combinations x 1000 trials, "
              f"worst relative violation {worst:.2e}")
    return ok, detail, "\n".join(r.to_json() for r in reports)


def _criterion_3():
    """Ky Fan norm convexity of the one-map power functional under completely
    positive Kraus maps."""
    reports = []
    for i, (p, s) in enumerate([(1.5, 0.8), (2.0, 0.5)]):
        phi = sample_kraus(2, 2, 2, 44, i)
        for k in (1, 2):
            fam = FamilySpec(family="epstein", phi=phi,
                             norm=NormSpec("kyfan", k=k),
                             params=ParameterPoint(p, 0.0, s))
            sampler = SamplerConfig(dim=2, seed=44,
                                    stream_index=10_000 * (2 * i + k))
            reports.append(midpoint_test(fam, "convex", trials=2000,
                                         sampler=sampler))
    worst = max(r.worst_violation for r in reports)
    ok = all(r.verdict == "PASS" for r in reports)
    detail = (f"2 parameter points x Ky Fan k=1,2 x 2000 trials, worst "
              f"relative violation {worst:.2e}")
    return ok, detail, "\n".join(r.to_json() for r in reports)


def _criterion_4():
    """Sharpness at s just above the concavity threshold: a certified,
    replayable concavity violation for the trace power functional."""
    rng = rng_for(45, 0)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
    fam = FamilySpec(family="epstein", phi=conjugation(X), norm=TRACE,
                     params=ParameterPoint(1.0, 0.0, 1.2))
    result = hunt_counterexample(fam, "concave", budget=10_000,
                                 sampler=SamplerConfig(dim=2, seed=45))
    cert = result.certificate
    if cert is None:
        return False, f"no certificate within 10^4 trials ({result.trials_used} used)", ""
    scale = max(1.0, abs(cert.lhs), abs(cert.rhs))
    lhs, rhs = replay_certificate(cert)
    replay_err = max(abs(lhs - cert.lhs), abs(rhs - cert.rhs)) / scale
    ok = cert.violation > 1e-4 * scale and replay_err <= 1e-10
    detail = (f"certificate after {result.trials_used} trials, relative "
              f"violation {cert.violation / scale:.2e}, replay error {replay_err:.1e}")
    return ok, detail, json.dumps(cert.to_dict(), sort_keys=True)


def _criterion_5():
    """Tr(A^3+B^3)^{1/3} is neither jointly convex nor jointly concave:
    certificates in both directions."""
    fam = FamilySpec(family="mean", phi=identity_map(2), psi=identity_map(2),
                     norm=TRACE, mean=MeanSpec(kind="sum"),
                     params=ParameterPoint(3.0, 3.0, 1 / 3))
    parts = []
    trials = {}
    for direction, seed in (("concave", 46), ("convex", 47)):
        result = hunt_counterexample(fam, direction, budget=100_000,
                                     sampler=SamplerConfig(dim=2, seed=seed))
        if result.certificate is None:
            return (False, f"no {direction} certificate within 10^5 trials", "")
        trials[direction] = result.trials_used
        parts.append(json.dumps(result.certificate.to_dict(), sort_keys=True))
    detail = (f"concavity certificate in {trials['concave']} trials, convexity "
              f"certificate in {trials['convex']} trials")
    return True, detail, "\n".join(parts)


def _criterion_6():
    """Operator-order dominance of power means: holds on the exponent region,
    certified witnesses just outside it."""
    reports = []
    checks = []
    for p, q, seed in ((0.5, 1.0, 61), (1.0, 2.0, 62)):
        r = loewner_midpoint_test("power-mean-dominance", {"p": p, "q": q},
                                  trials=10_000,
                                  sampler=SamplerConfig(dim=2, seed=seed))
        reports.append(r)
        checks.append(r.verdict == "PASS")
    for p, q, seed in ((0.3, 1.0, 6), (0.8, 0.9, 7)):
        r = loewner_midpoint_test("power-mean-dominance", {"p": p, "q": q},
                                  trials=3000,
                                  sampler=SamplerConfig(dim=2, seed=seed),
                                  refine=True, stop_on_violation=True)
        reports.append(r)
        checks.append(r.verdict == "VIOLATED" and r.witness is not None
                      and r.witness["witness_eigenvalue"] < 0)
    ok = all(checks)
    excesses = [r.witness["relative_excess"] for r in reports[2:] if r.witness]
    detail = ("(1/2,1) and (1,2) PASS over 10^4 pairs; witnesses at (0.3,1) "
              f"and (0.8,0.9) with relative excess "
              f"{', '.join(f'{e:.1e}' for e in excesses)}")
    return ok, detail, "\n".join(r.to_json() for r in reports)


def _criterion_7():
    """Variational characterization: descent from the uninformative start
    recovers the closed-form value for random Kraus maps."""
    worst_gap = 0.0
    rows = []
    for k in range(100):
        dim = 2 + k % 3
        phi = sample_kraus(dim, dim, 2, 71, k)
        A = sample_posdef(SamplerConfig(dim=dim, seed=71, stream_index=1000 + k))
        for r in (1.1, 1.5, 2.0):
            res = variational_min(phi, 0.7, r, A)
            worst_gap = max(worst_gap, res.gap)
            rows.append([res.value, res.target, res.gap])
            if not res.converged or res.gap > 1e-6:
                detail = f"map {k}, r={r}: relative gap {res.gap:.2e}"
                return False, detail, json.dumps(rows)
    detail = f"100 maps x r in {{1.1, 1.5, 2}}, worst relative gap {worst_gap:.1e}"
    return True, detail, json.dumps(rows)


def _criterion_8():
    """Block-diagonal embedding identity: the compressed one-variable
    functional reproduces Tr(A^p+B^p)^{1/p} exactly."""
    X = np.vstack([np.eye(2), np.eye(2)]).astype(complex)
    worst = 0.0
    rows = []
    for i in range(100):
        A = sample_posdef(SamplerConfig(dim=2, seed=81, stream_index=2 * i))
        B = sample_posdef(SamplerConfig(dim=2, seed=81, stream_index=2 * i + 1))
        block = PosDef.from_matrix(
            np.block([[A.mat, np.zeros((2, 2))], [np.zeros((2, 2)), B.mat]]))
        for p in (0.3, 0.7, 1.0):
            fam = FamilySpec(family="epstein", phi=conjugation(X), norm=TRACE,
                             params=ParameterPoint(p, 0.0, 1.0 / p))
            via_block = eval_family(fam, block)
            direct = float(np.sum(np.linalg.eigvalsh(
                PosDef.from_matrix(A.power(p).mat + B.power(p).mat).power(1 / p).mat)))
            rel = abs(via_block - direct) / max(1.0, abs(direct))
            worst = max(worst, rel)
            rows.append([via_block, direct])
    ok = worst <= 1e-10
    detail = f"100 pairs x p in {{0.3, 0.7, 1}}, worst relative mismatch {worst:.1e}"
    return ok, detail, json.dumps(rows)


def _criterion_9():
    """Anti-norm axioms over the catalog on bulk random PSD input, plus the
    dominance principle on constructed pointwise-dominating pairs."""
    rng = rng_for(91, 0)
    N = 10_000
    G1 = rng.normal(size=(N, 3, 3)) + 1j * rng.normal(size=(N, 3, 3))
    G2 = rng.normal(size=(N, 3, 3)) + 1j * rng.normal(size=(N, 3, 3))
    As = G1 @ G1.conj().transpose(0, 2, 1)
    Bs = G2 @ G2.conj().transpose(0, 2, 1)
    Gu = rng.normal(size=(N, 3, 3)) + 1j * rng.normal(size=(N, 3, 3))
    Q = np.linalg.qr(Gu)[0]
    eA = np.linalg.eigvalsh(As)
    eB = np.linalg.eigvalsh(Bs)
    eAB = np.linalg.eigvalsh(As + Bs)
    eU = np.linalg.eigvalsh(Q @ As @ Q.conj().transpose(0, 2, 1))
    c = 2.5
    worst = {"superadditivity": -np.inf, "homogeneity": -np.inf,
             "unitary": -np.inf}
    summary = {}
    spectra = (eA, eB, eAB, c * eA, eU)
    rows_alone = True  # a stack's first and last rows, evaluated alone, give their bytes
    for spec in catalog_antinorms(3):
        a, b, ab, ac, au = values = [eval_norm_from_eigs(spec, e) for e in spectra]
        rows_alone &= all(np.float64(eval_norm_from_eigs(spec, e[i])).tobytes() == v[i].tobytes()
                          for e, v in zip(spectra, values) for i in (0, N - 1))
        scale = np.maximum(1.0, np.maximum(a + b, ab))
        worst["superadditivity"] = max(worst["superadditivity"],
                                       float(np.max((a + b - ab) / scale)))
        worst["homogeneity"] = max(worst["homogeneity"],
                                   float(np.max(np.abs(ac - c * a) / scale)))
        worst["unitary"] = max(worst["unitary"],
                               float(np.max(np.abs(au - a) / scale)))
        summary[spec.label()] = [float(a.sum()), float(b.sum()), float(ab.sum())]

    # dominance principle: pointwise eigenvalue dominance transfers to every
    # anti-norm in the catalog
    worst_dom = -np.inf
    for _ in range(1000):
        big = np.sort(rng.uniform(0.1, 3.0, 3))
        small = np.sort(big * rng.uniform(0.2, 1.0, 3))
        for spec in catalog_antinorms(3):
            vb = eval_norm_from_eigs(spec, big)
            vs = eval_norm_from_eigs(spec, small)
            worst_dom = max(worst_dom, (vs - vb) / max(1.0, vb))
    ok = (max(worst.values()) <= 1e-10 and worst_dom <= 1e-12 and rows_alone)
    detail = (f"10^4 pairs, worst axiom violations: "
              + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
              + f"; dominance over 10^3 pairs {worst_dom:.1e}")
    return ok, detail, json.dumps({"axioms": worst, "sums": summary,
                                   "dominance": worst_dom}, sort_keys=True)


def _criterion_10():
    """Smallest-eigenvalue and operator-norm functionals: concavity/convexity
    on their regions, certified concavity failure off-region."""
    lmin = NormSpec(kind="lambda-min")
    fam1 = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                      norm=lmin, params=ParameterPoint(0.8, 0.8, 1 / 1.6))
    r1 = midpoint_test(fam1, "concave", trials=1000,
                       sampler=SamplerConfig(dim=2, seed=51))
    fam2 = FamilySpec(family="lieb", phi=identity_map(2), psi=identity_map(2),
                      norm=NormSpec(kind="operator"),
                      params=ParameterPoint(-0.5, 1.5, 1.0))
    r2 = midpoint_test(fam2, "convex", trials=1000,
                       sampler=SamplerConfig(dim=2, seed=52))
    fam3 = fam1.with_params(ParameterPoint(1.0, 1.0, 0.75))
    hunt = hunt_counterexample(fam3, "concave", budget=20_000,
                               sampler=SamplerConfig(dim=2, seed=53))
    ok = (r1.verdict == "PASS" and r2.verdict == "PASS"
          and hunt.certificate is not None)
    cert_part = ("" if hunt.certificate is None
                 else json.dumps(hunt.certificate.to_dict(), sort_keys=True))
    detail = (f"on-region verdicts {r1.verdict}/{r2.verdict}; off-region "
              f"(1,1,0.75) certificate "
              f"{'found in %d trials' % hunt.trials_used if hunt.certificate else 'MISSING'}")
    return ok, detail, "\n".join([r1.to_json(), r2.to_json(), cert_part])


_RUNNERS = {1: _criterion_1, 2: _criterion_2, 3: _criterion_3,
            4: _criterion_4, 5: _criterion_5, 6: _criterion_6,
            7: _criterion_7, 8: _criterion_8, 9: _criterion_9,
            10: _criterion_10}
_RESULTS: dict[int, tuple[bool, str, str]] = {}


def _check(n: int):
    if n not in _RESULTS:
        _RESULTS[n] = _RUNNERS[n]()
    ok, detail, _ = _RESULTS[n]
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_trace_concavity_on_region():
    _check(1)


def test_criterion_02_antinorm_mean_concavity():
    _check(2)


def test_criterion_03_kyfan_power_convexity():
    _check(3)


def test_criterion_04_sharpness_certificate():
    _check(4)


def test_criterion_05_cube_sum_neither_convex_nor_concave():
    _check(5)


def test_criterion_06_power_mean_dominance_region():
    _check(6)


def test_criterion_07_variational_identity():
    _check(7)


def test_criterion_08_block_embedding_identity():
    _check(8)


def test_criterion_09_antinorm_axioms_bulk():
    _check(9)


def test_criterion_10_extremal_eigenvalue_families():
    _check(10)


def test_criterion_11_determinism():
    mismatches = []
    for n in range(1, 11):
        if n not in _RESULTS:
            _RESULTS[n] = _RUNNERS[n]()
        first = _RESULTS[n][2]
        again = _RUNNERS[n]()[2]
        if first.encode() != again.encode():
            mismatches.append(n)
    print(f"[criterion 11] {'FAIL' if mismatches else 'PASS'}: criteria 1-10 "
          f"rerun with identical seeds; mismatches: {mismatches or 'none'}")
    assert not mismatches, f"non-deterministic reports for criteria {mismatches}"


if __name__ == "__main__":
    # byte-identity check for refactors: compare these lines between two commits
    import hashlib

    for n, runner in _RUNNERS.items():
        report = runner()[2]
        print(f"criterion {n:02d} {hashlib.sha256(report.encode()).hexdigest()}",
              flush=True)
