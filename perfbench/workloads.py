"""The benchmark's workloads: fixed lists of calls into tracelab.lab.

A workload is a list of ops.  One pass runs every op once; pass k gives each
seed-driven op its own sampler streams, so passes do independent work of the
same size.  Every op checks its own result and returns an :class:`Outcome`.

The off-region hunts and the Nelder-Mead refinements run on fixed seeds: they
are the acceptance suite's own calls (criteria 4, 5 and 10) or a fixed start
for the simplex.  Their cost depends on where the search lands, and with a
seed taken from the command line it ranges over two orders of magnitude
(0.2 s to 45 s for the criterion-5 convex hunt), which no run length can
average out.  Everything else draws from the workload seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from tracelab import lab
from tracelab.families import FamilySpec, ParameterPoint
from tracelab.linalg import SamplerConfig, rng_for
from tracelab.means import MeanSpec
from tracelab.norms import NormSpec
from tracelab.posmaps import conjugation, identity_map, sample_kraus

#: stream offset between ops: op i of a workload owns streams
#: [i * OP_STRIDE, (i + 1) * OP_STRIDE), so no two ops share a sampler stream
OP_STRIDE = 10_000_000

TRACE = NormSpec("trace")


@dataclass
class Outcome:
    ok: bool
    text: str
    trials: int = 0
    failures: int = 0
    hunt_trials: int = 0
    off_region_hunt: bool = False
    certified: bool = False


@dataclass
class Sampling:
    """Sampler for pass k: seed, and stream_index = base + k * stride."""

    dim: int
    seed: int
    base: int = 0
    stride: int = 0

    def at(self, pass_no: int) -> SamplerConfig:
        return SamplerConfig(dim=self.dim, seed=self.seed,
                             stream_index=self.base + pass_no * self.stride)


@dataclass
class MidpointBlock:
    """One lab.midpoint_test block on an on-region point: must PASS."""

    family: FamilySpec
    direction: str
    trials: int
    sampling: Sampling

    def __call__(self, pass_no: int) -> Outcome:
        r = lab.midpoint_test(self.family, self.direction, self.trials,
                              self.sampling.at(pass_no))
        return Outcome(ok=r.verdict == "PASS" and r.failures == 0, text=r.to_json(),
                       trials=r.trials, failures=r.failures)


@dataclass
class Hunt:
    """One lab.hunt_counterexample call.

    Off-region hunts must return a certificate that passes
    certificate_is_valid; on-region hunts must return none.
    """

    family: FamilySpec
    direction: str
    budget: int
    sampling: Sampling
    off_region: bool

    def __call__(self, pass_no: int) -> Outcome:
        h = lab.hunt_counterexample(self.family, self.direction, self.budget,
                                    self.sampling.at(pass_no))
        cert = h.certificate
        if self.off_region:
            ok = cert is not None and lab.certificate_is_valid(cert)
        else:
            ok = cert is None
        text = json.dumps({"certificate": cert.to_dict() if cert else None,
                           "trials_used": h.trials_used,
                           "best_violation": h.best_violation}, sort_keys=True)
        return Outcome(ok=ok, text=text, hunt_trials=h.trials_used,
                       off_region_hunt=self.off_region, certified=cert is not None)


@dataclass
class LoewnerBlock:
    """One lab.loewner_midpoint_test call.

    Without refinement the point is on-region and the block must PASS; with
    refinement it is off-region and must be VIOLATED with a negative witness
    eigenvalue.
    """

    expr: str
    params: dict
    trials: int
    sampling: Sampling
    refine: bool = False

    def __call__(self, pass_no: int) -> Outcome:
        r = lab.loewner_midpoint_test(self.expr, self.params, self.trials,
                                      self.sampling.at(pass_no), refine=self.refine,
                                      stop_on_violation=self.refine)
        if self.refine:
            ok = (r.verdict == "VIOLATED" and r.witness is not None
                  and r.witness["witness_eigenvalue"] < 0)
        else:
            ok = r.verdict == "PASS" and r.failures == 0
        return Outcome(ok=ok, text=r.to_json(), trials=r.trials, failures=r.failures)


def verify(seed: int, block: int = 60) -> list:
    """Midpoint blocks: criterion-1 lieb trace under rank-2 Kraus maps at n=3
    (two region points), criterion-2 geometric-mean anti-norm family at n=3,
    and the lieb Kraus case at n=8."""
    phi3, psi3 = sample_kraus(3, 3, 2, seed, 0), sample_kraus(3, 3, 2, seed, 1)
    phi8, psi8 = sample_kraus(8, 8, 2, seed, 2), sample_kraus(8, 8, 2, seed, 3)
    lieb3 = FamilySpec("lieb", phi3, TRACE, ParameterPoint(0.7, 0.7, 1 / 1.4), psi=psi3)
    mean3 = FamilySpec("mean", identity_map(3), NormSpec("kyfan-anti", k=1),
                       ParameterPoint(0.6, 0.9, 1 / 0.9), psi=identity_map(3),
                       mean=MeanSpec("geometric", t=0.5))
    lieb8 = FamilySpec("lieb", phi8, TRACE, ParameterPoint(0.7, 0.7, 1 / 1.4), psi=psi8)
    cases = [
        (lieb3, 3),
        (lieb3.with_params(ParameterPoint(0.3, 0.9, 0.8)), 3),
        (mean3, 3),
        (lieb8, 8),
    ]
    return [MidpointBlock(f, "concave", block, Sampling(dim, seed, i * OP_STRIDE, block))
            for i, (f, dim) in enumerate(cases)]


def hunt(seed: int, budget: int = 100) -> list:
    """On-region lieb Kraus hunts at n=3 that exhaust their budget, the
    off-region hunts of criteria 4, 5 (both directions) and 10 on the
    acceptance suite's seeds, and an off-region lieb identity hunt at n=3."""
    phi3, psi3 = sample_kraus(3, 3, 2, seed, 0), sample_kraus(3, 3, 2, seed, 1)
    lieb3 = FamilySpec("lieb", phi3, TRACE, ParameterPoint(0.7, 0.7, 1 / 1.4), psi=psi3)
    rng = rng_for(45, 0)
    X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
    epstein = FamilySpec("epstein", conjugation(X), TRACE, ParameterPoint(1.0, 0.0, 1.2))
    cube_sum = FamilySpec("mean", identity_map(2), TRACE, ParameterPoint(3.0, 3.0, 1 / 3),
                          psi=identity_map(2), mean=MeanSpec("sum"))
    lambda_min = FamilySpec("lieb", identity_map(2), NormSpec("lambda-min"),
                            ParameterPoint(1.0, 1.0, 0.75), psi=identity_map(2))
    lieb_id3 = FamilySpec("lieb", identity_map(3), TRACE, ParameterPoint(0.5, 0.5, 1.5),
                          psi=identity_map(3))
    on_region = [lieb3, lieb3.with_params(ParameterPoint(0.3, 0.9, 0.8))]
    ops = [Hunt(f, "concave", budget, Sampling(3, seed, i * OP_STRIDE, budget), False)
           for i, f in enumerate(on_region)]
    ops += [
        Hunt(epstein, "concave", 10_000, Sampling(2, 45), True),
        Hunt(cube_sum, "concave", 100_000, Sampling(2, 46), True),
        Hunt(cube_sum, "convex", 100_000, Sampling(2, 47), True),
        Hunt(lambda_min, "concave", 20_000, Sampling(2, 53), True),
        Hunt(lieb_id3, "concave", 20_000,
             Sampling(3, seed, len(on_region) * OP_STRIDE, 20_000), True),
    ]
    return ops


def dominance(seed: int, block: int = 500) -> list:
    """Loewner blocks: power-mean dominance at (1/2, 1), n=2 and (1, 2), n=3,
    geometric-mean concavity at n=3, and two refined calls at the off-region
    point (0.6, 0.9), n=2, whose tiny random phase hands over to Nelder-Mead."""
    geometric = MeanSpec("geometric", t=0.5)
    cases = [
        ("power-mean-dominance", {"p": 0.5, "q": 1.0}, 2, block),
        ("power-mean-dominance", {"p": 1.0, "q": 2.0}, 3, block),
        ("mean-concavity", {"mean": geometric}, 3, block // 2),
    ]
    ops = [LoewnerBlock(expr, params, trials, Sampling(dim, seed, i * OP_STRIDE, trials))
           for i, (expr, params, dim, trials) in enumerate(cases)]
    ops += [LoewnerBlock("power-mean-dominance", {"p": 0.6, "q": 0.9}, 3,
                         Sampling(2, fixed), refine=True)
            for fixed in (1, 4)]
    return ops


WORKLOADS = {"verify": verify, "hunt": hunt, "dominance": dominance}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
