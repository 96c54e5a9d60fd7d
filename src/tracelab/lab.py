"""Randomized joint-concavity/convexity testing and counterexample hunting.

Tolerance policy: numerical slack is 1e-8 x max(1, |lhs|, |rhs|); a violation
is claimed only above 1e-4 x the same scale.  Values in between are
inconclusive for that trial, keeping three decades between noise and claims.

Streams (rng_for(seed, stream)): trial t of midpoint_test (both directions of a
sweep cell judge the same draw), loewner_midpoint_test and the hunt's random phase:
stream_index + t; hunt structured candidates: stream_index; curvature base point k:
0xC0DE + k; hill climb from s: s ^ 0x5EED; Nelder-Mead restart k: (stream_index + k) ^ 0x0D0A.

midpoint_test and loewner_midpoint_test draw each trial on its stream as above and
build LOEWNER_BLOCK trials' inputs as one stack, then judge them in stream order;
midpoint_test mixes MIX_CHUNK trials' inputs at all their weights in one checked
stack and evaluates each pair alone, loewner_midpoint_test evaluates one stack.
Its Nelder-Mead restarts are _simplex generators: each does scipy 1.17's arithmetic,
so it ends where scipy's minimize does, but yields a step's four candidate points
as one stack, speculatively, and receives their values.  _lockstep runs a block of
them with one objective call per round (_nelder_mead runs one); the restarts go in
blocks of 1, 2, 4, ..., judged in restart order up to the first witness.  Their
objective and the power-mean dominance blocks pass the pair (A, B) as one PosDef
stack to power_mean_pair, then _loewner_excess; a PosDef builds its matrix only
when a later step reads it.

The hunt evaluates ahead in stacks and judges in order, so it draws, charges
and certifies as one evaluation at a time does, on the stream layout above.
Each candidate's endpoint pairs and mixed pairs at all its weights go in one
eval_family call, a curvature base point's segment endpoints in one call, and the
random phase's draws, built as midpoint_test's are, in blocks of 1, 2, 4, ... up to
HUNT_BLOCK draws.  The hill climb draws a block of steps as if each were rejected,
evaluates them in one call and keeps the first accepted one, restoring the rng and
step recorded after it; its blocks grow from 2 to HUNT_BLOCK steps and fall back
to 2 on an acceptance.

The stacks of trials, hunt values, climb steps and objective points keep one
rule (_stacked): a stack that raises is evaluated again item by item, and an item
that raises alone fails (a failed trial, a missing hunt value, a rejected climb
step, an objective value of 1).  So each item's result is the one it has alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .families import EvaluationError, FamilySpec, ParameterPoint, eval_family, real_field
from .linalg import (
    MatrixError,
    PosDef,
    SamplerConfig,
    build_posdef,
    draw_posdef,
    eigh,
    hermitize,
    loewner_leq,
    matrix_exp_herm,
    mat_from_json,
    mat_to_json,
    rng_for,
    sample_hermitian_rng,
    vec_to_herm,
)
from .means import MeanSpec, eval_mean, power_mean_pair
from .posmaps import MapSpec, hat_map

SLACK_REL = 1e-8
CLAIM_REL = 1e-4
#: mixing weights of every midpoint trial, besides one drawn per trial; 1/2 always
#: included (midpoint arguments)
DEFAULT_LAMBDAS = (0.5, 0.25, 0.9)
#: input regularization used for certificate stability re-checks
CERT_EPS = 1e-8
#: trials per stacked build in midpoint_test and loewner_midpoint_test
LOEWNER_BLOCK = 100
#: midpoint trials whose mixes are built in one stack; 20 or 100 run no faster
#: and hold more memory
MIX_CHUNK = 10
#: curvature rows per eval_family call: the 2 * 32**2 + 1 rows of n = 4 with B
CURVATURE_BLOCK = 2049
#: most hill-climb steps, and hunt random-phase draws, per eval_family call
HUNT_BLOCK = 32


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
            "regularization_eps": 0.0,  # certified inputs are never regularized
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
            lam=real_field(d, "lambda"),
            lhs=real_field(d, "lhs"),
            rhs=real_field(d, "rhs"),
            violation=real_field(d, "violation"),
            direction=_checked_direction(d["direction"]),
            seed=real_field(d, "seed"),
            stream=real_field(d, "stream"),
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
    failures: int = 0
    worst_case: Certificate | None = None
    witness: dict | None = None

    def to_dict(self) -> dict:
        d = {
            "label": self.label,
            "direction": self.direction,
            "trials": self.trials,
            "worst_violation": json_number(self.worst_violation),
            "verdict": self.verdict,
            "tolerance_used": SLACK_REL,
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


def json_number(x: float) -> float | None:
    """x as JSON can write it: null when x is not finite (no trial evaluated)."""
    return x if np.isfinite(x) else None


def _mix(P1: PosDef, P2: PosDef, lam) -> PosDef:
    """lam P1 + (1 - lam) P2; for stacks, lam may hold one weight per row."""
    return PosDef.from_hermitian(lam * P1.mat + (1 - lam) * P2.mat)


def _joined(Ps) -> PosDef:
    """The matrices and stacks Ps joined, in order, into one stack; each matrix
    keeps the bytes it has alone."""
    n = Ps[0].dim
    return PosDef(np.concatenate([P.eigs.reshape(-1, n) for P in Ps]),
                  np.concatenate([P.vecs.reshape(-1, n, n) for P in Ps]),
                  np.concatenate([P.mat.reshape(-1, n, n) for P in Ps]))


def _stacked(evaluate, items, failed=None) -> list:
    """evaluate(items), which gives one result per item, computed as one stack;
    when that raises EvaluationError or MatrixError, each item evaluated alone,
    and failed for an item that raises alone.  So each item gets the result it
    has alone, whatever else the stack holds."""
    if len(items) == 0:
        return []
    try:
        return list(evaluate(items))
    except (EvaluationError, MatrixError):
        if len(items) == 1:
            return [failed]
    return [r for i in range(len(items)) for r in _stacked(evaluate, items[i:i + 1], failed)]


def _pair_values(family: FamilySpec, pairs, mixes) -> list:
    """eval_family at each pair (A, B) of pairs, then at the pair lam (A1, B1) +
    (1 - lam) (A2, B2) of each mix (A1, B1, A2, B2, lam) (B is None for a
    one-variable family), in one stacked call, or by _stacked's rule: None for a
    pair or mix that raises alone.  Each value is the one its pair has alone."""
    def values(items):  # a slice of [*pairs, *mixes]
        paired = [item for item in items if len(item) == 2]
        mixed = items[len(paired):]
        lam = np.array([m[4] for m in mixed])[:, None, None]
        stacks = []
        for j in (0, 1) if family.two_variable else (0,):
            Ps = [P[j] for P in paired]
            if mixed:
                n = mixed[0][j].dim
                M1, M2 = (np.concatenate([m[k].mat.reshape(-1, n, n) for m in mixed])
                          for k in (j, 2 + j))
                Ps.append(PosDef.from_hermitian(lam * M1 + (1 - lam) * M2))
            stacks.append(_joined(Ps))
        return eval_family(family, *stacks).tolist()

    return _stacked(values, [*pairs, *mixes])


def _checked_direction(direction: str) -> str:
    if direction not in ("concave", "convex"):
        raise ValueError(f"direction must be concave or convex, got {direction!r}")
    return direction


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
    return _violation(direction, lam, eval_family(family, _mix(A1, A2, lam), Bmix), f1, f2)


def _violation(direction: str, lam: float, lhs: float, f1: float, f2: float):
    """midpoint_violation's (raw signed violation, lhs, rhs, scale) from its values."""
    rhs = lam * f1 + (1 - lam) * f2
    scale = max(1.0, abs(lhs), abs(rhs))
    return _signed_violation(direction, lhs, rhs), lhs, rhs, scale


def _draw_inputs(family: FamilySpec, rng) -> list:
    """The draw_posdef draws of one trial's inputs from rng: A1, A2, then B1, B2 of
    a two-variable family."""
    dims = (family.phi.in_dim, family.psi.in_dim) if family.two_variable else (family.phi.in_dim,)
    return [draw_posdef(rng, n) for n in dims for _ in range(2)]


def _build_inputs(draws: list) -> list:
    """The inputs (A1, B1, A2, B2) of each trial's _draw_inputs draws, one build_posdef
    call per input dimension, matrices built (_mix reads them); bytes as if alone."""
    P = [None] * 4  # the stacks of A1, B1, A2, B2 over the trials; drawn A1, A2, B1, B2
    for n in dict.fromkeys(logs.size for logs, _ in draws[0]):
        js = [j for j, (logs, _) in enumerate(draws[0]) if logs.size == n]
        built = build_posdef(*(np.array([[d[j][i] for d in draws] for j in js])
                               for i in (0, 1)))
        built.mat
        for k, j in enumerate(js):
            P[(0, 2, 1, 3)[j]] = built[k]
    return [tuple(None if S is None else S[t] for S in P) for t in range(len(draws))]


def _sample_inputs(family: FamilySpec, rng):
    return _build_inputs([_draw_inputs(family, rng)])[0]


def _built(block: list) -> list:
    """block's (stream, (input draws, x) or None) items as (stream, (inputs, x)), built
    by _build_inputs, or (stream, None) for no draw or a draw whose build fails alone
    (_stacked)."""
    built = iter(_stacked(lambda drawn: zip(_build_inputs([d for d, _ in drawn]),
                                            [x for _, x in drawn]),
                          [d for _, d in block if d is not None]))
    return [(stream, None if d is None else next(built)) for stream, d in block]


def _trial_mixes(trials: list) -> list:
    """The mixed pairs of each midpoint trial ((A1, B1, A2, B2), x): (lam A1 + (1 - lam)
    A2, the same of B or None) at each weight lam of (*DEFAULT_LAMBDAS, x), built by
    one checked PosDef.from_matrix call per input over all the trials."""
    lam = np.array([(*DEFAULT_LAMBDAS, x) for _, x in trials])[..., None, None]

    def mixed(j):  # input j's mixes, a stack (trials, weights, n, n)
        if trials[0][0][j] is None:
            return None
        M1, M2 = (np.stack([inputs[k].mat for inputs, _ in trials])[:, None] for k in (j, 2 + j))
        return PosDef.from_matrix(lam * M1 + (1 - lam) * M2)

    A, B = mixed(0), mixed(1)
    return [[(A[t, k], None if B is None else B[t, k]) for k in range(lam.shape[1])]
            for t in range(len(trials))]


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


def _trials(sampler: SamplerConfig, trials: int, draw):
    """Lazily yields (stream, draw(rng)) for trial t, drawn on stream stream_index + t,
    with None in place of a draw that raised EvaluationError or MatrixError."""
    for t in range(trials):
        stream = sampler.stream_index + t
        try:
            yield stream, draw(rng_for(sampler.seed, stream))
        except (EvaluationError, MatrixError):
            yield stream, None


def _midpoint_reports(family: FamilySpec, directions, trials: int, sampler: SamplerConfig,
                      label: str | None = None) -> dict[str, TestReport]:
    """Randomized joint midpoint tests of each direction on one pass of trials.  A trial
    evaluates every weight before any is judged, so it counts as whole or failed; a
    trial with a non-finite lhs or rhs fails.  Inputs are built LOEWNER_BLOCK at a time,
    their mixes MIX_CHUNK trials at a time (_trial_mixes, by _stacked's rule), and each
    pair is evaluated alone."""
    def evaluated(inputs, extra, mixes):  # (inputs, (lam, lhs, rhs, scale) at each weight)
        if mixes is None:  # its mixes failed
            return None
        A1, B1, A2, B2 = inputs
        try:
            f = eval_family(family, A1, B1), eval_family(family, A2, B2)
            sides = [(lam, *_violation("concave", lam, eval_family(family, *mix), *f)[1:])
                     for lam, mix in zip((*DEFAULT_LAMBDAS, extra), mixes)]
        except (EvaluationError, MatrixError):
            return None
        return (inputs, sides) if np.isfinite([side[1:3] for side in sides]).all() else None

    worst = dict.fromkeys(directions, -np.inf)
    best = dict.fromkeys(directions, (0.0, None))  # (relative violation, certificate)
    failures = 0
    draws = _trials(sampler, trials, lambda rng: (_draw_inputs(family, rng), float(rng.uniform())))
    while block := list(islice(draws, LOEWNER_BLOCK)):
        block = _built(block)
        built = [trial for _, trial in block if trial is not None]
        mixes = (m for c in range(0, len(built), MIX_CHUNK)
                 for m in _stacked(_trial_mixes, built[c:c + MIX_CHUNK]))
        for stream, trial in block:
            if trial is None or (trial := evaluated(*trial, next(mixes))) is None:
                failures += 1
                continue
            inputs, sides = trial
            for direction in directions:
                for lam, lhs, rhs, scale in sides:
                    viol = _signed_violation(direction, lhs, rhs)
                    rel = viol / scale
                    worst[direction] = max(worst[direction], rel)
                    if viol > CLAIM_REL * scale and rel > best[direction][0]:
                        best[direction] = rel, _make_certificate(
                            family, direction, *inputs, lam, lhs, rhs, viol, sampler.seed,
                            stream)
    return {d: TestReport(label=label or family.label(), direction=d, trials=trials,
                          worst_violation=float(worst[d]), failures=failures,
                          verdict=_verdict(failures, trials, best[d][1] is not None, worst[d]),
                          worst_case=best[d][1])
            for d in directions}


def midpoint_test(
    family: FamilySpec,
    direction: str,
    trials: int,
    sampler: SamplerConfig,
    label: str | None = None,
) -> TestReport:
    """Randomized joint midpoint concavity/convexity test."""
    _checked_direction(direction)
    return _midpoint_reports(family, (direction,), trials, sampler, label)[direction]


def _structured_candidates(family: FamilySpec):
    """Near-singular diagonal pairs that seed known counterexample shapes."""
    n = family.phi.in_dim
    if n % 2 != 0:
        return
    half = n // 2
    for eps in (1e-1, 1e-2, 1e-3):
        d1 = PosDef.from_hermitian(np.diag([1.0] * half + [eps] * half).astype(complex))
        d2 = PosDef.from_hermitian(np.diag([eps] * half + [1.0] * half).astype(complex))
        if family.two_variable:
            if family.psi.in_dim != n:
                continue
            yield d1, d1, d2, d2
            yield d1, d2, d2, d1
        else:
            yield d1, None, d2, None


def _propose(state, lam: float, step: float, rng):
    """Draws one hill-climb step from rng: (moved state, index of the moved pair,
    new weight, step), or (None, None, None, step after the step) for a step
    that moves nothing: its input is missing (B of a one-variable family), or
    its perturbation is not positive definite."""
    idx = int(rng.integers(0, 4))
    if state[idx] is None:
        return None, None, None, step
    P = state[idx]
    G = sample_hermitian_rng(rng, P.dim, scale=step * float(P.eigs[-1]))
    try:
        P2 = PosDef.from_hermitian(P.mat + G)
    except MatrixError:
        return None, None, None, step * 0.9
    trial = list(state)
    trial[idx] = P2
    return trial, idx // 2, min(max(lam + step * rng.normal(0, 0.1), 0.02), 0.98), step


def _hill_climb(family, direction, state, f, lam, best, rng, iters):
    """Local refinement: perturb inputs and weight to amplify the violation.
    f and best are the values at state = (A1, B1, A2, B2) and lam (f of each pair,
    then midpoint_violation); a step re-evaluates the pair whose input it moved.

    The steps run speculatively, in blocks that grow from 2 to HUNT_BLOCK steps
    and fall back to 2 on an accepted or failed step.  A block draws its steps as
    if each were rejected, evaluates their moved and mixed pairs in one stacked
    call (_pair_values) and judges them in order; at the first accepted step, or
    the first whose moved or mixed pair fails alone (rejected, its step times
    0.9), it drops the rest and restores the rng and step recorded after that
    one, so the climb draws and ends as one step at a time does.
    """
    climb, done, size = (state, f, lam, best, 0.3), 0, 2
    while done < iters:
        state, f, lam, best, step = climb
        end, block = done, []
        while end < iters and len(block) < size:
            trial, pair, lam2, step = _propose(state, lam, step, rng)
            end += 1
            if trial is not None:  # what an acceptance would leave: state, steps, step
                block.append((trial, pair, lam2, rng.bit_generator.state, end, step))
                step *= 0.97
        values = _pair_values(family, [t[2 * p:2 * p + 2] for t, p, *_ in block],
                              [(*t, lam2) for t, _, lam2, *_ in block])
        climb, done, size = (state, f, lam, best, step), end, min(2 * size, HUNT_BLOCK)
        for (trial, pair, lam2, after, steps, kept), moved, lhs in zip(
                block, values[:len(block)], values[len(block):]):
            if moved is None or lhs is None:
                climb = state, f, lam, best, kept * 0.9
            else:
                trial_f = list(f)
                trial_f[pair] = moved
                cand = _violation(direction, lam2, lhs, *trial_f)
                if not cand[0] / cand[3] > best[0] / best[3]:
                    continue
                climb = trial, trial_f, lam2, cand, kept
            rng.bit_generator.state = after
            done, size = steps, 2
            break
    state, _, lam, best, _ = climb
    return state, lam, best


def _curvature_steps(k: int, h: float) -> np.ndarray:
    """Central-difference perturbations of k parameters, one per row: 0, then
    +-h e_i, then +-h(e_i + e_j), +-h(e_i - e_j) for i < j."""
    E = h * np.eye(k)
    i, j = np.triu_indices(k, 1)
    plus, minus = E[i] + E[j], E[i] - E[j]
    return np.concatenate([np.zeros((1, k)), np.stack([E, -E], axis=1).reshape(-1, k),
                           np.stack([plus, -plus, minus, -minus], axis=1).reshape(-1, k)])


def _curvature_direction(family, direction, rng):
    """Search one random base point for a curvature sign that breaks the claim.

    Builds the finite-difference Hessian of the functional over Hermitian
    perturbations of the inputs.  An eigendirection with the wrong curvature
    sign (negative when convexity is claimed, positive when concavity is)
    yields a segment whose midpoint test violates the claim at second order.
    Returns (base inputs, perturbation matrices, evaluation count) or None.
    """
    A0, B0, _, _ = _sample_inputs(family, rng)
    n1 = A0.dim
    k1 = n1 * n1
    nparams = k1 + (B0.dim * B0.dim if B0 is not None else 0)
    h = 1e-4 * (1.0 + float(A0.eigs[-1]))

    def value(rows):
        A = PosDef.from_hermitian(A0.mat + vec_to_herm(rows[:, :k1], n1))
        B = None
        if B0 is not None:
            B = PosDef.from_hermitian(B0.mat + vec_to_herm(rows[:, k1:], B0.dim))
        return eval_family(family, A, B)

    upper = np.triu_indices(nparams, 1)
    steps = _curvature_steps(nparams, h)
    try:
        f = np.concatenate([value(steps[i:i + CURVATURE_BLOCK])
                            for i in range(0, len(steps), CURVATURE_BLOCK)])
    except (EvaluationError, MatrixError):
        return None
    fp, fm = f[1:2 * nparams + 1:2], f[2:2 * nparams + 1:2]
    fpp, fmm, fpm, fmp = f[2 * nparams + 1:].reshape(-1, 4).T
    hess = np.diag((fp - 2.0 * f[0] + fm) / h**2)
    hess[upper] = hess[upper[::-1]] = (fpp - fpm - fmp + fmm) / (4.0 * h**2)
    if not np.all(np.isfinite(hess)):
        return None  # overflowed values: this base point fails, the hunt goes on

    eigs, vecs = eigh(0.5 * (hess + hess.T))
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
    G1 = vec_to_herm(u[:k1], n1)
    G2 = vec_to_herm(u[k1:], B0.dim) if B0 is not None else None
    return A0, B0, G1, G2, len(steps) - 1


def _segment_endpoints(A0, B0, G1, G2):
    """Endpoint pairs A0 +- t G along a perturbation, out to the cone boundary."""
    for t in (0.05, 0.2, 0.8, 2.0, 5.0):
        step = t * (1.0 + float(A0.eigs[-1]))
        try:
            A1 = PosDef.from_hermitian(A0.mat + step * G1)
            A2 = PosDef.from_hermitian(A0.mat - step * G1)
            if B0 is not None:
                B1 = PosDef.from_hermitian(B0.mat + step * G2)
                B2 = PosDef.from_hermitian(B0.mat - step * G2)
            else:
                B1 = B2 = None
        except MatrixError:
            return
        yield A1, B1, A2, B2


def _candidate_values(family: FamilySpec, cands) -> list:
    """(f, sides) of each candidate ((A1, B1, A2, B2), weights): f its endpoint
    values, sides (lam, f at the inputs mixed at lam) for each weight, all in
    one stacked eval_family call (_pair_values).  A candidate whose endpoint
    value fails has f None and no sides; a weight whose mix fails has no side."""
    values = _pair_values(family, [pair for (A1, B1, A2, B2), _ in cands
                                   for pair in ((A1, B1), (A2, B2))],
                          [(*inputs, lam) for inputs, lams in cands for lam in lams])
    f = zip(values[:2 * len(cands):2], values[1:2 * len(cands):2])
    lhs = iter(values[2 * len(cands):])
    sides = [[(lam, v) for lam, v in zip(lams, lhs) if v is not None] for _, lams in cands]
    return [(None, []) if None in fc else (fc, s) for fc, s in zip(f, sides)]


def _candidates(family: FamilySpec, direction: str, budget: int, sampler: SamplerConfig):
    """The hunt's candidates, phase by phase: structured, curvature, random.

    Yields (trials charged, stream, (A1, B1, A2, B2), f, sides), f and sides as
    _candidate_values gives them.  A curvature base point is charged on an item
    of its own, with no inputs and no sides: 1 if it fails, else a third of its
    evaluations; its segment endpoints follow, charged 0 and evaluated as one
    stack.  A random draw that fails is charged 1 the same way.  The random
    draws are evaluated in blocks of 1, 2, 4, ... up to HUNT_BLOCK draws, so
    that a certificate among the first draws leaves little evaluated past it.
    """
    def evaluated(items):  # (charge, stream, (inputs, weights) or None) of each item
        values = iter(_candidate_values(family, [c for _, _, c in items if c is not None]))
        for charge, stream, cand in items:
            yield charge, stream, *((cand[0], *next(values)) if cand else (None, None, []))

    for inputs in _structured_candidates(family):
        yield from evaluated([(1, sampler.stream_index, (inputs, (0.5, 0.25, 0.75)))])
    # curvature-directed phase: Hessian eigendirections at random base points
    for k in range(int(min(10, max(2, budget // 100)))):
        stream = 0xC0DE + k
        found = _curvature_direction(family, direction, rng_for(sampler.seed, stream))
        if found is None:
            yield 1, stream, None, None, []
        else:
            yield from evaluated([(max(1, found[-1] // 3), stream, None)]
                                 + [(0, stream, (inputs, (0.5,)))
                                    for inputs in _segment_endpoints(*found[:4])])
    draw = lambda rng: (_draw_inputs(family, rng), (0.5, float(rng.uniform(0.05, 0.95))))
    draws, size = _trials(sampler, budget, draw), 1
    while block := list(islice(draws, size)):
        yield from evaluated([(1, stream, drawn) for stream, drawn in _built(block)])
        size = min(2 * size, HUNT_BLOCK)


def hunt_counterexample(
    family: FamilySpec,
    direction: str,
    budget: int,
    sampler: SamplerConfig,
) -> HuntResult:
    """Structured, curvature-directed and random search for a certified violation.

    Raw violations above the claim threshold are hill-climbed and
    must survive a stability re-check under input regularization at eps and
    eps/10 before a certificate is emitted.  Once the candidates run out, the
    best near-miss gets one longer climb.
    """
    _checked_direction(direction)
    best_rel = -np.inf
    trials_used = 0
    near_miss = None  # best sub-threshold candidate for final refinement

    def climb_and_certify(inputs, f, lam, found, stream, iters):
        """Hill-climbs from a candidate on stream ^ 0x5EED and certifies where the
        climb ends.  Returns (certificate or None, relative violation there).

        The violation must clear the claim threshold and survive a re-check on
        the inputs regularized by eps * lambda_max, at eps = CERT_EPS and
        CERT_EPS / 10, which guards against conditioning artifacts; a numerical
        failure in the re-check counts as not stable, and so does a NaN.
        """
        rng = rng_for(sampler.seed, stream ^ 0x5EED)
        (A1, B1, A2, B2), lam, (viol, lhs, rhs, scale) = _hill_climb(
            family, direction, inputs, f, lam, found, rng, iters)
        rel = viol / scale
        if not viol > CLAIM_REL * scale:
            return None, rel
        for eps in (CERT_EPS, CERT_EPS / 10):
            reg = lambda P: (PosDef.from_hermitian(P.mat + eps * P.eigs[-1] * np.eye(P.dim))
                             if P is not None else None)
            try:
                again = midpoint_violation(family, direction, reg(A1), reg(A2), lam,
                                           reg(B1), reg(B2))
            except (EvaluationError, MatrixError):
                return None, rel
            if not again[0] / again[3] > 0.5 * CLAIM_REL:
                return None, rel
        return _make_certificate(family, direction, A1, B1, A2, B2, lam, lhs, rhs,
                                 viol, sampler.seed, stream), rel

    for charge, stream, inputs, f, sides in _candidates(family, direction, budget, sampler):
        trials_used += charge
        for lam, lhs in sides:  # none for a charge alone or failed endpoint values
            found = _violation(direction, lam, lhs, *f)
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


def certificate_is_valid(cert: Certificate) -> bool:
    rtol = 1e-10
    lhs, rhs = replay_certificate(cert)
    scale = max(1.0, abs(lhs), abs(rhs))
    if not (np.isfinite(scale) and abs(lhs - cert.lhs) <= rtol * scale
            and abs(rhs - cert.rhs) <= rtol * scale):
        return False
    # direction duality: the violation is the mirrored one for -F
    expected = _signed_violation(cert.direction, cert.lhs, cert.rhs)
    return abs(expected - cert.violation) <= rtol * scale


# ---------------------------------------------------------------------------
# Loewner-order midpoint/dominance tests

def _loewner_excess(small: np.ndarray, big: PosDef):
    """Relative excess of the claim small <= big in the Loewner order, one per
    matrix of a stack, from small's matrices and big's spectrum.

    Conjugating by big^{-1/2} makes the comparison scale-free and keeps
    violations visible even when they live in the small-eigenvalue subspace:
    the claim holds iff lambda_max(big^{-1/2} small big^{-1/2}) <= 1, so the
    excess lambda_max - 1 is positive exactly on a violation.
    """
    Rih = big.power(-0.5).mat
    C = hermitize(Rih @ small @ Rih)
    return eigh(C, vectors=False)[..., -1] - 1.0


#: the inputs each Loewner claim draws, in draw order, by their witness names
LOEWNER_INPUTS = {"power-mean-dominance": ("a", "b"), "hat-power": ("a", "b"),
                  "mean-concavity": ("a1", "a2", "b1", "b2")}


def _loewner_sides(expr: str, params: dict, P: PosDef):
    """(small, big) of the claim small <= big on the stack P, whose leading axis
    runs over the inputs in LOEWNER_INPUTS order, each a stack of one trial per
    row; small as matrices, big as a PosDef.  For power-mean-dominance, P is
    the pair (A, B) that power_mean_pair takes."""
    if expr == "power-mean-dominance":
        return power_mean_pair(P, params["p"]).mat, power_mean_pair(P, params["q"])
    if expr == "hat-power":
        phi: MapSpec = params["phi"]
        p = params["p"]
        A, B = P
        mid = hat_map(phi, _mix(A, B, 0.5).power(p))
        avg = 0.5 * (hat_map(phi, A.power(p)).mat + hat_map(phi, B.power(p)).mat)
    else:
        mean: MeanSpec = params["mean"]  # mean-concavity
        A1, A2, B1, B2 = P
        mid = eval_mean(mean, _mix(A1, A2, 0.5), _mix(B1, B2, 0.5))
        avg = 0.5 * (eval_mean(mean, A1, B1).mat + eval_mean(mean, A2, B2).mat)
    return PosDef.from_hermitian(avg).mat, mid


def _loewner_evaluation(expr: str, params: dict, P: PosDef):
    """The claim's excess at each row of the input stack P (as _loewner_sides
    takes it), and witness(t, stream): row t's lambda_min(big - small), excess,
    stream and inputs as JSON matrices, built only for a witness that is kept."""
    small, big = _loewner_sides(expr, params, P)
    excess = _loewner_excess(small, big)

    def witness(t: int, stream: int) -> dict:
        return {"witness_eigenvalue": loewner_leq(small[t], big[t].mat)[1],
                "relative_excess": float(excess[t]), "stream": stream,
                **{name: mat_to_json(P[j, t].mat)
                   for j, name in enumerate(LOEWNER_INPUTS[expr])}}

    return excess, witness


def _loewner_trials(expr: str, params: dict, trials: int, sampler: SamplerConfig):
    """Lazily yields (stream, (excess, witness(stream))) of each trial in stream
    order, or (stream, None) for a trial that fails: LOEWNER_BLOCK trials drawn
    (a draw_posdef pair per input), then built and evaluated as one stack
    (_stacked)."""
    dim = params["phi"].in_dim if expr == "hat-power" else sampler.dim
    names = LOEWNER_INPUTS[expr]

    def evaluated(block):
        P = build_posdef(*(np.array([[d[j][i] for d in block] for j in range(len(names))])
                           for i in (0, 1)))
        excess, witness = _loewner_evaluation(expr, params, P)
        return [(excess[t], partial(witness, t)) for t in range(len(block))]

    draws = _trials(sampler, trials, lambda rng: [draw_posdef(rng, dim) for _ in names])
    while block := list(islice(draws, LOEWNER_BLOCK)):
        yield from zip([stream for stream, _ in block],
                       _stacked(evaluated, [d for _, d in block]))


def _log_pairs(V: np.ndarray, dim: int) -> np.ndarray:
    """H1 and H2 of each row (H1, H2) of V, stacked on the leading axis: the
    logarithms of A and B, shape (2, len(V), dim, dim)."""
    return vec_to_herm(V.reshape(len(V), 2, dim * dim).swapaxes(0, 1), dim)


def _simplex(x0: np.ndarray, maxiter: int, xatol: float, fatol: float):
    """scipy 1.17's Nelder-Mead (its default initial simplex, adaptive=False, no
    bounds, maxfev unset) with the same arithmetic, so the same end point, as a
    generator: it yields each stack of points (m, N) it needs, is sent their m
    values and returns its end point.

    It asks for the initial simplex, each shrink and each step's four candidates
    (reflection, expansion, outside and inside contraction) as one stack, before
    the step picks among them; a step after a shrink asks for its candidates and
    its shrink's points as one stack.  So it asks for points scipy would not, and
    each point must get the value it has alone.
    """
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    # scipy's (1 + c) * xbar - c * worst, c = rho * (1, chi, psi) = (1, 2, 1/2), and
    # (1 - psi) * xbar + psi * worst, which is bitwise xbar / 2 - (-1/2) * worst
    centroid = np.array([[2.0], [3.0], [1.5], [0.5]])
    worst = np.array([[1.0], [2.0], [0.5], [-0.5]])
    fsim = yield sim
    for _ in range(2):  # scipy sorts the initial simplex twice
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    shrank = False
    for _ in range(1, maxiter):
        if (np.maximum.reduce(np.abs(fsim[0] - fsim[1:]), axis=None) <= fatol  # cheaper first
                and np.maximum.reduce(np.abs(sim[1:] - sim[0]), axis=None) <= xatol):
            break
        cand = centroid * (np.add.reduce(sim[:-1], 0) / N) - worst * sim[-1]
        if shrank:  # shrinks come in runs: ask for the next shrink's points too
            shrink = sim[0] + 0.5 * (sim[1:] - sim[0])
            fboth = yield np.concatenate([cand, shrink])
            fcand, fshrink = fboth[:4], fboth[4:]
        else:
            fcand, fshrink = (yield cand), None
        fxr, fxe, fxc, fxcc = fcand.tolist()
        if fxr < float(fsim[0]):
            pick = 1 if fxe < fxr else 0
        elif fxr < float(fsim[-2]):
            pick = 0
        elif fxr < float(fsim[-1]):
            pick = 2 if fxc <= fxr else None
        else:
            pick = 3 if fxcc < float(fsim[-1]) else None
        shrank = pick is None
        if shrank:  # towards the best vertex (sigma = 1/2)
            if fshrink is None:
                shrink = sim[0] + 0.5 * (sim[1:] - sim[0])
                fshrink = yield shrink
            sim[1:], fsim[1:] = shrink, fshrink
        else:
            sim[-1], fsim[-1] = cand[pick], fcand[pick]
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]


def _lockstep(fun, searches: list) -> list:
    """Runs _simplex generators together and returns their end points in order:
    each round evaluates the points every unfinished search asks for in one fun
    call, fun mapping a stack (m, N) to its m values."""
    ends = [None] * len(searches)
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        values = fun(np.concatenate(list(asks.values())))
        start = 0
        for i, points in list(asks.items()):
            try:
                asks[i] = searches[i].send(values[start:start + len(points)])
            except StopIteration as end:
                ends[i] = end.value
                del asks[i]
            start += len(points)
    return ends


def _nelder_mead(fun, x0: np.ndarray, maxiter: int, xatol: float, fatol: float) -> np.ndarray:
    """The end point of one _simplex search, run by _lockstep."""
    return _lockstep(fun, [_simplex(x0, maxiter, xatol, fatol)])[0]


def _dominance_objective(p: float, q: float, dim: int):
    """The negated dominance excess at each row of a stack of parameter vectors
    (those of H1, then H2, with A = exp(H1) and B = exp(H2)), computed on the
    spectra of A and B: no matrix of A, B or the q-mean is built.

    The bound on the parameter vector guards against overflow in the
    exponential; a point whose power means are not numerically positive
    definite scores as one beyond that bound (_stacked's failure value).
    """
    def scores(V: np.ndarray) -> np.ndarray:
        # the whole stack's test is False on NaN, which the rows' test lets in
        if not np.maximum.reduce(np.abs(V), axis=None, initial=0.0) <= 10.0:
            inside = ~(np.abs(V).max(axis=1) > 10.0)
            if not inside.all():
                f = np.ones(len(V))
                if inside.any():
                    f[inside] = scores(V[inside])
                return f
        P = matrix_exp_herm(_log_pairs(V, dim))
        return -_loewner_excess(power_mean_pair(P, p).mat, power_mean_pair(P, q))

    return lambda V: np.array(_stacked(scores, V, 1.0))


def loewner_midpoint_test(
    expr: str,
    params: dict,
    trials: int,
    sampler: SamplerConfig,
    refine: bool = False,
    stop_on_violation: bool = False,
    label: str | None = None,
) -> TestReport:
    """Randomized test of a Loewner-order claim small <= big; trials evaluated
    after a stop_on_violation witness in its block are not counted.  With
    refine, a dominance claim without a witness gets Nelder-Mead restarts."""
    if expr not in LOEWNER_INPUTS:
        raise ValueError(f"unknown Loewner expression {expr!r}")
    worst_rel = -np.inf
    kept = None
    failures = 0

    def record(excess, witness, stream: int) -> bool:
        """Keeps the worst excess, and its witness when it clears the claim
        threshold; True when it does."""
        nonlocal worst_rel, kept
        if excess > worst_rel:
            worst_rel = excess
            if excess > CLAIM_REL:
                kept = witness(stream)
                return True
        return False

    for stream, result in _loewner_trials(expr, params, trials, sampler):
        if result is None:
            failures += 1
        elif record(*result, stream) and stop_on_violation:
            break

    if kept is None and refine and expr == "power-mean-dominance":
        # simplex restarts: dominance failures for close exponent pairs need extreme
        # anisotropy that random sampling essentially never reaches, so minimize the
        # negated excess over A = exp(H1), B = exp(H2) directly; the restarts run
        # in lockstep blocks of 1, 2, 4, ..., judged in restart order
        dim = sampler.dim
        objective = _dominance_objective(params["p"], params["q"], dim)
        streams = [(sampler.stream_index + k) ^ 0x0D0A for k in range(24)]
        block = 1
        while streams and kept is None:
            run, streams = streams[:block], streams[block:]
            starts = [rng_for(sampler.seed, s).normal(0.0, 1.5, 2 * dim * dim) for s in run]
            ends = _lockstep(objective, [_simplex(x0, maxiter=2000, xatol=1e-12, fatol=1e-16)
                                         for x0 in starts])
            for stream, x in zip(run, ends):
                P = matrix_exp_herm(_log_pairs(x[None], dim))
                try:
                    excess, witness = _loewner_evaluation(expr, params, P)
                except MatrixError:
                    continue  # the search ended on a failed point: nothing to record
                if record(excess[0], partial(witness, 0), stream):
                    break
            block *= 2

    return TestReport(
        label=label or f"loewner:{expr}",
        direction="loewner",
        trials=trials,
        worst_violation=float(worst_rel),
        verdict=_verdict(failures, trials, kept is not None, worst_rel),
        failures=failures,
        witness=kept,
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
    result = SweepResult()
    for p in p_grid:
        for q in q_grid:
            for s in s_grid:
                row = {"p": float(p), "q": float(q), "s": float(s),
                       "trials": trials_per_cell, "failures": 0, "verdict": "inconclusive",
                       "worst_concave_violation": float("nan"),
                       "worst_convex_violation": float("nan")}
                try:
                    cell = family.with_params(ParameterPoint(float(p), float(q), float(s)))
                except ValueError:  # not a valid functional: the row stays inconclusive
                    result.rows.append(row)
                    continue
                reports = _midpoint_reports(cell, ("concave", "convex"), trials_per_cell,
                                            sampler)
                verdicts = {}
                # random midpoints miss violations that need structured inputs;
                # escalate non-violated directions to a short directed hunt
                for direction, report in reports.items():
                    worst, verdicts[direction] = report.worst_violation, report.verdict
                    if report.verdict != "VIOLATED":
                        found = hunt_counterexample(cell, direction,
                                                    budget=max(40, trials_per_cell // 4),
                                                    sampler=sampler)
                        worst = max(worst, found.best_violation)
                        if found.certificate is not None:
                            verdicts[direction] = "VIOLATED"
                    row[f"worst_{direction}_violation"] = worst
                row["verdict"] = _cell_verdict_from(**verdicts)
                row["failures"] = reports["concave"].failures  # both judge the same trials
                result.rows.append(row)
    return result
