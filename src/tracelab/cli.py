"""Command-line interface for the matrix convexity laboratory.

Subcommands: ``eval`` (print a functional value), ``verify`` (randomized
midpoint test of a named theorem region), ``sweep`` (CSV verdict grid over a
parameter box), ``hunt`` (counterexample search emitting replayable
certificates), and ``regions`` (membership queries).  Exit codes are a
stable contract: 0 pass, 2 violated, 3 inconclusive, 4 precondition
failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .families import EvaluationError, FamilySpec, ParameterPoint, eval_family
from .lab import (
    Certificate,
    HuntResult,
    TestReport,
    certificate_is_valid,
    hunt_counterexample,
    loewner_midpoint_test,
    midpoint_test,
    sweep,
)
from .linalg import MatrixError, PosDef, SamplerConfig, mat_from_json
from .means import MeanSpec
from .norms import NormSpec
from .posmaps import (
    MapSpec,
    conjugation,
    identity_map,
    kraus_map,
    mat_from_json_rect,
    pinching,
    transpose_then_kraus,
)
from .regions import (
    THEOREM_DIRECTION,
    THEOREM_IDS,
    region_description,
    region_member,
    region_violation,
)

EXIT_PASS = 0
EXIT_INTERNAL = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_PRECONDITION = 4

_VERDICT_EXIT = {
    "PASS": EXIT_PASS,
    "VIOLATED": EXIT_VIOLATED,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
}


class CliError(Exception):
    """Precondition failure reported to the user with exit code 4."""


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_map(text: str, dim: int) -> MapSpec:
    """Map argument: identity | scale:c | conjugation:FILE | kraus:FILE |
    pinching:FILE | transpose-kraus:FILE."""
    if text == "identity":
        return identity_map(dim)
    kind, _, arg = text.partition(":")
    if kind == "scale":
        c = float(arg)
        if c <= 0:
            raise CliError(f"scale factor must be positive, got {arg}")
        return conjugation(np.sqrt(c) * np.eye(dim, dtype=complex))
    if not arg:
        raise CliError(f"map spec {text!r} needs a file argument")
    if kind == "conjugation":
        return conjugation(mat_from_json_rect(_load_json(arg)))
    if kind in ("kraus", "transpose-kraus"):
        pieces = [mat_from_json_rect(d) for d in _load_json(arg)]
        build = kraus_map if kind == "kraus" else transpose_then_kraus
        return build(pieces)
    if kind == "pinching":
        return pinching([mat_from_json(d) for d in _load_json(arg)])
    raise CliError(f"unknown map kind {kind!r}")


def _parse_grid(text: str | None) -> list[float]:
    """Grid argument: either lo:hi:count or a comma-separated list."""
    if text is None:
        return []
    if ":" in text:
        lo, hi, count = text.split(":")
        return [float(x) for x in np.linspace(float(lo), float(hi), int(count))]
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 1:
        return parts[0], parts[0], parts[0]
    if len(parts) == 3:
        return tuple(parts)
    raise CliError(f"--dims expects n or n,m,l, got {text!r}")


def _functional_spec(args, dim: int) -> NormSpec:
    if getattr(args, "antinorm", None):
        return NormSpec.parse(args.antinorm)
    return NormSpec.parse(getattr(args, "norm", None) or "trace")


def _build_family(args, dims: tuple[int, int, int]) -> FamilySpec:
    n, m, _ = dims
    params = ParameterPoint(p=args.p, q=args.q or 0.0, s=args.s or 1.0)
    phi = _parse_map(args.phi, n)
    norm = _functional_spec(args, phi.out_dim)
    if args.family in ("lieb", "mean", "logexp"):
        psi = _parse_map(args.psi, m)
        mean = MeanSpec.parse(args.mean) if args.family == "mean" else None
        return FamilySpec(family=args.family, phi=phi, psi=psi, norm=norm,
                          mean=mean, params=params)
    if args.family == "epstein":
        return FamilySpec(family="epstein", phi=phi, norm=norm, params=params)
    raise CliError(f"unknown family {args.family!r}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        _atomic_write(out, text + "\n")
    print(text)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolved_config(args, keys: tuple[str, ...]) -> dict:
    cfg = {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}
    cfg["command"] = args.command
    return cfg


def _report_payload(args, keys, report: TestReport) -> dict:
    return {
        "config": _resolved_config(args, keys),
        "version": __version__,
        "seed": args.seed,
        "report": json.loads(report.to_json()),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    dims = _parse_dims(args.dims)
    A = PosDef.from_matrix(mat_from_json(_load_json(args.a)))
    family = _build_family(args, (A.dim, dims[1], dims[2]))
    B = None
    if family.two_variable:
        if args.b is None:
            raise CliError(f"family {args.family!r} needs --b")
        B = PosDef.from_matrix(mat_from_json(_load_json(args.b)))
    value = eval_family(family, A, B)
    print(f"{value:.14e}")
    return EXIT_PASS


_VERIFY_KEYS = ("theorem", "p", "q", "s", "trials", "dims", "seed", "norm",
                "antinorm", "mean", "phi", "psi", "force")


def cmd_verify(args) -> int:
    if args.theorem not in THEOREM_IDS:
        raise CliError(f"unknown theorem id {args.theorem!r}; "
                       f"known: {', '.join(THEOREM_IDS)}")
    dims = _parse_dims(args.dims)
    direction = THEOREM_DIRECTION[args.theorem]
    point = ParameterPoint(p=args.p, q=args.q or 0.0, s=args.s or 1.0)
    problem = region_violation(args.theorem, point)
    if problem is not None and not args.force:
        print(f"off-region for {args.theorem}: {problem}", file=sys.stderr)
        return EXIT_PRECONDITION

    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    if direction == "dominance":
        report = loewner_midpoint_test(
            "power-mean-dominance", {"p": args.p, "q": args.q},
            trials=args.trials, sampler=sampler, refine=True,
            stop_on_violation=True, label=args.theorem,
        )
    else:
        family = _dispatch_verify_family(args, dims, direction)
        report = midpoint_test(family, direction, trials=args.trials,
                               sampler=sampler, label=args.theorem)
    _emit(_report_payload(args, _VERIFY_KEYS, report), args.out)
    return _VERDICT_EXIT[report.verdict]


def _dispatch_verify_family(args, dims, direction) -> FamilySpec:
    tid = args.theorem
    if tid.startswith("T1.1"):
        args.family = "lieb"
    elif tid == "T2.2":
        args.family = "mean"
        args.mean = args.mean or "geometric"
        args.antinorm = args.antinorm or "kyfan-anti:1"
    elif tid.startswith(("T3.", "P4.")):
        args.family = "epstein"
        if tid == "T3.2":
            phi = _parse_map(args.phi, dims[0])
            if not phi.cp:
                raise CliError(
                    f"{tid} requires cp: true; map kind {phi.kind!r} is "
                    "positive but not completely positive"
                )
    elif tid.startswith(("T5.1", "T5.2")):
        args.family = "lieb"
        if args.norm is None and args.antinorm is None:
            if direction == "concave":
                args.antinorm = "lambda-min"
            else:
                args.norm = "operator"
    else:
        raise CliError(f"no verification family for {tid!r}")
    return _build_family(args, dims)


_SWEEP_KEYS = ("family", "p_grid", "q_grid", "s_grid", "trials", "dims",
               "seed", "norm", "antinorm", "mean", "phi", "psi")


def cmd_sweep(args) -> int:
    dims = _parse_dims(args.dims)
    p_grid = _parse_grid(args.p_grid)
    q_grid = _parse_grid(args.q_grid)
    s_grid = _parse_grid(args.s_grid)
    if p_grid and s_grid and not q_grid:
        q_grid = [0.0]  # one-variable families ignore q
    args.p, args.q, args.s = p_grid[0] if p_grid else 1.0, None, None
    family = _build_family(args, dims)
    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    result = sweep(family, p_grid, q_grid, s_grid,
                   trials_per_cell=args.trials, sampler=sampler)
    text = result.to_csv()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


_HUNT_KEYS = ("family", "p", "q", "s", "direction", "budget", "dims", "seed",
              "norm", "antinorm", "mean", "phi", "psi")


def cmd_hunt(args) -> int:
    if args.replay:
        payload = _load_json(args.replay)
        if isinstance(payload, dict) and "certificate" in payload:
            payload = payload["certificate"]
            if payload is None:
                raise CliError(f"{args.replay} holds no certificate: its hunt found "
                               "no violation")
        try:
            cert = Certificate.from_dict(payload)
        except (KeyError, TypeError) as exc:
            raise CliError(f"{args.replay} is not a certificate: missing or "
                           f"malformed field {exc}") from exc
        if certificate_is_valid(cert):
            print("certificate replays within tolerance")
            return EXIT_PASS
        print("certificate failed replay", file=sys.stderr)
        return EXIT_VIOLATED

    dims = _parse_dims(args.dims)
    family = _build_family(args, dims)
    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    result: HuntResult = hunt_counterexample(family, args.direction,
                                             budget=args.budget, sampler=sampler)
    payload = {
        "config": _resolved_config(args, _HUNT_KEYS),
        "version": __version__,
        "seed": args.seed,
        "found": result.certificate is not None,
        "trials_used": result.trials_used,
        "best_relative_violation": result.best_violation,
        "certificate": result.certificate.to_dict() if result.certificate else None,
    }
    _emit(payload, args.out)
    return EXIT_VIOLATED if result.certificate is not None else EXIT_PASS


def cmd_regions(args) -> int:
    ids = [args.theorem] if args.theorem else list(THEOREM_IDS)
    for tid in ids:
        if tid not in THEOREM_IDS:
            raise CliError(f"unknown theorem id {tid!r}")
        line = f"{tid} [{THEOREM_DIRECTION[tid]}]: {region_description(tid)}"
        if args.p is not None:
            point = ParameterPoint(p=args.p, q=args.q or 0.0, s=args.s or 1.0)
            verdict = "member" if region_member(tid, point) else "outside"
            line += f" -- ({args.p}, {args.q}, {args.s}): {verdict}"
        print(line)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing


def _add_family_flags(sub, family_required: bool):
    sub.add_argument("--family", required=family_required,
                     choices=("lieb", "mean", "epstein", "logexp"))
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--s", type=float)
    sub.add_argument("--norm", help="norm spec, e.g. trace, kyfan:2, operator")
    sub.add_argument("--antinorm",
                     help="anti-norm spec, e.g. kyfan-anti:1, schatten-quasi:0.5")
    sub.add_argument("--mean", help="mean spec, e.g. geometric, power:0.5")
    sub.add_argument("--phi", default="identity",
                     help="map spec: identity | scale:c | conjugation:FILE | "
                          "kraus:FILE | pinching:FILE | transpose-kraus:FILE")
    sub.add_argument("--psi", default="identity")
    sub.add_argument("--dims", default="2", help="n or n,m,l")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracelab",
        description="numerical laboratory for matrix trace/norm convexity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config",
                        help="JSON file of defaults for the subcommand flags")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a functional on matrices")
    _add_family_flags(p_eval, family_required=True)
    p_eval.add_argument("--a", required=True, help="JSON file for A")
    p_eval.add_argument("--b", help="JSON file for B")
    p_eval.set_defaults(handler=cmd_eval)

    p_verify = subs.add_parser("verify", help="randomized test of a theorem region")
    _add_family_flags(p_verify, family_required=False)
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--force", action="store_true",
                          help="test an off-region point anyway")
    p_verify.set_defaults(handler=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="verdict grid over a parameter box")
    _add_family_flags(p_sweep, family_required=True)
    p_sweep.add_argument("--p-grid", dest="p_grid", help="lo:hi:count or list")
    p_sweep.add_argument("--q-grid", dest="q_grid")
    p_sweep.add_argument("--s-grid", dest="s_grid")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_hunt = subs.add_parser("hunt", help="search for a violation certificate")
    _add_family_flags(p_hunt, family_required=False)
    p_hunt.add_argument("--direction", choices=("concave", "convex"))
    p_hunt.add_argument("--budget", type=int, default=10000)
    p_hunt.add_argument("--replay", help="re-validate a certificate file")
    p_hunt.set_defaults(handler=cmd_hunt)

    p_regions = subs.add_parser("regions", help="list regions / test membership")
    p_regions.add_argument("--theorem")
    p_regions.add_argument("--p", type=float)
    p_regions.add_argument("--q", type=float)
    p_regions.add_argument("--s", type=float)
    p_regions.set_defaults(handler=cmd_regions)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        defaults = _load_json(args.config)
        parser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    else:
        args = parser.parse_args(argv)
    if args.command == "hunt" and not args.replay:
        if args.family is None or args.direction is None:
            parser.error("hunt needs --family and --direction (or --replay)")
    if args.command in ("eval", "verify") or (
        args.command == "hunt" and not args.replay
    ):
        if args.p is None:
            parser.error(f"{args.command} needs --p")
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MatrixError, EvaluationError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
