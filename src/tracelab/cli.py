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
from .families import FAMILIES, EvaluationError, FamilySpec, ParameterPoint, eval_family
from .lab import (
    Certificate,
    certificate_is_valid,
    hunt_counterexample,
    json_number,
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
from .regions import THEOREM_IDS, THEOREMS, Theorem, region_member, region_violation

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


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError (argparse's own exit code 2 is the
    code of a violated claim) and refuses abbreviated flags."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # a JSON syntax error, or bytes that are not UTF-8
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the decoder goes
        raise CliError(f"{path} is nested too deeply to decode: {exc}") from exc


def _load_list(path: str) -> list:
    if not isinstance(payload := _load_json(path), list):
        raise CliError(f"{path} must hold a JSON list of matrices")
    return payload


def _config_defaults(args) -> dict:
    """``--config`` defaults for the chosen subcommand's flags (``trials``,
    ``p_grid``, ...).  A value reaches argparse as a string, so that it parses it
    as it parses the flag, except a boolean for an on/off flag; null sets nothing."""
    config = _load_json(args.config)
    if not isinstance(config, dict):
        raise CliError(f"config file {args.config} must hold a JSON object")
    flags = set(vars(args)) - {"command", "config", "handler"}
    if foreign := sorted(set(config) - flags):
        raise CliError(f"config keys {foreign} are not flags of {args.command}")
    if {"norm", "antinorm"} <= config.keys():
        raise CliError(f"config file {args.config} holds both norm and antinorm")
    return {k: v if isinstance(v, bool) and isinstance(getattr(args, k), bool) else str(v)
            for k, v in config.items() if v is not None}


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
        pieces = [mat_from_json_rect(d) for d in _load_list(arg)]
        build = kraus_map if kind == "kraus" else transpose_then_kraus
        return build(pieces)
    if kind == "pinching":
        return pinching([mat_from_json(d) for d in _load_list(arg)])
    raise CliError(f"unknown map kind {kind!r}")


def count(text: str) -> int:
    """argparse type of ``--trials`` and ``--budget``: an integer of at least 1."""
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def finite(text: str) -> float:
    """argparse type of ``--p``, ``--q`` and ``--s``, and of each grid value: a
    finite float."""
    if not np.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> list[float]:
    """argparse type of the grid flags: either lo:hi:count or a comma-separated
    list, of finite values."""
    try:
        if ":" in text:
            lo, hi, num = text.split(":")
            return [float(x) for x in np.linspace(finite(lo), finite(hi), int(num))]
        return [finite(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expects lo:hi:count or a comma-separated list, got {text!r}") from exc


def _parse_dims(text: str) -> tuple[int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) > 2 or min(parts) < 1:
        raise CliError(f"--dims expects n or n,m, each at least 1, got {text!r}")
    return parts[0], parts[-1]


def _point(args) -> ParameterPoint:
    """The (p, q, s) a run tests: ``--q`` defaults to 0 and ``--s`` to 1."""
    return ParameterPoint(p=args.p, q=0.0 if args.q is None else args.q,
                          s=1.0 if args.s is None else args.s)


def _build_family(args, family: str, dims, params: ParameterPoint | None = None) -> FamilySpec:
    n, m = dims[:2]
    mean = args.mean if family == "mean" else None  # FamilySpec refuses a missing one
    return FamilySpec(family=family, params=_point(args) if params is None else params,
                      phi=_parse_map(args.phi, n),
                      norm=NormSpec.parse(args.antinorm or args.norm or "trace"),
                      psi=None if family == "epstein" else _parse_map(args.psi, m),
                      mean=None if mean is None else MeanSpec.parse(mean))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        _atomic_write(out, text + "\n")
    print(text)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _envelope(args, **body) -> dict:
    """A run's JSON output: the flags that are set but ``--out``, the subcommand,
    the version and the seed, then body."""
    config = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "config", "handler", "out")}
    return {"config": {**config, "command": args.command}, "version": __version__,
            "seed": args.seed, **body}


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    A = PosDef.from_matrix(mat_from_json(_load_json(args.a)))
    B = None
    if args.b is not None:
        B = PosDef.from_matrix(mat_from_json(_load_json(args.b)))
    family = _build_family(args, args.family, (A.dim, B.dim if B is not None else A.dim))
    if family.two_variable and B is None:
        raise CliError(f"family {args.family!r} needs --b")
    value = eval_family(family, A, B)
    print(f"{value:.14e}")
    return EXIT_PASS


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise CliError(f"unknown theorem id {theorem_id!r}; "
                       f"known: {', '.join(THEOREM_IDS)}")
    return THEOREMS[theorem_id]


def cmd_verify(args) -> int:
    theorem = _theorem(args.theorem)
    if theorem.family is None and theorem.direction != "dominance":
        raise CliError(f"{args.theorem} has no functional to verify: the catalog does "
                       "not record which functional its statement is about")
    dims = _parse_dims(args.dims)
    point = _point(args)
    problem = region_violation(args.theorem, point)
    if problem is not None and not args.force:
        print(f"off-region for {args.theorem}: {problem}", file=sys.stderr)
        return EXIT_PRECONDITION

    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    if theorem.direction == "dominance":
        report = loewner_midpoint_test(
            "power-mean-dominance", {"p": point.p, "q": point.q},
            trials=args.trials, sampler=sampler, refine=True,
            stop_on_violation=True, label=args.theorem,
        )
    else:
        family = _verify_family(args, theorem, dims)
        report = midpoint_test(family, theorem.direction, trials=args.trials,
                               sampler=sampler, label=args.theorem)
    _emit(_envelope(args, report=report.to_dict()), args.out)
    return _VERDICT_EXIT[report.verdict]


def _verify_family(args, theorem: Theorem, dims) -> FamilySpec:
    """The functional verify tests, of the record's family, with the record's
    defaults written into ``args`` (and so into the emitted config): its norm or
    anti-norm when neither flag is given, its mean when ``--mean`` is not."""
    if args.norm is None and args.antinorm is None:
        args.norm, args.antinorm = theorem.norm, theorem.antinorm
    args.mean = args.mean or theorem.mean
    family = _build_family(args, theorem.family, dims)
    if theorem.cp_required and not family.phi.cp:
        raise CliError(f"{args.theorem} requires cp: true; map kind "
                       f"{family.phi.kind!r} is positive but not completely positive")
    return family


def cmd_sweep(args) -> int:
    dims = _parse_dims(args.dims)
    p_grid, q_grid, s_grid = args.p_grid, args.q_grid, args.s_grid
    if p_grid and s_grid and not q_grid:
        q_grid = [0.0]  # one-variable families ignore q
    # sweep() sets each cell's own point; (1, 1, 1) is valid for every family
    family = _build_family(args, args.family, dims, ParameterPoint(1.0, 1.0, 1.0))
    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    result = sweep(family, p_grid, q_grid, s_grid,
                   trials_per_cell=args.trials, sampler=sampler)
    text = result.to_csv()
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


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
    family = _build_family(args, args.family, dims)
    sampler = SamplerConfig(dim=dims[0], seed=args.seed)
    result = hunt_counterexample(family, args.direction, budget=args.budget,
                                 sampler=sampler)
    _emit(_envelope(args, found=result.certificate is not None,
                    trials_used=result.trials_used,
                    best_relative_violation=json_number(result.best_violation),
                    certificate=result.certificate.to_dict() if result.certificate else None),
          args.out)
    return EXIT_VIOLATED if result.certificate is not None else EXIT_PASS


def cmd_regions(args) -> int:
    ids = [args.theorem] if args.theorem else list(THEOREM_IDS)
    for tid in ids:
        theorem = _theorem(tid)
        line = f"{tid} [{theorem.direction}]: {theorem.description}"
        if args.p is not None:
            point = _point(args)
            verdict = "member" if region_member(tid, point) else "outside"
            line += f" -- ({point.p}, {point.q}, {point.s}): {verdict}"
        print(line)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# argument parsing

_FAMILY_CHOICES = sorted(FAMILIES)


def _add_point_flags(sub):
    sub.add_argument("--p", type=finite)
    sub.add_argument("--q", type=finite)
    sub.add_argument("--s", type=finite)


def _add_functional_flags(sub):
    norm = sub.add_mutually_exclusive_group()
    norm.add_argument("--norm", help="norm spec, e.g. trace, kyfan:2, operator")
    norm.add_argument("--antinorm",
                      help="anti-norm spec, e.g. kyfan-anti:1, schatten-quasi:0.5")
    sub.add_argument("--mean", help="mean spec, e.g. geometric, power:0.5")
    sub.add_argument("--phi", default="identity",
                     help="map spec: identity | scale:c | conjugation:FILE | "
                          "kraus:FILE | pinching:FILE | transpose-kraus:FILE")
    sub.add_argument("--psi", default="identity")


def _add_run_flags(sub):
    sub.add_argument("--dims", default="2", help="n or n,m")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write output to this path")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and the parser of each subcommand by name."""
    parser = _Parser(
        prog="tracelab",
        description="numerical laboratory for matrix trace/norm convexity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config",
                        help="JSON file of defaults for the subcommand flags")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a functional on matrices")
    p_eval.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    _add_point_flags(p_eval)
    _add_functional_flags(p_eval)
    p_eval.add_argument("--a", required=True, help="JSON file for A")
    p_eval.add_argument("--b", help="JSON file for B")
    p_eval.set_defaults(handler=cmd_eval)

    p_verify = subs.add_parser("verify", help="randomized test of a theorem region")
    _add_point_flags(p_verify)
    _add_functional_flags(p_verify)
    _add_run_flags(p_verify)
    p_verify.add_argument("--theorem", required=True)
    p_verify.add_argument("--trials", type=count, default=1000)
    p_verify.add_argument("--force", action="store_true",
                          help="test an off-region point anyway")
    p_verify.set_defaults(handler=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="verdict grid over a parameter box")
    p_sweep.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    _add_functional_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--p-grid", dest="p_grid", type=_parse_grid, default=[],
                         help="lo:hi:count or list")
    p_sweep.add_argument("--q-grid", dest="q_grid", type=_parse_grid, default=[])
    p_sweep.add_argument("--s-grid", dest="s_grid", type=_parse_grid, default=[])
    p_sweep.add_argument("--trials", type=count, default=200)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_hunt = subs.add_parser("hunt", help="search for a violation certificate")
    p_hunt.add_argument("--family", choices=_FAMILY_CHOICES)
    _add_point_flags(p_hunt)
    _add_functional_flags(p_hunt)
    _add_run_flags(p_hunt)
    p_hunt.add_argument("--direction", choices=("concave", "convex"))
    p_hunt.add_argument("--budget", type=count, default=10000)
    p_hunt.add_argument("--replay", help="re-validate a certificate file")
    p_hunt.set_defaults(handler=cmd_hunt)

    p_regions = subs.add_parser("regions", help="list regions / test membership")
    p_regions.add_argument("--theorem")
    _add_point_flags(p_regions)
    p_regions.set_defaults(handler=cmd_regions)
    return parser, subs.choices


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            subcommands[args.command].set_defaults(**_config_defaults(args))
            explicit, args = args, parser.parse_args(argv)
            if getattr(explicit, "norm", None) or getattr(explicit, "antinorm", None):
                args.norm, args.antinorm = explicit.norm, explicit.antinorm
        hunting = args.command == "hunt" and not args.replay
        if hunting and (args.family is None or args.direction is None):
            parser.error("hunt needs --family and --direction (or --replay)")
        if (hunting or args.command in ("eval", "verify")) and args.p is None:
            parser.error(f"{args.command} needs --p")
        # a numerical failure counts through its exception or a non-finite check,
        # so numpy's floating-point warnings would only add noise on stderr
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (CliError, MatrixError, EvaluationError, FileNotFoundError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - stable exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
