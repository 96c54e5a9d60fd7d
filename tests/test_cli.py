"""End-to-end command-line interface checks."""

import json
import warnings

import numpy as np
import pytest

from tracelab.cli import _parse_grid, _verify_family, build_parser, main
from tracelab.linalg import SamplerConfig, mat_to_json, sample_posdef
from tracelab.posmaps import identity_map, mat_to_json_rect
from tracelab.regions import THEOREMS


@pytest.fixture()
def matfiles(tmp_path):
    """JSON matrix fixtures shared by the subcommand tests."""
    paths = {}

    def dump(name, M):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mat_to_json(np.asarray(M, dtype=complex))))
        paths[name] = str(path)

    dump("I2", np.eye(2))
    dump("I3", np.eye(3))
    dump("A", sample_posdef(SamplerConfig(dim=2, seed=121)).mat)
    dump("B", sample_posdef(SamplerConfig(dim=2, seed=121, stream_index=1)).mat)
    dump("D1", np.diag([1.0, 4.0]))
    dump("D2", np.diag([9.0, 1.0]))
    A = json.loads((tmp_path / "A.json").read_text())
    B = json.loads((tmp_path / "B.json").read_text())
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = np.array(A["re"]) + 1j * np.array(A["im"])
    block[2:, 2:] = np.array(B["re"]) + 1j * np.array(B["im"])
    dump("block", block)
    embed = tmp_path / "embed.json"
    embed.write_text(json.dumps(
        mat_to_json_rect(np.vstack([np.eye(2), np.eye(2)]).astype(complex))))
    paths["embed"] = str(embed)
    paths["dir"] = str(tmp_path)
    return paths


class TestEval:
    def test_trivial_lieb_value(self, matfiles, capsys):
        rc = main(["eval", "--family", "lieb", "--p", "1", "--q", "1", "--s", "1",
                   "--a", matfiles["I2"], "--b", matfiles["I2"]])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 2.0

    def test_block_embedding_agrees_with_sum_family(self, matfiles, capsys):
        # Tr(A^p+B^p)^{1/p} two ways: block evaluation vs the plain-sum family
        rc = main(["eval", "--family", "epstein", "--p", "0.7", "--s",
                   str(1 / 0.7), "--phi", f"conjugation:{matfiles['embed']}",
                   "--a", matfiles["block"]])
        assert rc == 0
        via_block = float(capsys.readouterr().out.strip())
        rc = main(["eval", "--family", "mean", "--mean", "sum", "--p", "0.7",
                   "--q", "0.7", "--s", str(1 / 0.7),
                   "--a", matfiles["A"], "--b", matfiles["B"]])
        assert rc == 0
        via_sum = float(capsys.readouterr().out.strip())
        assert np.isclose(via_block, via_sum, rtol=1e-10)

    def test_logexp_minkowski_commuting_determinant_oracle(self, matfiles, capsys):
        # commuting inputs: the log-exp value under the full Minkowski
        # functional is the geometric mean of determinants
        rc = main(["eval", "--family", "logexp", "--p", "1", "--q", "1", "--s", "1",
                   "--phi", "scale:0.5", "--psi", "scale:0.5",
                   "--antinorm", "minkowski:2",
                   "--a", matfiles["D1"], "--b", matfiles["D2"]])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        oracle = np.exp(0.5 * (np.log(np.linalg.det(np.diag([1.0, 4.0])))
                               + np.log(np.linalg.det(np.diag([9.0, 1.0])))) / 2)
        assert np.isclose(val, oracle, rtol=1e-10)

    def test_dimensions_come_from_the_inputs(self, matfiles, capsys):
        rc = main(["eval", "--family", "lieb", "--p", "1", "--q", "1", "--s", "1",
                   "--a", matfiles["I3"], "--b", matfiles["I3"]])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 3.0

    def test_malformed_matrix_fails(self, matfiles, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1]]}')
        rc = main(["eval", "--family", "epstein", "--p", "1", "--s", "1",
                   "--a", str(bad)])
        assert rc == 4


class TestVerify:
    def test_on_region_mean_family_passes(self, capsys):
        rc = main(["verify", "--theorem", "T2.2", "--p", "0.6", "--q", "0.9",
                   "--s", "1.111", "--mean", "geometric",
                   "--antinorm", "kyfan-anti:1", "--trials", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["report"]["verdict"] == "PASS"
        assert payload["version"] and "config" in payload

    def test_failed_trials_name_no_worst_case(self, capsys):
        # every trial fails, some after an earlier weight evaluated
        rc = main(["verify", "--theorem", "T3.1-1", "--p", "315", "--s", "0.01",
                   "--force", "--trials", "20"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert (rc, report["verdict"], report["failures"]) == (3, "INCONCLUSIVE", 20)
        assert "worst_case" not in report and report["worst_violation"] is None

    def test_trials_with_a_non_finite_value_are_failed_trials(self, capsys):
        # Tr A^{450} overflows to inf on 8 of these 20 trials
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["verify", "--theorem", "T3.1-2-convex", "--p", "1.5", "--s", "300",
                       "--force", "--trials", "20", "--seed", "0"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert (rc, report["verdict"], report["failures"]) == (3, "INCONCLUSIVE", 8)

    def test_an_eigensolver_failure_fails_its_point_not_the_run(self, capsys):
        # at n = 3, A^200 and A^300 overflow; the eigensolver then fails on their
        # mean, in random trials and at Nelder-Mead points, and each one fails alone
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["verify", "--theorem", "L5.4", "--p", "200", "--q", "300",
                       "--dims", "3", "--trials", "20"])
        report = json.loads(capsys.readouterr().out)["report"]
        assert (rc, report["verdict"]) == (3, "INCONCLUSIVE") and report["failures"] > 0

    def test_floating_point_warnings_stay_off_stderr(self, capsys):
        # the overflowing run above, with numpy's error state left as it is and
        # its warnings raised: the CLI evaluates with floating-point errors ignored
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["verify", "--theorem", "L5.4", "--p", "200", "--q", "300",
                       "--dims", "3", "--trials", "20"])
        out, err = capsys.readouterr()
        assert rc == 3 and json.loads(out)["report"]["verdict"] == "INCONCLUSIVE"
        assert "Warning" not in err

    def test_off_region_refused(self, capsys):
        rc = main(["verify", "--theorem", "T1.1-1", "--p", "0.7", "--q", "0.7",
                   "--s", "0.9"])
        assert rc == 4
        assert "off-region" in capsys.readouterr().err

    def test_cp_requirement_enforced(self, matfiles, tmp_path, capsys):
        kr = tmp_path / "kr.json"
        kr.write_text(json.dumps([mat_to_json_rect(np.eye(2, dtype=complex))]))
        rc = main(["verify", "--theorem", "T3.2", "--p", "1.5", "--s", "0.8",
                   "--phi", f"transpose-kraus:{kr}", "--trials", "10"])
        assert rc == 4
        assert "cp" in capsys.readouterr().err

    def test_dims_takes_n_and_m(self, capsys):
        rc = main(_ON_REGION + ["--dims", "3,3", "--trials", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["report"]["verdict"] == "PASS"

    @pytest.mark.parametrize("dims", ["-1", "2,0"])
    def test_dims_below_one_are_refused(self, dims, capsys):
        rc = main(["hunt", "--family", "lieb", "--direction", "concave", "--p", "0.5",
                   "--q", "0.5", "--s", "1", "--dims", dims])
        assert rc == 4
        assert capsys.readouterr().err == (f"error: --dims expects n or n,m, each at least 1, "
                                           f"got {dims!r}\n")

    def test_unknown_theorem(self, capsys):
        rc = main(["verify", "--theorem", "T7.7", "--p", "1"])
        assert rc == 4

    @pytest.mark.parametrize("theorem", ["T3.1-2-concave-recip", "P4.1-2", "P4.4-2"])
    def test_id_without_functional_refused_even_forced(self, theorem, capsys):
        assert THEOREMS[theorem].family is None
        rc = main(["verify", "--theorem", theorem, "--p", "0.3", "--q", "0.4",
                   "--s", "0.8", "--force", "--trials", "5"])
        assert rc == 4
        assert "no functional" in capsys.readouterr().err

    def test_explicit_norm_replaces_the_default_antinorm(self):
        args = build_parser()[0].parse_args(
            ["verify", "--theorem", "T2.2", "--p", "0.6", "--q", "0.9", "--s", "1.1",
             "--norm", "operator"])
        family = _verify_family(args, THEOREMS["T2.2"], (2, 2, 2))
        assert family.norm.to_dict() == {"kind": "operator"}
        assert family.mean.label() == "geometric:0.5"
        assert args.antinorm is None


_ON_REGION = ["verify", "--theorem", "T1.1-1", "--p", "0.7", "--q", "0.7", "--s", "0.6"]
_EVAL = ["eval", "--family", "epstein", "--p", "1"]
_SINGULAR_PHI = ["--phi", "conjugation:{singular}"]
_SWEEP = ["sweep", "--family", "epstein", "--p-grid", "0.5", "--s-grid", "1",
          "--trials", "5"]
_PIECE = '{"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'


def _certificate(params=None, **fields) -> str:
    """A certificate file of epstein(p=1, s=1), that is Tr A, which replays
    within tolerance, with family.params and other fields changed."""
    family = {"family": "epstein", "phi": identity_map(2).to_dict(), "norm": {"kind": "trace"},
              "params": {"p": 1.0, "q": 0.0, "s": 1.0, **(params or {})}}
    cert = {"family": family, "a1": mat_to_json(np.eye(2, dtype=complex)),
            "a2": mat_to_json(3 * np.eye(2, dtype=complex)), "lambda": 0.5, "lhs": 4.0,
            "rhs": 4.0, "violation": 0.0, "direction": "convex", "seed": 0, "stream": 0}
    return json.dumps({**cert, **fields})


#: Tr A^{1/2}, which is concave, at diag(4, 4) and diag(1, 6) "mixed" at lambda = 2, with
#: the sides replay gives it: a violation of 0.49 at a weight outside [0, 1]
_LAMBDA_2_LHS = np.sqrt(7.0) + np.sqrt(2.0)  # Tr (2 A1 - A2)^{1/2}
_LAMBDA_2_RHS = 2 * 4.0 - (1.0 + np.sqrt(6.0))  # 2 Tr A1^{1/2} - Tr A2^{1/2}
_CERTIFICATE_LAMBDA_2 = _certificate(
    params={"p": 0.5}, a1=mat_to_json(4 * np.eye(2, dtype=complex)),
    a2=mat_to_json(np.diag([1.0, 6.0]).astype(complex)), direction="concave",
    lhs=_LAMBDA_2_LHS, rhs=_LAMBDA_2_RHS, violation=_LAMBDA_2_RHS - _LAMBDA_2_LHS,
    **{"lambda": 2.0})
#: logexp with identity maps, Phi(I) + Psi(I) = 2I: it parses, and raises when evaluated
_CERTIFICATE_LOGEXP = _certificate(
    family={"family": "logexp", "phi": identity_map(2).to_dict(),
            "psi": identity_map(2).to_dict(), "norm": {"kind": "trace"},
            "params": {"p": 1.0, "q": 1.0, "s": 1.0}},
    b1=mat_to_json(np.eye(2, dtype=complex)), b2=mat_to_json(3 * np.eye(2, dtype=complex)))
#: a two-variable family (lieb) whose certificate has no b1 and b2
_CERTIFICATE_WITHOUT_B = _certificate(family={**json.loads(_CERTIFICATE_LOGEXP)["family"],
                                              "family": "lieb"})
#: epstein with the Ky Fan norm at a fractional k, on 3 x 3 inputs (k < n)
_CERTIFICATE_FRACTIONAL_K = _certificate(
    family={**json.loads(_certificate())["family"], "phi": identity_map(3).to_dict(),
            "norm": {"kind": "kyfan", "k": 2.5}},
    a1=mat_to_json(np.eye(3, dtype=complex)), a2=mat_to_json(3 * np.eye(3, dtype=complex)))
#: a norm parameter that JSON writes as true, which would read as p = 1
_CERTIFICATE_BOOLEAN_P = _certificate(
    family={**json.loads(_certificate())["family"], "norm": {"kind": "neg-schatten", "p": True}})
#: the trace norm carrying a p, which the trace does not take
_CERTIFICATE_TRACE_WITH_P = _certificate(
    family={**json.loads(_certificate())["family"], "norm": {"kind": "trace", "p": 0.5}})
#: what stderr names, for the test_exits_4 cases that are checked for it
_EXIT_4_ERRORS = {"certificate-lambda-outside": "lambda must lie in [0, 1]",
                  "certificate-fractional-k": "kyfan requires an integer k >= 1, got 2.5",
                  "certificate-boolean-p": "neg-schatten requires a real p, got True",
                  "certificate-trace-with-p": "trace takes no parameter p, got 0.5",
                  "norm-trace-with-p": "trace takes no parameter p, got 0.5",
                  "antinorm-lambda-min-with-p": "lambda-min takes no parameter p, got 2.0",
                  "norm-neg-schatten-infinite-p": "neg-schatten requires p > 0 and finite, "
                                                  "got inf",
                  "certificate-evaluation-raises": "Phi(I) + Psi(I) = I",
                  "certificate-shapes-differ": "differ in shape",
                  "certificate-without-b": "'b1'",
                  "eval-mean-without-spec": "mean family requires a mean spec",
                  "config-unknown-family": "unknown family"}


class TestBadInput:
    """Bad input exits 4: never 1, nor 2 (the code of a violated claim), nor a
    verdict."""

    @pytest.mark.parametrize("content,argv", [
        pytest.param(None, ["--config", "{missing}"] + _ON_REGION, id="config-missing"),
        pytest.param("{not json", ["--config", "{file}"] + _ON_REGION,
                     id="config-malformed"),
        pytest.param("[1, 2]", ["--config", "{file}"] + _ON_REGION, id="config-list"),
        pytest.param('{"budget": 5}', ["--config", "{file}"] + _ON_REGION,
                     id="config-foreign-key"),
        pytest.param('{"trials": [7]}', ["--config", "{file}"] + _ON_REGION,
                     id="config-list-value"),
        pytest.param('{"trials": 0}', ["--config", "{file}"] + _ON_REGION,
                     id="config-zero-trials"),
        pytest.param('{"trials": false}', ["--config", "{file}"] + _ON_REGION,
                     id="config-false-trials"),
        pytest.param('{"q": NaN}', ["--config", "{file}", "verify", "--theorem", "T3.1-1",
                                    "--p", "0.5", "--s", "1", "--force", "--trials", "5"],
                     id="config-nan-q"),
        pytest.param('{"s_grid": "1,Infinity"}', ["--config", "{file}", "sweep", "--family",
                                                  "epstein", "--p-grid", "0.5", "--trials", "5"],
                     id="config-infinite-s-grid"),
        pytest.param('{"budget": 0}', ["--config", "{file}", "hunt", "--family", "lieb",
                                       "--p", "0.5", "--q", "0.5", "--s", "0.8",
                                       "--direction", "concave"],
                     id="config-zero-budget"),
        pytest.param('{"family": "bogus"}', ["--config", "{file}", "hunt", "--p", "0.5",
                                             "--direction", "concave"],
                     id="config-unknown-family"),
        pytest.param(json.dumps(mat_to_json(np.eye(2, dtype=complex))),
                     ["eval", "--family", "mean", "--p", "0.5", "--q", "0.5", "--a", "{file}",
                      "--b", "{file}"], id="eval-mean-without-spec"),
        pytest.param('{"dim": 2}', _EVAL + ["--a", "{file}"], id="matrix-without-entries"),
        pytest.param("[[1, 2]]", _EVAL + ["--a", "{file}"], id="matrix-list"),
        pytest.param(_PIECE, _ON_REGION + ["--phi", "kraus:{file}"], id="kraus-object"),
        pytest.param('[{"rows": 2, "cols": 2}]', _ON_REGION + ["--phi", "kraus:{file}"],
                     id="kraus-incomplete-piece"),
        pytest.param(f"[{_PIECE}]", _ON_REGION + ["--phi", "conjugation:{file}"],
                     id="conjugation-list"),
        pytest.param('{"dim": 2}', _ON_REGION + ["--phi", "pinching:{file}"],
                     id="pinching-object"),
        pytest.param(_certificate(direction="sideways"), ["hunt", "--replay", "{file}"],
                     id="certificate-unknown-direction"),
        pytest.param(_certificate(**{"lambda": "0.5"}), ["hunt", "--replay", "{file}"],
                     id="certificate-string-lambda"),
        pytest.param(_certificate(lhs="4"), ["hunt", "--replay", "{file}"],
                     id="certificate-string-lhs"),
        pytest.param(_certificate(params={"p": "1"}), ["hunt", "--replay", "{file}"],
                     id="certificate-string-p"),
        pytest.param(_certificate(a1=mat_to_json(np.full((2, 2), np.nan, dtype=complex))),
                     ["hunt", "--replay", "{file}"], id="certificate-nan-matrix"),
        pytest.param(_CERTIFICATE_LAMBDA_2, ["hunt", "--replay", "{file}"],
                     id="certificate-lambda-outside"),
        pytest.param(_certificate(**{"lambda": float("nan")}), ["hunt", "--replay", "{file}"],
                     id="certificate-nan-lambda"),
        pytest.param(_CERTIFICATE_LOGEXP, ["hunt", "--replay", "{file}"],
                     id="certificate-evaluation-raises"),
        pytest.param(_certificate(a2=mat_to_json(3 * np.eye(3, dtype=complex))),
                     ["hunt", "--replay", "{file}"], id="certificate-shapes-differ"),
        pytest.param(_CERTIFICATE_WITHOUT_B, ["hunt", "--replay", "{file}"],
                     id="certificate-without-b"),
        pytest.param(_CERTIFICATE_FRACTIONAL_K, ["hunt", "--replay", "{file}"],
                     id="certificate-fractional-k"),
        pytest.param(_CERTIFICATE_BOOLEAN_P, ["hunt", "--replay", "{file}"],
                     id="certificate-boolean-p"),
        pytest.param(_CERTIFICATE_TRACE_WITH_P, ["hunt", "--replay", "{file}"],
                     id="certificate-trace-with-p"),
        pytest.param(None, _ON_REGION + ["--norm", "trace:0.5"], id="norm-trace-with-p"),
        pytest.param(None, _ON_REGION + ["--antinorm", "lambda-min:2"],
                     id="antinorm-lambda-min-with-p"),
        pytest.param(None, _ON_REGION + ["--norm", "neg-schatten:inf"],
                     id="norm-neg-schatten-infinite-p"),
    ])
    def test_exits_4(self, content, argv, tmp_path, capsys, request):
        path = tmp_path / "input.json"
        if content is not None:
            path.write_text(content)
        argv = [a.format(file=path, missing=tmp_path / "missing.json") for a in argv]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert _EXIT_4_ERRORS.get(request.node.callspec.id, "") in err

    @pytest.mark.parametrize("content,error", [
        pytest.param("", "is not valid JSON: ", id="empty"),
        pytest.param("{not json", "is not valid JSON: ", id="syntax"),
        pytest.param(b"\xff\xfe", "is not valid JSON: ", id="not-utf8"),
        pytest.param("[" * 100_000, "is nested too deeply to decode: ", id="nested"),
    ])
    @pytest.mark.parametrize("argv", [
        pytest.param(_EVAL + ["--s", "1", "--a", "{file}"], id="matrix"),
        pytest.param(["--config", "{file}"] + _ON_REGION, id="config"),
        pytest.param(["hunt", "--replay", "{file}"], id="replay"),
    ])
    def test_a_file_that_is_not_json_is_named(self, content, error, argv, tmp_path, capsys):
        path = tmp_path / "input.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main([a.format(file=path) for a in argv]) == 4
        assert capsys.readouterr().err.startswith(f"error: {path} {error}")

    @pytest.mark.parametrize("argv", [
        pytest.param(["verify", "--theorem", "T1.1-1", "--p", "x", "--q", "0.7",
                      "--s", "0.6"], id="usage-bad-float"),
        pytest.param(["hunt", "--p", "1"], id="usage-hunt-without-family"),
        pytest.param(_ON_REGION + ["--family", "epstein"], id="verify-family-flag"),
        pytest.param(_ON_REGION + ["--trials", "5", "--out", "{dir}"],
                     id="out-is-a-directory"),
        pytest.param(_EVAL + ["--s", "1", "--a", "{eye}"] + _SINGULAR_PHI,
                     id="singular-phi-eval"),
        pytest.param(["verify", "--theorem", "T3.1-1", "--p", "0.5", "--s", "1",
                      "--trials", "50"] + _SINGULAR_PHI, id="singular-phi-verify"),
        pytest.param(["hunt", "--family", "epstein", "--p", "1", "--s", "1",
                      "--direction", "concave", "--budget", "5"] + _SINGULAR_PHI,
                     id="singular-phi-hunt"),
        pytest.param(["sweep", "--family", "epstein", "--p-grid", "0.5", "--s-grid",
                      "1", "--trials", "5"] + _SINGULAR_PHI, id="singular-phi-sweep"),
        pytest.param(_EVAL + ["--s", "1", "--a", "{eye}", "--out", "{dir}/v.txt"],
                     id="eval-out-flag"),
        pytest.param(_EVAL + ["--s", "1", "--a", "{eye}", "--seed", "9"],
                     id="eval-seed-flag"),
        pytest.param(_EVAL + ["--s", "1", "--a", "{eye}", "--dims", "7"],
                     id="eval-dims-flag"),
        pytest.param(_ON_REGION + ["--trials", "5", "--dims", "3,3,99"],
                     id="dims-three-values"),
        pytest.param(_SWEEP + ["--p", "5", "--q", "5", "--s", "5"], id="sweep-point-flags"),
        pytest.param(_SWEEP + ["--norm", "kyfan:5", "--dims", "3"], id="k-above-dimension"),
        pytest.param(_EVAL + ["--s", "1", "--a", "{eye}", "--norm", "operator",
                              "--antinorm", "lambda-min"], id="norm-and-antinorm"),
        pytest.param(["verify", "--th", "T1.1-1", "--p", "0.7", "--q", "0.7", "--s", "0.6",
                      "--trials", "5"], id="abbreviated-flag"),
        pytest.param(["verify", "--theorem", "T1.1-1", "--p", "0.5", "--q", "0.5",
                      "--s", "0.8", "--trials", "0"], id="zero-trials"),
        pytest.param(["verify", "--theorem", "T1.1-1", "--p", "0.5", "--q", "0.5",
                      "--s", "0.8", "--trials", "-5"], id="negative-trials"),
        pytest.param(_SWEEP + ["--trials", "0"], id="sweep-zero-trials"),
        pytest.param(["hunt", "--family", "lieb", "--p", "0.5", "--q", "0.5", "--s", "0.8",
                      "--direction", "concave", "--budget", "-3"], id="negative-budget"),
        pytest.param(_EVAL + ["--s", "0", "--a", "{eye}"], id="eval-explicit-zero-s"),
        pytest.param(["hunt", "--family", "epstein", "--p", "1", "--s", "0",
                      "--direction", "concave", "--budget", "5"], id="hunt-explicit-zero-s"),
        pytest.param(["verify", "--theorem", "T3.1-1", "--p", "nan", "--s", "1", "--force",
                      "--trials", "20"], id="nan-p"),
        pytest.param(["verify", "--theorem", "T3.1-1", "--p", "0.5", "--s", "inf", "--force",
                      "--trials", "20"], id="infinite-s"),
        pytest.param(["sweep", "--family", "epstein", "--p-grid", "nan,0.5", "--s-grid", "1",
                      "--trials", "5"], id="nan-in-p-grid"),
        pytest.param(["sweep", "--family", "epstein", "--p-grid", "0.5", "--s-grid", "0:inf:3",
                      "--trials", "5"], id="infinite-range-s-grid"),
    ])
    def test_bad_flag_or_map_exits_4(self, argv, tmp_path, capsys):
        singular = tmp_path / "singular.json"
        singular.write_text(json.dumps(mat_to_json_rect(np.diag([1.0, 0.0]) + 0j)))
        eye = tmp_path / "eye.json"
        eye.write_text(json.dumps(mat_to_json(np.eye(2, dtype=complex))))
        argv = [a.format(singular=singular, eye=eye, dir=tmp_path) for a in argv]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err


class TestDefaultPoint:
    """--q defaults to 0 and --s to 1 only where the flag is absent: every run
    tests the point it reports."""

    def test_verify_tests_an_explicit_zero_s(self, capsys):
        rc = main(["verify", "--theorem", "T3.1-1", "--p", "0.5", "--s", "0",
                   "--trials", "3"])
        assert rc == 4
        assert "(0.5, 0, 0) is outside" in capsys.readouterr().err

    def test_regions_tests_an_explicit_zero_s(self, capsys):
        assert main(["regions", "--theorem", "T3.1-1", "--p", "0.5", "--s", "0"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("-- (0.5, 0.0, 0.0): outside")

    def test_dominance_without_q_tests_q_zero(self, capsys):
        # the region check and the Loewner test both read q = 0
        rc = main(["verify", "--theorem", "L5.4", "--p", "0.5", "--force",
                   "--trials", "2"])
        captured = capsys.readouterr()
        assert "internal error" not in captured.err
        assert rc == 2
        payload = json.loads(captured.out)
        assert payload["report"]["verdict"] == "VIOLATED"
        assert "q" not in payload["config"] and "s" not in payload["config"]


class TestConfig:
    def test_config_reaches_subcommand_flags_and_explicit_flags_win(self, tmp_path,
                                                                    capsys):
        config = tmp_path / "config.json"
        config.write_text('{"trials": 7, "seed": 3}')
        assert main(["--config", str(config)] + _ON_REGION) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["trials"] == 7 and payload["seed"] == 3
        assert main(["--config", str(config)] + _ON_REGION + ["--trials", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["trials"] == 9

    def test_explicit_norm_flag_replaces_either_config_key(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(mat_to_json(np.diag([1.0, 4.0]).astype(complex))))
        config = tmp_path / "config.json"
        argv = ["--config", str(config)] + _EVAL + ["--s", "1", "--a", str(a)]

        def value(*flags):
            assert main(argv + list(flags)) == 0
            return float(capsys.readouterr().out)

        config.write_text('{"antinorm": "lambda-min"}')
        assert value() == 1.0
        assert value("--norm", "operator") == 4.0
        config.write_text('{"norm": "operator"}')
        assert value() == 4.0
        assert value("--antinorm", "lambda-min") == 1.0
        config.write_text('{"norm": "operator", "antinorm": "lambda-min"}')
        assert main(argv) == 4
        assert "both norm and antinorm" in capsys.readouterr().err


class TestSweep:
    def test_empty_grid_header_only(self, matfiles, capsys):
        out_path = f"{matfiles['dir']}/empty.csv"
        rc = main(["sweep", "--family", "epstein", "--trials", "10",
                   "--out", out_path])
        assert rc == 0
        text = open(out_path).read()
        assert text.splitlines() == [
            "p,q,s,verdict,worst_concave_violation,worst_convex_violation,"
            "trials,failures"]

    def test_grid_may_hold_zero(self, capsys):
        # the (0, 0) cell is not a lieb functional: its row is inconclusive
        rc = main(["sweep", "--family", "lieb", "--p-grid", "0,0.5", "--q-grid", "0,0.5",
                   "--s-grid", "1", "--trials", "5"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        assert rows[0][3:6] == ["inconclusive", "nan", "nan"]
        assert all(r[3] != "inconclusive" for r in rows[1:])

    def test_failed_trials_counted_once(self, capsys):
        # logexp with two identity maps breaks Phi(I) + Psi(I) = I: every trial fails
        rc = main(["sweep", "--family", "logexp", "--p-grid", "1", "--q-grid", "1",
                   "--s-grid", "1", "--trials", "5"])
        assert rc == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3:] == ["inconclusive", "-inf", "-inf", "5", "5"]

    def test_range_grid(self):
        assert _parse_grid("0:1.5:4") == [0.0, 0.5, 1.0, 1.5]

    def test_grid_pattern_and_determinism(self, matfiles, capsys):
        args = ["sweep", "--family", "epstein", "--p-grid", "0.5,1.5",
                "--s-grid", "1.0", "--trials", "60", "--seed", "5"]
        out1 = f"{matfiles['dir']}/g1.csv"
        out2 = f"{matfiles['dir']}/g2.csv"
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        t1, t2 = open(out1).read(), open(out2).read()
        assert t1 == t2
        rows = [line.split(",") for line in t1.splitlines()[1:]]
        verdicts = {float(r[0]): r[3] for r in rows}
        assert verdicts[0.5] == "concave-pass"
        assert verdicts[1.5] == "convex-pass"


class TestHunt:
    def test_certificate_file_and_replay(self, matfiles, capsys):
        cert_path = f"{matfiles['dir']}/cert.json"
        rc = main(["hunt", "--family", "epstein", "--p", "3", "--s", "0.3333",
                   "--direction", "convex", "--budget", "20000",
                   "--out", cert_path])
        assert rc == 2  # violation found
        payload = json.loads(open(cert_path).read())
        assert payload["found"] and payload["certificate"] is not None
        capsys.readouterr()
        assert main(["hunt", "--replay", cert_path]) == 0

    def test_violated_verify_certificate_replays_and_a_tampered_one_fails(self, tmp_path,
                                                                          capsys):
        out = tmp_path / "verify.json"
        rc = main(["verify", "--theorem", "T1.1-1", "--p", "0.5", "--q", "0.5",
                   "--s", "1.5", "--force", "--trials", "30", "--out", str(out)])
        assert rc == 2
        cert = json.loads(out.read_text())["report"]["worst_case"]
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        capsys.readouterr()
        assert main(["hunt", "--replay", str(path)]) == 0
        cert["lhs"] += 1.0
        path.write_text(json.dumps(cert))
        assert main(["hunt", "--replay", str(path)]) == 2
        assert "certificate failed replay" in capsys.readouterr().err

    def test_sound_certificate_file_replays(self, tmp_path, capsys):
        # the file TestBadInput breaks field by field
        path = tmp_path / "cert.json"
        path.write_text(_certificate())
        assert main(["hunt", "--replay", str(path)]) == 0

    def test_replay_of_a_hunt_without_certificate(self, matfiles, capsys):
        out = f"{matfiles['dir']}/none.json"
        assert main(["hunt", "--family", "mean", "--mean", "sum", "--p", "1",
                     "--q", "1", "--s", "1", "--direction", "concave",
                     "--budget", "5", "--out", out]) == 0
        assert json.loads(open(out).read())["certificate"] is None
        capsys.readouterr()
        assert main(["hunt", "--replay", out]) == 4
        assert "no certificate" in capsys.readouterr().err

    def test_affine_family_exhausts(self, capsys):
        rc = main(["hunt", "--family", "mean", "--mean", "sum", "--p", "1",
                   "--q", "1", "--s", "1", "--direction", "concave",
                   "--budget", "150"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert not payload["found"]
        assert payload["best_relative_violation"] <= 1e-8

    def test_nothing_evaluated_writes_valid_json(self, capsys):
        # A^500 overflows, so no hunt candidate and no verify trial evaluates;
        # the missing value is null, not -Infinity, which JSON does not have
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["hunt", "--family", "epstein", "--p", "500", "--s", "0.001",
                         "--direction", "convex", "--budget", "20", "--seed", "0"]) == 0
            hunt = json.loads(capsys.readouterr().out, parse_constant=refuse)
            assert main(["verify", "--theorem", "T3.1-1", "--p", "500", "--s", "0.001",
                         "--force", "--trials", "3"]) == 3
            verify = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert hunt["best_relative_violation"] is None and not hunt["found"]
        assert verify["report"]["worst_violation"] is None
        assert verify["report"]["failures"] == 3


class TestRegions:
    def test_listing_and_membership(self, capsys):
        assert main(["regions"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert main(["regions", "--theorem", "L5.4", "--p", "0.5", "--q", "1",
                     "--s", "1"]) == 0
        assert "member" in capsys.readouterr().out


_REGIONS_LISTING = """\
T1.1-1 [concave]: 0<=p,q<=1 and 1/2<=s<=1/(p+q), or -1<=p,q<=0 and 1/(p+q)<=s<=-1/2
T1.1-2 [convex]: 0<=p,q<=1 and -1/(p+q)<=s<=-1/2, or -1<=p,q<=0 and 1/2<=s<=-1/(p+q)
T2.2 [concave]: 0<=p,q<=1 and 0<s<=1/max(p,q), or -1<=p,q<=0 and 1/min(p,q)<=s<0
T3.1-1 [concave]: 0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0
T3.1-2-concave-recip [concave]: 0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0
T3.1-2-convex [convex]: -1<=p<0 and s>0, or 0<p<=1 and s<0, or 1<=p<=2 and s>=1
T3.2 [convex]: 1<=p<=2 and s>=1/p (CP map required)
P4.1-1 [concave]: 0<p<=1 and 0<s<=1/p, or -1<=p<0 and 1/p<=s<0
P4.1-2 [concave]: 0<p,q<=1 and 0<s<=1/(p+q), or -1<=p,q<0 and 1/(p+q)<=s<0
P4.4-1 [convex]: -1<=p<0 and s>0, or 1<=p<=2 and s>=1/p, or the (-p,-s) counterparts
P4.4-2 [convex]: six-case necessary condition list with (-p,-q,-s) counterparts
T5.1-1 [concave]: 0<=p,q<=1 and 0<s<=1/(p+q), or -1<=p,q<=0 and 1/(p+q)<=s<0
T5.1-2 [convex]: six-case condition list with (-p,-q,-s) counterparts
T5.2-1 [concave]: as T5.1-1, with p,q,s all non-zero
T5.2-2 [convex]: as T5.1-2, with p,q,s all non-zero
L5.4 [dominance]: p=q, 1<=p<q, p<q<=-1, (p<=-1, q>=1), 1/2<=p<1<=q, or p<=-1<q<=-1/2
"""


class TestPinnedOutput:
    """The catalog listing and the functional flags verify fills in."""

    def test_regions_listing(self, capsys):
        assert main(["regions"]) == 0
        assert capsys.readouterr().out == _REGIONS_LISTING

    @pytest.mark.parametrize("theorem,point,filled", [
        ("T2.2", ("0.6", "0.9", "1.1"),
         {"mean": "geometric", "antinorm": "kyfan-anti:1"}),
        ("T5.1-1", ("0.8", "0.8", "0.6"), {"antinorm": "lambda-min"}),
        ("T5.1-2", ("-0.5", "1.5", "1"), {"norm": "operator"}),
    ])
    def test_verify_config_fills_default_functional(self, theorem, point, filled,
                                                     capsys):
        p, q, s = point
        rc = main(["verify", "--theorem", theorem, "--p", p, "--q", q, "--s", s,
                   "--trials", "5"])
        assert rc == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"command": "verify", "theorem": theorem, "p": float(p),
                          "q": float(q), "s": float(s), "trials": 5, "dims": "2",
                          "seed": 0, "phi": "identity", "psi": "identity",
                          "force": False, **filled}


#: an on-region point of every id verify accepts
_VERIFY_POINTS = {
    "T1.1-1": ("0.7", "0.7", "0.6"), "T1.1-2": ("0.5", "0.5", "-0.7"),
    "T2.2": ("0.6", "0.9", "1.1"), "T3.1-1": ("0.5", "0", "1.5"),
    "T3.1-2-convex": ("1.5", "0", "1.2"), "T3.2": ("1.5", "0", "0.8"),
    "P4.1-1": ("0.5", "0", "1.5"), "P4.4-1": ("-0.5", "0", "1"),
    "T5.1-1": ("0.8", "0.8", "0.6"), "T5.1-2": ("-0.5", "1.5", "1"),
    "T5.2-1": ("0.8", "0.8", "0.6"), "T5.2-2": ("-0.5", "1.5", "1"),
    "L5.4": ("0.5", "1", "1"),
}


def _pinned_runs():
    """(name, argv) of the runs whose stdout ``python tests/test_cli.py``
    digests: ``verify`` for every accepted id, the hunts of acceptance
    criteria 4, 5 and 10 (criterion 4's map is read from X.json), an on-region
    hunt at n = 3 and two sweeps."""
    for theorem, (p, q, s) in _VERIFY_POINTS.items():
        yield f"verify {theorem}", ["verify", "--theorem", theorem, "--p", p, "--q", q,
                                    "--s", s, "--trials", "20"]
    yield "hunt criterion 4", ["hunt", "--family", "epstein", "--p", "1", "--s", "1.2",
                               "--phi", "conjugation:X.json", "--direction", "concave",
                               "--budget", "10000", "--seed", "45"]
    cube_sum = ["hunt", "--family", "mean", "--mean", "sum", "--p", "3", "--q", "3",
                "--s", str(1 / 3), "--budget", "100000"]
    yield "hunt criterion 5 concave", cube_sum + ["--direction", "concave", "--seed", "46"]
    yield "hunt criterion 5 convex", cube_sum + ["--direction", "convex", "--seed", "47"]
    yield "hunt criterion 10", ["hunt", "--family", "lieb", "--p", "1", "--q", "1",
                                "--s", "0.75", "--antinorm", "lambda-min",
                                "--direction", "concave", "--budget", "20000",
                                "--seed", "53"]
    yield "hunt lieb n=3", ["hunt", "--family", "lieb", "--p", "0.7", "--q", "0.7",
                            "--s", "0.714", "--direction", "concave", "--budget", "100",
                            "--dims", "3", "--seed", "1"]
    yield "sweep lieb", ["sweep", "--family", "lieb", "--p-grid", "0.5,1",
                         "--q-grid", "0.5", "--s-grid", "0.6,1.5", "--trials", "20"]
    yield "sweep epstein", ["sweep", "--family", "epstein", "--p-grid", "0.25:3:4",
                            "--s-grid", "0.5,1,2", "--trials", "20", "--seed", "5"]


if __name__ == "__main__":
    # byte-identity check of the CLI: compare these lines between two commits
    import contextlib
    import hashlib
    import io
    import os
    import tempfile

    from tracelab.linalg import rng_for

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the map file's name, not its directory, reaches stdout
        rng = rng_for(45, 0)
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        with open("X.json", "w", encoding="utf-8") as fh:
            json.dump(mat_to_json_rect(X), fh)
        for name, argv in _pinned_runs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(argv)
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            print(f"{rc} {digest} {name}", flush=True)
