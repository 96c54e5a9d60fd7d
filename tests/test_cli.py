"""End-to-end command-line interface checks."""

import json

import numpy as np
import pytest

from tracelab.cli import main
from tracelab.linalg import SamplerConfig, mat_to_json, sample_posdef
from tracelab.posmaps import mat_to_json_rect


@pytest.fixture()
def matfiles(tmp_path):
    """JSON matrix fixtures shared by the subcommand tests."""
    paths = {}

    def dump(name, M):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(mat_to_json(np.asarray(M, dtype=complex))))
        paths[name] = str(path)

    dump("I2", np.eye(2))
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
                   "--dims", "4", "--a", matfiles["block"]])
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

    def test_malformed_matrix_fails(self, matfiles, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "re": [[1]]}')
        rc = main(["eval", "--family", "epstein", "--p", "1", "--s", "1",
                   "--a", str(bad)])
        assert rc != 0


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

    def test_unknown_theorem(self, capsys):
        rc = main(["verify", "--theorem", "T7.7", "--p", "1"])
        assert rc == 4


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


class TestRegions:
    def test_listing_and_membership(self, capsys):
        assert main(["regions"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert main(["regions", "--theorem", "L5.4", "--p", "0.5", "--q", "1",
                     "--s", "1"]) == 0
        assert "member" in capsys.readouterr().out
