"""Command-line contract: records, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from szaszlab import SpaceParams, SzaszQuery, classify, divergence_experiment
from szaszlab.cli import main


def run_cli(argv):
    return main(argv)


class TestClassifyCommand:
    def test_plancherel_record(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            ["classify", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1",
             "--family", "B", "--out", str(out)]
        )
        assert code == 0
        header, row = out.read_text().strip().split("\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["theta"] == "0"
        assert rec["weak"] == "true" and rec["strong"] == "true"
        assert "r<=2=pass" in rec["verdict_trace"]

    def test_large_r_is_weak_false(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli(
            ["classify", "--s", "0", "--p", "2", "--q", "2", "--r", "3", "--n", "1",
             "--family", "B", "--out", str(out)]
        ) == 0
        assert ",false,false," in out.read_text()

    def test_invalid_p_exits_2_and_writes_nothing(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_cli(
            ["classify", "--s", "0", "--p", "-1", "--q", "2", "--r", "2", "--n", "1",
             "--family", "B", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_inf_literal_round_trip(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli(
            ["classify", "--s", "0", "--p", "inf", "--q", "inf", "--r", "1", "--n", "1",
             "--family", "B", "--format", "json", "--out", str(out)]
        ) == 0
        rec = json.loads(out.read_text())
        assert rec["p"] == "inf" and rec["weak"] is True
        assert math.isinf(float(rec["p"]))


class TestExperimentCommand:
    def test_csv_contract_and_determinism(self, tmp_path):
        args = ["experiment", "--kind", "random_bandlimited", "--sizes", "2,4",
                "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1",
                "--family", "B", "--grid", "mid-band", "--seed", "5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "size,space_norm,lhs,ratio"
        assert len(lines) == 3
        # rows recomputable through the library
        q = SzaszQuery(SpaceParams(0.0, 2.0, 2.0, "B"), 2.0, 1)
        recs = divergence_experiment("random_bandlimited", q, [2, 4], grid="mid-band", seed=5)
        for line, rec in zip(lines[1:], recs):
            size, norm, lhs, ratio = line.split(",")
            assert int(size) == rec.size
            assert float(norm) == rec.space_norm  # 17 digits: exact round trip
            assert float(lhs) == rec.lhs
            assert float(ratio) == rec.ratio

    def test_empty_sizes_header_only(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "", "--s", "0", "--p", "4",
             "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "size,space_norm,lhs,ratio\n"

    def test_super_nyquist_exit_3_partial_csv(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "2,10", "--s", "0", "--p", "4",
             "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band",
             "--out", str(out)]
        )
        assert code == 3
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header, one good row, error marker
        assert lines[1].startswith("2,")
        assert lines[2].startswith("#error:")

    def test_dimension_mismatch_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "2", "--s", "0", "--p", "4",
             "--q", "4", "--r", "2", "--n", "3", "--family", "B", "--grid", "mid-band",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "n=3" in capsys.readouterr().err

    def test_bad_kind_exit_2_no_file(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run_cli(
            ["experiment", "--kind", "bogus", "--sizes", "2", "--s", "0", "--p", "2",
             "--q", "2", "--r", "2", "--n", "1", "--family", "B", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()


class TestSweepCommand:
    def test_cartesian_count_and_order(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "0,1", "--p", "1,2", "--q", "2", "--r", "2", "--n", "1",
             "--family", "B,F", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,p,q,r,n,family,theta,weak,strong"
        assert len(lines) == 1 + 2 * 2 * 2
        # lexicographic over the input lists, family varying fastest
        firsts = [ln.split(",")[:6] for ln in lines[1:]]
        assert firsts[0] == ["0", "1", "2", "2", "1", "B"]
        assert firsts[1] == ["0", "1", "2", "2", "1", "F"]
        assert firsts[2] == ["0", "2", "2", "2", "1", "B"]

    def test_rows_match_classifier(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "0,2", "--p", "2", "--q", "1,2", "--r", "2,3", "--n", "1",
             "--family", "B", "--out", str(out)]
        ) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            s, p, q, r, n, fam, theta, weak, strong = line.split(",")
            res = classify(SzaszQuery(SpaceParams(float(s), float(r), float(q), fam), float(p), int(n)))
            assert (weak == "true") == res.weak
            assert (strong == "true") == res.strong
            assert float(theta) == res.theta

    def test_empty_parameter_list(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "", "--p", "2", "--q", "2", "--r", "2", "--n", "1",
             "--family", "B", "--out", str(out)]
        ) == 0
        assert out.read_text() == "s,p,q,r,n,family,theta,weak,strong\n"

    def test_bad_family_exit_2(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1",
             "--family", "Z", "--out", str(out)]
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize("n", ["inf", "1.7", "1,2.5"])
    def test_non_integer_n_exit_2(self, tmp_path, capsys, n):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", n,
             "--family", "B", "--out", str(out)]
        ) == 2
        assert not out.exists()
        assert "n: must be an integer" in capsys.readouterr().err
