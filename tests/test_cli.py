"""Command-line contract: records, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import szaszlab
from szaszlab import ModelFidelityWarning, ParameterError, SpaceParams, SzaszQuery, classify, divergence_experiment
from szaszlab.cli import _build_query, _fidelity_warnings_to_stderr, _fmt, _parse_integer, _parse_list, main


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

    def test_n_too_large_for_a_float_exits_2_with_one_line(self, capsys):
        n = "1" + "0" * 400
        code = run_cli(["classify", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", n, "--family", "B"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("szaszlab classify: invalid params: n does not fit a float")
        assert err.count("\n") == 1

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

    def test_size_zero_row(self, capsys):
        # a witness of no terms has norm 0 and functional 0, and their ratio is nan
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "0", "--s", "0", "--p", "4",
             "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        assert code == 0
        assert capsys.readouterr().out == "size,space_norm,lhs,ratio\n0,0,0,nan\n"

    def test_random_size_zero_row(self, capsys):
        # a random field of no levels, then the size-2 field of its seed
        code = run_cli(
            ["experiment", "--kind", "random_bandlimited", "--sizes", "0,2", "--s", "0", "--p", "2",
             "--q", "2", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        assert code == 0
        header, first, second = capsys.readouterr().out.strip().split("\n")
        assert first == "0,0,0,nan" and second.startswith("2,")

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

    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_overflowing_level_weight_exit_3_with_trailer(self, capsys):
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "2", "--s", "2000", "--p", "4",
             "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        reason = "size 2: modulation weight a_1 ~ 2^(-1 * 2000.25) underflows to 0"
        out, err = capsys.readouterr()
        assert code == 3
        assert out == f"size,space_norm,lhs,ratio\n#error: {reason}\n"
        assert err == f"szaszlab experiment: {reason}\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--kind", "dilated_low", "--sizes", "1", "--s", "1e308", "--grid", "lo-band"],
             "witness coefficient 2^(1 * 1e+308)"),
            (["--kind", "modulated", "--sizes", "2000", "--s", "0", "--grid", "lo-band"],
             "K exceeds band: annulus C_2000"),
            (["--kind", "random_bandlimited", "--sizes", "2", "--s", "2000", "--grid", "mid-band"],
             "overflows a float: level weight 2^(8 * 2000.0)"),
        ],
        ids=["dilated_low", "modulated_K", "level_weight"],
    )
    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_overflow_names_its_quantity(self, argv, named):
        code, out, err = _run(["experiment", *argv, "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B"])
        assert code == 3
        assert named in err and err.count("\n") == 1
        assert "(34," not in out + err

    def test_empty_levels_weigh_nothing(self, capsys):
        # the size-0 witness is empty; at s = 300 its levels' weights 2^(300 j) leave the float range
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "0,1", "--s", "300", "--p", "2", "--q", "2",
             "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1] == "0,0,0,nan" and out.splitlines()[2].startswith("1,")

    @pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
    def test_quasi_norm_beyond_the_float_range_exit_3_with_trailer(self, capsys):
        # s = 0 leaves every level weight 1; the l_q sum's 2000th power does not fit a float
        code = run_cli(
            ["experiment", "--kind", "random_bandlimited", "--sizes", "2", "--s", "0", "--p", "2",
             "--q", "0.0005", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        reason = "size 2: quasi-norm exceeds the float range: a power sum to the power 1/0.0005"
        out, err = capsys.readouterr()
        assert code == 3
        assert out == f"size,space_norm,lhs,ratio\n#error: {reason}\n"
        assert err == f"szaszlab experiment: {reason}\n"

    @pytest.mark.parametrize("kind", ["modulated", "modulated_borderline"])
    def test_overflowing_modulation_weight_exit_3_under_python_m(self, tmp_path, kind):
        argv = ["experiment", "--kind", kind, "--sizes", "2", "--s", "0", "--p", "1e-300",
                "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(szaszlab.__file__).parents[1])] + sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "szaszlab.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        reason = ("size 2: a level weight or witness coefficient overflows a float: "
                  "modulation weight 2^(-k theta) at theta = -9.999999999999999e+299")
        assert proc.returncode == 3
        assert proc.stdout == f"size,space_norm,lhs,ratio\n#error: {reason}\n"
        assert proc.stderr == f"szaszlab experiment: {reason}\n"

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

    @pytest.mark.parametrize("sizes", ["2", ""])
    def test_blowup_below_its_regime_exit_2_empty_stdout(self, capsys, sizes):
        code = run_cli(
            ["experiment", "--kind", "lowfreq_blowup", "--sizes", sizes, "--s", "0.1", "--p", "2",
             "--q", "2", "--r", "1.5", "--n", "1", "--family", "B", "--grid", "mid-band"]
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("szaszlab experiment: invalid params: needs s > n/r") and err.count("\n") == 1

    def test_bad_kind_exit_2_no_file(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code = run_cli(
            ["experiment", "--kind", "bogus", "--sizes", "2", "--s", "0", "--p", "2",
             "--q", "2", "--r", "2", "--n", "1", "--family", "B", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "known: ('modulated'," in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--grid", "bogus", "known: ['hi-band', 'lo-band', 'mid-band']"),
         ("--seed", "-1", "seed must be an integer >= 0")],
    )
    @pytest.mark.parametrize("kind", ["modulated", "random_bandlimited"])
    def test_bad_grid_or_seed_exit_2_no_file(self, tmp_path, capsys, kind, flag, value, message):
        out = tmp_path / "e.csv"
        argv = {"--grid": "mid-band", "--seed": "0", flag: value}
        code = run_cli(
            ["experiment", "--kind", kind, "--sizes", "2", "--s", "0", "--p", "2", "--q", "2",
             "--r", "2", "--n", "1", "--family", "B", "--out", str(out)]
            + [token for item in argv.items() for token in item]
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("szaszlab experiment: ") and message in err
        assert err.count("\n") == 1

    def test_json_bytes(self, tmp_path):
        out = tmp_path / "e.json"
        code = run_cli(
            ["experiment", "--kind", "modulated", "--sizes", "2,10", "--s", "0", "--p", "4",
             "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band",
             "--format", "json", "--out", str(out)]
        )
        assert code == 3
        assert out.read_bytes() == (
            b'{"size": 2, "space_norm": "1.4496331555936059", "lhs": "5.2671572271223814", '
            b'"ratio": "3.6334414722775494"}\n'
            b'{"error": "size 10: K exceeds band: annulus C_10 needs 5/4*2^K <= 0.9 * xi_max"}\n'
        )


    def test_fidelity_warning_is_one_stderr_line_under_python_m(self, tmp_path, capsys):
        # every mid-band modulated record warns about the box boundary; the
        # CLI reports it once, in its own words, with stdout and exit unchanged
        argv = ["experiment", "--kind", "modulated", "--sizes", "2,4", "--s", "0", "--p", "4",
                "--q", "4", "--r", "2", "--n", "1", "--family", "B", "--grid", "mid-band"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(szaszlab.__file__).parents[1])] + sys.path)
        proc = subprocess.run(
            [sys.executable, "-m", "szaszlab.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert proc.returncode == 0
        assert proc.stderr == (
            "szaszlab experiment: warning: space norm: field is 1.27e-01 of its peak near the box "
            "boundary (tolerance 1e-12); periodization error may not be subdominant\n"
        )
        assert run_cli(argv) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_other_warnings_pass_through_and_filters_hold(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with _fidelity_warnings_to_stderr("experiment"):
                warnings.warn("unrelated", UserWarning)
                warnings.warn("strained", ModelFidelityWarning)
                warnings.warn("strained", ModelFidelityWarning)
        assert [str(w.message) for w in caught] == ["unrelated"]
        assert capsys.readouterr().err == "szaszlab experiment: warning: strained\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelFidelityWarning)
            with _fidelity_warnings_to_stderr("experiment"):
                warnings.warn("strained", ModelFidelityWarning)
        assert capsys.readouterr().err == ""


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

    def test_json_bytes(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli(
            ["sweep", "--s", "0,1", "--p", "2,inf", "--q", "2", "--r", "1.5", "--n", "1",
             "--family", "F", "--format", "json", "--out", str(out)]
        ) == 0
        assert out.read_bytes() == (
            b'{"s": "0", "p": "2", "q": "2", "r": "1.5", "n": 1, "family": "F", '
            b'"theta": "-0.16666666666666663", "weak": true, "strong": true}\n'
            b'{"s": "0", "p": "inf", "q": "2", "r": "1.5", "n": 1, "family": "F", '
            b'"theta": "0.33333333333333337", "weak": false, "strong": false}\n'
            b'{"s": "1", "p": "2", "q": "2", "r": "1.5", "n": 1, "family": "F", '
            b'"theta": "0.83333333333333337", "weak": true, "strong": false}\n'
            b'{"s": "1", "p": "inf", "q": "2", "r": "1.5", "n": 1, "family": "F", '
            b'"theta": "1.3333333333333335", "weak": false, "strong": false}\n'
        )

    def test_integer_n_is_read_exactly(self, capsys):
        # through float, 10^23 would print as 99999999999999991611392
        assert run_cli(["sweep", "--s", "0", "--p", "2", "--q", "2", "--r", "2",
                        "--n", "100000000000000000000000,2.0,1e3", "--family", "B"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[4] for row in rows] == ["100000000000000000000000", "2", "1000"]
        assert run_cli(["classify", "--s", "0", "--p", "2", "--q", "2", "--r", "2",
                        "--n", "100000000000000000000000", "--family", "B"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[:7] == rows[0][:6] + ["homogeneous"]
        # past int()'s limit on digits, still an integer, not the float inf
        assert run_cli(["sweep", "--s", "0", "--p", "2", "--q", "2", "--r", "2",
                        "--n", "1" * 5000, "--family", "B"]) == 2
        assert "n does not fit a float, got an integer of 5000 digits" in capsys.readouterr().err

    def test_pool_bytes(self, capsys):
        # the bench's classify-sweep pool in one call: 12 * 10 * 9 * 8 * 3 * 2 rows
        pool = {
            "s": ["-1", "0", "0.5", "0.8", "1", "1.5", "1.6", "2", "2.4", "3", "4", "6"],
            "p": ["0.5", "1", "1.5", "2", "3", "4", "5", "6", "11", "inf"],
            "q": ["0.5", "1", "2", "3", "5", "6", "7", "11", "inf"],
            "r": ["0.5", "1", "1.1", "1.2", "1.25", "1.5", "2", "3"],
        }
        argv = ["sweep"] + [f"--{name}=" + ",".join(values) for name, values in pool.items()]
        assert run_cli(argv + ["--n", "1,2,3", "--family", "B,F", "--out", "-"]) == 0
        out = capsys.readouterr().out.encode()
        assert out.count(b"\n") == 1 + 51840
        assert len(out) == 2462820
        assert hashlib.sha256(out).hexdigest() == (
            "75151f3fc11b483d686a6f821882e13d2fe314066e7f8d4f961f0a033a3cf9d7"
        )

    @pytest.mark.parametrize("n", ["inf", "1.7", "1,2.5"])
    def test_non_integer_n_exit_2(self, tmp_path, capsys, n):
        out = tmp_path / "s.csv"
        assert run_cli(
            ["sweep", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", n,
             "--family", "B", "--out", str(out)]
        ) == 2
        assert not out.exists()
        assert "n must be an integer, got" in capsys.readouterr().err


_CLASSIFY = ["classify", "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B"]
_EXPERIMENT = ["experiment", "--kind", "random_bandlimited", "--sizes", "0,2", "--seed", "5", "--grid", "mid-band",
               "--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B"]
_SWEEP = ["sweep", "--s", "0,1", "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B,F"]


def _with(argv: list, values: dict) -> list:
    """``argv`` with each flag of ``values`` set to its value, appended if absent."""
    argv = list(argv)
    for flag, value in values.items():
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    return argv


class TestReading:
    """One reader per value kind for every subcommand; the library judges what it reads."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, spelled, code",
        [
            (_CLASSIFY, {"--n": "2.0"}, 0),
            (_CLASSIFY, {"--n": "1e3"}, 0),
            (_EXPERIMENT, {"--n": "1.0", "--sizes": "0,2.0", "--seed": "5.0"}, 0),
            (_EXPERIMENT, {"--n": "1e3"}, 2),  # the grid is 1-dimensional
            (_SWEEP, {"--n": "2.0,1e3"}, 0),
        ],
        ids=["classify_n", "classify_n_exponent", "experiment", "experiment_n_exponent", "sweep_n"],
    )
    def test_integral_floats_read_as_integers(self, fmt, argv, spelled, code):
        as_integers = {flag: ",".join(str(int(float(v))) for v in text.split(",")) for flag, text in spelled.items()}
        got = _run(_with(argv, spelled) + ["--format", fmt])
        assert got == _run(_with(argv, as_integers) + ["--format", fmt])
        assert got[0] == code

    @pytest.mark.parametrize(
        "argv, flag, value",
        [(argv, flag, value)
         for argv in (_CLASSIFY, _EXPERIMENT, _SWEEP)
         for flag, value in [("--s", "abc"), ("--s", "nan"), ("--n", "1.5"), ("--family", "X"),
                             ("--setting", "x"), ("--sizes", "2.5"), ("--seed", "-1")]
         if flag in argv or flag == "--setting"],
        ids=lambda v: v[0] if isinstance(v, list) else str(v),
    )
    def test_rejected_value_exit_2_one_line(self, argv, flag, value):
        command = argv[0]
        code, out, err = _run(_with(argv, {flag: value}))  # argparse's SystemExit would fail here
        assert code == 2 and out == ""
        assert err.startswith(f"szaszlab {command}: ") and err.count("\n") == 1
        assert "usage:" not in err and "<lambda>" not in err

    @pytest.mark.parametrize("flag", ["--sizes", "--seed"])
    def test_overlong_literal_names_its_limit(self, flag):
        # past int()'s limit on digits; a size or seed never has to fit a float
        code, out, err = _run(_with(_EXPERIMENT, {flag: "1" * 5000}))
        assert code == 2 and out == ""
        name = flag[2:].rstrip("s")
        assert err == f"szaszlab experiment: invalid params: {name} is too long to read, got an integer of 5000 digits\n"


_ARGS = {
    "classify": ["--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B"],
    "experiment": ["--kind", "modulated", "--sizes", "2", "--grid", "mid-band", "--s", "0",
                   "--p", "4", "--q", "4", "--r", "2", "--n", "1", "--family", "B"],
    "sweep": ["--s", "0", "--p", "2", "--q", "2", "--r", "2", "--n", "1", "--family", "B"],
}


@pytest.mark.parametrize("command", sorted(_ARGS))
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
@pytest.mark.filterwarnings("ignore::szaszlab.ModelFidelityWarning")
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command, where):
    out = tmp_path / "no" / "such" / "x.csv" if where == "missing_dir" else tmp_path
    assert run_cli([command] + _ARGS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"szaszlab {command}: cannot write --out {out}")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


#: number-like command-line values: huge integers, infinities, a negative
#: zero, an underflowing literal, nan, a fraction, the empty string, and
#: ordinary exponents
_NUMBERS = st.one_of(
    st.sampled_from(["inf", "-inf", "-0", "1e-400", "nan", "1/2", "", "0", "1", "2", "0.5", "1.5", "3"]),
    st.integers(min_value=10**300, max_value=10**420).map(str),
    st.integers(min_value=10**300, max_value=10**420).map(lambda k: f"-{k}"),
)

_HUGE_N = "1" * 401


def _exit_code(argv) -> int:
    """main(argv)'s return value; stdout and stderr are dropped, and argparse's SystemExit fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _query_argv(values: dict) -> list:
    return [f"--{name}={value}" for name, value in values.items()]


_PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@_PROPERTY
@given(
    st.fixed_dictionaries({name: _NUMBERS for name in ("s", "p", "q", "r", "n")}),
    st.sampled_from(["B", "F"]),
)
@example({"s": "0", "p": "2", "q": "2", "r": "2", "n": _HUGE_N}, "B")
def test_classify_never_raises_on_number_like_values(values, family):
    # every value is judged by the command, none by argparse
    assert _exit_code(["classify", *_query_argv(values), "--family", family]) in (0, 2, 3)


@_PROPERTY
@given(
    st.fixed_dictionaries(
        {name: st.lists(_NUMBERS, max_size=3).map(",".join) for name in ("s", "p", "q", "r", "n")}
    ),
    st.sampled_from(["B", "F", "B,F"]),
)
@example({"s": "0", "p": "2", "q": "2", "r": "2", "n": _HUGE_N}, "B")
def test_sweep_never_raises_on_number_like_lists(values, family):
    assert _exit_code(["sweep", *_query_argv(values), "--family", family]) in (0, 2, 3)


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep_row_by_row(values: dict, family: str, fmt: str) -> tuple:
    """(exit code, stdout, stderr) of a sweep that builds, classifies and writes every row on its own."""
    header = ("s", "p", "q", "r", "n", "family", "theta", "weak", "strong")
    try:
        lists = [_parse_list(values[name], name) for name in ("s", "p", "q", "r")]
        lists.append(_parse_list(values["n"], "n", _parse_integer))
        rows = []
        for s, p, q, r, n, fam in itertools.product(*lists, family.split(",")):
            res = classify(_build_query(s, p, q, r, n, fam, "homogeneous"))
            rows.append((s, p, q, r, n, fam, res.theta, res.weak, res.strong))
    except ParameterError as exc:
        return 2, "", f"szaszlab sweep: {exc}\n"
    if fmt == "json":
        lines = [json.dumps({k: _fmt(v) if isinstance(v, float) else v for k, v in zip(header, row)})
                 for row in rows]
    else:
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return 0, "".join(line + "\n" for line in lines), ""


@_PROPERTY
@given(
    st.fixed_dictionaries(
        {name: st.lists(_NUMBERS, max_size=3).map(",".join) for name in ("s", "p", "q", "r", "n")}
    ),
    st.sampled_from(["B", "F", "B,F", "F,B"]),
    st.sampled_from(["csv", "json"]),
)
# several rejected values: the first rejected row in product order gives the message
@example({"s": "0", "p": "-1", "q": "2", "r": "2,-1", "n": "1"}, "B", "csv")
@example({"s": "0,inf", "p": "2,-1", "q": "2,-0", "r": "1,-1", "n": "1,0"}, "B,F", "json")
@example({"s": "1,inf", "p": "2", "q": "2", "r": "2,inf", "n": "1"}, "B,F", "json")
# signed zeros and a 1 beside True: texts kept by position, not by value
@example({"s": "-0,0,-0", "p": "1,inf", "q": "1", "r": "1,2", "n": "1,2"}, "B,F", "json")
@example({"s": "0,-0", "p": "2", "q": "1", "r": "1", "n": "1"}, "F", "csv")
def test_sweep_matches_a_row_by_row_sweep(values, family, fmt):
    argv = ["sweep", *_query_argv(values), "--family", family, "--format", fmt]
    assert _run(argv) == _sweep_row_by_row(values, family, fmt)
