import json
from pathlib import Path

import numpy as np
import pytest

from bvgym.cli import _write_json, main


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _one_line_error(capsys) -> str:
    """stderr of a run that must fail with one `error:` line and no traceback; the
    message is printed as written, not as the repr of an exception argument."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not err.startswith(("error: '", 'error: "'))
    return err


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main(["--out", str(out)] + list(argv)), out


class TestSubcommands:
    def test_toy(self, tmp_path):
        code, out = run(tmp_path, "toy", "--eps", "0.5", "--levels", "6", "--emit-plot-data")
        assert code == 0
        rec = json.loads((out / "toy_result.json").read_text())
        assert abs(rec["inf_direct"] - 0.375) <= 5e-3
        assert rec["toy_note"]["quoted_limit_matches"] is False
        assert (out / "toy_convergence.csv").exists()
        assert (out / "toy_minimizer.csv").exists()

    def test_qslb_check_abs(self, tmp_path):
        code, out = run(tmp_path, "qslb-check", "--integrand", "abs", "--normal", "1,0",
                        "--level", "2", "--budget", "400")
        assert code == 0
        rec = json.loads((out / "qslb_result.json").read_text())
        assert rec["verdict"] == "qslb"
        # the per-level "stages" diagnostics stay out of the result record
        assert set(rec) == {"integrand", "normal", "inf_est", "verdict", "per_level"}

    def test_qslb_check_nan_integrand_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "qslb-check", "--integrand", "pw1h:nan,nan", "--normal", "1")
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_floats_written_as_null(self, tmp_path):
        path = tmp_path / "rec.json"
        _write_json(path, {"gap": float("nan"), "per_level": [float("-inf"), 1.5], "n": 2})
        rec = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert rec == {"gap": None, "per_level": [None, 1.5], "n": 2}

    def test_qslb_check_writes_witness(self, tmp_path):
        code, out = run(tmp_path, "qslb-check", "--integrand", "linear_form:-1,0",
                        "--normal", "1,0", "--level", "2", "--budget", "800")
        assert code == 0
        rec = json.loads((out / "qslb_result.json").read_text())
        assert rec["verdict"] == "not_qslb"
        assert Path(rec["witness_file"]).exists()

    def test_jqcb_check(self, tmp_path):
        code, out = run(tmp_path, "jqcb-check", "--integrand", "neg_abs", "--normal", "1,0")
        assert code == 0
        rec = json.loads((out / "jqcb_result.json").read_text())
        assert rec["status"] == "disproved"

    def test_jqcb_check_nan_integrand_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "jqcb-check", "--integrand", "pw1h:nan,nan", "--normal", "1")
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_envelope(self, tmp_path):
        code, out = run(tmp_path, "envelope", "--integrand", "double_well_1d",
                        "--grid=-3,3,1201")
        assert code == 0
        lines = (out / "envelope.csv").read_text().splitlines()
        assert len(lines) == 1202

    def test_generate_and_dm_convert_and_characterize(self, tmp_path):
        code, out = run(tmp_path, "generate", "--sequence", "toy:0.5", "--n", "100,300,1000")
        assert code == 0
        lam = out / "lambda.json"
        code2, out2 = run(tmp_path, "dm-convert", "--in", str(lam), "--roundtrip")
        assert code2 == 0
        rec = json.loads((out2 / "dm_convert_report.json").read_text())
        assert rec["max_pairing_gap"] <= 1e-10
        code3, out3 = run(tmp_path, "characterize", "--in", str(lam))
        assert code3 == 0
        rec3 = json.loads((out3 / "characterize_result.json").read_text())
        assert rec3["all_pass"]

    def test_trace_toy(self, tmp_path):
        code, out = run(tmp_path, "trace", "--toy", "0.5")
        assert code == 0
        rec = json.loads((out / "trace_result.json").read_text())
        assert rec["outer"]["1.0"] == [0.75]
        assert rec["inner"]["1.0"] == [0.25]

    def test_trace_pair_file(self, tmp_path):
        from bvgym.relax import toy_limit_pair

        path = tmp_path / "pair.json"
        _write_json(path, toy_limit_pair(0.5).to_record())
        code, out = run(tmp_path, "trace", "--pair", str(path))
        assert code == 0
        rec = json.loads((out / "trace_result.json").read_text())
        assert rec["outer"]["1.0"] == [0.75] and rec["inner"]["1.0"] == [0.25]
        assert rec["green_residual"] <= 1e-9

    def test_relax_from_config(self, tmp_path):
        cfg = tmp_path / "toy.ini"
        cfg.write_text(
            "[domain]\nkind = interval\na = 0.0\nb = 1.0\n"
            "[f]\nweight = toy:0.5\n"
            "[g]\nleft = square_to:0.0\nright = square_to:1.0\n"
            "[bounds]\nC = 10.0\n"
            "[run]\nlevels = 4,6\nseed = 0\n"
        )
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 0
        rec = json.loads((out / "relax_result.json").read_text())
        assert abs(rec["min_gym"] - 0.375) <= 1e-2

    def test_relax_binding_bound_three_minima_agree(self, tmp_path):
        # C = 0.3 binds the traces; min_gym must stay the value of an admissible measure
        cfg = tmp_path / "c03.ini"
        cfg.write_text(
            "[f]\nweight = toy:0.25\n"
            "[g]\nleft = square_to:0.0\nright = square_to:1.0\n"
            "[bounds]\nC = 0.3\n[run]\nlevels = 4,6\n"
        )
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 0
        rec = json.loads((out / "relax_result.json").read_text())
        vals = [rec["inf_direct"], rec["min_extended"], rec["min_gym"]]
        assert max(vals) - min(vals) <= 1e-6
        assert rec["min_gym"] == pytest.approx(0.565, abs=1e-6)


class TestErrorsAndDeterminism:
    def test_unknown_integrand_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "qslb-check", "--integrand", "nope", "--normal", "1,0")
        assert code == 1
        assert _one_line_error(capsys).startswith("error: unknown integrand 'nope'; catalog:")

    def test_hypothesis_refusal_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[domain]\na = 0.0\nb = 1.0\n[f]\nweight = const:1.0\n"
            "[g]\nright = linear:-1.0\n[bounds]\nC = 10.0\n[run]\nlevels = 3\n"
        )
        code, _ = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 2
        assert "hypothesis refused" in capsys.readouterr().err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "relax", "--config", str(tmp_path / "missing.ini"))
        assert code == 1

    @pytest.mark.parametrize("command", ["qslb-check", "jqcb-check"])
    @pytest.mark.parametrize("normal", ["0,0", "nan,1"])
    def test_invalid_normal_exits_1(self, tmp_path, capsys, command, normal):
        code, out = run(tmp_path, command, "--integrand", "abs", "--normal", normal)
        assert code == 1
        assert "normal must be finite and nonzero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qslb-check", "jqcb-check"])
    def test_three_component_normal_exits_1(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, "--integrand", "abs", "--normal", "1,0,0")
        assert code == 1
        assert "v.dims = (1, 3) has N = 3; the half-ball is 2D" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("levels", ["0", "1", "-3"])
    def test_invalid_levels_exits_1(self, tmp_path, capsys, levels):
        code, out = run(tmp_path, "toy", "--eps", "0.5", "--levels", levels)
        assert code == 1
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "a,b,C,message",
        [
            ("0.0", "1.0", "nan", "infeasible bound C: C must be finite and > 0"),
            ("0.0", "1.0", "inf", "infeasible bound C: C must be finite and > 0"),
            ("0.0", "1.0", "-inf", "infeasible bound C: C must be finite and > 0"),
            ("0.0", "1.0", "0", "infeasible bound C: C must be finite and > 0"),
            ("0.0", "nan", "10.0", "domain must be finite with a < b"),
            ("1.0", "0.0", "10.0", "domain must be finite with a < b"),
        ],
    )
    def test_relax_invalid_config_exits_1(self, tmp_path, capsys, a, b, C, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            f"[domain]\na = {a}\nb = {b}\n[f]\nweight = const:1.0\n"
            f"[g]\nright = square_to:1.0\n[bounds]\nC = {C}\n[run]\nlevels = 3\n"
        )
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,entry,key",
        [
            ("[g]\nleft = square_to:nan\nright = square_to:1.0", "square_to:nan", "[g] left"),
            ("[g]\nright = abs_to:-inf", "abs_to:-inf", "[g] right"),
            ("[g]\nleft = linear:inf", "linear:inf", "[g] left"),
            ("[f]\nweight = const:nan\n[g]\nright = square_to:1.0", "const:nan", "[f] weight"),
            ("[f]\nweight = toy:inf", "toy:inf", "[f] weight"),
        ],
        ids=["left_square_nan", "right_abs_-inf", "left_linear_inf", "const_weight_nan",
             "toy_weight_inf"],
    )
    def test_relax_non_finite_parameter_exits_1(self, tmp_path, capsys, section, entry, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[domain]\na = 0.0\nb = 1.0\n{section}\n[run]\nlevels = 3\n")
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 1
        assert f"{key} = {entry}: the parameter must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tolerance_rejected(self, tmp_path, capsys):
        code, _ = run(tmp_path, "generate", "--sequence", "toy:0.5", "--tol", "-1")
        assert code == 1
        assert "positive" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            code = main(["--out", str(out), "--seed", "0", "toy", "--eps", "0.3", "--levels", "6"])
            assert code == 0
            outs.append((out / "toy_result.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["qslb-check", "jqcb-check"])
    def test_linear_form_coefficient_count_exits_1(self, tmp_path, capsys, command):
        # one coefficient for a 1x2 matrix must not broadcast to <(2, 2), A>
        code, out = run(tmp_path, command, "--integrand", "linear_form:2", "--normal", "1,0")
        assert code == 1
        assert "linear_form expects 2 coefficients, got 1" in _one_line_error(capsys)
        assert not out.exists()

    def test_weighted_integrand_not_in_catalog(self, tmp_path, capsys):
        # a spatial weight is the test function of a pairing, not a catalog integrand
        code, out = run(tmp_path, "qslb-check", "--integrand", "toy_weighted_abs:0.5", "--normal", "1")
        assert code == 1
        assert "unknown integrand" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [("trace", "--pair FILE or --toy EPS"),
                                               ("characterize", "--in FILE or --toy EPS")],
                             ids=["trace", "characterize"])
    def test_missing_input_exits_1(self, tmp_path, capsys, command, flags):
        code, out = run(tmp_path, command)
        assert code == 1
        assert flags in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan,1,5", "0,inf,5"])
    def test_envelope_non_finite_grid_exits_1(self, tmp_path, capsys, grid):
        code, out = run(tmp_path, "envelope", "--integrand", "abs", f"--grid={grid}")
        assert code == 1
        assert "the grid ends must be finite" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("generate", "--sequence", "toy:nan", "--n", "10,30,100"), ("characterize", "--toy", "nan"),
         ("trace", "--toy", "2")],
        ids=["generate", "characterize", "trace"],
    )
    def test_toy_eps_outside_unit_interval_exits_1(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 1
        assert "eps must lie in (0, 1)" in _one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qslb-check", "jqcb-check"])
    @pytest.mark.parametrize("integrand", ["pw1h:1", "pw1h:1,2,3", "pw1h", "pw1h:1,x"])
    def test_pw1h_parameter_count_exits_1(self, tmp_path, capsys, command, integrand):
        code, out = run(tmp_path, command, "--integrand", integrand, "--normal", "1")
        assert code == 1
        err = _one_line_error(capsys)
        assert "pw1h:c+,c-" in err and "unpack" not in err
        assert not out.exists()

    def test_relax_negative_weight_exits_2(self, tmp_path, capsys):
        # with both sides Neumann only the weight check sees the sign of w
        cfg = tmp_path / "neg.ini"
        cfg.write_text("[domain]\na = 0.0\nb = 1.0\n[f]\nweight = const:-1\n[run]\nlevels = 3\n")
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis refused: ") and err.count("\n") == 1
        assert "w(0) = -1" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,message",
        [("[f]\nweight = nope:1", "unknown integrand weight 'nope:1'"),
         ("[g]\nleft = nope:1", "unknown boundary penalty 'nope:1'")],
        ids=["weight", "penalty"],
    )
    def test_relax_unknown_name_exits_1(self, tmp_path, capsys, section, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"{section}\n[run]\nlevels = 3\n")
        code, out = run(tmp_path, "relax", "--config", str(cfg))
        assert code == 1
        assert _one_line_error(capsys).startswith(f"error: {message}; choose from")
        assert not out.exists()

    def test_generate_unknown_sequence_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "generate", "--sequence", "nope:1")
        assert code == 1
        assert "unknown sequence kind 'nope'" in _one_line_error(capsys)
        assert not out.exists()

    def test_integrand_without_recession_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "qslb-check", "--integrand", "sq", "--normal", "1,0")
        assert code == 1
        assert "integrand 'sq' has no recession function" in _one_line_error(capsys)
        assert not out.exists()

    def test_characterize_without_underlying_exits_1(self, tmp_path, capsys):
        from bvgym.gym import dirac_gym
        from bvgym.meshes import interval_mesh

        path = tmp_path / "dirac.json"
        _write_json(path, dirac_gym(interval_mesh(0, 1, 8), 0.0).to_record())
        code, out = run(tmp_path, "characterize", "--in", str(path))
        assert code == 1
        assert "requires an underlying deformation" in _one_line_error(capsys)
        assert not out.exists()

    def test_generate_nonconvergent_exits_1(self, tmp_path, capsys):
        # a window too coarse for the requested tolerance must be reported
        code, _ = run(tmp_path, "generate", "--sequence", "oscillation", "--n", "3,5,7",
                      "--window", "0.5", "--tol", "1e-9")
        assert code == 1
        assert "does not generate" in capsys.readouterr().err
