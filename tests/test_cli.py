import json
import warnings
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
        assert set(rec) == {"integrand", "normal", "inf_est", "verdict", "per_level", "lower", "upper",
                            "certificate"}
        assert rec["inf_est"] == rec["lower"] == rec["upper"] == 1.0 and rec["certificate"] == [0.0]

    def test_qslb_check_nan_integrand_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "qslb-check", "--integrand", "pw1h:nan,nan", "--normal", "1")
        assert code == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_floats_written_as_null(self, tmp_path):
        path = tmp_path / "rec.json"
        cases = [
            ({"gap": float("nan"), "per_level": [float("-inf"), 1.5], "n": 2},
             {"gap": None, "per_level": [None, 1.5], "n": 2}),
            ({"rows": ((1.0, float("inf")), {"x": (np.float64("nan"),)}), "y": np.float64(2.5)},
             {"rows": [[1.0, None], {"x": [None]}], "y": 2.5}),
            ({"v": np.float64("-inf"), "w": {"z": {"u": float("nan")}}}, {"v": None, "w": {"z": {"u": None}}}),
        ]
        for record, expected in cases:
            _write_json(path, record)
            rec = json.loads(path.read_text(), parse_constant=_reject_constant)
            assert rec == expected

    def test_finite_record_is_one_sorted_line(self, tmp_path):
        path = tmp_path / "rec.json"
        record = {"z": [1.0, (2, 0.1 + 0.2)], "a": {"y": np.float64(1 / 3), "b": None, "x": True}, "m": "s"}
        _write_json(path, record)
        assert path.read_text() == json.dumps(record, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_text().count("\n") == 1

    def test_gym_record_round_trips_bit_for_bit(self, tmp_path):
        from bvgym.gym import GenYoungMeasure, default_dictionary, generate_from_fields, pairing
        from bvgym.relax import toy_field

        gm, _ = generate_from_fields([toy_field(n, 0.3) for n in (100, 300, 1000)])
        path = tmp_path / "lambda.json"
        _write_json(path, gm.to_record())
        back = GenYoungMeasure.from_record(json.loads(path.read_text()))
        for name in ("matrix_grid", "nu", "lam_density", "sphere_grid", "nu_inf_cells", "nu_inf_atoms"):
            a, b = getattr(gm, name), getattr(back, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert gm.mesh.nodes.tobytes() == back.mesh.nodes.tobytes()
        assert back.underlying.values.tobytes() == gm.underlying.values.tobytes()
        assert back.lam_atoms == gm.lam_atoms
        for _, g, v in default_dictionary():
            assert pairing(back, g, v) == pairing(gm, g, v)

    def test_qslb_check_writes_witness(self, tmp_path):
        code, out = run(tmp_path, "qslb-check", "--integrand", "linear_form:-1,0",
                        "--normal", "1,0", "--level", "2", "--budget", "800")
        assert code == 0
        rec = json.loads((out / "qslb_result.json").read_text())
        assert rec["verdict"] == "not_qslb"
        assert rec["lower"] <= rec["upper"] <= -0.1 and len(rec["certificate"]) == 1
        # the witness is a probability measure on the sphere with zero tau-moment
        wit = json.loads(Path(rec["witness_file"]).read_text())
        assert set(wit) == {"points", "weights"}
        points, weights = np.array(wit["points"]), np.array(wit["weights"])
        assert points.shape == (weights.size, 1, 2) and weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(weights @ points[:, 0, 1]) <= 1e-12  # tau = (0, 1) at the normal (1, 0)
        assert weights @ -points[:, 0, 0] == pytest.approx(rec["upper"], abs=1e-12)

    def test_parser_built_once(self, tmp_path):
        # two runs in one process share one parser and write byte-identical records
        from bvgym import cli

        assert cli.build_parser() is cli.build_parser()
        argv = ["--out", str(tmp_path), "qslb-check", "--integrand", "neg_abs", "--normal", "0.6,0.8"]
        files = []
        for _ in range(2):
            assert main(argv) == 0
            files.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
        assert sorted(files[0]) == ["qslb_result.json", "qslb_witness.json"]
        assert files[0] == files[1]

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

    def test_dm_convert_roundtrip_reports_nan_gap_as_null(self, tmp_path, monkeypatch):
        import bvgym.gym as gym

        code, out = run(tmp_path, "generate", "--sequence", "toy:0.5", "--n", "100,300,1000")
        assert code == 0
        calls, pairing = [], gym.pairing

        def one_nan(*args):  # the fourth pairing, of the converted-back measure, is NaN
            calls.append(args)
            return float("nan") if len(calls) == 4 else pairing(*args)

        monkeypatch.setattr(gym, "pairing", one_nan)
        code, out2 = run(tmp_path, "dm-convert", "--in", str(out / "lambda.json"), "--roundtrip")
        assert code == 0 and len(calls) > 4
        rec = json.loads((out2 / "dm_convert_report.json").read_text(), parse_constant=_reject_constant)
        assert rec["max_pairing_gap"] is None

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

    @pytest.mark.parametrize("flag", ["--tol", "--window"])
    def test_nan_tolerance_and_window_rejected(self, tmp_path, capsys, flag):
        code, out = run(tmp_path, "generate", "--sequence", "oscillation", "--n", "100", flag, "nan")
        assert code == 1
        assert _one_line_error(capsys) == f"error: {flag[2:]} must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tol", "--window"])
    def test_infinite_tolerance_and_window_run(self, tmp_path, flag):
        # an infinite tolerance accepts any pairing gap; an infinite window is one window
        code, out = run(tmp_path, "generate", "--sequence", "oscillation", "--n", "100", flag, "inf")
        assert code == 0
        assert (out / "lambda.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            code = main(["--out", str(out), "toy", "--eps", "0.3", "--levels", "6"])
            assert code == 0
            outs.append((out / "toy_result.json").read_bytes())
        assert outs[0] == outs[1]

    def test_negative_seed_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "jqcb-check", "--integrand", "neg_abs", "--normal", "0.6,0.8", "--seed", "-1")
        assert code == 1 and not out.exists()
        assert "seed" in _one_line_error(capsys)

    def test_seed_beyond_64_bits_runs(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "jqcb-check", "--integrand", "neg_abs", "--normal", "0.6,0.8",
                            "--seed", str(2**70))
        assert code == 0
        assert json.loads((out / "jqcb_result.json").read_text())["status"] == "disproved"

    def test_same_seed_byte_identical_jqcb_record(self, tmp_path):
        recs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["--out", str(out), "jqcb-check", "--integrand", "neg_abs", "--normal", "0.6,0.8",
                         "--seed", "7"]) == 0
            recs.append((out / "jqcb_result.json").read_bytes())
        assert recs[0] == recs[1]

    @pytest.mark.parametrize("integrand, status", [("neg_abs", "disproved"), ("abs", "not disproved")])
    def test_seed_leaves_the_jqcb_status(self, tmp_path, integrand, status):
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert main(["--out", str(out), "jqcb-check", "--integrand", integrand, "--normal", "0.6,0.8",
                         "--seed", seed]) == 0
            assert json.loads((out / "jqcb_result.json").read_text())["status"] == status

    @pytest.mark.parametrize("argv", [("--seed", "1", "qslb-check"), ("qslb-check", "--seed", "1")],
                             ids=["global", "qslb-check"])
    def test_seed_is_a_jqcb_check_flag_only(self, tmp_path, capsys, argv):
        # no other subcommand draws at random, so no other parser takes --seed
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv, "--integrand", "abs", "--normal", "1,0")
        assert exc.value.code == 2 and "bvgym: error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("n", ["0", "-3", "100,0"])
    def test_generate_with_fewer_than_one_cell_exits_1(self, tmp_path, capsys, n):
        code, out = run(tmp_path, "generate", "--sequence", "oscillation", "--n", n)
        assert code == 1
        assert "an interval mesh needs at least one cell" in _one_line_error(capsys)
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

    @pytest.mark.parametrize("argv, drop", [
        (("characterize", "--in"), ("nu",)), (("characterize", "--in"), ("underlying", "values")),
        (("dm-convert", "--in"), ("sphere_grid",)), (("dm-convert", "--in"), ("mesh", "nodes")),
        (("trace", "--pair"), ("alpha",)), (("trace", "--pair"), ("alpha", "atoms", 0, "direction")),
    ], ids=["characterize-nu", "characterize-underlying", "dm-convert-sphere_grid", "dm-convert-mesh",
            "trace-alpha", "trace-atom"])
    def test_record_missing_a_key_exits_1(self, tmp_path, capsys, argv, drop):
        from bvgym.relax import toy_limit_gym, toy_limit_pair

        obj = toy_limit_pair(0.5) if argv[0] == "trace" else toy_limit_gym(0.5)
        rec = obj.to_record()
        parent = rec
        for k in drop[:-1]:
            parent = parent[k]
        del parent[drop[-1]]
        path = tmp_path / "record.json"
        _write_json(path, rec)
        code, out = run(tmp_path, *argv, str(path))
        assert code == 1
        assert _one_line_error(capsys) == f"error: {drop[-1]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("lam_atoms", 5), ("mesh", [])], ids=["lam_atoms-int", "mesh-list"])
    def test_record_value_of_the_wrong_type_exits_1(self, tmp_path, capsys, key, value):
        from bvgym.relax import toy_limit_gym

        rec = toy_limit_gym(0.5).to_record()
        rec[key] = value
        path = tmp_path / "record.json"
        _write_json(path, rec)
        code, out = run(tmp_path, "characterize", "--in", str(path))
        assert code == 1
        assert _one_line_error(capsys).startswith(f"error: record key '{key}': ")
        assert not out.exists()

    def test_scalar_catalog_integrand_at_a_matrix_normal_exits_1(self, tmp_path, capsys):
        code, out = run(tmp_path, "qslb-check", "--integrand", "id", "--normal", "1,0")
        assert code == 1
        assert "catalog integrand 'id' is scalar" in _one_line_error(capsys)
        assert not out.exists()

    def test_dm_convert_roundtrip_on_a_disk_record(self, tmp_path):
        # the dictionary's test functions take one value per 2D point, so a disk record converts
        from bvgym.measures import DiskField
        from bvgym.meshes import disk_mesh
        from bvgym.soucek import soucek_pair, to_gym

        mesh = disk_mesh(1)
        xy = mesh.vertices
        b = xy[mesh.boundary_nodes[0]]
        gm = to_gym(soucek_pair(DiskField(mesh, xy[:, 0] ** 2 - 0.5 * xy[:, 1]), {tuple(b): 0.5 * b}))
        path = tmp_path / "disk.json"
        _write_json(path, gm.to_record())
        code, out = run(tmp_path, "dm-convert", "--in", str(path), "--roundtrip")
        assert code == 0
        assert json.loads((out / "dm_convert_report.json").read_text())["max_pairing_gap"] <= 1e-10

    def test_generate_nonconvergent_exits_1(self, tmp_path, capsys):
        # a window too coarse for the requested tolerance must be reported
        code, _ = run(tmp_path, "generate", "--sequence", "oscillation", "--n", "3,5,7",
                      "--window", "0.5", "--tol", "1e-9")
        assert code == 1
        assert "does not generate" in capsys.readouterr().err
