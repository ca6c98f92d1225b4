"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import json
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bvgym_cli():
    return worker.import_bvgym(ROOT)


def _inputs(path, monkeypatch, workload, seed):
    path.mkdir()
    monkeypatch.chdir(path)
    tasks = workloads.make_inputs(workload, seed, "w")
    files = {p.name: p.read_text() for p in sorted(Path("w").glob("*.ini"))}
    return json.dumps(tasks, sort_keys=True), files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, monkeypatch, workload):
    a = _inputs(tmp_path / "a", monkeypatch, workload, 7)
    b = _inputs(tmp_path / "b", monkeypatch, workload, 7)
    c = _inputs(tmp_path / "c", monkeypatch, workload, 8)
    assert a == b
    assert a != c


def test_same_seed_same_digests_and_objective(tmp_path, monkeypatch, bvgym_cli):
    monkeypatch.chdir(tmp_path)
    first = run._outcomes([worker.run_pass("young-measures", 3, workdir="w")])
    second = run._outcomes([worker.run_pass("young-measures", 3, workdir="w")])
    assert first["digests"] == second["digests"]
    assert first["objective_sum"] == second["objective_sum"]
    assert first["correct"]
    # the four known-defect probes fail at this commit and are counted
    assert first["failed"] == sum(1 for d in first["digests"].values() if d is None) == 4


def test_wrong_output_is_counted_as_failed(tmp_path, monkeypatch, bvgym_cli):
    import bvgym.relax

    monkeypatch.chdir(tmp_path)
    good = run._outcomes([worker.run_pass("young-measures", 3, workdir="w")])
    real = bvgym.relax.eval_Fhat
    monkeypatch.setattr(bvgym.relax, "eval_Fhat", lambda *a, **k: real(*a, **k) + 0.1)
    bad = run._outcomes([worker.run_pass("young-measures", 3, workdir="w")])
    assert not bad["correct"]
    assert bad["failed"] == good["failed"] + 3  # the three energy-toy tasks
    assert bad["objective_sum"] != good["objective_sum"]


def test_tracer_installs_and_restores(tmp_path, monkeypatch, bvgym_cli):
    import bvgym.gym
    import bvgym.meshes
    import bvgym.relax

    originals = (bvgym.gym.generate, bvgym.relax.disk_mesh, bvgym.meshes.TriMesh.gradients_of)
    monkeypatch.chdir(tmp_path)
    t = tracer.Tracer().install()
    try:
        assert bvgym.relax.disk_mesh is bvgym.meshes.disk_mesh is not originals[1]
        worker.run_pass("young-measures", 3, tracer=t, workdir="w")
    finally:
        t.uninstall()
    layers = t.aggregate()
    assert layers["gym.generate.calls"] == 5 and layers["gym.generate.s"] > 0
    assert layers["cli.main.self_s"] < layers["cli.main.s"]
    assert {s[4] for s in t.spans} >= {"gen-osc-0", "trace-toy-2"}
    assert (bvgym.gym.generate, bvgym.relax.disk_mesh,
            bvgym.meshes.TriMesh.gradients_of) == originals


def test_self_time_excludes_children_and_credits_reentry():
    spans = [
        ["relax.higher_dim_J", 0.0, 10.0, -1, "t", False],
        ["scipy.minimize", 1.0, 9.0, 0, "t", False],
        ["relax.higher_dim_J", 2.0, 7.0, 1, "t", True],  # objective called back
    ]
    out = tracer.aggregate(spans, {}, {})
    assert out["relax.higher_dim_J.s"] == 10.0
    assert out["relax.higher_dim_J.calls"] == 1
    assert out["relax.higher_dim_J.self_s"] == 2.0 + 5.0
    assert out["scipy.minimize.self_s"] == 3.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "young-measures", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_relax_config_known_answer_matches_a_grid_search():
    import numpy as np

    p = np.linspace(-3.0, 3.0, 600001)
    rng = np.random.default_rng(0)
    for right in ("square_to", "abs_to", "none"):
        for s, t, m in zip(rng.uniform(-1, 1, 20), rng.uniform(-1, 1.5, 20), rng.uniform(0.05, 2, 20)):
            d = np.abs(p - t)
            if right == "square_to":
                h = np.where(d <= m / 2, d**2, m * d - m**2 / 4)
            else:
                h = min(1.0, m) * d if right == "abs_to" else 0.0 * d
            grid = float(np.min((p - s) ** 2 + h))
            assert abs(workloads.relax_config_infimum(s, t, m, right) - grid) < 1e-5  # grid step


def test_relax_config_known_answer_matches_toy_closed_form():
    # square penalties to 0 and 1 with weight minimum eps: the toy problem
    for eps in (0.1, 0.5, 0.9):
        got = workloads.relax_config_infimum(0.0, 1.0, eps, "square_to")
        assert abs(got - workloads.toy_infimum(eps)) < 1e-8
