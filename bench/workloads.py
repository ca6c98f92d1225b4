"""Seeded workloads of the bvgym benchmark: inputs, tasks and correctness checks.

A workload is a fixed list of tasks.  The seed only jitters the numbers the
tasks receive (eps values, normals, sequence lengths, penalty targets), and
only a little, so that the work per pass and the reported minima stay
comparable between seeds while the inputs differ.

Every task goes through a public entry point: ``bvgym.cli.main`` with an
argument list, or a library function (``relax.higher_dim_J``,
``boundary.qslb_infimum``, ...).  ``run_task`` times only the calls into
bvgym; reading records back and checking them is not timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

WORKLOADS = ("relax-1d", "disk-2d", "halfball-verdicts", "young-measures")

TOY_TOL = 5e-3  # acceptance tolerance of the toy infimum
AGREE_TOL = 1e-2  # direct / extended / measure-level agreement
ROTATION_TOL = 1e-6
DM_ROUNDTRIP_TOL = 1e-10
GREEN_TOL = 1e-9
BUDGET = 4000  # descent budget of the half-ball verifiers


def _jitter(rng: random.Random, center: float, half_width: float) -> float:
    return center + rng.uniform(-half_width, half_width)


def _normal(rng: random.Random) -> tuple[float, float]:
    t = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(t), math.sin(t))


def _vec(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def toy_infimum(eps: float) -> float:
    """(2 eps - eps^2)/2, written out here so the check does not use bvgym."""
    return (2 * eps - eps**2) / 2


# ---------------------------------------------------------------------------
# input generation


def make_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Task list of one workload; writes the config files it needs under workdir.

    `workdir` is relative to the checkout root, so paths inside the result
    records do not depend on where the checkout lives.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    Path(workdir).mkdir(parents=True, exist_ok=True)
    make = {
        "relax-1d": _relax_1d,
        "disk-2d": _disk_2d,
        "halfball-verdicts": _halfball,
        "young-measures": _young,
    }[workload]
    tasks = make(rng, workdir)
    for t in tasks:
        t.setdefault("probe", None)
        t["out"] = f"{workdir}/{t['id']}"
    return tasks


def _relax_1d(rng: random.Random, workdir: str) -> list[dict]:
    tasks = []
    # eps sweep across [0.05, 0.95]: --levels 8 solves levels 4,6,8, --levels 10 solves 6,8,10
    for k, (center, levels) in enumerate(((0.25, 8), (0.75, 10))):
        eps = round(_jitter(rng, center, 0.004), 6)
        tasks.append({"id": f"toy-{k}", "kind": "cli", "check": "toy", "eps": eps,
                      "argv": ["toy", "--eps", repr(eps), "--levels", str(levels)],
                      "expect_exit": 0})
    # config files: a Latin square over weight (const/toy) x penalty at x=1
    # (square_to/abs_to/none/linear), with a square penalty at x=0 so every
    # problem has a nontrivial transition; the linear penalty must be refused
    for wkind, pkind in (("const", "square_to"), ("toy", "abs_to"), ("const", "none"),
                         ("toy", "linear")):
        wpar = round(_jitter(rng, 0.6 if wkind == "const" else 0.3, 0.004), 6)
        s = round(_jitter(rng, -0.3, 0.004), 6)
        t = round(_jitter(rng, 0.8, 0.004), 6)
        right = "none" if pkind == "none" else f"{pkind}:{t}"
        cid = f"cfg-{wkind}-{pkind}"
        path = f"{workdir}/{cid}.ini"
        Path(path).write_text(
            "[domain]\na = 0\nb = 1\n"
            f"[f]\nweight = {wkind}:{wpar}\n"
            f"[g]\nleft = square_to:{s}\nright = {right}\n"
            "[run]\nlevels = 4\n"
        )
        # the cheapest jump costs the weight's minimum: c for const:c, eps at x=1 for toy:eps
        tasks.append({"id": cid, "kind": "cli", "check": "relax_config",
                      "argv": ["relax", "--config", path],
                      "expect_exit": 2 if pkind == "linear" else 0,
                      "known": {"s": s, "t": t, "m": wpar, "right": pkind}})
    return tasks


def _disk_2d(rng: random.Random, workdir: str) -> list[dict]:
    # eps stays <= 0.5: near 0.8 the minimizer is u = 0 and J stops moving
    spec = (("sin", 0.35, 2), ("cos2", 0.25, 3))
    return [{"id": f"disk-{ubar}-l{level}", "kind": "disk", "check": "disk",
             "eps": round(_jitter(rng, eps, 0.01), 6), "ubar": ubar, "level": level,
             "refinements": 2}
            for ubar, eps, level in spec]


def _halfball(rng: random.Random, workdir: str) -> list[dict]:
    n = [_normal(rng) for _ in range(7)]
    lvl = ["--level", "3", "--budget", str(BUDGET)]
    lin = "linear_form:" + _vec([-x for x in n[1]])
    return [
        {"id": "qslb-abs", "kind": "cli", "check": "qslb", "verdict": "qslb", "expect_exit": 0,
         "argv": ["qslb-check", "--integrand", "abs", f"--normal={_vec(n[0])}", *lvl]},
        {"id": "qslb-linear", "kind": "cli", "check": "qslb", "verdict": "not_qslb",
         "expect_exit": 0,
         "argv": ["qslb-check", f"--integrand={lin}", f"--normal={_vec(n[1])}", *lvl]},
        {"id": "qslb-neg_abs", "kind": "cli", "check": "qslb", "verdict": "not_qslb",
         "expect_exit": 0,
         "argv": ["qslb-check", "--integrand", "neg_abs", f"--normal={_vec(n[2])}", *lvl]},
        {"id": "jqcb-neg_abs", "kind": "cli", "check": "jqcb", "status": "disproved",
         "expect_exit": 0,
         "argv": ["jqcb-check", "--integrand", "neg_abs", f"--normal={_vec(n[2])}",
                  "--budget", str(BUDGET)]},
        {"id": "jqcb-abs", "kind": "cli", "check": "jqcb", "status": "not disproved",
         "expect_exit": 0,
         "argv": ["jqcb-check", "--integrand", "abs", f"--normal={_vec(n[0])}",
                  "--budget", str(BUDGET)]},
        {"id": "qslb-abs-2x2", "kind": "qslb_lib", "check": "qslb", "verdict": "qslb",
         "integrand": "abs2x2", "normal": n[3], "level": 3},
        {"id": "qslb-aniso-fd", "kind": "qslb_lib", "check": "qslb", "verdict": "qslb",
         "integrand": "aniso", "normal": n[4], "level": 3},
        {"id": "rotation", "kind": "rotation", "check": "rotation", "normals": (n[5], n[6])},
        {"id": "probe-normal-zero", "kind": "cli", "check": "exit_only", "expect_exit": 1,
         "argv": ["qslb-check", "--integrand", "abs", "--normal", "0,0",
                  "--level", "2", "--budget", "2000"],
         "probe": "qslb-check accepts the zero normal: exits 0 with verdict qslb"},
        {"id": "probe-normal-nan", "kind": "cli", "check": "exit_only", "expect_exit": 1,
         "argv": ["qslb-check", "--integrand", "abs", "--normal", "nan,1",
                  "--level", "2", "--budget", "2000"],
         "probe": "qslb-check accepts a NaN normal: exits 0 with verdict qslb"},
    ]


def _young(rng: random.Random, workdir: str) -> list[dict]:
    tasks = []
    for k, top in enumerate((3000, 10000)):
        n3 = top + rng.randint(-top // 50, top // 50)
        gid = f"gen-osc-{k}"
        rec = f"{workdir}/{gid}/lambda.json"
        probe = ("GenYoungMeasure.from_record cannot read the atomless record that "
                 "generate --sequence oscillation writes (cannot reshape array of size 0)")
        tasks += [
            {"id": gid, "kind": "cli", "check": "generate", "expect_exit": 0,
             "argv": ["generate", "--sequence", "oscillation", "--n", f"100,1000,{n3}"]},
            {"id": f"dm-osc-{k}", "kind": "cli", "check": "dm_roundtrip", "expect_exit": 0,
             "argv": ["dm-convert", "--in", rec, "--roundtrip"], "probe": probe},
            {"id": f"char-osc-{k}", "kind": "cli", "check": "exit_only", "expect_exit": 0,
             "argv": ["characterize", "--in", rec], "probe": probe},
        ]
    for k, center in enumerate((0.2, 0.5, 0.8)):
        eps = round(_jitter(rng, center, 0.005), 6)
        gid = f"gen-toy-{k}"
        rec = f"{workdir}/{gid}/lambda.json"
        pair = f"{workdir}/pair-toy-{k}/pair.json"
        tasks += [
            {"id": gid, "kind": "cli", "check": "generate", "expect_exit": 0,
             "argv": ["generate", "--sequence", f"toy:{eps}", "--n", "100,300,1000"]},
            {"id": f"energy-toy-{k}", "kind": "fhat", "check": "fhat", "eps": eps, "record": rec},
            {"id": f"dm-toy-{k}", "kind": "cli", "check": "dm_roundtrip", "expect_exit": 0,
             "argv": ["dm-convert", "--in", rec, "--roundtrip"]},
            {"id": f"char-toy-{k}", "kind": "cli", "check": "characterize", "expect_exit": 0,
             "argv": ["characterize", "--in", rec]},
            {"id": f"pair-toy-{k}", "kind": "pair", "check": "pair", "eps": eps,
             "record": rec, "pair": pair},
            {"id": f"trace-toy-{k}", "kind": "cli", "check": "trace", "eps": eps,
             "expect_exit": 0, "argv": ["trace", "--pair", pair]},
        ]
    return tasks


# ---------------------------------------------------------------------------
# running one task


def _ubar(name: str):
    import numpy as np

    def ang(p):
        p = np.asarray(p, dtype=float)
        return np.arctan2(p[:, 1], p[:, 0])

    return {
        "sin": lambda p: np.sin(ang(p)),
        "cos2": lambda p: np.cos(2 * ang(p)),
    }[name]


def _aniso(rho):
    """Anisotropic norm sqrt((A rho)^2 + 4 (A tau)^2) in the frame of rho.

    It has no grad_fn, so descents take the finite-difference path.
    """
    import numpy as np
    from bvgym.integrands import HomogeneousIntegrand

    rho = np.asarray(rho, dtype=float)
    tau = np.array([-rho[1], rho[0]])
    return HomogeneousIntegrand(
        (1, 2), lambda S: np.sqrt((S[..., 0, :] @ rho) ** 2 + 4.0 * (S[..., 0, :] @ tau) ** 2),
        name="aniso")


def _call(task: dict):
    """The timed part of a task: calls into bvgym only.  Returns its raw result."""
    from bvgym import boundary, cli, gym, relax, soucek
    from bvgym.integrands import hom_abs

    kind = task["kind"]
    if kind == "cli":
        try:
            return cli.main(["--out", task["out"], *task["argv"]])
        except SystemExit as e:  # argparse errors exit as a shell user sees them
            return e.code if isinstance(e.code, int) else 1
    if kind == "disk":
        return relax.higher_dim_J(task["eps"], _ubar(task["ubar"]), level=task["level"],
                                  refinements=task["refinements"])
    if kind == "qslb_lib":
        # aligned with the normal's frame, the anisotropic problem is the same for every normal
        v = hom_abs((2, 2)) if task["integrand"] == "abs2x2" else _aniso(task["normal"])
        return boundary.qslb_infimum(v, task["normal"], mesh_level=task["level"],
                                     iter_budget=BUDGET)
    if kind == "rotation":
        r1, r2 = task["normals"]
        return boundary.rotation_equivariance_check(_aniso((1.0, 0.0)), r1, r2)
    with open(task["record"]) as f:
        gm = gym.GenYoungMeasure.from_record(json.load(f))
    if kind == "fhat":
        beta = dict(gym.gym_traces(gm)["outer"])
        return relax.eval_Fhat(gm, beta, relax.toy_spec(task["eps"]), strict=False)
    if kind == "pair":
        pair = soucek.from_gym(gm)
        back = soucek.to_gym(pair)
        Path(task["pair"]).parent.mkdir(parents=True, exist_ok=True)
        with open(task["pair"], "w") as f:
            json.dump(pair.to_record(), f, sort_keys=True)
        return {"mass": sum(m for _, m in gm.lam_atoms),
                "back_mass": sum(m for _, m in back.lam_atoms)}
    raise KeyError(f"unknown task kind {kind!r}")


def run_task(task: dict) -> dict:
    """Run one task, check it, and return its outcome record."""
    out = Path(task["out"])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        raw = _call(task)
        error = None
    except Exception as e:  # a task that raises is a failed task, not a broken run
        raw, error = None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    res = {"id": task["id"], "seconds": seconds, "probe": task["probe"], "objective": None,
           "digest": None}
    if error is not None:
        res.update(ok=False, detail=f"raised {error}")
        return res
    try:
        ok, detail, objective, record = CHECKS[task["check"]](task, raw)
    except (OSError, KeyError, ValueError, TypeError) as e:
        ok, detail, objective, record = False, f"unreadable result: {type(e).__name__}: {e}", None, None
    res.update(ok=bool(ok), detail=detail, objective=objective)
    if ok:
        res["digest"] = _digest(out, record)
    return res


def _digest(out: Path, record) -> str:
    """sha256 of the task's result record, to show a later change is bit-identical."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(out).as_posix().encode())
            h.update(p.read_bytes())
    if record is not None:
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks: (task, raw result) -> (ok, detail, objective or None, extra record or None)


def _load(task: dict, name: str) -> dict:
    with open(Path(task["out"]) / name) as f:
        return json.load(f)


def _exit(task: dict, code) -> str | None:
    if code != task["expect_exit"]:
        return f"exit {code}, expected {task['expect_exit']}"
    return None


def _check_exit_only(task, code):
    bad = _exit(task, code)
    return bad is None, bad or "exit code as expected", None, None


def _three_way(rec: dict) -> float:
    vals = (rec["inf_direct"], rec["min_extended"], rec["min_gym"])
    return max(vals) - min(vals)


def _check_toy(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    rec = _load(task, "toy_result.json")
    err = abs(rec["inf_direct"] - toy_infimum(task["eps"]))
    spread = _three_way(rec)
    ok = err <= TOY_TOL and spread <= AGREE_TOL
    return ok, f"|inf - closed form| {err:.2e}, three-way spread {spread:.2e}", rec["inf_direct"], None


def relax_config_infimum(s: float, t: float, m: float, right: str) -> float:
    """inf over (p, q) of (p - s)^2 + g(q) + m |q - p|, in closed form.

    The inner minimum over q is h(|p - t|): a Huber function for the square
    penalty (d^2 up to d = m/2, then m d - m^2/4), min(1, m) d for the
    absolute one, 0 without a penalty.  The outer minimum over p of the convex
    (p - s)^2 + h(|p - t|) is where its subgradient holds 0, which gives the cases
    below with D = |s - t|.
    """
    D = abs(s - t)
    if right == "square_to":
        return D**2 / 2 if D <= m else m * D - m**2 / 2
    if right == "abs_to":
        c = min(1.0, m)
        return D**2 if D <= c / 2 else c * D - c**2 / 4
    return 0.0


def _check_relax_config(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    if code == 2:
        return True, "refused with exit 2", None, None
    rec = _load(task, "relax_result.json")
    known = relax_config_infimum(**task["known"])
    err = abs(rec["inf_direct"] - known)
    spread = _three_way(rec)
    ok = err <= TOY_TOL and spread <= AGREE_TOL
    return ok, f"|inf - known| {err:.2e}, three-way spread {spread:.2e}", rec["inf_direct"], None


def _check_disk(task, res):
    Js = [row["J"] for row in res["table"]]
    finite = all(math.isfinite(J) for J in Js)
    monotone = all(b <= a for a, b in zip(Js, Js[1:]))
    ok = finite and monotone and len(Js) == task["refinements"] + 1
    record = {"inf_est": res["inf_est"], "table": res["table"],
              "gamma1_length": res["gamma1_length"]}
    return ok, f"J per level {[round(J, 6) for J in Js]}", res["inf_est"], record


def _check_qslb(task, raw):
    if task["kind"] == "cli":
        bad = _exit(task, raw)
        if bad:
            return False, bad, None, None
        rec = _load(task, "qslb_result.json")
        verdict, inf_est, record = rec["verdict"], rec["inf_est"], None
    else:
        verdict, inf_est = raw["verdict"], raw["inf_est"]
        record = {"verdict": verdict, "inf_est": inf_est,
                  "per_level": [float(x) for x in raw["per_level"]]}
    ok = verdict == task["verdict"] and math.isfinite(inf_est)
    return ok, f"verdict {verdict} (expected {task['verdict']}), inf_est {inf_est:.6g}", inf_est, record


def _check_jqcb(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    rec = _load(task, "jqcb_result.json")
    ok = rec["status"] == task["status"]
    return ok, f"status {rec['status']} (expected {task['status']})", None, None


def _check_rotation(task, res):
    ok = res["gap"] <= ROTATION_TOL and math.isfinite(res["inf1"])
    return ok, f"rotation gap {res['gap']:.2e}", None, {k: float(v) for k, v in res.items()}


def _check_generate(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    rep = _load(task, "generate_report.json")
    return bool(rep["converged"]), f"converged {rep['converged']}, max gap {rep['max_gap']:.2e}", None, None


def _check_dm_roundtrip(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    gap = _load(task, "dm_convert_report.json")["max_pairing_gap"]
    return gap <= DM_ROUNDTRIP_TOL, f"round-trip gap {gap:.2e}", None, None


def _check_characterize(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    ok = _load(task, "characterize_result.json")["all_pass"]
    return bool(ok), f"all_pass {ok}", None, None


def _check_fhat(task, value):
    # the generated toy measure attains the toy infimum in the relaxed functional
    err = abs(value - toy_infimum(task["eps"]))
    return err <= TOY_TOL, f"F-hat {value:.6f}, |F-hat - closed form| {err:.2e}", value, {"fhat": value}


def _check_pair(task, res):
    ok = abs(res["mass"] - res["back_mass"]) <= DM_ROUNDTRIP_TOL and abs(
        res["mass"] - (1 - task["eps"])) <= TOY_TOL
    return ok, f"concentration mass {res['mass']:.6f}, after to_gym {res['back_mass']:.6f}", None, res


def _check_trace(task, code):
    bad = _exit(task, code)
    if bad:
        return False, bad, None, None
    rec = _load(task, "trace_result.json")
    eps = task["eps"]
    inner1, outer1 = rec["inner"]["1.0"][0], rec["outer"]["1.0"][0]
    err = max(abs(inner1 - eps / 2), abs(outer1 - (1 - eps / 2)))
    ok = err <= TOY_TOL and rec["green_residual"] <= GREEN_TOL
    return ok, f"traces at 1: inner {inner1:.4f} outer {outer1:.4f}, residual {rec['green_residual']:.1e}", None, None


CHECKS = {
    "exit_only": _check_exit_only,
    "toy": _check_toy,
    "relax_config": _check_relax_config,
    "disk": _check_disk,
    "qslb": _check_qslb,
    "jqcb": _check_jqcb,
    "rotation": _check_rotation,
    "generate": _check_generate,
    "dm_roundtrip": _check_dm_roundtrip,
    "characterize": _check_characterize,
    "fhat": _check_fhat,
    "pair": _check_pair,
    "trace": _check_trace,
}
