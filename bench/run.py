"""bvgym benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  Each pass over a workload's task list runs
in a fresh interpreter (bench/worker.py) as a closed loop with one caller, so
every pass pays the first-call costs a command-line user pays.  Passes repeat
for --seconds (at least three), and the reported times are medians.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics plus the tracing overhead.
The last line of the output is one JSON object.  `--workload all` runs every
workload both ways and prints everything by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from worker import OUT, WORK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "objective_sum": "1",
}
MIN_PASSES = 3
SETUP_SAMPLES = 5
RUN_CAP_S = 150.0  # a run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], started: float) -> dict:
    timeout = RUN_CAP_S + 20 - (time.perf_counter() - started)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              capture_output=True, text=True, env=_env(), timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds` (at least MIN_PASSES) and collect them."""
    started = time.perf_counter()
    base = ["--workload", workload, "--seed", str(seed)]
    untraced, traced = [], []
    while True:
        n = len(untraced) + len(traced)
        elapsed = time.perf_counter() - started
        if n >= MIN_PASSES:
            est = statistics.median(p["elapsed"] for p in untraced + traced)
            if elapsed + est > seconds or elapsed + est > RUN_CAP_S:
                break
        use_trace = trace and n % 2 == 1
        t0 = time.perf_counter()
        res = _worker(base + ["--trace", "1" if use_trace else "0"], started)
        res["elapsed"] = time.perf_counter() - t0
        (traced if use_trace else untraced).append(res)
    setups = [p["setup_s"] for p in untraced]
    while not trace and len(setups) < SETUP_SAMPLES and time.perf_counter() - started < RUN_CAP_S:
        setups.append(_worker(base + ["--setup-only"], started)["setup_s"])
    try:
        os.rmdir(WORK)  # each worker removes its own directory; drop the empty parent
    except OSError:
        pass
    return {"untraced": untraced, "traced": traced, "setup_samples": setups}


def _outcomes(passes: list[dict]) -> dict:
    """Failure counts, correctness and determinism over all passes."""
    first = passes[0]["tasks"]
    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(not t["ok"] for p in passes for t in p["tasks"])
    problems = []
    for p in passes:
        for t in p["tasks"]:
            if not t["ok"] and not t["probe"]:
                problems.append(f"{t['id']}: {t['detail']}")
    ref = [(t["id"], t["ok"], t["digest"], t["objective"]) for t in first]
    for p in passes[1:]:
        if [(t["id"], t["ok"], t["digest"], t["objective"]) for t in p["tasks"]] != ref:
            problems.append("passes with the same seed disagree on outcomes or result digests")
    objectives = [t["objective"] for t in first if t["objective"] is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "objective_sum": float(sum(objectives)),
        "digests": {t["id"]: t["digest"] for t in first},
    }


def end_to_end(m: dict) -> dict:
    passes = m["untraced"]
    out = _outcomes(passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(m["setup_samples"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": 1.0 - out["failed"] / out["attempted"],
        "objective_sum": out["objective_sum"],
    }
    return {**out, "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}}


def per_layer(m: dict) -> dict:
    out = _outcomes(m["untraced"] + m["traced"])
    layers = [p["layers"] for p in m["traced"]]
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        values[name] = statistics.median(float(ly.get(name, 0.0)) for ly in layers)
    traced_wall = statistics.median(p["wall_s"] for p in m["traced"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in m["untraced"])
    return {**out, "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}}


def _print_tasks(passes: list[dict]) -> None:
    print(f"{'task':<22} {'result':<7} {'seconds':>8}  {'digest':<16}  detail")
    for t in passes[0]["tasks"]:
        mark = "ok" if t["ok"] else ("DEFECT" if t["probe"] else "FAIL")
        print(f"{t['id']:<22} {mark:<7} {t['seconds']:8.3f}  {t['digest'] or '-':<16}  {t['detail']}")
    probes = [t for t in passes[0]["tasks"] if t["probe"] and not t["ok"]]
    for t in probes:
        print(f"known defect, counted as failed: {t['id']}: {t['probe']}")


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, mv in metrics.items():
        print(f"  {name:<50} {mv['value']:>16.6g} {mv['unit']}")


def _write_digests(workload: str, seed: int, digests: dict) -> None:
    Path(OUT).mkdir(exist_ok=True)
    with open(f"{OUT}/digests-{workload}-seed{seed}.json", "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)


def _compare_digests(report: dict, baseline: Path) -> None:
    """Say which result records are bit-identical to the recorded baseline."""
    if not baseline.is_file():
        return
    with open(baseline) as f:
        base = json.load(f)
    for w, r in report.items():
        ref = base.get(w, {}).get("digests", {})
        same = [t for t, d in r["digests"].items() if d is not None and ref.get(t) == d]
        differ = [t for t, d in r["digests"].items() if ref.get(t) != d]
        print(f"{w:<18} result digests vs {baseline.name}: {len(same)} identical, "
              f"{len(differ)} different {differ}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    m = measure(workload, seed, seconds, trace)
    res = per_layer(m) if trace else end_to_end(m)
    passes = m["untraced"] + m["traced"]
    print(f"== {workload} seed {seed}: {len(m['untraced'])} untraced and "
          f"{len(m['traced'])} traced passes, {len(m['setup_samples'])} set-up samples")
    _print_tasks(passes)
    for kind in ("untraced", "traced"):
        if m[kind]:
            print(f"{kind} pass wall_s: {[round(p['wall_s'], 4) for p in m[kind]]}")
    for p in res["problems"]:
        print(f"INCORRECT: {p}")
    _print_metrics("per-layer metrics (traced)" if trace else "end-to-end metrics (untraced)",
                   res["metrics"])
    _write_digests(workload, seed, res["digests"])
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bvgym benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (Path("src") / "bvgym" / "__init__.py").is_file():
        print("error: run from the root of a bvgym checkout (src/bvgym not found)", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            res = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        report = {}
        for w in WORKLOADS:
            e2e = run_one(w, args.seed, args.seconds, False)
            layers = run_one(w, args.seed, args.seconds, True)
            report[w] = {"correct": e2e["correct"] and layers["correct"],
                         "attempted": e2e["attempted"], "failed": e2e["failed"],
                         "end_to_end": e2e["metrics"], "per_layer": layers["metrics"],
                         "digests": e2e["digests"]}
        print("== summary")
        for w, r in report.items():
            e = r["end_to_end"]
            print(f"{w:<18} wall_s {e['wall_s']['value']:.3f}  setup_s {e['setup_s']['value']:.3f}  "
                  f"peak_rss_mb {e['peak_rss_mb']['value']:.1f}  "
                  f"failed {r['failed']}/{r['attempted']}  objective_sum {e['objective_sum']['value']:.6f}  "
                  f"tracing overhead {r['per_layer']['trace.overhead_s']['value']:+.3f} s")
        _compare_digests(report, HERE / f"baseline-seed{args.seed}.json")
        Path(OUT).mkdir(exist_ok=True)
        with open(f"{OUT}/report-seed{args.seed}.json", "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
        print(json.dumps({"correct": all(r["correct"] for r in report.values()),
                          "attempted": sum(r["attempted"] for r in report.values()),
                          "failed": sum(r["failed"] for r in report.values()),
                          "metrics": {w: r["end_to_end"] for w, r in report.items()}}))
        return 0
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
