"""One pass over a workload's task list in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1] [--setup-only]

Run from the root of a checkout; bvgym is imported from ``src/`` there.
Prints one JSON object as its last line: setup_s (interpreter start to the
first task: imports plus input generation), wall_s (sum of the task times),
peak_rss_mb, the per-task outcomes and, when traced, the layer totals.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORK = ".bench_work"  # task outputs, relative to the checkout root
OUT = ".bench_out"  # digests, reports and spans of traced passes


def import_bvgym(root: Path):
    src = root / "src"
    if not (src / "bvgym" / "__init__.py").is_file():
        raise FileNotFoundError(f"no bvgym sources under {src}")
    sys.path.insert(0, str(src))
    import bvgym.cli

    if Path(bvgym.cli.__file__).resolve().parent != (src / "bvgym").resolve():
        raise ImportError(f"bvgym imported from {bvgym.cli.__file__}, not from {src}")
    return bvgym.cli


def run_pass(workload: str, seed: int, tracer=None, workdir: str | None = None) -> dict:
    """Generate the inputs and run every task once; the caller imports bvgym first."""
    import workloads

    workdir = workdir or f"{WORK}/{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    tasks = workloads.make_inputs(workload, seed, workdir)
    setup_s = time.perf_counter() - T0
    results = []
    for task in tasks:
        if tracer is not None:
            tracer.set_task(task["id"])
        results.append(workloads.run_task(task))
    if tracer is not None:
        tracer.set_task(None)
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tasks": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = Path.cwd()
    import_bvgym(root)
    import workloads

    if args.setup_only:
        workdir = f"{WORK}/{args.workload}-setup"
        workloads.make_inputs(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    res = run_pass(args.workload, args.seed, tracer)
    if tracer is not None:
        res["layers"] = tracer.aggregate()
        Path(OUT).mkdir(exist_ok=True)
        with open(f"{OUT}/spans-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "task", "reentry"],
                       "spans": tracer.spans}, f)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
