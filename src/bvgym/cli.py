"""Batch command-line front end.

Subcommands: toy, relax, qslb-check, jqcb-check, envelope, generate, trace,
dm-convert, characterize.  All randomness is seeded and comes from one
sampler, `integrands.seeded_uniform` (and `seeded_normal` built on it);
jqcb-check's --seed (default 0, any int >= 0) selects its four random N = 2
fields, the only draws a flag selects, and draws, like records, repeat bit
for bit on one machine and numpy build.  A config file overrides flags;
outputs are JSON records and CSV tables written under --out.  Exit codes:
0 success, 2 refused relaxation hypothesis (or a usage error, from
argparse), 1 any other error, each with a distinct message.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import gym as gym_mod
from . import relax as relax_mod
from .boundary import jqcb_falsify, qslb_infimum
from .integrands import convex_envelope_1d, hom_piecewise_1d, make_integrand
from .measures import BVField, DiscreteMeasure
from .meshes import interval_mesh
from .relax import HypothesisError, ProblemSpec, toy_spec
from .soucek import SoucekPair, outer_trace


def _finite_or_null(x):
    """The record with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _write_json(path: Path, record: dict) -> None:
    """Strict one-line JSON with sorted keys: a non-finite float is written as null, never as NaN or Infinity."""
    try:  # json.dumps without indent takes the C encoder
        text = json.dumps(record, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float
        text = json.dumps(_finite_or_null(record), sort_keys=True, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in rows:
            w.writerow(r)


def _parse_levels(s: str) -> list[int]:
    return [int(t) for t in s.split(",") if t.strip()]


def _parse_vector(s: str) -> np.ndarray:
    return np.array([float(t) for t in s.split(",") if t.strip()])


def _homogeneous_from_name(name: str, N: int):
    """1-homogeneous scalar (1, N) integrands for the boundary verifiers.  The CLI is
    scalar-only: every qslb-check verdict comes from the moment-duality bracket, so
    its result holds lower, upper and certificate and its witness is a SphereMeasure."""
    base, _, par = name.partition(":")
    if base == "pw1h":
        try:
            cp, cm = (float(t) for t in par.split(","))
        except ValueError:
            raise ValueError(f"integrand {name!r}: expected pw1h:c+,c- with two numbers") from None
        return hom_piecewise_1d(cp, cm)
    v = make_integrand(name, (1, N))
    if v.recession is None:
        raise KeyError(f"integrand {name!r} has no recession function to check")
    return v.recession


WEIGHTS = {
    "toy": lambda par: relax_mod.toy_weight(float(par)),
    "const": lambda par: (lambda x, c=float(par): c * np.ones_like(np.asarray(x, dtype=float))),
}

PENALTIES = {
    "none": lambda par: None,
    "square_to": lambda par: relax_mod.square_penalty(float(par or 0.0)),
    "abs_to": lambda par: relax_mod.abs_penalty(float(par or 0.0)),
    "linear": lambda par: relax_mod.linear_penalty(float(par or 1.0)),
}


def _check_finite_param(key: str, entry: str, par: str) -> None:
    """A `name:parameter` entry's parameter, when given, must be a finite number."""
    if par.strip() and not np.isfinite(float(par)):
        raise ValueError(f"{key} = {entry}: the parameter must be finite")


def load_problem_config(path: str) -> tuple[ProblemSpec, dict]:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file {path!r} not found")
    dom = cp["domain"] if "domain" in cp else {}
    a = float(dom.get("a", 0.0))
    b = float(dom.get("b", 1.0))
    wname = cp.get("f", "weight", fallback="const:1.0")
    base, _, par = wname.partition(":")
    if base not in WEIGHTS:
        raise KeyError(f"unknown integrand weight {wname!r}; choose from {sorted(WEIGHTS)}")
    _check_finite_param("[f] weight", wname, par)
    weight = WEIGHTS[base](par)
    terms = {}
    gsec = cp["g"] if "g" in cp else {}
    for side in ("left", "right"):
        name = gsec.get(side, "none")
        pb, _, ppar = name.partition(":")
        if pb not in PENALTIES:
            raise KeyError(f"unknown boundary penalty {name!r}; choose from {sorted(PENALTIES)}")
        _check_finite_param(f"[g] {side}", name, ppar)
        terms[side] = PENALTIES[pb](ppar)
    C = float(cp.get("bounds", "C", fallback="10.0"))
    run = {"levels": _parse_levels(cp.get("run", "levels", fallback="4,6,8"))}
    spec = ProblemSpec(a, b, weight, **terms, C=C, name=f"config:{Path(path).name}")
    return spec, run


def _toy_sequence_fields(kind: str, ns, eps: float):
    if kind == "toy":
        return [relax_mod.toy_field(n, eps) for n in ns]
    if kind == "oscillation":
        fields = []
        for k in ns:
            mesh = interval_mesh(0, 1, 4 * int(k))
            nodal = np.zeros(mesh.nodes.size)
            mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
            s = np.sign(np.sin(2 * np.pi * int(k) * mids))
            nodal[1:] = np.cumsum(s * mesh.cell_volumes)
            fields.append(BVField.from_nodal(mesh, nodal))
        return fields
    raise KeyError(f"unknown sequence kind {kind!r}; use toy:eps or oscillation")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_toy(args) -> int:
    if args.levels < 2:
        raise ValueError(f"--levels must be at least 2, got {args.levels}")
    out = Path(args.out)
    levels = tuple(range(max(2, args.levels - 4), args.levels + 1, 2))
    res = relax_mod.relax_minimize(toy_spec(args.eps), levels=levels)
    res = dataclasses.replace(res, toy_note=relax_mod.toy_report(args.eps))
    rec = res.to_record()
    rec["closed_form_infimum"] = relax_mod.toy_infimum(args.eps)
    _write_json(out / "toy_result.json", rec)
    _write_csv(
        out / "toy_convergence.csv",
        ["level", "direct_value"],
        zip(res.direct_table["levels"], res.direct_table["values"]),
    )
    if args.emit_plot_data:
        u = res.direct_table["minimizers"][-1]
        xs = u.mesh.nodes
        ys = np.concatenate([[u.values[0, 0]], u.values[:, 1]])
        _write_csv(out / "toy_minimizer.csv", ["x", "u"], zip(xs, ys))
    note = res.toy_note
    print(f"toy eps={args.eps}: inf_direct={res.inf_direct:.6f} "
          f"min_extended={res.min_extended:.6f} min_gym={res.min_gym:.6f} "
          f"(closed form {relax_mod.toy_infimum(args.eps):.6f})")
    if not note["quoted_limit_matches"]:
        print(f"note: quoted sequence limit {note['quoted_limit']:.6f} differs from the "
              f"computed limit {note['infimum']:.6f} by {note['quoted_limit_discrepancy']:.6f}")
    return 0


def cmd_relax(args) -> int:
    spec, run = load_problem_config(args.config)
    res = relax_mod.relax_minimize(spec, levels=tuple(run["levels"]))
    out = Path(args.out)
    _write_json(out / "relax_result.json", res.to_record())
    _write_csv(
        out / "relax_convergence.csv",
        ["level", "direct_value"],
        zip(res.direct_table["levels"], res.direct_table["values"]),
    )
    print(f"{spec.name}: inf_direct={res.inf_direct:.6f} min_extended={res.min_extended:.6f} "
          f"min_gym={res.min_gym:.6f}")
    return 0


def cmd_qslb_check(args) -> int:
    normal = _parse_vector(args.normal)
    v = _homogeneous_from_name(args.integrand, normal.size)
    res = qslb_infimum(v, normal)
    rec = {k: res[k] for k in ("inf_est", "verdict", "per_level", "lower", "upper", "certificate")}
    rec.update(integrand=args.integrand, normal=normal.tolist())
    out = Path(args.out)
    if res["witness"] is not None:  # a probability measure with zero tau-moment
        wfile = out / "qslb_witness.json"
        _write_json(wfile, {"points": res["witness"].points.tolist(), "weights": res["witness"].weights.tolist()})
        rec["witness_file"] = str(wfile)
    _write_json(out / "qslb_result.json", rec)
    print(f"qslb-check {args.integrand} normal={args.normal}: {res['verdict']} "
          f"(inf_est={res['inf_est']:.6g})")
    return 0


def cmd_jqcb_check(args) -> int:
    normal = _parse_vector(args.normal)
    v = _homogeneous_from_name(args.integrand, normal.size)
    res = jqcb_falsify(v, normal, budget=args.budget, seed=args.seed)
    rec = {"integrand": args.integrand, "normal": normal.tolist(), "gap": res["gap"],
           "status": res["status"]}
    _write_json(Path(args.out) / "jqcb_result.json", rec)
    print(f"jqcb-check {args.integrand}: {rec['status']} (gap={res['gap']:.3g})")
    return 0


def cmd_envelope(args) -> int:
    a, b, n = args.grid.split(",")
    if not (np.isfinite(float(a)) and np.isfinite(float(b))):
        raise ValueError(f"--grid {args.grid}: the grid ends must be finite")
    grid = np.linspace(float(a), float(b), int(n))
    v = make_integrand(args.integrand)
    env = convex_envelope_1d(v, grid)
    rows = [(t, float(v(t)), float(env(t))) for t in grid]
    out = Path(args.out)
    _write_csv(out / "envelope.csv", ["t", "v", "envelope"], rows)
    _write_json(out / "envelope_result.json", {
        "integrand": args.integrand,
        "grid": [float(a), float(b), int(n)],
        "max_drop": max(r[1] - r[2] for r in rows),
    })
    print(f"envelope {args.integrand}: wrote {int(n)} samples")
    return 0


def cmd_generate(args) -> int:
    kind, _, par = args.sequence.partition(":")
    eps = float(par) if par else 0.5
    ns = [int(t) for t in args.n.split(",")]
    fields = _toy_sequence_fields(kind, ns, eps)
    gm, report = gym_mod.generate_from_fields(fields, window_h=args.window, tol=args.tol)
    out = Path(args.out)
    _write_json(out / "lambda.json", gm.to_record())
    _write_json(out / "generate_report.json", report)
    print(f"generate {args.sequence}: max pairing gap {report['max_gap']:.3e} "
          f"(tol {report['tol']:.1e}), lambda atoms "
          f"{[(p, round(m, 6)) for p, m in gm.lam_atoms]}")
    return 0


def cmd_trace(args) -> int:
    if args.toy is not None:
        pair = relax_mod.toy_limit_pair(args.toy)
    elif args.pair is None:
        raise ValueError("trace needs a pair: give --pair FILE or --toy EPS")
    else:
        with open(args.pair) as f:
            rec = json.load(f)
        pair = SoucekPair(BVField.from_record(rec["u"]), DiscreteMeasure.from_record(rec["alpha"]))
    tp = outer_trace(pair)
    rec = tp.to_record()
    _write_json(Path(args.out) / "trace_result.json", rec)
    print("point  inner  outer")
    for x in sorted(tp.inner):
        print(f"{x:5g}  {np.asarray(tp.inner[x]).ravel()}  {np.asarray(tp.outer[x]).ravel()}")
    return 0


def cmd_dm_convert(args) -> int:
    with open(args.infile) as f:
        gm = gym_mod.GenYoungMeasure.from_record(json.load(f))
    dm = gym_mod.to_diperna_majda(gm)
    out = Path(args.out)
    _write_json(out / "dm.json", dm.to_record())
    rec = {"converted": True}
    if args.roundtrip:
        back = gym_mod.from_diperna_majda(dm)
        gaps = [0.0]
        for label, g, v in gym_mod.default_dictionary(gm.dims):
            p = gym_mod.pairing(gm, g, v)
            gaps += [abs(p - gym_mod.pairing(back, g, v)), abs(p - dm.pairing(g, v))]
        worst = rec["max_pairing_gap"] = float(np.max(gaps))  # np.max keeps a NaN gap, written as null
        print(f"dm-convert: round-trip max pairing gap {worst:.3e}")
    _write_json(out / "dm_convert_report.json", rec)
    return 0


def cmd_characterize(args) -> int:
    if args.toy is not None:
        gm = relax_mod.toy_limit_gym(args.toy)
    elif args.infile is None:
        raise ValueError("characterize needs a measure: give --in FILE or --toy EPS")
    else:
        with open(args.infile) as f:
            gm = gym_mod.GenYoungMeasure.from_record(json.load(f))
    if gm.underlying is None:
        raise ValueError("characterization requires an underlying deformation in the record")
    report = gym_mod.check_characterization(gm, gm.underlying)
    rec = {
        k: {kk: vv for kk, vv in report[k].items() if kk in ("pass", "worst", "value")}
        for k in ("i", "ii", "iii", "iv")
    }
    rec["all_pass"] = report["all_pass"]
    _write_json(Path(args.out) / "characterize_result.json", rec)
    for k in ("i", "ii", "iii", "iv"):
        print(f"({k}) {'PASS' if report[k]['pass'] else 'FAIL'}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged,
    each call gets a fresh namespace, and no default is mutable."""
    ap = argparse.ArgumentParser(prog="bvgym", description=__doc__)
    ap.add_argument("--out", default="bvgym_out", help="output directory for records and tables")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("toy", help="solve the weighted-TV model problem")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("relax", help="relaxation from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("qslb-check", help="quasi-sublinear-from-below verdict of a scalar integrand")
    p.add_argument("--integrand", required=True)
    p.add_argument("--normal", required=True, help='e.g. "1,0"')
    p.add_argument("--level", type=int, default=3,
                   help="ignored: no verdict builds a half-ball mesh (the moment-duality bracket and, "
                        "for M >= 2, rank-one laminates decide); kept so that older command lines run")
    p.add_argument("--budget", type=int, default=2000, help="ignored, as --level")
    p.set_defaults(func=cmd_qslb_check)

    p = sub.add_parser("jqcb-check", help="boundary Jensen inequality falsifier")
    p.add_argument("--integrand", required=True)
    p.add_argument("--normal", required=True)
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--seed", type=int, default=0, help="selects the four random N = 2 fields (any int >= 0)")
    p.set_defaults(func=cmd_jqcb_check)

    p = sub.add_parser("envelope", help="1D convex envelope of a catalog integrand")
    p.add_argument("--integrand", required=True)
    p.add_argument("--grid", default="-3,3,1201", help="a,b,n")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("generate", help="generate a Young measure from a sequence")
    p.add_argument("--sequence", required=True, help="toy:eps or oscillation")
    p.add_argument("--n", default="100,300,1000", help="sequence indices")
    p.add_argument("--window", type=float, default=1.0 / 32)
    p.add_argument("--tol", type=float, default=1e-2)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("trace", help="inner and outer traces of a pair")
    p.add_argument("--pair", help="JSON pair record")
    p.add_argument("--toy", type=float, help="use the toy limit pair at this eps")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("dm-convert", help="convert to the compactified-ball form")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--roundtrip", action="store_true")
    p.set_defaults(func=cmd_dm_convert)

    p = sub.add_parser("characterize", help="gradient characterization checks")
    p.add_argument("--in", dest="infile")
    p.add_argument("--toy", type=float)
    p.set_defaults(func=cmd_characterize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("tol", "window", "budget"):
        if getattr(args, name, None) is not None and not getattr(args, name) > 0:  # NaN is not > 0
            print(f"error: {name} must be positive", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except HypothesisError as e:
        print(f"hypothesis refused: {e}", file=sys.stderr)
        return 2
    except (KeyError, FileNotFoundError, ValueError) as e:
        # str() of a KeyError is the repr of its argument, quotes included
        message = e.args[0] if isinstance(e, KeyError) and e.args else e
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
