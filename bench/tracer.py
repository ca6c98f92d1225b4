"""Per-layer tracing of bvgym from outside the package.

`Tracer.install` wraps public functions and methods of the bvgym modules (and
`scipy.optimize.minimize`, which `relax` calls) where they are looked up: a
function imported by name into another module is replaced there as well.

- Span wrappers record (name, start, end, parent span, task id) in memory.
- The hottest calls get counters instead of spans: `BoundaryTerm.__call__`
  and `HalfBallProblem.objective` count calls, `HomogeneousIntegrand.__call__`
  counts calls and sums its inclusive time, and `gradients_of` /
  `HalfBallProblem.gradients` count the triangles they process.
- The objective that `relax` hands to `scipy.optimize.minimize` runs as a
  re-entry span carrying the caller's name, so the energy/gradient time counts
  as self time of the relax function and not of the optimizer.

`aggregate` derives `<name>.s` (inclusive busy time), `<name>.self_s` (busy
time minus child spans) and `<name>.calls`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

perf = time.perf_counter

SPANS = (
    "cli.main",
    "relax.direct_minimize",
    "relax.relax_minimize",
    "relax.check_hypotheses",
    "relax.eval_Fhat",
    "relax.higher_dim_J",
    "meshes.disk_mesh",
    "meshes.interval_mesh",
    "meshes.TriMesh.refine_with_parents",
    "meshes.TriMesh.boundary_edges",
    "boundary.qslb_infimum",
    "boundary.jqcb_falsify",
    "boundary.HalfBallProblem.__init__",
    "boundary.HalfBallProblem.nodal_gradient",
    "gym.generate",
    "gym.pairing",
    "gym.GenYoungMeasure.from_record",
    "gym.to_diperna_majda",
    "gym.from_diperna_majda",
    "gym.check_characterization",
    "measures.BVField.derivative",
    "soucek.outer_trace",
    "soucek.to_gym",
)
COUNTED = ("relax.BoundaryTerm.__call__", "boundary.HalfBallProblem.objective")
TIMED_COUNTED = ("integrands.HomogeneousIntegrand.__call__",)
CELLS = {
    "meshes.TriMesh.gradients_of": lambda mesh: mesh.triangles.shape[0],
    "boundary.HalfBallProblem.gradients": lambda hb: hb.tri.shape[0],
}
OPTIMIZER = "scipy.minimize"
INTERNAL = (OPTIMIZER + ".converged", "refined_used")  # counters behind the ratios

# Per-layer metrics reported by the benchmark, with their units.
PER_LAYER = {
    "relax.direct_minimize.s": "s",
    "relax.relax_minimize.s": "s",
    "relax.relax_minimize.self_s": "s",
    "relax.check_hypotheses.s": "s",
    "relax.eval_Fhat.s": "s",
    "relax.BoundaryTerm.calls": "count",
    "relax.higher_dim_J.s": "s",
    "relax.higher_dim_J.self_s": "s",
    "scipy.minimize.s": "s",
    "scipy.minimize.calls": "count",
    "scipy.minimize.nit": "count",
    "scipy.minimize.nfev": "count",
    "scipy.minimize.converged_frac": "fraction",
    "meshes.TriMesh.refine_with_parents.s": "s",
    "meshes.TriMesh.refine_with_parents.calls": "count",
    "meshes.TriMesh.refine_with_parents.used_frac": "fraction",
    "meshes.TriMesh.boundary_edges.s": "s",
    "meshes.TriMesh.gradients_of.calls": "count",
    "meshes.TriMesh.gradients_of.cells": "count",
    "meshes.disk_mesh.s": "s",
    "meshes.disk_mesh.calls": "count",
    "meshes.interval_mesh.s": "s",
    "boundary.qslb_infimum.s": "s",
    "boundary.jqcb_falsify.s": "s",
    "boundary.HalfBallProblem.__init__.s": "s",
    "boundary.HalfBallProblem.objective.calls": "count",
    "boundary.HalfBallProblem.nodal_gradient.s": "s",
    "boundary.HalfBallProblem.gradients.cells": "count",
    "integrands.HomogeneousIntegrand.__call__.calls": "count",
    "integrands.HomogeneousIntegrand.__call__.s": "s",
    "gym.generate.s": "s",
    "gym.pairing.calls": "count",
    "gym.pairing.s": "s",
    "gym.GenYoungMeasure.from_record.s": "s",
    "gym.to_diperna_majda.s": "s",
    "gym.from_diperna_majda.s": "s",
    "gym.check_characterization.s": "s",
    "measures.BVField.derivative.s": "s",
    "soucek.outer_trace.s": "s",
    "soucek.to_gym.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, task, reentry]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.task = None
        self._refined: dict[int, weakref.ref] = {}
        self._undo: list = []

    # -- recording ------------------------------------------------------
    def _span(self, name, fn, reentry=False):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, perf(), 0.0, stack[-1] if stack else -1, self.task, reentry]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_count(self, name, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += perf() - t0

        return wrapper

    def _cells(self, name, fn, ncells):
        counts = self.counts

        def wrapper(self_, *args, **kwargs):
            counts[name] += 1
            counts[name + ".cells"] += int(ncells(self_))
            return fn(self_, *args, **kwargs)

        return wrapper

    def _refine(self, fn):
        refined = self._refined

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            refined[id(out[0])] = weakref.ref(out[0])
            return out

        return wrapper

    def _minimize_disk(self, fn):
        """Hook on relax's disk solver: installs the optimizer wrapper before the
        solver's own lazy scipy import, and marks refined meshes that get solved on."""

        def wrapper(mesh, *args, **kwargs):
            self._install_optimizer()
            ref = self._refined.get(id(mesh))
            if ref is not None and ref() is mesh:
                self.counts["refined_used"] += 1
            return fn(mesh, *args, **kwargs)

        return wrapper

    def _install_optimizer(self):
        import scipy.optimize as so

        if getattr(so.minimize, "_bench_wrapped", False):
            return
        orig = so.minimize

        def minimize(fun, x0, *args, **kwargs):
            # runs inside the optimizer's own span; the caller is that span's parent
            parent = self.spans[self.stack[-1]][3]
            caller = self.spans[parent][0] if parent >= 0 else OPTIMIZER
            res = orig(self._span(caller, fun, reentry=True), x0, *args, **kwargs)
            self.counts[OPTIMIZER + ".nit"] += int(getattr(res, "nit", 0))
            self.counts[OPTIMIZER + ".nfev"] += int(getattr(res, "nfev", 0))
            self.counts[OPTIMIZER + ".converged"] += int(bool(res.success))
            return res

        self._set(so, "minimize", self._span(OPTIMIZER, minimize))
        so.minimize._bench_wrapped = True

    def set_task(self, task_id):
        self.task = task_id
        self._refined.clear()

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, path: str, make):
        mod_name, *attrs = path.split(".")
        mod = importlib.import_module(f"bvgym.{mod_name}")
        if len(attrs) == 1:
            orig = getattr(mod, attrs[0])
            new = make(orig)
            # replace every binding of the same object, e.g. relax.disk_mesh
            for m in [m for n, m in sys.modules.items() if n.startswith("bvgym")]:
                for n, v in list(vars(m).items()):
                    if v is orig:
                        self._set(m, n, new)
            return
        cls = getattr(mod, attrs[0])
        raw = inspect.getattr_static(cls, attrs[1])
        if isinstance(raw, staticmethod):
            self._set(cls, attrs[1], staticmethod(make(raw.__func__)))
        else:
            self._set(cls, attrs[1], make(raw))

    def install(self):
        import bvgym.cli  # noqa: F401  (imports every bvgym module)

        for path in SPANS:
            self._patch(path, lambda fn, p=path: self._span(p, fn))
        for path in COUNTED:
            self._patch(path, lambda fn, p=path: self._count(p, fn))
        for path in TIMED_COUNTED:
            self._patch(path, lambda fn, p=path: self._timed_count(p, fn))
        for path, ncells in CELLS.items():
            self._patch(path, lambda fn, p=path, nc=ncells: self._cells(p, fn, nc))
        self._patch("meshes.TriMesh.refine_with_parents", self._refine)
        self._patch("relax._minimize_disk", self._minimize_disk)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results --------------------------------------------------------
    def aggregate(self) -> dict:
        return aggregate(self.spans, self.counts, self.times)


def aggregate(spans, counts, times) -> dict:
    """Layer totals from spans and counters (see the module docstring)."""
    counts = Counter(counts)
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _task, _re in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    incl: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, t0, t1, parent, _task, reentry) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[i]
        if reentry:
            continue
        calls[name] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # not nested in a span of the same name
            incl[name] += t1 - t0
    out = {}
    for name in set(incl) | set(self_s):
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name, n in counts.items():
        if name in INTERNAL:
            continue
        out[name if name.endswith((".cells", ".nit", ".nfev")) else f"{name}.calls"] = n
    for name, t in times.items():
        out[f"{name}.s"] = t
    n_opt = out.get(OPTIMIZER + ".calls", 0)
    out[OPTIMIZER + ".converged_frac"] = counts[OPTIMIZER + ".converged"] / n_opt if n_opt else 0.0
    n_ref = out.get("meshes.TriMesh.refine_with_parents.calls", 0)
    out["meshes.TriMesh.refine_with_parents.used_frac"] = (
        counts["refined_used"] / n_ref if n_ref else 0.0)
    # "relax.BoundaryTerm.__call__" is reported under the shorter class-level name
    out["relax.BoundaryTerm.calls"] = counts["relax.BoundaryTerm.__call__"]
    return out
