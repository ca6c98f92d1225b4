"""Relaxation of linear-growth functionals with Robin/Neumann boundary terms.

The reference problem is the weighted total-variation model on (0, 1)

    I(u) = int w(x) |u'(x)| dx + u(0)^2 + (u(1)-1)^2,   w(x) = (x-1)^2 + eps,

whose minimizing sequences concentrate their derivative at x = 1, so no
W^{1,1} minimizer exists.  Three nested formulations are implemented: the
direct problem over mesh fields, its extension to pairs (u, alpha) with a
measure-valued boundary trace, and the measure formulation over generalized
Young measures with an outer trace.  Their computed minima agree for convex
boundary terms with quasi-sublinear recession costs, and the measure built
from the direct minimizing sequence attains the relaxed minimum.

Note on the closed form: the limit of I along the explicit minimizing
sequence is (2 eps - eps^2)/2; the independently computed value is used
everywhere, and toy reports also carry the discrepant figure
(4 eps - eps^2)/4 sometimes quoted for this limit so the mismatch stays
visible instead of silently asserted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Sequence

import numpy as np

from .gym import atom_moment, generate_from_fields, gym_traces, pairing
from .integrands import (
    HomogeneousIntegrand,
    hom_abs,
    hom_linear,
    make_integrand,
    mat_norm,
    pair_action,
    toy_weight,
    unit_matrices,
)
from .measures import BVField, DiskField
from .meshes import _GL_W, _GL_X, IntervalMesh, TriMesh, disk_mesh, interval_mesh
from .soucek import outer_trace, soucek_pair, to_gym


class AdmissibilityError(ValueError):
    pass


class HypothesisError(ValueError):
    """A structural hypothesis needed for the relaxation identity fails."""


ADMISSIBILITY_TOL = 1e-8  # slack of every test in admissibility_report


# ---------------------------------------------------------------------------
# problem specification


@dataclass(frozen=True)
class BoundaryTerm:
    """Robin penalty g(u) at one boundary point; g_inf is its recession
    (None for superlinear g, which forbids singular trace mass there)."""

    g: Callable[[float], float]
    g_inf: HomogeneousIntegrand | None = None
    name: str = ""

    def __call__(self, value) -> float:
        """g at a scalar trace; a one-element array is accepted, a longer one raises ValueError."""
        return float(self.g(np.asarray(value, dtype=float).item()))


@dataclass(frozen=True)
class ProblemSpec:
    """int_a^b w(x)|u'| dx + g_left(u(a)) + g_right(u(b)): `weight` is the continuous w,
    C bounds the total variation and the traces."""

    a: float
    b: float
    weight: Callable[[np.ndarray], np.ndarray]
    _: KW_ONLY
    left: BoundaryTerm | None = None  # Robin term at a; None is a Neumann side
    right: BoundaryTerm | None = None  # Robin term at b; None is a Neumann side
    C: float = 10.0
    name: str = "problem"

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"domain must be finite with a < b, got a={self.a!r}, b={self.b!r}")
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError(f"infeasible bound C: C must be finite and > 0, got {self.C!r}")

    def _side(self, x: float) -> str | None:
        # relative to the domain, so that a domain shorter than 1e-8 keeps its two sides apart
        tol = 1e-8 * (self.b - self.a)
        if abs(x - self.a) <= tol:
            return "left"
        if abs(x - self.b) <= tol:
            return "right"
        return None

    def term_at(self, x: float) -> BoundaryTerm | None:
        """The Robin term at the boundary point x; None on a Neumann side or off the boundary."""
        side = self._side(x)
        return None if side is None else getattr(self, side)

    def robin_terms(self) -> list[tuple[float, BoundaryTerm]]:
        """(point, term) for each Robin side, left first."""
        return [(x, t) for x, t in ((self.a, self.left), (self.b, self.right)) if t is not None]


def square_penalty(target: float = 0.0) -> BoundaryTerm:
    return BoundaryTerm(lambda u, t=target: (u - t) * (u - t), None, f"(u-{target})^2")


def abs_penalty(target: float = 0.0) -> BoundaryTerm:
    # sqrt(d * d) is the norm of the 1-vector d bit for bit; abs(d) differs where d * d under- or overflows
    return BoundaryTerm(lambda u, t=target: math.sqrt((u - t) * (u - t)), hom_abs((1, 1)), f"|u-{target}|")


def linear_penalty(coeff: float) -> BoundaryTerm:
    return BoundaryTerm(lambda u, c=coeff: c * u, hom_linear([[coeff]]), f"{coeff}*u")


def check_toy_eps(eps: float) -> None:
    """The toy model needs 0 < eps < 1 (a NaN fails too): the jump 1 - eps stays positive."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")


def toy_spec(eps: float) -> ProblemSpec:
    check_toy_eps(eps)
    return ProblemSpec(0.0, 1.0, toy_weight(eps), left=square_penalty(0.0), right=square_penalty(1.0),
                       name=f"toy(eps={eps})")


# ---------------------------------------------------------------------------
# the explicit minimizing sequence and the weak* limit of the toy problem


def toy_infimum(eps: float) -> float:
    """(2 eps - eps^2)/2, the infimum reached with traces eps/2 and 1 - eps/2."""
    return (2 * eps - eps**2) / 2


def toy_field(n: int, eps: float) -> BVField:
    """The explicit minimizing-sequence member: eps/2, then a ramp on (1-1/n, 1).

    Its mesh is 16 uniform cells plus the ramp's start and 3 nodes splitting
    the ramp into 4 cells."""
    if n < 2:
        raise ValueError("n must be >= 2")
    check_toy_eps(eps)
    ramp = tuple(1.0 - 1.0 / n + k / (n * 4) for k in range(4))
    mesh = interval_mesh(0, 1, 16, extra_nodes=ramp)
    nodal = np.where(
        mesh.nodes <= 1.0 - 1.0 / n,
        eps / 2,
        n * (1 - eps) * mesh.nodes + eps / 2 - (1 - eps) * (n - 1),
    )
    return BVField.from_nodal(mesh, nodal)


def toy_limit_pair(eps: float):
    """The weak* limit of the toy sequence as a Soucek pair: u = eps/2 on 32 cells
    and the boundary atom 1 - eps at x = 1, so the outer trace there is 1 - eps/2."""
    check_toy_eps(eps)
    return soucek_pair(BVField.constant(interval_mesh(0, 1, 32), eps / 2), {1.0: 1.0 - eps})


def toy_limit_gym(eps: float):
    """The concentration limit (delta_0, (1-eps) delta_1, delta_{+1}): `to_gym` of `toy_limit_pair`."""
    return to_gym(toy_limit_pair(eps))


def toy_report(eps: float) -> dict:
    """Closed-form infimum, sequence values at n = 10, 100, 1000, and the printed-limit discrepancy."""
    spec = toy_spec(eps)
    derived = toy_infimum(eps)
    quoted = (4 * eps - eps**2) / 4  # appears in print for the same limit; differs by eps^2/4
    seq = {n: _discrete_energy(spec, toy_field(n, eps)) for n in (10, 100, 1000)}
    i1_limit_field = _discrete_energy(spec, toy_limit_pair(eps).u)
    return {
        "eps": eps,
        "infimum": derived,
        "sequence_values": seq,
        "lsc_gap": i1_limit_field - derived,
        "I1_at_weak_limit": i1_limit_field,
        "quoted_limit": quoted,
        "quoted_limit_discrepancy": abs(quoted - derived),
        "quoted_limit_matches": bool(abs(quoted - derived) <= 1e-12),
    }


# ---------------------------------------------------------------------------
# direct minimization


_GOLDEN_ITERS = 70  # a bracket of width 2C ends 2C·0.618^70 ≈ 5e-15·C wide


def _golden(fun, a: float, b: float) -> float:
    phi = (np.sqrt(5.0) - 1) / 2
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _g(term: BoundaryTerm | None, value) -> float:
    """A boundary term's value; 0 on a Neumann side."""
    return 0.0 if term is None else term(value)


def _best_traces(
    cost: float, left: BoundaryTerm | None, right: BoundaryTerm | None, C: float
) -> tuple[float, float]:
    """(p, q) minimizing cost |q - p| + g_left(p) + g_right(q) over |p| + |q| <= C.

    For fixed q, p -> cost |q - p| + g_left(p) is convex and its minimizer on
    [-C, C] is clip(q, L, U): L minimizes g_left(p) + cost p (where g_left'
    crosses -cost) and U minimizes g_left(p) - cost p (where it crosses
    +cost).  On the slice |p| <= C - |q| the minimizer is that value clipped
    to the slice.  So one golden section each finds L and U (a Neumann left
    side has L = -C, U = C), and a third minimizes the profile in q, which is
    convex since minimizing a jointly convex function over the p-slices of a
    convex set leaves a convex function of q.
    """
    if left is None:
        lo, hi = -C, C
    else:
        lo = _golden(lambda p: left(p) + cost * p, -C, C)
        hi = _golden(lambda p: left(p) - cost * p, -C, C)

    def best_p(q):
        r = C - abs(q)
        return min(max(min(max(q, lo), hi), -r), r)

    def profile(q):
        p = best_p(q)
        return cost * abs(q - p) + _g(left, p) + _g(right, q)

    q = _golden(profile, -C, C)
    return best_p(q), q


def _cheapest_cell(spec: ProblemSpec, mesh: IntervalMesh) -> tuple[int, float]:
    """The cell where a jump of size |q - p| costs least, |q - p| times its average weight."""
    cavg = mesh.cell_integrals(spec.weight) / mesh.cell_volumes
    c = int(np.argmin(cavg))
    return c, float(cavg[c])


def _step_field(mesh: IntervalMesh, c: int, p: float, q: float) -> BVField:
    """p on the nodes up to cell c, q after it: the whole transition inside cell c."""
    nodal = np.full(mesh.nodes.size, p)
    nodal[c + 1 :] = q
    return BVField.from_nodal(mesh, nodal)


def _level_mesh(spec: ProblemSpec, level: int) -> IntervalMesh:
    return interval_mesh(
        spec.a, spec.b, n=2**level, grade_to=(spec.a, spec.b), grade_levels=level + 6
    )


def _discrete_energy(spec: ProblemSpec, u: BVField) -> float:
    """Exact discrete energy of a nodal field (no jumps expected)."""
    wbar = u.mesh.cell_integrals(spec.weight)
    tv = float(np.sum(wbar * np.abs(u.slopes())))
    lo, hi = u.trace()
    return tv + _g(spec.left, lo) + _g(spec.right, hi)


_MAX_LEVEL = 20  # a level-L mesh has 2^L cells: level 20 takes seconds and a few hundred MB


def _check_levels(levels: Sequence[int]) -> None:
    if len(levels) == 0 or min(levels) < 1 or max(levels) > _MAX_LEVEL:
        raise ValueError(f"levels must be a non-empty list of integers from 1 to {_MAX_LEVEL}, got {list(levels)}")


def direct_minimize(spec: ProblemSpec, levels: Sequence[int] = (4, 6, 8, 10)) -> dict:
    """Minimize the functional over nested piecewise-linear spaces.

    Returns the per-level table, the minimizing sequence, and the extrapolated
    infimum (the finest value; meshes are graded toward the boundary so the
    sequence can concentrate there).
    """
    _check_levels(levels)
    values, minimizers = [], []
    for lev in levels:
        mesh = _level_mesh(spec, lev)
        # the minimizer over nodal fields: for f = w(x)|A| no transition from p to q
        # costs less than a step inside the cheapest cell
        c, cost = _cheapest_cell(spec, mesh)
        p, q = _best_traces(cost, spec.left, spec.right, spec.C)
        u = _step_field(mesh, c, p, q)
        values.append(_discrete_energy(spec, u))
        minimizers.append(u)
    return {
        "inf_est": float(min(values)),
        "values": values,
        "levels": list(levels),
        "minimizers": minimizers,
    }


# ---------------------------------------------------------------------------
# relaxed functionals


def _beta_as_dict(beta: dict) -> dict:
    """The outer traces {boundary point: value} with float keys and 1-D array values."""
    return {float(k): np.atleast_1d(np.asarray(v, dtype=float)) for k, v in beta.items()}


def admissibility_report(gym_measure, beta, spec: ProblemSpec) -> list[str]:
    """Named violations of the relaxed admissible set; empty when admissible."""
    problems = []
    beta = _beta_as_dict(beta)
    mass = gym_measure.mass_norm()
    if mass > spec.C + ADMISSIBILITY_TOL:
        problems.append(f"mass_bound_exceeded({mass:.3g}>{spec.C:.3g})")
    if sum(float(np.sum(np.abs(v))) for v in beta.values()) > spec.C + ADMISSIBILITY_TOL:
        problems.append("trace_bound_exceeded")
    if gym_measure.underlying is None:
        problems.append("no_underlying_deformation")
    else:
        traces = gym_traces(gym_measure)
        for x, v in traces["outer"].items():
            if float(np.max(np.abs(beta[x] - v))) > ADMISSIBILITY_TOL:
                problems.append(f"beta_not_outer_trace(at={x:g})")
    for i in gym_measure.boundary_atom_indices():
        p, m = gym_measure.lam_atoms[i]
        x = float(np.asarray(p))
        if m > ADMISSIBILITY_TOL and spec.term_at(x) is not None:
            mom = atom_moment(gym_measure, i)
            if abs(float(mat_norm(mom)) - 1.0) > ADMISSIBILITY_TOL:
                problems.append(f"oscillating_boundary_direction_on_gamma_R(at={x:g})")
    return problems


def eval_Fhat(gym_measure, beta, spec: ProblemSpec, strict: bool = True) -> float:
    """Relaxed energy: measure pairing with w(x)|A| plus boundary terms at the outer trace."""
    beta = _beta_as_dict(beta)
    if strict:
        problems = admissibility_report(gym_measure, beta, spec)
        if problems:
            raise AdmissibilityError("; ".join(problems))
    val = pairing(gym_measure, spec.weight, make_integrand("abs"))
    for x, term in spec.robin_terms():
        val += term(beta[x])
    return float(val)


def eval_Fbar(pair, spec: ProblemSpec) -> float:
    """Extended energy of a Soucek pair: df(x, alpha) plus boundary terms at the
    outer trace (singular trace parts priced by the recession of g)."""
    val = pair_action(pair.alpha, spec.weight, make_integrand("abs"))
    tp = outer_trace(pair)
    for x, term in spec.robin_terms():
        val += term(tp.outer[x])
    return float(val)


def tilde_transform(gym_measure, beta, spec: ProblemSpec) -> tuple:
    """Collapse boundary oscillation on the Robin part to its first moment.

    Every boundary lam-atom (`boundary_atom_indices`) on Gamma_R is replaced by
    mass |<nu_inf, id>| * mass with a Dirac direction at the normalized moment,
    added to the sphere grid unless a grid point lies within 1e-12; zero moments
    drop the atom (the limit of the normalization), which is logged.  The trace
    keeps only its absolutely continuous part, which in 1D is everything.
    """
    if gym_measure.mesh.dim != 1:
        raise NotImplementedError("the tilde transform is implemented on interval domains")
    beta = _beta_as_dict(beta)
    log = []
    atoms, keep = list(gym_measure.lam_atoms), np.ones(len(gym_measure.lam_atoms), dtype=bool)
    sphere, dirac = gym_measure.sphere_grid, {}  # atom -> sphere index of its Dirac direction
    for i in gym_measure.boundary_atom_indices():
        p, m = atoms[i]
        x = float(np.asarray(p))
        if spec.term_at(x) is None:
            continue
        mom = atom_moment(gym_measure, i)
        norm = float(mat_norm(mom))
        if norm * m <= 0.0:
            log.append(f"dropped zero-moment boundary atom at x={x:g} (mass {m:g})")
            keep[i] = False
            continue
        d = mom / norm
        near = np.flatnonzero(mat_norm(sphere - d) <= 1e-12)
        if not near.size:
            sphere, near = np.concatenate([sphere, d[None]]), [len(sphere)]
        atoms[i], dirac[i] = (p, m * norm), near[0]
    pad = ((0, 0), (0, sphere.shape[0] - gym_measure.sphere_grid.shape[0]))
    nia = np.pad(gym_measure.nu_inf_atoms, pad)
    nia[list(dirac)] = np.eye(sphere.shape[0])[list(dirac.values())]
    tilde = dataclasses.replace(gym_measure, lam_atoms=tuple(a for a, k in zip(atoms, keep) if k), sphere_grid=sphere,
                                nu_inf_cells=np.pad(gym_measure.nu_inf_cells, pad), nu_inf_atoms=nia[keep])
    return tilde, beta, log


# ---------------------------------------------------------------------------
# relaxed minimization


@dataclass
class RelaxationResult:
    inf_direct: float
    min_extended: float
    min_gym: float
    gym_attained: float
    minimizer_pair: object
    minimizer_gym: object
    beta: dict
    direct_table: dict
    hypothesis_log: list
    toy_note: dict | None = None  # `toy_report`, attached by the toy command

    def agree_within(self, tol: float) -> bool:
        vals = (self.inf_direct, self.min_extended, self.min_gym)
        return max(vals) - min(vals) <= tol

    def to_record(self) -> dict:
        return {
            "inf_direct": self.inf_direct,
            "min_extended": self.min_extended,
            "min_gym": self.min_gym,
            "gym_attained": self.gym_attained,
            "beta": {str(k): np.asarray(v).tolist() for k, v in self.beta.items()},
            "direct_values": self.direct_table["values"],
            "direct_levels": self.direct_table["levels"],
            "hypotheses": self.hypothesis_log,
            "toy_note": self.toy_note,
        }


def check_hypotheses(spec: ProblemSpec) -> list[str]:
    """Verify the relaxation hypotheses; raise on failure.

    Each Robin boundary term must pass a midpoint convexity test and have a
    nonnegative recession.  Then the weight must be finite and positive at
    129 equispaced points of [a, b], ends included.  For f = w(x)|A| that
    one condition gives linear growth and both hypotheses on the recession
    w(x)|A| at a Robin point: it is nonnegative, so its half-ball integral is
    too (quasi-sublinear growth from below), and it is convex, so Jensen's
    inequality holds on the half-ball (the boundary Jensen inequality).
    """
    log = []
    for x, term in spec.robin_terms():
        gs = [term(u) for u in np.linspace(-3, 3, 13)]
        for i in range(len(gs) - 2):
            if gs[i + 1] > 0.5 * (gs[i] + gs[i + 2]) + 1e-9:
                raise HypothesisError(f"boundary term at x={x:g} fails the midpoint convexity test")
        if term.g_inf is not None:
            vals = np.asarray(term.g_inf.on_sphere(unit_matrices(term.g_inf.dims, 16)))
            if np.min(vals) < -1e-9:
                raise HypothesisError(f"recession of the boundary term at x={x:g} is negative")
        w = float(spec.weight(np.asarray(x, dtype=float)))
        log.append(f"x={x:g}: recession w(x)|A| with w(x) = {w:g} finite and > 0 is nonnegative "
                   f"(qslb holds) and convex (boundary Jensen inequality holds)")
    xs = np.linspace(spec.a, spec.b, 129)
    ws = np.broadcast_to(np.asarray(spec.weight(xs), dtype=float), xs.shape)
    bad = np.flatnonzero(~(np.isfinite(ws) & (ws > 0)))
    if bad.size:
        i = bad[0]
        raise HypothesisError(f"weight must be finite and positive, but w({xs[i]:g}) = {ws[i]:g}")
    return log


def relax_minimize(spec: ProblemSpec, levels: Sequence[int] = (4, 6, 8, 10)) -> RelaxationResult:
    """Compute and compare the direct, extended, and measure-level minima.

    The relaxed family consists of a BV part (endpoint competitors with the
    transition in the cheapest cell) plus boundary concentration atoms, with
    the outer trace determined by the trace-difference identity.  min_gym is
    the strict F-hat of that one candidate.  An admissible measure with an
    oscillating boundary atom of mass m at a Robin point x costs no less: the
    atom adds w(x) m and moves the outer trace by at most m (triangle
    inequality), while the candidate moves it at the cheapest leg, which
    costs at most w(x) per unit (see `tilde_transform`).  The measure
    generated by the direct minimizing sequence (windows of 1/32, tolerance
    5e-2) is evaluated in the relaxed functional as a consistency check.
    """
    _check_levels(levels)
    hypothesis_log = check_hypotheses(spec)
    direct = direct_minimize(spec, levels)

    mesh = _level_mesh(spec, max(levels))
    cmin, cell_cost = _cheapest_cell(spec, mesh)
    legs = np.array([float(spec.weight(spec.a)), cell_cost, float(spec.weight(spec.b))])

    # Moving total variation |bb - ba| from one outer trace to the other costs
    # the cheapest of: a boundary atom at a, the best interior cell, an atom
    # at b.  This reduces the competitor family exactly to the trace values.
    ba, bb = _best_traces(float(np.min(legs)), spec.left, spec.right, spec.C)
    k = int(np.argmin(legs))
    p, q = (ba, bb) if k == 1 else ((ba, ba) if k == 2 else (bb, bb))
    u_star = _step_field(mesh, cmin, p, q)
    # trace difference times the outer normal, -1 at a and +1 at b
    boundary_atoms = {x: v for x, v in ((spec.a, p - ba), (spec.b, bb - q)) if v != 0}
    pair = soucek_pair(u_star, boundary_atoms)
    min_extended = eval_Fbar(pair, spec)

    gym_star = to_gym(pair)
    beta = {spec.a: np.atleast_1d(ba), spec.b: np.atleast_1d(bb)}
    min_gym = eval_Fhat(gym_star, beta, spec, strict=True)

    gen_gym, _ = generate_from_fields(direct["minimizers"], window_h=1.0 / 32, tol=5e-2)
    gym_attained = eval_Fhat(gen_gym, gym_traces(gen_gym)["outer"], spec, strict=False)

    return RelaxationResult(
        inf_direct=direct["inf_est"],
        min_extended=min_extended,
        min_gym=min_gym,
        gym_attained=gym_attained,
        minimizer_pair=pair,
        minimizer_gym=gym_star,
        beta=beta,
        direct_table=direct,
        hypothesis_log=hypothesis_log,
    )


# ---------------------------------------------------------------------------
# the higher-dimensional analogue on the disk


# the Robin arc Gamma_1 and the Dirichlet arc Gamma_0 of the disk, counter-clockwise angle ranges
_GAMMA1 = (-np.pi / 4, np.pi / 4)
_GAMMA0 = (3 * np.pi / 4, 5 * np.pi / 4)


def higher_dim_J(
    eps: float,
    ubar: Callable[[np.ndarray], np.ndarray],
    level: int = 2,
    refinements: int = 2,
) -> dict:
    """Direct minimization of the disk analogue with a Dirichlet arc.

    J(u) = int (dist^2(x, Gamma_1) + eps)|grad u| + int_{Gamma_1}
    sqrt(1 + (u - ubar)^2), with u = 0 on Gamma_0, minimized on each mesh by
    primal-dual Newton (`_minimize_disk`) until a linearized-dual certificate
    puts the mesh's minimum within a relative gap of _GAP_TOL = 1e-6.  Meshes
    refine by midpoint subdivision (nested spaces), and each refined mesh
    starts from the coarse solve's prolonged u and final smoothing delta, with
    its dual at 0 (a prolonged coarse dual cost more solves); on the
    benchmark's disk-2d tasks that takes 4 to 21 solves per mesh (see
    `_minimize_disk`).  Every mesh's weight measures distance to the coarsest
    mesh's Gamma_1 segments, which refinement does not move.  The prolonged
    coarse field is admissible on the finer mesh: a row whose J rounds above
    the previous row's carries the previous J, and the reported infima are
    nonincreasing.  Each table row brackets its mesh's minimum: "lower" <=
    min <= "J" ("lower" is capped at J, in the row and in its stage record),
    and "gap" = (J - lower) / J.  "stages" has the solver's record per mesh
    (see `_minimize_disk`).  The arcs are fixed: Gamma_1 spans the angles
    (-pi/4, pi/4) and Gamma_0 (3pi/4, 5pi/4).  Raises ValueError when eps is
    not finite and positive, level or refinements is not an int, or ubar does
    not give one finite value per Gamma_1 Gauss point.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    for name, value in (("level", level), ("refinements", refinements)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if refinements < 0:
        raise ValueError(f"refinements must be an int >= 0, got {refinements!r}")
    mesh = coarsest = disk_mesh(level)
    # midpoint refinement keeps the Gamma_1 segments' union, so every mesh measures the weight's distance to these
    g1_edges = _arc_edges(coarsest, _GAMMA1)
    seg = coarsest.vertices[coarsest.boundary_edges()[g1_edges]]
    table, stages = [], []
    warm = None
    for k in range(refinements + 1):
        val, u, st = _minimize_disk(mesh, eps, ubar, seg, warm)
        if table:  # only rounding lifts J above the admissible prolonged coarse field
            val = min(val, table[-1]["J"])
        st["lower"] = lower = min(st["lower"], val)
        table.append({"nv": mesh.vertices.shape[0], "J": val, "lower": lower, "gap": (val - lower) / val})
        stages.append(st)
        if k < refinements:
            mesh, parents = mesh.refine_with_parents()
            warm = (0.5 * (u.values[parents[:, 0]] + u.values[parents[:, 1]]), st["delta"])
    return {
        "inf_est": table[-1]["J"],
        "table": table,
        "gamma1_length": float(np.sum(coarsest.boundary_edge_lengths()[g1_edges])),
        "stages": stages,
    }


def _angle_in(theta, arc: tuple[float, float]) -> np.ndarray:
    """Elementwise: does the angle theta lie on the counter-clockwise arc (lo, hi)?"""
    lo, hi = arc
    twopi = 2 * np.pi
    return (np.asarray(theta) - lo) % twopi <= (hi - lo) % twopi + 1e-12


def _arc_edges(mesh: TriMesh, arc) -> np.ndarray:
    """Indices into mesh.boundary_edges() of the edges whose midpoints lie on the arc."""
    edges = mesh.boundary_edges()
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    return np.flatnonzero(_angle_in(np.arctan2(mids[:, 1], mids[:, 0]), arc))


# primal-dual Newton on the disk: stop once J - lower <= _GAP_TOL * J, or after _DISK_MAXIT solves
_GAP_TOL = 1e-6
_DISK_MAXIT = 200
_DELTA0, _DELTA_MIN = 1e-2, 1e-10  # the smoothing starts at _DELTA0; each cut divides it by 5


def _bfs_levels(ptr, cols, start) -> list[np.ndarray]:
    """Breadth-first level sets, each sorted, of start's component; v's neighbours are cols[ptr[v] : ptr[v + 1]]."""
    seen = np.zeros(ptr.size - 1, dtype=bool)
    seen[start] = True
    front, levels = np.array([start]), []
    while front.size:
        levels.append(front)
        lo, count = ptr[front], ptr[front + 1] - ptr[front]
        reached = np.sort(cols[np.arange(count.sum()) + np.repeat(lo + count - np.cumsum(count), count)])
        front = reached[~seen[reached] & np.append(True, reached[1:] != reached[:-1])]  # np.unique loads numpy.ma
        seen[front] = True
    return levels


_MIN_BLOCK = 16  # nodes per block of _LevelBlocks, but for each component's last block


class _LevelBlocks:
    """Solver for SPD systems on one symmetric pattern (rows[k], cols[k]) over n nodes.

    The nodes are ordered by breadth-first level sets (Cuthill & McKee 1969),
    each component swept from a pseudo-peripheral node: the last level of a
    sweep from its first node.  An entry joins equal or adjacent levels, so the
    matrix stays block tridiagonal when runs of consecutive levels of one
    component merge into blocks of at least _MIN_BLOCK nodes (a component's
    last block may be smaller), which saves Python-level steps per solve.  The
    places of the entries in the diagonal blocks D_k and the upper blocks C_k
    (block k to k + 1, none after a component's last block) are found once.
    solve runs one forward block-LDL' (block Thomas) sweep, W_k = S_k^-1
    [C_k | r_k], S_{k+1} = D_{k+1} - C_k' W_k[:, :-1], r_{k+1} -= C_k' W_k[:, -1],
    and one back substitution.  It holds one block at a time: on block k's turn
    D_k and [C_k | r_k] are assembled in one scratch, and W_k goes to block k's
    slot of one arena, where the back substitution reads it.  Its cost grows
    like n b^2 with b the largest block, about sqrt(n) on a 2D mesh.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        by_row = np.argsort(rows, kind="stable")  # the sweeps read the pattern row by row
        ptr, adj = np.searchsorted(rows[by_row], np.arange(n + 1)), cols[by_row]
        self.levels, placed, sizes, coupled = [], np.zeros(n, dtype=bool), [], []
        while not placed.all():
            root = int(np.argmin(placed))  # the first node of a component not yet swept
            component = _bfs_levels(ptr, adj, _bfs_levels(ptr, adj, root)[-1][0])
            placed[np.concatenate(component)] = True
            self.levels += component
            count = 0
            for k, nodes in enumerate(component, 1):
                count += nodes.size
                if count >= _MIN_BLOCK or k == len(component):
                    sizes.append(count)
                    coupled.append(k < len(component))
                    count = 0
        self.order, first = np.concatenate(self.levels), np.cumsum([0] + sizes)
        self.level, self.block, local = (np.empty(n, dtype=int) for _ in range(3))
        self.level[self.order] = np.repeat(np.arange(len(self.levels)), [nodes.size for nodes in self.levels])
        self.block[self.order] = np.repeat(np.arange(len(sizes)), sizes)
        local[self.order] = np.arange(n) - np.repeat(first[:-1], sizes)
        # W_k and [C_k | r_k] are width[k] wide: the right-hand side takes the spare column
        width = [1 + (sizes[k + 1] if c else 0) for k, c in enumerate(coupled)]
        start = np.cumsum([0] + [s * w for s, w in zip(sizes, width)])
        self.arena, self.scratch = np.empty(start[-1]), np.empty(max(s * (s + w) for s, w in zip(sizes, width)))
        # the entries on or above the block diagonal, by block; those below it are dropped
        br, bc = self.block[rows], self.block[cols]
        pick = np.flatnonzero(bc >= br)
        pick = pick[np.argsort(br[pick], kind="stable")]
        br, up = br[pick], bc[pick] - br[pick]
        bounds = np.searchsorted(br, np.arange(len(sizes) + 1))
        # an entry of D_k (up = 0, rows sizes[k] long) or of [C_k | r_k] (up = 1, rows width[k] long, after D_k)
        dest = up * np.array(sizes)[br] ** 2 + local[rows[pick]] * np.array([sizes, width])[up, br] + local[cols[pick]]
        work = [self.scratch[: s * (s + w)] for s, w in zip(sizes, width)]
        self.blocks = [(self.arena[start[k] : start[k + 1]].reshape(s, w), pick[bounds[k] : bounds[k + 1]],
                        dest[bounds[k] : bounds[k + 1]], work[k], work[k][: s * s].reshape(s, s),
                        work[k][s * s :].reshape(s, w), first[k], first[k + 1])
                       for k, (s, w) in enumerate(zip(sizes, width))]

    def solve(self, values: np.ndarray, b: np.ndarray) -> np.ndarray:
        """x with A x = b, where A holds values[k] at (rows[k], cols[k])."""
        y, CW = b[self.order], None
        for W, pick, dest, work, S, Cr, lo, hi in self.blocks:
            work[:] = 0.0
            work[dest] = values[pick]
            Cr[:, -1] = y[lo:hi]
            if CW is not None:
                S -= CW[:, :-1]
                Cr[:, -1] -= CW[:, -1]
            W[:] = np.linalg.solve(S, Cr)
            CW = Cr[:, :-1].T @ W if W.shape[1] > 1 else None
        for W, *_, lo, hi in reversed(self.blocks):
            y[lo:hi] = W[:, -1] - W[:, :-1] @ y[hi : hi + W.shape[1] - 1]
        out = np.empty(y.size)
        out[self.order] = y
        return out


def _dist2_to_segments(p: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Squared distance from each point of p (n, 2) to the nearest segment of seg (ne, 2, 2).

    One pass over all points per segment, in preallocated arrays: all segments
    at once would hold several (n, ne) temporaries, too large for the cache on
    a refined mesh."""
    (ax, ay), (bx, by) = seg.transpose(1, 2, 0)
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    best, rx, ry, t, s = np.full(p.shape[0], np.inf), *(np.empty(p.shape[0]) for _ in range(4))
    for e in range(dd.size):
        np.subtract(p[:, 0], ax[e], out=rx)
        np.subtract(p[:, 1], ay[e], out=ry)
        np.multiply(rx, dx[e], out=t)
        t += np.multiply(ry, dy[e], out=s)
        t /= dd[e]
        np.clip(t, 0.0, 1.0, out=t)
        rx -= np.multiply(t, dx[e], out=s)
        ry -= np.multiply(t, dy[e], out=s)
        rx *= rx
        ry *= ry
        rx += ry
        np.minimum(best, rx, out=best)
    return best


def _minimize_disk(mesh: TriMesh, eps, ubar, seg, warm=None):
    """(J, DiskField, stage) by primal-dual Newton (Chan, Golub & Mulet 1999),
    with a duality gap as the stop rule.

    On the free nodes (u = 0 on Gamma_0), J(u) = sum_T w_T |g_T| +
    sum_q wL_q f(d_q) with g = Gu, d = Bu - ubar_q and f(d) = sqrt(1 + d^2):
    w_T is the weight's integral over triangle T (its distance term measured to
    the segments seg (ne, 2, 2), which cover this mesh's Gamma_1 edges), G the
    P1 gradient, B the map to the Gauss points q on Gamma_1 and wL_q their
    weights.  J_delta smooths |g_T| to rho_T = sqrt(|g_T|^2 + delta^2).  The
    dual p_T = w_T q_T, |q_T| <= 1, enters each step's one SPD system
    A du = -grad J_delta(u), A = G' M G + B' diag(wL f''(d)) B with the 2x2
    blocks M_T = w_T (I - sym(q_T g_T')/rho_T) / rho_T, solved by _LevelBlocks
    on a pattern built once per mesh, whose temporaries are gone before the
    first step.  Each entry of A sums its triangle terms in the order of T, then
    its Gauss-point terms: an off-diagonal entry has at most two triangle terms
    (an edge lies in at most two triangles), so adding the i > j terms after
    the i <= j ones leaves every sum as it was.  u takes an Armijo step on
    J_delta, and each q_T moves toward z_T, z = (w g/rho + M G du)/w, by its
    own step beta_T: 0.99 times the largest step that keeps |q_T| <= 1, at most
    a full step.  So |q_T| < 1 stays strict, each M_T stays SPD, and a q_T next
    to the unit sphere holds back only its own triangle (one global step, the
    minimum over T, stalls near 0 once any q_T nears the sphere).  delta is cut
    by 5, down to _DELTA_MIN, after a full primal step with beta_T = 1 in every
    triangle, or once |grad J_delta| < 1e-3 delta.

    The linearized dual y = (w z, s), s = wL (f'(d) + f''(d) B du), satisfies
    G'p + B's = grad J_delta + A du = 0 on the free nodes up to the solve's
    rounding; divided by theta >= 1 so that |p_T| <= w_T and |s_q| <= wL_q, it
    certifies by weak duality lower = sum_q [wL_q sqrt(1 - (s_q/wL_q)^2) -
    s_q ubar_q] <= J(v) for every admissible v.  J is the best value over the
    start and the iterates, lower the best bound.  warm = (u, delta) starts
    from a nodal field and a smoothing, by default u = 0 and delta = _DELTA0;
    q starts at 0.  stage is the record
    {"nv", "nit", "stop", "lower", "delta"}: "nit" counts the solves, "delta"
    is the final smoothing, and "stop" is "gap" once J and lower are finite and
    J - lower <= _GAP_TOL * J, else "maxiter" after _DISK_MAXIT solves.
    """
    nv, nt = mesh.vertices.shape[0], mesh.ncells
    edges = mesh.boundary_edges()
    g1_edges = _arc_edges(mesh, _GAMMA1)
    bn = mesh.boundary_nodes
    dir_nodes = bn[_angle_in(np.arctan2(mesh.vertices[bn, 1], mesh.vertices[bn, 0]), _GAMMA0)]
    free = np.ones(nv, dtype=bool)
    free[dir_nodes] = False
    free_idx = np.flatnonzero(free)
    nf = free_idx.size

    seg_pts = mesh.vertices[edges[g1_edges]]  # (ne, 2, 2)
    weight = mesh.cell_integrals(lambda p: _dist2_to_segments(p, seg) + eps)  # per-triangle integral

    # Gamma_1 quadrature: point k * ne + e lies at _GL_X[k] along edge e, from its first end
    ne = g1_edges.size
    e = np.tile(np.arange(ne), _GL_X.size)
    x = np.repeat(_GL_X, ne)
    ends = edges[g1_edges][e]  # (nq, 2)
    phi = np.stack([1 - x, x], axis=1)  # the two P1 hat functions at each point
    nq = x.size
    ubar_q = np.asarray(ubar(phi[:, :1] * seg_pts[e, 0] + phi[:, 1:] * seg_pts[e, 1]), dtype=float)
    if ubar_q.shape != (nq,) or not np.all(np.isfinite(ubar_q)):
        raise ValueError(f"ubar must give {nq} finite values at the Gamma_1 Gauss points, "
                         f"got shape {ubar_q.shape} with {np.count_nonzero(~np.isfinite(ubar_q))} non-finite")
    wL = np.repeat(_GL_W, ne) * mesh.boundary_edge_lengths()[g1_edges][e]

    # free node numbers per triangle corner and Gauss-point end; a Dirichlet node is nf, which reads 0
    bg = mesh.basis_gradients
    pos = np.full(nv, nf)
    pos[free_idx] = np.arange(nf)
    tri, bnd = pos[mesh.triangles], pos[ends]
    corners = np.concatenate([tri.ravel(), bnd.ravel()])

    def apply(u):  # (G u per triangle, B u per Gauss point)
        v = np.append(u, 0.0)
        return np.einsum("ti,tid->td", v[tri], bg), np.einsum("qi,qi->q", v[bnd], phi)

    def adjoint(y, s):  # G'y + B's on the free nodes
        w = np.concatenate([np.einsum("tid,td->ti", bg, y).ravel(), (phi * s[:, None]).ravel()])
        return np.bincount(corners, weights=w, minlength=nf + 1)[:nf]

    # the system's pattern, once: one slot per (T, i, j) and (q, i, j) entry on free nodes, and slot ns for the rest
    rows = np.concatenate([np.repeat(tri, 3, axis=1).ravel(), np.repeat(bnd, 2, axis=1).ravel()])
    cols = np.concatenate([np.tile(tri, 3).ravel(), np.tile(bnd, 2).ravel()])
    keep = (rows < nf) & (cols < nf)
    key = rows[keep] * nf + cols[keep]
    slots = np.sort(key)  # np.unique(key, return_inverse=True) holds twice as many temporaries
    slots = slots[np.append(True, slots[1:] != slots[:-1])]
    blocks, ns = _LevelBlocks(slots // nf, slots % nf, nf), slots.size
    rows[keep], rows[~keep] = np.searchsorted(slots, key), ns  # rows now holds each entry's slot
    # entry (T, i, j) of G'MG is M_00 K[0] + M_01 K[1] + M_11 K[2], K symmetric in (i, j): K keeps the columns
    # (i, j) = (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2), which add to slots up[T] and, the last three, lo[T]
    i, j = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
    up, lo = (rows[: 9 * nt].reshape(nt, 3, 3)[:, r, c].ravel() for r, c in ((i, j), (j[3:], i[3:])))
    q_slot = rows[9 * nt :].copy()
    del rows, cols, keep, key, slots
    bx, by = bg[:, :, 0], bg[:, :, 1]
    K = np.stack([bx[:, i] * bx[:, j], bx[:, i] * by[:, j] + by[:, i] * bx[:, j], by[:, i] * by[:, j]])
    phi2 = (phi[:, :, None] * phi[:, None, :]).reshape(nq, 4)

    def state(u):  # gradient per triangle, residual per Gauss point, J, |g_T| and f(d)
        g, d = apply(u)
        d -= ubar_q
        ng, fd = np.hypot(g[:, 0], g[:, 1]), np.hypot(1.0, d)
        return g, d, float(weight @ ng + wL @ fd), ng, fd

    def smoothed(g, d, delta):  # J_delta, in hypot form: no square overflows
        return weight @ np.hypot(np.hypot(g[:, 0], g[:, 1]), delta) + wL @ np.hypot(1.0, d)

    def dot(a, b):  # per row
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]

    u, delta = (np.zeros(nv), _DELTA0) if warm is None else warm
    u, q = np.asarray(u, dtype=float)[free_idx], np.zeros((nt, 2))
    g, d, J, ng, fd = state(u)
    best_J, best_u, lower, stop = J, u, -np.inf, "maxiter"
    for nit in range(1, _DISK_MAXIT + 1):
        rho = np.hypot(ng, delta)
        gh = g / rho[:, None]  # |gh_T| < 1
        f1, f2 = d / fd, (1.0 / fd) ** 3  # f'(d), f''(d)
        grad = adjoint(weight[:, None] * gh, wL * f1)
        # M_T = (w_T / rho_T) (I - sym(q_T gh_T'))
        m = weight / rho * np.stack([1 - q[:, 0] * gh[:, 0], -0.5 * (q[:, 0] * gh[:, 1] + q[:, 1] * gh[:, 0]),
                                     1 - q[:, 1] * gh[:, 1]])
        E = np.einsum("ct,ctk->tk", m, K)
        values = np.bincount(up, weights=E.ravel(), minlength=ns + 1)
        np.add.at(values, lo, E[:, 3:].ravel())
        np.add.at(values, q_slot, ((wL * f2)[:, None] * phi2).ravel())
        du = blocks.solve(values[:ns], -grad)
        dg, dd = apply(du)
        # the linearized dual (w z, wL sigma): z = (w gh + M dg) / w; divided by theta it lies in the box
        z = gh + (dg - 0.5 * (q * dot(gh, dg)[:, None] + gh * dot(q, dg)[:, None])) / rho[:, None]
        sigma = f1 + f2 * dd
        theta = max(1.0, float(np.max(np.hypot(z[:, 0], z[:, 1]))), float(np.max(np.abs(sigma))))
        r = sigma / theta
        lower = max(lower, float(wL @ np.sqrt(np.maximum(0.0, 1.0 - r * r)) - (wL * r) @ ubar_q))
        # u: Armijo backtracking on J_delta, no move if 40 halvings fail
        J0, slope = weight @ rho + wL @ fd, float(grad @ du)  # J0 = smoothed(g, d, delta)
        alpha = next((a for a in 0.5 ** np.arange(40.0)
                      if smoothed(g + a * dg, d + a * dd, delta) <= J0 + 1e-4 * a * slope), 0.0)
        # q: each triangle takes 0.99 of its own step to the unit ball's boundary, at most a full step
        dq = z - q
        aa, bb, cc = dot(dq, dq), dot(q, dq), dot(q, q) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            to_edge = np.where(aa > 0, (np.sqrt(np.maximum(0.0, bb * bb - aa * cc)) - bb) / aa, np.inf)
        beta = np.minimum(1.0, 0.99 * to_edge)
        q = q + beta[:, None] * dq
        u = u + alpha * du
        g, d, J, ng, fd = state(u)
        if J < best_J:
            best_J, best_u = J, u
        if np.isfinite(best_J) and np.isfinite(lower) and best_J - lower <= _GAP_TOL * best_J:
            stop = "gap"
            break
        if (alpha == 1.0 and beta.min() == 1.0) or np.linalg.norm(grad) < 1e-3 * delta:
            delta = max(delta / 5, _DELTA_MIN)
    full = np.zeros(nv)
    full[free_idx] = best_u
    return best_J, DiskField(mesh, full), {"nv": nv, "nit": nit, "stop": stop, "lower": lower, "delta": delta}
