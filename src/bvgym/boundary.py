"""Boundary quasiconvexity verifiers on the unit half-ball.

For a 1-homogeneous integrand v and a unit normal rho, quasi-sublinear
growth from below (qslb) holds iff the integral of v(grad phi) over the
half-ball D_rho = B intersect {x . rho < 0} is nonnegative for every test
field vanishing on the sphere.  1-homogeneity makes the sign of the infimum
over the unit total-variation ball scale-invariant, so the verdict reduces
to the sign of a normalized minimization.  For N = 1, and for scalar fields
(M = 1) on the 2D half-ball, the infimum is a one-variable concave dual over
sphere measures with zero tangential moment, bracketed by `_sphere_lower`
without a mesh; for M >= 2 it is a finite-element descent.

Verdicts are numerical: the scalar bracket is exact only for integrands that
are piecewise smooth between its samples, and for M >= 2 only falsification
("not_qslb", or a Jensen counterexample for jqcb) is certain; "inconclusive"
is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .integrands import HomogeneousIntegrand, mat_norm, unit_matrices
from .meshes import TriMesh, disk_mesh, rotation_to, triangle_geometry

BASE_NORMAL = np.array([1.0, 0.0])
# "qslb" needs lower (M = 1) or every level's estimate >= -QSLB_TOL; "not_qslb" upper or one <= -10 QSLB_TOL
QSLB_TOL = 1e-4
JQCB_TOL = 1e-8  # a Jensen gap above this disproves the boundary inequality
SPHERE_SAMPLES = 4096  # equally spaced directions of the M = 1 moment-duality bracket
BISECTION_STEPS = 64  # halvings of the bracket |b| <= max v - min v on the dual variable
GOLDEN_STEPS = 48  # golden-section steps polishing each active direction between its neighbours


class NotHomogeneousError(ValueError):
    pass


def _checked_normal(rho, dims: tuple[int, int]) -> np.ndarray:
    """The normal as a float vector; raises ValueError unless it is finite,
    nonzero and has the N components of an M x N integrand."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not (np.all(np.isfinite(rho)) and np.any(rho)):
        raise ValueError(f"normal must be finite and nonzero, got {rho.tolist()}")
    if rho.size != dims[1]:
        raise ValueError(f"normal {rho.tolist()} has {rho.size} components; v.dims = {tuple(dims)} needs {dims[1]}")
    return rho


def _refuse_beyond_2d(dims: tuple[int, int]) -> None:
    """Raises ValueError for an M x N integrand with N > 2: the half-ball is 2D."""
    if dims[1] > 2:
        raise ValueError(f"v.dims = {tuple(dims)} has N = {dims[1]}; the half-ball is 2D, so N must be 1 or 2")


def validate_homogeneous(v: HomogeneousIntegrand) -> None:
    P = unit_matrices(v.dims, 8)
    for alpha in (0.5, 2.0):
        lhs = np.asarray(v(alpha * P))
        rhs = alpha * np.asarray(v(P))
        if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs))):
            raise NotHomogeneousError("integrand returns a non-finite value on the sphere sample")
        if np.max(np.abs(lhs - rhs)) > 1e-8 * (1.0 + np.max(np.abs(rhs))):
            raise NotHomogeneousError("integrand is not positively 1-homogeneous")


@dataclass(frozen=True)
class SphereMeasure:
    """Nonnegative atomic measure on the unit sphere of matrices."""

    points: np.ndarray  # (K, M, N), unit norm
    weights: np.ndarray  # (K,), >= 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.min(w, initial=0.0) < 0:
            raise ValueError("sphere measure weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def pair(self, v: HomogeneousIntegrand) -> float:
        if self.weights.size == 0:
            return 0.0
        return float(self.weights @ np.asarray(v.on_sphere(self.points)))

    def normalized(self) -> "SphereMeasure":
        m = self.total_mass
        if m <= 0:
            raise ValueError("zero-mass measure cannot be normalized")
        return SphereMeasure(self.points, self.weights / m)


@dataclass(frozen=True)
class PAField:
    """Piecewise-affine vector field on its own triangulation."""

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3)
    values: np.ndarray  # (nv, M)

    def gradients(self) -> tuple[np.ndarray, np.ndarray]:
        """(areas, per-triangle gradients (nt, M, 2))."""
        areas, basis = triangle_geometry(self.vertices, self.triangles)
        return areas, np.einsum("tiM,tid->tMd", self.values[self.triangles], basis)

    def total_variation(self) -> float:
        areas, grads = self.gradients()
        return float(np.sum(areas * mat_norm(grads)))


class HalfBallProblem:
    """P1 test space on a triangulated ball, integration over D_rho only.

    The disk mesh is the rotated image of a fixed base mesh whose dividing
    diameter is a mesh line, so the half-ball is a clean union of triangles
    and problems for different normals are exactly isometric.
    """

    def __init__(self, normal, level: int = 3, ncomp: int = 1):
        normal = _checked_normal(normal, (ncomp, 2))  # the half-ball is 2D
        normal = normal / np.linalg.norm(normal)
        self.normal = normal
        self.level = level
        self.ncomp = ncomp
        self.rot = rotation_to(BASE_NORMAL, normal)
        self.mesh: TriMesh = disk_mesh(level, rotation=self.rot)
        # the half-ball D_rho = {x . normal < 0}; no triangle centre lies near the dividing diameter
        self.sel = np.nonzero(self.mesh.cell_centers @ normal < 0)[0]
        self.tri = self.mesh.triangles[self.sel]
        self._slots: dict[int, np.ndarray] = {}  # stack width -> scatter index
        self.areas = self.mesh.cell_volumes[self.sel]
        self.basis = self.mesh.basis_gradients[self.sel]
        self.weighted_basis = self.areas[:, None, None] * self.basis
        free = np.ones(self.mesh.vertices.shape[0], dtype=bool)
        free[self.mesh.boundary_nodes] = False
        self.free = free
        # base-frame coordinates (s along the normal, t tangential)
        self.coord_s = self.mesh.vertices @ normal
        tau = np.array([-normal[1], normal[0]])
        self.coord_t = self.mesh.vertices @ tau
        self.tau = tau

    # -- field algebra -------------------------------------------------
    def zeroed(self, U: np.ndarray) -> np.ndarray:
        U = np.array(U, dtype=float)
        if U.ndim == 1:
            U = U[:, None]
        U[~self.free] = 0.0
        return U

    def gradients(self, U: np.ndarray) -> np.ndarray:
        """Per-triangle gradients (t, S, M, 2) of a stack: S fields side by side, U of
        shape (nv, S*M).  One field is a stack of one."""
        G = np.matmul(U.take(self.tri, axis=0).transpose(0, 2, 1), self.basis)
        return G.reshape(G.shape[0], -1, self.ncomp, 2)

    def objective(self, G: np.ndarray, v: HomogeneousIntegrand) -> np.ndarray:
        """Half-ball integral of v for each field of a stack, shape (S,), from G = gradients(U)."""
        return np.asarray(v(G)).T @ self.areas

    def tv(self, U: np.ndarray) -> np.ndarray:
        return mat_norm(self.gradients(U)).T @ self.areas

    def nodal_gradient(self, dJdG: np.ndarray) -> np.ndarray:
        """Nodal gradient (nv, S*M) of the objectives from dv/dA per triangle, (t, [S,] M, 2)."""
        dJdG = dJdG.reshape(len(self.tri), -1, 2)
        nv, K = self.mesh.vertices.shape[0], dJdG.shape[1]
        contrib = np.matmul(self.weighted_basis, dJdG.transpose(0, 2, 1))  # (t, corner, K)
        slots = self._slots.get(K)
        if slots is None:  # slot node * K + k of every (triangle corner, column), in C order
            slots = self._slots[K] = (self.tri.reshape(-1, 1) * K + np.arange(K)).ravel()
        # bincount adds in input order, so the sums match a sequential scatter bit for bit
        out = np.bincount(slots, contrib.ravel(), nv * K).reshape(nv, K)
        out[~self.free] = 0.0
        return out

    def field(self, U: np.ndarray) -> PAField:
        """Restriction of the nodal field to the half-ball triangles."""
        U = self.zeroed(U)
        nv = self.mesh.vertices.shape[0]
        used = np.flatnonzero(np.bincount(self.tri.ravel(), minlength=nv))  # np.unique would import numpy.ma
        remap = -np.ones(nv, dtype=int)
        remap[used] = np.arange(used.size)
        return PAField(self.mesh.vertices[used], remap[self.tri], U[used])

    # -- seed fields ---------------------------------------------------
    def tent(self, a, depth: float = 0.25, halfwidth: float = 0.8) -> np.ndarray:
        """Rank-one seeded bump: gradient ~ a x normal in a slab below the flat part."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        ramp = np.clip(1.0 + self.coord_s / depth, 0.0, 1.0)
        cut = np.clip(1.0 - np.abs(self.coord_t) / halfwidth, 0.0, 1.0)
        U = np.outer(ramp * cut, a)
        return self.zeroed(U)

    def laminate(self, a) -> np.ndarray:
        """Zigzag of period 0.25 along the flat part, in a bump below it."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        phase = self.coord_t / 0.25
        zig = np.abs(phase - np.floor(phase) - 0.5) * 0.25
        bump = np.clip(1.0 - np.abs(self.coord_s + 0.4) / 0.35, 0.0, 1.0) * np.clip(
            1.0 - np.abs(self.coord_t) / 0.7, 0.0, 1.0
        )
        return self.zeroed(np.outer(zig * bump, a))

    def random_seed(self, rng: np.random.Generator) -> np.ndarray:
        r = np.linalg.norm(self.mesh.vertices, axis=1)
        U = rng.standard_normal((self.mesh.vertices.shape[0], self.ncomp))
        return self.zeroed(U * np.clip(1.0 - r, 0.0, 1.0)[:, None])


def _fd_grad(v: HomogeneousIntegrand, G: np.ndarray) -> np.ndarray:
    """dv/dA per triangle, analytic when available, else central differences.

    The 2 M N perturbed copies of G (+h then -h for each entry, in C order) go to
    v as one stack."""
    gf = getattr(v, "grad_fn", None)
    if callable(gf):
        return np.asarray(gf(G))
    h = 1e-6
    M, N = G.shape[-2:]
    P = np.repeat(G[None], 2 * M * N, axis=0)
    for k in range(M * N):
        P[2 * k, ..., k // N, k % N] += h
        P[2 * k + 1, ..., k // N, k % N] -= h
    vals = np.asarray(v(P)).reshape(M * N, 2, *G.shape[:-2])
    return np.moveaxis((vals[:, 0] - vals[:, 1]) / (2 * h), 0, -1).reshape(G.shape)


def _descend(hb: HalfBallProblem, v: HomogeneousIntegrand, seeds: Sequence[np.ndarray], iters: int):
    """Normalized subgradient descent on the unit TV sphere from all seeds at once, as one stack.

    Each seed keeps its own step 0.3 |U| / (|g| sqrt(k+1)), stop tests and best
    value; a seed that stops leaves the stack.  Returns (results, stop): results[s]
    is (best value, best field), or None when seed s has TV below 1e-12; stop[s] is
    "maxiter", "stalled" (|g| < 1e-14), "collapsed" (TV < 1e-12 after a step) or
    "degenerate" (skipped)."""
    nv, S = hb.mesh.vertices.shape[0], len(seeds)
    U = np.stack([hb.zeroed(U0) for U0 in seeds], axis=1)  # (nv, S, M)
    tv = hb.tv(U.reshape(nv, -1))
    stop = np.where(tv < 1e-12, "degenerate", "maxiter")
    live = np.flatnonzero(stop == "maxiter")  # the seeds still descending
    U = U[:, live] / tv[live, None]
    G = hb.gradients(U.reshape(nv, -1))  # the gradient stack of U, kept for the next step
    best, bestU = np.full(S, np.inf), np.zeros((nv, S, hb.ncomp))
    best[live], bestU[:, live] = hb.objective(G, v), U
    for k in range(iters):
        if not live.size:
            break
        g = hb.nodal_gradient(_fd_grad(v, G)).reshape(U.shape)
        gn = np.sqrt(np.einsum("nsm,nsm->s", g, g))
        keep = ~(gn < 1e-14)
        if not keep.all():
            stop[live[~keep]] = "stalled"
            live, U, g, gn = live[keep], U[:, keep], g[:, keep], gn[keep]
        step = 0.3 * np.sqrt(np.einsum("nsm,nsm->s", U, U)) / (gn * np.sqrt(k + 1.0))
        U = U - step[:, None] * g
        tv = hb.tv(U.reshape(nv, -1))
        keep = ~(tv < 1e-12)
        if not keep.all():
            stop[live[~keep]] = "collapsed"
            live, U, tv = live[keep], U[:, keep], tv[keep]
        U = U / tv[:, None]
        G = hb.gradients(U.reshape(nv, -1))
        vals = hb.objective(G, v)
        better = vals < best[live]
        best[live[better]], bestU[:, live[better]] = vals[better], U[:, better]
    results = [None if r == "degenerate" else (float(best[s]), bestU[:, s]) for s, r in enumerate(stop)]
    return results, stop.tolist()


def _circle() -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the SPHERE_SAMPLES angles 2 pi k / SPHERE_SAMPLES, built from one
    quadrant, so sin is exactly 0 at 0 and pi and exactly +-1 at pi/2 and 3 pi/2."""
    t = 2 * np.pi * np.arange(SPHERE_SAMPLES // 4) / SPHERE_SAMPLES
    c, s = np.cos(t), np.sin(t)
    return np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])


def _golden_min(f, a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search of f on every interval [a_i, d_i] at once, one call of f
    per step; returns the best point of each search and its value."""
    r = (np.sqrt(5.0) - 1.0) / 2.0
    b, c = d - r * (d - a), a + r * (d - a)
    fb, fc = f(b), f(c)
    left = fb <= fc
    x, fx = np.where(left, b, c), np.minimum(fb, fc)
    for _ in range(GOLDEN_STEPS):
        # the minimum lies in [a, c] when f(b) <= f(c), else in [b, d]
        a, d = np.where(left, a, b), np.where(left, c, d)
        new = np.where(left, d - r * (d - a), a + r * (d - a))
        fnew = f(new)
        b, c, fb, fc = (np.where(left, new, c), np.where(left, b, new),
                        np.where(left, fnew, fc), np.where(left, fb, fnew))
        better = fnew < fx
        x, fx = np.where(better, new, x), np.where(better, fnew, fx)
        left = fb <= fc
    return x, fx


def _dual_max(vals: np.ndarray, s: np.ndarray) -> float:
    """b* maximizing the concave phi(b) = min_k (vals_k - b s_k), by bisection on the sign
    of the active s_k in |b| <= max vals - min vals: phi(0) = min vals, and phi(b) <=
    max vals - |b| since s = +-1 is sampled."""
    hi = float(vals.max() - vals.min())
    lo, b = -hi, 0.0
    for _ in range(BISECTION_STEPS):
        b = 0.5 * (lo + hi)
        k = np.argmin(vals - b * s)
        if s[k] == 0:  # 0 is a supergradient: b is optimal
            break
        lo, hi = (lo, b) if s[k] > 0 else (b, hi)
    return b


def _sphere_values(v: HomogeneousIntegrand, S: np.ndarray) -> np.ndarray:
    vals = np.asarray(v.on_sphere(S), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NotHomogeneousError("integrand returns a non-finite value on the sphere sample")
    return vals


def _sphere_lower(v: HomogeneousIntegrand, rho: np.ndarray) -> dict:
    """Moment-duality bracket on the half-ball infimum for N = 1, and for M = 1, N = 2.

    Normalized to unit total variation, the half-ball fields of a scalar v generate
    exactly the probability measures mu on the unit circle with zero tau-moment, so the
    infimum is max_b phi(b), phi(b) = min_S [v(S) - b <S, tau>] (concave in b).  On
    SPHERE_SAMPLES equally spaced directions S_k = cos t_k rho + sin t_k tau, with
    s_k = sin t_k, `_dual_max` finds b*.  phi(b*) is the sampled minimum of
    v_k - b* s_k, polished by golden section between the neighbouring samples of each
    discrete local minimum within the largest neighbour step of it.  The polished
    directions then join the sample, b* is found again on it, and phi is the minimum
    over that augmented sample and a fresh polish of the grid; "lower" is the larger
    of the two values, each the minimum of v - b <., tau> over every point it saw, so
    "lower" <= "upper" up to rounding.  For N = 1 there is no tau:
    b is empty, and the bound is the minimum over +-1 (M = 1) or 512 unit columns.

    Returns {"lower", "upper", "certificate", "witness", "worst_direction"}: "upper" is
    the integral of v against "witness", the better of the best sampled direction
    with s = 0 and the two-atom measure on the best ones with s > 0 and s < 0 (at the
    second b*), weighted to zero tau-moment.  Both are limits of half-ball fields, so
    "upper" bounds the infimum from above; "lower" bounds it from below when v is
    piecewise smooth between samples.  "certificate" is the b* of "lower" as a list
    ([] for N = 1), "worst_direction" the direction where v - b* <., tau> is smallest.
    """
    M, N = v.dims
    if N == 1:
        S = np.array([[[1.0]], [[-1.0]]]) if M == 1 else unit_matrices((M, 1), 512)
        vals = _sphere_values(v, S)
        i = int(np.argmin(vals))
        return {"lower": float(vals[i]), "upper": float(vals[i]), "certificate": [],
                "witness": SphereMeasure(S[[i]], np.ones(1)), "worst_direction": S[i]}
    rho = rho / np.linalg.norm(rho)
    tau = np.array([-rho[1], rho[0]])
    h = 2 * np.pi / SPHERE_SAMPLES

    def along(t):
        return (np.cos(t)[:, None] * rho + np.sin(t)[:, None] * tau)[:, None, :]

    c, s_grid = _circle()
    S_grid = (c[:, None] * rho + s_grid[:, None] * tau)[:, None, :]
    v_grid = _sphere_values(v, S_grid)

    def phi(b, S, vals, s):
        """(phi(b), the direction attaining it, the polished angles): the minimum of
        vals - b s over the sample S, whose first SPHERE_SAMPLES entries are the grid
        in angle order, and over the polish of the grid's local minima."""
        g = vals - b * s
        grid = g[:SPHERE_SAMPLES]
        up, down = np.roll(grid, -1), np.roll(grid, 1)
        # a plateau, or wiggles at rounding level (1e-12 of the values), needs no polish
        noise = 1e-12 * (np.abs(v_grid).max() + abs(b))
        local = (grid <= up) & (grid <= down) & (np.maximum(up, down) - grid > noise)
        t = h * np.flatnonzero(local & (grid <= g.min() + np.max(np.abs(up - grid))))
        i = int(np.argmin(g))
        if t.size:
            t, gt = _golden_min(lambda t: _sphere_values(v, along(t)) - b * np.sin(t), t - h, t + h)
            if gt.min() < g[i]:
                return float(gt.min()), along(t[[np.argmin(gt)]])[0], t
        return float(g[i]), S[i], t

    b = _dual_max(v_grid, s_grid)
    lower, worst, t = phi(b, S_grid, v_grid, s_grid)
    S = np.concatenate([S_grid, along(t)])
    s = np.concatenate([s_grid, np.sin(t)])
    vals = np.concatenate([v_grid, _sphere_values(v, S[s_grid.size:])])
    b2 = _dual_max(vals, s)
    lower2, worst2, _ = phi(b2, S, vals, s)
    if lower2 > lower:
        lower, worst, b = lower2, worst2, b2
    g = vals - b2 * s  # on a zero-moment measure, the integral of g is that of v
    zero, pos, neg = np.flatnonzero(s == 0), np.flatnonzero(s > 0), np.flatnonzero(s < 0)
    z, k, j = zero[np.argmin(g[zero])], pos[np.argmin(g[pos])], neg[np.argmin(g[neg])]
    w = np.array([-s[j], s[k]]) / (s[k] - s[j])
    atoms, weights = (np.array([k, j]), w) if w @ g[[k, j]] < g[z] else (np.array([z]), np.ones(1))
    upper = float(weights @ vals[atoms])
    return {"lower": min(lower, upper),  # absorbs rounding: lower <= upper by construction
            "upper": upper, "certificate": [b], "witness": SphereMeasure(S[atoms], weights),
            "worst_direction": worst}


def qslb_infimum(
    v: HomogeneousIntegrand,
    rho,
    mesh_level: int = 3,
    iter_budget: int = 2000,
    seed: int = 0,
) -> dict:
    """Numerical verdict on quasi-sublinear growth from below at the normal rho.

    For N = 1, and for scalar fields (M = 1) on the 2D half-ball, the verdict comes
    from the moment-duality bracket `_sphere_lower` and no mesh is built: "qslb" iff
    lower >= -QSLB_TOL, "not_qslb" iff upper <= -10 QSLB_TOL (the witness is then
    the SphereMeasure attaining upper), else "inconclusive"; inf_est = lower, the
    result also holds "lower", "upper", "certificate" and "worst_direction", and
    "per_level" and "stages" are empty.  mesh_level, iter_budget and seed apply to
    M >= 2 only.

    For M >= 2 it minimizes the half-ball integral of v over the unit total-variation
    ball of piecewise-affine test fields, restarting from rank-one seeded tents.
    Returns {"inf_est", "verdict", "witness", "per_level", "stages"}; "qslb"
    requires a finite inf_est >= -QSLB_TOL on every level, "not_qslb" needs a
    level reaching -10 QSLB_TOL, anything else (including a level where no
    descent gave a finite estimate) is "inconclusive".  "stages" holds one record per level:
    "level", "nt" (half-ball triangles), "seeds", "iters" (per seed) and the
    per-seed "stop" reasons of `_descend`.
    """
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    _refuse_beyond_2d(v.dims)
    M, N = v.dims
    if M == 1 or N == 1:
        res = _sphere_lower(v, rho)
        verdict = ("qslb" if res["lower"] >= -QSLB_TOL
                   else "not_qslb" if res["upper"] <= -10 * QSLB_TOL else "inconclusive")
        if verdict == "qslb":
            res["witness"] = None
        return {"inf_est": res["lower"], "verdict": verdict, "per_level": [], "stages": [], **res}

    rng = np.random.default_rng(seed)
    per_level, stages = [], []
    witness = None
    best_all = np.inf
    levels = list(range(1, mesh_level + 1))
    dirs = unit_matrices((M, 1), 8).reshape(-1, M)
    for lev in levels:
        hb = HalfBallProblem(rho, level=lev, ncomp=M)
        seeds = [hb.tent(a, depth, 0.8) for a in dirs for depth in (0.2, 0.4)]
        seeds += [hb.random_seed(rng) for _ in range(2)]
        iters = max(10, iter_budget // (len(levels) * len(seeds)))
        results, stop = _descend(hb, v, seeds, iters)
        best = np.inf
        bestU = None
        for res in results:
            if res is not None and res[0] < best:
                best, bestU = res
        per_level.append(best)
        stages.append({"level": lev, "nt": int(hb.tri.shape[0]), "seeds": len(seeds),
                       "iters": iters, "stop": stop})
        if best < best_all:
            best_all = best
            witness = hb.field(bestU) if bestU is not None else None
    if any(b <= -10 * QSLB_TOL for b in per_level):
        verdict = "not_qslb"
    elif all(np.isfinite(b) and b >= -QSLB_TOL for b in per_level):
        verdict = "qslb"
        witness = None
    else:
        verdict = "inconclusive"
    return {"inf_est": float(best_all), "verdict": verdict, "witness": witness, "per_level": per_level,
            "stages": stages}


def rank_one_positivity(v: HomogeneousIntegrand, rho) -> dict:
    """Necessary sign condition: v(a x rho) >= -1e-8 on sampled unit vectors a
    (+-1 for M = 1, else 128 directions)."""
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    M = v.dims[0]
    if M == 1:
        a_samples = np.array([[1.0], [-1.0]])
    else:
        a_samples = unit_matrices((M, 1), 128).reshape(-1, M)
    worst_val = np.inf
    worst_a = None
    for a in a_samples:
        A = np.outer(a, rho)
        nA = float(mat_norm(A))
        val = float(v(A)) / nA if nA > 0 else 0.0
        if val < worst_val:
            worst_val, worst_a = val, a
    return {"ok": worst_val >= -1e-8, "worst": (worst_a, worst_val)}


def jqcb_falsify(
    v: HomogeneousIntegrand,
    rho,
    budget: int = 400,
    seed: int = 0,
) -> dict:
    """Search for a Jensen violation v(avg grad) > avg v(grad) on the half-ball
    (mesh level 3).

    Returns {"counterexample": field-or-None, "gap": best gap, "status"}, with
    status "disproved" (gap above JQCB_TOL), "not disproved" (never "holds") or
    "inconclusive" when no candidate gave a finite gap.
    """
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    M, N = v.dims
    if N == 1:
        # two-slope profiles on the half-interval
        dirs = unit_matrices((M, 1), 16)
        # all (s1, s2, t, m2) candidates, s1 varying slowest and m2 fastest
        i1, i2, t, m2 = (g.ravel() for g in np.meshgrid(
            np.arange(len(dirs)), np.arange(len(dirs)), [0.25, 0.5, 0.75], [0.5, 1.0, 2.0],
            indexing="ij"))
        s1, s2, w2 = dirs[i1], dirs[i2], (1 - t) * m2
        avg = t[:, None, None] * s1 + w2[:, None, None] * s2
        gaps = np.asarray(v(avg)) - (t * np.asarray(v(s1)) + w2 * np.asarray(v(s2)))
        gaps = np.where(np.isnan(gaps), -np.inf, gaps)  # a NaN gap never wins
        k = int(np.argmax(gaps))  # the first largest gap wins ties
        best = {"slopes": (s1[k], m2[k] * s2[k]), "t": float(t[k])}
        return _jqcb_result(best, float(gaps[k]))

    _refuse_beyond_2d(v.dims)
    rng = np.random.default_rng(seed)
    hb = HalfBallProblem(rho, level=3, ncomp=M)
    dirs = unit_matrices((M, 1), 8).reshape(-1, M)
    library = [hb.tent(a, d, w) for a in dirs for d in (0.2, 0.4) for w in (0.5, 0.8)]
    library += [hb.laminate(a) for a in dirs]
    library += [hb.random_seed(rng) for _ in range(4)]
    best_gap, best_field = -np.inf, None
    for U in library[: max(1, budget)]:
        pa = hb.field(U)
        areas, grads = pa.gradients()
        avg = np.einsum("t,tMd->Md", areas, grads)
        gap = float(v(avg)) - float(areas @ np.asarray(v(grads)))
        if gap > best_gap:
            best_gap, best_field = gap, pa
    return _jqcb_result(best_field, best_gap)


def _jqcb_result(best, gap: float) -> dict:
    """A counterexample needs a finite gap above JQCB_TOL; no finite gap at all
    (e.g. every candidate's gap NaN) is "inconclusive", not "not disproved"."""
    if not np.isfinite(gap):
        return {"counterexample": None, "gap": gap, "status": "inconclusive"}
    if gap > JQCB_TOL:
        return {"counterexample": best, "gap": gap, "status": "disproved"}
    return {"counterexample": None, "gap": gap, "status": "not disproved"}


def rotated_integrand(v: HomogeneousIntegrand, R: np.ndarray) -> HomogeneousIntegrand:
    """A |-> v(A R), the integrand seen from a rotated boundary frame."""
    R = np.asarray(R, dtype=float)

    def sphere(S, R=R):
        return v.on_sphere(S @ R)

    out = HomogeneousIntegrand(v.dims, sphere, name=f"{v.name}∘R")
    gf = getattr(v, "grad_fn", None)
    if callable(gf):
        object.__setattr__(out, "grad_fn", lambda A, R=R, gf=gf: np.asarray(gf(A @ R)) @ R.T)
    return out


def rotation_equivariance_check(
    v: HomogeneousIntegrand,
    rho1,
    rho2,
    mesh_level: int = 2,
    iter_budget: int = 600,
) -> dict:
    """Gap between the half-ball infimum at rho1 and the rotated problem at rho2.

    The rotated problem uses A |-> v(A R) with rho2 = R rho1.  For M = 1 (and N = 1)
    the bracket samples the sphere in each normal's own frame, so both problems see
    the same sphere values up to rounding; for M >= 2 the descent runs on the image
    mesh, which is exactly isometric to the original.  Either way the gap is float
    noise.
    """
    rho1 = _checked_normal(rho1, v.dims)
    rho2 = _checked_normal(rho2, v.dims)
    R = rotation_to(rho1 / np.linalg.norm(rho1), rho2 / np.linalg.norm(rho2))
    r1 = qslb_infimum(v, rho1, mesh_level, iter_budget)
    r2 = qslb_infimum(rotated_integrand(v, R), rho2, mesh_level, iter_budget)
    return {"gap": abs(r1["inf_est"] - r2["inf_est"]), "inf1": r1["inf_est"], "inf2": r2["inf_est"]}


# ---------------------------------------------------------------------------
# sphere measures generated by concentrating test fields


def hrho_element(field) -> SphereMeasure:
    """Pushforward of |grad phi| Lebesgue through the direction map.

    `field` is a PAField (already restricted to the half-ball) or a
    (HalfBallProblem, nodal values) pair.  Directions that agree after rounding
    to multiples of 1e-12 merge into one atom.  Total mass equals the half-ball
    total variation of the field.
    """
    if isinstance(field, tuple):
        hb, U = field
        field = hb.field(U)
    areas, grads = field.gradients()
    norms = mat_norm(grads)
    buckets: dict[tuple, tuple[float, np.ndarray]] = {}
    for t in range(grads.shape[0]):
        if norms[t] <= 0:
            continue
        d = grads[t] / norms[t]
        key = tuple(np.round(d.ravel() / 1e-12).astype(np.int64).tolist())
        w = float(areas[t] * norms[t])
        if key in buckets:
            w0, d0 = buckets[key]
            buckets[key] = (w0 + w, d0)
        else:
            buckets[key] = (w, d)
    if not buckets:
        M, N = grads.shape[1], grads.shape[2]
        return SphereMeasure(np.zeros((0, M, N)), np.zeros(0))
    pts = np.array([d for _, d in buckets.values()])
    ws = np.array([w for w, _ in buckets.values()])
    return SphereMeasure(pts, ws)


def hrho_convex_combination(hb: HalfBallProblem, U1: np.ndarray, U2: np.ndarray, t: float) -> PAField:
    """Test field realizing t d1 + (1-t) d2 via disjoint rescaled copies.

    Both fields are shrunk by 1/3 (values scaled by 3 to preserve the sphere
    measure exactly) and the second copy is translated along the flat part,
    so the supports are disjoint sub-half-balls of D_rho.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    pa1 = hb.field(U1)
    pa2 = hb.field(U2)
    x0 = 0.5 * hb.tau
    verts = np.concatenate([pa1.vertices / 3.0, x0[None, :] + pa2.vertices / 3.0])
    off = pa1.vertices.shape[0]
    tris = np.concatenate([pa1.triangles, pa2.triangles + off])
    vals = np.concatenate([3.0 * t * pa1.values, 3.0 * (1.0 - t) * pa2.values])
    return PAField(verts, tris, vals)
