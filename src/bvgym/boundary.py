"""Boundary quasiconvexity verifiers on the unit half-ball.

For a 1-homogeneous integrand v and a unit normal rho, quasi-sublinear
growth from below (qslb) holds iff the integral of v(grad phi) over the
half-ball D_rho = B intersect {x . rho < 0} is nonnegative for every test
field vanishing on the sphere.  1-homogeneity makes the sign of the infimum
over the unit total-variation ball scale-invariant, so the verdict reduces
to the sign of a normalized minimization.  Every verdict starts from the
moment-duality bracket of `_sphere_lower`, lower = max_b min_S [v(S) - <b, S tau>]
<= infimum <= upper, found without a mesh: exact for N = 1 and for scalar
fields (M = 1), a sufficient lower bound for M >= 2, where upper is the best
boundary-layer direction a (x) rho of `_columns`.  For M >= 2, when neither
bound decides, `_laminate` lowers upper by the best rank-one laminate of
gradients A and B with barycenter c (x) rho, again without a mesh; no verdict
builds one.  Only `jqcb_falsify` (N = 2) searches on a half-ball mesh.

Verdicts are numerical: the bracket is exact only for integrands that are
piecewise smooth between its samples, and jqcb only ever disproves (by a
Jensen counterexample); "inconclusive" is a first-class outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrands import HomogeneousIntegrand, check_seed, mat_norm, seeded_normal, seeded_uniform, unit_matrices
from .measures import DiskField
from .meshes import TriMesh, disk_mesh, rotation_to

BASE_NORMAL = np.array([1.0, 0.0])
# "qslb" needs lower >= -QSLB_TOL; "not_qslb" needs upper (for M >= 2 maybe a laminate's) <= -10 QSLB_TOL
QSLB_TOL = 1e-4
JQCB_TOL = 1e-8  # a Jensen gap above this disproves the boundary inequality
SPHERE_SAMPLES = 4096  # directions of the moment-duality sample, from unit_matrices
LAYER_SAMPLES = 512  # unit columns a: the N = 1 bound, and the boundary-layer directions a (x) rho for M >= 2,
# which give the bracket's upper and rank_one_positivity
POLISHED_ATOMS = 16  # for M >= 2, the atoms of least v - <b*, S tau> polished besides the LP basis
EXCHANGE_ROUNDS = 2  # bracket rounds after the first, each with the directions the polish moved
POLISH_SWEEPS = 4  # rounds of searches along a fresh tangent frame (M >= 2); a round that lowers nothing ends them
FD_ANGLE = 1e-6  # central-difference step of `_settle`, in radians
SECTION_POINTS = 15  # equally spaced points per bracket and call of `_section_min`: it keeps 2 of 16 gaps
SECTION_CALLS = 12  # calls per polish along a great circle: the bracket ends 2h 8^-12 wide
LAMINATE_STARTS = 4096  # (c, a, n, t) starts of `_laminate`, scored in one call of v
LAMINATE_POLISHED = 16  # the starts of least ratio, polished by coordinate section searches
LAMINATE_SWEEPS = 8  # rounds of one `_section_min` per polished start and coordinate, all in one stack


class NotHomogeneousError(ValueError):
    pass


def _checked_normal(rho, dims: tuple[int, int]) -> np.ndarray:
    """The unit normal; raises ValueError unless rho is finite, nonzero and has the
    N components of an M x N integrand.  Scaling by the largest |component| first
    keeps the norm of a huge or tiny normal from overflowing or underflowing."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not (np.all(np.isfinite(rho)) and np.any(rho)):
        raise ValueError(f"normal must be finite and nonzero, got {rho.tolist()}")
    if rho.size != dims[1]:
        raise ValueError(f"normal {rho.tolist()} has {rho.size} components; v.dims = {tuple(dims)} needs {dims[1]}")
    rho = rho / np.max(np.abs(rho))
    return rho / np.linalg.norm(rho)


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


class HalfBallProblem:
    """P1 test space on a triangulated ball, integration over D_rho only.

    The disk mesh is the rotated image of a fixed base mesh whose dividing
    diameter is a mesh line, so the half-ball is a clean union of triangles
    and problems for different normals are exactly isometric.
    """

    def __init__(self, normal, level: int = 3, ncomp: int = 1):
        normal = _checked_normal(normal, (ncomp, 2))  # the half-ball is 2D
        self.normal = normal
        self.level = level
        self.ncomp = ncomp
        self.rot = rotation_to(BASE_NORMAL, normal)
        self.mesh: TriMesh = disk_mesh(level, rotation=self.rot)
        # the half-ball D_rho = {x . normal < 0}; no triangle centre lies near the dividing diameter
        self.sel = np.nonzero(self.mesh.cell_centers @ normal < 0)[0]
        self.tri = self.mesh.triangles[self.sel]
        self.areas = self.mesh.cell_volumes[self.sel]
        self.basis = self.mesh.basis_gradients[self.sel]
        self.weighted_basis = self.areas[:, None, None] * self.basis
        free = np.ones(self.mesh.vertices.shape[0], dtype=bool)
        free[self.mesh.boundary_nodes] = False
        self.free = free
        # base-frame coordinates (s along the normal, t tangential)
        self.coord_s = self.mesh.vertices @ normal
        self.coord_t = self.mesh.vertices @ np.array([-normal[1], normal[0]])

    # -- field algebra -------------------------------------------------
    def zeroed(self, U: np.ndarray) -> np.ndarray:
        """A copy of the nodal field U (nv, M), zero on the disk's boundary nodes."""
        U = np.array(U, dtype=float)
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

    def nodal_gradient(self, dJdG: np.ndarray) -> np.ndarray:
        """Nodal gradient (nv, S*M) of the objectives from dv/dA per triangle, (t, [S,] M, 2)."""
        dJdG = dJdG.reshape(len(self.tri), -1, 2)
        nv, K = self.mesh.vertices.shape[0], dJdG.shape[1]
        contrib = np.matmul(self.weighted_basis, dJdG.transpose(0, 2, 1))  # (t, corner, K)
        slots = (self.tri.reshape(-1, 1) * K + np.arange(K)).ravel()  # node * K + k per (corner, column), C order
        # bincount adds in input order, so the sums match a sequential scatter bit for bit
        out = np.bincount(slots, contrib.ravel(), nv * K).reshape(nv, K)
        out[~self.free] = 0.0
        return out

    def field(self, U: np.ndarray) -> DiskField:
        """Restriction of the nodal field to the half-ball triangles, a P1 field on their
        own mesh.  Its boundary nodes are the arc's and the diameter's: those that also
        lie on a triangle off the half-ball."""
        U = self.zeroed(U)
        nv = self.mesh.vertices.shape[0]
        count = np.bincount(self.tri.ravel(), minlength=nv)  # np.unique would import numpy.ma
        used = np.flatnonzero(count)
        remap = -np.ones(nv, dtype=int)
        remap[used] = np.arange(used.size)
        edge = ~self.free[used] | (np.bincount(self.mesh.triangles.ravel(), minlength=nv)[used] > count[used])
        mesh = TriMesh(self.mesh.vertices[used], remap[self.tri], np.flatnonzero(edge), "half_ball")
        return DiskField(mesh, U[used])

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

    def random_seed(self, seed: int, k: int) -> np.ndarray:
        """Field k of seed: `seeded_normal` nodal values on stream 2 + k, damped to 0 at |x| = 1."""
        r = np.linalg.norm(self.mesh.vertices, axis=1)
        U = seeded_normal((self.mesh.vertices.shape[0], self.ncomp), seed, 2 + k)
        return self.zeroed(U * np.clip(1.0 - r, 0.0, 1.0)[:, None])


def _columns(M: int) -> np.ndarray:
    """Unit M x 1 matrices: +-1 for M = 1, else LAYER_SAMPLES of `unit_matrices`."""
    return np.array([[[1.0]], [[-1.0]]]) if M == 1 else unit_matrices((M, 1), LAYER_SAMPLES)


def _frame_sample(M: int) -> np.ndarray:
    """Unit M x 2 matrices X in the frame of the normal: X stands for the direction
    S = X[:, 0] (x) rho + X[:, 1] (x) tau, so S tau = X[:, 1] exactly.

    M = 1: `unit_matrices((1, 2), SPHERE_SAMPLES)`, equally spaced angles in order (X = +-rho
    and +-tau exactly).  M >= 2: `unit_matrices((M, 2), SPHERE_SAMPLES)`, whose first
    rows are +-E_ij, then the boundary-layer directions a (x) rho for a in `_columns`."""
    if M == 1:
        return unit_matrices((1, 2), SPHERE_SAMPLES)
    a = _columns(M)
    return np.concatenate([unit_matrices((M, 2), SPHERE_SAMPLES), np.concatenate([a, np.zeros_like(a)], axis=2)])


def _section_min(f, a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Section search of f on every interval [a_i, d_i] at once: each of SECTION_CALLS
    calls of f takes SECTION_POINTS equally spaced interior points of every bracket,
    an (n, SECTION_POINTS) array, and keeps the two gaps around each bracket's best
    point, so a bracket shrinks 8 times per call.  Returns the best point of each
    search and its value."""
    x, fx, rows, j = a, np.full(a.shape, np.inf), np.arange(a.size), np.arange(1, SECTION_POINTS + 1)
    for _ in range(SECTION_CALLS):
        w = (d - a) / (SECTION_POINTS + 1)
        t = a[:, None] + w[:, None] * j
        ft = f(t)
        i = np.argmin(ft, axis=1)
        ti, fi = t[rows, i], ft[rows, i]
        better = fi < fx
        x, fx = np.where(better, ti, x), np.where(better, fi, fx)
        a, d = a + w * i, a + w * (i + 2)
    return x, fx


def _polish(f, X: np.ndarray, fx: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Local search of f on the unit sphere from every X_i (shape (n, M, 2)), whose
    value is fx_i: a `_section_min` within angle h along the great circle through
    X_i in each direction of an orthonormal tangent frame, in turn, each call of f
    on every point's (n, SECTION_POINTS) angles at once.  A point moves
    only where f falls, and stays on the later circles of its frame, which is
    orthogonal to the plane it moves in.  On the circle (M = 1) one search is exact;
    for M >= 2 a fresh frame starts each of up to POLISH_SWEEPS sweeps, until a sweep
    lowers no value by more than 1e-12 of it."""
    n = X.shape[0]
    Y = X.reshape(n, -1)
    D = Y.shape[1]
    for _ in range(1 if D == 2 else POLISH_SWEEPS):
        # the Householder reflection that swaps Y and -+e_0: its other columns are orthonormal and orthogonal to Y
        w = Y + np.where(Y[:, :1] >= 0, 1.0, -1.0) * np.eye(D)[0]
        frames = np.eye(D) - 2 * w[:, :, None] * w[:, None, :] / np.sum(w * w, axis=1)[:, None, None]
        start = fx
        for T in np.moveaxis(frames[:, :, 1:], 2, 0):

            def arc(th, Y=Y, T=T):  # th (n, k) -> points (n, k, D)
                return np.cos(th)[:, :, None] * Y[:, None] + np.sin(th)[:, :, None] * T[:, None]

            th, ft = _section_min(lambda th: f(arc(th).reshape(-1, *X.shape[1:])).reshape(th.shape),
                                  np.full(n, -h), np.full(n, h))
            better = ft < fx
            Y, fx = np.where(better[:, None], arc(th[:, None])[:, 0], Y), np.where(better, ft, fx)
        if np.all(start - fx <= 1e-12 * (1.0 + np.abs(fx))):
            break
    return Y.reshape(X.shape), fx


def _dual_lp(vals: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize t subject to t + <b, a_k> <= vals_k over (t, b) in R^{1+M}, by the
    simplex method on its dual: minimize sum mu_k vals_k over probability weights mu
    on the samples with zero moment sum mu_k a_k = 0.

    A basis is M + 1 atoms whose columns (1, a_k) are independent: (t, b) makes
    them tight, and mu is their weights.  Every sample holds a_k = 0 and a_k = e_i
    exactly, so the first basis, the best atom with a_k = 0 (mu = 1 there) and the
    atom with the largest a_k[i] for each i, is feasible, bounds b and has a known
    inverse; each exchange updates the inverse by one elimination step.  Each
    exchange enters the atom of most negative reduced cost vals_k - t - <b, a_k>,
    and the ratio test drops the basis atom whose weight reaches 0 first.  Ties,
    which degenerate exchanges (mu_i = 0) make common, go to the lexicographically
    least row of the basis inverse over the pivot column; the first basis has
    lexicographically positive rows, so in exact arithmetic the method cannot
    cycle, and a basis met again since mu last moved ends it.  Returns (b, basis,
    inv): the last vertex, its atoms and the inverse of their matrix, whose first
    column is mu; mu stays a feasible dual point throughout.
    """
    K, M = a.shape
    cols = np.concatenate([np.ones((K, 1)), a], axis=1)  # (1, a_k) per atom
    zero = np.flatnonzero(~a.any(axis=1))
    basis = np.concatenate([[zero[np.argmin(vals[zero])]], np.argmax(a, axis=0)])
    inv = np.eye(M + 1)  # the inverse of the basis matrix, columns (1, a_k)
    inv[0, 1:] = -1.0
    tol = 1e-12 * (1.0 + np.abs(vals).max())
    seen = set()  # the bases met since mu last moved
    for it in range(K + 1):
        mu, y = inv[:, 0], inv.T @ vals[basis]
        r = vals - cols @ y
        key = tuple(sorted(basis.tolist()))
        if not np.any(r < -tol) or key in seen or it == K:
            break
        seen.add(key)
        q = int(np.argmin(r))
        d = inv @ cols[q]
        pos = np.flatnonzero(d > 1e-12)  # nonempty: the primal (t, b) is feasible
        ratio = inv[pos] / d[pos, None]  # column 0 is mu / d
        if ratio[:, 0].min() > 1e-14:
            seen = set()
        ratio[ratio[:, 0] <= ratio[:, 0].min() + 1e-14, 0] = 0.0  # ties within rounding
        out = pos[np.lexsort(ratio.T[::-1])[0]]
        basis[out] = q
        pivot = inv[out] / d[out]
        inv = inv - np.outer(d, pivot)
        inv[out] = pivot
    return y[1:], basis, inv


def _settle(b, g, X, basis, inv, values) -> np.ndarray:
    """b moved within the optimal face of `_dual_lp` toward where its support atoms
    are stationary points of g = v - <b, S tau> on the sphere.

    A vertex of the face sits where the sampled minimum is flat only for lack of
    samples.  The face keeps t and the support (the atoms of positive weight) tight:
    its directions are the rows of inv for the basis atoms of zero weight, since row
    j has <n, a_i> = delta_ij on the basis and no t part (inv[j, 0] = mu_j = 0).  For a
    unit e among them, T = (0, e) is tangent at every support atom and turns S tau
    by e, so g is stationary along T where <b, e> = dv/dT.  The target b takes those
    values (the mu-weighted mean of central differences over the support) on an
    orthonormal basis of the directions; b moves toward it as far as the face goes.
    """
    mu = inv[:, 0]
    supp = mu > 1e-12
    E = []  # orthonormal directions of the face, by Gram-Schmidt
    for n in inv[~supp, 1:]:
        for e in E:
            n = n - (n @ e) * e
        if np.linalg.norm(n) > 1e-9:
            E.append(n / np.linalg.norm(n))
    if not E:
        return b
    E, P, w = np.array(E), X[basis[supp]], mu[supp] / mu[supp].sum()
    T = np.zeros((len(E), 1) + X.shape[1:])
    T[:, 0, :, 1] = E
    c, s = np.cos(FD_ANGLE), np.sin(FD_ANGLE)
    dv = (values(c * P + s * T) - values(c * P - s * T)) / (2 * s)  # (directions, support atoms)
    d = E.T @ (dv @ w - E @ b)
    ad = X[:, :, 1] @ d
    r = g - g[basis[supp]].max()  # the slack of every sample, >= 0 up to rounding
    hit = ad > 1e-12 * np.abs(ad).max()
    with np.errstate(over="ignore"):  # a huge slack over a tiny ad is inf, which the clip takes to 1
        step = np.min(r[hit] / ad[hit], initial=1.0)
    return b + np.clip(step, 0.0, 1.0) * d


def _sphere_values(v: HomogeneousIntegrand, S: np.ndarray) -> np.ndarray:
    vals = np.asarray(v.on_sphere(S), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NotHomogeneousError("integrand returns a non-finite value on the sphere sample")
    return vals


def _sphere_lower(v: HomogeneousIntegrand, rho: np.ndarray) -> dict:
    """Moment-duality bracket on the half-ball infimum, for N = 2 (every M) and N = 1.

    For sigma = b (x) tau, sigma rho = 0, so the half-ball integral of <sigma, grad phi>
    vanishes for every test field; normalized to unit total variation, the infimum
    is therefore at least lower = max_b min_{|S|=1} [v(S) - <b, S tau>].  For M = 1
    that is the infimum itself: the fields generate exactly the probability measures
    on the circle with zero tau-moment.  For M >= 2 it is only a sufficient bound.

    The directions are `_frame_sample`'s, so a_k = S_k tau holds exactly and a
    rotated normal sees a rotated sample.  Each round: `_dual_lp` finds the sampled
    optimum and `_settle` places b* in its optimal face; the atoms where
    g = v - <b*, S tau> is least are polished by `_polish` within the sample spacing h
    (M = 1: every discrete local minimum of the circle grid within the largest
    neighbour step of the sampled minimum, plateaus and wiggles below 1e-12 of the
    values left out; M >= 2: the LP basis and the POLISHED_ATOMS lowest atoms, unless
    the sample is flat to 1e-12).  The round's value is the minimum of g over every
    direction it saw.  While the polish moves directions and raises the value, up
    to EXCHANGE_ROUNDS exchange rounds follow, each with the moved directions in
    the sample.  "lower" is the best round's value: exact for v that is piecewise
    smooth between samples, and no proof for an arbitrary callable (for M >= 2 the
    polish can stall where kinks meet, and lower then exceeds the infimum).  For N = 1
    there is no tau: b is empty, and the bound is the minimum over `_columns`.

    Returns {"lower", "upper", "certificate", "witness", "worst_direction"}.  "upper"
    is the integral of v against "witness", a measure that half-ball fields generate:
    for M = 1 the last LP's dual measure mu, a probability on at most two directions
    with zero tau-moment, whose integral is the sampled LP value; for M >= 2 the best
    sampled boundary-layer direction a (x) rho (a layer of a field along the flat
    part).  Both lie in every round's sample, so "lower" <= "upper" up to rounding.
    "certificate" is the b* of "lower" as a list ([] for N = 1), "worst_direction"
    the direction where its g is least.
    """
    M, N = v.dims
    if N == 1:
        S = _columns(M)
        vals = _sphere_values(v, S)
        i = int(np.argmin(vals))
        return {"lower": float(vals[i]), "upper": float(vals[i]), "certificate": [],
                "witness": SphereMeasure(S[[i]], np.ones(1)), "worst_direction": S[i]}
    frame = np.array([rho, [-rho[1], rho[0]]])  # rows rho and tau: S = X @ frame
    D = 2 * M
    h = (2 * np.pi ** (D / 2) / math.gamma(D / 2) / SPHERE_SAMPLES) ** (1 / (D - 1))  # sample spacing

    def values(X):
        return _sphere_values(v, X @ frame)

    X = _frame_sample(M)
    vals = values(X)
    noise = 1e-12 * np.abs(vals).max()  # rounding level of the values
    lower = -np.inf
    for rnd in range(EXCHANGE_ROUNDS + 1):  # the sample, then the exchange rounds
        b, basis, inv = _dual_lp(vals, X[:, :, 1])
        b = _settle(b, vals - X[:, :, 1] @ b, X, basis, inv, values)
        g = vals - X[:, :, 1] @ b
        flat = noise + 1e-12 * np.linalg.norm(b)  # a plateau, or wiggles at rounding level, needs no polish
        if M == 1:
            grid = g[:SPHERE_SAMPLES]
            up, down = np.roll(grid, -1), np.roll(grid, 1)
            local = (grid <= up) & (grid <= down) & (np.maximum(up, down) - grid > flat)
            active = local & (grid <= g.min() + np.max(np.abs(up - grid)))
        else:
            active = np.zeros(g.size, dtype=bool)
            if np.ptp(g) > flat:
                active[basis] = True
                active[np.argpartition(g, POLISHED_ATOMS)[:POLISHED_ATOMS]] = True
        k = np.flatnonzero(active)
        P, gp = _polish(lambda Y: values(Y) - Y[:, :, 1] @ b, X[k], g[k], h) if k.size else (X[k], g[k])
        i = int(np.argmin(g))
        j = int(np.argmin(gp)) if gp.size else 0
        low, at = (gp[j], P[j]) if gp.size and gp[j] < g[i] else (g[i], X[i])
        gain = low - lower
        if gain > 0:
            lower, cert, worst = float(low), b, at @ frame
        if rnd == EXCHANGE_ROUNDS or gain <= flat:
            break
        keep = []  # the directions the polish lowered beyond rounding, best first, less near-copies
        for m in np.argsort(gp):
            if gp[m] < g[k[m]] - flat and np.min(mat_norm(np.concatenate([X, P[keep]]) - P[m])) > 1e-6:
                keep.append(m)
        if not keep:
            break
        X, vals = np.concatenate([X, P[keep]]), np.concatenate([vals, values(P[keep])])
    S, mu = X @ frame, inv[:, 0]
    if M == 1:
        atoms = basis[mu > 0]
        witness = SphereMeasure(S[atoms], mu[mu > 0])
    else:
        layer = np.flatnonzero(~X[:, :, 1].any(axis=1))
        atoms = layer[[np.argmin(vals[layer])]]
        witness = SphereMeasure(S[atoms], np.ones(1))
    upper = float(witness.weights @ vals[atoms])
    return {"lower": min(lower, upper),  # absorbs rounding: lower <= upper by construction
            "upper": upper, "certificate": cert.tolist(), "witness": witness, "worst_direction": worst}


def _laminate(v: HomogeneousIntegrand, rho: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray, int]:
    """Least rank-one laminate bound on the half-ball infimum, for N = 2.

    A = c (x) rho + (1-t) a (x) n and B = c (x) rho - t a (x) n, n a unit vector of the
    plane, differ by the rank-one a (x) n and have barycenter c (x) rho.  A sawtooth
    with gradients A and B (fractions t and 1-t) in a thin slab along the flat part,
    cut off at the slab's ends and inner edge at o(TV) cost, shows that
    R = [t v(A) + (1-t) v(B)] / [t |A| + (1-t) |B|] bounds the infimum from above;
    a = 0 is the boundary layer c (x) rho.  The parameters, in rho's frame, are c and
    a in R^M, the angle of n and a logit for t.  One call of v scores LAMINATE_STARTS
    seeded starts, (c, a) from `unit_matrices` (for M >= 2 the +-E_ij, the layers
    among them, come first).  The LAMINATE_POLISHED best then take up to LAMINATE_SWEEPS sweeps:
    a `_section_min` along every coordinate of every start, all in one stack, after
    which each start takes its best move, if it lowers R.  Returns (R, t, A, B, the
    calls of v), A and B as matrices, not in rho's frame.
    """
    M, calls = v.dims[0], 0
    frame = np.array([rho, [-rho[1], rho[0]]])

    def pieces(P):  # parameters (..., 2M + 2) -> t, A, B
        t = 1.0 / (1.0 + np.exp(-P[..., -1]))
        n = np.stack([np.cos(P[..., -2]), np.sin(P[..., -2])], axis=-1)
        c, an = P[..., :M, None] * frame[0], P[..., M:-2, None] * (n @ frame)[..., None, :]
        return t, c + (1 - t)[..., None, None] * an, c - t[..., None, None] * an

    def ratio(P):
        nonlocal calls
        calls += 1
        t, A, B = pieces(P)
        AB = np.stack([A, B])
        r = mat_norm(AB)
        S = AB / np.where(r > 0, r, 1.0)[..., None, None]
        S[r == 0, 0, 0] = 1.0  # any unit direction: its weight r is 0
        vals = r * _sphere_values(v, S.reshape(-1, M, 2)).reshape(r.shape)
        den = t * r[0] + (1 - t) * r[1]
        return np.where(den > 0, t * vals[0] + (1 - t) * vals[1], np.inf) / np.where(den > 0, den, 1.0)

    ca = unit_matrices((M, 2), LAMINATE_STARTS - 4 * M)  # columns c and a
    u = seeded_uniform((2, len(ca)), 0, 1)  # stream 1: apart from the (c, a) rows
    P = np.column_stack([ca[:, :, 0], ca[:, :, 1], np.pi * u[0], 6.0 * u[1] - 3.0])
    f = ratio(P)
    keep = np.argsort(f, kind="stable")[:LAMINATE_POLISHED]
    P, f = P[keep], f[keep]
    n, D = P.shape
    h = np.repeat([1.0, np.pi / 2, 4.0], [2 * M, 1, 1])  # half-widths: (c, a) starts at unit norm, angle, logit
    line, coord = np.divmod(np.arange(n * D), D)  # one search per start and coordinate
    for _ in range(LAMINATE_SWEEPS):

        def along(x, base=P[line]):  # x (n D, k): values of each search's coordinate
            Q = np.repeat(base[:, None], x.shape[1], axis=1)
            Q[np.arange(n * D), :, coord] = x
            return ratio(Q)

        x, fx = _section_min(along, P.ravel() - h[coord], P.ravel() + h[coord])
        k = np.arange(n) * D + np.argmin(fx.reshape(n, D), axis=1)  # each start's best search
        move = fx[k] < f
        if not move.any():  # the next sweep would repeat this one
            break
        P[move, coord[k[move]]], f[move] = x[k[move]], fx[k[move]]
    i = int(np.argmin(f))
    t, A, B = pieces(P[i])
    return float(f[i]), float(t), A, B, calls


def qslb_infimum(v: HomogeneousIntegrand, rho, mesh_level: int = 3, iter_budget: int = 2000) -> dict:
    """Numerical verdict on quasi-sublinear growth from below at the normal rho.

    Every verdict starts from the moment-duality bracket `_sphere_lower`, and the
    result holds its "lower", "upper", "certificate" (b*) and "worst_direction".
    For M >= 2 with lower < -QSLB_TOL and upper > -10 QSLB_TOL, where neither bound
    decides, upper becomes the least of the bracket's and `_laminate`'s, the witness
    then the laminate's two atoms A/|A| and B/|B| with weights proportional to t |A|
    and (1-t) |B|, and "stages" holds one record: "t", "A", "B", "calls" (of v) and
    "gap" (upper - lower).  inf_est is upper on that path, lower on every other.
    "qslb" iff lower >= -QSLB_TOL; else "not_qslb" iff upper <= -10 QSLB_TOL, with
    the SphereMeasure attaining upper (the integral of a measure that half-ball
    fields generate) as the witness; else "inconclusive".  "witness" is None for
    "qslb", and "per_level" is always empty.  No verdict builds a mesh, so
    mesh_level and iter_budget are accepted for older callers and ignored.
    """
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    _refuse_beyond_2d(v.dims)
    M, N = v.dims
    res = _sphere_lower(v, rho)
    res.update(inf_est=res["lower"], per_level=[], stages=[])
    if M > 1 and N > 1 and res["lower"] < -QSLB_TOL and res["upper"] > -10 * QSLB_TOL:
        R, t, A, B, calls = _laminate(v, rho)
        if R < res["upper"]:
            AB = np.stack([A, B])
            r = mat_norm(AB)
            w = np.array([t, 1.0 - t]) * r
            res.update(upper=R, witness=SphereMeasure(AB[w > 0] / r[w > 0, None, None], w[w > 0] / w.sum()))
        res["stages"] = [{"t": t, "A": A.tolist(), "B": B.tolist(), "calls": calls, "gap": res["upper"] - res["lower"]}]
        res.update(inf_est=res["upper"], lower=min(res["lower"], res["upper"]))
    lower, upper = res["lower"], res["upper"]
    verdict = "qslb" if lower >= -QSLB_TOL else "not_qslb" if upper <= -10 * QSLB_TOL else "inconclusive"
    return {**res, "verdict": verdict, "witness": None if verdict == "qslb" else res["witness"]}


def rank_one_positivity(v: HomogeneousIntegrand, rho) -> dict:
    """Necessary sign condition: v(a x rho) >= -1e-8 on the unit columns a of
    `_columns`, the bracket's boundary-layer sample.  "worst" is (a, v(a x rho))
    at the first least value."""
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    a = _columns(v.dims[0])
    vals = np.asarray(v.on_sphere(a * rho), dtype=float)
    i = int(np.argmin(vals))
    return {"ok": bool(vals[i] >= -1e-8), "worst": (a[i, :, 0], float(vals[i]))}


def jqcb_falsify(
    v: HomogeneousIntegrand,
    rho,
    budget: int = 400,
    seed: int = 0,
) -> dict:
    """Search for a Jensen violation v(avg grad) > avg v(grad) on the half-ball
    (mesh level 3).

    Returns {"counterexample", "gap": best gap, "status"}, with
    status "disproved" (gap above JQCB_TOL), "not disproved" (never "holds") or
    "inconclusive" when no candidate gave a finite gap.  A counterexample is the
    half-ball restriction (`HalfBallProblem.field`, a DiskField) for N = 2, the
    two slopes and the fraction t of the first for N = 1; None unless disproved.
    seed, an int >= 0 of any size, selects the four random fields of N = 2
    (`HalfBallProblem.random_seed`); N = 1 draws nothing.
    """
    validate_homogeneous(v)
    rho = _checked_normal(rho, v.dims)
    seed = check_seed(seed)
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
    hb = HalfBallProblem(rho, level=3, ncomp=M)
    dirs = unit_matrices((M, 1), 8).reshape(-1, M)
    library = [hb.tent(a, d, w) for a in dirs for d in (0.2, 0.4) for w in (0.5, 0.8)]
    library += [hb.laminate(a) for a in dirs]
    library += [hb.random_seed(seed, k) for k in range(4)]
    library = library[: max(1, budget)]
    G = hb.gradients(np.concatenate(library, axis=1))  # (t, candidate, M, 2)
    gaps = np.asarray(v(np.einsum("t,tcMd->cMd", hb.areas, G))) - hb.areas @ np.asarray(v(G))
    gaps = np.where(np.isnan(gaps), -np.inf, gaps)  # a NaN gap never wins
    k = int(np.argmax(gaps))  # the first largest gap wins ties
    return _jqcb_result(hb.field(library[k]), float(gaps[k]))


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

    return HomogeneousIntegrand(v.dims, sphere, name=f"{v.name}∘R")


def rotation_equivariance_check(v: HomogeneousIntegrand, rho1, rho2) -> dict:
    """Gap between the half-ball infimum at rho1 and the rotated problem at rho2.

    The rotated problem uses A |-> v(A R) with rho2 = R rho1.  The bracket and the
    laminate search both work in each normal's own frame, so both problems see the
    same sphere values up to rounding, and the gap is float noise.
    """
    rho1 = _checked_normal(rho1, v.dims)
    rho2 = _checked_normal(rho2, v.dims)
    R = rotation_to(rho1, rho2)
    r1 = qslb_infimum(v, rho1)
    r2 = qslb_infimum(rotated_integrand(v, R), rho2)
    return {"gap": abs(r1["inf_est"] - r2["inf_est"]), "inf1": r1["inf_est"], "inf2": r2["inf_est"]}
