"""Integrands with linear growth on M-by-N matrices.

An integrand is a continuous function v on R^{MxN} with |v(A)| <= c(1+|A|).
When the positively 1-homogeneous radial limit v(aA)/a exists jointly in
(a, A) it is stored as a separate homogeneous integrand and used to act on
the singular parts of derivative measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import Atom, DiscreteMeasure

Matrix = np.ndarray

# estimate_recession: Cauchy tolerance of the ray estimates, and the size of the ray jitter
RECESSION_TOL = 1e-6
RECESSION_JITTER = 1e-3


def as_matrix(A, dims: tuple[int, int]) -> Matrix:
    M, N = dims
    out = np.asarray(A, dtype=float)
    if out.ndim == 0:
        if (M, N) != (1, 1):
            raise ValueError(f"scalar given for dims {dims}")
        return out.reshape(1, 1)
    if out.shape[-2:] != (M, N):
        if out.size == M * N:
            return out.reshape(M, N)
        raise ValueError(f"expected trailing shape {(M, N)}, got {out.shape}")
    return out


def mat_norm(A: Matrix) -> np.ndarray:
    """Frobenius norm over the trailing matrix axes (batched).

    Below 8 entries np.sum adds a C-ordered float matrix left to right (it unrolls
    8-way from 8 on), so adding the squares one entry at a time over the whole stack
    gives its sums bit for bit without a reduction per tiny matrix; other shapes,
    layouts and dtypes take np.sum."""
    sq = np.square(A)
    n = sq.shape[-2] * sq.shape[-1] if sq.ndim >= 2 else 0
    if not (0 < n < 8 and sq.dtype.kind == "f" and sq.flags.c_contiguous):
        return np.sqrt(np.sum(sq, axis=(-2, -1)))
    flat = sq.reshape(*sq.shape[:-2], n)
    total = flat[..., 0]
    for k in range(1, n):
        total = total + flat[..., k]
    return np.sqrt(total)


def unit_matrices(dims: tuple[int, int], n: int = 16) -> np.ndarray:
    """Deterministic sample of the unit sphere in R^{MxN}, shape (k, M, N): k = 2 for 1x1, n
    (equally spaced angles) when M*N = 2, else n + 2MN, +E_ij and -E_ij first, then seeded draws."""
    M, N = dims
    if (M, N) == (1, 1):
        return np.array([[[-1.0]], [[1.0]]])
    if M * N == 2:
        ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=1).reshape(n, M, N)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((n, M, N))
    basis = np.zeros((2 * M * N, M, N))
    for k in range(M * N):
        basis[2 * k, k // N, k % N] = 1.0
        basis[2 * k + 1, k // N, k % N] = -1.0
    raw = np.concatenate([basis, raw], axis=0)
    return raw / mat_norm(raw)[:, None, None]


@dataclass(frozen=True)
class HomogeneousIntegrand:
    """Positively 1-homogeneous function, determined by its sphere values."""

    dims: tuple[int, int]
    sphere_eval: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, A) -> np.ndarray | float:
        A = as_matrix(A, self.dims)
        r = mat_norm(A)
        rb = r.reshape(-1)
        Ab = A.reshape(rb.size, *A.shape[-2:])
        out = np.zeros(rb.size)
        # sphere_eval sees the nonzero matrices as one flat batch in order; with no zero
        # matrix that is the whole batch, uncopied
        pos = rb > 0
        sel = slice(None) if pos.all() else np.flatnonzero(pos)
        rs = rb[sel]
        if rs.size:
            out[sel] = rs * np.asarray(self.sphere_eval(Ab[sel] / rs[:, None, None]))
        return float(out[0]) if A.ndim == 2 else out.reshape(r.shape)

    def on_sphere(self, S) -> np.ndarray | float:
        S = as_matrix(S, self.dims)
        if S.ndim == 2:
            return float(np.asarray(self.sphere_eval(S[None]))[0])
        return np.asarray(self.sphere_eval(S))


@dataclass(frozen=True)
class Integrand:
    """Linear-growth integrand; `fn` must accept batched (..., M, N) input."""

    dims: tuple[int, int]
    fn: Callable[[np.ndarray], np.ndarray]
    growth_c: float = 1.0
    recession: HomogeneousIntegrand | None = None
    name: str = ""

    def __call__(self, A) -> np.ndarray | float:
        A = as_matrix(A, self.dims)
        if A.ndim == 2:
            return float(np.asarray(self.fn(A[None]))[0])
        return np.asarray(self.fn(A))


def toy_weight(eps: float) -> Callable:
    """The weight (x - 1)^2 + eps of the toy model problem."""
    return lambda x, e=eps: (np.asarray(x, dtype=float) - 1.0) ** 2 + e


# ---------------------------------------------------------------------------
# recession estimation and growth checks


def estimate_recession(v: Integrand, A) -> dict:
    """Estimate lim v(a t)/a for t -> A, |A| = 1, along a = 2, 4, ..., 2^40.

    Returns {"value", "exists"}.  `exists` requires the last four estimates to
    be Cauchy in a (within RECESSION_TOL) on the central ray and on rays
    jittered by RECESSION_JITTER, and the rays to agree up to the O(jitter)
    slack a Lipschitz-on-rays integrand allows.
    When the limit is not detected, `value` reports the limsup estimate along
    the central ray (a candidate for the upper recession function).
    """
    A = as_matrix(A, v.dims)
    if abs(mat_norm(A) - 1.0) > 1e-9:
        raise ValueError("estimate_recession requires a unit matrix")
    schedule = 2.0 ** np.arange(1, 41)

    M, N = v.dims
    perturb = [np.zeros((M, N))]
    e11 = np.zeros((M, N))
    e11[0, 0] = 1.0
    ones = np.ones((M, N)) / np.sqrt(M * N)
    perturb += [e11, -e11, ones, -ones]

    tails = []
    for P in perturb:
        t = A + RECESSION_JITTER * P
        vals = np.array([float(v(a * t)) / a for a in schedule])
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand not finite along the schedule")
        tails.append(vals[-4:])

    def ray_stable(tail):
        scale = 1.0 + abs(tail[-1])
        return np.max(np.abs(np.diff(tail))) <= RECESSION_TOL * scale

    center = tails[0]
    exists = all(ray_stable(t) for t in tails)
    slack = RECESSION_TOL * (1.0 + abs(center[-1])) + 8.0 * v.growth_c * RECESSION_JITTER
    if exists:
        exists = all(abs(t[-1] - center[-1]) <= slack for t in tails[1:])
    value = float(np.mean(center)) if exists else float(np.max(center))
    return {"value": value, "exists": bool(exists)}


def check_linear_growth(v: Integrand, samples) -> dict:
    """Fit the smallest c with |v(A)| <= c(1+|A|) on the samples.

    `ok` is True when the fitted constant stays below the integrand's declared
    growth constant.
    """
    S = np.asarray(samples, dtype=float)
    if S.size == 0:
        raise ValueError("check_linear_growth requires a nonempty sample set")
    if S.ndim == 2:
        S = S[None]
    vals = np.abs(np.asarray(v(S)))
    fitted = float(np.max(vals / (1.0 + mat_norm(S))))
    return {"ok": bool(fitted <= v.growth_c * (1.0 + 1e-12)), "fitted_c": fitted}


# ---------------------------------------------------------------------------
# envelopes


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower convex hull of the points (xs, ys), xs distinct and increasing: at least two of them."""
    hull: list[tuple[float, float]] = []
    for x, y in zip(xs, ys):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    hx, hy = zip(*hull)
    return np.array(hx), np.array(hy)


def convex_envelope_1d(v: Integrand, grid) -> Integrand:
    """Lower convex hull of the sampled graph of a scalar integrand.

    Off-grid values are linearly interpolated; beyond the grid the envelope
    extends with the extreme hull slopes, which also define its recession.
    """
    if v.dims != (1, 1):
        raise ValueError("convex_envelope_1d requires M = N = 1")
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must contain at least 2 points")
    if not np.all(xs[1:] > xs[:-1]):  # compared, not subtracted: inf - inf would be a NaN step
        xs = np.unique(xs)
        if xs.size < 2:
            raise ValueError("grid must contain at least 2 distinct points")
    ys = np.asarray(v(xs.reshape(-1, 1, 1)))
    hx, hy = _lower_hull(xs, ys)
    m_left = (hy[1] - hy[0]) / (hx[1] - hx[0])
    m_right = (hy[-1] - hy[-2]) / (hx[-1] - hx[-2])

    def fn(A, hx=hx, hy=hy, mL=m_left, mR=m_right):
        t = A[..., 0, 0]
        out = np.interp(t, hx, hy)
        lo = t < hx[0]
        hi = t > hx[-1]
        out = np.where(lo, hy[0] + mL * (t - hx[0]), out)
        out = np.where(hi, hy[-1] + mR * (t - hx[-1]), out)
        return out

    def sphere(S, mL=m_left, mR=m_right):
        s = S[..., 0, 0]
        return np.where(s > 0, mR, -mL)

    rec = HomogeneousIntegrand((1, 1), sphere, name=f"hull_recession({v.name})")
    c = float(max(np.max(np.abs(hy) / (1.0 + np.abs(hx))), abs(m_left), abs(m_right)))
    return Integrand((1, 1), fn, growth_c=c + 1e-12, recession=rec, name=f"lower_hull({v.name})")


# ---------------------------------------------------------------------------
# nonlinear action on derivative measures


def measure_action(v: Integrand, mu) -> "DiscreteMeasure":
    """Scalar measure v(mu): density v(D(x)) plus recession values on atoms.

    Spatial weights belong to the test function of `pair_action`, not to v.
    """
    if v.recession is None:
        raise ValueError("recession required")
    vals = np.asarray(v(mu.density))
    atoms = []
    for at in mu.atoms:
        val = float(v.recession.on_sphere(at.direction)) * at.mass
        if val != 0.0:
            atoms.append(Atom(at.point, abs(val), np.sign(val)))
    return DiscreteMeasure(mu.mesh, vals, atoms)


def pair_action(mu, g: Callable, v: Integrand) -> float:
    """Integral of g against the measure v(mu); a spatial weight w(x) is part of g."""
    return float(measure_action(v, mu).integrate(g))


# ---------------------------------------------------------------------------
# catalog


def hom_abs(dims) -> HomogeneousIntegrand:
    return HomogeneousIntegrand(dims, lambda S: np.ones(S.shape[:-2]), name="abs^inf")


def hom_zero(dims) -> HomogeneousIntegrand:
    return HomogeneousIntegrand(dims, lambda S: np.zeros(S.shape[:-2]), name="zero")


def hom_linear(B, dims=None) -> HomogeneousIntegrand:
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(1, -1)
    dims = dims or B.shape

    def sphere(S, B=B):
        return np.sum(S * B, axis=(-2, -1))

    return HomogeneousIntegrand(dims, sphere, name=f"linear({B.ravel().tolist()})")


def hom_neg_abs(dims) -> HomogeneousIntegrand:
    return HomogeneousIntegrand(dims, lambda S: -np.ones(S.shape[:-2]), name="neg_abs^inf")


def hom_piecewise_1d(c_plus: float, c_minus: float) -> HomogeneousIntegrand:
    """1-homogeneous scalar function with v(1) = c_plus, v(-1) = c_minus."""

    def sphere(S, cp=c_plus, cm=c_minus):
        s = S[..., 0, 0]
        return np.where(s > 0, cp, cm)

    return HomogeneousIntegrand((1, 1), sphere, name=f"pw1h({c_plus},{c_minus})")


def make_integrand(name: str, dims: tuple[int, int] = (1, 1)) -> Integrand:
    """Build a catalog integrand; parameterized entries use `name:params`.

    Catalog: abs, one, id, neg_abs, euclid_sqrt1p, sq, double_well_1d,
    sin_log_1d and linear_form:b1,b2,...
    """
    base, _, par = name.partition(":")
    M, N = dims
    if base == "abs":
        return Integrand(dims, mat_norm, 1.0, hom_abs(dims), name="abs")
    if base == "one":
        return Integrand(
            dims, lambda A: np.ones(A.shape[:-2]), 1.0, hom_zero(dims), name="one"
        )
    if base == "id":
        if dims != (1, 1):
            raise KeyError("catalog integrand 'id' is scalar; use linear_form for matrices")
        h = hom_linear([[1.0]])
        return Integrand(dims, lambda A: A[..., 0, 0], 1.0, h, name="id")
    if base == "neg_abs":
        return Integrand(dims, lambda A: -mat_norm(A), 1.0, hom_neg_abs(dims), name="neg_abs")
    if base == "euclid_sqrt1p":
        return Integrand(
            dims,
            lambda A: np.sqrt(1.0 + mat_norm(A) ** 2),
            1.0,
            hom_abs(dims),
            name="euclid_sqrt1p",
        )
    if base == "sq":
        # quadratic growth: kept in the catalog as the standard growth violator
        return Integrand(dims, lambda A: mat_norm(A) ** 2, 1.0, None, name="sq")
    if base == "double_well_1d":
        if dims != (1, 1):
            raise KeyError("double_well_1d is scalar")

        def dw(A):
            t = A[..., 0, 0]
            return np.minimum(np.abs(t - 1.0), np.abs(t + 1.0))

        return Integrand(dims, dw, 1.0, hom_abs(dims), name="double_well_1d")
    if base == "sin_log_1d":
        if dims != (1, 1):
            raise KeyError("sin_log_1d is scalar")

        def sl(A):
            t = A[..., 0, 0]
            return t * np.sin(np.log1p(np.abs(t)))

        return Integrand(dims, sl, 1.0, None, name="sin_log_1d")
    if base == "linear_form":
        vals = np.array([float(s) for s in par.split(",")])
        if vals.size != M * N:
            raise KeyError(f"linear_form expects {M * N} coefficients, got {vals.size}")
        B = vals.reshape(M, N)
        h = hom_linear(B, dims)
        return Integrand(
            dims,
            lambda A: np.sum(A * B, axis=(-2, -1)),
            float(mat_norm(B)) + 1e-12,
            h,
            name=f"linear_form:{par}",
        )
    raise KeyError(
        f"unknown integrand {name!r}; catalog: abs, one, id, neg_abs, euclid_sqrt1p, sq, "
        "double_well_1d, sin_log_1d, linear_form:..."
    )
