"""Integrands with linear growth on M-by-N matrices.

An integrand is a continuous function v on R^{MxN} with |v(A)| <= c(1+|A|).
When the positively 1-homogeneous radial limit v(aA)/a exists jointly in
(a, A) it is stored as a separate homogeneous integrand and used to act on
the singular parts of derivative measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import Atom, DiscreteMeasure

Matrix = np.ndarray


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


_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's counter increment, 2^64 / golden ratio


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a uint64 array; array arithmetic wraps mod 2^64 without
    a warning (numpy warns on uint64 scalars only, so no scalar enters here)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def check_seed(seed) -> int:
    """seed as an int; a ValueError naming it unless it is an int >= 0 (any size)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def seeded_uniform(shape: tuple[int, ...], seed: int, stream: int) -> np.ndarray:
    """Uniforms in (0, 1] of the given shape, the same bits for the same (shape, seed,
    stream) on one machine and numpy build.  Draw i is the top 53 bits of the splitmix64
    finalizer of key + (i + 1) GAMMA, plus one, over 2^53; the key folds the stream
    and then the seed's 64-bit limbs through the finalizer, so any seed >= 0 works.
    Streams in use: 0 `unit_matrices`, 1 `_laminate`'s angle and logit starts, 2 + k
    the k-th field of `HalfBallProblem.random_seed`."""
    seed = check_seed(seed)
    key = _splitmix64(np.array([stream], dtype=np.uint64) + _GAMMA)
    for s in range(0, max(seed.bit_length(), 1), 64):
        key = _splitmix64((key ^ np.uint64((seed >> s) & (2**64 - 1))) + _GAMMA)
    z = _splitmix64(np.arange(1, math.prod(shape) + 1, dtype=np.uint64) * _GAMMA + key)
    return (((z >> 11).astype(float) + 1.0) * 2.0**-53).reshape(shape)


def seeded_normal(shape: tuple[int, ...], seed: int, stream: int) -> np.ndarray:
    """Standard normals of the given shape: Box-Muller on consecutive pairs of
    `seeded_uniform` draws, so a longer draw of one (seed, stream) extends a shorter one."""
    n = math.prod(shape)
    u = seeded_uniform(((n + 1) // 2, 2), seed, stream)
    r, t = np.sqrt(-2.0 * np.log(u[:, 0])), 2 * np.pi * u[:, 1]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1).ravel()[:n].reshape(shape)


def unit_matrices(dims: tuple[int, int], n: int = 16) -> np.ndarray:
    """Deterministic sample of the unit sphere in R^{MxN}, shape (k, M, N): k = 2 for 1x1, n
    when M*N = 2 (the angles 2 pi j / n in order, n a multiple of 4, built from one quadrant, so
    the angles k pi / 2 give exactly +-1 and 0), else n + 2MN, +E_ij and -E_ij first, then n
    normalized `seeded_normal` draws (seed 0, stream 0), the same on one machine and numpy build."""
    M, N = dims
    if (M, N) == (1, 1):
        return np.array([[[-1.0]], [[1.0]]])
    if M * N == 2:
        t = 2 * np.pi * np.arange(n // 4) / n
        c, s = np.cos(t), np.sin(t)
        return np.stack([np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])], axis=1).reshape(n, M, N)
    raw = seeded_normal((n, M, N), 0, 0)
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


# name -> (v on (..., M, N) stacks, recession factory of dims or None, scalar only); every
# entry has growth constant 1.  `sq` grows quadratically: the standard growth violator.
_CATALOG = {
    "abs": (mat_norm, hom_abs, False),
    "one": (lambda A: np.ones(A.shape[:-2]), hom_zero, False),
    "id": (lambda A: A[..., 0, 0], lambda dims: hom_linear([[1.0]], dims), True),
    "neg_abs": (lambda A: -mat_norm(A), hom_neg_abs, False),
    "euclid_sqrt1p": (lambda A: np.sqrt(1.0 + mat_norm(A) ** 2), hom_abs, False),
    "sq": (lambda A: mat_norm(A) ** 2, None, False),
    "double_well_1d": (lambda A: np.minimum(np.abs(A[..., 0, 0] - 1.0), np.abs(A[..., 0, 0] + 1.0)), hom_abs, True),
    "sin_log_1d": (lambda A: A[..., 0, 0] * np.sin(np.log1p(np.abs(A[..., 0, 0]))), None, True),
}


def make_integrand(name: str, dims: tuple[int, int] = (1, 1)) -> Integrand:
    """Build a `_CATALOG` integrand, or the one parameterized entry linear_form:b1,b2,..."""
    base, _, par = name.partition(":")
    if base == "linear_form":
        vals = np.array([float(s) for s in par.split(",")])
        if vals.size != dims[0] * dims[1]:
            raise KeyError(f"linear_form expects {dims[0] * dims[1]} coefficients, got {vals.size}")
        B = vals.reshape(dims)
        with np.errstate(over="ignore"):
            norm = float(mat_norm(B))
        if not np.isfinite(norm):
            raise ValueError(f"integrand {name!r}: the coefficient norm is not finite")
        return Integrand(dims, lambda A: np.sum(A * B, axis=(-2, -1)), norm + 1e-12, hom_linear(B, dims),
                         name=f"linear_form:{par}")
    if name not in _CATALOG:
        raise KeyError(f"unknown integrand {name!r}; catalog: {', '.join(_CATALOG)}, linear_form:...")
    fn, recession, scalar = _CATALOG[name]
    if scalar and dims != (1, 1):
        raise KeyError(f"catalog integrand {name!r} is scalar; use linear_form for matrices")
    return Integrand(dims, fn, 1.0, recession(dims) if recession else None, name=name)
