"""Checks of the integrand catalog and closed-form references that only the tests use.

`estimate_recession` and `check_linear_growth` validate catalog entries, not a
user's input; `toy_sequence_value` is the closed form that the toy problem's
discrete energies are compared against.
"""

import numpy as np

from bvgym.integrands import Integrand, as_matrix, mat_norm

# estimate_recession: Cauchy tolerance of the ray estimates, and the size of the ray jitter
RECESSION_TOL = 1e-6
RECESSION_JITTER = 1e-3


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


def toy_sequence_value(eps: float, n: int) -> float:
    """Closed form of I along the explicit sequence: (1-eps)(1/(3n^2)+eps)+eps^2/2."""
    return (1 - eps) * (1.0 / (3 * n**2) + eps) + eps**2 / 2
