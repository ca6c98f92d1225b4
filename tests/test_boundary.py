from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.boundary import (
    HalfBallProblem,
    _descend,
    _fd_grad,
    NotHomogeneousError,
    PAField,
    SphereMeasure,
    hrho_convex_combination,
    hrho_element,
    jqcb_falsify,
    qslb_infimum,
    rank_one_positivity,
    rotated_integrand,
    rotation_equivariance_check,
)
from bvgym.integrands import (
    HomogeneousIntegrand,
    _abs_grad,
    hom_abs,
    hom_linear,
    hom_neg_abs,
    hom_piecewise_1d,
    make_integrand,
    mat_norm,
    unit_matrices,
)

RHO = np.array([1.0, 0.0])


def _jqcb_1d_loop(v, tol=1e-8):
    """Reference: the scalar loop over two-slope profiles that the 1D branch of
    `jqcb_falsify` batches, with the same candidate order and tie-break."""
    dirs = unit_matrices((v.dims[0], 1), 16)
    best_gap, best = -np.inf, None
    for s1 in dirs:
        for s2 in dirs:
            for t in (0.25, 0.5, 0.75):
                for m2 in (0.5, 1.0, 2.0):
                    avg = t * s1 + (1 - t) * m2 * s2
                    gap = float(v(avg)) - (t * float(v(s1)) + (1 - t) * m2 * float(v(s2)))
                    if gap > best_gap:
                        best_gap, best = gap, {"slopes": (s1, m2 * s2), "t": t}
    if not np.isfinite(best_gap):
        return {"counterexample": None, "gap": best_gap, "status": "inconclusive"}
    if best_gap > tol:
        return {"counterexample": best, "gap": best_gap, "status": "disproved"}
    return {"counterexample": None, "gap": best_gap, "status": "not disproved"}


def _descend_one(hb, v, U0, iters):
    """Reference: the one-restart descent loop that `_descend` replaced, on the
    single-field einsum / np.add.at formulas of that version."""

    def gradients(U):
        return np.einsum("tiM,tid->tMd", U[hb.tri], hb.basis)

    def objective(U):
        return float(hb.areas @ np.asarray(v(gradients(U))))

    def tv(U):
        return float(hb.areas @ mat_norm(gradients(U)))

    def nodal_gradient(dJdG):
        out = np.zeros((hb.mesh.vertices.shape[0], hb.ncomp))
        np.add.at(out, hb.tri, np.einsum("t,tMd,tid->tiM", hb.areas, dJdG, hb.basis))
        out[~hb.free] = 0.0
        return out

    U = hb.zeroed(U0)
    t = tv(U)
    if t < 1e-12:
        return None
    U = U / t
    best = objective(U)
    bestU = U.copy()
    for k in range(iters):
        g = nodal_gradient(_fd_grad(v, gradients(U)))
        gn = float(np.linalg.norm(g))
        if gn < 1e-14:
            break
        step = 0.3 * float(np.linalg.norm(U)) / (gn * np.sqrt(k + 1.0))
        U = U - step * g
        t = tv(U)
        if t < 1e-12:
            break
        U = U / t
        val = objective(U)
        if val < best:
            best = val
            bestU = U.copy()
    return best, bestU


def _fd_grad_loop(v, G):
    """Reference: `_fd_grad` with one call of v per perturbed copy of G, as it was
    before the copies went to v as one stack."""
    gf = getattr(v, "grad_fn", None)
    if callable(gf):
        return np.asarray(gf(G))
    out = np.zeros_like(G)
    h = 1e-6
    for m in range(G.shape[-2]):
        for d in range(G.shape[-1]):
            Gp = G.copy()
            Gp[..., m, d] += h
            Gm = G.copy()
            Gm[..., m, d] -= h
            out[..., m, d] = (np.asarray(v(Gp)) - np.asarray(v(Gm))) / (2 * h)
    return out


def _descend_three_grads(hb, v, seeds, iters):
    """Reference: the stacked descent as it was before it kept the gradient stack
    of each iterate; every iteration takes gradients three times (for the finite
    differences, the TV and the objective)."""

    def objective(U):
        return np.asarray(v(hb.gradients(U))).T @ hb.areas

    nv, S = hb.mesh.vertices.shape[0], len(seeds)
    U = np.stack([hb.zeroed(U0) for U0 in seeds], axis=1)
    tv = hb.tv(U.reshape(nv, -1))
    stop = np.where(tv < 1e-12, "degenerate", "maxiter")
    live = np.flatnonzero(stop == "maxiter")
    U = U[:, live] / tv[live, None]
    best, bestU = np.full(S, np.inf), np.zeros((nv, S, hb.ncomp))
    best[live], bestU[:, live] = objective(U.reshape(nv, -1)), U
    for k in range(iters):
        if not live.size:
            break
        g = hb.nodal_gradient(_fd_grad_loop(v, hb.gradients(U.reshape(nv, -1)))).reshape(U.shape)
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
        vals = objective(U.reshape(nv, -1))
        better = vals < best[live]
        best[live[better]], bestU[:, live[better]] = vals[better], U[:, better]
    results = [None if r == "degenerate" else (float(best[s]), bestU[:, s]) for s, r in enumerate(stop)]
    return results, stop.tolist()


def _collapsing_seed(hb, B):
    """A seed whose first step of descent on <B, A> leaves no gradient on the half-ball.

    The constant dv/dA = B gives the same nodal gradient g at every iterate, and g
    lives on nodes of half-ball triangles.  The seed is g plus a field on the other
    nodes, scaled so that the first step, 0.3 |U| / |g| times g, is exactly the
    seed's half-ball part."""
    nt = hb.tri.shape[0]
    g = hb.nodal_gradient(np.broadcast_to(np.asarray(B, dtype=float), (nt, hb.ncomp, 2)))
    away = hb.free.copy()
    away[hb.tri] = False
    out = np.where(away[:, None], 1.0, 0.0)
    out *= np.linalg.norm(g) * np.sqrt(1 / 0.09 - 1) / np.linalg.norm(out)
    return g + out


def _without_grad_fn(v: HomogeneousIntegrand) -> HomogeneousIntegrand:
    """The same integrand on the finite-difference path."""
    return HomogeneousIntegrand(v.dims, v.sphere_eval, name=v.name + "-fd")


def _aniso(M: int, e: np.ndarray) -> HomogeneousIntegrand:
    """sqrt(|A e|^2 + 4 |A e_perp|^2): an even anisotropic norm without grad_fn."""
    e_perp = np.array([-e[1], e[0]])
    return HomogeneousIntegrand(
        (M, 2), lambda S: np.sqrt(np.sum((S @ e) ** 2, -1) + 4.0 * np.sum((S @ e_perp) ** 2, -1)),
        name="aniso")


def _second_row_norm() -> HomogeneousIntegrand:
    """|A_2|, the norm of the second row of a 2x2 matrix: its gradient vanishes
    on fields whose second component is zero."""

    def grad(A):
        out = np.zeros_like(A)
        out[..., 1, :] = _abs_grad(A[..., 1:, :])[..., 0, :]
        return out

    return HomogeneousIntegrand((2, 2), lambda S: mat_norm(S[..., 1:, :]), name="row2", grad_fn=grad)


def mixed_form(weight_abs: float, B: np.ndarray) -> HomogeneousIntegrand:
    """w |A| + <B, A>: 1-homogeneous with an explicit subgradient."""
    B = np.asarray(B, dtype=float).reshape(1, 2)
    habs = hom_abs((1, 2))
    hlin = hom_linear(B, (1, 2))

    def sphere(S):
        return weight_abs * np.asarray(habs.on_sphere(S)) + np.asarray(hlin.on_sphere(S))

    def grad(A):
        return weight_abs * habs.grad_fn(A) + np.broadcast_to(B, A.shape)

    return HomogeneousIntegrand((1, 2), sphere, name="mixed", grad_fn=grad)


class TestQslb1D:
    def test_abs_is_qslb(self):
        res = qslb_infimum(hom_abs((1, 1)), 1.0)
        assert res["verdict"] == "qslb" and res["inf_est"] >= 0

    def test_identity_form_fails(self):
        # v(t) = t takes the value -1 on the sphere, so it cannot be qslb
        res = qslb_infimum(hom_linear([[1.0]]), 1.0)
        assert res["verdict"] == "not_qslb"
        assert res["inf_est"] == pytest.approx(-1.0)

    def test_matches_sign_test_on_random_piecewise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            cp, cm = rng.uniform(-1, 1, 2)
            v = hom_piecewise_1d(cp, cm)
            res = qslb_infimum(v, 1.0)
            assert res["inf_est"] == pytest.approx(min(cp, cm))

    def test_non_homogeneous_rejected(self):
        bad = HomogeneousIntegrand((1, 1), lambda S: S[..., 0, 0], name="bad")
        crooked = HomogeneousIntegrand(
            (1, 1), bad.sphere_eval, name="crooked"
        )
        # break homogeneity by overriding the call path with an affine shift
        class Affine(HomogeneousIntegrand):
            def __call__(self, A):
                return np.asarray(A)[..., 0, 0] + 1.0

        with pytest.raises(NotHomogeneousError):
            qslb_infimum(Affine((1, 1), bad.sphere_eval), 1.0)

    @pytest.mark.parametrize("cp,cm", [(np.nan, np.nan), (1.0, np.nan), (np.inf, 1.0)])
    def test_non_finite_integrand_rejected(self, cp, cm):
        # NaN compares false against any tolerance, so it is checked on its own
        with pytest.raises(NotHomogeneousError, match="non-finite"):
            qslb_infimum(hom_piecewise_1d(cp, cm), 1.0)


class TestQslb2D:
    def test_abs_is_qslb(self):
        res = qslb_infimum(hom_abs((1, 2)), RHO, mesh_level=2, iter_budget=600)
        assert res["verdict"] == "qslb"

    def test_normal_form_fails_with_witness(self):
        v = hom_linear(-RHO, dims=(1, 2))
        res = qslb_infimum(v, RHO, mesh_level=3, iter_budget=4000)
        assert res["verdict"] == "not_qslb"
        assert res["inf_est"] <= -0.1
        assert res["witness"] is not None
        # the witness field itself certifies the negative value
        pa = res["witness"]
        areas, grads = pa.gradients()
        val = float(areas @ np.asarray(v(grads))) / pa.total_variation()
        assert val <= -0.1

    def test_tangential_form_is_qslb(self):
        tau = np.array([0.0, 1.0])
        res = qslb_infimum(hom_linear(-tau, dims=(1, 2)), RHO, mesh_level=2, iter_budget=600)
        assert res["verdict"] == "qslb"

    def test_scale_invariance_of_verdict(self):
        v = hom_linear(-RHO, dims=(1, 2))
        v3 = HomogeneousIntegrand(
            (1, 2), lambda S: 3.0 * np.asarray(v.on_sphere(S)), grad_fn=lambda A: 3.0 * v.grad_fn(A)
        )
        r1 = qslb_infimum(v, RHO, mesh_level=2, iter_budget=800)
        r3 = qslb_infimum(v3, RHO, mesh_level=2, iter_budget=800)
        assert r1["verdict"] == r3["verdict"] == "not_qslb"
        assert r3["inf_est"] == pytest.approx(3.0 * r1["inf_est"], rel=1e-6)

    def test_necessity_chain(self):
        # rank-one negativity forces a not_qslb verdict at level >= 3
        for B in (-RHO, np.array([-0.6, 0.8])):
            v = hom_linear(B, dims=(1, 2))
            r1 = rank_one_positivity(v, RHO)
            if not r1["ok"]:
                res = qslb_infimum(v, RHO, mesh_level=3, iter_budget=3000)
                assert res["verdict"] == "not_qslb"


class TestRankOne:
    def test_abs_ok(self):
        assert rank_one_positivity(hom_abs((1, 2)), RHO)["ok"]

    def test_linear_form_worst_direction(self):
        v = hom_linear(np.outer([1.0], RHO), dims=(1, 2))
        res = rank_one_positivity(v, RHO)
        assert not res["ok"]
        a, val = res["worst"]
        assert val == pytest.approx(-1.0)
        assert a[0] == pytest.approx(-1.0)

    def test_even_nonnegative_form(self):
        v = hom_abs((1, 2))
        res = rank_one_positivity(v, RHO)
        assert res["ok"] and res["worst"][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("normal", [(0.0, 0.0), (np.nan, 1.0)])
    def test_invalid_normal_rejected(self, normal):
        # neg_abs fails at every valid normal; a zero or NaN normal must not pass it
        with pytest.raises(ValueError, match="finite and nonzero"):
            rank_one_positivity(hom_neg_abs((1, 2)), normal)

    @pytest.mark.parametrize("normal", [(1.0,), (1.0, 0.0, 0.0)])
    def test_normal_of_wrong_length_rejected(self, normal):
        with pytest.raises(ValueError, match=r"normal .* v\.dims = \(1, 2\)"):
            rank_one_positivity(hom_neg_abs((1, 2)), normal)


class TestJqcb:
    def test_convex_not_disproved(self):
        for v in (hom_abs((1, 2)), hom_abs((1, 1))):
            rho = RHO if v.dims[1] == 2 else 1.0
            assert jqcb_falsify(v, rho)["counterexample"] is None

    def test_linear_equality(self):
        v = hom_linear([0.3, -0.8], dims=(1, 2))
        res = jqcb_falsify(v, RHO)
        assert res["counterexample"] is None
        assert abs(res["gap"]) <= 1e-8

    def test_neg_abs_disproved(self):
        res = jqcb_falsify(hom_neg_abs((1, 2)), RHO)
        assert res["counterexample"] is not None
        assert res["gap"] > 0.1

    def test_neg_abs_disproved_1d(self):
        res = jqcb_falsify(hom_neg_abs((1, 1)), 1.0)
        assert res["counterexample"] is not None

    def test_qcb_implies_jensen_on_convex_catalog(self):
        # spot check: the convex catalog recessions never produce a violation
        for v in (hom_abs((1, 2)), hom_linear([1.0, 0.0], (1, 2)), mixed_form(1.0, [0.2, 0.1])):
            assert jqcb_falsify(v, RHO)["counterexample"] is None

    def test_nan_integrand_is_refused(self):
        for dims, rho in (((1, 2), RHO), ((1, 1), 1.0)):
            v = HomogeneousIntegrand(dims, lambda S: np.full(S.shape[0], np.nan), name="nan")
            with pytest.raises(NotHomogeneousError, match="non-finite"):
                jqcb_falsify(v, rho)

    def test_nan_off_the_validation_sample_is_inconclusive(self):
        # finite on the sample that validate_homogeneous checks, NaN everywhere else:
        # every gap is NaN, so the search has no evidence either way
        sample = unit_matrices((1, 2), 8)

        def sphere(S):
            hit = np.any(np.all(np.abs(S[:, None] - sample[None]) < 1e-12, axis=(-2, -1)), axis=1)
            return np.where(hit, 1.0, np.nan)

        res = jqcb_falsify(HomogeneousIntegrand((1, 2), sphere, name="nan_off_sample"), RHO)
        assert res["status"] == "inconclusive"
        assert res["counterexample"] is None

    @pytest.mark.parametrize(
        "v",
        [hom_abs((1, 1)), hom_neg_abs((1, 1)), hom_piecewise_1d(0.3, -0.2), hom_linear([0.7]),
         hom_abs((2, 1)), hom_linear([[0.3], [-0.5]])],
        ids=["abs", "neg_abs", "pw1h", "linear", "abs_2x1", "linear_2x1"],
    )
    def test_batched_1d_search_matches_the_loop(self, v):
        res, ref = jqcb_falsify(v, 1.0), _jqcb_1d_loop(v)
        assert res["gap"] == ref["gap"] and res["status"] == ref["status"]
        if ref["counterexample"] is None:
            assert res["counterexample"] is None
        else:
            assert res["counterexample"]["t"] == ref["counterexample"]["t"]
            for a, b in zip(res["counterexample"]["slopes"], ref["counterexample"]["slopes"]):
                assert np.array_equal(a, b)

    def test_status_follows_the_gap(self):
        assert jqcb_falsify(hom_neg_abs((1, 2)), RHO)["status"] == "disproved"
        assert jqcb_falsify(hom_abs((1, 2)), RHO)["status"] == "not disproved"


class TestNodalGradient:
    @settings(max_examples=30, deadline=None)
    @given(level=st.integers(1, 3), ncomp=st.sampled_from([1, 2, 4]), nstack=st.sampled_from([1, 3]),
           seed=st.integers(0, 2**16))
    def test_matches_add_at_bit_for_bit(self, level, ncomp, nstack, seed):
        hb = HalfBallProblem(RHO, level=level, ncomp=ncomp)
        nt = hb.tri.shape[0]
        dJdG = np.random.default_rng(seed).standard_normal((nt, nstack, ncomp, 2))
        # the method's own contributions, (triangle, corner, column)
        contrib = np.matmul(hb.weighted_basis, dJdG.reshape(nt, -1, 2).transpose(0, 2, 1))
        ref = np.zeros((hb.mesh.vertices.shape[0], nstack * ncomp))
        np.add.at(ref, hb.tri, contrib)
        ref[~hb.free] = 0.0
        out = hb.nodal_gradient(dJdG)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

    @settings(max_examples=20, deadline=None)
    @given(level=st.integers(1, 3), ncomp=st.sampled_from([1, 2]), nstack=st.sampled_from([1, 4]),
           seed=st.integers(0, 2**16))
    def test_stacked_contractions_match_einsum(self, level, ncomp, nstack, seed):
        hb = HalfBallProblem(RHO, level=level, ncomp=ncomp)
        rng = np.random.default_rng(seed)
        nv, nt = hb.mesh.vertices.shape[0], hb.tri.shape[0]
        U = rng.standard_normal((nv, nstack * ncomp))
        dJdG = rng.standard_normal((nt, nstack, ncomp, 2))
        G = hb.gradients(U)
        g = hb.nodal_gradient(dJdG)
        for s in range(nstack):
            cols = slice(s * ncomp, (s + 1) * ncomp)
            G_ref = np.einsum("tiM,tid->tMd", U[:, cols][hb.tri], hb.basis)
            np.testing.assert_allclose(G[:, s], G_ref, rtol=1e-12, atol=1e-12 * np.abs(G_ref).max())
            g_ref = np.zeros((nv, ncomp))
            np.add.at(g_ref, hb.tri, np.einsum("t,tMd,tid->tiM", hb.areas, dJdG[:, s], hb.basis))
            g_ref[~hb.free] = 0.0
            np.testing.assert_allclose(g[:, cols], g_ref, rtol=1e-12, atol=1e-12 * np.abs(g_ref).max())


class TestBatchedDescent:
    """`_descend` runs every restart of a level as one stack; each restart must
    follow the one-restart loop it replaced."""

    @staticmethod
    def _seeds(hb, seed=0):
        M = hb.ncomp
        dirs = np.eye(M) if M > 1 else np.array([[1.0], [-1.0]])
        seeds = [hb.tent(a, depth, 0.8) for a in dirs for depth in (0.2, 0.4)]
        rng = np.random.default_rng(seed)
        return seeds + [hb.random_seed(rng) for _ in range(2)]

    # Single restarts follow the old loop less closely than the level estimates
    # checked in test_level_estimates_match_one_restart_loop, in two cases:
    # - Integrands that are kinked and not even, such as w|A| + <B, A>, are left
    #   out: their linear part leaves rounding noise on cells where the gradient
    #   is zero, and the kink turns the noise into unit subgradients, so single
    #   restarts move by 1e-2 and more between any two roundings of the same
    #   problem (the one-restart loop on two isometric meshes already does).
    # - On the finite-difference path the bound is 1e-8, not 1e-9: a central
    #   difference with h = 1e-6 carries round-off of about eps |v| / h = 1e-10,
    #   so one ulp of difference in a cell's gradient changes dv/dA by ~1e-10,
    #   and each step feeds that into the next; after 12 steps about one draw
    #   in a thousand differs by 1e-9 to 6e-9.
    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.0, 2 * np.pi), M=st.sampled_from([1, 2]), level=st.integers(1, 2),
           kind=st.sampled_from(["abs", "linear", "neg_abs", "aniso"]), fd=st.booleans(),
           iters=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_matches_one_restart_loop(self, angle, M, level, kind, fd, iters, seed):
        rho = np.array([np.cos(angle), np.sin(angle)])
        B = np.random.default_rng(seed).standard_normal((M, 2))
        v = {"abs": hom_abs((M, 2)), "linear": hom_linear(B, (M, 2)), "neg_abs": hom_neg_abs((M, 2)),
             "aniso": _aniso(M, B[0] / np.linalg.norm(B[0]))}[kind]
        fd = fd or v.grad_fn is None
        if fd:
            v = _without_grad_fn(v)
        hb = HalfBallProblem(rho, level=level, ncomp=M)
        seeds = self._seeds(hb, seed=seed)
        results, stop = _descend(hb, v, seeds, iters)
        assert len(results) == len(stop) == len(seeds)
        for U0, res in zip(seeds, results):
            ref = _descend_one(hb, v, U0, iters)
            assert res[0] == pytest.approx(ref[0], rel=0, abs=1e-8 if fd else 1e-12)

    @settings(max_examples=16, deadline=None)
    @given(angle=st.floats(0.0, 2 * np.pi), level=st.integers(1, 2), budget=st.integers(100, 1000),
           kind=st.sampled_from(["abs", "linear", "neg_abs", "mixed", "abs2x2", "aniso-fd", "abs-fd",
                                 "aniso2x2-fd"]))
    def test_level_estimates_match_one_restart_loop(self, angle, level, budget, kind):
        # per_level and inf_est, the minimum over all restarts and iterations,
        # within 1e-12 with a grad_fn (mixed_form included) and 1e-9 without.
        # The exception is the anisotropic 2x2 norm on the finite-difference
        # path: there the descent amplifies round-off over its 10-55 steps, and
        # the old loop itself moved a level estimate by 3.6e-3 when U / t became
        # U * (1 / t) in one draw, so only its verdict and first digits compare.
        import bvgym.boundary as boundary

        v = {"abs": hom_abs((1, 2)), "linear": hom_linear([0.3, -0.7], (1, 2)),
             "neg_abs": hom_neg_abs((1, 2)), "mixed": mixed_form(1.5, [0.3, -0.7]),
             "abs2x2": hom_abs((2, 2)), "aniso-fd": _aniso(1, np.array([1.0, 0.0])),
             "abs-fd": _without_grad_fn(hom_abs((1, 2))),
             "aniso2x2-fd": _aniso(2, np.array([0.6, 0.8]))}[kind]
        rho = np.array([np.cos(angle), np.sin(angle)])

        def one_at_a_time(hb, v, seeds, iters):
            return [_descend_one(hb, v, U0, iters) for U0 in seeds], ["maxiter"] * len(seeds)

        res = qslb_infimum(v, rho, mesh_level=level, iter_budget=budget)
        with mock.patch.object(boundary, "_descend", one_at_a_time):
            ref = qslb_infimum(v, rho, mesh_level=level, iter_budget=budget)
        tol = 1e-12 if v.grad_fn is not None else 1e-2 if kind == "aniso2x2-fd" else 1e-9
        assert res["verdict"] == ref["verdict"]
        assert res["per_level"] == pytest.approx(ref["per_level"], rel=0, abs=tol)
        assert res["inf_est"] == pytest.approx(ref["inf_est"], rel=0, abs=tol)

    def test_zero_seed_is_skipped_alone(self):
        hb = HalfBallProblem(np.array([0.6, 0.8]), level=2, ncomp=1)
        v = hom_linear([0.3, -0.7], (1, 2))
        seeds = self._seeds(hb)
        zero = np.zeros((hb.mesh.vertices.shape[0], 1))
        base, _ = _descend(hb, v, seeds, 15)
        results, stop = _descend(hb, v, seeds[:2] + [zero] + seeds[2:], 15)
        assert results[2] is None and stop[2] == "degenerate"
        others = results[:2] + results[3:]
        assert [r[0] for r in others] == pytest.approx([r[0] for r in base], rel=0, abs=1e-12)

    def test_stalled_restart_stops_alone(self):
        # |A_2| has zero gradient on fields with a zero second component
        v = _second_row_norm()
        hb = HalfBallProblem(RHO, level=1, ncomp=2)
        seeds = [hb.tent([1.0, 0.0]), hb.tent([0.0, 1.0]), hb.tent([0.6, 0.8])]
        results, stop = _descend(hb, v, seeds, 12)
        assert stop == ["stalled", "maxiter", "maxiter"]
        for U0, res in zip(seeds, results):
            assert res[0] == pytest.approx(_descend_one(hb, v, U0, 12)[0], rel=0, abs=1e-12)
        res = qslb_infimum(v, RHO, mesh_level=1, iter_budget=200)
        (stage,) = res["stages"]
        dirs = unit_matrices((2, 1), 8).reshape(-1, 2)
        flat = [a[1] == 0.0 for a in dirs for _ in (0.2, 0.4)] + [False, False]
        assert stage["stop"] == ["stalled" if f else "maxiter" for f in flat]
        assert stage["seeds"] == len(flat) and stage["level"] == 1
        assert stage["nt"] == hb.tri.shape[0] and stage["iters"] == max(10, 200 // len(flat))


class TestStackedFiniteDifferences:
    """`_fd_grad` hands all 2 M N perturbed copies of G to v in one call; each
    derivative must equal the one call per copy it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(dims=st.sampled_from([(1, 2), (2, 2), (2, 3)]), batch=st.sampled_from([(1, 1), (7, 3), (20, 6)]),
           zero_frac=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 2**16))
    def test_matches_per_copy_loop_bit_for_bit(self, dims, batch, zero_frac, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal(batch + dims) * 10.0 ** rng.uniform(-3, 3, batch + (1, 1))
        G[rng.random(batch) < zero_frac] = 0.0
        B = rng.standard_normal(dims)
        vs = [_without_grad_fn(hom_abs(dims)), _without_grad_fn(hom_linear(B, dims))]
        if dims[1] == 2:
            vs.append(_aniso(dims[0], B[0] / np.linalg.norm(B[0])))
        for v in vs:
            assert v.grad_fn is None
            got = _fd_grad(v, G)
            assert got.shape == G.shape and np.array_equal(got, _fd_grad_loop(v, G))

    @pytest.mark.parametrize("M", [1, 2])
    def test_matches_on_tent_stacks(self, M):
        # tents are zero outside a slab, so the stack holds zero cells
        hb = HalfBallProblem(np.array([0.6, 0.8]), level=2, ncomp=M)
        seeds = TestBatchedDescent._seeds(hb)
        G = hb.gradients(np.concatenate(seeds, axis=1))
        assert np.any(mat_norm(G) == 0.0)
        v = _aniso(M, np.array([0.6, -0.8]))
        assert np.array_equal(_fd_grad(v, G), _fd_grad_loop(v, G))


class TestDescentKeepsGradients:
    """`_descend` reuses the gradient stack of each iterate for the next step's
    dv/dA; its restarts must match the three-gradient loop bit for bit."""

    @pytest.mark.parametrize("kind", ["abs", "aniso-fd", "linear", "row2"])
    def test_matches_three_gradient_loop(self, kind):
        if kind == "row2":
            v = _second_row_norm()
            hb = HalfBallProblem(RHO, level=1, ncomp=2)
            seeds = [hb.tent([1.0, 0.0]), hb.tent([0.0, 1.0]), hb.tent([0.6, 0.8])]
            expected = {"stalled", "maxiter"}
        else:
            B = np.array([[0.3, -0.7]])
            v = {"abs": hom_abs((1, 2)), "aniso-fd": _aniso(1, np.array([0.6, 0.8])),
                 "linear": hom_linear(B, (1, 2))}[kind]
            hb = HalfBallProblem(np.array([0.6, 0.8]), level=2, ncomp=1)
            seeds = TestBatchedDescent._seeds(hb)
            seeds.insert(1, np.zeros((hb.mesh.vertices.shape[0], 1)))
            expected = {"degenerate", "maxiter"}
            if kind == "linear":
                seeds.insert(3, _collapsing_seed(hb, B))
                expected.add("collapsed")
        results, stop = _descend(hb, v, seeds, 20)
        ref_results, ref_stop = _descend_three_grads(hb, v, seeds, 20)
        assert set(stop) == expected
        assert stop == ref_stop
        for res, ref in zip(results, ref_results):
            if ref is None:
                assert res is None
            else:
                assert res[0] == ref[0] and np.array_equal(res[1], ref[1])


class TestRotation:
    def test_identity_rotation(self):
        res = rotation_equivariance_check(hom_abs((1, 2)), RHO, RHO, mesh_level=2, iter_budget=300)
        assert res["gap"] <= 1e-12

    def test_isotropic_any_rotation(self):
        res = rotation_equivariance_check(
            hom_abs((1, 2)), RHO, np.array([0.0, 1.0]), mesh_level=2, iter_budget=300
        )
        assert res["gap"] <= 1e-12

    def test_anisotropic_quarter_turn(self):
        v = mixed_form(2.0, [0.5, -0.3])
        res = rotation_equivariance_check(v, RHO, np.array([0.0, 1.0]), mesh_level=2, iter_budget=400)
        assert res["gap"] <= 1e-6

    def test_rotated_integrand_values(self):
        v = hom_linear([1.0, 0.0], (1, 2))
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = rotated_integrand(v, R)
        A = np.array([[0.3, 0.7]])
        assert float(w(A)) == pytest.approx(float(v(A @ R)))


class TestHrho:
    def test_constant_direction_single_atom(self):
        # one triangle with an affine field: mass = area * |gradient|
        verts = np.array([[-0.5, 0.0], [-0.1, 0.0], [-0.3, -0.4]])
        tris = np.array([[0, 1, 2]])
        G = np.array([0.6, 0.8])
        vals = (verts @ G)[:, None] * 2.0
        pa = PAField(verts, tris, vals)
        sm = hrho_element(pa)
        assert sm.points.shape[0] == 1
        areas, grads = pa.gradients()
        assert sm.total_mass == pytest.approx(float(areas[0]) * 2.0)
        assert np.allclose(sm.points[0].ravel(), G)

    def test_zero_field(self):
        hb = HalfBallProblem(RHO, level=2)
        sm = hrho_element((hb, np.zeros((hb.mesh.vertices.shape[0], 1))))
        assert sm.total_mass == 0.0

    def test_two_slope_laminate_two_atoms(self):
        # two strips with the slope interface along y = -0.1
        verts = np.array(
            [[-0.8, -0.2], [-0.4, -0.2], [-0.8, -0.1], [-0.4, -0.1], [-0.8, 0.0], [-0.4, 0.0]]
        )
        tris = np.array([[0, 1, 3], [0, 3, 2], [2, 3, 5], [2, 5, 4]])
        vals = np.abs(verts[:, 1] + 0.1)[:, None]  # slopes -e2 below, +e2 above
        pa = PAField(verts, tris, vals)
        sm = hrho_element(pa)
        assert sm.points.shape[0] == 2
        areas, grads = pa.gradients()
        assert sm.total_mass == pytest.approx(float(np.sum(areas * 1.0)))
        assert sorted(np.round(sm.points[:, 0, 1], 12).tolist()) == [-1.0, 1.0]
        # area bookkeeping is exact per slope
        for sgn in (-1.0, 1.0):
            idx = int(np.argmin(np.abs(sm.points[:, 0, 1] - sgn)))
            assert sm.weights[idx] == pytest.approx(0.4 * 0.1)

    def test_mass_equals_total_variation(self):
        hb = HalfBallProblem(RHO, level=2)
        U = hb.tent([1.0], 0.3, 0.7)
        sm = hrho_element((hb, U))
        assert sm.total_mass == pytest.approx(hb.field(U).total_variation())

    def test_pairing_against_qslb_members_nonnegative(self):
        # measures of concentrating fields stay nonnegative against certified
        # integrands (consistency with the closure description of the cone)
        hb = HalfBallProblem(RHO, level=2)
        tau = np.array([-RHO[1], RHO[0]])
        members = [hom_abs((1, 2)), hom_linear(np.outer([1.0], tau), (1, 2)),
                   hom_linear(-np.outer([1.0], tau), (1, 2))]
        rng = np.random.default_rng(5)
        for U in (hb.tent([1.0], 0.25, 0.8), hb.laminate([1.0]), hb.random_seed(rng)):
            sm = hrho_element((hb, U))
            for v in members:
                assert sm.pair(v) >= -1e-8 * max(1.0, sm.total_mass)


class TestHrhoConvexCombination:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_combination_matches_mixture(self, t):
        hb = HalfBallProblem(RHO, level=2)
        U1 = hb.tent([1.0], 0.25, 0.8)
        U2 = hb.laminate([1.0])
        d1 = hrho_element((hb, U1))
        d2 = hrho_element((hb, U2))
        combo = hrho_convex_combination(hb, U1, U2, t)
        dc = hrho_element(combo)
        probes = [hom_abs((1, 2)), hom_linear([0.4, -0.9], (1, 2)), mixed_form(1.0, [0.1, 0.2])]
        for v in probes:
            expected = t * d1.pair(v) + (1 - t) * d2.pair(v)
            assert dc.pair(v) == pytest.approx(expected, abs=1e-10)

    def test_equal_mass_two_atoms(self):
        # constant-direction fields mix into an equal-mass two-atom measure
        hb = HalfBallProblem(RHO, level=2)
        U1 = hb.tent([1.0], 0.3, 0.6)
        U2 = hb.tent([-1.0], 0.3, 0.6)
        m1 = hrho_element((hb, U1)).total_mass
        combo = hrho_convex_combination(hb, U1, U2, 0.5)
        dc = hrho_element(combo)
        assert dc.total_mass == pytest.approx(m1, abs=1e-10)

    def test_t_out_of_range(self):
        hb = HalfBallProblem(RHO, level=1)
        U = hb.tent([1.0])
        with pytest.raises(ValueError):
            hrho_convex_combination(hb, U, U, 1.5)


class TestSphereMeasure:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SphereMeasure(np.array([[[1.0, 0.0]]]), np.array([-1.0]))

    def test_normalization(self):
        sm = SphereMeasure(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([1.0, 3.0]))
        assert sm.normalized().total_mass == pytest.approx(1.0)
        with pytest.raises(ValueError):
            SphereMeasure(np.zeros((0, 1, 2)), np.zeros(0)).normalized()


class TestInvalidNormals:
    @pytest.mark.parametrize("normal", [(0.0, 0.0), (np.nan, 1.0), (1.0, np.inf), ()])
    def test_rejected_everywhere(self, normal):
        v = hom_abs((1, 2))
        with pytest.raises(ValueError, match="finite and nonzero"):
            qslb_infimum(v, normal, mesh_level=1, iter_budget=20)
        with pytest.raises(ValueError, match="finite and nonzero"):
            jqcb_falsify(v, normal, budget=2)
        with pytest.raises(ValueError, match="finite and nonzero"):
            rotation_equivariance_check(v, normal, RHO, mesh_level=1, iter_budget=20)
        with pytest.raises(ValueError, match="finite and nonzero"):
            rotation_equivariance_check(v, RHO, normal, mesh_level=1, iter_budget=20)
        with pytest.raises(ValueError, match="finite and nonzero"):
            HalfBallProblem(normal, level=1)

    @pytest.mark.parametrize("call, v, normal", [
        ("qslb", hom_abs((2, 1)), [1.0, 0.0]),  # once returned the verdict "qslb"
        ("qslb", hom_linear([0, 1], (1, 2)), [1.0]),  # once an IndexError
        ("jqcb", hom_neg_abs((1, 2)), [1.0]),  # once a shape error
        ("jqcb", hom_abs((1, 1)), [1.0, 0.0]),
        ("rotation", hom_abs((1, 2)), [1.0, 0.0, 0.0]),
    ])
    def test_wrong_length_rejected(self, call, v, normal):
        match = rf"normal \[.*\] has {len(normal)} components; v\.dims = \({v.dims[0]}, {v.dims[1]}\)"
        with pytest.raises(ValueError, match=match):
            if call == "qslb":
                qslb_infimum(v, normal, mesh_level=1, iter_budget=20)
            elif call == "jqcb":
                jqcb_falsify(v, normal, budget=2)
            else:
                rotation_equivariance_check(v, RHO, normal, mesh_level=1, iter_budget=20)

    @pytest.mark.parametrize("call", ["qslb", "jqcb"])
    @pytest.mark.parametrize("v", [hom_abs((1, 3)), hom_abs((2, 3))])
    def test_beyond_2d_refused_before_the_half_ball(self, call, v):
        # the normal fits v.dims, but the half-ball is 2D; once the error named the half-ball's (M, 2)
        with mock.patch("bvgym.boundary.HalfBallProblem") as half_ball:
            with pytest.raises(ValueError, match=rf"v\.dims = \({v.dims[0]}, 3\) has N = 3; the half-ball is 2D"):
                if call == "qslb":
                    qslb_infimum(v, [1.0, 0.0, 0.0], mesh_level=1, iter_budget=20)
                else:
                    jqcb_falsify(v, [1.0, 0.0, 0.0], budget=2)
        half_ball.assert_not_called()

    def test_zero_1d_normal_rejected(self):
        with pytest.raises(ValueError, match="finite and nonzero"):
            qslb_infimum(hom_abs((1, 1)), 0.0)

    def test_empty_search_is_inconclusive(self, monkeypatch):
        import bvgym.boundary as boundary

        # every restart skipped, as if each seed had zero total variation
        monkeypatch.setattr(boundary, "_descend",
                            lambda hb, v, seeds, iters: ([None] * len(seeds), ["degenerate"] * len(seeds)))
        res = qslb_infimum(hom_abs((1, 2)), RHO, mesh_level=1, iter_budget=20)
        assert res["verdict"] == "inconclusive"
        assert res["inf_est"] == np.inf and res["witness"] is None
