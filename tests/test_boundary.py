import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.boundary import (
    HalfBallProblem,
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
    hom_abs,
    hom_linear,
    hom_neg_abs,
    hom_piecewise_1d,
    make_integrand,
)

RHO = np.array([1.0, 0.0])


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

    def test_nan_integrand_is_inconclusive(self):
        # every gap is NaN, so the search has no evidence either way
        for dims, rho in (((1, 2), RHO), ((1, 1), 1.0)):
            v = HomogeneousIntegrand(dims, lambda S: np.full(S.shape[0], np.nan), name="nan")
            res = jqcb_falsify(v, rho)
            assert res["status"] == "inconclusive"
            assert res["counterexample"] is None

    def test_status_follows_the_gap(self):
        assert jqcb_falsify(hom_neg_abs((1, 2)), RHO)["status"] == "disproved"
        assert jqcb_falsify(hom_abs((1, 2)), RHO)["status"] == "not disproved"


class TestNodalGradient:
    @settings(max_examples=30, deadline=None)
    @given(level=st.integers(1, 3), ncomp=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16))
    def test_matches_add_at_bit_for_bit(self, level, ncomp, seed):
        hb = HalfBallProblem(RHO, level=level, ncomp=ncomp)
        dJdG = np.random.default_rng(seed).standard_normal((hb.tri.shape[0], ncomp, 2))
        ref = np.zeros((hb.mesh.vertices.shape[0], ncomp))
        np.add.at(ref, hb.tri, np.einsum("t,tMd,tid->tiM", hb.areas, dJdG, hb.basis))
        ref[~hb.free] = 0.0
        out = hb.nodal_gradient(dJdG)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)


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

    def test_zero_1d_normal_rejected(self):
        with pytest.raises(ValueError, match="finite and nonzero"):
            qslb_infimum(hom_abs((1, 1)), 0.0)

    def test_empty_search_is_inconclusive(self, monkeypatch):
        import bvgym.boundary as boundary

        monkeypatch.setattr(boundary, "_descend", lambda *args: None)
        res = qslb_infimum(hom_abs((1, 2)), RHO, mesh_level=1, iter_budget=20)
        assert res["verdict"] == "inconclusive"
        assert res["inf_est"] == np.inf and res["witness"] is None
