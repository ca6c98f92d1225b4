from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.boundary import (
    QSLB_TOL,
    SECTION_CALLS,
    SECTION_POINTS,
    LAMINATE_SWEEPS,
    HalfBallProblem,
    _laminate,
    _section_min,
    _settle,
    NotHomogeneousError,
    SphereMeasure,
    jqcb_falsify,
    qslb_infimum,
    rank_one_positivity,
    rotated_integrand,
    rotation_equivariance_check,
)
from bvgym.gym import default_qslb_family
from bvgym.integrands import (
    HomogeneousIntegrand,
    hom_abs,
    hom_linear,
    hom_neg_abs,
    hom_piecewise_1d,
    make_integrand,
    mat_norm,
    unit_matrices,
)
from bvgym.measures import DiskField
from bvgym.meshes import rotation_to

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


def _cone(theta0: float, width: float, depth: float, rho=(0.6, 0.8)) -> HomogeneousIntegrand:
    """1 - depth max(0, <a0, S rho> - cos width) / (1 - cos width) on the 2x2 sphere, with
    a0 = (cos theta0, sin theta0): 1 but for a dip to 1 - depth at S = a0 (x) rho, a
    boundary-layer direction, whose slopes vanish within angle `width` of it."""
    a0, rho = np.array([np.cos(theta0), np.sin(theta0)]), np.asarray(rho, dtype=float)

    def sphere(S):
        return 1.0 - depth * np.maximum(0.0, (S @ rho) @ a0 - np.cos(width)) / (1.0 - np.cos(width))

    return HomogeneousIntegrand((2, 2), sphere, name="cone")


def _row2_det_form(c: float) -> HomogeneousIntegrand:
    """|A_2| - c |det A| / |A| on 2x2 matrices.  A boundary layer a (x) rho has det 0, so
    the bracket's upper is 0, and lower < 0 for c >= 2: neither bound decides."""
    def sphere(S):
        return mat_norm(S[..., 1:, :]) - c * np.abs(S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0])

    return HomogeneousIntegrand((2, 2), sphere, name=f"row2det{c}")


def _tau_form(c: float) -> HomogeneousIntegrand:
    """|A| - c |A tau|^2 / |A| on 2x2 matrices, tau = (0, 1) the tangent of RHO: smooth
    away from 0.  Boundary layers a (x) RHO give upper = 1, and lower = 1 - c: for c > 1
    neither bound decides."""
    tau = np.array([0.0, 1.0])

    def sphere(S):
        return mat_norm(S) - c * np.sum((S @ tau) ** 2, -1) / mat_norm(S)

    return HomogeneousIntegrand((2, 2), sphere, name=f"tau{c}")


def mixed_form(weight_abs: float, B: np.ndarray) -> HomogeneousIntegrand:
    """w |A| + <B, A>, 1-homogeneous; a 1-D B is one row."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    hlin = hom_linear(B, B.shape)
    return HomogeneousIntegrand(B.shape, lambda S: weight_abs + np.asarray(hlin.on_sphere(S)), name="mixed")


def _field_values(v, rho, level=2):
    """Normalized half-ball integrals of v for mesh fields: rank-one tents, zigzags
    and random fields of `HalfBallProblem`, each an upper bound on the infimum."""
    M = v.dims[0]
    hb = HalfBallProblem(rho, level=level, ncomp=M)
    dirs = unit_matrices((M, 1), 8).reshape(-1, M)
    rng = np.random.default_rng(0)
    fields = [hb.tent(a, d) for a in dirs for d in (0.2, 0.4)] + [hb.laminate(a) for a in dirs]
    G = hb.gradients(np.concatenate(fields + [hb.random_seed(rng) for _ in range(2)], axis=1))
    return hb.objective(G, v) / (mat_norm(G).T @ hb.areas)


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
    """Every verdict starts from the moment-duality bracket; for M = 2 the laminate
    search runs only when neither bound of the bracket decides.  The `_m2` tests
    check the same forms with two rows."""

    def test_abs_is_qslb(self):
        res = qslb_infimum(hom_abs((1, 2)), RHO)
        assert res["verdict"] == "qslb"

    def test_abs_is_qslb_m2(self):
        # certified: the bracket says "qslb", so no laminate search runs
        res = qslb_infimum(hom_abs((2, 2)), RHO)
        assert res["verdict"] == "qslb" and res["per_level"] == [] and res["stages"] == []

    def test_uncertified_m2_takes_one_laminate_search(self):
        # 1 - 3 |det S| on the sphere: lower = -0.5 and the layers' upper = 1 (a boundary
        # layer has det 0), so neither bound decides, and one laminate search runs
        res = qslb_infimum(_det_form(3.0), RHO)
        assert res["lower"] < -QSLB_TOL
        assert res["verdict"] == "not_qslb" and res["per_level"] == [] and len(res["stages"]) == 1
        (stage,) = res["stages"]
        assert set(stage) == {"t", "A", "B", "calls", "gap"} and 0.0 < stage["t"] < 1.0
        assert 1 < stage["calls"] <= 1 + LAMINATE_SWEEPS * SECTION_CALLS
        assert stage["gap"] == pytest.approx(res["upper"] - res["lower"], rel=0, abs=1e-15)

    def test_normal_form_fails_with_witness(self):
        v = hom_linear(-RHO, dims=(1, 2))
        res = qslb_infimum(v, RHO)
        assert res["verdict"] == "not_qslb"
        assert res["inf_est"] <= -0.1
        assert res["witness"] is not None
        # the witness measure itself certifies the negative value: a probability
        # measure with zero tau-moment, so a limit of half-ball fields
        mu = res["witness"]
        tau = np.array([-RHO[1], RHO[0]])
        assert mu.total_mass == pytest.approx(1.0, rel=0, abs=1e-12)
        assert abs(mu.weights @ (mu.points[:, 0, :] @ tau)) <= 1e-12
        assert mu.pair(v) <= -0.1

    def test_normal_form_fails_with_witness_m2(self):
        # the boundary layer a (x) rho, a = -(1, 1)/sqrt(2), gives upper = -sqrt(2): the
        # bracket decides, and its witness is that layer's measure
        v = hom_linear(np.array([-RHO, -RHO]), dims=(2, 2))
        res = qslb_infimum(v, RHO)
        assert res["verdict"] == "not_qslb"
        assert res["inf_est"] <= -0.1 and res["per_level"] == []
        assert res["witness"].pair(v) == res["upper"] <= -0.1

    def test_laminate_fails_with_witness_m2(self):
        # 1 - 3 |det S| on the sphere, least (-0.5) on the conformal and anticonformal
        # directions: a laminate of I and diag(1, -1) in rho's frame attains it
        v, normal = _det_form(3.0), np.array([0.6, 0.8])
        res = qslb_infimum(v, normal)
        assert res["verdict"] == "not_qslb"
        assert res["inf_est"] == res["upper"] == pytest.approx(-0.5, rel=0, abs=1e-6)
        # the witness, two atoms of weights t|A| and (1-t)|B|, certifies the value: its
        # integral is upper, and its tau-moment is 0, as for every measure fields generate
        mu, (stage,) = res["witness"], res["stages"]
        A, B, t = np.array(stage["A"]), np.array(stage["B"]), stage["t"]
        tau = np.array([-normal[1], normal[0]])
        assert mu.weights.size == 2 and mu.total_mass == pytest.approx(1.0, rel=0, abs=1e-12)
        assert mu.weights[0] / mu.weights[1] == pytest.approx(t * mat_norm(A) / ((1 - t) * mat_norm(B)), rel=1e-12)
        assert mu.pair(v) == pytest.approx(res["upper"], rel=0, abs=1e-12)
        assert np.max(np.abs(np.einsum("k,kmn,n->m", mu.weights, mu.points, tau))) <= 1e-12
        # A - B is rank one, and the barycenter t A + (1-t) B is c (x) rho
        assert abs(np.linalg.det(A - B)) <= 1e-12 * mat_norm(A - B) ** 2
        assert np.max(np.abs((t * A + (1 - t) * B) @ tau)) <= 1e-12 * (mat_norm(A) + mat_norm(B))

    @staticmethod
    def _tangential_verdict(M):
        tau = np.array([0.0, 1.0])
        B = np.array([-tau, tau][:M])
        return qslb_infimum(hom_linear(B, dims=(M, 2)), RHO)["verdict"]

    def test_tangential_form_is_qslb(self):
        assert self._tangential_verdict(1) == "qslb"

    def test_tangential_form_is_qslb_m2(self):
        assert self._tangential_verdict(2) == "qslb"

    @staticmethod
    def _check_scale_invariance(M):
        v = hom_linear(np.array([-RHO] * M), dims=(M, 2))
        v3 = HomogeneousIntegrand(
            (M, 2), lambda S: 3.0 * np.asarray(v.on_sphere(S)))
        r1 = qslb_infimum(v, RHO)
        r3 = qslb_infimum(v3, RHO)
        assert r1["verdict"] == r3["verdict"] == "not_qslb"
        assert r3["inf_est"] == pytest.approx(3.0 * r1["inf_est"], rel=1e-6)

    def test_scale_invariance_of_verdict(self):
        self._check_scale_invariance(1)

    def test_scale_invariance_of_verdict_m2(self):
        self._check_scale_invariance(2)

    @staticmethod
    def _check_necessity_chain(M):
        # rank-one negativity forces a not_qslb verdict at level >= 3
        for B in (-RHO, np.array([-0.6, 0.8])):
            v = hom_linear(np.array([B] + [np.zeros(2)] * (M - 1)), dims=(M, 2))
            r1 = rank_one_positivity(v, RHO)
            if not r1["ok"]:
                res = qslb_infimum(v, RHO)
                assert res["verdict"] == "not_qslb"

    def test_necessity_chain(self):
        self._check_necessity_chain(1)

    def test_necessity_chain_m2(self):
        self._check_necessity_chain(2)


def _frame_form(rho, f, name):
    """The scalar integrand with sphere values f(cos t, sin t), t the angle from rho toward tau."""
    rho = np.asarray(rho, dtype=float)
    tau = np.array([-rho[1], rho[0]])
    return HomogeneousIntegrand((1, 2), lambda S: f(S[..., 0, :] @ rho, S[..., 0, :] @ tau), name=name)


def piecewise_form(weight_abs: float, coeffs, angles) -> HomogeneousIntegrand:
    """w |A| + sum_i c_i max(0, <A, d_i>), d_i = (cos a_i, sin a_i): kinked along lines."""
    D = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    c = np.asarray(coeffs, dtype=float)

    def sphere(S):
        return weight_abs + np.maximum(0.0, S[..., 0, :] @ D.T) @ c

    return HomogeneousIntegrand((1, 2), sphere, name="piecewise")


def _qslb_inf_1d(v):
    """Reference: the closed-form 1D path that the moment-duality bracket replaced,
    the minimum of v over +-1 (M = 1) or 512 unit columns."""
    M = v.dims[0]
    cands = np.array([[[1.0]], [[-1.0]]]) if M == 1 else unit_matrices((M, 1), 512)
    vals = np.asarray(v.on_sphere(cands))
    i = int(np.argmin(vals))
    return float(vals[i]), cands[i]


class TestMomentDuality:
    """Scalar verdicts: lower = max_b min_S [v(S) - b <S, tau>] and the two-atom
    measure of zero tau-moment above it."""

    RHO = np.array([0.6, 0.8])
    ROWS = {  # sphere values in the frame of rho, and the exact half-ball infimum
        "abs": (lambda c, s: np.ones_like(c), 1.0),
        "aniso": (lambda c, s: np.sqrt(c * c + 4.0 * s * s), 1.0),
        "tau": (lambda c, s: s, 0.0),
        "rho": (lambda c, s: c, -1.0),
        "neg_abs": (lambda c, s: -np.ones_like(c), -1.0),
        "cos4": (lambda c, s: np.cos(4.0 * np.arctan2(s, c)), -1.0),
        "kink1.5": (lambda c, s: 1.0 - 1.5 * np.maximum(0.0, s), 0.25),
        "kink2.05": (lambda c, s: 1.0 - 2.05 * np.maximum(0.0, s), -0.025),
        "kink2.2": (lambda c, s: 1.0 - 2.2 * np.maximum(0.0, s), -0.1),
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_closed_form_rows(self, row):
        f, exact = self.ROWS[row]
        res = qslb_infimum(_frame_form(self.RHO, f, row), self.RHO)
        assert res["lower"] == pytest.approx(exact, rel=0, abs=1e-12)
        assert res["upper"] == pytest.approx(exact, rel=0, abs=1e-12)
        assert res["inf_est"] == res["lower"] <= res["upper"]
        assert res["verdict"] == ("qslb" if exact >= 0 else "not_qslb")
        assert res["per_level"] == [] and res["stages"] == []

    @pytest.mark.parametrize("offset", [0.25, 0.5, 0.77])
    def test_polish_finds_a_kink_between_samples(self, offset):
        # v = -1 + 2 |sin(t - t0)| is -1 only at t0 and t0 + pi, a zero-moment pair,
        # so the infimum is -1; with t0 between samples the sampled minimum overshoots
        # by about 2 offset h
        from bvgym.boundary import SPHERE_SAMPLES

        t0 = (5 + offset) * 2 * np.pi / SPHERE_SAMPLES
        v = _frame_form(self.RHO, lambda c, s: -1.0 + 2.0 * np.abs(s * np.cos(t0) - c * np.sin(t0)), "cusp")
        res = qslb_infimum(v, self.RHO)
        assert res["lower"] == pytest.approx(-1.0, rel=0, abs=1e-9)
        assert res["upper"] == pytest.approx(-1.0, rel=0, abs=1e-9)
        assert res["lower"] <= res["upper"]
        worst = res["worst_direction"][0]
        angle = np.arctan2(worst @ np.array([-0.8, 0.6]), worst @ self.RHO)
        assert min(abs(angle - t0), abs(abs(angle - t0) - np.pi)) <= 1e-9

    @pytest.mark.parametrize("mesh_level", [1, 3, 4])
    def test_kink_2p05_is_never_qslb(self, mesh_level):
        # the level-3 and level-4 mesh descents that once ran here called this "qslb"
        # (+0.024, +0.019); an interior zigzag with gradients +-tau in equal parts gives
        # -0.025.  The mesh keywords are accepted and ignored
        v = _frame_form(self.RHO, self.ROWS["kink2.05"][0], "kink2.05")
        res = qslb_infimum(v, self.RHO, mesh_level=mesh_level, iter_budget=4000)
        assert res["verdict"] == "not_qslb"
        mu = res["witness"]
        tau = np.array([-0.8, 0.6])
        assert mu.weights.size == 2 and mu.total_mass == pytest.approx(1.0, rel=0, abs=1e-12)
        assert abs(mu.weights @ (mu.points[:, 0, :] @ tau)) <= 1e-12
        assert mu.pair(v) == pytest.approx(res["upper"], rel=0, abs=1e-12)
        assert res["lower"] <= res["upper"] <= -10 * QSLB_TOL

    @settings(max_examples=12, deadline=None)
    @given(angle=st.floats(0.0, 2 * np.pi), kind=st.sampled_from(["mixed", "piecewise"]),
           w=st.floats(0.0, 2.0), seed=st.integers(0, 2**16))
    def test_bracket_is_below_laminates_and_fields(self, angle, kind, w, seed):
        # every laminate ratio and every mesh field's value lies above the infimum and
        # hence above lower (the polish leaves ~1e-10 on kinks between samples)
        rng = np.random.default_rng(seed)
        rho = np.array([np.cos(angle), np.sin(angle)])
        if kind == "mixed":
            v = mixed_form(w, rng.uniform(-1.5, 1.5, 2))
        else:
            v = piecewise_form(w, rng.uniform(-2.0, 2.0, 3), rng.uniform(0.0, 2 * np.pi, 3))
        res = qslb_infimum(v, rho)
        assert res["lower"] <= res["upper"]
        if res["witness"] is not None:
            assert res["witness"].pair(v) == pytest.approx(res["upper"], rel=0, abs=1e-12)
        assert res["lower"] <= min(_laminate(v, rho)[0], _field_values(v, rho).min()) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_lower_is_below_the_augmented_sample(self, seed, monkeypatch):
        # each exchange round finds b* on the grid plus the directions polished so far,
        # and its value is a minimum over that whole sample, so lower <= upper by construction
        import bvgym.boundary as boundary

        calls, dual_lp, settle = [], boundary._dual_lp, boundary._settle

        def recording_lp(vals, a):
            calls.append([vals, a[:, 0]])
            return dual_lp(vals, a)

        def recording_settle(*args):
            calls[-1].append(settle(*args))  # the round's b*
            return calls[-1][-1]

        monkeypatch.setattr(boundary, "_dual_lp", recording_lp)
        monkeypatch.setattr(boundary, "_settle", recording_settle)
        rng = np.random.default_rng(seed)
        angle = rng.uniform(0.0, 2 * np.pi)
        rho = np.array([np.cos(angle), np.sin(angle)])
        if seed % 2:
            v = mixed_form(rng.uniform(0.0, 2.0), rng.uniform(-1.5, 1.5, 2))
        else:
            v = piecewise_form(rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0, 3), rng.uniform(0.0, 2 * np.pi, 3))
        res = qslb_infimum(v, rho)
        # an exchange round runs only when the polish moved a direction, which then joins the sample
        assert all(later[0].size > earlier[0].size for earlier, later in zip(calls, calls[1:]))
        (vals, s, b), = [c for c in calls if c[2].tolist() == res["certificate"]][:1]
        assert res["lower"] <= (vals - b[0] * s).min() + 1e-14
        assert res["lower"] <= res["upper"]

    @pytest.mark.parametrize("angle", [0.0, 0.9, 2.5, 4.0])
    def test_default_family_is_qslb(self, angle):
        rho = np.array([np.cos(angle), np.sin(angle)])
        for h in default_qslb_family(rho, (1, 2)):
            res = qslb_infimum(h, rho)
            assert res["lower"] >= -QSLB_TOL and res["verdict"] == "qslb", h.name

    @settings(max_examples=30, deadline=None)
    @given(M=st.integers(1, 3), kind=st.sampled_from(["abs", "neg_abs", "linear", "piecewise"]),
           seed=st.integers(0, 2**16))
    def test_1d_path_pinned(self, M, kind, seed):
        # N = 1: the bracket is the minimum over the same directions, bit for bit
        rng = np.random.default_rng(seed)
        if kind == "piecewise":
            v = hom_piecewise_1d(*rng.uniform(-1, 1, 2))
        else:
            v = {"abs": hom_abs((M, 1)), "neg_abs": hom_neg_abs((M, 1)),
                 "linear": hom_linear(rng.standard_normal((M, 1)), (M, 1))}[kind]
        res = qslb_infimum(v, 1.0)
        val, direction = _qslb_inf_1d(v)
        assert res["inf_est"] == res["lower"] == res["upper"] == val
        assert np.array_equal(res["worst_direction"], direction)
        assert res["certificate"] == [] and res["per_level"] == []

    def test_no_mesh_for_scalar_verdicts(self, monkeypatch):
        import bvgym.boundary as boundary

        def refuse(*args, **kwargs):
            raise AssertionError("a scalar verdict built a mesh")

        monkeypatch.setattr(boundary, "disk_mesh", refuse)
        res = qslb_infimum(mixed_form(1.0, [0.4, -0.2]), self.RHO)
        assert res["verdict"] == "qslb" and res["certificate"]
        # M = 2 and no bound of the bracket decides: the laminate search needs no mesh either
        assert qslb_infimum(_det_form(2.5), self.RHO)["verdict"] == "not_qslb"

    def test_rotation_is_exact_for_scalars(self):
        v = mixed_form(2.0, [0.5, -0.3])
        for rho2 in (np.array([0.0, 1.0]), np.array([-0.28, 0.96])):
            assert rotation_equivariance_check(v, self.RHO, rho2)["gap"] <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_settle_step_past_a_huge_slack_is_silent(self):
        # M = 1: atom 0 carries the weight, atom 1 is a basis atom of zero weight, so the face
        # has the one direction e = 1; v = 2 S tau puts the target at b = 2, d = 2.  Sample 2
        # has slack 1e300 against ad = 2e-11: the ratio overflows to inf, and atom 1's
        # ratio 1 / 2 is the step
        X = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.0, 1e-11]]])
        inv = np.eye(2)  # rows (mu_j, n_j): mu = (1, 0)
        g = np.array([0.0, 1.0, 1e300])
        b = _settle(np.zeros(1), g, X, np.array([0, 1]), inv, lambda Y: 2.0 * Y[..., 0, 1])
        assert b.tolist() == [1.0]

    @pytest.mark.parametrize("dims", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_off_the_validation_sample_refused(self, dims, bad):
        # finite on the sample that validate_homogeneous checks; the bracket's own sample refuses the rest
        sample = unit_matrices(dims, 8)

        def sphere(S):
            hit = np.any(np.all(np.abs(S[:, None] - sample[None]) < 1e-12, axis=(-2, -1)), axis=1)
            return np.where(hit, 1.0, bad)

        with pytest.raises(NotHomogeneousError, match="non-finite"):
            qslb_infimum(HomogeneousIntegrand(dims, sphere, name="bad_off_sample"), self.RHO)


class TestSectionSearch:
    """`_section_min`: SECTION_CALLS calls of f, each on SECTION_POINTS interior points of
    every bracket, keeping the two gaps around each bracket's best point."""

    @staticmethod
    def _recorded(f):
        calls = []

        def g(t):
            calls.append((t.copy(), f(t)))
            return calls[-1][1]

        return g, calls

    def test_each_bracket_matches_its_single_run(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2.0, 0.0, 9)
        d = a + rng.uniform(0.01, 3.0, 9)

        def f(t):
            return np.sin(5.0 * t) + 0.3 * t * t

        x, fx = _section_min(f, a, d)
        for i in range(a.size):
            xi, fi = _section_min(f, a[i : i + 1], d[i : i + 1])
            assert xi[0] == x[i] and fi[0] == fx[i]

    def test_smooth_minimum(self):
        c = np.array([-0.0123, 0.0, 0.031, 0.0499])
        x, fx = _section_min(lambda t: (t - c[:, None]) ** 2, np.full(4, -0.05), np.full(4, 0.05))
        assert np.max(np.abs(x - c)) <= 1e-10
        assert np.all(fx == (x - c) ** 2)

    def test_kink_stays_in_the_bracket(self):
        c = np.array([-0.3 + 1e-7, 0.0, 0.1 / 3, 0.41])  # between the samples of the first call, or on one
        f, calls = self._recorded(lambda t: np.abs(t - c[:, None]))
        x, fx = _section_min(f, np.full(4, -0.5), np.full(4, 0.5))
        assert len(calls) == SECTION_CALLS and calls[0][0].shape == (4, SECTION_POINTS)
        for t, _ in calls:  # each call's bracket, one sample spacing beyond its outer samples, holds the kink
            w = (t[:, -1] - t[:, 0]) / (SECTION_POINTS - 1)
            assert np.all((t[:, 0] - w <= c) & (c <= t[:, -1] + w))
        t = calls[-1][0]
        w = (t[:, -1] - t[:, 0]) / (SECTION_POINTS - 1)
        assert np.all(np.abs(x - c) <= w) and np.max(w) <= 1.0 * 8.0**-SECTION_CALLS

    def test_value_is_the_best_sampled(self):
        f, calls = self._recorded(lambda t: np.sin(40.0 * t) + np.cos(7.0 * t * t) + t)
        x, fx = _section_min(f, np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.1]))
        sampled = np.concatenate([v for _, v in calls], axis=1)
        assert np.all(fx == sampled.min(axis=1))
        assert np.all(fx == np.sin(40.0 * x) + np.cos(7.0 * x * x) + x)

    @pytest.mark.parametrize("form, normal, verdict, most",
                             [("linear", (0.6, 0.8), "not_qslb", 20), ("aniso", (0.28, 0.96), "qslb", 30)],
                             ids=["linear", "aniso"])
    def test_on_sphere_calls_per_scalar_verdict(self, form, normal, verdict, most, monkeypatch):
        # the linear form needs one polish (53 calls with a 48-step golden section); the
        # anisotropic norm at (0.28, 0.96) also runs an exchange round (102 calls before)
        calls, on_sphere = [], HomogeneousIntegrand.on_sphere

        def counted(self, S):
            calls.append(1)
            return on_sphere(self, S)

        monkeypatch.setattr(HomogeneousIntegrand, "on_sphere", counted)
        v = {"linear": hom_linear([0.3, -0.8], (1, 2)),
             "aniso": _frame_form((0.6, 0.8), lambda c, s: np.sqrt(c * c + 4.0 * s * s), "aniso")}[form]
        assert qslb_infimum(v, normal)["verdict"] == verdict
        assert len(calls) <= most


def _det_form(c: float) -> HomogeneousIntegrand:
    """|A| - c |det A| / |A| on 2x2 matrices: isotropic, and on the unit sphere
    least, 1 - c/2, on the conformal matrices, whose A tau fill a circle.  A
    boundary layer a (x) rho has det 0, so the bracket's upper is 1."""
    def sphere(S):
        return mat_norm(S) - c * np.abs(S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0]) / mat_norm(S)

    return HomogeneousIntegrand((2, 2), sphere, name=f"det{c}")


def kinked_form_m2(weight_abs: float, coeffs, D) -> HomogeneousIntegrand:
    """w |A| + sum_i c_i max(0, <A, D_i>) on 2x2 matrices: kinked along hyperplanes."""
    c, D = np.asarray(coeffs, dtype=float), np.asarray(D, dtype=float)

    def sphere(S):
        return weight_abs + np.maximum(0.0, np.einsum("...ij,kij->...k", S, D)) @ c

    return HomogeneousIntegrand((2, 2), sphere, name="kinked")


def _kinks(seed: int):
    """Three kinks of coefficient in [-2, -0.5] along random hyperplanes of 2x2 matrices."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, -0.5, 3), rng.standard_normal((3, 2, 2))


class TestCertificateM2:
    """M = 2: "qslb" comes only from lower = max_b min_S [v(S) - <b, S tau>], which the
    exchange LP shared with M = 1 finds on unit_matrices directions in rho's frame."""

    RHO = np.array([0.6, 0.8])

    @pytest.mark.parametrize("M", [2, 3])
    def test_abs_closes(self, M):
        res = qslb_infimum(hom_abs((M, 2)), self.RHO)
        assert res["lower"] == pytest.approx(1.0, rel=0, abs=1e-12)
        assert res["upper"] == pytest.approx(1.0, rel=0, abs=1e-12)
        assert res["verdict"] == "qslb" and res["inf_est"] == res["lower"] and res["witness"] is None
        assert res["per_level"] == [] and res["stages"] == [] and len(res["certificate"]) == M

    @pytest.mark.parametrize("M", [2, 3])
    def test_mixed_forms_are_exact(self, M):
        # w |A| + <B, A>: the infimum w - |B rho| is attained by a boundary layer, where
        # the LP's face is flat; `_settle` finds b* = B tau from the derivatives there
        rng = np.random.default_rng(M)
        for _ in range(3):
            w, B = rng.uniform(0.0, 2.0), rng.uniform(-1.5, 1.5, (M, 2))
            res = qslb_infimum(mixed_form(w, B), self.RHO)
            exact = w - np.linalg.norm(B @ self.RHO)
            assert res["lower"] == pytest.approx(exact, rel=0, abs=1e-12)
            assert res["lower"] <= res["upper"] <= exact + 2e-2
            tau = np.array([-self.RHO[1], self.RHO[0]])
            assert res["certificate"] == pytest.approx(B @ tau, rel=0, abs=1e-6)

    @pytest.mark.parametrize("c, exact", [(0.5, 0.75), (1.0, 0.5), (1.9, 0.05)])
    def test_det_forms(self, c, exact):
        # the retired level-3 mesh descent gave 0.883, 0.728 and 0.273; certified, so no laminate search runs
        res = qslb_infimum(_det_form(c), self.RHO)
        assert res["lower"] == pytest.approx(exact, rel=0, abs=1e-6)
        assert res["lower"] <= res["upper"]
        assert res["verdict"] == "qslb" and res["per_level"] == [] and res["stages"] == []

    @settings(max_examples=10, deadline=None)
    @given(angle=st.floats(0.0, 2 * np.pi), kind=st.sampled_from(["mixed", "kinked", "det"]),
           w=st.floats(0.0, 2.0), seed=st.integers(0, 2**16))
    def test_bracket_is_below_laminates_and_fields_m2(self, angle, kind, w, seed):
        # every mesh field's value and every laminate ratio lies above the infimum and
        # hence above lower; the laminates only where lower is claimed exact (v smooth
        # between samples): on kinked forms it is not, see test_kinked_lower_stays_below_a_laminate
        rng = np.random.default_rng(seed)
        rho = np.array([np.cos(angle), np.sin(angle)])
        if kind == "mixed":
            v = mixed_form(w, rng.uniform(-1.5, 1.5, (2, 2)))
        elif kind == "kinked":
            v = kinked_form_m2(w, rng.uniform(-2.0, 2.0, 3), rng.standard_normal((3, 2, 2)))
        else:
            v = _det_form(2.0 * w)
        res = qslb_infimum(v, rho)
        assert np.isfinite(res["lower"]) and res["lower"] <= res["upper"]
        bound = _field_values(v, rho).min()
        if kind != "kinked":
            bound = min(bound, _laminate(v, rho)[0])
        assert res["lower"] <= bound + 1e-9

    @pytest.mark.xfail(strict=True, reason="known defect: for M >= 2 the polish of `_sphere_lower` stalls where "
                       "kinks meet between samples, so on kinked forms lower can lie above the infimum")
    def test_kinked_lower_stays_below_a_laminate(self):
        # In 200 random draws of this family, 14 had lower above their best laminate, by
        # up to 4.1e-3; this one by 4.1e-3, with the verdict "qslb".  Mending the polish
        # turns this test into a pass, and strict=True into a failure until the mark goes.
        rng = np.random.default_rng(48869)
        v = kinked_form_m2(1.5421, rng.uniform(-2.0, 2.0, 3), rng.standard_normal((3, 2, 2)))
        rho = np.array([np.cos(2.3528), np.sin(2.3528)])
        assert qslb_infimum(v, rho)["lower"] <= _laminate(v, rho)[0] + 1e-9

    @pytest.mark.parametrize("v", [hom_abs((2, 2)), _det_form(1.9), _det_form(3.0), _tau_form(1.5)]
                             + [kinked_form_m2(1.0, *_kinks(seed)) for seed in range(6)],
                             ids=["abs", "det1.9", "det3", "tau1.5"] + [f"kinked{seed}" for seed in range(6)])
    def test_lower_holds_on_random_directions(self, v):
        # an independent check of the certificate: lower is the least of
        # v - <b*, S tau> over the unit sphere, so no random direction goes below it
        res = qslb_infimum(v, self.RHO)
        S = np.random.default_rng(16).standard_normal((2**16, 2, 2))
        S /= mat_norm(S)[:, None, None]
        tau = np.array([-self.RHO[1], self.RHO[0]])
        g = np.asarray(v.on_sphere(S)) - (S @ tau) @ np.asarray(res["certificate"])
        assert g.min() >= res["lower"] - 1e-9

    # Rotating rho rotates the sample, so both problems see the same values up to
    # rounding.  The polish fixes a smooth minimizer only to ~1e-8 (sqrt of the
    # rounding) and the exchange LP reads those directions, so b moves by ~1e-9
    # between the two problems; lower moves by the slope of the dual there times
    # that.  The determinant forms reach b* (slope 0, gap ~1e-14); for w|A| + <B, A>
    # the exchange stops ~1e-4 short of b*, and the gap was 2.3e-12.
    @pytest.mark.parametrize("v, bound", [(hom_abs((2, 2)), 0.0), (_det_form(1.0), 1e-12), (_det_form(1.9), 1e-12),
                                          (mixed_form(2.0, [[0.5, -0.3], [0.2, 0.4]]), 1e-11)],
                             ids=["abs", "det1", "det1.9", "mixed"])
    def test_rotation_gap_of_lower(self, v, bound):
        for rho2 in (np.array([0.0, 1.0]), np.array([-0.28, 0.96])):
            R = rotation_to(self.RHO, rho2)
            r1 = qslb_infimum(v, self.RHO)
            r2 = qslb_infimum(rotated_integrand(v, R), rho2)
            assert r1["verdict"] == r2["verdict"] == "qslb"
            assert abs(r1["lower"] - r2["lower"]) <= bound

    def test_boundary_layer_cone_is_decided_by_upper(self, monkeypatch):
        # v(a0 (x) rho) = -0.05 at a sampled layer direction: upper = lower = -0.05, so
        # "not_qslb" comes from the bracket alone, with no mesh
        import bvgym.boundary as boundary

        def refuse(*args, **kwargs):
            raise AssertionError("a decided verdict built a mesh")

        monkeypatch.setattr(boundary, "disk_mesh", refuse)
        res = qslb_infimum(_cone(np.pi / 8, 0.1, 1.05), self.RHO)
        assert res["verdict"] == "not_qslb" and res["per_level"] == []
        assert res["inf_est"] == pytest.approx(-0.05, rel=0, abs=1e-9)
        assert res["upper"] == pytest.approx(-0.05, rel=0, abs=1e-9)
        assert res["witness"].pair(_cone(np.pi / 8, 0.1, 1.05)) == res["upper"]

    @settings(max_examples=12, deadline=None)
    @given(angle=st.floats(0.0, 2 * np.pi), M=st.sampled_from([1, 2]), kind=st.sampled_from(["mixed", "kinked"]),
           w=st.floats(0.0, 2.0), seed=st.integers(0, 2**16))
    def test_inf_est_lies_in_the_bracket(self, angle, M, kind, w, seed):
        # decided by the bracket (inf_est = lower) or by the descent (inf_est <= upper)
        rng = np.random.default_rng(seed)
        rho = np.array([np.cos(angle), np.sin(angle)])
        if kind == "mixed":
            v = mixed_form(w, rng.uniform(-1.5, 1.5, (M, 2)))
        elif M == 1:
            v = piecewise_form(w, rng.uniform(-2.0, 2.0, 3), rng.uniform(0.0, 2 * np.pi, 3))
        else:
            v = kinked_form_m2(w, rng.uniform(-2.0, 2.0, 3), rng.standard_normal((3, 2, 2)))
        res = qslb_infimum(v, rho)
        assert res["lower"] <= res["inf_est"] <= res["upper"]

    def test_certified_builds_no_mesh(self, monkeypatch):
        import bvgym.boundary as boundary

        def refuse(*args, **kwargs):
            raise AssertionError("a certified verdict built a mesh")

        monkeypatch.setattr(boundary, "disk_mesh", refuse)
        res = qslb_infimum(_det_form(1.0), self.RHO)
        assert res["verdict"] == "qslb" and len(res["certificate"]) == 2 and res["lower"] >= -QSLB_TOL

    # the M = 2 rows that neither bound of the bracket decides, with their exact infimum
    UNDECIDED = {"det2.5": (_det_form(2.5), -0.25), "det3": (_det_form(3.0), -0.5), "tau1.5": (_tau_form(1.5), -0.5),
                 "row2det3": (_row2_det_form(3.0), None), "row2det2.5": (_row2_det_form(2.5), None)}

    @pytest.mark.parametrize("form", sorted(UNDECIDED))
    def test_undecided_forms_close_without_a_mesh(self, form, monkeypatch):
        import bvgym.boundary as boundary

        def refuse(*args, **kwargs):
            raise AssertionError("an undecided verdict built a mesh")

        monkeypatch.setattr(boundary, "disk_mesh", refuse)
        v, exact = self.UNDECIDED[form]
        res = qslb_infimum(v, self.RHO)
        (stage,) = res["stages"]
        assert res["verdict"] == "not_qslb" and res["inf_est"] == res["upper"]
        assert -1e-12 <= stage["gap"] <= 1e-6 and res["upper"] - res["lower"] <= 1e-6
        if exact is not None:
            assert res["inf_est"] == pytest.approx(exact, rel=0, abs=1e-6)
        assert res["witness"].pair(v) == pytest.approx(res["upper"], rel=0, abs=1e-12)
        assert abs(np.linalg.det(np.subtract(stage["A"], stage["B"]))) <= 1e-12

    def test_tracer_installs_against_boundary(self):
        # bench/tracer.py wraps HalfBallProblem.__init__, gradients, objective and
        # nodal_gradient by name, and its install raises AttributeError when one is gone
        import importlib.util
        from pathlib import Path

        import bvgym.boundary as boundary

        path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = ("__init__", "gradients", "objective", "nodal_gradient")
        originals = [vars(boundary.HalfBallProblem)[n] for n in names]
        t = tracer.Tracer().install()
        try:
            assert all(vars(boundary.HalfBallProblem)[n] is not f for n, f in zip(names, originals))
            res = boundary.qslb_infimum(_det_form(2.5), self.RHO)
            boundary.jqcb_falsify(_det_form(2.5), self.RHO)
        finally:
            t.uninstall()
        assert all(vars(boundary.HalfBallProblem)[n] is f for n, f in zip(names, originals))
        counts = t.aggregate()
        assert res["verdict"] == "not_qslb" and len(res["stages"]) == 1
        # jqcb_falsify builds the one mesh, and no verdict integrates over it
        assert counts["meshes.disk_mesh.calls"] == 1 and counts["boundary.HalfBallProblem.__init__.calls"] == 1
        assert counts.get("boundary.HalfBallProblem.objective.calls", 0) == 0


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

    @pytest.mark.parametrize("theta0", [0.32, 1.0])
    def test_narrow_cone_is_found(self, theta0):
        # a dip of width 0.03 between two of 128 directions: the bracket's 512-column sample sees it
        res = rank_one_positivity(_cone(theta0, 0.03, 1.5), (0.6, 0.8))
        a, val = res["worst"]
        assert not res["ok"] and val < -0.4
        assert np.arccos(np.clip(a @ [np.cos(theta0), np.sin(theta0)], -1.0, 1.0)) <= np.pi / 512

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

    @pytest.mark.parametrize("M", [1, 2])
    def test_counterexample_is_a_half_ball_field(self, M):
        # the counterexample lives on half-ball triangles, vanishes on the arc, and its
        # own gradients reproduce the reported Jensen gap
        v, rho = hom_neg_abs((M, 2)), np.array([0.6, 0.8])
        res = jqcb_falsify(v, rho)
        field = res["counterexample"]
        assert res["status"] == "disproved" and isinstance(field, DiskField)
        mesh = field.mesh
        assert np.all(mesh.cell_centers @ rho < 0)
        assert np.array_equal(mesh.boundary_nodes, np.flatnonzero(np.bincount(mesh.boundary_edges().ravel())))
        arc = np.flatnonzero(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1.0) <= 1e-12)
        assert arc.size > 0 and np.all(field.values[arc] == 0.0)
        G, areas = field.derivative().density, mesh.cell_volumes
        gap = float(v(np.einsum("t,tMd->Md", areas, G))) - float(areas @ np.asarray(v(G)))
        assert gap == pytest.approx(res["gap"], rel=1e-12)

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


class TestRotation:
    # Every bracket and every laminate search works in rho's frame.  The `_m2` tests
    # take M = 2 integrands; `_tau_form(1.5)` is one that only the laminate decides.
    def test_identity_rotation(self):
        res = rotation_equivariance_check(hom_abs((1, 2)), RHO, RHO)
        assert res["gap"] <= 1e-12

    def test_identity_rotation_m2(self):
        v = hom_linear([[0.5, -0.3], [0.2, 0.4]], (2, 2))
        res = rotation_equivariance_check(v, RHO, RHO)
        assert res["gap"] <= 1e-12

    def test_isotropic_any_rotation(self):
        res = rotation_equivariance_check(hom_abs((1, 2)), RHO, np.array([0.0, 1.0]))
        assert res["gap"] <= 1e-12

    def test_isotropic_any_rotation_m2(self):
        res = rotation_equivariance_check(hom_neg_abs((2, 2)), RHO, np.array([0.0, 1.0]))
        assert res["gap"] <= 1e-12

    def test_anisotropic_quarter_turn(self):
        v = mixed_form(2.0, [0.5, -0.3])
        res = rotation_equivariance_check(v, RHO, np.array([0.0, 1.0]))
        assert res["gap"] <= 1e-6

    def test_anisotropic_quarter_turn_m2(self):
        v = mixed_form(2.0, [[0.5, -0.3], [0.2, 0.4]])
        res = rotation_equivariance_check(v, RHO, np.array([0.0, 1.0]))
        assert res["gap"] <= 1e-6

    def test_m2_laminate_sees_a_rotated_problem(self):
        # both laminate searches run in their normal's frame, on the same sphere values
        # up to rounding, and close the bracket; jqcb_falsify's rotated half-ball mesh
        # is the image of the original one
        v = _tau_form(1.5)
        r1 = qslb_infimum(v, RHO)
        assert len(r1["stages"]) == 1 and r1["verdict"] == "not_qslb"
        for rho2 in (np.array([-0.28, 0.96]), np.array([0.0, 1.0]), np.array([0.6, -0.8])):
            R = rotation_to(RHO, rho2)
            hb1, hb2 = HalfBallProblem(RHO, level=3, ncomp=2), HalfBallProblem(rho2, level=3, ncomp=2)
            assert np.array_equal(hb1.sel, hb2.sel)
            assert np.allclose(hb2.mesh.vertices, hb1.mesh.vertices @ R.T, rtol=0, atol=1e-15)
            assert hb2.areas == pytest.approx(hb1.areas, rel=1e-13)
            r2 = qslb_infimum(rotated_integrand(v, R), rho2)
            assert len(r2["stages"]) == 1 and r2["verdict"] == "not_qslb"
            assert abs(r1["inf_est"] - r2["inf_est"]) <= 1e-9
            assert rotation_equivariance_check(v, RHO, rho2)["gap"] <= 1e-9

    def test_rotated_integrand_values(self):
        v = hom_linear([1.0, 0.0], (1, 2))
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = rotated_integrand(v, R)
        A = np.array([[0.3, 0.7]])
        assert float(w(A)) == pytest.approx(float(v(A @ R)))


class TestSphereMeasure:
    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SphereMeasure(np.array([[[1.0, 0.0]]]), np.array([-1.0]))


class TestWitnessPairings:
    @pytest.mark.parametrize("v, stages", [(hom_linear(-RHO, dims=(1, 2)), 0), (hom_neg_abs((2, 2)), 0),
                                           (_det_form(3.0), 1)], ids=["M1-bracket", "M2-layer", "M2-laminate"])
    def test_witness_pairs_nonnegatively_with_the_qslb_family(self, v, stages):
        # a witness is a measure that half-ball fields generate, so every integrand
        # certified qslb at rho pairs with it to >= 0: abs to its mass 1, the forms
        # +-E_i (x) tau to its tau-moment 0
        rho = np.array([0.6, 0.8])
        res = qslb_infimum(v, rho)
        assert res["verdict"] == "not_qslb" and len(res["stages"]) == stages
        family = default_qslb_family(rho, v.dims)
        assert len(family) == 1 + 2 * v.dims[0]
        for h in family:
            assert res["witness"].pair(h) >= -1e-12
        assert res["witness"].pair(family[0]) == pytest.approx(1.0, rel=0, abs=1e-12)


class TestInvalidNormals:
    @pytest.mark.parametrize("normal", [(0.0, 0.0), (np.nan, 1.0), (1.0, np.inf), ()])
    def test_rejected_everywhere(self, normal):
        v = hom_abs((1, 2))
        with pytest.raises(ValueError, match="finite and nonzero"):
            qslb_infimum(v, normal)
        with pytest.raises(ValueError, match="finite and nonzero"):
            jqcb_falsify(v, normal, budget=2)
        with pytest.raises(ValueError, match="finite and nonzero"):
            rotation_equivariance_check(v, normal, RHO)
        with pytest.raises(ValueError, match="finite and nonzero"):
            rotation_equivariance_check(v, RHO, normal)
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
                qslb_infimum(v, normal)
            elif call == "jqcb":
                jqcb_falsify(v, normal, budget=2)
            else:
                rotation_equivariance_check(v, RHO, normal)

    @pytest.mark.parametrize("call", ["qslb", "jqcb"])
    @pytest.mark.parametrize("v", [hom_abs((1, 3)), hom_abs((2, 3))])
    def test_beyond_2d_refused_before_the_half_ball(self, call, v):
        # the normal fits v.dims, but the half-ball is 2D; once the error named the half-ball's (M, 2)
        with mock.patch("bvgym.boundary.HalfBallProblem") as half_ball:
            with pytest.raises(ValueError, match=rf"v\.dims = \({v.dims[0]}, 3\) has N = 3; the half-ball is 2D"):
                if call == "qslb":
                    qslb_infimum(v, [1.0, 0.0, 0.0])
                else:
                    jqcb_falsify(v, [1.0, 0.0, 0.0], budget=2)
        half_ball.assert_not_called()

    @pytest.mark.parametrize("v", [hom_linear([[-0.6, -0.8]], (1, 2)), hom_neg_abs((1, 2)), hom_abs((2, 2)),
                                   _cone(np.pi / 8, 0.1, 1.05), _tau_form(1.5)],
                             ids=["linear", "neg_abs", "abs2x2", "cone", "tau1.5"])
    def test_huge_and_tiny_normals_act_as_the_unit_normal(self, v):
        # the norm of 1e300 rho overflows and that of 1e-300 rho underflows; the normal
        # is scaled by its largest component first, so neither turns into 0
        rho = np.array([0.6, 0.8])
        ref, jref = qslb_infimum(v, rho), jqcb_falsify(v, rho)
        for scale in (1e300, 1e-300):
            res, jres = qslb_infimum(v, scale * rho), jqcb_falsify(v, scale * rho)
            assert res["verdict"] == ref["verdict"] and jres["status"] == jref["status"]
            assert res["inf_est"] == pytest.approx(ref["inf_est"], rel=0, abs=1e-12)
            assert jres["gap"] == pytest.approx(jref["gap"], rel=0, abs=1e-12)
        assert rank_one_positivity(v, 1e300 * rho)["ok"] == rank_one_positivity(v, rho)["ok"]

    def test_zero_1d_normal_rejected(self):
        with pytest.raises(ValueError, match="finite and nonzero"):
            qslb_infimum(hom_abs((1, 1)), 0.0)

    def test_empty_search_is_inconclusive(self, monkeypatch):
        import bvgym.boundary as boundary

        # 1 - 1.00025 |det S|: lower = -2.5e-4, and the best laminate attains it, above
        # the "not_qslb" threshold -1e-3, so neither side is decided
        res = qslb_infimum(_det_form(2.0005), RHO)
        assert res["verdict"] == "inconclusive" and len(res["stages"]) == 1
        assert res["inf_est"] == res["upper"] == pytest.approx(-2.5e-4, rel=0, abs=1e-9)
        # a laminate search with no finite value leaves upper at the bracket's layer
        # value, the integral of a generated measure, and the verdict inconclusive
        monkeypatch.setattr(boundary, "_laminate", lambda v, rho: (np.inf, 0.5, np.eye(2), np.eye(2), 1))
        res = qslb_infimum(_det_form(2.5), RHO)
        assert res["verdict"] == "inconclusive"
        assert res["inf_est"] == res["upper"] == res["witness"].pair(_det_form(2.5))
