import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.integrands import (
    _CATALOG,
    HomogeneousIntegrand,
    Integrand,
    as_matrix,
    check_linear_growth,
    convex_envelope_1d,
    estimate_recession,
    make_integrand,
    mat_norm,
    measure_action,
    pair_action,
    seeded_normal,
    seeded_uniform,
    toy_weight,
    unit_matrices,
)
from bvgym.measures import Atom, BVField, DiscreteMeasure
from bvgym.meshes import IntervalMesh, interval_mesh


def brute_lower_hull(xs, ys):
    """O(n^2) oracle: largest convex minorant of the samples, at the samples."""
    n = len(xs)
    env = np.array(ys, dtype=float)
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                if xs[j] <= xs[i] <= xs[k] and xs[j] < xs[k]:
                    t = (xs[i] - xs[j]) / (xs[k] - xs[j])
                    env[i] = min(env[i], (1 - t) * ys[j] + t * ys[k])
    return env


class TestRecession:
    def test_abs_is_homogeneous_already(self):
        res = estimate_recession(make_integrand("abs"), [[1.0]])
        assert res["exists"] and res["value"] == pytest.approx(1.0, abs=1e-12)

    def test_euclid_sqrt1p_limit(self):
        res = estimate_recession(make_integrand("euclid_sqrt1p"), [[1.0]])
        assert res["exists"] and res["value"] == pytest.approx(1.0, abs=1e-9)

    def test_sin_log_has_no_limit(self):
        res = estimate_recession(make_integrand("sin_log_1d"), [[1.0]])
        assert not res["exists"]
        assert res["value"] <= 1.0 + 1e-9  # limsup candidate is bounded by the growth

    def test_non_unit_matrix_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            estimate_recession(make_integrand("abs"), [[2.0]])

    def test_non_finite_integrand(self):
        bad = Integrand((1, 1), lambda A: np.exp(mat_norm(A)), growth_c=1.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            estimate_recession(bad, [[1.0]])

    def test_recession_consistency_along_schedule(self):
        # max over sphere samples of |v(aA)/a - vinf(A)| decreases in a
        v = make_integrand("euclid_sqrt1p")
        sphere = np.array([[[1.0]], [[-1.0]]])
        alphas = 2.0 ** np.arange(3, 30, 4)
        worst = []
        for a in alphas:
            gaps = [abs(float(v(a * S)) / a - float(v.recession.on_sphere(S))) for S in sphere]
            worst.append(max(gaps))
        assert all(w2 <= w1 + 1e-15 for w1, w2 in zip(worst, worst[1:]))
        assert worst[-1] <= 1e-6


class TestLinearGrowth:
    def test_abs(self):
        res = check_linear_growth(make_integrand("abs"), np.linspace(-50, 50, 41).reshape(-1, 1, 1))
        assert res["ok"] and res["fitted_c"] <= 1.0

    def test_quadratic_flagged(self):
        samples = np.linspace(-1000, 1000, 81).reshape(-1, 1, 1)
        res = check_linear_growth(make_integrand("sq"), samples)
        assert not res["ok"]
        assert res["fitted_c"] == pytest.approx(1000.0, rel=1e-2)

    def test_euclid_below_sqrt2(self):
        res = check_linear_growth(
            make_integrand("euclid_sqrt1p"), np.linspace(-100, 100, 201).reshape(-1, 1, 1)
        )
        assert res["ok"] and res["fitted_c"] <= np.sqrt(2.0)

    def test_empty_samples(self):
        with pytest.raises(ValueError, match="nonempty"):
            check_linear_growth(make_integrand("abs"), np.zeros((0, 1, 1)))


class TestConvexEnvelope:
    def test_convex_input_unchanged(self):
        grid = np.linspace(-2, 2, 81)
        env = convex_envelope_1d(make_integrand("abs"), grid)
        assert np.max(np.abs(np.asarray(env(grid.reshape(-1, 1, 1))) - np.abs(grid))) <= 1e-12

    def test_double_well(self):
        grid = np.linspace(-3, 3, 1201)
        env = convex_envelope_1d(make_integrand("double_well_1d"), grid)
        expected = np.maximum(0.0, np.abs(grid) - 1.0)
        assert np.max(np.abs(np.asarray(env(grid.reshape(-1, 1, 1))) - expected)) <= 1e-9

    def test_wiggly_clipped(self):
        v = Integrand(
            (1, 1), lambda A: mat_norm(A) + np.minimum(np.sin(A[..., 0, 0]) ** 2, 0.8), growth_c=2.0
        )
        grid = np.linspace(-4, 4, 321)
        env = convex_envelope_1d(v, grid)
        ev = np.asarray(env(grid.reshape(-1, 1, 1)))
        vv = np.asarray(v(grid.reshape(-1, 1, 1)))
        assert np.all(ev <= vv + 1e-12)
        mid = 0.5 * (ev[:-2] + ev[2:])  # uniform grid midpoint convexity
        assert np.all(ev[1:-1] <= mid + 1e-12)

    def test_against_brute_hull(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-2, 2, 25))
        ys = rng.uniform(0, 1, 25)
        v = Integrand((1, 1), lambda A: np.interp(A[..., 0, 0], xs, ys), growth_c=5.0)
        env = convex_envelope_1d(v, xs)
        expected = brute_lower_hull(xs, ys)
        got = np.asarray(env(xs.reshape(-1, 1, 1)))
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="2"):
            convex_envelope_1d(make_integrand("abs"), [0.0])

    def test_repeated_infinite_points_refused(self):
        # two equal points, though inf - inf is no step <= 0: one distinct point is too few
        with pytest.raises(ValueError, match="2 distinct"):
            convex_envelope_1d(make_integrand("abs"), [np.inf, np.inf])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=4, max_size=12, unique=True))
    def test_envelope_below_and_convex(self, pts):
        xs = np.sort(np.asarray(pts))
        v = make_integrand("double_well_1d")
        env = convex_envelope_1d(v, xs)
        ev = np.asarray(env(xs.reshape(-1, 1, 1)))
        assert np.all(ev <= np.asarray(v(xs.reshape(-1, 1, 1))) + 1e-12)
        for i in range(len(xs) - 2):
            t = (xs[i + 1] - xs[i]) / (xs[i + 2] - xs[i])
            assert ev[i + 1] <= (1 - t) * ev[i] + t * ev[i + 2] + 1e-10


class TestCatalog:
    SCALAR = ("id", "double_well_1d", "sin_log_1d")

    def test_scalar_entries(self):
        assert tuple(name for name, (_, _, scalar) in _CATALOG.items() if scalar) == self.SCALAR

    @pytest.mark.parametrize("name", SCALAR)
    def test_scalar_entry_refuses_matrices(self, name):
        with pytest.raises(KeyError, match=f"'{name}'"):
            make_integrand(name, (1, 2))

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(KeyError) as info:
            make_integrand("nope")
        message = info.value.args[0]
        assert message.startswith("unknown integrand 'nope'; catalog:")
        assert all(name in message for name in [*_CATALOG, "linear_form"])

    def test_readme_table_lists_the_catalog(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Integrand catalog", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| `([a-z_0-9]+)", section, flags=re.M))
        assert rows >= {*_CATALOG, "linear_form"}


class TestMeasureAction:
    def test_constant_density(self, unit_mesh):
        mu = BVField.affine(unit_mesh, 2.0, 0.0).derivative()
        act = measure_action(make_integrand("abs"), mu)
        assert np.allclose(act.density, 2.0)
        assert not act.atoms

    def test_single_atom(self, unit_mesh):
        mu = DiscreteMeasure(unit_mesh, np.zeros((unit_mesh.ncells, 1, 1)), (Atom(1.0, 0.8, [[1.0]]),))
        act = measure_action(make_integrand("abs"), mu)
        assert act.total_variation() == pytest.approx(0.8)
        assert float(np.asarray(act.atoms[0].point)) == 1.0

    def test_toy_weighted_closed_form(self):
        from bvgym.relax import toy_field

        eps, n = 0.5, 100
        u = toy_field(n, eps)
        # the weight is the test function of the pairing
        value = pair_action(u.derivative(), toy_weight(eps), make_integrand("abs"))
        expected = (1 - eps) * (1.0 / (3 * n**2) + eps)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_additivity_disjoint_supports(self, unit_mesh):
        n = unit_mesh.ncells
        d1 = np.zeros((n, 1, 1))
        d1[: n // 2] = 1.5
        d2 = np.zeros((n, 1, 1))
        d2[n // 2 :] = -0.5
        mu1 = DiscreteMeasure(unit_mesh, d1, (Atom(0.25, 0.3, [[1.0]]),))
        mu2 = DiscreteMeasure(unit_mesh, d2, (Atom(0.75, 0.4, [[-1.0]]),))
        v = make_integrand("abs")  # v(0) = 0, so disjoint supports add exactly
        lhs = measure_action(v, mu1 + mu2).integrate(lambda x: np.ones_like(x))
        rhs = measure_action(v, mu1).integrate(lambda x: np.ones_like(x)) + measure_action(
            v, mu2
        ).integrate(lambda x: np.ones_like(x))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_missing_recession(self, unit_mesh):
        mu = BVField.affine(unit_mesh, 1.0, 0.0).derivative()
        with pytest.raises(ValueError, match="recession required"):
            measure_action(make_integrand("sq"), mu)


def masked_homogeneous_call(h: HomogeneousIntegrand, A):
    """HomogeneousIntegrand.__call__ as it was: always mask, copy and scatter back."""
    A = as_matrix(A, h.dims)
    r = mat_norm(A)
    scalar = A.ndim == 2
    Ab = A[None] if scalar else A
    rb = np.atleast_1d(r)
    out = np.zeros(rb.shape)
    mask = rb > 0
    if np.any(mask):
        out[mask] = rb[mask] * np.asarray(h.sphere_eval(Ab[mask] / rb[mask][..., None, None]))
    return float(out[0]) if scalar else out.reshape(r.shape)


def _recording_anisotropic(dims, seen):
    wts = 1.0 + np.arange(dims[0] * dims[1], dtype=float).reshape(dims)

    def sphere(S):
        seen.append(S.copy())
        return np.sqrt(np.sum(wts * S * S, axis=(-2, -1))) + 0.3 * S[..., 0, 0]

    return sphere


class TestHomogeneousCall:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3)]),
        batch=st.sampled_from([(), (1,), (7,), (3, 4), (2, 5)]),
        zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_masked_path_bit_for_bit(self, dims, batch, zero_frac, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal(batch + dims) * 10.0 ** rng.uniform(-8, 8, batch + (1, 1))
        A[rng.random(batch) < zero_frac] = 0.0
        seen_new, seen_ref = [], []
        got = HomogeneousIntegrand(dims, _recording_anisotropic(dims, seen_new))(A)
        ref = masked_homogeneous_call(HomogeneousIntegrand(dims, _recording_anisotropic(dims, seen_ref)), A)
        if batch == ():
            assert isinstance(got, float) and got == ref
        else:
            assert got.shape == ref.shape == batch and np.array_equal(got, ref)
        # sphere_eval sees the same flattened (k, M, N) batch, or is not called at all
        assert len(seen_new) == len(seen_ref) <= 1
        for x, y in zip(seen_new, seen_ref):
            assert x.shape == y.shape and np.array_equal(x, y)


def _mat_norm_by_np_sum(A):
    """Reference: the reduction `mat_norm` replaced for small C-ordered matrices."""
    return np.sqrt(np.sum(np.square(A), axis=(-2, -1)))


class TestMatNorm:
    @pytest.mark.parametrize("dims", [(M, N) for M in (1, 2, 3) for N in (1, 2, 3)] + [(2, 4)])
    @settings(max_examples=8, deadline=None)
    @given(batch=st.sampled_from([(0,), (1,), (40,), (6, 5)]), seed=st.integers(0, 2**32 - 1))
    def test_matches_np_sum_bit_for_bit(self, dims, batch, seed):
        # entries of one matrix are of one size, so the order of their sum shows in
        # the last bit; the matrices' sizes spread over 1e-30 to 1e30
        rng = np.random.default_rng(seed)
        shape = batch + dims
        A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, batch + (1, 1))
        A[rng.random(batch) < 0.2] = 0.0
        keep = rng.random(batch[-1]) < 0.6
        views = [A, A[..., keep, :, :], A[..., ::2, :, :], np.asfortranarray(A), A.swapaxes(-2, -1)]
        for X in views:
            got = mat_norm(X)
            assert got.shape == X.shape[:-2]
            assert np.array_equal(got, _mat_norm_by_np_sum(X))

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_single_matrix_gives_a_scalar(self, dims):
        A = np.arange(1.0, 1.0 + dims[0] * dims[1]).reshape(dims) * 1e-30
        got = mat_norm(A)
        assert isinstance(got, np.float64) and got == _mat_norm_by_np_sum(A)


class TestUnitMatrices:
    @pytest.mark.parametrize("dims, n, k", [((1, 1), 16, 2), ((1, 2), 16, 16), ((2, 1), 8, 8), ((2, 2), 16, 24),
                                            ((3, 1), 8, 14), ((3, 2), 512, 524), ((2, 2), 4088, 4096),
                                            ((2, 2), 4096, 4104)])
    def test_row_count_and_unit_norms(self, dims, n, k):
        # the last two are `_laminate`'s (c, a) rows and the M = 2 bracket's sample
        P = unit_matrices(dims, n)
        assert P.shape == (k,) + dims
        np.testing.assert_allclose(mat_norm(P), 1.0, rtol=1e-15)
        if k == n + 2 * dims[0] * dims[1]:  # +E_ij, -E_ij first, entry by entry
            basis = np.eye(dims[0] * dims[1]).reshape(-1, *dims)
            assert np.array_equal(P[: k - n : 2], basis) and np.array_equal(P[1 : k - n : 2], -basis)


class TestSeededSampler:
    @pytest.mark.parametrize("draw", [seeded_uniform, seeded_normal])
    @pytest.mark.parametrize("shape, seed", [((5,), 0), ((3, 2, 2), 7), ((4, 1), 2**70)])
    def test_same_shape_and_seed_same_bits(self, draw, shape, seed):
        a, b = draw(shape, seed, 0), draw(shape, seed, 0)
        assert a.shape == shape and a.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_and_streams_differ(self):
        # (0, 0) and (0, 1) are `_laminate`'s two streams: its (c, a) rows and its angles and logits
        draws = [seeded_uniform((64,), seed, stream) for seed, stream in
                 [(0, 0), (1, 0), (7, 0), (2**64, 0), (2**64 + 1, 0), (0, 1), (1, 1), (0, 2)]]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.any(draws[i] == draws[j])

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        u = seeded_uniform((10**5,), 3, 0)
        assert 0.0 < u.min() and u.max() <= 1.0
        assert abs(u.mean() - 0.5) <= 0.01

    def test_normal_moments(self):
        z = seeded_normal((10**5,), 0, 0)
        assert abs(z.mean()) <= 0.01 and abs(z.var() - 1.0) <= 0.02

    def test_a_longer_draw_extends_a_shorter_one(self):
        assert np.array_equal(seeded_normal((7,), 5, 0), seeded_normal((10,), 5, 0)[:7])

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            seeded_uniform((2,), seed, 0)

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**64, 2**70, 10**40, np.uint64(2**64 - 1)])
    def test_huge_seeds_draw_without_warning(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = seeded_normal((1000,), seed, 0)
        assert np.all(np.isfinite(z))
