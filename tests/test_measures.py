import numpy as np
import pytest

from bvgym.measures import (
    RANK_ONE_TOL,
    Atom,
    BVField,
    DiscreteMeasure,
    DiskField,
    _key,
    charge_profile,
    decompose_boundary_interior,
    fold_traces,
    group_rows,
    normal_projection,
    weakstar_gap,
)
from bvgym.gym import pairing
from bvgym.integrands import make_integrand
from bvgym.meshes import IntervalMesh, disk_mesh, interval_mesh
from bvgym.relax import toy_field
from bvgym.soucek import soucek_pair, to_gym

from conftest import ONE, X, XSQ, oscillation_field, resample, union_mesh


class TestDerivative:
    def test_affine_field(self, unit_mesh):
        mu = BVField.affine(unit_mesh, 3.0, -1.0).derivative()
        assert np.allclose(mu.density, 3.0)
        assert mu.atoms == ()

    def test_step_gives_single_atom(self, unit_mesh):
        u = BVField.step(unit_mesh, 0.5, 0.0, -0.7)
        mu = u.derivative()
        assert np.allclose(mu.density, 0.0)
        (atom,) = mu.atoms
        assert float(np.asarray(atom.point)) == pytest.approx(0.5)
        assert atom.mass == pytest.approx(0.7)
        assert float(np.asarray(atom.direction).ravel()[0]) == pytest.approx(-1.0)

    def test_toy_sequence_density(self):
        n, eps = 50, 0.3
        mu = toy_field(n, eps).derivative()
        centers = mu.mesh.cell_centers
        ramp = centers > 1 - 1 / n
        assert np.allclose(mu.density[ramp, 0, 0], n * (1 - eps))
        assert np.allclose(mu.density[~ramp], 0.0)


def _jumps_loop(u):
    """The per-interface loop that `BVField.jumps` replaced, kept as its reference."""
    out = []
    for i in range(1, u.mesh.ncells):
        j = np.atleast_1d(u.values[i, 0] - u.values[i - 1, 1])
        if np.linalg.norm(j) > 0:
            out.append((float(u.mesh.nodes[i]), j))
    return out


class TestJumpsMatchLoop:
    """`BVField.jumps` finds jumps with one array difference; it and `derivative`
    must give what the per-interface loop gave, bit for bit."""

    @staticmethod
    def _field(ncomp, jumps):
        rng = np.random.default_rng(7)
        mesh = interval_mesh(0.0, 1.0, len(jumps) + 1)
        shape = (mesh.ncells, 2) + ((ncomp,) if ncomp > 1 else ())
        vals = rng.normal(size=shape)
        for i, j in enumerate(jumps, start=1):  # right value 0 on cell i-1, so the jump is j exactly
            vals[i - 1, 1] = 0.0
            vals[i, 0] = np.reshape(j, vals[i, 0].shape)
        return BVField(mesh, vals)

    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_jumps_and_derivative(self, ncomp):
        tiny, zero = np.full(ncomp, 1e-200), np.zeros(ncomp)
        half = np.array([1e-200, 0.5][:ncomp]) if ncomp > 1 else np.array([0.5])
        u = self._field(ncomp, [zero, tiny, half, -np.ones(ncomp), zero, 3.0 * np.ones(ncomp), tiny])
        # the 1e-200 jump's squared norm underflows, so np.linalg.norm gives 0: no jump
        assert float(np.linalg.norm(tiny)) == 0.0
        got, want = u.jumps(), _jumps_loop(u)
        assert len(got) == len(want) == 3
        for (x, j), (x_ref, j_ref) in zip(got, want):
            assert x == x_ref and j.shape == j_ref.shape and j.tobytes() == j_ref.tobytes()
        mu = u.derivative()
        assert len(mu.atoms) == len(want)
        for at, (x_ref, j_ref) in zip(mu.atoms, want):
            m = float(np.linalg.norm(j_ref))
            assert at.point == x_ref and at.mass == m
            assert np.asarray(at.direction).tobytes() == (j_ref / m)[:, None].tobytes()

    def test_no_interfaces(self):
        u = BVField(interval_mesh(0.0, 1.0, 1), np.array([[0.0, 1.0]]))
        assert u.jumps() == _jumps_loop(u) == []
        assert u.derivative().atoms == ()


class TestTotalVariation:
    def test_zero(self, unit_mesh):
        assert DiscreteMeasure(unit_mesh, np.zeros(unit_mesh.ncells)).total_variation() == 0.0

    def test_toy(self):
        n, eps = 100, 0.5
        assert toy_field(n, eps).derivative().total_variation() == pytest.approx(1 - eps)

    def test_two_atoms(self, unit_mesh):
        mu = DiscreteMeasure(
            unit_mesh,
            np.zeros(unit_mesh.ncells),
            (Atom(0.2, 0.3, 1.0), Atom(0.9, 0.7, -1.0)),
        )
        assert mu.total_variation() == pytest.approx(1.0)


class TestWeakStarGap:
    def test_disk_atom_meets_g_as_a_batch_of_one_point(self):
        # g reads point arrays (n, 2), as cell_integrals and the Young-measure pairing call it
        mesh = disk_mesh(1)
        v = mesh.vertices[mesh.boundary_nodes[0]]
        pair = soucek_pair(DiskField(mesh, np.zeros(mesh.vertices.shape[0])), {tuple(v): 0.5 * v})
        (atom,) = pair.alpha.atoms
        g = lambda p: p[:, 0]
        got = pair.alpha.integrate(g)
        assert np.array_equal(got, v[0] * atom.value)
        assert weakstar_gap([pair.alpha], pair.alpha, [g]) == 0.0
        limit = pairing(to_gym(pair), g, make_integrand("linear_form:1,0", (1, 2)))
        assert limit == pytest.approx(got[0, 0], rel=1e-14)

    def test_constant_sequence(self, unit_mesh):
        mu = DiscreteMeasure(unit_mesh, np.full(unit_mesh.ncells, 2.0))
        assert weakstar_gap([mu, mu, mu], mu, [ONE, X, XSQ]) == 0.0

    def test_toy_moment_bound(self):
        eps, n = 0.5, 1000
        seq = [toy_field(m, eps).derivative() for m in (10, 100, n)]
        limit_mesh = interval_mesh(0, 1, 8)
        limit = DiscreteMeasure(
            limit_mesh, np.zeros((limit_mesh.ncells, 1, 1)), (Atom(1.0, 1 - eps, [[1.0]]),)
        )
        gap = weakstar_gap(seq, limit, [ONE, X, XSQ])
        assert gap <= 3 * (1 - eps) / n

    def test_oscillation_riemann_lebesgue(self):
        zero = DiscreteMeasure(interval_mesh(0, 1, 4), np.zeros((3 + 1, 1, 1)))
        gaps = [
            weakstar_gap([oscillation_field(k).derivative()], zero, [ONE, X, XSQ])
            for k in (8, 16, 32, 64)
        ]
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02

    def test_mismatched_domains(self):
        m1 = interval_mesh(0, 1, 4)
        m2 = interval_mesh(0, 2, 4)
        mu1 = DiscreteMeasure(m1, np.zeros(m1.ncells))
        mu2 = DiscreteMeasure(m2, np.zeros(m2.ncells))
        with pytest.raises(ValueError, match="domains"):
            weakstar_gap([mu1], mu2, [ONE])

    def test_tv_lower_semicontinuity_surrogate(self):
        eps = 0.5
        seq_fields = [toy_field(m, eps) for m in (10, 100, 1000)]
        tvs = [u.derivative().total_variation() for u in seq_fields]
        limit_mesh = interval_mesh(0, 1, 8)
        limit = DiscreteMeasure(
            limit_mesh, np.zeros((limit_mesh.ncells, 1, 1)), (Atom(1.0, 1 - eps, [[1.0]]),)
        )
        assert limit.total_variation() <= min(tvs) + 1e-9


class TestDecomposition:
    def test_boundary_concentrated_passthrough(self):
        eps = 0.5
        fields = []
        for n in (10, 100, 1000):
            u = toy_field(n, eps)
            fields.append(BVField(u.mesh, u.values - eps / 2))
        cs, ds = decompose_boundary_interior(fields, [0.3, 0.2, 0.1])
        for c, d, u in zip(cs, ds, fields):
            assert np.allclose(c.values, u.values, atol=1e-15)
            assert np.allclose(d.values, 0.0, atol=1e-15)

    def test_interior_bump_passthrough(self):
        fields = []
        for k in (4, 8, 16):
            mesh = interval_mesh(0, 1, 64)
            bump = np.maximum(0.0, 0.25 - np.abs(mesh.nodes - 0.5)) / k
            fields.append(BVField.from_nodal(mesh, bump))
        cs, ds = decompose_boundary_interior(fields, [0.1, 0.1, 0.1])
        for c, d, u in zip(cs, ds, fields):
            assert np.allclose(c.values, 0.0, atol=1e-15)
            assert np.allclose(d.values, u.values, atol=1e-15)

    def test_sum_splits_into_parts(self):
        eps = 0.5
        cs_true, os_true, fields = [], [], []
        for n, k in ((100, 8), (400, 16), (1600, 32)):
            layer = toy_field(n, eps)
            layer = BVField(layer.mesh, layer.values - eps / 2)
            osc = oscillation_field(k, support=(0.25, 0.75))
            mesh = union_mesh(layer.mesh, osc.mesh)
            lay = resample(layer, mesh)
            om = resample(osc, mesh)
            om = BVField(mesh, om.values / k)
            cs_true.append(lay)
            os_true.append(om)
            fields.append(lay + om)
        cs, ds = decompose_boundary_interior(fields, [0.1, 0.05, 0.02])
        for c, d, ct, ot in zip(cs, ds, cs_true, os_true):
            assert abs(c.derivative().total_variation() - ct.derivative().total_variation()) <= 1e-9
            assert abs(d.derivative().total_variation() - ot.derivative().total_variation()) <= 1e-9

    def test_cellwise_bound_and_exact_sum(self):
        eps = 0.5
        fields = [toy_field(n, eps) for n in (10, 100)]
        fields = [BVField(u.mesh, u.values - eps / 2) for u in fields]
        cs, ds = decompose_boundary_interior(fields, [0.3, 0.1])
        for k, (c, d, u) in enumerate(zip(cs, ds, fields)):
            assert np.allclose(c.values + d.values, u.values, atol=1e-15)
            sc = np.abs(c.slopes()) + np.abs(d.slopes())
            su = np.abs(u.slopes())
            assert np.all(sc <= su + 1.0 / (k + 1) + 1e-12)

    def test_requires_null_limit(self):
        mesh = interval_mesh(0, 1, 8)
        ones = [BVField.constant(mesh, 1.0)] * 3
        with pytest.raises(ValueError, match="null limit"):
            decompose_boundary_interior(ones, [0.1])

    def test_charge_profile_decreases(self):
        eps = 0.5
        fields = [toy_field(n, eps) for n in (10, 100, 1000)]
        prof = charge_profile(fields, [0.5, 0.25, 0.125])
        assert np.all(np.diff(prof) <= 1e-12)


class TestTrace:
    def test_constant(self, unit_mesh):
        lo, hi = BVField.constant(unit_mesh, 0.7).trace()
        assert lo[0] == pytest.approx(0.7) and hi[0] == pytest.approx(0.7)

    def test_toy_field_endpoints(self):
        eps, n = 0.5, 64
        lo, hi = toy_field(n, eps).trace()
        assert float(lo[0]) == pytest.approx(eps / 2)
        assert float(hi[0]) == pytest.approx(1 - eps / 2)

    def test_interior_step_does_not_move_trace(self, unit_mesh):
        lo, hi = BVField.step(unit_mesh, 0.5, 0.2, 0.9).trace()
        assert float(lo[0]) == pytest.approx(0.2)
        assert float(hi[0]) == pytest.approx(0.9)


    def test_fold_maps_each_atom_to_its_endpoint(self, unit_mesh):
        u = BVField.affine(unit_mesh, 1.0, 0.25)
        inner, outer = fold_traces(u, [(0.0, 0.5), (1 - 1e-13, [[0.75]]), (1.0, 0.25)])
        assert inner == {0.0: pytest.approx([0.25]), 1.0: pytest.approx([1.25])}
        assert outer[0.0][0] == 0.25 - 0.5  # the outer normal at 0 is -1
        assert outer[1.0][0] == 1.25 + 0.75 + 0.25


class TestNormalProjection:
    def test_rank_one_value_has_zero_residual(self):
        rho = np.array([0.6, 0.8])
        a, res = normal_projection(np.outer([2.0, -1.0], rho), rho)
        assert np.allclose(a, [2.0, -1.0]) and res <= 1e-15

    def test_tangential_value_fails(self):
        a, res = normal_projection(np.array([[0.0, 3.0]]), np.array([1.0, 0.0]))
        assert a[0] == 0.0 and res == 1.0 > RANK_ONE_TOL  # |A - a x rho| / max(1, |A|) = 3 / 3

    def test_every_1d_value_is_rank_one(self):
        a, res = normal_projection(np.array([[0.3], [-2.0]]), -1.0)
        assert np.array_equal(a, [-0.3, 2.0]) and res == 0.0


class TestKey:
    def test_1d_key_is_the_float(self):
        assert _key(np.float64(0.25)) == 0.25 and _key(np.array(0.25)) == 0.25

    def test_2d_key_rounds_to_1e_12(self):
        assert _key(np.array([0.6, 0.8])) == _key(np.array([0.6 + 1e-14, 0.8 - 1e-14])) == (0.6, 0.8)


class TestSerialization:
    def test_measure_round_trip(self, unit_mesh):
        mu = DiscreteMeasure(
            unit_mesh,
            np.linspace(0, 1, unit_mesh.ncells)[:, None, None],
            (Atom(1.0, 0.5, [[1.0]]),),
        )
        back = DiscreteMeasure.from_record(mu.to_record())
        assert np.allclose(back.density, mu.density)
        assert back.atoms[0].mass == mu.atoms[0].mass
        assert back.integrate(X) == pytest.approx(mu.integrate(X))

    def test_field_round_trip(self):
        u = toy_field(10, 0.3)
        back = BVField.from_record(u.to_record())
        assert np.allclose(back.values, u.values)


class TestGroupRows:
    @pytest.mark.parametrize("shape", [(60, 3), (40, 2, 1), (0, 3), (0, 1, 1), (1, 2)])
    def test_matches_np_unique(self, shape):
        # rows drawn from +-0.0, NaN, +-inf and 1: -0.0 joins 0.0, a row holding NaN equals none
        rng = np.random.default_rng(len(shape) + shape[0])
        X = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0], size=shape)
        first, group = group_rows(X)
        _, index, inverse = np.unique(X, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(first, index) and np.array_equal(group, inverse.ravel())
