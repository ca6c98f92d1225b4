import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.gym import check_characterization, first_moment, gym_traces, pairing, default_dictionary
from bvgym.measures import BVField, DiscreteMeasure, DiskField
from bvgym.meshes import IntervalMesh, disk_mesh, interval_mesh
from bvgym.relax import toy_field, toy_limit_gym
from bvgym.soucek import (
    GREEN_TOL,
    InconsistentPairError,
    SoucekPair,
    from_gym,
    outer_trace,
    side,
    soucek_pair,
    to_gym,
    weakstar_trace_continuity_test,
)

EPS = 0.5


def toy_limit_pair(mesh=None):
    mesh = mesh or interval_mesh(0, 1, 16)
    return soucek_pair(BVField.constant(mesh, EPS / 2), {1.0: 1.0 - EPS})


class TestOuterTrace1D:
    def test_pure_boundary_atom(self, unit_mesh):
        p = soucek_pair(BVField.constant(unit_mesh, 0.0), {1.0: 0.7})
        tp = outer_trace(p)
        assert tp.green_residual <= GREEN_TOL
        assert tp.inner[0.0][0] == 0.0 and tp.inner[1.0][0] == 0.0
        assert tp.outer[0.0][0] == 0.0 and tp.outer[1.0][0] == pytest.approx(0.7)

    def test_atom_at_left_end_uses_negative_normal(self, unit_mesh):
        p = soucek_pair(BVField.constant(unit_mesh, 0.0), {0.0: 0.4})
        tp = outer_trace(p)
        assert tp.outer[0.0][0] == pytest.approx(-0.4)

    def test_no_boundary_part(self, unit_mesh):
        u = BVField.affine(unit_mesh, 1.2, -0.5)
        tp = outer_trace(soucek_pair(u))
        for x in tp.inner:
            assert np.allclose(tp.outer[x], tp.inner[x])

    def test_toy_limit(self):
        tp = outer_trace(toy_limit_pair())
        assert tp.inner[0.0][0] == pytest.approx(EPS / 2)
        assert tp.inner[1.0][0] == pytest.approx(EPS / 2)
        assert tp.outer[0.0][0] == pytest.approx(EPS / 2)
        assert tp.outer[1.0][0] == pytest.approx(1 - EPS / 2)

    def test_interior_jump_in_green_identity(self, unit_mesh):
        u = BVField.step(unit_mesh, 0.5, 0.0, 1.0)
        tp = outer_trace(soucek_pair(u))
        assert tp.green_residual <= GREEN_TOL

    def test_boundary_magnitudes_match_trace_difference(self):
        p = toy_limit_pair()
        tp = outer_trace(p)
        for at in p.boundary_part():
            x = float(np.asarray(at.point))
            assert at.mass == pytest.approx(
                float(np.linalg.norm(tp.outer[x] - tp.inner[x])), abs=1e-10
            )

    def test_pair_consistency_enforced(self, unit_mesh):
        u = BVField.affine(unit_mesh, 1.0, 0.0)
        alpha = DiscreteMeasure(unit_mesh, np.zeros((unit_mesh.ncells, 1, 1)))
        with pytest.raises(InconsistentPairError):
            SoucekPair(u, alpha)


class TestTraceProperties:
    """On random 1D pairs the one trace fold serves both the pair and its Young measure."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.sampled_from([1, 2]), ncells=st.integers(1, 24),
           domain=st.sampled_from([(0.0, 1.0), (-0.306, 0.614), (1.0, 2.5)]))
    def test_gym_outer_trace_equals_pair_outer_trace(self, seed, M, ncells, domain):
        rng = np.random.default_rng(seed)
        a, b = domain
        mesh = IntervalMesh(np.unique(np.concatenate([[a, b], rng.uniform(a, b, ncells - 1)])))
        u = BVField(mesh, rng.normal(0, 2, (mesh.ncells, 2) + ((M,) if M > 1 else ())))  # jumps included
        pair = soucek_pair(u, {a: rng.normal(0, 1, (M, 1)), b: rng.normal(0, 1, (M, 1))})
        tp = outer_trace(pair)
        assert tp.green_residual <= GREEN_TOL
        outer = gym_traces(to_gym(pair))["outer"]
        assert outer.keys() == tp.outer.keys() == {a, b}
        for x in outer:
            assert np.array_equal(outer[x], tp.outer[x])


class TestOuterTraceDisk:
    def test_affine_field_residual(self):
        mesh = disk_mesh(3)
        u = DiskField(mesh, 0.5 * mesh.vertices[:, 0] - 0.2 * mesh.vertices[:, 1])
        tp = outer_trace(soucek_pair(u))
        assert tp.green_residual <= GREEN_TOL
        assert not tp.outer_atoms

    def test_normal_atom_accepted(self):
        mesh = disk_mesh(3)
        u = DiskField(mesh, np.zeros(mesh.vertices.shape[0]))
        x0 = mesh.vertices[mesh.boundary_nodes[3]].copy()
        rho = x0 / np.linalg.norm(x0)
        p = soucek_pair(u, {tuple(x0): 0.6 * rho})
        tp = outer_trace(p)
        assert tp.green_residual <= GREEN_TOL
        ((pt, a),) = tp.outer_atoms
        assert a[0] == pytest.approx(0.6)

    def test_tangential_atom_rejected(self):
        mesh = disk_mesh(2)
        u = DiskField(mesh, np.zeros(mesh.vertices.shape[0]))
        x0 = mesh.vertices[mesh.boundary_nodes[1]].copy()
        rho = x0 / np.linalg.norm(x0)
        tau = np.array([-rho[1], rho[0]])
        p = soucek_pair(u, {tuple(x0): 0.5 * tau})
        with pytest.raises(InconsistentPairError, match="normal"):
            outer_trace(p)


class TestSide:
    def test_no_boundary_atoms(self, unit_mesh):
        p = soucek_pair(BVField.affine(unit_mesh, 1.0, 0.0))
        s = side(p)
        assert not s.boundary_part()
        assert np.allclose(s.alpha.density, 0.0)

    def test_toy_side(self):
        s = side(toy_limit_pair())
        (at,) = s.boundary_part()
        assert float(np.asarray(at.point)) == 1.0
        assert at.mass == pytest.approx(1 - EPS)
        assert float(at.direction.ravel()[0]) == 1.0  # a * normal(1) with a = 1

    def test_condition_iv_at_the_toy_boundary_atom(self):
        gm = to_gym(toy_limit_pair())
        report = check_characterization(gm, gm.underlying)
        assert gm.boundary_atom_indices() and report["iv"]["pass"] and report["iv"]["worst"] >= 0.0


class TestGYMConversion:
    def test_affine_to_dirac(self, unit_mesh):
        p = soucek_pair(BVField.affine(unit_mesh, 2.0, 0.1))
        gm = to_gym(p)
        assert not gm.lam_atoms
        mom = first_moment(gm)
        assert np.allclose(mom.density, p.alpha.density)

    def test_toy_round_trip(self):
        p = toy_limit_pair()
        gm = to_gym(p)
        back = from_gym(gm)
        assert np.allclose(back.alpha.density, p.alpha.density)
        (a1,) = back.alpha.boundary_atoms()
        (a0,) = p.alpha.boundary_atoms()
        assert a1.mass == pytest.approx(a0.mass)
        assert np.allclose(np.asarray(a1.direction), np.asarray(a0.direction))

    def test_round_trip_with_interior_jump(self, unit_mesh):
        u = BVField.step(unit_mesh, 0.5, 0.0, 0.8)
        p = soucek_pair(u, {1.0: -0.3})
        gm = to_gym(p)
        back = from_gym(gm)
        assert np.allclose(back.alpha.density, p.alpha.density)
        assert len(back.alpha.atoms) == len(p.alpha.atoms)
        for a, b in zip(
            sorted(back.alpha.atoms, key=lambda a: float(np.asarray(a.point))),
            sorted(p.alpha.atoms, key=lambda a: float(np.asarray(a.point))),
        ):
            assert a.mass == pytest.approx(b.mass)

    def test_from_gym_rejects_bad_measure(self):
        # tangential boundary direction on the disk fails the characterization
        from bvgym.gym import GenYoungMeasure

        mesh = disk_mesh(2)
        x0 = mesh.vertices[mesh.boundary_nodes[0]].copy()
        rho = x0 / np.linalg.norm(x0)
        tau = np.array([-rho[1], rho[0]])
        gm = GenYoungMeasure(
            mesh,
            np.array([np.zeros((1, 2))]),
            np.ones((mesh.ncells, 1)),
            np.zeros(mesh.ncells),
            ((x0, 0.5),),
            np.array([tau.reshape(1, 2)]),
            np.ones((mesh.ncells, 1)),
            np.array([[1.0]]),
        )
        gm = gm.with_underlying(DiskField(mesh, np.zeros(mesh.vertices.shape[0])))
        with pytest.raises(ValueError, match="characterization"):
            from_gym(gm)


class TestIsomorphism:
    def test_pair_reconstructs_from_traces(self):
        # (u, beta) determines alpha: interior part is Du, boundary atoms are
        # normal * (outer - inner); rebuilding gives the original pair
        p = toy_limit_pair()
        tp = outer_trace(p)
        mesh = p.mesh
        rebuilt = {}
        for x in tp.inner:
            rho = -1.0 if x == mesh.a else 1.0
            val = rho * (tp.outer[x] - tp.inner[x])
            if np.linalg.norm(val) > 0:
                rebuilt[x] = val
        q = soucek_pair(p.u, rebuilt)
        assert len(q.boundary_part()) == len(p.boundary_part())
        for a, b in zip(q.boundary_part(), p.boundary_part()):
            assert a.mass == pytest.approx(b.mass, abs=1e-12)


class TestWeakStarTraceContinuity:
    def test_constant_sequence(self, unit_mesh):
        p = toy_limit_pair(unit_mesh)
        res = weakstar_trace_continuity_test([p, p, p], p)
        assert res["trace_gap"] == 0.0

    def test_toy_sequence_traces_converge(self):
        pairs = [soucek_pair(toy_field(n, EPS)) for n in (10, 100, 1000)]
        res = weakstar_trace_continuity_test(pairs, toy_limit_pair())
        # outer traces of members already equal (eps/2, 1 - eps/2)
        assert res["trace_gap"] <= 1e-9
        assert res["alpha_gap"] <= 3 * (1 - EPS) / 1000

    def test_interior_bump_traces_stay_inner(self):
        pairs = []
        for k in (4, 8, 16):
            mesh = interval_mesh(0, 1, 64)
            bump = np.maximum(0.0, 0.25 - np.abs(mesh.nodes - 0.5)) / k
            pairs.append(soucek_pair(BVField.from_nodal(mesh, bump)))
        limit = soucek_pair(BVField.constant(interval_mesh(0, 1, 8), 0.0))
        res = weakstar_trace_continuity_test(pairs, limit)
        assert res["trace_gap"] <= 1e-12
        for p in pairs:
            tp = outer_trace(p)
            for x in tp.inner:
                assert np.allclose(tp.outer[x], tp.inner[x])

    def test_serialization(self):
        rec = toy_limit_pair().to_record()
        assert "beta" in rec and "alpha" in rec and "u" in rec
