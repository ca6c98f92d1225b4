import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym import relax
from bvgym.cli import main
from bvgym.measures import BVField
from bvgym.meshes import _GL_W, _GL_X, disk_mesh, interval_mesh
from bvgym.relax import (
    AdmissibilityError,
    BoundaryTerm,
    HypothesisError,
    ProblemSpec,
    abs_penalty,
    admissibility_report,
    direct_minimize,
    eval_Fbar,
    eval_Fhat,
    higher_dim_J,
    linear_penalty,
    relax_minimize,
    square_penalty,
    tilde_transform,
    toy_field,
    toy_infimum,
    toy_limit_gym,
    toy_limit_pair,
    toy_report,
    toy_sequence_value,
    toy_spec,
)
from bvgym.relax import (
    _GAMMA0,
    _GAMMA1,
    _GAP_TOL,
    _LevelBlocks,
    _MIN_BLOCK,
    _discrete_energy,
    _angle_in,
    _arc_edges,
    _best_traces,
    _bfs_levels,
    _dist2_to_segments,
    _level_mesh,
    _minimize_disk,
)
from bvgym.soucek import soucek_pair

EPS = 0.5


def _tv():
    """The weight w = 1, so f = |A|."""
    return lambda x: np.ones_like(np.asarray(x, dtype=float))


def const_weight_spec(**kw):
    """f = |u'| with a Robin term (u-1)^2 at the right end only."""
    return ProblemSpec(0.0, 1.0, _tv(), right=square_penalty(1.0), name="convex_tv", **kw)


class TestBoundarySlots:
    def test_terms_located_by_point(self):
        left, right = square_penalty(0.0), abs_penalty(1.0)
        spec = ProblemSpec(0.0, 1.0, _tv(), left=left, right=right)
        assert spec.term_at(0.0) is left and spec.term_at(1.0 + 1e-12) is right
        assert spec.robin_terms() == [(0.0, left), (1.0, right)]

    def test_tiny_domain_keeps_sides_apart(self):
        # an absolute tolerance of 1e-8 would locate b = 5e-9 on the left side
        right = square_penalty(1.0)
        spec = ProblemSpec(0.0, 5e-9, _tv(), right=right)
        assert spec.term_at(5e-9) is right and spec.term_at(0.0) is None
        left = abs_penalty(0.0)
        spec = ProblemSpec(0.0, 5e-9, _tv(), left=left, right=right)
        assert spec.term_at(0.0) is left and spec.term_at(5e-9) is right
        assert spec.robin_terms() == [(0.0, left), (5e-9, right)]

    def test_neumann_side_is_none(self):
        spec = const_weight_spec()
        assert spec.left is None and spec.term_at(0.0) is None
        assert spec.term_at(1.0) is spec.right is not None
        assert spec.term_at(0.5) is None

    def test_terms_are_keyword_only(self):
        with pytest.raises(TypeError):
            ProblemSpec(0.0, 1.0, _tv(), {1.0: square_penalty(1.0)})

    @pytest.mark.parametrize(
        "a,b,C,field",
        [
            (0.0, 1.0, np.nan, "C"), (0.0, 1.0, np.inf, "C"), (0.0, 1.0, 0.0, "C"), (0.0, 1.0, -1.0, "C"),
            (0.0, np.nan, 10.0, "a < b"), (-np.inf, 1.0, 10.0, "a < b"), (1.0, 1.0, 10.0, "a < b"),
            (1.0, 0.0, 10.0, "a < b"),
        ],
    )
    def test_invalid_domain_or_bound_rejected(self, a, b, C, field):
        with pytest.raises(ValueError, match=field):
            ProblemSpec(a, b, _tv(), right=square_penalty(1.0), C=C)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6), st.floats(-1e3, 1e3))
    def test_penalties_match_np_sum_bit_for_bit(self, value, par):
        # a scalar trace and a one-element array give the bits of the old np.sum forms
        u = np.array([value])
        for x in (value, u):
            assert square_penalty(par)(x) == float(np.sum((u - par) ** 2))
            assert abs_penalty(par)(x) == float(np.sqrt(np.sum((u - par) ** 2)))
            assert linear_penalty(par)(x) == float(par * np.sum(u))

    @pytest.mark.parametrize("term", [square_penalty(0.0), abs_penalty(1.0), linear_penalty(2.0)],
                             ids=["square", "abs", "linear"])
    def test_vector_trace_refused(self, term):
        with pytest.raises(ValueError):
            term([0.5, 1.0])


class TestToyClosedForms:
    """I is the discrete energy of a nodal field; I1 and I2 are F-bar of its pair,
    without and with the boundary atoms that move the outer trace to beta."""

    def test_sequence_value_formula(self):
        for eps in (0.1, 0.3, 0.5):
            for n in (10, 100, 1000):
                u = toy_field(n, eps)
                assert _discrete_energy(toy_spec(eps), u) == pytest.approx(
                    toy_sequence_value(eps, n), abs=1e-12
                )

    def test_I1_at_weak_limit(self):
        val = eval_Fbar(soucek_pair(toy_limit_pair(EPS).u), toy_spec(EPS))
        assert val == pytest.approx(EPS**2 / 4 + (1 - EPS / 2) ** 2)
        assert val == pytest.approx(0.625)

    def test_I2_recovers_infimum(self):
        u = BVField.constant(interval_mesh(0, 1, 16), EPS / 2)
        (u0,), (u1,) = u.trace()
        b0, b1 = EPS / 2, 1 - EPS / 2
        val = eval_Fbar(soucek_pair(u, {0.0: u0 - b0, 1.0: b1 - u1}), toy_spec(EPS))
        assert val == pytest.approx(toy_infimum(EPS))
        # the limit pair is that same (u, alpha) on 32 cells
        assert eval_Fbar(toy_limit_pair(EPS), toy_spec(EPS)) == pytest.approx(toy_infimum(EPS), abs=1e-12)

    def test_I2_prices_both_boundary_legs(self):
        # (1 + eps)|u0 - b0| + b0^2 + eps |b1 - u1| + (b1 - 1)^2 at u = 0.3
        u = BVField.constant(interval_mesh(0, 1, 16), 0.3)
        b0, b1 = -0.1, 0.8
        val = eval_Fbar(soucek_pair(u, {0.0: 0.3 - b0, 1.0: b1 - 0.3}), toy_spec(EPS))
        expected = (1 + EPS) * 0.4 + b0**2 + EPS * 0.5 + (b1 - 1) ** 2
        assert val == pytest.approx(expected, abs=1e-12)

    def test_I1_prices_jumps_at_the_weight(self, unit_mesh):
        # a unit jump at 0.5 costs w(0.5) = 0.25 + eps; both traces pay nothing
        u = BVField.step(unit_mesh, 0.5, 0.0, 1.0)
        assert eval_Fbar(soucek_pair(u), toy_spec(EPS)) == pytest.approx(0.25 + EPS, abs=1e-12)

    def test_non_lsc_witness(self):
        # the functional value drops strictly below its value at the weak limit
        spec = toy_spec(EPS)
        limit_val = eval_Fbar(soucek_pair(BVField.constant(interval_mesh(0, 1, 8), EPS / 2)), spec)
        seq_val = eval_Fbar(soucek_pair(toy_field(10**4, EPS)), spec)
        assert seq_val < limit_val - 0.2
        assert limit_val - toy_infimum(EPS) == pytest.approx(0.25, abs=1e-9)

    def test_report_flags_quoted_limit(self):
        rep = toy_report(EPS)
        assert not rep["quoted_limit_matches"]
        assert rep["quoted_limit_discrepancy"] == pytest.approx(EPS**2 / 4)
        assert rep["lsc_gap"] == pytest.approx(0.25)


class TestDirectMinimize:
    @pytest.mark.parametrize("eps,expected", [(0.5, 0.375), (0.1, 0.095)])
    def test_toy_values(self, eps, expected):
        res = direct_minimize(toy_spec(eps), levels=(4, 6, 8))
        assert res["inf_est"] == pytest.approx(expected, abs=5e-3)

    def test_pure_neumann_is_zero(self):
        spec = ProblemSpec(0.0, 1.0, _tv(), name="neumann")
        res = direct_minimize(spec, levels=(3, 4))
        assert res["inf_est"] == pytest.approx(0.0, abs=1e-12)

    def test_values_nonincreasing_under_refinement(self):
        # nested spaces: the family value cannot increase when the mesh refines
        spec = toy_spec(0.3)
        mesh = interval_mesh(0, 1, 8, grade_to=(1.0,), grade_levels=4)
        from bvgym.relax import _discrete_energy, _minimize_on_mesh

        vals = []
        for _ in range(3):
            u = _minimize_on_mesh(spec, mesh)
            vals.append(_discrete_energy(spec, u))
            mesh = mesh.refine()
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_minimizing_sequence_concentrates(self):
        res = direct_minimize(toy_spec(EPS), levels=(4, 8))
        coarse, fine = res["minimizers"]
        j_coarse = max(x for x, _ in _transition_cells(coarse))
        j_fine = max(x for x, _ in _transition_cells(fine))
        assert j_fine > j_coarse  # the transition moves toward x = 1

    @pytest.mark.parametrize("levels", [(), (0,), (4, -1)])
    def test_invalid_levels_rejected(self, levels):
        with pytest.raises(ValueError, match="levels"):
            direct_minimize(toy_spec(EPS), levels=levels)
        with pytest.raises(ValueError, match="levels"):
            relax_minimize(toy_spec(EPS), levels=levels)

    def test_infeasible_bound(self):
        with pytest.raises(ValueError, match="infeasible"):
            dataclasses.replace(toy_spec(0.5), C=-1.0)


# The search must cover all of |beta_a| + |beta_b| <= C here: the best traces
# (0.959, -1.741) have |beta_b| > C/2 = 1.5.  The value is one HiGHS LP at level 8.
L1_REPRO = dict(a=-0.306, b=0.614, weight=lambda x: (np.asarray(x, dtype=float) - 0.341) ** 2 + 0.664,
                left=("abs", 0.959), right=("abs", -1.741), C=3.0)
L1_REPRO_VALUE = 1.7928104528320314


def _lp_spec(a, b, weight, left, right, C):
    make = {"abs": abs_penalty, "linear": linear_penalty}
    terms = {k: None if t is None else make[t[0]](t[1]) for k, t in (("left", left), ("right", right))}
    return ProblemSpec(a, b, weight, **terms, C=C)


def _lp_direct_value(mesh, weight, left, right, C) -> float:
    """min sum_c wbar_c/h_c |u_{c+1} - u_c| + g_a(u_0) + g_b(u_n) over all nodal values u,
    with sum_c |u_{c+1} - u_c| <= C and |u_0| + |u_n| <= C, as one LP solved by HiGHS.

    Columns: u (n + 1, free), s_c >= |u_{c+1} - u_c| (n), then e_a >= |u_0 - t_a|,
    e_b >= |u_n - t_b|, m_a >= |u_0|, m_b >= |u_n|.  It uses neither the cheapest cell
    nor the two-trace reduction.
    """
    from scipy.optimize import linprog

    n = mesh.ncells
    cost = mesh.cell_integrals(weight) / mesh.cell_volumes
    ncol = 2 * n + 5
    ea, eb, ma, mb = 2 * n + 1, 2 * n + 2, 2 * n + 3, 2 * n + 4
    c = np.zeros(ncol)
    c[n + 1 : 2 * n + 1] = cost
    rows, rhs = [], []

    def row(coef, bound):
        r = np.zeros(ncol)
        for j, v in coef.items():
            r[j] += v
        rows.append(r)
        rhs.append(bound)

    for k in range(n):
        for sgn in (1.0, -1.0):  # +-(u_{k+1} - u_k) <= s_k
            row({k + 1: sgn, k: -sgn, n + 1 + k: -1.0}, 0.0)
    row({n + 1 + k: 1.0 for k in range(n)}, C)
    for node, m in ((0, ma), (n, mb)):
        row({node: 1.0, m: -1.0}, 0.0)
        row({node: -1.0, m: -1.0}, 0.0)
    row({ma: 1.0, mb: 1.0}, C)
    for node, e, term in ((0, ea, left), (n, eb, right)):
        if term is None:
            continue
        kind, par = term
        if kind == "linear":
            c[node] += par
        else:
            c[e] = 1.0
            row({node: 1.0, e: -1.0}, par)
            row({node: -1.0, e: -1.0}, -par)
    bounds = [(None, None)] * (n + 1) + [(0, None)] * (n + 4)
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


class TestDirectMatchesLP:
    """The direct value on a mesh equals an LP over all nodal values."""

    @pytest.mark.parametrize(
        "case",
        [
            L1_REPRO,
            dict(a=0.0, b=1.0, weight=lambda x: (np.asarray(x, dtype=float) - 1) ** 2 + 0.3,
                 left=("abs", 0.4), right=("linear", 0.7), C=2.0),
            dict(a=1.0, b=4.0, weight=lambda x: 0.6 + 0 * np.asarray(x, dtype=float),
                 left=("linear", -0.5), right=("abs", 1.2), C=2.0),
            dict(a=0.0, b=1.0, weight=lambda x: 1.5 - np.sin(3 * np.asarray(x, dtype=float)),
                 left=None, right=("linear", 0.3), C=1.0),
            dict(a=-1.0, b=1.0, weight=lambda x: np.asarray(x, dtype=float) ** 2 + 0.2,
                 left=("abs", -0.7), right=None, C=1.0),
        ],
        ids=["l1_reproducer", "abs_linear", "linear_abs", "neumann_linear", "abs_neumann"],
    )
    def test_direct_value_equals_lp(self, case):
        spec = _lp_spec(**case)
        levels = (2, 3, 4)
        res = direct_minimize(spec, levels=levels)
        for lev, val, u in zip(levels, res["values"], res["minimizers"]):
            mesh = _level_mesh(spec, lev)
            lp = _lp_direct_value(mesh, case["weight"], case["left"], case["right"], case["C"])
            assert val == pytest.approx(lp, abs=1e-9)
            lo, hi = u.trace()  # the minimizer is admissible
            assert u.derivative().total_variation() <= abs(lo[0]) + abs(hi[0]) <= case["C"] + 1e-12

    def test_l1_reproducer_all_three_minima(self):
        res = relax_minimize(_lp_spec(**L1_REPRO), levels=(4, 6, 8))
        for val in (res.inf_direct, res.min_extended, res.min_gym):
            assert val == pytest.approx(L1_REPRO_VALUE, abs=1e-9)
        assert res.agree_within(1e-2)
        assert abs(res.beta[-0.306][0]) + abs(res.beta[0.614][0]) <= 3.0 + 1e-12


# slopes 2|u - 0.6|, 1 and 1.5: costs 0.5 and 2.0 lie below and above the last two;
# with C = 1 the targets -0.8 (left) and 0.9 (right) are not both reachable
_TRACE_TERMS = {
    "neumann": lambda side: None,
    "square": lambda side: square_penalty(-0.8 if side == "left" else 0.6),
    "abs": lambda side: abs_penalty(-0.8 if side == "left" else 0.9),
    "linear": lambda side: linear_penalty(1.5 if side == "left" else -1.5),
}


def _counted(term, calls):
    """The same boundary term, adding one to calls[0] per evaluation."""
    if term is None:
        return None

    def g(u):
        calls[0] += 1
        return term.g(u)

    return BoundaryTerm(g, term.g_inf, term.name)


class TestBestTraces:
    """The two-trace problem min cost |q - p| + g_left(p) + g_right(q) over |p| + |q| <= C."""

    @pytest.mark.parametrize("right", sorted(_TRACE_TERMS))
    @pytest.mark.parametrize("left", sorted(_TRACE_TERMS))
    def test_admissible_and_no_worse_than_a_grid(self, left, right):
        gl, gr = _TRACE_TERMS[left]("left"), _TRACE_TERMS[right]("right")
        for C in (1.0, 3.0, 10.0):
            grid = np.linspace(-C, C, 401)
            vl = np.array([0.0 if gl is None else gl(x) for x in grid])
            vr = np.array([0.0 if gr is None else gr(x) for x in grid])
            admissible = np.abs(grid)[:, None] + np.abs(grid)[None, :] <= C
            for cost in (0.5, 2.0):
                grid_min = np.min(
                    np.where(admissible, cost * np.abs(grid[None, :] - grid[:, None])
                             + vl[:, None] + vr[None, :], np.inf)
                )
                calls = [0]
                p, q = _best_traces(cost, _counted(gl, calls), _counted(gr, calls), C)
                assert abs(p) + abs(q) <= C + 1e-12
                value = cost * abs(q - p) + (0.0 if gl is None else gl(p)) + (
                    0.0 if gr is None else gr(q))
                assert value <= grid_min + 1e-9
                # three golden sections, not a search nested in a search
                assert calls[0] <= 300

    def test_bound_binds(self):
        # (p + 0.8)^2 + 0.5 |q - p| + |q - 0.9| wants p = -0.55, q = 0.9 without the bound;
        # on q - p = 1 (KKT multiplier 0.5) the minimizer is p = -0.3, q = 0.7
        p, q = _best_traces(0.5, _TRACE_TERMS["square"]("left"), _TRACE_TERMS["abs"]("right"), 1.0)
        assert abs(p) + abs(q) == pytest.approx(1.0, abs=1e-12)
        assert (p, q) == pytest.approx((-0.3, 0.7), abs=1e-6)


def _transition_cells(u):
    slopes = np.abs(u.slopes())
    idx = np.nonzero(slopes > 1e-9)[0]
    return [(float(u.mesh.cell_centers[i]), float(slopes[i])) for i in idx]


class TestRelaxedFunctionals:
    def test_Fhat_at_toy_limit(self):
        gm = toy_limit_gym(EPS)
        beta = (EPS / 2, 1 - EPS / 2)
        assert eval_Fhat(gm, beta, toy_spec(EPS)) == pytest.approx(toy_infimum(EPS), abs=1e-12)

    def test_Fhat_trivial_measure(self):
        from bvgym.gym import dirac_gym

        mesh = interval_mesh(0, 1, 16)
        gm = dirac_gym(mesh, 0.0).with_underlying(BVField.constant(mesh, 0.0))
        assert eval_Fhat(gm, (0.0, 0.0), toy_spec(EPS)) == pytest.approx(1.0)

    def test_Fhat_strictness(self):
        gm = toy_limit_gym(EPS)
        bad_beta = (EPS / 2, 0.0)  # not the outer trace
        with pytest.raises(AdmissibilityError, match="outer_trace"):
            eval_Fhat(gm, bad_beta, toy_spec(EPS))
        # non-strict evaluation still returns a number
        assert np.isfinite(eval_Fhat(gm, bad_beta, toy_spec(EPS), strict=False))
        assert "beta_not_outer_trace(at=1)" in admissibility_report(gm, bad_beta, toy_spec(EPS))

    def test_Fbar_matches_Fhat_on_pairs(self):
        pair = toy_limit_pair(EPS)
        from bvgym.soucek import to_gym

        val_bar = eval_Fbar(pair, toy_spec(EPS))
        gm = to_gym(pair)
        val_hat = eval_Fhat(gm, (EPS / 2, 1 - EPS / 2), toy_spec(EPS))
        assert val_bar == pytest.approx(val_hat, abs=1e-12)
        assert val_bar == pytest.approx(toy_infimum(EPS), abs=1e-12)


class TestTildeTransform:
    def test_identity_on_dirac_boundary(self):
        gm = toy_limit_gym(EPS)
        spec = toy_spec(EPS)
        beta = (EPS / 2, 1 - EPS / 2)
        tilde, tbeta, log = tilde_transform(gm, beta, spec)
        assert not log
        assert eval_Fhat(tilde, tbeta, spec, strict=False) == pytest.approx(
            eval_Fhat(gm, beta, spec, strict=False), abs=1e-12
        )

    def test_boundary_oscillation_collapses(self):
        from bvgym.gym import GenYoungMeasure

        spec = toy_spec(EPS)
        mesh = interval_mesh(0, 1, 16)
        grid = np.array([[[0.0]]])
        sphere = np.array([[[-1.0]], [[1.0]]])
        mass = 0.4
        gm = GenYoungMeasure(
            mesh, grid, np.ones((mesh.ncells, 1)), np.zeros(mesh.ncells),
            ((1.0, mass),), sphere, np.full((mesh.ncells, 2), 0.5),
            np.array([[0.5, 0.5]]),  # zero first moment
            underlying=BVField.constant(mesh, 0.0),
        )
        beta = {0.0: np.array([0.0]), 1.0: np.array([0.0])}
        tilde, tbeta, log = tilde_transform(gm, beta, spec)
        assert not tilde.lam_atoms  # the zero-moment atom is dropped
        assert log and "zero-moment" in log[0]
        before = eval_Fhat(gm, beta, spec, strict=False)
        after = eval_Fhat(tilde, tbeta, spec, strict=False)
        assert before - after == pytest.approx(EPS * mass)  # the recession cost
        assert after <= before + 1e-10

    def test_monotone_on_partial_oscillation(self):
        from bvgym.gym import GenYoungMeasure

        spec = toy_spec(EPS)
        mesh = interval_mesh(0, 1, 16)
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta = rng.uniform(0.0, 1.0)
            mass = rng.uniform(0.1, 1.0)
            gm = GenYoungMeasure(
                mesh, np.array([[[0.0]]]), np.ones((mesh.ncells, 1)), np.zeros(mesh.ncells),
                ((1.0, mass),), np.array([[[-1.0]], [[1.0]]]),
                np.full((mesh.ncells, 2), 0.5), np.array([[1 - theta, theta]]),
                underlying=BVField.constant(mesh, 0.0),
            )
            moment = 2 * theta - 1
            beta = {0.0: np.array([0.0]), 1.0: np.array([moment * mass])}
            tilde, tbeta, _ = tilde_transform(gm, beta, spec)
            before = eval_Fhat(gm, beta, spec, strict=False)
            after = eval_Fhat(tilde, tbeta, spec, strict=False)
            assert after <= before + 1e-10

    def test_interior_atom_near_the_robin_end_is_kept(self):
        # x = 1 - 1e-10 lies within the spec's 1e-8 side tolerance, but the measure keeps
        # it interior (`boundary_atom_indices`): the oscillating atom stays as it is
        spec = toy_spec(EPS)
        mesh = interval_mesh(0, 1, 16)
        gm = _one_atom_gym(mesh, 1 - 1e-10, 0.4, [[[-1.0]], [[1.0]]], [0.5, 0.5], BVField.constant(mesh, 0.0))
        assert gm.boundary_atom_indices() == []
        tilde, _, log = tilde_transform(gm, {0.0: np.array([0.0]), 1.0: np.array([0.0])}, spec)
        assert not log and tilde.lam_atoms == gm.lam_atoms == ((1 - 1e-10, 0.4),)
        assert np.array_equal(tilde.nu_inf_atoms, gm.nu_inf_atoms)
        assert np.array_equal(tilde.sphere_grid, gm.sphere_grid)


def _one_atom_gym(mesh, point, mass, sphere, row, u):
    """A measure with nu = delta_0, no lam density and one lam atom at `point`."""
    from bvgym.gym import GenYoungMeasure

    S = len(sphere)
    zero = np.zeros((1,) + np.asarray(sphere).shape[1:])
    return GenYoungMeasure(
        mesh, zero, np.ones((mesh.ncells, 1)), np.zeros(mesh.ncells), ((point, mass),),
        np.asarray(sphere, dtype=float), np.full((mesh.ncells, S), 1.0 / S), np.array([row]), underlying=u,
    )


class TestAdmissibilityReport:
    """Each named violation on a measure that has it and no other."""

    def test_mass_bound_exceeded(self):
        from bvgym.gym import gym_traces
        from bvgym.soucek import to_gym

        # a tent 0 -> 1 -> 0 has total variation 2 and traces 0
        mesh = interval_mesh(0, 1, 16)
        gm = to_gym(soucek_pair(BVField.from_nodal(mesh, 1.0 - np.abs(2.0 * mesh.nodes - 1.0))))
        spec = dataclasses.replace(toy_spec(EPS), C=1.0)
        assert admissibility_report(gm, gym_traces(gm)["outer"], spec) == ["mass_bound_exceeded(2>1)"]
        with pytest.raises(AdmissibilityError, match="mass_bound_exceeded"):
            eval_Fhat(gm, gym_traces(gm)["outer"], spec)

    def test_trace_bound_exceeded(self):
        from bvgym.gym import dirac_gym

        mesh = interval_mesh(0, 1, 16)
        gm = dirac_gym(mesh, 0.0).with_underlying(BVField.constant(mesh, 0.4))
        assert admissibility_report(gm, (0.4, 0.4), dataclasses.replace(toy_spec(EPS), C=0.5)) == ["trace_bound_exceeded"]
        assert admissibility_report(gm, (0.4, 0.4), dataclasses.replace(toy_spec(EPS), C=0.8)) == []

    def test_no_underlying_deformation(self):
        gm = toy_limit_gym(EPS).with_underlying(None)
        beta = (EPS / 2, 1 - EPS / 2)
        assert admissibility_report(gm, beta, toy_spec(EPS)) == ["no_underlying_deformation"]

    def test_oscillating_direction_on_robin_side_only(self):
        from bvgym.gym import gym_traces

        mesh = interval_mesh(0, 1, 16)
        # nu_inf = 3/4 delta_{-1} + 1/4 delta_{+1} at x = 1: first moment -1/2, not a unit direction
        gm = _one_atom_gym(mesh, 1.0, 0.4, [[[-1.0]], [[1.0]]], [0.75, 0.25], BVField.constant(mesh, 0.0))
        beta = gym_traces(gm)["outer"]
        spec = toy_spec(EPS)
        assert admissibility_report(gm, beta, spec) == ["oscillating_boundary_direction_on_gamma_R(at=1)"]
        with pytest.raises(AdmissibilityError, match="oscillating"):
            eval_Fhat(gm, beta, spec)
        # on a Neumann side the same atom is admissible
        neumann_right = ProblemSpec(0.0, 1.0, spec.weight, left=spec.left)
        assert admissibility_report(gm, beta, neumann_right) == []


class TestTildeTransformRows:
    def test_atoms_off_the_robin_part_keep_their_rows(self):
        from bvgym.gym import GenYoungMeasure

        mesh = interval_mesh(0, 1, 16)
        spec = ProblemSpec(0.0, 1.0, toy_spec(EPS).weight, left=square_penalty(0.0))  # x = 1 is Neumann
        sphere = np.array([[[-1.0]], [[1.0]]])
        rows = np.array([[0.2, 0.8], [0.7, 0.3], [1.0, 0.0]])
        gm = GenYoungMeasure(
            mesh, np.array([[[0.0]]]), np.ones((mesh.ncells, 1)), np.zeros(mesh.ncells),
            ((0.5, 0.3), (1.0, 0.4), (0.0, 0.2)), sphere, np.full((mesh.ncells, 2), 0.5), rows,
            underlying=BVField.constant(mesh, 0.0),
        )
        tilde, _, log = tilde_transform(gm, (0.0, 0.0), spec)
        assert not log
        # the interior atom and the Neumann-side atom are kept as they are; the Robin
        # atom at 0 already has a Dirac direction, -1, which is on the grid
        assert tilde.lam_atoms == ((0.5, 0.3), (1.0, 0.4), (0.0, 0.2))
        assert np.array_equal(tilde.sphere_grid, sphere)
        assert np.array_equal(tilde.nu_inf_atoms, rows)

    def test_collapsed_direction_off_the_grid_is_appended(self):
        mesh = interval_mesh(0, 1, 16)
        e1, e2 = [[1.0], [0.0]], [[0.0], [1.0]]
        gm = _one_atom_gym(mesh, 1.0, 0.6, [e1, e2], [0.5, 0.5], BVField.constant(mesh, np.zeros(2)))
        tilde, _, log = tilde_transform(gm, {0.0: np.zeros(2), 1.0: np.full(2, 0.3)}, toy_spec(EPS))
        assert not log
        r = np.sqrt(0.5)  # |<nu_inf, id>| = |(1/2, 1/2)|
        assert tilde.sphere_grid.shape == (3, 2, 1)
        assert np.allclose(tilde.sphere_grid[2, :, 0], [r, r], rtol=0, atol=1e-15)
        assert np.array_equal(tilde.nu_inf_atoms, [[0.0, 0.0, 1.0]])
        ((point, mass),) = tilde.lam_atoms
        assert point == 1.0 and mass == pytest.approx(0.6 * r, abs=1e-15)
        # the cells' rows gain a zero column for the new direction
        assert np.array_equal(tilde.nu_inf_cells[:, 2], np.zeros(mesh.ncells))
        assert np.array_equal(tilde.nu_inf_cells[:, :2], gm.nu_inf_cells)


class TestRelaxMinimize:
    @pytest.mark.parametrize("eps", [0.1, 0.5])
    def test_toy_three_values_agree(self, eps):
        res = relax_minimize(toy_spec(eps), levels=(4, 6, 8))
        assert res.inf_direct == pytest.approx(toy_infimum(eps), abs=5e-3)
        assert res.agree_within(1e-2)
        assert abs(res.gym_attained - res.min_gym) <= 1e-2
        assert res.inf_direct >= res.min_extended - 1e-9 >= res.min_gym - 2e-9

    def test_toy_minimizer_structure(self):
        res = relax_minimize(toy_spec(EPS), levels=(4, 6, 8))
        assert res.beta[0.0][0] == pytest.approx(EPS / 2, abs=1e-6)
        assert res.beta[1.0][0] == pytest.approx(1 - EPS / 2, abs=1e-6)
        (atom,) = res.minimizer_pair.boundary_part()
        assert float(np.asarray(atom.point)) == 1.0
        assert atom.mass == pytest.approx(1 - EPS, abs=1e-6)
        u = res.minimizer_pair.u
        assert np.allclose(u.values, EPS / 2, atol=1e-6)

    def test_convex_right_robin_problem(self):
        res = relax_minimize(const_weight_spec(), levels=(4, 6))
        assert res.agree_within(5e-3)
        assert res.min_gym == pytest.approx(0.0, abs=5e-3)

    def test_binding_bound_keeps_min_gym_admissible(self):
        # at C = 0.3 the traces sit on |beta_a| + |beta_b| = C; min_gym is still
        # the value of an admissible measure, so it cannot undercut the other two
        res = relax_minimize(dataclasses.replace(toy_spec(0.05), C=0.3), levels=(4, 6))
        assert res.agree_within(1e-6)
        assert res.min_gym == pytest.approx(0.505, abs=1e-6)

    def test_nonconvex_boundary_term_refused(self):
        concave = BoundaryTerm(lambda u: -float(np.sum(u**2)), None, "-u^2")
        bad = ProblemSpec(0.0, 1.0, _tv(), right=concave, name="bad")
        with pytest.raises(HypothesisError, match="convexity"):
            relax_minimize(bad, levels=(3,))

    def test_negative_recession_refused(self):
        bad = ProblemSpec(0.0, 1.0, _tv(), right=linear_penalty(-1.0), name="bad2")
        with pytest.raises(HypothesisError, match="negative"):
            relax_minimize(bad, levels=(3,))

    def test_not_qslb_weight_refused(self):
        # a weight that is negative at a Robin end makes the recession w(x)|A| negative there
        weight = lambda x: np.asarray(x, dtype=float) - 0.5
        spec = ProblemSpec(0.0, 1.0, weight, left=square_penalty(0.0), name="badw")
        with pytest.raises(HypothesisError, match="weight must be finite and positive"):
            relax_minimize(spec, levels=(3,))

    @pytest.mark.parametrize(
        "weight,right,shown",
        [(lambda x: np.asarray(x, dtype=float) - 0.5, None, "w(0) = -0.5"),
         (lambda x: -np.ones_like(np.asarray(x, dtype=float)), None, "w(0) = -1"),
         (lambda x: np.asarray(x, dtype=float), None, "w(0) = 0"),
         (lambda x: 1.0 / (np.asarray(x, dtype=float) - 1.0) ** 2, None, "w(1) = inf"),
         (lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0), None, "w(0.507812) = nan"),
         (lambda x: 1.0 / (np.asarray(x, dtype=float) - 1.0) ** 2, square_penalty(1.0), "w(1) = inf")],
        ids=["x-0.5", "const-1", "zero-at-a", "inf-at-b", "nan-inside", "inf-at-robin-b"],
    )
    def test_non_positive_weight_refused(self, weight, right, shown):
        # with both sides Neumann the minimum would be -C; at a Robin end the same
        # check stands for both hypotheses on the recession w(x)|A|
        with np.errstate(divide="ignore"):
            with pytest.raises(HypothesisError, match="weight must be finite and positive") as err:
                relax_minimize(ProblemSpec(0, 1, weight, right=right))
        assert shown in str(err.value)

    def test_hypothesis_log_names_the_weight_per_robin_side(self):
        res = relax_minimize(toy_spec(EPS), levels=(4, 6))
        assert res.hypothesis_log == [
            f"x={x:g}: recession w(x)|A| with w(x) = {w:g} finite and > 0 is nonnegative "
            "(qslb holds) and convex (boundary Jensen inequality holds)"
            for x, w in ((0, 1 + EPS), (1, EPS))
        ]
        assert relax_minimize(ProblemSpec(0.0, 1.0, _tv()), levels=(3,)).hypothesis_log == []

    def test_toy_note_only_for_toy_spec(self, tmp_path):
        # the toy command attaches toy_report; relax_minimize and the relax command leave the note out
        assert relax_minimize(toy_spec(EPS), levels=(4,)).toy_note is None
        assert main(["--out", str(tmp_path), "toy", "--eps", str(EPS), "--levels", "4"]) == 0
        note = json.loads((tmp_path / "toy_result.json").read_text())["toy_note"]
        assert note == json.loads(json.dumps(toy_report(EPS)))
        cfg = tmp_path / "toy.ini"
        cfg.write_text(f"[f]\nweight = toy:{EPS}\n[g]\nright = square_to:1.0\n[run]\nlevels = 4\n")
        assert main(["--out", str(tmp_path), "relax", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "relax_result.json").read_text())["toy_note"] is None


@pytest.fixture
def refine_calls(monkeypatch):
    """Meshes that TriMesh.refine_with_parents is called on, in order."""
    from bvgym.meshes import TriMesh

    calls = []
    refine = TriMesh.refine_with_parents

    def counted(mesh):
        calls.append(mesh)
        return refine(mesh)

    monkeypatch.setattr(TriMesh, "refine_with_parents", counted)
    return calls


_SIN = lambda p: np.sin(np.arctan2(p[:, 1], p[:, 0]))
_COS2 = lambda p: np.cos(2 * np.arctan2(p[:, 1], p[:, 0]))
# J per level from the three smoothed L-BFGS-B stages that lagged diffusivity replaced; most
# stages stopped at their 500-iteration cap, so these are upper bounds without a bracket
_LBFGSB_SIN = [1.6923334356145068, 1.69104705744272, 1.6878420662762819]
_LBFGSB_COS2 = [1.7902885624456504, 1.7752592365998319]


# (J, lower) per level from the lagged-diffusivity (IRLS) solver that primal-dual Newton replaced,
# each certified to a 3e-4 relative gap
_IRLS_SIN = [(1.692333435614507, 1.6923333826784663), (1.691188676643939, 1.6906876484011235),
             (1.6877351360688693, 1.6872497667445234)]
_IRLS_COS2 = [(1.7902914783390753, 1.789797924990904), (1.7734848918718167, 1.77296365049776)]


def _assert_pinned(res, rows):
    """rows: (nv, J, lower, nit, delta) per mesh, each mesh stopped on its gap."""
    for row, stage, (nv, J, lower, nit, delta) in zip(res["table"], res["stages"], rows, strict=True):
        assert row["nv"] == nv and row["J"] == pytest.approx(J, rel=1e-12)
        assert row["lower"] == pytest.approx(lower, rel=1e-12)
        assert row["gap"] == (row["J"] - row["lower"]) / row["J"]
        assert stage == {"nv": nv, "nit": nit, "stop": "gap", "lower": row["lower"],
                         "delta": pytest.approx(delta, rel=1e-12)}


def _assert_brackets_hold(res, old_J):
    """Each mesh's certificate is below the old solver's value, and J is at most a gap above it."""
    for row, stage, old in zip(res["table"], res["stages"], old_J, strict=True):
        assert row["lower"] <= row["J"]
        assert old >= row["lower"]
        assert row["J"] <= old + _GAP_TOL * row["J"]
        if stage["stop"] == "gap":
            assert row["gap"] <= _GAP_TOL


def _assert_brackets_meet(res, old_rows):
    """Each mesh's bracket [lower, J] meets the old solver's: both bound the same minimum."""
    for row, (old_J, old_lower) in zip(res["table"], old_rows, strict=True):
        assert old_J >= row["lower"] and old_lower <= row["J"]


class TestHigherDim:
    def test_zero_data_minimum_is_arc_length(self):
        res = higher_dim_J(0.5, lambda p: np.zeros(p.shape[0]), level=2, refinements=1)
        for row, stage in zip(res["table"], res["stages"], strict=True):
            # u = 0 is optimal and certified by y = 0 at the first solve
            assert row["J"] == pytest.approx(res["gamma1_length"], rel=1e-14)
            assert row["lower"] == row["J"] and row["gap"] == 0.0
            assert stage["nit"] == 1 and stage["stop"] == "gap"

    def test_large_eps_coarse_bounds(self):
        ubar = lambda p: 0.5 * np.ones(p.shape[0])
        res = higher_dim_J(5.0, ubar, level=2, refinements=1)
        L = res["gamma1_length"]
        assert res["inf_est"] >= L - 1e-9  # integrand is at least 1 on the arc
        assert res["inf_est"] <= L * np.sqrt(1.25) + 1e-9  # competitor u = 0

    @staticmethod
    def _assert_monotone_bracketed(res):
        vals = [row["J"] for row in res["table"]]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        assert all(row["lower"] <= row["J"] for row in res["table"])
        assert [st["lower"] for st in res["stages"]] == [row["lower"] for row in res["table"]]
        assert res["inf_est"] == vals[-1]

    def test_refinement_monotone(self):
        # u = 0.3 is optimal on every mesh, and each finer mesh sums the same energy in another order
        res = higher_dim_J(0.5, lambda p: 0.3 * np.ones(p.shape[0]), level=2, refinements=2)
        self._assert_monotone_bracketed(res)

    def test_refinement_monotone_when_zero_is_optimal(self):
        # u = 0 is optimal: the solver's J and lower agree on every mesh up to rounding
        res = higher_dim_J(0.5, lambda p: np.zeros(p.shape[0]), level=1, refinements=2)
        self._assert_monotone_bracketed(res)

    def test_pinned_table_and_stages(self, refine_calls):
        res = higher_dim_J(0.35, _SIN, level=1, refinements=2)
        _assert_pinned(res, [(25, 1.692333435614507, 1.6923333305486297, 2, 0.002),
                             (81, 1.691043901083999, 1.6910433107969323, 17, 3.2e-06),
                             (289, 1.6877173396494465, 1.687716628141918, 12, 3.2e-06)])
        _assert_brackets_hold(res, _LBFGSB_SIN)
        _assert_brackets_meet(res, _IRLS_SIN)
        assert res["gamma1_length"] == 1.5597406542173138  # as before the arc selection was vectorized
        assert len(refine_calls) == 2  # no refinement after the last level

    @pytest.mark.parametrize("refinements", [0, 1])
    def test_refines_once_per_extra_level(self, refine_calls, refinements):
        res = higher_dim_J(0.5, lambda p: np.zeros(p.shape[0]), level=1, refinements=refinements)
        assert len(refine_calls) == refinements
        assert len(res["table"]) == refinements + 1

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps"):
            higher_dim_J(eps, lambda p: np.zeros(p.shape[0]), level=1, refinements=0)

    @pytest.mark.parametrize("refinements", [-1, 1.5, "2", True])
    def test_invalid_refinements_rejected(self, refinements):
        with pytest.raises(ValueError, match="refinements"):
            higher_dim_J(0.5, lambda p: np.zeros(p.shape[0]), level=1, refinements=refinements)

    @pytest.mark.parametrize("level", [1.0, True, "2", 0])
    def test_invalid_level_rejected(self, level):
        with pytest.raises(ValueError, match="level"):
            higher_dim_J(0.5, lambda p: np.zeros(p.shape[0]), level=level, refinements=0)

    @pytest.mark.parametrize("ubar", [lambda p: np.full(p.shape[0], np.inf), lambda p: np.full(p.shape[0], np.nan),
                                      lambda p: np.where(p[:, 1] > 0, np.inf, 0.0), lambda p: 0.3,
                                      lambda p: np.zeros((p.shape[0], 1))])
    def test_bad_ubar_rejected(self, ubar):
        with pytest.raises(ValueError, match="ubar"):
            higher_dim_J(0.5, ubar, level=1, refinements=1)

    @pytest.mark.parametrize("ubar", [1e200, -1e200])
    def test_huge_data_stays_finite(self, ubar):
        # with eps = 5 the weight outweighs the arc term's slope, so u = 0 is optimal; f(d) = hypot(1, d)
        res = higher_dim_J(5.0, lambda p: np.full(p.shape[0], ubar), level=1, refinements=1)
        for row, stage in zip(res["table"], res["stages"], strict=True):
            assert row["J"] == pytest.approx(abs(ubar) * res["gamma1_length"], rel=1e-12)
            assert stage["stop"] == "gap" and row["gap"] <= _GAP_TOL

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_energy_never_stops_on_gap(self):
        # finite data whose arc term sums past the largest double: inf - lower <= inf must not count
        res = higher_dim_J(5.0, lambda p: np.full(p.shape[0], 1.5e308), level=1, refinements=0)
        assert res["table"][0]["J"] == np.inf and res["stages"][0]["stop"] == "maxiter"

    def test_pinned_cos2_table_and_stages(self):
        res = higher_dim_J(0.25, _COS2, level=2, refinements=1)
        _assert_pinned(res, [(81, 1.7902826060062655, 1.790281534884195, 17, 3.2e-06),
                             (289, 1.7731203559869713, 1.7731190048689252, 11, 3.2e-06)])
        _assert_brackets_hold(res, _LBFGSB_COS2)
        _assert_brackets_meet(res, _IRLS_COS2)
        assert res["gamma1_length"] == 1.5679786039752392

    def test_benchmark_configs_certified_within_solve_budget(self):
        # the two disk-2d configurations without jitter: each refined mesh starts from the prolonged u
        # and a zero dual, and each triangle's dual takes its own step, so a dual next to the unit
        # sphere holds back only its own triangle; the finest mesh (nv = 4225) is the costly one
        nits = []
        for eps, ubar, level in ((0.35, _SIN, 2), (0.25, _COS2, 3)):
            res = higher_dim_J(eps, ubar, level=level, refinements=2)
            assert [stage["stop"] for stage in res["stages"]] == ["gap"] * 3
            nits += [stage["nit"] for stage in res["stages"]]
        assert res["stages"][-1]["nv"] == 4225 and res["stages"][-1]["nit"] <= 10, nits
        assert sum(nits) <= 90, nits

    def test_meets_cutting_plane_lp_bracket(self):
        # an independent cutting-plane LP on the same mesh put its minimum in [1.697682, 1.697683]
        row = higher_dim_J(0.35, _SIN, level=2, refinements=1)["table"][1]
        assert row["nv"] == 289 and row["gap"] <= _GAP_TOL
        assert row["lower"] <= 1.697683 and row["J"] >= 1.697682

    def test_cold_and_warm_start_agree(self):
        res = higher_dim_J(0.35, _SIN, level=2, refinements=1)  # nv = 289 starts from the nv = 81 solve
        mesh = disk_mesh(2).refine()
        J, _, (stage,) = _minimize_disk(mesh, 0.35, _SIN, _own_segments(mesh))
        warm, warm_stage = res["table"][1], res["stages"][1]
        assert warm_stage["stop"] == stage["stop"] == "gap"
        assert warm["gap"] <= _GAP_TOL and J - stage["lower"] <= _GAP_TOL * J
        assert max(warm["lower"], stage["lower"]) <= min(warm["J"], J)

    @pytest.mark.parametrize("eps, ubar, level", [(0.35, _SIN, 1), (0.25, _COS2, 1), (0.5, lambda p: 0.3 + 0 * p[:, 0], 2)])
    def test_stages_carry_final_delta(self, eps, ubar, level):
        res = higher_dim_J(eps, ubar, level=level, refinements=1)
        for stage in res["stages"]:
            assert set(stage) == {"nv", "nit", "stop", "lower", "delta"}
            assert 0 < stage["delta"] <= 1e-2


def _own_segments(mesh):
    """The mesh's own Gamma_1 edges as segments (ne, 2, 2): the weight of a solve on this mesh alone."""
    return mesh.vertices[mesh.boundary_edges()[_arc_edges(mesh, _GAMMA1)]]


def _disk_J(mesh, eps, ubar, u):
    """The discrete disk energy, written out apart from the solver: distances to the
    Gamma_1 segments by broadcasting over all of them, the arc terms edge by edge."""
    edges = mesh.boundary_edges()[_arc_edges(mesh, _GAMMA1)]
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    d = b - a

    def dist2(p):
        rel = p[:, None, :] - a
        t = np.clip(np.sum(rel * d, axis=2) / np.sum(d * d, axis=1), 0.0, 1.0)
        return np.min(np.sum((rel - t[:, :, None] * d) ** 2, axis=2), axis=1)

    w = mesh.cell_integrals(lambda p: dist2(p) + eps)
    tv = w @ np.linalg.norm(mesh.gradients_of(u)[:, 0], axis=1)
    arc = 0.0
    for x, wq in zip(_GL_X, _GL_W):
        resid = (1 - x) * u[edges[:, 0]] + x * u[edges[:, 1]] - ubar((1 - x) * a + x * b)
        arc += wq * np.linalg.norm(d, axis=1) @ np.sqrt(1 + resid**2)
    return tv + arc


class TestDiskCertificate:
    """The solver's "lower" is a weak-duality bound: no admissible field has a smaller J."""

    CASES = [(0.35, _SIN), (0.25, _COS2), (0.5, lambda p: np.full(p.shape[0], 0.3)),
             (0.5, lambda p: np.zeros(p.shape[0]))]

    @pytest.mark.parametrize("eps, ubar", CASES)
    @pytest.mark.parametrize("refined", [False, True])  # nv = 25, 81
    def test_random_fields_never_below_lower(self, eps, ubar, refined):
        mesh = disk_mesh(1).refine() if refined else disk_mesh(1)
        J, field, (stage,) = _minimize_disk(mesh, eps, ubar, _own_segments(mesh))
        lower = stage["lower"]
        assert stage["stop"] == "gap" and lower <= J <= lower + _GAP_TOL * J
        assert _disk_J(mesh, eps, ubar, field.values) == pytest.approx(J, rel=1e-12)
        bn = mesh.boundary_nodes
        on_gamma0 = bn[_angle_in(np.arctan2(mesh.vertices[bn, 1], mesh.vertices[bn, 0]), _GAMMA0)]
        rng = np.random.default_rng(7)
        for k in range(50):
            # at scales 1e-4 .. 1: every other field is a perturbed minimizer, the rest pure noise
            scale = 10.0 ** rng.uniform(-4, 0)
            v = rng.standard_normal(mesh.vertices.shape[0]) * scale
            if k % 2 == 0:
                v += field.values
            v[on_gamma0] = 0.0
            assert _disk_J(mesh, eps, ubar, v) >= lower

    def test_blocked_distances_match_segment_loop(self):
        rng = np.random.default_rng(3)
        mesh = disk_mesh(3)
        seg = _own_segments(mesh)
        p = rng.uniform(-1.2, 1.2, (2548, 2))
        p[:3] = seg[[0, 5, -1], 1]  # on Gamma_1
        # every point against every segment at once, with the same arithmetic per element
        (ax, ay), (bx, by) = seg.transpose(1, 2, 0)
        dx, dy = bx - ax, by - ay
        rx, ry = p[:, :1] - ax, p[:, 1:] - ay
        t = np.clip((rx * dx + ry * dy) / (dx * dx + dy * dy), 0.0, 1.0)
        ex, ey = rx - t * dx, ry - t * dy
        assert np.array_equal(_dist2_to_segments(p, seg), np.min(ex * ex + ey * ey, axis=1))


def _spd_fill(rows, cols, n, rng):
    """Random values on a symmetric pattern, strictly diagonally dominant with a positive diagonal: SPD."""
    A = np.zeros((n, n))
    A[rows, cols] = rng.uniform(-1.0, 1.0, rows.size)
    A = A + A.T
    A[np.arange(n), np.arange(n)] = np.abs(A).sum(axis=1) + rng.uniform(0.01, 1.0, n)
    return A


def _assert_solves(blocks, rows, cols, A, rng):
    b = rng.standard_normal(A.shape[0])
    ref = np.linalg.solve(A, b)
    got = blocks.solve(A[rows, cols], b)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def _disk_pattern(level, refinements, gamma0):
    """(rows, cols, n): the pattern that _minimize_disk hands to _LevelBlocks on a refined disk mesh."""
    mesh = disk_mesh(level)
    for _ in range(refinements):
        mesh = mesh.refine()
    built = []

    class Recorded(_LevelBlocks):
        def __init__(self, rows, cols, n):
            super().__init__(rows, cols, n)
            built.append((rows, cols, n))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relax, "_LevelBlocks", Recorded)
        mp.setattr(relax, "_GAMMA0", gamma0)
        # zero data: u = 0 is certified at the first solve, so this only builds the pattern
        _minimize_disk(mesh, 0.5, lambda p: np.zeros(p.shape[0]), _own_segments(mesh))
    (pattern,) = built
    return pattern


def _bfs_levels_by_scan(rows, cols, n, start):
    """The sweep that _LevelBlocks ran before its CSR frontier: every level scans every pattern entry."""
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    front, levels = np.array([start]), []
    while front.size:
        levels.append(front)
        inside = np.zeros(n, dtype=bool)
        inside[front] = True
        reached = np.zeros(n, dtype=bool)
        reached[cols[inside[rows]]] = True
        reached &= ~seen
        seen |= reached
        front = np.flatnonzero(reached)
    return levels


_DIRICHLET_ARCS = [_GAMMA0, (np.pi / 2, np.pi)]  # the solver's arc and one that the tests patch in
_cached_disk_pattern = functools.lru_cache(maxsize=None)(_disk_pattern)


def _level_blocks_pattern(name):
    """(rows, cols, n) of each kind of pattern TestLevelBlocks solves on."""
    if name == "graph":  # test_components_and_isolated_node's pattern, not sorted by row
        edges = np.array([(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)])
        return (np.concatenate([edges[:, 0], edges[:, 1], np.arange(7)]),
                np.concatenate([edges[:, 1], edges[:, 0], np.arange(7)]), 7)
    kind, level, refinements, arc = name.split("-")
    rows, cols, n = _cached_disk_pattern(int(level), int(refinements), _DIRICHLET_ARCS[int(arc)])
    if kind == "disk":
        return rows, cols, n
    # "twice": test_blocks_merge_consecutive_levels_of_one_component's two disk copies and an isolated node
    return np.concatenate([rows, rows + n, [2 * n]]), np.concatenate([cols, cols + n, [2 * n]]), 2 * n + 1


_PATTERN_NAMES = (["graph"] + [f"disk-{lv}-{rf}-{a}" for lv in (1, 2, 3) for rf in (0, 1, 2) for a in (0, 1)]
                  + [f"twice-{lv}-{rf}-0" for lv, rf in ((1, 0), (2, 0), (2, 1), (3, 1))])


class TestLevelBlocks:
    """The disk solver's block-tridiagonal SPD solve on BFS level sets."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2), st.sampled_from(_DIRICHLET_ARCS),
           st.integers(0, 2**32 - 1))
    def test_disk_patterns_match_dense_solve(self, level, refinements, gamma0, seed):
        rows, cols, n = _disk_pattern(level, refinements, gamma0)
        blocks = _LevelBlocks(rows, cols, n)
        assert np.array_equal(np.sort(blocks.order), np.arange(n))
        assert np.all(np.abs(blocks.level[rows] - blocks.level[cols]) <= 1)
        rng = np.random.default_rng(seed)
        _assert_solves(blocks, rows, cols, _spd_fill(rows, cols, n, rng), rng)

    @pytest.mark.parametrize("level, refinements", [(1, 0), (2, 0), (2, 1), (3, 1)])
    def test_blocks_merge_consecutive_levels_of_one_component(self, level, refinements):
        rows, cols, n = _disk_pattern(level, refinements, _GAMMA0)
        # the disk pattern twice, as two components, and an isolated node
        rows, cols = np.concatenate([rows, rows + n, [2 * n]]), np.concatenate([cols, cols + n, [2 * n]])
        blocks = _LevelBlocks(rows, cols, 2 * n + 1)
        level_block = np.array([blocks.block[nodes[0]] for nodes in blocks.levels])
        assert all(np.all(blocks.block[nodes] == b) for nodes, b in zip(blocks.levels, level_block))
        assert level_block[0] == 0 and set(np.diff(level_block)) <= {0, 1}  # each block is a run of consecutive levels
        # consecutive levels lie in one component exactly when an entry couples them
        lr, lc = blocks.level[rows], blocks.level[cols]
        linked = np.zeros(len(blocks.levels), dtype=bool)
        linked[lr[lc == lr + 1]] = True
        assert not np.any((np.diff(level_block) == 0) & ~linked[:-1])  # no block spans two components
        ends = level_block[~linked]  # each component's last block
        assert ends.size == 3
        sizes = np.bincount(blocks.block)
        assert np.all((sizes >= _MIN_BLOCK) | np.isin(np.arange(sizes.size), ends)), sizes
        assert np.all(np.abs(blocks.block[rows] - blocks.block[cols]) <= 1)
        rng = np.random.default_rng(level)
        _assert_solves(blocks, rows, cols, _spd_fill(rows, cols, 2 * n + 1, rng), rng)

    def test_successive_solves_share_nothing(self):
        # the buffer is built once; the second fill must not see the first fill's Schur complements
        rows, cols, n = _disk_pattern(2, 1, _GAMMA0)
        blocks = _LevelBlocks(rows, cols, n)
        assert len(blocks.blocks) > 2
        rng = np.random.default_rng(11)
        for _ in range(2):
            _assert_solves(blocks, rows, cols, _spd_fill(rows, cols, n, rng), rng)

    def test_components_and_isolated_node(self):
        # a path 0 - 3 - 5, a triangle 1, 2, 6 and the isolated node 4, each node with its diagonal entry
        edges = np.array([(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)])
        rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(7)])
        cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(7)])
        blocks = _LevelBlocks(rows, cols, 7)
        # the path is swept from its end 5, the triangle from 2, the isolated node alone
        assert [nodes.tolist() for nodes in blocks.levels] == [[5], [3], [0], [2], [1, 6], [4]]
        rng = np.random.default_rng(5)
        for _ in range(5):
            _assert_solves(blocks, rows, cols, _spd_fill(rows, cols, 7, rng), rng)

    @pytest.mark.parametrize("level, refinements", [(1, 0), (2, 1), (3, 2)])
    def test_disk_edges_lie_in_at_most_two_triangles(self, level, refinements):
        # _minimize_disk adds an off-diagonal entry's i > j triangle terms after its i <= j ones: with at most
        # two triangle terms per entry, the sums are those of one pass over the triangles in order
        mesh = disk_mesh(level)
        for _ in range(refinements):
            mesh = mesh.refine()
        t = mesh.triangles
        _, counts = np.unique(np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [0, 2]]]), axis=1),
                              axis=0, return_counts=True)
        assert counts.max() == 2

    @pytest.mark.parametrize("name", _PATTERN_NAMES)
    def test_csr_sweeps_give_the_levels_of_a_full_scan(self, name):
        rows, cols, n = _level_blocks_pattern(name)
        by_row = np.argsort(rows, kind="stable")
        ptr, adj = np.searchsorted(rows[by_row], np.arange(n + 1)), cols[by_row]
        far = _bfs_levels_by_scan(rows, cols, n, 0)[-1][0]
        for start in sorted({0, n // 2, n - 1, int(far)}):
            got, ref = _bfs_levels(ptr, adj, start), _bfs_levels_by_scan(rows, cols, n, start)
            assert [x.tolist() for x in got] == [x.tolist() for x in ref], start

    def test_memory_on_the_finest_disk_2d_pattern(self):
        # level 3 with two refinements: 4,160 free nodes; no dense matrix, the values are diagonally dominant
        rows, cols, n = _cached_disk_pattern(3, 2, _DIRICHLET_ARCS[0])
        assert n == 4160
        values = np.where(rows == cols, np.bincount(rows, minlength=n)[rows] + 1.0,
                          np.cos(1.3 * np.minimum(rows, cols) + 0.7 * np.maximum(rows, cols)))
        b = np.random.default_rng(2).standard_normal(n)
        values0, b0 = values.copy(), b.copy()
        MiB = 2.0**20
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocks = _LevelBlocks(rows, cols, n)
            built = tracemalloc.get_traced_memory()[0] - before
            x = blocks.solve(values, b)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            y = blocks.solve(values, b)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert built < 2.5 * MiB, f"building leaves {built / MiB:.2f} MiB"  # one arena of W blocks, one scratch
        assert extra < 0.25 * MiB, f"a second solve raises the peak by {extra / MiB:.3f} MiB"  # no block per step
        assert np.array_equal(values, values0) and np.array_equal(b, b0)
        assert np.array_equal(x, y)
        residual = np.bincount(rows, weights=values * x[cols], minlength=n) - b
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(b)
