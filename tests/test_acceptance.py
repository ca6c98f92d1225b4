"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from bvgym.boundary import qslb_infimum, rotation_equivariance_check
from bvgym.gym import (
    check_characterization,
    combine_orthogonal,
    default_dictionary,
    from_diperna_majda,
    generate_from_fields,
    gym_traces,
    pairing,
    split,
    to_diperna_majda,
)
from bvgym.integrands import (
    HomogeneousIntegrand,
    convex_envelope_1d,
    hom_abs,
    hom_linear,
    hom_piecewise_1d,
    make_integrand,
)
from bvgym.measures import BVField
from bvgym.meshes import interval_mesh
from bvgym.relax import (
    _discrete_energy,
    eval_Fbar,
    relax_minimize,
    toy_field,
    toy_infimum,
    toy_limit_pair,
    toy_report,
    toy_spec,
)
from bvgym.soucek import soucek_pair

from conftest import ONE, X, XSQ, oscillation_field, random_gym, resample, union_mesh
from reference_checks import toy_sequence_value


def report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_toy_infimum():
    worst = 0.0
    for eps in (0.1, 0.3, 0.5):
        t0 = time.time()
        res = relax_minimize(toy_spec(eps), levels=(4, 6, 8))
        elapsed = time.time() - t0
        gap = abs(res.inf_direct - toy_infimum(eps))
        worst = max(worst, gap)
        assert elapsed < 10.0, f"toy eps={eps} took {elapsed:.1f}s"
        assert gap <= 5e-3
    report(1, True, f"toy infimum reproduced for eps in (0.1, 0.3, 0.5); worst gap {worst:.2e}")


def test_criterion_2_explicit_sequence_values():
    worst = 0.0
    for eps in (0.1, 0.5):
        for n in (10, 100, 1000):
            got = _discrete_energy(toy_spec(eps), toy_field(n, eps))
            worst = max(worst, abs(got - toy_sequence_value(eps, n)))
    report(2, worst <= 1e-9, f"I(u_n) matches the closed form; worst gap {worst:.2e}")


def test_criterion_3_non_lower_semicontinuity():
    # I1, the functional that also prices jumps, is F-bar of the pair with no boundary atom
    eps = 0.5
    spec = toy_spec(eps)
    limit_est = eval_Fbar(soucek_pair(toy_field(10**4, eps)), spec)
    u_weak = toy_limit_pair(eps).u
    at_limit = eval_Fbar(soucek_pair(u_weak), spec)
    gap = at_limit - limit_est
    ok = abs(gap - 0.25) <= 1e-6 and limit_est < at_limit
    rep = toy_report(eps)
    ok = ok and (not rep["quoted_limit_matches"]) and rep["quoted_limit_discrepancy"] > 0.06
    report(
        3,
        ok,
        f"lsc fails with gap {gap:.8f} (target 0.25); quoted limit {rep['quoted_limit']}"
        f" reported as discrepant by {rep['quoted_limit_discrepancy']:.4f}, not asserted",
    )


def test_criterion_4_relaxation_agreement():
    res = relax_minimize(toy_spec(0.5), levels=(4, 6, 8))
    vals = (res.inf_direct, res.min_extended, res.min_gym)
    spread = max(vals) - min(vals)
    attained_gap = abs(res.gym_attained - res.min_gym)
    ok = spread <= 1e-2 and attained_gap <= 1e-2
    report(
        4,
        ok,
        f"direct/extended/measure minima agree (spread {spread:.2e}); generated measure "
        f"attains the minimum within {attained_gap:.2e}",
    )


def test_criterion_5_1d_qslb_equals_sign_test():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(50):
        cp, cm = (float(s * (0.01 + 0.99 * u)) for s, u in zip(rng.choice([-1.0, 1.0], 2), rng.random(2)))
        verdict = qslb_infimum(hom_piecewise_1d(cp, cm), 1.0)["verdict"]
        sign_ok = min(cp, cm) >= 0
        if verdict == "inconclusive" or (verdict == "qslb") != sign_ok:
            mismatches += 1
    report(5, mismatches == 0, f"50 random piecewise 1-homogeneous integrands, {mismatches} mismatches")


def test_criterion_6_2d_boundary_tests():
    rho = np.array([1.0, 0.0])
    r_abs = qslb_infimum(hom_abs((1, 2)), rho)
    t0 = time.time()
    r_lin = qslb_infimum(hom_linear(-rho, dims=(1, 2)), rho**4)
    elapsed = time.time() - t0
    ok = (
        r_abs["verdict"] == "qslb"
        and r_lin["verdict"] == "not_qslb"
        and r_lin["inf_est"] <= -0.1
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"norm integrand qslb; normal linear form not_qslb with inf {r_lin['inf_est']:.3f} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_rotation_equivariance():
    # M = 1 is decided by the moment-duality bracket.  For M = 2, |A| - 3 |det A| / |A|
    # plus a linear part has lower < 0 < the boundary layers' upper at every normal, so
    # the rank-one laminate search decides it
    rng = np.random.default_rng(7)
    worst = {}
    for B in (np.array([[0.7, -0.4]]), 0.3 * np.array([[0.7, -0.4], [0.2, 0.5]])):
        habs = hom_abs(B.shape)
        hlin = hom_linear(B, B.shape)
        if B.shape[0] == 1:
            def sphere(S, habs=habs, hlin=hlin):
                return 2.0 * np.asarray(habs.on_sphere(S)) + np.asarray(hlin.on_sphere(S))
        else:
            def sphere(S, hlin=hlin):
                det = np.abs(S[..., 0, 0] * S[..., 1, 1] - S[..., 0, 1] * S[..., 1, 0])
                return 1.0 - 3.0 * det + np.asarray(hlin.on_sphere(S))
        v = HomogeneousIntegrand(B.shape, sphere, name="anisotropic")
        worst[B.shape[0]] = 0.0
        for _ in range(5):
            a1, da = rng.uniform(0, 2 * np.pi, 2)
            rho1 = np.array([np.cos(a1), np.sin(a1)])
            rho2 = np.array([np.cos(a1 + da), np.sin(a1 + da)])
            res = rotation_equivariance_check(v, rho1, rho2)
            worst[B.shape[0]] = max(worst[B.shape[0]], res["gap"])
    report(7, max(worst.values()) <= 1e-9,
           f"5 random rotations each, worst infimum gap {worst[1]:.2e} (M = 1), {worst[2]:.2e} (M = 2, laminate)")


def test_criterion_8_pairing_identities():
    rng = np.random.default_rng(8)
    vs = [make_integrand(n) for n in ("abs", "euclid_sqrt1p", "id", "one")]
    worst_split = 0.0
    for _ in range(20):
        gm = random_gym(rng)
        inner, boundary = split(gm)
        for g in (ONE, X, XSQ):
            for v in vs:
                lhs = pairing(gm, g, v)
                v0 = float(np.sum(gm.mesh.cell_integrals(g))) * float(v(0.0))
                rhs = pairing(inner, g, v) + pairing(boundary, g, v) - v0
                worst_split = max(worst_split, abs(lhs - rhs))
    assert worst_split <= 1e-12

    eps = 0.5
    fields_b = [BVField(u.mesh, u.values - eps / 2) for u in (toy_field(n, eps) for n in (100, 400, 1600))]
    fields_i = [oscillation_field(k, support=(0.25, 0.75)) for k in (8, 16, 32)]
    grid = np.linspace(-4, 4, 129).reshape(-1, 1, 1)
    kw = dict(window_h=1 / 16, matrix_grid=grid, tol=5e-2)
    psi, _ = generate_from_fields(fields_b, **kw)
    theta, _ = generate_from_fields(fields_i, **kw)
    comb = combine_orthogonal(psi, theta, lambda x: x >= 7 / 8, lambda x: x < 7 / 8)
    summed = []
    for a, b in zip(fields_b, fields_i):
        mesh = union_mesh(a.mesh, b.mesh)
        summed.append(resample(a, mesh) + resample(b, mesh))
    gen, _ = generate_from_fields(summed, **kw)
    worst_add = max(
        abs(pairing(gen, g, v) - pairing(comb, g, v)) for _, g, v in default_dictionary((1, 1))
    )
    ok = worst_add <= 1e-3
    report(
        8,
        ok,
        f"split identity exact to {worst_split:.1e} on 20 random measures; orthogonal "
        f"additivity within {worst_add:.1e} on the 12-pair dictionary",
    )


def test_criterion_9_diperna_majda_round_trip():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(10):
        gm = random_gym(rng)
        dm = to_diperna_majda(gm)
        back = from_diperna_majda(dm)
        for _, g, v in default_dictionary((1, 1)):
            p0 = pairing(gm, g, v)
            worst = max(worst, abs(p0 - dm.pairing(g, v)), abs(p0 - pairing(back, g, v)))
    assert worst <= 1e-10

    mass = 0.6
    fields = []
    for k in (8, 32, 128):
        mesh = interval_mesh(0, 1, 16, extra_nodes=(1.0 / k,))
        fields.append(BVField.from_nodal(mesh, mass * np.maximum(0.0, 1.0 - k * mesh.nodes)))
    gm, _ = generate_from_fields(fields, window_h=1 / 16, tol=5e-2)
    dm = to_diperna_majda(gm)
    dens_gap = float(np.max(np.abs(dm.sigma_density - 1.0)))
    ((p, m),) = dm.sigma_atoms
    atom_gap = abs(m - mass)
    ok = dens_gap <= 1e-2 and atom_gap <= 1e-2 and p == 0.0
    report(
        9,
        ok,
        f"round-trip pairings within {worst:.1e}; concentration gives sigma = Lebesgue "
        f"(density gap {dens_gap:.1e}) + mass delta_0 (gap {atom_gap:.1e})",
    )


def test_criterion_10_soucek_traces():
    from bvgym.soucek import outer_trace

    eps = 0.5
    worst_resid = 0.0
    mesh = interval_mesh(0, 1, 16)
    pairs = [
        soucek_pair(BVField.constant(mesh, eps / 2), {1.0: 1 - eps}),
        soucek_pair(BVField.constant(mesh, 0.0), {1.0: 0.7}),
        soucek_pair(BVField.affine(mesh, 1.2, -0.5)),
        soucek_pair(BVField.step(mesh, 0.5, 0.0, 1.0), {0.0: -0.2, 1.0: 0.4}),
        soucek_pair(toy_field(100, eps)),
    ]
    for p in pairs:
        worst_resid = max(worst_resid, outer_trace(p).green_residual)
    assert worst_resid <= 1e-9

    fields = [toy_field(n, eps) for n in (100, 300, 1000)]
    gm, _ = generate_from_fields(fields)
    tr = gym_traces(gm)
    outer_gap = max(
        abs(float(tr["outer"][0.0][0]) - eps / 2), abs(float(tr["outer"][1.0][0]) - (1 - eps / 2))
    )
    lo, hi = toy_limit_pair(eps).u.trace()
    inner_exact = float(lo[0]) == eps / 2 and float(hi[0]) == eps / 2
    ok = outer_gap <= 1e-2 and inner_exact
    report(
        10,
        ok,
        f"Green residual <= {worst_resid:.1e} on constructed pairs; generated outer trace "
        f"within {outer_gap:.1e} of (eps/2, 1-eps/2); inner trace exact at the limit field",
    )


def test_criterion_11_characterization():
    eps = 0.5
    worst_margin = np.inf
    for fields in (
        [toy_field(n, eps) for n in (100, 300, 1000)],
        [oscillation_field(k) for k in (16, 32, 64)],
    ):
        gm, _ = generate_from_fields(fields, window_h=1 / 16)
        rep = check_characterization(gm, gm.underlying)
        assert rep["all_pass"]
        worst_margin = min(
            worst_margin, rep["ii"]["worst"], rep["iii"]["worst"], rep["iv"]["worst"]
        )
    assert worst_margin >= -1e-6

    from bvgym.gym import GenYoungMeasure
    from bvgym.measures import DiskField
    from bvgym.meshes import disk_mesh

    mesh = disk_mesh(2)
    x0 = mesh.vertices[mesh.boundary_nodes[0]].copy()
    rho = x0 / np.linalg.norm(x0)
    tau = np.array([-rho[1], rho[0]])
    gm_bad = GenYoungMeasure(
        mesh,
        np.array([np.zeros((1, 2))]),
        np.ones((mesh.ncells, 1)),
        np.zeros(mesh.ncells),
        ((x0, 0.5),),
        np.array([tau.reshape(1, 2)]),
        np.ones((mesh.ncells, 1)),
        np.array([[1.0]]),
    )
    rep_bad = check_characterization(gm_bad, DiskField(mesh, np.zeros(mesh.vertices.shape[0])))
    flagged = not rep_bad["iv"]["pass"] and rep_bad["iv"]["violations"]
    report(
        11,
        bool(flagged) and worst_margin >= -1e-6,
        f"generated measures pass (i)-(iv) with margins >= {worst_margin:.1e}; tangential "
        f"boundary direction flagged against a quasi-sublinear witness",
    )


def test_criterion_12_envelope():
    grid = np.linspace(-3.0, 3.0, 1201)  # step 0.005 puts the wells on the grid
    env = convex_envelope_1d(make_integrand("double_well_1d"), grid)
    expected = np.maximum(0.0, np.abs(grid) - 1.0)
    worst = float(np.max(np.abs(np.asarray(env(grid.reshape(-1, 1, 1))) - expected)))
    report(12, worst <= 1e-9, f"double-well envelope equals max(0,|t|-1); worst gap {worst:.1e}")
