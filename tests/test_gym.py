import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgym.gym import (
    DiPernaMajdaMeasure,
    GenerationError,
    GenYoungMeasure,
    OrthogonalityError,
    atom_moment,
    boundary_rank_one_report,
    check_characterization,
    combine_orthogonal,
    default_dictionary,
    default_matrix_grid,
    default_qslb_family,
    dirac_gym,
    first_moment,
    from_diperna_majda,
    generate,
    generate_from_fields,
    gym_traces,
    pairing,
    reconstruct_underlying,
    split,
    to_diperna_majda,
    young_action,
)
from bvgym.gym import _eval_at_point, _grid_index, _zero_index
from bvgym.integrands import hom_linear, make_integrand, mat_norm, pair_action
from bvgym.measures import Atom, BVField, DiscreteMeasure, DiskField, _same_mesh, weakstar_gap
from bvgym.meshes import IntervalMesh, disk_mesh, interval_mesh
from bvgym.relax import toy_field, toy_limit_gym

from conftest import ONE, X, XSQ, oscillation_field, random_gym, resample, union_mesh

EPS = 0.5
ABS = make_integrand("abs")


def toy_weight_fn(x):
    return (np.asarray(x, dtype=float) - 1.0) ** 2 + EPS


def _valid_gym():
    """A valid measure on four cells: nu = (delta_0 + delta_1) / 2, one lam-atom at 1."""
    mesh = interval_mesh(0, 1, 4)
    return GenYoungMeasure(mesh, np.array([[[0.0]], [[1.0]]]), np.full((4, 2), 0.5), np.zeros(4), ((1.0, 0.5),),
                           np.array([[[1.0]], [[-1.0]]]), np.full((4, 2), 0.5), np.array([[1.0, 0.0]]))


class TestGenYoungMeasureValidation:
    @pytest.mark.parametrize("change, message", [
        (dict(nu=np.full((4, 3), 1 / 3)), r"nu must be \(ncells, len\(matrix_grid\)\)"),
        (dict(nu=np.tile([1.5, -0.5], (4, 1))), "nu rows must be probability vectors"),
        (dict(lam_density=np.array([0.0, -0.1, 0.0, 0.0])), "lam must be nonnegative"),
        (dict(lam_density=np.array([0.0, 0.1, 0.0, 0.0]), nu_inf_cells=np.full((4, 2), 0.25)),
         "nu_inf rows must sum to 1 where lam has density"),
        (dict(nu_inf_atoms=np.array([[0.3, 0.3]])), "nu_inf atom rows must be probability vectors"),
        (dict(lam_atoms=((1.0, -0.5),)), "lam must be nonnegative"),
        (dict(sphere_grid=np.array([[[1.0]], [[-2.0]]])), "sphere grid points must have unit norm"),
    ], ids=["nu-shape", "nu-rows", "lam-density", "nu_inf-cells", "nu_inf-atoms", "lam-atom", "sphere-grid"])
    def test_malformed_measure_refused(self, change, message):
        gm = _valid_gym()
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(gm, **change)


def _action_case():
    """Four cells of width 1/4, a lam density on cells 1 and 3, an interior lam-atom at
    1/2 and a boundary one at 1; scalar grids {0, 1, -2} and {1, -1}."""
    mesh = interval_mesh(0, 1, 4)
    nu = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]])
    nic = np.array([[0.5, 0.5], [0.75, 0.25], [0.5, 0.5], [0.0, 1.0]])
    return GenYoungMeasure(mesh, np.array([0.0, 1.0, -2.0]).reshape(3, 1, 1), nu, np.array([0.0, 2.0, 0.0, 0.5]),
                           ((0.5, 0.4), (1.0, 0.8)), np.array([[[1.0]], [[-1.0]]]), nic,
                           np.array([[1.0, 0.0], [0.25, 0.75]]))


def _pairing_by_parts(gm, g, v):
    """<<Lambda, g x v>> as the oscillation integral plus the concentration integral, atom by atom."""
    vvals, vinf = np.asarray(v(gm.matrix_grid)), np.asarray(v.recession.on_sphere(gm.sphere_grid))
    cell_g = gm.mesh.cell_integrals(g)
    total = float(cell_g @ (gm.nu @ vvals)) + float((cell_g * gm.lam_density) @ (gm.nu_inf_cells @ vinf))
    for i, (p, m) in enumerate(gm.lam_atoms):
        total += _eval_at_point(g, p) * m * float(gm.nu_inf_atoms[i] @ vinf)
    return total


class TestYoungAction:
    @pytest.mark.parametrize("name, cells, atoms", [
        # <nu_x, |.|> + lam_x: 0, 1/2 + 2, 3/2, 5/4 + 1/2; atoms m <nu_inf, 1> = m
        ("abs", [0.0, 2.5, 1.5, 1.75], [0.4, 0.8]),
        # <nu_x, id> + lam_x <nu_inf_x, id>: 0, 1/2 + 2 (1/2), -1/2, -3/4 + 1/2 (-1); atoms 0.4 (1), 0.8 (-1/2)
        ("id", [0.0, 1.5, -0.5, -1.25], [0.4, -0.4]),
    ])
    def test_worked_by_hand(self, name, cells, atoms):
        got_cells, got_atoms = young_action(_action_case(), make_integrand(name))
        assert np.array_equal(got_cells, cells) and np.array_equal(got_atoms, atoms)

    @pytest.mark.parametrize("name", ["abs", "id", "euclid_sqrt1p", "one"])
    @pytest.mark.parametrize("g", [ONE, X, XSQ, lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2 + EPS],
                             ids=["one", "x", "x^2", "toy-weight"])
    def test_pairing_equals_the_sum_by_parts(self, name, g):
        gm, v = _action_case(), make_integrand(name)
        assert abs(pairing(gm, g, v) - _pairing_by_parts(gm, g, v)) <= 1e-15


class TestPairing:
    def test_trivial_measure(self, unit_mesh):
        gm = dirac_gym(unit_mesh, 0.0)
        v = make_integrand("euclid_sqrt1p")
        assert pairing(gm, ONE, v) == pytest.approx(float(v(0.0)))  # |domain| = 1

    def test_point_concentration(self, unit_mesh):
        # (delta_0, mass * delta_{x0}, delta_dir): oscillation part vanishes for |.|
        mass = 0.8
        gm = GenYoungMeasure(
            unit_mesh,
            np.array([[[0.0]]]),
            np.ones((unit_mesh.ncells, 1)),
            np.zeros(unit_mesh.ncells),
            ((0.0, mass),),
            np.array([[[1.0]]]),
            np.ones((unit_mesh.ncells, 1)),
            np.array([[1.0]]),
        )
        g = lambda x: 2.0 + np.asarray(x, dtype=float)
        assert pairing(gm, g, ABS) == pytest.approx(mass * 2.0)

    def test_toy_limit_weighted(self):
        gm = toy_limit_gym(EPS)
        assert pairing(gm, toy_weight_fn, ABS) == pytest.approx(EPS * (1 - EPS), abs=1e-14)

    def test_missing_recession(self, unit_mesh):
        with pytest.raises(ValueError, match="recession required"):
            pairing(dirac_gym(unit_mesh, 0.0), ONE, make_integrand("sq"))

    def test_linearity_in_g_and_v(self):
        rng = np.random.default_rng(0)
        gm = random_gym(rng)
        v1, v2 = ABS, make_integrand("euclid_sqrt1p")
        lhs = pairing(gm, lambda x: 2.0 * XSQ(x) + X(x), v1)
        rhs = 2.0 * pairing(gm, XSQ, v1) + pairing(gm, X, v1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGenerate:
    def test_constant_sequence_exact(self):
        mesh = interval_mesh(0, 1, 8)
        seq = [BVField.affine(mesh, 2.0, 0.0).derivative()] * 3
        gm, report = generate(seq, matrix_grid=np.array([[[0.0]], [[2.0]]]), tol=1e-12)
        assert report["max_gap"] <= 1e-12
        assert np.allclose(gm.nu[:, 1], 1.0)
        assert gm.lam().total_variation() == 0.0

    def test_toy_sequence(self):
        fields = [toy_field(n, EPS) for n in (100, 300, 1000)]
        gm, report = generate_from_fields(fields, window_h=1 / 32)
        assert report["converged"]
        ((p, m),) = gm.lam_atoms
        assert p == 1.0 and m == pytest.approx(1 - EPS, abs=1e-9)
        assert atom_moment(gm, 0)[0, 0] == pytest.approx(1.0)  # direction +1
        zi = int(np.argmin(np.abs(gm.matrix_grid[:, 0, 0])))
        assert np.allclose(gm.nu[:, zi], 1.0)  # oscillation part is delta_0

    def test_oscillation_sequence(self):
        fields = [oscillation_field(k) for k in (16, 32, 64)]
        gm, report = generate_from_fields(fields, window_h=1 / 16)
        assert report["converged"]
        ip = int(np.argmin(np.abs(gm.matrix_grid[:, 0, 0] - 1.0)))
        im = int(np.argmin(np.abs(gm.matrix_grid[:, 0, 0] + 1.0)))
        assert np.allclose(gm.nu[:, ip], 0.5, atol=1e-12)
        assert np.allclose(gm.nu[:, im], 0.5, atol=1e-12)
        assert not gm.lam_atoms

    def test_atomless_record_round_trip(self):
        fields = [oscillation_field(k) for k in (16, 32, 64)]
        gm, _ = generate_from_fields(fields, window_h=1 / 16)
        assert not gm.lam_atoms
        back = GenYoungMeasure.from_record(json.loads(json.dumps(gm.to_record())))
        assert back.nu_inf_atoms.shape == (0, gm.sphere_grid.shape[0])
        assert back.to_record() == gm.to_record()
        dm = to_diperna_majda(back)
        dm_back = DiPernaMajdaMeasure.from_record(json.loads(json.dumps(dm.to_record())))
        assert dm_back.to_record() == dm.to_record()
        for _, g, v in default_dictionary(gm.dims):
            assert pairing(back, g, v) == pairing(gm, g, v)

    def test_nonconvergent_sequence_rejected(self):
        mesh = interval_mesh(0, 1, 8)
        seq = [
            BVField.affine(mesh, 2.0, 0.0).derivative(),
            BVField.affine(mesh, -2.0, 0.0).derivative(),
            BVField.affine(mesh, 2.0, 0.0).derivative(),
            BVField.affine(mesh, -2.0, 0.0).derivative(),
        ]
        with pytest.raises(GenerationError, match="does not generate"):
            generate(seq, matrix_grid=np.array([[[0.0]], [[-2.0]], [[2.0]]]), tol=1e-3)

    def test_nan_pairing_gap_is_not_converged(self):
        # a NaN gap must not pass as 0: max(0.0, nan) keeps 0.0
        mesh = interval_mesh(0, 1, 8)
        seq = [BVField.affine(mesh, 2.0, 0.0).derivative()] * 3
        nan_g = lambda x: np.full(np.shape(x), np.nan)
        dictionary = [("1*abs", ONE, ABS), ("nan*abs", nan_g, ABS)]
        with pytest.raises(GenerationError, match="gap nan"):
            generate(seq, matrix_grid=np.array([[[0.0]], [[2.0]]]), dictionary=dictionary, tol=1e-12)

    def test_first_moment_matches_weakstar_limit(self):
        # the center of mass of the constructed limit tracks Du_n weak*
        gm = toy_limit_gym(EPS)
        mom = first_moment(gm)
        seq = [toy_field(n, EPS).derivative() for n in (10, 100, 1000)]
        assert weakstar_gap(seq, mom, [ONE, X, XSQ]) <= 1e-2


def _bin_windows_loop(Y, wnodes, matrix_grid, sphere_grid, overflow_radius):
    """Per-cell loop over every window, the reference for `gym._bin_windows`."""
    nwin = wnodes.size - 1
    K, S = matrix_grid.shape[0], sphere_grid.shape[0]
    zero_idx = _zero_index(matrix_grid)
    nu, conc_mass, conc_pos, conc_dir = np.zeros((nwin, K)), np.zeros(nwin), np.zeros(nwin), np.zeros((nwin, S))
    src = Y.mesh
    norms = mat_norm(Y.density)
    for c in range(src.ncells):
        lo, hi = src.nodes[c], src.nodes[c + 1]
        for w in range(nwin):
            ell = min(hi, wnodes[w + 1]) - max(lo, wnodes[w])
            if ell <= 0:
                continue
            if norms[c] <= overflow_radius:
                nu[w, _grid_index(matrix_grid, Y.density[c])] += ell
            else:
                nu[w, zero_idx] += ell
                mass = ell * norms[c]
                conc_mass[w] += mass
                conc_pos[w] += mass * 0.5 * (max(lo, wnodes[w]) + min(hi, wnodes[w + 1]))
                conc_dir[w, _grid_index(sphere_grid, Y.density[c] / norms[c])] += mass
    return nu, conc_mass, conc_pos, conc_dir


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestGenerateBinning:
    """`generate` bins the last member with whole-array histograms; every
    generated measure must equal the one the per-cell loop built, bit for bit."""

    @staticmethod
    def _member(rng, a, b, nwin, dims, repeated, radius, natoms):
        wnodes = np.linspace(a, b, nwin + 1)
        edges = rng.choice(wnodes[1:-1], size=min(nwin - 1, rng.integers(0, 6)), replace=False)
        near = np.nextafter(edges, rng.choice([-np.inf, np.inf], size=edges.size))
        coarse = rng.uniform(a, b, rng.integers(0, 4))  # long cells spanning several windows
        graded = a + (b - a) * rng.uniform(0.2, 0.8) * np.linspace(0, 1, 12) ** 3  # graded toward a
        fine = rng.uniform(a, b, rng.integers(0, 30))
        nodes = np.unique(np.concatenate([[a, b], edges, near, coarse, graded, fine]))
        mesh = IntervalMesh(nodes)
        M = dims[0]
        if repeated:  # a few values: on the overflow radius, beyond it, halfway between grid points
            grid = default_matrix_grid(dims, radius=radius / 2)[:, :, 0]
            i = rng.integers(0, len(grid) - 1)
            pool = np.stack([np.zeros(M), np.full(M, radius / np.sqrt(M)), rng.normal(0, radius, M),
                             rng.normal(0, 0.3, M), 0.5 * (grid[i] + grid[i + 1])])
            dens = pool[rng.integers(0, len(pool), mesh.ncells)]
        else:
            dens = rng.normal(0, 0.6 * radius, (mesh.ncells, M))
        pts = rng.choice([a, b, rng.uniform(a, b), rng.uniform(a, b)], size=natoms)
        dirs = rng.normal(size=(natoms, M))
        atoms = [Atom(float(p), float(rng.uniform(0.1, 2)), (d / np.linalg.norm(d))[:, None])
                 for p, d in zip(pts, dirs)]
        return DiscreteMeasure(mesh, dens[:, :, None], tuple(atoms))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.sampled_from([1, 2]), nwin=st.integers(1, 40),
           repeated=st.booleans(), natoms=st.integers(0, 3),
           domain=st.sampled_from([(0.0, 1.0), (-0.306, 0.614), (1.0, 4.0)]))
    def test_matches_per_cell_loop(self, seed, M, nwin, repeated, natoms, domain):
        import bvgym.gym as gym

        a, b = domain
        radius = 2.0
        Y = self._member(np.random.default_rng(seed), a, b, nwin, (M, 1), repeated, radius, natoms)
        kw = dict(window_h=(b - a) / nwin, dictionary=[])
        with mock.patch.object(gym, "_OVERFLOW_RADIUS", radius):
            res, _ = generate([Y], **kw)
            with mock.patch.object(gym, "_bin_windows", _bin_windows_loop):
                ref, _ = generate([Y], **kw)
        # the windows, split at every interior atom
        interior = [x for x, _ in res.lam_atoms if a < x < b]
        assert _same_bits(res.mesh.nodes, np.union1d(np.linspace(a, b, nwin + 1), interior))
        assert _same_bits(res.nu, ref.nu)
        assert _same_bits(res.lam_atoms, ref.lam_atoms)
        assert _same_bits(res.nu_inf_atoms, ref.nu_inf_atoms)

    def test_cell_just_past_a_window_edge_keeps_its_overlap(self):
        # (hi - a) / (b - a) * nwin rounds to exactly 1.0 for hi = nextafter(1/3, inf)
        import bvgym.gym as gym

        wnodes, grid = np.linspace(0.0, 1.0, 4), gym.default_matrix_grid()
        edge = np.nextafter(wnodes[1], np.inf)
        Y = DiscreteMeasure(IntervalMesh(np.array([0.0, edge, 1.0])), np.array([[[0.5]], [[9.0]]]), ())
        args = (Y, wnodes, grid, gym.default_sphere_grid(), 8.0)
        nu = gym._bin_windows(*args)[0]
        assert nu[1, _grid_index(grid, np.array([[0.5]]))] == edge - wnodes[1] > 0
        for got, want in zip(gym._bin_windows(*args), _bin_windows_loop(*args)):
            assert _same_bits(got, want)

    def test_helper_matches_loop_on_oscillation_sequence(self):
        import bvgym.gym as gym

        Y = oscillation_field(64).derivative()
        wnodes = np.linspace(0.0, 1.0, 17)
        for radius in (0.5, 8.0):  # all cells beyond the overflow radius, then none
            args = (Y, wnodes, gym.default_matrix_grid(), gym.default_sphere_grid(), radius)
            for got, want in zip(gym._bin_windows(*args), _bin_windows_loop(*args)):
                assert _same_bits(got, want)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
    def test_snap_all_matches_row_unique(self, dims):
        # the grid index of every row, as np.unique(A, axis=0) grouped them, on rows
        # with -0.0 against 0.0, NaN and infinities
        import bvgym.gym as gym

        def row_unique(grid, A):
            rows, inv = np.unique(A, axis=0, return_inverse=True)
            return np.array([_grid_index(grid, r) for r in rows], dtype=int)[inv.ravel()]

        grid = gym.default_matrix_grid(dims)
        pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 0.5, 2.75, -3.1])
        A = np.random.default_rng(0).choice(pool, size=(400,) + dims)
        assert np.isnan(A).any() and np.signbit(A[A == 0]).any() and not np.signbit(A[A == 0]).all()
        for B in (A, A[:1], A[:0]):
            got = gym._snap_all(grid, B)
            assert got.dtype == int and np.array_equal(got, row_unique(grid, B))


class TestGenerateTailGaps:
    """The tail check integrates each g and applies each v once per member and takes
    each limit pairing once; its gaps must equal the per-pair loop below bit for bit."""

    @pytest.mark.parametrize("tail", [1, 3])
    def test_each_v_acts_once_per_tail_member(self, tail):
        import bvgym.gym as gym

        calls = []
        action = gym.measure_action
        with (mock.patch.object(gym, "measure_action", lambda v, mu: calls.append((v, mu)) or action(v, mu)),
              mock.patch.object(gym, "_TAIL", tail)):
            Y_seq = [oscillation_field(k).derivative() for k in (8, 16, 32, 64)]
            generate(Y_seq, window_h=1 / 16, tol=np.inf)
        assert len(calls) == tail * 4
        assert [mu for _, mu in calls] == [Y for Y in Y_seq[-tail:] for _ in range(4)]

    @staticmethod
    def _per_pair_loop(Y_seq, gm, dictionary, tail=3):
        per_member = [{label: abs(pair_action(Y, g, v) - pairing(gm, g, v)) for label, g, v in dictionary}
                      for Y in Y_seq[-tail:]]
        return per_member[-1], [float(np.max([0.0, *d.values()])) for d in per_member]

    @pytest.mark.parametrize("case", ["toy", "oscillation", "M2-atoms"])
    def test_matches_per_pair_loop(self, case):
        import bvgym.gym as gym

        radius = gym._OVERFLOW_RADIUS
        if case == "toy":
            Y_seq, kw = [toy_field(n, EPS).derivative() for n in (100, 300, 1000)], {}
            dictionary = default_dictionary()
        elif case == "oscillation":
            Y_seq, kw = [oscillation_field(k).derivative() for k in (8, 16, 32, 64)], dict(window_h=1 / 16)
            dictionary = default_dictionary()
        else:  # each g split over two runs of the dictionary, so the gaps must keep its order
            rng = np.random.default_rng(5)
            Y_seq = [TestGenerateBinning._member(rng, -0.306, 0.614, 8, (2, 1), False, 2.0, 3) for _ in range(3)]
            kw, radius = dict(window_h=0.92 / 8), 2.0
            d = default_dictionary((2, 1))
            dictionary = d[::2] + d[1::2]
        with mock.patch.object(gym, "_OVERFLOW_RADIUS", radius):
            gm, report = generate(Y_seq, dictionary=dictionary, tol=np.inf, **kw)
        pair_gaps, tail_gaps = self._per_pair_loop(Y_seq, gm, dictionary)
        assert list(report["pair_gaps"]) == list(pair_gaps) == [label for label, _, _ in dictionary]
        assert _same_bits(list(report["pair_gaps"].values()), list(pair_gaps.values()))
        assert _same_bits(report["tail_gaps"], tail_gaps)
        assert report["max_gap"] == tail_gaps[-1] > 0.0


class TestSplit:
    def test_interior_only_measure(self):
        rng = np.random.default_rng(1)
        gm = random_gym(rng, with_boundary=False)
        inner, boundary = split(gm)
        assert not boundary.lam_atoms
        assert boundary.lam().total_variation() == 0.0

    def test_toy_limit_split(self):
        gm = toy_limit_gym(EPS)
        inner, boundary = split(gm)
        assert not inner.lam_atoms
        ((p, m),) = boundary.lam_atoms
        assert p == 1.0 and m == pytest.approx(1 - EPS)

    def test_identity_exact_on_random_measures(self):
        rng = np.random.default_rng(42)
        vs = [ABS, make_integrand("euclid_sqrt1p"), make_integrand("id")]
        for _ in range(20):
            gm = random_gym(rng)
            inner, boundary = split(gm)
            for g in (ONE, X, XSQ):
                for v in vs:
                    lhs = pairing(gm, g, v)
                    v0_term = float(np.sum(gm.mesh.cell_integrals(g))) * float(v(0.0))
                    rhs = pairing(inner, g, v) + pairing(boundary, g, v) - v0_term
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestCombineOrthogonal:
    def _boundary_and_interior(self):
        fields_b = [toy_field(n, EPS) for n in (100, 400, 1600)]
        fields_b = [BVField(u.mesh, u.values - EPS / 2) for u in fields_b]
        fields_i = [oscillation_field(k, support=(0.25, 0.75)) for k in (8, 16, 32)]
        grid = np.linspace(-4, 4, 129).reshape(-1, 1, 1)
        kw = dict(window_h=1 / 16, matrix_grid=grid, tol=5e-2)
        psi, _ = generate_from_fields(fields_b, **kw)
        theta, _ = generate_from_fields(fields_i, **kw)
        return psi, theta, fields_b, fields_i

    def test_trivial_second_factor(self, unit_mesh):
        psi = dirac_gym(unit_mesh, 1.5, matrix_grid=np.array([[[0.0]], [[1.5]]]))
        theta = dirac_gym(unit_mesh, 0.0, matrix_grid=np.array([[[0.0]], [[1.5]]]))
        out = combine_orthogonal(psi, theta, lambda x: True, lambda x: False)
        assert np.allclose(out.nu, psi.nu)

    def test_boundary_plus_interior_additivity(self):
        psi, theta, fb, fi = self._boundary_and_interior()
        in_S = lambda x: x >= 7 / 8
        in_T = lambda x: x < 7 / 8
        comb = combine_orthogonal(psi, theta, in_S, in_T)
        summed = []
        for a, b in zip(fb, fi):
            mesh = union_mesh(a.mesh, b.mesh)
            summed.append(resample(a, mesh) + resample(b, mesh))
        gen, report = generate_from_fields(
            summed, window_h=1 / 16, matrix_grid=np.linspace(-4, 4, 129).reshape(-1, 1, 1), tol=5e-2
        )
        for label, g, v in default_dictionary((1, 1)):
            assert abs(pairing(gen, g, v) - pairing(comb, g, v)) <= 1e-3, label

    def test_orthogonality_violation_reports_cell(self):
        rng = np.random.default_rng(2)
        gm = random_gym(rng)  # oscillating everywhere: not trivial on any set
        with pytest.raises(OrthogonalityError, match="cell"):
            combine_orthogonal(gm, gm, lambda x: x < 0.5, lambda x: x >= 0.5)

    @pytest.mark.parametrize("busy, message", [(3, "orthogonality violated on cell 3"),
                                               (13, "cell 8 center not classified by exactly one tag")])
    def test_first_failing_cell_is_reported(self, unit_mesh, busy, message):
        # the tags leave cells 8-10 unclassified; both factors oscillate on cell `busy`,
        # which S takes before them (3) or T after them (13)
        gm = dirac_gym(unit_mesh, 0.0, matrix_grid=np.array([[[0.0]], [[1.5]]]))
        nu = gm.nu.copy()
        nu[busy] = [0.5, 0.5]
        gm = dataclasses.replace(gm, nu=nu)
        with pytest.raises(OrthogonalityError, match=f"^{message}$"):
            combine_orthogonal(gm, gm, lambda x: x < 0.5, lambda x: x > 0.7)

    @pytest.mark.parametrize("label, point", [("S", 0.25), ("T", 0.75)])
    def test_atom_outside_its_factor_reported(self, unit_mesh, label, point):
        trivial = dirac_gym(unit_mesh, 0.0)
        S = trivial.sphere_grid.shape[0]
        busy = dataclasses.replace(trivial, lam_atoms=((point, 0.5),), nu_inf_atoms=np.full((1, S), 1 / S))
        psi, theta = (busy, trivial) if label == "S" else (trivial, busy)
        with pytest.raises(OrthogonalityError, match=f"^atom at {point} of the {label}-factor lies outside {label}$"):
            combine_orthogonal(psi, theta, lambda x: x >= 0.5, lambda x: x < 0.5)

    def test_swap_is_symmetric(self):
        psi, theta, _, _ = self._boundary_and_interior()
        in_S = lambda x: x >= 7 / 8
        in_T = lambda x: x < 7 / 8
        a = combine_orthogonal(psi, theta, in_S, in_T)
        b = combine_orthogonal(theta, psi, in_T, in_S)
        for label, g, v in default_dictionary((1, 1)):
            assert pairing(a, g, v) == pytest.approx(pairing(b, g, v), abs=1e-14)


class TestFirstMoment:
    def test_dirac(self, unit_mesh):
        gm = dirac_gym(unit_mesh, 2.0)
        mom = first_moment(gm)
        assert np.allclose(mom.density, 2.0)
        assert not mom.atoms

    def test_toy_limit(self):
        mom = first_moment(toy_limit_gym(EPS))
        assert np.allclose(mom.density, 0.0)
        (atom,) = mom.atoms
        assert atom.mass == pytest.approx(1 - EPS)
        assert float(atom.direction[0, 0]) == 1.0

    def test_symmetric_oscillation_cancels(self):
        mesh = interval_mesh(0, 1, 4)
        grid = np.array([[[-1.0]], [[1.0]]])
        nu = np.full((mesh.ncells, 2), 0.5)
        gm = GenYoungMeasure(
            mesh, grid, nu, np.zeros(mesh.ncells), (), np.array([[[1.0]]]),
            np.ones((mesh.ncells, 1)), np.zeros((0, 1)),
        )
        assert np.allclose(first_moment(gm).density, 0.0)

    def test_boundary_rank_one_of_generated(self):
        fields = [toy_field(n, EPS) for n in (100, 1000)]
        gm, _ = generate_from_fields(fields, tol=5e-2)
        report = boundary_rank_one_report(gm)
        assert report and all(r["ok"] for r in report)


class TestDiPernaMajda:
    def test_trivial_measure(self, unit_mesh):
        dm = to_diperna_majda(dirac_gym(unit_mesh, 0.0))
        assert np.allclose(dm.sigma_density, 1.0)  # sigma = Lebesgue
        assert np.allclose(dm.nuhat_sphere, 0.0)

    @pytest.mark.parametrize("field, message", [("nuhat_sphere", "nuhat rows must sum to 1"),
                                                ("sigma_density", "sigma must be nonnegative")])
    def test_malformed_measure_refused(self, field, message):
        dm = to_diperna_majda(_valid_gym())
        bad = getattr(dm, field).copy()
        bad[1] = -0.25
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(dm, **{field: bad})

    def test_negative_atom_sphere_weight_refused(self):
        dm = to_diperna_majda(_valid_gym())
        with pytest.raises(ValueError, match="^nuhat weights must be nonnegative$"):
            dataclasses.replace(dm, nuhat_atom_sphere=np.array([[1.25, -0.25]]))

    def test_inversion_refuses_nuhat_without_sigma_density(self):
        # grid weights 1 + |A| = (1, 2): the interior row (-0.2, 0.4) has Lebesgue fraction
        # -0.2 + 0.4 / 2 = 0 but carries mass 0.2; its rows sum to 1, and the constructor
        # refuses its negative weight before any inversion sees it
        dm = to_diperna_majda(_valid_gym())
        interior, sphere = dm.nuhat_interior.copy(), dm.nuhat_sphere.copy()
        interior[2], sphere[2] = [-0.2, 0.4], 0.4
        with pytest.raises(ValueError, match="^nuhat weights must be nonnegative$"):
            dataclasses.replace(dm, nuhat_interior=interior, nuhat_sphere=sphere)

    def test_point_concentration_masses(self):
        # gradient concentration at x = 0 with total mass 0.6
        mass = 0.6
        fields = []
        for k in (8, 32, 128):
            mesh = interval_mesh(0, 1, 16, extra_nodes=(1.0 / k,))
            nodal = mass * np.maximum(0.0, 1.0 - k * mesh.nodes)
            fields.append(BVField.from_nodal(mesh, nodal))
        gm, _ = generate_from_fields(fields, window_h=1 / 16, tol=5e-2)
        dm = to_diperna_majda(gm)
        assert np.allclose(dm.sigma_density, 1.0, atol=1e-2)
        ((p, m),) = dm.sigma_atoms
        assert p == 0.0 and m == pytest.approx(mass, abs=1e-2)
        # at the atom the whole mass sits at infinity
        assert np.sum(dm.nuhat_atom_sphere[0]) == pytest.approx(1.0)

    def test_round_trip_preserves_pairings(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            gm = random_gym(rng)
            dm = to_diperna_majda(gm)
            back = from_diperna_majda(dm)
            for label, g, v in default_dictionary((1, 1)):
                p0 = pairing(gm, g, v)
                assert abs(p0 - dm.pairing(g, v)) <= 1e-10 * max(1.0, abs(p0)), label
                assert abs(p0 - pairing(back, g, v)) <= 1e-10 * max(1.0, abs(p0)), label

    def test_inversion_needs_lebesgue_density(self):
        gm = toy_limit_gym(EPS)
        dm = to_diperna_majda(gm)
        bad = type(dm)(
            dm.mesh,
            dm.matrix_grid,
            dm.sphere_grid,
            np.zeros_like(dm.sigma_density),
            dm.sigma_atoms,
            np.zeros_like(dm.nuhat_interior),
            np.ones_like(dm.nuhat_sphere) / dm.nuhat_sphere.shape[1],
            dm.nuhat_atom_sphere,
        )
        with pytest.raises(ValueError, match="inversion error"):
            from_diperna_majda(bad)

    def test_record_round_trip(self):
        gm = toy_limit_gym(EPS)
        dm = to_diperna_majda(gm)
        back = type(dm).from_record(dm.to_record())
        assert np.allclose(back.sigma_density, dm.sigma_density)


class TestCharacterization:
    def test_generated_toy_passes(self):
        fields = [toy_field(n, EPS) for n in (100, 300, 1000)]
        gm, _ = generate_from_fields(fields)
        report = check_characterization(gm, gm.underlying)
        assert report["all_pass"]
        assert report["ii"]["worst"] >= -1e-6
        assert report["iv"]["worst"] >= -1e-6

    def test_interior_concentration_becomes_a_jump(self):
        # ramps 0 -> 1 over (0.3 - 1/n, 0.3) concentrate at a point inside a window
        fields = []
        for n in (100, 300, 1000):
            ramp = (0.3 - 1 / n, 0.3)
            mesh = interval_mesh(0, 1, 16, extra_nodes=ramp)
            fields.append(BVField.from_nodal(mesh, np.clip((mesh.nodes - ramp[0]) * n, 0.0, 1.0)))
        gm, rep = generate_from_fields(fields)
        ((x, m),) = gm.lam_atoms
        assert 0.299 < x < 0.3 and m == pytest.approx(1.0)
        assert x in gm.mesh.nodes
        tr = gym_traces(gm)
        h = rep["window_h"]
        assert abs(tr["inner"][0.0][0]) <= h and abs(tr["inner"][1.0][0] - 1.0) <= h
        assert np.allclose(tr["outer"][0.0], tr["inner"][0.0]) and np.allclose(tr["outer"][1.0], tr["inner"][1.0])
        assert check_characterization(gm, gm.underlying)["all_pass"]
        assert rep["max_gap"] <= rep["tol"]

    def test_lam_atoms_at_one_point_add_up_in_iii(self, unit_mesh):
        # a jump of 1 at 0.5 against two lam-atoms of mass 0.5 there: (iii) holds with equality
        u = BVField.step(unit_mesh, 0.5, 0.0, 1.0)
        gm = GenYoungMeasure(
            unit_mesh, np.array([[[0.0]]]), np.ones((unit_mesh.ncells, 1)), np.zeros(unit_mesh.ncells),
            ((0.5, 0.5), (0.5, 0.5)), np.array([[[1.0]]]), np.ones((unit_mesh.ncells, 1)), np.ones((2, 1)),
        )
        report = check_characterization(gm, u)
        assert report["iii"]["pass"] and abs(report["iii"]["worst"]) <= 1e-12

    def test_dirac_equalities(self, unit_mesh):
        gm = dirac_gym(unit_mesh, 1.7)
        u = BVField.affine(unit_mesh, 1.7, 0.0)
        report = check_characterization(gm, u)
        assert report["all_pass"]
        assert abs(report["ii"]["worst"]) <= 1e-12

    def test_tangential_boundary_direction_flagged(self):
        # 2D: boundary concentration with direction a x tau (tau tangent) violates
        # the sign condition against the tangential-form witnesses
        mesh = disk_mesh(2)
        x0 = mesh.vertices[mesh.boundary_nodes[0]].copy()
        rho = x0 / np.linalg.norm(x0)
        tau = np.array([-rho[1], rho[0]])
        grid = np.array([np.zeros((1, 2))])
        sphere = np.array([tau.reshape(1, 2)])  # direction 1 x tau
        nu = np.ones((mesh.ncells, 1))
        gm = GenYoungMeasure(
            mesh, grid, nu, np.zeros(mesh.ncells), ((x0, 0.5),), sphere,
            np.ones((mesh.ncells, 1)), np.array([[1.0]]),
        )
        from bvgym.measures import DiskField

        u = DiskField(mesh, np.zeros(mesh.vertices.shape[0]))
        report = check_characterization(gm, u)
        assert not report["iv"]["pass"]
        assert report["iv"]["violations"]
        # the witness integrand is quasi-sublinear from below at this normal
        from bvgym.boundary import qslb_infimum

        worst = min(report["iv"]["violations"], key=lambda r: r["value"])
        fam = default_qslb_family(rho, (1, 2))
        names = [h.name for h in fam]
        assert worst["integrand"] in names
        witness = fam[names.index(worst["integrand"])]
        assert qslb_infimum(witness, rho)["verdict"] == "qslb"

    @staticmethod
    def _jump_gym(lam_atoms):
        """u jumps by +1 at 0.5; nu = delta_0, and each lam-atom's nu_inf is delta_{+1}."""
        mesh = interval_mesh(0, 1, 16)
        u = BVField.step(mesh, 0.5, 0, 1)
        gm = GenYoungMeasure(
            mesh, np.array([[[0.0]]]), np.ones((16, 1)), np.zeros(16), lam_atoms,
            np.array([[[-1.0]], [[1.0]]]), np.full((16, 2), 0.5), np.array([[0.0, 1.0]] * len(lam_atoms)),
        )
        return gm, u

    def test_interior_atom_matching_the_jump_passes_iii(self):
        gm, u = self._jump_gym(((0.5, 1.0),))
        report = check_characterization(gm, u)
        assert report["iii"] == {"pass": True, "worst": 0.0}
        assert report["all_pass"]

    def test_interior_atom_with_half_the_jump_fails_iii(self):
        gm, u = self._jump_gym(((0.5, 0.5),))
        report = check_characterization(gm, u)
        assert not report["iii"]["pass"]
        assert report["iii"]["worst"] == pytest.approx(-0.5)  # |.|: 0.5 of lam-mass against |Du^s| = 1
        assert report["i"]["pass"] and report["ii"]["pass"] and report["iv"]["pass"]

    def test_jump_without_interior_atom_fails_iii(self):
        gm, u = self._jump_gym(())
        report = check_characterization(gm, u)
        assert not report["iii"]["pass"]
        assert report["iii"]["worst"] == pytest.approx(-1.0)  # the unmatched jump's full |Du^s|
        assert not report["all_pass"]


class TestTraces:
    def test_no_boundary_concentration(self, unit_mesh):
        gm = dirac_gym(unit_mesh, 0.5).with_underlying(BVField.affine(unit_mesh, 0.5, 0.0))
        tr = gym_traces(gm)
        for x in tr["inner"]:
            assert np.allclose(tr["inner"][x], tr["outer"][x])

    def test_toy_limit_traces(self):
        tr = gym_traces(toy_limit_gym(EPS))
        assert tr["inner"][0.0][0] == pytest.approx(EPS / 2)
        assert tr["inner"][1.0][0] == pytest.approx(EPS / 2)
        assert tr["outer"][0.0][0] == pytest.approx(EPS / 2)
        assert tr["outer"][1.0][0] == pytest.approx(1 - EPS / 2)

    def test_interior_concentration_ignored(self):
        mesh = interval_mesh(0, 1, 8)
        gm = GenYoungMeasure(
            mesh,
            np.array([[[0.0]]]),
            np.ones((mesh.ncells, 1)),
            np.zeros(mesh.ncells),
            ((0.5, 0.9),),
            np.array([[[1.0]]]),
            np.ones((mesh.ncells, 1)),
            np.array([[1.0]]),
        )
        tr = gym_traces(gm.with_underlying(BVField.constant(mesh, 0.3)))
        assert np.allclose(tr["outer"][0.0], 0.3) and np.allclose(tr["outer"][1.0], 0.3)

    def test_atom_just_inside_an_endpoint_folds_onto_it(self):
        # 1 - 1e-13 is a boundary atom; its moment lands on the endpoint its normal points to
        from bvgym.soucek import outer_trace, soucek_pair, to_gym

        pair = soucek_pair(BVField.constant(interval_mesh(0, 1, 8), 0.0), {1 - 1e-13: 0.7})
        tr = gym_traces(to_gym(pair))
        assert tr["outer"][1.0][0] == outer_trace(pair).outer[1.0][0] == pytest.approx(0.7)
        assert tr["outer"][0.0][0] == 0.0

    def test_requires_underlying(self, unit_mesh):
        gm = dirac_gym(unit_mesh, 0.0)
        with pytest.raises(ValueError, match="not a gradient"):
            gym_traces(gm)

    def test_strong_inner_trace_convergence_surrogate(self):
        # lam vanishes near the boundary: traces of the sequence are L1-Cauchy
        fields = [oscillation_field(k, support=(0.25, 0.75)) for k in (8, 16, 32, 64)]
        traces = [np.concatenate(u.trace()) for u in fields]
        dists = [float(np.max(np.abs(a - b))) for a, b in zip(traces, traces[1:])]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-12


class TestSerialization:
    def test_gym_record_round_trip(self):
        gm = toy_limit_gym(EPS)
        back = GenYoungMeasure.from_record(gm.to_record())
        for label, g, v in default_dictionary((1, 1)):
            assert pairing(back, g, v) == pytest.approx(pairing(gm, g, v), abs=1e-14)
        assert back.underlying is not None

    def test_disk_record_round_trip(self):
        # a boundary atom on the disk, through strict JSON: the triangle mesh's record and reader
        from bvgym.soucek import soucek_pair, to_gym

        mesh = disk_mesh(1)
        v = mesh.vertices[mesh.boundary_nodes[0]]
        gm = to_gym(soucek_pair(DiskField(mesh, np.zeros(mesh.vertices.shape[0])), {tuple(v): 0.5 * v}))
        back = GenYoungMeasure.from_record(json.loads(json.dumps(gm.to_record(), allow_nan=False)))
        assert _same_mesh(back.mesh, gm.mesh) and back.mesh.kind_label == "disk"
        for name in ("vertices", "triangles", "boundary_nodes"):
            assert np.array_equal(getattr(back.mesh, name), getattr(gm.mesh, name)), name
        for name in ("matrix_grid", "nu", "lam_density", "sphere_grid", "nu_inf_cells", "nu_inf_atoms"):
            assert np.array_equal(getattr(back, name), getattr(gm, name)), name
        ((p, m),) = back.lam_atoms
        assert np.array_equal(p, v) and m == gm.lam_atoms[0][1]
        assert back.underlying is None

    def test_reconstruct_underlying_from_moment(self):
        fields = [toy_field(n, EPS) for n in (100, 1000)]
        gm, _ = generate_from_fields(fields, tol=5e-2)
        u = reconstruct_underlying(gm, anchor_mean=np.array([EPS / 2]))
        lo, hi = u.trace()
        assert float(lo[0]) == pytest.approx(EPS / 2, abs=1e-12)
        assert float(hi[0]) == pytest.approx(EPS / 2, abs=1e-12)


def reference_bin_windows(Y: DiscreteMeasure, wnodes, matrix_grid, sphere_grid, overflow_radius):
    """The one-pass binning over every (cell, window) pair that the window runs replaced."""
    from bvgym.gym import _snap_all

    nwin = wnodes.size - 1
    K, S = matrix_grid.shape[0], sphere_grid.shape[0]
    lo, hi = Y.mesh.nodes[:-1], Y.mesh.nodes[1:]
    w0 = np.clip(np.searchsorted(wnodes, lo, "right") - 1, 0, nwin - 1)
    w1 = np.clip(np.searchsorted(wnodes, hi, "left") - 1, 0, nwin - 1)
    n = np.maximum(w1 - w0 + 1, 0)
    cell = np.repeat(np.arange(lo.size), n)
    w = np.repeat(w0 + n - np.cumsum(n), n) + np.arange(cell.size)
    left, right = np.maximum(lo[cell], wnodes[w]), np.minimum(hi[cell], wnodes[w + 1])
    ell = right - left
    keep = ell > 0
    cell, w, ell, left, right = cell[keep], w[keep], ell[keep], left[keep], right[keep]

    norms = mat_norm(Y.density)
    over = ~(norms <= overflow_radius)
    k = np.full(lo.size, _zero_index(matrix_grid))
    k[~over] = _snap_all(matrix_grid, Y.density[~over])
    s = np.zeros(lo.size, dtype=int)
    s[over] = _snap_all(sphere_grid, Y.density[over] / norms[over, None, None])
    nu = np.bincount(w * K + k[cell], ell, nwin * K).reshape(nwin, K)
    o = over[cell]
    mass, wo = ell[o] * norms[cell[o]], w[o]
    conc_dir = np.bincount(wo * S + s[cell[o]], mass, nwin * S).reshape(nwin, S)
    conc_mass = np.bincount(wo, mass, nwin)
    conc_pos = np.bincount(wo, mass * 0.5 * (left[o] + right[o]), nwin)
    return nu, conc_mass, conc_pos, conc_dir


def _binning_case(rng, ncells, dims=(1, 1), span=(0.0, 1.0), overflow=0.1, nan=0.02):
    """A random graded mesh on about `span` (a few huge cells among tiny ones) and a density
    with overflowing and NaN values."""
    widths = 0.5 ** rng.integers(0, 30, ncells) * np.where(rng.random(ncells) < 0.01, 1e3, 1.0)
    nodes = span[0] + np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum() * (span[1] - span[0])
    dens = rng.standard_normal((ncells, *dims)) * 3.0
    dens[rng.random(ncells) < overflow] *= 1e4
    dens[rng.random(ncells) < nan] = np.nan
    return DiscreteMeasure(IntervalMesh(nodes), dens)


def _assert_binning_matches_reference(Y, nwin):
    from bvgym.gym import _bin_windows, default_sphere_grid

    dims = Y.density.shape[1:]
    grid, sphere = default_matrix_grid(dims, radius=4.0), default_sphere_grid(dims)
    wnodes = np.linspace(0.0, 1.0, nwin + 1)
    got = _bin_windows(Y, wnodes, grid, sphere, 8.0)
    want = reference_bin_windows(Y, wnodes, grid, sphere, 8.0)
    for name, x, y in zip(("nu", "conc_mass", "conc_pos", "conc_dir"), got, want):
        assert _same_bits(x, y), name


@pytest.mark.parametrize("block", [1, 2, 5, 64, None])
@pytest.mark.parametrize("seed", range(4))
def test_bin_windows_equals_the_one_pass_reference_bit_for_bit(seed, block, monkeypatch):
    """Runs split at every block edge (blocks of 1, 2, 5 and 64 cells, and the module's own)."""
    from bvgym import gym as gym_mod

    if block is not None:
        monkeypatch.setattr(gym_mod, "_CELL_BLOCK", block)
    rng = np.random.default_rng(seed)
    dims = [(1, 1), (1, 2)][seed % 2]
    for ncells, nwin in [(200, 32), (200, 7), (40, 1), (9, 50), (3, 1000), (1, 4)]:
        _assert_binning_matches_reference(_binning_case(rng, ncells, dims), nwin)
    # a member whose mesh ends just off the window nodes, as generate's np.isclose allows
    _assert_binning_matches_reference(_binning_case(rng, 150, dims, span=(-1e-12, 1.0 + 1e-12)), 13)


def test_bin_windows_at_the_module_block_match_the_reference_across_runs():
    from bvgym.meshes import _CELL_BLOCK

    rng = np.random.default_rng(11)
    for ncells, nwin in [(3 * _CELL_BLOCK + 7, 32), (2 * _CELL_BLOCK + 1, 3), (_CELL_BLOCK + 1, 1)]:
        _assert_binning_matches_reference(_binning_case(rng, ncells), nwin)
    # every density overflows, or none does
    Y = _binning_case(rng, 2 * _CELL_BLOCK, overflow=1.0, nan=0.0)
    _assert_binning_matches_reference(Y, 32)
    _assert_binning_matches_reference(DiscreteMeasure(Y.mesh, np.clip(Y.density, -1.0, 1.0)), 32)
