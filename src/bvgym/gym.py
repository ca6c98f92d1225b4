"""Discrete generalized Young measures.

A triple (nu, lam, nu_inf) on a spatial mesh: `nu` is a per-cell probability
table over a matrix sample grid (oscillation), `lam` a nonnegative measure on
the closed domain (concentration mass, boundary atoms allowed), and `nu_inf`
a probability table over unit-sphere samples attached to every cell carrying
lam-density and to every lam-atom (concentration directions).

Pairings, splitting, orthogonal combination, empirical generation from
derivative-measure sequences, characterization checks, DiPerna-Majda
conversion, and measure traces all live here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrands import (
    HomogeneousIntegrand,
    Integrand,
    hom_abs,
    hom_linear,
    make_integrand,
    mat_norm,
    measure_action,
    unit_matrices,
)
from .measures import (RANK_ONE_TOL, Atom, BVField, DiscreteMeasure, _eval_at_point, _key, _on_boundary, _point_from,
                       _same_mesh, fold_traces, group_rows, normal_projection)
from .meshes import _CELL_BLOCK, IntervalMesh, TriMesh, mesh_from_record

PROB_TOL = 1e-12
CHARACTERIZATION_TOL = 1e-6  # slack of the inequalities (ii)-(iv) in check_characterization


class GenerationError(ValueError):
    """A sequence fails to generate a measure at the requested resolution."""


class OrthogonalityError(ValueError):
    pass


@dataclass(frozen=True)
class GenYoungMeasure:
    mesh: IntervalMesh | TriMesh
    matrix_grid: np.ndarray  # (K, M, N)
    nu: np.ndarray  # (ncells, K), rows sum to 1
    lam_density: np.ndarray  # (ncells,), >= 0
    lam_atoms: tuple[tuple, ...]  # ((point, mass), ...) on the closure
    sphere_grid: np.ndarray  # (S, M, N), unit norm
    nu_inf_cells: np.ndarray  # (ncells, S), rows sum to 1 where lam_density > 0
    nu_inf_atoms: np.ndarray  # (natoms, S), rows sum to 1
    underlying: BVField | None = None

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        lamd = np.asarray(self.lam_density, dtype=float)
        nic = np.asarray(self.nu_inf_cells, dtype=float)
        nsph = np.asarray(self.sphere_grid).shape[0]
        nia = np.asarray(self.nu_inf_atoms, dtype=float).reshape(len(self.lam_atoms), nsph)
        if nu.shape != (self.mesh.ncells, self.matrix_grid.shape[0]):
            raise ValueError("nu must be (ncells, len(matrix_grid))")
        if np.max(np.abs(nu.sum(axis=1) - 1.0)) > PROB_TOL or np.min(nu) < -PROB_TOL:
            raise ValueError("nu rows must be probability vectors")
        if np.min(lamd) < -PROB_TOL:
            raise ValueError("lam must be nonnegative")
        carrying = lamd > 0
        if np.any(carrying) and np.max(np.abs(nic[carrying].sum(axis=1) - 1.0)) > PROB_TOL:
            raise ValueError("nu_inf rows must sum to 1 where lam has density")
        if len(self.lam_atoms) and (
            np.max(np.abs(nia.sum(axis=1) - 1.0)) > PROB_TOL or np.min(nia) < -PROB_TOL
        ):
            raise ValueError("nu_inf atom rows must be probability vectors")
        for _, m in self.lam_atoms:
            if m < -PROB_TOL:
                raise ValueError("lam must be nonnegative")
        sph = np.asarray(self.sphere_grid, dtype=float)
        if np.max(np.abs(mat_norm(sph) - 1.0)) > 1e-9:
            raise ValueError("sphere grid points must have unit norm")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "lam_density", lamd)
        object.__setattr__(self, "nu_inf_cells", nic)
        object.__setattr__(self, "nu_inf_atoms", nia)
        object.__setattr__(self, "lam_atoms", tuple((p, float(m)) for p, m in self.lam_atoms))

    @property
    def dims(self) -> tuple[int, int]:
        return self.matrix_grid.shape[1], self.matrix_grid.shape[2]

    def lam(self) -> DiscreteMeasure:
        atoms = tuple(Atom(p, m, 1.0) for p, m in self.lam_atoms if m > 0)
        return DiscreteMeasure(self.mesh, self.lam_density, atoms)

    def mass_norm(self) -> float:
        """<<Lambda, 1 x |.|>>, the finiteness quantity."""
        return pairing(self, _const_one, make_integrand("abs", self.dims))

    def with_underlying(self, u: BVField) -> "GenYoungMeasure":
        return dataclasses.replace(self, underlying=u)

    def boundary_atom_indices(self) -> list[int]:
        return [i for i, (p, _) in enumerate(self.lam_atoms) if _on_boundary(self.mesh, p)]

    def to_record(self) -> dict:
        rec = {
            "mesh": self.mesh.to_record(),
            "matrix_grid": self.matrix_grid.tolist(),
            "nu": self.nu.tolist(),
            "lam_density": self.lam_density.tolist(),
            "lam_atoms": [[np.asarray(p).tolist(), m] for p, m in self.lam_atoms],
            "sphere_grid": self.sphere_grid.tolist(),
            "nu_inf_cells": self.nu_inf_cells.tolist(),
            "nu_inf_atoms": self.nu_inf_atoms.tolist(),
        }
        if self.underlying is not None:
            rec["underlying"] = self.underlying.to_record()
        return rec

    @staticmethod
    def from_record(rec: dict) -> "GenYoungMeasure":
        mesh = mesh_from_record(rec["mesh"])
        atoms = tuple((_point_from(p), float(m)) for p, m in rec["lam_atoms"])
        underlying = None
        if "underlying" in rec:
            underlying = BVField.from_record(rec["underlying"])
        return GenYoungMeasure(
            mesh,
            np.asarray(rec["matrix_grid"], dtype=float),
            np.asarray(rec["nu"], dtype=float),
            np.asarray(rec["lam_density"], dtype=float),
            atoms,
            np.asarray(rec["sphere_grid"], dtype=float),
            np.asarray(rec["nu_inf_cells"], dtype=float),
            np.asarray(rec["nu_inf_atoms"], dtype=float).reshape(len(atoms), len(rec["sphere_grid"])),
            underlying,
        )


def _const_one(x):
    """Constant test function valid for 1D scalars/batches and 2D point arrays."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return 1.0
    if arr.ndim >= 2 and arr.shape[-1] == 2:
        return np.ones(arr.shape[:-1])
    return np.ones_like(arr)


def _grid_index(grid: np.ndarray, A: np.ndarray) -> int:
    d = mat_norm(grid - A[None])
    return int(np.argmin(d))


def _zero_index(grid: np.ndarray) -> int:
    i = _grid_index(grid, np.zeros(grid.shape[1:]))
    if mat_norm(grid[i]) > 1e-12:
        raise ValueError("matrix grid must contain the zero matrix")
    return i


def dirac_gym(mesh, A0, matrix_grid: np.ndarray | None = None) -> GenYoungMeasure:
    """The trivial measure (delta_{A0}, 0, -) of a constant sequence."""
    A0 = np.asarray(A0, dtype=float)
    if A0.ndim == 0:
        A0 = A0.reshape(1, 1)
    if matrix_grid is None:
        matrix_grid = np.stack([np.zeros_like(A0), A0]) if mat_norm(A0) > 0 else A0[None]
    sphere_grid = default_sphere_grid(A0.shape)
    K = matrix_grid.shape[0]
    nu = np.zeros((mesh.ncells, K))
    nu[:, _grid_index(matrix_grid, A0)] = 1.0
    S = sphere_grid.shape[0]
    return GenYoungMeasure(
        mesh,
        matrix_grid,
        nu,
        np.zeros(mesh.ncells),
        (),
        sphere_grid,
        np.full((mesh.ncells, S), 1.0 / S),
        np.zeros((0, S)),
    )


def default_matrix_grid(dims=(1, 1), radius: float = 4.0) -> np.ndarray:
    """129 equispaced scalars on [-radius, radius]; for matrices, zero and 16
    unit directions at 7 magnitudes up to radius."""
    M, N = dims
    if (M, N) == (1, 1):
        return np.linspace(-radius, radius, 129).reshape(-1, 1, 1)
    dirs = unit_matrices(dims, 16)
    mags = np.linspace(0.0, radius, 8)
    grid = [np.zeros((M, N))]
    for r in mags[1:]:
        grid += [r * d for d in dirs]
    return np.array(grid)


def default_sphere_grid(dims=(1, 1)) -> np.ndarray:
    return unit_matrices(dims, 32)


# ---------------------------------------------------------------------------
# pairings


def pairing(gym: GenYoungMeasure, g: Callable, v: Integrand) -> float:
    """<<Lambda, g x v>>: oscillation integral plus concentration integral.

    g carries every dependence on x, a spatial weight w(x) included."""
    if v.recession is None:
        raise ValueError("recession required")
    vvals = np.asarray(v(gym.matrix_grid))
    vinf = np.asarray(v.recession.on_sphere(gym.sphere_grid))
    cell_g = gym.mesh.cell_integrals(g)
    osc = float(cell_g @ (gym.nu @ vvals))
    conc = float((cell_g * gym.lam_density) @ (gym.nu_inf_cells @ vinf))
    for i, (p, m) in enumerate(gym.lam_atoms):
        conc += _eval_at_point(g, p) * m * float(gym.nu_inf_atoms[i] @ vinf)
    return osc + conc


def default_dictionary(dims=(1, 1)) -> list[tuple[str, Callable, Integrand]]:
    """The fixed 12-pair (g, v) test dictionary used for generation checks."""
    gs = [
        ("1", lambda x: np.ones_like(np.asarray(x, dtype=float))),
        ("x", lambda x: np.asarray(x, dtype=float)),
        ("x^2", lambda x: np.asarray(x, dtype=float) ** 2),
    ]
    M, N = dims
    vs = [make_integrand("one", dims), make_integrand("abs", dims), make_integrand("euclid_sqrt1p", dims)]
    if dims == (1, 1):
        vs.append(make_integrand("id"))
    else:
        coeffs = ",".join(["1"] + ["0"] * (M * N - 1))
        vs.append(make_integrand(f"linear_form:{coeffs}", dims))
    return [(f"{gn}*{v.name}", g, v) for gn, g in gs for v in vs]


# ---------------------------------------------------------------------------
# generation from sequences of derivative measures


def _snap_all(grid: np.ndarray, A: np.ndarray) -> np.ndarray:
    """`_grid_index(grid, A[i])` for every i, evaluated once per group of `group_rows`."""
    first, group = group_rows(A)
    return np.array([_grid_index(grid, A[k]) for k in first], dtype=int)[group]


def _bin_windows(Y: DiscreteMeasure, wnodes, matrix_grid, sphere_grid, overflow_radius):
    """Overlap-length histograms of Y's density per window: (nu, conc_mass, conc_pos, conc_dir).

    Each cell adds its overlap length ell with window w to nu[w, grid index of
    its density], or, above the overflow radius, to the zero matrix while its
    mass ell * |density| goes to the window's concentration sums.  Runs of whole
    windows that together overlap at most `_CELL_BLOCK` cells (or one window)
    are binned in turn, so temporaries stay bounded.  In each run the (cell,
    window) pairs are listed in cell order and np.bincount adds in input order,
    so every sum equals the one a per-cell `+=` loop builds, bit for bit.
    """
    nwin = wnodes.size - 1
    K, S = matrix_grid.shape[0], sphere_grid.shape[0]
    nodes, zero = Y.mesh.nodes, _zero_index(matrix_grid)
    # cells first[w] <= c < stop[w] overlap window w by a positive length
    first = np.searchsorted(nodes[1:], wnodes[:-1], "right")
    stop = np.maximum(np.searchsorted(nodes[:-1], wnodes[1:], "left"), first)
    cum, runs = np.concatenate([[0], np.cumsum(stop - first)]), [0]
    while runs[-1] < nwin:  # the longest run from runs[-1] within the block, at least one window
        runs.append(max(int(np.searchsorted(cum, cum[runs[-1]] + _CELL_BLOCK, "right")) - 1, runs[-1] + 1))
    nu, conc_dir = np.zeros((nwin, K)), np.zeros((nwin, S))
    conc_mass, conc_pos = np.zeros(nwin), np.zeros(nwin)
    for wa, wb in zip(runs[:-1], runs[1:]):
        ca, cb, wn, nw = first[wa], stop[wb - 1], wnodes[wa : wb + 1], wb - wa
        lo, hi, dens = nodes[ca:cb], nodes[ca + 1 : cb + 1], Y.density[ca:cb]
        # from the window holding lo to the last one starting below hi: every positive overlap
        w0 = np.clip(np.searchsorted(wn, lo, "right") - 1, 0, nw - 1)
        w1 = np.clip(np.searchsorted(wn, hi, "left") - 1, 0, nw - 1)
        n = np.maximum(w1 - w0 + 1, 0)
        cell = np.repeat(np.arange(lo.size), n)
        w = np.repeat(w0 + n - np.cumsum(n), n) + np.arange(cell.size)  # w0[c], w0[c] + 1, ... per cell c
        left, right = np.maximum(lo[cell], wn[w]), np.minimum(hi[cell], wn[w + 1])
        ell = right - left
        keep = ell > 0
        cell, w, ell, left, right = cell[keep], w[keep], ell[keep], left[keep], right[keep]

        norms = mat_norm(dens)
        over = ~(norms <= overflow_radius)  # a NaN norm counts as overflow
        k = np.full(lo.size, zero)
        k[~over] = _snap_all(matrix_grid, dens[~over])
        s = np.zeros(lo.size, dtype=int)
        s[over] = _snap_all(sphere_grid, dens[over] / norms[over, None, None])
        nu[wa:wb] = np.bincount(w * K + k[cell], ell, nw * K).reshape(nw, K)
        o = over[cell]
        mass, wo = ell[o] * norms[cell[o]], w[o]
        conc_dir[wa:wb] = np.bincount(wo * S + s[cell[o]], mass, nw * S).reshape(nw, S)
        conc_mass[wa:wb] = np.bincount(wo, mass, nw)
        conc_pos[wa:wb] = np.bincount(wo, mass * 0.5 * (left[o] + right[o]), nw)
    return nu, conc_mass, conc_pos, conc_dir


_OVERFLOW_RADIUS = 8.0  # generate books density values of larger norm as concentration
_TAIL = 3  # generate compares the limit's pairings with this many last members


def generate(
    Y_seq: Sequence[DiscreteMeasure],
    window_h: float = 1.0 / 32,
    matrix_grid: np.ndarray | None = None,
    dictionary=None,
    tol: float = 1e-2,
) -> tuple[GenYoungMeasure, dict]:
    """Empirical generalized Young measure of a derivative-measure sequence.

    Per spatial window, density values of the last member with norm at most
    _OVERFLOW_RADIUS are histogrammed (Lebesgue-weighted) onto the matrix grid
    (by default `default_matrix_grid` of radius _OVERFLOW_RADIUS / 2);
    the remaining mass, together with all atoms, is booked as concentration
    with a directional histogram on `default_sphere_grid`; a window's atom
    within window_h of an endpoint snaps to it, and every interior atom is
    made a node of the window mesh.  A posteriori the pairing
    against the (g, v) dictionary is compared with the last _TAIL members of
    the sequence; disagreement beyond tol raises GenerationError.
    """
    if not Y_seq:
        raise ValueError("empty sequence")
    mesh0 = Y_seq[0].mesh
    if mesh0.dim != 1:
        raise ValueError("generation is implemented for interval meshes")
    a, b = mesh0.a, mesh0.b
    for Y in Y_seq:
        if not (np.isclose(Y.mesh.a, a) and np.isclose(Y.mesh.b, b)):
            raise ValueError("sequence members live on different domains")
    dims = Y_seq[-1].density.shape[1:]
    if matrix_grid is None:
        matrix_grid = default_matrix_grid(dims, radius=_OVERFLOW_RADIUS / 2)
    sphere_grid = default_sphere_grid(dims)
    if dictionary is None:
        dictionary = default_dictionary(dims)

    nwin = max(1, int(round((b - a) / window_h)))
    wnodes = np.linspace(a, b, nwin + 1)
    wmesh = IntervalMesh(wnodes)
    S = sphere_grid.shape[0]
    Y = Y_seq[-1]
    nu, conc_mass, conc_pos, conc_dir = _bin_windows(Y, wnodes, matrix_grid, sphere_grid, _OVERFLOW_RADIUS)
    extra_atoms: dict[float, tuple[float, np.ndarray]] = {}
    for at in Y.atoms:
        x = float(np.asarray(at.point))
        key = min(max(x, a), b)
        dirrow = np.zeros(S)
        dirrow[_grid_index(sphere_grid, np.asarray(at.direction, dtype=float))] = at.mass
        if key in extra_atoms:
            m0, d0 = extra_atoms[key]
            extra_atoms[key] = (m0 + at.mass, d0 + dirrow)
        else:
            extra_atoms[key] = (at.mass, dirrow)

    nu_rows = nu / nu.sum(axis=1, keepdims=True)
    atoms: list[tuple[float, float]] = []
    rows: list[np.ndarray] = []
    for w in range(nwin):
        if conc_mass[w] <= 0:
            continue
        x = conc_pos[w] / conc_mass[w]
        if x - a <= window_h:
            x = a
        elif b - x <= window_h:
            x = b
        atoms.append((x, conc_mass[w]))
        rows.append(conc_dir[w] / conc_mass[w])
    for x, (m, drow) in sorted(extra_atoms.items()):
        atoms.append((x, m))
        rows.append(drow / m)
    nu_inf_atoms = np.array(rows).reshape(len(atoms), S)
    # every interior atom becomes a node, where the underlying field can jump;
    # both halves of a split window keep its nu row
    cuts = {x for x, _ in atoms if not _on_boundary(wmesh, x)}.difference(wnodes.tolist())
    nodes = np.sort(np.concatenate([wnodes, list(cuts)]))
    ncells = nodes.size - 1

    gym = GenYoungMeasure(
        IntervalMesh(nodes),
        matrix_grid,
        nu_rows[np.searchsorted(wnodes, nodes[:-1], "right") - 1],
        np.zeros(ncells),
        tuple(atoms),
        sphere_grid,
        np.full((ncells, S), 1.0 / S),
        nu_inf_atoms,
    )

    # gaps equal abs(pair_action(Y_k, g, v) - pairing(gym, g, v)), with each distinct g
    # integrated and each distinct v applied once per Y_k, one action alive at a time
    limits = [pairing(gym, g, v) for _, g, v in dictionary]
    vs = {id(v): v for _, _, v in dictionary}.values()
    tail_gaps = []
    for k in range(max(0, len(Y_seq) - _TAIL), len(Y_seq)):
        cells = {g: Y_seq[k].mesh.cell_integrals(g) for g in dict.fromkeys(g for _, g, _ in dictionary)}
        gaps = {}
        for v in vs:
            act = measure_action(v, Y_seq[k])
            gaps.update({j: abs(float(act._integrate_cells(cells[g], g)) - limits[j])
                         for j, (_, g, w) in enumerate(dictionary) if w is v})
        pair_gaps = {label: gaps[j] for j, (label, _, _) in enumerate(dictionary)}
        tail_gaps.append(float(np.max([0.0, *pair_gaps.values()])))  # np.max keeps a NaN gap: not converged
    converged = tail_gaps[-1] <= tol and all(g <= 10 * tol for g in tail_gaps)
    report = {
        "pair_gaps": pair_gaps,
        "max_gap": tail_gaps[-1],
        "tail_gaps": tail_gaps,
        "tol": tol,
        "converged": converged,
        "window_h": (b - a) / nwin,
    }
    if not report["converged"]:
        raise GenerationError(
            f"sequence does not generate at this resolution (gap {tail_gaps[-1]:.3e} > tol {tol:.1e})"
        )
    return gym, report


def generate_from_fields(fields: Sequence[BVField], **kwargs) -> tuple[GenYoungMeasure, dict]:
    """Generate from gradient fields and attach the reconstructed weak* limit."""
    gym, report = generate([u.derivative() for u in fields], **kwargs)
    anchor = fields[-1].mean()
    gym = gym.with_underlying(reconstruct_underlying(gym, anchor))
    return gym, report


def reconstruct_underlying(gym: GenYoungMeasure, anchor_mean) -> BVField:
    """BV field whose derivative is the interior first moment, mean-anchored."""
    if gym.mesh.dim != 1:
        raise ValueError("reconstruction implemented on interval meshes")
    mom = first_moment(gym)
    slopes = mom.density[:, :, 0]
    mesh = gym.mesh
    jumps = {_key(at.point): at.value for at in mom.interior_atoms()}
    ncomp = slopes.shape[1]
    vals = np.zeros((mesh.ncells, 2, ncomp))
    cur = np.zeros(ncomp)
    for c in range(mesh.ncells):
        if c > 0 and _key(mesh.nodes[c]) in jumps:
            cur = cur + np.ravel(jumps[_key(mesh.nodes[c])])
        vals[c, 0] = cur
        cur = cur + np.atleast_1d(slopes[c]) * mesh.cell_volumes[c]
        vals[c, 1] = cur
    if ncomp == 1:
        vals = vals[:, :, 0]
    u = BVField(mesh, vals)
    shift = np.atleast_1d(np.asarray(anchor_mean, dtype=float)) - u.mean()
    return BVField(mesh, u.values + (shift if ncomp > 1 else float(shift[0])))


# ---------------------------------------------------------------------------
# splitting and orthogonal combination


def split(gym: GenYoungMeasure) -> tuple[GenYoungMeasure, GenYoungMeasure]:
    """Inner part (interior concentration kept) and boundary part (nu = delta_0)."""
    on_b = np.zeros(len(gym.lam_atoms), dtype=bool)
    on_b[gym.boundary_atom_indices()] = True
    inner = dataclasses.replace(gym, lam_atoms=tuple(a for a, b in zip(gym.lam_atoms, on_b) if not b),
                                nu_inf_atoms=gym.nu_inf_atoms[~on_b])
    nu0 = np.zeros_like(gym.nu)
    nu0[:, _zero_index(gym.matrix_grid)] = 1.0
    boundary = dataclasses.replace(
        gym, nu=nu0, lam_density=np.zeros_like(gym.lam_density),
        lam_atoms=tuple(a for a, b in zip(gym.lam_atoms, on_b) if b),
        nu_inf_cells=np.full_like(gym.nu_inf_cells, 1.0 / gym.sphere_grid.shape[0]),
        nu_inf_atoms=gym.nu_inf_atoms[on_b], underlying=None)
    return inner, boundary


def combine_orthogonal(
    psi: GenYoungMeasure,
    theta: GenYoungMeasure,
    in_S: Callable,
    in_T: Callable,
) -> GenYoungMeasure:
    """chi_S psi + chi_T theta for measures that are trivial on each other's set.

    `in_S`/`in_T` are Borel-tag predicates evaluated at cell centers and atom
    locations; they must partition the closure.  The first failing cell or atom
    is reported.
    """
    if psi.matrix_grid.shape != theta.matrix_grid.shape or not np.allclose(
        psi.matrix_grid, theta.matrix_grid
    ):
        raise ValueError("measures must share the matrix grid")
    if not np.allclose(psi.sphere_grid, theta.sphere_grid):
        raise ValueError("measures must share the sphere grid")
    if not _same_mesh(psi.mesh, theta.mesh):
        raise ValueError("measures must share the mesh")
    s = np.array([bool(in_S(x)) for x in psi.mesh.cell_centers])
    t = np.array([bool(in_T(x)) for x in psi.mesh.cell_centers])
    # the factor that each cell takes, and the one that must be trivial there
    nu, other_nu = np.where(s[:, None], psi.nu, theta.nu), np.where(s[:, None], theta.nu, psi.nu)
    lamd, other_lamd = np.where(s, psi.lam_density, theta.lam_density), np.where(s, theta.lam_density, psi.lam_density)
    other_nu[:, _zero_index(psi.matrix_grid)] -= 1.0
    unclassified = s == t
    bad = np.flatnonzero(unclassified | (np.max(np.abs(other_nu), axis=1) > PROB_TOL) | (other_lamd > PROB_TOL))
    if bad.size:
        c = bad[0]
        raise OrthogonalityError(f"cell {c} center not classified by exactly one tag" if unclassified[c]
                                 else f"orthogonality violated on cell {c}")
    atoms, rows = [], []
    for src, inside, label in ((psi, in_S, "S"), (theta, in_T, "T")):
        for i, (p, m) in enumerate(src.lam_atoms):
            if inside(p):
                atoms.append((p, m))
                rows.append(src.nu_inf_atoms[i])
            elif m > PROB_TOL:
                raise OrthogonalityError(f"atom at {p} of the {label}-factor lies outside {label}")
    return dataclasses.replace(
        psi, nu=nu, lam_density=lamd, lam_atoms=tuple(atoms),
        nu_inf_cells=np.where(s[:, None], psi.nu_inf_cells, theta.nu_inf_cells),
        nu_inf_atoms=np.array(rows).reshape(len(atoms), psi.sphere_grid.shape[0]), underlying=None)


# ---------------------------------------------------------------------------
# moments


def first_moment(gym: GenYoungMeasure) -> DiscreteMeasure:
    """Center of mass: <nu_x, id> dx + <nu_inf_x, id> dlam, a matrix measure."""
    A = gym.matrix_grid.reshape(gym.matrix_grid.shape[0], -1)
    S = gym.sphere_grid.reshape(gym.sphere_grid.shape[0], -1)
    M, N = gym.dims
    dens = (gym.nu @ A) + gym.lam_density[:, None] * (gym.nu_inf_cells @ S)
    atoms = []
    for i, (p, m) in enumerate(gym.lam_atoms):
        v = (gym.nu_inf_atoms[i] @ S).reshape(M, N)
        mv = float(mat_norm(v))
        if m * mv > 0:
            atoms.append(Atom(p, m * mv, v / mv))
    return DiscreteMeasure(gym.mesh, dens.reshape(gym.mesh.ncells, M, N), tuple(atoms))


def atom_moment(gym: GenYoungMeasure, i: int) -> np.ndarray:
    """<nu_inf, id> at the i-th lam atom (an M x N matrix)."""
    S = gym.sphere_grid.reshape(gym.sphere_grid.shape[0], -1)
    M, N = gym.dims
    return (gym.nu_inf_atoms[i] @ S).reshape(M, N)


def boundary_rank_one_report(gym: GenYoungMeasure) -> list[dict]:
    """Check <nu_inf, id> = a x normal at boundary atoms of lam (`normal_projection`)."""
    out = []
    for i in gym.boundary_atom_indices():
        p, m = gym.lam_atoms[i]
        if m <= 0:
            continue
        _, residual = normal_projection(atom_moment(gym, i), gym.mesh.outer_normal(p))
        out.append({"point": p, "ok": residual <= RANK_ONE_TOL, "residual": residual})
    return out


# ---------------------------------------------------------------------------
# DiPerna-Majda conversion


@dataclass(frozen=True)
class DiPernaMajdaMeasure:
    """(sigma, nuhat): sigma >= 0 on the closure, nuhat probabilities on the
    sphere-compactified matrix ball (interior samples + sphere samples)."""

    mesh: IntervalMesh | TriMesh
    matrix_grid: np.ndarray
    sphere_grid: np.ndarray
    sigma_density: np.ndarray  # (ncells,)
    sigma_atoms: tuple[tuple, ...]  # ((point, mass), ...)
    nuhat_interior: np.ndarray  # (ncells, K) weights on d(matrix_grid)
    nuhat_sphere: np.ndarray  # (ncells, S)
    nuhat_atom_sphere: np.ndarray  # (natoms, S)

    def __post_init__(self):
        rows = self.nuhat_interior.sum(axis=1) + self.nuhat_sphere.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ValueError("nuhat rows must sum to 1")
        if np.min(self.sigma_density) < -PROB_TOL:
            raise ValueError("sigma must be nonnegative")

    def pairing(self, g: Callable, v: Integrand) -> float:
        if v.recession is None:
            raise ValueError("recession required")
        vv = np.asarray(v(self.matrix_grid)) / (1.0 + mat_norm(self.matrix_grid))
        vinf = np.asarray(v.recession.on_sphere(self.sphere_grid))
        cell_g = self.mesh.cell_integrals(g)
        total = float((cell_g * self.sigma_density) @ (self.nuhat_interior @ vv + self.nuhat_sphere @ vinf))
        for i, (p, m) in enumerate(self.sigma_atoms):
            total += _eval_at_point(g, p) * m * float(self.nuhat_atom_sphere[i] @ vinf)
        return total

    def to_record(self) -> dict:
        return {
            "mesh": self.mesh.to_record(),
            "matrix_grid": self.matrix_grid.tolist(),
            "sphere_grid": self.sphere_grid.tolist(),
            "sigma_density": self.sigma_density.tolist(),
            "sigma_atoms": [[np.asarray(p).tolist(), m] for p, m in self.sigma_atoms],
            "nuhat_interior": self.nuhat_interior.tolist(),
            "nuhat_sphere": self.nuhat_sphere.tolist(),
            "nuhat_atom_sphere": self.nuhat_atom_sphere.tolist(),
        }

    @staticmethod
    def from_record(rec: dict) -> "DiPernaMajdaMeasure":
        atoms = tuple((_point_from(p), float(m)) for p, m in rec["sigma_atoms"])
        return DiPernaMajdaMeasure(
            mesh_from_record(rec["mesh"]),
            np.asarray(rec["matrix_grid"], dtype=float),
            np.asarray(rec["sphere_grid"], dtype=float),
            np.asarray(rec["sigma_density"], dtype=float),
            atoms,
            np.asarray(rec["nuhat_interior"], dtype=float),
            np.asarray(rec["nuhat_sphere"], dtype=float),
            np.asarray(rec["nuhat_atom_sphere"], dtype=float).reshape(len(atoms), len(rec["sphere_grid"])),
        )


def to_diperna_majda(gym: GenYoungMeasure) -> DiPernaMajdaMeasure:
    """sigma = (1 + <nu,|.|>) L + lam; nuhat splits sigma-mass between the
    compactified interior (oscillation) and the sphere at infinity."""
    w = 1.0 + mat_norm(gym.matrix_grid)  # (K,)
    sig_dens = gym.nu @ w + gym.lam_density
    interior = gym.nu * w[None, :] / sig_dens[:, None]
    sphere = gym.nu_inf_cells * (gym.lam_density / sig_dens)[:, None]
    return DiPernaMajdaMeasure(
        gym.mesh,
        gym.matrix_grid,
        gym.sphere_grid,
        sig_dens,
        tuple(gym.lam_atoms),
        interior,
        sphere,
        gym.nu_inf_atoms.copy(),
    )


def from_diperna_majda(dm: DiPernaMajdaMeasure) -> GenYoungMeasure:
    w = 1.0 + mat_norm(dm.matrix_grid)
    lebesgue_frac = dm.nuhat_interior @ (1.0 / w)  # = dL/dsigma per cell
    if np.any((lebesgue_frac <= 0) & (dm.nuhat_interior.sum(axis=1) > 0)):
        raise ValueError("inversion error: sigma has no density where nuhat is nontrivial")
    if np.any(lebesgue_frac <= 0):
        raise ValueError("inversion error: sigma must dominate Lebesgue on every cell")
    nu = (dm.nuhat_interior / w[None, :]) / lebesgue_frac[:, None]
    lam_density = dm.sigma_density * dm.nuhat_sphere.sum(axis=1)
    nic = dm.nuhat_sphere.copy()
    carrying = lam_density > 0
    nic[carrying] /= dm.nuhat_sphere.sum(axis=1)[carrying, None]
    S = dm.sphere_grid.shape[0]
    nic[~carrying] = 1.0 / S
    return GenYoungMeasure(
        dm.mesh,
        dm.matrix_grid,
        nu,
        lam_density,
        tuple(dm.sigma_atoms),
        dm.sphere_grid,
        nic,
        dm.nuhat_atom_sphere.copy(),
    )


# ---------------------------------------------------------------------------
# characterization and traces


def default_quasiconvex_family(dims=(1, 1)) -> list[Integrand]:
    """Convex catalog members (hence quasiconvex) with recession functions."""
    M, N = dims
    fam = [make_integrand("abs", dims), make_integrand("euclid_sqrt1p", dims)]
    if dims == (1, 1):
        fam.append(make_integrand("id"))
        fam.append(make_integrand("linear_form:-1", dims))
    else:
        for k in range(M * N):
            coeffs = ["0"] * (M * N)
            coeffs[k] = "1"
            fam.append(make_integrand("linear_form:" + ",".join(coeffs), dims))
            coeffs[k] = "-1"
            fam.append(make_integrand("linear_form:" + ",".join(coeffs), dims))
    return fam


def default_qslb_family(rho, dims=(1, 1)) -> list[HomogeneousIntegrand]:
    """1-homogeneous integrands known to be quasi-sublinear from below at the
    normal rho: nonnegative ones, and for N = 2 the forms vanishing on a x rho."""
    fam = [hom_abs(dims)]
    M, N = dims
    if N == 2:
        rho = np.asarray(rho, dtype=float)
        tau = np.array([-rho[1], rho[0]])
        for i in range(M):
            a = np.zeros(M)
            a[i] = 1.0
            fam.append(hom_linear(np.outer(a, tau), dims))
            fam.append(hom_linear(-np.outer(a, tau), dims))
    return fam


def check_characterization(gym: GenYoungMeasure, u: BVField) -> dict:
    """Verify the four defining conditions of a gradient Young measure.

    (i) finite mass; (ii) per-cell Jensen inequality against the
    `default_quasiconvex_family` with at most one exceptional cell; (iii) the
    singular inequality between Du^s and the interior concentration; (iv)
    nonnegativity of <nu_inf, v_inf> at boundary atoms for the
    `default_qslb_family` at the local normal.  Each inequality may fail by
    CHARACTERIZATION_TOL.
    """
    family = default_quasiconvex_family(gym.dims)

    report: dict = {}
    mass = gym.mass_norm()
    report["i"] = {"pass": bool(np.isfinite(mass)), "value": mass}

    grads = u.derivative()
    slopes = grads.density  # (ncells, M, N)
    worst_ii = np.inf
    bad_cells = []
    vinfs = {}
    for v in family:
        vv = np.asarray(v(gym.matrix_grid))
        vinf = np.asarray(v.recession.on_sphere(gym.sphere_grid))
        vinfs[v.name] = vinf
        lhs = np.asarray(v(slopes))
        rhs = gym.nu @ vv + gym.lam_density * (gym.nu_inf_cells @ vinf)
        margins = rhs - lhs
        worst_ii = min(worst_ii, float(np.min(margins)))
        bad_cells += list(np.nonzero(margins < -CHARACTERIZATION_TOL)[0])
    bad_cells = sorted(set(int(c) for c in bad_cells))
    report["ii"] = {
        "pass": len(bad_cells) <= 1,
        "worst": worst_ii,
        "violating_cells": bad_cells,
    }

    # (iii) at each interior jump of u or lam-atom location, against all lam-atoms there
    du_atoms = {_key(a.point): a for a in grads.interior_atoms()}
    bidx = gym.boundary_atom_indices()  # ascending; (iv) walks them in this order
    lam_at: dict = {}
    for i, (p, _) in enumerate(gym.lam_atoms):
        if i not in bidx:
            lam_at.setdefault(_key(p), []).append(i)
    worst_iii = np.inf
    for key in lam_at.keys() | du_atoms.keys():
        at = du_atoms.get(key)
        for v in family:
            lhs = float(v.recession.on_sphere(np.asarray(at.direction))) * at.mass if at else 0.0
            rhs = sum(float(gym.nu_inf_atoms[i] @ vinfs[v.name]) * gym.lam_atoms[i][1] for i in lam_at.get(key, ()))
            worst_iii = min(worst_iii, rhs - lhs)
    report["iii"] = {"pass": bool(worst_iii >= -CHARACTERIZATION_TOL),
                     "worst": worst_iii if np.isfinite(worst_iii) else 0.0}

    worst_iv = np.inf
    bad_iv = []
    for i in bidx:
        p, m = gym.lam_atoms[i]
        if m <= CHARACTERIZATION_TOL:
            continue  # exceptional sets carry zero lam-mass
        rho = gym.mesh.outer_normal(p)
        for h in default_qslb_family(rho, gym.dims):
            val = float(gym.nu_inf_atoms[i] @ np.asarray(h.on_sphere(gym.sphere_grid)))
            worst_iv = min(worst_iv, val)
            if val < -CHARACTERIZATION_TOL:
                bad_iv.append({"point": p, "integrand": h.name, "value": val})
    report["iv"] = {
        "pass": not bad_iv,
        "worst": worst_iv if np.isfinite(worst_iv) else 0.0,
        "violations": bad_iv,
    }
    report["all_pass"] = all(report[k]["pass"] for k in ("i", "ii", "iii", "iv"))
    return report


def gym_traces(gym: GenYoungMeasure) -> dict:
    """Inner trace (of the underlying deformation) and measure-valued outer
    trace; they differ by the normal-projected boundary concentration."""
    u = gym.underlying
    if u is None:
        raise ValueError("not a gradient GYM: no underlying deformation available")
    if gym.mesh.dim != 1:
        raise ValueError("traces implemented on interval meshes")
    inner, outer = fold_traces(
        u, [(gym.lam_atoms[i][0], gym.lam_atoms[i][1] * atom_moment(gym, i)) for i in gym.boundary_atom_indices()]
    )
    return {"inner": inner, "outer": outer}
