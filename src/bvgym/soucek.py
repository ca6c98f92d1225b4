"""Pairs (u, alpha) closing W^{1,1} under weak* convergence of gradients.

`alpha` is a matrix-valued measure on the closed domain that restricts to the
derivative of u inside; its boundary part records concentration that the BV
derivative cannot see.  Green's formula defines a measure-valued outer trace
whose difference to the BV (inner) trace is exactly the boundary part of
alpha projected along the outer normal, which forces the rank-one structure
a(x) x normal(x) of boundary atoms.

1D is closed form; 2D supports the unit disk (identified with its polygonal
mesh so that the Green identity is exact for piecewise-affine data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gym import GenYoungMeasure, check_characterization, first_moment, reconstruct_underlying
from .integrands import unit_matrices
from .measures import (RANK_ONE_TOL, Atom, BVField, DiscreteMeasure, DiskField, _key, fold_traces, group_rows,
                       normal_projection, weakstar_gap)
from .meshes import _GL_W, _GL_X, _TRI_BARY, _TRI_W

GREEN_TOL = 1e-9
PAIR_TOL = 1e-12


class InconsistentPairError(ValueError):
    pass


@dataclass(frozen=True)
class SoucekPair:
    u: BVField | DiskField
    alpha: DiscreteMeasure

    def __post_init__(self):
        du = self.u.derivative()
        if not np.allclose(du.density, self.alpha.density, atol=PAIR_TOL, rtol=0.0):
            raise InconsistentPairError("alpha must equal the derivative of u inside the domain")
        dint = {_key(a.point): a for a in du.interior_atoms()}
        aint = {_key(a.point): a for a in self.alpha.interior_atoms()}
        if set(dint) != set(aint):
            raise InconsistentPairError("interior atoms of alpha must match the jumps of u")
        for k, a in dint.items():
            if abs(a.mass - aint[k].mass) > PAIR_TOL or np.max(
                np.abs(np.asarray(a.direction) - np.asarray(aint[k].direction))
            ) > PAIR_TOL:
                raise InconsistentPairError("interior atoms of alpha must match the jumps of u")

    @property
    def mesh(self):
        return self.u.mesh

    def boundary_part(self) -> tuple[Atom, ...]:
        return self.alpha.boundary_atoms()

    def to_record(self) -> dict:
        beta = outer_trace(self)
        return {
            "u": self.u.to_record(),
            "alpha": self.alpha.to_record(),
            "beta": beta.to_record(),
        }


def soucek_pair(u: BVField | DiskField, boundary_values: dict | None = None) -> SoucekPair:
    """Build (u, alpha) from a field and boundary atom values of alpha.

    `boundary_values` maps a boundary location to the matrix value of the
    alpha-atom there (an M x N matrix, or a scalar in 1D).
    """
    alpha = u.derivative()
    atoms = list(alpha.atoms)
    M = alpha.density.shape[1]
    N = alpha.density.shape[2]
    for point, val in (boundary_values or {}).items():
        V = np.asarray(val, dtype=float).reshape(M, N)
        m = float(np.sqrt(np.sum(V * V)))
        if m > 0:
            atoms.append(Atom(point, m, V / m))
    return SoucekPair(u, DiscreteMeasure(alpha.mesh, alpha.density, tuple(atoms)))


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TracePair:
    """Inner trace (a function on the boundary) and outer trace (a measure).

    1D: both are dictionaries endpoint -> R^M value; the outer trace of an
    endpoint atom is folded into the point value.  2D: `inner`/`outer_density`
    are nodal values along the boundary polygon and `outer_atoms` lists
    (vertex location, R^M weight) point masses.
    """

    inner: dict
    outer: dict
    outer_atoms: tuple = ()
    green_residual: float = 0.0

    def to_record(self) -> dict:
        return {
            "inner": {str(k): np.asarray(v).tolist() for k, v in self.inner.items()},
            "outer": {str(k): np.asarray(v).tolist() for k, v in self.outer.items()},
            "outer_atoms": [[np.asarray(p).tolist(), np.asarray(w).tolist()] for p, w in self.outer_atoms],
            "green_residual": self.green_residual,
        }


def _poly_basis_1d():
    """Monomials x^k with derivatives, k <= 4."""
    return [
        (lambda x, k=k: np.asarray(x, dtype=float) ** k, lambda x, k=k: k * np.asarray(x, dtype=float) ** (k - 1) if k else np.zeros_like(np.asarray(x, dtype=float)))
        for k in range(5)
    ]


def _harmonic_basis_2d():
    """Real/imaginary parts of z^k with gradients, k <= 4."""
    basis = []
    for k in range(5):
        for part in ("re",) if k == 0 else ("re", "im"):

            def phi(p, k=k, part=part):
                z = np.asarray(p)[..., 0] + 1j * np.asarray(p)[..., 1]
                w = z**k
                return np.real(w) if part == "re" else np.imag(w)

            def dphi(p, k=k, part=part):
                p = np.asarray(p, dtype=float)
                z = p[..., 0] + 1j * p[..., 1]
                w = k * z ** (k - 1) if k else np.zeros_like(z)
                # d(Re z^k) = (Re w, -Im w); d(Im z^k) = (Im w, Re w)
                if part == "re":
                    return np.stack([np.real(w), -np.imag(w)], axis=-1)
                return np.stack([np.imag(w), np.real(w)], axis=-1)

            basis.append((phi, dphi))
    return basis


def outer_trace(pair: SoucekPair) -> TracePair:
    """Outer trace via the Green identity; raises on a pair whose Green residual exceeds GREEN_TOL."""
    if pair.mesh.dim == 1:
        return _outer_trace_1d(pair)
    return _outer_trace_disk(pair)


def _outer_trace_1d(pair: SoucekPair) -> TracePair:
    u: BVField = pair.u
    mesh = u.mesh
    inner, outer = fold_traces(u, [(at.point, at.value) for at in pair.boundary_part()])
    residual = 0.0
    for phi, dphi in _poly_basis_1d():
        lhs = phi(mesh.b) * 1.0 * outer[mesh.b] + phi(mesh.a) * (-1.0) * outer[mesh.a]
        term_u = u.integrate_against(dphi)
        term_alpha = np.atleast_2d(pair.alpha.integrate(phi))[:, 0]
        residual = max(residual, float(np.max(np.abs(lhs - term_u - term_alpha))))
    if residual > GREEN_TOL:
        raise InconsistentPairError(f"inconsistent pair: Green residual {residual:.3e}")
    return TracePair(inner, outer, (), residual)


def _outer_trace_disk(pair: SoucekPair) -> TracePair:
    u: DiskField = pair.u
    mesh = u.mesh
    vals = np.asarray(u.values, dtype=float)
    if vals.ndim != 1:
        raise NotImplementedError("disk traces are implemented for scalar fields")
    inner_nodal = {int(i): vals[i] for i in mesh.boundary_nodes}
    atoms = []
    for at in pair.boundary_part():
        x = np.asarray(at.point, dtype=float)
        a, residual = normal_projection(at.value.reshape(1, 2), mesh.outer_normal(x))
        if residual > RANK_ONE_TOL:
            raise InconsistentPairError("boundary atom of alpha is not aligned with the normal")
        atoms.append((x, a))

    edges = mesh.boundary_edges()
    normals = mesh.boundary_edge_normals()
    lengths = mesh.boundary_edge_lengths()
    grads = mesh.gradients_of(vals)[:, 0, :]  # (nt, 2)
    p0 = mesh.vertices[edges[:, 0]]
    p1 = mesh.vertices[edges[:, 1]]
    residual = 0.0
    for phi, dphi in _harmonic_basis_2d():
        lhs = np.zeros(2)
        for q, w in zip(_GL_X, _GL_W):
            pts = (1 - q) * p0 + q * p1
            uvals = (1 - q) * vals[edges[:, 0]] + q * vals[edges[:, 1]]
            lhs += ((w * lengths * uvals * phi(pts))[:, None] * normals).sum(axis=0)
        for x, a in atoms:
            lhs = lhs + float(phi(x)) * mesh.outer_normal(x) * float(a[0])
        term_u = _int_u_gradphi(mesh, vals, dphi)
        term_alpha = np.einsum("t,td->d", mesh.cell_integrals(phi), grads)
        for at in pair.boundary_part():
            term_alpha = term_alpha + float(phi(np.asarray(at.point))) * at.value.reshape(2)
        residual = max(residual, float(np.max(np.abs(lhs - term_u - term_alpha))))
    if residual > GREEN_TOL:
        raise InconsistentPairError(f"inconsistent pair: Green residual {residual:.3e}")
    return TracePair(inner_nodal, dict(inner_nodal), tuple(atoms), residual)


def _int_u_gradphi(mesh, vals: np.ndarray, dphi) -> np.ndarray:
    """Exact integral of u * grad(phi) for P1 u and polynomial phi (deg <= 4)."""
    p = mesh.vertices[mesh.triangles]  # (nt,3,2)
    pts = np.einsum("qi,tid->tqd", _TRI_BARY, p)  # (nt,q,2)
    uq = np.einsum("qi,ti->tq", _TRI_BARY, vals[mesh.triangles])
    dq = dphi(pts.reshape(-1, 2)).reshape(mesh.ncells, _TRI_W.size, 2)
    return np.einsum("q,tq,tqd,t->d", _TRI_W, uq, dq, mesh.cell_volumes)


def side(pair: SoucekPair) -> SoucekPair:
    """The boundary-only remainder (0, alpha restricted to the boundary)."""
    mesh = pair.mesh
    if mesh.dim == 1:
        M = pair.alpha.density.shape[1]
        zero = BVField.constant(mesh, np.zeros(M)) if M > 1 else BVField.constant(mesh, 0.0)
    else:
        zero = DiskField(mesh, np.zeros(mesh.vertices.shape[0]))
    dens = np.zeros_like(pair.alpha.density)
    return SoucekPair(zero, DiscreteMeasure(mesh, dens, pair.boundary_part()))


def rank_one_boundary_check(pair: SoucekPair) -> bool:
    """Every boundary atom of alpha must be a(x) x normal(x) (`normal_projection`);
    in 1D every M x 1 value is."""
    return all(
        normal_projection(at.value, pair.mesh.outer_normal(at.point))[1] <= RANK_ONE_TOL
        for at in pair.boundary_part()
    )


# ---------------------------------------------------------------------------
# conversion to and from generalized Young measures


def from_gym(gym_measure) -> SoucekPair:
    """Center of mass of a gradient Young measure as a Soucek pair.

    Raises ValueError when the measure fails `check_characterization`."""
    u = gym_measure.underlying
    if u is None:
        u = reconstruct_underlying(gym_measure, anchor_mean=np.zeros(gym_measure.dims[0]))
    report = check_characterization(gym_measure, u)
    if not report["all_pass"]:
        failing = [k for k in ("i", "ii", "iii", "iv") if not report[k]["pass"]]
        raise ValueError(f"measure fails the gradient characterization: {failing}")
    alpha = first_moment(gym_measure)
    return SoucekPair(u, alpha)


def to_gym(pair: SoucekPair):
    """Dirac-type Young measure of a pair: (delta_{grad u}, |alpha^s|, delta_dir).

    The matrix grid holds the distinct cell densities and the sphere grid the
    distinct atom directions (one default point when there are no atoms); each
    row of nu and of nu_inf at the atoms is one-hot."""
    mesh = pair.mesh
    dens = pair.alpha.density  # (ncells, M, N)
    M, N = dens.shape[1], dens.shape[2]
    first, cell_k = group_rows(dens)
    atoms = pair.alpha.atoms
    if atoms:
        dirs = np.array([np.asarray(a.direction, dtype=float).reshape(M, N) for a in atoms])
        first_dir, atom_k = group_rows(dirs)
        sphere = dirs[first_dir]
    else:
        sphere, atom_k = unit_matrices((M, N), 2)[:1], np.zeros(0, dtype=int)
    S = sphere.shape[0]
    return GenYoungMeasure(
        mesh,
        dens[first],
        np.eye(first.size)[cell_k],
        np.zeros(mesh.ncells),
        tuple((a.point, a.mass) for a in atoms),
        sphere,
        np.full((mesh.ncells, S), 1.0 / S),
        np.eye(S)[atom_k],
        underlying=pair.u if isinstance(pair.u, BVField) else None,
    )


def weakstar_trace_continuity_test(pairs: Sequence[SoucekPair], limit: SoucekPair) -> dict:
    """Weak* continuity of the outer trace along a convergent sequence of pairs.

    Verifies weak* convergence of the alphas against the test functions 1 and
    x, then reports the pairing gap of the outer traces at the last index.
    """
    tests = [lambda x: np.ones_like(np.asarray(x, dtype=float)), lambda x: np.asarray(x, dtype=float)]
    alpha_gap = weakstar_gap([p.alpha for p in pairs], limit.alpha, tests)
    beta_k = outer_trace(pairs[-1])
    beta = outer_trace(limit)
    gap = 0.0
    for g in tests:
        acc = 0.0
        for x in beta.outer:
            xk = min(beta_k.outer, key=lambda y: abs(y - x))
            acc += float(np.max(np.abs(float(g(x)) * (beta_k.outer[xk] - beta.outer[x]))))
        gap = max(gap, acc)
    return {"alpha_gap": alpha_gap, "trace_gap": gap}
