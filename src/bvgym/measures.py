"""Discrete Radon measures and BV-like mesh fields.

A measure is a piecewise-constant density on a mesh plus a finite list of
atoms located in the closed domain; atoms carry a nonnegative mass and a unit
polar direction, so the singular part of a derivative is stored in polar
form from the start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .meshes import _GL_W, _GL_X, IntervalMesh, TriMesh, mesh_from_record

RANK_ONE_TOL = 1e-8  # largest normal_projection residual of a rank-one boundary value a x rho


@dataclass(frozen=True)
class Atom:
    point: float | np.ndarray
    mass: float
    direction: float | np.ndarray

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError("atom mass must be nonnegative")
        d = np.asarray(self.direction, dtype=float)
        n = np.sqrt(np.sum(d * d))
        if self.mass > 0 and abs(n - 1.0) > 1e-9:
            raise ValueError("atom direction must have unit norm")

    @property
    def value(self) -> np.ndarray:
        return self.mass * np.asarray(self.direction, dtype=float)


@dataclass(frozen=True)
class DiscreteMeasure:
    """density (ncells, *value shape) against Lebesgue plus atoms on the closure."""

    mesh: IntervalMesh | TriMesh
    density: np.ndarray
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        if d.shape[0] != self.mesh.ncells:
            raise ValueError("density must have one entry per cell")
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def integrate(self, g: Callable) -> np.ndarray | float:
        """Integral of a continuous scalar function against the measure."""
        return self._integrate_cells(self.mesh.cell_integrals(g), g)

    def _integrate_cells(self, cell: np.ndarray, g: Callable) -> np.ndarray | float:
        """`integrate(g)` given `cell = self.mesh.cell_integrals(g)`, for callers that reuse it."""
        total = np.asarray(np.tensordot(cell, self.density, axes=(0, 0)), dtype=float)
        for a in self.atoms:
            total = total + _eval_at_point(g, a.point) * a.value
        if total.shape == ():
            return float(total)
        return total

    def total_variation(self) -> float:
        dens = self.density.reshape(self.mesh.ncells, -1)
        tv = float(np.sum(np.linalg.norm(dens, axis=1) * self.mesh.cell_volumes))
        return tv + sum(a.mass for a in self.atoms)

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        if other.mesh is not self.mesh and not _same_mesh(self.mesh, other.mesh):
            raise ValueError("measures live on different meshes")
        return DiscreteMeasure(self.mesh, self.density + other.density, self.atoms + other.atoms)

    def interior_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if not _on_boundary(self.mesh, a.point))

    def boundary_atoms(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.atoms if _on_boundary(self.mesh, a.point))

    def to_record(self) -> dict:
        return record(self)

    @staticmethod
    def from_record(rec: dict) -> "DiscreteMeasure":
        return read_record(DiscreteMeasure, rec)


def _eval_at_point(g: Callable, p) -> float:
    """g at one atom location: a 2D point goes in as a batch (1, 2), the point
    arrays that `TriMesh.cell_integrals` passes; a 1D point as a scalar array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 1:
        return float(np.asarray(g(arr.reshape(1, -1))).ravel()[0])
    return float(g(arr))


# ---------------------------------------------------------------------------
# JSON records: an object's dataclass fields by name


def record(x):
    """The JSON form of x: a dataclass as a dict of its fields by name (a None field left out),
    a mesh by its own `to_record`, a dict with its keys as strings, tuples, lists and arrays
    as lists."""
    if isinstance(x, (IntervalMesh, TriMesh)):
        return x.to_record()
    if is_dataclass(x):
        return {f.name: record(v) for f in fields(x) if (v := getattr(x, f.name)) is not None}
    if isinstance(x, dict):
        return {str(k): record(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [record(v) for v in x]
    return np.asarray(x).tolist()


def read_record(cls, rec: dict):
    """The `cls` whose `record` is rec: `mesh` by `mesh_from_record`, `underlying` (the one
    key that may be missing) as a `BVField`, `atoms` as `Atom`s, `lam_atoms` and `sigma_atoms`
    as (point, mass) pairs, any other key as a float or a float array.  A missing key is a
    KeyError; a TypeError or ValueError while reading a key is a ValueError naming it."""
    def read(name, v):
        if name == "mesh":
            return mesh_from_record(v)
        if name == "underlying":
            return read_record(BVField, v)
        if name == "atoms":
            return tuple(read_record(Atom, a) for a in v)
        if name in ("lam_atoms", "sigma_atoms"):
            return tuple((read("point", p), float(m)) for p, m in v)
        arr = np.asarray(v, dtype=float)
        return float(arr) if arr.ndim == 0 else arr

    out = {}
    for f in fields(cls):
        if f.name != "underlying" or f.name in rec:
            try:
                out[f.name] = read(f.name, rec[f.name])
            except (TypeError, ValueError) as e:
                raise ValueError(f"record key {f.name!r}: {e}") from None
    return cls(**out)


def _key(point):
    """Hashable atom location: the float in 1D, coordinates rounded to 1e-12 in 2D."""
    arr = np.asarray(point, dtype=float)
    return float(arr) if arr.ndim == 0 else tuple(np.round(arr, 12).tolist())


def group_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) of the rows of X as `np.unique(X, axis=0, return_index=True,
    return_inverse=True)` gives them: groups of equal rows in lexicographic order,
    the first row of each group, and the group of every row.  Equal rows
    (-0.0 == 0.0) are neighbours in one stable lexicographic sort; a row holding
    NaN equals none."""
    X = X.reshape(X.shape[0], np.prod(X.shape[1:], dtype=int))
    order = np.lexsort(X.T[::-1])
    rows = X[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    group = np.empty(order.size, dtype=int)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _same_mesh(m1, m2) -> bool:
    if m1.dim != m2.dim:
        return False
    if m1.dim == 1:
        return m1.nodes.shape == m2.nodes.shape and np.allclose(m1.nodes, m2.nodes)
    return m1.vertices.shape == m2.vertices.shape and np.allclose(m1.vertices, m2.vertices)


def _on_boundary(mesh, point) -> bool:
    """Within 1e-12 of an endpoint in 1D, within 1e-9 of a boundary vertex in 2D."""
    if mesh.dim == 1:
        x = float(np.asarray(point))
        return abs(x - mesh.a) <= 1e-12 or abs(x - mesh.b) <= 1e-12
    p = np.asarray(point, dtype=float)
    bverts = mesh.vertices[mesh.boundary_nodes]
    return bool(np.min(np.linalg.norm(bverts - p[None], axis=1)) <= 1e-9)


def normal_projection(A, rho) -> tuple[np.ndarray, float]:
    """Split a boundary value A (M x N) into a = A rho and the residual
    |A - a x rho| / max(1, |A|); A has the rank-one form a x rho of a boundary
    part of a gradient measure iff the residual is at most RANK_ONE_TOL."""
    A = np.asarray(A, dtype=float)
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    a = A @ rho
    return a, float(np.linalg.norm(A - np.outer(a, rho)) / max(1.0, np.linalg.norm(A)))


def fold_traces(u: BVField, boundary_values) -> tuple[dict, dict]:
    """Inner and outer traces of a 1D field: the outer trace at an endpoint is
    the inner one plus normal * value for each boundary (point, M x 1 value)
    whose outer normal points to that endpoint."""
    mesh = u.mesh
    lo, hi = u.trace()
    inner = {mesh.a: lo.copy(), mesh.b: hi.copy()}
    outer = {k: v.copy() for k, v in inner.items()}
    for point, value in boundary_values:
        rho = mesh.outer_normal(point)
        x = mesh.a if rho < 0 else mesh.b
        outer[x] = outer[x] + rho * np.asarray(value).reshape(-1, 1)[:, 0]
    return inner, outer


def weakstar_gap(
    mu_seq: Sequence[DiscreteMeasure], mu: DiscreteMeasure, tests: Sequence[Callable]
) -> float:
    """Max pairing gap between the tail of a sequence and its candidate limit."""
    if not mu_seq:
        raise ValueError("empty sequence")
    for m in mu_seq:
        if m.mesh.dim != mu.mesh.dim:
            raise ValueError("mismatched domains")
        if m.mesh.dim == 1 and not (
            np.isclose(m.mesh.a, mu.mesh.a) and np.isclose(m.mesh.b, mu.mesh.b)
        ):
            raise ValueError("mismatched domains")
    last = mu_seq[-1]
    gap = 0.0
    for g in tests:
        diff = np.asarray(last.integrate(g)) - np.asarray(mu.integrate(g))
        gap = max(gap, float(np.sqrt(np.sum(np.square(diff)))))
    return gap


# ---------------------------------------------------------------------------
# 1D BV fields: piecewise linear inside cells, jumps allowed at interfaces


@dataclass(frozen=True)
class BVField:
    """Vector-valued BV function on an interval mesh.

    `values[c, 0]` / `values[c, 1]` hold the one-sided values at the left and
    right end of cell c; mismatches at interior interfaces are jumps.
    """

    mesh: IntervalMesh
    values: np.ndarray  # (ncells, 2) scalar or (ncells, 2, M)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.mesh.ncells or v.shape[1] != 2:
            raise ValueError("values must have shape (ncells, 2, ...)")
        object.__setattr__(self, "values", v)

    @property
    def ncomp(self) -> int:
        return 1 if self.values.ndim == 2 else self.values.shape[2]

    @staticmethod
    def from_nodal(mesh: IntervalMesh, nodal) -> "BVField":
        nodal = np.asarray(nodal, dtype=float)
        vals = np.stack([nodal[:-1], nodal[1:]], axis=1)
        return BVField(mesh, vals)

    @staticmethod
    def constant(mesh: IntervalMesh, c) -> "BVField":
        c = np.asarray(c, dtype=float)
        shape = (mesh.ncells, 2) + c.shape
        return BVField(mesh, np.broadcast_to(c, shape).copy())

    @staticmethod
    def affine(mesh: IntervalMesh, slope, offset) -> "BVField":
        nodal = np.multiply.outer(mesh.nodes, np.asarray(slope, dtype=float)) + np.asarray(offset)
        return BVField.from_nodal(mesh, nodal)

    @staticmethod
    def step(mesh: IntervalMesh, x0: float, left, right) -> "BVField":
        """Piecewise constant with a jump at the mesh node nearest to x0."""
        i = int(np.argmin(np.abs(mesh.nodes - x0)))
        if i == 0 or i == mesh.nodes.size - 1:
            raise ValueError("step location must be an interior node")
        left = np.asarray(left, dtype=float)
        vals = np.broadcast_to(left, (mesh.ncells, 2) + left.shape).copy()
        vals[i:] = np.asarray(right, dtype=float)
        return BVField(mesh, vals)

    def slopes(self) -> np.ndarray:
        h = self.mesh.cell_volumes
        d = self.values[:, 1] - self.values[:, 0]
        return d / (h[:, None] if d.ndim == 2 else h)

    def jumps(self) -> list[tuple[float, np.ndarray]]:
        """(node, jump) at interior nodes where |jump| > 0; a jump whose squared
        norm underflows counts as none, as np.linalg.norm(jump) == 0 there."""
        d = (self.values[1:, 0] - self.values[:-1, 1]).reshape(self.mesh.ncells - 1, self.ncomp)
        found = np.nonzero(np.sum(d * d, axis=1) > 0)[0]
        return [(float(self.mesh.nodes[i + 1]), d[i]) for i in found]

    def derivative(self) -> DiscreteMeasure:
        """Derivative measure: cellwise gradient density plus jump atoms.

        Densities are (M, 1) matrices; a jump j at an interface contributes an
        atom with mass |j| and polar direction (j x normal)/|j| with the 1D
        "normal" +1, i.e. direction j/|j|.
        """
        slopes = np.atleast_2d(self.slopes().T).T  # (ncells, M)
        dens = slopes[:, :, None]  # (ncells, M, 1)
        atoms = []
        for x, j in self.jumps():
            m = float(np.linalg.norm(j))
            atoms.append(Atom(x, m, (j / m)[:, None]))
        return DiscreteMeasure(self.mesh, dens, tuple(atoms))

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """One-sided limits of the field at the two endpoints."""
        return np.atleast_1d(self.values[0, 0]), np.atleast_1d(self.values[-1, 1])

    def eval_cells(self, s: np.ndarray) -> np.ndarray:
        """Values at barycentric coordinates s in every cell; s (q,) -> (ncells, q, ...)."""
        left = self.values[:, 0]
        right = self.values[:, 1]
        if left.ndim == 1:
            return left[:, None] * (1 - s)[None, :] + right[:, None] * s[None, :]
        return left[:, None, :] * (1 - s)[None, :, None] + right[:, None, :] * s[None, :, None]

    def l1_norm(self) -> float:
        vals = self.eval_cells(_GL_X)
        mags = np.abs(vals) if vals.ndim == 2 else np.linalg.norm(vals, axis=2)
        return float(np.sum(mags @ _GL_W * self.mesh.cell_volumes))

    def mean(self) -> np.ndarray:
        avg = 0.5 * (self.values[:, 0] + self.values[:, 1])
        vol = self.mesh.cell_volumes
        w = vol / vol.sum()
        return np.atleast_1d(np.tensordot(w, avg, axes=(0, 0)))

    def integrate_against(self, g: Callable) -> np.ndarray:
        """Exact integral of g(x) u(x) dx for polynomial g (fixed Gauss rule)."""
        left = self.mesh.nodes[:-1][:, None]
        h = self.mesh.cell_volumes[:, None]
        pts = left + h * _GL_X[None, :]
        gv = np.asarray(g(pts))
        uv = self.eval_cells(_GL_X)
        if uv.ndim == 2:
            return np.atleast_1d(float(np.sum((gv * uv) @ _GL_W * self.mesh.cell_volumes)))
        return np.tensordot((gv[:, :, None] * uv) * _GL_W[None, :, None], self.mesh.cell_volumes, axes=(0, 0)).sum(
            axis=0
        )

    def __add__(self, other: "BVField") -> "BVField":
        if not _same_mesh(self.mesh, other.mesh):
            raise ValueError("fields live on different meshes")
        return BVField(self.mesh, self.values + other.values)

    def to_record(self) -> dict:
        return record(self)

    @staticmethod
    def from_record(rec: dict) -> "BVField":
        return read_record(BVField, rec)


# ---------------------------------------------------------------------------
# 2D: continuous P1 fields on a triangulated disk


@dataclass(frozen=True)
class DiskField:
    """A continuous P1 field on a triangulation (the disk, or a jqcb counterexample's half-ball)."""

    mesh: TriMesh
    values: np.ndarray  # (nv,) or (nv, M)

    def derivative(self) -> DiscreteMeasure:
        grads = self.mesh.gradients_of(self.values)  # (nt, M, 2)
        return DiscreteMeasure(self.mesh, grads)


# ---------------------------------------------------------------------------
# boundary/interior splitting of null sequences


def decompose_boundary_interior(
    fields: Sequence[BVField],
    r_schedule: Sequence[float],
) -> tuple[list[BVField], list[BVField]]:
    """Split an L1-null sequence into boundary collars and an interior rest.

    The k-th field is cut at the mesh nodes nearest to a + r_k and b - r_k;
    the collar part c_k carries the variation inside the collars (shifted to
    vanish at the cut), the rest d_k is frozen there, so per cell
    |Dc_k| + |Dd_k| = |Du_k| exactly and Dd_k never charges the boundary.
    The last field's L1 norm must be at most max(1e-2, half the first one's).
    """
    norms = [u.l1_norm() for u in fields]
    if norms and norms[-1] > max(1e-2, 0.5 * norms[0]):
        raise ValueError("decomposition requires null limit")
    cs, ds = [], []
    for k, u in enumerate(fields):
        r = float(r_schedule[min(k, len(r_schedule) - 1)])
        mesh = u.mesh
        ia = int(np.argmin(np.abs(mesh.nodes - (mesh.a + r))))
        ib = int(np.argmin(np.abs(mesh.nodes - (mesh.b - r))))
        ia = max(ia, 1)
        ib = min(max(ib, ia), mesh.nodes.size - 2)
        cv = np.zeros_like(u.values)
        dv = u.values.copy()
        left_ref = u.values[ia - 1, 1]
        right_ref = u.values[ib, 0]
        cv[:ia] = u.values[:ia] - left_ref
        dv[:ia] = left_ref
        cv[ib:] = u.values[ib:] - right_ref
        dv[ib:] = right_ref
        cs.append(BVField(mesh, cv))
        ds.append(BVField(mesh, dv))
    return cs, ds


def charge_profile(fields: Sequence[BVField], radii: Sequence[float]) -> np.ndarray:
    """sup_k |Du_k| of the boundary collar of radius r, for each r."""
    out = []
    for r in radii:
        worst = 0.0
        for u in fields:
            mu = u.derivative()
            mesh = u.mesh
            centers = mesh.cell_centers
            mask = (centers < mesh.a + r) | (centers > mesh.b - r)
            dens = mu.density.reshape(mesh.ncells, -1)
            tv = float(np.sum(np.linalg.norm(dens[mask], axis=1) * mesh.cell_volumes[mask]))
            for a in mu.interior_atoms():
                x = float(np.asarray(a.point))
                if x < mesh.a + r or x > mesh.b - r:
                    tv += a.mass
            worst = max(worst, tv)
        out.append(worst)
    return np.array(out)
