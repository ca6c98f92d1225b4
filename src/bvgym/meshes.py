"""Interval and disk meshes with exact cell quadrature.

1D meshes are graded geometrically toward tagged boundary points so that
minimizing sequences can concentrate there.  2D meshes triangulate the unit
disk (a structured square grid mapped radially onto the disk); the disk is
identified with its polygonal mesh so that divergence/Green identities hold
to machine precision for piecewise-affine data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Gauss-Legendre nodes/weights on [0,1], exact for polynomials up to degree 11:
# np.polynomial.legendre.leggauss(6) mapped by x -> (x + 1) / 2, w -> w / 2, as
# literals: importing numpy.polynomial took every process about 6 ms (-X importtime).
_GL_X = np.array([0.03376524289842403, 0.16939530676686776, 0.38069040695840156,
                  0.6193095930415985, 0.8306046932331322, 0.9662347571015759])
_GL_W = np.array([0.08566224618958514, 0.18038078652406936, 0.23395696728634552,
                  0.23395696728634552, 0.18038078652406936, 0.08566224618958514])
# Cells per block of IntervalMesh.cell_integrals: a (6, block) temporary takes
# 192 KiB.  For x^2 on 40,000 cells the blocked sum took 1.17 ms against 4.50
# for one (ncells, 6) pass (blocks of 1,024 cells: 1.23 ms, 16,384: 1.60 ms);
# on 32 cells 11.1 us against 10.0 (timeit minima, 2-core VM, numpy 2.4).
_CELL_BLOCK = 4096

# Degree-5 symmetric triangle rule (7 points, barycentric coords and weights).
_S15 = np.sqrt(15.0)
_A1 = (6.0 + _S15) / 21.0
_A2 = (6.0 - _S15) / 21.0
_W1 = (155.0 + _S15) / 1200.0
_W2 = (155.0 - _S15) / 1200.0
_TRI_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [1 - 2 * _A1, _A1, _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [_A1, _A1, 1 - 2 * _A1],
        [1 - 2 * _A2, _A2, _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [_A2, _A2, 1 - 2 * _A2],
    ]
)
_TRI_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


@dataclass(frozen=True)
class IntervalMesh:
    """Partition of [a, b]; cells are the intervals between consecutive nodes."""

    nodes: np.ndarray
    graded_points: tuple[float, ...] = ()

    kind = "interval"
    dim = 1

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("interval mesh needs at least two nodes")
        if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
            raise ValueError("mesh nodes must be finite and strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def ncells(self) -> int:
        return self.nodes.size - 1

    @property
    def cell_volumes(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def cell_centers(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def outer_normal(self, x: float) -> float:
        if abs(x - self.a) <= abs(x - self.b):
            return -1.0
        return 1.0

    def cell_integrals(self, g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Per-cell integrals of a scalar function, Gauss quadrature per cell.

        Point-major in blocks of `_CELL_BLOCK` cells: g gets the flat points of a
        (6, block) array whose row q holds every cell's q-th Gauss point (a 2-D
        array could read as a batch of 2-D points), and the weighted rows, in our
        own buffer, are summed over axis 0.  That sum adds a cell's six terms in
        the order `.sum(axis=1)` adds a (cells, 6) row: the results are bit-identical.
        """
        h = self.cell_volumes
        x0 = self.nodes[:-1]
        out = np.empty(h.size)
        for i in range(0, h.size, _CELL_BLOCK):
            hb = h[i : i + _CELL_BLOCK]
            pts = x0[i : i + _CELL_BLOCK] + _GL_X[:, None] * hb
            vals = np.asarray(g(pts.ravel()), dtype=float).reshape(pts.shape)
            out[i : i + _CELL_BLOCK] = np.multiply(vals, _GL_W[:, None], out=pts).sum(axis=0) * hb
        return out

    def refine(self) -> "IntervalMesh":
        mid = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        nodes = np.sort(np.concatenate([self.nodes, mid]))
        return IntervalMesh(nodes, self.graded_points)

    def to_record(self) -> dict:
        return {"kind": "interval", "nodes": self.nodes.tolist(), "graded": list(self.graded_points)}


def interval_mesh(
    a: float = 0.0,
    b: float = 1.0,
    n: int = 16,
    grade_to: tuple[float, ...] = (),
    grade_levels: int = 40,
    extra_nodes: tuple[float, ...] = (),
) -> IntervalMesh:
    """Uniform n-cell mesh, geometrically refined toward the points in grade_to.

    Grading splits the cell adjacent to a tagged endpoint into `grade_levels`
    geometric layers of ratio 0.5, so the smallest cell has width
    (b-a)/n * 0.5**grade_levels.
    """
    if not b > a:
        raise ValueError("need b > a")
    if not n >= 1:
        raise ValueError(f"an interval mesh needs at least one cell, got n = {n}")
    nodes = [np.linspace(a, b, n + 1)]
    off = (b - a) / n * 0.5 ** np.arange(1, grade_levels + 1)
    for p in grade_to:
        at_a = np.isclose(p, a)
        if not (at_a or np.isclose(p, b)):
            raise ValueError("grading is supported at the endpoints only")
        nodes.append(p + off if at_a else p - off)
    extra = np.asarray(extra_nodes, dtype=float)
    nodes.append(extra[(a < extra) & (extra < b)])
    x = np.sort(np.concatenate(nodes))  # sorted and deduplicated below: a plain 1-D np.unique imports numpy.ma
    return IntervalMesh(x[np.append(True, x[1:] != x[:-1])], graded_points=tuple(grade_to))


def _edge_classes(triangles: np.ndarray):
    """(directed, first, cls, counts): the directed edges (a,b), (b,c), (c,a) of
    each triangle in order, and per undirected edge, numbered by first traversal,
    the index of that traversal, each directed edge's number, and its count."""
    directed = np.asarray(triangles, dtype=int)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    lo, hi = np.sort(directed, axis=1).T
    keys = lo * (int(hi.max(initial=0)) + 1) + hi
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    return directed, first[order], np.argsort(order)[inverse], counts[order]


def triangle_geometry(vertices: np.ndarray, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(areas (nt,), gradients of the three barycentric basis functions (nt, 3, 2))."""
    p = vertices[triangles]  # (nt,3,2)
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    grads = np.empty((triangles.shape[0], 3, 2))
    grads[:, 1, 0] = d2[:, 1] / det
    grads[:, 1, 1] = -d2[:, 0] / det
    grads[:, 2, 0] = -d1[:, 1] / det
    grads[:, 2, 1] = d1[:, 0] / det
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return 0.5 * np.abs(det), grads


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation; the domain is the polygon covered by the cells."""

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int
    boundary_nodes: np.ndarray  # int indices into vertices
    kind_label: str = "disk"

    dim = 2
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def kind(self) -> str:
        return self.kind_label

    @property
    def ncells(self) -> int:
        return self.triangles.shape[0]

    def _geometry(self):
        if "geometry" not in self._cache:
            self._cache["geometry"] = triangle_geometry(self.vertices, self.triangles)
        return self._cache["geometry"]

    @property
    def cell_volumes(self) -> np.ndarray:
        return self._geometry()[0]

    @property
    def basis_gradients(self) -> np.ndarray:
        return self._geometry()[1]

    @property
    def cell_centers(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    def cell_integrals(self, g) -> np.ndarray:
        p = self.vertices[self.triangles]  # (nt,3,2)
        pts = np.einsum("qi,tid->tqd", _TRI_BARY, p)
        vals = np.asarray(g(pts.reshape(-1, 2))).reshape(self.ncells, _TRI_W.size)
        return (vals * _TRI_W[None, :]).sum(axis=1) * self.cell_volumes

    def gradients_of(self, values: np.ndarray) -> np.ndarray:
        """Per-triangle gradient of a P1 field; values (nv,) or (nv, M) -> (nt, M, 2)."""
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        g = np.einsum("tiM,tid->tMd", v[self.triangles], self.basis_gradients)
        return np.ascontiguousarray(g)  # C order: numpy reductions group sums by layout

    def boundary_edges(self) -> np.ndarray:
        """(ne, 2) vertex index pairs on the boundary, counter-clockwise."""
        if "bedges" not in self._cache:
            directed, first, _, counts = _edge_classes(self.triangles)
            # orientation from the single adjacent triangle is counter-clockwise
            self._cache["bedges"] = directed[first[counts == 1]]
        return self._cache["bedges"]

    def boundary_edge_normals(self) -> np.ndarray:
        e = self.boundary_edges()
        tang = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        nrm = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)

    def boundary_edge_lengths(self) -> np.ndarray:
        e = self.boundary_edges()
        return np.linalg.norm(self.vertices[e[:, 1]] - self.vertices[e[:, 0]], axis=1)

    def outer_normal(self, x) -> np.ndarray:
        """Outward normal at a boundary location of the unit disk (x on the circle)."""
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        if r == 0:
            raise ValueError("not a boundary point")
        return x / r

    def refine(self) -> "TriMesh":
        """Midpoint subdivision; no reprojection, so P1 spaces nest across levels."""
        return self.refine_with_parents()[0]

    def refine_with_parents(self) -> tuple["TriMesh", np.ndarray]:
        """Refine and return (mesh, parents): parents[k] are the two coarse
        vertices averaging to fine vertex k (k, k for surviving vertices)."""
        nv = self.vertices.shape[0]
        directed, first, cls, _ = _edge_classes(self.triangles)
        ends = directed[first]  # each edge as first traversed
        mids = 0.5 * (self.vertices[ends[:, 0]] + self.vertices[ends[:, 1]])
        verts = np.concatenate([self.vertices, mids])
        parents = np.concatenate([np.stack([np.arange(nv)] * 2, axis=1), np.sort(ends, axis=1)])
        ab, bc, ca = (nv + cls).reshape(-1, 3).T
        a, b, c = self.triangles.T
        tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
        mesh = TriMesh(verts, tris, np.array([], dtype=int), self.kind_label)
        # the sorted boundary nodes, without the plain 1-D np.unique whose first call imports numpy.ma
        bnodes = np.flatnonzero(np.bincount(mesh.boundary_edges().ravel(), minlength=verts.shape[0]))
        return TriMesh(verts, tris, bnodes, self.kind_label, mesh._cache), parents

    def to_record(self) -> dict:
        return {
            "kind": self.kind_label,
            "vertices": self.vertices.tolist(),
            "triangles": self.triangles.tolist(),
            "boundary_nodes": self.boundary_nodes.tolist(),
        }


def _square_to_disk(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    norms = np.linalg.norm(p, axis=-1)
    mask = norms > 0
    chub = np.max(np.abs(p), axis=-1)
    out[mask] = p[mask] * (chub[mask] / norms[mask])[:, None]
    return out


def disk_mesh(level: int = 3, rotation: np.ndarray | None = None) -> TriMesh:
    """Structured triangulation of the unit disk.

    A (2n+1)^2 grid on [-1,1]^2 (n = 2**level) is squeezed radially onto the
    disk; grid lines through the origin stay straight, so any diameter along a
    grid axis is a union of mesh edges.  An optional rotation is applied to
    all vertices.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    n = 2**level
    xs = np.linspace(-1.0, 1.0, 2 * n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    verts = _square_to_disk(pts)
    if rotation is not None:
        verts = verts @ np.asarray(rotation, dtype=float).T

    # grid vertex (i, j) has index i * (2n+1) + j; each square (i, j) splits
    # along a consistent diagonal, which keeps refinement and halving lines clean
    a = (np.arange(2 * n)[:, None] * (2 * n + 1) + np.arange(2 * n)[None, :]).ravel()
    b, c, d = a + 2 * n + 1, a + 2 * n + 2, a + 1
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    on_b = (np.abs(gx) == 1.0) | (np.abs(gy) == 1.0)
    return TriMesh(verts, tris, np.flatnonzero(on_b))


def rotation_2d(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def rotation_to(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2D rotation R with w = R v (unit vectors)."""
    a = np.arctan2(w[1], w[0]) - np.arctan2(v[1], v[0])
    return rotation_2d(a)


def mesh_from_record(rec: dict):
    if rec["kind"] == "interval":
        return IntervalMesh(np.array(rec["nodes"]), tuple(rec.get("graded", ())))
    return TriMesh(
        np.array(rec["vertices"]),
        np.array(rec["triangles"], dtype=int),
        np.array(rec["boundary_nodes"], dtype=int),
        rec["kind"],
    )
