import numpy as np
import pytest

from bvgym.cli import WEIGHTS
from bvgym.gym import _const_one
from bvgym.meshes import _CELL_BLOCK, _GL_W, _GL_X, IntervalMesh, TriMesh, disk_mesh, interval_mesh, rotation_2d


def reference_boundary_edges(mesh: TriMesh) -> np.ndarray:
    """The dict-based boundary edge search the vectorized one replaced."""
    edges = {}
    for t in mesh.triangles:
        for i in range(3):
            e = (int(t[i]), int(t[(i + 1) % 3]))
            key = (min(e), max(e))
            edges.setdefault(key, []).append(e)
    bnd = [orient[0] for orient in edges.values() if len(orient) == 1]
    return np.array(bnd, dtype=int)


def reference_refine_with_parents(mesh: TriMesh) -> tuple[TriMesh, np.ndarray]:
    """The loop-based midpoint subdivision the vectorized one replaced."""
    verts = [v for v in mesh.vertices]
    parents = [(i, i) for i in range(len(verts))]
    midcache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in midcache:
            verts.append(0.5 * (mesh.vertices[i] + mesh.vertices[j]))
            parents.append(key)
            midcache[key] = len(verts) - 1
        return midcache[key]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    fine = TriMesh(np.array(verts), np.array(tris, dtype=int), np.array([], dtype=int), mesh.kind_label)
    bset = set()
    for e in reference_boundary_edges(fine):
        bset.update(int(v) for v in e)
    out = TriMesh(fine.vertices, fine.triangles, np.array(sorted(bset), dtype=int), mesh.kind_label)
    return out, np.array(parents, dtype=int)


def reference_disk_triangles(level: int) -> np.ndarray:
    n = 2**level
    tris = []
    for i in range(2 * n):
        for j in range(2 * n):
            a, b, c, d = (i * (2 * n + 1) + j, (i + 1) * (2 * n + 1) + j,
                          (i + 1) * (2 * n + 1) + j + 1, i * (2 * n + 1) + j + 1)
            tris += [[a, b, c], [a, c, d]]
    return np.array(tris, dtype=int)


def assert_identical(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert np.array_equal(x, y)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("angle", [None, 0.3])
def test_matches_loop_reference_over_two_refinements(level, angle):
    rotation = None if angle is None else rotation_2d(angle)
    mesh = disk_mesh(level, rotation)
    assert_identical(mesh.triangles, reference_disk_triangles(level))
    ref = TriMesh(mesh.vertices, mesh.triangles, mesh.boundary_nodes)
    for _ in range(2):
        assert_identical(mesh.boundary_edges(), reference_boundary_edges(ref))
        (mesh, parents), (ref, ref_parents) = mesh.refine_with_parents(), reference_refine_with_parents(ref)
        assert_identical(parents, ref_parents)
        for name in ("vertices", "triangles", "boundary_nodes"):
            assert_identical(getattr(mesh, name), getattr(ref, name))
    assert_identical(mesh.boundary_edges(), reference_boundary_edges(ref))


def test_disk_boundary_nodes_are_the_square_frame():
    mesh = disk_mesh(2)
    assert_identical(mesh.boundary_nodes, np.unique(reference_boundary_edges(mesh)))
    assert np.allclose(np.linalg.norm(mesh.vertices[mesh.boundary_nodes], axis=1), 1.0)


def test_refined_boundary_edges_are_counter_clockwise():
    mesh, _ = disk_mesh(1).refine_with_parents()
    e = mesh.boundary_edges()
    p, q = mesh.vertices[e[:, 0]], mesh.vertices[e[:, 1]]
    assert np.all(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0] > 0)


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.0], [0.0, 0.5, 0.5, 1.0]])
def test_interval_mesh_rejects_nonfinite_or_repeated_nodes(nodes):
    # generate bins cells with whole-array index arithmetic, which has no error for a NaN node
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        IntervalMesh(np.array(nodes))


def reference_interval_nodes(a, b, n, grade_to=(), grade_levels=40, extra_nodes=()) -> np.ndarray:
    """The set of floats, sorted, that built interval_mesh's nodes before one np.unique."""
    nodes = set(np.linspace(a, b, n + 1).tolist())
    h = (b - a) / n
    for p in grade_to:
        at_a = np.isclose(p, a)
        for j in range(1, grade_levels + 1):
            nodes.add(p + h * 0.5**j if at_a else p - h * 0.5**j)
    for x in extra_nodes:
        if a < x < b:
            nodes.add(float(x))
    return np.array(sorted(nodes))


@pytest.mark.parametrize(
    "a, b, n, grade_to, grade_levels, extra_nodes",
    [
        (0.0, 1.0, 16, (0.0, 1.0), 10, ()),  # relax's level meshes: graded at both ends
        (-0.3, 2.7, 40000, (2.7,), 40, ()),
        (0.0, 1.0, 16, (), 40, (0.1, 0.2, 0.05)),  # relax's toy ramp
        (0.0, 1.0, 8, (0.0,), 3, (0.25, 0.5, 1.0 / 3, -0.1, 1.0, 1.5)),  # on grid nodes, on the ends and outside
        (0.0, 1.0, 4, (0.0,), 2, (0.125, 0.0625, 0.03125, np.nan)),  # on grading offsets; NaN is out of range
        (0.0, 1.0, 12000, (), 40, ()),
    ],
)
def test_interval_mesh_nodes_match_the_set_built_nodes(a, b, n, grade_to, grade_levels, extra_nodes):
    nodes = interval_mesh(a, b, n, grade_to, grade_levels, extra_nodes).nodes
    ref = reference_interval_nodes(a, b, n, grade_to, grade_levels, extra_nodes)
    assert nodes.dtype == ref.dtype and np.array_equal(nodes, ref)


def reference_gradients_of(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """The einsum that computed per-triangle P1 gradients before the sparse operator."""
    v = values if values.ndim == 2 else values[:, None]
    return np.einsum("tiM,tid->tMd", v[mesh.triangles], mesh.basis_gradients)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("angle", [None, 0.3])
def test_gradients_of_equals_einsum_bit_for_bit(level, angle):
    rng = np.random.default_rng(level)
    mesh = disk_mesh(level, None if angle is None else rotation_2d(angle))
    for _ in range(3):  # refined 0, 1 and 2 times
        nv = mesh.vertices.shape[0]
        for shape in [(nv,), (nv, 1), (nv, 2), (nv, 3)]:
            v = rng.standard_normal(shape)
            got = mesh.gradients_of(v)
            assert_identical(got, reference_gradients_of(mesh, v))
            assert got.flags.c_contiguous
        mesh = mesh.refine()


def test_gauss_legendre_literals_are_the_mapped_leggauss_rule():
    x, w = np.polynomial.legendre.leggauss(6)
    assert np.array_equal(_GL_X, 0.5 * (x + 1.0))
    assert np.array_equal(_GL_W, 0.5 * w)


def reference_cell_integrals(mesh: IntervalMesh, g) -> np.ndarray:
    """The one-pass (ncells, 6) quadrature the point-major blocked one replaced."""
    h = mesh.cell_volumes
    pts = mesh.nodes[:-1][:, None] + h[:, None] * _GL_X[None, :]
    vals = np.asarray(g(pts), dtype=float)
    return (vals * _GL_W[None, :]).sum(axis=1) * h


def _integrand_cases():
    def read_only(x):
        return np.broadcast_to(np.asarray(x, dtype=float) * 3.0, np.shape(x))

    def signed_zero(x):  # -0.0 at every point left of 1/2, nonzero right of it
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.5, -0.0, -x)

    return {
        "const_one": _const_one,
        "identity": lambda x: x,
        "square": lambda x: np.asarray(x, dtype=float) ** 2,
        "read_only": read_only,
        "signed_zero": signed_zero,
        "toy_weight": WEIGHTS["toy"]("0.25"),
        "const_weight": WEIGHTS["const"]("1.5"),
    }


@pytest.mark.parametrize("n", [1, 2, _CELL_BLOCK - 1, _CELL_BLOCK, _CELL_BLOCK + 1, 3 * _CELL_BLOCK + 7])
@pytest.mark.parametrize("graded", [False, True])
def test_cell_integrals_equal_the_one_pass_reference_bit_for_bit(n, graded):
    mesh = IntervalMesh(np.linspace(0.0, 1.0, n + 1))
    if graded:  # cell widths over 12 decades, on [-0.25, 1.25]
        rng = np.random.default_rng(n)
        widths = 0.5 ** rng.integers(0, 40, n) * (1.0 + rng.random(n))
        mesh = IntervalMesh(np.concatenate([[-0.25], -0.25 + np.cumsum(widths) / widths.sum() * 1.5]))
    for label, g in _integrand_cases().items():
        got, want = mesh.cell_integrals(g), reference_cell_integrals(mesh, g)
        assert got.shape == (mesh.ncells,), label
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), label  # the sign of zeros too


def test_cell_integrals_pass_flat_points_and_leave_the_output_of_g_untouched():
    mesh = interval_mesh(0.0, 1.0, _CELL_BLOCK + 3)
    calls = []

    def g(x):
        vals = np.asarray(x, dtype=float) + 1.0
        calls.append((np.ndim(x), vals, vals.copy()))
        return vals

    mesh.cell_integrals(g)
    assert len(calls) == 2
    for ndim, vals, returned in calls:
        assert ndim == 1
        assert np.array_equal(vals, returned)
