import numpy as np
import pytest

from divfreedg import build_structured, fe_space
from divfreedg.mesh import Mesh
from divfreedg.quadrature import segment_rule, triangle_rule
from conftest import map_to_physical, trace_points


def test_structured_counts_n2():
    mesh = build_structured(2, 0.0)
    assert mesh.n_cells == 8
    assert mesh.n_facets == 16
    assert mesh.n_vertices == 9
    assert mesh.facet_length.max() == pytest.approx(np.sqrt(2.0) / 2.0)


def test_structured_counts_n8():
    mesh = build_structured(8, 0.0)
    assert mesh.n_cells == 128
    assert 0.5 * mesh.cell_detj.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_euler_relation(n):
    mesh = build_structured(n, 0.15, seed=2)
    assert mesh.n_vertices - mesh.n_facets + mesh.n_cells == 1


@pytest.mark.parametrize("n,perturb", [(4, 0.0), (8, 0.2), (16, 0.2)])
def test_mesh_invariants(n, perturb):
    mesh = build_structured(n, perturb, seed=5)
    assert np.all(mesh.cell_detj > 0)
    assert 0.5 * mesh.cell_detj.sum() == pytest.approx(1.0, abs=1e-12)
    # exhaustive two-sidedness: interior facets touch exactly two cells
    counts = np.zeros(mesh.n_facets, dtype=int)
    for c in range(mesh.n_cells):
        for f in mesh.cell_facets[c]:
            counts[f] += 1
    assert np.all(counts[mesh.interior_facets] == 2)
    assert np.all(counts[mesh.boundary_facets] == 1)
    # unit normals, fixed at construction
    assert np.abs(np.linalg.norm(mesh.facet_normal, axis=1) - 1.0).max() < 1e-14


def test_normal_points_plus_to_minus():
    mesh = build_structured(4, 0.2, seed=1)
    centroids = mesh.vertices[mesh.cells].mean(axis=1)
    for f in mesh.interior_facets:
        a, b = mesh.facet_vertices[f]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        toward_minus = centroids[mesh.facet_minus[f]] - mid
        assert mesh.facet_normal[f] @ toward_minus > 0
    for f in mesh.boundary_facets:
        a, b = mesh.facet_vertices[f]
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        outward = mid - centroids[mesh.facet_plus[f]]
        assert mesh.facet_normal[f] @ outward > 0


def test_perturbed_mesh_bounds():
    for seed in range(5):
        mesh = build_structured(8, 0.2, seed=seed)
        # cell diameter h_K = longest edge
        cell_h = mesh.facet_length[mesh.cell_facets].max(axis=1)
        assert np.all(mesh.cell_detj > 0)
        assert cell_h.max() <= np.sqrt(2.0) * (1 + 2 * 0.2) / 8 + 1e-12
        assert cell_h.max() / cell_h.min() < 4.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_largest_perturbation_keeps_every_cell_away_from_degenerate(n):
    # build_structured does not retry: at perturb = 0.3 each vertex moves by
    # at most 0.3 h, and 2 area / h^2 stays at least 0.146 on every cell
    for seed in range(10):
        mesh = build_structured(n, 0.3, seed=seed)
        assert mesh.cell_detj.min() * n ** 2 >= 0.146


def test_smooth_function_jump_vanishes():
    mesh = build_structured(6, 0.2, seed=3)
    rule = segment_rule(5)
    phi = lambda p: np.sin(1.3 * p[..., 0]) * np.cos(0.7 * p[..., 1])
    for f in mesh.interior_facets:
        tp = trace_points(mesh, f, rule)
        assert np.abs(phi(tp.points_plus) - phi(tp.points_minus)).max() < 1e-12


def test_trace_points_midpoint_and_weights():
    mesh = build_structured(3, 0.1, seed=4)
    mid = segment_rule(1)
    three = segment_rule(5)
    for f in range(mesh.n_facets):
        a, b = mesh.facet_vertices[f]
        va, vb = mesh.vertices[a], mesh.vertices[b]
        tp = trace_points(mesh, f, mid)
        assert np.allclose(tp.points_plus[0], 0.5 * (va + vb), atol=1e-13)
        tp3 = trace_points(mesh, f, three)
        assert tp3.weights.sum() == pytest.approx(np.linalg.norm(vb - va), abs=1e-13)
        if mesh.facet_minus[f] >= 0:
            assert np.abs(tp3.points_plus - tp3.points_minus).max() < 1e-13


def loop_build(n):
    """Reference cells of build_structured(n) and its facet numbering, built
    with plain loops: facets in order of first appearance, cell by cell and
    local edge by local edge, as (plus cell, local edge) and (minus cell,
    local edge) pairs."""
    cells = []
    for i in range(n):
        for j in range(n):
            v00, v10 = i * (n + 1) + j, (i + 1) * (n + 1) + j
            v01, v11 = v00 + 1, v10 + 1
            if (i + j) % 2 == 0:
                cells += [(v00, v10, v11), (v00, v11, v01)]
            else:
                cells += [(v00, v10, v01), (v10, v11, v01)]
    index, plus, minus = {}, [], []
    for c, cell in enumerate(cells):
        for i in range(3):
            a, b = cell[(i + 1) % 3], cell[(i + 2) % 3]
            key = (min(a, b), max(a, b))
            if key in index:
                minus[index[key]] = (c, i)
            else:
                index[key] = len(plus)
                plus.append((c, i))
                minus.append((-1, -1))
    return np.array(cells), np.array(list(index)), np.array(plus), np.array(minus)


@pytest.mark.parametrize("n,perturb,seed", [(3, 0.0, 0), (8, 0.2, 11)])
def test_vectorized_build_matches_loops(n, perturb, seed):
    # facet ids drive the DOF numbering, and so COLAMD and the LU fill
    mesh = build_structured(n, perturb, seed=seed)
    cells, facet_vertices, plus, minus = loop_build(n)
    assert np.array_equal(mesh.cells, cells)
    assert np.array_equal(mesh.facet_vertices, facet_vertices)
    assert np.array_equal(np.column_stack([mesh.facet_plus, mesh.facet_plus_local]), plus)
    assert np.array_equal(np.column_stack([mesh.facet_minus, mesh.facet_minus_local]), minus)
    ii = mesh.interior_facets
    assert np.array_equal(mesh.cell_facets[mesh.facet_plus, mesh.facet_plus_local],
                          np.arange(mesh.n_facets))
    assert np.array_equal(mesh.cell_facets[mesh.facet_minus[ii], mesh.facet_minus_local[ii]], ii)


def test_edge_shared_by_three_cells_rejected():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [0.5, 0.5]]
    with pytest.raises(ValueError, match="more than two cells"):
        Mesh(vertices, [[0, 1, 2], [1, 0, 3], [0, 1, 4]])


def test_mesh_rejects_bad_cells():
    # the checks a mesh makes of the arrays it is given
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="vertex index out of range"):
        Mesh(vertices, [[0, 1, 3]])
    with pytest.raises(ValueError, match="vertex index out of range"):
        Mesh(vertices, [[0, -1, 2]])
    with pytest.raises(ValueError, match=r"non-positive cell area \(cell 0\)"):
        Mesh(vertices, [[0, 2, 1]])


def test_build_rejects_bad_args():
    with pytest.raises(ValueError):
        build_structured(1)
    with pytest.raises(ValueError):
        build_structured(4, perturb=0.5)


def test_construction_deterministic():
    a = build_structured(8, 0.2, seed=11)
    b = build_structured(8, 0.2, seed=11)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.cells, b.cells)


def test_map_to_physical_matches_the_einsum_form(monkeypatch):
    # the multiply-adds of fe_space.map_points against the broadcast einsum
    # they replace, over blocks of 16 cells (the last one partial)
    mesh = build_structured(6, 0.3, seed=2)
    rule = triangle_rule(9)
    monkeypatch.setattr(fe_space, "CELL_BLOCK", 16 * len(rule))
    blocks = fe_space.cell_blocks(mesh, rule)
    assert [b.stop - b.start for b in blocks] == [16] * 4 + [8]
    for cells in blocks:
        mapped = np.stack(fe_space.map_points(mesh, cells, rule), axis=-1)
        oracle = map_to_physical(mesh, np.arange(cells.start, cells.stop)[:, None], rule.points)
        assert mapped.shape == oracle.shape
        np.testing.assert_allclose(mapped, oracle, rtol=0, atol=1e-15)
