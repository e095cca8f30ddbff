"""Conforming triangular meshes with oriented facets.

Structured meshes of the unit square (optionally perturbed), or any
counterclockwise triangulation given as vertex and cell arrays.  A mesh is
immutable after construction and is held in arrays only; the facet normal
n_F is fixed once (pointing from the plus cell toward the minus cell,
outward on the boundary) and never flipped.
"""

import numpy as np


class Mesh:
    """Triangulation with counterclockwise cells and oriented facets.

    Facets are numbered in order of first appearance, cell by cell and local
    edge by local edge; the cell that first meets a facet is its plus cell.

    Attributes
    ----------
    vertices : (nv, 2) array
    cells : (nc, 3) int array, counterclockwise
    cell_jac, cell_jac_inv : (nc, 2, 2) arrays, the affine map's Jacobian
        (columns are the edge vectors from vertex 0) and its inverse
    cell_detj : (nc,) array, det J = twice the cell area; det J <= 0 on any
        cell raises ValueError (``build_structured`` does not retry)
    cell_facets : (nc, 3) int array, facet id of the edge opposite vertex i
    cell_facet_reversed : (nc, 3) int array, 1 where the cell's
        counterclockwise edge runs from the higher- to the lower-index vertex,
        else 0: such a slot reads the facet's points backwards, which
        ``RTSpace.facet_traces`` folds into each slot point's partner
    facet_vertices : (nf, 2) int array, ascending
    facet_plus, facet_minus : (nf,) int arrays, facet_minus = -1 on the boundary
    facet_plus_local, facet_minus_local : (nf,) int arrays, local edge index
        of the facet in its plus and minus cell (-1 on the boundary)
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=int)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (nc, 3) array")
        if self.cells.size and (self.cells.min() < 0 or self.cells.max() >= len(self.vertices)):
            raise ValueError("vertex index out of range")

        self._build_geometry()
        self._build_facets()

    # -- construction helpers -------------------------------------------------

    def _build_geometry(self):
        v = self.vertices
        c = self.cells
        e1 = v[c[:, 1]] - v[c[:, 0]]
        e2 = v[c[:, 2]] - v[c[:, 0]]
        self.cell_jac = np.stack([e1, e2], axis=-1)  # columns are edge vectors
        self.cell_detj = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(self.cell_detj <= 0):
            raise ValueError(f"non-positive cell area (cell {np.argmax(self.cell_detj <= 0)})")
        inv = np.empty_like(self.cell_jac)
        inv[:, 0, 0] = self.cell_jac[:, 1, 1]
        inv[:, 1, 1] = self.cell_jac[:, 0, 0]
        inv[:, 0, 1] = -self.cell_jac[:, 0, 1]
        inv[:, 1, 0] = -self.cell_jac[:, 1, 0]
        self.cell_jac_inv = inv / self.cell_detj[:, None, None]

    def _build_facets(self):
        nc = len(self.cells)
        # local edge i runs counterclockwise from vertex (i+1)%3 to (i+2)%3;
        # slot s = 3 c + i enumerates the edges cell-major
        va = self.cells[:, [1, 2, 0]].ravel()
        vb = self.cells[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(va, vb), np.maximum(va, vb)
        keys = lo * len(self.vertices) + hi
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            u = int(np.argmax(counts > 2))
            s = first[u]
            raise ValueError(f"facet {(int(lo[s]), int(hi[s]))} shared by more than two cells")
        # renumber the sorted unique edges by first appearance
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        slot_facet = rank[inverse]
        plus_slots = first[order]
        is_plus = np.zeros(3 * nc, dtype=bool)
        is_plus[plus_slots] = True
        minus_slots = np.full(len(order), -1)
        minus_slots[slot_facet[~is_plus]] = np.flatnonzero(~is_plus)

        self.cell_facets = slot_facet.reshape(nc, 3)
        self.cell_facet_reversed = (va > vb).astype(int).reshape(nc, 3)
        self.facet_vertices = np.column_stack([lo[plus_slots], hi[plus_slots]])
        self.facet_plus = plus_slots // 3
        self.facet_plus_local = plus_slots % 3
        on_boundary = minus_slots < 0
        self.facet_minus = np.where(on_boundary, -1, minus_slots // 3)
        self.facet_minus_local = np.where(on_boundary, -1, minus_slots % 3)
        self.boundary_facets = np.flatnonzero(on_boundary)
        self.interior_facets = np.flatnonzero(~on_boundary)

        # outward normal of the plus cell: rotating the counterclockwise
        # tangent of the plus cell's edge by -90 deg points outward; every
        # length is positive, since det J > 0 on the plus cell
        tang = self.vertices[vb[plus_slots]] - self.vertices[va[plus_slots]]
        length = np.linalg.norm(tang, axis=1)
        self.facet_normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / length[:, None]
        self.facet_length = length

    # -- queries ---------------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_facets(self):
        return len(self.facet_plus)


def build_structured(n, perturb=0.0, seed=0):
    """Structured triangulation of the unit square with 2*n*n cells.

    Interior vertices are displaced by deterministic random offsets of
    magnitude at most perturb/n, with no retry: perturb <= 0.3 moves each
    vertex of a cell by at most 0.3 h (h = 1/n), which keeps 2 area / h^2
    >= 0.146 on every cell, against 1 unperturbed.
    """
    if n < 2:
        raise ValueError(f"n={n} must be at least 2")
    if not 0.0 <= perturb <= 0.3:
        raise ValueError(f"perturb={perturb} must lie in [0, 0.3]")

    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    if perturb > 0.0:
        rng = np.random.default_rng(seed)
        interior = np.flatnonzero(
            (verts[:, 0] > 0) & (verts[:, 0] < 1) & (verts[:, 1] > 0) & (verts[:, 1] < 1)
        )
        radius = perturb / n * rng.uniform(0.0, 1.0, len(interior))
        angle = rng.uniform(0.0, 2.0 * np.pi, len(interior))
        verts[interior, 0] += radius * np.cos(angle)
        verts[interior, 1] += radius * np.sin(angle)

    # square (i, j) has corners v00 = i (n+1) + j, v10, v01, v11 and is cut
    # along the diagonal v00-v11 when i + j is even, v10-v01 otherwise;
    # its two cells are numbered 2 (i n + j) and 2 (i n + j) + 1
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    v00 = i * (n + 1) + j
    v10, v01 = v00 + n + 1, v00 + 1
    v11 = v10 + 1
    even = ((i + j) % 2 == 0)[..., None]
    first = np.where(even, np.stack([v00, v10, v11], axis=-1),
                     np.stack([v00, v10, v01], axis=-1))
    second = np.where(even, np.stack([v00, v11, v01], axis=-1),
                      np.stack([v10, v11, v01], axis=-1))
    cells = np.stack([first, second], axis=2).reshape(-1, 3)
    return Mesh(verts, cells)


__all__ = ["Mesh", "build_structured"]
