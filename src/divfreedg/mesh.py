"""Conforming triangular meshes with oriented facets.

Structured meshes of the unit square (optionally perturbed) or meshes loaded
from a plain-text file.  A mesh is immutable after construction and is held
in arrays only; the facet normal n_F is fixed once (pointing from the plus
cell toward the minus cell, outward on the boundary) and never flipped.
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
    cell_facets : (nc, 3) int array, facet id of the edge opposite vertex i
    cell_facet_reversed : (nc, 3) int array, 1 where the cell's
        counterclockwise edge runs from the higher- to the lower-index vertex,
        else 0: such a slot reads the facet's points backwards in every
        facet form (``RTSpace.facet_traces``, ``forms._sip_traces``)
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
            bad = int(np.argmax(self.cell_detj <= 0))
            raise ValueError(f"non-positive cell area (cell {bad})")
        self.cell_area = 0.5 * self.cell_detj
        inv = np.empty_like(self.cell_jac)
        inv[:, 0, 0] = self.cell_jac[:, 1, 1]
        inv[:, 1, 1] = self.cell_jac[:, 0, 0]
        inv[:, 0, 1] = -self.cell_jac[:, 0, 1]
        inv[:, 1, 0] = -self.cell_jac[:, 1, 0]
        self.cell_jac_inv = inv / self.cell_detj[:, None, None]

        # cell diameter h_K = longest edge
        d01 = np.linalg.norm(v[c[:, 1]] - v[c[:, 0]], axis=1)
        d12 = np.linalg.norm(v[c[:, 2]] - v[c[:, 1]], axis=1)
        d20 = np.linalg.norm(v[c[:, 0]] - v[c[:, 2]], axis=1)
        self.cell_h = np.max(np.stack([d01, d12, d20]), axis=0)
        self.h_max = float(self.cell_h.max())
        self.h_min = float(self.cell_h.min())

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
        self.facet_is_boundary = minus_slots < 0
        self.facet_minus = np.where(self.facet_is_boundary, -1, minus_slots // 3)
        self.facet_minus_local = np.where(self.facet_is_boundary, -1, minus_slots % 3)
        self.boundary_facets = np.flatnonzero(self.facet_is_boundary)
        self.interior_facets = np.flatnonzero(~self.facet_is_boundary)

        # outward normal of the plus cell: rotating the counterclockwise
        # tangent of the plus cell's edge by -90 deg points outward
        tang = self.vertices[vb[plus_slots]] - self.vertices[va[plus_slots]]
        length = np.linalg.norm(tang, axis=1)
        if np.any(length <= 0):
            raise ValueError("degenerate facet of zero length")
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

    def map_to_physical(self, cells, ref_points):
        """Map reference points (n, 2) into the given cells (broadcasts), as
        multiply-adds: an einsum over (cells, 1) x (nq, 2) is several times slower."""
        x, y = np.moveaxis(np.asarray(ref_points, dtype=float), -1, 0)
        origin, jac = self.vertices[self.cells[cells, 0]], self.cell_jac[cells]
        return np.stack([origin[..., a] + (jac[..., a, 0] * x + jac[..., a, 1] * y)
                         for a in (0, 1)], axis=-1)


def build_structured(n, perturb=0.0, seed=0):
    """Structured triangulation of the unit square with 2*n*n cells.

    Interior vertices are displaced by deterministic random offsets of
    magnitude at most perturb/n.  If the perturbation produces a degenerate
    cell the amplitude is halved and the mesh rebuilt, at most five times.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 <= perturb <= 0.3:
        raise ValueError("perturb must lie in [0, 0.3]")

    amplitude = perturb
    for _ in range(6):
        try:
            return _structured_attempt(n, amplitude, seed)
        except ValueError:
            if amplitude == 0.0:
                raise
            amplitude *= 0.5
    raise ValueError(f"could not build a valid mesh at perturb={perturb}")


def _structured_attempt(n, perturb, seed):
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


def load_mesh(path):
    """Read a mesh from the plain-text format (see ``save_mesh``)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError("mesh file is missing the 'nv nc' header")
    try:
        nv, nc = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError("malformed vertex/cell counts") from exc
    need = 2 + 2 * nv + 3 * nc
    if len(tokens) != need:
        raise ValueError(f"expected {need} tokens for nv={nv}, nc={nc}, found {len(tokens)}")
    try:
        values = np.array(tokens[2:2 + 2 * nv], dtype=float).reshape(nv, 2)
    except ValueError as exc:
        raise ValueError("malformed vertex coordinates") from exc
    try:
        cells = np.array(tokens[2 + 2 * nv:], dtype=int).reshape(nc, 3)
    except ValueError as exc:
        raise ValueError("malformed cell connectivity") from exc
    if cells.size and (cells.min() < 0 or cells.max() >= nv):
        raise ValueError("vertex index out of range")
    return Mesh(values, cells)


def save_mesh(mesh, path):
    """Write the plain-text format: 'nv nc', vertex lines, cell lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.cells:
            fh.write(f"{a} {b} {c}\n")


__all__ = ["Mesh", "build_structured", "load_mesh", "save_mesh"]
