"""The forms do not depend on how a mesh is labelled.

The same perturbed mesh is rebuilt with its vertices relabelled at random
and each cell's vertex list rotated cyclically, so every facet is seen from
every local edge and in both directions.  The fields are polynomials that
the default rules integrate exactly, so the labellings must agree to
roundoff.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from types import SimpleNamespace

from divfreedg import build_structured, forms, manufactured
from divfreedg.fe_space import RTSpace, rt_interpolate
from divfreedg.mesh import Mesh

BASE = build_structured(4, 0.15, seed=7)
TOL = 1e-12


def stream_curl(x, y):
    # curl of psi = x^2 (1-x)^2 y^2 (1-y)^2: divergence-free, u.n = 0 on the
    # boundary of the unit square
    px = 2 * x * (1 - x) * (1 - 2 * x)
    py = 2 * y * (1 - y) * (1 - 2 * y)
    return np.stack([(x * (1 - x)) ** 2 * py, -px * (y * (1 - y)) ** 2], axis=-1)


def generic(x, y):
    return np.stack([x ** 3 - y ** 2 + 0.5, x * y ** 2 + x ** 2], axis=-1)


POLY = SimpleNamespace(u=lambda x, y, t: generic(x, y))


def relabel(mesh, perm, rot):
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    cells = perm[mesh.cells]
    cells = np.stack([np.roll(c, -r) for c, r in zip(cells, rot)])
    return Mesh(vertices, cells)


def quantities(mesh, k):
    space = RTSpace(mesh, k)
    a = rt_interpolate(stream_curl, space)
    w = rt_interpolate(generic, space, enforce_boundary=False)
    r = forms.apply_convection(space, a, w)
    c_w = forms.convection_matrix(space, a) @ w.values
    assert np.abs(c_w - r).max() <= TOL * np.abs(r).max()
    return np.array([forms.jump_seminorm(space, a, w), w.values @ r,
                     manufactured.l2_error(space, w, POLY, 0.0)])


@settings(max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("k", [1, 2])
def test_forms_agree_across_labellings(k, data):
    nv, nc = BASE.n_vertices, BASE.n_cells
    perm = np.array(data.draw(st.permutations(range(nv))))
    rot = np.array(data.draw(st.lists(st.integers(0, 2), min_size=nc, max_size=nc)))
    ref = quantities(BASE, k)
    got = quantities(relabel(BASE, perm, rot), k)
    assert np.all(ref > 0)
    assert np.all(np.abs(got - ref) <= TOL * ref)
