"""Quadrature rules on the reference segment [0,1] and the unit reference triangle."""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi


class SegmentRule:
    """Gauss-Legendre rule on [0, 1], exact for polynomials up to ``order``."""

    def __init__(self, order):
        npts = max(1, (order + 2) // 2)  # 2m-1 >= order
        x, w = np.polynomial.legendre.leggauss(npts)
        self.points = 0.5 * (x + 1.0)
        self.weights = 0.5 * w
        self.order = 2 * npts - 1

    def __len__(self):
        return len(self.points)


class TriangleRule:
    """Collapsed Gauss rule on the triangle {x,y >= 0, x+y <= 1}.

    Tensorizes Gauss-Legendre in the collapsed coordinate with Gauss-Jacobi
    (weight 1-y) in the other, so the Duffy Jacobian is absorbed exactly and
    all monomials of total degree <= ``order`` integrate exactly.
    """

    def __init__(self, order):
        npts = max(1, (order + 2) // 2)
        xg, wg = np.polynomial.legendre.leggauss(npts)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg
        xj, wj = roots_jacobi(npts, 1.0, 0.0)
        yj = 0.5 * (xj + 1.0)
        wj = 0.25 * wj  # includes the (1-y) Duffy factor

        X, Y = np.meshgrid(xg, yj, indexing="ij")
        W = np.outer(wg, wj)
        self.points = np.column_stack([(X * (1.0 - Y)).ravel(), Y.ravel()])
        self.weights = W.ravel()
        self.order = 2 * npts - 1

    def __len__(self):
        return len(self.weights)


@lru_cache(maxsize=None)
def segment_rule(order):
    return SegmentRule(order)


@lru_cache(maxsize=None)
def triangle_rule(order):
    return TriangleRule(order)


__all__ = ["SegmentRule", "TriangleRule", "segment_rule", "triangle_rule"]
