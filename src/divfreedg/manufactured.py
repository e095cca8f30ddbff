"""Exact solution fields, analytic forcing and error norms.

The benchmark flow is the time-modulated vortex array on the unit square,
u = cos(2 pi t) (sin(2 pi x) cos(2 pi y), -cos(2 pi x) sin(2 pi y)) with the
pressure cos(2 pi t)(cos(4 pi x) + cos(4 pi y)); u.n vanishes on the boundary
and div u = 0.  The forcing below was derived by hand from
f = du/dt - nu Lap(u) + (u.grad) u + grad p and is locked in by the
finite-difference residual test, using Lap(u) = -8 pi^2 u and
(u.grad) u = pi cos^2(2 pi t) (sin(4 pi x), sin(4 pi y)).  Both u and f are
stored in separable form: f is one time coefficient times the vortex plus
another times (sin(4 pi x), sin(4 pi y)).
"""

from dataclasses import dataclass

import numpy as np

from . import forms
from .fe_space import CoefVec
from .quadrature import triangle_rule

TWO_PI = 2.0 * np.pi


@dataclass
class ExactProblem:
    """Closed-form velocity/pressure pair with forcing for the momentum
    equation, the viscosity folded into the forcing.  All callables of
    (x, y, t) take x, y arrays of any common shape and return arrays with
    component axes appended.

    The velocity and the forcing have one definition each, the separable
    form u = sum_m u_coeffs(t)[m] u_spatial[m](x, y) and
    f = sum_m f_coeffs(t)[m] f_spatial[m](x, y), with df/dt from
    dt_f_coeffs.  The pointwise ``u``, ``f`` and ``dt_f`` are derived from
    it, and the drivers assemble one load vector per spatial part, once per
    discretization.
    """

    u_spatial: tuple
    u_coeffs: callable
    grad_u: callable
    dt_u: callable
    p: callable
    f_spatial: tuple
    f_coeffs: callable
    dt_f_coeffs: callable

    def u(self, x, y, t):
        return _combine(self.u_coeffs(t), self.u_spatial, x, y)

    def f(self, x, y, t):
        return _combine(self.f_coeffs(t), self.f_spatial, x, y)

    def dt_f(self, x, y, t):
        return _combine(self.dt_f_coeffs(t), self.f_spatial, x, y)


def _combine(coeffs, spatial, x, y):
    return sum(c * g(x, y) for c, g in zip(coeffs, spatial))


def _vortex(x, y):
    return np.stack([np.sin(TWO_PI * x) * np.cos(TWO_PI * y),
                     -np.cos(TWO_PI * x) * np.sin(TWO_PI * y)], axis=-1)


def _gradient_shape(x, y):
    return np.stack([np.sin(4.0 * np.pi * x), np.sin(4.0 * np.pi * y)], axis=-1)


def taylor_green(nu=0.0):
    """The manufactured problem used by every experiment in the package."""
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")

    def grad_u(x, y, t):
        c = np.cos(TWO_PI * t)
        cc = np.cos(TWO_PI * x) * np.cos(TWO_PI * y)
        ss = np.sin(TWO_PI * x) * np.sin(TWO_PI * y)
        g = np.stack([np.stack([cc, -ss], axis=-1),
                      np.stack([ss, -cc], axis=-1)], axis=-2)
        return TWO_PI * c * g

    def dt_u(x, y, t):
        return -TWO_PI * np.sin(TWO_PI * t) * _vortex(x, y)

    def p(x, y, t):
        return np.cos(TWO_PI * t) * (np.cos(4.0 * np.pi * x) + np.cos(4.0 * np.pi * y))

    def f_coeffs(t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        return np.array([-TWO_PI * s + 8.0 * np.pi ** 2 * nu * c,
                         np.pi * c * c - 4.0 * np.pi * c])

    def dt_f_coeffs(t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        return np.array([-4.0 * np.pi ** 2 * c - 16.0 * np.pi ** 3 * nu * s,
                         -2.0 * np.pi ** 2 * np.sin(4.0 * np.pi * t)
                         + 8.0 * np.pi ** 2 * s])

    return ExactProblem(u_spatial=(_vortex,),
                        u_coeffs=lambda t: np.array([np.cos(TWO_PI * t)]),
                        grad_u=grad_u, dt_u=dt_u, p=p,
                        f_spatial=(_vortex, _gradient_shape),
                        f_coeffs=f_coeffs, dt_f_coeffs=dt_f_coeffs)


def _coeff_values(space, coeffs):
    if isinstance(coeffs, CoefVec):
        coeffs = coeffs.values
    return np.asarray(coeffs, dtype=float)


def _error_order(space, order):
    # squared trig errors carry doubled frequencies, so the rules go deeper
    # than the polynomial minimum until the norms are insensitive to order
    return max(2 * space.k + 5, 15) if order is None else order


def _cell_samples(space, coeffs, order, with_grad):
    """u_h (and its broken gradient) at the error rule in every cell, with
    the physical points and the weights times det J."""
    rule = triangle_rule(_error_order(space, order))
    mesh = space.mesh
    cells = np.arange(mesh.n_cells)[:, None]
    uh = space.evaluate(_coeff_values(space, coeffs), cells, rule.points,
                        with_grad=with_grad)
    pts = mesh.map_to_physical(cells, rule.points)
    return uh, pts, rule.weights[None, :] * mesh.cell_detj[:, None]


def l2_error(space, coeffs, problem, t, order=None):
    """L2 norm of u(t) - u_h over the domain, over-integrated."""
    uh, pts, wdet = _cell_samples(space, coeffs, order, with_grad=False)
    diff = problem.u(pts[..., 0], pts[..., 1], t) - uh
    return float(np.sqrt(np.sum(wdet * np.sum(diff ** 2, axis=-1))))


def h1_broken_error(space, coeffs, problem, t, order=None):
    """L2 norm of the broken gradient of u(t) - u_h."""
    (_, gh), pts, wdet = _cell_samples(space, coeffs, order, with_grad=True)
    diff = problem.grad_u(pts[..., 0], pts[..., 1], t) - gh
    return float(np.sqrt(np.sum(wdet * np.sum(diff ** 2, axis=(-2, -1)))))


def div_norm(space, coeffs, order=None):
    """L2 norm of div u_h by direct quadrature."""
    return forms.divergence_l2_norm(space, coeffs, order=_error_order(space, order))


def rate_table(h_list, e_list):
    """Observed convergence rates log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(e_list, dtype=float)
    if len(h) != len(e):
        raise ValueError("h and error lists must have equal length")
    if np.any(np.diff(h) >= 0):
        raise ValueError("mesh sizes must be strictly decreasing")
    rates = []
    for i in range(len(h) - 1):
        if e[i] > 0 and e[i + 1] > 0 and np.isfinite(e[i]) and np.isfinite(e[i + 1]):
            rates.append(float(np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1])))
        else:
            rates.append(float("nan"))
    return rates


__all__ = ["ExactProblem", "taylor_green", "l2_error", "h1_broken_error",
           "div_norm", "rate_table"]
