"""Exact solution fields, analytic forcing and error norms.

The benchmark flow is the time-modulated vortex array on the unit square,
u = cos(2 pi t) (sin(2 pi x) cos(2 pi y), -cos(2 pi x) sin(2 pi y)) with the
pressure cos(2 pi t)(cos(4 pi x) + cos(4 pi y)); u.n vanishes on the boundary
and div u = 0.  The forcing below was derived by hand from
f = du/dt - nu Lap(u) + (u.grad) u + grad p and is locked in by the
finite-difference residual test, using Lap(u) = -8 pi^2 u and
(u.grad) u = pi cos^2(2 pi t) (sin(4 pi x), sin(4 pi y)).
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
    equation at viscosity nu.  All callables take (x, y, t) with x, y arrays
    of any common shape and return arrays with component axes appended.

    When the forcing separates as f = sum_m c_m(t) g_m(x, y), the spatial
    parts and time coefficients are exposed so drivers can precompute the
    load vectors once instead of reassembling them every step.
    """

    u: callable
    grad_u: callable
    dt_u: callable
    p: callable
    f: callable
    dt_f: callable
    nu: float = 0.0
    f_spatial: tuple = None
    f_coeffs: callable = None
    dt_f_coeffs: callable = None
    u_spatial: tuple = None
    u_coeffs: callable = None


def _vortex(x, y):
    return np.stack([np.sin(TWO_PI * x) * np.cos(TWO_PI * y),
                     -np.cos(TWO_PI * x) * np.sin(TWO_PI * y)], axis=-1)


def _gradient_shape(x, y):
    return np.stack([np.sin(4.0 * np.pi * x), np.sin(4.0 * np.pi * y)], axis=-1)


def taylor_green(nu=0.0):
    """The manufactured problem used by every experiment in the package."""
    if nu < 0:
        raise ValueError("viscosity must be nonnegative")

    def u(x, y, t):
        return np.cos(TWO_PI * t) * _vortex(x, y)

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

    def f(x, y, t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        vortex_part = (-TWO_PI * s + 8.0 * np.pi ** 2 * nu * c) * _vortex(x, y)
        grad_part = (np.pi * c * c - 4.0 * np.pi * c) * _gradient_shape(x, y)
        return vortex_part + grad_part

    def dt_f(x, y, t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        vortex_part = (-4.0 * np.pi ** 2 * c - 16.0 * np.pi ** 3 * nu * s) * _vortex(x, y)
        grad_part = (-2.0 * np.pi ** 2 * np.sin(4.0 * np.pi * t)
                     + 8.0 * np.pi ** 2 * s) * _gradient_shape(x, y)
        return vortex_part + grad_part

    def f_coeffs(t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        return np.array([-TWO_PI * s + 8.0 * np.pi ** 2 * nu * c,
                         np.pi * c * c - 4.0 * np.pi * c])

    def dt_f_coeffs(t):
        c, s = np.cos(TWO_PI * t), np.sin(TWO_PI * t)
        return np.array([-4.0 * np.pi ** 2 * c - 16.0 * np.pi ** 3 * nu * s,
                         -2.0 * np.pi ** 2 * np.sin(4.0 * np.pi * t)
                         + 8.0 * np.pi ** 2 * s])

    return ExactProblem(u=u, grad_u=grad_u, dt_u=dt_u, p=p, f=f, dt_f=dt_f,
                        nu=nu, f_spatial=(_vortex, _gradient_shape),
                        f_coeffs=f_coeffs, dt_f_coeffs=dt_f_coeffs,
                        u_spatial=(_vortex,),
                        u_coeffs=lambda t: np.array([np.cos(TWO_PI * t)]))


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
    return forms.div_norm_quadrature(space, _coeff_values(space, coeffs),
                                     order=_error_order(space, order))


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
