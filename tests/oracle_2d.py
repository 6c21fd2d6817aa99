"""2D oracles: what the tests check the tensor-product library against.

The interior 2D stiffness by direct tensor quadrature
(`stiffness_2d_direct`), the meshgrid tabulation of every 2D functional
(`tabulate_functionals_2d`), with the basis derivatives it needs
(`interior_tab`, `psi_tab`), a field's derivatives on a grid
(`field_grid_deriv`), and the derivative-pairing projection of a field
known only by its values (`h10_project_values_2d`) or by its gradient
(`project_gradient_2d`), which `project_2d` replaces by the source.
The library itself never forms the m^2 x m^2 stiffness or a functional
table: it works in the fast-diagonalized eigenbasis.  The series pairing on the 1D
source rule (`source_rule_pairing`) and the reconstruction from a given
pairing (`reconstruct_with_pairing`) check the library's pairing, which
reads the residual's one tabulation on the convolution's pieces.  The
damped running sums with a Python recurrence over the pieces
(`_green_tables`) are the library's former 2D convolution and pairing,
against which the tests check its damped primitive at k = n pi.  The
series term's sinh-ratio profile (`series_term_profile`, `_sinh_ratio`)
is the library's former evaluation of mode n, the dense reference of the
damped primitive at k = n pi.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fsgreens.basis1d import BasisFamily, tabulate_nodal
from fsgreens.kernels import _check_unit_domain
from fsgreens.poisson2d import (_BLOCK_POINTS, _PIECE_DECAY, _PIECE_POINTS, DualFunctionals2D,
                                Field2D, SeriesOperator2D, _psi_tab, _sine_table,
                                _stiffness_solve, _tensor_duals, green_apply_2d)
from fsgreens.projection import mesh_quadrature
from fsgreens.quadrature import _piece_ends, composite_rule, gauss_legendre_rule, sorted_unique

from flattened_oracle import nodal_deriv_jumps


def _sinh_ratio(a, b, c):
    """sinh(a) sinh(b) / sinh(c) for 0 <= a, b and a + b <= c, overflow safe."""
    return 0.5 * (
        np.exp(a + b - c) - np.exp(b - a - c) - np.exp(a - b - c) + np.exp(-a - b - c)
    ) / (-np.expm1(-2.0 * c))


def series_term_profile(n: int, y, s2):
    """The y/s2 factor of series term n: sinh(n pi min) sinh(n pi (1-max)) / sinh(n pi)."""
    y = np.asarray(y, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    npi = n * np.pi
    lo = np.minimum(y, s2)
    hi = np.maximum(y, s2)
    return _sinh_ratio(npi * lo, npi * (1.0 - hi), npi)


def stiffness_2d_direct(family: BasisFamily) -> np.ndarray:
    """Interior 2D stiffness by direct tensor quadrature (consistency oracle)."""
    x, w = composite_rule(gauss_legendre_rule(family.degree + 2), family.mesh.boundaries)
    tab = tabulate_nodal(family, x)[:, 1:-1]
    dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    mass = tab.T @ (w[:, None] * tab)
    stiff = dtab.T @ (w[:, None] * dtab)
    return np.kron(stiff, mass) + np.kron(mass, stiff)


def interior_tab(family: BasisFamily, pts, deriv: int = 0) -> np.ndarray:
    """The interior nodal basis functions, or a derivative, at pts."""
    return tabulate_nodal(family, pts, deriv=deriv)[:, 1:-1]


def psi_tab(d2: DualFunctionals2D, pts, deriv: int = 0) -> np.ndarray:
    """The eigenbasis psi_a = sum_j eigvecs[j, a] phi_j, or a derivative, at pts."""
    return interior_tab(d2.family, pts, deriv) @ d2.eigvecs


def field_grid_deriv(fld: Field2D, x, y, deriv_x: int, deriv_y: int) -> np.ndarray:
    """A derivative of a 2D field on the meshgrid of x and y; `Field2D.eval_grid`
    is its values."""
    return interior_tab(fld.family, x, deriv_x) @ fld.coeff_matrix() \
        @ interior_tab(fld.family, y, deriv_y).T


def project_gradient_2d(d2: DualFunctionals2D, gradient: tuple[Callable, Callable],
                        quad_points: int | None = None) -> np.ndarray:
    """The derivative-pairing projection's coefficients from the solution's
    gradient: the functionals' gradients paired with (u_x, u_y) on the
    tensor source rule, then one stiffness solve.  `project_2d` pairs the
    functionals with the source instead, the same after integration by parts."""
    x, w = mesh_quadrature(d2.family, quad_points)
    tab, dtab = psi_tab(d2, x), psi_tab(d2, x, 1)
    grid_w = np.outer(w, w)
    lx, ly = (grid_w * np.asarray(g(x[:, None], x[None, :]), dtype=float) for g in gradient)
    return _stiffness_solve(d2, dtab.T @ lx @ tab + tab.T @ ly @ dtab).ravel()


def tabulate_functionals_2d(d2: DualFunctionals2D, x, y,
                            deriv_x: int = 0, deriv_y: int = 0) -> np.ndarray:
    """Meshgrid tabulation of every 2D functional: shape (len(x), len(y), size)."""
    return _tensor_duals(d2, psi_tab(d2, x, deriv_x), psi_tab(d2, y, deriv_y))


def h10_project_values_2d(d2: DualFunctionals2D, u: Callable,
                          quad_points: int | None = None) -> np.ndarray:
    """Derivative-pairing projection of a field known only by its values.

    Element-wise integration by parts against psi_a (x) psi_b: area
    integrals of the field against their Laplacians plus line integrals
    against the normal-derivative jumps across interior mesh lines, then
    one stiffness solve.  Assumes zero boundary trace.  `u(x, y)` must
    accept 1D arrays and return the meshgrid values.
    """
    mesh = d2.family.mesh
    x, w = mesh_quadrature(d2.family, quad_points)
    tab = psi_tab(d2, x)
    d2tab = psi_tab(d2, x, 2)
    u_grid = w[:, None] * np.asarray(u(x, x), dtype=float) * w[None, :]
    load = -(d2tab.T @ u_grid @ tab + tab.T @ u_grid @ d2tab)

    jumps = nodal_deriv_jumps(d2.family) @ d2.eigvecs         # (n_ifaces, m)
    for c, xc in enumerate(mesh.boundaries[1:-1]):
        # vertical line x = xc: jump of the x-derivative, left minus right
        u_line = np.asarray(u(np.array([xc]), x), dtype=float)[0]
        load -= np.outer(jumps[c], tab.T @ (w * u_line))
        # horizontal line y = xc
        u_line = np.asarray(u(x, np.array([xc])), dtype=float)[:, 0]
        load -= np.outer(tab.T @ (w * u_line), jumps[c])
    return _stiffness_solve(d2, load).ravel()


def source_rule_pairing(op: SeriesOperator2D, residual: Callable,
                        breakpoints=()) -> np.ndarray:
    """The pairing [a, b] of the truncated-kernel image of a residual with
    psi_a (x) psi_b, its profile direction on the 1D source rule (cut at
    extra breakpoints) rather than on the convolution's pieces: the
    per-term integrals 2 S^T int D_n psi_b of the residual's sine moments
    against the basis profiles."""
    y_nodes, y_weights = mesh_quadrature(op.duals.family, op.quad_points, breakpoints)
    r_grid = np.asarray(residual(op.osc_nodes[:, None], y_nodes[None, :]), dtype=float)
    d_table = op.sine_weighted @ r_grid                        # (terms, ny)
    contracted = d_table @ (y_weights[:, None] * _psi_tab(op.duals, y_nodes))  # (terms, m)
    return 2.0 * op.sine_moments.T @ contracted


def reconstruct_with_pairing(op: SeriesOperator2D, residual: Callable, x, y,
                             pairing: np.ndarray) -> np.ndarray:
    """`reconstruct_fine_scales_2d` with the given pairing in place of the
    library's own: the convolution image less the lift of its Gram solve."""
    lift = 2.0 * op.sine_moments @ op.solve_gram(pairing) @ _psi_tab(op.duals, y).T
    return green_apply_2d(op, residual, x, y) - _sine_table(op.num_terms, x).T @ lift


def _green_tables(op: SeriesOperator2D, residual: Callable, y) -> tuple[np.ndarray, np.ndarray]:
    """Both uses of a residual's sine moments D_n(t), from one tabulation.

    Returns the profiles (terms, len(y)) of the terms of `green_apply_2d`,
    (2 / k) times each profile integral, so that the image is
    sines(x)^T @ profiles, and the pairing [a, b] of that image with
    psi_a (x) psi_b.  Moving the Laplacian onto the kernel collapses the
    profile direction of the pairing to 2 S^T int D_n psi_b: every piece
    lies in one element, where psi_b is a polynomial, so the pieces'
    rule serves both integrals.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_unit_domain(y)
    y = np.clip(y, 0.0, 1.0)
    k = np.pi * np.arange(1, op.num_terms + 1)
    cuts = sorted_unique(np.concatenate((op.duals.family.mesh.boundaries, y)))
    ends = _piece_ends(cuts, np.ceil(k[-1] * np.diff(cuts) / _PIECE_DECAY).astype(int))
    pieces = ends.size - 1
    points = max(_PIECE_POINTS, op.quad_points)
    rule = gauss_legendre_rule(points)
    # left[:, j] and right[:, j]: the two damped sums at ends[j], first per piece
    left = np.zeros((k.size, ends.size))
    right = np.zeros_like(left)
    psi_moments = np.zeros((k.size, op.duals.interior_size))  # int D_n psi_b
    block = max(1, _BLOCK_POINTS // points)
    for start in range(0, pieces, block):
        stop = min(start + block, pieces)
        t, w = composite_rule(rule, ends[start:stop + 1])
        r_grid = np.asarray(residual(op.osc_nodes[:, None], t[None, :]), dtype=float)
        d_table = (op.sine_weighted @ r_grid) * w[None, :]     # (terms, pts)
        psi_moments += d_table @ _psi_tab(op.duals, t)
        lo = np.repeat(ends[start:stop], points)
        hi = np.repeat(ends[start + 1:stop + 1], points)
        to_hi = np.exp(-np.outer(k, hi - t)) * -np.expm1(-np.outer(k, 2.0 * t))
        to_lo = np.exp(-np.outer(k, t - lo)) * -np.expm1(-np.outer(k, 2.0 * (1.0 - t)))
        shape = (k.size, stop - start, points)
        left[:, start + 1:stop + 1] = (d_table * to_hi).reshape(shape).sum(axis=2)
        right[:, start:stop] = (d_table * to_lo).reshape(shape).sum(axis=2)
    decay = np.exp(-np.outer(k, np.diff(ends)))
    for j in range(pieces):
        left[:, j + 1] += decay[:, j] * left[:, j]
        right[:, pieces - 1 - j] += decay[:, pieces - 1 - j] * right[:, pieces - j]
    at = np.searchsorted(ends, y)
    profile = (-np.expm1(-np.outer(k, 2.0 * (1.0 - y))) * left[:, at]
               - np.expm1(-np.outer(k, 2.0 * y)) * right[:, at]) \
        / (-2.0 * np.expm1(-2.0 * k))[:, None]
    return profile * (2.0 / k)[:, None], 2.0 * op.sine_moments.T @ psi_moments
