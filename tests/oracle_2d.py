"""2D oracles: what the tests check the tensor-product library against.

The interior 2D stiffness by direct tensor quadrature
(`stiffness_2d_direct`), the meshgrid tabulation of every 2D functional
(`tabulate_functionals_2d`) and the derivative-pairing projection of a
field known only by its values (`h10_project_values_2d`).  The library
itself never forms the m^2 x m^2 stiffness or a functional table: it works
in the fast-diagonalized eigenbasis.  The series pairing on the 1D
source rule (`source_rule_pairing`) and the reconstruction from a given
pairing (`reconstruct_with_pairing`) check the library's pairing, which
reads the residual's one tabulation on the convolution's pieces.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fsgreens.basis1d import BasisFamily, tabulate_nodal
from fsgreens.poisson2d import (DualFunctionals2D, SeriesOperator2D, _psi_tab, _sine_table,
                                _stiffness_solve, _tensor_duals, green_apply_2d)
from fsgreens.projection import mesh_quadrature
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import nodal_deriv_jumps


def stiffness_2d_direct(family: BasisFamily) -> np.ndarray:
    """Interior 2D stiffness by direct tensor quadrature (consistency oracle)."""
    x, w = composite_rule(gauss_legendre_rule(family.degree + 2), family.mesh.boundaries)
    tab = tabulate_nodal(family, x)[:, 1:-1]
    dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    mass = tab.T @ (w[:, None] * tab)
    stiff = dtab.T @ (w[:, None] * dtab)
    return np.kron(stiff, mass) + np.kron(mass, stiff)


def tabulate_functionals_2d(d2: DualFunctionals2D, x, y,
                            deriv_x: int = 0, deriv_y: int = 0) -> np.ndarray:
    """Meshgrid tabulation of every 2D functional: shape (len(x), len(y), size)."""
    return _tensor_duals(d2, _psi_tab(d2, x, deriv_x), _psi_tab(d2, y, deriv_y))


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
    tab = _psi_tab(d2, x)
    d2tab = _psi_tab(d2, x, 2)
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
