"""The coupled iteration's two update maps, written out the long way: the
oracles for the precomputed sweep in `fsgreens.vms_advdiff`, which `sweep`
applies, and the sweep's fixed point by one dense solve (`fixed_point`).

Each map is built from the problem's pieces on every call: the coarse map
tabulates the functionals by solves with the stiffness K
(`global_h10_tabulate`), where the sweep reads element-local tables, and
solves the coarse-scale system; the fine map assembles the residual of the
rewritten diffusion problem and applies the library's fine-scale operator
to it.  Both take the current fine scales u' as callables, its values and
its derivative, so that given the sweep's Lagrange interpolant
(`IterationState.fine_scales`) and its cell-wise derivative
(`cell_interpolant_deriv`) they integrate the same function the sweep does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fsgreens.basis1d import (Field, _barycentric_weights, _differentiation_matrix, _lagrange_tab,
                              _locate, field_eval, tabulate_nodal)
from fsgreens.finescale import FineScaleOperator, SourceTerm, reconstruct_fine_scales
from fsgreens.projection import DualFunctionals, interior_field, mesh_quadrature
from fsgreens.quadrature import gauss_legendre_rule
from fsgreens.vms_advdiff import AdvDiffProblem, _coarse_solve

from flattened_oracle import global_h10_tabulate

FineScales = Callable[[np.ndarray], np.ndarray]


def cell_interpolant_deriv(cells: np.ndarray, values: np.ndarray, x) -> np.ndarray:
    """The derivative at x of the cell-wise Lagrange interpolant of values at
    the q Gauss nodes of each cell between consecutive `cells`, the sweep's
    fine scales: each cell's reference tabulation times its differentiation
    matrix, over the cell's half width.  Points on an inner cell boundary
    take the left cell's one-sided derivative."""
    cell, half, xi = _locate(cells, x)
    q = values.size // (cells.size - 1)
    nodes = gauss_legendre_rule(q).nodes
    bary = _barycentric_weights(nodes)
    tab = _lagrange_tab(nodes, bary, _differentiation_matrix(nodes, bary), xi, deriv=1)
    return np.einsum("ij,ij->i", tab, values.reshape(-1, q)[cell]) / half


def coarse_update(fns: DualFunctionals, problem: AdvDiffProblem, u_bar: Field,
                  u_prime: FineScales, quad_points: int | None = None,
                  breakpoints=()) -> np.ndarray:
    """One application of the coarse-scale map; returns full nodal coefficients.

    Solves the coarse-scale equation for the new coarse coefficients u_bar:
    u_bar - (c/nu) (mu', u_bar) = (mu, f)/nu + (c/nu) (mu', u'), with the
    fine scales u' held at their current values and paired on the source
    rule cut at `breakpoints`.  The current coarse field does not enter; it
    is accepted so that both update maps take the same state.  With u' = 0
    this is the Galerkin solve.
    """
    family = fns.family
    c, nu = problem.advection, problem.diffusion
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    mu_tab = global_h10_tabulate(fns, x)
    mu_dtab = global_h10_tabulate(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    rhs = mu_tab.T @ (w * np.asarray(problem.source(x), dtype=float)) / nu \
        + (c / nu) * (mu_dtab.T @ (w * u_prime(x)))
    interior = _coarse_solve((c / nu) * mu_dtab.T @ (w[:, None] * psi_tab), rhs)
    return interior_field(family, interior).coeffs


def fine_update(op: FineScaleOperator, problem: AdvDiffProblem, u_bar: Field,
                du_prime: FineScales, grid, breakpoints=()) -> np.ndarray:
    """One application of the fine-scale map, at the points grid.

    The residual of the rewritten diffusion problem uses the exact
    piecewise derivatives of the coarse field and the derivative du_prime
    of the current fine scales, whose kinks are the mesh joints and the
    `breakpoints`.
    """
    c, nu = problem.advection, problem.diffusion

    def smooth(s):
        return np.asarray(problem.source(s), dtype=float) / nu \
            - (c / nu) * (field_eval(u_bar, s, deriv=1) + du_prime(s)) \
            + field_eval(u_bar, s, deriv=2)

    mesh = u_bar.family.mesh
    kinks = np.union1d(mesh.boundaries[1:-1], np.asarray(breakpoints, dtype=float))
    resid = SourceTerm(smooth=smooth, breakpoints=tuple(kinks))
    return reconstruct_fine_scales(op, resid, grid)


def sweep(ws, interior: np.ndarray, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unrelaxed sweep, the workspace's map applied to (u_bar, v, 1)."""
    new = ws.sweep @ np.concatenate((interior, fine, [1.0]))
    return new[:interior.size], new[interior.size:]


def fixed_point(ws) -> tuple[np.ndarray, np.ndarray]:
    """The fixed point (u_bar, v) of the workspace's sweep z -> M z + b, the
    limit of every convergent relaxed run: one dense solve of (I - M) z = b."""
    linear, const = ws.sweep[:, :-1], ws.sweep[:, -1]
    z = np.linalg.solve(np.eye(const.size) - linear, const)
    size = ws.step_rows.shape[0]
    return z[:size], z[size:]
