"""The coupled iteration's two update maps, written out the long way: the
oracles for the precomputed sweep in `fsgreens.vms_advdiff`, which `sweep`
applies.

Each map is built from the problem's pieces on every call: the coarse map
tabulates the functionals and solves the coarse-scale system, and the fine
map assembles the residual of the rewritten diffusion problem and applies
the library's fine-scale operator to it.  Both take the current fine scales
u' as callables, its values and its derivative, so that given the sweep's
Lagrange interpolant (`IterationState.fine_scales`) they integrate the same
function the sweep does.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from fsgreens.basis1d import Field, field_eval, tabulate_nodal
from fsgreens.finescale import FineScaleOperator, SourceTerm, reconstruct_fine_scales
from fsgreens.projection import DualFunctionals, interior_field, mesh_quadrature, tabulate_functionals
from fsgreens.vms_advdiff import AdvDiffProblem, _coarse_solve

FineScales = Callable[[np.ndarray], np.ndarray]


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
    mu_tab = tabulate_functionals(fns, x)
    mu_dtab = tabulate_functionals(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    rhs = mu_tab.T @ (w * np.asarray(problem.source(x), dtype=float)) / nu \
        + (c / nu) * (mu_dtab.T @ (w * u_prime(x)))
    interior = _coarse_solve(problem, mu_dtab.T @ (w[:, None] * psi_tab), rhs)
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
