"""Metamorphic relations: checks that need no reference solution.

The exact maps obey the reflection x -> 1 - x: mirror the mesh and the
source, and the H10 projection u_bar and the fine scales u' reflect with
them; the coupled advection-diffusion run at -c is the run at c mirrored.
Each relation is checked in floats, in units of eps max |u|, as in
`test_exact_h10.py`.  Points on a vertex are left out: a vertex reads
`_locate`'s side, which reflection swaps.  The L2 columns are not checked
here: their u_bar and u' are each off by up to 6e-13, errors that cancel
in their sum, so the L2 relation would fail now.
"""

import numpy as np
import pytest

from fsgreens.basis1d import Mesh1D, basis_family, field_eval
from fsgreens.cases import advdiff_const_case, boundary_layer_breakpoints
from fsgreens.finescale import FineScaleOperator, reconstruct_fine_scales, residual_from_field
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (DualFunctionals, ProjectionFlavor, h10_project_from_source,
                                 source_rule_points)
from fsgreens.vms_advdiff import AdvDiffProblem, galerkin_solve, iterate

EPS = np.finfo(float).eps
# u_bar's mismatch is at most 4.0 eps max |u|, where a solve with the
# interior Lagrange stiffness gives 12.0 at (3, 32) and 83.2 at (2, 64); u'
# is at most 9.3e-4 eps max |u|
U_BAR_BOUND = 8.0
U_PRIME_BOUND = 1e-2
# every column of the coupled run agrees within 14.2 eps max |u|, 2.5e-15
COUPLED_BOUND = 32.0


def _solution(x):
    return np.sin(2.0 * np.pi * x) + np.exp(x) * x * (1.0 - x)


def _source(x):
    """-u'' of `_solution`."""
    return 4.0 * np.pi**2 * np.sin(2.0 * np.pi * x) + np.exp(x) * (x * x + 3.0 * x)


def _h10_columns(mesh, source, x):
    """u_bar from the source shortcut and its fine scales u' at x."""
    fns = DualFunctionals(ProjectionFlavor.H10, basis_family(mesh))
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(mesh.degree))
    u_bar = h10_project_from_source(fns, source)
    return field_eval(u_bar, x), reconstruct_fine_scales(op, residual_from_field(u_bar, source), x)


@pytest.mark.parametrize("num_elements, degree, jittered",
                         [(100, 2, False), (300, 5, True), (3, 32, True), (2, 64, False)])
def test_h10_columns_reflect_with_the_mesh_and_the_source(num_elements, degree, jittered):
    bounds = np.linspace(0.0, 1.0, num_elements + 1)
    if jittered:
        rng = np.random.default_rng(num_elements + degree)
        bounds[1:-1] += rng.uniform(-0.3, 0.3, num_elements - 1) / num_elements
    mesh = Mesh1D(0.0, 1.0, num_elements, degree, bounds)
    mirror = Mesh1D(0.0, 1.0, num_elements, degree, 1.0 - bounds[::-1])
    grid = np.linspace(0.0, 1.0, 401)
    x = grid[np.min(np.abs(grid[:, None] - bounds), axis=1) > 1e-12]
    u_bar, u_prime = _h10_columns(mesh, _source, x)
    mirror_bar, mirror_prime = _h10_columns(mirror, lambda s: _source(1.0 - s), 1.0 - x)
    scale = EPS * np.max(np.abs(_solution(x)))
    assert np.max(np.abs(u_bar - mirror_bar)) <= U_BAR_BOUND * scale
    assert np.max(np.abs(u_prime - mirror_prime)) <= U_PRIME_BOUND * scale


def test_coupled_run_at_minus_c_is_the_run_at_c_mirrored():
    # vms-iter's columns at N = 3, p = 2, nu = 0.05: u_bar, u' and the
    # Galerkin solution at c = -1, rows reversed, are those at c = 1, after
    # the same number of sweeps
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    fns = DualFunctionals(ProjectionFlavor.H10, family)
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(2))
    runs = []
    for c in (1.0, -1.0):
        problem = AdvDiffProblem(c, 0.05, advdiff_const_case(c, 0.05).source)
        state = iterate(problem, fns, op)
        grid = state.u_prime_grid
        galerkin = galerkin_solve(problem, family,
                                  breakpoints=boundary_layer_breakpoints(c, 0.05))
        runs.append((state.iteration, np.column_stack(
            [field_eval(state.u_bar, grid), state.u_prime, field_eval(galerkin, grid)])))
    (sweeps, columns), (mirror_sweeps, mirror_columns) = runs
    assert sweeps == mirror_sweeps
    scale = EPS * np.max(np.abs(columns[:, 0] + columns[:, 1]))
    assert np.max(np.abs(columns - mirror_columns[::-1])) <= COUPLED_BOUND * scale
