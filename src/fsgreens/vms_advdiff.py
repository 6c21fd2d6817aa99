"""Advection-diffusion on [0, 1] via the diffusion-kernel fine-scale operator.

The equation c u' - nu u'' = f is rewritten as a diffusion problem with a
modified right-hand side, so the fine scales come from the Poisson
fine-scale operator.  Two modes:

* demonstration mode: the residual uses the known exact solution gradient
  and the fine scales are reconstructed in one shot;
* iterative mode: each sweep solves the coarse-scale equation for the
  coarse coefficients given the current fine scales and applies the
  fine-scale map, both updates under-relaxed, until the unrelaxed coarse
  step stalls; the fine scales are held on a dense element-aligned grid
  and interpolated per element (they have derivative kinks at the joints).

The iteration uses precomputed linear maps: the coarse-scale matrix is
factored once, applying the diffusion Green's operator to a derivative
reduces to antiderivatives (G v' = x * integral(v) - cumulative(v) for v
vanishing at the ends), and applying it to a nodal field's second
derivative returns the negated field, so each sweep costs a spline build
plus small matrix products and one small triangular solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .basis1d import (
    BasisFamily,
    Field,
    SpaceKind,
    field_eval,
    nodal_deriv_jumps,
    tabulate_nodal,
)
from .dualspace import assemble_mass
from .finescale import (
    FineScaleOperator,
    SourceTerm,
    _poisson_apply,
    green_apply,
    piecewise_interpolant,
    reconstruct_fine_scales,
)
from .projection import (
    DualFunctionals,
    ProjectionFlavor,
    mesh_quadrature,
    tabulate_functionals,
)
from .quadrature import DEFAULT_QUAD_POINTS

DEFAULT_FINE_GRID = 2001
DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class AdvDiffProblem:
    """c u' - nu u'' = f on [0, 1] with homogeneous Dirichlet conditions."""

    advection: float
    diffusion: float
    source: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.diffusion <= 0.0:
            raise ValueError("diffusion coefficient must be positive")

    @property
    def peclet(self) -> float:
        """Mesh Peclet number over the unit domain width."""
        return self.advection / (2.0 * self.diffusion)


def galerkin_solve(problem: AdvDiffProblem, family: BasisFamily,
                   quad_points: int | None = None,
                   breakpoints=()) -> Field:
    """Plain Galerkin solution on the nodal space, for comparison runs."""
    mesh = family.mesh
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    tab = tabulate_nodal(family, x)[:, 1:-1]
    dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    system = problem.advection * tab.T @ (w[:, None] * dtab) \
        + problem.diffusion * dtab.T @ (w[:, None] * dtab)
    rhs = tab.T @ (w * np.asarray(problem.source(x), dtype=float))
    coeffs = np.zeros(mesh.num_nodal_dofs)
    try:
        coeffs[1:-1] = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular Galerkin system") from exc
    return Field(family, SpaceKind.NODAL, coeffs)


@dataclass
class IterationState:
    """Coupled coarse/fine iteration state and its convergence record."""

    u_bar: Field
    u_prime_grid: np.ndarray
    u_prime: np.ndarray
    iteration: int
    residual_history: list
    converged: bool


@dataclass(frozen=True)
class _Workspace:
    """Precomputed linear maps for one mesh/problem pair.

    The coarse-scale equation (I - (c/nu) A) u_bar = (mu, f)/nu +
    (c/nu) (mu', u'), with A the advective pairing, is factored once
    (coarse_lu), so a sweep solves it for the coarse coefficients given
    the current fine scales.

    The coarse-field residual is the classical piecewise one (no interface
    deltas), so the Green's application of the field's second derivative is
    the negated field minus the node-kernel responses weighted by the
    derivative jumps; dropping the deltas consistently on both the lifted
    and the paired side leaves the fine-scale result unchanged.
    """

    problem: AdvDiffProblem
    fns: DualFunctionals
    op: FineScaleOperator
    grid: np.ndarray
    nodal_tab: np.ndarray          # interior nodal basis on the grid
    green_first_deriv: np.ndarray  # G(psi_j') on the grid
    green_source: np.ndarray       # G(f) on the grid
    lifted_tab: np.ndarray         # lifted functionals on the grid
    node_green: np.ndarray         # kernel columns at the interior mesh nodes
    deriv_jumps: np.ndarray        # nodal-basis derivative jumps at those nodes
    source_pairing: np.ndarray     # (mu_j, f)
    adv_pairing: np.ndarray        # (mu_j', psi_k)
    second_pairing: np.ndarray     # (mu_j, psi_k'')
    pair_nodes: np.ndarray
    pair_dual_deriv: np.ndarray    # weighted mu' at pairing nodes
    mass: np.ndarray
    coarse_lu: tuple               # LU factors of I - (c/nu) adv_pairing


def fine_grid(mesh, total_points: int = DEFAULT_FINE_GRID) -> np.ndarray:
    """Element-aligned dense grid: uniform within each element, joints shared.

    The fine scales have derivative kinks at the element joints, so their
    interpolant must break there; an aligned grid keeps the per-element
    pieces kink-free.
    """
    per_elem = max(5, int(np.ceil((total_points - 1) / mesh.num_elements)) + 1)
    pieces = [np.linspace(mesh.boundaries[n], mesh.boundaries[n + 1], per_elem)
              for n in range(mesh.num_elements)]
    return np.unique(np.concatenate(pieces))


def fine_scale_interpolant(family: BasisFamily, grid: np.ndarray, values: np.ndarray):
    """Kink-safe interpolant of fine-scale samples on an element-aligned grid."""
    return piecewise_interpolant(family.mesh.boundaries, grid, values)


def _factor_coarse_matrix(problem: AdvDiffProblem, adv_pairing: np.ndarray) -> tuple:
    """LU factors of the coarse-scale matrix I - (c/nu) (mu_j', psi_k)."""
    matrix = np.eye(adv_pairing.shape[0]) \
        - (problem.advection / problem.diffusion) * adv_pairing
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            return lu_factor(matrix)
        except LinAlgWarning as exc:
            raise ValueError("singular coarse-scale system") from exc


def make_workspace(problem: AdvDiffProblem, fns: DualFunctionals, op: FineScaleOperator,
                   fine_grid_points: int = DEFAULT_FINE_GRID,
                   quad_points: int = DEFAULT_QUAD_POINTS) -> _Workspace:
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("the iterative scheme is built on the H10 functionals")
    family = fns.family
    mesh = family.mesh
    grid = fine_grid(mesh, fine_grid_points)

    nodal_tab = tabulate_nodal(family, grid)[:, 1:-1]
    green_first_deriv = _poisson_apply(lambda s: tabulate_nodal(family, s, deriv=1)[:, 1:-1],
                                       grid, mesh.boundaries, quad_points)
    green_source = green_apply(op.kernel, SourceTerm.from_function(problem.source),
                               grid, quad_points=quad_points,
                               mesh_boundaries=mesh.boundaries)
    lifted_tab = op.lifted_tab(grid)
    inner_nodes = mesh.boundaries[1:-1]
    node_green = op.kernel(grid[:, None], inner_nodes[None, :])
    deriv_jumps = nodal_deriv_jumps(family)

    x, w = mesh_quadrature(family, quad_points)
    mu_tab = tabulate_functionals(fns, x)
    mu_dtab = tabulate_functionals(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    psi_ddtab = tabulate_nodal(family, x, deriv=2)[:, 1:-1]
    source_pairing = mu_tab.T @ (w * np.asarray(problem.source(x), dtype=float))
    adv_pairing = mu_dtab.T @ (w[:, None] * psi_tab)
    second_pairing = mu_tab.T @ (w[:, None] * psi_ddtab)
    mass = assemble_mass(family, SpaceKind.NODAL).entries
    return _Workspace(problem, fns, op, grid, nodal_tab, green_first_deriv,
                      green_source, lifted_tab, node_green, deriv_jumps,
                      source_pairing, adv_pairing, second_pairing,
                      x, w[:, None] * mu_dtab, mass,
                      _factor_coarse_matrix(problem, adv_pairing))


def _coarse_sweep(ws: _Workspace, interior: np.ndarray, fine_spline) -> np.ndarray:
    """Coarse coefficients solving the coarse-scale equation for the given
    fine scales; the current coarse coefficients do not enter."""
    c, nu = ws.problem.advection, ws.problem.diffusion
    fine_term = ws.pair_dual_deriv.T @ fine_spline(ws.pair_nodes)
    return lu_solve(ws.coarse_lu, ws.source_pairing / nu + (c / nu) * fine_term)


def _fine_sweep(ws: _Workspace, interior: np.ndarray, fine_spline) -> np.ndarray:
    c, nu = ws.problem.advection, ws.problem.diffusion
    anti = fine_spline.antiderivative()
    green_fine_deriv = ws.grid * float(anti(ws.grid[-1:])[0]) - anti(ws.grid)
    lifted = ws.green_source / nu \
        - (c / nu) * (ws.green_first_deriv @ interior + green_fine_deriv) \
        - ws.nodal_tab @ interior \
        - ws.node_green @ (ws.deriv_jumps @ interior)
    fine_term = ws.pair_dual_deriv.T @ fine_spline(ws.pair_nodes)
    data = ws.source_pairing / nu + (c / nu) * (ws.adv_pairing @ interior + fine_term) \
        + ws.second_pairing @ interior
    return lifted - ws.lifted_tab @ ws.op.solve_gram(data)


def coarse_update(fns: DualFunctionals, problem: AdvDiffProblem, u_bar: Field,
                  u_prime_grid: np.ndarray, u_prime: np.ndarray,
                  quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """One application of the coarse-scale map; returns full nodal coefficients.

    Solves the coarse-scale equation for the new coarse coefficients u_bar:
    u_bar - (c/nu) (mu', u_bar) = (mu, f)/nu + (c/nu) (mu', u'), with the
    fine scales u' held at their current values.  The current coarse field
    does not enter; it is accepted so that both update maps take the same
    state.  With u' = 0 this is the Galerkin solve.
    """
    family = fns.family
    c, nu = problem.advection, problem.diffusion
    x, w = mesh_quadrature(family, quad_points)
    mu_tab = tabulate_functionals(fns, x)
    mu_dtab = tabulate_functionals(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    fine = fine_scale_interpolant(family, u_prime_grid, u_prime)(x)
    rhs = mu_tab.T @ (w * np.asarray(problem.source(x), dtype=float)) / nu \
        + (c / nu) * (mu_dtab.T @ (w * fine))
    interior = lu_solve(_factor_coarse_matrix(problem, mu_dtab.T @ (w[:, None] * psi_tab)), rhs)
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = interior
    return coeffs


def fine_update(op: FineScaleOperator, problem: AdvDiffProblem, u_bar: Field,
                u_prime_grid: np.ndarray, u_prime: np.ndarray) -> np.ndarray:
    """One application of the fine-scale map, on the fine grid.

    The residual of the rewritten diffusion problem uses the exact
    piecewise derivatives of the coarse field and the interpolant
    derivative of the current fine field.
    """
    c, nu = problem.advection, problem.diffusion
    spline = fine_scale_interpolant(u_bar.family, u_prime_grid, u_prime)
    dspline = spline.derivative()

    def smooth(s):
        return np.asarray(problem.source(s), dtype=float) / nu \
            - (c / nu) * (field_eval(u_bar, s, deriv=1) + dspline(s)) \
            + field_eval(u_bar, s, deriv=2)

    mesh = u_bar.family.mesh
    resid = SourceTerm(smooth=smooth, breakpoints=tuple(mesh.boundaries[1:-1]))
    return reconstruct_fine_scales(op, resid, u_prime_grid)


def iterate(problem: AdvDiffProblem, fns: DualFunctionals, op: FineScaleOperator,
            relaxation: float | None = None,
            tolerance: float = DEFAULT_TOLERANCE,
            max_iter: int = DEFAULT_MAX_ITER,
            fine_grid_points: int = DEFAULT_FINE_GRID,
            quad_points: int = DEFAULT_QUAD_POINTS) -> IterationState:
    """Under-relaxed coupled iteration from zero initial coarse and fine scales.

    Each sweep solves the coarse-scale equation for the coarse coefficients
    given the current fine scales, applies the fine-scale map, and moves
    both scales by the relaxation factor towards the new values.  Stops when
    the L2 norm (through the nodal mass matrix) of the unrelaxed coarse
    step, new minus old coefficients before relaxation, drops below the
    tolerance; residual_history records that norm for every sweep.  The
    relaxed increment would understate the distance to the fixed point by
    about one over the relaxation factor.  Hitting max_iter is reported
    through the converged flag, not raised.
    """
    if relaxation is None:
        relaxation = 1.0 / (2.0 * problem.peclet) if problem.advection != 0.0 else 1.0
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation factor must lie in (0, 1]")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    ws = make_workspace(problem, fns, op, fine_grid_points, quad_points)
    family = fns.family
    ndof = family.mesh.num_nodal_dofs
    interior = np.zeros(ndof - 2)
    fine = np.zeros(ws.grid.size)
    history = []
    converged = False
    iteration = 0
    while iteration < max_iter:
        iteration += 1
        spline = fine_scale_interpolant(family, ws.grid, fine)
        new_interior = _coarse_sweep(ws, interior, spline)
        new_fine = _fine_sweep(ws, interior, spline)
        step = np.zeros(ndof)
        step[1:-1] = new_interior - interior
        interior = interior + relaxation * step[1:-1]
        fine = fine + relaxation * (new_fine - fine)
        step_norm = float(np.sqrt(step @ ws.mass @ step))
        history.append(step_norm)
        if step_norm < tolerance:
            converged = True
            break
    coeffs = np.zeros(ndof)
    coeffs[1:-1] = interior
    return IterationState(Field(family, SpaceKind.NODAL, coeffs), ws.grid.copy(),
                          fine, iteration, history, converged)


def reconstruct_with_exact_gradient(op: FineScaleOperator, problem: AdvDiffProblem,
                                    u_bar: Field,
                                    exact_gradient: Callable[[np.ndarray], np.ndarray],
                                    grid, breakpoints=()) -> np.ndarray:
    """Demonstration-mode fine scales: residual built from the exact gradient.

    Valid for both projection flavors; edge coarse fields contribute their
    jump terms through the residual assembly.
    """
    from .finescale import residual_from_field

    c, nu = problem.advection, problem.diffusion

    def modified_source(s):
        return np.asarray(problem.source(s), dtype=float) / nu \
            - (c / nu) * np.asarray(exact_gradient(s), dtype=float)

    resid = residual_from_field(u_bar, modified_source)
    if len(breakpoints):
        extra = tuple(sorted(set(resid.breakpoints) | {float(b) for b in breakpoints}))
        resid = SourceTerm(smooth=resid.smooth, breakpoints=extra,
                           point_sources=resid.point_sources,
                           point_dipoles=resid.point_dipoles)
    return reconstruct_fine_scales(op, resid, grid)
