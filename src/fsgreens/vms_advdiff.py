"""Advection-diffusion on [0, 1] via the diffusion-kernel fine-scale operator.

The equation c u' - nu u'' = f is rewritten as a diffusion problem with a
modified right-hand side, so the fine scales come from the Poisson
fine-scale operator.  Two modes:

* demonstration mode: the residual uses the known exact solution gradient
  and the fine scales are reconstructed in one shot;
* iterative mode: each sweep solves the coarse-scale equation for the
  coarse coefficients given the current fine scales and applies the
  fine-scale map, both updates under-relaxed, until the unrelaxed coarse
  step stalls.

The iteration holds the fine scales by their values v at the nodes of the
source rule: q Gauss nodes per cell, the cells being the mesh elements cut
at the outflow layer's breakpoints.  They are read through each cell's
Lagrange interpolant I[v] (Nystrom).  On that interpolant every term a
sweep needs is exact: the coarse pairing (mu', I[v]) is the rule itself,
and applying the diffusion Green's operator to the derivative needs only
integrals, G(I[v]') = x int_0^1 I[v] - int_0^x I[v] (in the weak sense, as
G vanishes at both ends), which are linear in v.  The fine-scale operator
annihilates a coarse field's second derivative.  So a sweep is a fixed
affine map of the coarse coefficients and v, held as one matrix with the
coarse-scale solve folded in; with the relaxation folded into its rows,
one sweep is one dense matrix-vector product.  The fine scales on any
other grid are the interpolant evaluated there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis1d import (
    BasisFamily,
    Field,
    SpaceKind,
    _barycentric_weights,
    _differentiation_matrix,
    _lagrange_tab,
    _locate,
    tabulate_nodal,
)
from .cases import boundary_layer_breakpoints
from .dualspace import assemble_mass
from .finescale import (
    FineScaleOperator,
    SourceTerm,
    _poisson_apply,
    green_apply,
    reconstruct_fine_scales,
)
from .projection import (
    DualFunctionals,
    ProjectionFlavor,
    interior_field,
    mesh_quadrature,
    pair_functionals,
    tabulate_functionals,
)
from .quadrature import gauss_legendre_rule, sorted_unique

DEFAULT_FINE_GRID = 2001
DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITER = 100_000
# Sweeps per block of `iterate`: the block's step norms come from one
# matrix product (8, 16 and 32 ran equally fast at N=3, p=2)
_BLOCK = 16


@dataclass(frozen=True)
class AdvDiffProblem:
    """c u' - nu u'' = f on [0, 1] with homogeneous Dirichlet conditions."""

    advection: float
    diffusion: float
    source: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not 0.0 < self.diffusion < np.inf:
            raise ValueError(f"diffusion must be finite and positive, got {self.diffusion}")
        if not np.isfinite(self.advection):
            raise ValueError(f"advection speed must be finite, got {self.advection}")


def galerkin_solve(problem: AdvDiffProblem, family: BasisFamily,
                   quad_points: int | None = None,
                   breakpoints=()) -> Field:
    """Plain Galerkin solution on the nodal space, for comparison runs."""
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    tab = tabulate_nodal(family, x)[:, 1:-1]
    dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    system = problem.advection * tab.T @ (w[:, None] * dtab) \
        + problem.diffusion * dtab.T @ (w[:, None] * dtab)
    rhs = tab.T @ (w * np.asarray(problem.source(x), dtype=float))
    try:
        return interior_field(family, np.linalg.solve(system, rhs))
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular Galerkin system") from exc



@functools.cache
def _reference_cell(q: int) -> tuple:
    """The q Gauss nodes s on [-1, 1], their barycentric weights, their
    differentiation matrix and the integrals int_{-1}^{s_i} l_j of their
    Lagrange polynomials l_j, by the q-point rule mapped to [-1, s_i]."""
    rule = gauss_legendre_rule(q)
    nodes = rule.nodes
    bary = _barycentric_weights(nodes)
    diff = _differentiation_matrix(nodes, bary)
    half = 0.5 * (nodes + 1.0)
    pts = -1.0 + half[:, None] * (nodes + 1.0)
    tab = _lagrange_tab(nodes, bary, diff, pts.ravel()).reshape(q, q, q)
    return nodes, bary, diff, half[:, None] * np.einsum("k,ikj->ij", rule.weights, tab)


def _cell_interpolant(cells: np.ndarray, values: np.ndarray, x, deriv: int = 0) -> np.ndarray:
    """The cell-wise Lagrange interpolant of values at the q Gauss nodes of
    each cell between consecutive `cells`, or its derivative, at x.  Points
    on an inner cell boundary take the left cell's (one-sided) value."""
    cell, half, xi = _locate(cells, x)
    q = values.size // (cells.size - 1)
    nodes, bary, diff, _ = _reference_cell(q)
    tab = _lagrange_tab(nodes, bary, diff, xi, deriv)
    return np.einsum("ij,ij->i", tab, values.reshape(-1, q)[cell]) / half**deriv


@dataclass
class IterationState:
    """Coupled coarse/fine iteration state and its convergence record.

    The fine scales are fine_values, their values at the q Gauss nodes of
    each cell between consecutive `cells`, read through each cell's
    Lagrange interpolant; u_prime is that interpolant on u_prime_grid and
    `fine_scales` evaluates it anywhere.  relaxed_map is the relaxed sweep
    (1 - w) I + w [M | b] of z = (u_bar, v, 1) that the run iterated.
    """

    u_bar: Field
    u_prime_grid: np.ndarray
    u_prime: np.ndarray
    iteration: int
    residual_history: list
    converged: bool
    cells: np.ndarray
    fine_values: np.ndarray
    relaxed_map: np.ndarray

    def fine_scales(self, x, deriv: int = 0) -> np.ndarray:
        """The fine scales (deriv=0) or their cell-wise derivative at x."""
        return _cell_interpolant(self.cells, self.fine_values, x, deriv)

    @functools.cached_property
    def sweep_spectral_radius(self) -> float:
        """Largest |eigenvalue| of the linear part of relaxed_map: below 1
        the relaxed iteration converges from any start, above 1 it diverges."""
        return float(np.max(np.abs(np.linalg.eigvals(self.relaxed_map[:, :-1]))))


@dataclass(frozen=True)
class _Workspace:
    """One unrelaxed sweep of the coupled iteration as an affine map, for
    one mesh/problem pair: `sweep` = [M | b] maps z = (u_bar, v, 1), the
    interior coarse coefficients and the fine scales at the nodes, to the
    new (u_bar, v).

    With A the advective pairing (mu_j', psi_k), P v = (c/nu) (mu', I[v])
    the fine scales' pairing on the rule and g' = G - R (mu, .) the
    fine-scale operator, G the Poisson Green's operator and R the
    reconstruction functions at the nodes, a sweep is

        u_bar <- (I - (c/nu) A)^{-1} ((mu, f)/nu + P v),
        v     <- g' (f/nu - (c/nu) (u_bar' + I[v]')).

    So the coarse rows are the coarse-scale solve of [P | (mu, f)/nu] next
    to a zero u_bar block; in the fine rows (mu, w') = -(mu', w) turns
    (c/nu) g'(I[v]') into (c/nu) green_deriv v + R P v.  green_deriv v is
    G(I[v]') = x w^T v - Q v at the nodes, Q v the integrals of I[v] from 0
    to each node: block lower triangular, with the full weights of every
    earlier cell and, within a cell, the reference integrals of its
    Lagrange basis scaled by half the cell width.  The H10 reconstruction
    functions are the interior nodal basis (`FineScaleOperator.resolved`),
    so R is the table psi of A, and (mu, f) is `pair_functionals` on the
    operator's source rule.

    The residual's diffusive part, the coarse field's distributional
    second derivative, is left out: the fine-scale operator maps it to
    (I - Pi) of the coarse field itself, which is zero, since the H10
    projection Pi reproduces the coarse space.

    `step_rows` give the unrelaxed coarse step from z, multiplied by L^T,
    L the Cholesky factor of the interior nodal mass matrix, so that the
    step's L2 norm is the Euclidean norm of their product with z.
    """

    nodes: np.ndarray
    cells: np.ndarray              # the cell boundaries: mesh joints and layer breakpoints
    green_deriv: np.ndarray        # G(I[v]') at the nodes from v
    sweep: np.ndarray              # [M | b]: z = (u_bar, v, 1) to the unrelaxed (u_bar, v)
    step_rows: np.ndarray          # L^T ([M | b]'s coarse rows - [I 0]), for the step norm


def fine_grid(mesh, total_points: int = DEFAULT_FINE_GRID) -> np.ndarray:
    """Element-aligned output grid: uniform within each element, joints shared."""
    per_elem = max(5, int(np.ceil((total_points - 1) / mesh.num_elements)) + 1)
    pieces = [np.linspace(mesh.boundaries[n], mesh.boundaries[n + 1], per_elem)
              for n in range(mesh.num_elements)]
    return sorted_unique(np.concatenate(pieces))


def _coarse_solve(problem: AdvDiffProblem, adv_pairing: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the coarse-scale system I - (c/nu) (mu_j', psi_k) for rhs, one
    vector or one column per right side; an exactly singular matrix raises
    ValueError."""
    matrix = np.eye(adv_pairing.shape[0]) \
        - (problem.advection / problem.diffusion) * adv_pairing
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular coarse-scale system") from exc


def make_workspace(problem: AdvDiffProblem, fns: DualFunctionals,
                   op: FineScaleOperator) -> _Workspace:
    """The sweep's map on the nodes of the operator's source rule:
    `op.quad_points` Gauss nodes per cell, the cells cut at
    `boundary_layer_breakpoints` when c is not zero, without which the
    layer is unresolved.  A breakpoint within nu/(100 |c|) of a mesh joint
    is dropped, from the cells and the rule: it would cut a sliver cell
    whose node coordinates and derivative map carry the rounding of its
    width.  Raises ValueError when the map is not finite."""
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("the iterative scheme is built on the H10 functionals")
    family = fns.family
    mesh = family.mesh
    ratio = problem.advection / problem.diffusion
    layer = np.empty(0)
    if problem.advection != 0.0:
        layer = boundary_layer_breakpoints(problem.advection, problem.diffusion)
        gap = np.min(np.abs(np.subtract.outer(layer, mesh.boundaries)), axis=1)
        layer = layer[gap >= problem.diffusion / (100.0 * abs(problem.advection))]
    cells = sorted_unique(np.concatenate((mesh.boundaries, layer)))
    q = op.quad_points
    x, w = mesh_quadrature(family, q, layer)

    mu_dtab = tabulate_functionals(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    coarse_rhs = pair_functionals(fns, x, w * np.asarray(problem.source(x), dtype=float)) \
        / problem.diffusion
    adv_pairing = mu_dtab.T @ (w[:, None] * psi_tab)
    pairing = ratio * (mu_dtab.T * w)

    green_source = green_apply(SourceTerm.from_function(problem.source), x,
                               quad_points=q, mesh_boundaries=mesh.boundaries)
    # G(psi_k'): s psi_k'(s) has degree p on each element, so the
    # (p // 2 + 1)-point rule is exact
    green_psi_deriv = _poisson_apply(lambda s: tabulate_nodal(family, s, deriv=1)[:, 1:-1],
                                     x, mesh.boundaries, family.degree // 2 + 1)
    num_cells = cells.size - 1
    cell = np.repeat(np.arange(num_cells), q)
    partial = np.where(cell[:, None] > cell, w, 0.0)
    blocks = partial.reshape(num_cells, q, num_cells, q)
    diagonal = np.arange(num_cells)
    blocks[diagonal, :, diagonal, :] = 0.5 * np.diff(cells)[:, None, None] * _reference_cell(q)[3]
    green_deriv = x[:, None] * w - partial

    coarse = _coarse_solve(problem, adv_pairing, np.column_stack((pairing, coarse_rhs)))
    sweep = np.block([
        [np.zeros((fns.size, fns.size)), coarse],
        [-ratio * (green_psi_deriv + psi_tab @ adv_pairing),
         -ratio * green_deriv - psi_tab @ pairing,
         (green_source / problem.diffusion - psi_tab @ coarse_rhs)[:, None]]])
    if not np.all(np.isfinite(sweep)):
        raise ValueError("the sweep map overflows; c/nu is too large")
    mass = assemble_mass(family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    step_rows = np.linalg.cholesky(mass).T @ (sweep[:fns.size] - np.eye(fns.size, sweep.shape[1]))
    return _Workspace(x, cells, green_deriv, sweep, step_rows)


def iterate(problem: AdvDiffProblem, fns: DualFunctionals, op: FineScaleOperator,
            relaxation: float | None = None,
            tolerance: float = DEFAULT_TOLERANCE,
            max_iter: int = DEFAULT_MAX_ITER,
            fine_grid_points: int = DEFAULT_FINE_GRID) -> IterationState:
    """Under-relaxed coupled iteration from zero initial coarse and fine scales.

    Each sweep solves the coarse-scale equation for the coarse coefficients
    given the current fine scales, applies the fine-scale map, and moves
    both scales by the relaxation factor w towards the new values; w must
    lie in (0, 1] and defaults to min(1, nu/|c|), which is 1 without
    advection.  Stops when the L2 norm (through the
    nodal mass matrix) of the unrelaxed coarse step, new minus old
    coefficients before relaxation, drops below the tolerance;
    residual_history records that norm for every sweep.  The relaxed
    increment would understate the distance to the fixed point by about
    one over the relaxation factor.  Hitting max_iter is reported through
    the converged flag, not raised; a sweep map that overflows raises
    ValueError.  The fine scales are returned on
    `fine_grid(mesh, fine_grid_points)`, and the state keeps the relaxed
    map, whose spectral radius it gives as `sweep_spectral_radius`.

    The sweeps run in blocks of up to _BLOCK: each sweep is one product
    of the relaxed map (1 - w) I + w [M | b], the identity beside the
    constant column, with the previous state, and the block's scaled
    unrelaxed coarse steps come from one product of its states with the
    workspace's `step_rows`.  Their norms are taken in order, so the run
    stops at the first one below the tolerance with the state after
    exactly that many sweeps; the sweeps computed past it are dropped.
    """
    if relaxation is None:
        relaxation = min(1.0, problem.diffusion / abs(problem.advection)) \
            if problem.advection != 0.0 else 1.0
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation factor must lie in (0, 1]")
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be finite and positive")
    ws = make_workspace(problem, fns, op)
    size = fns.size
    relaxed = relaxation * ws.sweep
    relaxed[:, :-1][np.diag_indices(relaxed.shape[0])] += 1.0 - relaxation
    # rows[j] is the state z = (u_bar, v, 1) after j sweeps of the block
    rows = np.zeros((_BLOCK + 1, relaxed.shape[1]))
    rows[:, -1] = 1.0
    sweeps = [(rows[j], rows[j + 1, :-1]) for j in range(_BLOCK)]
    history = []
    converged = False
    iteration = 0
    done = 0
    while iteration < max_iter:
        block = min(_BLOCK, max_iter - iteration)
        for old, new in sweeps[:block]:
            np.dot(relaxed, old, out=new)
        # hypot scales, so the norm neither underflows nor overflows
        for done, step in enumerate((rows[:block] @ ws.step_rows.T).tolist(), 1):
            step_norm = math.hypot(*step)
            history.append(step_norm)
            if step_norm < tolerance:
                converged = True
                break
        iteration += done
        if converged:
            break
        rows[0] = rows[block]
    grid = fine_grid(fns.family.mesh, fine_grid_points)
    fine = rows[done, size:-1].copy()
    return IterationState(interior_field(fns.family, rows[done, :size].copy()), grid,
                          _cell_interpolant(ws.cells, fine, grid), iteration, history,
                          converged, ws.cells, fine, relaxed)


def reconstruct_with_exact_gradient(op: FineScaleOperator, problem: AdvDiffProblem,
                                    u_bar: Field,
                                    exact_gradient: Callable[[np.ndarray], np.ndarray],
                                    grid, breakpoints=()) -> np.ndarray:
    """Demonstration-mode fine scales: residual built from the exact gradient.

    The residual is r = f_mod + u_bar'' with f_mod = (f - c u')/nu, so its
    Green's image is in closed form, G r = G f_mod - u_bar, for nodal and
    edge coarse fields alike (L2; under H10 the field must be nodal).
    """
    c, nu = problem.advection, problem.diffusion

    def modified_source(s):
        return np.asarray(problem.source(s), dtype=float) / nu \
            - (c / nu) * np.asarray(exact_gradient(s), dtype=float)

    resid = SourceTerm(modified_source, tuple(map(float, breakpoints)), coarse=u_bar)
    return reconstruct_fine_scales(op, resid, grid)
