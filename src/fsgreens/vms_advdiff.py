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
  and read through a cubic spline that is only continuous at the joints
  (they have derivative kinks there).

The iteration uses precomputed linear maps: the coarse-scale matrix is
factored once, applying the diffusion Green's operator to a derivative
reduces to antiderivatives (G v' = x * integral(v) - cumulative(v) for v
vanishing at the ends), and the fine-scale operator annihilates a
coarse field's second derivative.  The spline depends only on the
grid and the mesh, so its coefficients, its pairing with the functionals
and its antiderivative on the grid are linear maps of the fine-grid
values.  Its collocation matrix C is banded and totally positive, and
tridiagonal but for the two not-a-knot rows next to each mesh joint.  One
row operation per such row makes it tridiagonal; each joint's row holds
only its diagonal (a triple knot), so one more per row beside a joint
clears the joint's column, and a positive diagonal scaling then makes the
matrix symmetric.  The three fold into one row operation R with R C D^{-1}
symmetric positive definite, D the antiderivative steps, factored once
(LAPACK pttrf).  The iteration keeps the fine scales as g = R u', so a
sweep is one SPD tridiagonal solve, one cumulative sum, one sparse
antiderivative product and one dense affine map, with the relaxation
folded into the maps, and its stop test is the BLAS norm of U times the
coarse step, U the Cholesky factor of the mass matrix; u' = C D^{-1}
times the solve of g is recovered once at the end.

scipy.interpolate and scipy.sparse are imported inside the functions that
use them: loading them at import time cost every other command about
0.3 s of its cold start (`python -X importtime -c "import fsgreens.cli"`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import (LinAlgWarning, cholesky, get_blas_funcs, get_lapack_funcs,
                          lu_factor, lu_solve)

from .basis1d import (
    BasisFamily,
    Field,
    SpaceKind,
    field_eval,
    tabulate_nodal,
)
from .dualspace import assemble_mass
from .finescale import (
    FineScaleOperator,
    SourceTerm,
    green_apply,
    reconstruct_fine_scales,
    residual_from_field,
)
from .projection import (
    DualFunctionals,
    ProjectionFlavor,
    interior_field,
    mesh_quadrature,
    tabulate_functionals,
)
from .quadrature import default_quad_points, gauss_legendre_rule

DEFAULT_FINE_GRID = 2001
DEFAULT_TOLERANCE = 1e-8
DEFAULT_MAX_ITER = 100_000
# LAPACK's solves, called on the cached coarse LU and collocation SPD
# factors: scipy's lu_solve checks and batches its arguments, which costs
# more than the 5x5 solve; gemv blends the relaxed update into the state in
# place, and trmv and nrm2 (scaled, so it neither underflows nor
# overflows) give the step norm
_getrs, _pttrf, _pttrs = get_lapack_funcs(("getrs", "pttrf", "pttrs"), dtype=np.float64)
_gemv, _nrm2, _trmv = get_blas_funcs(("gemv", "nrm2", "trmv"), dtype=np.float64)


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

    @property
    def peclet(self) -> float:
        """Mesh Peclet number over the unit domain width."""
        return self.advection / (2.0 * self.diffusion)


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
    """One sweep of the coupled iteration as an affine map, for one
    mesh/problem pair.

    With A the advective pairing (mu_j', psi_k), G the Poisson Green's
    operator and t = (c/nu) (mu', u') the pairing of the current fine
    scales, a sweep maps the interior coarse coefficients u_bar and the
    fine-grid values u' to

        u_bar <- (I - (c/nu) A)^{-1} ((mu, f)/nu + t),
        u'    <- fine_const + fine_lin u_bar - (c/nu) G(du'/dx) - lifted_gram t.

    The coarse-scale matrix is factored once (coarse_lu).  fine_const is
    the fine-scale operator applied to f/nu; fine_lin applies it to the
    coarse field's part of the residual; lifted_gram tabulates the
    reconstruction functions, lifts times Gram inverse, on the grid: the
    interior nodal basis (`FineScaleOperator.resolved`).  Only t and
    G(du'/dx) need the fine-scale interpolant, and both are linear in its
    B-spline coefficients b = C^{-1} u', C the collocation matrix on the
    grid, through the antiderivative's coefficients a = [0, cumsum(D b)],
    D = diag(anti_steps) (de Boor's rule): t = (c/nu) (mu', B_i) b and
    G(du'/dx) = x a[-1] - anti_design a[1:].  row_op R clears the
    not-a-knot rows' entries two off the diagonal and the joint columns
    beside each joint's row, and scales the rows, so that R C D^{-1} is
    symmetric positive definite and tridiagonal (`_collocation_factor`);
    interp_tri holds its pttrf factors, whose solve of R u' gives the
    increments D b directly, and pair_coef acts on those increments.
    spline_values, C D^{-1}, takes the increments back to the values.

    iterate keeps the fine scales as g = R u' and folds the relaxation w
    into the maps, so one sweep is the SPD solve D b = (R C D^{-1})^{-1} g,
    the cumulative sum a[1:] = cumsum(D b), the small products
    t = pair_coef D b and u_bar_new = (I - (c/nu) A)^{-1} ((mu, f)/nu + t),
    and the relaxed update

        g <- (1 - w) g + w R [fine_lin, -lifted_gram, fine_const, -(c/nu) x] z
               + w (c/nu) R anti_design a[1:],    z = [u_bar, t, 1, a[-1]],

    one dense affine map (gemv) plus one sparse product.  The step norm
    sqrt(step^T mass step) is nrm2(U step), U the upper Cholesky factor of
    mass; u' = spline_values D b once the loop ends.

    The coarse field's diffusive part of the residual, its distributional
    second derivative, is left out: the fine-scale operator maps it to
    (I - Pi) of the coarse field itself, which is zero, since the H10
    projection Pi reproduces the coarse space.  So fine_lin holds only
    the advective part.
    """

    grid: np.ndarray
    mass: np.ndarray               # interior block of the nodal mass matrix, for the step norm
    ratio: float                   # c/nu
    coarse_rhs: np.ndarray         # (mu_j, f)/nu
    coarse_lu: tuple               # LU factors of I - (c/nu) A
    fine_const: np.ndarray
    fine_lin: np.ndarray
    lifted_gram: np.ndarray
    row_op: csr_array              # R: R C D^{-1} is SPD tridiagonal
    interp_tri: tuple              # pttrf factors (d, e) of R C D^{-1}
    spline_values: csr_array       # C D^{-1}: the increments D b to the grid values
    pair_coef: np.ndarray          # (c/nu) (mu', B_i) / anti_steps_i: t from the increments D b
    anti_design: csr_array         # degree-4 antiderivative basis on the grid, a[1:] to values


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


def _joint_indices(family: BasisFamily, grid: np.ndarray) -> np.ndarray:
    """Indices of the mesh joints in an element-aligned grid."""
    bounds = family.mesh.boundaries
    joints = np.searchsorted(grid, bounds - 1e-14)
    if np.any(joints >= grid.size) or np.any(np.abs(grid[joints] - bounds) > 1e-14):
        raise ValueError("every mesh joint must be a fine-grid point")
    if np.any(np.diff(joints) < 3):
        raise ValueError("need at least four samples per element")
    return joints


def _interpolant_knots(family: BasisFamily, grid: np.ndarray) -> np.ndarray:
    """Knots of the kink-safe cubic interpolant on an element-aligned grid."""
    joints = _joint_indices(family, grid)
    inner = [grid[lo + 2:hi - 1] for lo, hi in zip(joints[:-1], joints[1:])]
    # triple knots at the joints, quadruple at the two ends
    return np.sort(np.concatenate([np.repeat(grid[joints], 3), grid[joints[[0, -1]]], *inner]))


def fine_scale_interpolant(family: BasisFamily, grid: np.ndarray,
                           values: np.ndarray) -> BSpline:
    """Kink-safe cubic interpolant of fine-scale samples on an element-aligned grid.

    One cubic B-spline that is the not-a-knot spline of each element's
    samples: an element's interior knots are its grid points but the two
    next to each end, and every interior mesh joint is a triple knot, so
    only the value is continuous there.  Every mesh joint must be a grid
    point and every element must hold at least four samples.
    """
    from scipy.interpolate import make_interp_spline

    grid = np.asarray(grid, dtype=float)
    return make_interp_spline(grid, values, k=3, t=_interpolant_knots(family, grid))


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


def _nodal_antiderivative(family: BasisFamily, grid: np.ndarray) -> np.ndarray:
    """int_0^x psi_k at every point x of an element-aligned grid, one column
    per interior nodal function.

    Each grid interval lies in one element, where psi_k is a polynomial of
    degree p, so a (p // 2 + 1)-point Gauss rule per interval is exact.
    """
    rule = gauss_legendre_rule(family.degree // 2 + 1)
    lo, hi = grid[:-1, None], grid[1:, None]
    pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * rule.nodes
    tab = tabulate_nodal(family, pts.ravel())[:, 1:-1].reshape(pts.shape + (-1,))
    cells = np.einsum("iq,iqk->ik", 0.5 * (hi - lo) * rule.weights, tab)
    return np.concatenate((np.zeros((1, cells.shape[1])), np.cumsum(cells, axis=0)))


def _collocation_factor(family: BasisFamily, grid: np.ndarray, knots: np.ndarray,
                        anti_steps: np.ndarray) -> tuple[csr_array, tuple, csr_array]:
    """The row operation R, the pttrf factors of R C D^{-1} and C D^{-1}
    itself, C the cubic collocation matrix on an element-aligned grid and
    D = diag(anti_steps).

    R is three row operations in turn:

    * row lo+1 of an element [lo, hi] reaches column lo+3 and row hi-1
      column hi-3 (not-a-knot); subtracting a multiple of the row between
      (lo+2, hi-2), which is tridiagonal and itself left as it is, clears
      that entry, so that the result times D^{-1}, T, is tridiagonal;
    * each joint's row of T holds only its diagonal (a triple knot), so
      subtracting multiples of it clears the joint's column in rows lo+1
      and hi-1, and T splits into one block per joint and one per
      element's interior;
    * the positive scaling l, with l_0 = 1 and l_{i+1} = l_i T[i, i+1] /
      T[i+1, i] (l carries over where T splits), makes A = diag(l) T
      symmetric.

    The grid is uniform within each element, so an element's block of A is
    one matrix, set by the samples per element, times a positive factor.
    Its rows are diagonally dominant, strictly beside the element's ends,
    with a positive diagonal, and it is irreducible, so A is positive
    definite (the tests check every sample count's distinct rows).  A
    nonpositive pivot still raises ValueError.  Needs at least five
    samples per element, as fine_grid gives.
    """
    from scipy.interpolate import BSpline
    from scipy.sparse import csr_array, diags_array, eye_array

    colloc = BSpline.design_matrix(grid, knots, 3)
    joints = _joint_indices(family, grid)
    beside = np.concatenate((joints[:-1] + 1, joints[1:] - 1))
    pivots = np.concatenate((joints[:-1] + 2, joints[1:] - 2))
    cols = np.concatenate((joints[:-1] + 3, joints[1:] - 3))
    ends = np.concatenate((joints[:-1], joints[1:]))
    size = grid.size
    not_a_knot = eye_array(size, format="csr") + csr_array(
        (-colloc[beside, cols] / colloc[pivots, cols], (beside, pivots)), shape=(size, size))
    spline_values = colloc @ diags_array(1.0 / anti_steps)
    tri = not_a_knot @ spline_values
    # not_a_knot leaves the joints' rows as they are, so clearing the joint
    # columns after it is adding these entries to it
    clear_joints = csr_array(
        (-tri[beside, ends] / tri[ends, ends], (beside, ends)), shape=(size, size))
    upper, lower = tri.diagonal(1), tri.diagonal(-1)
    upper[joints[1:] - 1] = lower[joints[:-1]] = 0.0
    ratio = np.divide(upper, lower, out=np.ones(size - 1), where=lower != 0.0)
    scale = np.cumprod(np.concatenate(([1.0], ratio)))
    *factors, info = _pttrf(scale * tri.diagonal(), scale[:-1] * upper)
    if info:
        raise ValueError("fine-scale collocation matrix is not positive definite")
    row_op = diags_array(scale) @ (not_a_knot + clear_joints)
    return row_op, tuple(factors), spline_values


def make_workspace(problem: AdvDiffProblem, fns: DualFunctionals, op: FineScaleOperator,
                   fine_grid_points: int = DEFAULT_FINE_GRID,
                   quad_points: int | None = None) -> _Workspace:
    from scipy.interpolate import BSpline

    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("the iterative scheme is built on the H10 functionals")
    family = fns.family
    mesh = family.mesh
    if quad_points is None:
        quad_points = default_quad_points(family.degree)
    ratio = problem.advection / problem.diffusion
    grid = fine_grid(mesh, fine_grid_points)

    x, w = mesh_quadrature(family, quad_points)
    mu_tab = tabulate_functionals(fns, x)
    mu_dtab = tabulate_functionals(fns, x, deriv=1)
    psi_tab = tabulate_nodal(family, x)[:, 1:-1]
    coarse_rhs = mu_tab.T @ (w * np.asarray(problem.source(x), dtype=float)) \
        / problem.diffusion
    adv_pairing = mu_dtab.T @ (w[:, None] * psi_tab)

    lifted_gram = op.resolved(grid, np.eye(fns.size))
    green_source = green_apply(op.kernel, SourceTerm.from_function(problem.source),
                               grid, quad_points=quad_points,
                               mesh_boundaries=mesh.boundaries)
    # G(psi_k') = x int_0^1 psi_k - int_0^x psi_k, as psi_k vanishes at both ends
    anti = _nodal_antiderivative(family, grid)
    green_first_deriv = grid[:, None] * anti[-1] - anti
    fine_const = green_source / problem.diffusion - lifted_gram @ coarse_rhs
    fine_lin = -ratio * (green_first_deriv + lifted_gram @ adv_pairing)
    mass = assemble_mass(family, SpaceKind.NODAL).entries[1:-1, 1:-1]

    knots = _interpolant_knots(family, grid)
    anti_steps = (knots[4:] - knots[:-4]) / 4.0
    row_op, interp_tri, spline_values = _collocation_factor(family, grid, knots, anti_steps)
    # (c/nu) (mu', B_i) through the sparse design matrix at the pairing nodes
    pair_coef = ratio * (BSpline.design_matrix(x, knots, 3).T @ (w[:, None] * mu_dtab)).T
    anti_design = BSpline.design_matrix(grid, np.r_[knots[0], knots, knots[-1]], 4)[:, 1:]
    return _Workspace(grid, mass, ratio, coarse_rhs,
                      _factor_coarse_matrix(problem, adv_pairing),
                      fine_const, fine_lin, lifted_gram,
                      row_op, interp_tri, spline_values, pair_coef / anti_steps,
                      anti_design)


def _interpolant_terms(ws: _Workspace, fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fine-grid values' pairing t = (c/nu) (mu', u') and the Green's
    application G(du'/dx) on the grid, both through the fine-scale
    interpolant's antiderivative increments."""
    increments, _ = _pttrs(*ws.interp_tri, ws.row_op @ fine)
    anti = np.cumsum(increments)
    return ws.pair_coef @ increments, ws.grid * anti[-1] - ws.anti_design @ anti


def _sweep(ws: _Workspace, interior: np.ndarray,
           fine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One unrelaxed sweep: the coarse coefficients solving the coarse-scale
    equation and the fine-scale map, both from the current interior coarse
    coefficients and fine-grid values."""
    fine_term, green_fine_deriv = _interpolant_terms(ws, fine)
    new_interior, _ = _getrs(*ws.coarse_lu, ws.coarse_rhs + fine_term)
    new_fine = ws.fine_const + ws.fine_lin @ interior \
        - ws.ratio * green_fine_deriv - ws.lifted_gram @ fine_term
    return new_interior, new_fine


def coarse_update(fns: DualFunctionals, problem: AdvDiffProblem, u_bar: Field,
                  u_prime_grid: np.ndarray, u_prime: np.ndarray,
                  quad_points: int | None = None) -> np.ndarray:
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
    return interior_field(family, interior).coeffs


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
            quad_points: int | None = None) -> IterationState:
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
    if not (np.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError("tolerance must be finite and positive")
    ws = make_workspace(problem, fns, op, fine_grid_points, quad_points)
    size = fns.size
    # the relaxed update of row_fine = R u' (see _Workspace):
    #   row_fine <- (1 - w) row_fine + affine z + anti_map a[1:]
    affine = np.asfortranarray(relaxation * (ws.row_op @ np.column_stack(
        (ws.fine_lin, -ws.lifted_gram, ws.fine_const, -ws.ratio * ws.grid))))
    anti_map = (relaxation * ws.ratio) * (ws.row_op @ ws.anti_design)
    keep = 1.0 - relaxation
    mass_chol = np.asfortranarray(cholesky(ws.mass))
    interior = np.zeros(size)
    row_fine = np.zeros(ws.grid.size)
    anti = np.empty(ws.grid.size)
    z = np.zeros(2 * size + 2)
    z[2 * size] = 1.0
    history = []
    converged = False
    iteration = 0
    while iteration < max_iter:
        iteration += 1
        increments, _ = _pttrs(*ws.interp_tri, row_fine)
        np.cumsum(increments, out=anti)
        fine_term = ws.pair_coef @ increments
        new_interior, _ = _getrs(*ws.coarse_lu, ws.coarse_rhs + fine_term)
        z[:size] = interior
        z[size:2 * size] = fine_term
        z[-1] = anti[-1]
        row_fine = _gemv(1.0, affine, z, keep, row_fine, overwrite_y=1)
        row_fine += anti_map @ anti
        step = new_interior - interior
        interior += relaxation * step
        step_norm = _nrm2(_trmv(mass_chol, step))
        history.append(step_norm)
        if step_norm < tolerance:
            converged = True
            break
    u_prime = ws.spline_values @ _pttrs(*ws.interp_tri, row_fine)[0]
    return IterationState(interior_field(fns.family, interior), ws.grid.copy(),
                          u_prime, iteration, history, converged)


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

    resid = residual_from_field(u_bar, modified_source)
    if len(breakpoints):
        extra = tuple(sorted(set(resid.breakpoints) | {float(b) for b in breakpoints}))
        resid = replace(resid, breakpoints=extra)
    return reconstruct_fine_scales(op, resid, grid)
