import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import Field, Mesh1D, SpaceKind, basis_family, field_eval, tabulate_nodal
from fsgreens.cases import advdiff_const_case, boundary_layer_breakpoints, sin2pix_case
from fsgreens.finescale import build_fine_scale_operator, reconstruct_fine_scales
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    mesh_quadrature,
    project,
    tabulate_functionals,
)
from fsgreens.quadrature import composite_rule, default_quad_points, gauss_legendre_rule
from fsgreens.vms_advdiff import (
    AdvDiffProblem,
    coarse_update,
    fine_grid,
    fine_scale_interpolant,
    fine_update,
    galerkin_solve,
    iterate,
    make_workspace,
    reconstruct_with_exact_gradient,
)

KERNEL = GreensKernel1D.poisson()


def _h10_setup(num_elements, degree):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    return family, fns, op


def test_problem_validation():
    with pytest.raises(ValueError):
        AdvDiffProblem(1.0, -0.1, lambda x: np.ones_like(x))
    problem = AdvDiffProblem(1.0, 0.01, lambda x: np.ones_like(x))
    assert problem.peclet == pytest.approx(50.0)


@pytest.mark.parametrize("c,nu", [(bad, 0.01) for bad in (np.nan, np.inf, -np.inf)]
                         + [(1.0, bad) for bad in (np.nan, np.inf, -np.inf)])
def test_problem_rejects_nonfinite_coefficients(c, nu):
    # a NaN coefficient would give NaN Galerkin coefficients silently
    with pytest.raises(ValueError):
        AdvDiffProblem(c, nu, lambda x: np.ones_like(x))


def test_galerkin_diffusion_limit_polynomial_exact():
    # c = 0, f = 2: the solution x(1-x)/nu lies in the p >= 2 space
    nu = 0.25
    problem = AdvDiffProblem(0.0, nu, lambda x: np.full_like(x, 2.0))
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    fld = galerkin_solve(problem, family)
    x = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(field_eval(fld, x) - x * (1.0 - x) / nu)) < 1e-12


def test_galerkin_zero_source():
    problem = AdvDiffProblem(1.0, 0.1, lambda x: np.zeros_like(x))
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    fld = galerkin_solve(problem, family)
    assert np.max(np.abs(fld.coeffs)) < 1e-14


def test_galerkin_oscillates_at_high_peclet():
    case = advdiff_const_case(1.0, 0.01)
    problem = AdvDiffProblem(1.0, 0.01, case.source)
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    fld = galerkin_solve(problem, family)
    diffs = np.diff(fld.coeffs)
    signs = np.sign(diffs[np.abs(diffs) > 1e-12])
    assert np.any(signs[:-1] * signs[1:] < 0)


@pytest.mark.parametrize("p,n", [(2, 3), (4, 3)])
@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_exact_gradient_reconstruction(p, n, flavor):
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family = basis_family(Mesh1D.uniform(0.0, 1.0, n, p))
    fns = build_dual_functionals(family, flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    layer = boundary_layer_breakpoints(c, nu)
    if flavor is ProjectionFlavor.H10:
        u_bar = project(fns, case.solution, case.gradient, breakpoints=layer)
    else:
        u_bar = project(fns, case.solution, breakpoints=layer)
    grid = np.linspace(0.0, 1.0, 401)
    u_prime = reconstruct_with_exact_gradient(op, problem, u_bar, case.gradient,
                                              grid, breakpoints=layer)
    total = field_eval(u_bar, grid) + u_prime
    assert np.max(np.abs(total - case.solution(grid))) < 5e-4


def test_l2_exact_gradient_reconstruction_pointwise_data():
    # the L2 data pair G f tabulated on the source rule, minus u_bar's
    # coefficients; pairing G f through the representers (the lifts)
    # instead is exact too but gave 1.2e-13 here
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 20, 4)),
                                 ProjectionFlavor.L2)
    op = build_fine_scale_operator(KERNEL, fns)
    layer = boundary_layer_breakpoints(c, nu)
    u_bar = project(fns, case.solution, breakpoints=layer)
    grid = np.linspace(0.0, 1.0, 401)
    u_prime = reconstruct_with_exact_gradient(op, problem, u_bar, case.gradient,
                                              grid, breakpoints=layer)
    assert np.max(np.abs(field_eval(u_bar, grid) + u_prime - case.solution(grid))) <= 5e-14


def test_coarse_update_diffusive_limit_is_source_projection():
    nu = 0.3
    case = sin2pix_case()
    problem = AdvDiffProblem(0.0, nu, case.source)
    family, fns, _ = _h10_setup(3, 2)
    grid = fine_grid(family.mesh, 101)
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = coarse_update(fns, problem, zero_field, grid, np.zeros(grid.size))
    want = h10_project_from_source(fns, lambda x: case.source(x) / nu)
    assert np.max(np.abs(got - want.coeffs)) < 1e-12


def test_coarse_update_without_fine_scales_is_galerkin_solve():
    # with u' = 0 the coarse-scale equation is the Galerkin system
    c, nu = 1.0, 0.02
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, _ = _h10_setup(3, 2)
    grid = fine_grid(family.mesh, 101)
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = coarse_update(fns, problem, zero_field, grid, np.zeros(grid.size))
    want = galerkin_solve(problem, family)
    assert np.max(np.abs(got - want.coeffs)) < 1e-12


def test_updates_fixed_point_consistency():
    # substituting the analytic solution split leaves both maps unchanged
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    layer = boundary_layer_breakpoints(c, nu)
    u_bar = project(fns, case.solution, case.gradient, breakpoints=layer)
    grid = fine_grid(family.mesh, 2001)
    u_prime = case.solution(grid) - field_eval(u_bar, grid)
    new_coarse = coarse_update(fns, problem, u_bar, grid, u_prime)
    assert np.max(np.abs(new_coarse - u_bar.coeffs)) < 5e-6
    new_fine = fine_update(op, problem, u_bar, grid, u_prime)
    assert np.max(np.abs(new_fine - u_prime)) < 5e-4


def test_fine_update_specializes_to_diffusion_fine_scales():
    nu = 2.0
    case = sin2pix_case()
    problem = AdvDiffProblem(0.0, nu, case.source)
    family, fns, op = _h10_setup(5, 2)
    grid = np.linspace(0.0, 1.0, 1001)
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = fine_update(op, problem, zero_field, grid, np.zeros(grid.size))
    from fsgreens.finescale import SourceTerm

    want = reconstruct_fine_scales(
        op, SourceTerm.from_function(lambda s: case.source(s) / nu), grid)
    assert np.max(np.abs(got - want)) < 1e-12


def test_workspace_sweeps_match_generic_updates():
    from fsgreens.vms_advdiff import _sweep

    c, nu = 1.0, 0.05
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    ws = make_workspace(problem, fns, op, 1201)
    rng = np.random.default_rng(2)
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = 0.1 * rng.normal(size=coeffs.size - 2)
    u_bar = Field(family, SpaceKind.NODAL, coeffs)
    fine = 0.03 * np.sin(2.5 * np.pi * ws.grid) * ws.grid * (1 - ws.grid)
    fast_coarse, fast_fine = _sweep(ws, coeffs[1:-1], fine)
    slow_coarse = coarse_update(fns, problem, u_bar, ws.grid, fine)
    assert np.max(np.abs(fast_coarse - slow_coarse[1:-1])) < 1e-11
    slow_fine = fine_update(op, problem, u_bar, ws.grid, fine)
    assert np.max(np.abs(fast_fine - slow_fine)) < 1e-6


def test_workspace_defaults_to_the_degree_source_rule():
    # without quad_points the workspace integrates the source on the rule
    # that grows with the degree, not on a fixed 20 points
    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(1, 24)
    got = make_workspace(problem, fns, op)
    want = make_workspace(problem, fns, op, quad_points=default_quad_points(24))
    for name in ("coarse_rhs", "fine_const", "fine_lin", "lifted_gram", "pair_coef"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(got.coarse_lu[0], want.coarse_lu[0])


def test_nodal_antiderivative_gives_green_of_nodal_derivatives():
    # G(psi_k') from the per-interval antiderivative equals the Green's
    # operator applied to the tabulated derivatives, on a jittered mesh
    from fsgreens.finescale import _poisson_apply
    from fsgreens.vms_advdiff import _nodal_antiderivative

    for degree in (1, 2, 4):
        mesh = Mesh1D(0.0, 1.0, 3, degree, np.array([0.0, 0.29, 0.68, 1.0]))
        family = basis_family(mesh)
        grid = fine_grid(mesh, 301)
        anti = _nodal_antiderivative(family, grid)
        want = _poisson_apply(lambda s: tabulate_nodal(family, s, deriv=1)[:, 1:-1],
                              grid, mesh.boundaries, 20)
        assert np.max(np.abs(grid[:, None] * anti[-1] - anti - want)) < 1e-14


@st.composite
def _jittered_meshes(draw):
    degree = draw(st.integers(1, 4))
    num_elements = draw(st.integers(2 if degree == 1 else 1, 5))
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    return Mesh1D(0.0, 1.0, num_elements, degree, bounds)


@settings(max_examples=25, deadline=None)
@given(mesh=_jittered_meshes(), seed=st.integers(0, 2**32 - 1))
def test_workspace_interpolant_maps_match_spline(mesh, seed):
    # the factored collocation, pairing and antiderivative maps of a sweep
    # equal the spline-built interpolant's pairing and antiderivative
    from fsgreens.vms_advdiff import _interpolant_terms

    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    ws = make_workspace(problem, fns, build_fine_scale_operator(KERNEL, fns), 201)
    fine = np.random.default_rng(seed).normal(size=ws.grid.size)
    pairing, green_deriv = _interpolant_terms(ws, fine)

    spline = fine_scale_interpolant(family, ws.grid, fine)
    x, w = mesh_quadrature(family)
    want_pairing = (c / nu) * tabulate_functionals(fns, x, deriv=1).T @ (w * spline(x))
    anti = spline.antiderivative()
    want_green = ws.grid * anti(1.0) - anti(ws.grid)
    assert np.max(np.abs(pairing - want_pairing)) <= 1e-12 * np.max(np.abs(want_pairing))
    assert np.max(np.abs(green_deriv - want_green)) <= 1e-12 * np.max(np.abs(want_green))


@settings(max_examples=25, deadline=None)
@given(mesh=_jittered_meshes(), points=st.integers(2, 301), seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_factor_gives_the_interpolant_coefficients(mesh, points, seed):
    # the factored, row-transformed collocation system returns the spline's
    # antiderivative increments, down to five samples per element
    from fsgreens.vms_advdiff import _pttrs

    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    ws = make_workspace(problem, fns, build_fine_scale_operator(KERNEL, fns), points)
    fine = np.random.default_rng(seed).normal(size=ws.grid.size)
    spline = fine_scale_interpolant(family, ws.grid, fine)
    increments, info = _pttrs(*ws.interp_tri, ws.row_op @ fine)
    assert info == 0
    coef = increments / ((spline.t[4:] - spline.t[:-4]) / 4.0)
    assert np.max(np.abs(coef - spline.c)) <= 1e-12 * np.max(np.abs(spline.c))


@st.composite
def _graded_meshes(draw):
    num_elements = draw(st.integers(1, 8))
    widths = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    return Mesh1D(0.0, 1.0, num_elements, 2, bounds)


@settings(max_examples=30, deadline=None)
@given(mesh=_graded_meshes(), points=st.integers(5, 2001), seed=st.integers(0, 2**32 - 1))
def test_spd_collocation_factor_on_graded_meshes(mesh, points, seed):
    # element widths down to 1:100 of each other: pttrf finds every pivot
    # positive, and its solve gives make_interp_spline's coefficients
    from fsgreens.vms_advdiff import _collocation_factor, _interpolant_knots, _pttrs

    family = basis_family(mesh)
    grid = fine_grid(mesh, points)
    knots = _interpolant_knots(family, grid)
    steps = (knots[4:] - knots[:-4]) / 4.0
    row_op, factors, _ = _collocation_factor(family, grid, knots, steps)
    assert np.all(factors[0] > 0.0)
    fine = np.random.default_rng(seed).normal(size=grid.size)
    spline = fine_scale_interpolant(family, grid, fine)
    increments, info = _pttrs(*factors, row_op @ fine)
    assert info == 0
    assert np.max(np.abs(increments / steps - spline.c)) <= 1e-12 * np.max(np.abs(spline.c))


@pytest.mark.parametrize("samples", [*range(5, 13), 101, 2001])
def test_symmetrized_collocation_is_diagonally_dominant(samples):
    # R C D^{-1} is symmetric tridiagonal with a positive diagonal, and its
    # rows are diagonally dominant (strictly beside the ends) within
    # irreducible blocks, so it is positive definite.  On an element-aligned
    # grid each element's block is one element's matrix for the same
    # sample count, scaled, and from eight samples on the rows near the
    # ends repeat, so these counts cover every grid
    from fsgreens.vms_advdiff import _collocation_factor, _interpolant_knots

    family = basis_family(Mesh1D.uniform(0.0, 1.0, 1, 2))
    grid = np.linspace(0.0, 1.0, samples)
    knots = _interpolant_knots(family, grid)
    row_op, _, spline_values = _collocation_factor(family, grid, knots,
                                                   (knots[4:] - knots[:-4]) / 4.0)
    sym = (row_op @ spline_values).toarray()
    scale = np.max(np.abs(sym))
    assert np.max(np.abs(sym - np.triu(np.tril(sym, 1), -1))) <= 1e-14 * scale
    assert np.max(np.abs(sym - sym.T)) <= 1e-14 * scale
    diag = np.diag(sym)
    assert np.all(diag > 0.0)
    assert np.all(np.abs(sym).sum(axis=1) - diag <= (1.0 + 1e-14) * diag)


@settings(max_examples=20, deadline=None)
@given(mesh=_jittered_meshes(), points=st.integers(2, 401), nu=st.floats(0.02, 0.05),
       max_iter=st.integers(1, 40))
def test_iterate_matches_a_relaxed_loop_over_sweeps(mesh, points, nu, max_iter):
    # the fused loop on the row-transformed fine scales takes the same path
    # as relaxing _sweep's coarse and fine updates directly.  nu spans the
    # benchmark's Peclet range: at p = 4 and nu near 0.1 or above, u' falls
    # to about 1e-6 of the solution and the plain loop itself moves by up
    # to 1e-13 of max|u'| when each sweep is perturbed by one ulp
    from fsgreens.vms_advdiff import _sweep

    c = 1.0
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    relaxation = nu / c
    state = iterate(problem, fns, op, relaxation=relaxation, tolerance=1e-300,
                    max_iter=max_iter, fine_grid_points=points)

    ws = make_workspace(problem, fns, op, points)
    interior, fine, history = np.zeros(fns.size), np.zeros(ws.grid.size), []
    for _ in range(max_iter):
        new_interior, new_fine = _sweep(ws, interior, fine)
        step = new_interior - interior
        interior = interior + relaxation * step
        fine = fine + relaxation * (new_fine - fine)
        history.append(np.sqrt(step @ ws.mass @ step))
    assert state.iteration == max_iter and not state.converged
    np.testing.assert_array_equal(state.u_prime_grid, ws.grid)
    assert np.max(np.abs(state.u_prime - fine)) <= 1e-13 * np.max(np.abs(state.u_prime))
    assert np.max(np.abs(np.array(state.residual_history) - history)) <= 1e-14
    assert np.max(np.abs(state.u_bar.coeffs[1:-1] - interior)) <= 1e-13 * np.max(np.abs(interior))


@pytest.mark.parametrize("num_elements,degree,nu,sweeps", [
    (3, 2, 0.03, 593), (3, 2, 0.05, 362), (3, 2, 0.01, 1849), (5, 3, 0.04, 437),
    (4, 4, 0.05, 348)])
def test_iterate_sweep_counts(num_elements, degree, nu, sweeps):
    # the default relaxation 1/(2 Pe), tolerance and fine grid: a change of
    # these counts is a change of the Picard iteration itself
    problem = AdvDiffProblem(1.0, nu, advdiff_const_case(1.0, nu).source)
    _, fns, op = _h10_setup(num_elements, degree)
    state = iterate(problem, fns, op)
    assert state.converged
    assert state.iteration == sweeps


def test_iterate_step_norm_does_not_underflow():
    # c = 1e200, nu = 1e-100: the first coarse step is near 1e-186, whose
    # square underflows; the recorded norm is the scaled step's norm, scaled back
    from fsgreens.vms_advdiff import _sweep

    c, nu = 1e200, 1e-100
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, relaxation=0.5, max_iter=1)
    ws = make_workspace(problem, fns, op)
    step, _ = _sweep(ws, np.zeros(fns.size), np.zeros(ws.grid.size))
    scaled = 1e180 * step
    want = 1e-180 * np.sqrt(scaled @ ws.mass @ scaled)
    assert state.residual_history[0] > 0.0
    assert abs(state.residual_history[0] - want) <= 1e-12 * want


def test_fine_scale_interpolant_keeps_joint_kinks():
    # a continuous piecewise cubic with a different cubic on each element of
    # a jittered mesh is reproduced in value, derivative and antiderivative
    mesh = Mesh1D(0.0, 1.0, 3, 3, np.array([0.0, 0.29, 0.68, 1.0]))
    family = basis_family(mesh)
    coeffs = np.random.default_rng(5).normal(size=mesh.num_nodal_dofs)
    cubic = Field(family, SpaceKind.NODAL, coeffs)
    grid = fine_grid(mesh, 61)
    spline = fine_scale_interpolant(family, grid, field_eval(cubic, grid))
    x = (np.arange(96) + 0.5) / 96.0  # no sample on a joint

    def integral(upper):
        # two Gauss points per cubic piece are exact
        cuts = np.append(mesh.boundaries[mesh.boundaries < upper], upper)
        s, w = composite_rule(gauss_legendre_rule(2), cuts)
        return w @ field_eval(cubic, s)

    anti = [integral(xi) for xi in x]
    assert np.max(np.abs(spline(x) - field_eval(cubic, x))) < 1e-12
    assert np.max(np.abs(spline.derivative()(x) - field_eval(cubic, x, deriv=1))) < 1e-12
    assert np.max(np.abs(spline.antiderivative()(x) - anti)) < 1e-12

    middle = grid[(grid > mesh.boundaries[1]) & (grid < mesh.boundaries[2])]
    sparse = np.concatenate((grid[grid <= mesh.boundaries[1]], middle[:1],
                             grid[grid >= mesh.boundaries[2]]))
    with pytest.raises(ValueError):
        fine_scale_interpolant(family, sparse, np.zeros(sparse.size))
    no_joint = grid[grid != mesh.boundaries[1]]
    with pytest.raises(ValueError):
        fine_scale_interpolant(family, no_joint, np.zeros(no_joint.size))


def test_iterate_diffusive_limit_matches_projection():
    nu = 1.0
    case = sin2pix_case()
    problem = AdvDiffProblem(0.0, nu, case.source)
    family, fns, op = _h10_setup(4, 2)
    state = iterate(problem, fns, op, max_iter=200)
    assert state.converged
    want = h10_project_from_source(fns, case.source)
    assert np.max(np.abs(state.u_bar.coeffs - want.coeffs)) < 1e-7


def test_iterate_converges_with_default_rule_at_moderate_peclet():
    # the 1/(2 alpha) relaxation rule at alpha = 20
    c, nu = 1.0, 0.025
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, max_iter=6000)
    assert state.converged
    layer = boundary_layer_breakpoints(c, nu)
    direct = project(fns, case.solution, case.gradient, breakpoints=layer)
    grid = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(field_eval(state.u_bar, grid) - field_eval(direct, grid))) < 5e-4
    spline = fine_scale_interpolant(family, state.u_prime_grid, state.u_prime)
    exact_fine = case.solution(grid) - field_eval(direct, grid)
    assert np.max(np.abs(spline(grid) - exact_fine)) < 5e-4
    # monotone tail within ten percent slack
    tail = np.asarray(state.residual_history[-10:])
    assert np.all(tail[1:] <= 1.1 * tail[:-1])
    # one more sweep moves the coarse scales by at most ten tolerances
    again = iterate(problem, fns, op, max_iter=state.iteration + 1)
    delta = again.residual_history[-1]
    assert delta < 10.0 * 1e-8


def test_iterate_high_peclet_converges_inside_stability_region():
    # at alpha = 50 half the 1/(2 alpha) rule still converges, in about
    # twice the sweeps, and the converged scales match the direct projection
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, relaxation=0.005, max_iter=12000)
    assert state.converged
    layer = boundary_layer_breakpoints(c, nu)
    direct = project(fns, case.solution, case.gradient, breakpoints=layer)
    grid = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(field_eval(state.u_bar, grid) - field_eval(direct, grid))) < 5e-4
    interp = fine_scale_interpolant(family, state.u_prime_grid, state.u_prime)
    exact_fine = case.solution(grid) - field_eval(direct, grid)
    assert np.max(np.abs(interp(grid) - exact_fine)) < 5e-4


def test_iterate_nonconvergence_is_reported_not_raised():
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, max_iter=50)
    assert not state.converged
    assert state.iteration == 50
    assert len(state.residual_history) == 50


def test_iterate_rejects_bad_parameters():
    problem = AdvDiffProblem(1.0, 0.01, lambda x: np.ones_like(x))
    family, fns, op = _h10_setup(2, 2)
    with pytest.raises(ValueError):
        iterate(problem, fns, op, relaxation=1.5)
    for tolerance in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            iterate(problem, fns, op, tolerance=tolerance)
