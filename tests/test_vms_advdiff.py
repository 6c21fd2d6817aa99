import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import Field, Mesh1D, SpaceKind, basis_family, field_eval
from fsgreens.cases import advdiff_const_case, boundary_layer_breakpoints, sin2pix_case
from fsgreens.dualspace import assemble_mass
from fsgreens.finescale import build_fine_scale_operator, reconstruct_fine_scales
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    interior_field,
    project,
)
from fsgreens.quadrature import default_quad_points, gauss_legendre_rule
from fsgreens.vms_advdiff import (
    _BLOCK,
    DEFAULT_TOLERANCE,
    AdvDiffProblem,
    _cell_interpolant,
    _coarse_solve,
    fine_grid,
    galerkin_solve,
    iterate,
    make_workspace,
    reconstruct_with_exact_gradient,
)
from sweep_oracle import coarse_update, fine_update, sweep

KERNEL = GreensKernel1D.poisson()


def _h10_setup(num_elements, degree):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    return family, fns, op


def test_problem_validation():
    with pytest.raises(ValueError):
        AdvDiffProblem(1.0, -0.1, lambda x: np.ones_like(x))
    AdvDiffProblem(1.0, 0.01, lambda x: np.ones_like(x))


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
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = coarse_update(fns, problem, zero_field, np.zeros_like)
    want = h10_project_from_source(fns, lambda x: case.source(x) / nu)
    assert np.max(np.abs(got - want.coeffs)) < 1e-12


def test_coarse_update_without_fine_scales_is_galerkin_solve():
    # with u' = 0 the coarse-scale equation is the Galerkin system
    c, nu = 1.0, 0.02
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, _ = _h10_setup(3, 2)
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = coarse_update(fns, problem, zero_field, np.zeros_like)
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

    def u_prime(x):
        return case.solution(x) - field_eval(u_bar, x)

    def du_prime(x):
        return case.gradient(x) - field_eval(u_bar, x, deriv=1)

    new_coarse = coarse_update(fns, problem, u_bar, u_prime, breakpoints=layer)
    assert np.max(np.abs(new_coarse - u_bar.coeffs)) < 5e-6
    grid = fine_grid(family.mesh, 2001)
    new_fine = fine_update(op, problem, u_bar, du_prime, grid, breakpoints=layer)
    assert np.max(np.abs(new_fine - u_prime(grid))) < 5e-4


def test_fine_update_specializes_to_diffusion_fine_scales():
    nu = 2.0
    case = sin2pix_case()
    problem = AdvDiffProblem(0.0, nu, case.source)
    family, fns, op = _h10_setup(5, 2)
    grid = np.linspace(0.0, 1.0, 1001)
    zero_field = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    got = fine_update(op, problem, zero_field, np.zeros_like, grid)
    from fsgreens.finescale import SourceTerm

    want = reconstruct_fine_scales(
        op, SourceTerm.from_function(lambda s: case.source(s) / nu), grid)
    assert np.max(np.abs(got - want)) < 1e-12


def test_workspace_sweeps_match_generic_updates():
    # both maps see the same cell-wise interpolant of the node values, on
    # the same cells; samples of a smooth function keep its jumps at the
    # layer breakpoints, which the generic residual leaves out, at rounding
    c, nu = 1.0, 0.05
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    ws = make_workspace(problem, fns, op)
    rng = np.random.default_rng(2)
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = 0.1 * rng.normal(size=coeffs.size - 2)
    u_bar = Field(family, SpaceKind.NODAL, coeffs)
    fine = 0.03 * np.sin(2.5 * np.pi * ws.nodes) * ws.nodes * (1 - ws.nodes)
    fast_coarse, fast_fine = sweep(ws, coeffs[1:-1], fine)
    layer = boundary_layer_breakpoints(c, nu)
    slow_coarse = coarse_update(fns, problem, u_bar,
                                lambda x: _cell_interpolant(ws.cells, fine, x),
                                breakpoints=layer)
    assert np.max(np.abs(fast_coarse - slow_coarse[1:-1])) < 1e-11
    slow_fine = fine_update(op, problem, u_bar,
                            lambda x: _cell_interpolant(ws.cells, fine, x, deriv=1),
                            ws.nodes, breakpoints=layer)
    assert np.max(np.abs(fast_fine - slow_fine)) <= 1e-12


def test_workspace_defaults_to_the_degree_source_rule():
    # an operator built without quad_points gives the workspace the source
    # rule that grows with the degree, not a fixed 20 points
    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(1, 24)
    got = make_workspace(problem, fns, op)
    want = make_workspace(problem, fns,
                          build_fine_scale_operator(KERNEL, fns, default_quad_points(24)))
    for name in ("nodes", "green_deriv", "sweep"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _kept_layer(mesh, c, nu):
    # the layer breakpoints at least nu/(100 |c|) from every mesh joint
    layer = boundary_layer_breakpoints(c, nu)
    return [b for b in layer if np.min(np.abs(mesh.boundaries - b)) >= nu / (100.0 * abs(c))]


def test_workspace_drops_a_layer_breakpoint_next_to_a_mesh_joint():
    # c = 1, nu = 0.02 puts breakpoints at 0.76 and 0.94; a joint at
    # 0.7599119 lies 0.0044 nu/|c| from the first, whose cell would be
    # 8.8e-5 wide.  The breakpoint goes, from the cells and the rule, and
    # the fused loop still matches the relaxed one
    c, nu = 1.0, 0.02
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    mesh = Mesh1D(0.0, 1.0, 4, 1, np.array([0.0, 0.31, 0.55, 0.7599119, 1.0]))
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    ws = make_workspace(problem, fns, op)
    np.testing.assert_array_equal(boundary_layer_breakpoints(c, nu), [0.76, 0.94])
    np.testing.assert_array_equal(ws.cells, np.append(mesh.boundaries[:-1], [0.94, 1.0]))
    assert np.min(np.diff(ws.cells)) >= nu / (100.0 * c)
    assert ws.nodes.size == (ws.cells.size - 1) * op.quad_points
    state = iterate(problem, fns, op, relaxation=nu / c, tolerance=1e-300, max_iter=20)
    _assert_matches_a_relaxed_loop(state, problem, fns, op, nu / c)


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
@given(mesh=_jittered_meshes(), q=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
def test_fine_scales_reproduce_cellwise_polynomials(mesh, q, seed):
    # a polynomial of degree q - 1 on each cell, a different one on each
    # and discontinuous between them, is reproduced from its node values in
    # value and derivative, and the workspace's integral map
    # G(I[v]') = x int_0^1 - int_0^x is exact on it
    c, nu = 1.0, 0.02
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    q = max(q, mesh.degree)
    op = build_fine_scale_operator(KERNEL, fns, q)
    ws = make_workspace(problem, fns, op)
    np.testing.assert_array_equal(ws.cells, np.union1d(mesh.boundaries, _kept_layer(mesh, c, nu)))
    coef = np.random.default_rng(seed).normal(size=(ws.cells.size - 1, q))
    powers = np.arange(q)

    def local(x):
        cell = np.clip(np.searchsorted(ws.cells, x, side="left") - 1, 0, ws.cells.size - 2)
        half = 0.5 * (ws.cells[cell + 1] - ws.cells[cell])
        return cell, half, (x - ws.cells[cell]) / half - 1.0

    def poly(x, deriv=0):
        cell, half, t = local(x)
        if deriv:
            return np.sum(coef[cell, 1:] * powers[1:] * t[:, None] ** powers[:-1], axis=1) / half
        return np.sum(coef[cell] * t[:, None] ** powers, axis=1)

    def integral(x):
        # whole cells left of x plus the part of x's own cell
        cell, half, t = local(x)
        whole = 2.0 * 0.5 * np.diff(ws.cells) * np.sum(coef[:, ::2] / (powers[::2] + 1), axis=1)
        before = np.concatenate(([0.0], np.cumsum(whole)))[cell]
        own = half * np.sum(coef[cell] * (t[:, None] ** (powers + 1) - (-1.0) ** (powers + 1))
                            / (powers + 1), axis=1)
        return before + own

    # the node values at the rule's reference nodes: mapping a node back
    # from x loses about eps |x| / half in t, and no cell is narrower than
    # nu/(100 |c|), as a layer breakpoint closer than that to a mesh joint
    # cuts none
    ref = gauss_legendre_rule(q).nodes
    values = np.sum(coef[:, None, :] * ref[None, :, None] ** powers, axis=2).ravel()
    state = iterate(problem, fns, op, max_iter=1)
    state = replace(state, fine_values=values)
    x = np.sort(np.concatenate((np.linspace(0.0, 1.0, 97), ws.cells)))
    scale = np.max(np.abs(coef))
    assert np.max(np.abs(state.fine_scales(x) - poly(x))) <= 1e-12 * scale
    assert np.max(np.abs(state.fine_scales(x, deriv=1) - poly(x, 1))) \
        <= 1e-10 * scale * np.max(1.0 / np.diff(ws.cells))
    want = ws.nodes * integral(np.array([1.0]))[0] - integral(ws.nodes)
    assert np.max(np.abs(ws.green_deriv @ state.fine_values - want)) <= 1e-13 * scale


def test_fine_scale_interpolant_keeps_joint_kinks():
    # a continuous piecewise cubic with a different cubic on each element of
    # a jittered mesh is reproduced in value, derivative and antiderivative
    from fsgreens.quadrature import composite_rule

    # c = 0 puts no layer cells in: the cells are the mesh elements
    problem = AdvDiffProblem(0.0, 1.0, lambda x: np.full_like(x, 2.0))
    mesh = Mesh1D(0.0, 1.0, 3, 3, np.array([0.0, 0.29, 0.68, 1.0]))
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    coeffs = np.random.default_rng(5).normal(size=mesh.num_nodal_dofs)
    cubic = Field(family, SpaceKind.NODAL, coeffs)
    ws = make_workspace(problem, fns, op)
    state = iterate(problem, fns, op, max_iter=1)
    np.testing.assert_array_equal(ws.cells, mesh.boundaries)
    state = replace(state, fine_values=field_eval(cubic, ws.nodes))
    x = (np.arange(96) + 0.5) / 96.0  # no sample on a joint

    def integral(upper):
        # two Gauss points per cubic piece are exact
        cuts = np.append(mesh.boundaries[mesh.boundaries < upper], upper)
        s, w = composite_rule(gauss_legendre_rule(2), cuts)
        return w @ field_eval(cubic, s)

    anti = np.array([integral(xi) for xi in ws.nodes])
    assert np.max(np.abs(state.fine_scales(x) - field_eval(cubic, x))) < 1e-12
    assert np.max(np.abs(state.fine_scales(x, deriv=1) - field_eval(cubic, x, deriv=1))) < 1e-12
    want = ws.nodes * integral(1.0) - anti
    assert np.max(np.abs(ws.green_deriv @ state.fine_values - want)) < 1e-12


# at nu = 0.0234375, two and three sweeps leave v small against the
# unrelaxed sweep's values on this mesh: the two loops differ by 2.2e-13 and
# 1.2e-13 of max|v|, but by about 5e-15 of the sweep's largest value
_SMALL_ITERATE_MESH = Mesh1D(0.0, 1.0, 5, 4, np.array(
    [0.0, 0.26890756, 0.53781513, 0.80672269, 0.94117647, 1.0]))


@settings(max_examples=20, deadline=None)
@given(mesh=_jittered_meshes(), points=st.integers(2, 401), nu=st.floats(0.02, 0.05),
       max_iter=st.integers(1, 40))
@example(mesh=_SMALL_ITERATE_MESH, points=401, nu=0.0234375, max_iter=2)
@example(mesh=_SMALL_ITERATE_MESH, points=401, nu=0.0234375, max_iter=3)
def test_iterate_matches_a_relaxed_loop_over_sweeps(mesh, points, nu, max_iter):
    # the fused loop takes the same path as relaxing the unrelaxed sweep's
    # coarse and fine updates directly, and writes the fine scales on the
    # grid of the requested size.  nu spans the
    # benchmark's Peclet range: at p = 4 and nu near 0.1 or above, u' falls
    # to about 1e-6 of the solution and the plain loop itself moves by up
    # to 1e-13 of max|u'| when each sweep is perturbed by one ulp
    c = 1.0
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    relaxation = nu / c
    state = iterate(problem, fns, op, relaxation=relaxation, tolerance=1e-300,
                    max_iter=max_iter, fine_grid_points=points)
    assert state.iteration == max_iter and not state.converged
    np.testing.assert_array_equal(state.u_prime_grid, fine_grid(mesh, points))
    np.testing.assert_array_equal(state.u_prime, state.fine_scales(state.u_prime_grid))
    _assert_matches_a_relaxed_loop(state, problem, fns, op, relaxation)


def _assert_matches_a_relaxed_loop(state, problem, fns, op, relaxation):
    # state.iteration sweeps of the unrelaxed map, each update relaxed
    # directly, and the mass-matrix norm of every coarse step.  The fine
    # values are rounded at the size of the unrelaxed sweep's, which the
    # relaxed iterate reaches only after many sweeps, so the fine bound
    # scales with the largest of those
    ws = make_workspace(problem, fns, op)
    mass = assemble_mass(fns.family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    interior, fine, history = np.zeros(fns.size), np.zeros(ws.nodes.size), []
    fine_scale = 0.0
    for _ in range(state.iteration):
        new_interior, new_fine = sweep(ws, interior, fine)
        step = new_interior - interior
        interior = interior + relaxation * step
        fine = fine + relaxation * (new_fine - fine)
        fine_scale = max(fine_scale, np.max(np.abs(new_fine)))
        history.append(np.sqrt(step @ mass @ step))
    assert len(state.residual_history) == state.iteration
    assert np.max(np.abs(state.fine_values - fine)) <= 1e-13 * fine_scale
    assert np.max(np.abs(np.array(state.residual_history) - history)) <= 1e-14
    assert np.max(np.abs(state.u_bar.coeffs[1:-1] - interior)) <= 1e-13 * np.max(np.abs(interior))


@pytest.mark.parametrize("max_iter", [1, _BLOCK - 1, _BLOCK + 1, 37])
def test_iterate_runs_exactly_max_iter_sweeps_across_blocks(max_iter):
    # a last block shorter than _BLOCK, and a run shorter than one block,
    # neither overrun nor truncate the sweeps
    c, nu = 1.0, 0.03
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, tolerance=1e-300, max_iter=max_iter)
    assert state.iteration == max_iter and not state.converged
    _assert_matches_a_relaxed_loop(state, problem, fns, op, nu / c)


def test_iterate_stopping_inside_a_block_returns_that_sweeps_state():
    # 362 sweeps end 10 into a block: the state is the one after sweep
    # 362, not the block's last, the same as a run capped there, and the
    # history stops there
    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op)
    assert state.converged and state.iteration == 362 and state.iteration % _BLOCK != 0
    assert state.residual_history[-1] < DEFAULT_TOLERANCE <= min(state.residual_history[:-1])
    _assert_matches_a_relaxed_loop(state, problem, fns, op, nu / c)
    capped = iterate(problem, fns, op, tolerance=1e-300, max_iter=state.iteration)
    np.testing.assert_array_equal(capped.fine_values, state.fine_values)
    np.testing.assert_array_equal(capped.u_bar.coeffs, state.u_bar.coeffs)


def test_iterate_diverging_run_ends_at_max_iter_without_warning():
    # alpha = 500: the default relaxation's spectral radius is 1.0004, so
    # the steps oscillate with a slowly growing envelope
    c, nu = 1.0, 0.001
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = iterate(problem, fns, op, max_iter=3000)
    assert not state.converged and state.iteration == 3000
    assert len(state.residual_history) == 3000
    assert max(state.residual_history[1500:]) > max(state.residual_history[:1500])


@pytest.mark.parametrize("num_elements,degree,nu,sweeps", [
    (3, 2, 0.03, 593), (3, 2, 0.05, 362), (3, 2, 0.01, 1849), (5, 3, 0.04, 437),
    (4, 4, 0.05, 348)])
def test_iterate_sweep_counts(num_elements, degree, nu, sweeps):
    # the default relaxation nu/c, tolerance and source rule: a change of
    # these counts is a change of the Picard iteration itself
    problem = AdvDiffProblem(1.0, nu, advdiff_const_case(1.0, nu).source)
    _, fns, op = _h10_setup(num_elements, degree)
    state = iterate(problem, fns, op)
    assert state.converged
    assert state.iteration == sweeps


def test_iterate_step_norm_does_not_underflow():
    # a source of 1e-180: the first coarse step is near 1e-181, whose
    # square underflows; the recorded norm is the scaled step's norm, scaled back
    problem = AdvDiffProblem(1.0, 0.05, lambda x: np.full_like(x, 1e-180))
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, relaxation=0.5, max_iter=1)
    ws = make_workspace(problem, fns, op)
    mass = assemble_mass(fns.family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    step, _ = sweep(ws, np.zeros(fns.size), np.zeros(ws.nodes.size))
    scaled = 1e180 * step
    want = 1e-180 * np.sqrt(scaled @ mass @ scaled)
    assert state.residual_history[0] > 0.0
    assert abs(state.residual_history[0] - want) <= 1e-12 * want


def test_iterate_rejects_an_overflowing_sweep_map():
    # c/nu = 1e300: the sweep map is not finite; taken anyway, its first
    # step passes the absolute stop rule with u' near 4e84
    c, nu = 1e200, 1e-100
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    with pytest.raises(ValueError, match="sweep map overflows"):
        iterate(problem, fns, op, relaxation=0.5)


@pytest.mark.parametrize("nu", [0.05, 0.03, 0.01])
def test_sweep_map_fixed_point_is_the_exact_solution(nu):
    # one dense solve of (I - M) z = b: the map's fixed point, to which the
    # relaxed iteration converges
    c = 1.0
    case = advdiff_const_case(c, nu)
    problem = AdvDiffProblem(c, nu, case.source)
    family, fns, op = _h10_setup(3, 2)
    ws = make_workspace(problem, fns, op)
    linear, const = ws.sweep[:, :-1], ws.sweep[:, -1]
    z = np.linalg.solve(np.eye(const.size) - linear, const)
    interior, fine = z[:fns.size], z[fns.size:]
    grid = fine_grid(family.mesh, 2001)
    total = field_eval(interior_field(family, interior), grid) \
        + _cell_interpolant(ws.cells, fine, grid)
    assert np.max(np.abs(total - case.solution(grid))) <= 1e-12
    state = iterate(problem, fns, op)
    assert state.converged
    assert np.max(np.abs(state.u_bar.coeffs[1:-1] - interior)) <= 1e-7
    assert np.max(np.abs(state.fine_values - fine)) <= 1e-7


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
    exact_fine = case.solution(grid) - field_eval(direct, grid)
    assert np.max(np.abs(state.fine_scales(grid) - exact_fine)) < 5e-4
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
    exact_fine = case.solution(grid) - field_eval(direct, grid)
    assert np.max(np.abs(state.fine_scales(grid) - exact_fine)) < 5e-4


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


def test_fine_scales_reject_points_outside_the_domain():
    problem = AdvDiffProblem(1.0, 0.05, advdiff_const_case(1.0, 0.05).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, max_iter=1)
    for bad in (-0.1, np.array([0.5, 1.5]), np.nan):
        with pytest.raises(ValueError):
            state.fine_scales(bad)


@pytest.mark.parametrize("nu", [0.05, 0.01])
def test_negative_advection_mirrors_the_positive_one(nu):
    # c = -1 puts the outflow layer at x = 0: the layer's breakpoints mirror
    # there, the default relaxation min(1, nu/|c|) stays positive, and the
    # iteration is the c = +1 one under x -> 1 - x
    layer = boundary_layer_breakpoints(1.0, nu)
    np.testing.assert_allclose(boundary_layer_breakpoints(-1.0, nu), 1.0 - layer[::-1],
                               rtol=0.0, atol=1e-15)
    _, fns, op = _h10_setup(3, 2)
    one = lambda x: np.ones_like(x)  # noqa: E731
    forward = iterate(AdvDiffProblem(1.0, nu, one), fns, op)
    backward = iterate(AdvDiffProblem(-1.0, nu, one), fns, op)
    assert forward.converged and backward.converged
    assert backward.iteration == forward.iteration
    x = np.linspace(0.0, 1.0, 401)
    want = field_eval(forward.u_bar, x) + forward.fine_scales(x)
    got = field_eval(backward.u_bar, 1.0 - x) + backward.fine_scales(1.0 - x)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_default_relaxation_is_at_most_one():
    # nu/|c| = 2 here; the rule caps it at 1, where the map contracts fast
    problem = AdvDiffProblem(0.5, 1.0, advdiff_const_case(0.5, 1.0).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op)
    assert state.converged and state.iteration == 2


@pytest.mark.parametrize("num_elements,degree,nu,converges", [
    (3, 2, 0.03, True), (3, 2, 0.05, True), (3, 2, 0.01, True), (5, 3, 0.04, True),
    (4, 4, 0.05, True), (3, 2, 0.001, False)])
def test_sweep_spectral_radius_tells_whether_the_relaxation_converges(
        num_elements, degree, nu, converges):
    # at the default relaxation: below 1 at the pinned sweep counts, and
    # above 1 at alpha = 500, where the relaxed iteration diverges
    problem = AdvDiffProblem(1.0, nu, advdiff_const_case(1.0, nu).source)
    _, fns, op = _h10_setup(num_elements, degree)
    radius = iterate(problem, fns, op, max_iter=1).sweep_spectral_radius
    assert (radius < 1.0) is converges
    if not converges:
        assert not iterate(problem, fns, op, max_iter=3000).converged


@pytest.mark.parametrize("relaxation", [None, 0.2])
def test_sweep_spectral_radius_is_that_of_the_map_the_run_iterated(relaxation):
    # the state keeps (1 - w) I + w [M | b] at the run's w, nu/c = 0.05 by
    # default: one sweep from zero is its constant column, and the radius
    # is max |eig| of (1 - w) I + w M, formed here from the unrelaxed map
    c, nu = 1.0, 0.05
    problem = AdvDiffProblem(c, nu, advdiff_const_case(c, nu).source)
    _, fns, op = _h10_setup(3, 2)
    state = iterate(problem, fns, op, relaxation=relaxation, max_iter=1)
    w = nu / c if relaxation is None else relaxation
    linear = make_workspace(problem, fns, op).sweep[:, :-1]
    want = np.max(np.abs(np.linalg.eigvals((1.0 - w) * np.eye(linear.shape[0]) + w * linear)))
    assert state.sweep_spectral_radius == pytest.approx(want, rel=1e-14, abs=0.0)
    np.testing.assert_array_equal(np.concatenate((state.u_bar.coeffs[1:-1], state.fine_values)),
                                  state.relaxed_map[:, -1])
    if relaxation is None:
        # the value the CLI's default --nu 0.05 run reports
        assert abs(state.sweep_spectral_radius - 0.9554922827201037) <= 1e-12


def test_an_exactly_singular_coarse_matrix_raises():
    # c/nu = 1, so I - (c/nu) A has an exactly zero first row
    problem = AdvDiffProblem(1.0, 1.0, lambda x: np.ones_like(x))
    with pytest.raises(ValueError, match="singular coarse-scale system"):
        _coarse_solve(problem, np.diag([1.0, 0.5, 0.25]), np.ones(3))
