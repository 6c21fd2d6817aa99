import tracemalloc

import numpy as np
import pytest

from fsgreens.basis1d import Mesh1D, basis_family
from fsgreens.cases import sin2pixy_case
from fsgreens.poisson2d import (
    Field2D,
    Mesh2D,
    apply_duals_to_green_2d,
    build_dual_functionals_2d,
    build_series_operator_2d,
    green_apply_2d,
    h10_project_values_2d,
    lifted_duals_grid,
    project_2d,
    reconstruct_fine_scales_2d,
    residual_2d,
    stiffness_2d_direct,
    tabulate_functionals_2d,
)
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

CASE = sin2pixy_case()


def _mesh(n, p):
    return Mesh2D(Mesh1D.uniform(0.0, 1.0, n, p))


@pytest.fixture(scope="module")
def duals_p3():
    return build_dual_functionals_2d(_mesh(2, 3))


@pytest.fixture(scope="module")
def operator_p3(duals_p3):
    return build_series_operator_2d(duals_p3, num_terms=100)


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (2, 3), (3, 4)])
def test_eigenpairs_diagonalize_direct_assembly(n, p):
    d2 = build_dual_functionals_2d(_mesh(n, p))
    vv = np.kron(d2.eigvecs, d2.eigvecs)
    diagonal = vv.T @ stiffness_2d_direct(d2.family) @ vv
    scale = np.max(d2.eigvals)
    assert np.max(np.abs(diagonal - np.diag(d2.eig_sums.ravel()))) < 1e-12 * scale


def test_domain_must_be_unit_square():
    with pytest.raises(ValueError):
        Mesh2D(Mesh1D.uniform(0.0, 2.0, 2, 1))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_functional_biorthogonality(p):
    mesh = _mesh(2, p)
    d2 = build_dual_functionals_2d(mesh)
    family = d2.family
    x, w = composite_rule(gauss_legendre_rule(p + 3), family.mesh.boundaries)
    from fsgreens.poisson2d import _interior_tab

    bx = _interior_tab(family, x)
    dbx = _interior_tab(family, x, 1)
    mu_x = tabulate_functionals_2d(d2, x, x, 1, 0)
    mu_y = tabulate_functionals_2d(d2, x, x, 0, 1)
    m = d2.interior_size
    gram = np.zeros((d2.size, d2.size))
    for j in range(m):
        for k in range(m):
            gx = np.outer(dbx[:, j], bx[:, k])
            gy = np.outer(bx[:, j], dbx[:, k])
            gram[:, j * m + k] = (
                np.einsum("xy,x,y,xyi->i", gx, w, w, mu_x)
                + np.einsum("xy,x,y,xyi->i", gy, w, w, mu_y)
            )
    assert np.max(np.abs(gram - np.eye(d2.size))) < 1e-9


def test_functionals_nonnegative_on_sample_grid():
    # the discrete maximum principle holds for the bilinear case only; at
    # p >= 2 the tensor functionals dip about a percent below zero
    d2 = build_dual_functionals_2d(_mesh(2, 1))
    pts = np.linspace(0.025, 0.975, 21)
    vals = tabulate_functionals_2d(d2, pts, pts)
    assert np.min(vals) > -1e-12


def test_scalar_case_single_interior_dof():
    d2 = build_dual_functionals_2d(_mesh(2, 1))
    assert d2.size == 1
    family = d2.family
    x, w = composite_rule(gauss_legendre_rule(6), family.mesh.boundaries)
    from fsgreens.poisson2d import _interior_tab

    bx, dbx = _interior_tab(family, x), _interior_tab(family, x, 1)
    energy = (np.einsum("x,y,x,y->", w, w, dbx[:, 0] ** 2, bx[:, 0] ** 2)
              + np.einsum("x,y,x,y->", w, w, bx[:, 0] ** 2, dbx[:, 0] ** 2))
    mu_peak = tabulate_functionals_2d(d2, np.array([0.5]), np.array([0.5]))[0, 0, 0]
    assert mu_peak == pytest.approx(1.0 / energy, rel=1e-12)


def test_projection_source_equals_gradient_path(duals_p3):
    by_source = project_2d(duals_p3, source=CASE.source)
    gradient_x = lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
    gradient_y = lambda x, y: 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    by_gradient = project_2d(duals_p3, gradient=(gradient_x, gradient_y))
    assert np.max(np.abs(by_source.coeffs - by_gradient.coeffs)) < 1e-7


def test_projection_idempotent(duals_p3):
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=duals_p3.size)
    fld = Field2D(duals_p3.family, coeffs)
    out = project_2d(duals_p3,
                     gradient=(lambda x, y: _grid_eval(fld, x, y, 1, 0),
                               lambda x, y: _grid_eval(fld, x, y, 0, 1)))
    assert np.max(np.abs(out.coeffs - coeffs)) < 1e-9


def _grid_eval(fld, x, y, dx, dy):
    xs = x[:, 0] if np.ndim(x) == 2 else np.atleast_1d(x)
    ys = y[0, :] if np.ndim(y) == 2 else np.atleast_1d(y)
    return fld.eval_grid(xs, ys, dx, dy)


def test_projection_zero_source(duals_p3):
    out = project_2d(duals_p3, source=lambda x, y: np.zeros(np.broadcast(x, y).shape))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_gram_approaches_inverse_stiffness(duals_p3, operator_p3):
    # in the basis psi_a (x) psi_b the exact-kernel Gram is diag(lam_a + lam_b);
    # Gram block b holds the entries [a, a'] of column b
    sums = duals_p3.eig_sums
    for b, chol in enumerate(operator_p3.gram_chol):
        block = chol @ chol.T
        assert np.max(np.abs(block - np.diag(sums[:, b]))) < 0.02 * np.max(sums)


def test_series_operator_needs_a_term_per_interior_node():
    d2 = build_dual_functionals_2d(_mesh(4, 4))
    with pytest.raises(ValueError):
        build_series_operator_2d(d2, num_terms=d2.interior_size - 1)
    op = build_series_operator_2d(d2, num_terms=d2.interior_size)
    assert np.all(np.isfinite(op.gram_chol))


def test_duals_and_series_operator_form_no_dense_2d_matrix():
    # at m = 23 a build through the dense m^2 x m^2 inverse, the terms x m x m^2
    # dual profiles and the dense Gram peaks at 44 MB; the eigen-space build
    # needs about 1.3 MB
    tracemalloc.start()
    try:
        d2 = build_dual_functionals_2d(_mesh(6, 4))
        build_series_operator_2d(d2, num_terms=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_lifted_duals_truncate_the_functionals(duals_p3, operator_p3):
    pts = np.linspace(0.1, 0.9, 9)
    lifted = lifted_duals_grid(operator_p3, pts, pts)
    exact = tabulate_functionals_2d(duals_p3, pts, pts)
    assert np.max(np.abs(lifted - exact)) < 0.05 * np.max(np.abs(exact))


@pytest.mark.parametrize("p,tol", [(1, 5e-3), (3, 5e-3)])
def test_reconstruction_recovers_exact_solution(p, tol):
    mesh = _mesh(2, p)
    d2 = build_dual_functionals_2d(mesh)
    u_bar = project_2d(d2, source=CASE.source)
    op = build_series_operator_2d(d2, num_terms=100)
    grid = np.linspace(0.0, 1.0, 41)
    u_prime = reconstruct_fine_scales_2d(op, residual_2d(CASE.source, u_bar), grid, grid)
    total = u_bar.eval_grid(grid, grid) + u_prime
    exact = CASE.solution(grid[:, None], grid[None, :])
    assert np.max(np.abs(total - exact)) < tol


def test_zero_source_reconstructs_zero(operator_p3):
    grid = np.linspace(0.0, 1.0, 11)
    zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
    u_prime = reconstruct_fine_scales_2d(operator_p3, zero, grid, grid)
    assert np.max(np.abs(u_prime)) < 1e-14


def test_fine_scales_are_orthogonal_to_resolved_space(duals_p3, operator_p3):
    u_bar = project_2d(duals_p3, source=CASE.source)
    resid = residual_2d(CASE.source, u_bar)
    u_fn = lambda x, y: reconstruct_fine_scales_2d(operator_p3, resid, x, y)
    coeffs = h10_project_values_2d(duals_p3, u_fn)
    assert np.max(np.abs(coeffs)) < 1e-5


def test_lifted_functional_sources_are_annihilated(duals_p3, operator_p3):
    # applying the fine-scale operator to a functional used as a plain
    # source leaves nothing in the resolved space
    idx = duals_p3.size // 2

    def mu_fn(x, y):
        xs = x[:, 0] if np.ndim(x) == 2 else np.atleast_1d(x)
        ys = y[0, :] if np.ndim(y) == 2 else np.atleast_1d(y)
        return tabulate_functionals_2d(duals_p3, xs, ys)[:, :, idx]

    u_fn = lambda x, y: reconstruct_fine_scales_2d(operator_p3, mu_fn, x, y)
    coeffs = h10_project_values_2d(duals_p3, u_fn)
    assert np.max(np.abs(coeffs)) < 1e-5


def test_dual_pairing_matches_projection_of_kernel_image(duals_p3, operator_p3):
    # pairing the duals with the kernel image of the sine source recovers
    # the projection coefficients of the exact solution
    data = apply_duals_to_green_2d(operator_p3, CASE.source)
    u_bar = project_2d(duals_p3, source=CASE.source)
    assert np.max(np.abs(data - u_bar.coeffs)) < 1e-7


@pytest.mark.parametrize("n,terms,a,b", [(3, 100, 97, 1), (2, 1000, 900, 2), (1, 100, 90, 1),
                                         (3, 100, 1, 3)])
def test_convolution_inverts_a_single_eigenmode(n, terms, a, b):
    # a mode the series keeps is inverted exactly; at 1000 terms sinh(n pi)
    # overflows, so only the damped running sums stay finite.  The other
    # modes carry the sine moments' rounding, which is of the source's size.
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(n, 2)), num_terms=terms)
    mode = lambda x, y: np.sin(a * np.pi * x) * np.sin(b * np.pi * y)
    x, y = np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 23)
    source = mode(x[:, None], y[None, :])
    got = green_apply_2d(op, mode, x, y)
    want = source / ((a * a + b * b) * np.pi ** 2)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(source))


def test_one_element_sine_rule_resolves_every_term():
    # a rule sized only for half-domain elements under-resolves sin(90 pi s) sin(n pi s)
    # on one element and gets this moment wrong by 0.16
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(1, 2)), num_terms=100)
    moments = op.sine_weighted @ np.sin(90 * np.pi * op.osc_nodes)
    assert np.max(np.abs(moments - 0.5 * (np.arange(1, 101) == 90))) < 1e-13


def test_convolution_ordinates_in_any_order(duals_p3, operator_p3):
    resid = residual_2d(CASE.source, project_2d(duals_p3, source=CASE.source))
    x = np.linspace(0.0, 1.0, 7)
    ys = np.array([0.9, 0.5, 0.2, 0.9, 0.0, 0.5, 1.0, 0.35])   # 0.5 is the mesh line
    got = green_apply_2d(operator_p3, resid, x, ys)
    uniq, inverse = np.unique(ys, return_inverse=True)
    assert np.array_equal(got, green_apply_2d(operator_p3, resid, x, uniq)[:, inverse])
    alone = np.column_stack([green_apply_2d(operator_p3, resid, x, [yv])[:, 0] for yv in ys])
    assert np.max(np.abs(got - alone)) < 1e-14 * np.max(np.abs(got))


@pytest.mark.parametrize("y", [-0.1, 1.01])
def test_convolution_rejects_ordinates_outside_unit_interval(operator_p3, y):
    with pytest.raises(ValueError):
        green_apply_2d(operator_p3, CASE.source, np.linspace(0.0, 1.0, 5), [0.5, y])
