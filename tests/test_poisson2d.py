import tracemalloc

import numpy as np
import pytest

from fsgreens import poisson2d
from fsgreens.basis1d import Mesh1D, SpaceKind, basis_family
from fsgreens.cases import sin2pixy_case
from fsgreens.dualspace import assemble_mass
from fsgreens.poisson2d import (
    Field2D,
    Mesh2D,
    apply_duals_to_green_2d,
    build_dual_functionals_2d,
    build_series_operator_2d,
    green_apply_2d,
    lifted_duals_grid,
    project_2d,
    reconstruct_fine_scales_2d,
    residual_2d,
)
from fsgreens.projection import assemble_stiffness, mesh_quadrature
from fsgreens.quadrature import composite_rule, default_quad_points, gauss_legendre_rule

from oracle_2d import (
    h10_project_values_2d,
    reconstruct_with_pairing,
    source_rule_pairing,
    stiffness_2d_direct,
    tabulate_functionals_2d,
)

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


@pytest.mark.parametrize("n,p", [(8, 4), (12, 4), (40, 8)])
def test_eigenpairs_solve_the_generalized_problem(n, p):
    # K V = M V diag(lam) and V^T M V = I for the 1D interior stiffness K
    # and mass M that the eigenbasis is built from
    d2 = build_dual_functionals_2d(_mesh(n, p))
    stiff = assemble_stiffness(d2.family).entries
    mass = assemble_mass(d2.family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    v, lam = d2.eigvecs, d2.eigvals
    residual = stiff @ v - mass @ v * lam
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(stiff)) * np.max(np.abs(v))
    assert np.max(np.abs(v.T @ mass @ v - np.eye(lam.size))) <= 1e-12
    assert np.all(np.diff(lam) > 0.0)


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
    # Gram block b holds the entries [a, a'] of column b, and is
    # W^-T diag(theta + lam_b) W^-1
    sums = duals_p3.eig_sums
    inv_w = np.linalg.inv(operator_p3.gram_eigvecs)
    for b, lam in enumerate(duals_p3.eigvals):
        block = inv_w.T @ np.diag(operator_p3.gram_eigvals + lam) @ inv_w
        assert np.max(np.abs(block - np.diag(sums[:, b]))) < 0.02 * np.max(sums)


def test_series_operator_needs_a_term_per_interior_node():
    d2 = build_dual_functionals_2d(_mesh(4, 4))
    with pytest.raises(ValueError):
        build_series_operator_2d(d2, num_terms=d2.interior_size - 1)
    op = build_series_operator_2d(d2, num_terms=d2.interior_size)
    assert np.all(np.isfinite(op.gram_eigvecs))
    assert np.all(op.gram_eigvals > 0.0)


def test_generalized_eigh_rejects_indefinite_pencils():
    spd = np.array([[2.0, 0.5], [0.5, 1.0]])
    theta, w = poisson2d._generalized_eigh(spd, np.eye(2) + 0.1, "pencil")
    assert np.max(np.abs(w.T @ (np.eye(2) + 0.1) @ w - np.eye(2))) < 1e-15
    assert np.max(np.abs(w.T @ spd @ w - np.diag(theta))) < 1e-15
    with pytest.raises(ValueError, match="pencil not positive definite"):
        poisson2d._generalized_eigh(-spd, np.eye(2), "pencil")
    with pytest.raises(ValueError, match="not positive definite"):
        poisson2d._generalized_eigh(spd, np.diag([1.0, -1.0]), "pencil")


def test_source_pairings_need_p_points(duals_p3):
    # below p points per subinterval the 2D pairings are not exact for the
    # degree-2p-1 integrands, as for the 1D source rule
    zero = lambda x, y: np.zeros((np.size(x), np.size(y)))
    for quad in (1, 2):
        with pytest.raises(ValueError, match="at least p = 3"):
            project_2d(duals_p3, source=CASE.source, quad_points=quad)
        with pytest.raises(ValueError, match="at least p = 3"):
            build_series_operator_2d(duals_p3, num_terms=10, quad_points=quad)
        with pytest.raises(ValueError, match="at least p = 3"):
            h10_project_values_2d(duals_p3, zero, quad_points=quad)
    assert build_series_operator_2d(duals_p3, num_terms=10, quad_points=3).quad_points == 3
    # with no rule the 2D pairings take the 1D source rule's default
    assert build_series_operator_2d(duals_p3, num_terms=10).quad_points == default_quad_points(3)


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


def test_series_gram_forms_no_stack_of_blocks():
    # at m = 95 and 400 terms the m x m x m stack of Gram blocks and its
    # Cholesky factors peaked at 38 MB; the eigenpairs of two m x m
    # matrices need about 7 MB
    tracemalloc.start()
    try:
        d2 = build_dual_functionals_2d(_mesh(24, 4))
        op = build_series_operator_2d(d2, num_terms=400)
        op.solve_gram(np.ones((d2.interior_size, d2.interior_size)))
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


def test_residual_is_the_source_alone(duals_p3):
    assert residual_2d(CASE.source, project_2d(duals_p3, source=CASE.source)) is CASE.source


def _reconstruction_error(source, solution, n, p, terms):
    d2 = build_dual_functionals_2d(_mesh(n, p))
    u_bar = project_2d(d2, source=source)
    op = build_series_operator_2d(d2, num_terms=terms)
    grid = np.linspace(0.0, 1.0, 41)
    u_prime = reconstruct_fine_scales_2d(op, residual_2d(source, u_bar), grid, grid)
    exact = solution(grid[:, None], grid[None, :])
    return np.max(np.abs(u_bar.eval_grid(grid, grid) + u_prime - exact))


@pytest.mark.parametrize("n", [4, 6])
def test_error_keeps_falling_with_the_term_count(n):
    # adding the coarse field's element-wise Laplacian, without its line
    # loads, stalled the error: K = 400 then gave 0.55 (N = 4) and 0.30
    # (N = 6) of the error at K = 100
    errs = [_reconstruction_error(CASE.source, CASE.solution, n, 3, k) for k in (100, 400)]
    assert errs[1] <= 0.25 * errs[0]


def _exp_source(x, y):
    return np.exp(x) * x * (x + 3.0) * y * (1.0 - y) + 2.0 * np.exp(x) * x * (1.0 - x)


def _exp_solution(x, y):
    return np.exp(x) * x * (1.0 - x) * y * (1.0 - y)


@pytest.mark.parametrize("n,p,terms,bound", [(4, 3, 100, 1.14e-6), (4, 3, 400, 2.78e-7),
                                             (8, 4, 100, 2.80e-10), (8, 4, 400, 3.96e-11)])
def test_source_with_nonzero_traces(n, p, terms, bound):
    # u = e^x x (1 - x) y (1 - y): f does not vanish on x = 1, so its sine
    # series in x decays slowly.  The bounds are the errors with the coarse
    # Laplacian in the residual, plus 2%
    assert _reconstruction_error(_exp_source, _exp_solution, n, p, terms) <= 1.02 * bound


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


def _jittered_mesh(n, p, seed):
    # interior boundaries moved by up to 30% of an element width
    h = 1.0 / n
    inner = np.arange(1, n) * h + np.random.default_rng(seed).uniform(-0.3, 0.3, n - 1) * h
    return Mesh2D(Mesh1D(0.0, 1.0, n, p, np.concatenate(([0.0], inner, [1.0]))))


@pytest.mark.parametrize("terms", [100, 400])
@pytest.mark.parametrize("jittered", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16, 24])
def test_sine_rule_resolves_every_kept_term(n, terms, jittered):
    # the rule sized to the widest element integrates sin(n pi s) sin(m pi s)
    # over [0, 1] to rounding for every pair of kept terms
    mesh = _jittered_mesh(n, 2, n) if jittered else _mesh(n, 2)
    op = build_series_operator_2d(build_dual_functionals_2d(mesh), num_terms=terms)
    m = np.arange(1, terms + 1)
    gram = op.sine_weighted @ np.sin(np.pi * np.outer(m, op.osc_nodes)).T
    assert np.max(np.abs(gram - 0.5 * np.eye(terms))) < 1e-13
    # moments of a smooth non-polynomial function against a finely subdivided rule
    f = lambda s: np.exp(np.sin(3.0 * s)) / (1.0 + s * s)
    fine_s, fine_w = composite_rule(gauss_legendre_rule(20), np.linspace(0.0, 1.0, 2 * terms + 1))
    want = np.sin(np.pi * np.outer(m, fine_s)) @ (fine_w * f(fine_s))
    assert np.max(np.abs(op.sine_weighted @ f(op.osc_nodes) - want)) < 1e-13


def _half_domain_rule(mesh, num_terms):
    # the former sizing: 130 points per element for every element up to half the domain
    widest = np.max(np.diff(mesh.boundaries))
    rule = gauss_legendre_rule((num_terms + 30) * int(np.ceil(2.0 * widest)))
    return composite_rule(rule, mesh.boundaries)


@pytest.mark.parametrize("n,p", [(1, 2), (3, 2), (8, 4), (12, 4)])
def test_reconstruction_matches_half_domain_rule(monkeypatch, n, p):
    # the fine scales are a difference of two lifted terms up to ~50 times
    # their size, so both rules are compared on the scale of the solution
    d2 = build_dual_functionals_2d(_mesh(n, p))
    u_bar = project_2d(d2, source=CASE.source)
    resid = residual_2d(CASE.source, u_bar)
    grid = np.linspace(0.0, 1.0, 41)
    op = build_series_operator_2d(d2, num_terms=100)
    got = reconstruct_fine_scales_2d(op, resid, grid, grid)
    with monkeypatch.context() as patch:
        patch.setattr(poisson2d, "_oscillatory_rule", _half_domain_rule)
        old_op = build_series_operator_2d(d2, num_terms=100)
    assert old_op.osc_nodes.size >= op.osc_nodes.size
    want = reconstruct_fine_scales_2d(old_op, resid, grid, grid)
    scale = np.max(np.abs(u_bar.eval_grid(grid, grid) + want))
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def _gram_blocks(op):
    # block b of the series Gram, formed directly: 2 S^T diag((n pi)^2 + lam_b) S
    k2 = (np.pi * np.arange(1, op.num_terms + 1)) ** 2
    s = op.sine_moments
    return [2.0 * s.T @ np.diag(k2 + lam) @ s for lam in op.duals.eigvals]


def test_gram_factor_matches_blockwise_products():
    d2 = build_dual_functionals_2d(_jittered_mesh(5, 3, 5))
    op = build_series_operator_2d(d2, num_terms=100)
    w = op.gram_eigvecs
    for lam, block in zip(d2.eigvals, _gram_blocks(op)):
        want = np.diag(op.gram_eigvals + lam)
        assert np.max(np.abs(w.T @ block @ w - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n,p,terms", [(5, 3, 100), (6, 4, 23), (6, 4, 1000), (12, 4, 100)])
def test_gram_solve_matches_blockwise_solves(n, p, terms):
    # 23 terms is one per interior node, the fewest the build accepts
    op = build_series_operator_2d(build_dual_functionals_2d(_jittered_mesh(n, p, n)),
                                  num_terms=terms)
    rhs = np.random.default_rng(n).normal(size=(op.duals.interior_size,) * 2)
    want = np.column_stack([np.linalg.solve(block, rhs[:, b])
                            for b, block in enumerate(_gram_blocks(op))])
    assert np.max(np.abs(op.solve_gram(rhs) - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("terms", [100, 1000])
@pytest.mark.parametrize("mesh", [_mesh(8, 4), _jittered_mesh(5, 3, 5), _jittered_mesh(7, 2, 3)],
                         ids=["uniform", "jittered5", "jittered7"])
def test_piece_ends_match_linspace(mesh, terms):
    # cut at the mesh lines and at the ordinates, as the convolution cuts
    for y in (np.linspace(0.0, 1.0, 41), np.array([0.9, 0.123, 0.5, 0.77777, 0.0])):
        cuts = np.unique(np.concatenate((mesh.mesh1d.boundaries, y)))
        splits = np.ceil(terms * np.pi * np.diff(cuts) / poisson2d._PIECE_DECAY).astype(int)
        want = np.concatenate([cuts[:1]] + [np.linspace(a, b, n + 1)[1:]
                                            for a, b, n in zip(cuts[:-1], cuts[1:], splits)])
        assert np.array_equal(poisson2d._piece_ends(cuts, splits), want)


def _kink_profile(y, y0):
    # g solves -g'' + pi^2 g = |y - y0|, g(0) = g(1) = 0: the 1D kernel
    # integrated by a Gauss rule split at y and y0
    out = []
    for yv in y:
        t, w = composite_rule(gauss_legendre_rule(30),
                              np.unique([0.0, min(yv, y0), max(yv, y0), 1.0]))
        lo, hi = np.minimum(t, yv), np.maximum(t, yv)
        kernel = np.sinh(np.pi * lo) * np.sinh(np.pi * (1.0 - hi)) / (np.pi * np.sinh(np.pi))
        out.append(w @ (kernel * np.abs(t - y0)))
    return np.array(out)


@pytest.mark.parametrize("y0,bound", [(0.37, 1.56e-8), (0.5123, 3.73e-8)])
def test_convolution_of_a_source_with_a_kink(y0, bound):
    # f = |y - y0| sin(pi x) has one sine term, so the error is the piece
    # rules' on the piece holding the kink.  The bounds are the errors with
    # 20 Gauss points per piece, plus 2%: sampling the pieces more coarsely fails
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(8, 4)), num_terms=100)
    grid = np.linspace(0.0, 1.0, 41)
    got = green_apply_2d(op, lambda x, y: np.abs(y - y0) * np.sin(np.pi * x), grid, grid)
    want = np.sin(np.pi * grid)[:, None] * _kink_profile(grid, y0)[None, :]
    assert np.max(np.abs(got - want)) <= 1.02 * bound


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


def _counted(source, calls):
    # the source, recording the (x, y) of every call
    def counted(x, y):
        calls.append((np.ravel(x), np.ravel(y)))
        return source(x, y)
    return counted


@pytest.mark.parametrize("n,p,points,evaluations", [(8, 4, 20, 236_800), (12, 4, 20, 334_080),
                                                    (2, 14, 22, 197_120)])
def test_reconstruction_tabulates_the_residual_once(n, p, points, evaluations):
    # one tabulation on the convolution's pieces serves the pairing too: a
    # second one on the source rule took 284,160 and 417,600 evaluations
    # at N = 8 and 12; above p = 12 the default source rule's p + 8 points
    # set the points per piece
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(n, p)), num_terms=100)
    grid = np.linspace(0.0, 1.0, 41)
    cuts = np.unique(np.concatenate((op.duals.family.mesh.boundaries, grid)))
    pieces = np.sum(np.ceil(100 * np.pi * np.diff(cuts) / poisson2d._PIECE_DECAY).astype(int))
    calls = []
    reconstruct_fine_scales_2d(op, _counted(CASE.source, calls), grid, grid)
    assert all(np.array_equal(x, op.osc_nodes) for x, _ in calls)
    assert sum(x.size * y.size for x, y in calls) == op.osc_nodes.size * pieces * points \
        == evaluations
    source_rule = mesh_quadrature(op.duals.family, op.quad_points)[0]
    assert not np.isin(np.concatenate([y for _, y in calls]), source_rule).any()


def _one(x, y):
    return np.ones(np.broadcast(x, y).shape)


@pytest.mark.parametrize("source", [CASE.source, _exp_source, _one], ids=["sin2pixy", "exp", "one"])
@pytest.mark.parametrize("n,p", [(4, 3), (8, 4), (2, 14)])
def test_one_pass_pairing_matches_the_source_rule_pairing(n, p, source):
    # the fine scales are the difference of two terms of the convolution
    # image's size, which at N = 8 is 1.6e5 times theirs for sin2pixy, so
    # the two pairings are compared on the image's scale; they differ by
    # at most 3e-15 of it
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(n, p)), num_terms=100)
    grid = np.linspace(0.0, 1.0, 41)
    got = reconstruct_fine_scales_2d(op, source, grid, grid)
    want = reconstruct_with_pairing(op, source, grid, grid, source_rule_pairing(op, source))
    scale = np.max(np.abs(green_apply_2d(op, source, grid, grid)))
    assert np.max(np.abs(got - want)) < 1e-13 * scale
    assert np.max(np.abs(apply_duals_to_green_2d(op, source)
                         - poisson2d._stiffness_solve(op.duals, source_rule_pairing(op, source))
                         .ravel())) < 1e-13 * scale


def _kink_source(x, y):
    return np.abs(y - 0.37) + np.exp(x) * np.sin(3.0 * y)


@pytest.mark.parametrize("n,p,bound", [(4, 3, 1.66e-8), (8, 4, 1.81e-8), (2, 12, 1.77e-8),
                                       (2, 14, 2.24e-8)])
def test_pairing_of_a_source_with_an_undeclared_kink(n, p, bound):
    # against a pairing whose source rule is cut at the kink, the pieces'
    # finer rule errs less than the uncut source rule (1.6e-7 to 1.3e-5
    # here).  The bounds are the one-pass errors plus 2%
    op = build_series_operator_2d(build_dual_functionals_2d(_mesh(n, p)), num_terms=100)
    grid = np.linspace(0.0, 1.0, 41)
    want = reconstruct_with_pairing(op, _kink_source, grid, grid,
                                    source_rule_pairing(op, _kink_source, [0.37]))
    uncut = reconstruct_with_pairing(op, _kink_source, grid, grid,
                                     source_rule_pairing(op, _kink_source))
    err = np.max(np.abs(reconstruct_fine_scales_2d(op, _kink_source, grid, grid) - want))
    assert err <= min(1.02 * bound, np.max(np.abs(uncut - want)))
