from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import (Field, Mesh1D, SpaceKind, basis_family, field_eval, tabulate_edge,
                              tabulate_nodal)
from fsgreens.dualspace import _reference_duals, assemble_mass, tabulate_duals
from fsgreens.cases import sin2pix_case
from fsgreens.finescale import (
    SourceTerm,
    _l2_lift_sum,
    _lift,
    _poisson_apply,
    build_fine_scale_operator,
    fine_scale_eval,
    green_apply,
    reconstruct_fine_scales,
    residual_from_field,
)
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    h10_project_values,
    mesh_quadrature,
    pair_functionals,
    project,
    tabulate_functionals,
)
from fsgreens.quadrature import composite_rule, default_quad_points, gauss_legendre_rule

from flattened_oracle import (apply_dual_green, element_endpoint_values, element_green, flattened,
                              functional_load, lift_functionals_direct, nodal_points, pair_naive,
                              reconstruct_flat, resolved_basis_reproduction)

KERNEL = GreensKernel1D.poisson()
CASE = sin2pix_case()


def _setup(num_elements, degree, flavor):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    fns = build_dual_functionals(family, flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    return family, fns, op


def _load_as_source_terms(fns):
    smooth_tab, locs, strengths = functional_load(fns)
    inner = tuple(fns.family.mesh.boundaries[1:-1])
    out = []
    for i in range(fns.size):
        sources = tuple(
            (float(loc), float(strengths[k, i]))
            for k, loc in enumerate(np.atleast_1d(locs))
        )
        out.append(SourceTerm(smooth=lambda s, i=i: smooth_tab(s)[:, i],
                              breakpoints=inner, point_sources=sources))
    return out


# ---------------------------------------------------------------------------
# lifted functionals


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_lifted_functionals_vanish_at_boundary(flavor):
    _, fns, op = _setup(2, 3, flavor)
    ends = op.lifted_tab(np.array([0.0, 1.0]))
    assert np.max(np.abs(ends)) < 1e-10


def test_lifted_h10_functionals_reproduce_duals():
    # the derivative-pairing load of a functional inverts the kernel
    # exactly, so the lifts, which are also the representers of the
    # self-adjoint kernel, are the functionals themselves
    family, fns, op = _setup(3, 2, ProjectionFlavor.H10)
    x = np.linspace(0.0, 1.0, 151)
    assert np.max(np.abs(op.lifted_tab(x) - tabulate_functionals(fns, x))) < 1e-11
    _, fns, op = _setup(2, 3, ProjectionFlavor.H10)
    s = np.linspace(0.05, 0.95, 21)
    assert np.max(np.abs(op.lifted_tab(s) - tabulate_functionals(fns, s))) < 1e-12


def test_lifted_l2_weak_identity():
    # minus the second derivative of a lifted plain density recovers the
    # density weakly
    family, fns, op = _setup(2, 2, ProjectionFlavor.L2)
    phi = lambda x: np.sin(np.pi * x) * x * (1.3 - x)
    ddphi_h = 1e-5
    x, w = composite_rule(gauss_legendre_rule(20), family.mesh.boundaries)
    ddphi = (phi(x + ddphi_h) - 2 * phi(x) + phi(x - ddphi_h)) / ddphi_h**2
    for i in range(fns.size):
        lhs = -w @ (op.lifted_tab(x)[:, i] * ddphi)
        rhs = w @ (tabulate_functionals(fns, x)[:, i] * phi(x))
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_lifted_h10_greens_identity_against_load():
    # the weak Laplacian of each lifted functional reproduces the
    # derivative-pairing load: smooth density plus its node point sources
    family, fns, op = _setup(2, 3, ProjectionFlavor.H10)
    phi = lambda x: np.sin(np.pi * x) * (2.0 - x)
    ddphi = lambda x: -np.pi**2 * np.sin(np.pi * x) * (2.0 - x) - 2.0 * np.pi * np.cos(np.pi * x)
    x, w = composite_rule(gauss_legendre_rule(24), family.mesh.boundaries)
    smooth_tab, locs, strengths = functional_load(fns)
    for i in range(fns.size):
        lhs = -w @ (op.lifted_tab(x)[:, i] * ddphi(x))
        rhs = w @ (smooth_tab(x)[:, i] * phi(x))
        rhs += sum(strengths[k, i] * phi(loc) for k, loc in enumerate(locs))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lifted_h10_nonnegative():
    _, fns, op = _setup(2, 3, ProjectionFlavor.H10)
    x = np.linspace(0.0, 1.0, 201)
    assert np.min(op.lifted_tab(x)) > -1e-12


def test_splines_match_direct_quadrature():
    for flavor in (ProjectionFlavor.H10, ProjectionFlavor.L2):
        _, fns, op = _setup(2, 3, flavor)
        x = np.linspace(0.0, 1.0, 77)
        direct = lift_functionals_direct(KERNEL, fns, x)
        assert np.max(np.abs(op.lifted_tab(x) - direct)) < 1e-9


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
@pytest.mark.parametrize("num_elements", [6, 10])
def test_lifts_exact_on_jittered_mesh(flavor, num_elements):
    # the on-demand lifts, which are also the representers, against the
    # per-point oracle, on interior boundaries moved by up to 30% of an
    # element width
    rng = np.random.default_rng(num_elements)
    h = 1.0 / num_elements
    inner = np.arange(1, num_elements) * h + rng.uniform(-0.3, 0.3, num_elements - 1) * h
    mesh = Mesh1D(0.0, 1.0, num_elements, 4, np.concatenate(([0.0], inner, [1.0])))
    fns = build_dual_functionals(basis_family(mesh), flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    x = np.linspace(0.0, 1.0, 97)
    direct = lift_functionals_direct(KERNEL, fns, x)
    assert np.max(np.abs(op.lifted_tab(x) - direct)) < 1e-13


def test_domain_mismatch_rejected():
    family = basis_family(Mesh1D.uniform(0.0, 2.0, 2, 2))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_fine_scale_operator(KERNEL, fns)


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_resolved_part_rejects_points_outside_the_mesh(flavor):
    # both flavors locate a point by the basis's one rule: NaN is outside
    # too, for one vector of data and for one column per right side
    _, fns, op = _setup(3, 2, flavor)
    for bad in (np.nan, -0.1, 1.1):
        for data in (np.ones(op.size), np.ones((op.size, 2))):
            with pytest.raises(ValueError, match="outside"):
                op.resolved(np.array([0.5, bad]), data)


def test_green_apply_takes_no_coarse_field():
    # a coarse field's image, minus the field, is subtracted once, by the
    # reconstruction; green_apply integrates the smooth part and point loads
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    u_bar = Field(family, SpaceKind.NODAL, np.zeros(family.mesh.num_nodal_dofs))
    with pytest.raises(ValueError, match="coarse"):
        green_apply(SourceTerm(CASE.source, coarse=u_bar), np.linspace(0.0, 1.0, 5), 20)


def test_poisson_primitive_puts_a_point_on_a_cut_in_the_left_cell():
    # as basis1d._locate places it: the point's partial cell is the whole
    # cell left of it, not a zero-width piece of the cell to its right
    x = np.array([0.0, 0.25, 0.5, 0.7, 1.0])
    calls = []

    def density(s):
        calls.append(s.reshape(x.size, -1))
        return np.ones_like(s)

    got = _poisson_apply(density, x, [0.25, 0.5], 20)[:, 0]
    widths = np.ptp(calls[-1], axis=1)
    assert np.all(widths[1:] > 0.0) and widths[0] == 0.0
    assert np.all(calls[-1][1:3] < x[1:3, None])
    assert np.max(np.abs(got - 0.5 * x * (1.0 - x))) < 1e-16


# ---------------------------------------------------------------------------
# Gram matrix


def test_gram_scalar_h10_case():
    _, fns, op = _setup(2, 1, ProjectionFlavor.H10)
    assert op.gram.shape == (1, 1)
    assert op.gram[0, 0] == pytest.approx(0.25, abs=1e-13)


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_gram_symmetry(flavor):
    # exactly symmetric, as formed, on jittered meshes
    for num_elements, degree in ((2, 3), (7, 4), (20, 3), (40, 2)):
        fns = build_dual_functionals(basis_family(_jittered_mesh(num_elements, degree)), flavor)
        gram = build_fine_scale_operator(KERNEL, fns).gram
        np.testing.assert_array_equal(gram, gram.T)


def _gram_meshes(degree):
    """The uniform N=2 mesh, one with interior boundaries moved by up to
    30% of an element width, and two higher degrees."""
    jitter = np.array([0.0, 0.3, -0.25, 0.1, 0.0]) * 0.25
    jittered = Mesh1D(0.0, 1.0, 4, 3, np.linspace(0.0, 1.0, 5) + jitter)
    return [Mesh1D.uniform(0.0, 1.0, 2, degree), jittered,
            Mesh1D.uniform(0.0, 1.0, 3, 5), Mesh1D.uniform(0.0, 1.0, 2, 8)]


def test_gram_h10_equals_inverse_stiffness():
    # the Gram, formed as K^{-1}, against two other routes to it: the
    # pairings of the functionals' derivatives on the exact (p + 1)-point
    # rule, and the inverse of the interior stiffness
    for mesh in _gram_meshes(3):
        fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
        op = build_fine_scale_operator(KERNEL, fns)
        s, w = mesh_quadrature(fns.family, mesh.degree + 1)
        tab = tabulate_functionals(fns, s, deriv=1)
        assert np.max(np.abs(op.gram - tab.T @ (w[:, None] * tab))) < 1e-11
        assert np.max(np.abs(op.gram - np.linalg.inv(fns.stiffness.entries))) < 1e-11


def test_gram_l2_pairings_against_quadrature_oracle():
    # entries are the L2 pairings of the functionals with their lifts,
    # recomputed here with an independent nested quadrature
    for mesh in _gram_meshes(2):
        family = basis_family(mesh)
        fns = build_dual_functionals(family, ProjectionFlavor.L2)
        op = build_fine_scale_operator(KERNEL, fns)
        x, w = mesh_quadrature(family, 30)
        lift = lift_functionals_direct(KERNEL, fns, x, quad_points=30)
        tab = tabulate_functionals(fns, x)
        oracle = tab.T @ (w[:, None] * lift)
        assert np.max(np.abs(op.gram - oracle)) < 1e-10


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_gram_independent_of_source_rule(flavor):
    # the Gram integrands are polynomials integrated on their exact rule;
    # quad_points only sets the reconstructions' source rule
    for mesh in _gram_meshes(4)[::2]:
        fns = build_dual_functionals(basis_family(mesh), flavor)
        ops = [build_fine_scale_operator(KERNEL, fns, q) for q in (mesh.degree, 20, 40)]
        assert [op.quad_points for op in ops] == [mesh.degree, 20, 40]
        for op in ops[1:]:
            np.testing.assert_array_equal(op.gram, ops[0].gram)


@pytest.mark.parametrize("num_elements,degree", [(6, 2), (12, 4), (40, 3)])
def test_l2_gram_matches_the_quadrature_oracle_on_jittered_meshes(num_elements, degree):
    # the closed form (semiseparable off the diagonal blocks) against the
    # functionals paired with the per-point oracle's lifts on the exact rule
    mesh = _jittered_mesh(num_elements, degree)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    op = build_fine_scale_operator(KERNEL, fns)
    s, w = mesh_quadrature(fns.family, degree + 1)
    lift = lift_functionals_direct(KERNEL, fns, s, quad_points=degree + 1)
    oracle = tabulate_functionals(fns, s).T @ (w[:, None] * lift)
    assert _rel_err(op.gram, oracle) <= 1e-13


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
@pytest.mark.parametrize("num_elements,degree", [(2, 2), (10, 2), (10, 4), (40, 2), (40, 4)])
def test_gram_cond_is_the_condition_number_of_the_formed_gram(flavor, num_elements, degree):
    # the extreme eigenvalues of the L2 Gram, or of the stiffness K for H10
    # (the Gram is K^{-1}), against the SVD of the formed Gram.  Both are
    # backward stable, so the smallest eigenvalue carries about eps cond of
    # relative rounding, above 1e-12 in log10 at N = 40, p = 4 (L2: 3.3e-12
    # measured)
    fns = build_dual_functionals(basis_family(_jittered_mesh(num_elements, degree)), flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    tol = max(1e-12, np.finfo(float).eps * op.gram_cond)
    assert np.log10(op.gram_cond) == pytest.approx(np.log10(np.linalg.cond(op.gram)), abs=tol)


def test_h10_build_and_reconstruction_form_no_gram():
    # the H10 condition number is the stiffness's and the resolved part the
    # interior nodal basis: the Gram is formed only when read
    family, fns, op = _setup(20, 4, ProjectionFlavor.H10)
    u_bar = h10_project_from_source(fns, CASE.source)
    x = np.linspace(0.0, 1.0, 41)
    reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), x)
    fine_scale_eval(op, x, x)
    assert "gram" not in vars(op)
    assert op.gram.shape == (fns.size, fns.size)
    assert "gram" in vars(op)


def test_l2_build_and_reconstruction_hold_a_few_gram_sized_arrays():
    # the Gram and its Cholesky factor, the symmetry check taking row
    # blocks: 2.14 Gram sizes measured at N = 320, p = 4, against 3.0 when
    # the check formed two Gram-sized temporaries and 9.8 when the lifts
    # went through dense (points x N p) dual tables
    import tracemalloc

    family = basis_family(Mesh1D.uniform(0.0, 1.0, 320, 4))
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    u_bar = project(fns, CASE.solution)
    resid = residual_from_field(u_bar, CASE.source)
    x = np.linspace(0.0, 1.0, 401)
    tracemalloc.start()
    try:
        op = build_fine_scale_operator(KERNEL, fns)
        u_prime = reconstruct_fine_scales(op, resid, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * op.gram.nbytes
    assert np.max(np.abs(field_eval(u_bar, x) + u_prime - CASE.solution(x))) <= 1e-14


# ---------------------------------------------------------------------------
# dual pairings of lifted residuals


def test_apply_dual_green_matches_plain_pairing():
    # for the derivative pairing the dual application of the kernel image
    # reduces to the plain pairing with the residual itself
    family, fns, op = _setup(3, 2, ProjectionFlavor.H10)
    nu = lambda s: np.sin(3.1 * s) * (1.0 - s)
    got = apply_dual_green(KERNEL, fns, SourceTerm.from_function(nu))
    x, w = mesh_quadrature(family)
    expected = tabulate_functionals(fns, x).T @ (w * nu(x))
    assert np.max(np.abs(got - expected)) < 1e-8


def test_apply_dual_green_zero_residual():
    _, fns, _ = _setup(2, 2, ProjectionFlavor.H10)
    zero = SourceTerm.from_function(lambda s: np.zeros_like(s))
    assert np.max(np.abs(apply_dual_green(KERNEL, fns, zero))) == 0.0


@pytest.mark.parametrize("coarse", [False, True])
def test_l2_apply_dual_green_defaults_to_the_degree_rule(coarse):
    # with no quad_points the L2 pairing of G f, and G u_bar, use the
    # degree's default source rule
    family, fns, _ = _setup(3, 4, ProjectionFlavor.L2)
    src = SourceTerm.from_function(CASE.source, breakpoints=(0.3,))
    if coarse:
        src = replace(src, coarse=h10_project_from_source(
            build_dual_functionals(family, ProjectionFlavor.H10), CASE.source))
    got = apply_dual_green(KERNEL, fns, src)
    want = apply_dual_green(KERNEL, fns, src, quad_points=default_quad_points(4))
    assert np.array_equal(got, want)


def test_split_vs_naive_quadrature_contrast():
    # the kernel's derivative jump ruins naive quadrature of the derivative
    # pairing; splitting at the jump fixes it
    family, fns, _ = _setup(2, 3, ProjectionFlavor.H10)
    u_bar = h10_project_from_source(fns, CASE.source)
    resid = residual_from_field(u_bar, CASE.source)
    split = apply_dual_green(KERNEL, fns, resid)
    naive = pair_naive(KERNEL, fns, resid)
    assert np.max(np.abs(split - naive)) > 1e-3
    assert np.max(np.abs(split)) < 1e-9  # exact-projection residual data vanishes


# ---------------------------------------------------------------------------
# fine-scale kernel


def test_annihilates_functional_loads():
    grid = np.linspace(0.0, 1.0, 201)
    for flavor in (ProjectionFlavor.H10, ProjectionFlavor.L2):
        _, fns, op = _setup(2, 2, flavor)
        for src in _load_as_source_terms(fns):
            up = reconstruct_fine_scales(op, src, grid)
            assert np.max(np.abs(up)) < 1e-7


def test_fine_kernel_vanishes_at_boundary():
    _, fns, op = _setup(2, 2, ProjectionFlavor.H10)
    s = np.linspace(0.1, 0.9, 7)
    vals = fine_scale_eval(op, np.array([0.0, 1.0]), s)
    assert np.max(np.abs(vals)) < 1e-10


def test_p1_fine_kernel_is_element_kernel():
    family, fns, op = _setup(2, 1, ProjectionFlavor.H10)
    g = np.linspace(0.0, 1.0, 41)
    fine = fine_scale_eval(op, g, g)
    local = np.zeros((g.size, g.size))
    for n in range(2):
        a, b = family.mesh.boundaries[n], family.mesh.boundaries[n + 1]
        local += element_green(g[:, None], g[None, :], a, b)
    assert np.max(np.abs(fine - local)) < 1e-7


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_fine_kernel_columns_project_to_zero(flavor):
    # the projection quadrature must split at the kernel kink x = s
    family, fns, op = _setup(2, 2, flavor)
    for s in (0.13, 0.35, 0.5, 0.77, 0.92):
        if flavor is ProjectionFlavor.L2:
            x, w = mesh_quadrature(family, breakpoints=[s] if 0 < s < 1 else ())
            col = fine_scale_eval(op, x, np.array([s]))[:, 0]
            coeffs = tabulate_functionals(fns, x).T @ (w * col)
        else:
            column = lambda q, s=s: fine_scale_eval(op, q, np.array([s]))[:, 0]
            coeffs = h10_project_values(fns, column, breakpoints=[s])
        assert np.max(np.abs(coeffs)) < 1e-7


def test_symmetric_kernel_for_l2_flavor():
    _, fns, op = _setup(2, 2, ProjectionFlavor.L2)
    pts = np.linspace(0.07, 0.93, 9)
    surf = fine_scale_eval(op, pts, pts)
    assert np.max(np.abs(surf - surf.T)) < 1e-9


# ---------------------------------------------------------------------------
# resolved-basis reproduction


def test_reproduction_h10_matches_interior_nodal_basis():
    for degree in (1, 2, 3):
        family, fns, op = _setup(2, degree, ProjectionFlavor.H10)
        x = np.linspace(0.0, 1.0, 201)
        rep = resolved_basis_reproduction(op, x)
        target = tabulate_nodal(family, x)[:, 1:-1]
        assert np.max(np.abs(rep - target)) < 1e-7


def test_reproduction_h10_scalar_case_is_hat():
    family, fns, op = _setup(2, 1, ProjectionFlavor.H10)
    x = np.linspace(0.0, 1.0, 101)
    rep = resolved_basis_reproduction(op, x)[:, 0]
    hat = tabulate_nodal(family, x)[:, 1]
    assert np.max(np.abs(rep - hat)) < 1e-7


def test_reproduction_l2_projects_to_identity():
    # the reconstruction functions carry the correct resolved content: their
    # projections are exactly the edge basis coefficients (the pointwise
    # functions themselves are not in the edge space; see the ledger note)
    family, fns, op = _setup(2, 3, ProjectionFlavor.L2)
    x, w = mesh_quadrature(family, 30)
    rep = resolved_basis_reproduction(op, x)
    gram = tabulate_functionals(fns, x).T @ (w[:, None] * rep)
    assert np.max(np.abs(gram - np.eye(fns.size))) < 1e-9


# ---------------------------------------------------------------------------
# reconstruction


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
@pytest.mark.parametrize("degree,elements", [(1, 5), (2, 5), (3, 1)])
def test_poisson_reconstruction(flavor, degree, elements):
    family, fns, op = _setup(elements, degree, flavor)
    if flavor is ProjectionFlavor.H10:
        u_bar = h10_project_from_source(fns, CASE.source)
    else:
        u_bar = project(fns, CASE.solution)
    resid = residual_from_field(u_bar, CASE.source)
    grid = np.linspace(0.0, 1.0, 401)
    u_prime = reconstruct_fine_scales(op, resid, grid)
    total = field_eval(u_bar, grid) + u_prime
    assert np.max(np.abs(total - CASE.solution(grid))) < 1e-5


def test_zero_residual_reconstructs_zero():
    _, fns, op = _setup(2, 2, ProjectionFlavor.H10)
    zero = SourceTerm.from_function(lambda s: np.zeros_like(s))
    grid = np.linspace(0.0, 1.0, 51)
    assert np.max(np.abs(reconstruct_fine_scales(op, zero, grid))) == 0.0


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_reconstructed_scales_are_flavor_orthogonal(flavor):
    family, fns, op = _setup(5, 2, flavor)
    if flavor is ProjectionFlavor.H10:
        u_bar = h10_project_from_source(fns, CASE.source)
    else:
        u_bar = project(fns, CASE.solution)
    resid = residual_from_field(u_bar, CASE.source)
    if flavor is ProjectionFlavor.L2:
        x, w = mesh_quadrature(family)
        vals = reconstruct_fine_scales(op, resid, x)
        coeffs = tabulate_functionals(fns, x).T @ (w * vals)
    else:
        coeffs = h10_project_values(fns, lambda q: reconstruct_fine_scales(op, resid, q))
    assert np.max(np.abs(coeffs)) < 1e-6


def test_fine_kernel_and_reconstruction_agree():
    # two code paths, one answer: quadrature of the assembled kernel against
    # the residual versus the direct reconstruction
    from fsgreens.quadrature import composite_rule, gauss_legendre_rule

    family, fns, op = _setup(2, 2, ProjectionFlavor.H10)
    u_bar = h10_project_from_source(fns, CASE.source)
    resid = residual_from_field(u_bar, CASE.source)
    pts = np.linspace(0.04, 0.96, 11)
    direct = reconstruct_fine_scales(op, resid, pts)
    rule = gauss_legendre_rule(20)
    for i, x in enumerate(pts):
        cuts = np.unique(np.concatenate((family.mesh.boundaries, [x])))
        s, w = composite_rule(rule, cuts)
        kern_row = fine_scale_eval(op, np.array([x]), s)[0]
        val = np.dot(w, kern_row * resid.smooth(s))
        assert val == pytest.approx(direct[i], abs=1e-8)


def test_random_smooth_residuals_project_to_zero():
    rng = np.random.default_rng(31)
    family, fns, op = _setup(2, 2, ProjectionFlavor.H10)
    grid = np.linspace(0.0, 1.0, 101)
    for _ in range(10):
        a, b, c = rng.normal(size=3)
        nu = lambda s: a * np.sin(2.3 * s) + b * s**2 + c
        up = reconstruct_fine_scales(op, SourceTerm.from_function(nu), grid)
        coeffs = h10_project_values(
            fns, lambda q: reconstruct_fine_scales(op, SourceTerm.from_function(nu), q))
        assert np.max(np.abs(coeffs)) < 1e-8


def test_edge_field_residual_jump_terms():
    # an edge coarse field's flattened residual carries explicit
    # interface/boundary point terms
    family, fns, op = _setup(5, 1, ProjectionFlavor.L2)
    u_bar = project(fns, CASE.solution)
    resid = flattened(residual_from_field(u_bar, CASE.source))
    assert len(resid.point_sources) == 6
    assert len(resid.point_dipoles) == 6
    # interior dipole strengths are the field jumps
    vl, vr = element_endpoint_values(u_bar)
    assert resid.point_dipoles[1][1] == pytest.approx(vl[1] - vr[0], abs=1e-14)


def test_l2_reconstruction_keeps_a_nodal_fields_interface_loads():
    # under the L2 operator a nodal coarse field's derivative jumps are
    # loads like any other: G r = u - u_bar, so the fine scales are
    # u - u_bar minus the lifts times the Gram solution of its pairing
    family, fns, op = _setup(5, 2, ProjectionFlavor.L2)
    u_bar = Field(family, SpaceKind.NODAL, CASE.solution(nodal_points(family)))
    x = np.linspace(0.0, 1.0, 101)
    got = reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), x)
    error = lambda q: CASE.solution(q) - field_eval(u_bar, q)
    s, w = mesh_quadrature(family, op.quad_points)
    data = tabulate_functionals(fns, s).T @ (w * error(s))
    want = error(x) - op.lifted_tab(x) @ op.solve_gram(data)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_high_degree_builds_on_library_defaults(flavor):
    # the default source rule grows with the degree: 32 points at p = 24
    family, fns, op = _setup(1, 24, flavor)
    assert op.quad_points == 32
    if flavor is ProjectionFlavor.H10:
        u_bar = h10_project_from_source(fns, CASE.source)
    else:
        u_bar = project(fns, CASE.solution)
    grid = np.linspace(0.0, 1.0, 101)
    u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), grid)
    total = field_eval(u_bar, grid) + u_prime
    assert np.max(np.abs(total - CASE.solution(grid))) < 1e-9


@pytest.mark.parametrize("num_elements", [20, 80, 320])
def test_h10_error_does_not_grow_with_the_element_count(num_elements):
    # the H10 resolved part is the interior nodal basis: no Gram or
    # stiffness solve whose rounding would grow with N
    family, fns, op = _setup(num_elements, 4, ProjectionFlavor.H10)
    u_bar = h10_project_from_source(fns, CASE.source)
    x = np.linspace(0.0, 1.0, 401)
    u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), x)
    assert np.max(np.abs(field_eval(u_bar, x) + u_prime - CASE.solution(x))) <= 1e-14


# ---------------------------------------------------------------------------
# properties on random non-uniform meshes


@st.composite
def _mesh_cases(draw):
    degree = draw(st.integers(1, 5))
    num_elements = draw(st.integers(1, 6))
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    mesh = Mesh1D(0.0, 1.0, num_elements, degree, bounds)
    # boundaries and midpoints, where every table is far from zero, plus free points
    free = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    return mesh, np.unique(np.concatenate((bounds, 0.5 * (bounds[1:] + bounds[:-1]), free)))


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(case=_mesh_cases())
def test_element_local_duals_match_dense_mass_solve(case):
    mesh, x = case
    family = basis_family(mesh)
    duals = build_dual_functionals(family, ProjectionFlavor.L2).duals
    mass = assemble_mass(family, SpaceKind.EDGE)
    # derivatives of order p or more vanish: their tables are rounding noise
    for deriv in range(min(mesh.degree, 3)):
        want = mass.solve(tabulate_edge(family, x, deriv=deriv).T).T
        assert _rel_err(tabulate_duals(duals, x, deriv=deriv), want) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_mesh_cases())
def test_element_local_l2_lifts_match_dense_primitive(case):
    mesh, x = case
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    mass = assemble_mass(family, SpaceKind.EDGE)
    dense = lambda s: mass.solve(tabulate_edge(family, s).T).T
    for deriv in (0, 1):
        want = _poisson_apply(dense, x, mesh.boundaries, 20, deriv)
        assert _rel_err(_lift(fns, x, deriv), want) < 1e-12
    direct = lift_functionals_direct(KERNEL, fns, x)
    assert _rel_err(_lift(fns, x), direct) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_mesh_cases(), flavor=st.sampled_from(ProjectionFlavor))
def test_reconstruction_annihilates_loads_and_is_exact(case, flavor):
    # the fine-scale operator annihilates every functional's load, and the
    # projection plus its reconstructed fine scales is the exact solution
    mesh, x = case
    assume(flavor is ProjectionFlavor.L2 or mesh.num_elements * mesh.degree >= 2)
    fns = build_dual_functionals(basis_family(mesh), flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    for src in _load_as_source_terms(fns):
        assert np.max(np.abs(reconstruct_fine_scales(op, src, x))) < 1e-9
    if flavor is ProjectionFlavor.H10:
        u_bar = h10_project_from_source(fns, CASE.source)
    else:
        u_bar = project(fns, CASE.solution)
    u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), x)
    assert np.max(np.abs(field_eval(u_bar, x) + u_prime - CASE.solution(x))) < 1e-10


# ---------------------------------------------------------------------------
# the reductions of the reconstruction against their oracles, on random
# non-uniform meshes with N <= 12 and p <= 8


@st.composite
def _large_meshes(draw, min_dofs=1):
    degree = draw(st.integers(1, 8))
    num_elements = draw(st.integers(1, 12))
    assume(num_elements * degree >= min_dofs)
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    return Mesh1D(0.0, 1.0, num_elements, degree, bounds)


class _SineSeries:
    """u = sum a_k sin(k pi x), so -u'' = sum a_k (k pi)^2 sin(k pi x)."""

    def __init__(self, amps):
        self.a = np.asarray(amps, dtype=float)
        self.k = np.pi * np.arange(1, self.a.size + 1)

    def solution(self, x):
        return np.sin(np.multiply.outer(x, self.k)) @ self.a

    def source(self, x):
        return np.sin(np.multiply.outer(x, self.k)) @ (self.a * self.k**2)


_AMPS = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(mesh=_large_meshes(min_dofs=2), amps=_AMPS)
def test_h10_source_only_reconstruction_matches_flattened_residual(mesh, amps):
    # the H10 operator skips the coarse field's second derivative; the
    # flattened residual integrates it.  Both give the exact fine scales
    # u - u_bar: the split path to rounding, the flattened oracle to the
    # rounding floor of the integrated second derivative
    series = _SineSeries(amps)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    u_bar = h10_project_from_source(fns, series.source)
    resid = residual_from_field(u_bar, series.source)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), mesh.boundaries)))
    want = series.solution(x) - field_eval(u_bar, x)
    assert np.max(np.abs(reconstruct_fine_scales(op, resid, x) - want)) <= 1e-13
    assert np.max(np.abs(reconstruct_flat(op, resid, x) - want)) <= 5e-13


@settings(max_examples=30, deadline=None)
@given(mesh=_large_meshes())
def test_l2_lifts_on_the_exact_rule_match_direct_quadrature(mesh):
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), mesh.boundaries,
                                  0.5 * (mesh.boundaries[1:] + mesh.boundaries[:-1]))))
    for deriv in (0, 1):
        direct = lift_functionals_direct(KERNEL, fns, x, deriv=deriv)
        assert _rel_err(_lift(fns, x, deriv), direct) <= 5e-14


@pytest.mark.parametrize("num_elements,bound", [(80, 3.4e-14), (320, 1.2e-13)])
def test_l2_lifts_at_scale_match_direct_quadrature(num_elements, bound):
    # uniform p = 4 meshes, on a grid plus every (N / 20)-th node and
    # midpoint.  The bounds are the primitive's error against the oracle:
    # 3.3e-14 at N = 80 on the grid plus every node and midpoint (2.8e-14
    # on these points), 1.17e-13 at N = 320 on these points; the closed
    # form measured 2.7e-14 and 8.3e-14.  The oracle and the primitive
    # evaluate the duals at physical points, whose reference coordinates
    # carry about eps / h of rounding.  The closed form's dual moments,
    # taken on the reference element, meet a rule on the reference nodes
    # to 1e-14 (8.5e-16 measured at N = 320)
    mesh = Mesh1D.uniform(0.0, 1.0, num_elements, 4)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    bounds, step = mesh.boundaries, num_elements // 20
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), bounds[::step], mids[::step])))
    for deriv in (0, 1):
        direct = lift_functionals_direct(KERNEL, fns, x, deriv=deriv)
        assert _rel_err(_lift(fns, x, deriv), direct) <= bound
    rule = gauss_legendre_rule(mesh.degree + 1)
    jac = 0.5 * np.diff(bounds)[:, None]
    s = bounds[:-1, None] + jac * (1.0 + rule.nodes)
    duals = _reference_duals(fns.duals, rule.nodes)
    for got, weight in zip(fns.duals.moments, (s, 1.0 - s)):
        assert _rel_err(got, jac * ((rule.weights * weight) @ duals)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(mesh=_large_meshes(min_dofs=2), amps=_AMPS)
def test_h10_pair_then_solve_matches_table_first(mesh, amps):
    # the split H10 dual application pairs the interior nodal basis and
    # solves once; the table-first formula pushes every representer
    # through the stiffness.  The resolved part gathers the interior nodal
    # basis element by element against its dense table
    series = _SineSeries(amps)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    src = SourceTerm(smooth=series.source, breakpoints=(0.3,),
                     point_sources=((0.4, 0.7), (mesh.boundaries[-1], -0.2)))
    s, w = mesh_quadrature(fns.family, op.quad_points, src.breakpoints)
    want = tabulate_functionals(fns, s).T @ (w * series.source(s))
    locs, qs = np.array(src.point_sources).T
    want += tabulate_functionals(fns, locs).T @ qs
    got = apply_dual_green(KERNEL, fns, src, quad_points=op.quad_points)
    assert _rel_err(got, want) <= 1e-13
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), mesh.boundaries)))
    want = tabulate_nodal(fns.family, x)[:, 1:-1] @ got
    assert _rel_err(op.resolved(x, got), want) <= 1e-13


# ---------------------------------------------------------------------------
# the coarse field in closed form, G r = G f - u_bar, and the L2 resolved
# part with no lift table


def _jittered_mesh(num_elements, degree):
    # interior boundaries moved by up to 30% of an element width
    rng = np.random.default_rng(num_elements)
    h = 1.0 / num_elements
    inner = np.arange(1, num_elements) * h + rng.uniform(-0.3, 0.3, num_elements - 1) * h
    return Mesh1D(0.0, 1.0, num_elements, degree, np.concatenate(([0.0], inner, [1.0])))


@pytest.mark.parametrize("num_elements", [5, 20, 320])
def test_l2_resolved_part_matches_the_lift_table(num_elements):
    # sum_j lift_j(x) y_j in closed form (prefix and suffix sums of the dual
    # moments plus each point's own element) against the dense lift table,
    # for one vector and 41 columns; then the resolved part against the lift
    # table times the same Gram solution, on the data of a smooth function
    # (random data would mostly measure the Gram solve's amplification of
    # rounding)
    mesh = _jittered_mesh(num_elements, 4)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    op = build_fine_scale_operator(KERNEL, fns)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 401), mesh.boundaries)))
    table = op.lifted_tab(x)
    rng = np.random.default_rng(7)
    for y in (rng.normal(size=op.size), rng.normal(size=(op.size, 41))):
        want = table @ y
        got = _l2_lift_sum(fns, x, y)
        assert got.shape == want.shape
        assert _rel_err(got, want) <= 1e-14
    s, w = mesh_quadrature(fns.family)
    data = pair_functionals(fns, s, w * np.exp(s) * np.sin(3.0 * s))
    assert _rel_err(op.resolved(x, data), table @ op.solve_gram(data)) <= 1e-14


@pytest.mark.parametrize("num_elements", [2, 20])
def test_l2_kernel_surface_lifts_the_grid_once(num_elements):
    # x = s: the resolved part is L Gram^{-1} L^T from one lift table,
    # symmetric like the kernel, and equal to lifting x and s separately
    op = build_fine_scale_operator(KERNEL, build_dual_functionals(
        basis_family(_jittered_mesh(num_elements, 4)), ProjectionFlavor.L2))
    x = np.linspace(0.0, 1.0, 41)
    surf = fine_scale_eval(op, x, x)
    want = op.kernel(x[:, None], x[None, :]) - op.lifted_tab(x) @ op.solve_gram(op.lifted_tab(x).T)
    assert np.max(np.abs(surf - want)) <= 1e-14
    np.testing.assert_array_equal(surf, surf.T)


@pytest.mark.parametrize("num_elements,degree", [(2, 2), (20, 4)])
def test_h10_kernel_surface_is_exactly_zero_off_its_elements(num_elements, degree):
    # the H10 fine-scale kernel is each element's Green's function: exactly
    # 0 where x and s lie in different elements or on a node, where the
    # kernel minus the resolved part leaves rounding residue; inside an
    # element it is that difference, and the L2 surface is untouched
    mesh = _jittered_mesh(num_elements, degree)
    family = basis_family(mesh)
    bounds = mesh.boundaries
    grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), bounds)))
    other = np.unique(np.concatenate((np.random.default_rng(3).uniform(0.0, 1.0, 37), bounds)))

    def inside(x, s):
        element = [np.sum(p[:, None] > bounds, axis=1) for p in (x, s)]
        interior = [~np.isin(p, bounds) for p in (x, s)]
        return (element[0][:, None] == element[1]) & interior[0][:, None] & interior[1]

    for flavor in ProjectionFlavor:
        op = build_fine_scale_operator(KERNEL, build_dual_functionals(family, flavor))
        for x, s in ((grid, grid), (grid, other)):
            surf = fine_scale_eval(op, x, s)
            full = op.kernel(x[:, None], s[None, :])
            rep = op.lifted_tab(s)
            if flavor is ProjectionFlavor.L2:
                if x is s:
                    resolved = rep @ op.solve_gram(rep.T)
                    np.testing.assert_array_equal(surf, full - 0.5 * (resolved + resolved.T))
                else:
                    np.testing.assert_array_equal(surf, full - op.resolved(x, rep.T))
                continue
            unmasked = full - op.resolved(x, rep.T)
            mask = inside(x, s)
            assert np.all(surf[~mask] == 0.0) and np.any(unmasked[~mask] != 0.0)
            np.testing.assert_array_equal(surf[mask], unmasked[mask])
            assert np.all(surf[mask] != 0.0)


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_nodal_field_with_nonzero_ends(flavor):
    # a nodal coarse field that is not zero at 0 and 1, so not in the H10
    # space: its end values count as jumps.  The closed form against the
    # flattened oracle, and against the fine scales of u - u_bar paired
    # directly (G r = u - u_bar for the exact solution u)
    mesh = _jittered_mesh(6, 3)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, flavor)
    op = build_fine_scale_operator(KERNEL, fns)
    nodes = nodal_points(family)
    u_bar = Field(family, SpaceKind.NODAL, CASE.solution(nodes) + 0.3 + 0.5 * nodes)
    assert u_bar.coeffs[0] != 0.0 and u_bar.coeffs[-1] != 0.0
    resid = residual_from_field(u_bar, CASE.source)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), mesh.boundaries)))
    got = reconstruct_fine_scales(op, resid, x)
    assert np.max(np.abs(got - reconstruct_flat(op, resid, x))) <= 1e-12
    s, w = mesh_quadrature(family, 30)
    if flavor is ProjectionFlavor.L2:
        data = tabulate_functionals(fns, s).T @ (w * (CASE.solution(s) - field_eval(u_bar, s)))
    else:
        data = tabulate_functionals(fns, s, deriv=1).T @ (
            w * (CASE.gradient(s) - field_eval(u_bar, s, deriv=1)))
    want = CASE.solution(x) - field_eval(u_bar, x) - resolved_basis_reproduction(op, x) @ data
    assert np.max(np.abs(got - want)) <= 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=_large_meshes(min_dofs=2), amps=_AMPS)
def test_closed_form_reconstruction_on_random_meshes(mesh, amps):
    # the bounds are the worst errors of a 296-mesh sweep (N <= 12, p <= 8)
    # through the flattened residual, before the closed form; the oracle
    # itself carries the rounding floor of u_bar's third Lagrange
    # derivative, about 1e-12 at p = 8
    series = _SineSeries(amps)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), mesh.boundaries)))
    for flavor, bound in ((ProjectionFlavor.H10, 5.55e-14), (ProjectionFlavor.L2, 7.22e-13)):
        fns = build_dual_functionals(basis_family(mesh), flavor)
        op = build_fine_scale_operator(KERNEL, fns)
        if flavor is ProjectionFlavor.H10:
            u_bar = h10_project_from_source(fns, series.source)
        else:
            u_bar = project(fns, series.solution)
        resid = residual_from_field(u_bar, series.source)
        got = reconstruct_fine_scales(op, resid, x)
        assert np.max(np.abs(field_eval(u_bar, x) + got - series.solution(x))) <= bound
        assert np.max(np.abs(got - reconstruct_flat(op, resid, x))) <= 2e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mesh=_large_meshes(), amps=_AMPS)
def test_split_l2_pairs_the_source_image_and_subtracts_the_coefficients(mesh, amps):
    # split L2 pairs G f alone on the source rule and subtracts u_bar's
    # coefficients, as the functionals are biorthogonal to the edge basis.
    # On 600 such meshes that reached 1.5e-14; pairing G f - u_bar
    # tabulated on the rule instead reached 9.2e-14, and 2.6e-14 here
    series = _SineSeries(amps)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    op = build_fine_scale_operator(KERNEL, fns)
    u_bar = project(fns, series.solution)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), mesh.boundaries)))
    got = reconstruct_fine_scales(op, residual_from_field(u_bar, series.source), x)
    assert np.max(np.abs(field_eval(u_bar, x) + got - series.solution(x))) <= 2e-14


def test_edge_field_under_h10_operator_raises():
    # an edge field jumps at the nodes: its H10 projection is undefined
    family, fns, op = _setup(3, 2, ProjectionFlavor.H10)
    u_bar = project(build_dual_functionals(family, ProjectionFlavor.L2), CASE.solution)
    resid = residual_from_field(u_bar, CASE.source)
    with pytest.raises(ValueError, match="H10"):
        reconstruct_fine_scales(op, resid, np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="H10"):
        pair_naive(KERNEL, fns, resid)


def test_coarse_field_must_cover_the_kernel_domain():
    _, _, op = _setup(3, 2, ProjectionFlavor.L2)
    half = basis_family(Mesh1D.uniform(0.0, 0.5, 2, 2))
    u_bar = Field(half, SpaceKind.NODAL, np.ones(5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source),
                                np.linspace(0.0, 0.5, 11))
