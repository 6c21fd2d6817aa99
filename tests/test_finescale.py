import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fsgreens import basis1d, finescale
from fsgreens.basis1d import (Field, Mesh1D, SpaceKind, _reference_duals, basis_family, field_eval,
                              pair_basis, tabulate_edge, tabulate_nodal)
from fsgreens.dualspace import assemble_stiffness, tabulate_duals
from fsgreens.cases import advdiff_const_case, boundary_layer_breakpoints, sin2pix_case
from fsgreens.finescale import (
    SourceTerm,
    _l2_lift_sum,
    _lift,
    build_fine_scale_operator,
    fine_scale_eval,
    reconstruct_fine_scales,
    residual_from_field,
)
from fsgreens.kernels import GreensKernel1D, _poisson_cells
from fsgreens.poisson2d import Mesh2D, build_dual_functionals_2d
from fsgreens.projection import (
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    interior_field,
    mesh_quadrature,
    project,
    source_rule_points,
    tabulate_functionals,
)
from fsgreens.quadrature import composite_rule, gauss_legendre_rule
from fsgreens.vms_advdiff import (AdvDiffProblem, iterate, make_workspace,
                                  reconstruct_with_exact_gradient)

from exact_h10 import fine_kernel
from flattened_oracle import (_poisson_apply, apply_dual_green, edge_mass,
                              element_endpoint_values, element_green, field_pairing, flattened,
                              functional_load, global_h10_pair, global_h10_reconstruct,
                              global_h10_tabulate, green_and_pairing, image_reconstruct, lift_dx,
                              lift_functionals_direct, lift_table, nodal_points, pair_naive,
                              reconstruct_flat, resolved, resolved_basis_reproduction, spd_solve)

KERNEL = GreensKernel1D.poisson()
CASE = sin2pix_case()
EPS = np.finfo(float).eps


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
    ends = lift_table(fns, np.array([0.0, 1.0]))
    assert np.max(np.abs(ends)) < 1e-10


def test_lifted_h10_functionals_reproduce_duals():
    # the derivative-pairing load of a functional inverts the kernel
    # exactly, so the lifts, which are also the representers of the
    # self-adjoint kernel, are the functionals themselves: K^{-1} psi,
    # here by solves with K.  So an H10 operator tabulates no lifts
    family, fns, op = _setup(3, 2, ProjectionFlavor.H10)
    x = np.linspace(0.0, 1.0, 151)
    assert np.max(np.abs(tabulate_functionals(fns, x) - global_h10_tabulate(fns, x))) < 1e-11
    with pytest.raises(ValueError, match="H10"):
        op.lifted_tab(x)
    _, fns, op = _setup(2, 3, ProjectionFlavor.H10)
    s = np.linspace(0.05, 0.95, 21)
    assert np.max(np.abs(tabulate_functionals(fns, s) - global_h10_tabulate(fns, s))) < 1e-12


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
        lhs = -w @ (tabulate_functionals(fns, x)[:, i] * ddphi(x))
        rhs = w @ (smooth_tab(x)[:, i] * phi(x))
        rhs += sum(strengths[k, i] * phi(loc) for k, loc in enumerate(locs))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_lifted_h10_nonnegative():
    _, fns, op = _setup(2, 3, ProjectionFlavor.H10)
    x = np.linspace(0.0, 1.0, 201)
    assert np.min(tabulate_functionals(fns, x)) > -1e-12


def test_splines_match_direct_quadrature():
    for flavor in (ProjectionFlavor.H10, ProjectionFlavor.L2):
        _, fns, op = _setup(2, 3, flavor)
        x = np.linspace(0.0, 1.0, 77)
        direct = lift_functionals_direct(KERNEL, fns, x)
        assert np.max(np.abs(lift_table(fns, x) - direct)) < 1e-9


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
    assert np.max(np.abs(lift_table(fns, x) - direct)) < 1e-13


def test_domain_mismatch_rejected():
    family = basis_family(Mesh1D.uniform(0.0, 2.0, 2, 2))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_fine_scale_operator(KERNEL, fns)


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_resolved_part_rejects_points_outside_the_mesh(flavor):
    # both flavors locate a point by the basis's one rule: NaN is outside
    # too, for the L2 resolved part of one vector of data and of one column
    # per right side, and for the H10 element kernel, which has no resolved
    # part, at x and at s, in a surface and in point sources' fine scales
    _, fns, op = _setup(3, 2, flavor)
    for bad in (np.nan, -0.1, 1.1):
        x = np.array([0.5, bad])
        if flavor is ProjectionFlavor.L2:
            size = op.functionals.size
            calls = [lambda data=data: op.resolved(x, data)
                     for data in (np.ones(size), np.ones((size, 2)))]
        else:
            loads = SourceTerm(point_sources=((0.3, 1.0),))
            calls = [lambda: fine_scale_eval(op, x, np.array([0.5])),
                     lambda: fine_scale_eval(op, np.array([0.5]), x),
                     lambda: reconstruct_fine_scales(op, loads, x)]
        for call in calls:
            with pytest.raises(ValueError, match="outside"):
                call()
    if flavor is ProjectionFlavor.H10:
        with pytest.raises(ValueError, match="no resolved part"):
            op.resolved(np.array([0.5]), np.ones(op.functionals.size))


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_source_paths_reject_a_nan_breakpoint(flavor):
    # NaN is no kink location: both flavors' reconstructions and the H10
    # projection from a source raise, whichever of the source rule and the
    # Green's primitive reads the breakpoint first
    _, fns, op = _setup(3, 2, flavor)
    for breakpoints in ((np.nan,), (0.5, np.nan)):
        with pytest.raises(ValueError):
            reconstruct_fine_scales(op, SourceTerm(CASE.source, breakpoints), np.linspace(0, 1, 9))
        if flavor is ProjectionFlavor.H10:
            with pytest.raises(ValueError):
                h10_project_from_source(fns, CASE.source, breakpoints=breakpoints)


@pytest.mark.parametrize("x,cuts,points", [
    (np.array([0.0, 0.25, 0.5, 0.7, 1.0]), [0.25, 0.5], 20),
    (np.linspace(0.0, 1.0, 301)[::-1], np.linspace(0.0, 1.0, 7), 9),
], ids=["on-cuts", "blocks"])
def test_poisson_primitive_tabulates_its_cells_once(x, cuts, points):
    # the density sees, in one call, the 2q-point rule of each cell
    # between 0, 1 and the cuts, from the cell's left end, each rule point
    # once: the output points cut no cell (cut at every point, the former
    # primitive read 5 cells of 20 points and 306 of 9)
    calls = []

    def density(s):
        calls.append(s)
        return np.ones_like(s)

    got = _poisson_cells(density, cuts, points)(x)
    ends = np.unique(np.concatenate(([0.0, 1.0], cuts)))
    tau = 0.5 * (1.0 + gauss_legendre_rule(2 * points).nodes)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0],
                                  (ends[:-1, None] + np.diff(ends)[:, None] * tau).ravel())
    assert np.max(np.abs(got - 0.5 * x * (1.0 - x))) < 1e-16


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
def test_reconstruction_reads_its_source_independently_of_the_grid(flavor):
    # one tabulation of the source, 2q = 40 points on each of the 20
    # elements, at 401 and at 4,001 grid points alike: no rule is cut at an
    # output point (cut at every one, H10 read 8,480 and 80,480 points)
    _, fns, op = _setup(20, 4, flavor)
    u_bar = h10_project_from_source(fns, CASE.source) if flavor is ProjectionFlavor.H10 \
        else project(fns, CASE.solution)
    for points in (401, 4001):
        sizes = []

        def source(x):
            sizes.append(np.size(x))
            return CASE.source(x)

        reconstruct_fine_scales(op, residual_from_field(u_bar, source), np.linspace(0, 1, points))
        assert sum(sizes) == 800 == 2 * op.quad_points * 20


@pytest.mark.parametrize("deriv", [0, 1])
def test_poisson_primitive_points_in_any_order(deriv):
    # unsorted, repeated and on-cut points: the values of the sorted
    # distinct points, and each point's value alone up to rounding; the
    # library's cell route, and the oracle's x-derivative
    density = lambda s: np.abs(s - 0.3) + np.sin(3.0 * s)
    cuts = [0.3, 0.5]
    if deriv:
        apply = lambda xs: _poisson_apply(density, xs, cuts, 20, deriv)
    else:
        apply = lambda xs: _poisson_cells(density, cuts, 20)(xs)[:, None]
    xs = np.array([0.9, 0.5, 0.2, 0.9, 0.0, 0.5, 1.0, 0.35, 0.3])
    got = apply(xs)[:, 0]
    uniq, inverse = np.unique(xs, return_inverse=True)
    assert np.array_equal(got, apply(uniq)[inverse, 0])
    alone = np.array([apply([xv])[0, 0] for xv in xs])
    assert np.max(np.abs(got - alone)) < 1e-15 * np.max(np.abs(got))


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
    # the Gram, formed as the functionals' table at the interior GLL nodes,
    # against two other routes to K^{-1}: the pairings of the functionals'
    # derivatives on the exact (p + 1)-point rule, and the dense inverse of
    # the assembled interior stiffness
    for mesh in _gram_meshes(3):
        fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
        op = build_fine_scale_operator(KERNEL, fns)
        s, w = mesh_quadrature(fns.family, mesh.degree + 1)
        tab = tabulate_functionals(fns, s, deriv=1)
        assert np.max(np.abs(op.gram - tab.T @ (w[:, None] * tab))) < 1e-11
        assert np.max(np.abs(op.gram - np.linalg.inv(assemble_stiffness(fns.family)))) \
            < 1e-11


def test_a_cholesky_factor_is_formed_only_where_a_solve_reads_it(monkeypatch):
    # every solve is np.linalg.solve, so a Cholesky factor is formed only
    # where it is read: the 2D duals reduce their eigenproblem through the
    # factor of the 1D mass and the sweep's step norm is a norm of the nodal
    # mass's factor.  The H10 Gram is the functionals' table at the interior
    # GLL nodes, with no factor, and the H10 build takes gram_cond from K's
    # eigenvalues
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    def count(stage):
        calls.clear()
        stage()
        return len(calls)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2)), ProjectionFlavor.H10)
    assert count(lambda: build_fine_scale_operator(KERNEL, fns).gram_cond) == 0
    assert count(lambda: build_dual_functionals_2d(Mesh2D(Mesh1D.uniform(0.0, 1.0, 4, 3)))) == 1
    op = build_fine_scale_operator(KERNEL, fns)
    problem = AdvDiffProblem(1.0, 0.05, lambda x: np.ones_like(x))
    assert count(lambda: make_workspace(problem, fns, op)) == 1
    assert count(lambda: op.gram) == 0


@pytest.mark.parametrize("flavor", list(ProjectionFlavor))
@pytest.mark.parametrize("defect", ["negated", "singular"])
def test_build_rejects_a_gram_that_is_not_positive_definite(monkeypatch, flavor, defect):
    # the build's condition check is the guard of the SPD solves: a negated
    # L2 Gram or stiffness K has the extreme eigenvalue magnitudes of the
    # true one, and a singular one a zero eigenvalue; both read as inf
    def broken(matrix):
        if defect == "negated":
            return -matrix
        low = np.linalg.eigh(matrix)[1][:, 0]
        return matrix - np.linalg.eigvalsh(matrix)[0] * np.outer(low, low)

    name = "_l2_gram" if flavor is ProjectionFlavor.L2 else "assemble_stiffness"
    real = getattr(finescale, name)
    monkeypatch.setattr(finescale, name, lambda arg: broken(real(arg)))
    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3)), flavor)
    with pytest.raises(ValueError, match="singular dual Gram"):
        build_fine_scale_operator(KERNEL, fns)


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


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
@pytest.mark.parametrize("degree", [2, 4])
def test_build_rejects_a_source_rule_below_the_degree(flavor, degree):
    # the build resolves its rule as every source integral does
    # (`source_rule_points`): p points at least, the degree's default without one
    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 3, degree)), flavor)
    with pytest.raises(ValueError, match=f"at least p = {degree} points"):
        build_fine_scale_operator(KERNEL, fns, degree - 1)
    assert build_fine_scale_operator(KERNEL, fns, degree).quad_points == degree
    assert build_fine_scale_operator(KERNEL, fns).quad_points == 20


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


@pytest.mark.parametrize("gap,singular", [(1e-6, True), (1e-3, False)])
def test_l2_build_rejects_a_numerically_singular_gram(gap, singular):
    # a sliver element of width gap at p = 4: the Gram's log10 condition
    # number is 18.3 at 1e-6, past the 1e14 guard, and 9.97 at 1e-3.  The
    # CLI cannot reach the guard, as it builds uniform meshes only
    mesh = Mesh1D(0.0, 1.0, 3, 4, np.array([0.0, 0.5, 0.5 + gap, 1.0]))
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    if singular:
        with pytest.raises(ValueError, match="singular dual Gram"):
            build_fine_scale_operator(KERNEL, fns)
    else:
        assert np.log10(build_fine_scale_operator(KERNEL, fns).gram_cond) < 10.0


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
    # the Gram and the one Gram-sized temporary of its closed form (the
    # outer product's upper triangle): 2.14 Gram sizes measured at N = 320,
    # p = 4, against 9.8 when the lifts went through dense (points x N p)
    # dual tables.  tracemalloc does not see the LAPACK workspaces of
    # np.linalg, so the check's and the solve's copies are not counted
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
    got = apply_dual_green(KERNEL, fns, SourceTerm(nu))
    x, w = mesh_quadrature(family)
    expected = tabulate_functionals(fns, x).T @ (w * nu(x))
    assert np.max(np.abs(got - expected)) < 1e-8


def test_apply_dual_green_zero_residual():
    _, fns, _ = _setup(2, 2, ProjectionFlavor.H10)
    zero = SourceTerm(lambda s: np.zeros_like(s))
    assert np.max(np.abs(apply_dual_green(KERNEL, fns, zero))) == 0.0


@pytest.mark.parametrize("coarse", [False, True])
def test_l2_apply_dual_green_defaults_to_the_degree_rule(coarse):
    # with no quad_points the L2 pairing of G f, and G u_bar, use the
    # degree's default source rule
    family, fns, _ = _setup(3, 4, ProjectionFlavor.L2)
    src = SourceTerm(CASE.source, (0.3,))
    if coarse:
        src = replace(src, coarse=h10_project_from_source(
            build_dual_functionals(family, ProjectionFlavor.H10), CASE.source))
    got = apply_dual_green(KERNEL, fns, src)
    want = apply_dual_green(KERNEL, fns, src, quad_points=source_rule_points(4))
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
            coeffs = project(fns, column, breakpoints=[s]).coeffs[1:-1]
        assert np.max(np.abs(coeffs)) < 1e-7


def test_symmetric_kernel_for_l2_flavor():
    _, fns, op = _setup(2, 2, ProjectionFlavor.L2)
    pts = np.linspace(0.07, 0.93, 9)
    surf = fine_scale_eval(op, pts, pts)
    assert np.max(np.abs(surf - surf.T)) < 1e-9


@pytest.mark.parametrize("flavor", list(ProjectionFlavor))
@pytest.mark.parametrize("num_elements,degree", [(2, 2), (5, 3)])
def test_kernel_surface_on_one_grid_is_exactly_symmetric(flavor, num_elements, degree):
    # x = s: the surface is symmetrized as the kernel is, bit for bit under
    # both flavors; unsymmetrized, the H10 surface was 5.6e-17 off at the
    # CLI's default N = 2, p = 2 and 1.1e-16 at N = 5, p = 3
    _, _, op = _setup(num_elements, degree, flavor)
    x = np.linspace(0.0, 1.0, 41)
    surf = fine_scale_eval(op, x, x)
    np.testing.assert_array_equal(surf, surf.T)


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
    zero = SourceTerm(lambda s: np.zeros_like(s))
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
        coeffs = project(fns, lambda q: reconstruct_fine_scales(op, resid, q)).coeffs[1:-1]
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
        up = reconstruct_fine_scales(op, SourceTerm(nu), grid)
        coeffs = project(
            fns, lambda q: reconstruct_fine_scales(op, SourceTerm(nu), q)).coeffs[1:-1]
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
    mass = edge_mass(family)
    # derivatives of order p or more vanish: their tables are rounding noise
    for deriv in range(min(mesh.degree, 3)):
        want = spd_solve(mass, tabulate_edge(family, x, deriv=deriv).T).T
        assert _rel_err(tabulate_duals(duals, x, deriv=deriv), want) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_mesh_cases())
def test_element_local_l2_lifts_match_dense_primitive(case):
    mesh, x = case
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    mass = edge_mass(family)
    dense = lambda s: spd_solve(mass, tabulate_edge(family, s).T).T
    for deriv in (0, 1):
        want = _poisson_apply(dense, x, mesh.boundaries, 20, deriv)
        assert _rel_err((_lift, lift_dx)[deriv](fns, x), want) < 1e-12
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
# and at high degree, where the lifts' bubble series has 12 and 16 terms
@example(mesh=Mesh1D(0.0, 1.0, 3, 12, np.array([0.0, 0.3, 0.72, 1.0])))
@example(mesh=Mesh1D(0.0, 1.0, 2, 16, np.array([0.0, 0.56, 1.0])))
def test_l2_lifts_on_the_exact_rule_match_direct_quadrature(mesh):
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.L2)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), mesh.boundaries,
                                  0.5 * (mesh.boundaries[1:] + mesh.boundaries[:-1]))))
    for deriv in (0, 1):
        direct = lift_functionals_direct(KERNEL, fns, x, deriv=deriv)
        assert _rel_err((_lift, lift_dx)[deriv](fns, x), direct) <= 5e-14


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
        assert _rel_err((_lift, lift_dx)[deriv](fns, x), direct) <= bound
    rule = gauss_legendre_rule(mesh.degree + 1)
    jac = 0.5 * np.diff(bounds)[:, None]
    s = bounds[:-1, None] + jac * (1.0 + rule.nodes)
    duals = _reference_duals(fns.family, rule.nodes)
    for got, weight in zip(fns.duals.moments, (s, 1.0 - s)):
        assert _rel_err(got, jac * ((rule.weights * weight) @ duals)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(mesh=_large_meshes(min_dofs=2), amps=_AMPS)
def test_h10_pair_then_solve_matches_table_first(mesh, amps):
    # the former K route (`global_h10_pair`) pairs the interior nodal basis
    # and solves once; its table-first formula pushes every representer
    # through the stiffness.  The dual application (the image route of the
    # oracle) reads the source's Green's image at the vertices and its
    # loads, with no K; its table-first formula sums the lifts (each the
    # projection of one kernel column) against the source.  Against the K
    # tables it is up to 3e-13 (relative) off on this draw, their cond(K)
    # eps.  The image route's resolved part gathers the interior nodal
    # basis element by element against its dense table
    series = _SineSeries(amps)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    src = SourceTerm(smooth=series.source, breakpoints=(0.3,),
                     point_sources=((0.4, 0.7), (mesh.boundaries[-1], -0.2)))
    s, w = mesh_quadrature(fns.family, op.quad_points, src.breakpoints)
    locs, qs = np.array(src.point_sources).T
    want = global_h10_tabulate(fns, s).T @ (w * series.source(s))
    want += global_h10_tabulate(fns, locs).T @ qs
    paired = global_h10_pair(fns, np.r_[s, locs], np.r_[w * series.source(s), qs])
    assert _rel_err(paired, want) <= 1e-13
    want = tabulate_functionals(fns, s).T @ (w * series.source(s))
    want += tabulate_functionals(fns, locs).T @ qs
    got = apply_dual_green(KERNEL, fns, src, quad_points=op.quad_points)
    assert _rel_err(got, want) <= 1e-13
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 41), mesh.boundaries)))
    want = tabulate_nodal(fns.family, x)[:, 1:-1] @ got
    assert _rel_err(resolved(op, x, got), want) <= 1e-13


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
    size = op.functionals.size
    for y in (rng.normal(size=size), rng.normal(size=(size, 41))):
        want = table @ y
        got = _l2_lift_sum(fns, x, y)
        assert got.shape == want.shape
        assert _rel_err(got, want) <= 1e-14
    s, w = mesh_quadrature(fns.family)
    data = pair_basis(fns.family, SpaceKind.DUAL_NODAL, s, w * np.exp(s) * np.sin(3.0 * s))
    assert _rel_err(op.resolved(x, data), table @ op.solve_gram(data)) <= 1e-14


def _dense_l2_surface(op, x, s):
    """The L2 fine-scale kernel from dense lift tables at x and at s and a
    Cholesky solve of the Gram: g - L(x) Gram^{-1} L(s)^T."""
    fns = op.functionals
    resolved_part = lift_table(fns, x) @ spd_solve(op.gram, lift_table(fns, s).T)
    return op.kernel(x[:, None], s[None, :]) - resolved_part


@pytest.mark.parametrize("num_elements", [2, 20])
def test_l2_kernel_surface_lifts_the_grid_once(num_elements):
    # x = s: the surface is the kernel less the resolved part of one column
    # per s, the lifts tabulated at s alone (`resolved` sums them at x by
    # prefix and suffix sums of the dual moments), symmetric like the
    # kernel, and within rounding of the dense L(x) Gram^{-1} L(x)^T
    op = build_fine_scale_operator(KERNEL, build_dual_functionals(
        basis_family(_jittered_mesh(num_elements, 4)), ProjectionFlavor.L2))
    x = np.linspace(0.0, 1.0, 41)
    calls = []
    lifted_tab = op.lifted_tab
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(op), "lifted_tab", lambda self, pts: calls.append(pts) or lifted_tab(pts))
        surf = fine_scale_eval(op, x, x)
    assert len(calls) == 1
    want = _dense_l2_surface(op, x, x)
    assert np.max(np.abs(surf - 0.5 * (want + want.T))) <= 1e-14
    np.testing.assert_array_equal(surf, surf.T)


@pytest.mark.parametrize("num_elements,degree", [(2, 2), (20, 4), (5, 8), (3, 12), (2, 16)])
def test_h10_kernel_surface_is_exactly_zero_off_its_elements(num_elements, degree):
    # the H10 fine-scale kernel is each element's Green's function: exactly
    # 0 where x and s lie in different elements or on a node, and inside an
    # element within 2 eps h_e of g_e - sum_{j<p} b_j(x) b_j(s) / |b_j|^2
    # in exact arithmetic (at most 0.47 eps h_e on these meshes; the kernel
    # less the resolved part was 9.0 eps h_e off at N = 20, and the bubble
    # projection by a solve on the interior Lagrange functions 2.77 and
    # 3.55 eps h_e off at p = 12 and 16).  The L2
    # surface is the kernel less the resolved part, symmetrized when x is s
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
            if flavor is ProjectionFlavor.H10:
                mask = inside(x, s)
                assert np.all(surf[~mask] == 0.0) and np.all(surf[mask] != 0.0)
                for i, j in zip(*np.nonzero(mask)):
                    e = np.searchsorted(bounds, x[i]) - 1
                    a, b = bounds[e], bounds[e + 1]
                    want = fine_kernel(a, b, degree, x[i], s[j])
                    assert abs(Fraction(surf[i, j]) - want) <= 2.0 * EPS * (b - a)
                continue
            # the surface, the kernel less the resolved part of one column
            # per s, against the dense L(x) Gram^{-1} L(s)^T from the lift
            # tables, to the rounding of the kernel it cancels
            full = op.kernel(x[:, None], s[None, :])
            want = _dense_l2_surface(op, x, s)
            if x is s:
                np.testing.assert_array_equal(surf, surf.T)
                want = 0.5 * (want + want.T)
            assert np.max(np.abs(surf - want)) <= 1e-14 * np.max(np.abs(full))


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
    if flavor is ProjectionFlavor.H10:
        # u_bar - I u_bar lies in the bubbles: u' is the field-free one less
        # the line l through u_bar's end values, bit for bit, where the
        # former route, G r less its projection, was 7.8e-16 off
        free = reconstruct_fine_scales(op, SourceTerm(CASE.source), x)
        line = np.interp(x, [0.0, 1.0], u_bar.coeffs[[0, -1]])
        np.testing.assert_array_equal(got, free - line)


def test_h10_fine_scales_on_elements_split_by_kinks():
    # a source with kinks inside two elements: there u' is G_e f less its
    # bubble projection, elsewhere the bubble tail, exactly zero at every
    # vertex and matching the flattened oracle and the route through K
    mesh = _jittered_mesh(6, 3)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    kinks = (0.37, 0.81)
    source = lambda s: np.abs(s - 0.37) * np.sin(5.0 * s) + np.maximum(s - 0.81, 0.0)
    assert not np.isin(kinks, mesh.boundaries).any()
    u_bar = h10_project_from_source(fns, source, breakpoints=kinks)
    resid = SourceTerm(source, kinks, coarse=u_bar)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), mesh.boundaries, kinks)))
    got = reconstruct_fine_scales(op, resid, x)
    assert np.all(got[np.isin(x, mesh.boundaries)] == 0.0)
    assert np.max(np.abs(got - reconstruct_flat(op, resid, x))) <= 1e-14
    assert np.max(np.abs(got - global_h10_reconstruct(op, resid, x))) <= 1e-14


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


@pytest.mark.parametrize("flavor", [ProjectionFlavor.H10, ProjectionFlavor.L2])
@pytest.mark.parametrize("degree, field_degree, exact", [(2, 6, True), (4, 1, False)])
def test_a_foreign_coarse_field_is_paired_on_its_exact_rule(flavor, degree, field_degree, exact):
    # a nodal field on a mesh that is not nested in the operator's is paired
    # on (p + q) // 2 + 1 Gauss points per cell of both meshes, q its degree,
    # whatever the operator's own rule: at p = 2 and q = 6 the oracle's 5
    # points bit for bit, with the operator built on the 2 points it allows
    # (on those, this field's L2 pairing was 0.099 off and its H10 one 3.5);
    # at p = 4 and q = 1 the source rule's floor of p points against the
    # oracle's 3, 1.4e-15 relative in the pairing
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 4, degree))
    fns = build_dual_functionals(family, flavor)
    op = build_fine_scale_operator(KERNEL, fns, quad_points=degree)
    with pytest.raises(ValueError, match="at least p"):
        build_fine_scale_operator(KERNEL, fns, quad_points=degree - 1)
    bounds = np.array([0.0, 0.3, 0.71, 1.0])
    foreign = basis_family(Mesh1D(0.0, 1.0, 3, field_degree, bounds))
    rng = np.random.default_rng(field_degree)
    fld = Field(foreign, SpaceKind.NODAL, rng.standard_normal(foreign.mesh.num_nodal_dofs))
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 101), bounds)))
    got = reconstruct_fine_scales(op, SourceTerm(coarse=fld), x)
    pairing = field_pairing(fns, fld)
    if flavor is ProjectionFlavor.L2:
        want = -field_eval(fld, x) - op.resolved(x, -pairing)
    else:
        want = -(field_eval(fld, x) - field_eval(interior_field(family, pairing), x))
    if exact:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_coarse_field_must_cover_the_kernel_domain():
    _, _, op = _setup(3, 2, ProjectionFlavor.L2)
    half = basis_family(Mesh1D.uniform(0.0, 0.5, 2, 2))
    u_bar = Field(half, SpaceKind.NODAL, np.ones(5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source),
                                np.linspace(0.0, 0.5, 11))


@pytest.mark.parametrize("entry", ["operator", "coarse field", "2D mesh"])
def test_every_entry_point_rejects_a_mesh_past_one(entry):
    # the one cover check: a mesh ending 1e-9 past 1 is not the kernels' [0, 1]
    long = Mesh1D.uniform(0.0, 1.0 + 1e-9, 3, 2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        if entry == "operator":
            build_fine_scale_operator(KERNEL, build_dual_functionals(basis_family(long),
                                                                     ProjectionFlavor.L2))
        elif entry == "coarse field":
            _, _, op = _setup(3, 2, ProjectionFlavor.L2)
            u_bar = Field(basis_family(long), SpaceKind.NODAL, np.zeros(7))
            reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source),
                                    np.linspace(0.0, 1.0, 11))
        else:
            Mesh2D(long)


@pytest.mark.parametrize("end", [1.0 - 1e-15, 1.0 + 1e-15])
def test_h10_source_paths_run_on_a_mesh_ending_within_rounding_of_one(end):
    # the cover check accepts a mesh ending 1e-15 from 1.  Its last vertex
    # reads G f where the Green's cells end, at 1 (an index past the cells
    # raised IndexError at 1 + 1e-15), so the H10 projection from a source,
    # the fine scales and the coupled iteration match the unit mesh's
    problem = AdvDiffProblem(1.0, 0.05, advdiff_const_case(1.0, 0.05).source)
    x = np.linspace(0.0, 1.0, 41)
    runs = []
    for b in (1.0, end):
        mesh = Mesh1D(0.0, b, 4, 3, np.linspace(0.0, b, 5))
        fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
        op = build_fine_scale_operator(KERNEL, fns)
        u_bar = h10_project_from_source(fns, CASE.source)
        fine = reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), x)
        state = iterate(problem, fns, op)
        assert state.converged
        runs.append((u_bar.coeffs, fine, state.u_bar.coeffs, state.u_prime))
    for got, want in zip(*runs):
        assert np.max(np.abs(got - want)) <= 1e-12


# ---------------------------------------------------------------------------
# no 1D H10 path solves with the global stiffness


def test_h10_projections_and_reconstructions_solve_no_global_stiffness(monkeypatch):
    # with the stiffness K raising once the operator is built (its build
    # reads K's eigenvalues for gram_cond), under every name any fsgreens
    # module holds it by, each H10 call, the Gram K^{-1} too, gives the
    # bytes it gives with K intact, and only gram_cond reaches K
    family = basis_family(_jittered_mesh(6, 3))
    other = basis_family(Mesh1D.uniform(0.0, 1.0, 4, 2))
    case = advdiff_const_case(1.0, 0.1)
    problem = AdvDiffProblem(1.0, 0.1, case.source)
    layer = boundary_layer_breakpoints(1.0, 0.1)
    grid = np.linspace(0.0, 1.0, 57)

    def build():
        fns = build_dual_functionals(family, ProjectionFlavor.H10)
        return fns, build_fine_scale_operator(KERNEL, fns)

    def run(fns, op):
        u_bar = h10_project_from_source(fns, CASE.source)
        with_grad = project(fns, case.solution, case.gradient, breakpoints=layer)
        other_field = h10_project_from_source(
            build_dual_functionals(other, ProjectionFlavor.H10), CASE.source)
        points = SourceTerm(point_sources=((0.3, 1.0), (0.55, -0.4), (1.0 / 6.0, 0.2)))
        state = iterate(problem, fns, op, max_iter=40)
        return [u_bar.coeffs, project(fns, CASE.solution).coeffs,
                project(fns, CASE.solution, CASE.gradient).coeffs, with_grad.coeffs,
                reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), grid),
                reconstruct_fine_scales(op, points, grid),
                reconstruct_fine_scales(op, residual_from_field(other_field, CASE.source),
                                        grid),
                reconstruct_with_exact_gradient(op, problem, with_grad, case.gradient, grid,
                                                layer),
                fine_scale_eval(op, grid, grid),
                *(tabulate_functionals(fns, grid, deriv) for deriv in range(3)),
                make_workspace(problem, fns, op).sweep,
                state.u_bar.coeffs, state.fine_values]

    want = run(*build())
    want_gram = build()[1].gram
    fns, op = build()

    def no_stiffness(family):
        raise AssertionError("the global stiffness K")

    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("fsgreens") and \
                getattr(module, "assemble_stiffness", None) is assemble_stiffness:
            monkeypatch.setattr(module, "assemble_stiffness", no_stiffness)
            patched.append(name)
    assert {"fsgreens.dualspace", "fsgreens.finescale"} <= set(patched)
    got = run(fns, op)
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)
    assert "gram" not in vars(op)
    np.testing.assert_array_equal(op.gram, want_gram)
    with pytest.raises(AssertionError, match="global stiffness"):
        build_fine_scale_operator(KERNEL, fns)


@pytest.mark.parametrize("flavor,gram", [(ProjectionFlavor.H10, "nodal_stiffness"),
                                         (ProjectionFlavor.L2, "edge_mass")])
def test_a_family_forms_each_reference_gram_once(monkeypatch, flavor, gram):
    # a projection, an operator build and a reconstruction of a coarse field
    # plus its residual read one reference Gram, formed once by the family:
    # H10 its stiffness in every element-local projection (`_h10_local`),
    # the build's condition number included, L2 its edge mass in every
    # dual tabulation
    calls = []
    form = basis1d._reference_gram

    def counting(family, ref_tab, deriv):
        calls.append((ref_tab.__name__, deriv))
        return form(family, ref_tab, deriv)

    monkeypatch.setattr(basis1d, "_reference_gram", counting)
    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3)), flavor)
    u_bar = project(fns, CASE.solution, CASE.gradient)
    op = build_fine_scale_operator(KERNEL, fns)
    grid = np.linspace(0.0, 1.0, 41)
    for _ in range(2):
        reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), grid)
        reconstruct_fine_scales(op, SourceTerm(CASE.source, (0.3,), ((0.6, 2.0),)), grid)
    h10 = flavor is ProjectionFlavor.H10
    assert calls == [("lagrange_tab", 1) if h10 else ("_reference_edge_tab", 0)]
    assert gram in vars(fns.family)


@pytest.mark.parametrize("num_elements,degree,jitter,breakpoints",
                         [(3, 2, False, ()), (5, 3, True, (0.37, 0.81)), (20, 4, True, ())])
def test_h10_reconstruction_pairs_a_source_by_the_source_shortcut(num_elements, degree, jitter,
                                                                  breakpoints):
    # the oracle's image route, G r less its H10 projection (the former
    # library route), pairs a smooth source's Green's image bitwise as
    # `h10_project_from_source` does, from the one tabulation that also
    # gives the image on the grid, so its resolved part is u_bar's own
    # table.  The element-local fine scales of point loads plus u_bar, or
    # plus a field of another family, match that route to its rounding of
    # |G r| (at most 1.1e-15 here, with max |u| = 1)
    mesh = _jittered_mesh(num_elements, degree) if jitter \
        else Mesh1D.uniform(0.0, 1.0, num_elements, degree)
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    op = build_fine_scale_operator(KERNEL, fns)
    grid = np.linspace(0.0, 1.0, 101)
    _, data = green_and_pairing(fns, SourceTerm(CASE.source, breakpoints), grid,
                                op.quad_points)
    u_bar = h10_project_from_source(fns, CASE.source, op.quad_points, breakpoints)
    np.testing.assert_array_equal(data, u_bar.coeffs[1:-1])
    np.testing.assert_array_equal(resolved(op, grid, data), field_eval(u_bar, grid))
    other = h10_project_from_source(build_dual_functionals(
        basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2)), ProjectionFlavor.H10), CASE.source)
    src = SourceTerm(CASE.source, breakpoints, ((0.45, 0.7), (0.3, -0.2)), u_bar)
    for resid in (src, replace(src, coarse=other)):
        got = reconstruct_fine_scales(op, resid, grid)
        assert np.max(np.abs(got - image_reconstruct(op, resid, grid))) <= 2e-15


@pytest.mark.parametrize("num_elements", [6, 20, 320])
def test_h10_point_sources_leave_other_elements_exactly_zero(num_elements):
    # a point source's H10 fine scales are g_e less its bubble projection
    # on the source's element: exactly 0 at every vertex and in every
    # element that holds no source, where G r less its projection wrote
    # 5.6e-17 to 1.1e-16, and inside within 2 eps h_e sum |q| of the exact
    # kernel
    mesh = _jittered_mesh(num_elements, 4)
    bounds = mesh.boundaries
    op = build_fine_scale_operator(KERNEL, build_dual_functionals(basis_family(mesh),
                                                                  ProjectionFlavor.H10))
    locs, qs = np.array([0.3, 0.55, 1.0 / 6.0, bounds[1]]), np.array([1.0, -0.4, 0.2, 0.5])
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 401), bounds)))
    got = reconstruct_fine_scales(op, SourceTerm(point_sources=tuple(zip(locs, qs))), x)
    elem = [np.searchsorted(bounds, p) - 1 for p in (x, locs)]
    held = np.isin(elem[0], elem[1][~np.isin(locs, bounds)]) & ~np.isin(x, bounds)
    assert np.all(got[~held] == 0.0) and np.all(got[held] != 0.0)
    for i in np.flatnonzero(held):
        a, b = bounds[elem[0][i]], bounds[elem[0][i] + 1]
        want = sum(q * fine_kernel(a, b, 4, x[i], s) for s, q in zip(locs, qs) if a < s < b)
        assert abs(Fraction(got[i]) - want) <= 2.0 * EPS * (b - a) * np.sum(np.abs(qs))


def _scalar_source_entries():
    """The nine entry points that read a source, each as run(make), make(c)
    giving a source of the value c and run its output as one array."""
    from fsgreens.poisson2d import (build_series_operator_2d, project_2d,
                                    reconstruct_fine_scales_2d)
    from fsgreens.vms_advdiff import galerkin_solve

    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    l2 = build_dual_functionals(family, ProjectionFlavor.L2)
    h10 = build_dual_functionals(family, ProjectionFlavor.H10)
    op_l2, op_h10 = (build_fine_scale_operator(KERNEL, fns) for fns in (l2, h10))
    d2 = build_dual_functionals_2d(Mesh2D(Mesh1D.uniform(0.0, 1.0, 2, 2)))
    op_2d = build_series_operator_2d(d2, num_terms=8, quad_points=4)
    grid = np.linspace(0.0, 1.0, 9)
    in_2d = lambda make: lambda x, y: make(1.0)(x * y)
    return {
        "project-l2": lambda make: project(l2, make(1.0)).coeffs,
        # H10 needs zero end values: f is 0, and the loads come from f' = 1
        "project-h10": lambda make: project(h10, make(0.0), make(1.0)).coeffs,
        "h10-project-from-source": lambda make: h10_project_from_source(h10, make(1.0)).coeffs,
        "reconstruct-h10": lambda make: reconstruct_fine_scales(
            op_h10, SourceTerm(smooth=make(1.0)), grid),
        "reconstruct-l2": lambda make: reconstruct_fine_scales(
            op_l2, SourceTerm(smooth=make(1.0)), grid),
        "galerkin-solve": lambda make: galerkin_solve(
            AdvDiffProblem(1.0, 0.1, make(1.0)), family).coeffs,
        "iterate": lambda make: iterate(AdvDiffProblem(1.0, 0.1, make(1.0)), h10, op_h10,
                                        max_iter=40, fine_grid_points=9).fine_values,
        "project-2d": lambda make: project_2d(d2, source=in_2d(make), quad_points=4).coeffs,
        "reconstruct-2d": lambda make: reconstruct_fine_scales_2d(op_2d, in_2d(make), grid, grid),
    }


@pytest.mark.parametrize("entry", list(_scalar_source_entries()))
def test_a_scalar_source_is_its_value_at_every_point(entry):
    # a source may return one number for all its points: every entry point
    # that reads a source gives the bytes of the same value at every point
    run = _scalar_source_entries()[entry]
    got = run(lambda c: lambda x: c)
    want = run(lambda c: lambda x: np.full_like(x, c))
    assert np.any(want != 0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
