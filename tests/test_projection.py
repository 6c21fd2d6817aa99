import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import (
    Field,
    Mesh1D,
    SpaceKind,
    basis_family,
    field_eval,
    tabulate_edge,
    tabulate_nodal,
)
from fsgreens.cases import sin2pix_case
from fsgreens.projection import (
    ProjectionFlavor,
    assemble_stiffness,
    build_dual_functionals,
    h10_project_from_source,
    h10_project_values,
    mesh_quadrature,
    pair_functionals,
    project,
    tabulate_functionals,
)
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import nodal_deriv_jumps

CASE = sin2pix_case()


@pytest.fixture(params=[(2, 1), (3, 2), (2, 3), (5, 2)],
                ids=lambda t: f"N{t[0]}p{t[1]}")
def family(request):
    n, p = request.param
    return basis_family(Mesh1D.uniform(0.0, 1.0, n, p))


def test_stiffness_hand_value():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 2, 1))
    stiff = assemble_stiffness(family)
    assert np.allclose(stiff.entries, [[4.0]], atol=1e-13)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    x = np.array([0.25, 0.5])
    tab = tabulate_functionals(fns, x)
    assert tab[1, 0] == pytest.approx(0.25, abs=1e-14)
    assert tab[0, 0] == pytest.approx(0.125, abs=1e-14)


def test_h10_functionals_biorthogonal(family):
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    x, w = mesh_quadrature(family, 14)
    dtab = tabulate_functionals(fns, x, deriv=1)
    basis_dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    gram = dtab.T @ (w[:, None] * basis_dtab)
    assert np.max(np.abs(gram - np.eye(fns.size))) < 1e-10


def test_l2_functionals_biorthogonal(family):
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    x, w = mesh_quadrature(family, 14)
    tab = tabulate_functionals(fns, x)
    gram = tab.T @ (w[:, None] * tabulate_edge(family, x))
    assert np.max(np.abs(gram - np.eye(fns.size))) < 1e-10


def test_h10_functionals_vanish_at_boundary_and_positive(family):
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    ends = tabulate_functionals(fns, np.array([0.0, 1.0]))
    assert np.max(np.abs(ends)) < 1e-14
    interior = tabulate_functionals(fns, np.linspace(0.01, 0.99, 101))
    assert np.min(interior) > 0.0


def test_l2_build_matches_dual_nodal_exactly(family):
    from fsgreens.dualspace import DualSet, tabulate_duals

    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    duals = DualSet(family, SpaceKind.DUAL_NODAL)
    x = np.linspace(0.0, 1.0, 37)
    assert np.array_equal(tabulate_functionals(fns, x), tabulate_duals(duals, x))


@pytest.mark.parametrize("flavor", [ProjectionFlavor.L2, ProjectionFlavor.H10])
def test_projector_idempotent_on_target_space(family, flavor):
    fns = build_dual_functionals(family, flavor)
    rng = np.random.default_rng(17)
    if flavor is ProjectionFlavor.L2:
        coeffs = rng.normal(size=family.mesh.num_edge_dofs)
        fld = Field(family, SpaceKind.EDGE, coeffs)
        out = project(fns, lambda x: field_eval(fld, x))
        assert np.max(np.abs(out.coeffs - coeffs)) < 1e-9
    else:
        coeffs = np.zeros(family.mesh.num_nodal_dofs)
        coeffs[1:-1] = rng.normal(size=family.mesh.num_nodal_dofs - 2)
        fld = Field(family, SpaceKind.NODAL, coeffs)
        out = project(fns, lambda x: field_eval(fld, x),
                      lambda x: field_eval(fld, x, deriv=1))
        assert np.max(np.abs(out.coeffs - coeffs)) < 1e-9


def test_l2_residual_orthogonal_to_edge_space():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 5, 2))
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    fld = project(fns, CASE.solution)
    x, w = mesh_quadrature(family, 20)
    resid = CASE.solution(x) - field_eval(fld, x)
    orth = tabulate_edge(family, x).T @ (w * resid)
    assert np.max(np.abs(orth)) < 1e-9


def test_h10_matches_galerkin_nodal_exactness():
    # the derivative-pairing projection of the diffusion solution is nodally
    # exact at element boundaries in 1D
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    fld = project(fns, CASE.solution, CASE.gradient)
    bounds = family.mesh.boundaries
    assert np.max(np.abs(field_eval(fld, bounds) - CASE.solution(bounds))) < 1e-9


@pytest.mark.parametrize("flavor", [ProjectionFlavor.L2, ProjectionFlavor.H10])
def test_projection_optimality(family, flavor):
    fns = build_dual_functionals(family, flavor)
    if flavor is ProjectionFlavor.L2:
        fld = project(fns, CASE.solution)
    else:
        fld = project(fns, CASE.solution, CASE.gradient)
    x, w = mesh_quadrature(family, 20)
    deriv = 0 if flavor is ProjectionFlavor.L2 else 1
    target = CASE.solution(x) if flavor is ProjectionFlavor.L2 else CASE.gradient(x)
    best = np.dot(w, (target - field_eval(fld, x, deriv=deriv)) ** 2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        pert = fld.coeffs.copy()
        if flavor is ProjectionFlavor.L2:
            pert += 1e-3 * rng.normal(size=pert.size)
        else:
            pert[1:-1] += 1e-3 * rng.normal(size=pert.size - 2)
        other = Field(family, fld.space, pert)
        err = np.dot(w, (target - field_eval(other, x, deriv=deriv)) ** 2)
        assert err >= best - 1e-14


def test_equivalence_with_normal_equations(family):
    x, w = mesh_quadrature(family, 20)
    # L2: edge mass system
    from fsgreens.dualspace import assemble_mass

    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    fld = project(fns, CASE.solution)
    mass = assemble_mass(family, SpaceKind.EDGE)
    rhs = tabulate_edge(family, x).T @ (w * CASE.solution(x))
    assert np.max(np.abs(fld.coeffs - mass.solve(rhs))) < 1e-9
    # H10: interior stiffness system
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    fld = project(fns, CASE.solution, CASE.gradient)
    stiff = assemble_stiffness(family)
    rhs = tabulate_nodal(family, x, deriv=1)[:, 1:-1].T @ (w * CASE.gradient(x))
    assert np.max(np.abs(fld.coeffs[1:-1] - stiff.solve(rhs))) < 1e-9


def test_h10_rejects_nonzero_boundary_values(family):
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    with pytest.raises(ValueError):
        project(fns, lambda x: np.cos(2.0 * np.pi * x))


def test_h10_boundary_check_tabulates_f_only_when_needed():
    # a zero-trace f is evaluated at the two end points only for the check
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    rule_size = mesh_quadrature(family)[0].size
    sizes = []

    def f(x):
        sizes.append(np.size(x))
        return CASE.solution(x)

    project(fns, f, CASE.gradient)
    assert sizes == [1, 1]
    sizes.clear()
    project(fns, f)
    # the two end values, the rule once, the three interface values
    assert sizes.count(rule_size) == 1 and sum(sizes) == rule_size + 2 + 3
    # end values past the tolerance are still judged relative to the size of f
    big = lambda x: 1e6 * np.sin(np.pi * x) + 1e-4
    project(fns, big)
    with pytest.raises(ValueError):
        project(fns, lambda x: CASE.solution(x) + 1e-8)


@pytest.mark.parametrize("num_elements,degree", [(3, 2), (5, 4), (12, 8)])
def test_h10_projection_without_gradient_uses_values(num_elements, degree):
    # with no f' the H10 projection is taken from values of f by parts
    # (h10_project_values), which agrees with the derivative pairing to
    # rounding
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    with_grad = project(fns, CASE.solution, CASE.gradient)
    without = project(fns, CASE.solution)
    assert np.max(np.abs(with_grad.coeffs - without.coeffs)) < 1e-13


def test_source_shortcut_matches_direct_projection(family):
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    direct = project(fns, CASE.solution, CASE.gradient)
    shortcut = h10_project_from_source(fns, CASE.source)
    assert np.max(np.abs(direct.coeffs - shortcut.coeffs)) < 1e-9


def test_source_shortcut_zero_and_polynomial():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    zero = h10_project_from_source(fns, lambda x: np.zeros_like(x))
    assert np.max(np.abs(zero.coeffs)) < 1e-15
    # -u'' = 2 has u = x(1-x), inside the p >= 2 space
    fld = h10_project_from_source(fns, lambda x: np.full_like(x, 2.0))
    x = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(field_eval(fld, x) - x * (1.0 - x))) < 1e-10


def test_value_only_projection_matches_pairing(family):
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    direct = project(fns, CASE.solution, CASE.gradient)
    values = h10_project_values(fns, CASE.solution)
    assert np.max(np.abs(values - direct.coeffs[1:-1])) < 1e-11


def _jittered_value_cases(count, seed=0):
    # meshes with N <= 12, p <= 8 whose element widths differ by up to 20x,
    # each with u = sin(pi x) e^{kx} and its derivative
    rng = np.random.default_rng(seed)
    for _ in range(count):
        num_elements, degree = int(rng.integers(1, 13)), int(rng.integers(1, 9))
        degree = 2 if num_elements * degree < 2 else degree
        widths = rng.uniform(0.05, 1.0, num_elements)
        bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
        bounds[-1] = 1.0
        k = rng.uniform(-2.0, 2.0)
        yield (Mesh1D(0.0, 1.0, num_elements, degree, bounds),
               lambda x, k=k: np.sin(np.pi * x) * np.exp(k * x),
               lambda x, k=k: (np.pi * np.cos(np.pi * x) + k * np.sin(np.pi * x)) * np.exp(k * x))


def test_value_only_projection_is_close_to_the_derivative_pairing_on_jittered_meshes():
    # the value-only form pairs u minus its vertex interpolant with the
    # basis's second derivatives, so no interface term cancels against the
    # element integrals.  On this draw it is at most 4.2e-13 (median 7e-15)
    # from the derivative pairing; pairing u itself plus the interface
    # terms gave 5.8e-13 (median 1.7e-14).  The largest cases are set by
    # the rounding of u's own values against the second derivatives, which
    # both forms share, so the median is the steadier of the two figures
    errors = []
    for mesh, u, du in _jittered_value_cases(200):
        fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
        want = project(fns, u, du).coeffs[1:-1]
        errors.append(_rel_err(h10_project_values(fns, u), want))
    assert max(errors) <= 5e-13
    assert np.median(errors) <= 1e-14


def test_value_only_projection_keeps_the_vertex_values():
    # the 1D H10 projection is exact at the mesh nodes, and the value-only
    # form adds to the vertex interpolant a part that vanishes there
    for mesh, u, _ in _jittered_value_cases(50, seed=1):
        fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
        coeffs = h10_project_values(fns, u)
        vertices = mesh.boundaries[1:-1]
        got = coeffs[np.arange(1, mesh.num_elements) * mesh.degree - 1]
        assert np.max(np.abs(got - u(vertices)), initial=0.0) \
            <= 1e-14 * np.max(np.abs(coeffs))
    # at p = 1 the projection is the interpolant
    mesh = Mesh1D(0.0, 1.0, 5, 1, np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.0]))
    fns = build_dual_functionals(basis_family(mesh), ProjectionFlavor.H10)
    np.testing.assert_array_equal(h10_project_values(fns, CASE.solution),
                                  CASE.solution(mesh.boundaries[1:-1]))


# ---------------------------------------------------------------------------
# pair, then solve once: against the table-first formulas


@st.composite
def _h10_meshes(draw):
    degree = draw(st.integers(1, 8))
    num_elements = draw(st.integers(1, 12))
    assume(num_elements * degree >= 2)
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    return Mesh1D(0.0, 1.0, num_elements, degree, bounds)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@settings(max_examples=30, deadline=None)
@given(mesh=_h10_meshes(), shift=st.floats(0.0, 1.0))
def test_h10_pair_then_solve_projections_match_table_first(mesh, shift):
    # each table-first formula pushes the (points x N p) table through the
    # stiffness and then pairs it; the library pairs first and solves once
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    u = lambda x: np.sin(np.pi * x) * np.cos(3.0 * x + shift)
    du = lambda x: np.pi * np.cos(np.pi * x) * np.cos(3.0 * x + shift) \
        - 3.0 * np.sin(np.pi * x) * np.sin(3.0 * x + shift)
    f = lambda x: np.exp(x) * np.cos(5.0 * x + shift)
    x, w = mesh_quadrature(family)

    want = tabulate_functionals(fns, x, deriv=1).T @ (w * du(x))
    assert _rel_err(project(fns, u, du).coeffs[1:-1], want) <= 1e-13

    want = tabulate_functionals(fns, x).T @ (w * f(x))
    assert _rel_err(h10_project_from_source(fns, f).coeffs[1:-1], want) <= 1e-13

    # the table-first value-only formula pairs u itself and adds the
    # interface terms, cancelling terms about p^3 times larger than its
    # result: at N=12, p=8 it is up to 1.7e-13 (relative) away from the
    # derivative pairing, so it is compared with the library's form, which
    # pairs u minus its vertex interpolant, at 1e-12
    want = -tabulate_functionals(fns, x, deriv=2).T @ (w * u(x))
    interfaces = mesh.boundaries[1:-1]
    if interfaces.size:
        jumps = -fns.stiffness.solve(nodal_deriv_jumps(family).T).T
        want += jumps.T @ u(interfaces)
    assert _rel_err(h10_project_values(fns, u), want) <= 1e-12


def test_mesh_quadrature_is_the_one_breakpoint_policy():
    # extra breakpoints merge with the mesh boundaries, unsorted, repeated
    # or on a boundary, and cut once; those outside the mesh are dropped
    family = basis_family(Mesh1D(0.0, 1.0, 2, 2, np.array([0.0, 0.3, 1.0])))
    want = composite_rule(gauss_legendre_rule(5), [0.0, 0.3, 0.5, 1.0])
    got = mesh_quadrature(family, 5, [0.5, 0.3, 1.0, 0.5, -0.2, 1.4])
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="strictly increasing"):
        mesh_quadrature(family, 5, [0.5, np.nan])


@pytest.mark.parametrize("num_elements", [5, 320])
@pytest.mark.parametrize("deriv", [0, 1])
def test_l2_pairing_is_element_local(num_elements, deriv):
    # each point's p duals are paired into their element's columns, with no
    # (points x N p) table; interior boundaries moved by up to 30% of an
    # element width, and the mesh nodes among the points
    rng = np.random.default_rng(num_elements)
    h = 1.0 / num_elements
    inner = np.arange(1, num_elements) * h + rng.uniform(-0.3, 0.3, num_elements - 1) * h
    mesh = Mesh1D(0.0, 1.0, num_elements, 4, np.concatenate(([0.0], inner, [1.0])))
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    x, w = mesh_quadrature(family, breakpoints=[0.3])
    x = np.concatenate((x, mesh.boundaries))
    values = np.exp(x) * np.cos(7.0 * x) * np.r_[w, np.ones(mesh.boundaries.size)]
    want = tabulate_functionals(fns, x, deriv).T @ values
    assert _rel_err(pair_functionals(fns, x, values, deriv), want) <= 1e-14
