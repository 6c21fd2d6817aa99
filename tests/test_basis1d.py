import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import (
    Field,
    Mesh1D,
    SpaceKind,
    _global_scatter,
    _locate,
    _reference_edge_tab,
    basis_family,
    element_tab,
    field_eval,
    tabulate_edge,
    tabulate_nodal,
)
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import edge_mass, element_endpoint_values, nodal_points


@pytest.fixture
def family_2x3():
    return basis_family(Mesh1D.uniform(0.0, 1.0, 2, 3))


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 2, 2, np.array([0.0, 0.6, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Mesh1D.uniform(0.0, 1.0, 0, 2)
    # no comparison holds for NaN, so a check written as "no step <= 0"
    # passed an inner NaN, and field_eval on the mesh returned NaN
    for bounds in ([0.0, np.nan, 1.0], [0.0, 0.25, np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Mesh1D(0.0, 1.0, len(bounds) - 1, 2, np.array(bounds))
    mesh = Mesh1D.uniform(0.0, 1.0, 4, 3)
    assert mesh.num_nodal_dofs == 13
    assert mesh.num_edge_dofs == 12


def test_meshes_and_families_compare_by_identity():
    # their boundaries are an array, so field-wise equality raised
    # ValueError and hashing TypeError; the library tells families apart
    # by identity (`fld.family is fns.family`), and so do == and hash
    mesh, twin = Mesh1D.uniform(0.0, 1.0, 2, 2), Mesh1D.uniform(0.0, 1.0, 2, 2)
    assert mesh == mesh and mesh != twin
    family = basis_family(mesh)
    assert family == family and family != basis_family(mesh)
    assert {mesh: 1, twin: 2, family: 3}[twin] == 2


def test_locate_tie_breaks_left():
    # mesh elements, and cells cut finer as the coupled sweep's are: a point
    # on an inner bound goes left, points within 1e-12 past an end clip to
    # the end cell, and every reference coordinate is the point's own
    mesh = Mesh1D.uniform(0.0, 1.0, 4, 1)
    x = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0])
    cell, half, xi = _locate(mesh.boundaries, x)
    assert list(cell) == [0, 0, 0, 1, 1, 2, 3]
    np.testing.assert_array_equal(half, 0.125)
    np.testing.assert_allclose(xi, [-1.0, -0.2, 1.0, -0.6, 1.0, 1.0, 1.0], atol=1e-15)
    cells = np.array([0.0, 0.4, 0.41, 0.97, 0.99, 1.0])
    x = np.array([-1e-13, 0.4, 0.405, 0.41, 0.97, 0.995, 1.0 + 1e-13])
    cell, half, xi = _locate(cells, x)
    assert list(cell) == [0, 0, 1, 1, 2, 4, 4]
    np.testing.assert_allclose(cells[cell] + half * (xi + 1.0), x, rtol=0.0, atol=1e-15)
    for bad in (-1e-9, 1.0 + 1e-9, np.nan):
        with pytest.raises(ValueError, match="outside"):
            _locate(cells, np.array([0.5, bad]))


def test_nodal_delta_property(family_2x3):
    pts = nodal_points(family_2x3)
    tab = tabulate_nodal(family_2x3, pts)
    assert np.max(np.abs(tab - np.eye(pts.size))) < 1e-12


def test_partition_of_unity(family_2x3):
    x = np.linspace(0.0, 1.0, 97)
    tab = tabulate_nodal(family_2x3, x)
    assert np.max(np.abs(tab.sum(axis=1) - 1.0)) < 1e-13
    dtab = tabulate_nodal(family_2x3, x, deriv=1)
    assert np.max(np.abs(dtab.sum(axis=1))) < 1e-10


def test_nodal_hat_value():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    assert tabulate_nodal(family, np.array([0.5]))[0, 0] == pytest.approx(0.25, abs=1e-15)


def test_nodal_deriv_hat_slope():
    family = basis_family(Mesh1D.uniform(0.0, 0.5, 1, 1))
    slope = tabulate_nodal(family, np.array([0.2]), deriv=1)[0, 0]
    assert slope == pytest.approx(-2.0, abs=1e-13)


def test_nodal_deriv_finite_difference(family_2x3):
    h = 1e-6
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.05, 0.45, size=8)  # keep clear of the interface
    cols = [0, 2, 3]
    fd = (tabulate_nodal(family_2x3, xs + h) - tabulate_nodal(family_2x3, xs - h)) / (2 * h)
    deriv = tabulate_nodal(family_2x3, xs, deriv=1)
    assert np.max(np.abs(fd[:, cols] - deriv[:, cols])) < 1e-6


def test_out_of_domain_rejected(family_2x3):
    with pytest.raises(ValueError):
        tabulate_nodal(family_2x3, np.array([1.2]))
    with pytest.raises(ValueError):
        tabulate_edge(family_2x3, np.array([-0.1]))
    # NaN is outside every interval, not a point to evaluate
    fld = Field(family_2x3, SpaceKind.NODAL, np.ones(7))
    for evaluate in (lambda x: field_eval(fld, x),
                     lambda x: tabulate_nodal(family_2x3, x),
                     lambda x: tabulate_edge(family_2x3, x),
                     lambda x: element_tab(family_2x3, SpaceKind.NODAL, x),
                     lambda x: element_tab(family_2x3, SpaceKind.EDGE, x, deriv=1)):
        with pytest.raises(ValueError, match="outside"):
            evaluate(np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="outside"):
            evaluate(np.nan)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_edge_histopolation_property(p):
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, p))
    nodes = family.ref_nodes
    s, w = composite_rule(gauss_legendre_rule(p + 3), nodes)
    # row j: the integrals of every edge function over [nodes[j], nodes[j + 1]]
    sub = (w[:, None] * tabulate_edge(family, s)).reshape(p, p + 3, p).sum(axis=1)
    assert np.max(np.abs(sub - np.eye(p))) < 1e-13
    # subinterval integrals of one edge function telescope to one
    assert sub[:, 1 % p].sum() == pytest.approx(1.0, abs=1e-13)


def test_edge_p1_is_constant():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    x = np.linspace(-1.0, 1.0, 17)
    assert np.max(np.abs(tabulate_edge(family, x)[:, 0] - 0.5)) < 1e-14
    fld = Field(family, SpaceKind.EDGE, np.ones(1))
    assert field_eval(fld, 0.3) == pytest.approx(0.5)


def test_field_eval_partition_and_unit_vectors(family_2x3):
    ones = Field(family_2x3, SpaceKind.NODAL, np.ones(7))
    x = np.linspace(0.0, 1.0, 31)
    assert np.max(np.abs(field_eval(ones, x) - 1.0)) < 1e-13
    e3 = np.zeros(7)
    e3[3] = 1.0
    fld = Field(family_2x3, SpaceKind.NODAL, e3)
    assert np.allclose(field_eval(fld, x), tabulate_nodal(family_2x3, x)[:, 3])


def test_field_coefficient_length_checked(family_2x3):
    with pytest.raises(ValueError):
        Field(family_2x3, SpaceKind.NODAL, np.zeros(6))
    with pytest.raises(ValueError):
        Field(family_2x3, SpaceKind.EDGE, np.zeros(7))


def test_field_holds_primal_spaces_only(family_2x3):
    # coefficient counts that would fit the dual spaces
    for space, size in ((SpaceKind.DUAL_NODAL, 6), (SpaceKind.DUAL_EDGE, 7)):
        with pytest.raises(ValueError, match="primal"):
            Field(family_2x3, space, np.zeros(size))


def test_interpolation_reproduces_values():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 5, 4))
    f = lambda x: np.sin(2.0 * np.pi * x)
    pts = nodal_points(family)
    fld = Field(family, SpaceKind.NODAL, f(pts))
    assert np.max(np.abs(field_eval(fld, pts) - f(pts))) < 1e-14


def test_derivative_edge_compatibility(family_2x3):
    # derivative of a nodal field equals the edge field with differenced
    # coefficients inside every element
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=7)
    fld = Field(family_2x3, SpaceKind.NODAL, coeffs)
    mesh = family_2x3.mesh
    edge_coeffs = np.empty(mesh.num_edge_dofs)
    for n in range(mesh.num_elements):
        for j in range(1, mesh.degree + 1):
            i = j + n * mesh.degree
            edge_coeffs[i - 1] = coeffs[i] - coeffs[i - 1]
    edge_fld = Field(family_2x3, SpaceKind.EDGE, edge_coeffs)
    x = np.linspace(0.013, 0.987, 41)
    assert np.max(np.abs(field_eval(fld, x, deriv=1) - field_eval(edge_fld, x))) < 1e-10


def test_affine_invariance():
    ref = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 4))
    mapped = basis_family(Mesh1D.uniform(0.0, 1.0, 1, 4))
    xi = np.linspace(-1.0, 1.0, 23)
    x = 0.5 * (xi + 1.0)
    assert np.max(np.abs(tabulate_nodal(ref, xi) - tabulate_nodal(mapped, x))) < 1e-13


def test_element_endpoint_values_edge_field():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 2, 1))
    fld = Field(family, SpaceKind.EDGE, np.array([1.0, -2.0]))
    left, right = element_endpoint_values(fld)
    # p=1 edge functions are element constants coeff / h
    assert np.allclose(left, [2.0, -4.0])
    assert np.allclose(right, [2.0, -4.0])


# ---------------------------------------------------------------------------
# element-local evaluation against the dense tables


@st.composite
def _fields(draw):
    degree = draw(st.integers(1, 8))
    num_elements = draw(st.integers(1, 12))
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    family = basis_family(Mesh1D(0.0, 1.0, num_elements, degree, bounds))
    space = draw(st.sampled_from((SpaceKind.NODAL, SpaceKind.EDGE)))
    ndof = {SpaceKind.NODAL: family.mesh.num_nodal_dofs,
            SpaceKind.EDGE: family.mesh.num_edge_dofs}[space]
    coeffs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=ndof)
    # every boundary (interior ones take the left element's values) and free points
    free = draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    return Field(family, space, coeffs), np.unique(np.concatenate((bounds, free)))


@settings(max_examples=40, deadline=None)
@given(case=_fields())
def test_field_eval_gathers_the_dense_tabulation(case):
    fld, x = case
    nodal = fld.space is SpaceKind.NODAL
    tabulate = tabulate_nodal if nodal else tabulate_edge
    # derivatives above the field's degree vanish: their tables are rounding noise
    for deriv in range(min(3, fld.family.degree + nodal)):
        want = tabulate(fld.family, x, deriv=deriv) @ fld.coeffs
        got = field_eval(fld, x, deriv=deriv)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("deriv", [0, 1])
def test_dual_nodal_element_table_is_the_dense_dual_table(deriv):
    # the dual nodal functions tabulate like the edge basis: each point's p
    # duals, scattered, are bitwise the per-element solve of the reference
    # edge table against the reference edge mass (exact on p + 2 Gauss
    # points) times J^-deriv, and match the global block edge mass solved
    # against the dense edge table; a jittered N = 5, p = 3 mesh, its
    # vertices among the points
    rng = np.random.default_rng(5)
    inner = (np.arange(1, 5) + rng.uniform(-0.3, 0.3, 4)) / 5.0
    mesh = Mesh1D(0.0, 1.0, 5, 3, np.concatenate(([0.0], inner, [1.0])))
    family = basis_family(mesh)
    x = np.unique(np.concatenate((np.linspace(0.0, 1.0, 37), mesh.boundaries)))
    rule = gauss_legendre_rule(5)
    ref = _reference_edge_tab(family, rule.nodes)
    mass = ref.T @ (rule.weights[:, None] * ref)
    elem, jac, xi = _locate(mesh.boundaries, x)
    local = np.linalg.solve(mass, _reference_edge_tab(family, xi, deriv=deriv).T).T
    want = np.zeros((x.size, mesh.num_edge_dofs))
    want[np.arange(x.size)[:, None], 3 * elem[:, None] + np.arange(3)] = \
        local * (jac ** float(-deriv))[:, None]
    got = _global_scatter(*element_tab(family, SpaceKind.DUAL_NODAL, x, deriv),
                          mesh.num_edge_dofs)
    np.testing.assert_array_equal(got, want)
    dense = np.linalg.solve(edge_mass(family), tabulate_edge(family, x, deriv).T).T
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
    with pytest.raises(ValueError, match="element tables"):
        element_tab(family, SpaceKind.DUAL_EDGE, x)
