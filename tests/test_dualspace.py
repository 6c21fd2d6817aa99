import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import (Mesh1D, SpaceKind, _reference_edge_tab, basis_family, tabulate_edge,
                              tabulate_nodal)
from fsgreens.dualspace import DualSet, SPDMatrix, _reference_gram, assemble_mass, tabulate_duals
from fsgreens.projection import ProjectionFlavor, build_dual_functionals, tabulate_functionals
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

MESH_CASES = [(1, 1), (2, 3), (5, 4)]


def _pairing_grid(mesh, npts=14):
    return composite_rule(gauss_legendre_rule(npts), mesh.boundaries)


def test_nodal_mass_hand_values():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    mass = assemble_mass(family, SpaceKind.NODAL)
    assert np.allclose(mass.entries, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]],
                       atol=1e-15)


def test_edge_mass_hand_value():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    mass = assemble_mass(family, SpaceKind.EDGE)
    assert np.allclose(mass.entries, [[0.5]], atol=1e-15)


def test_mass_row_sums_measure_domain():
    family = basis_family(Mesh1D.uniform(0.0, 2.5, 3, 3))
    mass = assemble_mass(family, SpaceKind.NODAL)
    assert np.sum(mass.entries) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("num_elements,degree", MESH_CASES)
def test_mass_symmetry_and_spd(num_elements, degree):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    for kind in (SpaceKind.NODAL, SpaceKind.EDGE):
        mass = assemble_mass(family, kind)
        assert np.max(np.abs(mass.entries - mass.entries.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(mass.entries)) > 0.0


def test_edge_mass_block_diagonal():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3))
    mass = assemble_mass(family, SpaceKind.EDGE)
    p = 3
    off = mass.entries.copy()
    for n in range(4):
        off[n * p:(n + 1) * p, n * p:(n + 1) * p] = 0.0
    assert np.max(np.abs(off)) < 1e-14


@pytest.mark.parametrize("num_elements,degree", MESH_CASES)
def test_biorthogonality(num_elements, degree):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    x, w = _pairing_grid(family.mesh)
    dual_nodal = DualSet(family, SpaceKind.DUAL_NODAL)
    gram = tabulate_duals(dual_nodal, x).T @ (w[:, None] * tabulate_edge(family, x))
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10
    dual_edge = DualSet(family, SpaceKind.DUAL_EDGE)
    gram = tabulate_duals(dual_edge, x).T @ (w[:, None] * tabulate_nodal(family, x))
    assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


def test_spd_matrix_rejects_asymmetric_and_indefinite():
    with pytest.raises(ValueError, match="symmetric"):
        SPDMatrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        SPDMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _spd(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("columns", [None, 7])
def test_spd_solve_matches_cho_solve(n, columns):
    # scipy is a test-only oracle: the library itself loads no scipy module
    from scipy.linalg import cho_factor, cho_solve

    matrix = _spd(n, seed=n)
    shape = (n,) if columns is None else (n, columns)
    rhs = np.random.default_rng(n + 1).standard_normal(shape)
    want = cho_solve(cho_factor(matrix), rhs)
    got = SPDMatrix(matrix).solve(rhs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spd_solve_matches_cho_solve_on_a_fine_mesh_stiffness():
    # cond(K) is 4.7e6 at N=640, p=4, so solutions carry rounding up to
    # about 1e-9 (relative): cho_solve's upper and lower factors already
    # differ by 3e-11.  The solve must be backward stable and agree with
    # cho_solve a decade inside that bound.
    from scipy.linalg import cho_factor, cho_solve

    stiffness = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 640, 4)),
                                       ProjectionFlavor.H10).stiffness
    entries = stiffness.entries
    rhs = np.random.default_rng(0).standard_normal((entries.shape[0], 3))
    for side in (rhs, rhs[:, 0]):
        want = cho_solve(cho_factor(entries), side)
        got = stiffness.solve(side)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(entries @ got - side)) <= 1e-14 * np.max(np.abs(entries)) * scale
        assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_spd_matrix_rejects_an_indefinite_matrix_wider_than_a_block():
    matrix = _spd(65, seed=3)
    matrix[64, 64] = -1.0
    with pytest.raises(ValueError, match="positive definite"):
        SPDMatrix(matrix)


def test_dual_set_forms_its_mass_on_first_use():
    # the family and the kind fix the mass: none is formed before the first
    # tabulation, and then it is the p x p reference edge mass (dual nodal)
    # or the global nodal mass (dual edge)
    family = basis_family(Mesh1D(0.0, 1.0, 3, 3, np.array([0.0, 0.2, 0.7, 1.0])))
    x = np.linspace(0.0, 1.0, 11)
    for kind, want in [(SpaceKind.DUAL_NODAL, _reference_gram(family, _reference_edge_tab, 0)),
                       (SpaceKind.DUAL_EDGE, assemble_mass(family, SpaceKind.NODAL).entries)]:
        duals = DualSet(family, kind)
        assert "mass" not in vars(duals)
        tabulate_duals(duals, x)
        assert "mass" in vars(duals)
        np.testing.assert_array_equal(duals.mass.entries, want)
    with pytest.raises(ValueError):
        DualSet(family, SpaceKind.NODAL)


def test_dual_nodal_set_holds_only_the_reference_edge_mass():
    # every dual nodal function lives on one element: the p x p reference
    # edge mass is all the set solves with, whatever the mesh
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 640, 4))
    duals = DualSet(family, SpaceKind.DUAL_NODAL)
    assert duals.mass.entries.shape == (4, 4)
    assert duals.size == 2560


def test_dual_nodal_scalar_case():
    # single p=1 element on [-1,1]: the one dual nodal function is constant 1
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    duals = DualSet(family, SpaceKind.DUAL_NODAL)
    x = np.linspace(-1.0, 1.0, 9)
    assert np.max(np.abs(tabulate_duals(duals, x)[:, 0] - 1.0)) < 1e-14
    assert tabulate_duals(duals, 0.3)[0, 0] == pytest.approx(1.0)


def test_dual_expansion_matches_projection_coefficients():
    # pairing the dual nodal functions with f gives the edge-expansion
    # coefficients of the L2 projection of f
    from fsgreens.projection import project

    family = basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2))
    duals = DualSet(family, SpaceKind.DUAL_NODAL)
    f = lambda x: np.exp(x) * np.cos(3.0 * x)
    x, w = _pairing_grid(family.mesh, 20)
    coeffs = tabulate_duals(duals, x).T @ (w * f(x))
    fns = build_dual_functionals(family, ProjectionFlavor.L2)
    fld = project(fns, f)
    assert np.max(np.abs(coeffs - fld.coeffs)) < 1e-12


# ---------------------------------------------------------------------------
# biorthogonality and the H10 stiffness solves on non-uniform meshes


@st.composite
def _meshes(draw):
    degree = draw(st.integers(1, 5))
    num_elements = draw(st.integers(1, 6))
    widths = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=num_elements,
                                    max_size=num_elements)))
    bounds = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    bounds[-1] = 1.0
    return Mesh1D(0.0, 1.0, num_elements, degree, bounds)


@settings(max_examples=40, deadline=None)
@given(mesh=_meshes())
def test_biorthogonality_on_nonuniform_meshes(mesh):
    family = basis_family(mesh)
    # p+1 Gauss points per element integrate the degree-2p products exactly
    x, w = composite_rule(gauss_legendre_rule(mesh.degree + 1), mesh.boundaries)
    pairs = [(tabulate_duals(DualSet(family, SpaceKind.DUAL_NODAL), x),
              tabulate_edge(family, x)),
             (tabulate_duals(DualSet(family, SpaceKind.DUAL_EDGE), x),
              tabulate_nodal(family, x))]
    if mesh.num_nodal_dofs >= 3:
        fns = build_dual_functionals(family, ProjectionFlavor.H10)
        pairs.append((tabulate_functionals(fns, x, deriv=1),
                      tabulate_nodal(family, x, deriv=1)[:, 1:-1]))
    for duals, primal in pairs:
        gram = duals.T @ (w[:, None] * primal)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10


@settings(max_examples=40, deadline=None)
@given(mesh=_meshes(), free=st.lists(st.floats(0.0, 1.0), max_size=12))
def test_h10_functionals_match_dense_inverse(mesh, free):
    assume(mesh.num_nodal_dofs >= 3)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    bounds = mesh.boundaries
    x = np.unique(np.concatenate((bounds, 0.5 * (bounds[1:] + bounds[:-1]), free)))
    inv = np.linalg.inv(fns.stiffness.entries)
    # derivatives of order above p vanish: their tables are rounding noise
    for deriv in range(min(mesh.degree, 2) + 1):
        want = tabulate_nodal(family, x, deriv=deriv)[:, 1:-1] @ inv
        got = tabulate_functionals(fns, x, deriv=deriv)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12
