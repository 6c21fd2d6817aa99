import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import (Mesh1D, SpaceKind, _reference_edge_tab, basis_family, tabulate_edge,
                              tabulate_nodal)
from fsgreens.dualspace import DualSet, assemble_mass, assemble_stiffness, tabulate_duals
from fsgreens.finescale import build_fine_scale_operator
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import ProjectionFlavor, build_dual_functionals, tabulate_functionals
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import edge_mass, spd_solve

MESH_CASES = [(1, 1), (2, 3), (5, 4)]


def _pairing_grid(mesh, npts=14):
    return composite_rule(gauss_legendre_rule(npts), mesh.boundaries)


def test_nodal_mass_hand_values():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    mass = assemble_mass(family)
    assert np.allclose(mass, [[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_edge_mass_hand_value():
    family = basis_family(Mesh1D.uniform(-1.0, 1.0, 1, 1))
    assert np.allclose(edge_mass(family), [[0.5]], atol=1e-15)


def test_mass_row_sums_measure_domain():
    family = basis_family(Mesh1D.uniform(0.0, 2.5, 3, 3))
    assert np.sum(assemble_mass(family)) == pytest.approx(2.5, abs=1e-12)


@pytest.mark.parametrize("num_elements,degree", MESH_CASES)
def test_mass_symmetry_and_spd(num_elements, degree):
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, degree))
    for mass in (assemble_mass(family), edge_mass(family)):
        assert np.max(np.abs(mass - mass.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(mass)) > 0.0


def test_edge_mass_block_diagonal():
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 4, 3))
    p = 3
    off = edge_mass(family)
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


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("columns", [None, 7])
def test_spd_solve_matches_cho_solve(n, columns):
    # a dual edge set solves with the global nodal mass, SPD and of size
    # 3 n + 1 on n elements at p = 3, one column per point: at one point
    # or at seven, against scipy's Cholesky solve (a test-only oracle: the
    # library itself loads no scipy module).  n runs from one element to a
    # 601-wide system; 63-65 are ordinary mid-size meshes here, their ids
    # kept from the retired blocked substitution's block edge
    family = basis_family(Mesh1D.uniform(0.0, 1.0, n, 3))
    x = 0.3 if columns is None else np.random.default_rng(n).uniform(0.0, 1.0, columns)
    got = tabulate_duals(DualSet(family, SpaceKind.DUAL_EDGE), x)
    want = spd_solve(assemble_mass(family), tabulate_nodal(family, x).T).T
    assert got.shape == want.shape == (np.size(x), 3 * n + 1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_spd_solve_matches_cho_solve_on_a_fine_mesh_stiffness():
    # the H10 Gram is K^{-1}, formed as the functionals' table at the
    # interior GLL nodes with no solve.  cond(K) is 4.7e6 at N=640, p=4, so
    # the inverse carries rounding up to about 1e-9 (relative): cho_solve's
    # upper and lower factors already differ by 3e-11.  The table must be
    # backward stable, its residual within 1e-15 (4.7e-16 measured, 2.6e-15
    # through K's Cholesky factor), and agree with cho_solve a decade
    # inside that bound.
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 640, 4))
    entries = assemble_stiffness(family)
    op = build_fine_scale_operator(GreensKernel1D.poisson(),
                                   build_dual_functionals(family, ProjectionFlavor.H10))
    identity = np.eye(entries.shape[0])
    scale = np.max(np.abs(op.gram))
    assert np.max(np.abs(entries @ op.gram - identity)) <= 1e-15 * np.max(np.abs(entries)) * scale
    assert np.max(np.abs(op.gram - spd_solve(entries, identity))) <= 1e-10 * scale


def test_l2_gram_solve_matches_cho_solve_on_a_fine_mesh():
    # the L2 reconstructions' Gram solve, at N=320, p=4 where cond(Gram)
    # is 8.1e6, to the bounds of the stiffness's solve above
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 320, 4))
    op = build_fine_scale_operator(GreensKernel1D.poisson(),
                                   build_dual_functionals(family, ProjectionFlavor.L2))
    rhs = np.random.default_rng(0).standard_normal((op.functionals.size, 3))
    for side in (rhs, rhs[:, 0]):
        got = op.solve_gram(side)
        scale = np.max(np.abs(got))
        assert np.max(np.abs(op.gram @ got - side)) <= 1e-14 * np.max(np.abs(op.gram)) * scale
        assert np.max(np.abs(got - spd_solve(op.gram, side))) <= 1e-10 * scale


def test_dual_set_forms_its_mass_on_first_use():
    # the family and the kind fix the mass, and none is formed before the
    # first tabulation: a dual nodal set's is the family's p x p reference
    # edge mass, formed there once; a dual edge set's is the global nodal
    # mass, assembled from the family's reference nodal mass
    mesh = Mesh1D(0.0, 1.0, 3, 3, np.array([0.0, 0.2, 0.7, 1.0]))
    x = np.linspace(0.0, 1.0, 11)
    for kind, gram in [(SpaceKind.DUAL_NODAL, "edge_mass"), (SpaceKind.DUAL_EDGE, "nodal_mass")]:
        family = basis_family(mesh)
        duals = DualSet(family, kind)
        assert gram not in vars(family)
        tabulate_duals(duals, x)
        assert gram in vars(family)
    np.testing.assert_array_equal(duals.mass, assemble_mass(family))
    rule = gauss_legendre_rule(5)
    tab = _reference_edge_tab(family, rule.nodes)
    nodal = DualSet(family, SpaceKind.DUAL_NODAL)
    np.testing.assert_array_equal(nodal.mass, tab.T @ (rule.weights[:, None] * tab))
    assert nodal.mass is family.edge_mass
    with pytest.raises(ValueError):
        DualSet(family, SpaceKind.NODAL)


def test_dual_nodal_set_holds_only_the_reference_edge_mass():
    # every dual nodal function lives on one element: the p x p reference
    # edge mass is all the set solves with, whatever the mesh
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 640, 4))
    duals = DualSet(family, SpaceKind.DUAL_NODAL)
    assert duals.mass.shape == (4, 4)
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
# biorthogonality and the H10 functional tables on non-uniform meshes


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
    inv = np.linalg.inv(assemble_stiffness(family))
    # derivatives of order above p vanish: their tables are rounding noise
    for deriv in range(min(mesh.degree, 2) + 1):
        want = tabulate_nodal(family, x, deriv=deriv)[:, 1:-1] @ inv
        got = tabulate_functionals(fns, x, deriv=deriv)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12
