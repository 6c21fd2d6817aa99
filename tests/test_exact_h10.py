"""The H10 `u_bar` and `u_prime` columns, each against the exact projection.

u is a polynomial of degree p + 3 with zero end values on dyadic meshes,
so the mesh, the grid and u's coefficients are exact floats and
`exact_h10` gives Pi u and u - Pi u in rational arithmetic.  Each column
is checked on its own, in units of eps max |u|: the total u_bar + u_prime
would hide errors that cancel.  The fine scales of an annihilated coarse
field are element-local, each element's bubble tail, and are checked in
units of eps h_e^2 max |f| instead.  The functionals carry no stiffness, as no
H10 projection or reconstruction reads one, and the dense K of N = 1024,
p = 8 would take half a gigabyte.
"""

import functools

import numpy as np
import pytest

from fsgreens.basis1d import Mesh1D, basis_family, field_eval
from fsgreens.finescale import FineScaleOperator, reconstruct_fine_scales, residual_from_field
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (DualFunctionals, ProjectionFlavor, build_dual_functionals,
                                 h10_project_from_source, project, source_rule_points)

from exact_h10 import ExactPolynomial, dyadic_mesh
from flattened_oracle import (global_h10_project, global_h10_project_from_source,
                              global_h10_reconstruct)

EPS = np.finfo(float).eps
# the largest error seen over these cases is 6.4 eps max |u| up to p = 8,
# and 7.4 at p = 16 (N = 256, jittered)
BOUND = 16.0
# at the vertices, where Pi u interpolates u: at most 4.04 eps max |u|
VERTEX_BOUND = 8.0
# u_prime of an annihilated coarse field, in eps h_e^2 max |f|: at most
# 0.025 (0.006 at p = 12 and 16), where the former route, G f less its
# resolved part, wrote eps max |u|
ELEMENT_BOUND = 4.0
SIZES = [(n, p) for n in (16, 256, 1024) for p in (2, 4, 8)] \
    + [(n, p) for n in (16, 256) for p in (12, 16)]
# (N, p, jittered) where a solve with the interior Lagrange stiffness misses
# BOUND by 18.2 to 54.9; the Lobatto expansion gives at most 11.7, at p = 64
HIGH_DEGREE = [(2, 24, False), (2, 24, True), (2, 32, False), (2, 32, True), (2, 48, False),
               (2, 64, False), (2, 64, True), (16, 48, False)]


@functools.lru_cache(maxsize=None)
def _case(num_elements, degree, jittered):
    """The mesh, its family, u, the grid (every 8th vertex and element
    midpoints and quarter points among 129 dyadic points) and the exact
    u and u - Pi u there."""
    bounds = dyadic_mesh(num_elements, seed=num_elements + degree if jittered else None)
    mesh = Mesh1D(0.0, 1.0, num_elements, degree, np.array(bounds))
    b = mesh.boundaries
    step = max(1, num_elements // 64)
    grid = np.unique(np.concatenate((np.linspace(0.0, 1.0, 129), b[::step],
                                     (0.5 * (b[:-1] + b[1:]))[::step],
                                     (0.75 * b[:-1] + 0.25 * b[1:])[::step])))
    poly = ExactPolynomial(degree, seed=degree)
    exact = np.array([float(poly.exact(x)) for x in grid])
    fine = np.array([float(poly.fine(bounds, degree, x)) for x in grid])
    return basis_family(mesh), poly, grid, exact, fine


def _errors(u_bar, u_prime, exact, fine):
    """max |u_bar - Pi u| and max |u_prime - (u - Pi u)| in eps max |u|."""
    scale = EPS * np.max(np.abs(exact))
    return (np.max(np.abs(u_bar - (exact - fine))) / scale,
            np.max(np.abs(u_prime - fine)) / scale)


@pytest.mark.parametrize("jittered", [False, True], ids=["uniform", "jittered"])
@pytest.mark.parametrize("num_elements, degree", SIZES)
def test_h10_columns_match_the_exact_projection(num_elements, degree, jittered):
    # u_bar from the source shortcut and from project with and without f';
    # u_prime from the reconstruction of each, and of a coarse field of
    # another family (Pi u on every other element), which the operator does
    # not skip.  The grid's vertices hold u itself and a zero u_prime
    family, poly, grid, exact, fine = _case(num_elements, degree, jittered)
    fns = DualFunctionals(ProjectionFlavor.H10, family)
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(degree))
    coarse = Mesh1D(0.0, 1.0, num_elements // 2, degree, family.mesh.boundaries[::2])
    coarse_fns = DualFunctionals(ProjectionFlavor.H10, basis_family(coarse))
    projections = [h10_project_from_source(fns, poly.source),
                   project(fns, poly.solution, poly.gradient), project(fns, poly.solution)]
    for u_bar in projections + [h10_project_from_source(coarse_fns, poly.source)]:
        u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, poly.source), grid)
        if u_bar.family is family:
            assert max(_errors(field_eval(u_bar, grid), u_prime, exact, fine)) <= BOUND
        else:
            assert _errors(exact - fine, u_prime, exact, fine)[1] <= BOUND
    vertices = family.mesh.boundaries
    at_vertex = np.isin(grid, vertices)
    assert at_vertex.sum() >= 17
    for u_bar in projections:
        assert _errors(field_eval(u_bar, vertices), 0.0, poly.solution(vertices), 0.0)[0] \
            <= VERTEX_BOUND
        assert np.max(np.abs(field_eval(u_bar, grid[at_vertex]) - exact[at_vertex])) \
            <= VERTEX_BOUND * EPS * np.max(np.abs(exact))


@pytest.mark.parametrize("num_elements, degree, jittered", HIGH_DEGREE)
def test_h10_columns_match_the_exact_projection_at_high_degree(num_elements, degree, jittered):
    # u_bar from the source shortcut and from project with f', and the
    # u_prime of each: each element's bubbles expand in the H10-orthogonal
    # Lobatto bubbles, so no solve's conditioning grows with p.  The
    # value-only project pairs f - I f with the basis's second derivatives,
    # which lose digits at these degrees, and is left out
    family, poly, grid, exact, fine = _case(num_elements, degree, jittered)
    fns = DualFunctionals(ProjectionFlavor.H10, family)
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(degree))
    for u_bar in (h10_project_from_source(fns, poly.source),
                  project(fns, poly.solution, poly.gradient)):
        u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, poly.source), grid)
        assert max(_errors(field_eval(u_bar, grid), u_prime, exact, fine)) <= BOUND


@pytest.mark.parametrize("jittered", [False, True], ids=["uniform", "jittered"])
@pytest.mark.parametrize("num_elements, degree", SIZES)
def test_h10_fine_scales_are_each_elements_bubble_tail(num_elements, degree, jittered):
    # with the coarse field annihilated, u_prime on each element is the
    # tail sum_{j >= p} c_j b_j of G_e f's bubble series: within 4 eps
    # h_e^2 max |f| of the exact u - Pi u, h_e the element's width, with
    # no rounding of |u| in it, and exactly zero at every vertex
    family, poly, grid, exact, fine = _case(num_elements, degree, jittered)
    fns = DualFunctionals(ProjectionFlavor.H10, family)
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(degree))
    bounds = family.mesh.boundaries
    width = np.diff(bounds)[np.clip(np.searchsorted(bounds, grid, side="right") - 1,
                                    0, num_elements - 1)]
    scale = EPS * width**2 * np.max(np.abs(poly.source(np.linspace(0.0, 1.0, 10001))))
    at_vertex = np.isin(grid, bounds)
    for u_bar in (h10_project_from_source(fns, poly.source),
                  project(fns, poly.solution, poly.gradient)):
        u_prime = reconstruct_fine_scales(op, residual_from_field(u_bar, poly.source), grid)
        assert np.all(np.abs(u_prime - fine) <= ELEMENT_BOUND * scale)
        assert np.all(u_prime[at_vertex] == 0.0)


@pytest.mark.parametrize("jittered", [False, True], ids=["uniform", "jittered"])
def test_the_global_route_fails_the_exact_columns(jittered):
    # the former route through the global stiffness K puts cond(K) eps into
    # u_bar and, with the opposite sign, into u_prime: at N = 1024, p = 2 it
    # misses both bounds by over a hundredfold, where the local route meets
    # them (above)
    family, poly, grid, exact, fine = _case(1024, 2, jittered)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = FineScaleOperator(GreensKernel1D.poisson(), fns, source_rule_points(2))
    for u_bar in (global_h10_project_from_source(fns, poly.source),
                  global_h10_project(fns, poly.solution, poly.gradient)):
        u_prime = global_h10_reconstruct(op, residual_from_field(u_bar, poly.source), grid)
        bar_error, prime_error = _errors(field_eval(u_bar, grid), u_prime, exact, fine)
        assert bar_error > 100.0 * BOUND and prime_error > 100.0 * BOUND
