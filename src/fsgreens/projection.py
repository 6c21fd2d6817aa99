"""L2 and H10 projections encoded by dual functionals.

Pairing a function with the functionals of a flavor yields the expansion
coefficients of its projection onto that flavor's target space directly:

* L2 flavor: the functionals are the dual nodal functions, the target
  space is the edge basis, and the pairing is the plain L2 inner product.
* H10 flavor: each functional is the discrete-Laplacian preimage of an
  interior nodal basis function, the target space is the interior nodal
  basis, and the pairing is the H10 semi-inner product.

In 1D the H10 projection interpolates u at the mesh vertices (Tong, AIAA J.
7(1), 1969), so nothing here assembles or solves with the global stiffness
K: ū, and a functional table, the projection of a kernel column, are vertex
values plus each element's Lobatto bubbles (`_h10_local`), with no solve or cond(K)
eps; from a source one Green's pass gives both.  `dualspace` forms K, unfactored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .basis1d import BasisFamily, Field, SpaceKind, _locate, pair_basis, tabulate_nodal
from .dualspace import DualSet, tabulate_duals
from .kernels import _check_unit_mesh, _lobatto_bubbles, _poisson_cells, poisson_green
from .quadrature import composite_rule, cut_ends, gauss_legendre_rule

_BOUNDARY_TOL = 1e-9
# Points per subinterval for integrals against a source (the source rule),
# at least; `source_rule_points` grows it with the degree.  The mass,
# stiffness and Gram use the exact rule of their degree instead.
DEFAULT_QUAD_POINTS = 20


class ProjectionFlavor(Enum):
    L2 = "l2"
    H10 = "h10"


@dataclass(frozen=True)
class DualFunctionals:
    """The functionals encoding one projection flavor.

    For L2 the set wraps the dual nodal basis.  The H10 functionals are
    K^{-1} psi, psi the interior nodal basis and K its stiffness, which
    the set does not hold; their number is read from the mesh.
    """

    flavor: ProjectionFlavor
    family: BasisFamily
    duals: DualSet | None = None

    @property
    def size(self) -> int:
        if self.flavor is ProjectionFlavor.L2:
            return self.duals.size
        return self.family.mesh.num_nodal_dofs - 2


def build_dual_functionals(family: BasisFamily, flavor: ProjectionFlavor) -> DualFunctionals:
    """Build the functional set for a projection flavor on one basis family."""
    if flavor is ProjectionFlavor.L2:
        return DualFunctionals(flavor, family, duals=DualSet(family, SpaceKind.DUAL_NODAL))
    if family.mesh.num_nodal_dofs < 3:
        raise ValueError("need at least one interior node for the H10 space")
    return DualFunctionals(flavor, family)


def tabulate_functionals(fns: DualFunctionals, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every functional's realizing function at x; shape (len(x), n).

    The H10 column of x, K^{-1} psi^(d)(x), is the H10 projection of
    d^d/dx^d g(., x), g the kernel of -u'' on the mesh (`_h10_local`): its
    loads are psi^(d)(x), and its vertex values at t = (s - a) / (b - a)
    are (b - a) g(t_i, t_x), 1[i > e(x)] - t_i with e(x) x's element (the
    left one on an inner vertex) or zero, for d = 0, 1 or more.
    """
    if fns.flavor is ProjectionFlavor.L2:
        return tabulate_duals(fns.duals, x, deriv=deriv)
    mesh = fns.family.mesh
    width = mesh.b - mesh.a
    t, tx = (mesh.boundaries - mesh.a) / width, (np.atleast_1d(x) - mesh.a) / width
    if deriv == 0:
        vertex = width * poisson_green(t[:, None], tx[None, :])
    elif deriv == 1:
        vertex = (np.arange(t.size)[:, None] > _locate(mesh.boundaries, x)[0]) - t[:, None]
    else:
        vertex = np.zeros((t.size, tx.size))
    return _h10_local(fns.family, vertex, tabulate_nodal(fns.family, x, deriv=deriv).T).T


def interior_field(family: BasisFamily, interior: np.ndarray) -> Field:
    """The nodal field with the given interior coefficients and zero end values."""
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = interior
    return Field(family, SpaceKind.NODAL, coeffs)


def source_rule_points(degree: int, quad_points: int | None = None) -> int:
    """Gauss points per subinterval of the source rule for degree-p bases:
    quad_points, or max(DEFAULT_QUAD_POINTS, p + 8) without it.  Fewer than
    p points are rejected; p keep the degree-2p-1 pairings of functionals
    with basis derivatives exact."""
    npts = quad_points if quad_points is not None else max(DEFAULT_QUAD_POINTS, degree + 8)
    if npts < degree:
        raise ValueError(f"the source rule needs at least p = {degree} points "
                         f"per subinterval, got {npts}")
    return npts


def mesh_quadrature(family: BasisFamily, quad_points: int | None = None,
                    breakpoints: Sequence[float] = ()):
    """The source rule: a composite Gauss rule of source_rule_points over all
    elements cut at extra breakpoints (`quadrature.cut_ends`: breakpoints
    repeated or on a mesh boundary cut once, those outside the mesh are
    dropped and NaN raises ValueError)."""
    mesh = family.mesh
    return composite_rule(gauss_legendre_rule(source_rule_points(mesh.degree, quad_points)),
                          cut_ends(mesh.boundaries, breakpoints))


def _h10_local(family: BasisFamily, vertex, loads) -> np.ndarray:
    """Pi u's interior nodal coefficients from u's N + 1 vertex values and
    the nodal loads (psi_k', u'), each a vector or one column per u: the
    linear interpolant I u of the vertex values plus, on each element, the
    projection of u - I u onto its bubbles, whose loads are u's as I u' is
    constant there.  It is the orthogonal expansion J_e sum_{k<p} (2k + 1)
    / 2 b_k (b_k', u') in the Lobatto bubbles (`kernels._lobatto_bubbles`),
    of squared H10 norm 2 / ((2k + 1) J_e): no stiffness is inverted."""
    mesh = family.mesh
    num, p = mesh.num_elements, mesh.degree
    vertex = np.asarray(vertex, dtype=float)
    cols = vertex[0].size
    v = vertex.reshape(num + 1, 1, cols)
    t = 0.5 * (family.ref_nodes[:-1, None] + 1.0)
    # I u at each element's first p GLL nodes, then the bubbles at its inner ones
    coeffs = v[:-1] * (1.0 - t) + v[1:] * t
    if p > 1:
        # T[i, k] = (2k + 1) b_k(xi_i), so T diag(1 / (2 (2k + 1))) T^T maps loads to bubbles
        table = _lobatto_bubbles(family.ref_nodes[1:-1], p - 1)
        expand = (table / (2.0 * (2.0 * np.arange(1, p) + 1.0))) @ table.T
        inner = np.asarray(loads, dtype=float)[:-1].reshape(num, p, cols)[:, 1:]
        coeffs[:, 1:] += mesh.jacobian(np.arange(num))[:, None, None] * (expand @ inner)
    return coeffs.reshape((num * p,) + vertex.shape[1:])[1:]


def project(fns: DualFunctionals, f: Callable[[np.ndarray], np.ndarray],
            f_prime: Callable[[np.ndarray], np.ndarray] | None = None,
            quad_points: int | None = None,
            breakpoints: Sequence[float] = ()) -> Field:
    """Project f onto the flavor's target space via the dual pairing, the
    one 1D pairing: the CLI's u_bar, and G src and coarse fields in `finescale`.

    The L2 pairing reads values of f only and ignores f_prime, so one call
    serves both flavors.  H10 needs zero boundary values of f and reads f
    at the vertices once, for that check and for `_h10_local`, with the
    loads (psi_k', f') from f' or, without it, from values of f alone, by
    parts on each element with no interface term, as f - I f vanishes at
    every vertex.  That form suits fields whose derivative is unreliable;
    kinks of f inside elements can be declared as breakpoints, and then a
    field of degree q is exact on max(p, (p + q) // 2 + 1) points, p the floor.
    """
    family = fns.family
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    if fns.flavor is ProjectionFlavor.L2:
        coeffs = pair_basis(family, SpaceKind.DUAL_NODAL, x, w * np.asarray(f(x), dtype=float))
        return Field(family, SpaceKind.EDGE, coeffs)
    nodes = family.mesh.boundaries
    vertex = np.array(np.broadcast_to(np.asarray(f(nodes), dtype=float), nodes.shape))
    end = max(abs(vertex[0]), abs(vertex[-1]))
    # the check's scale is at least 1, so f is tabulated for it only past the tolerance
    if end > _BOUNDARY_TOL and end > _BOUNDARY_TOL * max(1.0, float(np.max(np.abs(f(x))))):
        raise ValueError(f"H10 projection needs zero boundary values, got "
                         f"f(a)={vertex[0]:.3e}, f(b)={vertex[-1]:.3e}")
    vertex[[0, -1]] = 0.0
    if f_prime is None:
        fine = np.asarray(f(x), dtype=float) - np.interp(x, nodes, vertex)
        loads = -pair_basis(family, SpaceKind.NODAL, x, w * fine, deriv=2)
    else:
        loads = pair_basis(family, SpaceKind.NODAL, x, w * np.asarray(f_prime(x), float), deriv=1)
    return interior_field(family, _h10_local(family, vertex, loads))


def _green_and_h10(fns: DualFunctionals, source: Callable[[np.ndarray], np.ndarray],
                   quad_points: int | None = None, breakpoints: Sequence[float] = ()):
    """u = G source, as its cells (`kernels._poisson_cells`: one tabulation
    of the source per cell of the mesh cut at the breakpoints), and u's H10
    projection's interior coefficients, from the same tabulation: u's
    vertex values, each a cell end's (a mesh end up to 1e-14 outside [0, 1]
    reads the value at 0 or 1), and loads (psi_k', u') = (psi_k, source)."""
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("source shortcut exists for the H10 flavor only")
    family = fns.family
    _check_unit_mesh(family.mesh)
    nodes = family.mesh.boundaries
    green = _poisson_cells(source, np.concatenate((nodes, breakpoints)),
                           source_rule_points(family.degree, quad_points))
    loads = pair_basis(family, SpaceKind.NODAL, green.points, green.weighted)
    return green, _h10_local(family, green(nodes), loads)


def h10_project_from_source(fns: DualFunctionals,
                            source: Callable[[np.ndarray], np.ndarray],
                            quad_points: int | None = None,
                            breakpoints: Sequence[float] = ()) -> Field:
    """Exact H10 projection of the solution of -u'' = source, without
    solving: the H10 pairing builds in the diffusion problem, and one
    tabulation of the source gives u's vertex values and loads
    (`_green_and_h10`)."""
    return interior_field(fns.family, _green_and_h10(fns, source, quad_points, breakpoints)[1])
