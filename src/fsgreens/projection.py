"""L2 and H10 projections encoded by dual functionals.

Pairing a function with the functionals of a flavor yields the expansion
coefficients of its projection onto that flavor's target space directly:

* L2 flavor: the functionals are the dual nodal functions, the target
  space is the edge basis, and the pairing is the plain L2 inner product.
* H10 flavor: each functional is the discrete-Laplacian preimage of an
  interior nodal basis function (a stiffness solve), the target space is
  the interior nodal basis, and the pairing is the H10 semi-inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .basis1d import BasisFamily, Field, SpaceKind, lagrange_tab, pair_basis, tabulate_nodal
from .dualspace import DualSet, SPDMatrix, _assemble_gram, element_duals, tabulate_duals
from .quadrature import (
    composite_rule,
    default_quad_points,
    gauss_legendre_rule,
    sorted_unique,
)

_BOUNDARY_TOL = 1e-9


class ProjectionFlavor(Enum):
    L2 = "l2"
    H10 = "h10"


def assemble_stiffness(family: BasisFamily) -> SPDMatrix:
    """Interior-node stiffness matrix (homogeneous Dirichlet built in)."""
    if family.mesh.num_nodal_dofs < 3:
        raise ValueError("need at least one interior node for the H10 space")
    # one J from dx against two 1/J from the pulled-back derivatives
    full = _assemble_gram(family, lagrange_tab, deriv=1, jac_power=-1)
    return SPDMatrix(full[1:-1, 1:-1])


@dataclass(frozen=True)
class DualFunctionals:
    """The functionals encoding one projection flavor.

    For L2 the set wraps the dual nodal basis; for H10 it holds the
    interior stiffness K, and the functionals are the interior nodal
    basis pushed through K by solves.
    """

    flavor: ProjectionFlavor
    family: BasisFamily
    duals: DualSet | None = None
    stiffness: SPDMatrix | None = None

    @property
    def size(self) -> int:
        if self.flavor is ProjectionFlavor.L2:
            return self.duals.size
        return self.stiffness.entries.shape[0]


def build_dual_functionals(family: BasisFamily, flavor: ProjectionFlavor) -> DualFunctionals:
    """Build the functional set for a projection flavor on one basis family."""
    if flavor is ProjectionFlavor.L2:
        return DualFunctionals(flavor, family, duals=DualSet(family, SpaceKind.DUAL_NODAL))
    return DualFunctionals(flavor, family, stiffness=assemble_stiffness(family))


def tabulate_functionals(fns: DualFunctionals, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every functional's realizing function at x; shape (len(x), n)."""
    if fns.flavor is ProjectionFlavor.L2:
        return tabulate_duals(fns.duals, x, deriv=deriv)
    tab = tabulate_nodal(fns.family, x, deriv=deriv)[:, 1:-1]
    return fns.stiffness.solve(tab.T).T


def pair_functionals(fns: DualFunctionals, x, values, deriv: int = 0) -> np.ndarray:
    """Every functional's realizing function (or a derivative) paired with
    values at the points x: tabulate_functionals(fns, x, deriv).T @ values.

    Paired element by element, with no (points x N p) table: each L2 dual
    lives on one element, and the H10 functionals are the interior nodal
    basis pushed through K^{-1}, so the basis is paired first and one
    solve of the paired vector gives the result.
    """
    if fns.flavor is ProjectionFlavor.L2:
        cols, vals = element_duals(fns.duals, x, deriv)
        weighted = vals * np.asarray(values, dtype=float)[:, None]
        return np.bincount(cols.ravel(), weights=weighted.ravel(), minlength=fns.size)
    return fns.stiffness.solve(pair_basis(fns.family, SpaceKind.NODAL, x, values, deriv)[1:-1])


def interior_field(family: BasisFamily, interior: np.ndarray) -> Field:
    """The nodal field with the given interior coefficients and zero end values."""
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = interior
    return Field(family, SpaceKind.NODAL, coeffs)


def source_rule_points(family: BasisFamily, quad_points: int | None = None) -> int:
    """Gauss points per subinterval of the source rule: the degree's default,
    or quad_points.  Fewer than p points are rejected; p keep the
    degree-2p-1 pairings of functionals with basis derivatives exact."""
    npts = quad_points if quad_points is not None else default_quad_points(family.degree)
    if npts < family.degree:
        raise ValueError(f"the source rule needs at least p = {family.degree} points "
                         f"per subinterval, got {npts}")
    return npts


def mesh_quadrature(family: BasisFamily, quad_points: int | None = None,
                    breakpoints: Sequence[float] = ()):
    """The source rule: a composite Gauss rule of source_rule_points over all
    elements cut at extra breakpoints.  Breakpoints repeated or on a mesh
    boundary cut once, those outside the mesh are dropped and NaN raises
    ValueError."""
    mesh = family.mesh
    pts = np.asarray(breakpoints, dtype=float)
    bounds = sorted_unique(np.concatenate((mesh.boundaries,
                                           pts[~((pts < mesh.a) | (pts > mesh.b))])))
    return composite_rule(gauss_legendre_rule(source_rule_points(family, quad_points)), bounds)


def project(fns: DualFunctionals, f: Callable[[np.ndarray], np.ndarray],
            f_prime: Callable[[np.ndarray], np.ndarray] | None = None,
            quad_points: int | None = None,
            breakpoints: Sequence[float] = ()) -> Field:
    """Project f onto the flavor's target space via the dual pairing.

    The H10 pairing needs f'; pass it analytically when available,
    otherwise the projection is taken from values of f alone
    (`h10_project_values`).  H10 also requires homogeneous boundary
    values of f.  The L2 pairing reads values of f only and ignores
    f_prime, so one call serves both flavors.
    """
    family = fns.family
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    if fns.flavor is ProjectionFlavor.L2:
        coeffs = pair_functionals(fns, x, w * np.asarray(f(x), dtype=float))
        return Field(family, SpaceKind.EDGE, coeffs)
    mesh = family.mesh
    fa, fb = float(np.asarray(f(np.array([mesh.a])))[0]), float(np.asarray(f(np.array([mesh.b])))[0])
    end = max(abs(fa), abs(fb))
    # the check's scale is at least 1, so f is tabulated for it only past the tolerance
    if end > _BOUNDARY_TOL and end > _BOUNDARY_TOL * max(1.0, float(np.max(np.abs(f(x))))):
        raise ValueError(
            f"H10 projection needs zero boundary values, got f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    if f_prime is None:
        return interior_field(family, h10_project_values(fns, f, quad_points, breakpoints))
    df = np.asarray(f_prime(x), dtype=float)
    return interior_field(family, pair_functionals(fns, x, w * df, deriv=1))


def h10_project_from_source(fns: DualFunctionals,
                            source: Callable[[np.ndarray], np.ndarray],
                            quad_points: int | None = None,
                            breakpoints: Sequence[float] = ()) -> Field:
    """Exact H10 projection of the solution of -u'' = source, without solving.

    The diffusion problem is built into the H10 pairing: integrating the
    functionals against the source gives the projection of the exact
    (never computed) solution directly.
    """
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("source shortcut exists for the H10 flavor only")
    family = fns.family
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    return interior_field(family, pair_functionals(fns, x, w * np.asarray(source(x), dtype=float)))


def h10_project_values(fns: DualFunctionals,
                       u: Callable[[np.ndarray], np.ndarray],
                       quad_points: int | None = None,
                       breakpoints: Sequence[float] = ()) -> np.ndarray:
    """H10 projection coefficients of u using values of u only.

    Pi u = I u + Pi (u - I u), I u the piecewise-linear interpolant of u's
    vertex values, which the nodal space holds.  Integrated by parts on
    each element, the pairing of w = u - I u moves both derivatives onto
    the interior nodal basis, with no interface term, as w vanishes at
    every vertex.  Intended for sampled or interpolated fields whose
    derivative is unreliable; assumes u vanishes at both domain endpoints.
    Known kinks of u inside elements can be declared as extra breakpoints.
    """
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("value-only projection implemented for the H10 flavor")
    family = fns.family
    mesh = family.mesh
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    values = np.asarray(u(x), dtype=float)
    vertex = np.r_[0.0, u(mesh.boundaries[1:-1]), 0.0]
    fine = values - np.interp(x, mesh.boundaries, vertex)
    paired = -pair_basis(family, SpaceKind.NODAL, x, w * fine, deriv=2)[1:-1]
    # I u at each element's first p GLL nodes
    t = 0.5 * (family.ref_nodes[:-1] + 1.0)
    linear = np.ravel(vertex[:-1, None] * (1.0 - t) + vertex[1:, None] * t)
    return linear[1:] + fns.stiffness.solve(paired)
