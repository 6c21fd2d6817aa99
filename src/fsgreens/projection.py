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

from .basis1d import BasisFamily, Field, SpaceKind, lagrange_tab, nodal_deriv_jumps, tabulate_nodal
from .dualspace import DualSet, SPDMatrix, _assemble_gram, build_duals, tabulate_duals
from .quadrature import (
    composite_rule,
    default_quad_points,
    gauss_legendre_rule,
)

_FD_STEP = 1e-6
_BOUNDARY_TOL = 1e-9


class ProjectionFlavor(Enum):
    L2 = "l2"
    H10 = "h10"


def assemble_stiffness(family: BasisFamily, quad_points: int | None = None) -> SPDMatrix:
    """Interior-node stiffness matrix (homogeneous Dirichlet built in)."""
    if family.mesh.num_nodal_dofs < 3:
        raise ValueError("need at least one interior node for the H10 space")
    # one J from dx against two 1/J from the pulled-back derivatives
    full = _assemble_gram(family, lagrange_tab, deriv=1, jac_power=-1, quad_points=quad_points)
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

    @property
    def target_space(self) -> SpaceKind:
        return SpaceKind.EDGE if self.flavor is ProjectionFlavor.L2 else SpaceKind.NODAL


def build_dual_functionals(family: BasisFamily, flavor: ProjectionFlavor,
                           quad_points: int | None = None) -> DualFunctionals:
    """Build the functional set for a projection flavor on one basis family."""
    if flavor is ProjectionFlavor.L2:
        return DualFunctionals(flavor, family,
                               duals=build_duals(family, SpaceKind.DUAL_NODAL, quad_points))
    return DualFunctionals(flavor, family, stiffness=assemble_stiffness(family, quad_points))


def tabulate_functionals(fns: DualFunctionals, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every functional's realizing function at x; shape (len(x), n)."""
    if fns.flavor is ProjectionFlavor.L2:
        return tabulate_duals(fns.duals, x, deriv=deriv)
    tab = tabulate_nodal(fns.family, x, deriv=deriv)[:, 1:-1]
    return fns.stiffness.solve(tab.T).T


def mesh_quadrature(family: BasisFamily, quad_points: int | None = None,
                    breakpoints: Sequence[float] = ()):
    """Composite Gauss rule over all elements plus optional extra breakpoints."""
    npts = quad_points if quad_points is not None else default_quad_points(family.degree)
    pts = np.asarray(breakpoints, dtype=float)
    bounds = np.unique(np.concatenate((family.mesh.boundaries, pts)))
    return composite_rule(gauss_legendre_rule(npts), bounds)


def _finite_difference(f: Callable[[np.ndarray], np.ndarray]):
    def df(x):
        return (np.asarray(f(x + _FD_STEP)) - np.asarray(f(x - _FD_STEP))) / (2.0 * _FD_STEP)

    return df


def project(fns: DualFunctionals, f: Callable[[np.ndarray], np.ndarray],
            f_prime: Callable[[np.ndarray], np.ndarray] | None = None,
            quad_points: int | None = None,
            breakpoints: Sequence[float] = ()) -> Field:
    """Project f onto the flavor's target space via the dual pairing.

    The H10 pairing needs f'; pass it analytically when available,
    otherwise a central difference with step 1e-6 is used.  H10 also
    requires homogeneous boundary values of f.
    """
    family = fns.family
    x, w = mesh_quadrature(family, quad_points, breakpoints)
    if fns.flavor is ProjectionFlavor.L2:
        tab = tabulate_functionals(fns, x)
        coeffs = tab.T @ (w * np.asarray(f(x), dtype=float))
        return Field(family, SpaceKind.EDGE, coeffs)
    mesh = family.mesh
    fa, fb = float(np.asarray(f(np.array([mesh.a])))[0]), float(np.asarray(f(np.array([mesh.b])))[0])
    scale = max(1.0, float(np.max(np.abs(f(x)))))
    if max(abs(fa), abs(fb)) > _BOUNDARY_TOL * scale:
        raise ValueError(
            f"H10 projection needs zero boundary values, got f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    df = f_prime if f_prime is not None else _finite_difference(f)
    dtab = tabulate_functionals(fns, x, deriv=1)
    interior = dtab.T @ (w * np.asarray(df(x), dtype=float))
    coeffs = np.zeros(mesh.num_nodal_dofs)
    coeffs[1:-1] = interior
    return Field(family, SpaceKind.NODAL, coeffs)


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
    tab = tabulate_functionals(fns, x)
    interior = tab.T @ (w * np.asarray(source(x), dtype=float))
    coeffs = np.zeros(family.mesh.num_nodal_dofs)
    coeffs[1:-1] = interior
    return Field(family, SpaceKind.NODAL, coeffs)


def h10_project_values(fns: DualFunctionals,
                       u: Callable[[np.ndarray], np.ndarray],
                       quad_points: int | None = None,
                       breakpoints: Sequence[float] = ()) -> np.ndarray:
    """H10 projection coefficients of u using values of u only.

    Element-wise integration by parts moves both derivatives of the
    pairing onto the (piecewise polynomial) functionals, leaving element
    integrals of u against their second derivatives plus interface terms
    weighted by their one-sided first-derivative jumps.  Intended for
    sampled or interpolated fields whose derivative is unreliable; assumes
    u vanishes at both domain endpoints.  Known kinks of u inside elements
    can be declared as extra breakpoints.
    """
    if fns.flavor is not ProjectionFlavor.H10:
        raise ValueError("value-only projection implemented for the H10 flavor")
    family = fns.family
    mesh = family.mesh
    pts = np.asarray(breakpoints, dtype=float)
    x, w = mesh_quadrature(family, quad_points, pts[(pts >= mesh.a) & (pts <= mesh.b)])
    coeffs = -tabulate_functionals(fns, x, deriv=2).T @ (w * np.asarray(u(x), dtype=float))
    interfaces = mesh.boundaries[1:-1]
    if interfaces.size:
        # one-sided derivative jumps of the functionals, left minus right
        jumps = -fns.stiffness.solve(nodal_deriv_jumps(family).T).T
        coeffs += jumps.T @ np.asarray(u(interfaces), dtype=float)
    return coeffs

