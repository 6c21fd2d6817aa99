"""Mass matrices and the algebraic dual bases they induce.

The dual edge functions are the nodal basis pushed through the inverse
nodal mass matrix; the dual nodal functions are the edge basis pushed
through the inverse edge mass matrix.  Each dual family is biorthogonal to
its primal partner in L2.

Edge functions never cross an element, so the edge mass matrix is block
diagonal, element e's block being the reference edge mass over J_e, and
every dual nodal function lives on one element.  They are tabulated by
per-element solves with one cached Cholesky factor of the p x p reference
edge mass; the dual edge functions go through the cached factor of the
global nodal mass.  Duals are always evaluated through solves, never
through explicit inverses; the H10 functionals of `projection` follow the
same rule with the interior stiffness.  Mass and stiffness matrices are
one `SPDMatrix` type, assembled element by element by one helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .basis1d import (BasisFamily, SpaceKind, _element_coords, _global_scatter,
                      _reference_edge_tab, lagrange_tab, tabulate_nodal)
from .quadrature import gauss_legendre_rule


@dataclass(frozen=True)
class SPDMatrix:
    """Dense SPD Gram matrix of a basis (mass or stiffness), with a cached
    Cholesky factor."""

    entries: np.ndarray
    _factor: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        sym_err = np.max(np.abs(self.entries - self.entries.T))
        if sym_err > 1e-12 * max(1.0, np.max(np.abs(self.entries))):
            raise ValueError(f"Gram matrix not symmetric (error {sym_err:.2e})")
        try:
            factor = cho_factor(self.entries)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrix not positive definite") from exc
        object.__setattr__(self, "_factor", factor)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor, np.asarray(rhs, dtype=float))


def _assemble_gram(family: BasisFamily, ref_tab, deriv: int, jac_power: int,
                   quad_points: int | None) -> np.ndarray:
    """Sum J_e^jac_power times the reference Gram matrix of the reference
    tabulation `ref_tab(family, xi, deriv=deriv)` into every element's slice.

    Consecutive elements share their first and last local function when the
    tabulation has p + 1 columns (nodal), and nothing when it has p (edge).
    """
    mesh = family.mesh
    p = mesh.degree
    # p+2 Gauss points integrate the degree-2p Gram integrands exactly.
    rule = gauss_legendre_rule(quad_points if quad_points is not None else p + 2)
    tab = ref_tab(family, rule.nodes, deriv=deriv)
    ref_gram = tab.T @ (rule.weights[:, None] * tab)
    nloc = ref_gram.shape[0]
    ndof = (mesh.num_elements - 1) * p + nloc
    entries = np.zeros((ndof, ndof))
    for n in range(mesh.num_elements):
        sl = slice(n * p, n * p + nloc)
        entries[sl, sl] += mesh.jacobian(n) ** jac_power * ref_gram
    return entries


def assemble_mass(family: BasisFamily, kind: SpaceKind,
                  quad_points: int | None = None) -> SPDMatrix:
    """Assemble the global nodal or edge mass matrix.

    Nodal assembly sums the overlapping interface-node contributions of
    adjacent elements; the edge matrix is block diagonal because edge
    functions never cross element boundaries.
    """
    if kind is SpaceKind.NODAL:
        return SPDMatrix(_assemble_gram(family, lagrange_tab, deriv=0, jac_power=1,
                                        quad_points=quad_points))
    if kind is SpaceKind.EDGE:
        # two 1/J pullbacks against one J from dx
        return SPDMatrix(_assemble_gram(family, _reference_edge_tab, deriv=0, jac_power=-1,
                                        quad_points=quad_points))
    raise ValueError("mass matrices exist for the primal nodal/edge spaces")


@dataclass(frozen=True)
class DualSet:
    """A dual basis: primal family data plus the paired mass factorization.

    Dual nodal sets also cache the Cholesky factor of the reference edge
    mass, recovered from the first element's block of the edge mass.
    """

    family: BasisFamily
    kind: SpaceKind
    mass: SPDMatrix
    _ref_factor: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.kind not in (SpaceKind.DUAL_NODAL, SpaceKind.DUAL_EDGE):
            raise ValueError("DualSet kind must be dual-nodal or dual-edge")
        mesh = self.family.mesh
        dual_nodal = self.kind is SpaceKind.DUAL_NODAL
        # N p edge dofs against N p + 1 nodal ones: the size tells the two masses apart
        ndof = mesh.num_edge_dofs if dual_nodal else mesh.num_nodal_dofs
        if self.size != ndof:
            primal = "edge" if dual_nodal else "nodal"
            raise ValueError(f"{self.kind.value} duals need the {ndof}-dof {primal} "
                             f"mass matrix, got size {self.size}")
        if dual_nodal:
            p = self.family.degree
            ref_mass = self.mass.entries[:p, :p] * mesh.jacobian(0)
            object.__setattr__(self, "_ref_factor", cho_factor(ref_mass))

    @property
    def size(self) -> int:
        return self.mass.entries.shape[0]


def build_duals(family: BasisFamily, kind: SpaceKind,
                quad_points: int | None = None) -> DualSet:
    """Construct the dual-nodal (edge-based) or dual-edge (node-based) set."""
    primal = SpaceKind.EDGE if kind is SpaceKind.DUAL_NODAL else SpaceKind.NODAL
    return DualSet(family, kind, assemble_mass(family, primal, quad_points))


def _reference_duals(duals: DualSet, xi, deriv: int = 0) -> np.ndarray:
    """The p dual nodal functions of one element at reference coordinates xi,
    before the J^-deriv pullback; shape (len(xi), p)."""
    edge = _reference_edge_tab(duals.family, np.atleast_1d(xi), deriv=deriv)
    return cho_solve(duals._ref_factor, edge.T).T


def tabulate_duals(duals: DualSet, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every dual function at x: primal tabulation times inverse mass.

    On element e the edge functions are J_e^-(deriv+1) times the reference
    ones and the edge mass block is the reference one over J_e, so the
    dual nodal functions are the reference duals times J_e^-deriv.
    """
    family = duals.family
    if duals.kind is SpaceKind.DUAL_NODAL:
        mesh = family.mesh
        elem, jac, xi = _element_coords(mesh, x)
        return _global_scatter(mesh, elem, _reference_duals(duals, xi, deriv),
                               mesh.num_edge_dofs, jac ** float(-deriv))
    return duals.mass.solve(tabulate_nodal(family, x, deriv=deriv).T).T

