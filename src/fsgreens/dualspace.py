"""Mass matrices and the algebraic dual bases they induce.

The dual edge functions are the nodal basis pushed through the inverse
nodal mass matrix; the dual nodal functions are the edge basis pushed
through the inverse edge mass matrix.  Each dual family is biorthogonal to
its primal partner in L2.

Edge functions never cross an element, so the edge mass matrix is block
diagonal, element e's block being the reference edge mass over J_e, and
every dual nodal function lives on one element.  A dual set is its family
and its kind; it reads the mass that these fix on first use.  Dual nodal
functions are tabulated like the edge basis, by `basis1d.element_tab`,
with per-element solves with the family's p x p reference edge mass, the
only mass a dual nodal set holds; the dual edge functions solve with the
global nodal mass.  A dual nodal set also caches its reference duals'
two hat moments and their Lobatto bubble table, from which the
closed-form L2 lifts and Gram of `finescale` follow.  Duals are always
evaluated through solves, never through explicit inverses of a mass
matrix.  The global nodal mass and the interior stiffness are plain
arrays, assembled element by element by one helper from the family's
reference Grams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis1d import (BasisFamily, SpaceKind, _global_scatter, _reference_duals, element_tab,
                      tabulate_nodal)
from .kernels import _lobatto_bubbles
from .quadrature import gauss_legendre_rule


def _assemble_gram(family: BasisFamily, ref_gram: np.ndarray, jac_power: int) -> np.ndarray:
    """Sum J_e^jac_power times a reference Gram matrix into every element's
    slice.

    Consecutive elements share their first and last local function when the
    Gram has p + 1 rows (nodal), and nothing when it has p (edge).
    """
    mesh = family.mesh
    p = mesh.degree
    nloc = ref_gram.shape[0]
    ndof = (mesh.num_elements - 1) * p + nloc
    entries = np.zeros((ndof, ndof))
    for n in range(mesh.num_elements):
        sl = slice(n * p, n * p + nloc)
        entries[sl, sl] += mesh.jacobian(n) ** jac_power * ref_gram
    return entries


def assemble_mass(family: BasisFamily) -> np.ndarray:
    """The global nodal mass matrix: adjacent elements sum their shared
    interface node's contributions."""
    return _assemble_gram(family, family.nodal_mass, jac_power=1)


def assemble_stiffness(family: BasisFamily) -> np.ndarray:
    """Interior-node stiffness matrix (homogeneous Dirichlet built in)."""
    if family.mesh.num_nodal_dofs < 3:
        raise ValueError("need at least one interior node for the H10 space")
    # one J from dx against two 1/J from the pulled-back derivatives
    return _assemble_gram(family, family.nodal_stiffness, jac_power=-1)[1:-1, 1:-1]


@dataclass(frozen=True)
class DualSet:
    """A dual basis: the primal family plus the kind of its duals.

    The mass it solves with is the one its kind fixes, read on first use:
    the family's p x p reference edge mass for a dual nodal set, the global
    nodal mass for a dual edge set.
    """

    family: BasisFamily
    kind: SpaceKind

    def __post_init__(self):
        if self.kind not in (SpaceKind.DUAL_NODAL, SpaceKind.DUAL_EDGE):
            raise ValueError("DualSet kind must be dual-nodal or dual-edge")

    @functools.cached_property
    def mass(self) -> np.ndarray:
        return self.family.edge_mass if self.kind is SpaceKind.DUAL_NODAL \
            else assemble_mass(self.family)

    @property
    def size(self) -> int:
        mesh = self.family.mesh
        return mesh.num_edge_dofs if self.kind is SpaceKind.DUAL_NODAL else mesh.num_nodal_dofs

    @functools.cached_property
    def reference_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """The p reference dual nodal functions' hat moments int (1 -/+ xi)
        / 2 mu_j d xi, shape (2, p), and bubble table C[j, k] = (2k + 1) / 2
        int mu_j b_k d xi, k = 1 .. p, on the exact (p + 1)-point rule, b_k
        the Lobatto bubbles (`kernels._lobatto_bubbles`)."""
        p = self.family.degree
        rule = gauss_legendre_rule(p + 1)
        duals = _reference_duals(self.family, rule.nodes) * rule.weights[:, None]
        hats = 0.5 * np.stack((1.0 - rule.nodes, 1.0 + rule.nodes)) @ duals
        return hats, 0.5 * duals.T @ _lobatto_bubbles(rule.nodes, p)

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """The moments int s mu_j ds and int (1 - s) mu_j ds of every dual
        nodal function mu_j, shape (2, N, p): by element, then the element's
        duals; J (a m_j + b n_j) and J ((1 - a) m_j + (1 - b) n_j) on element
        [a, b] of half width J, m_j and n_j the hat moments."""
        mesh = self.family.mesh
        minus, plus = self.reference_moments[0]
        lo, hi = mesh.boundaries[:-1, None], mesh.boundaries[1:, None]
        jac = mesh.jacobian(np.arange(mesh.num_elements))[:, None]
        return np.stack((jac * (lo * minus + hi * plus),
                         jac * ((1.0 - lo) * minus + (1.0 - hi) * plus)))


def tabulate_duals(duals: DualSet, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every dual function at x: primal tabulation times inverse mass.

    The dual nodal functions are the dense form of `element_tab`.
    """
    family = duals.family
    if duals.kind is SpaceKind.DUAL_NODAL:
        return _global_scatter(*element_tab(family, duals.kind, x, deriv), duals.size)
    return np.linalg.solve(duals.mass, tabulate_nodal(family, x, deriv=deriv).T).T
