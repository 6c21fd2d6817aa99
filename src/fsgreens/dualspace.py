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
global nodal mass.  A dual nodal set also caches two
antiderivatives of its reference duals, from which its moments
int s mu_j and int (1 - s) mu_j over any part of an element follow
(`partial_moments`), as the closed-form L2 lifts of `finescale` need
them.  Duals are always evaluated through solves, never through explicit
inverses of a mass matrix.  The global nodal mass and the interior
stiffness are plain arrays, assembled element by element by one helper
from the family's reference Grams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis1d import (BasisFamily, SpaceKind, _barycentric_weights, _global_scatter,
                      _lagrange_tab, _reference_duals, element_tab, tabulate_nodal)
from .quadrature import gauss_legendre_rule, gll_nodes, map_rule


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
    def _antiderivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the p + 2 GLL nodes of degree p + 1, their barycentric weights and
        # the two antiderivatives there, each node's integral on the exact
        # (p // 2 + 1)-point rule
        nodes = gll_nodes(self.family.degree + 1)
        s, w = map_rule(gauss_legendre_rule(self.family.degree // 2 + 1),
                        np.full(nodes.size, -1.0), nodes)
        duals = _reference_duals(self.family, s.ravel()).reshape(s.shape + (-1,))
        table = [np.einsum("kq,kqj->kj", w * (1.0 + sign * s), duals) for sign in (-1.0, 1.0)]
        return nodes, _barycentric_weights(nodes), np.stack(table)

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """The moments int s mu_j ds and int (1 - s) mu_j ds of every dual
        nodal function mu_j, shape (2, N, p): by element, then the
        element's duals."""
        num = self.family.mesh.num_elements
        return partial_moments(self, np.arange(num), np.ones(num))


def tabulate_duals(duals: DualSet, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every dual function at x: primal tabulation times inverse mass.

    The dual nodal functions are the dense form of `element_tab`.
    """
    family = duals.family
    if duals.kind is SpaceKind.DUAL_NODAL:
        return _global_scatter(*element_tab(family, duals.kind, x, deriv), duals.size)
    return np.linalg.solve(duals.mass, tabulate_nodal(family, x, deriv=deriv).T).T


def partial_moments(duals: DualSet, elem, xi) -> np.ndarray:
    """int_{a_e}^x s mu_j ds and int_{a_e}^x (1 - s) mu_j ds for the p dual
    nodal functions mu_j of each point's element e = [a_e, b_e], x at
    reference coordinate xi in it; shape (2, len(xi), p).

    The antiderivatives M_j and P_j of (1 - eta) mu_j and (1 + eta) mu_j on
    the reference element are polynomials of degree p + 1, so their values
    at the p + 2 GLL nodes of degree p + 1, integrated once per set, give
    them everywhere by interpolation.  With s = a_e (1 - eta) / 2 + b_e
    (1 + eta) / 2 and ds = J_e d eta they give J_e / 2 (a_e M_j + b_e P_j)
    and J_e / 2 ((1 - a_e) M_j + (1 - b_e) P_j).
    """
    nodes, bary, table = duals._antiderivatives
    minus, plus = _lagrange_tab(nodes, bary, None, np.atleast_1d(xi)) @ table
    mesh = duals.family.mesh
    lo, hi = mesh.boundaries[elem][:, None], mesh.boundaries[elem + 1][:, None]
    half = 0.5 * mesh.jacobian(elem)[:, None]
    return np.stack((half * (lo * minus + hi * plus),
                     half * ((1.0 - lo) * minus + (1.0 - hi) * plus)))
