"""Mass matrices and the algebraic dual bases they induce.

The dual edge functions are the nodal basis pushed through the inverse
nodal mass matrix; the dual nodal functions are the edge basis pushed
through the inverse edge mass matrix.  Each dual family is biorthogonal to
its primal partner in L2.

Edge functions never cross an element, so the edge mass matrix is block
diagonal, element e's block being the reference edge mass over J_e, and
every dual nodal function lives on one element.  A dual set is its family
and its kind; it forms the mass that these fix on first use.  Dual nodal
functions are tabulated by per-element solves with one cached Cholesky
factor of the p x p reference edge mass, the only mass a dual nodal set
holds; the dual edge functions go through the cached factor of the global
nodal mass.  A dual nodal set also caches two antiderivatives of its
reference duals, from which its moments int s mu_j and int (1 - s) mu_j
over any part of an element follow (`partial_moments`), as the
closed-form L2 lifts of `finescale` need them.  Duals are always
evaluated through solves, never through explicit inverses of a mass
matrix; the H10 functionals of `projection` follow the same rule with the
interior stiffness.  The solves substitute through the Cholesky factor,
inverting only its diagonal blocks, which are at most
`_SUBSTITUTION_BLOCK` wide.  Mass and stiffness matrices are one
`SPDMatrix` type, assembled element by element by one helper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis1d import (BasisFamily, SpaceKind, _barycentric_weights, _element_cols,
                      _global_scatter, _lagrange_tab, _locate, _reference_edge_tab, lagrange_tab,
                      tabulate_nodal)
from .quadrature import gauss_legendre_rule, gll_nodes, map_rule

# Width of the diagonal blocks of the triangular substitution.
_SUBSTITUTION_BLOCK = 64


@dataclass(frozen=True)
class SPDMatrix:
    """Dense SPD Gram matrix of a basis (mass or stiffness), with a cached
    lower Cholesky factor L.

    numpy has no triangular solve, so L is solved by blocked substitution:
    the part off the diagonal blocks is one matrix product per block, and
    the diagonal blocks are inverted once, on the first solve.
    """

    entries: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        # by row blocks, so that the check forms no (n x n) temporary
        sym_err = scale = 0.0
        for lo in range(0, entries.shape[0], _SUBSTITUTION_BLOCK):
            rows = entries[lo:lo + _SUBSTITUTION_BLOCK]
            cols = entries[:, lo:lo + _SUBSTITUTION_BLOCK]
            sym_err = max(sym_err, np.max(np.abs(rows - cols.T)))
            scale = max(scale, np.max(np.abs(rows)))
        if sym_err > 1e-12 * max(1.0, scale):
            raise ValueError(f"Gram matrix not symmetric (error {sym_err:.2e})")
        try:
            chol = np.linalg.cholesky(self.entries)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Gram matrix not positive definite") from exc
        object.__setattr__(self, "_chol", chol)

    @functools.cached_property
    def _block_inverses(self) -> tuple:
        width = _SUBSTITUTION_BLOCK
        return tuple(np.linalg.inv(self._chol[lo:lo + width, lo:lo + width])
                     for lo in range(0, self._chol.shape[0], width))

    def substitute(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L^-1 rhs, or L^-T rhs with `transpose`, by forward (back)
        substitution over the diagonal blocks; rhs is one vector or one
        column per right side."""
        tri = self._chol.T if transpose else self._chol
        # row blocks of a C-ordered copy are contiguous, which the products favor
        x = np.array(rhs, dtype=float, order="C")
        n = tri.shape[0]
        blocks = list(enumerate(range(0, n, _SUBSTITUTION_BLOCK)))
        for b, lo in reversed(blocks) if transpose else blocks:
            hi = min(lo + _SUBSTITUTION_BLOCK, n)
            if transpose and hi < n:
                x[lo:hi] -= tri[lo:hi, hi:] @ x[hi:]
            elif not transpose and lo:
                x[lo:hi] -= tri[lo:hi, :lo] @ x[:lo]
            inverse = self._block_inverses[b]
            x[lo:hi] = (inverse.T if transpose else inverse) @ x[lo:hi]
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.substitute(self.substitute(rhs), transpose=True)


def _reference_gram(family: BasisFamily, ref_tab, deriv: int) -> np.ndarray:
    """The Gram matrix over [-1, 1] of the reference tabulation `ref_tab`."""
    # p+2 Gauss points integrate the degree-2p Gram integrands exactly.
    rule = gauss_legendre_rule(family.degree + 2)
    tab = ref_tab(family, rule.nodes, deriv=deriv)
    return tab.T @ (rule.weights[:, None] * tab)


def _assemble_gram(family: BasisFamily, ref_tab, deriv: int, jac_power: int) -> np.ndarray:
    """Sum J_e^jac_power times the reference Gram matrix of `ref_tab` into
    every element's slice.

    Consecutive elements share their first and last local function when the
    tabulation has p + 1 columns (nodal), and nothing when it has p (edge).
    """
    mesh = family.mesh
    p = mesh.degree
    ref_gram = _reference_gram(family, ref_tab, deriv)
    nloc = ref_gram.shape[0]
    ndof = (mesh.num_elements - 1) * p + nloc
    entries = np.zeros((ndof, ndof))
    for n in range(mesh.num_elements):
        sl = slice(n * p, n * p + nloc)
        entries[sl, sl] += mesh.jacobian(n) ** jac_power * ref_gram
    return entries


def assemble_mass(family: BasisFamily, kind: SpaceKind) -> SPDMatrix:
    """Assemble the global nodal or edge mass matrix.

    Nodal assembly sums the overlapping interface-node contributions of
    adjacent elements; the edge matrix is block diagonal because edge
    functions never cross element boundaries.
    """
    if kind is SpaceKind.NODAL:
        return SPDMatrix(_assemble_gram(family, lagrange_tab, deriv=0, jac_power=1))
    if kind is SpaceKind.EDGE:
        # two 1/J pullbacks against one J from dx
        return SPDMatrix(_assemble_gram(family, _reference_edge_tab, deriv=0, jac_power=-1))
    raise ValueError("mass matrices exist for the primal nodal/edge spaces")


@dataclass(frozen=True)
class DualSet:
    """A dual basis: the primal family plus the kind of its duals.

    The mass it solves with is the one its kind fixes, formed on first use:
    the p x p reference edge mass for a dual nodal set, the global nodal
    mass for a dual edge set.
    """

    family: BasisFamily
    kind: SpaceKind

    def __post_init__(self):
        if self.kind not in (SpaceKind.DUAL_NODAL, SpaceKind.DUAL_EDGE):
            raise ValueError("DualSet kind must be dual-nodal or dual-edge")

    @functools.cached_property
    def mass(self) -> SPDMatrix:
        if self.kind is SpaceKind.DUAL_NODAL:
            return SPDMatrix(_reference_gram(self.family, _reference_edge_tab, deriv=0))
        return assemble_mass(self.family, SpaceKind.NODAL)

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
        duals = _reference_duals(self, s.ravel()).reshape(s.shape + (-1,))
        table = [np.einsum("kq,kqj->kj", w * (1.0 + sign * s), duals) for sign in (-1.0, 1.0)]
        return nodes, _barycentric_weights(nodes), np.stack(table)

    @functools.cached_property
    def moments(self) -> np.ndarray:
        """The moments int s mu_j ds and int (1 - s) mu_j ds of every dual
        nodal function mu_j, shape (2, N, p): by element, then the
        element's duals."""
        num = self.family.mesh.num_elements
        return partial_moments(self, np.arange(num), np.ones(num))


def _reference_duals(duals: DualSet, xi, deriv: int = 0) -> np.ndarray:
    """The p dual nodal functions of one element at reference coordinates xi,
    before the J^-deriv pullback; shape (len(xi), p)."""
    edge = _reference_edge_tab(duals.family, np.atleast_1d(xi), deriv=deriv)
    return duals.mass.solve(edge.T).T


def tabulate_duals(duals: DualSet, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every dual function at x: primal tabulation times inverse mass.

    On element e the edge functions are J_e^-(deriv+1) times the reference
    ones and the edge mass block is the reference one over J_e, so the
    dual nodal functions are the reference duals times J_e^-deriv.
    """
    family = duals.family
    if duals.kind is SpaceKind.DUAL_NODAL:
        return _global_scatter(*element_duals(duals, x, deriv), family.mesh.num_edge_dofs)
    return duals.mass.solve(tabulate_nodal(family, x, deriv=deriv).T).T


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


def element_duals(duals: DualSet, x, deriv: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero part of the dual nodal tabulation at x, as `element_tab`
    gives it: each point's p duals in its element, (global columns, values)."""
    mesh = duals.family.mesh
    elem, jac, xi = _locate(mesh.boundaries, x)
    vals = _reference_duals(duals, xi, deriv) * (jac ** float(-deriv))[:, None]
    return _element_cols(mesh, elem, mesh.degree), vals
