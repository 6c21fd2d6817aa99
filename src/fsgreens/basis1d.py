"""Nodal (Lagrange) and edge (histopolant) bases on multi-element GLL grids.

The nodal basis interpolates at the GLL points of each element and is
continuous across interfaces; the edge basis consists of the degree-(p-1)
polynomials whose integrals over consecutive GLL subintervals are
Kronecker deltas.  Global functions are reference functions composed with
the affine element map, edge functions carrying an extra 1/J.  The dual
nodal functions, the edge functions solved against the reference edge
mass, live on one element too, and `element_tab` tabulates all three.

Evaluation uses the second barycentric form with precomputed weights and a
spectral differentiation matrix, which stays well conditioned for the
clustered GLL nodes at high degree.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quadrature import gauss_legendre_rule, gll_nodes


class SpaceKind(Enum):
    NODAL = "nodal"
    EDGE = "edge"
    DUAL_NODAL = "dual-nodal"
    DUAL_EDGE = "dual-edge"


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Partition of [a, b] into elements sharing one polynomial degree;
    meshes compare and hash by identity, as their boundaries are an array."""

    a: float
    b: float
    num_elements: int
    degree: int
    boundaries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "boundaries", np.asarray(self.boundaries, dtype=float))
        if self.num_elements < 1 or self.degree < 1:
            raise ValueError("need at least one element and degree >= 1")
        if self.boundaries.size != self.num_elements + 1:
            raise ValueError("boundaries length must be num_elements + 1")
        # written so that NaN fails too
        if not np.all(np.diff(self.boundaries) > 0.0):
            raise ValueError("boundaries must be strictly increasing")
        if self.boundaries[0] != self.a or self.boundaries[-1] != self.b:
            raise ValueError("boundaries must start at a and end at b")

    @classmethod
    def uniform(cls, a: float, b: float, num_elements: int, degree: int) -> "Mesh1D":
        return cls(a, b, num_elements, degree, np.linspace(a, b, num_elements + 1))

    @property
    def num_nodal_dofs(self) -> int:
        return self.num_elements * self.degree + 1

    @property
    def num_edge_dofs(self) -> int:
        return self.num_elements * self.degree

    def element_width(self, n) -> np.ndarray:
        widths = np.diff(self.boundaries)
        return widths[n]

    def jacobian(self, n) -> np.ndarray:
        return 0.5 * self.element_width(n)


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    diff = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def _differentiation_matrix(nodes: np.ndarray, bary: np.ndarray) -> np.ndarray:
    # D[i, j] = d psi_j / dxi at node i = (w_j / w_i) / (x_i - x_j), i != j.
    diff = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(diff, 1.0)
    d = (bary[None, :] / bary[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


@dataclass(frozen=True, eq=False)
class BasisFamily:
    """Reference GLL basis data plus the mesh that globalises it; its
    reference Grams over [-1, 1] are each formed once, on first use.
    Families compare and hash by identity, as the library tests them
    (`fld.family is fns.family`)."""

    mesh: Mesh1D
    ref_nodes: np.ndarray = field(init=False, repr=False, default=None)
    bary_weights: np.ndarray = field(init=False, repr=False, default=None)
    diff_matrix: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        nodes = gll_nodes(self.mesh.degree)
        bary = _barycentric_weights(nodes)
        object.__setattr__(self, "ref_nodes", nodes)
        object.__setattr__(self, "bary_weights", bary)
        object.__setattr__(self, "diff_matrix", _differentiation_matrix(nodes, bary))

    @property
    def degree(self) -> int:
        return self.mesh.degree

    @functools.cached_property
    def nodal_mass(self) -> np.ndarray:
        return _reference_gram(self, lagrange_tab, deriv=0)

    @functools.cached_property
    def nodal_stiffness(self) -> np.ndarray:
        return _reference_gram(self, lagrange_tab, deriv=1)

    @functools.cached_property
    def edge_mass(self) -> np.ndarray:
        return _reference_gram(self, _reference_edge_tab, deriv=0)


def basis_family(mesh: Mesh1D) -> BasisFamily:
    return BasisFamily(mesh)


def lagrange_tab(family: BasisFamily, xi: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Tabulate all reference Lagrange polynomials (or a derivative) at xi.

    Returns an array of shape (len(xi), p+1).  Derivatives are obtained by
    multiplying the value tabulation with powers of the differentiation
    matrix, which is exact for polynomials.
    """
    return _lagrange_tab(family.ref_nodes, family.bary_weights, family.diff_matrix, xi, deriv)


def _lagrange_tab(nodes: np.ndarray, bary: np.ndarray, diff_matrix: np.ndarray,
                  xi: np.ndarray, deriv: int = 0) -> np.ndarray:
    """`lagrange_tab` on any reference nodes, given their barycentric
    weights and differentiation matrix; shape (len(xi), len(nodes))."""
    xi = np.asarray(xi, dtype=float)
    diff = np.subtract.outer(xi, nodes)
    exact = np.abs(diff) < 1e-14
    diff[exact] = 1.0
    tab = bary / diff
    denom = np.sum(tab, axis=-1, keepdims=True)
    tab = tab / denom
    if exact.any():
        tab[exact.any(axis=-1)] = 0.0
        tab[exact] = 1.0
    for _ in range(deriv):
        tab = tab @ diff_matrix
    return tab


def _reference_edge_tab(family: BasisFamily, xi: np.ndarray, deriv: int = 0) -> np.ndarray:
    # Edge polynomial j is -sum_{k<j} dpsi_k/dxi; one extra derivative order
    # on the nodal tabulation, then a cumulative sum over the leading columns.
    dtab = lagrange_tab(family, xi, deriv=deriv + 1)
    return -np.cumsum(dtab[:, : family.degree], axis=1)


def _reference_gram(family: BasisFamily, ref_tab, deriv: int) -> np.ndarray:
    """The Gram matrix over [-1, 1] of the reference tabulation `ref_tab`."""
    # p+2 Gauss points integrate the degree-2p Gram integrands exactly.
    rule = gauss_legendre_rule(family.degree + 2)
    tab = ref_tab(family, rule.nodes, deriv=deriv)
    return tab.T @ (rule.weights[:, None] * tab)


def _reference_duals(family: BasisFamily, xi, deriv: int = 0) -> np.ndarray:
    """The p dual nodal functions of one element at reference coordinates xi,
    before the J^-deriv pullback; shape (len(xi), p)."""
    edge = _reference_edge_tab(family, np.atleast_1d(xi), deriv=deriv)
    return np.linalg.solve(family.edge_mass, edge.T).T


def _element_cols(mesh: Mesh1D, elem: np.ndarray, nloc: int) -> np.ndarray:
    """Global columns of the nloc local functions of each point's element."""
    return elem[:, None] * mesh.degree + np.arange(nloc)[None, :]


def _global_scatter(cols: np.ndarray, vals: np.ndarray, ncols: int) -> np.ndarray:
    """The dense (points x ncols) table holding each point's local values."""
    out = np.zeros((vals.shape[0], ncols))
    out[np.arange(vals.shape[0])[:, None], cols] = vals
    return out


def _locate(bounds: np.ndarray, x):
    """Cell index, half width and reference coordinate in [-1, 1] of each
    point x among the cells between consecutive `bounds` (mesh elements or
    any finer cells).  A point on an inner bound goes to the left cell;
    points more than 1e-12 outside the bounds, NaN included, raise
    ValueError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    # written so that NaN fails too
    if not np.all((x >= bounds[0] - 1e-12) & (x <= bounds[-1] + 1e-12)):
        raise ValueError(f"evaluation points outside [{bounds[0]}, {bounds[-1]}]")
    cell = np.clip(np.searchsorted(bounds, x, side="left") - 1, 0, bounds.size - 2)
    half = 0.5 * (bounds[cell + 1] - bounds[cell])
    return cell, half, (x - bounds[cell]) / half - 1.0


def element_tab(family: BasisFamily, space: SpaceKind, x,
                deriv: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero part of the nodal, edge or dual nodal tabulation at x.

    Returns (cols, vals), (len(x), p+1) for nodal and (len(x), p) otherwise:
    each point's local functions in its element, as global column indices
    and values.  Points on interior element boundaries take the left
    element's (one-sided) values, which matters only for derivatives.  All
    carry 1/J per derivative order, edge functions one more from the
    pullback, which the dual nodal solve with the edge mass block, the
    reference one over J, cancels.
    """
    mesh = family.mesh
    elem, jac, xi = _locate(mesh.boundaries, x)
    if space is SpaceKind.NODAL:
        local, power = lagrange_tab(family, xi, deriv=deriv), deriv
    elif space is SpaceKind.EDGE:
        local, power = _reference_edge_tab(family, xi, deriv=deriv), deriv + 1
    elif space is SpaceKind.DUAL_NODAL:
        local, power = _reference_duals(family, xi, deriv=deriv), deriv
    else:
        raise ValueError("element tables exist for the nodal, edge and dual nodal spaces")
    return _element_cols(mesh, elem, local.shape[1]), local * (jac ** float(-power))[:, None]


def tabulate_nodal(family: BasisFamily, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every global nodal basis function at the points x.

    Shape (len(x), N p + 1); the dense form of `element_tab`.
    """
    cols, vals = element_tab(family, SpaceKind.NODAL, x, deriv)
    return _global_scatter(cols, vals, family.mesh.num_nodal_dofs)


def tabulate_edge(family: BasisFamily, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every global edge basis function at the points x.

    Shape (len(x), N p); the dense form of `element_tab`.
    """
    cols, vals = element_tab(family, SpaceKind.EDGE, x, deriv)
    return _global_scatter(cols, vals, family.mesh.num_edge_dofs)


def pair_basis(family: BasisFamily, space: SpaceKind, x, values,
               deriv: int = 0) -> np.ndarray:
    """Every nodal, edge or dual nodal function paired with point values:
    the element-by-element sum equal to the dense table's transpose @ values."""
    cols, vals = element_tab(family, space, x, deriv)
    ndof = family.mesh.num_nodal_dofs if space is SpaceKind.NODAL else family.mesh.num_edge_dofs
    weighted = vals * np.asarray(values, dtype=float)[:, None]
    return np.bincount(cols.ravel(), weights=weighted.ravel(), minlength=ndof)


@dataclass(frozen=True)
class Field:
    """Discrete function: a primal space tag (nodal or edge) plus a
    coefficient vector."""

    family: BasisFamily
    space: SpaceKind
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        mesh = self.family.mesh
        expected = {
            SpaceKind.NODAL: mesh.num_nodal_dofs,
            SpaceKind.EDGE: mesh.num_edge_dofs,
        }.get(self.space)
        if expected is None:
            raise ValueError(f"a field lives in a primal nodal/edge space, not "
                             f"{self.space.value}")
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"{self.space.value} field needs {expected} coefficients, "
                f"got {self.coeffs.shape}"
            )


def field_eval(fld: Field, x, deriv: int = 0):
    """Evaluate a field, optionally differentiated.

    Each point gathers the coefficients of its element's local functions.
    """
    cols, vals = element_tab(fld.family, fld.space, x, deriv)
    out = np.einsum("ij,ij->i", vals, fld.coeffs[cols])
    return float(out[0]) if np.isscalar(x) else out
