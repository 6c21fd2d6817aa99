"""Nodal (Lagrange) and edge (histopolant) bases on multi-element GLL grids.

The nodal basis interpolates at the GLL points of each element and is
continuous across interfaces; the edge basis consists of the degree-(p-1)
polynomials whose integrals over consecutive GLL subintervals are
Kronecker deltas.  Global functions are reference functions composed with
the affine element map, edge functions carrying an extra 1/J.

Evaluation uses the second barycentric form with precomputed weights and a
spectral differentiation matrix, which stays well conditioned for the
clustered GLL nodes at high degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .quadrature import gll_nodes


class SpaceKind(Enum):
    NODAL = "nodal"
    EDGE = "edge"
    DUAL_NODAL = "dual-nodal"
    DUAL_EDGE = "dual-edge"


@dataclass(frozen=True)
class Mesh1D:
    """Partition of [a, b] into elements sharing one polynomial degree."""

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
        if np.any(np.diff(self.boundaries) <= 0.0):
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


def find_element(mesh: Mesh1D, x: np.ndarray) -> np.ndarray:
    """Element index containing each x; points on interior boundaries go left."""
    idx = np.searchsorted(mesh.boundaries, x, side="left") - 1
    return np.clip(idx, 0, mesh.num_elements - 1)


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


@dataclass(frozen=True)
class BasisFamily:
    """Reference GLL basis data plus the mesh that globalises it."""

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


def basis_family(mesh: Mesh1D) -> BasisFamily:
    return BasisFamily(mesh)


def lagrange_tab(family: BasisFamily, xi: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Tabulate all reference Lagrange polynomials (or a derivative) at xi.

    Returns an array of shape (len(xi), p+1).  Derivatives are obtained by
    multiplying the value tabulation with powers of the differentiation
    matrix, which is exact for polynomials.
    """
    xi = np.asarray(xi, dtype=float)
    nodes, bary = family.ref_nodes, family.bary_weights
    diff = np.subtract.outer(xi, nodes)
    exact = np.abs(diff) < 1e-14
    diff[exact] = 1.0
    tab = bary / diff
    denom = np.sum(tab, axis=-1, keepdims=True)
    tab = tab / denom
    hit_rows = exact.any(axis=-1)
    if np.any(hit_rows):
        tab[hit_rows] = 0.0
        tab[exact] = 1.0
    for _ in range(deriv):
        tab = tab @ family.diff_matrix
    return tab


def _reference_edge_tab(family: BasisFamily, xi: np.ndarray, deriv: int = 0) -> np.ndarray:
    # Edge polynomial j is -sum_{k<j} dpsi_k/dxi; one extra derivative order
    # on the nodal tabulation, then a cumulative sum over the leading columns.
    dtab = lagrange_tab(family, xi, deriv=deriv + 1)
    return -np.cumsum(dtab[:, : family.degree], axis=1)


def _global_scatter(mesh: Mesh1D, elem: np.ndarray, local_tab: np.ndarray,
                    ncols: int, scale: np.ndarray) -> np.ndarray:
    npts, nloc = local_tab.shape
    out = np.zeros((npts, ncols))
    cols = elem[:, None] * mesh.degree + np.arange(nloc)[None, :]
    out[np.arange(npts)[:, None], cols] = local_tab * scale[:, None]
    return out


def _element_coords(mesh: Mesh1D, x):
    """Element index, Jacobian and reference coordinate of each point x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < mesh.a - 1e-12) or np.any(x > mesh.b + 1e-12):
        raise ValueError(f"evaluation points outside [{mesh.a}, {mesh.b}]")
    elem = find_element(mesh, x)
    jac = mesh.jacobian(elem)
    return elem, jac, (x - mesh.boundaries[elem]) / jac - 1.0


def tabulate_nodal(family: BasisFamily, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every global nodal basis function at the points x.

    Shape (len(x), N p + 1).  Points on interior element boundaries take
    the left element's (one-sided) values, which matters only for
    derivatives.
    """
    mesh = family.mesh
    elem, jac, xi = _element_coords(mesh, x)
    local = lagrange_tab(family, xi, deriv=deriv)
    return _global_scatter(mesh, elem, local, mesh.num_nodal_dofs, jac ** float(-deriv))


def tabulate_edge(family: BasisFamily, x, deriv: int = 0) -> np.ndarray:
    """Tabulate every global edge basis function at the points x.

    Shape (len(x), N p).  Edge functions are single-element and carry a
    1/J factor from the pullback, plus 1/J per derivative order.
    """
    mesh = family.mesh
    elem, jac, xi = _element_coords(mesh, x)
    local = _reference_edge_tab(family, xi, deriv=deriv)
    return _global_scatter(mesh, elem, local, mesh.num_edge_dofs, jac ** float(-(deriv + 1)))


def nodal_deriv_jumps(family: BasisFamily) -> np.ndarray:
    """Right-minus-left derivative jumps of the interior nodal basis at the
    interior mesh nodes; shape (num_elements - 1, num_nodal_dofs - 2)."""
    mesh = family.mesh
    p = mesh.degree
    ref = lagrange_tab(family, np.array([-1.0, 1.0]), deriv=1)
    jumps = np.zeros((mesh.num_elements - 1, mesh.num_nodal_dofs))
    for k in range(1, mesh.num_elements):
        jumps[k - 1, (k - 1) * p: k * p + 1] -= ref[1] / mesh.jacobian(k - 1)
        jumps[k - 1, k * p: (k + 1) * p + 1] += ref[0] / mesh.jacobian(k)
    return jumps[:, 1:-1]


def nodal_points(family: BasisFamily) -> np.ndarray:
    """Physical coordinates of the global nodal degrees of freedom."""
    mesh = family.mesh
    pts = np.empty(mesh.num_nodal_dofs)
    for n in range(mesh.num_elements):
        lo, hi = mesh.boundaries[n], mesh.boundaries[n + 1]
        mapped = 0.5 * (lo + hi) + 0.5 * (hi - lo) * family.ref_nodes
        pts[n * mesh.degree: (n + 1) * mesh.degree + 1] = mapped
    return pts


@dataclass(frozen=True)
class Field:
    """Discrete function: a space tag plus a coefficient vector."""

    family: BasisFamily
    space: SpaceKind
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        mesh = self.family.mesh
        expected = {
            SpaceKind.NODAL: mesh.num_nodal_dofs,
            SpaceKind.EDGE: mesh.num_edge_dofs,
            SpaceKind.DUAL_NODAL: mesh.num_edge_dofs,
            SpaceKind.DUAL_EDGE: mesh.num_nodal_dofs,
        }[self.space]
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"{self.space.value} field needs {expected} coefficients, "
                f"got {self.coeffs.shape}"
            )


def field_eval(fld: Field, x, deriv: int = 0):
    """Evaluate a primal (nodal or edge) field, optionally differentiated."""
    if fld.space is SpaceKind.NODAL:
        tab = tabulate_nodal(fld.family, x, deriv=deriv)
    elif fld.space is SpaceKind.EDGE:
        tab = tabulate_edge(fld.family, x, deriv=deriv)
    else:
        raise ValueError("field_eval handles primal nodal/edge fields only")
    out = tab @ fld.coeffs
    return float(out[0]) if np.isscalar(x) else out


def element_endpoint_values(fld: Field, deriv: int = 0):
    """One-sided field values at every element's endpoints.

    Returns (left_values, right_values), each of length num_elements:
    the field evaluated inside element n at its left/right boundary.
    Needed for jump bookkeeping of discontinuous edge fields.
    """
    family, mesh = fld.family, fld.family.mesh
    if fld.space is SpaceKind.NODAL:
        ref_tab = lagrange_tab(family, np.array([-1.0, 1.0]), deriv=deriv)
        nloc, extra = mesh.degree + 1, 0
    elif fld.space is SpaceKind.EDGE:
        ref_tab = _reference_edge_tab(family, np.array([-1.0, 1.0]), deriv=deriv)
        nloc, extra = mesh.degree, 1
    else:
        raise ValueError("primal fields only")
    left = np.empty(mesh.num_elements)
    right = np.empty(mesh.num_elements)
    for n in range(mesh.num_elements):
        scale = mesh.jacobian(n) ** float(-(deriv + extra))
        loc = fld.coeffs[n * mesh.degree: n * mesh.degree + nloc]
        left[n] = scale * (ref_tab[0] @ loc)
        right[n] = scale * (ref_tab[1] @ loc)
    return left, right
