"""The flattened residual: the oracle for the coarse field's closed form.

The library applies G to a coarse-scale residual r = f + u_bar'' as
G r = G f - u_bar.  This module integrates the residual the long way
instead: u_bar's distributional second derivative, the field taken as zero
outside the mesh, is written out as its element-wise second derivative
(joining the smooth density), a point source at every mesh node (the
derivative jump, right minus left) and a dipole there (the value jump).
Each term then goes through the Green's kernel and the functionals'
representers: the smooth part by the library's primitive and source rule,
the point terms by kernel and representer (derivative) values.

It also holds the naive pairing (`pair_naive`): the functionals paired
with G src on a rule cut only at the mesh boundaries, not at the kernel
kink x = s.  The library splits every such integral at the kink; this
unsplit rule is kept here only to show, in criterion 12, that it fails.

The other 1D oracles the tests check the library against live here too:
each functional's load on the kernel (`functional_load`) and its lift by
one direct quadrature per point (`lift_functionals_direct`), the
pairing alone of a source (`apply_dual_green`), the reconstruction
functions from the lift table and the Gram (`resolved_basis_reproduction`)
and the nodal points (`nodal_points`).  So do the pieces that only these
oracles and the tests read: the Poisson kernel's two derivatives
(`poisson_green_dx`, `poisson_green_ds`), the element-local Dirichlet
kernel (`element_green`) and the interior nodal basis's derivative jumps
at the mesh joints (`nodal_deriv_jumps`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fsgreens.basis1d import (BasisFamily, Field, SpaceKind, _reference_edge_tab, field_eval,
                              lagrange_tab)
from fsgreens.finescale import (FineScaleOperator, SourceTerm, _field_pairing, _green_and_pairing,
                                _lift, _poisson_apply)
from fsgreens.kernels import GreensKernel1D, _check_unit_domain
from fsgreens.projection import (DualFunctionals, ProjectionFlavor, mesh_quadrature,
                                 tabulate_functionals)


def poisson_green_dx(x, s):
    """d/dx of the Poisson kernel; jumps by -1 across x = s."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    return np.where(x < s, 1.0 - s, -s)


def poisson_green_ds(x, s):
    """d/ds of the Poisson kernel; jumps by -1 across s = x."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    return np.where(s < x, 1.0 - x, -x)


def element_green(x, s, a: float, b: float):
    """Local Dirichlet kernel of -u'' on one element [a, b]; zero if x or s lies outside."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    inside = (x >= a) & (x <= b) & (s >= a) & (s <= b)
    lo = np.minimum(x, s)
    hi = np.maximum(x, s)
    val = (lo - a) * (b - hi) / (b - a)
    return np.where(inside, val, 0.0)


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


def element_endpoint_values(fld: Field, deriv: int = 0):
    """One-sided field values at every element's endpoints.

    Returns (left_values, right_values), each of length num_elements:
    the field evaluated inside element n at its left/right boundary.
    The jumps between neighbours give a field's interface loads.
    """
    family, mesh = fld.family, fld.family.mesh
    if fld.space is SpaceKind.NODAL:
        ref_tab = lagrange_tab(family, np.array([-1.0, 1.0]), deriv=deriv)
        nloc, extra = mesh.degree + 1, 0
    else:
        ref_tab = _reference_edge_tab(family, np.array([-1.0, 1.0]), deriv=deriv)
        nloc, extra = mesh.degree, 1
    left = np.empty(mesh.num_elements)
    right = np.empty(mesh.num_elements)
    for n in range(mesh.num_elements):
        scale = mesh.jacobian(n) ** float(-(deriv + extra))
        loc = fld.coeffs[n * mesh.degree: n * mesh.degree + nloc]
        left[n] = scale * (ref_tab[0] @ loc)
        right[n] = scale * (ref_tab[1] @ loc)
    return left, right


@dataclass(frozen=True)
class FlatSource:
    """A source with every term written out: smooth density and its
    breakpoints, (location, strength) point sources and dipoles."""

    smooth: object = None
    breakpoints: tuple = ()
    point_sources: tuple = ()
    point_dipoles: tuple = ()


def flattened(src: SourceTerm) -> FlatSource:
    """The source with its coarse field's distributional second derivative
    written out, the field taken as zero outside the mesh.  The field's
    element-wise second derivative kinks at its inner mesh boundaries,
    which join the breakpoints."""
    if src.coarse is None:
        return FlatSource(src.smooth, src.breakpoints, src.point_sources)
    fld, smooth = src.coarse, src.smooth

    def total(s):
        second = field_eval(fld, s, deriv=2)
        return second if smooth is None else np.asarray(smooth(s), dtype=float) + second

    ends = [element_endpoint_values(fld, deriv) for deriv in (0, 1)]
    value_jump, deriv_jump = (np.r_[left, 0.0] - np.r_[0.0, right] for left, right in ends)
    nodes = fld.family.mesh.boundaries
    return FlatSource(total, src.breakpoints + tuple(nodes[1:-1]),
                      src.point_sources + tuple(zip(nodes, deriv_jump)),
                      tuple(zip(nodes, value_jump)))


def green_apply_flat(kernel, flat: FlatSource, x, quad_points: int, mesh_boundaries):
    """G applied to a flattened source at x: the primitive for the smooth
    part, kernel values for point sources, minus kernel s-derivatives for
    dipoles."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    if flat.smooth is not None:
        cuts = np.concatenate((mesh_boundaries, flat.breakpoints))
        out += _poisson_apply(flat.smooth, x, cuts, quad_points)[:, 0]
    for loc, q in flat.point_sources:
        out += q * kernel(x, loc)
    for loc, q in flat.point_dipoles:
        gs = poisson_green_ds(x, loc)
        if loc <= 1e-14:
            # on the left-boundary dipole itself take the limit from inside
            # the domain, as field evaluation assigns nodes to elements
            gs = np.where(x == loc, 1.0 - loc, gs)
        out -= q * gs
    return out


def pair_flat(fns, flat: FlatSource, quad_points: int) -> np.ndarray:
    """Every functional paired with G of a flattened source, through the
    split representers (the lifts) and their s-derivatives.

    Under H10 a dipole on a domain end pairs to zero: its Green's image is
    linear on (0, 1), and the H10 pairing is taken over the open interval.
    The representer derivative there, the functional's one-sided
    derivative, would count the end jump of the zero-extended field as if
    it lay inside the domain.
    """
    dipoles = flat.point_dipoles
    if fns.flavor is ProjectionFlavor.H10:
        dipoles = tuple((loc, q) for loc, q in dipoles if 1e-14 < loc < 1.0 - 1e-14)
    out = np.zeros(fns.size)
    if flat.smooth is not None:
        s, w = mesh_quadrature(fns.family, quad_points, flat.breakpoints)
        out += _lift(fns, s).T @ (w * np.asarray(flat.smooth(s), dtype=float))
    for deriv, terms in ((0, flat.point_sources), (1, dipoles)):
        if terms:
            locs, qs = np.array(terms, dtype=float).T
            out += (-1) ** deriv * _lift(fns, locs, deriv).T @ qs
    return out


def reconstruct_flat(op: FineScaleOperator, src: SourceTerm, grid) -> np.ndarray:
    """The fine scales of a residual, its coarse field integrated flattened."""
    flat = flattened(src)
    bounds = op.functionals.family.mesh.boundaries
    green = green_apply_flat(op.kernel, flat, grid, op.quad_points, bounds)
    return green - op.resolved(grid, pair_flat(op.functionals, flat, op.quad_points))


def pair_naive(kernel, fns, src: SourceTerm, quad_points: int | None = None) -> np.ndarray:
    """Every functional paired with G src by unsplit quadrature.

    Each representer at a source point s is the x-integral of the
    functional (its derivative, for H10) against the kernel (its
    x-derivative) on the source rule, which is cut at the mesh boundaries
    but not at the kink x = s.  The coarse field's exact pairing is then
    subtracted, as in the library.
    """
    h10 = fns.flavor is ProjectionFlavor.H10
    xq, wq = mesh_quadrature(fns.family, quad_points)
    pair_tab = tabulate_functionals(fns, xq, deriv=1 if h10 else 0)
    s, w = mesh_quadrature(fns.family, quad_points, src.breakpoints)
    smooth = w * np.asarray(src.smooth(s), dtype=float) if src.smooth is not None else 0.0 * w
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    pts, vals = np.r_[s, locs], np.r_[smooth, qs]
    kern = (poisson_green_dx if h10 else kernel)(xq[:, None], pts[None, :])
    data = (kern.T @ (wq[:, None] * pair_tab)).T @ vals
    if src.coarse is not None:
        data = data - _field_pairing(fns, src.coarse)
    return data


def functional_load(fns: DualFunctionals):
    """The load each functional places on the kernel, as a SourceTerm batch.

    Returns (smooth_tab, point_locs, point_strengths) where smooth_tab(s)
    tabulates all loads' smooth densities, point_locs lists delta
    locations and point_strengths is the (len(locs), n) strength matrix.
    For the L2 flavor the load is the dual function itself; for H10 it is
    the negative distributional second derivative of the functional.
    """
    mesh = fns.family.mesh
    if fns.flavor is ProjectionFlavor.L2:
        smooth = lambda s: tabulate_functionals(fns, s)
        return smooth, np.empty(0), np.empty((0, fns.size))
    smooth = lambda s: -tabulate_functionals(fns, s, deriv=2)
    a, b = mesh.a, mesh.b
    deriv_a = tabulate_functionals(fns, np.array([a]), deriv=1)[0]
    deriv_b = tabulate_functionals(fns, np.array([b]), deriv=1)[0]
    # interface strengths are the derivative jumps, left minus right
    jumps = -fns.stiffness.solve(nodal_deriv_jumps(fns.family).T).T
    strengths = np.vstack([-deriv_a, jumps, deriv_b])
    return smooth, mesh.boundaries.copy(), strengths


def apply_dual_green(kernel: GreensKernel1D, fns: DualFunctionals, src: SourceTerm,
                     quad_points: int | None = None) -> np.ndarray:
    """Pair every functional with the Green's image of a source.

    G src = G f - u_bar for a coarse field u_bar; see `_green_and_pairing`.
    """
    return _green_and_pairing(fns, src, np.empty(0), quad_points)[1]


def lift_functionals_direct(kernel: GreensKernel1D, fns: DualFunctionals, x,
                            quad_points: int | None = None,
                            deriv: int = 0) -> np.ndarray:
    """Direct-quadrature evaluation of every lifted functional, or its
    x-derivative (deriv=1), at x.

    Per-point verification path for the exact lifts: applies the Green's
    kernel (or its x-derivative) to each functional's load with one
    quadrature per point.
    """
    kern = kernel if deriv == 0 else poisson_green_dx
    x = np.atleast_1d(np.asarray(x, dtype=float))
    smooth_tab, locs, strengths = functional_load(fns)
    out = np.zeros((x.size, fns.size))
    for i, xi in enumerate(x):
        # the source rule, cut at the kernel kink s = xi
        s, w = mesh_quadrature(fns.family, quad_points, [xi])
        out[i] = smooth_tab(s).T @ (w * kern(xi, s))
    for k, loc in enumerate(np.atleast_1d(locs)):
        out += np.outer(kern(x, loc), strengths[k])
    return out


def resolved_basis_reproduction(op: FineScaleOperator, x) -> np.ndarray:
    """Tabulate (G duals)^T [Gram]^{-1} at x; column i is reconstruction function i.

    For the H10/Poisson pairing these coincide with the interior nodal
    basis functions.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return op.solve_gram(op.lifted_tab(x).T).T


def nodal_points(family: BasisFamily) -> np.ndarray:
    """Physical coordinates of the global nodal degrees of freedom."""
    mesh = family.mesh
    pts = np.empty(mesh.num_nodal_dofs)
    for n in range(mesh.num_elements):
        lo, hi = mesh.boundaries[n], mesh.boundaries[n + 1]
        mapped = 0.5 * (lo + hi) + 0.5 * (hi - lo) * family.ref_nodes
        pts[n * mesh.degree: (n + 1) * mesh.degree + 1] = mapped
    return pts
