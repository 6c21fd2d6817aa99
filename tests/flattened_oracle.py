"""The flattened residual: the oracle for the coarse field's closed form.

The library applies G to a coarse-scale residual r = f + u_bar'' as
G r = G f - u_bar.  This module integrates the residual the long way
instead: u_bar's distributional second derivative, the field taken as zero
outside the mesh, is written out as its element-wise second derivative
(joining the smooth density), a point source at every mesh node (the
derivative jump, right minus left) and a dipole there (the value jump).
Each term then goes through the Green's kernel and the functionals'
representers: the smooth part by the k = 0 oracle below and the source
rule, the point terms by kernel and representer (derivative) values.

The k = 0 oracle (`_poisson_apply`) is the library's former 1D Poisson
primitive, prefix and suffix sums of the moments of cells cut at every
output point, with the x-derivative (`deriv=1`) the library does not
form; the tests check the library's cell route (`kernels._poisson_cells`),
which cuts no cell at an output point, against it.

It also holds the naive pairing (`pair_naive`): the functionals paired
with G src on a rule cut only at the mesh boundaries, not at the kernel
kink x = s.  The library splits every such integral at the kink; this
unsplit rule is kept here only to show, in criterion 12, that it fails.
It and the image route below subtract a coarse field's pairing on its
exact rule (`field_pairing`), the library's former own rule, which
`finescale._project_field` now reaches through `project`.

The other 1D oracles the tests check the library against live here too:
each functional's load on the kernel (`functional_load`, for H10 from the
K-solved tables below) and its lift by
one direct quadrature per point (`lift_functionals_direct`), the
pairing alone of a source (`apply_dual_green`), the lift table of
either flavor, for H10 the functionals themselves (`lift_table`), the
reconstruction functions from it and the Gram (`resolved_basis_reproduction`),
the global edge mass, the oracle for the element-local dual solves
(`edge_mass`), the nodal points (`nodal_points`) and the dense SPD solve
by scipy's Cholesky factor (`spd_solve`).  So do the pieces
that only these oracles and the tests read: the Poisson kernel's two
derivatives (`poisson_green_dx`, `poisson_green_ds`), the element-local
Dirichlet kernel (`element_green`), the lifts' x-derivatives (`lift_dx`) and the
interior nodal basis's derivative jumps at the mesh joints
(`nodal_deriv_jumps`).  The library's former advection-diffusion kernel
(`advdiff_green`), written for c > 0 with a product form at low Peclet
number and a shifted form above it, and mirrored for c < 0, checks the
library's one damped formula by an independent path.

The global H10 route (`global_h10_tabulate`, `global_h10_pair`,
`global_h10_project`, `global_h10_project_values`,
`global_h10_project_from_source`, `global_h10_reconstruct`) is the
library's former H10 functional tables, pairings, projection and
reconstruction, each through a solve with the global interior stiffness
K.  The library now reads vertex values and solves one element's bubbles
at a time; the global route's vertex values carry cond(K) eps, which the
exact-arithmetic tests show.

The image route (`green_and_pairing`, `resolved`, `image_reconstruct`)
is the library's former H10 reconstruction: G r on [0, 1] less its H10
projection, the interior nodal basis gathered against the pairing.
`apply_dual_green`, `reconstruct_flat` and the global route, which drops
a field of the resolved space (`_annihilated`), share it.  The library now
forms each element's fine scales alone (`finescale._h10_fine_scales`),
with no rounding of |G r| in them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from fsgreens.basis1d import (BasisFamily, Field, SpaceKind, _element_cols, _locate,
                              _reference_edge_tab, element_tab, field_eval, lagrange_tab,
                              pair_basis, tabulate_nodal)
from fsgreens.dualspace import _assemble_gram, assemble_stiffness
from fsgreens.finescale import FineScaleOperator, SourceTerm, _green_and_pairing, _lift
from fsgreens.kernels import GreensKernel1D, _check_unit_domain, poisson_green
from fsgreens.projection import (DualFunctionals, ProjectionFlavor, _green_and_h10, _h10_local,
                                 interior_field, mesh_quadrature, source_rule_points,
                                 tabulate_functionals)
from fsgreens.quadrature import (composite_rule, cut_ends, gauss_legendre_rule, map_rule,
                                 sorted_unique)

# the oracle's Green's primitive tabulates _BLOCK_POINTS rule points at a time
_BLOCK_POINTS = 1024


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """matrix^{-1} rhs for an SPD matrix by scipy's Cholesky factor, the
    tests' linear-algebra reference: the library itself loads no scipy."""
    return cho_solve(cho_factor(matrix), rhs)


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


def _poisson_apply(density, x, cuts, quad_points: int, deriv: int = 0) -> np.ndarray:
    """The Poisson Green's operator (deriv=0) or its x-derivative (deriv=1)
    applied to a batch of densities, at the points x in [0, 1].

    `density(s)` returns one value per point, or one column per density;
    `cuts` are its derivative-kink locations.  With A(x) = int_0^x s f ds
    and B(x) = int_x^1 (1 - s) f ds, G f = (1 - x) A + x B and
    (G f)' = B - A.  The rule's cells run between 0, 1, the cuts and every
    point x, as `poisson2d._green_tables` cuts at its ordinates, so each
    integral is split at the kernel kink; A and B are a prefix and a
    suffix sum of the cells' moments, read at x.  Densities are tabulated
    _BLOCK_POINTS rule points at a time.  Returns shape
    (len(x), number of densities).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_domain(x)
    x = np.clip(x, 0.0, 1.0)
    ends = sorted_unique(np.concatenate(([0.0, 1.0], np.asarray(cuts, dtype=float), x)))
    ends = ends[(ends >= 0.0) & (ends <= 1.0)]
    rule = gauss_legendre_rule(quad_points)
    step = max(1, _BLOCK_POINTS // rule.npoints)
    lo, hi = ends[:-1], ends[1:]
    parts = []
    for start in range(0, lo.size, step):
        s, w = map_rule(rule, lo[start:start + step], hi[start:start + step])
        f = np.asarray(density(s.ravel()), dtype=float).reshape(s.shape + (-1,))
        parts.append(np.einsum("jiq,iqk->jik", np.stack((s * w, (1.0 - s) * w)), f))
    # each cell's int s f ds and int (1 - s) f ds
    a_cell, b_cell = np.concatenate(parts, axis=1)
    zero = np.zeros((1, a_cell.shape[1]))
    at = np.searchsorted(ends, x)
    a = np.concatenate((zero, np.cumsum(a_cell, axis=0)))[at]
    b = np.concatenate((np.cumsum(b_cell[::-1], axis=0)[::-1], zero))[at]
    return b - a if deriv else (1.0 - x)[:, None] * a + x[:, None] * b


def advdiff_green(x, s, c: float, nu: float):
    """Green's function of c u' - nu u'' on [0, 1], zero boundary values.

    Written with nonpositive exponents throughout: the response to a
    source at s is exponentially small upstream and forms a plateau of
    height ~1/c downstream, ending in the outflow boundary layer.
    """
    if not 0.0 < nu < np.inf:
        raise ValueError(f"diffusion coefficient must be finite and positive, got {nu}")
    if not np.isfinite(c) or c == 0.0:
        raise ValueError(f"advection speed must be finite and nonzero, got {c}")
    if not np.isfinite(c / nu):
        raise ValueError(f"the Peclet ratio c / nu overflows: c={c}, nu={nu}")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    if c < 0.0:
        # mirror symmetry maps the negative-speed problem onto the positive one
        return advdiff_green(1.0 - x, 1.0 - s, -c, nu)
    beta = c / nu
    denom = c * (-np.expm1(-beta))
    if beta < 0.5:
        # product form: no cancellation when the exponentials are all near 1
        upstream = np.expm1(beta * x) * (-np.expm1(-beta * (1.0 - s))) \
            * np.exp(-beta * s) / denom
    else:
        # shifted form: every argument nonpositive, finite at large Peclet
        upstream = (
            np.exp(-beta * (s - x))
            - np.exp(-beta * (1.0 - x))
            - np.exp(-beta * s)
            + np.exp(-beta)
        ) / denom
    downstream = np.expm1(-beta * (1.0 - x)) * np.expm1(-beta * s) / denom
    return np.where(x <= s, upstream, downstream)


def lift_dx(fns: DualFunctionals, x) -> np.ndarray:
    """The x-derivative at x of every lifted functional (`finescale._lift`).

    For H10 the functional's own derivative, the left element's at a mesh
    node.  For L2 beta_j left of the dual's element, -alpha_j right of it
    and, inside its element e = [a, b] of half width J, the slope ((1 - b)
    alpha_j - a beta_j) / (2 J) of the line through the lift's end values
    plus J sum_k C[j, k] P_k(xi), as the Lobatto bubbles have b_k' = P_k
    (`DualSet.reference_moments`).
    """
    if fns.flavor is ProjectionFlavor.H10:
        return global_h10_tabulate(fns, x, deriv=1)
    bounds, p = fns.family.mesh.boundaries, fns.family.degree
    elem, jac, xi = _locate(bounds, x)
    alpha, beta = fns.duals.moments
    legendre = np.polynomial.legendre.legvander(xi, p)[:, 1:]
    right = np.arange(fns.size)[None, :] < (p * elem)[:, None]
    out = np.where(right, -alpha.ravel(), beta.ravel())
    out[np.arange(xi.size)[:, None], _element_cols(fns.family.mesh, elem, p)] = \
        ((1.0 - bounds[elem + 1, None]) * alpha[elem] - bounds[elem, None] * beta[elem]) \
        / (2.0 * jac[:, None]) + jac[:, None] * (legendre @ fns.duals.reference_moments[1].T)
    return out


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
        out += lift_table(fns, s).T @ (w * np.asarray(flat.smooth(s), dtype=float))
    for lift, sign, terms in ((lift_table, 1.0, flat.point_sources), (lift_dx, -1.0, dipoles)):
        if terms:
            locs, qs = np.array(terms, dtype=float).T
            out += sign * lift(fns, locs).T @ qs
    return out


def reconstruct_flat(op: FineScaleOperator, src: SourceTerm, grid) -> np.ndarray:
    """The fine scales of a residual, its coarse field integrated flattened."""
    flat = flattened(src)
    bounds = op.functionals.family.mesh.boundaries
    green = green_apply_flat(op.kernel, flat, grid, op.quad_points, bounds)
    return green - resolved(op, grid, pair_flat(op.functionals, flat, op.quad_points))


def field_pairing(fns: DualFunctionals, fld: Field) -> np.ndarray:
    """The functionals' exact flavor pairing with a coarse field: L2 against
    the field, H10 against its derivative, that is the coefficients of its
    H10 projection from its vertex values and loads (`_h10_local`).

    The integrands are polynomials of degree at most p + q - 1 between the
    two meshes' boundaries, q the field's degree, so the (p + q) // 2 +
    1-point Gauss rule is exact; the library's `finescale._project_field`
    pairs on at least p points.  An edge field jumps at the nodes, so its
    H10 pairing (and projection) is undefined.
    """
    family = fns.family
    s, w = composite_rule(gauss_legendre_rule((family.degree + fld.family.degree) // 2 + 1),
                          cut_ends(family.mesh.boundaries, fld.family.mesh.boundaries))
    if fns.flavor is ProjectionFlavor.L2:
        return pair_basis(family, SpaceKind.DUAL_NODAL, s, w * field_eval(fld, s))
    if fld.space is SpaceKind.EDGE:
        raise ValueError("an edge field has no H10 pairing: its H10 projection is undefined")
    nodes, ends = family.mesh.boundaries, family.mesh.boundaries[[0, -1]]
    # less the line through the field's end values, which the H10 pairing does not see
    vertex = field_eval(fld, nodes) - np.interp(nodes, ends, field_eval(fld, ends))
    loads = pair_basis(family, SpaceKind.NODAL, s, w * field_eval(fld, s, deriv=1), deriv=1)
    return _h10_local(family, vertex, loads)


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
        data = data - field_pairing(fns, src.coarse)
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
    smooth = lambda s: -global_h10_tabulate(fns, s, deriv=2)
    a, b = mesh.a, mesh.b
    deriv_a = global_h10_tabulate(fns, np.array([a]), deriv=1)[0]
    deriv_b = global_h10_tabulate(fns, np.array([b]), deriv=1)[0]
    # interface strengths are the derivative jumps, left minus right
    jumps = -spd_solve(assemble_stiffness(fns.family), nodal_deriv_jumps(fns.family).T).T
    strengths = np.vstack([-deriv_a, jumps, deriv_b])
    return smooth, mesh.boundaries.copy(), strengths


def apply_dual_green(kernel: GreensKernel1D, fns: DualFunctionals, src: SourceTerm,
                     quad_points: int | None = None) -> np.ndarray:
    """Pair every functional with the Green's image of a source.

    G src = G f - u_bar for a coarse field u_bar; see `green_and_pairing`.
    """
    quad_points = source_rule_points(fns.family.degree, quad_points)
    return green_and_pairing(fns, src, np.empty(0), quad_points)[1]


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


def lift_table(fns: DualFunctionals, x) -> np.ndarray:
    """Every lifted functional at x: for H10 the functional itself, as the
    Poisson kernel inverts its load exactly (`tabulate_functionals`), for
    L2 the library's closed form (`finescale._lift`)."""
    if fns.flavor is ProjectionFlavor.H10:
        return tabulate_functionals(fns, x)
    return _lift(fns, x)


def resolved_basis_reproduction(op: FineScaleOperator, x) -> np.ndarray:
    """Tabulate (G duals)^T [Gram]^{-1} at x; column i is reconstruction function i.

    For the H10/Poisson pairing these coincide with the interior nodal
    basis functions.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return op.solve_gram(lift_table(op.functionals, x).T).T


def edge_mass(family: BasisFamily) -> np.ndarray:
    """The global edge mass matrix, block diagonal because edge functions
    never cross an element: element e's block is the reference edge mass
    over J_e.  The library solves with the p x p reference block instead."""
    # two 1/J pullbacks against one J from dx
    return _assemble_gram(family, family.edge_mass, jac_power=-1)


def nodal_points(family: BasisFamily) -> np.ndarray:
    """Physical coordinates of the global nodal degrees of freedom."""
    mesh = family.mesh
    pts = np.empty(mesh.num_nodal_dofs)
    for n in range(mesh.num_elements):
        lo, hi = mesh.boundaries[n], mesh.boundaries[n + 1]
        mapped = 0.5 * (lo + hi) + 0.5 * (hi - lo) * family.ref_nodes
        pts[n * mesh.degree: (n + 1) * mesh.degree + 1] = mapped
    return pts


# ---------------------------------------------------------------------------
# the global H10 route: the library's functional tables, pairings,
# projections and reconstruction as they were before they went
# element-local, each through the global stiffness K


def global_h10_tabulate(fns: DualFunctionals, x, deriv: int = 0) -> np.ndarray:
    """Every H10 functional K^{-1} psi^(deriv) at x: the interior nodal basis
    pushed through K by solves; shape (len(x), n)."""
    tab = tabulate_nodal(fns.family, x, deriv=deriv)[:, 1:-1]
    return spd_solve(assemble_stiffness(fns.family), tab.T).T


def global_h10_pair(fns: DualFunctionals, x, values, deriv: int = 0) -> np.ndarray:
    """global_h10_tabulate(fns, x, deriv).T @ values with no (points x N p)
    table: the interior nodal basis paired first, then one solve with K."""
    paired = pair_basis(fns.family, SpaceKind.NODAL, x, values, deriv)[1:-1]
    return spd_solve(assemble_stiffness(fns.family), paired)


def global_h10_project_values(fns: DualFunctionals, u, quad_points: int | None = None,
                              breakpoints=()) -> np.ndarray:
    """H10 projection coefficients of u using values of u only.

    Pi u = I u + Pi (u - I u), I u the piecewise-linear interpolant of u's
    vertex values, which the nodal space holds.  Integrated by parts on
    each element, the pairing of w = u - I u moves both derivatives onto
    the interior nodal basis, with no interface term, as w vanishes at
    every vertex; one solve with K projects it.
    """
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
    return linear[1:] + spd_solve(assemble_stiffness(family), paired)


def global_h10_project(fns: DualFunctionals, f, f_prime=None, quad_points: int | None = None,
                       breakpoints=()) -> Field:
    """The H10 projection of f: K^{-1} (psi', f'), or the value-only form
    without f'."""
    if f_prime is None:
        return interior_field(fns.family, global_h10_project_values(fns, f, quad_points,
                                                                    breakpoints))
    x, w = mesh_quadrature(fns.family, quad_points, breakpoints)
    df = np.asarray(f_prime(x), dtype=float)
    return interior_field(fns.family, global_h10_pair(fns, x, w * df, deriv=1))


def global_h10_project_from_source(fns: DualFunctionals, source,
                                   quad_points: int | None = None, breakpoints=()) -> Field:
    """The H10 projection of the solution of -u'' = source: K^{-1} (psi, source)."""
    x, w = mesh_quadrature(fns.family, quad_points, breakpoints)
    return interior_field(fns.family,
                          global_h10_pair(fns, x, w * np.asarray(source(x), dtype=float)))


def _annihilated(op: FineScaleOperator, fld: Field | None) -> bool:
    """Whether the operator annihilates the field's distributional second
    derivative: an H10 operator and a nodal field of its family that
    vanishes at both ends, so a member of the resolved space."""
    return (op.flavor is ProjectionFlavor.H10 and fld is not None
            and fld.space is SpaceKind.NODAL and fld.family is op.functionals.family
            and fld.coeffs[0] == 0.0 and fld.coeffs[-1] == 0.0)


def resolved(op: FineScaleOperator, x, data: np.ndarray) -> np.ndarray:
    """The resolved part sum_i R_i(x) data_i: the library's for L2, and for
    H10 its former branch, the interior nodal basis R_i = psi_i gathered
    element by element with no solve."""
    if op.flavor is ProjectionFlavor.L2:
        return op.resolved(x, data)
    family = op.functionals.family
    coeffs = np.zeros((family.mesh.num_nodal_dofs,) + np.shape(data)[1:])
    coeffs[1:-1] = data
    cols, vals = element_tab(family, SpaceKind.NODAL, x)
    return np.einsum("ij,ij...->i...", vals, coeffs[cols])


def green_and_pairing(fns: DualFunctionals, src: SourceTerm, grid: np.ndarray,
                      quad_points: int):
    """G src on the grid and every functional paired with it: the
    library's for L2, and for H10 its former branch, the point sources'
    kernel values and lifts plus G f and the coefficients of its H10
    projection from one tabulation (`_green_and_h10`, bit for bit those of
    `h10_project_from_source`), less u_bar and its exact pairing."""
    if fns.flavor is ProjectionFlavor.L2:
        return _green_and_pairing(fns, src, grid, quad_points)
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    image = poisson_green(grid[:, None], locs[None, :]) @ qs
    data = tabulate_functionals(fns, locs).T @ qs
    if src.smooth is not None:
        green, coeffs = _green_and_h10(fns, src.smooth, quad_points, src.breakpoints)
        image, data = image + green(grid), data + coeffs
    if src.coarse is not None:
        image = image - field_eval(src.coarse, grid)
        data = data - field_pairing(fns, src.coarse)
    return image, data


def image_reconstruct(op: FineScaleOperator, src: SourceTerm, grid) -> np.ndarray:
    """The fine scales as G r less its resolved part (`green_and_pairing`,
    `resolved`): the library's L2 route, and its former H10 one, whose u'
    carries the rounding of |G r| where the element-local route's is exact."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    image, data = green_and_pairing(op.functionals, src, grid, op.quad_points)
    return image - resolved(op, grid, data)


def global_h10_reconstruct(op: FineScaleOperator, src: SourceTerm, grid) -> np.ndarray:
    """H10 fine scales G r - resolved(K^{-1} (psi', (G r)')): the source's
    pairing by the interior nodal basis and one solve, less the coarse
    field's, by its derivative and one solve; a field of the resolved
    space is dropped, as the library's former route dropped it."""
    fns = op.functionals
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if _annihilated(op, src.coarse):
        src = replace(src, coarse=None)
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    s, w = mesh_quadrature(fns.family, op.quad_points, src.breakpoints)
    image = poisson_green(grid[:, None], locs[None, :]) @ qs
    if src.smooth is not None:
        cuts = np.r_[fns.family.mesh.boundaries, src.breakpoints]
        image = image + _poisson_apply(src.smooth, grid, cuts, op.quad_points)[:, 0]
    smooth = w * np.asarray(src.smooth(s), dtype=float) if src.smooth is not None else 0.0 * w
    data = global_h10_pair(fns, np.r_[s, locs], np.r_[smooth, qs])
    fld = src.coarse
    if fld is not None:
        bounds = sorted_unique(np.concatenate((fns.family.mesh.boundaries,
                                               fld.family.mesh.boundaries)))
        rule = gauss_legendre_rule((fns.family.degree + fld.family.degree) // 2 + 1)
        t, v = composite_rule(rule, bounds)
        image = image - field_eval(fld, grid)
        data = data - global_h10_pair(fns, t, v * field_eval(fld, t, deriv=1), deriv=1)
    return image - resolved(op, grid, data)
