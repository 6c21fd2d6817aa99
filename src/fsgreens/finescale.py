"""Assembly and application of the fine-scale Green's operator.

The operator is the full kernel minus its resolved part,

    fine kernel = g - (G duals)^T [duals G duals^T]^{-1} (duals G),

built from the kernel lifted through each dual functional, the Gram matrix
of the functionals under the Green's operator, and the pairing of the
functionals with the Green's image of a residual.  A pairing with the
functionals is a projection's coefficients, so each is `projection.project`'s,
G src's on the source rule and a coarse field's on its exact one
(`_project_field`); this module lays no rule.  A residual carries a smooth
part with its kink breakpoints, point sources and optionally a coarse
field u_bar, nodal or edge.

G maps a field's distributional second derivative to minus the field,
taken as zero outside the mesh (Hughes & Sangalli, SIAM J. Numer. Anal.
45, 2007), so r = f + u_bar'' has G r = G f - u_bar in closed form.  An
L2 reconstruction is G r minus its resolved part (`_green_and_pairing`,
`FineScaleOperator.resolved`): the lifts times the Gram solution of the
functionals' pairing with G r, all in closed form, as the kernel is
semiseparable and each dual lives on one element: a lift is linear off
its dual's element and the line through its values at the element's ends
plus a bubble series inside (`_lift`, `_l2_gram`, `_l2_lift_sum`).  The
H10 fine-scale kernel is zero off the element blocks: on element e it is
e's Dirichlet kernel g_e less its H10 projection P_b onto e's bubbles, a
sum over the first p - 1 of them (`_h10_fine_kernel`).  So an H10
reconstruction is (I - P_b) of G_e of the residual on each element, less
the line through u_bar's end values (`_h10_fine_scales`), with no K
solve; a field of the operator's family leaves that line alone
(criterion 05), and an edge field has no H10 pairing.  The kernel is
self-adjoint, so the representers (duals G) are the lifts (G duals), for
H10 the element-local functional tables, whose values at the interior
GLL nodes are the H10 Gram K^{-1}; K is assembled only for its eigenvalues.

Smooth sources go through `kernels._poisson_cells`: one tabulation of the
source per cell of the mesh cut at its kinks gives G f at the cell ends,
by running sums of the semiseparable kernel's two factors, and inside a
cell as the line between them plus the cell's bubble series.  No
integral thus crosses the kernel's kink x = s, and no rule is cut at an
output point; the kernel integrated on a rule cut only at the mesh
boundaries misses the kink's derivative jump (criterion 12).  The bubbles
are always the Lobatto ones (`kernels._lobatto_bubbles`), H10-orthogonal,
so neither a closed-form Green's image nor an H10 projection solves for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis1d import BasisFamily, Field, SpaceKind, _element_cols, _locate, field_eval, pair_basis
from .dualspace import assemble_stiffness
from .kernels import (GreensKernel1D, _check_unit_mesh, _lobatto_bubbles, _poisson_cells,
                      poisson_green)
from .projection import (DualFunctionals, ProjectionFlavor, _h10_local, interior_field, project,
                         source_rule_points, tabulate_functionals)


@dataclass(frozen=True)
class SourceTerm:
    """A right-hand-side functional: smooth density plus point sources, plus
    optionally a coarse field's distributional second derivative.

    `breakpoints` are known derivative-kink locations of the smooth part;
    `point_sources` are (location, strength) pairs for delta loads, whose
    Green's responses are added analytically.  `coarse` is a field whose
    distributional second derivative, the field taken as zero outside its
    mesh, adds to the source; its Green's image is minus the field.
    """

    smooth: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple = ()
    point_sources: tuple = ()
    coarse: Field | None = None


def _l2_lifts_at(fns: DualFunctionals, x):
    """x as a 1D array clipped to [0, 1] (rejected outside the mesh, NaN
    too), each point's element and the lifts of that element's p duals at
    the point, shape (len(x), p).

    Inside element e = [a, b] of half width J, G mu_j is the line from its
    value a beta_j at a to (1 - b) alpha_j at b (`DualSet.moments`) plus
    e's own Dirichlet image J^2 sum_k C[j, k] b_k(xi)
    (`DualSet.reference_moments`), as `kernels._poisson_cells` forms G f.
    """
    bounds, p = fns.family.mesh.boundaries, fns.family.degree
    elem, jac, xi = _locate(bounds, x)
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), 0.0, 1.0)
    alpha, beta = fns.duals.moments
    tau = 0.5 * (1.0 + xi[:, None])
    line = (1.0 - tau) * (bounds[elem, None] * beta[elem]) \
        + tau * ((1.0 - bounds[elem + 1, None]) * alpha[elem])
    bubbles = _lobatto_bubbles(xi, p) / (2.0 * np.arange(1, p + 1) + 1.0)
    return x, elem, line + jac[:, None] ** 2 * (bubbles @ fns.duals.reference_moments[1].T)


def _lift(fns: DualFunctionals, x) -> np.ndarray:
    """Every lifted L2 functional G mu_j at x, in closed form from the dual
    density mu_j, one element's: x beta_j left of the dual's element,
    (1 - x) alpha_j right of it (`DualSet.moments`) and `_l2_lifts_at`
    inside.  The lift is C^1, so a point on a mesh node may take either side.
    """
    family = fns.family
    x, elem, local = _l2_lifts_at(fns, x)
    alpha, beta = fns.duals.moments
    p = family.degree
    # the duals of elements left of each point's element: it lies right of them
    right = np.arange(fns.size)[None, :] < (p * elem)[:, None]
    out = np.where(right, np.multiply.outer(1.0 - x, alpha.ravel()),
                   np.multiply.outer(x, beta.ravel()))
    out[np.arange(x.size)[:, None], _element_cols(family.mesh, elem, p)] = local
    return out


def _l2_lift_sum(fns: DualFunctionals, x, coeffs) -> np.ndarray:
    """sum_j lift_j(x) coeffs_j for the L2 lifts, with no (points x N p)
    table: (1 - x) times the sum of alpha_j coeffs_j over the elements left
    of x, x times that of beta_j coeffs_j over those right of it, plus x's
    own element's p lifts.  `coeffs` is one vector, or one column per right
    side.
    """
    x, elem, local = _l2_lifts_at(fns, x)
    alpha, beta = fns.duals.moments
    coeffs = np.asarray(coeffs, dtype=float)
    per_elem = coeffs.reshape(alpha.shape + coeffs.shape[1:])
    zero = np.zeros((1,) + coeffs.shape[1:])
    # before[e]: alpha c over the elements left of e; after[e + 1]: beta c right of e
    before = np.cumsum(np.concatenate((zero, np.einsum("ek,ek...->e...", alpha, per_elem))), 0)
    after = np.cumsum(np.concatenate((np.einsum("ek,ek...->e...", beta, per_elem), zero))[::-1],
                      0)[::-1]
    x = x.reshape((-1,) + (1,) * (coeffs.ndim - 1))
    return ((1.0 - x) * before[elem] + x * after[elem + 1]
            + np.einsum("ij,ij...->i...", local, per_elem[elem]))


def _project_field(fns: DualFunctionals, fld: Field) -> Field:
    """`project` of a coarse field covering [0, 1], exact: between both
    meshes' boundaries the integrands are polynomials of degree at most p +
    q - 1, q the field's degree, so on (p + q) // 2 + 1 Gauss points per
    cell, at least p.  H10 pairs the field less the line through its end
    values, which the H10 pairing does not see."""
    _check_unit_mesh(fld.family.mesh, "a coarse field's mesh")
    p, ends = fns.family.degree, fns.family.mesh.boundaries[[0, -1]]
    at_ends = field_eval(fld, ends) if fns.flavor is ProjectionFlavor.H10 else np.zeros(2)
    return project(fns, lambda x: field_eval(fld, x) - np.interp(x, ends, at_ends),
                   functools.partial(field_eval, fld, deriv=1),
                   max(p, (p + fld.family.degree) // 2 + 1), fld.family.mesh.boundaries)


def _green_and_pairing(fns: DualFunctionals, src: SourceTerm, grid: np.ndarray,
                       quad_points: int):
    """G src on the grid, and every L2 functional paired with G src.

    G src = G f - u_bar: the point sources' kernel values plus G of the
    smooth part, then u_bar and its pairing subtracted once.  G f comes
    from one tabulation of f per cell of the mesh cut at the breakpoints
    and the point sources (`kernels._poisson_cells`), and `project` pairs
    G src on the source rule cut there too.  u_bar's pairing is exact
    (`_project_field`); for an edge field of the functionals' family it is
    its coefficients (the functionals are biorthogonal to that basis), ten
    times more accurate than a rule's.
    """
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    family = fns.family
    cuts = np.concatenate((family.mesh.boundaries, src.breakpoints, locs))
    green = None if src.smooth is None else _poisson_cells(src.smooth, cuts, quad_points)

    def green_src(x):
        out = poisson_green(x[:, None], locs[None, :]) @ qs
        return out if green is None else out + green(x)

    image = green_src(grid)
    data = project(fns, green_src, quad_points=quad_points, breakpoints=cuts).coeffs
    coarse = src.coarse
    if coarse is not None:
        own_edge = coarse.space is SpaceKind.EDGE and coarse.family is family
        data = data - (coarse.coeffs if own_edge else _project_field(fns, coarse).coeffs)
        image = image - field_eval(coarse, grid)
    return image, data


def _h10_fine_kernel(family: BasisFamily, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g'(x, s) = g_e(x, s) - J_e sum_{k<p} (2k + 1) / 2 b_k(xi_x) b_k(xi_s)
    where x and s lie inside one element e = [a, b], else 0; shape (len(x),
    len(s)).

    g_e = (min - a)(b - max) / (b - a) is e's Dirichlet kernel and the sum
    its H10 projection onto e's bubbles of degree at most p, spanned by the
    H10-orthogonal Lobatto bubbles b_k, k < p, of squared H10 norm 2 / ((2k
    + 1) J_e) (`kernels._lobatto_bubbles`).  Only pairs in one element are
    formed; a point on a node lies in none.
    """
    bounds, p = family.mesh.boundaries, family.degree
    (ex, jac, xi), (es, _, si) = (_locate(bounds, pts) for pts in (x, s))
    # no element is -1 for x and -2 for s, so they never pair
    i, j = np.nonzero(np.where(np.abs(xi) < 1.0, ex, -1)[:, None]
                      == np.where(np.abs(si) < 1.0, es, -2))
    a, b = bounds[ex[i]], bounds[ex[i] + 1]
    lo, hi = np.minimum(x[i], s[j]), np.maximum(x[i], s[j])
    scaled = _lobatto_bubbles(xi, p - 1) / (2.0 * np.arange(1, p) + 1.0)
    bubble = np.einsum("ik,ik->i", scaled[i], _lobatto_bubbles(si, p - 1)[j])
    out = np.zeros((x.size, s.size))
    out[i, j] = (lo - a) * (b - hi) / (b - a) - 0.5 * jac[i] * bubble
    return out


def _h10_fine_scales(fns: DualFunctionals, src: SourceTerm, grid: np.ndarray,
                     quad_points: int) -> np.ndarray:
    """u' = (I - P_b)[G_e f + sum_k q_k g_e(., s_k) - (u_bar - I u_bar)] - l
    on each element e, l the line through u_bar's end values and I u_bar
    its vertex interpolant: the H10 fine scales of any residual.

    P_b, the H10 projection onto e's degree-p bubbles, keeps the Lobatto
    bubbles b_j, j < p, of G_e f = sum_j c_j b_j, which one tabulation of
    f per cell gives, its running sums restarted at every vertex
    (`kernels._poisson_cells`).  On an element that is one cell, u' is the
    tail sum_{j >= p} c_j b_j, with no cancellation; on one split by
    kinks, G_e f less P_b G_e f, the Lobatto expansion of its loads (`_h10_local`).
    Each point source adds its column of `_h10_fine_kernel`.  A nodal
    field of the family has u_bar - I u_bar in the bubbles, so leaves -l
    alone; any other leaves its H10 projection less itself.
    """
    family = fns.family
    mesh, p = family.mesh, family.degree
    bounds = mesh.boundaries
    fine = np.zeros(grid.size)
    if src.smooth is not None:
        green = _poisson_cells(src.smooth, np.concatenate((bounds, src.breakpoints)),
                               quad_points, bounds)
        # a mesh end up to 1e-14 outside [0, 1] falls on the cells' end there
        starts = np.searchsorted(green.ends, np.clip(bounds, 0.0, 1.0))
        whole = np.diff(starts) == 1
        bubbles = green.bubbles.copy()
        bubbles[starts[:-1][whole], :p - 1] = 0.0
        fine = replace(green, bubbles=bubbles)(grid)
        if not whole.all():
            # a whole element's P_b G_e f is its dropped bubbles, so it takes no loads
            loads = pair_basis(family, SpaceKind.NODAL, green.points, green.weighted)
            loads[:-1].reshape(mesh.num_elements, p)[whole, 1:] = 0.0
            split = _h10_local(family, np.zeros(bounds.size), loads)
            fine = fine - field_eval(interior_field(family, split), grid)
    if src.point_sources:
        locs, qs = np.array(src.point_sources, dtype=float).T
        fine = fine + _h10_fine_kernel(family, grid, locs) @ qs
    fld = src.coarse
    if fld is None:
        return fine
    if fld.space is SpaceKind.NODAL and fld.family is family:
        return fine - np.interp(grid, bounds[[0, -1]], fld.coeffs[[0, -1]])
    if fld.space is SpaceKind.EDGE:
        raise ValueError("an edge field has no H10 pairing: its H10 projection is undefined")
    return fine - (field_eval(fld, grid) - field_eval(_project_field(fns, fld), grid))


def _l2_gram(fns: DualFunctionals) -> np.ndarray:
    """The L2 Gram matrix (mu_i, G mu_j) in closed form.

    Off the diagonal blocks it is semiseparable: alpha_i beta_j when dual
    i's element lies left of dual j's, and its mirror when right.  On
    element e = [a, b] of half width J, G mu_j is the line through its
    values at a and b, g(a, .) and g(b, .) paired with mu_j's hat moments
    J m_j and J n_j, plus J^2 sum_k C[j, k] b_k (`_l2_lifts_at`), so the
    diagonal block is the 2 x 2 vertex form of g plus J^3 C diag(2 / (2k +
    1)) C^T, the bubbles being H10-orthogonal (`DualSet.reference_moments`),
    each formed symmetric bit for bit.
    """
    mesh = fns.family.mesh
    num, p = mesh.num_elements, mesh.degree
    alpha, beta = fns.duals.moments
    (minus, plus), table = fns.duals.reference_moments
    a, b = mesh.boundaries[:-1, None, None], mesh.boundaries[1:, None, None]
    jac = mesh.jacobian(np.arange(num))[:, None, None]
    vertex = a * (1.0 - a) * np.outer(minus, minus) + b * (1.0 - b) * np.outer(plus, plus) \
        + a * (1.0 - b) * (np.outer(minus, plus) + np.outer(plus, minus))
    bubble = np.einsum("ik,jk,k->ij", table, table, 2.0 / (2.0 * np.arange(1, p + 1) + 1.0))
    upper = np.triu(np.outer(alpha, beta), 1)
    gram = upper + upper.T
    diag = np.arange(num)
    gram.reshape(num, p, num, p)[diag, :, diag, :] = jac ** 2 * vertex + jac ** 3 * bubble
    return gram


@dataclass(frozen=True)
class FineScaleOperator:
    """Precomputed fine-scale Green's operator for one kernel and dual set.

    Holds the functionals whose flavor pairing drives all dual
    applications, and forms what it needs of the rest on first use.  The
    L2 lifted functionals are exact and evaluated on demand, in closed form
    from the dual moments; the H10 ones are the functionals themselves.  The
    Gram is SPD for both flavors, as the build's `gram_cond` check
    confirms; L2 reconstructions solve with it, and H10 ones, element-local,
    have no resolved part, so an H10 operator forms no Gram unless it is
    read, as its condition number is the stiffness's.
    `quad_points` is the reconstructions' source rule.
    """

    kernel: GreensKernel1D
    functionals: DualFunctionals
    quad_points: int

    @property
    def flavor(self) -> ProjectionFlavor:
        return self.functionals.flavor

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix duals G duals^T, the flavor pairing of each
        functional with each lift, exactly symmetric.

        For L2 it is in closed form from the dual moments (`_l2_gram`).
        For H10 the lifts are the functionals K^{-1} psi, so their H10
        pairing is K^{-1} K K^{-1} = K^{-1}, which is their table at the
        interior GLL nodes, psi_k being delta_kj there: element-local
        (`tabulate_functionals`) and symmetrized, with no K formed or solved.
        """
        fns = self.functionals
        if self.flavor is ProjectionFlavor.L2:
            return _l2_gram(fns)
        family = fns.family
        elem = np.arange(family.mesh.num_elements)
        nodes = family.mesh.boundaries[elem, None] \
            + family.mesh.jacobian(elem)[:, None] * (1.0 + family.ref_nodes[:-1])
        table = tabulate_functionals(fns, nodes.ravel()[1:])
        return 0.5 * (table + table.T)

    @functools.cached_property
    def gram_cond(self) -> float:
        """The Gram's 2-norm condition number, from the extreme eigenvalues
        of the symmetric L2 Gram, or for H10 of the stiffness K, as the H10
        Gram is K^{-1}; inf unless every eigenvalue is positive, so the
        build's check also guards the SPD solves."""
        l2 = self.flavor is ProjectionFlavor.L2
        mat = self.gram if l2 else assemble_stiffness(self.functionals.family)
        if not np.all(np.isfinite(mat)):
            return np.inf
        eig = np.linalg.eigvalsh(mat)
        return float(eig[-1] / eig[0]) if eig[0] > 0.0 else np.inf

    def lifted_tab(self, x) -> np.ndarray:
        """Tabulate every lifted L2 functional at x; shape (len(x), size).
        An H10 lift is the functional itself, as the Poisson kernel inverts
        its load exactly (`tabulate_functionals`): H10 raises ValueError."""
        if self.flavor is not ProjectionFlavor.L2:
            raise ValueError("an H10 operator's lifts are its functionals: tabulate them")
        return _lift(self.functionals, x)

    def resolved(self, x, data: np.ndarray) -> np.ndarray:
        """The L2 resolved part sum_i R_i(x) data_i at x, R_i = (G duals)^T
        [Gram]^{-1} the reconstruction functions; `data` is one vector, or
        one column per right side.  The lifts times the Gram solution are
        summed in O(points p) by `_l2_lift_sum`: prefix sums of the alpha
        moments, suffix sums of the beta ones and each point's own element's
        p lifts.  H10 fine scales are element-local: H10 raises ValueError.
        """
        if self.flavor is not ProjectionFlavor.L2:
            raise ValueError("an H10 operator has no resolved part: its fine scales are local")
        return _l2_lift_sum(self.functionals, x, self.solve_gram(data))

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.gram, rhs)


def build_fine_scale_operator(kernel: GreensKernel1D, fns: DualFunctionals,
                              quad_points: int | None = None) -> FineScaleOperator:
    """Build the operator and check its Gram's condition number.

    The L2 build assembles the Gram in closed form (`_l2_gram`); the H10
    build forms none, taking the condition number from the stiffness.  The
    Gram integrands are polynomials integrated exactly; `quad_points`,
    resolved by `source_rule_points`, is only the reconstructions' rule.
    """
    _check_unit_mesh(fns.family.mesh)
    op = FineScaleOperator(kernel, fns, source_rule_points(fns.family.degree, quad_points))
    if op.gram_cond > 1e14:
        raise ValueError("singular dual Gram matrix: assembly defect")
    return op


def fine_scale_eval(op: FineScaleOperator, x, s) -> np.ndarray:
    """Evaluate the fine-scale kernel on the grid x (rows) by s (columns),
    shape (len(x), len(s)).

    The L2 kernel is the kernel less the resolved part of one column per
    s, the lifts at s (`FineScaleOperator.lifted_tab`) as its data
    (`FineScaleOperator.resolved`): no lift is tabulated at x.  The H10
    one is each element's own, in closed form (`_h10_fine_kernel`):
    exactly zero where x and s lie in different elements or either lies
    on a mesh node.  When x is s the surface is symmetrized, as the
    kernel is.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    if op.flavor is ProjectionFlavor.H10:
        out = _h10_fine_kernel(op.functionals.family, xs, ss)
    else:
        out = op.kernel(xs[:, None], ss[None, :]) - op.resolved(xs, op.lifted_tab(ss).T)
    if np.array_equal(xs, ss):
        out = 0.5 * (out + out.T)
    return out


def reconstruct_fine_scales(op: FineScaleOperator, residual: SourceTerm, grid) -> np.ndarray:
    """Unresolved scales: the fine-scale operator applied to a residual, on a grid.

    H10 fine scales are each element's own (`_h10_fine_scales`); an edge
    field under an H10 operator raises ValueError.  L2 ones are G r -
    resolved(pairing of G r), G r = G f - u_bar (`_green_and_pairing`).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if op.flavor is ProjectionFlavor.H10:
        return _h10_fine_scales(op.functionals, residual, grid, op.quad_points)
    image, data = _green_and_pairing(op.functionals, residual, grid, op.quad_points)
    return image - op.resolved(grid, data)


def residual_from_field(u_bar: Field, source: Callable[[np.ndarray], np.ndarray]) -> SourceTerm:
    """Coarse-scale residual of -u'' = source: the source plus the field's
    distributional second derivative.

    The source is the smooth part and the field, nodal or edge, the
    `coarse` part, whose Green's image is minus the field (see
    `reconstruct_fine_scales`).  The field's element boundaries are not
    kinks of the source; the operator's rules are cut at its own mesh.
    """
    return SourceTerm(smooth=source, coarse=u_bar)
