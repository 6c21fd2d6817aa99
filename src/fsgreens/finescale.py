"""Assembly and application of the fine-scale Green's operator.

The operator is the full kernel minus its resolved part,

    fine kernel = g - (G duals)^T [duals G duals^T]^{-1} (duals G),

built from three ingredients: the kernel lifted through each dual
functional, the Gram matrix of the functionals under the Green's
operator, and the pairing of the functionals with the Green's image of a
residual.

Functionals act through their flavor pairing, which also pairs them with
the lifts into the Gram matrix: plain densities for L2, the derivative
pairing for H10, whose load on the kernel is a piecewise-polynomial part
plus node point sources.  A residual carries a smooth part with its kink
breakpoints, point sources and optionally a coarse field u_bar, nodal or edge.

G maps a field's distributional second derivative to minus the field,
taken as zero outside the mesh (Hughes & Sangalli, SIAM J. Numer. Anal.
45, 2007), so r = f + u_bar'' has G r = G f - u_bar in closed form;
`green_apply` integrates only f and point loads, and u_bar and its
pairing are subtracted once, in `_green_and_pairing`.  A
reconstruction is G r minus its resolved part (`FineScaleOperator.resolved`):
the reconstruction functions (G duals)^T [Gram]^{-1} times the
functionals' pairing with G r.  For L2 the pairing is element-local, of
G f on the source rule, minus u_bar's pairing (its coefficients for an
edge field of the functionals' family), and the functions are the lifts
times a Gram solve, summed in closed form.  For H10 the
pairing is the source's, through the interior nodal basis and one
stiffness solve, minus u_bar's exact H10 pairing, and the functions are
the interior nodal basis (criterion 06).  A field of the H10 space
(nodal, of the operator's family, zero at both ends) is skipped, as its
two terms cancel (criterion 05); an edge field has no H10 pairing.

The Poisson kernel is self-adjoint, so the representers (duals G) are the
lifts (G duals), and the library has one of them (`_lift`).  For H10 the
lift is the functional itself, since G inverts its load exactly.  For L2
it is in closed form: the kernel G(x, s) = x (1 - s) for x < s is
semiseparable, and each dual mu_j lives on one element, so its lift is
x beta_j left of that element, (1 - x) alpha_j right of it and one
polynomial of degree p + 1 inside it, with alpha_j = int s mu_j and
beta_j = int (1 - s) mu_j the dual moments.  Inside, it comes from two
antiderivative tables of the reference duals (`dualspace.partial_moments`).
The same moments make the L2 Gram semiseparable off its diagonal blocks
(`_l2_gram`) and sum the L2 resolved part by a prefix and a suffix sum.
The H10 Gram is K^{-1}, K the interior stiffness, so its condition number
is K's and the H10 operator forms its Gram, by one solve, only when read.

Smooth sources go through one primitive (`_poisson_apply`),

    G f(x) = (1 - x) int_0^x s f(s) ds + x int_x^1 (1 - s) f(s) ds,

whose two integrals are cumulative sums of Gauss rules over the cells
between the mesh boundaries and source breakpoints.  The cell holding x is
integrated only on its piece left of x; its right piece is the whole-cell
moment minus that one, so each point's density is tabulated once.

Every integral of the kernel is thus split at its kink x = s, the one
quadrature under which the derivative pairing works; a rule cut only at
the mesh boundaries misses the kink's derivative jump (criterion 12).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .basis1d import Field, SpaceKind, _element_cols, _locate, element_tab, field_eval
from .dualspace import SPDMatrix, _reference_duals, partial_moments
from .kernels import GreensKernel1D, _check_unit_domain, poisson_green
from .projection import (DualFunctionals, ProjectionFlavor, mesh_quadrature, pair_functionals,
                         source_rule_points, tabulate_functionals)
from .quadrature import (composite_rule, default_quad_points, gauss_legendre_rule, map_rule,
                         sorted_unique)

# Rule points tabulated at once by the Green's primitive: bounds its working
# set, which would otherwise grow with the evaluation points.
_BLOCK_POINTS = 1024


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

    @classmethod
    def from_function(cls, f, breakpoints: Sequence[float] = ()) -> "SourceTerm":
        return cls(smooth=f, breakpoints=tuple(float(b) for b in breakpoints))


def _poisson_apply(density, x, cuts, quad_points: int, deriv: int = 0) -> np.ndarray:
    """The Poisson Green's operator (deriv=0) or its x-derivative (deriv=1)
    applied to a batch of densities, at the points x in [0, 1].

    `density(s)` returns one value per point, or one column per density;
    `cuts` are its derivative-kink locations.  With A(x) = int_0^x s f ds
    and B(x) = int_x^1 (1 - s) f ds, G f = (1 - x) A + x B and
    (G f)' = B - A.  The cells between the cuts are integrated once and
    summed cumulatively; the cell holding x (the left one for x on a cut,
    as `basis1d._locate` places it) adds its piece left of x to A
    and takes it from its whole-cell moment for B, so each point sees a
    quadrature split at the kernel kink with one Gauss rule per point.
    Densities are tabulated _BLOCK_POINTS rule points at a time.  Returns
    shape (len(x), number of densities).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_domain(x)
    x = np.clip(x, 0.0, 1.0)
    bounds = sorted_unique(np.concatenate(([0.0, 1.0], np.asarray(cuts, dtype=float))))
    bounds = bounds[(bounds >= 0.0) & (bounds <= 1.0)]
    rule = gauss_legendre_rule(quad_points)
    step = max(1, _BLOCK_POINTS // rule.npoints)

    def moments(lo, hi):
        # (int s f ds, int (1 - s) f ds) over every [lo_i, hi_i]
        parts = []
        for start in range(0, lo.size, step):
            s, w = map_rule(rule, lo[start:start + step], hi[start:start + step])
            f = np.asarray(density(s.ravel()), dtype=float).reshape(s.shape + (-1,))
            parts.append(np.einsum("jiq,iqk->jik", np.stack((s * w, (1.0 - s) * w)), f))
        return np.concatenate(parts, axis=1)

    whole = moments(bounds[:-1], bounds[1:])
    zero = np.zeros((1, whole.shape[2]))
    before = np.concatenate((zero, np.cumsum(whole[0], axis=0)))
    after = np.concatenate((np.cumsum(whole[1][::-1], axis=0)[::-1], zero))
    cell = _locate(bounds, x)[0]
    left = moments(bounds[cell], x)
    a = before[cell] + left[0]
    b = after[cell] - left[1]
    return b - a if deriv else (1.0 - x)[:, None] * a + x[:, None] * b


def _l2_element_lifts(fns: DualFunctionals, elem, xi, x, deriv: int = 0) -> np.ndarray:
    """The lifts (or x-derivatives) at x of the p duals of its element elem,
    xi its reference coordinate there; shape (len(x), p).

    With A_j(x) = int_{a_e}^x s mu_j and B_j(x) = int_x^{b_e} (1 - s) mu_j =
    beta_j - int_{a_e}^x (1 - s) mu_j (`dualspace.partial_moments`),
    G mu_j = (1 - x) A_j + x B_j inside the element, as `_poisson_apply`
    forms G f, and its x-derivative is B_j - A_j.
    """
    lower, partial = partial_moments(fns.duals, elem, xi)
    upper = fns.duals.moments[1][elem] - partial
    if deriv:
        return upper - lower
    x = np.asarray(x, dtype=float)[:, None]
    return (1.0 - x) * lower + x * upper


def _l2_lifts_at(fns: DualFunctionals, x, deriv: int = 0):
    """x as a 1D array clipped to [0, 1] (rejected outside the mesh, NaN
    too), each point's element and the lifts (or x-derivatives) of that
    element's p duals at the point."""
    elem, _, xi = _locate(fns.family.mesh.boundaries, x)
    x = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), 0.0, 1.0)
    return x, elem, _l2_element_lifts(fns, elem, xi, x, deriv)


def _lift(fns: DualFunctionals, x, deriv: int = 0) -> np.ndarray:
    """Every lifted functional G(load_j), or its x-derivative, at x.

    For H10 the Poisson kernel inverts the load (minus the second
    derivative plus the node point sources) exactly, so the lift is the
    functional itself; derivatives at mesh nodes are the left element's.
    For L2 the load is the dual density mu_j, one element's, and the lift
    is in closed form: x beta_j left of the dual's element, (1 - x) alpha_j
    right of it (`DualSet.moments`) and `_l2_element_lifts` inside; the
    x-derivatives left and right are beta_j and -alpha_j.  The lift is C^1,
    so a point on a mesh node may take either side.
    """
    if fns.flavor is ProjectionFlavor.H10:
        return tabulate_functionals(fns, x, deriv=deriv)
    x, elem, local = _l2_lifts_at(fns, x, deriv)
    alpha, beta = fns.duals.moments
    p = fns.family.degree
    # the duals of elements left of each point's element: it lies right of them
    right = np.arange(fns.size)[None, :] < (p * elem)[:, None]
    if deriv:
        out = np.where(right, -alpha.ravel(), beta.ravel())
    else:
        out = np.where(right, np.multiply.outer(1.0 - x, alpha.ravel()),
                       np.multiply.outer(x, beta.ravel()))
    out[np.arange(x.size)[:, None], _element_cols(fns.family.mesh, elem, p)] = local
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


def green_apply(src: SourceTerm, x, quad_points: int,
                mesh_boundaries: Sequence[float] | None = None):
    """Evaluate the Poisson Green's operator applied to a source at the points x.

    The smooth part is integrated by the cumulative-sum primitive, cut at
    every x, the source's own breakpoints and any supplied mesh
    boundaries; point sources contribute `poisson_green` values.  A coarse
    field raises ValueError: its image, minus the field, is subtracted
    once, by `reconstruct_fine_scales`.
    """
    if src.coarse is not None:
        raise ValueError("green_apply takes no coarse field; its Green's image is minus "
                         "the field")
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    if src.smooth is not None:
        cuts = np.concatenate((() if mesh_boundaries is None else mesh_boundaries,
                               src.breakpoints))
        out += _poisson_apply(src.smooth, x, cuts, quad_points)[:, 0]
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    out += poisson_green(x[:, None], locs[None, :]) @ qs
    return float(out[0]) if scalar else out


def _field_pairing(fns: DualFunctionals, fld: Field) -> np.ndarray:
    """The functionals' exact flavor pairing with a coarse field: L2 against
    the field, H10 against its derivative.

    The integrands are polynomials of degree at most p + q - 1 between the
    two meshes' boundaries, q the field's degree, so that Gauss rule is
    exact.  An edge field jumps at the nodes, so its H10 pairing (and
    projection) is undefined.
    """
    h10 = fns.flavor is ProjectionFlavor.H10
    if h10 and fld.space is SpaceKind.EDGE:
        raise ValueError("an edge field has no H10 pairing: its H10 projection is undefined")
    bounds = sorted_unique(np.concatenate((fns.family.mesh.boundaries,
                                           fld.family.mesh.boundaries)))
    rule = gauss_legendre_rule((fns.family.degree + fld.family.degree) // 2 + 1)
    s, w = composite_rule(rule, bounds)
    deriv = 1 if h10 else 0
    return pair_functionals(fns, s, w * field_eval(fld, s, deriv=deriv), deriv=deriv)


def _green_and_pairing(fns: DualFunctionals, src: SourceTerm, grid: np.ndarray,
                       quad_points: int | None):
    """G src on the grid, and every functional paired with G src.

    G src = G f - u_bar (module docstring): the smooth part and point
    sources first, then u_bar and its pairing subtracted once.  The L2
    pairing of G f is element-local, on the source rule (cut also at the
    point sources), which one primitive call tabulates with the grid.  The
    H10 pairing of G f is the source's own, by the interior nodal basis
    and one stiffness solve (`pair_functionals`).  u_bar's pairing is
    exact (`_field_pairing`); for an edge field of the L2 functionals'
    family it is its coefficients (the functionals are biorthogonal to
    that basis), about ten times more accurate than pairing G f - u_bar
    tabulated on the rule.
    """
    quad_points = source_rule_points(fns.family, quad_points)
    bounds = fns.family.mesh.boundaries
    locs, qs = np.array(src.point_sources, dtype=float).reshape(-1, 2).T
    loads = replace(src, coarse=None)
    if fns.flavor is ProjectionFlavor.L2:
        s, w = mesh_quadrature(fns.family, quad_points, np.r_[src.breakpoints, locs])
        image = green_apply(loads, np.concatenate((grid, s)), quad_points, bounds)
        data = pair_functionals(fns, s, w * image[grid.size:])
        image = image[:grid.size]
    else:
        image = green_apply(loads, grid, quad_points, bounds) if grid.size else grid
        s, w = mesh_quadrature(fns.family, quad_points, src.breakpoints)
        smooth = w * np.asarray(src.smooth(s), dtype=float) if src.smooth is not None else 0.0 * w
        data = pair_functionals(fns, np.r_[s, locs], np.r_[smooth, qs])
    coarse = src.coarse
    if coarse is not None:
        mesh = coarse.family.mesh
        if abs(mesh.a) > 1e-14 or abs(mesh.b - 1.0) > 1e-14:
            raise ValueError("a coarse field's mesh must cover the kernel domain [0, 1]")
        own_edge = (fns.flavor is ProjectionFlavor.L2 and coarse.space is SpaceKind.EDGE
                    and coarse.family is fns.family)
        image = image - field_eval(coarse, grid)
        data = data - (coarse.coeffs if own_edge else _field_pairing(fns, coarse))
    return image, data


def _l2_gram(fns: DualFunctionals) -> np.ndarray:
    """The L2 Gram matrix (mu_i, G mu_j) in closed form.

    Off the diagonal blocks it is semiseparable: alpha_i beta_j when dual
    i's element lies left of dual j's, and its mirror when right.  Each
    diagonal block pairs its element's duals with their lifts inside it,
    polynomials of degree p - 1 and p + 1, on the exact (p + 1)-point
    rule, and is symmetrized as the Gram is.
    """
    mesh = fns.family.mesh
    num, p = mesh.num_elements, mesh.degree
    alpha, beta = fns.duals.moments
    rule = gauss_legendre_rule(p + 1)
    elem = np.repeat(np.arange(num), rule.npoints)
    xi = np.tile(rule.nodes, num)
    x = mesh.boundaries[elem] + mesh.jacobian(elem) * (1.0 + xi)
    lifts = _l2_element_lifts(fns, elem, xi, x).reshape(num, rule.npoints, p)
    # mu_i(x) dx = mu_i(xi) J_e d xi on the reference element
    mu = _reference_duals(fns.duals, rule.nodes) * rule.weights[:, None]
    local = mesh.jacobian(np.arange(num))[:, None, None] * np.einsum("qi,eqj->eij", mu, lifts)
    upper = np.triu(np.outer(alpha, beta), 1)
    gram = upper + upper.T
    diag = np.arange(num)
    gram.reshape(num, p, num, p)[diag, :, diag, :] = 0.5 * (local + local.transpose(0, 2, 1))
    return gram


@dataclass(frozen=True)
class FineScaleOperator:
    """Precomputed fine-scale Green's operator for one kernel and dual set.

    Holds the functionals whose flavor pairing drives all dual
    applications, and forms what it needs of the rest on first use.  The
    lifted functionals are exact and evaluated on demand: for L2 in closed
    form from the dual moments, for H10 the functionals themselves.  The
    Gram is SPD for both flavors and Cholesky-factored on the first solve,
    which H10 reconstructions never need; an H10 operator forms no Gram
    unless it is read, as its condition number is the stiffness's.
    `quad_points` is the reconstructions' source rule.
    """

    kernel: GreensKernel1D
    functionals: DualFunctionals
    quad_points: int

    @property
    def flavor(self) -> ProjectionFlavor:
        return self.functionals.flavor

    @property
    def size(self) -> int:
        return self.functionals.size

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """The Gram matrix duals G duals^T, the flavor pairing of each
        functional with each lift, exactly symmetric.

        For L2 it is in closed form from the dual moments (`_l2_gram`).
        For H10 the lifts are the functionals K^{-1} psi, so their H10
        pairing is K^{-1} K K^{-1} = K^{-1}: one solve of the identity,
        symmetrized.
        """
        fns = self.functionals
        if self.flavor is ProjectionFlavor.L2:
            return _l2_gram(fns)
        inverse = fns.stiffness.solve(np.eye(fns.size))
        return 0.5 * (inverse + inverse.T)

    @functools.cached_property
    def gram_cond(self) -> float:
        """The Gram's 2-norm condition number, from the extreme eigenvalues
        of the symmetric L2 Gram, or for H10 of the stiffness K, as the H10
        Gram is K^{-1}."""
        l2 = self.flavor is ProjectionFlavor.L2
        mat = self.gram if l2 else self.functionals.stiffness.entries
        if not np.all(np.isfinite(mat)):
            return np.inf
        eig = np.abs(np.linalg.eigvalsh(mat))
        return float(eig.max() / eig.min()) if eig.min() > 0.0 else np.inf

    def lifted_tab(self, x) -> np.ndarray:
        """Tabulate every lifted functional at x; shape (len(x), size)."""
        return _lift(self.functionals, x)

    def resolved(self, x, data: np.ndarray) -> np.ndarray:
        """The resolved part sum_i R_i(x) data_i at x, where R_i are the
        reconstruction functions (G duals)^T [Gram]^{-1}; `data` is one
        vector, or one column per right side.

        The H10 reconstruction functions are the interior nodal basis, so
        each point gathers its element's coefficients with no solve; the
        L2 ones are the lifts times the Gram solution, summed in closed
        form in O(points p) by `_l2_lift_sum`: a prefix sum of the
        alpha moments, a suffix sum of the beta moments and the point's
        own element's p lifts.
        """
        if self.flavor is ProjectionFlavor.L2:
            return _l2_lift_sum(self.functionals, x, self.solve_gram(data))
        family = self.functionals.family
        coeffs = np.zeros((family.mesh.num_nodal_dofs,) + np.shape(data)[1:])
        coeffs[1:-1] = data
        cols, vals = element_tab(family, SpaceKind.NODAL, x)
        return np.einsum("ij,ij...->i...", vals, coeffs[cols])

    @functools.cached_property
    def _gram_spd(self) -> SPDMatrix:
        return SPDMatrix(self.gram)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        return self._gram_spd.solve(rhs)


def build_fine_scale_operator(kernel: GreensKernel1D, fns: DualFunctionals,
                              quad_points: int | None = None) -> FineScaleOperator:
    """Build the operator and check its Gram's condition number.

    The L2 build assembles the Gram in closed form (`_l2_gram`); the H10
    build forms none, taking the condition number from the stiffness.  The
    Gram integrands are polynomials integrated exactly, whatever
    `quad_points` is.  `quad_points` is only stored as the reconstructions'
    source rule; without it the rule grows with the degree
    (`default_quad_points`).
    """
    mesh = fns.family.mesh
    if quad_points is None:
        quad_points = default_quad_points(mesh.degree)
    if abs(mesh.a) > 1e-14 or abs(mesh.b - 1.0) > 1e-14:
        raise ValueError("mesh must cover the kernel domain [0, 1]")
    op = FineScaleOperator(kernel, fns, quad_points)
    if op.gram_cond > 1e14:
        raise ValueError("singular dual Gram matrix: assembly defect")
    return op


def fine_scale_eval(op: FineScaleOperator, x, s) -> np.ndarray:
    """Evaluate the fine-scale kernel on the grid x (rows) by s (columns).

    The representers at s are the lifts there.  When x is s the L2
    resolved part L Gram^{-1} L^T comes from that one table, symmetrized
    as the kernel is.  The H10 fine-scale kernel is each element's own
    Green's function, so it is exactly zero where x and s lie in different
    elements or either lies on a mesh node.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    full = op.kernel(xs[:, None], ss[None, :])
    rep = op.lifted_tab(ss)
    if op.flavor is ProjectionFlavor.L2 and np.array_equal(xs, ss):
        resolved = rep @ op.solve_gram(rep.T)
        out = full - 0.5 * (resolved + resolved.T)
    else:
        out = full - op.resolved(xs, rep.T)
    if op.flavor is ProjectionFlavor.H10:
        bounds = op.functionals.family.mesh.boundaries
        # the element holding each point, -1 on a node
        ex, es = (np.where(np.isin(p, bounds), -1, _locate(bounds, p)[0]) for p in (xs, ss))
        out[(ex[:, None] != es[None, :]) | (ex[:, None] < 0)] = 0.0
    if np.isscalar(x) and np.isscalar(s):
        return float(out[0, 0])
    return out


def _annihilated(op: FineScaleOperator, fld: Field | None) -> bool:
    """Whether the operator annihilates the field's distributional second
    derivative: an H10 operator and a nodal field of its family that
    vanishes at both ends, so a member of the resolved space."""
    return (op.flavor is ProjectionFlavor.H10 and fld is not None
            and fld.space is SpaceKind.NODAL and fld.family is op.functionals.family
            and fld.coeffs[0] == 0.0 and fld.coeffs[-1] == 0.0)


def reconstruct_fine_scales(op: FineScaleOperator, residual: SourceTerm, grid) -> np.ndarray:
    """Unresolved scales: the fine-scale operator applied to a residual, on a grid.

    G r - resolved(pairing of G r), with G r = G f - u_bar for a coarse
    field u_bar (see the module docstring and `_green_and_pairing`).  A
    field the operator annihilates (`_annihilated`: its two terms cancel)
    is dropped.  An edge field under an H10 operator raises ValueError.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if _annihilated(op, residual.coarse):
        residual = replace(residual, coarse=None)
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
