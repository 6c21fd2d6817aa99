"""Assembly and application of the fine-scale Green's operator.

The operator is the full kernel minus its resolved part,

    fine kernel = g - (G duals)^T [duals G duals^T]^{-1} (duals G),

built from three ingredients: the kernel lifted through each dual
functional, the Gram matrix of the functionals under the Green's
operator, and the pairing of the functionals with the Green's image of a
residual.

Functionals act through their flavor pairing.  The L2 functionals are
plain densities; the H10 functionals act through the derivative pairing,
so their load on the kernel is the distributional second derivative:
a piecewise-polynomial part plus point sources at the element nodes.
Residuals carry the same structure (smooth part, derivative-kink
breakpoints, point sources/dipoles), which is what makes the
discontinuity-split quadrature exact where naive quadrature fails.

The Poisson kernel is self-adjoint, so the representers (duals G) and the
lifts (G duals) are one function.  For H10 it is the functional itself,
since G inverts its load exactly; for L2 it is computed on demand from

    G f(x) = (1 - x) int_0^x s f(s) ds + x int_x^1 (1 - s) f(s) ds,

whose two integrals are cumulative sums of Gauss rules over the cells
between the mesh boundaries and source breakpoints, plus the two pieces of
the cell holding x.  Every smooth Green's application goes through that
one primitive, except the L2 lifts: each dual lives on one element, so
outside it both integrals are its whole-element moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis1d import Field, SpaceKind, element_endpoint_values, nodal_deriv_jumps
from .dualspace import _reference_duals
from .kernels import GreensKernel1D, _check_unit_domain
from .projection import DualFunctionals, ProjectionFlavor, mesh_quadrature, tabulate_functionals
from .quadrature import (DEFAULT_QUAD_POINTS, composite_rule, default_quad_points,
                         gauss_legendre_rule)

# Rule points tabulated at once by the Green's primitive: bounds its working
# set, which would otherwise grow with the evaluation points.
_BLOCK_POINTS = 1024


@dataclass(frozen=True)
class SourceTerm:
    """A right-hand-side functional: smooth density plus point terms.

    `breakpoints` are known derivative-kink locations of the smooth part;
    `point_sources`/`point_dipoles` are (location, strength) pairs for
    delta and delta-prime loads.  Green's applications add their analytic
    responses; quadrature never sees them.
    """

    smooth: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple = ()
    point_sources: tuple = ()
    point_dipoles: tuple = ()

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
    summed cumulatively; the cell holding x adds its two pieces split at x,
    so each point sees the composite Gauss rule of a per-point quadrature
    split at the kernel kink.  Densities are tabulated _BLOCK_POINTS rule
    points at a time.  Returns shape (len(x), number of densities).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_domain(x)
    x = np.clip(x, 0.0, 1.0)
    bounds = np.unique(np.concatenate(([0.0, 1.0], np.asarray(cuts, dtype=float))))
    bounds = bounds[(bounds >= 0.0) & (bounds <= 1.0)]
    rule = gauss_legendre_rule(quad_points)
    step = max(1, _BLOCK_POINTS // rule.npoints)

    def moments(lo, hi):
        # (int s f ds, int (1 - s) f ds) over every [lo_i, hi_i]
        parts = []
        for start in range(0, lo.size, step):
            a, b = lo[start:start + step, None], hi[start:start + step, None]
            s = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
            w = 0.5 * (b - a) * rule.weights
            f = np.asarray(density(s.ravel()), dtype=float).reshape(s.shape + (-1,))
            parts.append(np.einsum("jiq,iqk->jik", np.stack((s * w, (1.0 - s) * w)), f))
        return np.concatenate(parts, axis=1)

    whole = moments(bounds[:-1], bounds[1:])
    zero = np.zeros((1, whole.shape[2]))
    before = np.concatenate((zero, np.cumsum(whole[0], axis=0)))
    after = np.concatenate((np.cumsum(whole[1][::-1], axis=0)[::-1], zero))
    cell = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, bounds.size - 2)
    a = before[cell] + moments(bounds[cell], x)[0]
    b = after[cell + 1] + moments(x, bounds[cell + 1])[1]
    return b - a if deriv else (1.0 - x)[:, None] * a + x[:, None] * b


def _lift(fns: DualFunctionals, x, quad_points: int, deriv: int = 0) -> np.ndarray:
    """Every lifted functional G(load_j), or its x-derivative, at x.

    For H10 the Poisson kernel inverts the load (minus the second
    derivative plus the node point sources) exactly, so the lift is the
    functional itself; derivatives at mesh nodes are the left element's.
    For L2 the load is the dual density and the lift is its exact
    Poisson image, the `_poisson_apply` formula specialised to densities
    that live on one element each: left of its element a dual's A is its
    whole-element moment int_e s mu ds and its B is zero, right of it the
    reverse with int_e (1 - s) mu ds.  Only the p duals of the cell
    holding x are integrated on the two pieces split at x.
    """
    if fns.flavor is ProjectionFlavor.H10:
        return tabulate_functionals(fns, x, deriv=deriv)
    mesh = fns.family.mesh
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_domain(x)
    x = np.clip(x, 0.0, 1.0)
    bounds, nel = mesh.boundaries, mesh.num_elements
    rule = gauss_legendre_rule(quad_points)

    def moments(lo, hi, elem):
        # (int s mu ds, int (1 - s) mu ds) of the duals of elem_i over [lo_i, hi_i]
        s = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * rule.nodes
        w = 0.5 * (hi - lo)[:, None] * rule.weights
        jac = mesh.jacobian(elem)[:, None]
        xi = (s - bounds[elem][:, None]) / jac - 1.0
        mu = _reference_duals(fns.duals, xi.ravel()).reshape(s.shape + (-1,))
        return np.einsum("jiq,iqk->jik", np.stack((s * w, (1.0 - s) * w)), mu)

    whole = moments(bounds[:-1], bounds[1:], np.arange(nel))
    cell = np.clip(np.searchsorted(bounds, x, side="right") - 1, 0, nel - 1)
    side = np.sign(np.arange(nel)[None, :] - cell[:, None])[:, :, None]
    a = np.where(side < 0, whole[0], 0.0)
    b = np.where(side > 0, whole[1], 0.0)
    rows, lo, hi = np.arange(x.size), bounds[cell], bounds[cell + 1]
    split = np.clip(x, lo, hi)  # a mesh short of [0, 1] leaves x outside every cell
    a[rows, cell] = moments(lo, split, cell)[0]
    b[rows, cell] = moments(split, hi, cell)[1]
    a, b = a.reshape(x.size, -1), b.reshape(x.size, -1)
    return b - a if deriv else (1.0 - x)[:, None] * a + x[:, None] * b


def green_apply(kernel: GreensKernel1D, src: SourceTerm, x,
                quad_points: int = DEFAULT_QUAD_POINTS,
                mesh_boundaries: Sequence[float] | None = None):
    """Evaluate the Poisson Green's operator applied to a source at the points x.

    The smooth part is integrated by the cumulative-sum primitive, cut at
    every x, the source's own breakpoints and any supplied mesh
    boundaries; point sources and dipoles contribute kernel and
    kernel-derivative values directly.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = 0.0
    out = np.zeros_like(x)
    if src.smooth is not None:
        cuts = np.concatenate((() if mesh_boundaries is None else mesh_boundaries,
                               src.breakpoints))
        out += _poisson_apply(src.smooth, x, cuts, quad_points)[:, 0]
    for loc, q in src.point_sources:
        out += q * kernel(x, loc)
    for loc, q in src.point_dipoles:
        gs = kernel.derivative_s(x, loc)
        if loc <= lo + 1e-14 * kernel.width:
            # Evaluation exactly on a left-boundary dipole takes the limit
            # from inside the domain, matching the element-assignment
            # convention used for discontinuous fields.
            gs = np.where(x == loc, 1.0 - loc, gs)
        out -= q * gs
    return float(out[0]) if scalar else out


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


def dual_representers(kernel: GreensKernel1D, fns: DualFunctionals, s,
                      split: bool = True,
                      quad_points: int = DEFAULT_QUAD_POINTS,
                      deriv: int = 0) -> np.ndarray:
    """Riesz representers of (duals G) evaluated at the points s.

    Entry (q, j) is the pairing of functional j with the kernel column at
    s_q: the x-integral of the functional derivative against the kernel's
    x-derivative (H10) or of the functional against the kernel (L2).
    `deriv=1` returns the s-derivative of the representers (dipole loads).
    With `split` the kernel kink x = s_q is integrated exactly: the kernel
    is self-adjoint, so the representers are the lifts (G duals) and are
    evaluated as such.  Without it the x-integral is cut only at the mesh
    boundaries, the naive quadrature that misses the derivative
    discontinuity.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if split:
        return _lift(fns, s, quad_points, deriv)
    xq, wq = composite_rule(gauss_legendre_rule(quad_points), fns.family.mesh.boundaries)
    if fns.flavor is ProjectionFlavor.H10:
        pair_tab = tabulate_functionals(fns, xq, deriv=1)
        # d2 g / dx ds is -1 on both sides of the diagonal
        kern = kernel.derivative_x(xq[:, None], s[None, :]) if deriv == 0 \
            else -np.ones((xq.size, s.size))
    else:
        pair_tab = tabulate_functionals(fns, xq)
        kern = (kernel if deriv == 0 else kernel.derivative_s)(xq[:, None], s[None, :])
    out = kern.T @ (wq[:, None] * pair_tab)
    if fns.flavor is ProjectionFlavor.H10 and deriv == 1:
        # Leibniz term from the moving kink: the kernel's x-derivative drops
        # by one across x = s, so the split boundary's motion contributes
        # the functional derivative itself.
        out += tabulate_functionals(fns, s, deriv=1)
    return out


def apply_dual_green(kernel: GreensKernel1D, fns: DualFunctionals, src: SourceTerm,
                     split: bool = True,
                     quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Pair every functional with the Green's image of a source.

    Computed by swapping integration order: the source is integrated
    against the representers, so point sources and dipoles reduce to
    representer (derivative) evaluations.
    """
    out = np.zeros(fns.size)
    if src.smooth is not None:
        s, w = mesh_quadrature(fns.family, quad_points, src.breakpoints)
        rep = dual_representers(kernel, fns, s, split=split, quad_points=quad_points)
        out += rep.T @ (w * np.asarray(src.smooth(s), dtype=float))
    if src.point_sources:
        locs = np.array([loc for loc, _ in src.point_sources])
        qs = np.array([q for _, q in src.point_sources])
        rep = dual_representers(kernel, fns, locs, split=split, quad_points=quad_points)
        out += rep.T @ qs
    if src.point_dipoles:
        locs = np.array([loc for loc, _ in src.point_dipoles])
        qs = np.array([q for _, q in src.point_dipoles])
        drep = dual_representers(kernel, fns, locs, split=split,
                                 quad_points=quad_points, deriv=1)
        out -= drep.T @ qs
    return out


@dataclass(frozen=True)
class FineScaleOperator:
    """Precomputed fine-scale Green's operator for one kernel and dual set.

    Holds the factorized Gram matrix, its 2-norm condition number and the
    functionals whose flavor pairing drives all dual applications.  The
    lifted functionals are exact and evaluated on demand, so nothing else
    is stored.
    """

    kernel: GreensKernel1D
    functionals: DualFunctionals
    quad_points: int
    gram: np.ndarray
    gram_cond: float
    _lu: tuple = field(repr=False, default=None)

    @property
    def flavor(self) -> ProjectionFlavor:
        return self.functionals.flavor

    @property
    def size(self) -> int:
        return self.functionals.size

    def lifted_tab(self, x) -> np.ndarray:
        """Tabulate every lifted functional at x; shape (len(x), size)."""
        return _lift(self.functionals, x, self.quad_points)

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self._lu, np.asarray(rhs, dtype=float))


def lift_functionals_direct(kernel: GreensKernel1D, fns: DualFunctionals, x,
                            quad_points: int = DEFAULT_QUAD_POINTS) -> np.ndarray:
    """Direct-quadrature evaluation of every lifted functional at x.

    Per-point verification path for the exact lifts: applies the Green's
    kernel to each functional's load with one quadrature per point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mesh = fns.family.mesh
    smooth_tab, locs, strengths = functional_load(fns)
    rule = gauss_legendre_rule(quad_points)
    out = np.zeros((x.size, fns.size))
    for i, xi in enumerate(x):
        cuts = np.unique(np.concatenate((mesh.boundaries, [xi])))
        cuts = cuts[(cuts >= mesh.a) & (cuts <= mesh.b)]
        s, w = composite_rule(rule, cuts)
        out[i] = smooth_tab(s).T @ (w * kernel(xi, s))
    for k, loc in enumerate(np.atleast_1d(locs)):
        out += np.outer(kernel(x, loc), strengths[k])
    return out


def build_fine_scale_operator(kernel: GreensKernel1D, fns: DualFunctionals,
                              quad_points: int | None = None) -> FineScaleOperator:
    """Assemble and factorize the Gram matrix of the functionals under G.

    Without `quad_points` the rule grows with the degree
    (`default_quad_points`).
    """
    mesh = fns.family.mesh
    if quad_points is None:
        quad_points = default_quad_points(mesh.degree)
    if abs(mesh.a) > 1e-14 or abs(mesh.b - kernel.width) > 1e-14:
        raise ValueError("mesh must cover the kernel domain [0, width]")
    smooth_tab, locs, strengths = functional_load(fns)
    s, w = mesh_quadrature(fns.family, quad_points)
    rep = dual_representers(kernel, fns, s, split=True, quad_points=quad_points)
    gram = rep.T @ (w[:, None] * smooth_tab(s))
    if np.atleast_1d(locs).size:
        rep_locs = dual_representers(kernel, fns, np.atleast_1d(locs), split=True,
                                     quad_points=quad_points)
        gram += rep_locs.T @ strengths
    cond = float(np.linalg.cond(gram)) if np.all(np.isfinite(gram)) else np.inf
    if cond > 1e14:
        raise ValueError("singular dual Gram matrix: assembly defect")
    return FineScaleOperator(kernel, fns, quad_points, gram, cond, lu_factor(gram))


def fine_scale_eval(op: FineScaleOperator, x, s, split: bool = True) -> np.ndarray:
    """Evaluate the fine-scale kernel on the grid x (rows) by s (columns)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    full = op.kernel(xs[:, None], ss[None, :])
    lifted = op.lifted_tab(xs)
    if split and np.array_equal(xs, ss):
        # the split representers are the lifts
        rep = lifted
    else:
        rep = dual_representers(op.kernel, op.functionals, ss, split=split,
                                quad_points=op.quad_points)
    corr = lifted @ op.solve_gram(rep.T)
    out = full - corr
    if np.isscalar(x) and np.isscalar(s):
        return float(out[0, 0])
    return out


def reconstruct_fine_scales(op: FineScaleOperator, residual: SourceTerm, grid,
                            split: bool = True) -> np.ndarray:
    """Unresolved scales: the fine-scale operator applied to a residual, on a grid."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    lifted_residual = green_apply(op.kernel, residual, grid,
                                  quad_points=op.quad_points,
                                  mesh_boundaries=op.functionals.family.mesh.boundaries)
    data = apply_dual_green(op.kernel, op.functionals, residual, split=split,
                            quad_points=op.quad_points)
    return lifted_residual - op.lifted_tab(grid) @ op.solve_gram(data)


def resolved_basis_reproduction(op: FineScaleOperator, x) -> np.ndarray:
    """Tabulate (G duals)^T [Gram]^{-1} at x; column i is reconstruction function i.

    For the H10/Poisson pairing these coincide with the interior nodal
    basis functions.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return op.solve_gram(op.lifted_tab(x).T).T


def residual_from_field(u_bar: Field, source: Callable[[np.ndarray], np.ndarray],
                        scale: float = 1.0) -> SourceTerm:
    """Coarse-scale residual of -u'' = source: the source plus the field's
    distributional second derivative.

    Nodal fields contribute a piecewise second derivative with element
    boundaries as breakpoints; their interface delta loads are omitted
    because mesh-node kernel columns are resolved exactly and therefore
    annihilated.  Edge fields are discontinuous, so their interface and
    boundary jump terms enter as explicit point sources and dipoles.
    """
    family = u_bar.family
    mesh = family.mesh
    inner_breaks = tuple(mesh.boundaries[1:-1])

    if u_bar.space is SpaceKind.NODAL:
        from .basis1d import tabulate_nodal

        def smooth(s):
            return scale * np.asarray(source(s), dtype=float) + \
                tabulate_nodal(family, s, deriv=2) @ u_bar.coeffs

        return SourceTerm(smooth=smooth, breakpoints=inner_breaks)

    if u_bar.space is not SpaceKind.EDGE:
        raise ValueError("residual assembly handles primal nodal/edge fields")

    from .basis1d import tabulate_edge

    def smooth(s):
        return scale * np.asarray(source(s), dtype=float) + \
            tabulate_edge(family, s, deriv=2) @ u_bar.coeffs

    val_l, val_r = element_endpoint_values(u_bar, deriv=0)
    der_l, der_r = element_endpoint_values(u_bar, deriv=1)
    sources, dipoles = [], []
    for k in range(mesh.num_elements + 1):
        right_v = val_l[k] if k < mesh.num_elements else 0.0
        left_v = val_r[k - 1] if k > 0 else 0.0
        right_d = der_l[k] if k < mesh.num_elements else 0.0
        left_d = der_r[k - 1] if k > 0 else 0.0
        loc = mesh.boundaries[k]
        sources.append((loc, right_d - left_d))
        dipoles.append((loc, right_v - left_v))
    return SourceTerm(smooth=smooth, breakpoints=inner_breaks,
                      point_sources=tuple(sources), point_dipoles=tuple(dipoles))
