"""Tensor-product duals and fine-scale reconstruction on the unit square.

The projector duals mirror the 1D derivative-pairing construction: each
functional is the 2D interior stiffness solve of one tensor nodal basis
function.  The stiffness K2 = K (x) M + M (x) K is fast-diagonalized (Lynch,
Rice & Thomas, 1964): with the 1D eigenpairs K V = M V diag(lam), V^T M V = I,
K2^{-1} = (V (x) V) diag(1 / (lam_a + lam_b)) (V (x) V)^T, so every solve is
m x m work and no m^2 x m^2 matrix is formed.  The series Gram of the lifted
duals is fast-diagonalized the same way: its m blocks are A + lam_b B for
two fixed m x m matrices, so one generalized eigensolve (`_generalized_eigh`,
shared with the stiffness) diagonalizes them all and a Gram solve is two
m x m products.

All kernel applications exploit the separable eigenfunction series: the
sine direction is integrated once against high-order per-element rules
sized to the truncation order and the element width.  Each term's profile
in the other direction is the Green's function of -d^2/dy^2 + (n pi)^2,
which the damped Green's primitive `_damped_green_apply` applies to all
terms at once, cut at every ordinate, where e^{-n pi |y - s|} kinks: no bubble
series resolves that kink, as the 1D Poisson route's does its cells'.
Pairings of the truncated operator reduce to sums of 1D integrals of the
kernel the reconstruction uses.  The pairing and the convolution need the
residual only through its sine moments, so the primitive pairs each block
of its pieces with the basis as it tabulates it (`_green_tables`): each
piece lies in one element, where the basis is a polynomial, and carries at
least the source rule's points (and the floor, `_PIECE_POINTS`).

As in 1D the fine-scale operator annihilates the resolved space (Hughes &
Sangalli, SIAM J. Numer. Anal. 45, 2007), so the fine scales depend on the
source alone (`residual_2d`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis1d import BasisFamily, Mesh1D, basis_family, tabulate_nodal
from .dualspace import assemble_mass, assemble_stiffness
from .kernels import DEFAULT_SERIES_TERMS, _check_unit_domain, _check_unit_mesh
from .projection import mesh_quadrature, source_rule_points
from .quadrature import _piece_ends, composite_rule, cut_ends, gauss_legendre_rule, map_rule

_OSC_MARGIN = 12
# Across a piece of the damped primitive e^{-k t} falls by at most
# e^_PIECE_DECAY, which _PIECE_POINTS Gauss points, a piece's floor,
# integrate to rounding; it tabulates the residual _BLOCK_POINTS rule points
# at a time.
_PIECE_DECAY = 20.0
_PIECE_POINTS = 20
_BLOCK_POINTS = 256


@dataclass(frozen=True)
class Mesh2D:
    """Tensor mesh: the same 1D partition and degree in both directions."""

    mesh1d: Mesh1D

    def __post_init__(self):
        _check_unit_mesh(self.mesh1d, "the mesh of each direction")


@dataclass(frozen=True)
class DualFunctionals2D:
    """Interior-node tensor duals mu_i = K2^{-1} (phi_j (x) phi_k), i = j * m + k.

    Every 2D operation runs in the eigenbasis psi_a = sum_j eigvecs[j, a] phi_j,
    in which K2 is diag(lam_a + lam_b).
    """

    family: BasisFamily
    eigvecs: np.ndarray           # (m, m) V, with V^T M V = I and V^T K V = diag(eigvals)
    eigvals: np.ndarray           # (m,)

    @property
    def interior_size(self) -> int:
        return self.eigvals.size

    @property
    def size(self) -> int:
        return self.eigvals.size ** 2

    @property
    def eig_sums(self) -> np.ndarray:
        return self.eigvals[:, None] + self.eigvals[None, :]


def _generalized_eigh(a: np.ndarray, b: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a W = b W diag(theta), W^T b W = I, for a symmetric a
    and an SPD b; raises unless every theta is positive.

    Through b = L L^T this is the standard problem of L^-1 a L^-T,
    symmetrized against rounding, whose eigenvectors Y give W = L^-T Y.
    """
    try:
        chol = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} not positive definite") from exc
    reduced = np.linalg.solve(chol, np.linalg.solve(chol, a).T)
    theta, reduced_vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    if theta[0] <= 0.0:
        raise ValueError(f"{name} not positive definite")
    return theta, np.linalg.solve(chol.T, reduced_vecs)


def build_dual_functionals_2d(mesh: Mesh2D) -> DualFunctionals2D:
    family = basis_family(mesh.mesh1d)
    eigvals, eigvecs = _generalized_eigh(assemble_stiffness(family),
                                         assemble_mass(family)[1:-1, 1:-1], "2D stiffness")
    return DualFunctionals2D(family, eigvecs, eigvals)


def _stiffness_solve(d2: DualFunctionals2D, load: np.ndarray) -> np.ndarray:
    """Nodal coefficients [j, k] of K2^{-1} applied to a load; load[a, b] pairs psi_a (x) psi_b."""
    return d2.eigvecs @ (load / d2.eig_sums) @ d2.eigvecs.T


def _tensor_duals(d2: DualFunctionals2D, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """`_stiffness_solve` of every rank-one load fx[x] (x) fy[y]: (len(fx), len(fy), size)."""
    v = d2.eigvecs
    out = np.einsum("xa,yb,ab,ja,kb->xyjk", fx, fy, 1.0 / d2.eig_sums, v, v, optimize=True)
    return out.reshape(fx.shape[0], fy.shape[0], d2.size)


def _interior_tab(family: BasisFamily, pts) -> np.ndarray:
    return tabulate_nodal(family, pts)[:, 1:-1]


def _psi_tab(d2: DualFunctionals2D, pts) -> np.ndarray:
    return _interior_tab(d2.family, pts) @ d2.eigvecs


@dataclass(frozen=True)
class Field2D:
    """Interior tensor nodal field on the unit square (zero boundary trace)."""

    family: BasisFamily
    coeffs: np.ndarray

    def coeff_matrix(self) -> np.ndarray:
        m = self.family.mesh.num_nodal_dofs - 2
        return self.coeffs.reshape(m, m)

    def eval_grid(self, x, y) -> np.ndarray:
        return _interior_tab(self.family, x) @ self.coeff_matrix() @ _interior_tab(self.family, y).T


def project_2d(d2: DualFunctionals2D, source: Callable,
               quad_points: int | None = None) -> Field2D:
    """Derivative-pairing projection onto the interior tensor nodal space of
    the solution of -Laplace u = source, zero on the boundary: pairing the
    functionals' gradients with u's is, after integration by parts, pairing
    the functionals with the source.
    """
    x, w = mesh_quadrature(d2.family, quad_points)
    tab = _psi_tab(d2, x)
    load = np.outer(w, w) * np.asarray(source(x[:, None], x[None, :]), dtype=float)
    return Field2D(d2.family, _stiffness_solve(d2, tab.T @ load @ tab).ravel())


# ---------------------------------------------------------------------------
# truncated-series machinery


def _oscillatory_rule(mesh: Mesh1D, num_terms: int):
    # sized to the widest element: about 4 points per wavelength of the highest
    # kept sine, which resolves the products of two kept sines, plus _OSC_MARGIN
    widest = np.max(np.diff(mesh.boundaries))
    rule = gauss_legendre_rule(int(np.ceil(2.0 * num_terms * widest)) + _OSC_MARGIN)
    return composite_rule(rule, mesh.boundaries)


def _sine_table(num_terms: int, pts: np.ndarray) -> np.ndarray:
    n = np.arange(1, num_terms + 1)
    return np.sin(np.pi * np.outer(n, pts))


@dataclass(frozen=True)
class SeriesOperator2D:
    """Truncated-kernel fine-scale operator for the 2D derivative pairing.

    The operator depends only on the span of the duals, so it is built on
    psi_a (x) psi_b, which spans the same space as the mu_i.  Lifting through
    the truncated kernel truncates the sine expansion in x: the lift is
    sum_n 2 S[n, a] sin(n pi x) psi_b(y), S = sine_moments.  The Gram is the
    derivative-pairing Gram of the lifts.  The sines are orthogonal and the
    psi_b M- and K-orthogonal, so it couples only equal b: block b is
    2 S^T diag((n pi)^2 + lam_b) S = A + lam_b B, with A = 2 S^T diag((n pi)^2) S
    and B = 2 S^T S.  The Gram is fast-diagonalized like the stiffness: the
    eigenpairs of A W = B W diag(theta), W^T B W = I, give
    W^T (block b) W = diag(theta + lam_b) for every b at once.
    """

    duals: DualFunctionals2D
    num_terms: int
    quad_points: int              # the source rule, raised to 20 points a convolution piece
    sine_weighted: np.ndarray     # (terms, n_osc): sin(n pi s) * w at the sine rule
    osc_nodes: np.ndarray
    sine_moments: np.ndarray      # (terms, m): int sin(n pi s) psi_a(s) ds
    gram_eigvecs: np.ndarray      # (m, m) W, with W^T B W = I and W^T A W = diag(gram_eigvals)
    gram_eigvals: np.ndarray      # (m,) theta

    def solve_gram(self, rhs):
        """Solve the block-diagonal Gram for an (m, m) right side indexed [a, b]."""
        w = self.gram_eigvecs
        scale = self.gram_eigvals[:, None] + self.duals.eigvals[None, :]
        return w @ ((w.T @ np.asarray(rhs, dtype=float)) / scale)


def build_series_operator_2d(d2: DualFunctionals2D,
                             num_terms: int = DEFAULT_SERIES_TERMS,
                             quad_points: int | None = None) -> SeriesOperator2D:
    """Precompute the sine moments and the fast-diagonalized block-diagonal Gram.

    A block has rank at most `num_terms`, so fewer terms than interior
    nodes per direction leave it singular.
    """
    if num_terms < d2.interior_size:
        raise ValueError(f"the 2D Gram needs a series term per interior node and "
                         f"direction: {num_terms} < {d2.interior_size}")
    quad_points = source_rule_points(d2.family.degree, quad_points)
    s_nodes, s_weights = _oscillatory_rule(d2.family.mesh, num_terms)
    sine_weighted = _sine_table(num_terms, s_nodes) * s_weights[None, :]
    moments = sine_weighted @ _psi_tab(d2, s_nodes)           # (terms, m)
    scaled = (np.pi * np.arange(1, num_terms + 1))[:, None] * moments
    theta, w = _generalized_eigh(2.0 * (scaled.T @ scaled), 2.0 * (moments.T @ moments),
                                 "2D series Gram")
    return SeriesOperator2D(d2, num_terms, quad_points,
                            sine_weighted, s_nodes, moments, w, theta)


def lifted_duals_grid(op: SeriesOperator2D, x, y) -> np.ndarray:
    """Every lifted functional on the meshgrid of x and y: (len(x), len(y), size)."""
    lift_x = 2.0 * _sine_table(op.num_terms, x).T @ op.sine_moments
    return _tensor_duals(op.duals, lift_x, _psi_tab(op.duals, y))


def _damped(k, a):
    """E_k(a) = (1 - e^{-2 k a}) / (2 k), k > 0 one rate per last-axis
    column of a."""
    return np.expm1(-2.0 * k * a) / (-2.0 * k)


def _running_sums(c, d):
    """s_j = c_j + d_j s_{j-1} along axis 1, 0 <= d_j <= 1, by a doubling
    scan of log2(len) steps whose factors, products of d's, cannot overflow
    (Hillis & Steele, CACM 29, 1986)."""
    step = 1
    while step < c.shape[1]:
        c[:, step:] += d[:, step:] * c[:, :-step]
        d[:, step:] *= d[:, :-step]
        step *= 2
    return c


def _damped_green_apply(density, x, cuts, quad_points: int, rates, pair=None,
                        block_points: int = _BLOCK_POINTS):
    """G_k f at x in [0, 1], G_k the Green's operator of -u'' + k^2 u, zero ends.

    `density(t)` gives one column per density, each with its rate k > 0;
    `cuts` are its kinks, and NaN raises ValueError.  The kernel
    e^{-k |x - s|} E_k(min) E_k(1 - max) / E_k(1) (`_damped`) is
    semiseparable (Greengard & Rokhlin, CPAM 44, 1991): G_k f = [E_k(1 - x) L
    + E_k(x) R] / E_k(1), L = int_0^x e^{-k (x - s)} E_k(s) f, R = int_x^1
    e^{-k (s - x)} E_k(1 - s) f.  The Gauss rule is cut at 0, 1, the cuts
    and every x (`cut_ends`), as e^{-k |x - s|} kinks there, and each cell
    into pieces (`_PIECE_DECAY`, `map_rule`); L and R are running sums of
    the pieces, damped by e^{-k width} a step (`_running_sums`), read at x:
    no exponent is positive.  A piece carries at least _PIECE_POINTS Gauss
    points, so callers pass their plain source rule.  Each block of pieces is
    tabulated once, and `pair(t, fw)` maps its points and weighted values to
    a partial pairing.  Returns G_k f, (len(x), densities), and their sum or 0.
    The 1D Poisson operator, k = 0, is `kernels._poisson_cells`.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_unit_domain(x)
    x = np.clip(x, 0.0, 1.0)
    k = np.atleast_1d(np.asarray(rates, dtype=float))
    cells = cut_ends((0.0, 1.0), cuts, x)
    ends = _piece_ends(cells, np.ceil(k.max() * np.diff(cells) / _PIECE_DECAY).astype(int))
    rule = gauss_legendre_rule(max(_PIECE_POINTS, quad_points))
    step = max(1, block_points // rule.npoints)
    laid, half = map_rule(rule, ends[:-1], ends[1:]), 0.5 * np.diff(ends)[:, None]
    parts, pairing = [], 0.0
    for block in range(0, half.size, step):
        h, t, w = (a[block:block + step] for a in (half, *laid))
        f = np.asarray(density(t.ravel()), dtype=float).reshape(t.shape + (-1,)) * w[..., None]
        if pair is not None:
            pairing = pairing + pair(t.ravel(), f.reshape(t.size, -1))
        # each piece's integral in L at its right end and in R at its left end
        t, lag = t[..., None], -k * h[..., None]
        weights = np.stack((_damped(k, t) * np.exp(lag * (1.0 - rule.nodes[:, None])),
                            _damped(k, 1.0 - t) * np.exp(lag * (1.0 + rule.nodes[:, None]))))
        parts.append(np.einsum("jiq...,iq...->ji...", weights, f))
    left, right = np.concatenate(parts, axis=1)
    decay = np.exp(-k * np.diff(ends)[:, None])
    left, right = _running_sums(np.stack((left, right[::-1])), np.stack((decay, decay[::-1])))
    zero, at = np.zeros_like(left[:1]), np.searchsorted(ends, x)
    x, scale = x[:, None], _damped(k, 1.0)
    return (_damped(k, 1.0 - x) / scale * np.concatenate((zero, left))[at]
            + _damped(k, x) / scale * np.concatenate((right[::-1], zero))[at]), pairing


def _green_tables(op: SeriesOperator2D, residual: Callable, y) -> tuple[np.ndarray, np.ndarray]:
    """Both uses of a residual's sine moments D_n(t), from one tabulation.

    Returns the profiles 2 G_k D_n (terms, len(y)) of `green_apply_2d`,
    so that the image is sines(x)^T @ profiles, and the pairing [a, b] of
    that image with psi_a (x) psi_b.  Moving the Laplacian onto the kernel
    collapses the pairing's profile direction to 2 S^T int D_n psi_b: each
    of the primitive's pieces lies in one element, where psi_b is a
    polynomial, so it pairs each block it tabulates with psi_b.
    """
    def sine_moments(t):
        # a residual constant in a direction, or in both, is held at every point
        r_grid = np.broadcast_to(np.asarray(residual(op.osc_nodes[:, None], t[None, :]),
                                            dtype=float), (op.osc_nodes.size, t.size))
        return (op.sine_weighted @ r_grid).T

    profiles, psi_moments = _damped_green_apply(
        sine_moments, y, op.duals.family.mesh.boundaries, op.quad_points,
        np.pi * np.arange(1, op.num_terms + 1), lambda t, fw: fw.T @ _psi_tab(op.duals, t))
    return 2.0 * profiles.T, 2.0 * op.sine_moments.T @ psi_moments


def apply_duals_to_green_2d(op: SeriesOperator2D, residual: Callable) -> np.ndarray:
    """Pair every functional with the truncated-kernel image of a residual."""
    return _stiffness_solve(op.duals, _green_tables(op, residual, ())[1]).ravel()


def green_apply_2d(op: SeriesOperator2D, residual: Callable, x, y) -> np.ndarray:
    """Truncated-kernel convolution with a residual on the meshgrid (x, y).

    Term n is 2 sin(k x) G_k D_n(y), k = n pi, with D_n the sine moment
    of the residual (the precomputed sine rule) and G_k the Green's
    operator of -d^2/dy^2 + k^2, which `_damped_green_apply` applies on
    pieces cut at the mesh lines and at every ordinate, by the operator's
    source rule, raised to the primitive's floor of `_PIECE_POINTS` points
    a piece.
    """
    return _sine_table(op.num_terms, x).T @ _green_tables(op, residual, y)[0]


def reconstruct_fine_scales_2d(op: SeriesOperator2D, residual: Callable,
                               x, y) -> np.ndarray:
    """Fine scales of the 2D diffusion problem on the meshgrid (x, y).

    The residual is tabulated once, for the convolution and the pairing
    alike.  In the psi_a (x) psi_b basis the lifted data is
    (2 sines^T S) data psi(y)^T, so the convolution image and the lift
    share one sine table in x.
    """
    profiles, pairing = _green_tables(op, residual, y)
    data = op.solve_gram(pairing)
    lift = 2.0 * op.sine_moments @ data @ _psi_tab(op.duals, y).T
    return _sine_table(op.num_terms, x).T @ (profiles - lift)


def residual_2d(source: Callable, u_bar: Field2D | None) -> Callable:
    """The residual the fine-scale operator is applied to: the source alone.

    The exact operator annihilates u_bar's distributional Laplacian, the
    element-wise part plus the line loads [d u_bar / dn] delta on the mesh
    lines, as u_bar is resolved; the element-wise part alone it does not.
    """
    return source
