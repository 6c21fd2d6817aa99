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
in the other direction is the semiseparable Green's function of
-d^2/dy^2 + (n pi)^2, so the convolution is one left and one right damped
running sum over all terms at once, on pieces short enough for a fixed
Gauss rule (the 1D Poisson primitive's cumulative sums, cf. Greengard &
Rokhlin, CPAM 44, 1991).  Pairings of the truncated operator reduce to
sums of 1D integrals, keeping the whole pipeline consistent with the same
truncated kernel the reconstruction uses.  The pairing and the convolution
need the residual only through its sine moments, so they share one
tabulation on the convolution's pieces (`_green_tables`): each piece lies
in one element, where the basis is a polynomial, and carries at least the
source rule's points.

As in 1D the fine-scale operator annihilates the resolved space (Hughes &
Sangalli, SIAM J. Numer. Anal. 45, 2007), so the fine scales depend on the
source alone (`residual_2d`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis1d import BasisFamily, Mesh1D, SpaceKind, basis_family, tabulate_nodal
from .dualspace import SPDMatrix, assemble_mass
from .kernels import DEFAULT_SERIES_TERMS, _check_unit_domain
from .projection import assemble_stiffness, mesh_quadrature, source_rule_points
from .quadrature import composite_rule, gauss_legendre_rule, sorted_unique

_OSC_MARGIN = 12
# Convolution pieces: e^{-k t} of the steepest term changes by at most
# e^_PIECE_DECAY across one, which _PIECE_POINTS Gauss points integrate to
# rounding (a piece carries the source rule's points if those are more);
# the residual is tabulated _BLOCK_POINTS rule points at a time.
_PIECE_DECAY = 20.0
_PIECE_POINTS = 20
_BLOCK_POINTS = 256


@dataclass(frozen=True)
class Mesh2D:
    """Tensor mesh: the same 1D partition and degree in both directions."""

    mesh1d: Mesh1D

    def __post_init__(self):
        if abs(self.mesh1d.a) > 1e-14 or abs(self.mesh1d.b - 1.0) > 1e-14:
            raise ValueError("the square-domain machinery expects [0, 1] per direction")


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
    chol = SPDMatrix(b)
    reduced = chol.substitute(chol.substitute(a).T)
    theta, reduced_vecs = np.linalg.eigh(0.5 * (reduced + reduced.T))
    if theta[0] <= 0.0:
        raise ValueError(f"{name} not positive definite")
    return theta, chol.substitute(reduced_vecs, transpose=True)


def build_dual_functionals_2d(mesh: Mesh2D) -> DualFunctionals2D:
    family = basis_family(mesh.mesh1d)
    stiff = assemble_stiffness(family).entries
    mass = assemble_mass(family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    eigvals, eigvecs = _generalized_eigh(stiff, mass, "2D stiffness")
    return DualFunctionals2D(family, eigvecs, eigvals)


def _stiffness_solve(d2: DualFunctionals2D, load: np.ndarray) -> np.ndarray:
    """Nodal coefficients [j, k] of K2^{-1} applied to a load; load[a, b] pairs psi_a (x) psi_b."""
    return d2.eigvecs @ (load / d2.eig_sums) @ d2.eigvecs.T


def _tensor_duals(d2: DualFunctionals2D, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """`_stiffness_solve` of every rank-one load fx[x] (x) fy[y]: (len(fx), len(fy), size)."""
    v = d2.eigvecs
    out = np.einsum("xa,yb,ab,ja,kb->xyjk", fx, fy, 1.0 / d2.eig_sums, v, v, optimize=True)
    return out.reshape(fx.shape[0], fy.shape[0], d2.size)


def _interior_tab(family: BasisFamily, pts, deriv: int = 0) -> np.ndarray:
    return tabulate_nodal(family, pts, deriv=deriv)[:, 1:-1]


def _psi_tab(d2: DualFunctionals2D, pts, deriv: int = 0) -> np.ndarray:
    return _interior_tab(d2.family, pts, deriv) @ d2.eigvecs


@dataclass(frozen=True)
class Field2D:
    """Interior tensor nodal field on the unit square (zero boundary trace)."""

    family: BasisFamily
    coeffs: np.ndarray

    def coeff_matrix(self) -> np.ndarray:
        m = self.family.mesh.num_nodal_dofs - 2
        return self.coeffs.reshape(m, m)

    def eval_grid(self, x, y, deriv_x: int = 0, deriv_y: int = 0) -> np.ndarray:
        bx = _interior_tab(self.family, x, deriv_x)
        by = _interior_tab(self.family, y, deriv_y)
        return bx @ self.coeff_matrix() @ by.T


def project_2d(d2: DualFunctionals2D,
               gradient: tuple[Callable, Callable] | None = None,
               source: Callable | None = None,
               quad_points: int | None = None) -> Field2D:
    """Derivative-pairing projection onto the interior tensor nodal space.

    Either pair the functional gradients with an analytic solution gradient,
    or use the diffusion shortcut and pair the functionals with the source.
    """
    family = d2.family
    x, w = mesh_quadrature(family, quad_points)
    tab = _psi_tab(d2, x)
    grid_w = np.outer(w, w)
    if source is not None:
        load = grid_w * np.asarray(source(x[:, None], x[None, :]), dtype=float)
        pair = tab.T @ load @ tab
    elif gradient is not None:
        gx, gy = gradient
        lx = grid_w * np.asarray(gx(x[:, None], x[None, :]), dtype=float)
        ly = grid_w * np.asarray(gy(x[:, None], x[None, :]), dtype=float)
        dtab = _psi_tab(d2, x, 1)
        pair = dtab.T @ lx @ tab + tab.T @ ly @ dtab
    else:
        raise ValueError("provide the source or the solution gradient")
    return Field2D(family, _stiffness_solve(d2, pair).ravel())


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
    quad_points: int              # floor on the Gauss points per convolution piece
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
    quad_points = source_rule_points(d2.family, quad_points)
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


def _piece_ends(cuts: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """Every cut interval [a, b] split into its n equal pieces: the ends
    np.linspace(a, b, n + 1) gives, bit for bit, joined in order."""
    last = np.cumsum(splits) - 1
    interval = np.repeat(np.arange(splits.size), splits)
    count = np.arange(1, last[-1] + 2) - np.repeat(last + 1 - splits, splits)
    step = np.diff(cuts) / splits
    ends = count * step[interval] + cuts[interval]
    ends[last] = cuts[1:]
    return np.concatenate((cuts[:1], ends))


def _green_tables(op: SeriesOperator2D, residual: Callable, y) -> tuple[np.ndarray, np.ndarray]:
    """Both uses of a residual's sine moments D_n(t), from one tabulation.

    Returns the profiles (terms, len(y)) of the terms of `green_apply_2d`,
    (2 / k) times each profile integral, so that the image is
    sines(x)^T @ profiles, and the pairing [a, b] of that image with
    psi_a (x) psi_b.  Moving the Laplacian onto the kernel collapses the
    profile direction of the pairing to 2 S^T int D_n psi_b: every piece
    lies in one element, where psi_b is a polynomial, so the pieces'
    rule serves both integrals.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_unit_domain(y)
    y = np.clip(y, 0.0, 1.0)
    k = np.pi * np.arange(1, op.num_terms + 1)
    cuts = sorted_unique(np.concatenate((op.duals.family.mesh.boundaries, y)))
    ends = _piece_ends(cuts, np.ceil(k[-1] * np.diff(cuts) / _PIECE_DECAY).astype(int))
    pieces = ends.size - 1
    points = max(_PIECE_POINTS, op.quad_points)
    rule = gauss_legendre_rule(points)
    # left[:, j] and right[:, j]: the two damped sums at ends[j], first per piece
    left = np.zeros((k.size, ends.size))
    right = np.zeros_like(left)
    psi_moments = np.zeros((k.size, op.duals.interior_size))  # int D_n psi_b
    block = max(1, _BLOCK_POINTS // points)
    for start in range(0, pieces, block):
        stop = min(start + block, pieces)
        t, w = composite_rule(rule, ends[start:stop + 1])
        r_grid = np.asarray(residual(op.osc_nodes[:, None], t[None, :]), dtype=float)
        d_table = (op.sine_weighted @ r_grid) * w[None, :]     # (terms, pts)
        psi_moments += d_table @ _psi_tab(op.duals, t)
        lo = np.repeat(ends[start:stop], points)
        hi = np.repeat(ends[start + 1:stop + 1], points)
        to_hi = np.exp(-np.outer(k, hi - t)) * -np.expm1(-np.outer(k, 2.0 * t))
        to_lo = np.exp(-np.outer(k, t - lo)) * -np.expm1(-np.outer(k, 2.0 * (1.0 - t)))
        shape = (k.size, stop - start, points)
        left[:, start + 1:stop + 1] = (d_table * to_hi).reshape(shape).sum(axis=2)
        right[:, start:stop] = (d_table * to_lo).reshape(shape).sum(axis=2)
    decay = np.exp(-np.outer(k, np.diff(ends)))
    for j in range(pieces):
        left[:, j + 1] += decay[:, j] * left[:, j]
        right[:, pieces - 1 - j] += decay[:, pieces - 1 - j] * right[:, pieces - j]
    at = np.searchsorted(ends, y)
    profile = (-np.expm1(-np.outer(k, 2.0 * (1.0 - y))) * left[:, at]
               - np.expm1(-np.outer(k, 2.0 * y)) * right[:, at]) \
        / (-2.0 * np.expm1(-2.0 * k))[:, None]
    return profile * (2.0 / k)[:, None], 2.0 * op.sine_moments.T @ psi_moments


def apply_duals_to_green_2d(op: SeriesOperator2D, residual: Callable) -> np.ndarray:
    """Pair every functional with the truncated-kernel image of a residual."""
    return _stiffness_solve(op.duals, _green_tables(op, residual, ())[1]).ravel()


def green_apply_2d(op: SeriesOperator2D, residual: Callable, x, y) -> np.ndarray:
    """Truncated-kernel convolution with a residual on the meshgrid (x, y).

    Term n is (2 / k) sin(k x) int P_k(y, t) D_n(t) dt, k = n pi, with D_n
    the sine moment of the residual (the precomputed sine rule) and

        P_k(y, t) = e^{-k|y - t|} (1 - e^{-2k min}) (1 - e^{-2k (1 - max)}) / (2 (1 - e^{-2k})).

    P_k is semiseparable, so the profile integral is a left and a right
    damped running sum over pieces of [0, 1] cut at the mesh lines and at
    every output ordinate, each step scaled by e^{-k width}: no exponent is
    positive at any term count.  A piece spans at most _PIECE_DECAY / k_max,
    which its Gauss rule of max(_PIECE_POINTS, quad_points) points
    integrates to rounding.
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
