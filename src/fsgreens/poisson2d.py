"""Tensor-product duals and fine-scale reconstruction on the unit square.

The projector duals mirror the 1D derivative-pairing construction: each
functional is the 2D interior stiffness solve of one tensor nodal basis
function, with the stiffness assembled as the Kronecker sum of 1D
stiffness and mass blocks.

All kernel applications exploit the separable eigenfunction series: the
sine direction is integrated once against high-order per-element rules
sized to the truncation order, and the profile direction is integrated per
output row with splits at the element lines and a geometric refinement
around the profile kink.  Pairings of the truncated operator reduce to
sums of 1D integrals, keeping the whole pipeline consistent with the same
truncated kernel the reconstruction uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .basis1d import BasisFamily, Mesh1D, basis_family, nodal_deriv_jumps, tabulate_nodal
from .dualspace import assemble_mass
from .basis1d import SpaceKind
from .kernels import DEFAULT_SERIES_TERMS, series_term_profile
from .projection import assemble_stiffness
from .quadrature import composite_rule, gauss_legendre_rule

DEFAULT_PAIRING_POINTS = 12
DEFAULT_CONVOLUTION_POINTS = 20
_OSC_MARGIN = 30


@dataclass(frozen=True)
class Mesh2D:
    """Tensor mesh: the same 1D partition and degree in both directions."""

    mesh1d: Mesh1D

    def __post_init__(self):
        if abs(self.mesh1d.a) > 1e-14 or abs(self.mesh1d.b - 1.0) > 1e-14:
            raise ValueError("the square-domain machinery expects [0, 1] per direction")

    @property
    def interior_size(self) -> int:
        return self.mesh1d.num_nodal_dofs - 2

    @property
    def num_interior_dofs(self) -> int:
        return self.interior_size ** 2


def stiffness_2d_kronecker(family: BasisFamily):
    """Interior 2D stiffness as kron(K, M) + kron(M, K) of 1D blocks."""
    stiff = assemble_stiffness(family).entries
    mass = assemble_mass(family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    return np.kron(stiff, mass) + np.kron(mass, stiff), stiff, mass


def stiffness_2d_direct(family: BasisFamily, quad_points: int | None = None) -> np.ndarray:
    """Interior 2D stiffness by direct tensor quadrature (consistency oracle)."""
    npts = quad_points if quad_points is not None else family.degree + 2
    x, w = composite_rule(gauss_legendre_rule(npts), family.mesh.boundaries)
    tab = tabulate_nodal(family, x)[:, 1:-1]
    dtab = tabulate_nodal(family, x, deriv=1)[:, 1:-1]
    mass = tab.T @ (w[:, None] * tab)
    stiff = dtab.T @ (w[:, None] * dtab)
    return np.kron(stiff, mass) + np.kron(mass, stiff)


@dataclass(frozen=True)
class DualFunctionals2D:
    """Interior-node tensor duals: column i of `coeffs` expands functional i."""

    family: BasisFamily
    coeffs: np.ndarray            # (m^2, m^2), column i = nodal coefficients
    stiffness: np.ndarray         # the 2D interior stiffness used to build them

    @property
    def interior_size(self) -> int:
        return self.family.mesh.num_nodal_dofs - 2

    @property
    def size(self) -> int:
        return self.coeffs.shape[1]

    def coeff_tensor(self) -> np.ndarray:
        m = self.interior_size
        return self.coeffs.reshape(m, m, self.size)


def build_dual_functionals_2d(mesh: Mesh2D) -> DualFunctionals2D:
    family = basis_family(mesh.mesh1d)
    stiff2d, _, _ = stiffness_2d_kronecker(family)
    try:
        factor = cho_factor(stiff2d)
    except np.linalg.LinAlgError as exc:
        raise ValueError("2D stiffness not positive definite") from exc
    coeffs = cho_solve(factor, np.eye(stiff2d.shape[0]))
    return DualFunctionals2D(family, coeffs, stiff2d)


def _interior_tab(family: BasisFamily, pts, deriv: int = 0) -> np.ndarray:
    return tabulate_nodal(family, pts, deriv=deriv)[:, 1:-1]


def tabulate_functionals_2d(d2: DualFunctionals2D, x, y,
                            deriv_x: int = 0, deriv_y: int = 0) -> np.ndarray:
    """Meshgrid tabulation of every 2D functional: shape (len(x), len(y), size)."""
    bx = _interior_tab(d2.family, x, deriv_x)
    by = _interior_tab(d2.family, y, deriv_y)
    return np.einsum("xj,jki,yk->xyi", bx, d2.coeff_tensor(), by, optimize=True)


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

    def laplacian_grid(self, x, y) -> np.ndarray:
        return self.eval_grid(x, y, 2, 0) + self.eval_grid(x, y, 0, 2)


def project_2d(d2: DualFunctionals2D,
               gradient: tuple[Callable, Callable] | None = None,
               source: Callable | None = None,
               quad_points: int = DEFAULT_PAIRING_POINTS) -> Field2D:
    """Derivative-pairing projection onto the interior tensor nodal space.

    Either pair the functional gradients with an analytic solution gradient,
    or use the diffusion shortcut and pair the functionals with the source.
    """
    family = d2.family
    x, w = composite_rule(gauss_legendre_rule(quad_points), family.mesh.boundaries)
    tab = _interior_tab(family, x)
    dtab = _interior_tab(family, x, 1)
    grid_w = np.outer(w, w)
    if source is not None:
        load = grid_w * np.asarray(source(x[:, None], x[None, :]), dtype=float)
        pair = np.einsum("xj,xy,yk->jk", tab, load, tab, optimize=True)
    elif gradient is not None:
        gx, gy = gradient
        lx = grid_w * np.asarray(gx(x[:, None], x[None, :]), dtype=float)
        ly = grid_w * np.asarray(gy(x[:, None], x[None, :]), dtype=float)
        pair = np.einsum("xj,xy,yk->jk", dtab, lx, tab, optimize=True) \
            + np.einsum("xj,xy,yk->jk", tab, ly, dtab, optimize=True)
    else:
        raise ValueError("provide the source or the solution gradient")
    coeffs = d2.coeffs.T @ pair.ravel()
    return Field2D(family, coeffs)


# ---------------------------------------------------------------------------
# truncated-series machinery


def _oscillatory_rule(mesh: Mesh1D, num_terms: int):
    rule = gauss_legendre_rule(num_terms + _OSC_MARGIN)
    return composite_rule(rule, mesh.boundaries)


def _sine_table(num_terms: int, pts: np.ndarray) -> np.ndarray:
    n = np.arange(1, num_terms + 1)
    return np.sin(np.pi * np.outer(n, pts))


@dataclass(frozen=True)
class SeriesOperator2D:
    """Truncated-kernel fine-scale operator for the 2D derivative pairing."""

    duals: DualFunctionals2D
    num_terms: int
    quad_points: int
    conv_points: int
    sine_weighted: np.ndarray     # (terms, n_osc): sin(n pi s) * w at the sine rule
    osc_nodes: np.ndarray
    dual_profiles: np.ndarray     # E[n, k, i]: y-profile coefficients of S_N mu_i
    gram: np.ndarray
    _lu: tuple = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.duals.size

    def solve_gram(self, rhs):
        return lu_solve(self._lu, np.asarray(rhs, dtype=float))


def build_series_operator_2d(d2: DualFunctionals2D,
                             num_terms: int = DEFAULT_SERIES_TERMS,
                             quad_points: int = DEFAULT_PAIRING_POINTS,
                             conv_points: int = DEFAULT_CONVOLUTION_POINTS) -> SeriesOperator2D:
    """Precompute the sine moments, dual profiles and the factorized Gram matrix.

    Lifting a functional through the truncated kernel truncates its sine
    expansion in the first coordinate, so the Gram matrix is the
    derivative-pairing Gram of the truncated functionals: per term, the
    squared sine frequency weights the profile mass and the profile
    derivatives add their stiffness.
    """
    family = d2.family
    mesh = family.mesh
    s_nodes, s_weights = _oscillatory_rule(mesh, num_terms)
    sine_weighted = _sine_table(num_terms, s_nodes) * s_weights[None, :]
    moments = sine_weighted @ _interior_tab(family, s_nodes)   # (terms, m)
    profiles = np.einsum("nj,jki->nki", moments, d2.coeff_tensor(), optimize=True)
    mass_int = assemble_mass(family, SpaceKind.NODAL).entries[1:-1, 1:-1]
    stiff_int = assemble_stiffness(family).entries
    freq_sq = (np.pi * np.arange(1, num_terms + 1)) ** 2
    gram = 2.0 * np.einsum("n,nki,kl,nlj->ij", freq_sq, profiles, mass_int, profiles,
                           optimize=True) \
        + 2.0 * np.einsum("nki,kl,nlj->ij", profiles, stiff_int, profiles, optimize=True)
    lu = lu_factor(gram)
    return SeriesOperator2D(d2, num_terms, quad_points, conv_points,
                            sine_weighted, s_nodes, profiles, gram, lu)


def lifted_duals_grid(op: SeriesOperator2D, x, y) -> np.ndarray:
    """Every lifted functional on the meshgrid of x and y: (len(x), len(y), size).

    The lift through the truncated kernel is the x-direction sine
    truncation of the functional itself.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    sines = 2.0 * _sine_table(op.num_terms, x)                # (n, nx)
    by = _interior_tab(op.duals.family, y)                    # (ny, m)
    return np.einsum("nx,nki,yk->xyi", sines, op.dual_profiles, by, optimize=True)


def apply_duals_to_green_2d(op: SeriesOperator2D, residual: Callable) -> np.ndarray:
    """Pair every functional with the truncated-kernel image of a residual.

    Moving the Laplacian onto the kernel collapses the profile direction,
    leaving per-term 1D integrals of the residual's sine moments against
    the functional profiles.
    """
    family = op.duals.family
    y_nodes, y_weights = composite_rule(gauss_legendre_rule(op.quad_points),
                                        family.mesh.boundaries)
    r_grid = np.asarray(residual(op.osc_nodes[:, None], y_nodes[None, :]), dtype=float)
    d_table = op.sine_weighted @ r_grid                        # (terms, ny)
    by = _interior_tab(family, y_nodes)                        # (ny, m)
    contracted = d_table @ (y_weights[:, None] * by)           # (terms, m)
    return 2.0 * np.einsum("nki,nk->i", op.dual_profiles, contracted, optimize=True)


def _profile_split_rule(mesh: Mesh1D, y: float, conv_points: int):
    offsets = np.array([0.005, 0.02, 0.08])
    cuts = np.concatenate((mesh.boundaries, y - offsets, y + offsets, [y]))
    cuts = np.unique(np.clip(cuts, 0.0, 1.0))
    cuts = cuts[np.concatenate(([True], np.diff(cuts) > 1e-12))]
    return composite_rule(gauss_legendre_rule(conv_points), cuts)


def green_apply_2d(op: SeriesOperator2D, residual: Callable, x, y) -> np.ndarray:
    """Truncated-kernel convolution with a residual on the meshgrid (x, y).

    Row by output row: the profile direction is integrated with splits at
    the element lines plus a geometric refinement around the kink at the
    output ordinate; the sine direction reuses the precomputed rule.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    mesh = op.duals.family.mesh
    n = np.arange(1, op.num_terms + 1)
    sines_x = np.sin(np.pi * np.outer(x, n)) * (2.0 / (np.pi * n))[None, :]  # (nx, terms)
    out = np.empty((x.size, y.size))
    for iy, yv in enumerate(y):
        t, v = _profile_split_rule(mesh, float(yv), op.conv_points)
        r_grid = np.asarray(residual(op.osc_nodes[:, None], t[None, :]), dtype=float)
        d_table = op.sine_weighted @ r_grid                    # (terms, nt)
        profiles = np.empty_like(d_table)
        for k in range(op.num_terms):
            profiles[k] = series_term_profile(k + 1, yv, t)
        row = (d_table * profiles) @ v                        # (terms,)
        out[:, iy] = sines_x @ row
    return out


def reconstruct_fine_scales_2d(op: SeriesOperator2D, residual: Callable,
                               x, y) -> np.ndarray:
    """Fine scales of the 2D diffusion problem on the meshgrid (x, y)."""
    data = op.solve_gram(apply_duals_to_green_2d(op, residual))
    lifted = green_apply_2d(op, residual, x, y)
    return lifted - lifted_duals_grid(op, x, y) @ data


def residual_2d(source: Callable, u_bar: Field2D | None) -> Callable:
    """Residual of the diffusion problem: source plus the coarse Laplacian.

    Element lines are the only derivative kinks; the convolution and
    pairing rules already split there.
    """
    if u_bar is None:
        return source

    def resid(s1, s2):
        s1 = np.asarray(s1, dtype=float)
        s2 = np.asarray(s2, dtype=float)
        xs = s1[:, 0] if s1.ndim == 2 else np.atleast_1d(s1)
        ys = s2[0, :] if s2.ndim == 2 else np.atleast_1d(s2)
        return np.asarray(source(s1, s2), dtype=float) + u_bar.laplacian_grid(xs, ys)

    return resid


def h10_project_values_2d(d2: DualFunctionals2D, u: Callable,
                          quad_points: int = DEFAULT_PAIRING_POINTS) -> np.ndarray:
    """Derivative-pairing projection of a field known only by its values.

    Element-wise integration by parts: area integrals of the field against
    the functional Laplacians plus line integrals against the normal-
    derivative jumps across interior mesh lines.  Assumes zero boundary
    trace.  `u(x, y)` must accept 1D arrays and return the meshgrid values.
    """
    family = d2.family
    mesh = family.mesh
    x, w = composite_rule(gauss_legendre_rule(quad_points), mesh.boundaries)
    lap = tabulate_functionals_2d(d2, x, x, 2, 0) + tabulate_functionals_2d(d2, x, x, 0, 2)
    u_grid = np.asarray(u(x, x), dtype=float)
    coeffs = -np.einsum("xy,x,y,xyi->i", u_grid, w, w, lap, optimize=True)

    jumps = nodal_deriv_jumps(family)                         # (n_ifaces, m)
    tensor = d2.coeff_tensor()
    by = _interior_tab(family, x)                              # (nq, m)
    for c, xc in enumerate(mesh.boundaries[1:-1]):
        # vertical line x = xc: jump of the x-derivative, left minus right
        profile = np.einsum("j,jki,yk->yi", -jumps[c], tensor, by, optimize=True)
        u_line = np.asarray(u(np.array([xc]), x), dtype=float)[0]
        coeffs += np.einsum("y,y,yi->i", u_line, w, profile, optimize=True)
        # horizontal line y = xc
        profile = np.einsum("k,jki,yj->yi", -jumps[c], tensor, by, optimize=True)
        u_line = np.asarray(u(x, np.array([xc])), dtype=float)[:, 0]
        coeffs += np.einsum("y,y,yi->i", u_line, w, profile, optimize=True)
    return coeffs

