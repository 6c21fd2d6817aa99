"""Analytic Green's functions: 1D Poisson, 1D advection-diffusion, 2D Poisson series.

All satisfy homogeneous Dirichlet conditions, and all are g_k, the Green's
function of -u'' + k^2 u on [0, 1], evaluated by one formula
(`_damped_green`) with no positive exponent: the 1D Poisson kernel at
k = 0, 2D series mode n at k = n pi and advection-diffusion at
k = |c| / (2 nu).  One primitive applies it to a density at k = 0: one
tabulation per cell gives G f at the cell ends and each cell's Lobatto
bubble series, so G f anywhere (`_poisson_cells`).  The damped primitive
of the 2D series, k > 0, lives with its one caller in `poisson2d`.  The 1D
kernel's derivatives and the element-local Dirichlet kernel, which only
the tests read, live beside the tests' oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis1d import _locate
from .quadrature import cut_ends, gauss_legendre_rule, map_rule

_DOMAIN_TOL = 1e-12
_EPS = np.finfo(float).eps
DEFAULT_SERIES_TERMS = 100


def _check_unit_domain(*arrays):
    for arr in arrays:
        # written so that NaN fails too
        if not np.all((arr >= -_DOMAIN_TOL) & (arr <= 1.0 + _DOMAIN_TOL)):
            raise ValueError("arguments must lie in [0, 1]")


def _check_unit_mesh(mesh, name: str = "mesh"):
    """Raise unless a 1D mesh covers [0, 1], the kernels' domain."""
    if abs(mesh.a) > 1e-14 or abs(mesh.b - 1.0) > 1e-14:
        raise ValueError(f"{name} must cover the kernel domain [0, 1]")


def _check_advdiff(c: float, nu: float):
    """Raise unless nu > 0 and c != 0 are finite and c / nu and 1 / nu do not
    overflow, so neither c u' - nu u'' = f's kernel, at most 1 / (4 nu),
    nor its unit-source solution, of slope at most about 1 / nu, does."""
    if not 0.0 < nu < np.inf:
        raise ValueError(f"diffusion coefficient must be finite and positive, got {nu}")
    if not np.isfinite(c) or c == 0.0:
        raise ValueError(f"advection speed must be finite and nonzero, got {c}")
    if not np.isfinite(c / nu):
        raise ValueError(f"the Peclet ratio c / nu overflows, and the boundary layer width "
                         f"nu / |c| underflows: c={c}, nu={nu}")
    if not np.isfinite(1.0 / nu):
        raise ValueError(f"the kernel's scale 1 / nu overflows: nu={nu}")


def _damped_green(x, s, k: float = 0.0, drift: float = 0.0):
    """e^{drift (x - s)} g_k(x, s), g_k the Green's function of -u'' + k^2 u
    on [0, 1] with zero ends, for x, s in [0, 1] and |drift| <= k:
    e^{drift (x - s) - k |x - s|} E_k(min) E_k(1 - max) / E_k(1), E_k(a) =
    (1 - e^{-2 k a}) / (2 k).
    The exponent is never positive, the factors 1 - e^{-2 k a} lie in
    [0, 1] and the one division, by 2 k (1 - e^{-2 k}), comes last, so no
    rate overflows or underflows.  A rate at or below machine epsilon is
    0, where E_k(a) = a to rounding: the Poisson kernel min (1 - max).
    """
    lo, hi = np.minimum(x, s), np.maximum(x, s)
    if k <= _EPS:
        return lo * (1.0 - hi)
    t, m = x - s, -2.0 * k
    return np.exp(np.minimum((drift - k) * t, (drift + k) * t)) * np.expm1(m * lo) \
        * np.expm1(m * (1.0 - hi)) / (m * math.expm1(m))


def poisson_green(x, s):
    """Green's function of -u'' on [0, 1] with zero boundary values; points
    up to 1e-12 outside are clipped to it, where the kernel is 0."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    return _damped_green(np.clip(x, 0.0, 1.0), np.clip(s, 0.0, 1.0))


def advdiff_green(x, s, c: float, nu: float):
    """Green's function of c u' - nu u'' on [0, 1], zero boundary values.

    With beta = c / nu, u = e^{beta x / 2} v gives -v'' + (beta / 2)^2 v =
    e^{-beta x / 2} f / nu, so the kernel is e^{beta (x - s) / 2} g_k / nu
    at k = |beta| / 2, its one exponent min(beta (x - s), 0): exponentially
    small upstream of the source, a plateau of height 1/|c| downstream,
    ending in the outflow layer.  At |beta| <= machine epsilon it is the
    Poisson kernel over nu.  The coefficients must pass `_check_advdiff`.
    """
    _check_advdiff(c, nu)
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    # a rounding outside [0, 1] would make an exponent positive
    x, s, beta = np.clip(x, 0.0, 1.0), np.clip(s, 0.0, 1.0), c / nu
    return _damped_green(x, s, abs(beta) / 2.0, beta / 2.0) / nu


def poisson2d_green(x, y, s1, s2, num_terms: int = DEFAULT_SERIES_TERMS):
    """Truncated eigenfunction series for the Dirichlet Laplacian on the unit square.

    Sine expansion in the first coordinate; term n is
    2 sin(n pi x) sin(n pi s1) g_{n pi}(y, s2), the sinh profile over n pi
    (`_damped_green`); symmetric under swapping the field point with the
    source point term by term.
    """
    if num_terms < 1:
        raise ValueError("need at least one series term")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    _check_unit_domain(x, y, s1, s2)
    out = np.zeros(np.broadcast(x, y, s1, s2).shape)
    for n in range(1, num_terms + 1):
        npi = n * np.pi
        out = out + 2.0 * np.sin(npi * x) * np.sin(npi * s1) * _damped_green(y, s2, npi)
    return out


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, compensated: the rounding of each
    of np.cumsum's steps, exact by TwoSum (Knuth, TAOCP 2, 4.2.2), is added
    back by one more cumsum (Ogita, Rump & Oishi, SISC 26, 2005)."""
    total = np.cumsum(terms, axis=-1)
    prev, cur = total[..., :-1], total[..., 1:]
    moved = cur - prev
    error = (prev - (cur - moved)) + (terms[..., 1:] - moved)
    total[..., 1:] += np.cumsum(error, axis=-1)
    return total


def _lobatto_bubbles(xi, count: int) -> np.ndarray:
    """(2j + 1) b_j(xi) = P_{j+1} - P_{j-1}, j = 1 .. count, shape xi.shape +
    (count,): the Lobatto bubbles b_j vanish at -1 and 1 and b_j' = P_j, so
    int b_i' b_j' = 2 / (2j + 1) delta_ij.  They are the element basis of
    every closed-form Green's image (`_poisson_cells`, `finescale`)."""
    legendre = np.polynomial.legendre.legvander(xi, count + 1)
    return legendre[..., 2:] - legendre[..., :-2]


@functools.cache
def _cell_rule(points: int):
    """The points-point Gauss rule (`gauss_legendre_rule`), (2j + 1) b_j at
    its nodes (`_lobatto_bubbles`) and b_j's Legendre coefficients, rows j =
    1 .. points."""
    rule = gauss_legendre_rule(points)
    coeffs = (np.eye(points, points + 2, 2) - np.eye(points, points + 2)) \
        / (2.0 * np.arange(1, points + 1) + 1.0)[:, None]
    return rule, _lobatto_bubbles(rule.nodes, points), coeffs


@dataclass(frozen=True)
class PoissonCells:
    """G f on [0, 1] from one tabulation of f per cell (`_poisson_cells`).

    `values` is G f at the cell `ends`, or, with the sums restarted, G_I f,
    the Green's operator of each restart interval I; `bubbles[c, j - 1]`
    is c_j, so that the cell's own Green's operator G_c f is sum_j c_j b_j
    (`_cell_rule`).  The cell's 2q Gauss `points` and weighted source
    values `weighted` give any other integral of f on the same rule.
    """

    ends: np.ndarray
    values: np.ndarray
    bubbles: np.ndarray
    points: np.ndarray
    weighted: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """G f at x: the line through the cell's end values plus its bubble
        series, summed in Legendre form by Clenshaw (`legval`).  A point on
        a cell end reads that end's value alone."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        _check_unit_domain(x)
        cell, _, xi = _locate(self.ends, np.clip(x, 0.0, 1.0))
        tau = 0.5 * (1.0 + xi)
        out = (1.0 - tau) * self.values[cell] + tau * self.values[cell + 1]
        inner = np.abs(xi) < 1.0
        if not inner.any():
            return out
        legendre = (self.bubbles @ _cell_rule(self.bubbles.shape[1])[2]).T
        out[inner] += np.polynomial.legendre.legval(xi[inner], legendre[:, cell[inner]],
                                                    tensor=False)
        return out


def _poisson_cells(density, cuts, quad_points: int, restarts=()) -> PoissonCells:
    """The 1D Poisson Green's operator G of -u'' on [0, 1], zero ends, for
    the source `density` with kinks at `cuts` (NaN raises ValueError).

    The cells run between 0, 1, the cuts and the restarts (`cut_ends`), and
    each is tabulated once, by the 2q-point Gauss rule, q = quad_points, laid
    from its left end (`map_rule`): 2q points resolve what the q-point source
    rule's Gauss sums resolve; a source may give one value for all points.
    G f = [(b - x) L + (x - a) R] / (b - a) on [a, b] = [0, 1] (Greengard &
    Rokhlin, CPAM 44, 1991), L = int_a^x (s - a) f and R = int_x^b (b - s) f,
    compensated running sums of the cells' integrals (`_prefix_sums`), read
    at the cell ends; with restarts they run on each interval between them,
    giving G_I f there.  Inside a cell of half width J, G f is the line
    through its end values plus G_c f = sum_{j <= 2q} c_j b_j, c_j = J^2 (2j
    + 1) / 2 int f b_j, the Lobatto bubbles b_j being H10-orthogonal
    (`PoissonCells`): no rule is cut at an output point.
    """
    ends = cut_ends((0.0, 1.0), cuts, restarts)
    rule, bubble, _ = _cell_rule(2 * quad_points)
    t, w = map_rule(rule, ends[:-1], ends[1:])
    fw = np.broadcast_to(np.asarray(density(t.ravel()), dtype=float), t.size).reshape(t.shape) * w
    # each cell's interval [a, b] between restarts, and its place there
    bounds = cut_ends((0.0, 1.0), restarts)
    starts = np.searchsorted(ends, bounds)
    count = np.diff(starts)
    seg = np.repeat(np.arange(count.size), count)
    pos = np.arange(ends.size - 1) - starts[seg]
    a, b = bounds[seg], bounds[seg + 1]
    moments = np.zeros((2, count.size, count.max() + 1))
    moments[0, seg, pos] = np.sum(fw * (t - a[:, None]), axis=1)
    moments[1, seg, pos] = np.sum(fw * (b[:, None] - t), axis=1)
    left = _prefix_sums(moments[0])[seg, pos]
    right = _prefix_sums(moments[1, :, ::-1])[:, ::-1][seg, pos + 1]
    x = ends[1:]
    values = np.concatenate(([0.0], ((b - x) * left + (x - a) * right) / (b - a)))
    return PoissonCells(ends, values, 0.25 * np.diff(ends)[:, None] * (fw @ bubble), t.ravel(),
                        fw.ravel())


@dataclass(frozen=True)
class GreensKernel1D:
    """The 1D Poisson kernel on [0, 1] with homogeneous Dirichlet conditions."""

    @classmethod
    def poisson(cls) -> "GreensKernel1D":
        return cls()

    def __call__(self, x, s):
        return poisson_green(x, s)
