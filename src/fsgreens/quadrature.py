"""Legendre polynomials, GLL and Gauss-Legendre rules, and their transport.

Everything here lives on the reference interval [-1, 1]; `map_rule` and
`composite_rule` handle affine transport to physical intervals, one copy
of a rule per interval between consecutive boundaries.  The 1D source
rule is cut at the mesh and at an integrand's kinks by
`projection.mesh_quadrature`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Points per subinterval for integrals against a source (the source rule),
# at least; `default_quad_points` grows it with the degree.  The mass,
# stiffness and Gram use the exact rule of their degree instead.
DEFAULT_QUAD_POINTS = 20

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable nodes/weights pair on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1D arrays of equal length")
        if self.nodes.size == 0:
            raise ValueError("empty quadrature rule")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    @property
    def npoints(self) -> int:
        return self.nodes.size


def legendre_eval(p: int, x):
    """Evaluate the Legendre polynomial L_p and its derivative at x.

    Uses the three-term recurrence for the values and the companion
    recurrence for the derivatives, which stays finite at x = +-1.
    Accepts scalars or arrays; returns (value, derivative) with the same
    shape as x.
    """
    if p < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {p}")
    x = np.asarray(x, dtype=float)
    val = np.ones_like(x)
    der = np.zeros_like(x)
    if p == 0:
        return val, der
    val_prev = val          # L_0
    der_prev = der          # L_0'
    val = x.copy()          # L_1
    der = np.ones_like(x)   # L_1'
    for k in range(1, p):
        a = (2 * k + 1) / (k + 1)
        b = k / (k + 1)
        val_next = a * x * val - b * val_prev
        der_next = a * (val + x * der) - b * der_prev
        val_prev, der_prev = val, der
        val, der = val_next, der_next
    return val, der


@functools.cache
def gll_nodes(p: int) -> np.ndarray:
    """Gauss-Legendre-Lobatto nodes of degree p: the p+1 roots of (1-x^2) L_p'(x),
    one shared read-only array per p.

    Interior roots are found by Newton iteration on L_p' seeded with
    Chebyshev-Gauss-Lobatto points; the iterate is symmetrised so the node
    set is exactly antisymmetric about 0.
    """
    if p < 1:
        raise ValueError(f"GLL degree must be >= 1, got {p}")
    xi = np.empty(0)
    if p > 1:
        # Chebyshev-Gauss-Lobatto initial guesses for the interior roots.
        xi = np.cos(np.pi * np.arange(p - 1, 0, -1) / p)
        for _ in range(_NEWTON_MAX_ITER):
            lp, dlp = legendre_eval(p, xi)
            # L_p'' from the Legendre ODE; xi stays strictly inside (-1, 1).
            d2lp = (2.0 * xi * dlp - p * (p + 1) * lp) / (1.0 - xi * xi)
            step = dlp / d2lp
            xi = xi - step
            if np.max(np.abs(step)) < _NEWTON_TOL:
                break
        else:
            raise RuntimeError(f"GLL node iteration did not converge for p={p}")
    nodes = np.concatenate(([-1.0], 0.5 * (xi - xi[::-1]), [1.0]))
    nodes.setflags(write=False)
    return nodes


def gll_weights(p: int, nodes: np.ndarray | None = None) -> np.ndarray:
    """GLL weights w_i = 2 / (p (p+1) L_p(x_i)^2)."""
    if nodes is None:
        nodes = gll_nodes(p)
    lp, _ = legendre_eval(p, nodes)
    return 2.0 / (p * (p + 1) * lp * lp)


def gll_rule(p: int) -> QuadratureRule:
    nodes = gll_nodes(p)
    return QuadratureRule(nodes, gll_weights(p, nodes))


def default_quad_points(degree: int) -> int:
    """Source-rule points per subinterval when none are given for degree-p
    bases: max(DEFAULT_QUAD_POINTS, p + 8).  `mesh_quadrature` rejects
    fewer than p."""
    return max(DEFAULT_QUAD_POINTS, degree + 8)


def sorted_unique(values) -> np.ndarray:
    """np.unique of an array, as its sorted distinct values, NaN once at the
    end: a sort and a mask of equal neighbours.  np.unique itself imports
    numpy.ma on its first call, a cold-start cost of every command."""
    out = np.sort(np.ravel(values))
    keep = np.empty(out.size, dtype=bool)
    keep[:1] = True
    # NaN sorts last and differs from itself: only the first of them
    # follows a value equal to itself
    keep[1:] = (out[1:] != out[:-1]) & (out[:-1] == out[:-1])
    return out[keep]


@functools.cache
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule, exact through degree 2n-1; one shared
    rule per n."""
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(nodes, weights)


def map_rule(rule: QuadratureRule, a, b):
    """Affinely map a reference rule to [a, b]; returns (nodes, weights).

    The ends may be arrays of equal shape, one interval each, and then
    every returned row is one interval's rule.  A zero-width interval gets
    zero weights; b < a raises ValueError.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b >= a):
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    half = 0.5 * (b - a)[..., None]
    return 0.5 * (a + b)[..., None] + half * rule.nodes, half * rule.weights


def composite_rule(rule: QuadratureRule, boundaries: Sequence[float]):
    """Concatenate mapped copies of `rule` over consecutive boundary pairs."""
    boundaries = np.asarray(boundaries, dtype=float)
    # written so that NaN fails too
    if boundaries.size < 2 or not np.all(np.diff(boundaries) > 0.0):
        raise ValueError("boundaries must be strictly increasing with length >= 2")
    x, w = map_rule(rule, boundaries[:-1], boundaries[1:])
    return x.ravel(), w.ravel()
