"""Legendre polynomials, GLL and Gauss-Legendre rules, and their transport.

Everything here lives on the reference interval [-1, 1], and every rule
`fsgreens` integrates with comes from here: the polished Gauss rule
`gauss_legendre_rule`, laid from each interval's left end (`map_rule`,
`composite_rule`) on cells merged with their cuts (`cut_ends`), as the 1D
source rule (`projection.mesh_quadrature`) and the 1D Green's cells are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


@functools.cache
def gauss_legendre_rule(n: int) -> QuadratureRule:
    """The n-point Gauss-Legendre rule, exact through degree 2n-1, to about
    an ulp: numpy's nodes polished by Newton steps on P_n and the weights
    2 / ((1 - x^2) P_n'(x)^2) formed in extended precision (np.longdouble;
    plain double where the platform has no wider type).  numpy's 40-point
    rule integrates P_2 to 7e-15, this one to 1e-17; one shared rule per n."""
    if n < 1:
        raise ValueError(f"rule size must be >= 1, got {n}")
    def legendre(x):
        """P_n(x) and P_n'(x), by the three-term recurrence and
        (1 - x^2) P_n' = n (P_{n-1} - x P_n), in x's precision."""
        prev, val = np.ones_like(x), x
        for k in range(1, n):
            prev, val = val, ((2 * k + 1) * x * val - k * prev) / (k + 1)
        return val, n * (prev - x * val) / (1.0 - x * x)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        val, slope = legendre(x)
        x = x - val / slope
    weights = (2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)).astype(float)
    nodes = x.astype(float)
    return QuadratureRule(0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1]))


def map_rule(rule: QuadratureRule, a, b):
    """Affinely map a reference rule to [a, b]; returns (nodes, weights),
    a + (b - a)(1 + xi) / 2 and (b - a) w / 2, laid from the left end: laid
    about a rounded midpoint the whole rule shifts, by up to 2e-15 in G f at
    a 5-element mesh's vertices.  The ends may be arrays of equal shape, one
    interval each, and then every returned row is one interval's rule.  A
    zero-width interval gets zero weights; b < a raises ValueError."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not np.all(b >= a):
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    width = (b - a)[..., None]
    return a[..., None] + width * (0.5 * (1.0 + rule.nodes)), 0.5 * width * rule.weights


def cut_ends(bounds, *cuts) -> np.ndarray:
    """The cells a rule is laid on: the sorted bounds plus every cut inside
    [bounds[0], bounds[-1]], sorted and distinct, so a cut repeated or on a
    bound cuts once and one outside is dropped; a NaN raises ValueError."""
    bounds = np.asarray(bounds, dtype=float)
    ends = sorted_unique(np.concatenate([bounds, *map(np.ravel, cuts)]))
    if np.isnan(ends[-1]):  # NaN sorts last
        raise ValueError("a cut or a bound of a quadrature rule is NaN")
    return ends[(ends >= bounds[0]) & (ends <= bounds[-1])]


def composite_rule(rule: QuadratureRule, boundaries: Sequence[float]):
    """Concatenate mapped copies of `rule` over consecutive boundary pairs."""
    boundaries = np.asarray(boundaries, dtype=float)
    # written so that NaN fails too
    if boundaries.size < 2 or not np.all(np.diff(boundaries) > 0.0):
        raise ValueError("boundaries must be strictly increasing with length >= 2")
    x, w = map_rule(rule, boundaries[:-1], boundaries[1:])
    return x.ravel(), w.ravel()
