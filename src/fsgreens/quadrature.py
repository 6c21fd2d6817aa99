"""Legendre polynomials, GLL and Gauss-Legendre rules, and their transport.

Everything here lives on the reference interval [-1, 1], and every rule
`fsgreens` integrates with comes from here.  One Legendre recurrence
(`_legendre`) and three Newton steps in extended precision give the Gauss
nodes and, seeded between them, the GLL nodes.  The polished Gauss rule
`gauss_legendre_rule` is laid from each interval's left end (`map_rule`,
`composite_rule`) on cells merged with their cuts (`cut_ends`), as the 1D
source rule (`projection.mesh_quadrature`) and the 1D Green's cells are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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


def _legendre(n: int, x):
    """(P_{n-1}(x), P_n(x)), n >= 1, by the three-term recurrence in x's
    precision: the one recurrence both rule families use."""
    prev, val = np.ones_like(x), x
    for k in range(1, n):
        prev, val = val, ((2 * k + 1) * x * val - k * prev) / (k + 1)
    return prev, val


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
        """P_n(x) and P_n'(x) = n (P_{n-1} - x P_n) / (1 - x^2)."""
        prev, val = _legendre(n, x)
        return val, n * (prev - x * val) / (1.0 - x * x)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    for _ in range(3):
        val, slope = legendre(x)
        x = x - val / slope
    weights = (2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2)).astype(float)
    nodes = x.astype(float)
    return QuadratureRule(0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1]))


@functools.cache
def gll_nodes(p: int) -> np.ndarray:
    """Gauss-Lobatto-Legendre nodes of degree p: -1, 1 and the roots of
    (1 - x^2) P_p' = p (P_{p-1} - x P_p), whose derivative is -p (p + 1) P_p,
    one shared read-only array per p.

    The interior roots interlace with P_p's, so the midpoints of the p-point
    Gauss nodes seed them, and the Gauss rule's three Newton steps in
    extended precision (np.longdouble) polish them to the nearest double
    where that type is 80-bit (Hale & Townsend, SISC 35, 2013); the set is
    symmetrized to be exactly antisymmetric about 0.
    """
    if p < 1:
        raise ValueError(f"GLL degree must be >= 1, got {p}")
    gauss = gauss_legendre_rule(p).nodes.astype(np.longdouble)
    x = 0.5 * (gauss[:-1] + gauss[1:])
    for _ in range(3):
        prev, val = _legendre(p, x)
        x = x - (x * val - prev) / ((p + 1) * val)
    xi = x.astype(float)
    nodes = np.concatenate(([-1.0], 0.5 * (xi - xi[::-1]), [1.0]))
    nodes.setflags(write=False)
    return nodes


def gll_rule(p: int) -> QuadratureRule:
    """The (p + 1)-point GLL rule, exact through degree 2p - 1: the weights
    2 / (p (p + 1) P_p(x)^2) formed in extended precision."""
    nodes = gll_nodes(p)
    val = _legendre(p, nodes.astype(np.longdouble))[1]
    return QuadratureRule(nodes, (2.0 / (p * (p + 1) * val * val)).astype(float))


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
