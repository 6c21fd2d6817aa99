"""The 1D H10 projection in exact rational arithmetic (standard library only).

Every float is a dyadic rational, so `fractions.Fraction` holds a float
mesh, a float point and a polynomial with float coefficients exactly.  On
element [a, b], with xi = (2x - a - b) / (b - a), the H10 projection Pi u
interpolates u at a and b, and d(Pi u)/dxi is the Legendre truncation of
du/dxi to degree p - 1 (the derivatives of the integrated-Legendre bubbles
L_j = (P_{j+1} - P_{j-1}) / (2j + 1) are the Legendre polynomials P_j,
orthogonal on [-1, 1]).  So for a polynomial u of degree p + 3,

    u - Pi u = sum_{j=p}^{p+2} d_j L_j(xi),   d_j = (2j + 1)/2 int du/dxi P_j,

which vanishes at both ends of every element.  `dyadic_mesh` gives
boundaries that are exact floats (N a power of two, moved by multiples of
h / 8), and `ExactPolynomial` a u of degree p + 3 with zero end values,
its derivative and its source -u''.  `fine_kernel` is the H10
fine-scale kernel on one element, g_e less its projection onto the
bubbles L_j, j < p.
"""

from __future__ import annotations

import bisect
import functools
import random
from fractions import Fraction

# polynomials are coefficient lists, lowest degree first


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _deriv(p):
    return [k * c for k, c in enumerate(p)][1:] or [Fraction(0)]


def _horner(p, x):
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


@functools.lru_cache(maxsize=None)
def _legendre(j):
    """P_j by (j + 1) P_{j+1} = (2j + 1) xi P_j - j P_{j-1}."""
    if j == 0:
        return (Fraction(1),)
    if j == 1:
        return (Fraction(0), Fraction(1))
    prev, cur = list(_legendre(j - 2)), list(_legendre(j - 1))
    k = j - 1
    return tuple(_add([c * Fraction(2 * k + 1, k + 1) for c in _mul(cur, [0, 1])],
                      [-c * Fraction(k, k + 1) for c in prev]))


@functools.lru_cache(maxsize=None)
def _bubble(j):
    """L_j = (P_{j+1} - P_{j-1}) / (2j + 1), zero at xi = -1 and 1."""
    return tuple(c / (2 * j + 1) for c in _add(_legendre(j + 1), [-c for c in _legendre(j - 1)]))


@functools.lru_cache(maxsize=None)
def _moments(j, degree):
    """int_{-1}^{1} xi^m P_j dxi for m = 0 .. degree."""
    legendre = _legendre(j)
    return tuple(sum((c * Fraction(2, m + k + 1) for k, c in enumerate(legendre)
                      if (m + k) % 2 == 0), Fraction(0)) for m in range(degree + 1))


def fine_kernel(a: float, b: float, degree: int, x: float, s: float) -> Fraction:
    """g_e(x, s) - sum_{j<p} L_j(xi_x) L_j(xi_s) / |L_j|^2 on the element
    [a, b], x and s in it, exactly: g_e = (min - a)(b - max)/(b - a) is its
    Dirichlet kernel, and |L_j|^2 = int (dL_j/dx)^2 = 4 / ((2j + 1)(b - a))."""
    a, b, x, s = map(Fraction, (a, b, x, s))
    xi, si = ((2 * t - a - b) / (b - a) for t in (x, s))
    out = (min(x, s) - a) * (b - max(x, s)) / (b - a)
    for j in range(1, degree):
        out -= (2 * j + 1) * (b - a) / 4 * _horner(_bubble(j), xi) * _horner(_bubble(j), si)
    return out


def dyadic_mesh(num_elements: int, seed: int | None = None) -> list[float]:
    """Boundaries of [0, 1]: uniform, or each inner one moved by a random
    multiple of h / 8 up to 3 h / 8; every value is an exact float when N
    is a power of two."""
    rng = random.Random(seed)
    moves = [0] * (num_elements + 1) if seed is None else \
        [0] + [rng.randint(-3, 3) for _ in range(num_elements - 1)] + [0]
    return [(8 * i + m) / (8 * num_elements) for i, m in enumerate(moves)]


class ExactPolynomial:
    """u = x (1 - x) q(x), q of degree p + 1 with coefficients k / 8,
    |k| <= 8, drawn from the seed; exact, and as numpy callables."""

    def __init__(self, degree: int, seed: int):
        rng = random.Random(seed)
        q = [Fraction(rng.randint(-8, 8), 8) for _ in range(degree + 2)]
        q[0] = Fraction(1)
        self.u = _mul([Fraction(0), Fraction(1), Fraction(-1)], q)
        self.du = _deriv(self.u)
        self.source_poly = [-c for c in _deriv(self.du)]

    @staticmethod
    def _float(poly):
        coeffs = [float(c) for c in poly]

        def evaluate(x):
            out = 0.0 * x
            for c in reversed(coeffs):
                out = out * x + c
            return out
        return evaluate

    def solution(self, x):
        return self._float(self.u)(x)

    def gradient(self, x):
        return self._float(self.du)(x)

    def source(self, x):
        return self._float(self.source_poly)(x)

    def exact(self, x: float) -> Fraction:
        return _horner(self.u, Fraction(x))

    def fine(self, bounds: list[float], degree: int, x: float) -> Fraction:
        """(u - Pi u)(x) on the mesh `bounds` at degree p, exactly; zero on
        a vertex."""
        fx = Fraction(x)
        elem = min(max(bisect.bisect_right(bounds, x) - 1, 0), len(bounds) - 2)
        a, b = Fraction(bounds[elem]), Fraction(bounds[elem + 1])
        if fx in (a, b):
            return Fraction(0)
        xi = (2 * fx - a - b) / (b - a)
        return sum((d * _horner(_bubble(j), xi)
                    for j, d in self._tail(a, b, degree)), Fraction(0))

    @functools.lru_cache(maxsize=None)
    def _tail(self, a: Fraction, b: Fraction, degree: int) -> tuple:
        """The pairs (j, d_j), j >= p, of u - Pi u on the element [a, b]."""
        half = (b - a) / 2
        # du/dxi as a polynomial in xi: half u'(a + half (xi + 1))
        arg = [a + half, half]
        comp = [Fraction(0)]
        for c in reversed(self.du):
            comp = _add(_mul(comp, arg), [c])
        comp = [half * c for c in comp]
        return tuple((j, Fraction(2 * j + 1, 2)
                      * sum(c * m for c, m in zip(comp, _moments(j, len(comp) - 1))))
                     for j in range(degree, len(comp)))
