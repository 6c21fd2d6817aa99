"""Registry of the analytic test problems driven by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class AnalyticCase1D:
    """A manufactured 1D problem: source, exact solution and derivatives."""

    name: str
    source: Callable[[np.ndarray], np.ndarray]
    solution: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    second: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AnalyticCase2D:
    """A manufactured 2D Poisson problem on the unit square."""

    name: str
    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    solution: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sin2pix_case() -> AnalyticCase1D:
    """-u'' = 4 pi^2 sin(2 pi x) with u = sin(2 pi x) on [0, 1]."""
    return AnalyticCase1D(
        name="sin2pix",
        source=lambda x: 4.0 * np.pi**2 * np.sin(TWO_PI * np.asarray(x, dtype=float)),
        solution=lambda x: np.sin(TWO_PI * np.asarray(x, dtype=float)),
        gradient=lambda x: TWO_PI * np.cos(TWO_PI * np.asarray(x, dtype=float)),
        second=lambda x: -(TWO_PI**2) * np.sin(TWO_PI * np.asarray(x, dtype=float)),
    )


def advdiff_const_case(c: float, nu: float, width: float = 1.0) -> AnalyticCase1D:
    """c u' - nu u'' = 1 on [0, width] with zero boundary values.

    The solution rises linearly at slope 1/c and drops to zero through an
    outflow boundary layer of width ~nu/c.  All exponentials are written
    with nonpositive arguments so large Peclet numbers stay finite.
    """
    if nu <= 0.0 or c == 0.0:
        raise ValueError("need nu > 0 and c != 0")
    beta = c / nu
    denom = -np.expm1(-beta * width)

    def solution(x):
        x = np.asarray(x, dtype=float)
        return (x - width * (np.exp(beta * (x - width)) - np.exp(-beta * width)) / denom) / c

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - width * beta * np.exp(beta * (x - width)) / denom) / c

    def second(x):
        x = np.asarray(x, dtype=float)
        return -width * beta**2 * np.exp(beta * (x - width)) / (c * denom)

    return AnalyticCase1D(
        name="advdiff-const",
        source=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        solution=solution,
        gradient=gradient,
        second=second,
    )


def sin2pixy_case() -> AnalyticCase2D:
    """-lap(phi) = 8 pi^2 sin(2 pi x) sin(2 pi y) with phi = sin sin on the unit square."""

    def source(x, y):
        return 8.0 * np.pi**2 * np.sin(TWO_PI * x) * np.sin(TWO_PI * y)

    return AnalyticCase2D(
        name="sin2pixy",
        source=source,
        solution=lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y),
    )


def boundary_layer_breakpoints(c: float, nu: float, width: float = 1.0) -> np.ndarray:
    """Geometrically graded split points resolving the outflow boundary layer.

    Quadrature intervals shrink toward x = width so each subinterval sees
    at most a few decay lengths nu/c of the layer exponential.
    """
    scale = nu / abs(c)
    offsets = []
    d = 3.0 * scale
    while d < 0.45 * width:
        offsets.append(width - d)
        d *= 4.0
    return np.array(sorted(offsets))
