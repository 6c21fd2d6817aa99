"""Registry of the analytic test problems driven by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class AnalyticCase1D:
    """A manufactured 1D problem: source, exact solution and its derivative."""

    source: Callable[[np.ndarray], np.ndarray]
    solution: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AnalyticCase2D:
    """A manufactured 2D Poisson problem on the unit square."""

    source: Callable[[np.ndarray, np.ndarray], np.ndarray]
    solution: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sin2pix_case() -> AnalyticCase1D:
    """-u'' = 4 pi^2 sin(2 pi x) with u = sin(2 pi x) on [0, 1]."""
    return AnalyticCase1D(
        source=lambda x: 4.0 * np.pi**2 * np.sin(TWO_PI * np.asarray(x, dtype=float)),
        solution=lambda x: np.sin(TWO_PI * np.asarray(x, dtype=float)),
        gradient=lambda x: TWO_PI * np.cos(TWO_PI * np.asarray(x, dtype=float)),
    )


def advdiff_const_case(c: float, nu: float) -> AnalyticCase1D:
    """c u' - nu u'' = 1 on [0, 1] with zero boundary values.

    The solution rises linearly at slope 1/c and drops to zero through an
    outflow boundary layer of width ~nu/|c|.  All exponentials are written
    with nonpositive arguments so large Peclet numbers stay finite; c < 0 is
    the c > 0 case mirrored, u(x) = v(1 - x).
    """
    if not (0.0 < nu < np.inf and np.isfinite(c) and c != 0.0 and np.isfinite(c / nu)):
        raise ValueError(f"need a finite nu > 0 and a finite c != 0 whose ratio c / nu "
                         f"does not overflow, got nu={nu}, c={c}")
    if c < 0.0:
        mirror = advdiff_const_case(-c, nu)
        return AnalyticCase1D(
            source=mirror.source,
            solution=lambda x: mirror.solution(1.0 - np.asarray(x, dtype=float)),
            gradient=lambda x: -mirror.gradient(1.0 - np.asarray(x, dtype=float)),
        )
    beta = c / nu
    denom = -np.expm1(-beta)

    def solution(x):
        x = np.asarray(x, dtype=float)
        return (x - (np.exp(beta * (x - 1.0)) - np.exp(-beta)) / denom) / c

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - beta * np.exp(beta * (x - 1.0)) / denom) / c

    return AnalyticCase1D(
        source=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        solution=solution,
        gradient=gradient,
    )


def sin2pixy_case() -> AnalyticCase2D:
    """-lap(phi) = 8 pi^2 sin(2 pi x) sin(2 pi y) with phi = sin sin on the unit square."""

    def source(x, y):
        return 8.0 * np.pi**2 * np.sin(TWO_PI * x) * np.sin(TWO_PI * y)

    return AnalyticCase2D(
        source=source,
        solution=lambda x, y: np.sin(TWO_PI * x) * np.sin(TWO_PI * y),
    )


def boundary_layer_breakpoints(c: float, nu: float) -> np.ndarray:
    """Geometrically graded split points resolving the outflow boundary layer.

    Quadrature intervals shrink toward the outflow end, x = 1 for c > 0 and
    x = 0 for c < 0, so each subinterval sees at most a few decay lengths
    nu/|c| of the layer exponential.  Raises ValueError when nu/|c| is not
    positive, as when it underflows to zero.
    """
    scale = nu / abs(c)
    if not scale > 0.0:
        raise ValueError(f"boundary layer width nu/|c| must be positive, got {scale:g}")
    offsets = []
    d = 3.0 * scale
    while d < 0.45:
        offsets.append(1.0 - d if c > 0 else d)
        d *= 4.0
    return np.array(sorted(offsets))
