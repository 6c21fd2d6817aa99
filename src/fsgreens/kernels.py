"""Analytic Green's functions: 1D Poisson, 1D advection-diffusion, 2D Poisson series.

All kernels satisfy homogeneous Dirichlet conditions.  The
advection-diffusion kernel keeps every exponential argument nonpositive so
it stays finite at large Peclet number, and the 2D eigenfunction series
evaluates its sinh ratios the same way so terms beyond n*pi > 700 cannot
overflow.  The 1D kernel's derivatives and the element-local Dirichlet
kernel, which only the tests read, live beside the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DOMAIN_TOL = 1e-12
DEFAULT_SERIES_TERMS = 100


def _check_unit_domain(*arrays):
    for arr in arrays:
        # written so that NaN fails too
        if not np.all((arr >= -_DOMAIN_TOL) & (arr <= 1.0 + _DOMAIN_TOL)):
            raise ValueError("arguments must lie in [0, 1]")


def poisson_green(x, s):
    """Green's function of -u'' on [0, 1] with zero boundary values."""
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    return np.where(x <= s, x * (1.0 - s), s * (1.0 - x))


def advdiff_green(x, s, c: float, nu: float):
    """Green's function of c u' - nu u'' on [0, 1], zero boundary values.

    Written with nonpositive exponents throughout: the response to a
    source at s is exponentially small upstream and forms a plateau of
    height ~1/c downstream, ending in the outflow boundary layer.
    """
    if not 0.0 < nu < np.inf:
        raise ValueError(f"diffusion coefficient must be finite and positive, got {nu}")
    if not np.isfinite(c) or c == 0.0:
        raise ValueError(f"advection speed must be finite and nonzero, got {c}")
    if not np.isfinite(c / nu):
        raise ValueError(f"the Peclet ratio c / nu overflows: c={c}, nu={nu}")
    x = np.asarray(x, dtype=float)
    s = np.asarray(s, dtype=float)
    _check_unit_domain(x, s)
    if c < 0.0:
        # mirror symmetry maps the negative-speed problem onto the positive one
        return advdiff_green(1.0 - x, 1.0 - s, -c, nu)
    beta = c / nu
    denom = c * (-np.expm1(-beta))
    if beta < 0.5:
        # product form: no cancellation when the exponentials are all near 1
        upstream = np.expm1(beta * x) * (-np.expm1(-beta * (1.0 - s))) \
            * np.exp(-beta * s) / denom
    else:
        # shifted form: every argument nonpositive, finite at large Peclet
        upstream = (
            np.exp(-beta * (s - x))
            - np.exp(-beta * (1.0 - x))
            - np.exp(-beta * s)
            + np.exp(-beta)
        ) / denom
    downstream = np.expm1(-beta * (1.0 - x)) * np.expm1(-beta * s) / denom
    return np.where(x <= s, upstream, downstream)


def _sinh_ratio(a, b, c):
    """sinh(a) sinh(b) / sinh(c) for 0 <= a, b and a + b <= c, overflow safe."""
    return 0.5 * (
        np.exp(a + b - c) - np.exp(b - a - c) - np.exp(a - b - c) + np.exp(-a - b - c)
    ) / (-np.expm1(-2.0 * c))


def series_term_profile(n: int, y, s2):
    """The y/s2 factor of series term n: sinh(n pi min) sinh(n pi (1-max)) / sinh(n pi)."""
    y = np.asarray(y, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    npi = n * np.pi
    lo = np.minimum(y, s2)
    hi = np.maximum(y, s2)
    return _sinh_ratio(npi * lo, npi * (1.0 - hi), npi)


def poisson2d_green(x, y, s1, s2, num_terms: int = DEFAULT_SERIES_TERMS):
    """Truncated eigenfunction series for the Dirichlet Laplacian on the unit square.

    Sine expansion in the first coordinate, matched sinh profiles in the
    second; symmetric under swapping the field point with the source point
    term by term.
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
        out = out + (2.0 / npi) * np.sin(npi * x) * np.sin(npi * s1) * series_term_profile(n, y, s2)
    return out


@dataclass(frozen=True)
class GreensKernel1D:
    """The 1D Poisson kernel on [0, 1] with homogeneous Dirichlet conditions."""

    @classmethod
    def poisson(cls) -> "GreensKernel1D":
        return cls()

    def __call__(self, x, s):
        return poisson_green(x, s)
