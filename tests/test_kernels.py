import numpy as np
import pytest

from fsgreens.cases import advdiff_const_case, sin2pixy_case
from fsgreens.kernels import advdiff_green, poisson2d_green, poisson_green
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import element_green, poisson_green_dx


def test_poisson_values():
    assert poisson_green(0.3, 0.7) == pytest.approx(0.09, abs=1e-16)
    assert poisson_green(0.5, 0.5) == pytest.approx(0.25, abs=1e-16)
    s = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(poisson_green(0.0, s))) == 0.0
    assert np.max(np.abs(poisson_green(1.0, s))) == 0.0


def test_poisson_symmetry():
    rng = np.random.default_rng(1)
    x, s = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
    assert np.allclose(poisson_green(x, s), poisson_green(s, x), atol=0.0)


def test_poisson_domain_check():
    with pytest.raises(ValueError):
        poisson_green(1.2, 0.5)
    # NaN lies in no interval
    with pytest.raises(ValueError):
        poisson_green(np.array([0.5, np.nan]), 0.5)
    with pytest.raises(ValueError):
        poisson2d_green(0.5, 0.5, np.nan, 0.5)


def test_poisson_weak_delta_property():
    # minus the kernel-weighted second derivative of a smooth test function
    # recovers its point value
    phi = lambda x: np.sin(np.pi * x) * (1.0 + x)
    ddphi = lambda x: -np.pi**2 * np.sin(np.pi * x) * (1.0 + x) + 2.0 * np.pi * np.cos(np.pi * x)
    rule = gauss_legendre_rule(20)
    for s in (0.1, 0.3, 0.5, 0.62, 0.9):
        x, w = composite_rule(rule, [0.0, s, 1.0])
        val = -w @ (poisson_green(x, s) * ddphi(x))
        assert val == pytest.approx(phi(s), abs=1e-8)


def test_poisson_derivative_jump():
    eps = 1e-12
    for s in (0.2, 0.5, 0.8):
        jump = poisson_green_dx(s + eps, s) - poisson_green_dx(s - eps, s)
        assert jump == pytest.approx(-1.0, abs=1e-12)


def test_element_green_matches_global_on_unit_element():
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(element_green(x[:, None], x[None, :], 0.0, 1.0),
                       poisson_green(x[:, None], x[None, :]))
    assert element_green(0.1, 0.7, 0.25, 0.75) == 0.0


def test_advdiff_boundary_values():
    s = np.linspace(0.05, 0.95, 9)
    g0 = advdiff_green(np.zeros_like(s), s, 1.0, 0.01)
    g1 = advdiff_green(np.ones_like(s), s, 1.0, 0.01)
    assert np.max(np.abs(g0)) < 1e-15
    assert np.max(np.abs(g1)) < 1e-15


def test_advdiff_continuity_at_kink():
    eps = 1e-8
    for s in (0.2, 0.5, 0.8):
        gap = abs(advdiff_green(s - eps, s, 1.0, 0.01) - advdiff_green(s + eps, s, 1.0, 0.01))
        assert gap < 1e-6


def test_advdiff_parameter_validation():
    with pytest.raises(ValueError):
        advdiff_green(0.5, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        advdiff_green(0.5, 0.5, 0.0, 0.01)


@pytest.mark.parametrize("c,nu", [(bad, 0.01) for bad in (np.nan, np.inf, -np.inf)]
                         + [(1.0, bad) for bad in (np.nan, np.inf, -np.inf)])
def test_advdiff_rejects_nonfinite_coefficients(c, nu):
    # a NaN or infinite coefficient would give NaN or 0 values silently
    with pytest.raises(ValueError):
        advdiff_green(0.3, 0.5, c, nu)
    with pytest.raises(ValueError):
        advdiff_const_case(c, nu)


@pytest.mark.parametrize("c,nu", [(1.0, 1e-320), (1e300, 1e-10), (-1e300, 1e-10)])
def test_advdiff_rejects_an_overflowing_peclet_ratio(c, nu):
    # finite coefficients whose ratio c / nu overflows gave NaN values
    with pytest.raises(ValueError, match="overflow"):
        advdiff_green(0.5, 0.5, c, nu)
    with pytest.raises(ValueError, match="overflow"):
        advdiff_const_case(c, nu)


@pytest.mark.parametrize("x,s", [(np.nan, 0.5), (0.5, np.nan),
                                 (np.array([0.2, np.nan]), 0.5), (0.5, np.array([np.nan, 0.3]))])
def test_advdiff_rejects_nan_arguments(x, s):
    with pytest.raises(ValueError):
        advdiff_green(x, s, 1.0, 0.01)
    with pytest.raises(ValueError):
        advdiff_green(x, s, -1.0, 0.01)


def test_advdiff_convolution_reproduces_exact_solution():
    # unit source: the kernel integral must equal the closed-form solution
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    rule = gauss_legendre_rule(20)
    scale = nu / c
    for x in np.linspace(0.05, 0.95, 11):
        cuts = {float(x)}
        for d in (0.4 * scale, 1.6 * scale, 8.0 * scale):
            cuts.update((d, min(x + d, 1.0 - 1e-9)))
        bps = sorted(b for b in cuts if 0.0 < b < 1.0)
        s, w = composite_rule(rule, [0.0, *bps, 1.0])
        val = w @ advdiff_green(x, s, c, nu)
        assert val == pytest.approx(case.solution(x), abs=1e-6)


def test_advdiff_diffusive_limit():
    x = np.linspace(0.01, 0.99, 23)
    s = np.linspace(0.01, 0.99, 17)
    gap = np.abs(1.0 * advdiff_green(x[:, None], s[None, :], 1e-6, 1.0)
                 - poisson_green(x[:, None], s[None, :]))
    assert np.max(gap) < 1e-4


def test_advdiff_negative_speed_mirror():
    x = np.linspace(0.05, 0.95, 7)
    s = np.linspace(0.05, 0.95, 7)
    direct = advdiff_green(x[:, None], s[None, :], -2.0, 0.05)
    mirrored = advdiff_green(1.0 - x[:, None], 1.0 - s[None, :], 2.0, 0.05)
    assert np.allclose(direct, mirrored, atol=0.0)


def test_advdiff_exact_solution_solves_equation():
    c, nu = 1.0, 0.01
    case = advdiff_const_case(c, nu)
    x = np.linspace(0.02, 0.98, 31)
    # c u' - nu u'' = 1 integrated once: c u - nu u' - x is constant
    first = c * case.solution(x) - nu * case.gradient(x) - x
    assert np.max(np.abs(first - first[0])) < 1e-12
    assert abs(case.solution(np.array([0.0]))[0]) < 1e-15
    assert abs(case.solution(np.array([1.0]))[0]) < 1e-15


def test_advdiff_const_case_mirrors_negative_speed():
    # c < 0 is the c > 0 case under x -> 1 - x; the unmirrored formula has
    # positive exponents there and overflows to NaN at high Peclet
    x = np.linspace(0.0, 1.0, 101)
    steep = advdiff_const_case(-1.0, 1e-3)
    for f in (steep.solution, steep.gradient):
        assert np.all(np.isfinite(f(x)))
    for nu in (1e-3, 0.05):
        back, fwd = advdiff_const_case(-1.0, nu), advdiff_const_case(1.0, nu)
        np.testing.assert_array_equal(back.solution(x), fwd.solution(1.0 - x))
        np.testing.assert_array_equal(back.gradient(x), -fwd.gradient(1.0 - x))
    # where the unmirrored formula is finite the two agree
    c, nu = -1.0, 0.05
    beta, case = c / nu, advdiff_const_case(c, nu)
    denom = -np.expm1(-beta)
    grow = np.exp(beta * (x - 1.0))
    for got, want in ((case.solution(x), (x - (grow - np.exp(-beta)) / denom) / c),
                      (case.gradient(x), (1.0 - beta * grow / denom) / c)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_poisson2d_boundary_and_symmetry():
    y = np.linspace(0.1, 0.9, 5)
    assert np.max(np.abs(poisson2d_green(0.0, y, 0.4, 0.6))) == 0.0
    # sin(n pi) rounds to ~1e-17 rather than exactly zero at the right edge
    assert np.max(np.abs(poisson2d_green(1.0, y, 0.4, 0.6))) < 1e-15
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, yy, s1, s2 = rng.uniform(0.05, 0.95, 4)
        a = poisson2d_green(x, yy, s1, s2)
        b = poisson2d_green(s1, s2, x, yy)
        assert a == pytest.approx(b, abs=1e-12)


def test_poisson2d_positive_and_overflow_safe():
    x = np.linspace(0.05, 0.95, 7)
    g = poisson2d_green(x[:, None], x[None, :], 0.5, 0.5, num_terms=300)
    assert np.all(np.isfinite(g))
    assert np.min(g) > -1e-12


def test_poisson2d_convolution():
    # convolving with the separable sine source recovers the sine solution;
    # the sine direction needs a rule resolving the highest series mode
    case = sin2pixy_case()
    s, w = composite_rule(gauss_legendre_rule(130), [0.0, 0.5, 1.0])
    rule_y = gauss_legendre_rule(24)
    pts = [(0.25, 0.25), (0.35, 0.3), (0.7, 0.6)]
    for x, y in pts:
        cuts = sorted({0.0, 0.5, 1.0} | {y - 0.02, y, y + 0.02})
        sy, wy = composite_rule(rule_y, cuts)
        g = poisson2d_green(x, y, s[:, None], sy[None, :], num_terms=100)
        f = case.source(s[:, None], sy[None, :])
        val = w @ (g * f) @ wy
        assert val == pytest.approx(case.solution(np.array(x), np.array(y)), abs=2e-3)
