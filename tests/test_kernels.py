import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fsgreens.basis1d import Mesh1D
from fsgreens.cases import advdiff_const_case, boundary_layer_breakpoints, sin2pixy_case
from fsgreens.kernels import (_damped_green, _poisson_cells, _prefix_sums, advdiff_green,
                              poisson2d_green, poisson_green)
from fsgreens.poisson2d import Mesh2D, _damped_green_apply, _psi_tab, build_dual_functionals_2d
from fsgreens.quadrature import composite_rule, gauss_legendre_rule

from flattened_oracle import _poisson_apply, element_green, poisson_green_dx
from flattened_oracle import advdiff_green as oracle_advdiff_green
from oracle_2d import series_term_profile


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


@pytest.mark.parametrize("value,inside", [(1.0 + 1e-13, True), (-1e-13, True), (1.0 + 1e-9, False),
                                          (-1e-9, False), (np.nan, False)])
def test_unit_domain_tolerance(value, inside):
    # rounding just outside [0, 1] is accepted and clipped; a point 1e-9
    # outside, or NaN, is an error
    applies = (lambda v: poisson_green(v, 0.5), lambda v: poisson_green(0.5, v),
               lambda v: _poisson_cells(np.exp, [0.3], 20)([0.5, v]),
               lambda v: _damped_green_apply(np.exp, [0.5, v], [0.3], 20, np.pi)[0])
    for apply in applies:
        if inside:
            assert np.all(np.isfinite(apply(value)))
        else:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                apply(value)


@pytest.mark.parametrize("outside", [-1e-13, 1.0 + 1e-13])
def test_kernels_are_exactly_zero_just_outside_the_domain(outside):
    # a point within 1e-12 of [0, 1] is clipped to its end, where the
    # kernels vanish; the unclipped Poisson kernel gave -5e-14 at both ends
    for x, s in ((outside, 0.5), (0.5, outside)):
        assert poisson_green(x, s) == 0.0
        assert advdiff_green(x, s, -1.0, 0.1) == 0.0


@pytest.mark.parametrize("rates", [0.0, np.pi * np.arange(1, 4)])
def test_damped_primitive_rejects_a_nan_cut(rates):
    # a NaN cut is an error, not a cut dropped with those outside [0, 1];
    # at rate 0 the Green's operator is the cell route, its cuts and its
    # restarts alike
    density = lambda t: np.ones((t.size, np.size(rates)))
    if np.all(rates == 0.0):
        apply = lambda cuts: _poisson_cells(lambda t: density(t)[:, 0], cuts, 20)([0.5])
        _poisson_cells(np.ones_like, [0.5], 20, restarts=[0.0, 0.3, 1.0])
        with pytest.raises(ValueError, match="NaN"):
            _poisson_cells(np.ones_like, [0.5], 20, restarts=[0.0, np.nan, 1.0])
    else:
        apply = lambda cuts: _damped_green_apply(density, [0.5], cuts, 20, rates)
    apply([0.3, -0.2, 1.4, np.inf])
    with pytest.raises(ValueError, match="NaN"):
        apply([0.3, np.nan])


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
    # exactly 0 with x or s on an end, for either sign and any Peclet ratio
    ends, inner = np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 11)
    for x, s in ((ends[:, None], inner[None, :]), (inner[:, None], ends[None, :])):
        for c, nu in ((1.0, 0.01), (1.0, 1e-4), (-0.3, 0.05), (1.0, 1.0), (1e-310, 1.0)):
            assert not np.any(advdiff_green(x, s, c, nu))


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


@pytest.mark.parametrize("c,nu", [(1.0, 1e-320), (1e300, 1e-10), (-1e300, 1e-10),
                                  (1e-320, 1e-320)])
def test_advdiff_rejects_an_overflowing_peclet_ratio(c, nu):
    # finite coefficients whose ratio c / nu overflows gave NaN values;
    # at c / nu = 1 and nu = 1e-320, 1 / nu overflows, and with it the
    # kernel, near 1 / (4 nu), which was inf
    for reject in (lambda: advdiff_green(0.5, 0.5, c, nu), lambda: advdiff_const_case(c, nu),
                   lambda: boundary_layer_breakpoints(c, nu)):
        with pytest.raises(ValueError, match="overflow"):
            reject()


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


@pytest.mark.parametrize("beta", [1e-12, -1e-12, 1e-8, -1e-8, 1e-5, -1e-5, 0.5, -0.5, 1e-310])
def test_advdiff_const_case_is_accurate_at_a_small_peclet_ratio(beta):
    # against 50-digit decimal arithmetic at nu = 1: the closed form
    # (x - expm1(beta x) / expm1(beta)) / c cancels below beta = 1 (0.054
    # for 0.125 at u(0.5), beta = 1e-8; inf at 1e-310), where the limit is
    # the diffusive x (1 - x) / 2
    x = np.linspace(0.0, 1.0, 101)
    case = advdiff_const_case(beta, 1.0)
    with localcontext() as ctx:
        ctx.prec = 50
        xs, b = [Decimal(v) for v in x], Decimal(beta)
        if beta == 1e-310:
            want = [v * (1 - v) / 2 for v in xs], [Decimal(0.5) - v for v in xs]
        else:
            d = b.exp() - 1
            want = ([(v - ((b * v).exp() - 1) / d) / b for v in xs],
                    [(1 - b * (b * v).exp() / d) / b for v in xs])
        for f, ref, tol in zip((case.solution, case.gradient), want, (1e-14, 1e-13)):
            err = max(abs(Decimal(g) - r) for g, r in zip(f(x), ref))
            assert err <= Decimal(tol) * max(abs(r) for r in ref)


@pytest.mark.parametrize("c,nu", [(1e-300, 1e-300), (1e-310, 1.0)])
def test_advdiff_accepts_a_tiny_c_or_nu_whose_kernel_is_finite(c, nu):
    x = np.linspace(0.0, 1.0, 41)
    case = advdiff_const_case(c, nu)
    for values in (case.solution(x), case.gradient(x),
                   advdiff_green(x[:, None], x[None, :], c, nu)):
        assert np.all(np.isfinite(values))


def test_poisson2d_boundary_and_symmetry():
    y = np.linspace(0.1, 0.9, 5)
    assert np.max(np.abs(poisson2d_green(0.0, y, 0.4, 0.6))) == 0.0
    # and exactly 0 with y or s2 on an end, in every term
    ends = np.array([0.0, 1.0])
    assert not np.any(poisson2d_green(0.3, ends[:, None], 0.4, y[None, :], num_terms=1000))
    assert not np.any(poisson2d_green(0.3, y[:, None], 0.4, ends[None, :], num_terms=1000))
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


# ---------------------------------------------------------------------------
# the damped Green's primitive


# unsorted, with a repeat, the ends and the density's kink at 0.37
_POINTS = np.array([0.8123, 0.37, 0.0, 0.5, 0.37, 1.0, 0.01, 0.999, 0.2])


def _kinked(t, column=0):
    # positive, so that no value of the image comes from a cancellation
    return np.abs(t - 0.37) + np.exp(-column * t)


def _dense(kernel, x, density, width):
    """int_0^1 kernel(x, t) density(t) dt at each x by a 30-point Gauss rule
    on pieces at most `width` wide, cut at x and at the kink 0.37."""
    out = []
    for xv in x:
        cuts = np.unique([0.0, xv, 0.37, 1.0])
        ends = np.unique(np.concatenate([np.linspace(a, b, int(np.ceil((b - a) / width)) + 1)
                                         for a, b in zip(cuts[:-1], cuts[1:])]))
        t, w = composite_rule(gauss_legendre_rule(30), ends)
        out.append((w * kernel(xv, t)) @ density(t))
    return np.array(out)


def test_prefix_sums_are_compensated():
    # each running sum within an ulp of the exact one (math.fsum; here all
    # are exact), where np.cumsum is off by up to 1.1e6 ulps of partial
    # sums that nearly cancel; along the last axis, one row per sequence
    rng = np.random.default_rng(7)
    terms = rng.standard_normal((3, 2000)) * np.exp(rng.uniform(-5.0, 5.0, (3, 2000)))
    exact = np.array([[math.fsum(row[:i + 1]) for i in range(row.size)] for row in terms])
    ulp = np.spacing(np.abs(exact))
    assert np.max(np.abs(_prefix_sums(terms) - exact) / ulp) <= 1.0
    assert np.max(np.abs(np.cumsum(terms, axis=-1) - exact) / ulp) > 100.0


def test_damped_primitive_at_zero_rate_is_the_poisson_operator():
    # at rate 0 the library's Green's operator is the cell route: cell-end
    # values and each cell's bubble series, no cell cut at the points
    got = _poisson_cells(_kinked, [0.37], 20)(_POINTS)
    want = _dense(poisson_green, _POINTS, _kinked, 1.0)
    assert got.shape == (_POINTS.size,)
    assert np.max(np.abs(got - want)) < 1e-15 * np.max(want)
    oracle = _poisson_apply(_kinked, _POINTS, [0.37], 20)[:, 0]
    assert np.max(np.abs(got - oracle)) < 1e-15 * np.max(want)


@pytest.mark.parametrize("terms", [100, 1000])
def test_damped_primitive_applies_every_series_mode(terms):
    # column n - 1 has rate k = n pi and its own density; its kernel is the
    # 2D series profile over k, P_k = k g_k.  The dense side forms
    # e^{-k |x - t|} from k min and k max, so it carries about eps k of
    # rounding, and the bound grows with k
    k = np.pi * np.arange(1, terms + 1)
    columns = lambda t: _kinked(t[:, None], np.arange(terms) / terms)
    got = _damped_green_apply(columns, _POINTS, [0.37], 20, k)[0]
    assert got.shape == (_POINTS.size, terms)
    for n in (1, 2, 37, terms):
        want = _dense(lambda xv, t: series_term_profile(n, xv, t) / k[n - 1], _POINTS,
                      lambda t: _kinked(t, (n - 1) / terms), 2.0 / k[-1])
        bound = 1e-14 * max(1.0, k[n - 1] / 10.0)
        assert np.max(np.abs(got[:, n - 1] - want)) < bound * np.max(want)


def test_damped_primitive_raises_a_short_rule_to_its_piece_floor():
    # a damped piece carries at least 20 Gauss points, whatever the
    # caller's source rule: a 4-point call is the 20-point one, and both
    # match the dense reference
    k = np.pi * np.arange(1, 101)
    columns = lambda t: _kinked(t[:, None], np.arange(100) / 100)
    got = _damped_green_apply(columns, _POINTS, [0.37], 4, k)[0]
    np.testing.assert_array_equal(got, _damped_green_apply(columns, _POINTS, [0.37], 20, k)[0])
    for n in (1, 37, 100):
        want = _dense(lambda xv, t: series_term_profile(n, xv, t) / k[n - 1], _POINTS,
                      lambda t: _kinked(t, (n - 1) / 100), 2.0 / k[-1])
        bound = 1e-14 * max(1.0, k[n - 1] / 10.0)
        assert np.max(np.abs(got[:, n - 1] - want)) < bound * np.max(want)


def test_damped_primitive_moments_are_the_basis_pairings():
    # int f psi_b against the 2D basis table, with no points or with some:
    # each piece lies in one element, where psi_b is a polynomial.  psi_b
    # sums nodal functions times eigenvectors of size up to 3.8, whose
    # rounding at other rule points moves the pairings by up to 7.2e-15 of
    # int |f psi_b|
    d2 = build_dual_functionals_2d(Mesh2D(Mesh1D.uniform(0.0, 1.0, 4, 3)))
    table = lambda t: _psi_tab(d2, t)
    pair = lambda t, fw: fw.T @ table(t)
    k = np.pi * np.arange(1, 8)
    columns = lambda t: _kinked(t[:, None], np.arange(7.0))
    cuts = np.r_[d2.family.mesh.boundaries, 0.37]
    t, w = composite_rule(gauss_legendre_rule(30), np.unique(cuts))
    want = (w[:, None] * columns(t)).T @ table(t)
    scale = (w[:, None] * columns(t)).T @ np.abs(table(t))
    for x in ([], _POINTS):
        got, moments = _damped_green_apply(columns, x, cuts, 20, k, pair, 64)
        assert got.shape == (len(x), 7)
        assert np.max(np.abs(moments - want) / scale) < 3e-14


# ---------------------------------------------------------------------------
# the one damped formula against references


@pytest.mark.parametrize("nu", [1.0, 0.05, 1e-3, 1e-4])
def test_advdiff_green_matches_the_mirror_oracle(nu):
    # for c > 0 the former product and shifted forms are accurate to
    # rounding of the plateau on a grid and through the layers
    x = np.unique(np.r_[np.linspace(0.0, 1.0, 101), 0.5 + 8.0 * nu * np.linspace(-1.0, 1.0, 41)])
    x = x[(x >= 0.0) & (x <= 1.0)]
    for c in (1.0, 0.3):
        # the oracle forms both branches, and its upstream one overflows
        # where it is not taken
        with np.errstate(over="ignore"):
            want = oracle_advdiff_green(x[:, None], x[None, :], c, nu)
        got = advdiff_green(x[:, None], x[None, :], c, nu)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def _sinh(a: Decimal) -> Decimal:
    return (a.exp() - (-a).exp()) / 2


# a value below the smallest normal double may round to it or to 0
_TINY = Decimal(np.finfo(float).tiny)


def _pairs(rng, reach):
    """200 pairs within `reach` of each other, clipped to [0, 1] (so some
    lie on an end, where the kernels vanish), and the pairs (1e-9, 0.5)
    and (0.5, 1e-9)."""
    s = rng.uniform(0.0, 1.0, 200)
    x = np.clip(s + rng.uniform(-reach, reach, 200), 0.0, 1.0)
    return np.r_[x, 1e-9, 0.5], np.r_[s, 0.5, 1e-9]


@pytest.mark.parametrize("nu", [1.0, 0.05, 1e-3, 1e-4])
@pytest.mark.parametrize("c", [1.0, -1.0, 0.3, -0.3])
def test_advdiff_green_is_accurate_to_rounding(c, nu):
    # against 50-digit decimal arithmetic at the same float inputs,
    # e^{beta (x - s) / 2} sinh(k min) sinh(k (1 - max)) / (nu k sinh k),
    # k = |beta| / 2: relative error within 2e-15 max(1, |beta (x - s)|),
    # the rounding of the exponent's argument
    x, s = _pairs(np.random.default_rng(7), 8.0 * nu / abs(c))
    got = advdiff_green(x, s, c, nu)
    with localcontext() as ctx:
        ctx.prec = 50
        beta = Decimal(c) / Decimal(nu)
        k = abs(beta) / 2
        for xv, sv, g in zip(x, s, got):
            lo, hi = Decimal(min(xv, sv)), Decimal(max(xv, sv))
            want = (beta * (Decimal(xv) - Decimal(sv)) / 2).exp() * _sinh(k * lo) \
                * _sinh(k * (1 - hi)) / (Decimal(nu) * k * _sinh(k))
            bound = Decimal(2e-15) * max(1, abs(beta * (Decimal(xv) - Decimal(sv))))
            assert abs(Decimal(g) - want) <= bound * want + _TINY


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000])
def test_series_mode_is_accurate_to_rounding(n):
    # mode n of the 2D series, k g_k at k = n pi, against 50-digit
    # sinh(k min) sinh(k (1 - max)) / sinh(k) at the same float k: relative
    # error within 2e-15 max(1, k |y - s|)
    k = n * np.pi
    y, s = _pairs(np.random.default_rng(n), 5.0 / k)
    got = k * _damped_green(y, s, k)
    with localcontext() as ctx:
        ctx.prec = 50
        kd = Decimal(k)
        for yv, sv, g in zip(y, s, got):
            lo, hi = Decimal(min(yv, sv)), Decimal(max(yv, sv))
            want = _sinh(kd * lo) * _sinh(kd * (1 - hi)) / _sinh(kd)
            bound = Decimal(2e-15) * max(1, kd * (hi - lo))
            assert abs(Decimal(g) - want) <= bound * want + _TINY


@pytest.mark.parametrize("c", [1e-310, 1e-320])
def test_advdiff_green_at_a_subnormal_peclet_ratio_is_poisson(c):
    # c / nu at or below machine epsilon is the diffusive limit, G / nu;
    # the former forms divided 0 by 0 there
    x = np.linspace(0.0, 1.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = advdiff_green(x[:, None], x[None, :], c, 1.0)
    want = poisson_green(x[:, None], x[None, :])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)


@pytest.mark.parametrize("c,nu", [(1.0, 1e-300), (1e300, 1e-7), (-1e300, 1e-7)])
def test_advdiff_green_at_an_extreme_peclet_ratio_is_the_plateau(c, nu):
    # downstream of the source and away from the outflow layer the kernel
    # is 1 / |c|, with no overflow, underflow to 0 or warning
    s = np.linspace(0.1, 0.9, 9)
    x = np.clip(s + np.sign(c) * 0.05, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = advdiff_green(x, s, c, nu)
        # a rounding outside [0, 1] is the end, where the kernel vanishes
        ends = advdiff_green(np.array([-1e-13, 1.0 + 1e-13]), 0.5, c, nu)
    assert np.max(np.abs(got * abs(c) - 1.0)) <= 1e-15
    assert not np.any(ends)
