from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsgreens.basis1d import Mesh1D, basis_family
from fsgreens.kernels import _poisson_cells
from fsgreens.poisson2d import _PIECE_DECAY, _PIECE_POINTS, _damped_green_apply
from fsgreens.projection import mesh_quadrature
from fsgreens.quadrature import (
    QuadratureRule,
    _legendre,
    _piece_ends,
    composite_rule,
    cut_ends,
    gauss_legendre_rule,
    gll_nodes,
    gll_rule,
    map_rule,
    sorted_unique,
)


def _numpy_legendre(p: int):
    """P_p as numpy's Legendre series, the tests' independent reference."""
    return np.polynomial.legendre.Legendre.basis(p)


def _lobatto_residual(p: int, nodes: np.ndarray) -> float:
    """max |(1 - x^2) P_p'(x)| over the nodes, by numpy's Legendre series."""
    return float(np.max(np.abs((1.0 - nodes ** 2) * _numpy_legendre(p).deriv()(nodes))))


def test_legendre_low_degrees():
    prev, val = _legendre(1, -0.5)
    assert prev == 1.0 and val == -0.5
    # closed forms: P_2 = (3x^2 - 1)/2, P_3 = (5x^3 - 3x)/2
    prev, val = _legendre(3, 0.2)
    assert prev == pytest.approx(-0.44, abs=1e-15)
    assert val == pytest.approx(-0.28, abs=1e-15)


def test_legendre_vectorized_matches_numpy():
    x = np.linspace(-1.0, 1.0, 33)
    for p in (2, 5, 11):
        prev, val = _legendre(p, x)
        assert np.allclose(prev, _numpy_legendre(p - 1)(x), atol=1e-13)
        assert np.allclose(val, _numpy_legendre(p)(x), atol=1e-13)
        assert _legendre(p, x.astype(np.longdouble))[1].dtype == np.longdouble


def test_gll_nodes_analytic():
    assert np.allclose(gll_nodes(1), [-1.0, 1.0], atol=0.0)
    assert np.allclose(gll_nodes(2), [-1.0, 0.0, 1.0], atol=1e-15)
    r = 1.0 / np.sqrt(5.0)
    assert np.allclose(gll_nodes(3), [-1.0, -r, r, 1.0], atol=1e-15)


@pytest.mark.parametrize("p", range(2, 17))
def test_gll_nodes_are_roots(p):
    nodes = gll_nodes(p)
    assert nodes[0] == -1.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert np.max(np.abs(nodes + nodes[::-1])) < 1e-14
    assert _lobatto_residual(p, nodes) < 1e-12


def test_gll_nodes_are_computed_once_and_read_only():
    from fsgreens.basis1d import Mesh1D, basis_family

    nodes = gll_nodes(5)
    assert gll_nodes(5) is nodes
    assert basis_family(Mesh1D.uniform(0.0, 1.0, 3, 5)).ref_nodes is nodes
    with pytest.raises(ValueError, match="read-only"):
        nodes[1] = 0.0
    assert not gll_nodes(1).flags.writeable


def test_gll_high_degree_converges():
    nodes = gll_nodes(64)
    assert np.max(np.abs(_numpy_legendre(64).deriv()(nodes[1:-1]))) < 1e-9


def test_gll_weights_analytic():
    assert np.array_equal(gll_rule(1).weights, [1.0, 1.0])
    assert np.allclose(gll_rule(2).weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(gll_rule(3).weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0],
                       atol=1e-15)


def _decimal_gll(p: int, digits: int = 50):
    """The GLL nodes and weights of degree p in `digits`-digit decimal
    arithmetic: Newton on (1 - x^2) P_p' = p (P_{p-1} - x P_p), of slope
    -p (p + 1) P_p, six steps from numpy's roots of P_p', and the weights
    2 / (p (p + 1) P_p(x)^2)."""
    def legendre(x):
        prev, val = Decimal(1), x
        for k in range(1, p):
            prev, val = val, ((2 * k + 1) * x * val - k * prev) / (k + 1)
        return prev, val

    with localcontext() as ctx:
        ctx.prec = digits
        nodes = []
        for seed in _numpy_legendre(p).deriv().roots():
            x = Decimal(float(seed))
            for _ in range(6):  # quadratic from numpy's 1e-12 or better
                prev, val = legendre(x)
                x = x - (x * val - prev) / ((p + 1) * val)
            nodes.append(x)
        # the exact set is antisymmetric, and for even p holds 0 itself
        nodes = [(x - y) / 2 for x, y in zip(nodes, nodes[::-1])]
        ends = [Decimal(2) / (p * (p + 1))]
        weights = ends + [Decimal(2) / (p * (p + 1) * legendre(x)[1] ** 2) for x in nodes] + ends
        return [-1.0, *map(float, nodes), 1.0], [float(w) for w in weights]


# the x87 80-bit format carries a 64-bit significand, 63 bits after the point
_EXTENDED = np.finfo(np.longdouble).nmant == 63


@pytest.mark.parametrize("p", range(1, 65))
def test_gll_rule_is_the_decimal_reference_rounded(p):
    # float() of a 50-digit Decimal is its nearest double; the nodes are
    # that double where np.longdouble is the 80-bit format, and within an
    # ulp elsewhere; the weights are within an ulp
    nodes, weights = (np.array(v) for v in _decimal_gll(p))
    rule = gll_rule(p)
    if _EXTENDED:
        assert np.array_equal(rule.nodes, nodes)
    else:
        assert np.all(np.abs(rule.nodes - nodes) <= np.spacing(np.abs(nodes)))
    assert np.all(np.abs(rule.weights - weights) <= np.spacing(weights))


@pytest.mark.parametrize("p", range(1, 17))
def test_gll_rule_exactness(p):
    rule = gll_rule(p)
    assert abs(np.sum(rule.weights) - 2.0) < 1e-13
    # exact through degree 2p - 1
    for k in range(0, 2 * p):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(rule.weights, rule.nodes ** k) - exact) < 1e-12


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_legendre_exactness(n):
    rule = gauss_legendre_rule(n)
    for k in range(0, 2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(rule.weights, rule.nodes ** k) - exact) < 1e-12


def _legendre_sum_error(rule: QuadratureRule, degree: int) -> float:
    """|sum_i w_i P_degree(x_i) - int_{-1}^1 P_degree| of the float nodes
    and weights, in exact rational arithmetic."""
    total = Fraction(0)
    for x, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
        x = Fraction(x)
        prev, val = Fraction(1), (x if degree else Fraction(1))
        for k in range(1, degree):
            prev, val = val, ((2 * k + 1) * x * val - k * prev) / (k + 1)
        total += Fraction(w) * val
    return abs(float(total - (2 if degree == 0 else 0)))


@pytest.mark.parametrize("n", [5, 20, 28, 40])
def test_gauss_legendre_rule_integrates_legendre_polynomials_to_an_ulp(n):
    # exact sums of the float rule: P_0 and P_2 within 1e-16 (3.6e-17 at
    # most) and P_{2n-2} within 5e-16 (2.6e-16); numpy's leggauss misses
    # P_2 by 4.6e-15 at n = 20 and by 7.0e-15 at n = 40
    rule = gauss_legendre_rule(n)
    assert _legendre_sum_error(rule, 0) <= 1e-16
    assert _legendre_sum_error(rule, 2) <= 1e-16
    assert _legendre_sum_error(rule, 2 * n - 2) <= 5e-16


def test_every_rule_is_the_composite_rule_on_its_own_ends():
    # the 1D Green's cells, the source rule and the damped primitive's
    # pieces lay the one Gauss rule one way, composite_rule's, bit for bit
    cuts, q = np.array([0.37, 0.5, 0.2, 1.3, 0.5]), 7
    cells = _poisson_cells(np.ones_like, cuts, q)
    x, w = composite_rule(gauss_legendre_rule(2 * q), cut_ends((0.0, 1.0), cuts))
    assert np.array_equal(cells.points, x) and np.array_equal(cells.weighted, w)

    family = basis_family(Mesh1D(0.0, 1.0, 3, 2, np.array([0.0, 0.3, 0.55, 1.0])))
    got = mesh_quadrature(family, q, cuts)
    assert np.array_equal(got, composite_rule(gauss_legendre_rule(q),
                                              cut_ends(family.mesh.boundaries, cuts)))

    seen = []

    def pair(t, fw):
        seen.append((t, fw[:, 0]))
        return 0.0

    points, rates = np.array([0.1, 0.45]), np.pi * np.arange(1, 40)
    _damped_green_apply(lambda t: np.ones((t.size, rates.size)), points, cuts, q, rates, pair,
                        block_points=64)
    cells = cut_ends((0.0, 1.0), np.concatenate((cuts, points)))
    ends = _piece_ends(cells, np.ceil(rates.max() * np.diff(cells) / _PIECE_DECAY).astype(int))
    x, w = composite_rule(gauss_legendre_rule(max(_PIECE_POINTS, q)), ends)
    assert len(seen) > 1
    assert np.array_equal(np.concatenate([t for t, _ in seen]), x)
    assert np.array_equal(np.concatenate([fw for _, fw in seen]), w)


def test_gauss_legendre_small_rules():
    r1 = gauss_legendre_rule(1)
    assert np.allclose(r1.nodes, [0.0]) and np.allclose(r1.weights, [2.0])
    r2 = gauss_legendre_rule(2)
    assert np.allclose(r2.nodes, [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    assert np.allclose(r2.weights, [1.0, 1.0])
    r5 = gauss_legendre_rule(5)
    assert abs(np.dot(r5.weights, r5.nodes ** 8) - 2.0 / 9.0) < 1e-13


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.5, -0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([-0.5, 0.5]), np.array([1.0, -1.0]))


def test_integrate_split_absolute_value():
    # a rule cut at the kink integrates |x| exactly
    x, w = composite_rule(gauss_legendre_rule(5), [-1.0, 0.0, 1.0])
    assert abs(w @ np.abs(x) - 1.0) < 1e-13


def test_integrate_constant_any_breakpoints():
    x, w = composite_rule(gauss_legendre_rule(3), [0.0, 0.3, 1.1, 2.0])
    assert abs(w @ np.ones_like(x) - 2.0) < 1e-14


def test_integrate_kernel_derivative_telescopes():
    # integral of dg/dx over [0, 1] is g(1, s) - g(0, s) = 0
    from flattened_oracle import poisson_green_dx

    x, w = composite_rule(gauss_legendre_rule(5), [0.0, 0.4, 1.0])
    assert abs(w @ poisson_green_dx(x, 0.4)) < 1e-15


def test_composite_rule_concatenates():
    rule = gauss_legendre_rule(4)
    x, w = composite_rule(rule, [0.0, 0.5, 1.0])
    assert x.size == 8 and abs(np.sum(w) - 1.0) < 1e-15
    assert np.all(np.diff(x) > 0)
    # the array map is the per-interval scalar map, row by row, bit for bit
    bounds = np.array([0.0, 0.1, 0.37, 0.5, 0.93, 1.0])
    rows = [map_rule(rule, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    xs, ws = map_rule(rule, bounds[:-1], bounds[1:])
    assert xs.shape == ws.shape == (bounds.size - 1, rule.npoints)
    assert np.array_equal(xs, [r[0] for r in rows]) and np.array_equal(ws, [r[1] for r in rows])
    x, w = composite_rule(rule, bounds)
    assert np.array_equal(x, np.concatenate([r[0] for r in rows]))
    assert np.array_equal(w, np.concatenate([r[1] for r in rows]))
    # a zero-width interval gets zero weights; reversed ends raise
    xs, ws = map_rule(rule, [0.2, 0.3], [0.2, 0.4])
    assert np.all(xs[0] == 0.2) and np.all(ws[0] == 0.0) and np.all(ws[1] > 0.0)
    with pytest.raises(ValueError):
        map_rule(rule, 0.5, 0.4)
    with pytest.raises(ValueError):
        map_rule(rule, [0.0, 0.5], [0.1, 0.4])


def test_gauss_legendre_rule_is_shared_and_read_only():
    rule = gauss_legendre_rule(20)
    assert gauss_legendre_rule(20) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_rule_does_not_freeze_caller_arrays():
    nodes, weights = np.array([-0.5, 0.5]), np.array([1.0, 1.0])
    QuadratureRule(nodes, weights)
    nodes[0] = -0.6
    assert nodes[0] == -0.6


@given(st.lists(st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 0.5, np.inf, -np.inf, 5e-324]),
                max_size=12),
       st.lists(st.floats(allow_nan=True), max_size=12))
def test_sorted_unique_is_np_unique(picks, floats):
    # bit for bit, -0.0 against 0.0 and NaN included, on ties and free floats
    values = np.array(picks + floats, dtype=float)
    want = np.unique(values)
    got = sorted_unique(values)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
