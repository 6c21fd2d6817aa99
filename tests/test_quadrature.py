import numpy as np
import pytest

from fsgreens.quadrature import (
    QuadratureRule,
    composite_rule,
    gauss_legendre_rule,
    gll_nodes,
    gll_rule,
    gll_weights,
    integrate,
    legendre_eval,
    map_rule,
)


def test_legendre_low_degrees():
    val, der = legendre_eval(0, 0.37)
    assert val == 1.0 and der == 0.0
    val, der = legendre_eval(1, -0.5)
    assert val == -0.5 and der == 1.0
    # closed form: L_3 = (5x^3 - 3x)/2, L_3' = (15x^2 - 3)/2
    val, der = legendre_eval(3, 0.2)
    assert val == pytest.approx(-0.28, abs=1e-15)
    assert der == pytest.approx(-1.2, abs=1e-15)


def test_legendre_vectorized_matches_numpy():
    x = np.linspace(-1.0, 1.0, 33)
    for p in (2, 5, 11):
        ref = np.polynomial.legendre.Legendre.basis(p)
        val, der = legendre_eval(p, x)
        assert np.allclose(val, ref(x), atol=1e-13)
        assert np.allclose(der, ref.deriv()(x), atol=1e-11)


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
    _, der = legendre_eval(p, nodes[1:-1])
    assert np.max(np.abs((1.0 - nodes[1:-1] ** 2) * der)) < 1e-12


def test_gll_high_degree_converges():
    nodes = gll_nodes(64)
    _, der = legendre_eval(64, nodes[1:-1])
    assert np.max(np.abs(der)) < 1e-9


def test_gll_weights_analytic():
    assert np.allclose(gll_weights(1), [1.0, 1.0])
    assert np.allclose(gll_weights(2), [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert np.allclose(gll_weights(3), [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0],
                       atol=1e-15)


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
    rule = gauss_legendre_rule(5)
    val = integrate(np.abs, -1.0, 1.0, rule, breakpoints=[0.0])
    assert abs(val - 1.0) < 1e-13


def test_integrate_constant_any_breakpoints():
    rule = gauss_legendre_rule(3)
    val = integrate(lambda x: np.ones_like(x), 0.0, 2.0, rule, breakpoints=[0.3, 1.1])
    assert abs(val - 2.0) < 1e-14


def test_integrate_kernel_derivative_telescopes():
    # integral of dg/dx over [0, 1] is g(1, s) - g(0, s) = 0
    from fsgreens.kernels import poisson_green_dx

    rule = gauss_legendre_rule(5)
    val = integrate(lambda x: poisson_green_dx(x, 0.4), 0.0, 1.0, rule, breakpoints=[0.4])
    assert abs(val) < 1e-15


def test_integrate_no_breakpoints_bit_identical():
    rule = gauss_legendre_rule(7)
    f = lambda x: np.exp(x) * np.sin(3 * x)
    x, w = map_rule(rule, 0.2, 1.7)
    plain = float(np.dot(w, f(x)))
    assert integrate(f, 0.2, 1.7, rule) == plain


def test_integrate_rejects_bad_breakpoints():
    rule = gauss_legendre_rule(3)
    with pytest.raises(ValueError):
        integrate(np.abs, 0.0, 1.0, rule, breakpoints=[0.7, 0.3])
    with pytest.raises(ValueError):
        integrate(np.abs, 0.0, 1.0, rule, breakpoints=[1.5])


def test_composite_rule_concatenates():
    rule = gauss_legendre_rule(4)
    x, w = composite_rule(rule, [0.0, 0.5, 1.0])
    assert x.size == 8 and abs(np.sum(w) - 1.0) < 1e-15
    assert np.all(np.diff(x) > 0)


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
