"""Operator construction, exact norm formulas, powers, lifts."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oparma import (
    DimensionMismatchError,
    OperatorSpec,
    SpecificationError,
    apply_batch,
    arma_model,
    build_operator,
    companion_lift,
    dense_operator,
    ma_moment_operator,
    power_log_norm,
    power_norm,
    spectral_radius,
    structured_log_norm,
    structured_norm,
    volterra_matrix,
)
from oparma.operators import _scaled_matrix_power


def op(kind, dim, **params):
    return build_operator(OperatorSpec(kind=kind, dim=dim, params=params))


# ---------------------------------------------------------------------------
# construction


def test_volterra_left_rule_m4_hand_values():
    # h = 1/4 on every strictly-lower entry
    a = volterra_matrix(4, rule="left")
    expect = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 0.0],
            [0.25, 0.25, 0.0, 0.0],
            [0.25, 0.25, 0.25, 0.0],
        ]
    )
    np.testing.assert_array_equal(a, expect)


def test_volterra_corrected_rule_m4_hand_values():
    h = 0.25
    a = volterra_matrix(4, rule="corrected_trapezoid")
    expect = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [h, 0.0, 0.0, 0.0],
            [0.0, 2 * h, 0.0, 0.0],
            [h / 2, h / 2, 2 * h, 0.0],
        ]
    )
    np.testing.assert_allclose(a, expect, rtol=0, atol=1e-15)


def test_volterra_corrected_row_sums_exact():
    # cumulative integral of the constant 1 is s_i, reproduced exactly
    m = 37
    a = volterra_matrix(m)
    np.testing.assert_allclose(a.sum(axis=1), np.arange(m) / m, rtol=1e-13, atol=1e-16)


def test_volterra_is_nilpotent_with_zero_spectrum():
    v = op("volterra", 16)
    assert np.abs(np.linalg.eigvals(v.matrix)).max() < 1e-12
    p = np.linalg.matrix_power(v.matrix, 16)
    assert np.abs(p).max() == 0.0


def test_volterra_powers_track_factorial_decay():
    # corrected rule at m = 128: ||A^n|| within a few percent of 1/n!
    v = op("volterra", 128)
    for n in range(1, 5):
        rel = structured_norm(v, n) * math.factorial(n) - 1.0
        assert abs(rel) < 0.05
    # the left rule undershoots 1/6! by more than 3.5% at m = 512
    vl = op("volterra", 512, rule="left")
    assert structured_norm(vl, 6) * math.factorial(6) < 1.0 - 0.035


@pytest.mark.parametrize("m", [24, 384])
def test_volterra_powers_in_real_arithmetic_match_complex(m):
    # the structured norm powers the real matrix; complex powering is the reference
    v = op("volterra", m)
    for n in range(1, 7):
        p, log_scale = _scaled_matrix_power(v.matrix, n)
        complex_norm = np.abs(p).sum(axis=1).max() * math.exp(log_scale)
        assert structured_norm(v, n) == pytest.approx(complex_norm, rel=1e-14)
    p, _ = _scaled_matrix_power(np.ascontiguousarray(v.matrix.real), 3)
    assert p.dtype == np.float64


def test_weighted_shift_layout():
    a = op("weighted_shift", 4, weights=[2.0, 3.0, 4.0])
    x = np.array([1.0, 10.0, 100.0, 1000.0])
    np.testing.assert_allclose(a.matrix @ x, [0.0, 2.0, 30.0, 400.0])


def test_circular_shift_is_cyclic_permutation():
    a = op("circular_shift", 5)
    x = np.arange(5.0)
    np.testing.assert_array_equal((a.matrix @ x).real, [4.0, 0.0, 1.0, 2.0, 3.0])
    # unitary: all eigenvalues on the unit circle
    np.testing.assert_allclose(np.abs(np.linalg.eigvals(a.matrix)), 1.0, rtol=1e-12)


def test_multiplication_and_scaled_shift():
    m = op("multiplication", 3, multipliers=[1.0, -2.0, 3j])
    np.testing.assert_allclose(m.matrix @ [1, 1, 1], [1.0, -2.0, 3j])
    s = op("scaled_unilateral_shift", 3, scale=2.0)
    np.testing.assert_allclose(s.matrix @ [1, 0, 0], [0.0, 2.0, 0.0])


def test_spec_validation_errors():
    with pytest.raises(SpecificationError):
        OperatorSpec(kind="nope", dim=3)
    with pytest.raises(SpecificationError):
        OperatorSpec(kind="dense", dim=0)
    with pytest.raises(SpecificationError):
        build_operator(OperatorSpec(kind="dense", dim=2, params={}))
    with pytest.raises(SpecificationError):
        build_operator(OperatorSpec(kind="dense", dim=2, params={"entries": [[1, 2]]}))
    with pytest.raises(SpecificationError):
        build_operator(
            OperatorSpec(kind="weighted_shift", dim=3, params={"weights": [1.0]})
        )
    with pytest.raises(SpecificationError):
        build_operator(
            OperatorSpec(kind="weighted_shift", dim=3, params={"weights": [1.0, -0.5]})
        )
    with pytest.raises(SpecificationError):
        build_operator(OperatorSpec(kind="volterra", dim=8, params={"rule": "simpson"}))
    with pytest.raises(SpecificationError):
        build_operator(OperatorSpec(kind="volterra", dim=8, params={"grid": 9}))


@pytest.mark.parametrize(
    "kind, params, takes",
    [
        ("volterra", {"rul": "left"}, "['grid', 'rule']"),
        ("scaled_unilateral_shift", {"scal": 0.5}, "['scale']"),
        ("identity", {"scale": 2.0}, "none"),
    ],
)
def test_spec_rejects_params_its_kind_does_not_declare(kind, params, takes):
    (bad,) = params
    with pytest.raises(SpecificationError, match=rf"\['{bad}'\]; it takes {re.escape(takes)}"):
        OperatorSpec(kind=kind, dim=3, params=params)


def test_matrix_is_read_only():
    a = op("identity", 3)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_apply_dimension_mismatch():
    a = op("identity", 3)
    with pytest.raises(DimensionMismatchError):
        apply_batch(a, np.ones((4, 7)))


# ---------------------------------------------------------------------------
# norms and powers


def test_weighted_shift_power_norms_are_window_products():
    a = op("weighted_shift", 5, weights=[2.0, 3.0, 4.0, 5.0])
    assert structured_norm(a, 1) == pytest.approx(5.0, rel=1e-14)
    assert structured_norm(a, 2) == pytest.approx(20.0, rel=1e-14)
    assert structured_norm(a, 3) == pytest.approx(60.0, rel=1e-14)
    assert structured_norm(a, 4) == pytest.approx(120.0, rel=1e-14)
    assert structured_norm(a, 5) == 0.0
    # the dense 2-norm agrees because shift powers have orthogonal rows
    for n in range(1, 6):
        assert power_norm(a, n) == pytest.approx(structured_norm(a, n), rel=1e-12)


def test_double_exponential_weights_telescope_exactly():
    # log a_1 = -e, log a_n = -(e^n - e^(n-1)): the length-n leading window
    # telescopes to -e^n, far below float underflow for n >= 6
    d = 12
    exps = [-math.e] + [-(math.e**n - math.e ** (n - 1)) for n in range(2, d)]
    a = op("weighted_shift", d, weights=np.exp(np.clip(exps, -700, 0)))
    # weights themselves underflow past n ~ 6, so build via logs: use dense
    # spec params only for the cross-check below at small n
    for n in range(1, 6):
        got = structured_log_norm(a, n)
        assert got == pytest.approx(-math.e**n, rel=1e-10)


def test_structured_log_norm_handles_underflowing_windows():
    # weights so small their length-3 product underflows float range
    w = np.array([1e-200, 1e-180, 1e-150])
    a = op("weighted_shift", 4, weights=w)
    got = structured_log_norm(a, 3)
    assert got == pytest.approx(math.log(1e-200) + math.log(1e-180) + math.log(1e-150))
    assert structured_norm(a, 3) == 0.0  # underflow flushes to zero, by design


def test_multiplication_circular_scaled_norm_formulas():
    m = op("multiplication", 4, multipliers=[0.1, 0.5, -0.75, 0.25])
    for n in (1, 3, 10):
        assert structured_log_norm(m, n) == pytest.approx(n * math.log(0.75))
    c = op("circular_shift", 6)
    assert structured_norm(c, 1) == 1.0
    assert structured_norm(c, 97) == 1.0
    s = op("scaled_unilateral_shift", 6, scale=2.0)
    assert structured_norm(s, 5) == 32.0
    assert structured_norm(s, 6) == 0.0
    assert structured_norm(op("zero", 3), 2) == 0.0
    assert structured_norm(op("identity", 3), 9) == 1.0


def test_power_norm_matches_naive_matrix_power():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a = dense_operator(0.6 * m / np.linalg.norm(m, 2))
        for n in (1, 2, 7, 16):
            naive = np.linalg.norm(np.linalg.matrix_power(a.matrix, n), 2)
            assert power_norm(a, n) == pytest.approx(naive, rel=1e-10)


def test_power_norm_survives_extreme_scales():
    # contraction: ||A^n|| ~ 0.1^n underflows raw powering near n = 3200
    a = op("multiplication", 3, multipliers=[0.1, 0.05, 0.01])
    assert power_log_norm(a, 4000) == pytest.approx(4000 * math.log(0.1), rel=1e-12)
    # expansion: log norm is reported even where exp() would overflow
    b = op("multiplication", 2, multipliers=[10.0, 2.0])
    assert power_log_norm(b, 500) == pytest.approx(500 * math.log(10.0), rel=1e-12)
    with pytest.raises(OverflowError):
        power_norm(b, 500)
    assert power_norm(a, 0) == 1.0


def test_spectral_radius_eig_and_power_agree_for_normal_ops():
    a = op("multiplication", 4, multipliers=[0.9, -0.3, 0.5j, 0.2])
    r = spectral_radius(a)
    assert isinstance(r, float)
    assert r == pytest.approx(0.9, rel=1e-12)
    # a normal operator has ||A^n|| = rho^n exactly
    assert power_norm(a, 64) ** (1 / 64) == pytest.approx(r, rel=1e-12)


def test_spectral_radius_nilpotent():
    a = op("volterra", 16)
    assert spectral_radius(a) == 0.0
    assert power_norm(a, 16) == 0.0


# ---------------------------------------------------------------------------
# models and lifts


def test_companion_scalar_oracle():
    # z^2 - 0.5 z - 0.06 = (z - 0.6)(z + 0.1)
    a1 = dense_operator([[0.5]])
    a2 = dense_operator([[0.06]])
    model = arma_model([a1, a2], [dense_operator([[1.0]])])
    lift = companion_lift(model)
    np.testing.assert_allclose(lift.matrix, [[0.5, 0.06], [1.0, 0.0]])
    eigs = sorted(np.linalg.eigvals(lift.matrix).real)
    np.testing.assert_allclose(eigs, [-0.1, 0.6], atol=1e-12)


def _det_q_roots(ar_mats):
    """Roots of det(z^p I - z^(p-1) A_1 - ... - A_p) by interpolation.

    Evaluates the determinant on a circle of radius 2 (away from the
    roots used in these tests), solves for the monic polynomial's
    coefficients via FFT, and calls np.roots.  Independent of the
    companion construction under test.
    """
    p = len(ar_mats)
    d = ar_mats[0].shape[0]
    deg = p * d
    nodes = 2.0 * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vals = []
    for z in nodes:
        q = z**p * np.eye(d, dtype=complex)
        for i, a in enumerate(ar_mats):
            q -= z ** (p - 1 - i) * a
        vals.append(np.linalg.det(q))
    # V c = vals with V[j, k] = nodes[j]^k; nodes are scaled roots of unity
    # so the system is an inverse DFT after factoring out the radius
    coeffs = np.linalg.solve(
        np.vander(nodes, deg + 1, increasing=True), np.array(vals)
    )
    return np.roots(coeffs[::-1])


def test_companion_eigenvalues_match_det_q_roots():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(11)
    a1 = rng.normal(size=(2, 2)) * 0.4
    a2 = rng.normal(size=(2, 2)) * 0.2
    model = arma_model(
        [dense_operator(a1), dense_operator(a2)],
        [dense_operator(np.eye(2))],
    )
    lift = companion_lift(model)
    eigs = np.linalg.eigvals(lift.matrix)
    roots = _det_q_roots([a1.astype(complex), a2.astype(complex)])
    cost = np.abs(eigs[:, None] - roots[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-8


def test_companion_block_structure_p3():
    d = 2
    mats = [np.full((d, d), 0.1 * (i + 1)) for i in range(3)]
    model = arma_model(
        [dense_operator(m) for m in mats],
        [dense_operator(np.eye(d)), dense_operator(0.5 * np.eye(d))],
    )
    lift = companion_lift(model)
    big = lift.matrix
    assert big.shape == (6, 6)
    for i, m in enumerate(mats):
        np.testing.assert_allclose(big[:d, i * d : (i + 1) * d], m)
    np.testing.assert_allclose(big[d : 2 * d, :d], np.eye(d))
    np.testing.assert_allclose(big[2 * d :, d : 2 * d], np.eye(d))
    assert np.abs(big[d:, 2 * d :]).max() == 0.0


def test_companion_p1_is_identity_lift():
    a = op("multiplication", 3, multipliers=[0.5, 0.25, 0.125])
    model = arma_model([a], [dense_operator(np.eye(3))])
    assert companion_lift(model) is a


def test_model_validation():
    a = op("identity", 3)
    b = op("identity", 2)
    with pytest.raises(DimensionMismatchError):
        arma_model([a], [b])
    with pytest.raises(SpecificationError):
        arma_model([], [a])


def test_ma_moment_operator_scalar_oracle():
    # A = 2, B = (1, 3, 5): 4*1 + 2*3 + 1*5 = 15
    model = arma_model(
        [dense_operator([[2.0]])],
        [dense_operator([[1.0]]), dense_operator([[3.0]]), dense_operator([[5.0]])],
    )
    np.testing.assert_allclose(ma_moment_operator(model), [[15.0]])


def test_ma_moment_operator_requires_first_order():
    a = op("identity", 2)
    model = arma_model([a, a], [a])
    with pytest.raises(SpecificationError):
        ma_moment_operator(model)


# ---------------------------------------------------------------------------
# properties


@given(
    arrays(
        np.float64,
        (6,),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
)
@settings(max_examples=50, deadline=None)
def test_apply_batch_matches_dense_matmul(x):
    ops = [
        op("weighted_shift", 6, weights=[1.0, 2.0, 0.5, 3.0, 0.25]),
        op("multiplication", 6, multipliers=[1, -1, 2, -2, 0.5, 0]),
        op("circular_shift", 6),
        op("scaled_unilateral_shift", 6, scale=-1.5),
        op("volterra", 6),
        op("zero", 6),
        op("identity", 6),
    ]
    block = np.stack([x, 2 * x, x**2], axis=1).astype(complex)
    for a in ops:
        np.testing.assert_allclose(
            apply_batch(a, block), a.matrix @ block, rtol=1e-12, atol=1e-12
        )


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
@settings(max_examples=40, deadline=None)
def test_power_norm_submultiplicative(m, n):
    a = dense_operator(
        [[0.4, 0.3, 0.0], [0.0, -0.2, 0.5], [0.1, 0.0, 0.3]]
    )
    lhs = power_norm(a, m + n)
    rhs = power_norm(a, m) * power_norm(a, n)
    assert lhs <= rhs * (1 + 1e-10)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_structured_matches_dense_inf_norm_for_volterra(n):
    v = op("volterra", 24)
    naive = np.linalg.norm(np.linalg.matrix_power(v.matrix, n), np.inf)
    assert structured_norm(v, n) == pytest.approx(naive, rel=1e-11, abs=1e-300)
