"""Unit-circle splitting: ordered Schur split, Riesz quadrature, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oparma import (
    HyperbolicityError,
    OperatorSpec,
    QuadratureError,
    build_operator,
    dense_operator,
)
from oparma import spectral
from oparma.spectral import (
    check_split,
    hyperbolic_split,
    riesz_projector,
)


def op(kind, dim, **params):
    return build_operator(OperatorSpec(kind=kind, dim=dim, params=params))


def test_projector_triangular_oracle():
    # eigenvalues 0.5 (inside) and 2 (outside); the projector onto the
    # 0.5-eigenspace along the 2-eigenspace is [[1, -2/3], [0, 0]]
    a = dense_operator([[0.5, 1.0], [0.0, 2.0]])
    p, n_used, diff = riesz_projector(a)
    np.testing.assert_allclose(p, [[1.0, -2.0 / 3.0], [0.0, 0.0]], atol=1e-10)
    assert diff <= 1e-10 * (1 + np.linalg.norm(p, 2))


def test_projector_matches_eigenprojector():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(4, 4)) + 0.1 * np.eye(4)
    lam = np.array([0.3, 0.6 + 0.2j, 1.8, 2.5 - 1j])
    a = dense_operator(s @ np.diag(lam) @ np.linalg.inv(s))
    p, _, _ = riesz_projector(a)
    oracle = s @ np.diag([1.0, 1.0, 0.0, 0.0]) @ np.linalg.inv(s)
    np.testing.assert_allclose(p, oracle, atol=1e-8)


def test_split_fixture_blocks_and_rank():
    a = dense_operator([[0.5, 1.0], [0.0, 2.0]])
    sp = hyperbolic_split(a)
    assert sp.rank == 1
    assert sp.block_inner.shape == (1, 1)
    assert sp.block_outer.shape == (1, 1)
    np.testing.assert_allclose(np.linalg.eigvals(sp.block_inner), [0.5], atol=1e-9)
    np.testing.assert_allclose(np.linalg.eigvals(sp.block_outer), [2.0], atol=1e-9)
    assert sp.diagnostics["radius_inner"] == pytest.approx(0.5, abs=1e-9)
    assert sp.diagnostics["radius_outer_inv"] == pytest.approx(0.5, abs=1e-9)
    assert "inside" in sp.diagnostics["projector_convention"]
    assert all(check_split(sp, a).values())


def test_split_all_inside_and_all_outside():
    inside = op("multiplication", 3, multipliers=[0.2, 0.5, -0.4])
    sp = hyperbolic_split(inside)
    assert sp.rank == 3
    assert sp.basis_outer.shape == (3, 0)
    assert sp.block_outer.shape == (0, 0)
    np.testing.assert_allclose(sp.projector, np.eye(3), atol=1e-10)
    assert all(check_split(sp, inside).values())

    outside = op("multiplication", 2, multipliers=[2.0, -3.0])
    sp2 = hyperbolic_split(outside)
    assert sp2.rank == 0
    assert sp2.basis_inner.shape == (2, 0)
    np.testing.assert_allclose(sp2.projector, np.zeros((2, 2)), atol=1e-10)
    assert all(check_split(sp2, outside).values())


def test_hyperbolicity_guard():
    on_circle = op("multiplication", 2, multipliers=[1.0, 0.5])
    with pytest.raises(HyperbolicityError):
        riesz_projector(on_circle)
    near = op("multiplication", 2, multipliers=[1.0 + 1e-8, 0.5])
    with pytest.raises(HyperbolicityError, match=r"within 1\.000e-08"):
        hyperbolic_split(near)
    split = hyperbolic_split(op("multiplication", 1, multipliers=[0.5]))
    assert split.diagnostics["hyperbolicity_margin"] == pytest.approx(0.5)


def test_quadrature_cap_raises_for_glacial_convergence():
    # margin 1e-3 passes the pre-check, but 0.999^8192 ~ 3e-4 never
    # reaches the stagnation tolerance
    a = op("multiplication", 2, multipliers=[0.999, 2.0])
    with pytest.raises(QuadratureError):
        riesz_projector(a)


def test_quadrature_doubles_until_stagnant():
    a = op("multiplication", 2, multipliers=[0.95, 1.5])
    assert riesz_projector(a)[1] > 512
    sp = hyperbolic_split(a)
    assert sp.rank == 1
    np.testing.assert_allclose(sp.projector, np.diag([1.0, 0.0]), atol=1e-9)


def test_check_split_detects_tampering():
    a = dense_operator([[0.5, 1.0], [0.0, 2.0]])
    sp = hyperbolic_split(a)
    results = check_split(sp, a)
    assert all(results.values())
    import dataclasses

    bad = dataclasses.replace(sp, block_inner=sp.block_inner + 0.1)
    bad_results = check_split(bad, a)
    assert not bad_results["similarity"]

    # I - P is a projector commuting with A, so only the Riesz route sees it
    swapped = dataclasses.replace(sp, projector=np.eye(2) - sp.projector)
    swapped_results = check_split(swapped, a)
    assert swapped_results["idempotent"] and swapped_results["commutes"]
    assert not swapped_results["matches_riesz"]


def test_invariant_gates_hold_at_the_float_limit():
    # ||A||_F of diag(1e300, 2) overflows unscaled, which made every bound inf
    import dataclasses

    a = dense_operator(np.diag([1e300, 2.0]))
    sp = hyperbolic_split(a)
    assert all(check_split(sp, a).values())
    bad = dataclasses.replace(sp, block_outer=1.5 * sp.block_outer)
    assert not check_split(bad, a)["similarity"]
    residuals = spectral._invariant_residuals(bad, a.matrix)
    assert residuals["similarity"][0] == pytest.approx(0.5e300)


def test_split_raises_when_invariants_miss_tolerance(monkeypatch):
    # with a zero tolerance the rounding-level residuals count as failures
    monkeypatch.setattr(spectral, "CHECK_TOL", 0.0)
    a = dense_operator([[0.5, 1.0], [0.0, 2.0]])
    with pytest.raises(QuadratureError, match="split failed internal checks: .*residual"):
        hyperbolic_split(a)


def test_invariant_residuals_are_frobenius_norms():
    a = dense_operator(np.diag([0.5, 2.0, 0.9, 1.3]) + np.eye(4, k=1))
    sp = hyperbolic_split(a)
    m, p = a.matrix, sp.projector
    assert sp.diagnostics["idempotency_residual"] == float(np.linalg.norm(p @ p - p))
    assert sp.diagnostics["commutation_residual"] == float(np.linalg.norm(m @ p - p @ m))


def test_split_bases_are_orthonormal_and_conjugation_exact():
    rng = np.random.default_rng(17)
    s = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    lam = np.array([0.2, 0.7j, -0.5, 1.6, 3.0j])
    a = dense_operator(s @ np.diag(lam) @ np.linalg.inv(s))
    sp = hyperbolic_split(a)
    assert sp.rank == 3
    np.testing.assert_allclose(
        sp.basis_inner.conj().T @ sp.basis_inner, np.eye(3), atol=1e-12
    )
    np.testing.assert_allclose(
        sp.basis_outer.conj().T @ sp.basis_outer, np.eye(2), atol=1e-12
    )
    norm_a = np.linalg.norm(a.matrix, 2)
    assert sp.diagnostics["similarity_residual"] <= 1e-8 * norm_a
    assert sp.diagnostics["idempotency_residual"] <= 1e-8 * (
        1 + np.linalg.norm(sp.projector, 2)
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_in=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_split_recovers_planted_spectrum(seed, n_in):
    """Rank equals the planted inner count and blocks carry the right radii."""
    from scipy.optimize import linear_sum_assignment

    d = 4
    rng = np.random.default_rng(seed)
    mods_in = rng.uniform(0.1, 0.7, size=n_in)
    mods_out = rng.uniform(1.4, 3.0, size=d - n_in)
    phases = np.exp(2j * np.pi * rng.uniform(size=d))
    lam = np.concatenate([mods_in, mods_out]) * phases
    while True:
        s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if np.linalg.cond(s) < 50:
            break
    a = dense_operator(s @ np.diag(lam) @ np.linalg.inv(s))
    sp = hyperbolic_split(a)
    assert sp.rank == n_in
    got = np.concatenate(
        [np.linalg.eigvals(sp.block_inner), np.linalg.eigvals(sp.block_outer)]
    )
    cost = np.abs(got[:, None] - lam[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() < 1e-7
    assert all(check_split(sp, a).values())
