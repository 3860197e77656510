"""Transfer-function coefficients: oracles, circle checks, envelopes."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oparma import (
    QuadratureError,
    SingularOperatorError,
    SpecificationError,
    arma_model,
    dense_operator,
)
from oparma import laurent
from oparma.cli import main
from oparma.jsonio import dump_model
from oparma.laurent import (
    CIRCLE_TOL,
    laurent_coeffs,
    unit_circle_check,
)
from oparma.operators import companion_lift


def scalar_model(ar, ma):
    return arma_model(
        [dense_operator([[a]]) for a in ar],
        [dense_operator([[b]]) for b in ma],
    )


def test_causal_ar1_coefficients_are_geometric():
    lc = laurent_coeffs(scalar_model([0.5], [1.0]))
    assert lc.k_min == 0
    for k in range(0, 10):
        assert lc.coefficient(k)[0, 0] == pytest.approx(0.5**k, rel=1e-10)
    # nothing on the anticausal side
    assert lc.reconstruction_residual <= 1e-6


def test_anticausal_ar1_coefficients():
    # 1/(1 - 2z) = -sum_{k>=1} 2^{-k} z^{-k} on an annulus around |z|=1
    lc = laurent_coeffs(scalar_model([2.0], [1.0]))
    assert lc.k_max == 0
    assert abs(lc.coefficient(0)[0, 0]) < 1e-12
    for k in range(1, 10):
        assert lc.coefficient(-k)[0, 0] == pytest.approx(-(2.0**-k), rel=1e-10)


def test_arma11_oracle():
    # (1 + 0.3 z)/(1 - 0.5 z): psi_0 = 1, psi_k = 0.8 * 0.5^(k-1)
    lc = laurent_coeffs(scalar_model([0.5], [1.0, 0.3]))
    assert lc.coefficient(0)[0, 0] == pytest.approx(1.0, rel=1e-12)
    for k in range(1, 8):
        assert lc.coefficient(k)[0, 0] == pytest.approx(0.8 * 0.5 ** (k - 1), rel=1e-10)


def test_ar2_partial_fraction_oracle():
    # 1/(1 - 0.5 z - 0.06 z^2): psi_k = (0.6^(k+1) - (-0.1)^(k+1)) / 0.7
    lc = laurent_coeffs(scalar_model([0.5, 0.06], [1.0]))
    for k in range(0, 12):
        expect = (0.6 ** (k + 1) - (-0.1) ** (k + 1)) / 0.7
        assert lc.coefficient(k)[0, 0] == pytest.approx(expect, rel=1e-9)


def test_two_sided_mixed_spectrum():
    model = arma_model(
        [dense_operator(np.diag([0.5, 2.0]))],
        [dense_operator(np.eye(2))],
    )
    lc = laurent_coeffs(model)
    assert lc.k_min < 0 < lc.k_max
    for k in range(1, 6):
        np.testing.assert_allclose(
            lc.coefficient(k), np.diag([0.5**k, 0.0]), atol=1e-11
        )
        np.testing.assert_allclose(
            lc.coefficient(-k), np.diag([0.0, -(2.0**-k)]), atol=1e-11
        )


def test_matrix_causal_convolution_oracle():
    # p = 1, q = 2: psi_k = sum_{j<=min(k,q)} A^(k-j) B_j
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 2))
    a *= 0.6 / np.abs(np.linalg.eigvals(a)).max()
    bs = [rng.normal(size=(2, 2)) for _ in range(3)]
    model = arma_model([dense_operator(a)], [dense_operator(b) for b in bs])
    lc = laurent_coeffs(model)
    for k in range(0, 11):
        expect = sum(
            np.linalg.matrix_power(a, k - j) @ bs[j] for j in range(min(k, 2) + 1)
        )
        np.testing.assert_allclose(lc.coefficient(k), expect, atol=1e-9)


def test_circle_check_pass_and_fail():
    good = unit_circle_check(scalar_model([0.5], [1.0]))
    assert good.passed
    assert good.min_singular_value == pytest.approx(0.5, rel=1e-6)
    assert good.leading_ar_invertible

    bad = unit_circle_check(scalar_model([1.0], [1.0]))
    assert not bad.passed
    assert bad.min_singular_value < 1e-6
    with pytest.raises(SingularOperatorError):
        laurent_coeffs(scalar_model([1.0], [1.0]))


def _unit_roots_between_nodes():
    """Models with a unit root off the 512-node grid (its min sigma there is 5e-3, 6e-4)."""
    rotation = arma_model(
        [dense_operator(np.diag([np.exp(0.3j), 0.5]))], [dense_operator(np.eye(2))]
    )
    real_ar2 = arma_model(
        [dense_operator(np.diag([2 * np.cos(0.7), 0.2])), dense_operator(np.diag([-1.0, 0.0]))],
        [dense_operator(np.eye(2))],
    )
    return [rotation, real_ar2]


@pytest.mark.parametrize("model", _unit_roots_between_nodes(), ids=["rotation", "real_ar2"])
def test_circle_check_probes_eigenvalue_angles(model):
    cc = unit_circle_check(model)
    assert not cc.passed
    assert cc.min_singular_value < 1e-12
    # the probe's value is at rounding level, so no level set runs
    assert cc.n_eigensolves == 0
    with pytest.raises(SingularOperatorError, match="nearly singular on the circle"):
        laurent_coeffs(model)


def test_rounding_level_is_read_entry_by_entry():
    # one entry of 1e300 puts eps ||D|| far above sigma_min = 1, yet it
    # rounds only its own entry, which sigma_min does not read
    big = arma_model([dense_operator(np.diag([1e300, 2.0]))], [dense_operator(np.eye(2))])
    coeffs = laurent._denominator_coeffs(big)
    assert laurent._sigma_min(coeffs, np.ones(1))[0] == 1.0
    assert not laurent._at_rounding_level(coeffs, 1 + 0j, 1.0)
    # the probe of a unit root reads 2e-16, not 0
    rotation = _unit_roots_between_nodes()[0]
    cc = unit_circle_check(rotation)
    assert 0 < cc.min_singular_value < 1e-15
    coeffs = laurent._denominator_coeffs(rotation)
    assert laurent._at_rounding_level(coeffs, cc.worst_z, cc.min_singular_value)


def test_uncertified_cauchy_circle_bounds_nothing():
    # the root 2 e^{-0.3i} sits on the circle |z| = 2, where the probe reads
    # sigma_min at rounding level: no level set certifies it, so M is inf
    model = scalar_model([0.5 * np.exp(0.3j)], [1.0])
    eigs = np.linalg.eigvals(model.ar_ops[0].matrix)
    coeffs = laurent._denominator_coeffs(model, 2.0)
    assert laurent._circle_min(coeffs, laurent._probe(eigs, 2.0))[2] == 0
    assert laurent._cauchy_bound(model, 2.0, eigs) == math.inf


def test_circle_check_reports_leading_ar_singularity():
    model = arma_model(
        [dense_operator(np.diag([0.5, 2.0])), dense_operator(np.zeros((2, 2)))],
        [dense_operator(np.eye(2))],
    )
    cc = unit_circle_check(model)
    assert not cc.leading_ar_invertible
    assert cc.leading_ar_condition == np.inf


def _full_scan(model):
    """The old scan's minimum: an SVD at 512 equispaced nodes and at each
    eigenvalue probe."""
    eigs = np.linalg.eigvals(companion_lift(model).matrix)
    eigs = eigs[eigs != 0]
    grid = np.exp(2j * np.pi * np.arange(512) / 512)
    nodes = np.concatenate([grid, eigs.conj() / np.abs(eigs)])
    return float(laurent._sigma_min(laurent._denominator_coeffs(model), nodes).min())


def _refined_sweep(model, n=1024, n_minima=8, steps=48):
    """Minimum of an n-node sweep, refined by golden section around its
    ``n_minima`` lowest local minima, all brackets at once."""
    theta = 2 * np.pi * np.arange(n) / n
    coeffs = laurent._denominator_coeffs(model)
    values = laurent._sigma_min(coeffs, np.exp(1j * theta))
    local = np.flatnonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1)))
    local = local[np.argsort(values[local])[:n_minima]]
    lo, hi = theta[local] - 2 * np.pi / n, theta[local] + 2 * np.pi / n
    g = (np.sqrt(5) - 1) / 2
    best = values.min()
    for _ in range(steps):
        left, right = hi - g * (hi - lo), lo + g * (hi - lo)
        pair = laurent._sigma_min(coeffs, np.exp(1j * np.concatenate([left, right])))
        f_left, f_right = np.split(pair, 2)
        best = min(best, pair.min())
        keep_left = f_left < f_right
        hi, lo = np.where(keep_left, right, hi), np.where(keep_left, lo, left)
    return float(best)


def _factored_model(rng, d, p, real, scale, root_angle=None):
    """AR part of (I - z C_1) ... (I - z C_p); with ``root_angle``, C_1 has the
    eigenvalue e^{-i angle} (and its conjugate for a real model), so the
    denominator is singular at e^{i angle}."""
    def draw():
        m = rng.normal(size=(d, d))
        return m if real else m + 1j * rng.normal(size=(d, d))

    factors = [scale / np.sqrt(d) * draw() for _ in range(p)]
    if root_angle is not None:
        if real and d == 1:
            lam = np.ones((1, 1))
        elif real:
            c, s = np.cos(root_angle), np.sin(root_angle)
            lam = np.diag(rng.uniform(0.2, 0.5, size=d))
            lam[:2, :2] = [[c, s], [-s, c]]
        else:
            lam = np.diag(np.concatenate([[np.exp(-1j * root_angle)], rng.uniform(0.2, 0.5, d - 1)]))
        basis = np.eye(d) + 0.3 * draw()
        factors[0] = basis @ lam @ np.linalg.inv(basis)
    # D(z) = sum_k poly[k] z^k, one factor at a time on the right
    poly = [np.eye(d)]
    for c in factors:
        poly = [
            (poly[k] if k < len(poly) else 0) - (poly[k - 1] @ c if k else 0)
            for k in range(len(poly) + 1)
        ]
    return arma_model([dense_operator(-a) for a in poly[1:]], [dense_operator(np.eye(d))])


@given(
    st.integers(1, 6),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(["none", "root_on_node", "root_between_nodes", "zero", "tiny"]),
    st.sampled_from([0.3, 1.0, 3.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_circle_check_attains_the_whole_circle_minimum(d, p, real, kind, scale, seed):
    # the roots sit on a node of the old 512-node scan or between two
    rng = np.random.default_rng(seed)
    if kind == "zero":
        model = arma_model([dense_operator(np.zeros((d, d)))] * p, [dense_operator(np.eye(d))])
    elif kind == "tiny":
        model = _factored_model(rng, d, p, real, 1e-18)
    elif kind == "none":
        model = _factored_model(rng, d, p, real, scale)
    else:
        offset = 0.0 if kind == "root_on_node" else 0.37
        angle = 2 * np.pi * (int(rng.integers(512)) + offset) / 512
        model = _factored_model(rng, d, p, real, scale, angle)
    cc = unit_circle_check(model)
    # sigma_min's rounding, for minima that are zero in exact arithmetic
    norms = [np.linalg.norm(a.matrix, 2) for a in model.ar_ops]
    slack = 64 * (p + 1) * d * np.finfo(float).eps * (1 + sum(norms))
    assert cc.min_singular_value <= _full_scan(model) * (1 + 1e-10) + slack
    assert cc.min_singular_value <= _refined_sweep(model) * (1 + 1e-10) + slack
    assert abs(cc.worst_z) == pytest.approx(1.0, abs=1e-15)
    at_worst = laurent._sigma_min(laurent._denominator_coeffs(model), np.array([cc.worst_z]))[0]
    assert at_worst == pytest.approx(cc.min_singular_value, rel=1e-12, abs=slack)
    assert cc.passed == (cc.min_singular_value > CIRCLE_TOL)
    assert 0 <= cc.n_eigensolves <= laurent.MAX_LEVELS


def _planted_model():
    """A 2x2 AR(1) whose min sigma, 9.91e-7 at angle phi, is below CIRCLE_TOL
    while every node of the old 512-node scan and both eigenvalue probes
    (at phi -+ 5e-4) stay above it (the scan reported 1.12e-6)."""
    phi = 100.5 * 2 * np.pi / 512
    lam, mu = (np.exp(-1j * (phi + s)) / 1.001 for s in (-5e-4, 5e-4))
    a = np.array([[lam, 1.2589254117941675], [0, mu]])
    return arma_model([dense_operator(a)], [dense_operator(np.eye(2))])


def _planted_model_with_decoy():
    """The planted 2x2 block beside a normal eigenvalue nearer the circle in
    modulus, e^{-2i} / 1.0005: the probe goes to its dip at angle 2, 5.0e-4
    deep, and the first level reveals the planted one."""
    a = np.zeros((3, 3), complex)
    a[:2, :2] = _planted_model().ar_ops[0].matrix
    a[2, 2] = np.exp(-2j) / 1.0005
    return arma_model([dense_operator(a)], [dense_operator(np.eye(3))])


def _assert_fails_the_planted_dip(model):
    assert _full_scan(model) > CIRCLE_TOL
    cc = unit_circle_check(model)
    assert not cc.passed
    assert cc.min_singular_value == pytest.approx(9.911e-7, rel=1e-4)
    assert np.angle(cc.worst_z) == pytest.approx(100.5 * 2 * np.pi / 512, abs=1e-6)
    with pytest.raises(SingularOperatorError, match="nearly singular on the circle"):
        laurent_coeffs(model)


def test_circle_check_fails_a_dip_between_nodes_and_probes():
    _assert_fails_the_planted_dip(_planted_model())


def test_circle_check_fails_a_dip_behind_a_decoy():
    # the polished start is the decoy's shallower dip, and only the
    # eigensolve finds the planted one
    _assert_fails_the_planted_dip(_planted_model_with_decoy())


def test_circle_check_gives_up_after_max_levels(monkeypatch):
    # the decoy's dip is polished and certified by one level, which finds the
    # planted dip below it; with one level allowed the check raises
    model = _planted_model_with_decoy()
    cc = unit_circle_check(model)
    assert cc.n_eigensolves == 2
    assert cc.min_singular_value == pytest.approx(9.911e-7, rel=1e-4)
    monkeypatch.setattr(laurent, "MAX_LEVELS", 1)
    with pytest.raises(QuadratureError, match="within 1 eigensolves"):
        unit_circle_check(model)


@pytest.mark.parametrize("seed", range(6))
def test_polish_never_rises(seed):
    rng = np.random.default_rng(seed)
    model = _factored_model(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), seed % 2 == 0, 1.0)
    coeffs = laurent._denominator_coeffs(model)
    # random starts, and last the best of 512 nodes off the real axis (where
    # a real model's minimum may sit), from which the polish moves
    scan = np.exp(2j * np.pi * (np.arange(512) + 1 / 3) / 512)
    best = scan[np.argmin(laurent._sigma_min(coeffs, scan))]
    for w in [*np.exp(1j * rng.uniform(-np.pi, np.pi, size=8)), best]:
        start = float(laurent._sigma_min(coeffs, np.array([w]))[0])
        gamma, worst = laurent._polish(coeffs, complex(w), start, np.pi / 8)
        assert gamma <= start
        assert abs(np.angle(worst / w)) <= np.pi / 8
        assert gamma == laurent._sigma_min(coeffs, np.array([worst]))[0]
    assert gamma < start


def test_polish_stays_on_an_exact_zero():
    # the probe hits the unit root z = 1 of 1 - z exactly
    coeffs = laurent._denominator_coeffs(scalar_model([1.0], [1.0]))
    assert laurent._sigma_min(coeffs, np.ones(1))[0] == 0.0
    assert laurent._polish(coeffs, 1 + 0j, 0.0, np.pi / 8) == (0.0, 1 + 0j)
    cc = unit_circle_check(scalar_model([1.0], [1.0]))
    assert (cc.min_singular_value, cc.worst_z, cc.n_eigensolves) == (0.0, 1 + 0j, 0)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_polish_reaches_the_minimum(p):
    # from the best of 512 nodes, within one node spacing either side, the
    # polish ends at the arc's minimum as a 2^14-node scan of the arc reads it
    rng = np.random.default_rng(100 + p)
    half_arc = 2 * np.pi / 512
    for d, real in [(1, True), (3, False), (4, True), (6, False)]:
        coeffs = laurent._denominator_coeffs(_factored_model(rng, d, p, real, 1.0))
        scan = np.exp(2j * np.pi * (np.arange(512) + 1 / 3) / 512)
        values = laurent._sigma_min(coeffs, scan)
        j = int(np.argmin(values))
        gamma, _ = laurent._polish(coeffs, complex(scan[j]), float(values[j]), half_arc)
        arc = np.angle(scan[j]) + np.linspace(-half_arc, half_arc, 2**14)
        assert gamma <= laurent._sigma_min(coeffs, np.exp(1j * arc)).min() * (1 + 1e-12)


def _planted_ar1(seed, d):
    """AR(1) with half its spectrum at moduli in [0.4, 0.85] and half in
    [1.25, 2.2], at random angles, in a well-conditioned random basis."""
    rng = np.random.default_rng(seed)
    moduli = np.concatenate([rng.uniform(0.4, 0.85, d // 2), rng.uniform(1.25, 2.2, d - d // 2)])
    eigs = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    noise = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    basis = np.eye(d) + 0.3 * noise / np.sqrt(d)
    a = basis @ np.diag(eigs) @ np.linalg.inv(basis)
    return arma_model([dense_operator(a)], [dense_operator(np.eye(d))])


def test_each_circle_takes_one_eigensolve(monkeypatch):
    # the polish leaves the eigensolve only its certifying job, on the unit
    # circle and on both circles of the Cauchy bound
    model = _planted_ar1(1, 16)
    assert unit_circle_check(model).n_eigensolves == 1
    counts = []
    circle_min = laurent._circle_min

    def counting(coeffs, probes):
        result = circle_min(coeffs, probes)
        counts.append(result[2])
        return result

    monkeypatch.setattr(laurent, "_circle_min", counting)
    laurent_coeffs(model)
    assert counts == [1, 1, 1]


def test_decay_envelope_majorizes_and_tracks_rate():
    lc = laurent_coeffs(scalar_model([0.5], [1.0]))
    ks = lc.ks
    env = lc.decay_a * lc.decay_b ** np.abs(ks)
    assert np.all(lc.norms <= env * (1 + 1e-9))
    assert lc.decay_b == pytest.approx(0.5, abs=0.05)
    assert lc.decay_b < 1.0


def test_pure_ma_degenerate_range():
    model = arma_model(
        [dense_operator(np.zeros((2, 2)))],
        [dense_operator(np.eye(2)), dense_operator(0.5 * np.eye(2))],
    )
    lc = laurent_coeffs(model)
    assert (lc.k_min, lc.k_max) == (0, 1)
    np.testing.assert_allclose(lc.coefficient(0), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(lc.coefficient(1), 0.5 * np.eye(2), atol=1e-12)
    env = lc.decay_a * lc.decay_b ** np.abs(lc.ks)
    assert np.all(lc.norms <= env * (1 + 1e-9))


def test_stored_range_and_evaluate():
    lc = laurent_coeffs(scalar_model([0.5], [1.0]))
    # psi_k = 0.5^k for k >= 0 down to the floor, 1e-12 times psi_0
    assert (lc.k_min, lc.k_max) == (0, 39)
    for k in range(lc.k_max + 1):
        assert abs(lc.coefficient(k)[0, 0] - 0.5**k) <= 1e-12
    for k in (-1, lc.k_max + 1):
        with pytest.raises(SpecificationError, match="outside stored range"):
            lc.coefficient(k)


def test_slow_decay_grows_the_grid():
    lc = laurent_coeffs(scalar_model([0.97], [1.0]))
    assert lc.n_quad >= 2048
    assert lc.k_max >= 850
    assert lc.coefficient(500)[0, 0] == pytest.approx(0.97**500, rel=1e-8)


def test_range_is_trimmed_to_the_spectral_norm_floor():
    # ||psi_k||_F = sqrt(8) ||psi_k||_2 here, so the Frobenius search range
    # reaches a few lags further than the 2-norm floor on both sides
    model = arma_model(
        [dense_operator(np.diag([0.6] * 8 + [2.0] * 8))],
        [dense_operator(np.eye(16))],
    )
    lc = laurent_coeffs(model)
    assert lc.k_max == max(k for k in range(200) if 0.6**k > 1e-12)
    assert lc.k_min == -max(k for k in range(200) if 2.0**-k > 1e-12)
    causal, anticausal = np.diag([1.0] * 8 + [0.0] * 8), np.diag([0.0] * 8 + [1.0] * 8)
    for k in lc.ks:
        expect = 0.6**k * causal if k >= 0 else -(2.0**k) * anticausal
        np.testing.assert_allclose(lc.coefficient(k), expect, rtol=0, atol=1e-12)
    assert lc.diagnostics["max_norm"] == pytest.approx(1.0, rel=1e-12)


def test_range_search_takes_fewer_svds_than_nodes(monkeypatch):
    # the range is read by Frobenius norm; singular values are taken only
    # for the B_j, the few coefficients that can hold the largest 2-norm,
    # the trim's steps and the reconstruction test points
    rng = np.random.default_rng(3)
    d = 16
    moduli = np.concatenate([rng.uniform(0.4, 0.85, d // 2), rng.uniform(1.25, 2.2, d // 2)])
    basis = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    eigs = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    a = basis @ np.diag(eigs) @ np.linalg.inv(basis)
    model = arma_model([dense_operator(a)], [dense_operator(np.eye(d))])
    seen = []
    spectral_norms = laurent._spectral_norms

    def counting(stack):
        seen.append(stack.shape[0])
        return spectral_norms(stack)

    monkeypatch.setattr(laurent, "_spectral_norms", counting)
    lc = laurent_coeffs(model)
    assert lc.reconstruction_residual <= 1e-6
    assert sum(seen) < lc.n_quad


def test_reconstruction_residual_certifies_expansion():
    rng = np.random.default_rng(9)
    s = rng.normal(size=(3, 3))
    lam = np.diag([0.4, 0.8, 1.7])
    a = s @ lam @ np.linalg.inv(s)
    model = arma_model(
        [dense_operator(a)],
        [dense_operator(np.eye(3)), dense_operator(rng.normal(size=(3, 3)) * 0.3)],
    )
    lc = laurent_coeffs(model)
    assert lc.reconstruction_residual <= 1e-6
    assert lc.k_min < 0 < lc.k_max


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=20, deadline=None)
def test_random_stable_models_reconstruct(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    a *= rng.uniform(0.2, 0.8) / np.abs(np.linalg.eigvals(a)).max()
    b0 = rng.normal(size=(3, 3))
    model = arma_model([dense_operator(a)], [dense_operator(b0)])
    lc = laurent_coeffs(model)
    assert lc.reconstruction_residual <= 1e-6
    env = lc.decay_a * lc.decay_b ** np.abs(lc.ks)
    assert np.all(lc.norms <= env * (1 + 1e-9))
    np.testing.assert_allclose(lc.coefficient(0), b0, atol=1e-9)


def _planted(rng, d):
    """d x d matrix with half its eigenvalues in |z| < 0.85, half in |z| > 1.25."""
    moduli = np.concatenate(
        [rng.uniform(0.4, 0.85, size=d // 2), rng.uniform(1.25, 2.2, size=d - d // 2)]
    )
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=d))
    basis = np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return basis @ np.diag(lam) @ np.linalg.inv(basis)


def _planted_models():
    rng = np.random.default_rng(20)
    d = 6
    ma = [dense_operator(np.eye(d)), dense_operator(0.3 * rng.normal(size=(d, d)))]
    c1, c2 = _planted(rng, d), _planted(rng, d)
    return {
        "ar1": arma_model([dense_operator(_planted(rng, d))], ma),
        # (I - z C1)(I - z C2): the companion spectrum is eig(C1) | eig(C2)
        "ar2": arma_model([dense_operator(c1 + c2), dense_operator(-c1 @ c2)], ma),
        # complex B_1, B_2: H solved one node at a time rounds differently here
        "ar1_q2": arma_model(
            [dense_operator(c1)],
            [dense_operator(np.eye(d))]
            + [dense_operator(0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))] * 2,
        ),
    }


def _trim_models():
    """Models whose Frobenius range is wider than their 2-norm range, each
    with (Frobenius range, 2-norm range): the trim walks in from the ends."""
    q = np.linalg.qr(np.random.default_rng(21).normal(size=(8, 8)))[0]
    eye, a = np.eye(8), 2e12

    def model(ar, *ma):
        return arma_model([dense_operator(ar)], [dense_operator(b) for b in ma])

    return {
        # ||psi_k||_F = 2 ||psi_k||_2 on both sides
        "wide_frobenius": (
            model(q @ np.diag([0.6] * 4 + [2.0] * 4) @ q.T, eye),
            ((-40, 55), (-39, 54)),
        ),
        # psi_1 = 6e-13 I and psi_-1 = I / a sit between the floor and sqrt(8)
        # times it, so each walk goes all the way to k = 0
        "causal_floor": (model(0 * eye, eye, 6e-13 * eye), ((0, 1), (0, 0))),
        "anticausal_floor": (model(a * eye, 0 * eye, -a * eye), ((-1, 0), (0, 0))),
    }


def _one_fft(model, n):
    """The n-node grid from one FFT of H solved at every node at once."""
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.fft(laurent._batched_transfer(model, nodes), axis=0) / n


_CERTIFIED = [
    "ar1",
    "ar2",
    "ar1_q2",
    "slow_decay",
    "wide_frobenius",
    "causal_floor",
    "anticausal_floor",
]


def _certified_models():
    models = dict(_planted_models(), slow_decay=scalar_model([0.97], [1.0]))
    models.update({key: model for key, (model, _) in _trim_models().items()})
    return models


@pytest.mark.parametrize("name", _CERTIFIED)
def test_stored_norms_sit_under_the_certified_envelope(name):
    lc = laurent_coeffs(_certified_models()[name])
    alias = lc.diagnostics["aliasing_bound"]
    # the grid is sized so that its aliasing stays below the floor
    assert alias <= laurent.REL_FLOOR * lc.diagnostics["max_norm"]
    assert 0 < lc.decay_b < 1
    assert np.all(lc.norms <= lc.decay_a * lc.decay_b ** np.abs(lc.ks) + alias)


@pytest.mark.parametrize("name", _CERTIFIED)
def test_block_is_one_fft_of_the_grid(name):
    # slow_decay takes 4 096 nodes, so the grid is solved in several blocks
    model = _certified_models()[name]
    lc = laurent_coeffs(model)
    n = lc.n_quad
    full = _one_fft(model, n)
    assert lc.coeffs.tobytes() == full[lc.ks % n].tobytes()
    assert lc.diagnostics["max_norm"] == laurent._spectral_norms(full).max()
    trims = _trim_models()
    if name in trims:
        ks = np.arange(-(n // 2), n // 2)
        fro = laurent._frobenius_norms(full[ks % n])
        fro_range = laurent._span(ks, fro > laurent.REL_FLOOR * lc.diagnostics["max_norm"])
        assert (fro_range, (lc.k_min, lc.k_max)) == trims[name][1]


def test_a_bound_past_the_node_cap_raises():
    # rho = (1 / 0.995)^0.9 = 1.00452 and M ~ 2e3: the bound asks for over 1e4 nodes
    with pytest.raises(QuadratureError, match=r"MAX_N_QUAD = 8192 .*M = 1\.9\d+e\+03 .*rho = 1\.00452"):
        laurent_coeffs(scalar_model([0.995], [1.0]))


def _slow_ar1_d32():
    """A dense d = 32 AR(1) whose Laurent grid ends at 1 024 nodes."""
    rng = np.random.default_rng(32)
    d = 32
    moduli = np.concatenate([rng.uniform(0.4, 0.85, d // 2), rng.uniform(1.25, 2.2, d // 2)])
    # the slowest decay on both sides sets the range and the node count
    moduli[0], moduli[-1] = 0.85, 1.25
    basis = np.eye(d) + 0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = basis @ np.diag(moduli * np.exp(2j * np.pi * rng.uniform(size=d))) @ np.linalg.inv(basis)
    return arma_model([dense_operator(a)], [dense_operator(np.eye(d))])


def test_quadrature_holds_one_grid():
    # the FFT overwrites the solved values a block of columns at a time, so
    # the peak is the grid, the stored block and the solve blocks; a second
    # grid beside the first would pass two grids
    model = _slow_ar1_d32()
    d = model.dim
    tracemalloc.start()
    try:
        lc = laurent_coeffs(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lc.n_quad == 512
    grid = lc.n_quad * d * d * 16
    assert peak <= 1.5 * grid + lc.coeffs.nbytes


def test_trim_takes_one_svd_per_step_not_one_per_coefficient(monkeypatch):
    # singular values go to the B_j of the Cauchy bound, the top-norm
    # candidates, the coefficients the trim steps over at each end, and the
    # 2 x 64 matrices of the reconstruction check; the stored block's norms
    # are not taken
    model = _slow_ar1_d32()
    n = laurent_coeffs(model).n_quad
    full = _one_fft(model, n)
    fro = laurent._frobenius_norms(full)
    candidates = np.count_nonzero(fro >= fro.max() / np.sqrt(model.dim))
    seen = []
    spectral_norms = laurent._spectral_norms

    def counting(stack):
        seen.append(stack.shape[0])
        return spectral_norms(stack)

    monkeypatch.setattr(laurent, "_spectral_norms", counting)
    lc = laurent_coeffs(model)
    ks = np.arange(-(n // 2), n // 2)
    fro_min, fro_max = laurent._span(ks, fro[ks % n] > laurent.REL_FLOOR * lc.diagnostics["max_norm"])
    ends = (lc.k_min - fro_min + 1) + (fro_max - lc.k_max + 1)
    assert sum(seen) <= len(model.ma_ops) + candidates + ends + 128
    assert lc.k_max - lc.k_min + 1 > 250


def test_reconstruction_points_see_aliasing():
    # every coefficient the 128-grid holds, wrapped: psi_k for k in [-64, 63]
    # carries the aliases psi_{k + 128 m}, which 0.97^128 ~ 0.02 leaves large
    from oparma.engine.simulate import RECONSTRUCTION_MAX

    model = arma_model(
        [dense_operator(np.diag([0.97, 1 / 0.97, 0.5 + 0.3j]))], [dense_operator(np.eye(3))]
    )
    n = 128
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    psi = np.fft.fft(laurent._batched_transfer(model, nodes), axis=0) / n
    ks = np.arange(-n // 2, n // 2)
    aliased = psi[ks % n]
    exact = np.zeros_like(aliased)
    exact[ks >= 0, 0, 0] = 0.97 ** ks[ks >= 0]
    exact[ks < 0, 1, 1] = -(0.97 ** -ks[ks < 0])
    exact[ks >= 0, 2, 2] = (0.5 + 0.3j) ** ks[ks >= 0]
    assert np.abs(aliased - exact).max() > 0.1
    # on a grid node the truncated DFT inverts exactly, so aliasing is invisible there
    on_grid = np.exp(1j * np.pi * (2 * np.arange(64) + 1) / 64)
    series = np.tensordot(on_grid[:, None] ** ks, aliased, axes=(1, 0))
    assert np.abs(series - laurent._batched_transfer(model, on_grid)).max() < 1e-12
    href = laurent._batched_transfer(model, laurent.TEST_POINTS)
    hmax = laurent._spectral_norms(href).max()
    residual = laurent._reconstruction_residual(aliased, ks, href, hmax)
    assert residual > RECONSTRUCTION_MAX
    assert laurent_coeffs(model).reconstruction_residual <= RECONSTRUCTION_MAX


#: binary exponents m of the MA operators 2^m B_k, out to both ends of the
#: float range (those of test_simulate.TestScaleFreeDepth)
_MA_SCALES = (-1000, -900, -565, -40, -20, 20, 40, 565, 900)


def _scaled_ma(model, m):
    """``model`` with its MA operators times 2^m, exactly."""
    return arma_model(model.ar_ops, [dense_operator(b.matrix * 2.0**m) for b in model.ma_ops])


class TestScaleFreeLaurent:
    """The Laurent range is read in units of the MA operators' scale."""

    @pytest.mark.parametrize("name", ["ar1", "ar2", "ar1_q2"])
    def test_range_is_the_same_for_scaled_ma_operators(self, name):
        model = _planted_models()[name]
        base = laurent_coeffs(model)

        def read(lc):
            return (lc.k_min, lc.k_max), lc.n_quad, lc.reconstruction_residual

        for m in _MA_SCALES:
            lc = laurent_coeffs(_scaled_ma(model, m))
            assert read(lc) == read(base)
            assert lc.decay_a == base.decay_a * 2.0**m

    def test_tiny_ma_operators_simulate_and_verify(self, tmp_path, capsys):
        # at 2^-600 the squared norms of the coefficients underflow
        model = tmp_path / "m.json"
        model.write_text(json.dumps(dump_model(_scaled_ma(_planted_models()["ar2"], -600))))
        noise = tmp_path / "n.json"
        noise.write_text(json.dumps({"kind": "gaussian", "dim": 6, "seed": 3}))
        argv = ["simulate", "--model", str(model), "--noise", str(noise), "--method", "ma"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-8
        assert main(["verify", "--model", str(model)]) == 0


def test_zero_ma_side_stores_one_zero_coefficient():
    model = arma_model([dense_operator(np.diag([0.5, 2.0]))], [dense_operator(np.zeros((2, 2)))])
    lc = laurent_coeffs(model)
    assert ((lc.k_min, lc.k_max), lc.n_quad, lc.reconstruction_residual) == ((0, 0), 2, 0.0)
    assert not lc.coefficient(0).any()


@pytest.mark.parametrize("b0, code", [(1e308, 1), (1e300, 0)])
def test_coefficients_past_the_float_range_exit_1(b0, code, tmp_path, capsys):
    # the Cauchy bound M is about 15 b0: past the float range at 1e308, not at
    # 1e300; a warning on the way fails the suite
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "ar": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": [0.5, 2.0]}}],
        "ma": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": [b0, b0]}}],
    }))
    assert main(["laurent", "--model", str(path)]) == code
    err = capsys.readouterr().err
    assert ("leaves the float range" in err) == (code == 1)
