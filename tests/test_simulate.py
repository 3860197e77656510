import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from oparma.cli import main
from oparma.engine import simulate
from oparma.engine.noise import NOISE_KINDS, NoiseSpec, sample_path
from oparma.engine.simulate import (
    ProbeResult,
    build_split_kernel,
    partial_sum_quantiles,
    plim_probe,
    recursion_residual,
    simulate_ma,
    simulate_theorem1,
    stationarity_ks,
)
from oparma.errors import DimensionMismatchError, SpecificationError, WindowError
from oparma.jsonio import dump_model
from oparma.laurent import laurent_coeffs
from oparma.operators import (
    OperatorSpec,
    arma_model,
    build_operator,
    companion_lift,
    dense_operator,
    ma_moment_operator,
)
from oparma.spectral import hyperbolic_split


def scalar_model(a, bs=(1.0,)):
    return arma_model(
        [dense_operator(np.array([[a]]))],
        [dense_operator(np.array([[b]])) for b in bs],
    )


def unit_point_mass(dim, value, seed=0):
    return NoiseSpec(
        kind="point_mass", dim=dim, params={"value": list(value)}, seed=seed
    )


class TestPointMassOracles:
    def test_contracting_scalar_sums_to_two(self):
        model = scalar_model(0.5)
        res = simulate_theorem1(model, unit_point_mass(1, [1.0]), t_range=(0, 20))
        assert res.values.shape == (21, 1)
        assert np.allclose(res.values, 2.0, atol=1e-9)
        assert res.method == "theorem1_split"
        assert res.max_residual < 1e-10

    def test_expanding_scalar_sums_to_minus_one(self):
        model = scalar_model(2.0)
        res = simulate_theorem1(model, unit_point_mass(1, [1.0]), t_range=(0, 20))
        assert np.allclose(res.values, -1.0, atol=1e-9)
        assert res.max_residual < 1e-10

    def test_mixed_diagonal_both_branches(self):
        a = dense_operator(np.diag([0.5, 2.0]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        res = simulate_theorem1(model, unit_point_mass(2, [1.0, 1.0]), t_range=(0, 9))
        expected = np.array([2.0, -1.0])
        assert np.allclose(res.values, expected[None, :], atol=1e-9)

    def test_triangular_contracting_matches_resolvent(self):
        mat = np.array([[0.3, 0.2], [0.0, 0.4]])
        model = arma_model(
            [dense_operator(mat)], [build_operator(OperatorSpec(kind="identity", dim=2))]
        )
        v = np.array([1.0, -1.0])
        res = simulate_theorem1(model, unit_point_mass(2, v), t_range=(0, 5))
        expected = np.linalg.solve(np.eye(2) - mat, v)
        assert np.allclose(res.values, expected[None, :], atol=1e-9)

    def test_all_expanding_matches_negative_inverse(self):
        mat = np.diag([2.0, 4.0])
        model = arma_model(
            [dense_operator(mat)], [build_operator(OperatorSpec(kind="identity", dim=2))]
        )
        res = simulate_theorem1(model, unit_point_mass(2, [1.0, 1.0]), t_range=(0, 5))
        expected = -np.linalg.solve(mat - np.eye(2), np.array([1.0, 1.0]))
        assert np.allclose(res.values, expected[None, :], atol=1e-9)

    def test_zero_noise_gives_exactly_zero_path(self):
        model = scalar_model(0.5, bs=(1.0, 0.7))
        res = simulate_theorem1(model, unit_point_mass(1, [0.0]), t_range=(0, 30))
        assert np.all(res.values == 0.0)


class TestPureMovingAverage:
    def test_zero_ar_reproduces_ma_sum_exactly(self):
        d = 3
        model = arma_model(
            [build_operator(OperatorSpec(kind="zero", dim=d))],
            [build_operator(OperatorSpec(kind="identity", dim=d)), build_operator(OperatorSpec(kind="identity", dim=d))],
        )
        spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=11)
        res = simulate_theorem1(model, spec, t_range=(0, 99))
        z = res.noise
        for t in range(0, 100):
            i = t - z.t_start  # row of Z_t
            expected = z.values[i] + z.values[i - 1]
            assert np.allclose(res.values[t], expected, atol=1e-13)
        assert res.max_residual < 1e-14

    def test_one_row_window_measures_its_residual(self):
        # the p rows before the window are computed too, so even one row has
        # a recursion row to check
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=3)
        res = simulate_theorem1(model, spec, t_range=(5, 5))
        assert len(res) == 1
        assert res.max_residual <= 1e-10


class TestTruncationControl:
    def test_tail_tol_sets_depth_and_residual(self, monkeypatch):
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=5)
        monkeypatch.setattr(simulate, "DEFAULT_TAIL_TOL", 1e-18)
        res = simulate_theorem1(model, spec, t_range=(0, 199))
        assert res.truncation_K == 60
        assert res.max_residual <= 1e-12

    def test_zero_ar_kernel_is_exact(self):
        model = arma_model(
            [build_operator(OperatorSpec(kind="zero", dim=2))],
            [build_operator(OperatorSpec(kind="identity", dim=2))],
        )
        kernel, _ = build_split_kernel(model)
        k0 = -kernel.l_min
        np.testing.assert_allclose(kernel.psis[k0], np.eye(2), rtol=0, atol=1e-15)
        others = np.delete(kernel.psis, k0, axis=0)
        assert others.size and np.all(others == 0.0)

    @pytest.mark.parametrize("bs", [(1.0, 0.5), (1.0, 0.5, 0.25)], ids=["q1", "q2"])
    def test_pure_ma_kernel_is_the_ma_operators(self, bs):
        # A = 0: the depth rule reaches past lag q, and the kernel holds
        # B_0 .. B_q at lags 0 .. q and nothing else, so the path is the
        # moving average sum_j B_j Z_{t-j} itself
        model = scalar_model(0.0, bs=bs)
        kernel, _ = build_split_kernel(model)
        q = len(bs) - 1
        assert kernel.l_max >= q
        psis = kernel.psis[:, 0, 0]
        np.testing.assert_array_equal(psis[-kernel.l_min : -kernel.l_min + q + 1], bs)
        assert np.count_nonzero(psis) == q + 1
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=3)
        res = simulate_theorem1(model, spec, t_range=(0, 9))
        z, t0 = res.noise.values[:, 0], res.noise.t_start
        want = [sum(b * z[t - j - t0] for j, b in enumerate(bs)) for t in range(10)]
        np.testing.assert_allclose(res.values[:, 0], want, rtol=1e-15, atol=0)
        assert res.max_residual == 0.0

    def test_non_normal_tail_is_read_off_the_lags(self):
        # Jordan-like block: ||A^k|| first grows, so a depth taken from the
        # spectral radius alone stops while the lags are still large
        a = dense_operator(0.5 * np.eye(6) + np.eye(6, k=1))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=6))])
        kernel, _ = build_split_kernel(model)
        assert np.linalg.norm(kernel.psis[0], 2) <= simulate.DEFAULT_TAIL_TOL
        assert np.linalg.norm(kernel.psis[-1], 2) <= simulate.DEFAULT_TAIL_TOL

    def test_transiently_vanishing_lag_does_not_stop_the_depth(self):
        # Y_t = 0.25 Y_{t-2} + Z_t: every odd lag is exactly 0, so the first
        # block of the lifted state vanishes at lag 1 while the state does not
        model = arma_model(
            [dense_operator(np.array([[0.0]])), dense_operator(np.array([[0.25]]))],
            [dense_operator(np.array([[1.0]]))],
        )
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=4)
        res = simulate_theorem1(model, spec, t_range=(0, 49))
        assert res.truncation_K >= 20
        assert res.max_residual <= 1e-12

    def test_deeper_truncation_shrinks_residual(self, monkeypatch):
        model = scalar_model(0.9)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=7)
        monkeypatch.setattr(simulate, "DEFAULT_TAIL_TOL", 1e-6)
        loose = simulate_theorem1(model, spec, t_range=(0, 99))
        monkeypatch.setattr(simulate, "DEFAULT_TAIL_TOL", 1e-14)
        tight = simulate_theorem1(model, spec, t_range=(0, 99))
        assert tight.max_residual < loose.max_residual
        assert tight.truncation_K > loose.truncation_K


def _hyperbolic_ar1(rng, d, q):
    """AR(1) with half its spectrum inside the circle and half outside, and
    q + 1 random MA operators."""
    moduli = np.concatenate([rng.uniform(0.4, 0.85, d // 2), rng.uniform(1.25, 2.2, d - d // 2)])
    basis = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    a = basis @ np.diag(moduli * np.exp(2j * np.pi * rng.uniform(size=d))) @ np.linalg.inv(basis)
    return [a], [rng.normal(size=(d, d)) for _ in range(q + 1)]


def _assert_tail_sweep_converges(model, monkeypatch):
    """Paths at tail tolerances 1e-3 .. 1e-9 approach the one at 1e-30
    at least tenfold per step, as K grows by the spectral rate."""
    spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": 1.0}, seed=5)

    def run(tol):
        monkeypatch.setattr(simulate, "DEFAULT_TAIL_TOL", tol)
        return simulate_theorem1(model, spec, t_range=(0, 9))

    ref = run(1e-30).values
    runs = [run(tol) for tol in (1e-3, 1e-5, 1e-7, 1e-9)]
    depths = [res.truncation_K for res in runs]
    gaps = [np.abs(res.values - ref).max() for res in runs]
    assert depths == sorted(set(depths))
    assert all(g1 <= 0.1 * g0 for g0, g1 in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-8


#: binary exponents m of the MA operators 2^m B_k, out to both ends of the float range
_MA_SCALES = (-1000, -900, -565, -40, -20, 20, 40, 565, 900)


class TestScaleFreeDepth:
    """K is read in units of the MA operators' scale."""

    @pytest.mark.parametrize("order", ["ar1_q2", "ar2"])
    def test_depth_is_the_same_for_scaled_ma_operators(self, order):
        rng = np.random.default_rng(6)
        if order == "ar1_q2":
            ars, mas = _hyperbolic_ar1(rng, 6, 2)
        else:
            ars = [np.array([[0.5, 0.3], [0.0, 1.2]]), np.array([[0.2, 0.0], [0.1, -0.4]])]
            mas = [rng.normal(size=(2, 2))]

        def depth(m):
            model = arma_model(
                [dense_operator(a) for a in ars], [dense_operator(np.ldexp(b, m)) for b in mas]
            )
            return build_split_kernel(model)[0].l_max

        base = depth(0)
        assert [depth(m) for m in _MA_SCALES] == [base] * len(_MA_SCALES)

    def test_residual_is_the_same_over_the_float_range(self):
        # the squares of states and norms would underflow or overflow at
        # these scales; read in power-of-two units they give the same bits,
        # and a wrong path still reads a wrong residual
        mult = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.9, 2.0]})
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)

        def run(m):
            model = arma_model([build_operator(mult)], [dense_operator(np.ldexp(np.eye(2), m))])
            return model, simulate_theorem1(model, spec, t_range=(0, 199))

        base = run(0)[1]
        assert base.truncation_K == 263
        for m in _MA_SCALES:
            model, res = run(m)
            assert (res.truncation_K, res.max_residual) == (263, base.max_residual)
            wrong = dataclasses.replace(res, values=1.5 * res.values)
            assert recursion_residual(model, wrong, res.noise) > 0.25

    @pytest.mark.parametrize("scale", [1e-6, 1e-13])
    def test_small_ma_operators_keep_the_residual(self, scale, tmp_path):
        mult = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.9, 2.0]})
        model = arma_model([build_operator(mult)], [dense_operator(scale * np.eye(2))])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        assert simulate_theorem1(model, spec, t_range=(0, 199)).max_residual <= 1e-10
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dump_model(model)))
        assert main(["verify", "--model", str(path)]) == 0


class TestRecursionResidual:
    def test_corruption_is_detected(self):
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=2)
        res = simulate_theorem1(model, spec, t_range=(0, 99))
        assert res.max_residual < 1e-10
        bad = res.values.copy()
        bad[50, 0] += 1.0
        holder = dataclasses.replace(res, values=bad)
        corrupted = recursion_residual(model, holder, res.noise)
        floor = 0.5 / np.linalg.norm(bad, axis=1).max()
        assert corrupted >= floor

    def test_finite_heavy_tailed_path_has_finite_residual(self):
        # |Y_0| reaches 5e300, so the squares inside the norms overflow
        # unless the values are scaled down first
        ar = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.5, 2.0]})
        model = arma_model(
            [build_operator(ar)], [build_operator(OperatorSpec(kind="identity", dim=2))]
        )
        spec = NoiseSpec(kind="pareto_exp", dim=2, params={}, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = simulate_ma(model, laurent_coeffs(model), spec, t_range=(0, 5))
        assert np.isfinite(res.values).all() and np.abs(res.values).max() > 1e300
        assert res.max_residual < 1e-12

    def test_scaling_leaves_finite_residuals_bitwise(self):
        model = random_hyperbolic_model(np.random.default_rng(3), 3, 2)
        spec = NoiseSpec(kind="gaussian", dim=3, params={"sigma": 100.0}, seed=4)
        res = simulate_theorem1(model, spec, t_range=(0, 49))
        y, z, t0 = res.values, res.noise.values, res.noise.t_start
        assert np.abs(y).max() > 1.0  # so the values are scaled
        # the unscaled formula, in the same order of operations, over t = 1 .. 49
        lhs = y[1:] - y[:-1] @ model.ar_ops[0].matrix.T
        rhs = np.zeros_like(lhs)
        for k, b in enumerate(model.ma_ops):
            rhs += z[1 - k - t0 : 50 - k - t0] @ b.matrix.T
        num = np.linalg.norm(lhs - rhs, axis=1).max()
        assert res.max_residual == num / np.linalg.norm(y, axis=1).max()

    def test_empty_overlap_raises(self):
        model = scalar_model(0.5)
        z = sample_path(
            NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0), 5
        )
        holder = type("Y", (), {"t_start": 100, "values": np.zeros((3, 1))})()
        with pytest.raises(WindowError):
            recursion_residual(model, holder, z)


class TestKsStatistic:
    @pytest.mark.parametrize("n", [1, 7, 2000, 10_000])
    def test_equals_ks_2samp_bit_for_bit(self, n):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(n)
        for trial in range(6):
            a = rng.normal(size=n)
            b = rng.normal(loc=0.05 * trial, size=n)
            if trial % 2:  # ties within and across the samples
                a, b = np.round(a, 1), np.round(b, 1)
            if trial == 4:
                b = a[::-1].copy()
            assert simulate._ks_statistic(a, b) == ks_2samp(a, b).statistic

    def test_counts_the_largest_cdf_gap(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        assert simulate._ks_statistic(a, a + 10.0) == 1.0
        assert simulate._ks_statistic(a, a) == 0.0
        assert simulate._ks_statistic(a, np.array([0.0, 1.0, 1.0, 3.0])) == 0.25


def split_multiplication_model():
    """Multiplication by [0.5, 2.0] with B_0 = I: one causal and one anticausal component."""
    ar = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.5, 2.0]})
    return arma_model(
        [build_operator(ar)], [build_operator(OperatorSpec(kind="identity", dim=2))]
    )


def _route_result(model, sigma, route, t_range=(0, 50)):
    spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": sigma}, seed=0)
    if route == "split":
        return simulate_theorem1(model, spec, t_range=t_range)
    return simulate_ma(model, laurent_coeffs(model), spec, t_range=t_range)


class TestScaleInvariantResidual:
    @pytest.mark.parametrize("route", ["split", "ma"])
    @pytest.mark.parametrize("sigma", [1e-300, 1e-20, 1.0, 1e300])
    def test_clean_paths_pass_and_a_doubled_row_fails(self, sigma, route):
        model = split_multiplication_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = _route_result(model, sigma, route)
            assert res.max_residual <= 1e-8
            bad = res.values.copy()
            bad[20] *= 2.0
            corrupted = recursion_residual(model, dataclasses.replace(res, values=bad), res.noise)
        # the row's own norm over the path's largest, not 0 (underflow) or
        # an absolute figure below the gate
        assert corrupted > 1e-2

    @pytest.mark.parametrize("route", ["split", "ma"])
    def test_power_of_two_noise_leaves_the_residual_bitwise(self, route):
        model = split_multiplication_model()
        figures = {_route_result(model, 2.0**k, route).max_residual for k in (-600, -70, 0, 70, 600)}
        assert len(figures) == 1 and 0.0 < figures.pop() <= 1e-8

    def test_a_path_that_is_exactly_zero(self):
        model = scalar_model(0.5)
        z = sample_path(NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0), 10)
        zero = type("Y", (), {"t_start": 0, "values": np.zeros((10, 1))})()
        assert recursion_residual(model, zero, z) == np.inf
        quiet = dataclasses.replace(z, values=np.zeros_like(z.values))
        assert recursion_residual(model, zero, quiet) == 0.0


def random_hyperbolic_model(rng, dim, q, margin=0.15):
    while True:
        moduli = np.concatenate(
            [
                rng.uniform(0.2, 1.0 - margin, size=dim // 2 + 1),
                rng.uniform(1.0 + margin, 2.5, size=dim // 2),
            ]
        )[:dim]
        phases = rng.uniform(0, 2 * np.pi, size=dim)
        eigs = moduli * np.exp(1j * phases)
        s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if np.linalg.cond(s) < 20:
            break
    a = s @ np.diag(eigs) @ np.linalg.inv(s)
    mas = [
        dense_operator(rng.normal(size=(dim, dim)) / np.sqrt(dim))
        for _ in range(q + 1)
    ]
    return arma_model([dense_operator(a)], mas)


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_split_and_ma_routes_agree(self, seed):
        rng = np.random.default_rng(400 + seed)
        dim = int(rng.integers(1, 5))
        q = int(rng.integers(0, 3))
        model = random_hyperbolic_model(rng, dim, q)
        coeffs = laurent_coeffs(model)
        spec = NoiseSpec(kind="gaussian", dim=dim, params={"sigma": 1.0}, seed=seed)
        res_split = simulate_theorem1(model, spec, t_range=(0, 50))
        res_ma = simulate_ma(model, coeffs, spec, t_range=(0, 50))
        gap = np.linalg.norm(res_split.values - res_ma.values, axis=1).max()
        assert gap <= 1e-6
        assert res_split.max_residual <= 1e-8
        assert res_ma.max_residual <= 1e-6

    def test_order_two_model_agrees_through_lift(self):
        a1 = dense_operator(np.array([[3.5]]))
        a2 = dense_operator(np.array([[-1.5]]))
        b0 = dense_operator(np.array([[1.0]]))
        b1 = dense_operator(np.array([[0.4]]))
        model = arma_model([a1, a2], [b0, b1])
        coeffs = laurent_coeffs(model)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=9)
        res_split = simulate_theorem1(model, spec, t_range=(0, 59))
        res_ma = simulate_ma(model, coeffs, spec, t_range=(0, 59))
        gap = np.abs(res_split.values - res_ma.values).max()
        assert gap <= 1e-8
        assert res_split.max_residual <= 1e-9

    def test_ma_route_rejects_uncertified_coeffs(self):
        model = scalar_model(0.5)
        coeffs = laurent_coeffs(model)
        broken = dataclasses.replace(coeffs, reconstruction_residual=1.0)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError):
            simulate_ma(model, broken, spec)


class TestDeterminismAndLinearity:
    def test_same_spec_same_result_bitwise(self):
        model = scalar_model(0.7, bs=(1.0, 0.3))
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 2.0}, seed=21)
        r1 = simulate_theorem1(model, spec, t_range=(0, 99))
        r2 = simulate_theorem1(model, spec, t_range=(0, 99))
        assert np.array_equal(r1.values, r2.values)

    def test_scaling_noise_scales_path(self):
        model = scalar_model(0.6, bs=(1.0, -0.5))
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=13)
        alpha = 2.5
        scaled = dataclasses.replace(spec, params={"sigma": alpha})
        base = simulate_theorem1(model, spec, t_range=(0, 39))
        big = simulate_theorem1(model, scaled, t_range=(0, 39))
        scale = 1.0 + np.abs(base.values).max()
        assert np.abs(big.values - alpha * base.values).max() <= 1e-12 * scale

    def test_explicit_split_reused(self):
        a = dense_operator(np.diag([0.5, 2.0]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        split = hyperbolic_split(a)
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=1)
        r1 = simulate_theorem1(model, spec, t_range=(0, 20), split=split)
        r2 = simulate_theorem1(model, spec, t_range=(0, 20))
        assert np.allclose(r1.values, r2.values, atol=1e-12)


class TestWindowHandling:
    def test_presampled_path_rejected(self):
        # noise is time-addressed, so the spec alone fixes every sample
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError, match="NoiseSpec"):
            simulate_theorem1(model, sample_path(spec, 200, t_start=-100), t_range=(0, 5))

    def test_empty_range_rejected(self):
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError):
            simulate_theorem1(model, spec, t_range=(5, 4))

    def test_offset_window_matches_shifted_noise(self):
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=6)
        res = simulate_theorem1(model, spec, t_range=(-30, -10))
        assert res.t_start == -30
        assert res.t_stop_inclusive == -10
        assert res.max_residual < 1e-10


class TestTimeAddressedNoise:
    def test_overlapping_windows_agree_exactly(self):
        a = dense_operator(np.diag([0.5, 2.0]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=5)
        coeffs = laurent_coeffs(model)
        early = simulate_theorem1(model, spec, t_range=(0, 9))
        late = simulate_theorem1(model, spec, t_range=(3, 12))
        np.testing.assert_array_equal(early.values[3:], late.values[:7])
        early_ma = simulate_ma(model, coeffs, spec, t_range=(0, 9))
        late_ma = simulate_ma(model, coeffs, spec, t_range=(3, 12))
        np.testing.assert_array_equal(early_ma.values[3:], late_ma.values[:7])
        assert np.abs(early.values - early_ma.values).max() <= 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 6, 8])
    def test_one_point_windows_are_rows_of_a_longer_window(self, dim):
        # a scan over one row would take numpy's single-row BLAS route, and
        # its last bits differed from the same t in any longer window
        model = random_hyperbolic_model(np.random.default_rng(900 + dim), dim, 1)
        spec = NoiseSpec(kind="gaussian", dim=dim, params={"sigma": 1.0}, seed=dim)
        ref = simulate_theorem1(model, spec, t_range=(0, 10))
        k = ref.truncation_K
        for t in range(11):
            res = simulate_theorem1(model, spec, t_range=(t, t))
            assert res.values.tobytes() == ref.values[t : t + 1].tobytes(), t
            # the noise is the window rows t - p .. t read, and no more
            start = t - model.p - k - model.q
            assert (res.noise.t_start, res.noise.t_stop) == (start, t + k + 1)
            want = sample_path(spec, 2 * k + 3, t_start=start)
            assert res.noise.values.tobytes() == want.values.tobytes()

    def test_truncation_sweep_converges_geometrically(self, monkeypatch):
        a = dense_operator(np.diag([0.6, 1.0 / 0.6]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        _assert_tail_sweep_converges(model, monkeypatch)


def _window_rule_model(p, q):
    """A 3 x 3 hyperbolic ARMA(p, q): the A_1 and B_k of
    :func:`random_hyperbolic_model`, and small A_2 .. A_p."""
    rng = np.random.default_rng(10 * p + q)
    base = random_hyperbolic_model(rng, 3, q)
    extra = [dense_operator(rng.normal(size=(3, 3)) / 30) for _ in range(p - 1)]
    return arma_model(list(base.ar_ops) + extra, list(base.ma_ops))


class TestWindowRule:
    """Every window computes the p rows before it, so each of its rows has
    a recursion row, a window of one row included."""

    @pytest.mark.parametrize("kind", ["gaussian", "pareto_exp"])
    @pytest.mark.parametrize("method", ["split", "ma"])
    @pytest.mark.parametrize("q", [0, 2])
    @pytest.mark.parametrize("p", [1, 2])
    def test_short_windows_are_rows_of_a_long_window(self, p, q, method, kind):
        model = _window_rule_model(p, q)
        params = {"sigma": 1.0} if kind == "gaussian" else {}
        spec = NoiseSpec(kind=kind, dim=3, params=params, seed=p + q)
        coeffs = laurent_coeffs(model)

        def run(t0, t1):
            if method == "split":
                return simulate_theorem1(model, spec, (t0, t1))
            return simulate_ma(model, coeffs, spec, (t0, t1))

        for t0 in (-7, 0, 5):
            ref = run(t0, t0 + 63)
            for n in range(1, p + 3):
                res = run(t0, t0 + n - 1)
                assert res.values.tobytes() == ref.values[:n].tobytes(), (t0, n)
                assert np.isfinite(res.max_residual), (t0, n)
                if kind == "gaussian":
                    assert res.max_residual <= 1e-10, (t0, n)

    @pytest.mark.parametrize("kind", ["gaussian", "pareto_exp"])
    def test_ma_noise_reaches_back_q_rows(self, kind):
        # the Laurent range drops the negligible B_1 .. B_3, so k_max = 0 < q - p,
        # yet the residual of row t0 reads Z back to t0 - q
        model = scalar_model(0.0, bs=(1.0, 1e-20, 1e-20, 1e-20))
        coeffs = laurent_coeffs(model)
        assert coeffs.k_max == 0
        params = {"sigma": 1.0} if kind == "gaussian" else {}
        spec = NoiseSpec(kind=kind, dim=1, params=params, seed=1)
        res = simulate_ma(model, coeffs, spec, t_range=(5, 5))
        assert res.noise.t_start == 5 - model.q
        assert res.max_residual <= 1e-10


class TestStationarity:
    def test_ks_shift_invariance(self):
        a = dense_operator(np.diag([0.5, 1.8]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=30)
        report = stationarity_ks(model, spec, replicates=4000)
        assert report["passed"]
        assert report["ks_statistic_t"] < report["critical_value"]


class TestPlimProbe:
    def test_contracting_scalar_converges_geometrically(self):
        model = scalar_model(0.5)
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        probe = plim_probe(model, spec, n_grid=(4, 8, 16, 32), replicates=200)
        assert isinstance(probe, ProbeResult)
        assert probe.converges
        drops = [
            probe.dispersions[i + 1] / probe.dispersions[i]
            for i in range(len(probe.dispersions) - 1)
        ]
        assert all(r < 0.2 for r in drops)

    def test_circular_shift_diverges(self):
        model = arma_model(
            [build_operator(OperatorSpec(kind="circular_shift", dim=8))],
            [build_operator(OperatorSpec(kind="identity", dim=8))],
        )
        spec = NoiseSpec(kind="gaussian", dim=8, params={"sigma": 1.0}, seed=1)
        probe = plim_probe(model, spec, n_grid=(64, 128, 256, 512), replicates=100)
        assert not probe.converges
        assert probe.dispersions[-1] > 1.0

    def test_multiplication_family_converges(self):
        d = 64
        lambdas = [1.0 - 1.0 / (i + 2) for i in range(1, d + 1)]
        sigmas = [(i + 1) ** -2.0 for i in range(1, d + 1)]
        model = arma_model(
            [
                build_operator(
                    OperatorSpec(
                        kind="multiplication", dim=d, params={"multipliers": lambdas}
                    )
                )
            ],
            [build_operator(OperatorSpec(kind="identity", dim=d))],
        )
        spec = NoiseSpec(
            kind="componentwise_gaussian", dim=d, params={"sigmas": sigmas}, seed=2
        )
        probe = plim_probe(model, spec, n_grid=(64, 128, 256, 512), replicates=100)
        assert probe.converges
        assert probe.dispersions[-1] < 1e-3

    def test_precondition_violations(self):
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError):
            plim_probe(scalar_model(1.5), spec)
        two = arma_model(
            [dense_operator(np.array([[0.1]])), dense_operator(np.array([[0.1]]))],
            [dense_operator(np.array([[1.0]]))],
        )
        assert plim_probe(two, spec, n_grid=(4, 8), replicates=20).converges
        # an order-2 model is gated on its lift: z^2 - 1.5 z - 0.1 has a root 1.5639...
        ar2 = arma_model(
            [dense_operator(np.array([[1.5]])), dense_operator(np.array([[0.1]]))],
            [dense_operator(np.array([[1.0]]))],
        )
        with pytest.raises(SpecificationError, match=r"spectral radius <= 1, got 1\.56"):
            plim_probe(ar2, spec)
        with pytest.raises(SpecificationError):
            plim_probe(scalar_model(0.5, bs=(1.0, 1.0)), spec, n_grid=(1, 2))
        wide = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        with pytest.raises(DimensionMismatchError):
            plim_probe(scalar_model(0.5), wide, n_grid=(4, 8))


class TestPartialSumQuantiles:
    def test_n_within_ma_window_rejected(self):
        model = scalar_model(0.5, bs=(1.0, 1.0, 1.0))
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError, match="exceed q=2"):
            partial_sum_quantiles(model, spec, n_grid=(1, 2, 8), replicates=10)

    def test_wrong_noise_dimension_rejected(self):
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        with pytest.raises(DimensionMismatchError):
            partial_sum_quantiles(scalar_model(0.5), spec, n_grid=(4, 8), replicates=10)
        with pytest.raises(DimensionMismatchError):
            stationarity_ks(scalar_model(0.5), spec, replicates=10)

    def test_overflowing_sums_raise_instead_of_nan(self):
        # pareto_exp innovations reach e^700; the norms of the sums then leave
        # the float range and the quantiles would silently read nan
        mult = OperatorSpec(
            kind="multiplication", dim=4, params={"multipliers": [0.9, 0.8, 0.7, 0.6]}
        )
        model = arma_model(
            [build_operator(mult)],
            [build_operator(OperatorSpec(kind="identity", dim=4))] * 2,
        )
        spec = NoiseSpec(kind="pareto_exp", dim=4, params={}, seed=0)
        # the OverflowError is the whole report: no numpy warning escapes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="S_32 - S_16"):
                plim_probe(model, spec, n_grid=(16, 32, 64), replicates=200)
            with pytest.raises(OverflowError, match="S_16"):
                partial_sum_quantiles(model, spec, n_grid=(16, 32, 64), replicates=200)


def _probe_models():
    """(model, snapshots, replicates) the partial-sum scan is checked on."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a *= 0.9 / np.abs(np.linalg.eigvals(a)).max()
    dense_q2 = arma_model(
        [dense_operator(a)], [dense_operator(rng.normal(size=(5, 5))) for _ in range(3)]
    )
    mult = OperatorSpec(
        kind="multiplication", dim=8, params={"multipliers": list(np.linspace(0.3, 0.99, 8))}
    )
    ident = lambda d: build_operator(OperatorSpec(kind="identity", dim=d))  # noqa: E731
    shift = build_operator(OperatorSpec(kind="circular_shift", dim=16))
    volterra = build_operator(OperatorSpec(kind="volterra", dim=12, params={}))
    return {
        # q = 2: segments of 1, 2, 7 and 1 rows, carried by A^1, A^3 and A^10
        "dense_q2": (dense_q2, (3, 5, 12, 13), 40),
        "multiplication": (arma_model([build_operator(mult)], [ident(8)] * 2), (4, 8, 16, 33), 40),
        # 8194 steps x 16 dims leave room for two streams per chunk
        "circular_shift_two_chunks": (arma_model([shift], [ident(16)]), (64, 1000, 8194), 32),
        "volterra": (arma_model([volterra], [ident(12)]), (7, 12, 20, 33), 40),
    }


class TestPartialSumScan:
    @pytest.mark.parametrize(
        "name", ["dense_q2", "multiplication", "circular_shift_two_chunks", "volterra"]
    )
    def test_matches_the_explicit_power_sum(self, name):
        model, n_snap, reps = _probe_models()[name]
        q, n_max = model.q, max(n_snap)
        spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": 1.0}, seed=4)
        if name.endswith("two_chunks"):
            assert len(list(simulate._replicate_blocks(model, spec, n_max - q, reps))) >= 2
        # the partial sums S_n and the increments between neighbouring snapshots
        spans = {(q, n) for n in n_snap} | set(zip(n_snap, n_snap[1:]))
        got = simulate._partial_sums(model, spec, spans, reps)
        # S_{a,b} = sum_{j=a}^{b-1} A^{j-q} M Z_j, replicate i on stream i from t = 0
        z = np.stack([sample_path(spec, n_max - q, stream=i).values for i in range(reps)])
        a, m = model.ar_ops[0].matrix, ma_moment_operator(model)
        g = np.stack([np.linalg.matrix_power(a, j) @ m for j in range(n_max - q)])
        for lo, hi in spans:
            ref = np.tensordot(g[lo - q : hi - q], z[:, lo - q : hi - q], axes=([0, 2], [1, 2]))
            scale = np.linalg.norm(ref, axis=0).max()
            assert got[lo, hi].shape == (model.dim, reps)
            assert np.abs(got[lo, hi] - ref).max() <= 1e-12 * scale, (lo, hi)

    def test_nilpotent_sums_freeze_exactly_on_an_odd_grid(self):
        # A^6 = 0 for the 6x6 shift: every sum from S_6 on is the same array,
        # however the snapshot gaps split into pairs and binary digits
        shift = OperatorSpec(kind="weighted_shift", dim=6, params={"weights": [1.0] * 5})
        a = build_operator(shift)
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=6))])
        spec = NoiseSpec(kind="pareto_exp", dim=6, params={}, seed=0)
        probe = plim_probe(model, spec, n_grid=(7, 12, 20), replicates=100)
        assert probe.dispersions == (0.0, 0.0, 0.0)
        assert probe.converges
        sums = simulate._partial_sums(model, spec, {(0, n) for n in (7, 12, 14, 20, 24, 40)}, 100)
        for n in (12, 14, 20, 24, 40):
            np.testing.assert_array_equal(sums[0, n], sums[0, 7])

    def test_overflow_inside_the_scan_raises_instead_of_warning(self):
        # A^(2^l) leaves the float range (2^1024 = inf), and so does M Z_j
        # for an e^700 draw through M = 1e5; the sums then hold inf and nan,
        # and an increment of two infinite sums is inf - inf
        ident = build_operator(OperatorSpec(kind="identity", dim=2))
        doubling = arma_model([dense_operator(2.0 * np.eye(2))], [ident])
        gauss = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        loud = scalar_model(0.5, bs=(1e5,))
        heavy = NoiseSpec(kind="pareto_exp", dim=1, params={}, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="S_2048"):
                partial_sum_quantiles(doubling, gauss, n_grid=(8, 2048), replicates=10)
            with pytest.raises(OverflowError, match="S_16 - S_8"):
                plim_probe(loud, heavy, n_grid=(8, 16, 32), replicates=400)


def _cancelling_ar2(a1, a2):
    """A dyadic AR(2) with q = 2 whose MA part cancels D(z) along x = e_1.

    B_1 x = -A_1 B_0 x and B_2 x = -A_2 B_0 x, so B(z) x = D(z) B_0 x and
    H(z) x = B_0 x: noise along x enters lag 0 only.  Every entry is
    dyadic, so the cancellation is exact in floating point.  Returns the
    model, x and y = e_2, along which nothing cancels.
    """
    a1, a2 = np.array(a1), np.array(a2)
    b0 = np.array([[1.0, 0.5], [0.5, 1.0]])
    b1 = np.column_stack([-a1 @ b0[:, 0], [0.25, -0.5]])
    b2 = np.column_stack([-a2 @ b0[:, 0], [0.5, 0.125]])
    ar = [dense_operator(a) for a in (a1, a2)]
    ma = [dense_operator(b) for b in (b0, b1, b2)]
    return arma_model(ar, ma), np.array([1.0, 0.0]), np.array([0.0, 1.0])


#: lift spectral radius 0.78: the probes run on it
_STABLE_AR2 = ([[0.5, 0.25], [0.0, 0.25]], [[0.125, 0.0], [0.25, -0.125]])
#: lift eigenvalue moduli 1.38, 0.5, 0.28, 0.16: the split has both sides
_HYPERBOLIC_AR2 = ([[1.5, 0.25], [0.0, 0.5]], [[-0.25, 0.0], [0.25, 0.125]])


class TestOrderTwoProbes:
    def test_ar2_sums_are_the_lifted_power_sum(self):
        model, _, _ = _cancelling_ar2(*_STABLE_AR2)
        q, d, reps = model.q, model.dim, 30
        a1, a2 = (a.matrix for a in model.ar_ops)
        big = np.block([[a1, a2], [np.eye(d), np.zeros((d, d))]])
        m = sum(
            np.linalg.matrix_power(big, q - k)[:, :d] @ b.matrix
            for k, b in enumerate(model.ma_ops)
        )
        spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=5)
        spans = {(q, 9), (9, 20), (q, 20)}
        got = simulate._partial_sums(model, spec, spans, reps)
        z = np.stack([sample_path(spec, 20 - q, stream=i).values for i in range(reps)])
        g = np.stack([np.linalg.matrix_power(big, j) @ m for j in range(20 - q)])
        for lo, hi in spans:
            ref = np.tensordot(g[lo - q : hi - q], z[:, lo - q : hi - q], axes=([0, 2], [1, 2]))
            assert got[lo, hi].shape == (2 * d, reps)
            assert np.abs(got[lo, hi] - ref).max() <= 1e-12 * np.linalg.norm(ref, axis=0).max()
        probe = plim_probe(model, spec, n_grid=(16, 32, 64), replicates=100)
        assert probe.converges
        assert probe.dispersions[0] > probe.dispersions[1] > probe.dispersions[2]


class TestMaCancellation:
    """Noise along a direction the MA part cancels needs no moment."""

    def test_moment_operator_vanishes_exactly_along_x(self):
        for ar in (_STABLE_AR2, _HYPERBOLIC_AR2):
            model, x, y = _cancelling_ar2(*ar)
            m = ma_moment_operator(model)
            assert (m @ x == 0).all()
            assert np.linalg.norm(m @ y) > 0.1

    def test_probe_along_x_is_exactly_zero_and_along_y_diverges(self):
        model, x, y = _cancelling_ar2(*_STABLE_AR2)
        along_x, along_y = (
            NoiseSpec(kind="pareto_exp", dim=2, params={"direction": list(v)}, seed=0)
            for v in (x, y)
        )
        probe = plim_probe(model, along_x, n_grid=(8, 16, 32), replicates=200)
        assert probe.dispersions == (0.0, 0.0, 0.0)
        assert probe.converges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="S_16 - S_8"):
                plim_probe(model, along_y, n_grid=(8, 16, 32), replicates=200)

    def test_split_kernel_tails_vanish_along_x(self):
        # past the MA window the causal states are L1^(m-q) phi_q and the
        # anticausal ones L2^(m+1) a_{-1}; both are projections of M, so
        # they vanish on x on both sides of the circle
        model, x, y = _cancelling_ar2(*_HYPERBOLIC_AR2)
        split = hyperbolic_split(companion_lift(model))
        assert 0 < split.rank < split.dim
        causal, anticausal = simulate._split_lag_states(model, split)
        phis = [next(causal) for _ in range(40)]  # phi_0 .. phi_39
        tails = [next(anticausal) for _ in range(43)][model.q + 1 :]  # a_{-1} .. a_{-40}
        scale = max(np.linalg.norm(s, 2) for s in phis + tails)
        assert max(np.linalg.norm(s @ x) for s in phis[model.q :] + tails) <= 1e-12 * scale
        # x does enter the window lags, and y the tails
        assert np.linalg.norm(phis[0] @ x) > 0.1 * scale
        assert np.linalg.norm(phis[model.q] @ y) > 0.1 * scale
        assert np.linalg.norm(tails[0] @ y) > 0.1 * scale


class TestRealArithmetic:
    @staticmethod
    def _complex_twin(model):
        """``model`` with 1e-30j added to one entry of A, so the probes run complex."""
        a = model.ar_ops[0].matrix.copy()
        a[0, -1] += 1e-30j
        return arma_model([dense_operator(a)], list(model.ma_ops))

    @pytest.mark.parametrize("name", ["volterra", "multiplication", "circular_shift"])
    def test_real_probes_match_the_complex_twin(self, name):
        # d = 32 keeps the Volterra powers on the grid away from exact zeros,
        # which the twin's imaginary part would lift to 1e-40
        d = 32
        ident = build_operator(OperatorSpec(kind="identity", dim=d))
        a = build_operator(
            {
                "volterra": OperatorSpec(kind="volterra", dim=d, params={}),
                "multiplication": OperatorSpec(
                    kind="multiplication",
                    dim=d,
                    params={"multipliers": list(np.linspace(0.3, 0.9, d))},
                ),
                "circular_shift": OperatorSpec(kind="circular_shift", dim=d),
            }[name]
        )
        model = arma_model([a], [ident, dense_operator(0.5 * np.eye(d))])
        twin = self._complex_twin(model)
        spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=6)
        real_sums = simulate._partial_sums(model, spec, {(1, 9)}, 7)[1, 9]
        twin_sums = simulate._partial_sums(twin, spec, {(1, 9)}, 7)[1, 9]
        assert (real_sums.dtype, twin_sums.dtype) == (np.float64, np.complex128)
        probe = plim_probe(model, spec, n_grid=(4, 8, 16), replicates=30)
        twin_probe = plim_probe(twin, spec, n_grid=(4, 8, 16), replicates=30)
        np.testing.assert_allclose(probe.dispersions, twin_probe.dispersions, rtol=1e-12)
        quants = partial_sum_quantiles(model, spec, (2, 5, 17), replicates=30)
        twin_quants = partial_sum_quantiles(twin, spec, (2, 5, 17), replicates=30)
        np.testing.assert_allclose(quants, twin_quants, rtol=1e-12)

    def test_volterra_increment_is_its_own_direct_sum(self):
        # the volterra scenario's probe (grid 512): S_32 - S_16 is about 4e-14
        # against ||S_16|| near 24, so a difference of the two sums keeps
        # only three digits of it
        m = 512
        a = build_operator(OperatorSpec(kind="volterra", dim=m, params={}))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=m))])
        spec = NoiseSpec(kind="gaussian", dim=m, params={"sigma": 1.0}, seed=0)
        probe = plim_probe(model, spec, n_grid=(8, 16, 32, 64), replicates=50)
        z = np.stack([sample_path(spec, 32, stream=i).values for i in range(50)])
        power = np.linalg.matrix_power(a.matrix.real, 16)
        direct = 0.0
        for j in range(16, 32):
            direct = direct + z[:, j] @ power.T
            power = a.matrix.real @ power
        got = simulate._partial_sums(model, spec, {(16, 32)}, 50)[16, 32]
        assert np.abs(got.T - direct).max() <= 1e-12 * np.abs(direct).max()
        want = np.quantile(np.linalg.norm(direct, axis=1), simulate.PROBE_QUANTILE)
        assert probe.dispersions[1] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_complex_model_with_real_noise_matches_a_complex_cast_block(self):
        model = random_hyperbolic_model(np.random.default_rng(12), 4, 2)
        spec = NoiseSpec(kind="gaussian", dim=4, params={"sigma": 1.0}, seed=2)
        res = simulate_theorem1(model, spec, t_range=(0, 49))
        assert res.noise.values.dtype == np.float64
        k, split = simulate._split_depth(model)
        cast = res.noise.values.astype(complex)
        rows = simulate._split_series(model, split, cast, k + model.q, 50 + model.p, k)
        np.testing.assert_array_equal(res.values, rows[model.p :])
        coeffs = laurent_coeffs(model)
        res = simulate_ma(model, coeffs, spec, t_range=(0, 49))
        cast = res.noise.values.astype(complex)
        first = -coeffs.k_max - res.noise.t_start  # output row of t = 0
        np.testing.assert_array_equal(
            res.values, simulate._block_sum(cast, coeffs.coeffs)[first : first + 50]
        )
        assert _norm_gap(res.values, _direct_ma(res, coeffs)) <= 1e-13


def _scan_models():
    """Models the two-pass scan is checked on against the kernel convolution."""
    rng = np.random.default_rng(8)
    ident = lambda d: build_operator(OperatorSpec(kind="identity", dim=d))  # noqa: E731
    jordan = dense_operator(0.5 * np.eye(6) + np.eye(6, k=1))
    block = dense_operator(0.7 * np.eye(8) + 3.0 * np.eye(8, k=1))
    d = 16
    a1 = np.diag(rng.choice([0.4, 2.2], size=d)) + rng.normal(size=(d, d)) / (4 * np.sqrt(d))
    a2 = rng.normal(size=(d, d)) / (8 * np.sqrt(d))
    ar2 = arma_model(
        [dense_operator(a1), dense_operator(a2)],
        [ident(d), dense_operator(rng.normal(size=(d, d)) / np.sqrt(d))],
    )
    d = 64
    moduli = np.concatenate([rng.uniform(0.2, 0.85, d // 2), rng.uniform(1.15, 2.5, d // 2)])
    basis, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    a = basis @ np.diag(moduli * np.exp(2j * np.pi * rng.random(d))) @ basis.conj().T
    ar1 = arma_model(
        [dense_operator(a)],
        [ident(d)] + [dense_operator(rng.normal(size=(d, d)) / d) for _ in range(2)],
    )
    return {
        "jordan_d6": arma_model([jordan], [ident(6)]),
        "block_d8": arma_model([block], [ident(8)]),
        "ar2_d16": ar2,
        "ar1_d64": ar1,
    }


class TestTwoPassScan:
    @pytest.mark.parametrize("name", ["jordan_d6", "block_d8", "ar2_d16", "ar1_d64"])
    def test_matches_the_kernel_convolution(self, name):
        model = _scan_models()[name]
        spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": 1.0}, seed=3)
        res = simulate_theorem1(model, spec, t_range=(-50, 149))
        kernel, _ = build_split_kernel(model)
        k = res.truncation_K
        assert -kernel.l_min == k
        # the noise reaches K + q + p rows before the window, the kernel only K
        z = res.noise.values.astype(complex)
        first = 2 * k + model.q + model.p
        ref = simulate._lag_sum(z, kernel.psis, first, first + len(res))
        assert np.abs(res.values - ref).max() <= 1e-12 * np.abs(ref).max()
        assert res.max_residual <= 1e-10

    def test_overlapping_long_windows_agree_bitwise(self):
        # inner and outer spectrum with q = 1, so both scans carry MA terms;
        # the offset exceeds the largest scan shift, so the rows sit at
        # different places in every pass
        a = dense_operator(np.diag([0.5, 2.0, 0.9, 1.3]) + np.eye(4, k=1))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=4))] * 2)
        spec = NoiseSpec(kind="gaussian", dim=4, params={"sigma": 1.0}, seed=5)
        early = simulate_theorem1(model, spec, t_range=(0, 4999))
        late = simulate_theorem1(model, spec, t_range=(2500, 7499))
        assert 2500 > 2 ** int(np.ceil(np.log2(early.truncation_K + 1)))
        np.testing.assert_array_equal(early.values[2500:], late.values[:2500])

    def test_shallow_depth_is_the_kernel_cut_without_ma_terms(self, monkeypatch):
        # for q = 0 the forward scan sums lags 0..K and the backward one
        # lags -1..-K, exactly the kernel's reach, at any tail tolerance
        monkeypatch.setattr(simulate, "DEFAULT_TAIL_TOL", 1e-2)
        a = dense_operator(np.diag([0.6, 1.0 / 0.6]) + np.eye(2, k=1))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=5)
        res = simulate_theorem1(model, spec, t_range=(0, 99))
        kernel, _ = build_split_kernel(model)
        k = res.truncation_K
        assert k == kernel.l_max <= 10
        z = res.noise.values.astype(complex)
        first = 2 * k + model.p  # the noise reaches K + p rows before the window
        ref = simulate._lag_sum(z, kernel.psis, first, first + len(res))
        assert np.abs(res.values - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_tail_sweep_with_ma_terms(self, monkeypatch):
        # with q >= 1 the scans cut whole terms of f, not kernel lags; the
        # depth still converges at the spectral rate
        a = dense_operator(np.diag([0.6, 1.0 / 0.6]))
        ma = [build_operator(OperatorSpec(kind="identity", dim=2)), dense_operator(0.5 * np.eye(2))]
        _assert_tail_sweep_converges(arma_model([a], ma), monkeypatch)

    def test_non_finite_path_raises_naming_t(self):
        ar = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.5, 2.0]})
        big = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [1e10, 1e10]})
        model = arma_model([build_operator(ar)], [build_operator(big)])
        spec = NoiseSpec(kind="pareto_exp", dim=2, params={}, seed=1)
        with pytest.raises(OverflowError, match=r"at t = -?\d+"):
            simulate_theorem1(model, spec, t_range=(0, 400))
        with pytest.raises(OverflowError, match=r"at t = -?\d+"):
            simulate_ma(model, laurent_coeffs(model), spec, t_range=(0, 400))


class TestSplitDepth:
    def test_library_path_builds_no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the split route must not assemble a lag kernel")

        monkeypatch.setattr(simulate, "build_split_kernel", refuse)
        a = dense_operator(np.diag([0.5, 1.8]))
        model = arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=2))] * 2)
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=30)
        assert simulate_theorem1(model, spec, t_range=(0, 49)).max_residual <= 1e-12
        report = stationarity_ks(model, spec, replicates=200)
        assert 0.0 < report["ks_statistic_t"] < 1.0

    def test_overflowing_lag_states_raise(self):
        # a transient gain of 1e200 takes the unit-scaled states past the float
        # range at lag 2; the nan states that follow would never meet the tail
        # tolerance
        a = dense_operator(0.5 * np.eye(3) + 1e200 * np.eye(3, k=1))
        model = arma_model([a], [dense_operator(np.eye(3))])
        spec = NoiseSpec(kind="gaussian", dim=3, params={"sigma": 1.0}, seed=0)
        with pytest.raises(OverflowError, match="lag states leave the float range at lag 2"):
            simulate_theorem1(model, spec, t_range=(0, 3))

    def test_overflowing_scaled_path_raises(self):
        # the states are read in units of B_0 = 1e300 I and stay finite, but a
        # transient gain of 1e10 takes the path past the float range; t = -1
        # is the first row the recursion residual reads
        a = dense_operator([[0.5, 1e10], [0.0, 0.5]])
        model = arma_model([a], [dense_operator(1e300 * np.eye(2))])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        with pytest.raises(OverflowError, match="simulated path leaves the float range at t = -1"):
            simulate_theorem1(model, spec, t_range=(0, 3))

    @pytest.mark.parametrize("name", ["ar1_q2", "ar2_q1"])
    def test_replicate_block_matches_single_paths_bitwise(self, name):
        ident = build_operator(OperatorSpec(kind="identity", dim=4))
        a = dense_operator(np.diag([0.5, 2.0, 0.9, 1.3]) + np.eye(4, k=1))
        model = {
            "ar1_q2": arma_model([a], [ident, dense_operator(0.5 * np.eye(4)), ident]),
            "ar2_q1": _scan_models()["ar2_d16"],
        }[name]
        assert (model.p, model.q) == {"ar1_q2": (1, 2), "ar2_q1": (2, 1)}[name]
        spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": 1.0}, seed=9)
        k, split = simulate._split_depth(model)
        q, n_t = model.q, simulate.KS_SHIFT + 2
        # the KS check's read: windows from t = -q, so row k + q holds t = K
        ((lo, block),) = simulate._replicate_blocks(model, spec, n_t + 2 * k + q, 5, t_start=-q)
        stacked = simulate._split_series(model, split, block, k + q, n_t, k)
        assert stacked.shape == (5, n_t, model.dim)
        for i in range(5):
            single = simulate._split_series(model, split, block[i], k + q, n_t, k)
            np.testing.assert_array_equal(stacked[i], single)
        res = simulate_theorem1(model, spec, t_range=(k, k + simulate.KS_SHIFT + 1))
        assert res.truncation_K == k
        np.testing.assert_array_equal(stacked[0], res.values)

    def test_depth_search_keeps_memory_flat(self):
        # d = 64, K = 155: the (2K+1) x d x d kernel alone would hold 20 MB
        model = _scan_models()["ar1_d64"]
        spec = NoiseSpec(kind="gaussian", dim=64, params={"sigma": 1.0}, seed=3)
        split = hyperbolic_split(model.ar_ops[0])
        tracemalloc.start()
        try:
            res = simulate_theorem1(model, spec, t_range=(0, 199), split=split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.truncation_K > 150
        assert peak < 16e6, peak


NOISE_PARAMS = {
    "gaussian": {"sigma": [1.0, 0.0]},
    "componentwise_gaussian": {"sigmas": [0.5, 3.0]},
    "pareto_exp": {"direction": [0.6, 0.8j]},
    "gamma_inv_tail": {"x1": 40.0},
    "point_mass": {"value": [1.0, -2.0]},
}


class TestReplicateBlocks:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    # 2 x 40 000 values a window: three replicates a block, so the five cross a block edge
    @pytest.mark.parametrize(
        "t_start,count", [(0, 9), (3, 9), (-2, 9), (-20, 9), (-4000, 5000), (-30000, 40000)]
    )
    def test_blocks_are_stacked_sample_paths(self, kind, t_start, count):
        spec = NoiseSpec(kind=kind, dim=2, params=NOISE_PARAMS[kind], seed=6)
        model = arma_model([dense_operator(0.5 * np.eye(2))], [dense_operator(np.eye(2))])
        reps = 5
        blocks = list(simulate._replicate_blocks(model, spec, count, reps, t_start))
        got = np.concatenate([block for _, block in blocks])
        assert [lo for lo, _ in blocks] == list(range(0, reps, blocks[0][1].shape[0]))
        want = np.stack(
            [sample_path(spec, count, t_start, stream=i).values for i in range(reps)]
        )
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "check",
        [
            lambda m, s: plim_probe(m, s, n_grid=(4, 8), replicates=0),
            lambda m, s: partial_sum_quantiles(m, s, (4, 8), replicates=0),
            lambda m, s: stationarity_ks(m, s, replicates=0),
        ],
        ids=["plim_probe", "partial_sum_quantiles", "stationarity_ks"],
    )
    def test_zero_replicates_rejected(self, check):
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError, match="at least one replicate"):
            check(scalar_model(0.5), spec)


_NOISE_USERS = {
    "simulate_theorem1": lambda m, s: simulate_theorem1(m, s, t_range=(0, 5)),
    "simulate_ma": lambda m, s: simulate_ma(m, laurent_coeffs(m), s, t_range=(0, 5)),
    "plim_probe": lambda m, s: plim_probe(m, s, n_grid=(4, 8), replicates=3),
    "partial_sum_quantiles": lambda m, s: partial_sum_quantiles(m, s, (4, 8), replicates=3),
    "stationarity_ks": lambda m, s: stationarity_ks(m, s, replicates=3),
}


class TestNoiseAgainstModel:
    """Every entry point that samples noise checks its type and dimension the same way."""

    @pytest.mark.parametrize("use", _NOISE_USERS.values(), ids=_NOISE_USERS.keys())
    def test_wrong_dimension(self, use):
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=0)
        with pytest.raises(DimensionMismatchError, match="noise dim 2 does not match model dim 1"):
            use(scalar_model(0.5), spec)

    @pytest.mark.parametrize("use", _NOISE_USERS.values(), ids=_NOISE_USERS.keys())
    def test_wrong_type(self, use):
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=0)
        with pytest.raises(SpecificationError, match="noise must be a NoiseSpec, got NoisePath"):
            use(scalar_model(0.5), sample_path(spec, 50))


def _recursion_residual_reference(model, y, z):
    """The residual as one expression per term, each product freshly allocated."""
    y_vals = np.asarray(y.values)
    y0, n_y, p, q = int(y.t_start), y_vals.shape[0], model.p, model.q
    t_lo = max(y0 + p, z.t_start + q)
    t_hi = min(y0 + n_y - 1, z.t_stop - 1)
    n_t = t_hi - t_lo + 1
    z_vals = z.values[t_lo - q - z.t_start : t_hi - z.t_start + 1]
    peak = max(np.abs(y_vals).max(), np.abs(z_vals).max())
    scale = 2.0 ** -np.frexp(peak)[1]
    y_vals = y_vals * scale
    z_vals = z_vals * scale
    lhs = y_vals[t_lo - y0 : t_hi - y0 + 1].astype(complex)
    for i, a in enumerate(model.ar_ops, start=1):
        lhs -= y_vals[t_lo - i - y0 : t_hi - i - y0 + 1] @ a.matrix.T
    rhs = np.zeros_like(lhs)
    for k, b in enumerate(model.ma_ops):
        rhs += z_vals[q - k : q - k + n_t] @ b.matrix.T
    num = np.linalg.norm(lhs - rhs, axis=1).max()
    return float(num / np.linalg.norm(y_vals, axis=1).max())


class TestRecursionResidualBuffers:
    @pytest.mark.parametrize("name", ["ar2_d16", "jordan_d6"])
    @pytest.mark.parametrize("kind", ["gaussian", "pareto_exp"])
    def test_matches_the_one_expression_residual_bit_for_bit(self, name, kind):
        model = _scan_models()[name]
        params = {"sigma": 1.0} if kind == "gaussian" else {}
        spec = NoiseSpec(kind=kind, dim=model.dim, params=params, seed=2)
        res = simulate_theorem1(model, spec, t_range=(-5, 120))
        # the residual reads the p rows before the window too
        reach = simulate_theorem1(model, spec, t_range=(-5 - model.p, 120))
        assert res.max_residual == _recursion_residual_reference(model, reach, res.noise)
        big = 2.0 ** (900 - np.frexp(np.abs(res.values).max())[1])  # peak near 2^900
        for values, t_start in [
            (res.values * big, res.t_start),  # squares would overflow unscaled
            (np.ascontiguousarray(res.values.real), res.t_start),
            (res.values[7:-4], res.t_start + 7),
        ]:
            y = dataclasses.replace(res, values=values, t_start=t_start)
            want = _recursion_residual_reference(model, y, res.noise)
            assert recursion_residual(model, y, res.noise) == want


def _direct_ma(res, coeffs):
    """The window of ``res`` as the direct lag sum over the noise it sampled."""
    z = res.noise.values.astype(complex)
    lo = res.t_start - coeffs.k_min - res.noise.t_start  # the row of Z_{t0 - k_min}
    return simulate._lag_sum(z, coeffs.coeffs, lo, lo + len(res))


def _norm_gap(values, ref):
    """max_t ||values_t - ref_t|| over max_t ||ref_t||."""
    return np.linalg.norm(values - ref, axis=1).max() / np.linalg.norm(ref, axis=1).max()


class TestBlockConvolution:
    def test_block_shape_is_a_function_of_the_lag_count(self):
        assert simulate._block_shape(1) == (2, 2)
        assert simulate._block_shape(292) == (512, 221)
        for n_lags in range(1, 400):
            size, step = simulate._block_shape(n_lags)
            assert size >= 1.5 * n_lags > size / 2 and step == size - n_lags + 1

    def test_windows_agree_bitwise_across_block_edges(self):
        model = random_hyperbolic_model(np.random.default_rng(5), 3, 1)
        spec = NoiseSpec(kind="gaussian", dim=3, params={"sigma": 1.0}, seed=9)
        coeffs = laurent_coeffs(model)
        _, step = simulate._block_shape(coeffs.k_max - coeffs.k_min + 1)
        t0 = -3 * step - 7
        ref = simulate_ma(model, coeffs, spec, t_range=(t0, 3 * step + 5))
        # the noise reaches the edges of the blocks the window touches
        assert (ref.noise.t_start + coeffs.k_max) % step == 0
        for lo, hi in [
            (step - 5, step + 5),  # straddles one block edge
            (-2 * step + 3, -step + 2),  # negative t
            (-step - 4, 2 * step + 4),  # four blocks
            (step, step),  # one row
        ]:
            res = simulate_ma(model, coeffs, spec, t_range=(lo, hi))
            np.testing.assert_array_equal(res.values, ref.values[lo - t0 : hi - t0 + 1])

    @pytest.mark.parametrize("d", [1, 4, 16])
    @pytest.mark.parametrize("q", [0, 2])
    def test_matches_the_direct_lag_sum(self, d, q):
        model = random_hyperbolic_model(np.random.default_rng(d + q), d, q)
        spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=3)
        coeffs = laurent_coeffs(model)
        res = simulate_ma(model, coeffs, spec, t_range=(-400, 700))
        assert _norm_gap(res.values, _direct_ma(res, coeffs)) <= 1e-13

    def test_order_two_model_matches_the_direct_lag_sum(self):
        model = _scan_models()["ar2_d16"]
        spec = NoiseSpec(kind="gaussian", dim=model.dim, params={"sigma": 1.0}, seed=3)
        coeffs = laurent_coeffs(model)
        res = simulate_ma(model, coeffs, spec, t_range=(-50, 600))
        assert _norm_gap(res.values, _direct_ma(res, coeffs)) <= 1e-13
        assert res.max_residual <= 1e-10

    @pytest.mark.parametrize("sigma", [1e300, 1e-300, 1e306, 1e-306])
    def test_extreme_scales_stay_finite_and_accurate(self, sigma):
        model = random_hyperbolic_model(np.random.default_rng(7), 4, 1)
        coeffs = laurent_coeffs(model)
        unit = NoiseSpec(kind="gaussian", dim=4, params={"sigma": 1.0}, seed=2)
        spec = dataclasses.replace(unit, params={"sigma": sigma})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate_ma(model, coeffs, spec, t_range=(-20, 500))
        ref = simulate_ma(model, coeffs, unit, t_range=(-20, 500)).values
        assert np.isfinite(res.values).all()
        assert _norm_gap(res.values / sigma, ref) <= 1e-13

    @pytest.mark.parametrize("kind", ["pareto_exp", "gamma_inv_tail"])
    def test_heavy_kinds_take_the_direct_sum_over_the_exact_reach(self, kind):
        model = random_hyperbolic_model(np.random.default_rng(4), 3, 1)
        spec = NoiseSpec(kind=kind, dim=3, params={}, seed=4)
        coeffs = laurent_coeffs(model)
        res = simulate_ma(model, coeffs, spec, t_range=(-30, 300))
        # from the row t0 - p the recursion residual reads
        assert res.noise.t_start == -30 - model.p - coeffs.k_max
        assert res.noise.t_stop == 301 - coeffs.k_min
        np.testing.assert_array_equal(res.values, _direct_ma(res, coeffs))

    def test_values_past_the_float_range_raise_naming_t(self):
        ar = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.5, 2.0]})
        big = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [1e10, 1e10]})
        model = arma_model([build_operator(ar)], [build_operator(big)])
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1e300}, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"at t = -?\d+"):
                simulate_ma(model, laurent_coeffs(model), spec, t_range=(0, 40))
