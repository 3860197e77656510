import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import digamma, gammaln

from oparma.engine import moments
from oparma.engine.moments import (
    GAMMA_ARGMIN,
    GAMMA_MIN,
    MomentReport,
    gamma_inverse,
    gamma_inverse_log,
    moment_estimate,
    transform_log_norms,
)
from oparma.engine.noise import NoiseSpec, log_magnitude_samples
from oparma.errors import DimensionMismatchError, SpecificationError


class TestGammaInverse:
    def test_cutoff_is_digamma_root(self):
        root = brentq(digamma, 1.0, 2.0, xtol=1e-14)
        assert abs(root - GAMMA_ARGMIN) < 1e-12
        assert abs(math.gamma(GAMMA_ARGMIN) - GAMMA_MIN) < 1e-12

    def test_log_gamma_min_literal_is_gammaln_at_the_argmin(self):
        assert moments._LOG_GAMMA_MIN == float(gammaln(GAMMA_ARGMIN))

    def test_factorial_oracles(self):
        assert gamma_inverse(1.0) == pytest.approx(2.0, rel=1e-10)
        assert gamma_inverse(6.0) == pytest.approx(4.0, rel=1e-10)
        assert gamma_inverse(24.0) == pytest.approx(5.0, rel=1e-10)

    def test_domain_boundary(self):
        assert gamma_inverse(GAMMA_MIN) == pytest.approx(GAMMA_ARGMIN, rel=1e-10)
        with pytest.raises(SpecificationError):
            gamma_inverse(0.5)
        with pytest.raises(SpecificationError):
            gamma_inverse(float("nan"))

    def test_round_trip(self):
        for y in [0.9, 1.3, 2.0, 7.5, 120.0, 3628800.0]:
            x = gamma_inverse(y)
            assert math.gamma(x) == pytest.approx(y, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        log_y = rng.uniform(-0.1, 50.0, size=64)
        vec = gamma_inverse_log(log_y)
        for ly, xv in zip(log_y, vec):
            assert xv == pytest.approx(gamma_inverse(math.exp(ly)), rel=1e-8)

    def test_vectorized_handles_huge_log_arguments(self):
        out = gamma_inverse_log(np.array([1e6, 1e12]))
        assert np.all(np.isfinite(out))
        assert out[1] > out[0] > 1e4
        from scipy.special import gammaln

        assert gammaln(out[0]) == pytest.approx(1e6, rel=1e-8)


    def test_table_inverse_matches_root_finding(self):
        # two Newton steps reach ~3e-15; one step alone would leave ~1e-13
        log_y = np.linspace(math.log(GAMMA_ARGMIN), 700.0, 1500)
        ref = np.array([gamma_inverse(math.exp(t)) for t in log_y])
        np.testing.assert_allclose(gamma_inverse_log(log_y), ref, rtol=1e-14, atol=0.0)

    def test_table_inverse_just_above_the_flat_minimum(self):
        # the inverse is ill-conditioned here: dw/dt = 1/digamma(w) -> inf
        log_y = float(gammaln(GAMMA_ARGMIN)) + np.geomspace(1e-14, 1e-2, 200)
        ref = np.array([gamma_inverse(math.exp(t)) for t in log_y])
        np.testing.assert_allclose(gamma_inverse_log(log_y), ref, rtol=1e-8, atol=0.0)
        assert gamma_inverse_log(np.array([float(gammaln(GAMMA_ARGMIN))]))[0] == GAMMA_ARGMIN

    def test_table_inverse_clips_at_its_top(self):
        top = gamma_inverse_log(np.array([1e18, 1e19, 1e300]))
        assert top[0] == top[1] == top[2]
        assert float(gammaln(top[0])) == pytest.approx(1e18, rel=1e-14)
        assert gamma_inverse_log(np.array([0.9e18]))[0] < top[0]

    def test_table_inverse_keeps_the_argument_shape(self):
        grid = np.array([[0.5, 3.0], [40.0, 1e6]])
        out = gamma_inverse_log(grid)
        assert out.shape == (2, 2)
        assert gamma_inverse_log(3.0).shape == ()
        assert float(gamma_inverse_log(3.0)) == out[0, 1]


class TestTransforms:
    def test_log_plus(self):
        ln = np.array([-3.0, 0.0, 2.0])
        assert np.array_equal(transform_log_norms(ln, "log_plus"), [0.0, 0.0, 2.0])

    def test_iterated_log_plus(self):
        ln = np.array([-5.0, 0.5, 1.0, math.e, 10.0])
        out = transform_log_norms(ln, "log_plus_log_plus")
        expected = [0.0, 0.0, 0.0, 1.0, math.log(10.0)]
        assert np.allclose(out, expected, atol=1e-14)

    def test_gamma_inverse_clamps_small_magnitudes(self):
        # ||Z|| = 1 sits below the monotonicity cutoff, so the transform
        # evaluates the inverse at the cutoff itself
        out = transform_log_norms(np.array([0.0]), "gamma_inverse")
        assert out[0] == pytest.approx(gamma_inverse(GAMMA_ARGMIN), rel=1e-8)
        big = transform_log_norms(np.array([math.log(24.0)]), "gamma_inverse")
        assert big[0] == pytest.approx(5.0, rel=1e-8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            transform_log_norms(np.zeros(4), "variance")


class TestMomentEstimate:
    def test_point_mass_unit_norm_is_exactly_zero(self):
        spec = NoiseSpec(kind="point_mass", dim=2, params={"value": [0.6, 0.8]})
        rep = moment_estimate(spec, None, "log_plus", 10_000)
        assert isinstance(rep, MomentReport)
        assert rep.estimate == 0.0
        assert rep.standard_error == 0.0
        assert rep.finite_verdict == "finite"

    def test_gaussian_log_plus_matches_integral(self):
        oracle = quad(
            lambda x: math.log(x) * math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0),
            1.0,
            np.inf,
        )[0]
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=4)
        rep = moment_estimate(spec, None, "log_plus", 200_000)
        assert rep.finite_verdict == "finite"
        assert abs(rep.estimate - oracle) <= 5.0 * rep.standard_error

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pareto_log_plus_diverges(self, seed):
        spec = NoiseSpec(kind="pareto_exp", dim=1, params={}, seed=seed)
        rep = moment_estimate(spec, None, "log_plus", 100_000)
        assert rep.finite_verdict == "diverging"

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_pareto_iterated_log_is_finite_with_unit_mean(self, seed):
        spec = NoiseSpec(kind="pareto_exp", dim=1, params={}, seed=seed)
        rep = moment_estimate(spec, None, "log_plus_log_plus", 100_000)
        assert rep.finite_verdict == "finite"
        # log log ||Z|| = log P with P Pareto(1), whose mean is exactly 1
        assert abs(rep.estimate - 1.0) <= 5.0 * rep.standard_error

    def test_slow_tail_log_moment_diverges(self):
        spec = NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": 20.0}, seed=0)
        rep = moment_estimate(spec, None, "log_plus", 500_000)
        assert rep.finite_verdict == "diverging"

    def test_slow_tail_gamma_inverse_moment_is_finite(self):
        spec = NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": 20.0}, seed=0)
        rep = moment_estimate(spec, None, "gamma_inverse", 1_000_000)
        assert rep.finite_verdict == "finite"
        assert rep.diagnostics["agreement_within_band"]

    def test_diagnostics_expose_both_rules(self):
        spec = NoiseSpec(kind="pareto_exp", dim=1, params={}, seed=1)
        rep = moment_estimate(spec, None, "log_plus", 50_000)
        d = rep.diagnostics
        assert d["octave_rule_fired"]
        assert len(d["sizes"]) == 4
        assert len(d["octaves"]) >= 3
        assert all(row["lower"] <= row["tail_coeff"] <= row["upper"] for row in d["octaves"])
        assert rep.standard_error >= 0.0


class TestTransformedMoments:
    def test_heavy_kind_transform_is_exact_log_shift(self):
        spec = NoiseSpec(
            kind="pareto_exp", dim=2, params={"direction": [0.6, 0.8]}, seed=7
        )
        t = np.array([[2.0, 0.0], [0.0, 0.5]])
        rep = moment_estimate(spec, t, "log_plus", 20_000, stream=3)
        gain = math.log(math.hypot(2.0 * 0.6, 0.5 * 0.8))
        logs = log_magnitude_samples(spec, 20_000, stream=3)
        manual = float(np.mean(np.maximum(logs + gain, 0.0)))
        assert rep.estimate == manual

    def test_zero_transform_gives_zero_moment(self):
        spec = NoiseSpec(kind="pareto_exp", dim=1, params={}, seed=0)
        rep = moment_estimate(spec, np.zeros((1, 1)), "log_plus", 5_000)
        assert rep.estimate == 0.0
        assert rep.finite_verdict == "finite"

    def test_gaussian_transform_applies_linearly(self):
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=9)
        t = np.array([[0.0, 3.0], [1.0, 0.0]])
        rep = moment_estimate(spec, t, "log_plus", 5_000, stream=1)
        from oparma.engine.noise import sample_path

        vals = sample_path(spec, 5_000, stream=1).values @ t.T
        manual = float(np.mean(np.maximum(np.log(np.linalg.norm(vals, axis=1)), 0.0)))
        assert rep.estimate == pytest.approx(manual, rel=1e-12)


class TestValidation:
    def test_sample_floor(self):
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0})
        with pytest.raises(SpecificationError):
            moment_estimate(spec, None, "log_plus", 999)

    def test_bad_kind(self):
        spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0})
        with pytest.raises(SpecificationError):
            moment_estimate(spec, None, "second", 5_000)

    def test_bad_transform_shape(self):
        spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0})
        with pytest.raises(SpecificationError):
            moment_estimate(spec, np.ones((2, 3)), "log_plus", 5_000)

    @pytest.mark.parametrize("kind, params", [("gaussian", {"sigma": 1.0}), ("pareto_exp", {})])
    def test_transform_dim_must_match_the_noise(self, kind, params):
        spec = NoiseSpec(kind=kind, dim=2, params=params)
        match = "transform has dim 3, but the noise has dim 2"
        with pytest.raises(DimensionMismatchError, match=match):
            moment_estimate(spec, np.eye(3), "log_plus", 5_000)
