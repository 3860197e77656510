"""Bulk draws run in blocks of DRAW_CHUNK values: results do not depend on
the chunk, and working memory does not grow with the sample."""

import tracemalloc

import numpy as np
import pytest

from oparma import scenarios
from oparma.engine import noise
from oparma.engine.moments import moment_estimate
from oparma.engine.noise import NOISE_KINDS, NoiseSpec, log_magnitude_samples, sample_path
from oparma.engine.simulate import partial_sum_quantiles, plim_probe, stationarity_ks
from oparma.operators import OperatorSpec, arma_model, build_operator, dense_operator

#: a single value (one row per block), a few, and more than any sample here
CHUNKS = [1, 7, 1 << 30]

NOISE_PARAMS = {
    "gaussian": {"sigma": [1.0, 0.5, 2.0]},
    "componentwise_gaussian": {"sigmas": [0.5, 3.0, 1.0]},
    "pareto_exp": {"direction": [0.6, 0.0, 0.8j]},
    "gamma_inv_tail": {"x1": 40.0},
    "point_mass": {"value": [1.0, -2.0, 0.5]},
}


def _noise(kind):
    return NoiseSpec(kind=kind, dim=3, params=NOISE_PARAMS[kind], seed=11)


def _causal_model():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    a *= 0.7 / max(abs(np.linalg.eigvals(a)))
    return arma_model([dense_operator(a)], [dense_operator(np.eye(3)), dense_operator(a.T)])


def _hyperbolic_model():
    ar = OperatorSpec(kind="multiplication", dim=3, params={"multipliers": [0.5, 2.0, -0.6]})
    b1 = dense_operator(np.arange(9.0).reshape(3, 3) / 20)
    return arma_model([build_operator(ar)], [dense_operator(np.eye(3)), b1])


def _window(kind, count, t_start, stream):
    path = sample_path(_noise(kind), count, t_start=t_start, stream=stream)
    return path.values, path.log_mags, path.n_clamped


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


CASES = {
    "plim_probe_gaussian": lambda: plim_probe(
        _causal_model(), _noise("gaussian"), n_grid=(4, 8, 16), replicates=9
    ),
    "plim_probe_pareto": lambda: plim_probe(
        _causal_model(), _noise("pareto_exp"), n_grid=(4, 8), replicates=9
    ),
    "partial_sum_quantiles": lambda: partial_sum_quantiles(
        _causal_model(), _noise("componentwise_gaussian"), (3, 10, 33), replicates=9
    ),
    "stationarity_ks": lambda: stationarity_ks(
        _hyperbolic_model(), _noise("gaussian"), replicates=12
    ),
    **{
        f"log_magnitude_samples_{kind}": (
            lambda kind=kind: log_magnitude_samples(_noise(kind), 500, stream=3)
        )
        for kind in NOISE_KINDS
    },
    # windows past row 0 skip their earlier rows in chunks: on the mirror
    # side (far), on both sides of t = 0 (straddle), and several chunks past
    # row 0 of the forward stream, over several chunks (late)
    **{
        f"{name}_window_{kind}": (lambda kind=kind, args=args: _window(kind, *args))
        for kind in NOISE_KINDS
        for name, args in (
            ("far", (6, -40, 2)),
            ("straddle", (23, -11, 2)),
            ("late", (9, 50, 1)),
        )
    },
    "moment_pareto_exp": lambda: moment_estimate(_noise("pareto_exp"), None, "log_plus", 2000),
    "moment_gamma_inv_tail": lambda: moment_estimate(
        _noise("gamma_inv_tail"), None, "gamma_inverse", 2000, stream=1
    ),
    "moment_pareto_exp_transform": lambda: moment_estimate(
        _noise("pareto_exp"), np.diag([2.0, 1.0, 3.0]), "log_plus_log_plus", 2000
    ),
    "moment_gaussian_transform": lambda: moment_estimate(
        _noise("gaussian"), _causal_model().ar_ops[0].matrix - 0.3j, "log_plus", 2000, stream=2
    ),
    "volterra": lambda: scenarios.run_scenario(
        "volterra",
        {
            "grid": 16,
            "conv_terms": 40,
            "conv_replicates": 30,
            "sharp_terms_near": 20,
            "sharp_terms_far": 300,
            "sharp_replicates": 30,
            "moment_samples": 1000,
        },
    ).checks,
}


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_results_do_not_depend_on_the_chunk(monkeypatch, case, chunk):
    want = CASES[case]()
    monkeypatch.setattr(noise, "DRAW_CHUNK", chunk)
    assert _same(CASES[case](), want)


def test_moment_samples_stay_within_a_few_copies_of_g():
    # g alone is 8 MB; the transform, the running means and the octave
    # table's sorted copy stay under four times that
    spec = NoiseSpec(kind="pareto_exp", dim=4, seed=3)
    moment_estimate(spec, None, "gamma_inverse", 1000)  # loads scipy.special and the table
    tracemalloc.start()
    try:
        rep = moment_estimate(spec, None, "gamma_inverse", 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_samples == 1_000_000
    assert peak < 4 * 8e6, peak


def test_stationarity_ks_memory_is_bounded_by_the_chunk(monkeypatch):
    # the hyperbolic_pipeline model (d = 6, q = 2) at 2 000 replicates:
    # the whole noise would be 2 000 windows of 2K + q + 7 rows
    peaks = []
    real = scenarios.stationarity_ks

    def traced(model, noise_spec, replicates):
        tracemalloc.start()
        try:
            return real(model, noise_spec, replicates=replicates)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(scenarios, "stationarity_ks", traced)
    rep = scenarios.run_scenario("hyperbolic_pipeline", {"ks_replicates": 2000})
    assert rep.passed
    assert len(peaks) == 1 and peaks[0] < 16e6, peaks


def test_partial_sums_memory_is_bounded_by_the_chunk():
    # the isometry scenario's growth check: 200 windows of 4 096 rows at
    # d = 16 would be 105 MB of noise; the products of a block stay in it
    shift = build_operator(OperatorSpec(kind="circular_shift", dim=16))
    model = arma_model([shift], [build_operator(OperatorSpec(kind="identity", dim=16))])
    spec = NoiseSpec(kind="gaussian", dim=16, params={"sigma": 1.0}, seed=0)
    tracemalloc.start()
    try:
        quants = partial_sum_quantiles(model, spec, [2**p for p in range(4, 13)], 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quants.shape == (9,)
    assert peak < 16e6, peak
