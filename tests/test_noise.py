"""Innovation sampling: laws, determinism, log-space magnitude channel."""

import math
import re

import numpy as np
import pytest
from scipy.special import exp1
from scipy.stats import kstest

from oparma import SpecificationError
from oparma.engine import noise
from oparma.engine.noise import (
    CLAMP_LOG,
    HEAVY_KINDS,
    NOISE_KINDS,
    NoisePath,
    NoiseSpec,
    log_magnitude_samples,
    log_norm_blocks,
    make_rng,
    sample_path,
)
from oparma.operators import OperatorSpec


def test_point_mass_repeats_vector():
    v = [1.0, -2.0, 0.5]
    spec = NoiseSpec(kind="point_mass", dim=3, params={"value": v}, seed=1)
    out = sample_path(spec, 3).values
    np.testing.assert_array_equal(out, np.tile(np.asarray(v, dtype=complex), (3, 1)))


@pytest.mark.parametrize(
    "kind, params",
    [("gaussian", {"sigma": 1.0}), ("componentwise_gaussian", {"sigmas": [1.0, 0.5]})],
)
def test_gaussian_values_are_real(kind, params):
    path = sample_path(NoiseSpec(kind=kind, dim=2, params=params, seed=1), 10, t_start=-4)
    assert path.values.dtype == np.float64


@pytest.mark.parametrize("kind", HEAVY_KINDS)
def test_heavy_values_follow_the_direction(kind):
    real = NoiseSpec(kind=kind, dim=2, params={"direction": [0.6, 0.8]}, seed=1)
    cplx = NoiseSpec(kind=kind, dim=2, params={"direction": [0.6, 0.8j]}, seed=1)
    default = NoiseSpec(kind=kind, dim=2, seed=1)
    assert sample_path(default, 10).values.dtype == np.float64
    x = sample_path(real, 10).values
    z = sample_path(cplx, 10).values
    assert (x.dtype, z.dtype) == (np.float64, np.complex128)
    # the direction's phase leaves the magnitudes alone
    np.testing.assert_array_equal(np.abs(z), x)


LAW_PARAMS = {
    "gaussian": {"sigma": [1.0, 0.5, 2.0]},
    "componentwise_gaussian": {"sigmas": [0.5, 3.0, 1.0]},
    "pareto_exp": {},
    "gamma_inv_tail": {},
    "point_mass": {"value": [1.0, -2.0, 0.5j]},
}


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_log_channel_is_the_path_log_channel(kind):
    # the samples come in more than one draw chunk, the path in one window
    spec = NoiseSpec(kind=kind, dim=3, params=LAW_PARAMS[kind], seed=5)
    count = noise.DRAW_CHUNK + 5
    logs = log_magnitude_samples(spec, count, stream=2)
    want = sample_path(spec, count, stream=2).lognorms()
    assert logs.tobytes() == want.tobytes()


def test_gaussian_degenerate_component_is_exactly_zero():
    spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": [1.0, 0.0]}, seed=2)
    out = sample_path(spec, 500).values
    assert np.abs(out[:, 1]).max() == 0.0
    assert np.abs(out[:, 0]).std() > 0.5


def test_componentwise_gaussian_profile():
    spec = NoiseSpec(
        kind="componentwise_gaussian", dim=3, params={"sigmas": [1.0, 2.0, 0.1]}, seed=3
    )
    out = sample_path(spec, 20_000).values.real
    np.testing.assert_allclose(out.std(axis=0), [1.0, 2.0, 0.1], rtol=0.05)


def test_streams_are_deterministic_and_distinct():
    spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 1.0}, seed=7)
    a = sample_path(spec, 50, stream=0).values
    b = sample_path(spec, 50, stream=0).values
    c = sample_path(spec, 50, stream=1).values
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_pareto_exp_log_channel_is_exact_pareto():
    spec = NoiseSpec(kind="pareto_exp", dim=2, seed=11)
    path = sample_path(spec, 100_000)
    p = path.log_mags
    assert p.min() >= 1.0
    # index-1 Pareto: P(P > k) = 1/k
    for k in (2.0, 8.0, 32.0):
        assert np.mean(p > k) == pytest.approx(1.0 / k, rel=0.15)
    # linear channel saturates instead of overflowing
    assert np.all(np.isfinite(path.values.real))
    assert path.n_clamped == int((p > CLAMP_LOG).sum())
    big = p > CLAMP_LOG
    if big.any():
        assert np.abs(path.values[big, 0]).max() == pytest.approx(math.exp(CLAMP_LOG))
    # default direction is the first basis vector
    assert np.abs(path.values[:, 1]).max() == 0.0


def test_pareto_exp_rejects_other_indices_and_bad_directions():
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="pareto_exp", dim=1, params={"alpha": 2.0})
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="pareto_exp", dim=2, params={"direction": [1.0, 1.0]})
    ok = NoiseSpec(
        kind="pareto_exp", dim=2, params={"direction": [0.6, 0.8]}, seed=1
    )
    path = sample_path(ok, 10)
    ratio = path.values[:, 1] / path.values[:, 0]
    np.testing.assert_allclose(ratio, 0.8 / 0.6, rtol=1e-12)


def test_gamma_inv_tail_law_matches_analytic_cdf():
    spec = NoiseSpec(kind="gamma_inv_tail", dim=1, seed=13)
    y = sample_path(spec, 40_000).log_mags
    # Y = log X >= log x_1 = e for the default cutoff
    assert y.min() >= math.e - 1e-9
    # P(Y > y) = exp1(log y)/exp1(1): the probability transform is uniform
    u = exp1(np.log(y)) / exp1(1.0)
    stat = kstest(u, "uniform").statistic
    assert stat < 1.63 / math.sqrt(len(u))
    # log moment diverges: tail ~ 1/(C y log y), so k * P(Y > k) stays large
    for k in (16.0, 64.0):
        t = k * np.mean(y > k)
        assert t > 0.5


def test_gamma_inv_tail_cutoff_validation():
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": 10.0})
    ok = NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": 40.0}, seed=5)
    y = sample_path(ok, 1000).log_mags
    assert y.min() >= math.log(40.0) - 1e-9


def test_noise_path_window_arithmetic():
    spec = NoiseSpec(kind="gaussian", dim=1, seed=4)
    path = sample_path(spec, 10, t_start=-3)
    assert path.t_stop == 7 and len(path) == 10
    # values[i] is Z_{t_start + i}: the window [-1, 2] is rows 2..5
    np.testing.assert_array_equal(sample_path(spec, 4, t_start=-1).values, path.values[2:6])


def test_lognorms_fallback_for_gaussian():
    spec = NoiseSpec(kind="gaussian", dim=3, seed=6)
    path = sample_path(spec, 40)
    np.testing.assert_allclose(
        path.lognorms(), np.log(np.linalg.norm(path.values, axis=1)), rtol=1e-12
    )
    assert log_magnitude_samples(spec, 40).shape == (40,)


@pytest.mark.parametrize("sigma", [1e-300, 1e-200, 1e300])
def test_gaussian_log_magnitudes_shift_by_log_sigma(sigma):
    # sigma Z squares below the smallest normal float (or past the largest);
    # the log-norms are taken in power-of-two units and stay finite
    unit = log_magnitude_samples(NoiseSpec(kind="gaussian", dim=2, seed=4), 10_000)
    spec = NoiseSpec(kind="gaussian", dim=2, params={"sigma": sigma}, seed=4)
    np.testing.assert_allclose(
        log_magnitude_samples(spec, 10_000), unit + math.log(sigma), rtol=1e-12
    )


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_heavy_log_norms_through_a_tiny_gain_shift_by_its_log(scale):
    # ||s x||^2 is subnormal or 0 for these s, while log ||s x|| = log s is a plain float
    spec = NoiseSpec(kind="pareto_exp", dim=2, params={"direction": [0.6, 0.8]}, seed=3)
    gain = scale * np.eye(2, dtype=complex)
    plain = np.concatenate([logs for _, logs in log_norm_blocks(spec, 5_000, 0)])
    gained = np.concatenate([logs for _, logs in log_norm_blocks(spec, 5_000, 0, gain)])
    np.testing.assert_allclose(gained, plain + math.log(scale), rtol=1e-12)


def test_spec_validation():
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="cauchy", dim=1)
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="gaussian", dim=0)
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="gaussian", dim=2, params={"sigma": [1.0, -0.5]})
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="componentwise_gaussian", dim=2, params={"sigmas": 1.0})
    with pytest.raises(SpecificationError):
        NoiseSpec(kind="point_mass", dim=2, params={"value": [1.0]})
    with pytest.raises(SpecificationError):
        sample_path(NoiseSpec(kind="gaussian", dim=1), 0)


@pytest.mark.parametrize(
    "kind, params, bad",
    [
        ("gaussian", {"sigm": 1e6}, "['sigm']"),
        ("gamma_inv_tail", {"x_1": 20.0, "directon": [1.0]}, "['x_1', 'directon']"),
        ("point_mass", {"value": [1.0], "sigma": 1.0}, "['sigma']"),
    ],
)
def test_spec_rejects_params_its_kind_does_not_declare(kind, params, bad):
    takes = list(noise.NOISE_PARAMS[kind])
    with pytest.raises(SpecificationError, match=re.escape(f"{bad}; it takes {takes}")):
        NoiseSpec(kind=kind, dim=1, params=params)


@pytest.mark.parametrize(
    "spec, fields, match",
    [
        (OperatorSpec, {"kind": []}, "unknown operator kind"),
        (OperatorSpec, {"dim": True}, "dim must be a positive integer"),
        (NoiseSpec, {"dim": True}, "dim must be a positive integer"),
        (NoiseSpec, {"seed": True}, "seed must be an integer"),
        (NoiseSpec, {"seed": "abc"}, "seed must be an integer"),
        (NoiseSpec, {"params": {"sigma": True}}, "'sigma' must hold real numbers"),
        (NoiseSpec, {"params": {"sigma": "x"}}, "'sigma' must hold real numbers"),
        (NoiseSpec, {"params": {"sigma": [1.0, True]}}, "'sigma' must hold real numbers"),
        (NoiseSpec, {"kind": "pareto_exp", "params": {"alpha": True}}, "'alpha' must hold"),
        (NoiseSpec, {"kind": "pareto_exp", "params": {"alpha": [1]}}, "'alpha' must be one"),
        (NoiseSpec, {"kind": "gamma_inv_tail", "params": {"x1": "abc"}}, "'x1' must hold"),
        (NoiseSpec, {"kind": "point_mass", "params": {"value": [1, "a"]}}, "'value' must hold"),
        (OperatorSpec, {"dim": 10**400}, "the largest matrix side"),
        (NoiseSpec, {"dim": 10**400}, "the largest matrix side"),
    ],
)
def test_library_specs_reject_what_files_reject(spec, fields, match):
    kind = "identity" if spec is OperatorSpec else "gaussian"
    with pytest.raises(SpecificationError, match=match):
        spec(**{"kind": kind, "dim": 2, **fields})



def _spec(kind, dim):
    params = {
        "gaussian": {"sigma": 2.0},
        "componentwise_gaussian": {"sigmas": [0.5 + i for i in range(dim)]},
        "point_mass": {"value": [1.0 - 3.0 * i for i in range(dim)]},
    }.get(kind, {})
    return NoiseSpec(kind=kind, dim=dim, params=params, seed=5)


@pytest.mark.parametrize("kind", NOISE_KINDS)
@pytest.mark.parametrize(
    "first, second",
    [
        ((0, 10), (3, 10)),  # both at or past 0
        ((-40, 60), (-15, 30)),  # both straddle 0
        ((-25, 40), (-100, 90)),  # straddling and wholly below 0
        ((-90, 30), (-75, 40)),  # both wholly below 0
    ],
)
def test_overlapping_windows_agree_bitwise(kind, first, second):
    spec = _spec(kind, 2)
    a = sample_path(spec, first[1], t_start=first[0], stream=2)
    b = sample_path(spec, second[1], t_start=second[0], stream=2)
    lo = max(a.t_start, b.t_start)
    hi = min(a.t_stop, b.t_stop) - 1
    assert hi >= lo
    np.testing.assert_array_equal(
        a.values[lo - a.t_start : hi - a.t_start + 1],
        b.values[lo - b.t_start : hi - b.t_start + 1],
    )
    if a.log_mags is not None:
        np.testing.assert_array_equal(
            a.log_mags[lo - a.t_start : hi - a.t_start + 1],
            b.log_mags[lo - b.t_start : hi - b.t_start + 1],
        )


@pytest.mark.parametrize("kind", NOISE_KINDS)
def test_far_window_matches_window_from_zero(kind):
    spec = _spec(kind, 1)
    t0 = 100_000
    far = sample_path(spec, 8, t_start=t0)
    whole = sample_path(spec, t0 + 8)
    np.testing.assert_array_equal(far.values, whole.values[t0:])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -7])
def test_stream_keys_are_the_seed_sequence_keys(seed):
    streams = [0, 1, 2**32 - 1, 2**32]
    keys = noise._stream_keys(seed, streams)
    assert keys.shape == (4, 2, 2) and keys.dtype == np.uint64
    for i, stream in enumerate(streams):
        for side, spawn_key in enumerate([(stream,), (stream, 1)]):
            ss = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=spawn_key)
            assert keys[i, side].tobytes() == ss.generate_state(2, np.uint64).tobytes()


def test_a_rekeyed_generator_starts_its_stream_afresh():
    rng = make_rng(5, 3)
    rng.standard_normal(7)  # stops inside Philox's four-word buffer
    rng.random(dtype=np.float32)  # keeps the other half of a 64-bit word
    assert rng.bit_generator.state["has_uint32"] == 1
    key = noise._stream_keys(5, [9])[0, 1]
    got = noise._rekey(rng, key).standard_normal(11)
    ss = np.random.SeedSequence(5, spawn_key=(9, 1))
    assert got.tobytes() == np.random.Generator(np.random.Philox(ss)).standard_normal(11).tobytes()


def test_nonnegative_times_are_rows_of_make_rng():
    d, seed, stream = 3, 17, 4
    spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=seed)
    path = sample_path(spec, 30, t_start=-10, stream=stream)
    rows = make_rng(seed, stream).standard_normal((20, d))
    np.testing.assert_array_equal(path.values[10:], rows.astype(complex))

    heavy = NoiseSpec(kind="pareto_exp", dim=1, seed=seed)
    path = sample_path(heavy, 20, t_start=5, stream=stream)
    u = make_rng(seed, stream).random(25)[5:]
    np.testing.assert_array_equal(path.log_mags, 1.0 / (1.0 - u))


def test_negative_times_come_from_a_separate_stream():
    spec = NoiseSpec(kind="gaussian", dim=1, params={"sigma": 1.0}, seed=8)
    past = sample_path(spec, 50, t_start=-50).values[::-1]  # Z_{-1}, Z_{-2}, ...
    future = sample_path(spec, 50).values  # Z_0, Z_1, ...
    assert np.abs(past - future).min() > 0.0
    other = sample_path(spec, 50, t_start=-50, stream=1).values[::-1]
    assert np.abs(past - other).max() > 1e-3


def test_negative_times_are_reversed_rows_of_the_mirror_generator():
    d, seed, stream = 2, 17, 3
    mirror = np.random.SeedSequence(seed, spawn_key=(stream, 1))
    rows = np.random.Generator(np.random.Philox(mirror)).standard_normal((12, d))
    spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=seed)
    path = sample_path(spec, 15, t_start=-12, stream=stream)  # Z_{-12} .. Z_2
    np.testing.assert_array_equal(path.values[:12], rows[::-1])
    heavy = NoiseSpec(kind="pareto_exp", dim=1, seed=seed)
    u = np.random.Generator(np.random.Philox(mirror)).random(12)
    path = sample_path(heavy, 9, t_start=-12, stream=stream)  # Z_{-12} .. Z_{-4}
    np.testing.assert_array_equal(path.log_mags, (1.0 / (1.0 - u))[::-1][:9])


def _exact_tail_inverse(s, t, x1):
    """Newton-polish t towards -log(exp1(t) / exp1(t_1)) = s, the analytic gamma_inv_tail tail."""
    e1 = exp1(math.log(math.log(x1)))
    for _ in range(2):
        e = exp1(t)
        t = t - (-np.log(e / e1) - s) * t * e * np.exp(t)
    return t


@pytest.mark.parametrize("x1", [math.exp(math.e), 20.0, 40.0])
def test_gamma_inv_tail_log_magnitudes_match_the_exact_inverse(x1):
    spec = NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": x1})
    # uniforms whose -log(1 - U) sweep the drawn range evenly
    u = -np.expm1(-np.linspace(0.0, 36.0, 200_001))
    y = noise._log_magnitudes(spec, u)
    exact = np.exp(_exact_tail_inverse(-np.log(1.0 - u), np.log(y), x1))
    # linear interpolation on 8192 nodes uniform in -log P(Y > y)
    assert np.max(np.abs(y / exact - 1.0)) < 5e-7


def test_table_lookup_returns_the_top_node_at_and_beyond_the_top():
    table = noise._gamma_tail_table(math.exp(math.e))
    inv_h, nodes, _ = table
    top = (nodes.size - 1) / inv_h
    x = np.array([top, np.nextafter(top, np.inf), top + 1.0, 2.0 * top, 1e300, np.inf])
    assert np.all(noise._table_lookup(x, table) == nodes[-1])
    assert noise._table_lookup(np.array([0.0, -0.0]), table).tolist() == [nodes[0]] * 2
