"""Innovation sampling with exact log-space magnitudes for heavy tails.

The heavy-tailed kinds produce magnitudes like e^P with P Pareto(1),
which overflows double precision with probability around 1/700 per
draw.  Every path therefore carries the exact log-magnitudes alongside
linear values; the linear values are clamped at e^700 so downstream
linear algebra saturates instead of producing inf*0 = nan, and every
statistical computation that cares about tails reads the log channel.

Streams are counter-based (Philox) and keyed by (seed, stream): one
stream per replicate makes replicated runs bitwise reproducible no
matter how replicates are chunked or threaded.  Within a stream the
noise is time-addressed: Z_t is a function of (seed, stream, t) alone,
so every window, truncation depth and simulation method that reads Z_t
sees the same value.  Z_t for t >= 0 is row t of the (seed, stream)
generator; Z_t for t < 0 is row -t-1 of a mirror generator keyed by
(seed, stream) plus a fixed extra spawn-key entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import exp1

from ..errors import SpecificationError
from ..operators import _frobenius, _scaled_norm

NOISE_KINDS = (
    "gaussian",
    "componentwise_gaussian",
    "pareto_exp",
    "gamma_inv_tail",
    "point_mass",
)

#: kinds sampled as independent normals scaled per component
GAUSSIAN_KINDS = ("gaussian", "componentwise_gaussian")

#: kinds sampled as direction * magnitude with an exact log channel
HEAVY_KINDS = ("pareto_exp", "gamma_inv_tail")

#: linear sample magnitudes are clamped at e^CLAMP_LOG
CLAMP_LOG = 700.0

#: direction vectors must be unit to this tolerance
UNIT_TOL = 1e-12

_E_TO_E = math.exp(math.e)
_LN2 = math.log(2.0)

#: extra spawn-key entry of the mirror generator that carries t < 0
_MIRROR_KEY = 1

#: draws per discarded chunk when a window starts past row 0
_SKIP_DRAWS = 1 << 16


@dataclass(frozen=True)
class NoiseSpec:
    """Innovation distribution: kind, dimension, parameters, base seed.

    Kinds:

    - ``gaussian``: independent N(0, sigma_i^2) components; ``sigma`` may
      be a scalar (broadcast) or a length-d list.
    - ``componentwise_gaussian``: same law, but ``sigmas`` must be the
      full per-component list (the explicit-profile variant).
    - ``pareto_exp``: Z = x * e^P with fixed unit direction x and P
      Pareto of index 1 on [1, inf).  log||Z|| = P, so the log-log
      moment is finite while the log moment is not.
    - ``gamma_inv_tail``: Z = x * X with scalar X drawn from the density
      proportional to 1/(x (log x)^2 log log x) on [x_1, inf), x_1 >= e^e.
      Its log moment diverges, yet slower than any power: the
      gamma-inverse moment is finite.
    - ``point_mass``: the fixed vector ``value``, every draw.
    """

    kind: str
    dim: int
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise SpecificationError(f"unknown noise kind {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise SpecificationError(f"dim must be a positive integer, got {self.dim!r}")
        _law_factor(self)


def real_if_exact(x: np.ndarray) -> np.ndarray:
    """``x`` as a contiguous real array when no entry has an imaginary part."""
    if np.iscomplexobj(x) and x.imag.any():
        return x
    return np.ascontiguousarray(x.real)


def _unit_direction(params, d, key="direction"):
    """The unit direction vector: real unless some entry is truly complex."""
    if key not in params:
        x = np.zeros(d)
        x[0] = 1.0
        return x
    x = np.asarray(params[key], dtype=complex)
    if x.shape != (d,):
        raise SpecificationError(f"direction must have length {d}, got {x.shape}")
    nrm = _frobenius(x)
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise SpecificationError(
            f"direction must be unit norm (got ||x|| = {nrm!r}); normalize it first"
        )
    return real_if_exact(x)


def _sigma_vector(params, d, key, allow_scalar):
    raw = params.get(key, 1.0 if allow_scalar else None)
    if raw is None:
        raise SpecificationError(f"missing required param {key!r}")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        if not allow_scalar:
            raise SpecificationError(f"{key!r} must be a per-component list")
        arr = np.full(d, float(arr))
    if arr.shape != (d,):
        raise SpecificationError(f"{key!r} must have length {d}, got {arr.shape}")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise SpecificationError(f"{key!r} entries must be finite and >= 0")
    return arr


@dataclass
class NoisePath:
    """A contiguous window of innovations Z_t for t_start <= t < t_start + n.

    ``values[i]`` is Z_{t_start + i} with magnitudes clamped at e^700;
    ``log_mags[i]`` is the exact log ||Z_t|| for the scalar-amplitude
    kinds (None for Gaussian kinds, where linear norms are safe).
    ``values`` is float64 when the law is real (the Gaussian kinds always,
    the heavy kinds and ``point_mass`` when their direction or value has
    no imaginary part) and complex128 otherwise.
    ``n_clamped`` counts draws whose linear representation saturated.
    """

    t_start: int
    values: np.ndarray
    log_mags: np.ndarray | None = None
    n_clamped: int = 0

    def __len__(self):
        return self.values.shape[0]

    @property
    def t_stop(self) -> int:
        """One past the last covered time index."""
        return self.t_start + len(self)

    def lognorms(self) -> np.ndarray:
        if self.log_mags is not None:
            return self.log_mags
        return _log_norms(self.values)


def _log_norms(values: np.ndarray) -> np.ndarray:
    """log of the row norms of ``values`` (-inf for a zero row), free of overflow."""
    norms, k = _scaled_norm(values, axis=1)
    with np.errstate(divide="ignore"):
        return np.log(norms) + k * _LN2


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream), platform independent."""
    return _philox(seed, (int(stream),))


def _philox(seed: int, spawn_key: tuple) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


#: nodes of the gamma_inv_tail inverse-CDF table
_TAIL_NODES = 8192
#: top of that table in t = log log X; draws past it are clipped to it
_TAIL_T_TOP = 40.0


def _table_lookup(x: np.ndarray, table) -> np.ndarray:
    """Linear interpolation at ``x`` >= 0 in a table uniform in its argument, in place.

    ``table`` is (1 / h, nodes, steps): nodes[i] is the value at i h and
    steps[i] = nodes[i + 1] - nodes[i], with a last step of 0, so the node
    index is computed, not searched, and arguments at or above the top
    return the top node.
    """
    inv_h, nodes, steps = table
    x *= inv_h  # position in units of the table step
    np.clip(x, 0, steps.size - 1, out=x)
    i = x.astype(np.intp)
    x -= i
    x *= steps[i]
    x += nodes[i]
    return x


@lru_cache(maxsize=8)
def _gamma_tail_table(x1: float):
    """Inverse-CDF table of the gamma_inv_tail law, uniform in s = -log P(Y > y).

    With Y = log X, the tail is P(Y > y) = exp1(log y) / exp1(log y_1)
    exactly (differentiate exp1(log y) to see the density 1/(y^2 log y)
    appear).  Sampling therefore inverts s(t) = -log(exp1(t) / exp1(t_1))
    in t = log y, from t_1 up to t = 40, which spans tail probabilities
    down to ~1e-17.  The nodes t_i solve s(t_i) = i h: a dense table of
    s(t) gives the start, and two Newton steps with
    ds/dt = e^-t / (t exp1(t)) reach rounding.  Returns the
    :func:`_table_lookup` triple (1 / h, t_i, steps).
    """
    t1 = math.log(math.log(x1))
    e1 = exp1(t1)
    h = -math.log(exp1(_TAIL_T_TOP) / e1) / (_TAIL_NODES - 1)
    s = np.arange(_TAIL_NODES) * h
    t_dense = np.linspace(t1, _TAIL_T_TOP, _TAIL_NODES)
    t = np.interp(s, -np.log(exp1(t_dense) / e1), t_dense)
    for _ in range(2):
        e = exp1(t)
        t -= (-np.log(e / e1) - s) * t * e * np.exp(t)  # (s(t) - s) / s'(t)
    t[0], t[-1] = t1, _TAIL_T_TOP
    return 1.0 / h, t, np.append(np.diff(t), 0.0)


def _log_magnitudes(spec: NoiseSpec, uniforms: np.ndarray) -> np.ndarray:
    """Exact log ||Z|| of a heavy kind from its raw uniforms (unit direction)."""
    if spec.kind == "pareto_exp":
        # inverse CDF of index-1 Pareto: log ||Z|| = P
        return 1.0 / (1.0 - uniforms)
    table = _gamma_tail_table(float(spec.params.get("x1", _E_TO_E)))
    target = -np.log(1.0 - uniforms)  # 1 - U in (0, 1], avoids -log(0)
    return np.exp(_table_lookup(target, table))  # Y = log X = e^t


def _draw(spec: NoiseSpec, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` with the next rows of raw draws: d normals or one uniform per row."""
    if spec.kind in GAUSSIAN_KINDS:
        rng.standard_normal(out=out)
    else:
        rng.random(out=out)


def _rows(spec: NoiseSpec, spawn_key: tuple, first: int, out: np.ndarray) -> None:
    """Write rows ``first`` .. ``first + len(out) - 1`` of the raw draws keyed by ``spawn_key``.

    Earlier rows are drawn in fixed-size chunks and thrown away; chunked
    draws match one big draw bit for bit, and memory stays O(n d).
    """
    rng = _philox(spec.seed, spawn_key)
    step = max(1, _SKIP_DRAWS // spec.dim)
    skip = np.empty((min(step, first), *out.shape[1:]))
    for lo in range(0, first, step):
        _draw(spec, rng, skip[: min(step, first - lo)])
    _draw(spec, rng, out)


def _raw_window(spec: NoiseSpec, stream: int, t_start: int, out: np.ndarray) -> None:
    """Write the raw draws for t_start <= t < t_start + len(out) of ``stream`` into ``out``.

    Row t of the (seed, stream) generator for t >= 0; row -t-1 of the
    mirror generator for t < 0, read backwards into time order.
    """
    t_stop = t_start + out.shape[0]
    if t_start < 0:
        hi = min(t_stop, 0)
        mirror = out[: hi - t_start]
        _rows(spec, (stream, _MIRROR_KEY), -hi, mirror)
        mirror[:] = mirror[::-1]
    if t_stop > 0:
        lo = max(t_start, 0)
        _rows(spec, (stream,), lo, out[lo - t_start :])


def _law_factor(spec: NoiseSpec) -> np.ndarray:
    """The validated factor every Z_t of ``spec`` carries.

    The sigma vector of the Gaussian kinds, the unit direction of the
    heavy kinds, the value of ``point_mass``; its dtype is the paths'.
    Raises :class:`SpecificationError` on parameters the kind rejects.
    """
    p, d = spec.params, spec.dim
    if spec.kind == "gaussian":
        return _sigma_vector(p, d, "sigma", allow_scalar=True)
    if spec.kind == "componentwise_gaussian":
        return _sigma_vector(p, d, "sigmas", allow_scalar=False)
    if spec.kind == "point_mass":
        v = np.asarray(p.get("value", None), dtype=complex)
        if v.shape != (d,) or not np.isfinite(v).all():
            raise SpecificationError(f"point_mass needs a finite length-{d} 'value' vector")
        return real_if_exact(v)
    if spec.kind == "pareto_exp":
        if float(p.get("alpha", 1.0)) != 1.0:
            raise SpecificationError("pareto_exp supports only index alpha = 1")
    elif spec.kind == "gamma_inv_tail":
        x1 = float(p.get("x1", _E_TO_E))
        if not _E_TO_E * (1 - 1e-12) <= x1 < math.inf:
            raise SpecificationError(
                f"gamma_inv_tail needs a finite x1 >= e^e ~ {_E_TO_E:.4f} so that "
                f"log log x stays positive; got {x1}"
            )
    return _unit_direction(p, d)


def _window_into(spec: NoiseSpec, factor, stream: int, t_start: int, out: np.ndarray):
    """Write Z_t for t_start <= t < t_start + len(out) of ``stream`` into the rows of ``out``.

    ``factor`` is :func:`_law_factor` of ``spec``, so a caller filling many
    windows validates the spec once.  Returns the exact log-magnitudes,
    or None for the Gaussian kinds.
    """
    if spec.kind == "point_mass":
        out[:] = factor
        norm, k = _scaled_norm(factor)
        return np.full(out.shape[0], _safe_log(norm) + k * _LN2)
    if spec.kind in GAUSSIAN_KINDS:
        _raw_window(spec, stream, t_start, out)
        out *= factor
        return None
    uniforms = np.empty(out.shape[0])
    _raw_window(spec, stream, t_start, uniforms)
    logm = _log_magnitudes(spec, uniforms)
    np.multiply(np.exp(np.minimum(logm, CLAMP_LOG))[:, None], factor, out=out)
    return logm


def sample_path(
    spec: NoiseSpec, count: int, t_start: int = 0, stream: int = 0
) -> NoisePath:
    """The innovations Z_t for t_start <= t < t_start + count.

    Z_t depends only on (spec, stream, t), so overlapping windows agree bit
    for bit: row t of ``make_rng(spec.seed, stream)`` for t >= 0, row -t-1
    of the mirror generator for t < 0.
    """
    if count < 1:
        raise SpecificationError("count must be >= 1")
    factor = _law_factor(spec)
    values = np.empty((count, spec.dim), factor.dtype)
    logm = _window_into(spec, factor, int(stream), t_start, values)
    clamped = int((logm > CLAMP_LOG).sum()) if spec.kind in HEAVY_KINDS else 0
    return NoisePath(t_start=t_start, values=values, log_mags=logm, n_clamped=clamped)


def _safe_log(v: float) -> float:
    return math.log(v) if v > 0 else -math.inf


def heavy_direction(spec: NoiseSpec) -> np.ndarray:
    """The fixed unit direction of a direction * magnitude kind."""
    if spec.kind not in HEAVY_KINDS:
        raise SpecificationError(
            f"kind {spec.kind!r} has no fixed direction (one of {HEAVY_KINDS} does)"
        )
    return _law_factor(spec)


def log_magnitude_samples(spec: NoiseSpec, count: int, stream: int = 0) -> np.ndarray:
    """Exact log ||Z_t|| for 0 <= t < count, free of linear-scale overflow.

    The heavy kinds read them off the raw uniforms without forming Z_t.
    """
    if spec.kind not in HEAVY_KINDS:
        return sample_path(spec, count, stream=stream).lognorms()
    if count < 1:
        raise SpecificationError("count must be >= 1")
    uniforms = np.empty(count)
    _rows(spec, (int(stream),), 0, uniforms)
    return _log_magnitudes(spec, uniforms)
