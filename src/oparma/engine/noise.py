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

One generator, :func:`_raw_blocks`, reads every stream: it keys it, skips
to the first row wanted and yields the raw rows (d normals, or one
uniform, per t) in :func:`draw_chunks` blocks.  :func:`_window_into` decodes
them into paths, :func:`log_norm_blocks` into the log-norms that the
moment estimates and the scenarios' exceedance counts read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import SpecificationError
from ..operators import _LN2, _check_spec, _frobenius, _is_int, _ldexp, _scaled_norm

#: each noise kind's params and the form of each value ("real", "reals", "real
#: or reals" or a complex "vector"); :func:`_law_factor` checks the values
NOISE_PARAMS = {
    "gaussian": {"sigma": "real or reals"},
    "componentwise_gaussian": {"sigmas": "reals"},
    "pareto_exp": {"alpha": "real", "direction": "reals"},
    "gamma_inv_tail": {"x1": "real", "direction": "reals"},
    "point_mass": {"value": "vector"},
}

NOISE_KINDS = tuple(NOISE_PARAMS)

#: kinds sampled as independent normals scaled per component
GAUSSIAN_KINDS = ("gaussian", "componentwise_gaussian")

#: kinds sampled as direction * magnitude with an exact log channel
HEAVY_KINDS = ("pareto_exp", "gamma_inv_tail")

#: linear sample magnitudes are clamped at e^CLAMP_LOG
CLAMP_LOG = 700.0

#: direction vectors must be unit to this tolerance
UNIT_TOL = 1e-12

_E_TO_E = math.exp(math.e)

#: extra spawn-key entry of the mirror generator that carries t < 0
_MIRROR_KEY = 1

#: values per chunk of every bulk draw (skipped rows, Monte Carlo samples,
#: replicate blocks): working memory stays this size whatever the sample size
DRAW_CHUNK = 1 << 18


@dataclass(frozen=True)
class NoiseSpec:
    """Innovation distribution: kind, dimension, parameters, base seed.

    Kinds, taking only the params :data:`NOISE_PARAMS` declares for them:

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
        _check_spec("noise", NOISE_PARAMS, self)
        if not _is_int(self.seed):
            raise SpecificationError(f"seed must be an integer, got {self.seed!r}")
        _law_factor(self)


def real_if_exact(x: np.ndarray) -> np.ndarray:
    """``x`` as a contiguous real array when no entry has an imaginary part."""
    if np.iscomplexobj(x) and x.imag.any():
        return x
    return np.ascontiguousarray(x.real)


def _numbers(params, key, default, kind=numbers.Real) -> np.ndarray:
    """``params[key]``, or ``default``, as a float array (complex if ``kind`` is).

    Raises :class:`SpecificationError` unless every entry is a number of
    ``kind`` and not a bool.
    """
    raw = params.get(key, default)
    entries = np.asarray(raw, dtype=object).ravel()
    if not all(isinstance(v, kind) and not isinstance(v, bool) for v in entries):
        raise SpecificationError(f"{key!r} must hold {kind.__name__.lower()} numbers, got {raw!r}")
    return np.asarray(raw, dtype=float if kind is numbers.Real else complex)


def _real(params, key, default) -> float:
    x = _numbers(params, key, default)
    if x.ndim:
        raise SpecificationError(f"{key!r} must be one real number, got {params[key]!r}")
    return float(x)


def _unit_direction(params, d, key="direction"):
    """The unit direction vector: real unless some entry is truly complex."""
    if key not in params:
        x = np.zeros(d)
        x[0] = 1.0
        return x
    x = _numbers(params, key, None, numbers.Complex)
    if x.shape != (d,):
        raise SpecificationError(f"direction must have length {d}, got {x.shape}")
    nrm = _frobenius(x)
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise SpecificationError(
            f"direction must be unit norm (got ||x|| = {nrm!r}); normalize it first"
        )
    return real_if_exact(x)


def _sigma_vector(params, d, key, allow_scalar):
    if key not in params and not allow_scalar:
        raise SpecificationError(f"missing required param {key!r}")
    arr = _numbers(params, key, 1.0)
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
    ``log_mags[i]`` is the exact log ||Z_t|| for the heavy kinds (None
    for the others, whose :meth:`lognorms` are taken from ``values``).
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
    norms, k = _scaled_norm(values, axis=-1)
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
    # imported here so that importing the package leaves scipy.special unloaded
    from scipy.special import exp1

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


def draw_chunks(count: int, row_shape: tuple = (), fill=None, dtype=float):
    """Yield ``(lo, block)``: rows lo .. lo + len(block) - 1 of ``count`` rows, in order.

    Each ``block`` is a new (c, *row_shape) array of about
    :data:`DRAW_CHUNK` values (at least one row), so a caller that
    consumes one block at a time holds that much whatever ``count``.
    ``fill``, a bound ``random`` or ``standard_normal`` of one generator,
    fills every block before it is yielded: the generator runs on across
    blocks, never restarted, and since chunked draws match one big draw
    bit for bit, the blocks are that draw cut into pieces.  Without
    ``fill`` the blocks are left for the caller to fill.
    """
    step = max(1, DRAW_CHUNK // math.prod(row_shape))
    for lo in range(0, count, step):
        block = np.empty((min(step, count - lo), *row_shape), dtype)
        if fill is not None:
            fill(out=block)
        yield lo, block


def _raw_blocks(spec: NoiseSpec, spawn_key: tuple, first: int, count: int, row: tuple = ()):
    """Yield ``(lo, block)``: rows first + lo .. first + lo + len(block) - 1 of a raw stream.

    The one reader of raw draws.  Each of the ``count`` rows holds a
    ``row``-shaped group of raw rows: d normals for the Gaussian kinds, one
    uniform for the heavy kinds, d unfilled values for ``point_mass``, which
    draws nothing.  One generator keyed by ``spawn_key`` skips the rows
    before ``first`` and fills the rest, :func:`draw_chunks` block by block.
    """
    rng = _philox(spec.seed, spawn_key)
    if spec.kind in HEAVY_KINDS:
        shape, fill = row, rng.random
    else:
        shape, fill = (*row, spec.dim), rng.standard_normal if spec.kind in GAUSSIAN_KINDS else None
    for _ in draw_chunks(first, shape, fill):
        pass
    yield from draw_chunks(count, shape, fill)


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
        v = _numbers(p, "value", (), numbers.Complex)
        if v.shape != (d,) or not np.isfinite(v).all():
            raise SpecificationError(f"point_mass needs a finite length-{d} 'value' vector")
        return real_if_exact(v)
    if spec.kind == "pareto_exp":
        if _real(p, "alpha", 1.0) != 1.0:
            raise SpecificationError("pareto_exp supports only index alpha = 1")
    elif spec.kind == "gamma_inv_tail":
        x1 = _real(p, "x1", _E_TO_E)
        if not _E_TO_E * (1 - 1e-12) <= x1 < math.inf:
            raise SpecificationError(
                f"gamma_inv_tail needs a finite x1 >= e^e ~ {_E_TO_E:.4f} so that "
                f"log log x stays positive; got {x1}"
            )
    return _unit_direction(p, d)


def _window_into(spec: NoiseSpec, factor, stream: int, t_start: int, out: np.ndarray):
    """Write Z_t for t_start <= t < t_start + len(out) of ``stream`` into the rows of ``out``.

    ``factor`` is :func:`_law_factor` of ``spec``, so a caller filling many
    windows validates the spec once.  Z_t is raw row t of the (seed, stream)
    generator for t >= 0 and raw row -t-1 of the mirror generator for
    t < 0, read backwards into time order.  Returns the exact
    log-magnitudes of the heavy kinds, or None.
    """
    if spec.kind == "point_mass":
        out[:] = factor
        return None
    t_stop = t_start + out.shape[0]
    logm = np.empty(out.shape[0]) if spec.kind in HEAVY_KINDS else None
    sides = []  # (spawn key, first raw row, the rows of out in raw-row order)
    if t_start < 0:
        hi = min(t_stop, 0)
        sides.append(((stream, _MIRROR_KEY), -hi, slice(hi - t_start - 1, None, -1)))
    if t_stop > 0:
        lo = max(t_start, 0)
        sides.append(((stream,), lo, slice(lo - t_start, None)))
    for key, first, rows in sides:
        dest = out[rows]
        for lo, raw in _raw_blocks(spec, key, first, dest.shape[0]):
            part = slice(lo, lo + raw.shape[0])
            if logm is None:
                np.multiply(raw, factor, out=dest[part])
            else:  # exp and log on the contiguous block: a strided view may take another loop
                logs = _log_magnitudes(spec, raw)
                logm[rows][part] = logs
                np.multiply(np.exp(np.minimum(logs, CLAMP_LOG))[:, None], factor, out=dest[part])
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


def log_norm_blocks(spec: NoiseSpec, count: int, stream: int, gain=None, row: tuple = ()):
    """Yield ``(lo, logs)``: log ||T Z_t|| for lo <= t < lo + len(logs), over 0 <= t < count.

    T is the m x d matrix ``gain``, or the identity when None.  The blocks
    are :func:`_raw_blocks` blocks of ``stream``, ``row`` included.  The
    gain is taken in power-of-two units.  The heavy kinds read the exact
    log channel off their raw uniforms and add log ||T x|| for their
    direction x, so no linear value is formed.  The other kinds form T Z_t
    from both factors in power-of-two units, so the product neither
    overflows nor underflows; one (1, d) product per sample, because a 2-D
    product takes another BLAS route for a single row, which would tie a
    sample's bits to the size of its block.
    """
    factor = _law_factor(spec)
    blocks = _raw_blocks(spec, (int(stream),), 0, count, row)
    if gain is not None:
        _, kt = _scaled_norm(gain)
        gain = _ldexp(gain, -kt)
    if spec.kind in HEAVY_KINDS:
        shift = None if gain is None else _log_norms(gain @ factor) + kt * _LN2
        for lo, uniforms in blocks:
            logs = _log_magnitudes(spec, uniforms)
            yield lo, logs if shift is None else logs + shift
        return
    for lo, values in blocks:
        if spec.kind == "point_mass":
            values = np.broadcast_to(factor, values.shape).copy()
        else:
            values *= factor
        if gain is None:
            yield lo, _log_norms(values)
        else:
            _, kz = _scaled_norm(values)
            product = _ldexp(values, -kz, out=values)[..., None, :] @ gain.T
            yield lo, _log_norms(product[..., 0, :]) + (kz + kt) * _LN2


def log_magnitude_samples(spec: NoiseSpec, count: int, stream: int = 0) -> np.ndarray:
    """Exact log ||Z_t|| for 0 <= t < count, free of linear-scale overflow.

    Sampled a :data:`DRAW_CHUNK` at a time into the one count-float result.
    The Gaussian kinds scale each chunk's norms by its own power of two
    (``_scaled_norm``), so sigma near 1e-300 or 1e300 gives finite logs;
    that matches the whole sample's bit for bit unless some entry reaches
    2^500 or the largest stays below 2^-501.
    """
    if count < 1:
        raise SpecificationError("count must be >= 1")
    out = np.empty(count)
    for lo, logs in log_norm_blocks(spec, count, stream):
        out[lo : lo + logs.shape[0]] = logs
    return out
