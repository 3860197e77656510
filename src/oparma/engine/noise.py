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

A Philox key is a pure function of the seed and the spawn key (NumPy
NEP 19; Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), so :func:`_stream_keys` computes the keys of a whole array of
streams, plain and mirror, in one vectorized pass of the ``SeedSequence``
hash, bit for bit the keys ``SeedSequence(seed, spawn_key=(stream,))`` and
``spawn_key=(stream, 1)`` give: every sample is the one a generator built
from that ``SeedSequence`` draws.  It is the only keying route; a reader
builds one Philox generator and restarts it on each stream's key
(:func:`_rekey`).

:func:`_raw_blocks` reads a keyed stream: it skips to the first row wanted
and yields the raw rows (d normals, or one uniform, per t) in
:func:`draw_chunks` blocks.  :func:`_window_into` draws the Gaussian kinds'
windows straight into their destination rows and decodes the blocks of
the heavy kinds into paths; :func:`log_norm_blocks` decodes them into the
log-norms that the moment estimates and the scenarios' exceedance counts
read.
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


def _unit_direction(params, d):
    """The unit ``direction`` vector: real unless some entry is truly complex."""
    if "direction" not in params:
        x = np.zeros(d)
        x[0] = 1.0
        return x
    x = _numbers(params, "direction", None, numbers.Complex)
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
    return _rekey(_generator(), _stream_keys(seed, [stream])[0, 0])


_M32 = 0xFFFFFFFF
#: SeedSequence's default pool size, in 32-bit words
_POOL = 4
#: the largest spawn key here: a stream of two 32-bit words and the mirror entry
_MAX_SPAWN_WORDS = 3


def _running_constants(init, mult, n):
    """The n + 1 values a SeedSequence hash constant takes: init, init * mult, ... mod 2^32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


#: the constants of numpy's SeedSequence (numpy/random/bit_generator.pyx):
#: hash call k of the entropy mixing reads _HASH_A[k] and _HASH_A[k + 1];
#: word k of generate_state reads _HASH_B[k] and _HASH_B[k + 1]
_HASH_A = _running_constants(0x43B0D7E5, 0x931E8875, _POOL**2 + _POOL * _MAX_SPAWN_WORDS)
_HASH_B = _running_constants(0x8B51F9DD, 0x58F38DED, _POOL)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash(value, before, after):
    """SeedSequence's hash of a 32-bit word whose running constant goes from ``before`` to ``after``.

    Words are Python ints or uint64 arrays holding 32-bit values; every
    product is masked back to 32 bits, so both wrap as the uint32 original.
    """
    value = (value ^ before) * after & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (Python ints or uint64 arrays)."""
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return x ^ x >> 16


def _mix_in(pool, word, k):
    """Mix a spawn-key word past the pool into the four words of ``pool`` (n, 4).

    Hash calls k .. k + 3 of the entropy mixing, one per pool word, as one
    array step.
    """
    consts = np.array(_HASH_A[k : k + _POOL + 1], np.uint64)
    return _mix(pool, _hash(word, consts[:-1], consts[1:]))


def _generate_state(pool) -> np.ndarray:
    """SeedSequence's ``generate_state(2, np.uint64)`` of each row of ``pool`` (n, 4): (n, 2)."""
    consts = np.array(_HASH_B, np.uint64)
    out = _hash(pool, consts[:-1], consts[1:])
    return out[:, 0::2] | out[:, 1::2] << 32  # little-endian pairs of 32-bit words


def _stream_keys(seed: int, streams) -> np.ndarray:
    """Philox keys of ``streams`` under ``seed``: (n, 2, 2) uint64, plain then mirror.

    ``keys[i, 0]`` is ``np.random.SeedSequence(seed & (2**64 - 1),
    spawn_key=(streams[i],)).generate_state(2, np.uint64)`` and
    ``keys[i, 1]`` the same with ``spawn_key=(streams[i], _MIRROR_KEY)``,
    bit for bit, computed in one vectorized pass of that hash.  The seed's
    words, padded to the four-word pool, are mixed once; then each
    spawn-key word (a stream's one word below 2^32, or two from there, then
    the mirror entry) is mixed into the pools of all streams at once, so the
    plain key is read off the mirror key's prefix.
    """
    seed = int(seed) & (2**64 - 1)
    words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    words += [0] * (_POOL - len(words))
    pool = [_hash(w, _HASH_A[k], _HASH_A[k + 1]) for k, w in enumerate(words)]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _HASH_A[k], _HASH_A[k + 1]))
                k += 1
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1, 1)
    keys = np.empty((streams.shape[0], 2, 2), np.uint64)
    wide = streams[:, 0] > _M32
    for rows, n_words in ((~wide, 1), (wide, 2)):
        if rows.any():
            mixer, j = np.array(pool, np.uint64), k
            for word in (streams[rows] & _M32, streams[rows] >> 32)[:n_words]:
                mixer, j = _mix_in(mixer, word, j), j + _POOL
            keys[rows, 0] = _generate_state(mixer)
            keys[rows, 1] = _generate_state(_mix_in(mixer, _MIRROR_KEY, j))
    return keys


def _generator() -> np.random.Generator:
    """A Philox generator for :func:`_rekey` to restart on each stream's key."""
    return np.random.Generator(np.random.Philox(0))


def _rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` restarted at counter 0 of the Philox stream ``key``, a :func:`_stream_keys` entry.

    The state of a Philox generator built from a ``SeedSequence`` whose
    ``generate_state(2, np.uint64)`` is ``key``: its buffer empty and no
    half-used 32-bit word.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": key},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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


def _raw_blocks(spec: NoiseSpec, rng, first: int, count: int, row: tuple = (), out=None):
    """Yield ``(lo, block)``: rows first + lo .. first + lo + len(block) - 1 of a raw stream.

    The one reader of raw draws.  Each of the ``count`` rows holds a
    ``row``-shaped group of raw rows: d normals for the Gaussian kinds, one
    uniform for the heavy kinds, d unfilled values for ``point_mass``, which
    draws nothing.  ``rng``, keyed to the stream by :func:`_rekey`, skips
    the rows before ``first`` and fills the rest, :func:`draw_chunks` block
    by block, or, given a C-contiguous ``out`` of those rows, straight into
    it as one block: it holds them anyway, and one draw equals the chunked
    draws bit for bit.
    """
    if spec.kind in HEAVY_KINDS:
        shape, fill = row, rng.random
    else:
        shape, fill = (*row, spec.dim), rng.standard_normal if spec.kind in GAUSSIAN_KINDS else None
    for _ in draw_chunks(first, shape, fill):
        pass
    if out is None:
        yield from draw_chunks(count, shape, fill)
    else:
        fill(out=out)
        yield 0, out


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


def _window_into(spec: NoiseSpec, factor, rng, keys, t_start: int, out: np.ndarray):
    """Write Z_t for t_start <= t < t_start + len(out) of one stream into the rows of ``out``.

    ``factor`` is :func:`_law_factor` of ``spec``, so a caller filling many
    windows validates the spec once; ``keys`` is the stream's
    :func:`_stream_keys` entry and ``rng`` the generator that
    :func:`_rekey` restarts on each side's key.  Z_t is raw row t of the
    (seed, stream) generator for t >= 0 and raw row -t-1 of the mirror
    generator for t < 0, read backwards into time order.  The Gaussian
    kinds draw each side straight into its rows of ``out``, which must be
    C-contiguous, and scale it there.  Returns the exact log-magnitudes of
    the heavy kinds, or None.
    """
    if spec.kind == "point_mass":
        out[:] = factor
        return None
    n = out.shape[0]
    t_stop = t_start + n
    logm = np.empty(n) if spec.kind in HEAVY_KINDS else None
    sides = []  # (key, first raw row, the rows of out it fills, whether raw order runs back in time)
    if t_start < 0:
        sides.append((keys[1], -min(t_stop, 0), slice(0, min(t_stop, 0) - t_start), True))
    if t_stop > 0:
        sides.append((keys[0], max(t_start, 0), slice(max(t_start, 0) - t_start, n), False))
    for key, first, span, backwards in sides:
        _rekey(rng, key)
        if logm is None:
            dest = out[span]
            for _ in _raw_blocks(spec, rng, first, dest.shape[0], out=dest):
                pass
            # a mirror side turns into time order as it is scaled (numpy buffers the overlap)
            np.multiply(dest[::-1] if backwards else dest, factor, out=dest)
            continue
        rows = slice(span.stop - 1, None, -1) if backwards else span
        dest = out[rows]
        for lo, raw in _raw_blocks(spec, rng, first, dest.shape[0]):
            part = slice(lo, lo + raw.shape[0])
            # exp and log on the contiguous block: a strided view may take another loop
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
    keys = _stream_keys(spec.seed, [stream])[0]
    logm = _window_into(spec, factor, _generator(), keys, t_start, values)
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
    blocks = _raw_blocks(spec, make_rng(spec.seed, stream), 0, count, row)
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
