"""Simulation of the strictly stationary ARMA solution.

Two independent routes to the same process, on the same time-addressed
innovations Z_t (see :mod:`.noise`):

- the split-series route: spectral splitting of the (lifted) AR
  operator into a contracting block L1 and an expanding block L2, then
  the causal series u1_t = L1 u1_{t-1} + f1_t run forward and the
  anticausal series u2_{t-1} = L2^{-1} (u2_t - f2_t) run backward, each
  as a doubling scan over a window of K + 1 (forward) and K (backward)
  terms;
- the MA(infinity) route: two-sided convolution with the transfer
  function's Laurent coefficients, as an overlap-save FFT over blocks
  anchored to absolute t (a direct lag sum for the heavy-tailed kinds).

The two routes are different algorithms (recursion against convolution),
so agreement between them (and a small residual in the defining
recursion) certifies the solution rather than assuming it.  The
anticausal index bookkeeping is validated by the recursion residual on
every simulation, not trusted from the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ..errors import (
    DimensionMismatchError,
    SpecificationError,
    WindowError,
)
from ..laurent import LaurentCoeffs
from ..operators import (
    ArmaModel,
    _exponent,
    _ldexp,
    _scaled_norm,
    _unit_ma,
    companion_lift,
    ma_moment_operator,
    spectral_radius,
)
from ..spectral import SpectralSplit, hyperbolic_split
from .noise import (
    HEAVY_KINDS,
    NoisePath,
    NoiseSpec,
    _generator,
    _law_factor,
    _stream_keys,
    _window_into,
    draw_chunks,
    real_if_exact,
    sample_path,
)

#: dropped-tail bound for the truncation depth, in units of the MA
#: operators' largest entry (see :func:`_split_depth`); tightened an
#: extra two decades below the 1e-10 residual target so that the few
#: dropped tails summed over AR and MA terms stay clear of it
DEFAULT_TAIL_TOL = 1e-12

#: Laurent reconstruction residual above which coefficients are not used
RECONSTRUCTION_MAX = 1e-6

#: partial-sum probes report this quantile of the norms over replicates
PROBE_QUANTILE = 0.9
#: ``plim_probe`` declares convergence when its last dispersion is at most this
PROBE_TOL = 1e-3

#: the KS check compares the laws at t and t + KS_SHIFT
KS_SHIFT = 5


@dataclass(frozen=True)
class SimulationResult:
    """A simulated window Y_t, t_start <= t <= t_stop_inclusive.

    ``max_residual`` is the recursion residual measured on every row of
    the window, from the p rows before it, against the noise actually
    used; ``truncation_K`` the kernel's one-sided lag reach.
    """

    t_start: int
    values: np.ndarray
    method: str
    truncation_K: int
    max_residual: float
    noise: NoisePath
    diagnostics: dict = field(default_factory=dict)

    @property
    def t_stop_inclusive(self) -> int:
        return self.t_start + self.values.shape[0] - 1

    def __len__(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class LagKernel:
    """Matrix-valued kernel: Y_t = sum_l psis[l - l_min] Z_{t-l}."""

    l_min: int
    psis: np.ndarray

    @property
    def l_max(self) -> int:
        return self.l_min + self.psis.shape[0] - 1


def _lag_states(step: np.ndarray, inputs: list):
    """States x_j = step x_{j-1} + inputs[j], x_{-1} = 0, inputs zero past the list."""
    x = np.zeros_like(inputs[0])
    for c in inputs:
        x = step @ x + c
        yield x
    while True:
        x = step @ x
        yield x


def _split_inputs(model: ArmaModel, split: SpectralSplit) -> tuple:
    """(L2^{-1}, [C_k], V1, V2): what the split coordinates read of ``split``.

    C_k is the dual rows of the basis change applied to the embedded B_k;
    V1 and V2 are contiguous copies of the bases' first blocks.
    """
    d = model.dim
    n2 = np.linalg.inv(split.block_outer)
    # the projections are oblique in general, so noise enters through the
    # dual rows of the basis change (first d columns: the lift's first block)
    c = [split.combine_inv[:, :d] @ b.matrix for b in model.ma_ops]
    # contiguous copies of the bases keep the batched products on BLAS
    v1, v2 = (np.ascontiguousarray(v[:d]) for v in (split.basis_inner, split.basis_outer))
    return n2, c, v1, v2


def _split_lag_states(model: ArmaModel, split: SpectralSplit):
    """The split kernel's two mirrored lag recursions, as state generators.

    With the MA operators folded into the state (C1_k, C2_k: dual rows of
    the basis change applied to the embedded B_k, zero past q), the causal
    side yields phi_m = L1 phi_{m-1} + C1_m for m = 0, 1, ... and the
    anticausal side a_q = 0, then a_m = L2^{-1} (a_{m+1} + C2_{m+1}) for
    m = q - 1, q - 2, ...  Each side contracts in its own direction of travel.
    """
    r = split.rank
    n2, c, _, _ = _split_inputs(model, split)
    a_q = np.zeros((split.dim - r, model.dim), dtype=complex)
    return (
        _lag_states(split.block_inner, [cj[:r] for cj in c]),
        _lag_states(n2, [a_q] + [n2 @ cj[r:] for cj in c[::-1]]),
    )


def _split_depth(model: ArmaModel, split=None) -> tuple[int, SpectralSplit]:
    """Reach K of the split kernel, and the split of the lifted AR operator.

    Runs :func:`_split_lag_states` keeping only the newest state per side,
    so memory is O(d^2).  K is the first lag past the MA window (K > q) at
    which both newest states, phi_K and a_{-K}, have norm <=
    :data:`DEFAULT_TAIL_TOL`, on the B_k of :func:`_unit_ma`.  The norm is
    measured on the lifted state rather than on its first block, so an
    order-p model whose kernel lag vanishes only transiently is not cut there.
    """
    lift = companion_lift(model)
    if split is None:
        split = hyperbolic_split(lift)
    elif split.dim != lift.dim:
        raise DimensionMismatchError(
            f"split has dim {split.dim}, lifted operator has {lift.dim}"
        )
    causal, anticausal = _split_lag_states(_unit_ma(model)[0], split)
    with np.errstate(over="ignore", invalid="ignore"):  # a state that overflows raises below
        for _ in range(model.q):
            next(anticausal)  # a_q .. a_1
        for k, newest in enumerate(zip(causal, anticausal)):  # (phi_k, a_{-k})
            # Frobenius norms of the newest states; vdot is the cheapest route at small d
            tail = max(abs(np.vdot(x, x)) for x in newest) ** 0.5
            if not math.isfinite(tail) and not all(np.isfinite(x).all() for x in newest):
                raise OverflowError(f"split kernel lag states leave the float range at lag {k}")
            if k > model.q and tail <= DEFAULT_TAIL_TOL:
                return k, split


def _depth_diagnostics(k: int, split: SpectralSplit) -> dict:
    radii = ("radius_inner", "radius_outer_inv")
    return {"truncation_K": k, **{key: split.diagnostics[key] for key in radii}}


def build_split_kernel(model: ArmaModel) -> tuple[LagKernel, SpectralSplit]:
    """Finite lag kernel of the split-series solution.

    psi_m = V1 phi_m for m >= 0 minus V2 a_m for m <= q - 1 (the states of
    :func:`_split_lag_states`), over the lags -K .. K with K from
    :func:`_split_depth`.  Order-p models go through the block companion
    lift; the kernel maps original noise to the original state (first
    block of the lifted solution).
    """
    k, split = _split_depth(model)
    d = model.dim
    causal, anticausal = _split_lag_states(model, split)
    phis = [next(causal) for _ in range(k + 1)]  # phi_0 .. phi_K
    alphas = [next(anticausal) for _ in range(model.q + k + 1)]  # a_q .. a_{-K}
    psis = np.zeros((2 * k + 1, d, d), dtype=complex)
    _, _, v1, v2 = _split_inputs(model, split)
    psis[k:] = v1 @ np.stack(phis)
    anti = (v2 @ np.stack(alphas[::-1]))[: 2 * k + 1]
    psis[: anti.shape[0]] -= anti  # lags -k .. min(q, k)
    return LagKernel(l_min=-k, psis=psis), split


def _check_noise(model: ArmaModel, noise) -> None:
    """Raise unless ``noise`` is a NoiseSpec of the model's dimension."""
    if not isinstance(noise, NoiseSpec):
        raise SpecificationError(f"noise must be a NoiseSpec, got {type(noise).__name__}")
    if noise.dim != model.dim:
        raise DimensionMismatchError(f"noise dim {noise.dim} does not match model dim {model.dim}")


def _window_sums(x: np.ndarray, step: np.ndarray, width: int) -> np.ndarray:
    """Rows y_t = sum_{j < width} step^j x_{t-j} for the last n - width + 1 of the n rows.

    ``x`` has shape (..., n, m); leading axes are replicates; ``width`` >= 1.
    A log-depth doubling scan with no loop over t: window sums of s rows
    double by x_t + step^s x_{t-s}, and the result gathers the windows of
    the set bits of ``width``, lowest first, by y_t = x_t + step^s y_{t-s}.
    Every output row goes through the same passes over full windows, so
    its bits do not depend on where it sits in ``x``.
    """
    out = None
    s, power = 1, step  # x holds s-row window sums (end-aligned), power = step^s
    while s <= width:
        # each sum is formed in its product's buffer, so a pass holds two
        # arrays of the size of x, not three
        if width & s:
            if out is None:
                out = x
            else:
                # the last len(out) - s rows of x line up with out shifted by s
                shifted = out[..., :-s, :] @ power.T
                shifted += x[..., s - out.shape[-2] :, :]
                out = shifted
        if 2 * s > width:
            break
        shifted = x[..., :-s, :] @ power.T
        shifted += x[..., s:, :]
        x = shifted
        power = power @ power
        s *= 2
    return out


def _lag_sum(z: np.ndarray, ops, lo: int, hi: int) -> np.ndarray:
    """Rows sum_j ops[j] z_{i-j} for rows i = lo .. hi - 1 of ``z`` (..., n, d)."""
    out = np.zeros((*z.shape[:-2], hi - lo, ops[0].shape[0]), z.dtype)
    for j, op in enumerate(ops):
        out += z[..., lo - j : hi - j, :] @ op.T
    return out


def _block_shape(n_lags: int) -> tuple[int, int]:
    """(size, step) of the overlap-save blocks for a kernel of ``n_lags`` lags.

    ``size`` is the smallest power of two >= 3 n_lags / 2; each block
    yields ``step`` = size - n_lags + 1 outputs.
    """
    size = 1 << ((3 * n_lags + 1) // 2 - 1).bit_length()
    return size, size - n_lags + 1


def _block_sum(z: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """``_lag_sum(z, ops, L - 1, n)`` for complex ``z`` (n, d) and L = len(ops), by FFT.

    Overlap-save (Oppenheim & Schafer, *Discrete-Time Signal Processing*,
    ch. 8): block b reads rows [b step, b step + size) of ``z`` and yields
    the ``step`` outputs after its first L - 1 rows, so n - L + 1 must be a
    multiple of ``step`` (:func:`_block_shape`).  Each block is scaled by
    the power of two that brings its peak into [1/2, 1) and unscaled
    after, both exactly, so its error is a few units of rounding times
    its largest value.  Every block goes through the same operations on
    arrays of the same shape, so its bits do not depend on how many
    blocks there are or where it sits among them.
    """
    n_lags, d = ops.shape[0], ops.shape[2]
    size, step = _block_shape(n_lags)
    n_blocks = (z.shape[0] - n_lags + 1) // step
    gains = np.fft.fft(ops, size, axis=0)  # (size, d, d): the transfer at each frequency
    # (n_blocks, size, d): block b is rows b step .. b step + size - 1, as a view
    blocks = np.lib.stride_tricks.sliding_window_view(z, size, axis=0)[::step].transpose(0, 2, 1)
    out = np.empty((n_blocks * step, d), complex)
    chunk = max(1, (1 << 16) // (d * size))  # blocks per pass, about 1 MB per array
    for lo in range(0, n_blocks, chunk):
        x = blocks[lo : lo + chunk].copy()
        exps = _exponent(x, axis=(1, 2))
        _ldexp(x, -exps, out=x)
        # one matrix-times-vector product per block and frequency (not one
        # product over all blocks), so a block's arithmetic does not depend
        # on the rest of the batch
        y = gains @ np.fft.fft(x, axis=1)[..., None]
        y = np.fft.ifft(y[..., 0], axis=1)[:, n_lags - 1 :]
        _ldexp(y, exps, out=y)
        out[lo * step : lo * step + y.shape[0] * step] = y.reshape(-1, d)
    return out


def _split_series(model, split, z, first, n_t, k) -> np.ndarray:
    """Y on ``n_t`` times by the two-pass recursion in split coordinates.

    ``z`` has shape (..., n, d); leading axes are replicates.  ``first`` is
    the row holding the noise at the first output time; ``z`` must reach
    k + q rows before it and k rows past the last.  Real noise is cast to
    the split's complex type once, not in every product.
    With f = sum_k C_k Z_{t-k} (C_k: dual rows of the basis change applied
    to the embedded B_k), u1_t = sum_{j <= K} L1^j f1_{t-j} and
    u2_t = sum_{j < K} L2^{-j} h_{t+j} with h_t = -L2^{-1} f2_{t+1};
    then Y_t is the first block of V1 u1_t + V2 u2_t.
    """
    r = split.rank
    z = z.astype(np.result_type(z, split.combine_inv), copy=False)
    n2, c, v1, v2 = _split_inputs(model, split)
    # h_t for t = t0 .. t1 + k - 1, reversed so the backward scan runs forward
    h = _lag_sum(z, [-n2 @ cj[r:] for cj in c], first + 1, first + n_t + k)
    h = np.ascontiguousarray(h[..., ::-1, :])
    f1 = _lag_sum(z, [cj[:r] for cj in c], first - k, first + n_t)  # t = t0 - k .. t1
    del z
    # drop each block once read, and form Y only after both scans, so that
    # no scan runs beside the output
    u1 = _window_sums(f1, np.ascontiguousarray(split.block_inner), k + 1)
    del f1
    u2 = _window_sums(h, n2, k)[..., ::-1, :]
    del h
    y = u1 @ v1.T
    del u1
    y += u2 @ v2.T
    return y


def _relative_max_norm(rows: np.ndarray, path: np.ndarray) -> float:
    """max_t ||rows_t|| / max_t ||path_t||, each side's norms in its own
    power-of-two units (:func:`.operators._scaled_norm`); a path that is
    exactly 0 reads 0 when ``rows`` is exactly 0 too and inf otherwise."""
    num, k_num = _scaled_norm(rows, axis=1)
    den, k_den = _scaled_norm(path, axis=1)
    num, den = num.max(), den.max()
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    with np.errstate(over="ignore", under="ignore"):
        return float(_ldexp(num / den, k_num - k_den))


def _relative_gap(values: np.ndarray, ref: np.ndarray) -> float:
    """max_t ||values_t - ref_t|| / max_t ||ref_t||."""
    return _relative_max_norm(values - ref, ref)


def recursion_residual(model: ArmaModel, y, z: NoisePath) -> float:
    """max_t ||Y_t - sum A_i Y_{t-i} - sum B_k Z_{t-k}|| / max_t ||Y_t||.

    ``y`` is anything with ``t_start`` and ``values``; the numerator's
    maximum runs over every t for which all required Y and Z indices are
    in range, the denominator's over every row of ``y``.  Y and Z are first
    scaled by the one power of two that brings their largest |entry| into
    [1/2, 1), up or down, so the products do not overflow, and noise
    multiplied by 2^k gives the same figure bit for bit; each norm is then
    taken in its own units (:func:`_relative_max_norm`), so a path far below
    the noise's scale is still measured.  A path that is exactly 0 reads 0
    when its residual is exactly 0 too (zero noise) and inf otherwise.
    """
    y_vals = np.asarray(y.values)
    y0 = int(y.t_start)
    n_y = y_vals.shape[0]
    p, q = model.p, model.q
    t_lo = max(y0 + p, z.t_start + q)
    t_hi = min(y0 + n_y - 1, z.t_stop - 1)
    if t_hi < t_lo:
        raise WindowError(
            f"no time point has all recursion terms in range "
            f"(valid would be [{t_lo}, {t_hi}])"
        )
    n_t = t_hi - t_lo + 1
    z_vals = z.values[t_lo - q - z.t_start : t_hi - z.t_start + 1]  # Z_{t_lo-q} .. Z_{t_hi}
    e = max(_exponent(y_vals), _exponent(z_vals))
    # rhs = sum B_k Z_{t-k}, then lhs = Y_t - sum A_i Y_{t-i}, each product
    # written into one reused buffer; the operators are complex
    zs = _ldexp(z_vals, -e, out=np.empty(z_vals.shape, complex))
    rhs = np.zeros((n_t, model.dim), complex)
    prod = np.empty_like(rhs)
    for k, b in enumerate(model.ma_ops):
        rhs += np.matmul(zs[q - k : q - k + n_t], b.matrix.T, out=prod)
    del zs
    ys = _ldexp(y_vals, -e, out=np.empty(y_vals.shape, complex))
    lhs = ys[t_lo - y0 : t_hi - y0 + 1].copy()
    for i, a in enumerate(model.ar_ops, start=1):
        lhs -= np.matmul(ys[t_lo - i - y0 : t_hi - i - y0 + 1], a.matrix.T, out=prod)
    lhs -= rhs
    del rhs, prod
    return _relative_max_norm(lhs, ys)


def _window(t_range) -> tuple:
    t0, t1 = int(t_range[0]), int(t_range[1])
    if t1 < t0:
        raise SpecificationError(f"empty time range {t_range}")
    return t0, t1


def _result(model, t0, values, method, truncation_k, path, diagnostics) -> SimulationResult:
    """Measure the recursion residual of rows t0 - p .. t1 and keep rows t0 .. t1.

    ``values`` holds Y_t for t0 - p <= t <= t1, so the residual's numerator
    covers every kept row.  Raises ``OverflowError`` naming the first time
    whose value is not finite, as heavy-tailed noise through an expanding
    block can make it.
    """
    window = SimpleNamespace(t_start=t0 - model.p, values=values)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise OverflowError(
            f"simulated path leaves the float range at t = {window.t_start + int(bad[0])}"
        )
    return SimulationResult(
        t_start=t0,
        values=values[model.p :],
        method=method,
        truncation_K=truncation_k,
        max_residual=recursion_residual(model, window, path),
        noise=path,
        diagnostics=dict(diagnostics),
    )


def simulate_theorem1(
    model: ArmaModel,
    noise,
    t_range: tuple = (0, 199),
    split: SpectralSplit | None = None,
) -> SimulationResult:
    """Simulate via the split-series solution.

    ``noise`` is a NoiseSpec; the scans compute the rows t0 - p .. t1, which
    the recursion residual reads, so a window of exactly their reach,
    K + q + p before the range and K after it, is sampled from its stream 0.
    K is the kernel's reach from :func:`_split_depth`; the forward scan sums
    K + 1 terms of f1 and the backward scan K terms of h.
    """
    k, split = _split_depth(model, split)
    t0, t1 = _window(t_range)
    _check_noise(model, noise)
    n_t = t1 - t0 + 1 + model.p
    path = sample_path(noise, n_t + 2 * k + model.q, t_start=t0 - model.p - k - model.q)
    with np.errstate(over="ignore", invalid="ignore"):  # _result names the first bad t
        values = _split_series(model, split, path.values, k + model.q, n_t, k)
    return _result(model, t0, values, "theorem1_split", k, path, _depth_diagnostics(k, split))


def simulate_ma(
    model: ArmaModel,
    coeffs: LaurentCoeffs,
    noise,
    t_range: tuple = (0, 199),
) -> SimulationResult:
    """Simulate via the two-sided MA representation with given coefficients.

    ``noise`` is a NoiseSpec; psi_k acts on Z_{t-k}.  The sum runs as the
    overlap-save FFT of :func:`_block_sum`, its blocks anchored to
    absolute t: block b yields b step <= t < (b + 1) step, so the noise is
    sampled out to the edges of the blocks that the rows t0 - p .. t1 touch
    (and back to t0 - q, for the recursion residual), and a value depends
    on t alone, not on the window.  The FFT error scales with the
    largest draw in a block, not with the terms an output reads, so the
    heavy kinds (:data:`.noise.HEAVY_KINDS`) take the direct lag sum over
    exactly the coefficients' reach instead.
    """
    if coeffs.reconstruction_residual > RECONSTRUCTION_MAX:
        raise SpecificationError(
            f"coefficients failed their reconstruction check "
            f"(residual {coeffs.reconstruction_residual:.3e} > {RECONSTRUCTION_MAX:g})"
        )
    reach = max(abs(coeffs.k_min), abs(coeffs.k_max))
    t0, t1 = _window(t_range)
    _check_noise(model, noise)
    n_lags = coeffs.k_max - coeffs.k_min + 1
    heavy = noise.kind in HEAVY_KINDS
    step = 1 if heavy else _block_shape(n_lags)[1]
    t_first = t0 - model.p  # the first row the recursion residual reads
    lo, hi = t_first // step * step, -(-(t1 + 1) // step) * step  # times of the rows computed
    start = min(lo - coeffs.k_max, t0 - model.q)  # the residual reads Z back to t0 - q
    path = sample_path(noise, hi - coeffs.k_min - start, t_start=start)
    z = path.values[lo - coeffs.k_max - start :]
    # real noise is cast to the coefficients' type once, not at every lag
    z = z.astype(np.result_type(z, coeffs.coeffs), copy=False)
    with np.errstate(over="ignore", invalid="ignore"):  # _result names the first bad t
        if heavy:
            values = _lag_sum(z, coeffs.coeffs, n_lags - 1, z.shape[0])
        else:
            values = _block_sum(z, coeffs.coeffs)[t_first - lo : t1 + 1 - lo]
    return _result(model, t0, values, "ma_infinity", reach, path, {"n_quad": coeffs.n_quad})


@dataclass(frozen=True)
class ProbeResult:
    """Dispersion of partial-sum increments over replicated noise."""

    n_grid: tuple
    dispersions: tuple
    converges: bool
    replicates: int


def _replicate_blocks(model: ArmaModel, noise_spec: NoiseSpec, count, replicates, t_start=0):
    """Noise windows [t_start, t_start + count) of streams 0 .. replicates - 1, in chunks.

    Yields ``(lo, block)`` with ``block`` of shape (c, count, d) holding
    streams lo .. lo + c - 1, of the paths' own dtype: the
    :func:`.noise.draw_chunks` blocks of :data:`.noise.DRAW_CHUNK` values,
    or one replicate where a window alone holds more.  Every replicate
    goes through the same products whatever c, so results do not depend
    on the chunk.  The keys of all the streams come from one
    :func:`.noise._stream_keys` pass, and one generator is restarted on
    each.
    """
    if replicates < 1:
        raise SpecificationError(f"need at least one replicate, got {replicates}")
    _check_noise(model, noise_spec)
    factor = _law_factor(noise_spec)
    keys = _stream_keys(noise_spec.seed, np.arange(replicates))
    rng = _generator()
    for lo, block in draw_chunks(replicates, (count, noise_spec.dim), dtype=factor.dtype):
        for i, row in enumerate(block):
            _window_into(noise_spec, factor, rng, keys[lo + i], t_start, row)
        yield lo, block


def _partial_sums(model: ArmaModel, noise_spec: NoiseSpec, spans, replicates: int) -> dict:
    """S_{a,b} = sum_{j=a}^{b-1} A^{j-q} M Z_j for each (a, b) in ``spans``, q <= a < b.

    A is the pd x pd companion lift and M the pd x d
    :func:`.operators.ma_moment_operator`.  S_n is the span (q, n), and
    S_{2n} - S_n the span (n, 2n), summed from its own terms rather than
    as the difference of two larger sums.  Returns {(a, b): (pd,
    replicates) array}; replicate i reads noise stream i.  The state is
    the (replicates, pd) block, never a pd x pd power chain:
    the span ends cut the rows into segments, and each span sums the
    carried terms A^{c-q} T of its segments [c, e), lowest first; a
    segment that no span reads is drawn, as the stream passes it, but
    never reduced.  The
    segment sum T = sum_{j=c}^{e-1} A^{j-c} M Z_j is reduced as aligned
    pairs x_{2i} + A^{2^l} x_{2i+1} (an odd tail keeps its last row) and
    A^{c-q} acts by the binary digits of its exponent.  The powers
    A^{2^l} come from repeated squaring, once per call.  The arithmetic
    is real when A, M and the noise are.  A sum that overflows is left
    to :func:`_norm_quantile`.
    """
    q = model.q
    # segment [c, e) of the rows j - q; span (a, b) covers those with a - q <= c < b - q
    bounds = sorted({0} | {end - q for span in spans for end in span})
    a_t = real_if_exact(companion_lift(model).matrix).T
    m_t = real_if_exact(ma_moment_operator(model)).T
    # T of each block, by segment start, for the segments some span reads: the
    # stream still passes the others (plim_probe's leading [0, n_0 - q))
    segments = {c: [] for c in bounds[:-1] if any(a - q <= c < b - q for a, b in spans)}
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [a_t]  # powers[l] = (A^(2^l))^T, for rows
        while len(powers) < (bounds[-1] - 1).bit_length():
            powers.append(powers[-1] @ powers[-1])
        am_t = m_t @ a_t  # (A M)^T: level 0 pairs M Z_{2i} + A M Z_{2i+1}
        for _, block in _replicate_blocks(model, noise_spec, bounds[-1], replicates):
            block = block.astype(np.result_type(block, a_t, m_t), copy=False)
            for c, e in zip(bounds, bounds[1:]):
                if c not in segments:
                    continue
                z = block[:, c:e]
                x = z[:, ::2] @ m_t
                x[:, : z.shape[1] // 2] += z[:, 1::2] @ am_t
                level = 1
                while x.shape[1] > 1:
                    x[:, : x.shape[1] // 2 * 2 : 2] += x[:, 1::2] @ powers[level]
                    x, level = x[:, ::2], level + 1
                segments[c].append(x[:, 0].copy())  # a view would keep all of x
        # the carried powers act on all replicates at once: a (c, d) product
        # takes another BLAS route when c = 1, so acting per block would tie
        # a replicate's bits to the block it was drawn in
        carried = {}
        for c, ts in segments.items():
            t = np.concatenate(ts)
            for level in range(c.bit_length()):
                if c >> level & 1:
                    t = t @ powers[level]
            carried[c] = t
    # (d, replicates) in C order, as before: the order in which the norms
    # sum over d follows the layout
    return {
        (a, b): np.ascontiguousarray(sum(t for c, t in carried.items() if a - q <= c < b - q).T)
        for a, b in spans
    }


def _probe_grid(model: ArmaModel, n_grid) -> tuple:
    """``n_grid`` as a tuple of ints, each past the MA window (n > q)."""
    n_grid = tuple(int(n) for n in n_grid)
    if any(n <= model.q for n in n_grid):
        raise SpecificationError(f"every n in the grid must exceed q={model.q}")
    return n_grid


def _norm_quantile(vectors: np.ndarray, label: str) -> float:
    """PROBE_QUANTILE of the column norms of ``vectors``; raises if one is not finite."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=0)
    if not np.isfinite(norms).all():
        raise OverflowError(f"||{label}|| overflows float range")
    return float(np.quantile(norms, PROBE_QUANTILE))


def plim_probe(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    n_grid=(64, 128, 256, 512),
    replicates: int = 200,
) -> ProbeResult:
    """Probe convergence in probability of the causal partial sums.

    For each n in the grid, estimates the :data:`PROBE_QUANTILE` of
    ||S_{2n} - S_n|| over replicates, where S_n = sum_{j=q}^{n-1}
    A^{j-q} M Z_j is the lifted state of :func:`_partial_sums`, for any
    order p; A must have spectral radius <= 1.  Convergence is declared
    when the final dispersion falls below :data:`PROBE_TOL`.  Useful
    verdicts need geometric or at least summable tails; near loglog-type
    boundaries the dispersion curve should be inspected rather than the
    flag trusted (the curve is returned for exactly that reason).  Raises
    ``OverflowError`` naming n when a partial sum or its norm leaves the
    float range, as heavy-tailed noise can make it.
    """
    rad = spectral_radius(companion_lift(model))
    if rad > 1.0 + 1e-9:
        raise SpecificationError(
            f"probe requires spectral radius <= 1, got {rad:.6f}"
        )
    n_grid = _probe_grid(model, n_grid)
    incs = _partial_sums(model, noise_spec, {(n, 2 * n) for n in n_grid}, replicates)
    dispersions = tuple(
        _norm_quantile(incs[n, 2 * n], f"S_{2 * n} - S_{n}") for n in n_grid
    )
    return ProbeResult(
        n_grid=n_grid,
        dispersions=dispersions,
        converges=bool(dispersions[-1] <= PROBE_TOL),
        replicates=replicates,
    )


def partial_sum_quantiles(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    n_grid,
    replicates: int = 200,
) -> np.ndarray:
    """:data:`PROBE_QUANTILE` of ||S_n|| itself (not increments) for each n.

    Used by the isometry growth check, where ||S_n|| drifts like sqrt(n)
    and increments never shrink.  Raises ``OverflowError`` like
    :func:`plim_probe`.
    """
    n_grid = _probe_grid(model, n_grid)
    sums = _partial_sums(model, noise_spec, {(model.q, n) for n in n_grid}, replicates)
    return np.array([_norm_quantile(sums[model.q, n], f"S_{n}") for n in n_grid])


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample KS statistic sup_x |F_a(x) - F_b(x)| of two samples of one size n.

    Both empirical CDFs jump only at sample points, so the sup is h / n for
    h the largest absolute difference of the integer counts at or below
    each of the 2n points.  For n <= 10 000 this is ``scipy.stats.ks_2samp``'s
    statistic bit for bit (its exact mode rounds to h / n); above that
    ks_2samp keeps the unrounded float difference, and this stays exact.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    counts = np.searchsorted(a, both, "right") - np.searchsorted(b, both, "right")
    return int(np.abs(counts).max()) / a.shape[0]


def stationarity_ks(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    replicates: int = 10_000,
) -> dict:
    """Two-sample KS check of distributional shift invariance.

    Compares the empirical laws of (||Y_t||, ||Y_{t+1}||) at t = t_a and
    t = t_a + :data:`KS_SHIFT` across independent replicates, each run by
    the two-pass scan of :func:`simulate_theorem1`.  Returns the two
    marginal KS statistics (:func:`_ks_statistic`: the exact h / replicates,
    equal to ``scipy.stats.ks_2samp``'s up to 10 000 replicates) and the 1%
    critical value 1.628 * sqrt(2/replicates).
    """
    k, split = _split_depth(model)
    q = model.q
    # each replicate's noise window starts at t = -q, so t_a = K; the law
    # is shift invariant, so any t_a would do
    n_t = KS_SHIFT + 2
    norms = np.empty((replicates, n_t))
    for lo, block in _replicate_blocks(model, noise_spec, n_t + 2 * k + q, replicates, -q):
        y = _split_series(model, split, block, k + q, n_t, k)
        norms[lo : lo + block.shape[0]] = np.linalg.norm(y, axis=2)
    crit = 1.628 * math.sqrt(2.0 / replicates)
    stat0 = _ks_statistic(norms[:, 0], norms[:, KS_SHIFT])
    stat1 = _ks_statistic(norms[:, 1], norms[:, KS_SHIFT + 1])
    return {
        "ks_statistic_t": stat0,
        "ks_statistic_t_plus_1": stat1,
        "critical_value": crit,
        "alpha": "1%",
        "passed": bool(stat0 < crit and stat1 < crit),
    }
