"""Simulation of the strictly stationary ARMA solution.

Two independent routes to the same process:

- the split-series route: spectral splitting of the (lifted) AR
  operator into a contracting block and an expanding block, then the
  causal series on the contracting side plus the anticausal series on
  the expanding side;
- the MA(infinity) route: direct two-sided convolution with the
  transfer function's Laurent coefficients.

Both reduce to a finite lag kernel applied to the same time-addressed
innovations Z_t (see :mod:`.noise`), so agreement between them (and a
small residual in the defining recursion) certifies the solution rather
than assuming it.  The anticausal index bookkeeping is validated by the
recursion residual on every simulation, not trusted from the derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import (
    DimensionMismatchError,
    SpecificationError,
    WindowError,
)
from ..laurent import LaurentCoeffs
from ..operators import (
    ArmaModel,
    apply_batch,
    companion_lift,
    ma_moment_operator,
    spectral_radius,
)
from ..spectral import SpectralSplit, hyperbolic_split
from .noise import NoisePath, NoiseSpec, sample_path

#: dropped-tail bound for the automatic truncation choice; tightened an
#: extra two decades below the 1e-10 residual target so that the few
#: dropped tails summed over AR and MA terms stay clear of it
DEFAULT_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class SimulationResult:
    """A simulated window Y_t, t_start <= t <= t_stop_inclusive.

    ``max_residual`` is the recursion residual measured on the interior
    of the window against the noise actually used; ``truncation_K`` the
    kernel's one-sided lag reach.
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
    diagnostics: dict = field(default_factory=dict)

    @property
    def l_max(self) -> int:
        return self.l_min + self.psis.shape[0] - 1


def _choose_truncation(split: SpectralSplit, model: ArmaModel, tail_tol: float) -> int:
    """Smallest K with rho^K * amplification <= tail_tol, with a floor.

    rho is the larger of the contracting radius and the inverse
    expanding radius; amplification accounts for the conditioning of the
    basis change and the MA operator sizes.  The floor d + q + 1 covers
    nilpotent blocks whose powers vanish identically before any
    geometric estimate kicks in.
    """
    rho = max(split.diagnostics["radius_inner"], split.diagnostics["radius_outer_inv"])
    floor = split.dim + model.q + 1
    if rho <= 0.0:
        return floor
    amp = (
        np.linalg.norm(split.combine, 2)
        * np.linalg.norm(split.combine_inv, 2)
        * max(np.linalg.norm(b.matrix, 2) for b in model.ma_ops)
    )
    amp = max(amp, 1.0)
    k = int(math.ceil(math.log(tail_tol / amp) / math.log(rho)))
    return max(k, floor)


def build_split_kernel(
    model: ArmaModel,
    split: SpectralSplit | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    k_trunc: int | None = None,
) -> tuple[LagKernel, SpectralSplit]:
    """Finite lag kernel of the split-series solution.

    Causal side: coefficients on Z_{t-j}, j >= 0, built from the
    contracting block L1 via Phi_j = L1 Phi_{j-1} + C_j (C_j = 0 past
    q).  Anticausal side: coefficients on Z_{t+j}, j >= 1-q, built from
    the expanding block's inverse.  Order-p models go through the block
    companion lift; the kernel maps original noise to the original
    state (first block of the lifted solution).

    ``k_trunc`` forces the truncation depth instead of deriving it from
    ``tail_tol`` (floored at q + 1 so every boundary lag exists).
    """
    lift = companion_lift(model)
    if split is None:
        split = hyperbolic_split(lift.operator)
    elif split.dim != lift.operator.dim:
        raise DimensionMismatchError(
            f"split has dim {split.dim}, lifted operator has {lift.operator.dim}"
        )
    d = model.dim
    q = model.q
    embed = lift.noise_embedding
    v_in, v_out = split.basis_inner, split.basis_outer
    r = split.rank
    s = split.dim - r
    # the projections are oblique in general, so noise enters through the
    # dual rows of the basis change, not through the adjoints of the bases
    dual_in = split.combine_inv[:r]
    dual_out = split.combine_inv[r:]
    c1 = [dual_in @ (embed @ b.matrix) for b in model.ma_ops]
    c2 = [dual_out @ (embed @ b.matrix) for b in model.ma_ops]

    if k_trunc is None:
        k_trunc = _choose_truncation(split, model, tail_tol)
    else:
        k_trunc = max(int(k_trunc), q + 1)
    psis = np.zeros((2 * k_trunc + 1, d, d), dtype=complex)

    if r > 0:
        phi = np.zeros((r, d), dtype=complex)
        l1 = split.block_inner
        for j in range(0, k_trunc + 1):
            phi = l1 @ phi
            if j <= q:
                phi = phi + c1[j]
            psis[k_trunc + j] += (v_in @ phi)[:d]
    if s > 0:
        l2 = split.block_outer
        n2 = np.linalg.inv(l2)
        # partial sums E_m = sum_{k=m}^{q} L2^{-k} C2_k, needed for the
        # boundary lags where only part of the MA window has entered
        dks = []
        pw = np.eye(s, dtype=complex)
        for k in range(0, q + 1):
            dks.append(pw @ c2[k])
            pw = n2 @ pw
        e = [np.zeros((s, d), dtype=complex) for _ in range(q + 2)]
        for m in range(q, -1, -1):
            e[m] = e[m + 1] + dks[m]
        for j in range(1 - q, 1):
            w = np.linalg.matrix_power(l2, -j) @ e[1 - j]
            psis[k_trunc - j] -= (v_out @ w)[:d]
        w = n2 @ e[0]
        for j in range(1, k_trunc + 1):
            psis[k_trunc - j] -= (v_out @ w)[:d]
            w = n2 @ w
    diagnostics = {
        "truncation_K": k_trunc,
        "radius_inner": split.diagnostics["radius_inner"],
        "radius_outer_inv": split.diagnostics["radius_outer_inv"],
        "tail_tol": tail_tol,
    }
    return LagKernel(l_min=-k_trunc, psis=psis, diagnostics=diagnostics), split


def laurent_kernel(coeffs: LaurentCoeffs) -> LagKernel:
    """Laurent coefficients as a lag kernel: psi_k acts on Z_{t-k}."""
    return LagKernel(
        l_min=coeffs.k_min,
        psis=coeffs.coeffs,
        diagnostics={"n_quad": coeffs.n_quad},
    )


def _materialize_noise(noise, dim, t0, t1, kernel: LagKernel, stream: int = 0) -> NoisePath:
    need_lo = t0 - kernel.l_max
    need_hi = t1 - kernel.l_min
    if isinstance(noise, NoiseSpec):
        if noise.dim != dim:
            raise DimensionMismatchError(
                f"noise dim {noise.dim} does not match model dim {dim}"
            )
        return sample_path(noise, need_hi - need_lo + 1, t_start=need_lo, stream=stream)
    if not isinstance(noise, NoisePath):
        raise SpecificationError("noise must be a NoiseSpec or a NoisePath")
    if noise.values.shape[1] != dim:
        raise DimensionMismatchError(
            f"noise path dim {noise.values.shape[1]} does not match model dim {dim}"
        )
    if noise.t_start > need_lo or noise.t_stop <= need_hi:
        raise WindowError(
            f"noise window [{noise.t_start}, {noise.t_stop}) does not cover "
            f"required [{need_lo}, {need_hi}]"
        )
    return noise


def _convolve(kernel: LagKernel, noise: NoisePath, t0: int, t1: int) -> np.ndarray:
    n_t = t1 - t0 + 1
    d_out = kernel.psis.shape[1]
    out = np.zeros((n_t, d_out), dtype=complex)
    z0 = noise.t_start
    vals = noise.values
    for i in range(kernel.psis.shape[0]):
        lag = kernel.l_min + i
        a = t0 - lag - z0
        seg = vals[a : a + n_t]
        out += seg @ kernel.psis[i].T
    return out


def recursion_residual(model: ArmaModel, y, z: NoisePath) -> float:
    """max_t ||Y_t - sum A_i Y_{t-i} - sum B_k Z_{t-k}|| / (1 + max_t ||Y_t||).

    ``y`` is anything with ``t_start`` and ``values``; the maximum runs
    over every t for which all required Y and Z indices are in range.
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
    lhs = y_vals[t_lo - y0 : t_hi - y0 + 1].astype(complex).copy()
    for i, a in enumerate(model.ar_ops, start=1):
        seg = y_vals[t_lo - i - y0 : t_hi - i - y0 + 1]
        lhs -= seg @ a.matrix.T
    rhs = np.zeros_like(lhs)
    for k, b in enumerate(model.ma_ops):
        seg = z.values[t_lo - k - z.t_start : t_hi - k - z.t_start + 1]
        rhs += seg @ b.matrix.T
    num = np.linalg.norm(lhs - rhs, axis=1).max()
    den = 1.0 + np.linalg.norm(y_vals, axis=1).max()
    return float(num / den)


def _simulate(model, kernel, noise, t_range, stream, method, truncation_k):
    """Apply ``kernel`` to the noise on ``t_range`` and measure the recursion residual."""
    t0, t1 = int(t_range[0]), int(t_range[1])
    if t1 < t0:
        raise SpecificationError(f"empty time range {t_range}")
    path = _materialize_noise(noise, model.dim, t0, t1, kernel, stream)
    res = SimulationResult(
        t_start=t0,
        values=_convolve(kernel, path, t0, t1),
        method=method,
        truncation_K=truncation_k,
        max_residual=float("nan"),
        noise=path,
        diagnostics=dict(kernel.diagnostics),
    )
    if t1 - t0 < model.p:
        return res
    return replace(res, max_residual=recursion_residual(model, res, path))


def simulate_theorem1(
    model: ArmaModel,
    noise,
    t_range: tuple = (0, 199),
    split: SpectralSplit | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    stream: int = 0,
    k_trunc: int | None = None,
) -> SimulationResult:
    """Simulate via the split-series solution.

    ``noise`` is a NoiseSpec (a window of exactly the required reach is
    sampled) or a NoisePath that must already cover it.
    """
    kernel, _ = build_split_kernel(model, split, tail_tol, k_trunc)
    return _simulate(model, kernel, noise, t_range, stream, "theorem1_split", -kernel.l_min)


def simulate_ma(
    model: ArmaModel,
    coeffs: LaurentCoeffs,
    noise,
    t_range: tuple = (0, 199),
    stream: int = 0,
) -> SimulationResult:
    """Simulate via the two-sided MA representation with given coefficients."""
    if coeffs.reconstruction_residual > 1e-6:
        raise SpecificationError(
            f"coefficients failed their reconstruction check "
            f"(residual {coeffs.reconstruction_residual:.3e} > 1e-6)"
        )
    reach = max(abs(coeffs.k_min), abs(coeffs.k_max))
    kernel = laurent_kernel(coeffs)
    return _simulate(model, kernel, noise, t_range, stream, "ma_infinity", reach)


@dataclass(frozen=True)
class ProbeResult:
    """Dispersion of partial-sum increments over replicated noise."""

    n_grid: tuple
    dispersions: tuple
    converges: bool
    quantile: float
    tol: float
    replicates: int


def plim_probe(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    n_grid=(64, 128, 256, 512),
    replicates: int = 200,
    quantile: float = 0.9,
    tol: float = 1e-3,
) -> ProbeResult:
    """Probe convergence in probability of the causal partial sums.

    For each n in the grid, estimates the ``quantile`` of
    ||S_{2n} - S_n|| over replicates, where S_n = sum_{j=q}^{n-1}
    A^{j-q} M Z_j and M = sum_k A^{q-k} B_k.  Convergence is declared
    when the final dispersion falls below ``tol``.  Useful verdicts need
    geometric or at least summable tails; near loglog-type boundaries
    the dispersion curve should be inspected rather than the flag
    trusted (the curve is returned for exactly that reason).
    """
    if model.p != 1:
        raise SpecificationError("probe expects a first-order model; lift first")
    rad = spectral_radius(model.ar_ops[0]).value
    if rad > 1.0 + 1e-9:
        raise SpecificationError(
            f"probe requires spectral radius <= 1, got {rad:.6f}"
        )
    if noise_spec.dim != model.dim:
        raise DimensionMismatchError(
            f"noise dim {noise_spec.dim} does not match model dim {model.dim}"
        )
    n_grid = tuple(int(n) for n in n_grid)
    if any(n <= model.q for n in n_grid):
        raise SpecificationError(f"every n in the grid must exceed q={model.q}")
    a_op = model.ar_ops[0]
    m_op = ma_moment_operator(model)
    d = model.dim
    q = model.q
    n_max = 2 * max(n_grid)
    count = n_max - q
    snapshots = sorted(set(n_grid) | {2 * n for n in n_grid})
    snap_index = {n: i for i, n in enumerate(snapshots)}
    diff_norms = {n: np.empty(replicates) for n in n_grid}

    chunk = max(1, min(replicates, int(4e6 / max(count * d, 1))))
    for lo in range(0, replicates, chunk):
        ids = range(lo, min(lo + chunk, replicates))
        block = np.stack(
            [sample_path(noise_spec, count, stream=rid).values for rid in ids]
        )  # (c, count, d)
        c = block.shape[0]
        s = np.zeros((d, c), dtype=complex)
        snaps = np.zeros((len(snapshots), d, c), dtype=complex)
        u = m_op.copy()
        for j in range(q, n_max):
            s = s + u @ block[:, j - q, :].T
            if (j + 1) in snap_index:
                snaps[snap_index[j + 1]] = s
            u = apply_batch(a_op, u)
        for n in n_grid:
            dd = snaps[snap_index[2 * n]] - snaps[snap_index[n]]
            diff_norms[n][lo : lo + c] = np.linalg.norm(dd, axis=0)
    dispersions = tuple(
        float(np.quantile(diff_norms[n], quantile)) for n in n_grid
    )
    return ProbeResult(
        n_grid=n_grid,
        dispersions=dispersions,
        converges=bool(dispersions[-1] <= tol),
        quantile=quantile,
        tol=tol,
        replicates=replicates,
    )


def partial_sum_quantiles(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    n_grid,
    replicates: int = 200,
    quantile: float = 0.9,
) -> np.ndarray:
    """``quantile`` of ||S_n|| itself (not increments) for each n.

    Used by the isometry growth check, where ||S_n|| drifts like sqrt(n)
    and increments never shrink.
    """
    if model.p != 1:
        raise SpecificationError("expects a first-order model")
    n_grid = tuple(int(n) for n in n_grid)
    a_op = model.ar_ops[0]
    m_op = ma_moment_operator(model)
    d, q = model.dim, model.q
    n_max = max(n_grid)
    count = n_max - q
    snap_index = {n: i for i, n in enumerate(n_grid)}
    norms = {n: np.empty(replicates) for n in n_grid}
    chunk = max(1, min(replicates, int(4e6 / max(count * d, 1))))
    for lo in range(0, replicates, chunk):
        ids = range(lo, min(lo + chunk, replicates))
        block = np.stack(
            [sample_path(noise_spec, count, stream=rid).values for rid in ids]
        )
        c = block.shape[0]
        s = np.zeros((d, c), dtype=complex)
        u = m_op.copy()
        for j in range(q, n_max):
            s = s + u @ block[:, j - q, :].T
            if (j + 1) in snap_index:
                norms[j + 1][lo : lo + c] = np.linalg.norm(s, axis=0)
            u = apply_batch(a_op, u)
    return np.array([float(np.quantile(norms[n], quantile)) for n in n_grid])


def stationarity_ks(
    model: ArmaModel,
    noise_spec: NoiseSpec,
    replicates: int = 10_000,
    t_shift: int = 5,
    tail_tol: float = DEFAULT_TAIL_TOL,
    alpha_label: str = "1%",
) -> dict:
    """Two-sample KS check of distributional shift invariance.

    Compares the empirical laws of (||Y_t||, ||Y_{t+1}||) at t = t_a and
    t = t_a + t_shift across independent replicates.  Returns the two
    marginal KS statistics and the 1% critical value 1.628 * sqrt(2/replicates).
    """
    from scipy.stats import ks_2samp

    kernel, _ = build_split_kernel(model, None, tail_tol)
    # each replicate's noise window starts at t = 0, so t_a = l_max; the law
    # is shift invariant, so any t_a would do
    t1 = t_shift + 1
    need = (t1 - kernel.l_min) - (0 - kernel.l_max) + 1
    norms = np.empty((replicates, t1 + 1))
    chunk = max(1, min(replicates, int(4e6 / max(need * model.dim, 1))))
    for lo in range(0, replicates, chunk):
        ids = range(lo, min(lo + chunk, replicates))
        block = np.stack(
            [sample_path(noise_spec, need, stream=rid).values for rid in ids]
        )  # (c, need, d)
        c = block.shape[0]
        y = np.zeros((c, t1 + 1, model.dim), dtype=complex)
        for i in range(kernel.psis.shape[0]):
            lag = kernel.l_min + i
            a = -lag + kernel.l_max
            y += block[:, a : a + t1 + 1, :] @ kernel.psis[i].T
        norms[lo : lo + c] = np.linalg.norm(y, axis=2)
    crit = 1.628 * math.sqrt(2.0 / replicates)
    stat0 = float(ks_2samp(norms[:, 0], norms[:, t_shift]).statistic)
    stat1 = float(ks_2samp(norms[:, 1], norms[:, t_shift + 1]).statistic)
    return {
        "ks_statistic_t": stat0,
        "ks_statistic_t_plus_1": stat1,
        "critical_value": crit,
        "alpha": alpha_label,
        "passed": bool(stat0 < crit and stat1 < crit),
    }
