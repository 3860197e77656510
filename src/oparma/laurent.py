"""Laurent coefficients of the ARMA transfer function on the unit circle.

The transfer function is

    H(z) = (I - z A_1 - ... - z^p A_p)^{-1} (B_0 + z B_1 + ... + z^q B_q)

and, when the denominator is invertible on an annulus containing the
unit circle, H has a Laurent expansion H(z) = sum_k psi_k z^k there.
The coefficients are contour integrals psi_k = (1/2 pi i) * integral of
z^{-k-1} H(z) dz, which the equispaced trapezoid rule turns into a
plain DFT of the node values:

    psi_k ~ (1/n) sum_j z_j^{-k} H(z_j) = FFT(H(z_0..z_{n-1}))[k mod n] / n.

The only quadrature error is aliasing, psi_hat_k = sum over m congruent
to k mod n of psi_m, which dies geometrically in n; a grid-doubling
loop detects stagnation the same way the projector quadrature does.
Each doubling evaluates H only at the n new odd nodes and merges their
DFT into the old coefficients by one radix-2 step.

The range and the stagnation test run on Frobenius norms, which bound
the spectral norm from above (||psi||_2 <= ||psi||_F <= sqrt(d) ||psi||_2),
so the searched range can only be wider than needed.  Spectral norms
(one SVD each) are taken only where a value is reported: the few
coefficients that can hold the largest one, which sets the floor, and
the final block, which is then trimmed to the exact 2-norm floor.

On the two-sided representation: nonzero coefficients at negative k are
exactly the anticausal part of the stationary solution contributed by
spectrum outside the disc, and they exist as a convergent series only
because the circle check below guarantees an annulus of invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SingularOperatorError, SpecificationError
from .operators import COND_LIMIT, ArmaModel, companion_lift

#: smallest singular value of the denominator on the circle must exceed this
CIRCLE_TOL = 1e-6

#: nodes per formed batch of denominators in the circle scan
CIRCLE_BATCH = 512

#: grid strides of the circle scan's levels, coarse to fine
SCAN_LEVELS = (64, 32, 16, 8, 4, 1)

#: the circle scan's rounding slack, in units of (p + 1) d eps (1 + sum_k ||A_k||_2)
SCAN_SLACK_ULPS = 64

#: coefficients below this relative to the largest are treated as zero
REL_FLOOR = 1e-12

DEFAULT_N_QUAD = 256
MAX_N_QUAD = 8192


def _polynomial(nodes: np.ndarray, mats: list, first: int) -> np.ndarray:
    """sum_i z^(first + i) mats[i] at each node, as an (n, d, d) stack: one
    product of the node powers with the stacked coefficients."""
    powers = np.vander(nodes, first + len(mats), increasing=True)[:, first:]
    stacked = np.stack(mats).reshape(len(mats), -1)
    return (powers @ stacked).reshape(nodes.size, *mats[0].shape)


def _denominators(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """I - z A_1 - ... - z^p A_p at each node, as an (n, d, d) stack.

    For p >= 2 the product's last bits depend on which nodes share the
    call, so :func:`unit_circle_check` forms fixed 512-node batches and
    reports the bits of one full-batch formation whatever nodes it keeps.
    """
    den = _polynomial(nodes, [-a.matrix for a in model.ar_ops], 1)
    den.reshape(nodes.size, -1)[:, :: model.dim + 1] += 1.0
    return den


def _batched_transfer(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """H at many circle nodes as a stacked (n, d, d) array."""
    num = _polynomial(nodes, [b.matrix for b in model.ma_ops], 0)
    return np.linalg.solve(_denominators(model, nodes), num)


@dataclass(frozen=True)
class CircleCheck:
    """Invertibility diagnostics of the denominator on the unit circle.

    ``n_evaluated`` counts the scan nodes that took an SVD, out of
    ``n_grid`` plus one probe per nonzero eigenvalue of the companion lift.
    """

    min_singular_value: float
    worst_z: complex
    n_grid: int
    n_evaluated: int
    tol: float
    passed: bool
    leading_ar_condition: float
    leading_ar_invertible: bool


def _lipschitz(norms: list) -> float:
    """L with |sigma_min(D(e^{is})) - sigma_min(D(e^{it}))| <= L |s - t|,
    from ``norms`` = [||A_1||_2, ..., ||A_p||_2].

    For every m, e^{-im theta} D(e^{i theta}) has the singular values of D,
    and its theta-derivative has 2-norm at most
    L_m = m + sum_k |k - m| ||A_k||_2, which bounds the change of sigma_min
    along the arc (Weyl).  L_m is convex and piecewise linear in m, so its
    minimum over real m is at an integer in 0..p; for p = 1, L = min(1, ||A_1||).
    """
    return min(
        m + sum(abs(k - m) * a for k, a in enumerate(norms, 1)) for m in range(len(norms) + 1)
    )


def unit_circle_check(model: ArmaModel, n_grid: int = 512) -> CircleCheck:
    """Scan the denominator's smallest singular value over circle nodes.

    The nodes are ``n_grid`` equispaced points plus, for each nonzero
    eigenvalue lambda of the companion lift, the point conj(lambda)/|lambda|
    nearest to the root 1/lambda of the determinant, so a unit root
    between grid nodes is hit exactly.  The check passes when the
    smallest singular value exceeds :data:`CIRCLE_TOL`.  Also reports the
    condition of the leading AR operator A_p, whose invertibility governs
    whether the anticausal side of the expansion is a genuine two-sided
    series rather than a degenerate one (the reversed-time characteristic
    matrix at zero is -A_p).

    The scan is a certified branch and bound.  sigma_min is L-Lipschitz in
    the angle (:func:`_lipschitz`), so a node at angle r from one of
    computed value s has sigma_min >= s - L r.  The first of
    :data:`SCAN_LEVELS` takes an SVD at every 64th grid node.  Each later
    level bounds the nodes between those of the level before from the two
    nearest of them (their computed value, or the bound that ruled them
    out), rules out a node whose bound exceeds the current minimum plus a
    rounding slack, and takes an SVD at the others.  The eigenvalue probes
    go last, bounded from the grid nodes on either side.  The slack,
    :data:`SCAN_SLACK_ULPS` (p + 1) d eps (1 + sum_k ||A_k||_2), covers the
    rounding of the node and of the formed denominator and the SVD's
    backward error at both nodes, and the rounding of the bound.  So a
    ruled-out node computes strictly above the final minimum, and
    ``min_singular_value`` and ``worst_z`` (the first node attaining it) are
    those of an SVD at every node.  The denominators are formed in the
    :data:`CIRCLE_BATCH`-node batches of that full scan, whose bits the
    kept SVDs reproduce (see :func:`_denominators`).
    """
    if n_grid < 1:
        raise SpecificationError(f"n_grid must be >= 1, got {n_grid}")
    eigs = np.linalg.eigvals(companion_lift(model).matrix)
    eigs = eigs[eigs != 0]
    nodes = np.concatenate(
        [np.exp(2j * np.pi * np.arange(n_grid) / n_grid), eigs.conj() / np.abs(eigs)]
    )
    ar_sv = [np.linalg.svd(a.matrix, compute_uv=False) for a in model.ar_ops]
    norms = [float(sv[0]) for sv in ar_sv]
    slope = _lipschitz(norms) * 2 * np.pi / n_grid
    slack = SCAN_SLACK_ULPS * (model.p + 1) * model.dim * np.finfo(float).eps * (1 + sum(norms))
    # per node, its computed value or the bound that ruled it out (which
    # exceeds the final minimum); grid positions past n_grid stand for node 0
    # at angle 2 pi, placed farther off than it is, so bounds from them hold
    grid = np.empty(-(-n_grid // SCAN_LEVELS[0]) * SCAN_LEVELS[0] + 1)
    probes = np.empty(eigs.size)
    best, n_evaluated = np.inf, 0
    batch_start, batch = -1, None

    def evaluate(start: int, bound: np.ndarray, keep: np.ndarray, rows: np.ndarray, stride=0):
        """SVDs at the kept ``rows`` of the batch at ``start``; their values
        replace ``bound`` there.  A level whose candidates (``stride`` apart,
        one row of ``bound`` per gap between its coarser nodes) are all kept
        reads them as one strided view of the batch, in angular order."""
        nonlocal best, n_evaluated, batch_start, batch
        if not keep.any():
            return
        if batch_start != start:
            batch_start, batch = start, _denominators(model, nodes[start : start + CIRCLE_BATCH])
        if stride and keep.all():
            k, r = bound.shape[0], bound.shape[1] + 1
            den = batch[: k * r * stride : stride].reshape(k, r, *batch.shape[1:])[:, 1:]
        else:
            den = batch[rows[keep]]
        values = np.linalg.svd(den, compute_uv=False)[..., -1].ravel()
        bound[keep] = values
        best = min(best, float(values.min()))
        n_evaluated += values.size

    for start in range(0, n_grid, CIRCLE_BATCH):
        rows = np.arange(0, min(CIRCLE_BATCH, n_grid - start), SCAN_LEVELS[0])
        bound = np.empty(rows.size)
        evaluate(start, bound, np.ones(rows.size, bool), rows)
        grid[start + rows] = bound
    grid[n_grid:] = grid[0]
    for start in range(0, nodes.size, CIRCLE_BATCH):
        stop = min(CIRCLE_BATCH, nodes.size - start)
        n_rows = min(stop, n_grid - start)
        for coarse, s in zip(SCAN_LEVELS, SCAN_LEVELS[1:]) if n_rows > 0 else ():
            k = -(-n_rows // coarse)
            ends = grid[start : start + k * coarse + 1 : coarse]
            offset = np.arange(s, coarse, s)
            rows = coarse * np.arange(k)[:, None] + offset
            bound = grid[start : start + k * coarse : s].reshape(k, -1)[:, 1:]
            np.maximum(
                ends[:-1, None] - slope * offset, ends[1:, None] - slope * (coarse - offset), out=bound
            )
            evaluate(start, bound, (bound <= best + slack) & (rows < n_rows), rows, s)
        if stop > n_rows:
            rows = np.arange(max(n_rows, 0), stop)
            at = np.angle(nodes[start + rows]) % (2 * np.pi) * (n_grid / (2 * np.pi))
            left = np.minimum(at.astype(int), n_grid - 1)
            bound = np.maximum(
                grid[left] - slope * np.abs(at - left), grid[left + 1] - slope * np.abs(left + 1 - at)
            )
            evaluate(start, bound, bound <= best + slack, rows)
            probes[start + rows - n_grid] = bound
    values = np.concatenate([grid[:n_grid], probes])
    j = int(np.argmin(values))
    ap_sv = ar_sv[-1]
    ap_cond = np.inf if ap_sv[-1] == 0.0 else float(ap_sv[0] / ap_sv[-1])
    return CircleCheck(
        min_singular_value=float(values[j]),
        worst_z=complex(nodes[j]),
        n_grid=n_grid,
        n_evaluated=n_evaluated,
        tol=CIRCLE_TOL,
        passed=bool(values[j] > CIRCLE_TOL),
        leading_ar_condition=ap_cond,
        leading_ar_invertible=bool(np.isfinite(ap_cond) and ap_cond < COND_LIMIT),
    )


@dataclass(frozen=True)
class LaurentCoeffs:
    """Laurent coefficients psi_k for k in [k_min, k_max] plus diagnostics.

    ``coeffs[i]`` is psi_{k_min + i}.  ``decay_a`` and ``decay_b`` give a
    majorizing envelope ||psi_k|| <= decay_a * decay_b**|k| valid over
    the whole stored range.  ``reconstruction_residual`` is the largest
    relative mismatch between the truncated series and H on circle
    points offset from the quadrature grid.
    """

    k_min: int
    k_max: int
    coeffs: np.ndarray
    norms: np.ndarray
    n_quad: int
    decay_a: float
    decay_b: float
    reconstruction_residual: float
    circle: CircleCheck
    diagnostics: dict = field(default_factory=dict)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    def coefficient(self, k: int) -> np.ndarray:
        if not self.k_min <= k <= self.k_max:
            raise SpecificationError(f"k={k} outside stored range [{self.k_min}, {self.k_max}]")
        return self.coeffs[k - self.k_min]


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    if stack.shape[0] == 0:
        return np.zeros(0)
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def _span(ks: np.ndarray, active: np.ndarray):
    """Smallest k-range holding 0 and every active k."""
    act_ks = ks[active]
    if act_ks.size == 0:
        return 0, 0
    return min(int(act_ks.min()), 0), max(int(act_ks.max()), 0)


def _active_range(norms_wrapped: np.ndarray, n: int, floor: float):
    """Centered k-range of above-floor coefficients, or None if the range
    still touches the wrap boundary (meaning n is too small)."""
    ks = np.where(np.arange(n) < n // 2, np.arange(n), np.arange(n) - n)
    k_min, k_max = _span(ks, norms_wrapped > floor)
    guard = max(2, n // 16)
    if k_max >= n // 2 - guard or k_min <= -n // 2 + guard:
        return None
    return k_min, k_max


def _wrapped_coeffs(model: ArmaModel, n: int):
    """Yield ``(n, psi_wrapped)`` on the n-grid, then on each doubled grid
    up to :data:`MAX_N_QUAD`; ``psi_wrapped[k]`` is the trapezoid value of
    psi_k (k mod n).

    Doubling transforms only the n new odd nodes z_j e^{i pi / n}: with
    F their DFT over n and w_k = e^{-i pi k / n}, the 2n-grid values are
    [psi + w F, psi - w F] / 2 (one radix-2 Cooley-Tukey step).
    """
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    psi = np.fft.fft(_batched_transfer(model, nodes), axis=0) / n
    while True:
        yield n, psi
        if 2 * n > MAX_N_QUAD:
            return
        odd = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
        f = np.fft.fft(_batched_transfer(model, odd), axis=0) / n
        f *= np.exp(-1j * np.pi * np.arange(n) / n)[:, None, None]
        # formed in place: halving is exact, so the bits are those of
        # concatenating the sum and the difference and dividing by 2
        doubled = np.empty((2 * n, *psi.shape[1:]), psi.dtype)
        np.add(psi, f, out=doubled[:n])
        np.subtract(psi, f, out=doubled[n:])
        doubled *= 0.5
        psi = doubled
        n *= 2


def _extract(psi_wrapped: np.ndarray, n: int, k_min: int, k_max: int) -> np.ndarray:
    idx = np.arange(k_min, k_max + 1) % n
    return psi_wrapped[idx]


def laurent_coeffs(model: ArmaModel, k_range: tuple | None = None) -> LaurentCoeffs:
    """Laurent coefficients of H with automatic range and grid selection.

    When ``k_range`` is omitted the range is chosen to cover every
    coefficient above :data:`REL_FLOOR` times the largest one.  The node
    count starts at :data:`DEFAULT_N_QUAD` (doubled to at least four
    times the reach of a given ``k_range``) and doubles, up to
    :data:`MAX_N_QUAD`, until two successive grids agree on the
    extracted block to the same relative floor.  Range and stagnation
    are judged by Frobenius norm, and the final block is trimmed to the
    exact 2-norm floor, so the stored range, ``norms`` and
    ``diagnostics["max_norm"]`` are those of spectral norms.  A failed
    circle check aborts before any quadrature happens, since the
    expansion does not exist.
    """
    circle = unit_circle_check(model)
    if not circle.passed:
        raise SingularOperatorError(
            f"denominator nearly singular on the circle "
            f"(min singular value {circle.min_singular_value:.3e} at "
            f"z={circle.worst_z:.6f}, needs > {circle.tol:.1e})",
            condition=1.0 / max(circle.min_singular_value, 1e-300),
        )
    n = DEFAULT_N_QUAD
    if k_range is not None:
        k_min, k_max = int(k_range[0]), int(k_range[1])
        if k_min > k_max:
            raise SpecificationError(f"empty coefficient range {k_range}")
        while n < 4 * max(abs(k_min), abs(k_max), 8):
            n *= 2
    prev_block = None
    prev_range = None
    for n, psi_wrapped in _wrapped_coeffs(model, n):
        flat = psi_wrapped.view(float).reshape(n, -1)
        fro = np.sqrt(np.einsum("ki,ki->k", flat, flat))
        # ||psi||_2 >= ||psi||_F / sqrt(d): only these can hold the largest 2-norm
        top = _spectral_norms(psi_wrapped[fro >= fro.max() / np.sqrt(model.dim)]).max()
        floor = REL_FLOOR * max(top, 1e-300)
        if k_range is None:
            rng = _active_range(fro, n, floor)
        else:
            rng = (k_min, k_max)
        if rng is not None:
            block = _extract(psi_wrapped, n, rng[0], rng[1])
            if prev_block is not None and prev_range == rng:
                diff = np.abs(block - prev_block).max()
                if diff <= floor:
                    return _finalize(model, block, rng, n, top, circle, k_range is None)
            prev_block, prev_range = block, rng
    raise QuadratureError(
        f"coefficient quadrature did not stagnate within {MAX_N_QUAD} nodes"
    )


def _finalize(model, block, rng, n, top, circle, trim) -> LaurentCoeffs:
    floor = REL_FLOOR * max(top, 1e-300)
    norms = _spectral_norms(block)
    k_min, k_max = rng
    if trim:
        # the Frobenius range holds the 2-norm one; cut it back to that
        k_min, k_max = _span(np.arange(rng[0], rng[1] + 1), norms > floor)
        keep = slice(k_min - rng[0], k_max - rng[0] + 1)
        block, norms = block[keep], norms[keep]
    ks = np.arange(k_min, k_max + 1)
    a, b = _fit_decay(ks, norms, floor)
    recon = _reconstruction_residual(model, block, ks)
    return LaurentCoeffs(
        k_min=k_min,
        k_max=k_max,
        coeffs=block,
        norms=norms,
        n_quad=n,
        decay_a=a,
        decay_b=b,
        reconstruction_residual=recon,
        circle=circle,
        diagnostics={"max_norm": float(top)},
    )


def _fit_decay(ks: np.ndarray, norms: np.ndarray, floor: float):
    """Majorizing envelope a * b**|k| fitted to the coefficient norms.

    Least squares on log ||psi_k|| against |k|, restricted to |k| >= 3
    so the envelope is not dragged up by the near-origin bulge; the
    prefactor is then raised until every stored coefficient lies below
    the envelope.  Degenerate ranges fall back to b = 1/2.
    """
    absk = np.abs(ks)
    mask = (norms > floor) & (absk >= 3)
    if mask.sum() < 2 or np.unique(absk[mask]).size < 2:
        mask = (norms > floor) & (absk >= 1)
    if mask.sum() < 2 or np.unique(absk[mask]).size < 2:
        b = 0.5
    else:
        slope = np.polyfit(absk[mask], np.log(norms[mask]), 1)[0]
        b = float(np.exp(min(slope, -1e-12)))
    pos = norms > 0
    log_a = np.max(np.log(norms[pos]) - absk[pos] * np.log(b)) if pos.any() else 0.0
    return float(np.exp(log_a)), b


def _reconstruction_residual(model, block, ks) -> float:
    """Relative residual of the truncated series on 64 circle points off the grid.

    The points e^{2 pi i (m + 1/3) / 64} sit on no power-of-two grid, where
    the DFT inverts exactly and would hide aliasing.
    """
    n_test = 64
    zs = np.exp(2j * np.pi * (np.arange(n_test) + 1.0 / 3.0) / n_test)
    powers = zs[:, None] ** ks[None, :].astype(float)
    series = np.tensordot(powers, block, axes=(1, 0))
    href = _batched_transfer(model, zs)
    num = _spectral_norms(series - href)
    den = 1.0 + _spectral_norms(href)
    return float((num / den).max())
