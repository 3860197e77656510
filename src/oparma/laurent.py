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
loop (reusing the even nodes) detects stagnation the same way the
projector quadrature does.

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

#: coefficients below this relative to the largest are treated as zero
REL_FLOOR = 1e-12

DEFAULT_N_QUAD = 256
MAX_N_QUAD = 8192


def _denominators(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """I - z A_1 - ... - z^p A_p at each node, as an (n, d, d) stack."""
    d, n = model.dim, nodes.size
    den = np.broadcast_to(np.eye(d, dtype=complex), (n, d, d)).copy()
    zp = np.ones(n, dtype=complex)
    for a in model.ar_ops:
        zp = zp * nodes
        den -= zp[:, None, None] * a.matrix[None]
    return den


def _batched_transfer(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """H at many circle nodes as a stacked (n, d, d) array."""
    num = np.zeros((nodes.size, model.dim, model.dim), dtype=complex)
    zp = np.ones(nodes.size, dtype=complex)
    for b in model.ma_ops:
        num += zp[:, None, None] * b.matrix[None]
        zp = zp * nodes
    return np.linalg.solve(_denominators(model, nodes), num)


@dataclass(frozen=True)
class CircleCheck:
    """Invertibility diagnostics of the denominator on the unit circle."""

    min_singular_value: float
    worst_z: complex
    n_grid: int
    tol: float
    passed: bool
    leading_ar_condition: float
    leading_ar_invertible: bool


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
    """
    if n_grid < 1:
        raise SpecificationError(f"n_grid must be >= 1, got {n_grid}")
    eigs = np.linalg.eigvals(companion_lift(model).matrix)
    eigs = eigs[eigs != 0]
    nodes = np.concatenate(
        [np.exp(2j * np.pi * np.arange(n_grid) / n_grid), eigs.conj() / np.abs(eigs)]
    )
    # 512 nodes per batch: the eigenvalue probes add no memory over the default grid
    mins = np.concatenate(
        [
            np.linalg.svd(_denominators(model, nodes[i : i + 512]), compute_uv=False)[:, -1]
            for i in range(0, nodes.size, 512)
        ]
    )
    j = int(np.argmin(mins))
    ap = model.ar_ops[-1].matrix
    ap_sv = np.linalg.svd(ap, compute_uv=False)
    ap_cond = np.inf if ap_sv[-1] == 0.0 else float(ap_sv[0] / ap_sv[-1])
    return CircleCheck(
        min_singular_value=float(mins[j]),
        worst_z=complex(nodes[j]),
        n_grid=n_grid,
        tol=CIRCLE_TOL,
        passed=bool(mins[j] > CIRCLE_TOL),
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
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    hvals = _batched_transfer(model, nodes)
    prev_block = None
    prev_range = None
    while True:
        psi_wrapped = np.fft.fft(hvals, axis=0) / n
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
        if 2 * n > MAX_N_QUAD:
            raise QuadratureError(
                f"coefficient quadrature did not stagnate within {MAX_N_QUAD} nodes"
            )
        odd = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
        hodd = _batched_transfer(model, odd)
        merged = np.empty((2 * n,) + hvals.shape[1:], dtype=complex)
        merged[0::2] = hvals
        merged[1::2] = hodd
        hvals = merged
        n *= 2


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
    recon = _reconstruction_residual(model, block, ks, n)
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


def _reconstruction_residual(model, block, ks, n) -> float:
    """Relative residual of the truncated series on off-grid circle points."""
    n_test = 64
    zs = np.exp(1j * np.pi * (2 * np.arange(n_test) + 1) / n_test)
    powers = zs[:, None] ** ks[None, :].astype(float)
    series = np.tensordot(powers, block, axes=(1, 0))
    href = _batched_transfer(model, zs)
    num = _spectral_norms(series - href)
    den = 1.0 + _spectral_norms(href)
    return float((num / den).max())
