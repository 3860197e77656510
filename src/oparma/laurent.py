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
DFT into the old coefficients by one radix-2 step, in place: the grid is
held as consecutive pieces, so a doubling holds 1.5 grids of the new
size at most, and the stagnation test reads each old coefficient just
before the step overwrites it.

The range and the stagnation test run on Frobenius norms, which bound
the spectral norm from above (||psi||_2 <= ||psi||_F <= sqrt(d) ||psi||_2),
so the searched range can only be wider than needed.  Spectral norms
(one SVD each) are taken only where a value is needed: the few
coefficients that can hold the largest one, which sets the floor, and
the ends of the final block, walked in one coefficient at a time until
one is above the floor.  The norms of the stored block and the decay
envelope fitted to them are computed when they are read.

On the two-sided representation: nonzero coefficients at negative k are
exactly the anticausal part of the stationary solution contributed by
spectrum outside the disc, and they exist as a convergent series only
because the circle check below guarantees an annulus of invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SingularOperatorError, SpecificationError
from .operators import COND_LIMIT, ArmaModel, _spectral_norms, companion_lift

#: smallest singular value of the denominator on the circle must exceed this
CIRCLE_TOL = 1e-6

#: the real point c of the Moebius map z = (w + c) / (1 + c w) of the level-set pencil
MOBIUS_C = 0.3

#: pencil eigenvalues w with | |w| - 1 | below this count as points of the circle;
#: rounding moves a near-double root off the circle by about sqrt(eps cond)
UNIMODULAR_TOL = 1e-5

#: each level sits this far below the smallest value found so far, relatively
LEVEL_GAP = 1e-11

#: level-set eigensolves before the circle check gives up
MAX_LEVELS = 32

#: coefficients below this relative to the largest are treated as zero
REL_FLOOR = 1e-12

DEFAULT_N_QUAD = 256
MAX_N_QUAD = 8192

#: values of H solved at once while a grid is filled
SOLVE_BLOCK = 2**16

#: widest |k| of an explicit range: it starts the quadrature at 4 |k| nodes or
#: more, and stagnation needs the doubled grid too
MAX_REACH = MAX_N_QUAD // 8


def _polynomial(nodes: np.ndarray, mats: list, first: int) -> np.ndarray:
    """sum_i z^(first + i) mats[i] at each node, as an (n, d, d) stack: one
    product of the node powers with the stacked coefficients."""
    powers = np.vander(nodes, first + len(mats), increasing=True)[:, first:]
    stacked = np.stack(mats).reshape(len(mats), -1)
    return (powers @ stacked).reshape(nodes.size, *mats[0].shape)


def _denominators(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """I - z A_1 - ... - z^p A_p at each node, as an (n, d, d) stack."""
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

    ``n_eigensolves`` counts the level-set eigensolves of
    :func:`unit_circle_check`.
    """

    min_singular_value: float
    worst_z: complex
    n_eigensolves: int
    tol: float
    passed: bool
    leading_ar_condition: float
    leading_ar_invertible: bool


def _sigma_min(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """Smallest singular value of the denominator at each node."""
    return np.linalg.svd(_denominators(model, nodes), compute_uv=False)[:, -1]


def _level_angles(model: ArmaModel, gamma: float) -> np.ndarray:
    """Sorted angles theta at which ``gamma`` is a singular value of D(e^{i theta}).

    With D(z) = sum_k z^k D_k (D_0 = I, D_k = -A_k), those are the points
    of the circle where the 2d x 2d polynomial
    R(z) = [[-gamma I, D(z)], [z^p D(z)^*, -gamma z^p I]] = sum_j z^j C_j,
    C_j = [[-gamma [j = 0] I, D_j], [D_{p-j}^*, -gamma [j = p] I]], is
    singular.  C_p is singular with A_p, so R is taken in w through the
    Moebius map z = (w + c) / (1 + c w), c = :data:`MOBIUS_C`, which sends
    the circle to itself: Q(w) = (1 + c w)^p R(z) has the leading
    coefficient c^p R(1/c), invertible but for a null set of gamma, and
    the unimodular eigenvalues of its block companion, mapped back, are
    the points sought.
    """
    d, p, c = model.dim, model.p, MOBIUS_C
    dk = [np.eye(d)] + [-a.matrix for a in model.ar_ops]
    blocks = np.zeros((p + 1, 2 * d, 2 * d), complex)
    for j in range(p + 1):
        blocks[j, :d, d:] = dk[j]
        blocks[j, d:, :d] = dk[p - j].conj().T
    blocks[0, :d, :d] -= gamma * np.eye(d)
    blocks[p, d:, d:] -= gamma * np.eye(d)
    # weights[j, m]: coefficient of w^m in (w + c)^j (1 + c w)^(p - j)
    poly = np.polynomial.polynomial
    weights = np.array(
        [poly.polymul(poly.polypow([c, 1], j), poly.polypow([1, c], p - j)) for j in range(p + 1)]
    )
    q = np.tensordot(weights, blocks, axes=(0, 0))
    comp = np.eye(2 * d * p, k=-2 * d, dtype=complex)
    comp[: 2 * d] = -np.linalg.solve(q[p], np.concatenate(q[p - 1 :: -1], axis=1))
    w = np.linalg.eigvals(comp)
    w = w[np.abs(np.abs(w) - 1) < UNIMODULAR_TOL]
    return np.sort(np.angle((w + c) / (1 + c * w)))


def unit_circle_check(model: ArmaModel) -> CircleCheck:
    """Smallest singular value of the denominator D(z) over the whole unit circle.

    A level-set iteration (Boyd & Balakrishnan, Systems & Control Letters,
    1990; Byers, SIAM J. Sci. Stat. Comput., 1988, gives the bisection
    form).  The value gamma starts as the smallest over 8 equispaced nodes
    and one probe: for the nonzero eigenvalue lambda of the companion lift
    nearest the circle (smallest | |lambda| - 1 |), the point
    conj(lambda)/|lambda| nearest to the root 1/lambda of the determinant,
    so a unit root, which has |lambda| = 1, is hit exactly.  Each step
    takes the angles where some singular value equals the level gamma (1 -
    :data:`LEVEL_GAP`) (:func:`_level_angles`).  Between two consecutive
    ones sigma_min stays on one side of the level, so an SVD at each arc's
    midpoint finds every arc below it, and gamma moves to the smallest
    midpoint value.  The iteration converges quadratically; it stops when
    no midpoint falls below the level and raises :class:`QuadratureError`
    after :data:`MAX_LEVELS` eigensolves.  ``min_singular_value`` is
    gamma, an SVD's value at ``worst_z``.

    The check passes when the minimum exceeds :data:`CIRCLE_TOL`.  Also
    reports the condition of the leading AR operator A_p, whose
    invertibility governs whether the anticausal side of the expansion is
    a genuine two-sided series rather than a degenerate one (the
    reversed-time characteristic matrix at zero is -A_p).
    """
    eigs = np.linalg.eigvals(companion_lift(model).matrix)
    eigs = eigs[eigs != 0]
    eigs = eigs[np.argsort(np.abs(np.abs(eigs) - 1))[:1]]
    nodes = np.concatenate([np.exp(2j * np.pi * np.arange(8) / 8), eigs.conj() / np.abs(eigs)])
    values = _sigma_min(model, nodes)
    j = int(np.argmin(values))
    gamma, worst_z = float(values[j]), complex(nodes[j])
    n_eigensolves = 0
    while gamma > 0:
        if n_eigensolves == MAX_LEVELS:
            raise QuadratureError(f"circle check did not settle within {MAX_LEVELS} eigensolves")
        level = gamma * (1 - LEVEL_GAP)
        angles = _level_angles(model, level)
        n_eigensolves += 1
        if angles.size == 0:
            break
        mids = np.exp(1j * (angles + np.diff(angles, append=angles[0] + 2 * np.pi) / 2))
        values = _sigma_min(model, mids)
        j = int(np.argmin(values))
        if values[j] < gamma:
            gamma, worst_z = float(values[j]), complex(mids[j])
        if not values[j] < level:
            break
    ap_sv = np.linalg.svd(model.ar_ops[-1].matrix, compute_uv=False)
    ap_cond = np.inf if ap_sv[-1] == 0.0 else float(ap_sv[0] / ap_sv[-1])
    return CircleCheck(
        min_singular_value=gamma,
        worst_z=worst_z,
        n_eigensolves=n_eigensolves,
        tol=CIRCLE_TOL,
        passed=gamma > CIRCLE_TOL,
        leading_ar_condition=ap_cond,
        leading_ar_invertible=bool(np.isfinite(ap_cond) and ap_cond < COND_LIMIT),
    )


@dataclass(frozen=True)
class LaurentCoeffs:
    """Laurent coefficients psi_k for k in [k_min, k_max] plus diagnostics.

    ``coeffs[i]`` is psi_{k_min + i}.  ``reconstruction_residual`` is the
    largest relative mismatch between the truncated series and H on
    circle points offset from the quadrature grid, and
    ``diagnostics["max_norm"]`` the largest coefficient 2-norm.

    ``norms`` (the 2-norm of each coefficient) and the envelope
    ``decay_a`` and ``decay_b``, with ||psi_k|| <= decay_a * decay_b**|k|
    over the whole stored range, are computed on each access: one SVD per
    coefficient, which no certificate reads.  :meth:`envelope` fits the
    envelope to norms already taken.
    """

    k_min: int
    k_max: int
    coeffs: np.ndarray
    n_quad: int
    reconstruction_residual: float
    circle: CircleCheck
    diagnostics: dict = field(default_factory=dict)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def norms(self) -> np.ndarray:
        return _spectral_norms(self.coeffs)

    @property
    def decay_a(self) -> float:
        return self.envelope(self.norms)[0]

    @property
    def decay_b(self) -> float:
        return self.envelope(self.norms)[1]

    def envelope(self, norms: np.ndarray):
        """(decay_a, decay_b) fitted to ``norms``, the values of :attr:`norms`."""
        floor = REL_FLOOR * max(self.diagnostics["max_norm"], 1e-300)
        return _fit_decay(self.ks, norms, floor)

    def coefficient(self, k: int) -> np.ndarray:
        if not self.k_min <= k <= self.k_max:
            raise SpecificationError(f"k={k} outside stored range [{self.k_min}, {self.k_max}]")
        return self.coeffs[k - self.k_min]


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


def _transform(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """FFT of H over ``nodes``, divided by their count.

    H is solved :data:`SOLVE_BLOCK` values at a time into one buffer,
    which is dropped as soon as the FFT has returned its own array.  The
    nodes per block are a power of two, so the blocks tile every grid
    exactly, and two at least: the product in :func:`_polynomial` rounds
    differently for a single node, and the coefficients would change.
    """
    n, d = nodes.size, model.dim
    step = min(n, 1 << max(1, (SOLVE_BLOCK // (d * d)).bit_length() - 1))
    h = np.empty((n, d, d), complex)
    for s in range(0, n, step):
        h[s : s + step] = _batched_transfer(model, nodes[s : s + step])
    f = np.fft.fft(h, axis=0)
    del h
    f /= n
    return f


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous (m, d, d) stack."""
    flat = stack.view(float).reshape(len(stack), -1)
    return np.sqrt(np.einsum("ki,ki->k", flat, flat))


def _rows(grid: list, positions: np.ndarray) -> np.ndarray:
    """The coefficients at ``positions`` of a grid held as consecutive pieces."""
    out = np.empty((positions.size, *grid[0].shape[1:]), grid[0].dtype)
    start = 0
    for piece in grid:
        here = (positions >= start) & (positions < start + len(piece))
        out[here] = piece[positions[here] - start]
        start += len(piece)
    return out


def _double(model: ArmaModel, grid: list, n: int, rng) -> float:
    """Turn the n-node ``grid`` into the 2n-node one in place and return
    max |psi_2n - psi_n| over the k-range ``rng`` (inf without one).

    With F the DFT of H over the n new odd nodes z_j e^{i pi / n} and
    w_k = e^{-i pi k / n}, the 2n-grid values are [psi + w F, psi - w F] / 2
    (one radix-2 Cooley-Tukey step).  Each old piece takes its part of the
    first half and w F becomes the second half, a new last piece, so the
    doubling holds the old grid, H and F at most.  Coefficient k >= 0 stays
    at index k, in the first half; k < 0 moves from n + k to 2n + k, in the
    second; both are compared with the old value before it is overwritten.
    """
    odd = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
    wf = _transform(model, odd)
    wf *= np.exp(-1j * np.pi * np.arange(n) / n)[:, None, None]
    step = max(1, SOLVE_BLOCK // wf[0].size)
    diff = 0.0 if rng is not None else np.inf
    start = 0
    for piece in grid:
        for s in range(0, len(piece), step):
            psi = piece[s : s + step]
            j = start + s
            high = wf[j : j + len(psi)]
            low = psi + high
            np.subtract(psi, high, out=high)
            low *= 0.5
            high *= 0.5
            if rng is not None:
                # the range is a front (k >= 0) and a back (k < 0) slice of the old grid
                for new, first, last in ((low, 0, rng[1] + 1), (high, n + rng[0], n)):
                    lo, hi = max(first - j, 0), min(last - j, len(psi))
                    if lo < hi:
                        diff = np.maximum(diff, np.abs(new[lo:hi] - psi[lo:hi]).max())
            psi[...] = low
        start += len(piece)
    grid.append(wf)
    return float(diff)


def laurent_coeffs(model: ArmaModel, k_range: tuple | None = None) -> LaurentCoeffs:
    """Laurent coefficients of H with automatic range and grid selection.

    When ``k_range`` is omitted the range is chosen to cover every
    coefficient above :data:`REL_FLOOR` times the largest one.  The node
    count starts at :data:`DEFAULT_N_QUAD` (doubled to at least four
    times the reach of a given ``k_range``) and doubles, up to
    :data:`MAX_N_QUAD`, until two successive grids agree on the
    extracted block to the same relative floor, so a ``k_range`` may
    reach at most :data:`MAX_REACH`.  Range and stagnation are judged by
    Frobenius norm, and the final block is trimmed to the exact 2-norm
    floor by walking in from each end, so the stored range and
    ``diagnostics["max_norm"]`` are those of spectral norms.  Singular
    values are taken for the coefficients that can hold the largest norm,
    the trim's steps and the reconstruction check only; ``norms`` and the
    decay envelope are computed when read.  A failed circle check aborts
    before any quadrature happens, since the expansion does not exist.
    """
    n = DEFAULT_N_QUAD
    if k_range is not None:
        k_min, k_max = int(k_range[0]), int(k_range[1])
        if k_min > k_max:
            raise SpecificationError(f"empty coefficient range {k_range}")
        reach = max(abs(k_min), abs(k_max))
        if reach > MAX_REACH:
            raise SpecificationError(
                f"coefficient range {k_range} reaches past |k| = {MAX_REACH}, the widest "
                f"that two grids of at most {MAX_N_QUAD} nodes can confirm"
            )
        while n < 4 * max(reach, 8):
            n *= 2
    circle = unit_circle_check(model)
    if not circle.passed:
        raise SingularOperatorError(
            f"denominator nearly singular on the circle "
            f"(min singular value {circle.min_singular_value:.3e} at "
            f"z={circle.worst_z:.6f}, needs > {circle.tol:.1e})",
            condition=1.0 / max(circle.min_singular_value, 1e-300),
        )
    grid = [_transform(model, np.exp(2j * np.pi * np.arange(n) / n))]
    prev_range = diff = None
    while True:
        fro = np.concatenate([_frobenius_norms(piece) for piece in grid])
        # ||psi||_2 >= ||psi||_F / sqrt(d): only these can hold the largest 2-norm
        candidates = np.flatnonzero(fro >= fro.max() / np.sqrt(model.dim))
        top = _spectral_norms(_rows(grid, candidates)).max()
        floor = REL_FLOOR * max(top, 1e-300)
        if k_range is None:
            rng = _active_range(fro, n, floor)
        else:
            rng = (k_min, k_max)
        if rng is not None and rng == prev_range and diff <= floor:
            block = _rows(grid, np.arange(rng[0], rng[1] + 1) % n)
            del grid
            return _finalize(model, block, rng, n, top, circle, k_range is None)
        if 2 * n > MAX_N_QUAD:
            raise QuadratureError(
                f"coefficient quadrature did not stagnate within {MAX_N_QUAD} nodes"
            )
        diff = _double(model, grid, n, rng)
        prev_range = rng
        n *= 2


def _finalize(model, block, rng, n, top, circle, trim) -> LaurentCoeffs:
    k_min, k_max = rng
    if trim:
        # the Frobenius range holds the 2-norm one; walk in from each end to
        # the first coefficient above the floor, or to k = 0
        floor = REL_FLOOR * max(top, 1e-300)

        def below(k):
            i = k - rng[0]
            return not _spectral_norms(block[i : i + 1])[0] > floor

        while k_max > 0 and below(k_max):
            k_max -= 1
        while k_min < 0 and below(k_min):
            k_min += 1
        block = block[k_min - rng[0] : k_max - rng[0] + 1]
    ks = np.arange(k_min, k_max + 1)
    return LaurentCoeffs(
        k_min=k_min,
        k_max=k_max,
        coeffs=block,
        n_quad=n,
        reconstruction_residual=_reconstruction_residual(model, block, ks),
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
