"""Laurent coefficients of the ARMA transfer function on the unit circle.

The transfer function is

    H(z) = (I - z A_1 - ... - z^p A_p)^{-1} (B_0 + z B_1 + ... + z^q B_q)

and, when the denominator D(z) is invertible on an annulus
1/rho < |z| < rho around the unit circle, H has a Laurent expansion
H(z) = sum_k psi_k z^k there.  The coefficients are contour integrals
psi_k = (1/2 pi i) * integral of z^{-k-1} H(z) dz, which the equispaced
trapezoid rule turns into a plain DFT of the node values:

    psi_k ~ (1/n) sum_j z_j^{-k} H(z_j) = FFT(H(z_0..z_{n-1}))[k mod n] / n.

The grid is sized before it is built.  With M the largest
||H(z)|| <= sum_j |z|^j ||B_j|| / sigma_min(D(z)) over the two circles
|z| = rho and |z| = 1/rho, Cauchy's estimate gives ||psi_k|| <= M rho^{-|k|},
and the only quadrature error, aliasing (psi_hat_k = sum over m congruent
to k mod n of psi_m), is at most

    M (rho^{-(n - k)} + rho^{-(n + k)}) / (1 - rho^{-n})   for |k| < n

(Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
SIAM Review 56, 2014).  rho is set below the nearest root radius of
det D off the circle, so no root lies in the closed annulus, and sigma_min
on each circle comes from the same level-set iteration that certifies the
unit circle, run on the scaled coefficients rho^{+-j} D_j and probed at the
root nearest that circle.  Every sigma_min of that iteration, its polish
steps included, is one batched SVD of D at the points asked for.  The node
count is the smallest power of two whose aliasing is below the relative
floor, and one grid is built.

The range is read from Frobenius norms, which bound the spectral norm
from above (||psi||_2 <= ||psi||_F <= sqrt(d) ||psi||_2), so it can only be
wider than needed; it is then trimmed to the 2-norm floor by walking in
from each end, one SVD per step.  Spectral norms are otherwise taken only
for the few coefficients that can hold the largest one and for the
reconstruction check; the norms of the stored block are computed when read.

On the two-sided representation: nonzero coefficients at negative k are
exactly the anticausal part of the stationary solution contributed by
spectrum outside the disc, and they exist as a convergent series only
because the circle check below guarantees an annulus of invertibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import QuadratureError, SingularOperatorError, SpecificationError
from .operators import COND_LIMIT, ArmaModel, _frobenius, _ldexp, _spectral_norms, _unit_ma
from .operators import companion_lift

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

#: Newton steps of one polish of a candidate minimum
NEWTON_STEPS = 8
#: half-width of the central differences of a polish's first step
POLISH_H = 1e-3

#: coefficients below this relative to the largest are treated as zero
REL_FLOOR = 1e-12

#: the annulus radius rho is the nearest root radius of det D off the circle
#: to this power, so the roots stay a margin away from both circles ...
ANNULUS_POWER = 0.9
#: ... and at most this, where the root radius is large or infinite
ANNULUS_MAX = 2.0

MAX_N_QUAD = 8192

#: values of H solved at once while a grid is filled
SOLVE_BLOCK = 2**16

#: circle points of the reconstruction check, e^{2 pi i (m + 1/3) / 64}: on no
#: power-of-two grid, where the DFT inverts exactly and would hide aliasing
TEST_POINTS = np.exp(2j * np.pi * (np.arange(64) + 1.0 / 3.0) / 64)


def _polynomial(nodes: np.ndarray, mats: list, first: int) -> np.ndarray:
    """sum_i z^(first + i) mats[i] at each node, as an (n, d, d) stack: one
    product of the node powers with the stacked coefficients."""
    powers = np.vander(nodes, first + len(mats), increasing=True)[:, first:]
    stacked = np.stack(mats).reshape(len(mats), -1)
    return (powers @ stacked).reshape(nodes.size, *mats[0].shape)


def _denominator_coeffs(model: ArmaModel, radius: float = 1.0) -> list:
    """D_0, ..., D_p of D(radius w) = sum_j w^j D_j: D_0 = I, D_j = -radius^j A_j."""
    return [np.eye(model.dim)] + [-(radius**j) * a.matrix for j, a in enumerate(model.ar_ops, 1)]


def _denominators(coeffs: list, nodes: np.ndarray) -> np.ndarray:
    """sum_j w^j coeffs[j] at each node w, as an (n, d, d) stack."""
    den = _polynomial(nodes, coeffs[1:], 1)
    den += coeffs[0]
    return den


def _batched_transfer(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """H at many circle nodes as a stacked (n, d, d) array."""
    num = _polynomial(nodes, [b.matrix for b in model.ma_ops], 0)
    return np.linalg.solve(_denominators(_denominator_coeffs(model), nodes), num)


@dataclass(frozen=True)
class CircleCheck:
    """Invertibility diagnostics of the denominator on the unit circle.

    ``n_eigensolves`` counts the level-set eigensolves of
    :func:`unit_circle_check` (0: rounding cannot tell the minimum from 0,
    and none certified it).  ``eigenvalues`` are the nonzero eigenvalues
    lambda of the companion lift, whose 1/lambda are the roots of det D, and
    ``root_radius`` is the nearest root radius off the circle,
    max(|z|, 1/|z|) over the roots z (inf without one).
    """

    min_singular_value: float
    worst_z: complex
    n_eigensolves: int
    tol: float
    passed: bool
    leading_ar_condition: float
    leading_ar_invertible: bool
    root_radius: float
    eigenvalues: np.ndarray = field(repr=False, compare=False)


def _sigma_min(coeffs: list, nodes: np.ndarray) -> np.ndarray:
    """Smallest singular value of D(w) = sum_j w^j coeffs[j] at each node."""
    return np.linalg.svd(_denominators(coeffs, nodes), compute_uv=False)[:, -1]


def _at_rounding_level(coeffs: list, w: complex, gamma: float) -> bool:
    """Whether ``gamma``, the computed sigma_min of D(w) = sum_j w^j coeffs[j]
    at w on the unit circle, cannot be told from 0.

    D(w) sums the p + 1 terms w^j D_j, the powers by repeated products, so
    to first order it is computed as D + E with |E| <= c eps S entrywise,
    c = 2 (p + 1), S = sum_j |D_j|.  As D + E = D (I + D^-1 E), that moves
    sigma_min by a factor within 1 +- c eps || |D^-1| S ||, which has no
    correct digit left where the bound reaches 1.  The norm is at most
    sqrt(d) ||S||_F / sigma_min, so D(w) is inverted only below that."""
    s = sum(np.abs(c) for c in coeffs)
    c_eps = 2 * len(coeffs) * np.finfo(float).eps
    if gamma > c_eps * math.sqrt(s.shape[0]) * _frobenius(s):
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            inv = np.linalg.inv(_denominators(coeffs, np.array([w]))[0])
        except np.linalg.LinAlgError:  # exactly singular
            return True
        return not c_eps * _frobenius(np.abs(inv) @ s) < 1


def _level_angles(coeffs: list, gamma: float) -> np.ndarray:
    """Sorted angles theta at which ``gamma`` is a singular value of D(e^{i theta}).

    With D(z) = sum_k z^k D_k (the list ``coeffs``), those are the points
    of the circle where the 2d x 2d polynomial
    R(z) = [[-gamma I, D(z)], [z^p D(z)^*, -gamma z^p I]] = sum_j z^j C_j,
    C_j = [[-gamma [j = 0] I, D_j], [D_{p-j}^*, -gamma [j = p] I]], is
    singular.  C_p is singular with D_p, so R is taken in w through the
    Moebius map z = (w + c) / (1 + c w), c = :data:`MOBIUS_C`, which sends
    the circle to itself: Q(w) = (1 + c w)^p R(z) has the leading
    coefficient c^p R(1/c), invertible but for a null set of gamma, and
    the unimodular eigenvalues of its block companion, mapped back, are
    the points sought.
    """
    d, p, c = coeffs[0].shape[0], len(coeffs) - 1, MOBIUS_C
    blocks = np.zeros((p + 1, 2 * d, 2 * d), complex)
    for j in range(p + 1):
        blocks[j, :d, d:] = coeffs[j]
        blocks[j, d:, :d] = coeffs[p - j].conj().T
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


def _polish(coeffs: list, w: complex, gamma: float, half_arc: float):
    """(gamma, w) after Newton steps on sigma_min'(theta) = 0 from w = e^{i theta},
    where gamma = sigma_min(D(w)) and D(w) = sum_j w^j coeffs[j].

    Each step reads :func:`_sigma_min` at theta and theta +- h and moves
    theta to the vertex of the parabola through the three values squared:
    a Newton step on sigma^2 with central differences.  h is
    :data:`POLISH_H` (at most ``half_arc``) at first and then the last
    step's length.  The steps stop where the curvature is not positive,
    where the predicted fall is below sigma's rounding, where the point
    would leave the arc of half-width ``half_arc`` around the start, or
    after :data:`NEWTON_STEPS`.  The best point read (each lies in the arc)
    is returned with :func:`_sigma_min`'s value there, or the start where
    that value is not below ``gamma``.  (Benner & Mitchell, SIAM J. Sci.
    Comput. 40(5), 2018, polish the level-set iteration of the H-infinity
    norm in this way.)
    """
    start = theta = float(np.angle(w))
    h, best, low = min(POLISH_H, half_arc), start, gamma
    for _ in range(NEWTON_STEPS):
        lo, mid, hi = _sigma_min(coeffs, np.exp(1j * (theta + np.array([-h, 0.0, h]))))
        if mid < low:
            best, low = theta, mid
        curv = lo - 2 * mid + hi
        # the step lowers sigma by about (lo - hi)^2 / (8 curv)
        if not curv > 0 or (lo - hi) ** 2 <= 8 * np.finfo(float).eps * mid * curv:
            break
        # the vertex of the parabola through the squares: sigma^2 is smooth
        # across a dip narrower than h, where sigma is V-shaped
        step = h * (lo * lo - hi * hi) / (2 * (lo * lo - 2 * mid * mid + hi * hi))
        theta += step
        if abs(theta - start) > half_arc:
            break
        h = abs(step)
    if best == start:
        return gamma, w
    point = np.exp(1j * np.array([best]))
    value = float(_sigma_min(coeffs, point)[0])
    return (value, complex(point[0])) if value < gamma else (gamma, w)


def _circle_min(coeffs: list, probes: np.ndarray):
    """(gamma, worst_w, n_eigensolves): the smallest singular value of
    D(w) = sum_j w^j coeffs[j] over the whole unit circle |w| = 1.

    A level-set iteration (Boyd & Balakrishnan, Systems & Control Letters,
    1990; Byers, SIAM J. Sci. Stat. Comput., 1988, gives the bisection
    form).  The value gamma starts as the smallest over 8 equispaced nodes
    and the ``probes``, polished by :func:`_polish` within half a node
    spacing.  Each step takes the angles where some singular value equals
    the level gamma (1 - :data:`LEVEL_GAP`)
    (:func:`_level_angles`).  Between two consecutive ones sigma_min stays
    on one side of the level, so an SVD at each arc's midpoint finds every
    arc below it, and gamma moves to the smallest midpoint value, polished
    within its arc.  The polish reads sigma_min through :func:`_sigma_min`
    as the rest of the iteration does, and leaves the eigensolve only its
    certifying job, so it usually runs once; the iteration stops when no
    midpoint falls below the level, so sigma_min >= gamma
    (1 - :data:`LEVEL_GAP`) on the whole circle, and raises
    :class:`QuadratureError` after :data:`MAX_LEVELS` eigensolves.  A start
    that rounding cannot tell from 0 (:func:`_at_rounding_level`) is
    returned as it is, with no eigensolve: then no level set certified
    gamma.  gamma is an SVD's value at worst_w.
    """
    nodes = np.concatenate([np.exp(2j * np.pi * np.arange(8) / 8), probes])
    values = _sigma_min(coeffs, nodes)
    j = int(np.argmin(values))
    gamma, worst = _polish(coeffs, complex(nodes[j]), float(values[j]), np.pi / 8)
    if _at_rounding_level(coeffs, worst, gamma):
        return gamma, worst, 0
    n_eigensolves = 0
    while gamma > 0:
        if n_eigensolves == MAX_LEVELS:
            raise QuadratureError(f"circle check did not settle within {MAX_LEVELS} eigensolves")
        level = gamma * (1 - LEVEL_GAP)
        angles = _level_angles(coeffs, level)
        n_eigensolves += 1
        if angles.size == 0:
            break
        arcs = np.diff(angles, append=angles[0] + 2 * np.pi)
        mids = np.exp(1j * (angles + arcs / 2))
        values = _sigma_min(coeffs, mids)
        j = int(np.argmin(values))
        if values[j] < gamma:
            gamma, worst = _polish(coeffs, complex(mids[j]), float(values[j]), arcs[j] / 2)
        if not values[j] < level:
            break
    return gamma, worst, n_eigensolves


def _probe(eigs: np.ndarray, radius: float) -> np.ndarray:
    """The point conj(lambda)/|lambda| of the unit circle for the eigenvalue
    lambda whose root 1/lambda lies nearest |z| = radius in log distance, at
    the root's angle (none without an eigenvalue)."""
    near = eigs[np.argsort(np.abs(np.log(np.abs(eigs) * radius)))[:1]]
    return near.conj() / np.abs(near)


def unit_circle_check(model: ArmaModel) -> CircleCheck:
    """Smallest singular value of the denominator D(z) over the whole unit circle.

    The level-set iteration of :func:`_circle_min`, started with one probe
    besides its 8 nodes (:func:`_probe`): for the nonzero eigenvalue lambda
    of the companion lift whose root 1/lambda of the determinant lies
    nearest the circle (smallest | log |lambda| |), the point
    conj(lambda)/|lambda| nearest to that root, so a unit root, which has
    |lambda| = 1, is hit to rounding.  ``min_singular_value`` is gamma, an
    SVD's value at ``worst_z``.  The same eigenvalues give ``root_radius``
    and, kept as ``eigenvalues``, the probes of the Cauchy bound's circles.

    The check passes when a level set certified the minimum
    (``n_eigensolves`` > 0) and it exceeds :data:`CIRCLE_TOL`.  Also
    reports the condition of the leading AR operator A_p, whose
    invertibility governs whether the anticausal side of the expansion is
    a genuine two-sided series rather than a degenerate one (the
    reversed-time characteristic matrix at zero is -A_p).
    """
    eigs = np.linalg.eigvals(companion_lift(model).matrix)
    eigs = eigs[eigs != 0]
    # the roots of det D are the 1/lambda; log-distance from the circle
    root_radius = float(np.exp(np.abs(np.log(np.abs(eigs))).min(initial=np.inf)))
    gamma, worst_z, n_eigensolves = _circle_min(_denominator_coeffs(model), _probe(eigs, 1.0))
    ap_sv = np.linalg.svd(model.ar_ops[-1].matrix, compute_uv=False)
    ap_cond = np.inf if ap_sv[-1] == 0.0 else float(ap_sv[0] / ap_sv[-1])
    return CircleCheck(
        min_singular_value=gamma,
        worst_z=worst_z,
        n_eigensolves=n_eigensolves,
        tol=CIRCLE_TOL,
        passed=n_eigensolves > 0 and gamma > CIRCLE_TOL,
        leading_ar_condition=ap_cond,
        leading_ar_invertible=bool(np.isfinite(ap_cond) and ap_cond < COND_LIMIT),
        root_radius=root_radius,
        eigenvalues=eigs,
    )


@dataclass(frozen=True)
class LaurentCoeffs:
    """Laurent coefficients psi_k for k in [k_min, k_max] plus diagnostics.

    ``coeffs[i]`` is psi_{k_min + i}, read from one grid of ``n_quad``
    nodes.  ``decay_a`` and ``decay_b`` are the certified Cauchy envelope
    M and 1/rho: ||psi_k|| <= decay_a * decay_b**|k| for every k, and each
    coefficient the grid holds out to the range it was sized for, which
    holds the stored one, is within ``diagnostics["aliasing_bound"]`` of the
    exact psi_k.  ``reconstruction_residual`` is the largest mismatch of the
    truncated series and H on circle points off the grid over the largest
    ||H|| there, and ``diagnostics["max_norm"]`` the largest coefficient
    2-norm.  ``norms`` (the 2-norm of each coefficient) is computed on each
    access: one SVD per coefficient, which no certificate reads.
    """

    k_min: int
    k_max: int
    coeffs: np.ndarray
    n_quad: int
    reconstruction_residual: float
    circle: CircleCheck
    decay_a: float
    decay_b: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_max + 1)

    @property
    def norms(self) -> np.ndarray:
        return _spectral_norms(self.coeffs)

    def coefficient(self, k: int) -> np.ndarray:
        if not self.k_min <= k <= self.k_max:
            raise SpecificationError(f"k={k} outside stored range [{self.k_min}, {self.k_max}]")
        return self.coeffs[k - self.k_min]


def _span(ks: np.ndarray, active: np.ndarray):
    """Smallest k-range holding 0 and every active k."""
    return int(ks[active].min(initial=0)), int(ks[active].max(initial=0))


def _transform(model: ArmaModel, nodes: np.ndarray) -> np.ndarray:
    """FFT of H over ``nodes``, divided by their count, in one buffer.

    H is solved :data:`SOLVE_BLOCK` values at a time into the buffer, and
    the FFT then overwrites it a block of about as many values (whole
    columns of the (n, d * d) view) at a time, so no second grid is held;
    pocketfft transforms each column on its own, so the values are those
    of one FFT of the whole stack, bit for bit.  The nodes
    per solve block are a power of two, so the blocks tile every grid
    exactly, and two at least: the product in :func:`_polynomial` rounds
    differently for a single node, and the coefficients would change.
    """
    n, d = nodes.size, model.dim
    step = min(n, 1 << max(1, (SOLVE_BLOCK // (d * d)).bit_length() - 1))
    grid = np.empty((n, d, d), complex)
    for s in range(0, n, step):
        grid[s : s + step] = _batched_transfer(model, nodes[s : s + step])
    flat = grid.reshape(n, d * d)
    cols = max(1, SOLVE_BLOCK // n)
    for c in range(0, d * d, cols):
        flat[:, c : c + cols] = np.fft.fft(flat[:, c : c + cols], axis=0)
    grid /= n
    return grid


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous (m, d, d) stack."""
    flat = stack.view(float).reshape(len(stack), -1)
    return np.sqrt(np.einsum("ki,ki->k", flat, flat))


def _cauchy_bound(model: ArmaModel, rho: float, eigs: np.ndarray) -> float:
    """M, the largest sum_j |z|^j ||B_j||_2 / sigma_min(D(z)) over |z| = rho
    and |z| = 1/rho, with sigma_min bounded below by gamma (1 - :data:`LEVEL_GAP`)
    from the level-set iteration on each circle, or by 0 where no level set
    certified gamma (M is inf where the bound is 0).  Each iteration is
    probed at the root nearest its circle, from the companion-lift
    eigenvalues ``eigs``."""
    b_norms = _spectral_norms(np.stack([b.matrix for b in model.ma_ops]))
    bound = 0.0
    for radius in (rho, 1.0 / rho):
        coeffs = _denominator_coeffs(model, radius)
        gamma, _, n_eigensolves = _circle_min(coeffs, _probe(eigs, radius))
        lower = gamma * (1 - LEVEL_GAP) if n_eigensolves else 0.0
        top = float(np.polynomial.polynomial.polyval(radius, b_norms))
        bound = max(bound, top / lower if lower > 0 else math.inf)
    return bound


def _decay_steps(ratio: float, rho: float) -> int:
    """Smallest s >= 0 with ratio * rho**-s <= 1."""
    return max(0, math.ceil(math.log(ratio) / math.log(rho))) if ratio > 1 else 0


def _aliasing(bound: float, rho: float, n: int, reach: int) -> float:
    """Largest aliasing error of the n-node rule over |k| <= reach < n."""
    return bound * (rho ** (reach - n) + rho ** (-reach - n)) / (1 - rho**-n)


def _cap_error(bound: float, rho: float) -> QuadratureError:
    return QuadratureError(
        f"the Laurent grid needs more than MAX_N_QUAD = {MAX_N_QUAD} nodes: the Cauchy "
        f"bound M = {bound:.3e} (unit-scale B_k) on the annulus of radius rho = {rho:.6g} "
        f"aliases above the floor on every grid up to the cap"
    )


def laurent_coeffs(model: ArmaModel) -> LaurentCoeffs:
    """Laurent coefficients of H on one grid sized by the Cauchy bound.

    rho is the nearest root radius of det D to the power
    :data:`ANNULUS_POWER`, at most :data:`ANNULUS_MAX`, and M the bound of
    :func:`_cauchy_bound`.  The floor is :data:`REL_FLOOR` times a lower
    bound on the largest ||psi_k||, known before the grid: with hmax the
    largest ||H|| at the reconstruction points and R0 the smallest reach
    whose envelope tail 2 M rho^{-(R0 + 1)} / (1 - 1/rho) is at most
    hmax / 2, the 2 R0 + 1 coefficients within R0 carry at least hmax / 2.
    Every coefficient past R, the last |k| with M rho^{-|k|} above the
    floor, is below it.  The node count is the smallest power of two that
    holds the range and aliases by at most the floor over it; a count past
    :data:`MAX_N_QUAD` raises :class:`QuadratureError`, as does a root
    radius that leaves no annulus (rho <= 1).

    The stored range is trimmed from [-R, R] to the coefficients above
    :data:`REL_FLOOR` times the largest one, by Frobenius norm and then by
    walking in from each end by 2-norm, so the stored range and
    ``diagnostics["max_norm"]`` are those of spectral norms.  A failed
    circle check aborts before any quadrature happens, since the expansion
    does not exist.  All else runs on the B_k of :func:`_unit_ma`, so the
    range, n and the residual hold for every 2^m B_k; the block, M and the
    diagnostics scale back by 2^e (:class:`OverflowError` past the float range).
    """
    circle = unit_circle_check(model)
    if not circle.passed:
        raise SingularOperatorError(
            f"denominator nearly singular on the circle "
            f"(min singular value {circle.min_singular_value:.3e} at "
            f"z={circle.worst_z:.6f}, needs > {circle.tol:.1e})",
            condition=math.inf if circle.min_singular_value == 0 else 1 / circle.min_singular_value,
        )
    unit, e = _unit_ma(model)
    rho = min(circle.root_radius**ANNULUS_POWER, ANNULUS_MAX)
    bound = _cauchy_bound(unit, rho, circle.eigenvalues) if rho > 1 else math.inf
    if not math.isfinite(bound):
        raise _cap_error(bound, rho)
    href = _batched_transfer(unit, TEST_POINTS)
    hmax = float(_spectral_norms(href).max())
    r0 = max(_decay_steps(4 * bound / (hmax * (1 - 1 / rho)), rho) - 1, 0) if hmax > 0 else 0
    floor = REL_FLOOR * hmax / (2 * (2 * r0 + 1))
    reach = max(_decay_steps(bound / floor, rho) - 1, 0) if floor > 0 else 0
    n = 2
    while n <= 2 * reach or (alias := _aliasing(bound, rho, n, reach)) > floor:
        n *= 2
        if n > MAX_N_QUAD:
            raise _cap_error(bound, rho)
    grid = _transform(unit, np.exp(2j * np.pi * np.arange(n) / n))
    fro = _frobenius_norms(grid)
    # ||psi||_2 >= ||psi||_F / sqrt(d): only these can hold the largest 2-norm
    top = _spectral_norms(grid[fro >= fro.max() / np.sqrt(model.dim)]).max()
    floor = REL_FLOOR * top
    # the Frobenius range holds the 2-norm one; walk in from each end to
    # the first coefficient above the floor, or to k = 0
    ks = np.arange(-reach, reach + 1)
    k_min, k_max = _span(ks, fro[ks % n] > floor)

    def below(k):
        return not _spectral_norms(grid[k % n : k % n + 1])[0] > floor

    while k_max > 0 and below(k_max):
        k_max -= 1
    while k_min < 0 and below(k_min):
        k_min += 1
    ks = np.arange(k_min, k_max + 1)
    block = grid[ks % n]
    del grid
    residual = _reconstruction_residual(block, ks, href, hmax)
    with np.errstate(over="ignore"):
        _ldexp(block, e, out=block)
        bound, top, alias = map(float, _ldexp(np.array([bound, top, alias]), e))
    if not (math.isfinite(bound) and np.isfinite(block).all()):
        raise OverflowError(f"the Laurent block or M leaves the float range (B_k ~ 2^{e})")
    return LaurentCoeffs(
        k_min=k_min,
        k_max=k_max,
        coeffs=block,
        n_quad=n,
        reconstruction_residual=residual,
        circle=circle,
        decay_a=bound,
        decay_b=1.0 / rho,
        diagnostics={"max_norm": top, "aliasing_bound": alias},
    )


def _reconstruction_residual(block, ks, href, hmax) -> float:
    """Largest 2-norm of the truncated series less ``href``, H at the
    :data:`TEST_POINTS`, relative to ``hmax``, the largest ||H|| there."""
    powers = TEST_POINTS[:, None] ** ks[None, :].astype(float)
    gap = _spectral_norms(np.tensordot(powers, block, axes=(1, 0)) - href).max()
    return float(gap / hmax) if hmax > 0 else math.inf if gap else 0.0
