"""Spectral splitting of an operator across the unit circle.

:func:`hyperbolic_split` separates the eigenvalues strictly inside the
unit circle from those strictly outside with one ordered complex Schur
factorisation A = Z T Z^H, whose leading block T11 holds the inner
eigenvalues (Bai & Demmel 1993), and one Sylvester solve
T11 X - X T22 = -T12 (Bartels & Stewart 1972).  The projector onto the
inner invariant subspace along the outer one is P = Z1 (Z1^H - X Z2^H).

:func:`riesz_projector` computes the same P by an independent route, the
resolvent contour integral discretized by the trapezoid rule on
equispaced circle nodes

    P_n = (1/n) sum_j z_j (z_j I - A)^{-1},    z_j = exp(2 pi i j / n),

which converges geometrically at rate max(r_in, 1/r_out)^n where r_in
is the largest modulus inside and r_out the smallest outside;
:func:`check_split` compares the two.  Over the n-th roots of unity the
sum is exactly P_n = (I - A^n)^{-1} when no eigenvalue has lambda^n = 1,
which inverse-free repeated squaring evaluates (the disc dichotomy of
Malyshev 1993 and Bai, Demmel & Gu 1997): O(d^3 log n) work for the
whole doubling sequence instead of O(n d^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HyperbolicityError, QuadratureError
from .operators import Operator, _frobenius, _spectral_norms

#: eigenvalues closer to the unit circle than this make the splitting
#: numerically meaningless
HYPERBOLICITY_MARGIN = 1e-6

#: relative quadrature stagnation tolerance for the doubling loop
QUAD_TOL = 1e-10

#: tolerance of the split invariants and of the Riesz comparison
CHECK_TOL = 1e-8

#: first and largest node counts of the Riesz quadrature
DEFAULT_N_QUAD = 256
MAX_N_QUAD = 8192


def _require_margin(eigs: np.ndarray) -> float:
    """min over ``eigs`` of | |lambda| - 1 |; raises below :data:`HYPERBOLICITY_MARGIN`."""
    got = float(np.abs(np.abs(eigs) - 1.0).min())
    if got < HYPERBOLICITY_MARGIN:
        raise HyperbolicityError(
            f"eigenvalue within {got:.3e} of the unit circle "
            f"(needs >= {HYPERBOLICITY_MARGIN:.1e})"
        )
    return got


def _trapezoid_projectors(matrix: np.ndarray):
    """Yield ``(n, (I - A^n)^{-1})`` for n = DEFAULT_N_QUAD, ..., MAX_N_QUAD.

    The pencil (A_k, B_k), from (A, I), keeps B_k^{-1} A_k = A^(2^k): Q from
    the QR of [B_k; -A_k] gives Q12^H B_k = Q22^H A_k, so A_{k+1} = Q12^H A_k
    and B_{k+1} = Q22^H B_k, and (I - A^n)^{-1} = (B_k - A_k)^{-1} B_k.  As
    ||Q12||, ||Q22|| <= 1 the pencil never grows, so it cannot overflow.
    """
    d = matrix.shape[0]
    a, b = matrix, np.eye(d, dtype=matrix.dtype)
    n = 1
    while n < MAX_N_QUAD:
        q = np.linalg.qr(np.vstack([b, -a]), mode="complete")[0]
        a, b = q[:d, d:].conj().T @ a, q[d:, d:].conj().T @ b
        n *= 2
        if n >= DEFAULT_N_QUAD:
            yield n, np.linalg.solve(b - a, b)


def riesz_projector(op: Operator):
    """Projector onto the inner invariant subspace, with grid doubling.

    Starts at :data:`DEFAULT_N_QUAD` nodes and doubles until two
    successive grids agree to :data:`QUAD_TOL` relative to ``1 + ||P||``.
    The n-node sum is (I - A^n)^{-1}, taken by repeated squaring in
    O(d^3 log n) for the whole sequence, with no resolvent solve.  Raises
    :class:`QuadratureError`, naming the last difference and its
    tolerance, if :data:`MAX_N_QUAD` nodes do not suffice, as when an
    eigenvalue close to the circle slows the geometric convergence.  For
    a strongly non-normal operator, rounding in the final solve can settle
    P away from the true projector; :func:`check_split` then reports
    ``matches_riesz`` false.

    Returns ``(P, n_used, last_diff)``.
    """
    m = op.matrix
    _require_margin(np.linalg.eigvals(m))
    approximants = _trapezoid_projectors(m)
    _, prev = next(approximants)
    for n, cur in approximants:
        diff = _spectral_norms(cur - prev)
        tol = QUAD_TOL * (1.0 + _spectral_norms(cur))
        if diff <= tol:
            return cur, n, float(diff)
        prev = cur
    raise QuadratureError(
        f"projector quadrature did not stagnate within {MAX_N_QUAD} nodes: the last "
        f"two grids differ by {diff:.3e}, above the tolerance {tol:.3e} "
        f"({QUAD_TOL:.1e} x (1 + ||P||))"
    )


@dataclass(frozen=True)
class SpectralSplit:
    """Unit-circle splitting of an operator.

    ``projector`` is the (generally oblique) projector onto the inner
    subspace.  ``basis_inner`` (d x r) and ``basis_outer`` (d x (d-r))
    are orthonormal bases of the inner and outer subspaces;
    ``combine = [basis_inner | basis_outer]`` conjugates the operator to
    ``diag(block_inner, block_outer)``.  The inner block has spectral
    radius < 1 and the outer block has all eigenvalues outside the
    closed unit disc; :func:`hyperbolic_split` returns both blocks upper
    triangular.
    """

    projector: np.ndarray
    rank: int
    basis_inner: np.ndarray
    basis_outer: np.ndarray
    block_inner: np.ndarray
    block_outer: np.ndarray
    combine: np.ndarray
    combine_inv: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.projector.shape[0]


def hyperbolic_split(op: Operator) -> SpectralSplit:
    """Split ``op`` into inner and outer spectral blocks across the circle.

    The ordered Schur form A = Z T Z^H puts the eigenvalues inside the
    disc first: the rank is the sort count, and the hyperbolicity margin
    (raising :class:`HyperbolicityError` below :data:`HYPERBOLICITY_MARGIN`)
    and both radii are read off diag(T).  With X from T11 X - X T22 = -T12
    and Z1 X + Z2 = Q R, the bases are Z1 and Q, the triangular blocks T11
    and R T22 R^{-1}, and ``combine = [Z1 | Q]`` has the closed-form
    inverse [[Z1^H - X Z2^H], [R Z2^H]].  ``diagnostics["sylvester_norm"]``
    = ||X||_2 measures how oblique the split is (0 for a normal operator).

    All structural invariants (idempotency, commutation with the
    operator, exactness of the block conjugation, strict radius bounds)
    are checked here, the first three at :data:`CHECK_TOL` in Frobenius
    norms (see :func:`_invariant_residuals`), and their residuals stored
    in ``diagnostics``.
    """
    from scipy.linalg import qr, schur, solve_sylvester, solve_triangular

    m = op.matrix
    d = op.dim
    t, z, rank = schur(m, output="complex", sort="iuc")
    rank = int(rank)
    eigs = np.diag(t)
    margin = _require_margin(eigs)
    t11, t12, t22 = t[:rank, :rank], t[:rank, rank:], t[rank:, rank:]
    z1, z2 = z[:, :rank], z[:, rank:]
    x = solve_sylvester(t11, -t22, -t12)
    q, r = qr(z1 @ x + z2, mode="economic")
    left_inner = z1.conj().T - x @ z2.conj().T
    split = SpectralSplit(
        projector=z1 @ left_inner,
        rank=rank,
        basis_inner=z1,
        basis_outer=q,
        block_inner=t11,
        # R T22 R^{-1}, from R^T (R T22 R^{-1})^T = (R T22)^T
        block_outer=solve_triangular(r, (r @ t22).T, trans="T").T,
        combine=np.hstack([z1, q]),
        combine_inv=np.vstack([left_inner, r @ z2.conj().T]),
    )

    residuals = _invariant_residuals(split, m)
    r_in = float(np.abs(eigs[:rank]).max()) if rank else 0.0
    r_out_inv = float((1.0 / np.abs(eigs[rank:])).max()) if rank < d else 0.0

    split.diagnostics.update({
        "hyperbolicity_margin": margin,
        **{f"{name}_residual": value for name, (value, _) in residuals.items()},
        "radius_inner": r_in,
        "radius_outer_inv": r_out_inv,
        "sylvester_norm": float(_spectral_norms(x)),
        "projector_convention": "P = Z1 (Z1^H - X Z2^H) from the ordered Schur "
        "form; P projects onto eigenvalues inside the disc",
    })

    problems = [
        f"{name} residual {value:.3e}" for name, (value, ok) in residuals.items() if not ok
    ]
    if rank and not r_in < 1.0:
        problems.append(f"inner radius {r_in} not < 1")
    if rank < d and not r_out_inv < 1.0:
        problems.append(f"outer inverse radius {r_out_inv} not < 1")
    if problems:
        raise QuadratureError(
            "split failed internal checks: " + "; ".join(problems)
        )
    return split


def _invariant_residuals(split: SpectralSplit, m: np.ndarray) -> dict:
    """Idempotency, commutation and similarity residuals of ``split`` of ``m``.

    Maps each name to ``(Frobenius residual, within tolerance)``; for n x n
    matrices idempotency is measured against ``CHECK_TOL * (1 + ||P||_F / sqrt(n))``,
    the other two against ``CHECK_TOL * ||A||_F / sqrt(n)``.  As
    ||X||_2 <= ||X||_F and ||X||_F / sqrt(n) <= ||X||_2, a residual that
    passes also passes the same gate in 2-norms, with no SVD taken.  The
    norms are taken in power-of-two units, so entries near the float limit
    give finite bounds rather than inf ones that pass everything.
    """
    from scipy.linalg import block_diag

    proj = split.projector
    root_n = math.sqrt(m.shape[0])
    norm_a = _frobenius(m) / root_n
    recon = split.combine @ block_diag(split.block_inner, split.block_outer) @ split.combine_inv
    out = {}
    for name, diff, bound in (
        ("idempotency", proj @ proj - proj, CHECK_TOL * (1.0 + _frobenius(proj) / root_n)),
        ("commutation", m @ proj - proj @ m, CHECK_TOL * norm_a),
        ("similarity", recon - m, CHECK_TOL * norm_a),
    ):
        value = _frobenius(diff)
        out[name] = (value, value <= bound)
    return out


def check_split(split: SpectralSplit, op: Operator) -> dict:
    """Re-verify the structural invariants of a split against its operator.

    Returns a dict of named booleans, at tolerance :data:`CHECK_TOL`; used
    by the command-line ``verify`` path so the checks can be reported
    individually.  ``matches_riesz`` compares the projector with the
    independent :func:`riesz_projector` quadrature,
    ||P - P_Riesz||_2 <= CHECK_TOL (1 + ||P||_2); the quadrature raises
    :class:`QuadratureError` when :data:`MAX_N_QUAD` nodes do not settle.
    """
    residuals = _invariant_residuals(split, op.matrix)
    results = {
        "idempotent": residuals["idempotency"][1],
        "commutes": residuals["commutation"][1],
        "similarity": residuals["similarity"][1],
        "inner_contracts": split.rank == 0
        or np.abs(np.linalg.eigvals(split.block_inner)).max() < 1.0,
        "outer_expands": split.rank == split.dim
        or np.abs(np.linalg.eigvals(split.block_outer)).min() > 1.0,
        "bases_orthonormal": all(
            _spectral_norms(v.conj().T @ v - np.eye(v.shape[1])) <= CHECK_TOL
            for v in (split.basis_inner, split.basis_outer)
        ),
        "matches_riesz": _spectral_norms(split.projector - riesz_projector(op)[0])
        <= CHECK_TOL * (1.0 + _spectral_norms(split.projector)),
    }
    return results
