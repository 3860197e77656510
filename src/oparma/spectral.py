"""Spectral splitting of an operator across the unit circle.

The splitting separates the part of the spectrum strictly inside the
unit circle from the part strictly outside.  The projector onto the
inner invariant subspace is the contour integral of the resolvent,
discretized by the trapezoid rule on equispaced circle nodes

    P = (1/n) sum_j z_j (z_j I - A)^{-1},    z_j = exp(2 pi i j / n),

which converges geometrically at rate max(r_in, 1/r_out)^n where r_in
is the largest modulus inside and r_out the smallest outside.  Signs
and orientation are fixed so that P projects onto the eigenvalues
INSIDE the disc; the resolvent here is (z I - A)^{-1} and the contour
is traversed counterclockwise.  This convention is recorded in the
split's diagnostics so downstream consumers never have to guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HyperbolicityError,
    QuadratureError,
    RankAmbiguityError,
    SpecificationError,
)
from .operators import Operator

#: eigenvalues closer to the unit circle than this make the splitting
#: numerically meaningless
HYPERBOLICITY_MARGIN = 1e-6

#: singular values of P in this open band cannot be classified as rank
#: contributors or noise
RANK_BAND = (1e-8, 1e-6)

#: relative quadrature stagnation tolerance for the doubling loop
QUAD_TOL = 1e-10

#: tolerance of the split invariants (idempotency, commutation, similarity)
CHECK_TOL = 1e-8

DEFAULT_N_QUAD = 256
MAX_N_QUAD = 8192


def hyperbolicity_margin(op: Operator) -> float:
    """min over eigenvalues of | |lambda| - 1 | (distance to the circle)."""
    eigs = np.linalg.eigvals(op.matrix)
    if eigs.size == 0:
        return np.inf
    return float(np.abs(np.abs(eigs) - 1.0).min())


def check_hyperbolic(op: Operator) -> float:
    """Return the hyperbolicity margin; raises below :data:`HYPERBOLICITY_MARGIN`."""
    got = hyperbolicity_margin(op)
    if got < HYPERBOLICITY_MARGIN:
        raise HyperbolicityError(
            f"eigenvalue within {got:.3e} of the unit circle "
            f"(needs >= {HYPERBOLICITY_MARGIN:.1e})"
        )
    return got


def _node_resolvent_sum(matrix: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """sum_j z_j (z_j I - A)^{-1} over the given nodes, chunked for memory."""
    d = matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    total = np.zeros((d, d), dtype=complex)
    for start in range(0, nodes.size, 1024):
        chunk = nodes[start : start + 1024]
        shifted = chunk[:, None, None] * eye[None] - matrix[None]
        rhs = np.broadcast_to(eye, (chunk.size, d, d))
        solved = np.linalg.solve(shifted, rhs)
        total += np.einsum("j,jkl->kl", chunk, solved)
    return total


def riesz_projector(op: Operator, n_quad: int = DEFAULT_N_QUAD):
    """Projector onto the inner invariant subspace, with grid doubling.

    Starts at ``n_quad`` nodes and doubles (reusing already-computed
    nodes: the 2n-grid is the n-grid plus the odd nodes) until two
    successive grids agree to :data:`QUAD_TOL` relative to ``1 + ||P||``.
    Raises :class:`QuadratureError` if :data:`MAX_N_QUAD` nodes do not
    suffice, which happens when an eigenvalue sits close enough to the
    circle that geometric convergence is too slow.

    Returns ``(P, n_used, last_diff)``.
    """
    if n_quad < 2:
        raise SpecificationError(f"n_quad must be >= 2, got {n_quad}")
    check_hyperbolic(op)
    m = op.matrix
    n = n_quad
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    acc = _node_resolvent_sum(m, nodes)
    prev = acc / n
    while 2 * n <= MAX_N_QUAD:
        odd = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
        acc = acc + _node_resolvent_sum(m, odd)
        n *= 2
        cur = acc / n
        diff = np.linalg.norm(cur - prev, 2)
        if diff <= QUAD_TOL * (1.0 + np.linalg.norm(cur, 2)):
            return cur, n, float(diff)
        prev = cur
    raise QuadratureError(
        f"projector quadrature did not stagnate below {QUAD_TOL:.1e} "
        f"within {MAX_N_QUAD} nodes; spectrum is too close to the circle"
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
    closed unit disc.
    """

    projector: np.ndarray
    rank: int
    basis_inner: np.ndarray
    basis_outer: np.ndarray
    block_inner: np.ndarray
    block_outer: np.ndarray
    combine: np.ndarray
    combine_inv: np.ndarray
    n_quad: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.projector.shape[0]


def _norm2(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _safe_radius(block: np.ndarray) -> float:
    if block.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(block)).max())


def _safe_inv_radius(block: np.ndarray) -> float:
    if block.shape[0] == 0:
        return 0.0
    return float(np.abs(1.0 / np.linalg.eigvals(block)).max())


def hyperbolic_split(op: Operator, n_quad: int = DEFAULT_N_QUAD) -> SpectralSplit:
    """Split ``op`` into inner and outer spectral blocks across the circle.

    The rank of the projector is read off its singular values with a
    hard band: values above 1e-6 count, values below 1e-8 are noise,
    anything in between raises :class:`RankAmbiguityError` rather than
    guessing.  Orthonormal bases come from the left singular vectors of
    P and I - P, so ``combine`` is well conditioned whenever the
    projector itself is.

    All structural invariants (idempotency, commutation with the
    operator, exactness of the block conjugation, strict radius bounds)
    are checked here, the first three at :data:`CHECK_TOL`, and their
    residuals stored in ``diagnostics``.
    """
    proj, n_used, quad_diff = riesz_projector(op, n_quad)
    d = op.dim
    m = op.matrix
    u, sv, _ = np.linalg.svd(proj)
    lo, hi = RANK_BAND
    ambiguous = sv[(sv > lo) & (sv < hi)]
    if ambiguous.size:
        raise RankAmbiguityError(
            f"projector singular values {ambiguous} fall in the ambiguity "
            f"band ({lo:.0e}, {hi:.0e}); rank cannot be determined"
        )
    rank = int((sv >= hi).sum())

    u_in = u[:, :rank]
    comp = np.eye(d) - proj
    u_out = (
        np.linalg.svd(comp)[0][:, : d - rank]
        if rank < d
        else np.zeros((d, 0), dtype=complex)
    )
    combine = np.hstack([u_in, u_out])
    split = SpectralSplit(
        projector=proj,
        rank=rank,
        basis_inner=u_in,
        basis_outer=u_out,
        block_inner=u_in.conj().T @ m @ u_in,
        block_outer=u_out.conj().T @ m @ u_out,
        combine=combine,
        combine_inv=np.linalg.inv(combine),
        n_quad=n_used,
    )

    residuals = _invariant_residuals(split, m)
    r_in = _safe_radius(split.block_inner)
    r_out_inv = _safe_inv_radius(split.block_outer)

    split.diagnostics.update({
        "hyperbolicity_margin": hyperbolicity_margin(op),
        "n_quad": n_used,
        "quad_diff": quad_diff,
        **{f"{name}_residual": value for name, (value, _) in residuals.items()},
        "radius_inner": r_in,
        "radius_outer_inv": r_out_inv,
        "singular_values": sv,
        "projector_convention": "resolvent (zI - A)^{-1}, counterclockwise "
        "unit circle; P projects onto eigenvalues inside the disc",
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

    Maps each name to ``(residual, within tolerance)``; idempotency is
    measured against ``CHECK_TOL * (1 + ||P||)``, the other two against
    ``CHECK_TOL * ||A||``.
    """
    proj = split.projector
    norm_a = np.linalg.norm(m, 2)
    recon = (
        split.combine
        @ _block_diag(split.block_inner, split.block_outer)
        @ split.combine_inv
    )
    out = {}
    for name, diff, bound in (
        ("idempotency", proj @ proj - proj, CHECK_TOL * (1.0 + np.linalg.norm(proj, 2))),
        ("commutation", m @ proj - proj @ m, CHECK_TOL * norm_a),
        ("similarity", recon - m, CHECK_TOL * norm_a),
    ):
        value = float(np.linalg.norm(diff, 2))
        out[name] = (value, value <= bound)
    return out


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def check_split(split: SpectralSplit, op: Operator) -> dict:
    """Re-verify the structural invariants of a split against its operator.

    Returns a dict of named booleans, at tolerance :data:`CHECK_TOL`; used
    by the command-line ``verify`` path so the checks can be reported
    individually.
    """
    residuals = _invariant_residuals(split, op.matrix)
    results = {
        "idempotent": residuals["idempotency"][1],
        "commutes": residuals["commutation"][1],
        "similarity": residuals["similarity"][1],
        "inner_contracts": split.rank == 0 or _safe_radius(split.block_inner) < 1.0,
        "outer_expands": split.rank == split.dim
        or _safe_inv_radius(split.block_outer) < 1.0,
        "bases_orthonormal": (
            _norm2(
                split.basis_inner.conj().T @ split.basis_inner - np.eye(split.rank)
            )
            <= CHECK_TOL
            and _norm2(
                split.basis_outer.conj().T @ split.basis_outer
                - np.eye(split.dim - split.rank)
            )
            <= CHECK_TOL
        ),
    }
    return results
