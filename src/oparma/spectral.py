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

    P = (1/n) sum_j z_j (z_j I - A)^{-1},    z_j = exp(2 pi i j / n),

which converges geometrically at rate max(r_in, 1/r_out)^n where r_in
is the largest modulus inside and r_out the smallest outside;
:func:`check_split` compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HyperbolicityError, QuadratureError
from .operators import Operator

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


def _margin(eigs: np.ndarray) -> float:
    """min over ``eigs`` of | |lambda| - 1 | (inf when there are none)."""
    if eigs.size == 0:
        return np.inf
    return float(np.abs(np.abs(eigs) - 1.0).min())


def hyperbolicity_margin(op: Operator) -> float:
    """min over eigenvalues of | |lambda| - 1 | (distance to the circle)."""
    return _margin(np.linalg.eigvals(op.matrix))


def check_hyperbolic(op: Operator) -> float:
    """Return the hyperbolicity margin; raises below :data:`HYPERBOLICITY_MARGIN`."""
    return _require_margin(np.linalg.eigvals(op.matrix))


def _require_margin(eigs: np.ndarray) -> float:
    got = _margin(eigs)
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


def riesz_projector(op: Operator):
    """Projector onto the inner invariant subspace, with grid doubling.

    Starts at :data:`DEFAULT_N_QUAD` nodes and doubles (reusing
    already-computed nodes: the 2n-grid is the n-grid plus the odd
    nodes) until two successive grids agree to :data:`QUAD_TOL` relative
    to ``1 + ||P||``.  Raises :class:`QuadratureError`, naming the last
    difference and its tolerance, if :data:`MAX_N_QUAD` nodes do not
    suffice: an eigenvalue close to the circle slows the geometric
    convergence, and large resolvent norms leave rounding above the
    tolerance even when the spectrum keeps its distance.

    Returns ``(P, n_used, last_diff)``.
    """
    check_hyperbolic(op)
    m = op.matrix
    n = DEFAULT_N_QUAD
    nodes = np.exp(2j * np.pi * np.arange(n) / n)
    acc = _node_resolvent_sum(m, nodes)
    prev = acc / n
    while 2 * n <= MAX_N_QUAD:
        odd = np.exp(2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
        acc = acc + _node_resolvent_sum(m, odd)
        n *= 2
        cur = acc / n
        diff = np.linalg.norm(cur - prev, 2)
        tol = QUAD_TOL * (1.0 + np.linalg.norm(cur, 2))
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


def _norm2(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


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
        "sylvester_norm": _norm2(x),
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
    passes also passes the same gate in 2-norms, with no SVD taken.
    """
    proj = split.projector
    root_n = math.sqrt(m.shape[0])
    norm_a = np.linalg.norm(m) / root_n
    recon = (
        split.combine
        @ _block_diag(split.block_inner, split.block_outer)
        @ split.combine_inv
    )
    out = {}
    for name, diff, bound in (
        ("idempotency", proj @ proj - proj, CHECK_TOL * (1.0 + np.linalg.norm(proj) / root_n)),
        ("commutation", m @ proj - proj @ m, CHECK_TOL * norm_a),
        ("similarity", recon - m, CHECK_TOL * norm_a),
    ):
        value = float(np.linalg.norm(diff))
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
        "matches_riesz": _norm2(split.projector - riesz_projector(op)[0])
        <= CHECK_TOL * (1.0 + _norm2(split.projector)),
    }
    return results
