"""Finite-dimensional realizations of the model operators.

Every operator is a dense d x d complex matrix plus the structured kind it
was built from.  Structured kinds (shifts, multiplication, Volterra
quadrature, ...) keep their construction parameters so that exact norm
formulas and fast application paths stay available next to the dense
representation.

All state spaces here are finite truncations; truncation effects that
matter (a truncated unilateral shift is nilpotent, a truncated
multiplication operator has spectral radius strictly below its limit)
are documented on the relevant kinds and exercised in the scenario
suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    SingularOperatorError,
    SpecificationError,
)

KINDS = (
    "dense",
    "weighted_shift",
    "multiplication",
    "volterra",
    "circular_shift",
    "scaled_unilateral_shift",
    "zero",
    "identity",
)

VOLTERRA_RULES = ("corrected_trapezoid", "left")

#: condition number above which a resolvent solve is treated as singular
COND_LIMIT = 1e12

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative description of an operator: kind, dimension, parameters.

    ``params`` is kind specific:

    - ``dense``: ``entries`` is a d x d nested list / array of complex values.
    - ``weighted_shift``: ``weights`` are the d-1 nonnegative subdiagonal
      factors a_1..a_{d-1}; component i of the image is a_i * x_{i-1}.
    - ``multiplication``: ``multipliers`` are the d diagonal values.
    - ``volterra``: cumulative-integration quadrature on a uniform grid of
      ``dim`` points over [0, 1]; ``rule`` selects the weights (see
      :func:`volterra_matrix`).
    - ``circular_shift``: no parameters; x_i -> x_{(i-1) mod d}.
    - ``scaled_unilateral_shift``: ``scale`` c; x -> c * (0, x_0, x_1, ...).
    - ``zero`` / ``identity``: no parameters.
    """

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecificationError(f"unknown operator kind {self.kind!r}")
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise SpecificationError(f"dim must be a positive integer, got {self.dim!r}")


@dataclass(frozen=True)
class Operator:
    """A materialized operator: dense matrix plus retained kind metadata."""

    matrix: np.ndarray
    spec: OperatorSpec

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def kind(self) -> str:
        return self.spec.kind


def volterra_matrix(m: int, rule: str = "corrected_trapezoid") -> np.ndarray:
    """Quadrature matrix for cumulative integration x -> int_0^s x(t) dt.

    Both rules use the uniform grid s_i = i/m and are strictly lower
    triangular, so the matrix is exactly nilpotent of order m and its
    spectrum is exactly {0}, mirroring the quasinilpotence of the
    integration operator.

    ``left``: plain left-endpoint Riemann sums, all weights h = 1/m.
    First order accurate; the sup-norm of the n-th power undershoots
    1/n! by roughly n(n+1)/(2m).

    ``corrected_trapezoid``: composite trapezoid over [0, s_i] with the
    unavailable endpoint value extrapolated linearly from the last two
    grid points.  Row sums equal s_i exactly and the n-th power norm is
    within about n/m of 1/n!, which is what the norm checks at m = 512
    need.
    """
    if rule not in VOLTERRA_RULES:
        raise SpecificationError(f"unknown volterra rule {rule!r}")
    h = 1.0 / m
    a = np.zeros((m, m))
    if rule == "left":
        a[np.tril_indices(m, -1)] = h
        return a
    for i in range(1, m):
        if i == 1:
            a[1, 0] = h
        elif i == 2:
            a[2, 1] = 2 * h
        else:
            a[i, 0] = h / 2
            a[i, 1 : i - 2] = h
            a[i, i - 2] = h / 2
            a[i, i - 1] = 2 * h
    return a


def build_operator(spec: OperatorSpec) -> Operator:
    """Materialize ``spec`` into its canonical dense matrix."""
    d = spec.dim
    kind = spec.kind
    p = spec.params
    if kind == "dense":
        if "entries" not in p:
            raise SpecificationError("dense operator needs 'entries'")
        m = np.asarray(p["entries"], dtype=complex)
        if m.shape != (d, d):
            raise SpecificationError(f"dense entries must be {d}x{d}, got shape {m.shape}")
    elif kind == "weighted_shift":
        w = np.asarray(p.get("weights", ()), dtype=float)
        if w.shape != (d - 1,):
            raise SpecificationError(
                f"weighted_shift needs {d - 1} weights, got {w.shape}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SpecificationError("weighted_shift weights must be finite and >= 0")
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(1, d), np.arange(d - 1)] = w
    elif kind == "multiplication":
        lam = np.asarray(p.get("multipliers", ()), dtype=complex)
        if lam.shape != (d,):
            raise SpecificationError(f"multiplication needs {d} multipliers, got {lam.shape}")
        m = np.diag(lam)
    elif kind == "volterra":
        grid = p.get("grid", d)
        if grid != d:
            raise SpecificationError(f"volterra grid {grid} must equal dim {d}")
        m = volterra_matrix(d, p.get("rule", "corrected_trapezoid")).astype(complex)
    elif kind == "circular_shift":
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(d), np.arange(-1, d - 1)] = 1.0
    elif kind == "scaled_unilateral_shift":
        c = complex(p.get("scale", 1.0))
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(1, d), np.arange(d - 1)] = c
    elif kind == "zero":
        m = np.zeros((d, d), dtype=complex)
    else:  # identity
        m = np.eye(d, dtype=complex)
    if not np.isfinite(m).all():
        raise SpecificationError(f"{kind} operator has non-finite entries")
    return Operator(matrix=m, spec=spec)


def dense_operator(matrix) -> Operator:
    """Wrap an explicit matrix as a dense Operator."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecificationError(f"matrix must be square, got shape {m.shape}")
    spec = OperatorSpec(kind="dense", dim=m.shape[0], params={"entries": m.copy()})
    return Operator(matrix=m.copy(), spec=spec)


def apply_batch(op: Operator, block: np.ndarray) -> np.ndarray:
    """Apply ``op`` to a (d, n) block of column vectors.

    Structured kinds dispatch to O(d n) paths; everything else falls back
    to a dense matmul.
    """
    if block.shape[0] != op.dim:
        raise DimensionMismatchError(
            f"block has leading dim {block.shape[0]}, operator dim is {op.dim}"
        )
    kind = op.kind
    if kind == "multiplication":
        return np.diagonal(op.matrix)[:, None] * block
    if kind == "circular_shift":
        return np.roll(block, 1, axis=0)
    if kind in ("weighted_shift", "scaled_unilateral_shift"):
        out = np.zeros_like(block)
        sub = np.diagonal(op.matrix, -1)
        out[1:] = sub[:, None] * block[:-1]
        return out
    if kind == "zero":
        return np.zeros_like(block)
    if kind == "identity":
        return block.copy()
    return op.matrix @ block


def _scaled_norm(x: np.ndarray, axis=None) -> tuple:
    """``(np.linalg.norm(x * 2^-k, axis=axis), k)``: norms in units of 2^k.

    k = max(e - 500, 0) for the binary exponent e of the largest |entry|,
    so the squares cannot overflow.  The scaling is exact: below 2^500
    (k = 0) the norms are numpy's own, bit for bit.
    """
    peak = float(np.abs(x).max()) if x.size else 0.0
    k = max(math.frexp(peak)[1] - 500, 0)
    return np.linalg.norm(x * 2.0**-k if k else x, axis=axis), k


def _frobenius(x: np.ndarray) -> float:
    """||x||_F (2-norm of a vector), inf only when the norm itself leaves the float range."""
    norm, k = _scaled_norm(x)
    return float(norm) * 2.0**k


def _scaled_matrix_power(matrix: np.ndarray, n: int):
    """Return (P, log_scale) with matrix**n == P * exp(log_scale).

    Binary powering with per-step rescaling so that intermediate powers
    of strongly contracting or expanding operators neither underflow nor
    overflow.  The arithmetic is real for a real ``matrix``.
    """
    d = matrix.shape[0]
    result = np.eye(d, dtype=matrix.dtype)
    log_scale = 0.0
    base = matrix
    base_log = 0.0
    k = n
    while k:
        if k & 1:
            result = result @ base
            log_scale += base_log
            top = np.abs(result).max()
            if top == 0.0:
                return result, log_scale
            result = result / top
            log_scale += math.log(top)
        k >>= 1
        if k:
            base = base @ base
            base_log *= 2
            top = np.abs(base).max()
            if top == 0.0:
                base_log = -math.inf
            else:
                base = base / top
                base_log += math.log(top)
    return result, log_scale


def power_log_norm(op: Operator, n: int) -> float:
    """log of the induced 2-norm of op**n (-inf when the power vanishes)."""
    if n < 0:
        raise SpecificationError("power must be >= 0")
    if n == 0:
        return 0.0
    p, log_scale = _scaled_matrix_power(op.matrix, n)
    top = np.linalg.norm(p, 2)
    if top == 0.0 or log_scale == -math.inf:
        return -math.inf
    return math.log(top) + log_scale


def power_norm(op: Operator, n: int) -> float:
    """Induced 2-norm of op**n.

    Raises on overflow of the final value; intermediate powers are
    computed with log scaling and cannot overflow.
    """
    ln = power_log_norm(op, n)
    if ln == -math.inf:
        return 0.0
    if ln > _LOG_FLOAT_MAX:
        raise OverflowError(f"||A^{n}|| overflows float range (log norm {ln:.3g})")
    return math.exp(ln)


def structured_log_norm(op: Operator, n: int) -> float:
    """log of the sup-norm of op**n via the kind's exact formula.

    Weighted shifts use max sliding products of the weights, computed in
    log space so that double-exponentially small weights stay exact far
    beyond float underflow.  Volterra powers use the materialized matrix
    with scaled powering (the sup-norm of a nonnegative matrix power is
    its max row sum).
    """
    if n < 0:
        raise SpecificationError("power must be >= 0")
    if n == 0:
        return 0.0
    kind = op.kind
    d = op.dim
    if kind == "weighted_shift":
        if n > d - 1:
            return -math.inf
        w = np.abs(np.diagonal(op.matrix, -1))
        with np.errstate(divide="ignore"):
            logs = np.log(w)
        windows = np.convolve(logs, np.ones(n), mode="valid")
        return float(np.max(windows))
    if kind == "multiplication":
        top = np.abs(np.diagonal(op.matrix)).max()
        return -math.inf if top == 0.0 else n * math.log(top)
    if kind == "volterra":
        p, log_scale = _scaled_matrix_power(np.ascontiguousarray(op.matrix.real), n)
        rowsum = np.abs(p).sum(axis=1).max()
        if rowsum == 0.0 or log_scale == -math.inf:
            return -math.inf
        return math.log(rowsum) + log_scale
    if kind == "circular_shift":
        return 0.0
    if kind == "scaled_unilateral_shift":
        if n > d - 1:
            return -math.inf
        c = abs(complex(op.spec.params.get("scale", 1.0)))
        return -math.inf if c == 0.0 else n * math.log(c)
    if kind == "identity":
        return 0.0
    if kind == "zero":
        return -math.inf
    raise SpecificationError(f"no structured norm formula for kind {kind!r}")


def structured_norm(op: Operator, n: int) -> float:
    """Sup-norm of op**n via the exact structured formula (linear scale)."""
    ln = structured_log_norm(op, n)
    if ln == -math.inf:
        return 0.0
    if ln > _LOG_FLOAT_MAX:
        raise OverflowError(f"structured ||A^{n}|| overflows float range")
    return math.exp(ln)


def spectral_radius(op: Operator) -> float:
    """Spectral radius as max |eigenvalue| (0 for a nilpotent operator)."""
    try:
        eigs = np.linalg.eigvals(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularOperatorError(f"eigenvalue solve failed: {exc}") from exc
    return float(np.abs(eigs).max()) if eigs.size else 0.0


@dataclass(frozen=True)
class ArmaModel:
    """An ARMA(p, q) model: AR operators A_1..A_p, MA operators B_0..B_q.

    All operators act on the same d-dimensional space.  The process
    solves Y_t - A_1 Y_{t-1} - ... - A_p Y_{t-p} = B_0 Z_t + ... + B_q Z_{t-q}.
    """

    ar_ops: tuple
    ma_ops: tuple

    def __post_init__(self):
        if len(self.ar_ops) < 1:
            raise SpecificationError("need at least one AR operator (p >= 1)")
        if len(self.ma_ops) < 1:
            raise SpecificationError("need at least B_0 (q >= 0)")
        d = self.ar_ops[0].dim
        for i, o in enumerate(self.ar_ops):
            if o.dim != d:
                raise DimensionMismatchError(f"AR operator {i + 1} has dim {o.dim}, expected {d}")
        for k, o in enumerate(self.ma_ops):
            if o.dim != d:
                raise DimensionMismatchError(f"MA operator {k} has dim {o.dim}, expected {d}")

    @property
    def p(self) -> int:
        return len(self.ar_ops)

    @property
    def q(self) -> int:
        return len(self.ma_ops) - 1

    @property
    def dim(self) -> int:
        return self.ar_ops[0].dim


def arma_model(ar_ops: Sequence[Operator], ma_ops: Sequence[Operator]) -> ArmaModel:
    return ArmaModel(ar_ops=tuple(ar_ops), ma_ops=tuple(ma_ops))


def companion_lift(model: ArmaModel) -> Operator:
    """Block-companion operator of an ARMA(p, q) model on the p-fold product space.

    The first block row is A_1..A_p and the subdiagonal blocks are
    identities; noise enters through the first block.  For p = 1 the lift
    is A_1 itself.
    """
    if model.p == 1:
        return model.ar_ops[0]
    d = model.dim
    big = np.eye(model.p * d, k=-d, dtype=complex)
    big[:d] = np.hstack([a.matrix for a in model.ar_ops])
    return dense_operator(big)


def ma_moment_operator(model: ArmaModel) -> np.ndarray:
    """The operator sum_{k=0}^{q} A_1^{q-k} B_k entering the log-moment test.

    Defined for p = 1 models; order-p models go through the companion
    lift first (the lifted sum applied to the embedded noise has the
    same norm behaviour up to the similarity).
    """
    if model.p != 1:
        raise SpecificationError("ma_moment_operator expects p = 1; lift the model first")
    a = model.ar_ops[0].matrix
    q = model.q
    acc = np.zeros_like(a)
    pw = np.eye(model.dim, dtype=complex)
    # pw = A^(q-k) built from k = q downward
    for k in range(q, -1, -1):
        acc = acc + pw @ model.ma_ops[k].matrix
        if k > 0:
            pw = a @ pw
    return acc
