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

Values, noise above all, span the whole float range, so norms, residuals,
convolution blocks and matrix powers are held in power-of-two units.
:func:`_exponent` (the binary exponent of the largest |entry|) and
:func:`_ldexp` (an exact scaling by 2^e) are the only code that scales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    SingularOperatorError,
    SpecificationError,
)

#: each operator kind's params and the form of each value: a complex
#: "matrix", "vector" or "complex" scalar, a "reals" list, an "int" or a "str"
PARAMS = {
    "dense": {"entries": "matrix"},
    "weighted_shift": {"weights": "reals"},
    "multiplication": {"multipliers": "vector"},
    "volterra": {"grid": "int", "rule": "str"},
    "circular_shift": {},
    "scaled_unilateral_shift": {"scale": "complex"},
    "zero": {},
    "identity": {},
}

KINDS = tuple(PARAMS)

VOLTERRA_RULES = ("corrected_trapezoid", "left")

#: condition number above which a resolvent solve is treated as singular
COND_LIMIT = 1e12

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative description of an operator: kind, dimension, parameters.

    ``params`` holds only names that :data:`PARAMS` declares for the kind:

    - ``dense``: ``entries`` is a d x d nested list / array of complex values.
    - ``weighted_shift``: ``weights`` are the d-1 nonnegative subdiagonal
      factors a_1..a_{d-1}; component i of the image is a_i * x_{i-1}.
    - ``multiplication``: ``multipliers`` are the d diagonal values.
    - ``volterra``: cumulative-integration quadrature on a uniform grid of
      ``dim`` points over [0, 1]; ``rule`` selects the weights (see
      :func:`volterra_matrix`); ``grid``, if given, must equal ``dim``.
    - ``circular_shift``: no parameters; x_i -> x_{(i-1) mod d}.
    - ``scaled_unilateral_shift``: ``scale`` c (default 1); x -> c * (0, x_0, x_1, ...).
    - ``zero`` / ``identity``: no parameters.
    """

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_spec("operator", PARAMS, self)


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


#: largest dim whose d x d complex matrix has a byte count that fits an index
_MAX_DIM = math.isqrt(sys.maxsize // 16)


def _param_array(key: str, value, dtype) -> np.ndarray:
    """The param ``key``'s ``value`` as an array of ``dtype`` (float or complex).

    An integer past the float range raises :class:`SpecificationError`
    naming ``key``.
    """
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise SpecificationError(f"param {key!r}: integer out of the float range") from None


def _check_spec(what: str, table: dict, spec) -> None:
    """Raise unless ``spec`` has a kind of ``table``, a positive dim and only its kind's params."""
    if not isinstance(spec.kind, str) or spec.kind not in table:
        raise SpecificationError(f"unknown {what} kind {spec.kind!r}")
    if not _is_int(spec.dim) or spec.dim < 1:
        raise SpecificationError(f"dim must be a positive integer, got {spec.dim!r}")
    if spec.dim > _MAX_DIM:
        raise SpecificationError(f"dim {spec.dim} is past {_MAX_DIM}, the largest matrix side")
    bad = [key for key in spec.params if key not in table[spec.kind]]
    if bad:
        raise SpecificationError(
            f"{spec.kind} {what} does not take param(s) {bad}; "
            f"it takes {list(table[spec.kind]) or 'none'}"
        )


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
        m = _param_array("entries", p["entries"], complex)
        if m.shape != (d, d):
            raise SpecificationError(f"dense entries must be {d}x{d}, got shape {m.shape}")
    elif kind == "weighted_shift":
        w = _param_array("weights", p.get("weights", ()), float)
        if w.shape != (d - 1,):
            raise SpecificationError(
                f"weighted_shift needs {d - 1} weights, got {w.shape}"
            )
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SpecificationError("weighted_shift weights must be finite and >= 0")
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(1, d), np.arange(d - 1)] = w
    elif kind == "multiplication":
        lam = _param_array("multipliers", p.get("multipliers", ()), complex)
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
        c = complex(_param_array("scale", p.get("scale", 1.0), complex))
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


def _exponent(x: np.ndarray, axis=None):
    """Binary exponent e of the largest |entry| of ``x``: 2^-e brings it into [1/2, 1).

    Per slice along ``axis`` when given (kept as size-1 axes, so it
    broadcasts against ``x``); 0 for an empty or all-zero ``x``.
    """
    e = np.frexp(np.abs(x).max(axis=axis, initial=0.0, keepdims=axis is not None))[1]
    return int(e) if axis is None else e


def _ldexp(x: np.ndarray, e, out=None) -> np.ndarray:
    """x * 2^e, exactly and for any integer ``e`` (or array of them), into ``out``.

    ``out`` defaults to a new array of x's type; a complex ``out`` gets
    the real and imaginary parts scaled separately, and may be ``x`` itself.
    """
    if out is None:
        out = np.empty_like(x)
    if np.iscomplexobj(out):
        np.ldexp(x.real, e, out=out.real)
        np.ldexp(x.imag, e, out=out.imag)
    else:
        np.ldexp(x, e, out=out)
    return out


def _unit_ma(model: ArmaModel) -> tuple:
    """``(unit, e)``: ``model`` with its B_k times 2^-e exactly, their largest |entry| in [1, 2)."""
    e = _exponent(np.stack([b.matrix for b in model.ma_ops])) - 1
    ma = tuple(replace(b, matrix=_ldexp(b.matrix, -e)) for b in model.ma_ops)
    return replace(model, ma_ops=ma), e


def _scaled_norm(x: np.ndarray, axis=None) -> tuple:
    """``(np.linalg.norm(x * 2^-k, axis=axis), k)``: norms in units of 2^k.

    k moves the largest |entry| into [2^-501, 2^500), down or up, so the
    squares neither overflow nor underflow; k = 0 when it lies there
    already, and then the norms are numpy's own, bit for bit.
    """
    e = _exponent(x)
    k = e - 500 if e > 500 else e + 500 if e < -500 else 0
    return np.linalg.norm(_ldexp(x, -k) if k else x, axis=axis), k


def _frobenius(x: np.ndarray) -> float:
    """||x||_F (2-norm of a vector), inf only when the norm itself leaves the float range."""
    norm, k = _scaled_norm(x)
    return float(norm) * 2.0**k


def _spectral_norms(x: np.ndarray):
    """Induced 2-norm (largest singular value) of each matrix of ``x`` (..., m, n); 0 if empty."""
    if x.size == 0:
        return np.zeros(x.shape[:-2])[()]
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def _scaled_matrix_power(matrix: np.ndarray, n: int):
    """Return (P, e) with matrix**n == P * 2^e for an integer e.

    Binary powering; every factor and product is brought back to a peak
    in [1/2, 1) by an exact power of two, so that powers of strongly
    contracting or expanding operators neither underflow nor overflow,
    and P has the bits of the unscaled products wherever those stay in
    range.  P is 0 when the power vanishes.  The arithmetic is real for a
    real ``matrix``.
    """
    result, e = np.eye(matrix.shape[0], dtype=matrix.dtype), 0
    base, base_e = matrix, 0
    while n:
        k = _exponent(base)
        base, base_e = _ldexp(base, -k), base_e + k
        if n & 1:
            result, e = result @ base, e + base_e
            k = _exponent(result)
            result, e = _ldexp(result, -k), e + k
        n >>= 1
        if n:
            base, base_e = base @ base, 2 * base_e
    return result, e


def power_log_norm(op: Operator, n: int) -> float:
    """log of the induced 2-norm of op**n (-inf when the power vanishes)."""
    if n < 0:
        raise SpecificationError("power must be >= 0")
    if n == 0:
        return 0.0
    p, e = _scaled_matrix_power(op.matrix, n)
    top = _spectral_norms(p)
    return -math.inf if top == 0.0 else math.log(top) + e * _LN2


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
        p, e = _scaled_matrix_power(np.ascontiguousarray(op.matrix.real), n)
        rowsum = np.abs(p).sum(axis=1).max()
        return -math.inf if rowsum == 0.0 else math.log(rowsum) + e * _LN2
    if kind == "circular_shift":
        return 0.0
    if kind == "scaled_unilateral_shift":
        if n > d - 1:
            return -math.inf
        c = abs(complex(op.matrix[1, 0]))
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
    """The pd x d operator M = sum_{k=0}^{q} A^{q-k} E B_k entering the log-moment test.

    A is :func:`companion_lift` and E embeds the noise in the lift's first
    block, as the split does.  The probes sum A^{j-q} M Z_j, so M Z_j is
    the lifted state that Z_j drives past the MA window, and a noise
    direction x with M x = 0 enters only finitely many lags.  For p = 1,
    A = A_1, E = I and M = sum_k A_1^{q-k} B_k.
    """
    d, q = model.dim, model.q
    a = companion_lift(model).matrix
    acc = np.zeros((a.shape[0], d), dtype=complex)
    pw = np.eye(a.shape[0], dtype=complex)
    # pw = A^(q-k) built from k = q downward; pw[:, :d] = A^(q-k) E
    for k in range(q, -1, -1):
        acc = acc + pw[:, :d] @ model.ma_ops[k].matrix
        if k > 0:
            pw = a @ pw
    return acc
