"""JSON codecs for models, noise, and result payloads.

Complex numbers are encoded per element: a plain JSON number is a real
value, a two-element array [re, im] is a complex one.  Models serialize
canonically (zero imaginary parts collapse back to plain numbers), so
loading a file and re-serializing it yields the canonical form of the
same content.  Matrices nest as row-major lists, in pairs for splits.
A matrix is read by C-level checks and one array conversion; only a
rejected one is walked entry by entry, to name its first fault.  Bulk
matrices go out as :class:`JsonRows`, one compact row per line, their
numbers written by the vectorized formatter ``_ryu`` in ``repr``'s exact
text, a block at a time.

Decoding is table-directed: ``operators.PARAMS`` and
``engine.noise.NOISE_PARAMS`` are the whole input contract.  One reader
checks an operator entry or a noise document and decodes each param, as
dump encodes it, by the value form its table declares, because the
element codec is ambiguous on bare shapes: [1.0, 2.0] is one complex
number where a complex entry is expected but two real weights where a
real list is expected.  Errors name the ``$``-rooted JSON path at fault.
"""

from __future__ import annotations

import dataclasses
import json
from itertools import chain, compress, repeat
from operator import not_
from pathlib import Path

import numpy as np

from . import _ryu
from .engine.noise import NOISE_PARAMS, NoiseSpec
from .errors import SpecificationError
from .operators import PARAMS, ArmaModel, Operator, OperatorSpec, arma_model, build_operator


# ---------------------------------------------------------------------------
# element codec


def encode_complex(z) -> float | list:
    """Canonical form of one scalar: plain number unless truly complex."""
    z = complex(z)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def _float(value, where: str) -> float:
    """A JSON number as a float; an integer past the float range raises."""
    try:
        return float(value)
    except OverflowError:
        raise SpecificationError(f"{where}: integer out of the float range") from None


def decode_complex(value, where: str) -> complex:
    if isinstance(value, bool):
        raise SpecificationError(f"{where}: expected a number or [re, im], got {value!r}")
    if isinstance(value, (int, float)):
        return complex(_float(value, where))
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(_float(value[0], f"{where}[0]"), _float(value[1], f"{where}[1]"))
    raise SpecificationError(f"{where}: expected a number or [re, im], got {value!r}")


def encode_matrix(m) -> list:
    """Nested-list form of canonical elements."""
    return [[encode_complex(z) for z in row] for row in np.asarray(m).astype(complex)]


def _numbers(values) -> bool:
    """Whether every value is a number (an int or a float, not a bool), by type."""
    return all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, values)))


def _elements(cells: list) -> np.ndarray | None:
    """``cells``, numbers and [re, im] pairs, as a flat complex array.

    Checks and converts in C-level passes.  None when a cell is not an
    element or an integer lies past the float range: exactly the cells on
    which :func:`decode_complex` raises.
    """
    pair = list(map(isinstance, cells, repeat(list)))
    pairs = list(compress(cells, pair))
    reals = list(compress(cells, map(not_, pair)))
    if not (
        _numbers(reals) and set(map(len, pairs)) <= {2} and _numbers(chain.from_iterable(pairs))
    ):
        return None
    out = np.empty(len(cells), dtype=complex)
    mask = np.array(pair, dtype=bool)
    try:
        out[~mask] = np.array(reals, dtype=float)
        out[mask] = np.array(pairs, dtype=float).reshape(-1, 2).view(complex)[:, 0]
    except OverflowError:
        return None
    return out


def decode_matrix(value, where: str) -> np.ndarray:
    """Non-empty equal rows of numbers and [re, im] pairs as a complex array.

    C-level passes check and convert the value.  A value they reject is
    walked entry by entry, which rejects the same values, to raise its
    first fault by its JSON path.
    """
    if isinstance(value, list) and value and all(map(isinstance, value, repeat(list))):
        widths = set(map(len, value))
        if len(widths) == 1 and 0 not in widths:
            out = _elements(list(chain.from_iterable(value)))
            if out is not None:
                return out.reshape(len(value), -1)
    if not isinstance(value, list) or not value:
        raise SpecificationError(f"{where}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise SpecificationError(f"{where}[{i}]: expected a non-empty row list")
        rows.append([decode_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise SpecificationError(f"{where}: ragged rows, widths {sorted(widths)}")
    return np.array(rows, dtype=complex)


def _decode_vector(value, where: str) -> list:
    if not isinstance(value, list):
        raise SpecificationError(f"{where}: expected a list")
    out = _elements(value)
    if out is None:  # the walk raises the first fault by its JSON path
        return [decode_complex(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return out.tolist()


def _real_scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(f"{where}: expected a real number, got {value!r}")
    return _float(value, where)


def _real_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SpecificationError(f"{where}: expected a list of real numbers")
    return [_real_scalar(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _real_or_reals(value, where: str):
    return (_real_list if isinstance(value, list) else _real_scalar)(value, where)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecificationError(f"{where}: expected an integer, got {value!r}")
    return value


#: value form of a kind table -> (decode from JSON, encode to JSON); noise
#: files are only read, so the noise-only forms have no encoder, and a bad
#: "str" value is left to ``build_operator`` to reject
_CODEC = {
    "matrix": (decode_matrix, encode_matrix),
    "vector": (_decode_vector, lambda v: [encode_complex(z) for z in v]),
    "complex": (decode_complex, encode_complex),
    "real": (_real_scalar, None),
    "reals": (_real_list, lambda v: [float(x) for x in v]),
    "real or reals": (_real_or_reals, None),
    "int": (_integer, int),
    "str": (lambda v, where: v, str),
}


# ---------------------------------------------------------------------------
# table-validated loading


def _load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SpecificationError(f"{path}: no such file")
    except OSError as exc:
        raise SpecificationError(f"{path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecificationError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SpecificationError(f"{path}: {exc}") from None


def _read(data, where: str, table: dict, build, extra: tuple = ()):
    """``build(kind=, dim=, params=, **extra)`` of the object ``data`` at JSON path ``where``.

    Each param is decoded by the form ``table`` declares for it; an
    undeclared one goes on as is, for the spec to reject.
    """
    keys = {"kind", "dim", "params", *extra}
    if not isinstance(data, dict) or not {"kind", "dim"} <= set(data) <= keys:
        raise SpecificationError(
            f"{where}: expected an object with 'kind' and 'dim' and no keys but {sorted(keys)}"
        )
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise SpecificationError(f"{where}.kind: expected one of {list(table)}, got {kind!r}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise SpecificationError(f"{where}.params: expected an object, got {params!r}")
    forms = table[kind]
    params = {
        key: _CODEC[forms[key]][0](value, f"{where}.params.{key}") if key in forms else value
        for key, value in params.items()
    }
    ints = {key: _integer(data[key], f"{where}.{key}") for key in ("dim", *extra) if key in data}
    try:
        return build(kind=kind, params=params, **ints)
    except SpecificationError as exc:
        raise SpecificationError(f"{where}: {exc}")


def _operator(**fields) -> Operator:
    return build_operator(OperatorSpec(**fields))


def load_model(path) -> ArmaModel:
    """Read, validate, and materialize an ARMA model file."""
    data = _load_json(path)
    ops, named = {"ar": [], "ma": []}, []
    try:
        if not isinstance(data, dict) or set(data) != set(ops):
            raise SpecificationError("$: expected an object with exactly 'ar' and 'ma'")
        for group in ops:
            if not isinstance(data[group], list) or not data[group]:
                raise SpecificationError(f"$.{group}: expected a non-empty list")
            for i, entry in enumerate(data[group]):
                named.append(f"$.{group}[{i}]")
                ops[group].append(_read(entry, named[-1], PARAMS, _operator))
        dims = [op.dim for op in ops["ar"] + ops["ma"]]
        for where, dim in zip(named, dims):
            if dim != dims[0]:
                raise SpecificationError(f"{where} has dim {dim} but {named[0]} sets dim {dims[0]}")
        return arma_model(ops["ar"], ops["ma"])
    except SpecificationError as exc:
        raise SpecificationError(f"{path}: {exc}")


def load_operator(path) -> Operator:
    """Read, validate, and materialize a file holding one operator entry.

    The entry has the form of one item of a model file's ``ar`` or ``ma`` list.
    """
    data = _load_json(path)
    try:
        return _read(data, "$", PARAMS, _operator)
    except SpecificationError as exc:
        raise SpecificationError(f"{path}: {exc}")


def dump_model(model: ArmaModel) -> dict:
    """Canonical JSON form of a model (inverse of :func:`load_model`)."""

    def op_entry(op):
        forms = PARAMS[op.kind]
        entry = {"kind": op.kind, "dim": op.dim}
        if op.spec.params:
            entry["params"] = {
                key: _CODEC[forms[key]][1](value) for key, value in op.spec.params.items()
            }
        return entry

    return {
        "ar": [op_entry(op) for op in model.ar_ops],
        "ma": [op_entry(op) for op in model.ma_ops],
    }


def load_noise(path) -> NoiseSpec:
    """Read and validate an innovation-distribution file."""
    data = _load_json(path)
    try:
        return _read(data, "$", NOISE_PARAMS, NoiseSpec, extra=("seed",))
    except SpecificationError as exc:
        raise SpecificationError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# result payloads


def sanitize(obj):
    """Recursive conversion to JSON-encodable values.

    numpy scalars and arrays unwrap, complex values take the canonical
    element form, and non-finite floats become their string names since
    strict JSON has no literal for them.
    """
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not np.isfinite(f):
            return repr(f)
        return f
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            return repr(z)
        return encode_complex(z)
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return sanitize(dataclasses.asdict(obj))
    raise SpecificationError(f"cannot serialize {type(obj).__name__} to JSON")


def split_payload(split) -> dict:
    """SpectralSplit as JSON, matrices entry-wise as [re, im] pairs."""
    return {
        "dim": split.dim,
        "rank": split.rank,
        "radius_inner": sanitize(split.diagnostics.get("radius_inner")),
        "radius_outer_inv": sanitize(split.diagnostics.get("radius_outer_inv")),
        "projector": _matrix_rows(split.projector, pairs=True),
        "block_inner": _matrix_rows(split.block_inner, pairs=True),
        "block_outer": _matrix_rows(split.block_outer, pairs=True),
        "combine": _matrix_rows(split.combine, pairs=True),
        "combine_inv": _matrix_rows(split.combine_inv, pairs=True),
        "diagnostics": sanitize(split.diagnostics),
    }


def laurent_payload(lc) -> dict:
    records = [
        {
            "k": int(k),
            "norm": float(norm),
            "psi": _matrix_rows(mat),
        }
        for k, norm, mat in zip(lc.ks, lc.norms, lc.coeffs)
    ]
    return {
        "k_min": lc.k_min,
        "k_max": lc.k_max,
        "n_quad": lc.n_quad,
        "decay_a": float(lc.decay_a),
        "decay_b": float(lc.decay_b),
        "reconstruction_residual": float(lc.reconstruction_residual),
        "coefficients": records,
    }


def circle_payload(cc) -> dict:
    return {
        "ok": bool(cc.passed),
        "min_singular_value": float(cc.min_singular_value),
        "worst_z": [float(cc.worst_z.real), float(cc.worst_z.imag)],
        "n_eigensolves": int(cc.n_eigensolves),
        "tol": float(cc.tol),
        "leading_ar_condition": sanitize(cc.leading_ar_condition),
        "leading_ar_invertible": bool(cc.leading_ar_invertible),
    }


@dataclasses.dataclass(frozen=True)
class JsonRows:
    """A matrix already encoded as JSON: compact rows, one per line of ``text``.

    :func:`dumps` splices the rows in, one per line, wherever the value
    sits, so they are never encoded twice; plain ``json`` rejects the type.
    """

    text: str


#: numbers formatted per block: the formatter's working arrays take under
#: 1 kB per number, so they stay within a few MB whatever the matrix
_BLOCK = 1 << 13


def _finite(values) -> None:
    """Raise ``ValueError`` on a value that strict JSON has no literal for."""
    if not np.isfinite(values).all():
        raise ValueError("a matrix entry is not finite")


#: the text before each number of a matrix's rows.  A real part's prefix is
#: indexed 4 * place + 2 * (the cell before is a pair) + (its cell is a
#: pair), place 0 for the first cell, 1 for the first of a later row and 2
#: for any other: it closes the cell and row before, then opens its own
#: row and pair.  An imaginary part's prefix is the last.
_ROW_PREFIXES = tuple(
    "]" * after_pair * (place > 0) + ("[", "]\n[", ", ")[place] + "[" * pair
    for place in range(3)
    for after_pair in range(2)
    for pair in range(2)
) + (", ",)


def _matrix_rows(m, pairs: bool = False) -> JsonRows:
    """2-D ``m`` as :class:`JsonRows` of canonical elements.

    With ``pairs``, every entry is written as [re, im].  The numbers are
    written as ``repr`` writes them, a block of rows at a time.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    n, d = m.shape
    if not d:
        return JsonRows("\n".join(["[]"] * n))
    _finite(m)
    chunks, after_pair = [], False
    step = max(1, _BLOCK // (2 * d))
    for i in range(0, n, step):
        block = m[i : i + step]
        pair = np.ones(block.size, dtype=bool) if pairs else block.imag.ravel() != 0.0
        before = np.empty_like(pair)
        before[0] = after_pair
        before[1:] = pair[:-1]
        place = np.full(block.size, 2)
        place[::d] = 1
        place[0] = 1 if i else 0
        prefix = np.empty((block.size, 2), dtype=np.int64)
        prefix[:, 0] = 4 * place + 2 * before + pair
        prefix[:, 1] = len(_ROW_PREFIXES) - 1
        numbers, prefix = block.view(np.float64).ravel(), prefix.ravel()
        if not pair.all():
            kept = np.stack([np.ones_like(pair), pair], axis=1).ravel()
            numbers, prefix = numbers[kept], prefix[kept]
        chunks.append(_ryu.write(*_ryu.decimals(numbers), prefix, _ROW_PREFIXES).decode())
        after_pair = bool(pair[-1])
    if n:
        chunks.append("]]" if after_pair else "]")
    return JsonRows("".join(chunks))


def simulation_payload(res) -> dict:
    """Simulated window as JSON; ``values`` as :class:`JsonRows` of canonical elements."""
    return {
        "t_start": int(res.t_start),
        "t_stop": int(res.t_stop_inclusive),
        "method": res.method,
        "truncation_K": int(res.truncation_K),
        "max_residual": sanitize(res.max_residual),
        "n_clamped": int(res.noise.n_clamped),
        "values": _matrix_rows(res.values),
    }


def simulation_csv(res) -> str:
    """Path as CSV: t, component_0_re, component_0_im, ...

    Each line is an integer ``t`` and the parts of the values, written as
    ``str`` and ``repr`` write them, a block of lines at a time.
    """
    values = np.ascontiguousarray(res.values, dtype=complex)
    n, d = values.shape
    _finite(values)
    header = ",".join(["t"] + [f"component_{i}_re,component_{i}_im" for i in range(d)])
    chunks = [header]
    step = max(1, _BLOCK // (2 * d + 1))
    for i in range(0, n, step):
        block = values[i : i + step]
        rows = len(block)
        neg, s, e = (np.empty((rows, 2 * d + 1), dtype=np.int64) for _ in range(3))
        for part, out in zip(_ryu.decimals(block.view(np.float64)), (neg, s, e)):
            out[:, 1:] = part.reshape(rows, 2 * d)
        t = np.arange(res.t_start + i, res.t_start + i + rows)
        neg[:, 0], s[:, 0], e[:, 0] = t < 0, np.abs(t), 0
        label = np.zeros((rows, 2 * d + 1), dtype=bool)
        label[:, 0] = True
        label = label.ravel()
        prefix = (~label).astype(np.int64)  # "\n" before a t, "," before a part
        text = _ryu.write(neg.ravel(), s.ravel(), e.ravel(), prefix, ("\n", ","), label)
        chunks.append(text.decode())
    chunks.append("\n")
    return "".join(chunks)


#: stands in for a :class:`JsonRows` in the encoded skeleton; no other
#: string of a payload that holds rows contains a NUL
_ROWS_TOKEN = "\x00rows"


def dumps(payload) -> str:
    """Strict JSON with a two-space indent and a final newline.

    A :class:`JsonRows` at any depth goes one row per line, indented one
    step past the line it sits on (``[]`` when empty).  That differs from
    indenting nested lists only in whitespace, and the pure-Python
    indenting encoder formats only the small skeleton around the rows.
    """
    blocks = []

    def token(obj):
        if not isinstance(obj, JsonRows):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        blocks.append(obj.text)
        return _ROWS_TOKEN

    text = json.dumps(payload, indent=2, allow_nan=False, default=token)
    pieces = text.split(json.dumps(_ROWS_TOKEN))
    out = [pieces[0]]
    for before, rows, after in zip(pieces, blocks, pieces[1:]):
        line = before.rpartition("\n")[2]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        step = pad + "  "
        out += ["[", step, rows.replace("\n", "," + step), pad, "]"] if rows else ["[]"]
        out.append(after)
    out.append("\n")
    return "".join(out)
