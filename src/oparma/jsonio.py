"""JSON codecs for models, noise, and result payloads.

Complex numbers are encoded per element: a plain JSON number is a real
value, a two-element array [re, im] is a complex one.  Serialization is
canonical (zero imaginary parts collapse back to plain numbers), so
loading a file and re-serializing it yields the canonical form of the
same content.  Matrices nest as row-major lists.

Decoding is schema-directed.  Structural validation (required fields,
kind enums, integer dims) runs against the shipped JSON Schema
documents; parameter payloads are then decoded per kind, because the
element codec is ambiguous on bare shapes: [1.0, 2.0] is one complex
number where a complex entry is expected but two real weights where a
real list is expected.  Real-only fields therefore never get the pair
treatment.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .errors import SpecificationError
from .operators import ArmaModel, Operator, OperatorSpec, arma_model, build_operator

_SCHEMA_DIR = Path(__file__).parent / "schemas"

#: model params whose values hold complex entries (everything else is real)
_COMPLEX_VALUED = {
    ("dense", "entries"): "matrix",
    ("multiplication", "multipliers"): "vector",
}


# ---------------------------------------------------------------------------
# element codec


def encode_complex(z) -> float | list:
    """Canonical form of one scalar: plain number unless truly complex."""
    z = complex(z)
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def decode_complex(value, where: str) -> complex:
    if isinstance(value, bool):
        raise SpecificationError(f"{where}: expected a number or [re, im], got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise SpecificationError(f"{where}: expected a number or [re, im], got {value!r}")


def encode_matrix(m, pairs: bool = False) -> list:
    """Nested-list form; ``pairs`` forces [re, im] on every entry."""
    m = np.asarray(m)
    if pairs:
        return [
            [[float(z.real), float(z.imag)] for z in row] for row in m.astype(complex)
        ]
    return [[encode_complex(z) for z in row] for row in m.astype(complex)]


def decode_matrix(value, where: str) -> np.ndarray:
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
    return [decode_complex(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _real_scalar(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(f"{where}: expected a real number, got {value!r}")
    return float(value)


def _real_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SpecificationError(f"{where}: expected a list of real numbers")
    return [_real_scalar(v, f"{where}[{i}]") for i, v in enumerate(value)]


# ---------------------------------------------------------------------------
# schema-validated loading


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


def _validate(data, schema_name: str, path, definition: str | None = None) -> None:
    """Validate against a shipped schema, or against one of its ``$defs``."""
    # imported here so that importing the CLI leaves jsonschema unloaded
    import jsonschema

    schema = json.loads((_SCHEMA_DIR / f"{schema_name}.schema.json").read_text())
    if definition is not None:
        schema = {"$defs": schema["$defs"], "$ref": f"#/$defs/{definition}"}
    validator = jsonschema.Draft202012Validator(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(data))
    if error is not None:
        raise SpecificationError(f"{path}: {error.json_path}: {error.message}")


def _decode_operator_params(kind: str, params: dict, where: str) -> dict:
    out = {}
    for key, value in params.items():
        role = _COMPLEX_VALUED.get((kind, key))
        loc = f"{where}.params.{key}"
        if role == "matrix":
            out[key] = decode_matrix(value, loc)
        elif role == "vector":
            out[key] = _decode_vector(value, loc)
        elif key in ("weights",):
            out[key] = _real_list(value, loc)
        elif key in ("scale",):
            out[key] = _real_scalar(value, loc)
        elif key in ("rule",):
            if not isinstance(value, str):
                raise SpecificationError(f"{loc}: expected a string")
            out[key] = value
        else:
            out[key] = value
    return out


def _build_entry(entry: dict, where: str) -> Operator:
    """Decode and materialize one schema-validated operator entry."""
    kind = entry["kind"]
    params = _decode_operator_params(kind, entry.get("params", {}), where)
    try:
        return build_operator(OperatorSpec(kind=kind, dim=entry["dim"], params=params))
    except SpecificationError as exc:
        raise SpecificationError(f"{where}: {exc}")


def load_model(path) -> ArmaModel:
    """Read, validate, and materialize an ARMA model file."""
    data = _load_json(path)
    _validate(data, "model", path)
    dims = []
    ops = {"ar": [], "ma": []}
    for group in ("ar", "ma"):
        for i, entry in enumerate(data[group]):
            where = f"{group}[{i}]"
            dims.append((where, entry["dim"]))
            try:
                ops[group].append(_build_entry(entry, where))
            except SpecificationError as exc:
                raise SpecificationError(f"{path}: {exc}")
    first_where, first_dim = dims[0]
    for where, dim in dims[1:]:
        if dim != first_dim:
            raise SpecificationError(
                f"{path}: {where} has dim {dim} but {first_where} sets dim {first_dim}"
            )
    try:
        return arma_model(ops["ar"], ops["ma"])
    except SpecificationError as exc:
        raise SpecificationError(f"{path}: {exc}")


def load_operator(path) -> Operator:
    """Read, validate, and materialize a file holding one operator entry.

    The entry has the form of one item of a model file's ``ar`` or ``ma``
    list (``model.schema.json#/$defs/operator``).
    """
    data = _load_json(path)
    _validate(data, "model", path, definition="operator")
    try:
        return _build_entry(data, "operator")
    except SpecificationError as exc:
        raise SpecificationError(f"{path}: {exc}")


def dump_model(model: ArmaModel) -> dict:
    """Canonical JSON form of a model (inverse of :func:`load_model`)."""

    def op_entry(op):
        params = {}
        for key, value in op.spec.params.items():
            role = _COMPLEX_VALUED.get((op.kind, key))
            if role == "matrix":
                params[key] = encode_matrix(value)
            elif role == "vector":
                params[key] = [encode_complex(v) for v in value]
            elif isinstance(value, (list, tuple, np.ndarray)):
                params[key] = [float(v) for v in value]
            elif isinstance(value, str):
                params[key] = value
            elif isinstance(value, (int, np.integer)):
                params[key] = int(value)
            else:
                params[key] = float(value)
        entry = {"kind": op.kind, "dim": op.dim}
        if params:
            entry["params"] = params
        return entry

    return {
        "ar": [op_entry(op) for op in model.ar_ops],
        "ma": [op_entry(op) for op in model.ma_ops],
    }


def load_noise(path):
    """Read and validate an innovation-distribution file."""
    from .engine.noise import NoiseSpec

    data = _load_json(path)
    _validate(data, "noise", path)
    kind = data["kind"]
    # the schema types every param; only the [re, im] pairs need decoding
    params = dict(data.get("params", {}))
    if kind == "point_mass" and "value" in params:
        params["value"] = _decode_vector(params["value"], f"{path}: params.value")
    try:
        return NoiseSpec(
            kind=kind, dim=data["dim"], params=params, seed=int(data.get("seed", 0))
        )
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
        "projector": encode_matrix(split.projector, pairs=True),
        "block_inner": encode_matrix(split.block_inner, pairs=True),
        "block_outer": encode_matrix(split.block_outer, pairs=True),
        "combine": encode_matrix(split.combine, pairs=True),
        "combine_inv": encode_matrix(split.combine_inv, pairs=True),
        "diagnostics": sanitize(split.diagnostics),
    }


def laurent_payload(lc) -> dict:
    records = [
        {
            "k": int(k),
            "norm": float(norm),
            "psi": encode_matrix(mat),
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
        "n_grid": int(cc.n_grid),
        "tol": float(cc.tol),
        "leading_ar_condition": sanitize(cc.leading_ar_condition),
        "leading_ar_invertible": bool(cc.leading_ar_invertible),
    }


@dataclasses.dataclass(frozen=True)
class JsonRows:
    """A matrix already encoded as JSON, one compact row per string.

    :func:`dumps` writes each row on its own line; ``json`` itself
    rejects the type, so the rows are never encoded twice.
    """

    rows: list


def _reprs(values) -> tuple:
    """repr of the real and of the imaginary part of each entry, row-major.

    ``repr`` is the text ``json`` writes for a float.  Raises ``ValueError``
    on a value that is not finite, for which strict JSON has no literal.
    """
    if not np.isfinite(values).all():
        raise ValueError("a simulated value is not finite")
    flat = values.ravel()
    return list(map(repr, flat.real.tolist())), list(map(repr, flat.imag.tolist()))


def simulation_payload(res) -> dict:
    """Simulated window as JSON; ``values`` as :class:`JsonRows` of canonical elements."""
    re, im = _reprs(res.values)
    cells = list(map("[{}, {}]".format, re, im))
    for i in np.flatnonzero(res.values.imag.ravel() == 0.0).tolist():
        cells[i] = re[i]
    d = res.values.shape[1]
    row = "[" + ", ".join(["{}"] * d) + "]"
    return {
        "t_start": int(res.t_start),
        "t_stop": int(res.t_stop_inclusive),
        "method": res.method,
        "truncation_K": int(res.truncation_K),
        "max_residual": sanitize(res.max_residual),
        "values": JsonRows(list(map(row.format, *(cells[j::d] for j in range(d))))),
    }


def simulation_csv(res) -> str:
    """Path as CSV: t, component_0_re, component_0_im, ..."""
    n, d = res.values.shape
    re, im = _reprs(res.values)
    header = ",".join(["t"] + [f"component_{i}_re,component_{i}_im" for i in range(d)])
    cells = list(map("{},{}".format, re, im))
    times = range(res.t_start, res.t_start + n)
    rows = map(("{}" + ",{}" * d).format, times, *(cells[j::d] for j in range(d)))
    return header + "\n" + "\n".join(rows) + "\n"


def _indented(value) -> str:
    """``value`` as the JSON text of a top-level dict entry."""
    if isinstance(value, JsonRows):
        return "[\n    " + ",\n    ".join(value.rows) + "\n  ]"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


def dumps(payload) -> str:
    """Strict JSON with a two-space indent and a final newline.

    A :class:`JsonRows` entry of a top-level dict goes one row per line.
    That differs from indenting nested lists only in whitespace, and it
    skips the pure-Python indenting encoder for the bulk of a long path.
    """
    if not (isinstance(payload, dict) and any(isinstance(v, JsonRows) for v in payload.values())):
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    items = (f"  {json.dumps(k)}: {_indented(v)}" for k, v in payload.items())
    return "{\n" + ",\n".join(items) + "\n}\n"
