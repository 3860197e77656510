"""CLI dispatch, JSON codecs, exit codes, and output determinism."""

import csv
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oparma
from oparma.cli import main, parse_and_dispatch
from oparma.engine.noise import NOISE_KINDS, NOISE_PARAMS
from oparma.engine.simulate import simulate_theorem1
from oparma.errors import SpecificationError
from oparma.jsonio import (
    _CODEC,
    decode_complex,
    decode_matrix,
    dump_model,
    encode_complex,
    encode_matrix,
    load_model,
    load_noise,
)
from oparma.laurent import CIRCLE_TOL, laurent_coeffs
from oparma.operators import (
    KINDS,
    PARAMS,
    OperatorSpec,
    arma_model,
    build_operator,
    companion_lift,
)
from oparma.spectral import hyperbolic_split


@pytest.fixture
def hyper_model(tmp_path):
    path = tmp_path / "hyper.json"
    path.write_text(
        json.dumps(
            {
                "ar": [
                    {
                        "kind": "multiplication",
                        "dim": 2,
                        "params": {"multipliers": [0.5, 2.0]},
                    }
                ],
                "ma": [{"kind": "identity", "dim": 2}],
            }
        )
    )
    return path


@pytest.fixture
def gauss_noise(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(
        json.dumps(
            {"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}, "seed": 11}
        )
    )
    return path


def run_cli(*argv, capsys=None):
    code = parse_and_dispatch(list(argv))
    if capsys is None:
        return code, None
    out = capsys.readouterr().out
    return code, out


def _row_lines(out: str, key: str) -> list:
    """The row lines of each ``key`` matrix of ``out``, in document order."""
    lines = out.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        if line.strip() == f'"{key}": [':
            j = i + 1
            while lines[j].strip() not in ("]", "],"):
                j += 1
            blocks.append([row.strip().rstrip(",") for row in lines[i + 1 : j]])
    return blocks


@pytest.fixture
def complex_model(tmp_path):
    """A dense AR(1) with complex entries and eigenvalues on both sides of the circle."""
    path = tmp_path / "complex.json"
    entries = [[0.5, [0.1, 0.2], 0.0], [0.3, 2.0, 0.1], [0.0, [0.0, -0.4], 1.5]]
    path.write_text(json.dumps({
        "ar": [{"kind": "dense", "dim": 3, "params": {"entries": entries}}],
        "ma": [{"kind": "identity", "dim": 3}],
    }))
    return str(path)


#: JSON numbers: floats with -0.0, and ints past 2^53 and 2^63
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 2**53 + 1, 2**63 + 1, 2**64 + 3, -(2**63) - 1, 10**300]),
)
_PAIRS = st.lists(_NUMBERS, min_size=2, max_size=2)


@st.composite
def _json_matrices(draw):
    """Rows of numbers, of [re, im] pairs, or of the canonical mix of both."""
    cell = draw(st.sampled_from([_NUMBERS, _PAIRS, st.one_of(_NUMBERS, _PAIRS)]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(cell) for _ in range(d)] for _ in range(n)]


class TestElementCodec:
    def test_real_roundtrip(self):
        assert encode_complex(complex(2.5, 0.0)) == 2.5
        assert decode_complex(2.5, "x") == 2.5 + 0j

    def test_complex_roundtrip(self):
        assert encode_complex(1 - 2j) == [1.0, -2.0]
        assert decode_complex([1.0, -2.0], "x") == 1 - 2j

    def test_rejects_junk(self):
        for bad in ("1.0", True, [1.0], [1.0, 2.0, 3.0], [1.0, "i"], None):
            with pytest.raises(SpecificationError):
                decode_complex(bad, "x")

    def test_matrix_shape_errors(self):
        with pytest.raises(SpecificationError, match="ragged"):
            decode_matrix([[1.0, 2.0], [3.0]], "m")
        with pytest.raises(SpecificationError):
            decode_matrix([], "m")

    @settings(max_examples=300, deadline=None)
    @given(_json_matrices())
    def test_matrix_decodes_as_its_elements_bit_for_bit(self, m):
        expected = np.array([[decode_complex(v, "m") for v in row] for row in m], dtype=complex)
        decoded = decode_matrix(m, "m")
        assert decoded.shape == expected.shape
        assert decoded.tobytes() == expected.tobytes()
        vector = np.array(_CODEC["vector"][0](m[0], "v"), dtype=complex)
        assert vector.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("value, message", [
        ([[1.0, True]], "$.m[0][1]: expected a number or [re, im], got True"),
        ([[[1.0, False]]], "$.m[0][0]: expected a number or [re, im], got [1.0, False]"),
        ([[1.0], ["2.0"]], "$.m[1][0]: expected a number or [re, im], got '2.0'"),
        ([[None]], "$.m[0][0]: expected a number or [re, im], got None"),
        ([[[1.0]]], "$.m[0][0]: expected a number or [re, im], got [1.0]"),
        ([[[1.0, 2.0, 3.0]]], "$.m[0][0]: expected a number or [re, im], got [1.0, 2.0, 3.0]"),
        ([{"a": 1}], "$.m[0]: expected a non-empty row list"),
        (["ab"], "$.m[0]: expected a non-empty row list"),
        ([[1.0, 2.0], [3.0]], "$.m: ragged rows, widths [1, 2]"),
        ([[1.0, 2.0], [3.0, 4.0, 5.0], [True]],
         "$.m[2][0]: expected a number or [re, im], got True"),
        ([[1.0], []], "$.m[1]: expected a non-empty row list"),
        ([[[[1.0, 2.0]]]], "$.m[0][0]: expected a number or [re, im], got [[1.0, 2.0]]"),
        ([[1.0, 10**400]], "$.m[0][1]: integer out of the float range"),
        ([[[1.0, -(10**400)]]], "$.m[0][0][1]: integer out of the float range"),
        ([], "$.m: expected a non-empty list of rows"),
        ({}, "$.m: expected a non-empty list of rows"),
    ], ids=["bool", "bool_in_pair", "string", "null", "pair_of_1", "pair_of_3", "dict_row",
            "string_row", "ragged", "cell_before_ragged", "empty_row", "too_deep", "huge_int",
            "huge_int_in_pair", "no_rows", "not_a_list"])
    def test_malformed_matrix_names_its_first_fault(self, value, message):
        with pytest.raises(SpecificationError) as info:
            decode_matrix(value, "$.m")
        assert str(info.value) == message

    @pytest.mark.parametrize("value, message", [
        ([0.5, True], "$.v[1]: expected a number or [re, im], got True"),
        ([[1.0]], "$.v[0]: expected a number or [re, im], got [1.0]"),
        (["x"], "$.v[0]: expected a number or [re, im], got 'x'"),
        ([10**400], "$.v[0]: integer out of the float range"),
        (5, "$.v: expected a list"),
    ])
    def test_malformed_vector_names_its_first_fault(self, value, message):
        with pytest.raises(SpecificationError) as info:
            _CODEC["vector"][0](value, "$.v")
        assert str(info.value) == message


#: one entry of every operator kind and value form, in canonical form
_EVERY_KIND = [
    {"kind": "dense", "dim": 2, "params": {"entries": [[0.3, [0.1, -0.2]], [0.0, 0.4]]}},
    {"kind": "weighted_shift", "dim": 2, "params": {"weights": [0.7]}},
    {"kind": "multiplication", "dim": 2, "params": {"multipliers": [0.5, [0.0, 2.0]]}},
    {"kind": "volterra", "dim": 2, "params": {"grid": 2, "rule": "left"}},
    {"kind": "volterra", "dim": 2},
    {"kind": "circular_shift", "dim": 2},
    {"kind": "scaled_unilateral_shift", "dim": 2, "params": {"scale": [0.5, -0.5]}},
    {"kind": "scaled_unilateral_shift", "dim": 2, "params": {"scale": 2.0}},
    {"kind": "zero", "dim": 2},
    {"kind": "identity", "dim": 2},
]


class TestModelFiles:
    def test_load_and_dims(self, hyper_model):
        model = load_model(hyper_model)
        assert model.dim == 2
        assert model.p == 1 and model.q == 0

    def test_roundtrip_canonical(self, tmp_path):
        assert {e["kind"] for e in _EVERY_KIND} == set(KINDS)
        forms = {PARAMS[e["kind"]][k] for e in _EVERY_KIND for k in e.get("params", {})}
        assert forms == {f for params in PARAMS.values() for f in params.values()}
        doc = {"ar": _EVERY_KIND, "ma": _EVERY_KIND[::-1]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert dump_model(model) == doc

    def test_noncanonical_pairs_collapse(self, tmp_path):
        doc = {
            "ar": [
                {
                    "kind": "dense",
                    "dim": 1,
                    "params": {"entries": [[[0.5, 0.0]]]},
                }
            ],
            "ma": [{"kind": "identity", "dim": 1}],
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        dumped = dump_model(load_model(path))
        assert dumped["ar"][0]["params"]["entries"] == [[0.5]]

    def test_schema_violation_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ar": [{"kind": "identity"}], "ma": []}))
        with pytest.raises(SpecificationError, match=r"\$\."):
            load_model(path)

    def test_mismatched_dims_names_operator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "identity", "dim": 2}],
                    "ma": [
                        {"kind": "identity", "dim": 2},
                        {"kind": "identity", "dim": 3},
                    ],
                }
            )
        )
        with pytest.raises(SpecificationError, match=r"ma\[1\]"):
            load_model(path)

    def test_decode_error_names_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [
                        {
                            "kind": "dense",
                            "dim": 1,
                            "params": {"entries": [["nope"]]},
                        }
                    ],
                    "ma": [{"kind": "identity", "dim": 1}],
                }
            )
        )
        with pytest.raises(SpecificationError, match=r"entries\[0\]\[0\]"):
            load_model(path)

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"ar": [,]}')
        with pytest.raises(SpecificationError, match="line 1"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecificationError, match="no such file"):
            load_model(tmp_path / "absent.json")


class TestNoiseFiles:
    def test_load(self, gauss_noise):
        spec = load_noise(gauss_noise)
        assert spec.kind == "gaussian" and spec.seed == 11

    def test_point_mass_complex_value(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "point_mass",
                    "dim": 2,
                    "params": {"value": [[1.0, 1.0], 0.0]},
                }
            )
        )
        spec = load_noise(path)
        assert spec.params["value"][0] == 1 + 1j

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"kind": "cauchy", "dim": 1}))
        with pytest.raises(SpecificationError, match="kind"):
            load_noise(path)

    def test_invalid_params_carry_path(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(
            json.dumps({"kind": "gamma_inv_tail", "dim": 1, "params": {"x1": 2.0}})
        )
        with pytest.raises(SpecificationError, match="n.json"):
            load_noise(path)


class TestDeclaredParams:
    """Each kind's params are declared once; build, load and dump read that table."""

    def test_dump_takes_every_model_the_library_builds(self, tmp_path):
        specs = [
            ("scaled_unilateral_shift", {"scale": 0.5 + 0.25j}),
            ("weighted_shift", {"weights": np.array([0.5, 2])}),
            ("volterra", {"grid": np.int64(3), "rule": "corrected_trapezoid"}),
            ("multiplication", {"multipliers": (1, 2j, 3.0)}),
            ("dense", {"entries": np.eye(3)}),
        ]
        ar = [build_operator(OperatorSpec(kind, 3, params)) for kind, params in specs]
        model = arma_model(ar, [build_operator(OperatorSpec("identity", 3))])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dump_model(model)))
        for a, b in zip(load_model(path).ar_ops, model.ar_ops):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize(
        "entry, bad",
        [
            ({"kind": "volterra", "dim": 1, "params": {"rul": "left"}}, "['rul']"),
            ({"kind": "scaled_unilateral_shift", "dim": 1, "params": {"scal": 0.5}}, "['scal']"),
            ({"kind": "identity", "dim": 1, "params": {"sigma": 1.0}}, "['sigma']"),
            ({"kind": "gaussian", "dim": 1, "params": {"sigm": 1e6}}, "['sigm']"),
            (
                {"kind": "gamma_inv_tail", "dim": 1, "params": {"x_1": 20.0, "directon": [1.0]}},
                "['x_1', 'directon']",
            ),
        ],
        ids=["volterra", "scaled_unilateral_shift", "identity", "gaussian", "gamma_inv_tail"],
    )
    def test_misspelled_param_exits_2_naming_it(self, entry, bad, tmp_path, capsys):
        argv = ["verify", "--model", str(tmp_path / "m.json"), "--window", "5"]
        model = {"ar": [{"kind": "multiplication", "dim": 1, "params": {"multipliers": [0.5]}}],
                 "ma": [{"kind": "identity", "dim": 1}]}
        if entry["kind"] in KINDS:
            model["ar"] = [entry]
            takes = list(PARAMS[entry["kind"]]) or "none"
        else:
            (tmp_path / "n.json").write_text(json.dumps(entry))
            takes = list(NOISE_PARAMS[entry["kind"]])
            argv += ["--noise", str(tmp_path / "n.json")]
        (tmp_path / "m.json").write_text(json.dumps(model))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}; it takes {takes}" in err
        assert ("ar[0]: " in err) == (entry["kind"] in KINDS)

    def test_every_form_decodes_and_readme_names_every_kind_and_param(self):
        tables = (PARAMS, NOISE_PARAMS)
        forms = {form for table in tables for params in table.values() for form in params.values()}
        assert forms - set(_CODEC) == set()
        params = {name for table in tables for names in table.values() for name in names}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [k for k in KINDS + NOISE_KINDS if f"`{k}`" not in readme] == []
        assert sorted(p for p in params if f"`{p}`" not in readme) == []

    @pytest.mark.parametrize("dim, grid", [(1, True), (8, 8.0)])
    def test_volterra_grid_is_a_json_integer(self, dim, grid, tmp_path, capsys):
        path = tmp_path / "m.json"
        entry = {"kind": "volterra", "dim": dim, "params": {"grid": grid}}
        path.write_text(json.dumps({"ar": [entry], "ma": [{"kind": "identity", "dim": dim}]}))
        assert main(["laurent", "--model", str(path)]) == 2
        assert "$.ar[0].params.grid: expected an integer" in capsys.readouterr().err


class TestSubcommands:
    def test_split_radii_fixture(self, hyper_model, capsys):
        code, out = run_cli("split", "--model", str(hyper_model), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 1
        assert doc["radius_inner"] == pytest.approx(0.5, abs=1e-12)
        assert doc["radius_outer_inv"] == pytest.approx(0.5, abs=1e-12)
        entry = doc["projector"][0][0]
        assert isinstance(entry, list) and len(entry) == 2

    def test_split_writes_the_nested_document_one_row_per_line(self, complex_model, capsys):
        code, out = run_cli("split", "--model", complex_model, capsys=capsys)
        assert code == 0
        split = hyperbolic_split(companion_lift(load_model(complex_model)))
        keys = ("projector", "block_inner", "block_outer", "combine", "combine_inv")
        # the document the nested-list encoder writes, every entry as [re, im]
        expected = {
            "dim": 3, "rank": split.rank,
            "radius_inner": split.diagnostics["radius_inner"],
            "radius_outer_inv": split.diagnostics["radius_outer_inv"],
            **{key: [[[float(z.real), float(z.imag)] for z in row] for row in getattr(split, key)]
               for key in keys},
            "diagnostics": split.diagnostics,
        }
        assert json.loads(out) == json.loads(json.dumps(expected, indent=2))
        for key in keys:
            assert _row_lines(out, key) == [[json.dumps(row) for row in expected[key]]]

    @pytest.mark.parametrize("mults, empty",
                             [([0.5, 0.25], "block_outer"), ([2.0, 4.0], "block_inner")],
                             ids=["rank_d", "rank_0"])
    def test_split_writes_an_empty_block_as_an_empty_list(self, mults, empty, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "ar": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": mults}}],
            "ma": [{"kind": "identity", "dim": 2}],
        }))
        code, out = run_cli("split", "--model", str(path), capsys=capsys)
        assert code == 0
        assert f'  "{empty}": [],' in out.splitlines()
        assert json.loads(out)[empty] == []

    def test_check_circle_unit_root(self, tmp_path, capsys):
        path = tmp_path / "unitroot.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "identity", "dim": 1}],
                    "ma": [{"kind": "identity", "dim": 1}],
                }
            )
        )
        code, out = run_cli("check-circle", "--model", str(path), capsys=capsys)
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "ar",
        [
            # AR(1) diag(e^{0.3i}, 0.5): 0.3 lies between two of the 512 grid angles
            [[[[np.cos(0.3), np.sin(0.3)], 0.0], [0.0, 0.5]]],
            # real AR(2) with roots e^{+-0.7i} in its first component
            [[[2 * np.cos(0.7), 0.0], [0.0, 0.2]], [[-1.0, 0.0], [0.0, 0.0]]],
        ],
        ids=["rotation", "real_ar2"],
    )
    def test_check_circle_unit_root_between_nodes(self, ar, tmp_path, capsys):
        path = tmp_path / "between.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "dense", "dim": 2, "params": {"entries": m}} for m in ar],
                    "ma": [{"kind": "identity", "dim": 2}],
                }
            )
        )
        code, out = run_cli("check-circle", "--model", str(path), capsys=capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["min_singular_value"] < 1e-12

    def test_check_circle_dip_between_nodes_and_probes(self, tmp_path, capsys):
        # min sigma 9.91e-7 at phi; the old 512-node scan and both eigenvalue
        # probes (at phi -+ 5e-4) saw no less than 1.12e-6
        phi = 100.5 * 2 * np.pi / 512
        lam, mu = (np.exp(-1j * (phi + s)) / 1.001 for s in (-5e-4, 5e-4))
        entries = [[[lam.real, lam.imag], 1.2589254117941675], [0.0, [mu.real, mu.imag]]]
        path = tmp_path / "dip.json"
        path.write_text(json.dumps({
            "ar": [{"kind": "dense", "dim": 2, "params": {"entries": entries}}],
            "ma": [{"kind": "identity", "dim": 2}],
        }))
        code, out = run_cli("check-circle", "--model", str(path), capsys=capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["min_singular_value"] == pytest.approx(9.911e-7, rel=1e-4)

    def test_check_circle_good_model(self, hyper_model, capsys):
        code, out = run_cli("check-circle", "--model", str(hyper_model), capsys=capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_laurent_scalar_geometric(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [
                        {
                            "kind": "dense",
                            "dim": 1,
                            "params": {"entries": [[0.5]]},
                        }
                    ],
                    "ma": [{"kind": "identity", "dim": 1}],
                }
            )
        )
        code, out = run_cli("laurent", "--model", str(path), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["k_min"], doc["k_max"]) == (0, 39)
        for rec in doc["coefficients"]:
            assert rec["norm"] == pytest.approx(0.5 ** rec["k"], abs=1e-10)

    def test_laurent_writes_the_nested_document_one_row_per_line(self, complex_model, capsys):
        code, out = run_cli("laurent", "--model", complex_model, capsys=capsys)
        assert code == 0
        lc = laurent_coeffs(load_model(complex_model))
        # the document the nested-list encoder writes, in canonical elements
        records = [{"k": int(k), "norm": float(norm), "psi": encode_matrix(mat)}
                   for k, norm, mat in zip(lc.ks, lc.norms, lc.coeffs)]
        expected = {
            "k_min": lc.k_min, "k_max": lc.k_max, "n_quad": lc.n_quad, "decay_a": lc.decay_a,
            "decay_b": lc.decay_b, "reconstruction_residual": lc.reconstruction_residual,
            "coefficients": records,
        }
        assert json.loads(out) == json.loads(json.dumps(expected, indent=2))
        assert _row_lines(out, "psi") == [[json.dumps(row) for row in r["psi"]] for r in records]

    def test_simulate_json(self, hyper_model, gauss_noise, capsys):
        code, out = run_cli(
            "simulate",
            "--model", str(hyper_model),
            "--noise", str(gauss_noise),
            "--t1", "19",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["t_start"] == 0 and doc["t_stop"] == 19
        assert len(doc["values"]) == 20
        assert doc["max_residual"] < 1e-9

    def test_simulate_csv_header(self, hyper_model, gauss_noise, capsys):
        code, out = run_cli(
            "simulate",
            "--model", str(hyper_model),
            "--noise", str(gauss_noise),
            "--t1", "4",
            "--format", "csv",
            capsys=capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,component_0_re,component_0_im,component_1_re,component_1_im"
        assert len(lines) == 6
        assert lines[1].split(",")[0] == "0"

    def test_simulate_rerun_bitwise(self, hyper_model, gauss_noise, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            code, _ = run_cli(
                "simulate",
                "--model", str(hyper_model),
                "--noise", str(gauss_noise),
                "--t1", "49",
                "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_seed_flag_changes_path(self, hyper_model, gauss_noise, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("simulate", "--model", str(hyper_model), "--noise", str(gauss_noise),
                "--t1", "9", "--out", str(out1))
        run_cli("simulate", "--model", str(hyper_model), "--noise", str(gauss_noise),
                "--t1", "9", "--seed", "99", "--out", str(out2))
        assert out1.read_bytes() != out2.read_bytes()

    def test_simulate_methods_agree(self, hyper_model, gauss_noise, capsys):
        # one window at the start of the stream, one wholly before it
        for t0, t1 in (("0", "9"), ("-30", "-11")):
            values = {}
            for method in ("split", "ma"):
                code, out = run_cli(
                    "simulate", "--model", str(hyper_model), "--noise", str(gauss_noise),
                    "--t0", t0, "--t1", t1, "--method", method, capsys=capsys,
                )
                assert code == 0
                values[method] = np.array(
                    [[c if isinstance(c, float) else complex(*c) for c in row]
                     for row in json.loads(out)["values"]]
                )
            assert np.abs(values["split"] - values["ma"]).max() <= 1e-6

    def test_simulate_overlapping_windows_agree(self, hyper_model, gauss_noise, capsys):
        paths = {}
        for t0, t1 in ((0, 9), (3, 12)):
            code, out = run_cli(
                "simulate", "--model", str(hyper_model), "--noise", str(gauss_noise),
                "--t0", str(t0), "--t1", str(t1), "--seed", "5", capsys=capsys,
            )
            assert code == 0
            paths[t0] = json.loads(out)["values"]
        assert paths[0][3:] == paths[3][:7]

    def test_simulate_ma_overlapping_windows_agree(self, hyper_model, gauss_noise, capsys):
        # the long windows span several convolution blocks and start at
        # different places in them
        paths = {}
        for t0, t1 in ((0, 9), (3, 12), (-600, 600), (-5, 1300)):
            code, out = run_cli(
                "simulate", "--model", str(hyper_model), "--noise", str(gauss_noise),
                "--t0", str(t0), "--t1", str(t1), "--seed", "5", "--method", "ma",
                capsys=capsys,
            )
            assert code == 0
            paths[t0] = json.loads(out)["values"]
        assert paths[0][3:] == paths[3][:7]
        assert paths[-600][595:] == paths[-5][:606]

    @pytest.fixture
    def mixed_path(self, tmp_path):
        """Model, noise and library result of a path with real and complex columns."""
        model, noise = tmp_path / "m.json", tmp_path / "n.json"
        mults = [0.5, 2.0, [0.3, 0.4]]
        model.write_text(json.dumps({
            "ar": [{"kind": "multiplication", "dim": 3, "params": {"multipliers": mults}}],
            "ma": [{"kind": "identity", "dim": 3}, {"kind": "identity", "dim": 3}],
        }))
        noise.write_text(json.dumps({"kind": "gaussian", "dim": 3, "params": {"sigma": 1.0}}))
        res = simulate_theorem1(load_model(model), load_noise(noise), (-3, 40))
        return str(model), str(noise), res

    def test_simulate_json_rows_one_per_line(self, mixed_path, capsys):
        model, noise, res = mixed_path
        code, out = run_cli("simulate", "--model", model, "--noise", noise,
                            "--t0", "-3", "--t1", "40", capsys=capsys)
        assert code == 0
        # the document the nested-list encoder writes, parsed
        expected = {
            "t_start": -3, "t_stop": 40, "method": "theorem1_split",
            "truncation_K": res.truncation_K, "max_residual": res.max_residual,
            "n_clamped": 0, "values": [[encode_complex(z) for z in row] for row in res.values],
        }
        doc = json.loads(out)
        assert doc == json.loads(json.dumps(expected, indent=2))
        kinds = {type(c) for row in doc["values"] for c in row}
        assert kinds == {float, list}  # zero imaginary parts are plain numbers
        lines = out.splitlines()
        first = lines.index('  "values": [') + 1
        rows = [json.loads(line.strip().rstrip(",")) for line in lines[first : first + len(res)]]
        assert rows == doc["values"]
        assert lines[first + len(res) :] == ["  ]", "}"]

    def test_simulate_csv_bytes_match_csv_writer(self, mixed_path, capsys):
        model, noise, res = mixed_path
        code, out = run_cli("simulate", "--model", model, "--noise", noise,
                            "--t0", "-3", "--t1", "40", "--format", "csv", capsys=capsys)
        assert code == 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["t"] + [f"component_{i}_{p}" for i in range(3) for p in ("re", "im")])
        for t, row in enumerate(res.values, start=-3):
            writer.writerow([t] + [repr(float(x)) for z in row for x in (z.real, z.imag)])
        assert out == buf.getvalue()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_simulate_non_finite_path_exit_1(self, fmt, tmp_path, capsys):
        model, noise = tmp_path / "m.json", tmp_path / "n.json"
        model.write_text(json.dumps({
            "ar": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": [0.5, 2.0]}}],
            "ma": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": [1e10, 1e10]}}],
        }))
        noise.write_text(json.dumps({"kind": "pareto_exp", "dim": 2, "seed": 1}))
        code = parse_and_dispatch(["simulate", "--model", str(model), "--noise", str(noise),
                                   "--t1", "400", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "float range at t = " in captured.err

    def test_moments_point_mass(self, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(
            json.dumps(
                {"kind": "point_mass", "dim": 1, "params": {"value": [1.0]}}
            )
        )
        code, out = run_cli(
            "moments", "--noise", str(path), "--n-samples", "2000", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["estimate"] == 0.0
        assert doc["finite_verdict"] == "finite"

    def test_moments_transform(self, tmp_path, capsys):
        noise = tmp_path / "n.json"
        noise.write_text(
            json.dumps({"kind": "point_mass", "dim": 2, "params": {"value": [1.0, 0.0]}})
        )
        t_op = tmp_path / "t.json"
        t_op.write_text(
            json.dumps(
                {
                    "kind": "multiplication",
                    "dim": 2,
                    "params": {"multipliers": [float(np.e), 1.0]},
                }
            )
        )
        code, out = run_cli(
            "moments", "--noise", str(noise), "--transform", str(t_op),
            "--n-samples", "2000", capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_scenario_pass_and_report(self, capsys):
        code, out = run_cli("scenario", "nilpotent", "--seed", "7", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["name"] == "nilpotent" and doc["seed"] == 7
        assert all(c["pass"] for c in doc["checks"])

    def test_scenario_set_override(self, capsys):
        code, out = run_cli(
            "scenario", "nilpotent", "--set", "dim=4", capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["params"]["dim"] == 4

    def test_scenario_list(self, capsys):
        code, out = run_cli("scenario", "--list", capsys=capsys)
        assert code == 0
        assert len(json.loads(out)) == 8

    def test_scenario_unknown_exit_2(self):
        code, _ = run_cli("scenario", "not_a_thing")
        assert code == 2

    def test_scenario_bad_set_key_exit_2(self):
        code, _ = run_cli("scenario", "nilpotent", "--set", "dmi=8")
        assert code == 2

    def test_verify_green(self, hyper_model, capsys):
        code, out = run_cli("verify", "--model", str(hyper_model), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["checks"]) == 7

    def test_verify_one_row_window(self, hyper_model, capsys):
        code, out = run_cli("verify", "--model", str(hyper_model), "--window", "1",
                            capsys=capsys)
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("method", ["split", "ma"])
    def test_short_window_writes_its_residual(self, method, tmp_path, capsys):
        # two rows of an AR(2): the p rows before t0 give each a recursion row
        model, noise = tmp_path / "m.json", tmp_path / "n.json"
        ar = [{"kind": "dense", "dim": 1, "params": {"entries": [[a]]}} for a in (0.5, 0.1)]
        model.write_text(json.dumps({"ar": ar, "ma": [{"kind": "identity", "dim": 1}]}))
        noise.write_text(json.dumps({"kind": "gaussian", "dim": 1, "params": {"sigma": 1.0}}))
        argv = ["simulate", "--model", str(model), "--noise", str(noise),
                "--t0", "3", "--t1", "4", "--method", method]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        residual = json.loads(out)["max_residual"]
        assert isinstance(residual, float) and residual <= 1e-10
        assert run_cli(*argv, "--format", "csv") == (0, None)
        summary = dict(f.split("=") for f in capsys.readouterr().err.split() if "=" in f)
        assert float(summary["max_residual"]) <= 1e-10

    def test_verify_scans_the_circle_once(self, hyper_model, monkeypatch):
        import oparma.laurent

        calls = []
        scan = oparma.laurent.unit_circle_check

        def counting(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(oparma.laurent, "unit_circle_check", counting)
        code, _ = run_cli("verify", "--model", str(hyper_model))
        assert code == 0
        assert len(calls) == 1

    def test_verify_emits_the_certification_chain(self, hyper_model, gauss_noise, capsys):
        from oparma.jsonio import sanitize
        from oparma.scenarios import certify

        code, out = run_cli(
            "verify", "--model", str(hyper_model), "--noise", str(gauss_noise),
            "--window", "50", capsys=capsys,
        )
        assert code == 0
        checks, _ = certify(
            load_model(str(hyper_model)), load_noise(str(gauss_noise)), 49, residual_max=1e-8
        )
        assert json.loads(out)["checks"] == sanitize(checks)

    def test_verify_reads_the_noise_file_seed(self, hyper_model, tmp_path):
        outs = {}
        for seed in (5, 9):
            noise = tmp_path / f"seed{seed}.json"
            noise.write_text(
                json.dumps(
                    {"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}, "seed": seed}
                )
            )
            out = tmp_path / f"verify{seed}.json"
            code, _ = run_cli(
                "verify", "--model", str(hyper_model), "--noise", str(noise),
                "--out", str(out),
            )
            assert code == 0
            outs[seed] = out
        assert outs[5].read_bytes() != outs[9].read_bytes()
        # an explicit --seed still overrides the file
        forced = tmp_path / "forced.json"
        code, _ = run_cli(
            "verify", "--model", str(hyper_model), "--noise", str(tmp_path / "seed9.json"),
            "--seed", "5", "--out", str(forced),
        )
        assert code == 0
        assert forced.read_bytes() == outs[5].read_bytes()

    def test_verify_non_normal_jordan_block(self, tmp_path, capsys):
        # diagonal 0.5, superdiagonal 1: ||A^k|| grows to about 10 before it decays
        entries = (0.5 * np.eye(6) + np.eye(6, k=1)).tolist()
        path = tmp_path / "jordan.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "dense", "dim": 6, "params": {"entries": entries}}],
                    "ma": [{"kind": "identity", "dim": 6}],
                }
            )
        )
        code, out = run_cli("verify", "--model", str(path), capsys=capsys)
        assert code == 0
        checks = {c["description"]: c["observed"] for c in json.loads(out)["checks"]}
        assert checks["simulated path satisfies the defining recursion"] <= 1e-10

    def test_ill_conditioned_block_splits_but_verify_stops_at_the_circle(
        self, tmp_path, capsys
    ):
        # diagonal 0.8, superdiagonal 5: already upper triangular, so the
        # ordered Schur form is exact, while resolvent norms near 2e13 on
        # the circle leave the denominator numerically singular there
        entries = (0.8 * np.eye(10) + 5.0 * np.eye(10, k=1)).tolist()
        model = tmp_path / "block.json"
        model.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "dense", "dim": 10, "params": {"entries": entries}}],
                    "ma": [{"kind": "identity", "dim": 10}],
                }
            )
        )
        noise = tmp_path / "gauss.json"
        noise.write_text(
            json.dumps({"kind": "gaussian", "dim": 10, "params": {"sigma": 1.0}, "seed": 3})
        )
        code, out = run_cli("split", "--model", str(model), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 10
        assert np.array_equal(decode_matrix(doc["projector"], "projector"), np.eye(10))

        code, out = run_cli(
            "simulate", "--model", str(model), "--noise", str(noise), "--t1", "49",
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-12

        assert run_cli("verify", "--model", str(model)) == (1, None)
        # the error names the circle's smallest singular value and its
        # tolerance, not the eigenvalue margin of 0.2
        err = capsys.readouterr().err
        sigma = re.search(r"min singular value (\S+) at", err)
        assert sigma and float(sigma.group(1)) < CIRCLE_TOL
        assert f"needs > {CIRCLE_TOL:.1e}" in err
        assert "too close to the circle" not in err

    def test_verify_unit_root_fails(self, tmp_path):
        path = tmp_path / "unitroot.json"
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "identity", "dim": 1}],
                    "ma": [{"kind": "identity", "dim": 1}],
                }
            )
        )
        code, _ = run_cli("verify", "--model", str(path))
        assert code == 1


_HYPER = {
    "ar": [{"kind": "multiplication", "dim": 2, "params": {"multipliers": [0.5, 2.0]}}],
    "ma": [{"kind": "identity", "dim": 2}],
}
_POINT = {"kind": "point_mass", "dim": 2, "params": {"value": [1.0, 0.0]}}
_GAUSS = {"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}}
_MULT = {"kind": "multiplication", "dim": 2, "params": {"multipliers": [1, 2]}}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, files",
        [
            ("split --model M --n-quad 0", {"M": _HYPER}),
            ("split --model M --n-quad 1", {"M": _HYPER}),
            ("laurent --model M --n-quad 0", {"M": _HYPER}),
            ("laurent --model M --n-quad -8", {"M": _HYPER}),
            ("laurent --model M --k-min -3 --k-max 3", {"M": _HYPER}),
            ("laurent --model M --k-min -3", {"M": _HYPER}),
            ("simulate --model M --noise N --K 3", {"M": _HYPER, "N": _GAUSS}),
            ("simulate --model M --noise N --method ma --K 3", {"M": _HYPER, "N": _GAUSS}),
            ("scenario isometry --set powers=3", {}),
            ("scenario volterra --set grid=abc", {}),
            (
                "moments --noise N --transform T",
                {"N": _POINT, "T": {"kind": "dense", "dim": 2, "params": [1]}},
            ),
            ("moments --noise N --transform T", {"N": _POINT, "T": dict(_MULT, extra=1)}),
            (
                "moments --noise N --transform T --n-samples 1000",
                {"N": _POINT, "T": {"kind": "identity", "dim": 3}},
            ),
            ("scenario hyperbolic_pipeline --set window=0", {}),
            ("scenario rescaled_half_shift --set replicates=0", {}),
            ("scenario quasinilpotent_shift --set replicates=0", {}),
            ("scenario hyperbolic_pipeline --set ks_replicates=0", {}),
            ("scenario isometry --set replicates=0", {}),
            ("scenario multiplication_strongly_stable --set replicates=0", {}),
            ("scenario expanding_shift --set replicates=0", {}),
            ("scenario expanding_shift --set dim=1", {}),
            ("scenario rescaled_half_shift --set dim=1", {}),
            ("scenario rescaled_half_shift --set far_dim=4", {}),
            ("scenario multiplication_strongly_stable --set dim=4", {}),
            ("scenario quasinilpotent_shift --set dim=4", {}),
            ("scenario isometry --set powers=[3]", {}),
        ],
        ids=[
            "split-n-quad-0",
            "split-n-quad-1",
            "laurent-n-quad-0",
            "laurent-n-quad-negative",
            "laurent-k-range",
            "laurent-k-min",
            "simulate-K",
            "simulate-ma-K",
            "scenario-list-override-not-a-list",
            "scenario-int-override-not-a-number",
            "transform-params-not-an-object",
            "transform-unknown-key",
            "transform-dim-differs-from-noise",
            "certify-empty-window",
            "rescaled-half-shift-zero-replicates",
            "quasinilpotent-zero-replicates",
            "pipeline-zero-ks-replicates",
            "isometry-zero-replicates",
            "multiplication-zero-replicates",
            "expanding-shift-zero-replicates",
            "expanding-shift-empty-norm-sweep",
            "rescaled-half-shift-empty-norm-sweep",
            "rescaled-half-shift-far-below-near",
            "multiplication-component-beyond-dim",
            "quasinilpotent-dim-below-8",
            "isometry-one-power",
        ],
    )
    def test_bad_sizes_and_inputs_exit_2(self, argv, files, tmp_path):
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv.split()]
        assert parse_and_dispatch(argv) == 2

    def test_bad_file_exit_2(self, tmp_path):
        code, _ = run_cli("split", "--model", str(tmp_path / "absent.json"))
        assert code == 2

    @pytest.mark.parametrize(
        "out, reason",
        [(".", "Is a directory"), ("absent/out.json", "No such file or directory")],
        ids=["out-is-a-directory", "out-in-a-missing-directory"],
    )
    def test_unwritable_out_exit_2(self, out, reason, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(_HYPER))
        out = str(tmp_path / out)
        assert parse_and_dispatch(["split", "--model", str(model), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"oparma split: {out}: cannot write: {reason}\n"

    def test_no_subcommand_exit_2(self):
        assert parse_and_dispatch([]) == 2

    def test_version_exit_0(self):
        assert parse_and_dispatch(["--version"]) == 0

    def test_help_exit_0(self):
        assert parse_and_dispatch(["--help"]) == 0


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text(
            json.dumps(
                {
                    "ar": [
                        {
                            "kind": "multiplication",
                            "dim": 2,
                            "params": {"multipliers": [0.5, 2.0]},
                        }
                    ],
                    "ma": [{"kind": "identity", "dim": 2}],
                }
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "oparma", "split", "--model", str(model)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rank"] == 1

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the package imports numpy only; each scipy submodule loads in the
        # function that evaluates it
        names = ["scipy.optimize", "scipy.linalg", "scipy.special", "scipy.stats"]
        code = f"import sys, oparma.cli; print([m in sys.modules for m in {names!r}])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, False, False]"

    @staticmethod
    def _scipy_loaded_by(argv):
        """The scipy modules a fresh interpreter holds after running ``oparma argv``."""
        code = (
            "import json, sys, oparma.cli; rc = oparma.cli.main(sys.argv[1:]); "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "print(rc, json.dumps(loaded), file=sys.stderr)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True
        )
        rc, loaded = proc.stderr.strip().splitlines()[-1].split(" ", 1)
        assert rc == "0", proc.stderr
        return json.loads(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-circle", "--model", "{model}"],
            ["laurent", "--model", "{model}"],
            ["simulate", "--model", "{model}", "--noise", "{noise}", "--method", "ma"],
        ],
        ids=["check-circle", "laurent", "simulate-ma"],
    )
    def test_numpy_only_subcommands_load_no_scipy(self, argv, hyper_model, gauss_noise):
        argv = [a.format(model=hyper_model, noise=gauss_noise) for a in argv]
        assert self._scipy_loaded_by(argv) == []

    def test_hyperbolic_pipeline_leaves_scipy_stats_unloaded(self):
        argv = ["scenario", "hyperbolic_pipeline", "--set", "ks_replicates=200"]
        loaded = self._scipy_loaded_by(argv)
        assert "scipy.linalg" in loaded
        assert not [m for m in loaded if m.startswith("scipy.stats")]

    def test_import_leaves_jsonschema_unloaded(self):
        code = "import sys, oparma.cli; print('jsonschema' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


_SEED_RUNS = {
    "simulate": ["simulate", "--model", "{model}", "--t1", "9"],
    "moments": ["moments", "--n-samples", "1000"],
    "verify": ["verify", "--model", "{model}", "--window", "20"],
}


class TestSeedOverride:
    @pytest.mark.parametrize("sub", _SEED_RUNS)
    def test_seed_flag_replaces_the_file_seed(self, sub, hyper_model, tmp_path):
        outs = {}
        for file_seed, flag in ((5, None), (9, None), (9, "5")):
            noise = tmp_path / f"seed{file_seed}.json"
            noise.write_text(
                json.dumps(
                    {"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}, "seed": file_seed}
                )
            )
            out = tmp_path / f"{sub}-{file_seed}-{flag}.json"
            argv = [a.format(model=hyper_model) for a in _SEED_RUNS[sub]]
            argv += ["--noise", str(noise), "--out", str(out)]
            assert run_cli(*argv, *(["--seed", flag] if flag else []))[0] == 0
            outs[file_seed, flag] = out.read_bytes()
        assert outs[5, None] != outs[9, None]
        assert outs[9, "5"] == outs[5, None]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("sub", ["scenario nilpotent", "simulate --model {model}"])
    def test_a_seed_outside_64_bits_exit_2(self, sub, seed, hyper_model):
        argv = [a.format(model=hyper_model) for a in sub.split()]
        assert run_cli(*argv, "--seed", seed)[0] == 2

    def test_verify_default_noise_takes_the_seed(self, hyper_model, tmp_path):
        noise = tmp_path / "unit.json"
        noise.write_text(
            json.dumps({"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}, "seed": 7})
        )
        outs = []
        for extra in (["--seed", "7"], ["--noise", str(noise)]):
            out = tmp_path / f"verify{len(outs)}.json"
            argv = ["verify", "--model", str(hyper_model), "--out", str(out), *extra]
            assert run_cli(*argv)[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


_HUGE_POINT = {"kind": "point_mass", "params": {"value": [1e300, 1e300]}}


class TestFloatLimit:
    """Entries near 1e300 either work or fail loudly; no norm overflows silently."""

    @pytest.fixture
    def big_model(self, tmp_path):
        path = tmp_path / "big.json"
        entries = [[1e300, 0.0], [0.0, 2.0]]
        path.write_text(
            json.dumps(
                {
                    "ar": [{"kind": "dense", "dim": 2, "params": {"entries": entries}}],
                    "ma": [{"kind": "identity", "dim": 2}],
                }
            )
        )
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["split"],
            ["simulate", "--noise", "{noise}", "--t1", "20"],
            ["verify", "--noise", "{noise}", "--window", "20"],
        ],
        ids=["split", "simulate", "verify"],
    )
    def test_huge_ar_entry_runs_clean(self, argv, big_model, gauss_noise, capsys):
        argv = [a.format(noise=gauss_noise) for a in argv] + ["--model", str(big_model)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        if argv[0] == "split":
            diagnostics = json.loads(out)["diagnostics"]
            assert diagnostics["similarity_residual"] == 0.0

    def test_huge_point_mass_has_every_moment_finite(self, tmp_path, capsys):
        # every order statistic ties with the maximum, so no octave has a tail
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"dim": 2, **_HUGE_POINT}))
        code, out = run_cli("moments", "--noise", str(path), capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["finite_verdict"] == "finite"
        assert {row["tail_coeff"] for row in doc["diagnostics"]["octaves"]} == {0.0}

    @pytest.mark.parametrize(
        "noise, transform, moment",
        [
            # E log||Z|| for sigma N(0, I_2): log sigma + (log 2 - Euler gamma) / 2
            ({"kind": "gaussian", "params": {"sigma": 1e300}}, None, 690.7755 + 0.0580),
            (_HUGE_POINT, None, 690.7755 + 0.3466),
            # T Z = (1e310, 1e300) leaves the float range though its log norm does not
            (_HUGE_POINT, [1e10, 1.0], 713.8014),
        ],
        ids=["gaussian", "point_mass", "point_mass_transformed"],
    )
    def test_huge_noise_moment_is_finite(self, noise, transform, moment, tmp_path, capsys):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"dim": 2, "seed": 1, **noise}))
        argv = ["moments", "--noise", str(path)]
        if transform:
            t_op = tmp_path / "t.json"
            op = {"kind": "multiplication", "dim": 2, "params": {"multipliers": transform}}
            t_op.write_text(json.dumps(op))
            argv += ["--transform", str(t_op)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert json.loads(out)["estimate"] == pytest.approx(moment, abs=0.02)

    def test_tiny_transform_keeps_the_verdict(self, tmp_path, capsys):
        # log ||T Z|| = P - 460.5 for T = 1e-200 I is as Pareto-tailed as at 1e-100,
        # though ||T x||^2 underflows
        noise = tmp_path / "n.json"
        noise.write_text(json.dumps({"kind": "pareto_exp", "dim": 2, "seed": 3}))
        verdicts = []
        for scale in (1e-100, 1e-200):
            t_op = tmp_path / f"t{scale}.json"
            op = {"kind": "multiplication", "dim": 2, "params": {"multipliers": [scale, scale]}}
            t_op.write_text(json.dumps(op))
            argv = ["moments", "--noise", str(noise), "--transform", str(t_op)]
            code, out = run_cli(*argv, "--n-samples", "200000", capsys=capsys)
            assert code == 0
            verdicts.append(json.loads(out)["finite_verdict"])
        assert verdicts[1] == verdicts[0]


class TestClampedDraws:
    """Heavy-tailed draws clamped at e^700 are counted in simulate and fail verify."""

    @pytest.fixture
    def clamped(self, tmp_path):
        # pareto_exp clamps with probability 1/700; this window holds 9 such draws
        model, noise = tmp_path / "m.json", tmp_path / "n.json"
        mult = {"kind": "multiplication", "dim": 3, "params": {"multipliers": [0.2, 0.1, 0.05]}}
        model.write_text(json.dumps({"ar": [mult], "ma": [{"kind": "identity", "dim": 3}]}))
        noise.write_text(json.dumps({"kind": "pareto_exp", "dim": 3, "seed": 2}))
        return str(model), str(noise)

    @pytest.mark.parametrize("heavy, count", [(True, 9), (False, 0)], ids=["pareto", "gaussian"])
    def test_simulate_prints_the_count(self, heavy, count, clamped, hyper_model, gauss_noise,
                                       capsys):
        model, noise = clamped if heavy else (str(hyper_model), str(gauss_noise))
        argv = ["simulate", "--model", model, "--noise", noise, "--t1", "4999"]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        keys = list(json.loads(out))
        assert keys[keys.index("max_residual") + 1] == "n_clamped"
        assert json.loads(out)["n_clamped"] == count
        assert run_cli(*argv, "--format", "csv") == (0, None)
        assert capsys.readouterr().err.split()[-1] == f"n_clamped={count}"

    def test_verify_fails_on_a_clamped_window(self, clamped, capsys):
        model, noise = clamped
        code, out = run_cli("verify", "--model", model, "--noise", noise, "--window", "5000",
                            capsys=capsys)
        assert code == 1
        checks = json.loads(out)["checks"]
        # the residual and the gap are relative to the path, so values near
        # e^700 pass them; only the clamp check fails
        assert [c["pass"] for c in checks] == [True] * 6 + [False]
        assert checks[-1]["description"] == "no noise draw saturated at e^700"
        assert checks[-1]["observed"] == [9, 9]

    def test_verify_passes_an_unclamped_gaussian_window(self, hyper_model, gauss_noise, capsys):
        argv = ["verify", "--model", str(hyper_model), "--noise", str(gauss_noise)]
        code, out = run_cli(*argv, capsys=capsys)
        assert code == 0
        assert json.loads(out)["checks"][-1]["observed"] == [0, 0]
