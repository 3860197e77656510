"""The 0/1/2 exit-code taxonomy under mutated model and noise files.

Each example takes a valid model or noise document, replaces one node of
it (a type swap, a non-finite value, a magnitude of 1e+-300, an empty
list, or a list one entry too long or too short) and runs the CLI in
process.  Every run must end in exit 0, 1 or 2 with no traceback and no
warning, and a file the loaders reject must give exit 2.
"""

import copy
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oparma.cli import main
from oparma.errors import SpecificationError
from oparma.jsonio import load_model, load_noise

MODELS = [
    {
        "ar": [{"kind": "dense", "dim": 2, "params": {"entries": [[0.5, [0.1, 0.2]], [0, 2]]}}],
        "ma": [
            {"kind": "identity", "dim": 2},
            {"kind": "multiplication", "dim": 2, "params": {"multipliers": [0.3, -0.2]}},
        ],
    },
    {
        "ar": [
            {"kind": "weighted_shift", "dim": 2, "params": {"weights": [0.4]}},
            {"kind": "scaled_unilateral_shift", "dim": 2, "params": {"scale": 0.2}},
        ],
        "ma": [{"kind": "identity", "dim": 2}],
    },
]

NOISES = [
    {"kind": "gaussian", "dim": 2, "params": {"sigma": 1.5}, "seed": 3},
    {"kind": "gaussian", "dim": 2, "params": {"sigma": [1.0, 0.5]}},
    {"kind": "componentwise_gaussian", "dim": 2, "params": {"sigmas": [1.0, 2.0]}},
    {"kind": "pareto_exp", "dim": 2, "params": {"alpha": 1, "direction": [0.6, 0.8]}},
    {"kind": "gamma_inv_tail", "dim": 2, "params": {"x1": 20.0}, "seed": 1},
    {"kind": "point_mass", "dim": 2, "params": {"value": [1.0, [0.0, 1.0]]}},
]


def _mutations(old):
    """Replacements for one node holding ``old``."""
    out = ["x", True, None, {}, [1.0], math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 10**400, []]
    if isinstance(old, list) and old:
        out += [old + old[-1:], old[:-1]]
    return out


def _paths(doc, prefix=()):
    """Every node of a JSON document, as a key path."""
    yield prefix
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated_files(draw):
    model, noise = draw(st.sampled_from(MODELS)), draw(st.sampled_from(NOISES))
    target = draw(st.sampled_from(["model", "noise"]))
    doc = model if target == "model" else noise
    path = draw(st.sampled_from(list(_paths(doc))))
    new = _replace(doc, path, draw(st.sampled_from(_mutations(_node(doc, path)))))
    return (new, noise) if target == "model" else (model, new)


def _loads(loader, path) -> bool:
    try:
        loader(path)
    except SpecificationError:
        return False
    return True


def test_every_single_mutation_loads_or_raises_a_specification_error(tmp_path):
    """The loaders alone over every mutation the property above samples from."""
    path = tmp_path / "doc.json"
    cases = 0
    for loader, docs in ((load_model, MODELS), (load_noise, NOISES)):
        for doc in docs:
            for key_path in _paths(doc):
                for value in _mutations(_node(doc, key_path)):
                    path.write_text(json.dumps(_replace(doc, key_path, value)))
                    _loads(loader, path)  # any other exception fails the test
                    cases += 1
    assert cases == 1148


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(files=mutated_files())
def test_mutated_files_keep_the_exit_code_taxonomy(files, tmp_path, capsys):
    model_path, noise_path = tmp_path / "model.json", tmp_path / "noise.json"
    for path, doc in zip((model_path, noise_path), files):
        path.write_text(json.dumps(doc))
    model_ok, noise_ok = _loads(load_model, model_path), _loads(load_noise, noise_path)
    m, n = str(model_path), str(noise_path)
    runs = [
        (["split", "--model", m], model_ok),
        (["check-circle", "--model", m], model_ok),
        (["laurent", "--model", m], model_ok),
        (["simulate", "--model", m, "--noise", n, "--t1", "5"], model_ok and noise_ok),
        (["verify", "--model", m, "--noise", n, "--window", "8"], model_ok and noise_ok),
        (["moments", "--noise", n, "--n-samples", "1000"], noise_ok),
    ]
    for argv, inputs_ok in runs:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert not caught, (argv[0], files, [str(w.message) for w in caught])
        assert code in (0, 1, 2), (argv[0], files, code)
        assert "Traceback" not in err, err
        if not inputs_ok:
            assert code == 2, (argv[0], files, code, err)
        if code == 2:
            assert err.startswith(f"oparma {argv[0]}: "), err


@pytest.mark.parametrize(
    "kind, params, where",
    [
        ("gaussian", {"sigma": "x"}, "$.params.sigma"),
        ("gaussian", {"sigma": True}, "$.params.sigma"),
        ("pareto_exp", {"alpha": "x"}, "$.params.alpha"),
        ("pareto_exp", {"alpha": [1]}, "$.params.alpha"),
        ("gamma_inv_tail", {"x1": [20]}, "$.params.x1"),
        ("point_mass", {"value": [1.0, [0.0, 1.0, 2.0]]}, "$.params.value[1]"),
    ],
)
def test_non_numeric_noise_params_exit_2(kind, params, where, tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"kind": kind, "dim": 2, "params": params}))
    assert main(["moments", "--noise", str(noise), "--n-samples", "1000"]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("seed", 5.0), ("dim", 2.0), ("seed", True)])
def test_dim_and_seed_are_json_integers(key, value, tmp_path, capsys):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"kind": "gaussian", "dim": 2, "seed": 1, key: value}))
    assert main(["moments", "--noise", str(noise), "--n-samples", "1000"]) == 2
    assert f"$.{key}: expected an integer" in capsys.readouterr().err


def test_integers_past_the_float_range_exit_2(tmp_path, capsys):
    model, noise = tmp_path / "model.json", tmp_path / "noise.json"
    mults = {"multipliers": [0.5, 10**400]}
    model.write_text(json.dumps({
        "ar": [{"kind": "multiplication", "dim": 2, "params": mults}],
        "ma": [{"kind": "identity", "dim": 2}],
    }))
    noise.write_text(json.dumps({"kind": "gaussian", "dim": 2, "params": {"sigma": 10**400}}))
    assert main(["split", "--model", str(model)]) == 2
    assert "$.ar[0].params.multipliers[1]: integer out of the float range" in capsys.readouterr().err
    assert main(["moments", "--noise", str(noise), "--n-samples", "1000"]) == 2
    assert "$.params.sigma: integer out of the float range" in capsys.readouterr().err
    # past the interpreter's integer digit limit the JSON parser itself refuses it
    noise.write_text('{"kind": "gaussian", "dim": 2, "params": {"sigma": 1' + "0" * 5000 + "}}")
    assert main(["moments", "--noise", str(noise), "--n-samples", "1000"]) == 2
    assert capsys.readouterr().err.startswith("oparma moments: ")
