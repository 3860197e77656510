"""Smoke test of the benchmark at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _call(cli, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(job.argv))
    return rc, workloads.normalize(job, out.getvalue())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_per_layer_list_matches_the_tracer():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(s) for s in spans.metric_specs()
    ]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_match_untraced(workload, tmp_path):
    import oparma
    import oparma.cli as cli

    jobs = workloads.WORKLOADS[workload](inputs.InputWriter(tmp_path, 5), "tiny")
    plain = [_call(cli, job) for job in jobs]
    tracer = spans.Tracer()
    with tracer:
        traced = [_call(cli, job) for job in jobs]
    assert traced == plain
    assert tracer.spans
    # every patched name is back to the original function
    assert not hasattr(oparma.cli.main, "__wrapped__")
    assert not hasattr(oparma.cli.dumps, "__wrapped__")
    assert not hasattr(oparma.scenarios.plim_probe, "__wrapped__")


def test_self_time_subtracts_children():
    spans_ = [
        ["a", "j", None, 0.0, 10.0, None],
        ["b", "j", 0, 1.0, 4.0, None],
        ["c", "j", 1, 2.0, 3.0, None],
        ["b", "j", 0, 5.0, 6.0, None],
    ]
    assert spans.self_times(spans_) == [6.0, 2.0, 1.0, 1.0]
    # a later repetition's spans keep their absolute parent indices
    shifted = [["x", "i", None, 0.0, 1.0, None]] + [
        [n, j, None if p is None else p + 1, s, e, c] for n, j, p, s, e, c in spans_
    ]
    assert spans.self_times(shifted, 1) == [6.0, 2.0, 1.0, 1.0]


def test_counts_and_health_numbers():
    spans_ = [
        ["engine.simulate.simulate_theorem1", "j", None, 0.0, 1.0,
         {"needed": 90, "sampled": 100, "residual": 1e-12}],
        ["engine.simulate.simulate_ma", "j", None, 1.0, 2.0,
         {"needed": 80, "sampled": 100, "residual": float("nan")}],
        ["jsonio.dumps", "j", None, 2.0, 3.0, {"bytes_out": 7}],
        ["spectral.hyperbolic_split", "j", None, 3.0, 4.0, {"margin": 0.2}],
    ]
    m = spans.layer_metrics(spans_)
    assert m["engine.simulate.useful_draw_ratio"] == 0.85
    assert m["jsonio.bytes_out"] == 7
    assert m["engine.simulate.residual_max"] == 1e-12
    assert m["spectral.margin_min"] == 0.2
    assert m["laurent.laurent_coeffs.nodes"] == 0
    assert m["jsonio.dumps.calls"] == 1


def test_planted_spectra_avoid_the_circle():
    import numpy as np

    rng = np.random.default_rng(0)
    moduli = np.sort(np.abs(np.linalg.eigvals(inputs.planted_matrix(rng, 8))))
    assert np.allclose(moduli[[3, 4]], [inputs.INNER[1], inputs.OUTER[0]])
    assert inputs.INNER[0] <= moduli[0] and moduli[-1] <= inputs.OUTER[1]
    c1, c2 = inputs.planted_matrix(rng, 4), inputs.planted_matrix(rng, 4)
    companion = np.block([[c1 + c2, -c1 @ c2], [np.eye(4), np.zeros((4, 4))]])
    got = np.sort_complex(np.linalg.eigvals(companion))
    want = np.sort_complex(np.concatenate([np.linalg.eigvals(c1), np.linalg.eigvals(c2)]))
    assert np.allclose(got, want, atol=1e-8)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.certify(inputs.InputWriter(tmp_path / "a", 7), "tiny")
    b = workloads.certify(inputs.InputWriter(tmp_path / "b", 7), "tiny")
    c = workloads.certify(inputs.InputWriter(tmp_path / "c", 8), "tiny")
    files = lambda d: {p.name: p.read_text() for p in sorted(d.iterdir())}  # noqa: E731
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")
    assert [j.name for j in a] == [j.name for j in b] == [j.name for j in c]
