"""Gallery scenarios: catalog stability, determinism, and green checks."""

import dataclasses

import numpy as np
import pytest

from oparma import scenarios
from oparma.engine import noise, simulate
from oparma.engine.noise import NoiseSpec, make_rng
from oparma.engine.simulate import _relative_gap, simulate_ma, simulate_theorem1
from oparma.errors import SpecificationError, UnknownScenarioError
from oparma.laurent import laurent_coeffs
from oparma.operators import OperatorSpec, arma_model, build_operator
from oparma.scenarios import list_scenarios, run_scenario

EXPECTED_ORDER = [
    "nilpotent",
    "quasinilpotent_shift",
    "rescaled_half_shift",
    "volterra",
    "multiplication_strongly_stable",
    "isometry",
    "expanding_shift",
    "hyperbolic_pipeline",
]


class TestCatalog:
    def test_names_and_order(self):
        entries = list_scenarios()
        assert [e["name"] for e in entries] == EXPECTED_ORDER

    def test_entries_carry_anchor_and_defaults(self):
        for entry in list_scenarios():
            assert entry["anchor"]
            assert isinstance(entry["defaults"], dict)

    def test_defaults_are_copies(self):
        a = list_scenarios()[1]["defaults"]
        a["dim"] = -1
        b = list_scenarios()[1]["defaults"]
        assert b["dim"] == 12

    def test_unknown_name(self):
        with pytest.raises(UnknownScenarioError):
            run_scenario("does_not_exist")

    def test_unknown_override_key(self):
        with pytest.raises(SpecificationError):
            run_scenario("nilpotent", overrides={"dmi": 8})


def _stripped(report):
    d = dataclasses.asdict(report)
    d.pop("runtime_ms")
    return d


class TestReports:
    def test_report_shape(self):
        rep = run_scenario("expanding_shift", seed=1)
        assert rep.name == "expanding_shift"
        assert rep.seed == 1
        assert rep.runtime_ms >= 0
        for check in rep.checks:
            assert set(check) == {"description", "expected", "observed", "pass"}
            assert check["description"].startswith(("[exact]", "[oracle]", "[direct]"))

    def test_deterministic_per_seed(self):
        r1 = run_scenario("rescaled_half_shift", seed=3)
        r2 = run_scenario("rescaled_half_shift", seed=3)
        assert _stripped(r1) == _stripped(r2)

    def test_seed_changes_observations(self):
        r1 = run_scenario("expanding_shift", seed=0)
        r2 = run_scenario("expanding_shift", seed=1)
        obs1 = [c["observed"] for c in r1.checks]
        obs2 = [c["observed"] for c in r2.checks]
        assert obs1 != obs2

    def test_overrides_respected(self):
        rep = run_scenario(
            "rescaled_half_shift",
            overrides={"dim": 8, "far_dim": 32, "replicates": 1000},
        )
        assert rep.params["dim"] == 8
        assert rep.params["far_dim"] == 32
        assert rep.passed


class TestAllScenariosPass:
    @pytest.mark.parametrize("name", EXPECTED_ORDER)
    def test_default_seed_green(self, name):
        rep = run_scenario(name, seed=0)
        failed = [c["description"] for c in rep.checks if not c["pass"]]
        assert not failed, f"{name}: {failed}"
        assert len(rep.checks) >= 2


def test_pipeline_carries_the_certification_chain():
    rep = run_scenario("hyperbolic_pipeline", overrides={"ks_replicates": 200})
    by_text = {c["description"]: c for c in rep.checks}
    circle = by_text["[direct] denominator invertible on the unit circle"]
    radii = by_text["[direct] both spectral radii strictly inside the disc"]
    assert circle["pass"] and circle["observed"] > 1e-6
    assert radii["pass"] and max(radii["observed"]) < 1.0
    residual = by_text["[direct] simulated path satisfies the defining recursion"]
    assert residual["expected"] == "relative residual <= 1e-09"


@pytest.mark.parametrize("chunk", [1, 1000, 1 << 18])
def test_chunked_exceedance_counts_match_one_draw(monkeypatch, chunk):
    # 1 and 1000 values per chunk give one and three rows per chunk
    monkeypatch.setattr(noise, "DRAW_CHUNK", chunk)
    thr = np.maximum(1.0, np.log(np.arange(1.0, 301.0)) * 3.0)
    reps, near = 37, 40
    spec = NoiseSpec(kind="pareto_exp", dim=1, seed=5)
    got_near, got_all = scenarios._exceedance_counts(spec, 2, reps, thr, near)
    draws = 1.0 / (1.0 - make_rng(5, stream=2).random((reps, len(thr))))
    np.testing.assert_array_equal(got_near, (draws[:, :near] > thr[:near]).sum(axis=1))
    np.testing.assert_array_equal(got_all, (draws > thr).sum(axis=1))
    assert got_all.sum() > got_near.sum() > 0


def test_quasinilpotent_counts_past_the_float_range_stay_quiet():
    # e^n - 1 leaves the float range past n = 709 (warnings fail the suite);
    # the thresholds stop at e^700 - 1, which no Pareto draw reaches
    overrides = {"n_terms": 800, "replicates": 50, "sharp_replicates": 20, "sharp_terms_far": 60}
    summable = run_scenario("quasinilpotent_shift", overrides).checks[2]
    assert summable["description"].startswith("[oracle] summable exceedances")
    assert summable["pass"]


def _multiplication_model():
    ar = OperatorSpec(kind="multiplication", dim=2, params={"multipliers": [0.5, 2.0]})
    return arma_model(
        [build_operator(ar)], [build_operator(OperatorSpec(kind="identity", dim=2))]
    )


@pytest.mark.parametrize("sigma", [1e-300, 1e-20, 1.0, 1e300])
def test_certify_gap_is_relative_to_the_path(sigma):
    model = _multiplication_model()
    noise = NoiseSpec(kind="gaussian", dim=2, params={"sigma": sigma}, seed=0)
    checks, _ = scenarios.certify(model, noise, 199, residual_max=1e-8)
    assert all(c["pass"] for c in checks), [c["description"] for c in checks if not c["pass"]]
    split = simulate_theorem1(model, noise, (0, 199)).values
    bad = simulate_ma(model, laurent_coeffs(model), noise, (0, 199)).values.copy()
    bad[20] *= 2.0
    assert _relative_gap(bad, split) > 1e-2 > scenarios.GAP_MAX


def test_certify_figures_do_not_move_with_a_power_of_two():
    model = _multiplication_model()
    figures = set()
    for k in (-600, 0, 600):
        noise = NoiseSpec(kind="gaussian", dim=2, params={"sigma": 2.0**k}, seed=0)
        checks, _ = scenarios.certify(model, noise, 199, residual_max=1e-8)
        figures.add((checks[4]["observed"], checks[5]["observed"]))
    assert len(figures) == 1


def test_pipeline_ks_statistics_equal_ks_2samp(monkeypatch):
    from scipy.stats import ks_2samp

    exact = simulate._ks_statistic
    agree = []

    def checked(a, b):
        agree.append(exact(a, b) == ks_2samp(a, b).statistic)
        return exact(a, b)

    monkeypatch.setattr(simulate, "_ks_statistic", checked)
    assert run_scenario("hyperbolic_pipeline", seed=0).passed
    assert agree == [True, True]
