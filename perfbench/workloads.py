"""The benchmark's workloads: job lists over generated inputs, and output checks.

A job is one in-process call of ``oparma.cli.main(argv)``.  Its check reads
the exit code and the captured standard output and error, and returns a
description of what is wrong, or None.  Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import inputs

#: recursion residual bound that ``verify`` also applies to a simulated path
RESIDUAL_MAX = 1e-8


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable
    #: a failure of this job is expected at the current state of the program
    known_failure: str | None = None


def _parse(out):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _exit_zero(rc, err):
    return None if rc == 0 else f"exit code {rc}, expected 0: {err.strip()[-300:]}"


def _parse_ok(rc, out, err):
    """Parsed output of a job that must exit 0, or the problem."""
    bad = _exit_zero(rc, err)
    return (None, bad) if bad else _parse(out)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _finite_value(z) -> bool:
    if isinstance(z, list):
        return len(z) == 2 and all(_finite_number(v) for v in z)
    return _finite_number(z)


def check_verify(rc, out, err):
    doc, bad = _parse(out)
    if bad:
        return bad
    failed = [c["description"] for c in doc.get("checks", []) if not c["pass"]]
    if rc != 0 or not doc.get("passed") or failed:
        return f"verify exit {rc}, failed checks: {failed}"
    return None


def check_split(dim: int):
    def check(rc, out, err):
        doc, bad = _parse_ok(rc, out, err)
        if bad:
            return bad
        if doc["rank"] != dim // 2:
            return f"split rank {doc['rank']}, planted {dim // 2}"
        if not (doc["radius_inner"] < 1.0 and doc["radius_outer_inv"] < 1.0):
            return f"split radii {doc['radius_inner']}, {doc['radius_outer_inv']} not < 1"
        return None

    return check


def check_circle(rc, out, err):
    doc, bad = _parse_ok(rc, out, err)
    if bad:
        return bad
    return None if doc["ok"] else f"circle check failed: {doc['min_singular_value']}"


def check_simulate_json(t1: int, dim: int):
    def check(rc, out, err):
        doc, bad = _parse_ok(rc, out, err)
        if bad:
            return bad
        values = doc["values"]
        if (doc["t_start"], doc["t_stop"], len(values)) != (0, t1, t1 + 1):
            return f"window [{doc['t_start']}, {doc['t_stop']}] with {len(values)} rows"
        if any(len(row) != dim for row in values):
            return f"a row does not have {dim} components"
        if not all(_finite_value(z) for row in values for z in row):
            return "non-finite value in the path"
        res = doc["max_residual"]
        if not (_finite_number(res) and res <= RESIDUAL_MAX):
            return f"max_residual {res} > {RESIDUAL_MAX}"
        return None

    return check


def check_simulate_csv(t1: int, dim: int):
    def check(rc, out, err):
        bad = _exit_zero(rc, err)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(out)))
        if len(rows[0]) != 1 + 2 * dim or len(rows) != t1 + 2:
            return f"csv has {len(rows) - 1} rows of {len(rows[0])} columns"
        for t, row in enumerate(rows[1:]):
            if int(row[0]) != t or len(row) != 1 + 2 * dim:
                return f"csv row {t} is malformed"
            if not all(math.isfinite(float(v)) for v in row[1:]):
                return f"non-finite value at t={t}"
        summary = dict(kv.split("=", 1) for kv in err.split() if "=" in kv)
        res = float(summary.get("max_residual", "nan"))
        if not res <= RESIDUAL_MAX:
            return f"max_residual {res} > {RESIDUAL_MAX}"
        return None

    return check


def check_scenario(name: str):
    def check(rc, out, err):
        doc, bad = _parse(out)
        if bad:
            return bad
        failed = [c["description"] for c in doc.get("checks", []) if not c["pass"]]
        if rc != 0 or doc.get("name") != name or failed:
            return f"scenario {name} exit {rc}, failed checks: {failed}"
        return None

    return check


def check_moments(verdict: str, n_samples: int):
    def check(rc, out, err):
        doc, bad = _parse_ok(rc, out, err)
        if bad:
            return bad
        if doc["n_samples"] != n_samples or doc["finite_verdict"] != verdict:
            return f"verdict {doc['finite_verdict']!r} at {doc['n_samples']}, expected {verdict!r}"
        return None

    return check


def normalize(job: Job, out: str) -> str:
    """Output with the nondeterministic parts removed, for byte comparison."""
    if job.argv[0] != "scenario":
        return out
    doc, bad = _parse(out)
    if bad or not isinstance(doc, dict):
        return out
    doc.pop("runtime_ms", None)
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# workloads; each size table has a "full" entry and a "tiny" one for the
# smoke test

CERTIFY = {
    "full": {"ar1": (8, 16, 32), "ar2": 16, "volterra": 32, "multiplication": 32, "split": 64},
    "tiny": {"ar1": (4,), "ar2": 4, "volterra": 8, "multiplication": 8, "split": 8},
}

LONG_PATH = {
    # (name, dim, t1, extra flags)
    "full": (
        ("split_json_d4", 4, 19999, ()),
        ("split_csv_d16", 16, 4999, ("--format", "csv")),
        ("ma_json_d16", 16, 4999, ("--method", "ma")),
        ("split_json_d32", 32, 1999, ()),
    ),
    "tiny": (
        ("split_json_d4", 4, 199, ()),
        ("split_csv_d4", 4, 199, ("--format", "csv")),
        ("ma_json_d4", 4, 199, ("--method", "ma")),
        ("split_json_d6", 6, 99, ()),
    ),
}

MONTE_CARLO = {
    # (scenario, overrides), moment samples
    "full": (
        (
            ("hyperbolic_pipeline", ("ks_replicates=2000",)),
            # grid 384 keeps the 1/n! norm check within its 2% (1.5%)
            ("volterra", ("grid=384",)),
            ("isometry", ()),
            ("quasinilpotent_shift", ()),
            # 256 steps leave a variance bias of (33/34)^512 ~ 3e-7 against the 5% gate
            ("multiplication_strongly_stable", ("replicates=20000", "steps=256")),
        ),
        1_000_000,
    ),
    "tiny": (
        (
            ("hyperbolic_pipeline", ("ks_replicates=500",)),
            ("quasinilpotent_shift", ()),
        ),
        200_000,
    ),
}

MOMENTS = (
    ("pareto_exp", "log_plus", "diverging"),
    ("pareto_exp", "log_plus_log_plus", "finite"),
    ("gamma_inv_tail", "gamma_inverse", "finite"),
)


def _model_and_noise(w: inputs.InputWriter, name: str, model: dict, dim: int):
    m = w.write(name, model)
    n = w.write(f"{name}_noise", inputs.gaussian_noise(dim, w.noise_seed(f"{name}_noise")))
    return m, n


def certify(w: inputs.InputWriter, scale: str) -> list:
    size = CERTIFY[scale]
    jobs = []

    def verify(name, model, dim, known_failure=None):
        m, n = _model_and_noise(w, name, model, dim)
        jobs.append(Job(f"verify_{name}", ("verify", "--model", m, "--noise", n),
                        check_verify, known_failure))

    for d in size["ar1"]:
        verify(f"ar1_d{d}", inputs.ar1_model(w.rng(f"ar1_d{d}"), d), d)
    d = size["ar2"]
    verify(f"ar2_d{d}", inputs.ar2_model(w.rng(f"ar2_d{d}"), d), d)
    d = size["volterra"]
    verify(f"volterra_d{d}", inputs.volterra_model(w.rng(f"volterra_d{d}"), d), d)
    d = size["multiplication"]
    verify(f"multiplication_d{d}", inputs.multiplication_model(w.rng(f"multiplication_d{d}"), d), d)
    verify("jordan_d6", inputs.jordan_model(6), 6,
           known_failure="truncation ignores non-normality, so the residual misses 1e-8")
    d = size["split"]
    m = w.write(f"split_ar1_d{d}", inputs.ar1_model(w.rng(f"split_ar1_d{d}"), d))
    jobs.append(Job(f"split_d{d}", ("split", "--model", m), check_split(d)))
    jobs.append(Job(f"check_circle_d{d}", ("check-circle", "--model", m), check_circle))
    return jobs


def long_path(w: inputs.InputWriter, scale: str) -> list:
    jobs = []
    for name, d, t1, flags in LONG_PATH[scale]:
        m, n = _model_and_noise(w, f"path_d{d}", inputs.ar1_model(w.rng(f"path_d{d}"), d), d)
        check = check_simulate_csv(t1, d) if "csv" in flags else check_simulate_json(t1, d)
        argv = ("simulate", "--model", m, "--noise", n, "--t1", str(t1), *flags)
        jobs.append(Job(name, argv, check))
    return jobs


#: scenarios draw their own models and noise from --seed; a fixed seed keeps
#: the scenario work (truncation depths, node counts, chunk sizes) the same
#: for every workload seed, which drives the moment noise files
SCENARIO_SEED = 0


def monte_carlo(w: inputs.InputWriter, scale: str) -> list:
    scenarios, n_samples = MONTE_CARLO[scale]
    jobs = []
    for name, overrides in scenarios:
        argv = ["scenario", name, "--seed", str(SCENARIO_SEED)]
        for item in overrides:
            argv += ["--set", item]
        jobs.append(Job(f"scenario_{name}", tuple(argv), check_scenario(name)))
    for kind, moment, verdict in MOMENTS:
        n = w.write(f"{kind}_{moment}", inputs.heavy_noise(kind, 4, w.noise_seed(f"{kind}_{moment}")))
        argv = ("moments", "--noise", n, "--kind", moment, "--n-samples", str(n_samples))
        jobs.append(Job(f"moments_{moment}", argv, check_moments(verdict, n_samples)))
    return jobs


WORKLOADS = {"certify": certify, "long_path": long_path, "monte_carlo": monte_carlo}
