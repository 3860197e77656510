"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
lines, or ``-s`` to see the printed summaries inline.  Every criterion
is self-contained: corpus generators and oracles live in this file so a
regression anywhere in the library surfaces here.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oparma import (
    NoiseSpec,
    OperatorSpec,
    arma_model,
    build_operator,
    build_split_kernel,
    companion_lift,
    dense_operator,
    hyperbolic_split,
    laurent_coeffs,
    moment_estimate,
    partial_sum_quantiles,
    plim_probe,
    riesz_projector,
    simulate_ma,
    simulate_theorem1,
    structured_norm,
)
from oparma.cli import main
from oparma.engine.noise import make_rng


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {tag}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _random_split_matrix(rng, dim, margin=0.1):
    """Diagonalizable matrix with moduli outside [1-margin, 1+margin].

    Returns the matrix, the eigenvector matrix, and the number of
    eigenvalues inside the disc (listed first), so the spectral
    projector has the closed form S diag(1..1, 0..0) S^-1.
    """
    r = int(rng.integers(0, dim + 1))
    moduli = np.concatenate(
        [
            rng.uniform(0.2, 1.0 - margin, size=r),
            rng.uniform(1.0 + margin, 2.5, size=dim - r),
        ]
    )
    phases = rng.uniform(0, 2 * np.pi, size=dim)
    eigs = moduli * np.exp(1j * phases)
    while True:
        s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if np.linalg.cond(s) < 50:
            break
    return s @ np.diag(eigs) @ np.linalg.inv(s), s, r


def _random_hyperbolic_model(rng, dim, q, margin=0.15):
    while True:
        moduli = np.concatenate(
            [
                rng.uniform(0.2, 1.0 - margin, size=dim // 2 + 1),
                rng.uniform(1.0 + margin, 2.5, size=dim // 2),
            ]
        )[:dim]
        phases = rng.uniform(0, 2 * np.pi, size=dim)
        eigs = moduli * np.exp(1j * phases)
        s = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if np.linalg.cond(s) < 20:
            break
    a = s @ np.diag(eigs) @ np.linalg.inv(s)
    mas = [
        dense_operator(rng.normal(size=(dim, dim)) / np.sqrt(dim))
        for _ in range(q + 1)
    ]
    return arma_model([dense_operator(a)], mas)


def test_criterion_01_riesz_projector_corpus():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    worst_idem = 0.0
    worst_oracle = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        a, s, r = _random_split_matrix(rng, dim)
        proj, _, _ = riesz_projector(dense_operator(a))
        sel = np.zeros(dim)
        sel[:r] = 1.0
        oracle = s @ np.diag(sel) @ np.linalg.inv(s)
        worst_idem = max(worst_idem, np.linalg.norm(proj @ proj - proj, 2))
        worst_oracle = max(worst_oracle, np.linalg.norm(proj - oracle, 2))
    elapsed = time.monotonic() - t0
    ok = worst_idem <= 1e-8 and worst_oracle <= 1e-8 and elapsed < 10.0
    _report(
        1,
        "projector idempotent and matches eigenprojector",
        ok,
        f"idem {worst_idem:.2e}, oracle {worst_oracle:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_split_similarity_contract():
    rng = np.random.default_rng(2002)
    worst_sim = 0.0
    radii_ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        a, _, _ = _random_split_matrix(rng, dim)
        split = hyperbolic_split(dense_operator(a))
        blk = np.zeros((dim, dim), dtype=complex)
        r = split.rank
        blk[:r, :r] = split.block_inner
        blk[r:, r:] = split.block_outer
        rec = split.combine @ blk @ split.combine_inv
        worst_sim = max(
            worst_sim, np.linalg.norm(rec - a, 2) / np.linalg.norm(a, 2)
        )
        radii_ok = radii_ok and (
            split.diagnostics["radius_inner"] < 1.0
            and split.diagnostics["radius_outer_inv"] < 1.0
        )

    fix1 = hyperbolic_split(dense_operator(np.diag([0.5, 2.0])))
    p1_err = np.abs(fix1.projector - np.diag([1.0, 0.0])).max()
    fix2 = hyperbolic_split(dense_operator([[0.5, 1.0], [0.0, 2.0]]))
    p2_expected = np.array([[1.0, -2.0 / 3.0], [0.0, 0.0]])
    p2_err = np.abs(fix2.projector - p2_expected).max()

    ok = worst_sim <= 1e-8 and radii_ok and p1_err <= 1e-8 and p2_err <= 1e-8
    _report(
        2,
        "split conjugation and fixture projectors",
        ok,
        f"similarity {worst_sim:.2e}, fixtures {p1_err:.1e}/{p2_err:.1e}",
    )


def _stored_or_zero(lc, k):
    """psi_k as stored, or 0 outside the stored range (below the floor)."""
    return lc.coefficient(k) if lc.k_min <= k <= lc.k_max else np.zeros_like(lc.coeffs[0])


def test_criterion_03_laurent_oracles_and_split_agreement():
    t0 = time.monotonic()
    inner = arma_model(
        [dense_operator([[0.5]])], [dense_operator([[1.0]])]
    )
    lc = laurent_coeffs(inner)
    err_inner = max(
        abs(_stored_or_zero(lc, k)[0, 0] - 0.5**k) for k in range(0, 31)
    )

    outer = arma_model([dense_operator([[2.0]])], [dense_operator([[1.0]])])
    lc2 = laurent_coeffs(outer)
    err_outer = max(
        abs(_stored_or_zero(lc2, -k)[0, 0] - (-(2.0 ** -k))) for k in range(1, 31)
    )
    err_outer = max(err_outer, abs(_stored_or_zero(lc2, 0)[0, 0]))

    rng = np.random.default_rng(3003)
    worst_pair = 0.0
    for _ in range(5):
        dim = int(rng.integers(1, 9))
        q = int(rng.integers(0, 3))
        model = _random_hyperbolic_model(rng, dim, q)
        lcr = laurent_coeffs(model)
        kernel, _ = build_split_kernel(model)
        for k in range(-20, 21):
            idx = k - kernel.l_min
            psi_split = (
                kernel.psis[idx]
                if 0 <= idx < kernel.psis.shape[0]
                else np.zeros((dim, dim))
            )
            worst_pair = max(
                worst_pair,
                np.abs(_stored_or_zero(lcr, k) - psi_split).max(),
            )
    elapsed = time.monotonic() - t0
    ok = (
        err_inner <= 1e-10
        and err_outer <= 1e-10
        and worst_pair <= 1e-8
        and elapsed < 30.0
    )
    _report(
        3,
        "geometric-series oracles and quadrature/split agreement",
        ok,
        f"0.5^k {err_inner:.1e}, -2^-k {err_outer:.1e}, "
        f"pairwise {worst_pair:.1e}, {elapsed:.1f}s",
    )


def _det_q_roots(ar_mats):
    p = len(ar_mats)
    d = ar_mats[0].shape[0]
    deg = p * d
    nodes = 2.0 * np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    vals = []
    for z in nodes:
        q = z**p * np.eye(d, dtype=complex)
        for i, a in enumerate(ar_mats):
            q -= z ** (p - 1 - i) * a
        vals.append(np.linalg.det(q))
    coeffs = np.linalg.solve(
        np.vander(nodes, deg + 1, increasing=True), np.array(vals)
    )
    return np.roots(coeffs[::-1])


def test_criterion_04_companion_eigenvalues():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 4))
        d = int(rng.integers(1, 4))
        mats = [
            rng.normal(size=(d, d)) * 0.5 ** (i + 1) for i in range(p)
        ]
        model = arma_model(
            [dense_operator(m) for m in mats], [dense_operator(np.eye(d))]
        )
        lift = companion_lift(model)
        eigs = np.linalg.eigvals(lift.matrix)
        roots = _det_q_roots([m.astype(complex) for m in mats])
        cost = np.abs(eigs[:, None] - roots[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, cost[rows, cols].max())
    ok = worst <= 1e-8
    _report(4, "companion spectrum equals det Q roots", ok, f"multiset gap {worst:.1e}")


def test_criterion_05_solution_verification():
    t0 = time.monotonic()
    rng = np.random.default_rng(5005)
    worst_resid = 0.0
    worst_gap = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 7))
        q = int(rng.integers(0, 3))
        model = _random_hyperbolic_model(rng, dim, q)
        coeffs = laurent_coeffs(model)
        spec = NoiseSpec(
            kind="gaussian",
            dim=dim,
            params={"sigma": 1.0},
            seed=int(rng.integers(0, 2**31)),
        )
        res = simulate_theorem1(model, spec, t_range=(0, 199))
        res_ma = simulate_ma(model, coeffs, spec, t_range=(0, 199))
        worst_resid = max(worst_resid, res.max_residual)
        worst_gap = max(
            worst_gap,
            float(np.linalg.norm(res.values - res_ma.values, axis=1).max()),
        )
    elapsed = time.monotonic() - t0
    ok = worst_resid <= 1e-10 and worst_gap <= 1e-6 and elapsed < 60.0
    _report(
        5,
        "recursion residual and cross-method agreement",
        ok,
        f"residual {worst_resid:.1e}, gap {worst_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_06_multiplication_variance():
    t0 = time.monotonic()
    comps = [0, 8, 32]
    lam = np.array([1.0 - 1.0 / (i + 2.0) for i in comps])
    sig = np.array([(i + 1.0) ** -2.0 for i in comps])
    reps = 100_000
    rng = make_rng(606, stream=0)
    # component-major, as the multiplication scenario runs it
    y = np.zeros((len(comps), reps))
    scaled = np.empty_like(y)
    buf = np.empty((reps, len(comps)))
    # stop once the slowest component has forgotten its zero start to 1e-12,
    # as the multiplication scenario does: 926 of the 2048 steps at lambda = 33/34
    for _ in range(min(2048, math.ceil(math.log(1e-12) / math.log(lam.max())))):
        rng.standard_normal(out=buf)
        np.multiply(buf.T, sig[:, None], out=scaled)
        y *= lam[:, None]
        y += scaled
    target = sig**2 / (1.0 - lam**2)
    rel = np.abs(np.var(np.ascontiguousarray(y.T), axis=0) / target - 1.0)
    elapsed = time.monotonic() - t0
    ok = bool(np.all(rel <= 0.05)) and elapsed < 120.0
    _report(
        6,
        "stationary variance of the multiplication family",
        ok,
        f"rel errors {np.array2string(rel, precision=4)}, {elapsed:.1f}s",
    )


def test_criterion_07_volterra_norms():
    op = build_operator(OperatorSpec(kind="volterra", dim=512, params={}))
    rels = [
        abs(structured_norm(op, n) * math.factorial(n) - 1.0) for n in range(1, 7)
    ]
    ok = max(rels) <= 0.02
    _report(
        7,
        "iterated-integration norms track 1/n!",
        ok,
        f"max rel {max(rels):.4f} at m=512",
    )


def test_criterion_08_moment_taxonomy():
    ok = True
    details = []
    for seed in range(5):
        spec = NoiseSpec(kind="pareto_exp", dim=3, params={}, seed=seed)
        v_log = moment_estimate(spec, None, "log_plus", 1_000_000).finite_verdict
        v_loglog = moment_estimate(
            spec, None, "log_plus_log_plus", 1_000_000
        ).finite_verdict
        ok = ok and v_log == "diverging" and v_loglog == "finite"
        details.append(f"s{seed}:{v_log[:3]}/{v_loglog[:3]}")
    _report(8, "log moment diverges, iterated-log moment finite", ok, " ".join(details))


def test_criterion_09_isometry_divergence():
    d = 16
    a = build_operator(OperatorSpec(kind="circular_shift", dim=d))
    model = arma_model(
        [a], [build_operator(OperatorSpec(kind="identity", dim=d))]
    )
    spec = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=909)
    n_grid = [2**p for p in range(4, 13)]
    quants = partial_sum_quantiles(model, spec, n_grid, replicates=200)
    slope = float(
        np.polyfit(np.log(np.asarray(n_grid, float)), np.log(quants), 1)[0]
    )
    probe = plim_probe(model, spec, replicates=200)
    ok = abs(slope - 0.5) <= 0.1 and not probe.converges
    _report(
        9,
        "partial-sum quantiles grow like sqrt(n), no convergence",
        ok,
        f"slope {slope:.3f}, converges={probe.converges}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    model = tmp_path / "model.json"
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
    noise = tmp_path / "noise.json"
    noise.write_text(
        json.dumps({"kind": "gaussian", "dim": 2, "params": {"sigma": 1.0}, "seed": 5})
    )

    def run_twice(argv, strip_timing=False):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.out"
            code = main(argv + ["--out", str(out)])
            assert code == 0
            text = out.read_text()
            if strip_timing:
                text = "\n".join(
                    ln for ln in text.splitlines() if '"runtime_ms"' not in ln
                )
            outs.append(text)
        return outs[0] == outs[1]

    same_split = run_twice(["split", "--model", str(model)])
    same_sim = run_twice(
        [
            "simulate",
            "--model", str(model),
            "--noise", str(noise),
            "--t1", "99",
            "--seed", "7",
        ]
    )
    same_csv = run_twice(
        [
            "simulate",
            "--model", str(model),
            "--noise", str(noise),
            "--t1", "49",
            "--format", "csv",
        ]
    )
    same_scen = run_twice(
        ["scenario", "nilpotent", "--seed", "3"], strip_timing=True
    )
    same_mom = run_twice(
        ["moments", "--noise", str(noise), "--n-samples", "20000"]
    )
    ok = same_split and same_sim and same_csv and same_scen and same_mom
    _report(
        10,
        "repeated CLI invocations are bitwise identical",
        ok,
        f"split={same_split} sim={same_sim} csv={same_csv} "
        f"scenario={same_scen} moments={same_mom}",
    )
