"""Worked example gallery with automated pass/fail checks.

Each scenario builds a concrete operator family, runs its documented
checks, and returns a ScenarioReport whose numbers are bitwise
reproducible per seed.  Check descriptions carry a marker for where the
expected value comes from:

- [exact]  identities that hold to rounding (nilpotency, zero series);
- [oracle] independently derived numeric values (exceedance-count
  expectations, variance formulas, norm asymptotics);
- [direct] properties checked by running the machinery end to end
  (residuals, cross-method agreement, statistical invariance).

Divergence demonstrations follow one recipe, :func:`_pareto_exceedances`:
count how many series terms exceed 1 in log space, compare the replicate
mean against the analytic expectation over a near depth and again past
it, and read summability (or its failure) off the exceedance
probabilities.  Power-norm sweeps report their worst error through
:func:`_worst_error_check`.  Thresholds and replicate counts are stated
inline; nothing is tuned per run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .engine.moments import moment_estimate
from .engine.noise import CLAMP_LOG, NoiseSpec, log_norm_blocks, make_rng
from .engine.simulate import (
    RECONSTRUCTION_MAX,
    _relative_gap,
    build_split_kernel,
    partial_sum_quantiles,
    plim_probe,
    simulate_ma,
    simulate_theorem1,
    stationarity_ks,
)
from .errors import SpecificationError, UnknownScenarioError
from .laurent import laurent_coeffs
from .operators import (
    OperatorSpec,
    _spectral_norms,
    arma_model,
    build_operator,
    companion_lift,
    dense_operator,
    power_log_norm,
    structured_log_norm,
    structured_norm,
)
from .spectral import check_split, hyperbolic_split


def _check(description, expected, observed, passed):
    return {
        "description": description,
        "expected": expected,
        "observed": observed,
        "pass": bool(passed),
    }


def _identity_model(a, dim):
    return arma_model([a], [build_operator(OperatorSpec(kind="identity", dim=dim))])


def _count_check(description, probs, counts):
    """Compare a replicate-mean exceedance count to its oracle."""
    expected = float(np.sum(probs))
    var = float(np.sum(probs * (1.0 - probs)))
    se = math.sqrt(var / counts.shape[0]) if var > 0 else 0.0
    observed = float(np.mean(counts))
    passed = abs(observed - expected) <= 3.0 * se if se > 0 else observed == expected
    return _check(
        f"{description} (mean over {counts.shape[0]} replicates within "
        f"3 standard errors of {expected:.4f})",
        expected,
        observed,
        passed,
    )


def _exceedance_counts(spec, stream, reps, thr, near):
    """Per-replicate counts of log-magnitudes of ``spec`` above ``thr``.

    Row i holds replicate i's ``len(thr)`` terms: draws i len(thr) ..
    (i + 1) len(thr) - 1 of ``log_magnitude_samples(spec, ..., stream)``.
    Returns the counts over the first ``near`` terms and over all of them.
    The rows come a block at a time from :func:`.engine.noise.log_norm_blocks`,
    so the counts do not depend on the block size.
    """
    counts_near = np.empty(reps, dtype=np.intp)
    counts_all = np.empty(reps, dtype=np.intp)
    for lo, logs in log_norm_blocks(spec, reps, stream, row=(len(thr),)):
        exceeds = logs > thr
        counts_near[lo : lo + logs.shape[0]] = exceeds[:, :near].sum(axis=1)
        counts_all[lo : lo + logs.shape[0]] = exceeds.sum(axis=1)
    return counts_near, counts_all


def _pareto_exceedances(seed, stream, reps, thr, near, near_desc, far_desc):
    """Near and far exceedance-count checks for Pareto(1) draws against ``thr``.

    Draws 1/(1 - U) >= 1 (the log-magnitudes of ``pareto_exp`` noise) on
    ``stream`` for ``reps`` replicates of ``len(thr)`` terms; term n
    exceeds its threshold thr_n >= 1 with probability 1/thr_n.  The near
    check counts the first ``near`` terms, the far check the rest, whose
    growth shows the series diverging.
    """
    if not 1 <= near < len(thr):
        raise SpecificationError(
            f"the near depth must be >= 1 and below the far depth {len(thr)}, got {near}"
        )
    spec = NoiseSpec(kind="pareto_exp", dim=1, seed=seed)
    counts_near, counts_all = _exceedance_counts(spec, stream, reps, thr, near)
    probs = 1.0 / thr
    return [
        _count_check(near_desc, probs[:near], counts_near),
        _count_check(far_desc, probs[near:], counts_all - counts_near),
    ]


def _worst_error_check(description, errors, tol, expected):
    """Report the largest of ``errors``; pass when every one is <= ``tol``."""
    errors = list(errors)
    if not errors:
        raise SpecificationError(f"nothing to sweep for check {description!r}")
    return _check(description, expected, max(errors), all(e <= tol for e in errors))


#: certification gate on the split-vs-MA gap relative to the split path; the
#: residual bound is the caller's
GAP_MAX = 1e-6


def certify(model, noise, t1: int, residual_max: float):
    """Certify the stationary solution of ``model`` on the window [0, t1].

    Runs the spectral split of the lifted AR operator, the Laurent
    coefficients (whose circle check is recorded, not repeated) and both
    simulations on ``noise``, in that order, so a bad model raises the
    split's error first.  Returns ``(checks, split)``; the checks are, in
    order: circle invertibility, split invariants, both block radii,
    Laurent reconstruction, recursion residual <= ``residual_max``, the
    split-vs-MA gap sup_t ||Y_t^split - Y_t^MA||_2 / max_t ||Y_t^split||_2
    <= :data:`GAP_MAX`, and no noise draw clamped at e^CLAMP_LOG in either
    route's window (the residual and the gap would otherwise certify noise
    that is not the law's).  A window of
    fewer than p + 2 points, too short for the recursion residual,
    raises :class:`SpecificationError`.
    """
    if t1 + 1 < model.p + 2:
        raise SpecificationError(
            f"window must be at least p + 2 = {model.p + 2}, got {t1 + 1}"
        )
    op = companion_lift(model)
    split = hyperbolic_split(op)
    flags = check_split(split, op)
    coeffs = laurent_coeffs(model)
    res_split = simulate_theorem1(model, noise, (0, t1), split=split)
    res_ma = simulate_ma(model, coeffs, noise, (0, t1))
    gap = _relative_gap(res_ma.values, res_split.values)
    circle = coeffs.circle
    radii = [split.diagnostics["radius_inner"], split.diagnostics["radius_outer_inv"]]
    recon = coeffs.reconstruction_residual
    clamped = [res_split.noise.n_clamped, res_ma.noise.n_clamped]
    checks = [
        _check(
            "denominator invertible on the unit circle",
            f"min singular value > {circle.tol:.1e}",
            circle.min_singular_value,
            circle.passed,
        ),
        _check(
            "spectral split certifies its invariants",
            "all split identities at tolerance",
            {k: bool(v) for k, v in flags.items()},
            all(flags.values()),
        ),
        _check(
            "both spectral radii strictly inside the disc",
            "< 1",
            radii,
            all(r < 1.0 for r in radii),
        ),
        _check(
            "two-sided expansion reconstructs the transfer function",
            f"residual <= {RECONSTRUCTION_MAX:g}",
            recon,
            recon <= RECONSTRUCTION_MAX,
        ),
        _check(
            "simulated path satisfies the defining recursion",
            f"relative residual <= {residual_max:g}",
            res_split.max_residual,
            res_split.max_residual <= residual_max,
        ),
        _check(
            "split series and moving average agree on one noise path",
            f"relative sup gap <= {GAP_MAX:g}",
            gap,
            gap <= GAP_MAX,
        ),
        _check(
            f"no noise draw saturated at e^{CLAMP_LOG:g}",
            "0 clamped draws in the split and the MA window",
            clamped,
            clamped == [0, 0],
        ),
    ]
    return checks, split


# ---------------------------------------------------------------------------
# individual scenarios


def _scenario_nilpotent(params, seed):
    d = int(params["dim"])
    a = build_operator(
        OperatorSpec(kind="weighted_shift", dim=d, params={"weights": [1.0] * (d - 1)})
    )
    model = _identity_model(a, d)
    checks = []

    power = np.linalg.matrix_power(a.matrix, d)
    checks.append(
        _check(
            f"[exact] shift with ones is nilpotent: A^{d} = 0 to the last bit",
            0.0,
            float(np.abs(power).max()),
            np.all(power == 0.0),
        )
    )

    kernel, _ = build_split_kernel(model)
    k0 = -kernel.l_min
    tail = float(_spectral_norms(kernel.psis[k0 + d :]).max())
    checks.append(
        _check(
            f"[oracle] solution series terminates: kernel lags >= {d} vanish below 1e-12",
            0.0,
            tail,
            tail <= 1e-12,
        )
    )

    heavy = NoiseSpec(kind="pareto_exp", dim=d, params={}, seed=seed)
    res = simulate_theorem1(model, heavy, t_range=(0, 39))
    checks.append(
        _check(
            "[direct] finite series solves the recursion for heavy noise with no "
            "moment assumption (relative residual <= 1e-10)",
            1e-10,
            res.max_residual,
            res.max_residual <= 1e-10,
        )
    )

    probe = plim_probe(model, heavy, n_grid=(8, 16, 32, 64), replicates=100)
    checks.append(
        _check(
            "[exact] partial sums freeze after d terms: dispersion identically zero "
            "and converges flag set",
            0.0,
            max(probe.dispersions),
            probe.converges and max(probe.dispersions) == 0.0,
        )
    )
    return checks


def _scenario_quasinilpotent(params, seed):
    d = int(params["dim"])
    n_terms = int(params["n_terms"])
    sharp_near = int(params["sharp_terms"])
    sharp_far = int(params["sharp_terms_far"])
    reps = int(params["replicates"])
    sharp_reps = int(params["sharp_replicates"])
    if d < 8:
        # A^n vanishes for n >= dim, and the power-norm oracles sweep n = 1..7
        raise SpecificationError(f"quasinilpotent_shift needs dim >= 8, got {d}")

    # weights chosen so the leading window product is e^(1 - e^n); the
    # double-exponential collapse underflows doubles past n = 7, which the
    # truncation turns into exact zeros
    weights = [math.exp(math.e ** (n - 1) - math.e**n) for n in range(1, d)]
    a = build_operator(
        OperatorSpec(kind="weighted_shift", dim=d, params={"weights": weights})
    )
    wants = {n: 1.0 - math.e**n for n in range(1, 8)}
    checks = [
        _worst_error_check(
            "[oracle] log operator-power norms follow 1 - e^n for n <= 7 "
            "(relative 1e-10, evaluated in log space)",
            (abs(structured_log_norm(a, n) - w) / abs(w) for n, w in wants.items()),
            1e-10,
            0.0,
        ),
        _worst_error_check(
            "[oracle] dense matrix powers agree with the structured formula while "
            "they are representable (n <= 4, relative 1e-8)",
            (abs(power_log_norm(a, n) - w) / abs(w) for n, w in wants.items() if n <= 4),
            1e-8,
            0.0,
        ),
    ]

    # convergence under noise whose log magnitude is Pareto(1): the n-th
    # series term exceeds 1 iff P_n > e^n - 1, and those probabilities sum;
    # compare in log space so deep tails never overflow (the thresholds stop
    # at e^CLAMP_LOG - 1, far above any draw)
    ns = np.arange(1.0, n_terms + 1.0)
    log_thr = ns + np.log1p(-np.exp(-ns))
    probs = np.exp(-log_thr)
    spec = NoiseSpec(kind="pareto_exp", dim=1, seed=seed)
    _, counts = _exceedance_counts(spec, 1, reps, np.expm1(np.minimum(ns, CLAMP_LOG)), n_terms)
    checks.append(
        _count_check(
            "[oracle] summable exceedances: terms of the double-exponential series "
            "beat 1 only when P_n > e^n - 1",
            probs,
            counts,
        )
    )

    # sharpness: noise concentrated in component 0 whose log-log magnitude
    # is Pareto(1).  Exceedance needs P_n > log(e^n - 1) ~ n, a harmonic
    # (non-summable) family, so big terms recur forever
    ns_far = np.arange(1.0, sharp_far + 1.0)
    thr = np.maximum(1.0, ns_far + np.log1p(-np.exp(-ns_far)))
    checks += _pareto_exceedances(
        seed, 2, sharp_reps, thr, sharp_near,
        f"[oracle] heavier tail is sharp: exceedance count over {sharp_near} "
        "terms matches the harmonic-sum expectation",
        f"[oracle] harmonic counts keep growing ({sharp_near} -> {sharp_far} "
        "terms), the signature of a divergent series",
    )
    return checks


def _scenario_rescaled_half_shift(params, seed):
    d = int(params["dim"])
    far = int(params["far_dim"])
    reps = int(params["replicates"])
    a = build_operator(
        OperatorSpec(kind="scaled_unilateral_shift", dim=d, params={"scale": 0.5})
    )
    checks = []

    power = np.linalg.matrix_power(a.matrix, d)
    checks.append(
        _check(
            f"[exact] truncation is nilpotent at its own order: A^{d} = 0",
            0.0,
            float(np.abs(power).max()),
            np.all(power == 0.0),
        )
    )

    checks.append(
        _worst_error_check(
            "[exact] power norms halve per step: log ||A^n|| = n log(1/2) "
            "for n < d",
            (abs(structured_log_norm(a, n) - n * math.log(0.5)) for n in range(1, d)),
            1e-12,
            0.0,
        )
    )

    # scalar-projection divergence: with log-Pareto noise per component the
    # candidate series has terms 2^{-j} e^{P_j}, which exceed 1 whenever
    # P_j > j log 2; the full necessity argument needs the untruncated
    # left shift and stays documentation
    thr = np.maximum(1.0, np.arange(1, far + 1) * math.log(2.0))
    checks += _pareto_exceedances(
        seed, 1, reps, thr, d,
        f"[oracle] exceedance count at depth {d} matches 1 + (H_{d} - 1)/log 2",
        f"[oracle] count grows with depth ({d} -> {far}): harmonic over log 2, "
        "unbounded in the untruncated limit",
    )
    return checks


def _scenario_volterra(params, seed):
    # the only scenario that calls scipy.special itself, so it loads it here
    from scipy.special import exp1, gammaln

    m = int(params["grid"])
    x1 = float(params["x1"])
    conv_terms = int(params["conv_terms"])
    conv_reps = int(params["conv_replicates"])
    sharp_near = int(params["sharp_terms_near"])
    sharp_far = int(params["sharp_terms_far"])
    sharp_reps = int(params["sharp_replicates"])
    moment_n = int(params["moment_samples"])

    a = build_operator(OperatorSpec(kind="volterra", dim=m, params={}))
    checks = [
        _worst_error_check(
            "[oracle] iterated-integration norms track 1/n! within 2% for n <= 6 "
            f"on the {m}-point grid",
            (abs(structured_norm(a, n) * math.factorial(n) - 1.0) for n in range(1, 7)),
            0.02,
            0.02,
        )
    ]

    # convergent noise: magnitudes e^Y with slowly decaying Y-tail; the
    # n-th term exceeds 1 iff Y_n > log n!, and those probabilities are
    # summable, which is exactly the Borel-Cantelli sufficiency route
    spec = NoiseSpec(kind="gamma_inv_tail", dim=1, params={"x1": x1}, seed=seed)
    thr = gammaln(np.arange(2, conv_terms + 2).astype(float))
    y1 = math.log(x1)
    den = float(exp1(math.log(y1)))
    probs = np.where(
        thr <= y1, 1.0, exp1(np.log(np.maximum(thr, y1))) / den
    )
    _, counts = _exceedance_counts(spec, 1, conv_reps, thr, conv_terms)
    checks.append(
        _count_check(
            "[oracle] gamma-inverse-moment noise: exceedances of 1/n!-weighted "
            f"terms over {conv_terms} lags are summable",
            probs,
            counts,
        )
    )

    rep = moment_estimate(spec, None, "gamma_inverse", moment_n, stream=2)
    checks.append(
        _check(
            "[direct] the matching moment is finite: gamma-inverse moment verdict "
            f"on the same noise at {moment_n} samples",
            "finite",
            rep.finite_verdict,
            rep.finite_verdict == "finite",
        )
    )

    # sharp side: log-Pareto magnitudes have a finite iterated-log moment
    # but no gamma-inverse moment; exceedance probabilities 1/log n! sum
    # like log log N and never stop growing
    thr = np.maximum(1.0, gammaln(np.arange(2, sharp_far + 2).astype(float)))
    checks += _pareto_exceedances(
        seed, 3, sharp_reps, thr, sharp_near,
        "[oracle] noise with log magnitude Pareto(1): exceedance count over "
        f"{sharp_near} lags matches the divergent-series partial sum",
        f"[oracle] those counts still grow from {sharp_near} to {sharp_far} "
        "lags (iterated-log growth, non-summable family)",
    )

    model = _identity_model(a, m)
    gauss = NoiseSpec(kind="gaussian", dim=m, params={"sigma": 1.0}, seed=seed)
    probe = plim_probe(model, gauss, n_grid=(8, 16, 32, 64), replicates=50)
    checks.append(
        _check(
            "[direct] partial sums of the simulated series settle under "
            "square-integrable noise (probe dispersion below 1e-3)",
            True,
            probe.converges,
            probe.converges,
        )
    )
    return checks


def _scenario_multiplication(params, seed):
    d = int(params["dim"])
    comps = [int(c) for c in params["components"]]
    reps = int(params["replicates"])
    steps = int(params["steps"])
    dims_curve = [int(x) for x in params["dims_curve"]]
    if not all(0 <= c < d for c in comps):
        raise SpecificationError(f"components {comps} must lie in [0, dim = {d})")

    lam = np.array([1.0 - 1.0 / (i + 2.0) for i in range(d)])
    sig = np.array([(i + 1.0) ** -2.0 for i in range(d)])
    checks = []

    lam_c = lam[comps]
    sig_c = sig[comps]
    rng = make_rng(seed, stream=1)
    # component-major, so every update runs along the replicates; the draws
    # stay (replicates, components) rows
    y = np.zeros((len(comps), reps))
    scaled = np.empty_like(y)
    buf = np.empty((reps, len(comps)))
    # stop once the slowest component has forgotten its zero start to 1e-12
    # (the variance bias is then below 1e-24); ``steps`` caps the loop
    for _ in range(min(steps, math.ceil(math.log(1e-12) / math.log(lam_c.max())))):
        rng.standard_normal(out=buf)
        np.multiply(buf.T, sig_c[:, None], out=scaled)
        y *= lam_c[:, None]
        y += scaled
    target = sig_c**2 / (1.0 - lam_c**2)
    # np.var sums in the order of its input's layout: (replicates, components) in C order
    observed = np.var(np.ascontiguousarray(y.T), axis=0)
    rel = np.abs(observed / target - 1.0)
    checks.append(
        _check(
            "[oracle] stationary component variances match sigma_i^2/(1-lambda_i^2) "
            f"within 5% at {reps} replicates (components {comps})",
            [float(t) for t in target],
            [float(v) for v in observed],
            bool(np.all(rel <= 0.05)),
        )
    )

    # square-summable component variances are not enough: with noise
    # variances (i+1)^{-2} each stationary share behaves like 1/(2i) and
    # the d-indexed partial sums climb harmonically
    partials = []
    for dd in dims_curve:
        ll = np.array([1.0 - 1.0 / (i + 2.0) for i in range(dd)])
        var = np.arange(1.0, dd + 1.0) ** -2.0
        partials.append(float(np.sum(var / (1.0 - ll**2))))
    increasing = all(b > a for a, b in zip(partials, partials[1:]))
    spread = partials[-1] - partials[0]
    checks.append(
        _check(
            "[oracle] with noise variances (i+1)^-2 the total stationary variance "
            f"grows without bound across d = {dims_curve} (last - first > 1.5)",
            "> 1.5 and strictly increasing",
            spread,
            increasing and spread > 1.5,
        )
    )

    mult = build_operator(
        OperatorSpec(kind="multiplication", dim=d, params={"multipliers": list(lam)})
    )
    model = _identity_model(mult, d)
    noise = NoiseSpec(
        kind="componentwise_gaussian",
        dim=d,
        params={"sigmas": [float(s) for s in sig]},
        seed=seed,
    )
    probe = plim_probe(model, noise, n_grid=(64, 128, 256, 512), replicates=100)
    checks.append(
        _check(
            "[direct] with square-summable scales the strongly stable partial sums "
            "converge in probability (probe at d = %d)" % d,
            True,
            probe.converges,
            probe.converges,
        )
    )
    return checks


def _scenario_isometry(params, seed):
    d = int(params["dim"])
    reps = int(params["replicates"])
    powers = [int(p) for p in params["powers"]]
    if len(set(powers)) < 2:
        raise SpecificationError(f"the sqrt(n) slope needs two distinct powers, got {powers}")
    a = build_operator(OperatorSpec(kind="circular_shift", dim=d))
    model = _identity_model(a, d)
    noise = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=seed)
    checks = []

    probe = plim_probe(model, noise, replicates=100)
    checks.append(
        _check(
            "[direct] rotations never forget: probe dispersion stays order "
            "sqrt(n * d), converges flag false",
            False,
            probe.converges,
            not probe.converges,
        )
    )
    floor = math.sqrt(d)
    checks.append(
        _check(
            "[oracle] increment dispersion exceeds sqrt(d) at every grid point "
            "(orthogonal increments of total variance n*d)",
            floor,
            min(probe.dispersions),
            min(probe.dispersions) > floor,
        )
    )

    n_grid = [2**p for p in powers]
    quants = partial_sum_quantiles(model, noise, n_grid, replicates=reps)
    slope = float(
        np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(quants), 1)[0]
    )
    checks.append(
        _check(
            "[oracle] 0.9-quantile of ||S_n|| grows like sqrt(n): log-log slope "
            "0.5 +/- 0.1 across n = 2^%d..2^%d" % (powers[0], powers[-1]),
            0.5,
            slope,
            abs(slope - 0.5) <= 0.1,
        )
    )
    gram_err = float(np.abs(a.matrix.conj().T @ a.matrix - np.eye(d)).max())
    checks.append(
        _check(
            "[exact] the circular shift is unitary on the truncation (the cut-off "
            "unilateral shift is not an isometry there; this substitution keeps "
            "the norm-preserving hypothesis): || A^H A - I || = 0",
            0.0,
            gram_err,
            gram_err == 0.0,
        )
    )
    return checks


def _scenario_expanding_shift(params, seed):
    d = int(params["dim"])
    reps = int(params["replicates"])
    delta = float(params["delta"])
    a = build_operator(
        OperatorSpec(kind="scaled_unilateral_shift", dim=d, params={"scale": 2.0})
    )
    checks = [
        _worst_error_check(
            "[exact] power norms double per step on the truncation: "
            "log ||A^n|| = n log 2 for n < d",
            (abs(structured_log_norm(a, n) - n * math.log(2.0)) for n in range(1, d)),
            1e-12,
            0.0,
        )
    ]

    # the would-be anticausal solution forces component 0 to equal both
    # Z_t^(0) and -sum_j 2^{-j} Z^(j)_{t+j}; evaluate both members on one
    # sampled path and watch them disagree
    rng = make_rng(seed, stream=1)
    z0 = rng.standard_normal(reps)
    zj = rng.standard_normal((reps, d - 1))
    weights = 2.0 ** -np.arange(1.0, d)
    gap = z0 + zj @ weights
    frac = float(np.mean(np.abs(gap) > delta))
    sigma = math.sqrt(1.0 + float(np.sum(weights**2)))
    expected = 1.0 - 2.0 * delta / (sigma * math.sqrt(2.0 * math.pi))
    checks.append(
        _check(
            "[oracle] the two candidate expressions for component 0 differ by more "
            f"than {delta} in at least 99% of replicates (analytic rate "
            f"{expected:.4f} for centered normal of variance {sigma**2:.4f})",
            ">= 0.99",
            frac,
            frac >= 0.99,
        )
    )
    return checks


def _scenario_hyperbolic_pipeline(params, seed):
    d = int(params["dim"])
    q = int(params["q"])
    t1 = int(params["window"]) - 1
    ks_reps = int(params["ks_replicates"])
    n_in = d // 2
    rng = make_rng(seed, stream=0)
    while True:
        moduli = np.concatenate(
            [
                rng.uniform(0.4, 0.85, size=n_in),
                rng.uniform(1.25, 2.2, size=d - n_in),
            ]
        )
        phases = rng.uniform(0.0, 2.0 * np.pi, size=d)
        eigs = moduli * np.exp(1j * phases)
        s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if np.linalg.cond(s) < 20.0:
            break
    a = dense_operator(s @ np.diag(eigs) @ np.linalg.inv(s))
    mas = [
        dense_operator(
            (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2 * d)
        )
        for _ in range(q + 1)
    ]
    model = arma_model([a], mas)
    noise = NoiseSpec(kind="gaussian", dim=d, params={"sigma": 1.0}, seed=seed)
    chain, split = certify(model, noise, t1, residual_max=1e-9)
    checks = [
        _check(
            f"[exact] spectral splitting finds the planted {n_in}/{d - n_in} partition",
            n_in,
            split.rank,
            split.rank == n_in,
        )
    ]
    checks += [dict(c, description="[direct] " + c["description"]) for c in chain]

    ks = stationarity_ks(model, noise, replicates=ks_reps)
    checks.append(
        _check(
            "[direct] simulated law is shift invariant: two-sample KS on paired "
            f"norms at lag 5, {ks_reps} replicates, 1% critical value",
            ks["critical_value"],
            max(ks["ks_statistic_t"], ks["ks_statistic_t_plus_1"]),
            ks["passed"],
        )
    )
    return checks


_CATALOG = (
    (
        "nilpotent",
        "shift with finitely many steps: the series terminates, no moment "
        "condition on the noise is needed",
        _scenario_nilpotent,
        {"dim": 6},
    ),
    (
        "quasinilpotent_shift",
        "weighted shift with double-exponentially collapsing powers: iterated-log "
        "noise converges, one notch heavier diverges",
        _scenario_quasinilpotent,
        {
            "dim": 12,
            "n_terms": 40,
            "sharp_terms": 50,
            "sharp_terms_far": 5000,
            "replicates": 4000,
            "sharp_replicates": 2000,
        },
    ),
    (
        "rescaled_half_shift",
        "half-scaled shift: geometric decay needs a log moment; the truncation "
        "is nilpotent so the necessity argument stays at the scalar projection",
        _scenario_rescaled_half_shift,
        {"dim": 16, "far_dim": 64, "replicates": 4000},
    ),
    (
        "volterra",
        "cumulative integration on a grid: power norms decay like 1/n!, the "
        "gamma-inverse moment is the matching noise condition",
        _scenario_volterra,
        {
            "grid": 512,
            "x1": 20.0,
            "conv_terms": 200,
            "conv_replicates": 3000,
            "sharp_terms_near": 200,
            "sharp_terms_far": 4000,
            "sharp_replicates": 2000,
            "moment_samples": 1_000_000,
        },
    ),
    (
        "multiplication_strongly_stable",
        "diagonal family with spectrum accumulating at 1: stationary variance "
        "formula per component; finite noise variance alone is not sufficient",
        _scenario_multiplication,
        {
            "dim": 64,
            "components": [0, 8, 32],
            "replicates": 100_000,
            "steps": 2048,
            "dims_curve": [16, 64, 256, 1024],
        },
    ),
    (
        "isometry",
        "circular shift (unitary truncation): nondegenerate noise makes partial "
        "sums wander at rate sqrt(n), so no stationary solution arises this way",
        _scenario_isometry,
        {"dim": 16, "replicates": 200, "powers": list(range(4, 13))},
    ),
    (
        "expanding_shift",
        "doubling shift: the causal and anticausal readings force contradictory "
        "values for component 0",
        _scenario_expanding_shift,
        {"dim": 16, "replicates": 1000, "delta": 0.005},
    ),
    (
        "hyperbolic_pipeline",
        "end to end on a random hyperbolic operator: split, simulate, extract "
        "coefficients, cross-check, test stationarity",
        _scenario_hyperbolic_pipeline,
        {"dim": 6, "q": 2, "window": 200, "ks_replicates": 4000},
    ),
)

_BY_NAME = {name: (anchor, fn, defaults) for name, anchor, fn, defaults in _CATALOG}


def list_scenarios():
    """Stable-ordered catalog: name, one-line anchor, default parameters."""
    return tuple(
        {"name": name, "anchor": anchor, "defaults": dict(defaults)}
        for name, anchor, fn, defaults in _CATALOG
    )


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    params: dict
    checks: list
    seed: int
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)


def _like(value, default, where: str):
    """``value`` converted to the type of ``default``; raises if it does not fit."""
    if isinstance(default, list) and isinstance(value, list) and value:
        return [_like(v, default[0], where) for v in value]
    if not isinstance(value, bool):
        if isinstance(default, float) and isinstance(value, (int, float)):
            return float(value)
        integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(default, int) and integral:
            return int(value)
    raise SpecificationError(f"{where} must be like its default {default!r}, got {value!r}")


def run_scenario(name: str, overrides: dict | None = None, seed: int = 0) -> ScenarioReport:
    """Run one catalog scenario and report its checks.

    ``overrides`` updates the scenario's default parameters; unknown keys
    and values whose type does not match the default's are rejected
    (an integral float is accepted for an integer, an integer for a
    float), and so is a ``*replicates`` count below 1.  Reports are
    bitwise deterministic per (name, overrides, seed) apart from
    runtime_ms.  Exceptions escaping a scenario body signal broken
    infrastructure and propagate; a failed check is a regular report
    entry with pass false.
    """
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownScenarioError(f"unknown scenario {name!r}; catalog: {known}")
    anchor, fn, defaults = _BY_NAME[name]
    params = dict(defaults)
    if overrides:
        bad = sorted(set(overrides) - set(defaults))
        if bad:
            raise SpecificationError(
                f"unknown parameter(s) {bad} for scenario {name!r}; "
                f"known: {sorted(defaults)}"
            )
        for key, value in overrides.items():
            where = f"scenario {name!r} parameter {key!r}"
            params[key] = _like(value, defaults[key], where)
            if key.endswith("replicates") and params[key] < 1:
                raise SpecificationError(f"{where} must be >= 1, got {params[key]}")
    t0 = time.perf_counter()
    checks = fn(params, int(seed))
    ms = int(round((time.perf_counter() - t0) * 1000.0))
    return ScenarioReport(
        name=name, params=params, checks=checks, seed=int(seed), runtime_ms=ms
    )
