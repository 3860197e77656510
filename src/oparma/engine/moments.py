"""Monte Carlo moment estimation with honest finiteness verdicts.

The moments of interest are E[g(||T Z||)] for g among log+, iterated
log+, and the inverse gamma function on its increasing branch.  No
finite sample proves integrability, so the verdict machinery is an
explicit heuristic built from two signals:

- growth of the running estimate under sample doubling (a diverging
  mean keeps climbing; a finite one stabilizes within standard error);
- the empirical tail-mass coefficient (k/n) * g_(k) at octave order
  statistics g_(k), which estimates x * P(g > x) at the matching
  quantile.  Tails with a positive coefficient integrate like
  log, i.e. not at all.

Both signals, their thresholds, and the resulting verdict are reported
so a skeptical caller can inspect the curve instead of trusting the
flag.  Heavy-tailed kinds are handled entirely through their exact
log-magnitude channel; nothing here overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import DimensionMismatchError, SpecificationError
from ..operators import Operator
from .noise import NoiseSpec, _table_lookup, log_norm_blocks

MOMENT_KINDS = ("log_plus", "log_plus_log_plus", "gamma_inverse")

#: argmin of the gamma function on the positive axis (root of digamma);
#: gamma is increasing on [GAMMA_ARGMIN, inf), which is the branch the
#: inverse refers to
GAMMA_ARGMIN = 1.4616321449683623
#: gamma evaluated at its argmin, the smallest invertible value
GAMMA_MIN = 0.8856031944108887

#: octave statistics use order statistics with at least this many
#: samples above them
OCTAVE_MIN_COUNT = 30
#: tail-mass coefficient above this, consistently across the deepest
#: reliable octaves, reads as a non-integrable tail
THETA_DIVERGING = 0.08
#: the finite verdict additionally requires the deepest tail
#: coefficient to sit below this (looser, since slowly varying
#: corrections inflate the statistic at finite n)
THETA_FINITE = 0.15
#: relative growth per doubling that counts as "still climbing"
GROWTH_FACTOR = 1.2
#: agreement band between successive doublings, in joint standard errors
AGREEMENT_SIGMAS = 3.0


def gamma_inverse(y: float) -> float:
    """Inverse of the gamma function on its increasing branch.

    Solves gamma(x) = y for x >= GAMMA_ARGMIN by bracketed root finding
    on log gamma, to relative accuracy 1e-10.  Arguments below
    GAMMA_MIN have no preimage on the branch and raise.
    """
    # imported here so that importing the package leaves scipy unloaded
    from scipy.optimize import brentq
    from scipy.special import gammaln

    y = float(y)
    if not math.isfinite(y) or y < GAMMA_MIN * (1.0 - 1e-12):
        raise SpecificationError(
            f"gamma_inverse needs y >= {GAMMA_MIN:.10f}, got {y}"
        )
    target = math.log(y)
    lo = GAMMA_ARGMIN
    if target <= float(gammaln(lo)):
        return lo
    hi = lo + 1.0
    while float(gammaln(hi)) < target:
        hi *= 2.0
    x = brentq(lambda w: float(gammaln(w)) - target, lo, hi, xtol=1e-14, rtol=1e-14)
    return float(x)


#: log gamma at its argmin, the bottom of the inverse table: scipy's
#: gammaln(GAMMA_ARGMIN), written out so that importing leaves scipy unloaded
#: (math.lgamma is 24 ulp off, and every table node depends on these bits)
_LOG_GAMMA_MIN = -0.1214862905358497
#: top of the inverse table in log(y); larger arguments are clipped to it
_LOG_Y_TOP = 1e18
#: nodes of the inverse table
_INVERSE_NODES = 16384
#: Newton slopes are floored here, where the branch flattens into its minimum
_SLOPE_FLOOR = 1e-6


def _newton_log_gamma(w, t, steps):
    """Polish w in place towards log gamma(w) = t on the increasing branch.

    The first step is a Newton step; later ones reuse its slope.  From a
    start good to about 1e-6 relative, two steps reach rounding.
    """
    from scipy.special import digamma, gammaln

    slope = np.maximum(digamma(w), _SLOPE_FLOOR)
    for _ in range(steps):
        step = gammaln(w)
        step -= t
        step /= slope
        w -= step
        np.maximum(w, GAMMA_ARGMIN, out=w)
    return w


@lru_cache(maxsize=1)
def _inverse_table():
    """Nodes w_i of the gamma inverse, uniform in u = log1p(sqrt(log y - log gamma_min)).

    u is linear in w at the flat minimum and about (log log y) / 2 far out,
    so one uniform step serves both ends.  Returns the
    :func:`~oparma.engine.noise._table_lookup` triple (1 / step, w, steps).
    """
    from scipy.special import gammaln

    u_top = math.log1p(math.sqrt(_LOG_Y_TOP - _LOG_GAMMA_MIN))
    h = u_top / (_INVERSE_NODES - 1)
    t = _LOG_GAMMA_MIN + np.expm1(np.arange(_INVERSE_NODES) * h) ** 2
    # start from a dense table in w, then Newton to full precision
    w_dense = GAMMA_ARGMIN + np.geomspace(1e-9, 3e16, 4 * _INVERSE_NODES)
    u_dense = np.log1p(np.sqrt(np.maximum(gammaln(w_dense) - _LOG_GAMMA_MIN, 0.0)))
    w = np.interp(np.log1p(np.sqrt(t - _LOG_GAMMA_MIN)), u_dense, w_dense)
    for _ in range(3):
        w = _newton_log_gamma(w, t, 1)
    w[0] = GAMMA_ARGMIN
    return 1.0 / h, w, np.append(np.diff(w), 0.0)


def gamma_inverse_log(log_y) -> np.ndarray:
    """Vectorized gamma inverse taking log(y) directly.

    Linear interpolation in a cached table of the inverse, uniform in
    u = log1p(sqrt(log y - log gamma_min)) so the node index is computed,
    not searched; then two Newton steps, the second reusing the first's
    slope.  Matches :func:`gamma_inverse` to ~3e-15 relative on
    log y in [log GAMMA_ARGMIN, 700] and to ~1e-9 just above the flat
    minimum, where the inverse itself is ill-conditioned.  Accepts log(y)
    up to 1e18 without forming y; larger arguments are clipped to 1e18.
    """
    log_y = np.asarray(log_y, dtype=float)
    t = np.clip(np.atleast_1d(log_y), _LOG_GAMMA_MIN, _LOG_Y_TOP)
    s = np.sqrt(t - _LOG_GAMMA_MIN)
    np.log1p(s, out=s)
    w = _table_lookup(s, _inverse_table())
    return _newton_log_gamma(w, t, 2).reshape(log_y.shape)


def transform_log_norms(log_norms, moment_kind: str) -> np.ndarray:
    """Apply the moment transform g to samples given as log(||x||).

    log_plus:           max(log x, 0)
    log_plus_log_plus:  log+ applied twice
    gamma_inverse:      inverse gamma of max(x, GAMMA_ARGMIN), evaluated
                        in log space so huge magnitudes stay finite
    """
    ln = np.asarray(log_norms, dtype=float)
    if moment_kind == "log_plus":
        return np.maximum(ln, 0.0)
    if moment_kind == "log_plus_log_plus":
        inner = np.maximum(ln, 0.0)
        return np.where(inner > 1.0, np.log(np.maximum(inner, 1.0)), 0.0)
    if moment_kind == "gamma_inverse":
        arg = np.maximum(ln, math.log(GAMMA_ARGMIN))
        return gamma_inverse_log(arg)
    raise SpecificationError(
        f"unknown moment kind {moment_kind!r}, expected one of {MOMENT_KINDS}"
    )


@dataclass(frozen=True)
class MomentReport:
    moment_kind: str
    n_samples: int
    estimate: float
    standard_error: float
    finite_verdict: str
    diagnostics: dict = field(default_factory=dict)


def _transform_matrix(transform) -> np.ndarray | None:
    if transform is None:
        return None
    if isinstance(transform, Operator):
        return transform.matrix
    m = np.asarray(transform, dtype=complex)
    if m.ndim != 2:
        raise SpecificationError(f"transform must be a matrix, got shape {m.shape}")
    return m


def _octave_table(g: np.ndarray) -> list:
    n = g.shape[0]
    order = np.sort(g)[::-1]
    rows = []
    k = 32
    while k <= n // 8:
        # an order statistic tied with the maximum has no tail above it
        t_stat = k * float(order[k - 1]) / n if order[k - 1] < order[0] else 0.0
        rel = 2.0 / math.sqrt(k)
        rows.append(
            {
                "k": k,
                "tail_coeff": t_stat,
                "lower": t_stat * (1.0 - rel),
                "upper": t_stat * (1.0 + rel),
            }
        )
        k *= 2
    return rows


def moment_estimate(
    spec: NoiseSpec,
    transform=None,
    moment_kind: str = "log_plus",
    n_samples: int = 100_000,
    stream: int = 0,
) -> MomentReport:
    """Estimate E[g(||T Z||)] and judge whether it looks finite.

    The verdict combines (a) the running-mean doubling rule: diverging
    when the estimate grows by more than 20% across each of three
    consecutive sample doublings, finite when the last doubling agrees
    within 3 joint standard errors; and (b) the octave tail coefficient
    (k/n) * g_(k): diverging when the deepest reliable octaves sit
    above THETA_DIVERGING even after a 2-sigma haircut, and the finite
    verdict requires the deepest octave below THETA_FINITE.  Anything
    else is inconclusive.  All intermediate numbers land in
    diagnostics.

    Samples are drawn, log-normed and transformed a
    :data:`.noise.DRAW_CHUNK` at a time into the one n-float array of g
    values; g and the sorted copy the octave table reads are the only
    arrays of n entries.  The transforms act entry by entry, so the chunk
    does not change g (see :func:`.noise.log_magnitude_samples` for the
    Gaussian kinds at entries of 2^500 and above or below 2^-501).  The
    ``transform`` T, any m x d matrix, is taken in power-of-two units too,
    so a T near 1e-300 I shifts the log-norms by log 1e-300 instead of
    sending them to -inf.
    """
    if moment_kind not in MOMENT_KINDS:
        raise SpecificationError(
            f"unknown moment kind {moment_kind!r}, expected one of {MOMENT_KINDS}"
        )
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise SpecificationError(f"need at least 1000 samples, got {n_samples}")
    t_mat = _transform_matrix(transform)
    if t_mat is not None and t_mat.shape[1] != spec.dim:
        raise DimensionMismatchError(
            f"transform has dim {t_mat.shape[1]}, but the noise has dim {spec.dim}"
        )
    g = np.empty(n_samples)
    for lo, logs in log_norm_blocks(spec, n_samples, stream, t_mat):
        g[lo : lo + logs.shape[0]] = transform_log_norms(logs, moment_kind)

    sizes = [n_samples // 8, n_samples // 4, n_samples // 2, n_samples]
    sizes = sorted({s for s in sizes if s >= 2})
    means = [float(np.mean(g[:s])) for s in sizes]
    ses = [float(np.std(g[:s]) / math.sqrt(s)) for s in sizes]

    growing = False
    if len(means) == 4:
        ratios = []
        for a, b in zip(means[:-1], means[1:]):
            ratios.append(b / a if a > 0 else (math.inf if b > 0 else 1.0))
        growing = all(r > GROWTH_FACTOR for r in ratios)

    octaves = _octave_table(g)
    deep = octaves[:3]
    octave_diverging = bool(deep) and all(
        row["lower"] > THETA_DIVERGING for row in deep
    )
    octave_quiet = (not octaves) or octaves[0]["upper"] <= THETA_FINITE

    agree = False
    if len(means) >= 2:
        joint = AGREEMENT_SIGMAS * math.hypot(ses[-1], ses[-2])
        agree = abs(means[-1] - means[-2]) <= joint

    if growing or octave_diverging:
        verdict = "diverging"
    elif agree and octave_quiet:
        verdict = "finite"
    else:
        verdict = "inconclusive"

    return MomentReport(
        moment_kind=moment_kind,
        n_samples=n_samples,
        estimate=means[-1],
        standard_error=ses[-1],
        finite_verdict=verdict,
        diagnostics={
            "sizes": sizes,
            "estimates_by_size": means,
            "standard_errors_by_size": ses,
            "octaves": octaves,
            "growth_rule_fired": growing,
            "octave_rule_fired": octave_diverging,
            "agreement_within_band": agree,
            "theta_diverging": THETA_DIVERGING,
            "theta_finite": THETA_FINITE,
        },
    )
