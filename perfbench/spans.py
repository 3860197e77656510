"""Span recorder that wraps oparma's public functions from outside the package.

:class:`Tracer` replaces each function named in :data:`LAYERS` by a wrapper
in its defining module and in every loaded ``oparma`` module that imported
it by name, so a call made through any of those names opens a span.  Spans
live in memory as ``[name, job, parent, start, end, counts]`` lists; nested
calls become child spans, and a span's self time is its duration minus the
durations of its children.  Counts are read from arguments and return
values at the span boundary.  :meth:`Tracer.restore` puts every replaced
attribute back.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

#: oparma module (relative to the package) -> wrapped public functions
LAYERS = {
    "cli": ("main",),
    "jsonio": ("load_model", "load_noise", "simulation_payload", "simulation_csv", "dumps"),
    "operators": ("companion_lift", "apply_batch", "power_log_norm", "structured_log_norm"),
    "spectral": ("riesz_projector", "hyperbolic_split", "check_split"),
    "laurent": ("unit_circle_check", "laurent_coeffs"),
    "engine.noise": ("sample_path",),
    "engine.simulate": (
        "build_split_kernel",
        "simulate_theorem1",
        "simulate_ma",
        "recursion_residual",
        "plim_probe",
        "partial_sum_quantiles",
        "stationarity_ks",
    ),
    "engine.moments": ("moment_estimate",),
    "scenarios": ("run_scenario",),
}


def _noise_counts(args, kwargs, res):
    return {"draws": len(res), "clamped": int(res.n_clamped)}


def _riesz_counts(args, kwargs, res):
    return {"nodes": int(res[1])}


def _split_counts(args, kwargs, res):
    return {"margin": float(res.diagnostics["hyperbolicity_margin"])}


def _laurent_counts(args, kwargs, res):
    return {
        "nodes": int(res.n_quad),
        "coeffs": int(res.k_max - res.k_min + 1),
        "recon_residual": float(res.reconstruction_residual),
    }


def _kernel_counts(args, kwargs, res):
    return {"lags": int(res[0].psis.shape[0])}


def _theorem1_counts(args, kwargs, res):
    # the split kernel reaches K lags to each side of the window
    return {
        "needed": len(res) + 2 * int(res.truncation_K),
        "sampled": len(res.noise),
        "residual": float(res.max_residual),
    }


def _ma_counts(args, kwargs, res):
    coeffs = kwargs["coeffs"] if "coeffs" in kwargs else args[1]
    return {
        "needed": len(res) + int(coeffs.k_max - coeffs.k_min),
        "sampled": len(res.noise),
        "residual": float(res.max_residual),
    }


def _moment_counts(args, kwargs, res):
    return {"samples": int(res.n_samples)}


def _bytes_counts(args, kwargs, res):
    # dumps escapes to ASCII and the CSV holds only ASCII, so len is bytes
    return {"bytes_out": len(res)}


COUNTS = {
    "engine.noise.sample_path": _noise_counts,
    "spectral.riesz_projector": _riesz_counts,
    "spectral.hyperbolic_split": _split_counts,
    "laurent.laurent_coeffs": _laurent_counts,
    "engine.simulate.build_split_kernel": _kernel_counts,
    "engine.simulate.simulate_theorem1": _theorem1_counts,
    "engine.simulate.simulate_ma": _ma_counts,
    "engine.moments.moment_estimate": _moment_counts,
    "jsonio.dumps": _bytes_counts,
    "jsonio.simulation_csv": _bytes_counts,
}

#: per-layer metrics beyond calls/total_s/self_s: name -> (unit, better)
EXTRA_METRICS = {
    "spectral.riesz_projector.nodes": ("count", "lower"),
    "laurent.laurent_coeffs.nodes": ("count", "lower"),
    "laurent.laurent_coeffs.coeffs": ("count", "lower"),
    "engine.noise.sample_path.draws": ("count", "lower"),
    "engine.noise.sample_path.clamped": ("count", "lower"),
    "engine.simulate.build_split_kernel.lags": ("count", "lower"),
    "engine.simulate.useful_draw_ratio": ("ratio", "higher"),
    "engine.moments.moment_estimate.samples": ("count", "lower"),
    "jsonio.bytes_out": ("B", "lower"),
    "laurent.recon_residual_max": ("dimensionless", "lower"),
    "engine.simulate.residual_max": ("dimensionless", "lower"),
    "spectral.margin_min": ("dimensionless", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for name in span_names():
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.total_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    specs += [(name, unit, better) for name, (unit, better) in EXTRA_METRICS.items()]
    return specs


class Tracer:
    """Patches the functions in :data:`LAYERS` and records their spans."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self.job, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "oparma" or n.startswith("oparma.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"oparma.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for module in loaded:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, job, parent, start, end, counts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "job": job, "parent": parent,
                       "start": start, "end": end}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def self_times(spans, first: int = 0) -> list:
    """Duration minus children's durations, for each span from ``first`` on.

    The spans from ``first`` on must not have a parent before ``first``.
    """
    own = [end - start for _, _, _, start, end, _ in spans[first:]]
    for _, _, parent, start, end, _ in spans[first:]:
        if parent is not None:
            own[parent - first] -= end - start
    return own


def layer_metrics(spans, first: int = 0) -> dict:
    """Per-function calls, total and self time, counts and health numbers,
    over the spans from ``first`` on."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    counts = {}  # "span name.count name" -> values in call order
    for span, own in zip(spans[first:], self_times(spans, first)):
        name, _, _, start, end, found = span
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += own
        for key, value in (found or {}).items():
            counts.setdefault(f"{name}.{key}", []).append(value)

    def total(*keys):
        return sum(sum(counts.get(k, ())) for k in keys)

    for key in EXTRA_METRICS:
        if key.rsplit(".", 1)[0] in COUNTS:
            out[key] = total(key)
    sims = ("engine.simulate.simulate_theorem1", "engine.simulate.simulate_ma")
    sampled = total(*(f"{s}.sampled" for s in sims))
    needed = total(*(f"{s}.needed" for s in sims))
    out["engine.simulate.useful_draw_ratio"] = needed / sampled if sampled else 0.0
    out["jsonio.bytes_out"] = total("jsonio.dumps.bytes_out", "jsonio.simulation_csv.bytes_out")
    recon = counts.get("laurent.laurent_coeffs.recon_residual", ())
    residuals = [r for s in sims for r in counts.get(f"{s}.residual", ()) if not math.isnan(r)]
    margins = counts.get("spectral.hyperbolic_split.margin", ())
    out["laurent.recon_residual_max"] = max(recon, default=0.0)
    out["engine.simulate.residual_max"] = max(residuals, default=0.0)
    out["spectral.margin_min"] = min(margins, default=0.0)
    return out
