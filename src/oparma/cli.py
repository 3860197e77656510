"""Command-line front end.

Exit codes: 0 on success (and all checks green), 1 when a mathematical
check fails (circle check negative, scenario or verify checks red,
non-hyperbolic spectrum, a path that leaves the float range), 2 on
usage or input errors (bad flags, missing or invalid files, an ``--out``
path that cannot be written).  Results go to standard output or
``--out``; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .engine.moments import MOMENT_KINDS, moment_estimate
from .engine.noise import NoiseSpec
from .engine.simulate import simulate_ma, simulate_theorem1
from .errors import (
    HyperbolicityError,
    QuadratureError,
    SingularOperatorError,
    SpecificationError,
    UnknownScenarioError,
    WindowError,
)
from .jsonio import (
    circle_payload,
    dumps,
    laurent_payload,
    load_model,
    load_noise,
    load_operator,
    sanitize,
    simulation_csv,
    simulation_payload,
    split_payload,
)
from .laurent import laurent_coeffs, unit_circle_check
from .operators import companion_lift
from .scenarios import certify, list_scenarios, run_scenario
from .spectral import hyperbolic_split

#: errors meaning the input was bad (exit 2)
_USAGE_ERRORS = (SpecificationError, WindowError, UnknownScenarioError)

#: errors meaning the mathematics said no (exit 1); OverflowError is a
#: path or partial sum that left the float range
_CHECK_ERRORS = (
    SingularOperatorError,
    HyperbolicityError,
    QuadratureError,
    OverflowError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oparma",
        description="Operator-coefficient ARMA models: spectral splitting, "
        "Laurent coefficients, stationary-solution simulation, moment "
        "verdicts, and the scenario gallery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("split", help="unit-circle spectral splitting of the AR operator")
    sp.add_argument("--model", required=True, help="model JSON file")
    sp.add_argument("--out", help="write the JSON result here instead of stdout")

    sp = sub.add_parser("laurent", help="Laurent coefficients of the transfer function")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("check-circle", help="denominator invertibility on the unit circle")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("simulate", help="simulate the strictly stationary solution")
    sp.add_argument("--model", required=True)
    sp.add_argument("--noise", required=True, help="noise JSON file")
    sp.add_argument("--t0", type=int, default=0, help="first time index (default 0)")
    sp.add_argument("--t1", type=int, default=199, help="last time index (default 199)")
    sp.add_argument(
        "--method",
        choices=("split", "ma"),
        default="split",
        help="split series (default) or two-sided moving average",
    )
    sp.add_argument("--seed", type=int, help="override the noise file's seed")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out")

    sp = sub.add_parser("moments", help="Monte Carlo moment-condition verdict")
    sp.add_argument("--noise", required=True)
    sp.add_argument(
        "--kind",
        choices=MOMENT_KINDS,
        default="log_plus",
    )
    sp.add_argument("--n-samples", type=int, default=100_000)
    sp.add_argument("--transform", help="JSON file with one operator spec applied to Z")
    sp.add_argument("--seed", type=int, help="override the noise file's seed")
    sp.add_argument("--out")

    sp = sub.add_parser("scenario", help="run one gallery scenario")
    sp.add_argument("name", nargs="?", help="scenario name (omit with --list)")
    sp.add_argument("--list", action="store_true", help="list the catalog and exit")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    sp.add_argument("--out")

    sp = sub.add_parser("verify", help="end-to-end health check of one model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--noise", help="noise JSON file (default: unit gaussian)")
    sp.add_argument("--window", type=int, default=200, help="simulation window length")
    sp.add_argument(
        "--seed", type=int, help="override the noise file's seed (default gaussian: 0)"
    )
    sp.add_argument("--out")

    return parser


def _emit(text: str, out) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise SpecificationError(f"{out}: cannot write: {exc.strerror or exc}") from None
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _load_noise(args, dim=None):
    """The ``--noise`` file, or unit gaussian noise of ``dim``, with ``--seed`` applied."""
    spec = load_noise(args.noise) if args.noise else NoiseSpec("gaussian", dim, {"sigma": 1.0})
    return spec if args.seed is None else dataclasses.replace(spec, seed=args.seed)


def _cmd_split(args) -> int:
    model = load_model(args.model)
    split = hyperbolic_split(companion_lift(model))
    _emit(dumps(split_payload(split)), args.out)
    return 0


def _cmd_laurent(args) -> int:
    lc = laurent_coeffs(load_model(args.model))
    _emit(dumps(laurent_payload(lc)), args.out)
    return 0


def _cmd_check_circle(args) -> int:
    cc = unit_circle_check(load_model(args.model))
    _emit(dumps(circle_payload(cc)), args.out)
    return 0 if cc.passed else 1


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    spec = _load_noise(args)
    if args.t1 < args.t0:
        raise SpecificationError(f"--t1 must be >= --t0, got ({args.t0}, {args.t1})")
    t_range = (args.t0, args.t1)
    if args.method == "split":
        res = simulate_theorem1(model, spec, t_range)
    else:
        res = simulate_ma(model, laurent_coeffs(model), spec, t_range)
    if args.format == "csv":
        print(
            f"method={res.method} K={res.truncation_K} "
            f"max_residual={res.max_residual:.3e} n_clamped={res.noise.n_clamped}",
            file=sys.stderr,
        )
        _emit(simulation_csv(res), args.out)
    else:
        _emit(dumps(simulation_payload(res)), args.out)
    return 0


def _cmd_moments(args) -> int:
    spec = _load_noise(args)
    transform = load_operator(args.transform) if args.transform else None
    rep = moment_estimate(spec, transform, args.kind, args.n_samples)
    _emit(dumps(sanitize(dataclasses.asdict(rep))), args.out)
    return 0


def _parse_override(raw: str):
    """KEY=VALUE as (key, JSON value), or the raw text when it is not JSON."""
    if "=" not in raw:
        raise SpecificationError(f"--set expects KEY=VALUE, got {raw!r}")
    key, text = raw.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return key.strip(), value


def _cmd_scenario(args) -> int:
    if args.list:
        _emit(dumps(sanitize(list(list_scenarios()))), args.out)
        return 0
    if not args.name:
        raise SpecificationError("scenario name required (or use --list)")
    overrides = dict(_parse_override(raw) for raw in args.set)
    rep = run_scenario(args.name, overrides, seed=args.seed)
    _emit(dumps(sanitize(dataclasses.asdict(rep))), args.out)
    return 0 if rep.passed else 1


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    spec = _load_noise(args, model.dim)
    checks, _ = certify(model, spec, args.window - 1, residual_max=1e-8)
    passed = all(c["pass"] for c in checks)
    payload = {"model": str(args.model), "checks": checks, "passed": passed}
    _emit(dumps(sanitize(payload)), args.out)
    return 0 if passed else 1


_HANDLERS = {
    "split": _cmd_split,
    "laurent": _cmd_laurent,
    "check-circle": _cmd_check_circle,
    "simulate": _cmd_simulate,
    "moments": _cmd_moments,
    "scenario": _cmd_scenario,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    """Parse arguments, run the subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help/--version (code 0) and usage errors (2)
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except _CHECK_ERRORS as exc:
        print(f"oparma {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"oparma {args.subcommand}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
