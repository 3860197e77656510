"""Benchmark of the oparma command line, end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The run writes the workload's input files from ``--seed``, times fresh
interpreters importing ``oparma.cli`` (``setup_s``), runs the job list once
to warm up and check every output, then repeats the job list until
``--seconds`` have been measured.  Every later repetition must reproduce
the checked outputs byte for byte.  Repetition times are reported at the
speed of a reference machine (see ``reference.py``).  With ``--trace 1``
the repetitions alternate between untraced and traced ones, and the
per-layer metrics come from the traced ones.  The last line of standard
output is the result as one JSON object; work files go to
``perfbench/_work``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: fresh-interpreter imports timed for setup_s (after one untimed import
#: that may compile bytecode)
SETUP_REPEATS = 5
#: timed repetitions of the job list (pairs of them when traced), at least,
#: whatever --seconds says
MIN_REPS = 3
MIN_TRACE_PAIRS = 1
BLAS_THREADS = 1

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def _pin_blas_threads() -> int:
    """Run BLAS on one thread; return the number of usable cores.

    On a shared virtual machine a second BLAS thread waits whenever the host
    lends its core elsewhere, which made job times swing by 2x from one
    minute to the next; one thread keeps the load to one core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def measure_setup(repeats: int) -> list:
    """Wall times of fresh interpreters importing oparma.cli from the checkout."""
    code = (
        "import sys, oparma.cli; "
        "sys.exit(0 if oparma.cli.__file__.startswith(sys.argv[1]) else 3)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"importing oparma.cli from {SRC} failed: {proc.stderr[-500:]}")
        if i:
            times.append(elapsed)
    return times


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def environment(args, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs one workload's job list, checks outputs and keeps the timings."""

    def __init__(self, jobs, cli, normalize):
        self.jobs = jobs
        self.cli = cli
        self.normalize = normalize
        self.digests = {}
        self.attempted = 0
        self.failures = []  # (rep, job name, problem, known)
        self.job_times = {job.name: [] for job in jobs}
        self.peak_after = {}  # peak resident set after a job's first run, MB

    def _call(self, job):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(job.argv))
        except Exception:  # a raising job is a failed job; the run goes on
            rc = None
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()

    def _judge(self, job, rc, out, err):
        """Full check on first sight; afterwards the output must not change."""
        if rc is None:
            return f"raised: {err.strip().splitlines()[-1] if err.strip() else '?'}"
        key = hashlib.sha256(f"{rc}\n{self.normalize(job, out)}".encode()).hexdigest()
        if job.name not in self.digests:
            self.digests[job.name] = (key, job.check(rc, out, err))
        first, problem = self.digests[job.name]
        if key != first:
            return "output differs from the first repetition"
        return problem

    def rep(self, rep_id, kernel, tracer=None) -> tuple:
        """One pass over the job list.

        Returns the summed job wall time, raw and at reference speed, with
        a slice of ``kernel`` run before the first job and after each job.
        """
        raw = 0.0
        slices = [kernel.slice()]
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{rep_id}:{job.name}"
            elapsed, rc, out, err = self._call(job)
            slices.append(kernel.slice())
            _trim_heap()
            raw += elapsed
            self.job_times[job.name].append(elapsed)
            self.peak_after.setdefault(job.name, _peak_rss_mb())
            self.attempted += 1
            problem = self._judge(job, rc, out, err)
            del out, err
            if problem is not None:
                self.failures.append((rep_id, job.name, problem, job.known_failure))
        return raw, kernel.scale(raw, slices)


def _trim_heap() -> None:
    """Hand freed heap memory back to the system between jobs.

    Without it, the holes one job leaves decide where the next job's arrays
    land, and the peak resident set after the same jobs differed by 9 %
    from run to run.
    """
    ctypes.CDLL(None).malloc_trim(0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _enough(times, start, seconds, minimum) -> bool:
    elapsed = time.perf_counter() - start
    if len(times) < minimum:
        return False
    return elapsed + statistics.median(times) > seconds


def run(args) -> int:
    if not (SRC / "oparma" / "cli.py").is_file():
        print(f"perfbench: no oparma source under {SRC}", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import inputs
    import spans
    import workloads
    from reference import ReferenceKernel

    setup = measure_setup(1 if args.scale == "tiny" else SETUP_REPEATS)
    kernel = ReferenceKernel()
    import oparma.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: oparma imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args, nproc)

    writer = inputs.InputWriter(WORK / f"inputs-{args.workload}-{args.seed}", args.seed)
    jobs = workloads.WORKLOADS[args.workload](writer, args.scale)
    runner = Runner(jobs, cli, workloads.normalize)
    runner.rep("warmup", kernel)
    # one pass in a fresh process is what a CLI user meets
    peak_rss_mb = _peak_rss_mb()

    # (raw, scaled) job-list times of the untraced and traced repetitions
    plain, traced, layer_runs = [], [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    i = 0
    if args.trace:
        pairs = []
        while not _enough(pairs, start, args.seconds, MIN_TRACE_PAIRS):
            i += 1
            plain.append(runner.rep(f"r{i}", kernel))
            first_span = len(tracer.spans)
            with tracer:
                traced.append(runner.rep(f"t{i}", kernel, tracer))
            layer_runs.append(spans.layer_metrics(tracer.spans, first_span))
            pairs.append(plain[-1][0] + traced[-1][0])
    else:
        while not _enough([p[0] for p in plain], start, args.seconds, MIN_REPS):
            i += 1
            plain.append(runner.rep(f"r{i}", kernel))

    unexpected = [f for f in runner.failures if not f[3]]
    failed = len(runner.failures)
    if args.trace:
        metrics = {}
        for name, unit, _ in spans.metric_specs():
            if name == "trace.overhead_s":
                value = statistics.median(t[1] for t in traced) - statistics.median(
                    p[1] for p in plain
                )
            else:
                value = statistics.median(run_[name] for run_ in layer_runs)
            metrics[name] = {"value": value, "unit": unit}
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(WORK / f"trace-{args.workload}.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p[1] for p in plain),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - failed / runner.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    _report(args, env, runner, metrics, plain, traced, failed)
    result = {
        "correct": not unexpected,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    record = dict(result, environment=env, setup_samples=setup, wall_samples=plain,
                  reference_slices=kernel.samples,
                  traced_wall_samples=traced,
                  job_median_s={k: statistics.median(v) for k, v in runner.job_times.items()},
                  peak_rss_mb_after_first_run=runner.peak_after,
                  failures=runner.failures)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


def _report(args, env, runner, metrics, plain, traced, failed) -> None:
    """Human-readable summary, printed before the result line."""
    print(f"# oparma benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# environment: " + json.dumps(env))
    print(f"# {len(runner.jobs)} jobs x {len(plain) + len(traced) + 1} passes "
          f"(1 warm-up, {len(plain)} untraced, {len(traced)} traced)")
    for name, times in runner.job_times.items():
        print(f"#   {name:34s} median {statistics.median(times):9.4f} s")
    for rep, job, problem, known in runner.failures[: 2 * len(runner.jobs)]:
        tag = "known failure" if known else "FAILED"
        print(f"#   {tag}: {rep} {job}: {problem}")
    if args.trace:
        selfs = sorted(((v["value"], k) for k, v in metrics.items() if k.endswith(".self_s")),
                       reverse=True)
        for value, name in selfs[:8]:
            print(f"#   self time {name:44s} {value:9.4f} s")
        print(f"#   trace.overhead_s {metrics['trace.overhead_s']['value']:.4f} s")
    else:
        for name, m in metrics.items():
            print(f"#   {name:12s} {m['value']:12.4f} {m['unit']}")
        print(f"#   {'fail_frac':12s} {failed / runner.attempted:12.4f} ratio")
        print(f"#   wall_s is at reference speed; the raw median is "
              f"{statistics.median(p[0] for p in plain):.4f} s")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "long_path", "monte_carlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
