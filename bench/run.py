"""Benchmark of the hormspace command-line verdicts.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload is a seeded list of
CLI invocations (see workloads.py).  The list runs in this one process as a
closed loop with a single client: ``hormspace.cli.main(argv)`` is called,
its report captured and checked, and only then is the next invocation
started.  Whole passes over the list repeat for about ``--seconds``.

``--trace 0`` times every invocation with no tracing and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced passes with passes
traced by spans.py and reports the per-layer metrics, the untraced
per-command times and the tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the full run record
(environment, input sizes, report digests, spans) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads, so the dense
# Cholesky and the FFTs measure the program rather than the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3


def _import_program():
    """Import the program from this checkout's src/ and nowhere else."""
    if not (SRC / "hormspace" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source at {SRC / 'hormspace'}")
    sys.path.insert(0, str(SRC))
    import hormspace
    import hormspace.cli

    if Path(hormspace.__file__).resolve().parent != (SRC / "hormspace").resolve():
        raise ImportError(f"hormspace imported from {hormspace.__file__}, not {SRC}")
    # modules the program imports lazily; a CLI user pays for them once
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    return hormspace


def reset_program_caches(program_modules) -> None:
    """Empty module-level caches, so every invocation pays what a fresh
    ``hormspace`` process pays."""
    for mod in program_modules:
        for name, val in list(vars(mod).items()):
            if "cache" in name.lower() and isinstance(val, dict):
                val.clear()
            elif callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


class Runner:
    """Executes cases against ``hormspace.cli.main`` and checks each report."""

    def __init__(self, hormspace, tracer=None):
        self.hormspace = hormspace
        self.cli = hormspace.cli
        self.modules = [m for n, m in sys.modules.items() if n == "hormspace" or n.startswith("hormspace.")]
        self.tracer = tracer

    def invoke(self, case) -> dict:
        reset_program_caches(self.modules)
        out, err = io.StringIO(), io.StringIO()
        problems = []
        code = None
        span = None
        if self.tracer is not None:
            self.tracer.invocation += 1
            span = self.tracer.open("cli")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(case.argv))
        except Exception:  # an invocation that raises is a failed invocation
            problems.append("raised: " + traceback.format_exc(limit=-4))
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
        text = out.getvalue()
        if code is not None and code != case.expect_code:
            problems.append(f"exit code {code}, expected {case.expect_code}")
        if not text:
            problems.append("no report; stderr: " + err.getvalue().strip()[-300:])
        else:
            try:
                problems += case.check(json.loads(text))
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"report unreadable by its check: {exc!r}")
        return {
            "seconds": elapsed,
            "code": code,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "problems": problems,
        }

    def run_pass(self, cases) -> list:
        return [self.invoke(c) for c in cases]

    def traced_pass(self, cases, workload: str):
        """One pass with the wrappers installed; returns the results and the
        pass's span aggregate, after the coverage guard has checked it."""
        start = len(self.tracer.spans)
        self.tracer.install()
        try:
            results = self.run_pass(cases)
        finally:
            self.tracer.uninstall()
        agg = spans.aggregate(self.tracer.spans, start)
        spans.check_coverage(workload, agg)
        return results, agg


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    with contextlib.suppress(KeyError, TypeError, AttributeError):  # optional build metadata
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
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
    return "unknown"


def setup(workload: str, seed: int, runner: Runner, work_dir: Path):
    """Generate the inputs and warm every command of the workload on a tiny
    input of the same shape; returns the cases and the warm-up results."""
    cases = workloads.build(workload, seed, work_dir / "inputs")
    warm = workloads.warmups(workload, seed, work_dir / "warmup")
    results = runner.run_pass(warm)
    return cases, [(c.label, r["problems"]) for c, r in zip(warm, results) if r["problems"]]


def case_medians(samples) -> list:
    """Median seconds of each case over its untraced invocations."""
    return [statistics.median(r["seconds"] for r in results) for results in samples]


def command_times(cases, seconds) -> dict:
    times = dict.fromkeys(workloads.TIMED_COMMANDS.values(), 0.0)
    for case, sec in zip(cases, seconds):
        key = workloads.TIMED_COMMANDS.get(case.command)
        if key is not None:
            times[key] += sec
    return times


def end_to_end_metrics(samples, setup_s) -> dict:
    """name -> (value, unit).  wall_s is the invocation list's time, each
    invocation counted at its median over the run."""
    return {
        "wall_s": (sum(case_medians(samples)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer_metrics(cases, samples, traced_aggs, traced) -> dict:
    """Layer metrics from the traced passes, per-command times from the
    untraced invocations, and the tracing overhead between the two:
    name -> (value, unit)."""
    untraced = case_medians(samples)
    layer = spans.median_metrics([spans.layer_metrics(agg) for agg in traced_aggs])
    metrics = {k: (v, spans.unit_of(k)) for k, v in {**layer, **command_times(cases, untraced)}.items()}
    traced_wall = statistics.median(sum(r["seconds"] for r in p) for p in traced)
    metrics["trace_overhead_s"] = (traced_wall - sum(untraced), "s")
    return metrics


def measure(runner, cases, seconds: float, tracer=None, workload: str = ""):
    """Run the cases for about ``seconds``; returns the untraced results of
    each case, the traced passes and their span aggregates."""
    samples = [[] for _ in cases]
    traced, traced_aggs = [], []
    t_begin = time.perf_counter()

    def fits(estimate: float) -> bool:
        return time.perf_counter() - t_begin + estimate <= seconds

    if tracer is None:
        # cycle through the list until the next invocation would overrun
        i = 0
        while i < len(cases) or fits(samples[i % len(cases)][-1]["seconds"]):
            samples[i % len(cases)].append(runner.invoke(cases[i % len(cases)]))
            i += 1
        return samples, traced, traced_aggs

    # alternate untraced and traced passes, at least one of each
    traced_runner = Runner(runner.hormspace, tracer)
    longest = 0.0
    while not traced or fits(longest):
        t0 = time.perf_counter()
        if len(samples[0]) > len(traced):
            results, agg = traced_runner.traced_pass(cases, workload)
            traced.append(results)
            traced_aggs.append(agg)
        else:
            for results, res in zip(samples, runner.run_pass(cases)):
                results.append(res)
        longest = max(longest, time.perf_counter() - t0)
    return samples, traced, traced_aggs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        hormspace = _import_program()
    except (ImportError, OSError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    try:
        runner = Runner(hormspace)
        setup_runs = []
        warm_problems = []
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cases, problems = setup(args.workload, args.seed, runner, work_dir / str(rep))
            setup_runs.append(time.perf_counter() - t0)
            warm_problems += problems
        samples, traced, traced_aggs = measure(runner, cases, args.seconds, tracer, args.workload)
    except spans.CoverageError as exc:
        print(f"bench: coverage guard: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    per_case = [results + [p[i] for p in traced] for i, results in enumerate(samples)]
    attempted = sum(map(len, per_case))
    failures = [(c.label, r["problems"]) for c, rs in zip(cases, per_case) for r in rs if r["problems"]]
    failures += [("warm-up " + label, problems) for label, problems in warm_problems]
    # the same argv must give byte-identical reports every time
    nondeterministic = [c.label for c, rs in zip(cases, per_case) if len({r["digest"] for r in rs}) != 1]
    failed = sum(1 for rs in per_case for r in rs if r["problems"])

    if tracer is None:
        metrics = end_to_end_metrics(samples, import_s + statistics.median(setup_runs))
    else:
        metrics = per_layer_metrics(cases, samples, traced_aggs, traced)
        metrics["failed_frac"] = (failed / attempted, "ratio")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup": {"import_s": import_s, "generate_and_warm_s": setup_runs},
        "cases": [
            {
                "label": c.label,
                "argv": [Path(a).name if a.startswith(str(work_dir)) else a for a in c.argv],
                "expect_code": c.expect_code,
                "sizes": c.sizes,
                "digest": samples[i][0]["digest"],
                "seconds_untraced": [r["seconds"] for r in samples[i]],
                "seconds_traced": [p[i]["seconds"] for p in traced],
            }
            for i, c in enumerate(cases)
        ],
        "failures": failures,
        "nondeterministic": nondeterministic,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": tracer.spans if tracer else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    for case in record["cases"]:
        times = ", ".join(f"{t:.3f}" for t in case["seconds_untraced"])
        print(f"{case['label']:32s} exit {case['expect_code']}  {times} s  {case['sizes']}")
    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for label in nondeterministic:
        print(f"NONDETERMINISTIC {label}")
    print(json.dumps({"environment": record["environment"], "record": str(record_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": not failures and not nondeterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
