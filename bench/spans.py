"""Tracing from outside the program: wrappers at every binding site of the
public functions of each hormspace module, spans kept in memory, and the
per-layer metrics derived from them.

A span is ``[name, parent_index, invocation, start, end, attrs]``, where
attrs is None or a dict of counts recorded at that boundary.  Spans of
one CLI invocation share ``invocation``.  A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from time import perf_counter as _clock

LAYERS = (
    "class_m",
    "spectra",
    "gridio",
    "plus_spaces",
    "interpolation",
    "parabolicity",
    "model_problem",
    "embedding",
)

# Per-point kernels called from inside an optimizer's objective or a
# quadrature integrand.  Wrapped, they would record a quarter of a million
# spans per pass and move their time out of the check that calls them, so they
# stay unwrapped and count in their caller's self time.
INNER_KERNELS = {"parabolicity.symbol_eval", "embedding.radial_integrand"}

# Span names each workload must record at least once per traced pass.  A
# rename in the program that silently unhooks a wrapper trips this guard.
COVERAGE = {
    "symbol_verdicts": (
        "cli",
        "parabolicity.petrovskii_check",
        "parabolicity.covering_check",
        "parabolicity.root_split",
        "embedding.radial_reduction_check",
        "embedding.sharpness_demo",
        "embedding.criterion_partial",
        "embedding.derivative_weight_sum",
        "class_m.eval_phi",
        "class_m.eval_phi_of_exp",
    ),
    "model_estimates": (
        "cli",
        "parabolicity.petrovskii_check",
        "plus_spaces.setup_slab",
        "plus_spaces.solve",
        "model_problem.operator_init",
        "model_problem.solve_periodic",
        "model_problem.synthesize_forcing",
        "model_problem.two_sided_ratio",
        "model_problem.regularity_inheritance_check",
        "spectra.hnorm",
        "spectra.weight_array",
        "spectra.r_gamma_array",
    ),
    "lattice_norms": (
        "cli",
        "plus_spaces.setup_dense",
        "plus_spaces.setup_slab",
        "plus_spaces.solve",
        "spectra.hnorm",
        "spectra.weight_array",
        "spectra.r_gamma_array",
        "spectra.dft",
        "spectra.idft",
        "class_m.eval_phi",
        "interpolation.verify_lemma71",
        "interpolation.interp_norm",
        "interpolation.direct_sum_interp_check",
        "gridio.load_grid",
    ),
}


class CoverageError(RuntimeError):
    """A span the workload must exercise recorded no calls."""


# -- observers: run the wrapped call and attach counts to its span ------------


def _lattice_points(rec, fn, args, kwargs):
    result = fn(*args, **kwargs)
    rec[5] = {"fft_points": args[0].lattice.size}
    return result


def _petrovskii(rec, fn, args, kwargs):
    verdict = fn(*args, **kwargs)
    rec[5] = {"n_evaluated": verdict.n_evaluated}
    return verdict


def _covering(rec, fn, args, kwargs):
    frames = args[2] if len(args) > 2 else kwargs["frames"]
    rec[5] = {"frames": len(frames)}
    return fn(*args, **kwargs)


def _duhamel(rec, fn, args, kwargs):
    lat = (args[1] if len(args) > 1 else kwargs["f"]).lattice
    # one exponential-quadrature update per spatial mode and step after t = 0
    rec[5] = {"duhamel_steps": lat.n_x**lat.k * (lat.n_t - 1 - lat.n_t // 2)}
    return fn(*args, **kwargs)


def _load_grid(rec, fn, args, kwargs):
    rec[5] = {"bytes_read": os.path.getsize(args[0])}
    return fn(*args, **kwargs)


def _radial(cache):
    def observe(rec, fn, args, kwargs):
        before = len(cache)
        result = fn(*args, **kwargs)
        rec[5] = {"calibration_hit": int(len(cache) == before)}
        return result

    return observe


def _solver_init(cond_limit):
    def observe(rec, fn, args, kwargs):
        solver = args[0]
        fn(*args, **kwargs)
        rec[0] = "plus_spaces.setup_slab" if solver.slab else "plus_spaces.setup_dense"
        n_free = int(solver.free_mask.sum())
        cond = getattr(solver, "max_cond", None)
        rec[5] = {
            "n_free": n_free,
            "dense_matrix_bytes": 0 if solver.slab else n_free * n_free * 16,
            "max_cond": 0.0 if cond is None else cond,
            "ridge_fired": int(cond is not None and not cond <= cond_limit),
        }

    return observe


class Tracer:
    """Installs span-recording wrappers into the imported hormspace modules
    and removes them again; spans accumulate in ``self.spans``."""

    def __init__(self):
        self.spans = []
        self.invocation = -1
        self._stack = []
        self._patches = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1, self.invocation, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = _clock()
        return rec

    def close(self, rec: list) -> None:
        rec[4] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(rec, fn, args, kwargs)
            finally:
                tracer.close(rec)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer but the inner kernels,
        wherever a module binds it (``from .spectra import hnorm`` makes a
        second binding site), plus the plus-norm solver's setup and solve and
        the operator constructor."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("hormspace")]
        modules += [importlib.import_module(f"hormspace.{m}") for m in LAYERS + ("cli",)]
        plus_spaces = importlib.import_module("hormspace.plus_spaces")
        embedding = importlib.import_module("hormspace.embedding")
        model_problem = importlib.import_module("hormspace.model_problem")
        observers = {
            "spectra.hnorm": _lattice_points,
            "spectra.dft": _lattice_points,
            "spectra.idft": _lattice_points,
            "parabolicity.petrovskii_check": _petrovskii,
            "parabolicity.covering_check": _covering,
            "model_problem.solve_periodic": _duhamel,
            "gridio.load_grid": _load_grid,
            "embedding.radial_reduction_check": _radial(embedding._CALIBRATION_CACHE),
        }
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"hormspace.{layer}")
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                name = f"{layer}.{fname}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in INNER_KERNELS:
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, observers.get(name)))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        solver = plus_spaces.PlusNormSolver
        self._patch(solver, "__init__", self.wrap(
            "plus_spaces.setup", solver.__init__, _solver_init(plus_spaces._COND_LIMIT)))
        self._patch(solver, "solve", self.wrap("plus_spaces.solve", solver.solve))
        op = model_problem.PeriodicParabolicOperator
        self._patch(op, "__post_init__", self.wrap("model_problem.operator_init", op.__post_init__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- aggregation ------------------------------------------------------------


class _Agg:
    __slots__ = ("calls", "total", "self_s", "attrs", "maxima")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.attrs = {}
        self.maxima = {}


def aggregate(spans, first: int = 0) -> dict:
    """Per span name over ``spans[first:]``: calls, total time, self time,
    summed and maximal attrs.  Parent indices index the whole list."""
    spans = spans[first:]
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child[rec[1] - first] += rec[4] - rec[3]
    out = {}
    for i, rec in enumerate(spans):
        agg = out.get(rec[0])
        if agg is None:
            agg = out[rec[0]] = _Agg()
        dur = rec[4] - rec[3]
        agg.calls += 1
        agg.total += dur
        agg.self_s += dur - child[i]
        for key, val in (rec[5] or {}).items():
            agg.attrs[key] = agg.attrs.get(key, 0) + val
            agg.maxima[key] = max(agg.maxima.get(key, val), val)
    return out


def check_coverage(workload: str, agg: dict) -> None:
    missing = [name for name in COVERAGE[workload] if name not in agg]
    if missing:
        raise CoverageError(
            f"workload {workload!r} recorded no calls of {', '.join(missing)}; "
            "a wrapper no longer reaches the program (renamed or rebound function?)"
        )


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of one traced pass (0 where a layer did not run)."""
    empty = _Agg()

    def a(name):
        return agg.get(name, empty)

    setups = a("plus_spaces.setup_slab").calls + a("plus_spaces.setup_dense").calls
    setup_aggs = (a("plus_spaces.setup_slab"), a("plus_spaces.setup_dense"))
    radial = a("embedding.radial_reduction_check")
    fft = sum(a(f"spectra.{f}").attrs.get("fft_points", 0) for f in ("hnorm", "dft", "idft"))
    return {
        "parabolicity.petrovskii_check.calls": a("parabolicity.petrovskii_check").calls,
        "parabolicity.petrovskii_check.self_s": a("parabolicity.petrovskii_check").self_s,
        "parabolicity.petrovskii_check.n_evaluated": a("parabolicity.petrovskii_check").attrs.get("n_evaluated", 0),
        "parabolicity.covering_check.self_s": a("parabolicity.covering_check").self_s,
        "parabolicity.covering_check.frames": a("parabolicity.covering_check").attrs.get("frames", 0),
        "parabolicity.root_split.calls": a("parabolicity.root_split").calls,
        "parabolicity.root_split.self_s": a("parabolicity.root_split").self_s,
        "embedding.radial_reduction_check.calls": radial.calls,
        "embedding.radial_reduction_check.self_s": radial.self_s,
        "embedding.calibration_hit_ratio": radial.attrs.get("calibration_hit", 0) / radial.calls if radial.calls else 0.0,
        "embedding.sharpness_demo.self_s": a("embedding.sharpness_demo").self_s,
        "embedding.criterion_partial.self_s": a("embedding.criterion_partial").self_s,
        "embedding.derivative_weight_sum.self_s": a("embedding.derivative_weight_sum").self_s,
        "plus_spaces.setup_slab.calls": a("plus_spaces.setup_slab").calls,
        "plus_spaces.setup_slab.self_s": a("plus_spaces.setup_slab").self_s,
        "plus_spaces.setup_dense.calls": a("plus_spaces.setup_dense").calls,
        "plus_spaces.setup_dense.self_s": a("plus_spaces.setup_dense").self_s,
        "plus_spaces.solve.calls": a("plus_spaces.solve").calls,
        "plus_spaces.solve.self_s": a("plus_spaces.solve").self_s,
        "plus_spaces.solves_per_setup": a("plus_spaces.solve").calls / setups if setups else 0.0,
        "plus_spaces.n_free_max": a("plus_spaces.setup_dense").maxima.get("n_free", 0),
        "plus_spaces.dense_matrix_bytes": a("plus_spaces.setup_dense").maxima.get("dense_matrix_bytes", 0),
        "plus_spaces.max_cond": max(s.maxima.get("max_cond", 0.0) for s in setup_aggs),
        "plus_spaces.ridge_fired": sum(s.attrs.get("ridge_fired", 0) for s in setup_aggs),
        "model_problem.operator_init.total_s": a("model_problem.operator_init").total,
        "model_problem.solve_periodic.calls": a("model_problem.solve_periodic").calls,
        "model_problem.solve_periodic.self_s": a("model_problem.solve_periodic").self_s,
        "model_problem.duhamel_steps": a("model_problem.solve_periodic").attrs.get("duhamel_steps", 0),
        "model_problem.synthesize_forcing.self_s": a("model_problem.synthesize_forcing").self_s,
        "model_problem.two_sided_ratio.self_s": a("model_problem.two_sided_ratio").self_s,
        "model_problem.regularity_inheritance_check.self_s": a("model_problem.regularity_inheritance_check").self_s,
        "spectra.hnorm.calls": a("spectra.hnorm").calls,
        "spectra.hnorm.self_s": a("spectra.hnorm").self_s,
        "spectra.weight_array.self_s": a("spectra.weight_array").self_s,
        "spectra.r_gamma_array.self_s": a("spectra.r_gamma_array").self_s,
        "spectra.dft.self_s": a("spectra.dft").self_s,
        "spectra.idft.self_s": a("spectra.idft").self_s,
        "spectra.fft_points": fft,
        "class_m.eval_phi.calls": a("class_m.eval_phi").calls,
        "class_m.eval_phi.self_s": a("class_m.eval_phi").self_s,
        "class_m.eval_phi_of_exp.self_s": a("class_m.eval_phi_of_exp").self_s,
        "interpolation.verify_lemma71.calls": a("interpolation.verify_lemma71").calls,
        "interpolation.interp_norm.self_s": a("interpolation.interp_norm").self_s,
        "interpolation.direct_sum_interp_check.self_s": a("interpolation.direct_sum_interp_check").self_s,
        "gridio.load_grid.self_s": a("gridio.load_grid").self_s,
        "gridio.bytes_read": a("gridio.load_grid").attrs.get("bytes_read", 0),
        "cli.self_s": a("cli").self_s,
    }


_RATIOS = ("calibration_hit_ratio", "solves_per_setup", "max_cond", "failed_frac")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes") or metric.endswith("bytes_read"):
        return "bytes"
    if metric.endswith(_RATIOS):
        return "ratio"
    return "count"


def median_metrics(per_pass: list) -> dict:
    """Median over passes of each metric; counts repeat exactly across passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
