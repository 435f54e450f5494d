"""The span names the benchmark's coverage guard requires must exist in the
program, so a deleted or renamed traced function fails here rather than only
as the traced benchmark's coverage exit."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import scattered_16x32
from hormspace import cli, model_problem, plus_spaces
from hormspace.spectra import AnisotropicIndex

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS_PY = BENCH / "spans.py"

# Spans the tracer records from a class hook rather than a module function:
# the plus-norm solver's setup (named by the path it took) and solve, and
# the operator constructor.
CLASS_HOOKS = {
    "plus_spaces.setup_slab": (plus_spaces.PlusNormSolver, "__init__"),
    "plus_spaces.setup_dense": (plus_spaces.PlusNormSolver, "__init__"),
    "plus_spaces.solve": (plus_spaces.PlusNormSolver, "solve"),
    "model_problem.operator_init": (model_problem.PeriodicParabolicOperator, "__post_init__"),
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    # workloads.py defines dataclasses, which look their module up by name
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["model_estimates", "lattice_norms"])
def test_traced_workload_records_every_coverage_span(tmp_path, capsys, monkeypatch, workload):
    # one tiny traced pass, as the traced benchmark runs it: a function the
    # tracer no longer reaches fails here, not only as the benchmark's exit 3
    spans = _load_spans()
    cases = _load_workloads(monkeypatch).build(workload, 7, tmp_path, scale="tiny")
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = []
        for case in cases:
            tracer.invocation += 1
            rec = tracer.open("cli")
            try:
                codes.append(cli.main(list(case.argv)))
            finally:
                tracer.close(rec)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [case.expect_code for case in cases]
    spans.check_coverage(workload, spans.aggregate(tracer.spans))


def test_coverage_spans_name_public_functions():
    spans = _load_spans()
    names = {name for required in spans.COVERAGE.values() for name in required}
    unknown = []
    for name in sorted(names - {"cli"}):
        if name in CLASS_HOOKS:
            owner, attr = CLASS_HOOKS[name]
            if not inspect.isfunction(vars(owner).get(attr)):
                unknown.append(name)
            continue
        layer, fname = name.split(".")
        mod = importlib.import_module(f"hormspace.{layer}")
        fn = getattr(mod, fname, None)
        if fname not in mod.__all__ or not inspect.isfunction(fn):
            unknown.append(name)
    assert not unknown, f"bench coverage names no public function: {unknown}"


@pytest.mark.parametrize("slab", [True, False])
def test_solver_setup_hook_reads_solver_attributes(slab):
    # bench/spans.py::_solver_init names the setup span by `slab` and records
    # `free_mask`, `max_cond` and `_COND_LIMIT`; a solver rewrite that drops
    # one of them should fail here, not only in the traced benchmark
    spans = _load_spans()
    region, _ = scattered_16x32()
    if slab:
        region = plus_spaces.time_window_region(region.lattice, 0.0, 1.0)
    idx = AnisotropicIndex(1.0, 0.5)
    assert isinstance(plus_spaces._COND_LIMIT, float)
    solver = plus_spaces.PlusNormSolver.__new__(plus_spaces.PlusNormSolver)
    rec = ["plus_spaces.setup", -1, 0, 0.0, 0.0, None]
    spans._solver_init(plus_spaces._COND_LIMIT)(
        rec, plus_spaces.PlusNormSolver.__init__, (solver, idx, region), {}
    )
    assert solver.slab is slab
    assert rec[0] == ("plus_spaces.setup_slab" if slab else "plus_spaces.setup_dense")
    assert isinstance(solver.free_mask, np.ndarray) and solver.free_mask.dtype == bool
    assert solver.free_mask.shape == region.lattice.shape
    assert isinstance(solver.max_cond, float) and 1.0 <= solver.max_cond <= plus_spaces._COND_LIMIT
    assert rec[5]["n_free"] == int(np.count_nonzero(region.t_nonneg_mask & ~region.v_mask))
    assert rec[5]["max_cond"] == solver.max_cond
    assert rec[5]["ridge_fired"] == 0
