"""The span names the benchmark's coverage guard requires must exist in the
program, so a deleted or renamed traced function fails here rather than only
as the traced benchmark's coverage exit."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from hormspace import model_problem, plus_spaces

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

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
