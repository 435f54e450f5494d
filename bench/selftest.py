"""Self-test of the benchmark harness, at a size that runs in about a minute.

    python3 bench/selftest.py

For every workload, on tiny inputs, it checks that
  * every invocation passes its checks, untraced and traced, each of two
    traced passes reaches every layer the workload is assigned (the coverage
    guard), the two record the same span counts, and self times add up to
    the invocations' time;
  * an invocation given a deliberately wrong expected exit code is counted
    as failed;
  * building the same seed twice gives byte-identical report digests;
and that the metric names run.py reports are exactly those BENCHMARK.json
declares.  Exits 0 when all hold, 1 otherwise.
"""

import dataclasses
import json
import os
import shutil
import sys

import run  # pins the BLAS/OpenMP threads before numpy loads

SEED = 7


def main() -> int:
    hormspace = run._import_program()
    import spans
    import workloads

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = [m["name"] for m in declared["end_to_end"]]
    want_layer = [m["name"] for m in declared["per_layer"]]
    errors = []
    work = run.OUT_DIR / f"selftest-{os.getpid()}"
    runner = run.Runner(hormspace)
    try:
        for workload in workloads.WORKLOADS:
            cases = workloads.build(workload, SEED, work / workload / "a", scale="tiny")
            first = runner.run_pass(cases)
            errors += [f"{workload} {c.label}: {r['problems']}" for c, r in zip(cases, first) if r["problems"]]

            again = workloads.build(workload, SEED, work / workload / "b", scale="tiny")
            second = runner.run_pass(again)
            if [r["digest"] for r in first] != [r["digest"] for r in second]:
                errors.append(f"{workload}: same seed gave different report digests")

            wrong = dataclasses.replace(cases[0], expect_code=1 - cases[0].expect_code)
            if not runner.invoke(wrong)["problems"]:
                errors.append(f"{workload}: a wrong expected exit code was not counted as a failure")

            # two traced passes: the coverage guard checks each, and their
            # span counts must repeat exactly
            tracer = spans.Tracer()
            traced_runner = run.Runner(hormspace, tracer)
            try:
                traced, agg = traced_runner.traced_pass(cases, workload)
                again_traced, again_agg = traced_runner.traced_pass(cases, workload)
            except spans.CoverageError as exc:
                errors.append(str(exc))
                continue
            errors += [f"{workload} traced {c.label}: {r['problems']}" for c, r in zip(cases, traced) if r["problems"]]
            if [r["digest"] for r in traced] != [r["digest"] for r in first]:
                errors.append(f"{workload}: tracing changed a report")
            if {k: a.calls for k, a in agg.items()} != {k: a.calls for k, a in again_agg.items()}:
                errors.append(f"{workload}: span counts differ between two traced passes")
            # self times partition the root spans' time
            if abs(sum(a.self_s for a in again_agg.values()) - again_agg["cli"].total) > 1e-6:
                errors.append(f"{workload}: self times do not add up to the invocations' time")

            samples = [[r] for r in first]
            e2e = run.end_to_end_metrics(samples, 1.0)
            layer = run.per_layer_metrics(cases, samples, [agg, again_agg], [traced, again_traced])
            layer["failed_frac"] = (0.0, "ratio")
            if list(e2e) != want_e2e:
                errors.append(f"end-to-end metrics {list(e2e)} differ from BENCHMARK.json")
            if sorted(layer) != sorted(want_layer):
                errors.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(layer) ^ set(want_layer))}")
            print(f"{workload}: {len(cases)} cases, {len(tracer.spans)} spans", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in errors:
        print("FAIL", line)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
