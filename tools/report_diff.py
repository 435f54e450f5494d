"""Compare the CLI reports of two source trees on benchmark workloads.

    python3 tools/report_diff.py PARENT_SRC CHANGE_SRC --workload W --seed S [S ...]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  W
is one workload of ``bench/workloads.py`` or ``all`` for every one of them,
and each is run at every seed S.  For each workload and seed, the inputs
are written once by ``bench/workloads.build`` (imported, never modified)
into a temporary directory.  Each tree then runs every case's argv through
``hormspace.cli.main`` in one subprocess of its own.  Every exit code,
stderr text or report field that differs is printed, a numeric field with
its relative size, and then one summary line per workload and seed.  The
exit status is 1 on any difference and 0 when every report is
byte-identical.  Two trees that resolve to the same directory are refused
(exit 2): their reports could not differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in each tree's subprocess: argv lists on stdin, one result per case out
_RUNNER = """
import contextlib, io, json, os, sys
import hormspace, hormspace.cli
src = sys.argv[1]
package = os.path.dirname(os.path.realpath(hormspace.__file__))
if package != os.path.join(os.path.realpath(src), "hormspace"):
    raise SystemExit(f"hormspace imported from {package}, not {src}/hormspace")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hormspace.cli.main(argv)
    results.append({"code": code, "out": out.getvalue(), "err": err.getvalue()})
json.dump(results, sys.stdout)
"""


def run_tree(src: Path, argvs: list) -> list:
    """Every argv through cli.main of the tree at src, in one subprocess."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, str(src)], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def flatten(value, path: str = "") -> dict:
    """The leaves of a parsed report, keyed by their dotted path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{path}.{key}" if path else str(key)))
    return out


def relative(a, b) -> str:
    """|a - b| / max(|a|, |b|) for two numbers, else an empty string."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers or not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return f"  (rel {abs(a - b) / max(abs(a), abs(b)):.3g})"


def compare(label: str, old: dict, new: dict) -> list:
    """The differences between two results of one case, one line each."""
    lines = []
    if old["code"] != new["code"]:
        lines.append(f"{label}: exit code {old['code']} -> {new['code']}")
    if old["err"] != new["err"]:
        lines.append(f"{label}: stderr {old['err']!r} -> {new['err']!r}")
    if old["out"] == new["out"]:
        return lines
    try:
        a, b = flatten(json.loads(old["out"])), flatten(json.loads(new["out"]))
    except ValueError:
        return lines + [f"{label}: stdout {old['out']!r} -> {new['out']!r}"]
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, "<absent>"), b.get(key, "<absent>")
        if json.dumps(x) != json.dumps(y):
            lines.append(f"{label}: {key} {x!r} -> {y!r}{relative(x, y)}")
    # same leaves, other text (key order or layout)
    return lines or [f"{label}: report text differs with equal fields"]


def diff_workload(workloads, parent_src: Path, change_src: Path, workload: str, seed: int) -> int:
    """Print the differences of one workload at one seed and its summary
    line; return the number of differences."""
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        cases = workloads.build(workload, seed, Path(tmp))
        argvs = [list(case.argv) for case in cases]
        parent = run_tree(parent_src, argvs)
        change = run_tree(change_src, argvs)
    lines = []
    for case, old, new in zip(cases, parent, change):
        lines += compare(case.label, old, new)
    for line in lines:
        print(line)
    print(f"{workload} seed {seed}: {len(cases)} cases, {len(lines)} differences")
    return len(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    parent_src, change_src = args.parent_src.resolve(), args.change_src.resolve()
    if parent_src == change_src:
        ap.error(f"PARENT_SRC and CHANGE_SRC are the same directory, {parent_src}")
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    differences = 0
    for name in names:
        for seed in args.seed:
            differences += diff_workload(workloads, parent_src, change_src, name, seed)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
