"""tools/report_diff.py reports every field in which two CLI results differ."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
rd = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rd)


def _result(report, code=0, err=""):
    return {"code": code, "out": json.dumps(report) + "\n", "err": err}


def test_identical_results_have_no_differences():
    report = {"passed": True, "norm": 1.5, "rows": [1, 2]}
    assert rd.compare("norm[a]", _result(report), _result(report)) == []


def test_every_differing_field_is_named_with_its_relative_size():
    old = {"passed": True, "norm": 2.0, "nested": {"x": [1.0, 4.0]}, "gone": 1}
    new = {"passed": False, "norm": 2.0, "nested": {"x": [1.0, 5.0]}}
    lines = rd.compare("c", _result(old, 0), _result(new, 1))
    assert lines[0] == "c: exit code 0 -> 1"
    assert lines[1:] == [
        "c: gone 1 -> '<absent>'",
        "c: nested.x.1 4.0 -> 5.0  (rel 0.2)",
        "c: passed True -> False",
    ]


def test_stderr_and_layout_differences_are_differences():
    assert rd.compare("c", _result({}, 2, "error: a"), _result({}, 2, "error: b")) == [
        "c: stderr 'error: a' -> 'error: b'"
    ]
    old = {"code": 0, "out": '{"a": 1, "b": 2}', "err": ""}
    new = {"code": 0, "out": '{"b": 2, "a": 1}', "err": ""}
    assert rd.compare("c", old, new) == ["c: report text differs with equal fields"]


class _Case:
    def __init__(self, label, argv):
        self.label, self.argv = label, argv


class _Workloads:
    """A stand-in for bench/workloads.py: two workloads of one case each."""

    WORKLOADS = ("first", "second")

    def __init__(self):
        self.built = []

    def build(self, name, seed, out_dir):
        self.built.append((name, seed))
        return [_Case(f"{name}[{seed}]", [name, str(seed)])]


def _diff_main(monkeypatch, argv, changed=()):
    fake = _Workloads()
    monkeypatch.setitem(rd.sys.modules, "workloads", fake)
    # main puts bench/ on the path; the copy is restored after the test
    monkeypatch.setattr(rd.sys, "path", list(rd.sys.path))

    def run_tree(src, argvs):
        # the change tree reports another number on the argvs named in changed
        moved = src.name == "change"
        return [
            _result({"x": 2.0 if moved and tuple(a) in changed else 1.0}) for a in argvs
        ]

    monkeypatch.setattr(rd, "run_tree", run_tree)
    code = rd.main(["parent", "change"] + argv)
    return code, fake.built


def test_all_workloads_at_every_seed_in_one_command(monkeypatch, capsys):
    code, built = _diff_main(monkeypatch, ["--workload", "all", "--seed", "7", "11"])
    assert code == 0
    assert built == [("first", 7), ("first", 11), ("second", 7), ("second", 11)]
    assert capsys.readouterr().out.splitlines() == [
        "first seed 7: 1 cases, 0 differences",
        "first seed 11: 1 cases, 0 differences",
        "second seed 7: 1 cases, 0 differences",
        "second seed 11: 1 cases, 0 differences",
    ]


def test_one_difference_at_one_seed_fails_the_whole_run(monkeypatch, capsys):
    code, built = _diff_main(
        monkeypatch, ["--workload", "second", "--seed", "12", "13"], changed={("second", "13")}
    )
    assert code == 1
    assert built == [("second", 12), ("second", 13)]
    assert capsys.readouterr().out.splitlines() == [
        "second seed 12: 1 cases, 0 differences",
        "second[13]: x 1.0 -> 2.0  (rel 0.5)",
        "second seed 13: 1 cases, 1 differences",
    ]


def test_two_paths_to_one_tree_are_refused(monkeypatch, tmp_path, capsys):
    # the same tree on both sides would read "0 differences" whatever it holds
    (tmp_path / "src").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "src")
    for other in (tmp_path / "src" / ".", tmp_path / "link"):
        fake = _Workloads()
        monkeypatch.setitem(rd.sys.modules, "workloads", fake)
        with pytest.raises(SystemExit) as exit_:
            rd.main([str(tmp_path / "src"), str(other), "--workload", "all", "--seed", "7"])
        assert exit_.value.code == 2
        assert "the same directory" in capsys.readouterr().err
        assert fake.built == []


def _stub_package(src):
    """A hormspace package under src whose cli.main reports nothing."""
    package = src / "hormspace"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n    return 0\n")


def test_runner_refuses_a_package_from_a_sibling_tree(tmp_path):
    # src_old/hormspace starts with the text of src, yet is not src/hormspace
    _stub_package(tmp_path / "src")
    _stub_package(tmp_path / "src_old")

    def run(imported_from):
        env = dict(os.environ, PYTHONPATH=str(imported_from))
        return subprocess.run(
            [sys.executable, "-c", rd._RUNNER, str(tmp_path / "src")],
            input="[]", capture_output=True, text=True, env=env,
        )

    same = run(tmp_path / "src")
    assert same.returncode == 0 and json.loads(same.stdout) == []
    sibling = run(tmp_path / "src_old")
    assert sibling.returncode == 1
    assert "src_old" in sibling.stderr and sibling.stdout == ""
