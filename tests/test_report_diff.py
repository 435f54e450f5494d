"""tools/report_diff.py reports every field in which two CLI results differ."""

import importlib.util
import json
from pathlib import Path

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
