import json
import math

import pytest

from hormspace import cli, gridio
from hormspace import plus_spaces as ps
from hormspace import spectra as sp

HEAT_JSON = {
    "n": 2,
    "b": 1,
    "m": 1,
    "A": [
        {"alpha": [2, 0], "beta": 0, "re": 1.0},
        {"alpha": [0, 2], "beta": 0, "re": 1.0},
        {"alpha": [0, 0], "beta": 1, "re": 1.0},
    ],
    "B": [{"m_j": 0, "coeffs": [{"alpha": [0, 0], "beta": 0, "re": 1.0}]}],
}


@pytest.fixture
def heat_file(tmp_path):
    path = tmp_path / "heat2d.json"
    path.write_text(json.dumps(HEAT_JSON))
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    lat = sp.Lattice(k=1, n_x=8, n_t=8, L_x=2 * math.pi, L_t=2 * math.pi)
    g = sp.random_grid(lat, 42)
    region = ps.time_window_region(lat, 0.0, lat.L_t / 4)
    path = tmp_path / "g.hgrd"
    gridio.save_grid(path, g, region)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_sigma0_command(capsys):
    code, out = run_cli(capsys, ["sigma0", "--m", "1", "--b", "1", "--orders", "0"])
    assert code == 0
    assert json.loads(out) == {"sigma0": 2}


def test_sigma0_rejects_bad_kappa(capsys):
    code, _ = run_cli(capsys, ["sigma0", "--m", "3", "--b", "2", "--orders", "0"])
    assert code == 2


def test_check_parabolic_pass(capsys, heat_file):
    code, out = run_cli(capsys, ["check-parabolic", heat_file, "--samples", "500"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["petrovskii"]["min_abs_symbol"] > 0.1
    assert report["covering"]["passed"] is True
    assert report["sigma0"] == 2


def test_check_parabolic_fail_exit_code(capsys, tmp_path):
    spec = dict(HEAT_JSON)
    spec["A"] = [
        {"alpha": [2, 0], "beta": 0, "re": 1.0},
        {"alpha": [0, 2], "beta": 0, "re": 1.0},
        {"alpha": [0, 0], "beta": 1, "re": -1.0},
    ]
    spec.pop("B")
    path = tmp_path / "backward.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, ["check-parabolic", str(path), "--samples", "500"])
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize(
    "value, expected_code", [(math.inf, 2), (math.nan, 2), (1e300, 0)]
)
def test_check_parabolic_extreme_coefficient(capsys, tmp_path, value, expected_code):
    # non-finite coefficients are refused; a huge finite one gets a verdict
    spec = dict(HEAT_JSON)
    spec["A"] = [{"alpha": [2, 0], "beta": 0, "re": value}] + HEAT_JSON["A"][1:]
    spec.pop("B")
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, ["check-parabolic", str(path), "--samples", "500"])
    assert code == expected_code
    if expected_code == 2:
        assert out == ""
    else:
        report = json.loads(out)
        assert report["passed"] is True
        assert math.isfinite(report["petrovskii"]["min_abs_symbol"])


def test_malformed_json_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run_cli(capsys, ["check-parabolic", str(path)])
    assert code == 2
    assert out == ""


def test_unknown_command_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_norm_command(capsys, grid_file):
    code, out = run_cli(
        capsys,
        ["norm", grid_file, "--s", "1", "--gamma", "0.5", "--embed-window", "0", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["hnorm"] > 0
    assert report["dft_roundtrip_error"] < 1e-12
    assert len(report["embedding_constants"]) == 2


def test_plus_norm_command(capsys, grid_file):
    code, out = run_cli(
        capsys,
        ["plus-norm", grid_file, "--s", "1.8", "--gamma", "0.5", "--lemma51",
         "--interp", "0", "1.8", "3"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["plus_norm"] > 0
    assert report["lemma51_ratio"] >= 1.0 - 1e-12
    assert report["interp_subspace"]["lhs"] >= report["interp_subspace"]["rhs"] * (1 - 1e-9)


def test_verify_lemma71_command(capsys):
    code, out = run_cli(
        capsys,
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
         "--lattice", "8x8x8", "--trials", "3",
         "--phi", '{"kind":"log_power","exponents":[1.0]}'],
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["max_ratio_deviation"] <= 1e-10
    assert abs(report["direct_sum_lhs"] - report["direct_sum_rhs"]) <= 1e-9


@pytest.mark.parametrize("flag,value", [("--L-t", "inf"), ("--L-x", "nan")])
def test_verify_lemma71_refuses_non_finite_period(capsys, flag, value):
    # once a vacuous pass (inf) and a zero deviation (nan); now a refusal
    code, out = run_cli(
        capsys,
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
         "--lattice", "8x8x8", "--trials", "2", flag, value],
    )
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_lemma71_non_finite_ratio_fails(capsys, monkeypatch, bad):
    from hormspace import interpolation

    ratios = iter([1.0, bad, 1.0])
    monkeypatch.setattr(interpolation, "verify_lemma71", lambda *args: next(ratios))
    code, out = run_cli(
        capsys,
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
         "--lattice", "8x8x8", "--trials", "3"],
    )
    report = json.loads(out)
    assert code == 1
    assert report["passed"] is False
    # the report writes non-finite floats as the strings "nan" and "inf"
    assert not math.isfinite(float(report["max_ratio_deviation"]))


def test_model_verify_command(capsys, heat_file):
    code, out = run_cli(
        capsys,
        ["model-verify", heat_file, "--sigma", "4", "--ensemble", "3",
         "--lattice", "8x8x16", "--levels", "2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["c1_hat"] > 0
    assert report["c2_hat"] >= report["c1_hat"]
    assert report["passed"] is True


def test_embed_check_command(capsys):
    code, out = run_cli(
        capsys, ["embed-check", "--phi", '{"kind":"log_power","exponents":[0.6]}']
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "converges"
    code2, out2 = run_cli(capsys, ["embed-check", "--phi", "1"])
    assert code2 == 1
    assert json.loads(out2)["verdict"] == "diverges"


def test_float_serialization_17_digits():
    text = cli.dumps_report({"x": 1.0 / 3.0, "y": [2, True, None, "s"]})
    assert text == '{"x":0.33333333333333331,"y":[2,true,null,"s"]}'
    assert json.loads(text)["x"] == 1.0 / 3.0  # 17 digits round-trips exactly


def test_command_table_covers_all_operations():
    covered = set()
    for ops in cli.COMMAND_TABLE.values():
        covered.update(ops)
    missing = [op for op in cli.OPERATIONS if op not in covered and op != "cli.run"]
    assert not missing, f"operations unreachable from the CLI: {missing}"
    for cmd in cli.COMMAND_TABLE:
        assert cmd in cli._HANDLERS
