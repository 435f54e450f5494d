import contextlib
import importlib
import inspect
import io
import json
import math
import struct
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scattered_16x32
from hormspace import class_m as cm
from hormspace import cli, embedding, gridio, interpolation, model_problem
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
    assert report["petrovskii"]["root_margin"] > 0.1
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


def test_check_parabolic_refuses_oversized_sample_count(capsys, heat_file, monkeypatch):
    # refused from the count alone: no sphere point may be built
    from hormspace import parabolicity

    def never(*args, **kwargs):
        raise AssertionError("sphere points were built before the count check")

    monkeypatch.setattr(parabolicity, "_kronecker_sphere", never)
    code = cli.main(["check-parabolic", heat_file, "--samples", "1099511627776"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(parabolicity._MAX_SAMPLES) in captured.err


def test_check_parabolic_refuses_scan_past_the_element_bound(capsys, tmp_path, monkeypatch):
    # heat at k = 32 with 2**20 points: the count is allowed, but its power
    # array of 2**20 * 33 * 32 elements is not, so no sphere point is built
    from hormspace import parabolicity

    def never(*args, **kwargs):
        raise AssertionError("sphere points were built before the size check")

    monkeypatch.setattr(parabolicity, "_kronecker_sphere", never)
    unit = [[1 if i == j else 0 for i in range(32)] for j in range(32)]
    spec = {"n": 32, "b": 1, "m": 1, "A": [{"alpha": [0] * 32, "beta": 1, "re": 1.0}]}
    spec["A"] += [{"alpha": [2 * a for a in e], "beta": 0, "re": 1.0} for e in unit]
    path = tmp_path / "heat32.json"
    path.write_text(json.dumps(spec))
    code = cli.main(["check-parabolic", str(path), "--samples", str(2**20)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(parabolicity._MAX_SCAN_ELEMENTS) in captured.err


def test_check_parabolic_counts_powers_in_the_scan_bound(capsys, tmp_path, monkeypatch):
    # xi_1**200 + xi_2**200 + p (b = m = 100) has three terms, but each of
    # 2**20 points needs powers up to 200: 2**20 * 2 * 201 elements, past
    # 2**26, so nothing is evaluated
    from hormspace import parabolicity

    def never(*args, **kwargs):
        raise AssertionError("powers were built before the size check")

    monkeypatch.setattr(parabolicity, "_kronecker_sphere", never)
    monkeypatch.setattr(parabolicity, "_powers", never)
    A = [{"alpha": [200, 0], "beta": 0, "re": 1.0}, {"alpha": [0, 200], "beta": 0, "re": 1.0}]
    A.append({"alpha": [0, 0], "beta": 1, "re": 1.0})
    path = tmp_path / "order200.json"
    path.write_text(json.dumps({"n": 2, "b": 100, "m": 100, "A": A}))
    code = cli.main(["check-parabolic", str(path), "--samples", str(2**20)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(parabolicity._MAX_SCAN_ELEMENTS) in captured.err


@pytest.mark.parametrize(
    "frame",
    [
        {"nu": [0, 1, 0], "xi_tan": [1, 0, 0.5], "p": [0.5, 0]},
        {"nu": [1], "xi_tan": [0], "p": [0.5, 0]},
    ],
    ids=["long", "short"],
)
def test_check_parabolic_refuses_a_frame_of_another_dimension(capsys, tmp_path, frame):
    # an n = 2 operator with a frame of length 3 or 1 once read "passed"
    path = tmp_path / "heat-frame.json"
    path.write_text(json.dumps({**HEAT_JSON, "frames": [frame]}))
    code = cli.main(["check-parabolic", str(path), "--samples", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: frame 0: nu has length {len(frame['nu'])}")


@pytest.mark.parametrize(
    "field, frame",
    [
        ("nu", {"nu": [0, math.nan], "xi_tan": [1, 0], "p": [0.5, 0]}),
        ("xi_tan", {"nu": [0, 1], "xi_tan": [math.inf, 0], "p": [0.5, 0]}),
        ("p", {"nu": [0, 1], "xi_tan": [1, 0], "p": [math.nan, 0]}),
    ],
)
def test_check_parabolic_refuses_a_non_finite_frame(capsys, tmp_path, field, frame):
    # JSON's NaN and Infinity once reached LAPACK, whose error named neither
    path = tmp_path / "heat-frame.json"
    path.write_text(json.dumps({**HEAT_JSON, "frames": [frame]}))
    code = cli.main(["check-parabolic", str(path), "--samples", "200"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: frame {field} must be finite")
    assert len(captured.err.splitlines()) == 1


def test_check_parabolic_refuses_oversized_frame_count(capsys, heat_file, monkeypatch):
    # refused from the count alone: no frame may be drawn
    from hormspace import parabolicity

    def never(*args, **kwargs):
        raise AssertionError("a frame was drawn before the count check")

    monkeypatch.setattr(parabolicity, "BoundaryFrame", never)
    code = cli.main(["check-parabolic", heat_file, "--samples", "200", "--frames", str(2**20 + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(parabolicity._MAX_SAMPLES) in captured.err


@pytest.mark.parametrize("terms", [201, 1], ids=["all-monomials", "one-monomial"])
def test_check_parabolic_refuses_covering_batch_past_the_element_bound(
    capsys, tmp_path, monkeypatch, terms
):
    # a boundary operator of order 200 needs 201 points a frame, and each
    # gathers 2 * max(terms, 201) elements: with all 201 monomials or with
    # xi_1**200 alone, 830 random frames fit in 2**26 and 831 do not; the
    # batch is never evaluated
    from hormspace import parabolicity

    def never(*args, **kwargs):
        raise AssertionError("the covering batch was evaluated before the size check")

    monkeypatch.setattr(parabolicity, "zeta_polynomial", never)
    coeffs = [{"alpha": [200 - a, a], "beta": 0, "re": 1.0} for a in range(terms)]
    path = tmp_path / "heat-order200.json"
    path.write_text(json.dumps({**HEAT_JSON, "B": [{"m_j": 200, "coeffs": coeffs}]}))
    code = cli.main(["check-parabolic", str(path), "--samples", "200", "--frames", "831"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(parabolicity._MAX_SCAN_ELEMENTS) in captured.err
    assert 830 * 201 * 201 * 2 <= parabolicity._MAX_SCAN_ELEMENTS < 831 * 201 * 201 * 2


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
        assert math.isfinite(report["petrovskii"]["root_margin"])


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
    monkeypatch.setattr(
        interpolation, "verify_lemma71", lambda grids, *args: [next(ratios) for _ in grids]
    )
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


# Public functions that no command calls; each is still part of the library.
LIBRARY_ONLY = {
    "class_m.log_power",
    "gridio.save_grid",
    "gridio.grid_to_json",
    "gridio.grid_from_json",
    "parabolicity.symbol_eval",
}

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


def test_every_public_function_is_reached_by_a_command(
    capsys, monkeypatch, heat_file, grid_file
):
    """Spy on every public function of every layer, wherever a module binds
    it, run each command with each of its report sections, and require every
    function outside LIBRARY_ONLY to be called."""
    modules = [m for name, m in sys.modules.items() if name.startswith("hormspace")]
    public = set()
    reached = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"hormspace.{layer}")
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            name = f"{layer}.{fname}"
            public.add(name)

            def spy(*args, _fn=fn, _name=name, **kwargs):
                reached.add(_name)
                return _fn(*args, **kwargs)

            for owner in modules:
                for attr, val in list(vars(owner).items()):
                    if val is fn:
                        monkeypatch.setattr(owner, attr, spy)
    assert LIBRARY_ONLY <= public, "LIBRARY_ONLY names a function that is gone"

    log_phi = '{"kind":"log_power","exponents":[0.6]}'
    commands = [
        (["sigma0", "--m", "1", "--b", "1", "--orders", "0"], 0),
        (["check-parabolic", heat_file, "--samples", "200", "--frames", "5"], 0),
        (["norm", grid_file, "--s", "1", "--gamma", "0.5", "--embed-window", "0", "2"], 0),
        (["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
          "--lattice", "8x8x8", "--trials", "2", "--phi", log_phi], 0),
        (["plus-norm", grid_file, "--s", "1.8", "--gamma", "0.5", "--lemma51",
          "--interp", "0", "1.8", "3"], 0),
        (["model-verify", heat_file, "--sigma", "4", "--ensemble", "2",
          "--lattice", "8x8x16", "--levels", "2"], 0),
        (["embed-check", "--phi", log_phi, "--radial", "--weight-sum"], 0),
        (["embed-check", "--phi", "1", "--n", "1", "--sharpness"], 1),
    ]
    assert {argv[0] for argv, _ in commands} == set(cli._HANDLERS)
    for argv, expected in commands:
        assert run_cli(capsys, argv)[0] == expected, argv
    assert not (reached & LIBRARY_ONLY), "a library-only function is now reached"
    missing = sorted(public - reached - LIBRARY_ONLY)
    assert not missing, f"public functions no command reaches: {missing}"


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_model_verify_refuses_empty_ladder(capsys, heat_file, levels):
    # an empty ladder flagged nothing and the report passed vacuously
    code = cli.main(
        ["model-verify", heat_file, "--sigma", "4", "--ensemble", "2",
         "--lattice", "8x8x16", "--levels", levels]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "levels" in captured.err


@pytest.mark.parametrize("refine", ["2", "-1"])
def test_model_verify_refuses_refine_other_than_0_or_1(capsys, heat_file, monkeypatch, refine):
    # --refine is a flag: 2 refined once and -1 did not refine at all;
    # both are refused before any ratio is taken
    def never(*args, **kwargs):
        raise AssertionError("a ratio was taken before --refine was checked")

    monkeypatch.setattr(model_problem, "two_sided_ratio", never)
    code = cli.main(
        ["model-verify", heat_file, "--sigma", "4", "--ensemble", "2",
         "--lattice", "8x8x16", "--levels", "1", "--refine", refine]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --refine must be 0 or 1, got {refine}\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_lemma71_refuses_trial_count_below_one(capsys, trials):
    # zero trials computed no ratio and reported a vacuous pass
    code = cli.main(
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
         "--lattice", "8x8x8", "--trials", trials]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--trials" in captured.err


@pytest.mark.parametrize("command", ["norm", "plus-norm"])
def test_grid_with_nan_sample_exit_2(capsys, grid_file, command):
    # overwrite the first complex64 sample after the 32-byte header with nan
    with open(grid_file, "r+b") as fh:
        fh.seek(32)
        fh.write(struct.pack("<ff", math.nan, 0.0))
    code, out = run_cli(capsys, [command, grid_file, "--s", "1", "--gamma", "0.5"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "command, s, gamma",
    [("norm", "nan", "0.5"), ("norm", "inf", "0.5"), ("plus-norm", "1", "nan"), ("plus-norm", "1", "inf")],
)
def test_non_finite_index_exit_2(capsys, grid_file, command, s, gamma):
    # norm --s nan once reported "hnorm": "nan" with exit 0
    code = cli.main([command, grid_file, "--s", s, "--gamma", gamma])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "s and gamma must be finite" in captured.err


def test_plus_norm_ill_conditioned_exit_1(capsys, tmp_path):
    region, u = scattered_16x32()
    path = tmp_path / "scattered.hgrd"
    gridio.save_grid(path, sp.GridFunction(region.lattice, u), region)
    code = cli.main(["plus-norm", str(path), "--s", "16", "--gamma", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "condition number" in captured.err


def test_plus_norm_failed_cholesky_exit_1(capsys, tmp_path):
    # the normal matrix is not numerically positive definite at s = 25
    region, u = scattered_16x32()
    path = tmp_path / "scattered.hgrd"
    gridio.save_grid(path, sp.GridFunction(region.lattice, u), region)
    code = cli.main(["plus-norm", str(path), "--s", "25", "--gamma", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "condition number inf (Cholesky failed)" in captured.err


# squared heat (p + |xi|**2)**2 with two proportional Dirichlet conditions:
# the boundary rows are linearly dependent, so covering fails at every frame
SQUARED_HEAT_PROPORTIONAL_JSON = {
    "n": 2,
    "b": 1,
    "m": 2,
    "A": [
        {"alpha": [0, 0], "beta": 2, "re": 1.0},
        {"alpha": [2, 0], "beta": 1, "re": 2.0},
        {"alpha": [0, 2], "beta": 1, "re": 2.0},
        {"alpha": [4, 0], "beta": 0, "re": 1.0},
        {"alpha": [0, 4], "beta": 0, "re": 1.0},
        {"alpha": [2, 2], "beta": 0, "re": 2.0},
    ],
    "B": [
        {"m_j": 0, "coeffs": [{"alpha": [0, 0], "beta": 0, "re": 1.0}]},
        {"m_j": 0, "coeffs": [{"alpha": [0, 0], "beta": 0, "re": 2.0}]},
    ],
}


def test_check_parabolic_proportional_dirichlet_fails_covering(capsys, tmp_path):
    path = tmp_path / "proportional.json"
    path.write_text(json.dumps(SQUARED_HEAT_PROPORTIONAL_JSON))
    code, out = run_cli(capsys, ["check-parabolic", str(path), "--samples", "500"])
    assert code == 1
    assert json.loads(out)["covering"]["passed"] is False


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_check_parabolic_refuses_vacuous_tolerance(capsys, tmp_path, tol):
    # a negative tol would pass the failing covering check above
    path = tmp_path / "proportional.json"
    path.write_text(json.dumps(SQUARED_HEAT_PROPORTIONAL_JSON))
    code = cli.main(["check-parabolic", str(path), "--samples", "500", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "tol" in captured.err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_verify_lemma71_refuses_vacuous_tolerance(capsys, tol):
    # tol = inf would pass any finite deviation
    code = cli.main(
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2",
         "--lattice", "8x8x8", "--trials", "2", f"--tol={tol}"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--tol" in captured.err


# options a command's handler does not read, so its parser does not declare them
DROPPED_OPTIONS = [
    ("check-parabolic", "--L-x", "3.0"),
    ("check-parabolic", "--L-t", "3.0"),
    *[(command, option, value)
      for command in ("norm", "plus-norm", "embed-check")
      for option, value in (("--seed", "1"), ("--tol", "1e-6"), ("--L-x", "3.0"), ("--L-t", "3.0"))],
    ("model-verify", "--tol", "1e-6"),
]


def _command_argv(command, heat_file, grid_file):
    """A cheap valid invocation of each command."""
    return {
        "check-parabolic": ["check-parabolic", heat_file, "--samples", "200", "--frames", "5"],
        "norm": ["norm", grid_file, "--s", "1", "--gamma", "0.5"],
        "plus-norm": ["plus-norm", grid_file, "--s", "1.8", "--gamma", "0.5"],
        "model-verify": ["model-verify", heat_file, "--sigma", "4", "--ensemble", "2",
                         "--lattice", "8x8x16", "--levels", "1"],
        "embed-check": ["embed-check", "--phi", "1"],
    }[command]


@pytest.mark.parametrize("command, option, value", DROPPED_OPTIONS)
def test_option_the_command_does_not_read_exits_2(capsys, heat_file, grid_file, command, option, value):
    argv = _command_argv(command, heat_file, grid_file)
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    code = cli.main(argv + [option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def _with_operator(tmp_path, edit):
    spec = edit(json.loads(json.dumps(HEAT_JSON)))
    path = tmp_path / "op.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _first_coefficient(spec, key, value):
    spec["A"][0][key] = value
    return spec


def _json_grid(tmp_path, key, value):
    lat = sp.Lattice(k=1, n_x=4, n_t=4, L_x=2 * math.pi, L_t=2 * math.pi)
    d = json.loads(gridio.grid_to_json(sp.random_grid(lat, 0)))
    d[key] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(d))
    return str(path)


MALFORMED = {
    "operator-n-string": lambda t: ["check-parabolic", _with_operator(t, lambda s: {**s, "n": "2"})],
    "operator-re-string": lambda t: [
        "check-parabolic", _with_operator(t, lambda s: _first_coefficient(s, "re", "x"))],
    "operator-alpha-int": lambda t: [
        "check-parabolic", _with_operator(t, lambda s: _first_coefficient(s, "alpha", 2))],
    "operator-top-level-list": lambda t: ["check-parabolic", _with_operator(t, lambda s: [s])],
    "operator-frame-p-short": lambda t: [
        "check-parabolic",
        _with_operator(t, lambda s: {**s, "frames": [{"nu": [0, 1], "xi_tan": [1, 0], "p": [0.0]}]})],
    "model-operator-n-string": lambda t: [
        "model-verify", _with_operator(t, lambda s: {**s, "n": "2"}), "--sigma", "4"],
    "json-grid-L_x-string": lambda t: ["norm", _json_grid(t, "L_x", "abc"), "--s", "1", "--gamma", "0.5"],
    "json-grid-re-objects": lambda t: ["norm", _json_grid(t, "re", [{}] * 16), "--s", "1", "--gamma", "0.5"],
    "phi-list": lambda t: ["embed-check", "--phi", "[1]"],
    "phi-null-exponent": lambda t: ["embed-check", "--phi", '{"kind":"log_power","exponents":[null]}'],
    "phi-scalar-exponents": lambda t: ["embed-check", "--phi", '{"kind":"log_power","exponents":5}'],
    "embed-b-zero": lambda t: ["embed-check", "--phi", "1", "--b", "0"],
    "embed-p-negative": lambda t: ["embed-check", "--phi", "1", "--p", "-1"],
    "embed-r-nan": lambda t: ["embed-check", "--phi", "1", "--r-values", "nan"],
    # the radial quadrature overflows in 160 and more dimensions
    "embed-radial-n400": lambda t: ["embed-check", "--phi", "1", "--n", "400", "--radial"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, case):
    code = cli.main(MALFORMED[case](tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- a generated search over malformed and extreme grid files ---------------

_SHAPES = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4, 8])
)
_BAD_INT = st.sampled_from([0, 3, 6, 64, 2**31, 2**32 - 1])
_BAD_PERIOD = st.sampled_from([0.0, -1.0, math.nan, math.inf])


@st.composite
def _hgrd_bytes(draw):
    """An HGRD file: valid, or with one header field, its length or a mask
    section changed."""
    k, n_x, n_t = draw(_SHAPES)
    n = n_x**k * n_t
    header = {"k": k, "n_x": n_x, "n_t": n_t, "L_x": 2 * math.pi, "L_t": 2 * math.pi}
    if draw(st.booleans()):
        # any bytes, nan and inf samples among them
        samples = draw(st.binary(min_size=8 * n, max_size=8 * n))
    else:
        scale = draw(st.sampled_from([1.0, 1e20, 3e38]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        samples = (scale * rng.uniform(-1, 1, 2 * n)).astype("<f4").tobytes()
    masks = draw(st.binary(min_size=2 * ((n + 7) // 8), max_size=2 * ((n + 7) // 8)))
    masks = masks if draw(st.booleans()) else b""
    change = draw(
        st.sampled_from(["none", "k", "n_x", "n_t", "L_x", "L_t", "cut", "extend", "mask"])
    )
    if change in ("k", "n_x", "n_t"):
        header[change] = draw(_BAD_INT)
    elif change in ("L_x", "L_t"):
        header[change] = draw(_BAD_PERIOD)
    elif change == "mask":
        masks = masks[:-1] if masks and draw(st.booleans()) else masks + b"\0"
    raw = struct.pack("<4sIIIdd", b"HGRD", *header.values()) + samples + masks
    if change == "cut":
        raw = raw[: draw(st.integers(0, len(raw) - 1))]
    elif change == "extend":
        raw += draw(st.binary(min_size=1, max_size=16))
    return raw


_SAMPLE = st.floats(-1e200, 1e200, allow_nan=False)


@st.composite
def _json_grid_text(draw):
    """A JSON grid: valid, or with a key missing, a bool or a float where an
    int belongs, or one sample too many or too few; samples up to 1e200."""
    k, n_x, n_t = draw(_SHAPES)
    n = n_x**k * n_t
    d = {"k": k, "n_x": n_x, "n_t": n_t, "L_x": 2 * math.pi, "L_t": 2 * math.pi,
         "re": draw(st.lists(_SAMPLE, min_size=n, max_size=n)),
         "im": draw(st.lists(_SAMPLE, min_size=n, max_size=n))}
    change = draw(st.sampled_from(["none", "missing", "bool", "float", "count", "period"]))
    if change == "missing":
        del d[draw(st.sampled_from(sorted(d)))]
    elif change in ("bool", "float"):
        key = draw(st.sampled_from(["k", "n_x", "n_t"]))
        d[key] = draw(st.booleans()) if change == "bool" else float(d[key])
    elif change == "count":
        d["re"] = d["re"][:-1] if draw(st.booleans()) else d["re"] + [1.0]
    elif change == "period":
        # NaN and Infinity, which Python's json writes and reads
        d[draw(st.sampled_from(["L_x", "L_t"]))] = draw(_BAD_PERIOD)
    return json.dumps(d)


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    if isinstance(value, str):
        return value not in ("inf", "-inf", "nan")
    return not isinstance(value, float) or math.isfinite(value)


def _norm_reports_or_refuses(path):
    """norm of the grid at path, for three orders: one JSON line of finite
    numbers with exit 0, or one error line with exit 2 and no report; a
    warning is an error under pytest, and fails the check as an exception."""
    for s in ("0.5", "3", "150"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["norm", str(path), "--s", s, "--gamma", "0.5"])
        if code == 0:
            assert err.getvalue() == "" and out.getvalue().count("\n") == 1
            assert _finite_numbers(json.loads(out.getvalue()))
        else:
            assert code == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.fixture(scope="module")
def search_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("search")


def test_hgrd_signalling_nan_sample_exit_2(capsys, tmp_path):
    # found by the search: the complex64 -> complex cast of a signalling nan
    # warned before GridFunction refused the sample
    path = tmp_path / "snan.hgrd"
    header = struct.pack("<4sIIIdd", b"HGRD", 1, 1, 1, 2 * math.pi, 2 * math.pi)
    path.write_bytes(header + b"\x00\x00\x81\x7f\x00\x00\x00\x00")
    code = cli.main(["norm", str(path), "--s", "3", "--gamma", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: samples must be finite\n"


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(raw=_hgrd_bytes())
def test_generated_hgrd_files_are_reported_or_refused(search_dir, raw):
    path = search_dir / "g.hgrd"
    path.write_bytes(raw)
    _norm_reports_or_refuses(path)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(text=_json_grid_text())
def test_generated_json_grids_are_reported_or_refused(search_dir, text):
    path = search_dir / "g.json"
    path.write_text(text)
    _norm_reports_or_refuses(path)


@pytest.mark.parametrize(
    "phi",
    ['{"kind":"log_power","exponents":[NaN]}',
     '{"kind":"log_power","exponents":[1.0],"cutoff":NaN}',
     '{"kind":"log_power","exponents":[1.0],"cutoff":"nan"}'],
    ids=["nan-exponent", "nan-cutoff", "nan-cutoff-string"],
)
@pytest.mark.parametrize("command", ["norm", "embed-check"])
def test_non_finite_phi_exit_2(capsys, grid_file, command, phi):
    # norm once printed "hnorm": "nan" with exit 0; embed-check a diverging verdict
    argv = (["norm", grid_file, "--s", "1", "--gamma", "0.5"] if command == "norm"
            else ["embed-check"]) + ["--phi", phi]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("n", ["1", "4"])
def test_embed_check_radial_in_one_and_four_dimensions(capsys, n):
    # the angular moment is taken in closed form for every n, not only 2 and 3
    code, out = run_cli(capsys, ["embed-check", "--phi", "1", "--n", n, "--radial"])
    assert code == 1
    assert max(row["relerr"] for row in json.loads(out)["radial_reduction"]) <= 1e-3


def test_verify_lemma71_command_holds_one_trial_grid_at_a_time(capsys, monkeypatch):
    # one call for every trial, whose grids are drawn one at a time: when a
    # trial's grid is made, no earlier one is alive
    made, alive_at_draw, calls = [], [], []
    random_grid, verify = sp.random_grid, interpolation.verify_lemma71

    def tracked(lattice, seed):
        alive_at_draw.append(sum(ref() is not None for ref in made))
        g = random_grid(lattice, seed)
        made.append(weakref.ref(g))
        return g

    def counted(grids, *args):
        calls.append(args)
        return verify(grids, *args)

    monkeypatch.setattr(sp, "random_grid", tracked)
    monkeypatch.setattr(interpolation, "verify_lemma71", counted)
    code, out = run_cli(
        capsys,
        ["verify-lemma71", "--s0", "0", "--s", "1", "--s1", "2", "--lattice", "8x8x8", "--trials", "5"],
    )
    assert code == 0 and json.loads(out)["passed"] is True
    assert len(calls) == 1
    # the five trials, then the direct sum's three grids, kept together
    assert alive_at_draw == [0, 0, 0, 0, 0, 0, 1, 2]


def test_model_verify_holds_one_forcing_at_a_time(capsys, heat_file, monkeypatch):
    # each ensemble is drawn a block of members at a time: when a block is
    # made, at most the one before it is still alive, and no block holds more
    # than the budget's mode values, whatever the ensemble size
    made = []
    alive_at_call = []
    make_block = model_problem._forcing_modes

    def tracked(lattice, layout, seeds):
        alive_at_call.append(sum(ref() is not None for ref in made))
        f = make_block(lattice, layout, seeds)
        made.append(weakref.ref(f))
        assert f.modes.size <= model_problem._BLOCK_VALUES
        return f

    monkeypatch.setattr(model_problem, "_forcing_modes", tracked)
    # 400 mode values a member at 8x8x16 and 800 at 16x16x32: one block per
    # lattice at --ensemble 6, 2 + 3 blocks at 100
    for n_ens, n_blocks in ((6, 2), (100, 5)):
        made.clear()
        alive_at_call.clear()
        code, _ = run_cli(
            capsys,
            ["model-verify", heat_file, "--sigma", "4", "--ensemble", str(n_ens), "--refine", "1",
             "--lattice", "8x8x16", "--levels", "1"],
        )
        assert code == 0
        assert len(alive_at_call) == n_blocks
        assert max(alive_at_call) <= 1, alive_at_call


def test_norms_build_no_whole_lattice_weight(monkeypatch, capsys, grid_file):
    # hnorm, the norm command and verify_lemma71 take their norms on the
    # folded quadrant, so none of them unfolds a weight to the whole lattice
    calls = []

    def spy(name, fn):
        def recorded(*args):
            calls.append(name)
            return fn(*args)
        return recorded

    # a module that binds either name at import is spied on there as well
    for module in (sp, interpolation):
        for name in ("_unfold", "weight_array"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    g, _region = gridio.load_grid(grid_file)
    sp.hnorm(g, sp.AnisotropicIndex(1.0, 0.5))
    interpolation.verify_lemma71([g], 0.0, 1.0, 2.0, 0.5, cm.log_power([0.7]))
    code, _out = run_cli(capsys, ["norm", grid_file, "--s", "1", "--gamma", "0.5"])
    assert code == 0
    assert calls == []


def test_norm_report_equals_the_public_functions(capsys, grid_file):
    phi_text = '{"kind":"log_power","exponents":[0.7,0.2]}'
    code, out = run_cli(
        capsys,
        ["norm", grid_file, "--s", "1.3", "--gamma", "0.25", "--phi", phi_text,
         "--embed-window", "0.5", "2"],
    )
    assert code == 0
    report = json.loads(out)
    g, _region = gridio.load_grid(grid_file)
    phi = cm.PhiFunction.from_json_dict(json.loads(phi_text))
    idx = sp.AnisotropicIndex(1.3, 0.25, phi)
    want = {
        "hnorm": sp.hnorm(g, idx),
        "r_gamma_max": float(max(sp.r_gamma_array(g.lattice, 0.25).ravel())),
        "embedding_constants": list(sp.embedding_constants(
            sp.AnisotropicIndex(0.5, 0.25, phi), idx, sp.AnisotropicIndex(2, 0.25, phi),
            g.lattice,
        )),
    }
    assert {key: report[key] for key in want} == want


@pytest.mark.parametrize(
    "argv",
    [["--n", "3", "--sharpness"], ["--n", "4", "--weight-sum"]],
    ids=["sharpness-n3", "weight-sum-n4"],
)
def test_embed_check_refuses_oversized_lattice(capsys, monkeypatch, argv):
    # refused from the lattice sizes alone: neither builder may run (at n = 3
    # the sharpness ladder would end at 2**28 points)
    def never(*args, **kwargs):
        raise AssertionError("a lattice was built before the size check")

    monkeypatch.setattr(embedding, "derivative_weight_sum", never)
    monkeypatch.setattr(embedding, "sharpness_demo", never)
    code = cli.main(["embed-check", "--phi", "1"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(cli._EMBED_MAX_POINTS) in captured.err


def test_embed_check_radial_overflow_writes_only_its_refusal(capsys, monkeypatch):
    # the quadrature overflowed with numpy RuntimeWarnings before the refusal
    monkeypatch.setattr(embedding, "_CALIBRATION_CACHE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["embed-check", "--phi", "1", "--n", "160", "--radial"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("n", ["200", "300", "400"])
def test_embed_check_radial_quadrature_breakdown_writes_only_its_refusal(capsys, monkeypatch, n):
    # the quadrature's integrand overflowed to nan, and scipy's
    # IntegrationWarning came before the refusal
    monkeypatch.setattr(embedding, "_CALIBRATION_CACHE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["embed-check", "--phi", "1", "--n", n, "--radial"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: radial reduction overflows double precision at n = {n}, s = {int(n) / 2 + 1}\n"


@pytest.mark.parametrize("levels", ["0", "-1"])
def test_model_verify_refuses_empty_ladder_before_any_ratio(capsys, heat_file, monkeypatch, levels):
    # the refusal came only after both ensembles and the round trip had run
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a ratio was taken before --levels was checked")

    monkeypatch.setattr(model_problem, "two_sided_ratio", spy)
    code = cli.main(
        ["model-verify", heat_file, "--sigma", "4", "--ensemble", "2",
         "--lattice", "8x8x16", "--levels", levels]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert calls == []
    assert captured.out == ""
    assert captured.err == f"error: levels must be at least 1, got {levels}\n"


@pytest.fixture(scope="module")
def overflow_grids(tmp_path_factory):
    """A 32**3 x 64 grid, a 32**2 x 64 slab grid with its region and a
    k = 1, 4 x 4 JSON grid whose samples are all 1e200."""
    tmp = tmp_path_factory.mktemp("overflow")
    lat3 = sp.Lattice(k=3, n_x=32, n_t=64, L_x=2 * math.pi, L_t=2 * math.pi)
    gridio.save_grid(tmp / "cube.hgrd", sp.random_grid(lat3, 1))
    lat2 = sp.Lattice(k=2, n_x=32, n_t=64, L_x=2 * math.pi, L_t=2 * math.pi)
    supported = sp.random_grid(lat2, 2).samples * (lat2.t_axis() >= 0)
    region = ps.time_window_region(lat2, 0.0, lat2.L_t / 4)
    gridio.save_grid(tmp / "slab.hgrd", sp.GridFunction(lat2, supported), region)
    lat1 = sp.Lattice(k=1, n_x=4, n_t=4, L_x=2 * math.pi, L_t=2 * math.pi)
    d = json.loads(gridio.grid_to_json(sp.random_grid(lat1, 0)))
    d["re"] = d["im"] = [1e200] * 16
    (tmp / "huge.json").write_text(json.dumps(d))
    (tmp / "heat2d.json").write_text(json.dumps(HEAT_JSON))
    return tmp


OVERFLOWS = {
    # each once printed an inf or nan report, or a linear-algebra error,
    # after numpy overflow warnings
    "norm-s150": lambda t: ["norm", str(t / "cube.hgrd"), "--s", "150", "--gamma", "0.5"],
    "norm-1e200": lambda t: ["norm", str(t / "huge.json"), "--s", "3", "--gamma", "0.5"],
    "lemma71-s200": lambda t: [
        "verify-lemma71", "--s0", "0", "--s", "200", "--s1", "400", "--lattice", "16x16x16"],
    "plus-norm-s400": lambda t: ["plus-norm", str(t / "slab.hgrd"), "--s", "400", "--gamma", "0.5"],
    "model-verify-sigma300": lambda t: ["model-verify", str(t / "heat2d.json"), "--sigma", "300"],
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_overflowing_weight_or_sum_is_refused(capsys, overflow_grids, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(OVERFLOWS[case](overflow_grids))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: the ")
    assert captured.err.endswith(" overflows double precision\n")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, embedding",
    [(["--s", "1", "--embed-window", "0", "400"], [1, 1]), (["--s", "100"], None)],
    ids=["upper-weight-overflows", "s100"],
)
def test_finite_norm_with_large_weights_is_not_refused(capsys, overflow_grids, argv, embedding):
    # only the embedding window's upper weight overflows, or none does: both
    # reports are exact, and no warning is raised
    path = overflow_grids / "cube.hgrd"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_cli(capsys, ["norm", str(path), "--gamma", "0.5"] + argv)
    assert code == 0
    report = json.loads(out)
    g, _region = gridio.load_grid(path)
    assert report["hnorm"] == sp.hnorm(g, sp.AnisotropicIndex(float(argv[1]), 0.5))
    assert math.isfinite(report["hnorm"])
    assert report.get("embedding_constants") == embedding


@pytest.mark.parametrize(
    "k, n_x, n_t, L_x, L_t",
    [(63, 1, 2, 1e-5, 1.0), (1, 4, 4, 1e-300, 1e-300)],
    ids=["cell-volume", "squared-frequency"],
)
def test_periods_too_small_for_double_precision_are_refused(capsys, tmp_path, k, n_x, n_t, L_x, L_t):
    # the first once raised OverflowError out of main from the cell volume,
    # the second warned in r_gamma's squared frequency
    path = tmp_path / "tiny.hgrd"
    path.write_bytes(gridio._HEADER.pack(b"HGRD", k, n_x, n_t, L_x, L_t) + bytes(8 * n_x**k * n_t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["norm", str(path), "--s", "1", "--gamma", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: periods ")
    assert captured.err.endswith(" overflows double precision\n")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "k, n_x, n_t, L_x, L_t",
    [(63, 1, 2, 1e10, 1.0), (1, 4, 4, 1e300, 1e300)],
    ids=["k63", "k1"],
)
def test_periods_whose_cell_volume_underflows_are_refused(capsys, tmp_path, k, n_x, n_t, L_x, L_t):
    # the cell volume underflowed to 0, and the norm of an all-ones grid
    # was reported as "hnorm": 0 with exit 0
    path = tmp_path / "huge.hgrd"
    ones = np.ones(n_x**k * n_t, dtype=np.complex64).tobytes()
    path.write_bytes(gridio._HEADER.pack(b"HGRD", k, n_x, n_t, L_x, L_t) + ones)
    code = cli.main(["norm", str(path), "--s", "1", "--gamma", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: periods ")
    assert "the frequency cell underflows" in captured.err
    assert len(captured.err.splitlines()) == 1
