import importlib
import inspect
import json
import math
import struct
import sys
import warnings
import weakref

import pytest

from conftest import scattered_16x32
from hormspace import class_m as cm
from hormspace import cli, embedding, gridio, model_problem
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


def test_model_verify_holds_one_forcing_at_a_time(capsys, heat_file, monkeypatch):
    # each ensemble is drawn member by member: when a member is made, at most
    # the one before it is still alive, whatever the ensemble size
    made = []
    alive_at_call = []
    make_member = model_problem._forcing_modes

    def tracked(lattice, tau, seed):
        alive_at_call.append(sum(ref() is not None for ref in made))
        f = make_member(lattice, tau, seed)
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(model_problem, "_forcing_modes", tracked)
    code, _ = run_cli(
        capsys,
        ["model-verify", heat_file, "--sigma", "4", "--ensemble", "6", "--refine", "1",
         "--lattice", "8x8x16", "--levels", "1"],
    )
    assert code == 0
    assert len(alive_at_call) >= 12
    assert max(alive_at_call) <= 1, alive_at_call


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
