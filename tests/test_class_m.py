import math

import numpy as np
import pytest

from hormspace import class_m as cm


def test_constant_one_everywhere():
    phi = cm.constant_one()
    assert cm.eval_phi(phi, 17.0) == 1.0
    assert np.all(cm.eval_phi(phi, np.geomspace(1, 1e12, 50)) == 1.0)


def test_log_power_formula_region():
    phi = cm.log_power([1], cutoff=math.e)
    assert cm.eval_phi(phi, math.e) == pytest.approx(1.0, abs=1e-15)
    assert cm.eval_phi(phi, math.e**2) == pytest.approx(2.0, rel=1e-14)


def test_constant_continuation_below_cutoff():
    phi = cm.log_power([1], cutoff=math.e)
    # below the cutoff the value freezes at the cutoff value
    assert cm.eval_phi(phi, 1.0) == pytest.approx(1.0)
    assert cm.eval_phi(phi, 2.0) == pytest.approx(1.0)


def test_low_cutoff_allows_formula_at_small_r():
    phi = cm.log_power([1], cutoff=1.5)
    assert cm.eval_phi(phi, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_cutoff_continuity():
    # two-sided evaluation at the cutoff agrees to 1e-12 relative
    for phi in (cm.log_power([1]), cm.log_power([2, -1]), cm.log_power([-0.5])):
        c = phi.cutoff
        below = cm.eval_phi(phi, c * (1 - 1e-14))
        above = cm.eval_phi(phi, c * (1 + 1e-14))
        assert below == pytest.approx(above, rel=1e-12)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        cm.log_power([1], cutoff=1.0)  # log 1 = 0 not positive
    with pytest.raises(ValueError):
        cm.log_power([1, 2], cutoff=2.0)  # loglog 2 < 0
    with pytest.raises(ValueError):
        cm.PhiFunction(kind="log_power", exponents=())
    with pytest.raises(ValueError):
        cm.PhiFunction(kind="bogus")


def test_domain_error_below_one():
    with pytest.raises(ValueError):
        cm.eval_phi(cm.constant_one(), 0.5)


def test_positivity_and_boundedness_on_compacts():
    for phi in (cm.log_power([1]), cm.log_power([-1]), cm.log_power([2, -1])):
        r = np.geomspace(1.0, 1e6, 400)
        vals = cm.eval_phi(phi, r)
        assert np.all(vals > 0)
        assert np.all(np.isfinite(vals))
        assert np.all(np.isfinite(1.0 / vals))


def test_slow_variation_defect_values():
    phi = cm.log_power([1], cutoff=math.e)
    # |log(2r)/log(r) - 1| = log 2 / log r
    got = cm.slow_variation_defect(phi, 2.0, [1e6, 1e12])
    assert got[0] == pytest.approx(math.log(2) / math.log(1e6), rel=1e-12)
    assert got[0] == pytest.approx(0.0502, abs=2e-4)
    assert got[1] == pytest.approx(0.0251, abs=2e-4)
    assert got[1] < got[0]


def test_slow_variation_defect_constant_is_zero():
    got = cm.slow_variation_defect(cm.constant_one(), 2.0, [10.0, 100.0])
    assert np.all(got == 0.0)


def test_slow_variation_defect_errors():
    with pytest.raises(ValueError):
        cm.slow_variation_defect(cm.constant_one(), 2.0, [])
    with pytest.raises(ValueError):
        cm.slow_variation_defect(cm.constant_one(), 0.0, [10.0])
    with pytest.raises(ValueError):
        cm.slow_variation_defect(cm.constant_one(), 0.5, [1.0])  # lam*r < 1


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
@pytest.mark.parametrize(
    "phi",
    [cm.log_power([1]), cm.log_power([-1]), cm.log_power([2, -1])],
    ids=["log", "invlog", "log2-loglog-inv"],
)
def test_defect_strictly_decreasing_on_ladder(phi, lam):
    ladder = np.array([1e3, 1e6, 1e9, 1e12])
    d = cm.slow_variation_defect(phi, lam, ladder)
    assert np.all(np.diff(d) < 0)


def test_epsilon_bound_constant_certifies():
    # the returned c satisfies the two-sided bound on a fresh sample
    for phi, eps, r_max in [
        (cm.constant_one(), 0.1, 1e6),
        (cm.log_power([1]), 1.0, 1e3),
        (cm.log_power([-1]), 0.5, 1e4),
    ]:
        c = cm.epsilon_bound_constant(phi, eps, r_max)
        assert c >= 1.0
        r = np.geomspace(1.0, r_max, 500)
        vals = cm.eval_phi(phi, r)
        assert np.all(vals <= c * r**eps * (1 + 1e-9))
        assert np.all(vals >= r**-eps / c * (1 - 1e-9))


def test_epsilon_bound_constant_one_is_one():
    assert cm.epsilon_bound_constant(cm.constant_one(), 0.1, 1e6) == 1.0


def test_eval_phi_of_exp_matches_direct():
    phi = cm.log_power([2, -1])
    for u in (3.0, 10.0, 50.0):
        assert cm.eval_phi_of_exp(phi, u) == pytest.approx(
            cm.eval_phi(phi, math.exp(u)), rel=1e-13
        )
    # beyond direct reach: just check it evaluates and is positive
    assert cm.eval_phi_of_exp(phi, 1e12) > 0


def test_json_round_trip():
    for phi in (cm.constant_one(), cm.log_power([0.5, 0.6]), cm.log_power([1], cutoff=1.5)):
        again = cm.PhiFunction.from_json_dict(phi.to_json_dict())
        assert again == phi


@pytest.mark.parametrize(
    "make",
    [
        lambda: cm.log_power([math.nan]),
        lambda: cm.log_power([0.5, math.inf]),
        lambda: cm.log_power([1.0], cutoff=math.nan),
        lambda: cm.log_power([1.0], cutoff=math.inf),
        lambda: cm.PhiFunction.from_json_dict({"kind": "log_power", "exponents": [1.0], "cutoff": "nan"}),
        lambda: cm.PhiFunction.from_json_dict({"kind": "log", "exponents": [1.0]}),
    ],
    ids=["nan-exponent", "inf-exponent", "nan-cutoff", "inf-cutoff", "nan-cutoff-json",
         "unknown-kind"],
)
def test_phi_refuses_non_finite_parameters_and_unknown_kinds(make):
    # a nan exponent or cutoff once gave a weight that evaluated to nan
    with pytest.raises(ValueError):
        make()
