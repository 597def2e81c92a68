"""Classical boundaries, fidelity, spectrum tables and bandwidth extraction."""

import json
import math
import os
import random
import subprocess
import sys
import warnings

import pytest

import cvteleport
from cvteleport.criteria import (
    CONDITIONAL_SUM_LIMIT,
    FIDELITY_CLASSICAL_BOUND,
    OUTPUT_PRODUCT_LIMIT,
    TRANSFER_SUM_LIMIT,
    VARIANCE_PRODUCT_LIMIT,
    VARIANCE_SUM_LIMIT,
    ClassicalModelParams,
    SpectrumTable,
    bandwidth,
    classical_model,
    classical_objective,
    evaluate_criteria,
    fidelity_point,
    fidelity_spectrum,
    grid_search_classical,
    nopa_fidelity_spectrum,
    optimize_classical,
    output_product_limit,
    ralph_lam,
    teleport_fidelity,
)
from cvteleport.criteria import FidelityPoint, OBJECTIVES
from cvteleport.epr import LosslessNopa, LossyNopa, ZeroBandwidth
from cvteleport.linmode import Axis, InputModel, commutator_pairing, zero_expansion
from cvteleport.teleport import BellDetector, NonUnitGainWarning, teleport, teleport_single_mode

COHERENT = InputModel.coherent()

# Measurement split at which the 3 dB statement sits: |S-|^2 = 1/2 at
# omega = 0 happens exactly at this pump parameter.
EPS_3DB = 3.0 - 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Classical channel model


def test_classical_channel_is_a_valid_quantum_map():
    rng = random.Random(307)
    for _ in range(60):
        params = ClassicalModelParams(
            s_a=rng.uniform(0.1, 5.0),
            s_b=rng.uniform(0.1, 5.0),
            gamma_x=rng.uniform(-2, 2),
            gamma_p=rng.uniform(-2, 2),
        )
        x_out, p_out = classical_model(params)
        assert abs(commutator_pairing(x_out, p_out) - 1.0) < 1e-12


def test_classical_params_validation():
    with pytest.raises(ValueError):
        ClassicalModelParams(s_a=0.0)
    with pytest.raises(ValueError):
        ClassicalModelParams(s_b=-1.0)


@pytest.mark.parametrize(
    "objective,expected",
    [("product", 4.0), ("sum", 4.0), ("out_product", 9.0), ("out_sum", 6.0)],
)
def test_classical_optima_coherent(objective, expected):
    params, value = optimize_classical(COHERENT, objective)
    assert value == pytest.approx(expected, abs=1e-12)
    attained = classical_objective(params, COHERENT, objective)
    assert attained == pytest.approx(expected, abs=1e-9)


def test_classical_optima_squeezed_input():
    model = InputModel.squeezed(2.0)  # v_x = 1/4, v_p = 4
    _, product = optimize_classical(model, "product")
    assert product == pytest.approx(4.0, abs=1e-12)
    _, out_product = optimize_classical(model, "out_product")
    assert out_product == pytest.approx(9.0, abs=1e-12)  # pure input: sqrt(vx*vp)=1
    _, out_sum = optimize_classical(model, "out_sum")
    assert out_sum == pytest.approx(0.25 + 4.0 + 4.0, abs=1e-12)


def test_grid_search_never_beats_closed_form():
    models = [COHERENT, InputModel.squeezed(2.0), InputModel.with_variances(0.5, 3.0)]
    for model in models:
        for objective in OBJECTIVES:
            _, closed = optimize_classical(model, objective)
            _, gridded = grid_search_classical(model, objective, points=41)
            assert gridded >= closed - 1e-9


def test_random_classical_channels_respect_the_floors():
    rng = random.Random(311)
    for _ in range(2000):
        params = ClassicalModelParams(
            s_a=math.exp(rng.uniform(-2, 2)), s_b=math.exp(rng.uniform(-2, 2))
        )
        assert classical_objective(params, COHERENT, "product") >= VARIANCE_PRODUCT_LIMIT - 1e-9
        assert classical_objective(params, COHERENT, "sum") >= VARIANCE_SUM_LIMIT - 1e-9
        assert classical_objective(params, COHERENT, "out_product") >= OUTPUT_PRODUCT_LIMIT - 1e-9


def test_objective_validation():
    with pytest.raises(ValueError):
        classical_objective(ClassicalModelParams(), COHERENT, "norm")
    with pytest.raises(ValueError):
        optimize_classical(COHERENT, "norm")
    with pytest.raises(ValueError):
        grid_search_classical(COHERENT, "sum", points=1)
    with pytest.raises(ValueError, match="finite"):
        grid_search_classical(InputModel(math.inf, 1.0), "out_sum", points=3)


def test_output_product_limit_values():
    assert output_product_limit(COHERENT) == 9.0
    assert output_product_limit(InputModel.squeezed(3.0)) == pytest.approx(9.0)
    assert output_product_limit(InputModel.with_variances(2.0, 3.0)) == pytest.approx(
        (math.sqrt(6.0) + 2.0) ** 2
    )


def test_quantum_teleporter_beats_the_product_floor():
    report = evaluate_criteria(LosslessNopa(0.5))
    assert report.v_x == pytest.approx(2 * (1 - 4 * 0.5 / 2.25), rel=1e-12)
    assert report.v_product < VARIANCE_PRODUCT_LIMIT
    assert report.v_sum < VARIANCE_SUM_LIMIT


# ---------------------------------------------------------------------------
# Conditional variance and transfer coefficients


def test_ralph_lam_ideal_resource():
    out = teleport(ZeroBandwidth(math.inf))
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.v_c_x == 0.0 and res.v_c_p == 0.0
    assert res.transfer_sum == pytest.approx(2.0)


def test_ralph_lam_classical_channel():
    x_out, p_out = classical_model(ClassicalModelParams())
    res = ralph_lam(x_out, p_out, COHERENT)
    assert res.v_c_x == pytest.approx(2.0, rel=1e-12)
    assert res.v_c_p == pytest.approx(2.0, rel=1e-12)
    assert res.t_x == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.t_p == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.conditional_sum >= CONDITIONAL_SUM_LIMIT
    assert res.transfer_sum <= TRANSFER_SUM_LIMIT


def test_ralph_lam_3db_point_sits_on_both_boundaries():
    out = teleport(LosslessNopa(EPS_3DB))
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum == pytest.approx(CONDITIONAL_SUM_LIMIT, abs=1e-12)
    assert res.transfer_sum == pytest.approx(TRANSFER_SUM_LIMIT, abs=1e-12)


def test_ralph_lam_beyond_3db_beats_both():
    out = teleport(LosslessNopa(0.5), omega=0.3)
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum < CONDITIONAL_SUM_LIMIT
    assert res.transfer_sum > TRANSFER_SUM_LIMIT


def test_ralph_lam_zero_output_convention():
    res = ralph_lam(zero_expansion(), zero_expansion(), COHERENT)
    assert res == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Fidelity


def test_fidelity_classical_floor_is_exact():
    report = evaluate_criteria(LosslessNopa(0.0))
    assert report.fidelity == 0.5
    assert report.verdicts["fidelity"] is False


def test_fidelity_unit_gain_ignores_alpha():
    out = teleport_single_mode(0.0)
    for alpha in (0j, 3 + 4j, -2.5j):
        assert teleport_fidelity(out, alpha=alpha).fidelity == pytest.approx(0.5, rel=1e-12)


def test_fidelity_zero_gain_measures_overlap_decay():
    out = teleport_single_mode(0.0, gain=0.0)
    for alpha in (0j, 1 + 1j, 2 - 0.5j):
        want = math.exp(-abs(alpha) ** 2)
        assert teleport_fidelity(out, alpha=alpha).fidelity == pytest.approx(want, rel=1e-10)


def test_fidelity_point_caps_at_one():
    rng = random.Random(313)
    for _ in range(200):
        sigma_x = 0.5 + rng.uniform(0, 3)
        sigma_p = 0.5 + rng.uniform(0, 3)
        f = fidelity_point(1.0, sigma_x, sigma_p)
        assert f <= 1.0
    assert fidelity_point(1.0, 0.5, 0.5) == 1.0
    assert fidelity_point(1.0, 0.5, 0.5, alpha=5 + 5j) == 1.0  # unit gain, no error


def test_fidelity_point_validation():
    with pytest.raises(ValueError):
        fidelity_point(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        FidelityPoint(1.5, 0.5, 0.5, 1.0, 0j)
    with pytest.raises(ValueError):
        FidelityPoint(math.nan, 0.5, 0.5, 1.0, 0j)
    FidelityPoint(0.0, 0.5, 0.5, 0.0, 0j)  # zero is a legal fidelity


def test_closed_form_fidelity_matches_generic_path():
    rng = random.Random(317)
    for _ in range(100):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 5)
        beta = rng.choice([1.0, rng.uniform(0.2, 1.0)])
        eta = rng.choice([1.0, rng.uniform(0.6, 1.0)])
        src = LosslessNopa(eps) if beta == 1.0 else LossyNopa(eps, beta)
        out = teleport(src, detector=BellDetector(eta), omega=omega)
        generic = teleport_fidelity(out).fidelity
        closed = nopa_fidelity_spectrum(eps, omega, beta, eta)
        assert abs(generic - closed) < 1e-12


_WRONG_CLOSED_FORMS = """
import sys

from cvteleport import cli, criteria, swap
from cvteleport.epr import LosslessNopa

closed = criteria._closed_form_fidelity
criteria._closed_form_fidelity = lambda *args: closed(*args) + 1e-6
closed_swap = swap._closed_form_swap_fidelity
swap._closed_form_swap_fidelity = lambda *args: closed_swap(*args) + 1e-6
checks = {
    "fidelity_spectrum": lambda: criteria.fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0]),
    "evaluate_criteria": lambda: criteria.evaluate_criteria(LosslessNopa(0.5), 1.0),
    "swap_spectrum": lambda: swap.swap_spectrum(swap.SwapConfig(LosslessNopa(0.5)), [0.0]),
}
for name, check in checks.items():
    try:
        check()
    except AssertionError:
        continue
    sys.exit(name + " accepted a closed form off by 1e-6")
if cli.run(["point", "--epsilon", "0.5"]) != 2:
    sys.exit("the CLI did not report the disagreement as a runtime error")
sys.exit(0 if sys.flags.optimize else "not running under -O")
"""


def test_closed_form_disagreement_raises_under_optimize():
    # python -O strips assert statements; the cross-checks must survive it.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_CLOSED_FORMS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_fidelity_beats_half_iff_squeezed():
    rng = random.Random(331)
    for _ in range(100):
        eps = rng.uniform(0.001, 1.0)
        omega = rng.uniform(0, 6)
        assert nopa_fidelity_spectrum(eps, omega) > 0.5
    assert nopa_fidelity_spectrum(0.0, 0.0) == 0.5
    assert nopa_fidelity_spectrum(1.0, 0.0) == 1.0


# ---------------------------------------------------------------------------
# Spectrum tables


def test_spectrum_table_csv_roundtrip_is_stable():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 0.5, 1.0, 1.5])
    text = table.to_csv()
    again = SpectrumTable.from_csv(text)
    assert again.to_csv() == text
    assert len(again) == 4
    assert again.evaluator is None


def test_spectrum_table_json_payload():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0])
    payload = json.loads(table.to_json())
    assert sorted(payload) == ["fidelity", "omega", "v_p", "v_x"]
    assert len(payload["fidelity"]) == 2
    assert payload["fidelity"][0] == pytest.approx(0.9, rel=1e-9)


def test_spectrum_table_file_io(tmp_path):
    table = fidelity_spectrum(LosslessNopa(0.3), [0.0, 1.0, 2.0])
    path = tmp_path / "sweep.csv"
    path.write_text(table.to_csv())
    again = SpectrumTable.from_csv(str(path))
    assert again.omega == table.omega
    jpath = tmp_path / "sweep.json"
    jpath.write_text(table.to_json())
    assert json.loads(jpath.read_text())["omega"] == [0.0, 1.0, 2.0]


def test_spectrum_table_path_with_a_comma(tmp_path):
    table = fidelity_spectrum(LosslessNopa(0.3), [0.0, 1.0, 2.0])
    path = tmp_path / "tab,le.csv"
    path.write_text(table.to_csv())
    assert SpectrumTable.from_csv(str(path)).to_csv() == table.to_csv()


def test_spectrum_table_validation():
    with pytest.raises(ValueError):
        SpectrumTable((), (), (), ())
    with pytest.raises(ValueError):
        SpectrumTable((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SpectrumTable((0.0, 1.0), (1.0,), (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SpectrumTable.from_csv("a,b,c,d\n0,1,1,0.5\n")
    with pytest.raises(ValueError):
        SpectrumTable.from_csv("omega,v_x,v_p,fidelity\n0,1,1\n")


def test_rows_iterates_in_order():
    table = SpectrumTable((0.0, 1.0), (2.0, 2.1), (2.0, 2.2), (0.5, 0.4))
    assert list(table.rows()) == [(0.0, 2.0, 2.0, 0.5), (1.0, 2.1, 2.2, 0.4)]


# ---------------------------------------------------------------------------
# Bandwidth


def closed_form_width(eps, threshold=0.51):
    # F(w) >= t  <=>  (1+eps)^2 + w^2 <= 4*eps*t/(2t-1)
    cap = 4.0 * eps * threshold / (2.0 * threshold - 1.0)
    return 2.0 * math.sqrt(cap - (1.0 + eps) ** 2)


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_bandwidth_matches_closed_form(eps):
    grid = [0.1 * k for k in range(0, 120)]
    table = fidelity_spectrum(LosslessNopa(eps), grid)
    got = bandwidth(table)
    assert got == pytest.approx(closed_form_width(eps), abs=1e-4)


def test_bandwidth_zero_when_never_above():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0, 2.0])
    assert bandwidth(table, threshold=0.95) == 0.0
    classical = fidelity_spectrum(LosslessNopa(0.0), [0.0, 1.0])
    assert bandwidth(classical, threshold=0.51) == 0.0


def test_bandwidth_extends_beyond_the_grid():
    # Short grid that never crosses; the attached evaluator lets the search
    # double out until it brackets the crossing.
    table = fidelity_spectrum(LosslessNopa(0.6), [0.0, 0.5, 1.0])
    assert bandwidth(table) == pytest.approx(closed_form_width(0.6), abs=1e-4)


@pytest.mark.parametrize(
    "kwargs, threshold",
    [
        ({}, 0.4),  # below the classical 1/2 every frequency qualifies
        ({"gain": 0.5}, 0.51),  # F tends to 1/(1 + g^2) = 0.8 at large omega
    ],
)
def test_bandwidth_is_infinite_when_never_crossed(kwargs, threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0], **kwargs)
    assert bandwidth(table, threshold) == math.inf


def test_bandwidth_interpolates_without_evaluator():
    grid = [0.05 * k for k in range(0, 240)]
    table = fidelity_spectrum(LosslessNopa(0.4), grid)
    loaded = SpectrumTable.from_csv(table.to_csv())
    assert loaded.evaluator is None
    got = bandwidth(loaded)
    assert got == pytest.approx(closed_form_width(0.4), abs=0.02)


def test_bandwidth_without_evaluator_needs_a_crossing():
    loaded = SpectrumTable.from_csv(
        fidelity_spectrum(LosslessNopa(0.6), [0.0, 0.5, 1.0]).to_csv()
    )
    with pytest.raises(ValueError):
        bandwidth(loaded)


def test_nonunit_gain_spectrum_warns():
    with pytest.warns(NonUnitGainWarning):
        fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0], gain=0.9)


# ---------------------------------------------------------------------------
# Combined report


def test_report_all_verdicts_true_for_strong_squeezing():
    report = evaluate_criteria(LosslessNopa(0.5))
    assert report.fidelity == pytest.approx(0.9, rel=1e-12)
    assert all(report.verdicts.values())
    assert report.avg_fidelity_zero is False
    assert report.out_product_limit == 9.0


def test_report_all_verdicts_false_at_the_boundary():
    report = evaluate_criteria(LosslessNopa(0.0))
    assert not any(report.verdicts.values())
    assert report.v_product == pytest.approx(4.0, rel=1e-12)
    assert report.fidelity == 0.5


def test_report_flags_nonunit_gain_average_rule():
    report = evaluate_criteria(LosslessNopa(0.5), gain=0.95)
    assert report.avg_fidelity_zero is True
    assert report.gain == 0.95


def test_report_json_is_complete():
    report = evaluate_criteria(LosslessNopa(0.4), omega=0.5)
    payload = json.loads(report.to_json())
    for key in ("v_x", "v_p", "v_product", "v_sum", "v_out_x", "v_out_p",
                "v_c_x", "v_c_p", "t_x", "t_p", "fidelity", "verdicts"):
        assert key in payload
    assert set(payload["verdicts"]) == {
        "variance_product", "variance_sum", "output_product",
        "conditional_sum", "transfer_sum", "fidelity",
    }


def test_report_json_complex_gain_encoding():
    report = evaluate_criteria(LosslessNopa(0.4), gain=0.9 + 0.1j)
    payload = json.loads(report.to_json())
    assert payload["gain"] == [0.9, 0.1]


def test_report_with_detector_loss():
    eta2 = 0.9
    report = evaluate_criteria(
        LosslessNopa(0.6), detector=BellDetector.from_efficiency(eta2)
    )
    want = 1.0 / (2.0 - 4 * 0.6 / 2.56 + (1 - eta2) / eta2)
    assert report.fidelity == pytest.approx(want, rel=1e-12)
    assert report.eta == pytest.approx(math.sqrt(eta2))
