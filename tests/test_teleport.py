"""Teleportation pipeline tests: variances, gain, detector loss, commutators."""

import math
import random
import warnings

import pytest

from cvteleport.criteria import evaluate_criteria, fidelity_spectrum
from cvteleport.epr import Nopa, ZeroBandwidth
from cvteleport.linmode import Axis, InputModel, commutator_pairing, normalized_variance
from closed_form import nopa_error_variance
from cvteleport.swap import SwapConfig, swap_fidelity
from cvteleport.teleport import (
    BellDetector,
    GainSchedule,
    NonUnitGainWarning,
    as_gain,
    spectral_variance_tel_in,
    teleport,
)

COHERENT = InputModel.coherent()


def error_variances(outcome, model=COHERENT):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        return spectral_variance_tel_in(outcome, model)


def test_ideal_epr_is_the_identity_channel():
    out = teleport(ZeroBandwidth(math.inf))
    assert out.x_tel.input_coeff == 1.0 and not out.x_tel.terms
    assert out.p_tel.input_coeff == 1.0 and not out.p_tel.terms
    assert error_variances(out) == (0.0, 0.0)


def test_no_squeezing_costs_two_units_per_quadrature():
    out = teleport(ZeroBandwidth(0.0))
    v_x, v_p = spectral_variance_tel_in(out, COHERENT)
    assert v_x == pytest.approx(2.0, rel=1e-12)
    assert v_p == pytest.approx(2.0, rel=1e-12)
    # Same floor without any source at all (epsilon = 0), at any frequency.
    for omega in (0.0, 1.3, 4.0):
        v_x, v_p = spectral_variance_tel_in(teleport(Nopa(0.0), omega=omega), COHERENT)
        assert v_x == pytest.approx(2.0, rel=1e-12)
        assert v_p == pytest.approx(2.0, rel=1e-12)


def test_excess_noise_is_twice_the_squeezing_spectrum():
    rng = random.Random(211)
    for _ in range(50):
        eps = rng.uniform(0, 0.999)
        omega = rng.uniform(0, 6)
        out = teleport(Nopa(eps), omega=omega)
        _, quiet = Nopa(eps).pair(omega).powers()[:2]
        v_x, v_p = spectral_variance_tel_in(out, COHERENT)
        assert abs(v_x - 2 * quiet) < 1e-12
        assert abs(v_p - 2 * quiet) < 1e-12
        # The input never enters at unit gain, so squeezed inputs see the
        # same error spectrum.
        v_x2, v_p2 = spectral_variance_tel_in(out, InputModel.squeezed(1.7))
        assert v_x2 == v_x and v_p2 == v_p


def test_threshold_stays_finite_at_unit_gain():
    out = teleport(Nopa(1.0), omega=0.0)
    assert error_variances(out) == (0.0, 0.0)
    # Away from zero frequency the closed form 2*w^2/(4+w^2) applies.
    out2 = teleport(Nopa(1.0), omega=2.0)
    v_x, v_p = spectral_variance_tel_in(out2, COHERENT)
    assert v_x == pytest.approx(1.0, rel=1e-12)
    assert v_p == pytest.approx(1.0, rel=1e-12)


def test_closed_form_with_loss_and_detector():
    rng = random.Random(223)
    for _ in range(80):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.1, 1.0)
        omega = rng.uniform(0, 5)
        eta = rng.uniform(0.5, 1.0)
        out = teleport(Nopa(eps, beta), detector=BellDetector(eta), omega=omega)
        want = nopa_error_variance(eps, omega, beta, eta)
        v_x, v_p = spectral_variance_tel_in(out, COHERENT)
        assert abs(v_x - want) < 1e-12
        assert abs(v_p - want) < 1e-12


def test_variance_grows_as_detectors_degrade():
    values = []
    for eta in (1.0, 0.95, 0.9, 0.8, 0.6):
        out = teleport(Nopa(0.5), detector=BellDetector(eta), omega=0.5)
        values.append(spectral_variance_tel_in(out, COHERENT)[0])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gain_mismatch_formula_zero_bandwidth():
    # 4(gain) against the flat-squeezer pipeline: the input contributes
    # (g-1)^2 and the EPR terms (g-1)^2 e^{2r}/2 + (g+1)^2 e^{-2r}/2.
    rng = random.Random(227)
    for _ in range(60):
        r = rng.uniform(0, 2.5)
        g = rng.uniform(-0.5, 2.0)
        out = teleport(ZeroBandwidth(r), gain=g)
        want = (g - 1) ** 2 + ((g - 1) ** 2 * math.exp(2 * r) + (g + 1) ** 2 * math.exp(-2 * r)) / 2
        v_x, v_p = error_variances(out)
        assert v_x == pytest.approx(want, rel=1e-11, abs=1e-12)
        assert v_p == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_nonunit_gain_warns_and_unit_gain_does_not():
    out = teleport(Nopa(0.3), gain=0.9)
    with pytest.warns(NonUnitGainWarning):
        spectral_variance_tel_in(out, COHERENT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectral_variance_tel_in(teleport(Nopa(0.3)), COHERENT)


def test_detector_vacua_enter_only_below_unit_efficiency():
    clean = teleport(Nopa(0.4))
    assert not any(label.startswith("det_") for label in clean.x_tel.labels())
    lossy = teleport(Nopa(0.4), detector=BellDetector(0.9))
    assert {"det_d", "det_e"} <= lossy.x_tel.labels()
    assert {"det_f", "det_g"} <= lossy.p_tel.labels()
    # Detector noise weight: gain * sqrt(1-eta^2)/eta on each of two vacua.
    tau = math.sqrt(1 - 0.81) / 0.9
    assert abs(lossy.x_tel.coefficient("det_d", Axis.X) - tau) < 1e-12


def test_detector_validation():
    with pytest.raises(ValueError):
        BellDetector(0.0)
    with pytest.raises(ValueError):
        BellDetector(1.1)
    det = BellDetector.from_efficiency(0.81)
    assert det.eta == pytest.approx(0.9)
    assert BellDetector(1.0).excess == 0.0
    with pytest.raises(ValueError):
        BellDetector.from_efficiency(0.0)


def test_gain_schedule_forms():
    assert as_gain(1.0).describe() == "unit"
    assert as_gain(0.5).describe() == "fixed:0.5"
    assert as_gain(GainSchedule.unit()) is not None
    sched = GainSchedule.per_frequency(lambda w: 1.0 / (1.0 + w * w))
    assert sched.at(2.0) == pytest.approx(0.2)
    assert sched.describe() == "per-frequency"
    assert GainSchedule.fixed(0.7).describe() == "fixed:0.7"
    assert GainSchedule.fixed(0.5j).describe() == "fixed:0.5j"
    assert GainSchedule.unit().describe() == "unit"
    # The kind is read from the value, so it cannot contradict the gain
    # that teleport() runs at.
    assert GainSchedule.fixed(1).describe() == "unit"
    assert GainSchedule(0.5).describe() == "fixed:0.5"
    assert teleport(Nopa(0.2), gain=GainSchedule(0.5)).gain == 0.5
    assert SwapConfig(Nopa(0.2), gain=GainSchedule(0.5)).describe().endswith("gain=fixed:0.5]")
    out = teleport(Nopa(0.2), gain=sched, omega=3.0)
    assert out.gain == pytest.approx(0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: swap_fidelity(SwapConfig(Nopa(0.5), gain=math.nan), 0.3),
        lambda: swap_fidelity(SwapConfig(Nopa(0.5), gain=math.inf), 0.3),
        lambda: fidelity_spectrum(Nopa(0.5), [0.0, 1.0], gain=math.nan),
        lambda: evaluate_criteria(Nopa(0.5), 0.3, gain=complex(1, math.inf)),
        lambda: fidelity_spectrum(
            Nopa(0.5), [0.0, 1.0], gain=GainSchedule.per_frequency(lambda w: math.nan)
        ),
    ],
    ids=["swap-nan", "swap-inf", "spectrum-nan", "criteria-complex-inf", "per-frequency-nan"],
)
def test_non_finite_gain_is_rejected_by_name(call):
    with pytest.raises(ValueError, match="gain must be finite"):
        call()


def test_outcome_records_its_setting():
    out = teleport(Nopa(0.25), gain=0.8, detector=BellDetector(0.9), omega=1.5)
    assert out.omega == 1.5
    assert out.gain == 0.8
    assert out.eta == 0.9
    assert "0.25" in out.source


def test_output_commutator_is_canonical():
    rng = random.Random(233)
    for _ in range(60):
        if rng.random() < 0.5:
            src = Nopa(rng.uniform(0, 0.999))
        else:
            src = Nopa(rng.uniform(0, 0.95), rng.uniform(0.1, 1.0))
        out = teleport(
            src,
            gain=rng.uniform(-0.5, 2.0),
            detector=BellDetector(rng.uniform(0.4, 1.0)),
            omega=rng.uniform(0, 5),
        )
        pairing = commutator_pairing(out.x_tel, out.p_tel)
        assert abs(pairing - 1.0) < 1e-12


def test_output_variance_splits_into_input_plus_noise():
    # At unit gain V_out = V_in + V_added on each axis.
    model = InputModel(0.6, 2.1)
    out = teleport(Nopa(0.5), omega=0.8)
    v_added_x, v_added_p = spectral_variance_tel_in(out, model)
    assert normalized_variance(out.x_tel, model, Axis.X) == pytest.approx(
        model.v_x + v_added_x, rel=1e-12
    )
    assert normalized_variance(out.p_tel, model, Axis.P) == pytest.approx(
        model.v_p + v_added_p, rel=1e-12
    )
