"""Entanglement swapping: optimal gain, verification fidelity, spectra."""

import math
import random

import pytest

import cvteleport.swap as swap_module
from cvteleport.criteria import bandwidth, teleport_fidelity
from cvteleport.epr import LosslessNopa, LossyNopa, TransferPair, ZeroBandwidth
from cvteleport.linmode import (
    Axis,
    InputModel,
    commutator_pairing,
    covariance,
    difference_variance,
)
from cvteleport.swap import (
    SwapConfig,
    optimal_gain,
    swap_fidelity,
    swap_once,
    swap_spectrum,
    swapped_epr_variances,
    verification_teleport,
)
from cvteleport.teleport import GainSchedule

COHERENT = InputModel.coherent()
EPS_3DB = 3.0 - 2.0 * math.sqrt(2.0)


def closed_form_fidelity(cfg, omega, gain):
    sp1, sm1 = cfg.source_ab.pair(omega).magnitudes_sq()
    sp2, sm2 = cfg.second_source.pair(omega).magnitudes_sq()
    a, b = sp1 + sp2, sm1 + sm2
    return 1.0 / (1.0 + (gain - 1.0) ** 2 * a / 4.0 + (gain + 1.0) ** 2 * b / 4.0)


# ---------------------------------------------------------------------------
# Optimal gain


def test_optimal_gain_is_tanh_for_flat_squeezers():
    rng = random.Random(401)
    for _ in range(100):
        r = rng.uniform(0, 5)
        pair = ZeroBandwidth(r).pair(0.0)
        assert abs(optimal_gain(pair) - math.tanh(2 * r)) < 1e-12
    assert optimal_gain(ZeroBandwidth(0.0).pair(0.0)) == 0.0
    assert optimal_gain(ZeroBandwidth(math.inf).pair(0.0)) == 1.0


def test_optimal_gain_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        optimal_gain(TransferPair(0.0, 0.0))


def test_optimal_gain_beats_a_dense_scan():
    rng = random.Random(409)
    for _ in range(10):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 4)
        cfg_opt = SwapConfig(LosslessNopa(eps))
        best = swap_fidelity(cfg_opt, omega)
        for k in range(1001):
            g = -1.0 + 2.5 * k / 1000
            f = swap_fidelity(SwapConfig(LosslessNopa(eps), gain=g), omega)
            assert best >= f - 1e-12


def test_optimal_gain_against_scipy_minimizer():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(419)
    for _ in range(10):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 3)
        cfg = SwapConfig(LosslessNopa(eps))
        g_closed = optimal_gain(LosslessNopa(eps).pair(omega))
        res = scipy_opt.minimize_scalar(
            lambda g: -closed_form_fidelity(cfg, omega, g),
            bounds=(-0.5, 1.5),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(res.x - g_closed) < 1e-6
        assert abs(-res.fun - swap_fidelity(cfg, omega)) < 1e-10


def test_optimal_gain_with_unequal_sources():
    rng = random.Random(421)
    for _ in range(30):
        p1 = LosslessNopa(rng.uniform(0.05, 0.9)).pair(rng.uniform(0, 3))
        p2 = LosslessNopa(rng.uniform(0.05, 0.9)).pair(rng.uniform(0, 3))
        sp1, sm1 = p1.magnitudes_sq()
        sp2, sm2 = p2.magnitudes_sq()
        want = (sp1 + sp2 - sm1 - sm2) / (sp1 + sp2 + sm1 + sm2)
        assert optimal_gain(p1, p2) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Swapped pair structure


def test_ideal_resources_swap_perfectly():
    cfg = SwapConfig(ZeroBandwidth(math.inf))
    assert swapped_epr_variances(cfg, 0.0) == (0.0, 0.0)
    assert swap_fidelity(cfg, 0.0) == 1.0


def test_no_resource_keeps_modes_uncorrelated():
    cfg = SwapConfig(LosslessNopa(0.0))
    out = swap_once(cfg, 0.0)
    assert out.swap_gain == 0.0
    assert covariance(out.x1, out.x4p, COHERENT, Axis.X) == pytest.approx(0.0, abs=1e-12)
    v_x, v_p = swapped_epr_variances(cfg, 0.0)
    assert v_x == pytest.approx(2.0, rel=1e-12)
    assert v_p == pytest.approx(2.0, rel=1e-12)
    assert swap_fidelity(cfg, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_swapped_entanglement_below_two_units():
    rng = random.Random(431)
    for _ in range(40):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 2)
        v_x, v_p = swapped_epr_variances(SwapConfig(LosslessNopa(eps)), omega)
        assert v_x < 2.0
        assert v_p == pytest.approx(v_x, rel=1e-12)


def test_verification_error_equals_swapped_epr_variance():
    rng = random.Random(433)
    for _ in range(40):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 3)
        gain = rng.choice([None, rng.uniform(0, 1.2)])
        cfg = SwapConfig(LosslessNopa(eps), gain=gain)
        out = verification_teleport(cfg, omega)
        v_x, v_p = swapped_epr_variances(cfg, omega)
        assert difference_variance(out.x_tel, COHERENT, Axis.X) == pytest.approx(
            v_x, rel=1e-12, abs=1e-12
        )
        assert difference_variance(out.p_tel, COHERENT, Axis.P) == pytest.approx(
            v_p, rel=1e-12, abs=1e-12
        )


# ---------------------------------------------------------------------------
# Fidelity values


def test_symbolic_fidelity_matches_closed_form():
    rng = random.Random(439)
    for _ in range(60):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 4)
        gain = rng.uniform(-0.5, 1.5)
        cfg = SwapConfig(LosslessNopa(eps), gain=gain)
        symbolic = teleport_fidelity(verification_teleport(cfg, omega)).fidelity
        assert abs(symbolic - closed_form_fidelity(cfg, omega, gain)) < 1e-12


def test_unequal_sources_fidelity():
    cfg = SwapConfig(LosslessNopa(0.2), LosslessNopa(0.5))
    omega = 0.3
    gain = cfg.gain_at(omega).real
    assert swap_fidelity(cfg, omega) == pytest.approx(
        closed_form_fidelity(cfg, omega, gain), rel=1e-12
    )
    assert cfg.second_source is not cfg.source_ab


def test_swap_maximum_at_zero_frequency():
    # Equal lossless sources at optimal gain: F = (a^2+b^2)/(a+b)^2 with
    # a, b the antisqueezed/squeezed magnitudes.
    for eps in (0.1, 0.4, 0.8):
        a = (1 + eps) ** 2
        b = (1 - eps) ** 2
        want = 1.0 / (1.0 + 2 * a * b / (a * a + b * b))
        assert swap_fidelity(SwapConfig(LosslessNopa(eps)), 0.0) == pytest.approx(
            want, rel=1e-12
        )


def test_swap_beats_classical_bound_whenever_pumped():
    rng = random.Random(443)
    for _ in range(50):
        eps = rng.uniform(0.01, 0.99)
        assert swap_fidelity(SwapConfig(LosslessNopa(eps)), 0.0) > 0.5


def test_forced_unit_gain_needs_3db():
    # With the swap gain pinned to 1 the verification fidelity only beats
    # 1/2 when the squeezing passes 3 dB (|S-|^2 < 1/2).
    at_boundary = swap_fidelity(SwapConfig(LosslessNopa(EPS_3DB), gain=1.0), 0.0)
    assert abs(at_boundary - 0.5) < 1e-12
    assert swap_fidelity(SwapConfig(LosslessNopa(EPS_3DB + 0.05), gain=1.0), 0.0) > 0.5
    assert swap_fidelity(SwapConfig(LosslessNopa(EPS_3DB - 0.05), gain=1.0), 0.0) < 0.5


def test_swapping_degrades_single_hop_teleportation():
    from cvteleport.criteria import nopa_fidelity_spectrum

    for eps in (0.1, 0.3, 0.6, 0.9):
        direct = nopa_fidelity_spectrum(eps, 0.0)
        swapped = swap_fidelity(SwapConfig(LosslessNopa(eps)), 0.0)
        assert swapped < direct
    # Only the threshold pump closes the gap: both reach unit fidelity.
    assert swap_fidelity(SwapConfig(LosslessNopa(1.0)), 0.0) == 1.0


def test_swap_commutators_are_canonical():
    rng = random.Random(449)
    for _ in range(60):
        if rng.random() < 0.5:
            src = LosslessNopa(rng.uniform(0, 0.95))
        else:
            src = LossyNopa(rng.uniform(0, 0.95), rng.uniform(0.1, 1.0))
        gain = rng.choice([None, rng.uniform(-0.5, 1.5)])
        cfg = SwapConfig(src, gain=gain)
        omega = rng.uniform(0, 4)
        out = swap_once(cfg, omega)
        assert abs(commutator_pairing(out.x1, out.p1) - 1.0) < 1e-12
        assert abs(commutator_pairing(out.x4p, out.p4p) - 1.0) < 1e-12
        ver = verification_teleport(cfg, omega)
        assert abs(commutator_pairing(ver.x_tel, ver.p_tel) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Spectra


def test_swap_spectrum_columns_match_point_evaluations():
    cfg = SwapConfig(LosslessNopa(0.4))
    grid = [0.0, 0.5, 1.0, 1.5]
    table = swap_spectrum(cfg, grid)
    for i, w in enumerate(grid):
        assert table.fidelity[i] == pytest.approx(swap_fidelity(cfg, w), rel=1e-12)
        v_x, _ = swapped_epr_variances(cfg, w)
        assert table.v_x[i] == pytest.approx(v_x, rel=1e-12)


def test_swap_spectrum_evaluates_the_gain_once_per_sweep(monkeypatch):
    # The optimal gain is one array call over the whole grid, on the port
    # powers the rows read too.
    calls = []

    def counted(*args):
        calls.append(args)
        return optimal_gain(*args)

    monkeypatch.setattr(swap_module, "optimal_gain", counted)
    powers = _count_calls(monkeypatch, LosslessNopa, "powers")
    table = swap_spectrum(SwapConfig(LosslessNopa(0.4)), [0.1 * k for k in range(10)])
    assert len(table) == 10
    assert len(calls) == 1
    assert len(powers) == 1


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize(
    "source, gain",
    [
        (LosslessNopa(0.4), None),
        (LosslessNopa(0.4), 0.8),
        (LossyNopa(0.4, 0.9), None),
        (LossyNopa(0.4, 0.9), 0.8),
    ],
    ids=["lossless-optimal", "lossless-fixed", "lossy-optimal", "lossy-fixed"],
)
def test_swap_row_evaluates_each_source_once(monkeypatch, source, gain):
    # Per sweep: one evaluation of the port powers over the whole grid,
    # shared by the optimal gain and both EPR pairs, and no transfer pair.
    # The closed form reads the real-form spectra.
    powers = _count_calls(monkeypatch, type(source), "powers")
    pairs = _count_calls(monkeypatch, type(source), "pair")
    table = swap_spectrum(SwapConfig(source, gain=gain), [0.1 * k for k in range(10)])
    assert len(table) == 10
    assert (len(powers), len(pairs)) == (1, 0)


def test_swap_spectrum_evaluates_two_sources_once_each(monkeypatch):
    lossless = _count_calls(monkeypatch, LosslessNopa, "powers")
    lossy = _count_calls(monkeypatch, LossyNopa, "powers")
    pairs = [_count_calls(monkeypatch, cls, "pair") for cls in (LosslessNopa, LossyNopa)]
    cfg = SwapConfig(LosslessNopa(0.4), LossyNopa(0.3, 0.8))
    assert len(swap_spectrum(cfg, [0.1 * k for k in range(10)])) == 10
    assert (len(lossless), len(lossy)) == (1, 1)
    assert pairs == [[], []]


def test_swap_config_builds_its_gain_schedule_once(monkeypatch):
    # A plain-number gain becomes a GainSchedule at construction; rows and
    # describe() reuse it.
    built = []
    original = GainSchedule.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GainSchedule, "__post_init__", counted)
    cfg = SwapConfig(LosslessNopa(0.4), gain=0.8)
    assert len(built) == 1 and cfg.gain.kind == "fixed"
    swap_spectrum(cfg, [0.1 * k for k in range(10)])
    cfg.describe()
    assert len(built) == 1


def test_threshold_row_is_infinite_not_nan():
    # At threshold only unit swap gain keeps the verification noise finite.
    cfg = SwapConfig(LosslessNopa(1.0), gain=0.5)
    table = swap_spectrum(cfg, [0.0])
    assert swapped_epr_variances(cfg, 0.0) == (math.inf, math.inf)
    assert (table.v_x[0], table.v_p[0], table.fidelity[0]) == (math.inf, math.inf, 0.0)


def test_swap_bandwidth_crossing_sits_at_threshold():
    cfg = SwapConfig(LosslessNopa(0.2))
    table = swap_spectrum(cfg, [0.1 * k for k in range(0, 31)])
    width = bandwidth(table, threshold=0.51)
    assert abs(swap_fidelity(cfg, width / 2) - 0.51) < 1e-5


def test_swap_outcome_metadata():
    cfg = SwapConfig(LosslessNopa(0.3), gain=0.7)
    out = swap_once(cfg, 1.2)
    assert out.omega == 1.2
    assert out.swap_gain == 0.7
    assert "swap[" in out.source and "0.3" in out.source
    assert "optimal" in SwapConfig(LosslessNopa(0.3)).describe()
