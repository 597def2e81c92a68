"""Entanglement swapping: optimal gain, verification fidelity, spectra."""

import math
import random

import numpy as np
import pytest

import cvteleport.swap as swap_module
from cvteleport.criteria import bandwidth, fidelity_spectrum, teleport_fidelity
from cvteleport.epr import CustomSpectrum, Nopa, PortPowers, ZeroBandwidth
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
    verification_teleport,
)
from cvteleport.teleport import GainSchedule
from references import swapped_epr_variances

COHERENT = InputModel.coherent()
EPS_3DB = 3.0 - 2.0 * math.sqrt(2.0)


def closed_form_fidelity(cfg, omega, gain):
    sp1, sm1 = cfg.source_ab.pair(omega).powers()[:2]
    sp2, sm2 = cfg.source_cd.pair(omega).powers()[:2]
    a, b = sp1 + sp2, sm1 + sm2
    return 1.0 / (1.0 + (gain - 1.0) ** 2 * a / 4.0 + (gain + 1.0) ** 2 * b / 4.0)


# ---------------------------------------------------------------------------
# Optimal gain


def test_optimal_gain_is_tanh_for_flat_squeezers():
    rng = random.Random(401)
    for _ in range(100):
        r = rng.uniform(0, 5)
        powers = ZeroBandwidth(r).powers(0.0)
        assert abs(optimal_gain(powers) - math.tanh(2 * r)) < 1e-12
    assert optimal_gain(ZeroBandwidth(0.0).powers(0.0)) == 0.0
    assert optimal_gain(ZeroBandwidth(math.inf).powers(0.0)) == 1.0


def test_optimal_gain_without_squeezed_power_is_zero():
    # With no squeezed-port power all the noise is the loss ports',
    # |gs-1|^2 + |gs+1|^2 times one spectrum, which is least at gs = 0; the
    # gain is the limit 0 of the neighbouring inputs, not 0/0.
    assert optimal_gain(PortPowers(0.0, 0.0)) == 0.0
    gains = optimal_gain(PortPowers(np.array([0.0, 2.0]), np.array([0.0, 1.0])))
    assert gains.tolist() == [0.0, 1.0 / 3.0]
    src = Nopa(0.0, 0.5)
    assert optimal_gain(src.powers(0.0)) == 0.0
    assert optimal_gain(Nopa(1e-9, 0.5).powers(0.0)) == pytest.approx(0.0, abs=1e-8)
    table = swap_spectrum(SwapConfig(src), [0.0, 0.5])
    assert table.v_x[0] == table.v_p[0] == pytest.approx(2.0, rel=1e-15)
    assert table.fidelity[0] == pytest.approx(0.5, rel=1e-15)


def test_optimal_gain_beats_a_dense_scan():
    rng = random.Random(409)
    for _ in range(10):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 4)
        cfg_opt = SwapConfig(Nopa(eps))
        best = swap_fidelity(cfg_opt, omega)
        for k in range(1001):
            g = -1.0 + 2.5 * k / 1000
            f = swap_fidelity(SwapConfig(Nopa(eps), gain=g), omega)
            assert best >= f - 1e-12


def test_optimal_gain_against_scipy_minimizer():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(419)
    for _ in range(10):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 3)
        cfg = SwapConfig(Nopa(eps))
        g_closed = optimal_gain(Nopa(eps).pair(omega).powers())
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
        p1 = Nopa(rng.uniform(0.05, 0.9)).pair(rng.uniform(0, 3)).powers()
        p2 = Nopa(rng.uniform(0.05, 0.9)).pair(rng.uniform(0, 3)).powers()
        sp1, sm1 = p1[:2]
        sp2, sm2 = p2[:2]
        want = (sp1 + sp2 - sm1 - sm2) / (sp1 + sp2 + sm1 + sm2)
        assert optimal_gain(p1, p2) == pytest.approx(want, rel=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_optimal_gain_keeps_its_limits_beside_ordinary_rows():
    # inf/inf is the threshold limit 1 and 0/0 the lossy limit 0; the
    # ordinary rows in the same array are the plain quotient.
    s_plus, s_minus = np.array([math.inf, 0.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0, 0.5])
    gains = optimal_gain(PortPowers(s_plus, s_minus))
    assert _bits(gains) == _bits([1.0, 0.0, 2.0 / 6.0, 5.0 / 7.0])
    second = PortPowers(np.array([1.0, 0.0, 2.0, math.inf]), np.array([1.0, 0.0, 1.0, 0.0]))
    gains = optimal_gain(PortPowers(s_plus, s_minus), second)
    assert _bits(gains) == _bits([1.0, 0.0, 2.0 / 6.0, 1.0])


@pytest.mark.parametrize("gain", [None, 1.0], ids=["optimal", "unit"])
def test_swapped_quiet_spectrum_is_finite_at_threshold(gain):
    # At threshold and omega = 0, V+ = inf and the gain is 1, so the noisy
    # term is the exact zero of its rule, not 0*inf; the rows past it are
    # the one-frequency values.
    cfg = SwapConfig(Nopa(1.0), gain=gain)
    grid = np.array([0.0, 0.25, 1.0])
    quiet = swap_module._SwappedPair(cfg, grid).quiet
    rows = [swap_module._SwappedPair(cfg, w).quiet for w in grid[1:].tolist()]
    assert _bits(quiet) == _bits([0.0, *rows])
    assert all(0.0 < q < math.inf for q in rows)


# ---------------------------------------------------------------------------
# Swapped pair structure


def test_ideal_resources_swap_perfectly():
    cfg = SwapConfig(ZeroBandwidth(math.inf))
    assert swapped_epr_variances(cfg, 0.0) == (0.0, 0.0)
    assert swap_fidelity(cfg, 0.0) == 1.0


def test_no_resource_keeps_modes_uncorrelated():
    cfg = SwapConfig(Nopa(0.0))
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
        v_x, v_p = swapped_epr_variances(SwapConfig(Nopa(eps)), omega)
        assert v_x < 2.0
        assert v_p == pytest.approx(v_x, rel=1e-12)


def test_verification_error_equals_swapped_epr_variance():
    rng = random.Random(433)
    for _ in range(40):
        eps = rng.uniform(0.05, 0.95)
        omega = rng.uniform(0, 3)
        gain = rng.choice([None, rng.uniform(0, 1.2)])
        cfg = SwapConfig(Nopa(eps), gain=gain)
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
        cfg = SwapConfig(Nopa(eps), gain=gain)
        symbolic = teleport_fidelity(verification_teleport(cfg, omega))
        assert abs(symbolic - closed_form_fidelity(cfg, omega, gain)) < 1e-12


def test_one_source_is_the_same_source_twice():
    # source_cd = None is source_ab itself, so the two spellings are one config.
    src = Nopa(0.4)
    assert SwapConfig(src).source_cd is src
    assert SwapConfig(src) == SwapConfig(src, src)
    assert SwapConfig(src).describe() == "swap[nopa(epsilon=0.4) & nopa(epsilon=0.4), gain=optimal]"


def test_unequal_sources_fidelity():
    cfg = SwapConfig(Nopa(0.2), Nopa(0.5))
    omega = 0.3
    gain = swap_module._SwappedPair(cfg, omega).gain
    assert swap_fidelity(cfg, omega) == pytest.approx(
        closed_form_fidelity(cfg, omega, gain), rel=1e-12
    )
    assert cfg.source_cd is not cfg.source_ab


def test_swap_maximum_at_zero_frequency():
    # Equal lossless sources at optimal gain: F = (a^2+b^2)/(a+b)^2 with
    # a, b the antisqueezed/squeezed magnitudes.
    for eps in (0.1, 0.4, 0.8):
        a = (1 + eps) ** 2
        b = (1 - eps) ** 2
        want = 1.0 / (1.0 + 2 * a * b / (a * a + b * b))
        assert swap_fidelity(SwapConfig(Nopa(eps)), 0.0) == pytest.approx(
            want, rel=1e-12
        )


def test_swap_beats_classical_bound_whenever_pumped():
    rng = random.Random(443)
    for _ in range(50):
        eps = rng.uniform(0.01, 0.99)
        assert swap_fidelity(SwapConfig(Nopa(eps)), 0.0) > 0.5


def test_forced_unit_gain_needs_3db():
    # With the swap gain pinned to 1 the verification fidelity only beats
    # 1/2 when the squeezing passes 3 dB (|S-|^2 < 1/2).
    at_boundary = swap_fidelity(SwapConfig(Nopa(EPS_3DB), gain=1.0), 0.0)
    assert abs(at_boundary - 0.5) < 1e-12
    assert swap_fidelity(SwapConfig(Nopa(EPS_3DB + 0.05), gain=1.0), 0.0) > 0.5
    assert swap_fidelity(SwapConfig(Nopa(EPS_3DB - 0.05), gain=1.0), 0.0) < 0.5


def test_swapping_degrades_single_hop_teleportation():
    from closed_form import nopa_fidelity_spectrum

    for eps in (0.1, 0.3, 0.6, 0.9):
        direct = nopa_fidelity_spectrum(eps, 0.0)
        swapped = swap_fidelity(SwapConfig(Nopa(eps)), 0.0)
        assert swapped < direct
    # Only the threshold pump closes the gap: both reach unit fidelity.
    assert swap_fidelity(SwapConfig(Nopa(1.0)), 0.0) == 1.0


def test_swap_commutators_are_canonical():
    rng = random.Random(449)
    for _ in range(60):
        if rng.random() < 0.5:
            src = Nopa(rng.uniform(0, 0.95))
        else:
            src = Nopa(rng.uniform(0, 0.95), rng.uniform(0.1, 1.0))
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
    cfg = SwapConfig(Nopa(0.4))
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
    powers = _count_calls(monkeypatch, Nopa, "powers")
    table = swap_spectrum(SwapConfig(Nopa(0.4)), [0.1 * k for k in range(10)])
    assert len(table) == 10
    assert len(calls) == 1
    assert len(powers) == 1


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize(
    "source, gain",
    [
        (Nopa(0.4), None),
        (Nopa(0.4), 0.8),
        (Nopa(0.4, 0.9), None),
        (Nopa(0.4, 0.9), 0.8),
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
    powers = _count_calls(monkeypatch, Nopa, "powers")
    pairs = _count_calls(monkeypatch, Nopa, "pair")
    cfg = SwapConfig(Nopa(0.4), Nopa(0.3, 0.8))
    assert len(swap_spectrum(cfg, [0.1 * k for k in range(10)])) == 10
    assert len(powers) == 2
    assert {id(src) for src in powers} == {id(cfg.source_ab), id(cfg.source_cd)}
    assert pairs == []


def test_a_tabulated_source_is_evaluated_once_per_kernel_call(monkeypatch):
    # A CustomSpectrum has no real form: its powers and its spectra both go
    # through pair().  The kernel sums the powers it took for the port noise
    # again for the closed form, and the swapped pair for V-_eff, so a
    # table and each evaluator call (as bandwidth() makes) take one pair(),
    # teleport and swap alike; swap_once takes one more, for the amplitudes
    # of its expansions.  The table is a lossless NOPA's: a lossy one's
    # squeezed ports alone fall below vacuum, which a table may not.
    src = Nopa(0.6, 0.8)
    nodes = [0.25 * k for k in range(41)]
    pairs = [Nopa(0.6).pair(w) for w in nodes]
    custom = CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])
    calls = _count_calls(monkeypatch, CustomSpectrum, "pair")
    grid = [0.1 * k for k in range(51)]
    for sweep in (
        lambda: fidelity_spectrum(custom, grid),
        lambda: swap_spectrum(SwapConfig(custom), grid),
        lambda: swap_spectrum(SwapConfig(custom, custom), grid),
        lambda: swap_spectrum(SwapConfig(src, custom, gain=0.8), grid),
    ):
        table = sweep()
        assert (len(table), len(calls)) == (51, 1)
        table.evaluator(np.array([2.5, 7.5]))
        assert len(calls) == 2
        calls.clear()
    swap_once(SwapConfig(src, custom), 0.3)
    assert len(calls) == 2


def test_swap_config_builds_its_gain_schedule_once(monkeypatch):
    # A plain-number gain becomes a GainSchedule at construction; rows and
    # describe() reuse it.
    built = []
    original = GainSchedule.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GainSchedule, "__post_init__", counted)
    cfg = SwapConfig(Nopa(0.4), gain=0.8)
    assert len(built) == 1 and cfg.gain.describe() == "fixed:0.8"
    swap_spectrum(cfg, [0.1 * k for k in range(10)])
    cfg.describe()
    assert len(built) == 1


def test_threshold_row_is_infinite_not_nan():
    # At threshold only unit swap gain keeps the verification noise finite.
    cfg = SwapConfig(Nopa(1.0), gain=0.5)
    table = swap_spectrum(cfg, [0.0])
    assert swapped_epr_variances(cfg, 0.0) == (math.inf, math.inf)
    assert (table.v_x[0], table.v_p[0], table.fidelity[0]) == (math.inf, math.inf, 0.0)


def test_swap_bandwidth_crossing_sits_at_threshold():
    cfg = SwapConfig(Nopa(0.2))
    table = swap_spectrum(cfg, [0.1 * k for k in range(0, 31)])
    width = bandwidth(table, threshold=0.51)
    assert abs(swap_fidelity(cfg, width / 2) - 0.51) < 1e-5


def test_swap_outcome_metadata():
    cfg = SwapConfig(Nopa(0.3), gain=0.7)
    out = swap_once(cfg, 1.2)
    assert out.omega == 1.2
    assert out.swap_gain == 0.7
    assert "swap[" in out.source and "0.3" in out.source
    assert "optimal" in SwapConfig(Nopa(0.3)).describe()
