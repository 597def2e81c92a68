"""Squeezing sources: transfer amplitudes, EPR ports, tabulated spectra."""

import math
import random

import numpy as np
import pytest

from cvteleport.epr import (
    CustomSpectrum,
    Nopa,
    NopaParams,
    PortPowers,
    TransferPair,
    ZeroBandwidth,
    _abs2,
    _ports,
    make_epr_pair,
)
from cvteleport.linmode import (
    Axis,
    InputModel,
    combine,
    commutator_pairing,
    covariance,
    normalized_variance,
)
from cvteleport.swap import SwapConfig, swap_once, verification_teleport
from cvteleport.criteria import fidelity_spectrum
from cvteleport.teleport import BellDetector, GainSchedule, NonUnitGainWarning, teleport
from references import bogoliubov_defect, couple_modes, nopa_transfer

COHERENT = InputModel.coherent()


def quick_var(e, axis):
    return normalized_variance(e, COHERENT, axis)


# ---------------------------------------------------------------------------
# Lossless transfer functions


def test_lossless_magnitudes_match_closed_form():
    rng = random.Random(101)
    for _ in range(300):
        eps = rng.uniform(0.0, 0.999)
        omega = rng.uniform(0.0, 8.0)
        noisy, quiet = Nopa(eps).pair(omega).powers()[:2]
        noisy_ref, quiet_ref = Nopa(eps).variances(omega)
        assert abs(noisy - noisy_ref) < 1e-12 * max(1.0, noisy_ref)
        assert abs(quiet - quiet_ref) < 1e-12


def test_lossless_bogoliubov_product_is_one():
    # S+ * conj(S-) = 1 identically for the ideal cavity, at any frequency.
    rng = random.Random(103)
    for _ in range(200):
        pair = Nopa(rng.uniform(0, 0.999)).pair(rng.uniform(0, 10))
        prod = pair.s_plus * pair.s_minus.conjugate()
        assert abs(prod - 1.0) < 1e-12
        assert abs(bogoliubov_defect(pair)) < 1e-12


def test_threshold_point_is_representable():
    pair = Nopa(1.0).pair(0.0)
    assert math.isinf(abs(pair.s_plus))
    assert pair.s_minus == 0
    noisy, quiet = Nopa(1.0).variances(0.0)
    assert math.isinf(noisy)
    assert quiet == 0.0
    # Over a grid only the threshold point diverges, with no loss ports.
    grid = Nopa(1.0).pair(np.array([0.0, 1e-8, 1.0]))
    assert grid.s_plus[0] == complex(math.inf, 0.0)
    assert np.isfinite(grid.s_plus[1:]).all()
    assert (grid.l_plus, grid.l_minus) == (0j, 0j)


def test_no_pump_means_flat_unit_spectra():
    for omega in (0.0, 0.3, 2.7):
        noisy, quiet = Nopa(0.0).pair(omega).powers()[:2]
        assert noisy == pytest.approx(1.0, abs=1e-14)
        assert quiet == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan])
def test_epsilon_validation(bad):
    with pytest.raises(ValueError):
        Nopa(bad)


# ---------------------------------------------------------------------------
# Physical rates and the lossy cavity


def test_nopa_params_threshold_guard():
    NopaParams(0.99, 2.0)
    with pytest.raises(ValueError):
        NopaParams(1.0, 2.0)  # kappa = (gamma+rho)/2 oscillates
    with pytest.raises(ValueError):
        NopaParams(0.5, -1.0)
    with pytest.raises(ValueError):
        NopaParams(-0.1, 2.0)
    with pytest.raises(ValueError):
        NopaParams(0.5, 2.0, rho=-0.2)


@pytest.mark.parametrize(
    "rates",
    [
        (math.nan, 2.0, 0.0),
        (0.5, math.nan, 0.0),
        (0.5, math.inf, 0.0),
        (0.5, 2.0, math.nan),
        (0.5, 2.0, math.inf),
    ],
)
def test_nopa_params_reject_non_finite_rates(rates):
    with pytest.raises(ValueError, match="finite"):
        NopaParams(*rates)


def b_basis_amplitudes(eps, beta, omega):
    """(S+, S-, L+, L-) rebuilt from nopa_transfer at the scale gamma + rho = 2."""
    big_g, small_g, gl, gl2 = nopa_transfer(NopaParams(eps, 2 * beta, 2 * (1 - beta)), omega)
    return big_g + small_g, big_g - small_g, gl + gl2, gl - gl2


def test_lossy_reduces_to_lossless_at_full_escape():
    # At beta = 1 the amplitudes are the ideal cavity's S+ = conj(d + e)/(d - e)
    # and S- = conj(d - e)/(d + e), d = 1 - i*omega, with no loss ports.
    rng = random.Random(109)
    for _ in range(100):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 6)
        pair = Nopa(eps, 1.0).pair(omega)
        d = complex(1.0, -omega)
        ideal_plus = (d + eps).conjugate() / (d - eps)
        assert abs(pair.s_plus - ideal_plus) < 1e-12 * max(1.0, abs(ideal_plus))
        assert abs(pair.s_minus - (d - eps).conjugate() / (d + eps)) < 1e-12
        assert (pair.l_plus, pair.l_minus) == (0j, 0j)
        assert Nopa(eps) == Nopa(eps, 1.0)


def test_lossy_pair_matches_nopa_transfer():
    # The rotated amplitudes are G +- g and G_loss +- g_loss of the cavity's
    # b-basis input-output map.
    rng = random.Random(111)
    for _ in range(200):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.05, 1.0)
        omega = rng.uniform(0, 6)
        pair = Nopa(eps, beta).pair(omega)
        got = (pair.s_plus, pair.s_minus, pair.l_plus, pair.l_minus)
        for a, b in zip(got, b_basis_amplitudes(eps, beta, omega)):
            assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_lossy_bogoliubov_identity():
    # Re(S+ conj(S-)) + Re(L+ conj(L-)) = |G|^2 - |g|^2 + |G_loss|^2 - |g_loss|^2
    # = 1: the cavity input-output map is symplectic whatever the loss rate.
    rng = random.Random(113)
    for _ in range(200):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.05, 1.0)
        omega = rng.uniform(0, 6)
        assert abs(bogoliubov_defect(Nopa(eps, beta).pair(omega))) < 1e-12
        big_g, small_g, gl, gl2 = nopa_transfer(NopaParams(eps, 2 * beta, 2 * (1 - beta)), omega)
        total = abs(big_g) ** 2 - abs(small_g) ** 2 + abs(gl) ** 2 - abs(gl2) ** 2
        assert abs(total - 1.0) < 1e-12


def test_lossy_quiet_combination_closed_form():
    rng = random.Random(127)
    for _ in range(200):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.05, 1.0)
        omega = rng.uniform(0, 6)
        want = 1.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + omega * omega)
        _, s_minus, _, l_minus = b_basis_amplitudes(eps, beta, omega)
        assert abs(abs(s_minus) ** 2 + abs(l_minus) ** 2 - want) < 1e-12
        src = Nopa(eps, beta)
        assert abs(src.pair(omega).powers().variances()[1] - want) < 1e-12
        assert src.variances(omega)[1] == want


def test_lossy_validation():
    Nopa(1.0)  # threshold is representable for a lossless cavity only
    with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\) below threshold$"):
        Nopa(1.0, 0.9)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\]$"):
        Nopa(0.5, 0.0)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\]$"):
        Nopa(0.5, 1.2)
    # epsilon is checked before beta.
    with pytest.raises(ValueError, match="^epsilon"):
        Nopa(2.0, 0.0)


def test_nopa_transfer_matches_lossless_pair():
    # rho = 0 at the canonical scale gamma = 2: G + g and G - g are the
    # noisy/quiet amplitudes of the ideal cavity.
    rng = random.Random(131)
    for _ in range(60):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 5)
        big_g, small_g, _, _ = nopa_transfer(NopaParams(eps, 2.0), omega)
        ideal = Nopa(eps).pair(omega)
        assert abs((big_g + small_g) - ideal.s_plus) < 1e-12 * max(1.0, abs(ideal.s_plus))
        assert abs((big_g - small_g) - ideal.s_minus) < 1e-12


# ---------------------------------------------------------------------------
# EPR pairs


def test_epr_pair_second_moments():
    rng = random.Random(137)
    for _ in range(60):
        src = Nopa(rng.uniform(0, 0.95))
        omega = rng.uniform(0, 5)
        noisy, quiet = src.pair(omega).powers()[:2]
        pair = make_epr_pair(src, omega)
        sym = (noisy + quiet) / 2
        assert quick_var(pair.x1, Axis.X) == pytest.approx(sym, rel=1e-12)
        assert quick_var(pair.x2, Axis.X) == pytest.approx(sym, rel=1e-12)
        assert quick_var(pair.p1, Axis.P) == pytest.approx(sym, rel=1e-12)
        # EPR operators: difference of X, sum of P, both squeezed.
        x_diff = combine(pair.x1, pair.x2, 1.0, -1.0)
        p_sum = combine(pair.p1, pair.p2, 1.0, 1.0)
        assert quick_var(x_diff, Axis.X) == pytest.approx(2 * quiet, rel=1e-12, abs=1e-12)
        assert quick_var(p_sum, Axis.P) == pytest.approx(2 * quiet, rel=1e-12, abs=1e-12)
        cov = covariance(pair.x1, pair.x2, COHERENT, Axis.X)
        assert cov == pytest.approx((noisy - quiet) / 2, rel=1e-12)


def test_epr_pair_preserves_commutators():
    rng = random.Random(139)
    for _ in range(60):
        if rng.random() < 0.5:
            src = Nopa(rng.uniform(0, 1.0))
        else:
            src = Nopa(rng.uniform(0, 0.95), rng.uniform(0.1, 1.0))
        pair = make_epr_pair(src, rng.uniform(0, 5))
        assert abs(commutator_pairing(pair.x1, pair.p1) - 1.0) < 1e-12
        assert abs(commutator_pairing(pair.x2, pair.p2) - 1.0) < 1e-12
        # Cross pairings vanish: modes 1 and 2 are independent oscillators.
        assert abs(commutator_pairing(pair.x1, pair.p2)) < 1e-12


def test_lossy_epr_difference_tracks_escape_efficiency():
    rng = random.Random(149)
    for _ in range(60):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.1, 1.0)
        omega = rng.uniform(0, 5)
        pair = make_epr_pair(Nopa(eps, beta), omega)
        x_diff = combine(pair.x1, pair.x2, 1.0, -1.0)
        want = 2.0 * (1.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + omega * omega))
        assert quick_var(x_diff, Axis.X) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_physical_rate_epr_pair_matches_dimensionless():
    # gamma + rho = 4 halves every physical frequency on the way in.
    params = NopaParams(kappa=1.0, gamma=3.2, rho=0.8)
    big_omega = 2.0
    phys = make_epr_pair(Nopa.from_rates(params), 2 * big_omega / params.total_rate)
    dimless = make_epr_pair(Nopa(0.5, 0.8), 1.0)
    for a, b, axis in (
        (phys.x1, dimless.x1, Axis.X),
        (phys.p1, dimless.p1, Axis.P),
        (phys.x2, dimless.x2, Axis.X),
        (phys.p2, dimless.p2, Axis.P),
    ):
        assert quick_var(a, axis) == pytest.approx(quick_var(b, axis), rel=1e-12)


def test_epr_port_labels_are_configurable():
    # The walker yields label slots; the labels are those a resource's
    # _pairs entry names, as the swapped pair names its two pairs.
    ports = _ports(Nopa(0.4).pair(0.0), (1, 0), (1, 0))
    assert [(slot, axis) for slot, axis, _, _ in ports] == [
        (0, Axis.X), (1, Axis.X), (0, Axis.P), (1, Axis.P),
    ]

    class Relabeled(Nopa):
        def _pairs(self, omega, x_weights, p_weights):
            ((_, *entry),) = super()._pairs(omega, x_weights, p_weights)
            return (("u1", "u2"), *entry),

    pair = make_epr_pair(Relabeled(0.4), 0.0)
    assert {label for label, _ in pair.x1.terms} == {"u1", "u2"}


def test_lossy_ports_share_the_rotated_layout():
    # Loss ports follow the squeezed ports' layout in label slots 2 and 3,
    # with the weights of their squeezed twins, and only when the pair
    # carries loss amplitudes.
    weights = ((0.3, -1.7), (1.1, 0.6))
    pair = Nopa(0.4, 0.9).pair(0.3)
    ports = list(_ports(pair, *weights))
    squeezed = list(_ports(Nopa(0.4).pair(0.3), *weights))
    h = math.sqrt(0.5)
    assert [(slot, axis, w) for slot, axis, w, _ in squeezed] == [
        (0, Axis.X, 0.3 * h - 1.7 * h),
        (1, Axis.X, 0.3 * h + 1.7 * h),
        (0, Axis.P, 1.1 * h + 0.6 * h),
        (1, Axis.P, 1.1 * h - 0.6 * h),
    ]
    assert [port[:3] for port in ports[:4]] == [port[:3] for port in squeezed]
    assert [(slot - 2, axis) for slot, axis, _, _ in ports[4:]] == [
        (slot, axis) for slot, axis, _, _ in squeezed
    ]
    assert all(loss[2] == twin[2] for loss, twin in zip(ports[4:], ports[:4]))
    assert [value for *_, value in ports] == [
        pair.s_plus, pair.s_minus, pair.s_minus, pair.s_plus,
        pair.l_plus, pair.l_minus, pair.l_minus, pair.l_plus,
    ]
    assert len(list(_ports(Nopa(0.4, 1.0).pair(0.3), *weights))) == 4


def test_expansions_evaluate_each_source_pair_once(monkeypatch):
    # teleport() multiplies amplitudes only: a source's pair() runs once
    # per teleport, also where its powers() would go through pair()
    # (CustomSpectrum) and where a swap's two pairs share its one source.
    calls = []
    for cls in (CustomSpectrum, Nopa):
        monkeypatch.setattr(
            cls, "pair", lambda self, omega, f=cls.pair: calls.append(self) or f(self, omega)
        )
    teleport(CustomSpectrum((0.0, 1.0), (2.0, 2.5), (0.5, 0.4)), 1.0, BellDetector(1.0), 0.3)
    assert len(calls) == 1
    calls.clear()
    verification_teleport(SwapConfig(Nopa(0.6, 0.8)), 0.3)
    assert len(calls) == 1
    # Both modes of an EPR pair, over a source and over a swapped pair
    # (swap_once), take their amplitudes from one pair() per source.
    calls.clear()
    make_epr_pair(CustomSpectrum((0.0, 1.0), (2.0, 2.5), (0.5, 0.4)), 0.3)
    assert len(calls) == 1
    calls.clear()
    swap_once(SwapConfig(Nopa(0.6, 0.8)), 0.3)
    assert len(calls) == 1


# Signed zeros, subnormals, squares either side of the float range's edge
# (1e154 squares to 1e308, 1.4e154 past it to inf), inf and nan.
ABS2_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1.0, -2.5,
              1e154, -1e154, 1.3e154, 1.4e154, -1.4e154, 1e300, math.inf, -math.inf, math.nan]


def test_abs2_squares_a_real_array_as_hypot_does_bit_for_bit():
    z = np.array(ABS2_EDGES + [-math.nan])
    with np.errstate(over="ignore"):
        got = _abs2(z)
        want = np.hypot(np.real(z), np.imag(z)) ** 2
        one_by_one = [_abs2(np.float64(v)) for v in z]
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(np.array(one_by_one).view(np.int64), want.view(np.int64))
    assert all(type(v) is float for v in one_by_one)
    # The plain-number route, Python's abs(), agrees too (nan aside).
    plain = [_abs2(v) for v in ABS2_EDGES[:-1]]
    assert plain == want[: len(plain)].tolist()


def test_zero_bandwidth_source():
    pair = ZeroBandwidth(0.8).pair(123.0)  # frequency-flat
    assert pair.s_plus == pytest.approx(math.exp(0.8))
    assert pair.s_minus == pytest.approx(math.exp(-0.8))
    ideal = ZeroBandwidth(math.inf).pair(0.0)
    assert math.isinf(abs(ideal.s_plus))
    assert ideal.s_minus == 0
    with pytest.raises(ValueError):
        ZeroBandwidth(-0.1)
    with pytest.raises(ValueError):
        ZeroBandwidth(math.nan)


def test_couple_modes_is_self_inverse():
    rng = random.Random(151)
    for _ in range(30):
        pair = make_epr_pair(Nopa(rng.uniform(0, 0.9)), rng.uniform(0, 3))
        u, v = couple_modes(pair.x1, pair.x2)
        back1, back2 = couple_modes(u, v)
        for got, want in ((back1, pair.x1), (back2, pair.x2)):
            for key in set(got.terms) | set(want.terms):
                assert abs(got.terms.get(key, 0j) - want.terms.get(key, 0j)) < 1e-12


def test_couple_modes_decouples_the_pair():
    # The EPR pair comes from superposing two independent squeezers, so the
    # inverse beamsplitter must hand back single-label modes.
    pair = make_epr_pair(Nopa(0.6), 0.7)
    u, v = couple_modes(pair.x1, pair.x2)
    assert u.labels() == {"bar1"}
    assert v.labels() == {"bar2"}


# ---------------------------------------------------------------------------
# Tabulated spectra


def lossless_table(eps, omegas):
    rows = ["omega,s_plus_re,s_plus_im,s_minus_re,s_minus_im"]
    for w in omegas:
        pair = Nopa(eps).pair(w)
        rows.append(
            f"{w},{pair.s_plus.real!r},{pair.s_plus.imag!r},"
            f"{pair.s_minus.real!r},{pair.s_minus.imag!r}"
        )
    return "\n".join(rows) + "\n"


def test_custom_spectrum_hits_nodes_exactly():
    omegas = [0.0, 0.5, 1.0, 1.5, 2.0]
    src = CustomSpectrum.from_csv(lossless_table(0.5, omegas))
    for w in omegas:
        got = src.pair(w)
        want = Nopa(0.5).pair(w)
        assert abs(got.s_plus - want.s_plus) < 1e-12
        assert abs(got.s_minus - want.s_minus) < 1e-12


def test_custom_spectrum_interpolates_between_nodes():
    omegas = [k * 0.01 for k in range(0, 301)]
    src = CustomSpectrum.from_csv(lossless_table(0.5, omegas))
    rng = random.Random(157)
    for _ in range(50):
        w = rng.uniform(0.0, 3.0)
        got = src.pair(w)
        want = Nopa(0.5).pair(w)
        assert abs(got.s_plus - want.s_plus) < 1e-3
        assert abs(got.s_minus - want.s_minus) < 1e-3


def test_custom_spectrum_rejects_out_of_range():
    src = CustomSpectrum((0.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        src.pair(-0.5)
    with pytest.raises(ValueError):
        src.pair(1.5)


def test_custom_spectrum_file_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(lossless_table(0.3, [0.0, 1.0, 2.0]), encoding="utf-8")
    src = CustomSpectrum.from_csv(str(path))
    want = Nopa(0.3).pair(1.0)
    got = src.pair(1.0)
    assert abs(got.s_plus - want.s_plus) < 1e-12


def test_custom_spectrum_path_with_a_comma(tmp_path):
    # Only text with a newline is parsed as CSV; anything else is a path.
    path = tmp_path / "tab,le.csv"
    path.write_text(lossless_table(0.3, [0.0, 1.0, 2.0]), encoding="utf-8")
    src = CustomSpectrum.from_csv(str(path))
    from_text = CustomSpectrum.from_csv(path.read_text(encoding="utf-8"))
    for w in (0.0, 0.5, 1.0, 2.0):
        assert src.pair(w) == from_text.pair(w)
    assert abs(src.pair(1.0).s_plus - Nopa(0.3).pair(1.0).s_plus) < 1e-12


def test_custom_spectrum_validation():
    with pytest.raises(ValueError):
        CustomSpectrum((0.0,), (1.0,), (1.0,))  # one row is not a table
    with pytest.raises(ValueError):
        CustomSpectrum((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))  # not increasing
    with pytest.raises(ValueError):
        CustomSpectrum((0.0, 1.0), (1.0,), (1.0, 1.0))  # ragged columns
    with pytest.raises(ValueError):
        CustomSpectrum.from_csv("frequency,gain\n0,1\n")  # wrong header


def test_custom_spectrum_rejects_a_node_below_the_vacuum_bound():
    # |S+|*|S-| >= 1 at every node, to within 8 units of 2^-52; the first
    # row below names itself, from the constructor as from a CSV table.
    header = ",".join(CustomSpectrum.CSV_HEADER)
    edge = 1.0 - 8 * 2.0 ** -52
    assert CustomSpectrum((0.0, 1.0), (1.0, 2.0), (edge, 0.5)).pair(0.0).s_minus == edge
    low = 1.0 - 9 * 2.0 ** -52
    message = r"^row 2 \(omega=1\): \|S\+\|\*\|S-\| = 0\.999999999999998 is below 1 by more than 8"
    with pytest.raises(ValueError, match=message):
        CustomSpectrum((0.0, 1.0, 2.0), (1.0, 1.0, 4.0), (1.0, low, 0.5))
    with pytest.raises(ValueError, match=r"^row 3 \(omega=2\): \|S\+\|\*\|S-\| = 0\.25 "):
        CustomSpectrum.from_csv(f"{header}\n0,1,0,1,0\n1,0,2,0,0.5\n2,0.5,0,0,0.5\n")
    for value in (math.inf, math.nan):  # at threshold S+ is inf: no table holds it
        with pytest.raises(ValueError, match="^table amplitudes must be finite$"):
            CustomSpectrum((0.0, 1.0), (value, 1.0), (0.0, 1.0))
    # A lossy NOPA's squeezed ports alone fall below vacuum (its loss ports
    # make up the rest), so they are no table.
    pairs = [Nopa(0.6, 0.8).pair(w) for w in (0.0, 1.0)]
    with pytest.raises(ValueError, match=r"^row 1 \(omega=0\)"):
        CustomSpectrum((0.0, 1.0), [p.s_plus for p in pairs], [p.s_minus for p in pairs])


def test_custom_spectrum_keeps_magnitude_between_nodes():
    # A rotating amplitude: S+ = 2 e^(i phi), S- = e^(-i phi)/2 with phi
    # turning by 3 rad between nodes.  Magnitude and unwrapped phase are
    # linear in omega, so mid-way |S+| = 2 and |S-| = 1/2 still; linear Re
    # and Im shrank both.
    phis = (0.0, 3.0, 6.0)
    src = CustomSpectrum(
        (0.0, 1.0, 2.0),
        [2.0 * complex(math.cos(p), math.sin(p)) for p in phis],
        [0.5 * complex(math.cos(p), -math.sin(p)) for p in phis],
    )
    for w in (0.5, 1.25, 1.5):
        pair = src.pair(w)
        assert abs(abs(pair.s_plus) - 2.0) <= 1e-15 and abs(abs(pair.s_minus) - 0.5) <= 1e-15
        assert abs(np.angle(pair.s_plus) - math.remainder(3.0 * w, 2 * math.pi)) <= 1e-14
    # The example that raised "fidelity 1.0007623578202665 outside [0, 1]":
    # an unpumped NOPA, whose amplitudes only rotate, tabulated at 41 nodes
    # and teleported at gain 0 between them: the output is the vacuum the
    # input was, F = 1.
    nodes = [0.1 * k for k in range(41)]
    pairs = [Nopa(0.0).pair(w) for w in nodes]
    table = CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])
    assert abs(_abs2(table.pair(1.25).s_plus) - 1.0) <= 1e-15
    with pytest.warns(NonUnitGainWarning):
        (f,) = fidelity_spectrum(table, [1.25], gain=GainSchedule.fixed(0.0)).fidelity
    assert 1.0 - 1e-15 <= f <= 1.0


def test_custom_spectrum_rejects_a_nan_frequency():
    # NaN compares false, so it would slip through the increasing check.
    header = ",".join(CustomSpectrum.CSV_HEADER)
    with pytest.raises(ValueError, match="finite"):
        CustomSpectrum.from_csv(f"{header}\n0,1,0,1,0\nnan,1,0,1,0\n")


def test_custom_spectrum_csv_errors_name_the_problem():
    # The same reader as SpectrumTable.from_csv: one header message, one
    # malformed-row message.
    header = ",".join(CustomSpectrum.CSV_HEADER)
    with pytest.raises(ValueError, match=f"^expected header {header}$"):
        CustomSpectrum.from_csv("frequency,gain\n0,1\n")
    with pytest.raises(ValueError, match="^malformed row: '0,1,0,1'$"):
        CustomSpectrum.from_csv(f"{header}\n0,1,0,1\n")
    with pytest.raises(ValueError, match="^malformed row: '0,1,0,1,x'$"):
        CustomSpectrum.from_csv(f"{header}\n0,1,0,1,x\n")


def test_describe_strings():
    assert Nopa(0.25).describe() == Nopa(0.25, 1.0).describe() == "nopa(epsilon=0.25)"
    assert Nopa(0.25, 0.8).describe() == "nopa(epsilon=0.25, beta=0.8)"
    assert "rows" in CustomSpectrum((0.0, 1.0), (1.0, 1.0), (1.0, 1.0)).describe()
    assert TransferPair(2.0, 0.5).powers()[:2] == (4.0, 0.25)


# ---------------------------------------------------------------------------
# Port powers

# powers() against |.|^2 of the pair() amplitudes, in units of 2^-52
# relative (absolute below 1): both round a few times on their way from the
# same inputs.  Worst seen over 20,000 random NOPA draws of the full domain
# (epsilon up to 1 - 2^-52 and threshold, beta in (0, 1], omega up to 10^4):
# 3.7.
POWER_ULPS = 6
POWER_GRID = np.array([0.0, 1e-160, 1e-8, 0.3, 1.0, 2.5, 10.0, 1e4])
FIELDS = ("s_plus", "s_minus", "l_plus", "l_minus")


def amplitude_powers(src, omega):
    # _abs2 of each pair() amplitude; past the float range it is inf.
    pair = src.pair(omega)
    with np.errstate(over="ignore"):
        return [np.broadcast_to(_abs2(getattr(pair, f)), np.shape(omega)) for f in FIELDS]


def power_ulps(got, want):
    if math.isinf(want):
        return 0.0 if got == want else math.inf
    return abs(got - want) / max(1.0, abs(want)) / 2.0 ** -52


def _custom_copy():
    src = Nopa(0.5)
    nodes = [0.0, 0.5, 1.0, 2.0, 4.0]
    pairs = [src.pair(w) for w in nodes]
    return CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])


@pytest.mark.parametrize(
    "src",
    [
        Nopa(0.0),
        Nopa(0.5),
        Nopa(1.0),
        Nopa(0.0, 0.3),
        Nopa(0.5, 0.8),
        Nopa(1.0 - 2.0 ** -40, 0.9),
        Nopa(0.6, 1.0),
    ],
    ids=["lossless-0", "lossless-0.5", "lossless-1", "lossy-0", "lossy-0.5", "lossy-edge", "lossy-beta-1"],
)
def test_nopa_powers_match_the_amplitudes(src):
    got = src.powers(POWER_GRID)
    for field, g, want in zip(FIELDS, got, amplitude_powers(src, POWER_GRID)):
        g = np.broadcast_to(g, POWER_GRID.shape)
        worst = max(power_ulps(a, b) for a, b in zip(g.tolist(), want.tolist()))
        assert worst <= POWER_ULPS, field
    # A one-point call is the array entry, as plain floats.
    one = src.powers(0.3)
    assert all(type(v) is float for v in one)
    assert one == tuple(float(np.broadcast_to(v, POWER_GRID.shape)[3]) for v in got)


def test_nopa_powers_match_the_amplitudes_over_the_full_domain():
    rng = random.Random(1102)
    worst = 0.0
    for _ in range(2000):
        e = rng.choice([rng.uniform(0.0, 1.0), 1.0 - 2.0 ** -rng.randint(1, 52)])
        src = Nopa(e) if rng.random() < 0.5 else Nopa(e, rng.uniform(1e-3, 1.0))
        omega = rng.choice([rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-8.0, 4.0)])
        for g, want in zip(src.powers(omega), amplitude_powers(src, omega)):
            worst = max(worst, power_ulps(g, float(want)))
    assert worst <= POWER_ULPS


def test_power_limits_are_exact():
    # No pump: |S+-|^2 = 1 and V = 1 exactly, lossy or not.
    assert all((v == 1.0).all() for v in Nopa(0.0).powers(POWER_GRID)[:2])
    for src in (Nopa(0.0), Nopa(0.0, 0.3)):
        assert all((v == 1.0).all() for v in src.variances(POWER_GRID))
    # Threshold: |S+|^2 = inf and |S-|^2 = 0 exactly; a lossless cavity has
    # exactly zero loss powers.
    assert Nopa(1.0).powers(0.0) == (math.inf, 0.0, 0.0, 0.0)
    assert Nopa(1.0).pair(0.0).powers() == (math.inf, 0.0, 0.0, 0.0)
    lossless = Nopa(0.5).powers(POWER_GRID)
    assert lossless.l_plus == lossless.l_minus == 0.0


@pytest.mark.parametrize(
    "src",
    [ZeroBandwidth(0.0), ZeroBandwidth(0.7), ZeroBandwidth(math.inf), _custom_copy()],
    ids=["flat-0", "flat-0.7", "flat-inf", "custom"],
)
def test_derived_powers_are_the_amplitude_powers(src):
    grid = np.array([0.0, 0.25, 1.0, 3.5])
    got = src.powers(grid)
    assert isinstance(got, PortPowers)
    for g, want in zip(got, amplitude_powers(src, grid)):
        assert np.array_equal(np.broadcast_to(g, grid.shape), want)


def test_flat_squeezer_power_limits_are_exact():
    assert ZeroBandwidth(0.0).powers(1.0) == (1.0, 1.0, 0.0, 0.0)
    assert ZeroBandwidth(math.inf).powers(1.0) == (math.inf, 0.0, 0.0, 0.0)
