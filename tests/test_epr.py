"""Squeezing sources: transfer amplitudes, EPR ports, tabulated spectra."""

import math
import random

import pytest

from cvteleport.epr import (
    CustomSpectrum,
    LosslessNopa,
    LossyNopa,
    NopaParams,
    TransferPair,
    ZeroBandwidth,
    couple_modes,
    make_epr_pair,
    nopa_transfer,
    squeezing_spectrum,
)
from cvteleport.linmode import (
    Axis,
    InputModel,
    combine,
    commutator_pairing,
    covariance,
    normalized_variance,
)

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
        noisy, quiet = LosslessNopa(eps).pair(omega).magnitudes_sq()
        noisy_ref, quiet_ref = squeezing_spectrum(eps, omega)
        assert abs(noisy - noisy_ref) < 1e-12 * max(1.0, noisy_ref)
        assert abs(quiet - quiet_ref) < 1e-12


def test_lossless_bogoliubov_product_is_one():
    # S+ * conj(S-) = 1 identically for the ideal cavity, at any frequency.
    rng = random.Random(103)
    for _ in range(200):
        pair = LosslessNopa(rng.uniform(0, 0.999)).pair(rng.uniform(0, 10))
        prod = pair.s_plus * pair.s_minus.conjugate()
        assert abs(prod - 1.0) < 1e-12
        assert abs(pair.bogoliubov_defect()) < 1e-12


def test_threshold_point_is_representable():
    pair = LosslessNopa(1.0).pair(0.0)
    assert math.isinf(abs(pair.s_plus))
    assert pair.s_minus == 0
    noisy, quiet = squeezing_spectrum(1.0, 0.0)
    assert math.isinf(noisy)
    assert quiet == 0.0


def test_no_pump_means_flat_unit_spectra():
    for omega in (0.0, 0.3, 2.7):
        noisy, quiet = LosslessNopa(0.0).pair(omega).magnitudes_sq()
        assert noisy == pytest.approx(1.0, abs=1e-14)
        assert quiet == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan])
def test_epsilon_validation(bad):
    with pytest.raises(ValueError):
        LosslessNopa(bad)


def test_squeezing_spectrum_input_forms():
    src = LosslessNopa(0.3)
    assert squeezing_spectrum(src, 1.5) == squeezing_spectrum(0.3, 1.5)
    with pytest.raises(ValueError):
        squeezing_spectrum(1.5, 0.0)


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


def test_lossy_reduces_to_lossless_at_full_escape():
    rng = random.Random(109)
    for _ in range(100):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 6)
        lossy = LossyNopa(eps, 1.0).pair(omega)
        ideal = LosslessNopa(eps).pair(omega)
        assert abs(lossy.s_plus - ideal.s_plus) < 1e-12 * max(1.0, abs(ideal.s_plus))
        assert abs(lossy.s_minus - ideal.s_minus) < 1e-12
        _, _, gl, gl2 = LossyNopa(eps, 1.0).transfer(omega)
        assert gl == 0 and gl2 == 0


def test_lossy_bogoliubov_identity():
    # |G|^2 - |g|^2 + |G_loss|^2 - |g_loss|^2 = 1: the cavity input-output
    # map is symplectic whatever the loss rate.
    rng = random.Random(113)
    for _ in range(200):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.05, 1.0)
        omega = rng.uniform(0, 6)
        big_g, small_g, gl, gl2 = LossyNopa(eps, beta).transfer(omega)
        total = abs(big_g) ** 2 - abs(small_g) ** 2 + abs(gl) ** 2 - abs(gl2) ** 2
        assert abs(total - 1.0) < 1e-12


def test_lossy_quiet_combination_closed_form():
    rng = random.Random(127)
    for _ in range(200):
        eps = rng.uniform(0, 0.95)
        beta = rng.uniform(0.05, 1.0)
        omega = rng.uniform(0, 6)
        big_g, small_g, gl, gl2 = LossyNopa(eps, beta).transfer(omega)
        quiet = abs(big_g - small_g) ** 2 + abs(gl - gl2) ** 2
        want = 1.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + omega * omega)
        assert abs(quiet - want) < 1e-12


def test_lossy_validation():
    with pytest.raises(ValueError):
        LossyNopa(1.0, 0.9)  # threshold excluded when loss ports are explicit
    with pytest.raises(ValueError):
        LossyNopa(0.5, 0.0)
    with pytest.raises(ValueError):
        LossyNopa(0.5, 1.2)


def test_nopa_transfer_matches_lossless_pair():
    # rho = 0 at the canonical scale gamma = 2: G + g and G - g are the
    # noisy/quiet amplitudes of the ideal cavity.
    rng = random.Random(131)
    for _ in range(60):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 5)
        big_g, small_g, _, _ = nopa_transfer(NopaParams(eps, 2.0), omega)
        ideal = LosslessNopa(eps).pair(omega)
        assert abs((big_g + small_g) - ideal.s_plus) < 1e-12 * max(1.0, abs(ideal.s_plus))
        assert abs((big_g - small_g) - ideal.s_minus) < 1e-12


# ---------------------------------------------------------------------------
# EPR pairs


def test_epr_pair_second_moments():
    rng = random.Random(137)
    for _ in range(60):
        src = LosslessNopa(rng.uniform(0, 0.95))
        omega = rng.uniform(0, 5)
        noisy, quiet = src.pair(omega).magnitudes_sq()
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
            src = LosslessNopa(rng.uniform(0, 1.0))
        else:
            src = LossyNopa(rng.uniform(0, 0.95), rng.uniform(0.1, 1.0))
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
        pair = make_epr_pair(LossyNopa(eps, beta), omega)
        x_diff = combine(pair.x1, pair.x2, 1.0, -1.0)
        want = 2.0 * (1.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + omega * omega))
        assert quick_var(x_diff, Axis.X) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_physical_rate_epr_pair_matches_dimensionless():
    # gamma + rho = 4 halves every physical frequency on the way in.
    params = NopaParams(kappa=1.0, gamma=3.2, rho=0.8)
    big_omega = 2.0
    phys = make_epr_pair(LossyNopa.from_rates(params), 2 * big_omega / params.total_rate)
    dimless = make_epr_pair(LossyNopa(0.5, 0.8), 1.0)
    for a, b, axis in (
        (phys.x1, dimless.x1, Axis.X),
        (phys.p1, dimless.p1, Axis.P),
        (phys.x2, dimless.x2, Axis.X),
        (phys.p2, dimless.p2, Axis.P),
    ):
        assert quick_var(a, axis) == pytest.approx(quick_var(b, axis), rel=1e-12)


def test_epr_port_labels_are_configurable():
    ports = LosslessNopa(0.4).epr_ports(0.0, labels=("u1", "u2"))
    assert {p.label for p in ports} == {"u1", "u2"}


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
        pair = make_epr_pair(LosslessNopa(rng.uniform(0, 0.9)), rng.uniform(0, 3))
        u, v = couple_modes(pair.x1, pair.x2)
        back1, back2 = couple_modes(u, v)
        for got, want in ((back1, pair.x1), (back2, pair.x2)):
            for key in set(got.terms) | set(want.terms):
                assert abs(got.terms.get(key, 0j) - want.terms.get(key, 0j)) < 1e-12


def test_couple_modes_decouples_the_pair():
    # The EPR pair comes from superposing two independent squeezers, so the
    # inverse beamsplitter must hand back single-label modes.
    pair = make_epr_pair(LosslessNopa(0.6), 0.7)
    u, v = couple_modes(pair.x1, pair.x2)
    assert u.labels() == {"bar1"}
    assert v.labels() == {"bar2"}


# ---------------------------------------------------------------------------
# Tabulated spectra


def lossless_table(eps, omegas):
    rows = ["omega,s_plus_re,s_plus_im,s_minus_re,s_minus_im"]
    for w in omegas:
        pair = LosslessNopa(eps).pair(w)
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
        want = LosslessNopa(0.5).pair(w)
        assert abs(got.s_plus - want.s_plus) < 1e-12
        assert abs(got.s_minus - want.s_minus) < 1e-12


def test_custom_spectrum_interpolates_between_nodes():
    omegas = [k * 0.01 for k in range(0, 301)]
    src = CustomSpectrum.from_csv(lossless_table(0.5, omegas))
    rng = random.Random(157)
    for _ in range(50):
        w = rng.uniform(0.0, 3.0)
        got = src.pair(w)
        want = LosslessNopa(0.5).pair(w)
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
    want = LosslessNopa(0.3).pair(1.0)
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
    assert abs(src.pair(1.0).s_plus - LosslessNopa(0.3).pair(1.0).s_plus) < 1e-12


def test_custom_spectrum_validation():
    with pytest.raises(ValueError):
        CustomSpectrum((0.0,), (1.0,), (1.0,))  # one row is not a table
    with pytest.raises(ValueError):
        CustomSpectrum((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))  # not increasing
    with pytest.raises(ValueError):
        CustomSpectrum((0.0, 1.0), (1.0,), (1.0, 1.0))  # ragged columns
    with pytest.raises(ValueError):
        CustomSpectrum.from_csv("frequency,gain\n0,1\n")  # wrong header


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
    assert "0.25" in LosslessNopa(0.25).describe()
    assert "beta" in LossyNopa(0.25, 0.8).describe() or "0.8" in LossyNopa(0.25, 0.8).describe()
    assert "rows" in CustomSpectrum((0.0, 1.0), (1.0, 1.0), (1.0, 1.0)).describe()
    assert TransferPair(2.0, 0.5).magnitudes_sq() == (4.0, 0.25)
