"""Property tests: invariants that hold over whole parameter ranges.

The settings are derandomized, so every run draws the same examples; the
@example inputs pin the domain edges and the inputs of past defects.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import exact
from cvteleport.criteria import fidelity_spectrum
from cvteleport.epr import CustomSpectrum, Nopa, ZeroBandwidth
from cvteleport.linmode import Axis, InputModel, combine, commutator_pairing, unit_input
from cvteleport.oracle import McConfig, mc_check
from cvteleport.swap import SwapConfig, _SwappedPair, optimal_gain, swap_fidelity, swap_spectrum
from cvteleport.teleport import BellDetector, GainSchedule, NonUnitGainWarning, teleport

EPSILON = st.floats(0.0, 0.95)
BETA = st.floats(0.55, 1.0)
OMEGA = st.floats(0.0, 4.0)
# The ranges of acceptance criterion 08.
SOURCES = st.one_of(
    st.builds(Nopa, EPSILON), st.builds(Nopa, EPSILON, BETA)
)
PROPERTY = settings(deadline=None, max_examples=50, derandomize=True)

# The full domain: epsilon in [0, 1) with 1 - 2^-k up to k = 52, threshold
# epsilon = 1 for the lossless cavity, beta in (0, 1], omega in [0, 10^4],
# eta^2 in (0.5, 1].
FULL_EPSILON = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 52).map(lambda k: 1.0 - 2.0 ** -k),
)
NOPA = st.one_of(
    st.builds(Nopa, st.one_of(FULL_EPSILON, st.just(1.0))),
    st.builds(Nopa, FULL_EPSILON, st.floats(0.0, 1.0, exclude_min=True)),
)
FULL_OMEGA = st.floats(0.0, 1e4)
ETA2 = st.floats(0.5, 1.0, exclude_min=True)
THRESHOLD = Nopa(1.0)
EDGE = 1.0 - 2.0 ** -52
# A lossy source near threshold, where V- once lost most of its digits.
NEAR_THRESHOLD = Nopa(0.9999999999, 0.875)

# Stated accuracy against the exact reference, in exact.ulps units
# (2^-52 relative, absolute below 1).  Worst seen over 13,000 random rows
# of the full domain: 1.5 for the real-form spectra, 3.3 for the spectra of
# the port amplitudes, 4.1 for the unit-gain error variances, 2.4 for the
# two closed-form fidelities.
SPECTRUM_ULPS = 2
AMPLITUDE_ULPS = 6
FIDELITY_ULPS = 3


def exact_spectra(src, omega):
    return exact.nopa_spectra(src.epsilon, src.beta, omega)


@PROPERTY
@given(
    src=SOURCES,
    eta=st.one_of(st.just(1.0), st.floats(0.6, 1.0)),
    gain=st.floats(-0.5, 2.0),
    omega=OMEGA,
)
def test_teleport_outputs_keep_the_commutator(src, eta, gain, omega):
    out = teleport(src, complex(gain), BellDetector(eta), omega)
    assert abs(commutator_pairing(out.x_tel, out.p_tel) - 1.0) <= 1e-12


@PROPERTY
@given(
    src=st.one_of(st.builds(Nopa, st.floats(0.0, 1.0)), SOURCES),
    omega=st.floats(0.0, 10.0),
)
@example(src=NEAR_THRESHOLD, omega=0.0)
def test_unit_gain_fidelity_lies_between_one_half_and_one(src, omega):
    # Unit gain and ideal detectors are the spectrum defaults.
    (f,) = fidelity_spectrum(src, [omega]).fidelity
    assert 0.5 <= f <= 1.0


@PROPERTY
@given(
    src_ab=st.builds(Nopa, EPSILON),
    src_cd=st.builds(Nopa, EPSILON),
    omega=OMEGA,
)
def test_optimal_swap_gain_is_never_beaten(src_ab, src_cd, omega):
    # The optimum (A - B)/(A + B) is derived for pure sources.  Rows take
    # it from the port powers; from the amplitudes it agrees to roundoff.
    cfg = SwapConfig(src_ab, src_cd)
    gain = _SwappedPair(cfg, omega).gain
    assert gain == optimal_gain(src_ab.powers(omega), src_cd.powers(omega))
    assert abs(gain - optimal_gain(src_ab.pair(omega).powers(), src_cd.pair(omega).powers())) <= 1e-14
    best = swap_fidelity(cfg, omega)
    for k in range(101):
        g = -1.0 + 2.5 * k / 100
        assert swap_fidelity(SwapConfig(src_ab, src_cd, gain=g), omega) <= best + 1e-12


@settings(PROPERTY, max_examples=20)
@given(src=SOURCES, omega=OMEGA, seed=st.integers(0, 2**32 - 1))
def test_mc_self_pair_is_the_variance_row(src, omega, seed):
    out = teleport(src, omega=omega)
    entries = [
        ("x_err", combine(out.x_tel, unit_input(), 1.0, -1.0), Axis.X),
        ("x_out", out.x_tel, Axis.X),
    ]
    report = mc_check(
        entries,
        InputModel.coherent(),
        McConfig(sample_count=2_000, seed=seed),
        pairs=(("x_out", "x_out"),),
    )
    variance, pair = report.rows[1], report.rows[2]
    assert (pair.name, pair.kind) == ("x_out*x_out", "covariance")
    assert (pair.estimate, pair.se) == (variance.estimate, variance.se)


# ---------------------------------------------------------------------------
# Exact reference over the full domain


@PROPERTY
@given(src=NOPA, omega=FULL_OMEGA)
@example(src=Nopa(0.0, 0.3), omega=0.0)
@example(src=THRESHOLD, omega=0.0)
@example(src=Nopa(EDGE, 1.0), omega=0.0)
@example(src=Nopa(EDGE, 0.5), omega=1e4)
@example(src=NEAR_THRESHOLD, omega=0.0)
def test_spectra_are_within_ulps_of_exact(src, omega):
    noisy, quiet = exact_spectra(src, omega)
    for got, bound in ((src.variances(omega), SPECTRUM_ULPS), (src.pair(omega).powers().variances(), AMPLITUDE_ULPS)):
        if noisy is None:
            assert got[0] == math.inf
        else:
            assert exact.ulps(got[0], noisy) <= bound
        assert exact.ulps(got[1], quiet) <= bound


@PROPERTY
@given(src=NOPA, eta2=ETA2, omega=FULL_OMEGA)
@example(src=Nopa(0.0, 0.3), eta2=1.0, omega=0.0)
@example(src=THRESHOLD, eta2=1.0, omega=0.0)
@example(src=Nopa(EDGE, 1.0), eta2=1.0, omega=0.0)
@example(src=Nopa(EDGE, 0.5), eta2=0.6, omega=1e4)
@example(src=NEAR_THRESHOLD, eta2=1.0, omega=0.0)
def test_unit_gain_teleport_is_within_ulps_of_exact(src, eta2, omega):
    detector = BellDetector.from_efficiency(eta2)
    table = fidelity_spectrum(src, [omega], detector=detector)
    _, quiet = exact_spectra(src, omega)
    variance = exact.teleport_variance(quiet, detector.eta)
    assert exact.ulps(table.v_x[0], variance) <= AMPLITUDE_ULPS
    assert exact.ulps(table.v_p[0], variance) <= AMPLITUDE_ULPS
    want = exact.teleport_fidelity(quiet, detector.eta)
    assert exact.ulps(table.fidelity[0], want) <= FIDELITY_ULPS


@PROPERTY
@given(
    src_ab=NOPA,
    src_cd=st.one_of(st.none(), NOPA),
    gain=st.one_of(
        st.none(),
        st.just(1.0),
        st.floats(-0.5, 2.0),
        st.builds(complex, st.floats(-0.5, 2.0), st.floats(-1.0, 1.0)),
    ),
    omega=FULL_OMEGA,
)
@example(src_ab=Nopa(0.0, 0.3), src_cd=None, gain=None, omega=0.0)
@example(src_ab=THRESHOLD, src_cd=None, gain=None, omega=0.0)
@example(src_ab=Nopa(EDGE, 0.9), src_cd=Nopa(EDGE), gain=None, omega=0.0)
@example(src_ab=Nopa(0.5, 0.5), src_cd=None, gain=0.7, omega=1e4)
@example(src_ab=Nopa(0.5), src_cd=Nopa(0.0, 0.75), gain=None, omega=0.0)
@example(src_ab=THRESHOLD, src_cd=Nopa(0.3, 0.6), gain=1.0, omega=0.0)
@example(src_ab=Nopa(0.3, 0.6), src_cd=THRESHOLD, gain=complex(1.0, 0.0), omega=0.0)
@example(src_ab=THRESHOLD, src_cd=None, gain=complex(1.0, 0.25), omega=0.0)
@example(src_ab=Nopa(EDGE, 0.9), src_cd=None, gain=complex(0.8, -0.6), omega=0.0)
@example(src_ab=Nopa(0.5), src_cd=Nopa(0.2, 0.4), gain=complex(-0.5, 1.0), omega=3.0)
def test_swap_closed_form_is_within_ulps_of_exact(src_ab, src_cd, gain, omega):
    cfg = SwapConfig(src_ab, src_cd, gain=gain)
    g = _SwappedPair(cfg, omega).gain
    noisy, quiet = exact_spectra(src_ab, omega)
    noisy_cd, quiet_cd = (noisy, quiet) if src_cd is None else exact_spectra(src_cd, omega)
    f = swap_fidelity(cfg, omega)
    if noisy is None or noisy_cd is None:
        # Threshold: finite only at unit swap gain (the optimal gain's
        # limit), where the infinite noisy term drops out.
        want = exact.swap_fidelity(Fraction(0), quiet + quiet_cd, g) if g == 1 else Fraction(0)
    else:
        want = exact.swap_fidelity(noisy + noisy_cd, quiet + quiet_cd, g)
    assert exact.ulps(f, want) <= FIDELITY_ULPS


@PROPERTY
@given(
    src=st.one_of(
        st.builds(Nopa, st.just(0.0)),
        st.builds(Nopa, st.just(0.0), st.floats(0.0, 1.0, exclude_min=True)),
        st.just(ZeroBandwidth(0.0)),
    ),
    omega=FULL_OMEGA,
)
# The generic Q-function path reads one ulp below 1/2 here.
@example(src=Nopa(0.0), omega=0.4912867252815486)
@example(src=Nopa(0.0, 0.3), omega=1e4)
def test_unpumped_sources_sit_exactly_on_the_classical_bound(src, omega):
    assert fidelity_spectrum(src, [omega]).fidelity == (0.5,)
    assert swap_fidelity(SwapConfig(src), omega) == 0.5


def test_threshold_limits_are_exact():
    table = fidelity_spectrum(THRESHOLD, [0.0])
    assert (table.v_x[0], table.v_p[0], table.fidelity[0]) == (0.0, 0.0, 1.0)
    assert fidelity_spectrum(ZeroBandwidth(math.inf), [0.0, 1e4]).fidelity.tolist() == [1.0, 1.0]
    assert swap_fidelity(SwapConfig(THRESHOLD), 0.0) == 1.0


@pytest.mark.parametrize("k", range(1, 17))
def test_lossy_source_near_threshold_matches_exact(k):
    epsilon = 1 - 10.0 ** -k
    table = fidelity_spectrum(Nopa(epsilon, 0.875), [0.0])
    _, quiet = exact.nopa_spectra(epsilon, 0.875, 0.0)
    assert abs(Fraction(table.v_x[0] / 2) - quiet) <= Fraction(1e-15) * quiet
    assert exact.ulps(table.fidelity[0], exact.teleport_fidelity(quiet, 1.0)) <= FIDELITY_ULPS


@pytest.mark.xfail(
    strict=True,
    reason="optimal_gain weighs |S+-|^2, not the spectra V+-, so it is not the "
    "optimum for lossy sources; switching it waits for the benchmark "
    "reference (bench/reference.py) to take the lossy swap gain from V+-",
)
@PROPERTY
@given(src_ab=NOPA, src_cd=NOPA, omega=FULL_OMEGA)
@example(src_ab=Nopa(0.5), src_cd=Nopa(0.0, 0.75), omega=0.0)
def test_optimal_swap_gain_is_never_beaten_for_lossy_sources(src_ab, src_cd, omega):
    best = swap_fidelity(SwapConfig(src_ab, src_cd), omega)
    for k in range(101):
        g = -1.0 + 2.5 * k / 100
        assert swap_fidelity(SwapConfig(src_ab, src_cd, gain=g), omega) <= best + 1e-12


# ---------------------------------------------------------------------------
# One kernel for every grid size


def _custom(epsilon):
    # A tabulated copy of a lossless source on [0, 4], 41 nodes.
    src = Nopa(epsilon)
    nodes = [0.1 * k for k in range(41)]
    pairs = [src.pair(w) for w in nodes]
    return CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])


ANY_SOURCE = st.one_of(
    NOPA,
    st.builds(ZeroBandwidth, st.floats(0.0, 3.0)),
    st.builds(_custom, EPSILON),
)
GRID = st.lists(OMEGA, min_size=2, max_size=12, unique=True).map(sorted)
# A gain that varies with frequency, with unit gain at omega = 0.
WOBBLE = GainSchedule.per_frequency(lambda w: complex(1.0 - 0.05 * w, 0.02 * w))
GAINS = st.one_of(
    st.just(GainSchedule.unit()),
    st.floats(-0.5, 2.0).map(GainSchedule.fixed),
    st.just(WOBBLE),
)
INPUTS = st.one_of(
    st.just(InputModel.coherent()), st.floats(0.5, 2.0).map(InputModel.squeezed)
)


def _rows(table):
    return list(zip(table.v_x, table.v_p, table.fidelity))


@PROPERTY
@given(src=ANY_SOURCE, grid=GRID, gain=GAINS, eta2=st.one_of(st.just(1.0), ETA2), model=INPUTS)
@example(src=THRESHOLD, grid=[0.0, 0.5], gain=GainSchedule.fixed(0.5), eta2=1.0, model=InputModel.coherent())
def test_teleport_sweep_rows_are_one_point_calls(src, grid, gain, eta2, model):
    detector = BellDetector.from_efficiency(eta2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        rows = _rows(fidelity_spectrum(src, grid, gain, detector, model))
        for w, row in zip(grid, rows):
            assert _rows(fidelity_spectrum(src, [w], gain, detector, model)) == [row]


@PROPERTY
@given(
    src_ab=ANY_SOURCE,
    src_cd=st.one_of(st.none(), NOPA),
    gain=st.one_of(st.none(), GAINS),
    grid=GRID,
)
@example(src_ab=THRESHOLD, src_cd=None, gain=GainSchedule.fixed(0.5), grid=[0.0, 0.5])
@example(src_ab=THRESHOLD, src_cd=None, gain=None, grid=[0.0, 0.5])
def test_swap_sweep_rows_are_one_point_calls(src_ab, src_cd, gain, grid):
    cfg = SwapConfig(src_ab, src_cd, gain=gain)
    rows = _rows(swap_spectrum(cfg, grid))
    for w, row in zip(grid, rows):
        assert _rows(swap_spectrum(cfg, [w])) == [row]
        assert swap_fidelity(cfg, w) == row[2]


@PROPERTY
@given(src=NOPA, eta2=ETA2, grid=st.lists(FULL_OMEGA, min_size=2, max_size=12, unique=True).map(sorted))
def test_multi_row_teleport_sweeps_are_within_ulps_of_exact(src, eta2, grid):
    detector = BellDetector.from_efficiency(eta2)
    table = fidelity_spectrum(src, grid, detector=detector)
    for w, (v_x, v_p, f) in zip(grid, _rows(table)):
        _, quiet = exact_spectra(src, w)
        variance = exact.teleport_variance(quiet, detector.eta)
        assert exact.ulps(v_x, variance) <= AMPLITUDE_ULPS
        assert exact.ulps(v_p, variance) <= AMPLITUDE_ULPS
        assert exact.ulps(f, exact.teleport_fidelity(quiet, detector.eta)) <= FIDELITY_ULPS


@PROPERTY
@given(
    src_ab=NOPA,
    src_cd=st.one_of(st.none(), NOPA),
    gain=st.one_of(st.none(), st.floats(-0.5, 2.0)),
    grid=st.lists(FULL_OMEGA, min_size=2, max_size=12, unique=True).map(sorted),
)
def test_multi_row_swap_sweeps_are_within_ulps_of_exact(src_ab, src_cd, gain, grid):
    cfg = SwapConfig(src_ab, src_cd, gain=gain)
    table = swap_spectrum(cfg, grid)
    gains = _SwappedPair(cfg, np.array(grid)).gain
    for w, g, f in zip(grid, np.broadcast_to(gains, len(grid)), table.fidelity):
        noisy, quiet = exact_spectra(src_ab, w)
        noisy_cd, quiet_cd = (noisy, quiet) if src_cd is None else exact_spectra(src_cd, w)
        if noisy is None or noisy_cd is None:
            want = exact.swap_fidelity(Fraction(0), quiet + quiet_cd, g) if g == 1 else Fraction(0)
        else:
            want = exact.swap_fidelity(noisy + noisy_cd, quiet + quiet_cd, g)
        assert exact.ulps(f, want) <= FIDELITY_ULPS
