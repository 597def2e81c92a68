"""Property tests: invariants that hold over whole parameter ranges."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cvteleport.criteria import fidelity_spectrum
from cvteleport.epr import LosslessNopa, LossyNopa
from cvteleport.linmode import Axis, InputModel, combine, commutator_pairing, unit_input
from cvteleport.oracle import McConfig, mc_check
from cvteleport.swap import SwapConfig, optimal_gain, swap_fidelity
from cvteleport.teleport import BellDetector, teleport

EPSILON = st.floats(0.0, 0.95)
BETA = st.floats(0.55, 1.0)
OMEGA = st.floats(0.0, 4.0)
# The ranges of acceptance criterion 08.
SOURCES = st.one_of(
    st.builds(LosslessNopa, EPSILON), st.builds(LossyNopa, EPSILON, BETA)
)
PROPERTY = settings(deadline=None, max_examples=50)


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
    src=st.one_of(st.builds(LosslessNopa, st.floats(0.0, 1.0)), SOURCES),
    omega=st.floats(0.0, 10.0),
)
def test_unit_gain_fidelity_lies_between_one_half_and_one(src, omega):
    # Unit gain and ideal detectors are the spectrum defaults.
    (f,) = fidelity_spectrum(src, [omega]).fidelity
    assert 0.5 <= f <= 1.0


@PROPERTY
@given(
    src_ab=st.builds(LosslessNopa, EPSILON),
    src_cd=st.builds(LosslessNopa, EPSILON),
    omega=OMEGA,
)
def test_optimal_swap_gain_is_never_beaten(src_ab, src_cd, omega):
    # The optimum (A - B)/(A + B) is derived for pure sources.
    cfg = SwapConfig(src_ab, src_cd)
    assert cfg.gain_at(omega) == optimal_gain(src_ab.pair(omega), src_cd.pair(omega))
    best = swap_fidelity(cfg, omega)
    for k in range(101):
        g = -1.0 + 2.5 * k / 100
        assert swap_fidelity(SwapConfig(src_ab, src_cd, gain=g), omega) <= best + 1e-12


@settings(deadline=None, max_examples=20)
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
