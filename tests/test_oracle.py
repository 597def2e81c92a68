"""Covariance-matrix and Monte-Carlo validation of the symbolic pipeline."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import cvteleport
from cvteleport.criteria import teleport_fidelity
from cvteleport.epr import Nopa, ZeroBandwidth, make_epr_pair
from cvteleport.linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    combine,
    covariance,
    normalized_variance,
    unit_input,
)
from cvteleport.oracle import (
    GaussianState,
    McConfig,
    covariance_teleport,
    fidelity_to_coherent,
    mc_check,
    two_mode_squeezed_cov,
)
from cvteleport.swap import SwapConfig, swap_once
from cvteleport.teleport import BellDetector, teleport
from references import sample_teleport_outcomes, swapped_epr_variances

COHERENT = InputModel.coherent()
VACUUM_X = QuadExpansion(0j, {("m", Axis.X): 1.0})


# ---------------------------------------------------------------------------
# Gaussian states


def test_gaussian_state_validation():
    with pytest.raises(ValueError):
        GaussianState(np.zeros(3), np.eye(3))  # odd-length mean
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), np.eye(4))  # shape mismatch
    bad_sym = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), bad_sym)
    not_psd = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(np.zeros(2), not_psd)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gaussian_state_must_be_finite(bad):
    # An infinite covariance must fail before the symmetry check, whose
    # inf - inf would warn.
    cov = np.eye(2)
    with pytest.raises(ValueError, match="must be finite"):
        GaussianState(np.array([0.0, bad]), cov)
    cov[0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        GaussianState(np.zeros(2), cov)


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, 400.0, -400.0])
def test_squeeze_must_be_finite(r):
    with pytest.raises(ValueError, match="^r must be finite"):
        two_mode_squeezed_cov(r)
    with pytest.raises(ValueError, match="^r must be finite"):
        covariance_teleport(r, 1.0)


def _zero_bandwidth_output_variance(r, gain):
    # x_out = g x_in + x_2 - g x_1 over an EPR pair of squeeze r, vacuum = 1:
    # a sum of positive terms, so the float value is good to a few ulps.
    return (
        gain * gain
        + (1.0 - gain) ** 2 * math.exp(2.0 * r) / 2.0
        + (1.0 + gain) ** 2 * math.exp(-2.0 * r) / 2.0
    )


@pytest.mark.parametrize("r", [7.5, -7.5])
@pytest.mark.parametrize("gain", [1.0, 0.999, 0.5, 0.0])
def test_covariance_routes_hold_1e_9_up_to_the_squeeze_bound(r, gain):
    want = _zero_bandwidth_output_variance(r, gain)
    state = covariance_teleport(r, gain)
    assert state.cov[0, 0] / 0.25 == pytest.approx(want, rel=1e-9, abs=0)
    assert state.cov[1, 1] / 0.25 == pytest.approx(want, rel=1e-9, abs=0)
    assert fidelity_to_coherent(state) == pytest.approx(2.0 / (want + 1.0), rel=0, abs=1e-9)
    # The sampler draws through a Cholesky factor of the same state; 20000
    # samples estimate a variance to about 1%.
    _, cov = sample_teleport_outcomes(r, gain, 0j, McConfig(20_000, 3))
    assert np.diag(cov) / 0.25 == pytest.approx([want, want], rel=0.05)


@pytest.mark.parametrize("r", [math.nextafter(7.5, 8.0), -math.nextafter(7.5, 8.0), 9.0, 20.0, 354.0])
def test_squeeze_past_the_bound_is_rejected(r):
    with pytest.raises(ValueError, match=r"^r must lie in \[-7\.5, 7\.5\]"):
        covariance_teleport(r, 1.0)
    with pytest.raises(ValueError, match=r"^r must lie in \[-7\.5, 7\.5\]"):
        sample_teleport_outcomes(r, 1.0, 0j, McConfig(1_000, 0))


def test_gaussian_state_is_immutable():
    state = GaussianState(np.zeros(4), np.eye(4) * 0.25)
    assert not state.mean.flags.writeable
    assert not state.cov.flags.writeable
    assert state.n_modes == 2
    assert np.allclose(state.cov, np.eye(4) * 0.25)


def test_two_mode_squeezed_epr_variances_match_expansions():
    # Independent derivations of the same physics: hyperbolic covariance
    # entries here, coefficient algebra in the expansion route.
    rng = random.Random(503)
    for _ in range(30):
        r = rng.uniform(0, 3)
        cov = two_mode_squeezed_cov(r)
        # Var(x1 - x2) and Var(p1 + p2), absolute units.
        var_diff = cov[0, 0] + cov[2, 2] - 2 * cov[0, 2]
        var_sum = cov[1, 1] + cov[3, 3] + 2 * cov[1, 3]
        assert var_diff == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)
        assert var_sum == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)
        pair = make_epr_pair(ZeroBandwidth(r), 0.0)
        diff = combine(pair.x1, pair.x2, 1.0, -1.0)
        normalized = normalized_variance(diff, COHERENT, Axis.X)
        assert normalized * 0.25 == pytest.approx(var_diff, rel=1e-12)


# ---------------------------------------------------------------------------
# Covariance-route teleportation


def test_covariance_teleport_baseline_point():
    state = covariance_teleport(0.0, 1.0)
    assert np.allclose(state.cov, np.eye(2) * 0.75, atol=1e-12)
    assert fidelity_to_coherent(state) == pytest.approx(0.5, rel=1e-12)


def test_covariance_teleport_displaces_by_gain():
    state = covariance_teleport(0.4, 0.7, alpha=2 - 1j)
    assert state.mean[0] == pytest.approx(0.7 * 2.0, rel=1e-12)
    assert state.mean[1] == pytest.approx(0.7 * -1.0, rel=1e-12)


def test_covariance_route_matches_symbolic_variances():
    rng = random.Random(541)
    for _ in range(40):
        r = rng.uniform(0, 3)
        gain = rng.uniform(0, 2)
        state = covariance_teleport(r, gain)
        out = teleport(ZeroBandwidth(r), gain=gain)
        v_x = normalized_variance(out.x_tel, COHERENT, Axis.X)
        v_p = normalized_variance(out.p_tel, COHERENT, Axis.P)
        assert state.cov[0, 0] / 0.25 == pytest.approx(v_x, rel=1e-9)
        assert state.cov[1, 1] / 0.25 == pytest.approx(v_p, rel=1e-9)
        assert abs(state.cov[0, 1]) < 1e-12


def test_covariance_route_matches_symbolic_fidelity():
    rng = random.Random(547)
    for _ in range(25):
        r = rng.uniform(0, 3)
        gain = rng.uniform(0, 2)
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        oracle = fidelity_to_coherent(covariance_teleport(r, gain, alpha), alpha)
        symbolic = teleport_fidelity(teleport(ZeroBandwidth(r), gain), alpha=alpha)
        assert abs(oracle - symbolic) < 1e-9


def test_fidelity_to_coherent_needs_single_mode():
    with pytest.raises(ValueError):
        fidelity_to_coherent(GaussianState(np.zeros(4), np.eye(4) * 0.25))


def test_sampled_protocol_agrees_with_covariance_route():
    cfg = McConfig(sample_count=200_000, seed=7)
    r, gain, alpha = 0.5, 0.8, complex(1.0, -1.0)
    mean, cov = sample_teleport_outcomes(r, gain, alpha, cfg)
    want = covariance_teleport(r, gain, alpha)
    assert np.allclose(mean, want.mean, atol=0.02)
    assert np.allclose(cov, want.cov, atol=0.03)


# ---------------------------------------------------------------------------
# Monte-Carlo variance checks


def test_mc_vacuum_is_one():
    report = mc_check(
        [("vac", VACUUM_X, Axis.X)],
        COHERENT,
        McConfig(sample_count=50_000, seed=1),
    )
    row = report.rows[0]
    assert row.analytic == 1.0
    assert row.ok
    assert abs(row.estimate - 1.0) <= 5 * row.se


def test_mc_teleport_point():
    out = teleport(Nopa(0.5), omega=1.0)
    err_x = combine(out.x_tel, unit_input(), 1.0, -1.0)
    err_p = combine(out.p_tel, unit_input(), 1.0, -1.0)
    report = mc_check(
        [("x_err", err_x, Axis.X), ("p_err", err_p, Axis.P)],
        COHERENT,
        McConfig(sample_count=100_000, seed=2),
    )
    want = 2.0 * (1.0 - 4.0 * 0.5 / (2.25 + 1.0))
    for row in report.rows:
        assert row.analytic == pytest.approx(want, rel=1e-12)
        assert row.ok
    assert report.all_ok


def test_mc_covariance_row():
    out = teleport(Nopa(0.4), omega=0.5)
    report = mc_check(
        [("x_out", out.x_tel, Axis.X), ("x_in", unit_input(), Axis.X)],
        COHERENT,
        McConfig(sample_count=100_000, seed=3),
        pairs=(("x_out", "x_in"),),
    )
    cov_row = report.rows[-1]
    assert cov_row.kind == "covariance"
    assert cov_row.name == "x_out*x_in"
    assert cov_row.analytic == pytest.approx(1.0, rel=1e-12)
    assert cov_row.ok


def test_mc_swapped_pair_variance():
    cfg = SwapConfig(Nopa(0.4))
    out = swap_once(cfg, 0.7)
    epr_x = combine(out.x1, out.x4p, 1.0, -1.0)
    want_x, _ = swapped_epr_variances(cfg, 0.7)
    analytic = normalized_variance(epr_x, COHERENT, Axis.X)
    assert analytic == pytest.approx(want_x, rel=1e-12)
    report = mc_check(
        [("epr_x", epr_x, Axis.X)], COHERENT, McConfig(sample_count=80_000, seed=4)
    )
    assert report.rows[0].ok


def test_mc_is_deterministic_for_a_seed():
    out = teleport(Nopa(0.3), omega=0.4)
    cfg = McConfig(sample_count=70_000, seed=11)
    entries = [("x_out", out.x_tel, Axis.X)]
    a = mc_check(entries, COHERENT, cfg).to_json()
    b = mc_check(entries, COHERENT, cfg).to_json()
    assert a == b
    c = mc_check(entries, COHERENT, McConfig(sample_count=70_000, seed=12)).to_json()
    assert c != a


def test_mc_seeded_stream_is_pinned():
    # Two batches, the last one partial, so any change to seeding, batching
    # or draw order fails.  Recorded on the rotated lossy port layout (labels
    # bar1/bar2 and their _loss ports).
    out = teleport(Nopa(0.6, 0.8), detector=BellDetector(0.9), omega=0.5)
    report = mc_check(
        [("x_out", out.x_tel, Axis.X), ("p_out", out.p_tel, Axis.P), ("x_in", unit_input(), Axis.X)],
        COHERENT,
        McConfig(sample_count=100_000, seed=17),
        pairs=(("x_out", "x_in"),),
    )
    want = [
        ("x_out", "variance", 2.1025877597645093, 2.115008165385882, 0.006658689880675322),
        ("p_out", "variance", 2.1025877597645093, 2.1102884164813305, 0.00669349537706809),
        ("x_in", "variance", 1.0, 0.9989345976020411, 0.003144211643514183),
        ("x_out*x_in", "covariance", 1.0, 1.0027506189676447, 0.003935373444887852),
    ]
    assert len(report.rows) == len(want)
    for row, (name, kind, analytic, estimate, se) in zip(report.rows, want):
        assert (row.name, row.kind, row.analytic) == (name, kind, analytic)
        assert row.estimate == pytest.approx(estimate, rel=1e-12)
        assert row.se == pytest.approx(se, rel=1e-12)
        assert row.ok


def _reference_mc(entries, in_model, cfg, pairs=()):
    # The per-component loop the batch kernel replaced: one rng.normal call
    # for Re and one for Im of each complex component, complex weights, the
    # same batching and math.fsum.  Returns (analytic, estimate, se) per
    # moment row.
    def draw(rng, var_norm, n):
        s = math.sqrt(var_norm * 0.25 / 2.0)
        re = rng.normal(0.0, s, n)
        im = rng.normal(0.0, s, n)
        return re + 1j * im

    named = {name: (e, axis) for name, e, axis in entries}
    moments = [(n, n) for n in named] + list(pairs)
    basis = sorted({k for _, e, _ in entries for k in e.terms}, key=lambda k: (k[0], k[1].value))
    n_batches = -(-cfg.sample_count // (1 << 16))
    sums = [([], []) for _ in moments]
    left = cfg.sample_count
    for seq in np.random.SeedSequence(cfg.seed).spawn(n_batches):
        n = min(left, 1 << 16)
        left -= n
        rng = np.random.default_rng(seq)
        in_x = draw(rng, in_model.v_x, n)
        in_p = draw(rng, in_model.v_p, n)
        draws = {key: draw(rng, 1.0, n) for key in basis}
        values = {}
        for name, (e, axis) in named.items():
            v = e.input_coeff * (in_x if axis is Axis.X else in_p)
            for key, c in e.terms.items():
                v = v + c * draws[key]
            values[name] = v
        for (s1, s2), (a, b) in zip(sums, moments):
            va, vb = values[a], values[b]
            m = va.real * vb.real + va.imag * vb.imag
            s1.append(m.sum())
            s2.append((m * m).sum())
    out = []
    for (s1, s2), (a, b) in zip(sums, moments):
        (ea, axis), (eb, _) = named[a], named[b]
        analytic = normalized_variance(ea, in_model, axis) if a == b else covariance(ea, eb, in_model, axis)
        mean = math.fsum(s1) / cfg.sample_count
        mean_sq = math.fsum(s2) / cfg.sample_count
        se = math.sqrt(max(mean_sq - mean * mean, 0.0) / cfg.sample_count) / 0.25
        out.append((analytic, mean / 0.25, se))
    return out


def test_mc_matches_the_per_component_reference():
    # Pins the draw layout: a squeezed input (v_x != v_p, so swapping the
    # in_x and in_p scales shows), a complex input coefficient, a zero one,
    # a covariance pair and a partial last batch.
    out = teleport(Nopa(0.6, 0.8), detector=BellDetector(0.9), omega=0.5)
    tilted = QuadExpansion(0.6 - 0.3j, {("bar1", Axis.P): 0.2 + 0.7j, ("zz", Axis.P): -1.1j})
    entries = [
        ("x_out", out.x_tel, Axis.X),
        ("p_out", out.p_tel, Axis.P),
        ("tilted", tilted, Axis.P),
        ("x_err", combine(out.x_tel, unit_input(), 1.0, -1.0), Axis.X),
        ("vac", QuadExpansion(0j, {("zz", Axis.X): 0.5 - 0.5j}), Axis.X),
        ("x_in", unit_input(), Axis.X),
    ]
    pairs = (("x_out", "x_in"), ("p_out", "tilted"))
    model = InputModel.squeezed(2.0)
    cfg = McConfig(sample_count=(1 << 16) + 12_345, seed=23)
    report = mc_check(entries, model, cfg, pairs=pairs)
    want = _reference_mc(entries, model, cfg, pairs=pairs)
    assert len(report.rows) == len(want) == 8
    for row, (analytic, estimate, se) in zip(report.rows, want):
        assert row.analytic == analytic
        assert row.estimate == pytest.approx(estimate, rel=1e-14, abs=0)
        assert row.se == pytest.approx(se, rel=1e-14, abs=0)
        assert row.ok is (abs(estimate - analytic) <= max(5.0 * se, 1e-12))
    assert report.all_ok


def test_oracle_check_prints_the_same_bytes_under_one_and_two_blas_threads():
    # The entry values are one BLAS product per batch (of the weights with
    # the draw scales folded in), so a thread count that split its sums
    # differently would move the report's last digits.  A lossy source and
    # detector give 20 draw rows; 70,001 samples make two batches, the
    # second of 4,465.
    argv = ["oracle-check", "--epsilon", "0.6", "--beta", "0.8", "--eta2", "0.9"]
    argv += ["--samples", "70001", "--seed", "5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    stdout = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cvteleport", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout)
    assert '"all_ok": true' in stdout[0]
    assert stdout[0] == stdout[1]


def test_mc_config_limits():
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        McConfig(sample_count=10_000, seed=-1)
    with pytest.raises(ValueError, match="^sample_count must lie in"):
        McConfig(sample_count=10 ** 8 + 1)
    assert McConfig(sample_count=10 ** 8).sample_count == 10 ** 8


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"sample_count": 2.5e5}, "sample_count"),
        ({"sample_count": True}, "sample_count"),
        ({"sample_count": "10000"}, "sample_count"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": None}, "seed"),
    ],
)
def test_mc_config_rejects_non_integers(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
        McConfig(**kwargs)


def test_mc_validation():
    e = VACUUM_X
    cfg = McConfig(sample_count=10_000)
    with pytest.raises(ValueError):
        mc_check([("a", e, Axis.X), ("a", e, Axis.X)], COHERENT, cfg)
    with pytest.raises(ValueError):
        mc_check([("a", e, Axis.X)], COHERENT, cfg, pairs=(("a", "b"),))
    with pytest.raises(ValueError):
        mc_check(
            [("a", e, Axis.X), ("b", QuadExpansion(0j, {("m", Axis.P): 1.0}), Axis.P)],
            COHERENT,
            cfg,
            pairs=(("a", "b"),),
        )
    with pytest.raises(ValueError):
        McConfig(sample_count=500)


def test_mc_report_json_shape():
    report = mc_check(
        [("vac", VACUUM_X, Axis.X)],
        COHERENT,
        McConfig(sample_count=10_000, seed=5),
    )
    import json

    payload = json.loads(report.to_json())
    assert payload["sample_count"] == 10_000
    assert payload["seed"] == 5
    assert payload["all_ok"] is True
    assert payload["rows"][0]["name"] == "vac"
