"""End-to-end checks of the command-line front end via run()."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvteleport
from cvteleport import cli, criteria, swap
from cvteleport._text import format_number
from cvteleport.cli import run
from cvteleport.criteria import OMEGA_LIMIT, bandwidth, fidelity_spectrum
from cvteleport.epr import Nopa, NopaParams
from cvteleport.linmode import InputModel
from cvteleport.swap import SwapConfig, swap_fidelity, swap_spectrum
from cvteleport.teleport import BellDetector, GainSchedule, NonUnitGainWarning

import exact

HEADER = "omega,v_x,v_p,fidelity"


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Spectra read port powers


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--omega-stop", "1"),
        ("swap-spectrum", "--omega-stop", "1"),
        ("point", "--omega", "0.7"),
        ("bandwidth",),
        ("bandwidth", "--pipeline", "swap"),
        ("criteria", "--omega", "0.7"),
    ],
    ids=["spectrum", "swap-spectrum", "point", "bandwidth", "bandwidth-swap", "criteria"],
)
@pytest.mark.parametrize("beta", ["1", "0.9"], ids=["lossless", "lossy"])
def test_spectrum_commands_build_no_complex_amplitudes(capsys, monkeypatch, args, beta):
    # The kernel sums real port powers: no command but oracle-check asks a
    # source for its complex transfer amplitudes.
    calls = []
    monkeypatch.setattr(Nopa, "pair", lambda self, omega: calls.append(omega))
    code, out, _ = invoke(capsys, args[0], "--epsilon", "0.5", "--beta", beta, *args[1:])
    assert code == 0 and out
    assert calls == []


# ---------------------------------------------------------------------------
# point


def test_point_known_row(capsys):
    code, out, _ = invoke(capsys, "point", "--epsilon", "0.5", "--omega", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "1,0.769230769231,0.769230769231,0.722222222222"


def test_point_lossy_detector_row(capsys):
    # kappa/gamma/rho map to epsilon=0.77, beta=0.9; omega 1.12 is
    # dimensionless 0.56 at scale 2/(gamma+rho)=0.5.
    code, out, _ = invoke(
        capsys,
        "point",
        "--kappa", "1.54",
        "--gamma", "3.6",
        "--rho", "0.4",
        "--omega", "1.12",
        "--eta2", "0.97",
    )
    assert code == 0
    row = out.strip().splitlines()[1]
    assert row == "1.12,0.453267247065,0.453267247065,0.815239351682"


def test_point_physical_rates_report_user_frequency(capsys):
    # kappa=1, gamma=4: epsilon=0.5 and scale=0.5, so user omega 2 is
    # dimensionless 1 and the row must match the epsilon route at omega=1,
    # with the frequency column still in user units.
    code, out, _ = invoke(capsys, "point", "--kappa", "1", "--gamma", "4", "--omega", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "2,0.769230769231,0.769230769231,0.722222222222"


@pytest.mark.parametrize("beta", ["1", "1.0", "1e0"])
def test_physical_rates_take_any_spelling_of_beta_one(capsys, tmp_path, beta):
    # The rates imply beta; a value of 1, however it is spelled, on the
    # command line or in a config file, restates it.
    want = invoke(capsys, "point", "--kappa", "0.5", "--gamma", "2")
    assert want[0] == 0
    assert invoke(capsys, "point", "--kappa", "0.5", "--gamma", "2", "--beta", beta) == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kappa=0.5\ngamma=2\nbeta={beta}\n")
    assert invoke(capsys, "point", "--config", str(cfg)) == want
    assert invoke(capsys, "point", "--kappa", "0.5", "--gamma", "2", "--beta", "0.99") == (
        1, "", "error: --beta is implied by --gamma and --rho\n",
    )


def test_point_squeezed_input_changes_fidelity(capsys):
    _, out_coh, _ = invoke(capsys, "point", "--epsilon", "0.3")
    _, out_sq, _ = invoke(capsys, "point", "--epsilon", "0.3", "--input", "squeezed:2")
    f_coh = float(out_coh.strip().splitlines()[1].split(",")[3])
    f_sq = float(out_sq.strip().splitlines()[1].split(",")[3])
    assert f_coh != f_sq


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_without_pump_is_flat_classical(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--epsilon", "0", "--omega-stop", "0.2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == HEADER
    assert lines[1:] == ["0,2,2,0.5", "0.1,2,2,0.5", "0.2,2,2,0.5"]


def test_spectrum_json_format(capsys):
    code, out, _ = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--omega-stop", "1", "--omega-step", "0.5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["fidelity", "omega", "v_p", "v_x"]
    assert payload["omega"] == [0.0, 0.5, 1.0]
    assert payload["fidelity"][0] == pytest.approx(0.9, rel=1e-9)


def test_spectrum_is_deterministic(capsys):
    args = ("spectrum", "--epsilon", "0.37", "--omega-stop", "2")
    code, first, _ = invoke(capsys, *args)
    assert code == 0 and first.startswith(HEADER)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_spectrum_output_file_and_gnuplot(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--omega-stop", "1",
        "--output", str(out_csv), "--gnuplot",
    )
    assert code == 0
    assert out == ""  # table went to the file
    text = out_csv.read_text()
    assert text.splitlines()[0] == HEADER
    script = tmp_path / "sweep.gp"
    body = script.read_text()
    assert "using 1:4" in body
    assert "'sweep.csv'" in body


def test_gnuplot_requires_output_and_csv(capsys, tmp_path):
    code, _, err = invoke(capsys, "spectrum", "--epsilon", "0.5", "--gnuplot")
    assert code == 1 and "gnuplot" in err
    code, _, err = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--gnuplot",
        "--output", str(tmp_path / "x.json"), "--format", "json",
    )
    assert code == 1


# ---------------------------------------------------------------------------
# swap-spectrum


def test_swap_spectrum_matches_library(capsys):
    code, out, _ = invoke(
        capsys,
        "swap-spectrum", "--epsilon", "0.4", "--omega-stop", "1", "--omega-step", "0.5",
    )
    assert code == 0
    cfg = SwapConfig(Nopa(0.4))
    for line in out.strip().splitlines()[1:]:
        omega, _, _, fid = (float(s) for s in line.split(","))
        assert fid == pytest.approx(swap_fidelity(cfg, omega), rel=1e-9)


def test_swap_spectrum_fixed_gain(capsys):
    code, out, _ = invoke(
        capsys,
        "swap-spectrum", "--epsilon", "0.4", "--gain", "fixed:1",
        "--omega-stop", "0", "--omega-step", "1",
    )
    assert code == 0
    fid = float(out.strip().splitlines()[1].split(",")[3])
    cfg = SwapConfig(Nopa(0.4), gain=1.0)
    assert fid == pytest.approx(swap_fidelity(cfg, 0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# bandwidth


def closed_width(eps, t=0.51):
    return 2.0 * math.sqrt(4.0 * eps * t / (2.0 * t - 1.0) - (1.0 + eps) ** 2)


def test_bandwidth_extends_beyond_grid(capsys):
    code, out, _ = invoke(capsys, "bandwidth", "--epsilon", "0.6")
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6), abs=1e-5)
    assert out.strip() == "15.3153517753"  # closed_width(0.6) to 12 digits


def test_bandwidth_physical_rates_rescale(capsys):
    # gamma=1, rho=0: scale 2, so the printed physical width is half the
    # dimensionless one for the same epsilon.
    code, out, _ = invoke(capsys, "bandwidth", "--kappa", "0.3", "--gamma", "1")
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6) / 2.0, abs=1e-5)


def test_bandwidth_swap_pipeline(capsys):
    code, out, _ = invoke(capsys, "bandwidth", "--epsilon", "0.4", "--pipeline", "swap")
    assert code == 0
    assert float(out) == pytest.approx(4.2412, abs=0.01)


def test_bandwidth_custom_threshold(capsys):
    code, out, _ = invoke(
        capsys, "bandwidth", "--epsilon", "0.6", "--threshold", "0.6",
    )
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6, 0.6), abs=1e-5)


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "args",
    [
        ("--epsilon", "0.5", "--threshold", "0.4"),  # below the classical 1/2
        ("--epsilon", "0.5", "--gain", "fixed:0.5"),  # F tends to 1/(1 + g^2) = 0.8
        ("--epsilon", "0.5", "--threshold", "-0.5"),  # F > 0 everywhere
    ],
)
def test_bandwidth_never_crossed_prints_inf(capsys, args):
    code, out, _ = invoke(capsys, "bandwidth", *args)
    assert code == 0
    assert out == "inf\n"


def test_bandwidth_threshold_below_one_half_can_be_finite(capsys):
    # A lossy detector pulls the large-omega fidelity below 1/2.
    code, out, _ = invoke(
        capsys, "bandwidth", "--epsilon", "0.5", "--eta2", "0.8", "--threshold", "0.45",
    )
    assert code == 0
    assert out == "16.7032930885\n"


@st.composite
def _bandwidth_flags(draw):
    # The flags of a bandwidth command: a lossless, lossy, threshold or
    # physical-rate source; a coarse grid (past 4e9 the stencil's floats
    # coincide), a fine one or one that starts off zero; thresholds where
    # the width is ill-conditioned (near the large-omega limit) among them.
    pipeline = draw(st.sampled_from(("teleport", "swap")))
    kind = draw(st.sampled_from(("lossless", "lossy", "threshold", "physical")))
    eps = format(draw(st.floats(0.05, 0.99)), ".6g")
    if kind == "lossless":
        flags = {"--epsilon": eps}
    elif kind == "lossy":
        flags = {"--epsilon": eps, "--beta": format(draw(st.floats(0.5, 0.99)), ".6g")}
    elif kind == "threshold":
        flags = {"--epsilon": "1"}
    else:
        gamma, rho = draw(st.sampled_from((1.0, 3.0, 0.25))), draw(st.sampled_from((0.0, 0.5)))
        kappa = float(eps) * (gamma + rho) / 2.0
        flags = {"--kappa": repr(kappa), "--gamma": repr(gamma), "--rho": repr(rho)}
    start = draw(st.sampled_from((0.0, 0.0, 0.35, 2.0)))
    step = draw(st.sampled_from((0.1, 0.5, 2.5, 30.0, 100.0, 1e10, 0.01, 0.0037)))
    stop = start + step * draw(st.integers(1, 3000 if step < 0.1 else 200))
    flags.update({"--omega-start": repr(start), "--omega-step": repr(step), "--omega-stop": repr(stop)})
    thresholds = ("0.51", "0.51", "0.5", "0.500001", "0.50001", "0.55", "0.6", "0.75")
    flags.update({"--threshold": draw(st.sampled_from(thresholds)), "--pipeline": pipeline})
    if pipeline == "teleport":
        gains = ("unit", "unit", "unit", "fixed:0.9", "fixed:0.9999999", "fixed:1.0000001", "fixed:1.2")
        flags["--gain"] = draw(st.sampled_from(gains))
        flags["--eta2"] = draw(st.sampled_from(("1", "1", "0.9", "0.6")))
        flags["--input"] = "squeezed:" + draw(st.sampled_from(("1", "1", "1", "0.5", "2")))
    else:
        flags["--gain"] = draw(st.sampled_from(("optimal-swap", "fixed:0.8", "fixed:1", "fixed:0.999")))
    return flags


def _source_of(flags):
    # The source and the frequency scale the command line builds from flags.
    if "--epsilon" in flags:
        return Nopa(float(flags["--epsilon"]), float(flags.get("--beta", "1"))), 1.0
    params = NopaParams(*(float(flags.get(k, "0")) for k in ("--kappa", "--gamma", "--rho")))
    return Nopa.from_rates(params), 2.0 / (params.gamma + params.rho)


def _plain_grid_output(flags):
    # What bandwidth must print for flags: the width that bandwidth() reads
    # from the library's table on the plain --omega-* grid, in user units,
    # or the error it raises.
    src, scale = _source_of(flags)
    grid = {k: v for k, v in cli._DEFAULTS.items() if k.startswith("omega_")}
    omega = cli._resolve_grid(grid | {k[2:].replace("-", "_"): v for k, v in flags.items()}) * scale
    gain = flags.get("--gain", "unit")
    fixed = float(gain[len("fixed:"):]) if gain.startswith("fixed:") else None
    try:
        if flags.get("--pipeline", "teleport") == "teleport":
            table = fidelity_spectrum(
                src,
                omega,
                GainSchedule.unit() if fixed is None else GainSchedule.fixed(fixed),
                BellDetector.from_efficiency(float(flags.get("--eta2", "1"))),
                InputModel.squeezed(float(flags.get("--input", "squeezed:1")[len("squeezed:"):])),
            )
        else:
            table = swap_spectrum(SwapConfig(src, gain=fixed), omega)
        width = bandwidth(table, float(flags["--threshold"]))
    except Exception as exc:
        return 2, "", f"error: {exc}\n"
    return 0, format_number(width / scale) + "\n", ""


# How far a closed-root width may lie from its exact bracket, in
# exact.bracket_ulps units: criteria._closed_width takes the crossing
# within 25u = 12.5 ULP of its exact value in floats (within 1 ULP where it
# takes Fractions), and the command line's division by the physical-rate
# scale adds half of one.
CLOSED_WIDTH_ULPS = 13


def _has_closed_root(flags):
    # Whether the width flags ask for has a closed root: a unit-gain
    # teleport of a coherent input, or an optimal-gain swap of a lossless
    # source.
    if flags.get("--pipeline", "teleport") == "teleport":
        coherent = flags.get("--input", "coherent") in ("coherent", "squeezed:1")
        return flags.get("--gain", "unit") == "unit" and coherent
    return flags.get("--gain", "optimal-swap") == "optimal-swap" and _source_of(flags)[0].beta == 1.0


def _exact_fidelity(flags, omega):
    # The exact fidelity at the dimensionless frequency omega of flags with
    # a closed root.
    src, _ = _source_of(flags)
    e, b = src.epsilon, src.beta
    noisy, quiet = exact.nopa_spectra(e, b, omega)
    if flags.get("--pipeline", "teleport") == "teleport":
        eta = BellDetector.from_efficiency(float(flags.get("--eta2", "1"))).eta
        return exact.teleport_fidelity(quiet, eta)
    return exact.swap_fidelity(None if noisy is None else 2 * noisy, 2 * quiet, exact.optimal_gain(e, b, omega))


def _exact_width(flags):
    # The exact width of flags with a closed root, in user units: "0" where
    # F(0) is below threshold, "inf" where F never drops below it, else
    # tests/exact.py's bracket of Fractions around it.
    src, scale = _source_of(flags)
    e, b, threshold = src.epsilon, src.beta, float(flags["--threshold"])
    if _exact_fidelity(flags, 0.0) < Fraction(threshold):
        return "0"
    if flags.get("--pipeline", "teleport") == "teleport":
        eta = BellDetector.from_efficiency(float(flags.get("--eta2", "1"))).eta
        if not 2 + exact.tau2(eta) - 1 / Fraction(threshold) > 0:
            return "inf"
        lo, hi = exact.teleport_width(e, b, eta, threshold)
    else:
        try:
            lo, hi = exact.swap_width(e, b, threshold)
        except ValueError:  # never below threshold
            return "inf"
    return lo / Fraction(scale), hi / Fraction(scale)


def _run_bandwidth(flags):
    # (exit code, stdout, stderr) of the bandwidth command on flags, the
    # width it formatted for stdout (None if it formatted none), and each
    # closed-root confirmation it made as (rows, kernel fidelities, width
    # or None).
    widths, confirmations, confirmed = [], [], cli._confirmed

    def formatted(width):
        widths.append(width)
        return format_number(width)

    def confirming(sweep, crossing, threshold):
        rows, fidelity = [], []

        def read(grid):
            table = sweep(grid)
            rows.extend(grid.tolist())
            fidelity.extend(table.fidelity.tolist())
            return table

        width = confirmed(read, crossing, threshold)
        confirmations.append((rows, fidelity, width))
        return width

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "format_number", formatted), mock.patch.object(cli, "_confirmed", confirming):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["bandwidth", *(part for item in flags.items() for part in item)])
    return code, out.getvalue(), err.getvalue(), widths[-1] if widths else None, confirmations


def _assert_exact_width(flags):
    # A width with a closed root is that root's, confirmed by one kernel
    # call, and within CLOSED_WIDTH_ULPS of the exact one (or exactly 0 or
    # inf).  A row of that call on the wrong side of the threshold, in the
    # kernel or exactly, has an exact fidelity within 4 ulps of it, which no
    # float fidelity resolves; where the kernel's rows do not confirm the
    # root, the width is the search's on the plain grid, digit for digit.
    code, out, err, width, confirmations = _run_bandwidth(flags)
    assert (code, err) == (0, "")
    ((rows, fidelity, confirmed),) = confirmations
    threshold = float(flags["--threshold"])
    # Above, then below the threshold around a crossing; below at 0 for a
    # width of 0, above at OMEGA_LIMIT for one of inf.
    above = [True, False] if len(rows) == 2 else [rows == [OMEGA_LIMIT]]
    assert (confirmed is None) == ([f >= threshold for f in fidelity] != above)
    for row, f, want in zip(rows, fidelity, above):
        exact_f = _exact_fidelity(flags, row)
        if (f >= threshold) != want or (exact_f >= Fraction(threshold)) != want:
            assert exact.ulps(threshold, exact_f) <= 4
    if confirmed is None:
        assert (code, out, err) == _plain_grid_output(flags)
        return
    want = _exact_width(flags)
    if isinstance(want, str):
        assert out == want + "\n"
    else:
        assert exact.bracket_ulps(width, want) <= CLOSED_WIDTH_ULPS


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@settings(deadline=None, max_examples=300, derandomize=True)
@given(flags=_bandwidth_flags())
# Floats coarser than the stencil: a 0 to 1e10 bracket guessed near 1e10,
# on a closed root and on a planned table.
@example(flags={
    "--epsilon": "0.6", "--omega-start": "0", "--omega-step": "1e10", "--omega-stop": "1e10",
    "--threshold": "0.51", "--pipeline": "teleport", "--gain": "unit", "--eta2": "1",
    "--input": "squeezed:1",
})
@example(flags={
    "--epsilon": "0.6", "--beta": "0.9", "--omega-start": "0", "--omega-step": "1e10",
    "--omega-stop": "1e10", "--threshold": "0.51", "--pipeline": "swap", "--gain": "optimal-swap",
})
# No closed form: an ill-conditioned width at a gain just off unit, whose
# printed digits move with the rows it is read from.
@example(flags={
    "--epsilon": "0.6", "--omega-start": "0", "--omega-step": "100", "--omega-stop": "1000",
    "--threshold": "0.500001", "--pipeline": "teleport", "--gain": "fixed:0.9999999",
    "--eta2": "1", "--input": "squeezed:1",
})
def test_bandwidth_prints_the_width_of_the_plain_grid(flags):
    # Where the width has no closed root, the command line builds its
    # table on the grid and the first refinement together where the closed
    # form places them; what it prints is still, digit for digit, the
    # width bandwidth() reads from the table of the plain grid, or the
    # error that raises.  Where it has one, it prints the root's width,
    # within CLOSED_WIDTH_ULPS of the exact one: the plain grid's search
    # misses it by more than the printed digits where the width is
    # ill-conditioned, at a threshold near 1/2.
    if _has_closed_root(flags):
        _assert_exact_width(flags)
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["bandwidth", *(part for item in flags.items() for part in item)])
    assert (code, out.getvalue(), err.getvalue()) == _plain_grid_output(flags)


@st.composite
def _closed_root_flags(draw):
    # The flags of a bandwidth command whose width has a closed root: a
    # unit-gain teleport of a coherent input on ideal or lossy detectors,
    # or an optimal-gain swap of a lossless source, dimensionless or in
    # physical rates; thresholds across (0.4, 1), near 1/2 and near F(0).
    swap = draw(st.booleans())
    eps = draw(st.floats(1e-3, 1.0))
    beta = 1.0 if swap or draw(st.booleans()) else draw(st.floats(0.05, 1.0))
    if beta < 1.0:
        eps = min(eps, 0.999)
    if draw(st.booleans()):
        flags = {"--epsilon": repr(eps), "--beta": repr(beta)}
    else:
        gamma = draw(st.floats(0.1, 10.0))
        rho = gamma * (1.0 / beta - 1.0)
        kappa = min(eps, 0.999) * (gamma + rho) / 2.0
        flags = {"--kappa": repr(kappa), "--gamma": repr(gamma), "--rho": repr(rho)}
    src, _ = _source_of(flags)
    if swap:
        flags["--pipeline"] = "swap"
        f0, limit = swap_fidelity(SwapConfig(src), 0.0), 0.5
    else:
        eta2 = draw(st.sampled_from((1.0, 1.0, draw(st.floats(0.5, 1.0)))))
        flags["--eta2"] = repr(eta2)
        f0 = float(fidelity_spectrum(src, 0.0, detector=BellDetector.from_efficiency(eta2)).fidelity[0])
        limit = 1.0 / (1.0 + 1.0 / eta2)  # 1/(2 + tau^2)
    # Mostly between the large-omega limit of F and F(0), where the width
    # is finite; else near either end, or near 1/2.
    near = draw(st.sampled_from((None, None, None, None, limit, f0, 0.5)))
    if near is None:
        threshold = limit + (f0 - limit) * draw(st.floats(0.0, 1.0))
    else:
        threshold = near * (1.0 + draw(st.sampled_from((-1, 1))) * 10.0 ** -draw(st.integers(2, 12)))
    flags["--threshold"] = repr(threshold)
    return flags


@settings(deadline=None, max_examples=200, derandomize=True)
@given(flags=_closed_root_flags())
# F(0) below threshold prints 0; a threshold at or below the large-omega
# limit 1/(2 + tau^2), on either pipeline, prints inf.
@example(flags={"--epsilon": "0.6", "--threshold": "0.99"})
@example(flags={"--epsilon": "0.6", "--threshold": "0.99", "--pipeline": "swap"})
@example(flags={"--epsilon": "0.5", "--eta2": "0.8", "--threshold": "0.44"})
@example(flags={"--epsilon": "0.5", "--threshold": "0.5"})
@example(flags={"--epsilon": "0.5", "--threshold": "0.5", "--pipeline": "swap"})
# A source at threshold.
@example(flags={"--epsilon": "1", "--threshold": "0.9"})
@example(flags={"--epsilon": "1", "--threshold": "0.9", "--pipeline": "swap"})
# F(0) within 1e-9 of the threshold: F(0) is 0.9 on the teleport, 0.82 on
# the swap.
@example(flags={"--epsilon": "0.5", "--threshold": "0.899999999"})
@example(flags={"--epsilon": "0.5", "--threshold": "0.900000001"})
@example(flags={"--epsilon": "0.5", "--threshold": "0.819999999", "--pipeline": "swap"})
@example(flags={"--epsilon": "0.5", "--threshold": "0.820000001", "--pipeline": "swap"})
# A threshold within 1e-7 of 1/2.
@example(flags={"--epsilon": "0.6", "--threshold": "0.5000001"})
@example(flags={"--epsilon": "0.6", "--threshold": "0.5000001", "--pipeline": "swap"})
@example(flags={"--epsilon": "0.6", "--threshold": "0.4999999", "--eta2": "0.9999999"})
# Physical rates, lossy and lossless.
@example(flags={"--kappa": "0.3", "--gamma": "1", "--rho": "0.5", "--eta2": "0.9", "--threshold": "0.55"})
@example(flags={"--kappa": "0.3", "--gamma": "1", "--threshold": "0.55", "--pipeline": "swap"})
def test_closed_root_widths_are_exact(flags):
    # Every width with a closed root lies within CLOSED_WIDTH_ULPS of its
    # exact bracket, ill-conditioned ones included, or is exactly 0 or inf.
    _assert_exact_width(flags)


@pytest.mark.parametrize(
    "args, width",
    [
        # The search printed 103.574544616 and 1414.2117946; the exact
        # widths are 103.574544627643... and 1414.21179458470...
        (("--epsilon", "0.6", "--threshold", "0.5000001", "--pipeline", "swap"), "103.574544628"),
        (("--epsilon", "0.5", "--threshold", "0.500001", "--omega-stop", "0.1"), "1414.21179458"),
    ],
)
def test_bandwidth_prints_the_exact_width_near_one_half(capsys, args, width):
    code, out, err = invoke(capsys, "bandwidth", *args)
    assert (code, out, err) == (0, width + "\n", "")


@pytest.mark.parametrize("pipeline", ["teleport", "swap"])
@pytest.mark.parametrize("wrong", [0.5, 2.0, 0.0, math.inf])
def test_an_unconfirmed_root_takes_the_search(monkeypatch, capsys, pipeline, wrong):
    # A closed root that the kernel's rows do not confirm (here one scaled
    # off the crossing, or a width of 0 or inf that is neither) leaves the
    # width to the search on the planned table: the same digits, after
    # the one confirming call.
    args = ("--epsilon", "0.6", "--omega-stop", "10", "--pipeline", pipeline)
    _, want, _ = invoke(capsys, "bandwidth", *args)
    closed = cli._closed_width
    monkeypatch.setattr(cli, "_closed_width", lambda *a, **k: closed(*a, **k) * wrong)
    rows, kernel = [], criteria._teleport_columns

    def counted(src, omega, *rest):
        rows.append(np.size(omega))
        return kernel(src, omega, *rest)

    monkeypatch.setattr(criteria, "_teleport_columns", counted)
    assert invoke(capsys, "bandwidth", *args) == (0, want, "")
    assert rows == [1 if wrong in (0.0, math.inf) else 2, 229]


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "args, calls",
    [
        # A closed root (a unit-gain teleport of a coherent input, or the
        # optimal-gain swap of a lossless source): one call on the two rows
        # around it, wherever the grid lies.
        (("--epsilon", "0.6", "--omega-stop", "10"), [2]),
        (("--kappa", "0.3", "--gamma", "1", "--omega-stop", "10"), [2]),
        (("--epsilon", "0.6", "--omega-stop", "10", "--pipeline", "swap"), [2]),
        # A planned crossing on the grid (a swap at a fixed gain, or of a
        # lossy source): the grid and its refinement in one call.
        (("--epsilon", "0.6", "--omega-stop", "10", "--pipeline", "swap", "--gain", "fixed:0.8"), [229]),
        # No closed form: the grid, then the refinement.
        (("--epsilon", "0.6", "--omega-stop", "10", "--gain", "fixed:0.9", "--threshold", "0.6"), [101, 128]),
        (("--epsilon", "0.6", "--omega-stop", "10", "--input", "squeezed:0.5"), [101, 128]),
        # A closed root past the grid: one call too.
        (("--epsilon", "0.6"), [2]),
        # A planned crossing past the grid: the grid, the doubling rows (the
        # first candidate with the octave below it, then every other
        # candidate unless the first is below threshold) and the first
        # refinement in one call, then any refinement left.
        (("--epsilon", "0.6", "--beta", "0.9", "--pipeline", "swap", "--omega-stop", "1"), [713, 128]),
        # A bracket from 0 to 1e10: the stencil's floats coincide, so the
        # grid stands alone and each refinement is a call of its own.
        (
            ("--epsilon", "0.6", "--beta", "0.9", "--pipeline", "swap", "--omega-step", "1e10",
             "--omega-stop", "1e10"),
            [2] + [128] * 7,
        ),
        # A grid past the crossing: one call for a closed root; for a planned
        # one the grid, the row at 0 and the first refinement of [0, 100] in
        # one call, then the refinements left, or the grid and the row at 0
        # alone, where F(0) is below threshold.
        (("--epsilon", "0.6", "--omega-start", "100", "--omega-stop", "101"), [2]),
        (
            ("--epsilon", "0.6", "--beta", "0.9", "--omega-start", "100", "--omega-stop", "101",
             "--pipeline", "swap"),
            [140, 128, 128],
        ),
        # A closed width of 0, read on the row at 0.
        (("--epsilon", "0.6", "--omega-start", "100", "--omega-stop", "101", "--threshold", "0.99"), [1]),
        (
            ("--epsilon", "0.6", "--beta", "0.9", "--omega-start", "100", "--omega-stop", "101",
             "--threshold", "0.99", "--pipeline", "swap"),
            [12],
        ),
        # A closed width of inf, read on the row at OMEGA_LIMIT.
        (("--epsilon", "0.5", "--threshold", "0.4"), [1]),
        (("--epsilon", "0.5", "--threshold", "0.4", "--pipeline", "swap"), [1]),
        (("--epsilon", "0.6", "--beta", "0.9", "--omega-stop", "10", "--pipeline", "swap"), [229]),
    ],
)
def test_bandwidth_kernel_calls(monkeypatch, capsys, args, calls):
    # The rows of each kernel call one bandwidth command makes.
    rows, kernel = [], criteria._teleport_columns

    def counted(src, omega, *rest):
        rows.append(np.size(omega))
        return kernel(src, omega, *rest)

    monkeypatch.setattr(criteria, "_teleport_columns", counted)
    code, _, err = invoke(capsys, "bandwidth", *args)
    assert (code, err, rows) == (0, "", calls)


@pytest.mark.parametrize("pipeline, width", [("teleport", "13.9642400438"), ("swap", "4.82537783468")])
def test_bandwidth_doubles_from_a_tiny_grid(capsys, pipeline, width):
    # The crossing lies some 235 octaves past the grid's last row, 1e-70:
    # doubling goes on up to OMEGA_LIMIT, however far that is.
    code, out, err = invoke(
        capsys, "bandwidth", "--epsilon", "0.5", "--omega-step", "1e-72",
        "--omega-stop", "1e-70", "--pipeline", pipeline,
    )
    assert (code, out, err) == (0, width + "\n", "")


@pytest.mark.parametrize(
    "args, width",
    [
        ((), "15.3153517753"),
        (("--pipeline", "swap"), "5.33864453742"),
        (("--threshold", "0.99"), "0"),  # F(0) = 0.9 is below it too
    ],
    ids=["teleport", "swap", "below-at-zero"],
)
def test_bandwidth_from_a_grid_past_the_crossing(capsys, args, width):
    # Every row of [100, 101] is below threshold, but F(0) is not: the
    # width is the default grid's, read from the bracket [0, 100].
    code, out, err = invoke(
        capsys, "bandwidth", "--epsilon", "0.6", "--omega-start", "100", "--omega-stop", "101", *args
    )
    assert (code, out, err) == (0, width + "\n", "")


def test_bandwidth_kernel_work_on_scan_seed_1(monkeypatch, tmp_path):
    # Every bandwidth op of the benchmark's scan workload at seed 1 (44
    # teleport and 44 swap widths), run in process: the kernel calls, the
    # rows they ask for and the swapped-pair builds they take in all.  A
    # closed root that slips back to the planned table, a plan that stops
    # covering the doubling path, or a second build per call, shows here.
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    workloads = importlib.import_module("workloads")
    calls, builds, kernel = [], [], criteria._teleport_columns

    def counted(src, omega, *rest):
        calls.append(np.size(omega))
        return kernel(src, omega, *rest)

    class Counted(swap._SwappedPair):
        def __init__(self, cfg, omega):
            builds.append(np.size(omega))
            super().__init__(cfg, omega)

    monkeypatch.setattr(criteria, "_teleport_columns", counted)
    monkeypatch.setattr(swap, "_SwappedPair", Counted)
    ops = [op for op in workloads.generate("scan", 1, str(tmp_path)) if op.command == "bandwidth"]
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(list(op.argv)) == 0
        op.check(out.getvalue())
    assert (len(ops), sum(op.swap for op in ops)) == (88, 44)
    # 66 closed roots (the 44 teleports and 22 lossless swaps) of one call
    # on 2 rows each, and 22 lossy swaps on their planned tables, each built
    # on the grid and then on the plan.
    assert (len(calls), calls.count(2), len(builds), sum(calls)) == (88, 66, 66, 4068)


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize("command", ["spectrum", "swap-spectrum"])
def test_threshold_row_prints_inf(capsys, command):
    # At threshold a nonunit gain leaves an infinite noise term: inf, not nan.
    code, out, _ = invoke(
        capsys, command, "--epsilon", "1", "--gain", "fixed:0.5", "--omega-stop", "0",
    )
    assert code == 0
    assert out == HEADER + "\n0,inf,inf,0\n"


@pytest.mark.parametrize("command", ["spectrum", "swap-spectrum"])
@pytest.mark.parametrize("gain", ["unit", "fixed:0.5"])
def test_threshold_grids_print_no_warnings(capsys, command, gain):
    # A numpy RuntimeWarning would leak to stderr; as an error it fails the run.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", NonUnitGainWarning)
        code, out, err = invoke(
            capsys, command, "--epsilon", "1", "--gain", gain, "--omega-stop", "0.5",
        )
    assert (code, err) == (0, "")
    assert "nan" not in out


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "args, key",
    [
        (("spectrum", "--omega-stop", "0.3", "--format", "json"), "v_x"),
        (("criteria",), "v_product"),
    ],
    ids=["spectrum-json", "criteria"],
)
def test_json_writes_infinite_values_as_strings(capsys, args, key):
    # RFC 8259 has no Infinity or NaN token; they print as the CSV strings.
    code, out, _ = invoke(capsys, *args, "--epsilon", "1", "--gain", "fixed:0.5")
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    value = payload[key]
    assert (value[0] if isinstance(value, list) else value) == "inf"


# ---------------------------------------------------------------------------
# criteria


def test_criteria_report_pumped(capsys):
    code, out, _ = invoke(capsys, "criteria", "--epsilon", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["fidelity"] == pytest.approx(0.775229357798165, rel=1e-12)
    assert all(payload["verdicts"].values())
    assert payload["out_product_limit"] == 9.0


def test_criteria_report_classical_point(capsys):
    code, out, _ = invoke(capsys, "criteria", "--epsilon", "0")
    assert code == 0
    payload = json.loads(out)
    assert not any(payload["verdicts"].values())
    assert payload["v_product"] == pytest.approx(4.0, rel=1e-12)


def test_criteria_physical_rates_report_user_frequency(capsys):
    code, out, _ = invoke(
        capsys, "criteria", "--kappa", "1", "--gamma", "4", "--omega", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["omega"] == 2.0
    assert payload["fidelity"] == pytest.approx(0.7222222222222222, rel=1e-12)


def test_criteria_rejects_a_gain_that_overflows_the_output(capsys):
    code, out, err = invoke(capsys, "criteria", "--epsilon", "0.5", "--gain", "fixed:1e200")
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: gain (1e+200+0j) takes the output variance past")


def test_criteria_report_at_a_large_finite_gain(capsys):
    # |gain|^2 = 1e300 stays in range: the report prints, with F = 0 where
    # the Q-function widths' product passes the float range.
    code, out, err = invoke(capsys, "criteria", "--epsilon", "0.5", "--gain", "fixed:1e150")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for key in ("v_x", "v_p", "v_out_x", "v_out_p", "v_c_x", "v_c_p", "t_x", "t_p"):
        assert math.isfinite(payload[key]), key
    assert payload["fidelity"] == 0.0
    assert not any(payload["verdicts"].values())


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_options(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# source setup\nepsilon=0.5\nomega=1\n")
    code, out, _ = invoke(capsys, "point", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[1] == "1,0.769230769231,0.769230769231,0.722222222222"


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0.1\nomega=1\n")
    code, out, _ = invoke(capsys, "point", "--config", str(cfg), "--epsilon", "0.5")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("1,0.769230769231")


def test_config_file_dashed_keys(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0\nomega-stop=0.1\n")
    code, out, _ = invoke(capsys, "spectrum", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + 2 rows


@pytest.mark.parametrize("value, script", [("1", True), ("0", False), ("", False)])
def test_config_file_gnuplot_values(capsys, tmp_path, value, script):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon=0.5\nomega-stop=0.2\ngnuplot={value}\n")
    out_csv = tmp_path / "t.csv"
    code, out, err = invoke(capsys, "spectrum", "--config", str(cfg), "--output", str(out_csv))
    assert (code, out, err) == (0, "", "")
    assert out_csv.read_text().startswith(HEADER)
    assert (tmp_path / "t.gp").exists() is script
    # Off needs no --output.
    code, out, _ = invoke(capsys, "spectrum", "--config", str(cfg))
    assert code == (1 if script else 0)


@pytest.mark.parametrize("value", ["no", "yes", "true", "2"])
def test_config_file_gnuplot_rejects_other_values(capsys, tmp_path, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon=0.5\ngnuplot={value}\n")
    code, out, err = invoke(
        capsys, "spectrum", "--config", str(cfg), "--output", str(tmp_path / "t.csv")
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --gnuplot: expected 1 or 0, got {value!r}")
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "t.gp").exists()


def test_config_file_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("epsilon=0.5\nbogus=1\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_key))
    assert code == 1 and "bogus" in err

    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("epsilon 0.5\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_line))
    assert code == 1 and "key=value" in err

    # A missing file and one that does not decode as UTF-8 both name
    # --config, given spaced or joined.
    not_utf_8 = tmp_path / "latin.cfg"
    not_utf_8.write_bytes(b"epsilon=0.5\n\xff\n")
    for path, reason in [
        (tmp_path / "missing.cfg", "No such file"),
        (not_utf_8, "codec can't decode byte 0xff in position 12"),
    ]:
        for flags in (["--config", str(path)], [f"--config={path}"]):
            code, out, err = invoke(capsys, "point", *flags)
            assert (code, out) == (1, "")
            assert err.startswith("error: --config: cannot read config file: ")
            assert reason in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "args",
    [
        ("point",),  # no source at all
        ("point", "--epsilon", "2"),  # out of range
        ("point", "--epsilon", "abc"),
        ("point", "--epsilon", "0.5", "--kappa", "1", "--gamma", "3"),
        ("point", "--kappa", "1"),  # gamma missing
        ("point", "--kappa", "1", "--gamma", "4", "--beta", "0.9"),
        ("point", "--epsilon", "0.5", "--eta2", "0"),
        ("point", "--epsilon", "0.5", "--gain", "bogus"),
        ("point", "--epsilon", "0.5", "--input", "thermal"),
        ("spectrum", "--epsilon", "0.5", "--gain", "optimal-swap"),
        ("spectrum", "--epsilon", "0.5", "--format", "xml"),
        ("spectrum", "--epsilon", "0.5", "--omega-step", "0"),
        ("spectrum", "--epsilon", "0.5", "--threads", "0"),
        ("bandwidth", "--epsilon", "0.5", "--pipeline", "carrier"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "10"),
        ("frobnicate",),
        (),
        ("point", "--epsilon", "0.5", "--omega", "nan"),
        ("point", "--epsilon", "0.5", "--gain", "fixed:nan"),
        ("criteria", "--epsilon", "0.5", "--omega", "inf"),
        ("spectrum", "--epsilon", "0.5", "--omega-stop", "nan"),
        ("spectrum", "--epsilon", "0.5", "--omega-stop", "inf"),
        ("point", "--kappa", "1", "--gamma", "nan"),
        ("swap-spectrum", "--epsilon", "0.5", "--eta2", "0.5", "--input", "squeezed:2"),
        ("swap-spectrum", "--epsilon", "0.5", "--input", "squeezed:2"),
        ("bandwidth", "--epsilon", "0.5", "--pipeline", "swap", "--eta2", "0.3"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "2000", "--seed", "-1"),
        ("oracle-check", "--epsilon", "0.5", "--samples", "100000001"),
        ("point", "--epsilon", "0.5", "--input", "squeezed:1e200"),
        ("point", "--epsilon", "0.5", "--input", "squeezed:1e-200"),
        ("bandwidth", "--epsilon", "0.5", "--format", "xml", "--gnuplot"),
    ],
)
def test_configuration_errors_exit_1(capsys, args):
    code, _, err = invoke(capsys, *args)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "args, message",
    [
        (("spectrum", "--epsilon", "0.5", "--omega-start", "2", "--omega-stop", "1"),
         "--omega-stop must not be below --omega-start"),
        # The escape efficiency gamma/(gamma + rho) = 5e-324/10 rounds to 0.
        (("point", "--kappa", "0", "--gamma", "5e-324", "--rho", "10"),
         "the escape efficiency gamma/(gamma+rho) rounds to 0"),
    ],
    ids=["inverted-grid", "vanishing-escape"],
)
def test_inverted_grid_and_vanishing_escape_exit_1(capsys, args, message):
    assert invoke(capsys, *args) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("point", "--epsilon", "0.5", "--omega", "nan"), "--omega"),
        (("point", "--epsilon", "0.5", "--gain", "fixed:nan"), "--gain"),
        (("criteria", "--epsilon", "0.5", "--omega", "inf"), "--omega"),
        (("spectrum", "--epsilon", "0.5", "--omega-stop", "nan"), "--omega-stop"),
        (("spectrum", "--epsilon", "0.5", "--omega-start=-inf"), "--omega-start"),
        (("point", "--kappa", "1", "--gamma", "nan"), "--gamma"),
        (("point", "--epsilon", "inf"), "--epsilon"),
        (("spectrum", "--epsilon", "0.5", "--omega-start", "-inf"), "--omega-start"),
    ],
)
def test_non_finite_values_name_the_flag(capsys, args, flag):
    code, _, err = invoke(capsys, *args)
    assert code == 1
    assert err.startswith(f"error: {flag}: expected a finite number")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("oracle-check", "--epsilon", "0.5", "--samples", "2000", "--seed", "-1"), "--seed"),
        (("oracle-check", "--epsilon", "0.5", "--samples", "10"), "--samples"),
        (("oracle-check", "--epsilon", "0.5", "--samples", "100000001"), "--samples"),
        (("oracle-check", "--epsilon", "0.5", "--seed", "x"), "--seed"),
    ],
)
def test_oracle_check_limits_name_the_flag(capsys, args, flag):
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("s_v", ["1e200", "1e-200", "0", "-2"])
def test_squeezed_input_errors_name_the_flag(capsys, s_v):
    # Variances of 1e400 used to escape as an OverflowError (exit 2).
    code, out, err = invoke(capsys, "point", "--epsilon", "0.5", "--input", f"squeezed:{s_v}")
    assert (code, out) == (1, "")
    assert err.startswith("error: --input: ")


def test_lossy_spectrum_near_threshold_exits_0(capsys):
    # The unit-gain weight once cancelled two amplitudes of order 1/(1 - epsilon)
    # and tripped the closed-form cross-check here (exit 2).
    code, out, _ = invoke(
        capsys, "spectrum", "--epsilon", "0.9999999999", "--beta", "0.875", "--omega-stop", "0.1"
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0.25,0.25,0.888888888889"


@pytest.mark.parametrize(
    "args, flag",
    [
        (("swap-spectrum", "--epsilon", "0.5", "--eta2", "0.5", "--input", "squeezed:2"), "--eta2"),
        (("swap-spectrum", "--epsilon", "0.5", "--input", "squeezed:2"), "--input"),
        (("bandwidth", "--epsilon", "0.5", "--pipeline", "swap", "--eta2", "0.3"), "--eta2"),
    ],
)
def test_swap_pipeline_rejects_teleport_only_flags(capsys, args, flag):
    # Swapping is verified with a coherent input on ideal detectors.
    code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} does not apply to the swap pipeline")


@pytest.mark.parametrize(
    "stop, step",
    [
        ("5", "1e-300"),  # 5e300 rows: rejected before any list is built
        ("1e300", "1e-300"),  # the row count overflows to inf
        ("1000000", "1"),  # one row over the cap
    ],
)
def test_grid_size_is_capped(capsys, stop, step):
    code, out, err = invoke(
        capsys, "spectrum", "--epsilon", "0.5", "--omega-stop", stop, "--omega-step", step,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --omega-step: the grid would exceed 1000000 rows")


@pytest.mark.parametrize(
    "args, flag",
    [
        (("point", "--epsilon", "0.5", "--omega", "1e160"), "--omega"),
        (("criteria", "--epsilon", "0.5", "--omega", "1e200"), "--omega"),
        (("point", "--epsilon", "0.5", "--omega=-1e160"), "--omega"),
        (("criteria", "--epsilon", "0.5", "--omega=-1e200"), "--omega"),
        (("swap-spectrum", "--epsilon", "0.5", "--omega-start", "1e200", "--omega-stop", "1e200"),
         "--omega-start"),
        (("spectrum", "--epsilon", "0.5", "--omega-stop", "1e200", "--omega-step", "1e196"),
         "--omega-stop"),
        (("bandwidth", "--epsilon", "0.5", "--omega-stop", "1e200", "--omega-step", "1e196"),
         "--omega-stop"),
        # Physical rates: 1e5 in units of gamma = 1e-150 is 2e155 dimensionless.
        (("point", "--kappa", "1e-151", "--gamma", "1e-150", "--omega", "1e5"), "--omega"),
        # The token after a value flag is its value, an exponent form too.
        (("point", "--epsilon", "0.5", "--omega", "-1e160"), "--omega"),
        (("criteria", "--epsilon", "0.5", "--omega", "-1e200"), "--omega"),
    ],
)
def test_frequencies_past_the_limit_name_the_flag(capsys, args, flag):
    # Their squares pass the float range; they used to leak a RuntimeWarning
    # and exit 2 with "Q-function variances must be positive".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, *args)
    assert (code, out) == (1, "")
    # Physical rates name the flags that set the scale 2/(gamma+rho) too.
    scaled = "; --gamma and --rho scale it by 2e+150" if "--gamma" in args else ""
    assert err == (
        f"error: {flag}: frequencies of magnitude above 1e+154 (dimensionless) "
        f"are out of range{scaled}\n"
    )


@pytest.mark.parametrize("omega", ["1e154", "-1e154"])
def test_frequency_at_the_limit_is_accepted(capsys, omega):
    code, out, _ = invoke(capsys, "point", "--epsilon", "0.5", f"--omega={omega}")
    assert code == 0
    assert out.splitlines()[1] == f"{float(omega):g},2,2,0.5"


@pytest.mark.parametrize(
    "args",
    [
        ("--pipeline", "swap"),  # never crossed: the swapped fidelity tends to 1/2 from above
        ("--omega-start", "1e100", "--omega-stop", "1e100"),  # doubles up to the limit
    ],
)
def test_bandwidth_at_threshold_one_half_prints_inf(capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "bandwidth", "--epsilon", "0.5", "--threshold", "0.5", *args)
    assert (code, out, err) == (0, "inf\n", "")


def test_unwritable_output_exits_2(capsys):
    code, _, err = invoke(
        capsys,
        "spectrum", "--epsilon", "0.5", "--output", "/nonexistent-dir/x.csv",
    )
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# byte stability

# sha256 of stdout for a fixed set of commands: every printed digit is
# pinned, so a refactor that moves any output by one ulp at 12 significant
# digits fails here.
STDOUT_SHA256 = [
    pytest.param(
        "b8437c10a76751f3aef551da0885de01e33515aa4348fb2351e9cdd6aea0d4af",
        ("spectrum", "--epsilon", "0.6", "--omega-stop", "3"),
        id="spectrum-lossless",
    ),
    pytest.param(
        "421b8103821c3a0018d64fda1a6db22d32388452d3852a9008857449e95e2feb",
        (
            "spectrum", "--epsilon", "0.6", "--beta", "0.9", "--eta2", "0.97",
            "--omega-stop", "3",
        ),
        id="spectrum-lossy-eta2",
    ),
    pytest.param(
        "65c48890a364bc3d3aff7f3bf4e21224e278eadea72e3544535f49bd8a58956c",
        (
            "spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "4", "--omega-step", "0.25",
        ),
        id="spectrum-physical",
    ),
    pytest.param(
        "0c27b31fc8655a50319e9443df708d9ec522d8922ce92bc8b7a3666f32a0441e",
        (
            "spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "2",
            "--format", "json",
        ),
        id="spectrum-json",
    ),
    pytest.param(
        "aaabd775915834714a7abb36961ed0ba406c89652762226e9370e7f1c09a49be",
        ("swap-spectrum", "--epsilon", "0.4", "--omega-stop", "3"),
        id="swap-optimal",
    ),
    pytest.param(
        "b0bb17f565b56384ad08bc978cd0ac3808f531fd8942c0a6e1728ed4e17a9558",
        (
            "swap-spectrum", "--epsilon", "0.4", "--beta", "0.9", "--gain", "fixed:0.8",
            "--omega-stop", "3",
        ),
        id="swap-fixed-gain",
    ),
    pytest.param(
        "7b339a946c58d40ce2e734675cf0157219326da80ef31ecc50e959ac8e6659ac",
        ("point", "--epsilon", "1"),
        id="point-threshold",
    ),
    # v_c_x and v_c_p are Im(g)^2 V_in + noise: 0.2976312820067702 for
    # both, where V_out - C^2/V_in gave 0.29763128200677025 and
    # 0.2976312820067706 (0.8 and 5.9 units of 2^-52 relative away).
    pytest.param(
        "cbbd34e6af4bafd84e03ec342da7b6da2f57693ed495eece389a89b62fa8d436",
        (
            "criteria", "--epsilon", "0.6", "--omega", "0.5",
            "--input", "squeezed:1.5", "--gain", "fixed:0.9",
        ),
        id="criteria-squeezed-fixed-gain",
    ),
    # The report's template with every P float the X one (a symmetric
    # input), relabelled in user units, and a one-row CSV relabelled too.
    pytest.param(
        "264905b6dd558599338f20715588b3130558ab006f248b326a071e83d5ec1206",
        ("criteria", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4", "--omega", "0.8"),
        id="criteria-physical-rho",
    ),
    pytest.param(
        "fce2a4ee84ffe5b695979cc254b2cdc2fcc55440e31f4b8b9d52a3145bfb4f5b",
        (
            "criteria", "--epsilon", "0.6", "--beta", "0.9", "--omega", "0.5",
            "--gain", "fixed:0.8",
        ),
        id="criteria-symmetric-fixed-gain",
    ),
    pytest.param(
        "e49b263ca5c57df09aac13ddbad41ec2b1c89f37578fe001c574260d5136b786",
        (
            "point", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4", "--eta2", "0.9",
            "--omega", "0.8",
        ),
        id="point-physical-eta2",
    ),
    pytest.param(
        "2676b80c29579a7424ab3db4887e98695d6b9e4fe891134ad9dfa013ec8c9a76",
        ("bandwidth", "--epsilon", "0.6"),
        id="bandwidth-teleport",
    ),
    pytest.param(
        "50ccc318cb99116c449fd3c58a0c20fba8b9a3b571ee0315fad291b4a475ae28",
        ("bandwidth", "--epsilon", "0.4", "--pipeline", "swap"),
        id="bandwidth-swap",
    ),
    pytest.param(
        "1f65f1ecf5b99ad6cc9287c447067635535b38730021dbb28652203ae5eda409",
        (
            "swap-spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "2",
            "--format", "json",
        ),
        id="swap-lossy-json",
    ),
    pytest.param(
        "826d5111507121c2068d32b62c32d43ae18d92f8d51be2ef9b100c0cdf2fc9df",
        ("swap-spectrum", "--epsilon", "1"),
        id="swap-threshold",
    ),
    pytest.param(
        "ac4a700d7da528654645913de374976437aa2700b42adb4810708bbe5e17fc12",
        ("swap-spectrum", "--epsilon", "1", "--gain", "fixed:0.5"),
        id="swap-threshold-fixed-gain",
    ),
    pytest.param(
        "70ddc52a647fb947e9ceb5d670b3213f4cb6d9c1e52dd82ab0dcdf02e1790376",
        (
            "swap-spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "4", "--omega-step", "0.25",
        ),
        id="swap-physical",
    ),
    # Physical rates with rho = 0: a source without loss ports.
    pytest.param(
        "1752415722d8e8ecc2941cb6900caebc62b55d76d15cb09b2a7cd09a258d744d",
        ("spectrum", "--kappa", "1.54", "--gamma", "3.6"),
        id="spectrum-physical-lossless",
    ),
    pytest.param(
        "3bdeae27f6638775a0cb15fba72adadd34484b0ee3c8dcd07c0131e60ddaae08",
        ("bandwidth", "--kappa", "1.54", "--gamma", "3.6"),
        id="bandwidth-physical-lossless",
    ),
    # Tables of _text._VECTOR_ROWS (130) rows or more, which the numpy
    # writer formats; the physical-rate ones report frequencies in user
    # units, rebuilt by cli._reindex.
    pytest.param(
        "b3fce8c8b6ba882b8003c16cb5ace5dd6f893b73fccb7469bc549dfa7bbda078",
        ("spectrum", "--epsilon", "0.6", "--omega-stop", "30"),
        id="spectrum-lossless-301-rows",
    ),
    pytest.param(
        "373d691bfc38b894144385101628de34248dbf646459f36c52fa727b02381e44",
        (
            "spectrum", "--epsilon", "0.6", "--beta", "0.9", "--eta2", "0.97",
            "--omega-stop", "25", "--format", "json",
        ),
        id="spectrum-lossy-eta2-json-251-rows",
    ),
    pytest.param(
        "f3458dc6913338191d0b14f9d6b0bc18f6a83349fda24b307486dd95faa0c60c",
        (
            "spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "60", "--omega-step", "0.25", "--format", "json",
        ),
        id="spectrum-physical-json-241-rows",
    ),
    pytest.param(
        "9a3e23c908bfd64f1fd023bdc0a6839089be369bb0098515f8b00c7b44466f88",
        ("spectrum", "--epsilon", "1", "--gain", "fixed:0.8", "--omega-stop", "20"),
        id="spectrum-threshold-fixed-gain-201-rows",
        marks=pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning"),
    ),
    pytest.param(
        "bb83489c56247496e313cdb10cd971b7d1fd3bbb0782d4021c90af8b4e854546",
        ("swap-spectrum", "--epsilon", "0.4", "--omega-stop", "30", "--format", "json"),
        id="swap-optimal-json-301-rows",
    ),
    pytest.param(
        "9de4ac4ebf1ded274b14614ec3850bcc64e4298dfe818ffddaf4166862b2f550",
        ("swap-spectrum", "--epsilon", "0.5", "--beta", "0.8", "--omega-stop", "20"),
        id="swap-lossy-201-rows",
    ),
    pytest.param(
        "cd8a515f8ed232df3607cd7b407aad6efbabd80115791b8eb758871047322d22",
        (
            "swap-spectrum", "--kappa", "1.54", "--gamma", "3.6", "--rho", "0.4",
            "--omega-stop", "60", "--omega-step", "0.25",
        ),
        id="swap-physical-241-rows",
    ),
    pytest.param(
        "6df8a3fda4b9fd0612ab4adef79d7134518bdec5e9531b3601b37b35f916fdd5",
        ("swap-spectrum", "--epsilon", "1", "--omega-stop", "20", "--format", "json"),
        id="swap-threshold-json-201-rows",
    ),
    # A squeezed input at unit gain: v_p is v_x bit for bit, and the
    # kernel gives it as v_x itself.
    pytest.param(
        "b3221b42e9e4e28bb12020af493b9eb0ff9ce98f1df5745f76a4a809fa73ca2c",
        ("spectrum", "--epsilon", "0.5", "--input", "squeezed:2", "--omega-stop", "20", "--omega-step", "0.01"),
        id="spectrum-squeezed-unit-gain-2001-rows",
    ),
    pytest.param(
        "3e9222284e1f40e044cb24ff07d26771f3d6c67cecbbabfb39b55e5852ee608c",
        (
            "spectrum", "--epsilon", "0.5", "--input", "squeezed:2", "--omega-stop", "20",
            "--omega-step", "0.01", "--format", "json",
        ),
        id="spectrum-squeezed-unit-gain-json-2001-rows",
    ),
]


@pytest.mark.parametrize("digest, args", STDOUT_SHA256)
def test_stdout_is_byte_stable(capsys, digest, args):
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes_and_writes_report(capsys, tmp_path):
    report_path = tmp_path / "oracle.json"
    code, out, _ = invoke(
        capsys,
        "oracle-check", "--epsilon", "0.5", "--omega", "1",
        "--samples", "2000", "--seed", "3", "--output", str(report_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["mc"]["all_ok"] is True
    assert all(row["ok"] for row in payload["gaussian"])
    names = [row["name"] for row in payload["mc"]["rows"]]
    assert "x_err" in names and "x_out*x_in" in names
    assert report_path.read_text() == out


# oracle-check is the one command that walks the sources' complex
# amplitudes (pair()), through teleport()'s expansions.  Its seeded report
# is pinned: each analytic value exactly, each Monte-Carlo estimate and its
# standard error to rel 1e-12, as in test_mc_seeded_stream_is_pinned.
ORACLE_GAUSSIAN_ROWS = [
    ("fidelity(r=0,gain=1)", 0.5, 0.5),
    ("fidelity(r=1,gain=1)", 0.8807970779778823, 0.8807970779778826),
    ("fidelity(r=0.7,gain=1.6)", 0.19333488288882322, 0.1933348828888232),
    ("fidelity(r=2,gain=0.5)", 0.21834630351841536, 0.21834630351841536),
]


@pytest.mark.parametrize(
    "flags, want",
    [
        pytest.param(
            ("--epsilon", "0.5", "--omega", "1"),
            [
                ("x_out", "variance", 1.7692307692307694, 1.795823497622276, 0.04068239936390442),
                ("p_out", "variance", 1.7692307692307694, 1.7832466218061214, 0.039798680759733786),
                ("x_err", "variance", 0.7692307692307694, 0.7663137720658721, 0.01665326971374695),
                ("p_err", "variance", 0.7692307692307694, 0.7950855782813266, 0.01783783158204621),
                ("x_in", "variance", 1.0, 0.987788200746933, 0.022757835530708932),
                ("x_out*x_in", "covariance", 1.0, 1.0086489631516684, 0.027697732891682543),
            ],
            id="lossless",
        ),
        pytest.param(
            ("--epsilon", "0.6", "--beta", "0.9", "--eta2", "0.97", "--omega", "0.5"),
            [
                ("x_out", "variance", 1.5244891220603882, 1.4633284560741322, 0.034587673937221126),
                ("p_out", "variance", 1.5244891220603882, 1.5475669173731246, 0.035244071959726925),
                ("x_err", "variance", 0.5244891220603882, 0.5053519336639698, 0.01173259874293178),
                ("p_err", "variance", 0.5244891220603882, 0.5253061628347228, 0.011679787320962703),
                ("x_in", "variance", 1.0, 0.987788200746933, 0.022757835530708932),
                ("x_out*x_in", "covariance", 1.0, 0.9728823615785476, 0.025675919954520253),
            ],
            id="lossy",
        ),
        pytest.param(
            ("--kappa", "1.54", "--gamma", "3.6", "--omega", "0.8"),
            [
                ("x_out", "variance", 1.119976940554105, 1.1242972391603385, 0.02626272575122589),
                ("p_out", "variance", 1.119976940554105, 1.1073095726826794, 0.02534402282640771),
                ("x_err", "variance", 0.11997694055410493, 0.11952197644002079, 0.0025974108556210008),
                ("p_err", "variance", 0.11997694055410493, 0.12400951570915032, 0.0027821669971332804),
                ("x_in", "variance", 1.0, 0.987788200746933, 0.022757835530708932),
                ("x_out*x_in", "covariance", 1.0, 0.9962817317336253, 0.02389790435868419),
            ],
            id="physical-lossless",
        ),
    ],
)
def test_oracle_check_report_is_pinned(capsys, flags, want):
    code, out, _ = invoke(capsys, "oracle-check", *flags, "--samples", "2000", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    rows = report["mc"]["rows"]
    assert len(rows) == len(want)
    for row, (name, kind, analytic, estimate, se) in zip(rows, want):
        assert (row["name"], row["kind"], row["analytic"]) == (name, kind, analytic)
        assert row["estimate"] == pytest.approx(estimate, rel=1e-12)
        assert row["se"] == pytest.approx(se, rel=1e-12)
        assert row["ok"] is True
    gaussian = [(g["name"], g["analytic"], g["estimate"]) for g in report["gaussian"]]
    assert gaussian == ORACLE_GAUSSIAN_ROWS
    assert all(g["ok"] for g in report["gaussian"])


def test_oracle_check_squeezed_input_passes(capsys):
    code, out, _ = invoke(
        capsys,
        "oracle-check", "--epsilon", "0.5", "--omega", "1",
        "--input", "squeezed:2", "--samples", "100000",
    )
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_oracle_check_rejects_infinite_output_variance(capsys):
    # At threshold a nonunit gain leaves the output variance infinite, so
    # there is nothing to sample; the gain is the offending flag.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "1", "--gain", "fixed:0.5", "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain:")


@pytest.mark.parametrize("gain", ["fixed:1e154", "fixed:1e200"])
def test_oracle_check_rejects_a_gain_that_overflows_the_output(capsys, gain):
    # |gain * amplitude|^2 passes the float range: an infinite variance, not
    # an OverflowError from the square.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", gain, "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: the teleported output variance is infinite")
    assert "very large gain" in err


def test_oracle_check_rejects_a_gain_that_overflows_the_moment_sums(capsys):
    # The output variance (5.56e300) is finite, but the squares of its
    # samples are not: the Monte-Carlo rows would read nan and fail (exit 2).
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", "fixed:1e150", "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: the teleported output variance 5.55555555556e+300")


@pytest.mark.parametrize(
    "eta2, message",
    [
        ("1e-160", "error: --eta2: the teleported output variance 2e+160 is past 1e+148"),
        ("1e-300", "error: --eta2: the teleported output variance 2e+300 is past 1e+148"),
        ("5e-324", "error: --eta2: the teleported output variance is infinite at this frequency"),
    ],
)
def test_oracle_check_blames_the_detector_for_its_noise(capsys, eta2, message):
    # The detector noise 2(1 - eta^2)/eta^2 alone passes the limit: on ideal
    # detectors the same teleport is well within it, so --eta2 is named.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--eta2", eta2, "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith(message)


def test_oracle_check_blames_the_gain_past_the_limit_on_ideal_detectors(capsys):
    # fixed:1e150 passes the limit on ideal detectors too, so a lossy
    # detector does not take the blame for it.
    code, out, err = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--eta2", "0.5", "--gain", "fixed:1e150",
        "--samples", "1000",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --gain: the teleported output variance 7.55555555556e+300")


def test_oracle_check_just_under_the_variance_limit_passes(capsys):
    # fixed:4e73 gives an output variance of 8.9e147, under the 1e148 limit.
    code, out, _ = invoke(
        capsys, "oracle-check", "--epsilon", "0.5", "--gain", "fixed:4e73", "--samples", "1000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert 8e147 < report["mc"]["rows"][0]["analytic"] < 1e148


@pytest.mark.parametrize(
    "args",
    [
        ("spectrum", "--epsilon", "1", "--gain", "fixed:1e300"),
        ("spectrum", "--epsilon", "1", "--eta2", "0.5", "--gain", "fixed:1e160"),
        ("swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300"),
        (
            "swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300",
            "--omega-start", "1e-8", "--omega-step", "1",
        ),
        (
            "oracle-check", "--epsilon", "0.5", "--gain", "fixed:0",
            "--input", "squeezed:1e80", "--samples", "1000",
        ),
        ("oracle-check", "--epsilon", "0.5", "--input", "squeezed:1e153", "--samples", "1000"),
        # No squeezed-port power at omega = 0: the optimal swap gain's
        # (A - B)/(A + B) is 0/0 there.
        ("swap-spectrum", "--epsilon", "0", "--beta", "0.5"),
        ("bandwidth", "--epsilon", "0", "--beta", "0.5", "--pipeline", "swap"),
        ("swap-spectrum", "--kappa", "0", "--gamma", "1", "--rho", "1"),
    ],
)
def test_edge_inputs_give_a_table_or_name_a_flag(capsys, args):
    # Inputs that once failed deep in the numerics (exit 2): each either
    # prints a valid table or is a configuration error naming one of its
    # flags.  A leaked RuntimeWarning fails the test through pytest's filter.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        code, out, err = invoke(capsys, *args)
    assert code in (0, 1), err
    if code == 1:
        assert out == ""
        assert err.split(":")[1].strip() in args, err
        return
    if args[0] == "bandwidth":
        assert float(out) >= 0.0
        return
    header, *rows = out.splitlines()
    assert header == HEADER and rows
    for row in rows:
        assert 0.0 <= float(row.split(",")[3]) <= 1.0, row


_SOURCE_FLAGS = ("--epsilon", "--kappa", "--gamma", "--rho", "--beta", "--eta2", "--gain", "--input")
_GRID_FLAGS = ("--omega-start", "--omega-stop", "--omega-step")
_FLAGS = {
    "spectrum": _SOURCE_FLAGS + _GRID_FLAGS + ("--format", "--gnuplot"),
    "swap-spectrum": _SOURCE_FLAGS + _GRID_FLAGS + ("--format", "--gnuplot"),
    "point": _SOURCE_FLAGS + ("--omega",),
    "bandwidth": _SOURCE_FLAGS + _GRID_FLAGS + ("--threshold", "--pipeline"),
    "criteria": _SOURCE_FLAGS + ("--omega",),
    "oracle-check": _SOURCE_FLAGS + ("--omega", "--seed"),
}
# Numbers at the edges of each range and of the float range, non-finite
# and malformed text.
_EDGE_NUMBERS = (
    "0", "-0", "5e-324", "1e-300", "1e-160", "1e-8", "0.5", repr(1 - 2 ** -53), "1", "2",
    "1e153", "1e154", "1.3e154", "1e300", "-5e-324", "-1", "-1e154", "-1e300",
    "nan", "inf", "-inf", "", "x", "1e", "0x10",
)
# Half the draws are ordinary values, so that most flags pass and the
# edge values reach the numerics.
_number = st.one_of(st.sampled_from(_EDGE_NUMBERS), st.sampled_from(("0.1", "0.5", "0.9", "1")))
_VALUES = {
    "--gain": st.one_of(
        st.sampled_from(("unit", "optimal-swap", "fixed", "bogus")),
        _number.map("fixed:{}".format),
    ),
    "--input": st.one_of(
        st.sampled_from(("coherent", "thermal", "squeezed")),
        _number.map("squeezed:{}".format),
    ),
    "--pipeline": st.sampled_from(("teleport", "swap", "carrier")),
    "--format": st.sampled_from(("csv", "json", "xml")),
}


@st.composite
def _argvs(draw):
    # A command and some of its flags, each as --flag value or --flag=value
    # (a value such as -1e300 reads the same either way).  A source flag is
    # always among them: with none, the error names the flags there are to
    # give.
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = draw(st.sets(st.sampled_from(_FLAGS[command]), max_size=4))
    flags |= set(draw(st.sampled_from((("--epsilon",), ("--kappa", "--gamma")))))
    argv = [command]
    for flag in sorted(flags):
        if flag == "--gnuplot":
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, draw(_VALUES.get(flag, _number))]
        else:
            argv.append(f"{flag}={draw(_VALUES.get(flag, _number))}")
    if command == "oracle-check":
        argv.append("--samples=1000")
    return tuple(argv)


def _names_a_passed_flag(message, argv):
    # A flag is named by its option string or by the field it sets, as in
    # "epsilon must lie in [0, 1]" or "eta^2 must lie in (0, 1]".
    for flag in {arg.partition("=")[0] for arg in argv[1:] if arg.startswith("--")}:
        for spelling in (flag, flag[2:], flag[2:].replace("2", "^2")):
            if re.search(rf"(?<![\w-]){re.escape(spelling)}(?![\w-])", message):
                return True
    return False


def _fidelities(command, text):
    if command in ("criteria", "oracle-check"):
        report = json.loads(text)
        if command == "criteria":
            return [report["fidelity"]]
        assert report["all_ok"] is True
        return [row["analytic"] for row in report["gaussian"]]
    if text.startswith("{"):
        return [float(f) for f in json.loads(text)["fidelity"]]
    header, *rows = text.splitlines()
    assert header == HEADER and rows
    return [float(row.split(",")[3]) for row in rows]


@settings(deadline=None, max_examples=250, derandomize=True)
@given(argv=_argvs())
# ROADMAP item 1's inputs that once exited 2.
@example(argv=(
    "oracle-check", "--epsilon", "0.5", "--gain", "fixed:0", "--input", "squeezed:1e80",
    "--samples", "1000",
))
@example(argv=("oracle-check", "--epsilon", "0.5", "--input", "squeezed:1e153", "--samples", "1000"))
@example(argv=("spectrum", "--epsilon", "1", "--gain", "fixed:1e300"))
@example(argv=("spectrum", "--epsilon", "1", "--eta2", "0.5", "--gain", "fixed:1e160"))
@example(argv=("swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300"))
@example(argv=(
    "swap-spectrum", "--epsilon", "1", "--gain", "fixed:1e300",
    "--omega-start", "1e-8", "--omega-step", "1",
))
@example(argv=("swap-spectrum", "--epsilon", "0", "--beta", "0.5"))
@example(argv=("bandwidth", "--epsilon", "0", "--beta", "0.5", "--pipeline", "swap"))
@example(argv=("swap-spectrum", "--kappa", "0", "--gamma", "1", "--rho", "1"))
# Detector noise past the Monte-Carlo limit, and a gain past it.
@example(argv=("oracle-check", "--epsilon", "0.5", "--eta2", "1e-160", "--samples", "1000"))
@example(argv=("oracle-check", "--epsilon", "0.5", "--eta2", "1e-300", "--samples", "1000"))
@example(argv=("oracle-check", "--epsilon", "0.5", "--eta2", "5e-324", "--samples", "1000"))
@example(argv=("oracle-check", "--epsilon", "0.5", "--gain", "fixed:1e150", "--samples", "1000"))
def test_every_input_gives_a_table_or_names_a_flag(argv):
    # Exit 0 prints a document that parses with every fidelity in [0, 1];
    # exit 1 prints nothing and names a flag it was given; nothing exits 2
    # (an IO failure or a failed oracle, both outside this domain) and no
    # RuntimeWarning leaks.  NonUnitGainWarning is the package's own note.
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    leaked = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not leaked, leaked
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        assert _names_a_passed_flag(err.getvalue(), argv), err.getvalue()
        return
    if argv[0] == "bandwidth":
        assert float(out.getvalue()) >= 0.0
        return
    for f in _fidelities(argv[0], out.getvalue()):
        assert 0.0 <= f <= 1.0, f


@pytest.mark.parametrize(
    "flags",
    [("--output", "width.csv"), ("--format", "csv"), ("--format", "xml", "--gnuplot"), ("--gnuplot",)],
    ids=["output", "format", "format-gnuplot", "gnuplot"],
)
def test_bandwidth_takes_no_output_flags(capsys, flags):
    # bandwidth prints one number: the sweep's output flags are not its own.
    code, out, err = invoke(capsys, "bandwidth", "--epsilon", "0.5", *flags)
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {' '.join(flags)}\n"


@pytest.mark.parametrize("key", ["output", "format", "gnuplot"])
def test_bandwidth_config_file_takes_no_output_keys(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epsilon=0.5\n{key}=1\n")
    code, out, err = invoke(capsys, "bandwidth", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}:2: unknown option {key!r}\n"


def test_oracle_check_at_threshold_with_unit_gain_passes(capsys):
    code, out, _ = invoke(capsys, "oracle-check", "--epsilon", "1", "--samples", "2000")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


# ---------------------------------------------------------------------------
# argument parsing

_COMMAND_LIST = "spectrum, swap-spectrum, point, bandwidth, criteria, oracle-check"
_POINT_AT_1 = f"{HEADER}\n1,0.769230769231,0.769230769231,0.722222222222\n"


# Each argv, then the exit code, stdout and stderr it gives, or an argv
# that gives the same outcome.
_PARSE_CASES = [
    (("spectrum", "--epsilon", "0.5", "--omega-stop", "0.2"), (0, (
        f"{HEADER}\n0,0.222222222222,0.222222222222,0.9\n"
        "0.1,0.230088495575,0.230088495575,0.896825396825\n"
        "0.2,0.25327510917,0.25327510917,0.887596899225\n"
    ), "")),
    # Flags are spelled out: --eps is no abbreviation of --epsilon.
    (("point", "--eps", "0.5", "--omega=1"),
     (1, "", "error: unrecognized arguments: --eps 0.5\n")),
    (("spectrum", "--bogus"), (1, "", "error: unrecognized arguments: --bogus\n")),
    (("spectrum", "--epsilon", "0.5", "stray"), (1, "", "error: unrecognized arguments: stray\n")),
    (("spectrum", "--epsilon"), (1, "", "error: --epsilon: expected a value\n")),
    (("spectrum", "--epsilon", "0.5", "--", "--omega-stop", "1"),
     (1, "", "error: unrecognized arguments: --\n")),
    (("point", "--epsilon", "0.5", "--gnuplot"),  # a sweep flag on point
     (1, "", "error: unrecognized arguments: --gnuplot\n")),
    (("bandwidth", "--epsilon", "0.5", "--pipeline"), (1, "", "error: --pipeline: expected a value\n")),
    (("spectrum", "-h"), (0, cli._help("spectrum"), "")),
    (("oracle-check", "--help"), (0, cli._help("oracle-check"), "")),
    (("point", "--epsilon", "0.4", "--omega", "1", "--epsilon", "0.5"),  # the last one counts
     ("point", "--epsilon", "0.5", "--omega", "1")),
    (("point", "--epsilon", "0.5", "--omega", "-1"), (0, f"{HEADER}\n-1,0.769230769231,0.769230769231,0.722222222222\n", "")),
    (("criteria", "--config", "run.cfg", "--omega", "0.5"),
     ("criteria", "--epsilon", "0.5", "--beta", "0.9", "--omega", "0.5")),
    (("point", "--config", "run.cfg", "--epsilon", "0.4"),  # a flag overrides the file
     ("point", "--epsilon", "0.4", "--beta", "0.9")),
    (("point", "--epsilon=0.5", "--omega=1"), (0, _POINT_AT_1, "")),
    (("point", "--omega", "1", "--epsilon=0.4", "--epsilon", "0.5"), (0, _POINT_AT_1, "")),
    # The token after a value flag is its value, whatever it starts with.
    (("point", "--epsilon", "0.5", "--omega", "--epsilon"),
     (1, "", "error: --omega: expected a number, got '--epsilon'\n")),
    (("point", "--epsilon", "-h"), (1, "", "error: --epsilon: expected a number, got '-h'\n")),
    (("spectrum", "--epsilon", "0.5", "--gnuplot=1"),
     (1, "", "error: --gnuplot: takes no value, got '1'\n")),
    (("bandwidth", "--gnuplot=1"), (1, "", "error: unrecognized arguments: --gnuplot=1\n")),
    (("-h",), (0, cli._help(None), "")),
    ((), (1, "", f"error: expected a command: {_COMMAND_LIST}\n")),
    (("frobnicate", "--epsilon", "0.5"),
     (1, "", f"error: expected a command: {_COMMAND_LIST}, got 'frobnicate'\n")),
    (("frobnicate", "--help"), (0, cli._help(None), "")),
]


# Each case is named by its argv's place in the table.
@pytest.mark.parametrize("args, want", _PARSE_CASES, ids=[f"args{i}" for i in range(len(_PARSE_CASES))])
def test_commands_parse_alike_on_both_routes(capsys, monkeypatch, tmp_path, args, want):
    # run(argv) and main(), which reads sys.argv and exits with run()'s
    # code, give each argv the same outcome.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("epsilon=0.5\nbeta=0.9\n")
    got = invoke(capsys, *args)
    if isinstance(want[0], str):
        want = invoke(capsys, *want)
        assert want[0] == 0
    assert got == want
    monkeypatch.setattr(sys, "argv", ["cvteleport", *args])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert (exc.value.code, *capsys.readouterr()) == want


_COMMAND_FLAGS = {name: [flag for flag, _ in options] for name, (_, options) in cli._OPTIONS.items()}
_ANY_FLAG = sorted({flag for flags in _COMMAND_FLAGS.values() for flag in flags})
_ANY_VALUE = st.one_of(
    st.sampled_from(["", "a b", "x=y", "inf", "-", "-1", "-inf", "-h", "--help", "--", "--epsilon"]),
    st.floats().map(repr),
    st.integers().map(str),
)


@st.composite
def _pairs(draw):
    # A command and some of its flags, each spaced or joined and repeated at
    # will, with the values that the last of each sets.
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv, want = [command], dict.fromkeys(_COMMAND_FLAGS[command])
    for flag in draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), max_size=8)):
        if flag == "--gnuplot":
            argv.append(flag)
            want[flag] = "1"
            continue
        want[flag] = value = draw(_ANY_VALUE)
        argv += [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    return argv, {"command": command, **{flag[2:].replace("-", "_"): v for flag, v in want.items()}}


@st.composite
def _soups(draw):
    # Any tokens: flags of the command or of another, their prefixes,
    # joined pairs, "--", help flags and values, after a command or none.
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = st.sampled_from(_COMMAND_FLAGS[command])
    token = st.one_of(
        flags,
        st.sampled_from(_ANY_FLAG),
        flags.flatmap(lambda f: st.integers(3, len(f) - 1).map(lambda k: f[:k])),
        st.tuples(flags, _ANY_VALUE).map("=".join),
        _ANY_VALUE,
    )
    head = draw(st.sampled_from([[command], [command], [], ["bogus"], ["-h"]]))
    return [*head, *draw(st.lists(token, max_size=9))]


def test_parser_reads_the_last_value_of_each_flag(monkeypatch, tmp_path):
    # Spaced and joined pairs read as the model says; any other argv prints
    # the help and exits 0, or prints one error line and exits 1.  The
    # commands are stubbed: only parsing and --config are under test.
    monkeypatch.chdir(tmp_path)
    ran = []
    monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, lambda v: ran.append(v) or 0))
    outcomes = []

    @settings(deadline=None, max_examples=600, derandomize=True)
    @given(case=st.one_of(_pairs(), _soups().map(lambda argv: (argv, None))))
    def check(case):
        argv, want = case
        if want is not None:
            assert cli._parse(argv) == want
            outcomes.append("pairs")
            return
        ran.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        if code == 1:
            assert (out.getvalue(), ran) == ("", [])
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        elif ran:  # the soup parsed
            assert (code, out.getvalue(), err.getvalue()) == (0, "", "")
        else:
            command = argv[0] if argv[0] in cli._OPTIONS else None
            assert (code, out.getvalue(), err.getvalue()) == (0, cli._help(command), "")
        outcomes.append("help" if code == 0 and not ran else code)

    check()
    # Each kind of outcome must come up often enough to mean something.
    assert len(outcomes) >= 500
    assert 3 * outcomes.count("pairs") >= len(outcomes)
    assert 5 * outcomes.count(1) >= len(outcomes)
    assert 20 * outcomes.count("help") >= len(outcomes)


def test_help_lists_the_commands(capsys):
    assert run(["-h"]) == 0
    out = capsys.readouterr().out
    for name, (summary, options) in cli._OPTIONS.items():
        assert f"\n  {name} " in out and summary in out
        assert run([name, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for flag, text in options:
            assert any(line.split()[:1] == [flag] and line.endswith(text) for line in lines), flag


# ---------------------------------------------------------------------------
# python -m cvteleport


def test_runs_in_one_process_share_no_flags(capsys):
    # Each run starts from its command's unset values; a flag of one run
    # must not reach the next.
    argv = ["point", "--epsilon", "0.5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run(
        [sys.executable, "-m", "cvteleport", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert fresh.returncode == 0, fresh.stderr
    code, _, _ = invoke(capsys, "spectrum", "--epsilon", "0.5", "--beta", "0.8", "--eta2", "0.9")
    assert code == 0
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == fresh.stdout


def test_module_entry_point_matches_run(capsys):
    argv = ["point", "--epsilon", "0.5"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "cvteleport", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


# Every byte the benchmark's sweep (seeds 1-2) and scan (seeds 1-3) ops
# print, write and warn, as tests/output_digest.py hashes them.  A change
# that alters output bytes on purpose pins the new digest here and lists
# the change in CHANGES.md.
BENCHMARK_DIGEST = "686 ops f967871b262b5c9c10bf335222b0ec4ebd989c1cc2d528c4585df73f90b84eec\n"


def test_benchmark_outputs_keep_their_digest():
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digest.py")
    proc = subprocess.run(
        [sys.executable, script, "sweep:1-2", "scan:1-3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == BENCHMARK_DIGEST


@pytest.mark.parametrize(
    "args, spec",
    [
        (["scan:x"], "scan:x"),
        (["scan:1-"], "scan:1-"),
        (["scan:3-1"], "scan:3-1"),
        (["sweep:1", "--against", ".", "bogus:1"], "bogus:1"),  # --against between specs
    ],
)
def test_output_digest_names_a_bad_spec(args, spec):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digest.py")
    proc = subprocess.run([sys.executable, script, *args], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: {spec}: expected workload:first[-last], first <= last, "
        "with workload one of sweep, scan, validate\n"
    )
