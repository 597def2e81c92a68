"""End-to-end checks of the command-line front end via run()."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import cvteleport
from cvteleport.cli import run
from cvteleport.epr import LosslessNopa, LossyNopa
from cvteleport.swap import SwapConfig, swap_fidelity
from cvteleport.teleport import NonUnitGainWarning

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
    for cls in (LosslessNopa, LossyNopa):
        monkeypatch.setattr(cls, "pair", lambda self, omega: calls.append(omega))
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
    cfg = SwapConfig(LosslessNopa(0.4))
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
    cfg = SwapConfig(LosslessNopa(0.4), gain=1.0)
    assert fid == pytest.approx(swap_fidelity(cfg, 0.0), rel=1e-9)


# ---------------------------------------------------------------------------
# bandwidth


def closed_width(eps, t=0.51):
    return 2.0 * math.sqrt(4.0 * eps * t / (2.0 * t - 1.0) - (1.0 + eps) ** 2)


def test_bandwidth_extends_beyond_grid(capsys):
    code, out, _ = invoke(capsys, "bandwidth", "--epsilon", "0.6")
    assert code == 0
    assert float(out) == pytest.approx(closed_width(0.6), abs=1e-5)
    assert out.strip() == "15.3153520823"


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
    assert out == "16.7032927275\n"


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


def test_config_file_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("epsilon=0.5\nbogus=1\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_key))
    assert code == 1 and "bogus" in err

    bad_line = tmp_path / "line.cfg"
    bad_line.write_text("epsilon 0.5\n")
    code, _, err = invoke(capsys, "point", "--config", str(bad_line))
    assert code == 1 and "key=value" in err

    code, _, err = invoke(capsys, "point", "--config", str(tmp_path / "missing.cfg"))
    assert code == 1 and "config" in err


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
    ],
)
def test_configuration_errors_exit_1(capsys, args):
    code, _, err = invoke(capsys, *args)
    assert code == 1
    assert err.startswith("error:")


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
    pytest.param(
        "8e7266e70a8a71b4a0acf8d457e05ca51151f9d269088f5523ff8e70334444bf",
        (
            "criteria", "--epsilon", "0.6", "--omega", "0.5",
            "--input", "squeezed:1.5", "--gain", "fixed:0.9",
        ),
        id="criteria-squeezed-fixed-gain",
    ),
    pytest.param(
        "f256302db6b902a6e2635ed0f7ddd4965337f21a606bdabeb9bd61bc467c6dfd",
        ("bandwidth", "--epsilon", "0.6"),
        id="bandwidth-teleport",
    ),
    pytest.param(
        "79719ae0910e54f27c30bd0415b9c4375db1066ed7757a512c167f64daf1abdc",
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


def test_oracle_check_at_threshold_with_unit_gain_passes(capsys):
    code, out, _ = invoke(capsys, "oracle-check", "--epsilon", "1", "--samples", "2000")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


# ---------------------------------------------------------------------------
# python -m cvteleport


def test_runs_in_one_process_share_no_flags(capsys):
    # The parser is built once per process; a flag of one run must not
    # reach the next.
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
