"""Classical boundaries, fidelity, spectrum tables and bandwidth extraction."""

import bisect
import dataclasses
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import cvteleport
import cvteleport.criteria as criteria_module
import exact
from cvteleport.criteria import (
    CONDITIONAL_SUM_LIMIT,
    FIDELITY_CLASSICAL_BOUND,
    OMEGA_LIMIT,
    OUTPUT_PRODUCT_LIMIT,
    TRANSFER_SUM_LIMIT,
    VARIANCE_PRODUCT_LIMIT,
    VARIANCE_SUM_LIMIT,
    CriteriaReport,
    SpectrumTable,
    bandwidth,
    evaluate_criteria,
    fidelity_point,
    fidelity_spectrum,
    output_product_limit,
    teleport_fidelity,
)
from cvteleport.criteria import FidelityPoint
from classical import (
    OBJECTIVES,
    ClassicalModelParams,
    classical_model,
    classical_objective,
    grid_search_classical,
    optimize_classical,
)
from closed_form import nopa_fidelity_spectrum
from references import ralph_lam
from cvteleport.epr import CustomSpectrum, Nopa, SqueezerSpectrum, TransferPair, ZeroBandwidth
from cvteleport.swap import (
    SwapConfig,
    _SwappedPair,
    _swap_columns,
    swap_fidelity,
    swap_spectrum,
    verification_teleport,
)
from cvteleport.linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    commutator_pairing,
    difference_variance,
    normalized_variance,
)
from cvteleport import _text, cli
from cvteleport._text import _json_number, write_json
from cvteleport.teleport import (
    BellDetector,
    GainSchedule,
    NonUnitGainWarning,
    teleport,
)

COHERENT = InputModel.coherent()

# Measurement split at which the 3 dB statement sits: |S-|^2 = 1/2 at
# omega = 0 happens exactly at this pump parameter.
EPS_3DB = 3.0 - 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Classical channel model


def test_classical_channel_is_a_valid_quantum_map():
    rng = random.Random(307)
    for _ in range(60):
        params = ClassicalModelParams(
            s_a=rng.uniform(0.1, 5.0),
            s_b=rng.uniform(0.1, 5.0),
            gamma_x=rng.uniform(-2, 2),
            gamma_p=rng.uniform(-2, 2),
        )
        x_out, p_out = classical_model(params)
        assert abs(commutator_pairing(x_out, p_out) - 1.0) < 1e-12


def test_classical_params_validation():
    with pytest.raises(ValueError):
        ClassicalModelParams(s_a=0.0)
    with pytest.raises(ValueError):
        ClassicalModelParams(s_b=-1.0)


@pytest.mark.parametrize(
    "objective,expected",
    [("product", 4.0), ("sum", 4.0), ("out_product", 9.0), ("out_sum", 6.0)],
)
def test_classical_optima_coherent(objective, expected):
    params, value = optimize_classical(COHERENT, objective)
    assert value == pytest.approx(expected, abs=1e-12)
    attained = classical_objective(params, COHERENT, objective)
    assert attained == pytest.approx(expected, abs=1e-9)


def test_classical_optima_squeezed_input():
    model = InputModel.squeezed(2.0)  # v_x = 1/4, v_p = 4
    _, product = optimize_classical(model, "product")
    assert product == pytest.approx(4.0, abs=1e-12)
    _, out_product = optimize_classical(model, "out_product")
    assert out_product == pytest.approx(9.0, abs=1e-12)  # pure input: sqrt(vx*vp)=1
    _, out_sum = optimize_classical(model, "out_sum")
    assert out_sum == pytest.approx(0.25 + 4.0 + 4.0, abs=1e-12)


def test_grid_search_never_beats_closed_form():
    models = [COHERENT, InputModel.squeezed(2.0), InputModel(0.5, 3.0)]
    for model in models:
        for objective in OBJECTIVES:
            _, closed = optimize_classical(model, objective)
            _, gridded = grid_search_classical(model, objective, points=41)
            assert gridded >= closed - 1e-9


def test_random_classical_channels_respect_the_floors():
    rng = random.Random(311)
    for _ in range(2000):
        params = ClassicalModelParams(
            s_a=math.exp(rng.uniform(-2, 2)), s_b=math.exp(rng.uniform(-2, 2))
        )
        assert classical_objective(params, COHERENT, "product") >= VARIANCE_PRODUCT_LIMIT - 1e-9
        assert classical_objective(params, COHERENT, "sum") >= VARIANCE_SUM_LIMIT - 1e-9
        assert classical_objective(params, COHERENT, "out_product") >= OUTPUT_PRODUCT_LIMIT - 1e-9


def test_objective_validation():
    with pytest.raises(ValueError):
        classical_objective(ClassicalModelParams(), COHERENT, "norm")
    with pytest.raises(ValueError):
        optimize_classical(COHERENT, "norm")
    with pytest.raises(ValueError):
        grid_search_classical(COHERENT, "sum", points=1)
    with pytest.raises(ValueError, match="finite"):
        grid_search_classical(InputModel(math.inf, 1.0), "out_sum", points=3)


def test_output_product_limit_values():
    assert output_product_limit(COHERENT) == 9.0
    assert output_product_limit(InputModel.squeezed(3.0)) == pytest.approx(9.0)
    assert output_product_limit(InputModel(2.0, 3.0)) == pytest.approx(
        (math.sqrt(6.0) + 2.0) ** 2
    )


def test_quantum_teleporter_beats_the_product_floor():
    report = evaluate_criteria(Nopa(0.5))
    assert report.v_x == pytest.approx(2 * (1 - 4 * 0.5 / 2.25), rel=1e-12)
    assert report.v_product < VARIANCE_PRODUCT_LIMIT
    assert report.v_sum < VARIANCE_SUM_LIMIT


# ---------------------------------------------------------------------------
# Conditional variance and transfer coefficients


def test_ralph_lam_ideal_resource():
    out = teleport(ZeroBandwidth(math.inf))
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.v_c_x == 0.0 and res.v_c_p == 0.0
    assert res.transfer_sum == pytest.approx(2.0)


def test_ralph_lam_classical_channel():
    x_out, p_out = classical_model(ClassicalModelParams())
    res = ralph_lam(x_out, p_out, COHERENT)
    assert res.v_c_x == pytest.approx(2.0, rel=1e-12)
    assert res.v_c_p == pytest.approx(2.0, rel=1e-12)
    assert res.t_x == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.t_p == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert res.conditional_sum >= CONDITIONAL_SUM_LIMIT
    assert res.transfer_sum <= TRANSFER_SUM_LIMIT


def test_ralph_lam_3db_point_sits_on_both_boundaries():
    out = teleport(Nopa(EPS_3DB))
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum == pytest.approx(CONDITIONAL_SUM_LIMIT, abs=1e-12)
    assert res.transfer_sum == pytest.approx(TRANSFER_SUM_LIMIT, abs=1e-12)


def test_ralph_lam_beyond_3db_beats_both():
    out = teleport(Nopa(0.5), omega=0.3)
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum < CONDITIONAL_SUM_LIMIT
    assert res.transfer_sum > TRANSFER_SUM_LIMIT


def test_ralph_lam_zero_output_convention():
    res = ralph_lam(QuadExpansion(), QuadExpansion(), COHERENT)
    assert res == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Fidelity


def test_fidelity_classical_floor_is_exact():
    report = evaluate_criteria(Nopa(0.0))
    assert report.fidelity == 0.5
    assert report.verdicts["fidelity"] is False


def test_fidelity_unit_gain_ignores_alpha():
    out = teleport(ZeroBandwidth(0.0))
    for alpha in (0j, 3 + 4j, -2.5j):
        assert teleport_fidelity(out, alpha=alpha).fidelity == pytest.approx(0.5, rel=1e-12)


def test_fidelity_zero_gain_measures_overlap_decay():
    out = teleport(ZeroBandwidth(0.0), gain=0.0)
    for alpha in (0j, 1 + 1j, 2 - 0.5j):
        want = math.exp(-abs(alpha) ** 2)
        assert teleport_fidelity(out, alpha=alpha).fidelity == pytest.approx(want, rel=1e-10)


def test_fidelity_point_caps_at_one():
    rng = random.Random(313)
    for _ in range(200):
        sigma_x = 0.5 + rng.uniform(0, 3)
        sigma_p = 0.5 + rng.uniform(0, 3)
        f = fidelity_point(1.0, sigma_x, sigma_p)
        assert f <= 1.0
    assert fidelity_point(1.0, 0.5, 0.5) == 1.0
    assert fidelity_point(1.0, 0.5, 0.5, alpha=5 + 5j) == 1.0  # unit gain, no error


def test_fidelity_point_validation():
    with pytest.raises(ValueError):
        fidelity_point(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        FidelityPoint(1.5, 0.5, 0.5, 1.0, 0j)
    with pytest.raises(ValueError):
        FidelityPoint(math.nan, 0.5, 0.5, 1.0, 0j)
    FidelityPoint(0.0, 0.5, 0.5, 0.0, 0j)  # zero is a legal fidelity


def test_closed_form_fidelity_matches_generic_path():
    rng = random.Random(317)
    for _ in range(100):
        eps = rng.uniform(0, 0.95)
        omega = rng.uniform(0, 5)
        beta = rng.choice([1.0, rng.uniform(0.2, 1.0)])
        eta = rng.choice([1.0, rng.uniform(0.6, 1.0)])
        src = Nopa(eps, beta)
        out = teleport(src, detector=BellDetector(eta), omega=omega)
        generic = teleport_fidelity(out).fidelity
        closed = nopa_fidelity_spectrum(eps, omega, beta, eta)
        assert abs(generic - closed) < 1e-12


def test_closed_form_cross_check_is_1e_12(monkeypatch):
    # One tolerance for teleport and swap rows: an error far below the old
    # 1e-9 must still raise.  The closed form reads the source's quiet
    # spectrum, which the kernel's port noise never does, so shifting V-
    # by 1e-10 moves the closed-form fidelity alone, by about 8e-11.
    variances = Nopa.variances

    def shifted(self, omega, powers=None):
        v_plus, v_minus = variances(self, omega, powers)
        return v_plus, v_minus + 1e-10

    monkeypatch.setattr(Nopa, "variances", shifted)
    with pytest.raises(AssertionError, match="disagrees with closed form"):
        fidelity_spectrum(Nopa(0.5), [0.0, 1.0])


_WRONG_CLOSED_FORMS = """
import sys

from cvteleport import cli, criteria, swap
from cvteleport.epr import Nopa

variances = Nopa.variances


def shifted(self, omega, powers=None):
    # The closed form's V-, off by 1e-6; the kernel's port noise is not.
    v_plus, v_minus = variances(self, omega, powers)
    return v_plus, v_minus + 1e-6


Nopa.variances = shifted
checks = {
    "fidelity_spectrum": lambda: criteria.fidelity_spectrum(Nopa(0.5), [0.0, 1.0]),
    "evaluate_criteria": lambda: criteria.evaluate_criteria(Nopa(0.5), 1.0),
    "swap_spectrum": lambda: swap.swap_spectrum(swap.SwapConfig(Nopa(0.5)), [0.0]),
}
for name, check in checks.items():
    try:
        check()
    except AssertionError:
        continue
    sys.exit(name + " accepted a closed form off by 1e-6")
if cli.run(["point", "--epsilon", "0.5"]) != 2:
    sys.exit("the CLI did not report the disagreement as a runtime error")
sys.exit(0 if sys.flags.optimize else "not running under -O")
"""


def test_closed_form_disagreement_raises_under_optimize():
    # python -O strips assert statements; the cross-checks must survive it.
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cvteleport.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_CLOSED_FORMS],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_fidelity_beats_half_iff_squeezed():
    rng = random.Random(331)
    for _ in range(100):
        eps = rng.uniform(0.001, 1.0)
        omega = rng.uniform(0, 6)
        assert nopa_fidelity_spectrum(eps, omega) > 0.5
        assert fidelity_spectrum(Nopa(eps), [omega]).fidelity[0] > 0.5
    assert nopa_fidelity_spectrum(0.0, 0.0) == 0.5
    assert nopa_fidelity_spectrum(1.0, 0.0) == 1.0
    # The package's spectra keep both limits exact too.
    assert fidelity_spectrum(Nopa(0.0), [0.0]).fidelity == (0.5,)
    assert fidelity_spectrum(Nopa(1.0), [0.0]).fidelity == (1.0,)


# ---------------------------------------------------------------------------
# Spectrum tables


def test_spectrum_table_csv_roundtrip_is_stable():
    table = fidelity_spectrum(Nopa(0.5), [0.0, 0.5, 1.0, 1.5])
    text = table.to_csv()
    again = SpectrumTable.from_csv(text)
    assert again.to_csv() == text
    assert len(again) == 4
    assert again.evaluator is None


def test_spectrum_table_json_payload():
    table = fidelity_spectrum(Nopa(0.5), [0.0, 1.0])
    payload = json.loads(table.to_json())
    assert sorted(payload) == ["fidelity", "omega", "v_p", "v_x"]
    assert len(payload["fidelity"]) == 2
    assert payload["fidelity"][0] == pytest.approx(0.9, rel=1e-9)


def test_spectrum_table_file_io(tmp_path):
    table = fidelity_spectrum(Nopa(0.3), [0.0, 1.0, 2.0])
    path = tmp_path / "sweep.csv"
    path.write_text(table.to_csv())
    again = SpectrumTable.from_csv(str(path))
    assert np.array_equal(again.omega, table.omega)
    jpath = tmp_path / "sweep.json"
    jpath.write_text(table.to_json())
    assert json.loads(jpath.read_text())["omega"] == [0.0, 1.0, 2.0]


def test_spectrum_table_path_with_a_comma(tmp_path):
    table = fidelity_spectrum(Nopa(0.3), [0.0, 1.0, 2.0])
    path = tmp_path / "tab,le.csv"
    path.write_text(table.to_csv())
    assert SpectrumTable.from_csv(str(path)).to_csv() == table.to_csv()


def test_spectrum_table_rejects_a_nan_frequency():
    # NaN compares false, so it would slip through the increasing check.
    with pytest.raises(ValueError, match="finite"):
        SpectrumTable.from_csv("omega,v_x,v_p,fidelity\n0,1,1,0.5\nnan,1,1,0.5\n")
    # Threshold rows print infinite variances; those stay loadable.
    table = SpectrumTable.from_csv("omega,v_x,v_p,fidelity\n0,inf,inf,0\n1,1,1,0.5\n")
    assert table.v_x.tolist() == [math.inf, 1.0]


# The serializers before columns were written straight: each value through
# an f-string, and JSON via the generic indented encoder.
def _reference_csv(table):
    lines = [",".join(criteria_module.CSV_HEADER)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in table.rows()]
    return "\n".join(lines) + "\n"


def _reference_json(table):
    columns = (table.omega, table.v_x, table.v_p, table.fidelity)
    return write_json(
        {
            name: [float(f"{v:.12g}") for v in col]
            for name, col in zip(criteria_module.CSV_HEADER, columns)
        }
    )


def _strict(obj):
    # The payload json.dumps can write: JSON has no token for inf or nan,
    # so write_json writes the strings the CSV prints.
    if isinstance(obj, float) and not math.isfinite(obj):
        return f"{obj:g}"
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _stdlib_json(payload):
    # write_json's reference, and through it _reference_json's.
    return json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


JSON_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-7, np.float64(0.1)]),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.none(),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600", "\ud800"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(payload=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
@example(payload={})
@example(payload={"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": {"f": {}}})
@example(payload={"flags": [True, 1, False, 0, None], "zero": -0.0, "tiny": 5e-324, "big": 1e16})
@example(payload={"x": [math.inf, -math.inf, math.nan, np.float64(math.nan), np.float64(-0.0)]})
@example(payload={'"\\\n': "\x00\u2603\U0001f600", "\ud800": "\t"})
def test_json_writer_writes_the_stdlib_bytes(payload):
    assert write_json(payload) == _stdlib_json(payload)


@pytest.mark.parametrize(
    "value",
    [np.int64(1), np.bool_(True), object(), {1, 2}, b"bytes", 1j],
    ids=["int64", "bool_", "object", "set", "bytes", "complex"],
)
def test_json_writer_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        write_json({"a": [value]})


def test_json_writer_takes_string_keys_only():
    with pytest.raises(TypeError):
        write_json({1: 2})


# Non-finite values, signed zeros, integral values, subnormals and 1e12-1e16,
# where the 12-digit rounding and the float repr choose different notations.
SERIALIZED = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 1.0, -3.0, 1e12, 123456789012.5, 1e15, 9.99999999999e15, 1e16, 2.2250738585e-313]
    ),
    st.integers(-(10 ** 17), 10 ** 17).map(float),
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(rows=st.lists(st.tuples(SERIALIZED, SERIALIZED, SERIALIZED), min_size=1, max_size=12))
def test_serializers_write_the_reference_bytes(rows):
    table = SpectrumTable(np.arange(len(rows), dtype=float), *(np.array(col) for col in zip(*rows)))
    table.omega = np.array([r[0] for r in rows])  # any values, past the omega checks
    assert table.to_csv() == _reference_csv(table)
    assert table.to_json() == _reference_json(table)


# The writers format v_p from v_x's text when the two match bit for bit;
# these v_p columns match v_x, or fail to only by a zero's sign or a NaN,
# which == alone does not see.
V_P_IS = st.sampled_from(["v_x", "a copy", "a zero flipped", "a nan"])


def _near_v_x_table(omega, v_x, fidelity, v_p_is, at, zero):
    # A table of any values whose v_p is v_p_is, changed (if at all) at row
    # at modulo the row count.
    at %= len(v_x)
    v_x = v_x.copy()
    v_p = v_x.copy()  # equal values, a new array
    if v_p_is == "a zero flipped":
        v_x[at], v_p[at] = zero, -zero
    elif v_p_is == "a nan":
        v_p[at] = math.nan
    table = SpectrumTable(np.arange(len(v_x), dtype=float), v_x, v_p, fidelity)
    table.omega = np.asarray(omega, dtype=float)  # any values, past the omega checks
    if v_p_is == "v_x":
        table.v_p = table.v_x
    return table


@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    rows=st.lists(st.tuples(SERIALIZED, SERIALIZED, SERIALIZED), min_size=1, max_size=12),
    v_p_is=V_P_IS,
    at=st.integers(0, 11),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_serializers_write_v_p_near_v_x_as_the_reference(rows, v_p_is, at, zero):
    columns = (np.array(col) for col in zip(*rows))
    table = _near_v_x_table(*columns, v_p_is, at, zero)
    assert table.to_csv() == _reference_csv(table)
    assert table.to_json() == _reference_json(table)


# The same rows tiled to at least _VECTOR_ROWS rows, so that the writers'
# numpy path, not %, writes the non-finite values, signed zeros and
# subnormals; a zero flipped or a nan lands anywhere in the tiled rows.
# An example costs about 5 ms, and shrinking a failing one ran for over
# 5 minutes, so a failure is reported as drawn: at most 12 distinct rows.
@settings(
    deadline=None,
    max_examples=100,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)
@given(
    rows=st.lists(st.tuples(SERIALIZED, SERIALIZED, SERIALIZED), min_size=1, max_size=12),
    extra=st.integers(0, 12),
    v_p_is=V_P_IS,
    at=st.integers(0, 10**6),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_numpy_writers_write_the_reference_bytes(rows, extra, v_p_is, at, zero):
    count = _text._VECTOR_ROWS + extra
    columns = (np.resize(np.array(col), count) for col in zip(*rows))
    table = _near_v_x_table(*columns, v_p_is, at, zero)
    assert len(table) >= _text._VECTOR_ROWS
    assert table.to_csv() == _reference_csv(table)
    assert table.to_json() == _reference_json(table)


def _squeezed_fixed_gain(grid):
    # Asymmetric by physics: at gain 0.8 the mismatch term weighs the
    # squeezed input's unequal variances, so v_p is not v_x.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        return fidelity_spectrum(Nopa(0.5, 0.9), grid, gain=0.8, in_model=InputModel.squeezed(1.5))


def test_large_tables_write_the_reference_bytes():
    # A symmetric source's v_p matches v_x bit for bit and is written from
    # v_x's text, a swap table's included (each EPR pair adds its X and P
    # noise in mirrored order); a squeezed input's v_p is written apart.
    teleport_table = fidelity_spectrum(Nopa(0.5), np.linspace(0.0, 20.0, 10_000))
    swap_table = swap_spectrum(SwapConfig(Nopa(0.6, 0.85)), np.linspace(0.0, 5.0, 1200))
    squeezed_table = _squeezed_fixed_gain(np.linspace(0.0, 20.0, 1200))
    for table in (teleport_table, swap_table):
        assert table._written_columns()[2] is table.v_x
    assert squeezed_table._written_columns()[2] is squeezed_table.v_p
    for table in (teleport_table, swap_table, squeezed_table):
        assert table.to_csv() == _reference_csv(table)
        assert table.to_json() == _reference_json(table)
    # Either side of the row count where the writers leave % for numpy.
    for rows in (_text._VECTOR_ROWS - 1, _text._VECTOR_ROWS, _text._VECTOR_ROWS + 1):
        teleport_table = fidelity_spectrum(Nopa(0.5, 0.9), np.linspace(0.0, 20.0, rows))
        swap_table = swap_spectrum(SwapConfig(Nopa(0.6, 0.85)), np.linspace(0.0, 5.0, rows))
        squeezed_table = _squeezed_fixed_gain(np.linspace(0.0, 20.0, rows))
        for table in (teleport_table, swap_table):
            assert table._written_columns()[2] is table.v_x
        assert squeezed_table._written_columns()[2] is squeezed_table.v_p
        for table in (teleport_table, swap_table, squeezed_table):
            assert table.to_csv() == _reference_csv(table)
            assert table.to_json() == _reference_json(table)


def _column_texts(values, as_json):
    # Each value's text from the numpy column formatter, whatever the row
    # count: one column's blocks, each value followed by its separator.
    separator = _text._ITEM_SEP if as_json else ","
    texts = []
    for fields in _text._blocks([np.array(values, dtype=float)], as_json):
        texts += _text._text_of(fields[:, 0]).split(separator)[:-1]
    return texts


def _nudged(value, ulps):
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def _tie(digits, k):
    # An odd multiple of 2^-k with 13 significant digits: its 13th digit is
    # a 5 with nothing after it, the tie the 12-digit rounding sees.
    low, high = 10 ** (12 - k) * 2**k, 10 ** (13 - k) * 2**k
    return (low + (digits % ((high - low) // 2)) * 2 + 1) / 2**k


# Where the notation or the digit count changes, and next to them.
BOUNDARIES = [1e-5, 1e-4, 1e11, 1e12, 1e16] + [10.0**e for e in range(-6, 18)]
EDGES = [
    _nudged(b * f, ulps)
    for b in BOUNDARIES
    for f in (1.0, 1 - 6e-12, 1 - 1e-12, 1 - 5e-13, 1 + 5e-13)
    for ulps in range(-2, 3)
]
# Twelve digits with zeros between the first and the last, whose last digit
# is the only one after the point.
EDGES += [float(f"{d}.0000000000{d}e{e}") for d in (1, 9) for e in range(-5, 13)]
EDGES += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585e-313]
FORMATTED = st.one_of(
    SERIALIZED,
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.builds(_nudged, st.builds(_tie, st.integers(0, 10**13), st.integers(1, 12)), st.integers(-2, 2)),
    st.sampled_from(EDGES),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e-4, 1e12),
)


def test_column_formatter_writes_the_edges():
    values = EDGES + [-v for v in EDGES]
    assert _column_texts(values, as_json=False) == ["%.12g" % v for v in values]
    assert _column_texts(values, as_json=True) == [_json_number("%.12g" % v) for v in values]


def test_writers_cross_blocks_of_different_widths_as_the_reference():
    # Rows x distinct columns past _BLOCK_VALUES, so that the writers take
    # several numpy blocks: the first holds plain spectrum values, the later
    # ones the edges, whose texts make wider fields.  v_p is v_x (3
    # distinct columns) or differs from it by one zero's sign in the last
    # block (4).
    count = 2 * (_text._BLOCK_VALUES // 3) + 5
    plain = np.linspace(0.0, 20.0, count)
    edges = np.resize(np.array(EDGES + [-v for v in EDGES]), count)
    head = _text._BLOCK_VALUES // 4
    v_x = np.concatenate([plain[:head], edges[head:]])
    fidelity = np.concatenate([plain[:head] / 40.0, edges[::-1][head:]])
    last_zero = int(np.flatnonzero(v_x == 0.0)[-1])
    for v_p_is in ("v_x", "a zero flipped"):
        table = _near_v_x_table(plain, v_x, fidelity, v_p_is, last_zero, -0.0)
        distinct = len({id(c) for c in table._written_columns()})
        assert distinct == (3 if v_p_is == "v_x" else 4)
        assert len(table) * distinct > 2 * _text._BLOCK_VALUES
        assert table.to_csv() == _reference_csv(table)
        assert table.to_json() == _reference_json(table)


def test_writers_cross_block_seams_as_the_reference():
    # Rows x distinct columns an exact multiple of _BLOCK_VALUES, so that
    # the last block is full and its last item ends in the separator the
    # JSON writer drops, then one row more, a last block of one row: with 4
    # distinct columns (v_p apart from v_x) and with all four columns one
    # object.
    for distinct in (4, 1):
        full = 2 * (_text._BLOCK_VALUES // distinct)
        for rows in (full, full + 1):
            omega = np.linspace(0.0, 20.0, rows)
            table = _near_v_x_table(omega, np.resize(EDGES, rows), omega / 40.0, "a nan", 3, 0.0)
            if distinct == 1:
                table.v_x = table.v_p = table.fidelity = table.omega
            assert len({id(c) for c in table._written_columns()}) == distinct
            assert table.to_csv() == _reference_csv(table)
            assert table.to_json() == _reference_json(table)


def _formatted_values(table, monkeypatch):
    # How many values the numpy column formatter formats for to_csv and
    # for to_json.
    counts = []
    fields = _text._fields

    def counted(values, as_json):
        counts.append(len(values))
        return fields(values, as_json)

    monkeypatch.setattr(_text, "_fields", counted)
    table.to_csv()
    csv_values = sum(counts)
    counts.clear()
    table.to_json()
    return csv_values, sum(counts)


def test_v_p_given_as_v_x_stays_one_array(monkeypatch):
    # A table given one object as v_x and v_p, as every symmetric kernel
    # table is, keeps one read-only copy of it and formats it once.
    rows = _text._VECTOR_ROWS + 7
    omega = np.linspace(0.0, 20.0, rows)
    v = 1.0 + omega / 3.0
    given = SpectrumTable(omega, v, v, omega / 40.0)
    kernel = fidelity_spectrum(Nopa(0.5), omega)
    for table in (given, kernel):
        assert table.v_p is table.v_x and not table.v_x.flags.writeable
        assert table._written_columns()[2] is table.v_x
        assert _formatted_values(table, monkeypatch) == (3 * rows, 3 * rows)
    assert given.v_x is not v  # a copy, which writing v leaves be
    v[0] = -1.0
    assert given.v_x[0] == 1.0
    for table in (given, kernel):
        assert table.to_csv() == _reference_csv(table)
        assert table.to_json() == _reference_json(table)


def test_v_p_matching_v_x_bit_for_bit_is_formatted_once(monkeypatch):
    # A table read from CSV has v_p apart from v_x; where the two match bit
    # for bit, v_x's text is still written under both names.
    rows = _text._VECTOR_ROWS + 7
    kernel = fidelity_spectrum(Nopa(0.5), np.linspace(0.0, 20.0, rows))
    loaded = SpectrumTable.from_csv(kernel.to_csv())
    assert loaded.v_p is not loaded.v_x
    assert loaded._written_columns()[2] is loaded.v_x
    assert _formatted_values(loaded, monkeypatch) == (3 * rows, 3 * rows)
    assert loaded.to_csv() == kernel.to_csv() == _reference_csv(loaded)
    assert loaded.to_json() == kernel.to_json() == _reference_json(loaded)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(values=st.lists(FORMATTED, min_size=1, max_size=60), negate=st.booleans())
def test_column_formatter_writes_the_reference_text(values, negate):
    if negate:
        values = [-v for v in values]
    assert _column_texts(values, as_json=False) == ["%.12g" % v for v in values]
    assert _column_texts(values, as_json=True) == [_json_number("%.12g" % v) for v in values]


def test_spectrum_table_validation():
    with pytest.raises(ValueError):
        SpectrumTable((), (), (), ())
    with pytest.raises(ValueError):
        SpectrumTable((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SpectrumTable((0.0, 1.0), (1.0,), (1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        SpectrumTable.from_csv("a,b,c,d\n0,1,1,0.5\n")
    with pytest.raises(ValueError):
        SpectrumTable.from_csv("omega,v_x,v_p,fidelity\n0,1,1\n")


def test_rows_iterates_in_order():
    table = SpectrumTable((0.0, 1.0), (2.0, 2.1), (2.0, 2.2), (0.5, 0.4))
    assert list(table.rows()) == [(0.0, 2.0, 2.0, 0.5), (1.0, 2.1, 2.2, 0.4)]
    # Rows hold Python floats, as they did when the columns were tuples.
    assert all(type(v) is float for row in table.rows() for v in row)


def test_spectrum_table_columns_are_read_only_float64_arrays():
    grid = np.linspace(0.0, 2.0, 5)
    sweep = fidelity_spectrum(Nopa(0.5), grid)
    loaded = SpectrumTable.from_csv(sweep.to_csv())
    given = SpectrumTable([0, 1], (2, 3), np.array([2.0, 3.0]), [0.5, 0.25])
    for table in (sweep, loaded, given):
        for column in (table.omega, table.v_x, table.v_p, table.fidelity):
            assert type(column) is np.ndarray and column.dtype == np.float64
            assert column.ndim == 1 and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
    # The table keeps its own copy: writing the array passed in leaves it be.
    grid[0] = -1.0
    assert sweep.omega[0] == 0.0


def test_a_0d_column_is_one_row():
    # The kernel's columns at a scalar frequency are 0-d; a table takes
    # each, and a plain number, as one row.
    table = SpectrumTable(np.array(0.5), np.float64(1.25), 1.25, np.array(0.75))
    assert len(table) == 1 and list(table.rows()) == [(0.5, 1.25, 1.25, 0.75)]
    for column in (table.omega, table.v_x, table.v_p, table.fidelity):
        assert column.shape == (1,) and not column.flags.writeable
    point = criteria_module._sweep(lambda w: Nopa(0.5), 0.3, 1.0, BellDetector(1.0), COHERENT)
    assert point == fidelity_spectrum(Nopa(0.5), [0.3])
    assert point.to_csv() == fidelity_spectrum(Nopa(0.5), [0.3]).to_csv()


def test_a_relabeled_table_shares_the_other_tables_columns():
    # The command line's user-unit table is the kernel table's rows at the
    # user's frequencies: only omega is new, the other columns are shared,
    # and they stay read-only.
    kernel = fidelity_spectrum(Nopa(0.5, 0.9), [0.0, 0.4, 0.8], detector=BellDetector(0.9))
    for user in (kernel.omega * 2.5, [0.0, 1.0, 2.0]):
        table = cli._reindex(kernel, user, 0.4)
        assert table.v_x is kernel.v_x and table.v_p is kernel.v_p
        assert table.fidelity is kernel.fidelity and table.evaluator is None
        assert table.omega.tolist() == [0.0, 1.0, 2.0]
        for column in (table.omega, table.v_x, table.v_p, table.fidelity):
            assert not column.flags.writeable
    assert cli._reindex(kernel, kernel.omega, 1.0) is kernel
    one = fidelity_spectrum(Nopa(0.5), 0.2)
    point = one._relabeled(0.5)  # one number is one row, as in the constructor
    assert point.omega.tolist() == [0.5] and point.fidelity is one.fidelity


def test_a_callers_array_is_copied_and_checked_even_read_only():
    # Only another table's columns are shared: an array from anywhere else,
    # read-only and owning its data or not, is copied and validated.
    omega = np.array([0.0, 1.0, 2.0])
    v = np.array([1.5, 1.25, 1.125])
    for column in (omega, v):
        column.flags.writeable = False
        assert column.flags.owndata
    table = SpectrumTable(omega, v, v, v / 4.0)
    moved = table._relabeled(omega)
    for t in (table, moved):
        assert t.omega is not omega and not t.omega.flags.writeable
    assert table.v_x is not v and table.v_p is table.v_x
    for bad, message in (([0.0, math.nan, 2.0], "finite"), ([0.0, 2.0, 1.0], "strictly increasing")):
        frozen = np.array(bad)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match=message):
            SpectrumTable(frozen, v, v, v)
        with pytest.raises(ValueError, match=message):
            table._relabeled(frozen)
    with pytest.raises(ValueError, match="equal length"):
        table._relabeled(omega[:2])
    # Writing the caller's arrays afterwards leaves both tables as they were.
    for column in (omega, v):
        column.flags.writeable = True
        column[0] = -7.0
    assert table.omega.tolist() == moved.omega.tolist() == [0.0, 1.0, 2.0]
    assert table.v_x.tolist() == [1.5, 1.25, 1.125]


def test_spectrum_table_equality_compares_columns_by_value():
    table = SpectrumTable((0.0, 1.0), (2.0, -0.0), (2.0, 2.2), (0.5, 0.4))
    same = SpectrumTable([0, 1], np.array([2.0, 0.0]), (2.0, 2.2), (0.5, 0.4), evaluator=len)
    assert table == same and not table != same  # -0.0 == 0.0; the evaluator is not compared
    assert table == SpectrumTable.from_csv(table.to_csv())
    assert table != SpectrumTable((0.0, 1.0), (2.0, 0.0), (2.0, 2.2), (0.5, 0.41))
    assert table != SpectrumTable((0.0,), (2.0,), (2.0,), (0.5,))
    assert table != tuple(table.rows()) and table != "table"
    with_nan = SpectrumTable((0.0,), (math.nan,), (1.0,), (0.5,))
    assert with_nan != SpectrumTable((0.0,), (math.nan,), (1.0,), (0.5,))
    with pytest.raises(TypeError, match="unhashable"):
        hash(table)


# ---------------------------------------------------------------------------
# Bandwidth


def closed_form_width(eps, threshold=0.51):
    # F(w) >= t  <=>  (1+eps)^2 + w^2 <= 4*eps*t/(2t-1)
    cap = 4.0 * eps * threshold / (2.0 * threshold - 1.0)
    return 2.0 * math.sqrt(cap - (1.0 + eps) ** 2)


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_bandwidth_matches_closed_form(eps):
    grid = [0.1 * k for k in range(0, 120)]
    table = fidelity_spectrum(Nopa(eps), grid)
    got = bandwidth(table)
    assert got == pytest.approx(closed_form_width(eps), abs=1e-4)


def test_per_frequency_gain_is_evaluated_once_per_row():
    calls = []

    def gain(w):
        calls.append(w)
        return 1.0

    table = fidelity_spectrum(
        Nopa(0.5), [0.1 * k for k in range(10)], gain=GainSchedule.per_frequency(gain)
    )
    assert len(table) == 10
    assert len(calls) == 10


@pytest.mark.parametrize("gain", [1.0, 0.5, 0.5 + 0.25j])
def test_threshold_grids_raise_no_numpy_warnings(gain):
    # Infinite amplitudes meet exactly-zero weights and complex gains; none
    # of it may print a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", NonUnitGainWarning)
        table = fidelity_spectrum(Nopa(1.0), [0.0, 0.5], gain=gain)
        report = evaluate_criteria(Nopa(1.0), 0.0, gain=gain)
        # Just off threshold |S+|^2 passes the float range: inf, silently.
        assert Nopa(1.0).pair(1e-200).powers().variances() == (math.inf, 0.0)
    if gain == 1.0:
        assert table.v_x[0] == table.v_p[0] == 0.0 and table.fidelity[0] == 1.0
    else:
        assert table.v_x[0] == table.v_p[0] == math.inf and table.fidelity[0] == 0.0
        assert report.v_x == report.v_p == math.inf
    assert all(math.isfinite(v) for v in [*table.v_x[1:], *table.fidelity])


def test_bandwidth_zero_when_never_above():
    table = fidelity_spectrum(Nopa(0.5), [0.0, 1.0, 2.0])
    assert bandwidth(table, threshold=0.95) == 0.0
    classical = fidelity_spectrum(Nopa(0.0), [0.0, 1.0])
    assert bandwidth(classical, threshold=0.51) == 0.0


def test_bandwidth_extends_beyond_the_grid():
    # Short grid that never crosses; the attached evaluator lets the search
    # double out until it brackets the crossing.
    table = fidelity_spectrum(Nopa(0.6), [0.0, 0.5, 1.0])
    assert bandwidth(table) == pytest.approx(closed_form_width(0.6), abs=1e-4)


@pytest.mark.parametrize(
    "kwargs, threshold",
    [
        ({}, 0.4),  # below the classical 1/2 every frequency qualifies
        ({"gain": 0.5}, 0.51),  # F tends to 1/(1 + g^2) = 0.8 at large omega
    ],
)
def test_bandwidth_is_infinite_when_never_crossed(kwargs, threshold):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        table = fidelity_spectrum(Nopa(0.5), [0.0, 1.0], **kwargs)
    assert bandwidth(table, threshold) == math.inf


def _checked_bandwidth(table, threshold):
    # bandwidth(), holding it to its promise for any evaluator: the width
    # lies in a bracket at most 1e-6 wide whose ends are neighbouring rows,
    # of the table or evaluated, the lower at or above the threshold and
    # the upper below it.  Returns the width and the evaluator's calls.
    rows = dict(zip(table.omega.tolist(), table.fidelity.tolist()))
    calls = []
    evaluator = table.evaluator

    def recorded(w):
        calls.append(len(w))
        values = evaluator(w)
        rows.update(zip(np.asarray(w).tolist(), np.asarray(values).tolist()))
        return values

    table.evaluator = recorded
    width = bandwidth(table, threshold)
    if 0 < width < math.inf:
        omegas = sorted(rows)
        k = bisect.bisect_right(omegas, width / 2)  # the first row past the half width
        if omegas[k - 1] == width / 2 and rows[omegas[k - 1]] < threshold:
            k -= 1  # the half width is the upper end
        lo, hi = omegas[k - 1], omegas[k]
        assert lo <= width / 2 <= hi and hi - lo <= 1e-6
        assert rows[lo] >= threshold > rows[hi]
    return width, calls


def _exact_fidelity(kind, epsilon, beta, eta, gain, omega):
    # The exact fidelity of one of the SOURCES kinds at a float frequency.
    noisy, quiet = exact.nopa_spectra(epsilon, beta, omega)
    if kind.startswith("swap"):
        g = exact.optimal_gain(epsilon, beta, omega) if gain is None else gain
        return exact.swap_fidelity(2 * noisy, 2 * quiet, g)
    return exact.teleport_fidelity(quiet, eta)


# Each source with its exact bracket of the width at a threshold.
SOURCES = [
    (lambda grid: fidelity_spectrum(Nopa(0.6), grid), lambda t: exact.teleport_width(0.6, 1.0, 1.0, t)),
    (
        lambda grid: fidelity_spectrum(Nopa(0.8, 0.7), grid, detector=BellDetector(0.95)),
        lambda t: exact.teleport_width(0.8, 0.7, 0.95, t),
    ),
    (lambda grid: swap_spectrum(SwapConfig(Nopa(0.4)), grid), lambda t: exact.swap_width(0.4, 1.0, t)),
    (lambda grid: swap_spectrum(SwapConfig(Nopa(0.6, 0.9)), grid), lambda t: exact.swap_width(0.6, 0.9, t)),
    (
        lambda grid: swap_spectrum(SwapConfig(Nopa(0.7, 0.9), gain=0.8), grid),
        lambda t: exact.swap_width(0.7, 0.9, t, 0.8),
    ),
]
SOURCE_IDS = ["lossless", "lossy-detector", "swap", "swap-lossy", "swap-fixed-gain"]
# How far a width may lie from its exact bracket, in exact.ulps units.
WIDTH_ULPS = 16


# This test and the four below it keep the names of the one-point
# bisection replays they replaced; each now checks the width against its
# exact value, or the bracket around it.
@pytest.mark.parametrize("make, width", SOURCES, ids=SOURCE_IDS)
@pytest.mark.parametrize("threshold", [0.51, 0.55, 0.6])
def test_batched_bisection_takes_the_one_point_steps(make, width, threshold):
    # A crossing on a grid of a smooth source: the inverse polynomial
    # through the 8 rows around it guesses it within the stencil of the one
    # evaluator call, and the rows of that stencil give the exact width.
    # A first row already below threshold (the fixed-gain swap's fidelity
    # rises before it falls) leaves nothing to refine.
    table = make([0.1 * k for k in range(201)])  # every crossing within the grid
    got, calls = _checked_bandwidth(table, threshold)
    if table.fidelity[0] < threshold:
        assert got == 0.0 and calls == []
    else:
        assert exact.bracket_ulps(got, width(threshold)) <= WIDTH_ULPS
        assert len(calls) == 1


@st.composite
def _bandwidth_cases(draw):
    # A table of one of four kinds of source on a drawn grid, which may end
    # before the crossing, and a threshold in (1/2, F(0)], with what the
    # exact fidelity needs: (kind, epsilon, beta, eta, gain).
    eps, beta = draw(st.floats(0.1, 0.95)), draw(st.floats(0.6, 1.0))
    step, rows = draw(st.floats(0.01, 0.5)), draw(st.integers(1, 60))
    grid = [step * k for k in range(rows)]
    kind = draw(st.sampled_from(["lossless", "lossy-detector", "swap", "swap-fixed-gain"]))
    eta, gain = 1.0, None
    if kind == "lossless":
        beta = 1.0
        table = fidelity_spectrum(Nopa(eps), grid)
    elif kind == "lossy-detector":
        eta = draw(st.floats(0.9, 0.999))
        table = fidelity_spectrum(Nopa(eps, beta), grid, detector=BellDetector(eta))
    elif kind == "swap":
        table = swap_spectrum(SwapConfig(Nopa(eps, beta)), grid)
    else:
        gain = draw(st.floats(0.5, 1.0))
        table = swap_spectrum(SwapConfig(Nopa(eps, beta), gain=gain), grid)
    f0 = float(table.fidelity[0])
    assume(f0 > 0.5)
    threshold = 0.5 + (f0 - 0.5) * draw(st.floats(1e-3, 1.0))
    return table, threshold, (kind, eps, beta, eta, gain)


@settings(deadline=None, max_examples=100, derandomize=True)
@given(case=_bandwidth_cases())
@example(case=(fidelity_spectrum(Nopa(0.5), [0.0]), 0.51, ("lossless", 0.5, 1.0, 1.0, None)))
@example(  # a crossing past the grid's first octave
    case=(fidelity_spectrum(Nopa(0.5), [0.0, 0.25]), 0.501, ("lossless", 0.5, 1.0, 1.0, None))
)
def test_bandwidth_takes_the_one_point_steps(case):
    # Where the fidelity is nearly flat a width is ill-conditioned, many
    # ulps from the exact one for any method, but its half still crosses:
    # the exact fidelity there is the threshold to a few ulps.
    table, threshold, source = case
    got, calls = _checked_bandwidth(table, threshold)
    assert exact.ulps(threshold, _exact_fidelity(*source, got / 2)) <= 4
    assert len(calls) <= 6


@pytest.mark.parametrize("make, width", SOURCES, ids=SOURCE_IDS)
@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.1], [0.0, 0.5, 1.0]])
def test_doubling_takes_the_one_point_steps(make, width, grid):
    table = make(grid)  # every crossing beyond the grid
    got, calls = _checked_bandwidth(table, 0.51)
    assert exact.bracket_ulps(got, width(0.51)) <= WIDTH_ULPS
    # One call for the first doubling candidate and the 63 rows of the
    # octave below it, one for every other candidate unless the first is
    # already below threshold, then the refinement: one call for a
    # crossing in that octave, two past it (the first shrinks the octave
    # 64-fold, the second then finds the crossing in its stencil).
    assert calls[0] == FIRST_DOUBLING_CALL and len(calls) <= 4


@pytest.mark.parametrize(
    "wobble",
    [
        lambda w: 0.05 * ((w * 7.3) % 1.0 - 0.5),  # a sawtooth: several crossings
        lambda w: 1e-5 * ((w * 1e6) % 1.0 - 0.5),  # noise at the last steps' scale
    ],
    ids=["non-monotone", "noisy"],
)
@pytest.mark.parametrize("threshold", [0.51, 0.55, 0.6])
def test_bisection_of_any_evaluator_takes_the_one_point_steps(wobble, threshold):
    # Guesses from a fidelity that is not smooth near the crossing miss;
    # the even grid of every call still shrinks the bracket 64-fold, and
    # the width lies in a bracket that the evaluator put on either side.
    base = fidelity_spectrum(Nopa(0.6), [0.1 * k for k in range(201)])

    def evaluator(w):
        return base.evaluator(w) + wobble(np.asarray(w, dtype=float))

    grid = np.array(base.omega)
    table = SpectrumTable(grid, base.v_x, base.v_p, evaluator(grid), evaluator=evaluator)
    _, calls = _checked_bandwidth(table, threshold)
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize(
    "wrong",
    [
        lambda secant, lo, hi: lo,
        lambda secant, lo, hi: hi,
        lambda secant, lo, hi: lo + hi - secant,  # the guess mirrored
    ],
    ids=["low", "high", "mirrored"],
)
@pytest.mark.parametrize("make, width", SOURCES, ids=SOURCE_IDS)
def test_a_wrong_guess_still_takes_several_steps_per_call(monkeypatch, wrong, make, width):
    # Every call takes an even grid of 63 rows across the bracket, so even
    # a guess that is always wrong shrinks it 64-fold per call: a 0.1 grid
    # bracket is down to 1e-6 in at most 3 calls, and the width, wrong
    # guess and all, stays inside it.
    table = make([0.1 * k for k in range(201)])
    secant = criteria_module._secant
    monkeypatch.setattr(criteria_module, "_inverse_guess", lambda xs, fs, t: math.nan)
    monkeypatch.setattr(
        criteria_module,
        "_secant",
        lambda lo, f_lo, hi, f_hi, t: wrong(secant(lo, f_lo, hi, f_hi, t), lo, hi),
    )
    got, calls = _checked_bandwidth(table, 0.51)
    assert abs(got - float(width(0.51)[0])) <= 2e-6
    assert 1 <= len(calls) <= 3


# The first doubling call: the first candidate and the even grid of 63
# rows across the octave below it.
FIRST_DOUBLING_CALL = 64


def test_never_crossing_bandwidth_takes_two_calls():
    # The swapped fidelity tends to 1/2 from above: no doubling candidate up
    # to OMEGA_LIMIT drops below a threshold of 1/2, and two calls show it.
    table = swap_spectrum(SwapConfig(Nopa(0.5)), [0.1 * k for k in range(51)])
    assert _checked_bandwidth(table, 0.5) == (math.inf, [FIRST_DOUBLING_CALL, 508])


def test_doubling_stops_at_the_frequency_limit():
    # From 1e100 only the doublings up to OMEGA_LIMIT are evaluated; their
    # squares stay in the float range, so no warning and no nan.
    table = fidelity_spectrum(Nopa(0.5), [1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        width, calls = _checked_bandwidth(table, 0.5)
    assert width == math.inf
    doublings = len([k for k in range(1, 200) if 2e100 * 2.0 ** k <= OMEGA_LIMIT])
    assert calls == [FIRST_DOUBLING_CALL, doublings]


@pytest.mark.parametrize("last", [1e-61, 5e-324])
def test_doubling_from_a_tiny_grid_reaches_the_crossing(last):
    # Some 200 to 1,080 octaves lie between the last row and the crossing
    # near 7: the second call takes every candidate up to OMEGA_LIMIT,
    # counted from the binary exponents (OMEGA_LIMIT / 2e-323 is inf).
    first, candidates = 2.0 * last, 0
    while math.ldexp(first, candidates) <= OMEGA_LIMIT:
        candidates += 1
    width, calls = _checked_bandwidth(fidelity_spectrum(Nopa(0.5), [0.0, last]), 0.51)
    assert width == pytest.approx(closed_form_width(0.5), rel=1e-12)
    assert calls[:2] == [FIRST_DOUBLING_CALL, candidates - 1]


def test_bandwidth_names_a_nan_row_next_to_the_crossing():
    # A nan row beside the bracket leaves the crossing undefined: an error
    # naming its frequency, not a nan width.
    loaded = SpectrumTable.from_csv("omega,v_x,v_p,fidelity\n0,1,1,0.9\n1,1,1,nan\n2,1,1,0.3\n")
    with pytest.raises(ValueError, match=r"^fidelity nan at omega=1\.0 next to the crossing$"):
        bandwidth(loaded)

    def patched(w):
        # 1 - w/4, crossing 0.51 at 1.96, with a nan patch over the stencil
        # around it: the bracket's lower row is the stencil's last, nan.
        w = np.asarray(w, dtype=float)
        return np.where((w > 1.5) & (w < 1.97), math.nan, 1.0 - w / 4.0)

    grid = np.array([0.0, 1.0, 2.0, 3.0])
    table = SpectrumTable(grid, grid, grid, patched(grid), evaluator=patched)
    with pytest.raises(ValueError, match=r"^fidelity nan at omega=1\.96\d* next to the crossing$"):
        bandwidth(table, 0.51)


def test_a_crossing_where_floats_are_coarser_than_the_stop_ends():
    # Past about 1e10 neighbouring floats are more than 1e-6 apart, so the
    # bracket stops at two of them instead of at 1e-6.
    def evaluator(w):
        return 1.0 - np.asarray(w, dtype=float) / 4e12

    grid = np.array([0.0, 1e12, 3e12])
    table = SpectrumTable(grid, grid, grid, evaluator(grid), evaluator=evaluator)
    got = bandwidth(table, 0.51)
    assert got == pytest.approx(2 * 0.49 * 4e12, rel=1e-15)


def test_the_plan_keeps_a_grid_where_floats_are_coarser_than_the_stencil():
    # The table above: the stencil around the guess near 2e12 holds equal
    # floats, which no table can, so the plan is the grid itself.
    grid = np.array([0.0, 1e12, 3e12])
    assert criteria_module._bandwidth_grid(grid, 1.0 - grid / 4e12, 0.51) is grid


@pytest.mark.parametrize(
    "src, detector",
    [
        (Nopa(0.6), BellDetector(1.0)),
        (Nopa(0.8, 0.7), BellDetector(0.95)),
        (Nopa(1.0), BellDetector(0.9)),
    ],
)
@pytest.mark.parametrize("swap_gain", ["teleport", None, 0.8])
def test_the_closed_form_is_the_kernel_fidelity_bit_for_bit(src, detector, swap_gain):
    # What the sweep plans with: a unit-gain teleport's closed form, and a
    # swap's at any gain (ideal detectors), is the kernel's column.
    grid = np.array([0.0, 0.3, 1.7, 5.0, 40.0])
    if swap_gain == "teleport":
        table = fidelity_spectrum(src, grid, detector=detector)
        closed = criteria_module._closed_fidelity(src, grid, detector)
    else:
        cfg = SwapConfig(src, gain=swap_gain)
        table = swap_spectrum(cfg, grid)
        closed = criteria_module._closed_fidelity(_SwappedPair(cfg, grid), grid, BellDetector(1.0))
    assert _bits(closed) == _bits(table.fidelity)


@pytest.mark.parametrize("make, width", SOURCES, ids=SOURCE_IDS)
@pytest.mark.parametrize("threshold", [0.51, 0.55, 0.6])
@pytest.mark.parametrize("step", [0.1, 0.5, 2.0])
def test_the_planned_table_holds_the_rows_of_the_first_refinement(make, width, threshold, step):
    # The table on the planned grid is, row for row and bit for bit, the
    # table of the grid merged with the rows of bandwidth()'s first
    # evaluator call, so bandwidth() reads the same width from it with one
    # call less.
    grid = step * np.arange(int(20 / step) + 1)
    table = make(grid)
    planned = criteria_module._bandwidth_grid(grid, table.fidelity, threshold)
    got, calls = _checked_bandwidth(make(planned), threshold)
    rows = dict(zip(table.omega.tolist(), table.fidelity.tolist()))
    evaluator, first = table.evaluator, []

    def recorded(w):
        values = evaluator(w)
        first.append(dict(zip(w.tolist(), values.tolist())))
        return values

    table.evaluator = recorded
    assert _bits([bandwidth(table, threshold)]) == _bits([got])
    if planned is grid:  # the fixed-gain swap's first row: nothing to refine
        assert table.fidelity[0] < threshold and not first
        return
    rows.update(first[0])
    union = make(planned)
    assert _bits(union.omega) == _bits(sorted(rows))
    assert _bits(union.fidelity) == _bits([rows[w] for w in sorted(rows)])
    assert len(calls) == len(first) - 1


def _kernel_rows(monkeypatch):
    # The rows of each kernel call from here on.
    rows, kernel = [], criteria_module._teleport_columns

    def counted(src, omega, *rest):
        rows.append(np.size(omega))
        return kernel(src, omega, *rest)

    monkeypatch.setattr(criteria_module, "_teleport_columns", counted)
    return rows


def test_a_unit_schedule_on_every_row_plans_the_sweep(monkeypatch):
    # The closed form is the fidelity wherever the gain is 1 on a coherent
    # input at alpha = 0, so a per-frequency schedule that is 1 on every row
    # plans as unit gain does: the grid and the first refinement come from
    # one kernel call, and bandwidth() reads from that table, with no call
    # more, the width it reads from the plain grid's.
    src, grid, detector = Nopa(0.6, 0.9), 0.1 * np.arange(51), BellDetector(0.95)
    unit = GainSchedule.per_frequency(lambda w: 1.0)
    want = bandwidth(fidelity_spectrum(src, grid, unit, detector), 0.6)
    rows = _kernel_rows(monkeypatch)
    table = criteria_module._sweep(lambda w: src, grid, unit, detector, COHERENT, 0.6)
    assert rows == [179]
    assert _bits([bandwidth(table, 0.6)]) == _bits([want])
    assert rows == [179]


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
@pytest.mark.parametrize(
    "gain, model",
    [
        (GainSchedule.per_frequency(lambda w: 1.0 if w < 2.0 else 0.99), COHERENT),
        (GainSchedule.unit(), InputModel.squeezed(0.5)),
        (GainSchedule.fixed(0.9), COHERENT),
    ],
    ids=["unit-on-some-rows", "squeezed-input", "fixed-gain"],
)
def test_the_sweep_plans_only_where_the_closed_form_holds_on_every_row(monkeypatch, gain, model):
    # Off the closed form on any row, the table is the plain grid's.
    src, grid, detector = Nopa(0.6, 0.9), 0.1 * np.arange(51), BellDetector(0.95)
    rows = _kernel_rows(monkeypatch)
    table = criteria_module._sweep(lambda w: src, grid, gain, detector, model, 0.6)
    assert rows == [51]
    assert table == fidelity_spectrum(src, grid, gain, detector, model)


def _tabulated(top):
    # Nopa(0.5) as a CustomSpectrum on [0, top]: it rejects any
    # frequency past top.  At threshold 0.51 the fidelity crosses near 7.
    src = Nopa(0.5)
    nodes = [0.25 * k for k in range(int(4 * top) + 1)]
    pairs = [src.pair(w) for w in nodes]
    return CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])


@pytest.mark.parametrize(
    "top, stop, doubling_calls",
    [
        # The first call takes the first candidate and the rows of the
        # octave below it, so it asks for nothing past the candidate.
        (20.0, 5.0, [FIRST_DOUBLING_CALL]),  # the first candidate, 10, is below threshold
        # 5 is above, the rest reach past 40: 10 alone
        (40.0, 2.5, [FIRST_DOUBLING_CALL, 509, 1]),
    ],
    ids=["first-candidate", "one-at-a-time"],
)
def test_doubling_asks_a_finite_table_for_nothing_past_the_crossing(top, stop, doubling_calls):
    table = fidelity_spectrum(_tabulated(top), [0.5 * k for k in range(int(2 * stop) + 1)])
    got, calls = _checked_bandwidth(table, 0.51)
    assert 0 < got < 2 * top
    assert calls[: len(doubling_calls)] == doubling_calls


def test_doubling_past_a_finite_table_raises_as_one_point_doubling_does():
    # Above threshold up to the table's end at 6: doubling from the last
    # row, 3, asks for 12 first, and the table's rejection of it is
    # bandwidth()'s.
    table = fidelity_spectrum(_tabulated(6.0), [0.5 * k for k in range(7)])
    with pytest.raises(ValueError) as one_point:
        table.evaluator(np.array([12.0]))
    with pytest.raises(ValueError, match="frequency 12 outside") as batched:
        bandwidth(table, 0.51)
    assert str(batched.value) == str(one_point.value)


def test_bandwidth_interpolates_without_evaluator():
    grid = [0.05 * k for k in range(0, 240)]
    table = fidelity_spectrum(Nopa(0.4), grid)
    loaded = SpectrumTable.from_csv(table.to_csv())
    assert loaded.evaluator is None
    got = bandwidth(loaded)
    assert got == pytest.approx(closed_form_width(0.4), abs=0.02)


def test_bandwidth_without_evaluator_needs_a_crossing():
    loaded = SpectrumTable.from_csv(
        fidelity_spectrum(Nopa(0.6), [0.0, 0.5, 1.0]).to_csv()
    )
    with pytest.raises(ValueError):
        bandwidth(loaded)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_bandwidth_rejects_a_threshold_that_is_not_finite(threshold):
    # Raised before the table is read, in the command line's words; past
    # the check, nan and -inf would read as an infinite width and inf as 0.
    class Unread(SpectrumTable):
        def __getattribute__(self, name):
            raise AssertionError(f"read {name}")

    table = object.__new__(Unread)
    want = f"threshold: expected a finite number, got {float(threshold)}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        bandwidth(table, threshold)


# bandwidth() as it was on numpy arrays, before it kept its rows in lists:
# the reference that the list version must match bit for bit, evaluator
# calls included.  It shares the unchanged _doubling and _secant.


def _array_bandwidth(spectrum, threshold=0.51):
    om, fs = spectrum.omega, spectrum.fidelity
    if fs[0] < threshold:
        return 0.0
    ev = spectrum.evaluator
    if not (fs < threshold).any():
        if ev is None:
            raise ValueError(
                "fidelity stays above threshold across the table and no "
                "evaluator is attached to extend it"
            )
        om, fs = criteria_module._doubling(ev, om, fs, threshold)
        if not (fs < threshold).any():
            return math.inf
    c = int(np.argmax(fs < threshold))
    if ev is None:
        (lo, hi), (f_lo, f_hi) = om[c - 1 : c + 1].tolist(), fs[c - 1 : c + 1].tolist()
        return 2.0 * criteria_module._secant(lo, f_lo, hi, f_hi, threshold)
    stop, stencil_points = criteria_module._STOP, criteria_module._STENCIL
    while om[c] - om[c - 1] > stop:
        lo, hi = om[c - 1], om[c]
        guess = _array_crossing(om, fs, c, threshold)
        stencil = guess + 0.5 * stop * np.arange(-stencil_points, stencil_points + 1)
        grid = np.linspace(lo, hi, criteria_module._GRID + 2)[1:-1]
        points = np.concatenate((grid[grid < stencil[0]], stencil, grid[grid > stencil[-1]]))
        points = points[(points > lo) & (points < hi)]
        if not len(points):
            break
        values = ev(points)
        om = np.concatenate((om[:c], points, om[c:]))
        fs = np.concatenate((fs[:c], values, fs[c:]))
        c += int(np.argmax(np.append(values < threshold, True)))
    return 2.0 * _array_crossing(om, fs, c, threshold)


def _array_crossing(om, fs, c, threshold):
    half = criteria_module._GUESS_ROWS // 2
    rows = slice(max(c - half, 0), c + half)
    x = _array_inverse_guess(om[rows].tolist(), fs[rows].tolist(), threshold)
    (lo, hi), (f_lo, f_hi) = om[c - 1 : c + 1].tolist(), fs[c - 1 : c + 1].tolist()
    if lo <= x <= hi:
        return x
    return min(max(criteria_module._secant(lo, f_lo, hi, f_hi, threshold), lo), hi)


def _array_inverse_guess(xs, fs, threshold):
    if len(set(fs)) < len(fs):
        return math.nan
    guess = 0.0
    for i, (x, f) in enumerate(zip(xs, fs)):
        for j, g in enumerate(fs):
            if j != i:
                x *= (threshold - g) / (f - g)
        guess += x
    return guess


@st.composite
def _synthetic_tables(draw):
    # A table and a threshold: a grid from 0 at one of several scales,
    # fidelities from a smooth evaluator, a wobbling one, one with nan
    # patches or one of flat steps (rows that share a fidelity), or, with
    # no evaluator, drawn fidelities among which 0 and inf.
    rows, scale = draw(st.integers(1, 40)), draw(st.sampled_from((1.0, 1e-3, 1e6, 1e12)))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=rows, max_size=rows))
    grid = scale * np.cumsum([0.0, *steps[1:]])
    width = scale * draw(st.floats(0.1, 10.0))
    kind = draw(st.sampled_from(("smooth", "wobble", "nan", "flat", "none", "none")))

    def evaluator(w):
        r = np.asarray(w, dtype=float) / width
        with np.errstate(over="ignore"):
            f = 0.5 + 0.45 / (1.0 + r * r)
        if kind == "wobble":
            f = f + 0.02 * ((r * 7.3) % 1.0 - 0.5)
        elif kind == "nan":
            f = np.where((r * 3.1) % 1.0 < 0.2, math.nan, f)
        elif kind == "flat":
            f = np.where(r < 1.0, 0.9, np.where(r < 2.0, 0.6, 0.2))
        return f

    if kind == "none":
        values = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, math.inf)))
        fidelity = draw(st.lists(values, min_size=rows, max_size=rows))
        table = SpectrumTable(grid, grid, grid, fidelity)
    else:
        table = SpectrumTable(grid, grid, grid, evaluator(grid), evaluator=evaluator)
    return table, draw(st.one_of(st.sampled_from((0.51, 0.3, 0.75)), st.floats(0.3, 0.99)))


def _width_and_calls(find, table, threshold):
    # find's width (its bits) or its error, and the bits of the frequencies
    # of each evaluator call.
    calls, evaluator = [], table.evaluator
    if evaluator is not None:
        def recorded(w):
            calls.append(_bits(w))
            return evaluator(w)

        table.evaluator = recorded
    try:
        return _bits([find(table, threshold)]), calls
    except ValueError as exc:
        return str(exc), calls
    finally:
        table.evaluator = evaluator


@settings(deadline=None, max_examples=300, derandomize=True)
@given(case=st.one_of(_synthetic_tables(), _bandwidth_cases().map(lambda case: case[:2])))
@example(  # the table of test_a_crossing_where_floats_are_coarser_than_the_stop_ends
    case=(
        SpectrumTable(
            [0.0, 1e12, 3e12], [0.0] * 3, [0.0] * 3, [1.0, 0.75, 0.25],
            evaluator=lambda w: 1.0 - np.asarray(w, dtype=float) / 4e12,
        ),
        0.51,
    )
)
# No evaluator: an inf row next to the crossing, and no crossing at all.
@example(case=(SpectrumTable([0.0, 1.0, 2.0], [0.0] * 3, [0.0] * 3, [1.0, math.inf, 0.0]), 0.51))
@example(case=(SpectrumTable([0.0, 1.0], [0.0] * 2, [0.0] * 2, [1.0, math.inf]), 0.51))
def test_bandwidth_on_lists_is_the_array_version_bit_for_bit(case):
    # Where the array version's width is nan (a nan or inf row next to the
    # crossing), the list version raises instead, after the same calls.
    table, threshold = case
    got, want = (_width_and_calls(find, table, threshold) for find in (bandwidth, _array_bandwidth))
    if isinstance(want[0], list) and math.isnan(np.array(want[0]).view(float)[0]):
        assert re.fullmatch(r"fidelity (nan|inf) at omega=\S+ next to the crossing", str(got[0]))
        assert got[1] == want[1]
    else:
        assert got == want


def test_nonunit_gain_spectrum_warns():
    with pytest.warns(NonUnitGainWarning):
        fidelity_spectrum(Nopa(0.5), [0.0, 1.0], gain=0.9)


def test_the_nonunit_gain_warning_points_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        fidelity_spectrum(Nopa(0.5), [0.0, 1.0], gain=0.9)
    assert [(w.category, w.filename, w.lineno) for w in caught] == [
        (NonUnitGainWarning, __file__, line)
    ]


# ---------------------------------------------------------------------------
# Combined report


def test_report_all_verdicts_true_for_strong_squeezing():
    report = evaluate_criteria(Nopa(0.5))
    assert report.fidelity == pytest.approx(0.9, rel=1e-12)
    assert all(report.verdicts.values())
    assert report.avg_fidelity_zero is False
    assert report.out_product_limit == 9.0


def test_report_all_verdicts_false_at_the_boundary():
    report = evaluate_criteria(Nopa(0.0))
    assert not any(report.verdicts.values())
    assert report.v_product == pytest.approx(4.0, rel=1e-12)
    assert report.fidelity == 0.5


def test_report_flags_nonunit_gain_average_rule():
    report = evaluate_criteria(Nopa(0.5), gain=0.95)
    assert report.avg_fidelity_zero is True
    assert report.gain == 0.95


def test_report_json_is_complete():
    report = evaluate_criteria(Nopa(0.4), omega=0.5)
    payload = json.loads(report.to_json())
    for key in ("v_x", "v_p", "v_product", "v_sum", "v_out_x", "v_out_p",
                "v_c_x", "v_c_p", "t_x", "t_p", "fidelity", "verdicts"):
        assert key in payload
    assert set(payload["verdicts"]) == {
        "variance_product", "variance_sum", "output_product",
        "conditional_sum", "transfer_sum", "fidelity",
    }


def test_report_json_complex_gain_encoding():
    report = evaluate_criteria(Nopa(0.4), gain=0.9 + 0.1j)
    payload = json.loads(report.to_json())
    assert payload["gain"] == [0.9, 0.1]


def test_report_with_detector_loss():
    eta2 = 0.9
    report = evaluate_criteria(
        Nopa(0.6), detector=BellDetector.from_efficiency(eta2)
    )
    want = 1.0 / (2.0 - 4 * 0.6 / 2.56 + (1 - eta2) / eta2)
    assert report.fidelity == pytest.approx(want, rel=1e-12)
    assert report.eta == pytest.approx(math.sqrt(eta2))


def _payload_json(report):
    # CriteriaReport.to_json's reference: the generic writer over the
    # payload dict, as the method built it before it wrote a template.
    gain = report.gain
    return write_json(
        dict(
            vars(report),
            gain=gain.real if gain.imag == 0 else [gain.real, gain.imag],
            v_product=report.v_product,
            v_sum=report.v_sum,
            v_out_product=report.v_out_product,
            verdicts=report.verdicts,
        )
    )


def _assert_writes_the_payload_json(report):
    # The same bytes, or the same exception with the same message.
    try:
        want = _payload_json(report)
    except Exception as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            report.to_json()
    else:
        assert report.to_json() == want


@st.composite
def _evaluated_reports(draw):
    beta = draw(st.sampled_from([1.0, 0.9, 0.5]))
    src = Nopa(draw(st.floats(0.0, 0.99)), beta)
    omega = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    detector = BellDetector.from_efficiency(draw(st.sampled_from([1.0, 0.97, 0.6])))
    model = draw(st.sampled_from([None, COHERENT, InputModel.squeezed(1.5), InputModel(0.5, 3.0)]))
    alpha = draw(st.sampled_from([0j, 1.0, 0.5 - 2j]))
    gain = draw(
        st.one_of(
            st.sampled_from([GainSchedule.unit(), 1.0]),
            st.floats(0.0, 3.0),
            st.builds(complex, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
            st.sampled_from([GainSchedule.per_frequency(lambda w: 1.0 / (1.0 + 0.1 * w) + 0.05j * w)]),
        )
    )
    return evaluate_criteria(src, omega, gain, detector, model, alpha)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(report=_evaluated_reports())
@example(report=evaluate_criteria(Nopa(1.0), 0.0))  # threshold, unit gain
@example(report=evaluate_criteria(Nopa(0.0), 0.0))  # the classical boundary
@example(report=evaluate_criteria(Nopa(0.6, 0.9), 0.5, 0.8))  # symmetric, fixed gain
def test_report_json_is_the_payload_json_for_evaluated_reports(report):
    _assert_writes_the_payload_json(report)


# Field values the generic writer spells in every way it can: repr, the
# CSV strings of non-finite values, an int, a numpy float64 (a float
# subclass, whose comparisons give numpy bools, which json cannot write).
REPORT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324, 3, 0]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
REPORT_FIELDS = [f for f in CriteriaReport.__dataclass_fields__ if f not in ("gain", "avg_fidelity_zero")]


@st.composite
def _built_reports(draw):
    fields = {name: draw(REPORT_VALUES) for name in REPORT_FIELDS}
    # Each P field is the X field's object, a value of its own, or the
    # zero of the other sign, which == takes for the X field.
    for axis in ("v", "v_out", "v_c", "t"):
        p_is = draw(st.sampled_from(["x", "own", "zeros"]))
        if p_is == "x":
            fields[f"{axis}_p"] = fields[f"{axis}_x"]
        elif p_is == "zeros":
            fields[f"{axis}_x"], fields[f"{axis}_p"] = draw(st.permutations([0.0, -0.0]))
    gain = draw(
        st.one_of(
            REPORT_VALUES,
            st.builds(complex, REPORT_VALUES, REPORT_VALUES),
            st.builds(complex, REPORT_VALUES, st.sampled_from([0.0, -0.0])),
        )
    )
    avg = draw(st.sampled_from([True, False, np.bool_(True)]))
    return CriteriaReport(gain=gain, avg_fidelity_zero=avg, **fields)


@settings(deadline=None, max_examples=500, derandomize=True)
@given(report=_built_reports())
def test_report_json_is_the_payload_json_for_built_reports(report):
    _assert_writes_the_payload_json(report)


@pytest.mark.parametrize(
    "changes",
    [
        {"omega": 2},
        {"v_x": -0.0, "v_p": 0.0},
        {"gain": complex(0.9, -0.0)},
        {"gain": complex(math.nan, 1.0)},
        {"gain": 1},
        {"eta": np.float64(0.5), "fidelity": np.float64(math.inf)},
        {"avg_fidelity_zero": np.bool_(False)},
        {"avg_fidelity_zero": 1},
        {"t_x": np.float32(0.5), "v_c_p": 1j},
        {"v_x": np.float64(0.25), "v_p": np.float64(0.25)},
    ],
    ids=[
        "int-omega", "signed-zeros", "complex-gain-minus-zero", "nan-complex-gain", "int-gain",
        "float64-fields", "numpy-bool", "int-flag", "two-unwritable-values", "float64-verdicts",
    ],
)
def test_report_json_is_the_payload_json_for_each_kind_of_value(changes):
    report = evaluate_criteria(Nopa(0.6, 0.9), 0.5, 0.8 + 0.1j)
    _assert_writes_the_payload_json(dataclasses.replace(report, **changes))


@pytest.mark.parametrize(
    "model, shared", [(COHERENT, True), (InputModel(2.0, 2.0), True), (InputModel.squeezed(1.5), False)]
)
def test_report_p_floats_are_the_x_objects_on_a_symmetric_input(model, shared):
    report = evaluate_criteria(Nopa(0.6, 0.9), 0.5, 0.8, BellDetector(0.9), model, 0.3)
    pairs = [("v_x", "v_p"), ("v_out_x", "v_out_p"), ("v_c_x", "v_c_p"), ("t_x", "t_p")]
    for x, p in pairs:
        assert (getattr(report, p) is getattr(report, x)) is shared, p
        assert type(getattr(report, p)) is float
    _assert_writes_the_payload_json(report)


def test_relabeled_report_changes_only_omega():
    report = evaluate_criteria(Nopa(0.6, 0.9), 0.5, 0.8 + 0.1j, in_model=InputModel.squeezed(1.5))
    relabeled = report._relabeled(0.25)
    assert type(relabeled) is CriteriaReport and relabeled is not report
    assert relabeled.omega == 0.25 and report.omega == 0.5
    for name in CriteriaReport.__dataclass_fields__:
        if name != "omega":
            assert getattr(relabeled, name) is getattr(report, name), name
    assert relabeled == dataclasses.replace(report, omega=0.25)
    with pytest.raises(dataclasses.FrozenInstanceError):
        relabeled.omega = 1.0


# ---------------------------------------------------------------------------
# The power kernel against the expansions

# A gain that varies with frequency, unit at omega = 0.
WOBBLE = GainSchedule.per_frequency(lambda w: complex(1.0 - 0.05 * w, 0.02 * w))


def _custom_copy(epsilon):
    src = Nopa(epsilon)
    nodes = [0.5 * k for k in range(9)]
    pairs = [src.pair(w) for w in nodes]
    return CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])


def expansion_columns(out, model):
    # (v_x, v_p, v_out_x, v_out_p) of one teleport() outcome.
    return (
        difference_variance(out.x_tel, model, Axis.X),
        difference_variance(out.p_tel, model, Axis.P),
        normalized_variance(out.x_tel, model, Axis.X),
        normalized_variance(out.p_tel, model, Axis.P),
    )


def assert_close(got, want, rel=1e-12):
    assert abs(got - want) <= rel * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize(
    "src",
    [Nopa(0.6), Nopa(0.7, 0.8), ZeroBandwidth(0.6), _custom_copy(0.4)],
    ids=["lossless", "lossy", "flat", "custom"],
)
@pytest.mark.parametrize(
    "gain",
    [GainSchedule.unit(), GainSchedule.fixed(0.8), GainSchedule.fixed(1.2 + 0.3j), WOBBLE],
    ids=["unit", "real", "complex", "per-frequency"],
)
@pytest.mark.parametrize("eta2", [1.0, 0.8])
@pytest.mark.parametrize("model", [COHERENT, InputModel.squeezed(1.5)], ids=["coherent", "squeezed"])
def test_kernel_columns_match_the_expansions(src, gain, eta2, model):
    grid = np.array([0.0, 0.4, 1.3, 3.0])
    detector = BellDetector.from_efficiency(eta2)
    cols = criteria_module._teleport_columns(src, grid, gain.at(grid), detector, model)
    for i, w in enumerate(grid.tolist()):
        want = expansion_columns(teleport(src, gain, detector, w), model)
        got = (cols.v_x[i], cols.v_p[i], cols.v_out_x[i], cols.v_out_p[i])
        for g, v in zip(got, want):
            assert_close(g, v)


@pytest.mark.parametrize(
    "cfg",
    [
        SwapConfig(Nopa(0.5)),
        SwapConfig(Nopa(0.6, 0.8), gain=0.7),
        SwapConfig(Nopa(0.4), Nopa(0.3, 0.9), gain=0.9 + 0.2j),
        SwapConfig(Nopa(0.5, 0.7), Nopa(0.8)),
    ],
    ids=["optimal", "lossy-fixed", "mixed-complex", "mixed-optimal"],
)
def test_swap_kernel_rows_match_the_expansions(cfg):
    grid = np.array([0.0, 0.4, 1.3, 3.0])
    cols = _swap_columns(cfg, grid)
    for i, w in enumerate(grid.tolist()):
        want = expansion_columns(verification_teleport(cfg, w), COHERENT)
        got = (cols.v_x[i], cols.v_p[i], cols.v_out_x[i], cols.v_out_p[i])
        for g, v in zip(got, want):
            assert_close(g, v)


def test_threshold_kernel_row_is_finite_at_unit_gain_and_inf_otherwise():
    grid = np.array([0.0])
    unit = criteria_module._teleport_columns(Nopa(1.0), grid, 1.0, BellDetector(1.0), COHERENT)
    assert (unit.v_x[0], unit.v_p[0], unit.fidelity[0]) == (0.0, 0.0, 1.0)
    fixed = criteria_module._teleport_columns(Nopa(1.0), grid, 0.5, BellDetector(1.0), COHERENT)
    assert (fixed.v_x[0], fixed.v_p[0], fixed.v_out_x[0], fixed.fidelity[0]) == (
        math.inf, math.inf, math.inf, 0.0,
    )


@pytest.mark.parametrize(
    "gain",
    [GainSchedule.fixed(1e300), GainSchedule.per_frequency(lambda w: 1e300)],
    ids=["constant", "per-frequency"],
)
def test_a_zero_power_adds_zero_under_an_overflowed_weight(gain):
    # At threshold the quiet power is exactly 0 at omega = 0.  A weight
    # whose square passes the float range leaves that port at 0, not at
    # 0*inf = nan, so the rows are (inf, inf, 0), for a constant gain as
    # for an array of gains.
    grid = np.array([0.0, 0.5])
    for eta2 in (1.0, 0.5):
        cols = criteria_module._teleport_columns(
            Nopa(1.0), grid, gain.at(grid), BellDetector.from_efficiency(eta2), COHERENT
        )
        assert cols.v_x.tolist() == cols.v_p.tolist() == [math.inf, math.inf]
        assert cols.fidelity.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# The kernel's guards: each failure path keeps its exception and message,
# and an empty grid passes them all.


@pytest.mark.parametrize(
    "bad", [math.nan, 0.0, -1.0, np.array([0.5, math.nan]), np.array([0.5, 0.0])],
    ids=["nan", "zero", "negative", "array-nan", "array-zero"],
)
def test_fidelity_point_rejects_a_width_that_is_not_positive(bad):
    for sigma_x, sigma_p in ((bad, 0.5), (0.5, bad), (bad, bad)):
        with pytest.raises(ValueError, match="^Q-function variances must be positive$"):
            fidelity_point(1.0, sigma_x, sigma_p)


def test_fidelity_point_of_empty_widths_is_empty():
    empty = np.array([])
    for sigma_x, sigma_p in ((empty, empty), (empty, np.array([]))):
        f = fidelity_point(1.0, sigma_x, sigma_p)
        assert isinstance(f, np.ndarray) and f.shape == (0,)


class _BelowVacuum(SqueezerSpectrum):
    # Amplitudes S+ = S- = 2^-omega: spectra below vacuum, which no
    # CustomSpectrum table may hold.
    def pair(self, omega):
        amplitude = 0.5 ** np.asarray(omega, dtype=float)
        return TransferPair(amplitude, amplitude)


def test_a_fidelity_outside_0_1_is_named_by_its_first_value():
    # Spectra below vacuum (V+ = V- = 1, 1/4, 1/16) teleport at gain 0
    # with F = 1/(2 sigma), sigma = (1 + V)/4: 1, 1.6 and 32/17, so the
    # second row is the first outside.  A gain that overflows the output
    # at alpha != 0 leaves F = 0*exp(nan) = nan.
    src = _BelowVacuum()
    grid = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match=r"^row 2 \(omega=1\): \|S\+\|\*\|S-\| = 0\.25 is below 1"):
        CustomSpectrum(grid, (1.0, 0.5, 0.25), (1.0, 0.5, 0.25))
    for gain in (0.0, np.zeros(3)):
        with pytest.raises(ValueError, match=r"^fidelity 1\.6 outside \[0, 1\]$"):
            criteria_module._teleport_columns(src, grid, gain, BellDetector(1.0), COHERENT)
    with pytest.raises(ValueError, match=r"^fidelity nan outside \[0, 1\]$"):
        criteria_module._teleport_columns(
            Nopa(0.5), grid[:2], np.array([1.0, 1e300]), BellDetector(1.0), COHERENT, alpha=1.0
        )


def test_a_scalar_gain_past_the_float_range_fails_as_an_array_of_gains_does():
    # (1 - g)*alpha squares past the float range: inf over an infinite
    # width is F = 0*exp(nan) = nan, which the [0, 1] check names, for a
    # scalar gain as for an array of gains (a Python float's ** raised a
    # bare OverflowError here).  Over a finite width F is 0.
    message = r"^fidelity nan outside \[0, 1\]$"
    with pytest.raises(ValueError, match=message):
        evaluate_criteria(Nopa(0.5), 0.0, 1e200, alpha=1.0)
    for gain in (1e300, np.array([1e300])):
        with pytest.raises(ValueError, match=message):
            criteria_module._teleport_columns(
                Nopa(0.5), np.array([0.0]), gain, BellDetector(1.0), COHERENT, alpha=1.0
            )
    assert fidelity_point(0.5, 0.5, 0.5, 1e200) == 0.0
    with np.errstate(over="ignore"):  # numpy's overflow note, which the kernel silences
        assert _bits(fidelity_point(np.array([0.5]), 0.5, 0.5, 1e200)) == _bits([0.0])


@pytest.mark.parametrize("shift", [1e-10, math.nan], ids=["off", "nan"])
def test_closed_form_cross_check_names_the_first_unit_row_off(monkeypatch, shift):
    # The gain is unit from omega = 1 on; the closed form is off (or nan)
    # on every row, but only unit rows are checked, so omega=1.0 is named.
    variances = Nopa.variances

    def shifted(self, omega, powers=None):
        v_plus, v_minus = variances(self, omega, powers)
        return v_plus, v_minus + shift

    monkeypatch.setattr(Nopa, "variances", shifted)
    gain = GainSchedule.per_frequency(lambda w: 1.0 if w >= 1.0 else 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUnitGainWarning)
        with pytest.raises(
            AssertionError, match="^generic fidelity path disagrees with closed form at omega=1.0$"
        ):
            fidelity_spectrum(Nopa(0.5), [0.0, 0.5, 1.0, 1.5], gain)
    # Unshifted, the unit rows are the closed form and the others the
    # generic fidelity, bit for bit.
    monkeypatch.undo()
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    cols = criteria_module._teleport_columns(Nopa(0.5), grid, gain.at(grid), BellDetector(1.0), COHERENT)
    generic = criteria_module._teleport_columns(Nopa(0.5), grid, 0.8, BellDetector(1.0), COHERENT)
    closed = 1.0 / (1.0 + Nopa(0.5).variances(grid)[1] + 0.0)
    assert _bits(cols.fidelity) == _bits([*generic.fidelity[:2], *closed[2:]])


def test_an_empty_grid_is_an_empty_table():
    with pytest.raises(ValueError, match="^empty spectrum table$"):
        fidelity_spectrum(Nopa(0.5), [])
    with pytest.raises(ValueError, match="^empty spectrum table$"):
        swap_spectrum(SwapConfig(Nopa(0.5)), [])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_weighted_keeps_the_exact_zeros():
    # 0*inf, a zero weight on a nan spectrum, and an overflowed weight on a
    # zero spectrum are exact zeros; every other row is the plain product.
    weighted = criteria_module._weighted
    with np.errstate(over="ignore", invalid="ignore"):
        at_inf = weighted(np.array([0.0, 2.0]), np.array([math.inf, 3.0]))
        at_nan = weighted(np.array([0.0, 1.5]), np.array([math.nan, 2.0]))
        overflowed = weighted(1e200, np.array([0.0, 2.0]))
    assert _bits(at_inf) == _bits([0.0, 12.0])
    assert _bits(at_nan) == _bits([0.0, 4.5])
    assert _bits(overflowed) == _bits([0.0, math.inf])


# ---------------------------------------------------------------------------
# The criteria report is the point row


def _random_setting(rng):
    e = rng.uniform(0.0, 0.95)
    src = Nopa(e) if rng.random() < 0.5 else Nopa(e, rng.uniform(0.55, 1.0))
    eta2 = 1.0 if rng.random() < 0.3 else rng.uniform(0.6, 1.0)
    gain = rng.choice(
        [
            GainSchedule.unit(),
            GainSchedule.fixed(rng.uniform(-0.5, 2.0)),
            GainSchedule.fixed(complex(rng.uniform(-0.5, 2.0), rng.uniform(-1.0, 1.0))),
            WOBBLE,
        ]
    )
    return src, rng.uniform(0.0, 4.0), gain, BellDetector.from_efficiency(eta2)


@pytest.mark.filterwarnings("ignore::cvteleport.teleport.NonUnitGainWarning")
def test_criteria_report_is_the_point_row_bit_for_bit():
    rng = random.Random(1103)
    for _ in range(2000):
        src, omega, gain, detector = _random_setting(rng)
        report = evaluate_criteria(src, omega, gain, detector)
        table = fidelity_spectrum(src, [omega], gain, detector)
        assert (report.v_x, report.v_p, report.fidelity) == (
            table.v_x[0], table.v_p[0], table.fidelity[0],
        )


def test_criteria_report_matches_ralph_lam_on_the_expansions():
    rng = random.Random(1104)
    for k in range(400):
        src, omega, gain, detector = _random_setting(rng)
        model = COHERENT if k % 2 else InputModel.squeezed(rng.uniform(0.5, 2.0))
        alpha = 0j if k % 3 == 0 else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        report = evaluate_criteria(src, omega, gain, detector, model, alpha)
        out = teleport(src, gain, detector, omega)
        v_x, v_p, v_out_x, v_out_p = expansion_columns(out, model)
        rl = ralph_lam(out.x_tel, out.p_tel, model)
        pairs = [
            (report.v_x, v_x),
            (report.v_p, v_p),
            (report.v_out_x, v_out_x),
            (report.v_out_p, v_out_p),
            (report.v_c_x, rl.v_c_x),
            (report.v_c_p, rl.v_c_p),
            (report.t_x, rl.t_x),
            (report.t_p, rl.t_p),
            (report.fidelity, teleport_fidelity(out, model, alpha).fidelity),
        ]
        for got, want in pairs:
            assert_close(got, want)


def test_criteria_rejects_a_gain_that_overflows_the_output():
    # |g|^2 V_in past the float range would leave V_c and T as inf - inf.
    with pytest.raises(OverflowError, match="float range"):
        evaluate_criteria(Nopa(0.5), gain=1e200)


def test_criteria_zero_output_convention_matches_ralph_lam():
    # A zero output operator has V_c = T = 0 by convention, on either path.
    rl = ralph_lam(QuadExpansion(), QuadExpansion(), COHERENT)
    assert criteria_module._conditional(0.0, 0.0, 0.0, 1.0) == (rl.v_c_x, rl.t_x) == (0.0, 0.0)
    assert criteria_module._conditional(0.0, 0.0, 0.8 + 0.1j, 2.0) == (0.0, 0.0)


@pytest.mark.parametrize("s", [0.5, 2.0, 1e4, 1e6, 1e77, 1e154])
def test_unit_gain_conditional_variance_is_the_error_variance(s):
    # At unit gain V_c = V_out - V_in = the noise = the error variance, bit
    # for bit, however large the input: V_out - C^2/V_in lost the noise to
    # cancellation from V_in ~ 1e8 on and read -inf at V_in = 1e308.
    model = InputModel.squeezed(s)
    for src in (Nopa(0.5), Nopa(0.6, 0.8)):
        for detector in (BellDetector(1.0), BellDetector.from_efficiency(0.9)):
            report = evaluate_criteria(src, 0.3, 1.0, detector, model)
            assert (report.v_c_x, report.v_c_p) == (report.v_x, report.v_p)
            assert math.isfinite(report.v_c_p) and report.v_c_p > 0


# Frequencies the command line rejects, asked of the library: each sweep and
# report raises naming omega and the first offending value before any
# source is evaluated, so no RuntimeWarning escapes the overflowing square.
# A flat source, whose spectra stay finite at any omega, is refused alike.
@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: evaluate_criteria(Nopa(0.5), 1e200), "1e+200"),
        (lambda: fidelity_spectrum(Nopa(0.5), [0.0, 1e200]), "1e+200"),
        (lambda: swap_spectrum(SwapConfig(Nopa(0.5)), [0.0, math.inf]), "inf"),
        (lambda: swap_fidelity(SwapConfig(Nopa(0.5)), 1e200), "1e+200"),
        (lambda: evaluate_criteria(ZeroBandwidth(1.0), math.inf), "inf"),
        (lambda: evaluate_criteria(ZeroBandwidth(1.0), math.nan), "nan"),
        (lambda: fidelity_spectrum(ZeroBandwidth(1.0), [-1e155, 0.0, math.nan]), "-1e+155"),
        (lambda: fidelity_spectrum(ZeroBandwidth(1.0), np.array(2e154)), "2e+154"),
        (lambda: swap_fidelity(SwapConfig(ZeroBandwidth(1.0)), -math.inf), "-inf"),
    ],
    ids=[
        "criteria", "spectrum", "swap-spectrum", "swap-fidelity", "flat-criteria-inf",
        "flat-criteria-nan", "flat-spectrum-first-value", "flat-spectrum-0d", "flat-swap",
    ],
)
def test_library_rejects_frequencies_past_the_limit(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^omega: {re.escape(value)} is not a finite frequency"):
            call()


def test_library_takes_frequencies_up_to_the_limit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate_criteria(Nopa(0.5), -OMEGA_LIMIT).fidelity == 0.5
        table = fidelity_spectrum(Nopa(0.5), [-OMEGA_LIMIT, 0.0, OMEGA_LIMIT])
        assert table.fidelity[[0, 2]].tolist() == [0.5, 0.5]
        assert swap_fidelity(SwapConfig(Nopa(0.5)), OMEGA_LIMIT) == 0.5
