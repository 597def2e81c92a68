"""Classical boundaries, fidelity, spectrum tables and bandwidth extraction."""

import json
import math
import os
import random
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvteleport
import cvteleport.criteria as criteria_module
from cvteleport.criteria import (
    CONDITIONAL_SUM_LIMIT,
    FIDELITY_CLASSICAL_BOUND,
    OMEGA_LIMIT,
    OUTPUT_PRODUCT_LIMIT,
    TRANSFER_SUM_LIMIT,
    VARIANCE_PRODUCT_LIMIT,
    VARIANCE_SUM_LIMIT,
    ClassicalModelParams,
    SpectrumTable,
    bandwidth,
    classical_model,
    classical_objective,
    evaluate_criteria,
    fidelity_point,
    fidelity_spectrum,
    grid_search_classical,
    optimize_classical,
    output_product_limit,
    teleport_fidelity,
)
from cvteleport.criteria import FidelityPoint, OBJECTIVES
from closed_form import nopa_fidelity_spectrum
from references import ralph_lam
from cvteleport.epr import CustomSpectrum, LosslessNopa, LossyNopa, ZeroBandwidth
from cvteleport.swap import (
    SwapConfig,
    _swap_columns,
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
from cvteleport import _text
from cvteleport._text import _json_number, write_json
from cvteleport.teleport import (
    BellDetector,
    GainSchedule,
    NonUnitGainWarning,
    teleport,
    teleport_single_mode,
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
    report = evaluate_criteria(LosslessNopa(0.5))
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
    out = teleport(LosslessNopa(EPS_3DB))
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum == pytest.approx(CONDITIONAL_SUM_LIMIT, abs=1e-12)
    assert res.transfer_sum == pytest.approx(TRANSFER_SUM_LIMIT, abs=1e-12)


def test_ralph_lam_beyond_3db_beats_both():
    out = teleport(LosslessNopa(0.5), omega=0.3)
    res = ralph_lam(out.x_tel, out.p_tel, COHERENT)
    assert res.conditional_sum < CONDITIONAL_SUM_LIMIT
    assert res.transfer_sum > TRANSFER_SUM_LIMIT


def test_ralph_lam_zero_output_convention():
    res = ralph_lam(QuadExpansion(), QuadExpansion(), COHERENT)
    assert res == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Fidelity


def test_fidelity_classical_floor_is_exact():
    report = evaluate_criteria(LosslessNopa(0.0))
    assert report.fidelity == 0.5
    assert report.verdicts["fidelity"] is False


def test_fidelity_unit_gain_ignores_alpha():
    out = teleport_single_mode(0.0)
    for alpha in (0j, 3 + 4j, -2.5j):
        assert teleport_fidelity(out, alpha=alpha).fidelity == pytest.approx(0.5, rel=1e-12)


def test_fidelity_zero_gain_measures_overlap_decay():
    out = teleport_single_mode(0.0, gain=0.0)
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
        src = LosslessNopa(eps) if beta == 1.0 else LossyNopa(eps, beta)
        out = teleport(src, detector=BellDetector(eta), omega=omega)
        generic = teleport_fidelity(out).fidelity
        closed = nopa_fidelity_spectrum(eps, omega, beta, eta)
        assert abs(generic - closed) < 1e-12


def test_closed_form_cross_check_is_1e_12(monkeypatch):
    # One tolerance for teleport and swap rows: an error far below the old
    # 1e-9 must still raise.
    closed = criteria_module._closed_form_fidelity
    monkeypatch.setattr(
        criteria_module, "_closed_form_fidelity", lambda *args: closed(*args) + 1e-10
    )
    with pytest.raises(AssertionError, match="disagrees with closed form"):
        fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0])


_WRONG_CLOSED_FORMS = """
import sys

from cvteleport import cli, criteria, swap
from cvteleport.epr import LosslessNopa

closed = criteria._closed_form_fidelity
criteria._closed_form_fidelity = lambda *args: closed(*args) + 1e-6
checks = {
    "fidelity_spectrum": lambda: criteria.fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0]),
    "evaluate_criteria": lambda: criteria.evaluate_criteria(LosslessNopa(0.5), 1.0),
    "swap_spectrum": lambda: swap.swap_spectrum(swap.SwapConfig(LosslessNopa(0.5)), [0.0]),
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
        assert fidelity_spectrum(LosslessNopa(eps), [omega]).fidelity[0] > 0.5
    assert nopa_fidelity_spectrum(0.0, 0.0) == 0.5
    assert nopa_fidelity_spectrum(1.0, 0.0) == 1.0
    # The package's spectra keep both limits exact too.
    assert fidelity_spectrum(LosslessNopa(0.0), [0.0]).fidelity == (0.5,)
    assert fidelity_spectrum(LosslessNopa(1.0), [0.0]).fidelity == (1.0,)


# ---------------------------------------------------------------------------
# Spectrum tables


def test_spectrum_table_csv_roundtrip_is_stable():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 0.5, 1.0, 1.5])
    text = table.to_csv()
    again = SpectrumTable.from_csv(text)
    assert again.to_csv() == text
    assert len(again) == 4
    assert again.evaluator is None


def test_spectrum_table_json_payload():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0])
    payload = json.loads(table.to_json())
    assert sorted(payload) == ["fidelity", "omega", "v_p", "v_x"]
    assert len(payload["fidelity"]) == 2
    assert payload["fidelity"][0] == pytest.approx(0.9, rel=1e-9)


def test_spectrum_table_file_io(tmp_path):
    table = fidelity_spectrum(LosslessNopa(0.3), [0.0, 1.0, 2.0])
    path = tmp_path / "sweep.csv"
    path.write_text(table.to_csv())
    again = SpectrumTable.from_csv(str(path))
    assert np.array_equal(again.omega, table.omega)
    jpath = tmp_path / "sweep.json"
    jpath.write_text(table.to_json())
    assert json.loads(jpath.read_text())["omega"] == [0.0, 1.0, 2.0]


def test_spectrum_table_path_with_a_comma(tmp_path):
    table = fidelity_spectrum(LosslessNopa(0.3), [0.0, 1.0, 2.0])
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
@settings(deadline=None, max_examples=300, derandomize=True)
@given(
    rows=st.lists(st.tuples(SERIALIZED, SERIALIZED, SERIALIZED), min_size=1, max_size=12),
    v_p_is=st.sampled_from(["v_x", "a copy", "a zero flipped", "a nan"]),
    at=st.integers(0, 11),
    zero=st.sampled_from([0.0, -0.0]),
)
def test_serializers_write_v_p_near_v_x_as_the_reference(rows, v_p_is, at, zero):
    omega, v_x, fidelity = (np.array(col) for col in zip(*rows))
    at %= len(v_x)
    v_p = v_x.copy()  # equal values, a new array
    if v_p_is == "a zero flipped":
        v_x[at], v_p[at] = zero, -zero
    elif v_p_is == "a nan":
        v_p[at] = math.nan
    table = SpectrumTable(np.arange(len(rows), dtype=float), v_x, v_p, fidelity)
    table.omega = omega  # any values, past the omega checks
    if v_p_is == "v_x":
        table.v_p = table.v_x
    assert table.to_csv() == _reference_csv(table)
    assert table.to_json() == _reference_json(table)


def test_large_tables_write_the_reference_bytes():
    # A symmetric source's v_p matches v_x bit for bit and is written from
    # v_x's text; a lossy swap table's does not, in a fraction of its rows.
    teleport_table = fidelity_spectrum(LosslessNopa(0.5), np.linspace(0.0, 20.0, 10_000))
    swap_table = swap_spectrum(SwapConfig(LossyNopa(0.6, 0.85)), np.linspace(0.0, 5.0, 1200))
    assert teleport_table._written_columns()[2] is teleport_table.v_x
    assert swap_table._written_columns()[2] is swap_table.v_p
    for table in (teleport_table, swap_table):
        assert table.to_csv() == _reference_csv(table)
        assert table.to_json() == _reference_json(table)
    # Either side of the row count where the writers leave % for numpy.
    for rows in (_text._VECTOR_ROWS - 1, _text._VECTOR_ROWS, _text._VECTOR_ROWS + 1):
        teleport_table = fidelity_spectrum(LossyNopa(0.5, 0.9), np.linspace(0.0, 20.0, rows))
        swap_table = swap_spectrum(SwapConfig(LossyNopa(0.6, 0.85)), np.linspace(0.0, 5.0, rows))
        assert teleport_table._written_columns()[2] is teleport_table.v_x
        assert swap_table._written_columns()[2] is swap_table.v_p
        for table in (teleport_table, swap_table):
            assert table.to_csv() == _reference_csv(table)
            assert table.to_json() == _reference_json(table)


def _column_texts(values, as_json):
    # Each value's text from the numpy column formatter, whatever the row
    # count: one block of cells, read back line by line.
    texts = []
    for fields in _text._blocks([tuple(values)], as_json):
        newline = np.full((1, fields.shape[2]), ord("\n"), np.uint8)
        texts += _text._joined([fields[:, 0], newline]).split("\n")[:-1]
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
    sweep = fidelity_spectrum(LosslessNopa(0.5), grid)
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
    table = fidelity_spectrum(LosslessNopa(eps), grid)
    got = bandwidth(table)
    assert got == pytest.approx(closed_form_width(eps), abs=1e-4)


def test_per_frequency_gain_is_evaluated_once_per_row():
    calls = []

    def gain(w):
        calls.append(w)
        return 1.0

    table = fidelity_spectrum(
        LosslessNopa(0.5), [0.1 * k for k in range(10)], gain=GainSchedule.per_frequency(gain)
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
        table = fidelity_spectrum(LosslessNopa(1.0), [0.0, 0.5], gain=gain)
        report = evaluate_criteria(LosslessNopa(1.0), 0.0, gain=gain)
        # Just off threshold |S+|^2 passes the float range: inf, silently.
        assert LosslessNopa(1.0).pair(1e-200).variances() == (math.inf, 0.0)
    if gain == 1.0:
        assert table.v_x[0] == table.v_p[0] == 0.0 and table.fidelity[0] == 1.0
    else:
        assert table.v_x[0] == table.v_p[0] == math.inf and table.fidelity[0] == 0.0
        assert report.v_x == report.v_p == math.inf
    assert all(math.isfinite(v) for v in [*table.v_x[1:], *table.fidelity])


def test_bandwidth_zero_when_never_above():
    table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0, 2.0])
    assert bandwidth(table, threshold=0.95) == 0.0
    classical = fidelity_spectrum(LosslessNopa(0.0), [0.0, 1.0])
    assert bandwidth(classical, threshold=0.51) == 0.0


def test_bandwidth_extends_beyond_the_grid():
    # Short grid that never crosses; the attached evaluator lets the search
    # double out until it brackets the crossing.
    table = fidelity_spectrum(LosslessNopa(0.6), [0.0, 0.5, 1.0])
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
        table = fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0], **kwargs)
    assert bandwidth(table, threshold) == math.inf


def _one_point_bandwidth(table, threshold):
    # bandwidth() with one evaluator call per doubling or bisection step.
    def ev(w):
        return table.evaluator(np.array([w]))[0]

    cross = next((i for i, f in enumerate(table.fidelity) if f < threshold), None)
    if cross == 0:
        return 0.0
    if cross is None:
        lo = table.omega[-1]
        hi = lo * 2.0 if lo > 0 else 1.0
        for _ in range(200):
            if ev(hi) < threshold:
                break
            lo, hi = hi, hi * 2.0
        else:
            return math.inf
    else:
        lo, hi = table.omega[cross - 1], table.omega[cross]
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if ev(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo + hi


def _counted(table):
    # Count the table's evaluator calls from here on.
    calls = []
    evaluator = table.evaluator

    def counted(w):
        calls.append(len(w))
        return evaluator(w)

    table.evaluator = counted
    return calls


SOURCES = [
    lambda grid: fidelity_spectrum(LosslessNopa(0.6), grid),
    lambda grid: fidelity_spectrum(LossyNopa(0.8, 0.7), grid, detector=BellDetector(0.95)),
    lambda grid: swap_spectrum(SwapConfig(LosslessNopa(0.4)), grid),
    lambda grid: swap_spectrum(SwapConfig(LossyNopa(0.7, 0.9), gain=0.8), grid),
]
SOURCE_IDS = ["lossless", "lossy-detector", "swap", "swap-fixed-gain"]


@pytest.mark.parametrize("make", SOURCES, ids=SOURCE_IDS)
@pytest.mark.parametrize("threshold", [0.51, 0.55, 0.6])
def test_batched_bisection_takes_the_one_point_steps(make, threshold):
    table = make([0.1 * k for k in range(201)])  # every crossing within the grid
    want = _one_point_bandwidth(table, threshold)
    calls = _counted(table)
    assert bandwidth(table, threshold) == want
    # The inverse cubic through the grid rows guesses the crossing closely
    # enough that the secant through the bracket it leaves finishes.
    assert len(calls) <= 2


@pytest.mark.parametrize("make", SOURCES, ids=SOURCE_IDS)
@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.1], [0.0, 0.5, 1.0]])
def test_doubling_takes_the_one_point_steps(make, grid):
    table = make(grid)  # every crossing beyond the grid
    want = _one_point_bandwidth(table, 0.51)
    calls = _counted(table)
    assert bandwidth(table, 0.51) == want
    # One call for the first doubling candidate, one for every other unless
    # the first is already below threshold, then the refinement, whose first
    # guess is far coarser across an octave than on the grid.
    assert calls[0] == 1 and len(calls) <= 6


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
    # the walk still takes exactly the one-point steps.  The wobble is
    # elementwise arithmetic, so it is the same at a row of any call.
    base = fidelity_spectrum(LosslessNopa(0.6), [0.1 * k for k in range(201)])

    def evaluator(w):
        return base.evaluator(w) + wobble(np.asarray(w, dtype=float))

    grid = np.array(base.omega)
    table = SpectrumTable(grid, base.v_x, base.v_p, evaluator(grid), evaluator=evaluator)
    want = _one_point_bandwidth(table, threshold)
    calls = _counted(table)
    assert bandwidth(table, threshold) == want
    assert len(calls) <= 5


@pytest.mark.parametrize(
    "wrong",
    [
        lambda secant, lo, hi: lo,
        lambda secant, lo, hi: hi,
        lambda secant, lo, hi: lo + hi - secant,  # the guess mirrored
    ],
    ids=["low", "high", "mirrored"],
)
@pytest.mark.parametrize("make", SOURCES, ids=SOURCE_IDS)
def test_a_wrong_guess_still_takes_several_steps_per_call(monkeypatch, wrong, make):
    # Every call evaluates the top four tree levels, so even a guess that
    # is always wrong takes four steps per call: the 17 steps of a 0.1 grid
    # bracket in at most 5 calls, where trees of six levels (63 midpoints
    # per call) take 3.
    table = make([0.1 * k for k in range(201)])
    want = _one_point_bandwidth(table, 0.51)
    secant = criteria_module._secant
    monkeypatch.setattr(criteria_module, "_inverse_guess", lambda xs, fs, t: math.nan)
    monkeypatch.setattr(
        criteria_module,
        "_secant",
        lambda lo, f_lo, hi, f_hi, t: wrong(secant(lo, f_lo, hi, f_hi, t), lo, hi),
    )
    calls = _counted(table)
    assert bandwidth(table, 0.51) == want
    assert len(calls) <= 3 + 2


def test_never_crossing_bandwidth_takes_two_calls():
    # The swapped fidelity tends to 1/2 from above: no doubling candidate up
    # to OMEGA_LIMIT drops below a threshold of 1/2, and two calls show it.
    table = swap_spectrum(SwapConfig(LosslessNopa(0.5)), [0.1 * k for k in range(51)])
    calls = _counted(table)
    assert bandwidth(table, 0.5) == math.inf
    assert calls == [1, 199]


def test_doubling_stops_at_the_frequency_limit():
    # From 1e100 only the doublings up to OMEGA_LIMIT are evaluated; their
    # squares stay in the float range, so no warning and no nan.
    table = fidelity_spectrum(LosslessNopa(0.5), [1e100])
    calls = _counted(table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bandwidth(table, 0.5) == math.inf
    assert calls == [1, len([k for k in range(1, 200) if 2e100 * 2.0 ** k <= OMEGA_LIMIT])]


def _tabulated(top):
    # LosslessNopa(0.5) as a CustomSpectrum on [0, top]: it rejects any
    # frequency past top.  At threshold 0.51 the fidelity crosses near 7.
    src = LosslessNopa(0.5)
    nodes = [0.25 * k for k in range(int(4 * top) + 1)]
    pairs = [src.pair(w) for w in nodes]
    return CustomSpectrum(nodes, [p.s_plus for p in pairs], [p.s_minus for p in pairs])


@pytest.mark.parametrize(
    "top, stop, doubling_calls",
    [
        (20.0, 5.0, [1]),  # the first candidate, 10, is below threshold
        (40.0, 2.5, [1, 199, 1]),  # 5 is above, the rest reach past 40: 10 alone
    ],
    ids=["first-candidate", "one-at-a-time"],
)
def test_doubling_asks_a_finite_table_for_nothing_past_the_crossing(top, stop, doubling_calls):
    table = fidelity_spectrum(_tabulated(top), [0.5 * k for k in range(int(2 * stop) + 1)])
    want = _one_point_bandwidth(table, 0.51)
    calls = _counted(table)
    assert bandwidth(table, 0.51) == want
    assert calls[: len(doubling_calls)] == doubling_calls


def test_doubling_past_a_finite_table_raises_as_one_point_doubling_does():
    # Above threshold up to the table's end at 6: the one-point search
    # asks for 12 and is rejected, and so is bandwidth().
    table = fidelity_spectrum(_tabulated(6.0), [0.5 * k for k in range(7)])
    with pytest.raises(ValueError) as one_point:
        _one_point_bandwidth(table, 0.51)
    with pytest.raises(ValueError, match="frequency 12 outside") as batched:
        bandwidth(table, 0.51)
    assert str(batched.value) == str(one_point.value)


def test_bandwidth_interpolates_without_evaluator():
    grid = [0.05 * k for k in range(0, 240)]
    table = fidelity_spectrum(LosslessNopa(0.4), grid)
    loaded = SpectrumTable.from_csv(table.to_csv())
    assert loaded.evaluator is None
    got = bandwidth(loaded)
    assert got == pytest.approx(closed_form_width(0.4), abs=0.02)


def test_bandwidth_without_evaluator_needs_a_crossing():
    loaded = SpectrumTable.from_csv(
        fidelity_spectrum(LosslessNopa(0.6), [0.0, 0.5, 1.0]).to_csv()
    )
    with pytest.raises(ValueError):
        bandwidth(loaded)


def test_nonunit_gain_spectrum_warns():
    with pytest.warns(NonUnitGainWarning):
        fidelity_spectrum(LosslessNopa(0.5), [0.0, 1.0], gain=0.9)


# ---------------------------------------------------------------------------
# Combined report


def test_report_all_verdicts_true_for_strong_squeezing():
    report = evaluate_criteria(LosslessNopa(0.5))
    assert report.fidelity == pytest.approx(0.9, rel=1e-12)
    assert all(report.verdicts.values())
    assert report.avg_fidelity_zero is False
    assert report.out_product_limit == 9.0


def test_report_all_verdicts_false_at_the_boundary():
    report = evaluate_criteria(LosslessNopa(0.0))
    assert not any(report.verdicts.values())
    assert report.v_product == pytest.approx(4.0, rel=1e-12)
    assert report.fidelity == 0.5


def test_report_flags_nonunit_gain_average_rule():
    report = evaluate_criteria(LosslessNopa(0.5), gain=0.95)
    assert report.avg_fidelity_zero is True
    assert report.gain == 0.95


def test_report_json_is_complete():
    report = evaluate_criteria(LosslessNopa(0.4), omega=0.5)
    payload = json.loads(report.to_json())
    for key in ("v_x", "v_p", "v_product", "v_sum", "v_out_x", "v_out_p",
                "v_c_x", "v_c_p", "t_x", "t_p", "fidelity", "verdicts"):
        assert key in payload
    assert set(payload["verdicts"]) == {
        "variance_product", "variance_sum", "output_product",
        "conditional_sum", "transfer_sum", "fidelity",
    }


def test_report_json_complex_gain_encoding():
    report = evaluate_criteria(LosslessNopa(0.4), gain=0.9 + 0.1j)
    payload = json.loads(report.to_json())
    assert payload["gain"] == [0.9, 0.1]


def test_report_with_detector_loss():
    eta2 = 0.9
    report = evaluate_criteria(
        LosslessNopa(0.6), detector=BellDetector.from_efficiency(eta2)
    )
    want = 1.0 / (2.0 - 4 * 0.6 / 2.56 + (1 - eta2) / eta2)
    assert report.fidelity == pytest.approx(want, rel=1e-12)
    assert report.eta == pytest.approx(math.sqrt(eta2))


# ---------------------------------------------------------------------------
# The power kernel against the expansions

# A gain that varies with frequency, unit at omega = 0.
WOBBLE = GainSchedule.per_frequency(lambda w: complex(1.0 - 0.05 * w, 0.02 * w))


def _custom_copy(epsilon):
    src = LosslessNopa(epsilon)
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
    [LosslessNopa(0.6), LossyNopa(0.7, 0.8), ZeroBandwidth(0.6), _custom_copy(0.4)],
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
        SwapConfig(LosslessNopa(0.5)),
        SwapConfig(LossyNopa(0.6, 0.8), gain=0.7),
        SwapConfig(LosslessNopa(0.4), LossyNopa(0.3, 0.9), gain=0.9 + 0.2j),
        SwapConfig(LossyNopa(0.5, 0.7), LosslessNopa(0.8)),
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
    unit = criteria_module._teleport_columns(LosslessNopa(1.0), grid, 1.0, BellDetector(1.0), COHERENT)
    assert (unit.v_x[0], unit.v_p[0], unit.fidelity[0]) == (0.0, 0.0, 1.0)
    fixed = criteria_module._teleport_columns(LosslessNopa(1.0), grid, 0.5, BellDetector(1.0), COHERENT)
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
            LosslessNopa(1.0), grid, gain.at(grid), BellDetector.from_efficiency(eta2), COHERENT
        )
        assert cols.v_x.tolist() == cols.v_p.tolist() == [math.inf, math.inf]
        assert cols.fidelity.tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# The criteria report is the point row


def _random_setting(rng):
    e = rng.uniform(0.0, 0.95)
    src = LosslessNopa(e) if rng.random() < 0.5 else LossyNopa(e, rng.uniform(0.55, 1.0))
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
        evaluate_criteria(LosslessNopa(0.5), gain=1e200)


def test_criteria_zero_output_convention_matches_ralph_lam():
    # A zero output operator has V_c = T = 0 by convention, on either path.
    rl = ralph_lam(QuadExpansion(), QuadExpansion(), COHERENT)
    assert criteria_module._conditional(0.0, 0.0, 1.0) == (rl.v_c_x, rl.t_x) == (0.0, 0.0)
    assert criteria_module._conditional(0.0, 0.8 + 0.1j, 2.0) == (0.0, 0.0)
