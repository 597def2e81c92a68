"""Unit tests for the quadrature expansion algebra."""

import math
import random
import re

import pytest

from cvteleport.linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    combine,
    commutator_pairing,
    covariance,
    difference_variance,
    normalized_variance,
    unit_input,
)

COHERENT = InputModel.coherent()


def random_expansion(rng, labels=("m1", "m2", "m3"), signal=True):
    terms = {}
    for label in labels:
        for axis in (Axis.X, Axis.P):
            if rng.random() < 0.7:
                terms[(label, axis)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    sig = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) if signal else 0j
    return QuadExpansion(sig, terms)


def test_vacuum_mode_reports_one():
    e = QuadExpansion(0j, {("m", Axis.X): 1.0})
    assert normalized_variance(e, COHERENT, Axis.X) == 1.0


def test_unit_input_carries_model_variance():
    model = InputModel(0.5, 3.0)
    assert normalized_variance(unit_input(), model, Axis.X) == 0.5
    assert normalized_variance(unit_input(), model, Axis.P) == 3.0


def test_input_model_validation():
    with pytest.raises(ValueError):
        InputModel(0.0, 1.0)
    with pytest.raises(ValueError):
        InputModel(1.0, -2.0)
    with pytest.raises(ValueError):
        InputModel.squeezed(0.0)


@pytest.mark.parametrize("v_x, v_p", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_input_model_rejects_non_finite_variances(v_x, v_p):
    with pytest.raises(ValueError, match="finite"):
        InputModel(v_x, v_p)


@pytest.mark.parametrize("s_v", [math.nan, math.inf, -math.inf, 0.0, -2.0])
def test_squeezed_input_names_a_bad_parameter(s_v):
    # A nan is neither finite nor positive, and the message says both.
    message = f"squeezing parameter s_v must be finite and positive, got {s_v}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InputModel.squeezed(s_v)


def test_squeezed_input_is_pure():
    model = InputModel.squeezed(2.0)
    assert model.v_x == pytest.approx(0.25)
    assert model.v_p == pytest.approx(4.0)
    assert model.v_x * model.v_p == pytest.approx(1.0)
    assert model == InputModel(0.25, 4.0)


def test_exact_zeros_are_pruned():
    e = QuadExpansion(1.0, {("m", Axis.X): 0.0, ("n", Axis.P): 2.0})
    assert ("m", Axis.X) not in e.terms
    assert e.coefficient("n", Axis.P) == 2.0
    assert e.coefficient("m", Axis.X) == 0j
    assert e.labels() == {"n"}


def test_zero_and_scaled():
    zero = QuadExpansion()
    assert zero == QuadExpansion(0j, {("m", Axis.X): 0.0})
    e = combine(QuadExpansion(0j, {("m", Axis.X): 2.0}), zero, 1.5j, 0.0)
    assert e.coefficient("m", Axis.X) == 3.0j
    assert e != zero
    assert combine(e, zero, 0.0, 0.0) == zero


def test_combine_is_coefficientwise():
    rng = random.Random(11)
    for _ in range(50):
        a = random_expansion(rng)
        b = random_expansion(rng)
        ca = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        cb = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        out = combine(a, b, ca, cb)
        assert out.input_coeff == ca * a.input_coeff + cb * b.input_coeff
        for key in set(a.terms) | set(b.terms):
            want = ca * a.terms.get(key, 0j) + cb * b.terms.get(key, 0j)
            got = out.terms.get(key, 0j)
            assert abs(got - want) < 1e-12


def test_variance_matches_manual_sum():
    rng = random.Random(23)
    model = InputModel(0.7, 2.3)
    for _ in range(100):
        e = random_expansion(rng)
        for axis in (Axis.X, Axis.P):
            want = abs(e.input_coeff) ** 2 * model.variance(axis)
            want += sum(abs(c) ** 2 for c in e.terms.values())
            got = normalized_variance(e, model, axis)
            assert got == pytest.approx(want, rel=1e-12)


def test_variance_is_order_independent():
    # fsum over sorted keys: the same expansion built in any insertion order
    # must produce bit-identical variances.
    terms = [(("a", Axis.X), 0.3 + 0.4j), (("b", Axis.X), 1.1 - 0.2j), (("c", Axis.P), 0.9j)]
    e1 = QuadExpansion(0.5, dict(terms))
    e2 = QuadExpansion(0.5, dict(reversed(terms)))
    v1 = normalized_variance(e1, COHERENT, Axis.X)
    v2 = normalized_variance(e2, COHERENT, Axis.X)
    assert v1 == v2


def test_difference_variance_matches_explicit_combination():
    rng = random.Random(37)
    for _ in range(50):
        e = random_expansion(rng)
        diff = combine(e, unit_input(), 1.0, -1.0)
        for axis in (Axis.X, Axis.P):
            # Bit-identical: finite spectra must not move by one ulp.
            assert difference_variance(e, COHERENT, axis) == normalized_variance(
                diff, COHERENT, axis
            )


@pytest.mark.parametrize("coeff", [complex(math.inf, math.inf), complex(math.inf, math.nan)])
def test_difference_variance_keeps_infinite_terms_infinite(coeff):
    # Scaling such a term by a float (1.0*c) would give nan through 0*inf.
    e = QuadExpansion(0.5, {("a", Axis.X): coeff, ("b", Axis.X): 0.3j})
    assert difference_variance(e, COHERENT, Axis.X) == math.inf
    assert normalized_variance(e, COHERENT, Axis.X) == math.inf


def test_covariance_with_self_is_variance():
    rng = random.Random(41)
    for _ in range(50):
        e = random_expansion(rng)
        for axis in (Axis.X, Axis.P):
            assert covariance(e, e, COHERENT, axis) == pytest.approx(
                normalized_variance(e, COHERENT, axis), rel=1e-12
            )


def test_covariance_is_symmetric():
    rng = random.Random(43)
    for _ in range(50):
        a = random_expansion(rng)
        b = random_expansion(rng)
        for axis in (Axis.X, Axis.P):
            assert covariance(a, b, COHERENT, axis) == pytest.approx(
                covariance(b, a, COHERENT, axis), abs=1e-12
            )


def test_covariance_of_disjoint_modes_is_zero():
    a = QuadExpansion(0j, {("m", Axis.X): 1.3 + 0.5j})
    b = QuadExpansion(0j, {("n", Axis.X): -0.7j})
    assert covariance(a, b, COHERENT, Axis.X) == 0.0


def test_covariance_bilinearity():
    rng = random.Random(47)
    for _ in range(30):
        a = random_expansion(rng)
        b = random_expansion(rng)
        c = random_expansion(rng)
        s = rng.uniform(-2, 2)
        lhs = covariance(a, combine(b, c, s, 1.0), COHERENT, Axis.X)
        rhs = s * covariance(a, b, COHERENT, Axis.X) + covariance(a, c, COHERENT, Axis.X)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCommutatorPairing:
    def test_bare_signal(self):
        assert commutator_pairing(unit_input(), unit_input()) == 1.0

    def test_single_vacuum_mode(self):
        x = QuadExpansion(0j, {("m", Axis.X): 1.0})
        p = QuadExpansion(0j, {("m", Axis.P): 1.0})
        assert commutator_pairing(x, p) == 1.0
        # Swapping roles flips the sign.
        assert commutator_pairing(p, x) == -1.0

    def test_beamsplitter_rotation_preserves_pairing(self):
        rng = random.Random(53)
        for _ in range(40):
            t = rng.uniform(0, 2 * math.pi)
            x = QuadExpansion(0j, {("a", Axis.X): math.cos(t), ("b", Axis.X): math.sin(t)})
            p = QuadExpansion(0j, {("a", Axis.P): math.cos(t), ("b", Axis.P): math.sin(t)})
            assert commutator_pairing(x, p).real == pytest.approx(1.0, abs=1e-14)
            assert commutator_pairing(x, p).imag == pytest.approx(0.0, abs=1e-14)

    def test_two_mode_squeeze_preserves_pairing(self):
        rng = random.Random(59)
        for _ in range(40):
            r = rng.uniform(0, 3)
            ch, sh = math.cosh(r), math.sinh(r)
            x = QuadExpansion(0j, {("a", Axis.X): ch, ("b", Axis.X): sh})
            p = QuadExpansion(0j, {("a", Axis.P): ch, ("b", Axis.P): -sh})
            got = commutator_pairing(x, p)
            assert abs(got - 1.0) < 1e-12


def test_infinite_coefficient_yields_infinite_variance():
    e = QuadExpansion(0j, {("m", Axis.X): complex(math.inf, 0.0)})
    v = normalized_variance(e, COHERENT, Axis.X)
    assert math.isinf(v) and v > 0


@pytest.mark.parametrize(
    "e",
    [
        QuadExpansion(0j, {("m", Axis.X): 1e200}),
        QuadExpansion(0j, {("m", Axis.X): 2e154j}),
        QuadExpansion(1e200, {("m", Axis.X): 0.5}),
        # Each square is finite, their sum is not.
        QuadExpansion(0j, {("m", Axis.X): 1e154, ("n", Axis.X): 1e154}),
    ],
)
def test_overflowing_coefficients_yield_infinite_variance(e):
    assert normalized_variance(e, COHERENT, Axis.X) == math.inf
    assert difference_variance(e, COHERENT, Axis.X) == math.inf


def test_finite_squares_keep_their_bits():
    # Finite variances square with ** 2, whose last bit abs(c) * abs(c)
    # would move for this coefficient; 1.3e154 is just below overflow.
    c = 0.5474666735740321 + 0.8816578983073478j
    assert abs(c) * abs(c) != abs(c) ** 2
    for coeff in (c, 1.3e154):
        e = QuadExpansion(0j, {("m", Axis.X): coeff})
        assert normalized_variance(e, COHERENT, Axis.X) == abs(coeff) ** 2
