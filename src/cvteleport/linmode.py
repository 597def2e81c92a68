"""Exact second-moment algebra for linear quadrature networks.

Every output quadrature of a linear optical network is a finite linear
combination of the quadratures entering it: the signal input plus a set of
independent vacuum modes (squeezer ports, cavity loss channels, detector
vacua).  At a fixed analysis frequency each weight is a complex transfer
amplitude, so an output is represented exactly by its coefficient table
instead of by sampled noise.  Spectral variances, covariances and commutator
checks then reduce to finite sums over the table; no frequency integration
or delta-function bookkeeping is ever materialized.

Conventions
-----------
* Vacuum quadrature variance is 1/4; all variances returned here are
  normalized to that, so a vacuum mode reports 1 and a coherent input
  reports 1 on both axes.
* Coefficients stay complex even when an all-real point (zero modulation
  frequency) is evaluated, so a single code path serves both regimes.
* Expansions are immutable values; exact-zero coefficients are pruned at
  construction and nothing else is (no epsilon pruning, which could silently
  drift variances).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Axis",
    "BasisLabel",
    "InputModel",
    "QuadExpansion",
    "combine",
    "commutator_pairing",
    "covariance",
    "difference_variance",
    "normalized_variance",
    "split_re_im",
    "unit_input",
    "vacuum_mode",
    "zero_expansion",
]

# One independent vacuum mode is identified by an opaque string label.
BasisLabel = str


class Axis(enum.Enum):
    """The two conjugate quadrature axes of a mode."""

    X = "x"
    P = "p"


TermKey = tuple[BasisLabel, Axis]


@dataclass(frozen=True, eq=True)
class QuadExpansion:
    """One quadrature operator as a linear expansion over labeled modes.

    Parameters
    ----------
    input_coeff:
        Complex weight on the signal quadrature (X_in for X-type
        expansions, P_in for P-type ones).
    terms:
        Finite map from (label, axis) to the complex coefficient of that
        vacuum quadrature.  Exact zeros are dropped on construction.
    """

    input_coeff: complex = 0j
    terms: Mapping[TermKey, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pruned = {k: complex(c) for k, c in self.terms.items() if c != 0}
        object.__setattr__(self, "input_coeff", complex(self.input_coeff))
        object.__setattr__(self, "terms", pruned)

    def coefficient(self, label: BasisLabel, axis: Axis) -> complex:
        return self.terms.get((label, axis), 0j)

    def labels(self) -> set[BasisLabel]:
        return {label for (label, _axis) in self.terms}

    def is_zero(self) -> bool:
        return self.input_coeff == 0 and not self.terms


def zero_expansion() -> QuadExpansion:
    return QuadExpansion(0j, {})


def unit_input() -> QuadExpansion:
    """The bare signal quadrature (coefficient 1, no vacuum terms)."""
    return QuadExpansion(1.0, {})


def vacuum_mode(label: BasisLabel, axis: Axis, coeff: complex = 1.0) -> QuadExpansion:
    """A single vacuum quadrature term."""
    return QuadExpansion(0j, {(label, axis): coeff})


@dataclass(frozen=True)
class InputModel:
    """Second moments of the signal mode, normalized to vacuum = 1.

    The family tag records how the variances were chosen; all evaluators
    only ever read the (v_x, v_p) pair.
    """

    v_x: float
    v_p: float
    family: str = "symbolic"

    def __post_init__(self) -> None:
        if not (self.v_x > 0 and self.v_p > 0):
            raise ValueError("input variances must be positive")

    @classmethod
    def coherent(cls) -> "InputModel":
        return cls(1.0, 1.0, family="coherent")

    @classmethod
    def squeezed(cls, s_v: float) -> "InputModel":
        """Pure squeezed input: v_x = 1/s_v**2, v_p = s_v**2."""
        if not s_v > 0:
            raise ValueError("squeezing parameter s_v must be positive")
        return cls(s_v ** -2, s_v ** 2, family="squeezed")

    @classmethod
    def with_variances(cls, v_x: float, v_p: float) -> "InputModel":
        return cls(v_x, v_p, family="symbolic")

    def variance(self, axis: Axis) -> float:
        return self.v_x if axis is Axis.X else self.v_p


def combine(
    a: QuadExpansion,
    b: QuadExpansion,
    ca: complex = 1.0,
    cb: complex = 1.0,
) -> QuadExpansion:
    """Return the linear combination ca*a + cb*b, coefficient-wise."""
    terms: dict[TermKey, complex] = {}
    for key, c in a.terms.items():
        terms[key] = ca * c
    for key, c in b.terms.items():
        terms[key] = terms.get(key, 0j) + cb * c
    return QuadExpansion(ca * a.input_coeff + cb * b.input_coeff, terms)


def normalized_variance(e: QuadExpansion, in_model: InputModel, axis: Axis) -> float:
    """Spectral variance of the expansion, in vacuum units.

    Each independent vacuum quadrature contributes |c|^2 and the signal
    contributes |input_coeff|^2 times the model variance on the given axis.
    """
    parts = [abs(e.input_coeff) ** 2 * in_model.variance(axis)]
    parts.extend(abs(c) ** 2 for c in e.terms.values())
    return math.fsum(parts)


def difference_variance(out: QuadExpansion, in_model: InputModel, axis: Axis) -> float:
    """Variance of (out - in), the teleportation error observable.

    Only the input coefficient changes, so vacuum terms, infinite ones
    included, enter exactly as in normalized_variance.
    """
    return normalized_variance(QuadExpansion(out.input_coeff - 1, out.terms), in_model, axis)


def covariance(
    a: QuadExpansion,
    b: QuadExpansion,
    in_model: InputModel,
    axis: Axis,
) -> float:
    """Normalized symmetric covariance of two same-axis expansions.

    Independent modes are uncorrelated, so only matched coefficients
    contribute; the signal term carries the model variance.
    """
    shared = a.terms.keys() & b.terms.keys()
    re_parts = [
        (a.input_coeff.conjugate() * b.input_coeff).real * in_model.variance(axis)
    ]
    re_parts.extend((a.terms[k].conjugate() * b.terms[k]).real for k in shared)
    return math.fsum(re_parts)


def commutator_pairing(x: QuadExpansion, p: QuadExpansion) -> complex:
    """Canonical pairing of an X-type and a P-type expansion.

    For x = ix*X_in + sum_m (a_m X_m + b_m P_m) and
    p = ip*P_in + sum_m (c_m X_m + d_m P_m) the pairing

        ix*conj(ip) + sum_m (a_m*conj(d_m) - b_m*conj(c_m))

    equals exactly 1 whenever (x, p) obey the canonical commutation
    relation of a single mode.  Protocol outputs must preserve it.
    """
    labels = x.labels() | p.labels()
    re = [(x.input_coeff * p.input_coeff.conjugate()).real]
    im = [(x.input_coeff * p.input_coeff.conjugate()).imag]
    for label in labels:
        a = x.coefficient(label, Axis.X)
        b = x.coefficient(label, Axis.P)
        c = p.coefficient(label, Axis.X)
        d = p.coefficient(label, Axis.P)
        contrib = a * d.conjugate() - b * c.conjugate()
        re.append(contrib.real)
        im.append(contrib.imag)
    return complex(math.fsum(re), math.fsum(im))


def split_re_im(e: QuadExpansion) -> tuple[QuadExpansion, QuadExpansion]:
    """Decompose a complex-coefficient expansion into Re and Im parts.

    A frequency component with complex coefficient c acting on mode m
    splits over the independent real components of m (each with half the
    vacuum variance, so the normalization per term is unchanged):

        Re(c z) = Re(c) Re(z) - Im(c) Im(z)
        Im(c z) = Im(c) Re(z) + Re(c) Im(z)

    The returned expansions use labels '<m>&re' / '<m>&im' and real
    coefficients; the input term splits the same way.
    """
    if e.input_coeff != 0:
        raise ValueError("split_re_im expects a signal-free expansion")
    re_terms: dict[TermKey, complex] = {}
    im_terms: dict[TermKey, complex] = {}
    for (label, axis), c in e.terms.items():
        re_terms[(label + "&re", axis)] = c.real
        re_terms[(label + "&im", axis)] = -c.imag
        im_terms[(label + "&re", axis)] = c.imag
        im_terms[(label + "&im", axis)] = c.real
    return QuadExpansion(0j, re_terms), QuadExpansion(0j, im_terms)
