"""Teleportation pipeline: Bell splitting, feedforward, gain and detector loss.

The sender splits the signal with one EPR mode on a balanced beamsplitter
and homodynes X of one output and P of the other; the receiver displaces the
second EPR mode by the scaled photocurrents.  Because every step is linear,
the measured quadratures cancel symbolically and the teleported field is a
closed-form expansion:

    x_tel = gain*(x_in - X_1) + X_2 + gain*tau*(x_D + x_E)
    p_tel = gain*(p_in + P_1) + P_2 + gain*tau*(p_F + p_G)

with tau = sqrt(1 - eta^2)/eta for detector amplitude efficiency eta (four
independent detector vacua enter, two per measured current).  At unit gain
the noisy EPR components cancel exactly and only the quiet ones remain.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .epr import SqueezerSpectrum, ZeroBandwidth, _tables
from .linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    combine,
    difference_variance,
    normalized_variance,
    split_re_im,
    unit_input,
)

__all__ = [
    "BellDetector",
    "GainSchedule",
    "NonUnitGainWarning",
    "TeleportOutcome",
    "as_gain",
    "nopa_variance_spectrum",
    "re_im_variances",
    "spectral_variance_tel_in",
    "teleport",
    "teleport_single_mode",
]


class NonUnitGainWarning(UserWarning):
    """The reported variance includes a gain-mismatch input term."""


@dataclass(frozen=True)
class GainSchedule:
    """Feedforward gain, constant or frequency dependent; always finite."""

    kind: str = "unit"
    value: complex = 1.0
    fn: Callable[[float], complex] | None = None

    def __post_init__(self) -> None:
        _check_finite(self.value)

    @classmethod
    def unit(cls) -> "GainSchedule":
        return cls("unit", 1.0, None)

    @classmethod
    def fixed(cls, value: complex) -> "GainSchedule":
        return cls("fixed", complex(value), None)

    @classmethod
    def per_frequency(cls, fn: Callable[[float], complex]) -> "GainSchedule":
        return cls("per-frequency", 1.0, fn)

    def at(self, omega: float | np.ndarray) -> complex | np.ndarray:
        """The gain at omega; over a frequency array, the array of gains.

        A constant gain stays one number on any grid (it was checked when
        the schedule was built); a per-frequency fn is called once per point.
        """
        if self.fn is None:
            return self.value
        if np.ndim(omega) == 0:
            return _check_finite(complex(self.fn(omega)))
        return np.array([self.at(w) for w in np.asarray(omega).tolist()], dtype=complex)

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.value.real:g}" if self.value.imag == 0 else f"fixed:{self.value}"
        return self.kind


def _check_finite(gain: complex) -> complex:
    if not cmath.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    return gain


def as_gain(gain: "GainSchedule | complex | float") -> GainSchedule:
    if isinstance(gain, GainSchedule):
        return gain
    g = complex(gain)
    return GainSchedule.unit() if g == 1 else GainSchedule.fixed(g)


@dataclass(frozen=True)
class BellDetector:
    """Homodyne detector pair with common amplitude efficiency eta."""

    eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("detector amplitude efficiency eta must lie in (0, 1]")

    @classmethod
    def from_efficiency(cls, eta_squared: float) -> "BellDetector":
        """Build from the quoted intensity efficiency eta^2."""
        if not 0.0 < eta_squared <= 1.0:
            raise ValueError("eta^2 must lie in (0, 1]")
        return cls(math.sqrt(eta_squared))

    @property
    def excess(self) -> float:
        """tau = sqrt(1 - eta^2)/eta, the detector vacuum weight."""
        return math.sqrt(1.0 - self.eta ** 2) / self.eta


@dataclass(frozen=True)
class TeleportOutcome:
    """Teleported quadratures at one frequency, plus run metadata."""

    x_tel: QuadExpansion
    p_tel: QuadExpansion
    omega: float
    gain: complex
    eta: float
    source: str


# Detector vacuum labels: two per measured photocurrent.
_DET_X = ("det_d", "det_e")
_DET_P = ("det_f", "det_g")


def teleport(
    src: SqueezerSpectrum,
    gain: GainSchedule | complex = GainSchedule.unit(),
    detector: BellDetector = BellDetector(1.0),
    omega: float = 0.0,
) -> TeleportOutcome:
    """Run the pipeline against one source at one frequency.

    The EPR noise enters through the source's port decomposition; each port
    contributes (second - gain*first) on X and (second + gain*first) on P,
    with exact-zero weights suppressing the (possibly infinite) amplitude.
    """
    g = as_gain(gain).at(omega)
    x_terms, p_terms = _tables(src._project_modes(omega, (-g, 1), (g, 1)))
    if detector.eta < 1.0:
        c = g * detector.excess
        for label in _DET_X:
            x_terms[(label, Axis.X)] = c
        for label in _DET_P:
            p_terms[(label, Axis.P)] = c
    return TeleportOutcome(
        x_tel=QuadExpansion(g, x_terms),
        p_tel=QuadExpansion(g, p_terms),
        omega=omega,
        gain=g,
        eta=detector.eta,
        source=src.describe(),
    )


def teleport_single_mode(
    r: float,
    gain: GainSchedule | complex = 1.0,
    eta: float = 1.0,
) -> TeleportOutcome:
    """Zero-bandwidth specialization: flat squeezer evaluated at omega = 0."""
    return teleport(ZeroBandwidth(r), gain, BellDetector(eta), 0.0)


def spectral_variance_tel_in(
    outcome: TeleportOutcome, in_model: InputModel
) -> tuple[float, float]:
    """Normalized variances of (out - in) on both axes.

    Meaningful as the teleportation error spectrum at unit gain; any other
    gain leaves a (gain-1)^2 input term in the result, which is reported but
    flagged with NonUnitGainWarning.
    """
    if outcome.gain != 1:
        warnings.warn(
            "variance at nonunit gain includes the (gain-1)^2 input term and "
            "is not an error spectrum",
            NonUnitGainWarning,
            stacklevel=2,
        )
    return (
        difference_variance(outcome.x_tel, in_model, Axis.X),
        difference_variance(outcome.p_tel, in_model, Axis.P),
    )


def re_im_variances(
    outcome: TeleportOutcome, in_model: InputModel
) -> tuple[float, float, float, float]:
    """Error variances via the real/imaginary component decomposition.

    Each frequency component splits into independent Re and Im vacuum parts
    (half the variance each, so per-term normalization is unchanged).  The
    four results are checked against the direct complex-path values; the
    decomposition only exists for unit gain, where the signal drops out of
    the difference.
    """
    if outcome.gain != 1:
        raise ValueError("re/im decomposition requires unit gain")
    results: list[float] = []
    for expansion, axis in ((outcome.x_tel, Axis.X), (outcome.p_tel, Axis.P)):
        diff = combine(expansion, unit_input(), 1.0, -1.0)
        direct = normalized_variance(diff, in_model, axis)
        for part in split_re_im(diff):
            v = normalized_variance(part, in_model, axis)
            if not abs(v - direct) <= 1e-12 * max(1.0, abs(direct)):
                raise AssertionError("re/im path disagrees with complex path")
            results.append(v)
    vrx, vix, vrp, vip = results
    return vrx, vix, vrp, vip


def nopa_variance_spectrum(
    epsilon: float, omega: float, beta: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form unit-gain error variance of a NOPA-fed teleporter.

    2*(1 - 4*epsilon*beta/((1+epsilon)^2 + omega^2)) + 2*(1-eta^2)/eta^2,
    per quadrature, for coherent or any other input (the input cancels at
    unit gain).
    """
    quiet = 1.0 - 4.0 * epsilon * beta / ((1.0 + epsilon) ** 2 + omega * omega)
    return 2.0 * quiet + 2.0 * (1.0 - eta * eta) / (eta * eta)
