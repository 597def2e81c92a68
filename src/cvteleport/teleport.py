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

from .epr import SqueezerSpectrum, _terms
from .linmode import Axis, InputModel, QuadExpansion, difference_variance

__all__ = [
    "BellDetector",
    "GainSchedule",
    "NonUnitGainWarning",
    "TeleportOutcome",
    "as_gain",
    "spectral_variance_tel_in",
    "teleport",
]


class NonUnitGainWarning(UserWarning):
    """The reported variance includes a gain-mismatch input term."""


@dataclass(frozen=True)
class GainSchedule:
    """Feedforward gain, constant or frequency dependent; always finite.

    Its kind follows from what it holds: a per-frequency fn, else the
    constant value, which is unit gain exactly when it equals 1.
    """

    value: complex = 1.0
    fn: Callable[[float], complex] | None = None

    def __post_init__(self) -> None:
        _check_finite(self.value)

    @classmethod
    def unit(cls) -> "GainSchedule":
        return cls(1.0)

    @classmethod
    def fixed(cls, value: complex) -> "GainSchedule":
        return cls(complex(value))

    @classmethod
    def per_frequency(cls, fn: Callable[[float], complex]) -> "GainSchedule":
        return cls(1.0, fn)

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
        if self.fn is not None:
            return "per-frequency"
        if self.value == 1:
            return "unit"
        return f"fixed:{self.value.real:g}" if self.value.imag == 0 else f"fixed:{self.value}"


def _check_finite(gain: complex) -> complex:
    if not cmath.isfinite(gain):
        raise ValueError(f"gain must be finite, got {gain}")
    return gain


def as_gain(gain: "GainSchedule | complex | float") -> GainSchedule:
    if isinstance(gain, GainSchedule):
        return gain
    g = complex(gain)
    return _UNIT_GAIN if g == 1 else GainSchedule.fixed(g)


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


# The default setting of every teleport, sweep and report, and the setting
# a swap is verified in: unit gain, ideal detectors, a coherent input.  All
# three are frozen, so one instance of each serves every caller.
_UNIT_GAIN = GainSchedule.unit()
_IDEAL_DETECTOR = BellDetector(1.0)
_COHERENT = InputModel.coherent()


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
    gain: GainSchedule | complex = _UNIT_GAIN,
    detector: BellDetector = _IDEAL_DETECTOR,
    omega: float = 0.0,
) -> TeleportOutcome:
    """Run the pipeline against one source at one frequency.

    The EPR noise enters through the source's port decomposition; each port
    contributes (second - gain*first) on X and (second + gain*first) on P,
    with exact-zero weights suppressing the (possibly infinite) amplitude.
    Any finite omega is taken; one that is not finite raises ValueError
    before any source is evaluated.
    """
    _check_frequency(omega)
    g = as_gain(gain).at(omega)
    x_terms, p_terms = _terms(src, omega, (-g, 1), (g, 1))
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


def _check_frequency(omega: float) -> None:
    # The rule of every single-frequency pipeline (teleport, and a swap's
    # outcomes): a nan or infinite omega would fill the outcome with nan
    # coefficients.  Sweeps and reports also bound it (see
    # criteria._check_omega).
    if not math.isfinite(omega):
        raise ValueError(f"omega: {omega} is not a finite frequency")


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
