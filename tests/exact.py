"""Exact rational reference for the spectra, variances and fidelities.

Every quantity the tests pin is a rational function of the float inputs
(epsilon, beta, omega, eta, gain): square roots such as sqrt(gamma*rho)
and tau enter only as squared magnitudes.  Each float converts to a
Fraction exactly, so these values carry no rounding at all, and a float
result can be compared with them in units of its own precision.

The source amplitudes are rebuilt from the cavity's b-basis input-output
map (the same formulas as nopa_transfer in references.py), not from the
noisy/quiet closed forms the package uses, so the two share no algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ULP = 2.0 ** -52  # spacing of floats in [1, 2)
# The least magnitude that rounds to inf: the largest float plus half its spacing.
OVERFLOW = Fraction(2**1024 - 2**970)


@dataclass(frozen=True)
class Cx:
    """A complex number as a pair of Fractions."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, z: complex | float) -> "Cx":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, o: "Cx") -> "Cx":
        return Cx(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "Cx") -> "Cx":
        return Cx(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "Cx") -> "Cx":
        return Cx(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o: "Cx") -> "Cx":
        den = o.abs2()
        return Cx(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def nopa_spectra(epsilon: float, beta: float, omega: float) -> tuple[Fraction | None, Fraction]:
    """Exact (V+, V-) of a NOPA at the scale gamma + rho = 2; V+ is None at threshold.

    With d = 1 - i*omega, kappa = epsilon, gamma = 2*beta, rho = 2 - gamma
    and D = d^2 - kappa^2: G = (kappa^2 + (gamma - d)*d)/D, g = kappa*gamma/D,
    and the loss port adds sqrt(gamma*rho)*(d, kappa)/D, so
    V+- = |G +- g|^2 + gamma*rho*|d +- kappa|^2/|D|^2.
    """
    kappa = Cx(Fraction(epsilon))
    gamma = Cx(2 * Fraction(beta))
    d = Cx(Fraction(1), -Fraction(omega))
    den = d * d - kappa * kappa
    if den.abs2() == 0:
        return None, Fraction(0)  # threshold: the noisy spectrum diverges
    big_g = (kappa * kappa + (gamma - d) * d) / den
    small_g = kappa * gamma / den
    gamma_rho = gamma.re * (2 - gamma.re)
    noisy = (big_g + small_g).abs2() + gamma_rho * (d + kappa).abs2() / den.abs2()
    quiet = (big_g - small_g).abs2() + gamma_rho * (d - kappa).abs2() / den.abs2()
    return noisy, quiet


def tau2(eta: float) -> Fraction:
    """Detector noise weight tau^2 = (1 - eta^2)/eta^2 for amplitude efficiency eta."""
    e2 = Fraction(eta) ** 2
    return (1 - e2) / e2


def teleport_variance(quiet: Fraction, eta: float) -> Fraction:
    """Unit-gain error variance per quadrature: 2*V- + 2*tau^2."""
    return 2 * quiet + 2 * tau2(eta)


def teleport_fidelity(quiet: Fraction, eta: float) -> Fraction:
    """Unit-gain coherent-state fidelity 1/(1 + V- + tau^2)."""
    return 1 / (1 + quiet + tau2(eta))


def swap_fidelity(noisy: Fraction, quiet: Fraction, gain: complex) -> Fraction:
    """Verification fidelity 1/(1 + |g-1|^2 A/4 + |g+1|^2 B/4) for summed spectra A, B."""
    g, one = Cx.of(gain), Cx(Fraction(1))
    return 1 / (1 + (g - one).abs2() * noisy / 4 + (g + one).abs2() * quiet / 4)


def ulps(got: float, want: Fraction) -> float:
    """|got - want| in units of ULP*max(1, |want|).

    Quantities of the form 1 +- x carry absolute roundoff of order ULP even
    where they are small, so the unit never drops below ULP.  An exact value
    past the float range correctly rounds to an infinity of its sign, which
    is then 0 ulps off.
    """
    if not math.isfinite(got):
        return 0.0 if abs(want) >= OVERFLOW and got == (math.inf if want > 0 else -math.inf) else math.inf
    return float(abs(Fraction(got) - want) / max(Fraction(1), abs(want))) / ULP
