"""Exact rational reference for the spectra, variances, fidelities and widths.

Every quantity the tests pin is a rational function of the float inputs
(epsilon, beta, omega, eta, gain): square roots such as sqrt(gamma*rho)
and tau enter only as squared magnitudes.  Each float converts to a
Fraction exactly, so these values carry no rounding at all, and a float
result can be compared with them in units of its own precision.  A
bandwidth is not rational; it is given as a bracket of Fractions around
the exact width, far narrower than a float's spacing.

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

    V+- = |S+-|^2 + L+-, the squeezed-port and loss-port powers of
    nopa_powers.
    """
    noisy, quiet, loss_noisy, loss_quiet = nopa_powers(epsilon, beta, omega)
    return (None if noisy is None else noisy + loss_noisy), quiet + loss_quiet


def nopa_powers(
    epsilon: float, beta: float, omega: float
) -> tuple[Fraction | None, Fraction, Fraction, Fraction]:
    """Exact (|S+|^2, |S-|^2, L+, L-) of a NOPA; |S+|^2 is None at threshold.

    With d = 1 - i*omega, kappa = epsilon, gamma = 2*beta, rho = 2 - gamma
    and D = d^2 - kappa^2: G = (kappa^2 + (gamma - d)*d)/D, g = kappa*gamma/D,
    and the loss port adds sqrt(gamma*rho)*(d, kappa)/D, so the squeezed
    ports carry |S+-|^2 = |G +- g|^2 and the loss ports L+- =
    gamma*rho*|d +- kappa|^2/|D|^2.
    """
    kappa = Cx(Fraction(epsilon))
    gamma = Cx(2 * Fraction(beta))
    d = Cx(Fraction(1), -Fraction(omega))
    den = d * d - kappa * kappa
    if den.abs2() == 0:
        return None, Fraction(0), Fraction(0), Fraction(0)  # threshold: |S+|^2 diverges
    big_g = (kappa * kappa + (gamma - d) * d) / den
    small_g = kappa * gamma / den
    gamma_rho = gamma.re * (2 - gamma.re)
    return (
        (big_g + small_g).abs2(),
        (big_g - small_g).abs2(),
        gamma_rho * (d + kappa).abs2() / den.abs2(),
        gamma_rho * (d - kappa).abs2() / den.abs2(),
    )


def optimal_gain(epsilon: float, beta: float, omega: float) -> Fraction:
    """Exact optimal swap gain of a NOPA swapped with itself.

    (A - B)/(A + B) over the squeezed-port powers A = |S+|^2, B = |S-|^2
    (the loss ports are left out, as the package does): 1 at threshold,
    where A diverges, and 0 where neither port carries power.
    """
    a, b, _, _ = nopa_powers(epsilon, beta, omega)
    if a is None:
        return Fraction(1)
    return Fraction(0) if a + b == 0 else (a - b) / (a + b)


def tau2(eta: float) -> Fraction:
    """Detector noise weight tau^2 = (1 - eta^2)/eta^2 for amplitude efficiency eta."""
    e2 = Fraction(eta) ** 2
    return (1 - e2) / e2


def teleport_variance(quiet: Fraction, eta: float) -> Fraction:
    """Unit-gain error variance per quadrature: 2*V- + 2*tau^2."""
    return 2 * quiet + 2 * tau2(eta)


def teleport_noise(
    noisy: Fraction | None, quiet: Fraction, eta: float, gain: complex
) -> Fraction | None:
    """Noise N per quadrature of a teleport at gain g, the same on both axes.

    N = (|1-g|^2 V+ + |1+g|^2 V-)/2 + 2|g|^2 tau^2; None where it diverges,
    at threshold (noisy None) under any gain but 1.
    """
    g, one = Cx.of(gain), Cx(Fraction(1))
    weight = (one - g).abs2()
    if noisy is None and weight != 0:
        return None
    noisy_term = 0 if weight == 0 else weight * noisy
    return (noisy_term + (one + g).abs2() * quiet) / 2 + 2 * g.abs2() * tau2(eta)


def channel(
    gain: complex, v_in: float, noise: Fraction
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(V_err, V_out, V_c, T) of one axis of the linear channel out = gain*in + noise.

    V_err = |1-g|^2 V_in + N, V_out = |g|^2 V_in + N, V_c = Im(g)^2 V_in + N
    and T = |g|^2 V_in/V_out (0 for a zero output).
    """
    g, v = Cx.of(gain), Fraction(v_in)
    out = g.abs2() * v + noise
    return (
        (Cx(Fraction(1)) - g).abs2() * v + noise,
        out,
        g.im * g.im * v + noise,
        g.abs2() * v / out if out else Fraction(0),
    )


def teleport_fidelity(quiet: Fraction, eta: float) -> Fraction:
    """Unit-gain coherent-state fidelity 1/(1 + V- + tau^2)."""
    return 1 / (1 + quiet + tau2(eta))


def swap_fidelity(noisy: Fraction | None, quiet: Fraction, gain: complex | Fraction) -> Fraction:
    """Verification fidelity 1/(1 + |g-1|^2 A/4 + |g+1|^2 B/4) for summed spectra A, B.

    A None is an infinite A (a source at threshold): its term is 0 at
    gain 1, and F is 0 at any other gain.
    """
    g, one = Cx(gain) if isinstance(gain, Fraction) else Cx.of(gain), Cx(Fraction(1))
    weight = (g - one).abs2()
    if noisy is None:
        if weight:
            return Fraction(0)
        noisy = Fraction(0)
    return 1 / (1 + weight * noisy / 4 + (g + one).abs2() * quiet / 4)


def teleport_width(epsilon: float, beta: float, eta: float, threshold: float) -> tuple[Fraction, Fraction]:
    """Bracket of the full width where a NOPA's unit-gain teleport keeps F >= threshold.

    F = 1/(1 + V- + tau^2) >= threshold while omega^2 <= 4*epsilon*beta/(2 +
    tau^2 - 1/threshold) - (1 + epsilon)^2, which is rational in the float
    inputs, so only the square root of the width's square is bracketed.
    """
    e, t = Fraction(epsilon), Fraction(threshold)
    square = 4 * (4 * e * Fraction(beta) / (2 + tau2(eta) - 1 / t) - (1 + e) ** 2)
    if not square > 0:
        raise ValueError("the fidelity is below threshold at omega = 0 or never drops below it")
    return _root(square)


def _root(square: Fraction) -> tuple[Fraction, Fraction]:
    # sqrt(n/d) = sqrt(n*d)/d between integer square roots of n*d*4^k, k
    # chosen so that the bracket is narrower than 2^-100 of the root.
    n, d = square.numerator, square.denominator
    k = max(0, 101 - (n * d).bit_length() // 2)
    s = math.isqrt(n * d * 4**k)
    return Fraction(s, d * 2**k), Fraction(s + 1, d * 2**k)


def swap_width(
    epsilon: float, beta: float, threshold: float, gain: float | None = None
) -> tuple[Fraction, Fraction]:
    """Bracket of the full width where swapping a NOPA with itself keeps F >= threshold.

    The verification fidelity swap_fidelity over the summed spectra A = 2V+,
    B = 2V- at the gain given, or at each frequency's optimal_gain (None).
    The first frequency past which it is below threshold is bracketed by
    doubling from 1, then bisected on exact values to 2^-64 of itself;
    F(0) must be at least the threshold.
    """
    t = Fraction(threshold)

    def above(omega: Fraction) -> bool:
        noisy, quiet = nopa_spectra(epsilon, beta, omega)
        g = optimal_gain(epsilon, beta, omega) if gain is None else gain
        return swap_fidelity(None if noisy is None else 2 * noisy, 2 * quiet, g) >= t

    lo, hi = Fraction(0), Fraction(1)
    if not above(lo):
        raise ValueError("the fidelity is below threshold at omega = 0")
    while above(hi):
        if hi > 2**64:
            raise ValueError("the fidelity never drops below threshold")
        lo, hi = hi, 2 * hi
    while hi - lo > hi / 2**64:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 2 * lo, 2 * hi


def bracket_ulps(got: float, bracket: tuple[Fraction, Fraction]) -> float:
    """How far got lies outside an exact bracket, in units of ULP*max(1, |lo|); 0 inside."""
    lo, hi = bracket
    x = Fraction(got)
    return float(max(lo - x, x - hi, Fraction(0)) / max(Fraction(1), abs(lo))) / ULP


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
