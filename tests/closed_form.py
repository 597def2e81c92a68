"""The NOPA teleporter's unit-gain error variance and fidelity in closed form.

A second, float statement of V = 2*(V- + tau^2) and F = 1/(1 + V- + tau^2),
written in the NOPA's own parameters, that the tests hold the package's
spectra against.
"""

from __future__ import annotations


def nopa_fidelity_spectrum(
    epsilon: float, omega: float, beta: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form unit-gain coherent-state fidelity of a NOPA teleporter.

    F = [2 - 4*eps*beta/((1+eps)^2 + omega^2) + (1-eta^2)/eta^2]^-1.
    Exactly 1/2 at epsilon = 0 (the classical boundary) and exactly 1 at
    epsilon = 1, omega = 0, beta = eta = 1.
    """
    a = (1.0 + epsilon) ** 2 + omega * omega
    return 1.0 / (2.0 - 4.0 * epsilon * beta / a + (1.0 - eta * eta) / (eta * eta))


def nopa_error_variance(
    epsilon: float, omega: float, beta: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form unit-gain error variance of a NOPA teleporter, per quadrature.

    V = 2*(1 - 4*eps*beta/((1+eps)^2 + omega^2)) + 2*(1-eta^2)/eta^2, for
    any input (the input cancels at unit gain): twice the quiet spectrum
    plus twice the detector noise.
    """
    quiet = 1.0 - 4.0 * epsilon * beta / ((1.0 + epsilon) ** 2 + omega * omega)
    return 2.0 * quiet + 2.0 * (1.0 - eta * eta) / (eta * eta)
