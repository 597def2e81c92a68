"""The NOPA teleporter's unit-gain fidelity as the textbook closed form.

A second, float statement of F = 1/(1 + V- + tau^2), written in the NOPA's
own parameters, that the tests hold the package's spectra against.
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
