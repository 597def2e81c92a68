"""References the tests hold the package against, built on expansions or samples.

Each computes a quantity the package gets another way: the cavity's
input-output map at physical rates (for the sources' amplitudes), the
Bogoliubov identity of a transfer pair, the beamsplitter that decouples
an EPR pair, the swapped-pair EPR variances built portwise (for the
verification teleport), the conditional variances and transfer
coefficients on expansions (for the criteria report), and a shot-by-shot
sampler of the zero-bandwidth protocol (for the covariance route).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from cvteleport.epr import NopaParams, TransferPair, _ports
from cvteleport.linmode import (
    Axis,
    InputModel,
    QuadExpansion,
    combine,
    covariance,
    normalized_variance,
    unit_input,
)
from cvteleport.oracle import McConfig, _bell_splitter, _initial_state
from cvteleport.swap import SwapConfig, _SwappedPair

COHERENT = InputModel.coherent()


def nopa_transfer(
    params: NopaParams, big_omega: float
) -> tuple[complex, complex, complex, complex]:
    """Input-output amplitudes of a parametric cavity at physical frequency.

    Returns (G, g, G_loss, g_loss): the main-port direct and conjugate
    amplitudes and their loss-port counterparts.  With rho = 0 the loss
    amplitudes vanish and (G, g) reduce to the ideal-cavity forms.
    """
    kappa, gamma, rho = params.kappa, params.gamma, params.rho
    d = complex((gamma + rho) / 2, -big_omega)
    den = d * d - kappa * kappa
    big_g = (kappa * kappa + (gamma - d) * d) / den
    small_g = kappa * gamma / den
    loss = math.sqrt(gamma * rho)
    return big_g, small_g, loss * d / den, kappa * loss / den


def bogoliubov_defect(pair: TransferPair) -> float:
    """Re(S+ conj(S-)) + Re(L+ conj(L-)) - 1; zero for any physical squeezer."""
    squeezed = (pair.s_plus * pair.s_minus.conjugate()).real
    return squeezed + (pair.l_plus * pair.l_minus.conjugate()).real - 1.0


def couple_modes(a: QuadExpansion, b: QuadExpansion) -> tuple[QuadExpansion, QuadExpansion]:
    """Balanced beamsplitter on two mode expansions: ((a+b), (a-b))/sqrt(2).

    Self-inverse, which is what decouples an EPR pair back into its two
    independent squeezers.
    """
    h = math.sqrt(0.5)
    return combine(a, b, h, h), combine(a, b, h, -h)


def swapped_epr_variances(cfg: SwapConfig, omega: float) -> tuple[float, float]:
    """Variances of the swapped-pair EPR operators X_1 - X_4' and P_1 + P_4'.

    Normalized so two uncorrelated vacua give 2; anything below 2 certifies
    entanglement between the never-interacting modes 1 and 4'.  Built
    portwise with its own weights, not through the resource, so it is an
    independent reference for the verification teleportation.
    """
    gs = _SwappedPair(cfg, omega).gain
    terms: dict[Axis, dict] = {Axis.X: {}, Axis.P: {}}
    for tag, source, x_weights, p_weights in (
        ("ab", cfg.source_ab, (1, -gs), (1, gs)),
        ("cd", cfg.source_cd, (gs, -1), (gs, 1)),
    ):
        for slot, axis, w, amplitude in _ports(source.pair(omega), x_weights, p_weights):
            with np.errstate(invalid="ignore", over="ignore"):  # 0*inf goes to the where
                terms[axis][f"{tag}{slot}", axis] = np.where(w == 0, 0, w * amplitude)
    return (
        normalized_variance(QuadExpansion(0j, terms[Axis.X]), COHERENT, Axis.X),
        normalized_variance(QuadExpansion(0j, terms[Axis.P]), COHERENT, Axis.P),
    )


class RalphLamResult(NamedTuple):
    """Conditional variances and transfer coefficients, per axis."""

    v_c_x: float
    v_c_p: float
    t_x: float
    t_p: float

    @property
    def conditional_sum(self) -> float:
        return self.v_c_x + self.v_c_p

    @property
    def transfer_sum(self) -> float:
        return self.t_x + self.t_p


def ralph_lam(
    out_x: QuadExpansion, out_p: QuadExpansion, in_model: InputModel
) -> RalphLamResult:
    """Conditional variance V_c and transfer coefficient T for both axes.

    V_c = V_out * (1 - C^2/(V_out*V_in)) with C the in-out covariance;
    T is the SNR ratio, which for a linear channel reduces to the
    amplitude-independent |gain|^2 * V_in / V_out.  Classical channels obey
    V_c_x + V_c_p >= 2 and T_x + T_p <= 1; beating either needs entanglement,
    beating both needs more than 3 dB of squeezing.

    Zero output variance only happens when the channel output is the
    (unnormalizable) zero operator; V_c and T are then defined as 0.
    """
    values: list[float] = []
    probe = unit_input()
    for out, axis in ((out_x, Axis.X), (out_p, Axis.P)):
        v_in = in_model.variance(axis)
        v_out = normalized_variance(out, in_model, axis)
        if v_out == 0.0:
            values += [0.0, 0.0]
            continue
        c = covariance(out, probe, in_model, axis)
        v_c = v_out - c * c / v_in
        t = abs(out.input_coeff) ** 2 * v_in / v_out
        values += [v_c, t]
    return RalphLamResult(values[0], values[2], values[1], values[3])


def sample_teleport_outcomes(
    r: float, gain: float, alpha: complex, cfg: McConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Shot-by-shot zero-bandwidth protocol; returns sample mean and cov.

    Every run draws the full initial Gaussian, reads the two homodyne
    values off the transformed sample, and applies the displacement those
    values dictate; no analytic averaging anywhere.  It starts from the
    package's _initial_state, so |r| above 7.5 raises ValueError, as for
    covariance_teleport.
    """
    mean0, cov0 = _initial_state(r, alpha)
    chol = np.linalg.cholesky(cov0 + np.eye(6) * 1e-30)
    m = _bell_splitter()
    rng = np.random.default_rng(cfg.seed)
    n_left = cfg.sample_count
    s1 = np.zeros(2)
    s2 = np.zeros((2, 2))
    scale = math.sqrt(2.0) * gain
    while n_left > 0:
        n = min(n_left, 1 << 16)
        z = rng.standard_normal((n, 6))
        v = (z @ chol.T + mean0) @ m.T
        x_out = v[:, 4] + scale * v[:, 0]
        p_out = v[:, 5] + scale * v[:, 3]
        out = np.stack([x_out, p_out], axis=1)
        s1 += out.sum(axis=0)
        s2 += out.T @ out
        n_left -= n
    n_tot = cfg.sample_count
    mean = s1 / n_tot
    cov = (s2 - n_tot * np.outer(mean, mean)) / (n_tot - 1)
    return mean, cov
