"""Closed-form references for every output the benchmark checks.

Written from the paper's formulas and sharing no code with the cvteleport
package, so a defect in the package cannot hide inside its own reference.
Frequencies here are dimensionless, omega = 2*Omega/(gamma+rho); the pump
is epsilon = 2*kappa/(gamma+rho) and the escape efficiency beta =
gamma/(gamma+rho).  Variances are in vacuum units (vacuum = 1).

The checkers compare numbers, never bytes: CSV comment lines ("# ...") and
extra columns or JSON keys are ignored, so added metadata stays harmless.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
# bandwidth() bisects to 1e-6 in omega and reports twice the midpoint.
WIDTH_TOL = 2e-6


class Mismatch(Exception):
    """An output disagrees with its reference."""


def close(got: float, want: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def expect(name: str, got: float, want: float, abs_tol: float = ABS_TOL) -> None:
    if not close(got, want, abs_tol):
        raise Mismatch(f"{name}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# Teleportation at unit gain


def teleport_variance(eps: float, beta: float, eta2: float, w: float) -> float:
    """V = 2(1 - 4*eps*beta/((1+eps)^2 + w^2)) + 2(1-eta2)/eta2, both axes."""
    return 2.0 * (1.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + w * w)) + 2.0 * (1.0 - eta2) / eta2


def teleport_fidelity(eps: float, beta: float, eta2: float, w: float) -> float:
    """F = [2 - 4*eps*beta/((1+eps)^2 + w^2) + (1-eta2)/eta2]^-1."""
    return 1.0 / (2.0 - 4.0 * eps * beta / ((1.0 + eps) ** 2 + w * w) + (1.0 - eta2) / eta2)


def teleport_bandwidth(eps: float, beta: float, eta2: float, threshold: float) -> float:
    """Full width where F >= threshold: 2*sqrt(4*eps*beta/(2+tau^2-1/F) - (1+eps)^2)."""
    tau2 = (1.0 - eta2) / eta2
    w2 = 4.0 * eps * beta / (2.0 + tau2 - 1.0 / threshold) - (1.0 + eps) ** 2
    return 2.0 * math.sqrt(w2) if w2 > 0 else 0.0


# ---------------------------------------------------------------------------
# Entanglement swapping, verified by a unit-gain teleportation


def nopa_amplitudes(eps: float, beta: float, w: float) -> tuple[complex, complex, complex, complex]:
    """(G, g, G_l, g_l) of a cavity with (gamma+rho)/2 = 1, pump eps, escape beta.

    With d = 1 - i*w and D = d^2 - eps^2: G = (eps^2 + (2*beta - d)*d)/D,
    g = 2*beta*eps/D, and the loss port adds 2*sqrt(beta*(1-beta))*(d, eps)/D.
    """
    d = complex(1.0, -w)
    den = d * d - eps * eps
    loss = 2.0 * math.sqrt(beta * (1.0 - beta))
    return (eps * eps + (2.0 * beta - d) * d) / den, 2.0 * beta * eps / den, loss * d / den, loss * eps / den


def _swap_spectra(eps: float, beta: float, w: float) -> tuple[float, float]:
    """A, B: noisy and quiet spectral magnitudes summed over two equal sources."""
    if beta == 1.0:
        noisy = 1.0 + 4.0 * eps / ((1.0 - eps) ** 2 + w * w)
        quiet = 1.0 - 4.0 * eps / ((1.0 + eps) ** 2 + w * w)
        return 2.0 * noisy, 2.0 * quiet
    big, small, _, _ = nopa_amplitudes(eps, beta, w)
    return 2.0 * abs(big + small) ** 2, 2.0 * abs(big - small) ** 2


def swap_variance(eps: float, beta: float, w: float, gain: float | None = None) -> float:
    """Verification error variance (both axes) after swapping two equal sources.

    gain None is the optimal swap gain (A-B)/(A+B).  Lossless sources use
    V = (g-1)^2 A/2 + (g+1)^2 B/2; lossy ones V = 2*sum |g*w2 - w1|^2 over the
    ports (G,g), (g,G), (G_l,g_l), (g_l,G_l).
    """
    a, b = _swap_spectra(eps, beta, w)
    g = (a - b) / (a + b) if gain is None else gain
    if beta == 1.0:
        return (g - 1.0) ** 2 * a / 2.0 + (g + 1.0) ** 2 * b / 2.0
    big, small, big_l, small_l = nopa_amplitudes(eps, beta, w)
    ports = ((big, small), (small, big), (big_l, small_l), (small_l, big_l))
    return 2.0 * sum(abs(g * w2 - w1) ** 2 for w1, w2 in ports)


def swap_fidelity(eps: float, beta: float, w: float, gain: float | None = None) -> float:
    """F = 2/(2+V), which for lossless sources is 1/(1+(g-1)^2 A/4+(g+1)^2 B/4)."""
    return 2.0 / (2.0 + swap_variance(eps, beta, w, gain))


def swap_bandwidth(eps: float, beta: float, threshold: float) -> float:
    """Full width where the optimal-gain swap fidelity stays >= threshold.

    The root of F(w) = threshold, bracketed by doubling and bisected to
    machine precision; the fidelity falls monotonically with |w|.
    """
    if swap_fidelity(eps, beta, 0.0) < threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    while swap_fidelity(eps, beta, hi) >= threshold:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if swap_fidelity(eps, beta, mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo + hi


# ---------------------------------------------------------------------------
# Output parsing


def parse_table(text: str, fmt: str) -> dict[str, list[float]]:
    """Columns of a spectrum table in CSV or JSON form, by column name."""
    if fmt == "json":
        payload = json.loads(text)
        return {k: [float(v) for v in payload[k]] for k in ("omega", "v_x", "v_p", "fidelity")}
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise Mismatch("empty table")
    names = [s.strip() for s in lines[0].split(",")]
    try:
        idx = {k: names.index(k) for k in ("omega", "v_x", "v_p", "fidelity")}
    except ValueError:
        raise Mismatch(f"table header lacks a required column: {lines[0]!r}") from None
    cols: dict[str, list[float]] = {k: [] for k in idx}
    for ln in lines[1:]:
        parts = ln.split(",")
        for k, i in idx.items():
            cols[k].append(float(parts[i]))
    return cols


def last_value(text: str) -> float:
    """The number on the last non-comment line (bandwidth output)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise Mismatch("no output")
    return float(lines[-1])
