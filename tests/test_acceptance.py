"""Acceptance gate: quoted operating numbers at their stated tolerances.

Each criterion prints one PASS/FAIL line outside pytest's capture (so the
gate is readable in any run mode) and then asserts, so a red gate names
exactly what moved and by how much.
"""

import math
import random

from classical import OBJECTIVES, grid_search_classical, optimize_classical
from cvteleport.criteria import bandwidth, fidelity_spectrum, teleport_fidelity
from cvteleport.epr import Nopa, ZeroBandwidth
from cvteleport.linmode import Axis, InputModel, combine, commutator_pairing, unit_input
from cvteleport.oracle import (
    McConfig,
    covariance_teleport,
    fidelity_to_coherent,
    mc_check,
)
from cvteleport.swap import (
    SwapConfig,
    optimal_gain,
    swap_fidelity,
    swap_once,
    swap_spectrum,
    verification_teleport,
)
from cvteleport.teleport import (
    BellDetector,
    spectral_variance_tel_in,
    teleport,
)

COHERENT = InputModel.coherent()
EPS_GRID = (0.1, 0.2, 0.4, 0.6, 1.0)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d}: {status} | {detail}", flush=True)


def test_criterion_01_lossy_operating_point(capsys):
    out = teleport(
        Nopa(0.77, 0.9),
        detector=BellDetector.from_efficiency(0.97),
        omega=0.56,
    )
    v_x, v_p = spectral_variance_tel_in(out, COHERENT)
    f = teleport_fidelity(out).fidelity
    ok = (
        abs(v_x - 0.453) <= 1e-3
        and abs(v_p - 0.453) <= 1e-3
        and abs(f - 0.815) <= 1e-3
    )
    _report(
        capsys,
        1,
        ok,
        f"V_tel,in=({v_x:.6f}, {v_p:.6f}) vs 0.453+-0.001, F={f:.6f} vs 0.815+-0.001",
    )
    assert ok


def test_criterion_02_zero_frequency_fidelity_maxima(capsys):
    targets = (0.60, 0.69, 0.84, 0.94, 1.00)
    got = tuple(teleport_fidelity(teleport(Nopa(e))).fidelity for e in EPS_GRID)
    ok = all(abs(g - t) <= 0.005 for g, t in zip(got, targets))
    pairs = ", ".join(f"{g:.4f}/{t:.2f}" for g, t in zip(got, targets))
    _report(capsys, 2, ok, f"F(omega=0) got/target: {pairs} (+-0.005)")
    assert ok


def test_criterion_03_teleportation_bandwidths(capsys):
    targets = (5.8, 8.6, 12.4, 15.2, 19.6)
    grid = [0.25 * i for i in range(45)]  # 0 .. 11 brackets every crossing
    got = tuple(
        bandwidth(fidelity_spectrum(Nopa(e), grid), 0.51) for e in EPS_GRID
    )
    ok = all(abs(g - t) <= 0.3 for g, t in zip(got, targets))
    pairs = ", ".join(f"{g:.3f}/{t}" for g, t in zip(got, targets))
    _report(capsys, 3, ok, f"width at F=0.51 got/target: {pairs} (+-0.3)")
    assert ok


def test_criterion_04_swap_maxima_and_bandwidths(capsys):
    f_targets = (0.52, 0.57, 0.74, 0.89, 1.00)
    w_targets = (1.2, 2.6, 4.2, 5.2, 6.8)
    grid = [0.1 * i for i in range(41)]  # 0 .. 4
    f_got, w_got = [], []
    for e in EPS_GRID:
        cfg = SwapConfig(Nopa(e))
        f_got.append(swap_fidelity(cfg, 0.0))
        w_got.append(bandwidth(swap_spectrum(cfg, grid), 0.51))
    ok_f = all(abs(g - t) <= 0.005 for g, t in zip(f_got, f_targets))
    ok_w = all(abs(g - t) <= 0.3 for g, t in zip(w_got, w_targets))
    f_pairs = ", ".join(f"{g:.4f}/{t:.2f}" for g, t in zip(f_got, f_targets))
    w_pairs = ", ".join(f"{g:.3f}/{t}" for g, t in zip(w_got, w_targets))
    _report(capsys, 4, ok_f and ok_w, f"F_max {f_pairs} (+-0.005); width {w_pairs} (+-0.3)")
    assert ok_f and ok_w


def test_criterion_05_classical_optima_are_exact(capsys):
    _, v_prod = optimize_classical(COHERENT, "product")
    _, v_out = optimize_classical(COHERENT, "out_product")
    exact = abs(v_prod - 4.0) <= 1e-9 and abs(v_out - 9.0) <= 1e-9
    never_lower = True
    for model in (COHERENT, InputModel.squeezed(1.7)):
        for objective in OBJECTIVES:
            _, closed = optimize_classical(model, objective)
            _, gridded = grid_search_classical(model, objective, points=61)
            never_lower = never_lower and gridded >= closed - 1e-9
    ok = exact and never_lower
    _report(
        capsys,
        5,
        ok,
        f"product={v_prod:.12f} vs 4, out_product={v_out:.12f} vs 9 (+-1e-9); "
        f"grid search never below the closed optimum: {never_lower}",
    )
    assert ok


def test_criterion_06_lossless_closed_forms(capsys):
    rng = random.Random(106)
    worst_v = worst_f = 0.0
    for _ in range(200):
        e = rng.uniform(0.0, 0.98)
        w = rng.uniform(0.0, 5.0)
        out = teleport(Nopa(e), omega=w)
        v_x, v_p = spectral_variance_tel_in(out, COHERENT)
        _, quiet = Nopa(e).variances(w)
        f = teleport_fidelity(out).fidelity
        worst_v = max(worst_v, abs(v_x - 2.0 * quiet), abs(v_p - 2.0 * quiet))
        worst_f = max(worst_f, abs(f - 1.0 / (1.0 + quiet)))
    ok = worst_v <= 1e-12 and worst_f <= 1e-12
    _report(
        capsys,
        6,
        ok,
        f"200 draws: max |V - 2|S-|^2| = {worst_v:.2e}, "
        f"max |F - 1/(1+|S-|^2)| = {worst_f:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_07_swap_gain_optimality(capsys):
    rng = random.Random(107)
    scan = [-1.0 + 2.5 * k / 999 for k in range(1000)]
    beaten = True
    agree = True
    worst_tanh = 0.0
    for _ in range(50):
        e = rng.uniform(0.05, 0.95)
        w = rng.uniform(0.0, 4.0)
        src = Nopa(e)
        gs = optimal_gain(src.pair(w).powers())
        noisy, quiet = Nopa(e).variances(w)
        a2, b2 = 2.0 * noisy, 2.0 * quiet

        def closed(g):
            return 1.0 / (1.0 + (g - 1.0) ** 2 * a2 / 4.0 + (g + 1.0) ** 2 * b2 / 4.0)

        f_opt = swap_fidelity(SwapConfig(src), w)
        agree = agree and abs(f_opt - closed(gs)) <= 1e-12
        beaten = beaten and all(f_opt >= closed(g) - 1e-12 for g in scan)
        worst_tanh = max(worst_tanh, abs(gs - math.tanh(math.log(noisy))))
    ok = beaten and agree and worst_tanh <= 1e-12
    _report(
        capsys,
        7,
        ok,
        f"50 draws x 1000-point gain scan never beats the optimum: {beaten}; "
        f"max |gain - tanh 2r| = {worst_tanh:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_08_canonical_commutators(capsys):
    rng = random.Random(108)
    worst = 0.0
    for _ in range(300):
        if rng.random() < 0.5:
            src = Nopa(rng.uniform(0.0, 0.95))
        else:
            src = Nopa(rng.uniform(0.0, 0.95), rng.uniform(0.55, 1.0))
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.6, 1.0)
        gain = complex(rng.uniform(-0.5, 2.0))
        out = teleport(src, gain, BellDetector(eta), rng.uniform(0.0, 4.0))
        worst = max(worst, abs(commutator_pairing(out.x_tel, out.p_tel) - 1.0))
    for _ in range(100):
        if rng.random() < 0.5:
            src = Nopa(rng.uniform(0.0, 0.95))
        else:
            src = Nopa(rng.uniform(0.0, 0.95), rng.uniform(0.55, 1.0))
        gain = None if rng.random() < 0.5 else rng.uniform(-0.5, 1.5)
        cfg = SwapConfig(src, gain=gain)
        out = swap_once(cfg, rng.uniform(0.0, 4.0))
        worst = max(worst, abs(commutator_pairing(out.x4p, out.p4p) - 1.0))
        ver = verification_teleport(cfg, rng.uniform(0.0, 4.0))
        worst = max(worst, abs(commutator_pairing(ver.x_tel, ver.p_tel) - 1.0))
    ok = worst <= 1e-12
    _report(
        capsys, 8, ok, f"500 teleport/swap outputs: max |[x, p] - 1| = {worst:.2e} (<= 1e-12)"
    )
    assert ok


def test_criterion_09_independent_oracles(capsys):
    rng = random.Random(109)
    worst_gauss = 0.0
    for _ in range(50):
        r = rng.uniform(0.0, 3.0)
        g = rng.uniform(0.0, 2.0)
        mag, phase = rng.uniform(0.0, 5.0), rng.uniform(0.0, 2.0 * math.pi)
        alpha = mag * complex(math.cos(phase), math.sin(phase))
        oracle_f = fidelity_to_coherent(covariance_teleport(r, g, alpha), alpha)
        sym_f = teleport_fidelity(teleport(ZeroBandwidth(r), g), alpha=alpha).fidelity
        worst_gauss = max(worst_gauss, abs(oracle_f - sym_f))
    gauss_ok = worst_gauss <= 1e-9

    out = teleport(Nopa(0.5), omega=1.0)
    report = mc_check(
        [
            ("x_err", combine(out.x_tel, unit_input(), 1.0, -1.0), Axis.X),
            ("p_err", combine(out.p_tel, unit_input(), 1.0, -1.0), Axis.P),
        ],
        COHERENT,
        McConfig(sample_count=1_000_000, seed=0),
    )
    want = 2.0 * Nopa(0.5).variances(1.0)[1]
    mc_ok = report.all_ok and all(abs(r.analytic - want) <= 1e-12 for r in report.rows)
    pulls = ", ".join(
        f"{r.name}={(r.estimate - r.analytic) / r.se:+.2f}se" for r in report.rows
    )
    ok = gauss_ok and mc_ok
    _report(
        capsys,
        9,
        ok,
        f"covariance route: max |dF| = {worst_gauss:.2e} (<= 1e-9); "
        f"MC at 1e6 samples vs {want:.6f}: {pulls} (|pull| <= 5)",
    )
    assert ok


def test_criterion_10_quantum_boundary(capsys):
    above = True
    for e in (1e-4, 0.01, 0.1, 0.3, 0.5, 0.77, 0.95, 1.0):
        for w in (0.0, 0.5, 2.0, 10.0):
            above = above and teleport_fidelity(teleport(Nopa(e), omega=w)).fidelity > 0.5
    f0 = teleport_fidelity(teleport(Nopa(0.0), omega=0.7)).fidelity
    at_half = f0 == 0.5

    rng = random.Random(110)
    iff_ok = True
    for _ in range(100):
        e = rng.uniform(0.0, 1.0)
        w = rng.uniform(0.0, 3.0)
        _, quiet = Nopa(e).variances(w)
        if abs(quiet - 0.5) < 1e-6:
            continue
        f = swap_fidelity(SwapConfig(Nopa(e), gain=1.0), w)
        iff_ok = iff_ok and ((f > 0.5) == (quiet < 0.5))
    eps_3db = 3.0 - 2.0 * math.sqrt(2.0)
    f_boundary = swap_fidelity(SwapConfig(Nopa(eps_3db), gain=1.0), 0.0)
    boundary_ok = abs(f_boundary - 0.5) <= 1e-12

    ok = above and at_half and iff_ok and boundary_ok
    _report(
        capsys,
        10,
        ok,
        f"F > 1/2 for every pumped point: {above}; F(eps=0) = {f0} (= 0.5 exactly); "
        f"forced-gain swap beats 1/2 iff |S-|^2 < 1/2: {iff_ok}; "
        f"3 dB boundary F = {f_boundary:.15f}",
    )
    assert ok
