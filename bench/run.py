"""The cvteleport benchmark: seeded workloads, checked outputs, named metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
src/ and nothing else.  One client drives ``cvteleport.cli.run(argv)``
in-process as a closed loop (one process, one thread): each call starts
when the previous one returns.  The workload's op list (see workloads.py)
is repeated, pass after pass, until --seconds have gone by; every call's
output is checked against the closed forms in reference.py, outside the
timed region.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  The line before it records provenance and the sample
count behind each figure.

End-to-end metrics (--trace 0):

* setup_s: a fresh interpreter importing cvteleport.cli until the first
  call could run, median of SETUP_REPEATS after one untimed import that
  fills the bytecode cache.
* wall_s: median time of one pass of the op list.
* latency_p50_ms, latency_tail_ms: per call.  The tail is the percentile
  TAIL_PERCENTILE[workload]: of p50, p90, p95, p99 and p99.9, the highest
  with at least ten calls beyond it in a 30 s run of the code this
  benchmark was defined on (about 230, 5500 and 22 calls).  It stays fixed
  so that a faster program is not judged at a higher percentile.
* work_per_s: table rows per second on sweep, calls per second on scan,
  Monte-Carlo samples per second on validate; total work over total call
  time.
* peak_rss_mb: peak resident memory of the benchmark process.

Every time is reported at reference machine speed: each timed call or
set-up is bracketed by runs of a fixed calibration kernel and rescaled by
the kernel's reference time over its measured time (see speed.py), which
removes the drift of a shared host but not any change in the program.  The
process is pinned to one CPU so that the kernel and the timed work, set-up
children included, run on the same one.  The provenance line keeps raw
figures and the kernel times.

Failed calls (nonzero exit, exception or wrong output) are counted in
``failed``; ``correct`` is true when none failed.

Per-layer metrics (--trace 1) come from passes that alternate untraced and
traced (see tracer.py).  Times and counts are per traced pass; the
``*_per_row`` ratios divide by the rows the calls asked for, so work the
program does beyond them (bandwidth refinement, repeated transfer or gain
evaluations) shows as a ratio above its minimum.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYCACHE = os.path.join(ROOT, ".bench-pycache")
# Write nothing outside the checkout: this process writes no bytecode, and
# the set-up children keep theirs under PYCACHE.
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 7
SETUP_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import cvteleport.cli"
TAIL_PERCENTILE = {"sweep": 95, "scan": 99, "validate": 50}
KERNEL = {"sweep": "python", "scan": "cli", "validate": "numpy"}  # see speed.py


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_package():
    """Import cvteleport from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "cvteleport", "cli.py")):
        raise SystemExit(f"error: no cvteleport sources under {SRC}")
    sys.path.insert(0, SRC)
    import cvteleport.cli

    if not os.path.abspath(cvteleport.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported cvteleport from {cvteleport.cli.__file__}")
    return cvteleport.cli


def measure_setup(repeats: int, speed: Speed) -> tuple[list[float], list[float]]:
    """Fresh-interpreter import times: (at reference speed, raw)."""
    # As for an installed package, imports read cached bytecode; the cache
    # sits in the checkout whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    scaled, raw = [], []
    for i in range(repeats + 1):
        before = speed.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            check=True,
        )  # no timeout: with one, the wait polls in steps of up to 50 ms
        dt = time.perf_counter() - t0
        if i:  # the first import writes the bytecode cache
            raw.append(dt)
            scaled.append(speed.rescale(dt, before, speed.sample()))
    return scaled, raw


class Client:
    """Closed-loop client: runs ops one at a time and checks each output."""

    def __init__(self, cli, speed: Speed) -> None:
        self.cli = cli
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []  # at reference speed
        self.raw_latencies: list[float] = []
        self.bytes_out = 0
        self._kernel_s: float | None = None  # sampled right after the last call

    def call(self, op: workloads.Op, record: bool = True) -> float:
        """Run one op; returns its time at reference speed."""
        before = self._kernel_s if self._kernel_s is not None else self.speed.sample()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.run(list(op.argv))
            except (Exception, SystemExit) as exc:
                rc = f"raised {exc!r}"
            dt = time.perf_counter() - t0
        self._kernel_s = self.speed.sample()
        scaled = self.speed.rescale(dt, before, self._kernel_s)
        self.attempted += 1
        problem, written = self._check(op, rc, out.getvalue(), err.getvalue())
        if problem is not None:
            self.failures.append(f"{' '.join(op.argv)}: {problem}")
        if record:
            self.latencies.append(scaled)
            self.raw_latencies.append(dt)
            self.bytes_out += written
        return scaled

    @staticmethod
    def _check(op: workloads.Op, rc, stdout: str, stderr: str) -> tuple[str | None, int]:
        """(what is wrong with the call or None, bytes it wrote)."""
        if rc != 0:
            return f"exit {rc}: {stderr.strip()}", 0
        written = len(stdout)
        try:
            text = stdout
            if op.output is not None:
                with open(op.output, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(op.output)  # a later call must write it afresh
                written += len(text)
            op.check(text)
        except (reference.Mismatch, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}", written
        return None, written

    def run_pass(self, ops: list[workloads.Op]) -> float:
        return sum(self.call(op) for op in ops)

    def warm_up(self, ops: list[workloads.Op]) -> None:
        """One untimed call of each command, so lazy set-up is not timed."""
        seen = set()
        for op in ops:
            if op.command not in seen:
                seen.add(op.command)
                self.call(op, record=False)


def end_to_end(workload: str, client: Client, ops, passes: list[float], setup: list[float]) -> dict:
    work = sum(op.work for op in ops) * len(passes)
    ms = [1e3 * t for t in client.latencies]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_tail_ms": (percentile(ms, TAIL_PERCENTILE[workload]), "ms"),
        "work_per_s": (work / sum(client.latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, client: Client, ops, plain: list[float], traced: list[float]) -> dict:
    n = len(traced)
    rows = sum(op.rows for op in ops)
    swap_rows = sum(op.rows for op in ops if op.swap)
    calls = tracer.calls
    scale = client.speed.median_factor()
    self_s = {layer: t * scale / n for layer, t in tracer.self_s.items()}
    incl = {name: t * scale / n for name, t in tracer.incl_s.items()}

    def per_pass(count: float) -> float:
        return count / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    bandwidths = calls["criteria.bandwidth"]
    serialize = sum(
        t for name, t in incl.items() if name.startswith("criteria.") and name.endswith((".to_csv", ".to_json"))
    )
    transfer_evals = calls["epr.LosslessNopa.pair"] + calls["epr.nopa_transfer"]
    return {
        "linmode.self_s": (self_s.get("linmode", 0.0), "s/pass"),
        "linmode.normalized_variance_calls": (per_pass(calls["linmode.normalized_variance"]), "calls/pass"),
        "linmode.combine_calls": (per_pass(calls["linmode.combine"]), "calls/pass"),
        "linmode.variance_calls_per_row": (ratio(calls["linmode.normalized_variance"], rows * n), "calls/row"),
        "epr.self_s": (self_s.get("epr", 0.0), "s/pass"),
        "epr.pair_calls": (per_pass(tracer.calls_matching(".pair")), "calls/pass"),
        "epr.epr_ports_calls": (per_pass(tracer.calls_matching(".epr_ports")), "calls/pass"),
        "epr.transfer_evals_per_row": (ratio(transfer_evals, rows * n), "evals/row"),
        "teleport.self_s": (self_s.get("teleport", 0.0), "s/pass"),
        "teleport.calls": (per_pass(calls["teleport.teleport"]), "calls/pass"),
        "swap.self_s": (self_s.get("swap", 0.0), "s/pass"),
        "swap.rows": (per_pass(tracer.counts["swap.rows"]), "rows/pass"),
        "swap.optimal_gain_per_row": (ratio(calls["swap.optimal_gain"], swap_rows * n), "calls/row"),
        "criteria.self_s": (self_s.get("criteria", 0.0), "s/pass"),
        "criteria.rows": (per_pass(tracer.counts["criteria.rows"]), "rows/pass"),
        "criteria.teleport_fidelity_calls": (per_pass(calls["criteria.teleport_fidelity"]), "calls/pass"),
        "criteria.bandwidth_calls": (per_pass(bandwidths), "calls/pass"),
        "criteria.evaluator_calls_per_bandwidth": (
            ratio(tracer.counts["criteria.evaluator_calls"], bandwidths),
            "calls/call",
        ),
        "criteria.serialize_s": (serialize, "s/pass"),
        "cli.calls": (per_pass(calls["cli.run"]), "calls/pass"),
        "cli.self_s": (self_s.get("cli", 0.0), "s/pass"),
        "cli.bytes_out": (client.bytes_out / (len(plain) + len(traced)), "bytes/pass"),
        "oracle.self_s": (self_s.get("oracle", 0.0), "s/pass"),
        "oracle.mc_check_s": (incl.get("oracle.mc_check", 0.0), "s/pass"),
        "oracle.mc_samples": (per_pass(tracer.counts["oracle.mc_samples"]), "samples/pass"),
        "oracle.covariance_route_s": (
            incl.get("oracle.covariance_teleport", 0.0) + incl.get("oracle.fidelity_to_coherent", 0.0),
            "s/pass",
        ),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str, size: float = 1.0
) -> tuple[dict, dict]:
    """One benchmark run: returns (result, provenance)."""
    cli = import_package()
    import numpy

    setup, raw_setup = ([], []) if trace else measure_setup(SETUP_REPEATS, Speed("python"))

    ops = workloads.generate(workload, seed, workdir, size)
    client = Client(cli, Speed(KERNEL[workload]))
    client.warm_up(ops)
    plain: list[float] = []  # pass times, untraced
    traced: list[float] = []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        on = tracer is not None and len(plain) > len(traced)
        if on:
            tracer.install()
        try:
            elapsed = client.run_pass(ops)
        finally:
            if on:
                tracer.uninstall()
        (traced if on else plain).append(elapsed)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break
    if trace:
        metrics = per_layer(tracer, client, ops, plain, traced)
    else:
        metrics = end_to_end(workload, client, ops, plain, setup)
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "samples": {
            "setup_s": len(setup),
            "wall_s": len(plain),
            "latency": len(client.latencies),
            "traced_passes": len(traced),
            "ops_per_pass": len(ops),
        },
        "tail_percentile": TAIL_PERCENTILE[workload],
        "speed": {
            "kernel": client.speed.kind,
            "kernel_ref_s": client.speed.ref_s,
            "kernel_median_s": statistics.median(client.speed.samples),
            "raw_setup_s": statistics.median(raw_setup) if raw_setup else None,
            "raw_latency_p50_ms": 1e3 * percentile(client.raw_latencies, 50),
        },
        "failures": client.failures[:5],
    }
    return result, provenance


def pin_to_one_cpu() -> int | None:
    """Run the client, its kernel samples and the set-up children on one CPU.

    The kernel then measures the speed of the CPU the timed work runs on; a
    set-up child scheduled on another CPU of a shared host is not tracked.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # no affinity control: run unpinned
        return None
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        result, provenance = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    provenance["cpu"] = cpu
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
