"""Self-check of the benchmark at tiny sizes: schema and correctness only.

    python3 -m pytest bench/test_bench.py -q

No timing is asserted; on a shared machine timing bounds are flaky.  The
negative controls show that a perturbed output or a failing exit code is
counted as a failed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

TINY = 0.01
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_spec_names_the_generated_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"][1:] == ["bench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_result_schema_and_correctness(workload, trace, tmp_path):
    result, provenance = run.measure(workload, 3, 0.0, trace, str(tmp_path), size=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, provenance["failures"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "samples"):
        assert key in provenance
    json.dumps(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def argvs(seed):
        return [op.argv for op in workloads.generate(workload, seed, str(tmp_path), TINY)]

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


def test_no_removed_flags(tmp_path):
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, 0, str(tmp_path)):
            assert "--threads" not in op.argv


_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def _nudge_last_number(text: str) -> str:
    last = list(_NUMBER.finditer(text))[-1]
    nudged = repr(float(last.group()) * (1.0 + 1e-4))
    return text[: last.start()] + nudged + text[last.end():]


class _Perturbing:
    """A stand-in for cvteleport.cli that corrupts what the real one wrote."""

    def __init__(self, cli, mode: str) -> None:
        self.cli = cli
        self.mode = mode

    def run(self, argv):
        if self.mode == "exit":
            return 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run(argv)
        text = buf.getvalue()
        if "--output" in argv and argv[0] != "oracle-check":
            path = argv[argv.index("--output") + 1]
            with open(path, encoding="utf-8") as fh:
                content = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self._corrupt(content))
        else:
            text = self._corrupt(text)
        sys.stdout.write(text)
        return rc

    def _corrupt(self, text: str) -> str:
        if '"all_ok": true' in text:
            return text.replace('"all_ok": true', '"all_ok": false', 1)
        return _nudge_last_number(text)


def _one_of_each(tmp_path):
    ops = []
    for workload in workloads.WORKLOADS:
        seen = set()
        for op in workloads.generate(workload, 1, str(tmp_path), TINY):
            key = (op.command, op.output is not None, op.swap)
            if key not in seen:
                seen.add(key)
                ops.append(op)
    return ops


@pytest.mark.parametrize("mode", ["value", "exit"])
def test_perturbed_outputs_count_as_failed(mode, tmp_path):
    cli = run.import_package()
    ops = _one_of_each(tmp_path)
    honest = run.Client(cli, Speed("python"))
    for op in ops:
        honest.call(op)
    assert honest.failures == []
    corrupted = run.Client(_Perturbing(cli, mode), Speed("python"))
    for op in ops:
        corrupted.call(op)
    assert corrupted.attempted == len(ops)
    assert len(corrupted.failures) == len(ops), corrupted.failures
