"""One digest over every output of the benchmark's workloads.

Generates the op lists of ``bench/workloads.py`` (read, never changed) for
the given workloads and seeds, runs each op through ``cvteleport.cli.run``
in process, and prints the op count and one sha256 over, op by op, the exit
code, stdout, stderr, the bytes of the op's ``--output`` file, and the
category and message of every warning the op raised (not its file or
line, which move with any edit).  Two trees whose digests match printed
and wrote the same bytes for every op.

    python tests/output_digest.py sweep:1-5 scan:1-10 validate:1-2
    python tests/output_digest.py --against ../other sweep:1-5 scan:1-10 validate:1-2

Each argument is ``workload:seed`` or ``workload:first-last``.  The package
is imported from ``src/`` of the checkout this script sits in.  With
``--against <checkout>`` the same ops also run, in a child process,
against the package in that checkout's ``src/``; both digests are printed,
then, per command, the ops whose outputs differ, the numbers in them that
differ, the largest relative change of a number, and the kernel calls and
the rows they asked for per op on either side: the calls of
``criteria._teleport_columns``, which every spectrum row, criteria report
and bandwidth refinement goes through, counted in process by a wrapper
that changes no output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

# A number as the commands print it, JSON's spellings of the non-finite
# values included.
_NUMBER = re.compile(r"-?(?:Infinity|NaN|inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _seeds(spec: str) -> tuple[str, range]:
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return workload, range(int(first), int(last or first) + 1)


def _ops(specs: list[str], workdir: str):
    for spec in specs:
        workload, seeds = _seeds(spec)
        for seed in seeds:
            yield from workloads.generate(workload, seed, workdir)


def _op_parts(cli, op: workloads.Op) -> list[str]:
    # The exit code, stdout, stderr, the warnings raised and the --output
    # file's bytes (as latin-1 text, which maps each byte to one character).
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(op.argv))
    written = b""
    if op.output is not None and os.path.exists(op.output):
        with open(op.output, "rb") as fh:
            written = fh.read()
        os.remove(op.output)
    raised = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return [str(rc), out.getvalue(), err.getvalue(), raised, written.decode("latin-1")]


def _digest(outputs: list[list[str]]) -> str:
    digest = hashlib.sha256()
    for parts in outputs:
        body = b"\0".join(p.encode() for p in parts[:4]) + b"\0" + parts[4].encode("latin-1")
        digest.update(len(body).to_bytes(8, "little") + body)
    return digest.hexdigest()


def _run(src: str, ops: list, count: bool = False) -> tuple[list[list[str]], list[list[int]]]:
    # Each op's parts and, if count, its kernel calls and rows (else 0 each).
    sys.path.insert(0, src)
    from cvteleport import cli, criteria

    calls = [0, 0]
    if count:
        kernel = criteria._teleport_columns

        def counted(resource, omega, *args, **kwargs):
            calls[0] += 1
            calls[1] += len(omega)
            return kernel(resource, omega, *args, **kwargs)

        # Every module that imported the kernel by name calls its own binding.
        for name, module in list(sys.modules.items()):
            if name.startswith("cvteleport") and getattr(module, "_teleport_columns", None) is kernel:
                module._teleport_columns = counted
    outputs, counts = [], []
    for op in ops:
        calls[:] = 0, 0
        outputs.append(_op_parts(cli, op))
        counts.append(list(calls))
    return outputs, counts


def _relative(a: str, b: str) -> float:
    x, y = (float(v.replace("Infinity", "inf").replace("NaN", "nan")) for v in (a, b))
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _compare(ops: list, mine: list[list[str]], theirs: list[list[str]], calls: list) -> None:
    # Per command: ops, ops changed, numbers changed, the largest relative
    # change of a number and the kernel calls and rows per op on either side
    # (calls holds both sides' per-op [calls, rows]).  An op whose text
    # differs outside its numbers, or in how many it has, counts as changed
    # with every number.
    rows: dict[str, list] = {}
    for op, a, b, (k_a, k_b) in zip(ops, mine, theirs, zip(*calls)):
        row = rows.setdefault(op.argv[0], [0, 0, 0, 0.0, 0, 0, 0, 0])
        row[0] += 1
        row[4] += k_a[0]
        row[5] += k_b[0]
        row[6] += k_a[1]
        row[7] += k_b[1]
        if a == b:
            continue
        row[1] += 1
        text_a, text_b = "\0".join(a), "\0".join(b)
        nums_a, nums_b = _NUMBER.findall(text_a), _NUMBER.findall(text_b)
        if _NUMBER.split(text_a) != _NUMBER.split(text_b) or len(nums_a) != len(nums_b):
            row[2] += max(len(nums_a), len(nums_b))
            row[3] = math.inf
            continue
        changed = [_relative(x, y) for x, y in zip(nums_a, nums_b) if x != y]
        row[2] += len(changed)
        row[3] = max([row[3], *changed])
    print(
        f"{'command':<14} {'ops':>6} {'changed':>8} {'numbers':>8}  {'largest':>7}"
        f"  {'calls/op':>8} {'other':>8}  {'rows/op':>8} {'other':>8}"
    )
    for command, (count, changed, numbers, largest, *kernel) in sorted(rows.items()):
        k_a, k_b, r_a, r_b = (k / count for k in kernel)
        print(
            f"{command:<14} {count:>6} {changed:>8} {numbers:>8}  {largest:>7.3g}"
            f"  {k_a:>8.3f} {k_b:>8.3f}  {r_a:>8.1f} {r_b:>8.1f}"
        )
    total_a, total_b, rows_a, rows_b = (sum(row[k] for row in rows.values()) for k in (4, 5, 6, 7))
    print(f"kernel calls: {total_a} here, {total_b} in the other checkout")
    print(f"kernel rows: {rows_a} here, {rows_b} in the other checkout")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    if argv[0] == "--parts":  # the child: one checkout's outputs and calls as JSON
        src, workdir, *specs = argv[1:]
        json.dump(_run(src, list(_ops(specs, workdir)), count=True), sys.stdout)
        return 0
    other = None
    if argv[0] == "--against":
        other, argv = os.path.abspath(argv[1]), argv[2:]
    with tempfile.TemporaryDirectory(prefix="cvteleport-digest-") as workdir:
        ops = list(_ops(argv, workdir))
        theirs = None
        if other is not None:
            child = [sys.executable, os.path.abspath(__file__), "--parts"]
            child += [os.path.join(other, "src"), workdir, *argv]
            theirs = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
            theirs, their_calls = json.loads(theirs.stdout)
        mine, my_calls = _run(os.path.join(ROOT, "src"), ops, count=other is not None)
    print(f"{len(mine)} ops {_digest(mine)}")
    if theirs is not None:
        print(f"{len(theirs)} ops {_digest(theirs)} ({other})")
        _compare(ops, mine, theirs, [my_calls, their_calls])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
