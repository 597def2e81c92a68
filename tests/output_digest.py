"""One digest over every output of the benchmark's workloads.

Generates the op lists of ``bench/workloads.py`` (read, never changed) for
the given workloads and seeds, runs each op through ``cvteleport.cli.run``
in process, and prints the op count and one sha256 over, op by op, the exit
code, stdout, stderr, the bytes of the op's ``--output`` file, and the
category and message of every warning the op raised (not its file or
line, which move with any edit).  Two trees whose digests match printed
and wrote the same bytes for every op.

    python tests/output_digest.py sweep:1-5 scan:1-10 validate:1-2

Each argument is ``workload:seed`` or ``workload:first-last``.  The package
is imported from ``src/`` of the checkout this script sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no bytecode cache under bench/
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from cvteleport import cli  # noqa: E402


def _seeds(spec: str) -> tuple[str, range]:
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    return workload, range(int(first), int(last or first) + 1)


def _op_bytes(op: workloads.Op) -> bytes:
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
    parts = (str(rc), out.getvalue(), err.getvalue(), raised)
    return b"\0".join(p.encode() for p in parts) + b"\0" + written


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    digest, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory(prefix="cvteleport-digest-") as workdir:
        for spec in argv:
            workload, seeds = _seeds(spec)
            for seed in seeds:
                for op in workloads.generate(workload, seed, workdir):
                    body = _op_bytes(op)
                    digest.update(len(body).to_bytes(8, "little") + body)
                    count += 1
    print(f"{count} ops {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
