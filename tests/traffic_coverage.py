"""Statements of the package that the benchmark's traffic never executes.

    python tests/traffic_coverage.py sweep:1 scan:1-3 validate:1

Generates the op lists of ``bench/workloads.py`` (read, never changed) for
the given workloads and seeds, as ``tests/output_digest.py`` does, and runs
each op through ``cvteleport.cli.run`` in this process under
``tests/line_coverage.py``'s line trace of ``src/cvteleport``, the package
imported under the trace too.  Then prints ``path:line: statement`` for
each statement of the package that no op ran (statements as
``line_coverage.py`` finds them), and their count.  It exits 0 whatever
the count: it reports what the benchmark does not exercise, mostly error
paths and library-only features, and gates nothing.
"""

from __future__ import annotations

import sys
import tempfile
import threading

from line_coverage import ROOT, report, trace
from output_digest import generate_ops, run_op


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    executed: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="cvteleport-traffic-") as workdir:
        ops = list(generate_ops(argv, workdir))
        trace(executed)
        try:
            from cvteleport import cli

            for op in ops:
                run_op(cli, op)
        finally:
            sys.settrace(None)
            threading.settrace(None)
    print(f"{len(ops)} ops")
    report(executed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
