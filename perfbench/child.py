"""Run one macrobell CLI invocation and time ``macrobell.cli.main``.

    python3 child.py RECORD.json [--trace] -- <macrobell arguments...>

Imports the CLI from the ``src/`` tree next to this directory, then
times ``main(argv)`` alone, so the recorded ``compute_s`` leaves out
interpreter start-up and imports.  With ``--trace`` the public functions
of every layer module are wrapped in spans first.  Writes the timing (and
the span summary) to RECORD.json and exits with ``main``'s return code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    record_path, *rest = sys.argv[1:]
    split = rest.index("--")
    trace, argv = "--trace" in rest[:split], rest[split + 1:]
    sys.path.insert(0, str(SRC))
    import macrobell.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"macrobell imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 4
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter_ns()
    rc = cli.main(argv)
    compute_s = (time.perf_counter_ns() - t0) * 1e-9
    record = {"rc": rc, "compute_s": compute_s}
    if tracer is not None:
        record["layers"] = tracer.summary()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
