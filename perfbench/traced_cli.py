"""One traced `latchcheck` invocation, for the traced run of the cli workload.

    python3 perfbench/traced_cli.py <metrics file> <spans file> <latchcheck arguments...>

Behaves as `python -m latchcheck.cli <arguments>` (same output, same exit
code), with the tracer installed after the import.  The import time and
the per-layer metrics go to the metrics file as JSON, the spans to the
spans file.
"""
from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    out, spans, args = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import latchcheck.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return latchcheck.cli.main(args)
    finally:
        tracer.uninstall()
        tracer.write_spans(spans)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "layers": tracer.metrics(),
                       "cases_s": tracer.case_s, "missing": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
