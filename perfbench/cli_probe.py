"""Run one esg command with the benchmark's wrappers in place.

Usage: python3 cli_probe.py OUT.json ESG-ARGUMENTS...

Times `import esgames.cli` in this fresh interpreter, installs the tracing
wrappers, runs `esgames.cli.main` on the arguments, writes
{"import_s": seconds, "spans": [...]} to OUT.json and exits with main's code.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import esgames.cli  # noqa: E402  (the import is what is timed)
import_s = perf_counter() - t0

from tracing import Tracer, install  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    tracer.active = True
    code = 2
    try:
        code = esgames.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)
