"""Traced stand-in for ``python -m linesearch``, used by the traced cli_oneshot run.

    python3 bench/clitrace.py TRACE_FILE <linesearch arguments>

Times ``import numpy`` and the rest of the program's import, wraps the
layers as the in-process traced runs do, calls ``linesearch.cli.main`` with
the arguments and exits with its code.  Span totals and start-up times go to
TRACE_FILE as JSON; stdout is the program's own.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
from linesearch import cli, mrays, optimal, reach, simulate, solve  # noqa: E402

t2 = time.perf_counter()

import json  # noqa: E402

import tracing  # noqa: E402

tracer = tracing.install({"cli": cli, "mrays": mrays, "optimal": optimal, "reach": reach,
                          "simulate": simulate, "solve": solve})
tracer.start_op()
code = cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump({"import_numpy_ms": (t1 - t0) * 1000.0, "import_ms": (t2 - t0) * 1000.0,
               "totals": tracing.totals(tracer.spans)}, fh)
sys.exit(code)
