"""Run the fiberframe CLI with layer tracing, as `python -m fiberframe.cli` would.

Usage: PERFBENCH_TRACE_OUT=<file> python clichild.py <cli arguments>
The spans and per-layer aggregates are written to PERFBENCH_TRACE_OUT as JSON
when the command returns; the exit code is the CLI's own.
"""

import json
import os
import sys

import fiberframe.cli

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    code = fiberframe.cli.main(sys.argv[1:])
    tracer.uninstall()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as f:
        json.dump(tracer.summary(), f)
    sys.exit(code)
