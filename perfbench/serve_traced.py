"""``handpass serve`` with the benchmark's span tracer installed.

Usage: python3 perfbench/serve_traced.py SPANS_OUT serve --store STORE ...

Wraps handpass's functions, runs the normal command line, and writes the
spans to SPANS_OUT when the server stops (SIGINT).  handpass must be
importable, as run.py arranges through PYTHONPATH.
"""

import sys

from handpass import cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
