"""Traced stand-in for ``python -m circtrees``.

Usage: ``python bench/trace_child.py <circtrees arguments>`` with
``BENCH_SPANS`` naming the span file to write and ``BENCH_OP`` the index of
the benchmark operation.  It imports the CLI, installs the span wrappers of
:mod:`tracer`, runs ``circtrees.cli.main`` and exits with its code.  The
span file starts with a header holding the wall-clock time at which the CLI
was ready to run, so the parent can compute start-up time.
"""

import os
import sys
import time

import circtrees.cli

import tracer

if __name__ == "__main__":
    ready = time.time()
    spans = tracer.Tracer()
    spans.op = int(os.environ["BENCH_OP"])
    spans.install()
    try:
        code = circtrees.cli.main(sys.argv[1:])
    finally:
        spans.uninstall()
        spans.dump(os.environ["BENCH_SPANS"], {"ready": ready})
    sys.exit(code)
