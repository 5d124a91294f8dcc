"""Traced stand-in for `python -m biasedcube.cli`, used by cli_batch.

Usage: python bench/cli_launcher.py SPANS_FILE CLI_ARGS...

Imports biasedcube (timing the import), wraps its layers, calls
`biasedcube.cli.main(CLI_ARGS)`, writes the spans to SPANS_FILE and
exits with main's return code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import biasedcube.cli
    import_s = time.perf_counter() - t0

    import tracer

    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        rc = biasedcube.cli.main(sys.argv[2:])
    finally:
        tr.dump(sys.argv[1], extra={"import_s": import_s})
    sys.exit(rc)
