"""Run one pfansatz CLI job as `python -m pfansatz.cli ARGS` would.

Usage: child.py READY_FILE SPANS_FILE|- ARGS...

Writes `time.monotonic()` to READY_FILE once `pfansatz.cli` is imported
and ready.  With a SPANS_FILE, the layer functions are wrapped first and
their per-span aggregates are written there when the command returns.
"""

import sys
import time


def main() -> int:
    ready_file, spans_file, *argv = sys.argv[1:]
    import pfansatz.cli as cli

    ready = time.monotonic()
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(ready))
    if spans_file == "-":
        return cli.main(argv)
    import layers

    tracer = layers.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
