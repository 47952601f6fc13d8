"""Traced klext command line, one command per process.

    python3 bench/shim.py SPANS_OUT OP_ID MEMORY -- ARGV...

Times ``import klext.cli``, wraps the layers in spans (see ``tracer``),
runs ``klext.cli.main(ARGV)`` exactly as the ``klext`` entry point does and
writes the spans to SPANS_OUT. MEMORY is 1 to record tracemalloc peaks.
"""

import sys
import time


def main() -> int:
    out, op, memory, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py SPANS_OUT OP_ID MEMORY -- ARGV...")
    t0 = time.perf_counter()
    import klext.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer(op=int(op), memory=memory == "1")
    tracer.install()
    try:
        return klext.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(out, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
