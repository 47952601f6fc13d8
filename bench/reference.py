"""Cache priming and no-cache reference output for the warm-cache workload.

    python3 bench/reference.py OPS_JSON OUT_JSON

OPS_JSON is a list of ``[argv, cache_dir]``. Each argv runs through
``klext.cli.main`` in this process. Its table comes from a fresh
enumeration and fill, by ``klext.cli.ensure_table`` exactly as a cold
``klext`` command would build it; with a cache_dir that first build also
saves the table there, which primes the cache the timed commands read. One
table is kept between consecutive commands on the same slice, so each slice
is filled once.

OUT_JSON receives ``{"prime": [[start, end] of each build that saved a
table, on ``time.monotonic()``], "ops": [[exit code, SHA-256 of stdout],
...]}``.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
import warnings


def main() -> int:
    ops_path, out_path = sys.argv[1:]
    warnings.simplefilter("ignore")
    from klext import cli

    build = cli.ensure_table
    memo = {}
    prime = []
    cache = None  # the cache dir of the command being run

    def ensure_table(rs, cutoff, *, affine=True, cache_dir=None, workers=1,
                     max_elements=None):
        key = (rs.type_label, rs.rank, cutoff, affine, max_elements, cache)
        if key not in memo:
            memo.clear()
            t0 = time.monotonic()
            memo[key] = build(rs, cutoff, affine=affine, cache_dir=cache,
                              workers=workers, max_elements=max_elements)
            if cache is not None:
                prime.append([t0, time.monotonic()])
        return memo[key]

    cli.ensure_table = ensure_table
    with open(ops_path) as fh:
        ops = json.load(fh)
    results = []
    for argv, cache in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        results.append([rc, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
    with open(out_path, "w") as fh:
        json.dump({"prime": prime, "ops": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
