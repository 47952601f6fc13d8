"""One pass of the ``weights`` workload: library calls in a fresh interpreter.

    python3 bench/sweep.py OPS_JSON RESULT_JSON [SPANS_OUT MEMORY]

Each op is one library call, timed on its own: ``weyl_character``,
``tensor_decompose`` or ``bound_constants``. Every result is checked
against an independent computation outside the timed call:

- a character's dimension equals Weyl's product formula (``weyl_dimension``);
- a tensor product's components are dominant and their dimensions add up
  to dim(left) * dim(right);
- the closed-formula bound values equal the recorded ones in the op.

RESULT_JSON receives ``{"import_s": s, "ops": [[start, end, ok, digest],
...]}``, with each call's start and end on ``time.monotonic()``; the
digest fingerprints the full result. With SPANS_OUT the layers are traced
(see ``tracer``); MEMORY is 1 to record tracemalloc peaks.
"""

import hashlib
import json
import sys
import time


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def run_op(op, characters, extbounds, rootsys):
    rs = rootsys.build_root_system(op["type"], op["rank"])
    kind = op["kind"]
    if kind == "char":
        lam = tuple(op["weight"])
        t0 = time.monotonic()
        char = characters.weyl_character(rs, lam)
        t1 = time.monotonic()
        ok = char.dimension() == characters.weyl_dimension(rs, lam)
        return t0, t1, ok, _digest(sorted(char.dom.items()))
    if kind == "tensor":
        lam, nu = tuple(op["left"]), tuple(op["right"])
        t0 = time.monotonic()
        comps = characters.tensor_decompose(rs, lam, nu)
        t1 = time.monotonic()
        dim = characters.weyl_dimension
        ok = all(min(tau) >= 0 and m > 0 for tau, m in comps.items()) and (
            sum(m * dim(rs, tau) for tau, m in comps.items())
            == dim(rs, lam) * dim(rs, nu)
        )
        return t0, t1, ok, _digest(sorted(comps.items()))
    if kind == "bounds":
        t0 = time.monotonic()
        reports = extbounds.bound_constants(rs, op["p"])
        t1 = time.monotonic()
        values = {r.constant_name: r.formula_value for r in reports}
        return t0, t1, values == op["expected"], _digest(sorted(values.items()))
    raise ValueError(f"unknown op kind {kind!r}")


def main() -> int:
    ops_path, result_path, *trace = sys.argv[1:]
    t0 = time.perf_counter()
    import klext.cli  # noqa: F401  (the same import the command line pays)

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(memory=trace[1] == "1")
        tracer.install()
    from klext import characters, extbounds, rootsys

    with open(ops_path) as fh:
        ops = json.load(fh)
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.monotonic()
        try:
            results.append(list(run_op(op, characters, extbounds, rootsys)))
        except Exception as ex:  # a failed op is counted, the pass goes on
            results.append([t0, time.monotonic(), False,
                            f"error: {type(ex).__name__}: {ex}"])
    if tracer is not None:
        tracer.dump(trace[0], import_s=import_s)
    with open(result_path, "w") as fh:
        json.dump({"import_s": import_s, "ops": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
