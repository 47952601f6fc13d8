"""Span tracer for the traced benchmark runs.

A benchmark-owned shim: it wraps the public functions of each klext layer
in spans without touching ``src/``. Every wrapped function is replaced at
its defining module attribute *and* at every other ``klext.*`` module
attribute bound to the same object, so that names imported with
``from .klpoly import mu`` (as ``extbounds`` does) are traced as well.

A span records its name, start, end (on ``time.monotonic()``, so that
the benchmark can scale it, see ``calib``), parent span and operation id. Spans
stay in memory and are written out once, by ``dump``. With ``memory=True`` the memory
spans also record their peak traced allocation (``tracemalloc``), which is
on only while such a span is open, because it slows the traced code about
fivefold.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

# (module, attribute, span name). A span name doubles as the prefix of the
# per-layer metrics built from it: ``<span>_s`` is its total self time.
TARGETS = [
    ("rootsys", "kostant_partition", "rootsys.kostant"),
    ("weylaffine", "enumerate_slice", "weylaffine.enumerate"),
    ("weylaffine", "save_slice", "weylaffine.save_slice"),
    ("weylaffine", "load_slice", "weylaffine.load_slice"),
    ("klpoly", "KLTable.fill", "klpoly.fill"),
    ("klpoly", "save_table", "klpoly.save"),
    ("klpoly", "load_table", "klpoly.load"),
    ("klpoly", "mu", "klpoly.query"),
    ("klpoly", "kl_polynomial", "klpoly.query"),
    ("klpoly", "kl_coefficient", "klpoly.query"),
    ("klpoly", "mu_row_sum", "klpoly.query"),
    ("klpoly", "kl_coefficient_sum", "klpoly.query"),
    ("klpoly", "max_mu_dominant", "klpoly.query"),
    ("klpoly", "max_top_coefficient", "klpoly.query"),
    ("binio", "write_frame", "binio.write"),
    ("binio", "read_frame", "binio.read"),
    ("characters", "weyl_character", "characters.freudenthal"),
    ("characters", "tensor_decompose", "characters.tensor"),
    ("characters", "decomposition_matrix", "characters.decomp"),
    ("characters", "linkage_block", "characters.decomp"),
    ("characters", "chi_kl", "characters.decomp"),
    ("extbounds", "ext1_simple_simple", "extbounds.ext"),
    ("extbounds", "extn_simple_costandard", "extbounds.ext"),
    ("extbounds", "extn_simple_simple", "extbounds.ext"),
    ("extbounds", "ext1_deltared_costandard", "extbounds.ext"),
    ("extbounds", "ext1_weights", "extbounds.ext"),
    ("extbounds", "singular_ext1_report", "extbounds.ext"),
    ("extbounds", "sum_ext_n", "extbounds.ext"),
    ("extbounds", "pim_length", "extbounds.pim"),
    ("extbounds", "bound_constants", "extbounds.bounds"),
    ("extbounds", "run_verification", "extbounds.verify"),
    ("cli", "main", "cli.main"),
]

MEMORY_SPANS = {"rootsys.kostant", "klpoly.fill", "klpoly.save", "klpoly.load"}

# time spent counting table entries after a span; a child of the caller's
# span, so it is never charged to any layer's self time
BOOKKEEPING = "trace.bookkeeping"


def _table_counts(table):
    """(nonzero entries, distinct polynomials) over the filled rows."""
    sl = table.slice
    nonzero = 0
    distinct = set()
    for y in range(len(sl)):
        if sl.length[y] > table.filled:
            continue
        row = table.rows_for(y)
        nonzero += len(row)
        distinct.update(row.values())
    return {"klpoly.nonzero_entries": nonzero, "klpoly.distinct_polys": len(distinct)}


def _file_size(counter, index):
    return lambda args, kwargs, result: {counter: os.path.getsize(args[index])}


# per-layer counters, taken from a span's arguments or result once it returns
AFTER = {
    "weylaffine.enumerate": lambda a, k, r: {"weylaffine.elements": len(r)},
    "weylaffine.save_slice": _file_size("weylaffine.slice_bytes", 1),
    "weylaffine.load_slice": _file_size("weylaffine.slice_bytes", 0),
    "klpoly.fill": lambda a, k, r: _table_counts(a[0]),
    "klpoly.save": _file_size("klpoly.table_bytes", 1),
    "klpoly.load": lambda a, k, r: _table_counts(r),
    "binio.write": _file_size("binio.bytes_written", 0),
    "binio.read": _file_size("binio.bytes_read", 0),
}


class Tracer:
    def __init__(self, op: int = 0, memory: bool = False):
        self.op = op
        self.memory = memory
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.peaks: dict[int, int] = {}  # span index -> peak traced bytes
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # open memory spans: [start bytes, peak seen]

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        return idx

    def _mem_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem.append([0, 0])
            return
        cur, peak = tracemalloc.get_traced_memory()
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, seen = self._mem.pop()
        seen = max(seen, peak)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], seen)
        else:
            tracemalloc.stop()
        return seen - start

    def wrap(self, name, fn):
        after = AFTER.get(name)
        mem = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            rec = self.spans[idx]
            if mem:
                self._mem_enter()
            rec[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic()
                if mem:
                    self.peaks[idx] = self._mem_exit()
                self._stack.pop()
            if after is not None:
                book = self._open(BOOKKEEPING)
                self.spans[book][1] = time.monotonic()
                for key, val in after(args, kwargs, result).items():
                    self.counts[key] = self.counts.get(key, 0) + val
                self.spans[book][2] = time.monotonic()
                self._stack.pop()
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each klext module attribute bound to it."""
        importlib.import_module("klext.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "klext" or n.startswith("klext.")]
        for modname, attr, span in TARGETS:
            mod = sys.modules[f"klext.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name, None)
                if owner is None or meth not in vars(owner):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                setattr(owner, meth, self.wrap(span, vars(owner)[meth]))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            traced = self.wrap(span, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "peaks": self.peaks,
                       "counts": self.counts, "missing": self.missing, **extra}, fh)
