#!/usr/bin/env python3
"""klext benchmark: cold KL fills, warm-cache queries and weight sweeps.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Stdlib only. It drives klext from the outside, the way its users do: KL
work goes through ``klext`` command-line processes, characters and
constants through library calls in a fresh interpreter. The program is
taken from ``src/`` next to this directory and byte-compiled first.

Workloads (closed loop: one client, one klext process at a time):

- ``kl-cold``: affine A2@24, A3@12, B3@9 and G2@14; per slice one seeded
  ``mu``/``mu-sum`` query, once with a fresh empty ``--cache-dir``
  (enumerate, fill, save, answer) and once with no cache.
- ``kl-warm``: the same four tables plus A2@16 and A2@12 are primed into one cache
  by a cold build (counted in ``setup_s``); then a fixed mix of query commands with
  seeded arguments, one ``verify``, one ``--format json kl --all`` export
  and queries at a cutoff below the cached one.
- ``weights``: a fresh interpreter per pass runs ``weyl_character`` on
  A1/A2/B2/G2, ``tensor_decompose`` on A2/B2 pairs of dimension <= 100 and
  ``bound_constants`` on A2, B2, G2, A3, B3, C3. No KL table is built.

The seed picks element indices, weights and pairs; klext sees only
the generated arguments. A run repeats whole passes over the ops while they
fit in --seconds (at least one pass). Every op is checked (see
``check_cli`` and ``sweep.py``); a failed check counts in ``failed``.

Timing. The run and its children are pinned to one CPU, and every timed
interval is scaled to a reference machine speed by the calibration loops
that a sampler thread times on that CPU during it (``calib.py``); the
report also prints the raw wall time. ``wall_s`` is a pass's summed op
time (median pass), ``op_geomean_s`` the geometric mean over the ops of
each op's median time, ``setup_s`` the median of fresh ``import
klext.cli`` runs spread over the timed passes, plus, on kl-warm, the
priming build.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs one
untraced pass, one pass with layer spans (``shim.py``/``tracer.py``) and a
pass over the ops on MEMORY_TABLE (weights: the bound constants) with
tracemalloc peaks, and reports the per-layer metrics. The last line of
stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
EXPECTED = BENCH / "expected.json"
WORK_PARENT = ROOT / ".bench_work"
DEFAULT_SEED = 1
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0
# fresh ``import klext.cli`` samples for setup_s, taken between the timed ops
# so that their median spans the run, not one moment of the machine's speed
IMPORTS_PER_CLI_PASS = 32
IMPORTS_PER_SWEEP = 8
# op_p90_s is printed only over at least this many op times
P90_MIN_SAMPLES = 100
KLEXT = [sys.executable, "-c", "import sys; from klext.cli import main; sys.exit(main())"]

# the ROADMAP's affine slices
KL_SLICES = [("A", 2, 24), ("A", 3, 12), ("B", 3, 9), ("G", 2, 14)]
VERIFY_SLICE = ("A", 2, 16)
# kl-warm: which commands run on which primed table. Fixed, so that the op
# mix does not depend on the seed; every command of the query list appears,
# and the median op is a query on one of the two large tables.
WARM_PLAN = [
    (("A", 2, 24), ["mu", "ext1", "extsum", "decomp", "pim"]),
    (("A", 3, 12), ["kl", "mu-sum", "extn", "chikl", "bounds"]),
    (("B", 3, 9), ["kl"]),
    (("G", 2, 14), ["decomp"]),
]
# below a cached cutoff: today each rebuilds and writes new cache files
SHORTER = [(("A", 3, 10), "mu"), (("G", 2, 12), "mu-sum")]
# primed too, so that the export times loading and rendering, not a rebuild
EXPORT_SLICE = ("A", 2, 12)
# the traced run's tracemalloc pass (about five times slower) measures the
# peaks on this table only, the largest of the KL workloads
MEMORY_TABLE = "A3@12"
PRIMED = {f"{t}{r}@{c}" for t, r, c in
          [table for table, _ in WARM_PLAN] + [VERIFY_SLICE, EXPORT_SLICE]}

# weights: (type, rank, picks); picks are one per band of the candidates
# sorted by cost, so the work per pass hardly depends on the seed
CHAR_PLAN = [("A", 1, 25), ("A", 2, 24), ("B", 2, 16), ("G", 2, 10)]
CHAR_MAX_DIM = 1000
TENSOR_PLAN = [("A", 2, 48), ("B", 2, 24)]
TENSOR_MAX_DIM = 100
BOUND_SYSTEMS = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]
BOUND_P = 5

# span name -> per-layer metrics: (metric, unit, source) with source one of
# "self" (total self time), "calls" (span count) or "peak" (max MB)
SPAN_METRICS = {
    "rootsys.kostant": [("rootsys.kostant_s", "s", "self"),
                        ("rootsys.kostant_calls", "count", "calls"),
                        ("rootsys.kostant_peak_mb", "MB", "peak")],
    "weylaffine.enumerate": [("weylaffine.enumerate_s", "s", "self")],
    "weylaffine.save_slice": [("weylaffine.save_slice_s", "s", "self")],
    "weylaffine.load_slice": [("weylaffine.load_slice_s", "s", "self")],
    "klpoly.fill": [("klpoly.fill_s", "s", "self"), ("klpoly.fill_peak_mb", "MB", "peak")],
    "klpoly.save": [("klpoly.save_s", "s", "self"), ("klpoly.save_peak_mb", "MB", "peak")],
    "klpoly.load": [("klpoly.load_s", "s", "self"), ("klpoly.load_peak_mb", "MB", "peak")],
    "klpoly.query": [("klpoly.query_s", "s", "self"), ("klpoly.query_calls", "count", "calls")],
    "binio.write": [("binio.write_s", "s", "self")],
    "binio.read": [("binio.read_s", "s", "self")],
    "characters.freudenthal": [("characters.freudenthal_s", "s", "self"),
                               ("characters.freudenthal_calls", "count", "calls")],
    "characters.tensor": [("characters.tensor_s", "s", "self"),
                          ("characters.tensor_calls", "count", "calls")],
    "characters.decomp": [("characters.decomp_s", "s", "self")],
    "extbounds.ext": [("extbounds.ext_s", "s", "self"), ("extbounds.ext_calls", "count", "calls")],
    "extbounds.pim": [("extbounds.pim_s", "s", "self")],
    "extbounds.bounds": [("extbounds.bounds_s", "s", "self")],
    "extbounds.verify": [("extbounds.verify_s", "s", "self")],
    "cli.main": [("cli.self_s", "s", "self")],
}
COUNTERS = [("weylaffine.elements", "count"), ("weylaffine.slice_bytes", "bytes"),
            ("klpoly.nonzero_entries", "count"), ("klpoly.distinct_polys", "count"),
            ("klpoly.table_bytes", "bytes"), ("binio.bytes_written", "bytes"),
            ("binio.bytes_read", "bytes")]


class BenchError(Exception):
    """The benchmark cannot produce a result; nothing is printed as one."""


# -- child processes -----------------------------------------------------------


@dataclass
class Child:
    wall: float
    rc: int
    rss_mb: float
    stdout: bytes
    stderr: bytes
    scaled: float  # wall at the reference speed


class Runner:
    """Runs one child at a time from an empty working directory, with
    ``KLEXT_*`` unset, and reads its max RSS from ``os.wait4``."""

    def __init__(self, work: Path, deadline: float, sampler: calib.Sampler):
        self.work = work
        self.sampler = sampler
        self.cwd = work / "cwd"
        self.cwd.mkdir()
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KLEXT_")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, cmd) -> Child:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_DEADLINE_S:.0f} s")
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen([str(c) for c in cmd], cwd=self.cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(min(CHILD_TIMEOUT_S, left), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if any(self.cwd.iterdir()):
            raise BenchError(f"{cmd[-8:]} wrote into its working directory")
        return Child(t1 - t0, proc.returncode, usage.ru_maxrss / 1024,
                     out_path.read_bytes(), err_path.read_bytes(), self.sampler.scale(t0, t1))


def import_sample(runner: Runner) -> float:
    """Scaled time of a fresh interpreter importing ``klext.cli``."""
    res = runner.run([sys.executable, "-c", "import klext.cli"])
    if res.rc != 0:
        raise BenchError(f"import klext.cli failed: {res.stderr.decode()[-500:]}")
    return res.scaled


# -- input generation ------------------------------------------------------------


def fmt(wt) -> str:
    return ",".join(map(str, wt))


def bands(items, picks, rng):
    """One random item from each of ``picks`` near-equal contiguous bands."""
    edges = [round(i * len(items) / picks) for i in range(picks + 1)]
    return [rng.choice(items[a:b]) for a, b in zip(edges, edges[1:]) if b > a]


class SliceInfo:
    """Valid arguments on one affine slice, from the library: dominant
    element indices, their l-regular dominant weights at l = h (the CLI
    default), and regular l-restricted weights."""

    def __init__(self, type_label, rank, cutoff):
        from klext import rootsys, weylaffine

        rs = rootsys.build_root_system(type_label, rank)
        sl = weylaffine.enumerate_slice(rs, cutoff)
        self.tag = f"{type_label}{rank}@{cutoff}"
        self.system = [type_label, str(rank)]
        self.cutoff = cutoff
        self.n = len(sl)
        l = rs.coxeter_number
        lam_minus = (-2,) * rank
        self.weights = {}
        for x in sl.dominant_indices():
            wt = weylaffine.dot_action(rs, sl.elements[x], lam_minus, l)
            if rootsys.is_dominant(wt) and rootsys.classify_weight(rs, wt, l)["regular_l"]:
                self.weights[x] = wt
        self.ordered = sorted(self.weights, key=lambda x: (sl.length[x], x))
        if not self.ordered:
            raise BenchError(f"{self.tag}: no regular dominant element")
        self.restricted = [
            lam for lam in itertools.product(range(l), repeat=rank)
            if rootsys.classify_weight(rs, lam, l)["regular_l"]
        ]

    def command(self, kind, rng) -> list[str]:
        base = [*self.system, "--cutoff", str(self.cutoff)]

        def dom():
            return rng.choice(self.ordered)

        def any_index():
            return str(rng.randrange(self.n))

        if kind == "mu":
            return ["mu", *base, "--x", any_index(), "--y", any_index()]
        if kind == "kl":
            return ["--format", "json", "kl", *base, "--x", any_index(), "--y", any_index()]
        if kind == "mu-sum":
            return ["--format", "csv", "mu-sum", *base, "--x", str(dom())]
        if kind == "ext1":
            return ["--format", "json", "ext1", *base, "--lam", fmt(self.weights[dom()]),
                    "--nu", fmt(self.weights[dom()])]
        if kind == "extn":
            return ["extn", *base, "--x", str(dom()), "--y", str(dom()),
                    "--n", str(rng.choice((0, 1, 2)))]
        if kind == "extsum":
            return ["--format", "json", "extsum", *base, "--x", str(dom()),
                    "--n", str(rng.choice((1, 2)))]
        if kind == "decomp":
            # bounds from the shorter half keep the block, and the op, small
            low = self.ordered[: max(1, len(self.ordered) // 2)]
            return ["--format", "csv", "decomp", *base,
                    "--seed", fmt(self.weights[self.ordered[0]]),
                    "--bound", fmt(self.weights[rng.choice(low)])]
        if kind == "pim":
            return ["--format", "json", "pim", *base, "--lambda0", fmt(rng.choice(self.restricted))]
        if kind == "chikl":
            return ["--format", "json", "chikl", *base, "--weight", fmt(self.weights[dom()])]
        if kind == "bounds":
            return ["--format", "json", "bounds", *self.system, "--p", str(rng.choice((2, 3, 5))),
                    "--empirical", "--cutoff", str(self.cutoff)]
        raise ValueError(kind)


@dataclass
class Op:
    argv: list[str]  # klext arguments, without the cache flag
    mode: str  # "cold": fresh empty cache dir, "none": no cache, "warm": primed cache
    table: str
    twin: int | None = None  # op whose stdout this one must repeat byte for byte
    memory: bool = False  # also run in the traced run's tracemalloc pass


def gen_kl_cold(rng):
    """Ops, and the tags of the tables to prime (none)."""
    ops = []
    for t, r, cutoff in KL_SLICES:
        info = SliceInfo(t, r, cutoff)
        argv = info.command(rng.choice(("mu", "mu-sum")), rng)
        ops.append(Op(argv, "cold", info.tag, memory=info.tag == MEMORY_TABLE))
        ops.append(Op(argv, "none", info.tag, twin=len(ops) - 1))
    return ops, set()


def gen_kl_warm(rng):
    ops = []
    for (t, r, cutoff), kinds in WARM_PLAN:
        info = SliceInfo(t, r, cutoff)
        for i, kind in enumerate(kinds):
            ops.append(Op(info.command(kind, rng), "warm", info.tag,
                          memory=i == 0 and info.tag == MEMORY_TABLE))
    t, r, cutoff = VERIFY_SLICE
    ops.append(Op(["--format", "json", "verify", "--type", t, "--rank", str(r),
                   "--cutoff", str(cutoff)], "warm", f"{t}{r}@{cutoff}"))
    t, r, cutoff = EXPORT_SLICE
    ops.append(Op(["--format", "json", "kl", t, str(r), "--cutoff", str(cutoff), "--all"],
                  "warm", f"{t}{r}@{cutoff}"))
    for (t, r, cutoff), kind in SHORTER:
        info = SliceInfo(t, r, cutoff)
        ops.append(Op(info.command(kind, rng), "warm", info.tag))
    return ops, PRIMED


def dominant_box(rs, box, max_dim):
    from klext import characters

    return [wt for wt in itertools.product(range(box), repeat=rs.rank)
            if characters.weyl_dimension(rs, wt) <= max_dim]


def gen_weights(rng, expected_bounds):
    from klext import characters, rootsys

    dim = characters.weyl_dimension
    ops = []
    for t, r, picks in CHAR_PLAN:
        rs = rootsys.build_root_system(t, r)
        cands = ([(n,) for n in range(CHAR_MAX_DIM)] if r == 1
                 else dominant_box(rs, 45, CHAR_MAX_DIM))
        cands.sort(key=lambda wt: (dim(rs, wt), wt))
        for wt in bands(cands, picks, rng):
            ops.append({"kind": "char", "type": t, "rank": r, "weight": list(wt)})
    for t, r, picks in TENSOR_PLAN:
        rs = rootsys.build_root_system(t, r)
        smalls = dominant_box(rs, 15, TENSOR_MAX_DIM)
        pairs = [(a, b) for i, a in enumerate(smalls) for b in smalls[i:]]
        pairs.sort(key=lambda p: (dim(rs, p[0]) * dim(rs, p[1]), p))
        for a, b in bands(pairs, picks, rng):
            ops.append({"kind": "tensor", "type": t, "rank": r, "left": list(a), "right": list(b)})
    for t, r in BOUND_SYSTEMS:
        ops.append({"kind": "bounds", "type": t, "rank": r, "p": BOUND_P,
                    "expected": expected_bounds.get(f"{t}{r}")})
    return ops


# -- passes ------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0  # at the reference speed
    raw_wall: float = 0.0
    op_times: list = field(default_factory=list)  # at the reference speed
    setup_samples: list = field(default_factory=list)  # scaled import times
    rss_mb: float = 0.0
    outputs: dict = field(default_factory=dict)  # op index -> (rc, digest, stderr tail)
    digest: str = ""  # weights: fingerprint of all results
    failures: dict = field(default_factory=dict)  # op index -> reason
    cached_ops: int = 0
    reused_ops: int = 0
    cache_bytes: int = 0
    stdout_bytes: int = 0
    spans: list = field(default_factory=list)  # tracer dumps


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def run_cli_pass(runner, ops, warm_dir, primed, trace=None) -> Pass:
    """One pass over ``ops``; ``trace`` is None, "span" or "memory". The
    pass's wall time is the sum of its ops' times; an untraced pass also
    takes IMPORTS_PER_CLI_PASS import samples, spread over its ops."""
    pr = Pass()
    spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=runner.work))
    cold_dirs = []
    for i, op in enumerate(ops):
        if not trace:
            for _ in range((i + 1) * IMPORTS_PER_CLI_PASS // len(ops)
                           - i * IMPORTS_PER_CLI_PASS // len(ops)):
                pr.setup_samples.append(import_sample(runner))
        if trace == "memory" and not op.memory:
            continue
        flags, cache = [], None
        if op.mode == "cold":
            cache = Path(tempfile.mkdtemp(prefix="cold-", dir=runner.work))
            cold_dirs.append(cache)
        elif op.mode == "warm":
            cache = warm_dir
        if cache is not None:
            before = set(os.listdir(cache))
            if op.mode == "cold" and before:
                raise BenchError(f"fresh cache dir {cache} is not empty")
            flags = ["--cache-dir", str(cache)]
        if trace:
            cmd = [sys.executable, BENCH / "shim.py", spans_dir / f"{i}.json", i,
                   int(trace == "memory"), "--", *flags, *op.argv]
        else:
            cmd = [*KLEXT, *flags, *op.argv]
        res = runner.run(cmd)
        pr.op_times.append(res.scaled)
        pr.raw_wall += res.wall
        pr.rss_mb = max(pr.rss_mb, res.rss_mb)
        pr.stdout_bytes += len(res.stdout)
        pr.outputs[i] = (res.rc, hashlib.sha256(res.stdout).hexdigest(),
                         res.stderr.decode(errors="replace")[-300:])
        if cache is not None:
            pr.cached_ops += 1
            pr.reused_ops += not (set(os.listdir(cache)) - before)
        if trace and (spans_dir / f"{i}.json").exists():
            pr.spans.append(json.loads((spans_dir / f"{i}.json").read_text()))
    pr.wall = sum(pr.op_times)
    pr.cache_bytes = sum(dir_bytes(d) for d in cold_dirs)
    for d in cold_dirs:
        shutil.rmtree(d)
    if warm_dir is not None:
        pr.cache_bytes += dir_bytes(warm_dir)
        for name in set(os.listdir(warm_dir)) - primed:
            os.remove(warm_dir / name)
    shutil.rmtree(spans_dir)
    return pr


def check_cli(ops, pr, reference, expected):
    """Record in ``pr.failures`` every op whose output fails a check."""
    for i, (rc, digest, err) in pr.outputs.items():
        op = ops[i]
        why = []
        if rc != 0:
            why.append(f"exit code {rc}: {err.strip()}")
        twin = pr.outputs.get(op.twin) if op.twin is not None else None
        if twin is not None and twin[1] != digest:
            why.append("stdout differs between the cold-cache and no-cache runs")
        if reference is not None and reference[i] != [0, digest]:
            why.append("stdout differs from the no-cache reference")
        if expected is not None and expected[i] != digest:
            why.append("stdout differs from the digest recorded for the default seed")
        if why:
            pr.failures[i] = f"{' '.join(op.argv)} [{op.mode}]: {'; '.join(why)}"


def prime_and_reference(runner, ops, warm_dir, primed):
    """Prime ``warm_dir`` with the ``primed`` tables by a cold build and get
    the no-cache digest of every op's stdout (see ``reference.py``)."""
    ops_path, out_path = runner.work / "ref-ops.json", runner.work / "ref-out.json"
    ops_path.write_text(json.dumps(
        [[op.argv, str(warm_dir) if op.table in primed else None] for op in ops]))
    res = runner.run([sys.executable, BENCH / "reference.py", ops_path, out_path])
    if res.rc != 0:
        raise BenchError(f"reference run failed: {res.stderr.decode()[-500:]}")
    data = json.loads(out_path.read_text())
    return sum(runner.sampler.scale(t0, t1) for t0, t1 in data["prime"]), data["ops"]


def run_weights_pass(runner, ops, expected_digest, trace=None) -> Pass:
    ops_path, out_path = runner.work / "sweep-ops.json", runner.work / "sweep-out.json"
    spans_path = runner.work / "sweep-spans.json"
    if trace == "memory":
        ops = [op for op in ops if op["kind"] == "bounds"]
    ops_path.write_text(json.dumps(ops))
    setup_samples = [] if trace else [import_sample(runner) for _ in range(IMPORTS_PER_SWEEP)]
    cmd = [sys.executable, BENCH / "sweep.py", ops_path, out_path]
    if trace:
        cmd += [spans_path, int(trace == "memory")]
    res = runner.run(cmd)
    pr = Pass(wall=res.scaled, raw_wall=res.wall, rss_mb=res.rss_mb, setup_samples=setup_samples)
    if res.rc != 0:
        pr.failures = {i: f"sweep exited {res.rc}: {res.stderr.decode()[-300:]}"
                       for i in range(len(ops))}
        pr.op_times = [res.scaled / len(ops)] * len(ops)
        return pr
    data = json.loads(out_path.read_text())
    digests = []
    for i, (t0, t1, ok, digest) in enumerate(data["ops"]):
        pr.op_times.append(runner.sampler.scale(t0, t1))
        digests.append(digest)
        if not ok:
            pr.failures[i] = f"{ops[i]}: check failed ({digest})"
    pr.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    if expected_digest is not None and not trace and pr.digest != expected_digest:
        pr.failures["digest"] = "results differ from the digest recorded for the default seed"
    if trace:
        pr.spans.append(json.loads(spans_path.read_text()))
    return pr


def timed_passes(run_pass, seconds):
    """Whole passes while the next one is expected to fit in ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        passes.append(run_pass())
        now = time.perf_counter()
        if now - t0 + (now - t_pass) > seconds:
            return passes


# -- metrics ------------------------------------------------------------------------


def aggregate(span_pass: Pass, memory_pass: Pass, sampler: calib.Sampler):
    """Per-layer totals: self time (at the reference speed of the span's
    interval) and calls from the span pass, peaks from the memory pass,
    counters from the span pass."""
    self_s, calls, peaks, counts = {}, {}, {}, {}
    missing = set()
    for dump in span_pass.spans:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            own = (end - start) - child[i]
            if own > 0:
                own *= sampler.scale(start, end) / (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        for key, val in dump["counts"].items():
            counts[key] = counts.get(key, 0) + val
        missing.update(dump["missing"])
    for dump in memory_pass.spans:
        for idx, peak in dump["peaks"].items():
            name = dump["spans"][int(idx)][0]
            peaks[name] = max(peaks.get(name, 0.0), peak / 2**20)
    metrics = {}
    for span, rows in SPAN_METRICS.items():
        for metric, unit, source in rows:
            table = {"self": self_s, "calls": calls, "peak": peaks}[source]
            metrics[metric] = (table.get(span, 0), unit)
    for metric, unit in COUNTERS:
        metrics[metric] = (counts.get(metric, 0), unit)
    return metrics, self_s, missing


def split_check(workload, ops, span_pass, self_s):
    """The layer split each workload was chosen for, as seen on the commit
    that defined the benchmark; a report line, not a pass/fail gate."""
    layers = {k: v for k, v in self_s.items() if k != "trace.bookkeeping"}
    if workload == "kl-cold":
        top = max(layers, key=layers.get)
        return top == "klpoly.fill", f"largest self time: {top}"
    if workload == "kl-warm":
        fill_ops = {s[4] for d in span_pass.spans for s in d["spans"] if s[0] == "klpoly.fill"}
        stray = sorted(i for i in fill_ops if ops[i].table in PRIMED)
        warm = sum(v for k, v in layers.items()
                   if k.split(".")[0] in ("extbounds", "cli", "binio")
                   or k in ("klpoly.load", "klpoly.query"))
        ok = not stray and warm > layers.get("klpoly.fill", 0.0)
        return ok, (f"load+query+binio+extbounds+cli {warm:.3f} s vs fill "
                    f"{layers.get('klpoly.fill', 0.0):.3f} s; fills on primed tables: {stray}")
    kl = [k for k in layers if k.split(".")[0] in ("klpoly", "weylaffine")]
    chars = sum(v for k, v in layers.items() if k.split(".")[0] in ("characters", "rootsys"))
    ok = not kl and chars > 0.5 * sum(layers.values())
    return ok, f"characters+rootsys {chars:.3f} of {sum(layers.values()):.3f} s; KL spans: {kl}"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "klext").glob("*.py")))


def emit(report, correct, attempted, failed, metrics):
    for line in report:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- main -----------------------------------------------------------------------------


def run(args, work: Path, sampler: calib.Sampler):
    deadline = time.monotonic() + RUN_DEADLINE_S
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC / "klext", BENCH],
                           capture_output=True, timeout=120)
    if build.returncode != 0:
        raise BenchError(f"byte-compiling failed: {build.stderr.decode()[-500:]}")
    sys.path.insert(0, str(SRC))
    runner = Runner(work, deadline, sampler)
    rng = random.Random(args.seed)
    expected = json.loads(EXPECTED.read_text())
    use_expected = args.seed == DEFAULT_SEED
    report = [f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
              f"src_lines={src_lines()}"]

    if args.workload == "weights":
        ops = gen_weights(rng, expected["bounds"])
        digest = expected["weights"] if use_expected else None
        prime_s = 0.0

        def one_pass(trace=None):
            return run_weights_pass(runner, ops, digest, trace)
    else:
        gen = gen_kl_cold if args.workload == "kl-cold" else gen_kl_warm
        ops, primed_tags = gen(rng)
        digests = expected[args.workload] if use_expected else None
        if use_expected and len(digests) != len(ops):
            raise BenchError("the recorded digests do not match the generated ops")
        warm_dir, primed, reference, prime_s = None, set(), None, 0.0
        if primed_tags:
            warm_dir = work / "warm"
            warm_dir.mkdir()
            prime_s, reference = prime_and_reference(runner, ops, warm_dir, primed_tags)
            primed = set(os.listdir(warm_dir))
            if len(primed) != 2 * len(primed_tags):
                raise BenchError(f"priming left {sorted(primed)}")

        def one_pass(trace=None):
            pr = run_cli_pass(runner, ops, warm_dir, primed, trace)
            check_cli(ops, pr, reference, digests)
            return pr

    if not args.trace:
        passes = timed_passes(one_pass, args.seconds)
        times = [t for p in passes for t in p.op_times]
        imports = [t for p in passes for t in p.setup_samples]
        failed = sum(len(p.failures) for p in passes)
        attempted = max(failed, sum(len(p.op_times) for p in passes))
        metrics = {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            # each op's median over the passes, so that one slow pass counts
            # no more than in wall_s
            "op_geomean_s": (statistics.geometric_mean(
                statistics.median(t) for t in zip(*(p.op_times for p in passes))), "s"),
            "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
            "setup_s": (statistics.median(imports) + prime_s, "s"),
        }
        report.append(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
                      f"{len(times)} ops; times in s at the reference speed (bench/calib.py)")
        for name, (value, unit) in metrics.items():
            extra = {
                "wall_s": f" (raw {statistics.median(p.raw_wall for p in passes):.6g} s)",
                "op_geomean_s": f" ({len(passes[0].op_times)} ops x {len(passes)} pass(es))",
                "setup_s": f" (median of {len(imports)} imports"
                           + (f" + priming {prime_s:.6g} s)" if prime_s else ")"),
            }.get(name, "")
            report.append(f"  {name:<12} {value:.6g} {unit}{extra}")
        # order statistics of a few ops of unequal cost jump with the machine's
        # speed; they are reported here but are not contract metrics
        report.append(f"  {'op_p50_s':<12} {statistics.median(times):.6g} s "
                      f"({len(times)} samples)")
        if len(times) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
            report.append(f"  {'op_p90_s':<12} {p90:.6g} s ({len(times)} samples)")
        else:
            report.append(f"  {'op_p90_s':<12} not reported: {len(times)} samples, "
                          f"fewer than {P90_MIN_SAMPLES}")
        report.append(f"  {'cache_bytes':<12} {passes[-1].cache_bytes} bytes")
        report.append(f"  {'fail_frac':<12} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    else:
        untraced = one_pass()
        span = one_pass("span")
        memory = one_pass("memory")
        passes = [untraced, span, memory]
        failed = sum(len(p.failures) for p in passes)
        attempted = max(failed, sum(len(p.op_times) for p in passes))
        metrics, self_s, missing = aggregate(span, memory, sampler)
        imports = [d["import_s"] for d in span.spans]
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        metrics["cli.stdout_bytes"] = (span.stdout_bytes, "bytes")
        reuse = untraced.reused_ops / untraced.cached_ops if untraced.cached_ops else 0.0
        metrics["cli.cache_reuse_frac"] = (reuse, "ratio")
        metrics["cli.cache_bytes"] = (untraced.cache_bytes, "bytes")
        metrics["trace.overhead_s"] = (span.wall - untraced.wall, "s")
        ok, detail = split_check(args.workload, ops, span, self_s)
        report.append(f"workload {args.workload} seed {args.seed}: traced pass "
                      f"{span.wall:.3f} s, untraced {untraced.wall:.3f} s at the reference "
                      f"speed (raw {span.raw_wall:.3f} s, {untraced.raw_wall:.3f} s)")
        report.append(f"  layer split {'as expected' if ok else 'CHANGED'}: {detail}")
        if missing:
            report.append(f"  not traced (missing in klext): {sorted(missing)}")
        for name, (value, unit) in metrics.items():
            report.append(f"  {name:<30} {value:.6g} {unit}")
    for p in passes:
        for why in p.failures.values():
            print(f"FAILED {why}", file=sys.stderr)
    emit(report, failed == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("kl-cold", "kl-warm", "weights"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "klext" / "cli.py").is_file():
        print(f"error: no klext sources under {SRC}", file=sys.stderr)
        return 2
    # the run and its children share one CPU, so that the calibration loops
    # time the CPU the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still kills its running child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        with calib.Sampler() as sampler:
            return run(args, work, sampler)
    except BenchError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
