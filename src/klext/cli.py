"""Command-line front end: batch computation, cache management, reports.

Every numeric output is an exact integer or rational rendered without
rounding. Quantities summed over infinite index sets are labeled either
``exact`` or ``truncated@L`` (L the slice cutoff); nothing truncated is
ever presented as exact. Outputs are deterministic given identical
configuration and cache state, and cache reuse never changes any number.

Exit codes: 0 success; 1 invariant violation (``verify``), cache corruption
or a slice too short for the question; 2 invalid configuration; 3 resource
cap exceeded.
"""

from __future__ import annotations

import os
import sys
import warnings
from types import SimpleNamespace

# JSON's C string quoter, the one json.encoder itself uses; json itself is
# imported only where an output or input needs it (see ``_dumps``)
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _quote

from . import __version__, characters, extbounds, klpoly, rootsys, weylaffine
from .errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
    LevelWarning,
    ResourceCapError,
    SliceCoverageError,
)

ENV_CACHE = "KLEXT_CACHE_DIR"


class UsageError(Exception):
    pass


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"weight {text!r} is not a comma-separated integer vector")
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, expected {rank}")
    return coords


def _cache_paths(cache_dir, rs, cutoff, affine):
    tag = f"{rs.type_label}{rs.rank}_{'aff' if affine else 'fin'}_L{cutoff}"
    return (
        os.path.join(cache_dir, f"slice_{tag}.slc"),
        os.path.join(cache_dir, f"kl_{tag}.klt"),
    )


def ensure_table(rs, cutoff, *, affine=True, cache_dir=None, workers=1,
                 max_elements=None) -> klpoly.KLTable:
    """Load the (slice, KL table) pair from cache or build and persist it.

    ``workers`` is accepted for compatibility and ignored: the fill is
    sequential. A cached slice file must equal what the enumeration of the
    request writes and a cached table must match its slice (CacheFormatError
    otherwise); the element cap holds on every path, since a warm run
    enumerates the slice too.
    """
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        slice_path, table_path = _cache_paths(cache_dir, rs, cutoff, affine)
        if os.path.exists(table_path):
            if os.path.exists(slice_path):
                sl = weylaffine.load_slice(slice_path, rs, cutoff, affine, max_elements)
            else:  # a deleted slice file is rebuilt
                sl = weylaffine.enumerate_slice(rs, cutoff, affine, max_elements)
                weylaffine.save_slice(sl, slice_path)
            return klpoly.load_table(table_path, sl)
    sl = weylaffine.enumerate_slice(rs, cutoff, affine, max_elements)
    table = klpoly.KLTable(sl)
    table.fill()
    if cache_dir:
        weylaffine.save_slice(sl, slice_path)
        klpoly.save_table(table, table_path)
    return table


# -- output rendering ---------------------------------------------------------


# Output is written in pieces joined to about this many characters, so that
# no copy of a large output exists, and no write of any format is longer
# (see ``_write``). On the 3.95 MB A2@12 ``--format json kl --all`` export
# (median of 20 alternating runs into /dev/null, 2 vCPUs, with
# PYTHONUNBUFFERED=1, which makes each write a system call): a write per
# piece took 103 ms against 78 ms at 64 KiB, and one write of the whole
# string 85 ms and 29.5 MB max RSS against 16.6 MB; 4 to 256 KiB were alike
# in time, and 256 KiB held 0.6 MB more.
CHUNK_CHARS = 1 << 16


def _render(payload, fmt: str):
    """The output of ``payload`` in ``fmt`` as str pieces for ``_write``:
    JSON as many, none longer than one list item, text and csv as one
    each; a payload that is a function (``kl --all``) yields its own pieces
    in ``fmt``. ``main`` builds the whole payload first, so an error found
    while computing it never follows partial output."""
    if callable(payload):
        yield from payload(fmt)
    elif fmt == "json":
        yield from _json(payload, "\n")
        yield "\n"
    elif fmt == "csv":
        yield _render_csv(payload)
    else:
        yield _render_text(payload)


def _write(pieces, out) -> None:
    """Write ``pieces`` to ``out`` joined to about CHUNK_CHARS, each joined
    buffer in writes of at most CHUNK_CHARS.

    The last step flushes ``out``, so that nothing of the output waits in
    its buffer when ``main`` ends the process without interpreter teardown.

    A reader that closes the pipe early makes a write or that flush raise
    BrokenPipeError; an output that fits in ``out``'s buffer fails only at
    the flush. An unbuffered ``out`` (PYTHONUNBUFFERED=1) passes each write
    to the descriptor once and drops what a short write left over, so one
    write of a whole text output would end silently; with bounded writes the
    next one raises. The tail of the write before it that filled the pipe
    can still wait in a buffered ``out``, whose flush at exit would fail
    again. So ``out``'s descriptor then points at os.devnull, and the error
    goes on to ``main``."""

    def send(text):
        for at in range(0, len(text), CHUNK_CHARS):
            out.write(text[at : at + CHUNK_CHARS])

    buf, size = [], 0
    try:
        for piece in pieces:
            buf.append(piece)
            size += len(piece)
            if size >= CHUNK_CHARS:
                send("".join(buf))
                buf, size = [], 0
        send("".join(buf))
        out.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, out.fileno())
        os.close(null)
        raise


def _json(v, pad: str):
    """The pieces of ``v`` as ``json.dumps(v, sort_keys=True, indent=2)``
    writes it, ``pad`` being a newline and the indentation of the line that
    ``v`` starts on. Every payload's keys are strings; any other key is a
    TypeError.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; this hands a
    str or int leaf to the encoder's C string quoter or to ``int.__repr__``
    and yields one piece per list item. A list item that is a list, such as
    a matrix row, renders as one piece, its cells through ``_cells``."""
    t = type(v)
    if t is str:
        yield _quote(v)
    elif t is int:
        yield int.__repr__(v)
    elif isinstance(v, dict):
        if not v:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{" + inner
        for k in sorted(v):
            yield sep + _quote(k) + ": "
            yield from _json(v[k], inner)
            sep = "," + inner
        yield pad + "}"
    elif isinstance(v, (list, tuple)):
        if not v:
            yield "[]"
            return
        inner = pad + "  "
        sep, cell = "[" + inner, inner + "  "
        for x in v:
            if type(x) in (list, tuple):
                yield sep + ("[" + cell + ("," + cell).join(_cells(x, cell))
                             + inner + "]" if x else "[]")
            else:
                yield sep
                yield from _json(x, inner)
            sep = "," + inner
        yield pad + "]"
    else:
        yield _scalar(v)


def _scalar(v) -> str:
    """A leaf that is neither a str, an int nor a container, as
    ``json.dumps`` spells it: None, True and False inline, a float through
    json."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return _dumps(v)


def _dumps(v) -> str:
    """``json.dumps(v)``, with json imported on the first call, as float
    leaves, list leaves of text and csv, and ``--config`` errors need it
    (``enumerate --export-json`` and ``_read_config`` import it too). No KL
    query does: ``import json`` took 1.5-2.5 ms of every process, against
    0.3 ms for ``_json``'s quoter alone (2 vCPUs, Python 3.11.7)."""
    import json

    return json.dumps(v)


def _cells(values, pad: str) -> list:
    """The row cells ``values`` at indentation ``pad``, each as one string:
    a str or int inline, any other value by ``_json``."""
    return [int.__repr__(y) if type(y) is int else _quote(y) if type(y) is str
            else "".join(_json(y, pad)) for y in values]


def _render_csv(payload) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = payload.get("csv_rows") if isinstance(payload, dict) else None
    if rows is None:
        rows = _flatten_rows(payload)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _flatten_rows(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten_rows(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, (list, tuple)):
        rows.append([prefix.rstrip("."), _dumps(payload)])
    else:
        rows.append([prefix.rstrip("."), payload])
    return rows


def _render_text(payload) -> str:
    return _text(payload, "", True) + "\n"


def _text(v, pad: str, top: bool) -> str:
    """The lines of ``v`` at indentation ``pad``, one join per container. A
    dict's keys are sorted at the top level (``top``, which a list passes on
    to its items) and kept in order below it. Under its key, a non-empty
    container that is not a list of scalars opens a block indented one step
    further; any other value stays on the key's line, a list as JSON. A list
    writes a scalar item as "- item" and a container item as its own lines at
    the list's indentation, trailing newlines stripped, closed by a "-" line.

    Text stays one string: ``kl --all`` writes its own pieces, and no other
    command's payload is large."""
    if isinstance(v, dict):
        inner = pad + "  "
        return "\n".join([
            f"{pad}{k}: {x}" if not isinstance(x, (dict, list))
            else f"{pad}{k}:\n{_text(x, inner, False)}" if x and not _is_scalar_list(x)
            else f"{pad}{k}: {_dumps(x) if isinstance(x, list) else x}"
            for k, x in (sorted(v.items()) if top else v.items())
        ])
    if isinstance(v, list):
        return "\n".join([
            _closed(_text(x, pad, top).rstrip("\n"), pad)
            if isinstance(x, (dict, list)) else f"{pad}- {x}"
            for x in v
        ])
    return f"{v}"


def _is_scalar_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _closed(body: str, pad: str) -> str:
    """A container item's lines, then its closing "-" line."""
    return f"{body}\n{pad}-" if body else f"{pad}-"


def _status(saturated: bool, cutoff: int) -> str:
    return "exact" if saturated else f"truncated@{cutoff}"


# -- command implementations -----------------------------------------------------


def cmd_info(args):
    rs = rootsys.build_root_system(args.type, args.rank)
    return rootsys.system_summary(rs)


def cmd_enumerate(args):
    rs = rootsys.build_root_system(args.type, args.rank)
    sl = weylaffine.enumerate_slice(rs, args.cutoff, not args.finite, args.max_elements)
    by_length = {}
    for ln in sl.length:
        by_length[str(ln)] = by_length.get(str(ln), 0) + 1
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
        path, _ = _cache_paths(args.cache_dir, rs, args.cutoff, not args.finite)
        weylaffine.save_slice(sl, path)
    if args.export_json:
        import json

        with open(args.export_json, "w") as fh:
            json.dump(weylaffine.slice_to_json(sl), fh, sort_keys=True, indent=1)
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "affine": not args.finite,
        "cutoff": args.cutoff,
        "element_count": len(sl),
        "dominant_count": sum(sl.dominant),
        "by_length": by_length,
    }


def _table_for(args, rows="all"):
    """The root system and the KL table of the command's slice.

    ``rows`` is "all" for the complete table, loaded or built and saved by
    ``ensure_table`` (``kl``, ``decomp``, ``verify``). A query that reads a
    few rows (``mu``, ``klsum``) passes "few" and gets the enumerated
    slice's table with no row filled, so it computes only the rows the
    query reads, on their first read. A query that reads dominant pairs
    only passes "dominant" and gets the slice's ``klpoly.spherical_table``:
    ``mu-sum``, ``extn``, ``extsum``, ``bounds --empirical``, and the Ext^1
    values and bounds, PIM lengths and chi_KL characters of ``ext1``,
    ``pim`` and ``chikl``. Those three read the elements of dominant
    weights, and a dominant weight lam has <lam + rho, a> >= 1 for every
    simple coroot a, so every alcove with lam in its closure lies in the
    dominant cone: the element of a dominant weight is dominant, and so is
    each coset member that a singular Ext^1 reads. Neither "few" nor
    "dominant" reads or writes a cache file, with or without a cache
    directory. Every table enumerates the slice under the element cap, and
    every path creates the cache directory."""
    rs = rootsys.build_root_system(args.type, args.rank)
    if rows == "all":
        return rs, ensure_table(
            rs, args.cutoff, cache_dir=args.cache_dir, max_elements=args.max_elements
        )
    if args.cache_dir:  # an unusable path fails here, as in ensure_table
        os.makedirs(args.cache_dir, exist_ok=True)
    sl = weylaffine.enumerate_slice(rs, args.cutoff, True, args.max_elements)
    return rs, klpoly.spherical_table(sl) if rows == "dominant" else klpoly.KLTable(sl)


def _coeff_dict(coeffs):
    return {str(e): v for e, v in enumerate(coeffs) if v}


def _coeff_fields(coeffs):
    """The record's coefficient dict and the csv column's JSON of it, as
    ``json.dumps`` writes it: the keys are digit strings, the values ints."""
    d = _coeff_dict(coeffs)
    return d, "{" + ", ".join([f'"{e}": {v}' for e, v in d.items()]) + "}"


def _kl_record(table, x, y):
    coeffs = klpoly.kl_polynomial(table, x, y)  # checks x and y
    length = table.slice.length
    return {
        "x": x,
        "y": y,
        "length_x": length[x],
        "length_y": length[y],
        "polynomial_coeffs": _coeff_dict(coeffs),
        "mu": klpoly.mu(table, x, y),
    }


def cmd_kl(args):
    # a usage error comes before the slice is enumerated or a cache file made
    if args.all:
        _require(args.x is None and args.y is None, "kl --all takes no --x or --y")
    else:
        _require(args.x is not None and args.y is not None, "kl needs --x and --y (or --all)")
    # the complete table, also without a cache: bench/reference.py primes
    # the kl-warm B3@9 table only through this command's ensure_table call
    rs, table = _table_for(args)
    if args.all:
        return _kl_export(table)
    return _kl_record(table, args.x, args.y)


def _kl_export(table):
    """The ``kl --all`` output, as the function of the format that yields
    its pieces: every entry's ``_kl_record`` under "records" and its csv row
    under "csv_rows", as ``_render`` would write that payload.

    Every row is read here, before any output. An entry keeps (x, y, the
    number of its polynomial, mu); each distinct polynomial's pieces are
    rendered once by the generic renderers, and each entry is written
    through one ``%`` template per section and format."""
    length = table.slice.length
    # the columns, in the order of the csv header and of a text record
    columns = ["x", "y", "length_x", "length_y", "polynomial", "mu"]
    polys = []  # (coefficient dict, its JSON) of each distinct polynomial

    def number(coeffs):
        polys.append(_coeff_fields(coeffs))
        return len(polys) - 1

    entries = list(klpoly.kl_entries(table, number))

    def rows(template, cells):
        for x, y, i, m in entries:
            yield template % (x, y, length[x], length[y], cells[i], m)

    def records(blocks):
        # a JSON record's fields in sorted key order; the first takes no comma
        for x, y, i, m in entries:
            yield (',\n    {\n      "length_x": %s,\n      "length_y": %s,\n      "mu": %s,'
                   '\n      "polynomial_coeffs": %s,\n      "x": %s,\n      "y": %s\n    }'
                   % (length[x], length[y], m, blocks[i], x, y))

    def pieces(fmt):
        if fmt == "json":
            yield '{\n  "csv_rows": [\n    ' + "".join(_json(columns, "\n    "))
            yield from rows(",\n    [" + ",".join(["\n      %s"] * 6) + "\n    ]",
                            [_quote(text) for _, text in polys])
            rest = records(["".join(_json(d, "\n      ")) for d, _ in polys])
            yield '\n  ],\n  "records": [' + next(rest)[1:]
            yield from rest
            yield "\n  ]\n}\n"
        elif fmt == "csv":
            # the header line, then each polynomial's quoted column
            header, *cells = _render_csv(
                {"csv_rows": [columns, *([text] for _, text in polys)]}).splitlines()
            yield header + "\n"
            yield from rows("%s,%s,%s,%s,%s,%s\n", cells)
        else:
            yield "csv_rows:\n" + _text([columns], "  ", False)
            yield from rows("\n  - %s" * 6 + "\n  -", [text for _, text in polys])
            yield "\nrecords:"
            yield from rows("\n  x: %s\n  y: %s\n  length_x: %s\n  length_y: %s"
                            "\n  polynomial_coeffs:\n%s\n  mu: %s\n  -",
                            [_text(d, "    ", False) for d, _ in polys])
            yield "\n"

    return pieces


def cmd_mu(args):
    rs, table = _table_for(args, "few")
    return {"x": args.x, "y": args.y, "mu": klpoly.mu(table, args.x, args.y)}


def cmd_mu_sum(args):
    rs, table = _table_for(args, "dominant")
    total, saturated = klpoly.mu_row_sum(table, args.x)
    return {
        "x": args.x,
        "sum": total,
        "status": _status(saturated, table.slice.cutoff),
        "support_window": klpoly.mu_support_window(rs),
    }


def cmd_klsum(args):
    rs, table = _table_for(args, "few")
    return {
        "y": args.y,
        "m": args.m,
        "sum": klpoly.kl_coefficient_sum(table, args.y, args.m),
        "status": "exact",
    }


def cmd_char(args):
    rs = rootsys.build_root_system(args.type, args.rank)
    lam = _parse_weight(args.weight, rs.rank)
    char = characters.weyl_character(rs, lam)
    return {
        "weight": list(lam),
        "dimension": char.dimension(),
        "dominant_multiplicities": {
            ",".join(map(str, wt)): m for wt, m in sorted(char.dom.items())
        },
    }


def cmd_chikl(args):
    rs, table = _table_for(args, "dominant")
    lam = _parse_weight(args.weight, rs.rank)
    ck = characters.chi_kl(rs, lam, args.l, table)
    return {
        "weight": list(lam),
        "l": args.l,
        "lambda_minus": list(ck.lam_minus),
        "terms": [
            {"weight": list(wt), "coefficient": c} for wt, c in ck.terms
        ],
        "dimension": sum(c * characters.weyl_dimension(rs, wt) for wt, c in ck.terms),
    }


def cmd_decomp(args):
    rs, table = _table_for(args)
    seed = _parse_weight(args.seed, rs.rank)
    bound = _parse_weight(args.bound, rs.rank) if args.bound else None
    dm = characters.decomposition_matrix(rs, seed, args.l, bound, table=table)
    weights = [",".join(map(str, wt)) for wt in dm.weights]
    csv_rows = [["weyl\\simple"] + weights]
    for j, nu in enumerate(dm.weights):
        csv_rows.append(
            [weights[j]] + [dm.d_matrix[i][j] for i in range(len(weights))]
        )
    return {
        "l": args.l,
        "lambda_minus": list(dm.lam_minus),
        "block": weights,
        "signed_kl_matrix": [list(r) for r in dm.a_matrix],
        "decomposition_matrix": [list(r) for r in dm.d_matrix],
        "csv_rows": csv_rows,
    }


def cmd_tensor(args):
    rs = rootsys.build_root_system(args.type, args.rank)
    lam = _parse_weight(args.left, rs.rank)
    nu = _parse_weight(args.right, rs.rank)
    comps = characters.tensor_decompose(rs, lam, nu)
    return {
        "left": list(lam),
        "right": list(nu),
        "components": {",".join(map(str, wt)): m for wt, m in comps.items()},
        "total_length": sum(comps.values()),
        "dimension": sum(
            m * characters.weyl_dimension(rs, wt) for wt, m in comps.items()
        ),
    }


def _context_for(args):
    """The root system and the block context on the spherical table: every
    command that takes a context reads dominant pairs only."""
    rs, table = _table_for(args, "dominant")
    ctx = extbounds.make_block_context(rs, args.l, table)
    return rs, ctx


def cmd_ext1(args):
    rs, ctx = _context_for(args)
    lam = _parse_weight(args.lam, rs.rank)
    nu = _parse_weight(args.nu, rs.rank)
    flags = rootsys.classify_weight(rs, lam, args.l)
    if not flags["regular_l"]:
        rep = extbounds.singular_ext1_report(ctx, lam, nu)
        return {
            "lam": list(lam),
            "nu": list(nu),
            "l": args.l,
            "singular": True,
            "stabilizer_order": rep.stabilizer_order,
            "mu_sum": rep.mu_sum,
            "bound": rep.bound,
            "terms": [list(t) for t in rep.terms],
        }
    return {
        "lam": list(lam),
        "nu": list(nu),
        "l": args.l,
        "singular": False,
        "value": extbounds.ext1_deltared_costandard(ctx, lam, nu),
    }


def cmd_extn(args):
    rs, ctx = _context_for(args)
    return {
        "x": args.x,
        "y": args.y,
        "n": args.n,
        "value": extbounds.extn_simple_simple(ctx, args.x, args.y, args.n),
    }


def cmd_extsum(args):
    rs, ctx = _context_for(args)
    rep = extbounds.sum_ext_n(ctx, args.x, args.n)
    return {
        "x": args.x,
        "n": args.n,
        "sum": rep.value,
        "status": _status(rep.saturated, rep.cutoff),
        "support_window": rep.window,
    }


def cmd_pim(args):
    rs, ctx = _context_for(args)
    lam0 = _parse_weight(args.lambda0, rs.rank)
    rep = extbounds.pim_length(ctx, lam0)
    return {
        "lambda0": list(lam0),
        "l": args.l,
        "highest_weight": list(rep.highest_weight),
        "highest_weight_check": rep.highest_weight_check,
        "delta_multiplicities": {
            ",".join(map(str, wt)): m for wt, m in sorted(rep.delta_multiplicities.items())
        },
        "total_length": rep.total_length,
    }


def cmd_bounds(args):
    if args.empirical:
        rs, table = _table_for(args, "dominant")
    else:
        rs, table = rootsys.build_root_system(args.type, args.rank), None
    reports = extbounds.bound_constants(rs, args.p, ns=tuple(args.n), table=table)
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "p": args.p,
        "reports": [
            {
                "constant": r.constant_name,
                "formula_value": r.formula_value,
                "empirical_value": r.empirical_value,
                "status": _status(r.saturated or r.formula_value is not None, args.cutoff),
                "provenance": r.provenance,
            }
            for r in reports
        ],
    }


def cmd_isogeny_map(args):
    if args.type != "C":
        raise UsageError("isogeny-map is defined for type C input")
    rs_c = rootsys.build_root_system("C", args.rank)
    lam = _parse_weight(args.weight, rs_c.rank)
    image = rootsys.special_isogeny_image(rs_c, lam)
    return {
        "source_type": f"C{args.rank}",
        "target_type": f"B{args.rank}",
        "weight": list(lam),
        "image": list(image),
    }


def cmd_generic_shift(args):
    rs = rootsys.build_root_system(args.type, args.rank)
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "p": args.p,
        "n": args.n,
        "max_root_coefficient": max(rs.max_root),
        "torsion_exponent": rs.torsion_exponent,
        "shift": rootsys.generic_shift(rs, args.p, args.n),
    }


def cmd_verify(args):
    rs, table = _table_for(args)
    results = extbounds.run_verification(rs, args.l, table)
    payload = {
        "type": rs.type_label,
        "rank": rs.rank,
        "cutoff": args.cutoff,
        "l": args.l,
        "checks": [
            {"name": name, "result": "PASS" if ok else "FAIL", "detail": detail}
            for name, ok, detail in results
        ],
        "all_passed": all(ok for _, ok, _ in results),
    }
    return payload


def _require(cond, message):
    if not cond:
        raise UsageError(message)


# -- argument wiring ---------------------------------------------------------------
#
# Each adder declares arguments by add_argument calls: on an argparse parser
# in build_parser, and on a _Declared record in _fast_parse and _config.


def _global_args(p):
    p.add_argument("--version", action="version", version=f"klext {__version__}")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--cache-dir", default=None, help=f"cache directory (or ${ENV_CACHE})")
    p.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; the table fill is sequential")
    p.add_argument("--max-elements", type=int, default=None,
                   help="hard cap on enumerated elements")


def _system(sub):
    sub.add_argument("type", help="root system type, one of A-G")
    sub.add_argument("rank", type=int, help="rank")


def _table(sub):
    _system(sub)
    sub.add_argument("--cutoff", type=int, default=10,
                     help="length cutoff for enumeration/tables (default 10)")
    sub.add_argument("--l", type=int, default=0,
                     help="level l (default: Coxeter number h)")


def _requiring(base, *names, type=None, help=None):
    """The argument adder that runs ``base``, then adds a required option
    ``--<name>`` for each of ``names``."""
    def add(sub):
        base(sub)
        for name in names:
            sub.add_argument(f"--{name}", type=type, required=True, help=help)
    return add


def _enumerate_args(sub):
    _system(sub)
    sub.add_argument("--cutoff", type=int, required=True)
    sub.add_argument("--finite", action="store_true", help="finite Weyl group only")
    sub.add_argument("--export-json", default=None,
                     help="write a debug JSON dump of the slice to this path")


def _kl_args(sub):
    _table(sub)
    sub.add_argument("--x", type=int)
    sub.add_argument("--y", type=int)
    sub.add_argument("--all", action="store_true")


def _decomp_args(sub):
    _table(sub)
    sub.add_argument("--seed", required=True, help="regular dominant seed weight")
    sub.add_argument("--bound", default=None, help="ideal cutoff weight (default seed)")


def _bounds_args(sub):
    _system(sub)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, action="append", default=None,
                     help="shift arguments (repeatable; default 1)")
    sub.add_argument("--empirical", action="store_true",
                     help="also compute slice-based empirical maxima")
    sub.add_argument("--cutoff", type=int, default=10)


def _verify_args(sub):
    sub.add_argument("--type", required=True, help="root system type, one of A-G")
    sub.add_argument("--rank", type=int, required=True, help="rank")
    sub.add_argument("--cutoff", type=int, default=10)
    sub.add_argument("--l", type=int, default=0)


# name -> (help, handler, argument adder), in the order --help lists them
COMMANDS = {
    "info": ("root system data as JSON", cmd_info, _system),
    "enumerate": ("enumerate a group slice", cmd_enumerate, _enumerate_args),
    "kl": ("kl over a KL table", cmd_kl, _kl_args),
    "mu": ("mu over a KL table", cmd_mu, _requiring(_table, "x", "y", type=int)),
    "mu-sum": ("mu-sum over a KL table", cmd_mu_sum, _requiring(_table, "x", type=int)),
    "klsum": ("klsum over a KL table", cmd_klsum, _requiring(_table, "y", "m", type=int)),
    "char": ("Weyl character of a dominant weight", cmd_char,
             _requiring(_system, "weight", help="comma-separated coordinates")),
    "chikl": ("signed KL character combination", cmd_chikl, _requiring(_table, "weight")),
    "decomp": ("decomposition matrix of a linkage block", cmd_decomp, _decomp_args),
    "tensor": ("tensor product decomposition", cmd_tensor, _requiring(_system, "left", "right")),
    "ext1": ("Ext^1 dimension between weights", cmd_ext1, _requiring(_table, "lam", "nu")),
    "extn": ("Ext^n dimension between slice elements", cmd_extn,
             _requiring(_table, "x", "y", "n", type=int)),
    "extsum": ("sum of Ext^n dimensions over the slice", cmd_extsum,
               _requiring(_table, "x", "n", type=int)),
    "pim": ("projective cover length data", cmd_pim,
            _requiring(_table, "lambda0", help="restricted weight")),
    "bounds": ("effective constants and empirical maxima", cmd_bounds, _bounds_args),
    "isogeny-map": ("type C -> B weight image", cmd_isogeny_map, _requiring(_system, "weight")),
    "generic-shift": ("Frobenius-twist stabilization shift", cmd_generic_shift,
                      _requiring(_system, "p", "n", type=int)),
    "verify": ("run the invariant battery", cmd_verify, _verify_args),
}


class _Declared:
    """The arguments that an adder declares, for ``_fast_parse`` and
    ``_config``: each positional's (dest, spec) in order, and each option's
    (dest, spec) under its flag, a spec being the keywords of its
    ``add_argument`` call and a dest the attribute that argparse sets."""

    def __init__(self, add):
        self.positionals, self.options = [], {}
        add(self)

    def add_argument(self, name, **spec):
        if name.startswith("-"):
            self.options[name] = (name[2:].replace("-", "_"), spec)
        else:
            self.positionals.append((name, spec))


# the option actions that _fast_parse takes, each with argparse's default
_PLAIN_ACTIONS = {None: None, "store_true": False, "append": None}


def _fast_parse(argv, config=None):
    """The namespace that ``build_parser(config).parse_args(argv)`` returns,
    made without argparse, for a plain command line; None for any other
    line. ``config`` holds ``_config``'s defaults: a flag on the line wins
    over one, and a repeated option's flags add to its list.

    A plain line holds global options, the command name, the command's
    positionals and then its options. Each option is spelled exactly as
    declared (no abbreviation, no ``--opt=value``) and given once, except a
    repeatable one (``bounds --n``); a switch stands alone, and any other
    option takes the next token. No value starts with "-". ``type`` and
    ``choices`` apply as argparse applies them, and every required option
    is there. On such a line argparse reads every token the same way, so
    both parses agree. Every other line declines: -h, --help, --version,
    usage errors, abbreviations, ``--opt=value`` and negative values."""
    config = config or {}
    values = {}

    def value(spec, token):
        # ValueError: the full parser reports or reads the token
        if token.startswith("-"):
            raise ValueError(token)
        convert, choices = spec.get("type"), spec.get("choices")
        v = token if convert is None else convert(token)
        if choices is not None and v not in choices:
            raise ValueError(token)
        return v

    def options(at, declared):
        # the options from argv[at] up to the first token that is not one
        while at < len(argv) and argv[at].startswith("-"):
            flag = argv[at]
            dest, spec = declared.options.get(flag, (None, None))
            if spec is None or spec.get("action") not in _PLAIN_ACTIONS:
                raise ValueError(flag)
            action = spec.get("action")
            if action == "store_true":
                v, at = True, at + 1
            elif at + 1 < len(argv):
                v, at = value(spec, argv[at + 1]), at + 2
            else:
                raise ValueError(flag)
            if action == "append":
                v = [*values.get(dest, config.get(dest, ())), v]
            elif dest in values:
                raise ValueError(flag)
            values[dest] = v
        return at

    top = _Declared(_global_args)
    try:
        at = options(0, top)
        if at == len(argv) or argv[at] not in COMMANDS:
            return None
        name = argv[at]
        _, handler, add = COMMANDS[name]
        command = _Declared(add)
        at += 1
        if len(argv) < at + len(command.positionals):
            return None
        for dest, spec in command.positionals:
            values[dest] = value(spec, argv[at])
            at += 1
        if options(at, command) != len(argv):
            return None
    except ValueError:
        return None
    for declared in (top, command):
        for dest, spec in declared.options.values():
            action = spec.get("action")
            if action in _PLAIN_ACTIONS and dest not in values:
                if spec.get("required"):
                    return None
                values[dest] = config.get(dest, spec.get("default", _PLAIN_ACTIONS[action]))
    return SimpleNamespace(**values, command=name, func=handler)


def build_parser(config=None):
    """The klext argparse parser, with every subcommand of COMMANDS. It
    parses the lines that ``_fast_parse`` declines, and prints --help,
    --version and every usage error.

    ``config`` holds ``_config``'s defaults. A global option's default goes
    on the main parser, since the running subcommand's defaults overwrite
    what the main parser read, a --format before the command name included.
    Any other default goes on every subcommand: only the running one parses,
    and ``_config`` takes only keys that it declares."""
    import argparse

    config = config or {}
    top = {dest for dest, _ in _Declared(_global_args).options.values()}
    parser = argparse.ArgumentParser(prog="klext", description=__doc__.splitlines()[0])
    _global_args(parser)
    parser.set_defaults(**{dest: v for dest, v in config.items() if dest in top})
    rest = {dest: v for dest, v in config.items() if dest not in top}
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, add) in COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        add(sub)
        sub.set_defaults(func=handler, **rest)
    return parser


def _parse(argv, config=None):
    """The parse of the command line ``argv`` with ``_config``'s defaults
    ``config``: ``_fast_parse``'s, or, on a line that it declines, the full
    parser's, which exits where it prints help, the version or a usage
    error. Only those lines import argparse (and through it gettext, and
    locale on its first message)."""
    args = _fast_parse(argv, config)
    return args if args is not None else build_parser(config).parse_args(argv)


def _read_config(path) -> dict:
    """The JSON object in the ``--config`` file at ``path``."""
    import json

    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as ex:  # ValueError: bad JSON or bad UTF-8
        raise UsageError(f"cannot read config file: {ex}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _config(args) -> dict:
    """The values of the ``--config`` file by dest, as defaults for parsing
    the command line again.

    Each key names an option of the global options or of the command that
    runs, one that is not required, and not --help, --version or --config.
    An int option takes a JSON integer (not a bool), a string option a
    string, a switch a bool, and ``choices`` hold. The repeatable ``bounds
    --n`` takes one integer too, which its flags add to."""
    command = _Declared(COMMANDS[args.command][2])
    specs = {dest: spec for declared in (_Declared(_global_args), command)
             for dest, spec in declared.options.values()}
    # the dests that the parse sets from no option, which only the line gives
    fixed = {"help", "command", *(dest for dest, _ in command.positionals)}
    values = {}
    for key, value in _read_config(args.config).items():
        dest = key.replace("-", "_")
        spec = specs.get(dest)
        if spec is None and dest not in fixed:
            raise UsageError(f"unknown config key {key!r}")
        if spec is None or spec.get("required") or dest in ("version", "config"):
            raise UsageError(f"config key {key!r} can only be given on the command line")
        action, choices = spec.get("action"), spec.get("choices")
        kind = bool if action == "store_true" else spec.get("type") or str
        if type(value) is not kind:  # type(True) is bool, not int
            what = {bool: "true or false", int: "an integer", str: "a string"}[kind]
            raise UsageError(f"config key {key!r} must be {what}, not {_dumps(value)}")
        if choices is not None and value not in choices:
            raise UsageError(f"config key {key!r} must be one of {', '.join(choices)}, "
                             f"not {_dumps(value)}")
        values[dest] = [value] if action == "append" else value
    return values


def _check_args(args):
    """The checks and defaults that the parse cannot express."""
    if args.max_elements is not None and args.max_elements < 0:
        raise UsageError(f"--max-elements must be nonnegative, not {args.max_elements}")
    if args.cache_dir is None:
        args.cache_dir = os.environ.get(ENV_CACHE) or None
    l = getattr(args, "l", None)
    if l is not None and l < 0:  # 0 stands for h
        raise UsageError("l must be a positive integer")
    if l == 0:
        args.l = rootsys.build_root_system(args.type, args.rank).coxeter_number
        args.default_l = True
    if getattr(args, "n", None) is None and args.command == "bounds":
        args.n = [1]


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit status; with ``argv`` omitted, as the ``klext`` program runs
    it, end the process with that status instead.

    The program's process ends by ``os._exit`` once its output is written
    and flushed, skipping interpreter teardown, which frees every object
    one by one (about 12% of the geometric mean time of the benchmark's
    warm-cache commands, on 2 vCPUs). That is safe because everything
    klext writes is closed before the command returns: ``_write`` flushes
    stdout, ``binio.write_frame`` writes, fsyncs and renames its file
    inside a ``with`` block, ``enumerate --export-json`` writes inside one,
    and klext registers no ``atexit`` handler. Usage errors, --help and
    --version (argparse's SystemExit), an uncaught exception, and a run
    under a tracer, profiler or monitoring tool, which write their own
    output at exit, end the usual way."""
    status = _run(argv)
    if argv is None and not _observed():
        # the audit above: every file klext wrote is closed, and _write
        # flushed stdout inside its try, so this flush finds stdout's buffer
        # empty or its descriptor on os.devnull; a stream is None when its
        # descriptor was closed at startup
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        os._exit(status)
    return status


def _observed() -> bool:
    """Whether a tracer, a profiler or a ``sys.monitoring`` tool (Python
    3.12+, which profilers and coverage can use instead; tool ids are 0-5)
    watches this process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(i) is not None for i in range(6))


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command line first: --help, --version and its usage errors never
    # read the config file
    args = _parse(argv)

    def show(message, category, *_):
        # one line per warning; none about the l = h the CLI chose itself
        if not (getattr(args, "default_l", False) and issubclass(category, LevelWarning)):
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            if sys.stdout is None:  # its descriptor was closed at startup
                raise OSError("standard output is closed")
            if args.config is not None:
                args = _parse(argv, _config(args))
            _check_args(args)
            payload = args.func(args)
            _write(_render(payload, args.format), sys.stdout)
            # verify reports a failed check, in every format, by exit status 1
            return 0 if callable(payload) or payload.get("all_passed", True) else 1
        except (UsageError, InvalidSystemError, OSError) as ex:
            # OSError: an unusable --cache-dir, cache entry or output path
            print(f"error: {ex}", file=sys.stderr)
            return 2
        except ResourceCapError as ex:
            print(f"resource cap: {ex}", file=sys.stderr)
            return 3
        except (CacheFormatError, InvariantViolation, SliceCoverageError) as ex:
            print(f"error: {ex}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
