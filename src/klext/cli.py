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

import argparse
import json
import os
import sys
import warnings
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


# JSON output is written in pieces joined to about this many characters, so
# that no copy of the whole output exists, and no write of any format is
# longer (see ``_write``). On the 3.95 MB A2@12 ``kl --all``
# export (median of 16 alternating runs into /dev/null, 2 vCPUs, with
# PYTHONUNBUFFERED=1, which makes each write a system call): a write per
# piece took 233 ms against 182 ms at 64 KiB, and one write of the whole
# string 212 ms and 39.1 MB max RSS against 25.7 MB; 4 to 256 KiB were alike
# in time, and 256 KiB held 1 MB more.
CHUNK_CHARS = 1 << 16


def _render(payload, fmt: str):
    """The output of ``payload`` in ``fmt`` as str pieces for ``_write``:
    JSON as many, none longer than one list item, text and csv as one
    each. ``main`` builds the whole payload first, so an error found while
    computing it never follows partial output."""
    if fmt == "json":
        yield from _json(payload, "\n", {})
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


def _json(v, pad: str, memo: dict):
    """The pieces of ``v`` as ``json.dumps(v, sort_keys=True, indent=2)``
    writes it, ``pad`` being a newline and the indentation of the line that
    ``v`` starts on. Every payload's keys are strings; any other key is a
    TypeError.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; this hands a
    str or int leaf to the encoder's C string quoter or to ``int.__repr__``
    and yields one piece per list item. A list of dicts that share one key
    set renders each dict through one ``%`` template of the sorted quoted
    keys, and a list item that is a list renders as one row; the fields and
    cells of both go through ``_cells``."""
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
            yield from _json(v[k], inner, memo)
            sep = "," + inner
        yield pad + "}"
    elif isinstance(v, (list, tuple)):
        if not v:
            yield "[]"
            return
        inner = pad + "  "
        sep, cell = "[" + inner, inner + "  "
        template = _template(v, inner)
        if template is not None:
            fmt, keys = template
            for x in v:
                yield sep + fmt % tuple(_cells(map(x.__getitem__, keys), cell, memo))
                sep = "," + inner
        else:
            for x in v:
                if type(x) in (list, tuple):
                    yield sep + ("[" + cell + ("," + cell).join(_cells(x, cell, memo))
                                 + inner + "]" if x else "[]")
                else:
                    yield sep
                    yield from _json(x, inner, memo)
                sep = "," + inner
        yield pad + "]"
    else:
        yield json.dumps(v)


def _template(v, pad: str):
    """The ``%`` template of a dict item of the list ``v`` at indentation
    ``pad``, and its sorted keys, if every item is a dict with the first
    one's non-empty key set; else None. Key order does not matter: the keys
    are written sorted."""
    first = v[0]
    if type(first) is not dict or not first:
        return None
    keys = first.keys()
    for x in v:
        if type(x) is not dict or x.keys() != keys:
            return None
    ordered = sorted(first)
    inner = pad + "  "
    fields = ("," + inner).join([_quote(k).replace("%", "%%") + ": %s" for k in ordered])
    return "{" + inner + fields + pad + "}", ordered


def _cells(values, pad: str, memo: dict) -> list:
    """The template fields or row cells ``values`` at indentation ``pad``,
    each as one string: a str or int inline, any other value by ``_leaf``."""
    return [int.__repr__(y) if type(y) is int else _quote(y) if type(y) is str
            else _leaf(y, pad, memo) for y in values]


def _leaf(v, pad: str, memo: dict) -> str:
    """A field or cell that is neither a str nor an int, as one string. A
    container renders once per call of ``_render``: ``memo`` keeps its
    string under its ``id`` and ``pad``, since ``kl --all`` gives every
    record of one polynomial the same coefficient dict. The payload keeps
    every such container alive, so no ``id`` is reused during the call."""
    if not isinstance(v, (dict, list, tuple)):
        return json.dumps(v)
    key = (id(v), pad)
    s = memo.get(key)
    if s is None:
        s = memo[key] = "".join(_json(v, pad, memo))
    return s


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
        rows.append([prefix.rstrip("."), json.dumps(payload)])
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

    Text stays one string: yielded in pieces of one line or list item, the
    A2@12 ``kl --all`` text output took 274 ms instead of 252 ms (median of 20
    alternating runs, 2 vCPUs) for 5 MB less max RSS, and no benchmark op
    prints a large text output."""
    if isinstance(v, dict):
        inner = pad + "  "
        return "\n".join([
            f"{pad}{k}: {x}" if not isinstance(x, (dict, list))
            else f"{pad}{k}:\n{_text(x, inner, False)}" if x and not _is_scalar_list(x)
            else f"{pad}{k}: {json.dumps(x) if isinstance(x, list) else x}"
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
    ``ensure_table``. A query that reads a few rows passes "few": without a
    cache directory its table is the enumerated slice's with no row filled,
    so it computes only the rows the query reads, on their first read; with
    one, it gets the complete table. A query that reads dominant pairs only
    passes "dominant" and gets the slice's ``klpoly.spherical_table``, which
    reads and writes no cache file. Every table enumerates the slice under
    the element cap, and every path creates the cache directory."""
    rs = rootsys.build_root_system(args.type, args.rank)
    if rows == "all" or (rows == "few" and args.cache_dir):
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
    """The record's coefficient dict and the csv column's JSON of it."""
    d = _coeff_dict(coeffs)
    return d, json.dumps(d)


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
    # the complete table, also without a cache: bench/reference.py primes
    # the kl-warm B3@9 table only through this command's ensure_table call
    rs, table = _table_for(args)
    if args.all:
        length = table.slice.length
        records = []
        csv_rows = [["x", "y", "length_x", "length_y", "polynomial", "mu"]]
        # the keys in _kl_record's order, which the text format keeps
        for x, y, (coeffs, coeffs_json), m in klpoly.kl_entries(table, _coeff_fields):
            records.append({"x": x, "y": y, "length_x": length[x], "length_y": length[y],
                            "polynomial_coeffs": coeffs, "mu": m})
            csv_rows.append([x, y, length[x], length[y], coeffs_json, m])
        return {"records": records, "csv_rows": csv_rows}
    _require(args.x is not None and args.y is not None, "kl needs --x and --y (or --all)")
    return _kl_record(table, args.x, args.y)


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
    rs, table = _table_for(args)
    lam = _parse_weight(args.weight, rs.rank)
    ck = characters.chi_kl(rs, lam, args.l, table)
    return {
        "weight": list(lam),
        "l": args.l,
        "lambda_minus": list(ck.lam_minus),
        "terms": [
            {"weight": list(wt), "coefficient": c} for wt, c in ck.terms
        ],
        "dimension": ck.expand().dimension(),
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


def _context_for(args, rows="all"):
    rs, table = _table_for(args, rows)
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
    rs, ctx = _context_for(args, "dominant")
    return {
        "x": args.x,
        "y": args.y,
        "n": args.n,
        "value": extbounds.extn_simple_simple(ctx, args.x, args.y, args.n),
    }


def cmd_extsum(args):
    rs, ctx = _context_for(args, "dominant")
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


def _add_system(sub, positional=True):
    if positional:
        sub.add_argument("type", help="root system type, one of A-G")
        sub.add_argument("rank", type=int, help="rank")
    else:
        sub.add_argument("--type", required=True, help="root system type, one of A-G")
        sub.add_argument("--rank", type=int, required=True, help="rank")


def _add_table_args(sub):
    sub.add_argument("--cutoff", type=int, default=10,
                     help="length cutoff for enumeration/tables (default 10)")
    sub.add_argument("--l", type=int, default=0,
                     help="level l (default: Coxeter number h)")


def build_parser() -> argparse.ArgumentParser:
    """The klext parser. It knows nothing of the ``--config`` file: ``main``
    parses the command line, lets ``_apply_config`` make the file's values
    defaults of their options, and parses the command line again."""
    parser = argparse.ArgumentParser(
        prog="klext",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--version", action="version", version=f"klext {__version__}")
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--cache-dir", default=None,
                        help=f"cache directory (or ${ENV_CACHE})")
    parser.add_argument("--format", choices=("json", "text", "csv"), default="text")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; the table fill is sequential")
    parser.add_argument("--max-elements", type=int, default=None,
                        help="hard cap on enumerated elements")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("info", help="root system data as JSON")
    _add_system(s)
    s.set_defaults(func=cmd_info)

    s = subs.add_parser("enumerate", help="enumerate a group slice")
    _add_system(s)
    s.add_argument("--cutoff", type=int, required=True)
    s.add_argument("--finite", action="store_true", help="finite Weyl group only")
    s.add_argument("--export-json", default=None,
                   help="write a debug JSON dump of the slice to this path")
    s.set_defaults(func=cmd_enumerate)

    for name, fn, extra in (
        ("kl", cmd_kl, "kl"),
        ("mu", cmd_mu, "xy"),
        ("mu-sum", cmd_mu_sum, "x"),
        ("klsum", cmd_klsum, "ym"),
    ):
        s = subs.add_parser(name, help=f"{name} over a KL table")
        _add_system(s)
        _add_table_args(s)
        if extra == "kl":
            s.add_argument("--x", type=int)
            s.add_argument("--y", type=int)
            s.add_argument("--all", action="store_true")
        elif extra == "xy":
            s.add_argument("--x", type=int, required=True)
            s.add_argument("--y", type=int, required=True)
        elif extra == "x":
            s.add_argument("--x", type=int, required=True)
        else:
            s.add_argument("--y", type=int, required=True)
            s.add_argument("--m", type=int, required=True)
        s.set_defaults(func=fn)

    s = subs.add_parser("char", help="Weyl character of a dominant weight")
    _add_system(s)
    s.add_argument("--weight", required=True, help="comma-separated coordinates")
    s.set_defaults(func=cmd_char)

    s = subs.add_parser("chikl", help="signed KL character combination")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--weight", required=True)
    s.set_defaults(func=cmd_chikl)

    s = subs.add_parser("decomp", help="decomposition matrix of a linkage block")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--seed", required=True, help="regular dominant seed weight")
    s.add_argument("--bound", default=None, help="ideal cutoff weight (default seed)")
    s.set_defaults(func=cmd_decomp)

    s = subs.add_parser("tensor", help="tensor product decomposition")
    _add_system(s)
    s.add_argument("--left", required=True)
    s.add_argument("--right", required=True)
    s.set_defaults(func=cmd_tensor)

    s = subs.add_parser("ext1", help="Ext^1 dimension between weights")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--lam", required=True)
    s.add_argument("--nu", required=True)
    s.set_defaults(func=cmd_ext1)

    s = subs.add_parser("extn", help="Ext^n dimension between slice elements")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--y", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_extn)

    s = subs.add_parser("extsum", help="sum of Ext^n dimensions over the slice")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_extsum)

    s = subs.add_parser("pim", help="projective cover length data")
    _add_system(s)
    _add_table_args(s)
    s.add_argument("--lambda0", required=True, help="restricted weight")
    s.set_defaults(func=cmd_pim)

    s = subs.add_parser("bounds", help="effective constants and empirical maxima")
    _add_system(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, action="append", default=None,
                   help="shift arguments (repeatable; default 1)")
    s.add_argument("--empirical", action="store_true",
                   help="also compute slice-based empirical maxima")
    s.add_argument("--cutoff", type=int, default=10)
    s.set_defaults(func=cmd_bounds)

    s = subs.add_parser("isogeny-map", help="type C -> B weight image")
    _add_system(s)
    s.add_argument("--weight", required=True)
    s.set_defaults(func=cmd_isogeny_map)

    s = subs.add_parser("generic-shift", help="Frobenius-twist stabilization shift")
    _add_system(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.set_defaults(func=cmd_generic_shift)

    s = subs.add_parser("verify", help="run the invariant battery")
    _add_system(s, positional=False)
    s.add_argument("--cutoff", type=int, default=10)
    s.add_argument("--l", type=int, default=0)
    s.set_defaults(func=cmd_verify)

    return parser


def _read_config(path) -> dict:
    """The JSON object in the ``--config`` file at ``path``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as ex:  # ValueError: bad JSON or bad UTF-8
        raise UsageError(f"cannot read config file: {ex}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _apply_config(args, parser):
    """Make each value of the ``--config`` file the default of its option on
    ``parser`` or on the subcommand that runs, so that parsing the command
    line again takes the value and a flag given there still wins.

    Each key is looked up once, on those two parsers. It must name an
    optional flag that is not required, and not --help, --version or
    --config. An int option takes a JSON integer (not a bool), a string
    option a string, a switch a bool, and ``choices`` hold. The repeatable
    ``bounds --n`` takes one integer too, which its flags add to."""
    subs = next(a for a in parser._actions if a.dest == "command")
    owners = {a.dest: (p, a) for p in (parser, subs.choices[args.command]) for a in p._actions}
    for key, value in _read_config(args.config).items():
        attr = key.replace("-", "_")
        if attr not in owners:  # neither the main parser nor the subcommand has it
            raise UsageError(f"unknown config key {key!r}")
        owner, action = owners[attr]
        if (not action.option_strings or action.required
                or attr in ("help", "version", "config")):
            raise UsageError(f"config key {key!r} can only be given on the command line")
        kind = bool if action.nargs == 0 else action.type or str
        if type(value) is not kind:  # type(True) is bool, not int
            what = {bool: "true or false", int: "an integer", str: "a string"}[kind]
            raise UsageError(f"config key {key!r} must be {what}, not {json.dumps(value)}")
        if action.choices is not None and value not in action.choices:
            raise UsageError(f"config key {key!r} must be one of {', '.join(action.choices)}, "
                             f"not {json.dumps(value)}")
        append = isinstance(action, argparse._AppendAction)
        owner.set_defaults(**{attr: [value] if append else value})


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
    parser = build_parser()
    # the command line first: --help, --version and its usage errors never
    # read the config file
    args = parser.parse_args(argv)

    def show(message, category, *_):
        # one line per warning; none about the l = h the CLI chose itself
        if not (getattr(args, "default_l", False) and issubclass(category, LevelWarning)):
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            if args.config is not None:
                _apply_config(args, parser)
                args = parser.parse_args(argv)
            _check_args(args)
            payload = args.func(args)
            _write(_render(payload, args.format), sys.stdout)
            # verify reports a failed check, in every format, by exit status 1
            return 0 if payload.get("all_passed", True) else 1
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
