"""Command-line front end: batch computation, cache management, reports.

Every numeric output is an exact integer or rational rendered without
rounding. Quantities summed over infinite index sets are labeled either
``exact`` or ``truncated@L`` (L the slice cutoff); nothing truncated is
ever presented as exact. Outputs are deterministic given identical
configuration and cache state, and cache reuse never changes any number.

Exit codes: 0 success; 1 invariant violation (``verify``) or cache
corruption; 2 invalid configuration; 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import warnings

from . import __version__, klpoly, rootsys, weylaffine
from .errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
    LevelWarning,
    ResourceCapError,
    SliceCoverageError,
)

ENV_CACHE = "KLEXT_CACHE_DIR"


def _deferred(name: str):
    """The submodule klext.<name>, registered like an import but executed on
    its first attribute access, so that a command that never uses it does not
    pay for it. Code that looks it up in ``sys.modules`` or on the package
    finds it as after a plain import."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# used only by the character and Ext commands; with dataclasses and inspect
# they are about a fifth of the import time of this module
characters = _deferred("characters")
extbounds = _deferred("extbounds")


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


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_csv(payload)
    return _render_text(payload)


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


def _render_text(payload, indent=0) -> str:
    out = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in payload if indent else sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                out.append(f"{pad}{k}:")
                out.append(_render_text(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                out.append(_render_text(item, indent).rstrip("\n"))
                out.append(f"{pad}-")
            else:
                out.append(f"{pad}- {_scalar(item)}")
    else:
        out.append(f"{pad}{_scalar(payload)}")
    return "\n".join(x for x in out if x != "") + ("\n" if indent == 0 else "")


def _is_scalar_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _scalar(v):
    if isinstance(v, list):
        return json.dumps(v)
    return v


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


def _table_for(args, affine=True):
    rs = rootsys.build_root_system(args.type, args.rank)
    table = ensure_table(
        rs, args.cutoff, affine=affine, cache_dir=args.cache_dir,
        max_elements=args.max_elements,
    )
    return rs, table


def _kl_record(table, x, y):
    sl = table.slice
    coeffs = klpoly.kl_polynomial(table, x, y)
    return {
        "x": x,
        "y": y,
        "length_x": sl.length[x],
        "length_y": sl.length[y],
        "polynomial_coeffs": {str(e): v for e, v in enumerate(coeffs) if v},
        "mu": klpoly.mu(table, x, y),
    }


def cmd_kl(args):
    rs, table = _table_for(args)
    sl = table.slice
    if args.all:
        records = []
        csv_rows = [["x", "y", "length_x", "length_y", "polynomial", "mu"]]
        for y in range(len(sl)):
            for x in sorted(table.rows_for(y)):
                rec = _kl_record(table, x, y)
                records.append(rec)
                csv_rows.append(
                    [x, y, sl.length[x], sl.length[y],
                     json.dumps(rec["polynomial_coeffs"]), rec["mu"]]
                )
        return {"records": records, "csv_rows": csv_rows}
    _require(args.x is not None and args.y is not None, "kl needs --x and --y (or --all)")
    return _kl_record(table, args.x, args.y)


def cmd_mu(args):
    rs, table = _table_for(args)
    return {"x": args.x, "y": args.y, "mu": klpoly.mu(table, args.x, args.y)}


def cmd_mu_sum(args):
    rs, table = _table_for(args)
    total, saturated = klpoly.mu_row_sum(table, args.x)
    return {
        "x": args.x,
        "sum": total,
        "status": _status(saturated, table.slice.cutoff),
        "support_window": klpoly.mu_support_window(rs),
    }


def cmd_klsum(args):
    rs, table = _table_for(args)
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


def _context_for(args):
    rs, table = _table_for(args)
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
    rs = rootsys.build_root_system(args.type, args.rank)
    table = None
    if args.empirical:
        table = ensure_table(
            rs, args.cutoff, cache_dir=args.cache_dir, max_elements=args.max_elements
        )
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
                "status": "exact" if r.saturated or r.formula_value is not None
                else f"truncated@{args.cutoff}",
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
    rs = rootsys.build_root_system(args.type, args.rank)
    table = ensure_table(
        rs, args.cutoff, cache_dir=args.cache_dir, max_elements=args.max_elements
    )
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


def build_parser(config=None) -> argparse.ArgumentParser:
    """The klext parser. Each key of ``config`` becomes the default of the
    option of that name, on the main parser or on every subcommand that has
    it, so that a flag given on the command line always wins."""
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

    for key, value in (config or {}).items():
        attr = key.replace("-", "_")
        for p in (parser, *subs.choices.values()):
            for action in p._actions:
                if action.dest == attr:
                    p.set_defaults(**{attr: _config_value(key, value, action)})
    return parser


def _config_value(key, value, action):
    """``value`` checked like the flag ``action`` it sets: an int option takes
    a JSON integer (not a bool), a string option a string, a switch a bool,
    and ``choices`` hold. The repeatable ``bounds --n`` takes one integer too,
    which its flags add to."""
    kind = bool if action.nargs == 0 else action.type or str
    if type(value) is not kind:  # type(True) is bool, not int
        what = {bool: "true or false", int: "an integer", str: "a string"}[kind]
        raise UsageError(f"config key {key!r} must be {what}, not {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {key!r} must be one of {', '.join(action.choices)}, "
            f"not {json.dumps(value)}"
        )
    return [value] if isinstance(action, argparse._AppendAction) else value


def _read_config(argv) -> dict:
    """The contents of the ``--config`` file, found before the parse."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:  # reported by the parse itself
        return {}
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as ex:  # ValueError: bad JSON or bad UTF-8
        raise UsageError(f"cannot read config file: {ex}")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    return config


def _apply_config(args, config):
    for key in config:
        # a key that neither the main parser nor the subcommand has
        if not hasattr(args, key.replace("-", "_")):
            raise UsageError(f"unknown config key {key!r}")
    if args.cache_dir is None:
        args.cache_dir = os.environ.get(ENV_CACHE) or None
    if getattr(args, "l", None) == 0 and hasattr(args, "type"):
        rs = rootsys.build_root_system(args.type, args.rank)
        args.l = rs.coxeter_number
        args.default_l = True
    if getattr(args, "n", None) is None and args.command == "bounds":
        args.n = [1]


def main(argv=None) -> int:
    try:
        config = _read_config(argv)
        parser = build_parser(config)
    except UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)

    def show(message, category, *_):
        # one line per warning; none about the l = h the CLI chose itself
        if not (getattr(args, "default_l", False) and issubclass(category, LevelWarning)):
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        return _run(args, config)


def _run(args, config) -> int:
    try:
        _apply_config(args, config)
        payload = args.func(args)
        if args.command == "verify":
            # keep a stable textual report regardless of --format
            sys.stdout.write(_render(payload, args.format))
            return 0 if payload["all_passed"] else 1
        sys.stdout.write(_render(payload, args.format))
        return 0
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
