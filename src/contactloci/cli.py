"""Command line orchestration.

Subcommands cover the individual pipeline stages (validate, resolve,
separate, weights, e1, hc, mclean, zeta, lefschetz, check-euler) and the
oracles (oracle-count, oracle-chi, verify-fibration); ``report`` runs the
whole pipeline with cross checks.  Exit codes: 0 success or pass, 1 a
check failed, 2 usage or input error, 141 stdout closed by its reader.

A command line that starts with a subcommand's name is parsed from that
subcommand's argparse parser alone.  ``_quick_args`` reads its options
straight from the parser's actions when the line holds only exact
options, each once, as ``--opt value`` or ``--opt=value`` (a flag bare),
no value after a space starts with ``-``, every value converts, and the
required options and groups are met without a conflict.  Any other line
goes to argparse, which parses it or prints every usage error and help
text.  ``build_parser`` is the one place options are declared.

The last ``--poly`` text's polynomial and resolution are kept, one entry
each (``_parsed``, ``_resolved``), and repeated ``main`` calls in one process
share them; ``cache_clear()`` on each empties it.  ``--poly-json`` and
``--config`` are read on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import covers as covers_mod
from .curves import ResolutionLog, resolve_plane_curve, resolve_univariate
from .errors import ContactLociError
from .jets import (
    contact_count,
    export_counts_csv,
    interpolate_chi,
    stratified_count,
    verify_chart_fibration,
)
from .lefschetz import cross_check_euler, lefschetz_number, zeta_factorization
from .model import SncConfiguration, to_json_dict, validate_configuration
from .polys import SparsePolynomial, parse_polynomial
from .separation import separate
from .spectral import (
    contributing_set,
    degeneration_analysis,
    e1_page,
    group_text,
    mclean_relabel,
    rational_gap_analysis,
    render_page_table,
    stratum_dimension,
)
from .weights import AMPLE_NOTE, WeightVector, solve_weights, validate_weights

DEFAULT_PRIME_POOL = (3, 5, 7, 11, 13)
_encode_str = json.encoder.encode_basestring_ascii


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}") from None


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive")
_nonnegative_int = _int_at_least(0, "a nonnegative")


def _congruence(text: str) -> tuple[int, int]:
    values = _int_list(text)
    if len(values) != 2 or values[1] < 1:
        raise argparse.ArgumentTypeError(f"expected 'r,mod' with mod >= 1, got {text!r}")
    return values[0], values[1]


def _add_input_options(parser: argparse.ArgumentParser, need_m: bool = False, config: bool = True):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", help="polynomial expression, e.g. 'x^2 + y^3'")
    group.add_argument("--poly-json", help="path to a sparse-monomial JSON document")
    if config:
        group.add_argument("--config", help="path to a configuration JSON file")
    if need_m:
        parser.add_argument("--m", type=_positive_int, required=True, help="contact order m >= 1")


def _add_weight_options(parser: argparse.ArgumentParser):
    parser.add_argument("--weights", help="JSON map divisor id -> weight, overrides the solver")
    parser.add_argument("--scale", type=_positive_int, default=1, help="scale factor applied to the weights")


def _add_oracle_options(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--primes", type=_int_list, help="comma separated primes for the jet oracle")
    group.add_argument(
        "--congruence", type=_congruence, help="filter the default pool 3,5,7,11,13: 'r,mod'"
    )
    parser.add_argument("--level", type=_positive_int, default=None)
    parser.add_argument("--node-cap", type=_positive_int, default=None)


def _read_json(text: str, source: str):
    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ContactLociError(f"{source}: a JSON object names the key {key!r} twice")
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ContactLociError(f"{source}: {exc}") from None
    except RecursionError:
        raise ContactLociError(f"{source}: JSON nests too deeply") from None


# Keyed on the --poly text, not the polynomial, whose equality ignores the
# multiplicands the resolver reads; a call that raises is not cached.
@functools.lru_cache(maxsize=1)
def _parsed(text: str) -> SparsePolynomial:
    return parse_polynomial(text)[0]


@functools.lru_cache(maxsize=1)
def _resolved(text: str) -> tuple[SncConfiguration, ResolutionLog | None]:
    return _resolve(_parsed(text))


def _resolve(poly: SparsePolynomial) -> tuple[SncConfiguration, ResolutionLog | None]:
    """The configuration and resolution log of a germ; no log for one variable."""
    return (resolve_univariate(poly), None) if poly.nvars == 1 else resolve_plane_curve(poly)


def _load_poly(args) -> SparsePolynomial:
    if args.poly is not None:
        return _parsed(args.poly)
    with open(args.poly_json) as handle:
        return SparsePolynomial.from_json_dict(_read_json(handle.read(), args.poly_json))


def _load_input(args) -> tuple[SncConfiguration, WeightVector | None, SparsePolynomial | None]:
    """Configuration, optional file-supplied weights, and the polynomial
    it was resolved from (None for --config)."""
    if args.config is not None:
        with open(args.config) as handle:
            data = _read_json(handle.read(), args.config)
        cfg = SncConfiguration.from_json_dict(data)
        w = None
        if "weights" in data and data["weights"] is not None:
            w = WeightVector.from_json_dict(data["weights"])
        return cfg, w, None
    poly = _load_poly(args)
    cfg, _ = _resolve(poly) if args.poly is None else _resolved(args.poly)
    return cfg, None, poly


def _prepare_pipeline(args, m: int | None):
    """Resolve, separate at m (not at all when m is None), and choose the
    weights: --weights, else the config file's, else the solver's; scaled
    by --scale and checked.  Shared by weights, report and ``_page``."""
    cfg, file_weights, poly = _load_input(args)
    sep, records = (cfg, []) if m is None else separate(cfg, m)
    if args.weights:
        w = WeightVector.from_json_dict(_read_json(args.weights, "--weights"))
    elif file_weights is not None:
        w = file_weights
    else:
        w = solve_weights(sep)
    if args.scale != 1:
        w = w.scaled(args.scale)
    if not validate_weights(sep, w):
        raise ContactLociError("the weight vector fails the ampleness constraints")
    return cfg, sep, records, w, poly


def _json_key(key) -> str:
    """A dict key as the stdlib's encoder converts it to a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, int) and not isinstance(key, bool):
        return int.__repr__(key)
    if key is None or isinstance(key, (bool, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


@functools.cache
def _layout(cls: type, indent: str) -> tuple[tuple[str, int], ...]:
    """The fields of a record class in key order, each as its key prefix at
    the depth that ``indent`` starts and its index in the record."""
    inner = indent + "  "
    fields = sorted((name, i) for i, name in enumerate(cls._fields))
    return tuple((f"{inner}{_encode_str(name)}: ", i) for name, i in fields)


def _write_json(value, out: list, indent: str) -> None:
    """Append ``value`` to ``out`` as the pieces of ``json.dumps(value,
    indent=2, sort_keys=True)``, byte for byte; ``indent`` is the newline
    and spaces that start a line at the value's depth.

    A record (a tuple subclass with a ``to_json_dict``) is written as its
    JSON: its fields in sorted order, with None fields left out, unless the
    class defines its own ``to_json_dict``, whose result is written instead.
    A record of fields is written straight from them, one piece per field
    with the key prefixes ``_layout`` keeps for its class and depth; no
    dict is built and no key sorted.  Other tuple subclasses are lists, as
    in the stdlib.

    Given an indent, the stdlib encoder leaves its C code for a generator
    per container; this makes one call per container, and a leaf of type
    exactly int, str, bool or None is one append with its prefix and comma.
    A module-level function, so that no closure cell keeps ``out`` alive.
    """
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple and isinstance(value, tuple):
        own = getattr(kind, "to_json_dict", None)
        if own is to_json_dict:
            # its own loop: one shared with dicts and lists cost their items
            # a test each and the writer 4 % on a ladder pass
            inner = indent + "  "
            out.append("{")
            for prefix, index in _layout(kind, indent):
                item = value[index]
                kind = type(item)
                if kind is int:
                    out.append(f"{prefix}{item},")
                elif kind is str:
                    out.append(f"{prefix}{_encode_str(item)},")
                elif kind is bool:
                    out.append(prefix + ("true," if item else "false,"))
                elif item is not None:
                    out.append(prefix)
                    _write_json(item, out, inner)
                    out.append(",")
            out[-1] = "{}" if out[-1] == "{" else out[-1][:-1] + indent + "}"
            return
        if own is not None:
            value = value.to_json_dict()
    if isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        inner = prefix = indent + "  "
        out.append("{" if is_dict else "[")
        for item in sorted(value) if is_dict else value:
            if is_dict:
                prefix = f"{inner}{_encode_str(item if type(item) is str else _json_key(item))}: "
                item = value[item]
            kind = type(item)
            if kind is int:
                out.append(f"{prefix}{item},")
            elif kind is str:
                out.append(f"{prefix}{_encode_str(item)},")
            elif kind is bool:
                out.append(prefix + ("true," if item else "false,"))
            elif item is None:
                out.append(prefix + "null,")
            else:
                out.append(prefix)
                _write_json(item, out, inner)
                out.append(",")
        out[-1] = out[-1][:-1] + indent + ("}" if is_dict else "]")  # drops the last comma
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _hc_table(hc) -> str:
    lines = []
    for s in hc.statuses:
        if s.kind == "exact":
            suffix = " (graded)" if s.graded_only else ""
            lines.append(f"H_c^{s.degree} = {group_text(s.rank, s.torsion, ' + ')}{suffix}")
        elif s.kind == "rational_exact":
            lines.append(f"H_c^{s.degree}: rational rank {s.rank} (integral undetermined)")
        else:
            lines.append(f"H_c^{s.degree}: rational rank in [{s.lo}, {s.hi}]")
    lines.append(f"euler characteristic: {hc.euler}")
    if hc.integral_forced:
        lines.append("degeneration: integral page forced")
    elif hc.rational_window_forced:
        lines.append("degeneration: rational window forced")
    else:
        lines.append("degeneration: differentials possible")
    return "\n".join(lines)


def _config_table(cfg: SncConfiguration) -> str:
    lines = [f"ambient_dim {cfg.ambient_dim}, center {cfg.sigma}"]
    for d in cfg.divisors:
        bits = [f"m={d.mult}", f"nu={d.disc}"]
        if d.self_int is not None:
            bits.append(f"self={d.self_int}")
        bits.append("exceptional" if d.exceptional else "strict")
        if d.over_sigma:
            bits.append("over-sigma")
        lines.append(f"  {d.label} (id {d.id}): " + ", ".join(bits))
    for c in cfg.cells:
        labels = " . ".join(cfg.divisor(i).label for i in c.ids)
        lines.append(f"  cell {labels}: {c.count} point(s)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (JSON data, text table, exit
# code) and prints nothing; ``main`` writes the one the --format asks for.
# ``report`` builds its table only for --format table, None otherwise.

def _cmd_validate(args):
    cfg, _, _ = _load_input(args)
    issues = validate_configuration(cfg)
    data = {"valid": not issues, "issues": [str(i) for i in issues]}
    table = "valid" if not issues else "\n".join(str(i) for i in issues)
    return data, table, 0 if not issues else 1


def _cmd_resolve(args):
    cfg, log = _resolve(_load_poly(args)) if args.poly is None else _resolved(args.poly)
    if log is None:
        return {"configuration": cfg, "blowups": []}, _config_table(cfg), 0
    data = {
        "configuration": cfg,
        "factors": [{"label": f"D{j + 1}", "poly": text, "mult": e} for j, text, e in log.factors],
        "blowups": [
            {
                "new": f"E{rec.new_index + 1}",
                "site": rec.site,
                "axes": [f"E{i + 1}" for i in rec.axis_indices],
                "strict_mults": [[f"D{j + 1}", mu] for j, mu in rec.strict_mults],
                "mult": rec.mult,
                "disc": rec.disc,
            }
            for rec in log.blowups
        ],
    }
    return data, _config_table(cfg) + f"\n{len(log.blowups)} blowup(s)", 0


def _cmd_separate(args):
    cfg, _, _ = _load_input(args)
    sep, records = separate(cfg, args.m)
    data = {"configuration": sep, "subdivisions": records}
    return data, _config_table(sep) + f"\n{len(records)} subdivision(s)", 0


def _cmd_weights(args):
    _, sep, _, w, _ = _prepare_pipeline(args, args.m)
    data = {"weights": w, "note": AMPLE_NOTE}
    labels = {d.id: d.label for d in sep.divisors}
    table = "\n".join(f"w[{labels[i]}] = {value}" for i, value in w.entries)
    return data, table + f"\n({AMPLE_NOTE})", 0


def _page(args):
    """The configuration, its separation at --m and the E1 page there
    (e1/hc/mclean/check-euler)."""
    cfg, sep, _, w, _ = _prepare_pipeline(args, args.m)
    return cfg, sep, e1_page(sep, w, args.m)


def _cmd_e1(args):
    _, sep, page = _page(args)
    data = {"page": page, "euler": page.euler_characteristic()}
    table = render_page_table(page, sep) + f"\neuler characteristic: {page.euler_characteristic()}"
    return data, table, 0


def _cmd_hc(args):
    _, _, page = _page(args)
    hc = degeneration_analysis(page)
    data = {"hc": hc}
    table = _hc_table(hc)
    if args.gap_analysis:
        gap = rational_gap_analysis(page)
        data["gap_analysis"] = gap
        table += (
            f"\ngap analysis (scale {gap['scale']}): rational ranks "
            f"{gap['rational_ranks']} [{gap['note']}]"
        )
    return data, table, 0


def _cmd_mclean(args):
    _, sep, page = _page(args)
    page = mclean_relabel(page)
    data = {"page": page, "total_shift": page.total_shift}
    table = render_page_table(page, sep) + f"\ntotal degree shift: {page.total_shift}"
    return data, table, 0


def _cmd_zeta(args):
    cfg, _, _ = _load_input(args)
    zeta = zeta_factorization(cfg)
    return {"zeta": zeta, "rendered": zeta.render()}, zeta.render(), 0


def _cmd_lefschetz(args):
    cfg, _, _ = _load_input(args)
    value = lefschetz_number(cfg, args.m)
    return {"m": args.m, "lefschetz": value}, f"Lambda(phi^{args.m}) = {value}", 0


def _cmd_check_euler(args):
    cfg, _, page = _page(args)
    check = cross_check_euler(page, cfg)
    verdict = "PASS" if check.passed else "FAIL"
    table = (
        f"page euler = {check.page_euler}, lefschetz = {check.lefschetz}: {verdict}"
    )
    return check, table, 0 if check.passed else 1


def _pool(args) -> list[int]:
    if args.primes:
        return args.primes
    pool = list(DEFAULT_PRIME_POOL)
    if args.congruence:
        r, mod = args.congruence
        pool = [q for q in pool if q % mod == r % mod]
    return pool


def _oracle_fit(args, poly: SparsePolynomial, level: int, expected_dim: int | None):
    """Jet counts of ``poly`` at contact order --m and ``level`` over the
    prime pool, and their fit at q = 1 (oracle-chi and report --primes)."""
    counts = [
        (q, contact_count(poly, args.m, level, q, node_cap=args.node_cap).total)
        for q in _pool(args)
    ]
    return counts, interpolate_chi(counts, expected_dim)


def _cmd_oracle_count(args):
    poly = _load_poly(args)
    level = args.level or args.m
    if args.strata:
        report = stratified_count(poly, args.m, level, args.q, node_cap=args.node_cap)
    else:
        report = contact_count(poly, args.m, level, args.q, node_cap=args.node_cap)
    table = f"count = {report.total} (m={args.m}, level={level}, q={args.q})"
    for orders, n in report.strata:
        table += f"\n  ord {tuple(orders)}: {n}"
    return report, table, 0


def _cmd_oracle_chi(args):
    counts, fit = _oracle_fit(args, _load_poly(args), args.level or args.m, args.expected_dim)
    if args.csv:
        export_counts_csv(args.csv, counts)
    # all-zero counts fit no degree: an empty locus matches no stated dimension
    degree_match = args.expected_dim is None or fit.degree == args.expected_dim
    passed = fit.conclusive and degree_match
    data = {"counts": [[q, n] for q, n in counts], "fit": fit}
    if args.expected_dim is not None:
        data.update(expected_dim=args.expected_dim, degree_match=degree_match)
    table = "\n".join([f"q={q}: {n}" for q, n in counts])
    table += f"\nfit: {fit.render()}"
    table += f"\nchi estimate at q=1: {fit.chi}" if passed else f"\n{fit.message}"
    return data, table, 0 if passed else 1


def _cmd_verify_fibration(args):
    report = verify_chart_fibration(
        args.m, args.level, args.q, args.d, args.nu, node_cap=args.node_cap
    )
    verdict = "PASS" if report.passed else "FAIL"
    table = (
        f"fibers over {report.n_images} images: histogram {dict(report.fiber_histogram)}, "
        f"expected {report.expected_fiber}: {verdict}"
    )
    return report, table, 0 if report.passed else 1


def _cmd_report(args):
    if args.config is not None and (args.primes or args.congruence):
        raise ContactLociError("the jet oracle needs a polynomial input, not a configuration")
    m = args.m
    cfg, sep, records, w, poly = _prepare_pipeline(args, m)
    desc = f"config:{args.config}" if poly is None else poly.render()
    cset = contributing_set(sep, w, m)
    cover_data = covers_mod.covers_for(sep, cset.ids())
    page = e1_page(sep, w, m, cover_data)
    hc = degeneration_analysis(page)
    zeta = zeta_factorization(cfg)
    rendered = zeta.render()
    check = cross_check_euler(page, cfg)

    oracle = None
    passed = check.passed
    if args.primes or args.congruence:
        level = args.level or m
        dims = [stratum_dimension(sep, i, m, jet_level=level) for i in cset.ids()]
        expected_dim = max(dims) if dims else None
        counts, fit = _oracle_fit(args, poly, level, expected_dim)
        chi_match = fit.conclusive and fit.chi == check.lefschetz
        # all-zero counts fit degree None, and expected_dim is None exactly when S_m is empty
        degree_match = fit.conclusive and fit.degree == expected_dim
        passed = passed and chi_match and degree_match
        oracle = {
            "level": level,
            "counts": [[q, n] for q, n in counts],
            "fit": fit,
            "expected_dim": expected_dim,
            "chi_match": chi_match,
            "degree_match": degree_match,
        }

    verdict = "PASS" if passed else "FAIL"
    data = {
        "input": desc,
        "m": m,
        "configuration": sep,
        "subdivisions": records,
        "weights": w,
        "weights_note": AMPLE_NOTE,
        "contributing": cset,
        "covers": [cover_data[i] for i in sorted(cover_data)],
        "page": page,
        "hc": hc,
        "zeta": {"factors": zeta, "rendered": rendered},
        "lefschetz": check.lefschetz,
        "euler_cross_check": check,
        "oracle": oracle,
        "verdict": verdict,
    }
    if args.format != "table":
        return data, None, 0 if passed else 1
    table = [
        f"input: {desc}  m={m}",
        f"weights: {w.to_json_dict()} ({AMPLE_NOTE})",
        f"zeta: {rendered}",
        f"lefschetz: Lambda = {check.lefschetz}",
        _hc_table(hc),
        f"euler cross check: page {check.page_euler} vs lefschetz {check.lefschetz}: "
        + ("PASS" if check.passed else "FAIL"),
    ]
    if oracle is not None:  # with fit and chi_match from the oracle above
        table.append(f"oracle counts: {oracle['counts']}")
        table.append(f"oracle fit: {fit.render()} (chi {fit.chi}, match {chi_match})")
    table.append(f"verdict: {verdict}")
    return data, "\n".join(table), 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs far more than parsing an argv.  Its
    ``commands`` map each subcommand name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="contactloci",
        description="contact locus pages, Euler oracles and jet counts from log resolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=func)
        return p

    p = command("validate", _cmd_validate, "check a configuration against the structural invariants")
    _add_input_options(p)

    p = command("resolve", _cmd_resolve, "resolve a plane curve germ by point blowups")
    _add_input_options(p, config=False)

    p = command("separate", _cmd_separate, "make a configuration m-separating")
    _add_input_options(p, need_m=True)

    p = command("weights", _cmd_weights, "solve for a relatively ample weight vector")
    _add_input_options(p)
    p.add_argument("--m", type=_positive_int, default=None, help="separate at m before solving")
    _add_weight_options(p)

    for name, func, help in (
        ("e1", _cmd_e1, "assemble the first page for the m-th contact locus"),
        ("hc", _cmd_hc, "exact values and rank bounds for H_c"),
        ("mclean", _cmd_mclean, "the page in the Floer-style total grading"),
        ("check-euler", _cmd_check_euler, "two-path Euler characteristic cross check"),
    ):
        p = command(name, func, help)
        _add_input_options(p, need_m=True)
        _add_weight_options(p)
        if name == "hc":
            p.add_argument("--gap-analysis", action="store_true")

    p = command("zeta", _cmd_zeta, "monodromy zeta function from the resolution data")
    _add_input_options(p)

    p = command("lefschetz", _cmd_lefschetz, "Lefschetz number of the m-th monodromy iterate")
    _add_input_options(p, need_m=True)

    p = command("oracle-count", _cmd_oracle_count, "exact finite-field jet count")
    _add_input_options(p, need_m=True, config=False)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, default=None)
    p.add_argument("--strata", action="store_true", help="stratify by vanishing orders")
    p.add_argument("--node-cap", type=_positive_int, default=None)

    p = command("oracle-chi", _cmd_oracle_chi, "polynomial fit of counts and chi at q = 1")
    _add_input_options(p, need_m=True, config=False)
    _add_oracle_options(p)
    p.add_argument("--expected-dim", type=_nonnegative_int, default=None)
    p.add_argument("--csv", help="write (q, count) samples to this file")

    p = command("verify-fibration", _cmd_verify_fibration, "check the blowup chart fibration on jets")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--level", type=_positive_int, required=True)
    p.add_argument("--q", type=_positive_int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--nu", type=int, default=2)
    p.add_argument("--node-cap", type=_positive_int, default=None)

    p = command("report", _cmd_report, "full pipeline with cross checks")
    _add_input_options(p, need_m=True)
    _add_weight_options(p)
    _add_oracle_options(p)

    return parser


@functools.cache
def _options(parser: argparse.ArgumentParser) -> dict:
    """The option strings of ``parser``'s one-value store and store-const
    actions; ``_quick_args`` leaves any other action to argparse."""
    store = (argparse._StoreAction, argparse._StoreConstAction)
    actions = [a for a in parser._actions if isinstance(a, store) and a.nargs in (None, 0)]
    return {text: action for action in actions for text in action.option_strings}


def _quick_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """``parser.parse_known_args(argv)``'s namespace for a line that it
    takes with no extras and that holds only exact options, each once, as
    ``--opt value`` or ``--opt=value`` (a flag bare): no value after a
    space starts with ``-``, every value converts and is among its choices,
    every required option is there, and one member of each required group
    but never two of a group.  None for any other line, which argparse then
    parses, refuses or explains.  The defaults are read on every call, so
    ``set_defaults`` after the first call is seen."""
    options = _options(parser)
    given = {}
    tokens = iter(argv)
    for token in tokens:
        key, eq, text = token.partition("=")
        action = options.get(key)
        flag = action is not None and action.nargs == 0
        if action is None or action in given or eq and flag:
            return None
        if not (eq or flag) and (text := next(tokens, "-")).startswith("-"):  # or is missing
            return None
        try:
            given[action] = value = action.const if flag else (action.type or str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    for group in parser._mutually_exclusive_groups:
        if not group.required <= sum(action in given for action in group._group_actions) <= 1:
            return None
    actions = parser._actions
    if any(a.required and a not in given or isinstance(a.default, str) and a.type for a in actions):
        return None  # argparse also converts a text default through its type
    args = argparse.Namespace()  # filled at once: Namespace(**kwargs) sets them one by one
    vars(args).update(parser._defaults)
    vars(args).update((a.dest, a.default) for a in reversed(actions) if a.default is not argparse.SUPPRESS)
    vars(args).update((action.dest, value) for action, value in given.items())
    return args


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts are printed in full
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        # the top level would hand everything after the name to this parser
        args = _quick_args(command, argv[1:])
        if args is None:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        data, table, code = args.func(args)
        if args.format == "json":
            out = []
            _write_json(data, out, "\n")
            table = "".join(out)
        print(table)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit does not fail again, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ContactLociError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
