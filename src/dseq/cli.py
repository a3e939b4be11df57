"""Command-line front end.

Subcommands build derivative towers from map files, compose them, replay
the law suites on a given input, cross-check the partition-formula
derivative, evaluate tower terms at points, and run the seeded selftest.

Exit codes: 0 all checks passed, 1 at least one law entry failed, 2 bad
input (unreadable file, parse error, dimension mismatch, order guard,
out-of-range option, a point where evaluation leaves the float range).
All JSON output is canonical: two-space indent, stable key order, ASCII,
trailing newline, no NaN or infinity.  Identical invocations produce
byte-identical output.
"""

import argparse
import math
import os
import sys
from fractions import Fraction

from .axioms import DSeq, check_ds_primed, check_ds_unprimed
from .comonad import check_cd_axioms, check_coalgebra, check_comonad_laws, omega
from .errors import AxiomViolation, DimensionMismatch, EngineError
from .faa import faa_univariate, pattern_derivative
from .fixtures import random_elem_map, random_poly_map, rng_for, random_dim
from .jsonio import (dump_map, dump_seq, is_seq_object, load_map, load_seq,
                     read_json, to_canonical_json, write_json)
from .laws import tower_identity_laws
from .maps import compose
from .reports import LawReport, bool_entry
from .selftest import run_selftest

DEFAULT_ORDER = 3
DEFAULT_SEED = 42
DEFAULT_TRIALS = 25
ORDER_LIMIT = 4  # f_4 over dim 2 already takes 32 inputs


def _order_limit():
    raw = os.environ.get("DSEQ_MAX_ORDER")
    if raw is None:
        return ORDER_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise EngineError(f"DSEQ_MAX_ORDER must be an integer, got {raw!r}")


def guard_order(order, allow_large):
    if order < 0:
        raise EngineError("order must be >= 0")
    limit = _order_limit()
    if order > limit and not allow_large:
        raise EngineError(
            f"order {order} exceeds the guard ({limit}); "
            "pass --allow-large or set DSEQ_MAX_ORDER")
    return order


def _tolerance(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return value


def _trials(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _emit(payload, out):
    text = to_canonical_json(payload)
    if out is None:
        sys.stdout.write(text)
    else:
        write_json(out, payload)


def _load_map_file(path):
    return load_map(read_json(path), what=path)


def cmd_derive(args):
    f = _load_map_file(args.map)
    order = guard_order(args.order, args.allow_large)
    _emit(dump_seq(omega(f, order)), args.out)
    return 0


def cmd_compose(args):
    first = _load_map_file(args.first)
    second = _load_map_file(args.second)
    order = guard_order(args.order, args.allow_large)
    if first.cod != second.dom:
        raise DimensionMismatch(
            f"cannot compose: first has cod {first.cod}, "
            f"second has dom {second.dom}")
    tower = omega(first, order).compose(omega(second, order))
    if args.term is None:
        _emit(dump_seq(tower), args.out)
    else:
        _emit(dump_map(tower.term(args.term)), args.out)
    return 0


def _input_tower(path, order, allow_large, base_hint=None):
    """A map file is lifted at the requested order; a sequence file is
    taken as already built, at its own order."""
    obj = read_json(path)
    if is_seq_object(obj):
        return load_seq(obj, what=path), None
    f = load_map(obj, what=path)
    return omega(f, guard_order(order, allow_large)), f


def _cd_reports(tower, seed, tol):
    """Stamp the input, then run the CD battery against seeded partners
    with matching signatures."""
    try:
        stamped = DSeq.verify(tower, tol)
    except AxiomViolation as exc:
        rep = LawReport("cd")
        entry = bool_entry("CD.stamp", 0, 0, False, tower.order)
        entry.witness = str(exc)
        rep.add(entry)
        return [rep]
    rng = rng_for(seed, "cli-cd")
    draw = random_poly_map if tower.base == "poly" else random_elem_map
    partner = DSeq.verify(omega(draw(rng, tower.dom, tower.cod),
                                tower.order), tol)
    after = DSeq.verify(omega(draw(rng, tower.cod, random_dim(rng)),
                              tower.order), tol)
    return [check_cd_axioms([stamped, (stamped, partner), (stamped, after)],
                            tol)]


def _check_reports(tower, base_map, suite, args):
    tol = args.tolerance
    reports = []
    if suite in ("ds", "all"):
        reports.append(check_ds_primed(tower, tol))
        reports.append(check_ds_unprimed(tower, tol))
    if suite in ("comonad", "all"):
        reports.append(check_comonad_laws(tower, tol))
    if suite in ("coalgebra", "all"):
        f = base_map if base_map is not None else tower.terms[0]
        reports.append(check_coalgebra(f, tower.order, tol))
    if suite in ("cd", "all"):
        reports.extend(_cd_reports(tower, args.seed, tol))
    if suite in ("laws", "all"):
        reports.append(tower_identity_laws(rng_for(args.seed, "cli-laws"),
                                           args.trials, tol=tol))
    return reports


def _render_text(reports):
    lines = []
    ok = True
    for rep in reports:
        total = len(rep.entries)
        bad = rep.failing()
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.suite}: {verdict} ({total - len(bad)}/{total})")
        for e in bad:
            lines.append(f"  {e.axiom} n={e.n} k={e.k} FAIL")
        ok = ok and rep.passed
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n", ok


def cmd_check(args):
    tower, base_map = _input_tower(args.input, args.order, args.allow_large)
    reports = _check_reports(tower, base_map, args.suite, args)
    ok = all(rep.passed for rep in reports)
    if args.format == "json":
        sys.stdout.write(to_canonical_json(
            {"suites": [rep.to_json() for rep in reports]}))
    else:
        text, ok = _render_text(reports)
        sys.stdout.write(text)
    return 0 if ok else 1


def cmd_faa(args):
    inner = _load_map_file(args.inner)
    outer = _load_map_file(args.outer)
    n = guard_order(args.n, args.allow_large)
    faa_map = faa_univariate(inner, outer, n)
    iterated = pattern_derivative(compose(inner, outer), n)
    equal = faa_map.equal(iterated, args.tolerance)
    payload = {"n": n, "faa": dump_map(faa_map),
               "iterated": dump_map(iterated), "equal": equal}
    sys.stdout.write(to_canonical_json(payload))
    return 0 if equal else 1


def _parse_point(text, base, size):
    tokens = [tok.strip() for tok in text.split(",")] if text else []
    if len(tokens) != size:
        raise DimensionMismatch(
            f"point needs {size} coordinates, got {len(tokens)}")
    try:
        if base == "poly":
            return [Fraction(tok) for tok in tokens]
        point = [float(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise EngineError(f"bad point coordinate: {exc}")
    if not all(math.isfinite(x) for x in point):
        raise EngineError("point coordinates must be finite")
    return point


def cmd_eval(args):
    obj = read_json(args.seq)
    if not is_seq_object(obj):
        raise EngineError("eval expects a sequence file; derive one first")
    tower = load_seq(obj, what=args.seq)
    term = tower.term(args.term)
    point = _parse_point(args.point, tower.base, term.dom)
    try:
        value = term.eval(point)
    except (ValueError, OverflowError) as exc:
        raise EngineError(f"cannot evaluate at this point: {exc}")
    if tower.base == "poly":
        payload = {"term": args.term, "point": [str(x) for x in point],
                   "value": [str(v) for v in value]}
    else:
        if not all(math.isfinite(v) for v in value):
            raise EngineError("value leaves the float range at this point")
        payload = {"term": args.term, "point": point,
                   "value": [float(v) for v in value]}
    sys.stdout.write(to_canonical_json(payload))
    return 0


def cmd_selftest(args):
    result = run_selftest(args.seed, args.trials, tol=args.tolerance)
    if args.format == "json":
        sys.stdout.write(to_canonical_json(result))
    else:
        lines = []
        for suite in result["suites"]:
            verdict = "PASS" if suite["pass"] else "FAIL"
            lines.append(f"{suite['suite']}: {verdict} "
                         f"({suite['checked']} checked, "
                         f"{suite['failed']} failed)")
        lines.append("PASS" if result["pass"] else "FAIL")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if result["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dseq",
        description="Exact higher-order differentiation over truncated "
                    "derivative towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order=True, tolerance=False):
        if order:
            p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                           help="truncation order (default 3, guard at 4)")
            p.add_argument("--allow-large", action="store_true",
                           help="bypass the order guard")
        if tolerance:
            p.add_argument("--tolerance", type=_tolerance, default=None,
                           help="sampled-equality tolerance (elementary "
                                "base; default 1e-9)")

    p = sub.add_parser("derive", help="lift a map file to its tower")
    p.add_argument("--map", required=True, help="map JSON file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("compose", help="tower of a composite map")
    p.add_argument("--first", required=True, help="inner map JSON file")
    p.add_argument("--second", required=True, help="outer map JSON file")
    p.add_argument("--term", type=int, default=None,
                   help="emit only this term as a map object")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    add_common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check", help="run law suites on a map or tower file")
    p.add_argument("--input", required=True, help="map or sequence JSON file")
    p.add_argument("--suite", default="all",
                   choices=("ds", "comonad", "coalgebra", "cd", "laws", "all"))
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="stream seed for generated partners and fixtures")
    p.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS,
                   help="trials for the randomized identity battery")
    add_common(p, tolerance=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("faa", help="partition-formula derivative cross-check")
    p.add_argument("--inner", required=True, help="univariate map JSON file")
    p.add_argument("--outer", required=True, help="univariate map JSON file")
    p.add_argument("--n", type=int, required=True, help="derivative order")
    p.add_argument("--allow-large", action="store_true",
                   help="bypass the order guard")
    p.add_argument("--tolerance", type=_tolerance, default=None)
    p.set_defaults(func=cmd_faa)

    p = sub.add_parser("eval", help="evaluate one tower term at a point")
    p.add_argument("--seq", required=True, help="sequence JSON file")
    p.add_argument("--term", type=int, required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, dom * 2^term of them")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run every law suite on seeded input")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS)
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--tolerance", type=_tolerance, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
