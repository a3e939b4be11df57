"""Command-line front end.

Subcommands build derivative towers from map files, compose them, check
the DS and CD axioms of a given input, cross-check Faa di Bruno composition
against the iterated derivative, evaluate tower terms at points, and run
the seeded selftest.

Exit codes: 0 all checks passed, 1 at least one law entry failed, or an
engine error inside a selftest suite (named on stderr), 2 bad input,
which is any of these: an unreadable file; a sequence file where
a map file is expected, or the reverse; a parse error; a dimension
mismatch; an order over the guard; a --tolerance that is not a
finite number >= 0; selftest --trials below 1; a non-finite eval point, or
one where evaluation leaves the float range; a component nested too deeply; a
polynomial product or power over the expansion budget; a constant power
over 4,300 digits; an integer of more than 4,300 digits in a component or
a JSON file; a JSON file nested too deeply or not UTF-8; a negative
dimension, or a tower order below 0; an eval point coordinate of more
than 4,300 digits; a map or tower file whose widest term (dom * 2^order
inputs) or whose cod is over the width guard, in every subcommand that
reads one, unless --allow-large is passed; a declared dom or cod too
large to pack, refused before parsing; check --suite ds|all on a tower
below order 1; check --suite cd|all on a tower below order 3.
All JSON output is canonical: two-space indent, stable key order, ASCII,
trailing newline, no NaN or infinity.  Identical invocations produce
byte-identical output.
"""

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

from .axioms import DSeq, check_ds_primed, check_ds_unprimed
from .comonad import check_cd_axioms, omega
from .errors import (AxiomViolation, DimensionMismatch, EngineError,
                     InsufficientOrder)
from .faa import faa_compose, faa_sequence
from .fixtures import random_dim, random_map, rng_for
from .jsonio import (_seq_signature, _signature, dump_map, dump_seq,
                     is_seq_object, load_map, load_seq, read_json,
                     to_canonical_json, write_json)
from .maps import _CONSTANT_DIGITS_LIMIT as _LIMIT, _text
from .reports import LawEntry, LawReport
from .selftest import run_selftest

DEFAULT_ORDER = 3
DEFAULT_SEED = 42
DEFAULT_TRIALS = 25
ORDER_LIMIT = 4  # f_4 over dim 2 already takes 32 inputs
# The structural maps the checks build at a term's width take memory
# quadratic in it: `check --suite ds` reached 43 MB at width 2,048, 116 MB
# at 4,096 and 5.8 GB at 32,000, and `--suite all` took 61 MB at 1,024.
WIDTH_LIMIT = 1024


def guard_order(order, allow_large):
    if order < 0:
        raise EngineError("order must be >= 0")
    if order > ORDER_LIMIT and not allow_large:
        raise EngineError(f"order {order} exceeds the guard ({ORDER_LIMIT}); "
                          "pass --allow-large")
    return order


def guard_width(what, dom, cod, order, allow_large):
    """Refuse a map or tower of dom inputs and cod outputs if its widest
    term at `order`, of dom << order inputs, or its cod is over
    WIDTH_LIMIT."""
    if not allow_large and (dom > WIDTH_LIMIT >> order or cod > WIDTH_LIMIT):
        raise EngineError(
            f"{what} has terms of {dom} * 2^{order} inputs and {cod} "
            f"outputs, over the width guard ({WIDTH_LIMIT}); "
            "pass --allow-large")


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
    if out is None:
        sys.stdout.write(to_canonical_json(payload))
    else:
        write_json(out, payload)


def _guarded_map(obj, path, order, allow_large):
    """The map in a map object, its width guarded at `order` before any
    component is parsed."""
    _, dom, cod = _signature(obj, path)
    guard_width(path, dom, cod, order, allow_large)
    return load_map(obj, what=path)


def _guarded_seq(obj, path, allow_large):
    """The tower in a sequence object, its width guarded at its own order
    before any component is parsed."""
    dom, cod, order = _seq_signature(obj, path)
    guard_width(path, dom, cod, order, allow_large)
    return load_seq(obj, what=path)


def _load_map_file(path, order, allow_large):
    obj = read_json(path)
    if is_seq_object(obj):
        raise EngineError(
            f"{path} is a sequence file; a map file was expected")
    return _guarded_map(obj, path, order, allow_large)


def cmd_derive(args):
    order = guard_order(args.order, args.allow_large)
    f = _load_map_file(args.map, order, args.allow_large)
    _emit(dump_seq(omega(f, order)), args.out)
    return 0


def cmd_compose(args):
    order = guard_order(args.order, args.allow_large)
    first = _load_map_file(args.first, order, args.allow_large)
    second = _load_map_file(args.second, order, args.allow_large)
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


def _input_tower(path, order, allow_large):
    """A map file is lifted at the requested order; a sequence file is
    taken as already built, at its own order.  Either is width guarded
    before any component is parsed."""
    obj = read_json(path)
    if is_seq_object(obj):
        return _guarded_seq(obj, path, allow_large)
    order = guard_order(order, allow_large)
    return omega(_guarded_map(obj, path, order, allow_large), order)


def _cd_report(tower, seed, tol):
    """Stamp the input, then run the CD battery against seeded partners
    with matching signatures."""
    try:
        stamped = DSeq.verify(tower, tol)
    except AxiomViolation as exc:
        rep = LawReport("cd")
        rep.add(LawEntry("CD.stamp", 0, 0, False, tower.order, str(exc)))
        return rep
    rng = rng_for(seed, "cli-cd")
    partner = DSeq.verify(omega(random_map(rng, tower.dom, tower.cod,
                                           tower.base), tower.order), tol)
    after = DSeq.verify(omega(random_map(rng, tower.cod, random_dim(rng),
                                         tower.base), tower.order), tol)
    return check_cd_axioms([stamped, (stamped, partner), (stamped, after)],
                           tol)


def _check_reports(tower, args):
    """The DS, then the CD reports on the input tower, as --suite asks."""
    tol = args.tolerance
    reports = []
    if args.suite in ("ds", "all"):
        if tower.order < 1:
            raise InsufficientOrder("DS battery needs a tower of order >= 1")
        reports += [check_ds_primed(tower, tol), check_ds_unprimed(tower, tol)]
    if args.suite in ("cd", "all"):
        reports.append(_cd_report(tower, args.seed, tol))
    return reports


def _render_text(reports, ok):
    lines = []
    for rep in reports:
        total = len(rep.entries)
        bad = rep.failing()
        verdict = "PASS" if rep.passed else "FAIL"
        lines.append(f"{rep.suite}: {verdict} ({total - len(bad)}/{total})")
        for e in bad:
            lines.append(f"  {e.axiom} n={e.n} k={e.k} FAIL")
    lines.append("PASS" if ok else "FAIL")
    return "\n".join(lines) + "\n"


def cmd_check(args):
    tower = _input_tower(args.input, args.order, args.allow_large)
    reports = _check_reports(tower, args)
    ok = all(rep.passed for rep in reports)
    if args.format == "json":
        run = {"base": tower.base, "dom": tower.dom, "cod": tower.cod,
               "order": tower.order, "seed": args.seed,
               "tolerance": args.tolerance}
        sys.stdout.write(to_canonical_json(
            {"run": run, "suites": [rep.to_json() for rep in reports]}))
    else:
        sys.stdout.write(_render_text(reports, ok))
    return 0 if ok else 1


def cmd_faa(args):
    n = guard_order(args.n, args.allow_large)
    inner = _load_map_file(args.inner, n, args.allow_large)
    outer = _load_map_file(args.outer, n, args.allow_large)
    faa_map = faa_compose(faa_sequence(omega(inner, n)),
                          faa_sequence(omega(outer, n)), n)
    iterated = faa_sequence(omega(inner.then(outer), n))[n]
    equal = faa_map.equal(iterated)
    payload = {"n": n, "faa": dump_map(faa_map),
               "iterated": dump_map(iterated), "equal": equal}
    sys.stdout.write(to_canonical_json(payload))
    return 0 if equal else 1


# A coordinate with a decimal exponent, in the syntax Fraction reads.
_EXPONENTIAL = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                          r"(?:\.(\d*|\d+(?:_\d+)*))?"
                          r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def _coordinate(tok):
    """Fraction(tok), but a nonzero value beyond 10^+-4300, which could not
    be printed, is refused before Fraction builds its power of ten."""
    m = _EXPONENTIAL.fullmatch(tok)
    if m:
        whole, frac, exp = (g.replace("_", "") for g in m.groups(""))
        if len(exp.lstrip("+-")) > _LIMIT:
            return Fraction(tok)        # which refuses so long an exponent
        if not any(map(int, whole + frac)):
            return Fraction(0)          # Fraction would still build 10^exp
        if not -_LIMIT - len(whole) < int(exp) < _LIMIT + len(frac):
            raise EngineError(f"point coordinate has more than {_LIMIT} "
                              "digits")
    return Fraction(tok)


def _parse_point(text, base, size):
    tokens = [tok.strip() for tok in text.split(",")] if text else []
    if len(tokens) != size:
        raise DimensionMismatch(
            f"point needs {size} coordinates, got {len(tokens)}")
    try:
        if base == "poly":
            return [_coordinate(tok) for tok in tokens]
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
    tower = _guarded_seq(obj, args.seq, args.allow_large)
    term = tower.term(args.term)
    point = _parse_point(args.point, tower.base, term.dom)
    try:
        value = term.eval(point)
    except (ValueError, OverflowError) as exc:
        raise EngineError(f"cannot evaluate at this point: {exc}")
    if tower.base == "poly":
        payload = {"term": args.term, "point": [_text(x) for x in point],
                   "value": [_text(v) for v in value]}
    else:
        if not all(math.isfinite(v) for v in value):
            raise EngineError("value leaves the float range at this point")
        payload = {"term": args.term, "point": point,
                   "value": [float(v) for v in value]}
    sys.stdout.write(to_canonical_json(payload))
    return 0


def cmd_selftest(args):
    result = run_selftest(args.seed, args.trials, tol=args.tolerance)
    for suite in result["suites"]:
        if "error" in suite:
            print(f"error in suite {suite['suite']}: {suite['error']}",
                  file=sys.stderr)
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


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing reads it and
    changes nothing in it."""
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
                           help="bypass the order and width guards")
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

    p = sub.add_parser("check",
                       help="check a map or tower file against DS and CD")
    p.add_argument("--input", required=True, help="map or sequence JSON file")
    p.add_argument("--suite", default="all",
                   choices=("ds", "cd", "all"))
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="stream seed for generated CD partners")
    add_common(p, tolerance=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("faa", help="Faa di Bruno derivative cross-check")
    p.add_argument("--inner", required=True, help="poly map JSON file")
    p.add_argument("--outer", required=True, help="poly map JSON file")
    p.add_argument("--n", type=int, required=True, help="derivative order")
    p.add_argument("--allow-large", action="store_true",
                   help="bypass the order and width guards")
    p.set_defaults(func=cmd_faa)

    p = sub.add_parser("eval", help="evaluate one tower term at a point")
    p.add_argument("--seq", required=True, help="sequence JSON file")
    p.add_argument("--term", type=int, required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, dom * 2^term of them")
    p.add_argument("--allow-large", action="store_true",
                   help="bypass the width guard")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run every law suite on seeded input")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_trials, default=DEFAULT_TRIALS)
    p.add_argument("--format", default="json", choices=("json", "text"))
    p.add_argument("--tolerance", type=_tolerance, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-" as an option, so a point
    # whose first coordinate is negative is joined to its flag, or to any
    # abbreviation of it that argparse accepts.
    for i, arg in enumerate(argv[:-1]):
        if len(arg) > 2 and "--point".startswith(arg):
            argv[i:i + 2] = ["--point=" + argv[i + 1]]
            break
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
