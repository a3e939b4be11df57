"""Span tracer for the traced benchmark run.

The tracer wraps public entry points of the dseq modules from outside: it
replaces a function in every loaded dseq module namespace that holds it, or
a method on its class, and restores the originals on `uninstall`.  Nothing
in the package itself is edited.

Each wrapped call records a span (id, parent id, op id, name, start, end).
Spans are kept in memory, aggregated on exit into calls / total / self
time per name, and written out as JSON lines at the end of the run.  Self
time is a span's duration minus the time its child spans cover.  Counts
(products, monomials, tree nodes, characters, bytes) are taken at the same
boundaries; the time spent computing them is excluded from every open span.
"""

import importlib
import json
import os
import sys
from time import perf_counter

# (module, attribute path, metric prefix).  A dotted attribute path names a
# method on a class; a bare one names a module-level function.
SPANNED = (
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.subst", "poly.subst"),
    ("poly", "Poly.__add__", "poly.add"),
    ("poly", "PolyMap.then", "poly.PolyMap.then"),
    ("poly", "PolyMap.differential", "poly.PolyMap.differential"),
    ("expr", "ElemMap.then", "expr.then"),
    ("expr", "ElemMap.differential", "expr.differential"),
    ("expr", "ElemMap.equal_witness", "expr.equal"),
    ("expr", "ElemMap.eval", "expr.eval"),
    ("maps", "compare_maps", "maps.compare_maps"),
    ("sequences", "PreDSeq.compose", "sequences.compose"),
    ("sequences", "PreDSeq.tangent", "sequences.tangent"),
    ("sequences", "PreDSeq.lmul", "sequences.lmul"),
    ("sequences", "PreDSeq.rmul", "sequences.rmul"),
    ("comonad", "omega", "comonad.omega"),
    ("comonad", "check_cd_axioms", "comonad.check_cd_axioms"),
    ("comonad", "check_comonad_laws", "comonad.check_comonad_laws"),
    ("comonad", "check_coalgebra", "comonad.check_coalgebra"),
    ("axioms", "check_ds_primed", "axioms.check_ds_primed"),
    ("axioms", "check_ds_unprimed", "axioms.check_ds_unprimed"),
    ("axioms", "DSeq.verify", "axioms.DSeq.verify"),
    ("laws", "base_category_laws", "laws.base_category_laws"),
    ("laws", "tower_identity_laws", "laws.tower_identity_laws"),
    ("laws", "tower_axiom_closure_laws", "laws.tower_axiom_closure_laws"),
    ("laws", "tower_naturality_laws", "laws.tower_naturality_laws"),
    ("laws", "omega_structure_laws", "laws.omega_structure_laws"),
    ("faa", "chain_equivalence_check", "faa.chain_equivalence_check"),
    ("parser", "parse_component", "parser.parse_component"),
    ("parser", "format_map", "parser.format_map"),
    ("jsonio", "load_seq", "jsonio.load_seq"),
    ("jsonio", "dump_seq", "jsonio.dump_seq"),
    ("reports", "LawReport.to_json", "reports.to_json"),
    ("cli", "main", "cli.main"),
)

SELFTEST_SUITES = ("base", "base_elem", "pre_d", "ds", "ds_closure",
                   "ds_naturality", "omega", "comonad", "coalgebra", "cd",
                   "chain")

MAX_SPANS = 50_000      # spans kept for the span file; the rest are counted

COUNTS = ("poly.init.calls", "poly.mul.products", "poly.mul.monomials_out",
          "poly.peak_monomials", "expr.nodes_out", "expr.distinct_nodes_out",
          "parser.chars_in", "parser.chars_out", "jsonio.bytes_read",
          "jsonio.bytes_written", "reports.entries", "reports.failed_entries")


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for _, _, prefix in SPANNED:
        units[prefix + ".calls"] = "count"
        units[prefix + ".total_s"] = "s"
        units[prefix + ".self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["jsonio.bytes_read"] = units["jsonio.bytes_written"] = "bytes"
    units["poly.mul.merge_ratio"] = "ratio"
    units["maps.canonical_map.hit_ratio"] = "ratio"
    for suite in SELFTEST_SUITES:
        units[f"selftest.{suite}.total_s"] = "s"
    units["trace.ops_per_s"] = "1/s"
    units["trace.op_time_s"] = "s"
    units["trace.layer_self_s"] = "s"
    return units


def tree_node_counts(node, sizes, canon):
    """(tree nodes counting repeats, distinct subtrees) of a tagged-tuple
    expression tree.  `sizes` memoizes by object identity; `canon` maps a
    structural key to a dense id, shared across one output map."""
    if not isinstance(node, tuple):
        return 0, None
    got = sizes.get(id(node))
    if got is not None:
        return got
    total = 1
    key = []
    for part in node:
        if isinstance(part, tuple):
            n, cid = tree_node_counts(part, sizes, canon)
            total += n
            key.append((cid,))
        else:
            key.append(part)
    cid = canon.setdefault(tuple(key), len(canon))
    sizes[id(node)] = (total, cid)
    return total, cid


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.active = False    # spans and counts are taken only inside ops
        self.stack = []        # open spans: [name, id, start, child, paused]
        self.spans = []        # (id, parent, op, name, start, end)
        self.dropped = 0
        self.agg = {}          # name -> [calls, total_s, self_s]
        self.open = {}         # name -> open depth, so recursion counts once
        self.counts = dict.fromkeys(COUNTS, 0)
        self.paused = 0.0      # tracer bookkeeping time, kept out of spans
        self.next_id = 0
        self.op_id = -1
        self.cache_before = None
        self._undo = []
        self.wrapped = {}      # original function -> its wrapper
        self._dseq = None

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        sid = self.next_id
        self.next_id += 1
        self.open[name] = self.open.get(name, 0) + 1
        self.stack.append([name, sid, perf_counter(), 0.0, self.paused])

    def exit(self):
        t1 = perf_counter()
        name, sid, t0, child, paused0 = self.stack.pop()
        dur = t1 - t0 - (self.paused - paused0)
        depth = self.open[name] - 1
        self.open[name] = depth
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[2] += dur - child
        if depth == 0:
            agg[1] += dur
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[1]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, self.op_id, name, t0, t1))
        else:
            self.dropped += 1

    def start_op(self, op_id):
        """Open the span of one benchmark op; tracing is on until end_op."""
        self.op_id = op_id
        self.active = True
        self.enter("bench.op")

    def end_op(self):
        self.exit()
        self.active = False

    def wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                s0 = perf_counter()
                after(args, result)
                tracer.paused += perf_counter() - s0
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- counts ------------------------------------------------------------

    def _peak(self, poly):
        n = len(poly.terms)
        if n > self.counts["poly.peak_monomials"]:
            self.counts["poly.peak_monomials"] = n

    def _after_mul(self, args, result):
        a, b = args
        self.counts["poly.mul.products"] += len(a.terms) * len(b.terms)
        self.counts["poly.mul.monomials_out"] += len(result.terms)
        self._peak(result)

    def _after_poly(self, args, result):
        self._peak(result)

    def _after_tree_map(self, args, result):
        sizes, canon = {}, {}
        total = 0
        for comp in result.components:
            total += tree_node_counts(comp, sizes, canon)[0]
        self.counts["expr.nodes_out"] += total
        self.counts["expr.distinct_nodes_out"] += len(canon)

    def _after_parse(self, args, result):
        self.counts["parser.chars_in"] += len(args[0])

    def _after_format(self, args, result):
        self.counts["parser.chars_out"] += sum(len(s) for s in result)

    def _after_read(self, args, result):
        self.counts["jsonio.bytes_read"] += os.path.getsize(args[0])

    def _after_write(self, args, result):
        self.counts["jsonio.bytes_written"] += os.path.getsize(args[0])

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if (n == "dseq" or n.startswith("dseq.")) and m is not None]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, new):
        self.wrapped[fn] = new
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, new)

    def install(self, dseq):
        """Wrap every entry point of the loaded dseq package."""
        self._dseq = dseq
        afters = {
            "poly.mul": self._after_mul,
            "poly.subst": self._after_poly,
            "poly.add": self._after_poly,
            "expr.then": self._after_tree_map,
            "expr.differential": self._after_tree_map,
            "parser.parse_component": self._after_parse,
            "parser.format_map": self._after_format,
        }
        loaded = {m.__name__ for m in self._modules()}
        for modname, path, prefix in SPANNED:
            if f"dseq.{modname}" not in loaded:
                continue
            mod = importlib.import_module(f"dseq.{modname}")
            after = afters.get(prefix)
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(mod, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr,
                              classmethod(self.wrap(prefix, raw.__func__, after)))
                else:
                    self._set(cls, attr, self.wrap(prefix, raw, after))
            else:
                fn = getattr(mod, path)
                self._replace_everywhere(fn, self.wrap(prefix, fn, after))

        poly = importlib.import_module("dseq.poly")
        init = poly.Poly.__dict__["__init__"]
        counts = self.counts

        def counted_init(obj, nvars, items=()):
            if self.active:
                counts["poly.init.calls"] += 1
            init(obj, nvars, items)

        self._set(poly.Poly, "__init__", counted_init)

        reports = importlib.import_module("dseq.reports")
        add = reports.LawReport.__dict__["add"]

        def counted_add(report, entry):
            if self.active:
                counts["reports.entries"] += 1
                counts["reports.failed_entries"] += not entry.passed
            add(report, entry)

        self._set(reports.LawReport, "add", counted_add)

        jsonio = importlib.import_module("dseq.jsonio")
        self._replace_everywhere(
            jsonio.read_json, self._counted(jsonio.read_json, self._after_read))
        self._replace_everywhere(
            jsonio.write_json, self._counted(jsonio.write_json, self._after_write))

        selftest = importlib.import_module("dseq.selftest")
        self._set(selftest, "SUITE_BUILDERS", tuple(
            (name, self.wrap(f"selftest.{name}", self.wrapped.get(build, build)))
            for name, build in selftest.SUITE_BUILDERS))

        self.cache_before = importlib.import_module("dseq.maps") \
            .canonical_map.cache_info()

    def _counted(self, fn, after):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.active:
                return result
            s0 = perf_counter()
            after(args, result)
            tracer.paused += perf_counter() - s0
            return result

        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def metrics(self, ops_per_s):
        """Per-layer metrics of the traced interval, with units.
        `ops_per_s` is the traced run's throughput in reference seconds,
        tracing costs included.  Span times are wall seconds;
        `trace.op_time_s` is the time the op spans cover, which excludes
        taking counts."""
        out = {}
        for _, _, prefix in SPANNED:
            calls, total, self_s = self.agg.get(prefix, (0, 0.0, 0.0))
            out[prefix + ".calls"] = calls
            out[prefix + ".total_s"] = total
            out[prefix + ".self_s"] = self_s
        out.update(self.counts)
        products = self.counts["poly.mul.products"]
        out["poly.mul.merge_ratio"] = (
            self.counts["poly.mul.monomials_out"] / products if products else 0.0)
        after = self._dseq.maps.canonical_map.cache_info()
        hits = after.hits - self.cache_before.hits
        misses = after.misses - self.cache_before.misses
        out["maps.canonical_map.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        for suite in SELFTEST_SUITES:
            out[f"selftest.{suite}.total_s"] = \
                self.agg.get(f"selftest.{suite}", (0, 0.0, 0.0))[1]
        out["trace.ops_per_s"] = ops_per_s
        out["trace.op_time_s"] = self.agg.get("bench.op", (0, 0.0, 0.0))[1]
        out["trace.layer_self_s"] = sum(
            a[2] for name, a in self.agg.items() if name != "bench.op")
        units = metric_units()
        return {name: {"value": out[name], "unit": units[name]}
                for name in units}

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")
