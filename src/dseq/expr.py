"""Elementary smooth expressions: trees over +, *, integer powers, sin, cos, exp.

Trees are tagged tuples built by the smart constructors below: ("const",
Fraction), ("var", i), ("add", a, b), ("mul", a, b), ("pow", a, n), ("sin", a),
("cos", a), ("exp", a).  Only rational subtrees are folded, so the printed
form mirrors how an expression was built.

Terms of a composite tower repeat their subexpressions heavily, so no
operation walks a tree.  An `ElemMap` is its tape (code, roots): a
straight-line program with one instruction per distinct subtree, each
reading earlier instructions by index, and the indices of its components.
`_run` evaluates a tape in an algebra (a table of add/mul/pow/sin/cos/exp
plus a leaf function).  `_tape` tapes the trees of the parser or of
hand-built maps; every operation builds its result's tape from its
operands' tapes (`_Builder`), and the result's trees are built from its
tape when its components are first read.  Sampled equality runs each tape
once over columns of floats, one value per sample point, and a map keeps
those rows (kept state is listed in `maps`).  The differential is one
forward-mode run too: each value carries its index and its partials, one
per variable it reads.

Every instruction an operation builds, in `then`, the shifted copies of
`pfunctor_apply`, sums and the differential, goes through one step,
`_Builder.apply`: the smart constructors run only where an operand is a
constant, and the builder merges what folding made equal.  Where a
rewrite would fold nothing (the tape fold-free, and no summand with a
constant component: every kind but zpair and lift), a precomposition is
sampled without a tape: `_sampled` runs the built tape's float operations
on the same columns, so its rows are the same bits.
"""

import functools
import math
import operator
import random
from fractions import Fraction

from .errors import DimensionMismatch, EngineError
from .maps import (CoordMap, _check_constant_power, _precomposed, keep,
                   pfunctor_apply)

ELEM_EQ_SEED = 0xD5E0          # seed for the sampled-equality point cloud
ELEM_EQ_SAMPLES = 20
ELEM_TOLERANCE = 1e-9


def const(value):
    return ("const", Fraction(value))

def var(i):
    assert i >= 0
    return ("var", i)

def add(a, b):
    if a[0] == "const" and not a[1]:
        return b
    if b[0] == "const" and not b[1]:
        return a
    if a[0] == "const" and b[0] == "const":
        return const(a[1] + b[1])
    return ("add", a, b)

def mul(a, b):
    if a[0] == "const" and not a[1]:
        return a
    if b[0] == "const" and not b[1]:
        return b
    if a[0] == "const" and b[0] == "const":
        return const(a[1] * b[1])
    if a[0] == "const" and a[1] == 1:
        return b
    if b[0] == "const" and b[1] == 1:
        return a
    return ("mul", a, b)

def pow_(a, n):
    assert n >= 0
    if n == 0:
        return const(1)
    if n == 1:
        return a
    if a[0] == "const":
        _check_constant_power(a[1], n)
        return const(a[1] ** n)
    return ("pow", a, n)

def sin(a):
    return ("sin", a)

def cos(a):
    return ("cos", a)

def exp(a):
    return ("exp", a)

def neg(a):
    return mul(const(-1), a)


def _key(ins):      # a builder's lookup key (hashing a Fraction is slow)
    return ins if ins[0] != "const" else (ins[1].numerator, ins[1].denominator)


def _renumbered(ins, new):
    """The instruction reading new[i] where it read i."""
    tag = ins[0]
    if tag == "add" or tag == "mul":
        return (tag, new[ins[1]], new[ins[2]])
    if tag == "const" or tag == "var":
        return ins
    return (tag, new[ins[1]], *ins[2:])


def _run(tape, ops, leaf):
    """Values of the tape's roots in the algebra `ops`; `leaf` maps a
    const or var instruction to a value."""
    code, roots = tape
    vals = []
    push = vals.append
    for ins in code:
        tag = ins[0]
        if tag == "add" or tag == "mul":
            push(ops[tag](vals[ins[1]], vals[ins[2]]))
        elif tag == "pow":
            push(ops["pow"](vals[ins[1]], ins[2]))
        elif tag == "const" or tag == "var":
            push(leaf(ins))
        else:
            push(ops[tag](vals[ins[1]]))
    return [vals[r] for r in roots]


class _Builder:
    """A tape under construction: `code`, whose instruction k reads the
    indices of earlier instructions, and `index`, from instruction to k.
    An index is the only handle an operation holds.  `insert` adds an
    instruction as it stands; `apply` runs the smart constructors first,
    and `folded` records whether one folded, the only way an instruction
    of operands read whole can be left unread."""

    def __init__(self):
        self.code, self.index, self.folded = [], {}, False

    def insert(self, ins):
        """The index of the instruction ins, added if it is new."""
        key = _key(ins)
        k = self.index.get(key)
        if k is None:
            k = self.index[key] = len(self.code)
            self.code.append(ins)
        return k

    def apply(self, tag, i, j=None):
        """The index of tag applied to instructions i and j (pow's exponent
        j).  The smart constructors run only where an operand is a
        constant, on the instructions themselves, so that only const
        leaves are read; a result that folds to an operand is its index."""
        x = self.code[i]
        if tag == "add" or tag == "mul":
            y = self.code[j]
            if x[0] == "const" or y[0] == "const":
                t = ElemMap._ops[tag](x, y)
                if t is x or t is y:
                    self.folded = True
                    return i if t is x else j
                if t[0] == "const":
                    self.folded = True
                    return self.insert(t)
        elif tag != "pow":
            return self.insert((tag, i))
        elif j < 2 or x[0] == "const":
            self.folded = True
            t = pow_(x, j)
            return i if t is x else self.insert(t)
        return self.insert((tag, i, j))

    def copy(self, m):
        """Indices of m's components, its instructions taken as they
        stand: whole into an empty builder, else one by one."""
        code, roots = m.tape
        if not self.code:
            self.code = list(code)
            self.index = {_key(ins): k for k, ins in enumerate(code)}
            return list(roots)
        new = []
        for ins in code:
            new.append(self.insert(_renumbered(ins, new)))
        return [new[r] for r in roots]

    def rewrite(self, tape, reps):
        """Indices of the tape's roots, its instructions applied here with
        var j read as reps[j]: an index, or a var or zero leaf, inserted
        when it is first read."""
        code, roots = tape
        insert, apply = self.insert, self.apply
        new = []
        push = new.append
        for ins in code:
            tag = ins[0]
            if tag == "var":
                k = reps[ins[1]]
                push(k if type(k) is int else insert(k))
            elif tag == "const":
                push(insert(ins))
            elif tag == "add" or tag == "mul":
                push(apply(tag, new[ins[1]], new[ins[2]]))
            else:
                push(apply(tag, new[ins[1]], *ins[2:]))
        return [new[r] for r in roots]

    def map(self, dom, roots, prune=False):
        """The map of these roots: pruned after a fold, or where the caller
        says its instructions may go unread."""
        return _map(dom, _pruned(self.code, roots) if prune or self.folded
                    else (self.code, roots))


def _map(dom, tape):
    m = ElemMap.__new__(ElemMap)    # no tree to walk or check again
    m.tape = tape
    m.dom, m.cod, m._kept = dom, len(tape[1]), {}
    return m


def _pruned(code, roots):
    """The tape less the instructions no root reads: a folded-away subtree
    must not reach float evaluation."""
    live = set(roots)
    for k in range(len(code) - 1, -1, -1):
        if k in live and code[k][0] not in ("const", "var"):
            live.update(code[k][1:3 if code[k][0] in ("add", "mul") else 2])
    if len(live) < len(code):
        old = sorted(live)
        new = dict(zip(old, range(len(old))))
        code = [_renumbered(code[k], new) for k in old]
        roots = [new[r] for r in roots]
    return code, roots


def _tape(roots):
    """The tape of trees made by hand or by the parser, each node taken as
    it stands, walked iteratively so that tree depth is not bounded by the
    stack.  `at`, from a node's id to its index, lives for this walk only,
    while the caller holds every node."""
    b, at, stack = _Builder(), {}, list(reversed(roots))
    while stack:
        todo = [p for p in stack[-1] if type(p) is tuple and id(p) not in at]
        if todo:
            stack.extend(todo)
        else:
            node = stack.pop()
            at[id(node)] = b.insert(tuple(
                at[id(p)] if type(p) is tuple else p for p in node))
    return b.code, [at[id(r)] for r in roots]


_FLOATS = {"add": operator.add, "mul": operator.mul, "pow": operator.pow,
           "sin": math.sin, "cos": math.cos, "exp": math.exp}

# The trees of a tape, each node as its instruction was built.
_TREES = {tag: functools.partial(lambda *node: node, tag) for tag in _FLOATS}

# The forward-mode rule along one variable, on indices of one builder b:
# the partial of v, tag applied to x and y (pow's exponent), from the
# operands' partials dx and dy.  `ElemMap.differential` applies it once per
# partial a value carries.
_PARTIALS = {
    "add": lambda b, v, x, dx, y, dy: b.apply("add", dx, dy),
    "mul": lambda b, v, x, dx, y, dy: b.apply(
        "add", b.apply("mul", dx, y), b.apply("mul", x, dy)),
    "pow": lambda b, v, x, dx, n, dy: b.apply("mul", b.apply(
        "mul", b.insert(const(n)), b.apply("pow", x, n - 1)), dx)
        if n else b.insert(const(0)),
    "sin": lambda b, v, x, dx, y, dy: b.apply("mul", b.apply("cos", x), dx),
    "cos": lambda b, v, x, dx, y, dy: b.apply("mul", b.apply(
        "mul", b.insert(const(-1)), b.apply("sin", x)), dx),
    "exp": lambda b, v, x, dx, y, dy: b.apply("mul", v, dx),
}


def _float_values(tape, point):
    return _run(tape, _FLOATS,
                lambda ins: float(point[ins[1]] if ins[0] == "var" else ins[1]))


def _columns(tape, columns, marked):
    """The tape's root columns over columns of floats, one per coordinate;
    NaN, and the point `marked`, where a run at that point alone would have
    raised (nested exp chains leave float range on parts of the box)."""
    def at(f, p, args):
        try:
            return f(*args)
        except (OverflowError, ValueError):
            marked.add(p)
            return math.nan

    n, vals = ELEM_EQ_SAMPLES, []
    push = vals.append
    for ins in tape[0]:
        tag = ins[0]
        if tag == "var":
            push(columns[ins[1]])
        elif tag == "add" or tag == "mul":
            push(list(map(_FLOATS[tag], vals[ins[1]], vals[ins[2]])))
        elif tag == "const":
            try:
                push([float(ins[1])] * n)
            except OverflowError:       # a constant beyond float range
                push([at(float, p, ins[1:]) for p in range(n)])
        else:
            f, args = _FLOATS[tag], (vals[ins[1]],)
            if tag == "pow":
                args += ([ins[2]] * n,)
            try:
                push(list(map(f, *args)))
            except (OverflowError, ValueError):
                push([at(f, p, a) for p, a in enumerate(zip(*args))])
    return [vals[r] for r in tape[1]]


def _summed_rows(tape, *inputs):
    """Per sample point, the tuple of the tape's root values summed over
    its runs on each input's columns, or None where a run at that point
    would have raised or a value is not finite: no information."""
    marked = set()
    cols = functools.reduce(
        lambda a, b: [list(map(operator.add, x, y)) for x, y in zip(a, b)],
        [_columns(tape, columns, marked) for columns in inputs])
    return [None if p in marked or not all(map(math.isfinite, row)) else row
            for p, row in enumerate(zip(*cols) if cols
                                    else [()] * ELEM_EQ_SAMPLES)]


def _float_rows(tape, columns):     # the rows of a built tape
    return _summed_rows(tape, columns)


def _sampled(k, tape, summands):
    """The rows of a deferred precomposition (`ElemMap._precompose`)."""
    cloud = _cloud(summands[0].dom << k)[1]
    return _summed_rows(tape, *[_columns(pfunctor_apply(g, k).tape, cloud,
                                         set()) for g in summands])


def _fold_free(m):
    """Whether rewriting m's tape on its own variables would fold nothing,
    and no root is constant: no add or mul with a 0 operand or two constant
    operands, no mul by 1, no pow with exponent 0 or 1 or a constant base."""
    code, roots = m.tape
    for ins in code:
        tag = ins[0]
        if tag == "add" or tag == "mul":
            consts = [c[1] for c in (code[ins[1]], code[ins[2]])
                      if c[0] == "const"]
            if 0 in consts or len(consts) == 2 or tag == "mul" and 1 in consts:
                return False
        elif tag == "pow" and (ins[2] < 2 or code[ins[1]][0] == "const"):
            return False
    return all(code[r][0] != "const" for r in roots)


@functools.lru_cache(maxsize=64)
def _cloud(dom):
    """The seeded sample points for a domain, and their coordinate columns."""
    rng = random.Random(ELEM_EQ_SEED + dom)
    points = [[rng.uniform(-1.0, 1.0) for _ in range(dom)]
              for _ in range(ELEM_EQ_SAMPLES)]
    return points, list(zip(*points))


class ElemMap(CoordMap):
    """Map between coordinate spaces with one expression tree per output.

    Equality is decided by sampling: both maps are evaluated at a fixed
    seeded cloud of points in [-1, 1]^dom and compared coordinatewise to a
    relative tolerance (absolute when the reference magnitude is below 1).
    Trees that agree on the cloud but differ elsewhere are declared equal;
    that false-positive risk is accepted by design for this base.  A
    comparison with no sample point where both sides are finite fails, and
    a tolerance that is not a finite number >= 0 is refused.
    """

    base = "elementary"
    __slots__ = ("tape", "_parts")     # see _Builder; `_precompose`

    _ops = {"add": add, "mul": mul, "pow": pow_, "sin": sin, "cos": cos,
            "exp": exp, "sum": lambda ts: functools.reduce(add, ts)}

    def __getattr__(self, name):
        """Components built from the tape when first read; the tape of a
        deferred precomposition built when first read."""
        if name == "components":
            self.components = tuple(_run(self.tape, _TREES, lambda ins: ins))
            return self.components
        if name != "tape":
            raise AttributeError(name)
        k, tape, summands = self._parts
        self.tape = _precomposed(k, _map(summands[0].cod << k, tape),
                                 summands).tape
        return self.tape

    def _precompose(self, k, summands):
        """Deferred where building would only relabel self's tape, as
        (k, tape, summands); what `then` or `+` would refuse is built."""
        h = summands[0]
        if not (keep(self, "foldfree", _fold_free, self) and all(
                g.base == self.base and (g.dom, g.cod << k) == (h.dom, self.dom)
                and "const" not in [c[0] for c in g._heads()]
                for g in summands)):
            return _precomposed(k, self, summands)
        m = ElemMap.__new__(ElemMap)
        m.dom, m.cod, m._kept = h.dom << k, self.cod, {}
        m._parts = k, self.tape, summands
        return m

    def _check_components(self):
        self.tape = _tape(self.components)
        top = max((ins[1] for ins in self.tape[0] if ins[0] == "var"),
                  default=-1)
        if top >= self.dom:
            raise DimensionMismatch(
                f"component uses variable x{top}, domain is {self.dom}")

    @staticmethod
    def _constant(nvars, value):
        return const(value)

    @staticmethod
    def _variable(nvars, j):
        return var(j)

    @staticmethod
    def _route(c):
        if c[0] == "var":
            return c[1]
        return -1 if c[0] == "const" and not c[1] else None

    def _heads(self):       # a leaf component is its root instruction
        code, roots = self.tape
        return [code[r] for r in roots]

    def _combine(self, dom, parts, op=None):
        b = _Builder()
        blocks = [b.copy(m) if offset is None else b.rewrite(
                      m.tape, [var(j + offset) for j in range(m.dom)])
                  for m, offset in parts]
        return b.map(dom, [b.apply(op, *ks) for ks in zip(*blocks)] if op
                     else [k for block in blocks for k in block])

    def then(self, other):
        """other's components with x_j replaced by self's component j.

        other's tape is rewritten with each var instruction read as self's
        component: as its root instruction when self only routes variables
        (see `CoordMap._routes`), else as its index in a copy of self's
        tape.  After a routing, each leaf is inserted when first read, so
        only a fold leaves an instruction dead; a copy may go unread."""
        self._require_composable(other)
        b = _Builder()
        routes = self._routes() is not None
        reps = self._heads() if routes else b.copy(self)
        return b.map(self.dom, b.rewrite(other.tape, reps), prune=not routes)

    def differential(self):
        """Directional derivative on the doubled domain (point, direction),
        in one forward-mode run.  Each value is an index and its partials
        {j: index of d value / d x_j}, one per variable it reads; an
        instruction's value is `apply` of its tag, and its `_PARTIALS` rule
        runs once per partial either operand carries, reading `zero` where
        the other has none.  Each component is then the sum of
        partial_j * x_(d+j) in ascending j."""
        d, b = self.dom, _Builder()
        zero, one = b.insert(const(0)), b.insert(const(1))

        def forward(tag, p, q=None):    # q: an operand, or pow's exponent
            dual = type(q) is tuple
            y, dys = (q[0], q[1]) if dual else (q, {})
            v, rule = b.apply(tag, p[0], y), _PARTIALS[tag]
            return v, {j: rule(b, v, p[0], p[1].get(j, zero), y,
                               dys.get(j, zero))
                       for j in set().union(p[1], dys)}

        comps = []
        for _, partials in _run(
                self.tape, {tag: functools.partial(forward, tag)
                            for tag in _PARTIALS},
                lambda ins: (b.insert(ins),
                             {ins[1]: one} if ins[0] == "var" else {})):
            total = zero
            for j in sorted(partials):
                total = b.apply("add", total, b.apply(
                    "mul", partials[j], b.insert(var(d + j))))
            comps.append(total)
        return b.map(2 * d, comps, prune=True)

    def eval(self, point):
        self._require_point(point)
        return tuple(_float_values(self.tape, point))

    def sample_points(self):
        return [list(p) for p in _cloud(self.dom)[0]]

    def _rows(self):
        """The rows over the domain's cloud, sampled once: `_sampled` for a
        deferred precomposition, else `_float_rows` of the tape."""
        return keep(self, "rows", lambda: _sampled(*self._parts)
                    if hasattr(self, "_parts")
                    else _float_rows(self.tape, _cloud(self.dom)[1]))

    def equal_witness(self, other, tol=None):
        """(equal?, first failing sample point or None)."""
        self._require_same_signature(other, "comparison needs equal signatures")
        if tol is None:
            tol = ELEM_TOLERANCE
        elif not (math.isfinite(tol) and tol >= 0):
            raise EngineError(f"tolerance must be a finite number >= 0, "
                              f"got {tol!r}")
        points, rows, others = _cloud(self.dom)[0], self._rows(), other._rows()
        if rows != others:      # equal rows pass without a look at each
            for point, ref, got in zip(points, rows, others):
                if (ref is None) != (got is None) or ref and any(
                        abs(a - b) > tol * max(1.0, abs(a))
                        for a, b in zip(ref, got)):
                    return False, list(point)
        if rows.count(None) < len(rows):    # some point is informative
            return True, None
        return False, list(points[0])
