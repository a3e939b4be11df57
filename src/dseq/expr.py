"""Elementary smooth expressions: trees over +, *, integer powers, sin, cos, exp.

Trees are tagged tuples built by the smart constructors below: ("const",
Fraction), ("var", i), ("add", a, b), ("mul", a, b), ("pow", a, n), ("sin", a),
("cos", a), ("exp", a).  Only rational subtrees are folded, so the printed
form mirrors how an expression was built.

Terms of a composite tower repeat their subexpressions heavily, so no
operation walks a tree.  An `ElemMap` keeps a tape, a straight-line program
with one instruction per distinct subtree, and `_run` evaluates a tape in
an algebra (a table of add/mul/pow/sin/cos/exp plus a leaf function).
`_tape` tapes the trees of the parser or of hand-built maps; every
operation builds its result's tape from its operands' tapes (`_Builder`).
Sampled equality runs each tape once over columns of floats, one value per
sample point, and a map keeps those rows (kept state is listed in `maps`).
The differential is one forward-mode run too: each value carries its tree
and its partials, one per variable it reads.

Every rebuild of a tape under a substitution (`then`, the shifted copies
of `pfunctor_apply`) is one loop, `_Builder.rewrite`: the smart
constructors run only where an operand is a constant, and the builder
merges what folding made equal.  Where that loop would fold nothing (the
tape fold-free, and no summand with a constant component: every kind but
zpair and lift), a precomposition is sampled without a tape: `_sampled`
runs the built tape's float operations on the same columns, so its rows
are the same bits.
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
    const or var node to a value."""
    code, roots, _ = tape
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
    """A tape under construction.  Instruction k is a node whose subtrees
    are replaced by the indices of their own, earlier, instructions, and
    nodes[k], its tree, is its handle: what operations pass around.
    `intern` takes a smart constructor's result on handles to its handle.

    The lookup tables are rebuilt from code and nodes where they fall
    short (`_tables`): `copy` into an empty builder takes a tape whole, and
    `rewrite` writes no handle to `at`."""

    def __init__(self):     # index: instruction -> k; at: id(handle) -> k
        self.code, self.nodes, self.index, self.at = [], [], {}, {}

    def _tables(self):
        if len(self.index) < len(self.code):
            self.index = {_key(ins): k for k, ins in enumerate(self.code)}
        if len(self.at) < len(self.code):
            self.at = {id(node): k for k, node in enumerate(self.nodes)}
        return self.at

    def intern(self, node):
        at = self.at
        if id(node) in at:
            return node
        if node[0] == "const" or node[0] == "var":
            return self.nodes[self._add(node, node)]
        x = node[1] if id(node[1]) in at else self.intern(node[1])
        if node[0] == "add" or node[0] == "mul":
            y = node[2] if id(node[2]) in at else self.intern(node[2])
            ins = (node[0], at[id(x)], at[id(y)])
        else:
            ins = (node[0], at[id(x)], *node[2:])
        return self.nodes[self._add(ins, node)]

    def _add(self, ins, node):
        """The index of the instruction ins, whose tree is node."""
        key = _key(ins)
        k = self.index.get(key)
        if k is None:
            k = self.index[key] = self.at[id(node)] = len(self.code)
            self.code.append(ins)
            self.nodes.append(node)
        return k

    def copy(self, m):
        """Handles of m's components, its instructions taken as they are."""
        code, roots, nodes = m.tape
        if not self.code:       # whole: one instruction per distinct subtree
            self.code, self.nodes = list(code), list(nodes)
            return [nodes[r] for r in roots]
        self._tables()
        new = []
        for ins, node in zip(code, nodes):
            new.append(self._add(_renumbered(ins, new), node))
        return [self.nodes[new[r]] for r in roots]

    def rewrite(self, tape, reps):
        """Indices of the tape's roots, its instructions rebuilt here with
        var j read as the node reps[j]: a handle, or a var or zero leaf.
        The smart constructors run only where an operand is a constant, an
        instruction that folds to an operand takes the operand's index, and
        the lookup merges what folding made equal.  No handle made here is
        written to `at`: `_tables` adds them when they are next looked up."""
        code, roots, _ = tape
        at, index = self._tables(), self.index
        out, trees, ops = self.code, self.nodes, ElemMap._ops
        new = []
        push = new.append
        for ins in code:
            tag = ins[0]
            if tag == "var":
                ins = t = reps[ins[1]]
                k = at.get(id(t))
                if k is not None:
                    push(k)
                    continue
            elif tag == "const":
                t = ins
            else:
                i = j = new[ins[1]]
                x = trees[i]
                if tag == "add" or tag == "mul":
                    j = new[ins[2]]
                    y = trees[j]
                    t = (ops[tag](x, y) if x[0] == "const" or y[0] == "const"
                         else (tag, x, y))
                    ins = (tag, i, j)
                elif tag == "pow":
                    t = pow_(x, ins[2])
                    ins = ("pow", i, ins[2])
                else:
                    ins, t = (tag, i), (tag, x)
                if t is x or t is trees[j]:     # folded to an operand
                    push(i if t is x else j)
                    continue
            key = ins if t[0] != "const" else _key(t)
            k = index.get(key)
            if k is None:
                k = index[key] = len(out)
                out.append(t if t[0] == "const" else ins)
                trees.append(t)
            push(k)
        return [new[r] for r in roots]

    def tape(self, comps):
        """The tape of these components: handles, or trees to intern."""
        at = self._tables()
        return _pruned(self.code, [at[id(self.intern(c))] for c in comps],
                       self.nodes)

    def map(self, dom, comps):
        return _map(dom, self.tape(comps))


def _map(dom, tape):
    m = ElemMap.__new__(ElemMap)    # no tree to walk or check again
    m.tape = code, roots, nodes = tape
    m.dom, m.cod, m._kept = dom, len(roots), {}
    m.components = tuple(nodes[r] for r in roots)
    return m


def _pruned(code, roots, nodes):
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
        nodes = [nodes[k] for k in old]
        roots = [new[r] for r in roots]
    return code, roots, nodes


def _tape(roots):
    """The tape of trees made by hand or by the parser, walked iteratively
    so that tree depth is not bounded by the stack."""
    b, stack = _Builder(), list(reversed(roots))
    while stack:
        todo = [p for p in stack[-1] if type(p) is tuple and id(p) not in b.at]
        if todo:
            stack.extend(todo)
        else:
            node = stack.pop()
            b.at[id(node)] = b.at[id(b.intern(node))]   # equal trees share k
    return b.tape(roots)


_FLOATS = {"add": operator.add, "mul": operator.mul, "pow": operator.pow,
           "sin": math.sin, "cos": math.cos, "exp": math.exp}

# (tree, partial derivative) pairs: the forward-mode rule along one variable,
# which `ElemMap.differential` applies once per partial a value carries.
_PAIRS = {
    "add": lambda p, q: (add(p[0], q[0]), add(p[1], q[1])),
    "mul": lambda p, q: (mul(p[0], q[0]),
                         add(mul(p[1], q[0]), mul(p[0], q[1]))),
    "pow": lambda p, n: (pow_(p[0], n),
                         mul(mul(const(n), pow_(p[0], n - 1)), p[1])
                         if n else const(0)),
    "sin": lambda p: (sin(p[0]), mul(cos(p[0]), p[1])),
    "cos": lambda p: (cos(p[0]), mul(neg(sin(p[0])), p[1])),
    "exp": lambda p: (exp(p[0]), mul(exp(p[0]), p[1])),
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
    code, roots, _ = m.tape
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

    def __getattr__(self, name):    # of a deferred map: built on first read
        if name != "tape" and name != "components":
            raise AttributeError(name)
        k, tape, summands = self._parts
        m = _precomposed(k, _map(summands[0].cod << k, tape), summands)
        self.tape, self.components = m.tape, m.components
        return getattr(self, name)

    def _precompose(self, k, summands):
        """Deferred where building would only relabel self's tape, as
        (k, tape, summands); what `then` or `+` would refuse is built."""
        h = summands[0]
        if not (keep(self, "foldfree", _fold_free, self) and all(
                g.base == self.base and (g.dom, g.cod << k) == (h.dom, self.dom)
                and "const" not in [c[0] for c in g.components]
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

    def _combine(self, dom, parts, build):
        b = _Builder()
        blocks = [b.copy(m) if offset is None else
                  [b.nodes[k] for k in b.rewrite(
                      m.tape, [var(j + offset) for j in range(m.dom)])]
                  for m, offset in parts]
        return b.map(dom, build(blocks))

    def then(self, other):
        """other's components with x_j replaced by self's component j.

        other's tape is rewritten with each var instruction read as self's
        component: as it stands when self only routes variables (see
        `CoordMap._routes`), else as the handle of a copy of self's tape.
        After a routing, a rewrite that kept every instruction's tag folded
        and merged nothing, so nothing in it is dead."""
        self._require_composable(other)
        b = _Builder()
        routes = self._routes() is not None
        reps = self.components if routes else b.copy(self)
        tape = b.code, b.rewrite(other.tape, reps), b.nodes
        if routes and [i[0] for i in b.code] == [i[0] for i in other.tape[0]]:
            return _map(self.dom, tape)
        return _map(self.dom, _pruned(*tape))

    def differential(self):
        """Directional derivative on the doubled domain (point, direction),
        in one forward-mode run.  Each value is its tree and its partials
        {j: d tree / d x_j}, one per variable it reads; an instruction
        applies its `_PAIRS` rule once per partial either operand carries,
        reading `zero` where the other has none.  Each component is then
        the sum of partial_j * x_(d+j) in ascending j."""
        d, b = self.dom, _Builder()
        zero, one = b.intern(const(0)), b.intern(const(1))

        def forward(f, *args):      # values, and pow's integer exponent
            def pair(j):
                return f(*[(a[0], a[1].get(j, zero)) if type(a) is tuple
                           else a for a in args])
            js = set().union(*(a[1] for a in args if type(a) is tuple))
            return (b.intern(pair(None)[0]),      # j None: the tree alone
                    {j: b.intern(pair(j)[1]) for j in js})

        rules = {tag: functools.partial(forward, f)
                 for tag, f in _PAIRS.items()}
        comps = []
        for _, partials in _run(self.tape, rules, lambda ins: (
                b.intern(ins), {ins[1]: one} if ins[0] == "var" else {})):
            total = zero
            for j in sorted(partials):
                total = b.intern(add(total, mul(partials[j], var(d + j))))
            comps.append(total)
        return b.map(2 * d, comps)

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
