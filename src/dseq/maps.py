"""The shared map interface and base-agnostic morphism operations.

Every space is a finite coordinate space identified by its dimension.  A
map carries one component per output coordinate; `CoordMap` owns what
every base shares (signatures, pairing, sums), each base subclass supplies
its algebra, and `identity`, `zero_map`, `coord_slice` and `proj` build
structural maps of any base from its leaves; `canonical_map` builds the
structural block maps of the axioms from one table.  The doubling functor
`pfunctor_apply` sends a map to block-diagonal copies of itself; its n-th
power acts on 2^n stacked blocks, indexed so that bit 0 of a block index
is the innermost doubling.

Kept state.  The tangent and the axiom checkers precompose tower terms
with a few dozen structural maps pushed through k doublings, each many
times over, so what is worked out for an object is kept in its `_kept`
table by `keep(owner, key, build, *args)`, the one memo.  The keys:

- on a map (`CoordMap`):
  - k, an int: its k-fold doubling (`pfunctor_apply`);
  - "routes": the variable or zero each component is, or None if some
    component is neither (`CoordMap._routes`, read by both bases' `then`);
  - "routing": a polynomial routing's `_routing` shape, None where two
    variables route to one (`PolyMap.then`);
  - "rows": an elementary map's float rows over its domain's sample cloud
    (`ElemMap._rows`, read by `equal_witness`);
  - "foldfree": whether rewriting an elementary map's tape on its own
    variables would fold nothing (`expr._fold_free`);
  - "settled": on a deferred polynomial zpair or sumv precomposition,
    whether its term's monomials pass DS.1' or DS.2' (`poly._settled`),
    so that the second DS checker reads the verdict of the first;
  - ("rmul", order): on a map the CD battery lifts, all of which it
    builds from structural maps, the morphism `seq_identity(dom,
    order).rmul(map)` (`comonad.check_cd_axioms`), so that a structural
    map's lifted tower and its tangents are built once per map and order;
  - ((kind, dim, base, k), ...): the sum of the map precomposed with each
    summand `canonical_map(kind, dim, base)` pushed through k doublings
    (`precompose`, which the termwise DS checker and `PreDSeq.lmul` call,
    so the tower-level checker and the tangent read it too).  One summand
    is a precomposition; two are DS.2's right side, whose summands are not
    kept, since only the sum is compared.  Where the map's base can
    compare the value unbuilt (`_defers`), it is a `_Deferred` map, which
    the first read of its defining slot or components builds into a plain
    map of its base, its kept state kept.  The polynomial base defers
    zpair, sumv and sumproj0 + sumproj1, on which `equal_witness` settles
    DS.1' and DS.2' from the term's monomials and the `direction_fields`
    masks (`poly._settled`), building one only when its law fails; the
    elementary base every kind with no zero block on a fold-free map,
    whose rows it samples without a tape (`expr._sampled`).
- on a tower (`PreDSeq`): "tangent", its tangent tower (`PreDSeq.tangent`),
  so every `compose` with one left tower reads one chain T f, T^2 f, ...
  The table is not a dataclass field: equality, hashing, printing and JSON
  see the terms alone.

"structural" marks a map and memoizes nothing: the stamp (kind, dim,
base) that `canonical_map` writes on what it built and `precompose` reads
to decide whether to keep.

These caches live as long as the process.  Each holds constants of a
signature, never a value derived from a caller's map or tower, so each is
bounded by the signatures seen:
- `canonical_map`: one object per structural map, so that each doubling
  of it is built once and its stamp names it;
- `coord_slice`, and so `identity` and `proj`: one per signature and base,
  so that a slice's doublings and routing are worked out once.
  `canonical_map` builds its blocks afresh, since its stamp must land on
  no shared slice: a caller's map precomposed with `proj` is not kept;
- `zero_map`: one per signature and base, so DS.1's zero map is sampled once;
- `sequences.seq_identity`, `seq_zero` and `seq_proj`: one tower per
  signature, order and base, so that its tangents and what its terms keep
  are worked out once;
- `direction_fields`: the field masks of a pushed structural map's zeroed
  and summed variables, one per (kind, block size, k, field width);
- `expr._cloud`: a domain's seeded sample points and their columns, for
  the last 64 domains, shared by every map on that domain;
- `cli.build_parser`: the argument parser, which parsing reads and does
  not change, built once for every in-process `main`.
The builders of structural maps and towers are memoized by
`per_signature`, so a call that leaves the base to its default gets the
object of one that names it.
"""

import inspect
import math
import operator
from functools import lru_cache, reduce, wraps

from .errors import DimensionMismatch, EngineError, TagMismatch

_BASES = {}

# Python refuses to print an integer of more than 4,300 digits, so the
# component algebras refuse a power of a constant that would have more
# (`_DigitLimit`), and printing refuses a number that products or
# composition grew past it.
_CONSTANT_DIGITS_LIMIT = 4300

# The most inputs a map may have.  A polynomial packs each monomial into an
# int of at least 4 bits per input: Python cannot build one past about 2^66
# bits ("too many digits in integer"), nor one that outgrows memory.  At
# this limit a monomial takes 512 KB, ten times what the widest maps the
# tests build (100,000 inputs) take.
_DOM_LIMIT = 1 << 20


class _DigitLimit(EngineError, OverflowError):
    """The refusal of a constant power over the digit limit: an EngineError,
    as every refusal of bad input is, and an OverflowError, which the
    parser reports as a ParseError at its position, as it does a base's
    other size budgets."""


def _text(value):
    """str() of an int or a Fraction, or an EngineError over the limit."""
    try:
        return str(value)
    except ValueError:
        raise EngineError(f"cannot print a number of more than "
                          f"{_CONSTANT_DIGITS_LIMIT} digits") from None


def _check_constant_power(value, n):
    """Refuse the rational value^n if its numerator or denominator would
    have more than _CONSTANT_DIGITS_LIMIT digits."""
    for part in (abs(value.numerator), value.denominator):
        if part > 1 and n >= _CONSTANT_DIGITS_LIMIT / math.log10(part):
            raise _DigitLimit(f"constant power would have more than "
                              f"{_CONSTANT_DIGITS_LIMIT} digits")


def _check_dom(dom, what):
    """Refuse a map of more than _DOM_LIMIT inputs, before it is built."""
    if dom > _DOM_LIMIT:
        raise EngineError(f"{what} has {dom} inputs, over the limit of "
                          f"{_DOM_LIMIT}")


def keep(owner, key, build, *args):
    """owner's kept value under key, build(*args) the first time it is
    asked for: the one memo of the package (see the module docstring)."""
    try:
        return owner._kept[key]
    except KeyError:
        value = owner._kept[key] = build(*args)
        return value


def _read_routes(m):
    routes = tuple(map(m._route, m._heads()))
    return None if None in routes else routes


class _Deferred:
    """A precomposition not built yet: its base's `_deferred` class mixes
    this in.  Reading its `_slot` or components builds it from `_parts`
    and makes it a plain map of its base, which has no such hook."""

    __slots__ = ()

    def __getattr__(self, name):
        if name not in ("components", self._slot):
            raise AttributeError(name)
        k, value, summands = self._parts
        cls = map_class(self.base)
        term = cls.__new__(cls)
        term.dom, term.cod, term._kept = summands[0].cod << k, self.cod, {}
        setattr(term, cls._slot, value)
        built = _precomposed(k, term, summands)
        setattr(self, cls._slot, getattr(built, cls._slot))
        self.__class__ = cls
        return getattr(self, name)


class CoordMap:
    """Map between coordinate spaces with one component per output coordinate.

    A base subclass sets its `base` tag, which registers it for
    `map_class`, and supplies the component algebra the parser also builds
    with: `_constant`, `_variable`, `_ops` (add, sum, mul, pow and the
    functions the base admits); plus `_check_components`, `_combine`,
    `_route`, `then`, `differential`, `eval`, `equal_witness`; `_slot`, the
    slot that defines a map, and `_defers(summands)` (see `precompose`).
    Composition is written diagrammatically: f.then(g) runs f first.

    `_combine(dom, parts, op=None)` makes a map on `dom` variables from
    one block per (map, offset) part: its components, moved up by
    `offset` variables unless that is None.  The map's components are the
    blocks one after another, or with `op` ("add") the blocks' components
    combined by position.

    `_route(c)` is the index of the variable c is, -1 if c is zero, and
    None otherwise; `_routes` reads it off each of `_heads()`, which are
    the components, or on the elementary base their root instructions: a
    variable or zero component is its own root instruction.
    `_kept` is the map's table of kept state (see the module docstring),
    `_parts` a deferred map's (k, the term's slot, summands).
    """

    base = None
    __slots__ = ("dom", "cod", "components", "_kept", "_parts")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "base" in vars(cls):     # a base's own class, not a subclass
            _BASES[cls.base] = cls
            cls._deferred = type("Deferred", (_Deferred, cls), {"__slots__": ()})

    def __init__(self, dom, cod, components):
        components = tuple(components)
        if len(components) != cod:
            raise DimensionMismatch(
                f"{len(components)} components for codomain {cod}")
        self.dom = dom
        self.cod = cod
        self.components = components
        self._kept = {}
        self._check_components()

    def _require_same_kind(self, other):
        if not isinstance(other, _BASES[self.base]):
            raise TagMismatch("cannot mix polynomial and elementary maps")

    def _require_composable(self, other):
        self._require_same_kind(other)
        if self.cod != other.dom:
            raise DimensionMismatch(
                f"composite needs cod {self.cod} == dom {other.dom}")

    def _require_same_signature(self, other, message):
        self._require_same_kind(other)
        if self.dom != other.dom or self.cod != other.cod:
            raise DimensionMismatch(message)

    def _require_point(self, point):
        if len(point) != self.dom:
            raise DimensionMismatch(
                f"point of length {len(point)} for domain {self.dom}")

    def _routes(self):
        """The variable or zero each component is, or None: precomposing
        with a map whose components are all variables and zeros (every
        structural map but the sum, pushed through any number of
        doublings) only moves and drops the other map's variables."""
        return keep(self, "routes", _read_routes, self)

    def _heads(self):       # what `_route` reads, one per component
        return self.components

    def pair(self, other):
        """Pairing into the product of the codomains."""
        self._require_same_kind(other)
        if self.dom != other.dom:
            raise DimensionMismatch("pairing needs equal domains")
        return self._combine(self.dom, [(self, None), (other, None)])

    def tangent(self):
        """Pair of (self at the base point, derivative in the direction)."""
        pi0 = canonical_map("proj0", self.dom, self.base)
        return pi0.then(self).pair(self.differential())

    def __add__(self, other):
        self._require_same_signature(
            other, "sum needs equal domains and codomains")
        return self._combine(self.dom, [(self, None), (other, None)], "add")

    def equal(self, other, tol=None):
        return self.equal_witness(other, tol)[0]

    def __eq__(self, other):
        return (isinstance(other, _BASES[self.base]) and self.dom == other.dom
                and self.cod == other.cod and self.components == other.components)

    def __hash__(self):
        return hash((self.dom, self.cod, self.components))

    def __repr__(self):
        from .parser import format_map
        body = ", ".join(format_map(self))
        return f"{type(self).__name__}({self.dom}->{self.cod}: [{body}])"


def map_class(base):
    try:
        return _BASES[base]
    except KeyError:
        raise TagMismatch(f"unknown base tag {base!r}") from None


def per_signature(build):
    """build, whose last parameter is the base and the only one with a
    default, memoized by `lru_cache` on its arguments with the base
    written out: one object per signature and base however a call spells
    them.  For the builders of structural maps and towers (see the list
    of caches above); the memo's `cache_info` and `cache_clear` are
    exposed."""
    memo = lru_cache(maxsize=None)(build)
    signature = inspect.signature(build)
    arity = len(signature.parameters)

    @wraps(build)
    def once(*args, **kwargs):
        if kwargs or len(args) < arity - 1:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        elif len(args) < arity:
            args += build.__defaults__
        return memo(*args)

    once.cache_info, once.cache_clear = memo.cache_info, memo.cache_clear
    return once


def identity(dim, base="poly"):
    return coord_slice(dim, 0, dim, base)


@per_signature
def zero_map(dom, cod, base="poly"):
    """The zero map, so that what it keeps (its sampled rows) is worked
    out once."""
    cls = map_class(base)
    return cls(dom, cod, [cls._constant(dom, 0)] * cod)


def proj(a, b, j, base="poly"):
    """Projection A x B -> A (j=0) or A x B -> B (j=1)."""
    assert j in (0, 1)
    return coord_slice(a + b, 0 if j == 0 else a, a if j == 0 else b, base)


@per_signature
def coord_slice(total, start, size, base="poly"):
    """Projection keeping coordinates [start, start+size)."""
    assert 0 <= start and start + size <= total
    cls = map_class(base)
    return cls(total, size,
               [cls._variable(total, start + j) for j in range(size)])


def pfunctor_apply(h, k):
    """k-fold doubling: 2^k block-diagonal copies of h, kept on h."""
    assert k >= 0
    return keep(h, k, lambda: h._combine(
        h.dom << k, [(h, c * h.dom) for c in range(1 << k)]))


def precompose(h, k, m, *more):
    """pfunctor_apply(h, k).then(m); with `more` maps of h's signature, the
    sum of m precomposed so with h and with each of them (DS.2's right
    side).  Kept on m when every summand came from `canonical_map`."""
    summands = (h, *more)
    try:
        key = tuple([(*g._kept["structural"], k) for g in summands])
    except KeyError:
        return _precomposed(k, m, summands)
    return keep(m, key, _kept_precomposition, k, m, summands)


def _kept_precomposition(k, m, summands):
    """Deferred where m's base can compare it unbuilt (`_defers`), holding
    m's slot, not m, so that the kept value makes no reference cycle; what
    `then` or `+` would refuse is built, so that it raises as they do."""
    h = summands[0]
    if not (h.cod << k == m.dom and all(
            g.base == m.base and (g.dom, g.cod) == (h.dom, h.cod)
            for g in summands) and m._defers(summands)):
        return _precomposed(k, m, summands)
    d = m._deferred.__new__(m._deferred)
    d.dom, d.cod, d._kept = h.dom << k, m.cod, {}
    d._parts = k, getattr(m, m._slot), summands
    return d


def _precomposed(k, m, summands):
    return reduce(operator.add,
                  (pfunctor_apply(g, k).then(m) for g in summands))


# kind: (input blocks, source of each output block), a source being an
# input block's index, None for a zero block, or a pair of input blocks
# for their sum.
_STRUCTURAL = {
    "zpair": (1, (0, None)),            # x |-> (x, 0)
    "sumv": (3, (0, (1, 2))),           # (a, b, c) |-> (a, b + c)
    "sumproj0": (3, (0, 1)),            # (a, b, c) |-> (a, b)
    "sumproj1": (3, (0, 2)),            # (a, b, c) |-> (a, c)
    "lift": (2, (0, None, None, 1)),    # (a, b) |-> (a, 0, 0, b)
    "flip": (4, (0, 2, 1, 3)),          # (a, b, c, d) |-> (a, c, b, d)
    "proj0": (2, (0,)),                 # (a, b) |-> a, the tangent's base
}


@per_signature
def canonical_map(kind, dim, base="poly"):
    """The structural block map `kind` of `_STRUCTURAL`, at block size dim."""
    try:
        blocks, sources = _STRUCTURAL[kind]
    except KeyError:
        raise ValueError(f"unknown canonical map kind {kind!r}") from None
    total = blocks * dim

    def block(source):
        if source is None:
            return zero_map(total, dim, base)
        if isinstance(source, tuple):
            return block(source[0]) + block(source[1])
        # afresh: proj0 is its own one block, and the stamp below must
        # land on no shared slice (see the list of caches above)
        return coord_slice.__wrapped__(total, source * dim, dim, base)

    h = reduce(lambda out, b: out.pair(b), map(block, sources))
    h._kept["structural"] = (kind, dim, base)
    return h


@lru_cache(maxsize=None)
def direction_fields(kind, dim, k, w):
    """(mask, units) over the w-bit exponent fields of a packed monomial of
    a map that `canonical_map(kind, dim)` pushed through k doublings
    precomposes: the fields of the variables it does not take from one
    input block, those it zeroes or sums (for zpair and sumv, the second
    block of each of the 2^k copies).  units has the lowest bit of each
    such field, mask all its bits; the field of variable 0 is the most
    significant, as in `poly`."""
    sources = _STRUCTURAL[kind][1]
    run = ((1 << dim * w) - 1) // ((1 << w) - 1)    # units of dim fields
    copy = sum(run << (len(sources) - 1 - b) * dim * w
               for b, source in enumerate(sources) if type(source) is not int)
    size = len(sources) * dim * w
    units = copy * (((1 << (size << k)) - 1) // ((1 << size) - 1))
    return units * ((1 << w) - 1), units


def compare_maps(f, g, tol=None):
    """(equal?, witness): a difference map for polynomials, a failing sample
    point for elementary maps, None when equal."""
    return f.equal_witness(g, tol)
