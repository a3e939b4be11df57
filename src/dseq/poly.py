"""Sparse multivariate polynomials over exact rationals, and polynomial maps.

A polynomial in n variables is stored packed:

- Each monomial x0^e0 ... x(n-1)^e(n-1) of total degree d is one int,
  d << n*w | e0 << (n-1)*w | ... | e(n-1): the total degree in the top
  field, then one w-bit field per variable with x0 most significant.  The
  product of two monomials is the sum of their ints, and descending int
  order is descending graded-lexicographic order.
- The coefficients are integer numerators over one positive common
  denominator, reduced so that no integer above 1 divides the denominator
  and every numerator: it is the least denominator that serves all terms.
- The field width w is 4 bits while the degree is below 16, and the bit
  length of the degree above that.  No exponent exceeds the degree, so no
  field carries into its neighbour.  An operation whose result would need
  wider fields repacks its operands first, and a result whose degree fell
  below the width's range is repacked narrower.  Narrow fields keep the
  ints short: a term of an order-6 tower of a 2->2 map has 128 variables.

Monomials are kept in descending order with no zero numerators.  The width
is a function of the degree, so two polynomials are mathematically equal iff
their packed monomials, numerators and denominators compare equal.  `terms`
presents the same polynomial as (exponent tuple, Fraction) pairs in that
order.

Products, sums and substitutions merge in one loop over dicts from int
keys to ints (`add`, `add_product`, `power`).  A substitution has two
encodings, one context per `PolyMap.then`: a key is a packed monomial
(`_Sparse`), or, where x0 and x1 are dense, as in a tower term's base
point, a direction part whose int packs the coefficients in x0 and x1 as
8- to 64-bit digits on a grid as wide as the degree bound (`_Kron`,
Kronecker substitution).
"""

import operator
import struct
from fractions import Fraction
from itertools import compress
from math import comb, gcd, lcm

from .errors import DimensionMismatch
from .maps import (CoordMap, _check_constant_power, _precomposed,
                   direction_fields, keep)

# Term products one parsed product or power may cost before it is refused,
# as an OverflowError that the parser reports as a ParseError.  (x0+1)^499
# is the largest power of a binomial that fits; `derive --order 1` on it
# takes about 1 s on a 2-vCPU Xeon, and on (x0+1)^3000 more than 8 s.
_PARSE_WORK_LIMIT = 250_000

# `PolyMap.then` substitutes through `_Kron` into maps of 2 or more
# variables when the degree bound is below 16, an outer component has
# _KRON_MIN_TERMS monomials, the maps _KRON_MIN_FILL monomials per
# direction part, and the digits fit 64 bits: there one int product
# replaces a block of term products.  Substitutions per benchmark cycle
# that take it, with their digit widths: poly_compose 26 of 26 (24 or 25
# at 32 bits, the rest at 64), tower_roundtrip 4 of 16 (32 bits),
# law_check 0 of 1,827; and selftest (25 trials) 100 of 9,804 at seed 42
# and 100 of 9,502 at seed 43, all in its dense chain family, at 32 bits.
# None on the ladder pair (perfbench LADDER_*) at orders 1-7.
_KRON_MIN_TERMS = 8
_KRON_MIN_FILL = 3
# `struct` codes of the signed digits that `_Kron` packs, by width.
_DIGIT = {8: "b", 16: "h", 32: "i", 64: "q"}


def _budgeted(work, what):
    if work > _PARSE_WORK_LIMIT:
        raise OverflowError(f"{what} would cost about {work} term products, "
                            f"over the budget of {_PARSE_WORK_LIMIT}")


def _parsed_mul(p, q):
    _budgeted(len(p._mons) * len(q._mons), "product")
    return p * q


def _parsed_pow(p, n):
    """p^n, bounded by the square of the C(n+t-1, t-1) monomials of degree
    n in t terms that the result can have; the power of a single term has
    the n-th power of its coefficient, bounded in digits."""
    if len(p._mons) == 1:
        _check_constant_power(Fraction(p._nums[0], p._den), n)
    t = max(len(p._mons), 1)
    _budgeted(comb(n + t - 1, t - 1) ** 2, "power")
    return p ** n


def _width(degree):
    """Field width for a polynomial of this total degree."""
    return max(4, degree.bit_length())


_NARROW = _width(0)


def _repack(mons, nvars, w, new_w):
    """Monomials moved to field width new_w: one step per nonzero field,
    the degree's included (it fits a field), not one per variable."""
    return [sum(e << (shift // w * new_w) for shift, e in _factors(m, w))
            for m in mons]


def _factors(fields, w):
    """(shift, exponent) of each nonzero w-bit field of `fields`, the most
    significant (lowest variable index) first."""
    out = []
    while fields:
        shift = (fields.bit_length() - 1) // w * w
        e = fields >> shift
        fields -= e << shift
        out.append((shift, e))
    return out


def _unpack(mon, nvars, w):
    """Exponent tuple of a packed monomial; costs one step per nonzero
    field, not per variable."""
    exps = [0] * nvars
    for shift, e in _factors(mon & ((1 << (nvars * w)) - 1), w):
        exps[nvars - 1 - shift // w] = e
    return tuple(exps)


class _Packed(tuple):
    """Canonical packed parts (width, monomials, numerators, denominator),
    which the constructor takes as they are."""

    __slots__ = ()


def _poly(nvars, w, mons, nums, den):
    """The trusted constructor: canonical packed parts, no checks."""
    return Poly(nvars, _Packed((w, mons, nums, den)))


def _finish(nvars, w, mons, nums, den):
    """Polynomial from descending distinct monomials with nonzero numerators
    over `den`: reduces the denominator, and the width if the degree fell."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [c // g for c in nums]
    if not mons:
        return _poly(nvars, _NARROW, (), (), 1)
    if w > _NARROW:
        narrow = _width(mons[0] >> (nvars * w))
        if narrow != w:
            mons = _repack(mons, nvars, w, narrow)
            w = narrow
    return _poly(nvars, w, tuple(mons), tuple(nums), den)


def _normal(nvars, w, acc, den):
    """Polynomial from a dict of packed monomial -> numerator over `den`."""
    mons = [m for m, c in acc.items() if c]
    mons.sort(reverse=True)
    return _finish(nvars, w, mons, [acc[m] for m in mons], den)


def _mons_at(p, w):
    return p._mons if p._w == w else _repack(p._mons, p.nvars, p._w, w)


def add(acc, k, pairs):
    """acc += k * p, for a dict from keys to ints and p given by its
    (key, int) pairs."""
    get = acc.get
    for m, c in pairs:
        acc[m] = get(m, 0) + k * c


def add_product(acc, p, q):
    """acc += p * q, for dicts from keys to ints, the key of a term product
    being the sum of its factors' keys: each merges with one lookup and one
    store, the shorter operand outside, and entries that cancelled to zero
    are skipped."""
    if len(p) > len(q):
        p, q = q, p
    get = acc.get
    q = [mc for mc in q.items() if mc[1]]
    for m1, c1 in p.items():
        if c1:
            for m2, c2 in q:
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2


def power(p, e):
    """p ** e for e >= 1, by products from p itself; p ** 1 is p."""
    out = p
    for _ in range(e - 1):
        out, prev = {}, out
        add_product(out, prev, p)
    return out


def _homogeneous(p, nums, point, q):
    """sum_mu c_mu point^mu q^(deg - |mu|) over p's monomials mu, the c_mu
    read from `nums`: q^deg times p's numerator at point / q."""
    n, w, top = p.nvars, p._w, max(p.degree(), 0)
    low = (1 << (n * w)) - 1
    powers = {}
    total = 0
    for m, c in zip(p._mons, nums):
        for key in _factors(m & low, w):
            x = powers.get(key)
            if x is None:
                shift, e = key
                x = powers[key] = point[n - 1 - shift // w] ** e
            c = c * x
        total += c * q ** (top - (m >> (n * w)))
    return total


def _at(p, w, f=1):
    """p's numerators times f, keyed by its monomials at width w."""
    return dict(zip(_mons_at(p, w), p._nums if f == 1 else
                    [c * f for c in p._nums]))


def _sum(ps):
    w, den = max([p._w for p in ps]), lcm(*[p._den for p in ps])
    acc = {}
    for p in ps:
        add(acc, den // p._den, zip(_mons_at(p, w), p._nums))
    return _normal(ps[0].nvars, w, acc, den)


def _bound(maps, comps):
    """Degree bound of substituting maps into comps; a zero polynomial,
    of degree -1, counts as degree 0."""
    return (max([q.degree() for q in maps] + [0])
            * max([p.degree() for p in comps] + [0]))


class _Sparse:
    """Term-by-term substitution into n variables, made for one
    `PolyMap.then`: a polynomial is a dict from packed monomials, at the
    one width that the result's degree bound needs, to numerators over the
    maps' common denominator."""

    __slots__ = ("n", "w", "den", "powers")

    def __init__(self, maps, comps, n):
        self.n, self.den, self.powers = n, lcm(*[q._den for q in maps]), {}
        self.w = _width(_bound(maps, comps))

    def encode(self, q):
        return _at(q, self.w, self.den // q._den)

    def decode(self, acc, den):
        return _normal(self.n, self.w, acc, den)


class _Kron:
    """Dense substitution into n >= 2 variables, made for one
    `PolyMap.then` whose degree bound D is below 16.  A polynomial is a
    dict from direction parts (monomials with the x0 and x1 fields cleared
    and the degree lowered to match) to ints whose B-bit digit at slot
    a*S + b is the coefficient of x0^a*x1^b, on a grid of S = D + 1 slots
    per row: no product carries out of a row.

    B is fixed before any work.  With the maps over their common
    denominator d, as `subst` weights them, no coefficient exceeds G =
    sum_mu |w_mu| prod_j L1(N_j)^e_j, and packing commutes with sums and
    products, so B = bitlen(G) + 2, rounded up to 8, 16, 32 or 64 bits
    (or beyond, which `rule` refuses), the most over the components,
    gives every digit of every result room."""

    __slots__ = ("n", "den", "grid", "bits", "powers")

    def __init__(self, maps, comps, n):
        self.n, self.den, self.powers = n, lcm(*(q._den for q in maps)), {}
        self.grid = _bound(maps, comps) + 1
        norms = [sum(map(abs, q._nums)) * (self.den // q._den) for q in maps]
        size = max((_homogeneous(p, map(abs, p._nums), norms, self.den)
                    for p in comps), default=0)
        self.bits = max(8, 1 << (size.bit_length() + 1).bit_length())

    @classmethod
    def rule(cls, maps, comps, n):
        """The context for substituting maps into comps, or None.  Sparse
        maps fail the fill test after a few of them are counted."""
        if n < 2 or all(len(p._mons) < _KRON_MIN_TERMS for p in comps):
            return None
        low = (1 << (n - 2) * _NARROW) - 1
        room = sum(len(q._mons) for q in maps)
        for q in maps:
            room -= _KRON_MIN_FILL * len({m & low for m in q._mons})
            if room < 0:
                return None
        if _bound(maps, comps) < 16:
            kron = cls(maps, comps, n)
            return kron if kron.bits <= 64 else None

    def encode(self, q):
        bits, grid, f = self.bits, self.grid, self.den // q._den
        low, top = (self.n - 2) * _NARROW, self.n * _NARROW
        enc = {}
        for m, c in zip(q._mons, q._nums):
            s = m >> low & 255
            a, b = s >> 4, s & 15
            key = m - (s << low) - (a + b << top)
            enc[key] = enc.get(key, 0) + (c * f << bits * (a * grid + b))
        return enc

    def decode(self, acc, den):
        """acc over den as a `Poly`.  Adding 2^(B-1) to every slot and
        flipping that bit back leaves the digits in two's complement, so one
        `to_bytes` and one little-endian `struct` unpack cut a value into
        them; `compress` pairs each nonzero digit with its slot's offset,
        and distinct (key, slot) pairs are distinct monomials: no merge."""
        n, bits, grid = self.n, self.bits, self.grid
        width, low, top = bits // 8, (n - 2) * _NARROW, n * _NARROW
        rows = max(map(int.bit_length, acc.values()),
                   default=0) // (grid * bits) + 1
        slots = rows * grid
        bias = int.from_bytes((1 << bits - 1).to_bytes(width, "little")
                              * slots, "little")
        x0, x1 = (1 << low + 4) + (1 << top), (1 << low) + (1 << top)
        offsets = [a + b for a in range(0, rows * x0, x0)
                   for b in range(0, grid * x1, x1)]
        unpack = struct.Struct(f"<{slots}{_DIGIT[bits]}").unpack
        mons, nums = [], []
        for key, v in acc.items():
            digits = unpack(((v + bias) ^ bias).to_bytes(slots * width,
                                                         "little"))
            mons += map(key.__add__, compress(offsets, digits))
            nums += filter(None, digits)
        order = sorted(range(len(mons)), key=mons.__getitem__, reverse=True)
        return _finish(n, _NARROW, [mons[i] for i in order],
                       [nums[i] for i in order], den)


def _merged(nvars, w, mons, nums, dens):
    """Polynomial of packed monomials at width w, each numerator over its
    own denominator: merged over their least common denominator."""
    den, acc = lcm(*dens), {}
    add(acc, 1, zip(mons, [c * (den // d) for c, d in zip(nums, dens)]))
    return _normal(nvars, w, acc, den)


def _canonical(nvars, items):
    """Packed parts (width, monomials, numerators, denominator) of a
    collection of (exponents, coefficient) pairs."""
    terms = []
    for exps, coeff in items:
        if len(exps) != nvars:
            raise DimensionMismatch(
                f"term has {len(exps)} exponents, expected {nvars}")
        terms.append(([(j, e) for j, e in enumerate(exps) if e],
                      Fraction(coeff)))
    degrees = [sum(e for _, e in exps) for exps, _ in terms]
    w = _width(max(degrees, default=0))
    top = nvars * w
    mons = [sum((e << (top - (j + 1) * w) for j, e in exps), deg << top)
            for deg, (exps, _) in zip(degrees, terms)]
    p = _merged(nvars, w, mons, [c.numerator for _, c in terms],
                [c.denominator for _, c in terms])
    return p._w, p._mons, p._nums, p._den


class Poly:
    """Polynomial in a fixed number of variables with rational coefficients.

    `Poly(nvars, items)` collects (exponent tuple, coefficient) pairs in any
    order; operations build their results through the trusted constructor,
    which hands the same `__init__` parts already packed.
    """

    __slots__ = ("nvars", "_w", "_mons", "_nums", "_den")

    def __init__(self, nvars, items=()):
        self.nvars = nvars
        self._w, self._mons, self._nums, self._den = (
            items if type(items) is _Packed else _canonical(nvars, items))

    @property
    def terms(self):
        """(exponent tuple, Fraction) pairs in descending graded-lex order."""
        n, w, den = self.nvars, self._w, self._den
        return tuple((_unpack(m, n, w), Fraction(c, den))
                     for m, c in zip(self._mons, self._nums))

    @classmethod
    def zero(cls, nvars):
        return _poly(nvars, _NARROW, (), (), 1)

    @classmethod
    def constant(cls, nvars, value):
        value = Fraction(value)
        if not value:
            return cls.zero(nvars)
        return _poly(nvars, _NARROW, (0,), (value.numerator,),
                     value.denominator)

    @classmethod
    def variable(cls, nvars, index):
        assert 0 <= index < nvars
        w = _NARROW
        mon = (1 << (nvars * w)) | (1 << ((nvars - 1 - index) * w))
        return _poly(nvars, w, (mon,), (1,), 1)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self._mons:
            return -1
        return self._mons[0] >> (self.nvars * self._w)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self._mons == other._mons and self._nums == other._nums
                and self._den == other._den)

    def __hash__(self):
        return hash((self.nvars, self._mons, self._nums, self._den))

    def __repr__(self):
        from .parser import format_poly
        return f"Poly({self.nvars}, {format_poly(self)!r})"

    def __add__(self, other):
        assert self.nvars == other.nvars
        return _sum((self, other))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        k = c.numerator
        return _finish(self.nvars, self._w, self._mons,
                       [k * n for n in self._nums], self._den * c.denominator)

    def __mul__(self, other):
        assert self.nvars == other.nvars
        w, acc = _width(max(self.degree() + other.degree(), 0)), {}
        add_product(acc, _at(self, w), _at(other, w))
        return _normal(self.nvars, w, acc, self._den * other._den)

    def __pow__(self, n):
        """Square-and-multiply from p itself, so p ** 1 is p."""
        assert n >= 0
        if n < 2:
            return self if n else Poly.constant(self.nvars, 1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half

    def shift(self, offset, new_nvars):
        """Reinterpret in `new_nvars` variables with indices moved up by offset."""
        assert offset + self.nvars <= new_nvars
        w = self._w
        top = self.nvars * w
        low = (1 << top) - 1
        new_top = new_nvars * w
        after = (new_nvars - offset - self.nvars) * w
        return _poly(new_nvars, w,
                     tuple(((m >> top) << new_top) | ((m & low) << after)
                           for m in self._mons), self._nums, self._den)

    def eval(self, point):
        """Evaluate at a point; exact when the point is rational, scaled to
        integers over a common denominator q (a float point is taken as is)."""
        assert len(point) == self.nvars
        q = 1
        if not any(isinstance(x, float) for x in point):
            q = lcm(*(x.denominator for x in point))
            point = [x.numerator * (q // x.denominator) for x in point]
        total = _homogeneous(self, self._nums, point, q)
        if isinstance(total, int):
            return Fraction(total, self._den * q ** max(self.degree(), 0))
        return total / self._den

    def subst(self, maps, nvars_out, context=None):
        """Substitute variable j := maps[j]; all maps live in nvars_out
        variables.  `context`, a `_Sparse` or `_Kron` made for these maps,
        encodes them, decodes the result and keeps the maps' powers for
        every call that shares it.  (`PolyMap.then` routes a map whose
        components are variables and zeros by `_routed` instead.)

        Over the maps' common denominator d, map j is N_j / d, and a
        polynomial of degree deg is sum_mu w_mu prod_j N_j^mu_j over
        den * d^deg, with integer weights w_mu = c_mu * d^(deg - |mu|).
        That sum is taken by Horner over shared suffixes: read each
        monomial as its tuple of factors x_j^e, most significant first.
        The value at a suffix s is the weight of s plus, over each factor
        f, f(maps) times the value at (f,) + s; the result is the value at
        ().  So the parts in x0, x1, ... (a tower term's base point) of all
        monomials that end alike are summed before the factors they share
        multiply them."""
        assert len(maps) == self.nvars
        if context is None:
            context = _Sparse(maps, [self], nvars_out)
        n, w, nums = self.nvars, self._w, self._nums
        d, deg, powers = context.den, max(self.degree(), 0), context.powers
        if d != 1:
            nums = [c * d ** (deg - (m >> n * w))
                    for m, c in zip(self._mons, nums)]
        low = (1 << (n * w)) - 1
        # slots[s]: the value at s, an int until a longer tuple folds into
        # it, then a dict; by_len[k]: the tuples of length k.
        slots, by_len = {}, {}
        for m, c in zip(self._mons, nums):
            key = tuple(_factors(m & low, w))
            slots[key] = c
            by_len.setdefault(len(key), []).append(key)
        for size in range(max(by_len, default=0), 0, -1):
            for key in by_len.get(size, ()):
                value, suffix = slots.pop(key), key[1:]
                acc = slots.get(suffix)
                if type(acc) is not dict:
                    if acc is None:
                        by_len.setdefault(size - 1, []).append(suffix)
                    acc = slots[suffix] = {0: acc} if acc else {}
                shift, e = key[0]
                j = n - 1 - shift // w
                first = powers.get((j, e))
                if first is None:
                    first = powers[j, e] = power(context.encode(maps[j]), e)
                if type(value) is dict:
                    add_product(acc, first, value)
                else:
                    add(acc, value, first.items())
        total = slots.get(())
        if type(total) is not dict:
            total = {0: total} if total else {}
        return context.decode(total, self._den * d ** deg)

    def _routed(self, shape, nvars_out):
        """Substitution where variable j becomes variable routes[j], or
        zero where routes[j] < 0, given the routing's `_routing` shape:
        a monomial that reads a zeroed variable is dropped by one AND with
        the shape's mask of zeroed fields at this width, and each other
        monomial's nonzero fields move.  No two variables route to one, so
        the relabeled monomials are distinct: they are written straight
        into a list, and sorted only when the live routes do not increase.
        When no monomial is dropped, the numerators and the denominator
        stand as they are."""
        dests, how, dead = shape
        n, w = self.nvars, self._w
        top, new_top = n * w, nvars_out * w
        low = (1 << top) - 1
        pairs = zip(self._mons, self._nums)
        if dead is not None:
            mask = dead.get(w)
            if mask is None:
                mask = dead[w] = sum(((1 << w) - 1) << i * w
                                     for i, dst in enumerate(dests) if dst < 0)
            pairs = [(m, c) for m, c in pairs if not m & mask]
        mons, nums = [], []
        for m, c in pairs:
            out = (m >> top) << new_top
            for shift, e in _factors(m & low, w):
                out += e << dests[shift // w] * w
            mons.append(out)
            nums.append(c)
        if how == "sort":
            pairs = sorted(zip(mons, nums), reverse=True)
            mons, nums = [m for m, _ in pairs], [c for _, c in pairs]
        if len(mons) < len(self._mons):
            return _finish(nvars_out, w, mons, nums, self._den)
        return _poly(nvars_out, w, tuple(mons),
                     self._nums if how == "keep" else tuple(nums), self._den)


def _routing(routes, nvars_out):
    """The shape of a routing into nvars_out variables, for `_routed`:
    (dests, how, dead), or None when two variables route to one, which
    `PolyMap.then` substitutes instead.  dests[i] is the field, counted
    from the least significant, that field i moves to, -1 where its
    variable is zeroed.  how is "keep" when the live routes increase, so
    relabeled monomials stay in descending order, and "sort" otherwise.
    dead is None when no variable is zeroed, else a table from a field
    width to the mask of the zeroed fields, filled as widths are met."""
    live = [r for r in routes if r >= 0]
    if len(set(live)) < len(live):
        return None
    how = "keep" if live == sorted(live) else "sort"
    dests = [nvars_out - 1 - r if r >= 0 else -1 for r in reversed(routes)]
    return dests, how, {} if len(live) < len(routes) else None


def _vanishes(mons, mask, units):
    """DS.1': every monomial reads a direction."""
    return all(m & mask for m in mons)


def _additive(mons, mask, units):
    """DS.2': every monomial has degree exactly 1 in the directions, its
    direction fields y = m & mask one unit: a power of two that is the
    lowest bit of a field."""
    for m in mons:
        y = m & mask
        if y & (y - 1) or not y & units:
            return False
    return True


# The precompositions `PolyMap._precompose` defers, by the kinds of their
# summands, with the law that settles one and the kinds of the deferred
# map it is compared with (None: a zero map).
_SETTLED_BY = {("zpair",): (_vanishes, None),
               ("sumv",): (_additive, ("sumproj0", "sumproj1"))}
_DEFERRED = {*_SETTLED_BY, ("sumproj0", "sumproj1")}


def _kinds(summands):
    return tuple(g._kept["structural"][0] for g in summands)


def _settled(m, other):
    """Whether DS.1' or DS.2' shows m equal to other from the monomials of
    the term m precomposes, with no map built: m a deferred zpair
    precomposition and other a zero map, or m a deferred sumv one and
    other the sumproj0 + sumproj1 one of the same term at the same k (see
    `axioms` for both laws and their proofs)."""
    if type(m) is not _Deferred:
        return False
    k, comps, summands = m._parts
    law, partner = _SETTLED_BY.get(_kinds(summands), (None, None))
    if law is None:
        return False
    if type(other) is _Deferred:
        if (other._parts[:2] != (k, comps)
                or _kinds(other._parts[2]) != partner):
            return False
    elif partner or any(p._mons for p in other.components):
        return False
    kind, dim, _ = summands[0]._kept["structural"]
    return all(law(p._mons, *direction_fields(kind, dim, k, p._w))
               for p in comps)


class PolyMap(CoordMap):
    """Map between coordinate spaces with one polynomial per output coordinate."""

    base = "poly"
    __slots__ = ("_parts",)     # `_Deferred`'s, here so that it can become a
                                # PolyMap once built

    def _precompose(self, k, summands):
        """Deferred for zpair, sumv and sumproj0 + sumproj1, which
        `equal_witness` may settle unbuilt (`_settled`), as (k,
        components, summands): self's parts, not self, so that the kept
        value makes no reference cycle.  What `then` or `+` would refuse
        is built."""
        h = summands[0]
        if not (_kinds(summands) in _DEFERRED and h.cod << k == self.dom
                and all(g.base == self.base and (g.dom, g.cod) == (h.dom, h.cod)
                        for g in summands)):
            return _precomposed(k, self, summands)
        m = _Deferred.__new__(_Deferred)
        m.dom, m.cod, m._kept = h.dom << k, self.cod, {}
        m._parts = k, self.components, summands
        return m

    def _check_components(self):
        for p in self.components:
            if p.nvars != self.dom:
                raise DimensionMismatch(
                    f"component in {p.nvars} variables, domain is {self.dom}")

    _constant = staticmethod(Poly.constant)
    _variable = staticmethod(Poly.variable)

    @staticmethod
    def _route(p):
        if not p._mons:
            return -1
        top = p.nvars * p._w
        if p._nums != (1,) or p._den != 1 or p._mons[0] >> top != 1:
            return None
        return p.nvars - 1 - ((p._mons[0] & ((1 << top) - 1)).bit_length()
                              - 1) // p._w

    _ops = {"add": operator.add, "mul": _parsed_mul, "pow": _parsed_pow,
            "sum": _sum}

    def _combine(self, dom, parts, op=None):
        blocks = [m.components if offset is None else
                  [p.shift(offset, dom) for p in m.components]
                  for m, offset in parts]
        comps = (list(map(self._ops[op], *blocks)) if op
                 else [p for block in blocks for p in block])
        return PolyMap(dom, len(comps), comps)

    def then(self, other):
        """Diagrammatic composite: self first, then other.  Each component
        is substituted by `Poly.subst`, densely where `_Kron.rule` says."""
        self._require_composable(other)
        routes = self._routes()
        shape = routes and keep(self, "routing", _routing, routes, self.dom)
        if shape:
            comps = [p._routed(shape, self.dom) for p in other.components]
        else:
            maps, comps = self.components, other.components
            context = (_Kron.rule(maps, comps, self.dom)
                       or _Sparse(maps, comps, self.dom))
            comps = [p.subst(maps, self.dom, context) for p in comps]
        return PolyMap(self.dom, other.cod, comps)

    def __neg__(self):
        return PolyMap(self.dom, self.cod, [-p for p in self.components])

    def __sub__(self, other):
        return self + (-other)

    def differential(self):
        """Joint derivative as a map on the doubled domain.

        Inputs are a base point followed by a direction; the output is the
        directional derivative of each component, linear in the direction.
        """
        d = self.dom
        comps = []
        for p in self.components:
            w = p._w
            top = d * w
            low = (1 << top) - 1
            pairs = []
            for m, c in zip(p._mons, p._nums):
                head = (m >> top) << (2 * top)
                fields = m & low
                for shift, e in _factors(fields, w):
                    unit = 1 << shift
                    pairs.append((head | ((fields - unit) << top) | unit,
                                  c * e))
            pairs.sort(reverse=True)
            comps.append(_finish(2 * d, w, [m for m, _ in pairs],
                                 [c for _, c in pairs], p._den))
        return PolyMap(2 * d, self.cod, comps)

    def eval(self, point):
        self._require_point(point)
        return tuple(p.eval(point) for p in self.components)

    def equal_witness(self, other, tol=None):
        """(equal?, difference map or None): DS.1' or DS.2' read off a
        deferred precomposition's term (`_settled`), else exact equality
        of canonical forms."""
        self._require_same_signature(other, "comparison needs equal signatures")
        if _settled(self, other) or self.components == other.components:
            return True, None
        return False, self - other


class _Deferred(PolyMap):
    """A precomposition not built yet (`PolyMap._precompose`).  Reading its
    components builds them and makes it a plain `PolyMap`: only a deferred
    map pays for `__getattr__` on every attribute it reads."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "components":
            raise AttributeError(name)
        k, comps, summands = self._parts
        term = PolyMap(summands[0].cod << k, len(comps), comps)
        self.components = _precomposed(k, term, summands).components
        self.__class__ = PolyMap
        return self.components
