"""Exact multivariate polynomial arithmetic over the rationals.

Every symbolic object in this package is a sparse polynomial in the phase
variables of an open N-site Toda chain,

    a_1, ..., a_{N-1},  b_1, ..., b_N,  t,

with rational coefficients.  Exactness is the point: each claimed identity
in the hierarchy reduces to "is this polynomial zero?", decided by exact
cancellation.  Floats never enter the symbolic layer; iterated Lie brackets
grow coefficients well past anything a float could certify.

Representation (packed exponent vectors with integer coefficients, after
Monagan & Pearce, CASC 2007):

* A monomial is one Python int holding 2N exponents in fixed 16-bit fields,
  the first variable in the most significant field, in the order
  a_1 < ... < a_{N-1} < b_1 < ... < b_N < t.  Multiplying monomials is one
  integer addition; lowering an exponent is one subtraction.
* Every exponent is below ``EXPONENT_LIMIT`` = 2**15, so the top bit of each
  field is a guard: the sum of two valid exponents never carries into the
  neighbouring field, and a product whose result sets a guard bit raises
  ``ExponentError`` instead of wrapping.
* Coefficients are int numerators over one positive denominator per
  polynomial.  The form is canonical: no numerator is zero, the gcd of the
  denominator and all numerators is 1, and the zero polynomial is the empty
  map over denominator 1.  Two polynomials are equal iff their numerator
  maps and denominators are identical.
* Every product of polynomials goes through one primitive,
  ``Polynomial.dot(n, pairs)``, the sum of p * q over a list of pairs: all
  term products land in one numerator map over the common denominator of
  the pairs, and the sum is reduced to canonical form once.  Directional
  derivatives, tensor contractions and matrix products are each one call;
  ``p * q`` is the single-pair case.

``dot`` has two kernels, and both return the same terms in the same order:

* The loop takes the pairs in turn and, within a pair, each term of the
  smaller operand against each term of the larger, adding each product
  into the map; a monomial enters the map at its first product.
* The array kernel holds each operand's terms as exponent rows and int64
  numerators, built on first use and kept on the polynomial.  It encodes
  the rows as mixed-radix int64 keys, forms all term products at once as
  sums of keys and products of numerators, sums equal keys after one sort,
  and puts the sums back in the order of each key's first product: the
  loop's order, which ``CompiledField`` sums terms in, so float results
  depend on it.
* Choice: a call of the array kernel costs a few hundred of the loop's
  term pairs before it starts, and converting an operand term or emitting
  a result term costs one or two more.  So a product runs on arrays when
  it has at least 800 term pairs plus 2 per operand term (an operand
  counted once per pair it is in).  Schouten brackets of deep tensors,
  with about ten times as many term pairs as terms, take the arrays; Lie
  brackets of fields, with about twice as many, stay on the loop.
* Exactness: the array kernel runs only when three bounds hold, each
  checked before any array arithmetic.  The sum over pairs of
  max|numerator of p| * max|numerator of q| * (common denominator /
  (den p * den q)) * min(len p, len q) stays below 2**62; it bounds every
  partial sum at one key.  The radix product, times the room the sort
  needs for the product's index beside each key, stays below 2**62.  No
  exponent of a product reaches ``EXPONENT_LIMIT``; if one does, it raises
  ``ExponentError``, as the loop does.  If a bound fails, or a numerator
  does not fit int64, the loop runs.

What a polynomial keeps.  A polynomial never changes, so values derived
from it alone are kept on it, in private slots:

* ``_arrays``: its terms as exponent rows and int64 numerators, built on
  first use by the array kernel of ``dot``;
* ``_partials``: by variable index, each partial derivative that
  ``diff_index`` (and so ``diff``) was asked for at least twice.
  Brackets, gradients and total derivatives differentiate the same cached
  fields, tensors and Hamiltonians again and again: one pass of
  ``verify`` over N=2..8 asks for 21,664 partials of 5,248 distinct
  (polynomial, variable) pairs.  The first request computes the partial
  and only marks its index; the second computes it again and keeps it.
  So a polynomial differentiated once keeps no partials: most
  intermediate results, and a master field used only to build the next;
* ``_vars``: the tuple of variable indices ``variables()`` returns,
  computed on first use.

A kept value is immutable (a ``Polynomial`` or a tuple), so callers share
it safely.  It lives as long as its polynomial, and the cached fields and
tensors live for the whole process.  The partials of a polynomial of
degree d hold up to d times its terms.  Keeping every partial from its
first request would save the second computation too, but on that verify
pass it raised a process's peak RSS from 44.7 to 49.0 MB (47.6 MB as
kept here), and the memory it holds slowed the tower's large brackets
by about 5%.

The packed form is private to this module.  ``Polynomial.terms`` is a
read-only mapping from exponent tuples (length 2N) to ``Fraction``, decoded
on access; its ``len`` does not decode.

Boundary convention: a_0 and a_N denote the zero polynomial, so chain-end
formulas transcribe uniformly without index case splits (see ``Vars``).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress, repeat
from math import gcd, isfinite, lcm
from operator import neg, or_
from struct import Struct
from struct import error as StructError
from typing import Iterable, Iterator

import numpy as np

Monomial = tuple[int, ...]
Scalar = int | Fraction

_BITS = 16
_MASK = (1 << _BITS) - 1
EXPONENT_LIMIT = 1 << (_BITS - 1)

# The vectorised kernel of Polynomial.dot keeps every key and every partial
# sum of numerators below this bound, so int64 arithmetic on them is exact.
_INT64_BOUND = 1 << 62
# dot's kernel choice by operand size (see the module docstring)
_VECTOR_MIN_PAIRS = 800
_VECTOR_PAIRS_PER_TERM = 2


class UniverseError(ValueError):
    """Operands live over different lattice sizes."""


class ExponentError(ValueError):
    """An exponent is not an int in [0, EXPONENT_LIMIT), or would leave it."""


def check_json_keys(obj: Mapping, allowed: tuple[str, ...]) -> None:
    """Raise ValueError naming the first key of a JSON object that is not in allowed."""
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}")


@lru_cache(maxsize=None)
def var_names(n: int) -> tuple[str, ...]:
    """Variable names for lattice size n, in canonical order."""
    if n < 2:
        raise ValueError(f"lattice size must be >= 2, got {n}")
    a = tuple(f"a{i}" for i in range(1, n))
    b = tuple(f"b{i}" for i in range(1, n + 1))
    return a + b + ("t",)


@lru_cache(maxsize=None)
def _name_index(n: int) -> dict[str, int]:
    return {name: i for i, name in enumerate(var_names(n))}


def num_vars(n: int) -> int:
    """a_1..a_{n-1}, b_1..b_n and t make 2n variables."""
    return 2 * n


class _Layout:
    """Field positions of the packed monomials for one lattice size."""

    __slots__ = ("width", "shifts", "guard", "_struct", "_nbytes")

    def __init__(self, n: int):
        self.width = num_vars(n)
        self.shifts = tuple(_BITS * (self.width - 1 - i) for i in range(self.width))
        # EXPONENT_LIMIT in every field, built from bytes: a sum of shifted ints is O(n^2)
        self.guard = int.from_bytes(EXPONENT_LIMIT.to_bytes(_BITS // 8, "big") * self.width, "big")
        self._struct = Struct(f">{self.width}H")
        self._nbytes = self._struct.size

    def decode(self, mono: int) -> Monomial:
        return self._struct.unpack(mono.to_bytes(self._nbytes, "big"))

    def rows(self, monos: Iterable[int]) -> bytes:
        """The monomials' exponents as big-endian 16-bit rows, one after another."""
        return b"".join(map(int.to_bytes, monos, repeat(self._nbytes), repeat("big")))

    def pack(self, mono) -> int:
        """Pack without validation; raises struct.error on a malformed key."""
        return int.from_bytes(self._struct.pack(*mono), "big")

    def encode(self, mono) -> int:
        """Pack an exponent sequence, rejecting anything but valid exponents."""
        if len(mono) != self.width:
            raise ValueError(f"monomial {mono} has {len(mono)} exponents, expected {self.width}")
        for e in mono:
            if type(e) is bool or not isinstance(e, int) or not 0 <= e < EXPONENT_LIMIT:
                raise ExponentError(
                    f"exponent {e!r} in monomial {mono} is not an int in [0, {EXPONENT_LIMIT})"
                )
        return self.pack(mono)


_layout = lru_cache(maxsize=None)(_Layout)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _make(n: int, nums: dict[int, int], den: int) -> "Polynomial":
    """Wrap packed terms (no zero numerators) over den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: c // g for m, c in nums.items()}
            den //= g
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "n", n)
    object.__setattr__(poly, "_nums", nums)
    object.__setattr__(poly, "_den", den)
    return poly


def _dot_loop(n: int, factors, den: int) -> dict[int, int]:
    """The numerator map of sum small * large over den, one term pair at a time."""
    out: dict[int, int] = {}
    get = out.get
    for small, large in factors:
        f = den // (small._den * large._den)
        terms = large._nums.items()
        for m1, c1 in small._nums.items():
            c1 *= f
            for m2, c2 in terms:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    # each field summed two exponents below 2**15, so nothing carried;
    # a set guard bit means an exponent reached the limit
    if reduce(or_, out, 0) & _layout(n).guard:
        raise ExponentError(f"product has an exponent at or above {EXPONENT_LIMIT}")
    if 0 in out.values():  # some sums of term products cancelled exactly
        out = {m: c for m, c in out.items() if c}
    return out


def _convert(polys: list["Polynomial"]) -> bool:
    """Keep on each polynomial its terms as arrays, in term order.

    The arrays are the exponent rows, the int64 numerators and the largest
    |numerator|.  Returns False, and keeps nothing, if a numerator does not
    fit int64.
    """
    layout = _layout(polys[0].n)
    sizes = [len(p._nums) for p in polys]
    total = sum(sizes)
    try:
        nums = np.fromiter(chain.from_iterable(p._nums.values() for p in polys), np.int64, total)
    except OverflowError:
        return False
    rows = layout.rows(chain.from_iterable(p._nums for p in polys))
    exps = np.frombuffer(rows, ">u2").reshape(total, layout.width).astype(np.uint16)
    starts = list(accumulate(sizes, initial=0))
    highs = np.maximum.reduceat(nums, starts[:-1]).tolist()
    lows = np.minimum.reduceat(nums, starts[:-1]).tolist()
    for p, start, end, high, low in zip(polys, starts, starts[1:], highs, lows):
        object.__setattr__(p, "_arrays", (exps[start:end], nums[start:end], max(high, -low)))
    return True


def _dot_vector(n: int, factors, den: int, term_pairs: int) -> dict[int, int] | None:
    """_dot_loop's map, computed in int64 arrays; None if a bound rules int64 out."""
    operands = list({id(p): p for pair in factors for p in pair}.values())
    fresh = [p for p in operands if not hasattr(p, "_arrays")]
    if fresh and not _convert(fresh):
        return None
    index = {id(p): i for i, p in enumerate(operands)}
    left = [index[id(small)] for small, _ in factors]
    right = [index[id(large)] for _, large in factors]
    scales = [den // (small._den * large._den) for small, large in factors]
    sizes = [len(p._nums) for p in operands]
    maxabs = [p._arrays[2] for p in operands]
    # each factor adds at most len(small) products to the numerator of one key
    bound = 0
    for a, b, f in zip(left, right, scales):
        bound += maxabs[a] * maxabs[b] * f * sizes[a]
    if bound >= _INT64_BOUND:
        return None
    starts = list(accumulate(sizes, initial=0))[:-1]
    exps = np.concatenate([p._arrays[0] for p in operands])
    tops = np.maximum.reduceat(exps, starts, axis=0).astype(np.int64)
    top = (tops[left] + tops[right]).max(axis=0).tolist()
    if max(top) >= EXPONENT_LIMIT:
        raise ExponentError(f"product has an exponent at or above {EXPONENT_LIMIT}")
    # keys in mixed radix, digit v in 0..top[v], shifted left by `bits` to
    # make room for the pair's index: one sort then orders the pairs by key
    # and, within a key, in the order the loop meets them
    bits = term_pairs.bit_length()
    weights = [0] * len(top)
    radix = 1
    for v in range(len(top) - 1, -1, -1):
        weights[v] = radix
        radix *= top[v] + 1
    if radix << bits >= _INT64_BOUND:
        return None
    mixed = exps @ np.array(weights, np.int64)
    nums = np.concatenate([p._arrays[1] for p in operands])
    # one row per (factor, term of small) and one column per term of large,
    # row-major in the loop's order; row_term and col_term index the terms
    row_term, width, base, scale = [], [], [], []
    for a, b, f in zip(left, right, scales):
        rows = sizes[a]
        row_term += range(starts[a], starts[a] + rows)
        width += [sizes[b]] * rows
        base += [starts[b]] * rows
        scale += [f] * rows
    row_term, width, base, scale = np.array([row_term, width, base, scale], np.int64)
    row_start = np.cumsum(width) - width
    pair = np.arange(term_pairs)
    col_term = np.repeat(base - row_start, width)
    col_term += pair
    coeffs = np.repeat(nums[row_term] * scale, width)
    coeffs *= nums[col_term]
    keys = np.repeat(mixed[row_term], width)
    keys += mixed[col_term]
    keys <<= bits
    keys |= pair
    keys.sort()
    order = keys & ((1 << bits) - 1)
    keys >>= bits
    head = np.empty(term_pairs, bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    sums = np.add.reduceat(coeffs[order], heads)
    kept = np.flatnonzero(sums)
    if not kept.size:
        return {}
    # each key's first pair, in the order the loop inserts the keys
    first = order[heads[kept]]
    back = np.argsort(first)
    first, sums = first[back], sums[kept[back]]
    row = np.searchsorted(row_start, first, side="right") - 1
    packed = np.fromiter(chain.from_iterable(p._nums for p in operands), object, len(nums))
    out = packed[row_term[row]] + packed[col_term[first]]
    return dict(zip(out.tolist(), sums.tolist()))


class Terms(Mapping):
    """Read-only view of a polynomial's terms: exponent tuple -> Fraction."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Polynomial"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._nums)

    def __iter__(self) -> Iterator[Monomial]:
        return map(_layout(self._poly.n).decode, self._poly._nums)

    def __getitem__(self, mono) -> Fraction:
        poly = self._poly
        try:
            key = _layout(poly.n).pack(mono)
        except (TypeError, StructError):
            raise KeyError(mono) from None
        return Fraction(poly._nums[key], poly._den)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Polynomial:
    """Immutable sparse polynomial with rational coefficients, fixed lattice size.

    ``Polynomial(n, {exponent tuple: int | Fraction})`` builds one; ``terms``
    reads it back in the same form.  All operations return new objects;
    instances may be shared freely.
    """

    __slots__ = ("n", "_nums", "_den", "_arrays", "_partials", "_vars")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        layout = _layout(n)
        fracs: dict[int, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = layout.encode(mono)
            frac = _as_fraction(coeff)
            if frac:
                fracs[key] = frac
        den = lcm(*(f.denominator for f in fracs.values()))
        nums = {m: f.numerator * (den // f.denominator) for m, f in fracs.items()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Terms:
        return Terms(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return _make(n, {}, 1)

    @classmethod
    def const(cls, n: int, c: Scalar) -> "Polynomial":
        frac = _as_fraction(c)
        if not frac:
            return _make(n, {}, 1)
        return _make(n, {0: frac.numerator}, frac.denominator)

    @classmethod
    def variable(cls, n: int, name: str) -> "Polynomial":
        idx = _name_index(n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {n}")
        return _make(n, {1 << _layout(n).shifts[idx]: 1}, 1)

    # -- ring operations ---------------------------------------------------

    def _check_universe(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={other.n}")

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the common denominator."""
        self._check_universe(other)
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, sign * (den // d2)
        out = dict(self._nums) if f1 == 1 else {m: c * f1 for m, c in self._nums.items()}
        get = out.get
        for m, c in other._nums.items():
            s = get(m, 0) + c * f2
            if s:
                out[m] = s
            else:
                del out[m]
        return _make(self.n, out, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return _make(self.n, {m: -c for m, c in self._nums.items()}, self._den)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.dot(self.n, ((self, other),))

    @staticmethod
    def dot(n: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]]) -> "Polynomial":
        """Sum of p * q over all (p, q) in pairs, for polynomials over size n.

        Every term product goes straight into one numerator map over the
        common denominator of all the products, and the sum is reduced once
        at the end, so a long sum of products builds no partial sums.
        """
        factors = []
        term_pairs = 0
        for p, q in pairs:
            if p.n != n or q.n != n:
                raise UniverseError(f"universe mismatch: N={n} vs N={p.n}, N={q.n}")
            if p._nums and q._nums:
                size_p, size_q = len(p._nums), len(q._nums)
                if size_p > size_q:
                    p, q = q, p
                factors.append((p, q))
                term_pairs += size_p * size_q
        den = lcm(*(p._den * q._den for p, q in factors))
        # the kernel choice of the module docstring
        vector = False
        if term_pairs >= _VECTOR_MIN_PAIRS:
            terms = sum(len(p._nums) + len(q._nums) for p, q in factors)
            vector = term_pairs >= _VECTOR_MIN_PAIRS + _VECTOR_PAIRS_PER_TERM * terms
        out = _dot_vector(n, factors, den, term_pairs) if factors and vector else None
        if out is None:
            out = _dot_loop(n, factors, den)
        return _make(n, out, den)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return self.scale(Fraction(1, 1) / other)
        return NotImplemented

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Polynomial.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c: Scalar) -> "Polynomial":
        frac = _as_fraction(c)
        if not frac:
            return _make(self.n, {}, 1)
        num = frac.numerator
        nums = {m: x * num for m, x in self._nums.items()}
        return _make(self.n, nums, self._den * frac.denominator)

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        idx = _name_index(self.n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {self.n}")
        return self.diff_index(idx)

    def diff_index(self, idx: int) -> "Polynomial":
        """Partial derivative in the variable at index idx, kept from its second request on.

        The first request only marks idx (see "What a polynomial keeps").
        """
        try:
            partials = self._partials
        except AttributeError:
            partials = {}
            object.__setattr__(self, "_partials", partials)
        out = partials.get(idx)
        if out is None:
            # lowering one exponent is injective on the monomials it keeps, so
            # no two terms collide and no numerator can cancel
            shift = _layout(self.n).shifts[idx]
            one = 1 << shift
            nums = {m - one: c * e for m, c in self._nums.items() if (e := (m >> shift) & _MASK)}
            out = _make(self.n, nums, self._den)
            partials[idx] = out if idx in partials else None
        return out

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._den == other._den and self._nums == other._nums

    __hash__ = None

    def involves(self, name: str) -> bool:
        idx = _name_index(self.n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {self.n}")
        return idx in self.variables()

    def variables(self) -> tuple[int, ...]:
        """Indices of the variables that occur in some term, in index order; kept."""
        try:
            return self._vars
        except AttributeError:
            present = reduce(or_, self._nums, 0)
            shifts = _layout(self.n).shifts
            out = tuple(i for i, shift in enumerate(shifts) if (present >> shift) & _MASK)
            object.__setattr__(self, "_vars", out)
            return out

    def _graded(self) -> list[tuple[int, int, Monomial, int]]:
        """(degree, -packed, exponents, numerator) per term, in graded lex order.

        Lower total degree first; within a degree, the term leaning on the
        earlier variables (a_1 < ... < b_N < t) comes first.  The first
        variable sits in the top field, so that is the larger packed int,
        and packed ints are distinct, so the sort never compares further.
        """
        nums = self._nums
        layout = _layout(self.n)
        monos = list(layout._struct.iter_unpack(layout.rows(nums)))
        return sorted(zip(map(sum, monos), map(neg, nums), monos, nums.values()))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in graded lexicographic order (see ``_graded``)."""
        den = self._den
        return [(mono, Fraction(c, den)) for _, _, mono, c in self._graded()]

    # -- serialization -------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON form: sorted terms, sparse exponent maps.

        Each coefficient prints as ``str(Fraction)`` does, from one gcd of
        the numerator with the denominator.
        """
        names = var_names(self.n)
        den = self._den
        out = []
        for _, _, mono, c in self._graded():
            g = gcd(c, den)
            coeff = str(c // g) if g == den else f"{c // g}/{den // g}"
            out.append({"coeff": coeff, "exps": dict(compress(zip(names, mono), mono))})
        return out

    @classmethod
    def from_json_terms(cls, n: int, data: Iterable[Mapping]) -> "Polynomial":
        index = _name_index(n)
        width = num_vars(n)
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            check_json_keys(item, ("coeff", "exps"))
            mono = [0] * width
            exps, coeff = item["exps"], item["coeff"]
            if not isinstance(exps, Mapping):
                raise ValueError(f"term exponents must be an object, got {exps!r}")
            if isinstance(coeff, bool) or not isinstance(coeff, (int, float, str)):
                raise ValueError(f"term coefficient must be a number or a string, got {coeff!r}")
            for name, e in exps.items():
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} for lattice size {n}")
                if isinstance(e, bool) or not isinstance(e, int) or e <= 0:
                    raise ExponentError(f"exponent for {name!r} must be a positive integer")
                mono[index[name]] = e
            key = tuple(mono)
            if key in terms:
                raise ValueError(f"duplicate monomial in serialized polynomial: {key}")
            if isinstance(coeff, float) and isfinite(coeff):
                coeff = repr(coeff)  # the decimal the number prints as, not its binary value
            terms[key] = Fraction(coeff)
        return cls(n, terms)

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        names = var_names(self.n)
        pieces = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, text))
        first_sign, first = pieces[0]
        rendered = (("-" if first_sign == "-" else "") + first)
        for sign, text in pieces[1:]:
            rendered += f" {sign} {text}"
        return rendered

    def __repr__(self) -> str:
        return f"Polynomial(N={self.n}, {self})"


class Vars:
    """Variable factory with zero padding at the chain ends.

    ``v.a(i)`` is the polynomial a_i for 1 <= i <= n-1 and the zero
    polynomial otherwise; ``v.b(i)`` likewise pads b_0 and b_{n+1} to zero.
    Out-of-range indices only ever occur multiplied by a vanishing boundary
    factor (a_0 or a_n), so the padding lets chain formulas be written once,
    without case analysis at the ends.
    """

    __slots__ = ("n", "_zero")

    def __init__(self, n: int):
        var_names(n)  # validates n >= 2
        self.n = n
        self._zero = Polynomial(n)

    def a(self, i: int) -> Polynomial:
        if 1 <= i <= self.n - 1:
            return Polynomial.variable(self.n, f"a{i}")
        return self._zero

    def b(self, i: int) -> Polynomial:
        if 1 <= i <= self.n:
            return Polynomial.variable(self.n, f"b{i}")
        return self._zero

    @property
    def t(self) -> Polynomial:
        return Polynomial.variable(self.n, "t")

    @property
    def zero(self) -> Polynomial:
        return self._zero

    @property
    def one(self) -> Polynomial:
        return Polynomial.const(self.n, 1)

    def const(self, c: Scalar) -> Polynomial:
        return Polynomial.const(self.n, c)
