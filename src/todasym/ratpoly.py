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
from math import gcd, lcm
from operator import or_
from struct import Struct
from struct import error as StructError
from typing import Iterable, Iterator

Monomial = tuple[int, ...]
Scalar = int | Fraction

_BITS = 16
_MASK = (1 << _BITS) - 1
EXPONENT_LIMIT = 1 << (_BITS - 1)


class UniverseError(ValueError):
    """Operands live over different lattice sizes."""


class ExponentError(ValueError):
    """An exponent is not an int in [0, EXPONENT_LIMIT), or would leave it."""


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
        self.guard = sum(EXPONENT_LIMIT << s for s in self.shifts)
        self._struct = Struct(f">{self.width}H")
        self._nbytes = self._struct.size

    def decode(self, mono: int) -> Monomial:
        return self._struct.unpack(mono.to_bytes(self._nbytes, "big"))

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

    __slots__ = ("n", "_nums", "_den")

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
        for p, q in pairs:
            if p.n != n or q.n != n:
                raise UniverseError(f"universe mismatch: N={n} vs N={p.n}, N={q.n}")
            if p._nums and q._nums:
                factors.append((p, q))
        den = lcm(*(p._den * q._den for p, q in factors))
        out: dict[int, int] = {}
        get = out.get
        for p, q in factors:
            small, large = p._nums, q._nums
            if len(small) > len(large):
                small, large = large, small
            f = den // (p._den * q._den)
            terms = large.items()
            for m1, c1 in small.items():
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
        # lowering one exponent is injective on the monomials it keeps, so
        # no two terms collide and no numerator can cancel
        shift = _layout(self.n).shifts[idx]
        one = 1 << shift
        out = {m - one: c * e for m, c in self._nums.items() if (e := (m >> shift) & _MASK)}
        return _make(self.n, out, self._den)

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
        return bool((reduce(or_, self._nums, 0) >> _layout(self.n).shifts[idx]) & _MASK)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in graded lexicographic order.

        Lower total degree first; within a degree, the term leaning on the
        earlier variables (a_1 < ... < b_N < t) comes first.  The first
        variable sits in the top field, so that is the larger packed int.
        """
        decode = _layout(self.n).decode
        rows = [(decode(m), m, c) for m, c in self._nums.items()]
        rows.sort(key=lambda row: (sum(row[0]), -row[1]))
        den = self._den
        return [(mono, Fraction(c, den)) for mono, _, c in rows]

    # -- serialization -------------------------------------------------------

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON form: sorted terms, sparse exponent maps."""
        names = var_names(self.n)
        out = []
        for mono, coeff in self.sorted_terms():
            exps = {names[i]: e for i, e in enumerate(mono) if e}
            out.append({"coeff": str(coeff), "exps": exps})
        return out

    @classmethod
    def from_json_terms(cls, n: int, data: Iterable[Mapping]) -> "Polynomial":
        index = _name_index(n)
        width = num_vars(n)
        terms: dict[Monomial, Fraction] = {}
        for item in data:
            mono = [0] * width
            exps, coeff = item["exps"], item["coeff"]
            if not isinstance(exps, Mapping):
                raise ValueError(f"term exponents must be an object, got {exps!r}")
            if isinstance(coeff, bool):
                raise ValueError(f"term coefficient must be a number or a string, got {coeff!r}")
            for name, e in exps.items():
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} for lattice size {n}")
                if not isinstance(e, int) or e <= 0:
                    raise ValueError(f"exponent for {name!r} must be a positive integer")
                mono[index[name]] = e
            key = tuple(mono)
            if key in terms:
                raise ValueError(f"duplicate monomial in serialized polynomial: {key}")
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
