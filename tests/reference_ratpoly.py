"""Reference kernel: the tuple/Fraction implementation of ``todasym.ratpoly``.

This is the original kernel, kept unchanged as the slow, independent
oracle that ``test_ratpoly_oracle.py`` compares the packed kernel against.
Nothing in ``src/`` imports it.  Its original module docstring follows.

Exact multivariate polynomial arithmetic over the rationals.

Every symbolic object in this package is a sparse polynomial in the phase
variables of an open N-site Toda chain,

    a_1, ..., a_{N-1},  b_1, ..., b_N,  t,

with ``fractions.Fraction`` coefficients.  Exactness is the point: each
claimed identity in the hierarchy reduces to "is this polynomial zero?",
decided by cancellation in lowest-terms rational arithmetic.  Floats never
enter the symbolic layer; iterated Lie brackets grow coefficients well past
anything a float could certify.

A monomial is a tuple of 2N exponents in the fixed variable order
a_1 < ... < a_{N-1} < b_1 < ... < b_N < t, and a polynomial maps monomials
to nonzero coefficients (zero polynomial = empty map).  Two polynomials are
equal iff their term maps are identical.

Boundary convention: a_0 and a_N denote the zero polynomial, so chain-end
formulas transcribe uniformly without index case splits (see ``Vars``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Monomial = tuple[int, ...]
Scalar = int | Fraction

Rational = Fraction


class UniverseError(ValueError):
    """Operands live over different lattice sizes."""


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


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Polynomial:
    """Immutable sparse polynomial over Fraction for a fixed lattice size.

    ``terms`` maps exponent tuples (length 2n) to nonzero Fractions.  All
    operations return new objects; instances may be shared freely.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Scalar] | None = None):
        width = num_vars(n)
        canonical: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != width:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {width}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                frac = _as_fraction(coeff)
                if frac:
                    canonical[tuple(mono)] = frac
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: Scalar) -> "Polynomial":
        frac = _as_fraction(c)
        if not frac:
            return cls(n)
        return cls(n, {(0,) * num_vars(n): frac})

    @classmethod
    def variable(cls, n: int, name: str) -> "Polynomial":
        idx = _name_index(n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {n}")
        mono = [0] * num_vars(n)
        mono[idx] = 1
        return cls(n, {tuple(mono): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _check_universe(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise UniverseError(f"universe mismatch: N={self.n} vs N={other.n}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_universe(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = coeff
            else:
                s = s + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return self._wrap(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_universe(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono)
            if s is None:
                out[mono] = -coeff
            else:
                s = s - coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return self._wrap(out)

    def __neg__(self) -> "Polynomial":
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_universe(other)
        if not self.terms or not other.terms:
            return Polynomial(self.n)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                s = out.get(mono)
                if s is None:
                    out[mono] = c1 * c2
                else:
                    s = s + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return self._wrap(out)

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
            return Polynomial(self.n)
        return self._wrap({m: coeff * frac for m, coeff in self.terms.items()})

    def _wrap(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        poly = object.__new__(Polynomial)
        object.__setattr__(poly, "n", self.n)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- calculus ----------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        idx = _name_index(self.n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {self.n}")
        return self.diff_index(idx)

    def diff_index(self, idx: int) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[idx]
            if e:
                lowered = mono[:idx] + (e - 1,) + mono[idx + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + coeff * e
        return self._wrap({m: c for m, c in out.items() if c})

    def evaluate(self, point: Mapping[str, object]):
        """Substitute a value for every variable that appears.

        Exact (Fraction) when all supplied values are int or Fraction,
        float otherwise.  Variables absent from the polynomial need not be
        assigned; a used-but-unassigned variable is an error.
        """
        names = var_names(self.n)
        used = [i for i in range(len(names)) if any(m[i] for m in self.terms)]
        missing = [names[i] for i in used if names[i] not in point]
        if missing:
            raise ValueError(f"missing assignment for {', '.join(missing)}")
        values = {i: point[names[i]] for i in used}
        exact = all(isinstance(v, (int, Fraction)) for v in values.values())
        total = Fraction(0) if exact else 0.0
        for mono, coeff in self.terms.items():
            term = coeff if exact else float(coeff)
            for i in used:
                e = mono[i]
                if e:
                    term = term * values[i] ** e
            total = total + term
        return total

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def total_degree(self) -> int:
        """Maximum term degree; 0 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=0)

    def involves(self, name: str) -> bool:
        idx = _name_index(self.n).get(name)
        if idx is None:
            raise UniverseError(f"unknown variable {name!r} for lattice size {self.n}")
        return any(m[idx] for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True when all terms share one total degree (optionally a given one).

        The grading counts the t exponent like any other variable; callers
        checking phase-space homogeneity should pass t-free polynomials.
        """
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in graded lexicographic order.

        Lower total degree first; within a degree, the term leaning on the
        earlier variables (a_1 < ... < b_N < t) comes first.
        """
        return sorted(
            self.terms.items(),
            key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])),
        )

    def leading_term(self) -> tuple[Monomial, Fraction] | None:
        ordered = self.sorted_terms()
        return ordered[-1] if ordered else None

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
            for name, e in item["exps"].items():
                if name not in index:
                    raise ValueError(f"unknown variable {name!r} for lattice size {n}")
                if not isinstance(e, int) or e <= 0:
                    raise ValueError(f"exponent for {name!r} must be a positive integer")
                mono[index[name]] = e
            key = tuple(mono)
            if key in terms:
                raise ValueError(f"duplicate monomial in serialized polynomial: {key}")
            terms[key] = Fraction(item["coeff"])
        return cls(n, terms)

    def __str__(self) -> str:
        if not self.terms:
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
