"""Exact sparse multivariate polynomials over the rationals.

An MPoly is a dict from exponent tuples to nonzero coefficients, each an
int or a Fraction, keyed to an ordered VarTable of (name, degree) pairs.
Degrees are weights: a Chern-class variable c_i has degree i, so the
weighted degree of a term is the dot product of its exponent tuple with the
variable degrees.  The constructor, sums, scalar products and evaluations
store every integral value as an int (integral_as_int), and Fraction
guarantees lowest terms; there is no floating point anywhere.

MPoly is the element type of every ring.  A VarTable presents the free
ring, where products are full; a subclass presents a quotient, such as a
toy ring, by the keys it accepts (check_monomials) and its own
multiply_into(out, a, b), the product protocol that every ring shares.
MPoly.zero(table) and MPoly.one(table) are the zero and one of every ring.

Two MPoly values over the same table are equal iff their term dicts are
equal (canonical form: zero coefficients are never stored).  The canonical
term order, used for serialization and rendering, is ascending weighted
degree, then ascending lexicographic on exponent tuples.

The JSON output form is
    {"vars": [{"name": "c1", "degree": 1}, ...],
     "terms": [{"coeff": "p/q", "exps": [a1, ...]}, ...]}
with terms in canonical order and coefficients as lowest-terms strings
("3", "-1/4"); a denominator of 1 is omitted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]


def format_rational(q: int | Fraction) -> str:
    """Render an int or a Fraction as "p" or "p/q" in lowest terms."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def integral_as_int(q):
    """q as MPoly stores it: an integral Fraction becomes its int numerator."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def exact_quotient(c, den: int):
    """c / den with no float: an int when den divides the int c.

    A Fraction divides as a Fraction; any other coefficient type, such as
    the toy-ring checks' per-seed vectors, by its own `/`.
    """
    if type(c) is int:
        q, r = divmod(c, den)
        return Fraction(c, den) if r else q
    return c / den


def add_terms(pa, pb):
    """Sum of two term dicts; cancelled sums are dropped, integral ones are ints."""
    out = dict(pa)
    for e, c in pb.items():
        prev = out.get(e)
        total = c if prev is None else integral_as_int(prev + c)
        if total:
            out[e] = total
        elif prev is not None:
            del out[e]
    return out


def as_rational(value) -> Fraction:
    """Convert an exact coefficient (int, Fraction or "p/q") to a Fraction.

    Floats are rejected: their binary expansion would enter silently, so
    0.1 would become 3602879701896397/36028797018963968.
    """
    if isinstance(value, float):
        raise TypeError(f"float coefficient {value!r}; pass an int or Fraction")
    return Fraction(value)


class VarTable:
    """Ordered, immutable table of (name, weighted degree) pairs."""

    __slots__ = ("pairs", "names", "degrees", "_pos")

    def __init__(self, pairs: Iterable[tuple[str, int]]):
        clean = []
        for name, degree in pairs:
            name = str(name)
            if not name:
                raise ValueError("variable name must be nonempty")
            if type(degree) is not int or degree < 1:
                raise ValueError(f"variable {name!r} must have a positive int degree")
            clean.append((name, degree))
        self.pairs: tuple[tuple[str, int], ...] = tuple(clean)
        self.names: tuple[str, ...] = tuple(n for n, _ in clean)
        self.degrees: tuple[int, ...] = tuple(d for _, d in clean)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self._pos = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarTable) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in self.pairs)
        return f"VarTable({inner})"

    def index(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def wdeg(self, exps: Exponents) -> int:
        """Weighted degree of an exponent tuple."""
        return sum(e * d for e, d in zip(exps, self.degrees))

    def unit(self, i: int) -> Exponents:
        return tuple(1 if j == i else 0 for j in range(len(self.names)))

    def extend(self, pairs: Iterable[tuple[str, int]]) -> "VarTable":
        return VarTable(self.pairs + tuple(pairs))

    def check_monomials(self, terms: Mapping) -> None:
        """Raise ValueError for a key that is no monomial of this ring (none here)."""

    def multiply_into(self, out: dict, a: Mapping, b: Mapping) -> dict:
        """Add the full product of the term dicts a and b into out.

        Returns out, where a coefficient that cancels stays as a zero.
        """
        if len(b) > len(a):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(add, ea, eb))
                prev = out.get(e)
                out[e] = ca * cb if prev is None else prev + ca * cb
        return out


def c_vars(n: int) -> VarTable:
    """Chern-class variables c1..cn with deg c_i = i."""
    return VarTable((f"c{i}", i) for i in range(1, n + 1))


def s_vars(n: int) -> VarTable:
    """Invariant generator variables s1..sn with deg s_i = i."""
    return VarTable((f"s{i}", i) for i in range(1, n + 1))


def u_vars(n: int) -> VarTable:
    """Pushforward class variables u2..un with deg u_i = i."""
    return VarTable((f"u{i}", i) for i in range(2, n + 1))


class MPoly:
    """Immutable sparse polynomial over a VarTable.

    Do not mutate `terms` after construction; all operations return new
    values, so instances can be shared freely across threads.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Exponents, object] = ()):
        self.table = table
        nv = len(table)
        clean: dict[Exponents, int | Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, q in items:
            exps = tuple(exps)
            if len(exps) != nv:
                raise ValueError(f"exponent tuple {exps} does not match {table!r}")
            if not all(type(e) is int and e >= 0 for e in exps):
                raise ValueError(f"exponents {exps} are not nonnegative ints")
            if type(q) is not int:
                q = integral_as_int(q if isinstance(q, Fraction) else as_rational(q))
            if q:
                prev = clean.get(exps)
                total = q if prev is None else prev + q
                if total:
                    clean[exps] = total
                elif prev is not None:
                    del clean[exps]
        table.check_monomials(clean)
        self.terms = clean

    # ---- constructors ----

    @classmethod
    def zero(cls, table: VarTable) -> "MPoly":
        """The zero of table's ring, the free ring or a quotient."""
        return cls._wrap(table, {})

    @classmethod
    def one(cls, table: VarTable) -> "MPoly":
        """The one of table's ring, whose constant monomial always survives."""
        return cls._wrap(table, {(0,) * len(table): 1})

    @classmethod
    def constant(cls, table: VarTable, value) -> "MPoly":
        return cls(table, {(0,) * len(table): value})

    @classmethod
    def variable(cls, table: VarTable, name: str) -> "MPoly":
        return cls(table, {table.unit(table.index(name)): 1})

    @classmethod
    def _wrap(cls, table: VarTable, terms: dict) -> "MPoly":
        """An MPoly over table holding terms, already canonical, unchecked.

        Results that the ring computes itself come through here; only the
        public constructor checks its keys against the ring.
        """
        p = cls.__new__(cls)
        p.table, p.terms = table, terms
        return p

    # ---- basic queries ----

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponents) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def sorted_terms(self) -> list[tuple[Exponents, int | Fraction]]:
        """Terms in canonical order: (weighted degree, exponents) ascending."""
        wdeg = self.table.wdeg
        return sorted(self.terms.items(), key=lambda item: (wdeg(item[0]), item[0]))

    # ---- arithmetic ----

    def _check(self, other: "MPoly") -> None:
        if self.table is not other.table and self.table != other.table:
            raise ValueError(
                f"mismatched variable tables: {self.table!r} vs {other.table!r}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.table, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        return MPoly._wrap(self.table, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MPoly._wrap(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.table, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = other if type(other) is int else Fraction(other)
            terms = (
                {e: integral_as_int(c * q) for e, c in self.terms.items()} if q else {}
            )
            return MPoly._wrap(self.table, terms)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check(other)
        raw = self.table.multiply_into({}, self.terms, other.terms)
        return MPoly._wrap(self.table, {e: c for e, c in raw.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.one(self.table)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.table, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def graded_component(self, d: int) -> "MPoly":
        """Sum of the terms of weighted degree exactly d."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        wdeg = self.table.wdeg
        terms = {e: c for e, c in self.terms.items() if wdeg(e) == d}
        return MPoly._wrap(self.table, terms)

    def min_degree_component(self) -> "MPoly":
        """The lowest-degree nonzero graded piece (zero for the zero polynomial)."""
        if not self.terms:
            return self
        return self.graded_component(min(map(self.table.wdeg, self.terms)))

    # ---- evaluation ----

    @staticmethod
    def evaluate(polys: Sequence["MPoly"], values: Sequence, one) -> Iterator:
        """The values of polys at one point, in order; this is the one ring map.

        polys is a sequence over one table, and values is the point:
        values[i] is the value of variable i, or None for no value, which
        raises ValueError naming the variable when a term first needs it.
        Mixed tables and a point of another length raise ValueError, and a
        mapping TypeError, at the call.  The values come lazily, as map()
        gives them: each is computed when it is taken, and a slot is read
        when a monomial first needs it, so a caller may fill a None slot
        between two values.  `one` is the ring identity and the ring is
        `one.table`, free (a rational number is a constant over
        VarTable(())) or a quotient such as a toy ring; every product goes
        through its multiply_into(out, a, b) on term dicts, and only the
        values returned are wrapped.  A point's coefficients may be ints,
        Fractions, or any type with +, * and a truth value that divides
        itself exactly by an int, such as oracle.SeedVector; no float is
        ever formed.  Each distinct monomial is built once per call, as a
        smaller monomial times one variable.  A polynomial's coefficients
        are read as integers over their common denominator; every integer
        times its monomial's terms is added into one dict, and each sum is
        divided by the denominator once with exact_quotient, so an int sum
        that the denominator divides stays an int and integral polynomials
        keep a point's int coefficients as ints; an integral Fraction that
        is returned becomes an int (integral_as_int).
        """
        if isinstance(values, Mapping):
            raise TypeError("a point is a sequence in table order, not a mapping")
        for p in polys:
            polys[0]._check(p)
        if polys and len(values) != len(polys[0].table):
            raise ValueError(f"point of length {len(values)} for {polys[0].table!r}")
        ring = one.table
        unit = one.terms
        monomials = {(0,) * len(values): unit}

        def value_of(p: "MPoly") -> "MPoly":
            den = lcm(*[c.denominator for c in p.terms.values()])
            acc: dict = {}
            for exps, c in p.terms.items():
                # walk down to a known monomial, then multiply back up
                chain = []
                cur = exps
                while (value := monomials.get(cur)) is None:
                    i = cur.index(next(filter(None, cur)))
                    chain.append((cur, i))
                    cur = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
                for mono, i in reversed(chain):
                    factor = values[i]
                    if factor is None:
                        raise ValueError(f"variable {p.table.names[i]!r} has no value")
                    one._check(factor)
                    value = monomials[mono] = (
                        factor.terms
                        if value is unit
                        else ring.multiply_into({}, value, factor.terms)
                    )
                k = c.numerator * (den // c.denominator)
                for e, v in value.items():
                    acc[e] = acc.get(e, 0) + k * v
            terms = {
                e: integral_as_int(exact_quotient(c, den) if den > 1 else c)
                for e, c in acc.items()
                if c
            }
            return MPoly._wrap(ring, terms)

        return map(value_of, polys)

    # ---- serialization ----

    def to_json_obj(self) -> dict:
        return {
            "vars": [{"name": n, "degree": d} for n, d in self.table.pairs],
            "terms": [
                {"coeff": format_rational(c), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def __repr__(self) -> str:
        return f"MPoly({render_text(self)})"

    def __str__(self) -> str:
        return render_text(self)


def _split_name(name: str) -> tuple[str, str]:
    """Split a trailing integer index off a variable name ("c12" -> ("c", "12"))."""
    i = len(name)
    while i > 0 and name[i - 1].isdigit():
        i -= 1
    return name[:i], name[i:]


def _name_text(name: str) -> str:
    head, idx = _split_name(name)
    return f"{head}_{idx}" if head and idx else name


def _name_latex(name: str) -> str:
    head, idx = _split_name(name)
    if head and idx:
        return f"{head}_{idx}" if len(idx) == 1 else f"{head}_{{{idx}}}"
    return name


def _render(p: MPoly, name_of, coeff_of, pow_of) -> str:
    if not p.terms:
        return "0"
    parts: list[str] = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.table.names, exps):
            if e == 0:
                continue
            v = name_of(name)
            factors.append(v if e == 1 else v + pow_of(e))
        mono = " ".join(factors)
        mag = abs(coeff)
        if not mono:
            body = coeff_of(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{coeff_of(mag)} {mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def render_text(p: MPoly) -> str:
    """Plain-text rendering in canonical term order, e.g. "c_2 - 1/3 c_1^2"."""
    return _render(p, _name_text, format_rational, lambda e: f"^{e}")


def render_latex(p: MPoly) -> str:
    """LaTeX rendering in canonical term order, e.g. "c_2 - \\frac{1}{3} c_1^2"."""

    def coeff_of(q: int | Fraction) -> str:
        if q.denominator == 1:
            return str(q.numerator)
        return rf"\frac{{{q.numerator}}}{{{q.denominator}}}"

    def pow_of(e: int) -> str:
        return f"^{e}" if e < 10 else f"^{{{e}}}"

    return _render(p, _name_latex, coeff_of, pow_of)
