"""Brute-force verification substrate: finite graded rings as oracles.

A toy ring is a quotient of a polynomial ring by monomial relations plus a
global degree cap, so normal forms are confluent without any Groebner
machinery, and every graded piece is a finite-dimensional vector space with
a monomial basis.  Its elements are MPolys over it, term dicts over the
surviving monomials.  Each ring enumerates those once and, on its first
product, builds one multiplication table from each pair of them to their
product where that survives; a product multiplies and accumulates over
the table into one dict, so no dead monomial is ever formed.  Its zero
and one are MPoly.zero(ring) and MPoly.one(ring), as in every ring.  A bundle
over a toy ring is its class tuple c_1..c_n, c_i drawn in degree i.  Its
projective bundle P(E) has no ring presentation: an element is a list of
base term dicts, one per power of xi below the rank, and one kernel
multiplies two such lists through the base's table and reduces by the
relation.  The symbolic identities proved in the c-variables are
universal, so specializing them to random bundles over random toy rings
can only fail if the symbolic side is wrong; that is what check_bundles
tests, evaluating both sides of each identity independently in the ring
with MPoly.evaluate, which multiplies term dicts through the ring's
multiply_into and wraps only the values it returns.  The toy-rings suite
draws each seed's bundle and twist line once per ring, at its max rank,
and check_bundles stacks the bundles of all its seeds into one element
of R (x) Q^k, whose coefficients are SeedVectors with one slot per seed,
so each polynomial is evaluated once per ring and rank for every seed;
each identity is then compared slot by slot, and only a failing slot is
taken apart to find its witness.  Random classes have integer
coefficients, and they stay ints for as long as the polynomials
evaluated at them have integral coefficients or the sums divide
exactly.  The projective-bundle tag multiplies in each seed's own P(E)
with the kernel, and only a witness becomes an MPoly.

Gradings are algebraic throughout: deg c_i = i and the projective-bundle
class xi has degree 1 (no topological doubling).
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from redchern import chern, universal
from redchern.poly import MPoly, VarTable, exact_quotient


class ToyRing(VarTable):
    """Finitely presented truncated graded commutative ring over the rationals.

    It is the VarTable of its generators, and equals no plain VarTable.
    Its elements are MPolys over it with only surviving monomials as keys,
    which the MPoly constructor checks; results the ring computes are not
    checked again.  Relations have powers >= 1, so the constant monomial
    survives and MPoly.one(ring) is the ring's one.
    """

    def __init__(self, ring_id, generators, relations=(), top_degree=12):
        super().__init__(generators)
        self.id = str(ring_id)
        if type(top_degree) is not int or top_degree < 0:
            raise ValueError(f"top_degree must be an int >= 0, got {top_degree!r}")
        self.top_degree = top_degree
        pats = []
        for rel in relations:
            if not rel:
                raise ValueError("empty relation")
            pat = {}
            for name, power in dict(rel).items():
                if type(power) is not int or power < 1:
                    raise ValueError(
                        f"relation power {power!r} for {name!r} is not an int >= 1"
                    )
                pat[self.index(name)] = power
            pats.append(tuple(sorted(pat.items())))
        # each relation as its (variable index, power) pairs
        self.relations = tuple(pats)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, ToyRing)
            and self.pairs == other.pairs
            and self.relations == other.relations
            and self.top_degree == other.top_degree
        )

    __hash__ = VarTable.__hash__

    def __repr__(self) -> str:
        return f"ToyRing({self.id!r})"

    # ---- normal form ----

    @cached_property
    def _bases(self) -> tuple:
        """The surviving monomials grouped by weighted degree, enumerated once."""
        partial = [((), 0)]
        for step in self.degrees:
            partial = [
                (acc + (e,), w + e * step)
                for acc, w in partial
                for e in range((self.top_degree - w) // step + 1)
            ]
        bases = [[] for _ in range(self.top_degree + 1)]
        for e, w in sorted(partial):
            if not any(all(e[i] >= p for i, p in pat) for pat in self.relations):
                bases[w].append(e)
        return tuple(map(tuple, bases))

    @cached_property
    def _live(self) -> frozenset:
        """The surviving monomials, which the MPoly constructor checks keys against."""
        return frozenset(e for basis in self._bases for e in basis)

    def check_monomials(self, terms: Mapping) -> None:
        if not terms.keys() <= self._live:
            bad = [e for e in terms if e not in self._live]
            raise ValueError(f"keys {bad} are no surviving monomials of {self!r}")

    @cached_property
    def _products(self) -> dict:
        """The multiplication table, built once, on first use.

        It maps each surviving monomial to its row, which maps every
        surviving monomial whose product with it survives to that product.
        """
        bases = self._bases
        table = {e: {} for basis in bases for e in basis}
        for wa, basis_a in enumerate(bases):
            fits = [eb for basis in bases[: self.top_degree - wa + 1] for eb in basis]
            for ea, eb in product(basis_a, fits):
                e = tuple(map(add, ea, eb))
                if e in table:
                    table[ea][eb] = e
        return table

    def multiply_into(self, out: dict, a: Mapping, b: Mapping) -> dict:
        """Add the product of the normal-form term dicts a and b into out.

        Returns out, where a coefficient that cancels stays as a zero.
        """
        table = self._products
        for ea, ca in a.items():
            row = table[ea]
            for eb, cb in b.items():
                e = row.get(eb)
                if e is not None:
                    out[e] = out.get(e, 0) + ca * cb
        return out

    # ---- graded structure ----

    def graded_basis(self, d: int) -> tuple[tuple[int, ...], ...]:
        """Monomial basis of the degree-d piece, lexicographically sorted."""
        return self._bases[d] if 0 <= d <= self.top_degree else ()

    def random_element(self, d: int, rng: random.Random) -> MPoly:
        """A random homogeneous degree-d element with coefficients in -3..3."""
        draws = {e: rng.randint(-3, 3) for e in self.graded_basis(d)}
        return MPoly._wrap(self, {e: c for e, c in draws.items() if c})


def random_bundle(ring: ToyRing, n: int, seed) -> tuple[MPoly, ...]:
    """The classes c_1..c_n of a seeded random rank-n bundle, c_i drawn in degree i."""
    chern.ensure_rank(n)
    if seed < 0:
        # random.Random reads a seed by its absolute value
        raise ValueError(f"seed {seed} is negative")
    rng = random.Random(seed)
    return tuple(ring.random_element(i, rng) for i in range(1, n + 1))


def random_draw(ring: ToyRing, n: int, seed) -> tuple:
    """The seed's rank-n bundle, which starts each lower-rank one, and its line."""
    line = ring.random_element(1, random.Random((seed + 1) << 4))
    return random_bundle(ring, n, seed), line


# ---- the symbolic theory consumed by toy-ring checks ----


class RankTheory(NamedTuple):
    """All universal polynomials of one rank, ready for specialization."""

    rank: int
    reduced: tuple[MPoly, ...]
    twisted: tuple[MPoly, ...]
    f_classes: tuple[MPoly, ...]
    phi: tuple[MPoly, ...]


@lru_cache(maxsize=None)
def rank_theory(n: int) -> RankTheory:
    return RankTheory(
        rank=n,
        reduced=chern.shifted_root_sigma(n),
        twisted=chern.twist(n),
        f_classes=chern.sym_power_det_inverse_chern(n),
        phi=universal.compute_phi(n).phi,
    )


# ---- identity checks ----

IDENTITY_TAGS = ("twist", "c1-zero", "phi-roundtrip", "c1F-zero", "projective-bundle")


class CheckResult(NamedTuple):
    """One verification outcome, serializable as a JSON report line."""

    identity: str
    ring: str
    rank: int
    seed: int
    status: str
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "ring": self.ring,
            "rank": self.rank,
            "seed": self.seed,
            "status": self.status,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
        }


class SeedVector(tuple):
    """A coefficient of k stacked bundles: one slot per seed, in Q^k.

    Term dicts with these coefficients are elements of R (x) Q^k, the k
    bundles' classes side by side, so one evaluation serves every seed.
    Sums and products act slot by slot, an int acts on every slot,
    division by an int is exact in each slot, and a vector is true when
    any slot is nonzero.
    """

    __slots__ = ()

    def __add__(self, other):
        if type(other) is SeedVector:
            return SeedVector(map(add, self, other))
        return SeedVector(map(add, self, repeat(other))) if other else self

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is SeedVector:
            return SeedVector(map(mul, self, other))
        return SeedVector(map(mul, self, repeat(other)))

    __rmul__ = __mul__

    def __truediv__(self, den: int):
        return SeedVector(map(exact_quotient, self, repeat(den)))

    def __bool__(self) -> bool:
        return any(self)


def _stack(ring: ToyRing, elements: Sequence[MPoly]) -> MPoly:
    """The elements side by side, slot s holding elements[s]."""
    keys = dict.fromkeys(e for x in elements for e in x.terms)
    return MPoly._wrap(
        ring, {e: SeedVector([x.terms.get(e, 0) for x in elements]) for e in keys}
    )


def _slot(x: MPoly, s: int) -> MPoly:
    """The scalar element in slot s of a stacked element."""
    return MPoly._wrap(x.table, {e: c[s] for e, c in x.terms.items() if c[s]})


def _first_failures(pairs: Iterable[tuple], k: int) -> list:
    """Per slot, the witness of the first stacked (lhs, rhs) pair differing there.

    The witness is the lowest nonzero graded piece of lhs - rhs in that
    slot; only a slot that differs is taken apart into scalar elements.
    """
    witnesses = [None] * k
    zero = (0,) * k
    for lhs, rhs in pairs:
        a, b = lhs.terms, rhs.terms
        if a == b:
            continue
        slots = set()
        for e in a.keys() | b.keys():
            x, y = a.get(e, zero), b.get(e, zero)
            if x != y:
                slots.update(s for s in range(k) if x[s] != y[s])
        for s in slots:
            if witnesses[s] is None:
                witnesses[s] = (_slot(lhs, s) - _slot(rhs, s)).min_degree_component()
    return witnesses


def _projective_witness(ring: ToyRing, classes: tuple, seed: int):
    """None if P(E) reduces its relation to zero and a sample u, v, w multiplies
    associatively and commutatively with u 1 = u, else a witness."""
    ext = ProjectiveBundleRing(ring, classes)
    residue = next((t for t in ext.relation_residue() if t), None)
    if residue is not None:
        return MPoly._wrap(ring, residue).min_degree_component()
    rng = random.Random((seed + 3) << 4)
    sample = []
    for _ in range(3):
        base = ring.random_element(rng.randint(0, 2), rng)
        # base xi^k written down directly, reduced at most once
        sample.append(ext._product([{}] * rng.randint(0, ext.rank) + [base.terms]))
    u, v, w = sample
    mul, one = ext._product, [MPoly.one(ring).terms]
    uv = mul(u, v)
    ok = mul(u, one) == u and uv == mul(v, u) and mul(uv, w) == mul(u, mul(v, w))
    return None if ok else MPoly.one(ring)


def check_bundles(
    ring: ToyRing, theory: RankTheory, seeds: Iterable[int], draws=None
) -> tuple[CheckResult, ...]:
    """Specialize every universal identity of one rank to seeded random bundles.

    Returns one result per seed and tag, seed by seed in the order given
    and tags in IDENTITY_TAGS order, so k seeds give the results of k
    one-seed calls in turn.  The rank is theory.rank; draws holds each
    seed's random_draw at rank n or above, drawn here when it is None.
    The k bundles, each draw's first n classes, are stacked into one point
    (c_1, ..., c_n) over R (x) Q^k with SeedVector coefficients; the twist
    point appends the line t, the c1 = 0 point is (0, c_2, ..., c_n), and
    phi's point is the f-classes from f_2 on.  Both sides of each identity
    are evaluated once for all seeds, independently, in the ring, in five
    MPoly.evaluate calls, one per point: the reduced classes and f-classes
    at c, the twisted classes, the reduced classes at those and at the
    c1 = 0 point, and phi.  Each identity is compared slot by slot, and a
    failing seed reports the first differing graded component of its own
    slot as witness.  The projective-bundle tag is checked on each seed's
    own bundle, with its own sample seed.  Passing a corrupted theory is
    how the suite's mutation sensitivity is exercised.
    """
    n, seeds = theory.rank, tuple(seeds)
    k = len(seeds)
    if draws is None:
        draws = [random_draw(ring, n, seed) for seed in seeds]
    values = [_stack(ring, [classes[i] for classes, _ in draws]) for i in range(n)]
    one = _stack(ring, [MPoly.one(ring)] * k)
    at_c = list(MPoly.evaluate(theory.reduced + theory.f_classes, values, one))
    reduced, f_values = at_c[:n], at_c[n:]

    tv = [*values, _stack(ring, [line for _, line in draws])]
    twisted = list(MPoly.evaluate(theory.twisted, tv, one))
    at_twisted = MPoly.evaluate(theory.reduced, twisted, one)
    twist = _first_failures(zip(at_twisted, reduced), k)

    # at c1 = 0 the reduced classes must give the point's own 0, c2, ..., cn
    flat = [MPoly.zero(ring), *values[1:]]
    c1_zero = _first_failures(zip(MPoly.evaluate(theory.reduced, flat, one), flat), k)

    phi_at_f = MPoly.evaluate(theory.phi, f_values[1:], one)
    phi_roundtrip = _first_failures(zip(phi_at_f, reduced[1:]), k)
    c1f_zero = _first_failures([(f_values[0], MPoly.zero(ring))], k)

    results = []
    for s, (seed, (classes, _)) in enumerate(zip(seeds, draws)):
        witnesses = (
            twist[s],
            c1_zero[s],
            phi_roundtrip[s],
            c1f_zero[s],
            _projective_witness(ring, classes[:n], seed),
        )
        results.extend(
            CheckResult(tag, ring.id, n, seed, "pass" if w is None else "fail", w)
            for tag, w in zip(IDENTITY_TAGS, witnesses)
        )
    return tuple(results)


# ---- projective-bundle extension ----


class ProjectiveBundleRing:
    """P(E): the base ring with a degree-1 class xi adjoined, on coefficient lists.

    The bundle is its classes c_1..c_n in the base ring, and its rank n is
    their count.  An element sum a_j xi^j, j < n, is the list of its base
    term dicts a_0..a_{n-1}; the defining relation
        xi^n + c_1 xi^{n-1} + ... + c_n = 0
    rewrites every higher power of xi back into that basis, so the
    extension is a free module of rank n over the base.
    """

    def __init__(self, base: ToyRing, classes: Sequence[MPoly]):
        if not classes:
            raise ValueError("a bundle needs at least one class")
        if not all(base == c.table for c in classes):
            raise ValueError(f"the classes of a bundle over {base!r} must be over it")
        self.base = base
        self.classes = tuple(classes)
        self.rank = len(self.classes)
        self._relation = [(i, c.terms) for i, c in enumerate(classes, 1) if c.terms]

    def _product(self, a: Sequence, b: Sequence | None = None) -> list:
        """The base term dicts of (sum a_i xi^i)(sum b_j xi^j) below xi^n.

        a and b hold base term dicts, as many as they need; without b the
        product is a alone.  The factors are convolved through the base's
        table, and from the top power down each term c m xi^k, k >= n, is
        rewritten by xi^n = -(c_1 xi^{n-1} + ... + c_n) through the row of m.
        """
        n, table = self.rank, self.base._products
        if b is None:
            raw = [dict(t) for t in a] + [{} for _ in range(n - len(a))]
        else:
            raw = [{} for _ in range(max(n, len(a) + len(b) - 1))]
            rhs = [(j, t) for j, t in enumerate(b) if t]
            for i, s in enumerate(a):
                for ea, ca in s.items():
                    row = table[ea]
                    for j, t in rhs:
                        out = raw[i + j]
                        for eb, cb in t.items():
                            e = row.get(eb)
                            if e is not None:
                                out[e] = out.get(e, 0) + ca * cb
        for k in range(len(raw) - 1, n - 1, -1):
            for m, c in raw[k].items():
                if c:
                    row = table[m]
                    for i, t in self._relation:
                        out = raw[k - i]
                        for ec, v in t.items():
                            e = row.get(ec)
                            if e is not None:
                                out[e] = out.get(e, 0) - c * v
        return [t if 0 not in t.values() else {e: c for e, c in t.items() if c}
                for t in raw[:n]]

    def relation_residue(self) -> list:
        """xi^n + c_1 xi^{n-1} + ... + c_n, written down and reduced by _product.

        Only the head xi^n is rewritten, so the n base term dicts returned
        are all empty exactly when the reduction replaces xi^n by
        -(c_1 xi^{n-1} + ... + c_n) with the bundle's own classes; a flipped
        sign or a wrong class leaves the difference.
        """
        return self._product(
            [*(c.terms for c in reversed(self.classes)), MPoly.one(self.base).terms]
        )
