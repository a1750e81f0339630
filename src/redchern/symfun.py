"""Partitions and the monomial / elementary bases of symmetric polynomials.

Symmetric polynomials are rewritten in the elementary basis in partition
coordinates: symmetry is certified first by comparing coefficients across
whole permutation orbits of exponent vectors (checking every orbit is
equivalent to checking invariance under all n! permutations, and gives a
concrete witness permutation on failure), the m-basis coordinates are read
off, and the unitriangular e-to-m table (counts of 0-1 matrices) is inverted
one leading partition at a time.  The elementary symmetric functions of a
permutation-invariant family of integer linear forms go the same way,
through the power sums of the forms and Newton's identities, without
expanding the product of the forms.

Partitions are ordered only within a fixed weight, by lexicographic
comparison of part sequences, largest part first.  That is the order under
which the e-to-m change of basis is unitriangular.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from redchern.poly import MPoly, e_vars, format_rational, parse_rational, x_vars


class Partition:
    """Weakly decreasing sequence of positive integers; () is the empty partition."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        if not all(type(p) is int for p in parts):
            raise ValueError(f"parts must be ints: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def to_json_obj(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_json_obj(cls, obj) -> "Partition":
        return cls(obj)


def compare_order(lam: Partition, mu: Partition) -> int:
    """Total order within one weight: -1, 0 or 1, largest-part-first lex.

    Partitions of different weights are not comparable here.
    """
    if lam.weight != mu.weight:
        raise ValueError(
            f"cannot order partitions of different weights: {lam!r} vs {mu!r}"
        )
    if lam.parts == mu.parts:
        return 0
    return 1 if lam.parts > mu.parts else -1


def json_sort_key(lam: Partition):
    """Weight-major ascending, then descending within weight (serialization order)."""
    return (lam.weight, tuple(-p for p in lam.parts))


def partitions_of(d: int, max_parts: int) -> list[Partition]:
    """All partitions of weight d with at most max_parts parts, descending."""
    if d < 0:
        raise ValueError("weight must be >= 0")
    if max_parts < 1:
        raise ValueError("max_parts must be >= 1")

    def gen(rest, max_part, slots):
        if rest == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rest, max_part), 0, -1):
            for tail in gen(rest - first, first, slots - 1):
                yield (first,) + tail

    return [Partition(p) for p in gen(d, d if d else 1, max_parts)]


@lru_cache(maxsize=None)
def elementary_symmetric(r: int, n: int) -> MPoly:
    """The elementary symmetric polynomial of degree r in x1..xn (zero if r > n)."""
    table = x_vars(n)
    if r == 0:
        return MPoly.one(table)
    if r > n:
        return MPoly.zero(table)
    terms = {}
    for subset in itertools.combinations(range(n), r):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = Fraction(1)
    return MPoly(table, terms)


def monomial_symmetric(lam: Partition, n: int) -> MPoly:
    """m_lambda in n variables: the sum over distinct permutations of x^lambda."""
    if len(lam) > n:
        raise ValueError(f"partition {lam!r} has more than {n} parts")
    padded = lam.parts + (0,) * (n - len(lam))
    table = x_vars(n)
    return MPoly(table, {e: Fraction(1) for e in set(itertools.permutations(padded))})


def elementary_product(lam: Partition, n: int) -> MPoly:
    """e_lambda = product of elementary symmetric polynomials, one per part."""
    result = MPoly.one(x_vars(n))
    for p in lam.parts:
        result = result * elementary_symmetric(p, n)
    return result


class NotSymmetricError(ValueError):
    """Raised when a polynomial is not invariant under variable permutations.

    witness is an index permutation pi (new exponent i comes from position
    pi[i]) under which the polynomial changes.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(f"polynomial is not symmetric; witness permutation {witness}")


def _matching_permutation(src, dst) -> tuple[int, ...]:
    """A permutation pi with dst[i] == src[pi[i]] for exponent multisets."""
    pools: dict[int, list[int]] = {}
    for j, v in enumerate(src):
        pools.setdefault(v, []).append(j)
    return tuple(pools[v].pop() for v in dst)


def _orbit_size(rep) -> int:
    """Number of distinct permutations of an exponent multiset."""
    size = 1
    for k in range(2, len(rep) + 1):
        size *= k
    mult: dict[int, int] = {}
    for v in rep:
        mult[v] = mult.get(v, 0) + 1
    for m in mult.values():
        for k in range(2, m + 1):
            size //= k
    return size


def symmetry_witness(p: MPoly):
    """None when p is symmetric, else a witness permutation of variable indices.

    Invariance under all n! permutations is equivalent to every orbit of
    exponent vectors being fully present with one shared coefficient, so the
    pass path only counts orbit members; permutations are materialized only
    to construct a witness.
    """
    degrees = set(p.table.degrees)
    if len(degrees) > 1:
        raise ValueError("symmetry is only defined for equal-degree variables")
    groups: dict[tuple[int, ...], dict] = {}
    for exps, coeff in p.terms.items():
        rep = tuple(sorted(exps, reverse=True))
        groups.setdefault(rep, {})[exps] = coeff
    for rep, present in groups.items():
        base_exps, base_coeff = next(iter(present.items()))
        if len(present) == _orbit_size(rep) and all(
            c == base_coeff for c in present.values()
        ):
            continue
        for member in itertools.permutations(rep):
            if present.get(member) != base_coeff:
                return _matching_permutation(base_exps, member)
    return None


def is_symmetric(p: MPoly) -> bool:
    return symmetry_witness(p) is None


@dataclass(frozen=True)
class SymPolyInBasis:
    """Coordinates of a symmetric polynomial in the m- or e-basis."""

    basis: str
    coeffs: dict

    def __post_init__(self):
        if self.basis not in ("m", "e"):
            raise ValueError(f"unknown basis tag {self.basis!r}")

    def coefficient(self, lam: Partition) -> Fraction:
        return self.coeffs.get(lam, Fraction(0))

    def expand(self, n: int) -> MPoly:
        """Expand into an explicit polynomial in x1..xn."""
        result = MPoly.zero(x_vars(n))
        for lam, coeff in self.coeffs.items():
            basis_poly = (
                monomial_symmetric(lam, n)
                if self.basis == "m"
                else elementary_product(lam, n)
            )
            result = result + basis_poly * coeff
        return result

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: json_sort_key(kv[0]))

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "coeffs": [
                {"partition": lam.to_json_obj(), "coeff": format_rational(c)}
                for lam, c in self.sorted_items()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SymPolyInBasis":
        return cls(
            obj["basis"],
            {
                Partition.from_json_obj(item["partition"]): parse_rational(item["coeff"])
                for item in obj["coeffs"]
            },
        )


def monomial_coefficients(p: MPoly) -> SymPolyInBasis:
    """The m-basis coordinates of a symmetric polynomial."""
    witness = symmetry_witness(p)
    if witness is not None:
        raise NotSymmetricError(witness)
    coeffs: dict[Partition, Fraction] = {}
    for exps, coeff in p.terms.items():
        rep = tuple(sorted(exps, reverse=True))
        if rep == exps:
            coeffs[Partition(tuple(v for v in rep if v))] = coeff
    return SymPolyInBasis("m", coeffs)


@lru_cache(maxsize=None)
def _e_to_m_table(mu: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """m-coordinates of e_mu in n variables, keyed by part tuples.

    The entry for lambda counts the 0-1 matrices with row sums mu and column
    sums lambda; only lambda with at most n parts survive in n variables.
    Built row by row: the coefficient of x^lambda in e_r * F sums the
    coefficients of F at lambda minus the indicator of each r-subset of the
    nonzero positions of lambda, grouped by blocks of equal parts.
    """
    if not mu:
        return {(): 1}
    r, rest = mu[0], _e_to_m_table(mu[1:], n)
    table = {}
    for lam in partitions_of(sum(mu), n):
        blocks = sorted(Counter(lam.parts).items(), reverse=True)
        total = 0
        for picks in itertools.product(*(range(c + 1) for _, c in blocks)):
            if sum(picks) != r:
                continue
            lower = []
            ways = 1
            for (v, c), k in zip(blocks, picks):
                lower += [v] * (c - k) + [v - 1] * k
                ways *= comb(c, k)
            key = tuple(sorted((v for v in lower if v), reverse=True))
            total += ways * rest.get(key, 0)
        if total:
            table[lam.parts] = total
    return table


def elementary_to_monomial(lam: Partition, n: int) -> SymPolyInBasis:
    """m-basis coordinates of e_lambda in n variables, from the 0-1 matrix counts."""
    if len(lam) > n:
        raise ValueError(f"partition {lam!r} has more than {n} parts")
    if lam.parts and lam.parts[0] > n:
        raise ValueError(f"part {lam.parts[0]} exceeds the variable count {n}")
    return SymPolyInBasis(
        "m",
        {Partition(mu): Fraction(c) for mu, c in _e_to_m_table(lam.parts, n).items()},
    )


def _monomial_to_elementary(coords: SymPolyInBasis, n: int) -> MPoly:
    """Rewrite m-basis coordinates in n variables as a polynomial in e1..en.

    The lexicographically largest remaining lambda is the leading term of
    e_{lambda'}, so subtracting c * e_{lambda'} clears it and touches only
    smaller partitions of the same weight.
    """
    work = {lam.parts: c for lam, c in coords.coeffs.items() if c}
    out: dict[tuple[int, ...], Fraction] = {}
    while work:
        lam = max(work, key=lambda parts: (sum(parts), parts))
        coeff = work[lam]
        conj = Partition(lam).conjugate().parts
        exps = [0] * n
        for p in conj:
            exps[p - 1] += 1
        out[tuple(exps)] = coeff
        for mu, count in _e_to_m_table(conj, n).items():
            rest = work.get(mu, 0) - coeff * count
            if rest:
                work[mu] = rest
            else:
                work.pop(mu, None)
    return MPoly(e_vars(n), out)


def express_in_elementary(p: MPoly) -> MPoly:
    """Rewrite a symmetric polynomial as a polynomial in e1..en.

    Exact inverse of expansion: substituting e_i = sigma_i(x) into the result
    recovers p.  Non-symmetric input raises NotSymmetricError with a witness.
    """
    if any(d != 1 for d in p.table.degrees):
        raise ValueError("input must live in degree-1 root variables")
    return _monomial_to_elementary(monomial_coefficients(p), len(p.table))


def _multinomial(k: int, parts) -> int:
    out, rest = 1, k
    for p in parts:
        out *= comb(rest, p)
        rest -= p
    return out


def elementary_of_forms(forms, n: int, r_max: int) -> list[MPoly]:
    """e_1..e_{r_max} of the values of integer linear forms, in e1..en.

    forms are length-n coefficient tuples whose multiset is closed under
    permuting the variables, so every power sum of the values is symmetric:
    P_k = sum over lambda of multinom(k; lambda) * S(lambda) * m_lambda with
    S(lambda) = sum_f prod_j f_j^lambda_j.  Each P_k is rewritten in the
    e-basis and Newton's identities r e_r = sum_i (-1)^(i-1) e_{r-i} P_i
    give the elementary symmetric functions of the forms.
    """
    forms = [tuple(f) for f in forms]
    if any(len(f) != n for f in forms):
        raise ValueError(f"every form needs {n} coefficients")
    family = Counter(forms)
    for i in range(n - 1):
        swapped = Counter(f[:i] + (f[i + 1], f[i]) + f[i + 2:] for f in forms)
        if swapped != family:
            raise ValueError(
                f"forms are not invariant under the transposition (x{i + 1} x{i + 2})"
            )
    evt = e_vars(n)
    prefixes = {
        length: Counter(f[:length] for f in forms) for length in range(1, n + 1)
    }
    power_sums = []
    for k in range(1, r_max + 1):
        coeffs = {}
        for lam in partitions_of(k, n):
            total = sum(
                count * prod(v**p for v, p in zip(head, lam.parts))
                for head, count in prefixes[len(lam)].items()
            )
            if total:
                coeffs[lam] = _multinomial(k, lam.parts) * total
        power_sums.append(_monomial_to_elementary(SymPolyInBasis("m", coeffs), n))
    sigmas = [MPoly.one(evt)]
    for r in range(1, r_max + 1):
        acc = MPoly.zero(evt)
        for i in range(1, r + 1):
            term = sigmas[r - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        sigmas.append(acc * Fraction(1, r))
    return sigmas[1:]


def root_compositions(n: int) -> tuple[tuple[int, ...], ...]:
    """All (m_1..m_n) with m_i >= 0 summing to n: the index set of the y-roots.

    Ordered with the n extreme compositions n*delta_i first, then the rest
    ascending lexicographically.  The count is C(2n-1, n).
    """
    extremes = [tuple(n if j == i else 0 for j in range(n)) for i in range(n)]
    extreme_set = set(extremes)

    def gen(slots, rest):
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest + 1):
            for tail in gen(slots - 1, rest - first):
                yield (first,) + tail

    rest = sorted(m for m in gen(n, n) if m not in extreme_set)
    result = tuple(extremes) + tuple(rest)
    assert len(result) == comb(2 * n - 1, n)
    return result
