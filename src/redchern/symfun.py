"""Partitions and the monomial / elementary bases of symmetric polynomials.

Symmetric polynomials live in partition coordinates and never in root
variables.  The unitriangular e-to-m table (counts of 0-1 matrices) maps
e-coordinates to m-coordinates, and is inverted one leading partition at a
time to rewrite m-coordinates in the elementary basis.  The elementary
symmetric functions of a permutation-invariant family of integer linear
forms come from the power sums of the forms, that m-to-e rewrite and
Newton's identities, without expanding the product of the forms.

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

from redchern.poly import MPoly, e_vars, format_rational, parse_rational


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
