"""Partitions and the monomial / elementary bases of symmetric polynomials.

Symmetric polynomials live in partition coordinates and never in root
variables.  The unitriangular e-to-m table (int counts of 0-1 matrices)
maps e-coordinates to m-coordinates in any number of variables, and
elementary_to_monomial, which takes a partition only, is the one route
to them.  The elementary symmetric functions of a family of root
values come from the family's exponential power-sum series in p_1, p_2,
..., read off in closed form: each p_a is rewritten in c1..cn by Newton's
identities, and Newton's identities again give e_r of the family.  No
form is listed and no product of forms or of series is expanded.

A partition is a tuple of weakly decreasing positive ints, () the empty
one.  It is validated where it enters from outside, in
elementary_to_monomial.  Partitions are ordered only within a fixed
weight, as tuples: lexicographic comparison of part sequences, largest
part first.  That is the order under which the e-to-m change of basis is
unitriangular.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from redchern.poly import MPoly, VarTable, c_vars, format_rational


def _check_partition(parts) -> tuple[int, ...]:
    """parts as a tuple, if they are weakly decreasing positive ints."""
    parts = tuple(parts)
    if not all(type(p) is int for p in parts):
        raise ValueError(f"parts must be ints: {parts}")
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    if parts and parts[-1] < 1:
        raise ValueError(f"parts must be positive: {parts}")
    return parts


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0] if lam else 0))


def json_sort_key(lam: tuple[int, ...]):
    """Weight-major ascending, then descending within weight (serialization order)."""
    return (sum(lam), tuple(-p for p in lam))


def partitions_of(d: int, max_parts: int) -> list[tuple[int, ...]]:
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

    return list(gen(d, d if d else 1, max_parts))


class SymPolyInBasis(NamedTuple):
    """Coordinates of a symmetric polynomial in the m-basis, keyed by partition."""

    coeffs: dict

    def coefficient(self, lam: tuple[int, ...]) -> int | Fraction:
        return self.coeffs.get(lam, 0)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: json_sort_key(kv[0]))

    def to_json_obj(self) -> dict:
        return {
            "basis": "m",
            "coeffs": [
                {"partition": list(lam), "coeff": format_rational(c)}
                for lam, c in self.sorted_items()
            ],
        }


@lru_cache(maxsize=None)
def _e_to_m_table(mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """m-coordinates of e_mu in any number of variables, keyed by part tuples.

    The entry for lambda counts the 0-1 matrices with row sums mu and column
    sums lambda; it does not depend on the variable count, which only drops
    the lambda with too many parts.  Built row by row: the coefficient of
    x^lambda in e_r * F sums the coefficients of F at lambda minus the
    indicator of each r-subset of the nonzero positions of lambda, grouped
    by blocks of equal parts.
    """
    if not mu:
        return {(): 1}
    r, rest, weight = mu[0], _e_to_m_table(mu[1:]), sum(mu)
    table = {}
    for lam in partitions_of(weight, weight):
        blocks = sorted(Counter(lam).items(), reverse=True)
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
            table[lam] = total
    return table


def elementary_to_monomial(lam) -> SymPolyInBasis:
    """m-basis coordinates of e_lambda: the 0-1 matrix counts.

    In n variables, the partitions with more than n parts read as 0.  The
    row is the cached table entry itself, shared by every caller.
    """
    return SymPolyInBasis(_e_to_m_table(_check_partition(lam)))


def _power_sum_vars(n: int) -> VarTable:
    """Power-sum variables p1..pn with deg p_a = a."""
    return VarTable((f"p{a}", a) for a in range(1, n + 1))


def forms_series(n: int, shift: int) -> MPoly:
    """sum over compositions m of n of exp(t (m.x - shift p_1)), to t^n, in p_1..p_n.

    At shift 0 that is h_n(exp(t x_1), ..., exp(t x_n)), the z^n coefficient
    of (1-z)^(-n) prod_a exp(t^a p_a B_a(z) / a!), B_a(z) = sum_j j^(a-1) z^j
    (Macdonald, Symmetric Functions, Ch. I Sec. 2), and exp(-shift t p_1)
    joins the a = 1 factor.  So prod_a p_a^k_a has the coefficient [z^n] of
    (1-z)^(-n) (B_1 - shift)^k_1 prod_{a>1} B_a^k_a over prod_a a!^k_a k_a!.
    A depth-first walk over the partitions of weight <= n adds one part a per
    step, which is one integer z-series product.
    """
    factors = {
        a: [-shift * (a == 1)] + [j ** (a - 1) for j in range(1, n + 1)]
        for a in range(1, n + 1)
    }
    terms = {}

    def walk(z, exps, weight, last, den):
        terms[tuple(exps)] = Fraction(z[n], den)
        for a in range(min(last, n - weight), 0, -1):
            f = factors[a]
            exps[a - 1] += 1
            nxt = [sum(z[i] * f[k - i] for i in range(k + 1)) for k in range(n + 1)]
            walk(nxt, exps, weight + a, a, den * factorial(a) * exps[a - 1])
            exps[a - 1] -= 1

    walk([comb(n - 1 + j, j) for j in range(n + 1)], [0] * n, 0, n, 1)
    return MPoly(_power_sum_vars(n), terms)


def shifted_root_series(n: int) -> MPoly:
    """sum_i exp(t (n x_i - p_1)), to t^n, in p_1..p_n.

    That is exp(-t p_1) sum_a n^a t^a p_a / a! with p_0 = n, so p_1^j p_a
    has the coefficient (-1)^j n^a / (j! a!).
    """
    # p_1^j p_1 and p_1^(j+1) p_0 share a key; MPoly sums repeated keys
    terms = [
        (
            tuple(j * (i == 0) + (i + 1 == a) for i in range(n)),
            Fraction((-1) ** j * (n**a if a else n), factorial(j) * factorial(a)),
        )
        for a in range(n + 1)
        for j in range(n + 1 - a)
    ]
    return MPoly(_power_sum_vars(n), terms)


@lru_cache(maxsize=None)
def _power_sums_in_elementary(n: int) -> tuple[MPoly, ...]:
    """p_1..p_n of n roots in c1..cn, c_i standing for e_i of the roots.

    Newton's identities: p_a = sum_{i<a} (-1)^(i-1) c_i p_{a-i}
    + (-1)^(a-1) a c_a.
    """
    table = c_vars(n)
    c = [MPoly.variable(table, name) for name in table.names]
    out: list[MPoly] = []
    for a in range(1, n + 1):
        acc = MPoly.zero(table)
        for i in range(1, a + 1):
            term = c[i - 1] * (out[a - i - 1] if i < a else a)
            acc = acc + term if i % 2 else acc - term
        out.append(acc)
    return tuple(out)


def elementary_from_power_sums(series: MPoly) -> list[MPoly]:
    """e_1..e_n of a family of values, in c1..cn of the n roots.

    series is the family's exponential power-sum series
    sum_k P_k t^k / k! to t^n, in p_1..p_n of n roots, where the t-degree of
    a term is its weighted degree.  Each p_a is rewritten in c1..cn, c_i
    standing for e_i of the roots, and Newton's identities
    r e_r = sum_i (-1)^(i-1) e_{r-i} P_i give the elementary symmetric
    functions of the family, directly in c1..cn.
    """
    n = len(series.table)
    if series.table != _power_sum_vars(n):
        raise ValueError(f"series must be in p1..p{n}")
    table = c_vars(n)
    (in_c,) = MPoly.evaluate([series], _power_sums_in_elementary(n), MPoly.one(table))
    power_sums = [in_c.graded_component(k) * factorial(k) for k in range(1, n + 1)]
    sigmas = [MPoly.one(table)]
    for r in range(1, n + 1):
        acc = MPoly.zero(table)
        for i in range(1, r + 1):
            term = sigmas[r - i] * power_sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        sigmas.append(acc * Fraction(1, r))
    return sigmas[1:]
