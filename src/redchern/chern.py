"""Chern-class calculus for reduced Chern classes, without root variables.

With Chern roots x1..xn, c_i is the elementary symmetric polynomial sigma_i
of the roots.  Shifting every root by minus the average root gives the
shifted roots f_i = x_i - (x1+...+xn)/n, the roots of E (x) (det E)^(-1/n);
their elementary symmetric polynomials are the reduced classes.  They come
from the closed power-sum series of the integer forms n*x_i - (x1+...+xn)
(symfun.elementary_from_power_sums into c1..cn), rescaled by 1/n^r in
degree r.  The roots of the rank-n symmetric power twisted by the inverse
determinant are the forms sum_i (m_i - 1) x_i, whose series is
symfun.forms_series(n, 1).  No form is listed and no product is expanded.

Twisting by a line bundle of class t has the closed form
c_k(E (x) L) = sum_i C(n-i, k-i) c_i(E) t^(k-i) (Fulton, Intersection
Theory, Ex. 3.2.2), and twisted_classes is the one routine for it; the
closed formula for the reduced classes is the same sum at t = -c_1/n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from redchern import symfun
from redchern.poly import MPoly, c_vars


def ensure_rank(n: int) -> None:
    if n < 2:
        raise ValueError(f"rank {n} is below 2")


@lru_cache(maxsize=None)
def shifted_root_sigma(n: int) -> tuple[MPoly, ...]:
    """sigma_r(f1..fn) for r = 1..n: the reduced classes, in c1..cn.

    The forms n x_i - p_1 have the series symfun.shifted_root_series(n).
    """
    ensure_rank(n)
    series = symfun.shifted_root_series(n)
    sigmas = symfun.elementary_from_power_sums(series)
    return tuple(p * Fraction(1, n**r) for r, p in enumerate(sigmas, start=1))


def twisted_classes(classes, n: int, t: MPoly) -> tuple[MPoly, ...]:
    """c_1..c_k of a rank-n bundle with classes c_1..c_k, twisted by a line class t.

    The powers of t are built once for all k.
    """
    powers = [MPoly.one(t.table)]
    for _ in classes:
        powers.append(powers[-1] * t)
    out = []
    for k in range(1, len(classes) + 1):
        total = powers[k] * comb(n, k)
        for i in range(1, k + 1):
            total = total + classes[i - 1] * powers[k - i] * comb(n - i, k - i)
        out.append(total)
    return tuple(out)


def reduced_chern_formula(n: int) -> tuple[MPoly, ...]:
    """The reduced classes at rank n, from the closed binomial formula."""
    ensure_rank(n)
    table = c_vars(n)
    classes = [MPoly.variable(table, f"c{i}") for i in range(1, n + 1)]
    return twisted_classes(classes, n, classes[0] * Fraction(-1, n))


@lru_cache(maxsize=None)
def twist(n: int) -> tuple[MPoly, ...]:
    """c_1..c_n of the rank-n bundle tensored with a line bundle of class t.

    The classes are in c1..cn, t; substituting t = 0 recovers c1..cn.
    """
    ensure_rank(n)
    table = c_vars(n).extend([("t", 1)])
    classes = [MPoly.variable(table, f"c{i}") for i in range(1, n + 1)]
    return twisted_classes(classes, n, MPoly.variable(table, "t"))


@lru_cache(maxsize=None)
def sym_power_det_inverse_chern(n: int) -> tuple[MPoly, ...]:
    """Classes 1..n of the rank-n symmetric power twisted by det inverse.

    The roots of that bundle are the integer forms sum_i (m_i - 1) x_i =
    m.x - p_1 over compositions m of n, whose power-sum series is
    symfun.forms_series(n, 1); the first class vanishes identically.
    """
    ensure_rank(n)
    return tuple(symfun.elementary_from_power_sums(symfun.forms_series(n, 1)))
